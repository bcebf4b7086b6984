import copy
import hashlib
import json
import random
import struct
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from przkbind.groups import GroupError, get_group
from przkbind.identity import EntityKeys, TwinKeyPair
from przkbind.registration import Registry
from przkbind.protocol import (
    BindingMismatch,
    Challenge,
    Commit,
    EntitySession,
    IdentityProof,
    Phase,
    Reason,
    Response,
    SessionError,
    Transcript,
    TwinSession,
    Verdict,
    WireError,
    decode_message,
    encode_message,
    extract_secret,
    fiat_shamir_prove,
    fiat_shamir_verify,
    identity_check,
    pump,
    run_interactive_session,
    schnorr_response,
    schnorr_verify,
)
from przkbind.protocol import ExtractionError

from conftest import T0, ScriptedRng


def make_entity(env, rng=None):
    return EntitySession(env["group"], env["keys"], env["record"], rng or random.Random(1))


def make_twin(env, rng=None):
    return TwinSession(env["group"], env["twin"], env["record"], rng or random.Random(2))


# -- wire format -------------------------------------------------------------


class TestWireFormat:
    def test_roundtrip_every_message_type(self, toy_env):
        toy = toy_env["group"]
        messages = [
            Commit(9),
            Challenge(4),
            Response(6),
            IdentityProof(7, 4),
            Verdict(True),
            Verdict(False, Reason.BAD_PROOF),
        ]
        for msg in messages:
            raw = encode_message(toy, msg)
            assert decode_message(toy, raw) == msg

    def test_roundtrip_production_group(self, p256_env):
        group = p256_env["group"]
        messages = [
            Commit(p256_env["twin"].pk_d),
            Challenge(12345),
            Response(group.q - 1),
            IdentityProof(p256_env["keys"].h_sp, p256_env["keys"].pk_p),
            Verdict(False, Reason.TIMEOUT),
        ]
        for msg in messages:
            assert decode_message(group, encode_message(group, msg)) == msg

    def test_header_layout(self, toy):
        raw = encode_message(toy, Commit(9))
        assert raw[0] == 0x01
        assert struct.unpack(">I", raw[1:5])[0] == len(raw) - 5
        assert raw[5:] == toy.encode(9)

    def test_malformed_inputs_rejected(self, toy):
        good = encode_message(toy, Response(6))
        with pytest.raises(WireError):
            decode_message(toy, good[:-1])          # truncated payload
        with pytest.raises(WireError):
            decode_message(toy, good + b"\x00")     # trailing bytes
        with pytest.raises(WireError):
            decode_message(toy, b"\x09" + good[1:])  # unknown tag
        with pytest.raises(WireError):
            decode_message(toy, b"\x01\x00")        # truncated header
        # response scalar out of range: z = 11 >= q
        bad = bytes([0x03]) + struct.pack(">I", 4) + struct.pack(">I", 11)
        with pytest.raises(WireError):
            decode_message(toy, bad)
        # commit that is not a subgroup member
        bad = bytes([0x01]) + struct.pack(">I", 4) + struct.pack(">I", 5)
        with pytest.raises(WireError):
            decode_message(toy, bad)
        # verdict with a bad flag byte, a reason byte no Reason has, or a payload of the wrong size
        for payload in (b"\x07\x00", b"\x00\x06", b"\x00\xff", b"\x00", b"\x00\x01\x00"):
            bad = bytes([0x05]) + struct.pack(">I", len(payload)) + payload
            with pytest.raises(WireError):
                decode_message(toy, bad)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10), st.integers(0, 10), st.sampled_from(sorted(pow(2, k, 23) for k in range(11))))
    def test_roundtrip_random_fields(self, c, z, member):
        toy = get_group("toy")
        for msg in (Challenge(c), Response(z), Commit(member), IdentityProof(z, member)):
            assert decode_message(toy, encode_message(toy, msg)) == msg


# -- pure relations ------------------------------------------------------------


class TestSchnorrRelations:
    def test_response_formula(self, toy):
        assert schnorr_response(toy, 5, 4, 3) == (5 + 4 * 3) % 11 == 6

    def test_verification_vector_accepts(self, toy):
        # oracle: g^6 = 18 and 9 * 8^4 = 9 * 2 = 18 (mod 23)
        assert pow(2, 6, 23) == 18
        assert 9 * pow(8, 4, 23) % 23 == 18
        assert schnorr_verify(toy, 8, 9, 4, 6)

    def test_wrong_response_rejected(self, toy):
        assert not schnorr_verify(toy, 8, 9, 4, 7)

    def test_zero_challenge_verifies_commitment_alone(self, toy):
        for pk_d in (8, 4, 16):
            assert schnorr_verify(toy, pk_d, 9, 0, 5)  # g^5 = 9 = alpha

    def test_completeness_sampled(self, toy):
        for sk_d in (1, 3, 10):
            pk_d = toy.exp(toy.g, sk_d)
            for r in range(11):
                alpha = toy.exp(toy.g, r)
                for c in range(11):
                    z = schnorr_response(toy, r, c, sk_d)
                    assert schnorr_verify(toy, pk_d, alpha, c, z)

    def test_replayed_response_fails_every_fresh_challenge(self, toy):
        # a recorded (alpha, c, z) only satisfies the equation at c' == c
        sk_d, pk_d = 3, 8
        for r in range(11):
            alpha = toy.exp(toy.g, r)
            for c in range(11):
                z = schnorr_response(toy, r, c, sk_d)
                for fresh in range(11):
                    expected = fresh == c
                    assert schnorr_verify(toy, pk_d, alpha, fresh, z) is expected

    def test_identity_check_vectors(self, toy):
        assert identity_check(toy, 13, 7)       # 2^7 = 13
        assert not identity_check(toy, 13, 8)   # 2^8 = 3
        assert not identity_check(toy, 13, 0)   # degenerate scalar guard
        assert not identity_check(toy, 1, 0)    # even against the identity element


# -- session state machines ------------------------------------------------------


class TestTwinSession:
    def test_commit_with_forced_nonce(self, toy_env):
        d = make_twin(toy_env, ScriptedRng(randranges=[5]))
        msg = d.commit()
        assert msg.alpha == pow(2, 5, 23) == 9
        assert d.phase is Phase.COMMITMENT_SENT
        assert d._nonce == 5

    def test_fresh_rngs_give_distinct_commitments(self, toy_env):
        # seeds chosen to draw distinct nonces
        a = make_twin(toy_env, ScriptedRng(randranges=[5])).commit()
        b = make_twin(toy_env, ScriptedRng(randranges=[7])).commit()
        assert a.alpha != b.alpha

    def test_commit_out_of_phase_raises(self, toy_env):
        d = make_twin(toy_env)
        d.commit()
        with pytest.raises(SessionError):
            d.commit()

    def test_respond_vector_and_nonce_erasure(self, toy_env):
        d = make_twin(toy_env, ScriptedRng(randranges=[5]))
        d.commit()
        (resp,) = d.receive(Challenge(4))
        assert resp.z == 6  # 5 + 4*3 mod 11
        assert d.phase is Phase.RESPONSE_SENT
        assert d._nonce is None

    def test_zero_challenge_echoes_nonce(self, toy_env):
        d = make_twin(toy_env, ScriptedRng(randranges=[5]))
        d.commit()
        assert d.receive(Challenge(0)) == [Response(5)]

    def test_identity_verification_vectors(self, toy_env):
        # h_sp = 7 passes g^h_sp == pk_p; 8 does not, and a zero h_sp is refused before the equation
        for h_sp, replies, phase in [(7, [Verdict(True)], Phase.KEY_ESTABLISHED),
                                     (8, [Verdict(False, Reason.BAD_IDENTITY)], Phase.FAILED),
                                     (0, [Verdict(False, Reason.BAD_IDENTITY)], Phase.FAILED)]:
            d = make_twin(toy_env, ScriptedRng(randranges=[5]))
            d.commit()
            d.receive(Challenge(4))
            assert d.receive(IdentityProof(h_sp, 4)) == replies
            assert d.phase is phase and (d.session_key is None) is (phase is Phase.FAILED)

    @pytest.mark.parametrize("env_name, share", [("toy_env", 5), ("p256_env", (1, 2))])
    def test_non_member_share_with_the_true_identity_hash_is_rejected(self, env_name, share, request):
        # h_sp passes the identity equation, so only R_p's membership check stands
        # between the twin and a key derived from a point outside the group
        env = request.getfixturevalue(env_name)
        assert not env["group"].is_member(share)
        p, d = make_entity(env), make_twin(env)
        (challenge,) = p.receive(d.commit())
        (proof,) = p.receive(d.receive(challenge)[0])
        assert d.receive(IdentityProof(proof.h_sp, share)) == [Verdict(False, Reason.BAD_IDENTITY)]
        assert d.phase is Phase.FAILED and d.session_key is None

    def test_binding_record_must_match_twin_key(self, toy_env):
        other = TwinKeyPair(4, toy_env["group"].exp(2, 4))
        with pytest.raises(BindingMismatch):
            TwinSession(toy_env["group"], other, toy_env["record"], random.Random(0))


class TestEntitySession:
    def test_challenge_deterministic_for_fixed_rng(self, toy_env):
        c1 = make_entity(toy_env, random.Random(9)).receive(Commit(9))
        c2 = make_entity(toy_env, random.Random(9)).receive(Commit(9))
        assert c1 == c2 and type(c1[0]) is Challenge

    def test_challenge_binds_zeta(self, toy_env):
        # same commitment and nonce, different binding record -> different c
        registry = Registry(toy_env["group"])
        other_record = registry.register(13, 8, T0 + 1)
        nonce = bytes(32)
        p1 = EntitySession(toy_env["group"], toy_env["keys"], toy_env["record"],
                           ScriptedRng(byte_values=[nonce]))
        p2 = EntitySession(toy_env["group"], toy_env["keys"], other_record,
                           ScriptedRng(byte_values=[nonce]))
        assert p1.receive(Commit(9)) != p2.receive(Commit(9))

    def test_challenge_binds_commitment(self, toy_env):
        nonce = bytes(32)
        p1 = make_entity(toy_env, ScriptedRng(byte_values=[nonce]))
        p2 = make_entity(toy_env, ScriptedRng(byte_values=[nonce]))
        assert p1.receive(Commit(9)) != p2.receive(Commit(4))

    def test_identity_commitment_is_degenerate(self, toy_env):
        p = make_entity(toy_env)
        assert p.receive(Commit(toy_env["group"].identity)) == [Verdict(False, Reason.DEGENERATE_COMMITMENT)]
        assert p.phase is Phase.FAILED
        assert p.failure is Reason.DEGENERATE_COMMITMENT

    @pytest.mark.parametrize("env_name, alpha", [("toy_env", 5), ("p256_env", (1, 2))])
    def test_non_member_commitment_is_degenerate(self, env_name, alpha, request):
        # 5 is not a square mod 23; (1, 2) is not on the curve
        env = request.getfixturevalue(env_name)
        assert not env["group"].is_member(alpha)
        p = make_entity(env)
        assert p.receive(Commit(alpha)) == [Verdict(False, Reason.DEGENERATE_COMMITMENT)]
        assert p.phase is Phase.FAILED and p.failure is Reason.DEGENERATE_COMMITMENT

    def test_verify_response_failure_is_terminal(self, toy_env):
        p = make_entity(toy_env)
        (ch,) = p.receive(Commit(9))
        bad = (schnorr_response(toy_env["group"], 0, ch.c, 999) + 1) % 11
        assert p.receive(Response(bad)) == [Verdict(False, Reason.BAD_PROOF)]
        assert p.phase is Phase.FAILED and p.failure is Reason.BAD_PROOF
        assert p.receive(Response(bad)) == []
        assert not schnorr_verify(toy_env["group"], toy_env["record"].pk_d, p._alpha, p._c, bad)

    def test_identity_proof_with_forced_ephemeral(self, toy_env):
        p = make_entity(toy_env, ScriptedRng(randranges=[2]))
        (ch,) = p.receive(Commit(9))
        # impersonate the twin honestly: we know r=5, sk_d=3 in the fixture
        z = schnorr_response(toy_env["group"], 5, ch.c, 3)
        assert p.receive(Response(z)) == [IdentityProof(7, 4)]  # r_p = 2 -> 2^2 = 4
        assert schnorr_verify(toy_env["group"], toy_env["record"].pk_d, p._alpha, p._c, z)
        assert p.phase is Phase.KEY_ESTABLISHED

    def test_binding_record_must_match_entity_key(self, toy_env):
        other_keys = EntityKeys(9, toy_env["group"].exp(2, 9))
        with pytest.raises(BindingMismatch):
            EntitySession(toy_env["group"], other_keys, toy_env["record"], random.Random(0))

    def test_binding_digest_recomputed_before_first_use(self, toy_env):
        # a record whose zeta no longer matches its fields is refused by
        # both parties at session construction
        from przkbind.registration import BindingRecord

        rec = toy_env["record"]
        forged = BindingRecord(rec.pk_p, rec.pk_d, rec.t, b"\x00" * 32)
        with pytest.raises(BindingMismatch):
            EntitySession(toy_env["group"], toy_env["keys"], forged, random.Random(0))
        with pytest.raises(BindingMismatch):
            TwinSession(toy_env["group"], toy_env["twin"], forged, random.Random(0))

    @pytest.mark.parametrize("env_name", ["toy_env", "p256_env"])
    def test_record_moved_to_another_time_refused(self, env_name, request):
        # the zeta is genuine, but it binds the keys at the record's old time
        from przkbind.registration import BindingRecord

        env = request.getfixturevalue(env_name)
        rec = env["record"]
        moved = BindingRecord(rec.pk_p, rec.pk_d, rec.t + 1, rec.zeta)
        with pytest.raises(BindingMismatch):
            EntitySession(env["group"], env["keys"], moved, random.Random(0))
        with pytest.raises(BindingMismatch):
            TwinSession(env["group"], env["twin"], moved, random.Random(0))

    @pytest.mark.parametrize("env_name", ["toy_env", "p256_env"])
    @pytest.mark.parametrize("field", ["pk_p", "pk_d"])
    def test_identity_element_key_in_binding_refused(self, env_name, field, request):
        # a record with a correct zeta over an identity-element key is refused
        # by both parties, each holding keys that match the record
        from przkbind.registration import BindingRecord, compute_zeta, verify_record

        env = request.getfixturevalue(env_name)
        group, rec = env["group"], env["record"]
        pks = {"pk_p": rec.pk_p, "pk_d": rec.pk_d, field: group.identity}
        record = BindingRecord(**pks, t=rec.t, zeta=compute_zeta(group, pks["pk_p"], pks["pk_d"], rec.t))
        assert verify_record(group, record)
        with pytest.raises(BindingMismatch, match="identity element"):
            EntitySession(group, EntityKeys(env["keys"].h_sp, record.pk_p), record, random.Random(0))
        with pytest.raises(BindingMismatch, match="identity element"):
            TwinSession(group, TwinKeyPair(env["twin"].sk_d, record.pk_d), record, random.Random(0))


class TestKeyDerivation:
    def test_fixed_vector_shared_point_and_key(self, toy_env):
        toy = toy_env["group"]
        # twin side: (pk_p * R_p)^sk_d = (13*4)^3 = 6^3 = 9 (mod 23)
        assert 13 * 4 % 23 == 6
        assert pow(6, 3, 23) == 9
        # entity side: pk_d^(h_sp + r_p) = 8^9 = 9 (mod 23)
        assert pow(8, (7 + 2) % 11, 23) == 9

        d = make_twin(toy_env, ScriptedRng(randranges=[5]))
        d.commit()
        d.receive(Challenge(4))
        d.receive(IdentityProof(7, 4))
        dk = d.session_key

        p = make_entity(toy_env, ScriptedRng(randranges=[2]))
        (ch,) = p.receive(Commit(9))
        p.receive(Response(schnorr_response(toy, 5, ch.c, 3)))
        pk = p.session_key

        assert dk.k_pd == pk.k_pd
        # standalone oracle: sha256 over the tagged framing of (enc(9), zeta)
        def frame(b):
            return struct.pack(">I", len(b)) + b

        oracle = hashlib.sha256(
            b"\x01" + frame(struct.pack(">I", 9)) + frame(toy_env["record"].zeta)
        ).digest()
        assert dk.k_pd == oracle

    def test_different_binding_records_give_different_keys(self, toy_env):
        toy = toy_env["group"]
        other_record = Registry(toy).register(13, 8, T0 + 1)

        def run(record):
            p = EntitySession(toy, toy_env["keys"], record, ScriptedRng(randranges=[2]))
            (ch,) = p.receive(Commit(9))
            p.receive(Response(schnorr_response(toy, 5, ch.c, 3)))
            return p.session_key

        assert run(toy_env["record"]).k_pd != run(other_record).k_pd

    def test_distinct_ephemerals_distinct_keys(self, toy_env):
        toy = toy_env["group"]

        def run(r_p):
            p = make_entity(toy_env, ScriptedRng(randranges=[r_p]))
            (ch,) = p.receive(Commit(9))
            p.receive(Response(schnorr_response(toy, 5, ch.c, 3)))
            return p.session_key

        assert run(2).k_pd != run(3).k_pd

    def test_shared_point_freshness_enumerated(self, toy_env):
        # distinct r_p values yield distinct shared points exactly when
        # h_sp + r_p differs mod q
        toy = toy_env["group"]
        h_sp = 7
        points = {}
        for r_p in range(11):
            exponent = (h_sp + r_p) % 11
            points[r_p] = toy.exp(8, exponent)
        for a in range(11):
            for b in range(11):
                same_exponent = (h_sp + a) % 11 == (h_sp + b) % 11
                assert (points[a] == points[b]) is same_exponent


class TestEndToEnd:
    @pytest.mark.parametrize("env_name", ["toy_env", "p256_env"])
    def test_honest_session(self, env_name, request):
        env = request.getfixturevalue(env_name)
        p, d = make_entity(env), make_twin(env)
        transcript = run_interactive_session(p, d)
        assert p.phase is Phase.KEY_ESTABLISHED
        assert d.phase is Phase.KEY_ESTABLISHED
        assert p.session_key.k_pd == d.session_key.k_pd
        assert transcript.verdict == Verdict(True)
        assert transcript.alpha is not None and transcript.r_p_pub is not None
        assert transcript.h_sp == env["keys"].h_sp
        assert d._nonce is None

    def test_key_agreement_over_many_toy_sessions(self, toy_env):
        for seed in range(100):
            p = make_entity(toy_env, random.Random(seed))
            d = make_twin(toy_env, random.Random(10_000 + seed))
            run_interactive_session(p, d)
            assert p.session_key.k_pd == d.session_key.k_pd

    def test_exact_operation_counts(self, toy_env):
        # manual tally from the procedure: twin does commit, identity check,
        # and key exponentiations (3) plus the combine mul and the key hash;
        # entity does the two verification exps, its ephemeral share, and
        # the key exp (4) plus the verify mul and challenge+key hashes
        p, d = make_entity(toy_env), make_twin(toy_env)
        run_interactive_session(p, d)
        assert (d.ops.group_exp, d.ops.group_mul, d.ops.hash) == (3, 1, 1)
        assert (p.ops.group_exp, p.ops.group_mul, p.ops.hash) == (4, 1, 2)


class TestStateMachineSafety:
    def test_out_of_order_message_fails_session(self, toy_env):
        p = make_entity(toy_env)
        replies = p.receive(Response(5))
        assert replies == [Verdict(False, Reason.OUT_OF_ORDER)]
        assert p.phase is Phase.FAILED

        d = make_twin(toy_env)
        replies = d.receive(IdentityProof(7, 4))
        assert replies == [Verdict(False, Reason.OUT_OF_ORDER)]
        assert d.phase is Phase.FAILED

    def test_failed_session_accepts_no_further_input(self, toy_env):
        p = make_entity(toy_env)
        p.receive(Response(5))
        assert p.receive(Commit(9)) == []
        assert p.phase is Phase.FAILED

    def test_established_session_ignores_new_protocol_messages(self, toy_env):
        p, d = make_entity(toy_env), make_twin(toy_env)
        run_interactive_session(p, d)
        assert p.receive(Commit(9)) == []
        assert p.phase is Phase.KEY_ESTABLISHED

    def test_reject_verdict_fails_open_session(self, toy_env):
        d = make_twin(toy_env)
        d.commit()
        d.receive(Verdict(False, Reason.BAD_PROOF))
        assert d.phase is Phase.FAILED and d.failure is Reason.BAD_PROOF

    def test_reject_verdict_erases_established_key(self, toy_env):
        p, d = make_entity(toy_env), make_twin(toy_env)
        run_interactive_session(p, d)
        assert p.phase is Phase.KEY_ESTABLISHED
        # a late accept changes nothing
        assert p.receive(Verdict(True)) == []
        assert p.phase is Phase.KEY_ESTABLISHED and p.session_key is not None
        # a reject means the peer holds no key, so neither may the entity
        assert p.receive(Verdict(False, Reason.BAD_IDENTITY)) == []
        assert p.phase is Phase.FAILED
        assert p.session_key is None
        assert p.failure is Reason.BAD_IDENTITY

    @pytest.mark.parametrize("env_name", ["toy_env", "p256_env"])
    def test_twin_rejecting_a_tampered_identity_proof_fails_the_keyed_entity(self, env_name, request):
        # the entity holds its key before the twin checks the identity proof; the twin's
        # reject verdict must take that key away
        env = request.getfixturevalue(env_name)
        p, d = make_entity(env), make_twin(env)

        def hop(recipient, msg):
            if isinstance(msg, IdentityProof):
                assert p.phase is Phase.KEY_ESTABLISHED
                msg = IdentityProof((msg.h_sp + 1) % env["group"].q, msg.r_p_pub)
            return recipient.receive(msg)

        assert pump(p, d, hop) == ["commit", "challenge", "response", "identity_proof", "verdict"]
        assert d.phase is Phase.FAILED and d.failure is Reason.BAD_IDENTITY
        assert p.phase is Phase.FAILED and p.failure is Reason.BAD_IDENTITY and p.session_key is None

    def test_pump_alternates_parties_and_stops_on_silence(self, toy_env):
        p, d = make_entity(toy_env), make_twin(toy_env)
        seen = []

        def hop(recipient, msg):
            seen.append((recipient is p, msg.label))
            return recipient.receive(msg)

        labels = pump(p, d, hop)
        assert seen == [
            (True, "commit"), (False, "challenge"), (True, "response"),
            (False, "identity_proof"), (True, "verdict"),
        ]
        # it returns the labels of the messages its hop saw, in order
        assert labels == [label for _, label in seen]
        assert p.session_key.k_pd == d.session_key.k_pd
        # the default hop just delivers
        p2, d2 = make_entity(toy_env), make_twin(toy_env)
        pump(p2, d2)
        assert p2.session_key.k_pd == d2.session_key.k_pd

    def test_timeout_event(self, toy_env):
        # a peer's timeout arrives as its reject verdict and erases the nonce r
        d = make_twin(toy_env)
        d.commit()
        assert d.receive(Verdict(False, Reason.TIMEOUT)) == []
        assert d.phase is Phase.FAILED and d.failure is Reason.TIMEOUT
        assert d._nonce is None

    def test_malformed_bytes_fail_with_phase_appropriate_reason(self, toy_env):
        p = make_entity(toy_env)
        replies = p.receive_bytes(b"\xff\xff")
        assert replies == [Verdict(False, Reason.DEGENERATE_COMMITMENT)]
        d = make_twin(toy_env)
        d.commit()
        d.receive(Challenge(4))
        replies = d.receive_bytes(b"garbage-bytes")
        assert replies == [Verdict(False, Reason.BAD_IDENTITY)]

    @pytest.mark.parametrize("c", [-1, 11, 12345])
    def test_out_of_range_challenge_fails_like_its_malformed_bytes(self, toy_env, c):
        # a challenge no encoding can carry gets the reply that malformed
        # bytes get in the same phase, and the nonce r is erased
        d = make_twin(toy_env)
        d.commit()
        malformed = make_twin(toy_env)
        malformed.commit()
        assert d.receive(Challenge(c)) == malformed.receive_bytes(b"garbage-bytes")
        assert d.receive(Challenge(c)) == []
        assert d.phase is Phase.FAILED and d.failure is Reason.OUT_OF_ORDER
        assert d._nonce is None

    def test_no_path_to_key_establishment_skips_verification(self, toy_env):
        # depth-4 smoke enumeration; the acceptance suite runs depth 6
        outcomes = _fuzz_machines(toy_env, max_depth=4)
        assert outcomes["p_established"] > 0
        assert outcomes["d_established"] > 0


def _challenged_entity(env):
    p = make_entity(env)
    (ch,) = p.receive(Commit(9))  # alpha = g^5; a response off by one fails the equation
    return p, Response((schnorr_response(env["group"], 5, ch.c, env["twin"].sk_d) + 1) % 11)


def _responded_twin(proof):
    def setup(env):
        d = make_twin(env, ScriptedRng(randranges=[5]))
        d.commit()
        d.receive(Challenge(4))
        return d, proof

    return setup


def _committed_twin(env):
    d = make_twin(env)
    d.commit()
    return d, Challenge(11)  # q itself: outside [0, q)


# Each rejecting check -> (a session at its phase and the input it rejects,
# the step that checks it, the reason).
REJECTIONS = {
    "degenerate commitment": (
        lambda env: (make_entity(env), Commit(env["group"].identity)), "_challenge", Reason.DEGENERATE_COMMITMENT
    ),
    "non-member commitment": (lambda env: (make_entity(env), Commit(5)), "_challenge", Reason.DEGENERATE_COMMITMENT),
    "challenge out of range": (_committed_twin, "_respond", Reason.OUT_OF_ORDER),
    "bad proof": (_challenged_entity, "_verify_response", Reason.BAD_PROOF),
    "wrong identity hash": (_responded_twin(IdentityProof(8, 4)), "_verify_identity", Reason.BAD_IDENTITY),
    "zero identity hash": (_responded_twin(IdentityProof(0, 4)), "_verify_identity", Reason.BAD_IDENTITY),
    "non-member share": (_responded_twin(IdentityProof(7, 5)), "_verify_identity", Reason.BAD_IDENTITY),
}


def _rng_state(session):
    """The session rng's stream, and any draws pinned on it that it has not yet handed out."""
    return session.rng.getstate(), copy.deepcopy(vars(session.rng))


@pytest.mark.parametrize("case", list(REJECTIONS))
def test_every_check_rejects_through_one_path(toy_env, case):
    # the phase's AWAITS entry names the step and the one reason; the step declines
    # before any rng draw, and receive answers exactly the reject verdict, as
    # receive_bytes answers the message's bytes where the message has an encoding
    setup, step, reason = REJECTIONS[case]
    received, msg = setup(toy_env)
    assert received.AWAITS[received.phase] == (type(msg), step, reason)
    before = _rng_state(received)
    assert received.receive(msg) == [Verdict(False, reason)]
    assert _rng_state(received) == before
    sessions = [received]
    try:
        raw = encode_message(toy_env["group"], msg)
    except GroupError:  # a non-member or an out-of-range scalar has no encoding
        assert case in ("non-member commitment", "challenge out of range", "non-member share")
    else:
        wired, _ = setup(toy_env)
        assert wired.receive_bytes(raw) == [Verdict(False, reason)]
        sessions.append(wired)
    for session in sessions:
        assert session.phase is Phase.FAILED and session.failure is reason
        assert session.session_key is None and session._nonce is None


# Each party, in pump's seat order -> how many messages an honest session sends it.
PARTIES = {"entity": 3, "twin": 2}


def _passes_own_check(session, fed):
    """Whether a message fed to ``session`` passes the check that party must pass
    before it holds a key, by the pure relations: for the entity, a response whose
    z verifies against its own commitment and challenge; for the twin, an identity
    proof whose R_p is a member and whose h_sp passes the identity equation."""
    group, binding = session.group, session.binding
    if isinstance(session, EntitySession):
        return any(type(m) is Response and schnorr_verify(group, binding.pk_d, session._alpha, session._c, m.z)
                   for m in fed)
    return any(type(m) is IdentityProof and group.is_member(m.r_p_pub)
               and identity_check(group, binding.pk_p, m.h_sp) for m in fed)


def _seeded_parties(env):
    group, record = env["group"], env["record"]
    return dict(zip(PARTIES, (EntitySession(group, env["keys"], record, random.Random(41)),
                              TwinSession(group, env["twin"], record, random.Random(42)))))


def _honest_inbox(env, party):
    """The messages an honest session between the seeded parties sent ``party``."""
    honest = _seeded_parties(env)
    inbox = {seat: [] for seat in honest.values()}
    pump(*honest.values(), lambda recipient, msg: inbox[recipient].append(msg) or recipient.receive(msg))
    return inbox[honest[party]]


def _party_after(env, party, k):
    """A fresh entity or twin fed the first k messages an honest session sent it,
    and those messages: each party's rng is seeded, so it replays the honest run
    up to there."""
    session, fed = _seeded_parties(env)[party], _honest_inbox(env, party)[:k]
    if party == "twin":
        session.commit()
    for msg in fed:
        session.receive(msg)
    return session, fed


# A value of each message class a step can await (the verdict is heeded in every phase).
STEP_MESSAGES = {Commit: Commit(9), Challenge: Challenge(4), Response: Response(6), IdentityProof: IdentityProof(7, 4)}


@pytest.mark.parametrize("party", list(PARTIES))
def test_awaits_table_answers_each_phase_and_message(toy_env, party):
    # the party's whole table on toy, and the uncommitted twin's IDLE, which it
    # does not list: the awaited class (the honest run's message) gets its step's
    # one reply, every other class is out of order, and bytes that do not decode
    # get the entry's reason
    table, inbox = _seeded_parties(toy_env)[party].AWAITS, _honest_inbox(toy_env, party)
    starts = {k: lambda k=k: _party_after(toy_env, party, k)[0] for k in range(len(inbox))}
    if party == "twin":
        starts[None] = partial(make_twin, toy_env)
    seen = set()
    for k, start in starts.items():
        phase = start().phase
        if phase.terminal:
            continue
        seen.add(phase)
        awaited, step, malformed = table.get(phase, (None, None, Reason.OUT_OF_ORDER))
        for cls in STEP_MESSAGES:
            session = start()
            if cls is awaited:
                assert type(inbox[k]) is cls
                direct = start()
                assert session.receive(inbox[k]) == [getattr(direct, step)(inbox[k])]
                assert session.phase is direct.phase is not Phase.FAILED
            else:
                assert session.receive(STEP_MESSAGES[cls]) == [Verdict(False, Reason.OUT_OF_ORDER)]
                assert session.phase is Phase.FAILED and session.failure is Reason.OUT_OF_ORDER
        session = start()
        assert session.receive_bytes(b"garbage-bytes") == [Verdict(False, malformed)]
        assert session.phase is Phase.FAILED and session._nonce is None
    assert seen >= set(table)


def _wire_bytes(group):
    """Arbitrary bytes, frames of the right size with random payloads, and the
    encodings of well-formed steps and verdicts holding random values."""
    scalar = st.integers(0, group.q - 1)
    element = scalar.map(lambda e: group.exp(group.g, e))
    sizes = {0x01: group.element_size, 0x02: group.scalar_size, 0x03: group.scalar_size,
             0x04: group.scalar_size + group.element_size, 0x05: 2}
    framed = st.sampled_from(sorted(sizes)).flatmap(
        lambda tag: st.binary(min_size=sizes[tag], max_size=sizes[tag]).map(
            lambda payload: bytes([tag]) + struct.pack(">I", len(payload)) + payload
        )
    )
    steps = st.one_of(
        st.builds(Commit, element),
        st.builds(Challenge, scalar),
        st.builds(Response, scalar),
        st.builds(IdentityProof, scalar, element),
    )
    verdicts = st.builds(Verdict, st.booleans(), st.sampled_from([None, *Reason]))
    encoded = [messages.map(partial(encode_message, group)) for messages in (steps, verdicts)]
    return st.one_of(st.binary(max_size=40), framed, *encoded)


@pytest.mark.parametrize("party", list(PARTIES))
@pytest.mark.parametrize("env_name", ["toy_env", "p256_env"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_arbitrary_bytes_never_key_an_unverified_party(env_name, party, request, data):
    # after an honest prefix to any phase, no bytes give a party a key without a
    # message fed to it passing that party's check, and every rejection leaves it
    # failed and erased
    env = request.getfixturevalue(env_name)
    session, fed = _party_after(env, party, data.draw(st.integers(0, PARTIES[party]), label="prefix"))
    for raw in data.draw(st.lists(_wire_bytes(env["group"]), min_size=1, max_size=4), label="wire"):
        try:
            fed.append(decode_message(env["group"], raw))
        except WireError:
            pass
        replies = session.receive_bytes(raw)
        if session.session_key is not None:
            assert _passes_own_check(session, fed) and session.phase is Phase.KEY_ESTABLISHED
        if session.phase is Phase.FAILED:
            assert isinstance(session.failure, Reason)
            assert session.session_key is None and session._nonce is None
        for reply in replies:
            if isinstance(reply, Verdict) and not reply.accept:
                assert session.phase is Phase.FAILED and session.failure is reply.reason


def _fuzz_symbols(env):
    toy = env["group"]

    def honest_response(p):
        # white-box: compute the correct answer to p's outstanding challenge,
        # pretending the commitment was g^5; arbitrary when unchallenged
        if p._c is None:
            return Response(0)
        return Response(schnorr_response(toy, 5, p._c, env["twin"].sk_d))

    p_symbols = [
        lambda p: Commit(9),
        lambda p: Commit(toy.identity),
        lambda p: Commit(4),
        honest_response,
        lambda p: Response(3),
        lambda p: IdentityProof(7, 4),
        lambda p: Verdict(False, Reason.BAD_PROOF),
    ]
    d_symbols = [
        lambda d: Challenge(4),
        lambda d: Challenge(0),
        lambda d: IdentityProof(7, 4),
        lambda d: IdentityProof(8, 4),
        lambda d: IdentityProof(0, 4),
        lambda d: Commit(9),
        lambda d: Verdict(True),
    ]
    return p_symbols, d_symbols


def _fuzz_machines(env, max_depth):
    """Exhaustively drive each machine with message sequences; any path that
    reaches key establishment must have fed that party a message passing its check."""
    toy = env["group"]
    p_symbols, d_symbols = _fuzz_symbols(env)
    outcomes = {"p_established": 0, "d_established": 0}

    def feed(session, history):
        """Feed the history's messages. After each, a failed party holds no key and no
        nonce, and answered the message that failed it, unless a verdict, with its
        reject verdict."""
        fed = []
        for symbol in history:
            fed.append(symbol(session))
            was_failed = session.phase is Phase.FAILED
            replies = session.receive(fed[-1])
            if session.phase is Phase.FAILED:
                assert session.session_key is None and session._nonce is None
                if not was_failed and not isinstance(fed[-1], Verdict):
                    assert replies == [Verdict(False, session.failure)]
        return fed

    def check_entity(p, fed):
        if p.phase is Phase.KEY_ESTABLISHED:
            assert _passes_own_check(p, fed), "entity established a key without a valid proof"
            outcomes["p_established"] += 1

    def walk_entity(history):
        p = EntitySession(toy, env["keys"], env["record"], ScriptedRng(randranges=[2], seed=7))
        check_entity(p, feed(p, history))
        if p.phase.terminal or len(history) >= max_depth:
            return
        for symbol in p_symbols:
            walk_entity(history + [symbol])

    def check_twin(d, fed):
        if d.phase is Phase.KEY_ESTABLISHED:
            assert _passes_own_check(d, fed), "twin established a key without identity verification"
            outcomes["d_established"] += 1

    def walk_twin(history):
        d = TwinSession(toy, env["twin"], env["record"], ScriptedRng(randranges=[5], seed=8))
        d.commit()
        check_twin(d, feed(d, history))
        if d.phase.terminal or len(history) >= max_depth:
            return
        for symbol in d_symbols:
            walk_twin(history + [symbol])

    walk_entity([])
    walk_twin([])
    return outcomes


class TestTranscriptSecrecy:
    def test_serialized_transcript_holds_only_public_values(self, toy_env):
        p, d = make_entity(toy_env), make_twin(toy_env)
        transcript = run_interactive_session(p, d)
        parsed = json.loads(json.dumps(transcript.to_dict(toy_env["group"])))
        assert set(parsed) == {"alpha", "c", "z", "h_sp", "r_p_pub", "verdict"}

    def test_emitted_bytes_never_contain_secrets(self, p256_env):
        # pin the entity's ephemeral r_p and drive the session step-wise so
        # the twin's nonce can be captured before erasure, then scan every
        # emitted byte for their encodings
        group = p256_env["group"]
        r_p = random.Random(33).randrange(1, group.q)
        p = EntitySession(group, p256_env["keys"], p256_env["record"], ScriptedRng(randranges=[r_p], seed=31))
        d = TwinSession(group, p256_env["twin"], p256_env["record"], random.Random(32))

        transcript = Transcript()
        emitted = bytearray()

        def send(msg):
            transcript.note(msg)
            emitted.extend(encode_message(group, msg))
            return msg

        commit = send(d.commit())
        r_nonce = d._nonce
        ch = send(*p.receive(commit))
        resp = send(*d.receive(ch))
        proof = send(*p.receive(resp))
        assert proof.r_p_pub == group.exp(group.g, r_p)
        assert send(*d.receive(proof)) == Verdict(True)
        emitted.extend(json.dumps(transcript.to_dict(group)).encode())

        secrets = {
            "identity secret": p256_env["identity"].s_p,
            "twin secret key": group.encode_scalar(p256_env["twin"].sk_d),
            "commitment nonce": group.encode_scalar(r_nonce),
            "ephemeral share exponent": group.encode_scalar(r_p),
        }
        for label, secret in secrets.items():
            assert secret not in bytes(emitted), f"{label} leaked into emitted bytes"


# -- non-interactive mode -------------------------------------------------------


class TestFiatShamir:
    def test_honest_proof_verifies(self, toy_env, p256_env):
        for env in (toy_env, p256_env):
            group = env["group"]
            alpha, z = fiat_shamir_prove(
                group, env["twin"].sk_d, env["record"].zeta, env["twin"].pk_d, random.Random(6)
            )
            assert fiat_shamir_verify(group, env["twin"].pk_d, env["record"].zeta, alpha, z)

    def test_proof_does_not_transplant_to_other_key(self, toy_env):
        # fixed vector: the challenge binds the key, so moving the proof to
        # pk' = g^2 changes the recomputed challenge and breaks the equation
        # (at toy scale a different pk' can collide by chance; this one cannot)
        toy = toy_env["group"]
        alpha, z = fiat_shamir_prove(toy, 3, toy_env["record"].zeta, 8, random.Random(6))
        other_pk = toy.exp(toy.g, 2)
        assert not fiat_shamir_verify(toy, other_pk, toy_env["record"].zeta, alpha, z)

    def test_tampered_proof_rejected(self, toy_env):
        toy = toy_env["group"]
        alpha, z = fiat_shamir_prove(toy, 3, toy_env["record"].zeta, 8, random.Random(6))
        assert not fiat_shamir_verify(toy, 8, toy_env["record"].zeta, alpha, (z + 1) % 11)

    def test_exhaustive_over_all_nonces(self, toy_env):
        # every nonce (forced through the rng) yields a verifying proof
        toy = toy_env["group"]
        for r in range(11):
            alpha, z = fiat_shamir_prove(
                toy, 3, toy_env["record"].zeta, 8, ScriptedRng(randranges=[r])
            )
            assert fiat_shamir_verify(toy, 8, toy_env["record"].zeta, alpha, z)

    def test_identity_public_key_rejected(self, toy_env):
        toy = toy_env["group"]
        assert not fiat_shamir_verify(toy, toy.identity, toy_env["record"].zeta, 9, 5)

    @pytest.mark.parametrize("env_name, alpha", [("toy_env", 5), ("p256_env", (1, 2))])
    def test_non_member_commitment_rejected(self, env_name, alpha, request):
        env = request.getfixturevalue(env_name)
        assert fiat_shamir_verify(env["group"], env["twin"].pk_d, env["record"].zeta, alpha, 1) is False

    def test_every_toy_non_member_commitment_rejected(self, toy_env):
        # each residue outside the order-11 subgroup, and a value of another type, is a False, never an error
        toy = toy_env["group"]
        outside = [x for x in range(-1, 24) if not toy.is_member(x)] + [None, (1, 2), b"\x09"]
        for alpha in outside:
            assert fiat_shamir_verify(toy, toy_env["twin"].pk_d, toy_env["record"].zeta, alpha, 1) is False


class TestExtraction:
    def _forked_transcripts(self, toy, sk_d=3, r=5, c1=4, c2=7):
        alpha = toy.exp(toy.g, r)
        t1 = Transcript(alpha=alpha, c=c1, z=schnorr_response(toy, r, c1, sk_d))
        t2 = Transcript(alpha=alpha, c=c2, z=schnorr_response(toy, r, c2, sk_d))
        return t1, t2

    def test_recovers_secret_from_forked_pair(self, toy):
        t1, t2 = self._forked_transcripts(toy)
        assert extract_secret(toy, t1, t2) == 3

    def test_recovers_secret_for_all_forks(self, toy):
        for sk_d in range(1, 11):
            for r in range(11):
                for c1 in range(11):
                    for c2 in range(c1 + 1, 11):
                        t1, t2 = self._forked_transcripts(toy, sk_d, r, c1, c2)
                        assert extract_secret(toy, t1, t2) == sk_d

    def test_equal_challenges_rejected(self, toy):
        t1, t2 = self._forked_transcripts(toy, c1=4, c2=4)
        with pytest.raises(ExtractionError):
            extract_secret(toy, t1, t2)

    def test_different_commitments_rejected(self, toy):
        t1, _ = self._forked_transcripts(toy, r=5)
        _, t2 = self._forked_transcripts(toy, r=6)
        with pytest.raises(ExtractionError):
            extract_secret(toy, t1, t2)

    def test_extracted_secret_regenerates_public_key(self, toy):
        t1, t2 = self._forked_transcripts(toy)
        sk = extract_secret(toy, t1, t2)
        assert toy.exp(toy.g, sk) == 8
