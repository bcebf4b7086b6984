import random

import pytest

from przkbind.adversary import (
    MITM_SLOTS,
    AdversaryKind,
    AttackError,
    attack_impersonate_twin,
    attack_kci,
    attack_mitm_tamper,
    attack_replay,
)
from przkbind.protocol import (
    EXCHANGE,
    Challenge,
    EntitySession,
    IdentityProof,
    Phase,
    Reason,
    TwinSession,
    identity_check,
    run_interactive_session,
    schnorr_verify,
)

def entity(env, seed=0):
    return EntitySession(env["group"], env["keys"], env["record"], random.Random(seed))


def twin(env, seed=0):
    return TwinSession(env["group"], env["twin"], env["record"], random.Random(seed))


def recorded(env, seed=1):
    """The transcripts an eavesdropper recorded: one honest session."""
    return [run_interactive_session(entity(env, seed), twin(env, seed + 1))]


class TestReplay:
    def test_empty_transcript_store_is_an_error(self, toy_env):
        with pytest.raises(AttackError):
            attack_replay([], random.Random(0), entity(toy_env))

    def test_accepted_exactly_on_challenge_collision(self, toy_env):
        # the replayed response satisfies the equation iff the fresh
        # challenge equals the recorded one
        transcripts = recorded(toy_env)
        hits = 0
        for seed in range(400):
            target = entity(toy_env, 100 + seed)
            outcome = attack_replay(transcripts, random.Random(seed), target)
            collided = target._c == transcripts[0].c
            assert outcome.verdict.accept is collided
            # the deceived entity sends its identity proof; else it sends a reject
            last = "identity_proof" if collided else "verdict"
            assert outcome.messages == ["commit", "challenge", "response", last]
            hits += outcome.verdict.accept
        # toy collision probability is 1/11; the exact count is seed-pinned
        assert 15 <= hits <= 60

    def test_rejection_reason_is_bad_proof(self, toy_env):
        transcripts = recorded(toy_env)
        for seed in range(50):
            target = entity(toy_env, 500 + seed)
            outcome = attack_replay(transcripts, random.Random(seed), target)
            if not outcome.verdict.accept:
                assert outcome.verdict.reason is Reason.BAD_PROOF
                assert target.phase is Phase.FAILED
                return
        pytest.fail("no rejected replay found in 50 seeds")

    def test_production_replays_never_accepted(self, p256_env):
        transcripts = recorded(p256_env)
        for seed in range(60):
            outcome = attack_replay(transcripts, random.Random(seed), entity(p256_env, 700 + seed))
            assert not outcome.verdict.accept


class TestImpersonateTwin:
    def test_blind_guess_rate_matches_enumeration(self, toy_env):
        # ground truth by full enumeration: for a fixed challenge exactly one
        # of the 11 responses verifies, for every commitment exponent
        toy = toy_env["group"]
        for c in range(11):
            accepting = sum(
                schnorr_verify(toy, 8, toy.exp(toy.g, r), c, z)
                for r in range(11)
                for z in range(11)
            )
            assert accepting == 11  # 11 of 121 pairs: rate 1/11

    def test_strategy_acceptance_near_toy_rate(self, toy_env):
        hits = sum(
            attack_impersonate_twin(random.Random(s), entity(toy_env, 900 + s)).verdict.accept
            for s in range(400)
        )
        assert 15 <= hits <= 60

    def test_failure_verdict_reason(self, toy_env):
        for s in range(50):
            outcome = attack_impersonate_twin(random.Random(s), entity(toy_env, 30 + s))
            if not outcome.verdict.accept:
                assert outcome.verdict.reason is Reason.BAD_PROOF
                return
        pytest.fail("no rejected impersonation found in 50 seeds")

    def test_production_impersonation_never_accepted(self, p256_env):
        for s in range(60):
            outcome = attack_impersonate_twin(random.Random(s), entity(p256_env, 40 + s))
            assert not outcome.verdict.accept


class TestKci:
    def test_identity_guess_ground_truth(self, toy_env):
        # exactly one of the 11 possible guesses passes the identity check
        toy = toy_env["group"]
        winners = [h for h in range(11) if identity_check(toy, 13, h)]
        assert winners == [7]

    def test_strategy_acceptance_near_toy_rate(self, toy_env):
        hits = sum(
            attack_kci(random.Random(s), twin(toy_env, 60 + s)).verdict.accept
            for s in range(400)
        )
        assert 15 <= hits <= 60

    def test_replayed_identity_hash_passes_but_is_replay_capability(self, toy_env):
        # an adversary reusing an observed h_sp does satisfy the identity
        # equation; the strategy taxonomy attributes that to replay
        d = twin(toy_env, 77)
        d.commit()
        d.receive(Challenge(4))
        d.verify_identity(IdentityProof(7, 4))
        assert d.phase is Phase.KEY_ESTABLISHED

    def test_production_kci_never_accepted(self, p256_env):
        for s in range(60):
            outcome = attack_kci(random.Random(s), twin(p256_env, 80 + s))
            assert not outcome.verdict.accept
            assert outcome.messages == list(EXCHANGE)


class TestMitmTamper:
    def test_every_single_bit_flip_of_the_response_is_rejected(self, toy_env):
        # enumerate: flipping any payload bit of the response either breaks
        # the equation (z' != z) or the scalar decoding; never accepted
        toy = toy_env["group"]
        for bit in range(4 * 8):
            p = entity(toy_env, 200 + bit)
            d = twin(toy_env, 300 + bit)
            header_bits = 5 * 8
            outcome = attack_mitm_tamper(random.Random(bit), p, d, slot=2, bit=header_bits + bit)
            assert not outcome.verdict.accept
            assert p.phase is Phase.FAILED

    def test_every_identity_hash_bit_flip_is_rejected(self, toy_env):
        # oracle: 2^h mod 23 != 13 for every h != 7, so any decodable flip
        # of h_sp fails the identity equation
        toy = toy_env["group"]
        assert all(pow(2, h, 23) != 13 for h in range(11) if h != 7)
        for bit in range(4 * 8):
            p = entity(toy_env, 400 + bit)
            d = twin(toy_env, 500 + bit)
            header_bits = 5 * 8
            outcome = attack_mitm_tamper(random.Random(bit), p, d, slot=3, bit=header_bits + bit)
            assert not outcome.verdict.accept
            assert d.phase is Phase.FAILED

    def test_tampered_closing_verdict_is_post_authentication(self, toy_env):
        p, d = entity(toy_env, 600), twin(toy_env, 601)
        outcome = attack_mitm_tamper(random.Random(4), p, d, slot=4)
        assert not outcome.verdict.accept
        assert "post-auth" in outcome.detail
        # both parties had already derived keys before the flip
        assert p.session_key is not None and d.session_key is not None

    def test_tampered_commit_and_challenge_rejected(self, toy_env):
        for slot in (0, 1):
            for seed in range(40):
                p, d = entity(toy_env, 700 + seed), twin(toy_env, 800 + seed)
                outcome = attack_mitm_tamper(random.Random(seed), p, d, slot=slot)
                assert not outcome.verdict.accept

    def test_random_slot_tampering_never_accepted_production(self, p256_env):
        for seed in range(40):
            p, d = entity(p256_env, 900 + seed), twin(p256_env, 950 + seed)
            outcome = attack_mitm_tamper(random.Random(seed), p, d)
            assert not outcome.verdict.accept

    def test_ephemeral_share_flip_is_disruption_not_false_acceptance(self, p256_env):
        # flip a bit inside the R_p point of the identity-proof message: if
        # it still decodes, the twin's credential checks legitimately pass
        # and only the keys disagree; scored as not-accepted either way
        group = p256_env["group"]
        header_bits = 5 * 8
        h_bits = group.scalar_size * 8
        for seed in range(40):
            p, d = entity(p256_env, 1000 + seed), twin(p256_env, 1100 + seed)
            bit = header_bits + h_bits + 8 + seed  # inside the x coordinate
            outcome = attack_mitm_tamper(random.Random(seed), p, d, slot=3, bit=bit)
            assert not outcome.verdict.accept
            if d.phase is Phase.KEY_ESTABLISHED:
                # entity remains established too, but on a different key
                assert p.session_key.k_pd != d.session_key.k_pd
                return
        pytest.fail("no decodable ephemeral-share flip found in 40 seeds")


class TestKinds:
    def test_kind_enum_is_one_to_one_with_strategies(self):
        assert {k.value for k in AdversaryKind} == {
            "replay",
            "impersonate_twin",
            "mitm_tamper",
            "kci_impersonate_physical",
        }
