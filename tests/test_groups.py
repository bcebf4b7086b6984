import hashlib
import random
import struct
from collections import Counter

import pytest

from przkbind import groups
from przkbind.groups import (
    GroupError,
    get_group,
    hash_h1_bytes,
    hash_h2,
    hash_to_scalar,
    scalar_inv,
    scalar_random,
    scalar_random_nonzero,
)
from przkbind.simulator import HONEST, CampaignConfig, _spawn_rng, build_env, run_session

TOY_MEMBERS = sorted(pow(2, k, 23) for k in range(11))


class TestToyGroup:
    def test_parameters(self, toy):
        assert toy.q == 11
        assert all(toy.q % d for d in range(2, toy.q))  # prime
        # generator has exact order q: powers enumerate 11 distinct members
        powers = [pow(2, k, 23) for k in range(11)]
        assert len(set(powers)) == 11
        assert pow(2, 11, 23) == 1
        assert sorted(powers) == TOY_MEMBERS

    def test_exp_identity_cases(self, toy):
        assert toy.exp(toy.g, 0) == 1
        assert toy.exp(toy.identity, 5) == 1

    def test_exp_known_powers(self, toy):
        assert toy.exp(2, 3) == 2**3 % 23 == 8
        # full power table oracle: order of the subgroup
        table = {k: pow(2, k, 23) for k in range(12)}
        assert table[11] == 1
        assert toy.exp(2, 11) == 1

    def test_exp_matches_modular_oracle_exhaustively(self, toy):
        for base in TOY_MEMBERS:
            for e in range(11):
                assert toy.exp(base, e) == pow(base, e, 23)

    def test_mul_known_products(self, toy):
        assert toy.mul(1, 16) == 16
        assert toy.mul(9, 2) == 9 * 2 % 23 == 18
        assert toy.mul(13, 4) == 13 * 4 % 23 == 6

    def test_mul_commutative_and_associative_exhaustively(self, toy):
        for a in TOY_MEMBERS:
            for b in TOY_MEMBERS:
                assert toy.mul(a, b) == toy.mul(b, a)
        for a in TOY_MEMBERS[:6]:
            for b in TOY_MEMBERS:
                for c in TOY_MEMBERS:
                    assert toy.mul(toy.mul(a, b), c) == toy.mul(a, toy.mul(b, c))

    def test_exp_is_homomorphic_exhaustively(self, toy):
        for x in range(11):
            for y in range(11):
                lhs = toy.exp(toy.g, (x + y) % 11)
                rhs = toy.mul(toy.exp(toy.g, x), toy.exp(toy.g, y))
                assert lhs == rhs

    def test_encode_decode_roundtrip_all_members(self, toy):
        for member in TOY_MEMBERS:
            data = toy.encode(member)
            assert len(data) == 4
            assert toy.decode(data) == member

    def test_decode_rejects_every_nonmember_residue(self, toy):
        nonmembers = [v for v in range(23) if v not in set(TOY_MEMBERS)]
        assert len(nonmembers) == 12  # zero plus the 11 non-residues
        for v in nonmembers:
            with pytest.raises(GroupError):
                toy.decode(struct.pack(">I", v))
        with pytest.raises(GroupError):
            toy.decode(struct.pack(">I", 24))
        with pytest.raises(GroupError):
            toy.decode(b"\x00\x01")

    def test_scalar_encoding(self, toy):
        for s in range(11):
            assert toy.decode_scalar(toy.encode_scalar(s)) == s
        with pytest.raises(GroupError):
            toy.encode_scalar(11)
        with pytest.raises(GroupError):
            toy.decode_scalar(struct.pack(">I", 11))


class TestScalars:
    def test_random_in_range_and_deterministic(self, toy):
        rng = random.Random(99)
        draws = [scalar_random(toy, rng) for _ in range(100)]
        assert all(0 <= d < 11 for d in draws)
        rng2 = random.Random(99)
        assert draws == [scalar_random(toy, rng2) for _ in range(100)]

    def test_nonzero_variant_never_zero(self, toy):
        rng = random.Random(3)
        assert all(scalar_random_nonzero(toy, rng) != 0 for _ in range(10_000))

    def test_uniformity_within_five_sigma(self, toy):
        n = 10_000
        rng = random.Random(7)
        counts = [0] * 11
        for _ in range(n):
            counts[scalar_random(toy, rng)] += 1
        expected = n / 11
        bound = 5 * (n * (1 / 11) * (10 / 11)) ** 0.5
        for c in counts:
            assert abs(c - expected) <= bound

    def test_inverse(self, toy):
        for a in range(1, 11):
            assert a * scalar_inv(toy, a) % toy.q == 1
        with pytest.raises(GroupError):
            scalar_inv(toy, 0)


class TestHashes:
    def test_h1_deterministic_and_order_sensitive(self, toy):
        a, b = b"alpha-bytes", b"zeta-bytes"
        assert hash_to_scalar(toy, a, b) == hash_to_scalar(toy, a, b)
        assert hash_to_scalar(toy, a, b) != hash_to_scalar(toy, b, a)

    def test_h1_reduces_into_scalar_range(self, toy):
        for i in range(200):
            assert 0 <= hash_to_scalar(toy, str(i).encode()) < 11

    def test_h2_digest_properties(self):
        assert len(hash_h2(b"x")) == 32
        assert hash_h2(b"payload") == hash_h2(b"payload")
        assert hash_h2(b"") != hash_h2(b"\x00")

    def test_domain_tags_separate_h1_from_h2(self):
        assert hash_h1_bytes(b"same", b"inputs") != hash_h2(b"same", b"inputs")

    def test_length_prefix_blocks_concatenation_collisions(self):
        assert hash_h2(b"ab", b"c") != hash_h2(b"a", b"bc")
        assert hash_h1_bytes(b"ab", b"c") != hash_h1_bytes(b"a", b"bc")

    def test_non_bytes_input_rejected(self, toy):
        with pytest.raises(TypeError):
            hash_to_scalar(toy, "not-bytes")

    def test_h1_bytes_is_plain_tagged_sha256(self):
        # independent recomputation of the tag-and-length framing
        expected = hashlib.sha256(
            b"\x01" + struct.pack(">I", 3) + b"abc" + struct.pack(">I", 1) + b"d"
        ).digest()
        assert hash_h1_bytes(b"abc", b"d") == expected


def _affine_double(pt, p, a):
    # independent textbook doubling formula over affine coordinates
    x, y = pt
    lam = (3 * x * x + a) * pow(2 * y, -1, p) % p
    x3 = (lam * lam - 2 * x) % p
    return (x3, (lam * (x - x3) - y) % p)


def _naive_mult(group, base, k):
    # binary double-and-add using only group.mul
    acc = None
    cur = base
    while k:
        if k & 1:
            acc = group.mul(acc, cur)
        cur = group.mul(cur, cur)
        k >>= 1
    return acc


class TestP256:
    P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF

    def test_generator_is_on_curve(self, p256):
        assert p256.is_member(p256.g)
        assert p256.q.bit_length() == 256

    def test_double_matches_affine_oracle(self, p256):
        oracle = _affine_double(p256.g, self.P, self.P - 3)
        assert p256.exp(p256.g, 2) == oracle
        assert p256.mul(p256.g, p256.g) == oracle

    def test_exp_matches_naive_double_and_add(self, p256):
        rng = random.Random(1)
        for _ in range(4):
            k = rng.randrange(1, p256.q)
            assert p256.exp(p256.g, k) == _naive_mult(p256, p256.g, k)

    def test_group_order_annihilates_generator(self, p256):
        assert p256.exp(p256.g, p256.q) is None
        gx, gy = p256.g
        assert p256.exp(p256.g, p256.q - 1) == (gx, self.P - gy)

    def test_exp_is_homomorphic_sampled(self, p256):
        rng = random.Random(2)
        for _ in range(3):
            a, b = rng.randrange(p256.q), rng.randrange(p256.q)
            lhs = p256.exp(p256.g, (a + b) % p256.q)
            rhs = p256.mul(p256.exp(p256.g, a), p256.exp(p256.g, b))
            assert lhs == rhs

    def test_encode_decode_roundtrip(self, p256):
        rng = random.Random(3)
        points = [p256.g, p256.identity] + [
            p256.exp(p256.g, rng.randrange(1, p256.q)) for _ in range(6)
        ]
        for pt in points:
            data = p256.encode(pt)
            assert len(data) == 33
            assert p256.decode(data) == pt

    def test_identity_has_reserved_encoding(self, p256):
        assert p256.encode(p256.identity) == b"\x00" * 33

    def test_decode_rejects_invalid_encodings(self, p256):
        good = p256.encode(p256.g)
        with pytest.raises(GroupError):
            p256.decode(b"\x05" + good[1:])  # bad prefix
        with pytest.raises(GroupError):
            p256.decode(good[:-1])  # wrong length
        with pytest.raises(GroupError):
            p256.decode(b"\x02" + (self.P).to_bytes(32, "big"))  # x >= p
        # an x with no curve solution: search deterministically
        x = 5
        while True:
            cand = b"\x02" + x.to_bytes(32, "big")
            try:
                p256.decode(cand)
            except GroupError:
                break
            x += 1
        with pytest.raises(GroupError):
            p256.decode(cand)

    def test_declared_and_plain_base_paths_agree(self, p256):
        rng = random.Random(4)
        base = p256.exp(p256.g, rng.randrange(1, p256.q))
        declared = p256.long_lived(base)
        assert declared == base and hash(declared) == hash(base)
        for _ in range(2):
            k = rng.randrange(1, p256.q)
            # wNAF on the plain point, the comb table on the declared one
            assert p256.exp(base, k) == p256.exp(declared, k) == _naive_mult(p256, base, k)
        with pytest.raises(GroupError):
            p256.long_lived(p256.identity)

    def test_long_lived_rejects_non_points(self, p256):
        x, y = p256.exp(p256.g, 7)
        for bad in ((x, y + 1), [x, y], x, "point", (x, y, 1)):
            with pytest.raises(GroupError):
                p256.long_lived(bad)

    def test_honest_session_work_count(self, monkeypatch):
        """Jacobian doublings and mixed additions of one honest session once
        set-up has built both signed combs: 4 generator exps (16 doublings
        and exactly 32 additions each), 2 exps on the twin's key (43 and
        exactly 43) and one fresh-base wNAF exp (about 254 and 50): about 404
        and 267. One comb geometry for every declared base took 512 and 304."""
        config = CampaignConfig(sessions=1, group_id="p256", rng_seed=5)
        env = build_env(config)
        counts = Counter()
        for name in ("_jac_double", "_jac_add_affine"):
            def counted(*args, _step=getattr(groups, name), _name=name):
                counts[_name] += 1
                return _step(*args)

            monkeypatch.setattr(groups, name, counted)
        assert run_session(config, HONEST, _spawn_rng(5, "session/0"), env).accepted
        assert counts["_jac_double"] <= 420
        assert counts["_jac_add_affine"] <= 270

    def test_wire_points_leave_no_per_base_state(self, p256):
        rng = random.Random(5)
        wire = [p256.encode(p256.exp(p256.g, rng.randrange(1, p256.q))) for _ in range(200)]
        assert len(set(wire)) == 200
        state = dict(vars(p256))
        for data in wire:
            point = p256.decode(data)
            for _ in range(2):  # a repeated base gets no table either
                p256.exp(point, rng.randrange(1, p256.q))
            assert type(point) is tuple  # a plain tuple cannot carry a table
        assert vars(p256) == state == {}

    def test_scalar_codec(self, p256):
        s = 0xDEADBEEF
        assert p256.decode_scalar(p256.encode_scalar(s)) == s
        with pytest.raises(GroupError):
            p256.decode_scalar(p256.q.to_bytes(32, "big"))


def test_unknown_group_id_rejected():
    with pytest.raises(GroupError):
        get_group("curve25519")


def test_production_alias_resolves_to_p256():
    # the alias is gone: "p256" is the one name of the curve group
    with pytest.raises(GroupError):
        get_group("production")
