import copy
import ctypes
import gc
import hashlib
import os
import pickle
import random
import struct
import subprocess
import sys
import threading
from collections import Counter, namedtuple
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
P256_P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
P256_B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
P256_G = (0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
          0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5)


def _python(script, *args):
    """The stdout of a fresh interpreter that runs script, with this przkbind on its path."""
    src = str(Path(groups.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                          text=True, timeout=300, check=True).stdout


class TestToyGroup:
    def test_toy_runs_never_load_ctypes(self, tmp_path):
        """A toy campaign and the report check of its file never load ctypes,
        which only P-256 needs."""
        script = """
import sys
from przkbind import cli
out = sys.argv[1]
assert cli.main(["simulate", "--group", "toy", "--sessions", "50", "--adv-ratio", "0.5", "--seed", "7",
                 "--out", out]) == 0
assert cli.main(["report", "--in", out + ".json"]) == 0
print("ctypes" in sys.modules)
"""
        assert _python(script, str(tmp_path / "toy")).splitlines()[-1] == "False"

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


def _affine_add(p1, p2, p, a):
    # independent textbook chord-and-tangent addition; None is the identity
    if p1 is None or p2 is None:
        return p2 if p1 is None else p1
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2:
        return _affine_double(p1, p, a) if y1 == y2 else None
    lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def _naive_mult(base, k):
    # binary double-and-add on the textbook formulas alone
    acc = None
    while k:
        if k & 1:
            acc = _affine_add(acc, base, P256_P, P256_P - 3)
        base = _affine_double(base, P256_P, P256_P - 3)
        k >>= 1
    return acc


def _enc(pair):
    """The SEC 1 compressed encoding of an affine pair, 33 zero bytes for None."""
    if pair is None:
        return bytes(33)
    x, y = pair
    return bytes([2 + (y & 1)]) + x.to_bytes(32, "big")


class TestP256:
    P = P256_P

    def test_generator_is_on_curve(self, p256):
        assert p256.is_member(p256.g) and type(p256.g) is groups.P256Point
        assert p256.encode(p256.g) == _enc(P256_G)
        assert p256.q.bit_length() == 256

    def test_double_matches_affine_oracle(self, p256):
        oracle = _enc(_affine_double(P256_G, self.P, self.P - 3))
        assert p256.encode(p256.exp(p256.g, 2)) == oracle
        assert p256.encode(p256.mul(p256.g, p256.g)) == oracle

    def test_exp_matches_naive_double_and_add(self, p256):
        rng = random.Random(1)
        pair = _naive_mult(P256_G, rng.randrange(1, p256.q))
        base = p256.decode(_enc(pair))
        for _ in range(4):
            k = rng.randrange(1, p256.q)
            assert p256.encode(p256.exp(p256.g, k)) == _enc(_naive_mult(P256_G, k))
            assert p256.encode(p256.exp(base, k)) == _enc(_naive_mult(pair, k))

    def test_mul_matches_affine_oracle(self, p256):
        rng = random.Random(6)
        a, b = (_naive_mult(P256_G, rng.randrange(1, p256.q)) for _ in range(2))
        pa, pb, neg_a = (p256.decode(_enc(pair)) for pair in (a, b, (a[0], self.P - a[1])))
        assert p256.encode(p256.mul(pa, pb)) == _enc(_affine_add(a, b, self.P, self.P - 3))
        assert p256.encode(p256.mul(pa, pa)) == _enc(_affine_double(a, self.P, self.P - 3))
        assert p256.mul(pa, neg_a) is None
        assert p256.mul(pa, None) == p256.mul(None, pa) == pa

    def test_group_order_annihilates_generator(self, p256):
        assert p256.exp(p256.g, p256.q) is None
        gx, gy = P256_G
        assert p256.encode(p256.exp(p256.g, p256.q - 1)) == _enc((gx, self.P - gy))

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
            assert p256.decode(data) == p256.decode(bytearray(data)) == pt

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

    def test_honest_session_work_count(self, monkeypatch):
        """One honest session makes 7 libcrypto multiplies (4 of them on
        OpenSSL's generator table) and 2 additions: one per group.exp and
        group.mul, with no curve arithmetic anywhere else; a decode makes
        neither. Only the additions ask whether their result is infinity: an
        exp knows that from its scalar. No operation makes a BN_CTX or a
        BIGNUM: each reuses the working objects that ``_curve`` made once,
        and each exp clears the scalar BIGNUM once. Each exp, mul and decode
        result is one new EC_POINT, and each is freed once its point is
        dropped."""
        config = CampaignConfig(sessions=1, group_id="p256", rng_seed=5)
        env = build_env(config)
        lib, *curve = groups._curve()
        counts = Counter()

        class Counted:
            def __getattr__(self, name):
                return getattr(lib, name)

            def EC_POINT_mul(self, group, r, n, q, m, ctx):
                counts["generator mul" if n else "point mul"] += 1
                return lib.EC_POINT_mul(group, r, n, q, m, ctx)

            def EC_POINT_add(self, *args):
                counts["add"] += 1
                return lib.EC_POINT_add(*args)

            def BN_bin2bn(self, data, size, ret):
                if not ret:  # a NULL ret makes a new BIGNUM
                    counts["BN_new"] += 1
                return lib.BN_bin2bn(data, size, ret)

        for name in ("BN_CTX_new", "BN_new", "BN_clear", "EC_POINT_new", "EC_POINT_free", "EC_POINT_is_at_infinity"):
            def call(*args, name=name):
                counts[name] += 1
                return getattr(lib, name)(*args)
            setattr(Counted, name, staticmethod(call))

        monkeypatch.setattr(groups, "_curve", lambda: (Counted(), *curve))
        assert run_session(config, HONEST, _spawn_rng(5, "session/0"), env).accepted
        p256 = get_group("p256")
        decoded = [p256.decode(p256.encode(point)) for point in (p256.g, env.record.pk_d, env.record.pk_p)]
        assert decoded == [p256.g, env.record.pk_d, env.record.pk_p]
        del decoded
        gc.collect()  # the session's parties and their points are dropped by now
        assert counts == {"generator mul": 4, "point mul": 3, "add": 2, "BN_clear": 7,
                          "EC_POINT_new": 9 + 3, "EC_POINT_free": 9 + 3, "EC_POINT_is_at_infinity": 2}

    def test_exp_by_a_multiple_of_q_is_infinity_without_libcrypto(self, p256, monkeypatch):
        """The group has prime order and cofactor 1, so e·P is infinity
        exactly when q divides e: exp answers None for such an e before it
        makes a point or multiplies, on the generator and on any other base."""
        g = p256.g
        point = p256.exp(g, 0x5EED)
        lib, *curve = groups._curve()
        calls = Counter()

        class Counted:
            def __getattr__(self, name):
                def call(*args):
                    calls[name] += 1
                    return getattr(lib, name)(*args)
                return call

        monkeypatch.setattr(groups, "_curve", lambda: (Counted(), *curve))
        assert p256.exp(point, 0) is p256.exp(point, p256.q) is p256.exp(g, 2 * p256.q) is None
        assert calls["EC_POINT_new"] == calls["EC_POINT_mul"] == 0
        assert p256.exp(point, p256.q + 1) == point  # a scalar that q does not divide still multiplies
        assert calls["EC_POINT_new"] == calls["EC_POINT_mul"] == 1

    def test_exp_wipes_the_scratch_scalar(self, p256):
        """The scalar BIGNUM that every exp loads its exponent into, which may
        be a secret key, reads zero once exp returns, on the generator table
        and on any other base."""
        base = p256.exp(p256.g, 0x5EED)
        lib, _, (_, scalar, _), _ = groups._curve()
        for point in (p256.g, base):
            p256.exp(point, 0xC0FFEE)
            assert lib.BN_num_bits(ctypes.c_void_p(scalar)) == 0

    def test_wire_points_leave_no_per_base_state(self, p256):
        rng = random.Random(5)
        wire = [p256.encode(p256.exp(p256.g, rng.randrange(1, p256.q))) for _ in range(200)]
        assert len(set(wire)) == 200
        state = dict(vars(p256))
        for data in wire:
            point = p256.decode(data)
            for _ in range(2):  # a repeated base leaves no state either
                p256.exp(point, rng.randrange(1, p256.q))
            assert type(point) is groups.P256Point
        assert vars(p256) == state == {}

    def test_threads_share_the_curve_safely(self, p256):
        """Four threads, started together, each run the same 100 exps and 100
        muls 20 times over; every result equals the serial one. ctypes
        releases the GIL inside libcrypto, so an OpenSSL object that threads
        share, such as the BN_CTX, the scalar BIGNUM or the output buffer,
        races here and makes this test fail or crash in most runs, unless the
        operation holds the lock that guards it."""
        rng = random.Random(7)
        bases = [p256.g] + [p256.exp(p256.g, rng.randrange(1, p256.q)) for _ in range(3)]
        work = [(bases[i % 4], bases[(i + 1) % 4], rng.randrange(1, p256.q)) for i in range(100)]
        expected = [(p256.exp(base, k), p256.mul(base, other)) for base, other, k in work]
        start = threading.Barrier(4, timeout=60)

        def run(shift):  # each thread starts at a different op of the same list
            start.wait()
            order = work[shift:] + work[:shift]
            return [[(p256.exp(base, k), p256.mul(base, other)) for base, other, k in order]
                    for _ in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the GIL over far more often than by default
        try:
            with ThreadPoolExecutor(4) as pool:
                results = list(pool.map(run, range(0, 100, 25), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for shift, rounds in zip(range(0, 100, 25), results):
            assert rounds == [expected[shift:] + expected[:shift]] * 20

    def test_repeated_operations_do_not_grow_memory(self):
        """20 000 exps, 20 000 muls and 20 000 decodes after a warm-up of 1 000
        of each leave the peak RSS and the C heap in use where they were:
        every operation reuses the same OpenSSL working objects, and the
        EC_POINT of every result is freed with its point. VmHWM is this
        address space's own peak (ru_maxrss would start at pytest's); glibc's
        mallinfo2 counts the bytes that malloc has handed out and not had
        back, which is where libcrypto keeps its objects. Leaking one BIGNUM
        per exp grows the heap in use by ~1560 KiB, whether przkbind loads
        from .pyc files or compiles from source; the peak alone can miss part
        of such a leak, as heap that compiling freed absorbs it. Leaking a
        point per operation grows both by ~17 MiB."""
        script = """
import ctypes, random
from przkbind.groups import get_group
class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in
                ("arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]
mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = Mallinfo2
def kib():
    with open("/proc/self/status") as status:
        peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return peak, mallinfo2().uordblks // 1024
p256 = get_group("p256")
rng = random.Random(8)
base = p256.exp(p256.g, rng.randrange(1, p256.q))
wire = p256.encode(base)
def work(n):
    for i in range(n):
        p256.mul(p256.exp(p256.g if i % 2 else base, rng.randrange(1, p256.q)), p256.decode(wire))
work(1_000)
before = kib()
work(20_000)
print(*(after - was for after, was in zip(kib(), before)))
"""
        peak, heap = map(int, _python(script).split())
        assert peak < 256 and heap < 256  # KiB

    def test_tuples_are_not_elements(self, p256):
        """A point is not its affine pair: the pair is no member, and exp, mul
        and encode refuse it by name."""
        point = p256.exp(p256.g, 0xC0FFEE)
        pair = _naive_mult(P256_G, 0xC0FFEE)
        assert p256.encode(point) == _enc(pair)
        assert point != pair and pair != point and not point == pair
        assert point != p256.g and point == p256.decode(_enc(pair))
        assert point != None  # noqa: E711 -- the protocol compares with the identity, which is None
        assert not p256.is_member(pair)
        for operation in (lambda: p256.exp(pair, 2), lambda: p256.mul(point, pair),
                          lambda: p256.mul(pair, None), lambda: p256.encode(pair)):
            with pytest.raises(GroupError) as info:
                operation()
            assert repr(pair) in str(info.value)

    def test_points_hash_by_encoding(self, p256):
        a, b = p256.exp(p256.g, 3), p256.mul(p256.g, p256.exp(p256.g, 2))
        assert a is not b and hash(a) == hash(b) == hash(p256.encode(a))
        assert {a: 1}[b] == 1 and len({a, b, p256.exp(p256.g, 4)}) == 2

    def test_points_compare_through_libcrypto(self, p256):
        a, b = p256.exp(p256.g, 3), p256.mul(p256.exp(p256.g, 1), p256.exp(p256.g, 2))
        assert a == b and not a != b
        assert a != p256.exp(p256.g, 4)
        assert p256.mul(a, p256.exp(a, p256.q - 1)) is None  # a + (-a)

    def test_point_survives_pickle_and_deepcopy(self, p256):
        point = p256.exp(p256.g, 12345)
        for again in (pickle.loads(pickle.dumps(point)), copy.deepcopy(point), copy.copy(point)):
            assert type(again) is groups.P256Point and again == point
        assert p256.encode(copy.deepcopy(point)) == p256.encode(point)

    def test_scalar_codec(self, p256):
        s = 0xDEADBEEF
        assert p256.decode_scalar(p256.encode_scalar(s)) == s
        with pytest.raises(GroupError):
            p256.decode_scalar(p256.q.to_bytes(32, "big"))


_P256 = get_group("p256")
_Y5 = pow(5**3 - 3 * 5 + P256_B, (P256_P + 1) // 4, P256_P)  # a square root, as p = 3 mod 4
# x = 5 is on the curve, so 5 + p fits 32 bytes
_PAIRS = [P256_G, (5, _Y5 if _Y5 % 2 == 0 else P256_P - _Y5), _naive_mult(P256_G, 7)]
_POINTS = [_P256.g] + [_P256.decode(_enc(pair)) for pair in _PAIRS[1:]]
_Pair = namedtuple("_Pair", "x y")


def _near_misses(pair):
    """Values one step from a curve point's affine pair, and the pair in other
    forms: no element is among them."""
    x, y = pair
    return [
        [x, y], (x,), (x, y, 0), (), (float(x), float(y)), (x, str(y)), x, True, False, 1.0,
        (True, y), (x, False), (x - P256_P, y), (-x, y), (x, -y),
        (x + P256_P, y), (x, y + P256_P), (x + 2**256, y), (x, y + 2**256), (x, y + 1), (x, (y * 2) % P256_P),
        _Pair(x, y),
    ]


_COORDINATES = st.one_of(st.integers(-(2**257), 2**257), st.integers(P256_P, 2**256 - 1),
                         st.integers(0, P256_P - 1), st.booleans(), st.floats())
_ENCODINGS = [_P256.encode(point) for point in _POINTS] + [
    b"\x04" + x.to_bytes(32, "big") + y.to_bytes(32, "big") for x, y in _PAIRS] + [b"\x00", b""]
_OPERANDS = st.one_of(
    st.none(),
    st.sampled_from(_ENCODINGS),  # bytes are not elements, not even a point's own encoding
    st.sampled_from(_POINTS),
    st.sampled_from(_PAIRS),  # an affine pair on the curve is not an element either
    st.sampled_from(_PAIRS).flatmap(lambda pair: st.sampled_from(_near_misses(pair))),
    st.tuples(_COORDINATES, _COORDINATES),
    st.tuples(st.integers(P256_P, 2**256 - 1), st.sampled_from([y for _, y in _PAIRS])),
    st.lists(_COORDINATES, max_size=3),
    st.lists(_COORDINATES, max_size=3).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(operand=_OPERANDS, other=st.sampled_from([*_POINTS, None]),
       e=st.one_of(st.integers(-(2**257), 2**257), st.sampled_from([0, _P256.q, -_P256.q, 3 * _P256.q])))
def test_exp_and_mul_reject_exactly_what_is_member_rejects(operand, other, e):
    """exp, at any exponent, mul, in either position, and encode raise
    GroupError naming the operand exactly when is_member rejects it, and
    is_member takes a P256Point or None and nothing else: not bytes, not an
    affine pair on the curve."""
    assert _P256.is_member(operand) == (operand is None or type(operand) is groups.P256Point)
    operations = [lambda: _P256.exp(operand, e), lambda: _P256.mul(operand, other),
                  lambda: _P256.mul(other, operand), lambda: _P256.encode(operand)]
    for operation in operations:
        if _P256.is_member(operand):
            operation()
        else:
            with pytest.raises(GroupError, match="not a curve point") as info:
                operation()
            assert repr(operand) in str(info.value)


def test_unknown_group_id_rejected():
    with pytest.raises(GroupError):
        get_group("curve25519")


def test_production_alias_resolves_to_p256():
    # the alias is gone: "p256" is the one name of the curve group
    with pytest.raises(GroupError):
        get_group("production")
