"""Differential test of P-256 exp and mul against OpenSSL through `cryptography`.

The generator path is checked as a full point against OpenSSL's public
key derivation; declared long-lived keys and plain points are checked by
the x coordinate against OpenSSL's ECDH, which returns only x. The powers
of two, and 1, 2, q - 1 and q - 2, give the signed combs long runs of equal
digits and both parities. Scalars built from the combs' own recoding read
every entry of every table of both geometries with both signs, and the
test asserts that coverage from the entries the exp loop adds. Point
addition shares its formulas with exp, so mul is checked against OpenSSL's
public keys too: aG + bG, aG + aG and aG + (-aG). Point decoding must
accept exactly the 33-byte encodings that OpenSSL accepts, at the same
point; the one difference is the identity's 33 zero bytes, which OpenSSL
has no compressed form for.
"""

import random

import pytest

from przkbind import groups
from przkbind.groups import GroupError

ec = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")

Q = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B


def _scalars():
    rng = random.Random(11)
    edge = [1, 2, Q - 1, Q - 2, Q + 1, 1 << 255]
    # long zero runs in the middle, at the top and at the bottom of the scalar
    zero_runs = [(1 << 255) | 1, (1 << 200) | (1 << 3), 0xFFFF << 240, ((1 << 64) - 1) << 100]
    return edge + zero_runs + [rng.randrange(1, Q) for _ in range(12)]


def _private(e):
    return ec.derive_private_key(e % Q, ec.SECP256R1())


def _public(e):
    """e * G as OpenSSL derives the public key of private key e."""
    numbers = _private(e).public_key().public_numbers()
    return (numbers.x, numbers.y)


def _ecdh_x(e, point):
    peer = ec.EllipticCurvePublicNumbers(point[0], point[1], ec.SECP256R1()).public_key()
    return int.from_bytes(_private(e).exchange(ec.ECDH(), peer), "big")


@pytest.mark.parametrize("e", _scalars())
def test_generator_matches_openssl(p256, e):
    assert p256.exp(p256.g, e) == _public(e)


def _summands():
    """(a, b) pairs of neighbouring scalars whose sum is not a multiple of Q."""
    scalars = _scalars()
    return [(a, b) for a, b in zip(scalars, scalars[1:] + scalars[:1]) if (a + b) % Q]


@pytest.mark.parametrize("a, b", _summands())
def test_mul_matches_openssl(p256, a, b):
    point = _public(a)
    assert p256.mul(point, _public(b)) == _public(a + b)
    assert p256.mul(point, point) == _public(2 * a)
    assert p256.mul(point, _public(-a)) is None


@pytest.mark.parametrize("e", _scalars())
def test_declared_and_plain_bases_match_openssl_ecdh(p256, e):
    numbers = _private(0x5EED).public_key().public_numbers()
    plain = (numbers.x, numbers.y)
    declared = p256.long_lived(plain)
    expected = _ecdh_x(e, plain)
    assert p256.exp(plain, e)[0] == expected
    assert p256.exp(declared, e)[0] == expected


def test_every_power_of_two_matches_openssl(p256):
    declared = p256.long_lived(p256.exp(p256.g, 0x5EED))
    for k in range(256):
        assert p256.exp(p256.g, 1 << k) == _public(1 << k), k
        assert p256.exp(declared, 1 << k)[0] == _ecdh_x(1 << k, declared), k


def _comb_scalars(teeth, cols):
    """Odd scalars e, with their even partners q - e, whose signed-comb digits
    take every value in every column but the top four. With
    h = (e + 2^n - 1) / 2, column c's digit is bits c, c + cols, ... of h, and
    scalar s gives it the digit (s + c) mod 2^teeth. Clearing h's three bits
    below the top one and setting that keeps e below 2^(n - 3) < q."""
    n = teeth * cols
    for s in range(1 << teeth):
        h = 0
        for c in range(cols):
            digit = (s + c) % (1 << teeth)
            for j in range(teeth):
                h |= (digit >> j & 1) << (c + j * cols)
        e = 2 * (h & ((1 << (n - 4)) - 1) | 1 << (n - 1)) + 1 - (1 << n)
        yield from (e, Q - e)


@pytest.mark.parametrize("declared", [False, True], ids=["generator", "declared key"])
def test_every_signed_table_entry_is_read_with_both_signs(p256, monkeypatch, declared):
    base = p256.long_lived(_public(0x5EED)) if declared else p256.g
    assert [len(table) for table in base.comb] == ([32] if declared else [128, 128])
    slots = {}  # every table entry and its negation -> (table, entry, sign)
    for k, table in enumerate(base.comb):
        for i, (x, y) in enumerate(table):
            slots[(x, y)], slots[(x, P - y)] = (k, i, 1), (k, i, -1)
    assert len(slots) == 2 * sum(len(table) for table in base.comb)
    read = set()

    def add(pt, q, _add=groups._jac_add_affine):
        read.add(slots.get(q))
        return _add(pt, q)

    monkeypatch.setattr(groups, "_jac_add_affine", add)
    for e in _comb_scalars(*base.geometry[:2]):
        if declared:
            assert p256.exp(base, e)[0] == _ecdh_x(e, base), e
        else:
            assert p256.exp(base, e) == _public(e), e
    assert read == set(slots.values())


def test_multiples_of_the_order_give_the_identity(p256):
    declared = p256.long_lived(p256.exp(p256.g, 0x5EED))
    plain = tuple(declared)
    for e in (0, Q, 2 * Q, -Q):
        assert p256.exp(p256.g, e) is None
        assert p256.exp(declared, e) is None
        assert p256.exp(plain, e) is None


def _compressed(prefix, x):
    return bytes([prefix]) + x.to_bytes(32, "big")


def _non_residue_xs():
    """x coordinates below p for which x^3 - 3x + b has no square root."""
    xs = (x for x in range(1, 1000) if pow((x**3 - 3 * x + B) % P, (P - 1) // 2, P) == P - 1)
    return [next(xs) for _ in range(8)]


def _valid_xs():
    return [_public(e)[0] for e in _scalars()]


def _random_encodings():
    """Seeded random bytes; most start 0x02 or 0x03, so about half of them decode."""
    rng = random.Random(23)
    return [bytes([rng.choice((2, 3, rng.randrange(256)))]) + rng.randbytes(32) for _ in range(300)]


# kind -> (its 33-byte encodings, how many of them decode: all, none or some)
_ENCODINGS = {
    "valid points, both signs": (lambda: [_compressed(pre, x) for x in _valid_xs() for pre in (2, 3)], "all"),
    "x >= p": (lambda: [_compressed(pre, x) for x in (P, P + 1, P + 7, (1 << 256) - 1) for pre in (2, 3)], "none"),
    "non-residue x": (lambda: [_compressed(pre, x) for x in _non_residue_xs() for pre in (2, 3)], "none"),
    "other prefixes": (
        lambda: [_compressed(pre, x) for x in _valid_xs()[:4] for pre in (0x00, 0x01, 0x04, 0x05, 0x07, 0xFF)],
        "none",
    ),
    "seeded random bytes": (_random_encodings, "some"),
}


def _ours(p256, data):
    try:
        return p256.decode(data)
    except GroupError:
        return "rejected"


def _openssl(data):
    try:
        numbers = ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256R1(), data).public_numbers()
    except ValueError:
        return "rejected"
    return (numbers.x, numbers.y)


@pytest.mark.parametrize("kind", list(_ENCODINGS))
def test_decode_accepts_exactly_what_openssl_accepts(p256, kind):
    make, decoded = _ENCODINGS[kind]
    encodings = make()
    outcomes = [_ours(p256, data) for data in encodings]
    assert outcomes == [_openssl(data) for data in encodings]
    accepted = sum(outcome != "rejected" for outcome in outcomes)
    assert {"all": accepted == len(encodings), "none": accepted == 0, "some": 0 < accepted < len(encodings)}[decoded]


def test_identity_encoding_is_the_one_difference(p256):
    assert p256.decode(bytes(33)) is None
    assert _openssl(bytes(33)) == "rejected"
