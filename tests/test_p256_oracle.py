"""Differential test of P-256 exp and mul against OpenSSL through `cryptography`.

The generator path is checked as a full point against OpenSSL's public
key derivation; other bases are checked by the x coordinate against
OpenSSL's ECDH, which returns only x. Both paths run in the same libcrypto
as `cryptography`, so these tests pin the binding (scalar reduction, point
transfer, the identity) rather than the curve formulas: those are checked
against textbook affine formulas in test_groups.py. The scalars include
every power of two, 1, 2, q - 1, q - 2 and q + 1. mul is checked against
OpenSSL's public keys too: aG + bG, aG + aG and aG + (-aG). Point decoding
must accept exactly the 33-byte encodings that OpenSSL accepts, at the same
point; the one difference is the identity's 33 zero bytes, which OpenSSL
has no compressed form for.
"""

import random

import pytest

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
def test_other_bases_match_openssl_ecdh(p256, e):
    base = _public(0x5EED)
    assert p256.exp(base, e)[0] == _ecdh_x(e, base)


def test_every_power_of_two_matches_openssl(p256):
    base = p256.exp(p256.g, 0x5EED)
    for k in range(256):
        assert p256.exp(p256.g, 1 << k) == _public(1 << k), k
        assert p256.exp(base, 1 << k)[0] == _ecdh_x(1 << k, base), k


def test_multiples_of_the_order_give_the_identity(p256):
    base = p256.exp(p256.g, 0x5EED)
    for e in (0, Q, 2 * Q, -Q):
        assert p256.exp(p256.g, e) is None
        assert p256.exp(base, e) is None


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
