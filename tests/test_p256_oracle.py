"""Differential test of P-256 exp and mul against OpenSSL through `cryptography`.

The generator path is checked as a full point, by its compressed
encoding, against OpenSSL's public key derivation; other bases are checked
by the x coordinate against OpenSSL's ECDH, which returns only x. Reference
points enter through ``decode`` of OpenSSL's encodings. Both paths run in the same libcrypto
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
serialization = pytest.importorskip("cryptography.hazmat.primitives.serialization")

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


def _compressed_key(key):
    return key.public_bytes(serialization.Encoding.X962, serialization.PublicFormat.CompressedPoint)


def _public(e):
    """e * G, compressed, as OpenSSL derives the public key of private key e."""
    return _compressed_key(_private(e).public_key())


def _ecdh_x(p256, e, point):
    """The 32-byte x coordinate of e * point, by OpenSSL's ECDH."""
    peer = ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256R1(), p256.encode(point))
    return _private(e).exchange(ec.ECDH(), peer)


@pytest.mark.parametrize("e", _scalars())
def test_generator_matches_openssl(p256, e):
    assert p256.encode(p256.exp(p256.g, e)) == _public(e)


def _summands():
    """(a, b) pairs of neighbouring scalars whose sum is not a multiple of Q."""
    scalars = _scalars()
    return [(a, b) for a, b in zip(scalars, scalars[1:] + scalars[:1]) if (a + b) % Q]


@pytest.mark.parametrize("a, b", _summands())
def test_mul_matches_openssl(p256, a, b):
    point = p256.decode(_public(a))
    assert p256.encode(p256.mul(point, p256.decode(_public(b)))) == _public(a + b)
    assert p256.encode(p256.mul(point, point)) == _public(2 * a)
    assert p256.mul(point, p256.decode(_public(-a))) is None


@pytest.mark.parametrize("e", _scalars())
def test_other_bases_match_openssl_ecdh(p256, e):
    base = p256.decode(_public(0x5EED))
    assert p256.encode(p256.exp(base, e))[1:] == _ecdh_x(p256, e, base)


def test_every_power_of_two_matches_openssl(p256):
    base = p256.exp(p256.g, 0x5EED)
    for k in range(256):
        assert p256.encode(p256.exp(p256.g, 1 << k)) == _public(1 << k), k
        assert p256.encode(p256.exp(base, 1 << k))[1:] == _ecdh_x(p256, 1 << k, base), k


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
    return [int.from_bytes(_public(e)[1:], "big") for e in _scalars()]


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
    """The point that data decodes to, by its encoding."""
    try:
        return p256.encode(p256.decode(data))
    except GroupError:
        return "rejected"


def _openssl(data):
    try:
        return _compressed_key(ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256R1(), data))
    except ValueError:
        return "rejected"


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
