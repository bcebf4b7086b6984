"""Prime-order cyclic group backends and the protocol's hash functions.

Two interchangeable groups sit behind one interface: a tiny order-11
subgroup of the multiplicative group mod 23, whose discrete logs are
enumerable (used by exhaustive tests and oracles), and the NIST P-256
curve for production-strength runs. Elements are plain values -- an int
residue for the toy group, an affine ``(x, y)`` tuple or ``None`` (the
point at infinity) for the curve -- and all structure lives in the group
objects.

Canonical encodings (these bytes are the hash inputs and the wire format):

* toy elements: 4-byte big-endian residue mod 23; toy scalars: 4-byte BE
* P-256 elements: 33-byte compressed point (identity = 33 zero bytes);
  P-256 scalars: 32-byte BE

Both hash functions are SHA-256 over a domain tag (0x01 for the
challenge/key hash, 0x02 for the binding hash) followed by the inputs,
each 4-byte-length-prefixed so variable-length inputs cannot collide.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable, Tuple, Union

Element = Union[int, Tuple[int, int], None]

DIGEST_SIZE = 32

_H1_TAG = b"\x01"
_H2_TAG = b"\x02"


class GroupError(ValueError):
    """Invalid group element, encoding, or scalar."""


def _tagged(tag: bytes, fields: Iterable[bytes]) -> bytes:
    parts = [tag]
    for f in fields:
        if not isinstance(f, (bytes, bytearray)):
            raise TypeError(f"hash input must be bytes, got {type(f).__name__}")
        parts.append(struct.pack(">I", len(f)))
        parts.append(bytes(f))
    return b"".join(parts)


def hash_to_scalar(group: "Group", *fields: bytes) -> int:
    """Challenge hash: SHA-256 of the tagged inputs reduced into [0, q)."""
    digest = hashlib.sha256(_tagged(_H1_TAG, fields)).digest()
    return int.from_bytes(digest, "big") % group.q


def hash_h1_bytes(*fields: bytes) -> bytes:
    """Unreduced 32-byte variant of the challenge hash, used for session keys."""
    return hashlib.sha256(_tagged(_H1_TAG, fields)).digest()


def hash_h2(*fields: bytes) -> bytes:
    """Binding hash: 32-byte SHA-256 of the tagged inputs."""
    return hashlib.sha256(_tagged(_H2_TAG, fields)).digest()


def scalar_random(group: "Group", rng) -> int:
    """Uniform scalar in [0, q) from a caller-supplied seeded rng."""
    return rng.randrange(group.q)


def scalar_random_nonzero(group: "Group", rng) -> int:
    """Uniform scalar in [1, q); the refinement required of secret keys."""
    return rng.randrange(1, group.q)


def scalar_add(group: "Group", a: int, b: int) -> int:
    return (a + b) % group.q


def scalar_sub(group: "Group", a: int, b: int) -> int:
    return (a - b) % group.q


def scalar_mul(group: "Group", a: int, b: int) -> int:
    return (a * b) % group.q


def scalar_inv(group: "Group", a: int) -> int:
    if a % group.q == 0:
        raise GroupError("zero has no inverse")
    return pow(a, -1, group.q)


class ToyGroup:
    """Order-11 subgroup of Z_23^*, generated by 2.

    Small enough that discrete logs, full power tables, and every
    (scalar, element) combination can be enumerated in tests.
    """

    group_id = "toy"
    modulus = 23
    q = 11
    g = 2
    identity = 1
    element_size = 4
    scalar_size = 4

    _members = frozenset(pow(2, k, 23) for k in range(11))

    def is_member(self, x: Element) -> bool:
        return isinstance(x, int) and x in self._members

    def exp(self, base: Element, e: int) -> Element:
        if not self.is_member(base):
            raise GroupError(f"not a toy group member: {base!r}")
        return pow(base, e % self.q, self.modulus)

    def mul(self, a: Element, b: Element) -> Element:
        if not self.is_member(a) or not self.is_member(b):
            raise GroupError("operands must be toy group members")
        return a * b % self.modulus

    def encode(self, x: Element) -> bytes:
        if not self.is_member(x):
            raise GroupError(f"cannot encode non-member: {x!r}")
        return struct.pack(">I", x)

    def decode(self, data: bytes) -> Element:
        if len(data) != self.element_size:
            raise GroupError(f"toy element encoding must be {self.element_size} bytes")
        value = struct.unpack(">I", data)[0]
        if value not in self._members:
            raise GroupError(f"not a toy group member: {value}")
        return value

    def encode_scalar(self, s: int) -> bytes:
        if not 0 <= s < self.q:
            raise GroupError(f"scalar out of range: {s}")
        return struct.pack(">I", s)

    def decode_scalar(self, data: bytes) -> int:
        if len(data) != self.scalar_size:
            raise GroupError(f"toy scalar encoding must be {self.scalar_size} bytes")
        value = struct.unpack(">I", data)[0]
        if value >= self.q:
            raise GroupError(f"scalar out of range: {value}")
        return value


# NIST P-256 domain parameters.
_P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
_A = _P - 3
_B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
_GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
_GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5
_N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551

_INFINITY = (0, 0, 0)  # Jacobian representation of the point at infinity

# Lim-Lee comb parameters for repeated bases: 8 teeth over 256-bit scalars.
_COMB_TEETH = 8
_COMB_COLS = 32


def _jac_double(pt, p=_P, a=_A):
    x1, y1, z1 = pt
    if not y1:
        return _INFINITY
    yy = y1 * y1 % p
    s = 4 * x1 * yy % p
    zz = z1 * z1 % p
    m = (3 * x1 * x1 + a * zz % p * zz) % p
    x3 = (m * m - 2 * s) % p
    y3 = (m * (s - x3) - 8 * yy * yy) % p
    z3 = 2 * y1 * z1 % p
    return (x3, y3, z3)


def _jac_add(p1, p2, p=_P):
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    if not z1:
        return p2
    if not z2:
        return p1
    z1z1 = z1 * z1 % p
    z2z2 = z2 * z2 % p
    u1 = x1 * z2z2 % p
    u2 = x2 * z1z1 % p
    s1 = y1 * z2 % p * z2z2 % p
    s2 = y2 * z1 % p * z1z1 % p
    h = (u2 - u1) % p
    r = (s2 - s1) % p
    if not h:
        if not r:
            return _jac_double(p1)
        return _INFINITY
    hh = h * h % p
    hhh = h * hh % p
    v = u1 * hh % p
    x3 = (r * r - hhh - 2 * v) % p
    y3 = (r * (v - x3) - s1 * hhh) % p
    z3 = z1 * z2 % p * h % p
    return (x3, y3, z3)


def _jac_to_affine(pt, p=_P):
    x, y, z = pt
    if not z:
        return None
    zi = pow(z, -1, p)
    zi2 = zi * zi % p
    return (x * zi2 % p, y * zi2 % p * zi % p)


class P256Group:
    """NIST P-256: prime-order elliptic-curve group at the 128-bit level.

    Scalar multiplication runs in Jacobian coordinates with a 4-bit window;
    bases that recur (the generator, long-term public keys) get a lazily
    built comb table, which is what keeps large session campaigns fast.
    """

    group_id = "p256"
    q = _N
    g = (_GX, _GY)
    identity = None
    element_size = 33
    scalar_size = 32

    _IDENTITY_ENC = b"\x00" * 33

    def __init__(self):
        self._combs = {}
        self._base_uses = {}

    def is_member(self, x: Element) -> bool:
        if x is None:
            return True
        if not (isinstance(x, tuple) and len(x) == 2):
            return False
        px, py = x
        if not (isinstance(px, int) and isinstance(py, int)):
            return False
        if not (0 <= px < _P and 0 <= py < _P):
            return False
        return (py * py - (px * px * px + _A * px + _B)) % _P == 0

    def exp(self, base: Element, e: int) -> Element:
        if not self.is_member(base):
            raise GroupError(f"not a curve point: {base!r}")
        e %= self.q
        if base is None or e == 0:
            return None
        comb = self._comb_for(base)
        if comb is not None:
            return _jac_to_affine(self._comb_mult(comb, e))
        return _jac_to_affine(self._window_mult(base, e))

    def mul(self, a: Element, b: Element) -> Element:
        if not self.is_member(a) or not self.is_member(b):
            raise GroupError("operands must be curve points")
        if a is None:
            return b
        if b is None:
            return a
        x1, y1 = a
        x2, y2 = b
        if x1 == x2:
            if (y1 + y2) % _P == 0:
                return None
            lam = (3 * x1 * x1 + _A) * pow(2 * y1, -1, _P) % _P
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, _P) % _P
        x3 = (lam * lam - x1 - x2) % _P
        y3 = (lam * (x1 - x3) - y1) % _P
        return (x3, y3)

    def encode(self, x: Element) -> bytes:
        if not self.is_member(x):
            raise GroupError(f"cannot encode non-member: {x!r}")
        if x is None:
            return self._IDENTITY_ENC
        px, py = x
        prefix = 0x03 if py & 1 else 0x02
        return bytes([prefix]) + px.to_bytes(32, "big")

    def decode(self, data: bytes) -> Element:
        if len(data) != self.element_size:
            raise GroupError(f"curve point encoding must be {self.element_size} bytes")
        if data == self._IDENTITY_ENC:
            return None
        prefix = data[0]
        if prefix not in (0x02, 0x03):
            raise GroupError(f"bad point prefix: {prefix:#x}")
        px = int.from_bytes(data[1:], "big")
        if px >= _P:
            raise GroupError("x coordinate out of field range")
        rhs = (px * px * px + _A * px + _B) % _P
        py = pow(rhs, (_P + 1) // 4, _P)  # p = 3 mod 4
        if py * py % _P != rhs:
            raise GroupError("x coordinate is not on the curve")
        if (py & 1) != (prefix & 1):
            py = _P - py
        return (px, py)

    def encode_scalar(self, s: int) -> bytes:
        if not 0 <= s < self.q:
            raise GroupError(f"scalar out of range: {s}")
        return s.to_bytes(32, "big")

    def decode_scalar(self, data: bytes) -> int:
        if len(data) != self.scalar_size:
            raise GroupError(f"scalar encoding must be {self.scalar_size} bytes")
        value = int.from_bytes(data, "big")
        if value >= self.q:
            raise GroupError("scalar out of range")
        return value

    # -- scalar multiplication internals ---------------------------------

    def _window_mult(self, base, e):
        # 4-bit fixed window over a fresh base.
        bj = (base[0], base[1], 1)
        table = [None] * 16
        table[1] = bj
        table[2] = _jac_double(bj)
        for i in range(3, 16):
            table[i] = _jac_add(table[i - 1], bj)
        acc = _INFINITY
        started = False
        for shift in range(252, -4, -4):
            if started:
                acc = _jac_double(acc)
                acc = _jac_double(acc)
                acc = _jac_double(acc)
                acc = _jac_double(acc)
            digit = (e >> shift) & 0xF
            if digit:
                acc = _jac_add(acc, table[digit])
                started = True
        return acc

    def _comb_for(self, base):
        """Return the base's comb table, building one on repeated use."""
        key = base  # affine tuples hash cheaply
        comb = self._combs.get(key)
        if comb is not None:
            return comb
        uses = self._base_uses.get(key, 0) + 1
        if uses < 2 and base != self.g:
            if len(self._base_uses) > 4096:
                self._base_uses.clear()
            self._base_uses[key] = uses
            return None
        comb = self._build_comb(base)
        if len(self._combs) > 64:
            self._combs.clear()
        self._combs[key] = comb
        self._base_uses.pop(key, None)
        return comb

    def _build_comb(self, base):
        # table[m] = sum over set bits i of m of 2^(32*i) * base
        strides = [(base[0], base[1], 1)]
        for _ in range(_COMB_TEETH - 1):
            pt = strides[-1]
            for _ in range(_COMB_COLS):
                pt = _jac_double(pt)
            strides.append(pt)
        table = [_INFINITY] * (1 << _COMB_TEETH)
        for i in range(_COMB_TEETH):
            step = 1 << i
            for m in range(step):
                table[m | step] = _jac_add(table[m], strides[i])
        return table

    def _comb_mult(self, table, e):
        acc = _INFINITY
        for col in range(_COMB_COLS - 1, -1, -1):
            acc = _jac_double(acc)
            digit = 0
            for tooth in range(_COMB_TEETH):
                digit |= ((e >> (col + _COMB_COLS * tooth)) & 1) << tooth
            if digit:
                acc = _jac_add(acc, table[digit])
        return acc


_TOY = ToyGroup()
_P256 = P256Group()

_GROUPS = {
    "toy": _TOY,
    "p256": _P256,
}

Group = Union[ToyGroup, P256Group]


def get_group(group_id: str) -> Group:
    """Look up a group backend by id: "toy" or "p256"."""
    try:
        return _GROUPS[group_id.lower()]
    except KeyError:
        raise GroupError(f"unknown group id: {group_id!r}") from None
