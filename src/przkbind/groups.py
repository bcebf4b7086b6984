"""Prime-order cyclic group backends and the protocol's hash functions.

Two interchangeable groups sit behind one interface: a tiny order-11
subgroup of the multiplicative group mod 23, whose discrete logs are
enumerable (used by exhaustive tests and oracles), and the NIST P-256
curve for production-strength runs. Elements are plain values -- an int
residue for the toy group, an affine ``(x, y)`` tuple or ``None`` (the
point at infinity) for the curve -- and all structure lives in the group
objects. A base that stays in use, such as a twin's public key, is
declared with ``group.long_lived`` so that P-256 can give it a signed
comb table; the generator has a larger comb of its own (two geometries,
one table construction and one exp loop: see ``P256Group``).
``exp`` is the one way to exponentiate on every path.

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
from functools import cache, cached_property
from typing import Iterable, Tuple, Union

Element = Union[int, Tuple[int, int], None]

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


def scalar_inv(group: "Group", a: int) -> int:
    if a % group.q == 0:
        raise GroupError("zero has no inverse")
    return pow(a, -1, group.q)


class _ScalarCodec:
    """Scalars in [0, q) as ``scalar_size``-byte big-endian integers."""

    def encode_scalar(self, s: int) -> bytes:
        if not 0 <= s < self.q:
            raise GroupError(f"scalar out of range: {s}")
        return s.to_bytes(self.scalar_size, "big")

    def decode_scalar(self, data: bytes) -> int:
        if len(data) != self.scalar_size:
            raise GroupError(f"scalar encoding must be {self.scalar_size} bytes")
        value = int.from_bytes(data, "big")
        if value >= self.q:
            raise GroupError(f"scalar out of range: {value}")
        return value


class ToyGroup(_ScalarCodec):
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

    def long_lived(self, x: Element) -> Element:
        """Exps here need no precomputation, so x is returned unchanged."""
        return x

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


# NIST P-256 domain parameters.
_P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
_A = _P - 3
_B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
_GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
_GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5
_N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551

_INFINITY = (0, 0, 0)  # Jacobian representation of the point at infinity

# wNAF window for every other base: 2^(w-2) = 8 odd multiples.
_WNAF_WIDTH = 5


def _jac_double(pt, p=_P):
    # dbl-2001-b, which uses a = -3
    x1, y1, z1 = pt
    if not y1:
        return _INFINITY
    delta = z1 * z1 % p
    gamma = y1 * y1 % p
    beta = x1 * gamma % p
    alpha = 3 * (x1 - delta) * (x1 + delta) % p
    x3 = (alpha * alpha - 8 * beta) % p
    y3 = (alpha * (4 * beta - x3) - 8 * gamma * gamma) % p
    return (x3, y3, 2 * y1 * z1 % p)


def _jac_add_affine(pt, q, p=_P):
    """Mixed addition: Jacobian pt plus affine q."""
    x1, y1, z1 = pt
    x2, y2 = q
    if not z1:
        return (x2, y2, 1)
    zz = z1 * z1 % p
    h = (x2 * zz - x1) % p
    r = (y2 * zz % p * z1 - y1) % p
    if not h:
        return _INFINITY if r else _jac_double(pt)
    hh = h * h % p
    hhh = h * hh % p
    v = x1 * hh % p
    x3 = (r * r - hhh - 2 * v) % p
    return (x3, (r * (v - x3) - y1 * hhh) % p, z1 * h % p)


def _batch_inverse(values, p=_P):
    """Inverses mod p of nonzero values for one field inversion (Montgomery's trick)."""
    prefix = [1]
    for v in values:
        prefix.append(prefix[-1] * v % p)
    inv = pow(prefix[-1], -1, p)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % p
        inv = inv * values[i] % p
    return out


def _to_affine(pts, p=_P):
    """Affine forms of Jacobian points (none at infinity) for one field inversion."""
    out = []
    for (x, y, _), zi in zip(pts, _batch_inverse([pt[2] for pt in pts])):
        zi2 = zi * zi % p
        out.append((x * zi2 % p, y * zi2 % p * zi % p))
    return out


def _subset_sums(start, twos, p=_P):
    """Entry m is start plus twos[i] for each set bit i of m, filled one level
    at a time with affine additions and one inversion per level. In units of
    the table's first stride (at most 2^16 times the base), an entry is G_top
    plus a signed sum of the lower G_j = 2^(j * cols): above every 2 G_j it
    meets and below 2^((teeth - 1) * cols + 1), so it plus or minus 2 G_j is
    a nonzero multiple of the base below 2^242 < q. No entry meets the 2 G_j
    or its negation, and every sum is a plain chord addition."""
    table = [start]
    for sx, sy in twos:
        level = []
        for (x, y), inv in zip(table, _batch_inverse([sx - x for x, _ in table])):
            lam = (sy - y) * inv % p
            x3 = (lam * lam - x - sx) % p
            level.append((x3, (lam * (x - x3) - y) % p))
        table += level
    return table


def _comb_tables(base, geometry):
    """A declared base's signed comb, off one doubling chain: its teeth *
    tables strides lie cols // tables doublings apart, each one's double just
    past it. Table k, over strides k, k + tables, ..., holds every signed sum
    of its teeth whose top tooth is +1: G_top minus the lower G_j, plus 2 G_j
    for each j of a subset. Tables are listed highest first."""
    teeth, cols, tables = geometry
    step, n, top = cols // tables, teeth * tables, (teeth - 1) * tables
    chain = [(base[0], base[1], 1)]
    for _ in range((n - 1) * step):
        chain.append(_jac_double(chain[-1]))
    points = _to_affine(chain[::step] + chain[1::step])
    strides, twos = points[:n], points[n:]
    starts = [(*stride, 1) for stride in strides[top:]]
    for i, (x, y) in enumerate(strides[:top]):  # G_top minus each lower stride
        starts[i % tables] = _jac_add_affine(starts[i % tables], (x, _P - y))
    starts = _to_affine(starts)
    return [_subset_sums(starts[k], twos[k:top:tables]) for k in reversed(range(tables))]


@cache
def _comb_schedule(geometry):
    """(bit-string offset of a column, its table, whether a doubling comes
    first) in the order _comb_mult reads them: each of the cols // tables
    rounds doubles once, then reads one column per table, highest first."""
    teeth, cols, tables = geometry
    step = cols // tables
    return tuple((start + k * step, k, k == 0) for start in range(step) for k in range(tables))


def _comb_mult(base, e):
    # odd e = sum of (2 bit_i(h) - 1) 2^i with h = (e + 2^n - 1) / 2; an even e
    # runs as q - e, negated. Column c's digit is bits c, c + cols, ... of h,
    # MSB-first off one string; a clear top bit reads the complement, negated.
    teeth, cols, _ = base.geometry
    odd, n, mask = e & 1, teeth * cols, (1 << (teeth - 1)) - 1
    bits = format(((e if odd else _N - e) + (1 << n) - 1) >> 1, f"0{n}b")
    comb = base.comb
    acc = _INFINITY
    for offset, k, doubles in _comb_schedule(base.geometry):
        if doubles:
            acc = _jac_double(acc)
        digit = int(bits[offset::cols], 2)
        if digit > mask:
            acc = _jac_add_affine(acc, comb[k][digit & mask])
        else:
            x, y = comb[k][~digit & mask]
            acc = _jac_add_affine(acc, (x, _P - y))
    return acc if odd else (acc[0], _P - acc[1], acc[2])


def _wnaf_mult(base, e):
    pt = (base[0], base[1], 1)
    (twice,) = _to_affine([_jac_double(pt)])
    odd = [pt]
    for _ in range((1 << (_WNAF_WIDTH - 2)) - 1):
        odd.append(_jac_add_affine(odd[-1], twice))
    odd = _to_affine(odd)  # odd[i] = (2i + 1) * base
    digits = []  # least significant first; each nonzero digit is odd and |d| < 2^(w-1)
    while e:
        d = 0
        if e & 1:
            d = e & ((1 << _WNAF_WIDTH) - 1)
            if d >> (_WNAF_WIDTH - 1):
                d -= 1 << _WNAF_WIDTH
            e -= d
        digits.append(d)
        e >>= 1
    acc = _INFINITY
    for d in reversed(digits):
        acc = _jac_double(acc)
        if d:
            x, y = odd[abs(d) >> 1]
            acc = _jac_add_affine(acc, (x, y) if d > 0 else (x, _P - y))
    return acc


class _LongLived(tuple):
    """A declared affine point: equal to, and hashing as, the plain point,
    and owning the signed comb (one 32-point table) for its exps from the
    first one on. Its geometry is (teeth, cols, tables), teeth * cols >= 256."""

    geometry = (6, 43, 1)

    @cached_property
    def comb(self):
        return _comb_tables(self, self.geometry)


class _Generator(_LongLived):
    """The generator, whose comb (two 128-point tables) is built once per process."""

    geometry = (8, 32, 2)


class P256Group(_ScalarCodec):
    """NIST P-256: prime-order elliptic-curve group at the 128-bit level.

    ``exp`` picks its path by what the base was declared to be, never by
    how often it was seen. Its combs are signed: every tooth is +1 or -1,
    so a table keeps only the sums whose top tooth is +1 and a column
    reads the others as negations. The generator carries a two-table comb
    (8 teeth x 32 columns, 256 affine points): 16 doublings and exactly 32
    additions per exp. Keys declared through ``long_lived`` carry a
    one-table comb each (6 x 43, 32 points, freed with the key): 43
    doublings and exactly 43 additions. Each comb is built on its base's
    first exp; one construction and one exp loop serve both geometries, and
    declared bases skip the curve check they passed when declared. Every
    other base (points decoded from the wire, fresh protocol values) goes
    through width-5 wNAF. All paths, and ``mul``, run in Jacobian coordinates
    with mixed Jacobian-affine addition and the a = -3 doubling, and the
    group object itself holds no per-base state.
    """

    group_id = "p256"
    q = _N
    g = _Generator((_GX, _GY))
    identity = None
    element_size = 33
    scalar_size = 32

    _IDENTITY_ENC = b"\x00" * 33

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
        declared = isinstance(base, _LongLived)  # checked when declared; g is a constant
        if not (declared or self.is_member(base)):
            raise GroupError(f"not a curve point: {base!r}")
        e %= self.q
        if base is None or e == 0:
            return None
        acc = _comb_mult(base, e) if declared else _wnaf_mult(base, e)
        return _to_affine([acc])[0]

    def long_lived(self, x: Element) -> Element:
        """Declare a point that will be an exp base for as long as it lives
        (a twin's public key): returns an equal point owning a comb table."""
        if x is None or not self.is_member(x):
            raise GroupError(f"not a curve point other than the identity: {x!r}")
        return _LongLived(x)

    def mul(self, a: Element, b: Element) -> Element:
        if not self.is_member(a) or not self.is_member(b):
            raise GroupError("operands must be curve points")
        if a is None or b is None:
            return b if a is None else a
        acc = _jac_add_affine((a[0], a[1], 1), b)  # a doubling when a == b
        return _to_affine([acc])[0] if acc[2] else None  # z == 0: a + (-a)

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


_GROUPS = {group.group_id: group for group in (ToyGroup(), P256Group())}

Group = Union[ToyGroup, P256Group]


def get_group(group_id: str) -> Group:
    """Look up a group backend by id: "toy" or "p256"."""
    try:
        return _GROUPS[group_id.lower()]
    except KeyError:
        raise GroupError(f"unknown group id: {group_id!r}") from None
