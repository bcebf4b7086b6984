"""Prime-order cyclic group backends and the protocol's hash functions.

Two interchangeable groups sit behind one interface: a tiny order-11
subgroup of the multiplicative group mod 23, whose discrete logs are
enumerable (used by exhaustive tests and oracles), and the NIST P-256
curve for production-strength runs. A toy element is an int residue. A
curve element is a ``P256Point``, which keeps the point inside OpenSSL's
libcrypto between operations and equals its affine ``(x, y)``, or ``None``
(the point at infinity); ``(x, y)`` tuples are taken as operands too. All
structure lives in the group objects. P-256 scalar multiplication, point
addition, comparison and decoding are calls into libcrypto, which also
makes the curve check of their operands (see ``P256Group``); ``exp`` is
the one way to exponentiate on every path.

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
import threading
from typing import Iterable, Tuple, Union

Element = Union[int, Tuple[int, int], "P256Point", None]

_H1_TAG = b"\x01"
_H2_TAG = b"\x02"


class GroupError(ValueError):
    """Invalid group element, encoding, or scalar."""


def _tagged(tag: bytes, fields: Iterable[bytes]) -> bytes:
    parts = [tag]
    for f in fields:
        if not isinstance(f, (bytes, bytearray)):
            raise TypeError(f"hash input must be bytes, got {type(f).__name__}")
        parts += (len(f).to_bytes(4, "big"), f)
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

# OpenSSL's libcrypto, which CPython's hashlib has already loaded, does the
# P-256 scalar multiplications, additions, comparisons and decodes. Tried in
# this order.
_LIBCRYPTO = ("libcrypto.so.3", "libcrypto.so.1.1")
_NID_P256 = 415  # NID_X9_62_prime256v1
_UNCOMPRESSED = 4  # POINT_CONVERSION_UNCOMPRESSED: 0x04 || x || y, 65 bytes

# (libcrypto, its P-256 EC_GROUP, the working objects of every operation),
# made by the first P-256 operation under _LOCK and never freed. ctypes
# releases the GIL during foreign calls, so an operation holds _LOCK for as
# long as it uses the working objects: one BN_CTX, the scalar BIGNUM, two
# operand points and the 65-byte output buffer. Results are new points,
# each owned by its P256Point.
_CURVE = None
_LOCK = threading.Lock()


def _ok(result):
    """A libcrypto return value, which is 0 or NULL only on failure."""
    if not result:
        raise GroupError("libcrypto failed a P-256 operation")
    return result


def _curve():
    global _CURVE
    if _CURVE is not None:
        return _CURVE
    import ctypes  # here, so that runs that never touch P-256 never load it

    ptr, int_, size, buf = ctypes.c_void_p, ctypes.c_int, ctypes.c_size_t, ctypes.c_char_p
    signatures = {  # name -> (restype, argtypes)
        "EC_GROUP_new_by_curve_name": (ptr, [int_]),
        "BN_CTX_new": (ptr, []),
        "BN_new": (ptr, []),
        "BN_bin2bn": (ptr, [buf, int_, ptr]),
        "BN_clear": (None, [ptr]),
        "EC_POINT_new": (ptr, [ptr]),
        "EC_POINT_free": (None, [ptr]),
        "EC_POINT_oct2point": (int_, [ptr, ptr, buf, size, ptr]),
        "EC_POINT_point2oct": (size, [ptr, ptr, int_, buf, size, ptr]),
        "EC_POINT_mul": (int_, [ptr, ptr, ptr, ptr, ptr, ptr]),
        "EC_POINT_add": (int_, [ptr, ptr, ptr, ptr, ptr]),
        "EC_POINT_cmp": (int_, [ptr, ptr, ptr, ptr]),
        "EC_POINT_is_at_infinity": (int_, [ptr, ptr]),
        "ERR_clear_error": (None, []),
    }
    for name in _LIBCRYPTO:
        try:
            lib = ctypes.CDLL(name)
        except OSError:
            continue
        for fn, (restype, argtypes) in signatures.items():
            func = getattr(lib, fn)
            func.restype, func.argtypes = restype, argtypes
        group = _ok(lib.EC_GROUP_new_by_curve_name(_NID_P256))
        points = (_ok(lib.EC_POINT_new(group)) for _ in range(2))
        scratch = _ok(lib.BN_CTX_new()), _ok(lib.BN_new()), *points, ctypes.create_string_buffer(65)
        _CURVE = lib, group, scratch
        return _CURVE
    raise GroupError(f"P-256 needs OpenSSL's libcrypto, but none of {', '.join(_LIBCRYPTO)} loads")


class P256Point:
    """A P-256 point other than infinity, held in libcrypto as the EC_POINT it
    owns; only ``_openssl`` makes one, so it is on the curve.

    It equals, hashes like and unpacks as its affine ``(x, y)``. Those come
    from one ``EC_POINT_point2oct`` (a field inversion), made at most once and
    only when coordinates, an encoding or a hash are asked for. Two points
    compare with ``EC_POINT_cmp``, which needs no inversion. The EC_POINT is
    freed when the object goes, through the libcrypto that made it (held here,
    as module globals may already be gone at exit).
    """

    __slots__ = ("_ptr", "_free", "_octets")

    def __init__(self, lib, ptr):
        self._ptr, self._free, self._octets = ptr, lib.EC_POINT_free, None

    def __del__(self):
        self._free(self._ptr)  # takes no lock: it may run inside an operation that holds _LOCK

    def _uncompressed(self) -> bytes:
        """04 || x || y, the point's 65-byte SEC 1 encoding."""
        if self._octets is None:
            with _LOCK:
                lib, group, (ctx, *_, out) = _curve()
                _ok(lib.EC_POINT_point2oct(group, self._ptr, _UNCOMPRESSED, out, 65, ctx))
                self._octets = out.raw
        return self._octets

    def _xy(self) -> Tuple[int, int]:
        octets = self._uncompressed()
        return int.from_bytes(octets[1:33], "big"), int.from_bytes(octets[33:], "big")

    def __eq__(self, other):
        if type(other) is P256Point:
            with _LOCK:
                lib, group, (ctx, *_) = _curve()
                return lib.EC_POINT_cmp(group, self._ptr, other._ptr, ctx) == 0
        return other is not None and self._xy() == other

    def __hash__(self):
        return hash(self._xy())

    def __iter__(self):
        return iter(self._xy())

    def __getitem__(self, index):
        return self._xy()[index]

    def __repr__(self):
        return f"P256Point{self._xy()}"

    def __reduce__(self):  # rebuilt through the oct2point check, as a tuple would be
        return _openssl, (None, (self._xy(), self._uncompressed()))


def _is_pair(x) -> bool:
    """Whether x has the shape of an affine point: a tuple of two ints."""
    return isinstance(x, tuple) and len(x) == 2 and isinstance(x[0], int) and isinstance(x[1], int)


def _operand(point):
    """An element as ``_openssl`` takes it: a P256Point as itself; else the
    element, for errors to name, and its SEC 1 encoding, 00 for None
    (infinity) and 04 || x || y for a tuple of two ints below 2^256. Anything
    else, bytes included, raises GroupError."""
    if type(point) is P256Point:
        return point
    if point is None:
        return point, b"\x00"
    try:
        if _is_pair(point):
            return point, b"\x04" + point[0].to_bytes(32, "big") + point[1].to_bytes(32, "big")
    except OverflowError:  # a negative coordinate, or one of 2^256 or more
        pass
    raise GroupError(f"not a curve point: {point!r}")


def _ec_point(lib, group, ctx, operand, slot):
    """The EC_POINT of an ``_operand``: a P256Point's own, or ``slot`` with the
    encoding parsed into it by ``EC_POINT_oct2point``, the one range and curve
    check, whose refusal raises GroupError."""
    if type(operand) is P256Point:
        return operand._ptr
    shown, data = operand
    if not lib.EC_POINT_oct2point(group, slot, data, len(data), ctx):
        lib.ERR_clear_error()  # a bad prefix, a coordinate of p or more, a point off the curve
        raise GroupError(f"not a curve point: {shown}")
    return slot


def _openssl(k, *operands):
    """One libcrypto operation on ``_operand`` values: k * G with none, k * P
    with one, P1 + P2 for k None, and a decode, the point itself, for k None
    with one. Returns a new P256Point, None at infinity."""
    with _LOCK:
        lib, group, (ctx, scalar, first, second, _) = _curve()
        result = P256Point(lib, _ok(lib.EC_POINT_new(group)))  # its EC_POINT goes with it, on every path
        r = result._ptr
        if k is None and len(operands) == 1:  # a decode, parsed straight into the result
            _ec_point(lib, group, ctx, operands[0], r)
            return result
        a = _ec_point(lib, group, ctx, operands[0], first) if operands else None
        if k is None:
            _ok(lib.EC_POINT_add(group, r, a, _ec_point(lib, group, ctx, operands[1], second), ctx))
        else:
            # The scalar may be a secret key. EC_POINT_mul gets no BN_CTX, so it
            # makes its own and wipes every temporary when it frees it.
            try:
                _ok(lib.BN_bin2bn(k.to_bytes(32, "big"), 32, scalar))
                n, m = (None, scalar) if operands else (scalar, None)  # n: OpenSSL's own generator table
                _ok(lib.EC_POINT_mul(group, r, n, a, m, None))
            finally:
                lib.BN_clear(scalar)
        return None if lib.EC_POINT_is_at_infinity(group, r) else result


class P256Group(_ScalarCodec):
    """NIST P-256: prime-order elliptic-curve group at the 128-bit level.

    Elements are P256Points, which live in libcrypto between operations, or
    None for infinity; an affine ``(x, y)`` tuple of ints is also taken as an
    operand (``g`` is one). ``exp``, ``mul`` and ``decode`` are one libcrypto
    call each and return a new P256Point: ``EC_POINT_mul`` with OpenSSL's
    generator table for ``g`` and on the point for every other base,
    ``EC_POINT_add``, and ``EC_POINT_oct2point`` on the compressed encoding.
    A tuple operand crosses as its SEC 1 encoding (infinity as 00), and
    oct2point is the one range and curve check of each, so ``exp`` and
    ``mul`` reject exactly what ``is_member`` rejects. Every operation reuses
    one set of OpenSSL working objects under a lock. ``is_member`` and
    ``encode`` are Python, and take a P256Point as a member with no curve
    check, as libcrypto made it; the group object holds no per-base state.
    """

    group_id = "p256"
    q = _N
    g = (_GX, _GY)
    identity = None
    element_size = 33
    scalar_size = 32

    _IDENTITY_ENC = b"\x00" * 33

    def is_member(self, x: Element) -> bool:
        if x is None or type(x) is P256Point:  # libcrypto made the point
            return True
        if not _is_pair(x):
            return False
        px, py = x
        if not (0 <= px < _P and 0 <= py < _P):
            return False
        return (py * py - (px * px * px + _A * px + _B)) % _P == 0

    def exp(self, base: Element, e: int) -> Element:
        if _is_pair(base) and base == self.g:
            return _openssl(e % self.q)
        return _openssl(e % self.q, _operand(base))

    def mul(self, a: Element, b: Element) -> Element:
        return _openssl(None, _operand(a), _operand(b))  # a doubling when a == b, infinity when a == -b

    def encode(self, x: Element) -> bytes:
        if not self.is_member(x):
            raise GroupError(f"cannot encode non-member: {x!r}")
        if x is None:
            return self._IDENTITY_ENC
        octets = x._uncompressed() if type(x) is P256Point else _operand(x)[1]  # 04 || x || y
        return (b"\x03" if octets[64] & 1 else b"\x02") + octets[1:33]

    def decode(self, data: bytes) -> Element:
        if len(data) != self.element_size:
            raise GroupError(f"curve point encoding must be {self.element_size} bytes")
        if data == self._IDENTITY_ENC:
            return None
        return _openssl(None, (data.hex(), bytes(data)))  # ctypes takes bytes, not a bytearray


_GROUPS = {group.group_id: group for group in (ToyGroup(), P256Group())}

Group = Union[ToyGroup, P256Group]


def get_group(group_id: str) -> Group:
    """Look up a group backend by id: "toy" or "p256"."""
    try:
        return _GROUPS[group_id.lower()]
    except KeyError:
        raise GroupError(f"unknown group id: {group_id!r}") from None
