"""Prime-order cyclic group backends and the protocol's hash functions.

Two interchangeable groups sit behind one interface: a tiny order-11
subgroup of the multiplicative group mod 23, whose discrete logs are
enumerable (used by exhaustive tests and oracles), and the NIST P-256
curve for production-strength runs. A toy element is an int residue. A
curve element is a ``P256Point``, which keeps the point inside OpenSSL's
libcrypto between operations, or ``None`` (the point at infinity); nothing
else is one, not even an affine ``(x, y)`` tuple. All structure lives in
the group objects. P-256 scalar multiplication, point addition, comparison
and decoding are calls into libcrypto, whose decode is the one curve check
of a point from outside (see ``P256Group``); ``exp`` is the one way to
exponentiate on every path.

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
from typing import Iterable, Union

Element = Union[int, "P256Point", None]

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


# NIST P-256's order, and its generator in SEC 1 compressed form.
_N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
_G = bytes.fromhex("036B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296")

# OpenSSL's libcrypto, which CPython's hashlib has already loaded, does the
# P-256 scalar multiplications, additions, comparisons and decodes. Tried in
# this order.
_LIBCRYPTO = ("libcrypto.so.3", "libcrypto.so.1.1")
_NID_P256 = 415  # NID_X9_62_prime256v1
_COMPRESSED = 2  # POINT_CONVERSION_COMPRESSED: 02 or 03 (the parity of y) || x, 33 bytes

# (libcrypto, its P-256 EC_GROUP, the working objects of every operation, the
# generator), made by the first P-256 operation under _LOCK and never freed.
# ctypes releases the GIL during foreign calls, so an operation holds _LOCK
# for as long as it uses the working objects: one BN_CTX, the scalar BIGNUM
# and the 33-byte output buffer. Results are new points, each owned by its
# P256Point.
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
        scratch = _ok(lib.BN_CTX_new()), _ok(lib.BN_new()), ctypes.create_string_buffer(33)
        g = P256Point(lib, _ok(lib.EC_POINT_new(group)))
        _ok(lib.EC_POINT_oct2point(group, g._ptr, _G, 33, scratch[0]))
        _CURVE = lib, group, scratch, g
        return _CURVE
    raise GroupError(f"P-256 needs OpenSSL's libcrypto, but none of {', '.join(_LIBCRYPTO)} loads")


class P256Point:
    """A P-256 point other than infinity, held in libcrypto as the EC_POINT it
    owns; only libcrypto's results are made into one, so it is on the curve.

    Two points compare with ``EC_POINT_cmp``, which needs no inversion. A
    point hashes as, and pickles through ``decode`` as, its compressed
    encoding, which one ``EC_POINT_point2oct`` (a field inversion) makes at
    most once and only when it is asked for. The EC_POINT is freed when the
    object goes, through the libcrypto that made it (held here, as module
    globals may already be gone at exit).
    """

    __slots__ = ("_ptr", "_free", "_encoding")

    def __init__(self, lib, ptr):
        self._ptr, self._free, self._encoding = ptr, lib.EC_POINT_free, None

    def __del__(self):
        self._free(self._ptr)  # takes no lock: it may run inside an operation that holds _LOCK

    def _compressed(self) -> bytes:
        """The point's 33-byte SEC 1 compressed encoding, its wire form."""
        if self._encoding is None:
            with _LOCK:
                lib, group, (ctx, _, out), _ = _curve()
                _ok(lib.EC_POINT_point2oct(group, self._ptr, _COMPRESSED, out, 33, ctx))
                self._encoding = out.raw
        return self._encoding

    def __eq__(self, other):
        if type(other) is not P256Point:
            return NotImplemented
        with _LOCK:
            lib, group, (ctx, *_), _ = _curve()
            return lib.EC_POINT_cmp(group, self._ptr, other._ptr, ctx) == 0

    def __hash__(self):
        return hash(self._compressed())

    def __repr__(self):
        return f"P256Point({self._compressed().hex()})"

    def __reduce__(self):  # rebuilt through the oct2point check
        return get_group("p256").decode, (self._compressed(),)


def _ptr(x):
    """The EC_POINT of a curve element, None for infinity; GroupError for
    anything else."""
    if type(x) is P256Point:
        return x._ptr
    if x is not None:
        raise GroupError(f"not a curve point: {x!r}")
    return None


class P256Group(_ScalarCodec):
    """NIST P-256: prime-order elliptic-curve group at the 128-bit level.

    Elements are P256Points, which live in libcrypto between operations, and
    None for infinity: ``is_member`` is that type check, and ``exp``, ``mul``
    and ``encode`` raise GroupError for anything else. Given points, ``exp``,
    ``mul`` and ``decode`` are one libcrypto call each and return a new
    P256Point, or None at infinity: ``EC_POINT_mul`` with OpenSSL's generator
    table for ``g`` and on the point for every other base, ``EC_POINT_add``,
    and ``EC_POINT_oct2point``, the range and curve check of every encoding.
    An infinity operand, or an exponent that q divides, is answered in Python.
    Every operation reuses one set of OpenSSL working objects under a lock.
    ``g`` is made with them, by the first P-256 operation; the group object
    holds no per-base state.
    """

    group_id = "p256"
    q = _N
    identity = None
    element_size = 33
    scalar_size = 32

    _IDENTITY_ENC = b"\x00" * 33

    @property
    def g(self) -> P256Point:
        """The generator, made with the curve by the first P-256 operation."""
        with _LOCK:
            return _curve()[3]

    def is_member(self, x: Element) -> bool:
        return x is None or type(x) is P256Point  # libcrypto made the point

    def exp(self, base: Element, e: int) -> Element:
        point, data = _ptr(base), (e % self.q).to_bytes(32, "big")
        if point is None or not any(data):  # q | e: prime order and cofactor 1 make e*P infinity then, and only then
            return None
        with _LOCK:
            lib, group, (_, scalar, _), g = _curve()
            result = P256Point(lib, _ok(lib.EC_POINT_new(group)))  # its EC_POINT goes with it, on every path
            # The scalar may be a secret key. EC_POINT_mul gets no BN_CTX, so it
            # makes its own and wipes every temporary when it frees it.
            try:
                k = _ok(lib.BN_bin2bn(data, 32, scalar))
                if base is g:  # OpenSSL's own generator table
                    _ok(lib.EC_POINT_mul(group, result._ptr, k, None, None, None))
                else:
                    _ok(lib.EC_POINT_mul(group, result._ptr, None, point, k, None))
            finally:
                lib.BN_clear(scalar)
            return result

    def mul(self, a: Element, b: Element) -> Element:
        pa, pb = _ptr(a), _ptr(b)
        if pa is None or pb is None:  # infinity is the identity
            return b if pa is None else a
        with _LOCK:
            lib, group, (ctx, *_), _ = _curve()
            result = P256Point(lib, _ok(lib.EC_POINT_new(group)))
            _ok(lib.EC_POINT_add(group, result._ptr, pa, pb, ctx))  # a doubling when a == b, infinity when a == -b
            return None if lib.EC_POINT_is_at_infinity(group, result._ptr) else result

    def encode(self, x: Element) -> bytes:
        return self._IDENTITY_ENC if _ptr(x) is None else x._compressed()

    def decode(self, data: bytes) -> Element:
        if len(data) != self.element_size:
            raise GroupError(f"curve point encoding must be {self.element_size} bytes")
        if data == self._IDENTITY_ENC:
            return None
        with _LOCK:
            lib, group, (ctx, *_), _ = _curve()
            result = P256Point(lib, _ok(lib.EC_POINT_new(group)))
            if not lib.EC_POINT_oct2point(group, result._ptr, bytes(data), 33, ctx):  # ctypes takes no bytearray
                lib.ERR_clear_error()  # a bad prefix, an x of p or more, an x with no point
                raise GroupError(f"not a curve point: {data.hex()}")
            return result


_GROUPS = {group.group_id: group for group in (ToyGroup(), P256Group())}

Group = Union[ToyGroup, P256Group]


def get_group(group_id: str) -> Group:
    """Look up a group backend by id: "toy" or "p256"."""
    try:
        return _GROUPS[group_id.lower()]
    except KeyError:
        raise GroupError(f"unknown group id: {group_id!r}") from None
