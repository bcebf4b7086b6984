"""Credential-authority role: mint binding records, persist the registry,
and own the stored form of every key-file and registry field.

The authority participates at initialization only. It binds a physical
public key, a twin public key, and a trusted timestamp into a digest
``zeta`` that both parties later use as their shared session context;
live sessions never consult the registry again.

``FIELDS`` is the one table through which key files (one JSON object
each) and registry lines (one JSON object per line: ``pk_p``, ``pk_d``,
``t``, ``zeta``) are read and written. Elements, scalars and byte strings
are hex of the group's canonical encodings, and a public key is never the
identity element; ``t`` is a JSON integer in [0, 2^64), never a boolean.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Tuple, Union

from .groups import Element, Group, GroupError, get_group, hash_h2
from .identity import IdentitySource

_MAX_T = 2**64 - 1


class RegistrationError(ValueError):
    """Invalid registration input (degenerate key, duplicate pair, bad t)."""


class RegistryIOError(ValueError):
    """Registry file is unreadable or fails integrity validation."""


@dataclass(frozen=True)
class BindingRecord:
    """One issued binding: the two public keys, the timestamp, and zeta."""

    pk_p: Element
    pk_d: Element
    t: int
    zeta: bytes


def encode_timestamp(t: int) -> bytes:
    if not 0 <= t <= _MAX_T:
        raise RegistrationError(f"timestamp out of unsigned 64-bit range: {t}")
    return struct.pack(">Q", t)


def compute_zeta(group: Group, pk_p: Element, pk_d: Element, t: int) -> bytes:
    """Binding digest over the canonical encodings of (pk_p, pk_d, t)."""
    return hash_h2(group.encode(pk_p), group.encode(pk_d), encode_timestamp(t))


def verify_record(group: Group, rec: BindingRecord) -> bool:
    """True iff the stored zeta matches a recomputation from the record."""
    try:
        return rec.zeta == compute_zeta(group, rec.pk_p, rec.pk_d, rec.t)
    except (GroupError, RegistrationError):
        return False


class Registry:
    """In-memory set of binding records, one per (pk_p, pk_d) pair."""

    def __init__(self, group: Group):
        self.group = group
        self._records: Dict[Tuple[bytes, bytes], BindingRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[BindingRecord]:
        return iter(self._records.values())

    def register(self, pk_p: Element, pk_d: Element, t: int) -> BindingRecord:
        """Mint and store the binding record for a new (pk_p, pk_d) pair."""
        for name, pk in (("pk_p", pk_p), ("pk_d", pk_d)):
            if not self.group.is_member(pk):
                raise RegistrationError(f"{name} is not a group member")
            if pk == self.group.identity:
                raise RegistrationError(f"{name} must not be the identity element")
        rec = BindingRecord(pk_p, pk_d, t, compute_zeta(self.group, pk_p, pk_d, t))
        self.add(rec)
        return rec

    def get(self, pk_p: Element, pk_d: Element) -> Optional[BindingRecord]:
        return self._records.get((self.group.encode(pk_p), self.group.encode(pk_d)))

    def add(self, rec: BindingRecord) -> None:
        """Insert a record whose zeta the caller has checked; a pair already bound is refused."""
        key = (self.group.encode(rec.pk_p), self.group.encode(rec.pk_d))
        if key in self._records:
            raise RegistrationError("already bound")
        self._records[key] = rec


def _read_key(group: Group, value: str) -> Element:
    """A stored public key: a group element other than the identity."""
    if (pk := group.decode(bytes.fromhex(value))) == group.identity:
        raise RegistrationError("the identity element is not a public key")
    return pk


# name -> (JSON type, read(group, value), write(group, value)): how each
# key-file and registry field is stored.
FIELDS = {
    "group": (str, lambda group, value: get_group(value), lambda group, value: value.group_id),
    "source": (str, lambda group, value: IdentitySource(value), lambda group, value: value.value),
    "s_p": (str, lambda group, value: bytes.fromhex(value), lambda group, value: value.hex()),
    "sk_d": (str, lambda group, value: group.decode_scalar(bytes.fromhex(value)),
             lambda group, value: group.encode_scalar(value).hex()),
    "pk_p": (str, _read_key, lambda group, value: group.encode(value).hex()),
    "pk_d": (str, _read_key, lambda group, value: group.encode(value).hex()),
    "t": (int, lambda group, value: struct.unpack(">Q", encode_timestamp(value))[0], lambda group, value: value),
    "zeta": (str, lambda group, value: bytes.fromhex(value), lambda group, value: value.hex()),
}


def read_fields(obj, names: Iterable[str], group: Optional[Group]) -> dict:
    """The named fields of a parsed JSON object, decoded through ``FIELDS``.
    A missing field, one of another JSON type or one that does not decode
    raises ValueError naming it."""
    out = {}
    for name in names:
        kind, read, _ = FIELDS[name]
        value = obj.get(name) if isinstance(obj, dict) else None
        if type(value) is not kind:  # a bool is not an int
            raise ValueError(f"field {name!r}: missing or not of type {kind.__name__}")
        try:
            out[name] = read(group, value)
        except ValueError as exc:  # GroupError and RegistrationError are ValueErrors
            raise ValueError(f"field {name!r}: {exc}") from None
    return out


def write_fields(group: Group, values: dict) -> dict:
    """``values`` in their stored JSON form, through ``FIELDS``."""
    return {name: FIELDS[name][2](group, value) for name, value in values.items()}


def write_atomic(path: Union[str, Path], text: str, secret: bool = False) -> None:
    """Replace ``path`` by ``text`` via a synced temporary file beside it, made
    with its final mode: a failure leaves the old file, a secret stays 0600."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600 if secret else 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_registry(registry: Registry, path: Union[str, Path]) -> None:
    lines = [json.dumps(write_fields(registry.group, vars(rec))) for rec in registry]
    write_atomic(path, "".join(line + "\n" for line in lines))


def load_registry(group: Group, path: Union[str, Path]) -> Registry:
    """Load and validate a registry; names the offending record on error."""
    registry = Registry(group)
    with open(path, "rb") as fh:
        for index, raw in enumerate(fh):
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    rec = BindingRecord(**read_fields(json.loads(line), ("pk_p", "pk_d", "t", "zeta"), group))
                    if not verify_record(group, rec):
                        raise RegistryIOError("zeta does not match its fields")
                    registry.add(rec)
            except (ValueError, GroupError, RecursionError) as exc:
                raise RegistryIOError(f"record {index}: {exc}") from exc
    return registry
