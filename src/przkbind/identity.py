"""Identity provisioning and key derivation for both parties.

The physical side holds an unclonable 32-byte secret (here a noise-free
simulated PUF readout, derived deterministically from a provisioning
seed) and exposes only a hash of it. The twin side holds an ordinary
discrete-log key pair.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

from .groups import (
    Element,
    Group,
    hash_h2,
    hash_to_scalar,
    scalar_random_nonzero,
)

_PROVISION_TAG = b"identity-provision-v1"


class IdentitySource(Enum):
    SIMULATED_PUF = "simulated_puf"


@dataclass(frozen=True)
class PhysicalIdentity:
    """The physical entity's secret identity bytes.

    Never serialized into any message, registry, or report; only the
    hashed form leaves the entity.
    """

    s_p: bytes = field(repr=False)
    source: IdentitySource = IdentitySource.SIMULATED_PUF


@dataclass(frozen=True)
class EntityKeys:
    """Physical entity's derived key material: h_sp and pk_p = g^h_sp."""

    h_sp: int = field(repr=False)
    pk_p: Element = None


@dataclass(frozen=True)
class TwinKeyPair:
    """Digital twin's key pair: nonzero secret sk_d and pk_d = g^sk_d."""

    sk_d: int = field(repr=False)
    pk_d: Element = None


def provision_identity(seed: Union[bytes, str]) -> PhysicalIdentity:
    """Derive a stable 32-byte identity secret from a provisioning seed."""
    if isinstance(seed, str):
        seed = seed.encode("utf-8")
    if not seed:
        raise ValueError("provisioning seed must be nonempty")
    return PhysicalIdentity(hash_h2(_PROVISION_TAG, seed), IdentitySource.SIMULATED_PUF)


def derive_entity_keys(identity: PhysicalIdentity, group: Group) -> EntityKeys:
    """Hash the identity secret into a scalar and derive pk_p from it.

    The zero scalar would give the identity element as a public key, so
    it is rejected by deterministic re-derivation with a retry counter.
    """
    h_sp = hash_to_scalar(group, identity.s_p)
    retry = 0
    while h_sp == 0:
        retry += 1
        h_sp = hash_to_scalar(group, identity.s_p, struct.pack(">I", retry))
    return EntityKeys(h_sp, group.exp(group.g, h_sp))


def twin_keygen(group: Group, rng) -> TwinKeyPair:
    """Generate the twin's key pair from a seeded rng; sk_d is never zero."""
    sk_d = scalar_random_nonzero(group, rng)
    return TwinKeyPair(sk_d, group.exp(group.g, sk_d))
