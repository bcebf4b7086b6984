import random

import pytest

from przkbind import protocol
from przkbind.groups import get_group
from przkbind.identity import TwinKeyPair, derive_entity_keys, provision_identity
from przkbind.registration import Registry

# Fixed binding timestamp used across fixtures.
T0 = 1_700_000_000


class ScriptedRng(random.Random):
    """Seeded rng whose next randrange/randbytes results can be pinned.

    Lets tests force specific nonces and ephemerals through the normal
    code paths; unpinned draws fall back to the seeded stream.
    """

    def __init__(self, randranges=(), byte_values=(), seed=0):
        super().__init__(seed)
        self._randranges = list(randranges)
        self._bytes = list(byte_values)

    def randrange(self, *args, **kwargs):
        if self._randranges:
            return self._randranges.pop(0)
        return super().randrange(*args, **kwargs)

    def randbytes(self, n):
        if self._bytes:
            value = self._bytes.pop(0)
            assert len(value) == n
            return value
        return super().randbytes(n)


@pytest.fixture
def toy():
    return get_group("toy")


@pytest.fixture(scope="session")
def p256():
    return get_group("p256")


@pytest.fixture
def skewed_twin_keys(monkeypatch):
    """Every twin that accepts an identity proof establishes a key its entity does not hold."""
    verify = protocol.TwinSession._verify_identity

    def skewed(self, proof):
        verdict = verify(self, proof)
        if verdict is not None:  # None: the proof failed the check, and receive fails the twin
            self.session_key = protocol.SessionKey(bytes(len(self.session_key.k_pd)))
        return verdict

    monkeypatch.setattr(protocol.TwinSession, "_verify_identity", skewed)


@pytest.fixture
def toy_env(toy):
    """Toy-group parties with small, hand-checkable key material.

    The provisioning seed is chosen so the entity lands on h_sp = 7 and
    pk_p = 13; the twin key is sk_d = 3, pk_d = 8.
    """
    identity = provision_identity(b"fixture-7")
    keys = derive_entity_keys(identity, toy)
    assert keys.h_sp == 7 and keys.pk_p == 13
    twin = TwinKeyPair(3, toy.exp(toy.g, 3))
    registry = Registry(toy)
    record = registry.register(keys.pk_p, twin.pk_d, T0)
    return {
        "group": toy,
        "identity": identity,
        "keys": keys,
        "twin": twin,
        "record": record,
        "registry": registry,
    }


@pytest.fixture(scope="session")
def p256_env(p256):
    identity = provision_identity(b"fixture-7")
    keys = derive_entity_keys(identity, p256)
    twin_rng = random.Random(20_240_501)
    sk_d = twin_rng.randrange(1, p256.q)
    twin = TwinKeyPair(sk_d, p256.exp(p256.g, sk_d))
    registry = Registry(p256)
    record = registry.register(keys.pk_p, twin.pk_d, T0)
    return {
        "group": p256,
        "identity": identity,
        "keys": keys,
        "twin": twin,
        "record": record,
        "registry": registry,
    }
