"""Executable attacker strategies run against honest state machines.

Each strategy models one capability from the threat model and runs its
session through ``pump``, the loop that moves every session's messages:

* replay: resend a recorded (alpha, z) against a fresh challenge
* twin impersonation: answer the challenge blind, without sk_d
* MITM tampering: flip one bit of one in-flight message of an honest run
* KCI: holding a stolen sk_d, impersonate the physical entity to the twin

Replay, impersonation and KCI seat an impostor in one party's place; MITM
tampers in its hop. Replay alone is handed what an eavesdropper recorded;
no strategy is handed a secret or an ephemeral.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Dict, List, Optional

from .groups import Element, scalar_random, scalar_random_nonzero
from .protocol import (
    Challenge,
    Commit,
    EXCHANGE,
    EntitySession,
    IdentityProof,
    Message,
    OpCounts,
    Phase,
    Response,
    Transcript,
    TwinSession,
    Verdict,
    encode_message,
    pump,
)


class AdversaryKind(Enum):
    REPLAY = "replay"
    IMPERSONATE_TWIN = "impersonate_twin"
    MITM_TAMPER = "mitm_tamper"
    KCI_IMPERSONATE_PHYSICAL = "kci_impersonate_physical"


class AttackError(ValueError):
    """The strategy lacks what it needs, such as a transcript to replay."""


@dataclass
class AttackOutcome:
    """What the strategy achieved, plus the attacker-side operation tally."""

    verdict: Verdict
    messages: List[str]  # the labels of the messages pump moved, in order
    ops: OpCounts = field(default_factory=OpCounts)
    detail: str = ""


class _Impostor:
    """An attacker in one party's seat in ``pump``. ``answers`` maps the label
    of each message it answers to a function making its reply; it is silent
    to any other. In the twin's seat, ``commit`` opens the session."""

    def __init__(self, answers: Dict[str, Callable[[], Message]], commit=None):
        self.answers = answers
        self.commit = commit

    def receive(self, msg: Message) -> List[Message]:
        answer = self.answers.get(msg.label)
        return [answer()] if answer else []


def _outcome(target, messages: List[str], ops: OpCounts, won: str) -> AttackOutcome:
    """The attack won iff its honest target established a key."""
    if target.phase is Phase.KEY_ESTABLISHED:
        return AttackOutcome(Verdict(True), messages, ops, won)
    return AttackOutcome(Verdict(False, target.failure), messages, ops)


def _forge_proof(entity: EntitySession, alpha: Element, answer, ops: OpCounts, won: str):
    """From the twin's seat, commit to alpha, then answer the challenge with
    the response ``answer()``; ``won`` is the detail if the entity accepts."""
    impostor = _Impostor({"challenge": lambda: Response(answer())}, lambda: Commit(alpha))
    return _outcome(entity, pump(entity, impostor), ops, won)


def attack_replay(recorded: List[Transcript], rng, entity: EntitySession) -> AttackOutcome:
    """Replay a recorded commitment and response against a fresh verifier.

    Succeeds only if the fresh challenge collides with the recorded one,
    which the nonce-bound challenge makes vanishingly rare outside the
    toy group.
    """
    usable = [t for t in recorded if t.alpha is not None and t.z is not None]
    if not usable:
        raise AttackError("no recorded transcripts to replay")
    seen = usable[rng.randrange(len(usable))]
    return _forge_proof(entity, seen.alpha, lambda: seen.z, OpCounts(), "challenge collision")


def attack_impersonate_twin(rng, entity: EntitySession) -> AttackOutcome:
    """Run the proof without sk_d: random commitment, then a blind response.

    Without solving the discrete log, exactly one response per challenge
    verifies, so the success rate is 1/q.
    """
    group, ops = entity.group, OpCounts()
    alpha = ops.exp(group, group.g, scalar_random_nonzero(group, rng))
    answer = partial(scalar_random, group, rng)
    return _forge_proof(entity, alpha, answer, ops, "blind response verified")


def attack_kci(rng, twin: TwinSession) -> AttackOutcome:
    """Impersonate the physical entity to a twin whose sk_d leaked.

    The stolen key is required by the scenario but useless for this
    direction: passing the identity check needs the discrete log of
    pk_p, so the adversary can only guess h_sp. An adversary that reuses
    an observed h_sp mounts a replay, not a key compromise.
    """
    group, ops = twin.group, OpCounts()

    def identity_guess() -> IdentityProof:  # the h_sp guess is drawn before the ephemeral's nonce
        return IdentityProof(scalar_random(group, rng), ops.exp(group, group.g, scalar_random(group, rng)))

    impostor = _Impostor(
        {"commit": lambda: Challenge(scalar_random(group, rng)), "response": identity_guess}
    )
    return _outcome(twin, pump(impostor, twin), ops, "identity guess accepted")


# -- MITM tampering -----------------------------------------------------------

_HEADER_BITS = 5 * 8  # the wire tag and payload length

# Each in-flight message of the would-be honest session -> (the party whose
# check binds it, how many of its leading encoded bits it binds in a group).
# Later bits (the ephemeral share, the verdict) are disruption, not forgery.
MITM_SLOTS = {
    "commit": ("entity", lambda group: _HEADER_BITS + 8 * group.element_size),
    "challenge": ("entity", lambda group: _HEADER_BITS + 8 * group.scalar_size),
    "response": ("entity", lambda group: _HEADER_BITS + 8 * group.scalar_size),
    "identity_proof": ("twin", lambda group: _HEADER_BITS + 8 * group.scalar_size),
    "verdict": (None, lambda group: 0),
}


def _flip_bit(data: bytes, bit_index: int) -> bytes:
    out = bytearray(data)
    out[bit_index // 8] ^= 1 << (7 - bit_index % 8)
    return bytes(out)


def attack_mitm_tamper(
    rng,
    entity: EntitySession,
    twin: TwinSession,
    slot: Optional[int] = None,
    bit: Optional[int] = None,
) -> AttackOutcome:
    """Run an honest session but flip one bit of one in-flight message.

    Slot and bit are drawn uniformly unless pinned (tests enumerate
    them). The outcome counts as a false acceptance only when a
    credential bit was flipped and the verifier consuming that message
    still established a key.
    """
    group = entity.group
    slot_name = EXCHANGE[rng.randrange(len(EXCHANGE)) if slot is None else slot]
    tampered_bit = bit

    def hop(recipient, msg) -> List[Message]:
        nonlocal tampered_bit
        raw = encode_message(group, msg)
        if msg.label == slot_name:  # each label travels at most once a session
            if tampered_bit is None:
                tampered_bit = rng.randrange(len(raw) * 8)
            raw = _flip_bit(raw, tampered_bit)
        return recipient.receive_bytes(raw)

    messages = pump(entity, twin, hop)
    party, credential_bits = MITM_SLOTS[slot_name]
    accepted = (
        tampered_bit is not None
        and tampered_bit < credential_bits(group)
        and {"entity": entity, "twin": twin}[party].phase is Phase.KEY_ESTABLISHED
    )
    detail = f"slot={slot_name} bit={tampered_bit}"
    if slot_name == "verdict":
        detail += " post-auth"
    return AttackOutcome(Verdict(accepted), messages, OpCounts(), detail)
