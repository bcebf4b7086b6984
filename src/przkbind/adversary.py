"""Executable attacker strategies run against honest state machines.

Each strategy models one capability from the threat model and drives a
target session to its verdict:

* replay: resend a recorded (alpha, z) against a fresh challenge
* twin impersonation: answer the challenge blind, without sk_d
* MITM tampering: flip one bit of one in-flight message of an honest run
* KCI: holding a stolen sk_d, impersonate the physical entity to the twin

An attack context carries only what an eavesdropper sees (transcripts,
public keys, zeta), plus the stolen twin key in the KCI case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

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
    """The attack context lacks what the strategy needs."""


@dataclass
class AttackContext:
    """Adversary knowledge: public transcript history and public keys only.

    The stolen twin secret is present exactly when modelling key
    compromise; no context ever holds the identity secret or ephemerals.
    """

    recorded_transcripts: List[Transcript] = field(default_factory=list)
    pk_p: Element = None
    pk_d: Element = None
    zeta: bytes = b""
    compromised_sk_d: Optional[int] = None


@dataclass
class AttackOutcome:
    """What the strategy achieved, plus the attacker-side operation tally."""

    verdict: Verdict
    messages: int  # in-flight protocol messages the attack exchanged
    ops: OpCounts = field(default_factory=OpCounts)
    detail: str = ""


def _forge_proof(target: EntitySession, alpha: Element, answer, ops: OpCounts, won: str):
    """Commit to alpha, then send ``answer()`` as the response once the
    challenge has arrived; ``won`` is the detail if the target accepts."""
    replies = target.receive(Commit(alpha))
    if not replies or not isinstance(replies[0], Challenge):
        verdict = replies[0] if replies else Verdict(False, target.failure)
        return AttackOutcome(verdict, 1, ops, "commitment rejected")
    replies = target.receive(Response(answer()))
    if target.schnorr_verified:
        # the deceived verifier sends its identity proof: a 4th in-flight message
        return AttackOutcome(Verdict(True), 4, ops, won)
    verdict = replies[0] if replies and isinstance(replies[0], Verdict) else Verdict(False)
    return AttackOutcome(verdict, 3, ops)


def attack_replay(ctx: AttackContext, rng, target: EntitySession) -> AttackOutcome:
    """Replay a recorded commitment and response against a fresh verifier.

    Succeeds only if the fresh challenge collides with the recorded one,
    which the nonce-bound challenge makes vanishingly rare outside the
    toy group.
    """
    usable = [t for t in ctx.recorded_transcripts if t.alpha is not None and t.z is not None]
    if not usable:
        raise AttackError("no recorded transcripts to replay")
    recorded = usable[rng.randrange(len(usable))]
    return _forge_proof(target, recorded.alpha, lambda: recorded.z, OpCounts(), "challenge collision")


def attack_impersonate_twin(ctx: AttackContext, rng, target: EntitySession) -> AttackOutcome:
    """Run the proof without sk_d: random commitment, then a blind response.

    Without solving the discrete log, exactly one response per challenge
    verifies, so the success rate is 1/q.
    """
    group = target.group
    ops = OpCounts()
    alpha = group.exp(group.g, scalar_random_nonzero(group, rng))
    ops.group_exp += 1
    return _forge_proof(target, alpha, lambda: scalar_random(group, rng), ops, "blind response verified")


def attack_kci(ctx: AttackContext, rng, target: TwinSession) -> AttackOutcome:
    """Impersonate the physical entity to a twin whose sk_d leaked.

    The stolen key is required by the scenario but useless for this
    direction: passing the identity check needs the discrete log of
    pk_p, so the adversary can only guess h_sp. The context must hold no
    observed identity proofs; reusing an observed h_sp is classified as
    replay, not key compromise.
    """
    if ctx.compromised_sk_d is None:
        raise AttackError("key-compromise attack requires the stolen twin secret")
    if any(t.h_sp is not None for t in ctx.recorded_transcripts):
        raise AttackError("context with observed identity proofs models replay, not KCI")
    group = target.group
    ops = OpCounts()
    target.commit()
    c = scalar_random(group, rng)
    target.receive(Challenge(c))
    h_sp_guess = scalar_random(group, rng)
    r_a = scalar_random(group, rng)
    r_pub = group.exp(group.g, r_a)
    ops.group_exp += 1
    replies = target.receive(IdentityProof(h_sp_guess, r_pub))
    if target.identity_verified:
        return AttackOutcome(Verdict(True), 4, ops, "identity guess accepted")
    verdict = replies[0] if replies and isinstance(replies[0], Verdict) else Verdict(False)
    return AttackOutcome(verdict, 4, ops)


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
    ctx: AttackContext,
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
    slot = rng.randrange(len(EXCHANGE)) if slot is None else slot
    slot_name = EXCHANGE[slot]
    tampered_bit = bit
    tampered = False
    messages = 0

    def hop(recipient, msg) -> List[Message]:
        nonlocal messages, tampered_bit, tampered
        if msg.label != "verdict":
            messages += 1  # verdicts deliver with zero injected delay
        raw = encode_message(group, msg)
        if msg.label == slot_name and not tampered:
            if tampered_bit is None:
                tampered_bit = rng.randrange(len(raw) * 8)
            raw = _flip_bit(raw, tampered_bit)
            tampered = True
        return recipient.receive_bytes(raw)

    pump(entity, twin, hop)

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
