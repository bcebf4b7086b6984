"""The binding session protocol: prover, verifier, and key derivation.

A session is a four-message exchange between the twin (D) and the
physical entity (P), followed by a closing verdict from D:

    D -> P  commit          alpha = g^r
    P -> D  challenge       c bound to (alpha, zeta) plus a fresh nonce
    D -> P  response        z = r + c * sk_d  (knowledge of sk_d)
    P -> D  identity proof  h_sp plus an ephemeral share R_p = g^{r_p}
    D -> P  verdict         binding confirmed / abort reason

P accepts the twin iff g^z == alpha * pk_d^c; D accepts the entity iff
g^h_sp == pk_p. The step that passes a party's check also derives its
session key, from the static-ephemeral shared point
(pk_p * R_p)^{sk_d} == pk_d^{h_sp + r_p} hashed together with zeta. Keys
are derived silently; the closing verdict is a notification, not a
key-confirmation round. A reject verdict still fails a party that
already derived its key and erases that key, so no party keeps a key
its peer rejected.

One function, ``pump``, moves every session's messages between the two
parties; callers observe or alter the traffic through its ``hop``.

The challenge hashes a fresh 32-byte session nonce along with alpha and
zeta, so a replayed (alpha, z) meets a different challenge in every new
session and the verification equation rejects it.

Each party's state machine is one table, ``AWAITS``: the message each
phase awaits and the step that answers it with one reply. A failed check
fails the session, erasing its ephemeral secret and any key, and raises
VerificationFailure; ``receive`` answers it with the reject verdict.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter
from typing import Callable, ClassVar, Dict, List, NoReturn, Optional, Tuple, Union

from .groups import (
    Element,
    Group,
    GroupError,
    hash_h1_bytes,
    hash_to_scalar,
    scalar_inv,
    scalar_random,
    scalar_random_nonzero,
)
from .identity import EntityKeys, TwinKeyPair
from .registration import BindingRecord, verify_record


class ProtocolError(Exception):
    """Base class for protocol-layer errors."""


class SessionError(ProtocolError):
    """A session operation was invoked out of phase."""


class BindingMismatch(ProtocolError):
    """The supplied binding record fails validation for this party."""


class ExtractionError(ProtocolError):
    """Transcript pair does not permit secret extraction."""


class WireError(ValueError):
    """Malformed wire bytes."""


class Reason(Enum):
    BAD_PROOF = 1
    BAD_IDENTITY = 2
    DEGENERATE_COMMITMENT = 3
    OUT_OF_ORDER = 4
    TIMEOUT = 5


class Phase(Enum):
    IDLE = "idle"
    COMMITMENT_SENT = "commitment_sent"
    CHALLENGED = "challenged"
    RESPONSE_SENT = "response_sent"
    KEY_ESTABLISHED = "key_established"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self in (Phase.KEY_ESTABLISHED, Phase.FAILED)


class VerificationFailure(ProtocolError):
    """A step's check failed; raised by ``_Session._reject`` with the verdict reason."""

    def __init__(self, reason: Reason, detail: str = ""):
        super().__init__(detail or reason.name)
        self.reason = reason


@dataclass(frozen=True)
class Commit:
    label: ClassVar[str] = "commit"
    alpha: Element


@dataclass(frozen=True)
class Challenge:
    label: ClassVar[str] = "challenge"
    c: int


@dataclass(frozen=True)
class Response:
    label: ClassVar[str] = "response"
    z: int


@dataclass(frozen=True)
class IdentityProof:
    label: ClassVar[str] = "identity_proof"
    h_sp: int
    r_p_pub: Element


@dataclass(frozen=True)
class Verdict:
    label: ClassVar[str] = "verdict"
    accept: bool
    reason: Optional[Reason] = None


Message = Union[Commit, Challenge, Response, IdentityProof, Verdict]

# The labels of an honest session's messages, in the order they travel.
EXCHANGE = tuple(m.label for m in (Commit, Challenge, Response, IdentityProof, Verdict))


@dataclass(frozen=True)
class SessionKey:
    k_pd: bytes = field(repr=False)


@dataclass(slots=True)
class OpCounts:
    """Per-party operation tally used by the overhead/energy metrics.

    Every group operation a party or an attack makes goes through ``exp``
    or ``mul``, which count it and call the group they are given.
    """

    group_exp: int = 0
    group_mul: int = 0
    hash: int = 0

    def exp(self, group: Group, base: Element, e: int) -> Element:
        self.group_exp += 1
        return group.exp(base, e)

    def mul(self, group: Group, a: Element, b: Element) -> Element:
        self.group_mul += 1
        return group.mul(a, b)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in OP_NAMES}


# The counted operations, in the order reports list them.
OP_NAMES = tuple(f.name for f in fields(OpCounts))


# -- wire format ----------------------------------------------------------
# 1-byte tag | 4-byte big-endian payload length | field encodings in order.

# WIRE, the format's one definition: message class -> (tag, its fields' kinds),
# a kind mapping a group to the field's (encoder, decoder, size).
_ELEMENT = attrgetter("encode", "decode", "element_size")
_SCALAR = attrgetter("encode_scalar", "decode_scalar", "scalar_size")


def _byte_kind(values: tuple):
    """The kind of a one-byte field whose byte is its value's index in ``values``."""
    def decode(data: bytes):
        if len(data) != 1 or data[0] >= len(values):
            raise WireError(f"bad one-byte field: {data.hex()}")
        return values[data[0]]
    return lambda group: (lambda value: bytes([values.index(value)]), decode, 1)


WIRE = {
    Commit: (0x01, (_ELEMENT,)),
    Challenge: (0x02, (_SCALAR,)),
    Response: (0x03, (_SCALAR,)),
    IdentityProof: (0x04, (_SCALAR, _ELEMENT)),
    # the accept flag, then the reason: 0 for none, else Reason.value, which numbers the members 1, 2, ...
    Verdict: (0x05, (_byte_kind((False, True)), _byte_kind((None, *Reason)))),
}
_BY_TAG = {tag: (cls, kinds) for cls, (tag, kinds) in WIRE.items()}


def encode_message(group: Group, msg: Message) -> bytes:
    if type(msg) not in WIRE:
        raise WireError(f"unknown message type: {type(msg).__name__}")
    tag, kinds = WIRE[type(msg)]
    payload = b"".join([kind(group)[0](value) for kind, value in zip(kinds, vars(msg).values())])
    return bytes([tag]) + struct.pack(">I", len(payload)) + payload


def decode_message(group: Group, data: bytes) -> Message:
    if len(data) < 5:
        raise WireError("truncated message header")
    tag, payload = data[0], data[5:]
    (length,) = struct.unpack(">I", data[1:5])
    if len(payload) != length:
        raise WireError("payload length mismatch")
    if tag not in _BY_TAG:
        raise WireError(f"unknown message tag: {tag:#x}")
    cls, kinds = _BY_TAG[tag]
    values, start = [], 0
    try:  # each decoder rejects a slice of the wrong size, so a short payload fails here
        for kind in kinds:
            _, decode, size = kind(group)
            values.append(decode(payload[start:start + size]))
            start += size
    except GroupError as exc:
        raise WireError(str(exc)) from exc
    if start != length:
        raise WireError(f"bad payload size: {length} != {start}")
    return cls(*values)


# -- pure relations --------------------------------------------------------


def schnorr_response(group: Group, r: int, c: int, sk_d: int) -> int:
    """The prover's response z = r + c * sk_d mod q."""
    return (r + c * sk_d) % group.q


def schnorr_verify(
    group: Group,
    pk_d: Element,
    alpha: Element,
    c: int,
    z: int,
    ops: Optional[OpCounts] = None,
) -> bool:
    """The verification equation g^z == alpha * pk_d^c, tallied in ``ops``."""
    ops = ops or OpCounts()
    return ops.exp(group, group.g, z) == ops.mul(group, alpha, ops.exp(group, pk_d, c))


def identity_check(group: Group, pk_p: Element, h_sp: int, ops: Optional[OpCounts] = None) -> bool:
    """The identity equation g^h_sp == pk_p, tallied in ``ops``; the zero scalar is rejected."""
    if h_sp % group.q == 0:
        return False
    return (ops or OpCounts()).exp(group, group.g, h_sp) == pk_p


# -- transcripts -----------------------------------------------------------


@dataclass
class Transcript:
    """The public view of one session: the values of its messages.

    Holds only values an eavesdropper sees; never ephemeral secrets,
    secret keys, or the identity secret.
    """

    alpha: Optional[Element] = None
    c: Optional[int] = None
    z: Optional[int] = None
    h_sp: Optional[int] = None
    r_p_pub: Optional[Element] = None
    verdict: Optional[Verdict] = None

    def note(self, msg: Message) -> None:
        if msg.label == "verdict":
            self.verdict = msg
        else:  # every other message's fields are transcript fields of the same name
            vars(self).update(vars(msg))

    def to_dict(self, group: Group) -> dict:
        def enc(x):
            return group.encode(x).hex() if x is not None else None

        verdict = None
        if self.verdict is not None:
            verdict = {
                "accept": self.verdict.accept,
                "reason": self.verdict.reason.name if self.verdict.reason else None,
            }
        return {
            "alpha": enc(self.alpha),
            "c": self.c,
            "z": self.z,
            "h_sp": self.h_sp,
            "r_p_pub": enc(self.r_p_pub),
            "verdict": verdict,
        }


# -- session state machines -------------------------------------------------


_UNAWAITED = (None, None, Reason.OUT_OF_ORDER)  # AWAITS' entry for a phase it does not list


class _Session:
    """State shared by both parties' machines."""

    # Phase -> (the message class it awaits, the name of the step answering it with
    # one reply, the reason malformed wire bytes fail the session with). Any other
    # message, or a phase not listed, is out of order. Steps are named, not held, so
    # that a step redefined on the class is the one that runs.
    AWAITS: ClassVar[Dict[Phase, Tuple[type, str, Reason]]] = {}

    def __init__(self, group: Group, binding: BindingRecord, rng):
        if not verify_record(group, binding):
            raise BindingMismatch("binding record fails zeta recomputation")
        if group.identity in (binding.pk_p, binding.pk_d):
            raise BindingMismatch("a public key in the binding record is the identity element")
        self.group = group
        self.binding = binding
        self.rng = rng
        self.phase = Phase.IDLE
        self.failure: Optional[Reason] = None
        self.ops = OpCounts()
        self.session_key: Optional[SessionKey] = None
        self._nonce: Optional[int] = None  # D's r from commit to respond; P's r_p is a step's local

    def _require_phase(self, expected: Phase) -> None:
        if self.phase is not expected:
            raise SessionError(f"operation requires phase {expected.name}, in {self.phase.name}")

    def _establish(self, shared: Element) -> None:
        """Hash the shared point and zeta into the session key."""
        self.ops.hash += 1
        self.session_key = SessionKey(hash_h1_bytes(self.group.encode(shared), self.binding.zeta))
        self.phase = Phase.KEY_ESTABLISHED

    def _fail(self, reason: Reason) -> List[Message]:
        """Fail the session; returns the reject verdict to send the peer."""
        self.phase = Phase.FAILED
        self.failure = reason
        self.session_key = None
        self._nonce = None
        return [Verdict(False, reason)]

    def _reject(self, reason: Reason, detail: str = "") -> NoReturn:
        """A step's check failed: fail the session and raise for ``receive`` to answer."""
        self._fail(reason)
        raise VerificationFailure(reason, detail)

    def receive(self, msg: Message) -> List[Message]:
        """Feed one message; returns this party's replies.

        Failed sessions accept no further input; established sessions
        only heed a late verdict. A reject verdict fails the session,
        erasing a key already derived, since the peer holds none.
        The message the phase awaits in ``AWAITS`` gets its step's one
        reply; any other fails the session with an out-of-order verdict,
        and a step's rejection is answered with its reason.
        """
        if self.phase is Phase.FAILED:
            return []
        if isinstance(msg, Verdict):
            if not msg.accept:
                self._fail(msg.reason or Reason.OUT_OF_ORDER)
            return []
        if self.phase is Phase.KEY_ESTABLISHED:
            return []
        awaited, step, _ = self.AWAITS.get(self.phase, _UNAWAITED)
        if type(msg) is not awaited:
            return self._fail(Reason.OUT_OF_ORDER)
        try:
            return [getattr(self, step)(msg)]
        except VerificationFailure as vf:
            return self._fail(vf.reason)

    def receive_bytes(self, raw: bytes) -> List[Message]:
        """Decode wire bytes and feed them; malformed bytes fail the session."""
        try:
            msg = decode_message(self.group, raw)
        except WireError:
            if self.phase.terminal:
                return []
            return self._fail(self.AWAITS.get(self.phase, _UNAWAITED)[2])
        return self.receive(msg)


class EntitySession(_Session):
    """Physical-entity side: challenges the twin's proof, then proves its
    own identity and contributes the ephemeral key share."""

    AWAITS = {
        Phase.IDLE: (Commit, "challenge", Reason.DEGENERATE_COMMITMENT),
        Phase.CHALLENGED: (Response, "verify_response", Reason.BAD_PROOF),
    }

    def __init__(self, group: Group, keys: EntityKeys, binding: BindingRecord, rng):
        super().__init__(group, binding, rng)
        if binding.pk_p != keys.pk_p:
            raise BindingMismatch("binding record is for a different physical key")
        self.keys = keys
        self._alpha: Optional[Element] = None
        self._c: Optional[int] = None

    def challenge(self, commit: Commit) -> Challenge:
        """Issue a challenge bound to the commitment, zeta, and a fresh nonce."""
        self._require_phase(Phase.IDLE)
        if not self.group.is_member(commit.alpha) or commit.alpha == self.group.identity:
            self._reject(Reason.DEGENERATE_COMMITMENT, "degenerate commitment")
        nonce = self.rng.randbytes(32)
        c = hash_to_scalar(self.group, self.group.encode(commit.alpha), self.binding.zeta, nonce)
        self.ops.hash += 1
        self._alpha = commit.alpha
        self._c = c
        self.phase = Phase.CHALLENGED
        return Challenge(c)

    def verify_response(self, resp: Response) -> IdentityProof:
        """Check the verification equation (failure is terminal), then reveal
        the identity hash with a fresh ephemeral share R_p = g^{r_p} and
        derive the session key from pk_d^{h_sp + r_p} and zeta."""
        self._require_phase(Phase.CHALLENGED)
        if not schnorr_verify(self.group, self.binding.pk_d, self._alpha, self._c, resp.z, self.ops):
            self._reject(Reason.BAD_PROOF, "response fails the verification equation")
        r_p = scalar_random_nonzero(self.group, self.rng)
        r_p_pub = self.ops.exp(self.group, self.group.g, r_p)
        self._establish(self.ops.exp(self.group, self.binding.pk_d, (self.keys.h_sp + r_p) % self.group.q))
        return IdentityProof(self.keys.h_sp, r_p_pub)


class TwinSession(_Session):
    """Digital-twin side: proves knowledge of sk_d, verifies the entity's
    identity hash, and derives the session key from the ephemeral share."""

    AWAITS = {
        Phase.COMMITMENT_SENT: (Challenge, "respond", Reason.OUT_OF_ORDER),
        Phase.RESPONSE_SENT: (IdentityProof, "verify_identity", Reason.BAD_IDENTITY),
    }

    def __init__(self, group: Group, twin: TwinKeyPair, binding: BindingRecord, rng):
        super().__init__(group, binding, rng)
        if binding.pk_d != twin.pk_d:
            raise BindingMismatch("binding record is for a different twin key")
        self.twin = twin

    def commit(self) -> Commit:
        """Open the session with a fresh commitment alpha = g^r.

        The nonce is drawn nonzero: a zero nonce would commit to the
        identity element, which verifiers reject as degenerate.
        """
        self._require_phase(Phase.IDLE)
        self._nonce = scalar_random_nonzero(self.group, self.rng)
        alpha = self.ops.exp(self.group, self.group.g, self._nonce)
        self.phase = Phase.COMMITMENT_SENT
        return Commit(alpha)

    def respond(self, ch: Challenge) -> Response:
        """Answer the challenge with z = r + c * sk_d; r is erased. A
        challenge outside [0, q) fails the session, as its encoding would."""
        self._require_phase(Phase.COMMITMENT_SENT)
        if not 0 <= ch.c < self.group.q:
            self._reject(Reason.OUT_OF_ORDER, f"challenge scalar out of range: {ch.c}")
        z = schnorr_response(self.group, self._nonce, ch.c, self.twin.sk_d)
        self._nonce = None
        self.phase = Phase.RESPONSE_SENT
        return Response(z)

    def verify_identity(self, proof: IdentityProof) -> Verdict:
        """Check R_p's membership and g^h_sp == pk_p (failure, or a zero h_sp,
        is terminal), then derive the session key from (pk_p * R_p)^{sk_d} and zeta."""
        self._require_phase(Phase.RESPONSE_SENT)
        if not (self.group.is_member(proof.r_p_pub) and identity_check(self.group, self.binding.pk_p, proof.h_sp, self.ops)):
            self._reject(Reason.BAD_IDENTITY, "identity proof rejected")
        shared = self.ops.exp(self.group, self.ops.mul(self.group, self.binding.pk_p, proof.r_p_pub), self.twin.sk_d)
        self._establish(shared)
        return Verdict(True)


def pump(
    entity: EntitySession,
    twin: TwinSession,
    hop: Callable[[_Session, Message], List[Message]] = lambda recipient, msg: recipient.receive(msg),
) -> List[str]:
    """Run one session: open with ``twin.commit()``, then hand each message
    and its recipient to ``hop``, which returns the recipient's replies,
    until a recipient has none; returns the moved messages' labels. A party
    replies with at most one message, so the two alternate. A hop may
    observe, delay or alter a message; the default one delivers it. Either
    seat may hold an attacker's impostor.
    """
    msg: Message = twin.commit()
    recipient, peer = entity, twin
    labels = []
    while True:
        labels.append(msg.label)
        replies = hop(recipient, msg)
        if not replies:
            return labels
        (msg,) = replies
        recipient, peer = peer, recipient


def run_interactive_session(entity: EntitySession, twin: TwinSession) -> Transcript:
    """Drive one in-memory session to a terminal state; returns the
    eavesdropper's transcript (zero virtual latency)."""
    transcript = Transcript()

    def hop(recipient: _Session, msg: Message) -> List[Message]:
        transcript.note(msg)
        return recipient.receive(msg)

    pump(entity, twin, hop)
    return transcript


# -- non-interactive mode ----------------------------------------------------


def fiat_shamir_prove(
    group: Group, sk_d: int, zeta: bytes, pk_d: Element, rng
) -> Tuple[Element, int]:
    """Produce a non-interactive proof (alpha, z) with the challenge
    derived locally from (alpha, zeta, pk_d)."""
    r = scalar_random(group, rng)
    alpha = group.exp(group.g, r)
    c = hash_to_scalar(group, group.encode(alpha), zeta, group.encode(pk_d))
    return alpha, schnorr_response(group, r, c, sk_d)


def fiat_shamir_verify(group: Group, pk_d: Element, zeta: bytes, alpha: Element, z: int) -> bool:
    """Recompute the local challenge and check the verification equation.

    Unlike the interactive challenger, this accepts an identity-element
    commitment: the zero nonce is a valid (if wasteful) prover choice and
    completeness holds for every nonce.
    """
    if not group.is_member(alpha):
        return False
    if not group.is_member(pk_d) or pk_d == group.identity:
        return False
    c = hash_to_scalar(group, group.encode(alpha), zeta, group.encode(pk_d))
    return schnorr_verify(group, pk_d, alpha, c, z)


def extract_secret(group: Group, t1: Transcript, t2: Transcript) -> int:
    """Special-soundness extractor: two accepting transcripts that share a
    commitment but differ in challenge reveal sk_d."""
    if t1.alpha != t2.alpha:
        raise ExtractionError("transcripts do not share a commitment")
    if t1.c == t2.c:
        raise ExtractionError("challenges are equal; no extraction possible")
    dz = (t1.z - t2.z) % group.q
    dc = (t1.c - t2.c) % group.q
    return dz * scalar_inv(group, dc) % group.q
