"""Discrete-event session campaign engine.

Runs N sessions between a physical entity and its twin with a
configurable fraction of adversarial sessions, injects synthetic
per-message latency on a virtual clock (reported timings are virtual,
never wall time), and aggregates acceptance, false-acceptance, latency,
and operation-count/energy metrics into a report.

Determinism: every source of randomness is derived from the campaign
seed and the session index, so identical configs produce byte-identical
reports.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from itertools import chain, product
from operator import attrgetter, itemgetter
from typing import Callable, Dict, List, Optional, Tuple, Union

from .adversary import (
    AdversaryKind,
    attack_impersonate_twin,
    attack_kci,
    attack_mitm_tamper,
    attack_replay,
)
from .groups import Group, get_group
from .identity import EntityKeys, TwinKeyPair, derive_entity_keys, provision_identity, twin_keygen
from .protocol import (
    EXCHANGE,
    OP_NAMES,
    EntitySession,
    OpCounts,
    Phase,
    Transcript,
    TwinSession,
    pump,
    run_interactive_session,
)
from .registration import BindingRecord, Registry

HONEST = "honest"

KIND_ORDER = tuple(kind.value for kind in AdversaryKind)

DEFAULT_ENERGY_WEIGHTS = {"group_exp": 10.0, "group_mul": 1.0, "hash": 1.0}

_BINDING_TIME = 1_700_000_000  # fixed registration timestamp for campaigns
_WARMUP_SESSIONS = 3
_DELAYED = len(EXCHANGE) - 1  # the messages a session delays: all but the closing verdict
_ULP_SLACK = 1e-9  # relative widening of a row's latency bounds: random.uniform may pass a bound by an ulp
_MAX_TOTAL_DELAY = sys.float_info.max / 2  # half, so that no sum of a campaign's delays rounds to infinity
_op_counts = attrgetter(*OP_NAMES)  # an OpCounts' values, in OP_NAMES order
_op_items = itemgetter(*OP_NAMES)  # a report row's ops.p or ops.d values, in OP_NAMES order
_OP_KEYS = frozenset(OP_NAMES)  # the keys of a report row's ops.p and ops.d
# Session kind -> (its attack, None for an honest session; the honest parties it runs: entity p, twin d).
# The first row is honest, then KIND_ORDER. Each attack names its attack_* function in its body, so the
# function this module holds when the session runs is the one called.
_KINDS = {
    HONEST: (None, "pd"),
    AdversaryKind.REPLAY.value: (lambda env, rng, p: attack_replay(env.recorded, rng, p), "p"),
    AdversaryKind.IMPERSONATE_TWIN.value: (lambda env, rng, p: attack_impersonate_twin(rng, p), "p"),
    AdversaryKind.MITM_TAMPER.value: (lambda env, rng, p, d: attack_mitm_tamper(rng, p, d), "pd"),
    AdversaryKind.KCI_IMPERSONATE_PHYSICAL.value: (lambda env, rng, d: attack_kci(rng, d), "d"),
}
_SESSION_KINDS = tuple(_KINDS)
# A report row's flat fields, in the order it lists them, and the types each may hold; the one nested
# entry, "ops", follows them and holds ints. _ROW_SHAPES holds each allowed tuple of a row's types.
_ROW_TYPES = {
    "index": (int,),
    "kind": (str,),
    "accepted": (bool,),
    "auth_latency_ms": (int, float),
    "key_establish_ms": (int, float, type(None)),
    "key_agreement": (bool, type(None)),
    "detail": (str,),
}
_ROW_SHAPES = frozenset(product(*_ROW_TYPES.values(), *[(int,)] * (2 * len(OP_NAMES))))  # then ops.p, ops.d
_LATENCIES = tuple(name for name, types in _ROW_TYPES.items() if float in types)  # sums of delays
_row_items = itemgetter(*_ROW_TYPES)  # a report row's flat fields
_outcome = attrgetter("kind", "accepted", "key_agreement")  # what the aggregates count of a row
_auth_latency, _key_time = attrgetter("auth_latency_ms"), attrgetter("key_establish_ms")
_OP_TOTALS = [(op, attrgetter(f"ops_p.{op}"), attrgetter(f"ops_d.{op}")) for op in OP_NAMES]


def _refuse_unknown(obj: dict, known, where: str) -> None:  # every known key was read, so a longer obj holds another
    if len(obj) != len(known):
        raise ValueError(f"unknown key {sorted(obj.keys() - set(known))[0]!r} in {where}")


class ConfigError(ValueError):
    """Invalid campaign configuration; names the offending field."""

    def __init__(self, field_name: str, detail: str):
        super().__init__(f"{field_name}: {detail}")
        self.field_name = field_name


def _as_float(field_name: str, value) -> float:
    """A config weight or latency bound; a bool, a non-number or one beyond
    the finite floats is a ConfigError, not a silent 1.0 or a crash in float()."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ConfigError(field_name, f"{value!r} is not a finite number")
    return float(value)


class _Frozen(dict):
    """A made config's adversary_mix or energy_weights: a dict that refuses edits, as no rule checks
    a config again; it pickles and copies as the plain dict it holds."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a CampaignConfig's mappings cannot be edited; make a new config")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


class SimulationError(RuntimeError):
    """A session failed to reach a terminal state (implementation bug)."""


@dataclass(frozen=True)
class CampaignConfig:
    """A campaign's inputs, checked and stored as reports list them when the config is made, so
    keyword arguments, a config file and CLI flags that give the same values give the same config."""

    sessions: int
    adv_ratio: float = 0.0
    adversary_mix: Dict[str, float] = field(default_factory=lambda: dict.fromkeys(KIND_ORDER, 1.0))
    latency_range_ms: Tuple[float, float] = (10.0, 20.0)
    group_id: str = "p256"
    rng_seed: int = 0
    energy_weights: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_ENERGY_WEIGHTS))

    def __post_init__(self) -> None:
        bounds = self.latency_range_ms  # one number is both bounds
        bounds = [bounds, bounds] if isinstance(bounds, (int, float)) else bounds
        if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2):
            raise ConfigError("latency_range_ms", "must be [low, high] or a single number")
        low, high = (_as_float("latency_range_ms", v) for v in bounds)
        weights = {}
        for name, key in (("adversary_mix", "kind"), ("energy_weights", "op")):
            if not isinstance(getattr(self, name), dict):
                raise ConfigError(name, f"must be an object of {key} -> weight")
            weights[name] = {k: _as_float(name, v) for k, v in getattr(self, name).items()}
        mix, energy = weights.values()
        if type(self.sessions) is not int or not 1 <= self.sessions <= sys.maxsize:
            raise ConfigError("sessions", "must be an integer from 1 to sys.maxsize, as one list holds sessions 0..sessions - 1")
        if type(self.adv_ratio) not in (int, float) or not 0.0 <= self.adv_ratio <= 1.0:
            raise ConfigError("adv_ratio", "must lie in [0, 1]")
        unknown = set(mix) - set(KIND_ORDER)
        if unknown:
            raise ConfigError("adversary_mix", f"unknown adversary kinds: {sorted(unknown)}")
        if set(energy) != set(DEFAULT_ENERGY_WEIGHTS):
            raise ConfigError("energy_weights", f"must provide exactly {sorted(DEFAULT_ENERGY_WEIGHTS)}")
        for name, values in weights.items():
            if not (all(w >= 0 for w in values.values()) and math.isfinite(sum(values.values()))):
                raise ConfigError(name, "weights must be nonnegative, with a finite total")
        if self.adv_ratio > 0 and not any(mix.values()):
            raise ConfigError("adversary_mix", "needs a positive weight when adv_ratio > 0")
        # the total as a Fraction: exact, however large sessions is
        if not (0 <= low <= high and Fraction(high) * _DELAYED * self.sessions <= _MAX_TOTAL_DELAY):
            raise ConfigError("latency_range_ms", "requires 0 <= low <= high and 4 * high * sessions <= float max / 2")
        try:
            get_group(self.group_id)
        except Exception:
            raise ConfigError("group_id", f"unknown group: {self.group_id!r}") from None
        if type(self.rng_seed) is not int:
            raise ConfigError("rng_seed", "must be an integer")
        vars(self).update(latency_range_ms=(low, high), adversary_mix=_Frozen((k, mix.get(k, 0.0)) for k in KIND_ORDER),
                          energy_weights=_Frozen(sorted(energy.items())))  # a frozen dataclass's fields, set once

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "CampaignConfig":
        """A parsed config file: a JSON object of known fields that holds sessions."""
        if not isinstance(obj, dict):
            raise ConfigError("config", "must be a JSON object")
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown config field")
        if "sessions" not in obj:
            raise ConfigError("sessions", "is required")
        return cls(**obj)


@dataclass(slots=True)
class SessionMetrics:
    index: int
    kind: str
    accepted: bool
    auth_latency_ms: float
    key_establish_ms: Optional[float]
    ops_p: OpCounts
    ops_d: OpCounts
    key_agreement: Optional[bool] = None
    detail: str = ""

    def to_dict(self) -> dict:
        ops = {"p": self.ops_p.as_dict(), "d": self.ops_d.as_dict()}
        return {**{name: getattr(self, name) for name in _ROW_TYPES}, "ops": ops}

    @classmethod
    def from_dict(cls, obj: dict) -> "SessionMetrics":
        """Rebuild a report row that holds an index; a missing field or a value of the wrong type is a
        TypeError, one negative, not finite or at odds with kind and verdict a ValueError, naming the index."""
        try:
            values, ops = _row_items(obj), obj["ops"]
        except KeyError as missing:  # the first of _ROW_TYPES' fields, then ops, that the row lacks
            raise TypeError(f"session {obj['index']!r} lacks {missing.args[0]}") from None
        try:  # both parties' counts if ops.p and ops.d are objects of exactly the op names, else False
            counts = ops["p"].keys() == ops["d"].keys() == _OP_KEYS and _op_items(ops["p"]) + _op_items(ops["d"])
        except (AttributeError, KeyError, TypeError):
            counts = False
        if not counts:
            p_ok = isinstance(ops, dict) and isinstance(ops.get("p"), dict) and ops["p"].keys() == _OP_KEYS
            raise TypeError(f"session {obj['index']!r} lacks ops.{'d' if p_ok else 'p'} (an object of op counts)")
        if len(obj) + len(ops) != len(_ROW_TYPES) + 3:  # every field, ops, ops.p and ops.d were read
            _refuse_unknown(obj, (*_ROW_TYPES, "ops"), f"session {obj['index']!r}")
            _refuse_unknown(ops, "pd", f"session {obj['index']!r} ops")
        # positional, in SessionMetrics' field order: its ops follow the row's first five fields
        m = cls(*values[:5], OpCounts(*counts[:len(OP_NAMES)]), OpCounts(*counts[len(OP_NAMES):]), *values[5:])
        if tuple(map(type, values + counts)) not in _ROW_SHAPES or m.kind not in _SESSION_KINDS:
            # name the first fault: a field of the wrong type, then the kind, then the op counts
            faults = [f"{n} has the wrong type" for (n, types), v in zip(_ROW_TYPES.items(), values) if type(v) not in types]
            faults += [f"kind {m.kind!r} is not a session kind"] * (m.kind not in _SESSION_KINDS)
            raise TypeError(f"session {m.index!r}: {(faults + ['an op count is not an integer'])[0]}")
        for name in _LATENCIES:
            if not 0 <= (getattr(m, name) or 0) < math.inf:
                raise ValueError(f"session {m.index!r}: latency {name} is negative or not finite")
        if min(counts) < 0:  # tallies
            raise ValueError(f"session {m.index!r}: an op count is negative")
        if m.kind != HONEST and (m.key_agreement, m.key_establish_ms) != (None, None):
            raise ValueError(f"session {m.index!r}: an adversarial row has a key_agreement or key_establish_ms")
        if m.kind == HONEST and (m.key_agreement is not m.accepted or m.accepted and m.key_establish_ms is None):
            raise ValueError(f"session {m.index!r}: key_agreement != accepted, or accepted without key_establish_ms")
        return m


_SLOT = "\0"  # a string no config or aggregates block holds (their strings are checked names)
_SLOT_JSON = re.compile(r'"\\u0000([\w.]*)"')


def _row_layout() -> Tuple[str, Callable]:
    """A report row as json.dumps(indent=2) writes it in the sessions list,
    with a %s for each leaf, and a getter of the leaves' values in that
    order. Both come from to_dict of a placeholder row whose leaves name
    their own attributes, so SessionMetrics.to_dict stays the one layout."""
    slots = {f.name: _SLOT + f.name for f in fields(SessionMetrics)}
    for name in ("ops_p", "ops_d"):
        slots[name] = OpCounts(*[f"{_SLOT}{name}.{op}" for op in OP_NAMES])
    text = json.dumps(SessionMetrics(**slots).to_dict(), indent=2).replace("\n", "\n    ")
    return _SLOT_JSON.sub("%s", text), attrgetter(*_SLOT_JSON.findall(text))


_ROW_TEMPLATE, _row_values = _row_layout()
_CSV_HEADER = ",".join(["index", "kind", "accepted", "auth_latency_ms", "key_establish_ms"]
                       + [f"{party}_{op}" for party in "pd" for op in OP_NAMES])
_CSV_ROW = "%d,%s,%s,%r,%s" + ",%d" * (2 * len(OP_NAMES))


@dataclass
class CampaignReport:
    config: CampaignConfig
    sessions: List[SessionMetrics]
    aggregates: dict

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "sessions": [m.to_dict() for m in self.sessions],
            "aggregates": self.aggregates,
        }

    @classmethod
    def from_dict(cls, obj) -> "CampaignReport":
        """A parsed report file that passes every report rule; it holds the aggregates recomputed from its rows."""
        config = CampaignConfig.from_dict(obj["config"])
        rows = obj["sessions"]
        if not isinstance(rows, list):
            raise TypeError("sessions is not a list")
        low, high = config.latency_range_ms  # a session delays at most _DELAYED messages, an honest one all of them
        floor, ceiling = _DELAYED * low * (1 - _ULP_SLACK), _DELAYED * high * (1 + _ULP_SLACK)
        sessions = []
        for position, row in enumerate(rows):
            if not isinstance(row, dict) or "index" not in row:
                raise TypeError(f"row {position} " + ("lacks index" if isinstance(row, dict) else "is not an object"))
            m = SessionMetrics.from_dict(row)
            if not (floor if m.kind == HONEST else 0) <= m.auth_latency_ms <= ceiling or (m.key_establish_ms or 0) > ceiling:
                raise ValueError(f"session {m.index!r}: a latency lies outside what latency_range_ms allows")
            if m.key_establish_ms not in (None, m.auth_latency_ms):  # an honest session times both on one clock
                raise ValueError(f"session {m.index!r}: key_establish_ms is neither null nor auth_latency_ms")
            sessions.append(m)
        if not isinstance(obj["aggregates"], dict):
            raise TypeError("aggregates is not an object")
        _refuse_unknown(obj, ("config", "sessions", "aggregates"), "report")
        if len(sessions) != config.sessions or [m.index for m in sessions] != list(range(len(sessions))):
            raise ValueError(f"rows are not sessions 0..{config.sessions - 1} in index order")
        aggregates = compute_aggregates(sessions, config.energy_weights)
        for metric, value in aggregates.items():  # as JSON text: a stored false is not a recomputed 0
            if metric not in obj["aggregates"]:
                raise ValueError(f"aggregate mismatch: {metric} missing from report")
            if json.dumps(obj["aggregates"][metric], sort_keys=True) != json.dumps(value, sort_keys=True):
                raise ValueError(f"aggregate mismatch: {metric}")
        _refuse_unknown(obj["aggregates"], aggregates, "aggregates")
        allocated = kind_counts(config.sessions, config.adv_ratio, config.adversary_mix)
        if aggregates["kind_counts"] != allocated:
            raise ValueError(f"kind_counts differ from what the config allocates: {allocated}")
        return cls(config, sessions, aggregates)

    def to_json(self) -> str:
        """json.dumps(self.to_dict(), indent=2) + "\\n", byte for byte. The C
        encoder writes every row's leaf values in one call, one per line (an
        encoded value holds no raw newline), and they fill one row template
        per session."""
        rows = [_SLOT] if self.sessions else []
        doc = {"config": self.config.to_dict(), "sessions": rows, "aggregates": self.aggregates}
        text = json.dumps(doc, indent=2)
        if self.sessions:
            leaves = list(chain.from_iterable(map(_row_values, self.sessions)))
            values = json.dumps(leaves, separators=("\n", ":"))[1:-1].split("\n")
            rows_text = ",\n    ".join([_ROW_TEMPLATE] * len(self.sessions)) % tuple(values)
            head, tail = text.split(json.dumps(_SLOT), 1)
            return "".join([head, rows_text, tail, "\n"])
        return text + "\n"

    def to_csv(self) -> str:
        """One _CSV_ROW per session; no cell needs quoting, as kind is a session-kind name."""
        rows = [_CSV_ROW % (m.index, m.kind, "true" if m.accepted else "false", m.auth_latency_ms,
                            "" if m.key_establish_ms is None else repr(m.key_establish_ms),
                            *_op_counts(m.ops_p), *_op_counts(m.ops_d)) for m in self.sessions]
        return "\n".join([_CSV_HEADER, *rows, ""])


# -- environment ------------------------------------------------------------


@dataclass
class CampaignEnv:
    """Keys, binding record, and the transcripts a replay attacker recorded.

    Built once before the session loop; sessions never touch the
    registry again (the authority is initialization-only).
    """

    group: Group
    entity_keys: EntityKeys
    twin: TwinKeyPair
    record: BindingRecord
    recorded: List[Transcript]


def _spawn_rng(seed: Union[int, str], label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}/{label}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def build_env(config: CampaignConfig) -> CampaignEnv:
    group = get_group(config.group_id)
    setup_rng = _spawn_rng(config.rng_seed, "setup")
    identity = provision_identity(f"campaign-entity/{config.rng_seed}")
    entity_keys = derive_entity_keys(identity, group)
    twin = twin_keygen(group, setup_rng)
    registry = Registry(group)
    record = registry.register(entity_keys.pk_p, twin.pk_d, _BINDING_TIME)

    recorded: List[Transcript] = []
    for i in range(_WARMUP_SESSIONS):
        rng = _spawn_rng(config.rng_seed, f"warmup/{i}")
        p = EntitySession(group, entity_keys, record, rng)
        d = TwinSession(group, twin, record, rng)
        recorded.append(run_interactive_session(p, d))
    return CampaignEnv(group, entity_keys, twin, record, recorded)


# -- session execution --------------------------------------------------------


def kind_counts(sessions: int, adv_ratio: float, mix: Dict[str, float]) -> Dict[str, int]:
    """How many sessions of each kind a campaign runs, honest first, as its aggregates
    list them: exactly ceil(sessions * adv_ratio) are adversarial (exact arithmetic, so
    a 0.1 ratio of 5000 yields 500), their kinds following the mix by largest remainder."""
    n_adv = math.ceil(Fraction(str(adv_ratio)) * sessions) if adv_ratio else 0
    counts = {HONEST: sessions - n_adv, **dict.fromkeys(KIND_ORDER, 0)}
    if n_adv == 0:
        return counts
    total = Fraction(str(sum(mix.get(kind, 0.0) for kind in KIND_ORDER)))
    quotas = [(kind, Fraction(str(mix.get(kind, 0.0))) * n_adv / total) for kind in KIND_ORDER]
    counts.update((kind, math.floor(qt)) for kind, qt in quotas)
    remainder = n_adv - sum(counts[kind] for kind in KIND_ORDER)
    by_fraction = sorted(quotas, key=lambda kv: (kv[1] - math.floor(kv[1])), reverse=True)
    for kind, _ in by_fraction[:remainder]:
        counts[kind] += 1
    return counts


def allocate_kinds(sessions: int, adv_ratio: float, mix: Dict[str, float], rng: random.Random) -> List[str]:
    """Each session's kind: the kind_counts, placed by one seeded shuffle of the
    adversarial kinds and one of the session indices."""
    counts = kind_counts(sessions, adv_ratio, mix)
    kinds = [HONEST] * sessions
    adv_kinds = [kind for kind in KIND_ORDER for _ in range(counts[kind])]
    if not adv_kinds:
        return kinds
    rng.shuffle(adv_kinds)
    indices = list(range(sessions))
    rng.shuffle(indices)
    for idx, kind in zip(indices, adv_kinds):  # the first len(adv_kinds) shuffled indices
        kinds[idx] = kind
    return kinds


def run_session(
    config: CampaignConfig, kind: str, rng: random.Random, env: CampaignEnv, index: int = 0
) -> SessionMetrics:
    """Run one session of the given kind on the virtual clock. Each message but the closing verdict
    is delayed: an honest session's as it travels, as both parties draw from rng, an attack's after it returns."""
    if kind not in _KINDS:
        raise SimulationError(f"unknown session kind: {kind!r}")
    attack, parties = _KINDS[kind]
    low, high = config.latency_range_ms
    delay = lambda label: 0.0 if label == "verdict" else rng.uniform(low, high)
    p = EntitySession(env.group, env.entity_keys, env.record, rng) if "p" in parties else None
    d = TwinSession(env.group, env.twin, env.record, rng) if "d" in parties else None
    if attack:  # the attacker's tally stands in for the party it plays
        outcome = attack(env, rng, *(party for party in (p, d) if party))
        return SessionMetrics(index, kind, outcome.verdict.accept, sum(map(delay, outcome.messages)), None,
                              p.ops if p else outcome.ops, d.ops if d else outcome.ops, detail=outcome.detail)
    clock = 0.0

    def hop(recipient, msg):
        nonlocal clock
        clock += delay(msg.label)
        return recipient.receive(msg)

    labels = tuple(pump(p, d, hop))
    if labels != EXCHANGE:
        raise SimulationError(f"honest session derailed: it moved {labels}, not {EXCHANGE}")
    established = p.phase is Phase.KEY_ESTABLISHED and d.phase is Phase.KEY_ESTABLISHED
    agree = established and p.session_key.k_pd == d.session_key.k_pd
    return SessionMetrics(index, kind, agree, clock, clock if established else None, p.ops, d.ops, agree)


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run the full campaign; deterministic for a fixed config."""
    env = build_env(config)
    kinds = allocate_kinds(
        config.sessions, config.adv_ratio, config.adversary_mix, _spawn_rng(config.rng_seed, "alloc")
    )
    metrics = []
    for index, kind in enumerate(kinds):
        rng = _spawn_rng(config.rng_seed, f"session/{index}")
        try:
            metrics.append(run_session(config, kind, rng, env, index))
        except Exception as exc:
            raise SimulationError(f"session {index} ({kind}): {exc}") from exc

    aggregates = compute_aggregates(metrics, config.energy_weights)
    return CampaignReport(config=config, sessions=metrics, aggregates=aggregates)


# -- metrics -------------------------------------------------------------------


def energy_proxy(op_totals: Dict[str, int], weights: Dict[str, float]) -> float:
    """Weighted operation count standing in for energy cost; a negative weight
    or a total that is not finite is a ConfigError naming energy_weights."""
    total = float(sum(op_totals.get(op, 0) * w for op, w in weights.items()))
    if any(w < 0 for w in weights.values()) or not total < math.inf:
        raise ConfigError("energy_weights", "weights must be nonnegative, with a finite weighted op total")
    return total


def _p95(values: List[float]) -> Optional[float]:
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(0.95 * len(ordered)))
    return ordered[rank - 1]


def compute_aggregates(metrics: List[SessionMetrics], weights: Dict[str, float]) -> dict:
    counts, accepted, agreed = dict.fromkeys(_SESSION_KINDS, 0), dict.fromkeys(_SESSION_KINDS, 0), 0
    for (kind, accept, agree), n in Counter(map(_outcome, metrics)).items():
        if kind in counts:
            counts[kind] += n
            accepted[kind] += accept * n
            agreed += n if kind == HONEST and agree else 0
    honest = counts[HONEST]
    adversarial_count = sum(counts[kind] for kind in KIND_ORDER)
    adversarial_accepted = sum(accepted[kind] for kind in KIND_ORDER)
    latencies = list(map(_auth_latency, metrics))
    key_times = [t for t in map(_key_time, metrics) if t is not None]
    op_totals = {op: sum(map(p, metrics)) + sum(map(d, metrics)) for op, p, d in _OP_TOTALS}
    return {
        "sessions": len(metrics),
        "honest_count": honest,
        "adversarial_count": adversarial_count,
        "kind_counts": counts,
        "kind_accepted": accepted,
        "honest_accept_rate": accepted[HONEST] / honest if honest else None,
        "key_agreement_rate": agreed / honest if honest else None,
        "far": adversarial_accepted / adversarial_count if adversarial_count else None,
        "far_by_kind": {kind: accepted[kind] / counts[kind] if counts[kind] else None for kind in KIND_ORDER},
        "mean_auth_latency_ms": sum(latencies) / len(latencies) if latencies else None,
        "p95_auth_latency_ms": _p95(latencies),
        "mean_key_establish_ms": sum(key_times) / len(key_times) if key_times else None,
        "op_totals": op_totals,
        "energy_proxy": energy_proxy(op_totals, weights),
    }
