import copy
import csv
import io
import json
import operator
import pickle
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import przkbind.adversary as adversary
import przkbind.protocol as protocol
import przkbind.registration as registration
import przkbind.simulator as simulator
from przkbind.groups import P256Group, ToyGroup
from przkbind.protocol import OP_NAMES, OpCounts
from przkbind.simulator import (
    HONEST,
    KIND_ORDER,
    DEFAULT_ENERGY_WEIGHTS,
    CampaignConfig,
    CampaignReport,
    ConfigError,
    SessionMetrics,
    allocate_kinds,
    build_env,
    compute_aggregates,
    energy_proxy,
    kind_counts,
    run_campaign,
    run_session,
    _spawn_rng,
)


def toy_config(**overrides):
    base = dict(sessions=40, adv_ratio=0.1, group_id="toy", rng_seed=7)
    base.update(overrides)
    return CampaignConfig(**base)


class TestConfig:
    def test_validation_names_the_field(self):
        with pytest.raises(ConfigError) as err:
            CampaignConfig(sessions=0)
        assert err.value.field_name == "sessions"
        with pytest.raises(ConfigError) as err:
            CampaignConfig(sessions=1, adv_ratio=1.5)
        assert err.value.field_name == "adv_ratio"
        with pytest.raises(ConfigError) as err:
            CampaignConfig(sessions=1, latency_range_ms=(20, 10))
        assert err.value.field_name == "latency_range_ms"
        with pytest.raises(ConfigError) as err:
            CampaignConfig(sessions=1, group_id="nope")
        assert err.value.field_name == "group_id"
        with pytest.raises(ConfigError) as err:
            CampaignConfig(sessions=1, adv_ratio=0.5, adversary_mix={"replay": 0.0})
        assert err.value.field_name == "adversary_mix"

    def test_json_roundtrip(self):
        cfg = toy_config()
        again = CampaignConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict({"sessions": 5, "warp_factor": 9})

    def test_single_latency_number_means_fixed_delay(self):
        cfg = CampaignConfig.from_dict({"sessions": 2, "latency_range_ms": 15})
        assert cfg.latency_range_ms == (15.0, 15.0)

    def test_made_in_the_form_reports_list_it(self):
        # integer bounds and weights become floats, every kind is listed, the energy weights are sorted
        cfg = CampaignConfig(sessions=1, adversary_mix={"mitm_tamper": 2}, latency_range_ms=[10, 20],
                             group_id="toy", energy_weights={"hash": 1, "group_mul": 1, "group_exp": 10})
        mix = {**dict.fromkeys(KIND_ORDER, 0.0), "mitm_tamper": 2.0}
        assert json.dumps(cfg.to_dict()) == json.dumps({
            "sessions": 1, "adv_ratio": 0.0, "adversary_mix": mix, "latency_range_ms": [10.0, 20.0],
            "group_id": "toy", "rng_seed": 0, "energy_weights": DEFAULT_ENERGY_WEIGHTS,
        })

    def test_sessions_bounded_by_the_largest_list(self):
        # made, not run: a config allocates nothing
        assert CampaignConfig(sessions=sys.maxsize, group_id="toy").sessions == sys.maxsize
        for sessions in (sys.maxsize + 1, 10**27):
            with pytest.raises(ConfigError) as err:
                CampaignConfig(sessions=sessions, group_id="toy")
            assert err.value.field_name == "sessions"


    @pytest.mark.parametrize("edit", [
        lambda m: operator.setitem(m, "replay", 0.0),
        lambda m: operator.delitem(m, "hash"),
        lambda m: operator.ior(m, {"hash": 0.0}),
        lambda m: m.clear(),
        lambda m: m.pop("hash"),
        lambda m: m.popitem(),
        lambda m: m.setdefault("joules", 1.0),
        lambda m: m.update(hash=0.0),
    ], ids=["setitem", "delitem", "ior", "clear", "pop", "popitem", "setdefault", "update"])
    def test_mappings_refuse_edits(self, edit):
        # no rule checks a made config again, so its mappings cannot change
        cfg = toy_config()
        for mapping in (cfg.adversary_mix, cfg.energy_weights):
            before = dict(mapping)
            with pytest.raises(TypeError, match="cannot be edited"):
                edit(mapping)
            assert mapping == before

    def test_zeroed_mix_refused_before_the_campaign_runs(self):
        cfg = CampaignConfig(sessions=10, adv_ratio=0.5, group_id="toy")
        with pytest.raises(TypeError):
            cfg.adversary_mix.update(dict.fromkeys(KIND_ORDER, 0.0))
        assert run_campaign(cfg).aggregates["adversarial_count"] == 5

    def test_pickle_and_deepcopy_give_an_equal_config(self):
        cfg = toy_config(adversary_mix={"replay": 2})
        for again in (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg)):
            assert again == cfg and json.dumps(again.to_dict()) == json.dumps(cfg.to_dict())
            with pytest.raises(TypeError):
                again.energy_weights["hash"] = 0.0


class TestAllocation:
    def test_exact_split_at_ten_percent(self):
        kinds = allocate_kinds(5000, 0.1, {k: 1.0 for k in KIND_ORDER}, random.Random(1))
        assert len(kinds) == 5000
        adversarial = [k for k in kinds if k != HONEST]
        assert len(adversarial) == 500
        for kind in KIND_ORDER:
            assert adversarial.count(kind) == 125

    def test_zero_ratio_all_honest(self):
        assert set(allocate_kinds(100, 0.0, {}, random.Random(1))) == {HONEST}

    def test_weights_steer_the_mix(self):
        mix = {"replay": 3.0, "impersonate_twin": 1.0}
        kinds = allocate_kinds(100, 0.2, mix, random.Random(2))
        assert kinds.count("replay") == 15
        assert kinds.count("impersonate_twin") == 5
        assert kinds.count("mitm_tamper") == 0

    def test_deterministic_for_fixed_seed(self):
        a = allocate_kinds(200, 0.25, {k: 1.0 for k in KIND_ORDER}, random.Random(9))
        b = allocate_kinds(200, 0.25, {k: 1.0 for k in KIND_ORDER}, random.Random(9))
        assert a == b

    @settings(max_examples=100, deadline=None)
    @given(
        sessions=st.integers(1, 300),
        adv_ratio=st.sampled_from([0.0, 0.1, 1 / 3, 0.5, 0.999, 1.0]) | st.floats(0.0, 1.0),
        weights=st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0, 1e-9]), min_size=len(KIND_ORDER),
                         max_size=len(KIND_ORDER)).filter(any),
    )
    def test_allocation_places_the_kind_counts(self, sessions, adv_ratio, weights):
        mix = dict(zip(KIND_ORDER, weights))
        counts = kind_counts(sessions, adv_ratio, mix)
        assert list(counts) == [HONEST, *KIND_ORDER]
        placed = Counter(allocate_kinds(sessions, adv_ratio, mix, random.Random(3)))
        assert {kind: placed[kind] for kind in counts} == counts


class TestSessions:
    def test_honest_session_zero_latency(self, toy_env):
        cfg = toy_config(latency_range_ms=(0.0, 0.0))
        m = run_session(cfg, HONEST, _spawn_rng(1, "t"), build_env(cfg))
        assert m.accepted and m.key_agreement
        assert m.auth_latency_ms == 0.0
        assert m.key_establish_ms == 0.0

    def test_honest_session_latency_bounds(self, toy_env):
        cfg = toy_config(latency_range_ms=(10.0, 20.0))
        env = build_env(cfg)
        for i in range(30):
            m = run_session(cfg, HONEST, _spawn_rng(i, "x"), env)
            # four delayed authentication messages
            assert 40.0 <= m.auth_latency_ms <= 80.0

    def test_honest_session_fixed_latency_is_exact(self):
        cfg = toy_config(latency_range_ms=(10.0, 10.0))
        m = run_session(cfg, HONEST, _spawn_rng(3, "y"), build_env(cfg))
        assert m.auth_latency_ms == 40.0

    def test_replay_session_production_rejected(self):
        cfg = CampaignConfig(sessions=1, adv_ratio=1.0, group_id="p256", rng_seed=3)
        env = build_env(cfg)
        m = run_session(cfg, "replay", _spawn_rng(4, "z"), env)
        assert not m.accepted
        assert m.key_establish_ms is None

    def test_honest_row_when_keys_disagree(self, skewed_twin_keys):
        # both parties establish a key, but not the same one: the session is not accepted, and its
        # key time is its latency, as key_establish_ms follows "both established", not "keys agree"
        cfg = toy_config()
        m = run_session(cfg, HONEST, _spawn_rng(6, "skew"), build_env(cfg))
        assert (m.accepted, m.key_agreement) == (False, False)
        assert m.key_establish_ms == m.auth_latency_ms > 0

    def test_unknown_kind_is_named(self):
        cfg = toy_config()
        with pytest.raises(simulator.SimulationError, match="'eavesdrop'"):
            run_session(cfg, "eavesdrop", _spawn_rng(0, "x"), build_env(cfg))

    @pytest.mark.parametrize("name, kind", [
        ("attack_replay", "replay"),
        ("attack_impersonate_twin", "impersonate_twin"),
        ("attack_mitm_tamper", "mitm_tamper"),
        ("attack_kci", "kci_impersonate_physical"),
    ])
    def test_attack_looked_up_when_the_session_runs(self, monkeypatch, name, kind):
        # a traced run rebinds the attack_* names on this module after import; the rebound one must run
        cfg = toy_config()
        env = build_env(cfg)
        calls = []

        def wrapper(*args):
            calls.append(name)
            return attack(*args)

        attack = getattr(simulator, name)
        monkeypatch.setattr(simulator, name, wrapper)
        m = run_session(cfg, kind, _spawn_rng(2, kind), env)
        assert calls == [name] and m.kind == kind

    def test_op_counts_and_energy_proxy_for_honest_session(self):
        cfg = toy_config(latency_range_ms=(0.0, 0.0))
        m = run_session(cfg, HONEST, _spawn_rng(5, "ops"), build_env(cfg))
        assert m.ops_d.as_dict() == {"group_exp": 3, "group_mul": 1, "hash": 1}
        assert m.ops_p.as_dict() == {"group_exp": 4, "group_mul": 1, "hash": 2}
        totals = {
            "group_exp": m.ops_p.group_exp + m.ops_d.group_exp,
            "group_mul": m.ops_p.group_mul + m.ops_d.group_mul,
            "hash": m.ops_p.hash + m.ops_d.hash,
        }
        assert energy_proxy(totals, {"group_exp": 10, "group_mul": 1, "hash": 1}) == 75.0

    @pytest.mark.parametrize("group_id, per_kind", [("toy", 40), ("p256", 3)])
    def test_logical_op_counts_equal_group_calls(self, monkeypatch, group_id, per_kind):
        # the OpCounts tallies must match the work the group layer did
        cfg = CampaignConfig(sessions=1, group_id=group_id, rng_seed=9)
        env = build_env(cfg)
        calls = dict.fromkeys(OP_NAMES, 0)

        def counting(fn, op):
            def wrapper(*args):
                calls[op] += 1
                return fn(*args)

            return wrapper

        for cls in (ToyGroup, P256Group):
            monkeypatch.setattr(cls, "exp", counting(cls.exp, "group_exp"))
            monkeypatch.setattr(cls, "mul", counting(cls.mul, "group_mul"))
        for name in ("hash_to_scalar", "hash_h1_bytes"):
            monkeypatch.setattr(protocol, name, counting(getattr(protocol, name), "hash"))
        for kind in (HONEST, *KIND_ORDER):
            for i in range(per_kind):
                before = dict(calls)
                m = run_session(cfg, kind, _spawn_rng(i, kind), env)
                done = {op: calls[op] - before[op] for op in OP_NAMES}
                logical = {op: getattr(m.ops_p, op) + getattr(m.ops_d, op) for op in OP_NAMES}
                assert done == logical, (kind, i)

    def test_every_campaign_message_travels_through_pump(self, monkeypatch):
        # pump is wrapped where the simulator and the attacks look it up; a
        # party that receives a message outside it was driven by hand
        cfg = CampaignConfig(sessions=1, group_id="toy", rng_seed=13)
        env = build_env(cfg)
        depth, kind = 0, None
        inside, outside = set(), set()  # the kinds whose sessions received messages there

        def counting_pump(*args):
            nonlocal depth
            depth += 1
            try:
                return protocol.pump(*args)
            finally:
                depth -= 1

        def watching(receive):
            def wrapper(self, msg):
                (inside if depth else outside).add(kind)
                return receive(self, msg)

            return wrapper

        monkeypatch.setattr(simulator, "pump", counting_pump)
        monkeypatch.setattr(adversary, "pump", counting_pump)
        for cls in (protocol.EntitySession, protocol.TwinSession):
            monkeypatch.setattr(cls, "receive", watching(cls.receive))
        for kind in (HONEST, *KIND_ORDER):
            for i in range(20):
                run_session(cfg, kind, _spawn_rng(i, kind), env)
        assert outside == set()
        assert inside == {HONEST, *KIND_ORDER}


class TestEnergyProxy:
    def test_zero_ops(self):
        assert energy_proxy({"group_exp": 0, "group_mul": 0, "hash": 0}, {"group_exp": 10, "group_mul": 1, "hash": 1}) == 0.0

    def test_linear_in_weights(self):
        ops = {"group_exp": 7, "group_mul": 2, "hash": 3}
        w = {"group_exp": 10.0, "group_mul": 1.0, "hash": 1.0}
        doubled = {k: 2 * v for k, v in w.items()}
        assert energy_proxy(ops, doubled) == 2 * energy_proxy(ops, w)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            energy_proxy({"group_exp": 1}, {"group_exp": -1})
        with pytest.raises(ConfigError, match="energy_weights"):
            energy_proxy({"group_exp": 0}, {"group_exp": -1})


class TestCampaign:
    def test_deterministic_and_parallel_identical(self):
        cfg = toy_config(sessions=60)
        serial = run_campaign(cfg)
        again = run_campaign(cfg)
        assert serial.to_json() == again.to_json()
        assert serial.to_csv() == again.to_csv()

    def test_conservation_of_session_kinds(self):
        report = run_campaign(toy_config(sessions=80, adv_ratio=0.25))
        agg = report.aggregates
        assert agg["honest_count"] + agg["adversarial_count"] == 80
        assert sum(agg["kind_counts"][k] for k in KIND_ORDER) == agg["adversarial_count"]

    def test_honest_acceptance_is_total(self):
        report = run_campaign(toy_config(sessions=60))
        assert report.aggregates["honest_accept_rate"] == 1.0
        assert report.aggregates["key_agreement_rate"] == 1.0

    def test_far_null_without_adversaries(self):
        report = run_campaign(toy_config(sessions=20, adv_ratio=0.0))
        assert report.aggregates["far"] is None
        assert report.aggregates["honest_accept_rate"] == 1.0

    def test_far_recomputable_from_sessions(self):
        report = run_campaign(toy_config(sessions=110, adv_ratio=0.2, rng_seed=3))
        adversarial = [m for m in report.sessions if m.kind != HONEST]
        expected = sum(m.accepted for m in adversarial) / len(adversarial)
        assert expected == report.aggregates["far"]

    def test_virtual_latency_equals_sum_of_injected_delays(self):
        # with a fixed per-message delay, every latency is a multiple of it,
        # so virtual time contains no processing component
        report = run_campaign(toy_config(sessions=40, adv_ratio=0.2, latency_range_ms=(10.0, 10.0)))
        for m in report.sessions:
            assert m.auth_latency_ms % 10.0 == 0.0

    def test_aggregates_match_recomputation(self):
        report = run_campaign(toy_config(sessions=50, adv_ratio=0.1))
        assert report.aggregates == compute_aggregates(report.sessions, report.config.energy_weights)

    def test_registry_is_initialization_only(self, monkeypatch):
        # the authority registers exactly once, before the session loop
        calls = []
        original = registration.Registry.register

        def counting(self, pk_p, pk_d, t):
            calls.append(t)
            return original(self, pk_p, pk_d, t)

        monkeypatch.setattr(registration.Registry, "register", counting)
        run_campaign(toy_config(sessions=30, adv_ratio=0.3))
        assert len(calls) == 1

    def test_far_arithmetic(self):
        ops = OpCounts()
        sessions = [
            SessionMetrics(i, "replay", accepted=(i == 0), auth_latency_ms=1.0,
                           key_establish_ms=None, ops_p=ops, ops_d=ops)
            for i in range(100)
        ]
        agg = compute_aggregates(sessions, {"group_exp": 10, "group_mul": 1, "hash": 1})
        assert agg["far"] == 0.01


_op_counts = st.builds(OpCounts, *[st.integers(0, 10**12)] * len(OP_NAMES))
# report rows of every shape: null latencies and agreement, details with
# quotes, backslashes, newlines, format characters and non-ASCII text
_rows = st.builds(
    SessionMetrics,
    index=st.integers(0, 10**9),
    kind=st.sampled_from((HONEST, *KIND_ORDER)),
    accepted=st.booleans(),
    auth_latency_ms=st.floats() | st.integers(0, 10**6),
    key_establish_ms=st.none() | st.floats(),
    ops_p=_op_counts,
    ops_d=_op_counts,
    key_agreement=st.none() | st.booleans(),
    detail=st.text(st.sampled_from('"\\\n\r\t%s{}:,é雙\u2028\x00') | st.characters()),
)


def _csv_module_report(report):
    """The report's CSV as csv.writer writes it, cell by cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["index", "kind", "accepted", "auth_latency_ms", "key_establish_ms"]
        + [f"{party}_{op}" for party in "pd" for op in OP_NAMES]
    )
    for m in report.sessions:
        writer.writerow(
            [
                m.index,
                m.kind,
                str(m.accepted).lower(),
                repr(m.auth_latency_ms),
                "" if m.key_establish_ms is None else repr(m.key_establish_ms),
                *(getattr(m.ops_p, op) for op in OP_NAMES), *(getattr(m.ops_d, op) for op in OP_NAMES),
            ]
        )
    return buf.getvalue()


def _reference_aggregates(metrics, weights):
    """The aggregates computed kind by kind, one list comprehension each."""
    honest = [m for m in metrics if m.kind == HONEST]
    counts, accepted = {}, {}
    for kind in (HONEST, *KIND_ORDER):
        of_kind = [m for m in metrics if m.kind == kind]
        counts[kind] = len(of_kind)
        accepted[kind] = sum(m.accepted for m in of_kind)
    adversarial_count = sum(counts[kind] for kind in KIND_ORDER)
    adversarial_accepted = sum(accepted[kind] for kind in KIND_ORDER)
    latencies = [m.auth_latency_ms for m in metrics]
    key_times = [m.key_establish_ms for m in metrics if m.key_establish_ms is not None]
    all_ops = [ops for m in metrics for ops in (m.ops_p, m.ops_d)]
    op_totals = {op: sum(getattr(ops, op) for ops in all_ops) for op in OP_NAMES}
    return {
        "sessions": len(metrics),
        "honest_count": len(honest),
        "adversarial_count": adversarial_count,
        "kind_counts": counts,
        "kind_accepted": accepted,
        "honest_accept_rate": accepted[HONEST] / len(honest) if honest else None,
        "key_agreement_rate": sum(bool(m.key_agreement) for m in honest) / len(honest) if honest else None,
        "far": adversarial_accepted / adversarial_count if adversarial_count else None,
        "far_by_kind": {kind: accepted[kind] / counts[kind] if counts[kind] else None for kind in KIND_ORDER},
        "mean_auth_latency_ms": sum(latencies) / len(latencies) if latencies else None,
        "p95_auth_latency_ms": simulator._p95(latencies),
        "mean_key_establish_ms": sum(key_times) / len(key_times) if key_times else None,
        "op_totals": op_totals,
        "energy_proxy": energy_proxy(op_totals, weights),
    }


class TestReportSerialization:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_rows, max_size=4))
    def test_json_writer_matches_indented_dumps(self, rows):
        report = CampaignReport(toy_config(), rows, compute_aggregates(rows, DEFAULT_ENERGY_WEIGHTS))
        assert report.to_json() == json.dumps(report.to_dict(), indent=2) + "\n"

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_rows, max_size=6))
    def test_csv_writer_matches_csv_module(self, rows):
        report = CampaignReport(toy_config(), rows, {})
        assert report.to_csv() == _csv_module_report(report)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_rows, max_size=12))
    def test_aggregates_match_reference(self, rows):
        # as JSON text, so each float sum must match bit for bit and an int must stay an int
        got = compute_aggregates(rows, DEFAULT_ENERGY_WEIGHTS)
        want = _reference_aggregates(rows, DEFAULT_ENERGY_WEIGHTS)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        assert list(got) == list(want) and list(got["kind_counts"]) == list(want["kind_counts"])

    @pytest.mark.parametrize(
        "edit, named",
        [
            ({"auth_latency_ms": "x"}, "auth_latency_ms has the wrong type"),
            ({"auth_latency_ms": "x", "kind": "bogus"}, "auth_latency_ms has the wrong type"),
            ({"detail": None}, "detail has the wrong type"),
            ({"kind": "bogus"}, "kind 'bogus' is not a session kind"),
            ({"auth_latency_ms": -1.0}, "an op count is not an integer"),
            ({}, "an op count is not an integer"),
        ],
    )
    def test_faulty_row_names_its_first_fault(self, edit, named):
        # each row also holds a `true` op count: a field's type, then the kind,
        # then the op counts' types, then the values are checked
        row = SessionMetrics(0, HONEST, True, 1.0, 1.0, OpCounts(), OpCounts(), True).to_dict()
        row.update(edit)
        row["ops"]["d"]["hash"] = True
        with pytest.raises(TypeError, match=f"^session 0: {named}"):
            SessionMetrics.from_dict(row)

    def test_honest_key_time_is_its_auth_latency(self):
        # an honest session times both on one clock; a row whose times differ is refused by its index
        obj = run_campaign(toy_config(sessions=10, adv_ratio=0.0)).to_dict()
        CampaignReport.from_dict(obj)
        row = obj["sessions"][3]
        row["key_establish_ms"] = row["auth_latency_ms"] - 5
        with pytest.raises(ValueError, match="^session 3: key_establish_ms is neither null nor auth_latency_ms$"):
            CampaignReport.from_dict(obj)

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda obj: obj["aggregates"].update(far=0.5), "^aggregate mismatch: far$"),  # the run's FAR is 0.0
            (lambda obj: obj["aggregates"].update(honest_accept_rate="1.0"), "^aggregate mismatch: honest_accept_rate$"),
            (lambda obj: obj["aggregates"].pop("p95_auth_latency_ms"),
             "^aggregate mismatch: p95_auth_latency_ms missing from report$"),
            # the rows and aggregates are the campaign's; only the config's kind allocation is not
            (lambda obj: obj["config"].update(adv_ratio=0.2), "^kind_counts differ from what the config allocates: "),
        ],
        ids=["forged_far", "retyped_honest_accept_rate", "removed_metric", "config_allocates_other_kinds"],
    )
    def test_reader_checks_aggregates_and_allocation(self, edit, named):
        obj = run_campaign(toy_config()).to_dict()
        edit(obj)
        with pytest.raises(ValueError, match=named):
            CampaignReport.from_dict(obj)

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda obj: obj["aggregates"].update(bogus=1), "^unknown key 'bogus' in aggregates$"),
            (lambda obj: obj.update(extra={}), "^unknown key 'extra' in report$"),
            (lambda obj: obj["sessions"][3].update(note="x"), "^unknown key 'note' in session 3$"),
            (lambda obj: obj["sessions"][3]["ops"].update(q={}), "^unknown key 'q' in session 3 ops$"),
        ],
        ids=["extra_aggregate", "extra_block", "extra_row_field", "extra_ops_party"],
    )
    def test_reader_refuses_unknown_content(self, edit, named):
        # a reprint is rebuilt from what the reader knows, so it refuses what it does not rather than drop it
        obj = run_campaign(toy_config()).to_dict()
        CampaignReport.from_dict(obj)
        edit(obj)
        with pytest.raises(ValueError, match=named):
            CampaignReport.from_dict(obj)

    def test_reader_holds_the_recomputed_aggregates(self):
        # the stored aggregates, their keys reordered, still read back to the run's own report bytes
        report = run_campaign(toy_config())
        obj = json.loads(report.to_json())
        obj["aggregates"] = dict(reversed(obj["aggregates"].items()))
        assert CampaignReport.from_dict(obj).to_json() == report.to_json()

    def test_json_roundtrip_preserves_sessions(self):
        report = run_campaign(toy_config(sessions=25, adv_ratio=0.2))
        obj = json.loads(report.to_json())
        assert obj["aggregates"] == report.aggregates
        rebuilt = [SessionMetrics.from_dict(s) for s in obj["sessions"]]
        assert rebuilt == report.sessions

    def test_csv_shape(self):
        report = run_campaign(toy_config(sessions=10, adv_ratio=0.2))
        lines = report.to_csv().splitlines()
        assert lines[0].split(",") == [
            "index", "kind", "accepted", "auth_latency_ms", "key_establish_ms",
            "p_group_exp", "p_group_mul", "p_hash",
            "d_group_exp", "d_group_mul", "d_hash",
        ]
        assert len(lines) == 11

    def test_p95_is_nearest_rank(self):
        ops = OpCounts()
        sessions = [
            SessionMetrics(i, HONEST, True, float(i + 1), float(i + 1), ops, ops, True)
            for i in range(100)
        ]
        agg = compute_aggregates(sessions, {"group_exp": 10, "group_mul": 1, "hash": 1})
        assert agg["p95_auth_latency_ms"] == 95.0
