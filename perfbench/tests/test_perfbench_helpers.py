"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import stats
from instrument import EXP_FRESH_BASE, EXP_GENERATOR, EXP_LONG_LIVED, exp_path
from tracer import ARRAYS, Tracer

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent


# -- the percentile rule --------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, "50"), (99, "50"), (100, "90"), (199, "90"), (200, "95"),
     (999, "95"), (1000, "99"), (9999, "99"), (10000, "99.9"), (100000, "99.99")],
)
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.beyond(n, expected) >= stats.MIN_BEYOND


def test_min_samples_is_the_first_count_meeting_the_rule():
    assert stats.min_samples("99") == 1000
    assert stats.min_samples("50") == 20
    assert stats.tail_percentile(stats.min_samples("99") - 1) != "99"


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, "50") == 50
    assert stats.percentile(values, "99") == 99
    assert stats.percentile(values, "99.9") == 100
    assert stats.percentile([7.5], "50") == 7.5
    with pytest.raises(ValueError):
        stats.percentile([], "50")


def test_quartile_spread_is_share_of_median():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    assert stats.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)


# -- exp-path classification by base -------------------------------------------


@pytest.mark.parametrize("group_id", ["toy", "p256"])
def test_exp_path_by_base(group_id):
    from przkbind import get_group

    group = get_group(group_id)
    pk = group.exp(group.g, 5)
    fresh = group.exp(group.g, 7)
    assert exp_path(group, group.g, {pk}) == EXP_GENERATOR
    assert exp_path(group, pk, {pk}) == EXP_LONG_LIVED
    assert exp_path(group, fresh, {pk}) == EXP_FRESH_BASE
    assert exp_path(group, pk, set()) == EXP_FRESH_BASE
    assert exp_path(group, [1, 2], {pk}) == EXP_FRESH_BASE  # unhashable


def test_instrumented_p256_session_counts_each_exp_path():
    """One honest P-256 session does 4 generator, 2 long-lived and 1
    fresh-base exps, and the hashes protocol imported are traced too."""
    script = """
import json, random
from instrument import instrument
from tracer import Tracer
tracer = Tracer()
instrument(tracer)
from przkbind import (EntitySession, Registry, TwinSession, derive_entity_keys, get_group,
                      provision_identity, run_interactive_session, twin_keygen)
group = get_group("p256")
keys = derive_entity_keys(provision_identity(b"dev"), group)
twin = twin_keygen(group, random.Random(1))
record = Registry(group).register(keys.pk_p, twin.pk_d, 1)
with tracer.span("bench.session"):
    run_interactive_session(EntitySession(group, keys, record, random.Random(2)),
                            TwinSession(group, twin, record, random.Random(3)))
inside = tracer.summarize(["bench.session"])["sessions"]["bench.session"]["names"]
print(json.dumps({k: v["calls"] for k, v in inside.items()}))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PERFBENCH), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    calls = json.loads(proc.stdout.strip().splitlines()[-1])
    assert calls[EXP_GENERATOR] == 4
    assert calls[EXP_LONG_LIVED] == 2
    assert calls[EXP_FRESH_BASE] == 1
    # the challenge, one session key per party, one zeta per verify_record
    assert calls["groups.hash"] == 5
    assert calls["protocol.session_new"] == 2
    assert calls["registration.verify_record"] == 2


# -- self time ----------------------------------------------------------------------


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def nested_trace():
    """A[0,10] holds B[1,4] and C[5,9]; C holds D[6,8]; E[11,12] stands alone."""
    tracer = Tracer(clock=fake_clock([0, 1, 4, 5, 6, 8, 9, 10, 11, 12]))
    with tracer.span("A"):
        with tracer.span("B"):
            pass
        with tracer.span("C"):
            with tracer.span("D"):
                pass
    with tracer.span("E"):
        pass
    return tracer


def test_self_time_subtracts_direct_children_only():
    names = nested_trace().summarize()["names"]
    assert names["A"] == {"calls": 1, "busy_s": 10, "self_s": 3}
    assert names["B"] == {"calls": 1, "busy_s": 3, "self_s": 3}
    assert names["C"] == {"calls": 1, "busy_s": 4, "self_s": 2}
    assert names["D"] == {"calls": 1, "busy_s": 2, "self_s": 2}


def test_session_roots_collect_their_descendants():
    summary = nested_trace().summarize(["A", "C"])
    assert set(summary["sessions"]) == {"A"}  # C is inside A, so not a root
    session = summary["sessions"]["A"]
    assert session["sessions"] == 1
    assert session["busy_s"] == 10
    assert set(session["names"]) == {"A", "B", "C", "D"}
    assert sum(s["self_s"] for s in session["names"].values()) == session["busy_s"]


def test_wrapped_call_closes_its_span_when_it_raises():
    tracer = Tracer(clock=fake_clock([0, 2]))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "L.boom")()
    assert tracer.summarize()["names"]["L.boom"]["busy_s"] == 2
    assert tracer.wrap(boom, "L.boom").__name__ == "boom"


def test_dump_writes_header_then_raw_arrays(tmp_path):
    from array import array

    tracer = nested_trace()
    tracer.dump(tmp_path / "spans")
    with open(tmp_path / "spans", "rb") as fh:
        header = json.loads(fh.readline())
        assert header["names"] == tracer.names
        assert header["count"] == len(tracer) == 5
        for attr, code in header["arrays"]:
            values = array(code)
            values.fromfile(fh, header["count"])
            assert values == getattr(tracer, attr)
        assert fh.read() == b""
    assert [list(pair) for pair in ARRAYS] == header["arrays"]


# -- campaign timing ----------------------------------------------------------------


def test_campaign_round_times_each_honest_session(monkeypatch, tmp_path):
    import dataclasses

    import worker
    from przkbind import simulator

    # the hooks replace these module names; monkeypatch puts them back
    monkeypatch.setattr(simulator, "run_session", simulator.run_session)
    monkeypatch.setattr(simulator, "build_env", simulator.build_env)
    w = dataclasses.replace(worker.WORKLOADS["adversarial_toy"], round_sessions=40)
    run = worker.Run(w, 1, None)
    run.work = tmp_path
    run.time_campaign_layers()
    run.campaign_round(0)
    assert len(run.handshake_ms) == 20  # adv_ratio 0.5 of 40 sessions
    assert len(run.build_env_s) == 1
    assert run.sessions == 40 and run.session_s > sum(run.handshake_ms) / 1e3
    assert run.failed == 0 and not any(run.checks.values())
    assert len(run.report_s) == 1 and run.reports[0]["sessions"] == 40


# -- metric names ------------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    import run
    import worker

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    layers = worker.layer_metrics(nested_trace().summarize(), "A", 0, 0.0)
    layers.update({name: [0.0, "1/s"] for name in (
        "trace.sessions_per_s_untraced", "trace.sessions_per_s_traced",
        "trace.overhead_sessions_per_s")})
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: unit for name, (_, unit) in layers.items()
    }


def test_block_percentile_is_median_over_consecutive_blocks():
    calm = [1.0] * 990 + [2.0] * 10  # one block: p99 is 1.0, the 10 beyond read 2.0
    burst = [5.0] * 1000  # a block slowed from outside
    assert stats.block_percentile(calm, "99") == 1.0
    assert stats.block_percentile(calm * 2 + burst, "99") == 1.0
    assert stats.block_percentile(calm + burst, "99") == 3.0  # median of two blocks
    # the median needs blocks of only 20
    assert stats.block_percentile([5.0] * 80 + [1.0] * 120, "50") == 1.0
    # fewer samples than a block: one block over all of them
    assert stats.block_percentile([3.0, 1.0, 2.0], "50") == 2.0
    # 2999 samples make two p99 blocks, 0..1498 and 1499..2998; none is dropped
    assert stats.block_percentile(list(range(2999)), "99") == (1484 + 2983) / 2
    # combined by their mean: three p50 blocks of 20 at levels 1, 1 and 4
    assert stats.block_percentile([1.0] * 40 + [4.0] * 20, "50", statistics.fmean) == 2.0
