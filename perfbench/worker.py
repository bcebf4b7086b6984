"""One benchmark process for one workload: cold set-up, then (in measure
mode) the timed session loop with its correctness checks. run.py starts
it in a fresh interpreter, so the group layer's caches start cold, and
reads the JSON object it prints as its last line.

    PYTHONPATH=src python3 perfbench/worker.py --workload fleet_p256 --seed 1 --mode setup
    PYTHONPATH=src python3 perfbench/worker.py --workload fleet_p256 --seed 1 --mode measure \\
        --seconds 32 [--trace]

The loop is closed with one client: serial, in this process, with no
threads of its own. It reaches przkbind only through its public names.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import time
from collections import deque
from pathlib import Path

import stats
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import przkbind  # noqa: E402  (the checkout's src/ comes first on PYTHONPATH)
from przkbind import cli, identity, protocol, registration, simulator  # noqa: E402

clock = time.perf_counter

BINDING_TIME = 1_700_000_000
MIN_HANDSHAKES = stats.min_samples("99")

# Per-layer spans reported from the traced run: (span name, which time).
# "self" subtracts child spans; "busy" is the whole call.
LAYER_SPANS = (
    ("groups.exp_generator", "busy"),
    ("groups.exp_long_lived", "busy"),
    ("groups.exp_fresh_base", "busy"),
    ("groups.mul", "busy"),
    ("groups.encode", "busy"),
    ("groups.decode", "busy"),
    ("groups.hash", "busy"),
    ("protocol.session_new", "busy"),
    ("protocol.receive", "self"),
    ("protocol.receive_bytes", "self"),
    ("protocol.wire_encode", "busy"),
    ("protocol.wire_decode", "busy"),
    ("registration.verify_record", "busy"),
    ("registration.register", "busy"),
    ("identity.derive_entity_keys", "busy"),
    ("identity.twin_keygen", "busy"),
    ("adversary.replay", "self"),
    ("adversary.impersonate_twin", "self"),
    ("adversary.mitm_tamper", "self"),
    ("adversary.kci_impersonate_physical", "self"),
    ("simulator.build_env", "busy"),
    ("simulator.run_session", "self"),
    ("simulator.compute_aggregates", "busy"),
    ("simulator.to_json", "busy"),
    ("simulator.to_csv", "busy"),
    ("cli.report", "busy"),
)
EXP_SPANS = ("groups.exp_generator", "groups.exp_long_lived", "groups.exp_fresh_base")
SHARE_LAYERS = ("groups", "protocol", "registration", "adversary", "simulator", "bench")


def derive(*parts) -> int:
    """A 64-bit integer fixed by its parts: every input below comes from the seed this way."""
    digest = hashlib.sha256("/".join(map(str, parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def seeded_rng(*parts) -> random.Random:
    return random.Random(derive(*parts))


def campaign_config(w: Workload, seed: int, rnd: int) -> simulator.CampaignConfig:
    """Round rnd of a campaign workload: default latency and an equal four-kind mix."""
    return simulator.CampaignConfig(
        sessions=w.round_sessions,
        adv_ratio=w.adv_ratio,
        group_id=w.group_id,
        rng_seed=derive(w.name, seed, "round", rnd),
    )


def provision_fleet(w: Workload, seed: int):
    """Provision and register one binding per device, each with its own twin key."""
    group = przkbind.get_group(w.group_id)
    rng = seeded_rng(w.name, seed, "twin-keys")
    registry = registration.Registry(group)
    devices = []
    for i in range(w.devices):
        keys = identity.derive_entity_keys(identity.provision_identity(f"device/{seed}/{i}"), group)
        twin = identity.twin_keygen(group, rng)
        devices.append((keys, twin, registry.register(keys.pk_p, twin.pk_d, BINDING_TIME)))
    return group, devices


def setup(w: Workload, seed: int):
    """The workload's set-up; returns its wall time and what the loop needs
    (the fleet's group and devices; nothing for a campaign, which sets up
    again in every round)."""
    start = clock()
    if w.loop == "fleet":
        state = provision_fleet(w, seed)
    else:
        simulator.build_env(campaign_config(w, seed, 0))
        state = None
    return clock() - start, state


def handshake(group, keys, twin, record, parts):
    """One honest session; times commit() until both parties are terminal."""
    p = protocol.EntitySession(group, keys, record, seeded_rng(*parts, "p"))
    d = protocol.TwinSession(group, twin, record, seeded_rng(*parts, "d"))
    start = clock()
    queue = deque([(p, d.commit())])
    while queue:
        recipient, msg = queue.popleft()
        peer = d if recipient is p else p
        for reply in recipient.receive(msg):
            queue.append((peer, reply))
    return p, d, clock() - start


def keys_agree(p, d) -> bool:
    established = protocol.Phase.KEY_ESTABLISHED
    return (
        p.phase is established
        and d.phase is established
        and p.session_key.k_pd == d.session_key.k_pd
    )


def session_failures(report, group_id: str) -> dict:
    """Sessions of one campaign report that break a guarantee."""
    honest = false_accepts = 0
    for m in report.sessions:
        if m.kind == simulator.HONEST:
            honest += not (m.accepted and m.key_agreement is True)
        elif m.accepted and (group_id == "p256" or m.kind == "mitm_tamper"):
            # on the toy group the other kinds accept at about 1/q by design
            false_accepts += 1
    return {"honest_failures": honest, "false_acceptances": false_accepts}


class Run:
    """What one measuring process records."""

    def __init__(self, w: Workload, seed: int, tracer):
        self.w = w
        self.seed = seed
        self.tracer = tracer
        self.rates = []
        self.sessions = 0  # sessions in the timed windows that rates come from
        self.session_s = 0.0  # wall time of those windows
        self.handshake_ms = []
        self.build_env_s = []
        self.report_s = []
        self.reports = []
        self.attempted = 0
        self.failed = 0
        self.checks = {
            "honest_failures": 0,
            "false_acceptances": 0,
            "report_rejections": 0,
            "exceptions": 0,
        }
        self.errors = []
        self.exp_logical = 0
        self.rounds = 0
        self.loop_s = 0.0
        self.work = OUT / f"work-{w.name}-{seed}"

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def time_campaign_layers(self) -> None:
        """Time each honest session and each build_env that run_campaign
        runs, by replacing the names where run_campaign looks them up."""
        run_session, build_env = simulator.run_session, simulator.build_env

        def timed_session(config, kind, *args, **kwargs):
            start = clock()
            metrics = run_session(config, kind, *args, **kwargs)
            if kind == simulator.HONEST:
                self.handshake_ms.append((clock() - start) * 1e3)
            return metrics

        def timed_build_env(config):
            start = clock()
            env = build_env(config)
            self.build_env_s.append(clock() - start)
            return env

        simulator.run_session = timed_session
        simulator.build_env = timed_build_env

    def timed_window(self, sessions: int, elapsed: float) -> None:
        self.rates.append(sessions / elapsed)
        self.sessions += sessions
        self.session_s += elapsed

    def fail(self, sessions: int, check: str, count: int = 1, error: str = "") -> None:
        self.failed += sessions
        self.checks[check] += count
        if error and len(self.errors) < 10:
            self.errors.append(error)

    def timed_handshake(self, group, binding, parts):
        """One honest fleet handshake, timed and checked; None if it raised."""
        self.attempted += 1
        try:
            with self.span("bench.session"):
                p, d, elapsed = handshake(group, *binding, parts)
        except Exception as exc:  # a raising session is a failed session
            self.fail(1, "exceptions", error=f"handshake {parts}: {exc!r}")
            return None
        self.handshake_ms.append(elapsed * 1e3)
        ok = keys_agree(p, d)
        if not ok:
            self.fail(1, "honest_failures")
        return ok, p, d

    def check_report(self, report, rnd: int) -> bool:
        """Write the report, re-check it with `przkbind report`, time both;
        True if the re-check passed."""
        json_path, csv_path = self.work / "report.json", self.work / "report.csv"
        sink = io.StringIO()
        start = clock()
        text = report.to_json()
        json_path.write_text(text, encoding="utf-8")
        csv_path.write_text(report.to_csv(), encoding="utf-8")
        with self.span("cli.report"), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["report", "--in", str(json_path)])
        self.report_s.append(clock() - start)
        self.reports.append({
            "round": rnd,
            "rng_seed": report.config.rng_seed,
            "sessions": len(report.sessions),
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        })
        self.exp_logical += report.aggregates["op_totals"]["group_exp"]
        if code == 0:
            return True
        self.fail(0, "report_rejections", error=f"round {rnd}: exit {code}: {sink.getvalue().strip()}")
        return False

    def campaign_round(self, rnd: int) -> None:
        w = self.w
        config = campaign_config(w, self.seed, rnd)
        self.attempted += config.sessions
        try:
            start = clock()
            report = simulator.run_campaign(config)
            elapsed = clock() - start
        except Exception as exc:  # run_campaign raises when any session raises
            self.fail(config.sessions, "exceptions", error=f"round {rnd}: {exc!r}")
            return
        self.timed_window(config.sessions, elapsed)
        failures = session_failures(report, w.group_id)
        for check, count in failures.items():
            self.fail(0, check, count)
        # a rejected report fails every session in it
        self.failed += sum(failures.values()) if self.check_report(report, rnd) else config.sessions

    def fleet_round(self, rnd: int, group, devices) -> None:
        w = self.w
        picks = seeded_rng(w.name, self.seed, "picks", rnd)
        rows = []
        start = clock()
        for i in range(w.round_sessions):
            device = picks.randrange(len(devices))
            outcome = self.timed_handshake(group, devices[device], (w.name, self.seed, rnd, i))
            if outcome is None:
                continue
            ok, p, d = outcome
            rows.append(simulator.SessionMetrics(
                index=i, kind=simulator.HONEST, accepted=ok, auth_latency_ms=0.0,
                key_establish_ms=0.0 if ok else None, ops_p=p.ops, ops_d=d.ops,
                key_agreement=ok, detail=f"device={device}",
            ))
        self.timed_window(w.round_sessions, clock() - start)
        if not rows:
            return
        # The fleet's session log, in the campaign report format.
        config = simulator.CampaignConfig(
            sessions=len(rows), adv_ratio=0.0, latency_range_ms=(0.0, 0.0),
            group_id=w.group_id, rng_seed=derive(w.name, self.seed, "round", rnd),
        )
        report = simulator.CampaignReport(
            config, rows, simulator.compute_aggregates(rows, config.energy_weights)
        )
        if not self.check_report(report, rnd):
            self.failed += sum(m.accepted for m in rows)  # the rest are counted already

    def loop(self, seconds: float, state) -> None:
        """Rounds until the time is up, stopping where the loop's end comes
        nearest to it: one more round starts only if it is expected to end
        less than half a round past the time. While the p99 has too few
        samples, rounds go on up to a quarter past the time."""
        if self.w.loop == "fleet":
            group, devices = state
            one_round = functools.partial(self.fleet_round, group=group, devices=devices)
        else:
            one_round = self.campaign_round
            self.time_campaign_layers()
        begin = clock()
        deadline, limit = begin + seconds, begin + 1.25 * seconds
        rnd = 0
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            while True:
                one_round(rnd)
                rnd += 1
                now = clock()
                half = (now - begin) / rnd / 2
                if now + half > limit or (
                    now + half > deadline and len(self.handshake_ms) >= MIN_HANDSHAKES
                ):
                    break
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        self.loop_s = clock() - begin
        self.rounds = rnd

    def result(self) -> dict:
        hs = self.handshake_ms
        tail = stats.tail_percentile(len(hs))
        return {
            "rounds": self.rounds,
            "loop_s": self.loop_s,
            "sessions_per_s": self.sessions / self.session_s if self.session_s else None,
            "rates": self.rates,
            "build_env_share": sum(self.build_env_s) / self.session_s if self.session_s else None,
            "handshakes": len(hs),
            # p50 blocks (20) are shorter than a load level lasts, so their mean
            # weighs the levels by time; the median of the p99 blocks (1000)
            # leaves out a burst that falls in fewer than half of them
            "handshake_p50_ms": stats.block_percentile(hs, "50", statistics.fmean) if hs else None,
            "handshake_p99_ms": stats.block_percentile(hs, "99") if hs else None,
            "handshake_tail": {"pct": tail, "ms": stats.percentile(hs, tail) if tail else None},
            "report_s": statistics.fmean(self.report_s) if self.report_s else None,
            "reports": self.reports,
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": self.checks,
            "errors": self.errors,
            "exp_logical": self.exp_logical,
        }


def layer_metrics(summary: dict, primary: str, exp_logical: int, build_env_share: float) -> dict:
    """Per-layer figures from a trace summary, as name -> [value, unit]."""
    names = summary["names"]
    out = {}
    for span, kind in LAYER_SPANS:
        stat = names.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        out[f"{span}.calls"] = [stat["calls"], "count"]
        out[f"{span}.{kind}_s"] = [stat[f"{kind}_s"], "s"]
    session = summary["sessions"].get(primary, {"sessions": 0, "busy_s": 0.0, "names": {}})
    inside = session["names"]
    exp_calls = sum(inside.get(s, {}).get("calls", 0) for s in EXP_SPANS)
    exp_busy = sum(inside.get(s, {}).get("busy_s", 0.0) for s in EXP_SPANS)
    total = session["busy_s"]
    out["groups.exp_logical"] = [exp_logical, "count"]
    out["groups.exp_calls_per_logical_exp"] = [exp_calls / exp_logical if exp_logical else 0.0, "ratio"]
    out["session.count"] = [session["sessions"], "count"]
    out["session.busy_s"] = [total, "s"]
    out["session.share.groups_exp"] = [exp_busy / total if total else 0.0, "ratio"]
    for layer in SHARE_LAYERS:
        own = sum(s["self_s"] for name, s in inside.items() if name.split(".")[0] == layer)
        out[f"session.share.{layer}"] = [own / total if total else 0.0, "ratio"]
    out["simulator.build_env.loop_share"] = [build_env_share, "ratio"]
    out["trace.spans"] = [summary["spans"], "count"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(przkbind.__file__).resolve().parents:
        print(f"error: przkbind was imported from {przkbind.__file__}, not {src}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from instrument import instrument
        from tracer import Tracer

        tracer = Tracer()
        instrument(tracer)

    setup_s, state = setup(w, args.seed)
    out = {"setup_s": setup_s}
    if args.mode == "measure":
        run = Run(w, args.seed, tracer)
        run.loop(args.seconds, state)
        out.update(run.result())
        if tracer is not None:
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"trace-{w.name}.spans")
            primary = "bench.session" if w.loop == "fleet" else "simulator.run_session"
            summary = tracer.summarize(("simulator.run_session", "bench.session"))
            out["layers"] = layer_metrics(
                summary, primary, run.exp_logical, out["build_env_share"] or 0.0
            )
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
