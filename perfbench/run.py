"""przkbind benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload campaign_p256 --seed 1 --seconds 32 --trace 0

Run from the root of a checkout. Every repetition runs in a freshly
started interpreter (worker.py), so the group layer's module-level caches
never carry over between set-ups, workloads or repeats.

--trace 0 prints the end-to-end metrics: one process times its cold
set-up and then runs the session loop for --seconds, and more fresh
processes, before and after it, time a cold set-up only; set-up is
reported as the median of them all. --trace 1 prints the per-layer metrics: one
untraced and one traced process each run the loop for half the time, and
the difference in sessions_per_s is the tracing overhead.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every correctness
check passed, 1 when one failed, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BUDGET_S = 170.0  # the whole run, set-up probes included
SETUP_PROBES = 9  # fresh processes that only time a cold set-up, spread before and after the loop

END_TO_END_UNITS = {
    "sessions_per_s": "1/s",
    "handshake_p50_ms": "ms",
    "handshake_p99_ms": "ms",
    "setup_s": "s",
    "report_s": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a measurement."""


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def spawn(args: list, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("time budget exhausted before " + " ".join(args))
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        raise BenchmarkError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"worker exited {proc.returncode}: {' '.join(args)}\n{proc.stderr.strip()}"
        )
    return json.loads(lines[-1])


def end_to_end(args, deadline: float) -> tuple:
    """Cold set-up probes, then the measuring process."""
    w = WORKLOADS[args.workload]
    common = ["--workload", w.name, "--seed", str(args.seed)]
    probe = [*common, "--mode", "setup"]
    probes = [spawn(probe, deadline) for _ in range(SETUP_PROBES // 2)]
    run = spawn([*common, "--mode", "measure", "--seconds", str(args.seconds)], deadline)
    probes += [spawn(probe, deadline) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setups = [p["setup_s"] for p in probes] + [run["setup_s"]]
    metrics = {
        "sessions_per_s": run["sessions_per_s"],
        "handshake_p50_ms": run["handshake_p50_ms"],
        "handshake_p99_ms": run["handshake_p99_ms"],
        "setup_s": statistics.median(setups),
        "report_s": run["report_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    metrics = {name: [value, END_TO_END_UNITS[name]] for name, value in metrics.items()}
    info = {
        "setup_samples_s": setups,
        "rounds": run["rounds"],
        "loop_s": run["loop_s"],
        "round_sessions_per_s": run["rates"],
        "build_env_share": run["build_env_share"],
        "handshakes": run["handshakes"],
        "handshake_tail": run["handshake_tail"],
        "reports": run["reports"],
        "checks": run["checks"],
        "errors": run["errors"],
    }
    return metrics, info, [run]


def per_layer(args, deadline: float) -> tuple:
    """An untraced and a traced measuring process, half the time each."""
    common = ["--workload", args.workload, "--seed", str(args.seed), "--mode", "measure",
              "--seconds", str(args.seconds / 2)]
    plain = spawn(common, deadline)
    traced = spawn([*common, "--trace"], deadline)
    metrics = dict(traced["layers"])
    overhead = traced["sessions_per_s"] - plain["sessions_per_s"]
    metrics["trace.sessions_per_s_untraced"] = [plain["sessions_per_s"], "1/s"]
    metrics["trace.sessions_per_s_traced"] = [traced["sessions_per_s"], "1/s"]
    metrics["trace.overhead_sessions_per_s"] = [overhead, "1/s"]
    info = {
        "spans_file": str((OUT / f"trace-{args.workload}.spans").relative_to(ROOT)),
        "checks": {"untraced": plain["checks"], "traced": traced["checks"]},
        "errors": plain["errors"] + traced["errors"],
        "reports": traced["reports"],
    }
    return metrics, info, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one przkbind benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "przkbind" / "__init__.py").is_file():
        print(f"error: no przkbind sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    try:
        metrics, info, runs = (per_layer if args.trace else end_to_end)(args, deadline)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and all(not any(r["checks"].values()) for r in runs)
    if attempted < 1 or any(value is None for value, _ in metrics.values()):
        print("error: a metric could not be measured", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "info": info,
    }
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    m = record["machine"]
    print(f"# przkbind benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: python {m['python']} ({m['implementation']}), nproc {m['nproc']}, "
          f"cpu {m['cpu']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>16.6g} {unit}")
    print(f"{'failed_frac':<40} {record['failed_frac']:>16.6g} ratio ({failed}/{attempted})")
    if not args.trace:
        tail = info["handshake_tail"]
        print(f"# handshakes: {info['handshakes']} samples; tail rule allows p{tail['pct']}")
    for entry in info["reports"][:3]:
        print(f"# report round {entry['round']}: sha256 {entry['sha256']}")
    for error in info["errors"]:
        print(f"# error: {error}")
    print(f"# full record: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
