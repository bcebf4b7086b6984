"""Check that the benchmark is steady: run one workload on several seeds
and print, for each end-to-end metric, the median and the distance between
the first and third quartile as a share of the median, next to the bound
BENCHMARK.json fixes for it.

    python3 perfbench/spread.py --workload fleet_p256 --seeds 1-10

Run from the root of a checkout. Runs are serial, each through run.py.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Quartile spread of the end-to-end metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'first-last' or a comma list")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)

    print(f"{'metric':<20}{'median':>14}{'spread':>10}{'bound':>8}{'spread/bound':>14}")
    for entry in bench["end_to_end"]:
        series = values[entry["name"]]
        spread = quartile_spread(series) if len(series) > 1 else float("nan")
        print(f"{entry['name']:<20}{statistics.median(series):>14.6g}{spread:>10.4f}"
              f"{entry['bound']:>8}{spread / entry['bound']:>14.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
