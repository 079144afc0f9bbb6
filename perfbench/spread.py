"""Rerun workloads over consecutive seeds and print each metric's spread against its bound.

From the root of a checkout:

    python3 perfbench/spread.py --runs 10 --first-seed 1
    python3 perfbench/spread.py --workload sample-grid --runs 5 --trace 1

Runs are made one after another, each in its own process.  For every metric
the table gives the median and the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median, and
the bound from BENCHMARK.json; ``ok`` means the spread is under the bound.
The share of failed ops must be the same in every run.  Untraced runs also
get rows ``wall:<name>`` for the uncalibrated wall-clock timings each run
prints, to show what the calibration (``calibrate.py``) takes out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _wall(stdout: str) -> dict:
    """The uncalibrated timings from a run's ``wall, uncalibrated:`` line, if any."""
    for line in stdout.splitlines():
        if line.strip().startswith("wall, uncalibrated:"):
            fields = line.split(":", 1)[1].strip().rstrip(" s").split(", ")
            return {f"wall:{k}": {"value": float(v), "unit": "s"}
                    for k, v in (f.split() for f in fields)}
    return {}


def run_once(workload: str, seed: int, seconds, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["wall"] = _wall(proc.stdout)
    return res


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable); default all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    for workload in args.workload or names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.perf_counter()
            res = run_once(workload, seed, args.seconds, args.trace)
            results.append(res)
            print(f"{workload} seed {seed}: correct {res['correct']}, "
                  f"attempted {res['attempted']}, failed {res['failed']}, "
                  f"wall {time.perf_counter() - t0:.1f} s", flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {args.runs} runs, all correct "
              f"{all(r['correct'] for r in results)}, failed shares {shares}")
        print(f"  {'metric':<36} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        merged = [{**r["metrics"], **r["wall"]} for r in results]
        for name, first in merged[0].items():
            vals = [m[name]["value"] for m in merged]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else ("ok" if spread <= bound else "OVER")
            print(f"  {name:<36} {first['unit']:<6} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {spread:8.4f} {bound if bound is not None else '-':>6} "
                  f"{flag}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
