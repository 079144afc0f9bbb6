"""Run one glsim benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload estimate-chain --seed 1 --seconds 10 --trace 0

glsim is imported from ``src/`` of the same checkout; the run stops with a
nonzero exit code if it is not there.  The run is a closed loop: one caller,
one op at a time, BLAS pinned to one thread.  It repeats whole rounds (a
set-up, repeated where it is cheap, then the workload's ops) until
``--seconds`` have passed, and at least three rounds.  Then it checks every op's output against an exact
numpy reference or a property the method must have.

Timings are in reference seconds: each span is scaled by a fixed reference
task timed just before and after it (``calibrate.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced for
half the time, then installs the timing wrappers of ``tracing.py`` for the
other half, prints the per-layer metrics and writes every span to
``perfbench/out/``.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import Calibration  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_ROUNDS = 3

# end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "first_op_s": "s",
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "matrix_queries_per_op": "count",
    "vector_queries_per_op": "count",
    "vector_samples_per_op": "count",
}


def load_glsim():
    """Import glsim from this checkout's src/, never from an installed copy."""
    pkg = SRC / "glsim"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: glsim sources not found at {pkg}")
    sys.path.insert(0, str(SRC))
    import glsim
    if Path(glsim.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported glsim from {glsim.__file__}, not {pkg}")
    return glsim


class Rounds:
    """What a sequence of rounds measured.

    ``setup_s``, ``first_op_s`` and ``op_s`` are in reference seconds (see
    ``calibrate.py``); the ``wall_`` lists hold the same spans as measured.
    """

    def __init__(self, reference_parts):
        self.rounds = 0
        self.setup_s: list = []
        self.first_op_s: list = []
        self.op_s: list = []       # every completed op, first ones included
        self.wall_setup_s: list = []
        self.wall_first_op_s: list = []
        self.wall_op_s: list = []
        self.calibration = Calibration(reference_parts)
        self.payloads: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.matrix = 0
        self.vector = 0
        self.samples = 0
        self.state = None

    def close_block(self, before: float, spans: list) -> float:
        """Sample the reference task and record the spans since the last sample."""
        after = self.calibration.sample()
        f = self.calibration.scale(before, after)
        for kind, dt in spans:
            if kind == "setup":
                self.setup_s.append(dt * f)
                self.wall_setup_s.append(dt)
                continue
            self.op_s.append(dt * f)
            self.wall_op_s.append(dt)
            if kind == "first":
                self.first_op_s.append(dt * f)
                self.wall_first_op_s.append(dt)
        spans.clear()
        return after


def run_rounds(wl, reg, seconds: float, min_rounds: int, tracer=None,
               first_round: int = 0) -> Rounds:
    """Whole rounds until ``seconds`` have passed, the reference task between spans.

    The task runs before and after each round's set-ups, and around every
    block of ``wl.ops_per_calibration`` ops; the cold first op is a block of
    its own.
    """
    out = Rounds(wl.reference_parts)
    clock = time.perf_counter
    start = clock()
    rnd = first_round
    spans: list = []
    while out.rounds < min_rounds or clock() - start < seconds:
        if tracer is not None:
            tracer.phase, tracer.op = "setup", -1
        before = out.calibration.sample()
        for _ in range(wl.setups_per_round):
            # the last round's objects go before the next set-up, so no two coexist
            out.state = state = None
            reg.reset()
            gc.collect()
            t0 = clock()
            state = wl.setup(reg, rnd)
            spans.append(("setup", clock() - t0))
        out.state = state
        before = out.close_block(before, spans)
        m0, v0 = reg.counts()
        for k in range(wl.ops_per_round):
            if k > 0 and (k - 1) % wl.ops_per_calibration == 0:
                before = out.close_block(before, spans)
            if tracer is not None:
                tracer.phase, tracer.op = "op", out.attempted
            out.attempted += 1
            payload = None
            t0 = clock()
            try:
                payload, samples = wl.op(state, rnd, k)
            except Exception as exc:  # a failed op is counted and reported; the run goes on
                out.failed += 1
                out.errors.append(f"op {rnd}.{k} failed: "
                                  + "".join(traceback.format_exception_only(exc)).strip())
            dt = clock() - t0
            reg.end_op()
            if payload is None:
                continue
            spans.append(("first" if k == 0 else "op", dt))
            out.payloads.append(payload)
            out.samples += samples
        out.close_block(before, spans)
        m1, v1 = reg.counts()
        out.matrix += m1 - m0
        out.vector += v1 - v0
        out.rounds += 1
        rnd += 1
    if tracer is not None:
        tracer.phase, tracer.op = "setup", -1
    return out


def count_pass(glsim, wl, reg, state) -> tuple[float, float]:
    """Matrix and vector queries per op of one round's ops, with glsim's inner oracles captured.

    Runs after timing, for workloads whose ops build their oracles inside
    glsim, where the timed run cannot see their counters.
    """
    from tracing import Patcher, install_captures
    with Patcher(glsim) as patcher:
        install_captures(patcher, reg)
        m0, v0 = reg.counts()
        for k in range(wl.ops_per_round):
            wl.op(state, -1, k)
            reg.end_op()
        m1, v1 = reg.counts()
    return (m1 - m0) / wl.ops_per_round, (v1 - v0) / wl.ops_per_round


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def plain_run(glsim, wl, reg, seconds) -> tuple[dict, Rounds, list]:
    rounds = run_rounds(wl, reg, seconds, MIN_ROUNDS)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = max(len(rounds.op_s), 1)
    if wl.needs_count_pass:
        matrix, vector = count_pass(glsim, wl, reg, rounds.state)
    else:
        matrix, vector = rounds.matrix / ops, rounds.vector / ops
    values = {
        "setup_s": _median(rounds.setup_s),
        "first_op_s": _median(rounds.first_op_s),
        "op_s_p50": _median(rounds.op_s),
        "ops_per_s": len(rounds.op_s) / sum(rounds.op_s) if rounds.op_s else 0.0,
        "peak_rss_mb": peak_mb,
        "matrix_queries_per_op": matrix,
        "vector_queries_per_op": vector,
        "vector_samples_per_op": rounds.samples / ops,
    }
    info = [f"rounds {rounds.rounds}, set-ups {len(rounds.setup_s)}, ops {len(rounds.op_s)}",
            f"reference task: median {_median(rounds.calibration.times):.6g} s over "
            f"{len(rounds.calibration.times)} samples (reference host "
            f"{rounds.calibration.reference:g} s)",
            f"wall, uncalibrated: setup_s {_median(rounds.wall_setup_s):.6g}, "
            f"first_op_s {_median(rounds.wall_first_op_s):.6g}, "
            f"op_s_p50 {_median(rounds.wall_op_s):.6g} s"]
    if len(rounds.op_s) >= 1000:
        p99 = statistics.quantiles(rounds.op_s, n=100)[98]
        info.append(f"op_s_p99 {p99:.6g} s over {len(rounds.op_s)} ops")
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return metrics, rounds, info


def traced_run(glsim, wl, reg, seconds, seed) -> tuple[dict, Rounds, list]:
    from tracing import ROW_SOURCE, Patcher, Tracer, per_layer_metrics
    plain = run_rounds(wl, reg, seconds / 2.0, 1)
    plain.state = None
    tracer = Tracer(reg)
    with Patcher(glsim) as patcher:
        tracer.install(patcher)
        wl.wrap_row = lambda fn: tracer.wrap_callable(fn, ROW_SOURCE)
        try:
            traced = run_rounds(wl, reg, seconds / 2.0, 1, tracer,
                                first_round=plain.rounds)
        finally:
            del wl.wrap_row
    overhead = _median(traced.wall_op_s) - _median(plain.wall_op_s)
    metrics, dropped = per_layer_metrics(tracer, patcher.absent, max(len(traced.op_s), 1),
                                         len(traced.setup_s), traced.matrix, overhead)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{wl.name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": wl.name, "seed": seed, "metrics": metrics,
                   "absent_targets": patcher.absent, "absent_metrics": dropped,
                   **tracer.dump()}, fh)
    info = [f"traced rounds {traced.rounds}, ops {len(traced.op_s)}; "
            f"untraced ops {len(plain.op_s)}; spans written to {path.relative_to(HERE.parent)}"]
    if patcher.absent:
        info.append("absent targets: " + ", ".join(patcher.absent))
        info.append("absent metrics: " + ", ".join(dropped))
    # every op of both phases is checked
    merged = Rounds(wl.reference_parts)
    merged.state = traced.state
    merged.payloads = plain.payloads + traced.payloads
    for part in (plain, traced):
        merged.attempted += part.attempted
        merged.failed += part.failed
        merged.errors += part.errors
    return metrics, merged, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    glsim = load_glsim()
    from tracing import Registry
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload](glsim, args.seed)
    reg = Registry()
    if args.trace:
        metrics, rounds, info = traced_run(glsim, wl, reg, args.seconds, args.seed)
    else:
        metrics, rounds, info = plain_run(glsim, wl, reg, args.seconds)
    check_errors, check_info = wl.check(rounds.state, rounds.payloads)

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")
    for line in info + check_info:
        print(f"  {line}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {rounds.attempted}, failed {rounds.failed}")
    for e in rounds.errors:
        print(f"  {e}")
    for e in check_errors:
        print(f"  CHECK FAILED: {e}")
    print(json.dumps({"correct": not check_errors, "attempted": rounds.attempted,
                      "failed": rounds.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
