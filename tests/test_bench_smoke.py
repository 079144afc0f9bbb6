"""Each benchmark workload, run traced for a moment, ends with a correct result.

perfbench/run.py prints its result as the last line of its output, and a traced
run reads glsim through the names in perfbench/tracing.py.  Each run works in
a temporary copy of perfbench/ beside a link to this checkout's src/, so the
spans it writes land outside the repository.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("estimate-chain", "estimate-grid-fine", "sample-grid", "wave-grid")
# perfbench/tracing.py still wraps these two methods, which left the library for
# tests/; a traced run names them as absent targets, and no metric reads them
STALE_TARGETS = {"oscillators.OscillatorSystem.bdag_entry",
                 "oscillators.OscillatorSystem.b_entry"}


def _refuse(literal):
    raise ValueError(f"the result holds {literal}, which is not JSON")


@pytest.fixture(scope="module")
def bench_root(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("bench")
    shutil.copytree(ROOT / "perfbench", root / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return root


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_traced_run_ends_with_a_correct_result(bench_root, workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", "1"],
        cwd=bench_root, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1], parse_constant=_refuse)
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] > 0 and result["metrics"]
    listed = {}
    for line in lines:
        key, sep, names = line.strip().partition(": ")
        if key in ("absent targets", "absent metrics") and sep:
            listed[key] = set(filter(None, names.split(", ")))
    assert listed.get("absent targets", set()) <= STALE_TARGETS
    assert not listed.get("absent metrics")
