"""The benchmark's tracer reads glsim functions and methods by name; a metric
whose target is gone is silently left out of a traced run.  Each name it reads
must resolve."""

import types
from pathlib import Path

import glsim

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing() -> types.ModuleType:
    """perfbench/tracing.py, executed from its source; nothing is written beside it."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_target_the_per_layer_metrics_and_captures_read_resolves():
    tracing = _tracing()
    names = {target for _, targets in tracing.PER_LAYER.values() for target in targets
             if not target.startswith("bench.")}   # the benchmark's own row sources
    names |= {f"{module}.{attr}" for module, attr, _ in tracing.CAPTURES}
    assert {"access.LocalMatrixOracle.row", "lattice.SiteGraph.ball",
            "sampling.rejection_sample", "oscillators.psi0"} <= names
    lookup = tracing.Patcher(glsim).lookup
    assert [name for name in sorted(names) if lookup(*name.split(".", 1)) is None] == []
