"""Cost counting and span tracing around glsim's public layer functions.

Three pieces, all installed from the benchmark's side; glsim itself is not
changed:

* ``Registry`` knows which oracles belong to the workload (the matrix ``A``
  and the vectors ``u``, ``v``, ``psi``) and sums their ``cost`` counters.
  Oracles that glsim builds inside a call (the oscillator ``A`` and
  ``psi0``) are added while an op runs, by capture hooks.
* ``Patcher`` replaces a public function or method by a wrapper and puts the
  original back afterwards.  A module-level function is replaced in every
  loaded ``glsim`` module that imported it.
* ``Tracer`` wraps every target in ``TARGETS`` with a timing wrapper.  Each
  call is a frame on a stack; on return its duration goes to its parent's
  child time, so self time is duration minus wrapped children.  Calls of
  targets marked hot (row fetches, entry queries, balls) are only aggregated;
  all other calls are also kept as spans (id, name, start, end, parent id, op
  id) and written out at the end.

The plain timed run installs none of this; only the benchmark's own oracles
are read there.
"""

from __future__ import annotations

import importlib
import sys
import time

MATRIX_ROLES = ("A",)
VECTOR_ROLES = ("u", "v", "psi")

# (module, attribute, hot).  The span name is "<module>.<attribute>".
TARGETS = (
    ("lattice", "SiteGraph.ball", True),
    ("lattice", "SiteGraph.distance", True),
    ("lattice", "SiteGraph.locality_function", False),
    ("lattice", "chain", False),
    ("lattice", "grid", False),
    ("access", "LocalMatrixOracle.row", True),
    ("access", "VectorOracle.query", True),
    ("access", "VectorOracle.norm", True),
    ("access", "VectorOracle.sample_many", False),
    ("access", "local_matrix_from_rows", False),
    ("access", "sparse_vector_oracle", False),
    ("access", "scale_matrix_oracle", False),
    ("polyapprox", "exp_poly", False),
    ("polyapprox", "parity_split", False),
    ("polyapprox", "mul_by_x", False),
    ("polyapprox", "divide_out_zero", False),
    ("lightcone", "entry_of_poly_apply", False),
    ("lightcone", "poly_apply_query_oracle", False),
    ("estimate", "inner_product_estimate", False),
    ("estimate", "evt_gl_estimate", False),
    ("sampling", "EvolvedSampler.__init__", False),
    ("sampling", "EvolvedSampler.draw", False),
    ("sampling", "lightcone_oversampler", False),
    ("sampling", "rejection_sample", False),
    ("sampling", "OversamplerHandle.draw_many", False),
    ("sampling", "OversamplerHandle.mass_query", True),
    ("oscillators", "build_system", False),
    ("oscillators", "total_energy", False),
    ("oscillators", "psi0", False),
    ("oscillators", "estimate_observable", False),
    ("oscillators", "estimate_energy", False),
    ("oscillators", "OscillatorSystem.a_oracle", False),
    ("oscillators", "OscillatorSystem.bdag_entry", True),
    ("oscillators", "OscillatorSystem.b_entry", True),
    ("pde", "graph_laplacian_oracle", False),
    ("pde", "wave_to_oscillators", False),
)

# oracles glsim builds inside an op, captured so their counters can be read
CAPTURES = (("oscillators", "OscillatorSystem.a_oracle", "A"),
            ("oscillators", "psi0", "psi"))


class Registry:
    """The workload's oracles by role, and the sum of their cost counters."""

    def __init__(self):
        self.roles: dict = {}       # id(oracle) -> role, for labelling query spans
        self._own: list = []        # (role, oracle) built by the workload's setup
        self._transient: list = []  # (role, oracle) captured during the current op
        self._folded = [0, 0]       # matrix, vector queries of finished transients

    def reset(self, **oracles):
        """Make these the workload's oracles (called by each round's setup)."""
        for _, obj in self._own:
            self.roles.pop(id(obj), None)
        self._own = list(oracles.items())
        for role, obj in self._own:
            self.roles[id(obj)] = role

    def add_transient(self, role: str, obj):
        self._transient.append((role, obj))
        self.roles[id(obj)] = role

    def end_op(self):
        """Fold the counters of oracles captured during the op and let them go."""
        m, v = _sum_costs(self._transient)
        self._folded[0] += m
        self._folded[1] += v
        for _, obj in self._transient:
            self.roles.pop(id(obj), None)
        self._transient = []

    def counts(self) -> tuple[int, int]:
        """(matrix queries, vector entry queries) so far."""
        m, v = _sum_costs(self._own + self._transient)
        return m + self._folded[0], v + self._folded[1]


def _sum_costs(pairs) -> tuple[int, int]:
    seen: set = set()
    m = v = 0
    for role, obj in pairs:
        cost = obj.cost
        if id(cost) in seen:
            continue
        seen.add(id(cost))
        if role in MATRIX_ROLES:
            m += cost.queries
        elif role in VECTOR_ROLES:
            v += cost.queries
    return m, v


class Patcher:
    """Replace glsim functions and methods by wrappers; restore them on exit."""

    def __init__(self, glsim):
        self.glsim = glsim
        self._undo: list = []
        self.absent: list = []

    def lookup(self, module: str, attr: str):
        """(owner, name, original) for module.attr, or None if it no longer exists."""
        mod = importlib.import_module(f"{self.glsim.__name__}.{module}")
        owner, name = mod, attr
        if "." in attr:
            cls_name, name = attr.split(".", 1)
            owner = getattr(mod, cls_name, None)
        original = owner.__dict__.get(name) if owner is not None else None
        if original is None:
            return None
        return owner, name, original

    def patch(self, module: str, attr: str, make):
        found = self.lookup(module, attr)
        if found is None:
            self.absent.append(f"{module}.{attr}")
            return
        owner, name, original = found
        wrapper = make(original)
        owners = [owner]
        if "." not in attr:
            prefix = self.glsim.__name__
            mods = [m for key, m in list(sys.modules.items())
                    if key == prefix or key.startswith(prefix + ".")]
            owners = [m for m in mods if m.__dict__.get(name) is original]
        for o in owners:
            self._undo.append((o, name, original))
            setattr(o, name, wrapper)

    def restore(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def install_captures(patcher: Patcher, registry: Registry):
    """Register the oracles glsim builds inside an op, so their counters are read."""
    for module, attr, role in CAPTURES:
        def make(fn, role=role):
            def capture(*args, **kwargs):
                out = fn(*args, **kwargs)
                registry.add_transient(role, out)
                return out
            return capture
        patcher.patch(module, attr, make)


class Tracer:
    """Timing wrappers on every target; spans in memory, aggregates per phase."""

    def __init__(self, registry: Registry):
        self.registry = registry
        self.stack: list = []     # open frames: [name, child time, recorded id]
        self.spans: list = []     # [id, name, start, end, parent id, op id]
        self.op = -1              # -1 during setup
        self.phase = "setup"      # "setup" or "op"
        self.agg = {"setup": {}, "op": {}}    # name -> [calls, total s, self s]
        self.edges = {"setup": {}, "op": {}}  # (parent, child) -> [calls, total s]
        self.notes = {"degree": 0, "phi": 0.0, "trials": 0, "accepted": 0, "draws": 0}
        self._next_id = 0

    def install(self, patcher: Patcher):
        hooks = self._hooks()
        for module, attr, hot in TARGETS:
            name = f"{module}.{attr}"
            pre, post = hooks.get(name, (None, None))
            labelled = name == "access.VectorOracle.query"
            patcher.patch(module, attr,
                          lambda fn, n=name, h=hot, a=pre, b=post, lb=labelled:
                          self._wrap(fn, n, h, a, b, lb))

    def _hooks(self):
        notes, reg = self.notes, self.registry

        def degree(args, kwargs, out):
            notes["degree"] = max(notes["degree"], out.degree)

        def phi(args, kwargs, out):
            notes["phi"] = args[0].phi

        def rejection(args, kwargs, out):
            notes["trials"] += out.trials
            notes["accepted"] += int(out.accepted)

        def label_w(args, kwargs):
            reg.add_transient("w", args[0] if args else kwargs["w"])

        def draws(args, kwargs, out):
            notes["draws"] += out.samples_used

        def capture(role):
            return lambda args, kwargs, out: reg.add_transient(role, out)

        hooks = {f"{module}.{attr}": (None, capture(role)) for module, attr, role in CAPTURES}
        hooks.update({
            "polyapprox.exp_poly": (None, degree),
            "sampling.EvolvedSampler.__init__": (None, phi),
            "sampling.rejection_sample": (None, rejection),
            "estimate.inner_product_estimate": (label_w, draws),
        })
        return hooks

    def wrap_callable(self, fn, name: str):
        """Hot wrapper for one of the benchmark's own callables (its row functions)."""
        return self._wrap(fn, name, True, None, None, False)

    def _wrap(self, fn, name, hot, pre, post, labelled):
        clock = time.perf_counter
        stack = self.stack
        roles = self.registry.roles
        tracer = self

        def traced(*args, **kwargs):
            nm = f"{name}[{roles.get(id(args[0]), 'internal')}]" if labelled else name
            if pre is not None:
                pre(args, kwargs)
            tracer._next_id += 1
            sid = tracer._next_id
            parent = stack[-1] if stack else None
            rec = sid if not hot else (parent[2] if parent else 0)
            frame = [nm, 0.0, rec]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                phase = tracer.phase
                agg = tracer.agg[phase]
                a = agg.get(nm)
                if a is None:
                    a = agg[nm] = [0, 0.0, 0.0]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                    edges = tracer.edges[phase]
                    key = (parent[0], nm)
                    e = edges.get(key)
                    if e is None:
                        e = edges[key] = [0, 0.0]
                    e[0] += 1
                    e[1] += dur
                if not hot:
                    tracer.spans.append([sid, nm, t0, t1, parent[2] if parent else 0,
                                         tracer.op])
            if post is not None:
                post(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def dump(self) -> dict:
        def table(d):
            return {k if isinstance(k, str) else " -> ".join(k): v for k, v in sorted(d.items())}
        return {"spans": self.spans,
                "aggregates": {ph: table(self.agg[ph]) for ph in self.agg},
                "edges": {ph: table(self.edges[ph]) for ph in self.edges},
                "notes": self.notes}


# Per-layer metrics: name -> (unit, the targets it reads).  Counts
# and times are per op over the traced ops, except where the name says per
# entry, and the two *_s setup metrics, which are per setup.
ENTRY = "lightcone.entry_of_poly_apply"
ROW = "access.LocalMatrixOracle.row"
QUERY = "access.VectorOracle.query"
IPE = "estimate.inner_product_estimate"
REJ = "sampling.rejection_sample"
MASS = "sampling.OversamplerHandle.mass_query"
BALL = "lattice.SiteGraph.ball"
SAMPLE_MANY = "access.VectorOracle.sample_many"
ROW_SOURCE = "bench.row_source"

PER_LAYER = {
    "lightcone.entries": ("count", (ENTRY,)),
    "lightcone.entry_s": ("s", (ENTRY,)),
    "lightcone.entry_self_s": ("s", (ENTRY, ROW)),
    "lightcone.matrix_queries_per_entry": ("count", (ENTRY,)),
    "lightcone.cone_support_per_entry": ("count", (ENTRY, QUERY)),
    "access.matrix_rows": ("count", (ROW,)),
    "access.row_s": ("s", (ROW,)),
    "access.row_source_s": ("s", (ROW,)),
    "access.vector_queries": ("count", (QUERY,)),
    "access.sample_many_s": ("s", (SAMPLE_MANY,)),
    "estimate.draws": ("count", (IPE,)),
    "estimate.distinct_indices": ("count", (IPE, QUERY)),
    "estimate.self_s": ("s", (IPE, QUERY)),
    "sampling.phi": ("ratio", ("sampling.EvolvedSampler.__init__",)),
    "sampling.trials_per_sample": ("count", (REJ,)),
    "sampling.acceptance_rate": ("ratio", (REJ,)),
    "sampling.mass_queries": ("count", (MASS,)),
    "sampling.mass_query_s": ("s", (MASS,)),
    "sampling.rejection_self_s": ("s", (REJ,)),
    "lattice.ball_calls": ("count", (BALL,)),
    "lattice.ball_s": ("s", (BALL,)),
    "lattice.locality_function_calls": ("count", ("lattice.SiteGraph.locality_function",)),
    "polyapprox.degree": ("count", ("polyapprox.exp_poly",)),
    "polyapprox.exp_poly_s": ("s", ("polyapprox.exp_poly",)),
    "polyapprox.parity_split_s": ("s", ("polyapprox.parity_split",)),
    "oscillators.build_system_s": ("s", ("oscillators.build_system",)),
    "oscillators.total_energy_calls": ("count", ("oscillators.total_energy",)),
    "oscillators.total_energy_s": ("s", ("oscillators.total_energy",)),
    "oscillators.entries_per_op": ("count", (ENTRY, "oscillators.estimate_observable",
                                          "oscillators.estimate_energy")),
    "oscillators.matrix_queries_per_op": ("count", ("oscillators.OscillatorSystem.a_oracle",)),
    "pde.wave_to_oscillators_s": ("s", ("pde.wave_to_oscillators",)),
    "trace.overhead_s": ("s", ()),
}


def per_layer_metrics(tracer: Tracer, absent, ops: int, setups: int,
                      matrix_queries: int, overhead_s: float) -> tuple[dict, list]:
    """Derive PER_LAYER from the traced phase; metrics reading an absent target are left out."""
    agg, setup_agg, edges = tracer.agg["op"], tracer.agg["setup"], tracer.edges["op"]
    notes = tracer.notes

    def calls(name, table=agg):
        return table.get(name, (0, 0.0, 0.0))[0]

    def total(name, table=agg):
        return table.get(name, (0, 0.0, 0.0))[1]

    def edge(parent, child_prefix, field):
        return sum(v[field] for (p, c), v in edges.items()
                   if p == parent and c.startswith(child_prefix))

    def labelled(roles):
        return sum(calls(f"{QUERY}[{r}]") for r in roles)

    def ratio(a, b):
        return a / b if b else 0.0

    entries = calls(ENTRY)
    oscillator_ops = calls("oscillators.estimate_observable") + calls("oscillators.estimate_energy")
    values = {
        "lightcone.entries": ratio(entries, ops),
        "lightcone.entry_s": ratio(total(ENTRY), entries),
        "lightcone.entry_self_s": ratio(total(ENTRY) - edge(ENTRY, ROW, 1), entries),
        "lightcone.matrix_queries_per_entry": ratio(matrix_queries, entries),
        "lightcone.cone_support_per_entry": ratio(edge(ENTRY, QUERY, 0), entries),
        "access.matrix_rows": ratio(calls(ROW), ops),
        "access.row_s": ratio(total(ROW), ops),
        "access.row_source_s": ratio(total(ROW_SOURCE), ops),
        "access.vector_queries": ratio(labelled(VECTOR_ROLES), ops),
        "access.sample_many_s": ratio(total(SAMPLE_MANY), ops),
        "estimate.draws": ratio(notes["draws"], ops),
        "estimate.distinct_indices": ratio(edge(IPE, f"{QUERY}[w]", 0), ops),
        "estimate.self_s": ratio(total(IPE) - edge(IPE, f"{QUERY}[w]", 1), ops),
        "sampling.phi": notes["phi"],
        "sampling.trials_per_sample": ratio(notes["trials"], notes["accepted"]),
        "sampling.acceptance_rate": ratio(notes["accepted"], notes["trials"]),
        "sampling.mass_queries": ratio(calls(MASS), ops),
        "sampling.mass_query_s": ratio(total(MASS), ops),
        "sampling.rejection_self_s": ratio(agg.get(REJ, (0, 0.0, 0.0))[2], ops),
        "lattice.ball_calls": ratio(calls(BALL), ops),
        "lattice.ball_s": ratio(total(BALL), ops),
        "lattice.locality_function_calls": ratio(calls("lattice.SiteGraph.locality_function"), ops),
        "polyapprox.degree": notes["degree"],
        "polyapprox.exp_poly_s": ratio(total("polyapprox.exp_poly"), ops),
        "polyapprox.parity_split_s": ratio(total("polyapprox.parity_split"), ops),
        "oscillators.build_system_s": ratio(total("oscillators.build_system", setup_agg), setups),
        "oscillators.total_energy_calls": ratio(calls("oscillators.total_energy"), ops),
        "oscillators.total_energy_s": ratio(total("oscillators.total_energy"), ops),
        "oscillators.entries_per_op": ratio(entries, ops) if oscillator_ops else 0.0,
        "oscillators.matrix_queries_per_op": ratio(matrix_queries, ops) if oscillator_ops else 0.0,
        "pde.wave_to_oscillators_s": ratio(total("pde.wave_to_oscillators", setup_agg), setups),
        "trace.overhead_s": overhead_s,
    }
    missing = set(absent)
    out, dropped = {}, []
    for name, (unit, reads) in PER_LAYER.items():
        if missing.intersection(reads):
            dropped.append(name)
        else:
            out[name] = {"value": values[name], "unit": unit}
    return out, dropped
