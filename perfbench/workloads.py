"""The four benchmark workloads.

Each workload makes its inputs from the seed (untimed), builds the program's
objects in ``setup`` (timed as set-up), runs one op at a time in ``op``, and
checks what the ops returned in ``check`` against references that do not
use glsim (``reference.py``) or against properties the method must have.

A run is a sequence of rounds.  A round is ``setups_per_round`` calls of
``setup``, the last of which the ops use, followed by ``ops_per_round`` ops;
its first op is the cold one.  Every round of a run
does the same work, so a run's figures do not depend on how many rounds fit
into it.
"""

from __future__ import annotations

import math

import numpy as np

import reference

# On-site term W cos(2 pi frac(k . (1597, 987) / 2584) + theta): quasi-periodic,
# lazy in the lattice size, and exact in integer arithmetic so the numpy
# reference sees the same potential as the row callables.
FIB_A, FIB_B, FIB_D = 1597, 987, 2584
W = 0.5


def _phase(x, y=0):
    return 2.0 * math.pi * ((x * FIB_A + y * FIB_B) % FIB_D) / FIB_D


def _op_seed(seed: int, rnd: int, k: int) -> int:
    return seed * 1_000_003 + rnd * 1_009 + k


def _unit_phases(rng, n: int) -> np.ndarray:
    """A unit vector of n equal magnitudes and random phases.

    The estimator draws indices with probability |v_i|^2, and the cost of
    sorting the draws depends on that law; equal magnitudes keep the work of
    an op the same for every seed.
    """
    return np.exp(2j * math.pi * rng.random(n)) / math.sqrt(n)


def _within(value, ref, tol, what, errors):
    if not abs(value - ref) <= tol:
        errors.append(f"{what}: {value} vs reference {ref} (tolerance {tol:.3g})")


class Workload:
    name = ""
    ops_per_round = 1
    setups_per_round = 1  # cheap set-ups are repeated so setup_s is a median of many
    ops_per_calibration = 1  # ops between two samples of the reference task (calibrate.py)
    reference_parts = ("python", "numpy")  # the kinds of work the ops do
    needs_count_pass = False  # the op builds its A inside glsim; count it after timing

    def __init__(self, glsim, seed: int):
        self.g = glsim
        self.seed = int(seed)

    @staticmethod
    def wrap_row(fn):
        """Identity; the traced run replaces it to time the benchmark's own row callables."""
        return fn

    def setup(self, reg, rnd: int):
        raise NotImplementedError

    def op(self, state, rnd: int, k: int):
        """One op; returns (payload for check, vector samples it used)."""
        raise NotImplementedError

    def check(self, state, payloads) -> tuple[list, list]:
        """(errors, info lines) for the payloads of the run's ops."""
        raise NotImplementedError


# =====================================================================
# estimate-chain
# =====================================================================


class EstimateChain(Workload):
    """evt_gl_estimate on a lazy 2^20-site chain: the light-cone kernel does the work."""

    name = "estimate-chain"
    ops_per_round = 2   # each op builds its own query oracle, so every op is cold
    setups_per_round = 10
    reference_parts = ("python",)  # the light-cone kernel; draws are a few percent of an op
    N = 2 ** 20
    TWIN_N = 2 ** 10
    T = 30.0            # exp_poly degree 103 at norm bound 2.5
    EPS_POLY = 1e-8
    EPS, DELTA = 0.05, 0.01
    PATCH = 16
    SIGMA = 3.0

    def __init__(self, glsim, seed):
        super().__init__(glsim, seed)
        rng = np.random.default_rng([seed, 1])
        self.theta = float(rng.uniform(0.0, 2.0 * math.pi))
        self.p0 = self.N // 2 + int(rng.integers(-4096, 4096))
        vals = _unit_phases(rng, self.PATCH)
        self.v_entries = {self.p0 + k: complex(vals[k]) for k in range(self.PATCH)}
        self.mu = self.p0 + (self.PATCH - 1) / 2.0 + float(rng.uniform(-2.0, 2.0))
        self.kmom = float(rng.uniform(0.0, math.pi))
        self.unorm = (2.0 * math.pi * self.SIGMA ** 2) ** -0.25

    def potential(self, i):
        return W * np.cos(_phase(i) + self.theta)

    def _rows(self, n: int, offset: int):
        theta = self.theta

        def row(i):
            out = [(i, W * math.cos(_phase(i + offset) + theta))]
            if i > 0:
                out.append((i - 1, 1.0))
            if i < n - 1:
                out.append((i + 1, 1.0))
            return out
        return row

    def u_entry(self, j, offset=0):
        d = j + offset - self.mu
        return self.unorm * math.exp(-d * d / (4.0 * self.SIGMA ** 2)) * complex(
            math.cos(self.kmom * (j + offset - self.p0)),
            math.sin(self.kmom * (j + offset - self.p0)))

    def _oracles(self, n, offset, row):
        g = self.g
        a = g.local_matrix_from_rows(g.chain(n), 1, row, norm_bound=2.0 + W, hermitian=True)
        u = g.VectorOracle(n, lambda j: self.u_entry(j, offset), norm=None)
        return a, u

    def setup(self, reg, rnd: int):
        g = self.g
        a, u = self._oracles(self.N, 0, self.wrap_row(self._rows(self.N, 0)))
        p = g.exp_poly(2.0 + W, self.T, self.EPS_POLY)
        v = g.sparse_vector_oracle(self.N, self.v_entries)
        reg.reset(A=a, u=u, v=v)
        return a, p, u, v

    def op(self, state, rnd, k):
        a, p, u, v = state
        rep = self.g.evt_gl_estimate(a, p, u, v, self.EPS, self.DELTA,
                                     seed=_op_seed(self.seed, rnd, k))
        return rep.value, rep.samples_used

    def check(self, state, payloads):
        _, p, _, _ = state
        errors, info = [], []
        lo = self.p0 - p.degree - 24
        hi = self.p0 + self.PATCH - 1 + p.degree + 24
        sites = np.arange(lo, hi + 1)
        u = np.array([self.u_entry(int(j)) for j in sites])
        exact = reference.evolve(reference.chain_hamiltonian(lo, hi, self.potential), u, self.T)
        ref = sum(np.conj(val) * exact[i - lo] for i, val in self.v_entries.items())
        for n, value in enumerate(payloads):
            _within(value, ref, self.EPS + 1e-6, f"estimate {n}", errors)
        # exact entries, and the same entries on a 2^10-site twin holding the same cone
        twin_shift = 400 - self.p0
        for i in (self.p0, self.p0 + 7, self.p0 + self.PATCH - 1):
            big = self._oracles(self.N, 0, self._rows(self.N, 0))
            small = self._oracles(self.TWIN_N, -twin_shift, self._rows(self.TWIN_N, -twin_shift))
            vb = self.g.entry_of_poly_apply(big[0], p, big[1], i)
            vs = self.g.entry_of_poly_apply(small[0], p, small[1], i + twin_shift)
            _within(vb, exact[i - lo], 1e-8 + self.EPS_POLY, f"entry {i}", errors)
            _twin(big, small, vb, vs, i, errors)
        info.append(f"twins: N={self.N} and N={self.TWIN_N}, 3 entries, "
                    f"exp_poly degree {p.degree}, reference value {ref:.6f}")
        return errors, info


def _twin(big, small, vb, vs, i, errors):
    cb = (big[0].cost.queries, big[1].cost.queries)
    cs = (small[0].cost.queries, small[1].cost.queries)
    if vb != vs or cb != cs:
        errors.append(f"N-twin at {i}: values {vb} / {vs}, A,u queries {cb} / {cs}")


# =====================================================================
# estimate-grid-fine
# =====================================================================


def _grid_rows(size: int, ox: int, oy: int, theta: float, factor: complex):
    """Rows of factor * (grid hopping + on-site term) on a size x size window at (ox, oy)."""

    def row(i):
        x, y = divmod(i, size)
        out = [(i, factor * W * math.cos(_phase(x + ox, y + oy) + theta))]
        if x > 0:
            out.append((i - size, factor))
        if y > 0:
            out.append((i - 1, factor))
        if y < size - 1:
            out.append((i + 1, factor))
        if x < size - 1:
            out.append((i + size, factor))
        return out
    return row


class EstimateGridFine(Workload):
    """evt_gl_estimate on a 1024 x 1024 grid, shallow polynomial, tight eps: draws dominate."""

    name = "estimate-grid-fine"
    ops_per_round = 2   # each op builds its own query oracle, so every op is cold
    setups_per_round = 10
    L = 1024
    TWIN_L = 32
    T = 0.45            # exp_poly degree 11 at norm bound 4.5
    EPS_POLY = 1e-8
    EPS, DELTA = 0.015, 0.01
    PATCH = 4
    SIGMA = 2.0

    def __init__(self, glsim, seed):
        super().__init__(glsim, seed)
        rng = np.random.default_rng([seed, 2])
        self.theta = float(rng.uniform(0.0, 2.0 * math.pi))
        self.cx = self.L // 2 + int(rng.integers(-256, 256))
        self.cy = self.L // 2 + int(rng.integers(-256, 256))
        vals = _unit_phases(rng, self.PATCH ** 2)
        self.v_cells = {(self.cx + a, self.cy + b): complex(vals[a * self.PATCH + b])
                        for a in range(self.PATCH) for b in range(self.PATCH)}
        self.mu = (self.cx + 1.5 + float(rng.uniform(-1, 1)), self.cy + 1.5 + float(rng.uniform(-1, 1)))
        self.kmom = (float(rng.uniform(0, math.pi)), float(rng.uniform(0, math.pi)))

    def potential(self, x, y):
        return W * np.cos(_phase(x, y) + self.theta)

    def u_cell(self, x, y):
        dx, dy = x - self.mu[0], y - self.mu[1]
        arg = self.kmom[0] * (x - self.cx) + self.kmom[1] * (y - self.cy)
        amp = math.exp(-(dx * dx + dy * dy) / (4.0 * self.SIGMA ** 2)) / math.sqrt(
            2.0 * math.pi * self.SIGMA ** 2)
        return amp * complex(math.cos(arg), math.sin(arg))

    def _oracles(self, size, ox, oy, row):
        g = self.g
        a = g.local_matrix_from_rows(g.grid((size, size)), 1, row, norm_bound=4.0 + W,
                                     hermitian=True)
        u = g.VectorOracle(size * size,
                           lambda j: self.u_cell(j // size + ox, j % size + oy), norm=None)
        return a, u

    def setup(self, reg, rnd: int):
        g = self.g
        L = self.L
        a, u = self._oracles(L, 0, 0, self.wrap_row(_grid_rows(L, 0, 0, self.theta, 1.0)))
        p = g.exp_poly(4.0 + W, self.T, self.EPS_POLY)
        v = g.sparse_vector_oracle(L * L, {x * L + y: val for (x, y), val in self.v_cells.items()})
        reg.reset(A=a, u=u, v=v)
        return a, p, u, v

    op = EstimateChain.op

    def check(self, state, payloads):
        _, p, _, _ = state
        errors, info = [], []
        r = p.degree + 8
        x0, y0, side = self.cx - r, self.cy - r, self.PATCH + 2 * r
        a, b = np.divmod(np.arange(side * side), side)
        u = np.array([self.u_cell(int(x0 + s), int(y0 + t)) for s, t in zip(a, b)])
        h = reference.grid_hamiltonian(x0, y0, side, self.potential)
        exact = reference.evolve(h, u, self.T)

        def at(x, y):
            return exact[(x - x0) * side + (y - y0)]

        ref = sum(np.conj(val) * at(x, y) for (x, y), val in self.v_cells.items())
        for n, value in enumerate(payloads):
            _within(value, ref, self.EPS + 1e-6, f"estimate {n}", errors)
        half = self.TWIN_L // 2
        ox, oy = self.cx - half, self.cy - half
        for (x, y) in ((self.cx, self.cy), (self.cx + 3, self.cy + 3), (self.cx + 1, self.cy + 2)):
            big = self._oracles(self.L, 0, 0, _grid_rows(self.L, 0, 0, self.theta, 1.0))
            small = self._oracles(self.TWIN_L, ox, oy,
                                  _grid_rows(self.TWIN_L, ox, oy, self.theta, 1.0))
            vb = self.g.entry_of_poly_apply(big[0], p, big[1], x * self.L + y)
            vs = self.g.entry_of_poly_apply(small[0], p, small[1],
                                            (x - ox) * self.TWIN_L + (y - oy))
            _within(vb, at(x, y), 1e-8 + self.EPS_POLY, f"entry ({x},{y})", errors)
            _twin(big, small, vb, vs, (x, y), errors)
        info.append(f"twins: N={self.L ** 2} and N={self.TWIN_L ** 2}, 3 entries, "
                    f"exp_poly degree {p.degree}, reference value {ref:.6f}")
        return errors, info


# =====================================================================
# sample-grid
# =====================================================================


class SampleGrid(Workload):
    """1000 draws from one EvolvedSampler on a 1024 x 1024 grid: oversampler and rejection loop."""

    name = "sample-grid"
    ops_per_round = 500
    setups_per_round = 10
    ops_per_calibration = 100  # a draw takes about 1 ms, the reference task about 20 ms
    reference_parts = ("python",)  # the rejection loop is Python-bound
    L = 1024
    T = 1.6             # exp_poly degree 10 at norm bound 4.5, eps 0.05
    EPS, ALPHA_MIN, DELTA = 0.05, 0.9, 0.01

    def __init__(self, glsim, seed):
        super().__init__(glsim, seed)
        rng = np.random.default_rng([seed, 3])
        self.theta = float(rng.uniform(0.0, 2.0 * math.pi))
        self.cx = self.L // 2 + int(rng.integers(-256, 256))
        self.cy = self.L // 2 + int(rng.integers(-256, 256))

    def potential(self, x, y):
        return W * np.cos(_phase(x, y) + self.theta)

    def setup(self, reg, rnd: int):
        g = self.g
        L = self.L
        row = self.wrap_row(_grid_rows(L, 0, 0, self.theta, 1j))
        a = g.local_matrix_from_rows(g.grid((L, L)), 1, row, norm_bound=4.0 + W,
                                     anti_hermitian=True)
        psi = g.sparse_vector_oracle(L * L, {self.cx * L + self.cy: 1.0})
        sampler = g.EvolvedSampler(a, self.T, psi, self.EPS, self.ALPHA_MIN, self.DELTA,
                                   seed=_op_seed(self.seed, rnd, 0))
        reg.reset(A=a, psi=psi)
        return sampler

    def op(self, sampler, rnd, k):
        res = sampler.draw(k)
        return (res.site, res.accepted, res.trials), res.trials

    def check(self, sampler, payloads):
        errors, info = [], []
        draws = payloads   # each round's sampler has its own seed: all draws are independent
        d, L = sampler.poly.degree, self.L
        n = len(draws)
        if not all(acc for _, acc, _ in draws):
            errors.append(f"{sum(not acc for _, acc, _ in draws)} draws not accepted")
        dist = np.array([abs(s // L - self.cx) + abs(s % L - self.cy)
                         for s, acc, _ in draws if acc])
        if dist.size and dist.max() > d:
            errors.append(f"accepted sample at distance {dist.max()} > d r0 = {d}")
        # exact evolved law on a window around the start site
        r = d + 10
        x0, y0, side = self.cx - r, self.cy - r, 2 * r + 1
        psi = np.zeros(side * side, dtype=complex)
        psi[r * side + r] = 1.0
        exact = reference.evolve(reference.grid_hamiltonian(x0, y0, side, self.potential),
                                 psi, self.T)
        q = np.abs(exact) ** 2
        q /= q.sum()
        a, b = np.divmod(np.arange(side * side), side)
        f = np.minimum((np.abs(a - r) + np.abs(b - r)) ** 2, d * d).astype(float)
        msd = float(np.mean(dist.astype(float) ** 2))
        # Hoeffding at failure probability 1e-9 plus the certified TV distance
        tol = d * d * (sampler.tv_bound + math.sqrt(math.log(2e9) / (2 * n)))
        _within(msd, float(f @ q), tol, "mean squared displacement", errors)
        # each trial accepts with probability ||P psi||^2 / phi, ||P psi|| within eps of 1
        trials = sum(t for _, _, t in draws)
        rate = n / trials
        lo = (1 - self.EPS) ** 2 / sampler.phi * (1 - 6 / math.sqrt(n))
        hi = (1 + self.EPS) ** 2 / sampler.phi * (1 + 6 / math.sqrt(n))
        if not lo <= rate <= hi:
            errors.append(f"acceptance rate {rate:.3g} outside [{lo:.3g}, {hi:.3g}]")
        for (x, y) in ((self.cx, self.cy), (self.cx + 1, self.cy), (self.cx + 2, self.cy - 1)):
            w = sampler.w.query(x * L + y)
            _within(w, exact[(x - x0) * side + (y - y0)], 1e-8 + self.EPS,
                    f"entry ({x},{y})", errors)
        info.append(f"sampler: degree {d}, phi {sampler.phi:g}, tv_bound {sampler.tv_bound:.4f}, "
                    f"mean trials {trials / n:.1f}, msd {msd:.3f} vs exact {float(f @ q):.3f}")
        return errors, info


# =====================================================================
# wave-grid
# =====================================================================


class WaveGrid(Workload):
    """Wave equation on a 256 x 256 grid through oscillators: O(N) set-up, O(N) per op."""

    name = "wave-grid"
    ops_per_round = 3
    needs_count_pass = True
    L = 256
    SIGMA = 2.0
    TIMES = (0.5, 1.0, 1.5)
    EPS, DELTA = 0.1, 0.01

    def __init__(self, glsim, seed):
        super().__init__(glsim, seed)
        rng = np.random.default_rng([seed, 4])
        L = self.L
        self.cx = L // 2 + int(rng.integers(-40, 40))
        self.cy = L // 2 + int(rng.integers(-40, 40))
        a, b = np.divmod(np.arange(L * L), L)
        self.x0 = np.exp(-((a - self.cx) ** 2 + (b - self.cy) ** 2) / (2 * self.SIGMA ** 2))
        self.xdot0 = np.zeros(L * L)
        w = rng.choice((-0.5, 0.5), size=4)
        self.v_cells = {(self.cx + k - 1, self.cy + 3): float(w[k]) for k in range(4)}
        self.mass_cells = [(self.cx + dx, self.cy + dy) for dx in range(0, 7)
                           for dy in range(-6, 7) if dx + abs(dy) <= 6]
        cells = set(self.mass_cells)
        self.spring_cells = [(c, (c[0] + ex, c[1] + ey)) for c in self.mass_cells
                             for ex, ey in ((1, 0), (0, 1)) if (c[0] + ex, c[1] + ey) in cells]

    def setup(self, reg, rnd: int):
        g = self.g
        L = self.L
        lap = g.graph_laplacian_oracle(g.grid((L, L)))
        system = g.wave_to_oscillators(lap, 1.0, 1.0)
        state = g.OscillatorState(x=self.x0, xdot=self.xdot0)
        v = g.sparse_vector_oracle(system.extended_dim,
                                   {x * L + y: w for (x, y), w in self.v_cells.items()})
        masses = [x * L + y for x, y in self.mass_cells]
        springs = [(p[0] * L + p[1], q[0] * L + q[1]) for p, q in self.spring_cells]
        reg.reset(v=v)
        return system, state, v, masses, springs

    def op(self, state, rnd, k):
        system, st, v, masses, springs = state
        t = self.TIMES[k]
        seed = _op_seed(self.seed, rnd, k)
        obs = self.g.estimate_observable(system, st, v, t, self.EPS, self.DELTA, seed=seed)
        en = self.g.estimate_energy(system, st, masses, springs, t, self.EPS, self.DELTA,
                                    seed=seed)
        return (t, obs.value, en.value), obs.samples_used + en.samples_used

    def check(self, state, payloads):
        errors, info = [], []
        r = 21
        x0, y0, side = self.cx - r, self.cy - r, 2 * r + 1
        a, b = np.divmod(np.arange(side * side), side)
        xw = self.x0.reshape(self.L, self.L)[x0:x0 + side, y0:y0 + side].ravel()
        xdw = self.xdot0.reshape(self.L, self.L)[x0:x0 + side, y0:y0 + side].ravel()

        def idx(x, y):
            return (x - x0) * side + (y - y0)

        def potential(x):
            xs = x.reshape(side, side)
            return 0.5 * (np.sum((xs[1:, :] - xs[:-1, :]) ** 2)
                          + np.sum((xs[:, 1:] - xs[:, :-1]) ** 2))

        energy = 0.5 * float(xdw @ xdw) + potential(xw)
        refs = {}
        for t, (x, xdot) in zip(self.TIMES, reference.wave(reference.grid_laplacian(side),
                                                           xw, xdw, self.TIMES)):
            obs = sum(w * xdot[idx(cx, cy)] for (cx, cy), w in self.v_cells.items())
            kin = 0.5 * sum(xdot[idx(cx, cy)] ** 2 for cx, cy in self.mass_cells)
            pot = 0.5 * sum((x[idx(*p)] - x[idx(*q)]) ** 2 for p, q in self.spring_cells)
            refs[t] = (obs / math.sqrt(2.0 * energy), (kin + pot) / energy)
        for n, (t, obs, en) in enumerate(payloads):
            _within(obs, refs[t][0], self.EPS + 1e-6, f"observable {n} (t={t})", errors)
            _within(en, refs[t][1], self.EPS + 1e-6, f"energy fraction {n} (t={t})", errors)
        info.append("window references: " + ", ".join(
            f"t={t}: observable {o:.4f}, energy fraction {e:.4f}" for t, (o, e) in refs.items()))
        return errors, info


WORKLOADS = {cls.name: cls for cls in (EstimateChain, EstimateGridFine, SampleGrid, WaveGrid)}
