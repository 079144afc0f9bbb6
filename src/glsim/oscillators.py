"""Coupled harmonic oscillators through the dilated-dynamics lens.

N masses m_i on a site graph, springs kappa_ij >= 0 between neighbors
(kappa_ii is a wall spring), equations of motion
m_i x''_i = sum_{j != i} kappa_ij (x_j - x_i) - kappa_ii x_i.

With F the stiffness matrix (f_ii = sum_j kappa_ij, f_ij = -kappa_ij) and
A = M^{-1/2} F M^{-1/2}, the dynamics embed into a unitary evolution of the
unit vector

    psi(t) = (1 / sqrt(2E)) ( sqrt(M) xdot(t) ; i B^T sqrt(M) x(t) )

on the extended space of N velocity slots plus N(N+1)/2 pair slots, where
B B^T = A and the generator is the Hermitian dilation H = [[0, B],[B^T, 0]].
Everything this module estimates reduces to polynomials of A applied through
the light-cone kernel, plus single sparse applications of B and B^T: the
identities B Psin(B^T B) B^T = A Psin(A) and Pcos(B^T B) B^T = B^T Pcos(A)
remove all extended-space polynomial work.

The springs are kept once, as one table sorted by (site, other site): row k
is a spring of stiffness kappas[k] > 0 seen from sites[k] towards others[k],
listed from both ends, or once for a wall spring (i, i).  Beside it sits one
column of pair slots, slots[k] = pair_index(min, max of the two sites).  A
site's row of B is a slice of the table; the columns of B are the table rows
with i <= j, which lie in slot order, so B^T is looked up by slot, and E and
psi(0) are array expressions over those rows.  The rows of A are one CSR
table derived from it when the system is built, and a block of them is a
gather of slices.

The degree of the exponential approximation obeys
d_exp <= c1 * |t| * sqrt(N(r0) kappa_max / m_min) + c2 * ln(1/eps) + c3
with c1 = e/2, c2 = log2(e) ~ 1.443, c3 = 6.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .access import (LocalityError, LocalMatrixOracle, PreconditionError,
                     VectorOracle, _sq_oracle)
from .estimate import EstimateReport, inner_product_estimate
from .lattice import SiteGraph
from .lightcone import cone_rows, row_dots
from .polyapprox import divide_out_zero, exp_poly, mul_by_x, parity_split

# =====================================================================
# pair-slot indexing: velocity block first, then (i,j) lexicographic, j >= i
# =====================================================================


def _pair_offset(i: int, n: int) -> int:
    return i * n - (i * (i - 1)) // 2


def pair_index(i: int, j: int, n: int) -> int:
    """Extended-space index of spring slot (i, j), 0 <= i <= j < n."""
    if not (0 <= i <= j < n):
        raise ValueError(f"bad pair ({i},{j}) for n={n}")
    return n + _pair_offset(i, n) + (j - i)


def extended_dimension(n: int) -> int:
    return n + (n * (n + 1)) // 2


# =====================================================================
# system construction
# =====================================================================


@dataclass
class OscillatorSystem:
    """Masses, the spring table (sites, others, kappas), and the derived local operators.

    The rows of A are kept as a second table, _a_rows, built with the system.
    """

    graph: SiteGraph
    masses: np.ndarray
    r0: int
    sites: np.ndarray
    others: np.ndarray
    kappas: np.ndarray

    def __post_init__(self):
        self._a_rows = self._a_table()   # set-up work, so no query pays for it

    @property
    def n_sites(self) -> int:
        return self.graph.n_sites

    @property
    def extended_dim(self) -> int:
        return extended_dimension(self.n_sites)

    @cached_property
    def _starts(self) -> np.ndarray:
        """Site i's springs are the table rows _starts[i]:_starts[i + 1]."""
        return np.searchsorted(self.sites, np.arange(self.n_sites + 1))

    @cached_property
    def slots(self) -> np.ndarray:
        """The pair slot of each table row: n + _pair_offset(min(i, j), n) + |i - j|."""
        n, i, j = self.n_sites, self.sites, self.others
        return n + _pair_offset(np.minimum(i, j), n) + np.abs(i - j)

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, kappa, slot) of every spring once, with i <= j: the columns of B, by slot."""
        once = self.sites <= self.others
        return self.sites[once], self.others[once], self.kappas[once], self.slots[once]

    @cached_property
    def a_norm_bound(self) -> float:
        """Upper bound on ||A|| = ||B||^2: 2 * N(r0) * kappa_max / m_min.

        Schur test on B: every row of B holds at most N(r0) spring entries
        (neighbors plus a possible self-spring) of size at most
        sqrt(kappa_max/m_min), and every column holds at most two, so
        ||B||^2 <= ||B||_1 ||B||_inf <= 2 N(r0) kappa_max / m_min.  The
        factor 2 is needed: on a 2D grid with uniform springs the diagonal
        of F alone reaches (N(r0) - 1) kappa.
        """
        return float(2.0 * self.graph.locality_function(self.r0)
                     * self.kappas.max(initial=0.0) / self.masses.min())

    @property
    def h_norm_bound(self) -> float:
        """Upper bound on ||H|| = sqrt(||A||)."""
        return math.sqrt(self.a_norm_bound)

    def _a_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows of A as one CSR table (indptr, cols, vals), columns increasing.

        Row i holds -kappa_ij / sqrt(m_i m_j) at each spring (i, j), j != i, and
        F_ii / m_i at (i, i) when site i has springs, F_ii summing the site's
        kappas one by one in increasing order of the other site.
        """
        i, j, kap, m = self.sites, self.others, self.kappas, self.masses
        starts = self._starts
        counts = np.diff(starts)
        diag = np.zeros(self.n_sites)
        for k in range(counts.max(initial=0)):   # a running sum, left to right
            more = np.flatnonzero(counts > k)
            diag[more] += kap[starts[more] + k]
        held = np.flatnonzero(counts)
        off = -kap / np.sqrt(m[i] * m[j])
        below, above = j < i, j > i
        rows = np.concatenate((i[below], held, i[above]))
        # a stable sort by row keeps each row's columns increasing: below, i, above
        order = np.argsort(rows, kind="stable")
        cols = np.concatenate((j[below], held, j[above]))[order]
        vals = np.concatenate((off[below], diag[held] / m[held], off[above]))[order]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=self.n_sites))))
        return indptr, cols, vals

    def a_oracle(self) -> LocalMatrixOracle:
        """A = M^{-1/2} F M^{-1/2} as a Hermitian PSD local-matrix oracle over _a_rows."""
        table_ptr, table_cols, table_vals = self._a_rows

        def source(sites):
            lo, counts = table_ptr[sites], table_ptr[sites + 1] - table_ptr[sites]
            indptr = np.concatenate(([0], np.cumsum(counts)))
            take = np.arange(indptr[-1]) + np.repeat(lo - indptr[:-1], counts)
            return indptr, table_cols[take], table_vals[take]

        return LocalMatrixOracle(self.graph, self.r0, source, norm_bound=self.a_norm_bound,
                                 hermitian=True, psd=True)

    # ---- sparse B and B^T applications -----------------------------------

    def slot_sites(self, slots) -> list:
        """The sites bdag_entry reads at these slots: the lower end of each one's
        spring, in slot order, then the upper ends (no sites for a slot without one)."""
        i, j, _, cols = self.pairs
        slots = np.asarray(slots, dtype=np.int64)
        if cols.size == 0:
            return []
        k = np.minimum(np.searchsorted(cols, slots), cols.size - 1)
        hit = k[cols[k] == slots]
        return np.concatenate((i[hit], j[hit])).tolist()

    def bdag_entry(self, slot: int, z_fn) -> complex:
        """(B^T z)_slot for a site-space functional z_fn; 0 at a slot with no spring."""
        i, j, kappas, slots = self.pairs
        k = int(np.searchsorted(slots, slot))
        if k == slots.size or slots[k] != slot:
            return 0.0 + 0.0j
        a, b, kap = int(i[k]), int(j[k]), kappas[k]
        if a == b:
            return math.sqrt(kap / self.masses[a]) * z_fn(a)
        return (math.sqrt(kap / self.masses[a]) * z_fn(a)
                - math.sqrt(kap / self.masses[b]) * z_fn(b))

    def b_entry(self, i: int, slot_fn) -> complex:
        """(B w)_i for a pair-space functional slot_fn(slot)."""
        lo, hi = self._starts[i], self._starts[i + 1]
        total = 0.0 + 0.0j
        for j, kap, slot in zip(self.others[lo:hi].tolist(), self.kappas[lo:hi].tolist(),
                                self.slots[lo:hi].tolist()):
            root = math.sqrt(kap / self.masses[i])
            if j >= i:
                total += root * slot_fn(slot)
            else:
                total -= root * slot_fn(slot)
        return total


def build_system(graph: SiteGraph, masses, springs, r0: int) -> OscillatorSystem:
    """Validate and assemble an oscillator system.

    springs may be a dict {(i, j): kappa} or an iterable of (i, j, kappa);
    orientation is normalized to i <= j, zero springs are dropped and an
    equal duplicate is kept once.
    """
    masses = np.asarray(masses, dtype=np.float64).ravel()
    if masses.size != graph.n_sites:
        raise ValueError(f"{masses.size} masses for {graph.n_sites} sites")
    if not np.all((masses > 0) & (masses < math.inf)):
        raise PreconditionError("all masses must be positive and finite")
    i, j, kap = _spring_columns(springs)
    dist = graph.distances(i, j)
    far = np.flatnonzero(dist > r0)
    if far.size:
        k = far[0]
        raise LocalityError(f"spring ({i[k]}, {j[k]}) spans distance {dist[k]} > r0 = {r0}")
    pair = i != j  # listed from both ends; a wall spring once
    sites, others = np.concatenate((i, j[pair])), np.concatenate((j, i[pair]))
    order = np.lexsort((others, sites))
    return OscillatorSystem(graph, masses, int(r0), sites=sites[order], others=others[order],
                            kappas=np.concatenate((kap, kap[pair]))[order])


def _spring_columns(springs):
    """(i, j, kappa) of build_system's nonzero springs, i <= j, sorted by (i, j),
    an equal duplicate kept once; its float copies of the input are freed on return."""
    if isinstance(springs, dict):
        springs = zip(*zip(*springs), springs.values())  # {(i, j): kappa} -> (i, j, kappa) rows
    if not isinstance(springs, np.ndarray):
        springs = list(springs) or np.zeros((0, 3))
    rows = np.asarray(springs).astype(np.float64)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError("springs must be (i, j, kappa) triples")
    bad = np.flatnonzero(~((rows[:, 2] >= 0) & (rows[:, 2] < math.inf)))
    if bad.size:
        raise PreconditionError(f"spring {rows[bad[0]].tolist()} needs a finite kappa >= 0")
    if not np.all(np.isfinite(rows[:, :2])):
        raise ValueError("spring sites must be finite")
    rows = rows[rows[:, 2] != 0.0]
    i, j = np.trunc(rows[:, 0]), np.trunc(rows[:, 1])
    i, j = np.minimum(i, j).astype(np.int64), np.maximum(i, j).astype(np.int64)
    # sorted by (i, j) alone: within a pair, equal springs dedupe to one
    # whatever their order, and unequal ones clash whatever their order
    order = np.lexsort((j, i))
    i, j, kap = i[order], j[order], rows[order, 2]
    same = (i[1:] == i[:-1]) & (j[1:] == j[:-1])
    fresh = np.ones(i.size, dtype=bool)
    fresh[1:] = ~same | (kap[1:] != kap[:-1])   # an equal duplicate is kept once
    i, j, kap = i[fresh], j[fresh], kap[fresh]
    clash = np.flatnonzero((i[1:] == i[:-1]) & (j[1:] == j[:-1]))
    if clash.size:
        raise PreconditionError(f"conflicting duplicate spring ({i[clash[0]]}, {j[clash[0]]})")
    return i, j, kap


@dataclass
class OscillatorState:
    """Positions and velocities at one instant."""

    x: np.ndarray
    xdot: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64).ravel()
        self.xdot = np.asarray(self.xdot, dtype=np.float64).ravel()
        if self.x.size != self.xdot.size:
            raise ValueError("x and xdot lengths differ")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.xdot))):
            raise ValueError("x and xdot must be finite")


def _energy(sys: OscillatorSystem, state: OscillatorState):
    """(E, slots, stretch): the energy, the pair slots of the springs i <= j,
    and B^T sqrt(M) x there.

    (B^T sqrt(M) x)_(i,j) is sqrt(kappa) (x_i - x_j), or sqrt(kappa) x_i at a wall spring.
    """
    if state.x.size != sys.n_sites:
        raise ValueError("state dimension does not match the system")
    i, j, kap, slots = sys.pairs
    x = state.x
    stretch = np.sqrt(kap) * (x[i] - np.where(i == j, 0.0, x[j]))
    e = (0.5 * float(np.sum(sys.masses * state.xdot ** 2))
         + 0.5 * float(np.sum(stretch ** 2)))
    return e, slots, stretch


def total_energy(sys: OscillatorSystem, state: OscillatorState) -> float:
    """E = 1/2 sum m xdot^2 + 1/2 sum kappa_ii x_i^2 + 1/2 sum_{j>i} kappa_ij (x_i - x_j)^2."""
    return _energy(sys, state)[0]


def _scaled_state(sys: OscillatorSystem, state: OscillatorState):
    """(s, s sqrt(M) xdot, s sqrt(M) x, slots, stretch) with s = 1/sqrt(2E), the
    scale of the unit embedding, and _energy's slots and stretch: one pass
    over the springs."""
    e, slots, stretch = _energy(sys, state)
    if e <= 0.0:
        raise PreconditionError("zero-energy rest state has no unit embedding")
    s = 1.0 / math.sqrt(2.0 * e)
    root_m = np.sqrt(sys.masses)
    return s, root_m * state.xdot * s, root_m * state.x * s, slots, stretch


def psi0(sys: OscillatorSystem, state: OscillatorState, *, _scaled=None) -> VectorOracle:
    """The unit vector (1/sqrt(2E)) (sqrt(M) xdot ; i B^T sqrt(M) x) with sq-access.

    _scaled is _scaled_state(sys, state), for a caller that has computed it already.
    """
    s, sv, _, slots, stretch = _scaled_state(sys, state) if _scaled is None else _scaled
    idx = np.concatenate((np.arange(sys.n_sites), slots))
    vals = np.concatenate((sv, 1j * (stretch * s)))
    nonzero = vals != 0
    idx, vals = idx[nonzero], vals[nonzero]   # increasing: velocities, then slots by (i, j)

    def query(i: int) -> complex:
        k = int(np.searchsorted(idx, i))
        return vals[k] if k < idx.size and idx[k] == i else 0.0 + 0.0j

    oracle = _sq_oracle(sys.extended_dim, idx, vals, query, 0.0, None)
    if abs(oracle.norm() - 1.0) > 1e-9:
        raise RuntimeError(f"psi0 norm {oracle.norm()} != 1")
    return oracle


# =====================================================================
# derived vectors
# =====================================================================


def _evolved_blocks(sys: OscillatorSystem, scaled, t: float, eps_poly: float):
    """Site-space blocks of P psi(0) for P = P_exp(H t) within eps_poly of e^{iHt},
    psi(0) given by its _scaled_state.

    Returns (a, pcos, psin, blocks): the A oracle, the parity split of P_exp
    on [-||H||, ||H||] into Pcos, Psin on [0, ||A||], and blocks(sites),
    which returns a per-site memo of (top_i, z_i) with
    top = Pcos(A) sv - A Psin(A) sx (the velocity block) and
    z = Psin(A) sv + Pcos(A) sx (the pair block is i B^T z).  The sites not
    yet in the memo are filled from one cone_rows pass over
    (Pcos, Psin, x Psin).
    """
    _, sv, sx, _, _ = scaled

    alpha_h = sys.h_norm_bound
    if alpha_h == 0.0:
        alpha_h = 1.0  # springless system: A = 0, any positive scale certifies
    pcos, psin = parity_split(exp_poly(alpha_h, t, eps_poly))
    x_psin = mul_by_x(psin)            # y * Psin(y), realizing A Psin(A)
    a = sys.a_oracle()
    memo: dict = {}

    def blocks(sites) -> dict:
        new = sorted(set(sites).difference(memo))
        for origins, (rcos, rsin, rxsin) in cone_rows(a, (pcos, psin, x_psin), new):
            dots = [row_dots(r, vec[r[1]]).tolist()
                    for r, vec in ((rcos, sv), (rxsin, sx), (rsin, sv), (rcos, sx))]
            for i, c_sv, xs_sx, s_sv, c_sx in zip(origins.tolist(), *dots):
                memo[i] = (c_sv - xs_sx, s_sv + c_sx)
        return memo

    return a, pcos, psin, blocks


# =====================================================================
# observable estimation: v^dag psi(t)
# =====================================================================


def estimate_observable(sys: OscillatorSystem, state0: OscillatorState,
                        v: VectorOracle, t: float, eps: float, delta: float,
                        seed: int) -> EstimateReport:
    """Estimate v^dag psi(t) within eps with probability >= 1 - delta.

    Error budget: eps/2 for the polynomial approximation of e^{iHt} and
    eps/2 for the statistical estimate, which in turn tolerates sampler
    error v.zeta <= eps/18.
    """
    if v.dimension != sys.extended_dim:
        raise PreconditionError("v must live on the extended index space")
    if v.zeta > eps / 18.0 + 1e-15:
        raise PreconditionError(f"v.zeta = {v.zeta} exceeds eps/18")
    _, _, _, blocks = _evolved_blocks(sys, _scaled_state(sys, state0), t, eps / 2.0)
    n = sys.n_sites

    def w_many(idxs: list) -> list:
        memo = blocks([i for i in idxs if i < n]
                      + sys.slot_sites([i for i in idxs if i >= n]))
        return [memo[i][0] if i < n else 1j * sys.bdag_entry(i, lambda k: memo[k][1])
                for i in idxs]

    w = VectorOracle(dimension=sys.extended_dim, query_fn=lambda i: w_many([i])[0],
                     norm=None, many_fn=w_many)
    return inner_product_estimate(w, v, eps / 2.0, delta, seed)


# =====================================================================
# energy estimation: psi(0)^dag P^dag V P psi(0)
# =====================================================================


def estimate_energy(sys: OscillatorSystem, state0: OscillatorState,
                    mass_subset, spring_subset, t: float, eps: float,
                    delta: float, seed: int) -> EstimateReport:
    """Estimate (K_V(t) + U_X(t)) / E within eps with probability >= 1 - delta.

    mass_subset: sites whose kinetic energy enters; spring_subset: (i, j)
    pairs whose potential energy enters.  The estimand is
    psi(0)^dag P^dag V P psi(0) with V the projector onto the selected
    velocity and spring slots.  The entries of w at a batch of indices take
    one cone_rows pass over (Pcos, Psin, ptil) for their sites, and each
    chunk of it one _evolved_blocks pass for the sites its rows read.
    Error budget: eps/4 polynomial, eps/3 statistical (hence sampler error
    <= eps/27); the cross terms fit in the remainder.
    """
    n = sys.n_sites
    vset = {int(i) for i in mass_subset}
    pairs = {tuple(sorted((int(pair[0]), int(pair[1])))) for pair in spring_subset}
    for i in vset:
        if not 0 <= i < n:
            raise ValueError(f"mass index {i} out of range")
    for pa, pb in pairs:
        if not 0 <= pa <= pb < n:
            raise ValueError(f"spring pair ({pa},{pb}) out of range")
    xset = {pair_index(pa, pb, n) for pa, pb in pairs}   # the selected spring slots
    # the two ends of each selected spring, one column per spring
    ends = np.array(sys.slot_sites(sorted(xset)), dtype=np.int64).reshape(2, -1)

    scaled = _scaled_state(sys, state0)
    a, pcos, psin, blocks = _evolved_blocks(sys, scaled, t, eps / 4.0)
    evolved = blocks(())
    a0, ptil = divide_out_zero(pcos)   # Pcos(y) = a0 + y * ptil(y)

    # top block of P psi0, masked to the selected velocity slots
    def mphi_v(i: int) -> complex:
        return evolved[i][0] if i in vset else 0.0 + 0.0j

    # bottom block of P psi0 is B^T phi_x with phi_x = i z, masked to the
    # selected spring slots
    @cache
    def mbx(slot: int) -> complex:
        if slot not in xset:
            return 0.0 + 0.0j
        return sys.bdag_entry(slot, lambda k: 1j * evolved[k][1])

    g = cache(lambda i: sys.b_entry(i, mbx))

    def gather(fn, sites: np.ndarray):
        """fn at each of the increasing sites, as a gather at any of them."""
        vals = np.array([fn(i) for i in sites.tolist()], dtype=np.complex128)
        return lambda where: vals[np.searchsorted(sites, where)]

    # (w_i, h1_i, h2_i): the velocity entry of w, Psin(A) mphi_v and ptil(A) g
    energy: dict = {}

    def fill(sites: list):
        new = sorted(set(sites).difference(energy))
        for origins, (rcos, rsin, rtil) in cone_rows(a, (pcos, psin, ptil), new):
            vsites = np.union1d(rcos[1], rsin[1])   # where mphi_v is read
            gsites = np.union1d(rsin[1], rtil[1])   # where g is read
            # g at site j reads z at both ends of each selected spring at j
            near = np.isin(ends[0], gsites) | np.isin(ends[1], gsites)
            blocks([i for i in vsites.tolist() if i in vset] + ends[:, near].ravel().tolist())
            mv, gv = gather(mphi_v, vsites), gather(g, gsites)
            dots = [row_dots(r, vec(r[1])).tolist()
                    for r, vec in ((rcos, mv), (rsin, gv), (rsin, mv), (rtil, gv))]
            for i, cos_v, sin_g, sin_v, til_g in zip(origins.tolist(), *dots):
                energy[i] = (cos_v - 1j * sin_g, sin_v, til_g)

    def w_many(idxs: list) -> list:
        slots = [i for i in idxs if i >= n]
        fill([i for i in idxs if i < n] + sys.slot_sites(slots))
        blocks(sys.slot_sites([slot for slot in slots if slot in xset]))
        return [energy[i][0] if i < n else
                (-1j * sys.bdag_entry(i, lambda k: energy[k][1])
                 + a0 * mbx(i)
                 + sys.bdag_entry(i, lambda k: energy[k][2]))
                for i in idxs]

    w = VectorOracle(dimension=sys.extended_dim, query_fn=lambda i: w_many([i])[0],
                     norm=None, many_fn=w_many)
    # through the public psi0, which perfbench's capture hook wraps to meter v
    v = psi0(sys, state0, _scaled=scaled)
    return inner_product_estimate(w, v, eps / 3.0, delta, seed)


# =====================================================================
# file formats
# =====================================================================


def system_from_json_dict(cfg: dict) -> OscillatorSystem:
    missing = [key for key in ("graph", "r0", "masses", "springs") if key not in cfg]
    if missing:
        raise ValueError(f"system needs {', '.join(missing)}")
    graph = SiteGraph.from_config(cfg["graph"])
    return build_system(graph, cfg["masses"], cfg["springs"], int(cfg["r0"]))


def load_system(path) -> OscillatorSystem:
    with open(path) as fh:
        return system_from_json_dict(json.load(fh))


def read_state_csv(path) -> OscillatorState:
    """State rows `site,x,xdot` (header optional); missing sites default to rest.

    A short row, a negative site or a repeated site raises ValueError.
    """
    rows: dict = {}
    with open(path, newline="") as fh:
        for rec in csv.reader(fh):
            if not rec or rec[0].strip().lower() in ("site", "index", "i"):
                continue
            if len(rec) < 3:
                raise ValueError(f"state row {rec} in {path} is not site,x,xdot")
            site = int(rec[0])
            if site < 0:
                raise ValueError(f"negative site {site} in {path}")
            if site in rows:
                raise ValueError(f"site {site} appears twice in {path}")
            rows[site] = (float(rec[1]), float(rec[2]))
    if not rows:
        raise ValueError(f"no state rows in {path}")
    state = np.zeros((2, max(rows) + 1))
    state[:, list(rows)] = np.array(list(rows.values())).T
    return OscillatorState(x=state[0], xdot=state[1])
