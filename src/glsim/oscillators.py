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
remove all extended-space polynomial work.  The kernel
(lightcone.window_entries) takes a pipeline's site-space vectors at each
chunk's window as arrays and returns every polynomial's entries at its sites.

The springs are kept once, as one table sorted by (site, other site): row k
is a spring of stiffness kappas[k] > 0 seen from sites[k] towards others[k],
listed from both ends, or once for a wall spring (i, i).  Beside it sits one
column of pair slots, slots[k] = pair_index(min, max of the two sites).  A
site's row of B is a slice of the table, so B w at an array of sites sums
each site's slice in table order (OscillatorSystem.b); the columns of B are
the table rows with i <= j, which lie in slot order, so B^T z at an array of
slots is a gather over them (OscillatorSystem.bdag), and E and psi(0) are
array expressions over those rows.  b_entry and bdag_entry are the one-entry
loops the array forms equal bit for bit.  A block of A's rows is built from
the same slices (OscillatorSystem.a_oracle); no second table is kept.  The
estimators keep their per-site blocks in lightcone.SiteMemo.

An OscillatorState is immutable, so it is embedded once per system: E, the
scaled vectors s sqrt(M) xdot and s sqrt(M) x (s = 1/sqrt(2E)) and psi(0)'s
entries come from one O(N) pass, kept on the state for the last system it
was embedded for, and total_energy, psi0 and both estimators, at every time,
read that pass.

The degree of the exponential approximation obeys
d_exp <= c1 * |t| * sqrt(N(r0) kappa_max / m_min) + c2 * ln(1/eps) + c3
with c1 = e/2, c2 = log2(e) ~ 1.443, c3 = 6.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .access import (LocalityError, LocalMatrixOracle, PreconditionError,
                     VectorOracle, _sq_oracle)
from .estimate import EstimateReport, inner_product_estimate
from .lattice import SiteGraph
from .lightcone import SiteMemo, window_entries
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
    """Masses, the spring table (sites, others, kappas), and the local operators read from it."""

    graph: SiteGraph
    masses: np.ndarray
    r0: int
    sites: np.ndarray
    others: np.ndarray
    kappas: np.ndarray

    def __post_init__(self):
        # site i's springs are the table rows _starts[i]:_starts[i + 1]; an O(N)
        # search, so set-up pays for it and no query does
        self._starts = np.searchsorted(self.sites, np.arange(self.n_sites + 1))

    @property
    def n_sites(self) -> int:
        return self.graph.n_sites

    @property
    def extended_dim(self) -> int:
        return extended_dimension(self.n_sites)

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

    def _slices(self, sites: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(take, row, counts): the table rows of the sites' springs, site after site
        in table order, the position in sites of each one's site, and each site's
        spring count."""
        lo = self._starts[sites]
        counts = self._starts[sites + 1] - lo
        row = np.repeat(np.arange(sites.size), counts)
        take = np.arange(row.size) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        return take, row, counts

    def a_oracle(self) -> LocalMatrixOracle:
        """A = M^{-1/2} F M^{-1/2} as a Hermitian PSD local-matrix oracle over the springs.

        Row i holds -kappa_ij / sqrt(m_i m_j) at each spring (i, j), j != i, and
        F_ii / m_i at (i, i) when site i has springs, F_ii summing the site's
        kappas one by one in table order, that is in increasing order of the
        other site.
        """
        m = self.masses

        def source(sites):
            take, row, counts = self._slices(sites)
            at, j, kap = sites[row], self.others[take], self.kappas[take]
            held = np.flatnonzero(counts)
            diag = _running_sums(kap, row, sites.size)[held] / m[sites[held]]
            off = -kap / np.sqrt(m[at] * m[j])
            below, above = j < at, j > at
            rows = np.concatenate((row[below], held, row[above]))
            # a stable sort by row keeps each row's columns increasing: below, i, above
            order = np.argsort(rows, kind="stable")
            cols = np.concatenate((j[below], sites[held], j[above]))[order]
            vals = np.concatenate((off[below], diag, off[above]))[order]
            indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=sites.size))))
            return indptr, cols, vals

        return LocalMatrixOracle(self.graph, self.r0, source, norm_bound=self.a_norm_bound,
                                 hermitian=True, psd=True)

    # ---- sparse B and B^T applications -----------------------------------

    def _springs_at(self, slots) -> tuple[np.ndarray, np.ndarray]:
        """(at, k): the positions in slots of the slots that hold a spring, and the
        index of that spring in pairs."""
        cols = self.pairs[3]
        slots = np.asarray(slots, dtype=np.int64)
        if cols.size == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        k = np.minimum(np.searchsorted(cols, slots), cols.size - 1)
        at = np.flatnonzero(cols[k] == slots)
        return at, k[at]

    def slot_sites(self, slots) -> np.ndarray:
        """The sites bdag reads at these slots: the lower end of each one's spring,
        in slot order, then the upper ends (no sites for a slot without one)."""
        i, j, _, _ = self.pairs
        k = self._springs_at(slots)[1]
        return np.concatenate((i[k], j[k]))

    def bdag(self, slots, z_at) -> np.ndarray:
        """(B^T z) at each of the slots, z_at(sites) giving z at an array of sites:
        a gather over the spring table, bit for bit bdag_entry at each slot."""
        i, j, kappas, _ = self.pairs
        at, k = self._springs_at(slots)
        lower, upper = i[k], j[k]
        out = np.zeros(np.size(slots), dtype=np.complex128)
        out[at] = np.sqrt(kappas[k] / self.masses[lower]) * z_at(lower)
        two = lower != upper    # a wall spring has one end
        out[at[two]] -= np.sqrt(kappas[k[two]] / self.masses[upper[two]]) * z_at(upper[two])
        return out

    def b(self, sites, w_at) -> np.ndarray:
        """(B w) at each of the sites, w_at(slots) giving w at an array of slots: each
        site's springs summed from 0 in table order, bit for bit b_entry at each site."""
        sites = np.asarray(sites, dtype=np.int64)
        take, row, _ = self._slices(sites)
        at = sites[row]
        terms = np.sqrt(self.kappas[take] / self.masses[at]) * w_at(self.slots[take])
        terms = np.where(self.others[take] >= at, terms, -terms)
        return _running_sums(terms, row, sites.size)

    def bdag_entry(self, slot: int, z_fn) -> complex:
        """(B^T z)_slot for a site-space functional z_fn; 0 at a slot with no spring:
        bdag at one slot."""
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
        """(B w)_i for a pair-space functional slot_fn(slot): b at one site."""
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


def _running_sums(terms: np.ndarray, row: np.ndarray, n: int) -> np.ndarray:
    """out[r] = the terms with row r summed from 0, one at a time in order, as
    np.bincount adds its weights (a complex sum is the sums of its parts)."""
    if terms.dtype.kind != "c":
        return np.bincount(row, terms, n)
    out = np.empty(n, dtype=np.complex128)
    out.real, out.imag = np.bincount(row, terms.real, n), np.bincount(row, terms.imag, n)
    return out


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
    # listed from both ends, a wall spring once.  The springs as (i, j) are
    # sorted already; the pairs as (j, i), sorted by j stably, go before them,
    # so one stable sort by site merges the two runs into (site, other) order
    back = np.flatnonzero(i != j)
    back = back[np.argsort(j[back], kind="stable")]
    sites = np.concatenate((j[back], i))
    order = np.argsort(sites, kind="stable")
    return OscillatorSystem(graph, masses, int(r0), sites=sites[order],
                            others=np.concatenate((i[back], j))[order],
                            kappas=np.concatenate((kap[back], kap))[order])


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


@dataclass(frozen=True)
class OscillatorState:
    """Positions and velocities at one instant, immutable.

    x and xdot are read-only float64 copies of the input, so the state's
    embedding for a system (_embedding) is computed once and kept on the
    state; a later write to the caller's arrays cannot make it stale.
    """

    x: np.ndarray
    xdot: np.ndarray
    # (system, _Embedding) of the last system this state was embedded for
    _embedded: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("x", "xdot"):
            values = np.array(np.ravel(getattr(self, name)), dtype=np.float64)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if self.x.size != self.xdot.size:
            raise ValueError("x and xdot lengths differ")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.xdot))):
            raise ValueError("x and xdot must be finite")


class _Embedding(NamedTuple):
    """A state's energy and unit embedding for one system, with s = 1/sqrt(2E):
    s sqrt(M) xdot, s sqrt(M) x, and psi(0)'s nonzero entries (idx increasing:
    velocities, then slots by (i, j)).  At zero energy only E is set."""

    energy: float
    sv: np.ndarray | None = None
    sx: np.ndarray | None = None
    idx: np.ndarray | None = None
    vals: np.ndarray | None = None


def _energy(sys: OscillatorSystem, state: OscillatorState):
    """(E, stretch): the energy, and B^T sqrt(M) x at the slots of the springs
    i <= j (sys.pairs).

    (B^T sqrt(M) x)_(i,j) is sqrt(kappa) (x_i - x_j), or sqrt(kappa) x_i at a wall spring.
    """
    i, j, kap, _ = sys.pairs
    x = state.x
    stretch = np.sqrt(kap) * (x[i] - np.where(i == j, 0.0, x[j]))
    e = (0.5 * float(np.sum(sys.masses * state.xdot ** 2))
         + 0.5 * float(np.sum(stretch ** 2)))
    return e, stretch


def _embedding(sys: OscillatorSystem, state: OscillatorState) -> _Embedding:
    """The state's _Embedding for sys, from one O(N) pass over the springs.

    It is kept on the state for the last system asked, so every estimate,
    time and psi0 call on that pair shares one pass.  The size check runs on
    every call; a zero-energy embedding, which has no psi(0), is not kept.
    """
    if state.x.size != sys.n_sites:
        raise ValueError("state dimension does not match the system")
    held = state._embedded
    if held is not None and held[0] is sys:
        return held[1]
    e, stretch = _energy(sys, state)
    if e <= 0.0:
        return _Embedding(e)
    s = 1.0 / math.sqrt(2.0 * e)
    root_m = np.sqrt(sys.masses)
    sv = root_m * state.xdot * s
    idx = np.concatenate((np.arange(sys.n_sites), sys.pairs[3]))
    vals = np.concatenate((sv, 1j * (stretch * s)))
    nonzero = vals != 0
    embedded = _Embedding(e, sv, root_m * state.x * s, idx[nonzero], vals[nonzero])
    object.__setattr__(state, "_embedded", (sys, embedded))
    return embedded


def _unit_embedding(sys: OscillatorSystem, state: OscillatorState) -> _Embedding:
    """_embedding, which must have psi(0)."""
    embedded = _embedding(sys, state)
    if embedded.energy <= 0.0:
        raise PreconditionError("zero-energy rest state has no unit embedding")
    return embedded


def total_energy(sys: OscillatorSystem, state: OscillatorState) -> float:
    """E = 1/2 sum m xdot^2 + 1/2 sum kappa_ii x_i^2 + 1/2 sum_{j>i} kappa_ij (x_i - x_j)^2."""
    return _embedding(sys, state).energy


def psi0(sys: OscillatorSystem, state: OscillatorState) -> VectorOracle:
    """The unit vector (1/sqrt(2E)) (sqrt(M) xdot ; i B^T sqrt(M) x) with sq-access.

    Each call returns a fresh oracle with its own counter over the state's
    kept embedding.
    """
    embedded = _unit_embedding(sys, state)
    idx, vals = embedded.idx, embedded.vals

    def query(i: int) -> complex:
        k = int(np.searchsorted(idx, i))
        return vals[k] if k < idx.size and idx[k] == i else 0.0 + 0.0j

    def many(sites) -> np.ndarray:
        sites = np.asarray(sites, dtype=np.int64)
        k = np.minimum(np.searchsorted(idx, sites), idx.size - 1)
        return np.where(idx[k] == sites, vals[k], 0.0)

    oracle = _sq_oracle(sys.extended_dim, idx, vals, query, 0.0, None, many_fn=many)
    if abs(oracle.norm() - 1.0) > 1e-9:
        raise RuntimeError(f"psi0 norm {oracle.norm()} != 1")
    return oracle


# =====================================================================
# derived vectors
# =====================================================================


def _evolved_blocks(sys: OscillatorSystem, embedded: _Embedding, t: float, eps_poly: float):
    """Site-space blocks of P psi(0) for P = P_exp(H t) within eps_poly of e^{iHt},
    psi(0) given by its _Embedding.

    Returns (a, pcos, psin, blocks): the A oracle, the parity split of P_exp
    on [-||H||, ||H||] into Pcos, Psin on [0, ||A||], and blocks, a SiteMemo
    whose rows are (top_i, z_i) with top = Pcos(A) sv - A Psin(A) sx (the
    velocity block) and z = Psin(A) sv + Pcos(A) sx (the pair block is
    i B^T z).  The sites it does not hold are filled from one window_entries
    pass of (Pcos, Psin, x Psin) over the vectors (sv, sx).
    """
    sv, sx = embedded.sv, embedded.sx

    alpha_h = sys.h_norm_bound
    if alpha_h == 0.0:
        alpha_h = 1.0  # springless system: A = 0, any positive scale certifies
    pcos, psin = parity_split(exp_poly(alpha_h, t, eps_poly))
    x_psin = mul_by_x(psin)            # y * Psin(y), realizing A Psin(A)
    a = sys.a_oracle()

    def fill(new: np.ndarray) -> np.ndarray:
        _, values = window_entries(
            a, (pcos, psin, x_psin), new,
            lambda window: np.stack((sv[window.sites], sx[window.sites]), axis=1))
        return np.stack((values[0, :, 0] - values[2, :, 1],
                         values[1, :, 0] + values[0, :, 1]), axis=1)

    return a, pcos, psin, SiteMemo(fill, 2)


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
    _, _, _, blocks = _evolved_blocks(sys, _unit_embedding(sys, state0), t, eps / 2.0)
    n = sys.n_sites

    def w_many(idxs: list) -> np.ndarray:
        idxs = np.asarray(idxs, dtype=np.int64)
        top = idxs < n
        blocks.at(np.concatenate((idxs[top], sys.slot_sites(idxs[~top]))))
        out = np.empty(idxs.size, dtype=np.complex128)
        out[top] = blocks.at(idxs[top])[:, 0]
        out[~top] = 1j * sys.bdag(idxs[~top], lambda sites: blocks.at(sites)[:, 1])
        return out

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
    one window_entries pass of (Pcos, Psin, ptil) over the vectors
    (mphi_v, g) for their sites, and each chunk's window one _evolved_blocks
    pass for the sites where those vectors read P psi0.
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
    vsites = np.array(sorted(vset), dtype=np.int64)
    xslots = np.array(sorted({pair_index(pa, pb, n) for pa, pb in pairs}), dtype=np.int64)
    # the two ends of each selected spring, one column per spring
    ends = sys.slot_sites(xslots).reshape(2, -1)

    a, pcos, psin, blocks = _evolved_blocks(sys, _unit_embedding(sys, state0), t, eps / 4.0)
    a0, ptil = divide_out_zero(pcos)   # Pcos(y) = a0 + y * ptil(y)
    g_hops = max(psin.degree, ptil.degree)   # g is read within this many hops

    # the bottom block of P psi0 is B^T phi_x with phi_x = i z, masked to the
    # selected spring slots
    def mbx(slots: np.ndarray) -> np.ndarray:
        out = np.zeros(slots.size, dtype=np.complex128)
        on = np.flatnonzero(np.isin(slots, xslots))
        out[on] = sys.bdag(slots[on], lambda sites: 1j * blocks.at(sites)[:, 1])
        return out

    def vectors(window) -> np.ndarray:
        """mphi_v, the top block of P psi0 masked to the selected velocity slots,
        and g = B mbx, at the window's sites; g only where Psin and ptil read it."""
        sites, gsites = window.sites, window.sites[:window.sizes[g_hops]]
        on = np.flatnonzero(np.isin(sites, vsites))
        # g at site j reads z at both ends of each selected spring at j
        near = np.isin(ends[0], gsites) | np.isin(ends[1], gsites)
        blocks.at(np.concatenate((sites[on], ends[:, near].ravel())))
        out = np.zeros((sites.size, 2), dtype=np.complex128)
        out[on, 0] = blocks.at(sites[on])[:, 0]
        out[:gsites.size, 1] = sys.b(gsites, mbx)
        return out

    def fill(new: np.ndarray) -> np.ndarray:
        """(w_i, h1_i, h2_i): the velocity entry of w, Psin(A) mphi_v and ptil(A) g."""
        _, values = window_entries(a, (pcos, psin, ptil), new, vectors)
        return np.stack((values[0, :, 0] - 1j * values[1, :, 1], values[1, :, 0],
                         values[2, :, 1]), axis=1)

    energy = SiteMemo(fill, 3)

    def w_many(idxs: list) -> np.ndarray:
        idxs = np.asarray(idxs, dtype=np.int64)
        top = idxs < n
        slots = idxs[~top]
        energy.at(np.concatenate((idxs[top], sys.slot_sites(slots))))
        blocks.at(sys.slot_sites(slots[np.isin(slots, xslots)]))
        out = np.empty(idxs.size, dtype=np.complex128)
        out[top] = energy.at(idxs[top])[:, 0]
        out[~top] = (-1j * sys.bdag(slots, lambda sites: energy.at(sites)[:, 1])
                     + a0 * mbx(slots)
                     + sys.bdag(slots, lambda sites: energy.at(sites)[:, 2]))
        return out

    w = VectorOracle(dimension=sys.extended_dim, query_fn=lambda i: w_many([i])[0],
                     norm=None, many_fn=w_many)
    # through the public psi0, which perfbench's capture hook wraps to meter v
    v = psi0(sys, state0)
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
