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

A system reads its springs through one block source, springs(sites), which
gives each asked site's springs, increasing in the other site, a wall spring
(i, i) among them (OscillatorSystem).  build_system keeps explicit springs
as one table sorted by (site, other) and slices it; the wave front-end
(pde.wave_to_oscillators) reads them off the Laplacian's rows on demand and
keeps no table.  B w at an array of sites sums each site's springs in order
(OscillatorSystem.b); a pair slot decodes in arithmetic to its ends (i, j),
and B^T z at an array of slots reads the springs at the lower ends once
(OscillatorSystem.at_slots, SlotSprings.bdag).  A block of A's rows is
built from the same springs, or read from the system's own A source
(OscillatorSystem.a_oracle).  The estimators keep their per-site blocks in
lightcone.SiteMemo.

An OscillatorState is immutable, so it is embedded once per system: E, the
scaled vectors s sqrt(M) xdot and s sqrt(M) x (s = 1/sqrt(2E)) and psi(0)'s
checked sq-oracle come from one pass over the state's support (the springs
are read only where x != 0), kept on the state for the last system it was
embedded for, and total_energy, psi0 and both estimators, at every time,
read that pass.

The degree of the exponential approximation obeys
d_exp <= c1 * |t| * sqrt(N(r0) kappa_max / m_min) + c2 * ln(1/eps) + c3
with c1 = e/2, c2 = log2(e) ~ 1.443, c3 = 6.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .access import (CostCounter, LocalityError, LocalMatrixOracle, PreconditionError,
                     VectorOracle, _lookup, _sq_oracle)
from .estimate import EstimateReport, inner_product_estimate
from .lattice import SiteGraph
from .lightcone import SiteMemo, window_entries
from .polyapprox import divide_out_zero, exp_poly, mul_by_x, parity_split

TINY_STATE = 1e-100   # a state whose largest |entry| is below this is embedded scaled to 1

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


def pair_slots(i, j, n: int) -> np.ndarray:
    """pair_index of each pair (i[k], j[k]), given in either order, as an array."""
    i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
    return n + _pair_offset(np.minimum(i, j), n) + np.abs(i - j)


def extended_dimension(n: int) -> int:
    return n + (n * (n + 1)) // 2


def _pair_ends(slots: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of each pair slot, i <= j: the inverse of pair_index, in arithmetic.

    r, the number of pair slots after a slot, lies in [T(k), T(k + 1)) for
    k = n - 1 - i and T(k) = k (k + 1) / 2; the float root is exact to well
    under one, and one step each way corrects it.
    """
    r = (n * (n + 1)) // 2 - 1 - (slots - n)
    k = ((np.sqrt(8.0 * r + 1.0) - 1.0) // 2.0).astype(np.int64)
    k -= (k * (k + 1)) // 2 > r
    k += ((k + 1) * (k + 2)) // 2 <= r
    i = n - 1 - k
    return i, slots - n - _pair_offset(i, n) + i


# =====================================================================
# system construction
# =====================================================================


@dataclass
class OscillatorSystem:
    """Masses, a spring source, and the local operators read through it.

    springs(sites) -> (indptr, others, kappas) is each site's springs as one
    CSR block: the springs of sites[k] go to others[indptr[k]:indptr[k + 1]],
    increasing, with stiffnesses kappas[indptr[k]:indptr[k + 1]] > 0, and a
    wall spring has other == site.  A spring (i, j) is seen from both ends,
    with one kappa.  a_norm_bound upper-bounds ||A|| = ||B||^2.  a_source,
    when set, is A's own block source (LocalMatrixOracle's), which must give
    the A the springs give; otherwise A's rows are built from the springs.
    """

    graph: SiteGraph
    masses: np.ndarray
    r0: int
    springs: Callable
    a_norm_bound: float
    a_source: Callable | None = None

    @property
    def n_sites(self) -> int:
        return self.graph.n_sites

    @property
    def extended_dim(self) -> int:
        return extended_dimension(self.n_sites)

    @property
    def h_norm_bound(self) -> float:
        """Upper bound on ||H|| = sqrt(||A||)."""
        return math.sqrt(self.a_norm_bound)

    def _spring_rows(self, sites: np.ndarray):
        """(row, others, kappas): the springs at sites, each with its position in sites."""
        indptr, others, kappas = self.springs(sites)
        return np.repeat(np.arange(sites.size), np.diff(indptr)), others, kappas

    def _a_rows(self, sites: np.ndarray):
        """A's rows at sites from the springs: -kappa_ij / sqrt(m_i m_j) at each
        spring (i, j), j != i, and F_ii / m_i at (i, i) when site i has springs,
        F_ii summing the site's kappas one by one in increasing order of the
        other site."""
        m = self.masses
        indptr, j, kap = self.springs(sites)
        counts = np.diff(indptr)
        row = np.repeat(np.arange(sites.size), counts)
        at = sites[row]
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

    def a_oracle(self) -> LocalMatrixOracle:
        """A = M^{-1/2} F M^{-1/2} as a Hermitian PSD local-matrix oracle, on a
        fresh counter, from a_source or else from the springs."""
        return LocalMatrixOracle(self.graph, self.r0, self.a_source or self._a_rows,
                                 norm_bound=self.a_norm_bound, hermitian=True, psd=True)

    # ---- sparse B and B^T applications -----------------------------------

    def at_slots(self, slots) -> SlotSprings:
        """The springs at an array of slots, from one springs read at their lower ends."""
        slots = np.asarray(slots, dtype=np.int64)
        n = self.n_sites
        pair = np.flatnonzero(slots >= n)
        if not pair.size:   # velocity slots alone: nothing to read
            return SlotSprings(slots.size, pair, pair, pair, np.zeros(0), self.masses)
        i, j = _pair_ends(slots[pair], n)
        row, others, kappas = self._spring_rows(i)
        hit = others == j[row]    # a site's others are distinct: one hit at most
        row = row[hit]
        return SlotSprings(slots.size, pair[row], i[row], j[row], kappas[hit], self.masses)

    def b(self, sites, w_at) -> np.ndarray:
        """(B w) at each of the sites, w_at(slots) giving w at an array of slots: each
        site's springs summed from 0 in increasing order of the other site."""
        sites = np.asarray(sites, dtype=np.int64)
        row, others, kappas = self._spring_rows(sites)
        at = sites[row]
        slots = pair_slots(at, others, self.n_sites)
        terms = np.sqrt(kappas / self.masses[at]) * w_at(slots)
        terms = np.where(others >= at, terms, -terms)
        return _running_sums(terms, row, sites.size)


@dataclass(frozen=True)
class SlotSprings:
    """The springs at an array of size slots, read once: at, the positions in the
    slots of those that hold a spring, increasing; the spring's ends lower <=
    upper (equal at a wall spring) and its kappa."""

    size: int
    at: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    kappas: np.ndarray
    masses: np.ndarray

    @property
    def sites(self) -> np.ndarray:
        """The sites bdag reads: the lower end of each spring, in slot order, then
        the upper ends (no sites for a slot without one)."""
        return np.concatenate((self.lower, self.upper))

    def only(self, keep: np.ndarray) -> SlotSprings:
        """The springs where the boolean keep (one per spring) holds; the slots of
        the others read as slots without a spring."""
        return SlotSprings(self.size, self.at[keep], self.lower[keep], self.upper[keep],
                           self.kappas[keep], self.masses)

    def bdag(self, z_at) -> np.ndarray:
        """(B^T z) at each slot, z_at(sites) giving z at an array of sites: a gather
        over the springs."""
        lower, upper, kappas = self.lower, self.upper, self.kappas
        out = np.zeros(self.size, dtype=np.complex128)
        out[self.at] = np.sqrt(kappas / self.masses[lower]) * z_at(lower)
        two = lower != upper    # a wall spring has one end
        out[self.at[two]] -= np.sqrt(kappas[two] / self.masses[upper[two]]) * z_at(upper[two])
        return out


def _running_sums(terms: np.ndarray, row: np.ndarray, n: int) -> np.ndarray:
    """out[r] = the terms with row r summed from 0, one at a time in order, as
    np.bincount adds its weights (a complex sum is the sums of its parts)."""
    if terms.dtype.kind != "c":
        return np.bincount(row, terms, n)
    out = np.empty(n, dtype=np.complex128)
    out.real, out.imag = np.bincount(row, terms.real, n), np.bincount(row, terms.imag, n)
    return out


def _table_springs(sites_col: np.ndarray, others: np.ndarray, kappas: np.ndarray):
    """The springs source of a table sorted by (site, other): a site's springs are
    one slice of it, found by two searches of the site column per asked block."""

    def springs(sites):
        lo = np.searchsorted(sites_col, sites)
        counts = np.searchsorted(sites_col, sites + 1) - lo
        indptr = np.concatenate(([0], np.cumsum(counts)))
        take = np.arange(indptr[-1]) + np.repeat(lo - indptr[:-1], counts)
        return indptr, others[take], kappas[take]

    return springs


def build_system(graph: SiteGraph, masses, springs, r0: int) -> OscillatorSystem:
    """Validate and assemble an oscillator system from explicit springs.

    springs may be a dict {(i, j): kappa} or an iterable of (i, j, kappa);
    orientation is normalized to i <= j, zero springs are dropped and an
    equal duplicate is kept once.  The springs are kept as one table sorted
    by (site, other), each listed from both ends, a wall spring once, and
    the system reads slices of it.  Its a_norm_bound is the Schur bound
    2 N(r0) kappa_max / m_min (_schur_bound).
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
    table = _table_springs(sites[order], np.concatenate((i[back], j))[order],
                           np.concatenate((kap[back], kap))[order])
    return OscillatorSystem(graph, masses, int(r0), table,
                            _schur_bound(graph, int(r0), kap, masses))


def _schur_bound(graph: SiteGraph, r0: int, kappas: np.ndarray, masses: np.ndarray) -> float:
    """Upper bound on ||A|| = ||B||^2: 2 * N(r0) * kappa_max / m_min.

    Schur test on B: every row of B holds at most N(r0) spring entries
    (neighbors plus a possible self-spring) of size at most
    sqrt(kappa_max/m_min), and every column holds at most two, so
    ||B||^2 <= ||B||_1 ||B||_inf <= 2 N(r0) kappa_max / m_min.  The
    factor 2 is needed: on a 2D grid with uniform springs the diagonal
    of F alone reaches (N(r0) - 1) kappa.
    """
    return float(2.0 * graph.locality_function(r0) * kappas.max(initial=0.0) / masses.min())


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
    # NaN and fractions fail the first test, infinities and sites beyond int64 the second
    if not all(np.array_equal(np.trunc(c), c) and np.abs(c).max(initial=0.0) < 2.0 ** 63
               for c in (rows[:, 0], rows[:, 1])):
        raise ValueError("spring sites must be integers below 2^63")
    rows = rows[rows[:, 2] != 0.0]
    i, j = rows[:, 0], rows[:, 1]
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


@dataclass(frozen=True)
class _Embedding:
    """A state's energy and unit embedding for one system, with s = 1/sqrt(2E):
    s sqrt(M) xdot, s sqrt(M) x, and psi(0)'s nonzero entries (idx increasing:
    velocities, then slots by (i, j)).  A rest state has only E set."""

    energy: float
    sv: np.ndarray | None = None
    sx: np.ndarray | None = None
    idx: np.ndarray | None = None
    vals: np.ndarray | None = None

    @cached_property
    def psi(self) -> VectorOracle:
        """psi(0)'s sq-oracle over (idx, vals), its table built and checked once,
        on first use; psi0 hands out copies of it."""
        return _sq_oracle(extended_dimension(self.sv.size), self.idx, self.vals, 0.0)


def _energy(sys: OscillatorSystem, state: OscillatorState):
    """(E, moving, held, slots, stretch): the energy; the sites where xdot != 0 and
    where x != 0; and B^T sqrt(M) x at the slots, increasing, of the springs with
    an end in held, the only slots where it can be nonzero.

    The springs are read at held alone, and the kinetic terms summed over moving
    alone.  (B^T sqrt(M) x)_(i,j) is sqrt(kappa) (x_i - x_j), or sqrt(kappa) x_i
    at a wall spring.  E may overflow to inf, with no warning.
    """
    x, xdot, n = state.x, state.xdot, sys.n_sites
    moving, held = np.flatnonzero(xdot), np.flatnonzero(x)
    row, others, kap = sys._spring_rows(held)
    at = held[row]
    once = (at <= others) | (x[others] == 0)   # a spring with both ends held, from its lower end
    at, others, kap = at[once], others[once], kap[once]
    i = np.minimum(at, others)
    j = at + others - i
    slots = pair_slots(i, j, n)
    # the springs read from their lower ends come in slot order, the rest in a
    # few sorted runs, which a stable sort merges
    order = np.argsort(slots, kind="stable")
    i, j, kap, slots = i[order], j[order], kap[order], slots[order]
    with np.errstate(over="ignore", invalid="ignore"):
        stretch = np.sqrt(kap) * (x[i] - np.where(i == j, 0.0, x[j]))
        e = (0.5 * float(np.sum(sys.masses[moving] * xdot[moving] ** 2))
             + 0.5 * float(np.sum(stretch ** 2)))
    return e, moving, held, slots, stretch


def _embedding(sys: OscillatorSystem, state: OscillatorState) -> _Embedding:
    """The state's _Embedding for sys, from one pass over the state's support.

    It is kept on the state for the last system asked, so every estimate,
    time and psi0 call on that pair shares one pass.  The size check runs on
    every call; a rest state's embedding, which has no psi(0), is not kept.
    psi(0) does not change when the state is scaled, so when E overflows, or
    may underflow because the largest |entry| is below TINY_STATE, psi(0) is
    taken from the state scaled to largest |entry| 1; E stays the unscaled
    state's, which may read inf or 0.0.
    """
    n = sys.n_sites
    if state.x.size != n:
        raise ValueError("state dimension does not match the system")
    embedded = state._embedded
    if embedded is not None and embedded[0] is sys:
        return embedded[1]
    e, moving, held, slots, stretch = _energy(sys, state)
    scaled_e, scaled = e, state
    c = max(np.abs(state.x[held]).max(initial=0.0), np.abs(state.xdot[moving]).max(initial=0.0))
    if not math.isfinite(e) or 0.0 < c < TINY_STATE:
        scaled = OscillatorState(state.x / c, state.xdot / c)
        scaled_e, moving, held, slots, stretch = _energy(sys, scaled)
    if scaled_e <= 0.0:
        return _Embedding(e)
    s = 1.0 / math.sqrt(2.0 * scaled_e)
    sv, sx = np.zeros(n), np.zeros(n)
    sv[moving] = np.sqrt(sys.masses[moving]) * scaled.xdot[moving] * s
    sx[held] = np.sqrt(sys.masses[held]) * scaled.x[held] * s
    idx = np.concatenate((moving, slots))
    vals = np.concatenate((sv[moving], 1j * (stretch * s)))
    nonzero = vals != 0
    embedded = _Embedding(e, sv, sx, idx[nonzero], vals[nonzero])
    object.__setattr__(state, "_embedded", (sys, embedded))
    return embedded


def _unit_embedding(sys: OscillatorSystem, state: OscillatorState) -> _Embedding:
    """_embedding, which must have psi(0)."""
    embedded = _embedding(sys, state)
    if embedded.sv is None:
        raise PreconditionError("zero-energy rest state has no unit embedding")
    return embedded


def total_energy(sys: OscillatorSystem, state: OscillatorState) -> float:
    """E = 1/2 sum m xdot^2 + 1/2 sum kappa_ii x_i^2 + 1/2 sum_{j>i} kappa_ij (x_i - x_j)^2."""
    return _embedding(sys, state).energy


def psi0(sys: OscillatorSystem, state: OscillatorState) -> VectorOracle:
    """The unit vector (1/sqrt(2E)) (sqrt(M) xdot ; i B^T sqrt(M) x) with sq-access.

    Each call returns a shallow copy, with its own counter, of the oracle
    kept on the state's embedding, so the table is built once per embedding.
    """
    oracle = copy.copy(_unit_embedding(sys, state).psi)
    oracle.cost = CostCounter()
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

    def w_many(idxs: np.ndarray) -> np.ndarray:
        top = idxs < n
        springs = sys.at_slots(idxs[~top])
        blocks.at(np.concatenate((idxs[top], springs.sites)))
        out = np.empty(idxs.size, dtype=np.complex128)
        out[top] = blocks.at(idxs[top])[:, 0]
        out[~top] = 1j * springs.bdag(lambda sites: blocks.at(sites)[:, 1])
        return out

    w = VectorOracle(sys.extended_dim, many_fn=w_many)
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
    selected = sys.at_slots(xslots)   # the selected springs, read once

    a, pcos, psin, blocks = _evolved_blocks(sys, _unit_embedding(sys, state0), t, eps / 4.0)
    a0, ptil = divide_out_zero(pcos)   # Pcos(y) = a0 + y * ptil(y)
    g_hops = max(psin.degree, ptil.degree)   # g is read within this many hops

    # the bottom block of P psi0 is B^T phi_x with phi_x = i z, masked to the
    # selected spring slots
    def iz(sites: np.ndarray) -> np.ndarray:
        return 1j * blocks.at(sites)[:, 1]

    def vectors(window) -> np.ndarray:
        """mphi_v, the top block of P psi0 masked to the selected velocity slots,
        and g = B mbx, at the window's sites; g only where Psin and ptil read it."""
        sites, gsites = window.sites, window.sites[:window.sizes[g_hops]]
        on = np.flatnonzero(np.isin(sites, vsites))
        # g at site j reads mbx at each selected spring at j, so z at both its ends
        near = selected.only(np.isin(selected.lower, gsites) | np.isin(selected.upper, gsites))
        blocks.at(np.concatenate((sites[on], near.sites)))
        mbx = near.bdag(iz)    # at each selected slot; 0 at those no site of g reads
        out = np.zeros((sites.size, 2), dtype=np.complex128)
        out[on, 0] = blocks.at(sites[on])[:, 0]
        out[:gsites.size, 1] = sys.b(gsites, lambda slots: _lookup(xslots, mbx, slots))
        return out

    def fill(new: np.ndarray) -> np.ndarray:
        """(w_i, h1_i, h2_i): the velocity entry of w, Psin(A) mphi_v and ptil(A) g."""
        _, values = window_entries(a, (pcos, psin, ptil), new, vectors)
        return np.stack((values[0, :, 0] - 1j * values[1, :, 1], values[1, :, 0],
                         values[2, :, 1]), axis=1)

    energy = SiteMemo(fill, 3)

    def w_many(idxs: np.ndarray) -> np.ndarray:
        top = idxs < n
        slots = idxs[~top]
        springs = sys.at_slots(slots)
        chosen = springs.only(np.isin(slots[springs.at], xslots))
        energy.at(np.concatenate((idxs[top], springs.sites)))
        blocks.at(chosen.sites)
        out = np.empty(idxs.size, dtype=np.complex128)
        out[top] = energy.at(idxs[top])[:, 0]
        out[~top] = (-1j * springs.bdag(lambda sites: energy.at(sites)[:, 1])
                     + a0 * chosen.bdag(iz)
                     + springs.bdag(lambda sites: energy.at(sites)[:, 2]))
        return out

    w = VectorOracle(sys.extended_dim, many_fn=w_many)
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
