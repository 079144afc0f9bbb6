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

The degree of the exponential approximation obeys
d_exp <= c1 * |t| * sqrt(N(r0) kappa_max / m_min) + c2 * ln(1/eps) + c3
with c1 = e/2, c2 = log2(e) ~ 1.443, c3 = 6.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .access import (LocalityError, LocalMatrixOracle, PreconditionError,
                     VectorOracle, local_matrix_from_rows, sparse_vector_oracle)
from .estimate import EstimateReport, inner_product_estimate
from .lattice import SiteGraph
from .lightcone import poly_rows, row_dot
from .polyapprox import (Polynomial, divide_out_zero, exp_poly, mul_by_x,
                         parity_split)

D_EXP_C1 = math.e / 2.0
D_EXP_C2 = math.log2(math.e)
D_EXP_C3 = 6.0


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


def pair_decode(idx: int, n: int) -> tuple[int, int]:
    """Inverse of pair_index for idx >= n."""
    r = idx - n
    if r < 0 or idx >= extended_dimension(n):
        raise ValueError(f"index {idx} is not a pair slot for n={n}")
    lo_i, hi_i = 0, n - 1
    while lo_i < hi_i:
        mid = (lo_i + hi_i + 1) // 2
        if _pair_offset(mid, n) <= r:
            lo_i = mid
        else:
            hi_i = mid - 1
    i = lo_i
    j = i + (r - _pair_offset(i, n))
    if not (i <= j < n):
        raise ValueError(f"index {idx} decodes outside the pair range")
    return i, j


def extended_dimension(n: int) -> int:
    return n + (n * (n + 1)) // 2


# =====================================================================
# system construction
# =====================================================================


@dataclass
class OscillatorSystem:
    """Masses, springs, and the derived local operators."""

    graph: SiteGraph
    masses: np.ndarray
    springs: dict          # (i, j) with i <= j -> kappa > 0
    r0: int
    neighbors: dict = field(default_factory=dict, repr=False)  # i -> ((j, kappa), ...)
    kappa_max: float = 0.0
    m_min: float = 0.0

    @property
    def n_sites(self) -> int:
        return self.graph.n_sites

    @property
    def extended_dim(self) -> int:
        return extended_dimension(self.n_sites)

    def kappa(self, i: int, j: int) -> float:
        key = (i, j) if i <= j else (j, i)
        return self.springs.get(key, 0.0)

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
        return 2.0 * self.graph.locality_function(self.r0) * self.kappa_max / self.m_min

    @property
    def h_norm_bound(self) -> float:
        """Upper bound on ||H|| = sqrt(||A||)."""
        return math.sqrt(self.a_norm_bound)

    def a_oracle(self) -> LocalMatrixOracle:
        """A = M^{-1/2} F M^{-1/2} as a Hermitian PSD local-matrix oracle."""
        masses = self.masses
        neighbors = self.neighbors

        def row_fn(i: int):
            out = []
            diag = 0.0
            for j, kap in neighbors.get(i, ()):
                diag += kap
                if j != i:
                    out.append((j, -kap / math.sqrt(masses[i] * masses[j])))
            if diag != 0.0:
                out.append((i, diag / masses[i]))
            return out

        return local_matrix_from_rows(self.graph, self.r0, row_fn,
                                      norm_bound=self.a_norm_bound,
                                      hermitian=True, psd=True)

    # ---- sparse B and B^T applications -----------------------------------

    def bdag_entry(self, a: int, b: int, z_fn) -> complex:
        """(B^T z)_{(a,b)} for a site-space functional z_fn, a <= b."""
        kap = self.kappa(a, b)
        if kap == 0.0:
            return 0.0 + 0.0j
        if a == b:
            return math.sqrt(kap / self.masses[a]) * z_fn(a)
        return (math.sqrt(kap / self.masses[a]) * z_fn(a)
                - math.sqrt(kap / self.masses[b]) * z_fn(b))

    def b_entry(self, i: int, pair_fn) -> complex:
        """(B w)_i for a pair-space functional pair_fn((a, b))."""
        total = 0.0 + 0.0j
        for j, kap in self.neighbors.get(i, ()):
            root = math.sqrt(kap / self.masses[i])
            if j >= i:
                total += root * pair_fn((i, j))
            else:
                total -= root * pair_fn((j, i))
        return total


def build_system(graph: SiteGraph, masses, springs, r0: int) -> OscillatorSystem:
    """Validate and assemble an oscillator system.

    springs may be a dict {(i, j): kappa} or an iterable of (i, j, kappa);
    orientation is normalized to i <= j and zero springs are dropped.
    """
    masses = np.asarray(masses, dtype=np.float64).ravel()
    if masses.size != graph.n_sites:
        raise ValueError(f"{masses.size} masses for {graph.n_sites} sites")
    if np.any(masses <= 0):
        raise PreconditionError("all masses must be positive")
    if isinstance(springs, dict):
        items = [(i, j, k) for (i, j), k in springs.items()]
    else:
        items = [(i, j, k) for i, j, k in springs]
    norm: dict = {}
    for i, j, kap in items:
        i, j, kap = int(i), int(j), float(kap)
        if kap < 0:
            raise PreconditionError(f"negative spring kappa_({i},{j}) = {kap}")
        if kap == 0.0:
            continue
        key = (i, j) if i <= j else (j, i)
        if key in norm and norm[key] != kap:
            raise PreconditionError(f"conflicting duplicate spring {key}")
        if graph.distance(key[0], key[1]) > r0:
            raise LocalityError(
                f"spring {key} spans distance {graph.distance(*key)} > r0 = {r0}")
        norm[key] = kap
    neighbors: dict = {}
    for (i, j), kap in sorted(norm.items()):
        neighbors.setdefault(i, []).append((j, kap))
        if j != i:
            neighbors.setdefault(j, []).append((i, kap))
    for i in neighbors:
        neighbors[i] = tuple(sorted(neighbors[i]))
    return OscillatorSystem(
        graph=graph, masses=masses, springs=norm, r0=int(r0),
        neighbors=neighbors,
        kappa_max=max(norm.values()) if norm else 0.0,
        m_min=float(masses.min()),
    )


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


def total_energy(sys: OscillatorSystem, state: OscillatorState) -> float:
    """E = 1/2 sum m xdot^2 + 1/2 sum kappa_ii x_i^2 + 1/2 sum_{j>i} kappa_ij (x_i - x_j)^2."""
    if state.x.size != sys.n_sites:
        raise ValueError("state dimension does not match the system")
    e = 0.5 * float(np.sum(sys.masses * state.xdot ** 2))
    for (i, j), kap in sys.springs.items():
        if i == j:
            e += 0.5 * kap * state.x[i] ** 2
        else:
            e += 0.5 * kap * (state.x[i] - state.x[j]) ** 2
    return e


def _scaled_state(sys: OscillatorSystem, state: OscillatorState):
    """(sv, sx) = (sqrt(M) xdot, sqrt(M) x) / sqrt(2E), the blocks of the unit embedding."""
    e = total_energy(sys, state)
    if e <= 0.0:
        raise PreconditionError("zero-energy rest state has no unit embedding")
    s = 1.0 / math.sqrt(2.0 * e)
    return np.sqrt(sys.masses) * state.xdot * s, np.sqrt(sys.masses) * state.x * s


def psi0(sys: OscillatorSystem, state: OscillatorState) -> VectorOracle:
    """The unit vector (1/sqrt(2E)) (sqrt(M) xdot ; i B^T sqrt(M) x) with sq-access."""
    sv, sx = _scaled_state(sys, state)
    entries: dict = {}
    for i in range(sys.n_sites):
        if sv[i] != 0.0:
            entries[i] = complex(sv[i])
    for (a, b), _ in sorted(sys.springs.items()):
        val = sys.bdag_entry(a, b, lambda k: sx[k])
        if val != 0.0:
            entries[pair_index(a, b, sys.n_sites)] = 1j * val
    oracle = sparse_vector_oracle(sys.extended_dim, entries)
    if abs(oracle.norm() - 1.0) > 1e-9:
        raise RuntimeError(f"psi0 norm {oracle.norm()} != 1")
    return oracle


# =====================================================================
# derived vectors
# =====================================================================


def _evolved_blocks(sys: OscillatorSystem, state0: OscillatorState, t: float,
                    eps_poly: float):
    """Site-space blocks of P psi(0) for P = P_exp(H t) within eps_poly of e^{iHt}.

    Returns (a, pcos, psin, top, z): the A oracle, the parity split of P_exp
    on [-||H||, ||H||] into Pcos, Psin on [0, ||A||], and site functions
    with top = Pcos(A) sv - A Psin(A) sx (the velocity block) and
    z = Psin(A) sv + Pcos(A) sx (the pair block is i B^T z), both from one
    memoized poly_rows pass over (Pcos, Psin, x Psin) per site.
    """
    sv, sx = _scaled_state(sys, state0)

    alpha_h = sys.h_norm_bound
    if alpha_h == 0.0:
        alpha_h = 1.0  # springless system: A = 0, any positive scale certifies
    pcos, psin = parity_split(exp_poly(alpha_h, t, eps_poly))
    x_psin = mul_by_x(psin)            # y * Psin(y), realizing A Psin(A)
    a = sys.a_oracle()

    @cache
    def site(i: int) -> tuple[complex, complex]:
        rcos, rsin, rxsin = poly_rows(a, (pcos, psin, x_psin), i)
        return (row_dot(rcos, lambda j: sv[j]) - row_dot(rxsin, lambda j: sx[j]),
                row_dot(rsin, lambda j: sv[j]) + row_dot(rcos, lambda j: sx[j]))

    return a, pcos, psin, (lambda i: site(i)[0]), (lambda i: site(i)[1])


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
    _, _, _, top, z = _evolved_blocks(sys, state0, t, eps / 2.0)
    n = sys.n_sites

    def w_query(idx: int) -> complex:
        if idx < n:
            return top(idx)
        pa, pb = pair_decode(idx, n)
        return 1j * sys.bdag_entry(pa, pb, z)

    w = VectorOracle(dimension=sys.extended_dim, query_fn=cache(w_query), norm=None)
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
    velocity and spring slots.  Each site's entries of w take one poly_rows
    pass over (Pcos, Psin, ptil).  Error budget: eps/4 polynomial, eps/3
    statistical (hence sampler error <= eps/27); the cross terms fit in the
    remainder.
    """
    vset = {int(i) for i in mass_subset}
    for i in vset:
        if not (0 <= i < sys.n_sites):
            raise ValueError(f"mass index {i} out of range")
    xset = set()
    for pair in spring_subset:
        pa, pb = int(pair[0]), int(pair[1])
        if pa > pb:
            pa, pb = pb, pa
        if not (0 <= pa <= pb < sys.n_sites):
            raise ValueError(f"spring pair ({pa},{pb}) out of range")
        xset.add((pa, pb))

    a, pcos, psin, top, z = _evolved_blocks(sys, state0, t, eps / 4.0)
    a0, ptil = divide_out_zero(pcos)   # Pcos(y) = a0 + y * ptil(y)
    n = sys.n_sites

    # top block of P psi0, masked to the selected velocity slots
    def mphi_v(i: int) -> complex:
        return top(i) if i in vset else 0.0 + 0.0j

    # bottom block of P psi0 is B^T phi_x with phi_x = i z, masked to the
    # selected spring slots
    @cache
    def mbx(pair: tuple) -> complex:
        if pair not in xset:
            return 0.0 + 0.0j
        return sys.bdag_entry(pair[0], pair[1], lambda k: 1j * z(k))

    g = cache(lambda i: sys.b_entry(i, mbx))

    # (w_i, h1_i, h2_i): the velocity entry of w, Psin(A) mphi_v and ptil(A) g
    @cache
    def site(i: int) -> tuple[complex, complex, complex]:
        rcos, rsin, rtil = poly_rows(a, (pcos, psin, ptil), i)
        return (row_dot(rcos, mphi_v) - 1j * row_dot(rsin, g),
                row_dot(rsin, mphi_v), row_dot(rtil, g))

    def w_query(idx: int) -> complex:
        if idx < n:
            return site(idx)[0]
        pa, pb = pair_decode(idx, n)
        return (-1j * sys.bdag_entry(pa, pb, lambda i: site(i)[1])
                + a0 * mbx((pa, pb))
                + sys.bdag_entry(pa, pb, lambda i: site(i)[2]))

    w = VectorOracle(dimension=sys.extended_dim, query_fn=cache(w_query), norm=None)
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
    dim = max(rows) + 1
    x = np.zeros(dim)
    xdot = np.zeros(dim)
    for i, (xi, vi) in rows.items():
        x[i] = xi
        xdot[i] = vi
    return OscillatorState(x=x, xdot=xdot)
