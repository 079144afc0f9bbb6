"""PDE front-ends: wave, advection, and single-particle Schrodinger equations
reduced to geometrically local generators on a grid.

Each builder returns lazy oracles, so chain lengths like 2^16 cost nothing
until rows are requested.  Discretizations are the standard second-order
stencils on a uniform grid with spacing a; boundaries may be open or
periodic (periodic keeps the generators exactly Hermitian / anti-Hermitian
and is the default in the CLI).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .access import LocalMatrixOracle, PreconditionError, _row_source
from .lattice import SiteGraph, grid
from .oscillators import OscillatorSystem


# =====================================================================
# stencils on chains and grids, and the graph Laplacian
# =====================================================================


@lru_cache(maxsize=64)
def _stencil_slots(dims: tuple, periodic: bool) -> np.ndarray:
    """Rows (axis, offset, limit, wrap, ring) of the 2D+1 stencil slots on a grid:
    slot k steps along axis[k] to site + offset[k] (increasing in k) unless the
    site's coordinate there is limit[k]; a periodic axis then wraps by wrap[k],
    if ring[k], which is 0 where its length is 2 (backward step) or 1."""
    D, st = len(dims), [math.prod(dims[d + 1:]) for d in range(len(dims))]
    slots = np.array([
        [*range(D), 0, *range(D - 1, -1, -1)],
        [-s for s in st] + [0] + st[::-1],
        [0] * D + [-1] + [n - 1 for n in dims[::-1]],
        [n * s for n, s in zip(dims, st)] + [0] + [-n * s for n, s in zip(dims[::-1], st[::-1])],
        [n > 2 or not periodic for n in dims] + [1] + [n > 1 or not periodic for n in dims[::-1]],
    ])
    slots.flags.writeable = False
    return slots


def _stencil_source(graph: SiteGraph, back, fwd, diag):
    """Block source of a stencil on a chain or grid: back[d] at site - stride_d and
    fwd[d] at site + stride_d along each axis d, diag on the diagonal, where diag
    None puts minus the sum of the row's kept off-diagonal weights (0.0 for none).
    Steps wrap on periodic axes; one of length 2 keeps its forward step alone (both
    reach one site), one of length 1 neither.  A step off an open axis, or a zero
    weight, gives no entry; diag None always does."""
    dims, strides, D = graph._dims, graph._strides, len(graph.dims)
    if not len(back) == len(fwd) == D:
        raise ValueError(f"a stencil on {D} axes needs {D} back and fwd weights")
    weights = np.array([*back, 0.0 if diag is None else diag, *fwd[::-1]])
    weights = weights.astype(np.complex128 if weights.dtype.kind == "c" else np.float64)
    periodic = graph.boundary == "periodic"
    axis, offsets, limit, wrap, ring = _stencil_slots(graph.dims, periodic)
    slot = (weights != 0) & (ring > 0)
    slot[D] |= diag is None
    if periodic and diag is None:   # every slot is kept on every row
        weights[D] = 0.0 - weights[slot].sum()
    centre = np.count_nonzero(slot[:D])
    axis, offsets, limit, wrap, weights = (x[slot] for x in (axis, offsets, limit, wrap, weights))

    def source(sites):
        keep = (sites[:, None] // strides % dims)[:, axis] != limit
        cand = sites[:, None] + offsets
        if periodic:
            cand = np.where(keep, cand, cand + wrap)
            order = np.argsort(cand, axis=1)
            return (np.arange(sites.size + 1) * weights.size,
                    np.take_along_axis(cand, order, axis=1).ravel(), weights[order].ravel())
        vals = np.where(keep, weights, 0.0)
        if diag is None:   # the diagonal's own weight is 0.0 here
            vals[:, centre] = 0.0 - vals.sum(axis=1)
        counts = np.count_nonzero(keep, axis=1)
        return np.concatenate(([0], np.cumsum(counts))), cand[keep], vals[keep]

    return source


def stencil_oracle(graph: SiteGraph, back, fwd, diag, *, norm_bound: float,
                   hermitian: bool = False, anti_hermitian: bool = False) -> LocalMatrixOracle:
    """The 1-local operator on a chain or grid of the stencil with per-axis weights
    back and fwd and diagonal diag (see _stencil_source); zero weights are not stored."""
    if graph.kind == "general":
        raise PreconditionError("a stencil needs a chain or grid")
    return LocalMatrixOracle(graph, 1, _stencil_source(graph, back, fwd, diag),
                             norm_bound=norm_bound, hermitian=hermitian,
                             anti_hermitian=anti_hermitian)


def graph_laplacian_oracle(graph: SiteGraph) -> LocalMatrixOracle:
    """L = D - Adj on distance-1 neighbors; Hermitian, PSD, ||L|| <= 2 (N(1) - 1).
    A stencil on chains and grids; general graphs read their adjacency."""
    if graph.kind == "general":
        def row_fn(i: int):
            nbrs = graph.neighbours(i)
            return [(j, -1.0) for j in nbrs] + [(i, float(len(nbrs)))]
        source = _row_source(row_fn)
    else:
        source = _stencil_source(graph, [-1.0] * len(graph.dims), [-1.0] * len(graph.dims), None)
    bound = 2.0 * (graph.locality_function(1) - 1)
    return LocalMatrixOracle(graph, 1, source, norm_bound=max(bound, 0.0),
                             hermitian=True, psd=True)


# =====================================================================
# wave equation -> oscillators
# =====================================================================


def wave_to_oscillators(laplacian: LocalMatrixOracle, c: float, a: float) -> OscillatorSystem:
    """u_tt = c^2 Lap u on a graph: unit masses with kappa_ij = -(c^2/a^2) L_ij.

    Builds no table and reads no row: the system reads L's block at the
    sites it asks for, when it asks.  A site's springs come from its own row
    of L: kappa_ij = -(c^2/a^2) L_ij at each off-diagonal that gives a
    positive kappa, and a wall spring of (c^2/a^2) times the row sum, added
    in row order, where that exceeds 1e-12 (none for a pure graph Laplacian;
    a confining diagonal gives walls).  A is (c^2/a^2) times L's raw block, on
    the A oracle's own counter, so it equals (c^2/a^2) L up to one rounding
    per entry, and ||A|| <= (c^2/a^2) L.norm_bound.  Every block read, for the
    springs or for A, must be a spring network's rows (real, no off-diagonal
    giving a kappa below -1e-12, no scaled row sum below -1e-12); the first
    read that meets a bad row raises PreconditionError.  L must be declared
    Hermitian and carry a norm_bound, and (c/a)^2 and (c/a)^2 L.norm_bound
    must be finite, with (c/a)^2 > 0.
    """
    if not 0 < a < math.inf:
        raise PreconditionError("grid spacing must be positive and finite")
    if not 0 < c < math.inf:
        raise PreconditionError("wave speed must be positive and finite")
    if not laplacian.hermitian:
        raise PreconditionError("the Laplacian must be declared Hermitian")
    if laplacian.norm_bound is None:
        raise PreconditionError("the Laplacian needs a declared norm_bound")
    scale = (c * c) / (a * a) if a * a > 0 else math.inf
    if not (0 < scale < math.inf and scale * laplacian.norm_bound < math.inf):
        raise PreconditionError(f"(c/a)^2 = {scale!r} must be finite and positive, "
                                f"with a finite bound (c/a)^2 ||L||")

    def checked(sites, indptr, cols, vals):
        """(row, diag, kap, wall) of a block of L: each entry's position in sites,
        whether it is on the diagonal, -scale times its value, and scale times
        each row's sum, added in block order; raises on a row that is no
        spring network's."""
        vals = np.asarray(vals)
        if vals.dtype.kind == "c":
            if not np.all(np.abs(vals.imag) <= 1e-12):
                raise PreconditionError("Laplacian must be real")
            vals = vals.real
        cols = np.asarray(cols, dtype=np.int64)
        row = np.repeat(np.arange(sites.size), np.diff(indptr))
        diag = cols == sites[row]
        kap = -scale * vals
        if not np.all((kap >= -1e-12) | diag):
            k = np.flatnonzero(~((kap >= -1e-12) | diag))[0]
            raise PreconditionError(
                f"positive off-diagonal L_({sites[row[k]]},{cols[k]}) gives a negative spring")
        wall = scale * np.bincount(row, weights=vals, minlength=sites.size)
        if not np.all(wall >= -1e-12):
            raise PreconditionError(f"negative row sum at site {sites[np.argmin(wall >= -1e-12)]}")
        return row, diag, kap, wall

    def springs(sites):
        indptr, cols, vals = laplacian.rows(sites)
        row, diag, kap, wall = checked(sites, indptr, cols, vals)
        # a wall spring takes the diagonal's place among the row's sorted columns
        kap = np.where(diag, wall[row], kap)
        keep = kap > np.where(diag, 1e-12, 0.0)
        if wall.max(initial=0.0) > 1e-12:
            bare = np.flatnonzero((wall > 1e-12)
                                  & (np.bincount(row[diag], minlength=sites.size) == 0))
            if bare.size:   # a row with no diagonal entry: its wall goes in order
                row, cols = np.append(row, bare), np.append(cols, sites[bare])
                kap, keep = np.append(kap, wall[bare]), np.append(keep, True)
                order = np.lexsort((cols, row))
                row, cols, kap, keep = row[order], cols[order], kap[order], keep[order]
        counts = np.bincount(row[keep], minlength=sites.size)
        return np.concatenate(([0], np.cumsum(counts))), cols[keep], kap[keep]

    def a_source(sites):
        indptr, cols, vals = laplacian._source(sites)
        indptr = np.asarray(indptr, dtype=np.int64)
        return indptr, cols, -checked(sites, indptr, cols, vals)[2]

    n = laplacian.dimension
    return OscillatorSystem(laplacian.graph, np.broadcast_to(1.0, n), laplacian.r0, springs,
                            scale * laplacian.norm_bound, a_source=a_source)


# =====================================================================
# advection
# =====================================================================


def advection_hamiltonian(velocity, a: float, n_per_axis: int, D: int,
                          boundary: str = "periodic") -> LocalMatrixOracle:
    """H with e^{-iHt} transporting along the velocity field.

    Central differences per axis: H has +- i v_d / (2a) on the axis-d
    off-diagonals (sign such that H is Hermitian).  Norm bound D * v_max / a.
    """
    if a <= 0:
        raise PreconditionError("grid spacing must be positive")
    if D < 1:
        raise PreconditionError("dimension must be at least 1")
    velocity = np.asarray(velocity, dtype=np.float64).ravel()
    if velocity.size != D:
        raise PreconditionError(f"{velocity.size} velocity components for D={D}")
    if boundary == "periodic" and n_per_axis < 3:
        raise PreconditionError("periodic axes need at least 3 sites")
    # each weight in scalar arithmetic, added to 0.0 so that a zero real part is +0.0
    back, fwd = ([0.0 + sign * 1j * vd / (2.0 * a) for vd in velocity] for sign in (1.0, -1.0))
    return stencil_oracle(grid([n_per_axis] * D, boundary=boundary), back, fwd, 0.0,
                          norm_bound=D * float(np.abs(velocity).max()) / a, hermitian=True)


# =====================================================================
# Schrodinger
# =====================================================================


def schrodinger_hamiltonian(laplacian: LocalMatrixOracle, potential,
                            a: float) -> LocalMatrixOracle:
    """H = L/a^2 + diag(V) for V given as an array over the sites; Hermitian,
    PSD when L is and V >= 0, norm bound ||L||/a^2 + max|V| from L's norm_bound.

    For graph_laplacian_oracle that is 2(N(1) - 1)/a^2 + max|V|.
    """
    if not (a > 0 and a * a > 0 and 1.0 / (a * a) < math.inf):
        raise PreconditionError(f"grid spacing {a:.3g} must be positive, with 1/a^2 finite")
    if laplacian.norm_bound is None:
        raise PreconditionError("the Laplacian needs a declared norm_bound")
    n = laplacian.dimension
    varr = np.asarray(potential, dtype=np.float64).ravel()
    if varr.size != n:
        raise PreconditionError(f"{varr.size} potential values for {n} sites")
    inv_a2 = 1.0 / (a * a)

    def source(sites):
        # L's raw block, not L.rows: this oracle meters the block, on its own counter
        indptr, cols, vals = laplacian._source(sites)
        row = np.repeat(np.arange(sites.size), np.diff(indptr))
        cols, vals = np.asarray(cols, dtype=np.int64), np.asarray(vals) * inv_a2
        diag = cols == sites[row]
        vals[diag] += varr[sites[row[diag]]]
        bare = np.flatnonzero(np.bincount(row[diag], minlength=sites.size) == 0)
        at = np.asarray(indptr)[bare + 1]   # a row with no diagonal entry gets one, at its end
        row, cols = np.insert(row, at, bare), np.insert(cols, at, sites[bare])
        vals = np.insert(vals, at, varr[sites[bare]])
        keep = vals != 0
        counts = np.bincount(row[keep], minlength=sites.size)
        return np.concatenate(([0], np.cumsum(counts))), cols[keep], vals[keep]

    bound = laplacian.norm_bound * inv_a2 + float(np.abs(varr).max())
    psd = float(varr.min()) >= 0.0 and laplacian.psd
    return LocalMatrixOracle(laplacian.graph, laplacian.r0, source, norm_bound=bound,
                             hermitian=True, psd=psd, check_locality=laplacian.check_locality)
