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

import numpy as np

from .access import (LocalMatrixOracle, PreconditionError, _row_source,
                     local_matrix_from_rows)
from .lattice import SiteGraph, grid
from .oscillators import OscillatorSystem


# =====================================================================
# graph Laplacian
# =====================================================================


def _laplacian_source(graph: SiteGraph):
    """Block source of L = D - Adj: -1 at each distance-1 neighbor, the degree on the diagonal.

    Chains and grids step +-1 along each axis of the row-major index, wrapping
    on periodic axes; a periodic axis of length 2 has one neighbor, not two,
    and one of length 1 none.  General graphs read their adjacency.
    """
    if graph.kind == "general":
        def row_fn(i: int):
            nbrs = graph._adj.get(i, ())
            return [(j, -1.0) for j in nbrs] + [(i, float(len(nbrs)))]
        return _row_source(row_fn)
    dims = np.array(graph.dims, dtype=np.int64)
    strides = np.array([math.prod(graph.dims[d + 1:]) for d in range(dims.size)], dtype=np.int64)
    periodic = graph.boundary == "periodic"
    # the columns site - stride_0, ..., site - stride_last, site, site + stride_last,
    # ..., site + stride_0 increase on open axes; a periodic wrap breaks that order
    offsets = np.concatenate((-strides, [0], strides[::-1]))
    wrap = np.concatenate((dims * strides, [0], -(dims * strides)[::-1]))
    # a periodic axis of length 2 has one neighbour, of length 1 none
    ring = np.concatenate((dims > 2, [True], (dims > 1)[::-1]))

    def source(sites):
        coords = sites[:, None] // strides % dims
        first, last = coords == 0, coords == dims - 1
        edge = np.concatenate((first, np.zeros((sites.size, 1), dtype=bool), last[:, ::-1]), axis=1)
        cand = sites[:, None] + offsets
        if periodic:
            cand = np.sort(np.where(edge, cand + wrap, cand)[:, ring], axis=1)
            vals = np.where(cand == sites[:, None], cand.shape[1] - 1.0, -1.0)
            return np.arange(0, cand.size + 1, cand.shape[1]), cand.ravel(), vals.ravel()
        keep = ~edge
        counts = np.count_nonzero(keep, axis=1)
        vals = np.full(cand.shape, -1.0)
        vals[:, dims.size] = counts - 1.0
        return np.concatenate(([0], np.cumsum(counts))), cand[keep], vals[keep]

    return source


def graph_laplacian_oracle(graph: SiteGraph) -> LocalMatrixOracle:
    """L = D - Adj on distance-1 neighbors; Hermitian, PSD, ||L|| <= 2 (N(1) - 1)."""
    bound = 2.0 * (graph.locality_function(1) - 1)
    return LocalMatrixOracle(graph, 1, _laplacian_source(graph), norm_bound=max(bound, 0.0),
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
    Hermitian and carry a norm_bound.
    """
    if not 0 < a < math.inf:
        raise PreconditionError("grid spacing must be positive and finite")
    if not 0 < c < math.inf:
        raise PreconditionError("wave speed must be positive and finite")
    if not laplacian.hermitian:
        raise PreconditionError("the Laplacian must be declared Hermitian")
    if laplacian.norm_bound is None:
        raise PreconditionError("the Laplacian needs a declared norm_bound")
    scale = (c * c) / (a * a)

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
    g = grid([n_per_axis] * D, boundary=boundary)

    def row_fn(i: int):
        coords = g.site_coords(i)
        entries: dict = {}
        for d in range(D):
            vd = velocity[d]
            if vd == 0.0:
                continue
            for step, sign in ((1, -1.0), (-1, 1.0)):
                c = coords[d] + step
                if boundary == "periodic":
                    c %= n_per_axis
                elif not (0 <= c < n_per_axis):
                    continue
                j = g.coords_site(coords[:d] + (c,) + coords[d + 1:])
                entries[j] = entries.get(j, 0.0) + sign * 1j * vd / (2.0 * a)
        return [(j, v) for j, v in entries.items() if v != 0]

    vmax = float(np.abs(velocity).max()) if velocity.size else 0.0
    return local_matrix_from_rows(g, 1, row_fn, norm_bound=D * vmax / a,
                                  hermitian=True)


# =====================================================================
# Schrodinger
# =====================================================================


def schrodinger_hamiltonian(laplacian: LocalMatrixOracle, potential,
                            a: float) -> LocalMatrixOracle:
    """H = L/a^2 + diag(V) for V given as an array over the sites; Hermitian,
    PSD when L is and V >= 0, norm bound ||L||/a^2 + max|V| from L's norm_bound.

    For graph_laplacian_oracle that is 2(N(1) - 1)/a^2 + max|V|.
    """
    if a <= 0:
        raise PreconditionError("grid spacing must be positive")
    if laplacian.norm_bound is None:
        raise PreconditionError("the Laplacian needs a declared norm_bound")
    n = laplacian.dimension
    varr = np.asarray(potential, dtype=np.float64).ravel()
    if varr.size != n:
        raise PreconditionError(f"{varr.size} potential values for {n} sites")
    inv_a2 = 1.0 / (a * a)

    def row_fn(i: int):
        entries = {j: v * inv_a2 for j, v in laplacian.row(i)}
        entries[i] = entries.get(i, 0.0) + float(varr[i])
        return [(j, v) for j, v in entries.items() if v != 0]

    bound = laplacian.norm_bound * inv_a2 + float(np.abs(varr).max())
    psd = float(varr.min()) >= 0.0 and laplacian.psd
    return local_matrix_from_rows(laplacian.graph, laplacian.r0, row_fn,
                                  norm_bound=bound, hermitian=True, psd=psd)
