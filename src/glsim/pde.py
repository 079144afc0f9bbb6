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
from .oscillators import OscillatorSystem, build_system


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
    dims = graph.dims
    strides = [math.prod(dims[d + 1:]) for d in range(len(dims))]
    periodic = graph.boundary == "periodic"

    def source(sites):
        cand = [sites]
        for L, stride in zip(dims, strides):
            c = sites // stride % L
            if periodic and L > 1:
                cand.append(np.where(c == L - 1, sites - (L - 1) * stride, sites + stride))
                if L > 2:
                    cand.append(np.where(c == 0, sites + (L - 1) * stride, sites - stride))
            elif not periodic:
                cand.append(np.where(c > 0, sites - stride, -1))        # -1: no neighbor
                cand.append(np.where(c < L - 1, sites + stride, -1))
        cand = np.sort(np.stack(cand, axis=1), axis=1)
        keep = cand >= 0
        counts = keep.sum(axis=1)
        cols = cand[keep]
        vals = np.where(cols == np.repeat(sites, counts), np.repeat(counts - 1.0, counts), -1.0)
        return np.concatenate(([0], np.cumsum(counts))), cols, vals

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

    Wall springs come from row sums (zero for a pure graph Laplacian, positive
    when the input carries a confining diagonal).  The resulting A equals
    (c^2/a^2) L exactly.
    """
    if not 0 < a < math.inf:
        raise PreconditionError("grid spacing must be positive and finite")
    if not 0 < c < math.inf:
        raise PreconditionError("wave speed must be positive and finite")
    scale = (c * c) / (a * a)
    n = laplacian.dimension
    indptr, j, v = laplacian.rows(np.arange(n))
    i = np.repeat(np.arange(n), np.diff(indptr))
    if not np.all(np.abs(v.imag) <= 1e-12):
        raise PreconditionError("Laplacian must be real")
    kap = -scale * v.real
    upper = j > i
    bad = np.flatnonzero(upper & ~(kap >= -1e-12))
    if bad.size:
        raise PreconditionError(
            f"positive off-diagonal L_({i[bad[0]]},{j[bad[0]]}) gives a negative spring")
    wall = scale * np.bincount(i, weights=v.real, minlength=n)  # row sums, in row order
    bad = np.flatnonzero(~(wall >= -1e-12))
    if bad.size:
        raise PreconditionError(f"negative row sum at site {bad[0]}")
    upper &= kap > 0
    walls = np.flatnonzero(wall > 1e-12)
    springs = np.concatenate((np.column_stack((i[upper], j[upper], kap[upper])),
                              np.column_stack((walls, walls, wall[walls]))))
    return build_system(laplacian.graph, np.ones(n), springs, laplacian.r0)


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
