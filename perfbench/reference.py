"""Exact references for the benchmark's correctness checks, in numpy only.

Nothing here imports glsim.  Each reference builds the generator on a finite
window of sites straight from the workload's own formulas (hopping of 1 to
nearest neighbours plus an on-site term, or the grid Laplacian), takes its
full eigendecomposition with ``numpy.linalg.eigh``, and evolves exactly.  The
window is a principal submatrix of the infinite-lattice generator; it is
chosen wide enough that the evolved vector is negligible at its edge, so the
cut does not reach the sites that are compared.
"""

from __future__ import annotations

import numpy as np


def chain_hamiltonian(lo: int, hi: int, potential) -> np.ndarray:
    """Hopping 1 between neighbours plus diag(potential) on sites lo..hi."""
    sites = np.arange(lo, hi + 1)
    h = np.diag(potential(sites).astype(np.float64))
    off = np.ones(sites.size - 1)
    return h + np.diag(off, 1) + np.diag(off, -1)


def grid_hamiltonian(x0: int, y0: int, side: int, potential) -> np.ndarray:
    """Hopping 1 between grid neighbours plus diag(potential(x, y)) on a side x side window.

    Window site (a, b) has global coordinates (x0 + a, y0 + b) and window
    index a * side + b.
    """
    a, b = np.divmod(np.arange(side * side), side)
    h = np.diag(potential(x0 + a, y0 + b).astype(np.float64))
    idx = np.arange(side * side).reshape(side, side)
    for p, q in ((idx[:-1, :], idx[1:, :]), (idx[:, :-1], idx[:, 1:])):
        h[p.ravel(), q.ravel()] = 1.0
        h[q.ravel(), p.ravel()] = 1.0
    return h


def grid_laplacian(side: int) -> np.ndarray:
    """The interior block of the grid Laplacian D - Adj: degree 4 on the diagonal."""
    h = grid_hamiltonian(0, 0, side, lambda x, y: np.full(x.shape, 4.0))
    h[h == 1.0] = -1.0
    return h


def evolve(h: np.ndarray, u: np.ndarray, t: float) -> np.ndarray:
    """exp(i h t) u for real symmetric h."""
    w, q = np.linalg.eigh(h)
    return q @ (np.exp(1j * w * t) * (q.T @ u))


def wave(lap: np.ndarray, x0: np.ndarray, xdot0: np.ndarray, times):
    """Exact x(t), xdot(t) of x'' = -lap x for each t.

    x(t) = cos(sqrt(L) t) x0 + sin(sqrt(L) t)/sqrt(L) xdot0 and its derivative,
    from one eigendecomposition of the window Laplacian.
    """
    w, q = np.linalg.eigh(lap)
    w = np.clip(w, 0.0, None)
    root = np.sqrt(w)
    c0, d0 = q.T @ x0, q.T @ xdot0
    out = []
    for t in times:
        cos, sin = np.cos(root * t), np.sin(root * t)
        sinc = np.where(root > 0, sin / np.where(root > 0, root, 1.0), t)
        x = q @ (cos * c0 + sinc * d0)
        xdot = q @ (-root * sin * c0 + cos * d0)
        out.append((x, xdot))
    return out
