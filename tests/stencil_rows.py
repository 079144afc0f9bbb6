"""Row callables of the chain and grid operators, one site at a time, for
local_matrix_from_rows: the reference that the numpy stencil blocks of
glsim.pde and the CLI's tridiagonal matrix are checked against."""

import numpy as np


def laplacian_rows(graph):
    """-1 at each site of graph.ball(i, 1) but i, and their count on the diagonal."""
    def row_fn(i: int):
        nbrs = [j for j in graph.ball(i, 1) if j != i]
        return [(j, -1.0) for j in nbrs] + [(i, float(len(nbrs)))]
    return row_fn


def schrodinger_rows(laplacian, potential, a: float):
    """Row i of L/a^2 + diag(V) from laplacian.row(i), entries that sum to 0 dropped."""
    varr = np.asarray(potential, dtype=np.float64).ravel()
    inv_a2 = 1.0 / (a * a)

    def row_fn(i: int):
        entries = {j: v * inv_a2 for j, v in laplacian.row(i)}
        entries[i] = entries.get(i, 0.0) + float(varr[i])
        return [(j, v) for j, v in entries.items() if v != 0]
    return row_fn


def advection_rows(graph, velocity, a: float):
    """Row i of the central-difference advection generator on graph: -+ i v_d / (2a)
    at the forward and backward neighbours along axis d, each added to 0.0."""
    velocity = np.asarray(velocity, dtype=np.float64).ravel()
    n_per_axis = graph.dims[0]

    def row_fn(i: int):
        coords = graph.site_coords(i)
        entries: dict = {}
        for d in range(velocity.size):
            vd = velocity[d]
            if vd == 0.0:
                continue
            for step, sign in ((1, -1.0), (-1, 1.0)):
                c = coords[d] + step
                if graph.boundary == "periodic":
                    c %= n_per_axis
                elif not (0 <= c < n_per_axis):
                    continue
                j = graph.coords_site(coords[:d] + (c,) + coords[d + 1:])
                entries[j] = entries.get(j, 0.0) + sign * 1j * vd / (2.0 * a)
        return [(j, v) for j, v in entries.items() if v != 0]
    return row_fn


def tridiagonal_rows(n: int, diag: float, off: float, factor: complex):
    """Row i of the CLI's tridiagonal matrix: factor * off beside the diagonal,
    factor * diag on it unless diag is 0."""
    def row_fn(i: int):
        out = []
        if i > 0:
            out.append((i - 1, factor * off))
        if diag != 0.0:
            out.append((i, factor * diag))
        if i < n - 1:
            out.append((i + 1, factor * off))
        return out
    return row_fn
