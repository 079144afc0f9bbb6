"""Light-cone-restricted computation of entries of P(A)u.

For an (r0, N)-geometrically local A, (A^k u)_j depends only on u on
ball(j, k*r0) and on the rows of A there, so a single entry of P(A)u for a
degree-d polynomial touches only ball(i, d*r0): the whole computation is
independent of the total site count.

One kernel, window_entries, serves every pipeline: it returns the entries
(P(A) x)_i of several polynomials applied to several vectors x at a batch of
origins i.  Each chunk of sorted distinct origins runs one forward
recurrence over its Window: the sites within d hops of any origin, laid out
hop-major (the origins, then the sites first reached at hop 1, and so on,
each hop's in increasing order), so the sites within h hops are a prefix.
The window fetches each row within d-1 hops once, one metered A.rows block
per hop.  The caller gives its vectors at the window's sites; step k of the
monomial or Chebyshev recurrence computes y_k only on the sites within
d - k hops, which is all the origins' entries can depend on, and each
polynomial accumulates c_k y_k at the origins alone.  A window costs
sum_k N(k r0) row sums for the union of its origins' cones, however much
the cones overlap.

Each row sums its products from 0 in column order, one column slot at a
time, and every complex product is formed from real parts as CPython forms
it, so y_k(j) depends only on the vectors on ball(j, k r0) and on the rows
of A there, and so does its rounding: every entry is bit-identical whatever
the batch, the chunking, the other polynomials and vectors of the pass, or
the lattice it is embedded in, and results are bit-deterministic.  The only
truncation anywhere is a hard-zero drop at 1e-300 after each step, to stop
denormal buildup.  Chunks keep the working memory under CONE_BYTES: a window
is never larger than the sum of its origins' cones.

SiteMemo is the one memo of batch reads.  Through one, entries_of_poly_apply
queries u once at each distinct window site, in increasing order, across
chunks, and poly_apply_query_oracle answers w's queries.  poly_rows and
row_power are the batch of one origin with the identity over its window.
"""

from __future__ import annotations

import numpy as np

from .access import LocalMatrixOracle, PreconditionError, VectorOracle
from .polyapprox import Polynomial

HARD_ZERO = 1e-300
CONE_BYTES = 32 * 2 ** 20  # working memory of one chunk of origins
# an origin's share of it: bytes per A entry of its cone (index, value and
# part arrays, a step's products) and per site for each polynomial (the
# recurrence's vectors); a window is never larger than the sum of its
# origins' cones, and measured peaks stay under what these constants allow
ENTRY_BYTES, SITE_BYTES = 256, 256


def _hard_zero(vec: np.ndarray) -> np.ndarray:
    vec[np.abs(vec) < HARD_ZERO] = 0.0
    return vec


def _parts(c: np.ndarray):
    """(re, im) of complex c for _product: (Re c, Re c) and (-Im c, Im c) on a last
    axis, after a new axis for the vectors."""
    re = np.stack((c.real, c.real), axis=-1)[..., None, :]
    im = np.stack((-c.imag, c.imag), axis=-1)[..., None, :]
    return re, im


def _product(re: np.ndarray, im: np.ndarray, z: np.ndarray) -> np.ndarray:
    """c z for the _parts (re, im) of c and a C-contiguous complex z.

    Each part is formed from real products as CPython forms a complex product,
    Re c Re z - Im c Im z and Re c Im z + Im c Re z, so it rounds the same
    for every shape; numpy's complex multiply fuses some of them depending on
    the shape, which would make an entry depend on its batch.
    """
    f = z.view(np.float64).reshape(z.shape + (2,))
    out = re * f
    out += im * f[..., ::-1]
    return out.view(np.complex128)[..., 0]


def _real(z: np.ndarray) -> np.ndarray:
    return z.view(np.float64)


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, increasing (np.unique without its overhead)."""
    x = np.sort(x)
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


class SiteMemo:
    """Values at sites, computed in batches and kept: the memo of batch reads.

    The store is the held sites as a sorted int64 array and their values as
    an (n, width) complex array, row k at sites[k].  at(sites) computes the
    distinct sites it does not hold, in increasing order, with one fill(new)
    call, which returns their rows as a (len(new), width) array; then it
    returns the rows at sites in the order asked, repeats included.  Nothing
    is filled when every site is held or none is asked.
    """

    def __init__(self, fill, width: int):
        self.fill = fill
        self.sites = np.zeros(0, dtype=np.int64)
        self.values = np.zeros((0, width), dtype=np.complex128)

    def at(self, sites) -> np.ndarray:
        sites = np.asarray(sites, dtype=np.int64)
        new = _distinct(sites)
        if self.sites.size:
            held = np.minimum(np.searchsorted(self.sites, new), self.sites.size - 1)
            new = new[self.sites[held] != new]
        if new.size:
            k = np.searchsorted(self.sites, new)
            width = self.values.shape[1]
            # one insert into the flat store: an insert along axis 0 of the 2-d
            # store would index it with a position array as large as the store
            self.values = np.insert(self.values.ravel(), np.repeat(k * width, width),
                                    np.ravel(self.fill(new))).reshape(-1, width)
            self.sites = np.insert(self.sites, k, new)
        return self.values[np.searchsorted(self.sites, sites)]


class Window:
    """The sites within `depth` row-hops of a sorted set of origins, and the rows of A there.

    Hop h < depth fetches, in one A.rows call, the rows of the sites first
    reached at hop h, so each row within depth - 1 hops is fetched once.
    sites lists the window hop-major: the origins, then the sites first
    reached at hop 1 in increasing order, and so on, so the sites within h
    hops are the prefix [:sizes[h]].  The fetched rows are kept by window
    position, one column slot per row of cols and vals: entry t of row r is
    (cols[t, r], vals[t, r]), the entries of a row in increasing column
    order, a shorter row padded with value 0 at position len(sites), where
    a step's vector holds 0.
    """

    def __init__(self, A: LocalMatrixOracle, origins, depth: int):
        at = [int(i) for i in origins]
        reached, frontier = set(at), at
        counts, blocks = [len(at)], []   # sites first reached at each hop; rows per hop
        for _ in range(depth):
            if not frontier:
                break
            indptr, cols, vals = A.rows(frontier)
            blocks.append((indptr[1:] - indptr[:-1], cols, vals))
            frontier = sorted(set(cols.tolist()) - reached)
            reached.update(frontier)
            at += frontier
            counts.append(len(frontier))
        self.depth = depth
        self.sites = np.array(at, dtype=np.int64)
        self.sizes = np.cumsum(counts + [0] * (depth + 1 - len(counts)))
        lens, cols, vals = (np.concatenate([np.zeros(0, dtype=dt)] + [b[n] for b in blocks])
                            for n, dt in enumerate((np.int64, np.int64, np.complex128)))
        order = np.argsort(self.sites)
        slot = np.arange(cols.size) - np.repeat(np.cumsum(lens) - lens, lens)
        row = np.repeat(np.arange(lens.size), lens)
        width = int(lens.max(initial=0))
        self.cols = np.full((width, lens.size), self.sites.size, dtype=np.int64)
        self.cols[slot, row] = order[np.searchsorted(self.sites, cols, sorter=order)]
        self.vals = np.zeros((width, lens.size), dtype=np.complex128)
        self.vals[slot, row] = vals
        self._re, self._im = _parts(self.vals)

    def times_a(self, y: np.ndarray, k: int) -> np.ndarray:
        """Step k of a recurrence: (A y) on the sites within depth - k hops, hard-zeroed.

        y holds one vector per column at the window positions, valid within
        depth - k + 1 hops, and 0 at the padding position.  Each row is
        summed from 0, one column slot at a time, so its rounding is that of
        a sequential sum in column order, whatever the vectors' count.
        """
        rows = self.sizes[self.depth - k]
        terms = _product(self._re[:, :rows], self._im[:, :rows], y[self.cols[:, :rows]])
        out = np.zeros((rows, y.shape[1]), dtype=np.complex128)
        for term in terms:   # slot by slot: a sequential sum of each row
            out += term
        return _hard_zero(out)


def _check_interval(A: LocalMatrixOracle, p: Polynomial):
    if p.basis != "chebyshev":
        return
    if A.norm_bound is None:
        raise PreconditionError("Chebyshev application needs a declared norm_bound")
    lo, hi = p.interval
    slack = 1e-9 * max(1.0, abs(hi))
    if p.is_symmetric_interval:
        if p.alpha + slack < A.norm_bound:
            raise PreconditionError(
                f"basis scale {p.alpha} smaller than norm bound {A.norm_bound}")
        return
    if abs(lo) <= slack:
        if not A.psd:
            raise PreconditionError(
                "interval [0, hi] certified only for matrices declared psd")
        if hi + slack < A.norm_bound:
            raise PreconditionError(
                f"interval top {hi} smaller than norm bound {A.norm_bound}")
        return
    raise PreconditionError(
        f"cannot certify spectrum inside interval [{lo}, {hi}]")


def _chunk_size(A: LocalMatrixOracle, degree: int, n_polys: int) -> int:
    """How many origins one Window may hold within CONE_BYTES.

    An origin's cone holds at most N(d r0) sites and N((d-1) r0) rows of at
    most N(r0) entries each.
    """
    graph = A.graph
    n_sites = graph.locality_function(degree * A.r0)
    per_origin = n_sites * (graph.locality_function(A.r0) * ENTRY_BYTES
                            + (n_polys + 1) * SITE_BYTES)
    return max(1, CONE_BYTES // per_origin)


def window_entries(A: LocalMatrixOracle, polys, sites, vectors):
    """The entries (P(A) x)_i of each polynomial P and vector x at the distinct sites.

    Returns (origins, values): origins the sorted distinct sites and
    values[n, o, v] = (P_n(A) x_v) at origins[o].  Each chunk of origins is
    one Window grown to the largest degree; vectors(window) gives the vectors
    at its sites as an (m, n_vec) array.  Monomial basis runs
    y_k = A y_{k-1}; Chebyshev runs the three-term recurrence on
    Abar = (2A - (hi+lo)I) / (hi-lo).  The polynomials must share one basis
    and, for Chebyshev, one interval.  Degree 0 never queries A.
    """
    polys = tuple(polys)
    if len({p.basis for p in polys}) > 1:
        raise PreconditionError("polynomials of one pass must share a basis")
    if polys[0].basis == "chebyshev" and len({p.interval for p in polys}) > 1:
        raise PreconditionError("Chebyshev polynomials of one pass must share an interval")
    origins = _distinct(np.asarray(sites, dtype=np.int64))
    for end in origins[:1].tolist() + origins[-1:].tolist():
        if not (0 <= end < A.dimension):
            raise ValueError(f"site {end} out of range")
    _check_interval(A, polys[0])
    degree = max(p.degree for p in polys)
    size = _chunk_size(A, degree, len(polys)) if origins.size > 1 else 1
    values = []
    # an empty batch runs one empty window, so values has the vectors' count
    for at in range(0, max(origins.size, 1), size):
        window = Window(A, origins[at:at + size].tolist(), degree)
        values.append(_poly_entries(window, polys, vectors(window)))
    return origins, np.concatenate(values, axis=1)


def _poly_entries(window: Window, polys, x) -> np.ndarray:
    """values[n, o, v] = (P_n(A) x_v) at the window's origin o; x holds the vectors
    at the window's sites, one per column."""
    d, n_o = window.depth, window.sizes[0]
    coef = np.zeros((len(polys), d + 1), dtype=np.complex128)
    for n, p in enumerate(polys):
        coef[n, :p.degree + 1] = p.coefficients
    live = coef != 0                   # live[:, k]: the polynomials c_k updates
    full, some = live.all(axis=0).tolist(), live.any(axis=0).tolist()
    re, im = _parts(coef)
    lo, hi = polys[0].interval
    delta, s = hi - lo, hi + lo
    # y_{k-2}, y_{k-1}, y_k; one row more than the window, the padding position's 0
    prev, cur, nxt = (np.zeros((len(window.sites) + 1, x.shape[1]), dtype=np.complex128)
                      for _ in range(3))
    cur[:-1] = x
    acc = _product(re[:, 0, None], im[:, 0, None], cur[:n_o])
    for k in range(1, d + 1):
        within = window.sizes[d - k]
        ay = window.times_a(cur, k)
        if polys[0].basis == "monomial":
            nxt[:within] = ay
        else:   # real arithmetic on the parts, as in _product
            step = _hard_zero(((2.0 * _real(ay) - s * _real(cur[:within])) / delta)
                              .view(np.complex128))
            nxt[:within] = (_hard_zero((2.0 * _real(step) - _real(prev[:within]))
                                       .view(np.complex128)) if k > 1 else step)
        prev, cur, nxt = cur, nxt, prev
        if full[k]:
            acc = _hard_zero(acc + _product(re[:, k, None], im[:, k, None], cur[:n_o]))
        elif some[k]:
            on = live[:, k]
            acc[on] = _hard_zero(acc[on] + _product(re[on, k, None], im[on, k, None],
                                                    cur[:n_o]))
    return acc


def poly_rows(A: LocalMatrixOracle, polys, i: int) -> list[dict]:
    """The row functionals e_i^T P(A), one {site: value} dict per polynomial, sites
    increasing: the batch of one origin with the identity over its window as the vectors."""
    held = []

    def identity(window):
        held.append(window.sites)
        return np.eye(window.sites.size, dtype=np.complex128)

    _, values = window_entries(A, polys, [i], identity)
    sites = held[0]
    order = np.argsort(sites)
    rows = []
    for row in values[:, 0, order]:
        nz = np.flatnonzero(row)
        rows.append(dict(zip(sites[order[nz]].tolist(), row[nz].tolist())))
    return rows


def row_power(A: LocalMatrixOracle, i: int, k: int) -> dict:
    """The sparse row e_i^T A^k as {site: value}, supported inside ball(i, k*r0)."""
    if k < 0:
        raise PreconditionError("power must be nonnegative")
    return poly_rows(A, (Polynomial((0.0,) * int(k) + (1.0,)),), i)[0]


def entries_of_poly_apply(A: LocalMatrixOracle, p: Polynomial, u: VectorOracle,
                          sites) -> np.ndarray:
    """The entries (P(A)u)_i at the given sites, touching only their light cones.

    u is queried once at each distinct window site, in increasing order
    within a chunk; a site an earlier chunk's window held is not queried again.
    """
    if A.dimension != u.dimension:
        raise PreconditionError("matrix and vector dimensions differ")
    sites = np.asarray(sites, dtype=np.int64)
    u_memo = SiteMemo(lambda new: u.query_many(new.tolist())[:, None], 1)
    origins, values = window_entries(A, (p,), sites, lambda window: u_memo.at(window.sites))
    return values[0, np.searchsorted(origins, sites), 0]


def entry_of_poly_apply(A: LocalMatrixOracle, p: Polynomial, u: VectorOracle,
                        i: int) -> complex:
    """The single entry (P(A)u)_i: the batch of one."""
    return complex(entries_of_poly_apply(A, p, u, [i])[0])


def poly_apply_query_oracle(A: LocalMatrixOracle, p: Polynomial,
                            u: VectorOracle) -> VectorOracle:
    """Query access to w = P(A)u with per-index memoization; no sampler, no norm.

    query_many answers the indices not yet known from one batched pass.
    Repeated queries of the same index issue the underlying A/u queries once.
    """
    _check_interval(A, p)
    memo = SiteMemo(lambda new: entries_of_poly_apply(A, p, u, new)[:, None], 1)
    # fresh counter: reads of w are not reads of u; A/u meter themselves inside
    return VectorOracle(dimension=A.dimension, query_fn=lambda i: memo.at([i])[0, 0],
                        norm=None, zeta=0.0, many_fn=lambda sites: memo.at(sites)[:, 0])
