"""Light-cone-restricted computation of rows of P(A) and entries of P(A)u.

For an (r0, N)-geometrically local A, the row functional e_i^T A^k is
supported inside ball(i, k*r0), so a single entry of P(A)u for a degree-d
polynomial touches only ball(i, d*r0): the whole computation is independent
of the total site count.

One kernel, cone_rows, serves every pipeline: it returns the rows e_i^T P(A)
of several polynomials for a batch of origins i.  One LightCone per chunk of
origins fetches each row within d-1 hops of any of them once, one metered
A.rows block per hop, and keeps each origin's own cone in one long vector
laid out hop-major: by the hop from the origin, then by origin, then by
site.  The sites within k hops of their origins are a prefix of it, and the
cone's entries, sorted by (column, row site), hold the columns within k
hops as a prefix too.  So step k of the recurrence touches only the sites
within k hops: a gather, a multiply and an np.add.reduceat over that prefix
of the entries, which is where row k of the recurrence can be nonzero.  A
cone costs sum_k N(k r0) terms, not d N(d r0), and each column sums exactly
the terms a cone of its origin alone would sum, in the same order.  The
only truncation anywhere is a hard-zero drop at 1e-300 after each step, to
stop denormal buildup.  Chunks keep the working memory under CONE_BYTES.

entries_of_poly_apply meets the rows with u: it queries u once at each
distinct site where some row is nonzero, in increasing site order, and
row_dots sums each row's products in site order with the rounding of a
Python loop, so a batch gives each entry bit for bit as the batch of one
does.  Every order the kernel uses depends only on the sites' relative
positions, so results are bit-deterministic, and a local pattern embedded
into a larger lattice gives the same value and the same query counts.
"""

from __future__ import annotations

import numpy as np

from .access import LocalMatrixOracle, PreconditionError, VectorOracle
from .polyapprox import Polynomial

HARD_ZERO = 1e-300
CONE_BYTES = 32 * 2 ** 20  # working memory of one chunk of origins
# an origin's share of it: bytes per A entry of its cone (index and value
# arrays, step tables, temporaries) and per site for each polynomial's
# vectors; measured peaks stay under half of what these constants allow
ENTRY_BYTES, SITE_BYTES = 256, 256


def _hard_zero(vec: np.ndarray) -> np.ndarray:
    vec[np.abs(vec) < HARD_ZERO] = 0.0
    return vec


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, increasing (np.unique without its overhead)."""
    x = np.sort(x)
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The concatenated index ranges [starts[k], starts[k] + lens[k])."""
    ends = np.cumsum(lens)
    return np.repeat(starts - ends + lens, lens) + np.arange(ends[-1] if ends.size else 0)


class LightCone:
    """The rows of A within `hops` row-hops of each of a sorted set of origins.

    Hop h fetches, in one A.rows call, the sites first reached at hop h from
    any origin, in increasing order, so each row is fetched once per cone.
    The cone is one long vector of (origin, site) pairs, origin o's pairs
    being its own cone: the sites within hops + 1 hops of it.  The vector is
    laid out hop-major, by the hop from the pair's own origin, then by
    origin, then by site, so the pairs within k hops are the prefix
    [:sizes[k]] and the origins are the prefix [:sizes[0]].  The entries are
    sorted by (column position, site of the row), so the columns within k
    hops hold a prefix of them, and step k of a recurrence from the origins
    touches only the sites within k hops.  sites and offsets list the pairs
    origin by origin, origin o's segment sites[offsets[o]:offsets[o + 1]]
    in increasing site order, and order[j] is the position of pair j.  Each
    entry keeps the hop its row lies at from its own origin, so the cone
    also serves every smaller depth.  With one origin the fetch order is
    the hop order, and the per-origin reach pass is skipped.
    """

    def __init__(self, A: LocalMatrixOracle, origins, hops: int):
        origins = [int(i) for i in origins]
        reached, frontier = set(origins), origins
        fetched, lens, blocks = [], [], []   # each row's site and length; each hop's (cols, vals)
        counts = [len(origins)]              # how many sites each hop first reaches
        for _ in range(hops + 1):
            if not frontier:
                break
            indptr, cols, vals = A.rows(frontier)
            ends = indptr.tolist()
            fetched += frontier
            lens += [b - a for a, b in zip(ends, ends[1:])]
            blocks.append((cols, vals))
            frontier = sorted(set(cols.tolist()) - reached)
            reached.update(frontier)
            counts.append(len(frontier))
        union = np.array(sorted(reached), dtype=np.int64)
        cols = np.concatenate([np.zeros(0, dtype=np.int64)] + [c for c, _ in blocks])
        vals = np.concatenate([np.zeros(0, dtype=np.complex128)] + [v for _, v in blocks])
        if len(origins) == 1:
            at = np.array(fetched + frontier, dtype=np.int64)   # each position's site
            self.order = np.argsort(at)
            self.sites, self.offsets = union, np.array([0, union.size])
            dist = np.repeat(np.arange(len(counts)), counts)
            cols = self.order[np.searchsorted(union, cols)]
            rows = np.repeat(np.arange(len(fetched)), lens)
            key = at[rows]
        else:
            dist, cols, rows, key, vals = self._reach(union, origins, fetched, lens, cols,
                                                      vals, hops)
        self.sizes = np.searchsorted(dist, np.arange(hops + 2), side="right")
        # sorted by (col, row site): each column's rows in increasing site order;
        # one array at a time, so the unsorted copy is freed as the sorted one is made
        by_col = np.lexsort((key, cols))
        del key
        self._cols = cols[by_col]
        self._rows = rows = rows[by_col]
        self._hops = dist[rows]
        self._vals = vals[by_col]
        self._steps: dict = {}

    def _reach(self, union, origins, fetched, lens, cols, vals, hops):
        """Lay out each origin's own cone by a breadth-first pass over the fetched rows.

        A pair (origin o, site s) is keyed o * len(union) + s's index in union.
        The pass finds the keys hop by hop, each hop's increasing, so their
        concatenation is the hop-major layout.  Sets sites, offsets and order;
        returns each position's hop and the entries' (col position, row
        position, row site index, value), one copy of a row per origin whose
        cone holds it.
        """
        n, k = union.size, len(origins)
        local = np.searchsorted(union, np.array(fetched, dtype=np.int64))
        lens = np.array(lens, dtype=np.int64)
        starts, lengths = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        lengths[local] = lens
        starts[local] = np.cumsum(lens) - lens
        col_local = np.searchsorted(union, cols)
        front = seen = np.arange(k) * n + np.searchsorted(union, origins)
        keys, dist = [front], [np.zeros(k, dtype=np.int64)]
        for h in range(1, hops + 2):
            owner, site = np.divmod(front, n)
            new = _distinct(np.repeat(owner, lengths[site]) * n
                            + col_local[_ranges(starts[site], lengths[site])])
            at = np.minimum(np.searchsorted(seen, new), seen.size - 1)
            front = new[seen[at] != new]
            if front.size == 0:
                break
            seen = np.sort(np.concatenate((seen, front)))
            keys.append(front)
            dist.append(np.full(front.size, h))
        keys, dist = np.concatenate(keys), np.concatenate(dist)
        self.order = np.argsort(keys)
        ordered = keys[self.order]
        self.sites = union[ordered % n]
        self.offsets = np.searchsorted(ordered, np.arange(k + 1) * n)
        held = int(np.searchsorted(dist, hops, side="right"))   # the pairs whose rows the cone holds
        owner, site = np.divmod(keys[:held], n)
        take = _ranges(starts[site], lengths[site])
        per = lengths[site]
        cols = self.order[np.searchsorted(ordered, np.repeat(owner, per) * n + col_local[take])]
        return dist, cols, np.repeat(np.arange(held), per), np.repeat(site, per), vals[take]

    def times_a(self, vec: np.ndarray, hops: int, k: int) -> np.ndarray:
        """Step k of a recurrence from the origins: (vec^T A)[:sizes[k]].

        vec vanishes beyond k - 1 hops, so every column further out than k
        hops is zero and the step touches only the sites within k hops: the
        columns [:sizes[k]] and the prefix of the entries that holds them,
        over the rows each origin's cone holds `hops` deep.  Each column sums
        its rows in row-site order.  reduceat's rounding depends on how many
        terms a column holds, so a column sums exactly the rows a one-origin
        cone of that depth would hold.
        """
        if hops not in self._steps:
            keep = self._hops <= hops
            rows, cols, vals = self._rows, self._cols, self._vals
            if not keep.all():
                rows, cols, vals = rows[keep], cols[keep], vals[keep]
            starts = np.flatnonzero(np.diff(cols, prepend=-1))
            heads = cols[starts]
            # for each k, how many entries and column runs the columns within k hops hold
            self._steps[hops] = (heads, starts, rows, vals, np.searchsorted(cols, self.sizes),
                                 np.searchsorted(heads, self.sizes))
        heads, starts, rows, vals, terms_in, runs_in = self._steps[hops]
        m, g = terms_in[k], runs_in[k]
        terms = vec[rows[:m]]
        out = np.zeros(self.sizes[k], dtype=vec.dtype)
        out[heads[:g]] = np.add.reduceat(np.multiply(terms, vals[:m], out=terms), starts[:g])
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
    """How many origins one LightCone may hold within CONE_BYTES.

    An origin's cone holds at most N(d r0) sites and N((d-1) r0) rows of at
    most N(r0) entries each.
    """
    graph = A.graph
    n_sites = graph.locality_function(degree * A.r0)
    per_origin = n_sites * (graph.locality_function(A.r0) * ENTRY_BYTES
                            + (n_polys + 1) * SITE_BYTES)
    return max(1, CONE_BYTES // per_origin)


def cone_rows(A: LocalMatrixOracle, polys, sites):
    """The row functionals e_i^T P(A) at the distinct sites, chunk by chunk.

    Yields (origins, rows): origins is the next run of the sorted distinct
    sites, and rows[n] the block (indptr, cols, vals) of polynomial n's rows
    at them, row o being cols[indptr[o]:indptr[o + 1]] with its nonzero
    values, columns increasing.  Each chunk is one LightCone grown to the
    largest degree.  Monomial basis accumulates sum_k a_k e_i^T A^k with
    running row powers; Chebyshev runs the three-term recurrence on
    Abar = (2A - (hi+lo)I) / (hi-lo).  The polynomials of one degree d share
    one recurrence over the rows a degree-d cone holds, so each row is
    bit-identical to a one-polynomial, one-origin call.  The polynomials
    must share one basis and, for Chebyshev, one interval.  Degree 0 never
    queries A.
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
    for at in range(0, origins.size, size):
        chunk = origins[at:at + size]
        yield chunk, _poly_rows(LightCone(A, chunk.tolist(), degree - 1), polys)


def _poly_rows(cone: LightCone, polys) -> list:
    lo, hi = polys[0].interval
    delta, s = hi - lo, hi + lo
    sizes = cone.sizes
    rows: list = [None] * len(polys)
    for deg in sorted({p.degree for p in polys}):
        group = [n for n, p in enumerate(polys) if p.degree == deg]
        coef = np.array([polys[n].coefficients for n in group], dtype=np.complex128)
        cols = coef.T[:, :, None]          # cols[k]: the group's c_k as a column
        live = coef != 0                   # live[:, k]: the rows c_k updates
        full, some = live.all(axis=0).tolist(), live.any(axis=0).tolist()
        # step k writes only [:sizes[k]]; the buffers are zero beyond what they hold
        prev, cur, nxt = (np.zeros(len(cone.sites), dtype=np.complex128) for _ in range(3))
        cur[:sizes[0]] = 1.0               # the origins
        acc = cols[0] * cur
        for k in range(1, deg + 1):
            within = sizes[k]
            if polys[0].basis == "monomial":
                nxt[:within] = cone.times_a(cur, deg - 1, k)
            else:
                step = _hard_zero((2.0 * cone.times_a(cur, deg - 1, k) - s * cur[:within])
                                  / delta)
                nxt[:within] = _hard_zero(2.0 * step - prev[:within]) if k > 1 else step
            prev, cur, nxt = cur, nxt, prev
            cur_k = cur[:within]
            if full[k]:
                acc[:, :within] = _hard_zero(acc[:, :within] + cols[k] * cur_k)
            elif some[k]:
                rows_k = live[:, k]
                acc[rows_k, :within] = _hard_zero(acc[rows_k, :within] + cols[k][rows_k] * cur_k)
        for n, row in zip(group, acc[:, cone.order]):   # origin by origin in site order
            nz = np.flatnonzero(row)
            rows[n] = (np.searchsorted(nz, cone.offsets), cone.sites[nz], row[nz])
    return rows


def poly_rows(A: LocalMatrixOracle, polys, i: int) -> list[dict]:
    """The row functionals e_i^T P(A), one {site: value} dict per polynomial (see cone_rows)."""
    (_, rows), = cone_rows(A, polys, [i])
    return [dict(zip(cols.tolist(), vals.tolist())) for _, cols, vals in rows]


def row_dots(rows, values) -> np.ndarray:
    """sum_j row[j] * values[j] for each row of a block (indptr, cols, vals).

    values holds one entry per column entry.  Each product is formed from
    real parts in CPython's order and each row is summed from 0 in column
    order by a sequential cumsum, so a row's dot equals the Python loop
    `total = 0j; total += val * value` bit for bit.
    """
    indptr, _, a = rows
    b = np.asarray(values, dtype=np.complex128)
    lens = np.diff(indptr)
    width = int(lens.max(initial=0)) + 1      # a leading 0 column, then the terms
    flat = np.arange(a.size) + np.repeat(np.arange(lens.size) * width + 1 - indptr[:-1], lens)
    parts = np.zeros((2, lens.size * width))
    parts[0, flat] = a.real * b.real - a.imag * b.imag
    parts[1, flat] = a.real * b.imag + a.imag * b.real
    sums = np.cumsum(parts.reshape(2, lens.size, width), axis=2)[:, :, -1]
    out = np.empty(lens.size, dtype=np.complex128)
    out.real, out.imag = sums
    return out


def row_power(A: LocalMatrixOracle, i: int, k: int) -> dict:
    """The sparse row e_i^T A^k as {site: value}, supported inside ball(i, k*r0)."""
    if k < 0:
        raise PreconditionError("power must be nonnegative")
    return poly_rows(A, (Polynomial((0.0,) * int(k) + (1.0,)),), i)[0]


def entries_of_poly_apply(A: LocalMatrixOracle, p: Polynomial, u: VectorOracle,
                          sites) -> np.ndarray:
    """The entries (P(A)u)_i at the given sites, touching only their light cones.

    Each chunk's rows meet u in row_dots; u is queried once at each distinct
    site where some row is nonzero, in increasing order within a chunk.
    """
    if A.dimension != u.dimension:
        raise PreconditionError("matrix and vector dimensions differ")
    sites = np.asarray(sites, dtype=np.int64)
    origins = _distinct(sites)
    out = [np.zeros(0, dtype=np.complex128)]
    known = kvals = None              # the sites u was queried at, increasing, and its values
    for _, (rows,) in cone_rows(A, (p,), origins):
        need = _distinct(rows[1])
        if known is None:
            known, kvals = need, u.query_many(need.tolist())
        else:
            at = np.minimum(np.searchsorted(known, need), known.size - 1)
            need = need[known[at] != need]
            at = np.searchsorted(known, need)
            new = u.query_many(need.tolist())
            known, kvals = np.insert(known, at, need), np.insert(kvals, at, new)
        out.append(row_dots(rows, kvals[np.searchsorted(known, rows[1])]))
    return np.concatenate(out)[np.searchsorted(origins, sites)]


def entry_of_poly_apply(A: LocalMatrixOracle, p: Polynomial, u: VectorOracle,
                        i: int) -> complex:
    """The single entry (P(A)u)_i: the batch of one."""
    return complex(entries_of_poly_apply(A, p, u, [i])[0])


class _Memo(dict):
    """Values by index.  A missing index is filled as a batch of one, and many
    fills every missing index of a list with one fill call."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, i):
        self.fill([i])
        return dict.__getitem__(self, i)

    def many(self, sites: list) -> list:
        new = sorted(set(sites).difference(self))
        if new:
            self.fill(new)
        return [self[i] for i in sites]


def poly_apply_query_oracle(A: LocalMatrixOracle, p: Polynomial,
                            u: VectorOracle) -> VectorOracle:
    """Query access to w = P(A)u with per-index memoization; no sampler, no norm.

    query_many answers the indices not yet known from one batched pass.
    Repeated queries of the same index issue the underlying A/u queries once.
    """
    _check_interval(A, p)
    memo = _Memo(lambda new: memo.update(zip(new, entries_of_poly_apply(A, p, u, new).tolist())))
    # fresh counter: reads of w are not reads of u; A/u meter themselves inside
    return VectorOracle(dimension=A.dimension, query_fn=memo.__getitem__, norm=None,
                        zeta=0.0, many_fn=memo.many)
