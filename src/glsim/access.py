"""Oracle access layer: query-counted vectors and geometrically local matrices.

The engine never touches dense arrays directly; it sees a vector u through
an entry query, a norm and a sorted mass table, and a matrix A through
blocks of sparse rows, each restricted to a ball of radius r0: rows(sites)
returns one CSR block, and row(i) is its one-row case.  Every access is
metered by a CostCounter so tests can pin exact query budgets.

Sample-and-query ("sq") access to u means: entry queries, the Euclidean norm,
and draws from a finite law within total-variation zeta of the exact
distribution p_i = |u_i|^2 / ||u||^2.  That law is the oracle's table:
its support, in increasing site order, and the masses of those sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .lattice import SiteGraph


class PreconditionError(ValueError):
    """An algorithm's stated entry conditions do not hold."""


class OracleInconsistencyError(RuntimeError):
    """Oracle answers contradict each other (e.g. sampled index has zero amplitude)."""


class NumericalCheckError(RuntimeError):
    """A result failed the self-check computed beside it (a grid cross-check, a
    recombination), beyond the check's stated rounding bound."""


class LocalityError(ValueError):
    """A matrix row has support outside the declared interaction radius."""


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for (seed, key path). Distinct keys give independent streams."""
    ss = np.random.SeedSequence(entropy=int(seed) & (2 ** 64 - 1), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


@dataclass
class CostCounter:
    """Monotone tally of one oracle's usage.

    Each oracle carries its own counter, so query budgets for a matrix A and
    a vector u are read off separately; a scale_matrix_oracle view meters on
    its base's.
    A counter is not shared between threads: run_suite's workers each build
    their own oracles, so no counter needs a lock.
    """

    queries: int = 0
    samples: int = 0
    norm_reads: int = 0

    def add(self, *, queries: int = 0, samples: int = 0, norm_reads: int = 0):
        self.queries += queries
        self.samples += samples
        self.norm_reads += norm_reads

    def snapshot(self) -> dict:
        return {
            "queries": self.queries,
            "samples": self.samples,
            "norm_reads": self.norm_reads,
        }


# =====================================================================
# vector oracles
# =====================================================================


class VectorOracle:
    """Sq-access to a vector.

    query(i) -> complex entry, norm() -> float.  query_many(sites) answers
    and meters a list of sites at once, through many_fn(sites) -> values
    when the oracle has one and query_fn site by site otherwise.  The
    sampler is a sorted mass table (support, masses): the sites in strictly
    increasing order and their probabilities, within TV distance zeta of
    |u_i|^2/||u||^2.
    sample_positions(rng, k) draws k positions into support, sample_many(rng,
    k) the k sites support[positions], and sample_counts(rng, batch, reps)
    reps batches of batch draws as the positions drawn at least once and how
    often each was drawn in each batch.
    """

    def __init__(self, dimension: int, query_fn, norm: float | None,
                 table=None, zeta: float = 0.0, many_fn=None):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        if norm is not None and norm < 0:
            raise ValueError("norm must be nonnegative")
        if zeta < 0:
            raise ValueError("zeta must be nonnegative")
        self.dimension = int(dimension)
        self._query_fn = query_fn
        self._many_fn = many_fn
        self._norm = None if norm is None else float(norm)
        self.zeta = float(zeta)
        self.cost = CostCounter()
        self.support = self.masses = None
        if table is not None:
            support = np.asarray(table[0], dtype=np.int64)
            masses = np.asarray(table[1], dtype=np.float64)
            if support.ndim != 1 or masses.shape != support.shape or support.size == 0:
                raise ValueError("table needs 1-d support and masses of one nonzero length")
            if support[0] < 0 or support[-1] >= self.dimension or np.any(np.diff(support) <= 0):
                raise ValueError("table support must increase strictly within [0, dimension)")
            # a zero-mass entry could still take draws through rounding of the
            # running sums; sample_counts hands numpy's multinomial remainder
            # 1 - sum(pvals[:-1]) to the heaviest entry, never to a light one
            if not np.all(masses > 0):
                raise ValueError("table masses must be positive")
            self.support, self.masses = support, masses
            self._cum = np.cumsum(masses)
            self._cum[-1] = 1.0

    def query(self, i: int) -> complex:
        if not (0 <= i < self.dimension):
            raise ValueError(f"index {i} out of range [0, {self.dimension})")
        self.cost.add(queries=1)
        return complex(self._query_fn(int(i)))

    def query_many(self, sites) -> np.ndarray:
        """The entries at sites, in order, as a complex array; meters len(sites) queries."""
        sites = list(map(int, sites))
        if sites and not (0 <= min(sites) and max(sites) < self.dimension):
            bad = next(i for i in sites if not 0 <= i < self.dimension)
            raise ValueError(f"index {bad} out of range [0, {self.dimension})")
        self.cost.add(queries=len(sites))
        if self._many_fn is not None:
            return np.asarray(self._many_fn(sites), dtype=np.complex128)
        return np.array([complex(self._query_fn(i)) for i in sites], dtype=np.complex128)

    @property
    def has_norm(self) -> bool:
        return self._norm is not None

    def norm(self) -> float:
        if self._norm is None:
            raise PreconditionError("oracle carries no norm")
        self.cost.add(norm_reads=1)
        return self._norm

    @property
    def can_sample(self) -> bool:
        return self.support is not None

    def _check_sampler(self, *counts: int):
        if not self.can_sample:
            raise PreconditionError("oracle has no sampler")
        if min(counts) < 0:
            raise ValueError("draw counts must be nonnegative")

    def sample_positions(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count draws from the table, as positions into support."""
        self._check_sampler(count)
        self.cost.add(samples=int(count))
        return np.searchsorted(self._cum, rng.random(int(count)), side="right")

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count sites drawn from the table."""
        return self.support[self.sample_positions(rng, count)]

    def sample_counts(self, rng: np.random.Generator, batch: int,
                      reps: int) -> tuple[np.ndarray, np.ndarray]:
        """reps batches of batch draws from the table, as (positions, counts): the
        positions drawn at least once, increasing, and the (reps, len(positions))
        table of how often each was drawn in each batch.

        The counts follow the multinomial law over the table, drawn in the two
        stages of _count_stages so that the work follows the draws rather than
        the table: the heavy positions and one lump of the light ones, then,
        only in the batches where the lump drew, a split of its draws over the
        light positions.
        """
        self._check_sampler(batch, reps)
        batch, reps = int(batch), int(reps)
        self.cost.add(samples=batch * reps)
        heavy, pvals, light, light_pvals = _count_stages(self.masses, batch * reps)
        counts = rng.multinomial(batch, pvals, size=reps)
        positions, table = heavy, counts[:, 1:]
        rows = np.flatnonzero(counts[:, 0])
        if rows.size:
            split = rng.multinomial(counts[rows, 0], light_pvals)
            hit = np.flatnonzero(split.any(axis=0))
            tail = np.zeros((reps, hit.size), dtype=table.dtype)
            tail[rows] = split[:, hit]
            positions, table = np.append(heavy, light[hit]), np.hstack((table, tail))
        drawn = np.flatnonzero(table.any(axis=0))
        drawn = drawn[np.argsort(positions[drawn])]
        return positions[drawn], table[:, drawn]


def _heaviest_last(positions: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """positions in their order, except that the heaviest (the first on ties) goes last."""
    top = int(np.argmax(masses[positions]))
    return np.concatenate((positions[:top], positions[top + 1:], positions[top:top + 1]))


def _count_stages(masses: np.ndarray, draws: int):
    """The two multinomial stages of sample_counts for draws draws in all from a
    table of K masses: (heavy, pvals, light, light_pvals).

    The heavy positions have mass at least 1/(K draws), the heaviest always
    among them; the light rest is lumped into one category of mass below
    1/draws, so it expects less than one of the draws.  The first stage draws
    over pvals = (the lump's mass, the masses at heavy), the second splits the
    lump's draws over light with light_pvals, the masses at light over the
    lump's.  Each stage lists its positions in table order but for its
    heaviest, which goes last: numpy draws category j from
    binomial(n_left, p_j / (1 - sum(p[:j]))) and gives the last category what
    is left, so every running remainder it divides by is, up to rounding far
    below it, at least p_j plus the heaviest mass, and each binomial's p lies
    in [0, 1].  In decreasing-mass order those remainders would drown in the
    rounding of the heavy sum.
    """
    light = masses * (masses.size * draws) < 1.0
    light[np.argmax(masses)] = False
    heavy = _heaviest_last(np.flatnonzero(~light), masses)
    light = np.flatnonzero(light)
    lump = float(masses[light].sum())
    if light.size:
        light = _heaviest_last(light, masses)
    return heavy, np.append(lump, masses[heavy]), light, masses[light] / lump


def _sq_oracle(dimension: int, sites: np.ndarray, vals: np.ndarray, query_fn,
               zeta: float, many_fn=None) -> VectorOracle:
    """Sq-access to the vector with entries vals at the increasing sites (zero elsewhere).

    The norm is taken over vals, then mass zeta moves from the heaviest entry
    (lowest site on ties) to the lightest nonzero entry other than the donor
    (again lowest on ties).  Sites left with zero mass stay out of the table,
    so they are never drawn.  Where the squared norm overflows or falls below
    the normal floats, the norm and masses are taken over vals / max|vals|,
    so entries near either end of the float range keep their table.
    """
    with np.errstate(over="ignore", under="ignore"):
        nrm = float(np.linalg.norm(vals))
    if np.finfo(np.float64).tiny <= nrm * nrm < math.inf:
        masses = np.abs(vals) ** 2 / (nrm * nrm)
    else:
        top = float(np.abs(vals).max(initial=0.0))
        if top == 0.0:
            raise PreconditionError("cannot build sq-access to the zero vector")
        if not top < math.inf:
            raise ValueError("vector entries must be finite")
        squares = (np.abs(vals) / top) ** 2
        total = float(squares.sum())
        nrm = top * math.sqrt(total)
        if nrm == math.inf:
            raise PreconditionError(f"vector norm {top:.3g} * {math.sqrt(total):.3g} overflows")
        masses = squares / total
    zeta = float(zeta)
    if not (0 <= zeta < 1):
        raise PreconditionError("zeta must lie in [0, 1)")
    if zeta > 0:
        nonzero = np.flatnonzero(masses > 0)
        if nonzero.size < 2:
            raise PreconditionError("perturbation needs at least two support points")
        donor = int(np.argmax(masses))
        rest = nonzero[nonzero != donor]
        recipient = int(rest[np.argmin(masses[rest])])
        if masses[donor] < zeta:
            raise PreconditionError(f"donor mass {masses[donor]:.3g} < zeta {zeta:.3g}")
        masses[donor] -= zeta
        masses[recipient] += zeta
    keep = masses > 0
    return VectorOracle(dimension, query_fn, nrm, table=(sites[keep], masses[keep]),
                        zeta=zeta, many_fn=many_fn)


def sq_access_from_dense(u, zeta: float = 0.0) -> VectorOracle:
    """Sq-access to a dense vector whose sampler is exactly TV distance zeta
    from the true law.

    zeta > 0 moves mass zeta from the heaviest index to the lightest nonzero
    one (see _sq_oracle).  Queries and the norm stay exact, so the oracle is a
    legal zeta-sq-access realizing the worst advertised sampler error.
    """
    u = np.asarray(u, dtype=np.complex128).ravel()
    return _sq_oracle(u.size, np.arange(u.size), u, lambda i: u[i], zeta)


def sparse_vector_oracle(dimension: int, entries: dict[int, complex],
                         zeta: float = 0.0) -> VectorOracle:
    """Sq-access to a vector given by a {index: value} dict; lazy in the dimension.

    zeta > 0 perturbs the sampler as sq_access_from_dense does, over the entries alone.
    """
    if not entries:
        raise PreconditionError("cannot build sq-access to the zero vector")
    idx = np.fromiter(entries.keys(), dtype=np.int64, count=len(entries))
    vals = np.fromiter(entries.values(), dtype=np.complex128, count=len(entries))
    if np.any(idx[1:] <= idx[:-1]):  # psi0's keys come in increasing order already
        order = np.argsort(idx)
        idx, vals = idx[order], vals[order]
    if idx[0] < 0 or idx[-1] >= dimension:
        raise ValueError("entry index out of range")
    table = dict(zip(idx.tolist(), vals.tolist()))
    return _sq_oracle(dimension, idx, vals, lambda i: table.get(i, 0.0 + 0.0j), zeta)


# =====================================================================
# local matrix oracles
# =====================================================================


class LocalMatrixOracle:
    """Row access to a geometrically local matrix.

    rows(sites) returns the rows of sites as one CSR block (indptr, cols,
    vals): the k-th row is cols[indptr[k]:indptr[k + 1]], strictly increasing
    and inside ball(sites[k], r0), with values vals[indptr[k]:indptr[k + 1]].
    row(i) is the one-row block as ((j1, v1), (j2, v2), ...).  Cost model: a
    row costs (#entries + 1) matrix queries, so a block costs the sum of
    (len + 1) over its rows.
    The block comes from source(sites) -> (indptr, cols, vals), in any column
    order inside a row; rows sorts it and checks it before it meters it.
    norm_bound must upper-bound the spectral norm; structure flags
    (hermitian / anti_hermitian / psd) are promises the dense validator checks
    at desk scale.
    """

    def __init__(self, graph: SiteGraph, r0: int, source,
                 norm_bound: float | None = None, hermitian: bool = False,
                 anti_hermitian: bool = False, psd: bool = False,
                 cost: CostCounter | None = None, check_locality: bool = False):
        if r0 < 0:
            raise ValueError("r0 must be nonnegative")
        if hermitian and anti_hermitian:
            raise ValueError("a nonzero matrix cannot be both hermitian and anti-hermitian")
        if psd and not hermitian:
            raise ValueError("psd implies hermitian")
        if norm_bound is not None and norm_bound < 0:
            raise ValueError("norm_bound must be nonnegative")
        self.graph = graph
        self.r0 = int(r0)
        self._source = source
        self.norm_bound = None if norm_bound is None else float(norm_bound)
        self.hermitian = bool(hermitian)
        self.anti_hermitian = bool(anti_hermitian)
        self.psd = bool(psd)
        self.cost = cost if cost is not None else CostCounter()
        self.check_locality = bool(check_locality)

    @property
    def dimension(self) -> int:
        return self.graph.n_sites

    def _check(self, sites, indptr, cols, vals):
        """Raise on the first row, in block order, with a repeated, out-of-range or
        (with check_locality) non-local column; inside that row a repeated or
        out-of-range column comes first.  The rows must be sorted."""
        owner = np.repeat(np.arange(sites.size), indptr[1:] - indptr[:-1])
        repeat = np.zeros(cols.size, dtype=bool)
        repeat[1:] = (cols[1:] == cols[:-1]) & (owner[1:] == owner[:-1])
        outside = cols.view(np.uint64) >= self.dimension   # a negative column wraps high
        bad = repeat | outside
        far = np.zeros(cols.size, dtype=bool)
        if self.check_locality:
            near = ~outside & (vals != 0)
            far[near] = self.graph.distances(sites[owner[near]], cols[near]) > self.r0
        flagged = np.flatnonzero(bad | far)
        if flagged.size == 0:
            return
        k = flagged[0]
        i = int(sites[owner[k]])
        in_row = np.flatnonzero(bad & (owner == owner[k]))
        if in_row.size == 0:
            raise LocalityError(f"entry ({i},{cols[k]}) outside radius {self.r0}")
        k = in_row[0]
        if repeat[k]:
            raise OracleInconsistencyError(f"row {i} repeats column {cols[k]}")
        raise OracleInconsistencyError(f"row {i} column {cols[k]} out of range")

    def rows(self, sites):
        """The rows of sites as a CSR block (indptr, cols, vals), columns strictly
        increasing inside each row; costs the sum of (len + 1) queries."""
        n = self.dimension
        sites = np.asarray(sites, dtype=np.int64).ravel()
        if sites.size and sites.view(np.uint64).max() >= n:   # a negative site wraps high
            raise ValueError(f"row {sites[(sites < 0) | (sites >= n)][0]} out of range")
        indptr, cols, vals = self._source(sites)
        indptr = np.asarray(indptr, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.complex128)
        if cols.size > 1 and np.less_equal(cols[1:], cols[:-1]).any():
            # the columns step down or repeat somewhere: between rows, or inside one
            same = np.ones(cols.size - 1, dtype=bool)   # entries k, k + 1 in one row
            starts = indptr[1:-1]
            same[starts[(starts > 0) & (starts < cols.size)] - 1] = False
            if (np.less_equal(cols[1:], cols[:-1]) & same).any():
                if (np.less(cols[1:], cols[:-1]) & same).any():
                    owner = np.repeat(np.arange(sites.size), indptr[1:] - indptr[:-1])
                    order = np.lexsort((cols, owner))
                    cols, vals = cols[order], vals[order]
                ok = not (np.equal(cols[1:], cols[:-1]) & same).any()
            else:   # each row increases: in range if its ends are
                ok = True
            ok = ok and cols.view(np.uint64).max() < n
        else:   # increasing throughout: in range if its ends are
            ok = cols.size == 0 or 0 <= cols[0] and cols[-1] < n
        if not ok or self.check_locality:
            self._check(sites, indptr, cols, vals)
        self.cost.add(queries=cols.size + sites.size)
        return indptr, cols, vals

    def row(self, i: int):
        """Row i as ((j1, v1), ...) with j strictly increasing: the block rows([i])."""
        _, cols, vals = self.rows([i])
        return tuple(zip(cols.tolist(), vals.tolist()))


def _row_source(row_fn):
    """Block source that calls row_fn(i) -> ((j, v), ...) once per site, in the order
    given, and sorts each row by column."""

    def source(sites):
        entries, indptr = [], [0]
        for i in sites.tolist():
            entries.extend(sorted(row_fn(i), key=itemgetter(0)))
            indptr.append(len(entries))
        cols, vals = zip(*entries) if entries else ((), ())
        return indptr, cols, vals

    return source


def local_matrix_from_rows(graph: SiteGraph, r0: int, row_fn, *,
                           norm_bound: float | None = None, hermitian: bool = False,
                           anti_hermitian: bool = False, psd: bool = False,
                           check_locality: bool = False) -> LocalMatrixOracle:
    """Lazy local-matrix oracle from a row callable. Rows are produced on demand."""
    return LocalMatrixOracle(graph, r0, _row_source(row_fn), norm_bound=norm_bound,
                             hermitian=hermitian, anti_hermitian=anti_hermitian,
                             psd=psd, check_locality=check_locality)


def scale_matrix_oracle(A: LocalMatrixOracle, factor: complex) -> LocalMatrixOracle:
    """View of factor*A sharing A's cost counter. Tracks structure flags through the scaling."""
    factor = complex(factor)
    herm = anti = False
    if A.hermitian or A.anti_hermitian:
        base_herm = A.hermitian
        if factor.imag == 0.0:
            herm, anti = base_herm, not base_herm
        elif factor.real == 0.0:
            herm, anti = not base_herm, base_herm
    psd = A.psd and factor.real > 0 and factor.imag == 0
    nb = None if A.norm_bound is None else abs(factor) * A.norm_bound

    def source(sites):
        # A's raw block, not A.rows: the view meters it once, on the shared counter
        indptr, cols, vals = A._source(sites)
        return indptr, cols, factor * np.asarray(vals, dtype=np.complex128)

    return LocalMatrixOracle(A.graph, A.r0, source, norm_bound=nb,
                             hermitian=herm, anti_hermitian=anti, psd=psd,
                             cost=A.cost, check_locality=A.check_locality)


def random_local_pair(graph: SiteGraph, r0: int, rng: np.random.Generator,
                      anti: bool = False):
    """A random (anti-)Hermitian r0-local matrix as (oracle, dense array)."""
    n = graph.n_sites
    rows: dict = {i: {} for i in range(n)}
    for i in range(n):
        for j in graph.ball(i, r0):
            if j < i:
                continue
            if j == i:
                val = 1j * rng.normal() if anti else complex(rng.normal())
                rows[i][i] = val
            else:
                val = (rng.normal() + 1j * rng.normal()) / math.sqrt(2.0)
                rows[i][j] = val
                rows[j][i] = -np.conj(val) if anti else np.conj(val)
    dense = np.zeros((n, n), dtype=np.complex128)
    for i, row in rows.items():
        for j, v in row.items():
            dense[i, j] = v
    norm_bound = float(np.abs(dense).sum(axis=1).max())
    if norm_bound == 0.0:
        norm_bound = 1.0
    oracle = local_matrix_from_rows(
        graph, r0, lambda i: sorted(rows[i].items()), norm_bound=norm_bound,
        hermitian=not anti, anti_hermitian=anti)
    return oracle, dense
