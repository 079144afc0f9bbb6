"""Oracle access layer: query-counted vectors and geometrically local matrices.

The engine never touches dense arrays directly; it sees a vector u through
(query, norm, sample) callables and a matrix A through per-row sparse
functionals restricted to a ball of radius r0.  Every access is metered by a
CostCounter so tests can pin exact query budgets.

Sample-and-query ("sq") access to u means: entry queries, the Euclidean norm,
and a sampler whose law is within total-variation zeta of the exact
distribution p_i = |u_i|^2 / ||u||^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import SiteGraph


class PreconditionError(ValueError):
    """An algorithm's stated entry conditions do not hold."""


class OracleInconsistencyError(RuntimeError):
    """Oracle answers contradict each other (e.g. sampled index has zero amplitude)."""


class LocalityError(ValueError):
    """A matrix row has support outside the declared interaction radius."""


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for (seed, key path). Distinct keys give independent streams."""
    ss = np.random.SeedSequence(entropy=int(seed) & (2 ** 64 - 1), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


@dataclass
class CostCounter:
    """Monotone tally of one oracle's usage.

    Each oracle carries its own counter (unless told to share one), so
    query budgets for a matrix A and a vector u are read off separately.
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

    query(i) -> complex entry, norm() -> float, sample_many(rng, k) -> k
    indices drawn within TV distance zeta of |u_i|^2/||u||^2; sample(rng) is
    the single draw sample_many(rng, 1)[0].
    """

    def __init__(self, dimension: int, query_fn, norm: float | None,
                 sample_many=None, zeta: float = 0.0, cost: CostCounter | None = None):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        if norm is not None and norm < 0:
            raise ValueError("norm must be nonnegative")
        if zeta < 0:
            raise ValueError("zeta must be nonnegative")
        self.dimension = int(dimension)
        self._query_fn = query_fn
        self._norm = None if norm is None else float(norm)
        self._sample_many = sample_many
        self.zeta = float(zeta)
        self.cost = cost if cost is not None else CostCounter()

    def query(self, i: int) -> complex:
        if not (0 <= i < self.dimension):
            raise ValueError(f"index {i} out of range [0, {self.dimension})")
        self.cost.add(queries=1)
        return complex(self._query_fn(int(i)))

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
        return self._sample_many is not None

    def sample(self, rng: np.random.Generator) -> int:
        if not self.can_sample:
            raise PreconditionError("oracle has no sampler")
        self.cost.add(samples=1)
        return int(self._sample_many(rng, 1)[0])

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if not self.can_sample:
            raise PreconditionError("oracle has no sampler")
        if count < 0:
            raise ValueError("count must be nonnegative")
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        self.cost.add(samples=int(count))
        out = np.asarray(self._sample_many(rng, int(count)), dtype=np.int64)
        if out.shape != (count,):
            raise OracleInconsistencyError("sampler returned wrong shape")
        return out


def _masses_from_dense(u: np.ndarray) -> tuple[np.ndarray, float]:
    u = np.asarray(u, dtype=np.complex128).ravel()
    nrm = float(np.linalg.norm(u))
    if nrm == 0.0:
        raise PreconditionError("cannot build sq-access to the zero vector")
    masses = np.abs(u) ** 2 / (nrm * nrm)
    return masses, nrm


def _cumtable_sampler(masses: np.ndarray):
    cum = np.cumsum(masses)
    cum[-1] = 1.0

    def sample_many(rng: np.random.Generator, count: int) -> np.ndarray:
        return np.searchsorted(cum, rng.random(count), side="right").astype(np.int64)

    return sample_many


def sq_access_from_dense(u, cost: CostCounter | None = None) -> VectorOracle:
    """Exact sq-access (zeta = 0) to a dense vector."""
    return perturbed_sq_access(u, 0.0, cost=cost)


def perturbed_sq_access(u, zeta: float,
                        cost: CostCounter | None = None) -> VectorOracle:
    """Sq-access whose sampler is exactly TV distance zeta from the true law.

    Mass zeta moves from the heaviest index (lowest index on ties) to the
    lightest nonzero index other than the donor (again lowest on ties).
    Queries and the norm stay exact, so the oracle is a legal zeta-sq-access
    realizing the worst advertised sampler error.
    """
    u = np.asarray(u, dtype=np.complex128).ravel()
    masses, nrm = _masses_from_dense(u)
    zeta = float(zeta)
    if not (0 <= zeta < 1):
        raise PreconditionError("zeta must lie in [0, 1)")
    if zeta > 0:
        support = np.flatnonzero(masses > 0)
        if support.size < 2:
            raise PreconditionError("perturbation needs at least two support points")
        donor = int(np.argmax(masses))
        rest = support[support != donor]
        recipient = int(rest[np.argmin(masses[rest])])
        if masses[donor] < zeta:
            raise PreconditionError(f"donor mass {masses[donor]:.3g} < zeta {zeta:.3g}")
        masses = masses.copy()
        masses[donor] -= zeta
        masses[recipient] += zeta
    return VectorOracle(
        dimension=u.size,
        query_fn=lambda i: u[i],
        norm=nrm,
        sample_many=_cumtable_sampler(masses),
        zeta=zeta,
        cost=cost,
    )


def sparse_vector_oracle(dimension: int, entries: dict[int, complex],
                         cost: CostCounter | None = None) -> VectorOracle:
    """Sq-access to a vector given by a {index: value} dict; lazy in the dimension."""
    idx = np.array(sorted(entries.keys()), dtype=np.int64)
    if idx.size == 0:
        raise PreconditionError("cannot build sq-access to the zero vector")
    if idx[0] < 0 or idx[-1] >= dimension:
        raise ValueError("entry index out of range")
    vals = np.array([entries[int(i)] for i in idx], dtype=np.complex128)
    nrm = float(np.linalg.norm(vals))
    if nrm == 0.0:
        raise PreconditionError("cannot build sq-access to the zero vector")
    masses = np.abs(vals) ** 2 / (nrm * nrm)
    table = dict(zip(idx.tolist(), vals.tolist()))
    draw_local = _cumtable_sampler(masses)

    def sample_many(rng: np.random.Generator, count: int) -> np.ndarray:
        return idx[draw_local(rng, count)]

    return VectorOracle(
        dimension=dimension,
        query_fn=lambda i: table.get(i, 0.0 + 0.0j),
        norm=nrm,
        sample_many=sample_many,
        zeta=0.0,
        cost=cost,
    )


# =====================================================================
# local matrix oracles
# =====================================================================


class LocalMatrixOracle:
    """Row access to a geometrically local matrix.

    row(i) returns ((j1, v1), (j2, v2), ...) with j strictly increasing and
    every j inside ball(i, r0).  Cost model: a row costs
    (#returned entries + 1) matrix queries.
    norm_bound must upper-bound the spectral norm; structure flags
    (hermitian / anti_hermitian / psd) are promises the dense validator checks
    at desk scale.
    """

    def __init__(self, graph: SiteGraph, r0: int, row_fn,
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
        self._row_fn = row_fn
        self.norm_bound = None if norm_bound is None else float(norm_bound)
        self.hermitian = bool(hermitian)
        self.anti_hermitian = bool(anti_hermitian)
        self.psd = bool(psd)
        self.cost = cost if cost is not None else CostCounter()
        self.check_locality = bool(check_locality)

    @property
    def dimension(self) -> int:
        return self.graph.n_sites

    def _clean(self, i: int, raw):
        items = sorted(((int(j), complex(v)) for j, v in raw),
                       key=lambda item: item[0])
        prev = -1
        for j, _ in items:
            if j == prev:
                raise OracleInconsistencyError(f"row {i} repeats column {j}")
            prev = j
            if not (0 <= j < self.dimension):
                raise OracleInconsistencyError(f"row {i} column {j} out of range")
        if self.check_locality:
            allowed = set(self.graph.ball(i, self.r0))
            for j, v in items:
                if v != 0 and j not in allowed:
                    raise LocalityError(f"entry ({i},{j}) outside radius {self.r0}")
        return tuple(items)

    def row(self, i: int):
        """Row i as ((j1, v1), ...) with j strictly increasing; costs len+1 queries."""
        if not (0 <= i < self.dimension):
            raise ValueError(f"row {i} out of range")
        out = self._clean(i, self._row_fn(int(i)))
        self.cost.add(queries=len(out) + 1)
        return out


def local_matrix_from_rows(graph: SiteGraph, r0: int, row_fn, *,
                           norm_bound: float | None = None, hermitian: bool = False,
                           anti_hermitian: bool = False, psd: bool = False,
                           cost: CostCounter | None = None,
                           check_locality: bool = False) -> LocalMatrixOracle:
    """Lazy local-matrix oracle from a row callable. Rows are produced on demand."""
    return LocalMatrixOracle(graph, r0, row_fn, norm_bound=norm_bound,
                             hermitian=hermitian, anti_hermitian=anti_hermitian,
                             psd=psd, cost=cost, check_locality=check_locality)


def local_matrix_from_dense(M, graph: SiteGraph, r0: int, *,
                            hermitian: bool | None = None,
                            anti_hermitian: bool | None = None,
                            psd: bool | None = None,
                            norm_bound: float | None = None,
                            cost: CostCounter | None = None) -> LocalMatrixOracle:
    """Wrap a dense matrix, inferring structure flags and validating locality eagerly."""
    M = np.asarray(M, dtype=np.complex128)
    n = graph.n_sites
    if M.shape != (n, n):
        raise ValueError(f"matrix shape {M.shape} does not match {n} sites")
    tol = 1e-12 * max(1.0, float(np.abs(M).max()))
    herm = bool(np.abs(M - M.conj().T).max() <= tol)
    anti = bool(np.abs(M + M.conj().T).max() <= tol) and not herm
    if hermitian is None:
        hermitian = herm
    elif hermitian and not herm:
        raise OracleInconsistencyError("matrix is not hermitian")
    if anti_hermitian is None:
        anti_hermitian = anti
    elif anti_hermitian and not (anti or np.abs(M).max() <= tol):
        raise OracleInconsistencyError("matrix is not anti-hermitian")
    if psd is None:
        psd = False
        if hermitian:
            evals = np.linalg.eigvalsh(M)
            psd = bool(evals.min() >= -1e-12 * max(1.0, abs(float(evals.max()))))
    elif psd:
        if not hermitian:
            raise OracleInconsistencyError("psd requires hermitian")
        evals = np.linalg.eigvalsh(M)
        if evals.min() < -1e-10 * max(1.0, abs(float(evals.max()))):
            raise OracleInconsistencyError("matrix is not positive semidefinite")
    for i in range(n):
        allowed = set(graph.ball(i, r0))
        for j in np.flatnonzero(np.abs(M[i]) > 0):
            if int(j) not in allowed:
                raise LocalityError(f"entry ({i},{int(j)}) outside radius {r0}")
    if norm_bound is None:
        norm_bound = float(np.linalg.norm(M, 2))

    def row_fn(i: int):
        js = np.flatnonzero(np.abs(M[i]) > 0)
        return tuple((int(j), complex(M[i, j])) for j in js)

    return LocalMatrixOracle(graph, r0, row_fn, norm_bound=norm_bound,
                             hermitian=bool(hermitian), anti_hermitian=bool(anti_hermitian),
                             psd=bool(psd), cost=cost)


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

    def row_fn(i: int):
        # bypass A.row's metering; the wrapper recounts identically via shared cost
        return tuple((j, factor * v) for j, v in A._row_fn(i))

    return LocalMatrixOracle(A.graph, A.r0, row_fn, norm_bound=nb,
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


# =====================================================================
# distributions
# =====================================================================


@dataclass(frozen=True)
class Distribution:
    """Finite distribution over site indices 0..dimension-1 (dense probabilities)."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a nonempty 1-d array")
        if p.min() < -1e-12:
            raise ValueError("negative probability")
        s = float(p.sum())
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {s}, not 1")
        object.__setattr__(self, "probs", np.clip(p, 0.0, None) / max(s, 1e-300))

    @property
    def dimension(self) -> int:
        return self.probs.size


def induced_distribution(u) -> Distribution:
    """The measurement law p_i = |u_i|^2 / ||u||^2 of a dense vector."""
    u = np.asarray(u, dtype=np.complex128).ravel()
    m = np.abs(u) ** 2
    s = float(m.sum())
    if s == 0.0:
        raise PreconditionError("zero vector has no induced distribution")
    return Distribution(m / s)


def tv_distance(p: Distribution, q: Distribution) -> float:
    if p.dimension != q.dimension:
        raise ValueError("dimension mismatch")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())
