"""Dense brute-force ground truth.

Everything here is intentionally naive and independent of the light-cone
engine: full matrices, eigendecompositions, and a plain scaling-and-squaring
Taylor exponential.  Tests compare engine output against these routines, so
this module must never share code paths with the modules it checks.

The dimension cap (default 2^14) can be overridden with the environment
variable GLSIM_DENSE_CAP.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .access import LocalMatrixOracle, LocalityError, OracleInconsistencyError
from .polyapprox import Polynomial

_DEFAULT_CAP = 2 ** 14


def dense_cap() -> int:
    raw = os.environ.get("GLSIM_DENSE_CAP")
    if raw is None:
        return _DEFAULT_CAP
    return int(raw)


def _check_cap(n: int):
    cap = dense_cap()
    if n > cap:
        raise ValueError(f"dimension {n} exceeds dense oracle cap {cap}")


@dataclass
class DenseMatrix:
    """Dense complex matrix with structure flags verified at construction."""

    entries: np.ndarray
    hermitian: bool = field(init=False, default=False)
    anti_hermitian: bool = field(init=False, default=False)

    def __post_init__(self):
        M = np.asarray(self.entries, dtype=np.complex128)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("entries must be a square matrix")
        _check_cap(M.shape[0])
        self.entries = M
        tol = 1e-12 * max(1.0, float(np.abs(M).max()))
        self.hermitian = bool(np.abs(M - M.conj().T).max() <= tol)
        self.anti_hermitian = (not self.hermitian
                               and bool(np.abs(M + M.conj().T).max() <= tol))

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


def spectral_norm(M) -> float:
    return float(np.linalg.norm(np.asarray(M, dtype=np.complex128), 2))


def dense_from_oracle(A: LocalMatrixOracle, dimension: int | None = None) -> DenseMatrix:
    """Materialize every row of a local-matrix oracle in one block, asserting locality."""
    n = A.dimension if dimension is None else int(dimension)
    if n != A.dimension:
        raise ValueError(f"dimension {n} does not match oracle dimension {A.dimension}")
    _check_cap(n)
    indptr, cols, vals = A.rows(np.arange(n))
    rows = np.repeat(np.arange(n), np.diff(indptr))
    far = np.flatnonzero((vals != 0) & (A.graph.distances(rows, cols) > A.r0))
    if far.size:
        raise LocalityError(f"entry ({rows[far[0]]},{cols[far[0]]}) outside radius {A.r0}")
    M = np.zeros((n, n), dtype=np.complex128)
    M[rows, cols] = vals
    dm = DenseMatrix(M)
    tol = 1e-12 * max(1.0, float(np.abs(M).max()))
    if A.hermitian and not dm.hermitian:
        raise OracleInconsistencyError("oracle claims hermitian, dense matrix is not")
    if A.anti_hermitian and not (dm.anti_hermitian or np.abs(M).max() <= tol):
        raise OracleInconsistencyError("oracle claims anti-hermitian, dense matrix is not")
    if A.psd:
        evals = np.linalg.eigvalsh(M)
        if evals.min() < -1e-10 * max(1.0, abs(float(evals.max()))):
            raise OracleInconsistencyError("oracle claims psd, dense matrix is not")
    if A.norm_bound is not None:
        nrm = spectral_norm(M)
        if nrm > A.norm_bound * (1 + 1e-10) + 1e-12:
            raise OracleInconsistencyError(
                f"spectral norm {nrm} exceeds declared bound {A.norm_bound}")
    return dm


def _expm_taylor(M: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Taylor exponential with series tolerance 1e-13."""
    n = M.shape[0]
    nrm = float(np.abs(M).sum(axis=1).max())  # infinity norm
    s = max(0, int(np.ceil(np.log2(max(nrm, 1e-16)))) + 1) if nrm > 0.5 else 0
    B = M / (2.0 ** s)
    out = np.eye(n, dtype=np.complex128)
    term = np.eye(n, dtype=np.complex128)
    for k in range(1, 200):
        term = term @ B / k
        out = out + term
        if float(np.abs(term).max()) < 1e-13:
            break
    else:
        raise RuntimeError("matrix exponential series did not converge")
    for _ in range(s):
        out = out @ out
    return out


def dense_evolve(m: DenseMatrix, t: float, u, method: str = "auto") -> np.ndarray:
    """e^{Mt}u: eigendecomposition for (anti-)Hermitian M, Taylor series otherwise."""
    u = np.asarray(u, dtype=np.complex128).ravel()
    if u.size != m.dimension:
        raise ValueError("vector dimension mismatch")
    t = float(t)
    if method not in ("auto", "eig", "series"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "eig" if (m.hermitian or m.anti_hermitian) else "series"
    if method == "eig":
        if m.hermitian:
            lam, V = np.linalg.eigh(m.entries)
            return V @ (np.exp(lam * t) * (V.conj().T @ u))
        if m.anti_hermitian:
            # M = iH with H = -iM Hermitian, so e^{Mt} = V e^{i lam t} V^dag
            lam, V = np.linalg.eigh(-1j * m.entries)
            return V @ (np.exp(1j * lam * t) * (V.conj().T @ u))
        raise ValueError("eig method needs a hermitian or anti-hermitian matrix")
    return _expm_taylor(m.entries * t) @ u


def dense_poly_apply(m: DenseMatrix, p: Polynomial, u) -> np.ndarray:
    """P(M)u by Clenshaw (chebyshev) or running powers (monomial) on dense matvecs."""
    u = np.asarray(u, dtype=np.complex128).ravel()
    if u.size != m.dimension:
        raise ValueError("vector dimension mismatch")
    c = [complex(a) for a in p.coefficients]
    M = m.entries
    if p.basis == "monomial":
        acc = c[0] * u
        power = u
        for a in c[1:]:
            power = M @ power
            acc = acc + a * power
        return acc
    lo, hi = p.interval
    rad = spectral_norm(M)
    if rad > hi + 1e-9 * max(1.0, abs(hi)) or (lo < 0 and -rad < lo - 1e-9 * max(1.0, abs(lo))):
        # Chebyshev representation is only certified when the spectrum fits
        raise ValueError(f"spectral norm {rad} outside certified interval [{lo}, {hi}]")
    n = m.dimension
    eye = np.eye(n, dtype=np.complex128)
    W = (2.0 * M - (hi + lo) * eye) / (hi - lo)
    b1 = np.zeros(n, dtype=np.complex128)
    b2 = np.zeros(n, dtype=np.complex128)
    for a in reversed(c[1:]):
        b1, b2 = a * u + 2.0 * (W @ b1) - b2, b1
    return c[0] * u + W @ b1 - b2


def dense_poly_matrix(m: DenseMatrix, p: Polynomial) -> np.ndarray:
    """The dense matrix P(M) (Clenshaw on matrices); test-scale only."""
    n = m.dimension
    out = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        e = np.zeros(n, dtype=np.complex128)
        e[j] = 1.0
        out[:, j] = dense_poly_apply(m, p, e)
    return out


def dense_cos_sqrt_apply(m: DenseMatrix, t: float, u) -> np.ndarray:
    """cos(sqrt(M) t)u for PSD Hermitian M, via eigendecomposition (clipped at 0)."""
    if not m.hermitian:
        raise ValueError("cos(sqrt(M)t) needs a hermitian matrix")
    u = np.asarray(u, dtype=np.complex128).ravel()
    lam, V = np.linalg.eigh(m.entries)
    lam = np.clip(lam, 0.0, None)
    return V @ (np.cos(np.sqrt(lam) * float(t)) * (V.conj().T @ u))
