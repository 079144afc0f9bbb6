"""Row callables over dense test matrices, for local_matrix_from_rows."""

import numpy as np


def dense_rows(M):
    """row_fn(i) -> ((j, M[i, j]), ...) over the nonzero entries of row i, j increasing."""
    M = np.asarray(M, dtype=np.complex128)
    return lambda i: tuple((int(j), complex(M[i, j])) for j in np.flatnonzero(M[i]))
