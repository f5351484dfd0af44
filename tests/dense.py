"""Dense numpy arrays to and from _kernels.SparseMatrix, for the tests'
dense references."""

import numpy as np

from hmf._kernels import SparseMatrix


def sparse(A):
    """The SparseMatrix of a dense array, its zero entries left out."""
    A = np.asarray(A)
    rows = {}
    for i, row in enumerate(A.tolist()):
        row = {j: x for j, x in enumerate(row) if x}
        if row:
            rows[i] = row
    return SparseMatrix(A.shape, rows)


def dense(M, p):
    """M as an int64 array for p > 0, an object array over Q when p is 0."""
    A = np.zeros(M.shape, dtype=np.int64 if p else object)
    for i, row in M.rows.items():
        for j, x in row.items():
            A[i, j] = x
    return A
