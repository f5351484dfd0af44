"""Dense exact linear algebra kernels over prime fields.

Everything downstream (graded solves, rank counts, homology tables) funnels
into row reduction of int64 matrices with entries reduced mod p.  ``rref``
is Gauss-Jordan elimination in numpy on the nonzero rows only (most rows of
the builders' degreewise systems are zero): the first nonzero entry of each
column is the pivot, the pivot row is scaled to 1 and the column is cleared
above and below with one outer-product update, so the result is the unique
reduced row echelon form.

A Fraction-based reducer backs the optional characteristic-zero field.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def backend_name():
    """Name of the row-reduction implementation, for run environment records."""
    return "numpy"


def rref(A, p):
    """Reduced row echelon form of A mod p.

    Returns (R, piv_cols); A is not modified.  Only the nonzero rows of A
    are eliminated, and a pivot row is applied from its pivot column on,
    where it can be nonzero.  The reduced form is unique, so R holds the
    reduced nonzero rows and zero rows below the rank.
    """
    A = np.asarray(A, dtype=np.int64)
    E = A[A.any(axis=1)]
    E %= p
    m, n = E.shape
    piv_cols = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(E[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            E[[r, i]] = E[[i, r]]
        inv = pow(int(E[r, c]), p - 2, p)
        E[r, c:] = (E[r, c:] * inv) % p
        factor = E[:, c].copy()
        factor[r] = 0
        nzrows = np.nonzero(factor)[0]
        if nzrows.size:
            E[nzrows, c:] = (E[nzrows, c:] - np.outer(factor[nzrows], E[r, c:])) % p
        piv_cols.append(c)
        r += 1
    R = np.zeros(A.shape, dtype=np.int64)
    R[:m] = E
    return R, np.asarray(piv_cols, dtype=np.int64)


def rank(A, p):
    _, piv = rref(A, p)
    return int(piv.size)


def matmul(A, B, p):
    """A @ B mod p, computed exactly with a float64 (BLAS) product.

    NumPy's int64 matmul has no BLAS.  A float64 sum of products of
    residues is exact while it stays below 2**53, so the inner dimension
    is cut into chunks of k terms with p + k*(p-1)**2 <= 2**53 and the
    running sum is reduced after each chunk (the FFLAS-FFPACK bound).
    Field admits only primes with at least one term per chunk.
    """
    A = np.asarray(A, dtype=np.int64) % p
    B = np.asarray(B, dtype=np.int64) % p
    step = (2**53 - p) // (p - 1) ** 2
    Af = A.astype(np.float64)
    Bf = B.astype(np.float64)
    C = np.zeros((A.shape[0], B.shape[1]), dtype=np.float64)
    for s in range(0, A.shape[1], step):
        C += Af[:, s:s + step] @ Bf[s:s + step]
        np.fmod(C, p, out=C)
    return C.astype(np.int64)


def solve_many(A, B, p):
    """Solve A X = B columnwise mod p.

    Returns (ok, X) where ok[j] says column j is consistent and X holds the
    first-pivot solution with free variables set to zero (zeros where not ok).
    """
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    m, n = A.shape
    mb, k = B.shape
    assert m == mb
    R, piv = rref(np.concatenate([A, B], axis=1), p)
    # pivots increase, so the rows pivoting in A come first; a pivot in B
    # makes every column it touches inconsistent
    r = int(np.searchsorted(piv, n))
    ok = ~R[r:piv.size, n:].any(axis=0)
    X = np.zeros((n, k), dtype=np.int64)
    X[piv[:r]] = R[:r, n:]
    # zero out non-solutions for determinism
    X[:, ~ok] = 0
    return ok, X


def nullspace(A, p):
    """Basis of the right nullspace mod p, columns ordered by free variable.

    Free coordinates are set one-hot, pivots back-substituted, so the basis
    is deterministic.
    """
    A = np.asarray(A, dtype=np.int64)
    m, n = A.shape
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if m == 0:
        return np.eye(n, dtype=np.int64)
    R, piv = rref(A, p)
    pivset = set(int(c) for c in piv)
    free = [c for c in range(n) if c not in pivset]
    N = np.zeros((n, len(free)), dtype=np.int64)
    for j, fcol in enumerate(free):
        N[fcol, j] = 1
        for r0, c in enumerate(piv):
            N[int(c), j] = (-R[r0, fcol]) % p
    return N


# ---------------------------------------------------------------------------
# Characteristic-zero fallback (Fractions in object arrays; slow, optional)


def frac_zeros(m, n):
    Z = np.empty((m, n), dtype=object)
    Z[:] = Fraction(0)
    return Z


def matmul_frac(A, B):
    """A @ B over Q for object arrays of Fractions.

    Row i of the product is the sum of A[i, k] * B[k] over the nonzero
    A[i, k]; the dense object product would multiply every zero as well.
    """
    C = frac_zeros(A.shape[0], B.shape[1])
    for i, k in zip(*np.nonzero(A)):
        C[i] += A[i, k] * B[k]
    return C


def rref_frac(A):
    """RREF over Q.  A: object ndarray of Fractions.  Returns (R, pivots)."""
    R = np.array(A, dtype=object, copy=True)
    m, n = R.shape
    piv_cols = []
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if R[i, c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            R[[r, piv]] = R[[piv, r]]
        inv = Fraction(1) / R[r, c]
        R[r] = R[r] * inv
        for i in range(m):
            if i != r and R[i, c] != 0:
                R[i] = R[i] - R[i, c] * R[r]
        piv_cols.append(c)
        r += 1
    return R, piv_cols


def solve_many_frac(A, B):
    m, n = A.shape
    k = B.shape[1]
    ok = [True] * k
    X = frac_zeros(n, k)
    if m == 0:
        return ok, X
    M = np.concatenate([A, B], axis=1)
    R, piv = rref_frac(M)
    for r0, c in enumerate(piv):
        if c >= n:
            for j in range(k):
                if R[r0, n + j] != 0:
                    ok[j] = False
        else:
            X[c] = R[r0, n:]
    for j in range(k):
        if not ok[j]:
            for i in range(n):
                X[i, j] = Fraction(0)
    return ok, X


def nullspace_frac(A):
    m, n = A.shape
    if n == 0:
        return frac_zeros(0, 0)
    if m == 0:
        N = frac_zeros(n, n)
        for j in range(n):
            N[j, j] = Fraction(1)
        return N
    R, piv = rref_frac(A)
    pivset = set(piv)
    free = [c for c in range(n) if c not in pivset]
    N = frac_zeros(n, len(free))
    for j, fcol in enumerate(free):
        N[fcol, j] = Fraction(1)
        for r0, c in enumerate(piv):
            N[c, j] = -R[r0, fcol]
    return N


def rank_frac(A):
    if A.shape[0] == 0 or A.shape[1] == 0:
        return 0
    _, piv = rref_frac(A)
    return len(piv)
