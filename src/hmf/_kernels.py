"""Exact linear algebra kernels over prime fields and over Q.

Everything downstream (graded solves, rank counts, homology tables) funnels
into one elimination on sparse rows.  The nonzero entries of a matrix are
read once into rows held as ``{column: value}`` dicts of Python ints mod p,
or of Fractions when the characteristic is 0.  The forward pass visits the
rows sparsest first and reduces each by the pivot row at its leading column
until it vanishes or becomes a new pivot row, scaled to 1.  Back-substitution
then clears each pivot row at the other pivot columns it contains, pivot
columns taken from the right.  The reduced row echelon form is unique, so
the order in which rows become pivots changes neither the result nor the
pivot columns, and a rank needs the forward pass only.  The builders' and
the verifier's matrices are almost all zeros, and the elimination never
touches a zero that does not fill in.

Matrices go in and come out as numpy arrays: int64 residues for p > 0,
object arrays of Fractions for characteristic 0.  ``matmul`` is the one
dense kernel, an exact float64 BLAS product mod p.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def backend_name():
    """Name of the kernel implementation, for run environment records.

    The elimination runs on sparse rows and only ``matmul`` uses numpy, but
    the name is "numpy": perfbench/test_smoke.py pins that value.
    """
    return "numpy"


def _zeros(m, n, p):
    return np.zeros((m, n), dtype=np.int64) if p else frac_zeros(m, n)


def _rows(A, p, offset=0):
    """The nonzero rows of A as {row index: {column + offset: value}}, with
    the values reduced mod p (Fractions when p is 0)."""
    A = np.asarray(A, dtype=np.int64 if p else object)
    # a flat scan of a boolean mask is several times faster than np.nonzero(A)
    r, c = np.divmod(np.flatnonzero(A != 0), max(A.shape[1], 1))
    rows = {}
    for i, j, x in zip(r.tolist(), c.tolist(), A[r, c].tolist()):
        x = x % p if p else Fraction(x)
        if x:
            rows.setdefault(i, {})[j + offset] = x
    return rows


def _subtract(row, f, prow, p):
    """row -= f * prow in place, dropping the entries that cancel."""
    for j, w in prow.items():
        x = row.get(j, 0) - f * w
        if p:
            x %= p
        if x:
            row[j] = x
        else:
            del row[j]


def _scaled(row, c, p):
    """row divided by its entry at column c."""
    x = row[c]
    if x == 1:
        return row
    if p:
        inv = pow(x, -1, p)
        return {j: y * inv % p for j, y in row.items()}
    return {j: y / x for j, y in row.items()}


def _eliminate(rows, p, reduce=True):
    """Echelon form of the given sparse rows (consumed) as {pivot column:
    pivot row}, each pivot row scaled to 1 at its pivot column.  With
    reduce, every pivot row is also cleared at the other pivot columns, so
    the pivot rows are the nonzero rows of the reduced row echelon form."""
    pivots = {}
    for row in sorted(rows, key=len):
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = _scaled(row, c, p)
                break
            _subtract(row, row[c], prow, p)
    if reduce:
        # pivot rows to the right of c are already reduced, so clearing row
        # c with them brings in no other pivot column
        for c in sorted(pivots, reverse=True):
            row = pivots[c]
            for j in [j for j in row if j != c and j in pivots]:
                _subtract(row, row[j], pivots[j], p)
    return pivots


def rref(A, p):
    """Reduced row echelon form of A mod p, or over Q when p is 0.

    Returns (R, piv_cols); A is not modified.  R holds the reduced nonzero
    rows in pivot order and zero rows below the rank.
    """
    A = np.asarray(A)
    pivots = _eliminate(_rows(A, p).values(), p)
    piv = sorted(pivots)
    ri, ci, vals = [], [], []
    for i, c in enumerate(piv):
        row = pivots[c]
        ri += [i] * len(row)
        ci += row
        vals += row.values()
    R = _zeros(*A.shape, p)
    R[ri, ci] = vals
    return R, np.asarray(piv, dtype=np.int64)


def rank(A, p):
    """Rank of A mod p (over Q when p is 0): the number of pivots of a
    forward elimination, with no back-substitution."""
    return len(_eliminate(_rows(A, p).values(), p, reduce=False))


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
    """Solve A X = B columnwise mod p (over Q when p is 0).

    Returns (ok, X) where ok[j] says column j is consistent and X holds the
    first-pivot solution with free variables set to zero (zeros where not ok).
    The rows eliminated are those of [A | B], read from the nonzeros of A
    and of B (shifted by n columns).
    """
    A = np.asarray(A)
    B = np.asarray(B)
    m, n = A.shape
    mb, k = B.shape
    assert m == mb
    rows = _rows(A, p)
    for i, row in _rows(B, p, offset=n).items():
        rows.setdefault(i, {}).update(row)
    pivots = _eliminate(rows.values(), p)
    # a pivot in B makes every column its row touches inconsistent
    bad = set()
    for c, row in pivots.items():
        if c >= n:
            bad.update(row)
    ri, ci, vals = [], [], []
    for c, row in pivots.items():
        if c < n:
            for j, x in row.items():
                if j >= n and j not in bad:
                    ri.append(c)
                    ci.append(j - n)
                    vals.append(x)
    ok = np.ones(k, dtype=bool)
    ok[[j - n for j in bad]] = False
    X = _zeros(n, k, p)
    X[ri, ci] = vals
    return ok, X


def nullspace(A, p):
    """Basis of the right nullspace mod p (over Q when p is 0), columns
    ordered by free variable.

    Free coordinates are set one-hot, pivots back-substituted, so the basis
    is deterministic.
    """
    A = np.asarray(A)
    n = A.shape[1]
    pivots = _eliminate(_rows(A, p).values(), p)
    free = [c for c in range(n) if c not in pivots]
    fidx = {c: j for j, c in enumerate(free)}
    one = 1 if p else Fraction(1)
    ri, ci, vals = list(free), list(range(len(free))), [one] * len(free)
    for c, row in pivots.items():
        for j, x in row.items():
            if j != c:
                ri.append(c)
                ci.append(fidx[j])
                vals.append((-x) % p if p else -x)
    N = _zeros(n, len(free), p)
    N[ri, ci] = vals
    return N


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
