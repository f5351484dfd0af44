"""Exact linear algebra kernels over prime fields and over Q.

Every scalar matrix in hmf is a SparseMatrix: its shape and its nonzero
rows, held as ``{row: {column: value}}`` dicts of Python ints mod p, or of
Fractions when the characteristic is 0.  The degree pieces of graded maps
are assembled in this form, and everything downstream (graded solves, rank
counts, homology tables) funnels into one elimination on its rows.

The kernels copy the rows of their input, reducing each value, since the
elimination consumes them.  The forward pass visits the rows sparsest first
and reduces each by the pivot row at its leading column until it vanishes or
becomes a new pivot row, scaled to 1.  Back-substitution then clears each
pivot row at the other pivot columns it contains, pivot columns taken from
the right.  The reduced row echelon form is unique, so the order in which
rows become pivots changes neither the result nor the pivot columns, and a
rank needs the forward pass only.  The builders' and the verifier's matrices
are almost all zeros, and the elimination never touches a zero that does not
fill in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


def backend_name():
    """Name of the kernel implementation, for run environment records.

    The kernels use no numpy, but the name stays "numpy":
    perfbench/test_smoke.py pins that value.
    """
    return "numpy"


@dataclass
class SparseMatrix:
    """A scalar matrix of the given shape as its nonzero rows: rows[i][j]
    is entry (i, j), and absent rows and columns are zero."""

    shape: tuple
    rows: dict = field(default_factory=dict)

    @property
    def T(self):
        rows = {}
        for i, row in self.rows.items():
            for j, x in row.items():
                rows.setdefault(j, {})[i] = x
        return SparseMatrix(self.shape[::-1], rows)

    def hstack(self, other):
        """[self | other]: the rows of other with its columns shifted past
        those of self."""
        m, n = self.shape
        assert m == other.shape[0]
        rows = {i: dict(row) for i, row in self.rows.items()}
        for i, row in other.rows.items():
            rows.setdefault(i, {}).update((j + n, x) for j, x in row.items())
        return SparseMatrix((m, n + other.shape[1]), rows)


def _copy(A, p):
    """The nonzero rows of A as fresh dicts with the values reduced mod p
    (Fractions when p is 0)."""
    rows = []
    for row in A.rows.values():
        if p:
            row = {j: y for j, x in row.items() if (y := x % p)}
        else:
            row = {j: Fraction(x) for j, x in row.items() if x}
        if row:
            rows.append(row)
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

    Returns (R, piv_cols); A is not modified.  R, of the shape of A, holds
    the reduced nonzero rows in pivot order: row i is the pivot row of
    column piv_cols[i].
    """
    pivots = _eliminate(_copy(A, p), p)
    piv = sorted(pivots)
    return SparseMatrix(A.shape, {i: pivots[c] for i, c in enumerate(piv)}), piv


def rank(A, p):
    """Rank of A mod p (over Q when p is 0): the number of pivots of a
    forward elimination, with no back-substitution."""
    return len(_eliminate(_copy(A, p), p, reduce=False))


def solve_many(A, B, p):
    """Solve A X = B columnwise mod p (over Q when p is 0).

    Returns (ok, X) where ok[j] says column j is consistent and X holds the
    first-pivot solution with free variables set to zero (zeros where not
    ok), its rows in increasing order.  The rows eliminated are those of
    [A | B].
    """
    n = A.shape[1]
    k = B.shape[1]
    pivots = _eliminate(_copy(A.hstack(B), p), p)
    # a pivot in B makes every column its row touches inconsistent
    bad = set()
    for c, row in pivots.items():
        if c >= n:
            bad.update(row)
    X = {}
    for c in sorted(pivots):
        if c < n:
            x = {j - n: v for j, v in pivots[c].items() if j >= n and j not in bad}
            if x:
                X[c] = x
    return [n + j not in bad for j in range(k)], SparseMatrix((n, k), X)


def nullspace(A, p):
    """Basis of the right nullspace mod p (over Q when p is 0), columns
    ordered by free variable.

    Free coordinates are set one-hot, pivots back-substituted, so the basis
    is deterministic.
    """
    n = A.shape[1]
    pivots = _eliminate(_copy(A, p), p)
    free = [c for c in range(n) if c not in pivots]
    fidx = {c: j for j, c in enumerate(free)}
    one = 1 if p else Fraction(1)
    N = {c: {fidx[c]: one} for c in free}
    for c, row in pivots.items():
        v = {fidx[j]: (-x) % p if p else -x for j, x in row.items() if j != c}
        if v:
            N[c] = v
    return SparseMatrix((n, len(free)), N)
