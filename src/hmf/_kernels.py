"""Exact linear algebra kernels over prime fields and over Q.

Every scalar matrix in hmf is a SparseMatrix: its shape and its nonzero
rows, held as ``{row: {column: value}}`` dicts of Python ints mod p, or of
Fractions when the characteristic is 0.  The degree pieces of graded maps
are assembled in this form, and everything downstream (graded solves, rank
counts, homology tables) funnels into one elimination on its rows.

The kernels read the rows of their input in place and never write them: a
row is copied the first time the elimination changes it.  Values are reduced
as they are read, so raw ints (negative, >= p or multiples of p) are taken
as they are.  The forward pass visits the rows sparsest first and reduces
each by the pivot row at its leading column until it vanishes or becomes a
new pivot row.  Pivot rows are not scaled: the inverse of a pivot entry is
computed the first time a row is reduced by it, and a pivot row with one
entry clears its column by deletion.  A rank needs the forward pass only,
so it scales no row and inverts no pivot that no row uses.  For the reduced
row echelon form each pivot row is then reduced and scaled to 1 once into a
fresh dict, so no result shares a row with the input, and back-substitution
clears each pivot row at the other pivot columns it contains, pivot columns
taken from the right.  The reduced row echelon form is unique, so the order
in which rows become pivots changes neither the result nor the pivot
columns.  The builders' and the verifier's matrices are almost all zeros,
and the elimination never touches a zero that does not fill in.
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


def _subtract(row, f, prow, p):
    """row -= f * prow in place, dropping the entries that cancel."""
    for j, w in prow.items():
        x = row.get(j, 0) - f * w
        if p:
            x %= p
        if x:
            row[j] = x
        else:
            row.pop(j, None)


def _inverse(x, p):
    """1 / x mod p, or in Q when p is 0."""
    return pow(x, -1, p) if p else 1 / Fraction(x)


def _eliminate(rows, p, reduce=True):
    """Echelon form of the given sparse rows, read and never written, as
    {pivot column: pivot row}.  Without reduce a pivot row may be an input
    row, unscaled and unreduced, so only the columns count.  With reduce the
    pivot rows are fresh dicts, the nonzero rows of the reduced row echelon
    form."""
    pivots = {}
    invs = {}  # inverses of the pivot entries that some row was reduced by
    for row in sorted(rows, key=len):
        owned = False
        while row:
            c = min(row)
            x = row[c] % p if p else row[c]
            prow = pivots.get(c)
            if x and prow is None:
                pivots[c] = row
                break
            if not owned:
                row = dict(row)
                owned = True
            if not x or len(prow) == 1:
                del row[c]
                continue
            inv = invs.get(c)
            if inv is None:
                inv = invs[c] = _inverse(prow[c], p)
            _subtract(row, x * inv % p if p else x * inv, prow, p)
    if reduce:
        for c, row in pivots.items():
            inv = invs.get(c) or _inverse(row[c], p)
            if p:
                pivots[c] = {j: y for j, x in row.items() if (y := x * inv % p)}
            else:
                pivots[c] = {j: x * inv for j, x in row.items() if x}
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
    pivots = _eliminate(A.rows.values(), p)
    piv = sorted(pivots)
    return SparseMatrix(A.shape, {i: pivots[c] for i, c in enumerate(piv)}), piv


def rank(A, p):
    """Rank of A mod p (over Q when p is 0): the number of pivots of a
    forward elimination, with no back-substitution."""
    return len(_eliminate(A.rows.values(), p, reduce=False))


def solve_many(AB, n, p):
    """Solve A X = B columnwise mod p (over Q when p is 0), given the
    augmented matrix AB = [A | B] whose first n columns are A.

    Returns (ok, X) where ok[j] says column j of B is consistent and X holds
    the first-pivot solution with free variables set to zero (zeros where
    not ok), its rows in increasing order.  The rows eliminated are those of
    AB, read in place.
    """
    k = AB.shape[1] - n
    pivots = _eliminate(AB.rows.values(), p)
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
    pivots = _eliminate(A.rows.values(), p)
    free = [c for c in range(n) if c not in pivots]
    fidx = {c: j for j, c in enumerate(free)}
    one = 1 if p else Fraction(1)
    N = {c: {fidx[c]: one} for c in free}
    for c, row in pivots.items():
        v = {fidx[j]: (-x) % p if p else -x for j, x in row.items() if j != c}
        if v:
            N[c] = v
    return SparseMatrix((n, len(free)), N)
