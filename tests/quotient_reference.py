"""Quotient pieces by normal forms of whole S-pieces: the test reference.

This is the verifier's earlier algorithm, kept as the reference for
graded.QuotientPieces.  It assembles the whole S-piece of a map with
piece_matrix, clears the pivot coordinates of every row with the RREF rows
of I_e, and keeps the standard source columns.  QuotientPieces walks only
the standard source monomials instead; the tests check that both give the
same matrices, entry for entry.
"""

from piece_reference import piece_matrix

from hmf import _kernels
from hmf._kernels import SparseMatrix, _subtract


class ReferencePieces:
    """Degree pieces of free modules over S/I, I = (gens), in normal form."""

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = tuple(gens)

    def _piece(self, d):
        """({pivot index: rest of its RREF row}, {standard index:
        position}), monomials by their index in ring.monomial_basis(d)."""
        n = len(self.ring.monomial_basis(d)[0])
        pivots = {}
        if self.gens and n:
            A = piece_matrix(self.ring, {0: dict(enumerate(self.gens))},
                             [g.degree() for g in self.gens], (0,), 0, d).T
            R, piv = _kernels.rref(A, self.ring.field.char)
            for i, c in enumerate(piv):
                pivots[c] = {k: x for k, x in R.rows[i].items() if k != c}
        std = [k for k in range(n) if k not in pivots]
        return pivots, {k: s for s, k in enumerate(std)}

    def _layout(self, twists, e):
        """({pivot row: {standard index: its RREF coefficient}}, {standard
        row: standard index}) of the degree-e piece, laid out as
        piece_reference.piece_layout lays out the S-piece."""
        piv = {}
        std = {}
        off = 0
        for t in twists:
            pivots, pos = self._piece(e - t)
            base = len(std)
            for c, row in pivots.items():
                piv[off + c] = {base + pos[k]: x for k, x in row.items()}
            for k, s in pos.items():
                std[off + k] = base + s
            off += len(pivots) + len(pos)
        return piv, std

    def _normal_form(self, A, twists, e, cols):
        """The rows of A in normal form, keeping the columns in cols (a map
        to new column indices)."""
        piv, std = self._layout(twists, e)
        out = {}
        rest = []
        for r, row in A.rows.items():
            row = {cols[j]: x for j, x in row.items() if j in cols}
            if row:
                if r in std:
                    out[std[r]] = row
                else:
                    rest.append((piv[r], row))
        p = self.ring.field.char
        for coeffs, row in rest:
            for s, x in coeffs.items():
                _subtract(out.setdefault(s, {}), x, row, p)
        return SparseMatrix((len(std), len(cols)),
                            {s: row for s, row in out.items() if row})

    def dim(self, twists, e):
        return len(self._layout(twists, e)[1])

    def induced(self, mm, e):
        A = piece_matrix(self.ring, mm.rows, mm.src.twists, mm.dst.twists,
                         mm.shift, e)
        cols = self._layout(mm.src.twists, e - mm.shift)[1]
        return self._normal_form(A, mm.dst.twists, e, cols)

    def contains(self, g):
        e = g.degree()
        b = piece_matrix(self.ring, {0: {0: g}}, (e,), (0,), 0, e)
        return not self._normal_form(b, (0,), e, {0: 0}).rows
