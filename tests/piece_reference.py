"""The S-piece assembler that graded.QuotientPieces replaced: the tests'
reference.

piece_layout lays out the degree-e piece of a free module over S, and
piece_matrix writes the scalar matrix of a map between such pieces, term by
monomial, on GradedRing.monomial_basis.  The package assembles every piece
with QuotientPieces, at level 0 over S itself; the references in
quotient_reference.py, augmented.py and second_solution.py build on this
independent assembler instead.
"""

from hmf._kernels import SparseMatrix
from hmf.graded import SolveError


def piece_layout(ring, twists, e):
    """Row layout of the degree-e piece: (offsets, total_dim)."""
    offsets = []
    total = 0
    for tw in twists:
        offsets.append(total)
        total += len(ring.monomial_basis(e - tw)[0])
    return offsets, total


def piece_matrix(ring, rows, src_twists, dst_twists, shift, e):
    """Scalar matrix of a map between degree pieces of free modules.

    rows[i][j] (a Poly; absent entries are zero, as in MatrixMap.rows) sends
    source generator j, of twist src_twists[j], to target generator i, of
    twist dst_twists[i], and the map raises degree by shift.  Columns are
    the degree-(e - shift) piece of the source and rows the degree-e piece
    of the target, each laid out by piece_layout.  A term that lands outside
    the target piece (a term of the wrong degree) raises SolveError.
    """
    src_off, ncols = piece_layout(ring, src_twists, e - shift)
    dst_off, nrows = piece_layout(ring, dst_twists, e)
    out = {}
    for i, row in rows.items():
        idx = ring.monomial_basis(e - dst_twists[i])[1]
        row0 = dst_off[i]
        for j, q in row.items():
            tj = src_twists[j]
            mons = ring.monomial_basis(e - shift - tj)[0]
            for expo, c in q.terms.items():
                for col, mon in enumerate(mons, src_off[j]):
                    # packed keys: the product monomial is the sum, and a
                    # key of the wrong degree is in no basis of degree e
                    r = idx.get(expo + mon)
                    if r is None:
                        raise SolveError(
                            f"entry ({i}, {j}) has a term of degree "
                            f"{expo >> ring.deg_shift}, expected "
                            f"{shift + tj - dst_twists[i]}"
                        )
                    # each (term, monomial) pair hits its own cell
                    out.setdefault(row0 + r, {})[col] = c
    return SparseMatrix((nrows, ncols), out)
