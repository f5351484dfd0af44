"""Quotient pieces by ideal-column augmentation: the test reference.

The degree-e piece of a free module P over S/I, I = (gens), is P_e modulo
the columns g * m * basis.  So the image of a matrix A over the quotient
has dimension rank [A | F] - rank F, F the ideal columns.  The verifier
uses normal forms instead, and composes d_i d_{i+1} as polynomial maps;
these tests compare it against this formula and a dense product of pieces.
"""

from dense import dense, sparse
from piece_reference import piece_layout, piece_matrix

from hmf._kernels import SparseMatrix
from hmf.complexes import Complex
from hmf.factorization import clone_ring_with_regseq, migrate_map


def with_extra_gens(C, extra):
    """C over (f_1..f_level) + extra: the same matrices over a copy of the
    ring whose regular sequence is f_1..f_level, then extra, read at level
    level + len(extra)."""
    ring = clone_ring_with_regseq(C.ring, C.ring.regseq[: C.level] + tuple(extra))
    level = C.level + len(extra)
    diffs = {i: migrate_map(ring, d).relevel(level) for i, d in C.diffs.items()}
    return Complex(ring, level, C.modules, diffs, C.lo, C.hi)


def ideal_piece(ring, twists, gens, e):
    """Columns spanning (gens) * P in degree e, P free with the given twists:
    the piece of the block map [g_1 I | ... | g_r I] onto P."""
    n = len(twists)
    rows = {i: {a * n + i: g for a, g in enumerate(gens)} for i in range(n)}
    src = [t + g.degree() for g in gens for t in twists]
    return piece_matrix(ring, rows, src, twists, 0, e)


def hstack(A, F):
    """[A | F]: the rows of F with its columns shifted past those of A."""
    n = A.shape[1]
    rows = {i: dict(row) for i, row in A.rows.items()}
    for i, row in F.rows.items():
        rows.setdefault(i, {}).update((j + n, x) for j, x in row.items())
    return SparseMatrix((A.shape[0], n + F.shape[1]), rows)


def image_dim(ring, A, twists, gens, e):
    """Dimension of the span of the columns of A in (P / I P)_e."""
    F = ideal_piece(ring, twists, gens, e)
    fld = ring.field
    return fld.rank(hstack(A, F)) - fld.rank(F)


def quotient_dim(ring, twists, gens, e):
    """Dimension of (P / I P)_e."""
    F = ideal_piece(ring, twists, gens, e)
    return piece_layout(ring, twists, e)[1] - ring.field.rank(F)


def map_piece(d, e):
    return piece_matrix(d.ring, d.rows, d.src.twists, d.dst.twists, d.shift, e)


def augmented_homology(C, hom_range, D):
    """dim H_i(C)_e by augmented ranks, with the composite d_i d_{i+1}
    counted so that a broken complex does not cancel out."""
    ring = C.ring
    p = ring.field.char
    gens = ring.regseq[: C.level]
    table = {}
    for i in range(hom_range[0], hom_range[1] + 1):
        for e in range(0, D + 1):
            h = quotient_dim(ring, C.module(i).twists, gens, e)
            if i > C.lo:
                A = map_piece(C.diff(i), e)
                h -= image_dim(ring, A, C.module(i - 1).twists, gens, e)
            if i < C.hi:
                B = map_piece(C.diff(i + 1), e)
                h -= image_dim(ring, B, C.module(i).twists, gens, e)
            if C.lo < i < C.hi:
                AB = dense(A, p) @ dense(B, p)
                AB = sparse(AB % p if p else AB)
                h += image_dim(ring, AB, C.module(i - 1).twists, gens, e)
            table[(i, e)] = h
    return table
