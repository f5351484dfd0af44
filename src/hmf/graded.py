"""Degreewise linear algebra over graded free modules.

A homogeneous element of degree e in a free module with generator degrees
(twists) t_1..t_r is a vector whose k-th component is homogeneous of degree
e - t_k.  Fixing monomial bases of those graded pieces turns every
congruence  sum_i c_i g_i = target (mod ideal)  into one sparse linear
system over the coefficient field, held as the nonzero rows of a
_kernels.SparseMatrix.  Polynomial matrices come in as the nonzero rows of
a MatrixMap ({row: {column: Poly}}), and solutions go out as their nonzero
coefficients only.  The bases are the ring's packed monomial bases
(GradedRing.monomial_basis), so the cell of a term and a basis monomial is
found by adding their keys and looking the sum up.  All solvers here pick
the first-pivot solution with free variables set to zero, so results are
reproducible bit for bit.

A degree piece of a free module over a quotient S/I has one representation,
QuotientPieces (coordinates on standard monomials, via normal forms against
the pivot rows of the RREF of I_d), shared by the verifier, extraction and
ideal membership.
"""

from __future__ import annotations

from . import _kernels
from ._kernels import SparseMatrix, _subtract
from .ring import Poly, RingError


class SolveError(ValueError):
    pass


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


def graded_solve(ring, dst_twists, e, slots, slot_degs, targets, ntargets):
    """Solve sum_s c_s * slot_s = target in the degree-e piece, per target.

    The slots are the columns of a map to the free module with twists
    dst_twists from one with a generator of twist slot_degs[s] per slot, so
    the unknown c_s is homogeneous of degree e - slot_degs[s]; slots holds
    that map's rows, as in MatrixMap.rows.  targets holds, the same way, the
    rows of the map whose column t < ntargets is target t.  Returns, per
    target, {s: c_s} over the nonzero coefficients, or None when unsolvable.

    Each solution is the canonical one: first pivot, free variables zero.
    Solutions differ by nullspace vectors, so the constructions built from
    them are unique only up to homotopy; this choice makes them
    reproducible.
    """
    fld = ring.field
    A = piece_matrix(ring, slots, slot_degs, dst_twists, 0, e)
    B = piece_matrix(ring, targets, [e] * ntargets, dst_twists, 0, e)
    if A.shape[0] == 0:
        # B has no rows either, so every target was zero
        return [{} for _ in range(ntargets)]
    col_slot = []
    col_mono = []
    for si, sdeg in enumerate(slot_degs):
        for m in ring.monomial_basis(e - sdeg)[0]:
            col_slot.append(si)
            col_mono.append(m)
    ok, X = fld.solve_many(A, B)
    # per target, its solution column: {unknown: value}, unknowns ascending
    sols = [{} for _ in range(ntargets)]
    for i, row in X.rows.items():
        for j, x in row.items():
            sols[j][i] = x
    # each (slot, monomial) pair is one unknown, so every coefficient is one
    # term dict
    results = []
    for j, sol in enumerate(sols):
        if not ok[j]:
            results.append(None)
            continue
        terms = {}
        for col, c in sol.items():
            terms.setdefault(col_slot[col], {})[col_mono[col]] = c
        results.append({si: Poly(ring, t) for si, t in terms.items()})
    return results


def graded_piece_solve(targets, gens):
    """Spec surface: targets are homogeneous Polys of one degree e, gens are
    (Poly g_i, slot degree e_i); returns coefficient lists or None per target.
    """
    if not targets:
        return []
    ring = targets[0].ring
    for t in targets:
        if not t.is_homogeneous():
            raise SolveError("inhomogeneous target")
    for g, _ in gens:
        if not g.is_homogeneous():
            raise SolveError("inhomogeneous generator")
    degs = {t.degree() for t in targets if not t.is_zero()}
    if len(degs) > 1:
        raise SolveError("targets of mixed degrees")
    if not degs:
        return [[ring.zero() for _ in gens] for _ in targets]
    e = degs.pop()
    res = graded_solve(ring, (0,), e, {0: dict(enumerate(g for g, _ in gens))},
                       [ed for _, ed in gens], {0: dict(enumerate(targets))},
                       len(targets))
    z = ring.zero()
    return [None if r is None else [r.get(i, z) for i in range(len(gens))]
            for r in res]


# ---------------------------------------------------------------------------
# Degree pieces over the quotient S/(gens), in normal form.


class QuotientPieces:
    """Degree pieces of free modules over S/I, I = (gens), in normal form.

    In degree d the RREF of I_d (rows g_i * m) has pivot monomials; the
    others, the standard monomials, index a basis of (S/I)_d.  The
    normal form of a vector clears its pivot coordinates with the RREF rows
    and keeps its standard coordinates, so it is 0 iff the vector lies in
    I_d, and it is the identity on standard monomials.  Over a monomial
    ideal each RREF row is its pivot monomial alone, and the normal form
    drops the pivot coordinates.  The RREF is taken once per degree, and a
    free module's piece is laid out from those of its twists.
    """

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = tuple(gens)
        self._pieces = {}
        self._layouts = {}

    def _piece(self, d):
        """({pivot monomial: rest of its RREF row}, {standard monomial:
        position}) of I_d, monomials by their index in ring.monomial_basis(d)."""
        if d in self._pieces:
            return self._pieces[d]
        n = len(self.ring.monomial_basis(d)[0])
        pivots = {}
        if self.gens and n:
            # rows of A span I_d: the transpose of the row map [g_1 ... g_r]
            A = piece_matrix(self.ring, {0: dict(enumerate(self.gens))},
                             [g.degree() for g in self.gens], (0,), 0, d).T
            R, piv = _kernels.rref(A, self.ring.field.char)
            for i, c in enumerate(piv):
                pivots[c] = {k: x for k, x in R.rows[i].items() if k != c}
        std = [k for k in range(n) if k not in pivots]
        self._pieces[d] = pivots, {k: s for s, k in enumerate(std)}
        return self._pieces[d]

    def _layout(self, twists, e):
        """The degree-e piece of the free module with these twists, rows
        laid out by piece_layout: ({pivot row: {standard index: its RREF
        coefficient}}, {standard row: standard index})."""
        key = (tuple(twists), e)
        if key in self._layouts:
            return self._layouts[key]
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
        self._layouts[key] = piv, std
        return piv, std

    def _normal_form(self, A, twists, e, cols):
        """The rows of A, a matrix on the degree-e piece of the free module
        with these twists, in normal form, keeping the columns in cols (a
        map to new column indices)."""
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
        """Dimension of the degree-e piece of the free module over S/I."""
        return len(self._layout(twists, e)[1])

    def induced(self, mm, e):
        """Matrix of the map that the MatrixMap mm induces over S/I, from
        the degree-(e - shift) piece to the degree-e piece, in the bases of
        standard monomials.  mm sends I * src into I * dst, so the normal
        form of its piece matrix factors through that of the source, and
        its standard columns are the induced map.
        """
        A = piece_matrix(self.ring, mm.rows, mm.src.twists, mm.dst.twists,
                         mm.shift, e)
        cols = self._layout(mm.src.twists, e - mm.shift)[1]
        return self._normal_form(A, mm.dst.twists, e, cols)

    def contains(self, g):
        """Is the nonzero homogeneous polynomial g in I?"""
        e = g.degree()
        b = piece_matrix(self.ring, {0: {0: g}}, (e,), (0,), 0, e)
        return not self._normal_form(b, (0,), e, {0: 0}).rows


def ideal_membership(g, level):
    """Is g in (f_1, ..., f_level)?  Complete for arbitrary g because the
    ideal is homogeneous: decided on each homogeneous component.
    """
    ring = g.ring
    if level < 0 or level > ring.codim:
        raise RingError(f"ideal level {level} out of range 0..{ring.codim}")
    if not g.terms or level == 0:
        return not g.terms
    Q = ring._membership_pieces.get(level)
    if Q is None:
        Q = QuotientPieces(ring, ring.regseq[:level])
        ring._membership_pieces[level] = Q
    return all(Q.contains(part) for part in g.homogeneous_parts().values())
