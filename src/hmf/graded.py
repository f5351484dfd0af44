"""Degreewise linear algebra over graded free modules.

A homogeneous element of degree e in a free module with generator degrees
(twists) t_1..t_r is a vector whose k-th component is homogeneous of degree
e - t_k.  Fixing monomial bases of those graded pieces turns every
congruence  sum_i c_i g_i = target (mod ideal)  into one sparse linear
system over the coefficient field, held as the nonzero rows of a
_kernels.SparseMatrix.  Polynomial matrices come in as the nonzero rows of
a MatrixMap ({row: {column: Poly}}), and solutions go out as their nonzero
coefficients only.  All solvers here pick the first-pivot solution with
free variables set to zero, so results are reproducible bit for bit.

QuotientPieces is the one layout of a degree piece and the one assembler
of scalar matrices, over S/I for every ideal I, S itself (I = 0) included.
Its coordinates are the standard monomials, the non-pivot monomials of the
RREF of I_d, and basis inverts the layout: position -> (generator, packed
monomial).  A map is induced on the standard source monomials alone, each
pivot monomial of a product replaced by its normal form, so no S-piece is
assembled for a quotient; over S the standard monomials are the ring's
packed monomial bases (GradedRing.monomial_basis), and the cell of a term
and a basis monomial is found by adding their keys and looking the sum up.
pieces(ring, level) keeps one QuotientPieces per level of the ring, shared
by the builders' solves (level 0) and ideal membership.
"""

from __future__ import annotations

from . import _kernels
from ._kernels import SparseMatrix
from .ring import Poly, RingError


class SolveError(ValueError):
    pass


def pieces(ring, level):
    """The QuotientPieces of S/(f_1, ..., f_level), kept on the ring; level
    0 is S itself."""
    Q = ring._level_pieces.get(level)
    if Q is None:
        Q = ring._level_pieces[level] = QuotientPieces(ring, ring.regseq[:level])
    return Q


def graded_solve(ring, dst_twists, e, slots, slot_degs, targets, ntargets):
    """Solve sum_s c_s * slot_s = target in the degree-e piece, per target.

    The slots are the columns of a map to the free module with twists
    dst_twists from one with a generator of twist slot_degs[s] per slot, so
    the unknown c_s is homogeneous of degree e - slot_degs[s]; slots holds
    that map's rows, as in MatrixMap.rows.  targets holds, the same way, the
    rows of the map whose column t < ntargets is target t.  Returns, per
    target, {s: c_s} over the nonzero coefficients, or None when unsolvable.

    The system is assembled once, as [A | B]: the targets are more source
    columns past the slots, each of twist e, so each is one column of the
    degree-e piece.  Each solution is the canonical one: first pivot, free
    variables zero.  Solutions differ by nullspace vectors, so the
    constructions built from them are unique only up to homotopy; this
    choice makes them reproducible.
    """
    S = pieces(ring, 0)
    ns = len(slot_degs)
    rows = {i: dict(row) for i, row in slots.items()}
    for i, row in targets.items():
        rows.setdefault(i, {}).update((ns + t, q) for t, q in row.items())
    AB = S._walk(rows, [*slot_degs, *[e] * ntargets], dst_twists, 0, e)
    if AB.shape[0] == 0:
        # the piece is zero, so every target was zero
        return [{} for _ in range(ntargets)]
    ok, X = ring.field.solve_many(AB, AB.shape[1] - ntargets)
    # per target, its solution column: {unknown: value}, unknowns ascending
    sols = [{} for _ in range(ntargets)]
    for i, row in X.rows.items():
        for j, x in row.items():
            sols[j][i] = x
    # each (slot, monomial) pair is one unknown, so every coefficient is one
    # term dict
    unknowns = S.basis(slot_degs, e)
    results = []
    for j, sol in enumerate(sols):
        if not ok[j]:
            results.append(None)
            continue
        terms = {}
        for col, c in sol.items():
            si, m = unknowns[col]
            terms.setdefault(si, {})[m] = c
        results.append({si: Poly(ring, t) for si, t in terms.items()})
    return results


# ---------------------------------------------------------------------------
# Degree pieces over the quotient S/(gens), on standard monomials.


class QuotientPieces:
    """Degree pieces of free modules over S/I, I = (gens), on standard
    monomials.

    In degree d the RREF of I_d (rows g_i * m) has pivot monomials; the
    others, the standard monomials, are a basis of (S/I)_d.  A pivot
    monomial is congruent mod I_d to its normal form, the negated rest of
    its RREF row, a combination of standard monomials; over a monomial
    ideal every RREF row is its pivot alone, and the normal form is 0.  The
    RREF is taken once per degree, and a free module's piece is the
    concatenation of the pieces of its twists.  No S-piece is assembled: a
    map is induced from the images of the standard source monomials only.
    """

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = tuple(gens)
        self._pieces = {}

    def _piece(self, d):
        """(standard keys in position order, {standard key: position},
        {pivot key: its normal form {position: coefficient}}) in degree d,
        the pivots of normal form 0 left out.  Where I_d = 0, the first two
        are ring.monomial_basis(d) itself."""
        got = self._pieces.get(d)
        if got is not None:
            return got
        keys, pos = self.ring.monomial_basis(d)
        nf = {}
        # the rows g * m span I_d
        rows = [{pos[k + m]: c for k, c in g.terms.items()} for g in self.gens
                for m in self.ring.monomial_basis(d - g.degree())[0]]
        if rows:
            p = self.ring.field.char
            R, piv = _kernels.rref(SparseMatrix((len(rows), len(keys)),
                                                dict(enumerate(rows))), p)
            pivots = set(piv)
            std = tuple(k for c, k in enumerate(keys) if c not in pivots)
            pos = {k: s for s, k in enumerate(std)}
            for i, c in enumerate(piv):
                if len(R.rows[i]) > 1:
                    nf[keys[c]] = {pos[keys[j]]: -x % p if p else -x
                                   for j, x in R.rows[i].items() if j != c}
            keys = std
        got = self._pieces[d] = keys, pos, nf
        return got

    def dim(self, twists, e):
        """Dimension of the degree-e piece of the free module over S/I."""
        return sum(len(self._piece(e - t)[0]) for t in twists)

    def basis(self, twists, e):
        """The inverse of the layout of the degree-e piece: per position, in
        position order, its (generator, standard packed monomial)."""
        return [(j, k) for j, t in enumerate(twists)
                for k in self._piece(e - t)[0]]

    def induced(self, mm, e):
        """Matrix of the map that the MatrixMap mm induces over S/I, from
        the degree-(e - shift) piece to the degree-e piece, in the bases of
        standard monomials.  mm sends I * src into I * dst, so column m, a
        standard source monomial, is its image with every pivot monomial
        replaced by its normal form.  An entry with a term of the wrong
        degree raises SolveError.
        """
        return self._walk(mm.rows, mm.src.twists, mm.dst.twists, mm.shift, e)

    def contains(self, g):
        """Is the nonzero homogeneous polynomial g in I?  The 1x1 case of
        induced: g as a map from S(-e), at its generator, e the degree of
        its greatest key, so a term of another degree raises SolveError."""
        e = max(g.terms) >> self.ring.deg_shift
        return not self._walk({0: {0: g}}, (e,), (0,), 0, e).rows

    def _walk(self, rows, src_twists, dst_twists, shift, e):
        """induced, on the rows {i: {j: Poly}} of a map between free
        modules with these twists that raises degree by shift: the one
        assembler, also of graded_solve's systems over S."""
        p = self.ring.field.char
        ds = self.ring.deg_shift
        cols = []
        ncols = 0
        for t in src_twists:
            std = self._piece(e - shift - t)[0]
            cols.append((ncols, std))
            ncols += len(std)
        blocks = []
        nrows = 0
        for t in dst_twists:
            std, pos, nf = self._piece(e - t)
            blocks.append((nrows, pos, nf))
            nrows += len(std)
        out = {}
        for i, row in rows.items():
            r0, pos, nf = blocks[i]
            for j, q in row.items():
                # the keys of least and greatest degree are the extremes
                want = src_twists[j] + shift - dst_twists[i]
                lo, hi = min(q.terms) >> ds, max(q.terms) >> ds
                if lo != want or hi != want:
                    raise SolveError(f"entry ({i}, {j}) has a term of degree "
                                     f"{hi if lo == want else lo}, expected {want}")
                c0, mons = cols[j]
                # the products with one source monomial are distinct keys,
                # so a standard one fills its own cell; normal forms overlap
                # and are summed apart, then added to those cells
                folded = {}
                for k, c in q.terms.items():
                    for col, mon in enumerate(mons, c0):
                        m = k + mon
                        r = pos.get(m)
                        if r is not None:
                            out.setdefault(r0 + r, {})[col] = c
                        elif m in nf:
                            for r, x in nf[m].items():
                                folded[r, col] = folded.get((r, col), 0) + c * x
                for (r, col), x in folded.items():
                    cells = out.setdefault(r0 + r, {})
                    x += cells.get(col, 0)
                    if p:
                        x %= p
                    if x:
                        cells[col] = x
                    else:
                        cells.pop(col, None)
                        if not cells:
                            del out[r0 + r]
        return SparseMatrix((nrows, ncols), out)


def ideal_membership(g, level):
    """Is g in (f_1, ..., f_level)?  Complete for arbitrary g because the
    ideal is homogeneous: decided on each homogeneous component.
    """
    ring = g.ring
    if level < 0 or level > ring.codim:
        raise RingError(f"ideal level {level} out of range 0..{ring.codim}")
    if not g.terms or level == 0:
        return not g.terms
    Q = pieces(ring, level)
    return all(Q.contains(part) for part in g.homogeneous_parts().values())
