"""Degreewise linear algebra over graded free modules.

A homogeneous element of degree e in a free module with generator degrees
(twists) t_1..t_r is a vector whose k-th component is homogeneous of degree
e - t_k.  Fixing monomial bases of those graded pieces turns every
congruence  sum_i c_i g_i = target (mod ideal)  into one dense linear system
over the coefficient field.  All solvers here pick the first-pivot solution
with free variables set to zero, so results are reproducible bit for bit.

A degree piece of a free module over a quotient S/I has one representation,
QuotientPieces (coordinates on standard monomials, via normal forms against
the RREF of I_d), shared by the verifier, extraction and ideal membership.
"""

from __future__ import annotations

from operator import add

import numpy as np

from . import _kernels
from .ring import Poly, RingError


class SolveError(ValueError):
    pass


def piece_layout(ring, twists, e):
    """Row layout of the degree-e piece: (offsets, total_dim)."""
    offsets = []
    total = 0
    for tw in twists:
        offsets.append(total)
        total += len(ring.monomials(e - tw))
    return offsets, total


def piece_matrix(ring, entries, src_twists, dst_twists, shift, e):
    """Scalar matrix of a map between degree pieces of free modules.

    entries[i][j] (a Poly, or None for zero) sends source generator j, of
    twist src_twists[j], to target generator i, of twist dst_twists[i], and
    the map raises degree by shift.  Columns are the degree-(e - shift)
    piece of the source and rows the degree-e piece of the target, each laid
    out by piece_layout.  A term that lands outside the target piece (a term
    of the wrong degree) raises SolveError.
    """
    src_off, ncols = piece_layout(ring, src_twists, e - shift)
    dst_off, nrows = piece_layout(ring, dst_twists, e)
    A = ring.field.zeros(nrows, ncols)
    for j, tj in enumerate(src_twists):
        mons = ring.monomials(e - shift - tj)
        if not mons:
            continue
        col0 = src_off[j]
        for i, row in enumerate(entries):
            q = row[j]
            if q is None or not q.terms:
                continue
            idx = ring.monomial_index(e - dst_twists[i])
            row0 = dst_off[i]
            for expo, c in q.terms.items():
                for col, mon in enumerate(mons, col0):
                    r = idx.get(tuple(map(add, expo, mon)))
                    if r is None:
                        raise SolveError(
                            f"entry ({i}, {j}) has a term of degree "
                            f"{ring.mono_degree(expo)}, expected "
                            f"{shift + tj - dst_twists[i]}"
                        )
                    # each (term, monomial) pair hits its own cell
                    A[row0 + r, col] = c
    return A


def graded_solve(ring, dst_twists, e, slots, targets, variant=0):
    """Solve sum_i c_i * slot_i = target in the degree-e piece.

    slots: list of (vector over dst_twists, slot degree); the unknown c_i is
    homogeneous of degree e - slotdeg_i.  targets: list of vectors.  Returns,
    per target, either a list of coefficient Polys or None when unsolvable.

    variant = 0 picks the canonical first-pivot solution with zero free
    variables; any other value adds the first nullspace vector, giving a
    second deterministic representative whenever the solution is not unique.
    """
    fld = ring.field
    rows = range(len(dst_twists))
    # the slots are the columns of a map from a free module with one
    # generator per slot; a target is a map from one generator of twist e
    A = piece_matrix(ring, [[vec[k] for vec, _ in slots] for k in rows],
                     [sdeg for _, sdeg in slots], dst_twists, 0, e)
    B = piece_matrix(ring, [[tgt[k] for tgt in targets] for k in rows],
                     [e] * len(targets), dst_twists, 0, e)
    if A.shape[0] == 0:
        # B has no rows either, so every target was zero
        return [[ring.zero() for _ in slots] for _ in targets]
    col_slot = []
    col_mono = []
    for si, (_, sdeg) in enumerate(slots):
        for m in ring.monomials(e - sdeg):
            col_slot.append(si)
            col_mono.append(m)
    ok, X = fld.solve_many(A, B)
    if variant and col_slot:
        N = fld.nullspace(A)
        if N.shape[1]:
            X = X + N[:, :1]
            if fld.char:
                X %= fld.char
    # visit only the nonzero rows of each solution column; each (slot,
    # monomial) pair is one row, so every coefficient is one term dict
    z = ring.zero()
    results = []
    for j in range(len(targets)):
        if not ok[j]:
            results.append(None)
            continue
        nz = np.flatnonzero(X[:, j])
        terms = {}
        for col, c in zip(nz.tolist(), X[nz, j].tolist()):
            terms.setdefault(col_slot[col], {})[col_mono[col]] = fld.canon(c)
        coeffs = [z] * len(slots)
        for si, t in terms.items():
            coeffs[si] = Poly(ring, t)
        results.append(coeffs)
    return results


def graded_piece_solve(targets, gens, variant=0):
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
    slots = [((g,), ed) for g, ed in gens]
    return graded_solve(ring, (0,), e, slots, [(t,) for t in targets], variant=variant)


# ---------------------------------------------------------------------------
# Degree pieces over the quotient S/(gens), in normal form.


class QuotientPieces:
    """Degree pieces of free modules over S/I, I = (gens), in normal form.

    In degree d the RREF of I_d (rows g_i * m) has pivot monomials; the
    others, the standard monomials, index a basis of (S/I)_d.  The
    normal-form map N_d : S_d -> (S/I)_d clears the pivot coordinates of a
    vector with the RREF rows and keeps its standard coordinates, so
    N_d v = 0 iff v lies in I_d, and N_d is the identity on standard
    monomials.  Each N_d is built once per instance and applied block by
    block over the twists of a free module.
    """

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = tuple(gens)
        self._pieces = {}

    def _piece(self, d):
        """(N_d, standard positions); N_d is None when I_d = 0."""
        if d in self._pieces:
            return self._pieces[d]
        fld = self.ring.field
        n = len(self.ring.monomials(d))
        piv = []
        if self.gens and n:
            # rows of A span I_d: the transpose of the row map [g_1 ... g_r]
            A = piece_matrix(self.ring, [self.gens],
                             [g.degree() for g in self.gens], (0,), 0, d).T
            R, piv = _kernels.rref(A, fld.char)
        std = np.setdiff1d(np.arange(n), np.asarray(piv, dtype=np.int64))
        N = None
        if len(piv):
            N = fld.zeros(len(std), n)
            N[np.arange(len(std)), std] = fld.canon(1)
            neg = -R[: len(piv)][:, std].T
            N[:, piv] = neg % fld.char if fld.char else neg
        self._pieces[d] = (N, std)
        return N, std

    def dim(self, twists, e):
        """Dimension of the degree-e piece of the free module over S/I."""
        return sum(len(self._piece(e - t)[1]) for t in twists)

    def induced(self, mm, e):
        """Matrix of the map that the MatrixMap mm induces over S/I, from
        the degree-(e - shift) piece to the degree-e piece, in the bases of
        standard monomials.  mm sends I * src into I * dst, so N_dst A
        factors through N_src, and its standard columns are the induced map.
        """
        ring = self.ring
        A = piece_matrix(ring, mm.entries, mm.src.twists, mm.dst.twists,
                         mm.shift, e)
        rows = [A[:0]]
        dst_off, _ = piece_layout(ring, mm.dst.twists, e)
        for t, part in zip(mm.dst.twists, np.split(A, dst_off[1:])):
            N = self._piece(e - t)[0]
            rows.append(part if N is None else ring.field.matmul(N, part))
        cols = [np.zeros(0, dtype=np.int64)]
        src_off, _ = piece_layout(ring, mm.src.twists, e - mm.shift)
        for t, off in zip(mm.src.twists, src_off):
            cols.append(self._piece(e - mm.shift - t)[1] + off)
        return np.concatenate(rows)[:, np.concatenate(cols)]

    def contains(self, g):
        """Is the nonzero homogeneous polynomial g in I?"""
        e = g.degree()
        N, std = self._piece(e)
        b = piece_matrix(self.ring, [[g]], (e,), (0,), 0, e)
        return not (b[std] if N is None else self.ring.field.matmul(N, b)).any()


def ideal_membership(g, level):
    """Is g in (f_1, ..., f_level)?  Complete for arbitrary g because the
    ideal is homogeneous: decided on each homogeneous component.
    """
    ring = g.ring
    if level < 0 or level > ring.codim:
        raise RingError(f"ideal level {level} out of range 0..{ring.codim}")
    if g.is_zero() or level == 0:
        return g.is_zero()
    Q = ring._membership_pieces.get(level)
    if Q is None:
        Q = QuotientPieces(ring, ring.regseq[:level])
        ring._membership_pieces[level] = Q
    return all(Q.contains(part) for part in g.homogeneous_parts().values())
