"""Independent verification by plain graded linear algebra.

Homology tables are computed from raw matrices: a degree-e piece of a free
module over S/(f_1..f_p) is the span of its standard monomials, a map is
induced on them by reducing the images of the standard source monomials
against the RREF of the ideal piece (graded.QuotientPieces), and dimensions
reduce to ranks of the induced scalar matrices.  graded_homology is the one
cokernel count: a Hilbert function of a presentation is H_0 of its
two-term complex.  A composite d_i d_{i+1} is the complex's own square,
composed as a polynomial map, never multiplied out as scalar matrices; when
its entries lie in the ideal, as in a complex (tested entry by entry on the
table's own QuotientPieces), its rank is 0 in every degree, and otherwise
it is induced and ranked like any other map.  Nothing here calls the
lifting solvers; formula checks compare closed-form data against the built
resolutions, every Betti formula a case of the one graded statement for
S/(f_1..f_j), graded_betti_formula, and every equality row judged by the
one verdict rule, CheckItem.compare.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .complexes import koszul_complex, two_term_complex
from .factorization import presentation, signature, stability_rank_check
from .graded import QuotientPieces, ideal_membership, pieces


@dataclass
class CheckItem:
    item: str
    expected: object
    computed: object
    verdict: str

    def row(self):
        return {
            "item": self.item,
            "expected": self.expected,
            "computed": self.computed,
            "verdict": self.verdict,
        }

    @classmethod
    def compare(cls, item, expected, computed):
        """The row that passes exactly when computed == expected."""
        return cls(item, expected, computed,
                   "PASS" if computed == expected else "FAIL")


def default_degree_bound(C):
    """Max twist in range plus the largest element degree plus 2."""
    ring = C.ring
    tws = [t for i in range(C.lo, C.hi + 1) for t in C.module(i).twists]
    fdeg = max((f.degree() for f in ring.regseq), default=1)
    return (max(tws) if tws else 0) + fdeg + 2


def graded_homology(C, hom_range=None, D=None):
    """Exact dims of H_i(C)_e for i in hom_range and e <= D.

    Over the quotient by (f_1..f_level), with dbar_i the differential
    induced on standard monomials,
        h(i, e) = dim P_i,e - rank dbar_i - rank dbar_{i+1}
                  + rank(dbar_i dbar_{i+1}),
    and each dbar_i is assembled and ranked once per degree.
    """
    ring = C.ring
    fld = ring.field
    D = default_degree_bound(C) if D is None else D
    lo, hi = (C.lo, C.hi) if hom_range is None else hom_range
    Q = QuotientPieces(ring, ring.regseq[: C.level])
    # rank dbar_{i+1} of cell (i, e) is rank dbar_i of cell (i + 1, e): kept
    # until then
    pending = {}
    composites = {}

    def reduced_rank(i, e):
        return fld.rank(Q.induced(C.diff(i), e))

    def cell(i, e):
        h = Q.dim(C.module(i).twists, e)
        if h == 0:
            return 0
        if i > C.lo:
            rank_A = pending.pop((i, e), None)
            h -= reduced_rank(i, e) if rank_A is None else rank_A
        if i < C.hi:
            rank_B = pending[(i + 1, e)] = reduced_rank(i + 1, e)
            h -= rank_B
        if C.lo < i < C.hi:
            # the image need not lie in the kernel when the input is broken;
            # measure the composite so mutations are detected, not masked.
            # The map induced by d_i d_{i+1} is dbar_i dbar_{i+1}, since d_i
            # maps I P_i into I P_{i-1}; it is zero in every degree when
            # every entry of d_i d_{i+1} lies in I, as in a complex, which
            # is tested on the same pieces.
            if i not in composites:
                AB = C.square(i + 1)
                composites[i] = None if all(
                    Q.contains(q) for row in AB.rows.values()
                    for q in row.values()) else AB
            if composites[i] is not None:
                h += fld.rank(Q.induced(composites[i], e))
        return h

    return {(i, e): cell(i, e) for i in range(lo, hi + 1) for e in range(0, D + 1)}


def homology_is_zero(table, hom_range, D):
    bad = [(i, e) for (i, e), h in table.items()
           if hom_range[0] <= i <= hom_range[1] and e <= D and h != 0]
    return sorted(bad)


def exactness_certificate(C, hom_range=None, D=None):
    """PASS iff homology vanishes in the window (degrees 1..hi-1 by default,
    guarding the truncation edge)."""
    lo, hi = (1, C.hi - 1) if hom_range is None else hom_range
    D = default_degree_bound(C) if D is None else D
    table = graded_homology(C, (lo, hi), D)
    bad = homology_is_zero(table, (lo, hi), D)
    return CheckItem.compare(
        f"exactness in degrees {lo}..{hi} up to internal degree {D}", [], bad)


def hilbert_function(pres, D):
    """Degreewise dims of coker(pres) over the quotient at pres.level: H_0
    of the two-term complex of pres."""
    table = graded_homology(two_term_complex(pres.ring, pres, pres.level),
                            (0, 0), D)
    return {e: table[0, e] for e in range(0, D + 1)}


def betti(C):
    """Ranks of a minimal complex (the Betti numbers of its H_0)."""
    if not C.is_minimal():
        raise ValueError("betti numbers require a minimal complex")
    return C.betti_list()


def check_regular_sequence(ring, D=None):
    """Bounded Koszul certificate: H_i = 0 for i >= 1 up to degree D.

    Returns (ok, CheckItem); a warning is attached when D is below the top
    twist of the Koszul complex (certificate window too small).
    """
    c = ring.codim
    if c == 0:
        return True, CheckItem.compare("regular sequence (empty)", [], [])
    K = koszul_complex(ring, tuple(range(1, c + 1)), level=0)
    maxtw = sum(ring.fdeg(j) for j in range(1, c + 1))
    warn = None
    if D is None:
        D = maxtw + max(ring.var_degs)
    if D < maxtw:
        warn = f"degree bound {D} below top Koszul twist {maxtw}"
    table = graded_homology(K, (1, c), D)
    bad = homology_is_zero(table, (1, c), D)
    item = CheckItem.compare(
        f"Koszul homology vanishes in degrees <= {D}"
        + (f" ({warn})" if warn else ""), [], bad)
    return not bad, item


# ---------------------------------------------------------------------------
# Closed-form rank data


def graded_betti_formula(F, j, n):
    """Graded Betti numbers over S/(f_1..f_j), 0 <= j <= c (S at j = 0, R at
    j = c): one {twist: multiplicity} per homological degree i = 0..n.

    A generator of B_s(p) with twist t contributes, for p <= j, the
    divided-power twists t + sum_q a_q deg f_q over a_p + ... + a_j = z in
    degree s + 2z, and for p > j the Koszul twists t + sum_{q in J} deg f_q
    over J a subset of {j+1..p-1} in degree s + |J|.
    """
    fdeg = F.ring.fdeg
    out = [{} for _ in range(n + 1)]
    # (homological offset, internal shift) of each divided-power monomial
    # y_p^(a_p)..y_j^(a_j) of offset <= n, built from those of y_{p+1}..y_j
    powers = {j + 1: [(0, 0)]}
    for p in range(j, 0, -1):
        powers[p] = [(off + 2 * a, shift + a * fdeg(p))
                     for off, shift in powers[p + 1]
                     for a in range((n - off) // 2 + 1)]
    for p in range(1, F.c + 1):
        # and of each Koszul monomial e_J, J a subset of {j+1..p-1}
        shifts = powers[p] if p <= j else [
            (k, sum(fdeg(q) for q in J)) for k in range(p - j)
            for J in combinations(range(j + 1, p), k)]
        for s, B in ((0, F.b0[p]), (1, F.b1[p])):
            for t in B.twists:
                for off, shift in shifts:
                    if s + off <= n:
                        g = out[s + off]
                        g[t + shift] = g.get(t + shift, 0) + 1
    return out


def intermediate_betti_formula(F, j, n):
    """b_i for i = 0..n over S/(f_1..f_j): the ranks of the graded formula."""
    return [sum(g.values()) for g in graded_betti_formula(F, j, n)]


def finite_betti_formula(F):
    """The ranks over S (j = 0), trailing zeros dropped."""
    out = intermediate_betti_formula(F, 0, F.c + 1)
    while out and out[-1] == 0:
        out.pop()
    return out


def infinite_betti_formula(F, n):
    """b_i for i = 0..n over R = S/(f_1..f_c) (j = c)."""
    return intermediate_betti_formula(F, F.c, n)


def ext_dimension_counts(F):
    """The total rank of the finite resolution over S by the exterior-algebra
    decomposition: sum_p 2^(p-1) (rank B_1(p) + rank B_0(p))."""
    return sum(
        (2 ** (p - 1)) * (F.rank1(p) + F.rank0(p)) for p in range(1, F.c + 1)
    )


def formula_suite(F, steps=None, D=None):
    """Every closed-form rank statement compared against built resolutions.

    Returns a list of CheckItem rows; verdicts are PASS/FAIL/N-A.
    """
    from .resolutions import build_finite, build_infinite, build_intermediate

    ring = F.ring
    c = F.c
    steps = steps if steps is not None else max(2 * c + 2, 6)
    if F.is_trivial():
        return [CheckItem.compare("trivial factorization", [], [])]
    finite = build_finite(F)
    tower = build_infinite(F, steps)
    L = finite.complex
    T = tower.complex
    DL = default_degree_bound(L) if D is None else D
    DT = default_degree_bound(T.truncate(0, min(4, T.hi))) if D is None else D

    minimal = F.d.is_minimal() and all(
        F.h[p].is_minimal() for p in range(1, c + 1)
    )
    items = []
    # rank formulas read Betti numbers, which requires minimality
    if minimal:
        items.append(CheckItem.compare(
            "finite resolution ranks match sum_p (1+x)^(p-1)(x b1 + b0)",
            finite_betti_formula(F), betti(L) if L.is_minimal() else None))
        items.append(CheckItem.compare(
            "quotient tower ranks match the two binomial polynomials",
            infinite_betti_formula(F, T.hi), T.betti_list()))
        for j in range(1, c):
            Q = build_intermediate(F, j, steps, tower=tower).complex
            items.append(CheckItem.compare(
                f"intermediate ranks over level {j} match the mixed formula",
                intermediate_betti_formula(F, j, Q.hi), Q.betti_list()))
    else:
        items.append(
            CheckItem("rank formulas (minimal factorizations only)",
                      None, None, "N-A")
        )
    # minimality equivalences
    items.append(CheckItem.compare(
        "minimal factorization iff minimal finite resolution",
        minimal, L.is_minimal()))
    items.append(CheckItem.compare(
        "minimal factorization iff minimal quotient tower",
        minimal, T.is_minimal()))
    # complexity / Betti degree
    sig = signature(F)
    if sig.gamma is not None:
        items.append(CheckItem.compare(
            "top nonzero stage is square (Betti degree well defined)",
            True, F.rank1(sig.gamma) == F.rank0(sig.gamma)))
    # Ext dimension decomposition counts
    if minimal:
        items.append(CheckItem.compare(
            "exterior-algebra count equals total finite Betti sum",
            ext_dimension_counts(F),
            sum(betti(L)) if L.is_minimal() else None))
    # admissible-label count per stage (polynomial-ring decomposition)
    if tower.weights:
        items.append(CheckItem.compare(
            "weight labels cover the tower basis", True,
            all(len(tower.weights.get(n, ())) == T.module(n).rank
                for n in range(0, T.hi + 1))))
    # graded series: the tower's twists read off the graded formula at j = c
    if minimal:
        items.append(CheckItem.compare(
            "graded tower twists match the graded series",
            graded_betti_formula(F, c, T.hi),
            [dict(Counter(T.module(n).twists)) for n in range(0, T.hi + 1)]))
    else:
        items.append(CheckItem("graded series (minimal factorizations only)",
                               None, None, "N-A"))
    # stages from the lowest nonzero one on: projective dimension exactly p,
    # and no zero row in the presentation mod level p
    low = next((p for p in range(1, c + 1) if F.rank1(p) or F.rank0(p)),
               c + 1)
    items.append(CheckItem.compare(
        "stage p resolution has length exactly p", True,
        all(max((i for i in range(S.lo, S.hi + 1) if S.rank(i)), default=0) == p
            for p, S in finite.stages.items() if p >= low)))
    free_ok = True
    for p in range(low, c + 1):
        pres, _ = presentation(F, p)
        # an absent row is a zero row
        free_ok = free_ok and not any(
            all(ideal_membership(q, p) for q in pres.rows.get(i, {}).values())
            for i in range(pres.dst.rank))
    items.append(CheckItem.compare(
        "no zero row in any minimal stage presentation", True, free_ok))
    # augmented presentation shape
    _, aug = presentation(F, c)
    items.append(CheckItem.compare(
        "augmented presentation has d plus the element columns",
        F.A1(c).rank + sum((p - 1) * F.rank0(p) for p in range(1, c + 1)),
        aug.src.rank))
    # stability rank pattern (reported, not a validity failure)
    stab = stability_rank_check(F)
    items.append(CheckItem.compare(
        "pre-stability rank pattern", "PASS",
        "PASS" if stab.ok else f"FAIL: {stab.failures[:1]}"))
    # homology certificates
    items.append(exactness_certificate(L, (1, L.hi), DL))
    items.append(exactness_certificate(T, (1, T.hi - 1), DT))
    # Euler characteristic consistency: the Hilbert function of the top
    # module matches the alternating twist sum of the finite resolution
    # divided by prod (1 - x^(deg var)), as power series up to DL
    if L.is_minimal():
        pres_c, _ = presentation(F, c)
        hf = hilbert_function(pres_c, DL)
        kpoly = {}
        sign = 1
        for i in range(L.lo, L.hi + 1):
            for t in L.module(i).twists:
                kpoly[t] = kpoly.get(t, 0) + sign
            sign = -sign
        ring_hf = [pieces(ring, 0).dim((0,), e) for e in range(0, DL + 1)]
        predicted = [sum(mult * ring_hf[e - t] for t, mult in kpoly.items()
                         if 0 <= e - t <= DL) for e in range(0, DL + 1)]
        items.append(CheckItem.compare(
            "alternating twist sum reproduces the Hilbert function",
            predicted, [hf[e] for e in range(0, DL + 1)]))
    return items
