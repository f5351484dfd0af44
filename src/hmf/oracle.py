"""Independent verification by plain graded linear algebra.

Homology tables are computed from raw matrices: a degree-e piece of a free
module over S/(f_1..f_p) is the span of its standard monomials, every
S-piece is brought to normal form against the RREF of the ideal piece
(graded.QuotientPieces), and dimensions reduce to ranks of the induced
scalar matrices, sparse rows assembled from the polynomial maps.  A
composite d_i d_{i+1} is composed as a polynomial map and induced like any
other, never multiplied out as scalar matrices.  Nothing here calls the lifting solvers; formula checks
compare closed-form rank data against the built resolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .complexes import koszul_complex
from .factorization import signature
from .graded import QuotientPieces


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


def default_degree_bound(C):
    """Max twist in range plus the largest element degree plus 2."""
    ring = C.ring
    tws = [t for i in range(C.lo, C.hi + 1) for t in C.module(i).twists]
    fdeg = max((f.degree() for f in ring.regseq), default=1)
    return (max(tws) if tws else 0) + fdeg + 2


def graded_homology(C, hom_range=None, D=None, extra_gens=()):
    """Exact dims of H_i(C)_e for i in hom_range and e <= D.

    Over the quotient by (f_1..f_level) + extra_gens, with dbar_i the
    differential induced on normal forms,
        h(i, e) = dim P_i,e - rank dbar_i - rank dbar_{i+1}
                  + rank(dbar_i dbar_{i+1}),
    and each dbar_i is assembled and ranked once per degree.
    """
    ring = C.ring
    fld = ring.field
    D = default_degree_bound(C) if D is None else D
    lo, hi = (C.lo, C.hi) if hom_range is None else hom_range
    Q = QuotientPieces(ring, ring.regseq[: C.level] + tuple(extra_gens))
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
            # The map induced by d_i d_{i+1} is dbar_i dbar_{i+1}:
            # N_{i-1} A_i = dbar_i N_i because A_i maps I P_i into I P_{i-1}.
            if i not in composites:
                composites[i] = C.diff(i).compose(C.diff(i + 1))
            h += fld.rank(Q.induced(composites[i], e))
        return h

    return {(i, e): cell(i, e) for i in range(lo, hi + 1) for e in range(0, D + 1)}


def homology_is_zero(table, hom_range, D):
    bad = [(i, e) for (i, e), h in table.items()
           if hom_range[0] <= i <= hom_range[1] and e <= D and h != 0]
    return sorted(bad)


def exactness_certificate(C, hom_range=None, D=None, extra_gens=()):
    """PASS iff homology vanishes in the window (degrees 1..hi-1 by default,
    guarding the truncation edge)."""
    lo, hi = (1, C.hi - 1) if hom_range is None else hom_range
    D = default_degree_bound(C) if D is None else D
    table = graded_homology(C, (lo, hi), D, extra_gens)
    bad = homology_is_zero(table, (lo, hi), D)
    return CheckItem(
        f"exactness in degrees {lo}..{hi} up to internal degree {D}",
        [],
        bad,
        "PASS" if not bad else "FAIL",
    )


def hilbert_function(pres, D, extra_gens=()):
    """Degreewise dims of coker(pres) over the quotient at pres.level."""
    ring = pres.ring
    Q = QuotientPieces(ring, ring.regseq[: pres.level] + tuple(extra_gens))
    out = {}
    for e in range(0, D + 1):
        dim = Q.dim(pres.dst.twists, e)
        out[e] = dim - ring.field.rank(Q.induced(pres, e)) if dim else 0
    return out


def betti(C):
    """Ranks of a minimal complex (the Betti numbers of its H_0)."""
    if not C.is_minimal():
        raise ValueError("betti numbers require a minimal complex")
    return C.betti_list()


def graded_betti(C):
    """Twist multiplicities per homological degree of a minimal complex."""
    if not C.is_minimal():
        raise ValueError("graded betti numbers require a minimal complex")
    out = {}
    for i in range(C.lo, C.hi + 1):
        tws = {}
        for t in C.module(i).twists:
            tws[t] = tws.get(t, 0) + 1
        out[i] = tws
    return out


def check_regular_sequence(ring, D=None):
    """Bounded Koszul certificate: H_i = 0 for i >= 1 up to degree D.

    Returns (ok, CheckItem); a warning is attached when D is below the top
    twist of the Koszul complex (certificate window too small).
    """
    c = ring.codim
    if c == 0:
        return True, CheckItem("regular sequence (empty)", [], [], "PASS")
    for j in range(1, c + 1):
        if ring.regseq[j - 1].is_zero():
            return False, CheckItem("regular sequence", [], [f"f_{j} = 0"], "FAIL")
    K = koszul_complex(ring, tuple(range(1, c + 1)), level=0)
    maxtw = sum(ring.fdeg(j) for j in range(1, c + 1))
    warn = None
    if D is None:
        D = maxtw + max(ring.var_degs)
    if D < maxtw:
        warn = f"degree bound {D} below top Koszul twist {maxtw}"
    table = graded_homology(K, (1, c), D)
    bad = homology_is_zero(table, (1, c), D)
    item = CheckItem(
        f"Koszul homology vanishes in degrees <= {D}"
        + (f" ({warn})" if warn else ""),
        [],
        bad,
        "PASS" if not bad else "FAIL",
    )
    return not bad, item


# ---------------------------------------------------------------------------
# Closed-form rank data


def finite_betti_formula(F):
    """Coefficients of sum_p (1+x)^(p-1) (x rank B_1(p) + rank B_0(p))."""
    c = F.c
    out = [0] * (c + 2)
    for p in range(1, c + 1):
        for i in range(0, p):
            binom = math.comb(p - 1, i)
            out[i] += binom * F.rank0(p)
            out[i + 1] += binom * F.rank1(p)
    while out and out[-1] == 0:
        out.pop()
    return out


def infinite_betti_formula(F, n):
    """b_i for i = 0..n:  b_{2z} = sum_p C(c-p+z, c-p) rank B_0(p),
    b_{2z+1} = sum_p C(c-p+z, c-p) rank B_1(p)."""
    c = F.c
    out = []
    for i in range(0, n + 1):
        z = i // 2
        acc = 0
        for p in range(1, c + 1):
            binom = math.comb(c - p + z, c - p)
            acc += binom * (F.rank0(p) if i % 2 == 0 else F.rank1(p))
        out.append(acc)
    return out


def intermediate_betti_formula(F, j, n):
    """b_i over S/(f_1..f_j): tail stages contribute binomially, lower stages
    with denominator (1-x^2)^(j-p+1)."""
    c = F.c
    out = []
    for i in range(0, n + 1):
        acc = 0
        z = i // 2
        for p in range(1, j + 1):
            binom = math.comb(j - p + z, j - p)
            acc += binom * (F.rank0(p) if i % 2 == 0 else F.rank1(p))
        for p in range(j + 1, c + 1):
            for s in (0, 1):
                rank = F.rank1(p) if s else F.rank0(p)
                if i - s >= 0 and i - s <= p - j - 1:
                    acc += math.comb(p - j - 1, i - s) * rank
        out.append(acc)
    return out


def graded_infinite_betti_formula(F, n):
    """Graded refinement when all deg f_p agree: coefficient dictionaries
    {internal degree: multiplicity} per homological degree."""
    ring = F.ring
    c = F.c
    degs = {ring.fdeg(p) for p in range(1, c + 1)}
    if len(degs) != 1:
        raise ValueError("graded series needs equal element degrees")
    q = degs.pop()
    out = []
    for i in range(0, n + 1):
        z = i // 2
        s = i % 2
        acc = {}
        for p in range(1, c + 1):
            B = F.b1[p] if s else F.b0[p]
            # choose z powers among chi_p..chi_c with repetition: each
            # contributes internal degree q
            mult = math.comb(c - p + z, c - p)
            for t in B.twists:
                key = t + q * z
                acc[key] = acc.get(key, 0) + mult
        out.append(acc)
    return out


def ext_dimension_counts(F):
    """Total dims of the two standard decompositions:

    over S:  sum_p 2^(p-1) (rank B_1(p) + rank B_0(p));
    over the full quotient, per degree, the infinite formula.
    """
    total_S = sum(
        (2 ** (p - 1)) * (F.rank1(p) + F.rank0(p)) for p in range(1, F.c + 1)
    )
    return total_S


def formula_suite(F, finite=None, tower=None, steps=None, D=None):
    """Every closed-form rank statement compared against built resolutions.

    Returns a list of CheckItem rows; verdicts are PASS/FAIL/N-A.  The
    caller may pass prebuilt bundles to avoid rebuilding.
    """
    from .resolutions import build_finite, build_infinite

    ring = F.ring
    items = []
    c = F.c
    steps = steps if steps is not None else max(2 * c + 2, 6)
    if F.is_trivial():
        items.append(CheckItem("trivial factorization", [], [], "PASS"))
        return items
    finite = finite or build_finite(F)
    tower = tower or build_infinite(F, steps)
    L = finite.complex
    T = tower.complex
    DL = default_degree_bound(L) if D is None else D
    DT = default_degree_bound(T.truncate(0, min(4, T.hi))) if D is None else D

    minimal_input = F.d.is_minimal() and all(
        F.h[p].is_minimal() for p in range(1, c + 1)
    )
    # rank formulas read Betti numbers, which requires minimality
    if minimal_input:
        expect = finite_betti_formula(F)
        got = betti(L) if L.is_minimal() else None
        items.append(
            CheckItem(
                "finite resolution ranks match sum_p (1+x)^(p-1)(x b1 + b0)",
                expect,
                got,
                "PASS" if got == expect else "FAIL",
            )
        )
        expect = infinite_betti_formula(F, T.hi)
        gotT = T.betti_list()
        items.append(
            CheckItem(
                "quotient tower ranks match the two binomial polynomials",
                expect,
                gotT,
                "PASS" if gotT == expect else "FAIL",
            )
        )
        from .resolutions import build_intermediate

        for j in range(1, c):
            Q = build_intermediate(F, j, steps, tower=tower)
            expect = intermediate_betti_formula(F, j, Q.complex.hi)
            got = Q.complex.betti_list()
            items.append(
                CheckItem(
                    f"intermediate ranks over level {j} match the mixed formula",
                    expect,
                    got,
                    "PASS" if got == expect else "FAIL",
                )
            )
    else:
        items.append(
            CheckItem("rank formulas (minimal factorizations only)",
                      None, None, "N-A")
        )
    # minimality equivalences
    minimal_F = F.d.is_minimal() and all(F.h[p].is_minimal() for p in range(1, c + 1))
    items.append(
        CheckItem(
            "minimal factorization iff minimal finite resolution",
            minimal_F,
            L.is_minimal(),
            "PASS" if minimal_F == L.is_minimal() else "FAIL",
        )
    )
    items.append(
        CheckItem(
            "minimal factorization iff minimal quotient tower",
            minimal_F,
            T.is_minimal(),
            "PASS" if minimal_F == T.is_minimal() else "FAIL",
        )
    )
    # complexity / Betti degree
    sig = signature(F)
    if sig.gamma is not None:
        eq = F.rank1(sig.gamma) == F.rank0(sig.gamma)
        items.append(
            CheckItem(
                "top nonzero stage is square (Betti degree well defined)",
                True,
                eq,
                "PASS" if eq else "FAIL",
            )
        )
    # Ext dimension decomposition counts
    if minimal_input:
        totalS = ext_dimension_counts(F)
        gotS = sum(betti(L)) if L.is_minimal() else None
        items.append(
            CheckItem(
                "exterior-algebra count equals total finite Betti sum",
                totalS,
                gotS,
                "PASS" if gotS == totalS else "FAIL",
            )
        )
    # admissible-label count per stage (polynomial-ring decomposition)
    if tower.weights:
        ok = True
        for n in range(0, T.hi + 1):
            wts = tower.weights.get(n, ())
            if len(wts) != T.module(n).rank:
                ok = False
        items.append(
            CheckItem(
                "weight labels cover the tower basis",
                True,
                ok,
                "PASS" if ok else "FAIL",
            )
        )
    # graded series when degrees agree
    degs = {ring.fdeg(p) for p in range(1, c + 1)}
    if len(degs) == 1 and minimal_input:
        expect = graded_infinite_betti_formula(F, T.hi)
        got = []
        for n in range(0, T.hi + 1):
            tws = {}
            for t in T.module(n).twists:
                tws[t] = tws.get(t, 0) + 1
            got.append(tws)
        items.append(
            CheckItem(
                "graded tower twists match the graded series",
                expect,
                got,
                "PASS" if expect == got else "FAIL",
            )
        )
    else:
        items.append(
            CheckItem("graded series (equal degrees only)", None, None, "N-A")
        )
    # projective dimension of the stages
    pd_ok = True
    for p in range(1, c + 1):
        stage = finite.stages[p]
        nonzero = any(F.rank1(qq) or F.rank0(qq) for qq in range(1, p + 1))
        if nonzero and (stage.hi != p or stage.module(p).rank == 0):
            top = max((i for i in range(stage.lo, stage.hi + 1)
                       if stage.module(i).rank), default=0)
            if top != p:
                pd_ok = False
    items.append(
        CheckItem(
            "stage p resolution has length exactly p",
            True,
            pd_ok,
            "PASS" if pd_ok else "FAIL",
        )
    )
    # no free summands: no zero row in the minimal presentation mod level
    from .factorization import presentation

    free_ok = True
    for p in range(1, c + 1):
        if not any(F.rank1(qq) or F.rank0(qq) for qq in range(1, p + 1)):
            continue
        pres, _ = presentation(F, p)
        for i in range(pres.dst.rank):
            from .graded import ideal_membership

            if all(
                ideal_membership(pres.entries[i][j], p)
                for j in range(pres.src.rank)
            ):
                free_ok = False
    items.append(
        CheckItem(
            "no zero row in any minimal stage presentation",
            True,
            free_ok,
            "PASS" if free_ok else "FAIL",
        )
    )
    # augmented presentation shape
    _, aug = presentation(F, c)
    expect_cols = F.A1(c).rank + sum(
        (p - 1) * F.rank0(p) for p in range(1, c + 1)
    )
    items.append(
        CheckItem(
            "augmented presentation has d plus the element columns",
            expect_cols,
            aug.src.rank,
            "PASS" if aug.src.rank == expect_cols else "FAIL",
        )
    )
    # stability rank pattern (reported, not a validity failure)
    from .factorization import stability_rank_check

    stab = stability_rank_check(F)
    items.append(
        CheckItem(
            "pre-stability rank pattern",
            "PASS",
            "PASS" if stab.ok else f"FAIL: {stab.failures[:1]}",
            "PASS" if stab.ok else "FAIL",
        )
    )
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
        ring_hf = [len(ring.monomials(e)) for e in range(0, DL + 1)]
        predicted = []
        for e in range(0, DL + 1):
            acc = 0
            for t, mult in kpoly.items():
                if 0 <= e - t <= DL:
                    acc += mult * ring_hf[e - t]
            predicted.append(acc)
        got_hf = [hf[e] for e in range(0, DL + 1)]
        items.append(
            CheckItem(
                "alternating twist sum reproduces the Hilbert function",
                predicted,
                got_hf,
                "PASS" if predicted == got_hf else "FAIL",
            )
        )
    return items
