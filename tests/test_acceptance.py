"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every tolerance is exact: matrix identities hold entrywise over
the base ring or modulo the stated prefix ideal, and rank data is integer
arithmetic.
"""

import time

import pytest
from second_solution import second_solution

from hmf.complexes import MatrixMap, two_term_complex, validate_homotopy_system
from hmf.corpus import codim2_xa_yb, codim2_xz_y2, micro_codim1
from hmf.factorization import (
    presentation,
    signature,
    stability_rank_check,
    validate_hmf,
    validate_strong,
)
from hmf.lifting import (
    higher_homotopies,
    homotopy_comparison,
    lifted_comparison_check,
)
from hmf.oracle import (
    exactness_certificate,
    formula_suite,
    graded_homology,
    hilbert_function,
    homology_is_zero,
)
from hmf.resolutions import (
    box,
    box_unroll,
    build_finite,
    build_infinite,
    cosyz_tower,
    peel,
    shamash,
    special_lifting_and_ci,
)


def report(n, ok, detail=""):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def F():
    return codim2_xa_yb()


@pytest.fixture(scope="module")
def fin(F):
    return build_finite(F)


@pytest.fixture(scope="module")
def tower(F):
    return build_infinite(F, 9)


def test_acceptance_1_axioms(F):
    rep = validate_hmf(F)
    ring = F.ring
    P = ring.poly
    dh = F.d_p(2).compose(F.h[2])
    hd = F.h[2].compose(F.d_p(2))
    dh_expected = [["y*b", "0", "0"], ["0", "y*b", "0"], ["0", "x*a", "y*b"]]
    hd_expected = [
        ["y*b", "x*b", "0", "0"],
        ["0", "0", "0", "0"],
        ["x*a", "0", "y*b", "0"],
        ["0", "x*a", "0", "y*b"],
    ]
    ok = (
        rep.ok
        and "minimal: True" in rep.items
        and [list(r) for r in dh.entries] == [[P(s) for s in row] for row in dh_expected]
        and [list(r) for r in hd.entries] == [[P(s) for s in row] for row in hd_expected]
    )
    report(1, ok, "axioms valid, displayed products exact")


def test_acceptance_2_finite_resolution(F, fin):
    L = fin.complex
    ok = L.is_minimal() and L.hi == 2 and L.betti_list() == [3, 5, 2]
    table = graded_homology(L, (0, 2), 8)
    ok = ok and not homology_is_zero(table, (1, 2), 8)
    pres, aug = presentation(F, 2)
    expected = [
        ["a", "0", "0", "-b", "0"],
        ["y", "x", "0", "0", "0"],
        ["0", "0", "y", "x", "a*x"],
    ]
    ok = ok and [[str(q) for q in row] for row in aug.entries] == expected
    hf = hilbert_function(pres, 8)
    ok = ok and all(table[(0, e)] == hf[e] for e in range(0, 9))
    report(2, ok, "minimal (3,5,2), exact to degree 8, presentation matches")


def test_acceptance_3_infinite_resolution(F, tower):
    T = tower.complex
    ok = T.is_minimal() and not T.validate()
    expect = [2 * z + 3 if i % 2 == 0 else 2 * z + 4
              for i in range(0, 10) for z in [i // 2]]
    ok = ok and T.betti_list() == expect == [3, 4, 5, 6, 7, 8, 9, 10, 11, 12]
    ok = ok and T.diff(1).entries == F.d.entries
    d2 = T.diff(2)
    h1, h2 = F.h[1], F.h[2]
    for i in range(2):
        for j in range(2):
            ok = ok and d2.entries[i][j] == h1.entries[i][j]
    for i in range(4):
        for j in range(3):
            ok = ok and d2.entries[i][2 + j] == h2.entries[i][j]
    report(3, ok, "betti 3..12 per the two polynomials; first maps are d and h")


def test_acceptance_4_ci_operators(F, tower):
    T = tower.complex
    tilde, failures = special_lifting_and_ci(tower)
    ok = not failures
    t2 = tower.ci[2]
    for n in range(2, T.hi + 1):
        wts = tower.weights[n]
        mat = t2[n]
        for j, wj in enumerate(wts):
            col = [mat.entries[i][j] for i in range(mat.dst.rank)]
            if wj < 2:
                ok = ok and all(q.is_zero() for q in col)
        # surjective projection in every degree >= 2
        from hmf.resolutions import _scalar_part

        bar = _scalar_part(mat)
        ok = ok and F.ring.field.rank(bar) == T.module(n - 2).rank
    for i in range(4, T.hi + 1):
        comm = tilde[1][i - 2].compose(tilde[2][i]) - tilde[2][i - 2].compose(
            tilde[1][i]
        )
        ok = ok and comm.in_ideal(2)
    report(4, ok, "weight shift, vanishes low, surjective, commutes with t_1")


def test_acceptance_5_round_trip(F, tower):
    # micro example over one variable
    Fm = micro_codim1()
    G = two_term_complex(Fm.ring, Fm.d_p(1))
    sigma = higher_homotopies(G, (1,), 4)
    sh = shamash(G, sigma, 7)
    pr = peel(sh.complex, t=sh.ci[1])
    ok = pr.kernel.betti_list()[:2] == [1, 1]
    ok = ok and all(r == 0 for r in pr.kernel.betti_list()[2:])
    ok = ok and pr.kernel.diff(1).entries == G.diff(1).entries
    ok = ok and pr.sigma.get((1,), 0).entries == sigma.get((1,), 0).entries
    # cone stage of the primary example
    pr2 = peel(tower.complex, t=tower.ci[2])
    U = tower.stages[2].sigma.complex
    ok = ok and pr2.kernel.betti_list() == U.betti_list()
    ok = ok and all(
        pr2.kernel.diff(i).entries == U.diff(i).entries for i in range(1, 10)
    )
    ok = ok and not pr.report and not pr2.report
    report(5, ok, "peel inverts the divided-power construction exactly")


def test_acceptance_6_box(F, fin):
    L = fin.complex
    ring = F.ring
    bundle = box(higher_homotopies(L, (2,), 2))  # precondition checked exactly
    ok = not validate_homotopy_system(bundle.sigma)
    cert = exactness_certificate(bundle.complex, (1, bundle.complex.hi), 8)
    ok = ok and cert.verdict == "PASS"
    # converse: unrolled complex is exact, given torsion-free cokernels
    from hmf.extract import multiplication_injective_on_coker

    un, failures = box_unroll(bundle)
    ok = ok and not failures
    f2 = ring.regseq[1]
    tf2, _ = multiplication_injective_on_coker(un.diff(2), f2, 8)
    ok = ok and tf2  # coker d_2 is torsion free; d_3 has zero source here
    ok = ok and exactness_certificate(un, (1, 2), 8).verdict == "PASS"
    report(6, ok, "homotopy identities exact, box and unrolled complexes exact")


def test_acceptance_7_extraction(F):
    from hmf.extract import SyzygyInput, check_prestable, extract_hmf

    tower = build_infinite(F, 8)
    W = cosyz_tower(F, 8, tower=tower)[2][1]
    inp = SyzygyInput(W, 2)
    ok = check_prestable(inp).ok
    out, trace = extract_hmf(inp)
    ok = ok and validate_hmf(out).ok
    sig = signature(out)
    ok = ok and sig.ranks == ((2, 2), (2, 1))
    ok = ok and stability_rank_check(out).ok
    zeta = sig.complexity
    b0 = sum(out.rank0(p) for p in range(1, 3))
    b1 = sum(out.rank1(p) for p in range(1, 3)) + sum(
        (p - 1) * out.rank0(p) for p in range(1, 3)
    )
    ok = ok and b0 == 3 and b0 >= zeta
    ok = ok and b1 == 5 and b1 >= (out.c - zeta + 1) * b0 + zeta * (zeta + 1) // 2 - 1
    report(7, ok, "ranks (2,2),(2,1); bounds b0=3>=2, b1=5>=5")


def test_acceptance_8_negative_control():
    F3 = codim2_xz_y2()
    ok = validate_hmf(F3).ok
    stab = stability_rank_check(F3)
    ok = ok and not stab.ok and "p=2" in stab.failures[0]
    report(8, ok, "validates as a factorization, fails the rank pattern at p=2")


def test_acceptance_9_strong(F):
    from hmf.extract import strengthen

    S = strengthen(F)
    rep = validate_strong(S)
    ok = rep.ok and any("rho d h_2 = f_2 rho: exact" in s for s in rep.items)
    report(9, ok, "strengthened factorization passes the exact identities")


def test_acceptance_10_fuzz():
    from hmf.randgen import gen_random_hmf

    t0 = time.time()
    count = 0
    for seed in range(100):
        c = seed % 3 + 1
        F = gen_random_hmf(seed, c=c, max_rank=3)
        rep = validate_hmf(F)
        assert rep.ok, (seed, rep.failures)
        rows = formula_suite(F, steps=6, D=6)
        bad = [
            (r.item, r.verdict)
            for r in rows
            if r.verdict == "FAIL" and r.item != "pre-stability rank pattern"
        ]
        assert not bad, (seed, bad)
        count += 1
    elapsed = time.time() - t0
    report(10, count == 100 and elapsed < 300,
           f"{count} instances in {elapsed:.1f}s")


def test_acceptance_11_comparison_maps(F, fin):
    L = fin.complex
    sig1 = higher_homotopies(L, (2,), 3)
    with second_solution():
        sig2 = higher_homotopies(L, (2,), 3)
    phi0 = {v: MatrixMap.identity(F.ring, L.module(v), 0) for v in range(0, 3)}
    phis = homotopy_comparison(phi0, sig1, sig2, 3)
    fails, checked = lifted_comparison_check(phis, sig1, sig2, 7)
    report(11, not fails and checked == 7,
           f"lifted map commutes at {checked} of 7 degrees")
