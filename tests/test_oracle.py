import pytest
from augmented import with_extra_gens
from hypothesis import given, settings, strategies as st

from hmf.complexes import Complex, FreeModule, MatrixMap, koszul_complex
from hmf.corpus import (
    GOLDEN_BUILDERS,
    codim2_xa_yb,
    codim2_xz_y2,
    load_golden,
    micro_codim1,
)
from hmf.extract import prestable_certificate, syzygy_shift_check
from hmf.factorization import HMF, validate_hmf
from hmf.graded import SolveError
from hmf.oracle import (
    CheckItem,
    betti,
    check_regular_sequence,
    exactness_certificate,
    formula_suite,
    graded_betti_formula,
    graded_homology,
    hilbert_function,
    homology_is_zero,
)
from hmf.randgen import _coupled_pair, gen_random_hmf
from hmf.resolutions import build_finite, build_infinite, build_intermediate
from hmf.ring import Field, GradedRing


def test_koszul_homology_of_regular_pair():
    ring = GradedRing.make(Field(), [("x", 1), ("y", 1)], ["x", "y"])
    K = koszul_complex(ring, (1, 2), level=0)
    table = graded_homology(K, (0, 2), 6)
    assert table[(0, 0)] == 1
    assert all(
        h == 0 for (i, e), h in table.items() if (i, e) != (0, 0)
    )


def test_finite_resolution_homology_and_hilbert():
    F = codim2_xa_yb()
    L = build_finite(F).complex
    table = graded_homology(L, (0, 2), 8)
    assert not homology_is_zero(table, (1, 2), 8)
    from hmf.factorization import presentation

    pres, _ = presentation(F, 2)
    hf = hilbert_function(pres, 8)
    for e in range(0, 9):
        assert table[(0, e)] == hf[e]


def test_mutation_detected():
    F = codim2_xa_yb()
    L = build_finite(F).complex
    rows = [list(r) for r in L.diff(2).entries]
    assert not rows[0][1].is_zero()
    rows[0][1] = -rows[0][1]  # flip one sign
    broken = Complex(
        F.ring,
        0,
        dict(L.modules),
        {1: L.diff(1), 2: MatrixMap.from_strings(F.ring, L.module(2), L.module(1), rows, 0, 0)},
        0,
        2,
    )
    table = graded_homology(broken, (1, 2), 8)
    assert homology_is_zero(table, (1, 2), 8), "mutation must be detected"



def test_homology_rejects_a_stray_term():
    # an entry of d_2 with a term of the wrong degree raises SolveError, as
    # the composite d_1 d_2 it enters would
    F = codim2_xa_yb()
    L = build_finite(F).complex
    rows = {i: dict(row) for i, row in L.diff(2).rows.items()}
    i, j = min((i, j) for i, row in rows.items() for j in row)
    rows[i][j] = rows[i][j] + F.ring.poly("x")
    broken = Complex(F.ring, 0, dict(L.modules),
                     {1: L.diff(1), 2: MatrixMap(F.ring, L.module(2), L.module(1),
                                                 rows, 0, 0, check=False)},
                     0, 2)
    with pytest.raises(SolveError):
        graded_homology(broken, (1, 2), 8)

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


def test_betti_requires_minimal():
    F = codim2_xa_yb()
    L = build_finite(F).complex
    assert betti(L) == [3, 5, 2]
    gb = graded_betti(L)
    assert gb[0] == {0: 3} and gb[2] == {3: 2}
    ring = F.ring
    from hmf.complexes import FreeModule

    ident = MatrixMap.identity(ring, FreeModule((0,)), 0)
    C = Complex(ring, 0, {0: FreeModule((0,)), 1: FreeModule((0,))}, {1: ident})
    with pytest.raises(ValueError):
        betti(C)


def test_zero_complex_betti():
    ring = GradedRing.make(Field(), [("x", 1)], ["x^2"])
    from hmf.complexes import ZERO_MODULE

    C = Complex(ring, 0, {0: ZERO_MODULE}, {}, 0, 0)
    assert betti(C) == [0]


def test_regular_sequence_certificates():
    ring = codim2_xa_yb().ring
    ok, item = check_regular_sequence(ring, D=8)
    assert ok and item.verdict == "PASS"
    # a window below the top Koszul twist deg f_1 + deg f_2 = 4 is too small
    # to certify, and the item says so
    ok, item = check_regular_sequence(ring, D=2)
    assert ok and item.item.endswith("(degree bound 2 below top Koszul twist 4)")
    bad = GradedRing.make(Field(), [("x", 1), ("y", 1)], ["x", "x"])
    ok, item = check_regular_sequence(bad, D=4)
    assert not ok
    empty = GradedRing.make(Field(), [("x", 1)], [])
    ok, _ = check_regular_sequence(empty)
    assert ok


def test_formula_suite_primary_example():
    F = codim2_xa_yb()
    rows = formula_suite(F, steps=8, D=8)
    verdicts = {r.item: r.verdict for r in rows}
    assert all(v in ("PASS", "N-A") for v in verdicts.values()), verdicts
    finite_row = next(r for r in rows if "finite resolution ranks" in r.item)
    assert finite_row.expected == [3, 5, 2]
    inf_row = next(r for r in rows if "binomial polynomials" in r.item)
    assert inf_row.expected[:4] == [3, 4, 5, 6]
    ext_row = next(r for r in rows if "exterior-algebra count" in r.item)
    assert ext_row.expected == 10  # 4 + 2*3


def test_formula_suite_stability_counterexample():
    F3 = codim2_xz_y2()
    rows = formula_suite(F3, steps=8, D=8)
    by_item = {r.item: r for r in rows}
    stab = by_item["pre-stability rank pattern"]
    assert stab.verdict == "FAIL"
    others = [r for r in rows if r.item != "pre-stability rank pattern"]
    assert all(r.verdict in ("PASS", "N-A") for r in others), [
        (r.item, r.verdict) for r in others if r.verdict == "FAIL"
    ]


def test_formula_suite_trivial():
    ring = GradedRing.make(Field(), [("x", 1), ("y", 1)], ["x^2", "y^2"])
    from hmf.factorization import HMF

    triv = HMF(ring, {}, {}, {}, {1: {}, 2: {}})
    rows = formula_suite(triv)
    assert all(r.verdict == "PASS" for r in rows)


def test_check_item_compare():
    assert CheckItem.compare("empty", [], []).verdict == "PASS"
    row = CheckItem.compare("ranks", [1, 2], [1, 3])
    assert (row.expected, row.computed, row.verdict) == ([1, 2], [1, 3], "FAIL")


def unequal_pair():
    """The coupled pair of randgen over k[u1, v1, u2, v2] with deg v2 = 2, so
    f = (u1 v1, u2 v2) has degrees (2, 3): B_1 twists (1, 1) and (2, 2),
    B_0 twists (0, 0) and (1,)."""
    ring = GradedRing(Field(), [("u1", 1), ("v1", 1), ("u2", 1), ("v2", 2)])
    ring.set_regseq([ring.var("u1") * ring.var("v1"),
                     ring.var("u2") * ring.var("v2")])
    d, h = _coupled_pair(ring, 1, 2)
    return HMF(ring, {1: FreeModule((1, 1)), 2: FreeModule((2, 2))},
               {1: FreeModule((0, 0)), 2: FreeModule((1,))}, d, h)


def assert_graded_formula_at_every_level(F, steps):
    """graded_betti_formula(F, j, n) is the twist count of the builder for
    each level j = 0..c: build_finite, build_intermediate, build_infinite."""
    tower = build_infinite(F, steps)
    for j in range(F.c + 1):
        C = (build_finite(F) if j == 0
             else build_intermediate(F, j, steps, tower=tower)).complex
        got = graded_betti(C)
        assert graded_betti_formula(F, j, C.hi) == [
            got[i] for i in range(C.hi + 1)], j


def test_graded_formula_unequal_degrees():
    F = unequal_pair()
    assert validate_hmf(F).ok
    assert_graded_formula_at_every_level(F, 7)
    # over R: y_1 and y_2 raise the twist by 2 and by 3
    assert graded_betti_formula(F, 2, 2) == [{0: 2, 1: 1}, {1: 2, 2: 2},
                                             {2: 2, 3: 2, 4: 1}]
    # over S: stage 2 crosses the Koszul generator of f_1, of degree 2
    assert graded_betti_formula(F, 0, 3) == [{0: 2, 1: 1}, {1: 2, 2: 2, 3: 1},
                                             {4: 2}, {}]


def test_formula_suite_unequal_degrees():
    F = unequal_pair()
    rows = formula_suite(F, steps=6, D=6)
    assert all(r.verdict == "PASS" for r in rows), [
        (r.item, r.verdict) for r in rows if r.verdict != "PASS"]
    assert "graded tower twists match the graded series" in {r.item for r in rows}
    assert all(r.verdict == "PASS" for r in prestable_certificate(F))
    assert all(r.verdict == "PASS" for r in syzygy_shift_check(F))


@pytest.mark.parametrize("name", sorted(GOLDEN_BUILDERS))
def test_formula_suite_builds_each_presentation_once(name, monkeypatch):
    # the zero-row loop, the augmented-shape row and the Hilbert row share
    # the level-c presentation
    from hmf import oracle

    F = load_golden(name)
    levels = []
    presentation = oracle.presentation

    def recording_presentation(F, p):
        levels.append(p)
        return presentation(F, p)

    monkeypatch.setattr(oracle, "presentation", recording_presentation)
    formula_suite(F, steps=6, D=4)
    low = next(p for p in range(1, F.c + 1) if F.rank1(p) or F.rank0(p))
    assert sorted(levels) == list(range(low, F.c + 1))


@pytest.mark.parametrize("name", sorted(GOLDEN_BUILDERS))
def test_graded_formula_on_the_corpus(name):
    assert_graded_formula_at_every_level(GOLDEN_BUILDERS[name](), 6)


@given(seed=st.integers(0, 10**6), c=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_graded_formula_on_random_factorizations(seed, c):
    assert_graded_formula_at_every_level(gen_random_hmf(seed, c=c), 5)


def _flip_sign(L):
    """L with the first nonzero entry of d_2, in row-major order, negated."""
    d = L.diff(2)
    rows = {i: dict(row) for i, row in d.rows.items()}
    i = min(rows)
    j = min(rows[i])
    rows[i][j] = -rows[i][j]
    diffs = dict(L.diffs)
    diffs[2] = MatrixMap(L.ring, d.src, d.dst, rows, d.level, d.shift)
    return Complex(L.ring, L.level, dict(L.modules), diffs, L.lo, L.hi)


def _random_finite(seed, c):
    return build_finite(gen_random_hmf(seed, c=c)).complex


def _random_tower(seed, c):
    return build_infinite(gen_random_hmf(seed, c=c), 4).complex


def _with_extra_gen():
    L = build_finite(codim2_xa_yb()).complex
    return with_extra_gens(L, (L.ring.regseq[1],))


def _binomial_koszul(char):
    # over a non-monomial ideal the normal form of a vector is not just its
    # standard coordinates
    ring = GradedRing.make(Field(char), [("x", 1), ("y", 1), ("z", 1)],
                           ["x^2 + y*z", "y^2 - 2*x*z"])
    return with_extra_gens(koszul_complex(ring, (2,), level=1),
                           (ring.poly("x*y + 3*z^2"),))


HOMOLOGY_CASES = {
    "random-finite-c1": lambda: _random_finite(11, 1),
    "random-finite-c2": lambda: _random_finite(12, 2),
    "random-finite-c3": lambda: _random_finite(13, 3),
    "random-tower-c1": lambda: _random_tower(21, 1),
    "random-tower-c2": lambda: _random_tower(22, 2),
    "extra-gens": _with_extra_gen,
    "sign-flipped": lambda: _flip_sign(build_finite(codim2_xa_yb()).complex),
    "rationals": lambda: build_finite(codim2_xz_y2(char=0)).complex,
    "binomial": lambda: _binomial_koszul(32003),
    "binomial-rationals": lambda: _binomial_koszul(0),
}


@pytest.mark.parametrize("case", sorted(HOMOLOGY_CASES))
def test_homology_matches_augmented_reference(case):
    from augmented import augmented_homology

    C = HOMOLOGY_CASES[case]()
    table = graded_homology(C, None, 6)
    assert table == augmented_homology(C, (C.lo, C.hi), 6)
    if case == "sign-flipped":
        # d_1 d_2 != 0 shows as homology in positive degrees
        assert homology_is_zero(table, (1, C.hi), 6)


def test_homology_ranks_each_matrix_once(monkeypatch):
    import hashlib

    from hmf import _kernels

    L = build_finite(codim2_xa_yb()).complex
    seen = []
    rank = _kernels.rank

    def recording_rank(A, p):
        rows = sorted((i, sorted(row.items())) for i, row in A.rows.items())
        seen.append((A.shape, hashlib.sha256(repr(rows).encode()).hexdigest()))
        return rank(A, p)

    monkeypatch.setattr(_kernels, "rank", recording_rank)
    graded_homology(L)
    assert seen and len(seen) == len(set(seen))


def _homology_stream(seed, c, D=6):
    """The verifier's output on gen_random_hmf(seed, c), as one string."""
    from hmf.extract import multiplication_injective_on_coker, prestable_certificate
    from hmf.factorization import presentation
    from hmf.randgen import gen_random_hmf
    from hmf.resolutions import build_infinite

    F = gen_random_hmf(seed, c=c)
    out = []
    for C in (build_finite(F).complex, build_infinite(F, 5).complex):
        out.append(sorted(graded_homology(C, None, D).items()))
        if C.hi >= 2 and C.diff(2).rows:
            # a broken complex: its d_1 d_2 leaves the ideal, so the
            # composite is ranked
            out.append(sorted(graded_homology(_flip_sign(C), None, D).items()))
    for p in range(1, c + 1):
        pres = presentation(F, p)[0]
        out.append(sorted(hilbert_function(pres, D).items()))
        out.append(multiplication_injective_on_coker(
            pres.relevel(p - 1), F.ring.regseq[p - 1], D))
    out.append([r.row() for r in prestable_certificate(F, D)])
    return repr(out)


# sha256 of the verifier's output: per c, over gen_random_hmf seeds 0-7, the
# graded_homology tables of the finite resolution (level 0) and of the tower
# (level c), each also with a sign of d_2 flipped, and hilbert_function and
# multiplication_injective_on_coker of every stage presentation, and
# prestable_certificate; "cases", the tables of HOMOLOGY_CASES and of the
# binomial Koszul complex over F_3
HOMOLOGY_DIGESTS = {
    1: "4e4ae904e3ab220446abc597096852d6a2ed64bbc6df6e8508ec4fcde7d102cc",
    2: "99f6969577f97ef449a3fb541ec2392a6aa8fd652c44e0e396a3e0d893251df6",
    3: "a16e0c31b9ca25edbd073027e4a1ebe3e28569ef70c4d7771427b12b801ec0c9",
    "cases": "98be0f2f7d017568a8fbf168c890b72339ff4354f4a38e156513c77acf3433f2",
}


@pytest.mark.parametrize("key", sorted(HOMOLOGY_DIGESTS, key=str))
def test_homology_digest(key):
    import hashlib

    h = hashlib.sha256()
    if key == "cases":
        cases = dict(HOMOLOGY_CASES, **{"binomial-f3": lambda: _binomial_koszul(3)})
        for name in sorted(cases):
            table = graded_homology(cases[name](), None, 6)
            h.update(repr((name, sorted(table.items()))).encode())
    else:
        for seed in range(8):
            h.update(_homology_stream(seed, key).encode())
    assert h.hexdigest() == HOMOLOGY_DIGESTS[key]
