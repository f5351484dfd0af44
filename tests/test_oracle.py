import pytest

from hmf.complexes import Complex, MatrixMap, koszul_complex
from hmf.corpus import codim2_xa_yb, codim2_xz_y2, micro_codim1
from hmf.oracle import (
    betti,
    check_regular_sequence,
    exactness_certificate,
    formula_suite,
    graded_betti,
    graded_homology,
    hilbert_function,
    homology_is_zero,
)
from hmf.resolutions import build_finite
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
        {1: L.diff(1), 2: MatrixMap(F.ring, L.module(2), L.module(1), rows, 0, 0)},
        0,
        2,
    )
    table = graded_homology(broken, (1, 2), 8)
    assert homology_is_zero(table, (1, 2), 8), "mutation must be detected"


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

    triv = HMF(ring, {}, {}, [], {1: [], 2: []})
    rows = formula_suite(triv)
    assert all(r.verdict == "PASS" for r in rows)


def _flip_sign(L):
    rows = [list(r) for r in L.diff(2).entries]
    rows[0][1] = -rows[0][1]
    diffs = dict(L.diffs)
    diffs[2] = MatrixMap(L.ring, L.module(2), L.module(1), rows, 0, 0)
    return Complex(L.ring, L.level, dict(L.modules), diffs, L.lo, L.hi)


def _random_finite(seed, c):
    from hmf.randgen import gen_random_hmf

    return build_finite(gen_random_hmf(seed, c=c)).complex, ()


def _random_tower(seed, c):
    from hmf.randgen import gen_random_hmf
    from hmf.resolutions import build_infinite

    return build_infinite(gen_random_hmf(seed, c=c), 4).complex, ()


def _with_extra_gen():
    L = build_finite(codim2_xa_yb()).complex
    return L, (L.ring.regseq[1],)


def _binomial_koszul(char):
    # over a non-monomial ideal the normal form of a vector is not just its
    # standard coordinates
    ring = GradedRing.make(Field(char), [("x", 1), ("y", 1), ("z", 1)],
                           ["x^2 + y*z", "y^2 - 2*x*z"])
    return koszul_complex(ring, (2,), level=1), (ring.poly("x*y + 3*z^2"),)


HOMOLOGY_CASES = {
    "random-finite-c1": lambda: _random_finite(11, 1),
    "random-finite-c2": lambda: _random_finite(12, 2),
    "random-finite-c3": lambda: _random_finite(13, 3),
    "random-tower-c1": lambda: _random_tower(21, 1),
    "random-tower-c2": lambda: _random_tower(22, 2),
    "extra-gens": _with_extra_gen,
    "sign-flipped": lambda: (_flip_sign(build_finite(codim2_xa_yb()).complex), ()),
    "rationals": lambda: (build_finite(codim2_xz_y2(char=0)).complex, ()),
    "binomial": lambda: _binomial_koszul(32003),
    "binomial-rationals": lambda: _binomial_koszul(0),
}


@pytest.mark.parametrize("case", sorted(HOMOLOGY_CASES))
def test_homology_matches_augmented_reference(case):
    from augmented import augmented_homology

    C, extra = HOMOLOGY_CASES[case]()
    table = graded_homology(C, None, 6, extra)
    assert table == augmented_homology(C, (C.lo, C.hi), 6, extra)
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
