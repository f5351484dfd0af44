import pytest

from hmf.complexes import FreeModule, MatrixMap, ShapeError
from hmf.corpus import codim2_xa_yb, codim2_xz_y2, codim3_shifted, micro_codim1
from hmf.factorization import (
    HMF,
    change_of_generators_complex,
    change_of_generators_hmf,
    presentation,
    signature,
    stability_rank_check,
    truncate_hmf,
    validate_hmf,
)
from hmf.ring import Field, GradedRing, RingError


@pytest.fixture(scope="module")
def F():
    return codim2_xa_yb()


def trivial_hmf():
    ring = GradedRing.make(Field(), [("x", 1), ("y", 1)], ["x^2", "y^2"])
    return HMF(ring, {}, {}, {}, {1: {}, 2: {}})


def test_validate_examples(F):
    rep = validate_hmf(F)
    assert rep.ok and not rep.warnings
    assert "minimal: True" in rep.items
    assert validate_hmf(codim2_xz_y2()).ok
    assert validate_hmf(codim3_shifted()).ok
    assert validate_hmf(trivial_hmf()).ok
    assert trivial_hmf().is_trivial()


def test_validate_rejects_broken_axiom(F):
    ring = F.ring
    h2 = {i: dict(row) for i, row in F.h[2].rows.items()}
    h2.setdefault(0, {})[0] = ring.poly("x")  # breaks axiom (a) at p=2
    bad = HMF(ring, F.b1, F.b0, F.d.rows, {1: F.h[1].rows, 2: h2})
    rep = validate_hmf(bad)
    assert not rep.ok
    assert any("p=2" in msg for msg in rep.failures)


def test_filtration_enforced(F):
    ring = F.ring
    d = {i: dict(row) for i, row in F.d.rows.items()}
    d.setdefault(2, {})[0] = ring.poly("y")  # block from B_1(1) into B_0(2)
    bad = HMF(ring, F.b1, F.b0, d, {1: F.h[1].rows, 2: F.h[2].rows})
    rep = validate_hmf(bad)
    assert any("filtration" in msg for msg in rep.failures)


def test_truncate(F):
    F1 = truncate_hmf(F, 1)
    assert F1.c == 1
    assert validate_hmf(F1).ok
    ring = F.ring
    fid = MatrixMap.poly_times_identity(ring, ring.regseq[0], F1.A0(1), 0)
    assert (F1.d_p(1).compose(F1.h[1]) - fid).is_zero()
    assert (F1.h[1].compose(F1.d_p(1)) - MatrixMap.poly_times_identity(
        ring, ring.regseq[0], F1.A1(1), 0)).is_zero()
    F2 = truncate_hmf(F, 2)
    assert F2.d.entries == F.d.entries
    F31 = truncate_hmf(codim2_xz_y2(), 1)
    assert validate_hmf(F31).ok
    # levels start at 1, so level 0 is the empty factorization
    F0 = truncate_hmf(F, 0)
    assert (F0.c, F0.d.src.rank, F0.d.dst.rank) == (0, 0, 0)
    assert validate_hmf(F0).ok


def test_blocks_outside_levels_rejected():
    ring = GradedRing.make(Field(), [("x", 1)], ["x^2"])
    with pytest.raises(ShapeError):
        HMF(ring, {0: FreeModule((1,))}, {0: FreeModule((0,))},
            {0: {0: ring.poly("x")}}, {1: {}})


def test_presentation_display(F):
    pres, aug = presentation(F, 2)
    assert pres.level == 2
    expected = [
        ["a", "0", "0", "-b", "0"],
        ["y", "x", "0", "0", "0"],
        ["0", "0", "y", "x", "a*x"],
    ]
    assert [[str(q) for q in row] for row in aug.entries] == expected


def test_presentation_column_blocks():
    F3 = codim3_shifted()
    _, aug = presentation(F3, 3)
    # columns: d (4) then, per generator of B_0(q), the elements f_1..f_{q-1}
    assert aug.src.rank == 4 + 1 * F3.rank0(2) + 2 * F3.rank0(3)
    labels = aug.src.all_labels()
    assert "e1*b0.2.0" in labels and "e2*b0.3.0" in labels


def test_signature_and_stability(F):
    sig = signature(F)
    assert (sig.gamma, sig.complexity, sig.betti_degree) == (1, 2, 2)
    assert sig.ranks == ((2, 2), (2, 1))
    assert stability_rank_check(F).ok
    bad = stability_rank_check(codim2_xz_y2())
    assert not bad.ok
    assert "p=2" in bad.failures[0]
    triv = trivial_hmf()
    sigt = signature(triv)
    assert sigt.gamma is None and sigt.complexity == 0
    assert stability_rank_check(triv).ok


def test_change_of_generators_identity(F):
    fld = F.ring.field
    alpha = [[1, 0], [0, 1]]
    G = change_of_generators_hmf(F, alpha)
    assert validate_hmf(G).ok
    assert [[str(q) for q in r] for r in G.d.entries] == [
        [str(q) for q in r] for r in F.d.entries
    ]


def test_change_of_generators_lower_triangular(F):
    G = change_of_generators_hmf(F, [[3, 0], [5, 7]])
    assert validate_hmf(G).ok
    assert str(G.ring.regseq[1]) == str(
        F.ring.regseq[0].scale(5) + F.ring.regseq[1].scale(7)
    )


def test_change_of_generators_rejects_upper(F):
    with pytest.raises(RingError):
        change_of_generators_hmf(F, [[1, 2], [0, 1]])


def test_change_of_generators_unequal_degrees():
    # elements of unequal degree cannot be mixed in graded mode
    ring = GradedRing.make(Field(), [("x", 1), ("y", 1)], ["x^2", "y^3"])
    P = ring.poly
    b1 = {2: FreeModule((2,))}
    b0 = {2: FreeModule((0,))}
    F_top = HMF(ring, b1, b0, {0: {0: P("y^2")}}, {1: {}, 2: {0: {0: P("y")}}})
    assert validate_hmf(F_top).ok
    with pytest.raises(RingError):
        change_of_generators_hmf(F_top, [[1, 0], [1, 1]])


def _remap(ring2, q):
    from hmf.ring import Poly

    return Poly(ring2, dict(q.terms))


def test_change_of_generators_complex_swap_and_random(F):
    from hmf.resolutions import build_infinite, special_lifting_and_ci

    tower = build_infinite(F, 6)
    tilde, _ = special_lifting_and_ci(tower)
    swap = [[0, 1], [1, 0]]
    ring2, C2, tilde2 = change_of_generators_complex(tower.complex, tilde, swap)
    for deg in tilde[1]:
        assert tilde2[1][deg].entries == tuple(
            tuple(_remap(ring2, q) for q in row) for row in tilde[2][deg].entries
        )
    # random invertible alpha: residual check runs inside
    alpha = [[3, 1], [5, 9]]
    ring3, C3, tilde3 = change_of_generators_complex(tower.complex, tilde, alpha)
    assert ring3.regseq[0] == _remap(
        ring3, F.ring.regseq[0].scale(3) + F.ring.regseq[1].scale(1)
    )


def test_cor_312_warning():
    # B_1(1) nonzero but B_1(2) = 0 with B_0(2) != 0 cannot validate; with
    # both zero at level 2 and nonzero level 1 the axioms themselves fail
    ring = GradedRing.make(
        Field(), [("a", 1), ("b", 1), ("x", 1), ("y", 1)], ["x*a", "y*b"]
    )
    P = ring.poly
    b1 = {1: FreeModule((1,)), 2: FreeModule(())}
    b0 = {1: FreeModule((0,)), 2: FreeModule(())}
    bad = HMF(ring, b1, b0, {0: {0: P("a")}},
              {1: {0: {0: P("x")}}, 2: {0: {0: P("x")}}})
    rep = validate_hmf(bad)
    assert rep.warnings  # impossible rank pattern flagged
    assert not rep.ok  # and axiom (a) at p=2 indeed fails
