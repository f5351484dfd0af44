import re

import pytest
from map_ops import scale_poly
from second_solution import second_solution

from hmf.complexes import (
    ZERO_MODULE,
    Complex,
    FreeModule,
    HomotopySystem,
    MatrixMap,
    two_term_complex,
    validate_homotopy_system,
)
from hmf.corpus import codim2_xa_yb, micro_codim1
from hmf.lifting import (
    Obstruction,
    SolverBug,
    ci_commutation_failures,
    ci_from_lifting,
    higher_homotopies,
    homotopy_comparison,
    koszul_extension,
    lifted_comparison_check,
)
from hmf.oracle import exactness_certificate
from hmf.ring import Field, GradedRing


@pytest.fixture(scope="module")
def F():
    return codim2_xa_yb()


@pytest.fixture(scope="module")
def L(F):
    from hmf.resolutions import build_finite

    return build_finite(F).complex


def test_higher_homotopies_recovers_h1(F):
    # the order-1 homotopy for f_1 on B(1) is forced at the bottom and
    # equals the stored h_1
    B1 = two_term_complex(F.ring, F.d_p(1))
    sigma = higher_homotopies(B1, (1,), 1)
    assert sigma.get((1,), 0).entries == F.h[1].entries


def test_higher_homotopies_micro():
    Fm = micro_codim1()
    G = two_term_complex(Fm.ring, Fm.d_p(1))
    sigma = higher_homotopies(G, (1,), 3)
    assert sigma.get((1,), 0).entries[0][0] == Fm.ring.poly("x")
    # indices of total >= 2 vanish by shape
    assert all(sum(a) < 2 for a in sigma.known_indices())
    assert not validate_homotopy_system(sigma)


def test_higher_homotopies_non_annihilating(F):
    # f_2 does not annihilate the stage-1 module: obstruction at degree 0
    G = two_term_complex(F.ring, F.d_p(1))
    with pytest.raises(Obstruction) as err:
        higher_homotopies(G, (2,), 1)
    assert err.value.degree in (0, 1)


def test_higher_homotopies_prescribed_start_checked(F):
    G = two_term_complex(F.ring, F.d_p(1))
    wrong = MatrixMap.from_strings(
        F.ring, G.module(0), G.module(1), F.d_p(1).entries, 0, 2, check=False
    )
    with pytest.raises(AssertionError):
        higher_homotopies(G, (1,), 1, start={((1,), 0): wrong})


@pytest.fixture(scope="module")
def two_failures():
    """k[x, y] with f = (x^2, y^2, x*y, y^3) and G: S(-2)^2 -[x^2, y^2]-> S,
    nothing above degree 1.  The homotopy for x*y fails at degree 0 and the
    one for x^2 only at degree 1; Koszul slots for y^2 and y^3 both fail to
    lift x * psi through x^2."""
    ring = GradedRing.make(Field(), [("x", 1), ("y", 1)],
                           ["x^2", "y^2", "x*y", "y^3"])
    G0, G1 = FreeModule((0,)), FreeModule((2, 2))
    d1 = MatrixMap.from_strings(ring, G1, G0, [["x^2", "y^2"]])
    G = Complex(ring, 0, {0: G0, 1: G1, 2: ZERO_MODULE}, {1: d1}, 0, 2)
    L = two_term_complex(ring, MatrixMap.from_strings(
        ring, FreeModule((2,)), G0, [["x^2"]]))
    B = two_term_complex(ring, MatrixMap.from_strings(
        ring, FreeModule((1,)), G0, [["x"]]))
    psi0 = MatrixMap.from_strings(ring, B.module(1), L.module(0), [["x"]])
    return G, L, B, psi0


def test_higher_homotopies_names_first_failing_index(two_failures):
    G = two_failures[0]
    # each element alone fails: x*y at degree 0, x^2 at degree 1
    for fidx, degree in ((3, 0), (1, 1)):
        with pytest.raises(Obstruction) as err:
            higher_homotopies(G, (fidx,), 1)
        assert err.value.degree == degree
    # together, the first index in order is (0, 1), for x^2: its failure
    # at degree 1 is reported, not that of (1, 0) at degree 0
    with pytest.raises(Obstruction) as err:
        higher_homotopies(G, (3, 1), 1)
    assert err.value.degree == 1
    assert "index (0, 1)" in str(err.value)


@pytest.fixture(scope="module")
def U(F):
    """The cone U(2) of the quotient tower, degrees 0..10, at level 1."""
    from hmf.resolutions import build_infinite

    return build_infinite(F, 10).stages[2].sigma.complex


def test_higher_homotopies_raises_for_the_lowest_failing_order(U):
    # the sweep lifts by target degree: a wrong sigma_(2) at m = 0 (target
    # 3) is met before a wrong sigma_(1) at m = 5 (target 6), but the
    # failure raised is that of the lowest failing order.  The true
    # sigma_(2) vanishes on U, so its wrong value is a linear entry, not
    # twice the true one
    true = higher_homotopies(U, (2,), 3)
    assert true.get((2,), 0).is_zero()
    wrong = {((1,), 5): true.get((1,), 5).scale(2),
             ((2,), 0): MatrixMap.from_strings(
                 U.ring, U.module(0), U.module(3),
                 [["a", "0", "0"], ["0", "0", "0"]], 1, 4)}
    for key, name in (((2,), 0), "index (2,)"), (((1,), 5), "index (1,)"):
        with pytest.raises(SolverBug, match=rf"degree {key[1]} \({re.escape(name)}\)"):
            higher_homotopies(U, (2,), 3, start={key: wrong[key]})
    with pytest.raises(SolverBug, match=r"degree 5 \(index \(1,\)\)"):
        higher_homotopies(U, (2,), 3, start=wrong)


def test_koszul_extension_names_first_failing_slot(two_failures):
    _, L, B, psi0 = two_failures
    for idx in (2, 4):
        with pytest.raises(Obstruction, match=rf"slot e_\({idx},\)"):
            koszul_extension(psi0, B, L, (idx,))
    with pytest.raises(Obstruction, match=r"slot e_\(2,\)") as err:
        koszul_extension(psi0, B, L, (2, 4))
    assert err.value.degree == 1


def test_koszul_extension_matches_display(F):
    B = two_term_complex(F.ring, F.b_block(2))
    L1 = two_term_complex(F.ring, F.d_p(1))
    KB, phi = koszul_extension(F.psi_block(2), B, L1, (1,))
    # the e_1 block solves to h_1 psi_2, the display's component
    expect = F.h[1].compose(F.psi_block(2))
    assert phi[1].entries == expect.entries


def test_koszul_extension_cone_is_exact(F):
    from hmf.complexes import mapping_cone

    B = two_term_complex(F.ring, F.b_block(2))
    L1 = two_term_complex(F.ring, F.d_p(1))
    KB, phi = koszul_extension(F.psi_block(2), B, L1, (1,))
    cone = mapping_cone(L1, KB, phi)
    cert = exactness_certificate(cone, (1, 2), 8)
    assert cert.verdict == "PASS"


def test_ci_from_lifting_periodic(F):
    from hmf.resolutions import build_infinite

    Fm = micro_codim1()
    T = build_infinite(Fm, 6).complex
    tilde = ci_from_lifting(T)
    assert not ci_commutation_failures(T, tilde)
    for i in sorted(tilde[1]):
        assert tilde[1][i].entries[0][0] == Fm.ring.one()


def test_ci_from_lifting_resubstitutes(F):
    from hmf.resolutions import build_infinite

    T = build_infinite(F, 6).complex
    tilde = ci_from_lifting(T)
    assert not ci_commutation_failures(T, tilde)
    ring = F.ring
    for i in range(2, 6):
        sq = T.diff(i - 1).compose(T.diff(i))
        acc = None
        for j in (1, 2):
            term = scale_poly(tilde[j][i], ring.regseq[j - 1])
            acc = term if acc is None else acc + term
        assert (acc - sq).is_zero()


def test_ci_from_lifting_fixed_top():
    # at level 1 a fixed t~_1 leaves d~^2 - f_1 t~_1 nothing to divide by:
    # the structural weight shift is kept as given, twice it is refused
    from hmf.resolutions import build_infinite

    tower = build_infinite(micro_codim1(), 6)
    t = tower.ci[1]
    assert ci_from_lifting(tower.complex, top=t) == {1: t}
    doubled = {i: m.scale(2) for i, m in t.items()}
    with pytest.raises(SolverBug, match="fails exact division"):
        ci_from_lifting(tower.complex, top=doubled)


def test_multi_index_system(F, L):
    # a full system for both elements on the finite resolution, through
    # total order 2 (includes the mixed index)
    sigma = higher_homotopies(L, (1, 2), 2)
    assert (1, 0) in sigma.known_indices() and (0, 1) in sigma.known_indices()
    failures = validate_homotopy_system(sigma, max_total=2)
    assert not failures


def test_higher_homotopies_eliminates_each_differential_once(U, monkeypatch):
    # every pending (a, m) of one target degree, of every order, is lifted
    # in one call: each d_D is handed to solve_factorization once, in
    # ascending D, and only where some sigma_a lands in degree D
    import hmf.lifting as lifting

    degree = {id(d): D for D, d in U.diffs.items()}
    seen = []
    factor = lifting.solve_factorization

    def counted(A, Cs, level):
        seen.append(degree[id(A)])
        return factor(A, Cs, level)

    monkeypatch.setattr(lifting, "solve_factorization", counted)
    sigma = higher_homotopies(U, (2,), 3)
    targets = {m + 2 * sum(a) - 1 for a in sigma.maps for m in sigma.maps[a]}
    assert seen == sorted(targets)
    assert any(sum(a) == 3 for a in sigma.maps)


def test_solver_and_checker_read_one_identity(L, monkeypatch):
    # the solver's right-hand sides and the checker's sums are both
    # HomotopySystem.identity, so neither writes the identity itself
    calls = []
    identity = HomotopySystem.identity

    def counted(self, a, m, solving=False):
        calls.append(solving)
        return identity(self, a, m, solving)

    monkeypatch.setattr(HomotopySystem, "identity", counted)
    sigma = higher_homotopies(L, (1, 2), 2)
    assert calls and all(calls)
    calls.clear()
    assert not validate_homotopy_system(sigma)
    assert calls and not any(calls)


def test_homotopy_comparison_identity_case(F, L):
    sig = higher_homotopies(L, (2,), 3)
    phi0 = {v: MatrixMap.identity(F.ring, L.module(v), 0) for v in range(0, 3)}
    phis = homotopy_comparison(phi0, sig, sig, 3)
    assert lifted_comparison_check(phis, sig, sig, 7) == ([], 7)


def test_lifted_comparison_counts_what_it_checks(F, L):
    # without phi_0 no degree can be assembled: nothing fails, and the
    # count of checked degrees says so
    sig = higher_homotopies(L, (2,), 3)
    assert lifted_comparison_check({}, sig, sig, 7) == ([], 0)


@pytest.fixture(scope="module")
def residue_field_systems():
    """Two homotopy systems for x*a on the Koszul resolution of the residue
    field: homotopies for that element are genuinely non-unique, so the two
    deterministic representatives differ."""
    from hmf.complexes import koszul_complex
    from hmf.ring import Field, GradedRing

    vars_ring = GradedRing.make(
        Field(),
        [("a", 1), ("b", 1), ("x", 1), ("y", 1)],
        ["a", "b", "x", "y", "x*a"],
    )
    K = koszul_complex(vars_ring, (1, 2, 3, 4), level=0)
    sig1 = higher_homotopies(K, (5,), 2)
    with second_solution():
        sig2 = higher_homotopies(K, (5,), 2)
    phi0 = {v: MatrixMap.identity(vars_ring, K.module(v), 0)
            for v in range(0, 5)}
    return K, sig1, sig2, phi0


def test_homotopy_comparison_richer_complex(residue_field_systems):
    # the comparison maps between the two representatives are nonzero
    K, sig1, sig2, phi0 = residue_field_systems
    differ = any(
        (sig1.get((1,), m) is not None and sig2.get((1,), m) is not None
         and sig1.get((1,), m).entries != sig2.get((1,), m).entries)
        for m in range(0, 4)
    )
    assert differ
    phis = homotopy_comparison(phi0, sig1, sig2, 2)
    nonzero = any(
        not mm.is_zero() for j, d in phis.items() if j >= 1 for mm in d.values()
    )
    assert nonzero
    assert lifted_comparison_check(phis, sig1, sig2, 5) == ([], 5)


@pytest.fixture(scope="module")
def solve_calls(F, L, residue_field_systems):
    """One call per builder, on inputs built with the real solvers."""
    from hmf.extract import strengthen
    from hmf.randgen import gen_random_hmf
    from hmf.resolutions import build_infinite, peel, special_lifting_and_ci

    B1 = two_term_complex(F.ring, F.d_p(1))
    B2 = two_term_complex(F.ring, F.b_block(2))
    tower = build_infinite(F, 6)
    _, sig1, sig2, phi0 = residue_field_systems
    Fm = micro_codim1()  # c = 1: its finite resolution needs no solve
    return {
        "higher_homotopies": lambda: higher_homotopies(L, (1,), 1),
        "koszul_extension": lambda: koszul_extension(F.psi_block(2), B2, B1, (1,)),
        "homotopy_comparison": lambda: homotopy_comparison(phi0, sig1, sig2, 2),
        "strengthen": lambda: strengthen(Fm),
        "ci_from_lifting": lambda: ci_from_lifting(tower.complex),
        "special_lifting_and_ci": lambda: special_lifting_and_ci(tower),
        "peel": lambda: peel(tower.complex, t=tower.ci.get(2)),
        "gen_random_hmf": lambda: gen_random_hmf(3, c=2, max_rank=3),
    }


@pytest.mark.parametrize("builder", [
    "higher_homotopies", "koszul_extension",
    "homotopy_comparison", "strengthen", "ci_from_lifting",
    "special_lifting_and_ci", "peel", "gen_random_hmf",
])
def test_every_solve_resubstitutes(solve_calls, builder, monkeypatch):
    # a solver that returns twice the true X and W_m: each builder must
    # catch the wrong answer on re-substitution instead of returning it
    import hmf.lifting as lifting

    factor = lifting.solve_factorization

    def doubled(*args):
        return [None if got is None else
                (None if got[0] is None else got[0].scale(2),
                 [W.scale(2) for W in got[1]])
                for got in factor(*args)]

    monkeypatch.setattr(lifting, "solve_factorization", doubled)
    with pytest.raises(SolverBug, match="re-substitution fails"):
        solve_calls[builder]()


def test_lifted_comparison_lock(residue_field_systems, monkeypatch):
    # the assembled maps between two differing systems, recorded before the
    # divided-power blocks were given one assembler
    from test_resolutions import lifted_maps_digest

    _, sig1, sig2, phi0 = residue_field_systems
    phis = homotopy_comparison(phi0, sig1, sig2, 2)
    assert lifted_maps_digest(monkeypatch, phis, sig1, sig2, 5) == (
        "0301e868306a2e6dd2776a94ae9c7a2ea05a30c7e463a36d6333a2427e07599e")
