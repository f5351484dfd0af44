import hashlib
import os
import re

import pytest
from second_solution import second_solution

from hmf.complexes import (
    Complex,
    ContractViolation,
    FreeModule,
    HomotopySystem,
    MatrixMap,
    ShapeError,
    koszul_complex,
    validate_homotopy_system,
)
from hmf.corpus import codim2_xa_yb, codim2_xz_y2, codim3_shifted, micro_codim1
from hmf.factorization import validate_hmf
from hmf.lifting import higher_homotopies
from hmf.oracle import (
    exactness_certificate,
    finite_betti_formula,
    graded_homology,
    hilbert_function,
    homology_is_zero,
    infinite_betti_formula,
    intermediate_betti_formula,
)
from hmf.randgen import gen_random_hmf
from hmf.resolutions import (
    PeelError,
    box,
    box_unroll,
    build_finite,
    build_infinite,
    build_intermediate,
    cosyz_tower,
    peel,
    shamash,
    special_lifting_and_ci,
)
from hmf.ring import Field, GradedRing


@pytest.fixture(scope="module")
def F():
    return codim2_xa_yb()


@pytest.fixture(scope="module")
def fin(F):
    return build_finite(F)


@pytest.fixture(scope="module")
def tower(F):
    return build_infinite(F, 9)


def test_finite_resolution_shape(F, fin):
    L = fin.complex
    assert L.betti_list() == [3, 5, 2]
    assert L.is_minimal()
    assert not L.validate()
    assert finite_betti_formula(F) == [3, 5, 2]
    # evaluation of the closed form 2x^2 + 5x + 3 at the displayed ranks


def test_finite_trivial():
    ring = GradedRing.make(Field(), [("x", 1), ("y", 1)], ["x^2", "y^2"])
    from hmf.factorization import HMF

    triv = HMF(ring, {}, {}, {}, {1: {}, 2: {}})
    L = build_finite(triv).complex
    assert all(L.module(i).rank == 0 for i in range(L.lo, L.hi + 1))


def test_finite_stability_example_exact():
    F3 = codim2_xz_y2()
    L = build_finite(F3).complex
    assert L.is_minimal()
    cert = exactness_certificate(L, (1, 2), 8)
    assert cert.verdict == "PASS"


def test_shamash_micro_periodic():
    Fm = micro_codim1()
    from hmf.complexes import two_term_complex

    G = two_term_complex(Fm.ring, Fm.d_p(1))
    sigma = higher_homotopies(G, (1,), 4)
    bundle = shamash(G, sigma, 7)
    T = bundle.complex
    assert T.betti_list() == [1] * 8
    assert T.is_minimal()
    for i in range(1, 8):
        assert T.diff(i).entries[0][0] == Fm.ring.poly("x")


def test_shamash_rank_formula(F, tower):
    U = tower.stages[2].sigma.complex
    T = tower.complex
    for j in range(0, 10):
        expect = sum(U.module(j - 2 * i).rank for i in range(0, j // 2 + 1))
        assert T.module(j).rank == expect


def test_tower_matches_formula(F, tower):
    T = tower.complex
    assert T.betti_list() == [3, 4, 5, 6, 7, 8, 9, 10, 11, 12]
    assert infinite_betti_formula(F, 9) == T.betti_list()
    assert T.is_minimal()
    assert not T.validate()


def test_tower_first_two_differentials(F, tower):
    T = tower.complex
    assert T.diff(1).entries == F.d.entries
    d2 = T.diff(2)
    # second differential is the concatenated h-block map: columns through
    # the weight-1 block are h_1 into A_1(1), then h_2 on the weight-2 block
    h1 = F.h[1]
    for i in range(2):
        for j in range(2):
            assert d2.entries[i][j] == h1.entries[i][j]
    for i in range(4):
        for j in range(3):
            assert d2.entries[i][2 + j] == F.h[2].entries[i][j]


def test_tower_weights_close_under_differential(F, tower):
    # the span of weight <= 1 generators is a subcomplex: differentials do
    # not map low weight into the top-weight block
    T = tower.complex
    for n in range(1, T.hi + 1):
        wts_src = tower.weights[n]
        wts_dst = tower.weights[n - 1]
        d = T.diff(n)
        for j, wj in enumerate(wts_src):
            if wj <= 1:
                for i, wi in enumerate(wts_dst):
                    if wi > 1:
                        assert d.entries[i][j].is_zero()


def test_special_lifting_props(F, tower):
    T = tower.complex
    ring = F.ring
    tilde, report = special_lifting_and_ci(tower)
    assert not report
    t2 = tower.ci[2]
    # weight shift: vanishes on the low-weight part, projects the rest
    for n in range(2, T.hi + 1):
        wts = tower.weights[n]
        mat = t2[n]
        for j, wj in enumerate(wts):
            col = [mat.entries[i][j] for i in range(mat.dst.rank)]
            if wj < 2:
                assert all(q.is_zero() for q in col)
        ones = sum(
            1 for i in range(mat.dst.rank) for j in range(mat.src.rank)
            if str(mat.entries[i][j]) == "1"
        )
        assert ones == T.module(n - 2).rank  # surjective projection
    # commutation with t_1 modulo the full ideal
    for i in range(4, T.hi + 1):
        comm = tilde[1][i - 2].compose(tilde[2][i]) - tilde[2][i - 2].compose(
            tilde[1][i]
        )
        assert comm.in_ideal(2)


def test_tower_squares_composed_once(F, monkeypatch):
    # validate and special_lifting_and_ci share each d_{i-1} d_i of the tower
    tower = build_infinite(F, 8)
    T = tower.complex
    seen = []
    combine = MatrixMap.combine

    def counted(ring, src, dst, level, shift, products=(), maps=()):
        products = list(products)
        seen.extend((id(L), id(R)) for _, L, R in products)
        return combine(ring, src, dst, level, shift, products, maps)

    monkeypatch.setattr(MatrixMap, "combine", staticmethod(counted))
    assert T.validate() == []
    special_lifting_and_ci(tower)
    squares = [(id(T.diffs[i - 1]), id(T.diffs[i]))
               for i in range(T.lo + 2, T.hi + 1)]
    assert len(squares) == 7
    assert [seen.count(sq) for sq in squares] == [1] * len(squares)


def test_square_failure_text():
    from test_oracle import _flip_sign

    L = _flip_sign(build_finite(codim2_xa_yb()).complex)
    assert L.validate() == ["d^2 != 0 at degree 2, entry (0, 1): 2*a*b*x"]


def test_peel_round_trip_micro():
    Fm = micro_codim1()
    tm = build_infinite(Fm, 8)
    pr = peel(tm.complex, t=tm.ci[1])
    assert pr.kernel.betti_list()[:2] == [1, 1]
    assert all(r == 0 for r in pr.kernel.betti_list()[2:])
    assert pr.kernel.diff(1).entries[0][0] == Fm.ring.poly("x")
    assert pr.sigma.get((1,), 0).entries[0][0] == Fm.ring.poly("x")


def test_peel_recovers_cone_stage(F, tower):
    pr = peel(tower.complex, t=tower.ci[2])
    U = tower.stages[2].sigma.complex
    assert pr.kernel.betti_list() == U.betti_list()
    for i in range(1, 9):
        assert pr.kernel.diff(i).entries == U.diff(i).entries
    assert not pr.report


def test_peel_solved_operator(F, tower):
    # without the structural operator the peel recovers the same ranks
    pr = peel(tower.complex.truncate(0, 7))
    U = tower.stages[2].sigma.complex
    assert pr.kernel.betti_list() == U.truncate(0, 7).betti_list()


def test_peel_rejects_dead_summand():
    # direct sum with a summand killed by the operator: not peelable
    ring = GradedRing.make(Field(), [("x", 1), ("y", 1)], ["x^2", "y^3"])
    P = ring.poly
    mods = {}
    diffs = {}
    tw_x = {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
    for i in range(0, 5):
        mods[i] = FreeModule((tw_x[i], [0, 1, 3, 4, 6][i]))
    ents = {
        1: [["x", "0"], ["0", "y"]],
        2: [["x", "0"], ["0", "y^2"]],
        3: [["x", "0"], ["0", "y"]],
        4: [["x", "0"], ["0", "y^2"]],
    }
    for i, rows in ents.items():
        diffs[i] = MatrixMap.from_strings(ring, mods[i], mods[i - 1], rows, level=2)
    C = Complex(ring, 2, mods, diffs, 0, 4)
    assert not C.validate()
    with pytest.raises(PeelError):
        peel(C)


def test_intermediate(F, tower):
    Q = build_intermediate(F, 1, 8, tower=tower)
    got = Q.complex.betti_list()
    assert got == intermediate_betti_formula(F, 1, Q.complex.hi)
    assert Q.complex.is_minimal()
    cert = exactness_certificate(Q.complex, (1, Q.complex.hi - 1), 8)
    assert cert.verdict == "PASS"
    # j = c degenerates to the tower stage
    Qc = build_intermediate(F, 2, 8, tower=tower)
    assert Qc.complex.betti_list()[: tower.complex.hi + 1] == tower.complex.betti_list()


def test_intermediate_depth_three():
    F3 = codim3_shifted()
    tower = build_infinite(F3, 6)
    Q = build_intermediate(F3, 1, 6, tower=tower)
    assert Q.complex.betti_list() == intermediate_betti_formula(
        F3, 1, Q.complex.hi
    )
    Q2 = build_intermediate(F3, 2, 6, tower=tower)
    assert Q2.complex.betti_list() == intermediate_betti_formula(
        F3, 2, Q2.complex.hi
    )


def test_box_degenerate_two_term(F):
    # a two-term resolution: the box collapses to the double of the pair
    Fm = micro_codim1()
    from hmf.complexes import two_term_complex

    Y = two_term_complex(Fm.ring, Fm.d_p(1))
    bundle = box(higher_homotopies(Y, (1,), 2))
    # collapses to the double of the pair: same matrix, same homotopy
    assert bundle.complex.betti_list() == [1, 1]
    assert bundle.complex.diff(1).entries[0][0] == Fm.ring.poly("x")
    hb0 = bundle.sigma.get((1,), 0)
    assert hb0.entries[0][0] == Fm.ring.poly("x")
    assert not validate_homotopy_system(bundle.sigma)


def _with_extra_term(M):
    """M with one more monomial, of the entry's own degree, in its first
    entry that has a monomial of that degree."""
    ring = M.ring
    for i in range(M.dst.rank):
        for j in range(M.src.rank):
            mons = ring.monomials(M.required_degree(i, j))
            if mons:
                rows = {r: dict(row) for r, row in M.rows.items()}
                old = rows.setdefault(i, {}).get(j, ring.zero())
                rows[i][j] = old + ring.monomial(mons[-1])
                return MatrixMap(ring, M.src, M.dst, rows, M.level, M.shift)
    raise AssertionError("no entry has a monomial of its degree")


def _precondition_example(name):
    """(resolution, f index) for test_box_precondition_checked."""
    if name == "codim2_xa_yb":
        return build_finite(codim2_xa_yb()).complex, 2
    if name == "c5":
        return build_finite(gen_random_hmf(1, c=5)).complex, 5
    # K(x^3, y, z, w) resolves the residue field, and for f = x^3 the
    # entries of tau_1: K_1 -> K_4 have degrees 1 and 3; on the random
    # factorizations every entry of tau_1 has negative degree
    ring = GradedRing.make(Field(), [(v, 1) for v in "xyzw"],
                           ["x^3", "y", "z", "w"])
    return koszul_complex(ring, (1, 2, 3, 4), level=0), 1


@pytest.mark.parametrize("example, a, m", [
    ("codim2_xa_yb", (1,), 0),  # theta_0
    ("c5", (1,), 4),            # theta_4, read by the box's hb_2 only
    ("koszul4", (2,), 1),       # tau_1
], ids=["theta_0", "theta_4-c5", "tau_1-koszul4"])
def test_box_precondition_checked(example, a, m):
    L, f_idx = _precondition_example(example)
    sigma = higher_homotopies(L, (f_idx,), 2)
    assert not validate_homotopy_system(sigma, max_total=2)
    box(sigma)
    bad = HomotopySystem(L, sigma.findices,
                         {b: dict(maps) for b, maps in sigma.maps.items()})
    bad.set(a, m, _with_extra_term(sigma.get(a, m)))
    with pytest.raises(ContractViolation):
        box(bad)


@pytest.mark.parametrize("example, a, m", [
    ("codim2_xa_yb", (1,), 1),  # theta_1, the cone's map
    ("c5", (1,), 4),            # theta_4, read by the box's hb_2 only
    ("koszul4", (2,), 1),       # tau_1
], ids=["theta_1", "theta_4-c5", "tau_1-koszul4"])
def test_box_missing_homotopy_raises(example, a, m):
    # the checker skips an identity whose map is missing, so box must name
    # the map itself rather than fail on None (or drop theta_{i+2})
    L, f_idx = _precondition_example(example)
    sigma = higher_homotopies(L, (f_idx,), 2)
    bad = HomotopySystem(L, sigma.findices,
                         {b: dict(maps) for b, maps in sigma.maps.items()})
    del bad.maps[a][m]
    assert bad.get(a, m) is None
    assert not validate_homotopy_system(bad, max_total=2)
    with pytest.raises(ContractViolation, match=re.escape(f"sigma_{a} at source degree {m},")):
        box(bad)


def test_box_second_syzygy_hilbert(F, fin):
    # H_0(Box) has the Hilbert function of the second syzygy over the
    # hypersurface by the single element, computed independently
    from augmented import image_dim, map_piece, quotient_dim, with_extra_gens

    L = fin.complex
    ring = F.ring
    f2 = ring.regseq[1]
    bundle = box(higher_homotopies(L, (2,), 2))
    BX = bundle.complex
    table = graded_homology(with_extra_gens(BX, (f2,)), (0, 0), 8)
    # independent: dim Ker(d1 over S/(f2)) per degree
    for e in range(0, 9):
        A = map_piece(L.diff(1), e)
        dim1 = quotient_dim(ring, L.module(1).twists, (f2,), e)
        rk_im = image_dim(ring, A, L.module(0).twists, (f2,), e)
        assert table[(0, e)] == dim1 - rk_im


def test_box_unroll_converse(F, fin):
    L = fin.complex
    bundle = box(higher_homotopies(L, (2,), 2))
    un, failures = box_unroll(bundle)
    assert not failures
    assert un.betti_list()[:3] == [3, 5, 2]
    cert = exactness_certificate(un, (1, 2), 8)
    assert cert.verdict == "PASS"


def test_build_infinite_needs_a_step(F):
    with pytest.raises(ShapeError):
        build_infinite(F, 0)


def test_builders_do_not_import_the_verifier():
    # the builders and the verifier (oracle) stay independent halves
    import ast
    import hmf

    for name in ("complexes", "lifting", "resolutions"):
        path = os.path.join(os.path.dirname(hmf.__file__), f"{name}.py")
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            else:
                continue
            assert "oracle" not in {n.split(".")[-1] for n in names}, name


def test_dense_grids_stay_at_the_boundary():
    # a polynomial matrix is built from a dense grid only by parsing
    # (io_json), and read as one only by the writers (io_json and
    # MatrixMap.str_rows); everything else passes MatrixMap rows
    import ast
    import hmf

    allowed = {"from_strings": {"io_json"}, "entries": {"io_json", "complexes"}}
    pkg = os.path.dirname(hmf.__file__)
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(pkg, fname)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in allowed:
                assert fname[:-3] in allowed[node.attr], (fname, node.lineno)


def test_cosyz_tower_verify_reports_violation():
    # the counterexample's extension is not exact; its certificate reports
    # the stability violation
    _, W2 = cosyz_tower(codim2_xz_y2(), 6)[2]
    assert exactness_certificate(W2, (1, W2.hi - 1), 6).verdict == "FAIL"


def test_cosyz_tower(F, tower):
    vw = cosyz_tower(F, 8, tower=tower)
    V0, W1 = vw[1]
    assert V0.betti_list() == [2, 2]
    assert W1.hi == tower.stages[1].complex.hi + 2
    V1, W2 = vw[2]
    assert V1.betti_list()[:3] == [1, 2, 2]
    assert not V1.validate()
    assert not W2.validate()
    # growth condition at the head of the step extension
    assert W2.module(1).rank >= W2.module(0).rank > 0
    assert exactness_certificate(V1, (1, V1.hi - 1), 8).verdict == "PASS"
    assert exactness_certificate(W2, (1, W2.hi - 1), 8).verdict == "PASS"
    # the two cokernels agree: over the deeper quotient and the shallower one
    h_v = hilbert_function(V1.diff(1), 8)
    h_w = hilbert_function(W2.diff(1), 8)
    assert h_v == h_w


def maps_digest(items):
    h = hashlib.sha256()
    for key, mm in items:
        h.update(repr((key, mm.str_rows())).encode())
    return h.hexdigest()


# sha256 of the str_rows of the tower differentials, the tower's CI
# operators and the higher homotopies on the finite resolution, recorded
# with the dense-loop compose and full-matrix rref; one coupled-pair
# instance per codimension, beyond the c <= 3 the corpus digests reach
BUILDER_DIGESTS = {
    (2, 3): ("28d0e0c2e11f23ba05e007de9cb2e6b35c4b1cbf2e5161d6b8efebe69ea9da0f",
             "241b0b5557a204676a310040e328844a74df9437c322e5abaea42ec551061336",
             "567b2a53520f434e8dc46d9c4f85baae40520019101e0fb5790e8eb1247ae80b"),
    (3, 1): ("1fce22ce283cc2157250bfd878b3f886538cea01d858a7e826b6fca297b40ea3",
             "5f4b13671233f1fc12238f27f78672ac88a97d8544a3580f880a5b126789cfa6",
             "1b6dfbf9d877622eec153c24332319669fdbe44496e913f13ecff18d6b035453"),
    (4, 2): ("08007a05cedfeecaa0e14b68268217dcdc2aa66461d5c6ecf60d16fa8c234bce",
             "5c4eb121985a7da73fd5f284b73cd1f04c951d056a8e0a625a215b5eeb611d45",
             "9e182d85f1b41bd9cf995ff2ec0f29f8045463a83ce8aee948730d59be50d341"),
    (5, 2): ("664abe7a8d19b8a51d59eccf351e7d52fb839e801092252bf8da07b0c1b55991",
             "ec1eb5df67ec725a2aac1afcbcdf17ee817cd39eacb6f307d921e3984bd98489",
             "00f6afe7918f54b54b188b24fdfeeef41f63720f5b5a2c942c22555a70691fd0"),
}


# sha256 of the paths that share the lifting step and the ideal
# decomposition, recorded before they were routed through one place:
# build_finite differentials (Koszul extensions), build_intermediate for
# each j < c, special_lifting_and_ci, the peel kernel and its homotopies,
# strengthen's h and strong extension, and the homotopy system of the top
# tower stage built from second solutions (tests/second_solution.py)
LIFTING_DIGESTS = {
    (2, 3): (
        "c70ea664fe628af963829bcce008495e0c41c5bc768e93c07ea34fbf320b6ee7",
        "1cd0d661e3b4ad14a0d3cba222e1e298b8cf3ad36ed3a3d6255eedaecd52ba38",
        "af04dda56e4ae25eac52ba968ed5aa3d396d13ce11e870ffc180670c29e80bb4",
        "632fca341b614cbd421b606344723b501b5cc3148bd3b2da2cf0e746a8f6e23f",
        "31d2664f9b5c3273ea967f70137c58c6b6d04488b386595e25a1b8f2383a29d3",
        "6920833e4d4fdde7f0d80c0e7ae20a22b1799794c6f6f7ec74633bdf1f1c5b76",
    ),
    (3, 1): (
        "7f8b939e33381f37e6f9714e6f689bd382d25b430eb1fde5d2961c45a2de4cc0",
        "8e473cbc48911d46baff7cf098d06d6cbfd86aa2db61b1df169ef5cc604406d1",
        "8ed1893535b64baf8a306267a7e0585e9a9169cb400affc09f7465e6ecfe9281",
        "0bdd108225470518b22bdd716e2dd345935963f82fc593454ed5489c7af86c9c",
        "22adfb4b52caf74cab758a949abeaf07d026ecfa7f37f6505798ea2704ec27d5",
        "d3ee4ec40db03afe5a18ccd6a6190deaa01de24a18fff2559cf1708ed724e408",
    ),
    (4, 2): (
        "b19cf0300d18541831a2df2bc8d695763bf625ab4fb5ec0fccb34b1d5639200d",
        "0d1a379e339e2b74b5bc3c3a4472169cc6a2a5641b482ca53e5c08cdcba70279",
        "d4765dee258c037a331478c7270f96d2f82ae77288f3a471c0b84106a57273d1",
        "a09940b6d86f48b2854f1a6c4672c697986ca2fcb59fb48a018c999c3da06a0b",
        "99e89ba1edcefc562be9ad196898199963f319293a78d895bc44a91baaf2c6ea",
        "8d762f2a4173ecac8c2f6e893ed4010069cf38662dc76993e2fd313479ef62aa",
    ),
    (5, 2): (
        "7d8bedd57c7082d48b252e92754592b9c3853fd7b16afdfb60ef81c2f0912693",
        "32490f5d23b56e1ce3272115660a690b265ee08bf3a75ba8690b3d027fac4042",
        "7e90b54606b0902b50f549c66a4f619b92901109ae1ef29a879afa97882c815f",
        "d40aa13614eab3c753c7ea1bf638e28508a9ab4c0753189bcc738984f8689b39",
        "d99785107454e17481229f869e08096d0eaecde036fa5c032bf8c265811eb43a",
        "53e2891dfe0766569800f4af9f4629f3c9602a6b839d5f55e84983bd09fe1b18",
    ),
}


@pytest.mark.parametrize("c,seed", sorted(BUILDER_DIGESTS))
def test_builder_output_lock(c, seed):
    from hmf.extract import strengthen

    F = gen_random_hmf(seed, c=c, max_rank=3)
    fin = build_finite(F)
    tower = build_infinite(F, 8)
    ci = tower.ci
    sigma = higher_homotopies(fin.complex, tuple(range(1, c + 1)), 3)
    got = (
        maps_digest(sorted(tower.complex.diffs.items())),
        maps_digest([((j, i), ci[j][i]) for j in sorted(ci) for i in sorted(ci[j])]),
        maps_digest([((a, m), sigma.maps[a][m])
                     for a in sorted(sigma.maps) for m in sorted(sigma.maps[a])]),
    )
    assert got == BUILDER_DIGESTS[c, seed]
    inter = [((j, p, i), d) for j in range(1, c)
             for p, C in sorted(build_intermediate(F, j, 8, tower=tower).stages.items())
             for i, d in sorted(C.diffs.items())]
    tilde, _ = special_lifting_and_ci(tower)
    pr = peel(tower.complex, t=ci[c])
    S = strengthen(F)
    with second_solution():
        sig1 = build_infinite(F, 8).sigma
    got = (
        maps_digest([((p, i), d) for p, C in sorted(fin.stages.items())
                     for i, d in sorted(C.diffs.items())]),
        maps_digest(inter),
        maps_digest([((j, i), tilde[j][i]) for j in sorted(tilde) for i in sorted(tilde[j])]),
        maps_digest(sorted(pr.kernel.diffs.items())
                    + [((a, m), pr.sigma.maps[a][m])
                       for a in sorted(pr.sigma.maps) for m in sorted(pr.sigma.maps[a])]),
        maps_digest([(p, S.h[p]) for p in sorted(S.h)]
                    + [((p, k), S.strong_ext[p][k])
                       for p in sorted(S.strong_ext) for k in sorted(S.strong_ext[p])]),
        maps_digest([((a, m), sig1.maps[a][m])
                     for a in sorted(sig1.maps) for m in sorted(sig1.maps[a])]),
    )
    assert got == LIFTING_DIGESTS[c, seed]


def complex_digest(C):
    """sha256 of a complex: its level and range, every module's twists and
    labels, and the str_rows of every differential in range."""
    h = hashlib.sha256()
    h.update(repr((C.level, C.lo, C.hi)).encode())
    for i in range(C.lo, C.hi + 1):
        h.update(repr((i, C.module(i).twists, C.module(i).all_labels())).encode())
    for i in range(C.lo + 1, C.hi + 1):
        h.update(repr((i, C.diff(i).str_rows())).encode())
    return h.hexdigest()


def lifted_maps_digest(monkeypatch, phis, sigma, sigmap, steps):
    """sha256 of the maps lifted_comparison_check assembles (delta~, phi~
    and delta~', read from the one sum it forms per degree), with its
    failure strings."""
    from hmf.lifting import lifted_comparison_check

    seen = []
    combine = MatrixMap.combine

    def spy(ring, src, dst, level, shift, products=(), maps=()):
        seen.append([(c, L.str_rows(), R.str_rows()) for c, L, R in products])
        return combine(ring, src, dst, level, shift, products, maps)

    monkeypatch.setattr(MatrixMap, "combine", staticmethod(spy))
    failures, _ = lifted_comparison_check(phis, sigma, sigmap, steps)
    monkeypatch.undo()
    return hashlib.sha256(repr((failures, seen)).encode()).hexdigest()


# sha256 of every V(p-1) and W(p) of cosyz_tower (complex_digest of each,
# p ascending), and of the assembled maps of lifted_comparison_check between
# the homotopy systems for f_c on the finite resolution built from canonical
# and from second solutions; recorded before the divided-power blocks and the head
# extension were each given one assembler
TOWER_DIGESTS = {
    (2, 3): ("e220ab8310476c3a5a768d3e1f617c3466f55399d21c16846ba0d6a4f388581a",
             "5fc6f99b4154037b5064e39cb459899c13035c520c67908324e1a1797faa36ad"),
    (3, 1): ("0b128c0687eb4aa36146a9d00174f811a6cb28836eb29724521242254b4b7d2c",
             "5df75780ccf4d68b50e323ddbe9db921d52a4da9f010060b60fb68508f3d1d42"),
    (4, 2): ("97732c2c5175083369214b3a13e5c7c907b3377cc01c54a7b5a2ef06938d900c",
             "0def43622f9c6c5d114c2edd6ebc8a66eb7ac403826424fb9982b5e1e6e66e24"),
    (5, 2): ("06af31dbd21942ee9ab234b0a67877bb06430a6843a64c4c4ccb070569af76d7",
             "c2098cb446aac971963f0b7ff6c298302b9d3afa3947ff4ba1acf3d1e688bb06"),
}


@pytest.mark.parametrize("c,seed", sorted(TOWER_DIGESTS))
def test_cosyz_and_lifted_comparison_lock(c, seed, monkeypatch):
    from hmf.lifting import homotopy_comparison

    F = gen_random_hmf(seed, c=c, max_rank=3)
    vw = cosyz_tower(F, 8)
    cosyz = hashlib.sha256(repr([
        (p, complex_digest(V), complex_digest(W))
        for p, (V, W) in sorted(vw.items())]).encode()).hexdigest()
    L = build_finite(F).complex
    sig0 = higher_homotopies(L, (c,), 3)
    with second_solution():
        sig1 = higher_homotopies(L, (c,), 3)
    phi0 = {v: MatrixMap.identity(F.ring, L.module(v), 0)
            for v in range(L.lo, L.hi + 1)}
    phis = homotopy_comparison(phi0, sig0, sig1, 3)
    got = (cosyz, lifted_maps_digest(monkeypatch, phis, sig0, sig1, 7))
    assert got == TOWER_DIGESTS[c, seed]
