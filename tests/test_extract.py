import pytest
from second_solution import second_solution

from hmf.complexes import Complex, FreeModule, MatrixMap
from hmf.corpus import codim2_xa_yb, codim2_xz_y2, micro_codim1
from hmf.extract import (
    ExtractionError,
    PreStabilityError,
    SyzygyInput,
    check_prestable,
    extract_hmf,
    prestable_certificate,
    strengthen,
    syzygy_shift_check,
)
from hmf.factorization import signature, validate_hmf, validate_strong
from hmf.resolutions import build_infinite, cosyz_tower
from hmf.ring import Field, GradedRing


@pytest.fixture(scope="module")
def F():
    return codim2_xa_yb()


@pytest.fixture(scope="module")
def W2(F):
    tower = build_infinite(F, 8)
    return cosyz_tower(F, 8, tower=tower)[2][1]


def test_check_prestable_primary(F, W2):
    rep = check_prestable(SyzygyInput(W2, 2))
    assert rep.ok, rep.failures
    assert any("codimension 2" in s for s in rep.items)


def test_check_prestable_lifting_independent(F, W2):
    # a second deterministic representative gives the same verdict
    rep0 = check_prestable(SyzygyInput(W2, 2))
    with second_solution():
        rep1 = check_prestable(SyzygyInput(W2, 2))
    assert rep0.ok == rep1.ok


def test_check_prestable_zero_module():
    ring = GradedRing.make(Field(), [("x", 1)], [])
    from hmf.complexes import ZERO_MODULE

    C = Complex(ring, 0, {i: FreeModule((i,)) if i < 2 else ZERO_MODULE
                          for i in range(0, 5)},
                {1: MatrixMap.from_strings(ring, FreeModule((1,)),
                                           FreeModule((0,)), [["x"]])}, 0, 4)
    rep = check_prestable(C)
    assert rep.ok


def test_check_prestable_rejects_dead_sum():
    # direct sum of resolutions where no operator is surjective
    ring = GradedRing.make(Field(), [("x", 1), ("y", 1)], ["x^2", "y^3"])
    mods = {}
    diffs = {}
    tw_y = [0, 1, 3, 4, 6, 7]
    for i in range(0, 6):
        mods[i] = FreeModule((i, tw_y[i]))
    ents = {
        1: [["x", "0"], ["0", "y"]],
        2: [["x", "0"], ["0", "y^2"]],
        3: [["x", "0"], ["0", "y"]],
        4: [["x", "0"], ["0", "y^2"]],
        5: [["x", "0"], ["0", "y"]],
    }
    for i, rows in ents.items():
        diffs[i] = MatrixMap.from_strings(ring, mods[i], mods[i - 1], rows,
                                          level=2)
    C = Complex(ring, 2, mods, diffs, 0, 5)
    rep = check_prestable(C)
    assert not rep.ok
    assert "not surjective" in rep.failures[0]
    assert "codimension 2" in rep.failures[0]


def test_extract_round_trip_signature(F, W2):
    out, trace = extract_hmf(SyzygyInput(W2, 2))
    assert validate_hmf(out).ok
    sig = signature(out)
    assert sig.ranks == ((2, 2), (2, 1))
    assert sig.gamma == 1 and sig.complexity == 2 and sig.betti_degree == 2
    from hmf.factorization import stability_rank_check

    assert stability_rank_check(out).ok
    assert len(trace.levels) >= 2


def test_extract_trace_replayable(F, W2):
    out1, tr1 = extract_hmf(SyzygyInput(W2, 2))
    out2, tr2 = extract_hmf(SyzygyInput(W2, 2))
    assert [[str(q) for q in row] for row in out1.d.entries] == [
        [str(q) for q in row] for row in out2.d.entries
    ]
    assert tr1.as_json() == tr2.as_json()


def test_extract_certificate(F, W2):
    out, _ = extract_hmf(SyzygyInput(W2, 2))
    cert = [item.row() for item in prestable_certificate(out, D=6)]
    assert all(row["verdict"] in ("PASS", "N-A") for row in cert)


def test_extract_micro_codim1():
    Fm = micro_codim1()
    tm = build_infinite(Fm, 8)
    Wm = cosyz_tower(Fm, 8, tower=tm)[1][1]
    out, _ = extract_hmf(SyzygyInput(Wm, 2))
    assert out.c == 1
    assert out.d.entries[0][0] == Fm.ring.poly("x")
    assert out.h[1].entries[0][0] == Fm.ring.poly("x")


def test_extract_betti_bounds(F, W2):
    # complexity z: b_0 >= z and b_1 >= (c - z + 1) b_0 + z(z+1)/2 - 1
    out, _ = extract_hmf(SyzygyInput(W2, 2))
    sig = signature(out)
    z = sig.complexity
    b0 = sum(out.rank0(p) for p in range(1, out.c + 1))
    b1 = sum(out.rank1(p) for p in range(1, out.c + 1)) + sum(
        (p - 1) * out.rank0(p) for p in range(1, out.c + 1)
    )
    assert b0 >= z
    assert b1 >= (out.c - z + 1) * b0 + z * (z + 1) // 2 - 1
    assert (b0, b1) == (3, 5)  # equality case of the second bound


def test_extract_higher_syzygy(F):
    # the syzygy two steps up extracts with shifted stage ranks
    tower = build_infinite(F, 10)
    W = cosyz_tower(F, 10, tower=tower)[2][1]
    out, _ = extract_hmf(SyzygyInput(W, 4))
    assert signature(out).ranks == ((2, 2), (4, 3))
    assert validate_hmf(out).ok


def test_extract_codim1_part_of_primary(F):
    # the level-1 extension extracts the hypersurface pair with the
    # primary example's codimension-1 ranks
    tower = build_infinite(F, 8)
    W1 = cosyz_tower(F, 8, tower=tower)[1][1]
    out, _ = extract_hmf(SyzygyInput(W1.truncate(0, 8), 2))
    assert out.c == 1
    assert signature(out).ranks == ((2, 2),)
    ring = F.ring
    from hmf.complexes import MatrixMap

    fid = MatrixMap.poly_times_identity(ring, ring.regseq[0], out.A0(1), 0)
    assert (out.d_p(1).compose(out.h[1]) - fid).is_zero()


@pytest.fixture(scope="module")
def W3():
    from hmf.corpus import codim3_shifted

    F3 = codim3_shifted()
    tower = build_infinite(F3, 10)
    return cosyz_tower(F3, 10, tower=tower)[3][1]


def test_extract_depth_three_shifted(W3):
    rep = check_prestable(SyzygyInput(W3, 2))
    assert rep.ok, rep.failures
    out, _ = extract_hmf(SyzygyInput(W3, 2))
    assert validate_hmf(out).ok
    assert signature(out).ranks == ((0, 0), (2, 2), (2, 1))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_extract_codimension_four(seed):
    from hmf.randgen import gen_random_hmf

    F4 = gen_random_hmf(seed, 4, max_rank=3)
    W4 = cosyz_tower(F4, 12)[4][1]
    out, _ = extract_hmf(SyzygyInput(W4, 2))
    assert validate_hmf(out).ok
    assert signature(out).ranks == signature(F4).ranks


def test_depth_probe_propagates_solver_bugs(W3, monkeypatch):
    # the codimension-3 probe for deep towers treats only the documented
    # descent failures as "needs deep towers"; a solver bug surfaces
    import hmf.extract as extract
    from hmf.lifting import SolverBug

    def broken_peel(*args, **kwargs):
        raise SolverBug("injected")

    monkeypatch.setattr(extract, "peel", broken_peel)
    with pytest.raises(SolverBug, match="injected"):
        extract_hmf(SyzygyInput(W3, 2))


def test_strengthen_examples(F):
    S = strengthen(F)
    rep = validate_strong(S)
    assert rep.ok, rep.failures
    assert S.d.entries == F.d.entries
    assert all(S.h[p].is_minimal() for p in (1, 2))
    # strengthening a strong factorization is a fixed point here
    S2 = strengthen(S)
    assert [[str(q) for q in r] for r in S2.h[2].entries] == [
        [str(q) for q in r] for r in S.h[2].entries
    ]
    # trivial input stays trivial
    ring = GradedRing.make(Field(), [("x", 1), ("y", 1)], ["x^2", "y^2"])
    from hmf.factorization import HMF

    triv = HMF(ring, {}, {}, {}, {1: {}, 2: {}})
    assert validate_strong(strengthen(triv)).ok


def test_validate_strong_requires_extension(F):
    rep = validate_strong(F)
    assert not rep.ok
    assert "no homotopy extension" in rep.failures[0]


def test_strong_congruence_vs_exact(F):
    # the raw h still satisfies the congruence even where the exact
    # identity needs the correction term
    ring = F.ring
    dh = F.d_p(2).compose(F.h[2])
    fid = MatrixMap.poly_times_identity(ring, ring.regseq[1], F.A0(2), 0)
    defect = dh - fid
    assert not defect.is_zero()
    assert defect.in_ideal(1)


def test_prestable_certificate(F):
    items = prestable_certificate(F, D=6)
    assert all(it.verdict in ("PASS", "N-A") for it in items)
    bad = prestable_certificate(codim2_xz_y2(), D=6)
    # stage 2 has B_0 = 0; the head cokernel degenerates, stage 1 passes
    assert bad[0].verdict == "PASS"


def test_syzygy_shift(F):
    items = syzygy_shift_check(F, steps=8, D=8)
    assert all(it.verdict == "PASS" for it in items)
    na = syzygy_shift_check(codim2_xz_y2(), steps=6)
    assert na[0].verdict == "N-A"


def test_cli_extract_descends_each_level_once(tmp_path, monkeypatch):
    # check_prestable and the extraction share one descent
    import hmf.extract as extract
    from hmf.cli import main
    from hmf.corpus import corpus_dir

    levels = []
    step = extract.peel

    def counted(C, t=None):
        levels.append(C.level)
        return step(C, t)

    monkeypatch.setattr(extract, "peel", counted)
    path = f"{corpus_dir()}/codim3_shifted.json"
    assert main(["extract", path, "-o", str(tmp_path / "out.json")]) == 0
    assert levels == [3, 2, 1]
