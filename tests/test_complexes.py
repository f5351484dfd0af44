import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from map_ops import direct_sum, scale_poly, with_shift
from second_solution import second_solution

from hmf.complexes import (
    Complex,
    ContractViolation,
    FreeModule,
    MatrixMap,
    ShapeError,
    koszul_complex,
    koszul_tensor,
    mapping_cone,
    solve_factorization,
    two_term_complex,
    validate_homotopy_system,
)
from hmf.corpus import codim2_xa_yb, micro_codim1
from hmf.lifting import higher_homotopies
from hmf.oracle import graded_homology, homology_is_zero
from hmf.ring import DEFAULT_PRIME, Field, GradedRing, RingError


@pytest.fixture(scope="module")
def F():
    return codim2_xa_yb()


def test_compose_matrix_factorization(F):
    ring = F.ring
    d1 = F.d_p(1)
    h1 = F.h[1]
    fid = MatrixMap.poly_times_identity(ring, ring.regseq[0], F.A0(1), 0)
    assert (d1.compose(h1) - fid).is_zero()


def test_compose_identity(F):
    d = F.d
    ident = MatrixMap.identity(F.ring, d.src, 0)
    assert d.compose(ident).entries == d.entries


def test_displayed_products(F):
    ring = F.ring
    P = ring.poly
    dh = F.d_p(2).compose(F.h[2])
    assert dh.entries == MatrixMap.from_strings(
        ring, dh.src, dh.dst,
        [["y*b", "0", "0"], ["0", "y*b", "0"], ["0", "x*a", "y*b"]],
        shift=2,
    ).entries
    hd = F.h[2].compose(F.d_p(2))
    assert hd.entries == MatrixMap.from_strings(
        ring, hd.src, hd.dst,
        [
            ["y*b", "x*b", "0", "0"],
            ["0", "0", "0", "0"],
            ["x*a", "0", "y*b", "0"],
            ["0", "x*a", "0", "y*b"],
        ],
        shift=2,
    ).entries


def reference_compose(f, g):
    """Entries of f o g from the dense triple loop over every (i, k, j)."""
    rows = []
    for i in range(f.dst.rank):
        row = []
        for j in range(g.src.rank):
            acc = f.ring.zero()
            for k in range(f.src.rank):
                a = f.entries[i][k]
                b = g.entries[k][j]
                if a.is_zero() or b.is_zero():
                    continue
                acc = acc + a * b
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def coefficients(ring):
    if ring.field.char:
        return st.integers(-2, 2)
    return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def random_poly(data, ring, d):
    """Zero, or a sum of 1-3 random terms of degree d."""
    q = ring.zero()
    mons = ring.monomials(d)
    if mons and data.draw(st.booleans()):
        for _ in range(data.draw(st.integers(1, 3))):
            q = q + ring.monomial(data.draw(st.sampled_from(mons)),
                                  data.draw(coefficients(ring)))
    return q


def random_map(data, ring, src, dst, shift):
    """A homogeneous map with about half of its entries zero; few monomials
    and small coefficients, so sums cancel often."""
    rows = [[random_poly(data, ring, tj + shift - ti) for tj in src.twists]
            for ti in dst.twists]
    return MatrixMap.from_strings(ring, src, dst, rows, shift=shift)


def assert_canonical(mm):
    """Sparse rows: no empty row, no zero entry, every index inside the
    shape, and every coefficient reduced."""
    char = mm.ring.field.char
    for i, row in mm.rows.items():
        assert 0 <= i < mm.dst.rank and row
        for j, q in row.items():
            assert 0 <= j < mm.src.rank and q.terms
            for c in q.terms.values():
                assert c != 0
                assert (type(c) is int and 0 < c < char) if char else type(c) is Fraction


def snapshot(mm):
    return {i: {j: dict(q.terms) for j, q in row.items()}
            for i, row in mm.rows.items()}


def dense_blocks(blocks, src_mods, dst_mods, ring):
    """The dense grid of a block map, zeros where a block is None."""
    z = ring.zero()
    grid = []
    for brow, dmod in zip(blocks, dst_mods):
        for i in range(dmod.rank):
            grid.append(tuple(q for blk, smod in zip(brow, src_mods)
                              for q in (blk.entries[i] if blk else (z,) * smod.rank)))
    return tuple(grid)


@pytest.mark.parametrize("char", [32003, 3, 0])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_map_algebra_matches_dense_reference(char, data):
    ring = GradedRing.make(Field(char), [("x", 1), ("y", 1)], ["x^2", "y^2"])
    U, V, W = (FreeModule(data.draw(st.lists(st.integers(0, 2), max_size=4)))
               for _ in range(3))
    f = random_map(data, ring, V, W, 1)
    g, g2 = (random_map(data, ring, U, V, 1) for _ in range(2))
    # maps share rows, so no operation may change an operand's
    before = [snapshot(mm) for mm in (f, g, g2)]
    fg = f.compose(g)
    assert (fg.src, fg.dst, fg.shift) == (U, W, 2)
    assert fg.entries == reference_compose(f, g)
    total = g + g2
    assert total.entries == tuple(tuple(a + b for a, b in zip(ra, rb))
                                  for ra, rb in zip(g.entries, g2.entries))
    diff = g - g2
    assert diff.entries == tuple(tuple(a + (-b) for a, b in zip(ra, rb))
                                 for ra, rb in zip(g.entries, g2.entries))
    neg = -g
    assert neg.entries == tuple(tuple(-a for a in row) for row in g.entries)
    c = data.draw(coefficients(ring))
    scaled = g.scale(c)
    assert scaled.entries == tuple(tuple(a.scale(c) for a in row)
                                   for row in g.entries)
    q = random_poly(data, ring, data.draw(st.integers(0, 1)))
    times = scale_poly(g, q)
    assert times.shift == g.shift + (q.degree() or 0)
    assert times.entries == tuple(tuple(a * q for a in row) for row in g.entries)
    rows = data.draw(st.lists(st.integers(0, V.rank - 1), unique=True)) if V.rank else []
    cols = data.draw(st.lists(st.integers(0, U.rank - 1), unique=True)) if U.rank else []
    sub = g.submatrix(rows, cols)
    assert sub.entries == tuple(tuple(g.entries[i][j] for j in cols) for i in rows)
    blocks = [[g, None], [None, f], [g2, None]]
    glued = MatrixMap.from_blocks(ring, blocks, [U, V], [V, W, V],
                                  FreeModule.concat([U, V]),
                                  FreeModule.concat([V, W, V]), 0, 1)
    assert glued.entries == dense_blocks(blocks, [U, V], [V, W, V], ring)
    # the direct sums handed in must have the summands' total rank
    with pytest.raises(ShapeError, match="do not add up"):
        MatrixMap.from_blocks(ring, blocks, [U, V], [V, W, V],
                              FreeModule.concat([U, V, FreeModule((0,))]),
                              FreeModule.concat([V, W, V]), 0, 1)
    # combine: a signed sum of products and maps, against compose, + and -
    h = random_map(data, ring, U, W, 2)
    before.append(snapshot(h))
    products = [(c, f, (g, g2)[k]) for c, k in data.draw(st.lists(
        st.tuples(coefficients(ring), st.integers(0, 1)), max_size=3))]
    maps = [(c, h) for c in data.draw(st.lists(coefficients(ring), max_size=2))]
    combined = MatrixMap.combine(ring, U, W, 0, 2, products, maps)
    assert (combined.src, combined.dst, combined.shift) == (U, W, 2)
    expect = MatrixMap.zero(ring, U, W, 0, 2)
    for c, L, R in products:
        expect = expect + L.compose(R).scale(c)
    for c, M in maps:
        expect = expect - M.scale(-c)
    assert combined.entries == expect.entries
    assert MatrixMap.combine(ring, U, W, 0, 2).rows == {}
    # every mismatch raises what compose or + raises for it
    ring2 = GradedRing.make(Field(char), [("x", 1), ("y", 1)], ["x^2", "y^2"])
    other_ring = MatrixMap.zero(ring2, V, W, 0, 1)
    V2 = FreeModule(V.twists + (0,))
    U2 = FreeModule(U.twists + (0,))
    mismatches = [
        (lambda: other_ring.compose(g), [(1, other_ring, g)], []),
        (lambda: f.compose(g.relevel(1)), [(1, f, g.relevel(1))], []),
        (lambda: f.compose(MatrixMap.zero(ring, U, V2, 0, 1)),
         [(1, f, MatrixMap.zero(ring, U, V2, 0, 1))], []),
        (lambda: fg + with_shift(h, 3), [], [(1, with_shift(h, 3))]),
        (lambda: fg + MatrixMap.zero(ring, U2, W, 0, 2), [],
         [(1, MatrixMap.zero(ring, U2, W, 0, 2))]),
    ]
    for binary, products, maps in mismatches:
        with pytest.raises((ShapeError, RingError)) as want:
            binary()
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            MatrixMap.combine(ring, U, W, 0, 2, products, maps)
    for mm in (fg, total, diff, neg, scaled, times, sub, glued, combined):
        assert_canonical(mm)
    assert [snapshot(mm) for mm in (f, g, g2, h)] == before


def test_first_failure_is_row_major():
    # the sum fills row 1 first, and then column 1 of row 0 before column 0
    ring = GradedRing.make(Field(), [("x", 1), ("y", 1)], ["x^2", "y^2"])
    M = FreeModule((0, 0))

    def one(i, j, s):
        grid = [["0", "0"], ["0", "0"]]
        grid[i][j] = s
        return MatrixMap.from_strings(ring, M, M, grid, check=False)

    total = one(1, 0, "x") + one(0, 1, "y") + one(0, 0, "x + y")
    assert list(total.rows) == [1, 0] and list(total.rows[0]) == [1, 0]
    assert total.first_nonmember() == (0, 0)
    with pytest.raises(ContractViolation, match=r"entry \(0,0\)"):
        total.check_homogeneous()


def test_homogeneity_enforced(F):
    ring = F.ring
    with pytest.raises(ContractViolation):
        MatrixMap.from_strings(
            ring,
            FreeModule((0,)),
            FreeModule((0,)),
            [[ring.poly("x")]],
        )


def test_cone_of_zero_is_direct_sum(F):
    B1 = two_term_complex(F.ring, F.d_p(1))
    B2 = two_term_complex(F.ring, F.b_block(2))
    zero = MatrixMap.zero(F.ring, B2.module(1), B1.module(0), 0)
    cone = mapping_cone(B1, B2, {0: zero})
    ds = direct_sum(B1, B2)
    for i in range(0, 2):
        assert cone.module(i).twists == ds.module(i).twists
        assert cone.diff(i).entries == ds.diff(i).entries if i else True


def test_cone_rank_additivity(F):
    from hmf.resolutions import build_finite

    L = build_finite(F).complex
    # underlying modules of the cone split degreewise
    assert L.betti_list() == [3, 5, 2]
    assert L.module(1).rank == 2 + 3  # lower stage + Koszul part


def test_cone_of_identity_contractible(F):
    from hmf.resolutions import build_finite

    C = build_finite(F).complex
    W = C.shift(-1)
    phi = {}
    for j in range(C.lo, C.hi + 1):
        phi[j] = MatrixMap.identity(F.ring, C.module(j), 0)
    cone = mapping_cone(C, W, phi)
    assert not cone.validate()
    table = graded_homology(cone, (1, cone.hi), 8)
    assert not homology_is_zero(table, (1, cone.hi), 8)


def test_cone_checks_chain_map(F):
    # corrupt the upper component of a genuine Koszul extension: the square
    # between degrees 1 and 2 stops commuting and the cone must refuse
    from hmf.lifting import koszul_extension

    B = two_term_complex(F.ring, F.b_block(2))
    L1 = two_term_complex(F.ring, F.d_p(1))
    KB, phi = koszul_extension(F.psi_block(2), B, L1, (1,))
    mapping_cone(L1, KB, phi)  # fine as built
    corrupt = dict(phi)
    bump = MatrixMap.zero(F.ring, phi[1].src, phi[1].dst, 0)
    rows = [list(r) for r in bump.entries]
    rows[0][0] = F.ring.poly("x*a")
    corrupt[1] = phi[1] + MatrixMap.from_strings(
        F.ring, phi[1].src, phi[1].dst, rows, 0, 0, check=False
    )
    with pytest.raises(ContractViolation):
        mapping_cone(L1, KB, corrupt)


def test_koszul_tensor_empty_is_identity(F):
    B = two_term_complex(F.ring, F.b_block(2))
    KB = koszul_tensor((), B)
    assert KB.betti_list() == B.betti_list()
    assert KB.diff(1).entries == B.diff(1).entries


def test_koszul_tensor_display_shape(F):
    B = two_term_complex(F.ring, F.b_block(2))
    KB = koszul_tensor((1,), B)
    assert KB.betti_list() == [1, 3, 2]
    assert not KB.validate()
    # verticals: +f1 on the degree-0 head, -f1 out of the top
    P = F.ring.poly
    assert KB.diff(1).entries[0][2] == P("x*a")
    assert KB.diff(2).entries[0][0] == P("-x*a")
    assert KB.diff(2).entries[1][1] == P("-x*a")


def test_koszul_tensor_rank_binomials(F):
    import math

    B = two_term_complex(F.ring, F.b_block(1))
    for m in (1, 2):
        KB = koszul_tensor(tuple(range(1, m + 1)), B)
        for j in range(0, m + 2):
            expect = sum(
                math.comb(m, i) * B.module(j - i).rank
                for i in range(0, j + 1)
            )
            assert KB.module(j).rank == expect


def test_koszul_tensor_homology_prediction(F):
    # homology of K(f_1) (x) B(2) concentrates in degrees <= 1, and the
    # degree-1 piece has the dimensions of Ker(b_2) over the hypersurface,
    # computed independently from raw pieces
    from augmented import image_dim, map_piece, quotient_dim
    from hmf.oracle import graded_homology

    ring = F.ring
    B = two_term_complex(F.ring, F.b_block(2))
    KB = koszul_tensor((1,), B)
    table = graded_homology(KB, (1, 2), 8)
    assert all(table[(2, e)] == 0 for e in range(0, 9))
    gens = (ring.regseq[0],)
    for e in range(0, 9):
        A = map_piece(B.diff(1), e)
        dim1 = quotient_dim(ring, B.module(1).twists, gens, e)
        im = image_dim(ring, A, B.module(0).twists, gens, e)
        assert table[(1, e)] == dim1 - im


def test_shift_and_truncate(F):
    from hmf.resolutions import build_finite

    C = build_finite(F).complex
    assert C.shift(0).betti_list() == C.betti_list()
    back = C.shift(2).shift(-2)
    assert back.betti_list() == C.betti_list()
    assert back.diff(1).entries == C.diff(1).entries
    T = C.truncate(0, 1)
    assert T.hi == 1
    with pytest.raises(ShapeError):
        C.truncate(2, 1)


def test_validate_reports_inhomogeneous_entry(F):
    ring = F.ring
    d = MatrixMap.from_strings(ring, FreeModule((1,)), FreeModule((0,)),
                               [["a + a^2"]], check=False)
    C = Complex(ring, 0, {0: FreeModule((0,)), 1: FreeModule((1,))}, {1: d})
    assert C.validate() == [
        "diff 1: entry (0,0) = a^2 + a is not homogeneous, required degree 1"]
    with pytest.raises(ContractViolation, match="not homogeneous"):
        MatrixMap.from_strings(ring, FreeModule((1,)), FreeModule((0,)),
                               [["a + a^2"]])


def test_reduce_level(F):
    B1 = two_term_complex(F.ring, F.d_p(1))
    deep = B1.reduce_level(2)
    assert deep.level == 2
    assert not deep.validate()
    with pytest.raises(ShapeError):
        deep.reduce_level(0)


def test_is_minimal(F):
    from hmf.resolutions import build_finite, build_infinite

    assert build_finite(F).complex.is_minimal()
    ident = MatrixMap.identity(F.ring, FreeModule((0,)), 0)
    C = Complex(F.ring, 0, {0: FreeModule((0,)), 1: FreeModule((0,))}, {1: ident})
    assert not C.is_minimal()
    Fm = micro_codim1()
    T = build_infinite(Fm, 6).complex
    assert T.is_minimal()


def test_validate_homotopy_system_examples():
    Fm = micro_codim1()
    ring = Fm.ring
    G = two_term_complex(ring, Fm.d_p(1))
    sigma = higher_homotopies(G, (1,), 2)
    assert sigma.get((1,), 0).entries[0][0] == ring.poly("x")
    assert not validate_homotopy_system(sigma)
    # perturb sigma_1 and the identity must fail by name
    bump = MatrixMap.from_strings(
        ring, G.module(0), G.module(1), [[ring.poly("x")]], 0, 2, check=False
    )
    sigma.set((1,), 0, sigma.get((1,), 0) + bump)
    failures = validate_homotopy_system(sigma)
    assert failures and "index (1,)" in failures[0]


def _batch_inputs(char):
    """d of codim2_xa_yb and three right-hand sides on its target: d itself
    (degree 1), the identity (unsolvable: d has no unit entries) and a map
    whose two columns have degrees 1 and 2."""
    F = codim2_xa_yb(char)
    ring = F.ring
    d = F.d
    ident = MatrixMap.identity(ring, d.dst, 0)
    x = ring.poly("x")
    mixed = MatrixMap.from_strings(ring, FreeModule((1, 2)), d.dst,
                                   [[row[0], row[1] * x] for row in d.entries], 0, 0)
    return d, [d, ident, mixed]


@pytest.mark.parametrize("char", [DEFAULT_PRIME, 0])
@pytest.mark.parametrize("variant", [0, 1])
def test_batched_solve_equals_single_solves(char, variant):
    import hmf.complexes as complexes

    d, Cs = _batch_inputs(char)
    level = 2
    with second_solution() if variant else pytest.MonkeyPatch.context() as mp:
        single = [solve_factorization(d, [C], level)[0] for C in Cs]
        calls = []
        solve = complexes.graded_solve

        def counted(ring, dst_twists, e, *args):
            calls.append(e)
            return solve(ring, dst_twists, e, *args)

        mp.setattr(complexes, "graded_solve", counted)
        batched = solve_factorization(d, Cs, level)
    # one elimination per degree across the whole list, not per right-hand side
    assert sorted(calls) == [0, 1, 2]
    assert batched[1] is None and single[1] is None
    ring = d.ring
    for C, got, want in zip(Cs, batched, single):
        if want is None:
            continue
        X, Ws = got
        assert X.entries == want[0].entries
        assert [W.entries for W in Ws] == [W.entries for W in want[1]]
        acc = d.with_level(level).compose(X)
        for f, W in zip(ring.regseq, Ws):
            acc = acc + scale_poly(W, f)
        assert (acc - C.with_level(level)).is_zero()
