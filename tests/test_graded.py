import pytest
from hypothesis import given, settings, strategies as st

from hmf.complexes import FreeModule, MatrixMap
from hmf.graded import QuotientPieces, SolveError, graded_solve, ideal_membership
from hmf.ring import Field, GradedRing, Poly


def graded_piece_solve(targets, gens):
    """graded_solve on polynomials: targets are homogeneous Polys of one
    degree e, gens are (Poly g_i, slot degree e_i); returns coefficient
    lists or None per target.
    """
    if not targets:
        return []
    ring = targets[0].ring
    for t in targets:
        if not t.is_homogeneous():
            raise SolveError("inhomogeneous target")
    for g, _ in gens:
        if not g.is_homogeneous():
            raise SolveError("inhomogeneous generator")
    degs = {t.degree() for t in targets if not t.is_zero()}
    if len(degs) > 1:
        raise SolveError("targets of mixed degrees")
    if not degs:
        return [[ring.zero() for _ in gens] for _ in targets]
    e = degs.pop()
    res = graded_solve(ring, (0,), e, {0: dict(enumerate(g for g, _ in gens))},
                       [ed for _, ed in gens], {0: dict(enumerate(targets))},
                       len(targets))
    z = ring.zero()
    return [None if r is None else [r.get(i, z) for i in range(len(gens))]
            for r in res]


@pytest.fixture
def ring():
    return GradedRing.make(
        Field(), [("a", 1), ("b", 1), ("x", 1), ("y", 1)], ["x*a", "y*b"]
    )


def test_single_generator_divisibility(ring):
    res = graded_piece_solve([ring.poly("x*a*y")], [(ring.poly("x*a"), 2)])
    assert res[0] == [ring.poly("y")]


def test_termwise_split(ring):
    res = graded_piece_solve(
        [ring.poly("x^2*a + y^2*b")],
        [(ring.poly("x*a"), 2), (ring.poly("y*b"), 2)],
    )
    c1, c2 = res[0]
    assert c1 * ring.poly("x*a") + c2 * ring.poly("y*b") == ring.poly(
        "x^2*a + y^2*b"
    )


def test_no_solution(ring):
    res = graded_piece_solve([ring.poly("x^2")], [(ring.poly("x*a"), 2)])
    assert res[0] is None


def test_inhomogeneous_rejected(ring):
    with pytest.raises(SolveError):
        graded_piece_solve(
            [ring.poly("x + x^2")], [(ring.poly("x*a"), 2)]
        )


def test_membership_examples(ring):
    assert ideal_membership(ring.poly("x*a*b^2"), 1)
    assert not ideal_membership(ring.poly("x^2"), 2)
    assert ideal_membership(ring.zero(), 2)
    assert ideal_membership(ring.zero(), 0)
    assert not ideal_membership(ring.poly("x*a"), 0)
    # inhomogeneous input decided componentwise
    assert ideal_membership(ring.poly("x*a + x*a*b"), 1)
    assert not ideal_membership(ring.poly("x*a + x"), 1)
    # a non-monomial ideal, over F_p and over the rationals
    for char in (Field().char, 0):
        binom = GradedRing.make(Field(char), [("x", 1), ("y", 1), ("z", 1)],
                                ["x^2 + y*z", "y^2 - 2*x*z"])
        f1, f2 = binom.regseq
        assert ideal_membership(f1 * binom.poly("x - z") + f2 * binom.poly("y"), 2)
        assert not ideal_membership(f1 + binom.poly("x*z"), 2)


small = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.integers(0, 1),
        st.integers(0, 2),
        st.integers(0, 2),
        st.integers(-3, 3),
    ),
    max_size=3,
)


def mk(ring, spec):
    acc = ring.zero()
    for ea, eb, ex, ey, c in spec:
        acc = acc + ring.monomial((ea, eb, ex, ey), c)
    return acc


@given(small, small, small)
@settings(max_examples=40, deadline=None)
def test_membership_closure(s1, s2, s3):
    ring = GradedRing.make(
        Field(), [("a", 1), ("b", 1), ("x", 1), ("y", 1)], ["x*a", "y*b"]
    )
    g = mk(ring, s1) * ring.poly("x*a") + mk(ring, s2) * ring.poly("y*b")
    h = mk(ring, s3) * ring.poly("x*a")
    assert ideal_membership(g, 2)
    assert ideal_membership(g + h, 2)
    assert ideal_membership(mk(ring, s1) * g, 2)


@given(small)
@settings(max_examples=40, deadline=None)
def test_solution_resubstitutes(spec):
    ring = GradedRing.make(
        Field(), [("a", 1), ("b", 1), ("x", 1), ("y", 1)], ["x*a", "y*b"]
    )
    q = mk(ring, spec)
    for part in q.homogeneous_parts().values():
        t = part * ring.poly("x*a")
        res = graded_piece_solve([t], [(ring.poly("x*a"), 2)])
        assert res[0] is not None
        assert res[0][0] * ring.poly("x*a") == t


FIELDS = (32003, 3, 0)


@st.composite
def quotient_maps(draw, char, monomial):
    """(ring, gens, map): an ideal of 0-3 generators, monomial or not, and a
    random homogeneous map of free modules with a shift of -1..2."""
    # a variable of degree 2 leaves some pieces of the modules thin
    ring = GradedRing.make(Field(char), [("x", 1), ("y", 1), ("z", 2)], [])

    def poly(d, min_terms, max_terms):
        keys = ring.monomial_basis(d)[0]
        if not keys:
            return ring.zero()
        picks = draw(st.lists(st.sampled_from(keys), unique=True,
                              min_size=min(min_terms, len(keys)),
                              max_size=max_terms))
        coeffs = (ring.field.canon(draw(st.integers(-4, 4))) for _ in picks)
        return Poly(ring, {k: c for k, c in zip(picks, coeffs) if c})

    # a generator of two or more terms has RREF rows beyond their pivots
    gens = [poly(draw(st.integers(1, 3)), *((1, 1) if monomial else (2, 3)))
            for _ in range(draw(st.integers(0, 3)))]
    gens = [g for g in gens if g.terms]
    src = draw(st.lists(st.integers(0, 3), max_size=3))
    dst = draw(st.lists(st.integers(0, 3), max_size=3))
    shift = draw(st.integers(-1, 2))
    rows = {}
    for i, ti in enumerate(dst):
        for j, tj in enumerate(src):
            d = tj + shift - ti
            if d >= 0 and draw(st.booleans()):
                q = poly(d, 1, 3)
                if q.terms:
                    rows.setdefault(i, {})[j] = q
    mm = MatrixMap(ring, FreeModule(tuple(src)), FreeModule(tuple(dst)), rows,
                   0, shift)
    return ring, gens, mm


@pytest.mark.parametrize("monomial", [True, False], ids=["monomial", "binomial"])
@pytest.mark.parametrize("char", FIELDS)
@given(data=st.data(), e=st.integers(0, 6))
@settings(max_examples=25, deadline=None)
def test_quotient_pieces_match_reference(char, monomial, data, e):
    # the standard-monomial walk gives the matrices of the whole-S-piece
    # normal form, entry for entry, and the same membership verdicts; S
    # itself (no generators) is the builders' level 0, checked every time
    from quotient_reference import ReferencePieces

    ring, gens, mm = data.draw(quotient_maps(char, monomial))
    for ideal in (gens, []):
        Q = QuotientPieces(ring, ideal)
        ref = ReferencePieces(ring, ideal)
        assert Q.induced(mm, e) == ref.induced(mm, e)
        assert Q.dim(mm.dst.twists, e) == ref.dim(mm.dst.twists, e)
        assert Q.dim(mm.src.twists, e - mm.shift) == ref.dim(mm.src.twists, e - mm.shift)
        for row in mm.rows.values():
            for q in row.values():
                assert Q.contains(q) == ref.contains(q)
                for g in ideal:
                    assert Q.contains(q * g)
                    k = q.degree() - g.degree()
                    if k >= 0:
                        r = q + g * ring.monomial((k, 0, 0))
                        assert not r.terms or Q.contains(r) == ref.contains(r)


@pytest.mark.parametrize("char", FIELDS)
@given(data=st.data(), e=st.integers(0, 6))
@settings(max_examples=25, deadline=None)
def test_basis_inverts_the_layout(char, data, e):
    # position k of the source piece is (generator j, standard monomial m),
    # and column k of the induced matrix is the image of m at generator j,
    # a one-column map induced by the reference
    from quotient_reference import ReferencePieces

    ring, gens, mm = data.draw(quotient_maps(char, False))
    Q = QuotientPieces(ring, gens)
    ref = ReferencePieces(ring, gens)
    src = mm.src.twists
    basis = Q.basis(src, e - mm.shift)
    assert len(basis) == Q.dim(src, e - mm.shift)
    M = Q.induced(mm, e)
    for k, (j, m) in enumerate(basis):
        assert m >> ring.deg_shift == e - mm.shift - src[j]
        mono = Poly(ring, {m: 1})
        image = {i: {0: row[j] * mono} for i, row in mm.rows.items() if j in row}
        col = MatrixMap(ring, FreeModule((e,)), mm.dst, image, check=False)
        want = ref.induced(col, e)
        assert {r: row[k] for r, row in M.rows.items() if k in row} == \
            {r: row[0] for r, row in want.rows.items()}


def test_induced_rejects_a_term_of_the_wrong_degree():
    # x sits where a degree-0 entry belongs; (x, y)^2 leaves no standard
    # monomial in degree 2, so at e = 2 no product of x is ever formed
    ring = GradedRing.make(Field(), [("x", 1), ("y", 1)], [])
    Q = QuotientPieces(ring, [ring.poly(s) for s in ("x^2", "x*y", "y^2")])
    one = FreeModule((0,))
    mm = MatrixMap(ring, one, one, {0: {0: ring.poly("x")}}, check=False)
    assert Q.dim((0,), 2) == 0
    for e in (0, 1, 2):
        with pytest.raises(SolveError, match="degree 1, expected 0"):
            Q.induced(mm, e)



def test_contains_rejects_terms_of_two_degrees():
    # graded_homology tests a composite entry by entry with contains: a
    # term of another degree raises as in induced, even where every
    # homogeneous part lies in I
    ring = GradedRing.make(Field(), [("x", 1), ("y", 1)], [])
    Q = QuotientPieces(ring, [ring.poly("x")])
    assert Q.contains(ring.poly("x^2")) and Q.contains(ring.poly("x"))
    for g in ("x^2 + x", "y^2 + x", "x*y + y"):
        with pytest.raises(SolveError):
            Q.contains(ring.poly(g))

def test_only_quotient_pieces_lay_out_a_piece():
    # one assembler at every level: outside ring.py only QuotientPieces
    # reads the monomial bases, and the S-piece assembler that the tests
    # keep as their reference (piece_reference.py) is not in the package.
    # Pieces are made in two places only: the ring's per-level store and
    # one per homology table, which also counts every cokernel
    import ast
    import os

    import hmf

    pkg = os.path.dirname(hmf.__file__)
    makers = set()
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(pkg, fname)) as fh:
            tree = ast.parse(fh.read())
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "QuotientPieces":
                inside.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if getattr(node, "attr", None) == "monomial_basis":
                assert fname == "ring.py" or id(node) in inside, (fname, node.lineno)
            names = {getattr(node, k, None) for k in ("id", "attr", "name")}
            assert not names & {"piece_matrix", "piece_layout"}, (fname, node.lineno)
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "QuotientPieces" in {
                        getattr(node.func, k, None) for k in ("id", "attr")}:
                    makers.add((fname, getattr(top, "name", None)))
    assert makers == {("graded.py", "pieces"), ("oracle.py", "graded_homology")}


def test_only_the_kernels_eliminate():
    # every elimination goes through the four public kernels (rref, rank,
    # solve_many, nullspace), which perfbench's tracer wraps: no module may
    # reach the private elimination itself, where the per-layer metrics
    # would not see it
    import ast
    import os

    import hmf

    pkg = os.path.dirname(hmf.__file__)
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py") or fname == "_kernels.py":
            continue
        with open(os.path.join(pkg, fname)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            names = {getattr(node, k, None) for k in ("id", "attr", "name")}
            assert not names & {"_eliminate", "_subtract"}, (fname, node.lineno)


def test_graded_solve_assembles_once_and_solves_with_the_kernel(monkeypatch):
    # graded_solve lays out [A | B] in one walk, and the kernel behind
    # every solve of a nonzero piece is _kernels.solve_many: one call each,
    # and no call outside graded_solve
    from hmf import _kernels, complexes
    from hmf.corpus import codim2_xa_yb
    from hmf.resolutions import build_infinite

    active, done = [], []  # [piece dimension, walks, solves] per call
    walk, solve_many, solve = QuotientPieces._walk, _kernels.solve_many, graded_solve

    def counted_walk(self, *args):
        for c in active:
            c[1] += 1
        return walk(self, *args)

    def counted_solve_many(*args):
        assert active
        active[-1][2] += 1
        return solve_many(*args)

    def counted_solve(ring, dst_twists, e, *args):
        active.append([QuotientPieces(ring, ()).dim(dst_twists, e), 0, 0])
        try:
            return solve(ring, dst_twists, e, *args)
        finally:
            done.append(active.pop())

    monkeypatch.setattr(QuotientPieces, "_walk", counted_walk)
    monkeypatch.setattr(_kernels, "solve_many", counted_solve_many)
    monkeypatch.setattr(complexes, "graded_solve", counted_solve)
    build_infinite(codim2_xa_yb(), 6)
    assert any(dim for dim, _, _ in done)
    assert all(walks == 1 and solves == (dim > 0) for dim, walks, solves in done)
