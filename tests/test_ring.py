from fractions import Fraction

import pytest
import tuple_poly as ref
from hypothesis import given, settings, strategies as st

from hmf.ring import Field, GradedRing, Poly, RingError


@pytest.fixture
def ring():
    return GradedRing.make(
        Field(), [("a", 1), ("b", 1), ("x", 1), ("y", 1)], ["x*a", "y*b"]
    )


def test_additive_identity(ring):
    xa = ring.poly("x*a")
    assert xa + ring.zero() == xa


def test_monomial_product(ring):
    assert ring.poly("x") * ring.poly("a") == ring.poly("x*a")


def test_difference_of_squares(ring):
    # expanded by hand: (y+x)(y-x) = y^2 - x^2
    lhs = (ring.poly("y") + ring.poly("x")) * (ring.poly("y") - ring.poly("x"))
    assert lhs == ring.poly("y^2 - x^2")


def test_degree_bookkeeping(ring):
    f = ring.poly("x*a")
    g = ring.poly("y^2")
    assert f.degree() == 2 and g.degree() == 2
    assert (f * g).degree() == 4
    mixed = f + ring.poly("x")
    assert not mixed.is_homogeneous()
    with pytest.raises(RingError):
        mixed.degree()


def test_mixed_ring_error(ring):
    other = GradedRing.make(Field(), [("x", 1)], ["x^2"])
    with pytest.raises(RingError):
        ring.poly("x") + other.poly("x")


def test_parse_print_round_trip(ring):
    for s in ["x*a - 2*y^2", "3*a^2*b + x*y - 1", "0", "a", "-a + b"]:
        p = ring.poly(s)
        assert ring.poly(str(p)) == p


def test_print_grevlex_deterministic(ring):
    p = ring.poly("y^2") + ring.poly("x^2") + ring.poly("a*x")
    assert str(p) == str(ring.poly(str(p)))


small_polys = st.builds(
    lambda coeffs: coeffs,
    st.lists(
        st.tuples(
            st.integers(0, 2),
            st.integers(0, 2),
            st.integers(0, 2),
            st.integers(0, 2),
            st.integers(-5, 5),
        ),
        max_size=4,
    ),
)


def mk(ring, spec):
    acc = ring.zero()
    for ea, eb, ex, ey, c in spec:
        acc = acc + ring.monomial((ea, eb, ex, ey), c)
    return acc


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(s1, s2, s3):
    ring = GradedRing.make(
        Field(), [("a", 1), ("b", 1), ("x", 1), ("y", 1)], ["x*a", "y*b"]
    )
    p, q, r = mk(ring, s1), mk(ring, s2), mk(ring, s3)
    assert p + q == q + p
    assert p - q == p + (-q)
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)
    # homogeneous parts recombine
    total = ring.zero()
    for part in p.homogeneous_parts().values():
        total = total + part
    assert total == p


def test_field_validation():
    with pytest.raises(RingError):
        Field(15)
    assert Field(0).char == 0
    assert Field(2).char == 2
    # the largest prime p with (p - 1)**2 + p <= 2**53, and the next prime
    assert Field(94906249).char == 94906249
    assert 94906248**2 + 94906249 <= 2**53 < 94906296**2 + 94906297
    for p in (94906297, 4294967311, 2**61 - 1):
        with pytest.raises(RingError):
            Field(p)


def test_regseq_rejects_constants():
    # a unit is never part of a regular sequence
    for regseq in (["5", "y^2"], ["x*a", "1"]):
        with pytest.raises(RingError, match="constant"):
            GradedRing.make(Field(), [("a", 1), ("b", 1), ("x", 1), ("y", 1)], regseq)


def test_caret_without_exponent(ring):
    for s in ("x^^2", "x^", "x^y", "x^1/2"):
        with pytest.raises(RingError):
            ring.poly(s)


def test_misplaced_star(ring):
    # a doubled or leading '*' is an error, so x**2 is never read as 2*x
    for s in ("x**2", "x**y", "**x", "*x", "a + *x", "x - **y", "2**x"):
        with pytest.raises(RingError, match="misplaced"):
            ring.poly(s)
    assert ring.poly("2*x*y") == ring.poly("x*2*y")


def test_sign_without_a_term(ring):
    # x--y was read as x - y, a trailing sign was dropped, and a lone sign
    # was read as 0
    for s in ("x--y", "x-", "-", "+", "x+-y", "a - + x"):
        with pytest.raises(RingError, match="sign without a term"):
            ring.poly(s)
    assert ring.poly("-x + y") == ring.poly("y") - ring.poly("x")
    assert ring.poly("+x") == ring.poly("x")


def test_char_zero_poly():
    ring = GradedRing.make(Field(0), [("x", 1), ("y", 1)], ["x*y"])
    p = ring.poly("1/2*x + y")
    assert (p + p) == ring.poly("x + 2*y")


# -- rational coefficients over F_p


def test_rational_coefficients_over_fp():
    ring = GradedRing.make(Field(), [("x", 1), ("y", 1)], ["x*y"])
    half = pow(2, -1, 32003)
    assert Field().canon(Fraction(1, 2)) == half
    assert ring.poly("1/2*x + y") == ring.monomial((1, 0), half) + ring.poly("y")
    assert ring.poly("1/2*x + y") * ring.const(2) == ring.poly("x + 2*y")
    assert ring.poly("3/2*x") == ring.monomial((1, 0), 3 * half)
    assert ring.poly("1/2*x + 1/2*x") == ring.poly("x")
    # a fraction in lowest terms decides: 32003/64006 is 1/2
    assert ring.poly("32003/64006*x") == ring.poly("1/2*x")
    for s in ("1/32003*x", "5/64006*y", "1/0*x"):
        with pytest.raises(RingError):
            ring.poly(s)
    with pytest.raises(RingError):
        GradedRing.make(Field(0), [("x", 1)], ["x"]).poly("1/0*x")


# -- packed monomial keys


def test_pack_round_trip():
    ring = GradedRing(Field(), [("x", 1), ("y", 2), ("z", 3)])
    for e in ((0, 0, 0), (1, 2, 3), (65535, 0, 0), (0, 0, 21845)):
        k = ring.pack(e)
        assert ring.unpack(k) == e
        assert k >> ring.deg_shift == e[0] + 2 * e[1] + 3 * e[2]
    assert ring.pack((1, 0, 0)) + ring.pack((0, 1, 1)) == ring.pack((1, 1, 1))


def test_packed_width_overflow_is_an_error():
    ring = GradedRing(Field(), [("x", 1), ("y", 2)])
    for bad in ((65536, 0), (0, 32768), (-1, 0), (1, 0, 0)):
        with pytest.raises(RingError):
            ring.pack(bad)
    for s in ("x^70000", "y^40000", "x^40000*x^40000"):
        with pytest.raises(RingError):
            ring.poly(s)
    assert ring.poly("x^65535").degree() == 65535
    with pytest.raises(RingError):
        ring.monomial_basis(1 << 16)
    x40k = ring.poly("x^40000")
    with pytest.raises(RingError):
        x40k * x40k
    with pytest.raises(RingError):
        ring.poly("x^65535") * ring.poly("x")


def test_packed_overflow_through_compose():
    from hmf.complexes import FreeModule, MatrixMap

    ring = GradedRing(Field(), [("x", 1), ("y", 1)])
    m = MatrixMap.from_strings(ring, FreeModule((40000,)), FreeModule((0,)),
                               [[ring.poly("x^40000")]])
    n = MatrixMap.from_strings(ring, FreeModule((80000,)), FreeModule((40000,)),
                               [[ring.poly("x^40000")]])
    with pytest.raises(RingError):
        m.compose(n)


def test_packed_overflow_through_combine():
    # the overflow is caught before reduction, even where the terms cancel
    from hmf.complexes import FreeModule, MatrixMap

    ring = GradedRing(Field(), [("x", 1), ("y", 1)])
    m = MatrixMap.from_strings(ring, FreeModule((40000,)), FreeModule((0,)),
                               [[ring.poly("x^40000")]])
    n = MatrixMap.from_strings(ring, FreeModule((80000,)), FreeModule((40000,)),
                               [[ring.poly("x^40000")]])
    low = MatrixMap.from_strings(ring, FreeModule((80000,)), FreeModule((0,)),
                                 [["0"]])
    for products in ([(1, m, n)], [(1, m, n), (-1, m, n)]):
        with pytest.raises(RingError, match="exceeds the packed bound"):
            MatrixMap.combine(ring, n.src, m.dst, 0, 0, products, [(1, low)])


# -- packed keys against the tuple-keyed reference

EXPONENTS = st.lists(st.integers(0, 3), min_size=4, max_size=4)
COEFFS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def weighted_ring_and_polys(draw):
    nvars = draw(st.integers(1, 4))
    degs = draw(st.lists(st.integers(1, 3), min_size=nvars, max_size=nvars))
    char = draw(st.sampled_from([32003, 7, 0]))
    ring = GradedRing(Field(char), [(f"v{i}", w) for i, w in enumerate(degs)])
    spec = st.lists(st.tuples(EXPONENTS.map(lambda e: tuple(e[:nvars])), COEFFS),
                    max_size=4)
    return ring, draw(spec), draw(spec)


def packed(ring, spec):
    acc = ring.zero()
    for e, c in spec:
        acc = acc + ring.monomial(e, c)
    return acc


@given(weighted_ring_and_polys())
@settings(max_examples=150, deadline=None)
def test_packed_agrees_with_tuple_reference(case):
    ring, s1, s2 = case
    p, q = packed(ring, s1), packed(ring, s2)
    a, b = ref.make(ring, s1), ref.make(ring, s2)
    assert ref.from_poly(p) == a
    assert ref.from_poly(p * q) == ref.mul(ring, a, b)
    assert ref.from_poly(p + q) == ref.add(ring, a, b)
    assert ref.from_poly(-p) == ref.neg(ring, a)
    parts = ref.homogeneous_parts(ring, a)
    assert {d: ref.from_poly(h) for d, h in p.homogeneous_parts().items()} == parts
    assert list(p.homogeneous_parts()) == sorted(parts)
    assert p.is_homogeneous() == (len(parts) <= 1)
    if len(parts) == 1:
        assert p.degree() == next(iter(parts))
    elif parts:
        with pytest.raises(RingError):
            p.degree()
    assert str(p) == ref.to_str(ring, a)
    assert ring.poly(str(p)) == p


@given(st.lists(st.integers(1, 3), min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_monomials_agree_with_tuple_reference(degs):
    ring = GradedRing(Field(), [(f"v{i}", w) for i, w in enumerate(degs)])
    for d in range(9):
        assert ring.monomials(d) == tuple(ref.monomials(ring, d))
        keys, idx = ring.monomial_basis(d)
        assert keys == tuple(map(ring.pack, ring.monomials(d)))
        assert idx == {k: i for i, k in enumerate(keys)}
