import pytest
from hypothesis import given, settings, strategies as st

from hmf.ring import Field, GradedRing, Poly, RingError, ScalarMatrix


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


def test_scalar_matrix_rank_nullity_and_solve():
    fld = Field()
    M = ScalarMatrix(fld, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert M.rank() + M.nullspace().cols == M.cols
    b = [fld.canon(4), fld.canon(8), fld.canon(1)]
    x = M.solve(b)
    assert x is not None
    assert M.mul_vec(x) == b
    assert M.solve([fld.canon(1), fld.canon(0), fld.canon(0)]) is None


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


def test_char_zero_poly():
    ring = GradedRing.make(Field(0), [("x", 1), ("y", 1)], ["x*y"])
    p = ring.poly("1/2*x + y")
    assert (p + p) == ring.poly("x + 2*y")
