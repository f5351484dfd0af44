import pytest
from hypothesis import given, settings, strategies as st

from hmf.graded import SolveError, graded_piece_solve, ideal_membership
from hmf.ring import Field, GradedRing


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
