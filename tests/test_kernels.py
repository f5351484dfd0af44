from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hmf import _kernels
from hmf.ring import MAX_PRIME

P = 32003


def random_matrix(data, m, n):
    A = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        for j in range(n):
            A[i, j] = data.draw(st.integers(0, P - 1))
    return A


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_rank_plus_nullity(data):
    m = data.draw(st.integers(0, 5))
    n = data.draw(st.integers(0, 5))
    A = random_matrix(data, m, n)
    r = _kernels.rank(A, P)
    N = _kernels.nullspace(A, P)
    assert r + N.shape[1] == n
    if m and n and N.shape[1]:
        assert not ((A @ N) % P).any()


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_solve_consistency(data):
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 5))
    A = random_matrix(data, m, n)
    X = random_matrix(data, n, 2)
    B = (A @ X) % P
    ok, Y = _kernels.solve_many(A, B, P)
    assert ok.all()
    assert (((A @ Y) - B) % P == 0).all()


def test_inconsistent_column_flagged():
    A = np.array([[1, 0], [0, 0]], dtype=np.int64)
    B = np.array([[0, 1], [1, 0]], dtype=np.int64)
    ok, X = _kernels.solve_many(A, B, P)
    assert not ok[0] and ok[1]
    assert (X[:, 0] == 0).all()


@pytest.mark.parametrize("p", [2, P, 2**26 - 5, MAX_PRIME])
@pytest.mark.parametrize("m,k,n", [(3, 0, 4), (1, 1, 1), (5, 7, 3), (9, 300, 6)])
def test_matmul_exact(p, m, k, n):
    # 2**26 - 5 allows two terms per float64 chunk and MAX_PRIME, the
    # largest characteristic Field accepts, one; so the chunked reduction
    # runs, and the all-(p - 1) inputs give the largest partial sums
    rng = np.random.default_rng(m * k + n)
    for A, B in [(rng.integers(0, p, (m, k)), rng.integers(0, p, (k, n))),
                 (np.full((m, k), p - 1), np.full((k, n), p - 1))]:
        ref = (A.astype(object) @ B.astype(object)) % p if k else np.zeros((m, n))
        C = _kernels.matmul(A, B, p)
        assert C.dtype == np.int64 and C.shape == (m, n)
        assert (C == ref).all()


def reference_rref(A, p):
    """Scalar Gauss-Jordan elimination mod p, one entry at a time: the
    reference the numpy kernel is compared against."""
    R = [[int(x) % p for x in row] for row in A]
    m = len(R)
    n = len(R[0]) if m else 0
    piv_cols = []
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if R[i][c]), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = pow(R[r][c], p - 2, p)
        R[r] = [(x * inv) % p for x in R[r]]
        for i in range(m):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [(x - f * y) % p for x, y in zip(R[i], R[r])]
        piv_cols.append(c)
        r += 1
    return R, piv_cols


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_rref_matches_reference(data):
    m = data.draw(st.integers(0, 8))
    n = data.draw(st.integers(0, 8))
    A = random_matrix(data, m, n)
    # rank-deficient inputs: overwrite rows with copies of others or zeros
    for i in range(m):
        kind = data.draw(st.sampled_from(("keep", "keep", "zero", "copy")))
        if kind == "zero":
            A[i] = 0
        elif kind == "copy":
            A[i] = A[data.draw(st.integers(0, m - 1))]
    R, piv = _kernels.rref(A, P)
    R_ref, piv_ref = reference_rref(A, P)
    assert R.shape == (m, n)
    assert R.tolist() == R_ref
    assert piv.tolist() == piv_ref


def reference_solve_many(A, B, p):
    """First-pivot solutions of A X = B read off the scalar reference RREF
    of [A | B]: a column is consistent when no pivot lies in B."""
    n, k = A.shape[1], B.shape[1]
    R, piv = reference_rref(np.concatenate([A, B], axis=1), p)
    ok = [all(R[r][n + j] == 0 for r, c in enumerate(piv) if c >= n)
          for j in range(k)]
    X = [[0] * k for _ in range(n)]
    for r, c in enumerate(piv):
        if c < n:
            X[c] = [R[r][n + j] if ok[j] else 0 for j in range(k)]
    return ok, X


def reference_nullspace(A, p):
    """One basis vector per free column of the reference RREF."""
    n = A.shape[1]
    R, piv = reference_rref(A, p)
    free = [c for c in range(n) if c not in piv]
    N = [[0] * len(free) for _ in range(n)]
    for j, f in enumerate(free):
        N[f][j] = 1
        for r, c in enumerate(piv):
            N[c][j] = -R[r][f] % p
    return N


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_rref_tall_mostly_zero(data):
    # the shape of the builders' degreewise systems: at least 3/4 of the
    # rows are zero and the last row is not, so zero rows sit above
    # nonzero ones
    m = data.draw(st.integers(4, 40))
    n = data.draw(st.integers(1, 8))
    rows = data.draw(st.lists(st.integers(0, m - 2), unique=True,
                              max_size=m // 4 - 1)) + [m - 1]
    A = np.zeros((m, n), dtype=np.int64)
    A[rows] = random_matrix(data, len(rows), n)
    if len(rows) > 1 and data.draw(st.booleans()):
        A[rows[0]] = A[rows[-1]]
    R, piv = _kernels.rref(A, P)
    R_ref, piv_ref = reference_rref(A, P)
    assert R.tolist() == R_ref
    assert piv.tolist() == piv_ref
    # consistent columns (images of A) and, where A has zero rows,
    # inconsistent ones
    X0 = random_matrix(data, n, 2)
    B = np.concatenate([(A @ X0) % P, random_matrix(data, m, 2)], axis=1)
    ok, X = _kernels.solve_many(A, B, P)
    ok_ref, X_ref = reference_solve_many(A, B, P)
    assert ok.tolist() == ok_ref
    assert X.tolist() == X_ref
    assert _kernels.nullspace(A, P).tolist() == reference_nullspace(A, P)


@pytest.mark.parametrize("m,n", [(6, 6), (5, 9), (12, 7)])
def test_rref_exact_at_largest_prime(m, n):
    # dense random residues: every product in the elimination is near the
    # int64-safe bound (p - 1)**2
    rng = np.random.default_rng(m * n)
    A = rng.integers(0, MAX_PRIME, (m, n))
    A[-1] = (A[0] + A[1]) % MAX_PRIME  # rank deficient
    R, piv = _kernels.rref(A, MAX_PRIME)
    R_ref, piv_ref = reference_rref(A, MAX_PRIME)
    assert R.tolist() == R_ref
    assert piv.tolist() == piv_ref


def random_fractions(rng, m, n, density):
    A = _kernels.frac_zeros(m, n)
    for i, j in zip(*np.nonzero(rng.random((m, n)) < density)):
        A[i, j] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
    return A


@pytest.mark.parametrize("m,k,n", [(0, 0, 0), (3, 0, 4), (0, 5, 2), (4, 6, 0),
                                   (1, 1, 1), (7, 5, 9), (30, 40, 25)])
@pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 1.0])
def test_matmul_frac_matches_dense(m, k, n, density):
    rng = np.random.default_rng(m * k * n + int(10 * density))
    A = random_fractions(rng, m, k, density)
    B = random_fractions(rng, k, n, density)
    C = _kernels.matmul_frac(A, B)
    assert C.shape == (m, n)
    assert all(type(x) is Fraction for x in C.flat)
    assert C.tolist() == (A @ B).tolist()


def test_fraction_backend():
    A = np.array(
        [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], dtype=object
    )
    assert _kernels.rank_frac(A) == 1
    N = _kernels.nullspace_frac(A)
    assert N.shape == (2, 1)
    assert A[0, 0] * N[0, 0] + A[0, 1] * N[1, 0] == 0
