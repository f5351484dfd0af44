import copy
from fractions import Fraction

import numpy as np
import pytest
from dense import dense, sparse
from hypothesis import given, settings, strategies as st

from hmf import _kernels
from hmf.ring import MAX_PRIME

P = 32003


def augmented(A, B):
    """The solve_many input for A X = B: the SparseMatrix of [A | B] and
    the number of columns of A."""
    return sparse(np.concatenate([A, B], axis=1)), A.shape[1]


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
    r = _kernels.rank(sparse(A), P)
    N = _kernels.nullspace(sparse(A), P)
    assert r + N.shape[1] == n
    if m and n and N.shape[1]:
        assert not ((A @ dense(N, P)) % P).any()


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_solve_consistency(data):
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 5))
    A = random_matrix(data, m, n)
    X = random_matrix(data, n, 2)
    B = (A @ X) % P
    ok, Y = _kernels.solve_many(*augmented(A, B), P)
    assert all(ok)
    assert (((A @ dense(Y, P)) - B) % P == 0).all()


def test_inconsistent_column_flagged():
    A = np.array([[1, 0], [0, 0]], dtype=np.int64)
    B = np.array([[0, 1], [1, 0]], dtype=np.int64)
    ok, X = _kernels.solve_many(*augmented(A, B), P)
    assert not ok[0] and ok[1]
    assert (dense(X, P)[:, 0] == 0).all()


def exact_product(A, B, p):
    """A B mod p in Python ints, with no overflow at any prime."""
    m, n = A.shape[0], B.shape[1]
    if not A.shape[1]:
        return np.zeros((m, n), dtype=object)
    return (A.astype(object) @ B.astype(object)) % p


@pytest.mark.parametrize("p", [2, P, 2**26 - 5, MAX_PRIME])
@pytest.mark.parametrize("m,k,n", [(3, 0, 4), (1, 1, 1), (5, 7, 3), (9, 300, 6)])
def test_matmul_exact(p, m, k, n):
    # the elimination multiplies residues in Python ints: solve_many must
    # recover the exact product A B mod p as a consistent right-hand side,
    # up to the largest prime Field admits, and the all-(p - 1) inputs give
    # the largest products
    rng = np.random.default_rng(m * k + n)
    for A, B in [(rng.integers(0, p, (m, k)), rng.integers(0, p, (k, n))),
                 (np.full((m, k), p - 1), np.full((k, n), p - 1))]:
        AB = exact_product(A, B, p)
        ok, X = _kernels.solve_many(*augmented(A, AB), p)
        assert all(ok) and X.shape == (k, n)
        assert (exact_product(A, dense(X, p), p) == AB).all()


def reference_rref(A, p):
    """Scalar Gauss-Jordan elimination mod p, or over Q with Fractions when
    p is 0, one entry at a time: the reference the kernel is compared
    against."""
    red = (lambda x: x % p) if p else (lambda x: x)
    R = [[red(int(x)) if p else Fraction(x) for x in row] for row in A]
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
        inv = pow(R[r][c], p - 2, p) if p else 1 / R[r][c]
        R[r] = [red(x * inv) for x in R[r]]
        for i in range(m):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [red(x - f * y) for x, y in zip(R[i], R[r])]
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
    check_kernels(A, P)


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
            N[c][j] = -R[r][f] % p if p else -R[r][f]
    return N


def check_kernels(A, p, B=None):
    """rref, rank, nullspace and (given B) solve_many of A against the
    scalar reference; none of them may modify their input."""
    S, SAB = sparse(A), None if B is None else augmented(A, B)[0]
    S0, SAB0 = copy.deepcopy((S, SAB))
    R, piv = _kernels.rref(S, p)
    R_ref, piv_ref = reference_rref(A, p)
    assert R.shape == A.shape
    assert dense(R, p).tolist() == R_ref
    assert piv == piv_ref
    assert _kernels.rank(S, p) == len(piv_ref)
    N = _kernels.nullspace(S, p)
    assert dense(N, p).tolist() == reference_nullspace(A, p)
    results = [R, N]
    if B is not None:
        ok, X = _kernels.solve_many(SAB, A.shape[1], p)
        ok_ref, X_ref = reference_solve_many(A, B, p)
        assert ok == ok_ref
        assert dense(X, p).tolist() == X_ref
        results.append(X)
    assert (S, SAB) == (S0, SAB0)
    # no returned row is a row of the input: writing to them leaves it as it was
    for M in results:
        for row in M.rows.values():
            row.clear()
            row[-1] = 1
    assert (S, SAB) == (S0, SAB0)


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
    # consistent columns (images of A) and, where A has zero rows,
    # inconsistent ones
    X0 = random_matrix(data, n, 2)
    B = np.concatenate([(A @ X0) % P, random_matrix(data, m, 2)], axis=1)
    check_kernels(A, P, B)


@pytest.mark.parametrize("m,n", [(6, 6), (5, 9), (12, 7)])
def test_rref_exact_at_largest_prime(m, n):
    # dense random residues of the largest prime Field admits: every
    # product in the elimination is near (p - 1)**2
    rng = np.random.default_rng(m * n)
    A = rng.integers(0, MAX_PRIME, (m, n))
    A[-1] = (A[0] + A[1]) % MAX_PRIME  # rank deficient
    check_kernels(A, MAX_PRIME)


def residue_matrix(rng, m, n, density, p):
    """Random entries in [-3p, 3p), some of them nonzero multiples of p,
    so the kernel must reduce negative entries and entries >= p itself."""
    A = rng.integers(-3 * p, 3 * p, (m, n)) * (rng.random((m, n)) < density)
    A[rng.random((m, n)) < 0.05] = p * int(rng.integers(1, 3))
    return A


def image_and_noise(rng, A, p):
    """Right-hand sides for solve_many: two images of A, a random column and
    its sum with a third image.  When the random column is inconsistent the
    sum is too, without being a pivot column of [A | B], so the rows that
    pivot in A can be nonzero in it and its solution must still be zeroed."""
    m, n = A.shape
    X = rng.integers(0, p, (n, 3))
    noise = rng.integers(0, p, (m, 1))
    B = np.concatenate([A @ X[:, :2], noise, noise + A @ X[:, 2:]], axis=1)
    return B % p


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_kernels_wide(data):
    # few rows, many columns: most columns are free, and solve_many's
    # right-hand sides sit far to the right of the pivots
    p = data.draw(st.sampled_from((2, 3, P, MAX_PRIME)))
    m = data.draw(st.integers(1, 8))
    n = data.draw(st.integers(9, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    A = residue_matrix(rng, m, n, data.draw(st.sampled_from((0.1, 0.3, 1.0))), p)
    if m > 2:
        A[-1] = A[0] - 2 * A[1]  # rank deficient
    check_kernels(A, p, image_and_noise(rng, A, p))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_kernels_fill_heavy(data):
    # every row is nonzero at one shared leading column and dense after it,
    # so each reduction fills the whole tail in
    m = data.draw(st.integers(2, 12))
    n = data.draw(st.integers(2, 12))
    lead = data.draw(st.integers(0, n - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    A = np.zeros((m, n), dtype=np.int64)
    A[:, lead] = rng.integers(1, P, m)
    A[:, lead + 1:] = rng.integers(0, P, (m, n - lead - 1))
    if m > 2 and data.draw(st.booleans()):
        A[-1] = (3 * A[0] + A[1]) % P  # rank deficient
    check_kernels(A, P, image_and_noise(rng, A, P))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_kernels_sparsest_row_is_not_the_first_pivot(data):
    # the reference takes row 0 as its first pivot row (it is the first row
    # nonzero in column 0); every other row is sparser, so the kernel, which
    # visits rows sparsest first, pivots on different rows
    m = data.draw(st.integers(2, 10))
    n = data.draw(st.integers(3, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    A = np.zeros((m, n), dtype=np.int64)
    A[0] = rng.integers(1, P, n)
    for i in range(1, m):
        cols = rng.choice(n, size=int(rng.integers(1, 3)), replace=False)
        A[i, cols] = rng.integers(1, P, cols.size)
    nnz = (A != 0).sum(axis=1)
    assert int(np.argmin(nnz)) != 0 and nnz[0] > nnz[1:].max()
    check_kernels(A, P, image_and_noise(rng, A, P))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_kernels_singleton_heavy(data):
    # one-entry rows, duplicates of them, denser rows through their columns
    # and multiples of p at leading columns: a one-entry pivot row clears its
    # column by deletion, and a leading entry that is 0 mod p is dropped
    p = data.draw(st.sampled_from((2, 3, P, MAX_PRIME)))
    m = data.draw(st.integers(1, 12))
    n = data.draw(st.integers(1, 10))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    A = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        kind = data.draw(st.sampled_from(("one", "one", "copy", "through", "p-lead")))
        if kind == "one":
            A[i, rng.integers(n)] = rng.integers(1, p) * rng.choice((-1, 1))
        elif kind == "copy":
            A[i] = A[rng.integers(i + 1)]  # row i itself is still zero
        elif kind == "through":
            A[i] = rng.integers(-p, p, n) * (rng.random(n) < 0.6)
        else:
            lead = int(rng.integers(n))
            A[i, lead] = p * rng.integers(1, 3)
            A[i, lead + 1:] = rng.integers(0, p, n - lead - 1) * (
                rng.random(n - lead - 1) < 0.5)
    check_kernels(A, p, image_and_noise(rng, A, p))


def test_rank_over_q_plain_ints():
    # at characteristic 0 rank reads plain ints as given: no Fraction is made
    # of a pivot that no row is reduced by, and the input keeps its ints
    rng = np.random.default_rng(7)
    for m, n in [(1, 1), (4, 3), (6, 6), (5, 9), (9, 4)]:
        A = rng.integers(-5, 6, (m, n)) * (rng.random((m, n)) < 0.6)
        if m > 2:
            A[-1] = 2 * A[0] - 3 * A[1]  # rank deficient
        S = sparse(A)
        S0 = copy.deepcopy(S)
        assert _kernels.rank(S, 0) == len(reference_rref(A, 0)[1])
        assert S == S0
        assert all(type(x) is int for row in S.rows.values() for x in row.values())


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_kernels_over_q(data):
    m = data.draw(st.integers(0, 6))
    n = data.draw(st.integers(0, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    A = random_fractions(rng, m, n, data.draw(st.sampled_from((0.2, 0.5, 1.0))))
    if m > 2:
        A[-1] = A[0] - Fraction(1, 2) * A[1]  # rank deficient
    X = random_fractions(rng, n, 3, 0.7)
    noise = random_fractions(rng, m, 1, 0.7)
    B = np.concatenate([A @ X[:, :2], noise, noise + A @ X[:, 2:]], axis=1)
    if not n:
        B[:, [0, 1]] = Fraction(0)
        B[:, 3] = B[:, 2]
    check_kernels(A, 0, B)
    R, _ = _kernels.rref(sparse(A), 0)
    _, X = _kernels.solve_many(*augmented(A, B), 0)
    N = _kernels.nullspace(sparse(A), 0)
    assert all(type(x) is Fraction
               for M in (R, X, N) for row in M.rows.values() for x in row.values())


def random_fractions(rng, m, n, density):
    A = np.full((m, n), Fraction(0), dtype=object)
    for i, j in zip(*np.nonzero(rng.random((m, n)) < density)):
        A[i, j] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
    return A


def test_fraction_backend():
    A = np.array(
        [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], dtype=object
    )
    assert _kernels.rank(sparse(A), 0) == 1
    N = dense(_kernels.nullspace(sparse(A), 0), 0)
    assert N.shape == (2, 1)
    assert A[0, 0] * N[0, 0] + A[0, 1] * N[1, 0] == 0
