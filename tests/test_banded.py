"""Banded LU, Hockney reordering, dense bordering solves, condition estimates."""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillquad.banded import (
    SingularMatrixError,
    banded_condest,
    banded_lu_factor,
    banded_solve,
    dense_condest,
    dense_solve,
    hockney_permutation,
    reorder_block_banded,
)
from oscillquad.chebyshev import BandedMatrix

from conftest import fit_loglog_slope


def random_banded(n, kl, ku, rng, diag_boost=0.0, dtype=complex):
    """Random banded matrix; diag_boost > 0 keeps the condition number modest."""
    dense = np.zeros((n, n), dtype=dtype)
    for off in range(-ku, kl + 1):
        idx = np.arange(max(0, -off), min(n, n - off))
        vals = rng.normal(size=idx.size)
        if dtype is complex:
            vals = vals + 1j * rng.normal(size=idx.size)
        dense[idx + off, idx] = vals
    dense[np.arange(n), np.arange(n)] += diag_boost
    return dense


# ---------------------------------------------------------------------------
# Factorization and solve
# ---------------------------------------------------------------------------

def test_identity_factors_trivially():
    lu = banded_lu_factor(BandedMatrix.identity(6))
    assert np.allclose(np.asarray(lu.pivots), np.arange(6))
    x = banded_solve(lu, np.arange(6.0))
    assert np.allclose(x, np.arange(6.0))


def test_tridiagonal_laplacian_matches_dense():
    n = 10
    dense = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    a = BandedMatrix.from_dense(dense.astype(complex), 1, 1)
    b = np.ones(n)
    x = banded_solve(banded_lu_factor(a), b)
    assert np.max(np.abs(x - np.linalg.solve(dense, b))) <= 1e-13 * np.max(np.abs(x))


def test_reconstruction_product_form():
    # P0 L0 P1 L1 ... U rebuilt from the stored factors must reproduce A
    rng = np.random.default_rng(7)
    n, kl, ku = 200, 3, 4
    dense = random_banded(n, kl, ku, rng)
    lu = banded_lu_factor(BandedMatrix.from_dense(dense, kl, ku))
    fac = lu.factors
    piv = np.asarray(lu.pivots)
    x = np.triu(fac.to_dense())
    for k in range(n - 2, -1, -1):
        hi = min(n, k + kl + 1)
        mults = np.array([fac.get(i, k) for i in range(k + 1, hi)])
        x[k + 1 : hi, :] += np.outer(mults, x[k, :])
        if piv[k] != k:
            x[[k, piv[k]], :] = x[[piv[k], k], :]
    assert np.max(np.abs(x - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_adjoint_solve():
    rng = np.random.default_rng(9)
    dense = random_banded(30, 2, 2, rng, diag_boost=4.0)
    lu = banded_lu_factor(BandedMatrix.from_dense(dense, 2, 2))
    b = rng.normal(size=30) + 1j * rng.normal(size=30)
    x = banded_solve(lu, b, adjoint=True)
    assert np.max(np.abs(dense.conj().T @ x - b)) <= 1e-11 * np.max(np.abs(b))


def test_multiple_right_hand_sides():
    rng = np.random.default_rng(10)
    dense = random_banded(25, 2, 3, rng, diag_boost=5.0)
    lu = banded_lu_factor(BandedMatrix.from_dense(dense, 2, 3))
    b = rng.normal(size=(25, 4))
    x = banded_solve(lu, b)
    assert np.max(np.abs(dense @ x - b)) <= 1e-11


def test_singular_banded_matrix_raises_with_pivot_index():
    a = BandedMatrix.identity(5)
    a.data[0, 3] = 0.0
    with pytest.raises(SingularMatrixError) as err:
        banded_lu_factor(a)
    assert err.value.pivot_index == 3


def test_near_singular_screen():
    a = BandedMatrix.identity(5)
    a.data[0, 2] = 1e-16
    with pytest.raises(SingularMatrixError):
        banded_lu_factor(a)


@pytest.mark.parametrize("n,bw", [(50, 3), (500, 7), (5000, 11)])
def test_factor_solve_residual(n, bw):
    rng = np.random.default_rng(n)
    kl = ku = bw // 2
    dense = random_banded(n, kl, ku, rng, diag_boost=2.0 * bw)
    a = BandedMatrix.from_dense(dense, kl, ku)
    lu = banded_lu_factor(a)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    x = banded_solve(lu, b)
    assert np.max(np.abs(dense @ x - b)) / np.max(np.abs(b)) <= 1e-10


def test_solve_residual_within_condition_bound():
    rng = np.random.default_rng(33)
    dense = random_banded(300, 3, 3, rng, diag_boost=1.0)
    a = BandedMatrix.from_dense(dense, 3, 3)
    kappa = banded_condest(a)
    lu = banded_lu_factor(a)
    b = rng.normal(size=300)
    x = banded_solve(lu, b)
    assert np.max(np.abs(dense @ x - b)) <= kappa * 1e-13 * np.max(np.abs(b))


@st.composite
def real_banded_system(draw):
    """A well-conditioned real banded matrix and a right-hand side for it."""
    n = draw(st.integers(1, 40))
    kl = draw(st.integers(0, 5))
    ku = draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = random_banded(n, kl, ku, rng, diag_boost=2.0 * (kl + ku + 1), dtype=float)
    shape = (n,) if draw(st.booleans()) else (n, draw(st.integers(1, 4)))
    b = rng.normal(size=shape)
    if draw(st.booleans()):
        b = b + 1j * rng.normal(size=shape)
    return BandedMatrix.from_dense(dense, kl, ku), b, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(real_banded_system())
def test_real_factors_solve_like_the_complex_cast(case):
    # real factors (dgbtrf) solve real, complex, 1-D and multi-column
    # right-hand sides, also adjoint, as the complex128 matrix does
    a, b, adjoint = case
    lu = banded_lu_factor(a)
    assert lu.factors.data.dtype == np.float64
    as_complex = BandedMatrix(a.n, a.lower_bw, a.upper_bw, data=a.data, dtype=np.complex128)
    want = banded_solve(banded_lu_factor(as_complex), b, adjoint=adjoint)
    got = banded_solve(lu, b, adjoint=adjoint)
    assert got.shape == b.shape
    assert got.dtype == (np.complex128 if np.iscomplexobj(b) else np.float64)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_factor_cost_scaling():
    # O(n bw^2) factorization: log-log slope over n = 2^10..2^16 stays <= 1.2
    rng = np.random.default_rng(1)
    sizes = [2**k for k in range(10, 17)]
    times = []
    for n in sizes:
        dense = None
        a = BandedMatrix(n, 3, 3)
        a.data[:] = rng.normal(size=a.data.shape)
        a.data[3, :] += 10.0
        best = min(
            _timed(lambda: banded_lu_factor(a)) for _ in range(5)
        )
        times.append(best)
    slope = fit_loglog_slope(sizes, times)
    assert slope <= 1.2, (sizes, times, slope)


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Hockney permutation and block reordering
# ---------------------------------------------------------------------------

def test_hockney_identity_for_single_component():
    p = hockney_permutation(1, 7)
    assert np.array_equal(p.perm, np.arange(7))


def test_hockney_bijection():
    p = hockney_permutation(3, 4)
    assert sorted(p.perm.tolist()) == list(range(12))
    assert np.array_equal(p.perm[p.inverse], np.arange(12))


def test_hockney_matches_index_formula():
    # 1-based: n = M l + k maps to (k - 1) nu + l + 1
    m, nu = 3, 5
    p = hockney_permutation(m, nu)
    for n1 in range(1, m * nu + 1):
        l = (n1 - 1) // m
        k = n1 - m * l
        assert p.perm[n1 - 1] + 1 == (k - 1) * nu + l + 1


def test_reorder_single_block_unchanged():
    rng = np.random.default_rng(2)
    dense = random_banded(6, 1, 1, rng)
    blk = BandedMatrix.from_dense(dense, 1, 1)
    out = reorder_block_banded([[blk]], hockney_permutation(1, 6))
    assert np.allclose(out.to_dense(), dense)


def test_reorder_keeps_the_blocks_dtype():
    real = BandedMatrix.identity(4, dtype=np.float64)
    cplx = BandedMatrix.identity(4)
    perm = hockney_permutation(2, 4)
    assert reorder_block_banded([[real, real], [real, real]], perm).data.dtype == np.float64
    assert reorder_block_banded([[real, cplx], [real, real]], perm).data.dtype == np.complex128


def test_reorder_diagonal_blocks_interleave_tridiagonal():
    # the 2x2 grid of diagonal 3x3 blocks becomes block-diagonal with 2x2 cells
    m, nub = 2, 3
    blocks = [[BandedMatrix(nub, 0, 0) for _ in range(m)] for _ in range(m)]
    for a in range(m):
        for b in range(m):
            for l in range(nub):
                blocks[a][b].set(l, l, 10 * (a + 1) + (b + 1) + l / 10)
    d = reorder_block_banded(blocks, hockney_permutation(m, nub)).to_dense().real
    expected = np.zeros((6, 6))
    for l in range(nub):
        for a in range(m):
            for b in range(m):
                expected[2 * l + a, 2 * l + b] = 10 * (a + 1) + (b + 1) + l / 10
    assert np.allclose(d, expected)
    # tridiagonal: nothing beyond the first sub/superdiagonal
    assert np.allclose(np.triu(d, 2), 0.0) and np.allclose(np.tril(d, -2), 0.0)


def test_reorder_matches_dense_permutation_and_bandwidth():
    rng = np.random.default_rng(5)
    m, nub, d_param = 3, 16, 2
    hw = d_param + 2
    blocks = [[BandedMatrix.from_dense(random_banded(nub, hw, hw, rng), hw, hw)
               for _ in range(m)] for _ in range(m)]
    perm = hockney_permutation(m, nub)
    out = reorder_block_banded(blocks, perm)
    big = np.zeros((m * nub, m * nub), dtype=complex)
    for a in range(m):
        for b in range(m):
            big[a * nub : (a + 1) * nub, b * nub : (b + 1) * nub] = blocks[a][b].to_dense()
    expected = big[np.ix_(perm.perm, perm.perm)]
    assert np.allclose(out.to_dense(), expected)
    bound = 2 * m * (d_param + 4) - 1
    half = (bound - 1) // 2
    for i in range(m * nub):
        for j in range(m * nub):
            if abs(i - j) > half:
                assert expected[i, j] == 0.0


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("d_param", [0, 2, 4])
def test_hockney_bandwidth_bound_structural(m, d_param):
    nub = 8
    hw = d_param + 2
    rng = np.random.default_rng(m * 10 + d_param)
    blocks = [[BandedMatrix.from_dense(random_banded(nub, hw, hw, rng), hw, hw)
               for _ in range(m)] for _ in range(m)]
    out = reorder_block_banded(blocks, hockney_permutation(m, nub))
    assert out.lower_bw + out.upper_bw + 1 <= 2 * m * (d_param + 4) - 1


def test_reorder_rejects_inconsistent_blocks():
    blocks = [[BandedMatrix.identity(4), BandedMatrix.identity(4)],
              [BandedMatrix.identity(4), BandedMatrix.identity(5)]]
    with pytest.raises(ValueError):
        reorder_block_banded(blocks, hockney_permutation(2, 4))


# ---------------------------------------------------------------------------
# Dense bordering solves
# ---------------------------------------------------------------------------

def test_dense_solve_scalar():
    assert dense_solve(np.array([[5.0]]), np.array([10.0]))[0] == pytest.approx(2.0)


def test_dense_solve_hilbert_like_against_adjugate():
    a = np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
    b = np.array([1.0, 2.0])
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    expected = np.array([a[1, 1] * b[0] - a[0, 1] * b[1],
                         -a[1, 0] * b[0] + a[0, 0] * b[1]]) / det
    assert np.allclose(dense_solve(a, b), expected, rtol=1e-12)


def test_dense_solve_permuted_identity():
    p = np.eye(4)[[2, 0, 3, 1]]
    b = np.arange(4.0)
    x = dense_solve(p, b)
    assert np.allclose(p @ x, b)


def test_dense_solve_rejects_singular():
    with pytest.raises(SingularMatrixError):
        dense_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))


def test_dense_solve_accepts_badly_column_scaled():
    # columns differing by 12 orders of magnitude are fine; only genuine
    # rank deficiency must raise
    a = np.array([[1.0, 1e-12], [-1.0, 1e-12]])
    x = dense_solve(a, np.array([1.0, 1.0]))
    assert np.allclose(a @ x, [1.0, 1.0], rtol=1e-10)


@pytest.mark.parametrize("k", [1, 3, 4, 6])
def test_dense_solve_matrix_rhs_matches_column_solves(k):
    # a badly column-scaled 4 x 4 matrix; k = 4 is the square right-hand
    # side, where dividing by the scales along the wrong axis still
    # broadcasts and silently returns a wrong answer
    rng = np.random.default_rng(k)
    n = 4
    a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) \
        * np.logspace(-9, 6, n)
    b = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    x = dense_solve(a, b)
    assert x.shape == (n, k)
    for c in range(k):
        assert np.allclose(x[:, c], dense_solve(a, b[:, c]), rtol=1e-12, atol=0)
    assert np.max(np.abs(a @ x - b)) <= 1e-12 * np.max(np.abs(b))


# ---------------------------------------------------------------------------
# Condition estimation
# ---------------------------------------------------------------------------

def test_condest_identity_is_one():
    assert banded_condest(BandedMatrix.identity(5)) == pytest.approx(1.0)
    assert dense_condest(np.eye(7)) == pytest.approx(1.0)


def test_condest_tracks_exact_one_norm_condition():
    rng = np.random.default_rng(12)
    a = random_banded(40, 2, 2, rng, diag_boost=1.5)
    exact = np.linalg.cond(a, 1).real
    est = dense_condest(a)
    assert est <= exact * (1 + 1e-10)
    assert est >= 0.3 * exact
