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
    interleaved_halfwidths,
    narrowest_equation_order,
    reorder_block_banded,
)
from oscillquad.chebyshev import BandedMatrix

from conftest import band_from_dense, band_to_dense, fit_loglog_slope


def identity(n, dtype=complex):
    return band_from_dense(np.eye(n, dtype=dtype), 0, 0)


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
    lu = banded_lu_factor(identity(6))
    assert np.allclose(np.asarray(lu.pivots), np.arange(6))
    x = banded_solve(lu, np.arange(6.0))
    assert np.allclose(x, np.arange(6.0))


def test_tridiagonal_laplacian_matches_dense():
    n = 10
    dense = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    a = band_from_dense(dense.astype(complex), 1, 1)
    b = np.ones(n)
    x = banded_solve(banded_lu_factor(a), b)
    assert np.max(np.abs(x - np.linalg.solve(dense, b))) <= 1e-13 * np.max(np.abs(x))


def test_reconstruction_product_form():
    # P0 L0 P1 L1 ... U rebuilt from the stored factors must reproduce A
    rng = np.random.default_rng(7)
    n, kl, ku = 200, 3, 4
    dense = random_banded(n, kl, ku, rng)
    lu = banded_lu_factor(band_from_dense(dense, kl, ku))
    fac = lu.factors
    piv = np.asarray(lu.pivots)
    fac_dense = band_to_dense(fac)
    x = np.triu(fac_dense)
    for k in range(n - 2, -1, -1):
        hi = min(n, k + kl + 1)
        mults = fac_dense[k + 1 : hi, k]
        x[k + 1 : hi, :] += np.outer(mults, x[k, :])
        if piv[k] != k:
            x[[k, piv[k]], :] = x[[piv[k], k], :]
    assert np.max(np.abs(x - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_adjoint_solve():
    rng = np.random.default_rng(9)
    dense = random_banded(30, 2, 2, rng, diag_boost=4.0)
    lu = banded_lu_factor(band_from_dense(dense, 2, 2))
    b = rng.normal(size=30) + 1j * rng.normal(size=30)
    x = banded_solve(lu, b, adjoint=True)
    assert np.max(np.abs(dense.conj().T @ x - b)) <= 1e-11 * np.max(np.abs(b))


def test_multiple_right_hand_sides():
    rng = np.random.default_rng(10)
    dense = random_banded(25, 2, 3, rng, diag_boost=5.0)
    lu = banded_lu_factor(band_from_dense(dense, 2, 3))
    b = rng.normal(size=(25, 4))
    x = banded_solve(lu, b)
    assert np.max(np.abs(dense @ x - b)) <= 1e-11


def test_singular_banded_matrix_raises_with_pivot_index():
    a = identity(5)
    a.data[0, 3] = 0.0
    with pytest.raises(SingularMatrixError) as err:
        banded_lu_factor(a)
    assert err.value.pivot_index == 3


def test_near_singular_screen():
    a = identity(5)
    a.data[0, 2] = 1e-16
    with pytest.raises(SingularMatrixError):
        banded_lu_factor(a)


@pytest.mark.parametrize("n,bw", [(50, 3), (500, 7), (5000, 11)])
def test_factor_solve_residual(n, bw):
    rng = np.random.default_rng(n)
    kl = ku = bw // 2
    dense = random_banded(n, kl, ku, rng, diag_boost=2.0 * bw)
    a = band_from_dense(dense, kl, ku)
    lu = banded_lu_factor(a)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    x = banded_solve(lu, b)
    assert np.max(np.abs(dense @ x - b)) / np.max(np.abs(b)) <= 1e-10


def test_solve_residual_within_condition_bound():
    rng = np.random.default_rng(33)
    dense = random_banded(300, 3, 3, rng, diag_boost=1.0)
    a = band_from_dense(dense, 3, 3)
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
    return band_from_dense(dense, kl, ku), b, draw(st.booleans())


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
# Block reordering (Hockney order)
# ---------------------------------------------------------------------------

def test_reorder_single_block_unchanged():
    rng = np.random.default_rng(2)
    dense = random_banded(6, 1, 1, rng)
    blk = band_from_dense(dense, 1, 1)
    out = reorder_block_banded([[blk]])
    assert np.allclose(band_to_dense(out), dense)


def test_reorder_keeps_the_blocks_dtype():
    real = identity(4, dtype=np.float64)
    cplx = identity(4)
    assert reorder_block_banded([[real, real], [real, real]]).data.dtype == np.float64
    assert reorder_block_banded([[real, cplx], [real, real]]).data.dtype == np.complex128


def test_reorder_diagonal_blocks_interleave_tridiagonal():
    # the 2x2 grid of diagonal 3x3 blocks becomes block-diagonal with 2x2 cells
    m, nub = 2, 3
    blocks = [[band_from_dense(np.diag(10 * (a + 1) + (b + 1) + np.arange(nub) / 10), 0, 0)
               for b in range(m)] for a in range(m)]
    d = band_to_dense(reorder_block_banded(blocks))
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
    blocks = [[band_from_dense(random_banded(nub, hw, hw, rng), hw, hw)
               for _ in range(m)] for _ in range(m)]
    out = reorder_block_banded(blocks)
    # Hockney order: index M l + k of the result is index k nub + l of big
    idx = np.arange(m * nub)
    perm = (idx % m) * nub + idx // m
    big = np.zeros((m * nub, m * nub), dtype=complex)
    for a in range(m):
        for b in range(m):
            big[a * nub : (a + 1) * nub, b * nub : (b + 1) * nub] = band_to_dense(blocks[a][b])
    expected = big[np.ix_(perm, perm)]
    assert np.allclose(band_to_dense(out), expected)
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
    blocks = [[band_from_dense(random_banded(nub, hw, hw, rng), hw, hw)
               for _ in range(m)] for _ in range(m)]
    out = reorder_block_banded(blocks)
    assert out.lower_bw + out.upper_bw + 1 <= 2 * m * (d_param + 4) - 1


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("bands", ["bessel", "asymmetric"])
def test_reorder_of_unequal_block_bandwidths_is_the_exact_permutation(m, bands):
    # "bessel": the folded blocks of the Bessel system, (lower, upper) = (3, 3)
    # on the diagonal and (4, 4) off it; "asymmetric": lower != upper, and
    # different in every block.  The band is a pure copy: the permuted dense
    # matrix, bit for bit, with zeros in the slots for rows outside it.
    rng = np.random.default_rng(40 + m)
    nub = 11

    def widths(a, b):
        if bands == "bessel":
            return (3, 3) if a == b else (4, 4)
        return (a + 2 * b) % 4, (2 * a + b + 1) % 5

    blocks = [[band_from_dense(random_banded(nub, *widths(a, b), rng, dtype=float),
                               *widths(a, b)) for b in range(m)] for a in range(m)]
    out = reorder_block_banded(blocks)
    idx = np.arange(m * nub)
    perm = (idx % m) * nub + idx // m
    big = np.block([[band_to_dense(blk) for blk in row] for row in blocks])
    assert np.array_equal(band_to_dense(out), big[np.ix_(perm, perm)])
    assert np.array_equal(out.data, band_from_dense(band_to_dense(out), out.lower_bw,
                                                    out.upper_bw).data)
    # the exact half-widths, not the Hockney bound: block (a, b) spans
    # diagonals -M lower + b - a to M upper + b - a, and the band's outermost
    # diagonals hold entries
    kl = max(m * widths(a, b)[0] + a - b for a in range(m) for b in range(m))
    ku = max(m * widths(a, b)[1] + b - a for a in range(m) for b in range(m))
    assert (out.lower_bw, out.upper_bw) == (kl, ku)
    assert out.data[0].any() and out.data[-1].any()


@pytest.mark.parametrize("order", [(1, 0), (2, 0, 1), (1, 2, 0)])
def test_reorder_in_an_equation_order_permutes_the_rows_only(order):
    # given the block rows in an equation order, row M l + a holds equation
    # order[a]; columns stay in Hockney order, and the band has the
    # half-widths interleaved_halfwidths gives the blocks, with no entry
    # outside them
    m, nub = len(order), 9
    rng = np.random.default_rng(60 + m)
    widths = [[(a + 2 * b) % 4 for b in range(m)] for a in range(m)]
    blocks = [[band_from_dense(random_banded(nub, widths[a][b], widths[a][b], rng, dtype=float),
                               widths[a][b], widths[a][b]) for b in range(m)] for a in range(m)]
    out = reorder_block_banded([blocks[i] for i in order])
    idx = np.arange(m * nub)
    cols = (idx % m) * nub + idx // m
    rows = np.array(order)[idx % m] * nub + idx // m
    big = np.block([[band_to_dense(blk) for blk in row] for row in blocks])
    dense = band_to_dense(out)
    assert np.array_equal(dense, big[np.ix_(rows, cols)])
    kl, ku = interleaved_halfwidths(widths, order)
    assert not np.tril(dense, -kl - 1).any() and not np.triu(dense, ku + 1).any()
    assert (kl, ku) == (out.lower_bw, out.upper_bw)


def test_narrowest_equation_order_from_the_block_half_widths():
    bessel = ((3, 4), (4, 3))
    assert interleaved_halfwidths(bessel, (0, 1)) == (9, 9)
    assert interleaved_halfwidths(bessel, (1, 0)) == (8, 8)
    assert narrowest_equation_order(bessel) == (1, 0)
    assert narrowest_equation_order(((3,),)) == (0,)
    assert narrowest_equation_order(((3, 0, 0), (0, 3, 0), (0, 0, 3))) == (0, 1, 2)
    # equation 0 is widest against unknown 2, equation 2 against unknown 0
    cyclic = ((1, 1, 4), (1, 4, 1), (4, 1, 1))
    assert narrowest_equation_order(cyclic) == (2, 1, 0)
    assert interleaved_halfwidths(cyclic, (2, 1, 0)) == (12, 12)
    assert interleaved_halfwidths(cyclic, (0, 1, 2)) == (14, 14)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.lists(
    st.lists(st.integers(0, 5), min_size=m, max_size=m), min_size=m, max_size=m)))
def test_the_chosen_equation_order_is_never_wider_than_the_identity(widths):
    m = len(widths)
    order = narrowest_equation_order(tuple(map(tuple, widths)))
    assert sorted(order) == list(range(m))
    assert sum(interleaved_halfwidths(widths, order)) <= sum(
        interleaved_halfwidths(widths, tuple(range(m))))


def test_reorder_rejects_inconsistent_blocks():
    blocks = [[identity(4), identity(4)],
              [identity(4), identity(5)]]
    with pytest.raises(ValueError):
        reorder_block_banded(blocks)


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
    assert banded_condest(identity(5)) == pytest.approx(1.0)
    assert dense_condest(np.eye(7)) == pytest.approx(1.0)


def test_condest_tracks_exact_one_norm_condition():
    rng = np.random.default_rng(12)
    a = random_banded(40, 2, 2, rng, diag_boost=1.5)
    exact = np.linalg.cond(a, 1).real
    est = dense_condest(a)
    assert est <= exact * (1 + 1e-10)
    assert est >= 0.3 * exact


def test_a_band_laid_out_for_gbtrf_is_factored_in_place():
    # principal_submatrix with kl spare rows writes the band once, into the
    # Fortran-ordered array that gbtrf overwrites with the factors; they
    # equal, bit for bit, the factors of a copied band
    rng = np.random.default_rng(8)
    dense = random_banded(40, 3, 3, rng, diag_boost=4.0, dtype=float)
    band = band_from_dense(dense, 3, 3)
    sub = band.principal_submatrix(2, 38, spare_rows=3)
    assert (sub.lower_bw, sub.upper_bw) == (3, 3)
    assert sub.data.base.shape == (10, 36) and sub.data.base.flags.f_contiguous
    assert not sub.data.base[:3].any()
    copied = band.principal_submatrix(2, 38)
    assert copied.data.flags.c_contiguous
    assert np.array_equal(sub.data, copied.data)
    assert np.array_equal(band_to_dense(copied), dense[2:38, 2:38])
    in_place, plain = banded_lu_factor(sub), banded_lu_factor(copied)
    assert in_place.factors.data is sub.data.base
    assert np.array_equal(copied.data, band_from_dense(dense[2:38, 2:38], 3, 3).data)
    assert in_place.factors.data.tobytes() == plain.factors.data.tobytes()
    assert np.array_equal(in_place.pivots, plain.pivots)


def test_condest_draws_nothing_from_the_global_generator():
    # onenormest's default second start column came from np.random: the
    # estimate of this band read 5388.035 after seed(1) and 5384.475 after
    # seed(4), against an exact 5388.035
    from oscillquad.amplitudes import make_amplitude
    from oscillquad.levin import CollocationEngine, LevinProblem
    from oscillquad.oscillator import make_bessel
    from oscillquad.reference import dense_collocation_matrix

    system = make_bessel(1, 2.0, 100.0)
    band = CollocationEngine(system, 32, 0).interior_band()
    problem = LevinProblem(system=system, amplitude=make_amplitude("rational_runge", system),
                           nu=32, s=0)
    full, _ = dense_collocation_matrix(problem)
    for condest, a, exact in ((banded_condest, band, np.linalg.cond(band_to_dense(band), 1)),
                              (dense_condest, full, np.linalg.cond(full, 1))):
        estimates = []
        for seed in (1, 4):
            np.random.seed(seed)
            estimates.append(condest(a))
        assert estimates[0] == estimates[1]
        assert 0.3 * exact <= estimates[0] <= exact * (1 + 1e-10)
