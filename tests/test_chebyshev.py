"""Chebyshev infrastructure: grids, transforms, endpoint derivatives,
banded operator construction and folding."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillquad.chebyshev import (
    ONE_MINUS_X2,
    BandedMatrix,
    Polynomial,
    RationalFunction,
    UnsupportedRegimeError,
    apply_collocation_matrix,
    apply_inverse_collocation,
    build_banded_operator,
    cheb_endpoint_derivative,
    cheb_eval,
    clenshaw_curtis_points,
    dct1_forward,
    dct1_inverse,
    drop_endpoint_values,
    endpoint_derivative_row,
    fold_chebyshev_tail,
    fold_operator,
    mult_x_operator,
    poly_divmod,
    weighted_diff_operator,
)


# ---------------------------------------------------------------------------
# Oracles used throughout this module
# ---------------------------------------------------------------------------

def naive_dct1(x):
    """Halved-endpoint DCT-I by the literal double loop (O(n^2))."""
    x = np.asarray(x)
    n = x.shape[0]
    big_n = n - 1
    out = np.zeros(n, dtype=np.complex128)
    for m in range(n):
        acc = 0.5 * x[0] + 0.5 * math.cos(m * math.pi) * x[-1]
        for k in range(1, n - 1):
            acc = acc + math.cos(m * k * math.pi / big_n) * x[k]
        out[m] = acc
    return out


def chebyshev_monomial(n):
    """T_n as monomial coefficients via the recurrence (exact integers)."""
    if n == 0:
        return np.array([1.0])
    prev, cur = np.array([1.0]), np.array([0.0, 1.0])
    for _ in range(n - 1):
        nxt = np.zeros(len(cur) + 1)
        nxt[1:] = 2.0 * cur
        nxt[: len(prev)] -= prev
        prev, cur = cur, nxt
    return cur


def monomial_derivative(coeffs, order=1):
    c = np.asarray(coeffs, dtype=np.float64)
    for _ in range(order):
        c = c[1:] * np.arange(1, len(c))
        if len(c) == 0:
            c = np.zeros(1)
    return c


def eval_monomial(coeffs, x):
    return np.polynomial.polynomial.polyval(x, coeffs)


def operator_on_tn_pointwise(p_diff, p_mult, n, x):
    """Direct evaluation of p_diff T_n' + p_mult T_n at x (monomial algebra)."""
    tn = chebyshev_monomial(n)
    tnp = monomial_derivative(tn)
    return p_diff(x) * eval_monomial(tnp, x) + p_mult(x) * eval_monomial(tn, x)


# ---------------------------------------------------------------------------
# Polynomial / RationalFunction basics
# ---------------------------------------------------------------------------

def test_polynomial_normalization_and_horner():
    p = Polynomial([1.0, 2.0, 0.0, 0.0])
    assert p.degree == 1
    assert p(0.5) == 1.0 + 2.0 * 0.5
    q = Polynomial([0.0])
    assert q.degree == 0 and q.is_zero
    r = Polynomial([1, 0, -1])
    xs = np.linspace(-1, 1, 7)
    assert np.allclose(r(xs), 1 - xs**2)


def test_polynomial_arithmetic_and_divmod():
    a = Polynomial([1.0, 2.0, 3.0])
    b = Polynomial([-1.0, 1.0])
    prod = a * b
    xs = np.linspace(-2, 2, 9)
    assert np.allclose(prod(xs), a(xs) * b(xs))
    q, rem = poly_divmod(prod, b)
    assert np.allclose(q.coeffs, a.coeffs)
    assert rem.is_zero
    q2, r2 = poly_divmod(a, b)
    assert np.allclose(q2(xs) * b(xs) + r2(xs), a(xs))


def test_rational_function_derivatives_exact():
    # f = x / (x^2 + 0.02); f' = (0.02 - x^2)/(x^2+0.02)^2
    f = RationalFunction(Polynomial([0, 1]), Polynomial([0.02, 0, 1]))
    d = f.derivatives_at(1.0, 2)
    assert d[0] == pytest.approx(1.0 / 1.02)
    assert d[1] == pytest.approx((0.02 - 1.0) / 1.02**2)
    # second derivative by hand: d/dx[(c-x^2)/(x^2+c)^2]
    c = 0.02
    num = lambda x: (-2 * x) * (x * x + c) ** 2 - (c - x * x) * 2 * (x * x + c) * 2 * x
    assert d[2] == pytest.approx(num(1.0) / 1.02**4)


# ---------------------------------------------------------------------------
# Clenshaw-Curtis grid
# ---------------------------------------------------------------------------

def test_grid_nu2_values():
    grid = clenshaw_curtis_points(2)
    assert np.allclose(grid.points, [1.0, 0.5, -0.5, -1.0], atol=1e-15)


def test_grid_nu4_endpoints_and_symmetry():
    grid = clenshaw_curtis_points(4)
    assert grid.points[0] == 1.0 and grid.points[-1] == -1.0
    for m in range(6):
        assert grid.points[m] == -grid.points[5 - m]


def test_grid_matches_direct_cosine():
    grid = clenshaw_curtis_points(64)
    direct = np.cos(np.arange(66) * np.pi / 65)
    assert np.max(np.abs(grid.points - direct)) <= 1e-15


@pytest.mark.parametrize("nu", [2, 16, 256, 4096])
def test_grid_symmetry_exact(nu):
    grid = clenshaw_curtis_points(nu)
    assert np.all(grid.points + grid.points[::-1] == 0.0)
    assert np.allclose(grid.sin2, 1.0 - grid.points**2, atol=1e-15)
    assert grid.sin2[0] == 0.0 and grid.sin2[-1] == 0.0


@pytest.mark.parametrize("nu", [0, -2, 3, 7])
def test_grid_rejects_bad_nu(nu):
    with pytest.raises(ValueError):
        clenshaw_curtis_points(nu)


# ---------------------------------------------------------------------------
# Series evaluation and endpoint derivatives
# ---------------------------------------------------------------------------

def test_cheb_eval_unit_vectors_at_one():
    for n in range(6):
        e = np.zeros(n + 1)
        e[n] = 1.0
        assert cheb_eval(e, 1.0) == pytest.approx(1.0)


def test_cheb_eval_t1_t2():
    assert cheb_eval([0, 1], 0.3) == pytest.approx(0.3)
    assert cheb_eval([0, 0, 1], 0.5) == pytest.approx(-0.5)


def test_cheb_eval_matches_monomial_oracle():
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
    xs = rng.uniform(-1, 1, size=11)
    expected = sum(c * eval_monomial(chebyshev_monomial(n), xs)
                   for n, c in enumerate(coeffs))
    assert np.allclose(cheb_eval(coeffs, xs), expected, atol=1e-13)


def test_cheb_eval_domain_error():
    with pytest.raises(ValueError):
        cheb_eval([1.0, 2.0], 1.0 + 1e-6)


def test_endpoint_derivative_seed_and_first_order():
    assert cheb_endpoint_derivative(5, 0, +1) == 1.0
    assert cheb_endpoint_derivative(3, 1, +1) == 9.0
    assert cheb_endpoint_derivative(4, 0, -1) == 1.0
    assert cheb_endpoint_derivative(3, 0, -1) == -1.0


def test_endpoint_derivative_against_monomial_oracle():
    # includes the (n=4, l=2, -1) case: differentiate 8x^4 - 8x^2 + 1 twice
    for n in range(9):
        for l in range(n + 2):
            for sign in (+1, -1):
                expected = eval_monomial(
                    monomial_derivative(chebyshev_monomial(n), l), float(sign))
                got = cheb_endpoint_derivative(n, l, sign)
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-12), (n, l, sign)


def test_endpoint_derivative_closed_form():
    # recursion vs 2^l l! n (n+l-1)! / ((2l)! (n-l)!) with the (+-1)^(n-l) sign
    for n in range(1, 31):
        for l in range(0, n + 1):
            closed = (2**l * math.factorial(l) * n * math.factorial(n + l - 1)
                      / (math.factorial(2 * l) * math.factorial(n - l)))
            if l == 0:
                closed = 1.0
            for sign in (+1, -1):
                signed = closed * (1.0 if sign == 1 or (n - l) % 2 == 0 else -1.0)
                got = cheb_endpoint_derivative(n, l, sign)
                assert got == pytest.approx(signed, rel=1e-10), (n, l, sign)


def test_endpoint_derivative_above_degree_is_zero():
    assert cheb_endpoint_derivative(3, 4, +1) == 0.0
    assert cheb_endpoint_derivative(0, 2, -1) == 0.0


def test_endpoint_derivative_rejects_negative():
    with pytest.raises(ValueError):
        cheb_endpoint_derivative(-1, 0, 1)
    with pytest.raises(ValueError):
        cheb_endpoint_derivative(2, -1, 1)


def test_endpoint_derivative_row_matches_scalar():
    for l in (0, 1, 3):
        for sign in (+1, -1):
            row = endpoint_derivative_row(12, l, sign)
            for n in range(13):
                assert row[n] == pytest.approx(cheb_endpoint_derivative(n, l, sign))


# ---------------------------------------------------------------------------
# DCT-I
# ---------------------------------------------------------------------------

def test_dct1_constant_vector_against_naive():
    x = np.ones(18)
    assert np.allclose(dct1_forward(x), naive_dct1(x), rtol=1e-13, atol=1e-13)


def test_dct1_nu2_halved_first_coordinate():
    y = dct1_forward(np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(y, 0.5)


@pytest.mark.parametrize("n", [4, 7, 18, 129, 514])
def test_dct1_fast_equals_naive(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    fast = dct1_forward(x)
    assert np.max(np.abs(fast - naive_dct1(x))) <= 1e-12 * np.max(np.abs(fast) + 1)


@pytest.mark.parametrize("nu", [2, 16, 256, 4096])
def test_dct1_roundtrip(nu):
    rng = np.random.default_rng(nu)
    x = rng.normal(size=nu + 2) + 1j * rng.normal(size=nu + 2)
    back = dct1_inverse(dct1_forward(x))
    assert np.max(np.abs(back - x)) <= 1e-12 * np.max(np.abs(x))


def test_dct1_rejects_short_input():
    with pytest.raises(ValueError):
        dct1_forward(np.ones(2))
    with pytest.raises(ValueError):
        dct1_inverse(np.ones(1))


def test_collocation_matrix_t0_and_t1():
    grid = clenshaw_curtis_points(8)
    e0 = np.zeros(10)
    e0[0] = 1.0
    assert np.allclose(apply_collocation_matrix(e0, grid), 1.0)
    e1 = np.zeros(10)
    e1[1] = 1.0
    assert np.allclose(apply_collocation_matrix(e1, grid), grid.points)


def test_collocation_matrix_against_dense():
    nu = 16
    grid = clenshaw_curtis_points(nu)
    rng = np.random.default_rng(1)
    alpha = rng.normal(size=nu + 2) + 1j * rng.normal(size=nu + 2)
    dense = np.cos(np.outer(np.arange(nu + 2), np.arange(nu + 2)) * np.pi / (nu + 1))
    assert np.max(np.abs(apply_collocation_matrix(alpha, grid) - dense @ alpha)) <= 1e-13 * np.max(np.abs(alpha))


def test_collocation_matrix_length_mismatch():
    grid = clenshaw_curtis_points(8)
    with pytest.raises(ValueError):
        apply_collocation_matrix(np.ones(9), grid)


def test_inverse_collocation_roundtrip_and_interpolation():
    nu = 12
    grid = clenshaw_curtis_points(nu)
    rng = np.random.default_rng(2)
    vals = rng.normal(size=nu + 2) + 1j * rng.normal(size=nu + 2)
    coeffs = apply_inverse_collocation(vals)
    assert np.allclose(apply_collocation_matrix(coeffs, grid), vals, atol=1e-12)
    assert np.allclose(cheb_eval(coeffs, grid.points), vals, atol=1e-12)


@pytest.mark.parametrize("nu", [2, 7, 64, 1000, 32768])
def test_inverse_collocation_of_real_values_equals_the_complex_transform(nu):
    # real input (or complex with a zero imaginary part) takes a real DCT-I
    # and gives float64; the result must equal the complex128 transform bit
    # for bit
    def complex_transform(values):
        z = dct1_inverse(np.asarray(values, dtype=np.complex128))
        z[0] *= 0.5
        z[-1] *= 0.5
        return z

    rng = np.random.default_rng(nu)
    re = rng.normal(size=nu + 2) * 10.0 ** rng.uniform(-20, 20, size=nu + 2)
    im = rng.normal(size=nu + 2)
    for values in (re, re + 0j, -re.astype(np.float32), np.arange(nu + 2), re + 1j * im):
        got = apply_inverse_collocation(values)
        assert got.dtype == (np.complex128 if np.iscomplexobj(values) and values.imag.any()
                             else np.float64)
        assert np.array_equal(got, complex_transform(values))


@pytest.mark.parametrize("nu", [2, 6, 64, 1000, 8192])
def test_drop_endpoint_values_matches_dct_round_trip(nu):
    # closed form of C^-1 (C a with both endpoint values zeroed)
    rng = np.random.default_rng(nu)
    a = rng.normal(size=(3, nu + 2)) + 1j * rng.normal(size=(3, nu + 2))
    got = drop_endpoint_values(a)
    for row, want_from in zip(got, a):
        vals = apply_collocation_matrix(want_from)
        vals[0] = vals[-1] = 0.0
        want = apply_inverse_collocation(vals)
        assert np.max(np.abs(row - want)) <= 1e-13 * np.max(np.abs(want_from))


# ---------------------------------------------------------------------------
# Elementary banded operators
# ---------------------------------------------------------------------------

def test_mult_x_leading_block():
    m = mult_x_operator(6)
    assert m.get(0, 1) == 0.5
    assert m.get(1, 0) == 1.0
    assert m.get(1, 2) == 0.5


def test_mult_x_column_zero_is_t1():
    col = mult_x_operator(6).column(0)
    expected = np.zeros(6)
    expected[1] = 1.0
    assert np.allclose(col, expected)


def test_mult_x_column_five():
    col = mult_x_operator(8).column(5)
    expected = np.zeros(8)
    expected[4] = expected[6] = 0.5
    assert np.allclose(col, expected)


def test_weighted_diff_leading_entries():
    d = weighted_diff_operator(6)
    assert d.get(0, 1) == 0.5
    assert d.get(1, 2) == 1.0
    assert d.get(2, 1) == -0.5
    assert d.get(2, 3) == 1.5


def test_weighted_diff_column_zero_is_zero():
    assert np.allclose(weighted_diff_operator(6).column(0), 0.0)


def test_weighted_diff_column_action_pointwise():
    # column 10 evaluated as a Chebyshev series must equal (1-x^2) T_10'(x)
    n = 10
    d = weighted_diff_operator(16)
    col = d.column(n)
    x = 0.3
    expected = (1 - x * x) * eval_monomial(monomial_derivative(chebyshev_monomial(n)), x)
    assert cheb_eval(col, x) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# Operator construction
# ---------------------------------------------------------------------------

def test_build_identity_operator():
    b = build_banded_operator(Polynomial([0.0]), Polynomial([1.0]), 8)
    assert np.allclose(b.to_dense(), np.eye(8))


def test_build_linear_phase_operator_entries():
    # (x^2 - 1) d/dx + i w (x^2 - 1): closed-form leading 6x6 entries
    w = 100.0
    minus = Polynomial([-1.0, 0.0, 1.0])
    b = build_banded_operator(minus, 1j * w * minus, 10)
    iw = 1j * w
    expected = np.array([
        [-iw / 2, -0.5,    iw / 4,  0,       0,       0],
        [0,       -iw / 4, -1.0,    iw / 4,  0,       0],
        [iw / 2,  0.5,     -iw / 2, -1.5,    iw / 4,  0],
        [0,       iw / 4,  1.0,     -iw / 2, -2.0,    iw / 4],
        [0,       0,       iw / 4,  1.5,     -iw / 2, -2.5],
        [0,       0,       0,       iw / 4,  2.0,     -iw / 2],
    ])
    assert np.allclose(b.to_dense()[:6, :6], expected, atol=1e-12 * w)


def test_build_random_operator_column_action():
    rng = np.random.default_rng(11)
    p_mult = Polynomial(rng.normal(size=4) + 1j * rng.normal(size=4))
    b = build_banded_operator(ONE_MINUS_X2, p_mult, 24)
    xs = rng.uniform(-0.99, 0.99, size=12)
    for n in (0, 1, 5, 13):
        got = cheb_eval(b.column(n), xs)
        expected = operator_on_tn_pointwise(ONE_MINUS_X2, p_mult, n, xs)
        assert np.max(np.abs(got - expected)) <= 1e-11


def test_build_operator_rejects_nondivisible_prefactor():
    with pytest.raises(ValueError):
        build_banded_operator(Polynomial([0.0, 1.0]), Polynomial([1.0]), 8)


def test_build_operator_rejects_tiny_n_rows():
    with pytest.raises(ValueError):
        build_banded_operator(ONE_MINUS_X2, Polynomial(np.ones(6)), 4)


def test_operator_columns_against_pointwise_large():
    # invariant: columns n <= 60 match pointwise evaluation at 20 random points;
    # T_n and T_n' evaluated in trigonometric form (exact for large n, where
    # the monomial expansion of T_n is no longer evaluable in doubles)
    rng = np.random.default_rng(3)
    w = 100.0
    p_mult = 1j * w * ONE_MINUS_X2  # linear phase
    b = build_banded_operator(ONE_MINUS_X2, p_mult, 70)
    xs = rng.uniform(-1, 1, size=20)
    theta = np.arccos(xs)
    for n in range(0, 61, 6):
        got = cheb_eval(b.column(n), xs)
        tn = np.cos(n * theta)
        tnp = n * np.sin(n * theta) / np.sin(theta)
        expected = ONE_MINUS_X2(xs) * tnp + p_mult(xs) * tn
        assert np.max(np.abs(got - expected)) <= 1e-10 * w


def test_scalar_bandwidth_bound():
    # bandwidth <= 2d + 3 for the scalar operator with phase degree d
    for d in (1, 2, 3, 5):
        g = Polynomial(np.arange(1, d + 2, dtype=float))  # degree d
        p_mult = 1j * 7.0 * (ONE_MINUS_X2 * g.deriv())
        b = build_banded_operator(ONE_MINUS_X2, p_mult, 40)
        assert b.lower_bw + b.upper_bw + 1 <= 2 * d + 3


# ---------------------------------------------------------------------------
# Folding
# ---------------------------------------------------------------------------

def test_aliasing_identity():
    nu = 6
    grid = clenshaw_curtis_points(nu)
    for l in range(nu + 2):
        for m in range(nu + 2):
            lhs = math.cos((nu + 1 + l) * m * math.pi / (nu + 1))
            rhs = math.cos((nu + 1 - l) * m * math.pi / (nu + 1))
            assert lhs == pytest.approx(rhs, abs=1e-12)
    # same identity through series evaluation on the grid
    for l in range(1, nu + 1):
        hi = np.zeros(nu + 2 + l + 1)
        hi[nu + 1 + l] = 1.0
        lo = np.zeros(nu + 2)
        lo[nu + 1 - l] = 1.0
        assert np.allclose(cheb_eval(hi, grid.points), cheb_eval(lo, grid.points),
                           atol=1e-12)


def test_fold_is_truncation_when_no_rows_alias():
    # operator supported strictly inside the top-left block: columns <= nu-d-1
    nu = 20
    b = build_banded_operator(Polynomial([0.0]), Polynomial([0.5, 0.25]), nu + 8)
    folded = fold_operator(b, nu, 2)
    dense = b.to_dense()[: nu + 2, : nu + 2]
    # columns that can reach aliased rows live near the right edge; the rest
    # must be untouched
    assert np.allclose(folded.to_dense()[:, : nu - 3], dense[:, : nu - 3])


def test_fold_matches_direct_operator_collocation():
    # C B~ must equal pointwise evaluation of the scaled operator on T_n
    nu, w = 8, 100.0
    grid = clenshaw_curtis_points(nu)
    p_mult = 1j * w * ONE_MINUS_X2
    b = build_banded_operator(ONE_MINUS_X2, p_mult, nu + 10)
    folded = fold_operator(b, nu, b.lower_bw - 1)
    for n in range(nu + 2):
        lhs = apply_collocation_matrix(folded.column(n), grid)
        rhs = operator_on_tn_pointwise(ONE_MINUS_X2, p_mult, n, grid.points)
        assert np.max(np.abs(lhs - rhs)) <= 1e-11 * w, n


def test_fold_rejects_small_nu():
    b = build_banded_operator(ONE_MINUS_X2, 1j * ONE_MINUS_X2, 20)
    with pytest.raises(UnsupportedRegimeError):
        fold_operator(b, 2, 4)


def test_fold_chebyshev_tail_reflects_indices():
    nu = 6
    grid = clenshaw_curtis_points(nu)
    rng = np.random.default_rng(8)
    coeffs = rng.normal(size=nu + 9)
    folded = fold_chebyshev_tail(coeffs, nu)
    assert folded.shape == (nu + 2,)
    assert np.allclose(cheb_eval(folded, grid.points),
                       cheb_eval(coeffs, grid.points), atol=1e-12)


def test_fold_chebyshev_tail_works_along_last_axis():
    nu = 6
    rng = np.random.default_rng(9)
    coeffs = rng.normal(size=(2, 3, nu + 11))
    folded = fold_chebyshev_tail(coeffs, nu)
    assert folded.shape == (2, 3, nu + 2)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(folded[idx], fold_chebyshev_tail(coeffs[idx], nu))


@st.composite
def operator_case(draw):
    """rho and p_mult of degree 0-5 (real, complex or zero), n_rows and a fold (nu, d)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def poly():
        deg = draw(st.integers(0, 5))
        kind = draw(st.sampled_from(["zero", "real", "complex"]))
        c = rng.normal(size=deg + 1) * 10.0 ** rng.uniform(-1, 3)
        if kind == "complex":
            c = c + 1j * rng.normal(size=deg + 1)
        return Polynomial(np.zeros(1) if kind == "zero" else c)

    rho, p_mult = poly(), poly()
    w = max(0 if rho.is_zero else rho.degree + 1, p_mult.degree)
    n_rows = draw(st.integers(w + 2, 2 * w + 40))
    d = draw(st.integers(max(w - 1, 0), w + 2))
    nu = draw(st.integers(d + 1, max(d + 1, n_rows - d - 3)))
    return rho, p_mult, n_rows, nu, d


def dense_polynomial_of(p, x):
    out = np.zeros(x.shape, dtype=np.complex128)
    for c in p.coeffs[::-1]:
        out = out @ x + c * np.eye(x.shape[0])
    return out


@settings(max_examples=150, deadline=None)
@given(operator_case())
def test_closed_form_band_matches_dense_operator_and_fold(case):
    rho, p_mult, n_rows, nu, d = case
    b = build_banded_operator(ONE_MINUS_X2 * rho, p_mult, n_rows)
    w = b.lower_bw
    assert b.upper_bw == w == max(0 if rho.is_zero else rho.degree + 1, p_mult.degree)
    real = not (rho.coeffs.imag.any() or p_mult.coeffs.imag.any())
    assert b.data.dtype == (np.float64 if real else np.complex128)

    # rho(X) D + p_mult(X) at a size where the first n_rows columns are exact
    big = n_rows + b.lower_bw + 4
    x = mult_x_operator(big).to_dense()
    dx = weighted_diff_operator(big).to_dense()
    exact = (dense_polynomial_of(rho, x) @ dx + dense_polynomial_of(p_mult, x))[:n_rows, :n_rows]
    scale = max(np.max(np.abs(exact)), 1e-300)
    assert np.max(np.abs(b.to_dense() - exact)) <= 1e-13 * scale
    # slots addressing rows outside the matrix stay zero, as LAPACK expects
    assert np.array_equal(b.data, BandedMatrix.from_dense(b.to_dense(), w, w).data)

    if n_rows < nu + d + 3:
        return
    # Row 2(nu+1) - k (k = nu-d..nu) of the operator aliases onto row k.
    aliased = exact[: nu + 2, : nu + 2].copy()
    for k in range(nu - d, nu + 1):
        aliased[k] += exact[2 * (nu + 1) - k, : nu + 2]
    folded = fold_operator(b, nu, d)
    assert folded.data.dtype == b.data.dtype
    assert np.max(np.abs(folded.to_dense() - aliased)) <= 1e-13 * scale
    assert np.array_equal(folded.data, BandedMatrix.from_dense(
        folded.to_dense(), folded.lower_bw, folded.upper_bw).data)


# ---------------------------------------------------------------------------
# BandedMatrix container behaviour
# ---------------------------------------------------------------------------

def test_banded_matrix_get_set_and_dense_agreement():
    rng = np.random.default_rng(0)
    a = BandedMatrix(7, 2, 1)
    entries = {}
    for i in range(7):
        for j in range(7):
            if a.in_band(i, j):
                v = complex(rng.normal(), rng.normal())
                a.set(i, j, v)
                entries[(i, j)] = v
    dense = a.to_dense()
    for i in range(7):
        for j in range(7):
            assert dense[i, j] == entries.get((i, j), 0.0)
            assert a.get(i, j) == entries.get((i, j), 0.0)
    with pytest.raises(ValueError):
        a.set(0, 5, 1.0)


def test_banded_matvec_matches_dense():
    rng = np.random.default_rng(4)
    a = BandedMatrix.from_dense(np.triu(np.tril(rng.normal(size=(9, 9)), 2), -1), 2, 1)
    v = rng.normal(size=9)
    assert np.allclose(a.matvec(v), a.to_dense() @ v)


@st.composite
def banded_and_range(draw):
    """A random banded matrix (bandwidths up to past n) and a range lo < hi."""
    n = draw(st.integers(1, 12))
    lower_bw = draw(st.integers(0, 14))
    upper_bw = draw(st.integers(0, 14))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo + 1, n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    dense = np.triu(np.tril(dense, lower_bw), -upper_bw)
    return BandedMatrix.from_dense(dense, lower_bw, upper_bw), lo, hi


@settings(max_examples=200, deadline=None)
@given(banded_and_range())
def test_column_and_principal_submatrix_match_dense_slices(case):
    a, lo, hi = case
    dense = a.to_dense()
    for j in range(a.n):
        assert np.array_equal(a.column(j), dense[:, j])
    sub = a.principal_submatrix(lo, hi)
    assert (sub.n, sub.lower_bw, sub.upper_bw) == (hi - lo, a.lower_bw, a.upper_bw)
    assert np.array_equal(sub.to_dense(), dense[lo:hi, lo:hi])
    # slots addressing rows outside the submatrix are cleared, as LAPACK expects
    expected = BandedMatrix.from_dense(dense[lo:hi, lo:hi], a.lower_bw, a.upper_bw)
    assert np.array_equal(sub.data, expected.data)


def test_principal_submatrix_full_range_and_wide_band():
    a = BandedMatrix.from_dense(np.arange(1.0, 17.0).reshape(4, 4), 5, 6)
    dense = a.to_dense()
    assert np.array_equal(a.principal_submatrix(0, 4).to_dense(), dense)
    assert np.array_equal(a.principal_submatrix(1, 3).to_dense(), dense[1:3, 1:3])
    assert np.array_equal(a.principal_submatrix(2, 3).data[:, 0],
                          np.eye(12)[6] * dense[2, 2])
