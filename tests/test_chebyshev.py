"""Chebyshev infrastructure: grids, transforms, endpoint derivatives,
banded operator construction and folding."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval, poly2cheb

from oscillquad.chebyshev import (
    ONE_MINUS_X2,
    BandedMatrix,
    Polynomial,
    RationalFunction,
    UnsupportedRegimeError,
    _chebyshev_stencil,
    _chirp_dct1,
    _takes_chirp,
    apply_collocation_matrix,
    apply_inverse_collocation,
    build_banded_operator,
    clenshaw_curtis_points,
    dct1,
    endpoint_derivative_rows,
    fold_chebyshev_tail,
    fold_operator,
    largest_prime_factor,
    polynomial_endpoint_derivatives,
)

from conftest import band_from_dense, band_to_dense


# ---------------------------------------------------------------------------
# Oracles used throughout this module
# ---------------------------------------------------------------------------

def naive_collocation(alpha):
    """C @ alpha, C[m, k] = cos(m k pi/(n-1)), by the literal sum over k, one
    row m at a time (O(n^2)), with m k reduced mod 2(n-1) in exact integers."""
    alpha = np.asarray(alpha)
    n = alpha.shape[0]
    big_n = n - 1
    k = np.arange(n)
    out = np.zeros(n, dtype=np.complex128)
    for m in range(n):
        out[m] = np.cos(((m * k) % (2 * big_n)) * (math.pi / big_n)) @ alpha
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


def test_polynomial_arithmetic():
    a = Polynomial([1.0, 2.0, 3.0])
    b = Polynomial([-1.0, 1.0])
    prod = a * b
    xs = np.linspace(-2, 2, 9)
    assert np.allclose(prod(xs), a(xs) * b(xs))


@pytest.mark.parametrize("coeffs,field", [
    ([1.0, 2.0], np.float64),
    ([1, 0, -1], np.float64),  # integer input
    (np.array([3.0, 1.0 - 0.0j]), np.float64),  # a -0.0 imaginary part
    ([1.0 + 0j, 0.5 + 0j], np.float64),
    (np.float32([1.5, 2.0]), np.float64),
    ([1.0, 2.0 + 1e-300j], np.complex128),
    ([0.5j], np.complex128),
])
def test_polynomial_is_float64_exactly_when_every_imaginary_part_is_zero(coeffs, field):
    p = Polynomial(coeffs)
    assert p.coeffs.dtype == field
    assert np.array_equal(p.coeffs, np.asarray(coeffs))
    # sums, products, derivatives and endpoint derivatives keep the field
    real = Polynomial([0.25, -1.0])
    for q in (p + real, real + p, p * real, p.deriv() if p.degree else p):
        assert q.coeffs.dtype == field
    assert polynomial_endpoint_derivatives([p, real], 2).dtype == field


def test_rational_function_derivatives_exact():
    # f = x / (x^2 + 0.02); f' = (0.02 - x^2)/(x^2+0.02)^2
    f = RationalFunction(Polynomial([0, 1]), Polynomial([0.02, 0, 1]))
    d = f.endpoint_derivatives(2)[0]
    assert d[0] == pytest.approx(1.0 / 1.02)
    assert d[1] == pytest.approx((0.02 - 1.0) / 1.02**2)
    # second derivative by hand: d/dx[(c-x^2)/(x^2+c)^2]
    c = 0.02
    num = lambda x: (-2 * x) * (x * x + c) ** 2 - (c - x * x) * 2 * (x * x + c) * 2 * x
    assert d[2] == pytest.approx(num(1.0) / 1.02**4)


def test_polynomial_endpoint_derivatives_match_numpy():
    p = Polynomial([0.3, -1.0 + 2j, 0.5, 4.0, -0.25j])
    poly = np.polynomial.polynomial
    table = polynomial_endpoint_derivatives([p], 6)[0]
    assert table.shape == (2, 7)
    for l in range(7):
        expected = poly.polyval(np.array([1.0, -1.0]), poly.polyder(p.coeffs, l))
        np.testing.assert_array_equal(table[:, l], expected)


def _numpy_case_coeffs(degree, field):
    rng = np.random.default_rng(10 * degree + (field == "complex"))
    c = rng.normal(size=degree + 1) * 10.0 ** rng.uniform(-2, 2, size=degree + 1)
    if field == "complex":
        c = c + 1j * rng.normal(size=degree + 1)
    return c


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("degree", ["zero", 0, 1, 2, 3, 5, 8])
def test_polynomial_evaluation_equals_numpy_bit_for_bit(degree, field):
    # Horner's rule in the operations of numpy's polyval, and every
    # derivative order at +-1 from one pass over the stacked derivative
    # table, with orders above the degree (l_max up to degree + 3) exactly 0
    p = Polynomial([0.0] if degree == "zero" else _numpy_case_coeffs(degree, field))
    poly = np.polynomial.polynomial
    ends = np.array([1.0, -1.0])
    grid = clenshaw_curtis_points(30).points
    for x in (ends, grid, 1.0, -1.0):
        np.testing.assert_array_equal(p(x), poly.polyval(x, p.coeffs))
        assert np.asarray(p(x)).tobytes() == np.asarray(poly.polyval(x, p.coeffs)).tobytes()
    for l_max in (0, p.degree, p.degree + 3):
        table = polynomial_endpoint_derivatives([p], l_max)[0]
        assert table.shape == (2, l_max + 1)
        for l in range(l_max + 1):
            np.testing.assert_array_equal(table[:, l],
                                          poly.polyval(ends, poly.polyder(p.coeffs, l)))


@pytest.mark.parametrize("n", [3, 12, 25])
def test_rational_endpoint_derivatives_near_a_root_of_the_denominator(n):
    # (x+a)^2 T_n / (x+a)^2 is T_n, whose derivatives at +-1 are known in
    # closed form; the denominator vanishes 0.2 from x = +1
    xa2 = Polynomial([-1.2, 1.0]) * Polynomial([-1.2, 1.0])
    t_n = Polynomial(np.polynomial.chebyshev.cheb2poly(np.eye(n + 1)[n]))
    table = RationalFunction(xa2 * t_n, xa2).endpoint_derivatives(6)
    for e, sign in enumerate((+1, -1)):
        exact = endpoint_derivative_rows(n, 6, sign)[:, n]
        assert np.max(np.abs(table[e] - exact)) <= 1e-6 * np.max(np.abs(exact))


@pytest.mark.parametrize("j", [0, 1, 2, 3])
def test_rational_endpoint_derivatives_of_the_benchmark_family(j):
    # x^j / (x^2 + c) = q_j(x) + sum over the poles p = +-i sqrt(c) of
    # (p^(j-1) / 2) / (x - p), whose l-th derivative is (-1)^l l! / (x - p)^(l+1)
    l_max = 6
    q = Polynomial(np.eye(j - 1)[j - 2] if j >= 2 else [0.0])
    for c in np.linspace(0.05, 1.0, 12):
        num = Polynomial(np.eye(j + 1)[j])
        table = RationalFunction(num, Polynomial([c, 0.0, 1.0])).endpoint_derivatives(l_max)
        poles = np.array([1j, -1j]) * math.sqrt(c)
        for e, x in enumerate((1.0, -1.0)):
            exact = polynomial_endpoint_derivatives([q], l_max)[0, e] + np.array([
                sum(p ** (j - 1) / 2 * (-1) ** l * math.factorial(l) / (x - p) ** (l + 1)
                    for p in poles)
                for l in range(l_max + 1)])
            assert np.max(np.abs(table[e] - exact)) <= 1e-12 * np.max(np.abs(exact)), (c, x)


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
# Endpoint derivatives
# ---------------------------------------------------------------------------

def endpoint_derivative(n, l, sign):
    """[T_n^(l)](sign * 1), the last entry of row l of endpoint_derivative_rows."""
    return endpoint_derivative_rows(n, l, sign)[l, n]


def test_endpoint_derivative_seed_and_first_order():
    assert endpoint_derivative(5, 0, +1) == 1.0
    assert endpoint_derivative(3, 1, +1) == 9.0
    assert endpoint_derivative(4, 0, -1) == 1.0
    assert endpoint_derivative(3, 0, -1) == -1.0


def test_endpoint_derivative_against_monomial_oracle():
    # includes the (n=4, l=2, -1) case: differentiate 8x^4 - 8x^2 + 1 twice
    for n in range(9):
        for l in range(n + 2):
            for sign in (+1, -1):
                expected = eval_monomial(
                    monomial_derivative(chebyshev_monomial(n), l), float(sign))
                got = endpoint_derivative(n, l, sign)
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
                got = endpoint_derivative(n, l, sign)
                assert got == pytest.approx(signed, rel=1e-10), (n, l, sign)


def test_endpoint_derivative_above_degree_is_zero():
    assert endpoint_derivative(3, 4, +1) == 0.0
    assert endpoint_derivative(0, 2, -1) == 0.0


def test_endpoint_derivative_rejects_negative():
    with pytest.raises(ValueError):
        endpoint_derivative_rows(-1, 0, 1)
    with pytest.raises(ValueError):
        endpoint_derivative_rows(2, -1, 1)


# ---------------------------------------------------------------------------
# DCT-I
# ---------------------------------------------------------------------------

def test_dct1_constant_vector_against_naive():
    x = np.ones(18)
    assert np.allclose(apply_collocation_matrix(x), naive_collocation(x), rtol=1e-13, atol=1e-13)


def test_dct1_nu2_halved_first_coordinate():
    # T_0 is 1 at every point; the inverse transform halves the first (and
    # last) coordinate of the DCT-I, so a constant maps back to T_0 alone
    assert np.allclose(apply_collocation_matrix(np.array([1.0, 0.0, 0.0, 0.0])), 1.0)
    assert np.allclose(apply_inverse_collocation(np.ones(4)), [1.0, 0.0, 0.0, 0.0])


#: nu whose nu + 1 has a prime factor above 400, so that the DCT-I of nu + 2
#: points takes the chirp route: 1347 = 3 x 449, 2049 = 3 x 683, 8191 is
#: prime and 8193 = 3 x 2731.
CHIRP_NU = [1346, 2048, 8190, 8192]


@pytest.mark.parametrize("n", [4, 7, 18, 129, 514] + [nu + 2 for nu in CHIRP_NU])
def test_dct1_fast_equals_naive(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    fast = apply_collocation_matrix(x)
    assert np.max(np.abs(fast - naive_collocation(x))) <= 1e-12 * np.max(np.abs(fast) + 1)


@pytest.mark.parametrize("nu", [2, 16, 256, 4096] + CHIRP_NU)
def test_dct1_roundtrip(nu):
    rng = np.random.default_rng(nu)
    x = rng.normal(size=nu + 2) + 1j * rng.normal(size=nu + 2)
    back = apply_inverse_collocation(apply_collocation_matrix(x))
    assert np.max(np.abs(back - x)) <= 1e-12 * np.max(np.abs(x))


def test_dct1_rejects_short_input():
    with pytest.raises(ValueError):
        apply_collocation_matrix(np.ones(2))
    with pytest.raises(ValueError):
        apply_inverse_collocation(np.ones(1))


def test_collocation_matrix_t0_and_t1():
    grid = clenshaw_curtis_points(8)
    e0 = np.zeros(10)
    e0[0] = 1.0
    assert np.allclose(apply_collocation_matrix(e0), 1.0)
    e1 = np.zeros(10)
    e1[1] = 1.0
    assert np.allclose(apply_collocation_matrix(e1), grid.points)


def test_collocation_matrix_against_dense():
    nu = 16
    rng = np.random.default_rng(1)
    alpha = rng.normal(size=nu + 2) + 1j * rng.normal(size=nu + 2)
    dense = np.cos(np.outer(np.arange(nu + 2), np.arange(nu + 2)) * np.pi / (nu + 1))
    assert np.max(np.abs(apply_collocation_matrix(alpha) - dense @ alpha)) <= 1e-13 * np.max(np.abs(alpha))


def test_inverse_collocation_roundtrip_and_interpolation():
    nu = 12
    grid = clenshaw_curtis_points(nu)
    rng = np.random.default_rng(2)
    vals = rng.normal(size=nu + 2) + 1j * rng.normal(size=nu + 2)
    coeffs = apply_inverse_collocation(vals)
    assert np.allclose(apply_collocation_matrix(coeffs), vals, atol=1e-12)
    assert np.allclose(chebval(grid.points, coeffs), vals, atol=1e-12)


@pytest.mark.parametrize("nu", [2, 7, 64, 1000, 32768] + CHIRP_NU)
def test_inverse_collocation_of_real_values_equals_the_complex_transform(nu):
    # the transform runs in the field of its input, at least in double
    # precision, on both routes: real input gives float64, bit for bit the
    # real part of the complex128 transform of the same values; complex
    # input, a zero imaginary part included, gives that transform, which on
    # pocketfft's route is scipy's DCT-I bit for bit
    def scipy_transform(values):
        v = np.asarray(values, dtype=np.complex128)
        z = 0.5 * scipy.fft.dct(v, type=1) * (2.0 / (v.shape[0] - 1))
        z[0] *= 0.5
        z[-1] *= 0.5
        return z

    rng = np.random.default_rng(nu)
    re = rng.normal(size=nu + 2) * 10.0 ** rng.uniform(-20, 20, size=nu + 2)
    im = rng.normal(size=nu + 2)
    for values in (re, -re.astype(np.float32), np.arange(nu + 2)):
        got = apply_inverse_collocation(values)
        assert got.dtype == np.float64
        complex_transform = apply_inverse_collocation(np.asarray(values, dtype=np.complex128))
        assert got.tobytes() == np.ascontiguousarray(complex_transform.real).tobytes()
    for values in (re + 0j, re + 1j * im):
        got = apply_inverse_collocation(values)
        assert got.dtype == np.complex128
        if not _takes_chirp(nu + 2):
            assert got.tobytes() == scipy_transform(values).tobytes()


@pytest.mark.parametrize("nu,largest_prime,chirp", [
    (32, 11, False), (256, 257, False), (512, 19, False), (2048, 683, True),
    (8192, 2731, True), (16384, 113, False), (32768, 331, False)])
def test_the_dct1_route_follows_the_largest_prime_factor_of_nu_plus_1(nu, largest_prime, chirp):
    # the chirp route where pocketfft would run a generic pass over a prime
    # factor above CHIRP_MIN_PRIME, pocketfft's own DCT-I elsewhere
    assert largest_prime_factor(nu + 1) == largest_prime
    assert _takes_chirp(nu + 2) is chirp


#: Bound on max|dct1(x) - scipy.fft.dct(x, type=1)| per unit of max|scipy's|,
#: per factor of two in n: two FFT routes each within a few units of
#: roundoff times log2 n of the output's scale.
DCT1_ROUTE_RTOL = 1e-14


@pytest.mark.parametrize("nu", [32, 256, 512, 2048, 8192, 16384, 32768])
@pytest.mark.parametrize("kind", ["real", "complex", "two rows"])
def test_both_dct1_routes_agree_with_scipy(nu, kind):
    rng = np.random.default_rng([nu, len(kind)])
    shape = (2, nu + 2) if kind == "two rows" else (nu + 2,)
    x = rng.standard_normal(shape)
    if kind != "real":
        x = x + 1j * rng.standard_normal(shape)
    want = scipy.fft.dct(x, type=1)
    tol = DCT1_ROUTE_RTOL * math.log2(nu + 2) * np.abs(want).max()
    for transform in (dct1, _chirp_dct1):
        got = transform(x)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.abs(got - want).max() <= tol, transform.__name__


# ---------------------------------------------------------------------------
# Elementary banded operators
# ---------------------------------------------------------------------------

def mult_x(n_rows):
    """Multiplication by x, as the operator builder writes it."""
    return build_banded_operator(Polynomial([0.0]), Polynomial([0.0, 1.0]), n_rows)


def weighted_diff(n_rows):
    """(1 - x^2) d/dx, as the operator builder writes it."""
    return build_banded_operator(Polynomial([1.0]), Polynomial([0.0]), n_rows)


def test_mult_x_leading_block():
    m = band_to_dense(mult_x(6))
    assert m[0, 1] == 0.5
    assert m[1, 0] == 1.0
    assert m[1, 2] == 0.5


def test_mult_x_column_zero_is_t1():
    col = mult_x(6).columns((0,))[0]
    expected = np.zeros(6)
    expected[1] = 1.0
    assert np.allclose(col, expected)


def test_mult_x_column_five():
    col = mult_x(8).columns((5,))[0]
    expected = np.zeros(8)
    expected[4] = expected[6] = 0.5
    assert np.allclose(col, expected)


def test_weighted_diff_leading_entries():
    d = band_to_dense(weighted_diff(6))
    assert d[0, 1] == 0.5
    assert d[1, 2] == 1.0
    assert d[2, 1] == -0.5
    assert d[2, 3] == 1.5


def test_weighted_diff_column_zero_is_zero():
    assert np.allclose(weighted_diff(6).columns((0,))[0], 0.0)


def test_weighted_diff_column_action_pointwise():
    # column 10 evaluated as a Chebyshev series must equal (1-x^2) T_10'(x)
    n = 10
    d = weighted_diff(16)
    col = d.columns((n,))[0]
    x = 0.3
    expected = (1 - x * x) * eval_monomial(monomial_derivative(chebyshev_monomial(n)), x)
    assert chebval(x, col) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# Operator construction
# ---------------------------------------------------------------------------

def test_build_identity_operator():
    b = build_banded_operator(Polynomial([0.0]), Polynomial([1.0]), 8)
    assert np.allclose(band_to_dense(b), np.eye(8))


def test_build_linear_phase_operator_entries():
    # (x^2 - 1) d/dx + i w (x^2 - 1): closed-form leading 6x6 entries
    w = 100.0
    minus = Polynomial([-1.0, 0.0, 1.0])
    b = build_banded_operator(Polynomial([-1.0]), 1j * w * minus, 10)
    iw = 1j * w
    expected = np.array([
        [-iw / 2, -0.5,    iw / 4,  0,       0,       0],
        [0,       -iw / 4, -1.0,    iw / 4,  0,       0],
        [iw / 2,  0.5,     -iw / 2, -1.5,    iw / 4,  0],
        [0,       iw / 4,  1.0,     -iw / 2, -2.0,    iw / 4],
        [0,       0,       iw / 4,  1.5,     -iw / 2, -2.5],
        [0,       0,       0,       iw / 4,  2.0,     -iw / 2],
    ])
    assert np.allclose(band_to_dense(b)[:6, :6], expected, atol=1e-12 * w)


def test_build_random_operator_column_action():
    rng = np.random.default_rng(11)
    p_mult = Polynomial(rng.normal(size=4) + 1j * rng.normal(size=4))
    b = build_banded_operator(Polynomial([1.0]), p_mult, 24)
    xs = rng.uniform(-0.99, 0.99, size=12)
    for n in (0, 1, 5, 13):
        got = chebval(xs, b.columns((n,))[0])
        expected = operator_on_tn_pointwise(ONE_MINUS_X2, p_mult, n, xs)
        assert np.max(np.abs(got - expected)) <= 1e-11


def test_build_operator_rejects_tiny_n_rows():
    with pytest.raises(ValueError):
        build_banded_operator(Polynomial([1.0]), Polynomial(np.ones(6)), 4)


def test_operator_columns_against_pointwise_large():
    # invariant: columns n <= 60 match pointwise evaluation at 20 random points;
    # T_n and T_n' evaluated in trigonometric form (exact for large n, where
    # the monomial expansion of T_n is no longer evaluable in doubles)
    rng = np.random.default_rng(3)
    w = 100.0
    p_mult = 1j * w * ONE_MINUS_X2  # linear phase
    b = build_banded_operator(Polynomial([1.0]), p_mult, 70)
    xs = rng.uniform(-1, 1, size=20)
    theta = np.arccos(xs)
    for n in range(0, 61, 6):
        got = chebval(xs, b.columns((n,))[0])
        tn = np.cos(n * theta)
        tnp = n * np.sin(n * theta) / np.sin(theta)
        expected = ONE_MINUS_X2(xs) * tnp + p_mult(xs) * tn
        assert np.max(np.abs(got - expected)) <= 1e-10 * w


def test_scalar_bandwidth_bound():
    # bandwidth <= 2d + 3 for the scalar operator with phase degree d
    for d in (1, 2, 3, 5):
        g = Polynomial(np.arange(1, d + 2, dtype=float))  # degree d
        p_mult = 1j * 7.0 * (ONE_MINUS_X2 * g.deriv())
        b = build_banded_operator(Polynomial([1.0]), p_mult, 40)
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
        assert np.allclose(chebval(grid.points, hi), chebval(grid.points, lo),
                           atol=1e-12)


def test_fold_is_truncation_when_no_rows_alias():
    # operator supported strictly inside the top-left block: columns <= nu-d-1
    nu = 20
    b = build_banded_operator(Polynomial([0.0]), Polynomial([0.5, 0.25]), nu + 8)
    folded = fold_operator(b, nu, 2)
    dense = band_to_dense(b)[: nu + 2, : nu + 2]
    # columns that can reach aliased rows live near the right edge; the rest
    # must be untouched
    assert np.allclose(band_to_dense(folded)[:, : nu - 3], dense[:, : nu - 3])


def test_fold_matches_direct_operator_collocation():
    # C B~ must equal pointwise evaluation of the scaled operator on T_n
    nu, w = 8, 100.0
    grid = clenshaw_curtis_points(nu)
    p_mult = 1j * w * ONE_MINUS_X2
    b = build_banded_operator(Polynomial([1.0]), p_mult, nu + 10)
    folded = fold_operator(b, nu, b.lower_bw - 1)
    for n in range(nu + 2):
        lhs = apply_collocation_matrix(folded.columns((n,))[0])
        rhs = operator_on_tn_pointwise(ONE_MINUS_X2, p_mult, n, grid.points)
        assert np.max(np.abs(lhs - rhs)) <= 1e-11 * w, n


def test_fold_rejects_small_nu():
    b = build_banded_operator(Polynomial([1.0]), 1j * ONE_MINUS_X2, 20)
    with pytest.raises(UnsupportedRegimeError):
        fold_operator(b, 2, 4)


def test_fold_rejects_a_band_wider_below_than_above():
    # row nu + 3 of column nu + 1 reflects onto row nu - 1, two diagonals
    # above: outside a band with one upper diagonal
    nu = 8
    dense = np.zeros((nu + 6, nu + 6))
    dense[nu + 3, nu + 1] = 1.0
    with pytest.raises(ValueError, match="wider below"):
        fold_operator(band_from_dense(dense, 2, 1), nu, 2)
    folded = fold_operator(band_from_dense(dense, 2, 2), nu, 2)
    assert band_to_dense(folded)[nu - 1, nu + 1] == 1.0


def test_fold_chebyshev_tail_reflects_indices():
    nu = 6
    grid = clenshaw_curtis_points(nu)
    rng = np.random.default_rng(8)
    coeffs = rng.normal(size=nu + 9)
    folded = fold_chebyshev_tail(coeffs, nu)
    assert folded.shape == (nu + 2,)
    assert np.allclose(chebval(grid.points, folded),
                       chebval(grid.points, coeffs), atol=1e-12)


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


def dense_mult_x(n):
    """x T_0 = T_1 and x T_n = (T_{n-1} + T_{n+1}) / 2, on the first n rows."""
    k = np.arange(n - 1)
    x = np.zeros((n, n))
    x[k, k + 1] = 0.5
    x[k + 1, k] = 0.5
    x[1, 0] = 1.0
    return x


def dense_weighted_diff(n):
    """(1 - x^2) T_n' = (n/2) (T_{n-1} - T_{n+1}), on the first n rows."""
    k = np.arange(n - 1)
    d = np.zeros((n, n))
    d[k, k + 1] = (k + 1) / 2.0
    d[k + 1, k] = -k / 2.0
    return d


def stencil_via_poly2cheb(p, w):
    """h[w] = a_0 and h[w +- k] = a_k / 2 for the Chebyshev coefficients a_k of p."""
    a = poly2cheb(p.coeffs)
    h = np.zeros(2 * w + 1, dtype=a.dtype)
    h[w : w + len(a)] = a / 2.0
    h[w - len(a) + 1 : w + 1] = a[::-1] / 2.0
    h[w] = a[0]
    return h


def dense_polynomial_of(p, x):
    out = np.zeros(x.shape, dtype=np.complex128)
    for c in p.coeffs[::-1]:
        out = out @ x + c * np.eye(x.shape[0])
    return out


@settings(max_examples=150, deadline=None)
@given(operator_case())
def test_closed_form_band_matches_dense_operator_and_fold(case):
    rho, p_mult, n_rows, nu, d = case
    b = build_banded_operator(rho, p_mult, n_rows)
    w = b.lower_bw
    assert b.upper_bw == w == max(0 if rho.is_zero else rho.degree + 1, p_mult.degree)
    real = not (rho.coeffs.imag.any() or p_mult.coeffs.imag.any())
    assert b.data.dtype == (np.float64 if real else np.complex128)
    # the Horner stencils equal those from numpy's poly2cheb, bit for bit
    for p, width in ((rho, w + 1), (p_mult, w), (p_mult, w + 3)):
        got, want = _chebyshev_stencil(p, width), stencil_via_poly2cheb(p, width)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    # rho(X) D + p_mult(X) at a size where the first n_rows columns are exact
    big = n_rows + b.lower_bw + 4
    x = dense_mult_x(big)
    dx = dense_weighted_diff(big)
    exact = (dense_polynomial_of(rho, x) @ dx + dense_polynomial_of(p_mult, x))[:n_rows, :n_rows]
    scale = max(np.max(np.abs(exact)), 1e-300)
    assert np.max(np.abs(band_to_dense(b) - exact)) <= 1e-13 * scale
    # slots addressing rows outside the matrix stay zero, as LAPACK expects
    assert np.array_equal(b.data, band_from_dense(band_to_dense(b), w, w).data)

    if n_rows < nu + d + 3:
        return
    # Row 2(nu+1) - k (k = nu-d..nu) of the operator aliases onto row k.
    aliased = exact[: nu + 2, : nu + 2].copy()
    for k in range(nu - d, nu + 1):
        aliased[k] += exact[2 * (nu + 1) - k, : nu + 2]
    folded = fold_operator(b, nu, d)
    assert folded.data.dtype == b.data.dtype
    # the fold keeps the band's half-widths: it lands inside them
    assert (folded.lower_bw, folded.upper_bw) == (b.lower_bw, b.upper_bw)
    assert np.max(np.abs(band_to_dense(folded) - aliased)) <= 1e-13 * scale
    assert np.array_equal(folded.data, band_from_dense(
        band_to_dense(folded), folded.lower_bw, folded.upper_bw).data)


# ---------------------------------------------------------------------------
# BandedMatrix container behaviour
# ---------------------------------------------------------------------------

def test_banded_matrix_layout_and_dense_agreement():
    # entry (i, j) is stored at data[upper_bw + i - j, j], where the dense
    # reference and columns() both read it
    rng = np.random.default_rng(0)
    a = BandedMatrix(7, 2, 1)
    entries = {}
    for i in range(7):
        for j in range(max(0, i - 2), min(7, i + 2)):
            v = complex(rng.normal(), rng.normal())
            a.data[1 + i - j, j] = v
            entries[(i, j)] = v
    dense = band_to_dense(a)
    for i in range(7):
        for j in range(7):
            assert dense[i, j] == entries.get((i, j), 0.0)
    assert np.array_equal(a.columns(tuple(range(7))), dense.T)


def test_banded_matvec_matches_dense():
    rng = np.random.default_rng(4)
    a = band_from_dense(np.triu(np.tril(rng.normal(size=(9, 9)), 2), -1), 2, 1)
    v = rng.normal(size=9)
    assert np.allclose(a.as_dia() @ v, band_to_dense(a) @ v)


def per_diagonal_product(b, x):
    """The band's product one diagonal at a time, from the top one down."""
    y = np.zeros(b.n, dtype=np.result_type(b.data, x))
    for off in range(-b.upper_bw, b.lower_bw + 1):
        j0, j1 = max(0, -off), min(b.n, b.n - off)
        if j0 < j1:
            y[j0 + off : j1 + off] += b.data[b.upper_bw + off, j0:j1] * x[j0:j1]
    return y


@pytest.mark.parametrize("n,kl,ku", [(9, 2, 1), (9, 1, 3), (40, 9, 9), (60, 4, 7), (3, 4, 2),
                                     (2, 3, 3), (1, 0, 0)])
@pytest.mark.parametrize("band,vector", [("real", "real"), ("real", "complex"),
                                         ("complex", "complex")])
def test_dia_product_adds_the_diagonals_in_turn(n, kl, ku, band, vector):
    # slots outside the matrix hold noise here: neither product reads them
    rng = np.random.default_rng(n + 100 * kl + 1000 * ku)
    data = rng.normal(size=(kl + ku + 1, n))
    x = rng.normal(size=n)
    if band == "complex":
        data = data + 1j * rng.normal(size=data.shape)
    if vector == "complex":
        x = x + 1j * rng.normal(size=n)
    b = BandedMatrix(n, kl, ku, data=data, dtype=data.dtype)
    got = b.as_dia() @ x
    want = per_diagonal_product(b, x)
    assert got.dtype == want.dtype
    if band == "real":
        assert got.tobytes() == want.tobytes()
    else:
        # complex products may round differently: 1e-13 of |A| |x| per entry
        assert np.all(np.abs(got - want) <= 1e-13 * (np.abs(band_to_dense(b)) @ np.abs(x)))


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
    return band_from_dense(dense, lower_bw, upper_bw), lo, hi


@settings(max_examples=200, deadline=None)
@given(banded_and_range())
def test_column_and_principal_submatrix_match_dense_slices(case):
    a, lo, hi = case
    dense = band_to_dense(a)
    assert np.array_equal(a.columns(tuple(range(a.n))), dense.T)
    assert np.array_equal(a.columns((a.n - 1, 0)), dense[:, [a.n - 1, 0]].T)
    sub = a.principal_submatrix(lo, hi)
    assert (sub.n, sub.lower_bw, sub.upper_bw) == (hi - lo, a.lower_bw, a.upper_bw)
    assert np.array_equal(band_to_dense(sub), dense[lo:hi, lo:hi])
    # slots addressing rows outside the submatrix are cleared, as LAPACK expects
    expected = band_from_dense(dense[lo:hi, lo:hi], a.lower_bw, a.upper_bw)
    assert np.array_equal(sub.data, expected.data)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(0, 12), st.integers(0, 12), st.booleans(), st.data())
def test_columns_are_the_dense_columns(n, kl, ku, complex_band, data):
    # each column is one clipped slice of the band; the slots for rows
    # outside the matrix hold noise here, which no column may read
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    band = rng.normal(size=(kl + ku + 1, n))
    if complex_band:
        band = band + 1j * rng.normal(size=band.shape)
    a = BandedMatrix(n, kl, ku, data=band, dtype=band.dtype)
    dense = band_to_dense(a)
    # every column within ku of the start and within kl of the end, then any
    js = (tuple(range(min(ku, n))) + tuple(range(max(n - kl, 0), n))
          + tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=6), label="columns")))
    got = a.columns(js)
    assert got.dtype == band.dtype
    assert np.array_equal(got, dense[:, list(js)].T)


def test_principal_submatrix_full_range_and_wide_band():
    a = band_from_dense(np.arange(1.0, 17.0).reshape(4, 4), 5, 6)
    dense = band_to_dense(a)
    assert np.array_equal(band_to_dense(a.principal_submatrix(0, 4)), dense)
    assert np.array_equal(band_to_dense(a.principal_submatrix(1, 3)), dense[1:3, 1:3])
    assert np.array_equal(a.principal_submatrix(2, 3).data[:, 0],
                          np.eye(12)[6] * dense[2, 2])
