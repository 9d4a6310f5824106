"""Chebyshev-basis infrastructure.

Clenshaw-Curtis grids, Chebyshev series evaluation, endpoint derivatives,
DCT-I transforms, and banded matrix representations of the operators
``x *`` and ``(1 - x^2) d/dx`` acting on the basis {T_0, T_1, ...}.

Everything here is pure: no global state, all returned objects are meant
to be treated as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft


class UnsupportedRegimeError(ValueError):
    """Raised when a folded banded system would be invalid (nu too small)."""


# ---------------------------------------------------------------------------
# Polynomials in the monomial basis
# ---------------------------------------------------------------------------

class Polynomial:
    """Dense polynomial in the monomial basis with complex coefficients.

    ``coeffs[j]`` holds the coefficient of ``x**j``.  Trailing exact zeros
    are trimmed on construction so ``degree == len(coeffs) - 1``; the zero
    polynomial keeps a single zero coefficient and has degree 0.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128)).ravel()
        if c.size == 0:
            c = np.zeros(1, dtype=np.complex128)
        nz = np.nonzero(c)[0]
        last = nz[-1] if nz.size else 0
        self.coeffs = c[: last + 1].copy()
        self.coeffs.setflags(write=False)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree == 0 and self.coeffs[0] == 0

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(x, self.coeffs)

    def deriv(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial([0.0])
        return Polynomial(self.coeffs[1:] * np.arange(1, len(self.coeffs)))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial(np.convolve(self.coeffs, other.coeffs))
        return Polynomial(self.coeffs * other)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial([other])
        n = max(len(self.coeffs), len(other.coeffs))
        c = np.zeros(n, dtype=np.complex128)
        c[: len(self.coeffs)] += self.coeffs
        c[: len(other.coeffs)] += other.coeffs
        return Polynomial(c)

    def __neg__(self):
        return Polynomial(-self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial) else Polynomial([-other]))

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"


#: 1 - x^2, the row-scaling prefactor used throughout the collocation setup.
ONE_MINUS_X2 = Polynomial([1.0, 0.0, -1.0])


def poly_divmod(num: Polynomial, den: Polynomial):
    """Long division ``num = q * den + r`` on monomial coefficient arrays."""
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = np.array(num.coeffs, dtype=np.complex128)
    dc = den.coeffs
    dd = den.degree
    if num.degree < dd:
        return Polynomial([0.0]), Polynomial(rem)
    q = np.zeros(num.degree - dd + 1, dtype=np.complex128)
    for k in range(num.degree - dd, -1, -1):
        q[k] = rem[k + dd] / dc[dd]
        rem[k : k + dd + 1] -= q[k] * dc
    return Polynomial(q), Polynomial(rem[:dd] if dd > 0 else [0.0])


class RationalFunction:
    """num(x) / den(x)^power, used for oscillator matrix entries.

    Derivatives are formed symbolically by the quotient rule with the
    denominator kept as a power of the base (degree grows linearly, not
    geometrically), so endpoint derivative values are exact up to rounding
    and never overflow for moderate orders.  No finite differences.
    """

    __slots__ = ("num", "den", "power")

    def __init__(self, num: Polynomial, den: Polynomial | None = None,
                 power: int = 1):
        self.num = num if isinstance(num, Polynomial) else Polynomial(num)
        self.den = den if isinstance(den, Polynomial) else Polynomial(den if den is not None else [1.0])
        self.power = int(power)
        if self.den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if self.power < 0:
            raise ValueError("denominator power must be nonnegative")

    def __call__(self, x):
        return self.num(x) / self.den(x) ** self.power

    def deriv(self) -> "RationalFunction":
        # (n / d^k)' = (n' d - k n d') / d^(k+1)
        return RationalFunction(
            self.num.deriv() * self.den - self.power * (self.num * self.den.deriv()),
            self.den,
            self.power + 1,
        )

    def derivatives_at(self, x: float, l_max: int) -> np.ndarray:
        """Values of d^l/dx^l at ``x`` for l = 0..l_max."""
        out = np.empty(l_max + 1, dtype=np.complex128)
        f = self
        for l in range(l_max + 1):
            out[l] = f(x)
            if l < l_max:
                f = f.deriv()
        return out


# ---------------------------------------------------------------------------
# Clenshaw-Curtis grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClenshawCurtisGrid:
    """Collocation grid c_m = cos(m pi / (nu + 1)), m = 0..nu+1.

    ``sin2`` holds sin^2(m pi/(nu+1)) = 1 - c_m^2, computed without
    cancellation and exactly zero at both endpoints.
    """

    nu: int
    points: np.ndarray
    sin2: np.ndarray

    @property
    def n_points(self) -> int:
        return self.nu + 2


def clenshaw_curtis_points(nu: int) -> ClenshawCurtisGrid:
    """Build the Clenshaw-Curtis grid with ``nu`` interior points.

    ``nu`` must be even and >= 2.  The grid is assembled from one half by
    mirroring with negation, so the symmetry c_m = -c_{nu+1-m} holds
    exactly in floating point.
    """
    if nu < 2 or nu % 2 != 0:
        raise ValueError(f"nu must be an even integer >= 2, got {nu}")
    n = nu + 2
    theta = np.arange(n) * (np.pi / (nu + 1))
    half = np.cos(theta[: n // 2])
    points = np.concatenate([half, -half[::-1]])
    points[0] = 1.0
    points[-1] = -1.0
    sin_half = np.sin(theta[: n // 2])
    sin2 = np.concatenate([sin_half, sin_half[::-1]]) ** 2
    sin2[0] = 0.0
    sin2[-1] = 0.0
    points.setflags(write=False)
    sin2.setflags(write=False)
    return ClenshawCurtisGrid(nu=nu, points=points, sin2=sin2)


# ---------------------------------------------------------------------------
# Chebyshev series evaluation and endpoint derivatives
# ---------------------------------------------------------------------------

def cheb_eval(series, x):
    """Evaluate sum_n series[n] * T_n(x) by the backward Clenshaw recurrence.

    ``x`` may be a scalar or an array in [-1, 1] (a slack of 1e-12 is
    tolerated before a domain error is raised).
    """
    c = np.asarray(series, dtype=np.complex128)
    xa = np.asarray(x, dtype=np.float64)
    if np.any(np.abs(xa) > 1.0 + 1e-12):
        raise ValueError("evaluation point outside [-1, 1]")
    b1 = np.zeros_like(xa, dtype=np.complex128)
    b2 = np.zeros_like(b1)
    for a in c[:0:-1]:
        b1, b2 = a + 2.0 * xa * b1 - b2, b1
    out = c[0] + xa * b1 - b2
    return out if out.shape else complex(out)


def cheb_endpoint_derivative(n: int, l: int, sign: int) -> float:
    """l-th derivative of T_n at x = sign * 1.

    Uses the multiplicative recursion
    ``[T_n^(l)](+-1) = +- (n^2 - (l-1)^2)/(2l - 1) * [T_n^(l-1)](+-1)``
    seeded with T_n(+-1) = (+-1)^n; the factor vanishes once l exceeds n,
    so values for l > n come out exactly zero.
    """
    if n < 0 or l < 0:
        raise ValueError("n and l must be nonnegative")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    val = 1.0 if (sign == 1 or n % 2 == 0) else -1.0
    for k in range(1, l + 1):
        val *= sign * (n * n - (k - 1) ** 2) / (2 * k - 1)
    return val


def endpoint_derivative_row(n_max: int, l: int, sign: int) -> np.ndarray:
    """Vector of [T_n^(l)](sign * 1) for n = 0..n_max."""
    if n_max < 0 or l < 0:
        raise ValueError("n_max and l must be nonnegative")
    n = np.arange(n_max + 1, dtype=np.float64)
    val = np.where((sign == 1) | (np.arange(n_max + 1) % 2 == 0), 1.0, -1.0)
    for k in range(1, l + 1):
        val = val * (sign * (n * n - (k - 1) ** 2) / (2 * k - 1))
    return val


# ---------------------------------------------------------------------------
# DCT-I with endpoint-halving convention
# ---------------------------------------------------------------------------

def dct1_forward(x, fast: bool = True) -> np.ndarray:
    """DCT-I on C^(nu+2): y_m = sum''_n cos(m n pi/(nu+1)) x_n.

    The double prime halves the n = 0 and n = nu+1 terms.  The fast path
    is FFT-based (O(n log n)); ``fast=False`` evaluates the cosine matrix
    directly in O(n^2) and is kept as an independent check.
    """
    x = np.asarray(x)
    n = x.shape[0]
    if n < 3:
        raise ValueError("DCT-I needs at least 3 samples")
    if fast:
        return 0.5 * scipy.fft.dct(x, type=1)
    big_n = n - 1
    mat = np.cos(np.outer(np.arange(n), np.arange(n)) * (np.pi / big_n))
    mat[:, 0] *= 0.5
    mat[:, -1] *= 0.5
    return mat @ x


def dct1_inverse(y, fast: bool = True) -> np.ndarray:
    """Inverse of :func:`dct1_forward`; the DCT-I is self-inverse up to 2/(nu+1)."""
    y = np.asarray(y)
    if y.shape[0] < 3:
        raise ValueError("DCT-I needs at least 3 samples")
    return dct1_forward(y, fast=fast) * (2.0 / (y.shape[0] - 1))


def real_if_zero_imag(a) -> np.ndarray:
    """``a`` as float64 when no entry has a nonzero imaginary part, else as complex128.

    The real part is taken only when the imaginary part is exactly zero, so
    nothing is dropped.
    """
    a = np.asarray(a)
    if a.dtype.kind == "c" and a.imag.any():
        return a.astype(np.complex128, copy=False)
    return a.real.astype(np.float64, copy=False)


def apply_collocation_matrix(alpha, grid: ClenshawCurtisGrid | None = None,
                             fast: bool = True) -> np.ndarray:
    """Values at the grid of the Chebyshev series with coefficients ``alpha``.

    Computes C @ alpha with C[m, k] = T_k(c_m) = cos(m k pi/(nu+1)) via a
    single DCT-I after doubling the first and last coefficients.  Real
    coefficients (or complex ones with a zero imaginary part) take a real
    DCT-I and give float64 values; others give complex128.
    """
    alpha = real_if_zero_imag(alpha)
    if grid is not None and alpha.shape[0] != grid.n_points:
        raise ValueError(
            f"coefficient vector of length {alpha.shape[0]} does not match "
            f"grid with {grid.n_points} points"
        )
    xt = alpha.copy()
    xt[0] *= 2.0
    xt[-1] *= 2.0
    return dct1_forward(xt, fast=fast)


def apply_inverse_collocation(values, fast: bool = True) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through grid values (C^-1 @ values).

    Real values (or complex ones with a zero imaginary part) take a real
    DCT-I and give float64 coefficients, the same numbers as the complex
    transform at half the work; others give complex128.
    """
    z = dct1_inverse(real_if_zero_imag(values), fast=fast)
    z[0] *= 0.5
    z[-1] *= 0.5
    return z


def drop_endpoint_values(coeffs) -> np.ndarray:
    """Interpolant of a series' grid values with both endpoint values set to 0.

    Equals ``apply_inverse_collocation`` of ``apply_collocation_matrix(coeffs)``
    with its first and last entries zeroed, without either DCT: the dropped
    values are the series sums at x = +1 and x = -1, and C^-1 e_0,
    C^-1 e_{nu+1} are 1/(nu+1) and (-1)^n/(nu+1) with halved end entries.
    Works along the last axis, and keeps real coefficients real.
    """
    a = np.asarray(coeffs)
    a = a.astype(np.result_type(a, np.float64), copy=False)
    n = a.shape[-1]
    signs = (-1.0) ** np.arange(n)
    u0 = np.full(n, 1.0 / (n - 1))
    u0[[0, -1]] *= 0.5
    at_plus = a.sum(axis=-1, keepdims=True)
    at_minus = (a * signs).sum(axis=-1, keepdims=True)
    return a - at_plus * u0 - at_minus * (signs * u0)


# ---------------------------------------------------------------------------
# Banded matrices (diagonal-major storage, LAPACK band layout)
# ---------------------------------------------------------------------------

class BandedMatrix:
    """Square banded matrix stored by diagonals.

    ``data[upper_bw + i - j, j]`` holds entry (i, j); slots addressing
    rows outside [0, n) are kept at zero.  This is the LAPACK band layout,
    so the array feeds directly into gbtrf/gbtrs.
    """

    __slots__ = ("n", "lower_bw", "upper_bw", "data")

    def __init__(self, n: int, lower_bw: int, upper_bw: int, data=None,
                 dtype=np.complex128):
        if n < 1 or lower_bw < 0 or upper_bw < 0:
            raise ValueError("invalid banded matrix dimensions")
        self.n = n
        self.lower_bw = lower_bw
        self.upper_bw = upper_bw
        if data is None:
            self.data = np.zeros((lower_bw + upper_bw + 1, n), dtype=dtype)
        else:
            data = np.asarray(data, dtype=dtype)
            if data.shape != (lower_bw + upper_bw + 1, n):
                raise ValueError("band data has wrong shape")
            self.data = data

    def in_band(self, i: int, j: int) -> bool:
        return -self.upper_bw <= i - j <= self.lower_bw

    def get(self, i: int, j: int):
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError("index out of range")
        if not self.in_band(i, j):
            return self.data.dtype.type(0)
        return self.data[self.upper_bw + i - j, j]

    def set(self, i: int, j: int, value) -> None:
        if not self.in_band(i, j):
            raise ValueError(f"entry ({i}, {j}) lies outside the band")
        self.data[self.upper_bw + i - j, j] = value

    def add_at(self, i: int, j: int, value) -> None:
        if not self.in_band(i, j):
            raise ValueError(f"entry ({i}, {j}) lies outside the band")
        self.data[self.upper_bw + i - j, j] += value

    def copy(self) -> "BandedMatrix":
        return BandedMatrix(self.n, self.lower_bw, self.upper_bw,
                            data=self.data.copy(), dtype=self.data.dtype)

    @classmethod
    def identity(cls, n: int, dtype=np.complex128) -> "BandedMatrix":
        out = cls(n, 0, 0, dtype=dtype)
        out.data[0, :] = 1.0
        return out

    @classmethod
    def from_dense(cls, a, lower_bw: int, upper_bw: int) -> "BandedMatrix":
        a = np.asarray(a)
        n = a.shape[0]
        out = cls(n, lower_bw, upper_bw, dtype=a.dtype)
        for off in range(-upper_bw, lower_bw + 1):
            d = np.diagonal(a, -off)
            j0 = max(0, -off)
            out.data[upper_bw + off, j0 : j0 + d.shape[0]] = d
        return out

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=self.data.dtype)
        for off in range(-self.upper_bw, self.lower_bw + 1):
            j0 = max(0, -off)
            j1 = min(self.n, self.n - off)
            if j0 >= j1:
                continue
            js = np.arange(j0, j1)
            a[js + off, js] = self.data[self.upper_bw + off, j0:j1]
        return a

    def matvec(self, x) -> np.ndarray:
        x = np.asarray(x)
        y = np.zeros(self.n, dtype=np.result_type(self.data.dtype, x.dtype))
        for off in range(-self.upper_bw, self.lower_bw + 1):
            j0 = max(0, -off)
            j1 = min(self.n, self.n - off)
            if j0 >= j1:
                continue
            y[j0 + off : j1 + off] += self.data[self.upper_bw + off, j0:j1] * x[j0:j1]
        return y

    def column(self, j: int) -> np.ndarray:
        """Dense copy of column j (length n)."""
        col = np.zeros(self.n, dtype=self.data.dtype)
        i0 = max(0, j - self.upper_bw)
        i1 = min(self.n, j + self.lower_bw + 1)
        col[i0:i1] = self.data[self.upper_bw + i0 - j : self.upper_bw + i1 - j, j]
        return col

    def principal_submatrix(self, lo: int, hi: int) -> "BandedMatrix":
        """Rows and columns lo..hi-1 as a new banded matrix."""
        if not (0 <= lo < hi <= self.n):
            raise ValueError("invalid submatrix range")
        m = hi - lo
        # Slot (upper_bw + off, j) holds row j + off; slots now referencing
        # rows outside [lo, hi) must be cleared.
        rows = np.arange(m) + np.arange(-self.upper_bw, self.lower_bw + 1)[:, None]
        data = np.where((rows < 0) | (rows >= m), 0, self.data[:, lo:hi])
        return BandedMatrix(m, self.lower_bw, self.upper_bw, data=data,
                            dtype=self.data.dtype)

    def __add__(self, other: "BandedMatrix") -> "BandedMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        lo = max(self.lower_bw, other.lower_bw)
        up = max(self.upper_bw, other.upper_bw)
        out = BandedMatrix(self.n, lo, up,
                           dtype=np.result_type(self.data.dtype, other.data.dtype))
        out.data[up - self.upper_bw : up + self.lower_bw + 1, :] += self.data
        out.data[up - other.upper_bw : up + other.lower_bw + 1, :] += other.data
        return out

    def scaled(self, c) -> "BandedMatrix":
        """``c`` times this matrix, in the field of the entries and ``c``."""
        data = self.data * c
        return BandedMatrix(self.n, self.lower_bw, self.upper_bw, data=data,
                            dtype=data.dtype)

    def matmul(self, other: "BandedMatrix") -> "BandedMatrix":
        """Banded product; bandwidths add."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        n = self.n
        lo = self.lower_bw + other.lower_bw
        up = self.upper_bw + other.upper_bw
        dtype = np.result_type(self.data.dtype, other.data.dtype)
        out = BandedMatrix(n, lo, up, dtype=dtype)
        # One cast up front, not one per diagonal product.
        a_data = self.data.astype(dtype, copy=False)
        b_data = other.data.astype(dtype, copy=False)
        for a in range(-self.upper_bw, self.lower_bw + 1):
            arow = a_data[self.upper_bw + a]
            for b in range(-other.upper_bw, other.lower_bw + 1):
                d = a + b
                j0 = max(0, -b, -d)
                j1 = min(n, n - b, n - d)
                if j0 >= j1:
                    continue
                out.data[up + d, j0:j1] += arow[j0 + b : j1 + b] * b_data[other.upper_bw + b, j0:j1]
        return out


# ---------------------------------------------------------------------------
# Banded operator construction
# ---------------------------------------------------------------------------

def mult_x_operator(n_rows: int) -> BandedMatrix:
    """Matrix of multiplication by x on {T_n}: column n maps T_n to x T_n.

    Column 0 carries the T_{-1} = T_1 identification, so x T_0 = T_1 with
    coefficient 1; all other columns have 1/2 at rows n - 1 and n + 1.
    """
    if n_rows < 2:
        raise ValueError("need at least 2 rows")
    m = BandedMatrix(n_rows, 1, 1, dtype=np.float64)
    m.data[0, 1:] = 0.5
    m.data[2, : n_rows - 1] = 0.5
    m.data[2, 0] = 1.0
    return m


def weighted_diff_operator(n_rows: int) -> BandedMatrix:
    """Matrix of (1 - x^2) d/dx on {T_n}: column n has n/2 at row n-1, -n/2 at row n+1."""
    if n_rows < 2:
        raise ValueError("need at least 2 rows")
    d = BandedMatrix(n_rows, 1, 1, dtype=np.float64)
    cols = np.arange(n_rows, dtype=np.float64)
    d.data[0, 1:] = cols[1:] / 2.0
    d.data[2, : n_rows - 1] = -cols[: n_rows - 1] / 2.0
    return d


def polynomial_of_mult_x(p: Polynomial, n_rows: int) -> BandedMatrix:
    """p(M) where M is the multiplication-by-x matrix, by Horner composition.

    Real coefficients give a float64 matrix, others a complex128 one.
    """
    if p.is_zero:
        return BandedMatrix(n_rows, 0, 0, dtype=np.float64)
    coeffs = real_if_zero_imag(p.coeffs)
    m = mult_x_operator(n_rows)
    acc = BandedMatrix.identity(n_rows, dtype=coeffs.dtype).scaled(coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc.matmul(m)
        acc.data[acc.upper_bw, :] += c
    return acc


def build_banded_operator(p_diff: Polynomial, p_mult: Polynomial,
                          n_rows: int) -> BandedMatrix:
    """Banded matrix of the operator p_diff(x) d/dx + p_mult(x) on {T_n}.

    ``p_diff`` must be divisible by (1 - x^2); writing p_diff = (1-x^2) rho,
    the result is rho(M) @ D + p_mult(M) with M the multiplication matrix
    and D the matrix of (1 - x^2) d/dx.  Column n of the result holds the
    Chebyshev coefficients of the operator applied to T_n; columns within
    ``n_rows`` minus the bandwidth growth are exact truncations of the
    infinite operator.  The matrix is float64 when both polynomials have
    real coefficients, complex128 otherwise.
    """
    if not isinstance(p_diff, Polynomial):
        p_diff = Polynomial(p_diff)
    if not isinstance(p_mult, Polynomial):
        p_mult = Polynomial(p_mult)
    rho = Polynomial([0.0])
    if not p_diff.is_zero:
        rho, rem = poly_divmod(p_diff, ONE_MINUS_X2)
        scale = np.max(np.abs(p_diff.coeffs))
        if not rem.is_zero and np.max(np.abs(rem.coeffs)) > 1e-12 * scale:
            raise ValueError("p_diff must be divisible by 1 - x^2")
    half_width = max(rho.degree + 1 if not rho.is_zero else 0, p_mult.degree)
    if n_rows <= half_width + 1:
        raise ValueError(
            f"n_rows={n_rows} too small for operator of half-bandwidth {half_width + 1}"
        )
    if rho.is_zero:
        return polynomial_of_mult_x(p_mult, n_rows)
    b = polynomial_of_mult_x(rho, n_rows).matmul(weighted_diff_operator(n_rows))
    if not p_mult.is_zero:
        b = b + polynomial_of_mult_x(p_mult, n_rows)
    return b


def fold_operator(b: BandedMatrix, nu: int, d: int) -> BandedMatrix:
    """Fold the banded operator onto a (nu+2) x (nu+2) matrix.

    Row n of the result equals row n of ``b`` for n < nu - d and n = nu + 1;
    rows nu-d..nu additionally absorb row 2(nu+1) - n, which is aliased onto
    row n by the identity T_{nu+1+l}(c_m) = T_{nu+1-l}(c_m) at the grid
    points.  Rows of ``b`` beyond nu + d + 2 are discarded; choosing
    d >= lower bandwidth - 1 guarantees nothing nonzero is dropped.
    """
    if nu <= d:
        raise UnsupportedRegimeError(
            f"folding needs nu > d (got nu={nu}, d={d}); fall back to the dense path"
        )
    if b.n < nu + d + 3:
        raise ValueError("operator matrix too small to fold: need rows up to nu + d + 2")
    up = max(b.upper_bw, d + 1)
    out = BandedMatrix(nu + 2, b.lower_bw, up, dtype=b.data.dtype)
    for off in range(-b.upper_bw, b.lower_bw + 1):
        j0 = max(0, -off)
        j1 = min(nu + 2, nu + 2 - off)
        if j0 < j1:
            out.data[up + off, j0:j1] = b.data[b.upper_bw + off, j0:j1]
    for n in range(nu - d, nu + 1):
        src = 2 * nu + 2 - n
        m0 = max(0, src - b.upper_bw)
        m1 = min(nu + 2, src + b.lower_bw + 1)
        for m in range(m0, m1):
            v = b.data[b.upper_bw + src - m, m]
            if v != 0:
                out.add_at(n, m, v)
    return out


def fold_chebyshev_tail(coeffs, nu: int) -> np.ndarray:
    """Alias Chebyshev coefficients onto indices 0..nu+1, along the last axis.

    Index k maps to its reflection into [0, nu+1] under the dihedral
    aliasing of cos(m k pi/(nu+1)) in k (period 2(nu+1), even symmetry),
    so the returned series takes the same values on the grid.  Real
    coefficients stay real.
    """
    c = np.asarray(coeffs)
    out = np.zeros(c.shape[:-1] + (nu + 2,), dtype=np.result_type(c, np.float64))
    period = 2 * (nu + 1)
    k = np.arange(c.shape[-1]) % period
    k = np.where(k > nu + 1, period - k, k)
    np.add.at(out, (..., k), c)
    return out
