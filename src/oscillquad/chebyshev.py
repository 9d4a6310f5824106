"""Chebyshev-basis infrastructure.

Clenshaw-Curtis grids, Chebyshev series evaluation, endpoint derivatives,
DCT-I transforms, and banded matrices of the operators
``p_diff(x) d/dx + p_mult(x)`` acting on the basis {T_0, T_1, ...}.

A band is written in closed form from Chebyshev coefficients.
Multiplication by p = sum_k a_k T_k is the symmetric stencil h[0] = a_0,
h[+-k] = a_k / 2, and (1 - x^2) T_n' = (n/2) (T_{n-1} - T_{n+1}).  Indices
that leave [0, nu+1] are brought back by one aliasing rule, the reflection
with period 2(nu+1): k < 0 goes to -k (T_{-k} = T_k, the Hankel part of
the multiplication operator) and nu+1+l goes to nu+1-l (T_{nu+1+l} =
T_{nu+1-l} at the grid points, the fold that closes the system).

Everything here is pure: no global state, all returned objects are meant
to be treated as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
from numpy.polynomial.chebyshev import poly2cheb


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

def dct1_forward(x) -> np.ndarray:
    """DCT-I on C^(nu+2): y_m = sum''_n cos(m n pi/(nu+1)) x_n.

    The double prime halves the n = 0 and n = nu+1 terms.  FFT-based,
    O(n log n).
    """
    x = np.asarray(x)
    if x.shape[0] < 3:
        raise ValueError("DCT-I needs at least 3 samples")
    return 0.5 * scipy.fft.dct(x, type=1)


def dct1_inverse(y) -> np.ndarray:
    """Inverse of :func:`dct1_forward`; the DCT-I is self-inverse up to 2/(nu+1)."""
    y = np.asarray(y)
    if y.shape[0] < 3:
        raise ValueError("DCT-I needs at least 3 samples")
    return dct1_forward(y) * (2.0 / (y.shape[0] - 1))


def real_if_zero_imag(a) -> np.ndarray:
    """``a`` as float64 when no entry has a nonzero imaginary part, else as complex128.

    The real part is taken only when the imaginary part is exactly zero, so
    nothing is dropped.
    """
    a = np.asarray(a)
    if a.dtype.kind == "c" and a.imag.any():
        return a.astype(np.complex128, copy=False)
    return a.real.astype(np.float64, copy=False)


def apply_collocation_matrix(alpha, grid: ClenshawCurtisGrid | None = None) -> np.ndarray:
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
    return dct1_forward(xt)


def apply_inverse_collocation(values) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through grid values (C^-1 @ values).

    Real values (or complex ones with a zero imaginary part) take a real
    DCT-I and give float64 coefficients, the same numbers as the complex
    transform at half the work; others give complex128.
    """
    z = dct1_inverse(real_if_zero_imag(values))
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
        data = _zero_rows_outside(self.data[:, lo:hi].copy(), self.upper_bw)
        return BandedMatrix(hi - lo, self.lower_bw, self.upper_bw, data=data,
                            dtype=self.data.dtype)


def _zero_rows_outside(data: np.ndarray, upper_bw: int) -> np.ndarray:
    """Zero, in place, the band slots of ``data`` that address rows outside [0, n).

    ``data`` is in LAPACK band layout; only the two corner triangles are
    touched, one diagonal at a time.
    """
    n = data.shape[1]
    for slot in range(data.shape[0]):
        off = slot - upper_bw
        if off < 0:
            data[slot, : min(-off, n)] = 0
        elif off > 0:
            data[slot, max(n - off, 0) :] = 0
    return data


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


def _chebyshev_stencil(p: Polynomial, w: int) -> np.ndarray:
    """Multiplication by ``p`` on {T_n} as a symmetric stencil over t = -w..w.

    p T_n = sum_t h[t] T_{n+t} with T_{-k} = T_k, where h[0] = a_0 and
    h[+-k] = a_k / 2 for the Chebyshev coefficients a_k of p.  Entry t sits
    at index w + t; ``w`` must be at least deg p.  Real p gives float64.
    """
    a = poly2cheb(real_if_zero_imag(p.coeffs))
    k = len(a)
    h = np.zeros(2 * w + 1, dtype=a.dtype)
    h[w : w + k] = a / 2.0
    h[w - k + 1 : w + 1] = a[::-1] / 2.0
    h[w] = a[0]
    return h


def build_banded_operator(p_diff: Polynomial, p_mult: Polynomial,
                          n_rows: int) -> BandedMatrix:
    """Banded matrix of the operator p_diff(x) d/dx + p_mult(x) on {T_n}.

    ``p_diff`` must be divisible by (1 - x^2).  Writing p_diff = (1-x^2) rho,
    column n is (n/2) rho (T_{n-1} - T_{n+1}) + p_mult T_n, so with the
    stencils h of :func:`_chebyshev_stencil` row n + t holds
    (n/2) (h_rho[t+1] - h_rho[t-1]) + h_p[t].  Slots for rows below 0 are
    reflected onto their mirror rows (T_{-k} = T_k) and rows at or past
    ``n_rows`` are dropped, so every column is the exact truncation of the
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
    w = max(rho.degree + 1 if not rho.is_zero else 0, p_mult.degree)
    if n_rows <= w + 1:
        raise ValueError(
            f"n_rows={n_rows} too small for operator of half-bandwidth {w + 1}"
        )
    h_rho = _chebyshev_stencil(rho, w + 1)
    h_p = _chebyshev_stencil(p_mult, w)
    data = np.outer(h_rho[2:] - h_rho[:-2], np.arange(n_rows) / 2.0) + h_p[:, None]
    for n in range(w):  # rows n - w .. -1 of column n fold onto rows w - n .. 1
        rows = np.arange(n - w, 0)
        data[w - rows - n, n] += data[w + rows - n, n]
    return BandedMatrix(n_rows, w, w, data=_zero_rows_outside(data, w), dtype=data.dtype)


def fold_operator(b: BandedMatrix, nu: int, d: int) -> BandedMatrix:
    """Fold the banded operator onto a (nu+2) x (nu+2) matrix.

    Row n of the result equals row n of ``b`` for n < nu - d and n = nu + 1;
    rows nu-d..nu additionally absorb row 2(nu+1) - n, which is aliased onto
    row n by the identity T_{nu+1+l}(c_m) = T_{nu+1-l}(c_m) at the grid
    points (the reflection of :func:`fold_chebyshev_tail`).  Only the last
    ``b.lower_bw`` columns reach rows past nu + 1.  Rows of ``b`` beyond
    nu + d + 2 are discarded; choosing d >= lower bandwidth - 1 guarantees
    nothing nonzero is dropped.
    """
    if nu <= d:
        raise UnsupportedRegimeError(
            f"folding needs nu > d (got nu={nu}, d={d}); fall back to the dense path"
        )
    if b.n < nu + d + 3:
        raise ValueError("operator matrix too small to fold: need rows up to nu + d + 2")
    n = nu + 2
    up = max(b.upper_bw, d + 1)
    out = BandedMatrix(n, b.lower_bw, up, dtype=b.data.dtype)
    out.data[up - b.upper_bw :] = b.data[:, :n]
    for m in range(max(0, n - b.lower_bw), n):  # rows nu+1+l fold onto nu+1-l
        rows = np.arange(n, min(m + b.lower_bw, nu + d + 2) + 1)
        out.data[up + 2 * (nu + 1) - rows - m, m] += out.data[up + rows - m, m]
    _zero_rows_outside(out.data, up)
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
