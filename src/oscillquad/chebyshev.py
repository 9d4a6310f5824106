"""Chebyshev-basis infrastructure.

Clenshaw-Curtis grids, endpoint derivatives of T_n, of polynomials and of
rational functions, DCT-I transforms, and banded matrices of the operators
``(1 - x^2) rho(x) d/dx + p_mult(x)`` acting on the basis {T_0, T_1, ...}.

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

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.sparse


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
        c = coeffs  # a 1-D complex128 array is taken as it is
        if not (type(c) is np.ndarray and c.dtype == np.complex128 and c.ndim == 1):
            c = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128)).ravel()
        if c.size == 0:
            c = np.zeros(1, dtype=np.complex128)
        last = c.size - 1
        if c[last] == 0:
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
        """Horner's rule (:func:`horner`)."""
        return horner(self.coeffs, x)

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


def horner(coeffs: np.ndarray, x):
    """sum_j coeffs[j] x^j by Horner's rule, with the operations of numpy's
    ``polyval``; float64 coefficients at real x evaluate in float64."""
    if isinstance(x, (tuple, list)):
        x = np.asarray(x)
    v = coeffs[-1] + x * 0
    for a in coeffs[-2::-1]:
        v = a + v * x
    return v


def polynomial_endpoint_derivatives(polys, l_max: int) -> np.ndarray:
    """d^l/dx^l at x = +1 (e = 0) and -1 (e = 1), l = 0..l_max, of each of
    ``polys`` as entry [k, e, l]: one pass of Horner's rule over the table of
    derivative coefficients c[1:] * (1, 2, ...), zero-padded to one length.
    Each entry gets polyval's operations on its own coefficients: at a real
    x, a padding zero times x is (0 x, 0), polyval's first term x * 0."""
    n = max(len(p.coeffs) for p in polys)
    table = np.zeros((len(polys), l_max + 1, n), dtype=np.complex128)
    for k, p in enumerate(polys):
        table[k, 0, : len(p.coeffs)] = p.coeffs
    for l in range(1, min(l_max, n - 1) + 1):
        np.multiply(table[:, l - 1, 1 : n - l + 1], np.arange(1, n - l + 1),
                    out=table[:, l, : n - l])
    ends = np.array([1.0, -1.0])
    v = table[:, :, -1, None] + ends * 0
    for j in range(n - 2, -1, -1):
        v = table[:, :, j, None] + v * ends
    return v.transpose(0, 2, 1)


#: 1 - x^2, the row-scaling prefactor used throughout the collocation setup.
ONE_MINUS_X2 = Polynomial([1.0, 0.0, -1.0])


class RationalFunction:
    """num(x) / den(x), used for oscillator matrix entries and amplitudes.

    Endpoint derivatives come from Leibniz's rule on num = f den, solved
    order by order from the exact polynomial derivatives of num and den at
    +-1, so they are exact up to rounding.  No finite differences.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = num
        self.den = den

    def __call__(self, x):
        return self.num(x) / self.den(x)

    def endpoint_derivatives(self, l_max: int) -> np.ndarray:
        """d^l/dx^l at +1 (row 0) and -1 (row 1) for l = 0..l_max."""
        return rational_endpoint_derivatives([self.num], self.den, l_max)[0]


def rational_endpoint_derivatives(nums, den: Polynomial, l_max: int) -> np.ndarray:
    """d^l/dx^l at +1 and -1 of num / den for each of ``nums``, laid out as in
    :func:`polynomial_endpoint_derivatives`: f^(l) = (num^(l) - sum_{p=1..l}
    C(l, p) den^(p) f^(l-p)) / den, subtracting left to right."""
    table = polynomial_endpoint_derivatives([*nums, den], l_max)
    num, den = table[:-1], table[-1]
    out = np.empty_like(num)
    terms = np.empty_like(num)  # num^(l), then the terms p = 1..l
    for l in range(l_max + 1):
        terms[..., 0] = num[..., l]
        terms[..., 1 : l + 1] = ([math.comb(l, p) for p in range(1, l + 1)]
                                 * den[:, 1 : l + 1] * out[..., l - 1 :: -1][..., :l])
        out[..., l] = np.subtract.reduce(terms[..., : l + 1], axis=-1) / den[:, 0]
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


@functools.lru_cache(maxsize=8)
def clenshaw_curtis_points(nu: int) -> ClenshawCurtisGrid:
    """Build the Clenshaw-Curtis grid with ``nu`` interior points.

    ``nu`` must be even and >= 2.  The grid is assembled from one half by
    mirroring with negation, so the symmetry c_m = -c_{nu+1-m} holds
    exactly in floating point.  Its arrays are read-only, and the grids of
    the last eight ``nu`` are kept and returned again.
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
# Endpoint derivatives
# ---------------------------------------------------------------------------

def endpoint_derivative_rows(n_max: int, l_max: int, sign: int) -> np.ndarray:
    """Table of [T_n^(l)](sign * 1), row l = 0..l_max, column n = 0..n_max.

    Uses the multiplicative recursion
    ``[T_n^(l)](+-1) = +- (n^2 - (l-1)^2)/(2l - 1) * [T_n^(l-1)](+-1)``
    seeded with T_n(+-1) = (+-1)^n, one order from the one before; the
    factor vanishes once l exceeds n, so entries with l > n come out
    exactly zero.
    """
    if n_max < 0 or l_max < 0:
        raise ValueError("n_max and l_max must be nonnegative")
    out = np.empty((l_max + 1, n_max + 1))
    out[0] = 1.0
    if sign != 1:
        out[0, 1::2] = -1.0
    n = np.arange(n_max + 1, dtype=np.float64)
    n2 = n * n
    for k in range(1, l_max + 1):
        np.multiply(out[k - 1], sign * (n2 - (k - 1) ** 2) / (2 * k - 1), out=out[k])
    return out


def real_if_zero_imag(a) -> np.ndarray:
    """``a`` as float64 when no entry has a nonzero imaginary part, else as complex128.

    The real part is taken only when the imaginary part is exactly zero, so
    nothing is dropped.
    """
    a = np.asarray(a)
    if a.dtype.kind == "c" and a.imag.any():
        return a.astype(np.complex128, copy=False)
    return a.real.astype(np.float64, copy=False)


def apply_collocation_matrix(alpha) -> np.ndarray:
    """Values at the grid of the Chebyshev series with coefficients ``alpha``.

    Computes C @ alpha with C[m, k] = T_k(c_m) = cos(m k pi/(nu+1)) via a
    single DCT-I after doubling the first and last coefficients.  Real
    coefficients (or complex ones with a zero imaginary part) take a real
    DCT-I and give float64 values; others give complex128.
    """
    alpha = real_if_zero_imag(alpha)
    if alpha.shape[0] < 3:
        raise ValueError("DCT-I needs at least 3 samples")
    xt = alpha.copy()
    xt[0] *= 2.0
    xt[-1] *= 2.0
    return 0.5 * scipy.fft.dct(xt, type=1)


def apply_inverse_collocation(values) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through grid values (C^-1 @ values).

    Real values (or complex ones with a zero imaginary part) take a real
    DCT-I and give float64 coefficients, the same numbers as the complex
    transform at half the work; others give complex128.  The DCT-I is its
    own inverse up to the factor 2/(nu+1).
    """
    v = real_if_zero_imag(values)
    n = v.shape[0]
    if n < 3:
        raise ValueError("DCT-I needs at least 3 samples")
    z = 0.5 * scipy.fft.dct(v, type=1) * (2.0 / (n - 1))
    z[0] *= 0.5
    z[-1] *= 0.5
    return z


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

    def as_dia(self) -> scipy.sparse.dia_array:
        """The same matrix as a ``scipy.sparse`` DIA array that shares ``data``:
        row ``upper_bw - k`` of the band is diagonal k (entry (i, i + k)), and
        DIA storage is indexed by column, as the band is.  Its product adds the
        diagonals in turn, from k = upper_bw down to -lower_bw.  It is a
        shallow copy of :func:`_dia_template` given this band as its data, so
        scipy validates the offsets once per shape, not once per view."""
        view = copy.copy(_dia_template(self.n, self.lower_bw, self.upper_bw))
        view.data = self.data
        return view

    def columns(self, js: tuple[int, ...]) -> np.ndarray:
        """Dense copies of columns ``js``, as the rows of a (len(js), n) array:
        column j is the band column ``data[:, j]``, rows j - upper_bw ..
        j + lower_bw, clipped to [0, n)."""
        ku, n = self.upper_bw, self.n
        out = np.zeros((len(js), n), dtype=self.data.dtype)
        for row, j in zip(out, js):
            lo, hi = max(j - ku, 0), min(j + self.lower_bw + 1, n)
            row[lo:hi] = self.data[ku + lo - j : ku + hi - j, j]
        return out

    def principal_submatrix(self, lo: int, hi: int, spare_rows: int = 0) -> "BandedMatrix":
        """Rows and columns lo..hi-1 as a new banded matrix on this one's
        half-widths, copied once into the only array it allocates.

        With ``spare_rows``, the band is the last rows of a Fortran-ordered
        array that has that many zero rows above it, the layout gbtrf
        factors in place (for kl spare rows).
        """
        if not (0 <= lo < hi <= self.n and spare_rows >= 0):
            raise ValueError("invalid submatrix range")
        kl, ku, n = self.lower_bw, self.upper_bw, hi - lo
        store = np.zeros((spare_rows + kl + ku + 1, n), dtype=self.data.dtype,
                         order="F" if spare_rows else "C")
        data = store[spare_rows:]
        data[...] = self.data[:, lo:hi]
        data[_outside_slots(n, kl, ku)] = 0
        return BandedMatrix(n, kl, ku, data=data, dtype=self.data.dtype)


# Shape-only index plans.  Each depends on sizes alone, never on a band's
# values; its arrays are read-only, and none grows with nu.

#: Entries each plan cache keeps.  Calls over five nu and three system
#: families meet at most 15 keys of any one plan cache, so all stay warm.
PLAN_CACHE_SIZE = 32


def _read_only(*arrays) -> tuple[np.ndarray, ...]:
    """``arrays``, each flagged read-only."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _dia_template(n: int, kl: int, ku: int) -> scipy.sparse.dia_array:
    """An n x n DIA array on the offsets ku .. -kl of a band on (kl, ku),
    holding no data; both its arrays are read-only."""
    template = scipy.sparse.dia_array(
        (np.zeros((kl + ku + 1, 0)), np.arange(ku, -kl - 1, -1)), shape=(n, n))
    _read_only(template.data, template.offsets)
    return template


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _outside_slots(n: int, kl: int, ku: int) -> tuple[np.ndarray, np.ndarray]:
    """(slots, cols) of the band slots of an n-column band on (kl, ku) that
    address rows outside [0, n): slot ku - d of the first min(d, n) columns
    and slot ku + d of the last, d = 1..ku and 1..kl."""
    slots, cols = [], []
    for d in range(1, ku + 1):
        slots += [ku - d] * min(d, n)
        cols += range(min(d, n))
    for d in range(1, kl + 1):
        slots += [ku + d] * min(d, n)
        cols += range(max(n - d, 0), n)
    return _read_only(np.array(slots, dtype=np.intp), np.array(cols, dtype=np.intp))


# ---------------------------------------------------------------------------
# Banded operator construction
# ---------------------------------------------------------------------------

def _chebyshev_stencil(p: Polynomial, w: int) -> np.ndarray:
    """Multiplication by ``p`` on {T_n} as a symmetric stencil over t = -w..w.

    p T_n = sum_t h[t] T_{n+t} with T_{-k} = T_k, where h[0] = a_0 and
    h[+-k] = a_k / 2 for the Chebyshev coefficients a_k of p.  Entry t sits
    at index w + t; ``w`` must be at least deg p.  Real p gives float64.

    The stencil is the Laurent series of p((z + 1/z) / 2) in z, expanded by
    Horner's rule: multiplication by x = (z + 1/z) / 2 averages the two
    neighbours of each slot.  The buffer has one spare slot at each end.
    """
    a = real_if_zero_imag(p.coeffs)
    h = np.zeros(2 * w + 3, dtype=a.dtype)
    h[w + 1] = 0 + a[-1]  # the first step, on a zero buffer
    for a_k in a[-2::-1]:
        h[1:-1] = 0.5 * (h[:-2] + h[2:])
        h[w + 1] += a_k
    return h[1:-1]


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _reflection_slots(w: int) -> tuple[np.ndarray, ...]:
    """(below, above, cols): slot ``below`` of column ``cols`` (a row below
    0, for the first w columns of an operator of half-width w) folds onto
    slot ``above``, its mirror row; slot 2 w - below of column -1 - cols is
    a row past the last, as seen from the end."""
    n, j = np.nonzero(np.arange(w)[:, None] <= np.arange(w))
    below = w - 1 - j
    return _read_only(below, below + 2 * (j - n + 1), n)


def build_banded_operator(rho: Polynomial, p_mult: Polynomial,
                          n_rows: int) -> BandedMatrix:
    """Banded matrix of the operator (1 - x^2) rho(x) d/dx + p_mult(x) on {T_n}.

    Column n is (n/2) rho (T_{n-1} - T_{n+1}) + p_mult T_n, so with the
    stencils h of :func:`_chebyshev_stencil` row n + t holds
    (n/2) (h_rho[t+1] - h_rho[t-1]) + h_p[t].  Slots for rows below 0 are
    reflected onto their mirror rows (T_{-k} = T_k) and rows at or past
    ``n_rows`` are dropped, so every column is the exact truncation of the
    infinite operator.  The matrix is float64 when both polynomials have
    real coefficients, complex128 otherwise.
    """
    if not isinstance(rho, Polynomial):
        rho = Polynomial(rho)
    if not isinstance(p_mult, Polynomial):
        p_mult = Polynomial(p_mult)
    w = max(rho.degree + 1 if not rho.is_zero else 0, p_mult.degree)
    if n_rows <= w + 1:
        raise ValueError(
            f"n_rows={n_rows} too small for operator of half-bandwidth {w + 1}"
        )
    h_rho = _chebyshev_stencil(rho, w + 1)
    h_p = _chebyshev_stencil(p_mult, w)
    data = np.empty((2 * w + 1, n_rows), dtype=np.result_type(h_rho, h_p))
    np.multiply((h_rho[2:] - h_rho[:-2])[:, None], np.arange(n_rows) / 2.0, out=data)
    data += h_p[:, None]
    # Row -t of column n < w (slot w - t - n, t <= w - n) folds onto row t;
    # it and row n_rows - 1 + t of column n_rows - 1 - n are the slots for
    # rows outside the matrix, then zeroed.
    below, above, n = _reflection_slots(w)
    data[above, n] += data[below, n]
    data[below, n] = 0
    data[2 * w - below, -1 - n] = 0
    return BandedMatrix(n_rows, w, w, data=data, dtype=data.dtype)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _fold_slots(nu: int, d: int, m: int, kl: int, ku: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The index plan of :func:`fold_operator`: (slots, cols) of every slot
    of the last columns that addresses a row r = m (nu+1+l) + a at or past
    n = m (nu + 2); (slots, cols) of those with l <= d + 1 whose reflection
    would leave the band; and (to, slots, cols) of those folded onto slot
    ``to``, row r - 2 m l."""
    n = m * (nu + 2)
    cols = np.arange(max(0, n - kl), n)
    r, c = np.nonzero(np.arange(n, n + kl)[:, None] <= cols + kl)
    r += n
    c = cols[c]
    slot = ku + r - c
    to = slot - 2 * m * (r // m - nu - 1)
    folds = r < m * (nu + d + 3)
    outside = folds & (to < 0)
    folds &= to >= 0
    return (_read_only(slot, c), _read_only(slot[outside], c[outside]),
            _read_only(to[folds], slot[folds], c[folds]))


def fold_operator(b: BandedMatrix, nu: int, d: int, stride: int = 1) -> BandedMatrix:
    """Fold the banded operator onto the grid, on ``b``'s own half-widths.

    ``b`` interleaves ``stride`` components (row stride n + a is row n of
    component a); the result has stride (nu + 2) rows.  Row stride (nu+1+l) + a,
    l = 1..d+1, is added to row stride (nu+1-l) + a, as T_{nu+1+l} = T_{nu+1-l}
    at the grid points (:func:`fold_chebyshev_tail`); later rows are dropped,
    so d >= (a block's lower half-width) - 1 drops nothing.  Each block must be
    as wide above the diagonal as below, as the operator's are: column c <= nu+1
    of a block of half-width w meets row nu+1+l only for l <= w + c - nu - 1,
    whose reflection lies c - nu - 1 + l <= w above the diagonal.  A nonzero
    entry whose reflection would leave the band raises ValueError.
    """
    if nu <= d:
        raise UnsupportedRegimeError(
            f"nu={nu} too small for operator bandwidth (need nu > {d})")
    m, kl, ku = stride, b.lower_bw, b.upper_bw
    if b.n < m * (nu + d + 3):
        raise ValueError("operator matrix too small to fold: need rows up to nu + d + 2")
    n = m * (nu + 2)
    data = b.data[:, :n].copy()
    # Slot ku + r - c of column c is row r = m (nu+1+l) + a >= n, folded onto
    # slot ku + r - 2 m l - c for l <= d + 1; then all are zeroed.
    past, outside, (to, slots, cols) = _fold_slots(nu, d, m, kl, ku)
    if data[outside].any():
        raise ValueError("a block of the operator is wider below the diagonal than above")
    data[to, cols] += data[slots, cols]
    data[past] = 0
    return BandedMatrix(n, kl, ku, data=data, dtype=data.dtype)


def fold_chebyshev_tail(coeffs, nu: int) -> np.ndarray:
    """Alias Chebyshev coefficients onto indices 0..nu+1, along the last axis.

    Index k maps to its reflection into [0, nu+1] under the dihedral
    aliasing of cos(m k pi/(nu+1)) in k (period 2(nu+1), even symmetry),
    so the returned series takes the same values on the grid.  Real
    coefficients stay real.
    """
    c = np.asarray(coeffs)
    out = np.zeros(c.shape[:-1] + (nu + 2,), dtype=np.result_type(c, np.float64))
    # Indices come in runs of nu + 1 from each multiple of nu + 1: even runs
    # map onto 0, 1, ..., odd runs onto nu + 1, nu, ...  Adding the runs in
    # turn adds each target's terms in index order.
    for j, start in enumerate(range(0, c.shape[-1], nu + 1)):
        run = c[..., start : start + nu + 1]
        length = run.shape[-1]
        if j % 2 == 0:
            out[..., :length] += run
        else:
            out[..., nu + 1 : nu + 1 - length : -1] += run
    return out
