"""Accelerated Levin collocation on Clenshaw-Curtis points.

The collocation operator, row-scaled by (1 - x^2) and with denominators
cleared by r(x), acts on the Chebyshev basis as a banded matrix.  Folding
its high-order columns back onto the grid (aliasing) gives a finite banded
system, solved through one DCT-I per component and a banded LU.  The two
boundary unknowns per component that the row scaling annihilates come
from null vectors through a small bordering system, whose directions below
their rounding floor are left out; for s >= 1 endpoint-derivative
conditions add 2s tail coefficients per component.

The engine holds what does not depend on f: the folded operator as one
band interleaved over components (unknowns in Hockney order; the equations
of each grid point in the order, chosen once per build from the block
half-widths, that makes the interior band narrowest, which for Bessel
swaps the two), its LU, every endpoint condition (l = 0..s) as one matrix
of rows over the whole basis, the null vectors and tail columns as one
correction basis (one multi-column banded solve, in coefficient space),
and one small matrix W that inverts the conditions on that basis; also
r(+-1), |r(+-1)|, (1 - x^2) r on the grid and a scipy DIA view of the
band, so that a call recomputes no constant.  A call then costs one
inverse DCT-I per component with a nonzero sample (an all-zero component
gets zero coefficients without one), taken in the band's equation order,
one one-column banded solve and two products: g = rows head, then
head + basis^T W (targets - g).  The residual check applies the band as
one scipy band product and the tail columns as one matrix product, bounds
the interior rows in coefficient space, and spends one forward transform
per component only when that bound does not clear the flag level.

Building each operator block, interleaving the blocks and folding the
band take a fixed number of numpy calls (small index arrays, one strided
slice per block), not a loop over columns or diagonals; the condition
rows take one broadcast Leibniz product per (l, p), and the endpoint
derivatives of r and every r G entry one pass of Horner's rule.  Each
entry still gets the floating-point operations, in the order, of its
entry-by-entry definition: the border pseudo-inverse amplifies a one-ulp
change.

One slot keeps the last engine built (``_engine_for``), keyed by nu, s and
the coefficients of r and r G (which fix M); a miss drops the old engine
before building the new one, so two never live at once.  The engine works
in the field of its system: float64 when r and every r G entry are real
(the Bessel family), complex128 otherwise; a complex amplitude on a real
engine is solved as its real and imaginary parts.  An M = 2 engine keeps
about 0.9 KB per unit of nu, which ``MAX_NU`` bounds.  The build
interleaves the unfolded blocks into one band on exact half-widths, which
the fold, the interior band and its LU keep, folds that band once, and
writes the interior band and the right-hand sides once, in the layout
gbtrf and gbtrs read.  Each build is logged at DEBUG level.  All entry
points are pure functions of their problem; a shared engine is read-only.

Besides that slot, the library keeps only values that depend on a
problem's shape (nu, s, M, block half-widths), each computed once in a
bounded ``functools.lru_cache`` and read-only, so that a build runs only
the arithmetic on its system's coefficients; the README's cache table
lists them.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .banded import (
    SingularMatrixError,
    banded_lu_factor,
    banded_solve,
    dense_solve,
    narrowest_equation_order,
    reorder_block_banded,
)
from .chebyshev import (
    ONE_MINUS_X2,
    PLAN_CACHE_SIZE,
    BandedMatrix,
    Polynomial,
    UnsupportedRegimeError,
    apply_collocation_matrix,
    apply_inverse_collocation,
    build_banded_operator,
    clenshaw_curtis_points,
    endpoint_derivative_rows,
    fold_chebyshev_tail,
    fold_operator,
    polynomial_endpoint_derivatives,
    real_if_zero_imag,
)
from .oscillator import AmplitudeSpec, OscillatorSystem


#: Fallbacks and engine builds are logged here; silent until the application
#: configures logging.
_log = logging.getLogger("oscillquad")
_log.addHandler(logging.NullHandler())


class UnsolvableProblemError(RuntimeError):
    """Both the fast path and the dense reference path failed."""


class NonFiniteAmplitudeError(ValueError):
    """An amplitude sample on the collocation grid, or an endpoint
    derivative the solve reads, is NaN or infinite."""


class NuTooLargeError(ValueError):
    """nu is above ``MAX_NU``; raised before anything is allocated."""


#: Largest accepted nu.  An M = 2 engine keeps about 0.9 KB per unit of nu
#: (about 1 GB here), and the benchmark workloads, tests and demos stay
#: at or below nu = 32768.
MAX_NU = 2**20


#: Solves whose scaled residual exceeds this factor times omega * max|f|
#: are flagged (not rejected).
RESIDUAL_FLAG_FACTOR = 1e-5

#: Singular values of the bordering matrix, in units of its columns'
#: rounding floors, at or below which a direction counts as unresolved.
#: Over the benchmark workloads they fall below 1e6 (noise) or above 1e7.
BORDER_RESOLVED = 1e6


@dataclass(frozen=True)
class LevinProblem:
    """A quadrature task: oscillator system, amplitude, nu interior points, order s."""

    system: OscillatorSystem
    amplitude: AmplitudeSpec
    nu: int
    s: int = 0

    def __post_init__(self):
        for name in ("nu", "s"):
            value = getattr(self, name)
            # a bool has __index__, but is never a count
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.nu < 2 or self.nu % 2 != 0:
            raise ValueError(f"nu must be even and >= 2, got {self.nu}")
        if self.nu > MAX_NU:
            raise NuTooLargeError(f"nu={self.nu} is above the limit MAX_NU = {MAX_NU}")
        if self.s < 0:
            raise ValueError("s must be >= 0")
        if len(self.amplitude.components) != self.system.dim:
            raise ValueError(
                f"amplitude has {len(self.amplitude.components)} components, "
                f"system has {self.system.dim}"
            )
        if self.s >= 1 and self.amplitude.max_derivative_order < self.s:
            raise ValueError(
                f"s={self.s} requires amplitude endpoint derivatives up to "
                f"order {self.s}; only {self.amplitude.max_derivative_order} supplied"
            )
        if self.s >= 1:
            for name in ("deriv_plus", "deriv_minus"):
                if not np.isfinite(getattr(self.amplitude, name)[: self.s]).all():
                    raise NonFiniteAmplitudeError(
                        f"{name} of amplitude '{self.amplitude.name or '<anonymous>'}' "
                        f"is not finite at orders 1..{self.s}")

    @property
    def n_basis(self) -> int:
        return self.nu + 2 * self.s + 2


@dataclass(frozen=True)
class QuadratureResult:
    """Quadrature value plus solve diagnostics.

    ``coeffs[k]`` holds the nu+2s+2 Chebyshev coefficients of the k-th
    solution component; the boundary evaluation of those coefficients
    against w(+-1) reproduces ``value``.
    """

    value: complex
    coeffs: np.ndarray
    #: Max collocation residual over the grid.  On an accepted fast solve
    #: this can be an upper bound on it (``CollocationEngine.residual``).
    residual: float
    path: str
    wall_time: float
    flagged: bool = False
    #: Why the fast path was abandoned (exception type and message, or the
    #: flagged residual); None when the fast path was accepted.
    fallback_reason: str | None = None
    #: True when the fast path used an engine already built by an earlier call.
    engine_reused: bool = False


# ---------------------------------------------------------------------------
# Engine: everything that depends on (system, nu, s) but not on f
# ---------------------------------------------------------------------------

class CollocationEngine:
    """Factored fast-path machinery, reusable across right-hand sides."""

    def __init__(self, system: OscillatorSystem, nu: int, s: int = 0):
        m = system.dim
        self.system = system
        self.nu = nu
        self.s = s
        self.m = m
        self.grid = clenshaw_curtis_points(nu)
        # r, then the entries (i, j) of (r G)^T, which are r_g[j][i]
        polys = [system.r] + [system.r_g[j][i] for i in range(m) for j in range(m)]
        # The field of the system, decided here once: float64 exactly when r
        # and every r G entry have real coefficients, complex128 otherwise.
        # The operator blocks below come out in the same field.
        self.dtype = np.dtype(np.complex128 if np.concatenate([p.coeffs for p in polys]).imag.any()
                              else np.float64)
        self.r_vals = self._in_field(system.r(self.grid.points))
        # r(+-1), |r(+-1)| once per (component, end), and (1 - x^2) r, which
        # scales each call's right-hand side
        self.r_end = self.r_vals[[0, -1]]
        self.r_end_abs = np.tile(np.abs(self.r_end), m)
        self.sin2_r = self.grid.sin2 * self.r_vals

        # (1-x^2)-scaled, r-cleared operator blocks on a generous basis range:
        # (1-x^2) r d/dx on the diagonal blocks, plus (1-x^2) (r G)^T.
        p_mult = [ONE_MINUS_X2 * p for p in polys[1:]]
        max_deg = max(max(p.degree for p in p_mult), system.r.degree + 2)
        n_build = nu + 2 * s + 2 + max_deg + 4
        zero = Polynomial([0.0]) if m > 1 else None
        blocks = [
            [build_banded_operator(system.r if i == j else zero, p_mult[m * i + j], n_build)
             for j in range(m)]
            for i in range(m)
        ]
        widths = tuple(tuple(b.lower_bw for b in row) for row in blocks)  # as wide above
        n_all = nu + 2 * s + 2
        # The blocks interleaved into one band (row M*n + a of column M*n' + j
        # is entry (n, n') of block (order[a], j)), the M equations of each
        # grid point in the order whose band is narrowest (for Bessel, swapped).
        self.order = narrowest_equation_order(widths)
        band = reorder_block_banded([blocks[i] for i in self.order])
        del blocks
        # For s >= 1, the tail columns: the scaled operator applied to each tail
        # element e_k T_n (n = nu+2 .. nu+2s+1), aliased onto the grid, with
        # its equations in band order.
        unit_slots, unit_cols = _correction_units(m, nu, s)
        n_tail = 2 * m * s
        if s:
            tail_cols = band.columns(unit_cols[2 * m :]).reshape(n_tail, n_build, m)
            self.tail_ops = fold_chebyshev_tail(tail_cols.transpose(0, 2, 1), nu)
        else:
            self.tail_ops = np.zeros((0, m, nu + 2), dtype=self.dtype)
        # The band folded onto the grid, on its own half-widths; its interior
        # rows and columns n = 1..nu are the projected system.
        self.operator = fold_operator(band, nu, max(map(max, widths)) - 1, stride=m)
        del band
        # The residual's product, a view of the band
        self.operator_dia = self.operator.as_dia()
        # The interior, copied once into the array that gbtrf factors in place.
        self.lu = banded_lu_factor(self.operator.principal_submatrix(
            m, m * (nu + 1), spare_rows=self.operator.lower_bw))
        # (1 - c_m^2) |r(c_m)| on the interior points, which the residual
        # divides by
        self.interior_scale = (self.grid.sin2 * np.abs(self.r_vals))[1:-1]
        self.interior_floor = float(self.interior_scale.min())

        # Cleared endpoint conditions d^l [r L q]_i (+-1), l = 0..s, by Leibniz
        # on exact derivatives of r, r G and T_n: row (l, i, e) holds condition
        # (i, l) at x = +1 (e = 0) or -1 (e = 1), over alpha_n^[j] at column
        # j (nu+2s+2) + n; the 2M rows of l = 0 are the endpoint rows.  Each
        # entry adds its terms for p = 0..l, the r term before the (r G)^T one.
        ends = self._in_field(polynomial_endpoint_derivatives(polys, s))
        self.r_derivs = ends[0]
        gt_derivs = ends[1:].reshape(m, m, 2, s + 1).transpose(0, 2, 1, 3)  # (i, e, j, p)
        t_tabs = _endpoint_tables(n_all - 1, s + 1)
        # T_n(-1) = (-1)^n, the weights of q(-1) in the boundary value.
        self.signs = t_tabs[1, 0].copy()
        rows = np.zeros((s + 1, m, 2, m, n_all), dtype=self.dtype)
        diag = np.einsum("liein->lien", rows)  # a view: rows of condition i on column block i
        for l in range(s + 1):
            for p in range(l + 1):
                c = math.comb(l, p)
                diag[l] += c * self.r_derivs[:, p, None] * t_tabs[:, l + 1 - p]
                rows[l] += (c * gt_derivs[..., p])[..., None] * t_tabs[:, None, l - p]
        self.rows = rows.reshape(2 * m * (s + 1), m * n_all)

        # The correction basis, over the same columns: the 2M null vectors
        # (e_{k,end} + the interior part against endpoint column (k, end)),
        # then the 2Ms tail columns (e_{k,n} + the interior part cancelling
        # the operator on it), from one multi-column banded solve.  The
        # right-hand sides are the C-ordered (K, nu, M) array that is the
        # Fortran-ordered (M nu, K) matrix gbtrs reads, in the band's order.
        n_units = len(unit_cols)
        rhs = np.empty((n_units, nu, m), dtype=self.dtype)
        rhs[: 2 * m] = self.operator.columns(unit_cols[: 2 * m])[:, m : m * (nu + 1)].reshape(
            2 * m, nu, m)
        rhs[2 * m :] = self.tail_ops[:, :, 1 : nu + 1].transpose(0, 2, 1)
        np.negative(rhs, out=rhs)
        x = banded_solve(self.lu, rhs.reshape(n_units, nu * m).T)
        basis = np.zeros((n_units, m, n_all), dtype=x.dtype)
        basis[:, :, 1 : nu + 1] = x.reshape(nu, m, n_units).transpose(2, 1, 0)
        basis[unit_slots] = 1.0
        self.basis = basis.reshape(n_units, m * n_all)
        del rhs, x  # the build's peak comes later

        # A call solves C w = targets - rows head for the weights of the
        # basis, C = rows basis^T = [[B, E], [T, U]] (B, the border: endpoint
        # rows on null vectors).  W does it by blocks, B through its
        # pseudo-inverse P and S = U - T P E through one solve against the
        # identity: W = [[P + P E S^-1 T P, -P E S^-1], [-S^-1 T P, S^-1]].
        # C and each call's condition values are summed pairwise: the endpoint
        # rows weigh coefficient n by up to n^2, and P amplifies their rounding.
        products = np.empty_like(self.rows)
        cond = np.empty((len(self.rows), len(self.basis)), dtype=self.rows.dtype)
        for k, v in enumerate(self.basis):
            np.multiply(self.rows, v, out=products).sum(axis=1, out=cond[:, k])
        del products
        self.border = cond[: 2 * m, : 2 * m]
        pinv = self._border_pseudo_inverse()
        # Why the tail system failed its pivot screen; each call raises it.
        self.tail_singular = None
        if s == 0:
            self.weights = pinv
            return
        end_fix = pinv @ cond[: 2 * m, 2 * m :]
        try:
            s_inv = dense_solve(cond[2 * m :, 2 * m :] - cond[2 * m :, : 2 * m] @ end_fix,
                                np.eye(n_tail))
        except SingularMatrixError as exc:
            self.tail_singular = exc
            self.weights = None
            return
        lower = np.hstack([-s_inv @ cond[2 * m :, : 2 * m] @ pinv, s_inv])
        self.weights = np.vstack([np.hstack([pinv, np.zeros_like(end_fix)])
                                  - end_fix @ lower, lower])

    def kept_arrays(self) -> list[np.ndarray]:
        """Every array the engine keeps, its grid's included."""
        return [a for a in (self.grid.points, self.grid.sin2, self.r_vals, self.r_end,
                            self.r_end_abs, self.sin2_r, self.operator.data,
                            self.operator_dia.offsets, self.tail_ops, self.lu.factors.data,
                            self.lu.pivots, self.interior_scale, self.r_derivs, self.signs,
                            self.rows, self.basis, self.border, self.weights)
                if a is not None]

    def interior_band(self) -> BandedMatrix:
        """The projected system: rows and columns M .. M(nu+1)-1 of the
        operator, equations in band order, on its half-widths, which are the
        LU's; a new band like the one the engine factors and does not keep."""
        return self.operator.principal_submatrix(self.m, self.m * (self.nu + 1))

    def _in_field(self, values) -> np.ndarray:
        """Values of this system's polynomials in the engine's field; a real
        system's values have exactly zero imaginary parts."""
        values = np.asarray(values)
        if self.dtype == np.float64:
            return np.ascontiguousarray(values.real)
        return values.astype(np.complex128, copy=False)

    def _border_pseudo_inverse(self) -> np.ndarray:
        """Solver for the bordering system that leaves out unresolved directions.

        The endpoint rows weigh coefficient n by up to n^2, so border column
        j carries a rounding floor of eps * sum_n |row_n| |v_jn| that can
        exceed its value: when nu is well above omega some null-vector
        combination is, to rounding, a homogeneous solution, the value does
        not depend on its weight, and solving for that weight only
        amplifies noise.  In units of the floors, singular directions at or
        below BORDER_RESOLVED are dropped (minimum-norm solution).  A column
        that is not finite in these units (a zero floor, or one so small
        that dividing by it overflows, as at a tiny omega), or no resolved
        direction at all, raises.
        """
        m = self.m
        absv = np.abs(self.basis[: 2 * m])
        absr = np.abs(self.rows[: 2 * m])
        floor = np.finfo(np.float64).eps * np.maximum(
            (absv @ absr[0::2].T).max(axis=1), (absv @ absr[1::2].T).max(axis=1))
        with np.errstate(all="ignore"):
            scaled = self.border / floor
        if not np.isfinite(scaled).all():
            col = int(np.argmin(np.isfinite(scaled).all(axis=0)))
            raise SingularMatrixError(
                f"column {col} of the bordering system is not finite in units of its "
                f"rounding floor {floor[col]:.3e}", col)
        u, sig, vh = np.linalg.svd(scaled)
        keep = sig > BORDER_RESOLVED
        if not keep.any():
            raise SingularMatrixError("no direction of the bordering system is resolved")
        return (vh[keep].conj().T / sig[keep]) @ u[:, keep].conj().T / floor[:, None]

    # -- cleared solves ------------------------------------------------------

    def solve_cleared(self, rhs_scaled: np.ndarray,
                      targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve the cleared collocation system A alpha = b.

        ``rhs_scaled[i, m]`` holds (1 - c_m^2) b_i(c_m) on the grid, zero at
        the endpoints; ``targets`` the values of the conditions in row order:
        b_i(+1), b_i(-1) in (component, end) order, then for s >= 1 the
        cleared endpoint derivatives in (order, component, end) order.
        Returns the coefficients (M, nu+2s+2), real when the engine and the
        right-hand side are both real, and z (M, nu+2), the DCT-I
        coefficients of each component's scaled right-hand side in the
        band's equation order (row a is component ``order[a]``), which
        ``residual`` checks against; a component with no nonzero sample is
        not transformed, and its z row is zero.  Raises the engine's
        ``SingularMatrixError`` when its tail system failed the pivot screen.
        """
        if self.tail_singular is not None:
            raise SingularMatrixError(str(self.tail_singular), self.tail_singular.pivot_index)
        m, nu = self.m, self.nu
        in_band_order = [rhs_scaled[i] for i in self.order]
        z = np.array([apply_inverse_collocation(row) if row.any() else np.zeros(nu + 2)
                      for row in in_band_order])
        x = banded_solve(self.lu, z[:, 1 : nu + 1].T.reshape(-1))
        coeffs = np.zeros((m, nu + 2 * self.s + 2), dtype=np.result_type(x, targets))
        coeffs[:, 1 : nu + 1] = x.reshape(nu, m).T
        head = coeffs.reshape(-1)
        head += (self.weights @ (targets - (self.rows * head).sum(axis=1))) @ self.basis
        return coeffs, z

    # -- residual --------------------------------------------------------------

    def residual(self, coeffs: np.ndarray, rhs_scaled: np.ndarray, targets: np.ndarray,
                 z: np.ndarray, level: float) -> float:
        """Max collocation residual |L_omega q - f| over all grid points, or
        an upper bound on it that is at most ``level``.

        ``coeffs`` (M, nu+2s+2) holds head and tail; ``rhs_scaled``,
        ``targets`` and ``z`` are the scaled right-hand side and condition
        values given to ``solve_cleared`` and the DCT-I coefficients it
        returned.  The endpoint rows (recovered by the bordering solve) are
        checked directly against the first 2M targets, divided back by
        r(+-1).  The interior rows are in scaled cleared form: acc, the
        operator applied to the head plus the tail, should have the values
        C z.  As |T_k(c_m)| <= 1, the interior
        residuals are at most (||acc - z||_1 + the round trip's rounding)
        / min_m (1 - c_m^2) |r(c_m)|.  When that bound and the endpoint
        residual are at most ``level``, their maximum is returned with no
        transform.  Otherwise (a NaN bound included) the interior rows are
        checked exactly, by one forward transform per component, and the
        exact maximum is returned.
        """
        m, nu = self.m, self.nu
        acc = (self.operator_dia @ coeffs[:, : nu + 2].T.reshape(-1)).reshape(nu + 2, m).T
        if self.s:
            acc = acc + (coeffs[:, nu + 2 :].reshape(-1)
                         @ self.tail_ops.reshape(len(self.tail_ops), -1)).reshape(m, nu + 2)
        ends = np.abs(self.rows[: 2 * m] @ coeffs.reshape(-1) - targets[: 2 * m]) / self.r_end_abs
        bound = (np.abs(acc - z).sum(axis=1) + _dct_rounding_bound(z)).max() / self.interior_floor
        # np.maximum keeps a NaN, which is not <= level.
        certified = float(np.maximum(bound, ends.max()))
        if certified <= level:
            return certified
        y = np.array([apply_collocation_matrix(a) for a in acc])
        rhs = rhs_scaled[list(self.order), 1:-1]  # band order
        interior = np.abs(y[:, 1:-1] - rhs) / self.interior_scale
        return float(max(interior.max(), ends.max()))


def _dct_rounding_bound(z: np.ndarray) -> np.ndarray:
    """Bound on max_m |C z - v|_m for each row of ``z`` (K, nu+2), the
    Chebyshev coefficients of grid values v by one DCT-I, with C z taken by
    a second: 8 log2(n) u sqrt(n) ||z||_2, n = 2(nu+1) the FFT length, u
    the unit roundoff (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 24).  Measured round trips stay under a
    twentieth of it for nu from 2 to 32768.  The norm is BLAS nrm2, called
    as ``scipy.linalg.norm`` calls it for a vector; it scales as it sums, so
    that no square underflows (a tiny amplitude) or overflows."""
    n = 2 * (z.shape[-1] - 1)
    u = np.finfo(np.float64).eps / 2
    nrm2 = scipy.linalg.get_blas_funcs("nrm2", dtype=z.dtype, ilp64="preferred")
    norm = np.array([nrm2(row) for row in z])
    return 8 * math.log2(n) * u * math.sqrt(n) * norm


#: The last engine built, as (key, engine); None when empty.
_engine_slot: tuple | None = None


def _engine_for(system: OscillatorSystem, nu: int, s: int) -> tuple[CollocationEngine, bool]:
    """The engine for (system, nu, s), and whether it came from the slot.

    The key holds everything the engine reads from ``system``: the
    coefficients of r and of each r G entry (whose count fixes M).  Threads
    may race on the slot; the loser only builds an engine it could have
    shared.
    """
    global _engine_slot
    key = (nu, s, system.r.coeffs.tobytes(),
           tuple(p.coeffs.tobytes() for row in system.r_g for p in row))
    slot = _engine_slot
    if slot is not None and slot[0] == key:
        return slot[1], True
    # Drop the old engine before building, so that two never live at once;
    # a build that raises leaves the slot empty.
    del slot
    _engine_slot = None
    t0 = time.perf_counter()
    engine = CollocationEngine(system, nu, s)
    # Every later call with this key shares the engine: no caller may write
    # to it.  ``system`` stays the caller's.
    kept = engine.kept_arrays()
    for array in kept:
        array.setflags(write=False)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("built engine: M=%d nu=%d s=%d field=%s in %.6f s, keeping %d bytes",
                   engine.m, nu, s, engine.dtype.name, time.perf_counter() - t0,
                   sum(array.nbytes for array in kept))
    _engine_slot = (key, engine)
    return engine, False


def _forget_engine() -> None:
    """Empty the engine slot, so that the next fast solve builds its engine."""
    global _engine_slot
    _engine_slot = None


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _correction_units(m: int, nu: int, s: int) -> tuple[tuple[np.ndarray, ...], tuple[int, ...]]:
    """The units of the correction basis: the 2M endpoint unknowns (k, end),
    end = 0 and nu + 1, then the 2Ms tail elements (k, n), n = nu+2 ..
    nu+2s+1, in that order.  Returns the (unit, k, n) slots of their unit
    entries in the (units, M, nu+2s+2) basis, read-only, and the band column
    M n + k of each."""
    units = ([(k, end) for k in range(m) for end in (0, nu + 1)]
             + [(k, n) for k in range(m) for n in range(nu + 2, nu + 2 * s + 2)])
    slots = (np.arange(len(units)), np.array([k for k, _ in units]),
             np.array([n for _, n in units]))
    for a in slots:
        a.setflags(write=False)
    return slots, tuple(m * n + k for k, n in units)


@functools.lru_cache(maxsize=8)
def _endpoint_tables(n_max: int, l_max: int) -> np.ndarray:
    """[T_n^(l)](+1) and [T_n^(l)](-1), n = 0..n_max, l = 0..l_max, as one
    read-only (2, l_max + 1, n_max + 1) array; the last eight sizes are kept."""
    tables = np.array([endpoint_derivative_rows(n_max, l_max, sign) for sign in (+1, -1)])
    tables.setflags(write=False)
    return tables


# ---------------------------------------------------------------------------
# Endpoint-derivative (tail) conditions for s >= 1
# ---------------------------------------------------------------------------

def _cleared_f_derivatives(eng: CollocationEngine, amplitude: AmplitudeSpec,
                           f_values: np.ndarray) -> np.ndarray:
    """d^l [r f_i] at the endpoints, one per tail row in (order l >= 1,
    component i, end) order, by Leibniz on exact r derivatives; real when
    they all are."""
    f_ders = [
        [f_values[:, 0]] + [amplitude.derivative(q, +1) for q in range(1, eng.s + 1)],
        [f_values[:, -1]] + [amplitude.derivative(q, -1) for q in range(1, eng.s + 1)],
    ]
    return real_if_zero_imag([
        sum(math.comb(l, p) * eng.r_derivs[e][p] * f_ders[e][l - p][i] for p in range(l + 1))
        for l in range(1, eng.s + 1) for i in range(eng.m) for e in (0, 1)
    ])


# ---------------------------------------------------------------------------
# Fast path
# ---------------------------------------------------------------------------

def _check_finite_samples(f_values: np.ndarray, points: np.ndarray) -> None:
    """Raise NonFiniteAmplitudeError on the first NaN or infinite sample
    ``f_values[i, m]`` of amplitude component i at ``points[m]``."""
    finite = np.isfinite(f_values)
    if not finite.all():
        i, m = np.argwhere(~finite)[0]
        raise NonFiniteAmplitudeError(
            f"amplitude component {i} is {f_values[i, m]} at x = {points[m]!r}")


def _fast_path_label(problem: LevinProblem) -> str:
    """The (M, s) cell: ``scalar`` for M = 1 or ``block``, then ``_s0`` for s = 0 or ``_s``."""
    size = "scalar" if problem.system.dim == 1 else "block"
    return f"{size}_s0" if problem.s == 0 else f"{size}_s"


def _solve_fast(problem: LevinProblem) -> QuadratureResult:
    """One banded solve for every (M, s); the result's path names the case."""
    t0 = time.perf_counter()
    eng, reused = _engine_for(problem.system, problem.nu, problem.s)
    grid = eng.grid

    f_values = problem.amplitude.values(grid.points)
    _check_finite_samples(f_values, grid.points)
    f_values = real_if_zero_imag(f_values)
    # sin2 is zero at the endpoints, so the scaled right-hand side is too
    rhs_scaled = eng.sin2_r * f_values
    targets = (eng.r_end * f_values[:, [0, -1]]).reshape(-1)
    if eng.s >= 1:
        targets = np.concatenate(
            [targets, _cleared_f_derivatives(eng, problem.amplitude, f_values)])

    coeffs, z = eng.solve_cleared(rhs_scaled, targets)

    value = _boundary_value(problem.system, coeffs, eng.signs)
    f_scale = float(np.max(np.abs(f_values)))
    level = RESIDUAL_FLAG_FACTOR * problem.system.omega * max(f_scale, 1e-300)
    resid = eng.residual(coeffs, rhs_scaled, targets, z, level)
    # A NaN residual is flagged too.
    flagged = not resid <= level
    coeffs = coeffs.astype(np.complex128, copy=False)
    coeffs.setflags(write=False)
    return QuadratureResult(
        value=value,
        coeffs=coeffs,
        residual=resid,
        path=_fast_path_label(problem),
        wall_time=time.perf_counter() - t0,
        flagged=flagged,
        engine_reused=reused,
    )


def _boundary_value(system: OscillatorSystem, coeffs: np.ndarray,
                    signs: np.ndarray) -> complex:
    """w(+1) . q(+1) - w(-1) . q(-1), with ``signs`` the values (-1)^n of T_n(-1)."""
    q_plus = coeffs.sum(axis=1)
    q_minus = coeffs @ signs
    return complex(np.dot(q_plus, system.w_plus) - np.dot(q_minus, system.w_minus))


def quadrature(problem: LevinProblem) -> QuadratureResult:
    """Solve on the fast path; fall back to the dense solver.

    The fast path signals trouble through singular pivots, an unsupported
    nu/bandwidth regime, or a flagged residual (all of which occur when
    omega is too small for the projected system to be trustworthy); any of
    these triggers one dense reference solve, recorded as path
    ``dense_fallback``.  If neither path produces an acceptable solution
    the problem is reported unsolvable.  Leaving the fast path is logged,
    with its reason, on the ``oscillquad`` logger: at INFO level for a
    dense fallback, at WARNING level when the flagged fast result is
    returned.  ``wall_time`` covers the whole call: the fast attempt and
    any dense attempt (an accepted fast result is timed by ``_solve_fast``).
    """
    t0 = time.perf_counter()
    fast_result = None
    try:
        fast_result = _solve_fast(problem)
        if not fast_result.flagged:
            return fast_result
        reason = f"flagged residual {fast_result.residual:.3e}"
    except (SingularMatrixError, UnsupportedRegimeError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
    from .reference import dense_levin_solve

    path = _fast_path_label(problem)
    try:
        result = dense_levin_solve(problem)
    except (SingularMatrixError, ValueError) as exc:
        if fast_result is not None:
            # Dense is unavailable (singular or over the size guard);
            # the flagged fast result is the best we have.
            reason = f"{reason}; dense path failed: {type(exc).__name__}: {exc}"
            _log.warning("%s result returned flagged: %s", path, reason)
            return replace(fast_result, fallback_reason=reason,
                           wall_time=time.perf_counter() - t0)
        raise UnsolvableProblemError(
            f"both the fast path ({reason}) and the dense path failed"
        ) from exc
    _log.info("%s fell back to dense_fallback: %s", path, reason)
    return replace(result, path="dense_fallback", fallback_reason=reason,
                   wall_time=time.perf_counter() - t0)
