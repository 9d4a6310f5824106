"""Accelerated Levin collocation on Clenshaw-Curtis points.

The collocation operator, row-scaled by (1 - x^2) and with denominators
cleared by r(x), acts on the Chebyshev basis as a banded matrix.  Folding
the high-order columns back onto the grid (aliasing) yields a finite
banded system whose interior part is solved through one DCT-I per
component plus a banded LU; the two boundary degrees of freedom per
component that the row scaling annihilates are recovered from precomputed
null vectors through a small dense bordering system, whose directions
below their rounding floor are left out.  Endpoint-derivative
conditions (s >= 1) add 2s tail coefficients per component.  The tail
columns do not depend on f: the engine solves them once, in coefficient
space (no DCT), in the same multi-column banded solve as the null vectors,
and each call then needs only one small dense 2Ms x 2Ms system.  A call
costs 2M DCT-I transforms for every s: one inverse per component for the
right-hand side and one forward per component for the residual.

The engine does not depend on f, so one slot keeps the last engine built
and every fast solve goes through it (``_engine_for``).  Its key is the
values the engine reads: nu, s and the coefficients of r and of r G
(which fix M).  Separately built systems with equal values share an
engine; a change of omega, phase, Bessel order or shift, nu or s misses.
On a miss the old engine is dropped before the new one is built, so two
never live at once.  Repeated amplitudes on one system pay the build
once; a stream of distinct systems pays it every call, as without reuse.

The engine works in the field of its system: float64 when r and every
r G entry have real coefficients (the Bessel family, and real custom
systems), complex128 otherwise (an exponential phase makes r G = i omega
g' imaginary).  A real system's operator, banded LU, null vectors and
border are then real, and a real amplitude is solved and checked in real
arithmetic, which does the same work on half the data; a complex
amplitude on a real engine is solved as its real and imaginary parts.
Results carry complex128 coefficients either way.

All solver entry points are pure functions of their problem; a shared
engine is read-only and results are immutable once returned.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .banded import (
    SingularMatrixError,
    banded_lu_factor,
    banded_solve,
    dense_solve,
    hockney_permutation,
    reorder_block_banded,
)
from .chebyshev import (
    ONE_MINUS_X2,
    BandedMatrix,
    ClenshawCurtisGrid,
    Polynomial,
    UnsupportedRegimeError,
    apply_collocation_matrix,
    apply_inverse_collocation,
    build_banded_operator,
    clenshaw_curtis_points,
    drop_endpoint_values,
    endpoint_derivative_row,
    fold_chebyshev_tail,
    fold_operator,
    real_if_zero_imag,
)
from .oscillator import AmplitudeSpec, OscillatorSystem


#: Fallbacks are logged here; silent until the application configures logging.
_log = logging.getLogger("oscillquad")
_log.addHandler(logging.NullHandler())


class UnsolvableProblemError(RuntimeError):
    """Both the fast path and the dense reference path failed."""


class NonFiniteAmplitudeError(ValueError):
    """An amplitude sample on the collocation grid is NaN or infinite."""


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
        if self.nu < 2 or self.nu % 2 != 0:
            raise ValueError(f"nu must be even and >= 2, got {self.nu}")
        if self.s < 0:
            raise ValueError("s must be >= 0")
        if self.amplitude.dim != self.system.dim:
            raise ValueError(
                f"amplitude has {self.amplitude.dim} components, "
                f"system has {self.system.dim}"
            )
        if self.s >= 1 and self.amplitude.max_derivative_order < self.s:
            raise ValueError(
                f"s={self.s} requires amplitude endpoint derivatives up to "
                f"order {self.s}; only {self.amplitude.max_derivative_order} supplied"
            )

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
        # The field of the system, decided here once: float64 exactly when r
        # and every r G entry have real coefficients, complex128 otherwise.
        # The operator blocks below come out in the same field.
        polys = [system.r] + [p for row in system.r_g for p in row]
        self.dtype = np.dtype(
            np.complex128 if any(p.coeffs.imag.any() for p in polys) else np.float64)
        self.r_vals = self._in_field(system.r(self.grid.points))

        # (1-x^2)-scaled, r-cleared operator blocks on a generous basis range.
        p_diff = ONE_MINUS_X2 * system.r
        p_mult = [[ONE_MINUS_X2 * system.r_g[j][i] for j in range(m)] for i in range(m)]
        max_deg = max(max(p.degree for row in p_mult for p in row), p_diff.degree)
        n_build = nu + 2 * s + 2 + max_deg + 4
        zero = Polynomial([0.0])
        blocks_big = [
            [build_banded_operator(p_diff if i == j else zero, p_mult[i][j], n_build)
             for j in range(m)]
            for i in range(m)
        ]
        lbw = max(b.lower_bw for row in blocks_big for b in row)
        self.fold_depth = lbw - 1
        if nu <= self.fold_depth:
            raise UnsupportedRegimeError(
                f"nu={nu} too small for operator bandwidth (need nu > {self.fold_depth})"
            )
        self.folded = [
            [fold_operator(blocks_big[i][j], nu, self.fold_depth) for j in range(m)]
            for i in range(m)
        ]

        mids = [[blk.principal_submatrix(1, nu + 1) for blk in row] for row in self.folded]
        self.perm = hockney_permutation(m, nu)
        self.reordered = reorder_block_banded(mids, self.perm)
        self.lu = banded_lu_factor(self.reordered)

        # Unscaled collocation rows at the endpoints over the whole basis
        # (head and tail): rows_plus[i, j, n] is the coefficient of
        # alpha_n^[j] in the i-th cleared equation at x = +1.  T_n'(+1) = n^2,
        # T_n'(-1) = (-1)^(n-1) n^2, T_n(+-1) = (+-1)^n.
        n_head = nu + 2
        n_all = nu + 2 * s + 2
        ns = np.arange(n_all, dtype=np.float64)
        signs = (-1.0) ** ns
        diag = np.eye(m)[:, :, None]
        ends = np.array([1.0, -1.0])
        gt = self._in_field([[system.r_g[j][i](ends) for j in range(m)] for i in range(m)])
        rp, rm = self.r_vals[[0, -1]]
        self.rows_plus = rp * diag * (ns * ns) + gt[:, :, 0, None]
        self.rows_minus = rm * diag * (-(ns * ns) * signs) + gt[:, :, 1, None] * signs

        # One multi-column banded solve serves the null vectors of the
        # projected system (v = e_{k,end} + interior part, against the
        # endpoint columns of the folded operator) and, for s >= 1, the tail
        # columns: the scaled operator applied to each tail element e_k T_n
        # (n = nu+2 .. nu+2s+1), aliased onto the grid in coefficient space,
        # whose grid values with the endpoints dropped need no DCT round trip.
        ends = [(k, end) for k in range(m) for end in (0, nu + 1)]
        rhs_cols = np.array([[self.folded[i][k].column(end) for i in range(m)]
                             for k, end in ends])
        tail = [(k, n) for k in range(m) for n in range(n_head, n_all)]
        self.tail_ops = np.zeros((0, m, n_head), dtype=self.dtype)
        if tail:
            self.tail_ops = fold_chebyshev_tail(np.array(
                [[blocks_big[i][k].column(n) for i in range(m)] for k, n in tail]
            ), nu)
            rhs_cols = np.concatenate([rhs_cols, drop_endpoint_values(self.tail_ops)])
        heads = self._solve_interior(-rhs_cols[:, :, 1 : nu + 1])
        self.null_vectors = heads[: 2 * m]
        for col, (k, end) in enumerate(ends):
            self.null_vectors[col, k, end] += 1.0

        # Bordering matrix: the 2M unscaled endpoint rows applied to the
        # 2M null vectors.
        self.border = np.empty((2 * m, 2 * m), dtype=self.dtype)
        self.border[0::2] = _apply_rows(self.rows_plus[..., :n_head], self.null_vectors).T
        self.border[1::2] = _apply_rows(self.rows_minus[..., :n_head], self.null_vectors).T
        self.border_solver = self._border_pseudo_inverse(n_head)
        if s == 0:
            return

        # tail_heads[c] solves the cleared system on the head for minus the
        # operator applied to tail element c, whose endpoint values are the
        # tail columns of the endpoint rows.
        tail_plus, tail_minus = (
            -rows[:, :, n_head:].transpose(1, 2, 0).reshape(len(tail), m)
            for rows in (self.rows_plus, self.rows_minus)
        )
        self.tail_heads = self._meet_endpoint_rows(heads[2 * m :], tail_plus, tail_minus)

        # Cleared derivative conditions d^l [r L q]_i (+-1), l = 1..s, as
        # rows over the whole basis, in (i, l, sign) order; applied to
        # head + sum_c t_c (tail_heads[c] + tail element c) they give the
        # 2Ms x 2Ms tail system.
        self.r_derivs = self._in_field(_poly_endpoint_derivs(system.r, s))
        gt_derivs = self._in_field([[_poly_endpoint_derivs(system.r_g[j][i], s)
                                     for j in range(m)] for i in range(m)])
        t_tabs = [np.stack([endpoint_derivative_row(n_all - 1, l, sign) for l in range(s + 2)])
                  for sign in (+1, -1)]
        self.tail_rows = np.zeros((len(tail), m, n_all), dtype=self.dtype)
        for row, (i, l, e) in enumerate(_tail_conditions(m, s)):
            for p in range(l + 1):
                c = math.comb(l, p)
                self.tail_rows[row, i] += c * self.r_derivs[e][p] * t_tabs[e][l + 1 - p]
                for j in range(m):
                    self.tail_rows[row, j] += c * gt_derivs[i][j][e][p] * t_tabs[e][l - p]
        self.tail_matrix = (
            _apply_rows(self.tail_rows[..., :n_head], self.tail_heads).T
            + self.tail_rows[..., n_head:].reshape(len(tail), len(tail))
        )

    def _in_field(self, values) -> np.ndarray:
        """Values of this system's polynomials in the engine's field; a real
        system's values have exactly zero imaginary parts."""
        values = np.asarray(values)
        if self.dtype == np.float64:
            return np.ascontiguousarray(values.real)
        return values.astype(np.complex128, copy=False)

    def _border_pseudo_inverse(self, n_head: int) -> np.ndarray:
        """Solver for the bordering system that leaves out unresolved directions.

        The endpoint rows weigh coefficient n by up to n^2, so border column
        j carries a rounding floor of eps * sum_n |row_n| |v_jn| that can
        exceed its value: when nu is well above omega some null-vector
        combination is, to rounding, a homogeneous solution, the value does
        not depend on its weight, and solving for that weight only
        amplifies noise.  In units of the floors, singular directions at or
        below BORDER_RESOLVED are dropped (minimum-norm solution).  A zero
        column, or no resolved direction at all, raises.
        """
        absv = np.abs(self.null_vectors)
        floor = np.finfo(np.float64).eps * np.maximum(*(
            np.tensordot(absv, np.abs(rows[..., :n_head]), axes=([1, 2], [1, 2])).max(axis=1)
            for rows in (self.rows_plus, self.rows_minus)))
        if not floor.all():
            col = int(np.argmin(floor))
            raise SingularMatrixError(f"zero column {col} in the bordering system", col)
        u, sig, vh = np.linalg.svd(self.border / floor)
        keep = sig > BORDER_RESOLVED
        if not keep.any():
            raise SingularMatrixError("no direction of the bordering system is resolved")
        return (vh[keep].conj().T / sig[keep]) @ u[:, keep].conj().T / floor[:, None]

    # -- cleared solves ------------------------------------------------------

    def _solve_interior(self, z_mid: np.ndarray) -> np.ndarray:
        """Banded solve of the projected system for columns ``z_mid`` (K, M, nu).

        Returns the heads (K, M, nu+2) with zero endpoint entries.
        """
        m, nu = self.m, self.nu
        k = z_mid.shape[0]
        x = banded_solve(self.lu, z_mid.reshape(k, m * nu).T[self.perm.perm])
        heads = np.zeros((k, m, nu + 2), dtype=x.dtype)
        heads[:, :, 1 : nu + 1] = x[self.perm.inverse].T.reshape(k, m, nu)
        return heads

    def _meet_endpoint_rows(self, heads: np.ndarray, rhs_plus: np.ndarray,
                            rhs_minus: np.ndarray) -> np.ndarray:
        """Add to each of ``heads`` (K, M, nu+2) the null-vector combination
        that meets the 2M endpoint rows with values ``rhs_plus``, ``rhs_minus``
        (K, M)."""
        n_head = self.nu + 2
        rhs = np.empty((2 * self.m, heads.shape[0]),
                       dtype=np.result_type(heads, rhs_plus, rhs_minus))
        rhs[0::2] = (rhs_plus - _apply_rows(self.rows_plus[..., :n_head], heads)).T
        rhs[1::2] = (rhs_minus - _apply_rows(self.rows_minus[..., :n_head], heads)).T
        delta = self.border_solver @ rhs
        return heads + np.tensordot(delta.T, self.null_vectors, axes=1)

    def solve_cleared(self, rhs_scaled_mid: np.ndarray, rhs_plus: np.ndarray,
                      rhs_minus: np.ndarray) -> np.ndarray:
        """Solve the cleared collocation system A alpha = b on the nu+2 head.

        ``rhs_scaled_mid[i, m]`` holds (1 - c_m^2) b_i(c_m) at the interior
        points m = 1..nu; ``rhs_plus`` / ``rhs_minus`` the unscaled values
        b_i(+-1).  Returns coefficients of shape (M, nu+2), real when the
        engine and the right-hand side are both real.
        """
        m, nu = self.m, self.nu
        z_mid = np.empty((1, m, nu), dtype=np.result_type(self.dtype, rhs_scaled_mid))
        full = np.zeros(nu + 2, dtype=rhs_scaled_mid.dtype)
        for i in range(m):
            full[1 : nu + 1] = rhs_scaled_mid[i]
            z_mid[0, i] = apply_inverse_collocation(full)[1 : nu + 1]
        heads = self._solve_interior(z_mid)
        return self._meet_endpoint_rows(heads, rhs_plus[None], rhs_minus[None])[0]

    # -- residual --------------------------------------------------------------

    def residual(self, coeffs: np.ndarray, f_values: np.ndarray) -> float:
        """Max collocation residual |L_omega q - f| over all grid points.

        ``coeffs`` (M, nu+2s+2) holds head and tail.  The interior rows are
        checked in scaled cleared form, the tail added in coefficient space
        before one transform per component, and divided back by
        (1 - c_m^2) r(c_m); the endpoint rows (recovered by the bordering
        solve) are checked directly.
        """
        m, nu = self.m, self.nu
        grid = self.grid
        head = coeffs[:, : nu + 2]
        tail_flat = coeffs[:, nu + 2 :].reshape(-1)
        r_vals = self.r_vals
        scaled_target = grid.sin2 * r_vals * f_values
        rp, rm = r_vals[0], r_vals[-1]
        resid = 0.0
        for i in range(m):
            acc = tail_flat @ self.tail_ops[:, i]
            for j in range(m):
                acc += self.folded[i][j].matvec(head[j])
            y = apply_collocation_matrix(acc, grid)
            interior = np.abs(y[1:-1] - scaled_target[i, 1:-1]) / (
                grid.sin2[1:-1] * np.abs(r_vals[1:-1])
            )
            resid = max(resid, float(interior.max()))
            end_p = np.sum(self.rows_plus[i] * coeffs)
            end_m = np.sum(self.rows_minus[i] * coeffs)
            resid = max(resid, abs(end_p - rp * f_values[i, 0]) / abs(rp))
            resid = max(resid, abs(end_m - rm * f_values[i, -1]) / abs(rm))
        return resid


def _freeze(value) -> None:
    """Mark every array in ``value`` read-only, through lists, tuples,
    banded matrices and dataclasses (LU factors, permutations, grids)."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _freeze(item)
    elif isinstance(value, BandedMatrix):
        value.data.setflags(write=False)
    elif is_dataclass(value):
        for field in fields(value):
            _freeze(getattr(value, field.name))


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
    engine = CollocationEngine(system, nu, s)
    # Every later call with this key shares the engine: no caller may write
    # to it.  ``system`` stays the caller's.
    _freeze([value for name, value in vars(engine).items() if name != "system"])
    _engine_slot = (key, engine)
    return engine, False


def _forget_engine() -> None:
    """Empty the engine slot, so that the next fast solve builds its engine."""
    global _engine_slot
    _engine_slot = None


def _apply_rows(rows: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Rows (R, M, n) applied to each of ``heads`` (K, M, n); returns (K, R)."""
    products = rows[None] * heads[:, None]
    return products.reshape(products.shape[:2] + (-1,)).sum(axis=-1)


# ---------------------------------------------------------------------------
# Endpoint-derivative (tail) conditions for s >= 1
# ---------------------------------------------------------------------------

def _poly_endpoint_derivs(p: Polynomial, l_max: int) -> np.ndarray:
    """d^p/dx^p at +1 (row 0) and -1 (row 1) for p = 0..l_max, by repeated
    differentiation."""
    values = np.empty((2, l_max + 1), dtype=np.complex128)
    q = p
    for l in range(l_max + 1):
        values[:, l] = q(np.array([1.0, -1.0]))
        q = q.deriv()
    return values


def _tail_conditions(m: int, s: int):
    """(component i, order l, endpoint index e) of each tail condition, in row order."""
    return [(i, l, e) for i in range(m) for l in range(1, s + 1) for e in (0, 1)]


def _cleared_f_derivatives(eng: CollocationEngine, amplitude: AmplitudeSpec,
                           f_values: np.ndarray) -> np.ndarray:
    """d^l [r f_i] at the endpoints, by Leibniz on exact r derivatives;
    real when they all are."""
    f_ders = [
        [f_values[:, 0]] + [amplitude.derivative(q, +1) for q in range(1, eng.s + 1)],
        [f_values[:, -1]] + [amplitude.derivative(q, -1) for q in range(1, eng.s + 1)],
    ]
    return real_if_zero_imag([
        sum(math.comb(l, p) * eng.r_derivs[e][p] * f_ders[e][l - p][i] for p in range(l + 1))
        for i, l, e in _tail_conditions(eng.m, eng.s)
    ])


# ---------------------------------------------------------------------------
# Solver tiers
# ---------------------------------------------------------------------------

def _solve_fast(problem: LevinProblem, path: str) -> QuadratureResult:
    t0 = time.perf_counter()
    eng, reused = _engine_for(problem.system, problem.nu, problem.s)
    grid = eng.grid

    f_values = problem.amplitude.values(grid.points)
    finite = np.isfinite(f_values)
    if not finite.all():
        i, m = np.argwhere(~finite)[0]
        raise NonFiniteAmplitudeError(
            f"amplitude component {i} is {f_values[i, m]} at x = {grid.points[m]!r}")
    f_values = real_if_zero_imag(f_values)
    r_vals = eng.r_vals
    rhs_scaled_mid = (grid.sin2 * r_vals * f_values)[:, 1:-1]
    rhs_plus = r_vals[0] * f_values[:, 0]
    rhs_minus = r_vals[-1] * f_values[:, -1]

    coeffs = eng.solve_cleared(rhs_scaled_mid, rhs_plus, rhs_minus)
    if eng.s >= 1:
        rhs = (_cleared_f_derivatives(eng, problem.amplitude, f_values)
               - _apply_rows(eng.tail_rows[..., : eng.nu + 2], coeffs[None])[0])
        tail_flat = dense_solve(eng.tail_matrix, rhs)
        coeffs = np.concatenate(
            [coeffs + np.tensordot(tail_flat, eng.tail_heads, axes=1),
             tail_flat.reshape(eng.m, 2 * eng.s)],
            axis=1,
        )

    value = _boundary_value(problem.system, coeffs)
    resid = eng.residual(coeffs, f_values)
    f_scale = float(np.max(np.abs(f_values)))
    # A NaN residual is flagged too.
    flagged = not resid <= RESIDUAL_FLAG_FACTOR * problem.system.omega * max(f_scale, 1e-300)
    coeffs = coeffs.astype(np.complex128, copy=False)
    coeffs.setflags(write=False)
    return QuadratureResult(
        value=value,
        coeffs=coeffs,
        residual=resid,
        path=path,
        wall_time=time.perf_counter() - t0,
        flagged=flagged,
        engine_reused=reused,
    )


def _boundary_value(system: OscillatorSystem, coeffs: np.ndarray) -> complex:
    signs = (-1.0) ** np.arange(coeffs.shape[1])
    q_plus = coeffs.sum(axis=1)
    q_minus = coeffs @ signs
    return complex(np.dot(q_plus, system.w_plus) - np.dot(q_minus, system.w_minus))


def solve_scalar_s0(problem: LevinProblem) -> QuadratureResult:
    """Fast path for M = 1, s = 0."""
    if problem.system.dim != 1 or problem.s != 0:
        raise ValueError("solve_scalar_s0 requires M = 1 and s = 0")
    return _solve_fast(problem, "scalar_s0")


def solve_scalar_s(problem: LevinProblem) -> QuadratureResult:
    """Fast path for M = 1, s >= 1 (endpoint-derivative conditions)."""
    if problem.system.dim != 1 or problem.s < 1:
        raise ValueError("solve_scalar_s requires M = 1 and s >= 1")
    return _solve_fast(problem, "scalar_s")


def solve_block_s0(problem: LevinProblem) -> QuadratureResult:
    """Fast path for M >= 2, s = 0."""
    if problem.system.dim < 2 or problem.s != 0:
        raise ValueError("solve_block_s0 requires M >= 2 and s = 0")
    return _solve_fast(problem, "block_s0")


def solve_block_s(problem: LevinProblem) -> QuadratureResult:
    """Fast path for M >= 2, s >= 1."""
    if problem.system.dim < 2 or problem.s < 1:
        raise ValueError("solve_block_s requires M >= 2 and s >= 1")
    return _solve_fast(problem, "block_s")


def quadrature(problem: LevinProblem) -> QuadratureResult:
    """Dispatch to the matching fast tier; fall back to the dense solver.

    The fast path signals trouble through singular pivots, an unsupported
    nu/bandwidth regime, or a flagged residual (all of which occur when
    omega is too small for the projected system to be trustworthy); any of
    these triggers one dense reference solve, recorded as path
    ``dense_fallback``.  If neither path produces an acceptable solution
    the problem is reported unsolvable.  Leaving the fast path is logged,
    with its reason, on the ``oscillquad`` logger: at INFO level for a
    dense fallback, at WARNING level when the flagged fast result is
    returned.
    """
    if problem.system.dim == 1:
        path = "scalar_s0" if problem.s == 0 else "scalar_s"
    else:
        path = "block_s0" if problem.s == 0 else "block_s"
    fast_result = None
    try:
        fast_result = _solve_fast(problem, path)
        if not fast_result.flagged:
            return fast_result
        reason = f"flagged residual {fast_result.residual:.3e}"
    except (SingularMatrixError, UnsupportedRegimeError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
    from .reference import dense_levin_solve

    try:
        result = dense_levin_solve(problem)
    except (SingularMatrixError, ValueError) as exc:
        if fast_result is not None:
            # Dense is unavailable (singular or over the size guard);
            # the flagged fast result is the best we have.
            reason = f"{reason}; dense path failed: {type(exc).__name__}: {exc}"
            _log.warning("%s result returned flagged: %s", path, reason)
            return replace(fast_result, fallback_reason=reason)
        raise UnsolvableProblemError(
            f"both the fast path ({reason}) and the dense path failed"
        ) from exc
    _log.info("%s fell back to dense_fallback: %s", path, reason)
    return replace(result, path="dense_fallback", fallback_reason=reason)


# ---------------------------------------------------------------------------
# Spec-level scalar building blocks (exposed for direct testing)
# ---------------------------------------------------------------------------

def solve_interior_scalar(b_tilde: BandedMatrix, f_samples,
                          grid: ClenshawCurtisGrid) -> np.ndarray:
    """Interior solve of the scaled scalar system: P B~ P alpha0 = P C^-1 f~.

    ``f_samples`` are unscaled values f(c_m); the row scaling (1 - c_m^2)
    is applied here.  Returns the full nu+2 coefficient vector with
    alpha0[0] = alpha0[nu+1] = 0.
    """
    nu = grid.nu
    f_samples = np.asarray(f_samples, dtype=np.complex128)
    if f_samples.shape[0] != nu + 2:
        raise ValueError("f_samples must have nu + 2 entries")
    if b_tilde.n != nu + 2:
        raise ValueError("B~ must be (nu+2) x (nu+2)")
    z = apply_inverse_collocation(grid.sin2 * f_samples)
    lu = banded_lu_factor(b_tilde.principal_submatrix(1, nu + 1))
    alpha0 = np.zeros(nu + 2, dtype=np.complex128)
    alpha0[1 : nu + 1] = banded_solve(lu, z[1 : nu + 1])
    return alpha0


def null_vectors_scalar(b_tilde: BandedMatrix, grid: ClenshawCurtisGrid):
    """The two kernel vectors of the projected scalar system.

    v1 = e_0 + interior part, v2 = e_{nu+1} + interior part, with
    P A v_j = 0; the interior parts solve the same banded middle system
    against the endpoint columns of B~.
    """
    nu = grid.nu
    lu = banded_lu_factor(b_tilde.principal_submatrix(1, nu + 1))
    v1 = np.zeros(nu + 2, dtype=np.complex128)
    v2 = np.zeros(nu + 2, dtype=np.complex128)
    v1[1 : nu + 1] = banded_solve(lu, -b_tilde.column(0)[1 : nu + 1])
    v2[1 : nu + 1] = banded_solve(lu, -b_tilde.column(nu + 1)[1 : nu + 1])
    v1[0] = 1.0
    v2[nu + 1] = 1.0
    return v1, v2
