"""Independent correctness anchors for the fast solver.

``dense_levin_solve`` assembles the literal collocation system (no row
scaling, no denominator clearing, no folding) with trigonometric
identities for the Chebyshev values, and solves it by dense LU.  It shares
no linear algebra with the fast path, which makes it a genuine
cross-check and the fallback when the banded path hits a singular pivot.

``cc_oracle`` integrates the full oscillatory integrand by Clenshaw-Curtis
quadrature at brute-force resolution (default 10^6 points, override with
the environment variable OSCILLQUAD_ORACLE_POINTS).
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import scipy.linalg

from .banded import PIVOT_RTOL, SingularMatrixError, lu_factor_quiet
from .chebyshev import apply_inverse_collocation, endpoint_derivative_rows
from .levin import (
    RESIDUAL_FLAG_FACTOR,
    LevinProblem,
    QuadratureResult,
    _check_finite_samples,
)
from .oscillator import AmplitudeSpec, OscillatorSystem, weight_values

#: Largest dense collocation matrix that is built: 512 MiB of complex128
#: entries (16 n^2 bytes), so order n <= 5792.
DENSE_BYTES_GUARD = 512 << 20


def dense_within_guard(problem: LevinProblem) -> bool:
    """Whether the dense collocation matrix of ``problem`` is small enough to build."""
    return 16 * (problem.system.dim * problem.n_basis) ** 2 <= DENSE_BYTES_GUARD


def _chebyshev_values_on_grid(nu: int, n_basis: int):
    """T_n(c_m) and T_n'(c_m) on the Clenshaw-Curtis grid, by trigonometry.

    T_n(cos t) = cos(n t) and T_n'(cos t) = n sin(n t)/sin(t) in the
    interior; the endpoint derivatives use T_n'(+-1) = (+-1)^(n-1) n^2.
    """
    theta = np.arange(nu + 2) * (np.pi / (nu + 1))
    n = np.arange(n_basis)
    nt = np.outer(theta, n)
    t_vals = np.cos(nt)
    t_der = np.empty_like(t_vals)
    s = np.sin(theta[1:-1])
    t_der[1:-1] = n * np.sin(nt[1:-1]) / s[:, None]
    t_der[0] = n.astype(float) ** 2
    t_der[-1] = (-1.0) ** (n - 1) * n.astype(float) ** 2
    return t_vals, t_der


def dense_collocation_matrix(problem: LevinProblem):
    """The full dense collocation system (matrix, right-hand side).

    Rows are grouped per component: nu+2 point conditions, then the 2s
    endpoint-derivative conditions (l = 1..s at +1 and -1).  All entries
    use the unscaled operator d/dx + G_omega^T with rational G entries
    evaluated directly.  A NaN or infinite amplitude sample raises
    NonFiniteAmplitudeError before any entry is computed.
    """
    sys = problem.system
    amp = problem.amplitude
    m, nu, s = sys.dim, problem.nu, problem.s
    nb = problem.n_basis
    n_total = m * nb
    if not dense_within_guard(problem):
        raise ValueError(
            f"dense system of order {n_total} needs {16 * n_total**2 >> 20} MiB, "
            f"over the {DENSE_BYTES_GUARD >> 20} MiB guard"
        )
    points = np.cos(np.arange(nu + 2) * (np.pi / (nu + 1)))
    points[0], points[-1] = 1.0, -1.0
    f_values = amp.values(points)
    _check_finite_samples(f_values, points)
    t_vals, t_der = _chebyshev_values_on_grid(nu, nb)

    a = np.zeros((n_total, n_total), dtype=np.complex128)
    rhs = np.zeros(n_total, dtype=np.complex128)
    rows_per_comp = nu + 2 + 2 * s

    # Endpoint derivative tables at +1 (index 0) and -1 (index 1): T_n for
    # orders 0..s+1, each (G^T)_{ij} for orders 0..s.
    t_end = [endpoint_derivative_rows(nb - 1, s + 1, sign) for sign in (+1, -1)]
    gt_end = [[sys.g_transpose_entry(i, j).endpoint_derivatives(s) for j in range(m)]
              for i in range(m)]

    for i in range(m):
        row0 = i * rows_per_comp
        rhs[row0 : row0 + nu + 2] = f_values[i]
        for j in range(m):
            col0 = j * nb
            gt = sys.g_transpose_entry(i, j)
            block = gt(points)[:, None] * t_vals
            if i == j:
                block = block + t_der
            a[row0 : row0 + nu + 2, col0 : col0 + nb] = block
        row = row0 + nu + 2
        for l in range(1, s + 1):
            for e, sign in enumerate((+1, -1)):
                rhs[row] = amp.derivative(l, sign)[i]
                for j in range(m):
                    col0 = j * nb
                    entries = np.zeros(nb, dtype=np.complex128)
                    if i == j:
                        entries += t_end[e][l + 1]
                    for p in range(l + 1):
                        entries += math.comb(l, p) * gt_end[i][j][e, p] * t_end[e][l - p]
                    a[row, col0 : col0 + nb] = entries
                row += 1
    return a, rhs


def dense_levin_solve(problem: LevinProblem) -> QuadratureResult:
    """Solve the literal dense collocation system and assemble the value."""
    t0 = time.perf_counter()
    sys = problem.system
    m, nu, s = sys.dim, problem.nu, problem.s
    nb = problem.n_basis
    a, rhs = dense_collocation_matrix(problem)
    lu, piv = lu_factor_quiet(a)
    diag = np.abs(np.diag(lu))
    worst = int(np.argmin(diag))
    if diag[worst] <= PIVOT_RTOL * np.max(np.abs(a)):
        raise SingularMatrixError(
            f"dense collocation system numerically singular at pivot {worst}", worst
        )
    x = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)

    point_rows = np.concatenate(
        [np.arange(i * (nu + 2 + 2 * s), i * (nu + 2 + 2 * s) + nu + 2) for i in range(m)]
    )
    f_scale = float(np.max(np.abs(rhs[point_rows])))
    flag_level = RESIDUAL_FLAG_FACTOR * sys.omega * max(f_scale, 1e-300)

    def point_residual(sol):
        return float(np.abs((a @ sol - rhs)[point_rows]).max())

    resid = point_residual(x)
    # A NaN residual counts as over the level.
    if not resid <= flag_level:
        # Near-singular regime (omega far below nu): the LU solution is
        # polluted by null-space junk; a truncated-SVD solve recovers the
        # bounded solution.
        x = np.linalg.lstsq(a, rhs, rcond=None)[0]
        resid = point_residual(x)
    coeffs = x.reshape(m, nb).copy()

    signs = (-1.0) ** np.arange(nb)
    value = complex(
        np.dot(coeffs.sum(axis=1), sys.w_plus)
        - np.dot(coeffs @ signs, sys.w_minus)
    )
    flagged = not resid <= flag_level
    coeffs.setflags(write=False)
    return QuadratureResult(
        value=value,
        coeffs=coeffs,
        residual=resid,
        path="dense",
        wall_time=time.perf_counter() - t0,
        flagged=flagged,
    )


# ---------------------------------------------------------------------------
# Brute-force Clenshaw-Curtis oracle
# ---------------------------------------------------------------------------

def default_oracle_points() -> int:
    return int(os.environ.get("OSCILLQUAD_ORACLE_POINTS", "1000000"))


def cc_oracle(integrand, n_points: int | None = None) -> complex:
    """Clenshaw-Curtis quadrature of ``integrand`` over [-1, 1].

    Uses n_points + 1 nodes cos(j pi / n_points); the integrand values are
    transformed to Chebyshev coefficients by one DCT-I (O(n log n)) and
    integrated against the exact Chebyshev moments 2/(1 - k^2) (even k).
    Exact for polynomials of degree <= n_points.
    """
    if n_points is None:
        n_points = default_oracle_points()
    if n_points < 8 or n_points % 2 != 0:
        raise ValueError("n_points must be even and >= 8")
    x = np.cos(np.arange(n_points + 1) * (np.pi / n_points))
    x[0], x[-1] = 1.0, -1.0
    vals = np.asarray(integrand(x), dtype=np.complex128)
    if vals.shape != x.shape:
        raise ValueError("integrand must return one value per node")
    # Summed in complex arithmetic for real integrands too.
    coeffs = apply_inverse_collocation(vals).astype(np.complex128, copy=False)
    k = np.arange(0, n_points + 1, 2)
    moments = 2.0 / (1.0 - k.astype(np.float64) ** 2)
    return complex(np.dot(coeffs[::2], moments))


def oscillatory_integrand(system: OscillatorSystem, amplitude: AmplitudeSpec):
    """The full integrand <f, w>(x) for the built-in oscillator families."""

    def integrand(x):
        f = amplitude.values(x)
        w = weight_values(system, x)
        return np.sum(f * w, axis=0)

    return integrand


def oracle_value(system: OscillatorSystem, amplitude: AmplitudeSpec,
                 n_points: int | None = None) -> complex:
    """Brute-force value of I_omega[f] for a built-in oscillator family."""
    return cc_oracle(oscillatory_integrand(system, amplitude), n_points)
