"""Fast path: interior solve, null vectors, bordering, tails,
engine reuse, dispatcher, and the cross-checks against the dense
reference path."""

from __future__ import annotations

import logging
import math
import sys as sys_module
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillquad.amplitudes import (
    make_amplitude,
    manufactured_amplitude,
    manufactured_expected_value,
    rational_amplitude,
)
from oscillquad import levin, reference
from oscillquad.banded import (
    BandedLU,
    SingularMatrixError,
    banded_lu_factor,
    banded_solve,
    reorder_block_banded,
)
from oscillquad.chebyshev import (
    ONE_MINUS_X2,
    Polynomial,
    UnsupportedRegimeError,
    apply_collocation_matrix,
    apply_inverse_collocation,
    build_banded_operator,
    clenshaw_curtis_points,
    endpoint_derivative_rows,
    fold_operator,
    real_if_zero_imag,
)
from oscillquad.levin import (
    CollocationEngine,
    LevinProblem,
    NonFiniteAmplitudeError,
    NuTooLargeError,
    UnsolvableProblemError,
    _solve_fast,
    quadrature,
)
from oscillquad.oscillator import (
    AmplitudeSpec,
    OscillatorSystem,
    make_bessel,
    make_exponential,
)
from oscillquad.reference import dense_collocation_matrix, dense_levin_solve

from conftest import fit_loglog_slope, runge_amplitude

# Frozen from the self-converged 10^6-point oracle (criterion 1 re-derives
# these through the gated oracle).
I1_OMEGA100 = 8.170542331039445e-18 - 0.016807550260569525j
I2_OMEGA100 = 0.00012616323754927888 + 0.0j
# I1 at omega = 10^4: the 2^17-, 2^18- and 2^19-point oracles agree to
# 1e-11 relative.
I1_OMEGA1E4 = 0.00018670288509735j


def zero_component(x):
    return np.zeros_like(np.asarray(x, dtype=np.float64), dtype=np.complex128)


def zero_amplitude(dim):
    return AmplitudeSpec(components=tuple(zero_component for _ in range(dim)),
                         deriv_plus=np.zeros((3, dim), dtype=complex),
                         deriv_minus=np.zeros((3, dim), dtype=complex),
                         name="zero")


def dense_scalar_rows(system, grid, n_basis):
    """Rows A[m, n] = L T_n(c_m) of the literal scalar system, by trigonometry."""
    theta = np.arange(grid.nu + 2) * (np.pi / (grid.nu + 1))
    n = np.arange(n_basis)
    t = np.cos(np.outer(theta, n))
    tp = np.empty_like(t)
    tp[1:-1] = n * np.sin(np.outer(theta[1:-1], n)) / np.sin(theta[1:-1])[:, None]
    tp[0] = n.astype(float) ** 2
    tp[-1] = (-1.0) ** (n - 1) * n.astype(float) ** 2
    gt = system.g_transpose_entry(0, 0)(grid.points)
    return tp + gt[:, None] * t


# ---------------------------------------------------------------------------
# Interior solve and null vectors (on an M = 1 engine)
# ---------------------------------------------------------------------------

def interior_solve(system, f_samples, nu):
    """Interior solve of the scaled scalar system P B~ P alpha0 = P C^-1 f~.

    ``f_samples`` are unscaled values f(c_m); the row scaling (1 - c_m^2) is
    applied here.  Returns the nu+2 head with alpha0[0] = alpha0[nu+1] = 0.
    """
    eng = CollocationEngine(system, nu)
    z = apply_inverse_collocation(eng.grid.sin2 * f_samples)
    return np.pad(banded_solve(eng.lu, z[1 : nu + 1]), 1)


def test_interior_solve_zero_rhs():
    sys = make_exponential([0.0, 1.0], 100.0)
    alpha0 = interior_solve(sys, np.zeros(18), 16)
    assert np.allclose(alpha0, 0.0)


def test_interior_solve_interpolation_conditions():
    omega = 100.0
    sys = make_exponential([0.0, 1.0], omega)
    nu = 16
    grid = clenshaw_curtis_points(nu)
    f = np.ones(nu + 2, dtype=complex)
    alpha0 = interior_solve(sys, f, nu)
    assert alpha0[0] == 0.0 and alpha0[-1] == 0.0
    rows = dense_scalar_rows(sys, grid, nu + 2)
    resid = np.abs((rows @ alpha0 - f)[1:-1])
    assert resid.max() <= 1e-9 * omega


def test_interior_solve_matches_dense_middle_system():
    omega = 100.0
    sys = make_exponential([0.0, 1.0], omega)
    nu = 16
    grid = clenshaw_curtis_points(nu)
    f = 1.0 / (2.0 + grid.points) + 0j
    alpha0 = interior_solve(sys, f, nu)
    rows = dense_scalar_rows(sys, grid, nu + 2)
    middle = np.linalg.solve(rows[1:-1, 1:-1], f[1:-1])
    assert np.max(np.abs(alpha0[1:-1] - middle)) <= 1e-10 * np.max(np.abs(middle))


def test_null_vectors_structure_and_kernel():
    omega = 100.0
    sys = make_exponential([0.0, 1.0], omega)
    nu = 32
    grid = clenshaw_curtis_points(nu)
    v1, v2 = CollocationEngine(sys, nu).basis
    assert v1[0] == 1.0 and v1[-1] == 0.0
    assert v2[0] == 0.0 and v2[-1] == 1.0
    rows = dense_scalar_rows(sys, grid, nu + 2)
    for v in (v1, v2):
        resid = np.abs((rows @ v)[1:-1])
        assert resid.max() <= 1e-9 * omega * np.max(np.abs(v))
    gram = np.array([[np.vdot(v1, v1), np.vdot(v1, v2)],
                     [np.vdot(v2, v1), np.vdot(v2, v2)]])
    assert abs(np.linalg.det(gram)) > 1e-12


# ---------------------------------------------------------------------------
# Scalar systems (M = 1), s = 0
# ---------------------------------------------------------------------------

def test_scalar_s0_zero_amplitude():
    sys = make_exponential([0.0, 1.0], 100.0)
    res = _solve_fast(LevinProblem(system=sys, amplitude=zero_amplitude(1), nu=16))
    assert res.value == 0.0
    assert res.residual == 0.0
    assert res.path == "scalar_s0"


def test_scalar_s0_manufactured_t3():
    omega = 100.0
    sys = make_exponential([0.0, 1.0], omega)
    amp = manufactured_amplitude(sys, 3)
    res = _solve_fast(LevinProblem(system=sys, amplitude=amp, nu=16))
    expected = manufactured_expected_value(sys, 3)
    assert expected == pytest.approx(np.exp(1j * omega) + np.exp(-1j * omega))
    assert abs(res.value - expected) <= 1e-10 * (1 + abs(expected))


def test_scalar_s0_runge_amplitude_vs_frozen_oracle():
    sys = make_exponential([0.0, 1.0], 100.0)
    res = _solve_fast(LevinProblem(system=sys, amplitude=runge_amplitude(1), nu=128))
    assert abs(res.value - I1_OMEGA100) <= 1e-8


def test_scalar_s0_constant_amplitude_closed_form():
    omega = 100.0
    sys = make_exponential([0.0, 1.0], omega)
    one = AmplitudeSpec(components=(lambda x: np.ones_like(x, dtype=complex),))
    res = _solve_fast(LevinProblem(system=sys, amplitude=one, nu=32))
    assert abs(res.value - 2 * np.sin(omega) / omega) <= 1e-12


@pytest.mark.parametrize("m,s,label", [(1, 0, "scalar_s0"), (1, 2, "scalar_s"),
                                       (2, 0, "block_s0"), (2, 1, "block_s")])
def test_fast_path_labels_the_four_cells(m, s, label):
    # one fast solve serves every (M, s); its label names the cell, and
    # quadrature reports the same label for an accepted fast answer
    sys = make_exponential([0.0, 1.0], 100.0) if m == 1 else make_bessel(1, 2.0, 100.0)
    prob = LevinProblem(system=sys, amplitude=runge_amplitude(m), nu=16, s=s)
    assert _solve_fast(prob).path == label
    assert quadrature(prob).path == label


# ---------------------------------------------------------------------------
# Scalar systems (M = 1), s >= 1
# ---------------------------------------------------------------------------

def test_scalar_s1_manufactured_beyond_s0_basis():
    # p = T_{nu+2} lies outside the nu+2 head, so only the tail machinery
    # can represent it exactly
    omega, nu = 100.0, 8
    sys = make_exponential([0.0, 1.0], omega)
    amp = manufactured_amplitude(sys, nu + 2)
    res = _solve_fast(LevinProblem(system=sys, amplitude=amp, nu=nu, s=1))
    expected = manufactured_expected_value(sys, nu + 2)
    assert abs(res.value - expected) <= 1e-9 * (1 + abs(expected))
    # tail coefficient of T_{nu+2} should be 1, everything else ~0
    assert res.coeffs[0, nu + 2] == pytest.approx(1.0, abs=1e-8)


def test_scalar_s2_zero_amplitude_zero_tail():
    sys = make_exponential([0.0, 1.0], 100.0)
    res = _solve_fast(LevinProblem(system=sys, amplitude=zero_amplitude(1), nu=8, s=2))
    assert res.value == 0.0
    assert np.allclose(res.coeffs, 0.0)
    assert res.coeffs.shape == (1, 8 + 2 * 2 + 2)


def test_scalar_s1_decay_steeper_than_s0():
    from oscillquad.reference import oracle_value

    rr = runge_amplitude(1)
    omegas = np.logspace(2, 4, 5)
    e0, e1 = [], []
    for w in omegas:
        sys = make_exponential([0.0, 1.0], w)
        exact = oracle_value(sys, rr, 200000)
        e0.append(abs(_solve_fast(
            LevinProblem(system=sys, amplitude=rr, nu=4, s=0)).value - exact))
        e1.append(abs(_solve_fast(
            LevinProblem(system=sys, amplitude=rr, nu=4, s=1)).value - exact))
    s0 = fit_loglog_slope(omegas, e0)
    s1 = fit_loglog_slope(omegas, e1)
    assert s1 <= s0 - 0.7, (s0, s1)


def test_endpoint_derivative_conditions_hold():
    # the l = 1..s rows of the collocation system, evaluated on the returned
    # coefficients through the unscaled operator
    omega, nu, s = 100.0, 12, 2
    sys = make_exponential([0.0, 1.0, 0.0, 0.1], omega)
    amp = runge_amplitude(1)
    res = _solve_fast(LevinProblem(system=sys, amplitude=amp, nu=nu, s=s))
    coeffs = res.coeffs[0]
    nb = coeffs.shape[0]
    gt_table = sys.g_transpose_entry(0, 0).endpoint_derivatives(s)
    for l in range(1, s + 1):
        for gt, sign in zip(gt_table, (+1, -1)):
            t_rows = endpoint_derivative_rows(nb - 1, l + 1, sign)
            lhs = np.dot(coeffs, t_rows[l + 1])
            for p in range(l + 1):
                lhs += math.comb(l, p) * gt[p] * np.dot(coeffs, t_rows[l - p])
            rhs = amp.derivative(l, sign)[0]
            assert abs(lhs - rhs) <= 1e-7 * omega ** (s + 1) * (1 + abs(rhs))


# ---------------------------------------------------------------------------
# Block systems (M >= 2)
# ---------------------------------------------------------------------------

def decoupled_two_phase_system(omega):
    """Two independent exponential oscillators (phases x and 2x) as one block system."""
    return OscillatorSystem(
        omega=omega, r=Polynomial([1.0]),
        r_g=((Polynomial([1j * omega]), Polynomial([0.0])),
             (Polynomial([0.0]), Polynomial([2j * omega]))),
        w_plus=np.array([np.exp(1j * omega), np.exp(2j * omega)]),
        w_minus=np.array([np.exp(-1j * omega), np.exp(-2j * omega)]),
    )


def test_block_s0_decouples_into_scalar_solves():
    omega, nu = 100.0, 24
    sys2 = decoupled_two_phase_system(omega)
    f1 = lambda x: x / (x * x + 0.02) + 0j
    f2 = lambda x: np.cos(x) + 0j
    amp2 = AmplitudeSpec(components=(f1, f2))
    res2 = _solve_fast(LevinProblem(system=sys2, amplitude=amp2, nu=nu))
    parts = []
    for g_coeffs, f in (([0.0, 1.0], f1), ([0.0, 2.0], f2)):
        sys1 = make_exponential(g_coeffs, omega)
        amp1 = AmplitudeSpec(components=(f,))
        parts.append(_solve_fast(
            LevinProblem(system=sys1, amplitude=amp1, nu=nu)).value)
    assert abs(res2.value - sum(parts)) <= 1e-11 * (1 + abs(res2.value))


def test_block_s0_hankel_vs_frozen_oracle():
    sys = make_bessel(1, 2.0, 100.0)
    res = _solve_fast(LevinProblem(system=sys, amplitude=runge_amplitude(2), nu=128))
    assert abs(res.value - I2_OMEGA100) <= 1e-7
    assert res.path == "block_s0"


def test_block_s0_zero_amplitude():
    sys = make_bessel(1, 2.0, 100.0)
    res = _solve_fast(LevinProblem(system=sys, amplitude=zero_amplitude(2), nu=16))
    assert res.value == 0.0


def test_block_s1_manufactured_beyond_head():
    omega, nu = 100.0, 8
    sys = make_bessel(1, 2.0, omega)
    amp = manufactured_amplitude(sys, nu + 2)
    res = _solve_fast(LevinProblem(system=sys, amplitude=amp, nu=nu, s=1))
    expected = manufactured_expected_value(sys, nu + 2)
    assert abs(res.value - expected) <= 1e-9 * (1 + abs(expected))


def test_block_s1_decay_steeper_than_s0():
    from oscillquad.reference import oracle_value

    rr = runge_amplitude(2)
    omegas = np.logspace(2, 4, 5)
    e0, e1 = [], []
    for w in omegas:
        sys = make_bessel(1, 2.0, w)
        exact = oracle_value(sys, rr, 200000)
        e0.append(abs(_solve_fast(
            LevinProblem(system=sys, amplitude=rr, nu=4, s=0)).value - exact))
        e1.append(abs(_solve_fast(
            LevinProblem(system=sys, amplitude=rr, nu=4, s=1)).value - exact))
    s0 = fit_loglog_slope(omegas, e0)
    s1 = fit_loglog_slope(omegas, e1)
    assert s1 <= s0 - 0.5, (s0, s1)


def test_scalar_s2_above_nu_is_flagged_or_right():
    # with omega above nu the s >= 1 fast path loses accuracy that neither
    # the collocation residual nor the derivative conditions show; this
    # case must not come back as an unflagged wrong answer (a singular tail
    # system is loud too: quadrature leaves the fast path)
    sys = make_exponential([0.0, 1.0], 1e4)
    try:
        res = _solve_fast(LevinProblem(system=sys, amplitude=runge_amplitude(1),
                                       nu=8192, s=2))
    except SingularMatrixError:
        return
    assert res.flagged or abs(res.value - I1_OMEGA1E4) <= 1e-5 * abs(I1_OMEGA1E4)


def test_block_s_zero_amplitude():
    sys = make_bessel(1, 2.0, 100.0)
    res = _solve_fast(LevinProblem(system=sys, amplitude=zero_amplitude(2), nu=8, s=1))
    assert res.value == 0.0


# ---------------------------------------------------------------------------
# Engine: multi-column solves at build time
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,s", [(1, 1), (1, 3), (2, 1), (2, 2)])
def test_engine_tail_columns_match_one_cleared_solve_each(m, s):
    # the tail columns are solved once per engine, in one multi-column
    # banded solve, with no DCT round trip; the interior part of each basis
    # column must equal the banded solve, through the DCT, of minus the
    # operator applied to that tail element (its rows in the band's order)
    nu = 24
    sys = make_exponential([0.0, 1.0], 80.0) if m == 1 else make_bessel(1, 2.0, 80.0)
    eng = CollocationEngine(sys, nu, s)
    n_all = nu + 2 + 2 * s
    tail = [(k, n) for k in range(m) for n in range(nu + 2, n_all)]
    basis = eng.basis.reshape(-1, m, n_all)
    assert basis.shape == (2 * m + len(tail), m, n_all)
    for c, (k, n) in enumerate(tail):
        z = np.array([apply_inverse_collocation(-apply_collocation_matrix(eng.tail_ops[c, i]))
                      for i in range(m)])
        want = banded_solve(eng.lu, z[:, 1 : nu + 1].T.reshape(-1)).reshape(nu, m).T
        got = basis[2 * m + c]
        assert got[k, n] == 1.0 and not got[:, 0].any() and np.count_nonzero(got[:, nu + 1 :]) == 1
        assert np.max(np.abs(got[:, 1 : nu + 1] - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("s", [0, 2])
def test_engine_works_in_the_field_of_the_system(s):
    # Bessel: r and every r G entry are real, so the engine is float64;
    # an exponential phase makes r G imaginary, so the engine is complex128
    for sys, dtype in ((make_bessel(1, 2.0, 100.0), np.float64),
                       (make_exponential([0.0, 1.0], 100.0), np.complex128)):
        eng = CollocationEngine(sys, 32, s)
        assert eng.lu.factors.data.dtype == dtype
        assert eng.interior_band().data.dtype == dtype
        for name in ("basis", "border", "rows", "tail_ops", "weights"):
            assert getattr(eng, name).dtype == dtype, name


#: Traced peak, in bytes, of the Bessel engine build at nu 8192, s 0.  The
#: engine keeps 7.01 MB (operator 2.23, LU factors 3.28, condition rows,
#: correction basis, grid) and the build peaks at 8.34 MB, in the border's
#: pseudo-inverse, when its grid and endpoint tables are new (7.94 when
#: they are cached).  This leaves 0.66 MB above that, so a copy of the band
#: in the factorization (3.28 MB), unfolded blocks held past the interleave
#: or the unfolded band past the fold (2.1 and 2.2 MB), or a kept interior
#: band (2.23 MB), fail.  A temporary inside the interior copy comes before
#: the peak; ``test_the_interior_copy_allocates_only_its_band`` bounds it.
ENGINE_PEAK_BYTES = 9_000_000


def test_engine_build_peak_memory_stays_near_what_it_keeps():
    sys = make_bessel(1, 2.0, 3000.0)
    tracemalloc.start()
    try:
        eng = CollocationEngine(sys, 8192, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= ENGINE_PEAK_BYTES


def test_the_interior_copy_allocates_only_its_band():
    # the build's traced peak (above) comes after the interior band is
    # copied, so a band-sized temporary made by the copy stays under it;
    # this bounds the copy on its own, at the same size
    eng = CollocationEngine(make_bessel(1, 2.0, 3000.0), 8192, 0)
    tracemalloc.start()
    try:
        band = eng.operator.principal_submatrix(2, 2 * 8193, spare_rows=eng.operator.lower_bw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert band.data.base.shape == (3 * 8 + 1, 2 * 8192)
    assert peak <= band.data.base.nbytes + 64 * 1024


@pytest.mark.parametrize("s", [0, 1])
def test_coeffs_are_complex128_for_real_and_complex_systems(s):
    for sys, dim in ((make_bessel(1, 2.0, 100.0), 2), (make_exponential([0.0, 1.0], 100.0), 1)):
        res = quadrature(LevinProblem(system=sys, amplitude=runge_amplitude(dim), nu=32, s=s))
        assert res.fallback_reason is None
        assert res.coeffs.dtype == np.complex128


@pytest.mark.parametrize("s", [0, 1])
def test_complex_amplitude_on_a_real_system(s):
    # a real engine solves a complex right-hand side as its real and
    # imaginary parts; the value is linear in f, to rounding in max|f| (3.54)
    sys = make_bessel(1, 2.0, 100.0)
    c = 1.0 - 2.5j
    scaled = rational_amplitude(Polynomial([0.0, c]), Polynomial([0.02, 0.0, 1.0]), 2)
    got = quadrature(LevinProblem(system=sys, amplitude=scaled, nu=64, s=s))
    want = quadrature(LevinProblem(system=sys, amplitude=runge_amplitude(2), nu=64, s=s))
    assert got.path == want.path == ("block_s0" if s == 0 else "block_s")
    assert abs(got.value - c * want.value) <= 2e-13 * abs(c) * 3.54


def test_engine_null_vectors_are_annihilated_on_the_interior():
    sys = make_bessel(1, 2.0, 60.0)
    nu = 20
    eng = CollocationEngine(sys, nu, 1)
    for v in eng.basis[:4].reshape(4, 2, nu + 4)[:, :, : nu + 2]:
        interior = (eng.operator_dia @ v.T.reshape(-1))[2 : 2 * (nu + 1)]
        assert np.max(np.abs(interior)) <= 1e-12 * np.max(np.abs(v))


def block_diagonal_system(m, field):
    """M uncoupled components w_k' = g_k w_k over r = 2 + x/2, with g_k
    imaginary (a complex engine) or real (a real engine)."""
    unit = 1j if field == "complex" else 1.0
    r = Polynomial([2.0, 0.5])
    r_g = tuple(tuple(unit * (k + 1) * 20.0 * r if j == k else Polynomial([0.0])
                      for j in range(m)) for k in range(m))
    ones = np.ones(m, dtype=np.complex128)
    return OscillatorSystem(omega=20.0 * m, r=r, r_g=r_g, w_plus=ones, w_minus=ones)


@pytest.mark.parametrize("s", [0, 1, 2])
@pytest.mark.parametrize("m,field,rhs_field", [
    (2, "real", "real"), (2, "real", "complex"), (2, "complex", "complex"),
    (3, "real", "real"), (3, "complex", "complex")])
def test_a_zero_component_gets_the_coefficients_of_its_transform(m, field, rhs_field, s):
    # a component with no nonzero sample is not transformed: its z row and
    # every coefficient are the bytes the transform of its zero row gives,
    # through the rest of the solve (the reference below)
    nu = 32
    eng = CollocationEngine(block_diagonal_system(m, field), nu, s)
    assert eng.dtype == (np.complex128 if field == "complex" else np.float64)
    rng = np.random.default_rng(10 * m + s)
    for zero in range(m):
        rhs = rng.normal(size=(m, nu + 2)) + (1j * rng.normal(size=(m, nu + 2))
                                              if rhs_field == "complex" else 0)
        rhs[:, [0, -1]] = 0
        rhs[zero] = 0
        targets = rng.normal(size=len(eng.rows))
        coeffs, z = eng.solve_cleared(rhs, targets)
        want_z = np.array([apply_inverse_collocation(row) for row in rhs])
        x = banded_solve(eng.lu, want_z[:, 1 : nu + 1].T.reshape(-1))
        want = np.zeros((m, nu + 2 * s + 2), dtype=np.result_type(x, targets))
        want[:, 1 : nu + 1] = x.reshape(nu, m).T
        head = want.reshape(-1)
        head += (eng.weights @ (targets - (eng.rows * head).sum(axis=1))) @ eng.basis
        assert z.dtype == want_z.dtype and z.tobytes() == want_z.tobytes()
        assert coeffs.dtype == want.dtype and coeffs.tobytes() == want.tobytes()


def test_a_reused_call_allocates_under_a_megabyte():
    # a Bessel call on a reused engine at the batch_rhs size (nu 2048, s 1);
    # a transient of about 2 MB once moved glibc's mmap threshold, and with
    # it the timings of what ran after it in the same process
    sys = make_bessel(1, 2.0, 300.0)
    quadrature(LevinProblem(system=sys, amplitude=runge_shifted(0.0, 2), nu=2048, s=1))
    problem = LevinProblem(system=sys, amplitude=runge_shifted(0.3, 2), nu=2048, s=1)
    tracemalloc.start()
    try:
        res = quadrature(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.engine_reused and res.fallback_reason is None
    assert peak < 2**20


def engine_system(m):
    return make_exponential([0.0, 1.0], 100.0) if m == 1 else make_bessel(1, 2.0, 100.0)


TAIL_SYSTEMS = {
    "exp_linear": lambda: make_exponential([0.0, 1.0], 100.0),
    "exp_cubic": lambda: make_exponential([0.0, 1.5, 0.3, -0.2], 80.0),
    "bessel": lambda: make_bessel(1, -2.5, 100.0),
    "custom_r": lambda: OscillatorSystem(
        omega=150.0, r=Polynomial([3.0, 1.0, 0.2]),
        r_g=((150j * Polynomial([1.0, 0.0, 0.5]),),),
        w_plus=np.array([0.3 - 0.7j]), w_minus=np.array([1.1 + 0.2j])),
}


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("name", sorted(TAIL_SYSTEMS))
def test_tail_columns_vanish_at_both_endpoints(name, s):
    # The (1 - x^2)-scaled operator applied to any T_n vanishes at x = +-1,
    # and the fold keeps grid values, so every tail column's series sums to
    # zero at +1 (sum) and -1 (alternating sum), to rounding: the tail
    # right-hand sides need no endpoint correction.
    eng = CollocationEngine(TAIL_SYSTEMS[name](), 64, s)
    assert eng.tail_ops.shape == (eng.m * 2 * s, eng.m, 66)
    signs = (-1.0) ** np.arange(66)
    for col in eng.tail_ops.reshape(-1, 66):
        bound = 64 * np.finfo(np.float64).eps * np.sum(np.abs(col))
        assert bound > 0
        assert abs(col.sum()) <= bound
        assert abs(col @ signs) <= bound


def folded_blocks(sys, nu, s):
    """Each operator block, built and folded one by one."""
    m = sys.dim
    p_mult = [[ONE_MINUS_X2 * sys.r_g[j][i] for j in range(m)] for i in range(m)]
    max_deg = max(max(p.degree for row in p_mult for p in row), sys.r.degree + 2)
    big = [[build_banded_operator(sys.r if i == j else Polynomial([0.0]),
                                  p_mult[i][j], nu + 2 * s + 6 + max_deg)
            for j in range(m)] for i in range(m)]
    depth = max(b.lower_bw for row in big for b in row) - 1
    return [[fold_operator(b, nu, depth) for b in row] for row in big]


def in_order(blocks, order):
    """The block rows in equation order: row a is block row order[a]."""
    return [blocks[i] for i in order]


def folded_block_interiors(sys, nu, s):
    """Rows and columns 1..nu of each folded operator block, built one by one."""
    return [[b.principal_submatrix(1, nu + 1) for b in row]
            for row in folded_blocks(sys, nu, s)]


@pytest.mark.parametrize("m,s", [(1, 0), (1, 2), (2, 0), (2, 1)])
def test_reordered_band_equals_the_per_block_construction(m, s):
    # the engine interleaves the unfolded blocks and folds the band once;
    # its operator equals, bit for bit and on the same half-widths, the
    # interleaving of each block folded on its own in the engine's equation
    # order, and so does its projected system, from the blocks' interiors
    nu = 24
    sys = engine_system(m)
    eng = CollocationEngine(sys, nu, s)
    for got, want in (
            (eng.operator, reorder_block_banded(in_order(folded_blocks(sys, nu, s), eng.order))),
            (eng.interior_band(),
             reorder_block_banded(in_order(folded_block_interiors(sys, nu, s), eng.order)))):
        assert (got.n, got.lower_bw, got.upper_bw) == (want.n, want.lower_bw, want.upper_bw)
        assert got.data.dtype == want.data.dtype
        assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("name,order,widths", [
    ("bessel", (1, 0), (8, 8)),
    ("exponential", (0,), (2, 2)),
    ("block_diagonal_2", (0, 1), (6, 6)),
    ("block_diagonal_3", (0, 1, 2), (9, 9))])
def test_engine_takes_the_narrowest_equation_order(name, order, widths):
    # Bessel's off-diagonal blocks are the widest (half-width 4, against 3
    # on the diagonal): beside the unknown they multiply, each equation's
    # widest entries sit on the diagonals +-8, not +-9.  One component, and
    # uncoupled ones, keep the identity order.
    sys = {"bessel": lambda: make_bessel(1, 2.0, 100.0),
           "exponential": lambda: make_exponential([0.0, 1.0], 100.0),
           "block_diagonal_2": lambda: block_diagonal_system(2, "real"),
           "block_diagonal_3": lambda: block_diagonal_system(3, "complex")}[name]()
    eng = CollocationEngine(sys, 24, 1)
    assert eng.order == order
    assert (eng.lu.kl, eng.lu.ku) == widths
    # the kept operator is on the same half-widths as the interior band and
    # its LU, and the outermost diagonals of both hold entries: neither band
    # is wider than they are
    for band in (eng.interior_band(), eng.operator):
        assert (band.lower_bw, band.upper_bw) == widths
        assert band.data[0].any() and band.data[-1].any()


@pytest.mark.parametrize("s", [0, 1])
def test_the_chosen_order_factors_and_solves_as_the_identity_order(s):
    # gbtrf on the swapped Bessel band picks the same pivot equation at every
    # step as on the identity-order (Hockney) band, and gbtrs gives the same
    # solution, bit for bit
    nu = 64
    sys = make_bessel(1, 2.0, 300.0)
    eng = CollocationEngine(sys, nu, s)
    assert eng.order == (1, 0)
    identity_band = reorder_block_banded(folded_block_interiors(sys, nu, s))
    assert (identity_band.lower_bw, identity_band.upper_bw) == (9, 9)
    chosen, plain = banded_lu_factor(eng.interior_band()), banded_lu_factor(identity_band)
    assert (chosen.kl, chosen.ku) == (8, 8)

    def pivot_equations(lu, order):
        rows = [(n, order[a]) for n in range(nu) for a in range(2)]
        for j, p in enumerate(lu.pivots):
            rows[j], rows[p] = rows[p], rows[j]
        return rows

    assert pivot_equations(chosen, eng.order) == pivot_equations(plain, (0, 1))
    rhs = np.random.default_rng(3).normal(size=(nu, 2, 4))  # (point, equation, column)
    x_chosen = banded_solve(chosen, rhs[:, list(eng.order)].reshape(2 * nu, 4))
    x_plain = banded_solve(plain, rhs.reshape(2 * nu, 4))
    assert x_chosen.tobytes() == x_plain.tobytes()
    assert eng.lu.factors.data.tobytes() == chosen.factors.data.tobytes()


@pytest.mark.parametrize("m,s", [(1, 0), (1, 2), (2, 0), (2, 1)])
def test_end_rows_match_the_dense_endpoint_rows(m, s):
    # row (i, e) of the conditions table at l = 0 is r(+-1) times the
    # literal collocation row of component i at x = +-1
    nu = 24
    sys = engine_system(m)
    eng = CollocationEngine(sys, nu, s)
    prob = LevinProblem(system=sys, amplitude=runge_amplitude(m), nu=nu, s=s)
    a, _ = dense_collocation_matrix(prob)
    per_comp = nu + 2 + 2 * s
    for i in range(m):
        for e, (point, r_end) in enumerate(((0, sys.r(1.0)), (nu + 1, sys.r(-1.0)))):
            want = a[i * per_comp + point]
            got = eng.rows[2 * i + e] / r_end
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (i, e)


def benchmark_spans():
    """The benchmark's span recorder module, ``benchmarks/spans.py``."""
    bench_dir = str(Path(__file__).resolve().parent.parent / "benchmarks")
    sys_module.path.insert(0, bench_dir)
    try:
        import spans
    finally:
        sys_module.path.remove(bench_dir)
    return spans


def test_every_traced_name_resolves():
    # the benchmark's span recorder patches these names in place and reads
    # them through owner.__dict__: deleting one breaks its traced runs
    for owner, attr, _name, _work in benchmark_spans().instrumented_targets():
        assert attr in owner.__dict__, (owner, attr)


#: The build layers a cold fast solve calls, by span name.
COLD_BUILD_SPANS = ("chebyshev.operator", "chebyshev.fold", "chebyshev.submatrix",
                    "chebyshev.grid", "banded.reorder", "banded.factor", "banded.solve")


@pytest.mark.parametrize("m", [1, 2])
def test_a_cold_build_calls_every_traced_layer(m):
    # each per-layer metric of the benchmark's --trace 1 run comes from
    # these spans: a build that stopped calling one of them would read 0
    spans = benchmark_spans()
    levin._forget_engine()
    with spans.Tracer() as tracer:
        res = quadrature(LevinProblem(system=engine_system(m), amplitude=runge_shifted(0.0, m),
                                      nu=32))
    assert not res.engine_reused and res.fallback_reason is None
    recorded = {span[0] for span in tracer.spans}
    assert set(COLD_BUILD_SPANS) <= recorded, set(COLD_BUILD_SPANS) - recorded


@pytest.mark.parametrize("m,s,kind,transforms", [
    pytest.param(1, 0, "runge", 1, id="1-0"), pytest.param(1, 1, "runge", 1, id="1-1"),
    pytest.param(2, 1, "runge", 1, id="2-1"), pytest.param(2, 2, "runge", 1, id="2-2"),
    pytest.param(2, 1, "manufactured", 2, id="2-1-manufactured")])
def test_a_reused_engine_call_does_no_f_independent_work(m, s, kind, transforms):
    # counted as the benchmark's --trace 1 run counts them: a call on a
    # reused engine runs one inverse transform per component of its
    # right-hand side with a nonzero sample (a rational amplitude fills
    # component 0 only; a manufactured one on Bessel fills both) and one
    # one-column banded solve, and nothing that the build did
    spans = benchmark_spans()
    sys = engine_system(m)
    if kind == "runge":
        first, second = runge_shifted(0.0, m), runge_shifted(0.3, m)
    else:
        first, second = manufactured_amplitude(sys, 3), manufactured_amplitude(sys, 4)
    nu = 32
    samples = second.values(clenshaw_curtis_points(nu).points)
    assert np.count_nonzero(samples.any(axis=1)) == transforms
    levin._forget_engine()
    with spans.Tracer() as build:
        quadrature(LevinProblem(system=sys, amplitude=first, nu=nu, s=s))
    with spans.Tracer() as call:
        res = quadrature(LevinProblem(system=sys, amplitude=second, nu=nu, s=s))
    assert res.engine_reused and res.fallback_reason is None
    built = spans.layer_metrics(build.spans, 1)
    assert built["levin.engine_calls"][0] == 1
    assert sum(span[0] == "banded.dense_solve" for span in build.spans) == min(s, 1)
    reused = spans.layer_metrics(call.spans, 1)
    assert reused["levin.engine_calls"][0] == 0
    assert reused["chebyshev.dct_calls"][0] == transforms
    assert reused["banded.solve_calls"][0] == 1 and reused["banded.solve_cols"][0] == 1
    assert reused["banded.factor_calls"][0] == 0
    assert not any(span[0] == "banded.dense_solve" for span in call.spans)


def test_a_tail_system_that_fails_its_screen_falls_back_from_one_build(monkeypatch):
    # the screen runs once, at the build; every call on that engine then
    # raises the same SingularMatrixError and falls back, and the engine
    # stays in its slot
    spans = benchmark_spans()
    screen = levin.dense_solve

    def zero_last_column(a, b):
        a = np.array(a)
        a[:, -1] = 0.0
        return screen(a, b)

    monkeypatch.setattr(levin, "dense_solve", zero_last_column)
    sys = make_exponential([0.0, 1.0], 100.0)
    levin._forget_engine()
    with spans.Tracer() as tracer:
        results = [quadrature(LevinProblem(system=sys, amplitude=runge_shifted(shift),
                                           nu=32, s=1))
                   for shift in (0.0, 0.3)]
    assert [r.path for r in results] == ["dense_fallback"] * 2
    assert results[0].fallback_reason == results[1].fallback_reason == (
        "SingularMatrixError: zero column 1 in dense system")
    assert sum(span[0] == "levin.engine" for span in tracer.spans) == 1
    assert sum(span[0] == "banded.dense_solve" for span in tracer.spans) == 1


def _residual_call(problem):
    """The fast result, and the engine and arguments it passed to its
    residual check: (result, (engine, coeffs, rhs_scaled, targets, z, level))."""
    seen = []
    original = CollocationEngine.residual

    def spy(self, *args):
        seen.append((self,) + args)
        return original(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CollocationEngine, "residual", spy)
        res = _solve_fast(problem)
    (call,) = seen
    return res, call


@pytest.mark.parametrize("m,s", [(1, 0), (1, 2), (2, 0), (2, 1)])
def test_fast_solve_runs_2m_transforms_for_every_s(m, s, monkeypatch):
    # at most 2M: the solve's inverse transform of each component with a
    # nonzero sample (runge_amplitude fills component 0 only), and M forward
    # ones only when the residual's certificate does not clear the level
    sys = make_exponential([0.0, 1.0], 100.0) if m == 1 else make_bessel(1, 2.0, 100.0)
    problem = LevinProblem(system=sys, amplitude=runge_amplitude(m), nu=32, s=s)
    calls = {"apply_collocation_matrix": 0, "apply_inverse_collocation": 0}
    for name in calls:
        def counted(*a, _f=getattr(levin, name), _name=name, **k):
            calls[_name] += 1
            return _f(*a, **k)

        monkeypatch.setattr(levin, name, counted)
    res, (eng, *args, level) = _residual_call(problem)
    assert not res.flagged and res.residual <= level
    assert calls == {"apply_collocation_matrix": 0, "apply_inverse_collocation": 1}
    eng.residual(*args, 0.0)
    assert calls == {"apply_collocation_matrix": m, "apply_inverse_collocation": 1}


@pytest.mark.parametrize("m,s", [(1, 0), (1, 2), (2, 0), (2, 1)])
def test_exact_residual_is_the_value_space_check(m, s):
    # below every certificate the residual is the value-space check:
    # one forward transform per component of the operator applied to the
    # head plus the tail, divided back by (1 - c^2) r, and the endpoint
    # rows divided back by r(+-1)
    sys = make_exponential([0.0, 1.0], 100.0) if m == 1 else make_bessel(1, 2.0, 100.0)
    amp = runge_amplitude(m)
    _, (eng, coeffs, *args, _) = _residual_call(LevinProblem(system=sys, amplitude=amp, nu=32, s=s))
    nu, grid, r_vals = eng.nu, eng.grid, eng.r_vals
    f_values = real_if_zero_imag(amp.values(grid.points))
    # the band's rows and the tail columns' hold the equations in eng.order
    acc = ((eng.operator_dia @ coeffs[:, : nu + 2].T.reshape(-1)).reshape(nu + 2, m).T
           + (coeffs[:, nu + 2 :].reshape(-1)
              @ eng.tail_ops.reshape(-1, m * (nu + 2))).reshape(m, nu + 2))
    y = np.array([apply_collocation_matrix(a) for a in acc])
    interior = np.abs(y[:, 1:-1] - (grid.sin2 * r_vals * f_values)[list(eng.order), 1:-1]) / (
        grid.sin2[1:-1] * np.abs(r_vals[1:-1]))
    r_end = r_vals[[0, -1]]
    ends = np.abs(eng.rows[: 2 * m] @ coeffs.reshape(-1)
                  - (r_end * f_values[:, [0, -1]]).reshape(-1)) / np.tile(np.abs(r_end), m)
    assert eng.residual(coeffs, *args, 0.0) == float(max(interior.max(), ends.max()))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_certificate_bounds_the_exact_residual_and_keeps_its_flag(data):
    if data.draw(st.booleans(), label="bessel"):
        a = data.draw(st.floats(1.1, 4.0), label="|a|") * data.draw(st.sampled_from([1, -1]))
        sys = make_bessel(data.draw(st.integers(0, 5), label="gamma"), a,
                          10 ** data.draw(st.floats(0.0, 3.0), label="log10 omega"))
    else:
        # g' = 1 + 2 b x + 3 c x^2 stays >= 0.1 on [-1, 1]
        b = data.draw(st.floats(-0.2, 0.2), label="b")
        c = data.draw(st.floats(-0.15, 0.15), label="c")
        sys = make_exponential([0.0, 1.0, b, c][: data.draw(st.integers(2, 4))],
                               10 ** data.draw(st.floats(0.0, 3.0), label="log10 omega"))
    if data.draw(st.booleans(), label="manufactured"):
        amp = manufactured_amplitude(sys, data.draw(st.integers(0, 12), label="n"))
    else:
        num = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4), label="num")
        den = [data.draw(st.floats(0.01, 2.0), label="den"), 0.0, 1.0]
        amp = rational_amplitude(Polynomial(num), Polynomial(den), sys.dim)
    nu = 2 * data.draw(st.integers(4, 48), label="nu/2")
    s = data.draw(st.integers(0, 2), label="s")
    try:
        res, (eng, *args, level) = _residual_call(
            LevinProblem(system=sys, amplitude=amp, nu=nu, s=s))
    except (SingularMatrixError, UnsupportedRegimeError):
        return
    certificate = eng.residual(*args, math.inf)
    exact = eng.residual(*args, 0.0)
    assert certificate >= exact or math.isnan(certificate)
    assert res.flagged == (not exact <= level)
    assert res.residual <= level or res.residual == exact or math.isnan(exact)


def draw_phase(data, label):
    """A phase g of degree 1 to 3 with g' != 0 on [-1, 1], and max |g'| there."""
    degree = data.draw(st.integers(1, 3), label=f"{label} degree")
    c2, c3 = (data.draw(st.floats(-0.5, 0.5), label=f"{label} c{k}") if degree >= k else 0.0
              for k in (2, 3))
    c1 = (2 * abs(c2) + 3 * abs(c3) + data.draw(st.floats(0.2, 1.5), label=f"{label} margin")) * (
        data.draw(st.sampled_from([1.0, -1.0]), label=f"{label} sign"))
    g = [0.0, c1, c2, c3][: degree + 1]
    return g, float(np.abs(Polynomial(g).deriv()(np.linspace(-1.0, 1.0, 1001))).max())


def block_diagonal_exponential(g1, g2, omega):
    """The M = 2 system of two independent exponential weights exp(i omega g_k)."""
    zero = Polynomial([0.0])
    rg1, rg2 = (1j * omega * Polynomial(g).deriv() for g in (g1, g2))
    ends = [[np.exp(1j * omega * complex(Polynomial(g)(x))) for g in (g1, g2)]
            for x in (1.0, -1.0)]
    return OscillatorSystem(omega=omega, r=Polynomial([1.0]), r_g=((rg1, zero), (zero, rg2)),
                            w_plus=np.array(ends[0]), w_minus=np.array(ends[1]))


#: Closed-form error allowed to an unflagged fast value in the fuzz below,
#: in units of max|f| times max|r| / min|r| on the grid (the range that
#: clearing the denominator r spans: 1 for an exponential phase, up to
#: 2e4 for a Bessel shift |a| near 1).  Over 4500 seeded draws of its
#: distribution, 1500 of them Bessel systems with |a| - 1 down to 1e-4, the
#: parent of the two-product call path stayed below 3.6e-12 (s = 2; 1.1e-12
#: at s = 0, 7.4e-14 at s = 1), and this change the same; the bound leaves
#: a factor of about 30.
CLOSED_FORM_TOL = 1e-10


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_fast_path_matches_closed_forms(data):
    # manufactured amplitudes have exact values; s >= 1 stays in the range
    # README documents (omega max|g'| at most nu / 4)
    nu = 2 * data.draw(st.integers(16, 128), label="nu/2")
    s = data.draw(st.integers(0, 2), label="s")
    n = data.draw(st.integers(0, 12), label="n")
    freq = 10 ** data.draw(st.floats(0.0, math.log10(nu / 4) if s else 4.0), label="log10 freq")
    kind = data.draw(st.sampled_from(["exponential", "bessel", "block"]), label="kind")
    if kind == "exponential":
        g, g_max = draw_phase(data, "g")
        sys = make_exponential(g, freq / g_max)
    elif kind == "bessel":
        a = data.draw(st.floats(1.01, 4.0), label="|a|") * data.draw(st.sampled_from([1, -1]))
        sys = make_bessel(data.draw(st.integers(0, 5), label="gamma"), a, freq)
    else:
        (g1, max1), (g2, max2) = draw_phase(data, "g1"), draw_phase(data, "g2")
        sys = block_diagonal_exponential(g1, g2, freq / max(max1, max2))
    amp = manufactured_amplitude(sys, n)
    points = clenshaw_curtis_points(nu).points
    f_max = np.abs(amp.values(points)).max()
    r_range = np.abs(sys.r(points)).max() / np.abs(sys.r(points)).min()
    try:
        res = _solve_fast(LevinProblem(system=sys, amplitude=amp, nu=nu, s=s))
    except (SingularMatrixError, UnsupportedRegimeError):
        return
    if res.flagged:
        return
    expected = manufactured_expected_value(sys, n)
    assert abs(res.value - expected) <= CLOSED_FORM_TOL * f_max * r_range
    if kind == "block":
        # the same integral with the two components swapped
        swapped = block_diagonal_exponential(g2, g1, sys.omega)
        amp = AmplitudeSpec(components=amp.components[::-1], deriv_plus=amp.deriv_plus[:, ::-1],
                            deriv_minus=amp.deriv_minus[:, ::-1])
        other = _solve_fast(LevinProblem(system=swapped, amplitude=amp, nu=nu, s=s))
        assert abs(other.value - res.value) <= 1e-13 * f_max


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_dct_rounding_bound_covers_the_round_trip(kind):
    # at scale 1e-250 the squares of the coefficients underflow, which must
    # not take the bound to zero
    rng = np.random.default_rng(5)
    for nu in [2, 4, 6, 14, 62, 510, 2046, 8190, 8192, 32768]:
        for scale in [1.0, 1e-250, 1e-250, 1.0]:
            v = rng.standard_normal(nu + 2)
            if kind == "complex":
                v = v + 1j * rng.standard_normal(nu + 2)
            v = v * scale
            z = apply_inverse_collocation(v)
            err = np.abs(apply_collocation_matrix(z) - v).max()
            assert err <= levin._dct_rounding_bound(z[None])[0], (nu, scale)


# ---------------------------------------------------------------------------
# Fast/dense equivalence and result invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tier,s", [("scalar", 0), ("scalar", 1),
                                    ("block", 0), ("block", 1)])
def test_fast_matches_dense_spot(tier, s):
    omega, nu = 100.0, 16
    if tier == "scalar":
        sys = make_exponential([0.0, 1.0], omega)
        amp = runge_amplitude(1)
    else:
        sys = make_bessel(1, 2.0, omega)
        amp = runge_amplitude(2)
    prob = LevinProblem(system=sys, amplitude=amp, nu=nu, s=s)
    fast = _solve_fast(prob)
    dense = dense_levin_solve(prob)
    assert abs(fast.value - dense.value) <= 1e-8 * (1 + abs(dense.value))
    assert np.max(np.abs(fast.coeffs - dense.coeffs)) <= 1e-7 * (
        1 + np.max(np.abs(dense.coeffs)))


def test_result_value_consistent_with_coefficients():
    omega = 100.0
    sys = make_bessel(1, 2.0, omega)
    res = _solve_fast(LevinProblem(system=sys, amplitude=runge_amplitude(2),
                                   nu=16, s=1))
    signs = (-1.0) ** np.arange(res.coeffs.shape[1])
    recomputed = (np.dot(res.coeffs.sum(axis=1), sys.w_plus)
                  - np.dot(res.coeffs @ signs, sys.w_minus))
    assert abs(recomputed - res.value) <= 1e-13 * (1 + abs(res.value))
    assert res.coeffs.shape == (2, 16 + 2 + 2)


def test_accepted_solve_residual_bound():
    omega = 100.0
    sys = make_exponential([0.0, 1.0], omega)
    amp = runge_amplitude(1)
    for nu in (16, 64, 256):
        res = _solve_fast(LevinProblem(system=sys, amplitude=amp, nu=nu))
        assert not res.flagged
        assert res.residual <= 1e-8 * omega  # max|f| is about 3.5 here


def test_manufactured_exactness_random_sample():
    rng = np.random.default_rng(17)
    omega, nu = 100.0, 12
    for sys, dim in ((make_exponential([0.0, 1.0], omega), 1),
                     (make_bessel(1, 2.0, omega), 2)):
        for s in (0, 1):
            n = int(rng.integers(0, nu + 2 * s + 2))
            amp = manufactured_amplitude(sys, n)
            prob = LevinProblem(system=sys, amplitude=amp, nu=nu, s=s)
            res = quadrature(prob)
            expected = manufactured_expected_value(sys, n)
            assert abs(res.value - expected) <= 1e-9 * (1 + abs(expected)), (dim, s, n)


# ---------------------------------------------------------------------------
# Regimes outside the two worked families
# ---------------------------------------------------------------------------

def test_custom_scalar_system_with_nontrivial_r():
    # scalar path with a genuine denominator-clearing polynomial: the
    # diagonal derivative block becomes (1-x^2)(x+3) d/dx
    from test_acceptance import random_manufactured

    rng = np.random.default_rng(99)
    omega = 150.0
    sys = OscillatorSystem(
        omega=omega, r=Polynomial([3.0, 1.0]),
        r_g=((1j * omega * Polynomial([1.0, 0.0, 0.5]),),),
        w_plus=np.array([0.3 - 0.7j]), w_minus=np.array([1.1 + 0.2j]))
    amp, expected = random_manufactured(sys, 12, 0, rng)
    res = quadrature(LevinProblem(system=sys, amplitude=amp, nu=12))
    assert res.path == "scalar_s0"
    assert abs(res.value - expected) <= 1e-9 * (1 + abs(expected))
    amp, expected = random_manufactured(sys, 12, 2, rng)
    res = _solve_fast(LevinProblem(system=sys, amplitude=amp, nu=12, s=2))
    assert abs(res.value - expected) <= 1e-9 * (1 + abs(expected))


def test_coupled_three_component_system():
    # fully coupled M = 3 system with polynomial couplings of order omega;
    # exercises the interleaved reordering beyond the 2x2 worked family
    from test_acceptance import random_manufactured

    rng = np.random.default_rng(7)
    omega = 150.0
    m = 3
    r_g = tuple(
        tuple(Polynomial((rng.normal(size=3) + 1j * rng.normal(size=3))
                         * omega * (1.0 if i == j else 0.2))
              for j in range(m))
        for i in range(m))
    sys = OscillatorSystem(
        omega=omega, r=Polynomial([4.0, 1.0]), r_g=r_g,
        w_plus=rng.normal(size=m) + 1j * rng.normal(size=m),
        w_minus=rng.normal(size=m) + 1j * rng.normal(size=m))
    for s in (0, 1):
        amp, expected = random_manufactured(sys, 16, s, rng)
        prob = LevinProblem(system=sys, amplitude=amp, nu=16, s=s)
        fast = quadrature(prob)
        dense = dense_levin_solve(prob)
        # the random couplings make the problem itself less well conditioned
        # than the worked integrals, hence the looser exactness tolerance
        assert abs(fast.value - expected) <= 1e-8 * (1 + abs(expected)), s
        assert abs(fast.value - dense.value) <= 1e-9 * (1 + abs(dense.value)), s


def test_block_s3_deep_tail_manufactured():
    sys = make_bessel(1, 2.0, 200.0)
    amp = manufactured_amplitude(sys, 13)  # T_{nu+5} with nu = 8
    res = _solve_fast(LevinProblem(system=sys, amplitude=amp, nu=8, s=3))
    expected = manufactured_expected_value(sys, 13)
    assert abs(res.value - expected) <= 1e-9 * (1 + abs(expected))
    assert res.coeffs.shape == (2, 8 + 6 + 2)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

def test_dispatcher_paths():
    sys1 = make_exponential([0.0, 1.0], 100.0)
    assert quadrature(LevinProblem(system=sys1, amplitude=runge_amplitude(1),
                                   nu=16)).path == "scalar_s0"
    sys2 = make_bessel(1, 2.0, 100.0)
    amp = manufactured_amplitude(sys2, 3)
    assert quadrature(LevinProblem(system=sys2, amplitude=amp,
                                   nu=16, s=3)).path == "block_s"


def test_dispatcher_small_omega_falls_back_to_dense():
    from oscillquad.reference import oracle_value

    sys = make_exponential([0.0, 1.0], 0.001)
    rr = runge_amplitude(1)
    res = quadrature(LevinProblem(system=sys, amplitude=rr, nu=16))
    assert res.path == "dense_fallback"
    assert np.isfinite(res.value.real) and np.isfinite(res.value.imag)
    exact = oracle_value(sys, rr, 200000)
    assert abs(res.value - exact) <= 5e-5


def test_fallback_reason_records_flagged_residual():
    sys = make_exponential([0.0, 1.0], 0.001)
    res = quadrature(LevinProblem(system=sys, amplitude=runge_amplitude(1), nu=16))
    assert res.path == "dense_fallback"
    assert res.fallback_reason.startswith("flagged residual ")
    assert float(res.fallback_reason.split()[-1]) > 0.0


def test_fallback_reason_records_unsupported_regime():
    # a cubic phase widens the band past what nu = 2 can fold
    sys = make_exponential([0.0, 0.0, 0.0, 1.0], 100.0)
    res = quadrature(LevinProblem(system=sys, amplitude=runge_amplitude(1), nu=2))
    assert res.path == "dense_fallback"
    assert res.fallback_reason.startswith("UnsupportedRegimeError: nu=2 too small")


def test_fallback_reason_records_singular_pivot(monkeypatch):
    def singular(a):
        raise SingularMatrixError("banded matrix numerically singular at pivot 7", 7)

    monkeypatch.setattr(levin, "banded_lu_factor", singular)
    sys = make_exponential([0.0, 1.0], 100.0)
    res = quadrature(LevinProblem(system=sys, amplitude=runge_amplitude(1), nu=16))
    assert res.path == "dense_fallback"
    assert res.fallback_reason == (
        "SingularMatrixError: banded matrix numerically singular at pivot 7")


def test_fallback_reason_keeps_dense_failure_when_fast_result_returned():
    # omega so small that the fast residual is flagged and the dense system
    # is singular: the flagged fast result comes back with both causes
    sys = make_exponential([0.0, 1.0], 1e-12)
    res = quadrature(LevinProblem(system=sys, amplitude=runge_amplitude(1), nu=64))
    assert res.path == "scalar_s0" and res.flagged
    assert res.fallback_reason.startswith("flagged residual ")
    assert "dense path failed: SingularMatrixError" in res.fallback_reason


def test_wall_time_of_a_fallback_covers_the_whole_call(monkeypatch):
    # a fast attempt that takes 50 ms and then fails counts in the time of
    # the dense fallback that follows it
    def slow_singular(problem):
        time.sleep(0.05)
        raise SingularMatrixError("banded matrix numerically singular at pivot 0", 0)

    monkeypatch.setattr(levin, "_solve_fast", slow_singular)
    sys = make_exponential([0.0, 1.0], 100.0)
    res = quadrature(LevinProblem(system=sys, amplitude=runge_amplitude(1), nu=16))
    assert res.path == "dense_fallback"
    assert res.wall_time >= 0.05


def test_wall_time_of_a_returned_flagged_result_covers_the_dense_attempt(monkeypatch):
    # the flagged fast result of a tiny omega comes back after a dense
    # attempt that takes 50 ms and then fails
    def slow_failing_dense(problem):
        time.sleep(0.05)
        raise SingularMatrixError("dense system numerically singular at pivot 0", 0)

    monkeypatch.setattr(reference, "dense_levin_solve", slow_failing_dense)
    sys = make_exponential([0.0, 1.0], 1e-12)
    res = quadrature(LevinProblem(system=sys, amplitude=runge_amplitude(1), nu=64))
    assert res.path == "scalar_s0" and res.flagged
    assert res.wall_time >= 0.05


def test_unresolved_border_direction_is_left_out(monkeypatch):
    # I1 at nu 16384, far above omega: one null-vector combination is, to
    # rounding, a homogeneous solution, and its border column lies below its
    # rounding floor.  Solving for its weight made the value depend on a
    # one-ulp change of one band entry (relative errors 3e-7 to 2e-5).
    omega = 1867.7114900275576
    expected = 3.5837508581565306e-05j  # oracle_value at 2e6 points
    build = levin.build_banded_operator
    for ulps in (0, 1, -1):
        def nudged(rho, p_mult, n_rows, ulps=ulps):
            b = build(rho, p_mult, n_rows)
            b.data[b.upper_bw, 1] += 1j * ulps * np.spacing(b.data[b.upper_bw, 1].imag)
            return b

        monkeypatch.setattr(levin, "build_banded_operator", nudged)
        levin._forget_engine()
        res = quadrature(LevinProblem(system=make_exponential([0.0, 1.0], omega),
                                      amplitude=runge_amplitude(1), nu=16384))
        assert res.path == "scalar_s0"
        assert abs(res.value - expected) <= 1e-8 * abs(expected), ulps


def test_unresolved_border_direction_is_left_out_for_two_components():
    # The same for M = 2: with the end-0 border columns solved for, this
    # draw was off by 6.7e-5 with a residual of 0.18, just under its flag.
    expected = 6.312866676675982e-07  # oracle_value at 2e6 points
    res = quadrature(LevinProblem(system=make_bessel(1, 2.0, 5879.124802740239),
                                  amplitude=runge_amplitude(2), nu=32768))
    assert res.path == "block_s0"
    assert abs(res.value - expected) <= 1e-8 * abs(expected)


def test_unsolvable_when_fast_fails_and_dense_is_over_the_memory_guard(monkeypatch):
    def singular(a):
        raise SingularMatrixError("banded matrix numerically singular at pivot 7", 7)

    monkeypatch.setattr(levin, "banded_lu_factor", singular)
    sys = make_exponential([0.0, 1.0], 100.0)
    with pytest.raises(UnsolvableProblemError) as info:
        quadrature(LevinProblem(system=sys, amplitude=runge_amplitude(1), nu=6000))
    message = str(info.value)
    assert "SingularMatrixError: banded matrix numerically singular" in message
    assert isinstance(info.value.__cause__, ValueError)
    assert "MiB guard" in str(info.value.__cause__)


@pytest.mark.parametrize("omega", [1e-300, 1e-200])
@pytest.mark.parametrize("make_sys", [lambda w: make_exponential([0.0, 1.0], w),
                                      lambda w: make_bessel(1, 2.0, w)],
                         ids=["exponential", "bessel"])
def test_a_tiny_omega_gives_a_flagged_answer_or_a_typed_error(make_sys, omega):
    # At omega 1e-300 the exponential system's border has an exactly zero
    # column whose rounding floor is subnormal (4e-316), so the column is
    # not finite in units of its floor; that must end in a typed error.
    system = make_sys(omega)
    try:
        res = quadrature(LevinProblem(system=system, amplitude=make_amplitude("cos", system),
                                      nu=64))
    except UnsolvableProblemError:
        return
    assert res.flagged


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("make_sys,dim", [(lambda: make_exponential([0.0, 1.0], 100.0), 1),
                                          (lambda: make_bessel(1, 2.0, 100.0), 2)])
def test_non_finite_amplitude_samples_are_rejected(bad, make_sys, dim, monkeypatch):
    def f(x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(np.abs(x - 0.3) < 0.05, bad, 1.0).astype(np.complex128)

    transforms = []
    monkeypatch.setattr(levin, "apply_inverse_collocation",
                        lambda *a, **k: transforms.append(1))
    amp = AmplitudeSpec(components=(f,) + (zero_component,) * (dim - 1))
    with pytest.raises(NonFiniteAmplitudeError, match="amplitude component 0 is"):
        quadrature(LevinProblem(system=make_sys(), amplitude=amp, nu=32))
    assert issubclass(NonFiniteAmplitudeError, ValueError)
    assert transforms == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("table", ["deriv_plus", "deriv_minus"])
def test_non_finite_derivative_tables_are_rejected_when_the_problem_is_built(bad, table):
    # a NaN order-1 table once gave an unflagged nan+nanj dense answer
    sys = make_exponential([0.0, 1.0], 100.0)
    cos = make_amplitude("cos", sys)
    tables = {"deriv_plus": cos.deriv_plus, "deriv_minus": cos.deriv_minus}
    tables[table] = np.full_like(tables[table], bad)
    amp = AmplitudeSpec(components=cos.components, **tables)
    with pytest.raises(NonFiniteAmplitudeError, match=table):
        LevinProblem(system=sys, amplitude=amp, nu=32, s=1)
    # s = 0 reads no table, and s = 1 reads only order 1
    LevinProblem(system=sys, amplitude=amp, nu=32, s=0)
    tables[table][0] = 1.0
    LevinProblem(system=sys, amplitude=AmplitudeSpec(cos.components, **tables), nu=32, s=1)


def test_nan_residual_is_flagged(monkeypatch):
    monkeypatch.setattr(CollocationEngine, "residual",
                        lambda self, c, rhs, targets, z, level: float("nan"))
    prob = LevinProblem(system=make_exponential([0.0, 1.0], 100.0),
                        amplitude=runge_amplitude(1), nu=16)
    assert _solve_fast(prob).flagged
    res = quadrature(prob)
    assert res.path == "dense_fallback" and res.fallback_reason == "flagged residual nan"


def test_fallbacks_are_logged(caplog):
    caplog.set_level(logging.INFO, logger="oscillquad")
    sys = make_exponential([0.0, 1.0], 100.0)
    quadrature(LevinProblem(system=sys, amplitude=runge_amplitude(1), nu=16))
    assert caplog.records == []     # the fast path logs nothing
    res = quadrature(LevinProblem(system=make_exponential([0.0, 0.0, 0.0, 1.0], 100.0),
                                  amplitude=runge_amplitude(1), nu=2))
    (record,) = caplog.records
    assert record.name == "oscillquad" and record.levelno == logging.INFO
    assert record.getMessage() == f"scalar_s0 fell back to dense_fallback: {res.fallback_reason}"
    caplog.clear()
    res = quadrature(LevinProblem(system=make_exponential([0.0, 1.0], 1e-12),
                                  amplitude=runge_amplitude(1), nu=64))
    (record,) = caplog.records
    assert record.levelno == logging.WARNING
    assert record.getMessage() == f"scalar_s0 result returned flagged: {res.fallback_reason}"


def test_engine_builds_are_logged_at_debug_level_only(caplog, monkeypatch):
    sys = make_bessel(1, 2.0, 100.0)
    prob = LevinProblem(system=sys, amplitude=runge_amplitude(2), nu=32, s=1)
    caplog.set_level(logging.DEBUG, logger="oscillquad")
    levin._forget_engine()
    quadrature(prob)
    (record,) = caplog.records
    assert record.name == "oscillquad" and record.levelno == logging.DEBUG
    message = record.getMessage()
    assert message.startswith("built engine: M=2 nu=32 s=1 field=float64 in ")
    kept = int(message.split("keeping ")[1].split()[0])
    eng, reused = levin._engine_for(sys, 32, 1)
    assert reused
    assert kept >= sum(a.nbytes for a in (eng.operator.data, eng.lu.factors.data,
                                          eng.rows, eng.basis))
    caplog.clear()
    quadrature(prob)    # a reused engine is not built again
    assert caplog.records == []
    # above DEBUG the record is neither formatted nor its bytes summed
    caplog.set_level(logging.INFO, logger="oscillquad")
    monkeypatch.setattr(levin._log, "debug", lambda *args: pytest.fail("logged at INFO"))
    levin._forget_engine()
    assert quadrature(prob).fallback_reason is None


def test_minimal_even_grid():
    # nu = 2 is the smallest legal grid for the linear-phase operator
    omega = 200.0
    sys = make_exponential([0.0, 1.0], omega)
    amp = runge_amplitude(1)
    prob = LevinProblem(system=sys, amplitude=amp, nu=2)
    fast = _solve_fast(prob)
    dense = dense_levin_solve(prob)
    assert abs(fast.value - dense.value) <= 1e-10 * (1 + abs(dense.value))


def test_parallel_solves_reproduce_serial():
    # solves are pure: a thread pool over an omega grid must reproduce the
    # sequential values bit for bit
    amp = runge_amplitude(1)

    def solve(omega):
        sys = make_exponential([0.0, 1.0], omega)
        return quadrature(LevinProblem(system=sys, amplitude=amp, nu=32)).value

    omegas = list(np.linspace(60.0, 300.0, 8))
    serial = [solve(w) for w in omegas]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(solve, omegas))
    assert serial == threaded


# ---------------------------------------------------------------------------
# Engine reuse: one value-keyed slot
# ---------------------------------------------------------------------------

def runge_shifted(shift, dim=1):
    """(x + shift) / (x^2 + 0.02): one amplitude per shift, for one system."""
    return rational_amplitude(Polynomial([shift, 1.0]), Polynomial([0.02, 0.0, 1.0]),
                              dim, name=f"runge+{shift}")


def count_engine_builds(monkeypatch):
    builds = []
    original = CollocationEngine.__init__

    def init(self, *args):
        builds.append(args[1:])
        original(self, *args)

    monkeypatch.setattr(CollocationEngine, "__init__", init)
    return builds


@pytest.mark.parametrize("make_sys,s", [
    (lambda: make_exponential([0.0, 1.0, 0.3], 150.0), 0),
    (lambda: make_exponential([0.0, 1.0], 150.0), 2),
    (lambda: make_bessel(2, 2.5, 90.0), 1),
])
def test_equal_systems_share_one_engine_and_match_cold_solves(make_sys, s, monkeypatch):
    m = make_sys().dim
    amps = [runge_shifted(shift, m) for shift in (0.0, 0.3, -0.7)]
    cold = []
    for amp in amps:
        levin._forget_engine()
        cold.append(quadrature(LevinProblem(system=make_sys(), amplitude=amp, nu=48, s=s)))
    levin._forget_engine()
    builds = count_engine_builds(monkeypatch)
    # a separately built system with equal values for every call
    warm = [quadrature(LevinProblem(system=make_sys(), amplitude=amp, nu=48, s=s))
            for amp in amps]
    assert builds == [(48, s)]
    assert [r.engine_reused for r in warm] == [False, True, True]
    assert not any(r.engine_reused for r in cold)
    for c, w in zip(cold, warm):
        assert c.path == w.path and c.fallback_reason is None
        assert c.value == w.value
        assert np.array_equal(c.coeffs, w.coeffs) and c.residual == w.residual


@pytest.mark.parametrize("changed", [
    lambda: (make_exponential([0.0, 1.0], 151.0), 32, 1),   # omega
    lambda: (make_exponential([0.0, 1.0, 0.1], 150.0), 32, 1),  # phase
    lambda: (make_exponential([0.0, 1.0], 150.0), 34, 1),   # nu
    lambda: (make_exponential([0.0, 1.0], 150.0), 32, 2),   # s
])
def test_any_change_to_what_the_engine_reads_misses(changed, monkeypatch):
    levin._engine_for(make_exponential([0.0, 1.0], 150.0), 32, 1)
    builds = count_engine_builds(monkeypatch)
    sys, nu, s = changed()
    engine, reused = levin._engine_for(sys, nu, s)
    assert not reused and len(builds) == 1
    assert (engine.nu, engine.s) == (nu, s) and engine.system is sys


@pytest.mark.parametrize("changed", [
    lambda: make_bessel(2, 2.0, 80.0),   # order
    lambda: make_bessel(1, 2.5, 80.0),   # shift
    lambda: make_bessel(1, 2.0, 81.0),   # omega
])
def test_any_change_to_the_bessel_system_misses(changed, monkeypatch):
    levin._engine_for(make_bessel(1, 2.0, 80.0), 32, 0)
    assert levin._engine_for(make_bessel(1, 2.0, 80.0), 32, 0)[1]
    builds = count_engine_builds(monkeypatch)
    assert not levin._engine_for(changed(), 32, 0)[1]
    assert len(builds) == 1


def test_engine_miss_drops_the_old_engine_before_building(monkeypatch):
    old, _ = levin._engine_for(make_bessel(1, 2.0, 80.0), 64, 1)
    old_ref = weakref.ref(old)
    del old
    alive_at_build = []
    original = CollocationEngine.__init__

    def init(self, *args):
        alive_at_build.append(old_ref() is not None)
        original(self, *args)

    monkeypatch.setattr(CollocationEngine, "__init__", init)
    quadrature(LevinProblem(system=make_bessel(1, 2.0, 81.0), amplitude=runge_amplitude(2),
                            nu=64, s=1))
    assert alive_at_build == [False]


def test_engine_build_that_raises_leaves_the_slot_empty(monkeypatch):
    sys = make_exponential([0.0, 1.0], 100.0)
    levin._engine_for(sys, 16, 0)

    def singular(a):
        raise SingularMatrixError("banded matrix numerically singular at pivot 3", 3)

    monkeypatch.setattr(levin, "banded_lu_factor", singular)
    with pytest.raises(SingularMatrixError):
        levin._engine_for(sys, 18, 0)
    assert levin._engine_slot is None
    monkeypatch.undo()
    assert not levin._engine_for(sys, 18, 0)[1]
    assert levin._engine_for(sys, 18, 0)[1]


@pytest.mark.parametrize("m,s", [(1, 0), (2, 2)])
def test_shared_engine_arrays_are_read_only(m, s):
    sys = make_exponential([0.0, 1.0], 100.0) if m == 1 else make_bessel(1, 2.0, 100.0)
    eng, _ = levin._engine_for(sys, 24, s)
    arrays = []

    def collect(value):
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                collect(item)
        elif hasattr(value, "data"):   # BandedMatrix
            arrays.append(value.data)
        elif isinstance(value, BandedLU):
            collect([value.factors, value.pivots])

    for name, value in vars(eng).items():
        if name != "system":
            collect(value)
    collect([eng.grid.points, eng.grid.sin2])
    assert len(arrays) > 10
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        eng.basis[0, 0] = 1.0
    # the read-only factor still solves
    res = quadrature(LevinProblem(system=sys, amplitude=runge_amplitude(m), nu=24, s=s))
    assert res.engine_reused and res.fallback_reason is None


def test_threads_sharing_the_engine_slot_reproduce_serial():
    # more threads than cores, switching often, over two alternating keys:
    # every value must equal its cold serial solve
    systems = [make_exponential([0.0, 1.0], 120.0), make_exponential([0.0, 1.0], 170.0)]
    tasks = [(k % 2, shift) for k, shift in enumerate(np.linspace(-0.5, 0.5, 24))]

    def solve(task):
        which, shift = task
        prob = LevinProblem(system=systems[which], amplitude=runge_shifted(shift), nu=64, s=1)
        return quadrature(prob).value

    serial = []
    for task in tasks:
        levin._forget_engine()
        serial.append(solve(task))
    interval = sys_module.getswitchinterval()
    sys_module.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(solve, tasks, timeout=120))
    finally:
        sys_module.setswitchinterval(interval)
    assert threaded == serial


def test_problem_validation():
    sys = make_exponential([0.0, 1.0], 100.0)
    with pytest.raises(ValueError):
        LevinProblem(system=sys, amplitude=runge_amplitude(1), nu=15)
    with pytest.raises(ValueError):
        LevinProblem(system=sys, amplitude=runge_amplitude(2), nu=16)
    bare = AmplitudeSpec(components=(lambda x: np.ones_like(x, dtype=complex),))
    with pytest.raises(ValueError):
        LevinProblem(system=sys, amplitude=bare, nu=16, s=1)


def test_problem_rejects_nu_above_the_limit():
    # construction allocates nothing, so neither case builds an engine
    sys = make_exponential([0.0, 1.0], 100.0)
    with pytest.raises(NuTooLargeError, match=f"MAX_NU = {levin.MAX_NU}"):
        LevinProblem(system=sys, amplitude=runge_amplitude(1), nu=levin.MAX_NU + 2)
    assert LevinProblem(system=sys, amplitude=runge_amplitude(1), nu=levin.MAX_NU).nu == levin.MAX_NU
    assert issubclass(NuTooLargeError, ValueError)


@pytest.mark.parametrize("field,kwargs", [("nu", {"nu": 64.0}), ("s", {"nu": 64, "s": 1.5}),
                                          ("s", {"nu": 64, "s": True})])
def test_problem_takes_only_integer_nu_and_s(field, kwargs):
    # a float once passed construction and failed inside quadrature, and a
    # bool ran as 0 or 1
    sys = make_exponential([0.0, 1.0], 100.0)
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        LevinProblem(system=sys, amplitude=runge_amplitude(1), **kwargs)
    # numpy integers are integers
    prob = LevinProblem(system=sys, amplitude=runge_amplitude(1), nu=np.int64(64), s=np.int32(1))
    assert quadrature(prob).path == "scalar_s"
