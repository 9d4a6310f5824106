"""Fast solver tiers: interior solve, null vectors, bordering, tails,
engine reuse, dispatcher, and the cross-checks against the dense
reference path."""

from __future__ import annotations

import logging
import math
import sys as sys_module
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oscillquad.amplitudes import (
    manufactured_amplitude,
    manufactured_expected_value,
    rational_amplitude,
)
from oscillquad import levin
from oscillquad.banded import BandedLU, SingularMatrixError
from oscillquad.chebyshev import (
    ONE_MINUS_X2,
    Polynomial,
    apply_collocation_matrix,
    build_banded_operator,
    clenshaw_curtis_points,
    endpoint_derivative_row,
    fold_operator,
)
from oscillquad.levin import (
    CollocationEngine,
    LevinProblem,
    NonFiniteAmplitudeError,
    UnsolvableProblemError,
    null_vectors_scalar,
    quadrature,
    solve_block_s,
    solve_block_s0,
    solve_interior_scalar,
    solve_scalar_s,
    solve_scalar_s0,
)
from oscillquad.oscillator import (
    AmplitudeSpec,
    OscillatorSystem,
    make_bessel,
    make_exponential,
)
from oscillquad.reference import dense_levin_solve

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
# Interior solve and null vectors (scalar building blocks)
# ---------------------------------------------------------------------------

def scalar_folded_operator(system, nu):
    p_mult = ONE_MINUS_X2 * system.r_g[0][0]
    b = build_banded_operator(ONE_MINUS_X2 * system.r, p_mult, nu + p_mult.degree + 8)
    return fold_operator(b, nu, b.lower_bw - 1)


def test_interior_solve_zero_rhs():
    sys = make_exponential([0.0, 1.0], 100.0)
    grid = clenshaw_curtis_points(16)
    alpha0 = solve_interior_scalar(scalar_folded_operator(sys, 16),
                                   np.zeros(18), grid)
    assert np.allclose(alpha0, 0.0)


def test_interior_solve_interpolation_conditions():
    omega = 100.0
    sys = make_exponential([0.0, 1.0], omega)
    nu = 16
    grid = clenshaw_curtis_points(nu)
    f = np.ones(nu + 2, dtype=complex)
    alpha0 = solve_interior_scalar(scalar_folded_operator(sys, nu), f, grid)
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
    alpha0 = solve_interior_scalar(scalar_folded_operator(sys, nu), f, grid)
    rows = dense_scalar_rows(sys, grid, nu + 2)
    middle = np.linalg.solve(rows[1:-1, 1:-1], f[1:-1])
    assert np.max(np.abs(alpha0[1:-1] - middle)) <= 1e-10 * np.max(np.abs(middle))


def test_null_vectors_structure_and_kernel():
    omega = 100.0
    sys = make_exponential([0.0, 1.0], omega)
    nu = 32
    grid = clenshaw_curtis_points(nu)
    v1, v2 = null_vectors_scalar(scalar_folded_operator(sys, nu), grid)
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
# Scalar tier, s = 0
# ---------------------------------------------------------------------------

def test_scalar_s0_zero_amplitude():
    sys = make_exponential([0.0, 1.0], 100.0)
    res = solve_scalar_s0(LevinProblem(system=sys, amplitude=zero_amplitude(1), nu=16))
    assert res.value == 0.0
    assert res.residual == 0.0
    assert res.path == "scalar_s0"


def test_scalar_s0_manufactured_t3():
    omega = 100.0
    sys = make_exponential([0.0, 1.0], omega)
    amp = manufactured_amplitude(sys, 3)
    res = solve_scalar_s0(LevinProblem(system=sys, amplitude=amp, nu=16))
    expected = manufactured_expected_value(sys, 3)
    assert expected == pytest.approx(np.exp(1j * omega) + np.exp(-1j * omega))
    assert abs(res.value - expected) <= 1e-10 * (1 + abs(expected))


def test_scalar_s0_runge_amplitude_vs_frozen_oracle():
    sys = make_exponential([0.0, 1.0], 100.0)
    res = solve_scalar_s0(LevinProblem(system=sys, amplitude=runge_amplitude(1), nu=128))
    assert abs(res.value - I1_OMEGA100) <= 1e-8


def test_scalar_s0_constant_amplitude_closed_form():
    omega = 100.0
    sys = make_exponential([0.0, 1.0], omega)
    one = AmplitudeSpec(components=(lambda x: np.ones_like(x, dtype=complex),))
    res = solve_scalar_s0(LevinProblem(system=sys, amplitude=one, nu=32))
    assert abs(res.value - 2 * np.sin(omega) / omega) <= 1e-12


def test_scalar_s0_rejects_wrong_tier():
    sys = make_bessel(1, 2.0, 100.0)
    with pytest.raises(ValueError):
        solve_scalar_s0(LevinProblem(system=sys, amplitude=runge_amplitude(2), nu=16))


# ---------------------------------------------------------------------------
# Scalar tier, s >= 1
# ---------------------------------------------------------------------------

def test_scalar_s1_manufactured_beyond_s0_basis():
    # p = T_{nu+2} lies outside the nu+2 head, so only the tail machinery
    # can represent it exactly
    omega, nu = 100.0, 8
    sys = make_exponential([0.0, 1.0], omega)
    amp = manufactured_amplitude(sys, nu + 2)
    res = solve_scalar_s(LevinProblem(system=sys, amplitude=amp, nu=nu, s=1))
    expected = manufactured_expected_value(sys, nu + 2)
    assert abs(res.value - expected) <= 1e-9 * (1 + abs(expected))
    # tail coefficient of T_{nu+2} should be 1, everything else ~0
    assert res.coeffs[0, nu + 2] == pytest.approx(1.0, abs=1e-8)


def test_scalar_s2_zero_amplitude_zero_tail():
    sys = make_exponential([0.0, 1.0], 100.0)
    res = solve_scalar_s(LevinProblem(system=sys, amplitude=zero_amplitude(1), nu=8, s=2))
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
        e0.append(abs(solve_scalar_s0(
            LevinProblem(system=sys, amplitude=rr, nu=4, s=0)).value - exact))
        e1.append(abs(solve_scalar_s(
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
    res = solve_scalar_s(LevinProblem(system=sys, amplitude=amp, nu=nu, s=s))
    coeffs = res.coeffs[0]
    nb = coeffs.shape[0]
    for l in range(1, s + 1):
        for sign in (+1, -1):
            t_rows = [endpoint_derivative_row(nb - 1, k, sign) for k in range(l + 2)]
            gt = sys.g_transpose_entry(0, 0).derivatives_at(float(sign), l)
            lhs = np.dot(coeffs, t_rows[l + 1])
            for p in range(l + 1):
                lhs += math.comb(l, p) * gt[p] * np.dot(coeffs, t_rows[l - p])
            rhs = amp.derivative(l, sign)[0]
            assert abs(lhs - rhs) <= 1e-7 * omega ** (s + 1) * (1 + abs(rhs))


# ---------------------------------------------------------------------------
# Block tiers
# ---------------------------------------------------------------------------

def decoupled_two_phase_system(omega):
    """Two independent exponential oscillators (phases x and 2x) as one block system."""
    return OscillatorSystem(
        dim=2, omega=omega, r=Polynomial([1.0]),
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
    res2 = solve_block_s0(LevinProblem(system=sys2, amplitude=amp2, nu=nu))
    parts = []
    for g_coeffs, f in (([0.0, 1.0], f1), ([0.0, 2.0], f2)):
        sys1 = make_exponential(g_coeffs, omega)
        amp1 = AmplitudeSpec(components=(f,))
        parts.append(solve_scalar_s0(
            LevinProblem(system=sys1, amplitude=amp1, nu=nu)).value)
    assert abs(res2.value - sum(parts)) <= 1e-11 * (1 + abs(res2.value))


def test_block_s0_hankel_vs_frozen_oracle():
    sys = make_bessel(1, 2.0, 100.0)
    res = solve_block_s0(LevinProblem(system=sys, amplitude=runge_amplitude(2), nu=128))
    assert abs(res.value - I2_OMEGA100) <= 1e-7
    assert res.path == "block_s0"


def test_block_s0_zero_amplitude():
    sys = make_bessel(1, 2.0, 100.0)
    res = solve_block_s0(LevinProblem(system=sys, amplitude=zero_amplitude(2), nu=16))
    assert res.value == 0.0


def test_block_s1_manufactured_beyond_head():
    omega, nu = 100.0, 8
    sys = make_bessel(1, 2.0, omega)
    amp = manufactured_amplitude(sys, nu + 2)
    res = solve_block_s(LevinProblem(system=sys, amplitude=amp, nu=nu, s=1))
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
        e0.append(abs(solve_block_s0(
            LevinProblem(system=sys, amplitude=rr, nu=4, s=0)).value - exact))
        e1.append(abs(solve_block_s(
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
        res = solve_scalar_s(LevinProblem(system=sys, amplitude=runge_amplitude(1),
                                          nu=8192, s=2))
    except SingularMatrixError:
        return
    assert res.flagged or abs(res.value - I1_OMEGA1E4) <= 1e-5 * abs(I1_OMEGA1E4)


def test_block_s_zero_amplitude():
    sys = make_bessel(1, 2.0, 100.0)
    res = solve_block_s(LevinProblem(system=sys, amplitude=zero_amplitude(2), nu=8, s=1))
    assert res.value == 0.0


# ---------------------------------------------------------------------------
# Engine: multi-column solves at build time
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,s", [(1, 1), (1, 3), (2, 1), (2, 2)])
def test_engine_tail_columns_match_one_cleared_solve_each(m, s):
    # the tail columns are solved once per engine, in one multi-column
    # banded solve and one border solve, with no DCT round trip; each must
    # equal solve_cleared of minus the operator applied to that tail element
    nu = 24
    sys = make_exponential([0.0, 1.0], 80.0) if m == 1 else make_bessel(1, 2.0, 80.0)
    eng = CollocationEngine(sys, nu, s)
    n_head = nu + 2
    tail = [(k, n) for k in range(m) for n in range(n_head, n_head + 2 * s)]
    assert eng.tail_heads.shape == (len(tail), m, n_head)
    for c, (k, n) in enumerate(tail):
        vals = np.array([apply_collocation_matrix(eng.tail_ops[c, i]) for i in range(m)])
        want = eng.solve_cleared(-vals[:, 1:-1], -eng.rows_plus[:, k, n],
                                 -eng.rows_minus[:, k, n])
        assert np.max(np.abs(eng.tail_heads[c] - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("s", [0, 2])
def test_engine_works_in_the_field_of_the_system(s):
    # Bessel: r and every r G entry are real, so the engine is float64;
    # an exponential phase makes r G imaginary, so the engine is complex128
    for sys, dtype in ((make_bessel(1, 2.0, 100.0), np.float64),
                       (make_exponential([0.0, 1.0], 100.0), np.complex128)):
        eng = CollocationEngine(sys, 32, s)
        assert eng.lu.factors.data.dtype == dtype
        assert eng.reordered.data.dtype == dtype
        for name in ("null_vectors", "border", "rows_plus", "tail_ops"):
            assert getattr(eng, name).dtype == dtype, name
        if s:
            assert eng.tail_matrix.dtype == dtype


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
    for v in eng.null_vectors:
        interior = [sum(eng.folded[i][j].matvec(v[j]) for j in range(2))[1 : nu + 1]
                    for i in range(2)]
        assert np.max(np.abs(interior)) <= 1e-12 * np.max(np.abs(v))


@pytest.mark.parametrize("m,s", [(1, 0), (1, 2), (2, 0), (2, 1)])
def test_fast_solve_runs_2m_transforms_for_every_s(m, s, monkeypatch):
    calls = []
    for name in ("apply_collocation_matrix", "apply_inverse_collocation"):
        original = getattr(levin, name)
        monkeypatch.setattr(levin, name,
                            lambda *a, _f=original, **k: calls.append(1) or _f(*a, **k))
    sys = make_exponential([0.0, 1.0], 100.0) if m == 1 else make_bessel(1, 2.0, 100.0)
    res = quadrature(LevinProblem(system=sys, amplitude=runge_amplitude(m), nu=32, s=s))
    assert res.fallback_reason is None
    assert len(calls) == 2 * m


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
        solver = solve_scalar_s0 if s == 0 else solve_scalar_s
    else:
        sys = make_bessel(1, 2.0, omega)
        amp = runge_amplitude(2)
        solver = solve_block_s0 if s == 0 else solve_block_s
    prob = LevinProblem(system=sys, amplitude=amp, nu=nu, s=s)
    fast = solver(prob)
    dense = dense_levin_solve(prob)
    assert abs(fast.value - dense.value) <= 1e-8 * (1 + abs(dense.value))
    assert np.max(np.abs(fast.coeffs - dense.coeffs)) <= 1e-7 * (
        1 + np.max(np.abs(dense.coeffs)))


def test_result_value_consistent_with_coefficients():
    omega = 100.0
    sys = make_bessel(1, 2.0, omega)
    res = solve_block_s(LevinProblem(system=sys, amplitude=runge_amplitude(2),
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
        res = solve_scalar_s0(LevinProblem(system=sys, amplitude=amp, nu=nu))
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
        dim=1, omega=omega, r=Polynomial([3.0, 1.0]),
        r_g=((1j * omega * Polynomial([1.0, 0.0, 0.5]),),),
        w_plus=np.array([0.3 - 0.7j]), w_minus=np.array([1.1 + 0.2j]))
    amp, expected = random_manufactured(sys, 12, 0, rng)
    res = quadrature(LevinProblem(system=sys, amplitude=amp, nu=12))
    assert res.path == "scalar_s0"
    assert abs(res.value - expected) <= 1e-9 * (1 + abs(expected))
    amp, expected = random_manufactured(sys, 12, 2, rng)
    res = solve_scalar_s(LevinProblem(system=sys, amplitude=amp, nu=12, s=2))
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
        dim=m, omega=omega, r=Polynomial([4.0, 1.0]), r_g=r_g,
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
    res = solve_block_s(LevinProblem(system=sys, amplitude=amp, nu=8, s=3))
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


def test_unresolved_border_direction_is_left_out(monkeypatch):
    # I1 at nu 16384, far above omega: one null-vector combination is, to
    # rounding, a homogeneous solution, and its border column lies below its
    # rounding floor.  Solving for its weight made the value depend on a
    # one-ulp change of one band entry (relative errors 3e-7 to 2e-5).
    omega = 1867.7114900275576
    expected = 3.5837508581565306e-05j  # oracle_value at 2e6 points
    build = levin.build_banded_operator
    for ulps in (0, 1, -1):
        def nudged(p_diff, p_mult, n_rows, ulps=ulps):
            b = build(p_diff, p_mult, n_rows)
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


def test_nan_residual_is_flagged(monkeypatch):
    monkeypatch.setattr(CollocationEngine, "residual", lambda self, c, f: float("nan"))
    prob = LevinProblem(system=make_exponential([0.0, 1.0], 100.0),
                        amplitude=runge_amplitude(1), nu=16)
    assert levin._solve_fast(prob, "scalar_s0").flagged
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


def test_minimal_even_grid():
    # nu = 2 is the smallest legal grid for the linear-phase operator
    omega = 200.0
    sys = make_exponential([0.0, 1.0], omega)
    amp = runge_amplitude(1)
    prob = LevinProblem(system=sys, amplitude=amp, nu=2)
    fast = solve_scalar_s0(prob)
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
    collect([eng.grid.points, eng.grid.sin2, eng.perm.perm])
    assert len(arrays) > 10
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        eng.null_vectors[0, 0, 0] = 1.0
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
