"""Brute-force oracle and dense reference solver."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from oscillquad import reference
from oscillquad.amplitudes import (
    make_amplitude,
    manufactured_amplitude,
    manufactured_expected_value,
)
from oscillquad.levin import LevinProblem, NonFiniteAmplitudeError, _solve_fast, quadrature
from oscillquad.oscillator import AmplitudeSpec, make_bessel, make_exponential
from oscillquad.reference import (
    cc_oracle,
    dense_collocation_matrix,
    dense_levin_solve,
    oracle_value,
)

from conftest import runge_amplitude
from test_levin import I1_OMEGA100, I2_OMEGA100, zero_amplitude


# ---------------------------------------------------------------------------
# Clenshaw-Curtis oracle
# ---------------------------------------------------------------------------

def test_oracle_polynomial_exactness():
    assert cc_oracle(lambda x: x**2, 64) == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert cc_oracle(lambda x: x**7 - x + 1.0, 64) == pytest.approx(2.0, abs=1e-14)


def test_oracle_closed_form_oscillatory():
    omega = 100.0
    val = cc_oracle(lambda x: np.exp(1j * omega * x), 20000)
    assert val == pytest.approx(2 * np.sin(omega) / omega, abs=1e-13)


def test_oracle_rejects_bad_point_counts():
    for n in (7, 9, 4):
        with pytest.raises(ValueError):
            cc_oracle(lambda x: x, n)


def test_oracle_self_convergence():
    sys = make_exponential([0.0, 1.0], 100.0)
    rr = runge_amplitude(1)
    a = oracle_value(sys, rr, 100000)
    b = oracle_value(sys, rr, 31624)
    assert abs(a - b) <= 1e-10


def test_oracle_matches_frozen_values():
    sys = make_exponential([0.0, 1.0], 100.0)
    assert abs(oracle_value(sys, runge_amplitude(1), 200000) - I1_OMEGA100) <= 1e-12
    sysb = make_bessel(1, 2.0, 100.0)
    assert abs(oracle_value(sysb, runge_amplitude(2), 200000) - I2_OMEGA100) <= 1e-12


def test_oracle_env_override(monkeypatch):
    monkeypatch.setenv("OSCILLQUAD_ORACLE_POINTS", "4096")
    from oscillquad.reference import default_oracle_points

    assert default_oracle_points() == 4096


# ---------------------------------------------------------------------------
# Dense reference solver
# ---------------------------------------------------------------------------

def test_dense_agrees_with_fast_path():
    sys = make_exponential([0.0, 1.0], 100.0)
    prob = LevinProblem(system=sys, amplitude=runge_amplitude(1), nu=32)
    fast = _solve_fast(prob)
    dense = dense_levin_solve(prob)
    assert abs(fast.value - dense.value) <= 1e-9 * (1 + abs(dense.value))
    assert dense.path == "dense"


def test_dense_zero_amplitude():
    sys = make_bessel(1, 2.0, 100.0)
    res = dense_levin_solve(LevinProblem(system=sys, amplitude=zero_amplitude(2), nu=16))
    assert res.value == 0.0


def test_dense_flags_a_nan_answer(monkeypatch):
    # NaN > level is False: the NaN residual must count as over it.  The
    # samples are finite; the NaN enters through the right-hand side.
    build = reference.dense_collocation_matrix

    def nan_rhs(problem):
        a, rhs = build(problem)
        rhs[3] = np.nan
        return a, rhs

    monkeypatch.setattr(reference, "dense_collocation_matrix", nan_rhs)
    sys = make_exponential([0.0, 1.0], 100.0)
    res = dense_levin_solve(LevinProblem(system=sys, amplitude=make_amplitude("one", sys), nu=32))
    assert np.isnan(res.residual)
    assert res.flagged


def test_dense_refuses_a_nan_sample_before_factoring(monkeypatch):
    def unreachable(*args):
        raise AssertionError("factored a system with a NaN sample")

    monkeypatch.setattr(reference, "lu_factor_quiet", unreachable)
    monkeypatch.setattr(reference, "_chebyshev_values_on_grid", unreachable)
    sys = make_exponential([0.0, 1.0], 100.0)
    amp = AmplitudeSpec(components=(lambda x: np.where(x > 0.5, np.nan, 1.0) + 0j,))
    with pytest.raises(NonFiniteAmplitudeError, match="amplitude component 0 is"):
        dense_levin_solve(LevinProblem(system=sys, amplitude=amp, nu=32))


def test_dense_manufactured_t5_exact():
    sys = make_exponential([0.0, 1.0], 100.0)
    amp = manufactured_amplitude(sys, 5)
    res = dense_levin_solve(LevinProblem(system=sys, amplitude=amp, nu=16))
    expected = manufactured_expected_value(sys, 5)
    assert abs(res.value - expected) <= 1e-11 * (1 + abs(expected))


@pytest.mark.parametrize("nu", [128, 256])
@pytest.mark.parametrize("a", [-1.2, -1.05, 1.05, 1.1])
def test_fast_and_dense_agree_at_s1_near_a_root_of_r(a, nu):
    # r = (x + a)^2 vanishes 0.05 to 0.2 outside [-1, 1]; the dense tail rows
    # and the amplitude table read the endpoint derivatives of r G / r there
    sys = make_bessel(1, a, 20.0)
    problem = LevinProblem(system=sys, amplitude=manufactured_amplitude(sys, 5), nu=nu, s=1)
    expected = manufactured_expected_value(sys, 5)
    for res in (quadrature(problem), dense_levin_solve(problem)):
        assert not res.flagged, res.path
        assert abs(res.value - expected) <= 1e-9, res.path


def test_dense_matrix_entries_spot_check():
    # 10 random entries against a by-hand evaluation of the operator rows
    omega, nu, s = 100.0, 10, 1
    sys = make_bessel(1, 2.0, omega)
    prob = LevinProblem(system=sys, amplitude=runge_amplitude(2), nu=nu, s=s)
    a, _ = dense_collocation_matrix(prob)
    nb = nu + 2 * s + 2
    rows_per_comp = nu + 2 + 2 * s
    points = np.cos(np.arange(nu + 2) * np.pi / (nu + 1))
    rng = np.random.default_rng(23)
    cheb = np.polynomial.chebyshev
    for _ in range(10):
        i = int(rng.integers(0, 2))       # component
        m = int(rng.integers(0, nu + 2))  # collocation point
        j = int(rng.integers(0, 2))
        n = int(rng.integers(0, nb))
        e_n = np.zeros(nb)
        e_n[n] = 1.0
        x = points[m]
        t_val = cheb.chebval(x, e_n)
        tp_val = cheb.chebval(x, cheb.chebder(e_n))
        # (G^T)_{ij} = (r G)_{ji} / r
        gt = sys.r_g[j][i](x) / sys.r(x)
        expected = (tp_val if i == j else 0.0) + gt * t_val
        got = a[i * rows_per_comp + m, j * nb + n]
        assert got == pytest.approx(expected, rel=1e-11, abs=1e-11)


def test_dense_derivative_rows_spot_check():
    omega, nu, s = 50.0, 8, 1
    sys = make_exponential([0.0, 1.0, 0.0, 0.1], omega)
    prob = LevinProblem(system=sys, amplitude=runge_amplitude(1), nu=nu, s=s)
    a, rhs = dense_collocation_matrix(prob)
    nb = nu + 2 * s + 2
    cheb = np.polynomial.chebyshev
    gp = sys.r_g[0][0]  # i omega g' (r = 1)
    # row nu+2 is l=1 at +1; row nu+3 is l=1 at -1
    for row, x in ((nu + 2, 1.0), (nu + 3, -1.0)):
        for n in (0, 3, nb - 1):
            e_n = np.zeros(nb)
            e_n[n] = 1.0
            d1 = cheb.chebder(e_n)
            d2 = cheb.chebder(d1)
            expected = (cheb.chebval(x, d2)
                        + gp(x) * cheb.chebval(x, d1)
                        + gp.deriv()(x) * cheb.chebval(x, e_n))
            assert a[row, n] == pytest.approx(expected, rel=1e-10, abs=1e-10)
    amp = runge_amplitude(1)
    assert rhs[nu + 2] == pytest.approx(amp.derivative(1, +1)[0])
    assert rhs[nu + 3] == pytest.approx(amp.derivative(1, -1)[0])


def test_dense_size_guard():
    sys = make_exponential([0.0, 1.0], 100.0)
    with pytest.raises(ValueError):
        dense_levin_solve(LevinProblem(system=sys, amplitude=runge_amplitude(1),
                                       nu=30000))


def test_dense_guard_counts_bytes_and_raises_before_allocating():
    # order 6002 is below the old 20000-row guard, but its complex matrix
    # needs 550 MiB, over the 512 MiB bound: refused before anything is built
    problem = LevinProblem(system=make_exponential([0.0, 1.0], 100.0),
                           amplitude=runge_amplitude(1), nu=6000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="needs 549 MiB, over the 512 MiB guard"):
            dense_collocation_matrix(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
