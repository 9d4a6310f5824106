"""Oscillator systems, Bessel endpoint values, validation, JSON round-trips."""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

from oscillquad.chebyshev import Polynomial
from oscillquad.oscillator import (
    AmplitudeSpec,
    OscillatorSystem,
    PoleInIntervalError,
    StationaryPointError,
    _has_interval_root,
    make_bessel,
    make_exponential,
    parse_oscillator_config,
    serialize_system,
    validate_system,
    weight_values,
)

# Reference endpoint values for the gamma=1, a=2, omega=100 Hankel setup,
# frozen from an independent evaluator; J1(1) also checked against the
# published value 0.4400505857.
J1_100 = -0.07714535201411214
J1P_100 = 0.02075730382436424
J1_300 = -0.03188743137749995
J1P_300 = -0.033192263438380665


def bessel_pair(gamma: int, x: float):
    """J_gamma(x) and J_gamma'(x), read from make_bessel's w(+1): with a = 3
    and omega = x / 4 the argument omega (1 + a) is exactly x."""
    w = make_bessel(gamma, 3.0, x / 4.0).w_plus
    return float(w[0].real), float(w[1].real)


def bessel_series(gamma: int, x: float, terms: int = 20) -> float:
    """Truncated ascending series sum_k (-1)^k (x/2)^(gamma+2k) / (k! (k+gamma)!)."""
    acc = 0.0
    for k in range(terms):
        acc += ((-1) ** k * (x / 2.0) ** (gamma + 2 * k)
                / (math.factorial(k) * math.factorial(k + gamma)))
    return acc


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def test_exponential_linear_phase():
    sys = make_exponential([0.0, 1.0], 100.0)
    assert sys.dim == 1
    assert sys.r.degree == 0 and sys.r.coeffs[0] == 1.0
    assert np.allclose(sys.r_g[0][0].coeffs, [100.0j])
    assert sys.w_plus[0] == pytest.approx(np.exp(100.0j))
    assert sys.w_minus[0] == pytest.approx(np.exp(-100.0j))


def test_exponential_quadratic_plus_linear_phase():
    sys = make_exponential([0.0, 3.0, 1.0], 10.0)  # g = x^2 + 3x, g' = 2x + 3 > 0
    assert np.allclose(sys.r_g[0][0].coeffs, [30.0j, 20.0j])


def test_exponential_rejects_stationary_point():
    with pytest.raises(StationaryPointError):
        make_exponential([0.0, 0.0, 1.0], 7.0)  # g = x^2, g'(0) = 0


def test_bessel_system_structure():
    sys = make_bessel(1, 2.0, 100.0)
    assert sys.dim == 2
    assert np.allclose(sys.r.coeffs, [4.0, 4.0, 1.0])  # (x + 2)^2
    assert np.allclose(sys.r_g[0][1].coeffs, [400.0, 400.0, 100.0])  # 100 (x+2)^2
    assert np.allclose(sys.r_g[0][0].coeffs, [0.0])
    assert np.allclose(sys.r_g[1][1].coeffs, [-2.0, -1.0])  # -(x + 2)
    assert sys.w_plus[0] == pytest.approx(J1_300, abs=1e-13)
    assert sys.w_plus[1] == pytest.approx(J1P_300, abs=1e-13)
    assert sys.w_minus[0] == pytest.approx(J1_100, abs=1e-13)
    assert sys.w_minus[1] == pytest.approx(J1P_100, abs=1e-13)


def test_bessel_gamma0_constant_term():
    omega = 13.0
    sys = make_bessel(0, 2.0, omega)
    # (-omega (x+a)^2 + gamma^2/omega) at x = 0 with gamma = 0, a = 2
    assert sys.r_g[1][0](0.0) == pytest.approx(-4.0 * omega)


def test_bessel_rejects_pole_in_interval():
    with pytest.raises(PoleInIntervalError):
        make_bessel(1, 0.5, 10.0)


def test_bessel_negative_offset_uses_reflection():
    sys = make_bessel(1, -2.0, 30.0)
    # w_1(1) = J_1(30 * (1 - 2)) = J_1(-30) = -J_1(30)
    j30, _ = bessel_pair(1, 30.0)
    assert sys.w_plus[0] == pytest.approx(-j30, abs=1e-13)


CUSTOM = {"type": "custom", "r": [1.0], "rG": [[[0.0, [0.0, 5.0]]]],
          "w_plus": [[1.0, 0.0]], "w_minus": [[1.0, 0.0]], "omega": 5.0}

BUILDERS = {
    "exponential": lambda omega: make_exponential([0.0, 1.0], omega),
    "bessel": lambda omega: make_bessel(1, 2.0, omega),
    "custom": lambda omega: parse_oscillator_config(dict(CUSTOM, omega=omega)),
    "direct": lambda omega: OscillatorSystem(
        omega=omega, r=Polynomial([1.0]), r_g=((Polynomial([0.0, 1j]),),),
        w_plus=np.ones(1, dtype=complex), w_minus=np.ones(1, dtype=complex)),
}


@pytest.mark.parametrize("omega", [0.0, -5.0, math.nan, math.inf])
@pytest.mark.parametrize("family", sorted(BUILDERS))
def test_bad_omega_is_rejected_before_any_arithmetic(family, omega):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="omega must be finite and positive"):
            BUILDERS[family](omega)


@pytest.mark.parametrize("field,value", [("r", [math.nan]), ("rG", [[[0.0, math.nan]]]),
                                         ("w_plus", [[math.nan, 0.0]])])
def test_non_finite_custom_data_is_rejected(field, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            parse_oscillator_config(dict(CUSTOM, **{field: value}))


def direct_system(r_g, w_plus, w_minus):
    return OscillatorSystem(omega=10.0, r=Polynomial([1.0]), r_g=r_g,
                            w_plus=np.array(w_plus, dtype=complex),
                            w_minus=np.array(w_minus, dtype=complex))


ONE = Polynomial([1.0])


@pytest.mark.parametrize("r_g,w_plus,w_minus,match", [
    pytest.param(((ONE, ONE), (ONE,)), (1.0, 1.0), (1.0, 1.0), "rG must be a square",
                 id="ragged-rG"),
    pytest.param(((ONE, ONE),), (1.0,), (1.0,), "rG must be a square", id="1x2-rG"),
    pytest.param((), (), (), "rG must be a square", id="no-component"),
    pytest.param(((ONE, ONE), (ONE, ONE)), (1.0,), (1.0, 1.0), "one entry per component",
                 id="short-w_plus"),
    pytest.param(((ONE,),), (1.0,), (1.0, 1.0), "one entry per component",
                 id="long-w_minus"),
])
def test_a_system_of_mismatched_shapes_is_rejected(r_g, w_plus, w_minus, match):
    # M is len(r_G); a 1 x 1 r_G with M stated as 2 once raised IndexError
    # in the engine, and a short w_plus failed only at the boundary value
    with pytest.raises(ValueError, match=match):
        direct_system(r_g, w_plus, w_minus)
    assert direct_system(((ONE, ONE), (ONE, ONE)), (1.0, 2.0), (3.0, 4.0)).dim == 2


@pytest.mark.parametrize("field,build", [
    pytest.param("g", lambda: make_exponential([0.0, math.inf], 10.0), id="g-inf"),
    pytest.param("g", lambda: make_exponential([0.0, 1.0, math.nan], 10.0), id="g-nan"),
    pytest.param("a", lambda: make_bessel(1, math.inf, 10.0), id="a-inf"),
    pytest.param("a", lambda: make_bessel(1, math.nan, 10.0), id="a-nan"),
    pytest.param("gamma", lambda: make_bessel(1.5, 2.0, 100.0), id="gamma-fraction"),
    pytest.param("gamma", lambda: make_bessel(-1, 2.0, 100.0), id="gamma-negative"),
    pytest.param("gamma", lambda: make_bessel(math.nan, 2.0, 100.0), id="gamma-nan"),
    pytest.param("gamma", lambda: make_bessel(math.inf, 2.0, 100.0), id="gamma-inf"),
    pytest.param("gamma", lambda: parse_oscillator_config(
        {"type": "bessel", "gamma": 1.5, "a": 2.0, "omega": 100.0}), id="gamma-config"),
])
def test_bad_family_data_is_rejected_before_any_arithmetic(field, build):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{field} must be"):
            build()


# ---------------------------------------------------------------------------
# Bessel endpoint values
# ---------------------------------------------------------------------------

def test_bessel_near_origin():
    j0, j0p = bessel_pair(0, 1e-8)
    assert j0 == pytest.approx(1.0, abs=1e-12)
    assert j0p == pytest.approx(0.0, abs=1e-8)


def test_bessel_j1_of_one_against_series_and_published_digits():
    j1, _ = bessel_pair(1, 1.0)
    assert j1 == pytest.approx(bessel_series(1, 1.0), abs=1e-15)
    assert j1 == pytest.approx(0.4400505857, abs=5e-11)


def test_bessel_against_series_small_arguments():
    for gamma in (0, 1, 2):
        for x in (0.3, 1.7, 4.0):
            j, _ = bessel_pair(gamma, x)
            assert j == pytest.approx(bessel_series(gamma, x, terms=30), abs=1e-13)


def test_bessel_derivative_ladder_consistency():
    # J_gamma' must match the ladder built from neighbouring orders
    for gamma in (1, 2):
        for x in (3.0, 40.0, 120.0):
            _, jp = bessel_pair(gamma, x)
            j_lo, _ = bessel_pair(gamma - 1, x)
            j_hi, _ = bessel_pair(gamma + 1, x)
            assert jp == pytest.approx(0.5 * (j_lo - j_hi), abs=1e-13)


def test_bessel_envelope_decreasing():
    vals = []
    for x in (1.0, 5.0, 20.0):
        j, jp = bessel_pair(0, x)
        vals.append(j * j + jp * jp)
    assert vals[0] > vals[1] > vals[2]


def test_bessel_frozen_reference_values():
    j, jp = bessel_pair(1, 100.0)
    assert j == pytest.approx(J1_100, abs=1e-13)
    assert jp == pytest.approx(J1P_100, abs=1e-13)
    j, jp = bessel_pair(1, 300.0)
    assert j == pytest.approx(J1_300, abs=1e-13)
    assert jp == pytest.approx(J1P_300, abs=1e-13)


def test_bessel_vectorized_matches_scalar():
    # weight_values at x = 4 z - 3 of the gamma = 1, a = 3, omega = 1/4 system
    # is (J_1, J_1')(z); every argument here is exact
    xs = np.array([0.5, 3.0, 49.0, 51.0, 400.0])
    w = weight_values(make_bessel(1, 3.0, 0.25), 4.0 * xs - 3.0)
    for i, x in enumerate(xs):
        js, jps = bessel_pair(1, float(x))
        assert w[0, i].real == pytest.approx(js, abs=1e-14)
        assert w[1, i].real == pytest.approx(jps, abs=1e-14)


def test_bessel_rejects_bad_arguments():
    # a = +-1 puts the zero argument omega (x + a) on an endpoint
    with pytest.raises(ValueError):
        make_bessel(1, -1.0, 10.0)
    with pytest.raises(ValueError):
        make_bessel(1, 1.0, 10.0)
    with pytest.raises(ValueError):
        make_bessel(-1, 2.0, 10.0)


def test_bessel_ode_residual_at_endpoints():
    # J'' from the derivative ladder; residual of z^2 J'' + z J' + (z^2 - g^2) J
    gamma, a, omega = 1, 2.0, 100.0
    for z in (omega * 3.0, omega * 1.0):
        j, jp = bessel_pair(gamma, z)
        jm2, _ = bessel_pair(gamma - 1, z) if gamma >= 1 else (0.0, 0.0)
        # second derivative via J_g'' = ((J_{g-2} - J_g) - (J_g - J_{g+2}))/4,
        # with J_{-1} = -J_1
        j_g, _ = bessel_pair(gamma, z)
        j_hi2, _ = bessel_pair(gamma + 2, z)
        if gamma >= 2:
            j_lo2, _ = bessel_pair(gamma - 2, z)
        elif gamma == 1:
            j_lo2, _ = bessel_pair(1, z)
            j_lo2 = -j_lo2
        else:
            j_lo2, _ = bessel_pair(2, z)
        jpp = 0.25 * (j_lo2 - 2.0 * j_g + j_hi2)
        resid = jpp + jp / z + (1.0 - gamma**2 / z**2) * j
        assert abs(resid) <= 1e-8


# ---------------------------------------------------------------------------
# Weight ODE residual (exponential family, finite differences)
# ---------------------------------------------------------------------------

def test_exponential_weight_ode_residual():
    omega = 40.0
    g = Polynomial([0.0, 1.0, 0.0, 0.1])
    sys = make_exponential(g, omega)
    gp = g.deriv()
    rng = np.random.default_rng(6)
    h = 1e-6
    for x in rng.uniform(-0.9, 0.9, size=10):
        w = lambda t: np.exp(1j * omega * g(t))
        dw = (w(x + h) - w(x - h)) / (2 * h)
        resid = abs(dw - 1j * omega * gp(x) * w(x))
        assert resid <= 1e-6 * omega**2


# ---------------------------------------------------------------------------
# Validation and diagnostics
# ---------------------------------------------------------------------------

def test_validate_exponential():
    diag = validate_system(make_exponential([0.0, 1.0], 100.0))
    assert diag.valid and diag.dim == 1 and diag.d == 1


def test_validate_bessel():
    diag = validate_system(make_bessel(1, 2.0, 100.0))
    assert diag.valid and diag.dim == 2 and diag.d == 2


def test_validate_rejects_root_in_interval():
    sys = OscillatorSystem(
        omega=10.0, r=Polynomial([0.0, 1.0]),
        r_g=((Polynomial([10.0j]),),),
        w_plus=np.array([1.0 + 0j]), w_minus=np.array([1.0 + 0j]))
    diag = validate_system(sys)
    assert not diag.valid


def complex_root_verdict(coeffs, n_grid):
    """The grid root check on values from complex arithmetic: numpy's
    polyval on complex128 coefficients."""
    v = np.polynomial.polynomial.polyval(np.linspace(-1.0, 1.0, n_grid),
                                         np.asarray(coeffs, dtype=np.complex128))
    mags = np.abs(v)
    scale = max(float(mags.max()), 1e-300)
    if float(mags.min()) < 1e-9 * scale:
        return True
    if np.max(np.abs(v.imag)) <= 1e-14 * scale:
        return bool(np.any(v.real[:-1] * v.real[1:] < 0))
    return False


@pytest.mark.parametrize("field", ["real", "complex"])
def test_interval_root_verdict_matches_complex_evaluation(field):
    # real coefficients are evaluated in float64; the verdict must be the
    # one complex evaluation gives, also for roots within 1e-9 of +-1
    rng = np.random.default_rng(5 if field == "real" else 6)
    verdicts = set()
    for _ in range(1000):
        degree = int(rng.integers(0, 5))
        roots = rng.uniform(-1.6, 1.6, degree)
        near = rng.random(degree) < 0.3
        roots[near] = rng.choice([-1.0, 1.0], near.sum()) + rng.uniform(-1e-9, 1e-9, near.sum())
        scale = rng.uniform(0.1, 10.0)
        if field == "complex":
            roots = roots + 1j * rng.choice([0.0, 1e-10, 1e-3, 0.5], degree)
            scale = scale * np.exp(1j * rng.choice([0.0, rng.uniform(0, 2 * np.pi)]))
        coeffs = scale * np.polynomial.polynomial.polyfromroots(roots)
        if rng.random() < 0.2:  # no constructed roots
            coeffs = rng.normal(size=degree + 1) * (1 if field == "real" else 1 + 1j)
        for n_grid in (1000, 1001):
            verdict = _has_interval_root(Polynomial(coeffs), n_grid)
            assert verdict == complex_root_verdict(coeffs, n_grid), (coeffs, n_grid)
            verdicts.add(verdict)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# JSON round-trips
# ---------------------------------------------------------------------------

def test_exponential_config_roundtrip_bit_exact():
    sys = make_exponential([0.1, 1.0, 0.25], 123.456)
    blob = json.dumps(serialize_system(sys))
    back = parse_oscillator_config(json.loads(blob))
    assert back.omega == sys.omega
    assert np.array_equal(back.r.coeffs, sys.r.coeffs)
    for i in range(sys.dim):
        for j in range(sys.dim):
            assert np.array_equal(back.r_g[i][j].coeffs, sys.r_g[i][j].coeffs)
    assert np.array_equal(back.w_plus, sys.w_plus)


def test_custom_config_roundtrip_bit_exact():
    cfg = {
        "type": "custom",
        "r": [1.0],
        "rG": [[[0.0, [0.0, 17.25]]]],
        "w_plus": [[0.125, -0.75]],
        "w_minus": [[1.0, 0.5]],
        "omega": 17.25,
    }
    sys = parse_oscillator_config(cfg)
    blob = json.dumps(serialize_system(sys))
    back = parse_oscillator_config(json.loads(blob))
    assert np.array_equal(back.r.coeffs, sys.r.coeffs)
    assert np.array_equal(back.r_g[0][0].coeffs, sys.r_g[0][0].coeffs)
    assert np.array_equal(back.w_plus, sys.w_plus)
    assert np.array_equal(back.w_minus, sys.w_minus)


def test_parse_rejects_custom_with_interval_pole():
    cfg = {
        "type": "custom", "r": [0.0, 1.0], "rG": [[[1.0]]],
        "w_plus": [[1.0, 0.0]], "w_minus": [[1.0, 0.0]], "omega": 5.0,
    }
    with pytest.raises(PoleInIntervalError):
        parse_oscillator_config(cfg)


def test_parse_omega_override_rebuilds_family():
    cfg = {"type": "exponential", "g": [0.0, 1.0], "omega": 10.0}
    sys = parse_oscillator_config(cfg, omega=25.0)
    assert sys.omega == 25.0
    assert sys.w_plus[0] == pytest.approx(np.exp(25.0j))


# ---------------------------------------------------------------------------
# Amplitude spec and weights
# ---------------------------------------------------------------------------

def test_amplitude_requires_derivative_table_when_asked():
    amp = AmplitudeSpec(components=(lambda x: np.ones_like(x, dtype=complex),))
    with pytest.raises(ValueError):
        amp.derivative(1, +1)


def one(x):
    return np.ones_like(np.asarray(x, dtype=np.float64), dtype=complex)


@pytest.mark.parametrize("dim,tables,match", [
    (1, {"deriv_plus": np.zeros((2, 1))}, "both"),
    (1, {"deriv_minus": np.zeros((2, 1))}, "both"),
    (1, {"deriv_plus": np.zeros((2, 3)), "deriv_minus": np.zeros((2, 1))},
     r"deriv_plus must have shape \(orders, 1\)"),
    (2, {"deriv_plus": np.zeros((2, 2)), "deriv_minus": np.zeros((2, 1))},
     r"deriv_minus must have shape \(orders, 2\)"),
    (1, {"deriv_plus": np.zeros(2), "deriv_minus": np.zeros((2, 1))},
     "deriv_plus must have shape"),
], ids=["plus-only", "minus-only", "3-columns-for-M=1", "1-column-for-M=2", "1-D"])
def test_amplitude_rejects_bad_derivative_tables(dim, tables, match):
    # each was once accepted, then read wrongly or failed mid-solve
    with pytest.raises(ValueError, match=match):
        AmplitudeSpec(components=(one,) * dim, **tables)


def test_amplitude_derivative_order_is_the_shorter_table():
    amp = AmplitudeSpec(components=(one,), deriv_plus=np.zeros((3, 1)),
                        deriv_minus=np.zeros((2, 1)))
    assert amp.max_derivative_order == 2
    assert AmplitudeSpec(components=(one,)).max_derivative_order == 0


def test_weight_values_families():
    sys = make_exponential([0.0, 1.0], 10.0)
    x = np.linspace(-1, 1, 5)
    assert np.allclose(weight_values(sys, x)[0], np.exp(10.0j * x))
    sysb = make_bessel(1, 2.0, 10.0)
    wv = weight_values(sysb, np.array([1.0, -1.0]))
    assert wv[0, 0] == pytest.approx(bessel_pair(1, 30.0)[0])
    assert wv[1, 1] == pytest.approx(bessel_pair(1, 10.0)[1])
