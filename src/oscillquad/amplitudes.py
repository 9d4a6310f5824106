"""Built-in amplitude registry.

Names resolve to :class:`AmplitudeSpec` instances with endpoint derivative
tables in closed form, or for rational amplitudes from Leibniz's rule on
num = f den (``RationalFunction.endpoint_derivatives``); no finite
differences anywhere:

* ``one``            -- f = 1 in the first component
* ``cos``            -- f = cos(x) in the first component
* ``rational_runge`` -- f = x / (x^2 + 0.02) in the first component
* ``manufactured:<n>`` -- f = L_omega(e_1 T_n), which makes the exact
  quadrature value available in closed form from the weight endpoints.
  Its samples go through the monomial coefficients of T_n, which lose
  accuracy fast with n: 8e-13 relative at n = 12, 1e-4 at 34 and 1e-2 at
  n = 40 (see ``MAX_MANUFACTURED_INDEX``).

For systems with more than one component the named scalar amplitudes sit
in the first component and the rest are zero.
"""

from __future__ import annotations

import functools

import numpy as np

from .chebyshev import Polynomial, RationalFunction, rational_endpoint_derivatives
from .oscillator import AmplitudeSpec, OscillatorSystem

#: Depth of the endpoint-derivative tables built for registry amplitudes.
MAX_DERIVATIVE_ORDER = 6

#: Largest manufactured basis index.  The samples are evaluated through the
#: monomial coefficients of T_n, whose conversion is ill conditioned: on I1
#: (omega 500, 2001 Chebyshev points) their relative error is 8e-13 at
#: n = 12, 8e-10 at 20, 5e-7 at 28, 1e-4 at 34 and 1e-2 at 40.  The two
#: registry cases of ``benchmarks/defects.py``, n = 34 and 40, come from it.
MAX_MANUFACTURED_INDEX = 40


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=np.float64), dtype=np.complex128)


def _pad_components(first, dim):
    return (first,) + tuple(_zero for _ in range(dim - 1))


def _tables_first_component(dim, plus_col, minus_col):
    l_max = len(plus_col)
    dp = np.zeros((l_max, dim), dtype=np.complex128)
    dm = np.zeros((l_max, dim), dtype=np.complex128)
    dp[:, 0] = plus_col
    dm[:, 0] = minus_col
    return dp, dm


def rational_amplitude(num: Polynomial, den: Polynomial, dim: int,
                       name: str = "") -> AmplitudeSpec:
    """Scalar rational amplitude in the first component, exact derivatives."""
    rat = RationalFunction(num, den)
    dp, dm = _tables_first_component(dim, *rat.endpoint_derivatives(MAX_DERIVATIVE_ORDER)[:, 1:])

    def f(x):
        return rat(np.asarray(x, dtype=np.float64)).astype(np.complex128)

    return AmplitudeSpec(components=_pad_components(f, dim),
                         deriv_plus=dp, deriv_minus=dm, name=name)


@functools.lru_cache(maxsize=MAX_MANUFACTURED_INDEX + 1)
def chebyshev_t_polynomial(n: int) -> Polynomial:
    """T_n in the monomial basis: one object per n, shared, with read-only coefficients."""
    e = np.zeros(n + 1)
    e[n] = 1.0
    return Polynomial(np.polynomial.chebyshev.cheb2poly(e))


def manufactured_amplitude(system: OscillatorSystem, n: int) -> AmplitudeSpec:
    """f = L_omega(e_1 T_n): every component is rational with denominator r.

    Component i is  delta_{i,1} T_n' + (G^T)_{i,1} T_n, assembled exactly
    over the cleared polynomial data.
    """
    if n < 0 or n > MAX_MANUFACTURED_INDEX:
        raise ValueError(f"manufactured index must be in [0, {MAX_MANUFACTURED_INDEX}]")
    t_n = chebyshev_t_polynomial(n)
    t_np = t_n.deriv()
    m = system.dim
    rats = []
    for i in range(m):
        num = system.r_g[0][i] * t_n
        if i == 0:
            num = num + system.r * t_np
        rats.append(RationalFunction(num, system.r))

    def make_f(rat):
        return lambda x: rat(np.asarray(x, dtype=np.float64)).astype(np.complex128)

    tables = rational_endpoint_derivatives([rat.num for rat in rats], system.r,
                                           MAX_DERIVATIVE_ORDER)[:, :, 1:]
    dp, dm = tables.transpose(1, 2, 0)
    return AmplitudeSpec(components=tuple(make_f(r) for r in rats),
                         deriv_plus=dp, deriv_minus=dm, name=f"manufactured:{n}")


def manufactured_expected_value(system: OscillatorSystem, n: int) -> complex:
    """Exact I_omega[f] for f = L_omega(e_1 T_n): T_n(1) w_1(1) - T_n(-1) w_1(-1)."""
    sign = -1.0 if n % 2 else 1.0
    return complex(system.w_plus[0] - sign * system.w_minus[0])


def make_amplitude(name: str, system: OscillatorSystem) -> AmplitudeSpec:
    """Resolve a registry name against a system (dimension, manufactured data)."""
    dim = system.dim
    if name == "one":
        plus = np.zeros(MAX_DERIVATIVE_ORDER, dtype=np.complex128)
        dp, dm = _tables_first_component(dim, plus, plus)
        return AmplitudeSpec(
            components=_pad_components(
                lambda x: np.ones_like(np.asarray(x, dtype=np.float64),
                                       dtype=np.complex128), dim),
            deriv_plus=dp, deriv_minus=dm, name="one")
    if name == "cos":
        ls = np.arange(1, MAX_DERIVATIVE_ORDER + 1)
        plus = np.cos(1.0 + ls * np.pi / 2).astype(np.complex128)
        minus = np.cos(-1.0 + ls * np.pi / 2).astype(np.complex128)
        dp, dm = _tables_first_component(dim, plus, minus)
        return AmplitudeSpec(
            components=_pad_components(
                lambda x: np.cos(np.asarray(x, dtype=np.float64)).astype(np.complex128),
                dim),
            deriv_plus=dp, deriv_minus=dm, name="cos")
    if name == "rational_runge":
        return rational_amplitude(Polynomial([0.0, 1.0]), Polynomial([0.02, 0.0, 1.0]),
                                  dim, name="rational_runge")
    if name.startswith("manufactured:"):
        return manufactured_amplitude(system, int(name.split(":", 1)[1]))
    raise KeyError(f"unknown amplitude {name!r}; available: one, cos, "
                   f"rational_runge, manufactured:<n>")
