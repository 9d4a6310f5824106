"""Oscillatory weight systems w' = G_omega(x) w with rational coefficients.

A system is stored in cleared-denominator form: a polynomial r(x) without
roots in [-1, 1] and the M x M polynomial matrix r(x) G_omega(x).  The
quadrature only ever needs the weight vector at the endpoints, so w(+-1)
is part of the system definition; constructors for the two built-in
families (complex exponential phase, Bessel J_gamma(omega(x+a))) fill it in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.special

from .chebyshev import Polynomial, RationalFunction


class StationaryPointError(ValueError):
    """The phase derivative vanishes inside [-1, 1]; out of scope."""


class PoleInIntervalError(ValueError):
    """The oscillator coefficients have a pole in [-1, 1]."""


@dataclass(frozen=True)
class OscillatorSystem:
    """Cleared-denominator data for the weight ODE w' = G_omega w.

    ``r_g[i][j]`` is the polynomial (r * G_omega)_{ij}; ``r`` is identically
    1 when G_omega is already polynomial.  ``d`` is the bandwidth parameter
    reported by diagnostics: max(deg r, max deg rG) for systems with
    dim >= 2, and max(deg r, max deg rG + 1) for scalar systems, matching
    the convention that the scalar banded operator has bandwidth 2d + 3.
    The number of components M, ``dim``, is the size of ``r_g``, which must
    be M x M, with M entries in each of ``w_plus`` and ``w_minus``.
    """

    omega: float
    r: Polynomial
    r_g: tuple
    w_plus: np.ndarray
    w_minus: np.ndarray
    config: dict | None = None

    def __post_init__(self):
        m = self.dim
        if m < 1 or any(len(row) != m for row in self.r_g):
            raise ValueError("rG must be a square matrix of polynomials")
        if np.shape(self.w_plus) != (m,) or np.shape(self.w_minus) != (m,):
            raise ValueError("w_plus / w_minus must have one entry per component")
        _check_oscillator_data(
            self.omega, r=self.r.coeffs,
            rG=np.concatenate([p.coeffs for row in self.r_g for p in row]),
            w_plus=self.w_plus, w_minus=self.w_minus)

    @property
    def dim(self) -> int:
        return len(self.r_g)

    @property
    def d(self) -> int:
        dg = max(p.degree for row in self.r_g for p in row)
        if self.dim == 1:
            return max(self.r.degree, dg + 1)
        return max(self.r.degree, dg)

    def g_transpose_entry(self, i: int, j: int) -> RationalFunction:
        """(G_omega^T)_{ij} = (r G)_{ji} / r as a rational function."""
        return RationalFunction(self.r_g[j][i], self.r)


@dataclass(frozen=True)
class AmplitudeSpec:
    """Amplitude vector f: M callables plus optional endpoint derivatives.

    ``deriv_plus[l-1][i]`` and ``deriv_minus[l-1][i]`` hold d^l f_i / dx^l
    at x = +1 and x = -1; they must be supplied in closed form whenever the
    solver is asked for endpoint-derivative conditions (s >= 1).  Both
    tables are given or neither, each 2-D with one column per component.
    """

    components: tuple
    deriv_plus: np.ndarray | None = None
    deriv_minus: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        if (self.deriv_plus is None) != (self.deriv_minus is None):
            raise ValueError("give both deriv_plus and deriv_minus, or neither")
        m = len(self.components)
        for name, table in (("deriv_plus", self.deriv_plus), ("deriv_minus", self.deriv_minus)):
            if table is not None and (np.ndim(table) != 2 or np.shape(table)[1] != m):
                raise ValueError(f"{name} must have shape (orders, {m}), got {np.shape(table)}")

    @property
    def max_derivative_order(self) -> int:
        if self.deriv_plus is None:
            return 0
        return min(self.deriv_plus.shape[0], self.deriv_minus.shape[0])

    def values(self, x) -> np.ndarray:
        """Samples of every component at ``x``, one row each, written into one
        buffer in the components' common field: float64 unless one of them
        returns complex values."""
        x = np.asarray(x, dtype=np.float64)
        out = np.empty((len(self.components),) + x.shape)
        for i, f in enumerate(self.components):
            v = f(x)
            if np.iscomplexobj(v) and not np.iscomplexobj(out):  # rows 0..i-1 were real
                out = out.astype(np.complex128) if i else np.empty(out.shape, np.complex128)
            out[i] = v
        return out

    def derivative(self, l: int, sign: int) -> np.ndarray:
        """d^l f / dx^l at sign * 1 as an M-vector (l >= 1 from the table)."""
        if l == 0:
            return self.values(np.array(float(sign)))
        table = self.deriv_plus if sign > 0 else self.deriv_minus
        if table is None or l > table.shape[0]:
            raise ValueError(
                f"amplitude '{self.name or '<anonymous>'}' carries no "
                f"endpoint derivatives of order {l}"
            )
        return table[l - 1]


def _check_oscillator_data(omega, **arrays) -> None:
    """Raise ValueError unless omega is finite and positive and every entry
    of each named array is finite.  The constructors call it before any
    arithmetic on omega or on the named data."""
    if not (np.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be finite and positive, got {omega}")
    for name, values in arrays.items():
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite, got {values}")


#: The grids of the root checks: 1000 points for a phase derivative, 1001 for r.
_ROOT_GRIDS = {n: np.linspace(-1.0, 1.0, n) for n in (1000, 1001)}


def _has_interval_root(p: Polynomial, n_grid: int) -> bool:
    """Grid check for a root of p in [-1, 1]: sign change (real case) or near-zero."""
    v = p(_ROOT_GRIDS[n_grid])
    mags = np.abs(v)
    scale = max(float(mags.max()), 1e-300)
    if float(mags.min()) < 1e-9 * scale:
        return True
    if np.iscomplexobj(v):
        if not np.max(np.abs(v.imag)) <= 1e-14 * scale:
            return False
        v = v.real
    return bool(np.any(v[:-1] * v[1:] < 0))


def _check_no_roots(p: Polynomial, n_grid: int, what: str, error):
    if _has_interval_root(p, n_grid):
        raise error(f"{what} vanishes on [-1, 1]")


def make_exponential(g, omega: float) -> OscillatorSystem:
    """Scalar system for the weight w(x) = exp(i omega g(x)), g polynomial.

    Requires g'(x) != 0 on [-1, 1] (checked on a 1000-point grid);
    stationary points are out of scope and rejected.
    """
    g = g if isinstance(g, Polynomial) else Polynomial(g)
    _check_oscillator_data(omega, g=g.coeffs)
    gp = g.deriv()
    _check_no_roots(gp, 1000, "phase derivative g'", StationaryPointError)
    r_g = ((1j * omega * gp,),)
    w_plus = np.array([np.exp(1j * omega * complex(g(1.0)))])
    w_minus = np.array([np.exp(1j * omega * complex(g(-1.0)))])
    cfg = {"type": "exponential", "g": _poly_to_json(g), "omega": float(omega)}
    return OscillatorSystem(omega=float(omega), r=Polynomial([1.0]), r_g=r_g,
                            w_plus=w_plus, w_minus=w_minus, config=cfg)


def make_bessel(gamma: int, a: float, omega: float) -> OscillatorSystem:
    """Two-component system for the weight w = (J_gamma, J_gamma')(omega(x+a)).

    ``gamma`` must be a nonnegative integer and ``a`` must satisfy |a| > 1,
    so x + a never vanishes on [-1, 1].  The endpoint values w(+-1) come
    from ``scipy.special.jv`` and ``jvp`` at the signed arguments
    omega (+-1 + a).
    """
    order = float(gamma)
    if not (order.is_integer() and order >= 0):
        raise ValueError(f"gamma must be a nonnegative integer, got {gamma}")
    _check_oscillator_data(omega, a=a)
    if abs(a) <= 1:
        raise PoleInIntervalError(f"need |a| > 1 to keep x + a nonzero, got a={a}")
    gamma = int(order)
    xa = Polynomial([a, 1.0])
    xa2 = xa * xa
    r = xa2
    r_g = (
        (Polynomial([0.0]), omega * xa2),
        ((-omega) * xa2 + Polynomial([gamma * gamma / omega]), -1.0 * xa),
    )
    ends = omega * (np.array([1.0, -1.0]) + a)
    w_plus, w_minus = np.stack([scipy.special.jv(gamma, ends), scipy.special.jvp(gamma, ends)],
                               axis=1).astype(np.complex128)
    cfg = {"type": "bessel", "gamma": gamma, "a": float(a), "omega": float(omega)}
    return OscillatorSystem(omega=float(omega), r=r, r_g=r_g,
                            w_plus=w_plus, w_minus=w_minus, config=cfg)


# ---------------------------------------------------------------------------
# Diagnostics and JSON configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemDiagnostics:
    valid: bool
    dim: int
    d: int
    deg_r: int
    max_deg_rg: int
    min_abs_r: float
    message: str


def validate_system(sys: OscillatorSystem) -> SystemDiagnostics:
    """Check r for roots on [-1, 1] (1001-point grid) and report degrees."""
    x = np.linspace(-1.0, 1.0, 1001)
    min_r = float(np.abs(sys.r(x)).min())
    valid = not _has_interval_root(sys.r, 1001)
    msg = "ok" if valid else "r(x) vanishes (or nearly) inside [-1, 1]"
    return SystemDiagnostics(
        valid=valid,
        dim=sys.dim,
        d=sys.d,
        deg_r=sys.r.degree,
        max_deg_rg=max(p.degree for row in sys.r_g for p in row),
        min_abs_r=min_r,
        message=msg,
    )


def _poly_to_json(p: Polynomial):
    out = []
    for c in p.coeffs:
        if c.imag == 0.0:
            out.append(float(c.real))
        else:
            out.append([float(c.real), float(c.imag)])
    return out


def _poly_from_json(data) -> Polynomial:
    coeffs = []
    for c in data:
        if isinstance(c, (list, tuple)):
            coeffs.append(complex(c[0], c[1]))
        else:
            coeffs.append(complex(c))
    return Polynomial(coeffs)


def _complex_to_json(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def serialize_system(sys: OscillatorSystem) -> dict:
    """JSON-ready dict; family configs round-trip through the constructors."""
    if sys.config is not None:
        return dict(sys.config)
    return {
        "type": "custom",
        "r": _poly_to_json(sys.r),
        "rG": [[_poly_to_json(p) for p in row] for row in sys.r_g],
        "w_plus": [_complex_to_json(z) for z in sys.w_plus],
        "w_minus": [_complex_to_json(z) for z in sys.w_minus],
        "omega": sys.omega,
    }


def parse_oscillator_config(config, omega: float | None = None) -> OscillatorSystem:
    """Build a system from a JSON config (dict or string).

    Schemas: {"type": "exponential", "g": [...], "omega": w},
    {"type": "bessel", "gamma": g, "a": a, "omega": w}, or
    {"type": "custom", "r": [...], "rG": [[[...], ...], ...],
     "w_plus": [[re, im], ...], "w_minus": [...], "omega": w}.
    ``omega`` overrides the config value (used by frequency sweeps).
    """
    if isinstance(config, str):
        config = json.loads(config)
    kind = config.get("type")
    w = float(omega if omega is not None else config["omega"])
    if kind == "exponential":
        return make_exponential(_poly_from_json(config["g"]), w)
    if kind == "bessel":
        return make_bessel(config["gamma"], float(config["a"]), w)
    if kind == "custom":
        if omega is not None and omega != config["omega"]:
            raise ValueError("custom systems cannot be rebuilt at a new omega")
        r = _poly_from_json(config["r"])
        r_g = tuple(tuple(_poly_from_json(p) for p in row) for row in config["rG"])
        w_plus = np.array([complex(c[0], c[1]) for c in config["w_plus"]])
        w_minus = np.array([complex(c[0], c[1]) for c in config["w_minus"]])
        system = OscillatorSystem(omega=w, r=r, r_g=r_g, w_plus=w_plus, w_minus=w_minus,
                                  config=dict(config))
        # after the constructor's finiteness check, so r is finite when sampled
        _check_no_roots(r, 1001, "custom r", PoleInIntervalError)
        return system
    raise ValueError(f"unknown oscillator type {kind!r}")


def weight_values(sys: OscillatorSystem, x) -> np.ndarray:
    """Interior weight vector w(x) for the built-in families (oracle support).

    Only exponential and Bessel systems know their weights away from the
    endpoints; custom systems raise.
    """
    cfg = sys.config or {}
    x = np.asarray(x, dtype=np.float64)
    if cfg.get("type") == "exponential":
        g = _poly_from_json(cfg["g"])
        return np.exp(1j * sys.omega * g(x))[None, :]
    if cfg.get("type") == "bessel":
        z = sys.omega * (x + cfg["a"])
        return np.stack([scipy.special.jv(cfg["gamma"], z),
                         scipy.special.jvp(cfg["gamma"], z)]).astype(np.complex128)
    raise ValueError("interior weight values are only known for the "
                     "exponential and bessel families")
