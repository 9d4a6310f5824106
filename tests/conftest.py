"""Shared fixtures: cached oracle values, standard amplitudes, an empty
engine slot for every test, and a dense reference for banded storage."""

from __future__ import annotations

import numpy as np
import pytest

from oscillquad import levin
from oscillquad.amplitudes import rational_amplitude
from oscillquad.chebyshev import BandedMatrix, Polynomial
from oscillquad.reference import oracle_value

# x / (x^2 + 0.02), the amplitude used by both worked integrals.
RUNGE_NUM = Polynomial([0.0, 1.0])
RUNGE_DEN = Polynomial([0.02, 0.0, 1.0])


def runge_amplitude(dim: int = 1):
    return rational_amplitude(RUNGE_NUM, RUNGE_DEN, dim, name="rational_runge")


@pytest.fixture(autouse=True)
def empty_engine_slot():
    """Start every test without a cached engine, so that no test's result
    depends on which test ran before it."""
    levin._forget_engine()


@pytest.fixture(scope="session")
def oracle_cache():
    """Memoized brute-force integrals keyed by (system config, amplitude, n)."""
    cache: dict = {}

    def get(system, amplitude, n_points: int) -> complex:
        key = (repr(sorted((system.config or {}).items())), system.omega,
               amplitude.name, n_points)
        if key not in cache:
            cache[key] = oracle_value(system, amplitude, n_points)
        return cache[key]

    return get


def fit_loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log10(np.asarray(xs, dtype=float)),
                            np.log10(np.asarray(ys, dtype=float)), 1)[0])


def band_from_dense(a, lower_bw: int, upper_bw: int) -> BandedMatrix:
    """The band of a dense matrix, in LAPACK layout: entry (i, j) at
    ``data[upper_bw + i - j, j]``; slots outside the matrix stay zero."""
    a = np.asarray(a)
    n = a.shape[0]
    data = np.zeros((lower_bw + upper_bw + 1, n), dtype=a.dtype)
    for off in range(-upper_bw, lower_bw + 1):
        d = np.diagonal(a, -off)
        j0 = max(0, -off)
        data[upper_bw + off, j0 : j0 + d.shape[0]] = d
    return BandedMatrix(n, lower_bw, upper_bw, data=data, dtype=a.dtype)


def band_to_dense(b: BandedMatrix) -> np.ndarray:
    """Dense copy of a banded matrix."""
    a = np.zeros((b.n, b.n), dtype=b.data.dtype)
    for off in range(-b.upper_bw, b.lower_bw + 1):
        js = np.arange(max(0, -off), min(b.n, b.n - off))
        a[js + off, js] = b.data[b.upper_bw + off, js]
    return a
