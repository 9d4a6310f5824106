"""The shape-only caches a small call reads: every one is bounded, what it
returns is read-only, an engine built from cold caches equals one built
from warm ones byte for byte, and one cold call stays within its budget of
Python calls."""

from __future__ import annotations

import cProfile
import dataclasses
import pstats
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from oscillquad import amplitudes, banded, chebyshev, levin
from oscillquad.amplitudes import make_amplitude
from oscillquad.chebyshev import PLAN_CACHE_SIZE, Polynomial
from oscillquad.levin import CollocationEngine, LevinProblem, quadrature
from oscillquad.oscillator import make_bessel, make_exponential

MODULES = (chebyshev, banded, levin, amplitudes)


def library_caches():
    """Every lru_cache-wrapped function the library's modules define."""
    return [f for module in MODULES for f in vars(module).values()
            if hasattr(f, "cache_clear") and f.__module__ == module.__name__]


def arrays_in(value):
    """The numpy arrays inside a cached value: tuples, dataclasses,
    polynomials and DIA arrays are opened."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from arrays_in(item)
    elif isinstance(value, Polynomial):
        yield value.coeffs
    elif isinstance(value, scipy.sparse.dia_array):
        yield value.offsets
        yield value.data
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from arrays_in(getattr(value, field.name))


#: One key of each cache, as a build at nu = 64 meets it (M = 2, s = 1).
CACHED_CALLS = [
    (chebyshev.clenshaw_curtis_points, (64,)),
    (levin._endpoint_tables, (69, 2)),
    (amplitudes.chebyshev_t_polynomial, (7,)),
    (banded.narrowest_equation_order, (((3, 4), (4, 3)),)),
    (chebyshev._dia_template, (132, 8, 8)),
    (chebyshev._outside_slots, (128, 8, 8)),
    (chebyshev._reflection_slots, (4,)),
    (chebyshev._fold_slots, (64, 3, 2, 8, 8)),
    (levin._correction_units, (2, 64, 1)),
    (chebyshev._takes_chirp, (66,)),
    (chebyshev._chirp_plan, (2050,)),  # met at nu = 2048, whose nu + 1 = 3 x 683
]


def test_cached_calls_cover_every_cache():
    # a new cache must join the checks here
    assert {f for f, _ in CACHED_CALLS} == set(library_caches())


def test_the_readme_cache_table_names_every_cache():
    # the one list of the caches: a new one must be listed, a deleted one unlisted
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.findall(r"^\| `(\w+)\.(\w+)` \|", readme, flags=re.M)
    assert sorted(listed) == sorted((f.__module__.split(".")[-1], f.__name__)
                                    for f in library_caches())


@pytest.mark.parametrize("plan,args", CACHED_CALLS, ids=[f.__name__ for f, _ in CACHED_CALLS])
def test_what_a_cache_returns_is_shared_and_read_only(plan, args):
    value = plan(*args)
    assert plan(*args) is value
    arrays = list(arrays_in(value))
    assert arrays or plan in (banded.narrowest_equation_order, chebyshev._takes_chirp)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_engines_at_twice_as_many_shapes_keep_each_cache_at_its_bound():
    system = make_exponential([0.0, 1.0], 50.0)
    for nu in range(8, 8 + 4 * PLAN_CACHE_SIZE, 2):
        CollocationEngine(system, nu, 0)
    for n in range(2 * (amplitudes.MAX_MANUFACTURED_INDEX + 1)):
        amplitudes.chebyshev_t_polynomial(n)
    for plan in library_caches():
        info = plan.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize, plan.__name__
    for plan in (chebyshev._dia_template, chebyshev._outside_slots, chebyshev._fold_slots,
                 levin._correction_units, chebyshev.clenshaw_curtis_points,
                 levin._endpoint_tables, amplitudes.chebyshev_t_polynomial):
        assert plan.cache_info().currsize == plan.cache_info().maxsize, plan.__name__


@pytest.mark.parametrize("system,nu,s", [
    (make_exponential([0.0, 1.0], 300.0), 128, 0),
    (make_exponential([0.0, 1.3, 0.2, -0.1], 80.0), 96, 2),
    (make_bessel(1, 2.0, 300.0), 128, 0),
    (make_bessel(0, -2.5, 60.0), 64, 1)])
def test_an_engine_from_cold_caches_equals_one_from_warm_caches(system, nu, s):
    CollocationEngine(system, nu, s)
    warm = CollocationEngine(system, nu, s)
    for plan in library_caches():
        plan.cache_clear()
    cold = CollocationEngine(system, nu, s)
    pairs = [(warm.lu.factors.data, cold.lu.factors.data), (warm.lu.pivots, cold.lu.pivots),
             (warm.operator.data, cold.operator.data), (warm.rows, cold.rows),
             (warm.basis, cold.basis), (warm.border, cold.border),
             (warm.weights, cold.weights), (warm.tail_ops, cold.tail_ops)]
    pairs += list(zip(warm.kept_arrays(), cold.kept_arrays()))
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert warm.order == cold.order


#: Python calls (cProfile ``total_calls``) of one cold nu = 128 quadrature,
#: with a fresh engine and warm caches: 435 (M = 1) and 687 (M = 2) when
#: the shape-only plans were cached, 532 and 866 before; each bound is 10 %
#: above the first pair.
COLD_CALL_BUDGET = {"exponential": 478, "bessel": 755}


@pytest.mark.parametrize("family,system", [
    ("exponential", make_exponential([0.0, 1.0], 300.0)),
    ("bessel", make_bessel(1, 2.0, 300.0))])
def test_a_cold_small_call_stays_within_its_call_budget(family, system):
    problem = LevinProblem(system, make_amplitude("rational_runge", system), 128, 0)
    quadrature(problem)  # fills the caches
    levin._forget_engine()
    profile = cProfile.Profile()
    profile.enable()
    result = quadrature(problem)
    profile.disable()
    assert not result.engine_reused and result.fallback_reason is None
    assert pstats.Stats(profile).total_calls <= COLD_CALL_BUDGET[family]
