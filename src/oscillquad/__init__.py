"""Fast Levin-Clenshaw-Curtis quadrature for highly oscillatory integrals.

The package namespace holds the public API: problem and result types,
system and amplitude builders, ``quadrature`` and its four tiers, the
error types, and the dense reference solver and oracle.  The numerical
internals live in their modules (``chebyshev``, ``banded``, ``levin``).
"""

from .chebyshev import Polynomial, UnsupportedRegimeError
from .banded import SingularMatrixError
from .oscillator import (
    AmplitudeSpec,
    OscillatorSystem,
    PoleInIntervalError,
    StationaryPointError,
    make_bessel,
    make_exponential,
    parse_oscillator_config,
    serialize_system,
    validate_system,
)
from .levin import (
    LevinProblem,
    NonFiniteAmplitudeError,
    QuadratureResult,
    UnsolvableProblemError,
    quadrature,
    solve_block_s,
    solve_block_s0,
    solve_scalar_s,
    solve_scalar_s0,
)
from .reference import cc_oracle, dense_levin_solve, oracle_value
from .amplitudes import make_amplitude, manufactured_amplitude, manufactured_expected_value

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
