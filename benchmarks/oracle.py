"""Reference values for benchmark answers, computed outside every metric.

``manufactured:<n>`` amplitudes have a closed-form value.  Every other
answer is checked against the library's brute-force Clenshaw-Curtis
``oracle_value`` at a node count that is itself checked by
self-convergence: the value at n nodes must agree with the value at 2n.

A reference's error bound is never below the double-precision rounding
floor of the terms that cancel in it.  Where the integral nearly vanishes
(cos at an omega near a zero of its transform, |I| = 5e-10 for terms of
size 1), a correct answer is off by about 1e-13 absolute, which is a large
share of |I|; the floor keeps such answers from counting as failed.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import Op, build_amplitude, build_system

#: A reference is accepted when |I(n) - I(2n)| <= REF_RTOL * |I(2n)|, ten
#: times below the answer tolerance, or when the difference is at the
#: rounding floor, ROUNDING_RTOL * 2 max|integrand| (a bound on the integral
#: of |integrand|): an integrand that nearly cancels has no more accurate
#: double-precision value.
REF_RTOL = 1e-7
ROUNDING_RTOL = 1e-12

#: Doublings tried beyond the first node-count estimate.
MAX_DOUBLINGS = 2


class ReferenceNotConverged(RuntimeError):
    """The oracle at n and 2n nodes disagree by more than the reference allows."""


def checked_oracle(system, amplitude, n: int) -> tuple[complex, float]:
    """Oracle value at 2n nodes and its error bound.

    This is ``oracle_value`` at n and at 2n nodes; the n-node rule reuses
    every other sample of the 2n-node one.  The bound is their difference,
    or the rounding floor ROUNDING_RTOL * 2 max|integrand| if that is larger.
    """
    from oscillquad import reference

    x = np.cos(np.arange(2 * n + 1) * (np.pi / (2 * n)))
    x[0], x[-1] = 1.0, -1.0
    values = reference.oscillatory_integrand(system, amplitude)(x)
    fine = reference.cc_oracle(lambda _: values, 2 * n)
    coarse = reference.cc_oracle(lambda _: values[::2], n)
    size = 2.0 * float(np.max(np.abs(values)))
    err = abs(fine - coarse)
    allowed = max(REF_RTOL * abs(fine), ROUNDING_RTOL * size)
    if not (math.isfinite(err) and err <= allowed):
        raise ReferenceNotConverged(
            f"oracle at {n} and {2 * n} nodes differ by {err:.3e} "
            f"(|I| = {abs(fine):.3e}, allowed {allowed:.3e})"
        )
    return fine, max(err, ROUNDING_RTOL * size)


def first_node_count(op: Op) -> int:
    """Multiple of 64 that resolves omega * max|g'| oscillations plus the amplitude."""
    if op.family == "bessel":
        slope = 1.0
    else:
        slope = sum(abs(c) * k for k, c in enumerate(op.g))
    return 64 * math.ceil((1.1 * op.omega * slope + 600) / 64)


def reference_value(op: Op) -> tuple[complex, float]:
    """Reference value and its absolute error bound for one operation."""
    from oscillquad import amplitudes

    system = build_system(op)
    if op.amplitude.startswith("manufactured:"):
        n = int(op.amplitude.split(":", 1)[1])
        floor = ROUNDING_RTOL * (abs(system.w_plus[0]) + abs(system.w_minus[0]))
        return amplitudes.manufactured_expected_value(system, n), floor
    amplitude = build_amplitude(op, system)
    n = first_node_count(op)
    for _ in range(MAX_DOUBLINGS):
        try:
            return checked_oracle(system, amplitude, n)
        except ReferenceNotConverged:
            n *= 2
    return checked_oracle(system, amplitude, n)
