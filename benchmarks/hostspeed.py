"""Host speed probe: a fixed kernel that uses no oscillquad code.

The benchmark runs on shared machines whose speed for the same code drifts
by up to 1.7 times, for seconds to minutes at a time, as other tenants
come and go.  The benchmark times this probe before every block and after
the last one, and scales each block's timings by ``REFERENCE_S`` over the
probe times around it (see ``run.run_blocks``).  The probe mixes
interpreter work, small FFTs and sorts, and one banded solve, as the
library's operations do; it touches no library code, so a change to the
library moves the scaled timings in full.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

#: Probe time, in seconds, of the host the scaled timings refer to: the
#: probe's usual time on a 2-vCPU Xeon VM with one BLAS thread, so that
#: there scaled timings read close to measured ones.
REFERENCE_S = 0.0075

_rng = np.random.default_rng(0)
_signal = _rng.random(4096)
_band = _rng.random((7, 20000))
_band[3] += 10.0
_rhs = _rng.random(20000)


def _kernel() -> float:
    acc = 0.0
    for i in range(3000):
        acc += i * 0.5
    for _ in range(30):
        acc += float(np.fft.rfft(_signal)[1].real)
        acc += float(np.sort(_signal)[5])
    return acc + float(scipy.linalg.solve_banded((3, 3), _band, _rhs)[0])


def probe() -> float:
    """Seconds the kernel takes: the faster of two timed runs after an untimed one.

    The untimed run brings the probe's data back into cache after whatever
    ran before it; the faster timed run drops a stall of the host that hit
    the other one.
    """
    _kernel()
    times = []
    for _ in range(2):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return min(times)
