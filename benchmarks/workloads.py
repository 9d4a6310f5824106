"""Seeded problem generation for the three benchmark workloads.

Every workload is a sequence of *blocks*.  A block is a balanced design:
each block holds the same mix of the parameters that set an operation's
cost and its chance of falling back or failing (family, ``nu``, ``s`` and
the omega range), and the seed draws everything inside that mix (exact omega,
phase coefficients, Bessel order and shift, amplitude).  Runs measure
whole blocks, so two seeds see the same mix and differ only in the draws,
which keeps run-to-run spread small.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("sweep", "large_nu", "batch_rhs")

WHY = {
    "sweep": "many small seeded s=0 problems (nu 32-512, every family, registry "
             "amplitudes, omega 10^1.5-10^4): the fixed cost of each call dominates",
    "large_nu": "I1 and I2 at nu 8192-32768 (s=0, omega 10^3-10^4) and 2048-8192 (s=1, "
                "omega 10^2.5-10^3): the O(nu) layers dominate; cost should not depend on omega",
    "batch_rhs": "three fixed systems at nu 2048, s 1, omega max|g'| 10^2-10^3, each solved "
                 "for K=20 seeded rational amplitudes: the only workload whose f-independent "
                 "engine repeats, in (K-1)/K of builds",
}

#: Relative error above which an answer counts as failed, on every workload.
#: Today's answers in the timed workloads stay below 5e-7 (cos at s = 0,
#: where the integral nearly cancels); the known wrong answers in
#: ``defects.py`` miss by 6e-4 or more, or raise.
TOLERANCE = 1e-5

# The timed workloads stay inside the region where today's library answers
# within TOLERANCE on every draw, so that a run's failure count measures a
# change to the program and not the luck of its draws.  The known wrong
# answers outside that region (s >= 1 with omega near or above nu, s = 2,
# s = 1 at nu = 32768, registry manufactured:<n> for n above 12, and
# rational_runge below nu = 256) are reproduced by ``defects.py``.

SWEEP_NU = (32, 64, 128, 256, 512)
SWEEP_S = 0
SWEEP_FAMILIES = ("exp_linear", "exp_cubic", "bessel")
SWEEP_LOG_OMEGA = (1.5, 4.0)
SWEEP_OMEGA_STRATA = 5
SWEEP_AMPLITUDES = ("one", "cos", "rational_runge", "manufactured")
#: rational_runge has poles at +-0.14i; it is drawn only where nu resolves it.
RUNGE_MIN_NU = 256
#: Largest manufactured index drawn; the registry's samples lose accuracy
#: above it (its documented range goes to amplitudes.MAX_MANUFACTURED_INDEX).
MANUFACTURED_MAX = 12

#: (problem, nu, s, log10 omega range) of the large_nu cells.  s = 1 keeps
#: omega below nu / 2; s = 0 starts at omega 1000, because below it the
#: residual check flags some solves at nu >= 16384 and the dense fallback
#: would need several GiB.  With nine cells of equal share the median
#: latency and p95 each lie inside one cell's cluster, not on a gap between two.
LARGE_CELLS = tuple(
    [(label, nu, 0, (3.0, 4.0)) for label, nu in
     (("I1", 8192), ("I1", 16384), ("I1", 32768), ("I2", 8192), ("I2", 32768))]
    + [(label, nu, 1, (2.5, 3.0)) for label in ("I1", "I2") for nu in (2048, 8192)])
LARGE_OMEGA_STRATA = 4

BATCH_NU = 2048
BATCH_S = 1
BATCH_K = 20
#: Two M=1 systems and one M=2 system (Bessel, order 0 or 1 per block).
BATCH_SYSTEMS = ("exp_linear", "exp_cubic", "bessel")
#: Range of omega * max|g'|, the highest local frequency, kept below nu / 2
#: as s = 1 needs.
BATCH_LOG_OMEGA = (2.0, 3.0)


@dataclass(frozen=True)
class Op:
    """One quadrature to run: the benchmark builds system, amplitude and problem."""

    family: str          # "exponential" or "bessel"
    g: tuple             # phase coefficients (exponential) or ()
    gamma: int           # Bessel order (bessel) or 0
    a: float             # Bessel shift (bessel) or 0.0
    omega: float
    nu: int
    s: int
    amplitude: str       # registry name, or "rational:<j>:<c>" = x^j / (x^2 + c)
    cell: str            # design cell, for the property report

    @property
    def engine_key(self) -> str:
        """What the f-independent engine depends on: system config, nu and s."""
        system = ({"type": "bessel", "gamma": self.gamma, "a": self.a}
                  if self.family == "bessel" else {"type": "exponential", "g": self.g})
        return json.dumps([system, self.omega, self.nu, self.s])


#: The untimed warm-up quadrature that ends set-up, the same for every workload.
WARMUP_OP = Op("exponential", (0.0, 1.0), 0, 0.0, 100.0, 64, 1, "rational_runge", "warmup")


def _log_omega(rng, bounds, strata, stratum):
    lo, hi = bounds
    width = (hi - lo) / strata
    return float(10.0 ** (lo + width * (stratum + rng.random())))


def _cubic_phase(rng) -> tuple:
    """g = c1 x + c2 x^2 + c3 x^3 with c1 > 2|c2| + 3|c3|, so g' > 0 on [-1, 1]."""
    c2, c3 = rng.uniform(-0.5, 0.5, size=2)
    c1 = 2 * abs(c2) + 3 * abs(c3) + rng.uniform(0.5, 1.5)
    return (0.0, float(c1), float(c2), float(c3))


def _registry_amplitude(rng, kind: str) -> str:
    if kind == "manufactured":
        return f"manufactured:{int(rng.integers(0, MANUFACTURED_MAX + 1))}"
    return kind


def _sweep_block(rng) -> list[Op]:
    ops = []
    for fam in SWEEP_FAMILIES:
        for nu in SWEEP_NU:
            kinds = [k for k in SWEEP_AMPLITUDES if nu >= RUNGE_MIN_NU or k != "rational_runge"]
            for k in range(SWEEP_OMEGA_STRATA):
                omega = _log_omega(rng, SWEEP_LOG_OMEGA, SWEEP_OMEGA_STRATA, k)
                cell = f"{fam}/nu={nu}/s={SWEEP_S}/omega_stratum={k}"
                amplitude = _registry_amplitude(rng, kinds[int(rng.integers(len(kinds)))])
                if fam == "bessel":
                    gamma = int(rng.choice([0, 1, 3]))
                    a = float(rng.uniform(1.5, 4.0) * rng.choice([-1.0, 1.0]))
                    ops.append(Op("bessel", (), gamma, a, omega, nu, SWEEP_S, amplitude, cell))
                else:
                    g = (0.0, 1.0) if fam == "exp_linear" else _cubic_phase(rng)
                    ops.append(Op("exponential", g, 0, 0.0, omega, nu, SWEEP_S, amplitude,
                                  cell))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _large_nu_block(rng, block: int, offsets) -> list[Op]:
    ops = []
    for (label, nu, s, log_omega), offset in offsets.items():
        stratum = (offset + block) % LARGE_OMEGA_STRATA
        omega = _log_omega(rng, log_omega, LARGE_OMEGA_STRATA, stratum)
        cell = f"{label}/nu={nu}/s={s}/omega_stratum={stratum}"
        if label == "I1":
            ops.append(Op("exponential", (0.0, 1.0), 0, 0.0, omega, nu, s,
                          "rational_runge", cell))
        else:
            ops.append(Op("bessel", (), 1, 2.0, omega, nu, s, "rational_runge", cell))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _batch_block(rng, block: int, offsets) -> list[Op]:
    ops = []
    for label, offset in offsets.items():
        stratum = (offset + block) % len(BATCH_SYSTEMS)
        omega = _log_omega(rng, BATCH_LOG_OMEGA, len(BATCH_SYSTEMS), stratum)
        cell = f"{label}/omega_stratum={stratum}"
        if label == "exp_linear":
            fam, g, gamma, a = "exponential", (0.0, 1.0), 0, 0.0
        elif label == "exp_cubic":
            fam, g, gamma, a = "exponential", _cubic_phase(rng), 0, 0.0
            omega /= g[1] + 2 * abs(g[2]) + 3 * abs(g[3])
        else:
            fam, g, gamma = "bessel", (), int(rng.integers(0, 2))
            a = float(rng.uniform(1.5, 4.0) * rng.choice([-1.0, 1.0]))
        for _ in range(BATCH_K):
            j = int(rng.integers(0, 4))
            c = float(rng.uniform(0.05, 1.0))
            ops.append(Op(fam, g, gamma, a, omega, BATCH_NU, BATCH_S,
                          f"rational:{j}:{c!r}", cell))
    return ops


def blocks(workload: str, seed: int):
    """Endless generator of balanced blocks of operations for ``workload``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "large_nu":
        # A cell's omega stratum advances by one per block, from a seeded start.
        offsets = {cell: int(rng.integers(LARGE_OMEGA_STRATA)) for cell in LARGE_CELLS}
    elif workload == "batch_rhs":
        # Each block puts the three systems in the three omega strata.
        offsets = dict(zip(BATCH_SYSTEMS, (int(v) for v in rng.permutation(len(BATCH_SYSTEMS)))))
    block = 0
    while True:
        if workload == "sweep":
            yield _sweep_block(rng)
        elif workload == "large_nu":
            yield _large_nu_block(rng, block, offsets)
        else:
            yield _batch_block(rng, block, offsets)
        block += 1


# ---------------------------------------------------------------------------
# One operation, as a user of the library runs it
# ---------------------------------------------------------------------------

def build_system(op: Op):
    from oscillquad import oscillator

    if op.family == "bessel":
        return oscillator.make_bessel(op.gamma, op.a, op.omega)
    return oscillator.make_exponential(list(op.g), op.omega)


def build_amplitude(op: Op, system):
    from oscillquad import amplitudes
    from oscillquad.chebyshev import Polynomial

    if op.amplitude.startswith("rational:"):
        _, j, c = op.amplitude.split(":")
        num = np.zeros(int(j) + 1)
        num[-1] = 1.0
        return amplitudes.rational_amplitude(Polynomial(num), Polynomial([float(c), 0.0, 1.0]),
                                             system.dim, name=op.amplitude)
    return amplitudes.make_amplitude(op.amplitude, system)


def run_op(op: Op):
    """Build the system, build the amplitude, make the problem, solve it."""
    from oscillquad import levin

    system = build_system(op)
    amplitude = build_amplitude(op, system)
    return levin.quadrature(levin.LevinProblem(system, amplitude, op.nu, op.s))
