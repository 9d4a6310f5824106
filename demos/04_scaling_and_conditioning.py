#!/usr/bin/env python3
"""Why the banded reformulation matters: cost scaling and conditioning.

The raw collocation system is dense, so a direct solve costs O(nu^3);
the scaled-and-folded system splits into one FFT-sized transform, a
banded solve, and a 2x2 correction, for O(nu log nu) total.  This script
times both paths and prints 1-norm condition estimates of the systems
each path actually factorizes.
"""

import numpy as np

from oscillquad import LevinProblem, dense_levin_solve, make_exponential, quadrature
from oscillquad.amplitudes import make_amplitude
from oscillquad.banded import banded_condest, dense_condest
from oscillquad.levin import CollocationEngine, _forget_engine
from oscillquad.reference import dense_collocation_matrix


def cold_wall_time(prob):
    """Time a quadrature that builds its engine: a repeated problem would
    otherwise reuse the engine of the previous call."""
    _forget_engine()
    return quadrature(prob).wall_time


def main():
    omega = 100.0
    system = make_exponential([0.0, 1.0], omega)
    amplitude = make_amplitude("rational_runge", system)

    print("wall time per quadrature (fast banded path vs dense solve):")
    print(f"{'nu':>7s} {'fast ms':>10s} {'dense ms':>10s}")
    for nu in (256, 512, 1024, 2048, 4096):
        prob = LevinProblem(system=system, amplitude=amplitude, nu=nu)
        fast = min(cold_wall_time(prob) for _ in range(3))
        dense = dense_levin_solve(prob).wall_time if nu <= 2048 else float("nan")
        print(f"{nu:7d} {fast * 1e3:10.3f} {dense * 1e3:10.1f}")
    print("(dense is cubic; it is skipped above nu = 2048 here)")
    print()

    print("1-norm condition estimates at omega = 100:")
    print(f"{'nu':>5s} {'full dense system':>18s} {'banded middle':>14s} {'2x2 border':>11s}")
    for nu in (16, 64, 128, 256):
        engine = CollocationEngine(system, nu, 0)
        cond_banded = banded_condest(engine.interior_band())
        cond_border = dense_condest(engine.border)
        a, _ = dense_collocation_matrix(
            LevinProblem(system=system, amplitude=amplitude, nu=nu))
        cond_full = dense_condest(a)
        print(f"{nu:5d} {cond_full:18.3e} {cond_banded:14.3e} {cond_border:11.3e}")
    print()
    print("Once nu exceeds omega the dense system becomes numerically")
    print("singular, while the banded middle system stays mild; the badly")
    print("conditioned piece is confined to a 2x2 solve.")


if __name__ == "__main__":
    main()
