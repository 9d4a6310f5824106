#!/usr/bin/env python3
"""Time both DCT-I routes on a grid of nu and write ``BENCH_transform.json``.

For each nu on the grid the DCT-I of nu + 2 points is timed by pocketfft
(``scipy.fft.dct(x, type=1)``) and by the library's chirp-z route, on one
real row, in alternating blocks within one process so that a drift of the
host's speed reaches both alike.  Each entry records the largest prime
factor of nu + 1, the route ``chebyshev.dct1`` takes, and each route's
median microseconds per transform with its quartiles.  The file is the
evidence for ``chebyshev.CHIRP_MIN_PRIME``.

Run from the repository root:

    python3 perf/transform_route.py [--out BENCH_transform.json] [--rounds 15]
"""

from __future__ import annotations

import os

# One BLAS thread, as the benchmark runs; set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.fft  # noqa: E402

from oscillquad import chebyshev  # noqa: E402

#: Powers of two (the benchmark's nu), nu + 1 = 3p for primes p on both
#: sides of the threshold, nu + 1 prime, and nu + 1 = 3^a 5^b.
GRID_NU = sorted({
    *(2 ** k for k in range(5, 16)),
    *(3 * p - 1 for p in (131, 197, 241, 331, 353, 367, 383, 397, 401, 409, 433, 449,
                          499, 683, 1021, 2731, 5449)),
    400, 1008, 4098, 8190,
    2024, 6560, 32804,
})

#: Wall time of one timed block of calls, seconds.
BLOCK_S = 0.004


def time_block(transform, x, calls: int) -> float:
    """Microseconds per call of ``calls`` back-to-back transforms of ``x``."""
    start = time.perf_counter()
    for _ in range(calls):
        transform(x)
    return (time.perf_counter() - start) / calls * 1e6


def measure(nu: int, rounds: int) -> dict:
    n = nu + 2
    x = np.random.default_rng(nu).standard_normal(n)
    routes = {"pocketfft": lambda v: scipy.fft.dct(v, type=1),
              "chirp": chebyshev._chirp_dct1}
    for transform in routes.values():  # plan and warm both
        transform(x)
    calls = {name: max(1, round(BLOCK_S * 1e6 / time_block(f, x, 3)))
             for name, f in routes.items()}
    samples = {name: [] for name in routes}
    for _ in range(rounds):
        for name, transform in routes.items():
            samples[name].append(time_block(transform, x, calls[name]))
    entry = {"nu": nu, "n_points": n,
             "largest_prime_factor_of_nu_plus_1": chebyshev.largest_prime_factor(nu + 1),
             "route": "chirp" if chebyshev._takes_chirp(n) else "pocketfft"}
    for name, values in samples.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        entry[f"{name}_median_us"] = round(median, 2)
        entry[f"{name}_iqr_us"] = [round(q1, 2), round(q3, 2)]
    entry["pocketfft_over_chirp"] = round(entry["pocketfft_median_us"]
                                          / entry["chirp_median_us"], 3)
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_transform.json")
    parser.add_argument("--rounds", type=int, default=15,
                        help="alternating timed blocks per route and nu")
    args = parser.parse_args(argv)
    entries = []
    for nu in GRID_NU:
        entry = measure(nu, args.rounds)
        entries.append(entry)
        print(f"nu {nu:6d}  p {entry['largest_prime_factor_of_nu_plus_1']:5d}  "
              f"{entry['route']:9s}  pocketfft {entry['pocketfft_median_us']:9.1f} us  "
              f"chirp {entry['chirp_median_us']:9.1f} us  "
              f"ratio {entry['pocketfft_over_chirp']:.2f}", flush=True)
    report = {
        "what": "median microseconds of one DCT-I of nu + 2 points on one real row, "
                "by pocketfft and by the chirp-z route, timed in alternating blocks",
        "chirp_min_prime": chebyshev.CHIRP_MIN_PRIME,
        "rounds": args.rounds,
        "machine": {"nproc": len(os.sched_getaffinity(0)), "blas_threads": int(BLAS_THREADS),
                    "numpy": np.__version__, "scipy": scipy.__version__},
        "entries": entries,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
