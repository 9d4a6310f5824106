"""End-to-end benchmark of oscillquad on three seeded workloads.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 10 --trace 0

One process and one closed-loop caller: the next quadrature starts only
after the previous one returns.  One operation builds the oscillator
system, builds the amplitude, makes a ``LevinProblem`` and calls
``quadrature``, as the CLI does for each sweep point.  After one untimed
warm-up block, operations run in whole balanced blocks (see
``workloads.py``) until ``--seconds`` have passed.  Timings are scaled by
a host-speed probe timed around every block (``hostspeed.py``), and
reported with their unscaled values.  Afterwards, outside every
metric, each answer is checked against an independent reference
(``oracle.py``).  The known wrong answers that the workloads do not draw
are checked by ``defects.py``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs half the time untraced, then replays the same
operations with a span around each call into each layer (``spans.py``),
and reports per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct`` (every answer was checked against a converged reference),
``attempted``, ``failed`` (raised, non-finite, or off the reference by
more than the tolerance) and ``metrics``.  The full report, the workload
properties and, for traced runs, the spans are written under
``benchmarks/results/``.  Run from the repository root; the library is
imported from ``src/``.
"""

from __future__ import annotations

import os

# A fixed BLAS thread count keeps timings comparable between runs; it is
# set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Fresh-interpreter set-ups per run, spread evenly over the timed loop so
#: that they meet different spells of a shared host; set-up time is their
#: median.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120

#: Address-space limit of the benchmark process.  Today's largest
#: operations stay below 450 MiB; a dense fallback from nu=8192 would ask a
#: shared machine for several GiB, so it raises MemoryError at its first
#: large allocation and counts as a failed operation.
MEMORY_CAP_MB = 768

#: Host-speed probes whose median stands for each probe (see run_blocks).
PROBE_WINDOW = 5

#: Percentile reported as latency_tail_ms.  A run has hundreds of samples
#: beyond it; p99 is moved by the host's stalls of a fraction of a second,
#: which the host-speed probe between blocks does not see.
TAIL_PERCENTILE = 95.0

#: Processes that compute references once the timed loop has ended.
REFERENCE_WORKERS = 2


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no library source, bad arguments)."""


def metric_spec(section: str) -> list[dict]:
    """The ``end_to_end`` or ``per_layer`` metric list of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[section]


def import_library():
    """Import oscillquad from this checkout's ``src``, and nowhere else."""
    if not (SRC / "oscillquad" / "__init__.py").is_file():
        raise BenchmarkError(f"no library source at {SRC / 'oscillquad'}")
    sys.path.insert(0, str(SRC))
    import oscillquad

    if Path(oscillquad.__file__).resolve().parent != (SRC / "oscillquad").resolve():
        raise BenchmarkError(f"oscillquad imported from {oscillquad.__file__}, not {SRC}")
    return oscillquad


def measure_setup() -> float:
    """Seconds to import oscillquad and run one warm-up quadrature in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Timed loop
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Outcome:
    """What one operation returned, kept small so results do not pile up in memory."""

    value: complex | None = None
    path: str | None = None
    error: str | None = None


def timed_ops(ops, run_op, tracer=None):
    """Run ``ops`` in order; per-op latencies and outcomes, and the total wall time."""
    latencies, outcomes = [], []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = run_op(op)
            else:
                tracer.op_id = index
                result = tracer.span("op", run_op, None, op)
            outcome = Outcome(result.value, result.path)
        except Exception as exc:  # a raising operation is counted, not fatal
            outcome = Outcome(error=type(exc).__name__)
        latencies.append(time.perf_counter() - t0)
        outcomes.append(outcome)
    return latencies, outcomes, time.perf_counter() - start


def scaled_setup() -> tuple[float, float]:
    """One set-up time, scaled by the host probe taken just before it, and unscaled."""
    scale = hostspeed.REFERENCE_S / hostspeed.probe()
    seconds = measure_setup()
    return seconds * scale, seconds


def run_blocks(gen, seconds: float, run_op, setups: list):
    """Whole blocks from ``gen`` until they have taken ``seconds``.

    Untimed, it probes the host's speed before every block and after the
    last one, and appends SETUP_REPEATS ``scaled_setup`` pairs to
    ``setups``, the first before the first block.  Returns the ops, their
    latencies and outcomes, and each block's (number of ops, wall time,
    scale).  A block's scale is REFERENCE_S over the mean of the two probe
    times on either side of it, each the median of the PROBE_WINDOW probes
    around it, so that one probe slowed by a short stall does not count.
    """
    ops, latencies, outcomes, blocks, probes = [], [], [], [], []
    busy = 0.0
    while busy < seconds:
        while len(setups) < SETUP_REPEATS * min(1.0, busy / seconds + 1e-9):
            setups.append(scaled_setup())
        probes.append(hostspeed.probe())
        block = next(gen)
        lat, out, wall = timed_ops(block, run_op)
        ops += block
        latencies += lat
        outcomes += out
        blocks.append([len(block), wall])
        busy += wall
    probes.append(hostspeed.probe())
    half = PROBE_WINDOW // 2
    smooth = [statistics.median(probes[max(0, i - half):i + half + 1])
              for i in range(len(probes))]
    for block, before, after in zip(blocks, smooth, smooth[1:]):
        block.append(2.0 * hostspeed.REFERENCE_S / (before + after))
    while len(setups) < SETUP_REPEATS:
        setups.append(scaled_setup())
    return ops, latencies, outcomes, blocks


# ---------------------------------------------------------------------------
# Correctness check
# ---------------------------------------------------------------------------

def reference_or_none(op):
    """Reference value and its error estimate for one op; None if none converged."""
    import oracle

    try:
        return oracle.reference_value(op)
    except oracle.ReferenceNotConverged:
        return None


def references(ops):
    """``reference_or_none`` for every op, in up to REFERENCE_WORKERS processes.

    They run after the timed loop has ended, so they share no time with it.
    """
    import multiprocessing

    workers = min(REFERENCE_WORKERS, len(os.sched_getaffinity(0)), len(ops))
    if workers <= 1:
        return [reference_or_none(op) for op in ops]
    pool = multiprocessing.get_context("fork").Pool(workers)
    try:
        refs = pool.map(reference_or_none, ops, chunksize=max(1, len(ops) // (8 * workers)))
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
    return refs


def classify(outcome: Outcome, ref, tol: float):
    """("ok" | "raised" | "non_finite" | "inaccurate" | "unchecked", relative error).

    An answer is inaccurate when it misses the reference by more than ``tol``
    relative plus the reference's own error estimate.
    """
    if outcome.error is not None:
        return "raised", None
    if not (math.isfinite(outcome.value.real) and math.isfinite(outcome.value.imag)):
        return "non_finite", None
    if ref is None:
        return "unchecked", None
    value, ref_err = ref
    miss = abs(outcome.value - value)
    return ("inaccurate" if miss > tol * abs(value) + ref_err else "ok"), \
        miss / max(abs(value), 1e-300)


def percentile(values_sorted, p: float):
    """Nearest-rank p-th percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(p / 100.0 * len(values_sorted)))
    return values_sorted[rank - 1], len(values_sorted) - rank


def summarize(ops, latencies, outcomes, refs, blocks, tol):
    """Every end-to-end metric, with units, sample counts and the failure tally.

    ``blocks`` holds each block's (number of ops, wall time, scale), in run
    order.  Every timing is multiplied by its block's scale, so that it
    reads as on a host whose probe takes ``hostspeed.REFERENCE_S``; the
    unscaled value is kept in the report as ``measured``.
    """
    verdicts = [classify(o, r, tol) for o, r in zip(outcomes, refs)]
    n = len(ops)
    failures = Counter(kind for kind, _ in verdicts if kind != "ok")
    failures.update(f"raised:{o.error}" for o in outcomes if o.error is not None)
    unchecked = failures.pop("unchecked", 0)
    failed = sum(v for k, v in failures.items() if not k.startswith("raised:"))
    rel_errs = [rel for _, rel in verdicts if rel is not None]
    scales = [scale for k, _, scale in blocks for _ in range(k)]
    lat = sorted(t * scale for t, scale in zip(latencies, scales))
    measured = sorted(latencies)
    tail_value, beyond = percentile(lat, TAIL_PERCENTILE)
    fallbacks = sum(1 for o in outcomes if o.path == "dense_fallback")
    metrics = {
        "quad_per_s": {"value": n / sum(w * scale for _, w, scale in blocks), "unit": "1/s",
                       "samples": n, "measured": n / sum(w for _, w, _ in blocks)},
        "latency_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms", "samples": n,
                           "measured": 1e3 * statistics.median(measured)},
        "latency_tail_ms": {"value": 1e3 * tail_value, "unit": "ms", "samples": n,
                            "percentile": TAIL_PERCENTILE, "beyond": beyond,
                            "measured": 1e3 * percentile(measured, TAIL_PERCENTILE)[0]},
        "failed_frac": {"value": failed / n, "unit": "fraction", "samples": n},
        "fallback_frac": {"value": fallbacks / n, "unit": "fraction", "samples": n},
        "rel_err_p50": {"value": statistics.median(rel_errs) if rel_errs else float("nan"),
                        "unit": "fraction", "samples": len(rel_errs)},
    }
    return metrics, failed, unchecked, dict(failures)


# ---------------------------------------------------------------------------
# Workload properties, scaling and machine context
# ---------------------------------------------------------------------------

def properties(workload, ops, outcomes, n_blocks):
    import workloads

    seen, reused = set(), 0
    for op in ops:
        key = op.engine_key
        reused += key in seen
        seen.add(key)
    paths = Counter(o.path if o.error is None else "raised" for o in outcomes)
    omegas = [op.omega for op in ops]
    return {
        "why": workloads.WHY[workload],
        "tolerance": workloads.TOLERANCE,
        "blocks": n_blocks,
        "operations": len(ops),
        "engine_key_reuse_frac": reused / len(ops),
        "path_mix": dict(sorted(paths.items())),
        "omega_range": [min(omegas), max(omegas)],
        "nu_values": sorted({op.nu for op in ops}),
        "s_values": sorted({op.s for op in ops}),
        "families": sorted({op.family for op in ops}),
    }


def scaling(ops, latencies):
    """Cost against nu and against omega, from large_nu (information, not gated)."""
    by_cell = {}
    for op, lat in zip(ops, latencies):
        label, nu, s, stratum = op.cell.split("/")
        by_cell.setdefault((label, nu, s), {}).setdefault(stratum, []).append(lat)
    slopes = {}
    for label in ("I1", "I2"):
        for s in ("s=0", "s=1", "s=2"):
            meds = []
            for nu in sorted({op.nu for op in ops}):
                cell = by_cell.get((label, f"nu={nu}", s))
                if cell:
                    meds.append((nu, statistics.median([x for v in cell.values() for x in v])))
            if len(meds) >= 2:
                fit = statistics.linear_regression([math.log(nu) for nu, _ in meds],
                                                   [math.log(t) for _, t in meds])
                slopes[f"{label} (M={1 if label == 'I1' else 2}) {s}"] = fit.slope
    ratios = {}
    for (label, nu, s), strata in sorted(by_cell.items()):
        meds = [statistics.median(v) for v in strata.values()]
        if len(meds) >= 2:
            ratios[f"{label} {nu} {s}"] = max(meds) / min(meds)
    return {"loglog_slope_latency_vs_nu": slopes,
            "max_over_min_median_latency_across_omega_strata": ratios}


def machine():
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    if int(BLAS_THREADS) > nproc:
        raise BenchmarkError(f"BLAS threads {BLAS_THREADS} exceed nproc {nproc}")
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "oscillquad").rglob("*.py"))
    return {"nproc": nproc, "blas_threads": int(BLAS_THREADS),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "src_oscillquad_lines": lines}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(args) -> dict:
    import workloads

    cap = MEMORY_CAP_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    phases = {"start": time.perf_counter()}
    workloads.run_op(workloads.WARMUP_OP)
    phases["setup"] = time.perf_counter()

    # One untimed block warms caches and lazy set-up on this workload's mix.
    gen = workloads.blocks(args.workload, args.seed)
    timed_ops(next(gen), workloads.run_op)
    seconds = args.seconds / 2 if args.trace else args.seconds
    setups = []
    ops, latencies, outcomes, blocks = run_blocks(gen, seconds, workloads.run_op, setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        with tracer:
            t_lat, t_out, t_wall = timed_ops(ops, workloads.run_op, tracer)

    phases["timed"] = time.perf_counter()
    refs = references(ops)
    phases["references"] = time.perf_counter()
    tol = workloads.TOLERANCE
    metrics, failed, unchecked, failures = summarize(ops, latencies, outcomes, refs, blocks,
                                                     tol)
    metrics["setup_s"] = {"value": statistics.median(s for s, _ in setups), "unit": "s",
                          "samples": len(setups),
                          "measured": statistics.median(s for _, s in setups)}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB", "samples": 1}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "end_to_end": metrics, "failures": failures,
        "unchecked": unchecked,
        "properties": properties(args.workload, ops, outcomes, len(blocks)),
        "raw": {"blocks": blocks, "ops": [
            [op.cell, op.omega, op.amplitude, lat, o.path or o.error, *classify(o, r, tol)]
            for op, lat, o, r in zip(ops, latencies, outcomes, refs)]},
        "machine": machine(),
        "phase_seconds": {name: phases[name] - phases[prev] for prev, name in
                          zip(("start", "setup", "timed"), ("setup", "timed", "references"))},
    }
    if args.workload == "large_nu":
        scales = [scale for k, _, scale in blocks for _ in range(k)]
        report["scaling"] = scaling(ops, [t * scale for t, scale in zip(latencies, scales)])
    attempted = len(ops)
    if tracer is not None:
        from spans import layer_metrics

        t_metrics, t_failed, t_unchecked, _ = summarize(ops, t_lat, t_out, refs,
                                                         [(len(ops), t_wall, 1.0)], tol)
        layers = layer_metrics(tracer.spans, len(ops))
        untraced, traced = metrics["quad_per_s"]["measured"], t_metrics["quad_per_s"]["value"]
        layers["trace.quad_per_s_untraced"] = (untraced, "1/s")
        layers["trace.quad_per_s_traced"] = (traced, "1/s")
        layers["trace.overhead_ratio"] = (untraced / traced, "ratio")
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"{args.workload}_seed{args.seed}_spans.json")
        failed, unchecked = t_failed, t_unchecked
    report["result"] = {"correct": unchecked == 0, "attempted": attempted, "failed": failed}
    return report


def print_report(report):
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  ({report['properties']['why']})")
    for name, m in report["end_to_end"].items():
        extra = (f"  p{m['percentile']:g}, {m['beyond']} beyond"
                 if "percentile" in m else "")
        if "measured" in m:
            extra += f"  (measured {m['measured']:.6g}, unscaled)"
        print(f"  {name:<16} {m['value']:.6g} {m['unit']}  (n={m['samples']}){extra}")
    print(f"  failures: {json.dumps(report['failures'], sort_keys=True)}")
    props = report["properties"]
    print(f"  engine-key reuse {props['engine_key_reuse_frac']:.4f}  "
          f"paths {json.dumps(props['path_mix'])}")
    print(f"  omega {props['omega_range'][0]:.4g}..{props['omega_range'][1]:.4g}  "
          f"nu {props['nu_values']}  s {props['s_values']}  blocks {props['blocks']}")
    print(f"  machine {json.dumps(report['machine'])}")
    for key, table in report.get("scaling", {}).items():
        print(f"  {key}: " + ", ".join(f"{k} {v:.3f}" for k, v in table.items()))
    for name, m in report.get("per_layer", {}).items():
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        import_library()
        report = run(args)
    except (BenchmarkError, FileNotFoundError, subprocess.SubprocessError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print_report(report)
    names = metric_spec("per_layer" if args.trace else "end_to_end")
    source = report["per_layer"] if args.trace else report["end_to_end"]
    metrics = {m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]}
               for m in names}
    print(json.dumps({**report["result"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
