"""Command-line front end: single quadratures, parameter sweeps, timing
benchmarks, and condition-number studies, all emitting CSV.

    oscillquad quad        --config cfg.json [--out out.csv] [--method fast|dense|oracle]
    oscillquad sweep-omega --config cfg.json [--out out.csv] [--method fast|dense] [--parallel N]
    oscillquad sweep-nu    --config cfg.json [--out out.csv] [--parallel N]
    oscillquad bench       --config cfg.json [--out out.csv] [--repeats N]
    oscillquad condition   --config cfg.json [--out out.csv]
    oscillquad plotdata    --config cfg.json [--out out.csv]

The config is one flat JSON object: the oscillator schema (type
exponential/bessel/custom) plus run keys ``amplitude``, ``nu``, ``s``,
``omega`` and, for sweeps, ``omega_grid`` ({"log10_from": a, "log10_to": b,
"points": n}) or ``nu_grid`` (list of even integers).  Each command takes
only the options shown for it; ``--repeats`` and ``--parallel`` must be at
least 1.  Exit codes: 2 for usage and configuration errors, 3 for solver
failures.  Every command is deterministic given its config (timings
aside); rows are emitted in sorted parameter order regardless of worker
scheduling.
"""

from __future__ import annotations

import argparse
import csv
import json
import operator
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .amplitudes import make_amplitude
from .banded import SingularMatrixError, banded_condest, dense_condest
from .levin import CollocationEngine, LevinProblem, UnsolvableProblemError, quadrature
from .levin import _forget_engine
from .oscillator import parse_oscillator_config
from .reference import (
    dense_collocation_matrix,
    dense_levin_solve,
    dense_within_guard,
    oracle_value,
)

EXIT_CONFIG = 2
EXIT_SOLVER = 3

#: cmd_bench / cmd_condition skip the dense system beyond this nu unless
#: the config overrides (dense cost is cubic; the fast path is not capped),
#: and wherever the dense memory guard would refuse it.
DEFAULT_DENSE_MAX_NU = 4096
DEFAULT_COND_MAX_NU = 2048


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    return f"{x:.17g}"


def _write_csv(path, header, rows):
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _build_problem(config: dict, omega: float | None = None,
                   nu: int | None = None) -> LevinProblem:
    try:
        system = parse_oscillator_config(config, omega=omega)
        amplitude = make_amplitude(config.get("amplitude", "rational_runge"), system)
        return LevinProblem(
            system=system,
            amplitude=amplitude,
            nu=nu if nu is not None else config["nu"],
            s=config.get("s", 0),
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _omega_grid(config: dict) -> np.ndarray:
    spec = config.get("omega_grid")
    if not spec:
        raise ConfigError("config needs an omega_grid for this command")
    try:
        grid = np.logspace(float(spec["log10_from"]), float(spec["log10_to"]),
                           int(spec["points"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad omega_grid: {exc}") from exc
    if grid.size == 0:
        raise ConfigError("omega_grid is empty")
    return grid


def _nu_grid(config: dict) -> list[int]:
    grid = config.get("nu_grid")
    if not grid:
        raise ConfigError("config needs a nonempty nu_grid for this command")
    try:
        grid = [operator.index(v) for v in grid]
    except TypeError:
        raise ConfigError(f"nu_grid entries must be integers, got {grid!r}") from None
    for nu in grid:
        if nu < 2 or nu % 2 != 0:
            raise ConfigError(f"nu_grid entries must be even and >= 2, got {nu}")
    return sorted(grid)


def _solve(problem: LevinProblem, method: str):
    if method == "fast":
        return quadrature(problem)
    if method == "dense":
        return dense_levin_solve(problem)
    raise ConfigError(f"unknown method {method!r}")


def _map_maybe_parallel(fn, items, workers: int):
    if workers <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_quad(config: dict, args) -> list[list[str]]:
    method = args.method
    if method == "oracle":
        problem = _build_problem(config)
        t0 = time.perf_counter()
        value = oracle_value(problem.system, problem.amplitude)
        wall = time.perf_counter() - t0
        row = [method, _fmt(problem.system.omega), str(problem.nu), str(problem.s),
               _fmt(value.real), _fmt(value.imag), _fmt(float("nan")), _fmt(wall)]
        return [row]
    problem = _build_problem(config)
    result = _solve(problem, method)
    return [[method, _fmt(problem.system.omega), str(problem.nu), str(problem.s),
             _fmt(result.value.real), _fmt(result.value.imag),
             _fmt(result.residual), _fmt(result.wall_time)]]


QUAD_HEADER = ["method", "omega", "nu", "s", "value_re", "value_im",
               "residual", "wall_seconds"]


def cmd_sweep_omega(config: dict, args) -> list[list[str]]:
    grid = _omega_grid(config)

    def run(omega: float):
        problem = _build_problem(config, omega=omega)
        result = _solve(problem, args.method)
        exact = oracle_value(problem.system, problem.amplitude)
        return [_fmt(omega), str(problem.nu), _fmt(abs(result.value - exact))]

    return _map_maybe_parallel(run, list(grid), args.parallel)


SWEEP_OMEGA_HEADER = ["omega", "nu", "abs_error"]


def cmd_sweep_nu(config: dict, args) -> list[list[str]]:
    grid = _nu_grid(config)
    base = _build_problem(config, nu=grid[0])
    exact = oracle_value(base.system, base.amplitude)

    def run(nu: int):
        problem = _build_problem(config, nu=nu)
        fast = quadrature(problem)
        dense = dense_levin_solve(problem)
        return [str(nu), _fmt(abs(fast.value - exact)),
                _fmt(fast.wall_time), _fmt(dense.wall_time)]

    return _map_maybe_parallel(run, grid, args.parallel)


SWEEP_NU_HEADER = ["nu", "abs_error", "wall_seconds_fast", "wall_seconds_dense"]


def _cold_wall_time(problem: LevinProblem) -> float:
    """Wall time of one quadrature that builds its engine, as a first call does."""
    _forget_engine()
    return quadrature(problem).wall_time


def cmd_bench(config: dict, args) -> list[list[str]]:
    grid = _nu_grid(config)
    dense_cap = int(config.get("dense_max_nu", DEFAULT_DENSE_MAX_NU))
    rows = []
    for nu in grid:  # timing runs stay sequential to avoid contention skew
        problem = _build_problem(config, nu=nu)
        times = [_cold_wall_time(problem) for _ in range(args.repeats)]
        rows.append([str(nu), "fast", _fmt(statistics.median(times))])
        if nu <= dense_cap and dense_within_guard(problem):
            times = [dense_levin_solve(problem).wall_time for _ in range(args.repeats)]
            rows.append([str(nu), "dense", _fmt(statistics.median(times))])
    return rows


BENCH_HEADER = ["nu", "method", "wall_seconds"]


def cmd_condition(config: dict, args) -> list[list[str]]:
    grid = _nu_grid(config)
    full_cap = int(config.get("cond_max_nu", DEFAULT_COND_MAX_NU))
    rows = []
    for nu in grid:
        problem = _build_problem(config, nu=nu)
        engine = CollocationEngine(problem.system, nu, problem.s)
        cond_banded = banded_condest(engine.interior_band())
        cond_border = dense_condest(engine.border)
        if nu <= full_cap and dense_within_guard(problem):
            a, _ = dense_collocation_matrix(problem)
            cond_full = dense_condest(a)
        else:
            cond_full = float("nan")
        rows.append([str(nu), _fmt(cond_full), _fmt(cond_banded), _fmt(cond_border)])
    return rows


CONDITION_HEADER = ["nu", "cond_full", "cond_banded", "cond_border"]


def cmd_plotdata(config: dict, args) -> list[list[str]]:
    """Reorganize previously emitted CSVs into one per-figure wide table.

    Config: {"figure": <name>, "inputs": [csv, ...], "labels": [tag, ...]}.
    ``error_vs_omega`` joins sweep-omega outputs on the omega column;
    ``error_vs_nu`` and ``conditioning`` pass through; ``timing`` pivots a
    bench CSV to one column per method.
    """
    figure = config.get("figure")
    inputs = config.get("inputs") or []
    labels = config.get("labels") or [f"series{i}" for i in range(len(inputs))]
    if not figure or not inputs or len(labels) != len(inputs):
        raise ConfigError("plotdata needs figure, inputs, and matching labels")
    tables = []
    for path in inputs:
        try:
            with open(path) as fh:
                rows = list(csv.reader(fh))
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        if len(rows) < 2:
            raise ConfigError(f"{path} has no data rows")
        tables.append(rows)
    if figure == "timing":
        header, body = tables[0][0], tables[0][1:]
        if header != BENCH_HEADER:
            raise ConfigError("timing figure expects a bench CSV")
        by_nu: dict[str, dict[str, str]] = {}
        methods: list[str] = []
        for nu, method, wall in body:
            by_nu.setdefault(nu, {})[method] = wall
            if method not in methods:
                methods.append(method)
        out_header = ["nu"] + [f"wall_seconds_{m}" for m in methods]
        out = [[nu] + [by_nu[nu].get(m, "nan") for m in methods]
               for nu in sorted(by_nu, key=float)]
        return [out_header] + out
    if figure in ("error_vs_nu", "conditioning"):
        return tables[0]
    if figure == "error_vs_omega":
        key = tables[0][0][0]
        merged: dict[str, list[str]] = {}
        for rows in tables:
            for row in rows[1:]:
                merged.setdefault(row[0], [])
        out_header = [key]
        for label, rows in zip(labels, tables):
            col = {row[0]: row[-1] for row in rows[1:]}
            out_header.append(f"abs_error_{label}")
            for k in merged:
                merged[k].append(col.get(k, "nan"))
        out = [[k] + v for k, v in sorted(merged.items(), key=lambda kv: float(kv[0]))]
        return [out_header] + out
    raise ConfigError(f"unknown figure {figure!r}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscillquad",
        description="Fast Levin-Clenshaw-Curtis quadrature experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "quad": {"--method": dict(default="fast", choices=["fast", "dense", "oracle"])},
        "sweep-omega": {"--method": dict(default="fast", choices=["fast", "dense"]),
                        "--parallel": dict(type=_at_least_one, default=1)},
        "sweep-nu": {"--parallel": dict(type=_at_least_one, default=1)},
        "bench": {"--repeats": dict(type=_at_least_one, default=5)},
        "condition": {},
        "plotdata": {},
    }
    for name, options in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
    return parser


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.command == "quad":
            rows, header = cmd_quad(config, args), QUAD_HEADER
        elif args.command == "sweep-omega":
            rows, header = cmd_sweep_omega(config, args), SWEEP_OMEGA_HEADER
        elif args.command == "sweep-nu":
            rows, header = cmd_sweep_nu(config, args), SWEEP_NU_HEADER
        elif args.command == "bench":
            rows, header = cmd_bench(config, args), BENCH_HEADER
        elif args.command == "condition":
            rows, header = cmd_condition(config, args), CONDITION_HEADER
        else:
            table = cmd_plotdata(config, args)
            rows, header = table[1:], table[0]
    except (SingularMatrixError, UnsolvableProblemError) as exc:
        print(f"oscillquad: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ConfigError, ValueError, KeyError) as exc:
        print(f"oscillquad: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _write_csv(args.out, header, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
