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
import contextlib
import csv
import json
import operator
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple

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
    out = open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)
    with out as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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


SOLVERS = {"fast": quadrature, "dense": dense_levin_solve}


def _map_maybe_parallel(fn, items, workers: int):
    if workers <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_quad(config: dict, args) -> list[list[str]]:
    problem = _build_problem(config)
    if args.method == "oracle":
        t0 = time.perf_counter()
        value = oracle_value(problem.system, problem.amplitude)
        residual, wall = float("nan"), time.perf_counter() - t0
    else:
        result = SOLVERS[args.method](problem)
        value, residual, wall = result.value, result.residual, result.wall_time
    return [[args.method, _fmt(problem.system.omega), str(problem.nu), str(problem.s),
             _fmt(value.real), _fmt(value.imag), _fmt(residual), _fmt(wall)]]


def cmd_sweep_omega(config: dict, args) -> list[list[str]]:
    grid = _omega_grid(config)

    def run(omega: float):
        problem = _build_problem(config, omega=omega)
        result = SOLVERS[args.method](problem)
        exact = oracle_value(problem.system, problem.amplitude)
        return [_fmt(omega), str(problem.nu), _fmt(abs(result.value - exact))]

    return _map_maybe_parallel(run, list(grid), args.parallel)


def cmd_sweep_nu(config: dict, args) -> list[list[str]]:
    grid = _nu_grid(config)
    base = _build_problem(config, nu=grid[0])
    exact = oracle_value(base.system, base.amplitude)

    def run(nu: int):
        problem = _build_problem(config, nu=nu)
        fast = quadrature(problem)
        dense = (dense_levin_solve(problem).wall_time if dense_within_guard(problem)
                 else float("nan"))
        return [str(nu), _fmt(abs(fast.value - exact)), _fmt(fast.wall_time), _fmt(dense)]

    return _map_maybe_parallel(run, grid, args.parallel)


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
                rows = [row for row in csv.reader(fh) if row]  # blank lines skipped
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        if len(rows) < 2:
            raise ConfigError(f"{path} has no data rows")
        tables.append(rows)
    if figure in ("error_vs_nu", "conditioning"):
        return tables[0]
    if figure == "timing":
        header, *body = tables[0]
        if header != COMMANDS["bench"].header:
            raise ConfigError("timing figure expects a bench CSV")
        walls = {(nu, method): wall for nu, method, wall in body}
        methods = list(dict.fromkeys(method for _, method in walls))
        nus = sorted(dict.fromkeys(nu for nu, _ in walls), key=float)
        return [["nu"] + [f"wall_seconds_{m}" for m in methods]] + [
            [nu] + [walls.get((nu, m), "nan") for m in methods] for nu in nus]
    if figure == "error_vs_omega":
        columns = [{row[0]: row[-1] for row in rows[1:]} for rows in tables]
        keys = sorted(dict.fromkeys(k for col in columns for k in col), key=float)
        return [[tables[0][0][0]] + [f"abs_error_{label}" for label in labels]] + [
            [k] + [col.get(k, "nan") for col in columns] for k in keys]
    raise ConfigError(f"unknown figure {figure!r}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class Command(NamedTuple):
    run: Callable[[dict, argparse.Namespace], list[list[str]]]
    header: list[str] | None  # None: the first row ``run`` returns is the header
    options: dict[str, dict]


_PARALLEL = {"--parallel": dict(type=_at_least_one, default=1)}

COMMANDS = {
    "quad": Command(cmd_quad, ["method", "omega", "nu", "s", "value_re", "value_im",
                               "residual", "wall_seconds"],
                    {"--method": dict(default="fast", choices=[*SOLVERS, "oracle"])}),
    "sweep-omega": Command(cmd_sweep_omega, ["omega", "nu", "abs_error"],
                           {"--method": dict(default="fast", choices=list(SOLVERS)),
                            **_PARALLEL}),
    "sweep-nu": Command(cmd_sweep_nu, ["nu", "abs_error", "wall_seconds_fast",
                                       "wall_seconds_dense"], _PARALLEL),
    "bench": Command(cmd_bench, ["nu", "method", "wall_seconds"],
                     {"--repeats": dict(type=_at_least_one, default=5)}),
    "condition": Command(cmd_condition, ["nu", "cond_full", "cond_banded", "cond_border"], {}),
    "plotdata": Command(cmd_plotdata, None, {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscillquad",
        description="Fast Levin-Clenshaw-Curtis quadrature experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        for flag, kwargs in command.options.items():
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        rows = command.run(_load_config(args.config), args)
    except (SingularMatrixError, UnsolvableProblemError) as exc:
        print(f"oscillquad: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ConfigError, ValueError, KeyError) as exc:
        print(f"oscillquad: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    header = command.header
    if header is None:
        header, *rows = rows
    try:
        _write_csv(args.out, header, rows)
    except OSError as exc:
        print(f"oscillquad: config error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return 0


if __name__ == "__main__":
    sys.exit(main())
