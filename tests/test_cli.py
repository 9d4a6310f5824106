"""CLI contract: CSV schemas, exit codes, experiment commands."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from oscillquad.cli import main

from conftest import fit_loglog_slope


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {"type": "exponential", "g": [0.0, 1.0], "omega": 100.0,
           "amplitude": "rational_runge", "nu": 64, "s": 0}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run_cli(args, capsys=None, out_path=None):
    code = main([str(a) for a in args])
    if out_path is not None:
        with open(out_path) as fh:
            return code, list(csv.DictReader(fh))
    if capsys is not None:
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        return code, rows
    return code, None


def test_quad_csv_schema_and_closed_form(tmp_path, capsys):
    cfg = write_config(tmp_path, amplitude="one", nu=32)
    code, rows = run_cli(["quad", "--config", cfg], capsys=capsys)
    assert code == 0
    assert list(rows[0].keys()) == ["method", "omega", "nu", "s", "value_re",
                                    "value_im", "residual", "wall_seconds"]
    row = rows[0]
    assert row["method"] == "fast"
    expected = 2 * np.sin(100.0) / 100.0
    assert float(row["value_re"]) == pytest.approx(expected, abs=1e-10)
    assert abs(float(row["value_im"])) <= 1e-10
    assert float(row["residual"]) >= 0.0
    assert float(row["wall_seconds"]) > 0.0


def test_quad_fast_matches_oracle_row(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OSCILLQUAD_ORACLE_POINTS", "200000")
    cfg = write_config(tmp_path, nu=128)
    _, fast_rows = run_cli(["quad", "--config", cfg, "--method", "fast"],
                           capsys=capsys)
    _, oracle_rows = run_cli(["quad", "--config", cfg, "--method", "oracle"],
                             capsys=capsys)
    f = complex(float(fast_rows[0]["value_re"]), float(fast_rows[0]["value_im"]))
    o = complex(float(oracle_rows[0]["value_re"]), float(oracle_rows[0]["value_im"]))
    assert abs(f - o) <= 1e-8


def test_quad_manufactured_amplitude_closed_form(tmp_path, capsys):
    from oscillquad.amplitudes import manufactured_expected_value
    from oscillquad.oscillator import make_exponential

    cfg = write_config(tmp_path, amplitude="manufactured:3", nu=32)
    code, rows = run_cli(["quad", "--config", cfg], capsys=capsys)
    assert code == 0
    expected = manufactured_expected_value(make_exponential([0.0, 1.0], 100.0), 3)
    got = complex(float(rows[0]["value_re"]), float(rows[0]["value_im"]))
    assert abs(got - expected) <= 1e-9 * (1 + abs(expected))


def test_registry_amplitudes_match_oracle(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OSCILLQUAD_ORACLE_POINTS", "100000")
    for amplitude in ("one", "cos", "rational_runge", "manufactured:5"):
        cfg = write_config(tmp_path, amplitude=amplitude, nu=128)
        _, fast_rows = run_cli(["quad", "--config", cfg], capsys=capsys)
        _, oracle_rows = run_cli(["quad", "--config", cfg, "--method", "oracle"],
                                 capsys=capsys)
        f = complex(float(fast_rows[0]["value_re"]), float(fast_rows[0]["value_im"]))
        o = complex(float(oracle_rows[0]["value_re"]), float(oracle_rows[0]["value_im"]))
        assert abs(f - o) <= 1e-7, amplitude


def test_quad_bessel_dense_method(tmp_path, capsys):
    cfg = write_config(tmp_path, type="bessel", gamma=1, a=2.0, nu=32)
    cfg_data = json.loads(cfg.read_text())
    cfg_data.pop("g")
    cfg.write_text(json.dumps(cfg_data))
    code, rows = run_cli(["quad", "--config", cfg, "--method", "dense"],
                         capsys=capsys)
    assert code == 0
    assert rows[0]["method"] == "dense"


def test_config_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, amplitude="not-a-thing")
    assert main(["quad", "--config", str(cfg)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["quad", "--config", str(missing)]) == 2


GRID_CONFIG = {"type": "exponential", "g": [0.0, 1.0], "omega": 100.0, "nu_grid": [8]}


@pytest.mark.parametrize("command,config", [
    ("quad", [1, 2]),
    ("quad", {"type": "exponential", "g": 5, "omega": 100.0, "nu": 64}),
    ("quad", {"type": "bessel", "gamma": 1, "a": [2], "omega": 100.0, "nu": 64}),
    ("quad", {"type": "custom", "r": [1.0], "rG": 5, "w_plus": [[1.0, 0.0]],
              "w_minus": [[1.0, 0.0]], "omega": 100.0, "nu": 64}),
    ("quad", {"type": "exponential", "g": [0.0, 1.0], "omega": 100.0, "nu": 64,
              "amplitude": 5}),
    ("bench", {**GRID_CONFIG, "dense_max_nu": [1]}),
    ("condition", {**GRID_CONFIG, "cond_max_nu": {"nu": 1}}),
    ("plotdata", {"figure": "timing", "inputs": 5}),
    ("plotdata", {"figure": "timing", "inputs": [5]}),
    ("plotdata", {"figure": "timing", "inputs": ["a.csv"], "labels": 5}),
], ids=["list", "g-number", "a-list", "rG-number", "amplitude-number",
        "bench-dense_max_nu-list", "condition-cond_max_nu-object", "plotdata-inputs-number",
        "plotdata-input-number", "plotdata-labels-number"])
def test_a_config_value_of_the_wrong_json_type_is_a_config_error(tmp_path, capsys, command,
                                                                 config):
    # each once ended in a traceback and exit 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("oscillquad: config error: ")


def test_an_output_path_that_cannot_be_opened_is_a_usage_error(tmp_path, capsys):
    # once a FileNotFoundError traceback and exit 1, after all the work
    cfg = write_config(tmp_path)
    out = tmp_path / "no-such-dir" / "out.csv"
    assert main(["quad", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config error: cannot write {out}" in capsys.readouterr().err


def test_sweep_omega_csv_and_decay(tmp_path, monkeypatch):
    monkeypatch.setenv("OSCILLQUAD_ORACLE_POINTS", "200000")
    cfg = write_config(tmp_path, nu=4,
                       omega_grid={"log10_from": 2, "log10_to": 4, "points": 5})
    out = tmp_path / "sweep.csv"
    code, rows = run_cli(["sweep-omega", "--config", cfg, "--out", out],
                         out_path=out)
    assert code == 0
    assert list(rows[0].keys()) == ["omega", "nu", "abs_error"]
    omegas = [float(r["omega"]) for r in rows]
    errors = [float(r["abs_error"]) for r in rows]
    assert fit_loglog_slope(omegas, errors) <= -1.5


def test_sweep_omega_parallel_deterministic(tmp_path, monkeypatch):
    monkeypatch.setenv("OSCILLQUAD_ORACLE_POINTS", "50000")
    cfg = write_config(tmp_path, nu=8,
                       omega_grid={"log10_from": 2, "log10_to": 3, "points": 4})
    out1 = tmp_path / "serial.csv"
    out2 = tmp_path / "parallel.csv"
    run_cli(["sweep-omega", "--config", cfg, "--out", out1], out_path=out1)
    run_cli(["sweep-omega", "--config", cfg, "--out", out2, "--parallel", 3],
            out_path=out2)
    assert out1.read_text() == out2.read_text()


def test_sweep_omega_requires_grid(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["sweep-omega", "--config", str(cfg)]) == 2
    cfg2 = write_config(tmp_path, name="cfg2.json",
                        omega_grid={"log10_from": 1, "log10_to": 2, "points": 0})
    assert main(["sweep-omega", "--config", str(cfg2)]) == 2


def test_sweep_nu_csv_and_spectral_decay(tmp_path, monkeypatch):
    monkeypatch.setenv("OSCILLQUAD_ORACLE_POINTS", "200000")
    cfg = write_config(tmp_path, nu_grid=[16, 64, 128])
    out = tmp_path / "nu.csv"
    code, rows = run_cli(["sweep-nu", "--config", cfg, "--out", out], out_path=out)
    assert code == 0
    assert list(rows[0].keys()) == ["nu", "abs_error", "wall_seconds_fast",
                                    "wall_seconds_dense"]
    errs = {int(r["nu"]): float(r["abs_error"]) for r in rows}
    assert errs[64] < errs[16]
    assert errs[128] <= 1e-9


def test_sweep_nu_rejects_odd(tmp_path):
    cfg = write_config(tmp_path, nu_grid=[16, 17])
    assert main(["sweep-nu", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("fields", [{"nu": 64.9}, {"s": 1.5}, {"nu": 64.9, "s": 1.5},
                                    {"s": True}])
def test_quad_refuses_a_fractional_nu_or_s(tmp_path, capsys, fields):
    # int() once truncated these to nu 64, s 1 and exited 0, and true ran as s 1
    cfg = write_config(tmp_path, amplitude="cos", **fields)
    assert main(["quad", "--config", str(cfg)]) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_sweep_nu_refuses_a_fractional_entry(tmp_path, capsys):
    cfg = write_config(tmp_path, nu_grid=[16, 32.5])
    assert main(["sweep-nu", "--config", str(cfg)]) == 2
    assert "nu_grid entries must be integers" in capsys.readouterr().err


def test_bench_accepts_single_repeat(tmp_path):
    cfg = write_config(tmp_path, nu_grid=[16, 32])
    out = tmp_path / "bench.csv"
    code, rows = run_cli(["bench", "--config", cfg, "--out", out,
                          "--repeats", 1], out_path=out)
    assert code == 0
    assert list(rows[0].keys()) == ["nu", "method", "wall_seconds"]
    methods = {(int(r["nu"]), r["method"]) for r in rows}
    assert methods == {(16, "fast"), (16, "dense"), (32, "fast"), (32, "dense")}
    assert all(float(r["wall_seconds"]) > 0 for r in rows)


@pytest.mark.parametrize("command,option", [
    ("sweep-nu", ["--method", "dense"]),
    ("condition", ["--repeats", "9"]),
    ("sweep-omega", ["--method", "oracle"]),
    ("bench", ["--repeats", "0"]),
    ("sweep-nu", ["--parallel", "0"]),
])
def test_an_option_the_command_does_not_take_is_a_usage_error(tmp_path, monkeypatch,
                                                               command, option):
    monkeypatch.setenv("OSCILLQUAD_ORACLE_POINTS", "20000")
    cfg = write_config(tmp_path, nu_grid=[16, 32],
                       omega_grid={"log10_from": 1, "log10_to": 1.5, "points": 2})
    with pytest.raises(SystemExit) as info:
        main([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")] + option)
    assert info.value.code == 2


def test_condition_sanity(tmp_path):
    cfg = write_config(tmp_path, nu_grid=[16])
    out = tmp_path / "cond.csv"
    code, rows = run_cli(["condition", "--config", cfg, "--out", out], out_path=out)
    assert code == 0
    row = rows[0]
    assert list(row.keys()) == ["nu", "cond_full", "cond_banded", "cond_border"]
    for key in ("cond_full", "cond_banded", "cond_border"):
        val = float(row[key])
        assert np.isfinite(val) and val >= 1.0


def test_sweep_nu_bessel_decay(tmp_path, monkeypatch):
    monkeypatch.setenv("OSCILLQUAD_ORACLE_POINTS", "200000")
    cfg = write_config(tmp_path, type="bessel", gamma=1, a=2.0, nu_grid=[16, 128])
    cfg_data = json.loads(cfg.read_text())
    cfg_data.pop("g")
    cfg.write_text(json.dumps(cfg_data))
    out = tmp_path / "nu2.csv"
    code, rows = run_cli(["sweep-nu", "--config", cfg, "--out", out], out_path=out)
    assert code == 0
    errs = {int(r["nu"]): float(r["abs_error"]) for r in rows}
    assert errs[128] < errs[16]
    assert errs[128] <= 1e-7


def test_custom_oscillator_with_zero_omega_is_config_error(tmp_path):
    cfg = tmp_path / "custom.json"
    cfg.write_text(json.dumps({
        "type": "custom", "r": [1.0], "rG": [[[0.0, [0.0, 100.0]]]],
        "w_plus": [[1.0, 0.0]], "w_minus": [[1.0, 0.0]], "omega": 0.0,
        "amplitude": "one", "nu": 16, "s": 0}))
    assert main(["quad", "--config", str(cfg)]) == 2


def test_custom_oscillator_sweep_rejected(tmp_path):
    cfg = tmp_path / "custom.json"
    cfg.write_text(json.dumps({
        "type": "custom", "r": [1.0], "rG": [[[0.0, [0.0, 100.0]]]],
        "w_plus": [[1.0, 0.0]], "w_minus": [[1.0, 0.0]], "omega": 100.0,
        "amplitude": "one", "nu": 16, "s": 0,
        "omega_grid": {"log10_from": 1, "log10_to": 2, "points": 3}}))
    assert main(["sweep-omega", "--config", str(cfg)]) == 2


def test_oracle_method_on_custom_oscillator_is_config_error(tmp_path):
    # interior weight values are unknown for custom systems
    cfg = tmp_path / "custom.json"
    cfg.write_text(json.dumps({
        "type": "custom", "r": [1.0], "rG": [[[0.0, [0.0, 100.0]]]],
        "w_plus": [[1.0, 0.0]], "w_minus": [[1.0, 0.0]], "omega": 100.0,
        "amplitude": "one", "nu": 16, "s": 0}))
    assert main(["quad", "--config", str(cfg), "--method", "oracle"]) == 2


def test_solver_failure_exit_code(tmp_path):
    # L = d/dx alone: the constant column is identically zero, so both the
    # fast bordering system and the dense system are exactly singular
    cfg = tmp_path / "singular.json"
    cfg.write_text(json.dumps({
        "type": "custom", "r": [1.0], "rG": [[[0.0]]],
        "w_plus": [[1.0, 0.0]], "w_minus": [[1.0, 0.0]], "omega": 100.0,
        "amplitude": "one", "nu": 16, "s": 0}))
    assert main(["quad", "--config", str(cfg)]) == 3


def test_bench_dense_cap(tmp_path):
    cfg = write_config(tmp_path, nu_grid=[16, 32], dense_max_nu=16)
    out = tmp_path / "bench.csv"
    code, rows = run_cli(["bench", "--config", cfg, "--out", out,
                          "--repeats", 1], out_path=out)
    assert code == 0
    methods = {(int(r["nu"]), r["method"]) for r in rows}
    assert methods == {(16, "fast"), (16, "dense"), (32, "fast")}


def bessel_config(tmp_path, **overrides):
    cfg = write_config(tmp_path, type="bessel", gamma=1, a=2.0, **overrides)
    cfg_data = json.loads(cfg.read_text())
    cfg_data.pop("g")
    cfg.write_text(json.dumps(cfg_data))
    return cfg


def test_bench_skips_the_dense_row_over_the_memory_guard(tmp_path):
    # M = 2 at nu 4096 is under the nu cap, but its dense system (order
    # 8196, 1025 MiB) is over the guard: the fast row is still written
    cfg = bessel_config(tmp_path, nu_grid=[4096])
    out = tmp_path / "bench.csv"
    code, rows = run_cli(["bench", "--config", cfg, "--out", out,
                          "--repeats", 1], out_path=out)
    assert code == 0
    assert {(int(r["nu"]), r["method"]) for r in rows} == {(4096, "fast")}


def test_condition_writes_nan_over_the_memory_guard(tmp_path):
    cfg = bessel_config(tmp_path, nu_grid=[3000], cond_max_nu=3000)
    out = tmp_path / "cond.csv"
    code, rows = run_cli(["condition", "--config", cfg, "--out", out], out_path=out)
    assert code == 0
    assert np.isnan(float(rows[0]["cond_full"]))
    assert np.isfinite(float(rows[0]["cond_banded"]))


def test_sweep_nu_writes_nan_for_the_dense_time_over_the_memory_guard(tmp_path, monkeypatch):
    # the Bessel dense system at nu 3000 (order 6004) is over the guard;
    # sweep-nu once called the dense solver anyway and exited 2 with no rows
    monkeypatch.setenv("OSCILLQUAD_ORACLE_POINTS", "20000")
    cfg = bessel_config(tmp_path, nu_grid=[64, 3000])
    out = tmp_path / "nu.csv"
    code, rows = run_cli(["sweep-nu", "--config", cfg, "--out", out], out_path=out)
    assert code == 0
    assert [int(r["nu"]) for r in rows] == [64, 3000]
    assert 0.0 < float(rows[0]["wall_seconds_dense"]) < np.inf
    assert np.isnan(float(rows[1]["wall_seconds_dense"]))
    assert all(float(r["wall_seconds_fast"]) > 0.0 for r in rows)


@pytest.mark.parametrize("command,options,header", [
    ("quad", [], ["method", "omega", "nu", "s", "value_re", "value_im", "residual",
                  "wall_seconds"]),
    ("sweep-omega", [], ["omega", "nu", "abs_error"]),
    ("sweep-nu", [], ["nu", "abs_error", "wall_seconds_fast", "wall_seconds_dense"]),
    ("bench", ["--repeats", "1"], ["nu", "method", "wall_seconds"]),
    ("condition", [], ["nu", "cond_full", "cond_banded", "cond_border"]),
    ("plotdata", [], ["nu", "wall_seconds_fast", "wall_seconds_dense"]),
])
def test_every_command_writes_its_header(tmp_path, monkeypatch, command, options, header):
    monkeypatch.setenv("OSCILLQUAD_ORACLE_POINTS", "20000")
    if command == "plotdata":
        bench = tmp_path / "bench.csv"
        bench.write_text("nu,method,wall_seconds\n16,fast,0.1\n16,dense,0.2\n")
        cfg = tmp_path / "fig.json"
        cfg.write_text(json.dumps({"figure": "timing", "inputs": [str(bench)]}))
    else:
        cfg = write_config(tmp_path, nu=16, nu_grid=[16],
                           omega_grid={"log10_from": 1, "log10_to": 1, "points": 1})
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)] + options) == 0
    with open(out, newline="") as fh:
        assert next(csv.reader(fh)) == header


def test_plotdata_merges_omega_sweeps(tmp_path, monkeypatch):
    monkeypatch.setenv("OSCILLQUAD_ORACLE_POINTS", "50000")
    inputs = []
    for nu in (4, 8):
        cfg = write_config(tmp_path, name=f"cfg{nu}.json", nu=nu,
                           omega_grid={"log10_from": 2, "log10_to": 3, "points": 3})
        out = tmp_path / f"sweep{nu}.csv"
        run_cli(["sweep-omega", "--config", cfg, "--out", out])
        inputs.append(str(out))
    merge_cfg = tmp_path / "merge.json"
    merge_cfg.write_text(json.dumps({"figure": "error_vs_omega",
                                     "inputs": inputs, "labels": ["nu4", "nu8"]}))
    out = tmp_path / "fig.csv"
    code, rows = run_cli(["plotdata", "--config", merge_cfg, "--out", out],
                         out_path=out)
    assert code == 0
    assert list(rows[0].keys()) == ["omega", "abs_error_nu4", "abs_error_nu8"]
    assert len(rows) == 3


@pytest.mark.parametrize("figure", ["error_vs_omega", "timing"])
def test_plotdata_skips_blank_lines(tmp_path, figure):
    # a blank line in an input CSV once raised IndexError (exit 1)
    src = tmp_path / "in.csv"
    if figure == "error_vs_omega":
        src.write_text("omega,nu,abs_error\n10,16,1e-9\n\n100,16,2e-9\n\n")
        want = [{"omega": "10", "abs_error_a": "1e-9"}, {"omega": "100", "abs_error_a": "2e-9"}]
    else:
        src.write_text("nu,method,wall_seconds\n16,fast,0.1\n\n16,dense,0.2\n")
        want = [{"nu": "16", "wall_seconds_fast": "0.1", "wall_seconds_dense": "0.2"}]
    cfg = tmp_path / "fig.json"
    cfg.write_text(json.dumps({"figure": figure, "inputs": [str(src)], "labels": ["a"]}))
    out = tmp_path / "fig.csv"
    code, rows = run_cli(["plotdata", "--config", cfg, "--out", out], out_path=out)
    assert code == 0
    assert rows == want


def test_plotdata_pivots_bench(tmp_path):
    cfg = write_config(tmp_path, nu_grid=[16])
    bench_out = tmp_path / "bench.csv"
    run_cli(["bench", "--config", cfg, "--out", bench_out, "--repeats", 1])
    merge_cfg = tmp_path / "merge.json"
    merge_cfg.write_text(json.dumps({"figure": "timing",
                                     "inputs": [str(bench_out)],
                                     "labels": ["t"]}))
    out = tmp_path / "fig.csv"
    code, rows = run_cli(["plotdata", "--config", merge_cfg, "--out", out],
                         out_path=out)
    assert code == 0
    assert list(rows[0].keys()) == ["nu", "wall_seconds_fast", "wall_seconds_dense"]
