"""Self-tests for the benchmark: python3 -m pytest benchmarks"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import defects  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

END_TO_END = ("quad_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s",
              "peak_rss_mb", "failed_frac", "fallback_frac", "rel_err_p50")


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit_and_fails_nothing(workload, trace):
    done = _bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    spec = run.metric_spec("per_layer" if trace == "1" else "end_to_end")
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    report = "\n".join(lines[:-1])
    for name in END_TO_END:
        assert f"  {name} " in report
    for m in spec:
        assert f"{m['name']} " in report and f" {m['unit']}" in report


def test_perturbed_answer_counts_as_failed():
    op = workloads.Op("exponential", (0.0, 1.0), 0, 0.0, 1000.0, 512, 0, "cos", "test")
    result = workloads.run_op(op)
    ref = oracle.reference_value(op)
    good = run.Outcome(result.value, result.path)
    bad = run.Outcome(result.value * (1 + 1e-3), result.path)
    metrics, failed, unchecked, _ = run.summarize(
        [op, op], [0.01, 0.01], [good, bad], [ref, ref], [(2, 0.02, 1.0)], workloads.TOLERANCE)
    assert (failed, unchecked) == (1, 0)
    assert metrics["failed_frac"]["value"] == 0.5


def test_unconverged_oracle_node_count_is_rejected():
    op = workloads.Op("bessel", (), 1, 2.0, 1000.0, 512, 0, "rational_runge", "test")
    system = workloads.build_system(op)
    amplitude = workloads.build_amplitude(op, system)
    with pytest.raises(oracle.ReferenceNotConverged):
        oracle.checked_oracle(system, amplitude, 256)
    value, err = oracle.checked_oracle(system, amplitude, oracle.first_node_count(op))
    assert err <= oracle.REF_RTOL * abs(value)


@pytest.mark.parametrize("what", [
    "s=2 at omega 1000, nu 1024 (I1)", "s=2 at omega 1000, nu 1024 (I2)",
    "registry manufactured:34 samples", "rational_runge unresolved at nu 32, not flagged"])
def test_known_defect_is_counted_as_failed(what):
    op = dict(defects.CASES)[what]
    assert defects.check(op)["verdict"] in ("inaccurate", "raised", "non_finite")


def test_same_seed_gives_same_inputs():
    first = [next(workloads.blocks(w, 5)) for w in workloads.WORKLOADS]
    again = [next(workloads.blocks(w, 5)) for w in workloads.WORKLOADS]
    assert first == again
    assert first[0] != next(workloads.blocks("sweep", 6))


def test_without_library_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
