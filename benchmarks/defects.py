"""Known wrong answers of today's library, each checked against its reference.

    python3 benchmarks/defects.py

The timed workloads draw only where every answer is within the benchmark's
tolerance (see ``workloads.py``), so that their failure count is zero and
stays comparable between runs.  This script runs the wrong answers found
outside that region once each, with the same reference check, and prints
for each whether it still fails.  None of them is flagged by the library's
residual check.  Run from the repository root; exits 0 and prints one
JSON summary as its last line.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from workloads import TOLERANCE, Op, run_op  # noqa: E402

I1 = ("exponential", (0.0, 1.0), 0, 0.0)
I2 = ("bessel", (), 1, 2.0)

#: (what is wrong, operation) for every known defect.
CASES = (
    ("s=1 with omega above nu (I1)", Op(*I1, 1e4, 8192, 1, "rational_runge", "defect")),
    ("s=1 with omega above nu (I2)", Op(*I2, 1e4, 8192, 1, "rational_runge", "defect")),
    ("s=2 at high omega (I1)", Op(*I1, 1e4, 8192, 2, "rational_runge", "defect")),
    ("s=2 at high omega (I2)", Op(*I2, 1e4, 8192, 2, "rational_runge", "defect")),
    ("s=2 at omega 1000, nu 1024 (I1)", Op(*I1, 1e3, 1024, 2, "rational_runge", "defect")),
    ("s=2 at omega 1000, nu 1024 (I2)", Op(*I2, 1e3, 1024, 2, "rational_runge", "defect")),
    ("s=2 at nu 32768 raises (I2)", Op(*I2, 1e3, 32768, 2, "rational_runge", "defect")),
    ("registry manufactured:34 samples", Op(*I1, 500.0, 512, 0, "manufactured:34", "defect")),
    ("registry manufactured:40, dense fallback",
     Op(*I2, 500.0, 1024, 0, "manufactured:40", "defect")),
    ("rational_runge unresolved at nu 32, not flagged",
     Op(*I1, 300.0, 32, 0, "rational_runge", "defect")),
)


def check(op: Op) -> dict:
    """Run one case untimed; its verdict and relative error against the reference."""
    import oracle
    import run

    try:
        result = run_op(op)
        outcome = run.Outcome(result.value, result.path)
    except Exception as exc:  # a raising case is one of the defects
        outcome = run.Outcome(error=type(exc).__name__)
    try:
        ref = oracle.reference_value(op)
    except oracle.ReferenceNotConverged:
        ref = None
    verdict, rel = run.classify(outcome, ref, TOLERANCE)
    return {"verdict": verdict, "rel_err": rel, "path": outcome.path or outcome.error}


def main() -> int:
    from run import MEMORY_CAP_MB

    cap = MEMORY_CAP_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    failing = 0
    for what, op in CASES:
        got = check(op)
        failing += got["verdict"] not in ("ok", "unchecked")
        rel = "-" if got["rel_err"] is None else f"{got['rel_err']:.2e}"
        print(f"  {got['verdict']:<11} rel_err {rel:<9} {got['path']:<22} {what}: "
              f"{op.family} omega={op.omega:g} nu={op.nu} s={op.s} {op.amplitude}")
    print(json.dumps({"cases": len(CASES), "failing": failing, "tolerance": TOLERANCE}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
