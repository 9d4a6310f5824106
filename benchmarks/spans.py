"""Span recorder installed from the benchmark's own files.

Each span is recorded around a call into one layer's public functions and
methods.  The recorder replaces module attributes and class methods at
run time, at the names ``levin.py`` resolves them through, and puts the
originals back afterwards; no library source is edited.  Spans stay in
memory and are written out when the run ends.

Layer metrics, and the end-to-end metric each should move (on the
workload where it should move; little or none on the one in brackets):

* levin.engine_*: quad_per_s on batch_rhs and large_nu (reuse and builds
  per key: none on sweep)
* levin.solve_cleared_*, levin.residual_s, levin.quadrature_self_s:
  latency_p50_ms on large_nu and batch_rhs
* chebyshev.operator_s, fold_s, submatrix_s, grid_s: latency_p50_ms on
  large_nu (little on sweep)
* chebyshev.dct_*: latency_tail_ms on large_nu s >= 1 and batch_rhs
* banded.factor_*, band_bytes_computed, reorder_s: latency_p50_ms on
  large_nu M = 2
* banded.solve_*, dense_solve_s, singular_raises: latency_p50_ms and
  fallback_frac on batch_rhs and sweep
* oscillator.build_*, amplitudes.*: latency_p50_ms on sweep (none on batch_rhs)
* reference.dense_*, levin.flagged_calls, levin.unsupported_raises:
  latency_tail_ms and fallback_frac on sweep (none on large_nu)
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


def _length(args, kwargs, result):
    return len(args[0])


def _columns(args, kwargs, result):
    b = args[1]
    return 1 if getattr(b, "ndim", 1) == 1 else b.shape[1]


def _band_bytes(args, kwargs, result):
    """LU band storage gbtrf works on: (2 kl + ku + 1) x n complex entries."""
    a = args[0]
    return (2 * a.lower_bw + a.upper_bw + 1) * a.n * 16


def _flagged(args, kwargs, result):
    return int(result.flagged)


def _points(args, kwargs, result):
    return getattr(args[1], "size", 1)


def _engine_key(args, kwargs, result):
    engine = args[0]
    return json.dumps([engine.system.config, engine.nu, engine.s], sort_keys=True)


def instrumented_targets():
    """(owner, attribute, span name, work function) for every traced call."""
    from oscillquad import amplitudes, chebyshev, levin, oscillator, reference

    return [
        (levin, "quadrature", "levin.quadrature", None),
        (levin, "_solve_fast", "levin.fast_solve", _flagged),
        (levin.CollocationEngine, "__init__", "levin.engine", _engine_key),
        (levin.CollocationEngine, "solve_cleared", "levin.solve_cleared", None),
        (levin.CollocationEngine, "residual", "levin.residual", None),
        (levin, "build_banded_operator", "chebyshev.operator", None),
        (levin, "fold_operator", "chebyshev.fold", None),
        (levin, "fold_chebyshev_tail", "chebyshev.fold", None),
        (chebyshev.BandedMatrix, "principal_submatrix", "chebyshev.submatrix", None),
        (levin, "clenshaw_curtis_points", "chebyshev.grid", None),
        (levin, "apply_inverse_collocation", "chebyshev.dct", _length),
        (levin, "apply_collocation_matrix", "chebyshev.dct", _length),
        (levin, "banded_lu_factor", "banded.factor", _band_bytes),
        (levin, "reorder_block_banded", "banded.reorder", None),
        (levin, "banded_solve", "banded.solve", _columns),
        (levin, "dense_solve", "banded.dense_solve", None),
        (reference, "dense_levin_solve", "reference.dense", None),
        (oscillator, "make_exponential", "oscillator.build", None),
        (oscillator, "make_bessel", "oscillator.build", None),
        (amplitudes, "make_amplitude", "amplitudes.build", None),
        (amplitudes, "rational_amplitude", "amplitudes.build", None),
        (oscillator.AmplitudeSpec, "values", "amplitudes.eval", _points),
    ]


class Tracer:
    """In-memory spans: (name, start, end, parent index, op id, error, work)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []
        self.op_id = -1

    def span(self, name: str, fn, work, /, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``work``, if given, maps (args, kwargs, result) to the amount of work
        the call did, recorded with the span.
        """
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        error = None
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            amount = work(args, kwargs, result) if work and error is None else None
            self.spans[index] = (name, start, end, parent, self.op_id, error, amount)

    def install(self):
        for owner, attr, name, work in instrumented_targets():
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))

            def wrapper(*args, _fn=original, _name=name, _work=work, **kwargs):
                return self.span(_name, _fn, _work, *args, **kwargs)

            setattr(owner, attr, functools.wraps(original)(wrapper))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    def write(self, path):
        keys = ("name", "start", "end", "parent", "op", "error", "work")
        with open(path, "w") as fh:
            json.dump({"fields": keys, "spans": self.spans}, fh, separators=(",", ":"))


#: Span names that get a busy-time metric, ``<name>_s``.
TIMED = ("levin.engine", "levin.solve_cleared", "levin.residual", "levin.quadrature",
         "chebyshev.operator", "chebyshev.fold", "chebyshev.submatrix", "chebyshev.grid",
         "chebyshev.dct", "banded.factor", "banded.reorder", "banded.solve",
         "banded.dense_solve", "reference.dense", "oscillator.build", "amplitudes.build",
         "amplitudes.eval")

#: Spans with traced children report a self time too.
WITH_SELF = ("levin.engine", "levin.solve_cleared", "levin.residual",
             "levin.quadrature", "reference.dense")


def layer_metrics(spans, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation busy time, self time, counts and failures by layer.

    A span nested inside a span of the same name (a traced function calling
    another traced function of its own layer) is part of the outer one and
    is not counted again.  Self time is a span's duration minus the time
    its direct child spans cover.
    """
    busy = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(float)
    errors = defaultdict(int)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op, _err, _work in spans:
        if parent >= 0:
            child_time[parent] += end - start
    engine_keys = []
    for index, (name, start, end, parent, _op, error, amount) in enumerate(spans):
        ancestor = parent
        nested = False
        while ancestor >= 0:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][3]
        if nested:
            continue
        busy[name] += end - start
        self_time[name] += end - start - child_time[index]
        calls[name] += 1
        if error is not None:
            errors[(name, error)] += 1
        if name == "levin.engine":
            if amount is not None:
                engine_keys.append(amount)
        elif amount is not None:
            work[name] += amount
    per_op = 1.0 / max(n_ops, 1)
    out: dict[str, tuple[float, str]] = {}
    for name in TIMED:
        out[f"{name}_s"] = (busy[name] * per_op, "s/op")
        if name in WITH_SELF:
            out[f"{name}_self_s"] = (self_time[name] * per_op, "s/op")
    out["levin.engine_calls"] = (calls["levin.engine"] * per_op, "calls/op")
    out["levin.engine_reuse_frac"] = (
        (len(engine_keys) - len(set(engine_keys))) / max(len(engine_keys), 1), "fraction")
    out["levin.engine_builds_per_key"] = (
        len(engine_keys) / max(len(set(engine_keys)), 1), "builds/key")
    out["levin.solve_cleared_calls"] = (calls["levin.solve_cleared"] * per_op, "calls/op")
    out["levin.flagged_calls"] = (work["levin.fast_solve"] * per_op, "calls/op")
    out["levin.unsupported_raises"] = (
        errors[("levin.engine", "UnsupportedRegimeError")] * per_op, "raises/op")
    out["chebyshev.dct_calls"] = (calls["chebyshev.dct"] * per_op, "calls/op")
    out["chebyshev.dct_points"] = (work["chebyshev.dct"] * per_op, "points/op")
    out["banded.factor_calls"] = (calls["banded.factor"] * per_op, "calls/op")
    out["banded.band_bytes_computed"] = (work["banded.factor"] * per_op, "B/op")
    out["banded.solve_calls"] = (calls["banded.solve"] * per_op, "calls/op")
    out["banded.solve_cols"] = (work["banded.solve"] * per_op, "cols/op")
    out["banded.singular_raises"] = (
        sum(v for (name, err), v in errors.items()
            if name.startswith("banded.") and err == "SingularMatrixError") * per_op,
        "raises/op")
    out["oscillator.build_calls"] = (calls["oscillator.build"] * per_op, "calls/op")
    out["amplitudes.eval_points"] = (work["amplitudes.eval"] * per_op, "points/op")
    out["reference.dense_calls"] = (calls["reference.dense"] * per_op, "calls/op")
    return out
