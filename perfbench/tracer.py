"""Span recorder for the traced benchmark runs.

Spans are recorded from outside the program: each hook rebinds one
module-level name of ``spinnoise`` that its callers look up at call time,
so every call through that name runs inside a span.  No program file
changes.  A span holds its name, start and end (``time.perf_counter``,
which is CLOCK_MONOTONIC and so comparable across processes), the index of
the enclosing span and a few counts taken from the call's arguments or
result.

Scan pools fork their workers from the traced process, so the hooks are
inherited.  A forked worker starts with an empty span list and appends its
spans to ``spans-<pid>.jsonl`` in the spill directory whenever its
outermost span closes; ``load_batches`` merges those files with the
spans of the process that ran the operation.
"""

from __future__ import annotations

import functools
import importlib
import json
import logging
import os
import statistics
import time
from pathlib import Path

# (module, attribute, span name, counts taken on exit).  The counts function
# gets (args, kwargs, result) and returns a dict of numbers.
HOOKS = (
    ("spinnoise.cli", "load_config", "config.load", None),
    ("spinnoise.cli", "main", "cli.main", None),
    ("spinnoise.cli", "simulate_point", "scan.simulate_point", None),
    ("spinnoise.cli", "run_scan", "scan.run_scan",
     lambda a, k, r: {"workers": k.get("n_workers", a[1] if len(a) > 1 else 1)}),
    ("spinnoise.cli", "write_scan", "scan.write_scan", None),
    ("spinnoise.cli", "write_spectrum_csv", "spectral.csv_write",
     lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    ("spinnoise.scan", "write_spectrum_csv", "spectral.csv_write",
     lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    ("spinnoise.scan", "run_point", "scan.point", None),
    ("spinnoise.scan", "steady_state", "integrator.steady_state", None),
    ("spinnoise.scan", "evolve_ensemble_coherences", "integrator.evolve",
     lambda a, k, r: {"traj_steps": len(a[2]) * a[1].n_steps, "record_bytes": r.nbytes}),
    ("spinnoise.scan", "perpendicular_field_series", "detection.field_projection", None),
    ("spinnoise.scan", "transmission", "detection.transmission", None),
    ("spinnoise.scan", "welch_psd_batch", "spectral.welch",
     lambda a, k, r: {"segments": sum(rec.n_averages for rec in r)}),
    ("spinnoise.scan", "average_spectra", "spectral.average", None),
    ("spinnoise.detection", "steady_state", "integrator.steady_state", None),
    ("spinnoise.integrator", "superoperator", "integrator.superoperator", None),
    ("spinnoise.integrator", "Propagator", "integrator.propagator_build", None),
    ("spinnoise.integrator", "_draw_noise_chunk", "noise.chunk", None),
    ("spinnoise.integrator", "sample_increment_block", "noise.draw",
     lambda a, k, r: {"variates": 9 * a[2] if a[0].sigma_sq != 0.0 else 0}),
)

# Spans that orchestrate other layers rather than doing a layer's own work;
# they are left out of the coverage share.
ORCHESTRATION = {
    "cli.main", "scan.run_scan", "scan.write_scan", "scan.simulate_point", "scan.point",
}

# Warning texts of the program's numerical guards, by counter name.
GUARD_WARNINGS = {
    "detection.transmission_clamps": ("spinnoise.detection", "clamped"),
    "integrator.aliasing_warnings": ("spinnoise.integrator", "alias"),
}


class _GuardCounter(logging.Handler):
    def __init__(self, tracer: "Tracer"):
        super().__init__(level=logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        for counter, (logger_name, text) in GUARD_WARNINGS.items():
            if record.name == logger_name and text in message:
                self.tracer.counts[counter] = self.tracer.counts.get(counter, 0) + 1


class Tracer:
    """Records spans around the hooked names; one instance per traced process."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.spans: list[list] = []   # [name, start, end, parent index, counts]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.forked = False

    def install(self) -> None:
        for module_name, attr, span, counts in HOOKS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(getattr(module, attr), span, counts))
        logging.getLogger("spinnoise").addHandler(_GuardCounter(self))
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans, self.stack, self.counts, self.forked = [], [], {}, True

    def _wrap(self, func, span_name, counts):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            record = [span_name, 0.0, 0.0, parent, {}]
            self.spans.append(record)
            self.stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if counts is not None:
                record[4] = counts(args, kwargs, result)
            if self.forked and not self.stack:
                self.spill()
            return result

        # No __dict__ copy: Propagator is a class.
        return functools.update_wrapper(traced, func, updated=())

    def spill(self) -> None:
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            handle.write(json.dumps({"spans": self.spans, "counts": self.counts}) + "\n")
        self.spans, self.counts = [], {}

    def batch(self) -> dict:
        return {"spans": list(self.spans), "counts": dict(self.counts)}


def load_batches(tracer: Tracer) -> list[dict]:
    """The traced process's spans first, then every spilled worker batch."""
    batches = [tracer.batch()]
    for path in sorted(tracer.spill_dir.glob("spans-*.jsonl")):
        with open(path) as handle:
            batches.extend(json.loads(line) for line in handle if line.strip())
    return batches


def layer_metrics(batches: list[dict], op_wall: float, output_bytes: int) -> dict:
    """Per-layer metrics of one operation from its span batches.

    Self time is a span's duration minus its direct children's.  Sums run
    over all processes, so on a pooled scan they add the workers' time.  The
    coverage share is the part of the operation's wall time during which a
    layer span (any but the orchestration ones) was open in some process.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_time: dict[str, float] = {}
    extra: dict[str, float] = {}
    guards = {name: 0 for name in GUARD_WARNINGS}
    point_spans: list[float] = []
    record_bytes = 0
    workers = 1
    layer_intervals = []
    for batch in batches:
        spans = batch["spans"]
        for name, count in batch["counts"].items():
            guards[name] = guards.get(name, 0) + count
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        for index, (name, start, end, parent, counts) in enumerate(spans):
            duration = end - start
            total[name] = total.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + duration - child_time[index]
            for key, value in counts.items():
                extra[key] = extra.get(key, 0) + value
            if name == "scan.point":
                point_spans.append(duration)
            if name == "integrator.evolve":
                record_bytes = max(record_bytes, counts["record_bytes"])
            if name == "scan.run_scan":
                workers = counts["workers"]
            if name not in ORCHESTRATION:
                layer_intervals.append((start, end))

    def t(name):
        return total.get(name, 0.0)

    def per(numerator, denominator):
        return numerator / denominator if denominator > 0 else 0.0

    traj_steps = extra.get("traj_steps", 0)
    return {
        "config.load_s": t("config.load"),
        "integrator.evolve_s": t("integrator.evolve"),
        "integrator.evolve_calls": calls.get("integrator.evolve", 0),
        "integrator.step_loop_self_s": self_time.get("integrator.evolve", 0.0),
        "integrator.step_ns_per_traj_step": 1e9 * per(self_time.get("integrator.evolve", 0.0), traj_steps),
        "integrator.propagator_build_s": t("integrator.propagator_build"),
        "integrator.propagator_builds": calls.get("integrator.propagator_build", 0),
        "integrator.steady_state_s": t("integrator.steady_state"),
        "integrator.steady_state_calls": calls.get("integrator.steady_state", 0),
        "integrator.superoperator_s": t("integrator.superoperator"),
        "integrator.record_bytes": record_bytes,
        "integrator.aliasing_warnings": guards["integrator.aliasing_warnings"],
        "noise.draw_s": t("noise.draw"),
        "noise.draw_calls": calls.get("noise.draw", 0),
        "noise.variates_per_s": per(extra.get("variates", 0), t("noise.draw")),
        "noise.stack_s": self_time.get("noise.chunk", 0.0),
        "detection.field_projection_s": t("detection.field_projection"),
        "detection.transmission_s": t("detection.transmission"),
        "detection.transmission_calls": calls.get("detection.transmission", 0),
        "detection.transmission_clamps": guards["detection.transmission_clamps"],
        "spectral.welch_s": t("spectral.welch"),
        "spectral.welch_calls": calls.get("spectral.welch", 0),
        "spectral.segments": extra.get("segments", 0),
        "spectral.segments_per_s": per(extra.get("segments", 0), t("spectral.welch")),
        "spectral.average_s": t("spectral.average"),
        "spectral.csv_write_s": t("spectral.csv_write"),
        "spectral.csv_bytes": extra.get("bytes", 0),
        "scan.point_s": statistics.median(point_spans) if point_spans else 0.0,
        "scan.worker_busy_frac": per(sum(point_spans), workers * op_wall),
        "cli.simulate_self_s": self_time.get("cli.main", 0.0),
        "cli.output_bytes": output_bytes,
        "trace.layer_coverage_frac": per(_union_length(layer_intervals), op_wall),
    }


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Time covered by at least one interval."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered
