"""spinnoise benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation of a workload is one
closed-loop batch job through the ``spinnoise`` command line, in a fresh
interpreter (``child.py``); operations repeat, with the same seed, until
``--seconds`` have passed and at least two have run.  The only parallelism
is the program's own 2-worker pool in scan_theta.  The seed is passed to
the program as ``master_seed``.

Workloads (sizes in ``workloads.SIZES``):

* simulate_far: ``spinnoise simulate --preset fig3_end`` at theta 30 deg,
  64 trajectories x 2^17 steps: one acceptance-scale point (far-detuned,
  1 G).  Wide batch, so the time splits across step loop, noise draws,
  Welch and field projection, and the (2^17, 64, 2) coherence record sets
  peak memory.  Also the only path through ``scan.simulate_point``, which
  integrates trajectory 0 a second time, and the text time-series writer.
  Checked against the linear-response oracle.
* scan_theta: ``spinnoise scan --threads 2`` over theta 0-90 deg in 7.5 deg
  steps at the same far point, 16 trajectories x 2^15 steps per point.
  Narrow batches, so per-step Python overhead dominates; also exercises the
  process pool, per-point set-up and the CSV and manifest writes.

With ``--trace 0`` the result holds the end-to-end metrics: medians over
the run's operations, and set-up (import of spinnoise plus load_config)
over every fresh interpreter the run started.  With ``--trace 1``
untraced and traced operations alternate: the result holds the per-layer
metrics of the traced ones and ``trace.overhead_s``, the difference of
the two medians.

An operation is a scan point; ``failed`` counts those that fail a check in
``workloads.py`` or whose output digest differs from the first operation
of the run, or from an earlier run of the same seed and source tree in
this checkout.  failure_rate = failed / attempted.

The last line of standard output is the JSON result; the lines before it
list every metric with its unit and the environment record.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

WORKLOADS = ("simulate_far", "scan_theta")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "traj_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per operation, summed over processes unless noted; tracer.layer_metrics
# derives them.  step_loop_self_s is evolve's span minus its child spans
# (noise chunks, propagator build); noise.stack_s is the self time of the
# per-chunk noise assembly; record_bytes is the largest coherence record,
# computed from its shape; scan.point_s is the median run_point span;
# cli.simulate_self_s is cli.main's self time (on simulate_far, formatting
# and writing the time series); trace.layer_coverage_frac is the share of
# wall time with a layer span open in some process.
PER_LAYER = {
    "config.load_s": "s",
    "integrator.evolve_s": "s",
    "integrator.evolve_calls": "count",
    "integrator.step_loop_self_s": "s",
    "integrator.step_ns_per_traj_step": "ns",
    "integrator.propagator_build_s": "s",
    "integrator.propagator_builds": "count",
    "integrator.steady_state_s": "s",
    "integrator.steady_state_calls": "count",
    "integrator.superoperator_s": "s",
    "integrator.record_bytes": "bytes-computed",
    "integrator.aliasing_warnings": "count",
    "noise.draw_s": "s",
    "noise.draw_calls": "count",
    "noise.variates_per_s": "1/s",
    "noise.stack_s": "s",
    "detection.field_projection_s": "s",
    "detection.transmission_s": "s",
    "detection.transmission_calls": "count",
    "detection.transmission_clamps": "count",
    "spectral.welch_s": "s",
    "spectral.welch_calls": "count",
    "spectral.segments": "count",
    "spectral.segments_per_s": "1/s",
    "spectral.average_s": "s",
    "spectral.csv_write_s": "s",
    "spectral.csv_bytes": "bytes",
    "scan.point_s": "s",
    "scan.worker_busy_frac": "fraction",
    "cli.simulate_self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.layer_coverage_frac": "fraction",
}

MIN_OPERATIONS = 2          # the digest check needs a repeat
CHILD_TIMEOUT_S = 75.0       # so that two operations end within the 180 s a run may take


class BenchError(Exception):
    pass


def run_child(request: dict, scratch: Path) -> dict:
    """Run child.py on a request in its own session; kill the group on timeout."""
    scratch.mkdir(parents=True)
    request = dict(request, scratch=str(scratch))
    request_path, result_path = scratch / "request.json", scratch / "result.json"
    request_path.write_text(json.dumps(request))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(request_path), str(result_path)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    try:
        output, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{request['workload']} operation exceeded {CHILD_TIMEOUT_S:g} s")
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"child exited with {proc.returncode}:\n{output[-4000:]}")
    result = json.loads(result_path.read_text())
    shutil.rmtree(scratch)
    return result


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked from the library."""
    with open("/proc/self/maps") as handle:
        libs = sorted({line.split()[-1] for line in handle if "openblas" in line})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(dll, symbol):
                return int(getattr(dll, symbol)())
    return None


def environment(workload: str, seed: int, source: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": git_commit(),
        "src_sha256": source,
        "workload": workload,
        "seed": seed,
    }


def count_failures(ops: list[dict], key: str) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over the run, with the reasons.

    A digest that differs from the run's first operation, or from the one
    stored for this key by an earlier run in this checkout, is a failure.
    """
    store_path = WORK / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    reference = store.get(key) or {op_id: digest for op_id, digest, _ in ops[0]["operations"]}
    attempted = failed = 0
    reasons = []
    for index, op in enumerate(ops):
        for op_id, digest, problems in op["operations"]:
            attempted += 1
            if digest != reference.get(op_id):
                problems = problems + ["output digest differs from the first run of this seed"]
            if problems:
                failed += 1
                reasons.extend(f"operation {index} {op_id}: {p}" for p in problems)
    if key not in store:
        store[key] = reference
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store))
        tmp.replace(store_path)
    return attempted, failed, reasons


def measure(args) -> list[dict]:
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        request = {"workload": args.workload, "seed": args.seed, "size": args.size}
        ops: list[dict] = []
        start = time.perf_counter()
        while len(ops) < MIN_OPERATIONS or time.perf_counter() - start < args.seconds:
            traced = bool(args.trace) and len(ops) % 2 == 1
            op = run_child(dict(request, traced=traced), scratch / f"op{len(ops)}")
            op["traced"] = traced
            ops.append(op)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return ops


def report(args, ops: list[dict]) -> tuple[dict, list[str]]:
    untraced = [op for op in ops if not op["traced"]]
    walls = ", ".join(f"{op['wall_s']:.4g}{'*' if op['traced'] else ''}" for op in ops)
    lines = [f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}"
             f"  operations {len(ops)}, wall s each (* traced): {walls}"]
    if not args.trace:
        values = {
            "setup_s": statistics.median(op["setup_s"] for op in ops),
            "wall_s": statistics.median(op["wall_s"] for op in untraced),
            "cpu_s": statistics.median(op["cpu_s"] for op in untraced),
            "traj_steps_per_s": statistics.median(op["work"] / op["wall_s"] for op in untraced),
            "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in untraced),
        }
        units = END_TO_END
        lines.append(f"  medians over {len(ops)} operations, each in a fresh interpreter")
    else:
        traced = [op for op in ops if op["traced"]]
        values = {
            name: statistics.median(op["layers"][name] for op in traced)
            for name in PER_LAYER if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = (
            statistics.median(op["wall_s"] for op in traced)
            - statistics.median(op["wall_s"] for op in untraced)
        )
        units = PER_LAYER
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        lines.append(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the harness self-test's sizes")
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "spinnoise" / "__init__.py", ROOT / "tests" / "_ou_oracle.py"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} is missing; run from a checkout "
                  "of the spinnoise repository", file=sys.stderr)
            return 2
    source = src_digest()
    try:
        ops = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed, reasons = count_failures(
        ops, f"{args.workload}/{args.seed}/{args.size}/{source}"
    )
    for reason in reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    metrics, lines = report(args, ops)
    lines.append(f"  {'failure_rate':34s} {failed / attempted:.6g} ({failed} of {attempted} "
                 "operations failed)")
    print("\n".join(lines))
    print("env " + json.dumps(environment(args.workload, args.seed, source)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
