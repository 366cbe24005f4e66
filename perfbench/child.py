"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py REQUEST.json RESULT.json

The request names the workload, seed, size, whether to trace, and a
scratch directory.  The result holds the set-up time (import of spinnoise
plus load_config), the operation's wall and CPU time, peak RSS, requested
trajectory-steps, the per-operation check results and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_operation(request: dict) -> dict:
    sys.path.insert(0, str(ROOT / "tests"))    # the linear-response oracle
    import workloads
    from tracer import Tracer, layer_metrics, load_batches

    run, check = workloads.WORKLOADS[request["workload"]]
    scratch = Path(request["scratch"])
    outdir = scratch / "out"
    outdir.mkdir(parents=True)
    tracer = None
    if request["traced"]:
        tracer = Tracer(scratch)
        tracer.install()

    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    run(request["seed"], request["size"], outdir)
    wall = time.perf_counter() - start
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)

    batches = load_batches(tracer) if tracer is not None else None
    operations, work = check(outdir)
    result = {
        "wall_s": wall,
        "cpu_s": _cpu(self_after) - _cpu(self_before)
        + _cpu(children_after) - _cpu(children_before),
        # ru_maxrss is in KiB on Linux; children: the largest reaped pool worker.
        "peak_rss_mb": max(self_after.ru_maxrss, children_after.ru_maxrss) / 1024.0,
        "work": work,
        "operations": operations,
    }
    if batches is not None:
        output_bytes = sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())
        result["layers"] = layer_metrics(batches, wall, output_bytes)
    return result


def main() -> None:
    request = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import spinnoise
    from spinnoise import config

    config.load_config()
    result = {"setup_s": time.perf_counter() - start}
    if not Path(spinnoise.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"imported spinnoise from {spinnoise.__file__}, not from this checkout")
    result.update(run_operation(request))
    Path(sys.argv[2]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
