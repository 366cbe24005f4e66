"""Tiny-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at the tiny sizes with tracing off and on, and checks
that the result line reports exactly the metrics BENCHMARK.json declares,
each with its declared unit, that the printed report lists every metric by
name and unit (with failure_rate), and
that the environment record is complete.  Then checks that the benchmark
refuses to run, without printing a result, in a directory holding only
BENCHMARK.json and the benchmark's own files.  Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

ENV_KEYS = {"nproc", "cpu_model", "python", "numpy", "scipy", "blas", "blas_threads",
            "thread_env", "git_commit", "src_sha256", "workload", "seed"}


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_run(workload: str, trace: int, declared: dict) -> list[str]:
    proc = bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted {result['attempted']!r}")
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != declared:
        errors.append(f"{where}: metrics {got} differ from BENCHMARK.json {declared}")
    expected = dict(declared, failure_rate="operations failed")
    for name, unit in expected.items():
        if not any(line.split()[:1] == [name] and unit in line for line in lines[:-1]):
            errors.append(f"{where}: report has no line for {name} in {unit}")
    env_lines = [line for line in lines if line.startswith("env ")]
    env = json.loads(env_lines[0][4:]) if env_lines else {}
    if not ENV_KEYS <= set(env):
        errors.append(f"{where}: environment record lacks {sorted(ENV_KEYS - set(env))}")
    return errors


def check_refuses_without_program() -> list[str]:
    (HERE / "_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "_work"))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = bench(bare, run.WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        print("BENCHMARK.json workloads differ from run.WORKLOADS")
        return 1
    if declared[0] != run.END_TO_END or declared[1] != run.PER_LAYER:
        print("BENCHMARK.json metrics differ from run.END_TO_END / run.PER_LAYER")
        return 1
    errors = check_refuses_without_program()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            errors += check_run(workload, trace, declared[trace])
            print(f"{workload} --trace {trace}: checked", flush=True)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
