"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Shrinks every workload to a 1024-point grid and 300 steps, then drives
it through the benchmark's own runner: once untraced and once traced.
It checks that both result lines are correct and carry exactly the
metrics BENCHMARK.json names, that a deliberately corrupted output and a
wrong bound-state count are caught by the output check, and that the
benchmark refuses to run without the khatom source.  Exits 0 when all of
that holds; takes about a minute on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import check_output  # noqa: E402
from run import OUT_BASE, ROOT, Runner, load_spec, measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1


def _names(spec, key):
    return {m["name"] for m in spec[key]}


def check_workload(workload, work_dir: str, spec: dict) -> list[str]:
    errors = []
    runner = Runner(workload, SEED, work_dir, smoke=True)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line, details = measure(runner, 0, trace)
        if not line or not line["correct"]:
            errors.append(f"trace={int(trace)}: not correct: {details['failures']}")
            continue
        if set(line["metrics"]) != _names(spec, key):
            errors.append(f"trace={int(trace)}: metrics differ from BENCHMARK.json {key}")
        if trace and not line["metrics"]["trace.coverage"]["value"] > 0.95:
            errors.append(f"trace coverage {line['metrics']['trace.coverage']['value']:.3f}")
    return errors


def check_corruption(workload, work_dir: str) -> list[str]:
    """A flipped byte in one listed file, or a third bound state, must fail the check."""
    runner = Runner(workload, SEED, work_dir, smoke=True)
    attempt = runner.launch("run", "corrupt", time.monotonic() + 120, keep=True)
    if attempt.problems:
        return [f"clean run failed: {attempt.problems}"]
    out_dir = os.path.join(work_dir, "corrupt")
    energies = attempt.result["kh_energies"]
    errors = []
    if not check_output(out_dir, workload, SEED, energies + [-1e-4], smoke=True):
        errors.append("three bound states passed the check")
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        victim = os.path.join(out_dir, sorted(json.load(fh)["files"])[0])
    with open(victim, "r+b") as fh:
        first = fh.read(1)
        fh.seek(0)
        fh.write(bytes([first[0] ^ 1]))
    if not check_output(out_dir, workload, SEED, energies, smoke=True):
        errors.append(f"corrupted {os.path.basename(victim)} passed the check")
    return errors


def check_refuses_bare_copy(work_dir: str) -> list[str]:
    """In a directory with only BENCHMARK.json and perfbench/, run.py must fail."""
    bare = os.path.join(work_dir, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kh_beat", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode == 0 or proc.stdout.strip():
        return ["run.py succeeded or printed a result without the khatom source"]
    return []


def main() -> int:
    spec = load_spec()
    work_dir = os.path.join(OUT_BASE, f"selftest-{os.getpid()}")
    errors = []
    try:
        for name, workload in WORKLOADS.items():
            errors += [f"{name}: {e}" for e in check_workload(workload, os.path.join(work_dir, name), spec)]
        errors += [f"corruption: {e}" for e in check_corruption(WORKLOADS["kh_beat"], work_dir)]
        errors += check_refuses_bare_copy(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for err in errors:
        print(f"FAIL {err}")
    print("selftest passed" if not errors else f"selftest: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
