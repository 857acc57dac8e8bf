"""khatom benchmark: shortened figure recipes, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/khatom`` beside this
directory).  Load is a closed loop with one client: each repeat is a
fresh Python process that calls ``khatom.cli.main([...])`` in-process,
one repeat at a time, with BLAS/OpenMP pinned to one thread.  Repeats
follow each other until S seconds have passed (at least one).

--trace 0 prints the end-to-end metrics: the median wall time of main(),
the set-up time (launch to config validated; five extra set-up-only
launches join the repeats' samples), the peak RSS and the share of
repeats whose output passed the check.  --trace 1 runs the same untraced
repeats, then one traced repeat, and prints the per-layer metrics.

The last stdout line is the result; the line before it has the details
(samples and quartiles, failures, machine facts), which are also written
to perfbench/_out/<workload>-seed<n>-trace<t>.json, beside the traced
repeat's spans (.spans.json).  Run directories are removed after their
check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from check import check_output  # noqa: E402
from tracing import SpanTable, layer_metrics, percentile, tail_percentile  # noqa: E402
from workloads import WORKLOADS, main_argv  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
OUT_BASE = os.path.join(HERE, "_out")
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_LAUNCHES = 5
# no repeat is started that would be expected to end after this many
# seconds, so that a run stays well inside three minutes
RUN_LIMIT_S = 160.0


@dataclass
class Attempt:
    problems: list = field(default_factory=list)
    elapsed_s: float = 0.0
    wall_s: float | None = None
    setup_s: float | None = None
    rss_mb: float | None = None
    files: int = 0
    bytes_written: int = 0
    result: dict = field(default_factory=dict)


class Runner:
    """Launches the child repeats of one workload and checks their output."""

    def __init__(self, workload, seed: int, work_dir: str, smoke: bool = False):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.work_dir = work_dir
        os.makedirs(work_dir, exist_ok=True)
        self.env = dict(os.environ, **THREAD_ENV)
        src = os.path.join(ROOT, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def launch(self, mode: str, tag: str, deadline: float, keep: bool = False) -> Attempt:
        """One child process; its run directory is removed unless keep."""
        out_dir = os.path.join(self.work_dir, tag)
        result_path = out_dir + ".json"
        log_path = out_dir + ".log"
        argv = main_argv(self.workload, self.seed, out_dir, self.smoke)
        cmd = [sys.executable, CHILD, "--result", result_path, "--mode", mode, "--", *argv]
        attempt = Attempt()
        t_launch = time.monotonic()
        with open(log_path, "w") as log:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            try:
                rc = proc.wait(timeout=max(1.0, deadline - t_launch))
            except subprocess.TimeoutExpired:
                rc = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        attempt.elapsed_s = time.monotonic() - t_launch
        if rc != 0 or not os.path.isfile(result_path):
            with open(log_path) as fh:
                tail = fh.read()[-600:]
            what = "timed out" if rc is None else f"exit code {rc}"
            attempt.problems.append(f"child {what}: {tail}")
        else:
            with open(result_path) as fh:
                attempt.result = json.load(fh)
            res = attempt.result
            attempt.setup_s = res["ready"] - t_launch
            attempt.rss_mb = res["maxrss_mb"]
            if mode != "setup":
                attempt.wall_s = res["wall_s"]
                attempt.problems += check_output(out_dir, self.workload, self.seed,
                                                 res["kh_energies"], self.smoke)
                for name in os.listdir(out_dir):
                    attempt.files += 1
                    attempt.bytes_written += os.path.getsize(os.path.join(out_dir, name))
        if not keep:
            shutil.rmtree(out_dir, ignore_errors=True)
        return attempt


def summary(values) -> dict:
    """Median, quartiles, tail and sample count of a list of numbers."""
    vals = sorted(values)
    if not vals:
        return {"n": 0}
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
    q = tail_percentile(len(vals))
    return {"n": len(vals), "median": statistics.median(vals), "q1": q1, "q3": q3,
            f"p{q:g}": percentile(vals, q)}


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def measure(runner: Runner, seconds: float, trace: bool,
            spans_path: str | None = None) -> tuple[dict, dict]:
    """Run the repeats; returns (result line, details).

    With trace, the traced repeat's spans are written to spans_path if given.
    """
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    setups = []
    if not trace:
        for i in range(SETUP_LAUNCHES):
            setups.append(runner.launch("setup", f"setup{i}", deadline))
    runs = []
    measuring = time.monotonic()
    while True:
        runs.append(runner.launch("run", f"run{len(runs)}", deadline))
        now = time.monotonic()
        ahead = runs[-1].elapsed_s * (2 if trace else 1)
        if now - measuring >= seconds or now + ahead > deadline:
            break
    traced = runner.launch("trace", "trace", start + RUN_LIMIT_S + 15) if trace else None

    attempts = runs + ([traced] if traced else [])
    failed = sum(1 for a in attempts if a.problems)
    walls = [a.wall_s for a in runs if not a.problems] or [a.wall_s for a in runs if a.wall_s]
    setup_samples = [a.setup_s for a in setups + runs if a.setup_s is not None]
    rss = [a.rss_mb for a in runs if a.rss_mb is not None]
    first = next((a.result for a in attempts if a.result), {})
    details = {
        "workload": runner.workload.name,
        "seed": runner.seed,
        "seconds": seconds,
        "trace": int(trace),
        "load": "closed loop, one client, one repeat at a time, single-threaded BLAS/OpenMP",
        "machine": {**first.get("machine", {}), "git_commit": git_commit(),
                    "thread_env_set": THREAD_ENV},
        "wall_s": summary(walls),
        "setup_s": summary(setup_samples),
        "peak_rss_mb": summary(rss),
        "failures": [a.problems for a in attempts + setups if a.problems],
    }
    if not walls:
        return {}, details
    wall = statistics.median(walls)
    if trace:
        if "trace" not in traced.result:
            return {}, details
        if spans_path:
            with open(spans_path, "w") as fh:
                json.dump(traced.result["trace"], fh)
        table = SpanTable(traced.result["trace"])
        metrics = layer_metrics(
            table, traced_wall_s=traced.wall_s, untraced_wall_s=wall,
            fft_pair_ms=traced.result["fft_pair_ms"], files=traced.files,
            bytes_written=traced.bytes_written,
        )
        details["traced"] = {
            "wall_s": traced.wall_s,
            "spans": len(traced.result["trace"]["spans"]),
            "not_in_program": traced.result["trace"]["missing"],
            "tail_percentiles": {
                "propagator.step_array.p_high_us":
                    tail_percentile(table.calls("propagator.SplitOperator.step_array")),
                "observables.Recorder.record.p_high_us":
                    tail_percentile(table.calls("observables.Recorder.record")),
            },
        }
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": statistics.median(rss),
            "ok_frac": (len(attempts) - failed) / len(attempts),
        }
        units = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
    line = {
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return line, details


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "khatom", "cli.py")):
        print(f"perfbench: no khatom source under {ROOT}/src", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(OUT_BASE, f"{tag}-{os.getpid()}")
    runner = Runner(WORKLOADS[args.workload], args.seed, work_dir)
    try:
        line, details = measure(runner, args.seconds, bool(args.trace),
                                os.path.join(OUT_BASE, f"{tag}.spans.json"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(os.path.join(OUT_BASE, f"{tag}.json"), "w") as fh:
        json.dump({"result": line, "details": details}, fh, indent=1)
    print(json.dumps(details))
    if not line:
        print("perfbench: no repeat produced a measurement", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
