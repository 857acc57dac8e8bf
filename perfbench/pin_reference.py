"""Pin the seed-0 references the output check compares against.

    python3 perfbench/pin_reference.py [WORKLOAD ...]

Runs each workload once at seed 0 and stores its energies, final and
absorbed norms and observables.csv columns under perfbench/reference/.
An existing reference is never overwritten: delete it first, and only
when a change is meant to move the physics.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import MISSING_REFERENCE, read_csv_columns, reference_path  # noqa: E402
from run import OUT_BASE, Runner  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ENERGY_KEYS = ("e_atomic", "e_kh_0", "e_kh_1")
NORM_KEYS = ("final_norm", "absorbed_norm")


def _num(v: float):
    return None if math.isnan(v) else float(f"{v:.12g}")


def pin(workload) -> None:
    path = reference_path(workload.name)
    if os.path.exists(path):
        print(f"{path} exists; delete it to re-pin", file=sys.stderr)
        return
    work_dir = os.path.join(OUT_BASE, f"pin-{workload.name}")
    try:
        attempt = Runner(workload, 0, work_dir).launch("run", "run", time.monotonic() + 600, keep=True)
        other = [p for p in attempt.problems if not p.startswith(MISSING_REFERENCE)]
        if other:
            raise SystemExit(f"{workload.name}: output check failed: {other}")
        out_dir = os.path.join(work_dir, "run")
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        got = {**manifest["derived"], **manifest["residuals"]}
        ref = {
            "energies": {k: got[k] for k in ENERGY_KEYS if k in got},
            "norms": {k: got[k] for k in NORM_KEYS if k in got},
        }
        if workload.propagates:
            columns = read_csv_columns(os.path.join(out_dir, "observables.csv"))
            ref["series"] = {name: [_num(v) for v in vals] for name, vals in columns.items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"pinned {path}")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(WORKLOADS):
        pin(WORKLOADS[name])
