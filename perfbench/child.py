"""One benchmark repeat in a fresh process: set up, run, report.

    python3 perfbench/child.py --result R.json --mode {setup,run,trace} -- <khatom argv>

Set-up ends once khatom is imported and the workload's config is loaded
and validated; the parent subtracts its launch time from that instant
(both are CLOCK_MONOTONIC, which is system-wide).  ``run`` then times
``khatom.cli.main(argv)`` with nothing traced; ``trace`` installs the
span wrappers first and afterwards times an FFT pair on the run's grid.
The result goes to --result as JSON, written after every timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
FFT_PAIR_REPEATS = 400


def _config_from_argv(cli, argv):
    """Load and validate the config main(argv) will use, as `run` does."""
    from importlib import resources

    recipe = argv[1]
    overrides = [argv[i + 1] for i, tok in enumerate(argv) if tok == "--override"]
    cfg = cli.load_config(str(resources.files("khatom") / "recipes" / f"{recipe}.cfg"), overrides)
    cli.validate_config(cfg)
    return cfg


def _fft_pair_ms(n: int) -> float:
    import numpy as np
    from scipy.fft import fft, ifft

    rng = np.random.default_rng(0)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    times = []
    for _ in range(FFT_PAIR_REPEATS):
        t0 = time.perf_counter()
        psi = ifft(fft(psi))
        times.append(time.perf_counter() - t0)
    times.sort()
    return 1e3 * times[len(times) // 2]


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import khatom.cli as cli

    cfg = _config_from_argv(cli, argv)
    result = {"ready": time.monotonic()}

    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            sys.path.insert(0, HERE)
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        # keep the solver's list for the state-count check; one call, no timing
        solve = cli.kh_bound_states
        kh_pairs = []

        def kh_bound_states(*a, **kw):
            pairs = solve(*a, **kw)
            kh_pairs[:] = pairs
            return pairs

        cli.kh_bound_states = kh_bound_states
        t0 = time.perf_counter()
        rc = cli.main(argv)
        result["wall_s"] = time.perf_counter() - t0
        result["rc"] = rc
        result["kh_energies"] = [float(p.energy) for p in kh_pairs]
        if tracer is not None:
            result["trace"] = tracer.dump()
            result["fft_pair_ms"] = _fft_pair_ms(cfg["grid.n_points"])
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["machine"] = machine_facts()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0 if result.get("rc", 0) == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
