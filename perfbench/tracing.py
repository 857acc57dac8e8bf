"""Spans around khatom's layer entry points, and the per-layer numbers.

The tracer wraps functions from outside the package: nothing under src/
knows about it.  A ``from .x import f`` binds ``f`` in the importing
module, so each function is replaced in every khatom module namespace
that holds it (``khatom.cli.kh_bound_states`` and
``khatom.eigen.kh_bound_states`` get the same wrapper); methods are
replaced on their class.  Spans are kept in memory as (name, start, end,
parent) and dumped once, when the traced run ends.

The layers are khatom's modules.  ``core`` is not wrapped: its primitives
are called thousands of times per record, and its figure is the FFT-pair
floor timed in the same process.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

LAYERS = ("core", "potential", "laser", "eigen", "propagator", "frame",
          "observables", "phasespace", "cli")

# Module-level functions, wrapped wherever a khatom module binds them.
TRACED_FUNCTIONS = {
    "potential": ("kh_averaged_potential", "atomic_potential"),
    "laser": ("build_field_cache",),
    "eigen": ("kh_bound_states", "bound_states_fd", "resample_to_grid",
              "imaginary_time_ground_state", "coherent_superposition",
              "rayleigh_energy", "fix_global_phase"),
    "propagator": ("propagate", "build_absorber_mask", "write_snapshot", "read_snapshot"),
    "observables": ("write_series",),
    "phasespace": ("wigner", "write_wigner", "phase_portrait", "separatrix_energy",
                   "momentum_tail_fraction"),
    # cli's own work: the stages below main() that emit files, hash and
    # write the manifest, so their self time is the cli layer's time
    "cli": ("main", "execute", "load_config", "validate_config", "_sha256",
            "_detect_landmarks"),
}

# Methods, wrapped on their class.
TRACED_METHODS = {
    "propagator": ("SplitOperator.step_array",),
    "frame": ("FrameTransformContext.lab_to_kh", "FrameTransformContext.kh_to_lab"),
    "observables": ("Recorder.record", "Recorder.series"),
    "cli": ("Pipeline.emit_potential", "Pipeline.emit_field", "Pipeline.emit_eigen",
            "Pipeline.run_primary", "Pipeline.run_restart", "Pipeline._propagate",
            "Pipeline._emit_table", "Pipeline._export_wigner",
            "Pipeline.export_state_wigners", "Pipeline.export_run_wigners",
            "Pipeline.export_portrait", "Pipeline.finalize"),
}

ROOT_SPAN = "cli.main"


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # [name index, start, end, parent span index or -1]
        self._stack: list[int] = []
        self.missing: list[str] = []

    def _wrap(self, fn, name: str):
        name_idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name_idx, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace every traced name; names the program lacks are listed in missing."""
        modules = [importlib.import_module(f"khatom.{layer}") for layer in LAYERS]
        for layer, names in TRACED_FUNCTIONS.items():
            home = importlib.import_module(f"khatom.{layer}")
            for name in names:
                fn = getattr(home, name, None)
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapped = self._wrap(fn, f"{layer}.{name}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapped)
        for layer, names in TRACED_METHODS.items():
            home = importlib.import_module(f"khatom.{layer}")
            for qualname in names:
                cls_name, meth = qualname.split(".")
                cls = getattr(home, cls_name, None)
                fn = vars(cls).get(meth) if cls is not None else None
                if fn is None:
                    self.missing.append(f"{layer}.{qualname}")
                    continue
                setattr(cls, meth, self._wrap(fn, f"{layer}.{qualname}"))

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "missing": self.missing}


# ---- analysis ----------------------------------------------------------------

# Percentiles tried for the tail figure, highest first.
_TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of a non-empty sequence."""
    vals = sorted(values)
    pos = (len(vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest percentile with at least 10 of n samples beyond it."""
    for q in _TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10:
            return q
    return 50.0


class SpanTable:
    """Durations and self times per span name, from a Tracer dump."""

    def __init__(self, dump: dict):
        names = dump["names"]
        spans = dump["spans"]
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self.durations: dict[str, list[float]] = {}
        self.self_s: dict[str, float] = {}
        self.layer_self_s = {layer: 0.0 for layer in LAYERS}
        self.root_children_s = 0.0
        for i, (name_idx, start, end, parent) in enumerate(spans):
            name = names[name_idx]
            dur = end - start
            own = dur - child[i]
            self.durations.setdefault(name, []).append(dur)
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            if name == ROOT_SPAN and parent < 0:
                self.root_children_s += child[i]
                continue
            self.layer_self_s[name.split(".", 1)[0]] += own

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def median(self, name: str) -> float:
        d = self.durations.get(name)
        return statistics.median(d) if d else 0.0

    def tail(self, name: str) -> float:
        """The tail_percentile of the name's per-call durations."""
        d = self.durations.get(name)
        return percentile(d, tail_percentile(len(d))) if d else 0.0


def layer_metrics(table: SpanTable, *, traced_wall_s: float, untraced_wall_s: float,
                  fft_pair_ms: float, files: int, bytes_written: int) -> dict:
    """The per-layer metric values, keyed by their BENCHMARK.json names."""
    step = "propagator.SplitOperator.step_array"
    record = "observables.Recorder.record"
    to_kh = "frame.FrameTransformContext.lab_to_kh"
    step_median_ms = table.median(step) * 1e3
    m = {
        "core.fft_pair_ms": fft_pair_ms,
        "potential.kh_averaged_potential.calls": table.calls("potential.kh_averaged_potential"),
        "potential.kh_averaged_potential.s": table.total("potential.kh_averaged_potential"),
        "eigen.kh_bound_states.s": table.total("eigen.kh_bound_states"),
        "eigen.bound_states_fd.s": table.total("eigen.bound_states_fd"),
        "eigen.resample_to_grid.s": table.total("eigen.resample_to_grid"),
        "eigen.imaginary_time_ground_state.calls": table.calls("eigen.imaginary_time_ground_state"),
        "eigen.imaginary_time_ground_state.s": table.total("eigen.imaginary_time_ground_state"),
        "laser.build_field_cache.s": table.total("laser.build_field_cache"),
        "propagator.step_array.calls": table.calls(step),
        "propagator.step_array.median_us": step_median_ms * 1e3,
        "propagator.step_array.p_high_us": table.tail(step) * 1e6,
        "propagator.step_array.s": table.total(step),
        "propagator.step_array.per_fft_pair": step_median_ms / fft_pair_ms if fft_pair_ms else 0.0,
        "propagator.propagate.self_s": table.self_s.get("propagator.propagate", 0.0),
        "frame.lab_to_kh.calls": table.calls(to_kh),
        "frame.lab_to_kh.median_us": table.median(to_kh) * 1e6,
        "frame.lab_to_kh.s": table.total(to_kh),
        "observables.Recorder.record.calls": table.calls(record),
        "observables.Recorder.record.median_us": table.median(record) * 1e6,
        "observables.Recorder.record.p_high_us": table.tail(record) * 1e6,
        # record's only traced child is lab_to_kh, so its self time excludes just that
        "observables.Recorder.record.self_s": table.self_s.get(record, 0.0),
        "observables.write_series.s": table.total("observables.write_series"),
        "phasespace.wigner.calls": table.calls("phasespace.wigner"),
        "phasespace.wigner.median_ms": table.median("phasespace.wigner") * 1e3,
        "phasespace.wigner.s": table.total("phasespace.wigner"),
        "phasespace.phase_portrait.s": table.total("phasespace.phase_portrait"),
        # cli's traced helpers (file emission, hashing, the manifest); the
        # rest of main()'s own time is what coverage leaves out
        "cli.self_s": table.layer_self_s["cli"],
        "cli.files": files,
        "cli.bytes_written": bytes_written,
        "trace.overhead_frac": traced_wall_s / untraced_wall_s - 1.0,
        "trace.coverage": table.root_children_s / traced_wall_s,
    }
    for layer in LAYERS[1:-1]:
        m[f"{layer}.self_s"] = table.layer_self_s[layer]
    return m
