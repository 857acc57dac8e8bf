"""Command line front end: configuration, run pipelines, figure recipes.

All file emission lives here.  Formats are plain text plus two small
binary containers (KHPS1 snapshots, KHPSW1 Wigner maps).  Every file is
written deterministically, so the same config and package version
reproduce a run directory byte for byte; each directory gets a
manifest.json listing the emitted files with sha256 checksums.

Config files are flat ``key = value`` text with sectioned key names
(grid.n_points, pulse.intensity_wcm2, ...).  Values given on the command
line via --override take precedence over the file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import __version__
from .core import FRAME_KH, FRAME_LAB, KhatomError, SpatialGrid, TimeGrid, WaveFunction
from .eigen import coherent_superposition, imaginary_time_ground_state, kh_bound_states
from .frame import FrameTransformContext
from .laser import PulseParams, build_field_cache
from .observables import Recorder, write_series
from .phasespace import (
    momentum_tail_fraction,
    phase_portrait,
    separatrix_energy,
    wigner,
    write_wigner,
)
from .potential import atomic_potential, kh_averaged_potential
from .propagator import (
    MODE_KH,
    MODE_LAB,
    PropagationJob,
    propagate,
    read_snapshot,
    write_snapshot,
)


class CliError(KhatomError):
    module = "cli"


NAMED_STATES = ("atomic_ground", "kh_ground", "kh_excited", "kh_coherent")
MODES = (MODE_LAB, MODE_KH)
TRISTATE = ("auto", "on", "off")

# half-width of the region written to plot-ready density / potential tables
EMIT_HALF_WIDTH = 150.0

# mass tolerance handed to the Wigner transform for states that carry
# continuum flux through the analysis window (full-potential runs and
# their continuations); the measured deficit is recorded in the manifest
LOOSE_MASS_TOL = 0.05

_OVERLAY_ENERGY = 0.0125  # outermost equienergy curve drawn on the maps


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise CliError(f"expected a boolean, got {raw!r}")


def _parse_times(raw: str) -> tuple:
    raw = raw.strip()
    if not raw or raw.lower() == "none":
        return ()
    try:
        return tuple(float(tok) for tok in raw.split(","))
    except ValueError:
        raise CliError(f"expected comma-separated numbers, got {raw!r}")


def _parse_names(raw: str) -> tuple:
    raw = raw.strip()
    if not raw or raw.lower() == "none":
        return ()
    names = tuple(tok.strip() for tok in raw.split(","))
    for name in names:
        if name not in NAMED_STATES:
            raise CliError(f"unknown state selector {name!r}")
    return names


def _parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise CliError(f"expected a number, got {raw!r}")


def _parse_optfloat(raw: str):
    if raw.strip().lower() == "none":
        return None
    return _parse_float(raw)


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"expected an integer, got {raw!r}")


def _parse_choice(options):
    def parse(raw: str) -> str:
        val = raw.strip()
        if val not in options:
            raise CliError(f"expected one of {options}, got {raw!r}")
        return val

    return parse


def _parse_keyword_times(keywords):
    """Either one of the keywords or an explicit comma list of times."""

    def parse(raw: str):
        val = raw.strip().lower()
        if val in keywords:
            return val
        return _parse_times(raw)

    return parse


CONFIG_SPEC = {
    "grid.x_min": (_parse_float, -1500.0),
    "grid.x_max": (_parse_float, 1500.0),
    "grid.n_points": (_parse_int, 16384),
    "pulse.period": (_parse_float, 100.0),
    "pulse.intensity_wcm2": (_parse_optfloat, 5.7e13),
    "pulse.eps0": (_parse_optfloat, None),
    "pulse.ramp_cycles": (_parse_int, 2),
    "pulse.flat_end_cycles": (_parse_int, 10),
    "pulse.total_cycles": (_parse_int, 12),
    "kh.alpha0": (_parse_float, 10.23),
    "kh.quadrature_n": (_parse_int, 2048),
    "run.enabled": (_parse_bool, True),
    "run.mode": (_parse_choice(MODES), MODE_LAB),
    "run.initial": (str, "atomic_ground"),
    "run.t0": (_parse_float, 0.0),
    "run.t_final": (_parse_optfloat, None),
    "run.dt": (_parse_float, 0.05),
    "run.cadence": (_parse_int, 20),
    "run.snapshots": (_parse_times, ()),
    "run.absorber": (_parse_choice(TRISTATE), "auto"),
    "restart.at": (_parse_optfloat, None),
    "restart.mode": (_parse_choice(MODES), MODE_KH),
    "restart.t_final": (_parse_optfloat, None),
    "restart.snapshots": (_parse_times, ()),
    "restart.absorber": (_parse_choice(TRISTATE), "auto"),
    "wigner.times": (_parse_keyword_times(("none", "snapshots")), "none"),
    "wigner.states": (_parse_names, ()),
    "portrait.energies": (_parse_keyword_times(("none", "auto")), "none"),
    "emit.potential": (_parse_bool, False),
    "emit.field": (_parse_bool, False),
    "emit.eigen": (_parse_bool, False),
    "emit.densities": (_parse_bool, False),
}


@dataclass
class RunConfig:
    values: dict
    explicit: frozenset  # keys set by file or override, not defaults

    def __getitem__(self, key: str):
        return self.values[key]

    def echo(self) -> dict:
        out = {}
        for key in sorted(self.values):
            val = self.values[key]
            out[key] = list(val) if isinstance(val, tuple) else val
        return out


def parse_config_lines(lines, source: str) -> dict:
    raw, first_line = {}, {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise CliError(f"{source}:{lineno}: expected key = value, got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in first_line:
            raise CliError(
                f"{source}:{lineno}: {key} is already set on line {first_line[key]}"
            )
        first_line[key] = lineno
        raw[key] = value.strip()
    return raw


def load_config(path=None, overrides=()) -> RunConfig:
    raw = {}
    if path is not None:
        if not os.path.exists(path):
            raise CliError(f"config file not found: {path}")
        with open(path) as fh:
            raw.update(parse_config_lines(fh, path))
    for item in overrides:
        if "=" not in item:
            raise CliError(f"override must be key=value, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    values = {key: default for key, (_, default) in CONFIG_SPEC.items()}
    for key, text in raw.items():
        if key not in CONFIG_SPEC:
            raise CliError(f"unknown config key: {key}")
        parse, _ = CONFIG_SPEC[key]
        try:
            values[key] = parse(text)
        except CliError as err:
            raise CliError(f"bad value for {key}: {err}")
    return RunConfig(values, frozenset(raw))


def validate_config(cfg: RunConfig) -> None:
    if cfg["grid.x_min"] >= cfg["grid.x_max"]:
        raise CliError("grid.x_min must be below grid.x_max")
    for key in ("pulse.period", "run.dt"):
        if cfg[key] <= 0:
            raise CliError(f"{key} must be positive")
    if cfg["run.cadence"] < 1:
        raise CliError("run.cadence must be at least 1")
    if (
        cfg["pulse.eps0"] is not None
        and "pulse.intensity_wcm2" in cfg.explicit
        and cfg["pulse.intensity_wcm2"] is not None
    ):
        raise CliError("give pulse.eps0 or pulse.intensity_wcm2, not both")
    if cfg["pulse.eps0"] is None and cfg["pulse.intensity_wcm2"] is None:
        raise CliError("one of pulse.eps0 or pulse.intensity_wcm2 is required")
    initial = cfg["run.initial"]
    if initial not in NAMED_STATES and not os.path.exists(initial):
        raise CliError(f"initial-state snapshot file not found: {initial}")
    if cfg["restart.at"] is not None:
        if not cfg["run.enabled"]:
            raise CliError("restart.at needs a primary run to restart from")
        snaps = cfg["run.snapshots"]
        if not any(abs(t - cfg["restart.at"]) < 1e-9 for t in snaps):
            raise CliError("restart.at must match one of run.snapshots")
        if cfg["restart.t_final"] is None or cfg["restart.t_final"] <= cfg["restart.at"]:
            raise CliError("restart.t_final must lie beyond restart.at")
    wanted = cfg["wigner.times"]
    if cfg["run.enabled"] and isinstance(wanted, tuple):
        # an explicit time must name a stored snapshot, or no map is written
        snaps = cfg["run.snapshots"]
        if cfg["restart.at"] is not None:
            snaps += cfg["restart.snapshots"]
        for t in wanted:
            if not any(abs(t - s) < 1e-6 for s in snaps):
                raise CliError(
                    f"wigner.times entry {t:g} matches no run.snapshots or "
                    "restart.snapshots time"
                )


def _fmt_t(t: float) -> str:
    return f"{t:g}"


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _detect_landmarks(times: np.ndarray, abs2: np.ndarray) -> dict:
    """Locate beat landmarks on an autocorrelation magnitude series.

    Smooths over roughly one field period to suppress carrier ripple,
    then reads local extrema (well revivals / opposite-well localization)
    and 0.5 crossings (packet midway between the wells).  Informational:
    the values are recorded, never asserted against.
    """
    n = len(times)
    if n < 16:
        return {"left_well": [], "right_well": [], "midpoint": []}
    window = min(101, (n // 4) * 2 + 1)
    kernel = np.ones(window) / window
    smooth = np.convolve(abs2, kernel, mode="same")
    lo, hi = window, n - window
    maxima, minima = [], []
    for k in range(max(lo, 1), min(hi, n - 1)):
        if smooth[k] >= smooth[k - 1] and smooth[k] > smooth[k + 1]:
            maxima.append(float(times[k]))
        elif smooth[k] <= smooth[k - 1] and smooth[k] < smooth[k + 1]:
            minima.append(float(times[k]))
    crossings = []
    resid = smooth - 0.5
    for k in range(max(lo, 1), min(hi, n)):
        if resid[k - 1] == 0.0 or resid[k - 1] * resid[k] >= 0:
            continue
        frac = resid[k - 1] / (resid[k - 1] - resid[k])
        crossings.append(float(times[k - 1] + frac * (times[k] - times[k - 1])))
    return {"left_well": maxima, "right_well": minima, "midpoint": crossings}


@dataclass
class RunSegment:
    label: str  # "" for the primary run, "restart_" for the continuation
    mode: str
    named_initial: bool
    result: object
    recorder: Recorder


class Pipeline:
    """One CLI invocation: lazy physics objects, staged emission, manifest."""

    def __init__(self, cfg: RunConfig, out_dir: str, recipe: str | None = None):
        self.cfg = cfg
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.files: dict[str, str] = {}
        self.manifest: dict = {
            "version": __version__,
            "recipe": recipe,
            "config": cfg.echo(),
            "derived": {"alpha0": float(cfg["kh.alpha0"])},
            "residuals": {},
            "detected_times": {},
            "wigner": {},
            "parent": None,
            "status": "incomplete",
            "error": None,
        }
        self.segments: list[RunSegment] = []

    # ---- lazy physics objects -------------------------------------------

    @cached_property
    def grid(self) -> SpatialGrid:
        cfg = self.cfg
        return SpatialGrid(cfg["grid.x_min"], cfg["grid.x_max"], cfg["grid.n_points"])

    @cached_property
    def params(self) -> PulseParams:
        cfg = self.cfg
        if cfg["pulse.eps0"] is not None:
            kw = {"eps0": cfg["pulse.eps0"]}
        else:
            kw = {"intensity": cfg["pulse.intensity_wcm2"]}
        params = PulseParams(
            period=cfg["pulse.period"],
            ramp_cycles=cfg["pulse.ramp_cycles"],
            flat_end_cycles=cfg["pulse.flat_end_cycles"],
            total_cycles=cfg["pulse.total_cycles"],
            **kw,
        )
        der = self.manifest["derived"]
        der["eps0"] = float(params.eps0)
        der["omega"] = float(params.omega)
        der["alpha0_quiver"] = float(params.alpha0)
        return params

    @cached_property
    def cache(self):
        cache = build_field_cache(self.params, dt_field=0.5 * self.cfg["run.dt"])
        res_a, res_alpha = cache.endpoint_residuals
        self.manifest["residuals"]["field_endpoint_a"] = float(res_a)
        self.manifest["residuals"]["field_endpoint_alpha"] = float(res_alpha)
        return cache

    @cached_property
    def ctx(self) -> FrameTransformContext:
        return FrameTransformContext(cache=self.cache, grid=self.grid)

    @cached_property
    def avg(self):
        avg = kh_averaged_potential(
            self.grid, self.cfg["kh.alpha0"], quadrature_n=self.cfg["kh.quadrature_n"]
        )
        self.manifest["derived"]["e_separatrix"] = float(separatrix_energy(avg))
        return avg

    @cached_property
    def pairs(self):
        pairs = kh_bound_states(self.avg)
        for k, pair in enumerate(pairs):
            self.manifest["residuals"][f"eigen_residual_kh_{k}"] = pair.residual
        e0, e1 = (p.energy for p in pairs[:2])
        der = self.manifest["derived"]
        der["e_kh_0"] = float(e0)
        der["e_kh_1"] = float(e1)
        der["omega_10"] = float(e1 - e0)
        der["t_10"] = float(2.0 * np.pi / (e1 - e0))
        return pairs

    @cached_property
    def ground(self):
        ground = imaginary_time_ground_state(atomic_potential(self.grid.x), self.grid)
        self.manifest["derived"]["e_atomic"] = float(ground.energy)
        self.manifest["residuals"]["eigen_residual_atomic"] = ground.residual
        return ground

    # ---- file plumbing ---------------------------------------------------

    def _path(self, name: str) -> str:
        path = os.path.join(self.out_dir, name)
        self.files[name] = path
        return path

    def _emit_table(self, name: str, columns, header: str) -> None:
        with open(self._path(name), "w") as fh:
            fh.write(f"# {header}\n")
            for row in zip(*columns):
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")

    # ---- stages ------------------------------------------------------------

    def emit_potential(self) -> None:
        sel = np.abs(self.grid.x) <= EMIT_HALF_WIDTH
        xs = self.grid.x[sel]
        self._emit_table("potential_bare.dat", (xs, atomic_potential(xs)), "x v")
        self._emit_table("potential_averaged.dat", (xs, self.avg.samples[sel]), "x v0")

    def emit_field(self) -> None:
        cache = self.cache
        stride = max(1, int(round(self.cfg["run.cadence"] * self.cfg["run.dt"] / cache.dt_field)))
        sl = slice(None, None, stride)
        self._emit_table(
            "field.dat",
            (cache.times[sl], cache.eps[sl], cache.a[sl], cache.alpha[sl]),
            "t eps a alpha",
        )

    def emit_eigen(self) -> None:
        sel = np.abs(self.grid.x) <= EMIT_HALF_WIDTH
        xs = self.grid.x[sel]
        self._emit_table(
            "atomic_ground.dat", (xs, self.ground.state.density()[sel]), "x density"
        )
        for k, pair in enumerate(self.pairs):
            self._emit_table(
                f"kh_state_{k}.dat", (xs, pair.state.density()[sel]), "x density"
            )
        der = self.manifest["derived"]
        with open(self._path("eigen_energies.txt"), "w") as fh:
            for key in ("e_atomic", "e_kh_0", "e_kh_1", "omega_10", "t_10", "alpha0"):
                fh.write(f"{key} = {der[key]!r}\n")

    def _named_state(self, name: str, frame: str) -> WaveFunction:
        if name == "atomic_ground":
            wf = self.ground.state
        elif name == "kh_ground":
            wf = self.pairs[0].state
        elif name == "kh_excited":
            wf = self.pairs[1].state
        else:
            wf = coherent_superposition(self.pairs[0], self.pairs[1])
        return wf.with_frame(frame)

    def _initial_state(self, selector: str, mode: str, t0: float):
        """Returns (state, parent_record_or_None)."""
        frame = FRAME_LAB if mode == MODE_LAB else FRAME_KH
        if selector in NAMED_STATES:
            if abs(t0) > 1e-12:
                raise CliError("named initial states are defined at t = 0 only")
            return self._named_state(selector, frame), None
        wf = read_snapshot(selector)
        if wf.grid != self.grid:
            raise CliError(f"snapshot {selector} was stored on a different grid")
        if wf.frame != frame:
            raise CliError(
                f"snapshot {selector} is in the {wf.frame} frame but mode {mode} "
                f"needs {frame}; apply lab_to_kh first (khatom transform)"
            )
        parent = {"snapshot": os.path.abspath(selector), "sha256": _sha256(selector), "t": wf.t}
        sibling = os.path.join(os.path.dirname(os.path.abspath(selector)), "manifest.json")
        if os.path.exists(sibling):
            parent["manifest"] = sibling
        return wf, parent

    def _propagate(self, label, mode, initial, t0, t_final, snapshot_times, absorber, named):
        cfg = self.cfg
        dt = cfg["run.dt"]
        n_steps = int(round((t_final - t0) / dt))
        if n_steps < 1 or abs(t0 + n_steps * dt - t_final) > 1e-6:
            raise CliError(f"time span [{t0}, {t_final}] is not a whole number of dt steps")
        if mode == MODE_LAB:
            v = atomic_potential(self.grid.x)
            recorder = Recorder(MODE_LAB, self.ground, self.pairs, self.ctx)
            cache = self.cache
        else:
            v = self.avg.samples
            recorder = Recorder(MODE_KH, kh_pairs=self.pairs)
        use_absorber = (mode == MODE_LAB) if absorber == "auto" else (absorber == "on")
        job = PropagationJob(
            mode=mode,
            initial=initial,
            time=TimeGrid(t0=t0, dt=dt, n_steps=n_steps),
            v=v,
            cache=cache if mode == MODE_LAB else None,
            use_absorber=use_absorber,
            snapshot_times=tuple(sorted(snapshot_times)),
            observer=recorder,
            observer_cadence=cfg["run.cadence"],
        )
        result = propagate(job)
        segment = RunSegment(label, mode, named, result, recorder)
        self.segments.append(segment)
        write_series(self._path(f"{label}observables.csv"), recorder)
        for snap in result.snapshots:
            write_snapshot(self._path(f"{label}snapshot_t{_fmt_t(snap.t)}.snap"), snap)
        if cfg["emit.densities"]:
            self._emit_segment_densities(segment)
        self.manifest["residuals"][f"{label}final_norm"] = float(result.final.norm())
        self.manifest["residuals"][f"{label}absorbed_norm"] = float(result.absorbed_norm)
        series = recorder.series()
        self.manifest["detected_times"][label or "run"] = _detect_landmarks(
            series["autocorr_abs2"].times, np.asarray(series["autocorr_abs2"].values)
        )
        return segment

    def _emit_segment_densities(self, segment: RunSegment) -> None:
        sel = np.abs(self.grid.x) <= EMIT_HALF_WIDTH
        xs = self.grid.x[sel]
        for snap in segment.result.snapshots:
            stem = f"{segment.label}density_t{_fmt_t(snap.t)}"
            self._emit_table(f"{stem}_{snap.frame}.dat", (xs, snap.density()[sel]), "x density")
            if snap.frame == FRAME_LAB:
                kh_view = self.ctx.lab_to_kh(snap)
                self._emit_table(f"{stem}_kh.dat", (xs, kh_view.density()[sel]), "x density")

    def run_primary(self) -> RunSegment:
        cfg = self.cfg
        mode = cfg["run.mode"]
        selector = cfg["run.initial"]
        initial, parent = self._initial_state(selector, mode, cfg["run.t0"])
        t0 = initial.t if parent is not None else cfg["run.t0"]
        if parent is not None:
            self.manifest["parent"] = parent
        t_final = cfg["run.t_final"]
        if t_final is None:
            t_final = self.params.t_final
        return self._propagate(
            "", mode, initial, t0, t_final, cfg["run.snapshots"],
            cfg["run.absorber"], selector in NAMED_STATES,
        )

    def run_restart(self, primary: RunSegment) -> RunSegment:
        cfg = self.cfg
        at = cfg["restart.at"]
        match = [s for s in primary.result.snapshots if abs(s.t - at) < 1e-6]
        if not match:
            raise CliError(f"no stored snapshot at t = {at} to restart from")
        wf = match[0]
        mode = cfg["restart.mode"]
        needed = FRAME_LAB if mode == MODE_LAB else FRAME_KH
        if wf.frame != needed:
            # explicit transform stage; the restart verb proper refuses instead
            wf = self.ctx.lab_to_kh(wf)
            write_snapshot(self._path(f"snapshot_t{_fmt_t(at)}_kh.snap"), wf)
        return self._propagate(
            "restart_", mode, wf, at, cfg["restart.t_final"],
            cfg["restart.snapshots"], cfg["restart.absorber"], False,
        )

    def _export_wigner(self, stem: str, wf: WaveFunction, mass_tol: float) -> None:
        view = wf if wf.frame == FRAME_KH else self.ctx.lab_to_kh(wf)
        w = wigner(view, mass_tol=mass_tol)
        write_wigner(self._path(f"{stem}.wig"), w)
        scale = float(np.max(np.abs(w.values)))
        norm = w.values / scale if scale > 0 else w.values
        with open(self._path(f"{stem}.txt"), "w") as fh:
            fh.write("# normalized Wigner map: x p w/max|w|\n")
            fh.write(f"# t={float(w.t)!r} frame={w.frame} scale={scale!r}\n")
            p_cols = [f" {p:.6f} " for p in w.p]
            for x, row in zip(w.x, norm):
                x_col = f"{x:.6f}"
                cells = zip(p_cols, row.tolist())
                fh.write("".join(f"{x_col}{p_col}{v:.8e}\n" for p_col, v in cells))
                fh.write("\n")
        dp = w.p[1] - w.p[0]
        mass = float(np.trapezoid(np.trapezoid(w.values, dx=dp, axis=1), x=w.x))
        gx = view.grid.x
        sel = (gx >= w.x[0]) & (gx <= w.x[-1])
        window_norm = float(np.trapezoid(view.density()[sel], gx[sel]))
        self.manifest["wigner"][f"{stem}.wig"] = {
            "t": float(w.t),
            "frame": w.frame,
            "mass_deficit": abs(mass - window_norm),
            "high_p_fraction": float(momentum_tail_fraction(w, 0.25)),
            "imag_residue": w.imag_residue,
        }

    def export_state_wigners(self) -> None:
        for name in self.cfg["wigner.states"]:
            self._export_wigner(f"wigner_{name}", self._named_state(name, FRAME_KH), 1e-3)

    def export_run_wigners(self) -> None:
        wanted = self.cfg["wigner.times"]
        if wanted == "none":
            return
        for segment in self.segments:
            clean = segment.mode == MODE_KH and segment.named_initial
            mass_tol = 1e-3 if clean else LOOSE_MASS_TOL
            for snap in segment.result.snapshots:
                if wanted != "snapshots" and not any(abs(snap.t - t) < 1e-6 for t in wanted):
                    continue
                self._export_wigner(
                    f"{segment.label}wigner_t{_fmt_t(snap.t)}", snap, mass_tol
                )

    def export_portrait(self) -> None:
        choice = self.cfg["portrait.energies"]
        if choice == "none":
            return
        energies = (separatrix_energy(self.avg), _OVERLAY_ENERGY) if choice == "auto" else choice
        portrait = phase_portrait(self.avg, energies)
        with open(self._path("portrait.dat"), "w") as fh:
            fh.write("# equienergy curves of p^2/2 + v0(x); blocks: x p\n")
            for energy, branches in zip(portrait.energies, portrait.curves):
                tag = "separatrix" if abs(energy - portrait.e_sep) < 1e-12 else "regular"
                for k, (xs, ps) in enumerate(branches):
                    fh.write(f"# E={float(energy)!r} branch={k} kind={tag}\n")
                    for x, p in zip(xs, ps):
                        fh.write(f"{float(x)!r} {float(p)!r}\n")
                    fh.write("\n")

    # ---- manifest ---------------------------------------------------------

    def finalize(self, status: str = "complete", error: str | None = None) -> str:
        self.manifest["status"] = status
        self.manifest["error"] = error
        self.manifest["files"] = {
            name: _sha256(path) for name, path in sorted(self.files.items())
        }
        out = os.path.join(self.out_dir, "manifest.json")
        tmp = out + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, out)
        return out


def execute(cfg: RunConfig, out_dir: str, recipe: str | None = None) -> Pipeline:
    """The full pipeline: solves -> propagation -> transforms -> exports."""
    validate_config(cfg)
    pipe = Pipeline(cfg, out_dir, recipe)
    try:
        if cfg["emit.potential"]:
            pipe.emit_potential()
        if cfg["emit.field"]:
            pipe.emit_field()
        if cfg["emit.eigen"]:
            pipe.emit_eigen()
        if cfg["run.enabled"]:
            primary = pipe.run_primary()
            if cfg["restart.at"] is not None:
                pipe.run_restart(primary)
        pipe.export_state_wigners()
        pipe.export_run_wigners()
        pipe.export_portrait()
    except KhatomError as err:
        pipe.finalize(status="incomplete", error=f"{err.module}: {err}")
        raise
    pipe.finalize()
    return pipe


# ---- verbs -----------------------------------------------------------------


def _recipe_path(name: str) -> str:
    if os.path.exists(name):
        return name
    from importlib import resources

    candidate = resources.files("khatom") / "recipes" / f"{name}.cfg"
    if candidate.is_file():
        return str(candidate)
    raise CliError(f"unknown recipe {name!r} (not a file, not a packaged recipe)")


def _verb_config(args, **forced) -> RunConfig:
    overrides = list(args.override)
    cfg = load_config(args.config, overrides)
    if forced:
        values = dict(cfg.values)
        values.update(forced)
        cfg = RunConfig(values, cfg.explicit | frozenset(forced))
    return cfg


def _cmd_plain(args, **forced) -> int:
    cfg = _verb_config(args, **forced)
    execute(cfg, args.out)
    return 0


def _cmd_run(args) -> int:
    path = _recipe_path(args.recipe)
    cfg = load_config(path, list(args.override))
    execute(cfg, args.out, recipe=os.path.splitext(os.path.basename(path))[0])
    return 0


def _cmd_transform(args) -> int:
    cfg = _verb_config(args)
    validate_config(cfg)
    pipe = Pipeline(cfg, args.out)
    wf = read_snapshot(args.snapshot)
    if wf.grid != pipe.grid:
        raise CliError(f"snapshot {args.snapshot} was stored on a different grid")
    if wf.frame != FRAME_LAB:
        raise CliError(f"snapshot {args.snapshot} is already in the {wf.frame} frame")
    out = pipe.ctx.lab_to_kh(wf)
    stem = os.path.splitext(os.path.basename(args.snapshot))[0]
    write_snapshot(pipe._path(f"{stem}_kh.snap"), out)
    pipe.manifest["parent"] = {
        "snapshot": os.path.abspath(args.snapshot),
        "sha256": _sha256(args.snapshot),
        "t": wf.t,
    }
    pipe.finalize()
    return 0


def _cmd_wigner(args) -> int:
    cfg = _verb_config(args)
    validate_config(cfg)
    pipe = Pipeline(cfg, args.out)
    for path in args.snapshot:
        wf = read_snapshot(path)
        if wf.frame != FRAME_KH:
            raise CliError(
                f"snapshot {path} is in the {wf.frame} frame; apply lab_to_kh "
                "first (khatom transform)"
            )
        stem = os.path.splitext(os.path.basename(path))[0]
        pipe._export_wigner(f"wigner_{stem}", wf, LOOSE_MASS_TOL)
    pipe.finalize()
    return 0


def _cmd_restart(args) -> int:
    cfg = _verb_config(args)
    if cfg["restart.t_final"] is None:
        raise CliError("restart needs restart.t_final")
    forced = {
        "run.enabled": True,
        "run.mode": cfg["restart.mode"],
        "run.initial": args.snapshot,
        "run.t_final": cfg["restart.t_final"],
        "run.snapshots": cfg["restart.snapshots"],
        "run.absorber": cfg["restart.absorber"],
        "restart.at": None,
    }
    cfg = _verb_config(args, **forced)
    execute(cfg, args.out)
    return 0


def _cmd_portrait(args) -> int:
    forced = {"run.enabled": False}
    if _verb_config(args)["portrait.energies"] == "none":
        forced["portrait.energies"] = "auto"
    return _cmd_plain(args, **forced)


VERBS = {
    "eigen": partial(_cmd_plain, **{"run.enabled": False, "emit.eigen": True}),
    "potential": partial(_cmd_plain, **{"run.enabled": False, "emit.potential": True}),
    "field": partial(_cmd_plain, **{"run.enabled": False, "emit.field": True}),
    "propagate": _cmd_plain,
    "observables": partial(_cmd_plain, **{"run.snapshots": (), "wigner.times": "none"}),
    "portrait": _cmd_portrait,
    "transform": _cmd_transform,
    "wigner": _cmd_wigner,
    "run": _cmd_run,
    "restart": _cmd_restart,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="khatom",
        description="1D strong-field dynamics in and out of the oscillating frame",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="key = value config file")
        sp.add_argument("--out", default="khatom_out", help="output directory")
        sp.add_argument(
            "--override", action="append", default=[], metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )

    common(sub.add_parser("eigen", help="solve and emit the bound states"))
    common(sub.add_parser("potential", help="emit bare and averaged potentials"))
    common(sub.add_parser("field", help="emit the pulse field table"))
    common(sub.add_parser("propagate", help="propagate and store snapshots"))
    common(sub.add_parser("observables", help="propagate, observables only"))
    sp = sub.add_parser("transform", help="convert a lab snapshot to the kh frame")
    sp.add_argument("snapshot")
    common(sp)
    sp = sub.add_parser("wigner", help="Wigner map of stored kh snapshots")
    sp.add_argument("snapshot", nargs="+")
    common(sp)
    common(sub.add_parser("portrait", help="emit equienergy curves"))
    sp = sub.add_parser("run", help="execute a figure recipe")
    sp.add_argument("recipe")
    common(sp)
    sp = sub.add_parser("restart", help="continue from a stored snapshot")
    sp.add_argument("snapshot")
    common(sp)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return VERBS[args.verb](args)
    except KhatomError as err:
        print(f"khatom: [{err.module}] {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
