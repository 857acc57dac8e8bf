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
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import __version__
from .core import (FRAME_KH, FRAME_LAB, KhatomError, SpatialGrid, TimeGrid, WaveFunction,
                   centred_box)
from .eigen import (
    coherent_superposition,
    imaginary_time_ground_state,
    kh_bound_states,
    rayleigh_energy,
)
from .frame import FrameTransformContext
from .laser import PulseParams, build_field_cache, check_field_step
from .observables import Recorder, write_series
from .phasespace import (
    check_windows,
    momentum_tail_fraction,
    phase_portrait,
    separatrix_energy,
    wigner,
    write_wigner,
)
from .potential import atomic_potential, check_alpha0, kh_averaged_potential
from .propagator import (
    ABSORBER_HALF_WIDTH,
    MODE_FRAMES,
    MODE_KH,
    MODE_LAB,
    SplitOperator,
    check_absorber,
    propagate,
    read_snapshot,
    write_snapshot,
)


class CliError(KhatomError):
    module = "cli"


NAMED_STATES = ("atomic_ground", "kh_ground", "kh_excited", "kh_coherent")

# half-width of the region written to plot-ready density / potential tables
EMIT_HALF_WIDTH = 150.0

# mass tolerance handed to the Wigner transform for states that carry
# continuum flux through the analysis window (every segment that is not
# bound); the measured deficit is recorded in the manifest
LOOSE_MASS_TOL = 0.05

_OVERLAY_ENERGY = 0.0125  # outermost equienergy curve drawn on the maps

# the probability outside its box that a bound segment may cut from its start;
# a start with more steps the whole grid
BOX_CUT_TOL = 1e-15


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise CliError(f"expected a boolean, got {raw!r}")


def _parse_number(kind=float, ok=None, need: str = ""):
    """A finite float or int; ok, when given, is the key's range rule and need says it."""

    def parse(raw: str):
        try:
            val = kind(raw)
        except ValueError:
            raise CliError(f"expected {'an integer' if kind is int else 'a number'}, got {raw!r}")
        if not math.isfinite(val):
            raise CliError(f"must be finite, got {raw!r}")
        if ok is not None and not ok(val):
            raise CliError(f"must be {need}, got {raw!r}")
        return val

    return parse


def _parse_optional(parse):
    return lambda raw: None if raw.strip().lower() == "none" else parse(raw)


def _parse_choice(options):
    def parse(raw: str) -> str:
        val = raw.strip()
        if val not in options:
            raise CliError(f"expected one of {options}, got {raw!r}")
        return val

    return parse


def _parse_list(item):
    """A comma list of items: () when empty or none."""

    def parse(raw: str):
        val = raw.strip()
        if not val or val.lower() == "none":
            return ()
        return tuple(item(tok.strip()) for tok in val.split(","))

    return parse


_number = _parse_number()
_positive = _parse_number(float, lambda v: v > 0, "positive")
_number_or_none = _parse_optional(_number)
_count = _parse_number(int)
_times = _parse_list(_number)

CONFIG_SPEC = {
    # grid.* and pulse.* are checked whole by SpatialGrid and PulseParams (load_config)
    "grid.x_min": (_number, -1500.0),
    "grid.x_max": (_number, 1500.0),
    "grid.n_points": (_count, 16384),
    "pulse.period": (_number, 100.0),
    "pulse.intensity_wcm2": (_number, 5.7e13),
    "pulse.ramp_cycles": (_count, 2),
    "pulse.flat_end_cycles": (_count, 10),
    "pulse.total_cycles": (_count, 12),
    "kh.alpha0": (_positive, 10.23),
    # run.* and restart.* spans and times are resolved to steps by the plan (validate_config)
    "run.enabled": (_parse_bool, True),
    "run.mode": (_parse_choice(tuple(MODE_FRAMES)), MODE_LAB),
    "run.initial": (str, "atomic_ground"),
    "run.t_final": (_number_or_none, None),
    "run.dt": (_positive, 0.05),
    "run.snapshots": (_times, ()),
    "restart.at": (_number_or_none, None),
    "restart.t_final": (_number_or_none, None),
    "restart.snapshots": (_times, ()),
    "wigner.times": (_parse_choice(("none", "snapshots")), "none"),
    "wigner.states": (_parse_list(_parse_choice(NAMED_STATES)), ()),
    "portrait.energies": (_parse_choice(("none", "auto")), "none"),
    "emit.potential": (_parse_bool, False),
    "emit.field": (_parse_bool, False),
    "emit.eigen": (_parse_bool, False),
    "emit.densities": (_parse_bool, False),
}


def _echo(cfg: dict) -> dict:
    """The config as the manifest records it: lists for tuples."""
    return {key: list(val) if isinstance(val, tuple) else val for key, val in sorted(cfg.items())}


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


def _config_grid(cfg: dict) -> SpatialGrid:
    return SpatialGrid(cfg["grid.x_min"], cfg["grid.x_max"], cfg["grid.n_points"])


def _config_pulse(cfg: dict) -> PulseParams:
    return PulseParams(
        intensity=cfg["pulse.intensity_wcm2"],
        period=cfg["pulse.period"],
        ramp_cycles=cfg["pulse.ramp_cycles"],
        flat_end_cycles=cfg["pulse.flat_end_cycles"],
        total_cycles=cfg["pulse.total_cycles"],
    )


def _field_step(cfg: dict) -> float:
    """The field cache's node spacing: half of run.dt, so step midpoints are nodes."""
    return 0.5 * cfg["run.dt"]


def _record_stride(dt: float) -> int:
    """The steps between two records: one record per a.u. of time."""
    return max(1, round(1.0 / dt))


def load_config(path=None, overrides=()) -> dict:
    """The defaults, then the file, then the overrides, each value parsed and
    checked; the grid.* and pulse.* keys are checked by building their objects."""
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw.update(parse_config_lines(fh, path))
        except OSError as err:
            raise CliError(f"cannot read config {path}: {err.strerror}")
    for item in overrides:
        if "=" not in item:
            raise CliError(f"override must be key=value, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    cfg = {key: default for key, (_, default) in CONFIG_SPEC.items()}
    for key, text in raw.items():
        if key not in CONFIG_SPEC:
            raise CliError(f"unknown config key: {key}")
        parse, _ = CONFIG_SPEC[key]
        try:
            cfg[key] = parse(text)
        except CliError as err:
            raise CliError(f"bad value for {key}: {err}")
    names = cfg["wigner.states"]
    twice = sorted({name for name in names if names.count(name) > 1})
    if twice:  # each would be mapped again and written over its own file
        raise CliError(f"bad value for wigner.states: {', '.join(twice)} listed more than once")
    for section, build in (("grid", _config_grid), ("pulse", _config_pulse)):
        try:
            build(cfg)
        except KhatomError as err:
            raise CliError(f"bad {section}.* values: {err}")
    return cfg


def _steps(key: str, times, time: TimeGrid) -> tuple:
    """The step of each of the key's times, which must lie on the time grid, within 1e-6."""
    steps = tuple(round((t - time.t0) / time.dt) for t in times)
    for t, k in zip(times, steps):
        if abs(time.time_at(k) - t) > 1e-6:
            raise CliError(f"{key} time {t:g} is not a whole number of run.dt = "
                           f"{time.dt:g} steps from {time.t0:g}")
        if not 0 <= k <= time.n_steps:
            span = f"[{time.t0:g}, {time.t_end:g}]"
            raise CliError(f"{key} time {t:g} lies outside the run span {span}")
    return steps


def _stamp(t: float) -> str:
    """t as file names write it: 15 significant digits, past the last-ulp noise of t0 + k*dt."""
    return f"{t:.15g}"


def _time_grid(key: str, t0: float, t1: float, dt: float) -> TimeGrid:
    """The steps from t0 to the key's t1: a whole number of dt, at least one."""
    time = TimeGrid(t0=t0, dt=dt, n_steps=round((t1 - t0) / dt))
    if time.n_steps < 1:
        raise CliError(f"{key} {t1:g} leaves no run.dt = {dt:g} step after {t0:g}")
    _steps(key, (t1,), time)
    return time


@dataclass
class RunSegment:
    """One planned propagation, each configured time resolved to a step of
    its time grid; run_segment fills in its result."""

    label: str  # "" for the primary run, "restart_" for the continuation
    mode: str
    initial: str | WaveFunction | None  # a named state, the stored state the plan checked, or None
    time: TimeGrid
    snapshot_steps: tuple  # sorted, distinct
    bound: bool  # stays in the averaged well: no absorber, 1e-3 Wigner mass tolerance, energy_drift
    start_step: int | None = None  # the restart's start, a step of the primary
    parent: dict | None = None  # the manifest's record of the snapshot file initial came from
    result: object = None


def _segment(cfg: dict, section: str, initial, time: TimeGrid, bound, start=None) -> RunSegment:
    """The segment that the section's snapshot keys set.  The primary steps
    run.mode and its restart kh_averaged.  Both are bound when the primary
    steps kh_averaged from a KH eigenstate, their superposition or a state
    that a bound run at the same kh.alpha0 stored: only those stay in the
    averaged well, and every other segment carries continuum to the absorber."""
    steps = tuple(sorted(set(_steps(f"{section}.snapshots", cfg[f"{section}.snapshots"], time))))
    return RunSegment(
        "" if section == "run" else f"{section}_",
        cfg["run.mode"] if section == "run" else MODE_KH, initial, time, steps, bound, start,
    )


def validate_config(cfg: dict) -> list[RunSegment]:
    """Plans the propagation: the primary segment and its restart, each
    checked against the other keys, and each configured time resolved to a
    step of its segment; [] when there is no run.  The grid must hold the
    absorber when a segment is not bound, the Wigner window when any
    map is planned, and the wells of kh.alpha0 when a stage builds them;
    half of run.dt must divide the pulse when a lab_full segment, a moved
    lab snapshot or emit.field uses the field.  Each check raises its own module's error."""
    plan = _plan(cfg)
    grid = _config_grid(cfg)
    if cfg["emit.field"] or any(seg.mode == MODE_LAB for seg in plan):
        check_field_step(_config_pulse(cfg), _field_step(cfg))
    if not all(seg.bound for seg in plan):
        check_absorber(grid)
    if cfg["wigner.states"] or (cfg["wigner.times"] == "snapshots"
                                and any(seg.snapshot_steps for seg in plan)):
        check_windows(grid)
    if (plan or cfg["emit.potential"] or cfg["emit.eigen"] or cfg["portrait.energies"] != "none"
            or set(cfg["wigner.states"]) - {"atomic_ground"}):
        check_alpha0(grid, cfg["kh.alpha0"])
    return plan


def _plan(cfg: dict) -> list[RunSegment]:
    initial = cfg["run.initial"]
    if initial not in NAMED_STATES and not os.path.exists(initial):
        raise CliError(f"initial-state snapshot file not found: {initial}")
    at = cfg["restart.at"]
    if at is not None:
        if not cfg["run.enabled"]:
            raise CliError("restart.at needs a primary run to restart from")
        if cfg["restart.t_final"] is None:
            raise CliError("restart.at needs restart.t_final")
    if not cfg["run.enabled"]:
        return []
    for key in ("restart.t_final", "restart.snapshots"):
        if at is None and cfg[key] not in (None, ()):
            raise CliError(f"{key} needs restart.at")
    mode, dt = cfg["run.mode"], cfg["run.dt"]
    if initial in NAMED_STATES:  # defined at t = 0
        t0, bound, parent = 0.0, mode == MODE_KH and initial != "atomic_ground", None
    else:  # a snapshot brings its start time, and its run's manifest the bound flag
        wf, manifest, stored = _read_stored(initial)
        _check_stored(cfg, initial, wf, MODE_FRAMES[mode], stored)
        parent = {"snapshot": os.path.abspath(initial), "sha256": _sha256(initial), "t": wf.t}
        parent = {**parent, "manifest": manifest} if stored else parent
        initial, t0, bound = wf, wf.t, mode == MODE_KH and stored.get("bound") is True and (
            stored["config"].get("kh.alpha0") == cfg["kh.alpha0"])
    t_final = cfg["run.t_final"]
    if t_final is None:
        t_final = _config_pulse(cfg).t_final
    time = _time_grid("run.t_final", t0, t_final, dt)
    plan = []
    if at is not None:  # before run.snapshots, so that an off-step restart.at is named
        (start,) = _steps("restart.at", (at,), time)
        restart = _time_grid("restart.t_final", at, cfg["restart.t_final"], dt)
        plan.append(_segment(cfg, "restart", None, restart, bound, start))
    plan.insert(0, _segment(cfg, "run", initial, time, bound))
    plan[0].parent = parent
    if at is not None and start not in plan[0].snapshot_steps:
        raise CliError("restart.at must match one of run.snapshots")
    return plan


def _repr_rows(columns):
    """Text rows of repr(float(v)) joined by spaces, one %r template for all."""
    template = " ".join(["%r"] * len(columns)) + "\n"
    return [template % tuple(row) for row in np.array(columns, dtype=float).T.tolist()]


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_stored(path: str) -> tuple[WaveFunction, str, dict]:
    """The snapshot at path, the manifest.json beside it, which records the run
    that stored it, and its content: {} when there is none; each read once."""
    wf = read_snapshot(path)
    manifest = os.path.join(os.path.dirname(os.path.abspath(path)), "manifest.json")
    try:
        with open(manifest) as fh:
            stored = json.load(fh)
    except FileNotFoundError:
        return wf, manifest, {}
    except (OSError, ValueError) as err:
        raise CliError(f"cannot read run manifest {manifest}: {err}")
    if not isinstance(stored, dict) or not isinstance(stored.get("config"), dict):
        raise CliError(f"cannot read run manifest {manifest}: "
                       "not a JSON object, or its config is not one")
    return wf, manifest, stored


def _check_stored(cfg: dict, path: str, wf: WaveFunction, frame: str, stored: dict) -> None:
    """Checks that the config can take the snapshot wf, stored at path, into
    the frame: on its grid, and for a lab one moved to the KH frame, with the
    pulse that stored (its run's manifest) records, on a field step that divides it."""
    if wf.grid != _config_grid(cfg):
        raise CliError(f"snapshot {path} was stored on a different grid")
    if wf.frame == frame:
        return
    if frame == FRAME_LAB:  # nothing moves a state back to the lab frame
        raise CliError(f"snapshot {path} is in the kh frame; a lab_full run needs a lab one")
    stored = stored.get("config", {})
    for key in CONFIG_SPEC:
        if key.startswith("pulse.") and key in stored and stored[key] != cfg[key]:
            raise CliError(f"snapshot {path} was stored with {key} = {stored[key]}, not {cfg[key]}")
    check_field_step(_config_pulse(cfg), _field_step(cfg))


def _segment_box(grid: SpatialGrid, initial: WaveFunction, bound: bool):
    """The slice of grid that a segment steps, and the grid of its samples.

    A bound segment steps the centred power-of-two box that holds
    |x| <= ABSORBER_HALF_WIDTH, where edge_fraction is read, on a grid
    whose x is grid.x[box] bit for bit; its state decays away from the
    wells.  It steps the whole grid when its start has more than
    BOX_CUT_TOL of probability outside the box, or when no grid of the
    box's points has those x.  Every other segment steps the whole grid.
    """
    whole, box = slice(0, grid.n_points), centred_box(grid, ABSORBER_HALF_WIDTH)
    if not bound or box == whole:
        return whole, grid
    psi, x = initial.psi, grid.x
    cut = grid.dx * float(np.sum(np.abs(np.concatenate((psi[:box.start], psi[box.stop:]))) ** 2))
    sub = SpatialGrid(float(x[box.start]), float(x[box.stop]), box.stop - box.start)
    if cut > BOX_CUT_TOL or sub.dx != grid.dx or not np.array_equal(sub.x, x[box]):
        return whole, grid
    return box, sub


def _cut(wf: WaveFunction, grid: SpatialGrid, box: slice) -> WaveFunction:
    """wf's samples in box, on grid, the box's grid; wf itself when grid is its own."""
    return wf if wf.grid == grid else WaveFunction(grid, wf.psi[box], wf.t, wf.frame)


def _widen(wf: WaveFunction, grid: SpatialGrid, box: slice) -> WaveFunction:
    """wf, stepped on box, on the whole grid, zero outside the box; wf itself when it is on it."""
    pad = (box.start, grid.n_points - box.stop)
    return wf if wf.grid == grid else WaveFunction(grid, np.pad(wf.psi, pad), wf.t, wf.frame)


def _detect_landmarks(times: np.ndarray, abs2: np.ndarray, period: float) -> dict:
    """Locate beat landmarks on an autocorrelation magnitude series.

    Smooths over the odd row count nearest one field period at the
    series' record spacing, to suppress carrier ripple, then reads local
    extrema (well revivals / opposite-well localization) and 0.5
    crossings (packet midway between the wells).  Informational: the
    values are recorded, never asserted against.
    """
    n = len(times)
    if n < 16:
        return {"left_well": [], "right_well": [], "midpoint": []}
    # rounded first, so jitter in the spacing cannot tip an even row count
    # (100 at 1 a.u.) to the odd count below it
    window = min(2 * int(round(period / (times[1] - times[0]), 6) // 2) + 1, (n // 4) * 2 + 1)
    smooth = np.convolve(abs2, np.ones(window) / window, mode="same")
    k = np.arange(window, n - window)  # the rows a window from either end; window >= 1
    before, here, after = smooth[k - 1], smooth[k], smooth[k + 1]
    top = (here >= before) & (here > after)
    bottom = ~top & (here <= before) & (here < after)
    r0, r1 = before - 0.5, here - 0.5
    cross = (r0 != 0.0) & ~(r0 * r1 > 0)
    t0, t1, r0, r1 = times[k - 1][cross], times[k][cross], r0[cross], r1[cross]
    return {"left_well": times[k[top]].tolist(), "right_well": times[k[bottom]].tolist(),
            "midpoint": (t0 + r0 / (r0 - r1) * (t1 - t0)).tolist()}


class Pipeline:
    """One CLI invocation: lazy physics objects, staged emission, manifest."""

    def __init__(self, cfg: dict, out_dir: str, recipe: str | None = None, plan=()):
        self.cfg = cfg
        self.plan = plan  # validate_config's segments, which run_segment runs in turn
        self.out_dir = out_dir
        try:  # a directory of its own, so that it holds its manifest's files alone
            os.makedirs(out_dir, exist_ok=True)
            used = os.listdir(out_dir)
        except OSError as err:
            raise CliError(f"cannot make the output directory {out_dir}: {err.strerror}")
        if used:
            raise CliError(f"--out {out_dir} is not empty; each command writes a new directory")
        self.files: dict[str, str] = {}
        self.manifest: dict = {
            "version": __version__,
            "recipe": recipe,
            "config": _echo(cfg),
            "derived": {"alpha0": float(cfg["kh.alpha0"])},
            "residuals": {},
            "detected_times": {},
            "wigner": {},
            "parent": None,
            "status": "incomplete",
            "error": None,
            "bound": plan[0].bound if plan else None,  # read back by a run from a snapshot
        }

    # ---- lazy physics objects -------------------------------------------

    @cached_property
    def grid(self) -> SpatialGrid:
        return _config_grid(self.cfg)

    @cached_property
    def params(self) -> PulseParams:
        params = _config_pulse(self.cfg)
        der = self.manifest["derived"]
        der["eps0"] = float(params.eps0)
        der["omega"] = float(params.omega)
        der["alpha0_quiver"] = float(params.alpha0)
        return params

    @cached_property
    def cache(self):
        cache = build_field_cache(self.params, _field_step(self.cfg))
        res_a, res_alpha = cache.endpoint_residuals
        self.manifest["residuals"]["field_endpoint_a"] = float(res_a)
        self.manifest["residuals"]["field_endpoint_alpha"] = float(res_alpha)
        return cache

    @cached_property
    def ctx(self) -> FrameTransformContext:
        return FrameTransformContext(cache=self.cache, grid=self.grid)

    @cached_property
    def avg(self):
        return kh_averaged_potential(self.grid, self.cfg["kh.alpha0"])

    @cached_property
    def pairs(self):
        pairs = kh_bound_states(self.avg)
        for k, pair in enumerate(pairs):
            self.manifest["residuals"][f"eigen_residual_kh_{k}"] = pair.residual
        if len(pairs) < 2:
            raise CliError(f"the averaged potential at kh.alpha0 = {self.cfg['kh.alpha0']:g} "
                           f"binds {len(pairs)} state(s); the KH pair needs two")
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
        if name in self.files:  # a second write would leave one file, listed once
            raise CliError(f"{name} is already written in this run")
        path = os.path.join(self.out_dir, name)
        self.files[name] = path
        return path

    def _emit_table(self, name: str, columns, header: str) -> None:
        with open(self._path(name), "w") as fh:
            fh.write(f"# {header}\n")
            fh.writelines(_repr_rows(columns))

    def _emit_window(self, name: str, values: np.ndarray, column: str) -> None:
        """The table "x column" of values on the grid points with |x| <= EMIT_HALF_WIDTH."""
        sel = np.abs(self.grid.x) <= EMIT_HALF_WIDTH
        self._emit_table(name, (self.grid.x[sel], values[sel]), f"x {column}")

    # ---- stages ------------------------------------------------------------

    def emit_potential(self) -> None:
        self._emit_window("potential_bare.dat", atomic_potential(self.grid.x), "v")
        self._emit_window("potential_averaged.dat", self.avg.samples, "v0")

    def emit_field(self) -> None:
        cache = self.cache
        dt = self.cfg["run.dt"]
        sl = slice(None, None, round(_record_stride(dt) * dt / cache.dt_field))
        self._emit_table(
            "field.dat",
            (cache.times[sl], cache.eps[sl], cache.a[sl], cache.alpha[sl]),
            "t eps a alpha",
        )

    def emit_eigen(self) -> None:
        self._emit_window("atomic_ground.dat", self.ground.state.density(), "density")
        for k, pair in enumerate(self.pairs):
            self._emit_window(f"kh_state_{k}.dat", pair.state.density(), "density")
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

    def _initial_state(self, seg: RunSegment) -> WaveFunction:
        """The segment's start: a named state, or a stored one: the primary's
        snapshot at the restart's start step, or the state the plan read from a
        snapshot file (recorded as the run's parent).  A stored lab state that
        starts a kh_averaged segment is moved to the KH frame as <stem>_kh.snap."""
        frame = MODE_FRAMES[seg.mode]
        if isinstance(seg.initial, str):
            return self._named_state(seg.initial, frame)
        if seg.initial is None:
            primary = self.plan[0]
            wf = primary.result.snapshots[primary.snapshot_steps.index(seg.start_step)]
            stem = f"snapshot_t{_stamp(seg.time.t0)}"
        else:
            wf = seg.initial
            self.manifest["parent"] = seg.parent
            stem = os.path.splitext(os.path.basename(seg.parent["snapshot"]))[0]
        if wf.frame != frame:
            wf = self.ctx.lab_to_kh(wf)
            write_snapshot(self._path(f"{stem}_kh.snap"), wf)
        return wf

    def run_segment(self, seg: RunSegment) -> None:
        label, mode = seg.label, seg.mode
        initial = self._initial_state(seg)
        # the segment runs on its box, and its states leave it on the whole grid
        box, grid = _segment_box(self.grid, initial, seg.bound)
        if mode == MODE_LAB:  # never bound: the box is the whole grid
            v = atomic_potential(grid.x)
            op = SplitOperator(grid, v, seg.time, mode, self.cache, not seg.bound)
            recorder = Recorder(self.ground, self.pairs, self.ctx)
        else:
            op = SplitOperator(grid, self.avg.samples[box], seg.time, mode, absorber=not seg.bound)
            recorder = Recorder(kh_pairs=[replace(p, state=_cut(p.state, grid, box))
                                          for p in self.pairs])
        seg.result = result = propagate(
            op, _cut(initial, grid, box), seg.snapshot_steps, recorder, _record_stride(seg.time.dt)
        )
        result.snapshots = [_widen(wf, self.grid, box) for wf in result.snapshots]
        result.final = _widen(result.final, self.grid, box)
        if seg.bound:  # no field, no absorber: the Rayleigh energy keeps to the splitting error
            e0, e1 = (rayleigh_energy(self.avg.samples, wf) for wf in (initial, result.final))
            self.manifest["residuals"][f"{label}energy_drift"] = abs((e1 - e0) / e0)
        write_series(self._path(f"{label}observables.csv"), recorder)
        for snap in result.snapshots:
            write_snapshot(self._path(f"{label}snapshot_t{_stamp(snap.t)}.snap"), snap)
        if self.cfg["emit.densities"]:
            self._emit_segment_densities(seg)
        residuals = self.manifest["residuals"]  # |psi|^2 in the box, beyond |x| = 600, absorbed
        residuals[f"{label}box_points"] = grid.n_points
        density, edge = result.final.density(), np.abs(self.grid.x) > ABSORBER_HALF_WIDTH
        residuals[f"{label}final_norm"] = self.grid.dx * float(np.sum(density))
        residuals[f"{label}edge_fraction"] = self.grid.dx * float(np.sum(density[edge]))
        residuals[f"{label}absorbed_norm"] = float(result.absorbed_norm)
        self.manifest["detected_times"][label or "run"] = _detect_landmarks(
            recorder.column("t"), recorder.column("autocorr_abs2"), self.cfg["pulse.period"]
        )

    def _emit_segment_densities(self, segment: RunSegment) -> None:
        for snap in segment.result.snapshots:
            stem = f"{segment.label}density_t{_stamp(snap.t)}"
            self._emit_window(f"{stem}_{snap.frame}.dat", snap.density(), "density")
            if snap.frame == FRAME_LAB:
                kh_view = self.ctx.lab_to_kh(snap)
                self._emit_window(f"{stem}_kh.dat", kh_view.density(), "density")

    def _export_wigner(self, stem: str, wf: WaveFunction, mass_tol: float) -> None:
        view = wf if wf.frame == FRAME_KH else self.ctx.lab_to_kh(wf)
        w = wigner(view, mass_tol=mass_tol)
        write_wigner(self._path(f"{stem}.wig"), w)
        scale = float(np.max(np.abs(w.values)))
        norm = w.values / scale if scale > 0 else w.values
        with open(self._path(f"{stem}.txt"), "w") as fh:
            fh.write("# normalized Wigner map: x p w/max|w|\n")
            fh.write(f"# t={float(w.t)!r} frame={w.frame} scale={scale!r}\n")
            # "x p w" lines: the p columns go into the template once per map,
            # the x column once per row
            cells = [f" {p:.6f} %.8e\n" for p in w.p]
            for x, row in zip(w.x, norm.tolist()):
                x_col = f"{x:.6f}"
                fh.write((x_col + x_col.join(cells)) % tuple(row))
                fh.write("\n")
        self.manifest["wigner"][f"{stem}.wig"] = {
            "t": float(w.t),
            "frame": w.frame,
            "mass_deficit": w.mass_deficit,
            "high_p_fraction": float(momentum_tail_fraction(w)),
            "imag_residue": w.imag_residue,
        }

    def export_state_wigners(self) -> None:
        for name in self.cfg["wigner.states"]:
            self._export_wigner(f"wigner_{name}", self._named_state(name, FRAME_KH), 1e-3)

    def export_run_wigners(self) -> None:
        if self.cfg["wigner.times"] == "none":
            return
        for segment in self.plan:
            mass_tol = 1e-3 if segment.bound else LOOSE_MASS_TOL
            for snap in segment.result.snapshots:
                self._export_wigner(f"{segment.label}wigner_t{_stamp(snap.t)}", snap, mass_tol)

    def export_portrait(self) -> None:
        if self.cfg["portrait.energies"] == "none":
            return
        e_sep = self.manifest["derived"]["e_separatrix"] = separatrix_energy(self.avg)
        energies = (e_sep, _OVERLAY_ENERGY)
        with open(self._path("portrait.dat"), "w") as fh:
            fh.write("# equienergy curves of p^2/2 + v0(x); blocks: x p\n")
            curves = zip(energies, ("separatrix", "regular"), phase_portrait(self.avg, energies))
            for energy, tag, branches in curves:
                for k, (xs, ps) in enumerate(branches):
                    fh.write(f"# E={float(energy)!r} branch={k} kind={tag}\n")
                    fh.writelines(_repr_rows((xs, ps)))
                    fh.write("\n")

    # ---- manifest ---------------------------------------------------------

    @contextmanager
    def finalizing(self):
        """Writes the manifest on leaving the block: incomplete, naming the
        module, when a KhatomError ends it."""
        try:
            yield self
        except KhatomError as err:
            self.finalize(status="incomplete", error=f"{err.module}: {err}")
            raise
        self.finalize()

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


def execute(cfg: dict, out_dir: str, recipe: str | None = None) -> Pipeline:
    """The full pipeline: solves -> propagation -> transforms -> exports;
    the bound-state tables are written last."""
    plan = validate_config(cfg)
    pipe = Pipeline(cfg, out_dir, recipe, plan)
    with pipe.finalizing():
        if cfg["emit.eigen"] or plan:
            # the KH pairs first: a potential that binds fewer than two
            # states fails before any file is written
            pipe.pairs
        if cfg["emit.potential"]:
            pipe.emit_potential()
        if cfg["emit.field"]:
            pipe.emit_field()
        if plan and cfg["run.t_final"] is None:
            pipe.params  # the run ends with the pulse: record the pulse's derived values
        for seg in plan:
            pipe.run_segment(seg)
        pipe.export_state_wigners()
        pipe.export_run_wigners()
        pipe.export_portrait()
        if cfg["emit.eigen"]:
            pipe.emit_eigen()
    return pipe


# ---- verbs -----------------------------------------------------------------


def _recipe_path(name: str) -> str:
    if os.path.isfile(name):
        return name
    from importlib import resources

    candidate = resources.files("khatom") / "recipes" / f"{name}.cfg"
    if candidate.is_file():
        return str(candidate)
    raise CliError(f"unknown recipe {name!r} (not a file, not a packaged recipe)")


def _cmd_run(args) -> int:
    """Runs a packaged recipe, a config file, or with neither the defaults."""
    path = None if args.recipe is None else _recipe_path(args.recipe)
    recipe = None if path is None else os.path.splitext(os.path.basename(path))[0]
    execute(load_config(path, list(args.override)), args.out, recipe=recipe)
    return 0


def _cmd_wigner(args) -> int:
    cfg = load_config(args.config, list(args.override))
    jobs, sources = [], {}
    for path in args.snapshot:
        stem = os.path.splitext(os.path.basename(path))[0]
        if stem in sources:  # both maps would be written to one file
            raise CliError(f"snapshots {sources[stem]} and {path} both map to wigner_{stem}.wig")
        sources[stem] = path
        wf, _, stored = _read_stored(path)
        if wf.frame == FRAME_LAB:  # mapped in the KH frame, as a run maps its lab snapshots
            _check_stored(cfg, path, wf, FRAME_KH, stored)
        check_windows(wf.grid)
        # the mass tolerance that the run which stored the snapshot held its maps to
        bound = stored.get("bound") is True
        jobs.append((f"wigner_{stem}", wf, 1e-3 if bound else LOOSE_MASS_TOL))
    with Pipeline(cfg, args.out).finalizing() as pipe:
        for job in jobs:
            pipe._export_wigner(*job)
    return 0


# verb: (handler, help, positional argument and its nargs).  A run's config
# is its positional argument; wigner takes --config for the grid and pulse
# that move a lab snapshot
VERBS = {
    "run": (_cmd_run, "run a packaged recipe, a config file, or the defaults", ("recipe", "?")),
    "wigner": (_cmd_wigner, "Wigner map of stored snapshots, in the kh frame", ("snapshot", "+")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="khatom",
        description="1D strong-field dynamics in and out of the oscillating frame",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, help_text, (name, nargs)) in VERBS.items():
        sp = sub.add_parser(verb, help=help_text)
        sp.add_argument(name, nargs=nargs)
        if verb == "wigner":
            sp.add_argument("--config", default=None, help="key = value config file")
        sp.add_argument("--out", default="khatom_out", help="output directory")
        sp.add_argument(
            "--override", action="append", default=[], metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return VERBS[args.verb][0](args)
    except KhatomError as err:
        print(f"khatom: [{err.module}] {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
