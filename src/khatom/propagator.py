"""Split-operator propagation with absorbing boundaries.

Two modes: lab_full steps the driven Hamiltonian p^2/2 + V(x) - x*eps(t)
with the field sampled at the step midpoint; kh_averaged steps the
field-free p^2/2 + V0(x) (the cycle-averaged potential), which is how the
simplified oscillating-frame dynamics is realized.  Strang splitting,
half potential phases around a full kinetic phase, one absorber mask
application per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, ifft

from .core import (
    FRAME_KH,
    FRAME_LAB,
    GridError,
    KhatomError,
    SpatialGrid,
    TimeGrid,
    WaveFunction,
    phase_ramp,
    read_container,
)
from .laser import FieldCache

__all__ = [
    "MODE_LAB",
    "MODE_KH",
    "AbsorberConfig",
    "PropagationJob",
    "PropagationResult",
    "PropagatorError",
    "SplitOperator",
    "build_absorber_mask",
    "propagate",
    "write_snapshot",
    "read_snapshot",
]

MODE_LAB = "lab_full"
MODE_KH = "kh_averaged"

SNAPSHOT_MAGIC = "KHPS1"


class PropagatorError(KhatomError):
    module = "propagator"


@dataclass(frozen=True)
class AbsorberConfig:
    """Multiplicative mask: 1 inside |x| <= inner_half_width, then a
    gentle cos^power rolloff reaching ~0 at the grid edge."""

    inner_half_width: float = 600.0
    power: float = 0.125


def build_absorber_mask(grid: SpatialGrid, config: AbsorberConfig | None = None) -> np.ndarray:
    if config is None:
        config = AbsorberConfig()
    a = config.inner_half_width
    guard = grid.x_max - a
    if guard <= 0:
        raise PropagatorError("absorber inner width reaches the grid edge")
    ax = np.abs(grid.x)
    mask = np.ones(grid.n_points)
    out = ax > a
    mask[out] = np.cos(0.5 * np.pi * (ax[out] - a) / guard) ** config.power
    return mask


class SplitOperator:
    """Precomputed split-step phases for one (grid, potential, dt, mode).

    step_array advances a raw amplitude array by dt from time t; the
    absorber mask (if any) is applied once at the end of every step.
    It never writes to its input, but the array it returns is the
    operator's own work buffer: the next call overwrites it, so a caller
    that keeps a state across steps must copy it.  Passing the returned
    array back in advances it in place.
    """

    def __init__(
        self,
        grid: SpatialGrid,
        v: np.ndarray,
        dt: float,
        mode: str = MODE_KH,
        cache: FieldCache | None = None,
        mask: np.ndarray | None = None,
    ):
        if mode not in (MODE_LAB, MODE_KH):
            raise PropagatorError(f"unknown mode '{mode}'")
        if mode == MODE_LAB and cache is None:
            raise PropagatorError("lab_full stepping needs a field cache")
        v = np.asarray(v, dtype=float)
        if len(v) != grid.n_points:
            raise PropagatorError("potential samples do not match the grid")
        self.grid = grid
        self.dt = dt
        self.mode = mode
        self.cache = cache
        self.mask = mask
        self._expv_half = np.exp(-0.5j * dt * v)
        self._expt = np.exp(-0.5j * dt * grid.p**2)
        self._buf = np.empty(grid.n_points, dtype=np.complex128)
        self._expv = np.empty(grid.n_points, dtype=np.complex128)

    def step_array(self, psi: np.ndarray, t: float) -> np.ndarray:
        expv = self._expv_half
        if self.mode == MODE_LAB:
            eps_mid = self.cache.eps_at(t + 0.5 * self.dt)
            if eps_mid != 0.0:
                # V_eff = V - x*eps; the -x*eps part contributes exp(+i x eps dt/2)
                g = self.grid
                expv = phase_ramp(0.0, 0.5 * self.dt * eps_mid, g.x_min, g.dx,
                                  g.n_points, self._expv)
                expv *= self._expv_half
        buf = np.multiply(expv, psi, out=self._buf)
        buf = fft(buf, overwrite_x=True)
        buf *= self._expt
        buf = ifft(buf, overwrite_x=True)
        buf *= expv
        if self.mask is not None:
            buf *= self.mask
        self._buf = buf
        return buf


@dataclass
class PropagationJob:
    mode: str
    initial: WaveFunction
    time: TimeGrid
    v: np.ndarray
    cache: FieldCache | None = None
    absorber: AbsorberConfig | None = None
    use_absorber: bool = True
    snapshot_times: tuple = ()
    observer: object | None = None
    observer_cadence: int = 20

    def __post_init__(self):
        if self.mode not in (MODE_LAB, MODE_KH):
            raise PropagatorError(f"unknown mode '{self.mode}'")
        want = FRAME_LAB if self.mode == MODE_LAB else FRAME_KH
        if self.initial.frame != want:
            raise PropagatorError(
                f"mode {self.mode} needs a '{want}' frame initial state, "
                f"got '{self.initial.frame}'"
            )
        if self.mode == MODE_LAB and self.cache is None:
            raise PropagatorError("lab_full propagation needs a field cache")
        t0, t1 = self.time.t0, self.time.t_end
        for ts in self.snapshot_times:
            if not (t0 - 1e-9 <= ts <= t1 + 1e-9):
                raise PropagatorError(f"snapshot time {ts} outside [{t0}, {t1}]")


@dataclass
class PropagationResult:
    snapshots: list
    final: WaveFunction
    absorbed_norm: float
    series: object | None = None
    nominal_snapshot_times: tuple = ()


def propagate(job: PropagationJob) -> PropagationResult:
    """Iterate split steps over the job's time grid.

    Snapshots are taken at the step nearest each requested time (the
    actual time is recorded on the WaveFunction).  The observer, if any,
    is called as observer.record(t, wf) every observer_cadence steps,
    including step 0 and the final step.  Non-finite amplitudes, or an
    initial norm that overflows, abort with the offending step index.
    """
    grid = job.initial.grid
    tg = job.time
    mask = build_absorber_mask(grid, job.absorber) if job.use_absorber else None
    op = SplitOperator(grid, job.v, tg.dt, job.mode, job.cache, mask)

    snap_steps = {}
    for ts in job.snapshot_times:
        k = int(round((ts - tg.t0) / tg.dt))
        snap_steps.setdefault(min(max(k, 0), tg.n_steps), []).append(ts)

    psi = job.initial.psi.copy()
    with np.errstate(over="ignore"):
        initial_sq = grid.dx * float(np.sum(np.abs(psi) ** 2))
    if not np.isfinite(initial_sq):  # the observer would overflow on it at step 0
        raise PropagatorError("non-finite norm at step 0")
    frame = job.initial.frame
    snapshots = []

    def emit(k):
        observed = job.observer is not None and (
            k % job.observer_cadence == 0 or k == tg.n_steps
        )
        if not observed and k not in snap_steps:
            return
        t = tg.time_at(k)
        wf = WaveFunction(grid, psi.copy(), t, frame)
        if k in snap_steps:
            snapshots.append(wf)
        if observed:
            job.observer.record(t, wf)

    emit(0)
    for k in range(1, tg.n_steps + 1):
        psi = op.step_array(psi, tg.time_at(k - 1))
        if not np.isfinite(psi.view(float)).all():  # both parts; faster than complex
            raise PropagatorError(f"non-finite amplitudes at step {k}")
        emit(k)

    final = WaveFunction(grid, psi, tg.t_end, frame)
    absorbed = initial_sq - grid.dx * float(np.sum(np.abs(psi) ** 2))
    series = job.observer.series() if hasattr(job.observer, "series") else None
    return PropagationResult(snapshots, final, absorbed, series, tuple(job.snapshot_times))


def write_snapshot(path, wf: WaveFunction) -> None:
    g = wf.grid
    header = (
        f"{SNAPSHOT_MAGIC} {g.n_points} {g.x_min!r} {g.x_max!r} {wf.t!r} {wf.frame}\n"
    )
    payload = np.empty((g.n_points, 2))
    payload[:, 0] = wf.psi.real
    payload[:, 1] = wf.psi.imag
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload.astype("<f8").tobytes())


def read_snapshot(path) -> WaveFunction:
    (n,), (x_min, x_max, t), frame, raw = read_container(
        path, SNAPSHOT_MAGIC, 1, 3, 16, PropagatorError
    )
    try:
        grid = SpatialGrid(x_min, x_max, n)
    except GridError as err:
        raise PropagatorError(f"bad grid in {path}: {err}") from None
    return WaveFunction(grid, raw[0::2] + 1j * raw[1::2], t, frame)
