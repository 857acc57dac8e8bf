"""Split-operator propagation with absorbing boundaries.

Two modes: lab_full steps the driven Hamiltonian p^2/2 + V(x) - x*eps(t)
with the field sampled at the step midpoint; kh_averaged steps the
field-free p^2/2 + V0(x) (the cycle-averaged potential), which is how the
simplified oscillating-frame dynamics is realized.  Strang splitting,
half potential phases around a full kinetic phase, the absorber an
imaginary potential inside the half-phases (Kosloff & Kosloff 1986).

Every step runs on the two radix-2 halves of the grid (Cooley & Tukey,
Math. Comp. 19, 297 (1965)): the even samples x_e = psi[0::2] and the
odd samples x_o = psi[1::2], n/2 points each.  The half-phases, absorber
and lab dipole ramp included, are diagonal, so each acts on its own half.
With E = fft(x_e), O = fft(x_o) and W_k = exp(-2 pi i k / n), the full
spectrum is [E + W O, E - W O].  The kinetic phase T = [T_top, T_bot] and
the inverse transform fold into three n/2-point factors,

    P = (T_top + T_bot) / 2,  Q = W (T_top - T_bot) / 2,  R = conj(W) (T_top - T_bot) / 2,

and the new halves are x_e' = ifft(E P + O Q) and x_o' = ifft(E R + O P).
Only E and O cross between the halves, once per step.  On Linux x86-64
with two CPUs, propagate hands the odd half to a forked partner process:
the two meet at one spin barrier per step in shared memory and exchange
their spectra there.  Elsewhere, and on grids below PARTNER_MIN_POINTS,
one process steps both halves in turn, with the same bytes.

``propagate(op, initial, snapshot_steps, observer, cadence)`` steps the
SplitOperator its caller built (time grid and absorber included) and
keeps the states at the given step indices; it neither rounds nor
compares times.
"""

from __future__ import annotations

import mmap
import os
import signal
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

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
    write_container,
)
from .laser import FieldCache

__all__ = [
    "MODE_LAB",
    "MODE_KH",
    "MODE_FRAMES",
    "PropagationResult",
    "PropagatorError",
    "SplitOperator",
    "build_absorber_mask",
    "check_absorber",
    "propagate",
    "write_snapshot",
    "read_snapshot",
]

MODE_LAB = "lab_full"
MODE_KH = "kh_averaged"
# the frame each mode's states live in
MODE_FRAMES = {MODE_LAB: FRAME_LAB, MODE_KH: FRAME_KH}

SNAPSHOT_MAGIC = "KHPS1"

# the absorber mask, the absorption of one step of DT_REF: 1 inside
# |x| <= ABSORBER_HALF_WIDTH, then a gentle cos^ABSORBER_POWER rolloff reaching ~0 at the edge
ABSORBER_HALF_WIDTH = 600.0
ABSORBER_POWER = 0.125
DT_REF = 0.05


class PropagatorError(KhatomError):
    module = "propagator"


def check_absorber(grid: SpatialGrid) -> None:
    """Raises unless the grid reaches past the absorber's inner width on both sides."""
    if min(grid.x_max, -grid.x_min) <= ABSORBER_HALF_WIDTH:
        raise PropagatorError("absorber inner width reaches the grid edge")


def build_absorber_mask(grid: SpatialGrid) -> np.ndarray:
    """Each side rolls off over its own width, from the inner width to its edge."""
    check_absorber(grid)
    a = ABSORBER_HALF_WIDTH
    x = grid.x
    mask = np.ones(grid.n_points)
    for depth, guard in ((x - a, grid.x_max - a), (-x - a, -grid.x_min - a)):
        out = depth > 0
        mask[out] = np.cos(0.5 * np.pi * depth[out] / guard) ** ABSORBER_POWER
    return mask


class SplitOperator:
    """Precomputed split-step factors for one (grid, potential, time grid, mode).

    forward and backward are the two stages of one half (0 even, 1 odd)
    of the step, as the module docstring sets out; propagate runs them in
    one process or two.  Each half-phase, absorber included, is one
    diagonal factor.  frame is the frame the mode's states live in.
    """

    def __init__(
        self,
        grid: SpatialGrid,
        v: np.ndarray,
        time: TimeGrid,
        mode: str = MODE_KH,
        cache: FieldCache | None = None,
        absorber: bool = False,
    ):
        if mode not in MODE_FRAMES:
            raise PropagatorError(f"unknown mode '{mode}'")
        if mode == MODE_LAB and cache is None:
            raise PropagatorError("lab_full stepping needs a field cache")
        v = np.asarray(v, dtype=float)
        if len(v) != grid.n_points:
            raise PropagatorError("potential samples do not match the grid")
        self.grid = grid
        self.time = time
        self.mode = mode
        self.frame = MODE_FRAMES[mode]
        self.cache = cache
        n, dt = grid.n_points, time.dt
        h = n // 2
        self._expv_half = tuple(np.exp(-0.5j * dt * v[i::2]) for i in (0, 1))
        if absorber:  # each half-phase takes the mask for dt / 2: the absorption per a.u. is fixed
            mask = build_absorber_mask(grid) ** (0.5 * dt / DT_REF)
            self._expv_half = tuple(e * mask[i::2] for i, e in enumerate(self._expv_half))
        expt = np.exp(-0.5j * dt * grid.p**2)
        w = phase_ramp(0.0, -2.0 * np.pi / n, 0.0, 1.0, h)
        p = 0.5 * (expt[:h] + expt[h:])
        d = 0.5 * (expt[:h] - expt[h:])
        # half 0 takes E*P + O*Q, half 1 takes E*R + O*P
        self._fold = ((p, w * d), (w.conj() * d, p))
        self._expv = np.empty((2, h), dtype=np.complex128)
        self._work = np.empty((2, h), dtype=np.complex128)

    def forward(self, half: int, x: np.ndarray, t: float, spec: np.ndarray) -> np.ndarray:
        """spec = fft of the half's potential half-phase times x; returns that phase."""
        expv = self._expv_half[half]
        if self.mode == MODE_LAB:
            dt = self.time.dt
            eps_mid = self.cache.eps_at(t + 0.5 * dt)
            if eps_mid != 0.0:
                # V_eff = V - x*eps; the -x*eps part contributes exp(+i x eps dt/2)
                g = self.grid
                ramp = phase_ramp(0.0, 0.5 * dt * eps_mid, g.x_min + half * g.dx,
                                  2.0 * g.dx, len(expv), self._expv[half])
                expv = np.multiply(ramp, expv, out=ramp)
        np.multiply(expv, x, out=spec)
        np.fft.fft(spec, out=spec)
        return expv

    def backward(self, half: int, spectra: np.ndarray, expv: np.ndarray, x: np.ndarray) -> bool:
        """x = the half of the new state, from both halves' spectra (E, O).

        Returns False when x holds a non-finite amplitude.
        """
        a, b = self._fold[half]
        np.multiply(spectra[0], a, out=x)
        x += np.multiply(spectra[1], b, out=self._work[half])
        np.fft.ifft(x, out=x)
        x *= expv
        return bool(np.isfinite(x.view(float)).all())  # both parts; faster than complex


@dataclass
class PropagationResult:
    snapshots: list
    final: WaveFunction
    absorbed_norm: float


def propagate(op: SplitOperator, initial: WaveFunction, snapshot_steps=(), observer=None,
              cadence: int = 20) -> PropagationResult:
    """Iterate op's split steps over its time grid.

    The state after each step in snapshot_steps (0 is the initial state)
    is kept, stamped with op.time.time_at(k), in step order.  The observer,
    if any, is called as observer.record(t, wf) every cadence steps,
    including step 0 and the final step.  Non-finite amplitudes, or an
    initial norm that overflows, abort with the offending step index.
    """
    grid, frame, time = op.grid, op.frame, op.time
    if initial.grid != grid:
        raise PropagatorError("the initial state lies on another grid than the operator")
    if initial.frame != frame:
        raise PropagatorError(
            f"mode {op.mode} needs a '{frame}' frame initial state, got '{initial.frame}'"
        )
    snap_steps = set(snapshot_steps)
    for k in snap_steps:
        if not 0 <= k <= time.n_steps:
            raise PropagatorError(f"snapshot step {k} outside [0, {time.n_steps}]")

    psi = initial.psi
    with np.errstate(over="ignore"):
        initial_sq = grid.dx * float(np.sum(np.abs(psi) ** 2))
    if not np.isfinite(initial_sq):  # the observer would overflow on it at step 0
        raise PropagatorError("non-finite norm at step 0")
    snapshots = []

    def observed(k):
        return observer is not None and (k % cadence == 0 or k == time.n_steps)

    def wanted(k):
        return observed(k) or k in snap_steps

    def emit(k, psi):  # psi: a fresh array of the state after step k
        t = time.time_at(k)
        wf = WaveFunction(grid, psi, t, frame)
        if k in snap_steps:
            snapshots.append(wf)
        if observed(k):
            observer.record(t, wf)

    if wanted(0):
        emit(0, psi.copy())
    run = _with_partner if _use_partner(grid.n_points) else _inline
    psi = run(op, psi, wanted, emit)

    final = WaveFunction(grid, psi, time.t_end, frame)
    absorbed = initial_sq - grid.dx * float(np.sum(np.abs(psi) ** 2))
    return PropagationResult(snapshots, final, absorbed)


# Below this grid size one process steps both halves: the barrier then
# costs about what the half of each FFT the partner takes saves.  On a
# 2-vCPU x86-64 host, kh_averaged steps with the partner against inline:
# 184-196 against 164-235 us at 4096 points, 240-251 against 331-427 us
# at 8192, 452-538 against 774-928 us at 16384.
PARTNER_MIN_POINTS = 8192
_SPINS = 2000  # polls of a step counter before each further poll yields the CPU
# step counters in the shared page, one 64-byte cache line apart
_PARENT, _PARTNER, _PARTNER_DONE = 0, 8, 16
_HEADER_BYTES = 192
_NON_FINITE_EXIT = 3  # the partner's exit code when its half turns non-finite


def _use_partner(n_points: int) -> bool:
    """Whether propagate steps the odd half in a forked partner process.

    The barrier relies on x86-64 ordering of plain stores, and needs a
    second CPU to spin on.
    """
    return (
        sys.platform == "linux"
        and os.uname().machine == "x86_64"
        and len(os.sched_getaffinity(0)) >= 2
        and n_points >= PARTNER_MIN_POINTS
    )


def _steps(op, halves, spectra, state, exchange, emit) -> None:
    """Steps the given halves of state, shape (2, n/2), in place through op's
    time grid; the spectra of step k go to spectra[k % len(spectra)].

    exchange(k) returns once the other halves' spectra of step k are in
    place; emit(k, state) follows each step.
    """
    tg = op.time
    for k in range(1, tg.n_steps + 1):
        spec = spectra[k % len(spectra)]
        t = tg.time_at(k - 1)
        phases = [op.forward(i, state[i], t, spec[i]) for i in halves]
        exchange(k)
        for i, expv in zip(halves, phases):
            if not op.backward(i, spec, expv, state[i]):
                raise PropagatorError(f"non-finite amplitudes at step {k}")
        emit(k, state)


def _inline(op, psi, wanted, emit) -> np.ndarray:
    """Both halves in this process; returns the final state."""
    spectra = np.empty((1, 2, len(psi) // 2), dtype=np.complex128)
    state = psi.reshape(-1, 2).T.copy()

    def emit_full(k, state):
        if wanted(k):
            emit(k, state.ravel(order="F"))

    _steps(op, (0, 1), spectra, state, lambda k: None, emit_full)
    return state.ravel(order="F")


def _with_partner(op, psi, wanted, emit) -> np.ndarray:
    """The even half here and the odd half in a forked partner, in lockstep.

    Each process posts its step counter once its spectrum of that step is
    in the shared page, then waits for the other's: one barrier per step.
    The spectra are double-buffered by step parity, since the partner may
    write those of step k + 1 while this process still reads step k's.
    The partner also posts each finished step; this process waits for it
    only where it emits.  The state halves need one buffer: the partner
    overwrites its half of step k only after the barrier of step k + 1,
    which this process reaches after it has emitted step k.  Either side
    stops waiting when the other is gone.  The partner's exit status is
    its outcome: 0 when it stepped its half to the end, _NON_FINITE_EXIT
    when its half turned non-finite.  Left early, this process kills the
    partner unless it has posted its last step, and reaps it either way.
    """
    h = len(psi) // 2
    n_steps = op.time.n_steps
    page = mmap.mmap(-1, _HEADER_BYTES + 6 * h * 16)  # shared with the fork; freed with its views
    counters = memoryview(page)[:_HEADER_BYTES].cast("q")
    shared = np.frombuffer(page, np.complex128, offset=_HEADER_BYTES).reshape(3, 2, h)
    spectra, state = shared[:2], shared[2]
    state[:] = psi.reshape(-1, 2).T
    parent = os.getpid()

    pid = os.fork()
    if pid == 0:  # the partner: it never returns into the caller

        def parent_alive():
            if os.getppid() != parent:
                os._exit(1)

        def done(k, state):
            counters[_PARTNER_DONE] = k

        code = 1
        try:
            _steps(op, (1,), spectra, state,
                   partial(_exchange, counters, _PARTNER, _PARENT, parent_alive), done)
            code = 0
        except PropagatorError:  # the one error _steps raises: a non-finite half
            code = _NON_FINITE_EXIT
        except Exception:  # a fault: show where it happened
            sys.excepthook(*sys.exc_info())
        finally:
            os._exit(code)

    reaped = []  # the partner's wait status, once reaped

    def partner_alive():
        if not reaped:
            ended, status = os.waitpid(pid, os.WNOHANG)
            if not ended:
                return
            reaped.append(status)
        # a partner that finished every step has posted every counter, so
        # the wait ends at its next poll
        if reaped[0] == 0:
            return
        if os.waitstatus_to_exitcode(reaped[0]) == _NON_FINITE_EXIT:
            raise PropagatorError(f"non-finite amplitudes at step {counters[_PARTNER_DONE] + 1}")
        raise PropagatorError(f"a forked process ended with wait status {reaped[0]} and no result")

    def emit_full(k, state):
        if wanted(k):
            _wait(counters, _PARTNER_DONE, k, partner_alive)
            emit(k, state.ravel(order="F"))

    try:
        _steps(op, (0,), spectra, state,
               partial(_exchange, counters, _PARENT, _PARTNER, partner_alive), emit_full)
        _wait(counters, _PARTNER_DONE, n_steps, partner_alive)
    finally:
        if not reaped:
            if counters[_PARTNER_DONE] < n_steps:
                os.kill(pid, signal.SIGKILL)
            reaped.append(os.waitpid(pid, 0)[1])
    partner_alive()
    return state.ravel(order="F")


def _exchange(counters, mine: int, theirs: int, alive, k: int) -> None:
    counters[mine] = k
    _wait(counters, theirs, k, alive)


def _wait(counters, slot: int, k: int, alive) -> None:
    """Spins until counters[slot] reaches k; after _SPINS polls each poll
    yields the CPU and calls alive(), which raises if the other side has
    failed or is gone."""
    spins = 0
    while counters[slot] < k:
        spins += 1
        if spins > _SPINS:
            os.sched_yield()
            alive()


def write_snapshot(path, wf: WaveFunction) -> None:
    g = wf.grid
    # the complex amplitudes as interleaved (real, imag) pairs
    write_container(path, SNAPSHOT_MAGIC, (g.n_points,), (g.x_min, g.x_max, wf.t), wf.frame,
                    np.ascontiguousarray(wf.psi).view(float))


def read_snapshot(path) -> WaveFunction:
    (n,), (x_min, x_max, t), frame, raw = read_container(
        path, SNAPSHOT_MAGIC, 1, 3, 16, PropagatorError
    )
    try:
        grid = SpatialGrid(x_min, x_max, n)
    except GridError as err:
        raise PropagatorError(f"bad grid in {path}: {err}") from None
    return WaveFunction(grid, raw[0::2] + 1j * raw[1::2], t, frame)
