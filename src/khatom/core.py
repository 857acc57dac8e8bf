"""Grids, wave functions, and spectral primitives shared by every module.

Conventions:
  * position samples x_j = x_min + j*dx, j = 0..n-1, dx = (x_max - x_min)/n;
    the grid is periodic and x_max itself is not a sample point.
  * momentum grid p_k = 2*pi*fftfreq(n, dx), FFT ordering, spacing
    dp = 2*pi/(n*dx).
  * all spatial integrals use the midpoint rule dx*sum(...), which is
    spectrally accurate for decaying/periodic integrands on uniform grids.
  * translations of continuous-valued displacement are always spectral
    (momentum-space phase), never index rolls.
  * every full-grid linear phase exp(i(c0 + c1*u)) on x or p comes from
    phase_ramp (momentum_ramp in FFT order), not from a full-grid np.exp.
  * every sum over the grid in a run is an np.sum or an np.einsum without
    optimize, never a BLAS call (@, dot, vdot): the same bytes at any BLAS
    thread count need the same order of summation, not a more accurate one
    (Demmel & Nguyen, ARITH 2013).  Only few-row matrices go to np.linalg.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class KhatomError(Exception):
    """Base error for the package; `module` names the component that raised."""

    module = "core"


class GridError(KhatomError):
    module = "core"


class FrameError(KhatomError):
    module = "core"


FRAME_LAB = "lab"
FRAME_KH = "kh"
_FRAMES = (FRAME_LAB, FRAME_KH)

_HEADER_MAX = 1024  # bytes; a written header has at most nine fields, under 200 bytes


@dataclass(frozen=True)
class SpatialGrid:
    x_min: float = -1500.0
    x_max: float = 1500.0
    n_points: int = 16384

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise GridError(f"x_max must exceed x_min, got [{self.x_min}, {self.x_max}]")
        n = int(self.n_points)
        if n < 2 or n & (n - 1):
            raise GridError(f"n_points must be a power of two >= 2, got {self.n_points}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def dp(self) -> float:
        return 2.0 * np.pi / (self.n_points * self.dx)

    @cached_property
    def x(self) -> np.ndarray:
        arr = self.x_min + self.dx * np.arange(self.n_points)
        arr.flags.writeable = False
        return arr

    @cached_property
    def p(self) -> np.ndarray:
        arr = 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)
        arr.flags.writeable = False
        return arr


@dataclass(frozen=True)
class TimeGrid:
    """The times t0 + k*dt, k = 0..n_steps; the run plan checks dt and n_steps."""

    t0: float
    dt: float
    n_steps: int

    @property
    def t_end(self) -> float:
        return self.t0 + self.n_steps * self.dt

    def time_at(self, k: int) -> float:
        return self.t0 + k * self.dt


@dataclass
class WaveFunction:
    """Complex amplitudes on a SpatialGrid, stamped with time and frame tag."""

    grid: SpatialGrid
    psi: np.ndarray
    t: float = 0.0
    frame: str = FRAME_LAB

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=np.complex128)
        if self.psi.shape != (self.grid.n_points,):
            raise GridError(
                f"amplitude array of length {self.psi.size} does not match grid "
                f"n_points={self.grid.n_points}"
            )
        if self.frame not in _FRAMES:
            raise FrameError(f"unknown frame tag {self.frame!r}; expected one of {_FRAMES}")

    def with_frame(self, frame: str) -> "WaveFunction":
        """Retag without transforming.  Legitimate only where the frames
        coincide (t <= 0 before the pulse, where A = alpha = 0)."""
        return WaveFunction(self.grid, self.psi.copy(), self.t, frame)

    def norm(self) -> float:
        return float(np.sqrt(self.grid.dx * np.sum(np.abs(self.psi) ** 2)))

    def normalized(self) -> "WaveFunction":
        n = self.norm()
        if n == 0.0:
            raise GridError("cannot normalize a zero wave function")
        return WaveFunction(self.grid, self.psi / n, self.t, self.frame)

    def density(self) -> np.ndarray:
        return np.abs(self.psi) ** 2


def require_same_grid(a: WaveFunction, b: WaveFunction) -> None:
    if a.grid != b.grid:
        raise GridError(
            f"grids differ: {a.grid.n_points} pts on [{a.grid.x_min},{a.grid.x_max}] vs "
            f"{b.grid.n_points} pts on [{b.grid.x_min},{b.grid.x_max}]"
        )


def inner_product(a: WaveFunction, b: WaveFunction) -> complex:
    """dx * sum conj(a)*b; conjugate-linear in the first argument.

    Not np.vdot: a BLAS thread also spins on a core after each call, which
    in every record doubled the step time of a propagation with a partner
    process (1.5-1.7 ms against 0.54-0.59 ms at 16384 points).
    """
    require_same_grid(a, b)
    if a.frame != b.frame:
        raise FrameError(f"frame mismatch in inner product: {a.frame!r} vs {b.frame!r}")
    return complex(a.grid.dx * np.sum(a.psi.conj() * b.psi))


def phase_ramp(c0: float, c1: float, start: float, step: float, n: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """exp(i(c0 + c1*u_j)) on the uniform axis u_j = start + j*step, j < n.

    Built as an outer product: with n = r*m and m a power of two near
    sqrt(n), row a holds exp(i(c0 + c1*u_{a*m})) and column b holds
    exp(i*c1*step*b), so n complex exponentials become r + m of them plus
    one multiply.  Each value is within a few ulp of |c0| + |c1|*max|u| of
    np.exp at the same argument, which is the rounding of the argument
    itself.  Written into out (contiguous complex128, length n) when given.
    """
    m = 1 << ((n.bit_length() - 1) // 2)  # divides n when n is a power of two
    r = -(-n // m)
    rows = np.exp(1j * (c0 + c1 * (start + step * (m * np.arange(r)))))
    cols = np.exp((1j * c1 * step) * np.arange(m))
    if out is None:
        out = np.empty(n, dtype=np.complex128)
    if r * m == n:
        np.multiply(rows[:, None], cols[None, :], out=out.reshape(r, m))
    else:
        out[:] = np.multiply.outer(rows, cols).ravel()[:n]
    return out


def momentum_ramp(grid: SpatialGrid, c1: float) -> np.ndarray:
    """exp(i*c1*p_k) on the momentum grid in FFT order.

    In FFT order p is two linear pieces, [0, n/2) and [-n/2, 0) times dp,
    so this is two phase_ramp calls of n/2 points.
    """
    h = grid.n_points // 2
    out = np.empty(grid.n_points, dtype=np.complex128)
    phase_ramp(0.0, c1, 0.0, grid.dp, h, out[:h])
    phase_ramp(0.0, c1, -h * grid.dp, grid.dp, h, out[h:])
    return out


def shift_samples(grid: SpatialGrid, arr: np.ndarray, s: float) -> np.ndarray:
    """Translate samples by s: result_j ~ f(x_j - s) for band-limited f.

    Momentum-space phase multiplication; exact for band-limited signals,
    periodic wrap at the grid edges is documented behavior.
    """
    spec = np.fft.fft(np.asarray(arr, dtype=np.complex128))
    return np.fft.ifft(spec * momentum_ramp(grid, -s))


def periodic_sinc_shift(grid: SpatialGrid, arr: np.ndarray, s: float) -> np.ndarray:
    """Reference translation by direct periodic-Dirichlet-kernel summation.

    Same band-limited interpolant as shift_samples but evaluated as an O(n^2)
    real-space convolution with explicitly constructed kernel values (no FFT
    in the translation itself). Used as an independent arithmetic path when
    validating the frame transform's density relation.
    """
    arr = np.asarray(arr, dtype=np.complex128)
    n = grid.n_points
    lags = np.arange(-(n - 1), n, dtype=float)
    u = lags * grid.dx - s
    theta = 2.0 * np.pi * u / (n * grid.dx)
    half = 0.5 * theta
    den = n * np.sin(half)
    # near-node lags hit 0/0; the limit of the kernel there is exactly 1
    tiny = np.abs(den) < n * 1e-12
    den_safe = np.where(tiny, 1.0, den)
    kernel = np.exp(-1j * half) * (np.sin(n * half) / den_safe)
    kernel[tiny] = 1.0
    full = np.convolve(arr, kernel)
    return full[n - 1:2 * n - 1]


def padded_spectrum(grid: SpatialGrid, spec: np.ndarray, n_out: int) -> np.ndarray:
    """The grid's spectrum spec zero-padded to n_out >= n points.

    Its ifft gives the band-limited samples at spacing (x_max - x_min)/n_out
    on the same interval, exact for band-limited signals; the Nyquist
    coefficient is split symmetrically so real input stays real.
    """
    n, h = grid.n_points, grid.n_points // 2
    spec = (n_out / n) * np.asarray(spec)
    out = np.zeros(n_out, dtype=np.complex128)
    out[:h] = spec[:h]
    out[n_out - h + 1:] = spec[h + 1:]
    out[h] = 0.5 * spec[h]
    out[n_out - h] += 0.5 * spec[h]
    return out


def write_container(path, magic: str, counts, reals, frame: str, payload: np.ndarray) -> None:
    """Writes the header line and the <f8 payload that read_container reads back."""
    fields = [magic, *(str(int(c)) for c in counts), *(repr(float(v)) for v in reals), frame]
    with open(path, "wb") as fh:
        fh.write((" ".join(fields) + "\n").encode("ascii"))
        fh.write(np.ascontiguousarray(payload, dtype="<f8").tobytes())


def read_container(path, magic: str, n_counts: int, n_reals: int, item_bytes: int,
                   error: type[KhatomError]):
    """Header and payload of a binary container; a corrupt file raises error.

    The header is one ascii line "magic count... real... frame": the counts
    must be positive integers, the reals finite and the frame a known tag.
    The payload must be exactly item_bytes * prod(counts) bytes of finite
    little-endian float64.  Returns (counts, reals, frame, payload).
    """
    try:
        with open(path, "rb") as fh:
            line = fh.readline(_HEADER_MAX)
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            try:
                fields = line.decode("ascii").split()
            except UnicodeDecodeError:
                raise error(f"non-ascii header in {path}") from None
            if (not line.endswith(b"\n") or len(fields) != n_counts + n_reals + 2
                    or fields[0] != magic):
                raise error(f"not a {magic} file: {path}")
            counts = fields[1 : 1 + n_counts]
            if not all(tok.isdigit() and int(tok) > 0 for tok in counts):
                raise error(f"{magic} counts must be positive integers, got {counts}: {path}")
            counts = [int(tok) for tok in counts]
            try:
                reals = [float(tok) for tok in fields[1 + n_counts : -1]]
            except ValueError:
                raise error(f"malformed number in the {magic} header: {path}") from None
            if not all(math.isfinite(v) for v in reals):
                raise error(f"non-finite number in the {magic} header: {path}")
            frame = fields[-1]
            if frame not in _FRAMES:
                raise error(f"unknown frame tag {frame!r} in {path}")
            n_bytes = item_bytes * math.prod(counts)
            if size < n_bytes:
                raise error(f"truncated {magic} payload: {path}")
            if size > n_bytes:
                raise error(f"{size - n_bytes} bytes past the {magic} payload: {path}")
            payload = np.frombuffer(fh.read(n_bytes), dtype="<f8")
    except OSError as err:
        raise error(f"cannot read {path}: {err.strerror}") from None
    if not np.all(np.isfinite(payload)):
        raise error(f"non-finite values in the {magic} payload: {path}")
    return counts, reals, frame, payload


@contextmanager
def forked(fn, error: type[KhatomError]):
    """Yields join(), which returns fn() or raises the exception fn raised.

    fn runs at once in a forked child, which pickles its outcome into a
    pipe, and the caller goes on with other work until join(); join.pid is
    the child's process id.  The child is reaped on every way out of the
    block; left before join(), it is killed first.  A child that ends
    without an outcome makes join() raise error.  Needs os.fork: the
    caller decides where forking is safe.
    """
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: send fn's outcome, and never return into the caller
        code = 1
        try:
            os.close(rfd)
            try:
                outcome = (True, fn())
            except Exception as err:
                if not isinstance(err, KhatomError):  # a fault: show where it happened
                    traceback.print_exc()
                outcome = (False, err)
            data = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
            with os.fdopen(wfd, "wb") as fh:
                fh.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    reader = os.fdopen(rfd, "rb")
    done = []  # [(pickled outcome, wait status)] once the child is reaped

    def join():
        if not done:
            data = reader.read()
            done.append((data, os.waitpid(pid, 0)[1]))
        data, status = done[0]
        if not data:
            raise error(f"a forked process ended with wait status {status} and no result")
        ok, value = pickle.loads(data)
        if ok:
            return value
        raise value

    join.pid = pid
    try:
        yield join
    finally:
        if not done:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        reader.close()
