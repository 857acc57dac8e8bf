"""Pulsed driving field and cached field integrals.

The pulse is eps0 * f(t) * sin(omega t) with a trapezoidal envelope f:
linear two-cycle turn-on, flat top, linear two-cycle turn-off.  The
integrals A(t) = -int eps, alpha(t) = int A and S(t) = int A^2 are
precomputed once on a dense uniform cache and looked up by linear
interpolation during propagation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import KhatomError

__all__ = [
    "PulseParams",
    "FieldCache",
    "LaserError",
    "envelope",
    "field_value",
    "build_field_cache",
    "check_field_step",
    "INTENSITY_AU",
]

# one atomic unit of intensity, W/cm^2
INTENSITY_AU = 3.50945e16


class LaserError(KhatomError):
    module = "laser"


@dataclass(frozen=True)
class PulseParams:
    """Trapezoidal pulse: eps0 * f(t) * sin(omega t).

    The peak field follows from the intensity in W/cm^2, eps0 =
    sqrt(I / INTENSITY_AU).  The ramp lasts ramp_cycles optical cycles,
    the flat top ends at flat_end_cycles, the pulse at total_cycles.
    """

    intensity: float
    period: float = 100.0
    ramp_cycles: int = 2
    flat_end_cycles: int = 10
    total_cycles: int = 12

    def __post_init__(self):
        if not 0 <= self.intensity < np.inf:  # also refuses nan
            raise LaserError(f"intensity must be finite and at least 0, got {self.intensity}")
        if not (0 < self.ramp_cycles < self.flat_end_cycles < self.total_cycles):
            raise LaserError("need 0 < ramp < flat_end < total cycles")
        if self.period <= 0:
            raise LaserError("period must be positive")

    @property
    def eps0(self) -> float:
        return np.sqrt(self.intensity / INTENSITY_AU)

    @property
    def omega(self) -> float:
        return 2.0 * np.pi / self.period

    @property
    def t_ramp(self) -> float:
        return self.ramp_cycles * self.period

    @property
    def t_flat_end(self) -> float:
        return self.flat_end_cycles * self.period

    @property
    def t_final(self) -> float:
        return self.total_cycles * self.period

    @property
    def alpha0(self) -> float:
        """Quiver amplitude eps0/omega^2 of the flat-top field."""
        return self.eps0 / self.omega**2


def envelope(params: PulseParams, t):
    """Trapezoidal envelope; 0 outside [0, t_final], continuous everywhere."""
    t = np.asarray(t, dtype=float)
    up = t / params.t_ramp
    down = (params.t_final - t) / (params.t_final - params.t_flat_end)
    f = np.minimum(np.minimum(up, down), 1.0)
    f = np.where((t < 0) | (t > params.t_final), 0.0, f)
    return f if f.ndim else float(f)


def field_value(params: PulseParams, t):
    """Driving field eps0 * f(t) * sin(omega t)."""
    t = np.asarray(t, dtype=float)
    out = params.eps0 * envelope(params, t) * np.sin(params.omega * t)
    return out if out.ndim else float(out)


@dataclass
class FieldCache:
    """Dense uniform samples of eps, A, alpha, S = int A^2 over the pulse.

    endpoint_residuals records (|A(t_final)|, |alpha(t_final)|/alpha0):
    the zero net momentum / displacement check, which the run's manifest
    carries.
    """

    dt_field: float
    times: np.ndarray
    eps: np.ndarray
    a: np.ndarray
    alpha: np.ndarray
    s: np.ndarray
    endpoint_residuals: tuple[float, float] = (0.0, 0.0)

    def _lookup(self, series, t):
        return np.interp(t, self.times, series, left=0.0, right=series[-1])

    def eps_at(self, t):
        return np.interp(t, self.times, self.eps, left=0.0, right=0.0)

    def a_at(self, t):
        return self._lookup(self.a, t)

    def alpha_at(self, t):
        return self._lookup(self.alpha, t)

    def s_at(self, t):
        return self._lookup(self.s, t)


def _cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative Simpson integral of equally spaced samples, starting at 0.

    Intervals 0, 2, 4, ... integrate the parabola through their two nodes
    and the next one; the others, and the last, the parabola through their
    two nodes and the previous one.  Formula and operation order are those
    of the standard cumulative Simpson rule with an initial 0 (the tests'
    oracle), so the result is the same to the bit.
    """

    def first_intervals(f):
        return dx / 3 * (5 * f[:-2] / 4 + 2 * f[1:-1] - f[2:] / 4)

    ahead, behind = first_intervals(y), first_intervals(y[::-1])[::-1]
    pieces = np.empty(len(y) - 1)
    pieces[:-1:2] = ahead[::2]
    pieces[1::2] = behind[::2]
    pieces[-1] = behind[-1]
    out = np.zeros(len(y))
    # adding the initial 0.0 turns a -0.0 sum into +0.0, as the oracle does
    out[1:] = np.cumsum(pieces) + 0.0
    return out


def check_field_step(params: PulseParams, dt_field: float) -> int:
    """The number of dt_field intervals in the pulse; raises unless dt_field
    is positive, divides the pulse duration and leaves at least two."""
    if dt_field <= 0:
        raise LaserError("dt_field must be positive")
    n = int(round(params.t_final / dt_field))
    if abs(n * dt_field - params.t_final) > 1e-9 * params.t_final:
        raise LaserError("dt_field must divide the pulse duration")
    if n < 2:
        raise LaserError("dt_field must leave at least two intervals in the pulse")
    return n


def build_field_cache(params: PulseParams, dt_field: float) -> FieldCache:
    """Integrate eps -> A -> alpha and A^2 -> S on a dense uniform grid.

    Composite Simpson, cumulative; the node spacing should divide the
    propagation step so step midpoints land exactly on cache nodes.
    """
    n = check_field_step(params, dt_field)
    times = np.arange(n + 1) * dt_field
    eps = field_value(params, times)
    a = -_cumulative_simpson(eps, dt_field)
    alpha = _cumulative_simpson(a, dt_field)
    s = _cumulative_simpson(a * a, dt_field)
    res_a = abs(a[-1])
    scale = params.alpha0 if params.alpha0 > 0 else 1.0
    res_alpha = abs(alpha[-1]) / scale
    return FieldCache(dt_field, times, eps, a, alpha, s, (res_a, res_alpha))
