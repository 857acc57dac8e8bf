"""Model binding potential and its cycle-averaged form.

The binding potential is a short-range single-well model with one bound
state.  Averaging it over one period of the quiver displacement
alpha0*sin(theta) gives the dressed (dichotomous) potential that governs
the dynamics in the oscillating frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import KhatomError, SpatialGrid

__all__ = [
    "AveragedPotential",
    "PotentialError",
    "atomic_potential",
    "check_alpha0",
    "kh_averaged_potential",
    "local_minima_positions",
]

# the binding potential: DEPTH is the (negative) prefactor; EXP_SOFTENING
# sits inside the square root in the exponent, DENOM_WIDTH inside the one
# in the denominator
DEPTH = -24.856
EXP_SOFTENING = 16.0
DENOM_WIDTH = 6.27

# grid rows per block of the cycle sums: a block's temporaries stay in cache
_GRID_CHUNK = 16


class PotentialError(KhatomError):
    module = "potential"


def atomic_potential(x):
    """Binding potential V(x); even in x, negative everywhere, short range."""
    x = np.asarray(x, dtype=float)
    return DEPTH * np.exp(-np.sqrt(x * x + EXP_SOFTENING)) / np.sqrt(x * x + DENOM_WIDTH**2)


def check_alpha0(grid: SpatialGrid, alpha0: float) -> None:
    """Raises unless alpha0 lies in (0, half the grid's width], where the wells stay in the box."""
    half = 0.5 * (grid.x_max - grid.x_min)
    if not 0 < alpha0 <= half:  # also refuses nan
        raise PotentialError(f"alpha0 = {alpha0} must lie in (0, {half:g}], half the grid's width")


@dataclass(frozen=True)
class AveragedPotential:
    """Cycle average of the displaced binding potential on a grid."""

    grid: SpatialGrid
    samples: np.ndarray

    def __post_init__(self):
        if len(self.samples) != self.grid.n_points:
            raise PotentialError("samples do not match the grid")


def kh_averaged_potential(
    grid: SpatialGrid, alpha0: float, model=atomic_potential
) -> AveragedPotential:
    """Average model(x + alpha0*sin(theta)) over theta in [0, 2pi).

    N uniform phase nodes, N the smallest 256 * 2**k with N >= 10*alpha0.
    The trapezoid sum of a smooth periodic integrand converges
    geometrically, its error falling like exp(-c N / alpha0) with c set by
    the width of the potential, so a fixed number of nodes per unit of
    alpha0 keeps V0 at machine accuracy: 256 nodes up to alpha0 = 25.6,
    max|V0(N) - V0(4N)| below 1e-17 for alpha0 up to 300.

    The sum is folded over two exact symmetries.  sin(pi - theta) =
    sin(theta) on the nodes, so N/2 + 1 displacements carry weight 2/N
    (1/N at +-alpha0).  V0 is even, so it is evaluated at the distinct
    |x| of the grid and mapped back, which makes it exactly even on a
    symmetric grid.

    model is atomic_potential; any even potential that decreases in |y|
    can stand in for it.  For |x| >= alpha0 the nearest term of a row sits
    at the displacement -alpha0, exactly (sin(fl(pi/2)) = 1), so where
    model(|x| - alpha0) is zero every term of the row is a signed zero.
    Those rows, about half of the default grid, where exp(-sqrt(...))
    underflows, are set to the +0.0 their sum gives without evaluating
    them.  The other rows are summed _GRID_CHUNK at a time, each
    with the same operations as a full evaluation, so V0 does not depend on
    the chunking.
    """
    check_alpha0(grid, alpha0)
    n = 256
    while n < 10 * alpha0:
        n *= 2
    # the first quarter of N uniform nodes over one period
    theta = 2.0 * np.pi * np.arange(n // 4 + 1) / n
    half = alpha0 * np.sin(theta)
    disp = np.concatenate((-half[:0:-1], half))  # -alpha0 .. alpha0
    weights = np.full(len(disp), 2.0 / n)
    weights[[0, -1]] = 1.0 / n
    ax, where = np.unique(np.abs(grid.x), return_inverse=True)
    live = (ax < alpha0) | (model(ax + disp[0]) != 0.0)
    rows = ax[live]
    sums = np.empty(len(rows))
    for lo in range(0, len(rows), _GRID_CHUNK):
        hi = min(lo + _GRID_CHUNK, len(rows))
        sums[lo:hi] = (model(rows[lo:hi, None] + disp[None, :]) * weights).sum(axis=1)
    folded = np.zeros(len(ax))
    folded[live] = sums
    return AveragedPotential(grid, folded[where])


def local_minima_positions(avg: AveragedPotential) -> np.ndarray:
    """Grid positions of all strict local minima of the averaged samples."""
    v = avg.samples
    interior = (v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])
    return avg.grid.x[1:-1][interior]
