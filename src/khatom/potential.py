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
    "kh_averaged_potential",
    "local_minima_positions",
]

# the binding potential: DEPTH is the (negative) prefactor; EXP_SOFTENING
# sits inside the square root in the exponent, DENOM_WIDTH inside the one
# in the denominator
DEPTH = -24.856
EXP_SOFTENING = 16.0
DENOM_WIDTH = 6.27

# minimum number of phase nodes accepted for the cycle average
MIN_QUADRATURE_N = 256
DEFAULT_QUADRATURE_N = MIN_QUADRATURE_N

# grid rows per block of the cycle sums: a block's temporaries stay in cache
_GRID_CHUNK = 16


class PotentialError(KhatomError):
    module = "potential"


def atomic_potential(x):
    """Binding potential V(x); even in x, negative everywhere, short range."""
    x = np.asarray(x, dtype=float)
    return DEPTH * np.exp(-np.sqrt(x * x + EXP_SOFTENING)) / np.sqrt(x * x + DENOM_WIDTH**2)


@dataclass(frozen=True)
class AveragedPotential:
    """Cycle average of the displaced binding potential on a grid."""

    grid: SpatialGrid
    samples: np.ndarray

    def __post_init__(self):
        if len(self.samples) != self.grid.n_points:
            raise PotentialError("samples do not match the grid")


def kh_averaged_potential(
    grid: SpatialGrid,
    alpha0: float,
    quadrature_n: int = DEFAULT_QUADRATURE_N,
    model=atomic_potential,
) -> AveragedPotential:
    """Average model(x + alpha0*sin(theta)) over theta in [0, 2pi).

    Uniform phase nodes; for the smooth periodic integrand this converges
    spectrally, so 256 nodes is already at machine accuracy.  The sum is
    folded over two exact symmetries.  sin(pi - theta) = sin(theta) on the
    nodes, so N/2 + 1 displacements carry weight 2/N (1/N at +-alpha0);
    this needs N % 4 == 0.  V0 is even, so it is evaluated at the distinct
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
    if alpha0 <= 0:
        raise PotentialError("alpha0 must be positive")
    if quadrature_n < MIN_QUADRATURE_N:
        raise PotentialError(
            f"quadrature_n = {quadrature_n} below minimum {MIN_QUADRATURE_N}"
        )
    if quadrature_n % 4:
        raise PotentialError(f"quadrature_n = {quadrature_n} is not a multiple of 4")
    # the first quarter of N uniform nodes over one period
    theta = 2.0 * np.pi * np.arange(quadrature_n // 4 + 1) / quadrature_n
    half = alpha0 * np.sin(theta)
    disp = np.concatenate((-half[:0:-1], half))  # -alpha0 .. alpha0
    weights = np.full(len(disp), 2.0 / quadrature_n)
    weights[[0, -1]] = 1.0 / quadrature_n
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
