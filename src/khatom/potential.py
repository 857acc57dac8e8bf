"""Model binding potential and its cycle-averaged form.

The binding potential is a short-range single-well model with one bound
state.  Averaging it over one period of the quiver displacement
alpha0*sin(theta) gives the dressed (dichotomous) potential that governs
the dynamics in the oscillating frame; its Fourier harmonics in theta are
available as diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import KhatomError, SpatialGrid

__all__ = [
    "PotentialModel",
    "AveragedPotential",
    "PotentialError",
    "atomic_potential",
    "kh_averaged_potential",
    "kh_fourier_harmonic",
    "local_minima_positions",
    "MAX_HARMONIC",
]

MAX_HARMONIC = 64

# minimum number of phase nodes accepted for the cycle average
MIN_QUADRATURE_N = 256
DEFAULT_QUADRATURE_N = 2048

_GRID_CHUNK = 1024


class PotentialError(KhatomError):
    module = "potential"


@dataclass(frozen=True)
class PotentialModel:
    """Parameters of the model binding potential.

    depth is the (negative) prefactor; exp_softening sits inside the
    square root in the exponent, denom_width inside the one in the
    denominator.
    """

    depth: float = -24.856
    exp_softening: float = 16.0
    denom_width: float = 6.27

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return (
            self.depth
            * np.exp(-np.sqrt(x * x + self.exp_softening))
            / np.sqrt(x * x + self.denom_width**2)
        )


DEFAULT_MODEL = PotentialModel()


def atomic_potential(x, model: PotentialModel = DEFAULT_MODEL):
    """Binding potential V(x); even in x, negative everywhere, short range."""
    return model(x)


@dataclass(frozen=True)
class AveragedPotential:
    """Cycle average of the displaced binding potential on a grid."""

    grid: SpatialGrid
    alpha0: float
    samples: np.ndarray
    quadrature_n: int

    def __post_init__(self):
        if len(self.samples) != self.grid.n_points:
            raise PotentialError("samples do not match the grid")


def _phase_nodes(quadrature_n: int) -> np.ndarray:
    # uniform nodes over one period; periodic trapezoid = plain mean
    return 2.0 * np.pi * np.arange(quadrature_n) / quadrature_n


def _check_quadrature(alpha0: float, quadrature_n: int) -> None:
    if alpha0 <= 0:
        raise PotentialError("alpha0 must be positive")
    if quadrature_n < MIN_QUADRATURE_N:
        raise PotentialError(
            f"quadrature_n = {quadrature_n} below minimum {MIN_QUADRATURE_N}"
        )


def kh_averaged_potential(
    grid: SpatialGrid,
    alpha0: float,
    quadrature_n: int = DEFAULT_QUADRATURE_N,
    model: PotentialModel = DEFAULT_MODEL,
) -> AveragedPotential:
    """Average model(x + alpha0*sin(theta)) over theta in [0, 2pi).

    Uniform phase nodes; for the smooth periodic integrand this converges
    spectrally, so 2048 nodes is already at machine accuracy.  The sum is
    folded over two exact symmetries.  sin(pi - theta) = sin(theta) on the
    nodes, so N/2 + 1 displacements carry weight 2/N (1/N at +-alpha0);
    this needs N % 4 == 0.  V0 is even, so it is evaluated at the distinct
    |x| of the grid and mapped back, which makes it exactly even on a
    symmetric grid.
    """
    _check_quadrature(alpha0, quadrature_n)
    if quadrature_n % 4:
        raise PotentialError(f"quadrature_n = {quadrature_n} is not a multiple of 4")
    half = alpha0 * np.sin(_phase_nodes(quadrature_n)[: quadrature_n // 4 + 1])
    disp = np.concatenate((-half[:0:-1], half))  # -alpha0 .. alpha0
    weights = np.full(len(disp), 2.0 / quadrature_n)
    weights[[0, -1]] = 1.0 / quadrature_n
    ax, where = np.unique(np.abs(grid.x), return_inverse=True)
    folded = np.empty(len(ax))
    for lo in range(0, len(ax), _GRID_CHUNK):
        hi = min(lo + _GRID_CHUNK, len(ax))
        folded[lo:hi] = (model(ax[lo:hi, None] + disp[None, :]) * weights).sum(axis=1)
    return AveragedPotential(grid, alpha0, folded[where], quadrature_n)


def kh_fourier_harmonic(
    n: int,
    grid: SpatialGrid,
    alpha0: float,
    quadrature_n: int = DEFAULT_QUADRATURE_N,
    model: PotentialModel = DEFAULT_MODEL,
) -> np.ndarray:
    """nth Fourier coefficient of the displaced potential over one period.

    n = 0 reproduces the cycle average; coefficients obey V_{-n} = conj(V_n),
    and for the sin-quiver they are purely real (n even) or purely
    imaginary (n odd).  Diagnostics only; never fed back into propagation.
    """
    if abs(n) > MAX_HARMONIC:
        raise PotentialError(f"|n| = {abs(n)} exceeds maximum harmonic {MAX_HARMONIC}")
    _check_quadrature(alpha0, quadrature_n)
    theta = _phase_nodes(quadrature_n)
    disp = alpha0 * np.sin(theta)
    phase = np.exp(-1j * n * theta) / quadrature_n
    x = grid.x
    out = np.empty(grid.n_points, dtype=complex)
    for lo in range(0, grid.n_points, _GRID_CHUNK):
        hi = min(lo + _GRID_CHUNK, grid.n_points)
        out[lo:hi] = model(x[lo:hi, None] + disp[None, :]) @ phase
    return out


def local_minima_positions(avg: AveragedPotential) -> np.ndarray:
    """Grid positions of all strict local minima of the averaged samples."""
    v = avg.samples
    interior = (v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])
    return avg.grid.x[1:-1][interior]
