"""Unitary transform between the lab frame and the oscillating frame.

The forward transform is psi_KH(x) = exp(i S/2 + i A (x - alpha)) *
psi_L(x - alpha), with A = -int eps, alpha = int A and S = int A^2 taken
from the field cache.  The shift direction co-moves with the quiver the
driven Hamiltonian p^2/2 + V - x*eps actually produces (a free electron
displaces by -alpha under that coupling), so a stabilized cloud is
static in the transformed view and the boost exp(iA(x-alpha)) removes
its quiver momentum.  Before the pulse A, alpha and S all vanish and the
transform is the identity; after the pulse A and alpha return to zero
and only the frozen global phase S remains, so lookups outside the
cached window are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    FRAME_KH,
    FRAME_LAB,
    KhatomError,
    SpatialGrid,
    WaveFunction,
    periodic_sinc_shift,
    phase_ramp,
    shift_samples,
)
from .laser import FieldCache
from .propagator import ABSORBER_HALF_WIDTH

__all__ = ["FrameTransformContext", "FrameTransformError", "density_relation_residual"]


class FrameTransformError(KhatomError):
    module = "frame"


@dataclass(frozen=True)
class FrameTransformContext:
    cache: FieldCache
    grid: SpatialGrid

    def _field_values(self, t: float):
        c = self.cache
        return c.a_at(t), c.alpha_at(t), c.s_at(t)

    def _boost(self, sign: float, a: float, alpha: float, s: float) -> np.ndarray:
        """exp(sign*i(S/2 + A(x - alpha))) on the grid."""
        g = self.grid
        return phase_ramp(sign * (0.5 * s - a * alpha), sign * a, g.x_min, g.dx, g.n_points)

    def lab_to_kh(self, wf: WaveFunction) -> WaveFunction:
        """Shift against alpha(wf.t), then apply the phase; retags to 'kh'."""
        if wf.frame != FRAME_LAB:
            raise FrameTransformError(
                f"lab_to_kh needs a '{FRAME_LAB}' state, got '{wf.frame}'"
            )
        if wf.grid != self.grid:
            raise FrameTransformError("wave function grid differs from context grid")
        a, alpha, s = self._field_values(wf.t)
        shifted = shift_samples(self.grid, wf.psi, alpha)  # psi_L(x - alpha)
        shifted *= self._boost(1.0, a, alpha, s)
        return WaveFunction(self.grid, shifted, wf.t, FRAME_KH)

    def kh_to_lab(self, wf: WaveFunction) -> WaveFunction:
        """Exact inverse of lab_to_kh."""
        if wf.frame != FRAME_KH:
            raise FrameTransformError(
                f"kh_to_lab needs a '{FRAME_KH}' state, got '{wf.frame}'"
            )
        if wf.grid != self.grid:
            raise FrameTransformError("wave function grid differs from context grid")
        a, alpha, s = self._field_values(wf.t)
        shifted = shift_samples(self.grid, self._boost(-1.0, a, alpha, s) * wf.psi, -alpha)
        return WaveFunction(self.grid, shifted, wf.t, FRAME_LAB)


def density_relation_residual(
    ctx: FrameTransformContext, psi_lab: WaveFunction, psi_kh: WaveFunction
) -> float:
    """sup |  |psi_KH(x)|^2 - |psi_L(x - alpha)|^2  | over |x| <= ABSORBER_HALF_WIDTH.

    The reference shift goes through the direct periodic kernel, not the
    FFT used by the transform itself, so the check is independent.
    """
    if psi_lab.frame != FRAME_LAB or psi_kh.frame != FRAME_KH:
        raise FrameTransformError("expected one lab and one kh state")
    if abs(psi_lab.t - psi_kh.t) > 1e-9:
        raise FrameTransformError("states are from different times")
    alpha = ctx.cache.alpha_at(psi_lab.t)
    ref = periodic_sinc_shift(ctx.grid, psi_lab.psi, alpha)
    window = np.abs(ctx.grid.x) <= ABSORBER_HALF_WIDTH
    diff = np.abs(psi_kh.density() - np.abs(ref) ** 2)
    return float(diff[window].max())
