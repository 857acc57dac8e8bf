"""Scalar diagnostics: populations, widths, positions, autocorrelations.

The Recorder assembles the standard 14-column series during a
propagation run.  For lab runs the oscillating-frame quantities
(populations against the dressed eigenstates, mean position, the
autocorrelation and the half-line masses) are computed on the
transformed state; columns that make no sense for a mode are emitted as
nan.
"""

from __future__ import annotations

import numpy as np

from .core import KhatomError, WaveFunction, inner_product
from .frame import FrameTransformContext

__all__ = [
    "CSV_COLUMNS",
    "ObservableError",
    "Recorder",
    "population",
    "trapped_width",
    "write_series",
    "read_series",
]

CSV_COLUMNS = (
    "t",
    "P_b",
    "P_KH_0",
    "P_KH_1",
    "P_KH_total",
    "sigma_x",
    "mean_x_lab",
    "mean_x_kh",
    "autocorr_re",
    "autocorr_im",
    "autocorr_abs2",
    "mass_left",
    "mass_right",
    "norm",
)

HALF_LINE_WINDOW = 60.0
WINDOW = (-HALF_LINE_WINDOW, HALF_LINE_WINDOW)


class ObservableError(KhatomError):
    module = "observables"


def population(psi: WaveFunction, phi: WaveFunction) -> float:
    """|<phi|psi>|^2; the frame tags must agree (inner_product checks)."""
    return float(abs(inner_product(phi, psi)) ** 2)


def _span(grid, lo: float, lo_side: str, hi: float, hi_side: str) -> slice:
    """The contiguous run of samples between lo and hi; side 'left' of lo
    keeps x == lo, side 'right' of hi keeps x == hi."""
    return slice(np.searchsorted(grid.x, lo, lo_side), np.searchsorted(grid.x, hi, hi_side))


def _window_moments(grid, den: np.ndarray, window: tuple) -> tuple[float, float, float]:
    """Weight, mean and standard deviation of a density over lo <= x <= hi.

    Windowed, not full-grid: once ionized flux leaves the region, the
    full-grid mean tracks the lost norm rather than the trapped cloud.
    """
    lo, hi = window
    if lo < grid.x_min or hi > grid.x_max:
        raise ObservableError("window extends beyond the grid")
    sel = _span(grid, lo, "left", hi, "right")
    den = den[sel]
    w = grid.dx * den.sum()
    if w < 1e-8:
        raise ObservableError("window norm below 1e-8: nothing trapped")
    x = grid.x[sel]
    mean = grid.dx * np.sum(x * den) / w
    mean2 = grid.dx * np.sum(x * x * den) / w
    return float(w), float(mean), float(np.sqrt(max(mean2 - mean**2, 0.0)))


def trapped_width(psi: WaveFunction) -> float:
    """Standard deviation of position over WINDOW, renormalized there."""
    return _window_moments(psi.grid, psi.density(), WINDOW)[2]


def _half_line_masses(grid, den: np.ndarray) -> tuple[float, float]:
    """Density integrated over [-60, 0) and (0, 60]."""
    left = _span(grid, -HALF_LINE_WINDOW, "left", 0.0, "left")
    right = _span(grid, 0.0, "right", HALF_LINE_WINDOW, "right")
    return float(grid.dx * den[left].sum()), float(grid.dx * den[right].sum())


class Recorder:
    """Accumulates the standard observable rows during propagation.

    Each row is checked as it comes: times must increase, and every P_*
    population lie in [0, 1] (within 1e-9) unless it is nan.

    Given a frame context, the Recorder records a lab run: P_b is taken
    against the atomic ground pair, and the dressed-state populations and
    oscillating-frame columns on the transformed snapshot.  Without one it
    records a kh run: those transforms are identities the state already
    lives in, and the lab-only columns are nan.
    """

    def __init__(
        self,
        ground_pair=None,
        kh_pairs=(),
        frame_ctx: FrameTransformContext | None = None,
    ):
        self._lab = frame_ctx is not None
        self.ground_pair = ground_pair
        self.kh_pairs = tuple(kh_pairs)
        self.frame_ctx = frame_ctx
        self.rows: list[tuple] = []
        self._ref_kh: WaveFunction | None = None

    def record(self, t: float, wf: WaveFunction) -> None:
        if self.rows and t <= self.rows[-1][0]:
            raise ObservableError(f"observable times must increase: {t} after {self.rows[-1][0]}")
        kh = self.frame_ctx.lab_to_kh(wf) if self._lab else wf
        if self._ref_kh is None:
            self._ref_kh = kh

        p_b = population(wf, self.ground_pair.state) if self._lab else np.nan
        pops = [population(kh, pair.state) for pair in self.kh_pairs]
        p0 = pops[0] if len(pops) > 0 else np.nan
        p1 = pops[1] if len(pops) > 1 else np.nan
        p_tot = float(np.sum(pops)) if pops else np.nan
        for name, value in zip(CSV_COLUMNS[1:5], (p_b, p0, p1, p_tot)):
            if not np.isnan(value) and not -1e-9 <= value <= 1.0 + 1e-9:
                raise ObservableError(f"series '{name}': population {value} outside [0, 1]")

        g = wf.grid
        den = wf.density()
        den_kh = kh.density() if self._lab else den
        try:
            _, mean_wf, sigma = _window_moments(g, den, WINDOW)
        except ObservableError:
            sigma = mean_lab = mean_kh = np.nan
        else:
            try:
                mean_kh = _window_moments(g, den_kh, WINDOW)[1] if self._lab else mean_wf
                mean_lab = mean_wf if self._lab else np.nan
            except ObservableError:
                mean_lab = mean_kh = np.nan
        c = inner_product(self._ref_kh, kh)
        left, right = _half_line_masses(g, den_kh)
        self.rows.append(
            (
                t,
                p_b,
                p0,
                p1,
                p_tot,
                sigma,
                mean_lab,
                mean_kh,
                c.real,
                c.imag,
                abs(c) ** 2,
                left,
                right,
                float(g.dx * np.sum(den)),
            )
        )

    def column(self, name: str) -> np.ndarray:
        i = CSV_COLUMNS.index(name)
        return np.array([row[i] for row in self.rows])


def write_series(path, recorder: Recorder) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in recorder.rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_series(path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ObservableError(f"unexpected series header in {path}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        data = data.reshape(0, len(CSV_COLUMNS))
    return {name: data[:, i] for i, name in enumerate(CSV_COLUMNS)}
