"""Phase-space tools: Wigner transforms, marginals, classical portraits.

The Wigner map correlates band-limited samples of the state around each
output position over a symmetric lag window, then Fourier transforms the
lag to the momentum axis.  The samples lie on a fine grid whose step h
divides the spacing of the output positions, so every sample is a grid
point: one inverse FFT of the state's spectrum, zero-padded to the fine
grid and given one phase for the fine grid's offset, yields them all,
and each output position's row is a strided view into that one array.
The rows are streamed a block at a time through a chirp-z lag sum, so no
array of positions x lags is held.  Classical curves come straight from
energy conservation in the averaged potential.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import KhatomError, SpatialGrid, WaveFunction, shift_samples
from .core import read_container, write_container
from .potential import AveragedPotential, local_minima_positions

__all__ = [
    "PhaseSpaceError",
    "WignerGrid",
    "wigner",
    "wigner_marginals",
    "superposition_wigner_analytic",
    "momentum_tail_fraction",
    "check_windows",
    "equienergy_curve",
    "separatrix_energy",
    "phase_portrait",
    "write_wigner",
    "read_wigner",
]

WIGNER_MAGIC = "KHPSW1"
PURE_STATE_BOUND = 1.0 / np.pi
# the phase-space window of every map: 241 positions over +-60 a.u., 201
# momenta over +-0.6 a.u., and lags xi out to XI_MAX; the equienergy curves
# span the same positions.  The momenta must stay uniform: the lag sum is a
# chirp-z transform onto them
X_AXIS = np.linspace(-60.0, 60.0, 241)
P_AXIS = np.linspace(-0.6, 0.6, 201)
X_AXIS.flags.writeable = P_AXIS.flags.writeable = False
XI_MAX = 240.0
# momentum_tail_fraction counts the mass beyond this trapping scale
TAIL_P = 0.25
REALITY_TOL = 1e-10
# output rows per block of the lag sum; a block's products stay in cache
_LAG_ROWS = 16


class PhaseSpaceError(KhatomError):
    module = "phasespace"


@dataclass
class WignerGrid:
    x: np.ndarray
    p: np.ndarray
    values: np.ndarray
    t: float
    frame: str
    # largest |Im| of the complex transform the values were taken from, and
    # |map mass - window norm|; None where the values came from elsewhere
    # (a file, a closed form)
    imag_residue: float | None = None
    mass_deficit: float | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        self.values = np.asarray(self.values)
        if np.iscomplexobj(self.values):
            raise PhaseSpaceError("Wigner values must be real")
        if self.values.shape != (len(self.x), len(self.p)):
            raise PhaseSpaceError(
                f"value matrix {self.values.shape} does not match axes "
                f"({len(self.x)}, {len(self.p)})"
            )
        peak = float(np.max(np.abs(self.values))) if self.values.size else 0.0
        if peak > PURE_STATE_BOUND + 1e-3:
            raise PhaseSpaceError(
                f"|W| reaches {peak:.4f}, beyond the pure-state bound 1/pi"
            )


def _sample_rows(wf: WaveFunction) -> tuple[np.ndarray, float]:
    """Band-limited samples rows[j, M + m] = psi(x_j + m*h), |m| <= M, x_j on
    X_AXIS, and the lag step d_xi = 2h.

    h = step/k from check_windows and M = XI_MAX/(2h), so the lags reach
    +-XI_MAX.  Every sample lies on the fine grid x_0 - M*h + i*h, which is
    the grid's own L/h points shifted by delta, |delta| <= h/2: one inverse
    FFT of the spectrum times exp(i p delta), zero-padded to L/h points,
    gives them all.  Row j is the 2M + 1 samples from i = j*k, a strided
    view into that one array.
    """
    g = wf.grid
    k, n_fine = check_windows(g)
    h = (g.x_max - g.x_min) / n_fine
    m_max = round(0.5 * XI_MAX / h)
    u = (X_AXIS[0] - m_max * h - g.x_min) / h
    i0 = int(np.rint(u))
    samples = shift_samples(g, wf.psi, -(u - i0) * h, n_fine)
    return sliding_window_view(samples[i0:], 2 * m_max + 1)[::k][: len(X_AXIS)], 2.0 * h


def _lag_transform(rows_a: np.ndarray, rows_b: np.ndarray, d_xi: float,
                   p_out: np.ndarray) -> np.ndarray:
    """(1/2pi) sum_m conj(a(x+xi_m/2)) b(x-xi_m/2) e^{ip xi_m} d_xi, xi_m = m*d_xi.

    rows_a and rows_b hold the samples of a and b with the lags m = -M..M
    along each row.  On the uniform p_out, p_k = p_0 + k*dp, this is
    Bluestein's chirp-z transform: with w = dp*d_xi and
    k*m = (k^2 + m^2 - (k - m)^2)/2, the sum over m is the linear
    convolution of c_m e^{i(p_0 xi_m + w m^2/2)} with the chirp
    e^{-i w j^2/2}, j in [-M, M + K), times e^{i w k^2/2}.  Each block of
    _LAG_ROWS rows takes one zero-padded FFT of _next_fast_len(2M + K)
    points per row, a product with the chirp's precomputed spectrum and one
    inverse FFT.
    """
    m_max = rows_a.shape[1] // 2
    n_p = len(p_out)
    w = (p_out[-1] - p_out[0]) / (n_p - 1) * d_xi
    n_fft = _next_fast_len(2 * m_max + n_p)
    m = np.arange(-m_max, m_max + 1.0)
    pre = np.exp(1j * (p_out[0] * d_xi * m + 0.5 * w * m * m))
    # the chirp at lag j sits at FFT index j mod n_fft; the sum reads j in [-M, M + K)
    j = (np.arange(n_fft) + m_max) % n_fft - m_max
    chirp = np.fft.fft(np.exp(-0.5j * w * (j * j)))
    post = np.exp(0.5j * w * np.arange(n_p) ** 2) * (d_xi / (2.0 * np.pi))
    out = np.empty((len(rows_a), n_p), dtype=np.complex128)
    for b in range(0, len(rows_a), _LAG_ROWS):
        block = slice(b, b + _LAG_ROWS)
        corr = np.conj(rows_a[block]) * rows_b[block, ::-1] * pre
        spec = np.fft.fft(corr, n=n_fft, axis=-1)
        spec *= chirp
        conv = np.fft.ifft(spec, axis=-1, out=spec)
        out[block] = conv[:, m_max : m_max + n_p] * post
    return out


def _next_fast_len(target: int) -> int:
    """The least n >= target with no prime factor above 11, pocketfft's good
    size for a complex transform: below 2**64 those are the divisors of 2310**64."""
    return next(n for n in itertools.count(target) if 2310**64 % n == 0)


def check_windows(grid: SpatialGrid) -> tuple[int, int]:
    """Raises unless the grid resolves P_AXIS, holds X_AXIS plus half the lag
    reach, and has a whole number of fine steps h = step/k, k the least
    whole number with h <= dx/2; returns k and that number."""
    p_lim = np.pi / grid.dx
    if np.max(np.abs(P_AXIS)) > p_lim:
        raise PhaseSpaceError(f"momentum window exceeds the resolvable range |p| <= {p_lim:.3f}")
    half = 0.5 * XI_MAX  # x_max is not a sample point: a reach to it wraps to x_min
    if X_AXIS[0] - half < grid.x_min or X_AXIS[-1] + half >= grid.x_max:
        raise PhaseSpaceError("position window plus correlation reach exceeds the grid")
    step = X_AXIS[1] - X_AXIS[0]
    k = int(np.ceil(step / (0.5 * grid.dx) - 1e-9))
    cells = (grid.x_max - grid.x_min) * k / step
    if abs(cells - round(cells)) > 1e-6:
        raise PhaseSpaceError(f"grid length {grid.x_max - grid.x_min:g} is not a whole number "
                              f"of the fine step {step / k:g} that holds every map position")
    return k, round(cells)


def _take_real(w_complex: np.ndarray) -> tuple[np.ndarray, float]:
    """The real part of a transform that must be real, and its largest |Im|."""
    resid = float(np.max(np.abs(w_complex.imag))) if w_complex.size else 0.0
    if resid > REALITY_TOL:
        raise PhaseSpaceError(f"imaginary residue {resid:.2e} above {REALITY_TOL}")
    return np.ascontiguousarray(w_complex.real), resid


def wigner(wf: WaveFunction, mass_tol: float = 1e-3) -> WignerGrid:
    """Wigner distribution of a state on the X_AXIS x P_AXIS window.

    The integrated mass is checked against the window-restricted norm to
    mass_tol; their difference is the map's mass_deficit.  That identity
    presumes the state's momentum content fits the p window; callers
    feeding states with fast flux transiting the window (full-potential
    snapshots) must widen mass_tol accordingly.
    """
    x_out, p_out = X_AXIS, P_AXIS
    rows, d_xi = _sample_rows(wf)
    values, resid = _take_real(_lag_transform(rows, rows, d_xi, p_out))

    # trapezoids in x and p, of the map and of the window's density: the one
    # mass_deficit that is checked here and that the manifest records
    mass = float(np.trapezoid(np.trapezoid(values, dx=p_out[1] - p_out[0], axis=1), x=x_out))
    gx = wf.grid.x
    sel = (gx >= x_out[0]) & (gx <= x_out[-1])
    window_norm = float(np.trapezoid(wf.density()[sel], gx[sel]))
    deficit = abs(mass - window_norm)
    if deficit > mass_tol:
        raise PhaseSpaceError(
            f"Wigner mass {mass:.6f} disagrees with window norm {window_norm:.6f}"
        )
    return WignerGrid(x_out, p_out, values, wf.t, wf.frame, resid, deficit)


def _eval_positions(wf: WaveFunction, xs: np.ndarray) -> np.ndarray:
    """Band-limited values of psi at arbitrary positions."""
    g = wf.grid
    coeff = np.fft.fft(wf.psi) / g.n_points
    out = np.empty(len(xs), dtype=np.complex128)
    for i in range(0, len(xs), 64):
        chunk = xs[i : i + 64]
        out[i : i + 64] = np.exp(1j * np.outer(chunk - g.x_min, g.p)) @ coeff
    return out


def _eval_momenta(wf: WaveFunction, ps: np.ndarray) -> np.ndarray:
    """Continuum Fourier transform of psi at arbitrary momenta (unitary)."""
    g = wf.grid
    out = np.empty(len(ps), dtype=np.complex128)
    for i in range(0, len(ps), 64):
        chunk = ps[i : i + 64]
        out[i : i + 64] = np.exp(-1j * np.outer(chunk, g.x)) @ wf.psi
    return out * g.dx / np.sqrt(2.0 * np.pi)


def wigner_marginals(w: WignerGrid, wf: WaveFunction) -> tuple[float, float]:
    """Sup-norm residuals of the two marginals against the state's densities."""
    pos_marginal = np.trapezoid(w.values, w.p, axis=1)
    pos_density = np.abs(_eval_positions(wf, w.x)) ** 2
    r_x = float(np.max(np.abs(pos_marginal - pos_density)))

    mom_marginal = np.trapezoid(w.values, w.x, axis=0)
    mom_density = np.abs(_eval_momenta(wf, w.p)) ** 2
    r_p = float(np.max(np.abs(mom_marginal - mom_density)))
    return r_x, r_p


def superposition_wigner_analytic(pair0, pair1, t: float) -> WignerGrid:
    """Closed-form Wigner evolution of the equal-weight two-state superposition.

    W(t) = (W0 + W1)/2 + Re[e^{-i w10 t} C] with C the cross transform of
    the two stationary states.  The cross term rotates at the beat
    frequency: its real part modulates the well-to-well breathing (cos),
    its imaginary part is odd in p and carries the transit momentum the
    packet has while moving between the wells (sin).
    """
    phi0, phi1 = pair0.state, pair1.state
    if phi0.grid != phi1.grid or phi0.frame != phi1.frame:
        raise PhaseSpaceError("eigenstates must share a grid and frame")
    (rows0, d_xi), (rows1, _) = _sample_rows(phi0), _sample_rows(phi1)
    w0, _ = _take_real(_lag_transform(rows0, rows0, d_xi, P_AXIS))
    w1, _ = _take_real(_lag_transform(rows1, rows1, d_xi, P_AXIS))
    cross = _lag_transform(rows0, rows1, d_xi, P_AXIS)

    w10 = pair1.energy - pair0.energy
    values = (
        0.5 * (w0 + w1)
        + np.cos(w10 * t) * cross.real
        + np.sin(w10 * t) * cross.imag
    )
    return WignerGrid(X_AXIS, P_AXIS, values, t, phi0.frame)


def momentum_tail_fraction(w: WignerGrid) -> float:
    """Fraction of the distribution's probability mass at |p| > TAIL_P.

    Signed sum, not sum of |W|: integrating the map over x first reduces
    it to the momentum marginal, so oscillatory interference fringes that
    carry no net probability do not inflate the tail.
    """
    marginal = np.sum(w.values, axis=0)
    total = float(np.sum(marginal))
    if total <= 0.0:
        return 0.0
    tail = float(np.sum(marginal[np.abs(w.p) > TAIL_P]))
    return tail / total


def equienergy_curve(energy: float, avg: AveragedPotential) -> list:
    """Branches of p = +-sqrt(2(E - V0(x))) over the span of X_AXIS.

    Returns a list of (x, p) point arrays, one per connected branch;
    empty where the energy lies below the potential everywhere.
    """
    g = avg.grid
    sel = np.where((g.x >= X_AXIS[0]) & (g.x <= X_AXIS[-1]))[0]
    radicand = 2.0 * (energy - avg.samples[sel])
    ok = radicand >= 0.0
    branches = []
    if not np.any(ok):
        return branches
    runs = np.split(np.arange(len(sel)), np.where(np.diff(ok.astype(int)) != 0)[0] + 1)
    for run in runs:
        if not ok[run[0]]:
            continue
        xs = g.x[sel[run]]
        ps = np.sqrt(radicand[run])
        branches.append((xs, ps))
        branches.append((xs, -ps))
    return branches


def separatrix_energy(avg: AveragedPotential) -> float:
    """Energy of the central barrier top separating the two wells."""
    minima = local_minima_positions(avg)
    if len(minima) < 2:
        raise PhaseSpaceError("averaged potential has a single well, no saddle")
    g = avg.grid
    i_lo = int(np.searchsorted(g.x, minima[0]))
    i_hi = int(np.searchsorted(g.x, minima[-1]))
    return float(np.max(avg.samples[i_lo : i_hi + 1]))


def phase_portrait(avg: AveragedPotential, energies) -> list:
    """The equienergy_curve branches of each energy, in order."""
    return [equienergy_curve(e, avg) for e in energies]


def write_wigner(path, w: WignerGrid) -> None:
    write_container(path, WIGNER_MAGIC, (len(w.x), len(w.p)),
                    (w.x[0], w.x[-1], w.p[0], w.p[-1], w.t), w.frame, w.values)


def read_wigner(path) -> WignerGrid:
    (n_x, n_p), (x_min, x_max, p_min, p_max, t), frame, raw = read_container(
        path, WIGNER_MAGIC, 2, 5, 8, PhaseSpaceError
    )
    x = np.linspace(x_min, x_max, n_x)
    p = np.linspace(p_min, p_max, n_p)
    return WignerGrid(x, p, raw.reshape(n_x, n_p).copy(), t, frame)
