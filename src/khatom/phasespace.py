"""Phase-space tools: Wigner transforms, marginals, classical portraits.

The Wigner map correlates band-limited half-step samples of the state
around each output position over a symmetric lag window, then Fourier
transforms the lag to the momentum axis.  The samples come from the
state's spectrum zero-padded to twice the grid (half the spacing, h):
an output position x_j lies a fraction t_j (|t_j| <= 1/2) of h from a
fine-grid point, and the shift by t_j*h is a Taylor series in t_j whose
n-th coefficient is one inverse FFT of the padded spectrum times
(i p h)^n / n!.  So one map takes TAYLOR_ORDER + 1 inverse FFTs, shared
by all output positions, instead of one per position.  Classical curves
come straight from energy conservation in the averaged potential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import ifft

from .core import KhatomError, SpatialGrid, WaveFunction, padded_spectrum, read_container
from .potential import AveragedPotential, local_minima_positions

__all__ = [
    "PhaseSpaceError",
    "WignerGrid",
    "PhasePortrait",
    "wigner",
    "wigner_cross",
    "wigner_marginals",
    "superposition_wigner_analytic",
    "momentum_tail_fraction",
    "equienergy_curve",
    "separatrix_energy",
    "saddle_position",
    "phase_portrait",
    "write_wigner",
    "read_wigner",
]

WIGNER_MAGIC = "KHPSW1"
PURE_STATE_BOUND = 1.0 / np.pi
DEFAULT_X_WINDOW = (-60.0, 60.0)
DEFAULT_P_WINDOW = (-0.6, 0.6)
DEFAULT_N_X = 241
DEFAULT_N_P = 201
DEFAULT_XI_MAX = 240.0
REALITY_TOL = 1e-10
# Taylor order of the sub-sample shift exp(i p h t): the padded spectrum lives
# in |p h| <= pi/2 and |t| <= 1/2, so the remainder is at most
# (pi/4)^19 / 19! ~ 1e-19 of sum |c_k| for any state in the band
TAYLOR_ORDER = 18
# output rows per block of the lag sum; a block's lag products stay in cache
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
    # largest |Im| of the complex transform the values were taken from;
    # None where they came from elsewhere (a file, a closed form)
    imag_residue: float | None = None

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


@dataclass
class PhasePortrait:
    energies: tuple
    curves: list
    e_sep: float


def _axes(x_window, p_window, n_x, n_p):
    if n_x < 2 or n_p < 2:
        raise PhaseSpaceError("need at least 2 points per phase-space axis")
    if not (x_window[0] < x_window[1] and p_window[0] < p_window[1]):
        raise PhaseSpaceError("windows must be increasing (lo, hi) pairs")
    return (
        np.linspace(x_window[0], x_window[1], n_x),
        np.linspace(p_window[0], p_window[1], n_p),
    )


def _sample_matrix(wf: WaveFunction, x_out: np.ndarray, m_max: int) -> np.ndarray:
    """Rows of band-limited samples psi(x_j + m*h), m in [-M, M], h = dx/2.

    With x_j = x_min + (i_j + t_j)*h, |t_j| <= 1/2, each row is
    sum_n t_j^n D_n[i_j + m], D_n = ifft(S (i p h)^n / n!) on the 2x grid.
    """
    g = wf.grid
    h = 0.5 * g.dx
    u = (x_out - g.x_min) / h
    i = np.rint(u).astype(int)
    t = u - i
    lo, hi = int(i.min()) - m_max, int(i.max()) + m_max + 1
    if lo < 0 or hi > 2 * g.n_points:
        raise PhaseSpaceError("correlation window exceeds the grid")
    spec = padded_spectrum(g, wf.psi)
    ph = (2.0 * np.pi) * np.fft.fftfreq(len(spec))  # p*h; spec vanishes beyond |p*h| = pi/2
    terms = np.empty((TAYLOR_ORDER + 1, len(spec)), dtype=np.complex128)
    terms[0] = spec
    for n in range(1, TAYLOR_ORDER + 1):
        terms[n] = terms[n - 1] * ((1j / n) * ph)
    # one batched transform: bit-identical to one call per row, about twice as fast
    d = ifft(terms, axis=-1, overwrite_x=True)[:, lo:hi]
    powers = (t[:, None] ** np.arange(TAYLOR_ORDER + 1)).astype(np.complex128)
    width = 2 * m_max + 1
    out = np.empty((len(x_out), width), dtype=np.complex128)
    for j, a in enumerate(i - m_max - lo):
        out[j] = powers[j] @ d[:, a : a + width]
    return out


def _lag_kernels(m_max: int, d_xi: float, p_out: np.ndarray):
    """cos(p xi_m) and sin(p xi_m), m = 1..M, as two contiguous M x n_p arrays.

    With xi_m = (q*b + r)*d_xi and b a power of two near sqrt(M), the angle
    sum builds them from (M/b + b) x n_p cos/sin pairs.  Each value is within
    a few ulp of max|p*xi| of the direct one, which is the rounding of the
    argument itself.
    """
    b = 1 << (m_max.bit_length() // 2)
    coarse = np.outer(np.arange(0, m_max + 1, b) * d_xi, p_out)[:, None, :]
    fine = np.outer(np.arange(b) * d_xi, p_out)
    cq, sq, cr, sr = np.cos(coarse), np.sin(coarse), np.cos(fine), np.sin(fine)
    cos = (cq * cr - sq * sr).reshape(-1, len(p_out))[1 : m_max + 1]
    sin = (sq * cr + cq * sr).reshape(-1, len(p_out))[1 : m_max + 1]
    return cos, sin


def _lag_transform(s_a: np.ndarray, s_b: np.ndarray, p_out: np.ndarray, d_xi: float) -> np.ndarray:
    """(1/2pi) sum_m conj(a(x+xi_m/2)) b(x-xi_m/2) e^{ip xi_m} d_xi.

    Folded over +-xi_m in real arithmetic: with c_m the lag products,
    sum_m c_m e^{ip xi_m} = c_0 + sum_{m>0} [(c_m + c_-m) cos(p xi_m)
    + i (c_m - c_-m) sin(p xi_m)].  So each block of _LAG_ROWS output rows
    is two real matrix products, the stacked real and imaginary parts of
    the even and odd sums against the M x n_p cos and sin kernels.
    """
    n, m_max = len(s_a), (s_a.shape[1] - 1) // 2
    cos, sin = _lag_kernels(m_max, d_xi, p_out)
    out = np.empty((n, len(p_out)), dtype=np.complex128)
    for lo in range(0, n, _LAG_ROWS):
        rows = slice(lo, lo + _LAG_ROWS)
        corr = np.conj(s_a[rows])
        corr *= s_b[rows, ::-1]
        k = len(corr)
        pos, neg, c_0 = corr[:, m_max + 1 :], corr[:, m_max - 1 :: -1], corr[:, m_max, None]
        c = np.concatenate((pos.real + neg.real, pos.imag + neg.imag)) @ cos
        s = np.concatenate((pos.real - neg.real, pos.imag - neg.imag)) @ sin
        out[rows].real = c[:k] - s[k:] + c_0.real
        out[rows].imag = c[k:] + s[:k] + c_0.imag
    return out * (d_xi / (2.0 * np.pi))


def _check_windows(grid: SpatialGrid, x_out, p_out, xi_max):
    p_lim = np.pi / grid.dx
    if np.max(np.abs(p_out)) > p_lim:
        raise PhaseSpaceError(
            f"momentum window exceeds the resolvable range |p| <= {p_lim:.3f}"
        )
    reach = max(abs(x_out[0]), abs(x_out[-1])) + 0.5 * xi_max
    if reach > grid.x_max:
        raise PhaseSpaceError("position window plus correlation reach exceeds the grid")


def _take_real(w_complex: np.ndarray) -> tuple[np.ndarray, float]:
    """The real part of a transform that must be real, and its largest |Im|."""
    resid = float(np.max(np.abs(w_complex.imag))) if w_complex.size else 0.0
    if resid > REALITY_TOL:
        raise PhaseSpaceError(f"imaginary residue {resid:.2e} above {REALITY_TOL}")
    return np.ascontiguousarray(w_complex.real), resid


def wigner(
    wf: WaveFunction,
    x_window=DEFAULT_X_WINDOW,
    p_window=DEFAULT_P_WINDOW,
    n_x: int = DEFAULT_N_X,
    n_p: int = DEFAULT_N_P,
    xi_max: float = DEFAULT_XI_MAX,
    mass_tol: float = 1e-3,
) -> WignerGrid:
    """Wigner distribution of a state over a rectangular phase-space window.

    The integrated mass is checked against the window-restricted norm to
    mass_tol.  That identity presumes the state's momentum content fits
    the p window; callers feeding states with fast flux transiting the
    window (full-potential snapshots) must widen mass_tol accordingly.
    """
    x_out, p_out = _axes(x_window, p_window, n_x, n_p)
    _check_windows(wf.grid, x_out, p_out, xi_max)
    m_max = int(xi_max / wf.grid.dx)
    s = _sample_matrix(wf, x_out, m_max)
    values, resid = _take_real(_lag_transform(s, s, p_out, wf.grid.dx))

    sel = (wf.grid.x >= x_window[0]) & (wf.grid.x <= x_window[1])
    window_norm = float(wf.grid.dx * np.sum(wf.density()[sel]))
    total = float(np.trapezoid(np.trapezoid(values, p_out, axis=1), x_out))
    if abs(total - window_norm) > mass_tol:
        raise PhaseSpaceError(
            f"Wigner mass {total:.6f} disagrees with window norm {window_norm:.6f}"
        )
    return WignerGrid(x_out, p_out, values, wf.t, wf.frame, resid)


def wigner_cross(
    wf_a: WaveFunction,
    wf_b: WaveFunction,
    x_window=DEFAULT_X_WINDOW,
    p_window=DEFAULT_P_WINDOW,
    n_x: int = DEFAULT_N_X,
    n_p: int = DEFAULT_N_P,
    xi_max: float = DEFAULT_XI_MAX,
) -> np.ndarray:
    """Complex cross transform (1/2pi) int conj(a(x+xi/2)) b(x-xi/2) e^{ipxi} dxi."""
    if wf_a.grid != wf_b.grid:
        raise PhaseSpaceError("cross transform needs a common grid")
    x_out, p_out = _axes(x_window, p_window, n_x, n_p)
    _check_windows(wf_a.grid, x_out, p_out, xi_max)
    m_max = int(xi_max / wf_a.grid.dx)
    s_a = _sample_matrix(wf_a, x_out, m_max)
    s_b = _sample_matrix(wf_b, x_out, m_max)
    return _lag_transform(s_a, s_b, p_out, wf_a.grid.dx)


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


def superposition_wigner_analytic(
    pair0,
    pair1,
    t: float,
    x_window=DEFAULT_X_WINDOW,
    p_window=DEFAULT_P_WINDOW,
    n_x: int = DEFAULT_N_X,
    n_p: int = DEFAULT_N_P,
    xi_max: float = DEFAULT_XI_MAX,
) -> WignerGrid:
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
    x_out, p_out = _axes(x_window, p_window, n_x, n_p)
    _check_windows(phi0.grid, x_out, p_out, xi_max)
    m_max = int(xi_max / phi0.grid.dx)
    d_xi = phi0.grid.dx

    s0 = _sample_matrix(phi0, x_out, m_max)
    s1 = _sample_matrix(phi1, x_out, m_max)
    w0, _ = _take_real(_lag_transform(s0, s0, p_out, d_xi))
    w1, _ = _take_real(_lag_transform(s1, s1, p_out, d_xi))
    cross = _lag_transform(s0, s1, p_out, d_xi)

    w10 = pair1.energy - pair0.energy
    values = (
        0.5 * (w0 + w1)
        + np.cos(w10 * t) * cross.real
        + np.sin(w10 * t) * cross.imag
    )
    return WignerGrid(x_out, p_out, values, t, phi0.frame)


def momentum_tail_fraction(w: WignerGrid, p_cut: float = 0.25) -> float:
    """Fraction of the distribution's probability mass at |p| > p_cut.

    Signed sum, not sum of |W|: integrating the map over x first reduces
    it to the momentum marginal, so oscillatory interference fringes that
    carry no net probability do not inflate the tail.
    """
    marginal = np.sum(w.values, axis=0)
    total = float(np.sum(marginal))
    if total <= 0.0:
        return 0.0
    tail = float(np.sum(marginal[np.abs(w.p) > p_cut]))
    return tail / total


def equienergy_curve(energy: float, avg: AveragedPotential, x_window=DEFAULT_X_WINDOW) -> list:
    """Branches of p = +-sqrt(2(E - V0(x))) inside the window.

    Returns a list of (x, p) point arrays, one per connected branch;
    empty where the energy lies below the potential everywhere.
    """
    g = avg.grid
    sel = np.where((g.x >= x_window[0]) & (g.x <= x_window[1]))[0]
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


def _saddle_index(avg: AveragedPotential) -> int:
    minima = local_minima_positions(avg)
    if len(minima) < 2:
        raise PhaseSpaceError("averaged potential has a single well, no saddle")
    g = avg.grid
    i_lo = int(np.searchsorted(g.x, minima[0]))
    i_hi = int(np.searchsorted(g.x, minima[-1]))
    return i_lo + int(np.argmax(avg.samples[i_lo : i_hi + 1]))


def separatrix_energy(avg: AveragedPotential) -> float:
    """Energy of the central barrier top separating the two wells."""
    return float(avg.samples[_saddle_index(avg)])


def saddle_position(avg: AveragedPotential) -> float:
    return float(avg.grid.x[_saddle_index(avg)])


def phase_portrait(avg: AveragedPotential, energies, x_window=DEFAULT_X_WINDOW) -> PhasePortrait:
    curves = [equienergy_curve(e, avg, x_window) for e in energies]
    return PhasePortrait(tuple(energies), curves, separatrix_energy(avg))


def write_wigner(path, w: WignerGrid) -> None:
    header = (
        f"{WIGNER_MAGIC} {len(w.x)} {len(w.p)} "
        f"{float(w.x[0])!r} {float(w.x[-1])!r} {float(w.p[0])!r} {float(w.p[-1])!r} "
        f"{float(w.t)!r} {w.frame}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(w.values, dtype="<f8").tobytes())


def read_wigner(path) -> WignerGrid:
    (n_x, n_p), (x_min, x_max, p_min, p_max, t), frame, raw = read_container(
        path, WIGNER_MAGIC, 2, 5, 8, PhaseSpaceError
    )
    x = np.linspace(x_min, x_max, n_x)
    p = np.linspace(p_min, p_max, n_p)
    return WignerGrid(x, p, raw.reshape(n_x, n_p).copy(), t, frame)
