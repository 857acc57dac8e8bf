"""Independent closed forms and solvers that the checks compare the program against.

None of these runs in a khatom run; each restates a textbook formula or
method in its plainest form, off the code paths under test.
"""

import logging

import numpy as np
from scipy.linalg import eigh_tridiagonal

from khatom.core import WaveFunction
from khatom.eigen import EDGE_AMP_TOL, NEAR_ZERO_DISCARD, EigenError, EigenPair, fix_global_phase
from khatom.potential import PotentialError, atomic_potential

MAX_HARMONIC = 64
HARMONIC_NODES = 2048
PARITY_TOL = 1e-6

log = logging.getLogger(__name__)


def kh_fourier_harmonic(n, grid, alpha0):
    """nth Fourier coefficient in theta of V(x + alpha0 sin(theta)) over one period.

    n = 0 is the cycle average; coefficients obey V_{-n} = conj(V_n), and
    for the sin-quiver they are purely real (n even) or purely imaginary
    (n odd).  A plain mean over HARMONIC_NODES uniform nodes, one grid row
    at a time.
    """
    if abs(n) > MAX_HARMONIC:
        raise PotentialError(f"|n| = {abs(n)} exceeds maximum harmonic {MAX_HARMONIC}")
    theta = 2.0 * np.pi * np.arange(HARMONIC_NODES) / HARMONIC_NODES
    disp = alpha0 * np.sin(theta)
    phase = np.exp(-1j * n * theta) / HARMONIC_NODES
    out = np.empty(grid.n_points, dtype=complex)
    for lo in range(0, grid.n_points, 16):
        out[lo : lo + 16] = atomic_potential(grid.x[lo : lo + 16, None] + disp[None, :]) @ phase
    return out


def harmonic_amplitude(times, values, omega):
    """Amplitude of the omega component of a uniformly sampled series."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    detrended = values - values.mean()
    z = np.sum(detrended * np.exp(-1j * omega * times))
    return float(2.0 * abs(z) / len(times))


def two_level_density(pair0, pair1, t):
    """Beat-note density of the equal-weight two-state superposition.

    (|phi0|^2 + |phi1|^2)/2 + Re[phi1 phi0*] cos(w10 t) for the real
    eigenstates; the analytic reference the propagated density must hit.
    """
    w10 = pair1.energy - pair0.energy
    f0, f1 = pair0.state.psi, pair1.state.psi
    return (
        0.5 * (np.abs(f0) ** 2 + np.abs(f1) ** 2)
        + np.real(f1 * np.conj(f0)) * np.cos(w10 * t)
    )


def parity_project(arr, parity):
    """The even or odd part of samples about x = 0.

    The mirror pairs index j with (n - j) mod n, which is x -> -x on a grid
    symmetric about 0 (x = 0 on the grid), as the standard [-L, L) layout is.
    """
    arr = np.asarray(arr)
    rev = np.concatenate((arr[:1], arr[:0:-1]))
    if parity == "even":
        return 0.5 * (arr + rev)
    if parity == "odd":
        return 0.5 * (arr - rev)
    raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def parity_of(wf):
    """'even' or 'odd' when psi(-x) = +-psi(x) to within PARITY_TOL, else 'none'."""
    # psi(x) -+ psi(-x) is twice the odd / even part
    if 2.0 * np.max(np.abs(parity_project(wf.psi, "odd"))) < PARITY_TOL:
        return "even"
    if 2.0 * np.max(np.abs(parity_project(wf.psi, "even"))) < PARITY_TOL:
        return "odd"
    return "none"


def bound_states_fd(v, grid):
    """All negative-energy eigenpairs of the three-point FD Hamiltonian.

    Dirichlet edges; symmetric tridiagonal eigensolve over the interior
    points.  States are normalized, real, sorted by energy, with the
    global phase fixed for reproducibility; their residual is not measured.
    """
    v = np.asarray(v, dtype=float)
    if len(v) != grid.n_points:
        raise EigenError("potential samples do not match the grid")
    dx = grid.dx
    diag = 1.0 / dx**2 + v[1:-1]
    off = np.full(grid.n_points - 3, -0.5 / dx**2)
    energies, vecs = eigh_tridiagonal(
        diag, off, select="v", select_range=(float(v.min()) - 1.0, 0.0)
    )

    pairs = []
    for i, e in enumerate(energies):
        if e > NEAR_ZERO_DISCARD:
            log.info("discarding near-threshold state E = %.3e", e)
            continue
        psi = np.zeros(grid.n_points)
        psi[1:-1] = vecs[:, i]
        psi /= np.sqrt(dx * np.sum(psi**2))
        edge_amp = max(abs(psi[1]), abs(psi[-1]))
        if edge_amp > EDGE_AMP_TOL:
            raise EigenError(
                f"eigenstate {i} has edge amplitude {edge_amp:.2e} > {EDGE_AMP_TOL}; "
                "use a wider grid"
            )
        wf = fix_global_phase(WaveFunction(grid, psi.astype(complex)))
        pairs.append(EigenPair(float(e), wf, float("nan")))
    return pairs
