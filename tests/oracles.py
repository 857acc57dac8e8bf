"""Independent closed forms that the checks compare the program against.

None of these runs in a khatom run; each restates a textbook formula in
its plainest form, off the code paths under test.
"""

import numpy as np

from khatom.potential import PotentialError, atomic_potential

MAX_HARMONIC = 64
HARMONIC_NODES = 2048


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
