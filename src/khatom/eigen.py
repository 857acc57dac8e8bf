"""Bound states of H = p^2/2 + V on a spatial grid.

`bound_states` is the solver for the dressed-potential eigenpairs: a
three-point finite-difference solve on the same grid counts the bound
states and seeds them, then one preconditioned block solve (LOBPCG;
Knyazev, SIAM J. Sci. Comput. 23, 517 (2001)) refines the seeds into
eigenstates of the spectral Hamiltonian used to propagate.  The
finite-difference solver also stands alone as an independent oracle.
The atomic ground state comes from split-operator imaginary time.

Both iterations act on real states with a real Hamiltonian, so they run
in real arithmetic: real-input transforms on the half spectrum
(`rfft`/`irfft`), which take half the work of complex ones on the same
data (Sorensen et al., IEEE Trans. ASSP 35, 849 (1987)).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
from scipy.fft import fft, ifft, irfft, rfft
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import lobpcg

from .core import FRAME_KH, SpatialGrid, WaveFunction, KhatomError, inner_product
from .potential import AveragedPotential

__all__ = [
    "EigenPair",
    "EigenError",
    "imaginary_time_ground_state",
    "bound_states_fd",
    "bound_states",
    "kh_bound_states",
    "coherent_superposition",
    "rayleigh_energy",
    "fix_global_phase",
]

log = logging.getLogger(__name__)

ANTINODE_FLOOR = 1e-3
EDGE_AMP_TOL = 1e-6
NEAR_ZERO_DISCARD = -1e-6
PRECOND_SHIFT = 0.02  # sigma in the preconditioner (p^2/2 + sigma)^-1
LOBPCG_TOL = 1e-9  # on ||H psi - E psi|| of each normalized state
LOBPCG_MAXITER = 200


class EigenError(KhatomError):
    module = "eigen"


@dataclass(frozen=True)
class EigenPair:
    energy: float
    state: WaveFunction
    residual: float = float("nan")  # ||H psi - E psi||; nan where not measured


def _apply_h(v: np.ndarray, grid: SpatialGrid, psi: np.ndarray) -> np.ndarray:
    """Spectral H applied along axis 0, to one state or to a block of columns."""
    shape = (-1,) + (1,) * (psi.ndim - 1)
    kin = (0.5 * grid.p**2).reshape(shape)
    return ifft(kin * fft(psi, axis=0), axis=0) + v.reshape(shape) * psi


def _half_p2(grid: SpatialGrid) -> np.ndarray:
    """p^2 on the rfft half spectrum; the sign of the Nyquist p drops out."""
    return grid.p[: grid.n_points // 2 + 1] ** 2


def _real_multiply_p(mult: np.ndarray, block: np.ndarray) -> np.ndarray:
    """irfft(mult * rfft(block)) down the columns, mult on the half spectrum."""
    spec = rfft(block, axis=0)
    spec *= mult[:, None]
    return irfft(spec, len(block), axis=0, overwrite_x=True)


def _energy_residual(v: np.ndarray, wf: WaveFunction) -> tuple[float, float]:
    """<psi|H|psi> and ||H psi - E psi||, from one application of H."""
    hpsi = _apply_h(v, wf.grid, wf.psi)
    energy = float(np.real(inner_product(wf, WaveFunction(wf.grid, hpsi, wf.t, wf.frame))))
    r = hpsi - energy * wf.psi
    return energy, float(np.sqrt(wf.grid.dx * np.sum(np.abs(r) ** 2)))


def rayleigh_energy(v: np.ndarray, wf: WaveFunction) -> float:
    """<psi|H|psi> with spectral kinetic energy and diagonal potential."""
    return _energy_residual(v, wf)[0]


def fix_global_phase(wf: WaveFunction) -> WaveFunction:
    """Make the state real with a positive leftmost antinode.

    The largest-magnitude sample sets the complex phase; the sign is then
    chosen so the first local maximum of |psi| (above a small floor) is
    positive.  Gives reproducible superposition signs.
    """
    psi = wf.psi
    k = int(np.argmax(np.abs(psi)))
    phase = psi[k] / abs(psi[k])
    psi = np.real(psi / phase)
    a = np.abs(psi)
    floor = ANTINODE_FLOOR * a.max()
    idx = np.nonzero((a[1:-1] > a[:-2]) & (a[1:-1] >= a[2:]) & (a[1:-1] > floor))[0]
    i = int(idx[0]) + 1 if len(idx) else int(np.argmax(a))
    if psi[i] < 0:
        psi = -psi
    out = WaveFunction(wf.grid, psi.astype(complex), wf.t, wf.frame)
    return out.normalized()


def imaginary_time_ground_state(
    v: np.ndarray,
    grid: SpatialGrid,
    dt_imag: float = 0.5,
    tol: float = 1e-10,
    max_steps: int = 1_000_000,
) -> EigenPair:
    """Relax to the lowest state of H = p^2/2 + V by imaginary time.

    Strang-split steps on a real state, renormalized after each step;
    converged when the per-step change of the decay-rate energy estimate
    drops below tol.  The reported energy is the Rayleigh quotient of the
    converged state.
    """
    if dt_imag <= 0 or tol <= 0:
        raise EigenError("dt_imag and tol must be positive")
    v = np.asarray(v, dtype=float)
    if len(v) != grid.n_points:
        raise EigenError("potential samples do not match the grid")

    n = grid.n_points
    expv_half = np.exp(-0.5 * dt_imag * v)
    expt = np.exp(-0.5 * dt_imag * _half_p2(grid))

    psi = np.exp(-grid.x**2 / 50.0)
    psi /= np.sqrt(grid.dx * np.sum(psi * psi))

    e_prev = np.inf
    trace = []
    for step in range(max_steps):
        psi *= expv_half
        spec = rfft(psi, overwrite_x=True)
        spec *= expt
        psi = irfft(spec, n, overwrite_x=True)
        psi *= expv_half
        # pairwise sum, not a BLAS dot: the same bits at any thread count
        nrm = np.sqrt(grid.dx * np.sum(psi * psi))
        psi /= nrm
        e_est = -np.log(nrm) / dt_imag
        if abs(e_est - e_prev) < tol:
            break
        e_prev = e_est
        if step % 1000 == 0:
            trace.append(e_est)
    else:
        raise EigenError(
            f"imaginary time did not converge in {max_steps} steps; "
            f"energy trace tail: {trace[-5:]}"
        )

    wf = fix_global_phase(WaveFunction(grid, psi))
    energy, residual = _energy_residual(v, wf)
    if energy >= min(v[0], v[-1]):
        raise EigenError(
            f"converged energy {energy:.6g} is not below the edge potential; "
            "no bound state found"
        )
    return EigenPair(energy, wf, residual)


def bound_states_fd(v: np.ndarray, grid: SpatialGrid) -> list[EigenPair]:
    """All negative-energy eigenpairs of the three-point FD Hamiltonian.

    Dirichlet edges; symmetric tridiagonal eigensolve over the interior
    points.  States are normalized, real, sorted by energy, with the
    global phase fixed for reproducibility.
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
        pairs.append(EigenPair(float(e), wf))
    return pairs


def bound_states(v: np.ndarray, grid: SpatialGrid) -> list[EigenPair]:
    """Bound eigenpairs of the spectral Hamiltonian on the grid itself.

    `bound_states_fd` on the same grid gives the count and the seeds; one
    LOBPCG block solve with the kinetic preconditioner (p^2/2 + sigma)^-1
    refines them.  Raises EigenError unless every state ends with
    ||H psi - E psi|| <= LOBPCG_TOL; that residual is kept on the pair.
    """
    seeds = bound_states_fd(v, grid)
    if not seeds:
        return []
    v = np.asarray(v, dtype=float)
    kin = 0.5 * _half_p2(grid)
    inv_kin = 1.0 / (kin + PRECOND_SHIFT)

    def hamiltonian(block):
        return _real_multiply_p(kin, block) + v[:, None] * block

    def preconditioner(block):
        return _real_multiply_p(inv_kin, block)

    x0 = np.stack([p.state.psi.real for p in seeds], axis=1)
    _, vecs = lobpcg(hamiltonian, x0, M=preconditioner, tol=LOBPCG_TOL,
                     maxiter=LOBPCG_MAXITER, largest=False)

    pairs = []
    for k in range(len(seeds)):
        wf = fix_global_phase(WaveFunction(grid, vecs[:, k]))
        energy, residual = _energy_residual(v, wf)
        if not residual <= LOBPCG_TOL:
            raise EigenError(
                f"LOBPCG did not converge in {LOBPCG_MAXITER} iterations: state {k} "
                f"has ||H psi - E psi|| = {residual:.2e} > {LOBPCG_TOL}"
            )
        pairs.append(EigenPair(energy, wf, residual))
    return pairs


def kh_bound_states(averaged: AveragedPotential) -> list[EigenPair]:
    """Bound eigenpairs of the cycle-averaged potential on its own grid.

    Dressed-potential eigenstates live in the oscillating frame, so the
    states carry the KH frame tag.
    """
    return [
        replace(p, state=p.state.with_frame(FRAME_KH))
        for p in bound_states(averaged.samples, averaged.grid)
    ]


def coherent_superposition(a: EigenPair, b: EigenPair) -> WaveFunction:
    """Normalized equal-weight sum of two eigenstates."""
    if a.state.grid != b.state.grid:
        raise EigenError("eigenstates live on different grids")
    if a.state.frame != b.state.frame:
        raise EigenError("eigenstates carry different frame tags")
    w = 1.0 / np.sqrt(2.0)
    psi = w * a.state.psi + w * b.state.psi
    wf = WaveFunction(a.state.grid, psi, a.state.t, a.state.frame)
    return wf.normalized()
