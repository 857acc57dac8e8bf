"""Bound states of H = p^2/2 + V on a spatial grid.

`bound_states` solves the spectral Hamiltonian used to propagate: a Sturm
count of the three-point finite-difference Hamiltonian gives the number of
bound states, and the locally optimal preconditioned block iteration (LOPCG;
Knyazev, SIAM J. Sci. Comput. 23, 517 (2001)) refines Hermite-Gaussian seeds
into them.  Its grid sums keep core's fixed order: the same bits at any BLAS
thread count.  The atomic ground state comes from split-operator imaginary time
on the centred box of the grid that it fills.

Both iterations act on real states with a real Hamiltonian, so they run
in real arithmetic: real-input transforms on the half spectrum
(`rfft`/`irfft`), which take half the work of complex ones on the same
data (Sorensen et al., IEEE Trans. ASSP 35, 849 (1987)).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.fft import fft, ifft, irfft, rfft, rfftfreq
from numpy.polynomial.hermite_e import hermevander

from .core import FRAME_KH, SpatialGrid, WaveFunction, KhatomError, centred_box, inner_product
from .potential import AveragedPotential

__all__ = [
    "EigenPair",
    "EigenError",
    "imaginary_time_ground_state",
    "bound_states",
    "kh_bound_states",
    "coherent_superposition",
    "rayleigh_energy",
    "fix_global_phase",
]

ANTINODE_FLOOR = 1e-3
EDGE_AMP_TOL = 1e-6
NEAR_ZERO_DISCARD = -1e-6
PRECOND_SHIFT = 0.02  # sigma in the preconditioner (p^2/2 + sigma)^-1
LOBPCG_TOL = 1e-9  # on ||H psi - E psi|| of each normalized state
LOBPCG_MAXITER = 200
RANK_CUT = 1e-12  # Ritz directions kept: Gram eigenvalues above this times the largest
_PIVMIN = 1e-300  # a zero pivot of the Sturm count counts as -_PIVMIN
# the atomic ground state decays as exp(-0.235|x|): 2.6e-10 of its peak at
# |x| = 94, where the 1024-point box of the default grid ends; e_atomic there
# is the full grid's to 1.4e-17, and on the 512-point box (|x| <= 47) moves by 6.4e-10
GROUND_REACH = 90.0


class EigenError(KhatomError):
    module = "eigen"


@dataclass(frozen=True)
class EigenPair:
    energy: float
    state: WaveFunction
    residual: float  # ||H psi - E psi|| of the normalized state


def _half_p2(n: int, dx: float) -> np.ndarray:
    """p^2 on the rfft half spectrum of n samples dx apart; the Nyquist sign drops out."""
    return (2.0 * np.pi * rfftfreq(n, dx)) ** 2


def _real_multiply_p(mult: np.ndarray, block: np.ndarray) -> np.ndarray:
    """irfft(mult * rfft(block)) along the last axis, mult on the half spectrum."""
    return irfft(rfft(block) * mult, block.shape[-1])


def _energy_residual(v: np.ndarray, wf: WaveFunction) -> tuple[float, float]:
    """<psi|H|psi> and ||H psi - E psi||, from one application of H."""
    hpsi = ifft(0.5 * wf.grid.p**2 * fft(wf.psi)) + v * wf.psi
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
    drops below tol.  They run on the grid's centred power-of-two box that
    holds |x| <= GROUND_REACH, the state zero outside it, and again on the
    whole grid if a box-edge sample exceeds EDGE_AMP_TOL; a grid-edge one
    raises EigenError.  The energy is the Rayleigh quotient on the grid.
    """
    if dt_imag <= 0 or tol <= 0:
        raise EigenError("dt_imag and tol must be positive")
    v = np.asarray(v, dtype=float)
    if len(v) != grid.n_points:
        raise EigenError("potential samples do not match the grid")

    n, whole = grid.n_points, slice(0, grid.n_points)
    for box in (centred_box(grid, GROUND_REACH), whole):
        m = box.stop - box.start
        expv_half = np.exp(-0.5 * dt_imag * v[box])
        expt = np.exp(-0.5 * dt_imag * _half_p2(m, grid.dx))
        psi = np.exp(-grid.x[box] ** 2 / 50.0)
        psi /= np.sqrt(grid.dx * np.sum(psi * psi))
        spec = np.empty(m // 2 + 1, dtype=np.complex128)
        e_prev = np.inf
        trace = []
        for step in range(max_steps):
            psi *= expv_half
            rfft(psi, out=spec)
            spec *= expt
            irfft(spec, m, out=psi)
            psi *= expv_half
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
        wf = fix_global_phase(WaveFunction(grid, np.pad(psi, (box.start, n - box.stop))))
        edge_amp = max(abs(wf.psi[box.start]), abs(wf.psi[box.stop - 1]))
        if edge_amp <= EDGE_AMP_TOL or box == whole:
            break

    energy, residual = _energy_residual(v, wf)
    if energy >= min(v[0], v[-1]):
        raise EigenError(
            f"converged energy {energy:.6g} is not below the edge potential; "
            "no bound state found"
        )
    if edge_amp > EDGE_AMP_TOL:
        raise EigenError(f"the ground state has edge amplitude {edge_amp:.2e} > {EDGE_AMP_TOL} "
                         f"at dx = {grid.dx:.3g}; use a finer or a wider grid")
    return EigenPair(energy, wf, residual)


def _sturm_count(v: np.ndarray, dx: float, shift: float) -> int:
    """Eigenvalues below shift of the three-point FD Hamiltonian, Dirichlet
    edges: the negative pivots of LDL^T of H_fd - shift (Sylvester's inertia)."""
    off2 = 0.25 / dx**4  # the squared off-diagonal entry
    diag = (1.0 / dx**2 + v[1:-1] - shift).tolist()  # empty when there is no interior point
    q, count = np.inf, 0  # so that the first pivot is diag[0] itself
    for d in diag:
        q = (d - off2 / q) or -_PIVMIN
        count += q < 0.0
    return count


def _rayleigh_ritz(basis: np.ndarray, h_basis: np.ndarray, k: int):
    """The k lowest Ritz values of H on the rows of basis (h_basis = H basis)
    and their coefficients.  Rows are first scaled to unit norm in place, so
    a W or P row of norm 1e-9 is not cut with Gram eigenvalues below RANK_CUT."""
    scale = 1.0 / np.sqrt(np.einsum("in,in->i", basis, basis))[:, None]
    basis *= scale
    h_basis *= scale
    b, u = np.linalg.eigh(np.einsum("in,jn->ij", basis, basis))
    keep = b > RANK_CUT * b[-1]
    t = u[:, keep] / np.sqrt(b[keep])
    h_gram = np.einsum("in,jn->ij", basis, h_basis)
    energies, y = np.linalg.eigh(t.T @ (0.5 * (h_gram + h_gram.T)) @ t)
    return energies[:k], t @ y[:, :k]


def bound_states(v: np.ndarray, grid: SpatialGrid) -> list[EigenPair]:
    """Bound eigenpairs of the spectral Hamiltonian on the grid itself, by
    LOPCG on the states X, their residuals W preconditioned by (p^2/2 +
    sigma)^-1 and the last step P.  Raises EigenError unless every state ends
    with ||H psi - E psi|| <= LOBPCG_TOL, a residual kept on the pair, and
    with both edge samples within EDGE_AMP_TOL of zero."""
    v = np.asarray(v, dtype=float)
    if len(v) != grid.n_points:
        raise EigenError("potential samples do not match the grid")
    count = _sturm_count(v, grid.dx, NEAR_ZERO_DISCARD)
    if count == 0:
        return []
    k = count + 1
    kin = 0.5 * _half_p2(grid.n_points, grid.dx)
    # W = (p^2/2 + sigma)^-1 R and its kinetic energy, from one transform of R
    precond = np.stack((np.ones_like(kin), kin))[:, None, :] / (kin + PRECOND_SHIFT)
    # X starts as Hermite-Gaussians at the mean and spread of x weighted by
    # max(-v, 0); only the wanted states not yet converged get W and P.  A grid too
    # coarse for the well leaves a seed zero (underflowed, or odd at u = 0 on a 1-point well)
    depth = np.maximum(-v, 0.0)
    c = np.sum(depth * grid.x) / np.sum(depth)
    u = (grid.x - c) / (np.sqrt(np.sum(depth * (grid.x - c) ** 2) / np.sum(depth)) or np.inf)
    x = (hermevander(u, k - 1) * np.exp(-0.5 * u * u)[:, None]).T
    if not np.all(np.einsum("in,in->i", x, x) > 0.0):
        raise EigenError(f"dx = {grid.dx:.3g} is too coarse for the well: a seed state vanishes")
    hx = _real_multiply_p(kin, x) + v * x
    w = hw = p = hp = x[:0]
    for _ in range(LOBPCG_MAXITER):
        basis, h_basis = np.concatenate((x, w, p)), np.concatenate((hx, hw, hp))
        energies, coef = _rayleigh_ritz(basis, h_basis, k)
        # the new X is its Ritz vectors, and P their part along W and P
        step, h_step = (np.einsum("ij,in->jn", coef[k:], rows[k:]) for rows in (basis, h_basis))
        x = np.einsum("ij,in->jn", coef[:k], basis[:k]) + step
        hx = np.einsum("ij,in->jn", coef[:k], h_basis[:k]) + h_step
        r = hx[:count] - energies[:count, None] * x[:count]
        active = np.einsum("in,in->i", r, r) > LOBPCG_TOL**2
        if not active.any():
            break
        if len(w):
            p, hp = step[:count][active], h_step[:count][active]
        w, hw = _real_multiply_p(precond, r[active])
        hw += v * w

    pairs = []
    for j in range(count):
        wf = fix_global_phase(WaveFunction(grid, x[j]))
        energy, residual = _energy_residual(v, wf)
        edge_amp = max(abs(wf.psi[0]), abs(wf.psi[-1]))
        if not residual <= LOBPCG_TOL:
            raise EigenError(f"LOPCG did not converge in {LOBPCG_MAXITER} iterations: state {j} "
                             f"has ||H psi - E psi|| = {residual:.2e} > {LOBPCG_TOL}")
        if edge_amp > EDGE_AMP_TOL:
            raise EigenError(f"eigenstate {j} has edge amplitude {edge_amp:.2e} > {EDGE_AMP_TOL} "
                             f"at dx = {grid.dx:.3g}; use a finer or a wider grid")
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
