from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import fft, ifft
from scipy.sparse.linalg import lobpcg

from khatom.core import SpatialGrid, WaveFunction, inner_product
import khatom.eigen as eigen
from khatom.eigen import (
    EigenError,
    bound_states,
    coherent_superposition,
    fix_global_phase,
    imaginary_time_ground_state,
    kh_bound_states,
    rayleigh_energy,
)
from oracles import bound_states_fd, parity_of, parity_project

E_SEP = -0.0115


def sech(x):
    return 1.0 / np.cosh(x)


def test_harmonic_self_test():
    g = SpatialGrid(-20.0, 20.0, 512)
    pair = imaginary_time_ground_state(0.5 * g.x**2, g, dt_imag=0.05, tol=1e-12)
    assert pair.energy == pytest.approx(0.5, abs=1e-6)
    assert parity_of(pair.state) == "even"
    # state carries an O(dt_imag^2) splitting bias; energy is quadratic in it
    target = np.pi**-0.25 * np.exp(-g.x**2 / 2)
    assert np.max(np.abs(pair.state.psi - target)) < 1e-4
    assert rayleigh_energy(0.5 * g.x**2, pair.state) == pytest.approx(
        pair.energy, abs=1e-10
    )


def _complex_imaginary_time(v, grid, dt_imag=0.5, tol=1e-10):
    """Reference: the same Strang iteration on a complex state, complex FFTs."""
    expv_half = np.exp(-0.5 * dt_imag * v)
    expt = np.exp(-0.5 * dt_imag * grid.p**2)
    psi = np.exp(-grid.x**2 / 50.0).astype(complex)
    psi /= np.sqrt(grid.dx * np.sum(np.abs(psi) ** 2))
    e_prev = np.inf
    for step in range(100_000):
        psi = expv_half * ifft(expt * fft(expv_half * psi))
        nrm = np.sqrt(grid.dx * np.sum(np.abs(psi) ** 2))
        psi /= nrm
        e_est = -np.log(nrm) / dt_imag
        if abs(e_est - e_prev) < tol:
            break
        e_prev = e_est
    wf = fix_global_phase(WaveFunction(grid, psi))
    return rayleigh_energy(v, wf), wf, step + 1


@pytest.mark.parametrize("n_points", [16384, 4096])
def test_imaginary_time_real_matches_complex(n_points, monkeypatch):
    # the real-transform iteration is the complex one without its rounding
    # noise in Im(psi): same energy, same state, same number of steps
    from khatom.potential import atomic_potential

    g = SpatialGrid(n_points=n_points)
    v = atomic_potential(g.x)
    calls = []
    rfft = eigen.rfft

    def counting_rfft(*args, **kwargs):
        calls.append(1)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(eigen, "rfft", counting_rfft)
    pair = imaginary_time_ground_state(v, g)
    energy, wf, steps = _complex_imaginary_time(v, g)
    assert pair.energy == pytest.approx(energy, abs=1e-12)
    assert abs(inner_product(pair.state, wf)) >= 1 - 1e-12
    assert len(calls) == steps  # one real transform per step


def test_atomic_ground_state_fills_its_box(grid, ground_pair):
    # imaginary time runs on the 1024 centred points of the default grid,
    # |x| <= 93.75, and the state is exactly zero outside them
    psi = ground_pair.state.psi
    assert np.count_nonzero(psi) == 1024
    assert np.all(psi[np.abs(grid.x) > 93.75] == 0)
    assert max(abs(psi[7680]), abs(psi[8703])) <= eigen.EDGE_AMP_TOL


def test_ground_state_past_its_box():
    # a Poeschl-Teller well about 50 a.u. wide: E0 = -1/200, psi0 ~ sech^2(x/20),
    # 3.5e-5 at |x| = 100.  It reaches the edge of the 512-point box (|x| <= 100)
    # and is solved again on the whole grid; on a grid no wider than the box,
    # where the box is the whole grid, it is refused
    def well(g):
        return -0.0075 * sech(g.x / 20.0) ** 2

    g = SpatialGrid(-400.0, 400.0, 2048)
    pair = imaginary_time_ground_state(well(g), g)
    assert np.abs(pair.state.psi[np.abs(g.x) > 101.0]).max() > 1e-5
    assert pair.energy == pytest.approx(-0.005, abs=1e-7)
    g = SpatialGrid(-60.0, 60.0, 512)
    with pytest.raises(EigenError, match="edge amplitude .* > 1e-06; use a wider grid"):
        imaginary_time_ground_state(well(g), g)


def test_imaginary_time_validation():
    g = SpatialGrid(-20.0, 20.0, 256)
    with pytest.raises(EigenError):
        imaginary_time_ground_state(g.x**2, g, dt_imag=-0.1)
    with pytest.raises(EigenError):
        imaginary_time_ground_state(np.zeros(10), g)


def test_imaginary_time_nonconvergence_error():
    g = SpatialGrid(-20.0, 20.0, 256)
    with pytest.raises(EigenError, match="did not converge"):
        imaginary_time_ground_state(0.5 * g.x**2, g, dt_imag=0.01, max_steps=5)


def test_imaginary_time_no_bound_state():
    g = SpatialGrid(-20.0, 20.0, 256)
    with pytest.raises(EigenError, match="no bound state"):
        imaginary_time_ground_state(np.ones(g.n_points), g, dt_imag=1.0, tol=1e-3)


def test_bound_states_poeschl_teller():
    # the spectral solve reaches the exact levels -2 and -1/2, far past
    # the 5e-3 of the finite-difference oracle (test_fd_poeschl_teller)
    g = SpatialGrid(-20.0, 20.0, 1024)
    pairs = bound_states(-3.0 * sech(g.x) ** 2, g)
    assert len(pairs) == 2
    assert pairs[0].energy == pytest.approx(-2.0, abs=1e-12)
    assert pairs[1].energy == pytest.approx(-0.5, abs=1e-12)
    assert [parity_of(p.state) for p in pairs] == ["even", "odd"]
    assert abs(inner_product(pairs[0].state, pairs[1].state)) < 1e-12
    for p in pairs:
        assert p.residual <= eigen.LOBPCG_TOL


def _lobpcg_reference(v, g):
    """scipy's LOBPCG from the FD oracle's states, with the complex operators
    (.real of complex transforms of the real blocks); normalized states."""
    kin = 0.5 * g.p**2
    inv_kin = 1.0 / (kin + eigen.PRECOND_SHIFT)

    def hamiltonian(block):
        return (ifft(kin[:, None] * fft(block, axis=0), axis=0) + v[:, None] * block).real

    def preconditioner(block):
        return ifft(inv_kin[:, None] * fft(block, axis=0), axis=0).real

    x0 = np.stack([p.state.psi.real for p in bound_states_fd(v, g)], axis=1)
    _, vecs = lobpcg(hamiltonian, x0, M=preconditioner, tol=eigen.LOBPCG_TOL,
                     maxiter=eigen.LOBPCG_MAXITER, largest=False)
    return [WaveFunction(g, vecs[:, k]).normalized() for k in range(x0.shape[1])]


def _assert_match_lobpcg(pairs, v, g):
    ref = _lobpcg_reference(v, g)
    assert len(pairs) == len(ref)
    for pair, wf in zip(pairs, ref):
        assert pair.energy == pytest.approx(rayleigh_energy(v, wf), abs=1e-12)
        state = WaveFunction(g, pair.state.psi)  # the reference carries no frame tag
        assert abs(inner_product(state, wf)) >= 1 - 1e-12


def test_bound_states_match_complex_operators(averaged, kh_pairs):
    # the numpy block solve against scipy's LOBPCG on the KH pair
    assert len(kh_pairs) == 2
    _assert_match_lobpcg(kh_pairs, averaged.samples, averaged.grid)


@pytest.mark.parametrize("well", ["poeschl_teller", "atomic"])
def test_bound_states_match_lobpcg(well, grid, v_atom):
    if well == "atomic":
        g, v = grid, v_atom
    else:
        g = SpatialGrid(-20.0, 20.0, 1024)
        v = -3.0 * sech(g.x) ** 2
    _assert_match_lobpcg(bound_states(v, g), v, g)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=0, max_value=4), frac=st.floats(min_value=0.2, max_value=0.95))
def test_sturm_count_poeschl_teller(n, frac):
    # -l(l+1)/2 sech^2 x binds floor(l) + 1 states at -(l - j)^2/2; the
    # weakest, at -frac^2/2, decays well inside EDGE_AMP_TOL of the edges
    g = SpatialGrid(-100.0, 100.0, 4096)
    lam = n + frac
    v = -0.5 * lam * (lam + 1.0) * sech(g.x) ** 2
    count = eigen._sturm_count(v, g.dx, eigen.NEAR_ZERO_DISCARD)
    assert count == len(bound_states_fd(v, g)) == n + 1


def test_sturm_count_zero_pivot():
    # with dx = 1 the diagonal entries are 1 + v, so v = -1 makes the first
    # pivot exactly zero; it counts as a tiny negative one, as in the dense
    # eigenvalues
    g = SpatialGrid(-4.0, 4.0, 8)
    v = np.array([0.0, -1.0, 0.3, -0.7, 0.2, -1.1, 0.4, 0.0])
    h = np.diag(1.0 + v[1:-1]) - 0.5 * (np.eye(6, k=1) + np.eye(6, k=-1))
    assert eigen._sturm_count(v, g.dx, 0.0) == np.sum(np.linalg.eigvalsh(h) < 0.0)


def test_sturm_count_atomic_and_kh(grid, v_atom, averaged):
    for v, want in ((v_atom, 1), (averaged.samples, 2)):
        count = eigen._sturm_count(v, grid.dx, eigen.NEAR_ZERO_DISCARD)
        assert count == len(bound_states_fd(v, grid)) == want


def test_bound_states_nonconvergence_error(monkeypatch):
    g = SpatialGrid(-20.0, 20.0, 1024)
    monkeypatch.setattr(eigen, "LOBPCG_MAXITER", 1)
    with pytest.raises(EigenError, match="did not converge"):
        bound_states(-3.0 * sech(g.x) ** 2, g)


def test_fd_poeschl_teller():
    # V = -3 sech^2 x binds exactly two states at -2 and -1/2
    g = SpatialGrid(-20.0, 20.0, 1024)
    pairs = bound_states_fd(-3.0 * sech(g.x) ** 2, g)
    assert len(pairs) == 2
    assert pairs[0].energy == pytest.approx(-2.0, abs=5e-3)
    assert pairs[1].energy == pytest.approx(-0.5, abs=5e-3)
    assert parity_of(pairs[0].state) == "even"
    assert parity_of(pairs[1].state) == "odd"
    for p in pairs:
        assert np.max(np.abs(p.state.psi.imag)) == 0.0
    s01 = inner_product(pairs[0].state, pairs[1].state)
    assert abs(s01) < 1e-8
    assert abs(inner_product(pairs[0].state, pairs[0].state) - 1) < 1e-10


def test_fd_rejects_narrow_grid():
    g = SpatialGrid(-6.0, 6.0, 256)
    with pytest.raises(EigenError, match="wider grid"):
        bound_states_fd(-3.0 * sech(g.x) ** 2, g)


def test_bound_states_rejects_narrow_grid():
    # both states converge on the periodic 12 a.u. box; the ground state's
    # edge samples are 4e-5
    g = SpatialGrid(-6.0, 6.0, 256)
    with pytest.raises(EigenError, match="wider grid"):
        bound_states(-3.0 * sech(g.x) ** 2, g)


def test_fix_global_phase_sign_convention():
    g = SpatialGrid(-20.0, 20.0, 512)
    # odd state seeded with a negative left lobe gets flipped
    psi = -g.x * np.exp(-g.x**2 / 4)
    wf = fix_global_phase(WaveFunction(g, psi.astype(complex)))
    left_lobe = wf.psi.real[g.x < 0]
    assert left_lobe.max() > 0
    # complex global phase is removed
    wf2 = fix_global_phase(WaveFunction(g, np.exp(1.3j) * wf.psi))
    assert np.max(np.abs(wf2.psi - wf.psi)) < 1e-12


def test_parity_project():
    rng = np.random.default_rng(5)
    arr = rng.normal(size=1024)
    even = parity_project(arr, "even")
    odd = parity_project(arr, "odd")
    rev_even = np.concatenate((even[:1], even[:0:-1]))
    rev_odd = np.concatenate((odd[:1], odd[:0:-1]))
    assert np.max(np.abs(even - rev_even)) == 0.0
    assert np.max(np.abs(odd + rev_odd)) == 0.0
    assert np.max(np.abs(even + odd - arr)) < 1e-15
    with pytest.raises(ValueError):
        parity_project(arr, "sideways")


def test_atomic_ground_state(ground_pair):
    assert ground_pair.energy == pytest.approx(-0.0276, abs=5e-4)
    assert parity_of(ground_pair.state) == "even"
    assert np.max(np.abs(ground_pair.state.psi.imag)) == 0.0


def test_atomic_potential_binds_single_state(grid, v_atom):
    solver = SpatialGrid(-300.0, 300.0, 16384)
    from khatom.potential import atomic_potential

    pairs = bound_states_fd(atomic_potential(solver.x), solver)
    assert len(pairs) == 1
    assert pairs[0].energy == pytest.approx(-0.0276, abs=5e-4)


def test_kh_spectrum(kh_pairs, averaged):
    assert len(kh_pairs) == 2
    e0, e1 = kh_pairs[0].energy, kh_pairs[1].energy
    assert e0 == pytest.approx(-0.01098, abs=5e-4)
    assert e1 == pytest.approx(-0.00282, abs=5e-4)
    w10 = e1 - e0
    assert w10 == pytest.approx(8.16e-3, abs=5e-4)
    assert 770 - 15 < 2 * np.pi / w10 < 770 + 15
    # both sit above the central barrier of the averaged potential
    i0 = np.argmin(np.abs(averaged.grid.x))
    barrier = averaged.samples[i0]
    assert e0 > barrier and e1 > barrier
    assert parity_of(kh_pairs[0].state) == "even"
    assert parity_of(kh_pairs[1].state) == "odd"


def test_kh_pairs_orthonormal_and_consistent(kh_pairs, averaged):
    s01 = inner_product(kh_pairs[0].state, kh_pairs[1].state)
    assert abs(s01) < 1e-12
    g = averaged.grid
    for p in kh_pairs:
        assert abs(inner_product(p.state, p.state) - 1) < 1e-12
        # eigenstates of the spectral Hamiltonian the propagator uses
        psi = p.state.psi
        r = np.fft.ifft(0.5 * g.p**2 * np.fft.fft(psi)) + (averaged.samples - p.energy) * psi
        assert np.sqrt(g.dx * np.sum(np.abs(r) ** 2)) <= 1e-8


def test_kh_grid_convergence():
    # halving dx barely moves the finite-difference oracle's energies
    coarse = SpatialGrid(-300.0, 300.0, 8192)
    fine = SpatialGrid(-300.0, 300.0, 16384)
    from khatom.potential import kh_averaged_potential

    ec = [p.energy for p in bound_states_fd(kh_averaged_potential(coarse, 10.23).samples, coarse)]
    ef = [p.energy for p in bound_states_fd(kh_averaged_potential(fine, 10.23).samples, fine)]
    assert np.max(np.abs(np.array(ec) - np.array(ef))) < 1e-5


def half_masses(wf):
    den = wf.density()
    x = wf.grid.x
    return wf.grid.dx * den[x < 0].sum(), wf.grid.dx * den[x > 0].sum()


def test_coherent_superposition_localizes(psi_coh):
    left, right = half_masses(psi_coh)
    assert abs(left - 0.5) > 0.3
    assert left > right  # the +,+ sign convention picks the left well


def test_coherent_superposition_mirror(kh_pairs, psi_coh):
    # the odd state with its sign flipped puts the packet in the other well
    odd = kh_pairs[1].state
    flipped = replace(kh_pairs[1], state=WaveFunction(odd.grid, -odd.psi, odd.t, odd.frame))
    minus = coherent_superposition(kh_pairs[0], flipped)
    lp, rp = half_masses(psi_coh)
    lm, rm = half_masses(minus)
    assert lp == pytest.approx(rm, abs=1e-8)
    assert rp == pytest.approx(lm, abs=1e-8)


def test_coherent_superposition_grid_mismatch(kh_pairs):
    g = SpatialGrid(-20.0, 20.0, 256)
    other = imaginary_time_ground_state(0.5 * g.x**2, g, dt_imag=0.05, tol=1e-12)
    with pytest.raises(EigenError):
        coherent_superposition(kh_pairs[0], other)
