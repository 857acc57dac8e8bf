import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from khatom.core import (
    FrameError,
    GridError,
    SpatialGrid,
    WaveFunction,
    inner_product,
    momentum_ramp,
    periodic_sinc_shift,
    phase_ramp,
    shift_samples,
)
from khatom.phasespace import _eval_momenta


def small_grid(n=1024, half=200.0):
    return SpatialGrid(-half, half, n)


def gaussian(grid, x0=0.0, sigma=5.0, p0=0.0):
    x = grid.x
    psi = np.exp(-((x - x0) ** 2) / (4 * sigma**2) + 1j * p0 * x)
    wf = WaveFunction(grid, psi)
    return wf.normalized()


def test_grid_basics():
    g = small_grid()
    assert g.dx == pytest.approx(400.0 / 1024)
    assert g.x[0] == g.x_min
    # periodic convention: x_max itself is not a sample
    assert g.x[-1] == pytest.approx(g.x_max - g.dx)
    assert g.dp == pytest.approx(2 * np.pi / 400.0)
    # momentum grid spans [-pi/dx, pi/dx)
    assert g.p.min() == pytest.approx(-np.pi / g.dx)
    assert g.p.max() == pytest.approx(np.pi / g.dx - g.dp)


def test_grid_rejects_non_power_of_two():
    with pytest.raises(GridError):
        SpatialGrid(-10, 10, 1000)
    with pytest.raises(GridError):
        SpatialGrid(10, -10, 1024)


def test_production_grid_nyquist():
    g = SpatialGrid()
    assert g.n_points == 2**14
    assert g.dx == pytest.approx(0.18310546875)
    # p_max ~ 17.2 a.u., far above every momentum scale in the problem
    assert np.pi / g.dx > 17.0


def test_norm_and_normalize():
    wf = gaussian(small_grid())
    assert wf.norm() == pytest.approx(1.0, abs=1e-12)
    assert abs(inner_product(wf, wf) - 1.0) < 1e-12


def test_inner_product_grid_mismatch():
    a = gaussian(small_grid(1024))
    b = gaussian(small_grid(2048))
    with pytest.raises(GridError):
        inner_product(a, b)


def test_inner_product_frame_mismatch():
    g = small_grid()
    a = gaussian(g)
    b = gaussian(g).with_frame("kh")
    with pytest.raises(FrameError):
        inner_product(a, b)


def test_inner_product_conjugate_symmetry_and_sesquilinearity():
    g = small_grid()
    rng = np.random.default_rng(7)
    a = WaveFunction(g, rng.normal(size=g.n_points) + 1j * rng.normal(size=g.n_points))
    b = WaveFunction(g, rng.normal(size=g.n_points) + 1j * rng.normal(size=g.n_points))
    ab = inner_product(a, b)
    ba = inner_product(b, a)
    assert ab == pytest.approx(np.conj(ba))
    c = 0.3 - 1.7j
    scaled = WaveFunction(g, c * b.psi)
    assert inner_product(a, scaled) == pytest.approx(c * ab)


def to_momentum(wf):
    """Momentum amplitudes Phi(p_k) in FFT order, unitary convention: the
    continuum transform that the momentum marginal of a Wigner map is
    checked against, taken by direct summation on the momentum grid."""
    return _eval_momenta(wf, wf.grid.p)


def test_momentum_round_trip_random():
    # the direct sums are the FFT times the x_min phase; the inverse FFT
    # with the opposite phase gives the samples back
    g = small_grid()
    rng = np.random.default_rng(3)
    wf = WaveFunction(g, rng.normal(size=g.n_points) + 1j * rng.normal(size=g.n_points))
    phi = to_momentum(wf)
    back = np.fft.ifft(phi * momentum_ramp(g, g.x_min)) * np.sqrt(2.0 * np.pi) / g.dx
    assert np.max(np.abs(back - wf.psi)) < 1e-12


def test_momentum_parseval():
    wf = gaussian(small_grid(), x0=3.0, p0=0.4)
    phi = to_momentum(wf)
    g = wf.grid
    assert g.dx * np.sum(np.abs(wf.psi) ** 2) == pytest.approx(
        g.dp * np.sum(np.abs(phi) ** 2), rel=1e-10
    )


def test_momentum_plane_waves():
    g = small_grid()
    # constant -> single component at p = 0
    wf = WaveFunction(g, np.ones(g.n_points)).normalized()
    phi = np.abs(to_momentum(wf))
    assert np.argmax(phi) == 0
    assert phi[1:].max() < 1e-12 * phi[0]
    # exp(i p0 x) with p0 on the momentum grid -> single component at p0
    k = 17
    wf2 = WaveFunction(g, np.exp(1j * g.p[k] * g.x)).normalized()
    phi2 = np.abs(to_momentum(wf2))
    assert np.argmax(phi2) == k
    mask = np.ones(g.n_points, bool)
    mask[k] = False
    assert phi2[mask].max() < 1e-12 * phi2[k]


def test_momentum_values_match_analytic_gaussian():
    # FT of a normalized Gaussian is a Gaussian; checks the unitary convention
    sigma = 5.0
    wf = gaussian(small_grid(2048, 400.0), sigma=sigma)
    phi = to_momentum(wf)
    g = wf.grid
    analytic = (2 * sigma**2 / np.pi) ** 0.25 * np.exp(-(g.p**2) * sigma**2)
    assert np.max(np.abs(phi - analytic)) < 1e-10


def test_spectral_shift_identity_and_inverse():
    wf = gaussian(small_grid(), x0=-4.0, p0=0.2)
    g = wf.grid
    z = shift_samples(g, wf.psi, 0.0)
    assert np.max(np.abs(z - wf.psi)) < 1e-12
    there_and_back = shift_samples(g, shift_samples(g, wf.psi, 10.23), -10.23)
    assert np.max(np.abs(there_and_back - wf.psi)) < 1e-10


def test_spectral_shift_gaussian_against_analytic():
    g = small_grid()
    sigma = 5.0
    wf = gaussian(g, x0=0.0, sigma=sigma)
    s = 10.23
    shifted = shift_samples(g, wf.psi, s)
    target = gaussian(g, x0=s, sigma=sigma)
    assert np.max(np.abs(shifted - target.psi)) < 1e-10
    mean_x = g.dx * np.sum(g.x * np.abs(shifted) ** 2)
    assert abs(mean_x - s) < g.dx / 10


def test_spectral_shift_matches_roll_for_integer_multiples():
    g = small_grid()
    rng = np.random.default_rng(11)
    arr = rng.normal(size=g.n_points) + 1j * rng.normal(size=g.n_points)
    out = shift_samples(g, arr, 7 * g.dx)
    assert np.max(np.abs(out - np.roll(arr, 7))) < 1e-9


def test_periodic_sinc_shift_agrees_with_spectral():
    g = small_grid(512, 100.0)
    wf = gaussian(g, x0=2.0, sigma=4.0, p0=0.3)
    for s in (0.0, 3.7, -12.341, 5 * g.dx):
        a = shift_samples(g, wf.psi, s)
        b = periodic_sinc_shift(g, wf.psi, s)
        assert np.max(np.abs(a - b)) < 1e-9


@settings(max_examples=25, deadline=None)
@given(s=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_spectral_shift_norm_preserved(s):
    wf = gaussian(small_grid(512, 100.0), sigma=4.0)
    shifted = WaveFunction(wf.grid, shift_samples(wf.grid, wf.psi, s))
    assert shifted.norm() == pytest.approx(1.0, abs=1e-12)


def _ramp_bound(c0, c1, axis):
    # a few ulp of the largest argument: the rounding of the argument itself
    return 4 * np.finfo(float).eps * (abs(c0) + abs(c1) * np.max(np.abs(axis)))


def test_phase_ramps_match_exp_at_run_arguments(grid, long_cache):
    """Dipole, boost, shift and momentum-grid phases at the production
    pulse's extremes (dt 0.1) and at its end, where S is largest."""
    c = long_cache
    dt = 0.1
    picks = {int(np.argmax(np.abs(series))) for series in (c.eps, c.a, c.alpha)}
    for i in sorted(picks) + [len(c.times) - 1]:
        eps, a, alpha, s = c.eps[i], c.a[i], c.alpha[i], c.s[i]
        for c0, c1 in ((0.0, 0.5 * dt * eps), (0.5 * s - a * alpha, a), (a * alpha - 0.5 * s, -a)):
            got = phase_ramp(c0, c1, grid.x_min, grid.dx, grid.n_points)
            want = np.exp(1j * (c0 + c1 * grid.x))
            assert np.max(np.abs(got - want)) <= _ramp_bound(c0, c1, grid.x)
        for c1 in (-alpha, alpha, -grid.x_min, grid.x_min):
            got = momentum_ramp(grid, c1)
            want = np.exp(1j * c1 * grid.p)
            assert np.max(np.abs(got - want)) <= _ramp_bound(0.0, c1, grid.p)


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 1024])
def test_phase_ramp_any_length_and_out_buffer(n):
    c0, c1, start, step = 0.7, -1.3, -12.5, 0.037
    axis = start + step * np.arange(n)
    out = np.zeros(n, dtype=np.complex128)
    got = phase_ramp(c0, c1, start, step, n, out)
    assert got is out
    assert np.max(np.abs(out - np.exp(1j * (c0 + c1 * axis)))) <= _ramp_bound(c0, c1, axis)


def test_spectral_upsample_band_limited_exact():
    g = small_grid(512, 100.0)
    sigma = 3.0

    def f(x):
        return np.exp(-((x - 1.5) ** 2) / (4 * sigma**2) + 1j * 0.5 * x)

    for n_out in (512, 1024, 36000):
        up = shift_samples(g, f(g.x), 0.0, n_out)
        assert up.shape == (n_out,)
        fine_x = g.x_min + (g.x_max - g.x_min) / n_out * np.arange(n_out)
        # the samples match the analytic profile at every fine point, and
        # where the fine grid holds the original points it gives them back
        assert np.max(np.abs(up - f(fine_x))) < 1e-10
        r = n_out // 512
        if r * 512 == n_out:
            assert np.max(np.abs(up[::r] - f(g.x))) < 1e-12


def test_wavefunction_length_mismatch_rejected():
    g = small_grid()
    with pytest.raises(GridError):
        WaveFunction(g, np.zeros(g.n_points - 1))
