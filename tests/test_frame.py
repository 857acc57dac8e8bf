import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from khatom.core import FRAME_KH, FRAME_LAB, WaveFunction
from khatom.frame import FrameTransformContext, FrameTransformError, density_relation_residual


@pytest.fixture(scope="module")
def ctx(cache, grid):
    return FrameTransformContext(cache, grid)


def lab_gaussian(grid, x0=0.0, width=8.0, p0=0.0, t=0.0):
    psi = np.exp(-((grid.x - x0) ** 2) / (4 * width**2) + 1j * p0 * grid.x)
    return WaveFunction(grid, psi, t, FRAME_LAB).normalized()


def mean_x(wf):
    return float(wf.grid.dx * np.sum(wf.grid.x * wf.density()))


def test_identity_before_pulse(ctx, grid):
    wf = lab_gaussian(grid, x0=3.0, t=-5.0)
    out = ctx.lab_to_kh(wf)
    assert out.frame == FRAME_KH
    assert np.max(np.abs(out.psi - wf.psi)) < 1e-12


def test_density_relation_mid_pulse(ctx, grid, cache):
    t = 650.0
    wf = lab_gaussian(grid, x0=-4.0, width=12.0, p0=0.1, t=t)
    out = ctx.lab_to_kh(wf)
    assert density_relation_residual(ctx, wf, out) < 1e-8


def test_mean_position_shift(ctx, grid, cache):
    t = 630.0  # quarter cycle into the flat top, alpha near its extremum
    wf = lab_gaussian(grid, x0=5.0, width=10.0, t=t)
    out = ctx.lab_to_kh(wf)
    alpha = cache.alpha_at(t)
    assert abs(alpha) > 5.0
    # the frame chases the quiver, so the cloud moves the other way
    assert mean_x(out) == pytest.approx(mean_x(wf) + alpha, abs=1e-6)


def test_free_quiver_static_in_kh(ctx, grid, cache):
    """A freely quivering packet must sit still in the transformed view.

    Start on the flat top with the momentum a free electron has there
    (-A), propagate a quarter cycle with the binding potential switched
    off, and check the transformed center and momentum stay put while
    the lab center has swung by the full quiver amplitude.  This pins
    the direction of the shift against the driven propagator; every
    other check in this file is blind to a global sign flip.
    """
    from khatom.propagator import MODE_LAB, SplitOperator, propagate
    from khatom.core import TimeGrid

    t0 = 600.0  # field node on the flat top: alpha(t0) = 0, A(t0) != 0
    a0 = cache.a_at(t0)
    assert abs(a0) > 0.5
    wf0 = lab_gaussian(grid, x0=-15.0, width=20.0, p0=-a0, t=t0)
    op = SplitOperator(grid, np.zeros(grid.n_points), TimeGrid(t0=t0, dt=0.05, n_steps=500),
                       MODE_LAB, cache)
    fin = propagate(op, wf0).final
    alpha = cache.alpha_at(fin.t)
    assert abs(alpha) > 10.0  # quarter cycle later: quiver extremum
    assert mean_x(fin) == pytest.approx(-15.0 - alpha, abs=0.05)
    kh = ctx.lab_to_kh(fin)
    assert mean_x(kh) == pytest.approx(-15.0, abs=0.05)
    p_psi = np.fft.ifft(grid.p * np.fft.fft(kh.psi))
    mean_p = float(grid.dx * np.sum(np.real(np.conj(kh.psi) * p_psi)))
    assert abs(mean_p) < 1e-3


def test_norm_preserved(ctx, grid):
    rng = np.random.default_rng(42)
    psi = rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)
    # keep support away from the periodic wrap
    psi *= np.exp(-((grid.x) ** 2) / (2 * 300.0**2))
    wf = WaveFunction(grid, psi, 650.0, FRAME_LAB).normalized()
    out = ctx.lab_to_kh(wf)
    assert abs(out.norm() - 1.0) < 1e-10


def test_round_trip_random(ctx, grid):
    rng = np.random.default_rng(7)
    psi = rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)
    psi *= np.exp(-((grid.x) ** 2) / (2 * 200.0**2))
    wf = WaveFunction(grid, psi, 650.0, FRAME_LAB).normalized()
    back = ctx.kh_to_lab(ctx.lab_to_kh(wf))
    assert np.max(np.abs(back.psi - wf.psi)) < 1e-9
    assert back.frame == FRAME_LAB
    assert mean_x(back) == pytest.approx(mean_x(wf), abs=1e-8)


_packet = st.tuples(
    st.floats(-600.0, 600.0),  # centre
    st.floats(2.0, 60.0),  # width
    st.floats(-3.0, 3.0),  # mean momentum, well inside |p| < 17
    st.floats(-np.pi, np.pi),  # phase
)


@settings(max_examples=30, deadline=None)
@given(packets=st.lists(_packet, min_size=1, max_size=3), t=st.floats(-50.0, 1300.0))
def test_round_trip_band_limited(ctx, grid, packets, t):
    # random band-limited states at any time before, in or after the pulse:
    # the round trip is exact up to the rounding of two FFT pairs and two
    # unimodular phases; measured up to 1.2e-15 of the state's peak, bound 1e-13
    psi = sum(
        np.exp(-((grid.x - x0) ** 2) / (4 * w**2) + 1j * (p0 * grid.x + phase))
        for x0, w, p0, phase in packets
    )
    wf = WaveFunction(grid, psi, t, FRAME_LAB)
    back = ctx.kh_to_lab(ctx.lab_to_kh(wf))
    assert back.frame == FRAME_LAB and back.t == t
    assert np.max(np.abs(back.psi - wf.psi)) <= 1e-13 * np.max(np.abs(wf.psi))


def test_round_trip_at_zero(ctx, grid):
    wf = lab_gaussian(grid, x0=1.0, t=0.0)
    back = ctx.kh_to_lab(ctx.lab_to_kh(wf))
    assert np.max(np.abs(back.psi - wf.psi)) < 1e-12


def test_frame_tag_enforcement(ctx, grid):
    wf = lab_gaussian(grid, t=100.0)
    with pytest.raises(FrameTransformError):
        ctx.kh_to_lab(wf)
    khwf = wf.with_frame(FRAME_KH)
    with pytest.raises(FrameTransformError):
        ctx.lab_to_kh(khwf)


def test_identity_just_before_pulse(ctx, grid):
    # the transform reads the state's own time: one a.u. before the pulse
    # both directions leave the amplitudes as they are
    wf = lab_gaussian(grid, t=-1.0)
    out = ctx.lab_to_kh(wf)
    assert out.t == -1.0 and np.max(np.abs(out.psi - wf.psi)) < 1e-12
    back = ctx.kh_to_lab(wf.with_frame(FRAME_KH))
    assert back.t == -1.0 and np.max(np.abs(back.psi - wf.psi)) < 1e-12


def test_grid_mismatch_rejected(ctx):
    from khatom.core import SpatialGrid

    g2 = SpatialGrid(-100.0, 100.0, 512)
    wf = WaveFunction(g2, np.exp(-g2.x**2).astype(complex), 0.0, FRAME_LAB)
    with pytest.raises(FrameTransformError):
        ctx.lab_to_kh(wf)
