import numpy as np
import pytest

from khatom.laser import (
    INTENSITY_AU,
    LaserError,
    PulseParams,
    build_field_cache,
    envelope,
    field_value,
)
from khatom.laser import _cumulative_simpson


@pytest.fixture(scope="module")
def params():
    return PulseParams(intensity=5.7e13)


@pytest.fixture(scope="module")
def cache(params):
    return build_field_cache(params, dt_field=0.025)


def test_eps0_from_intensity(params):
    assert params.eps0 == pytest.approx(np.sqrt(5.7e13 / INTENSITY_AU), rel=1e-14)
    assert params.eps0 == pytest.approx(0.0403, abs=5e-5)


def test_params_validation():
    # a negative intensity gave eps0 = nan with only a RuntimeWarning
    for intensity in (-5.7e13, np.nan, np.inf):
        with pytest.raises(LaserError, match="intensity must be finite and at least 0"):
            PulseParams(intensity=intensity)
    with pytest.raises(LaserError):
        PulseParams(intensity=5.7e13, ramp_cycles=11)
    assert PulseParams(intensity=0.0).eps0 == 0.0


def test_derived_times(params):
    T = params.period
    assert T == 100.0
    assert params.omega == pytest.approx(2 * np.pi / 100.0)
    assert params.t_ramp == 2 * T
    assert params.t_flat_end == 10 * T
    assert params.t_final == 12 * T
    assert params.alpha0 == pytest.approx(params.eps0 / params.omega**2)
    assert params.alpha0 == pytest.approx(10.23, abs=0.05)


def test_envelope_values(params):
    T = params.period
    assert envelope(params, 0.0) == 0.0
    assert envelope(params, 5 * T) == 1.0
    assert envelope(params, 11 * T) == pytest.approx(0.5, abs=1e-14)
    assert envelope(params, -3.0) == 0.0
    assert envelope(params, 12 * T + 1.0) == 0.0


def test_envelope_continuity(params):
    T = params.period
    for knot in (0.0, 2 * T, 10 * T, 12 * T):
        below = envelope(params, knot - 1e-9)
        above = envelope(params, knot + 1e-9)
        assert abs(above - below) < 1e-10


def test_field_values(params):
    T = params.period
    assert field_value(params, 0.0) == 0.0
    assert field_value(params, 4.25 * T) == pytest.approx(params.eps0, rel=1e-12)
    assert field_value(params, 4.25 * T) == pytest.approx(0.0403, abs=5e-5)
    assert field_value(params, 12 * T + 1.0) == 0.0
    # vectorized call agrees with scalars
    ts = np.array([0.0, 4.25 * T, 11 * T])
    assert np.allclose(field_value(params, ts), [field_value(params, t) for t in ts])


def test_cache_zero_start_and_endpoints(cache, params):
    assert cache.eps[0] == 0.0
    assert cache.a[0] == 0.0
    assert cache.alpha[0] == 0.0
    assert cache.s[0] == 0.0
    # the pulse transfers no net momentum or displacement
    res_a, res_alpha = cache.endpoint_residuals
    assert res_a < 1e-6
    assert res_alpha < 1e-6


def test_cache_flat_top_amplitudes(cache, params):
    T = params.period
    flat = (cache.times >= params.t_ramp) & (cache.times <= params.t_flat_end)
    a_max = np.max(np.abs(cache.a[flat]))
    alpha_max = np.max(np.abs(cache.alpha[flat]))
    # on the flat top A = (eps0/omega) cos(wt) and alpha = alpha0 sin(wt)
    assert a_max == pytest.approx(params.eps0 / params.omega, rel=1e-6)
    assert a_max == pytest.approx(0.642, abs=1e-3)
    assert alpha_max == pytest.approx(params.alpha0, rel=1e-6)
    assert alpha_max == pytest.approx(10.23, abs=0.05)


def test_cache_flat_top_periodicity(cache, params):
    shift = int(round(params.period / cache.dt_field))
    i0 = int(round(params.t_ramp / cache.dt_field))
    i1 = int(round((params.t_flat_end - params.period) / cache.dt_field))
    sl = slice(i0, i1 + 1)
    sl_shifted = slice(i0 + shift, i1 + 1 + shift)
    assert np.max(np.abs(cache.alpha[sl] - cache.alpha[sl_shifted])) < 1e-6 * params.alpha0
    assert np.max(np.abs(cache.a[sl] - cache.a[sl_shifted])) < 1e-8 * np.max(np.abs(cache.a))
    assert np.max(np.abs(cache.eps[sl] - cache.eps[sl_shifted])) < 1e-8 * params.eps0


def test_cache_derivative_consistency(cache):
    # central difference of A reproduces -eps at interior nodes, O(dt^2)
    dt = cache.dt_field
    da = (cache.a[2:] - cache.a[:-2]) / (2 * dt)
    assert np.max(np.abs(da + cache.eps[1:-1])) < 5e-8


def test_cache_refinement_stability(params, cache):
    finer = build_field_cache(params, dt_field=0.0125)
    assert abs(finer.alpha[-1] - cache.alpha[-1]) < 1e-9


def test_cache_lookup_matches_nodes(cache):
    k = 12345
    t = cache.times[k]
    assert cache.a_at(t) == cache.a[k]
    assert cache.alpha_at(t) == cache.alpha[k]
    assert cache.s_at(t) == cache.s[k]
    assert cache.eps_at(cache.times[-1] + 5.0) == 0.0
    # after the pulse the accumulated integrals stay frozen
    assert cache.s_at(cache.times[-1] + 50.0) == cache.s[-1]


def test_cache_rejects_bad_dt(params):
    with pytest.raises(LaserError):
        build_field_cache(params, dt_field=-0.1)
    with pytest.raises(LaserError):
        build_field_cache(params, dt_field=7.3)
    with pytest.raises(LaserError, match="two intervals"):
        build_field_cache(params, dt_field=params.t_final)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 100, 101, 48000, 48001])
def test_cumulative_simpson_matches_scipy(n):
    # scipy is the oracle; the same operations give the same bits, signed
    # zeros included, so the comparison is on the bytes
    from scipy.integrate import cumulative_simpson

    rng = np.random.default_rng(n)
    t = np.arange(n) * 0.025
    signed_zeros = np.where(np.arange(n) % 3 == 2, 0.0, -0.0)  # partial sums of -0.0
    for y in (rng.normal(size=n), np.sin(0.0628 * t) * np.minimum(t, 1.0), signed_zeros):
        for dx in (0.025, 1.0):
            ref = cumulative_simpson(y, dx=dx, initial=0.0)
            assert _cumulative_simpson(y, dx).tobytes() == ref.tobytes()

