"""Wigner transforms, marginals, and classical phase portraits."""

import tracemalloc

import numpy as np
import pytest

from khatom import phasespace
from khatom.core import FRAME_KH, SpatialGrid, WaveFunction
from khatom.frame import FrameTransformContext
from khatom.phasespace import (
    PhaseSpaceError,
    WignerGrid,
    equienergy_curve,
    momentum_tail_fraction,
    phase_portrait,
    read_wigner,
    separatrix_energy,
    superposition_wigner_analytic,
    wigner,
    wigner_marginals,
    write_wigner,
)
from khatom.phasespace import _eval_positions, _lag_transform, _next_fast_len, _sample_rows
from khatom.potential import kh_averaged_potential

E_CURVE = 0.0125


@pytest.fixture(scope="module")
def gaussian(grid):
    psi = np.pi**-0.25 * np.exp(-0.5 * grid.x**2)
    return WaveFunction(grid, psi.astype(complex), 0.0, FRAME_KH)


def _packet(x):
    return np.exp(-((x - 2.0) ** 2) / 18.0 + 0.7j * x)


def test_eval_positions_off_grid():
    # band-limited evaluation reproduces an analytic packet between the samples
    g = SpatialGrid(-100.0, 100.0, 2048)
    wf = WaveFunction(g, _packet(g.x))
    xs = np.linspace(-25.0, 25.0, 401) + 0.3 * g.dx
    assert np.max(np.abs(_eval_positions(wf, xs) - _packet(xs))) < 1e-9


def test_eval_positions_on_grid_is_exact():
    # on the grid points themselves it gives back the samples
    g = SpatialGrid(-100.0, 100.0, 2048)
    wf = WaveFunction(g, _packet(g.x))
    on = np.abs(g.x) < 25.0
    assert np.max(np.abs(_eval_positions(wf, g.x[on]) - wf.psi[on])) < 1e-12


def test_sample_rows_match_band_limited_oracle(psi_coh, monkeypatch):
    # broadband state on a grid without x = 0: the KH superposition plus
    # packets near p = 14, -9 and 3.  The grid is shifted by 0.3 dx, so the
    # fine grid's offset delta from the first sample is not zero; rows are
    # checked at both ends of the position axis and of the lag window, on
    # X_AXIS (k = 6) and on a coarser axis (k = 11)
    g0 = psi_coh.grid
    g = SpatialGrid(g0.x_min + 0.3 * g0.dx, g0.x_max + 0.3 * g0.dx, g0.n_points)
    assert np.min(np.abs(g.x)) > 0.2 * g.dx
    x = g.x
    packets = (
        np.exp(-((x - 20.0) ** 2) / 50.0 + 14j * x)
        + np.exp(-((x + 30.0) ** 2) / 80.0 - 9j * x)
        + np.exp(-((x - 5.0) ** 2) / 30.0 + 3j * x)
    )
    wf = WaveFunction(g, psi_coh.psi + 0.05 * packets, 0.0, FRAME_KH)
    for xs, k in ((phasespace.X_AXIS, 6), (np.linspace(-41.0, 33.0, 75), 11)):
        monkeypatch.setattr(phasespace, "X_AXIS", xs)
        rows, d_xi = _sample_rows(wf)
        h = 0.5 * d_xi
        m_max = round(120.0 / h)
        assert h == pytest.approx((xs[1] - xs[0]) / k) and h <= 0.5 * g.dx
        assert rows.shape == (len(xs), 2 * m_max + 1)
        delta = (xs[0] - m_max * h - g.x_min) / h % 1.0
        assert 0.1 < delta < 0.9
        sel = np.r_[0 : len(xs) : 7, len(xs) - 1]
        cols = np.r_[0 : 2 * m_max + 1 : 41, 2 * m_max]
        pos = xs[sel, None] + (cols - m_max) * h
        oracle = _eval_positions(wf, pos.ravel()).reshape(pos.shape)
        assert np.max(np.abs(rows[np.ix_(sel, cols)] - oracle)) < 1e-12
        assert np.max(np.abs(oracle)) > 0.05


def test_wigner_gaussian_oracle(gaussian, monkeypatch):
    monkeypatch.setattr(phasespace, "X_AXIS", np.linspace(-6.0, 6.0, 121))
    monkeypatch.setattr(phasespace, "P_AXIS", np.linspace(-3.0, 3.0, 121))
    w = wigner(gaussian)
    X, P = np.meshgrid(w.x, w.p, indexing="ij")
    exact = np.exp(-(X**2) - P**2) / np.pi
    assert np.max(np.abs(w.values - exact)) < 1e-10
    assert w.values.min() > -1e-12  # coherent state: non-negative blob


def test_wigner_excited_origin_value(kh_pairs):
    w = wigner(kh_pairs[1].state)
    v00 = w.values[np.argmin(np.abs(w.x)), np.argmin(np.abs(w.p))]
    assert abs(v00 + 1.0 / np.pi) < 0.01 / np.pi
    # direct quadrature of the parity overlap gives the same number
    g = kh_pairs[1].state.grid
    psi = kh_pairs[1].state.psi
    rev = np.concatenate((psi[:1], psi[:0:-1]))
    overlap = g.dx * np.sum(np.conj(psi) * rev)
    assert abs(v00 - overlap.real / np.pi) < 1e-6


def test_wigner_peak_locations(kh_pairs):
    w0 = wigner(kh_pairs[0].state)
    i, j = np.unravel_index(np.argmax(w0.values), w0.values.shape)
    assert abs(w0.x[i]) < 1.0 and abs(w0.p[j]) < 0.02
    w1 = wigner(kh_pairs[1].state)
    i, j = np.unravel_index(np.argmax(w1.values), w1.values.shape)
    assert 4.0 < abs(w1.x[i]) < 20.0


def test_wigner_parity_symmetry(kh_pairs):
    for pair in kh_pairs:
        w = wigner(pair.state)
        assert np.max(np.abs(w.values - w.values[::-1, :])) < 1e-6
        assert np.max(np.abs(w.values - w.values[:, ::-1])) < 1e-6


def test_wigner_pure_state_bound(kh_pairs, psi_coh):
    for wf in (kh_pairs[0].state, kh_pairs[1].state, psi_coh):
        w = wigner(wf)
        assert np.max(np.abs(w.values)) <= 1.0 / np.pi + 1e-3


def test_marginals_eigenstates(kh_pairs):
    for pair in kh_pairs:
        w = wigner(pair.state)
        r_x, _ = wigner_marginals(w, pair.state)
        assert r_x < 1e-3


def test_marginals_zero_state(grid):
    zero = WaveFunction(grid, np.zeros(grid.n_points, complex), 0.0, FRAME_KH)
    w = wigner(zero)
    assert not np.any(w.values)
    assert wigner_marginals(w, zero) == (0.0, 0.0)


def test_marginals_frame_invariance(psi_coh, cache, grid, monkeypatch):
    # Same trapped state viewed in both frames at a vector-potential zero,
    # where the two frames differ by a pure quiver displacement.  A clean
    # bound packet keeps escaping flux out of the comparison so the residuals
    # probe the transform numerics, not window content.
    snap_kh = WaveFunction(grid, psi_coh.psi, 625.0, FRAME_KH)
    ctx = FrameTransformContext(cache=cache, grid=grid)
    snap_lab = ctx.kh_to_lab(snap_kh)
    # window wide enough that the exponential tails are inside it in both
    # frames; otherwise the truncated tail mass is itself frame dependent
    monkeypatch.setattr(phasespace, "X_AXIS", np.linspace(-120.0, 120.0, 241))
    r_lab = wigner_marginals(wigner(snap_lab), snap_lab)
    r_kh = wigner_marginals(wigner(snap_kh), snap_kh)
    assert abs(r_lab[0] - r_kh[0]) < 1e-3
    assert abs(r_lab[1] - r_kh[1]) < 1e-3


def test_wigner_rejects_wide_momentum_window(kh_pairs, monkeypatch):
    g = kh_pairs[0].state.grid
    monkeypatch.setattr(phasespace, "P_AXIS", np.linspace(-np.pi / g.dx - 1, np.pi / g.dx + 1, 201))
    with pytest.raises(PhaseSpaceError, match="momentum window"):
        wigner(kh_pairs[0].state)


def test_wigner_grid_validation():
    x = np.linspace(-1, 1, 5)
    p = np.linspace(-1, 1, 3)
    with pytest.raises(PhaseSpaceError):
        WignerGrid(x, p, np.ones((5, 3)), 0.0, "kh")  # breaks 1/pi bound
    with pytest.raises(PhaseSpaceError):
        WignerGrid(x, p, np.zeros((3, 5)), 0.0, "kh")  # shape mismatch
    with pytest.raises(PhaseSpaceError):
        WignerGrid(x, p, np.zeros((5, 3), complex), 0.0, "kh")  # complex


def test_superposition_analytic_t0(kh_pairs, psi_coh):
    w_direct = wigner(psi_coh)
    w_model = superposition_wigner_analytic(kh_pairs[0], kh_pairs[1], 0.0)
    assert np.max(np.abs(w_direct.values - w_model.values)) < 1e-4


def test_superposition_analytic_half_period(kh_pairs, beat_period):
    w0 = superposition_wigner_analytic(kh_pairs[0], kh_pairs[1], 0.0)
    wh = superposition_wigner_analytic(kh_pairs[0], kh_pairs[1], beat_period / 2.0)
    ws = wigner(kh_pairs[0].state).values + wigner(kh_pairs[1].state).values
    # cross term flips sign: the sum of the two leaves only the stationary part
    assert np.max(np.abs(w0.values + wh.values - ws)) < 1e-9


def test_superposition_analytic_quarter_period(kh_pairs, beat_period):
    wq = superposition_wigner_analytic(kh_pairs[0], kh_pairs[1], beat_period / 4.0)
    ws = wigner(kh_pairs[0].state).values + wigner(kh_pairs[1].state).values
    even_p = 0.5 * (wq.values + wq.values[:, ::-1])
    odd_p = 0.5 * (wq.values - wq.values[:, ::-1])
    # the breathing (cos) component is gone; what remains of the cross term
    # is odd in p and carries the packet's transit momentum
    assert np.max(np.abs(even_p - 0.5 * ws)) < 1e-9
    assert np.max(np.abs(odd_p)) > 1e-2


def test_lag_transform_matches_direct_sum():
    # the chirp-z sum against sum_m c_m e^{ip xi_m} with complex
    # exponentials, for an auto pair (s, s) and a cross pair (s0, s1), over
    # 37 rows: two blocks of 16 rows and a partial one of 5
    rng = np.random.default_rng(7)
    n_x, m_max, d_xi = 37, 1310, 3000.0 / 16384
    p = np.linspace(-0.6, 0.6, 201)
    s0, s1 = (
        rng.standard_normal((n_x, 2 * m_max + 1)) + 1j * rng.standard_normal((n_x, 2 * m_max + 1))
        for _ in range(2)
    )
    xi = (np.arange(2 * m_max + 1) - m_max) * d_xi
    for s_a, s_b in ((s0, s0), (s0, s1)):
        c = np.conj(s_a) * s_b[:, ::-1]
        direct = c @ np.exp(1j * np.outer(xi, p)) * (d_xi / (2.0 * np.pi))
        bound = 1e-13 * np.sum(np.abs(c), axis=1) * d_xi / (2.0 * np.pi)
        err = np.max(np.abs(_lag_transform(s_a, s_b, d_xi, p) - direct), axis=1)
        assert np.all(err < bound)


def test_next_fast_len_matches_scipy():
    # the chirp length must stay what scipy's next_fast_len gives for complex
    # input (2*3*5*7*11-smooth): a 2*3*5-smooth rule would turn the default
    # grid's 3082 into 3125, not 3087, and change every map's bits
    from scipy.fft import next_fast_len

    targets = range(1, 20001)
    assert [_next_fast_len(n) for n in targets] == [next_fast_len(n) for n in targets]
    assert _next_fast_len(3082) == 3087


def test_cross_transform_magnitudes(kh_pairs):
    # the cross term of superposition_wigner_analytic, on the map's axes
    (r0, d_xi), (r1, _) = (_sample_rows(pair.state) for pair in kh_pairs[:2])
    c = _lag_transform(r0, r1, d_xi, phasespace.P_AXIS)
    assert c.shape == (len(phasespace.X_AXIS), len(phasespace.P_AXIS))
    assert np.max(np.abs(c.real)) > 0.1
    assert np.max(np.abs(c.imag)) > 0.1


def test_superposition_samples_each_state_once(kh_pairs, monkeypatch):
    # both auto maps and the cross transform read the same two sample arrays
    calls = []

    def counted(wf):
        calls.append(wf)
        return _sample_rows(wf)

    monkeypatch.setattr(phasespace, "_sample_rows", counted)
    superposition_wigner_analytic(kh_pairs[0], kh_pairs[1], 0.0)
    assert len(calls) == 2
    assert calls[0] is kh_pairs[0].state and calls[1] is kh_pairs[1].state


def test_wigner_memory_is_streamed(psi_coh):
    # the map is streamed one block of rows at a time: no array of
    # positions x lags is held, only the fine-grid samples (36,000 points)
    # that every row is a view into
    assert psi_coh.grid.n_points == 16384
    tracemalloc.start()
    try:
        wigner(psi_coh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_propagated_matches_analytic(kh_beat_run, kh_pairs, beat_wigners):
    # quarter-period snapshots against the closed two-level form
    result, _ = kh_beat_run
    for k in (0, 1, 2):
        snap = result.snapshots[k]
        model = superposition_wigner_analytic(kh_pairs[0], kh_pairs[1], snap.t)
        assert np.max(np.abs(beat_wigners[k].values - model.values)) < 1e-4


def test_momentum_confinement_over_beat(beat_wigners):
    # Physical momentum content past the trapping scale stays below 1%.
    # momentum_tail_fraction sums signed W, which reduces to the momentum
    # marginal; a |W| sum would count interference fringes too and sit
    # near 2-2.5% for these states.
    for w in beat_wigners:
        tail = np.abs(w.p) > 0.25
        signed = w.values[:, tail].sum() / w.values.sum()
        assert 0.0 < signed < 0.01
        assert abs(momentum_tail_fraction(w) - signed) < 1e-12


def test_equienergy_single_band(averaged):
    branches = equienergy_curve(E_CURVE, averaged)
    assert len(branches) == 2  # one connected region, upper and lower branch
    xs, ps = branches[0]
    sel = (averaged.grid.x >= -60.0) & (averaged.grid.x <= 60.0)
    assert len(xs) == int(sel.sum())  # spans the whole window
    p_max = np.sqrt(2.0 * (E_CURVE - averaged.samples.min()))
    assert 0.2 < p_max < 0.26
    assert np.max(np.abs(ps)) <= p_max + 1e-12


def test_equienergy_curve_invariant(averaged):
    for xs, ps in equienergy_curve(E_CURVE, averaged):
        idx = np.searchsorted(averaged.grid.x, xs)
        v = averaged.samples[idx]
        assert np.max(np.abs(0.5 * ps**2 + v - E_CURVE)) < 1e-10


def test_equienergy_below_minimum_empty(averaged):
    assert equienergy_curve(averaged.samples.min() - 1e-3, averaged) == []


def test_separatrix_energy_and_saddle(averaged):
    e_sep = separatrix_energy(averaged)
    assert abs(e_sep - (-0.0115)) < 5e-4
    g = averaged.grid
    assert e_sep == averaged.samples[np.argmin(np.abs(g.x))]
    # the separatrix branch pinches at the origin
    for xs, ps in equienergy_curve(e_sep, averaged):
        k = np.argmin(np.abs(xs))
        if abs(xs[k]) <= g.dx:
            assert abs(ps[k]) < 1e-4


def test_separatrix_single_well_rejected(grid):
    shallow = kh_averaged_potential(grid, 0.5)
    with pytest.raises(PhaseSpaceError):
        separatrix_energy(shallow)


def test_phase_portrait_bundle(averaged):
    curves = phase_portrait(averaged, [E_CURVE, -0.005])
    assert len(curves) == 2
    for energy, branches in zip((E_CURVE, -0.005), curves):
        expected = equienergy_curve(energy, averaged)
        assert len(branches) == len(expected) > 0
        for (xs, ps), (x_ref, p_ref) in zip(branches, expected):
            np.testing.assert_array_equal(xs, x_ref)
            np.testing.assert_array_equal(ps, p_ref)


def test_wigner_mass_deficit_is_the_checked_value(kh_pairs):
    # the deficit the map carries is the one mass_tol is held against
    w = wigner(kh_pairs[0].state)
    assert 0.0 < w.mass_deficit < 1e-3
    with pytest.raises(PhaseSpaceError, match="disagrees with window norm"):
        wigner(kh_pairs[0].state, mass_tol=0.5 * w.mass_deficit)


def test_wigner_file_roundtrip(tmp_path, kh_pairs):
    w = wigner(kh_pairs[0].state)
    path = tmp_path / "state.wig"
    write_wigner(path, w)
    back = read_wigner(path)
    np.testing.assert_array_equal(back.values, w.values)
    np.testing.assert_allclose(back.x, w.x, atol=1e-12)
    np.testing.assert_allclose(back.p, w.p, atol=1e-12)
    assert back.t == w.t and back.frame == w.frame


def test_wigner_file_rejects_garbage(tmp_path):
    bad = tmp_path / "junk.wig"
    bad.write_bytes(b"NOTAWIG 1 2 3\n")
    with pytest.raises(PhaseSpaceError):
        read_wigner(bad)
    trunc = tmp_path / "short.wig"
    trunc.write_bytes(b"KHPSW1 4 4 0.0 1.0 0.0 1.0 0.0 kh\n" + b"\x00" * 16)
    with pytest.raises(PhaseSpaceError):
        read_wigner(trunc)
