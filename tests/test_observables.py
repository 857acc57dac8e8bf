"""Observable diagnostics: populations, widths, autocorrelations, series."""

import numpy as np
import pytest

from khatom.core import FRAME_KH, FrameError, TimeGrid, WaveFunction, inner_product, shift_samples
from khatom.observables import (
    CSV_COLUMNS,
    WINDOW,
    ObservableError,
    Recorder,
    population,
    read_series,
    trapped_width,
    write_series,
)
from khatom.observables import _half_line_masses, _window_moments
from khatom.propagator import MODE_KH, SplitOperator, propagate
from oracles import harmonic_amplitude, two_level_density


def window_mean(wf, window=WINDOW):
    return _window_moments(wf.grid, wf.density(), window)[1]


def half_line_masses(wf):
    return _half_line_masses(wf.grid, wf.density())


def test_population_equal_superposition(kh_pairs, psi_coh):
    for pair in kh_pairs:
        assert abs(population(psi_coh, pair.state) - 0.5) < 1e-8


def test_population_frame_mismatch(psi_coh, ground_pair):
    with pytest.raises(FrameError):
        population(psi_coh, ground_pair.state)


def test_trapped_width_uniform(grid):
    psi = np.zeros(grid.n_points, dtype=complex)
    sel = np.abs(grid.x) <= 60.0
    psi[sel] = 1.0
    wf = WaveFunction(grid, psi / np.sqrt(grid.dx * sel.sum()), 0.0, FRAME_KH)
    assert abs(trapped_width(wf) - 120.0 / np.sqrt(12.0)) < 0.05


def test_trapped_width_point_mass(grid):
    psi = np.zeros(grid.n_points, dtype=complex)
    k = np.argmin(np.abs(grid.x - 10.0))
    psi[k] = 1.0 / np.sqrt(grid.dx)
    wf = WaveFunction(grid, psi, 0.0, FRAME_KH)
    assert trapped_width(wf) < grid.dx


def test_trapped_width_empty_window(grid):
    psi = np.exp(-0.5 * (grid.x - 200.0) ** 2).astype(complex)
    psi /= np.sqrt(grid.dx * np.sum(np.abs(psi) ** 2))
    wf = WaveFunction(grid, psi, 0.0, FRAME_KH)
    with pytest.raises(ObservableError):
        trapped_width(wf)


def test_expectation_x_even_and_shifted(grid, kh_pairs):
    # a window wide enough to hold the whole state: |x| <= 60 leaves out
    # about 1e-7 of it, which moves the shifted mean by 9e-6
    wide = (-300.0, 300.0)
    phi0 = kh_pairs[0].state
    assert abs(window_mean(phi0, wide)) < 1e-8
    moved = WaveFunction(grid, shift_samples(grid, phi0.psi, 5.0), 0.0, FRAME_KH)
    assert abs(window_mean(moved, wide) - 5.0) < 1e-6


def test_window_mean_ignores_far_field(grid, kh_pairs):
    # a remote lump drags the full-grid mean but not the windowed one
    phi0 = kh_pairs[0].state
    lump = 0.1 * np.exp(-0.5 * ((grid.x - 400.0) / 10.0) ** 2)
    psi = phi0.psi + lump.astype(complex)
    wf = WaveFunction(grid, psi, 0.0, FRAME_KH)
    assert grid.dx * np.sum(grid.x * wf.density()) > 50.0
    assert abs(window_mean(wf)) < 1e-6


def test_half_line_masses_even_state(kh_pairs):
    left, right = half_line_masses(kh_pairs[0].state)
    assert abs(left - right) < 1e-8
    assert left + right <= 1.0 + 1e-9


def test_half_line_masses_superposition(psi_coh):
    left, right = half_line_masses(psi_coh)
    assert left - right > 0.3


def test_autocorrelation_initial(psi_coh):
    assert abs(inner_product(psi_coh, psi_coh) - 1.0) < 1e-12


def test_beat_autocorrelation_matches_two_level_formula(kh_beat_run, kh_pairs):
    result, rec = kh_beat_run
    w10 = kh_pairs[1].energy - kh_pairs[0].energy
    t = rec.column("t")
    c2 = rec.column("autocorr_abs2")
    model = 0.5 * (1.0 + np.cos(w10 * t))
    assert np.max(np.abs(c2 - model)) < 1e-3


def test_beat_autocorrelation_landmarks(kh_beat_run, beat_period):
    result, rec = kh_beat_run
    t = rec.column("t")
    c2 = rec.column("autocorr_abs2")
    quarter = np.interp(beat_period / 4.0, t, c2)
    assert abs(quarter - 0.5) < 2e-3
    in_first = (t > 0.1 * beat_period) & (t < 0.9 * beat_period)
    t_min = t[in_first][np.argmin(c2[in_first])]
    assert abs(t_min - beat_period / 2.0) < 5.0
    revival = np.interp(beat_period, t, c2)
    assert revival > 0.999


def test_beat_half_line_swap(kh_beat_run, beat_period):
    result, rec = kh_beat_run
    t = rec.column("t")
    diff = rec.column("mass_left") - rec.column("mass_right")

    def at(tq):
        return np.interp(tq, t, diff)

    assert at(0.0) > 0.3
    assert at(beat_period / 2.0) < -0.3
    assert at(beat_period) > 0.3
    assert at(1.5 * beat_period) < -0.3


def test_beat_density_reconstruction(kh_beat_run, kh_pairs):
    # the propagated superposition density must match the closed two-level
    # form at every stored snapshot, to 1e-6 in the sup norm
    result, rec = kh_beat_run
    assert len(result.snapshots) == 9
    worst = 0.0
    for snap in result.snapshots:
        model = two_level_density(kh_pairs[0], kh_pairs[1], snap.t)
        worst = max(worst, float(np.max(np.abs(snap.density() - model))))
    assert worst < 1e-6


def test_single_eigenstate_autocorrelation_flat(grid, averaged, kh_pairs):
    rec = Recorder(kh_pairs=kh_pairs)
    op = SplitOperator(grid, averaged.samples, TimeGrid(t0=0.0, dt=0.05, n_steps=4000), MODE_KH)
    propagate(op, kh_pairs[0].state, observer=rec)
    c2 = rec.column("autocorr_abs2")
    assert np.max(np.abs(c2 - 1.0)) < 1e-8


def test_series_validation(kh_pairs):
    # each record is checked as it comes: increasing times, populations in
    # [0, 1] within 1e-9; the nan P_b of a kh run passes
    phi = kh_pairs[0].state
    rec = Recorder(kh_pairs=kh_pairs)
    rec.record(0.0, phi)
    with pytest.raises(ObservableError, match="times must increase"):
        rec.record(0.0, phi)
    with pytest.raises(ObservableError, match=r"'P_KH_0': population 1\.10.* outside \[0, 1\]"):
        rec.record(1.0, WaveFunction(phi.grid, 1.05 * phi.psi, 1.0, phi.frame))
    assert len(rec.rows) == 1  # a rejected row is not kept
    assert np.isnan(rec.column("P_b")[0])


def test_recorder_kh_nan_columns(kh_beat_run):
    result, rec = kh_beat_run
    assert np.isnan(rec.column("P_b")).all()
    assert np.isnan(rec.column("mean_x_lab")).all()
    assert np.max(np.abs(rec.column("norm") - 1.0)) < 1e-10


def test_recorder_series_and_csv_roundtrip(tmp_path, kh_beat_run):
    result, rec = kh_beat_run
    path = tmp_path / "series.csv"
    write_series(path, rec)
    back = read_series(path)
    for name in CSV_COLUMNS:
        np.testing.assert_array_equal(back[name], rec.column(name))


def test_read_series_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ObservableError):
        read_series(path)


def test_harmonic_amplitude_recovers_sine():
    t = np.arange(0.0, 800.0, 1.0)
    w = 2.0 * np.pi / 100.0
    y = 3.0 + 0.25 * np.sin(w * t + 0.3)
    assert abs(harmonic_amplitude(t, y, w) - 0.25) < 1e-6


def test_lab_run_recorder_columns(lab_ground_run, pulse):
    result, rec = lab_ground_run
    t = rec.column("t")
    assert t[0] == 0.0 and t[-1] == pulse.t_final
    # ground state at switch-on: full survival, unit norm, symmetric
    assert abs(rec.column("P_b")[0] - 1.0) < 1e-8
    assert abs(rec.column("autocorr_abs2")[0] - 1.0) < 1e-12
    assert np.all(np.isfinite(rec.column("mean_x_lab")))
    assert np.all(rec.column("norm") <= 1.0 + 1e-9)
    assert rec.column("norm")[-1] <= 1.0
