"""End-to-end acceptance checks with one printed verdict per item.

Each check prints a [PASS]/[FAIL] line carrying the measured numbers on
the real stdout (bypassing capture) and then asserts, so a red test
still reports what it measured.  Where a target is a property of the
model rather than a fixed number, the check compares the run with a
prediction made off the code path under test: the averaged-well minima
(3a) with an adaptive quadrature of the cycle average, the flat-top
width (7a) with the widths of the two dressed states, and the
dressed-state population (7b) with the Fermi golden-rule rate of
one-photon ionization through the first KH harmonic.
"""

import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from khatom.core import SpatialGrid, TimeGrid, inner_product
from khatom.frame import FrameTransformContext, density_relation_residual
from khatom.observables import Recorder, trapped_width
from khatom.phasespace import (
    momentum_tail_fraction,
    superposition_wigner_analytic,
    wigner,
    wigner_marginals,
)
from khatom.potential import atomic_potential, kh_averaged_potential
from khatom.propagator import MODE_KH, MODE_LAB, SplitOperator, propagate
from oracles import bound_states_fd, harmonic_amplitude, kh_fourier_harmonic

ALPHA0 = 10.23
CYCLE = 100.0
OMEGA_CARRIER = 2.0 * np.pi / CYCLE
FLAT_LO, FLAT_HI = 300.0, 2100.0  # flat-top interior, clear of ramp transients
# x -> x/s narrowing of the binding potential; the finite-range inward pull
# of the averaged minima shrinks linearly with s (1.61 at s=1, 0.15 at 0.1)
NARROW_SCALE = 0.1
# the continuum is fitted where V0 has underflowed (V0(100) ~ 1e-40)
CONTINUUM_FIT = (100.0, 200.0)


VERDICTS: list[str] = []


def _verdict(label: str, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    return detail


def _boxcar(y: np.ndarray, n: int) -> np.ndarray:
    return np.convolve(y, np.ones(n) / n, mode="same")


def _core_grid(grid: SpatialGrid) -> SpatialGrid:
    """Centered 1024-point sub-grid whose samples coincide with those of the symmetric `grid`."""
    half = 512 * grid.dx
    return SpatialGrid(-half, half, 1024)


def _grid_minima(x: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    return x[np.where(x < 0, v, np.inf).argmin()], x[np.where(x > 0, v, np.inf).argmin()]


def _quadrature_minimum() -> float:
    """Right-well minimum of the cycle average, by adaptive quadrature over theta.

    Independent of the grid and of the uniform phase nodes that
    kh_averaged_potential uses.
    """
    def v0(x):
        return quad(lambda th: atomic_potential(x + ALPHA0 * np.sin(th)), 0.0, 2.0 * np.pi,
                    limit=200)[0] / (2.0 * np.pi)

    return float(minimize_scalar(v0, bounds=(0.0, ALPHA0), method="bounded",
                                 options={"xatol": 1e-8}).x)


def _half_line(grid: SpatialGrid) -> slice:
    """Samples of the symmetric `grid` from the origin to the end of CONTINUUM_FIT."""
    origin = int(np.argmin(np.abs(grid.x)))
    return slice(origin, origin + int(CONTINUUM_FIT[1] / grid.dx) + 1)


def _odd_continuum(x: np.ndarray, v: np.ndarray, energy: float) -> np.ndarray:
    """Energy-normalized odd scattering state of p^2/2 + v on the half line.

    x is a uniform axis starting at the origin.  Numerov from psi(0) = 0;
    the amplitude is fitted on CONTINUUM_FIT, where v vanishes and the
    discrete solution is exactly a sin + b cos of the Numerov wave number.
    The tail sin(kx + delta)/sqrt(pi k) gives <psi_E|psi_E'> = delta(E - E')
    for the odd extension on the full line.
    """
    h = x[1] - x[0]
    k = np.sqrt(2.0 * energy)
    c = 1.0 - h * h * 2.0 * (v - energy) / 12.0
    psi = np.zeros(len(x))
    psi[1] = h
    for j in range(1, len(x) - 1):
        psi[j + 1] = ((12.0 - 10.0 * c[j]) * psi[j] - c[j - 1] * psi[j - 1]) / c[j + 1]
    k_num = np.arccos((1.0 - 5.0 * (h * k) ** 2 / 12.0) / (1.0 + (h * k) ** 2 / 12.0)) / h
    fit = (x >= CONTINUUM_FIT[0]) & (x <= CONTINUUM_FIT[1])
    basis = np.column_stack([np.sin(k_num * x[fit]), np.cos(k_num * x[fit])])
    (a, b), *_ = np.linalg.lstsq(basis, psi[fit], rcond=None)
    return psi / (np.hypot(a, b) * np.sqrt(np.pi * k))


def _golden_rule_rate(grid: SpatialGrid, averaged, pair) -> float:
    """One-photon ionization rate 2 pi |<E0+w, odd|V_1|phi0>|^2 of an even dressed state.

    V_1 is the first theta-harmonic of the displaced potential; it is odd
    in x, so an even state couples to the odd continuum of V0 only.  The
    product V_1 phi0 is even and has vanished well inside the core grid,
    so the matrix element is twice the half-line sum there.
    """
    half = _half_line(grid)
    psi = _odd_continuum(grid.x[half], averaged.samples[half], pair.energy + OMEGA_CARRIER)
    core = _core_grid(grid)
    v1 = kh_fourier_harmonic(1, core, ALPHA0)[core.n_points // 2:]
    n = len(v1)
    m = 2.0 * grid.dx * np.sum(psi[:n] * v1 * pair.state.psi[half][:n])
    return float(2.0 * np.pi * abs(m) ** 2)


@pytest.fixture(scope="module")
def eigen_wigners(kh_pairs):
    return [wigner(pair.state) for pair in kh_pairs]


def test_atomic_ground_state(ground_pair, v_atom, grid):
    e = ground_pair.energy
    negatives = bound_states_fd(v_atom, grid)
    ok = abs(e + 0.0276) < 5e-4 and len(negatives) == 1
    detail = _verdict("1", ok, f"E_g={e:+.6f} (target -0.0276+-5e-4), "
                               f"negative-energy FD states={len(negatives)} (want 1)")
    assert ok, detail


def test_dressed_spectrum(kh_pairs):
    e0, e1 = kh_pairs[0].energy, kh_pairs[1].energy
    w10 = e1 - e0
    t10 = 2.0 * np.pi / w10
    ok = (
        len(kh_pairs) == 2
        and abs(e0 + 0.01098) < 5e-4
        and abs(e1 + 0.00282) < 5e-4
        and abs(w10 - 8.16e-3) < 5e-4
        and abs(t10 - 770.0) <= 15.0
    )
    detail = _verdict("2", ok, f"E0={e0:+.6f} E1={e1:+.6f} w10={w10:.6f} T10={t10:.1f} "
                               f"(targets -0.01098, -0.00282, 0.00816, 770+-15)")
    assert ok, detail


def test_averaged_well_positions(averaged, grid):
    # the minima sit at +-alpha0 only in the zero-range limit: check that
    # limit on the narrowed model, and the real model against quadrature
    left, right = _grid_minima(grid.x, averaged.samples)
    x_quad = _quadrature_minimum()
    core = _core_grid(grid)
    narrow = kh_averaged_potential(core, ALPHA0, model=lambda x: atomic_potential(x / NARROW_SCALE))
    n_left, n_right = _grid_minima(core.x, narrow.samples)
    dx = grid.dx
    ok = (
        abs(left + x_quad) <= dx and abs(right - x_quad) <= dx
        and abs(n_left + ALPHA0) <= dx and abs(n_right - ALPHA0) <= dx
    )
    detail = _verdict("3a", ok, f"well minima at {left:+.3f}/{right:+.3f} vs quadrature "
                                f"+-{x_quad:.4f}; narrowed (s={NARROW_SCALE}) minima at "
                                f"{n_left:+.3f}/{n_right:+.3f} vs +-{ALPHA0}; within dx={dx:.3f}")
    assert ok, detail


def test_averaged_barrier_energy(averaged, grid):
    v00 = float(averaged.samples[np.argmin(np.abs(grid.x))])
    ok = abs(v00 + 0.0115) < 5e-4
    detail = _verdict("3b", ok, f"V0(0)={v00:+.6f} vs -0.0115+-5e-4")
    assert ok, detail


def test_beat_autocorrelation(kh_beat_run, kh_pairs):
    _, rec = kh_beat_run
    t = rec.column("t")
    w10 = kh_pairs[1].energy - kh_pairs[0].energy
    model = 0.5 * (1.0 + np.cos(w10 * t))
    dev = float(np.abs(rec.column("autocorr_abs2") - model).max())
    ok = dev < 1e-3
    detail = _verdict("4a", ok, f"max||C|^2-(1+cos w10 t)/2|={dev:.2e} over [0,2T10] (tol 1e-3)")
    assert ok, detail


def test_eigenstate_autocorrelation(kh_pairs, averaged):
    t10 = 2.0 * np.pi / (kh_pairs[1].energy - kh_pairs[0].energy)
    rec = Recorder(kh_pairs=kh_pairs)
    time = TimeGrid(t0=0.0, dt=0.1, n_steps=round(2.0 * t10 / 0.1))
    op = SplitOperator(averaged.grid, averaged.samples, time, MODE_KH)
    propagate(op, kh_pairs[0].state, observer=rec, cadence=50)
    dev = float(np.abs(rec.column("autocorr_abs2") - 1.0).max())
    ok = dev < 1e-8
    detail = _verdict("4b", ok, f"max||C|^2-1|={dev:.2e} over [0,2T10] (tol 1e-8)")
    assert ok, detail


def test_wigner_marginals(eigen_wigners, kh_pairs):
    res = [wigner_marginals(w, pair.state)[0]
           for w, pair in zip(eigen_wigners, kh_pairs)]
    ok = max(res) < 1e-3
    detail = _verdict("5a", ok, f"position-marginal residuals {res[0]:.2e}, {res[1]:.2e} (tol 1e-3)")
    assert ok, detail


def test_wigner_central_value(eigen_wigners):
    w1 = eigen_wigners[1]
    w00 = float(w1.values[np.argmin(np.abs(w1.x)), np.argmin(np.abs(w1.p))])
    rel = abs(w00 + 1.0 / np.pi) * np.pi
    ok = rel < 0.01
    detail = _verdict("5b", ok, f"W(0,0)={w00:.6f} vs -1/pi, rel dev {rel:.2e} (tol 1%)")
    assert ok, detail


def test_wigner_parity(eigen_wigners):
    worst = 0.0
    for w in eigen_wigners:
        worst = max(worst, float(np.abs(w.values - w.values[::-1, ::-1]).max()))
        worst = max(worst, float(np.abs(w.values - w.values[:, ::-1]).max()))
    ok = worst < 1e-6
    detail = _verdict("5c", ok, f"max parity residual {worst:.2e} (tol 1e-6)")
    assert ok, detail


def test_wigner_beat_match(beat_wigners, kh_pairs):
    worst = 0.0
    for w in beat_wigners[:3]:  # t = 0, T10/4, T10/2
        model = superposition_wigner_analytic(kh_pairs[0], kh_pairs[1], w.t)
        worst = max(worst, float(np.abs(w.values - model.values).max()))
    ok = worst < 1e-4
    detail = _verdict("5d", ok, f"sup|W-model|={worst:.2e} at t in (0, T10/4, T10/2) (tol 1e-4)")
    assert ok, detail


def test_unitarity_drift(ground_pair, v_atom, long_cache):
    time = TimeGrid(t0=0.0, dt=0.1, n_steps=10000)
    op = SplitOperator(ground_pair.state.grid, v_atom, time, MODE_LAB, long_cache)
    res = propagate(op, ground_pair.state.with_frame("lab"))
    drift = abs(res.final.norm() - 1.0)
    ok = drift < 1e-10
    detail = _verdict("6a", ok, f"|norm-1|={drift:.2e} after 1e4 absorber-free steps (tol 1e-10)")
    assert ok, detail


def test_dt_halving_overlap(ground_pair, v_atom, long_cache):
    finals = []
    for dt in (0.1, 0.05):
        time = TimeGrid(t0=0.0, dt=dt, n_steps=round(100.0 / dt))
        op = SplitOperator(ground_pair.state.grid, v_atom, time, MODE_LAB, long_cache)
        res = propagate(op, ground_pair.state.with_frame("lab"))
        finals.append(res.final)
    ov = abs(inner_product(finals[0], finals[1]))
    ok = ov >= 1.0 - 1e-6
    detail = _verdict("6b", ok, f"dt 0.1 vs 0.05 final-state overlap 1-{1-ov:.2e} (tol 1e-6)")
    assert ok, detail


def test_pulse_endpoints(long_pulse, long_cache):
    ra = abs(long_cache.a_at(long_pulse.t_final))
    rq = abs(long_cache.alpha_at(long_pulse.t_final))
    ok = ra < 1e-6 and rq < 1e-4
    detail = _verdict("6c", ok, f"|A(Tf)|={ra:.2e} (tol 1e-6), |alpha(Tf)|={rq:.2e} (tol 1e-4)")
    assert ok, detail


def test_width_plateau(lab_ground_production, kh_pairs):
    # the unbound part leaves the window while the trapped cloud settles
    # between the widths of the two dressed states
    _, rec = lab_ground_production
    t = rec.column("t")
    sm = _boxcar(rec.column("sigma_x"), 201)  # one cycle at 0.5 a.u. sampling
    centers = np.arange(FLAT_LO + 0.5 * CYCLE, FLAT_HI, CYCLE)
    per_cycle = sm[np.searchsorted(t, centers)]
    min_fall = float(-np.diff(per_cycle).max())
    lo, hi = (trapped_width(pair.state) for pair in kh_pairs)
    last = float(per_cycle[-1])
    ok = min_fall >= 0.0 and lo <= last <= hi
    detail = _verdict("7a", ok, f"per-cycle sigma_x {per_cycle[0]:.2f}..{last:.2f} on "
                                f"[{FLAT_LO:.0f},{FLAT_HI:.0f}], smallest fall {min_fall:.3f} "
                                f"(want >= 0); last cycle {last:.2f} vs band "
                                f"[sigma(phi0), sigma(phi1)] = [{lo:.2f}, {hi:.2f}]")
    assert ok, detail


def test_population_stability(lab_ground_production, grid, averaged, kh_pairs):
    # the dressed ground state ionizes by one KH photon (E0 + w > 0): its
    # cycle-averaged population decays exponentially at the golden-rule rate
    _, rec = lab_ground_production
    t = rec.column("t")
    m = (t >= FLAT_LO) & (t <= FLAT_HI)
    log_p0 = np.log(_boxcar(rec.column("P_KH_0"), 201)[m])
    slope, icpt = np.polyfit(t[m], log_p0, 1)
    resid = float(np.abs(log_p0 - (icpt + slope * t[m])).max())
    gamma = -float(slope)
    gamma_gr = _golden_rule_rate(grid, averaged, kh_pairs[0])
    rel = abs(gamma / gamma_gr - 1.0)
    p_b = rec.column("P_b")
    peak = float(p_b.max())
    falls = float(p_b[m].min()) < 0.2 * peak
    ok = resid <= 0.05 and rel <= 0.15 and falls
    detail = _verdict("7b", ok, f"P_KH_0 cycle-avg decay rate {gamma:.3e} vs golden rule "
                                f"{gamma_gr:.3e}, rel dev {rel:.3f} (tol 0.15); max log "
                                f"residual {resid:.3f} (tol 0.05); "
                                f"P_b flat-top min={p_b[m].min():.1e} of peak {peak:.2f}")
    assert ok, detail


def test_odd_continuum_normalization(grid):
    # oracle for 7b: with V0 = 0 the odd continuum is sin(kx)/sqrt(pi k), so
    # its overlap with a displaced Gaussian is a closed-form sine transform
    energy, s, a = 0.05, 2.0, 3.0
    k = np.sqrt(2.0 * energy)
    x = grid.x[_half_line(grid)]
    psi = _odd_continuum(x, np.zeros_like(x), energy)
    g = np.exp(-((x - a) ** 2) / (2 * s * s)) - np.exp(-((x + a) ** 2) / (2 * s * s))
    numeric = grid.dx * np.sum(psi * g)
    sine_transform = np.sqrt(2.0 * np.pi) * s * np.exp(-0.5 * (k * s) ** 2) * np.sin(k * a)
    exact = sine_transform / np.sqrt(np.pi * k)
    assert abs(numeric / exact - 1.0) < 1e-6


def test_slosh_and_tail_trend(lab_coh_run, long_cache, grid):
    result, rec = lab_coh_run
    t = rec.column("t")
    m = (t >= 200.0) & (t <= 2200.0)
    diff = _boxcar(rec.column("mass_left") - rec.column("mass_right"), 101)[m]
    signs = np.sign(diff[np.abs(diff) > 0.05])
    episodes = signs[np.concatenate(([True], signs[1:] != signs[:-1]))] if len(signs) else []
    pattern = "".join("+" if s > 0 else "-" for s in episodes)

    ctx = FrameTransformContext(cache=long_cache, grid=grid)
    tails = {}
    for snap in result.snapshots:
        # flux-bearing snapshots: the in-window marginal identity is loose
        w = wigner(ctx.lab_to_kh(snap), mass_tol=0.5)
        center = next(c for c in (720.0, 1520.0, 2198.0) if snap.t <= c + 1e-6)
        tails.setdefault(center, []).append(momentum_tail_fraction(w))
    means = [float(np.mean(tails[c])) for c in (720.0, 1520.0, 2198.0)]
    decreasing = means[0] > means[1] > means[2]

    ok = len(episodes) >= 3 and decreasing
    detail = _verdict("7c", ok, f"dominance episodes={len(episodes)} pattern={pattern}; "
                                f"|p|>0.25 mass fractions {means[0]:.4f} > {means[1]:.4f} "
                                f"> {means[2]:.4f}: decreasing={decreasing}")
    assert ok, detail


def test_density_shift_relation(lab_ground_production, lab_ground_run, lab_coh_run,
                                cache, long_cache, grid):
    worst, count = 0.0, 0
    for (result, _), c in ((lab_ground_production, long_cache),
                           (lab_ground_run, cache),
                           (lab_coh_run, long_cache)):
        ctx = FrameTransformContext(cache=c, grid=grid)
        for snap in result.snapshots:
            worst = max(worst, density_relation_residual(ctx, snap, ctx.lab_to_kh(snap)))
            count += 1
    ok = worst < 1e-8
    detail = _verdict("8a", ok, f"worst shifted-density residual {worst:.2e} "
                                f"over {count} snapshots (tol 1e-8)")
    assert ok, detail


def test_mean_position_quiver_removal(lab_ground_production):
    _, rec = lab_ground_production
    t = rec.column("t")
    m = (t >= FLAT_LO) & (t <= FLAT_HI)
    amp_lab = harmonic_amplitude(t[m], rec.column("mean_x_lab")[m], OMEGA_CARRIER)
    amp_kh = harmonic_amplitude(t[m], rec.column("mean_x_kh")[m], OMEGA_CARRIER)
    ratio = amp_kh / amp_lab
    ok = ratio < 0.05
    detail = _verdict("8b", ok, f"carrier amplitude lab={amp_lab:.3f} kh={amp_kh:.3f} "
                                f"ratio={ratio:.4f} (tol 0.05)")
    assert ok, detail
