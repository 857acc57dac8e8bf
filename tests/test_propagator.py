import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import khatom
from khatom import propagator
from khatom.core import FRAME_KH, FRAME_LAB, SpatialGrid, TimeGrid, WaveFunction, inner_product
from khatom.laser import PulseParams, build_field_cache
from khatom.propagator import (
    MODE_KH,
    MODE_LAB,
    PropagationResult,
    PropagatorError,
    SplitOperator,
    _use_partner,
    build_absorber_mask,
    propagate,
    read_snapshot,
    write_snapshot,
)


class NormRecorder:
    def __init__(self):
        self.rows = []

    def record(self, t, wf):
        self.rows.append((t, wf.norm()))


def kh_wf(grid, psi, t=0.0):
    return WaveFunction(grid, psi, t, FRAME_KH)


def final_state(mode, initial, t0, dt, n_steps, v, cache=None, use_absorber=False):
    """The amplitudes propagate leaves after n_steps steps of dt from t0."""
    op = SplitOperator(initial.grid, v, TimeGrid(t0, dt, n_steps), mode, cache, use_absorber)
    return propagate(op, initial).final.psi


def by_executor(monkeypatch, n_points, run):
    """run() stepped by the partner, where this host has one at n_points,
    and inline; returns {executor: what run returned}."""
    out = {}
    if _use_partner(n_points):
        out["partner"] = run()
    with monkeypatch.context() as patch:
        patch.setattr(propagator, "PARTNER_MIN_POINTS", sys.maxsize)
        out["inline"] = run()
    return out


def test_eigenstate_single_step_stationary(grid, kh_pairs, averaged):
    phi0 = kh_pairs[0].state
    out = kh_wf(grid, final_state(MODE_KH, phi0, 0.0, 0.05, 1, averaged.samples), 0.05)
    assert abs(inner_product(phi0, out)) ** 2 == pytest.approx(1.0, abs=1e-8)


def test_propagate_leaves_initial_unchanged(grid, v_atom, averaged, long_cache, kh_pairs,
                                            monkeypatch):
    psi = kh_pairs[0].state.psi.copy()
    before = psi.copy()
    t_peak = float(long_cache.times[np.argmax(np.abs(long_cache.eps))])

    def run():
        for mode, frame, v, cache in ((MODE_KH, FRAME_KH, averaged.samples, None),
                                      (MODE_LAB, FRAME_LAB, v_atom, long_cache)):
            initial = WaveFunction(grid, psi, t_peak, frame)
            assert initial.psi is psi
            final_state(mode, initial, t_peak, 0.1, 3, v, cache, use_absorber=True)
            assert np.array_equal(psi, before)

    by_executor(monkeypatch, grid.n_points, run)


def _reference_lab_step(grid, v, dt, cache, mask, psi, t):
    """The Strang lab step written out with full-grid exponentials; each
    potential half-phase takes the mask for dt / 2, the mask being the
    absorption of a 0.05 a.u. step."""
    eps_mid = cache.eps_at(t + 0.5 * dt)
    expv = np.exp(-0.5j * dt * v) * np.exp(0.5j * dt * eps_mid * grid.x) * mask ** (0.5 * dt / 0.05)
    kinetic = np.exp(-0.5j * dt * grid.p**2)
    return expv * np.fft.ifft(kinetic * np.fft.fft(expv * psi))


def test_lab_steps_match_reference_step(grid, v_atom, long_cache, ground_pair, monkeypatch):
    # both executors: the partner, where this host has one, and inline
    dt = 0.1
    mask = build_absorber_mask(grid)
    t0 = 600.0  # flat top, field on at full strength
    # the ground state and a packet on its way through the absorber, where
    # the mask's place in the step shows
    initial = WaveFunction(grid, ground_pair.state.psi
                           + 0.1 * np.exp(-((grid.x - 700.0) ** 2) / 200.0 + 1j * grid.x), t0)
    ref = initial.psi
    for k in range(200):
        ref = _reference_lab_step(grid, v_atom, dt, long_cache, mask, ref, t0 + k * dt)
    finals = by_executor(monkeypatch, grid.n_points, lambda: final_state(
        MODE_LAB, initial, t0, dt, 200, v_atom, long_cache, use_absorber=True))
    for executor, psi in finals.items():
        assert np.max(np.abs(psi - ref)) < 1e-13, executor


def test_field_free_ground_state_survival(grid, v_atom, ground_pair):
    zero_pulse = PulseParams(intensity=0.0)
    cache = build_field_cache(zero_pulse, dt_field=0.025)
    psi = final_state(MODE_LAB, ground_pair.state, 0.0, 0.05, 1000, v_atom, cache)
    wf = WaveFunction(grid, psi, 50.0)
    assert abs(inner_product(ground_pair.state, wf)) ** 2 == pytest.approx(1.0, abs=1e-6)


def test_free_gaussian_dispersion():
    g = SpatialGrid(-200.0, 200.0, 2048)
    sigma0 = 5.0
    psi = np.exp(-g.x**2 / (4 * sigma0**2)).astype(complex)
    wf = kh_wf(g, psi).normalized()
    psi = final_state(MODE_KH, wf, 0.0, 0.05, 1000, np.zeros(g.n_points))
    den = np.abs(psi) ** 2
    den /= g.dx * den.sum()
    var = g.dx * np.sum(g.x**2 * den)
    want = sigma0**2 + 50.0**2 / (4 * sigma0**2)
    assert var == pytest.approx(want, rel=1e-4)


def test_unitarity_without_absorber(grid, averaged, psi_coh):
    psi = final_state(MODE_KH, psi_coh, 0.0, 0.05, 1000, averaged.samples)
    nrm = grid.dx * np.sum(np.abs(psi) ** 2)
    assert abs(nrm - 1.0) < 1e-11


def test_absorber_mask_shape(grid):
    mask = build_absorber_mask(grid)
    inside = np.abs(grid.x) <= 600.0
    assert np.all(mask[inside] == 1.0)
    assert np.all(mask > 0.0)
    assert np.all(mask <= 1.0)
    # monotone decay along the outgoing direction
    right = mask[grid.x > 600.0]
    assert np.all(np.diff(right) <= 1e-15)


def test_absorber_mask_per_side():
    # each side rolls off over its own width, so the short side of an
    # asymmetric grid also falls toward 0 at its edge (it was 0.967 at
    # x = -1000 when both sides took the right side's width)
    g = SpatialGrid(-1000.0, 1500.0, 4096)
    mask = build_absorber_mask(g)
    left, right = g.x < -600.0, g.x > 600.0
    np.testing.assert_allclose(
        mask[left], np.cos(0.5 * np.pi * (-g.x[left] - 600.0) / 400.0) ** 0.125, rtol=1e-14)
    np.testing.assert_allclose(
        mask[right], np.cos(0.5 * np.pi * (g.x[right] - 600.0) / 900.0) ** 0.125, rtol=1e-14)
    assert mask[0] < 0.01 and mask[-1] < 0.5
    assert np.all(mask[~(left | right)] == 1.0)
    # on a symmetric grid the two sides mirror each other
    sym = build_absorber_mask(SpatialGrid(-1000.0, 1000.0, 4096))
    assert np.array_equal(sym[1:], sym[:0:-1])


def test_absorber_removes_outgoing_packet():
    g = SpatialGrid(-1500.0, 1500.0, 8192)
    # fast packet starting near the absorber edge, heading right
    psi = np.exp(-((g.x - 500.0) ** 2) / 200.0 + 2.0j * g.x)
    wf = kh_wf(g, psi).normalized()
    psi = final_state(MODE_KH, wf, 0.0, 0.05, 4000, np.zeros(g.n_points), use_absorber=True)
    assert g.dx * np.sum(np.abs(psi) ** 2) < 0.05


def test_absorbed_norm_does_not_depend_on_dt():
    # the packet of test_absorber_removes_outgoing_packet, halfway into the
    # absorber at t = 100.  With the mask once at the end of each step the
    # norm was 0.092, 0.288 and 0.528 at dt 0.025, 0.05 and 0.1: the
    # absorption per a.u. scaled with 1/dt.  With the mask in both
    # half-phases, measured: 0.2883662, dt 0.05 against 0.1 within 5.3e-7,
    # and 4.0 times the dt 0.025 against 0.05 difference (second order)
    g = SpatialGrid(-1500.0, 1500.0, 4096)
    wf = kh_wf(g, np.exp(-((g.x - 500.0) ** 2) / 200.0 + 2.0j * g.x)).normalized()
    norm = {}
    for dt in (0.025, 0.05, 0.1):
        psi = final_state(MODE_KH, wf, 0.0, dt, round(100.0 / dt), np.zeros(g.n_points),
                          use_absorber=True)
        norm[dt] = g.dx * np.sum(np.abs(psi) ** 2)
    assert norm[0.05] == pytest.approx(0.2883662, abs=1e-6)
    coarse, fine = abs(norm[0.1] - norm[0.05]), abs(norm[0.05] - norm[0.025])
    assert coarse < 2e-6
    assert 3.5 < coarse / fine < 4.5


@pytest.mark.parametrize("p0", [1.0, 2.0, 3.0])
def test_absorber_reflection(p0):
    # a packet sent into the cos^(1/8) mask (Krause, Schafer & Kulander,
    # PRA 45, 4998 (1992)); once it has left |x| < 600, what is found there
    # came back from the absorber.  Measured 9.8e-13, 4.1e-15 and 2.2e-14
    # at p = 1, 2, 3.
    g = SpatialGrid(n_points=4096)
    inside = np.abs(g.x) < 600.0
    psi = np.exp(-((g.x - 450.0) ** 2) / 400.0 + 1j * p0 * g.x)

    class Returned:
        def __init__(self):
            self.norms = []

        def record(self, t, wf):
            if p0 * t >= 300.0:
                self.norms.append(g.dx * np.sum(np.abs(wf.psi[inside]) ** 2))

    rec = Returned()
    time = TimeGrid(0.0, 0.05, round(450.0 / p0 / 0.05))
    op = SplitOperator(g, np.zeros(g.n_points), time, MODE_KH, absorber=True)
    propagate(op, kh_wf(g, psi).normalized(), observer=rec, cadence=100)
    assert len(rec.norms) > 5 and max(rec.norms) < 1e-11


_PARTNER_SCRIPT = """
import os
import numpy as np
from khatom.core import SpatialGrid, TimeGrid, WaveFunction
from khatom.propagator import MODE_KH, SplitOperator, propagate

real_fork = os.fork
def fork():
    pid = real_fork()
    if pid:
        print(pid, flush=True)
    return pid
os.fork = fork

class Started:
    def record(self, t, wf):
        if t == 1.0:
            print("stepping", flush=True)

g = SpatialGrid()
propagate(SplitOperator(g, np.zeros(g.n_points), TimeGrid(0.0, 0.05, 10**6), MODE_KH),
          WaveFunction(g, np.exp(-g.x**2 / 8.0) + 0j, 0.0, "kh"), observer=Started())
"""


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not _use_partner(16384), reason="no propagation partner on this host")
def test_partner_exits_with_its_parent():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(khatom.__file__)))
    proc = subprocess.Popen([sys.executable, "-c", _PARTNER_SCRIPT], env=env,
                            stdout=subprocess.PIPE)
    try:
        partner = int(proc.stdout.readline())
        assert proc.stdout.readline() == b"stepping\n"
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 2.0
        while _running(partner) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _running(partner)
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()


@pytest.mark.skipif(not _use_partner(16384), reason="no propagation partner on this host")
def test_killed_partner_ends_the_run(monkeypatch):
    # a partner that dies mid-run leaves no outcome in its pipe: the
    # propagating process stops waiting at the next barrier, reaps it and
    # raises, with no child left behind
    partners, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            partners.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)

    class Killer:
        def record(self, t, wf):
            if t == 1.0:
                os.kill(partners[0], signal.SIGKILL)

    g = SpatialGrid()
    op = SplitOperator(g, np.zeros(g.n_points), TimeGrid(0.0, 0.05, 200), MODE_KH)
    with pytest.raises(PropagatorError, match="ended with wait status 9 and no result"):
        propagate(op, kh_wf(g, np.exp(-g.x**2 / 8.0) + 0j), observer=Killer())
    assert len(partners) == 1
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def test_non_finite_half_in_the_partner_alone(monkeypatch):
    # the odd half turns NaN in step 3 while the even half stays finite:
    # stepped by the partner, only its exit status tells this process, which
    # names the step as one process does and leaves no child behind
    real = SplitOperator.backward
    g = SpatialGrid()
    op = SplitOperator(g, np.zeros(g.n_points), TimeGrid(0.0, 0.05, 20), MODE_KH)

    def run():
        calls = []

        def backward(self, half, spectra, expv, x):
            if half == 1:
                calls.append(None)
                if len(calls) == 3:
                    expv = np.full_like(expv, np.nan)
            return real(self, half, spectra, expv, x)

        with monkeypatch.context() as patch:
            patch.setattr(SplitOperator, "backward", backward)
            with pytest.raises(PropagatorError) as err:
                propagate(op, kh_wf(g, np.exp(-g.x**2 / 8.0) + 0j))
        with pytest.raises(ChildProcessError):  # no child left, running or unreaped
            os.waitpid(-1, os.WNOHANG)
        return str(err.value)

    messages = by_executor(monkeypatch, g.n_points, run)
    assert set(messages.values()) == {"non-finite amplitudes at step 3"}


class _Copies:
    def __init__(self):
        self.states = []

    def record(self, t, wf):
        self.states.append(wf.psi.copy())


@pytest.mark.skipif(not _use_partner(8192), reason="no propagation partner on this host")
def test_partner_matches_inline_under_load(monkeypatch):
    # two busy processes more than there are cores: the barrier must not
    # lose a step when either side is preempted, so every record, the
    # snapshots and the final state equal the inline run bit for bit
    g = SpatialGrid(-750.0, 750.0, 8192)
    psi = np.exp(-((g.x - 5.0) ** 2) / 8.0 + 0.5j * g.x)

    def run():
        rec = _Copies()
        op = SplitOperator(g, 0.01 * g.x**2, TimeGrid(0.0, 0.05, 800), MODE_KH, absorber=True)
        result = propagate(op, kh_wf(g, psi), (247, 600), rec, 7)
        return rec.states + [s.psi for s in result.snapshots] + [result.final.psi]

    burners = [subprocess.Popen([sys.executable, "-c", "while True: pass"])
               for _ in range(len(os.sched_getaffinity(0)))]
    try:
        loaded = run()
    finally:
        for proc in burners:
            proc.kill()
            proc.wait(timeout=10)
    monkeypatch.setattr(propagator, "PARTNER_MIN_POINTS", sys.maxsize)
    inline = run()
    assert len(loaded) == len(inline) == 800 // 7 + 2 + 2 + 1
    assert all(np.array_equal(a, b) for a, b in zip(loaded, inline))


def test_absorber_config_validation():
    # the mask's inner region |x| <= 600 reaches past this grid's edge
    g = SpatialGrid(-100.0, 100.0, 256)
    with pytest.raises(PropagatorError, match="grid edge"):
        build_absorber_mask(g)


def test_propagate_validation(grid, averaged, psi_coh, ground_pair):
    # SplitOperator owns the mode rules; propagate checks that the state
    # fits the operator and that each snapshot step lies on the time grid
    tg = TimeGrid(0.0, 0.05, 100)
    with pytest.raises(PropagatorError, match="mode"):
        SplitOperator(grid, averaged.samples, tg, "sideways")
    with pytest.raises(PropagatorError, match="cache"):
        SplitOperator(grid, averaged.samples, tg, MODE_LAB)
    with pytest.raises(PropagatorError, match="potential samples"):
        SplitOperator(grid, averaged.samples[:-1], tg, MODE_KH)
    op = SplitOperator(grid, averaged.samples, tg, MODE_KH)
    with pytest.raises(PropagatorError, match="needs a 'kh' frame initial state, got 'lab'"):
        propagate(op, ground_pair.state)
    small = SpatialGrid(grid.x_min, grid.x_max, grid.n_points // 2)
    with pytest.raises(PropagatorError, match="another grid"):
        propagate(op, WaveFunction(small, np.ones(small.n_points), 0.0, FRAME_KH))
    for step in (-1, 101):
        with pytest.raises(PropagatorError, match=rf"snapshot step {step} outside \[0, 100\]"):
            propagate(op, psi_coh, snapshot_steps=(0, step))


def test_propagate_snapshots_and_observer(grid, averaged, psi_coh):
    tg = TimeGrid(0.0, 0.05, 200)
    rec = NormRecorder()
    op = SplitOperator(grid, averaged.samples, tg, MODE_KH, absorber=True)
    res = propagate(op, psi_coh, (200, 0, 60, 60), rec, cadence=20)
    assert isinstance(res, PropagationResult)
    # one snapshot per distinct step, in step order, stamped time_at(k)
    assert [s.t for s in res.snapshots] == [tg.time_at(k) for k in (0, 60, 200)]
    assert np.array_equal(res.snapshots[0].psi, psi_coh.psi)
    assert res.final.t == pytest.approx(10.0)
    # observer: step 0, every 20 steps, final step (200 is on cadence)
    assert len(rec.rows) == 11
    assert res.absorbed_norm == pytest.approx(0.0, abs=1e-12)
    assert res.final.frame == FRAME_KH


def test_propagate_aborts_on_overflow(grid, psi_coh):
    tg = TimeGrid(0.0, 0.05, 10)
    with pytest.warns(RuntimeWarning):  # exp(-0.5j * dt * inf)
        op = SplitOperator(grid, np.full(grid.n_points, np.inf), tg, MODE_KH)
    with pytest.raises(PropagatorError, match="step 1"):
        propagate(op, psi_coh)


def test_kh_energy_conservation(grid, averaged, psi_coh):
    from khatom.eigen import rayleigh_energy

    e0 = rayleigh_energy(averaged.samples, psi_coh)
    psi = final_state(MODE_KH, psi_coh, 0.0, 0.05, 2000, averaged.samples)
    e1 = rayleigh_energy(averaged.samples, WaveFunction(grid, psi, 100.0, FRAME_KH))
    assert abs((e1 - e0) / e0) < 1e-8


def test_snapshot_round_trip(tmp_path, psi_coh):
    path = tmp_path / "state.khps"
    write_snapshot(path, psi_coh)
    back = read_snapshot(path)
    assert back.grid == psi_coh.grid
    assert back.t == psi_coh.t
    assert back.frame == psi_coh.frame
    assert np.array_equal(back.psi, psi_coh.psi)


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bad.khps"
    path.write_bytes(b"NOTASNAP 4 0 1 0 lab\n" + b"\x00" * 64)
    with pytest.raises(PropagatorError, match="not a"):
        read_snapshot(path)
    path2 = tmp_path / "short.khps"
    path2.write_bytes(b"KHPS1 256 -1.0 1.0 0.0 lab\n" + b"\x00" * 64)
    with pytest.raises(PropagatorError, match="truncated"):
        read_snapshot(path2)
