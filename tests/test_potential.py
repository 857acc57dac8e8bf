import numpy as np
import pytest

from khatom.core import SpatialGrid
from khatom.potential import (
    PotentialError,
    atomic_potential,
    kh_averaged_potential,
    local_minima_positions,
)
from oracles import kh_fourier_harmonic

ALPHA0 = 10.23


@pytest.fixture(scope="module")
def grid():
    # coarse-but-adequate grid keeps this module fast
    return SpatialGrid(-300.0, 300.0, 4096)


@pytest.fixture(scope="module")
def avg(grid):
    return kh_averaged_potential(grid, ALPHA0)


def test_atomic_potential_origin_value():
    want = -24.856 * np.exp(-4.0) / 6.27
    assert atomic_potential(0.0) == pytest.approx(want, abs=1e-15)
    assert want == pytest.approx(-0.0726, abs=5e-5)


def test_atomic_potential_even_and_negative():
    x = np.linspace(0.0, 50.0, 1001)
    assert np.array_equal(atomic_potential(x), atomic_potential(-x))
    assert np.all(atomic_potential(x) < 0)


def test_atomic_potential_far_field_underflow():
    v = atomic_potential(1000.0)
    assert abs(v) < 1e-300


def test_averaged_zero_quiver_limit(grid):
    avg = kh_averaged_potential(grid, 1e-8)
    assert np.max(np.abs(avg.samples - atomic_potential(grid.x))) < 1e-10


def test_averaged_evenness(avg):
    # the grid is exactly symmetric, so the folded average is even bit for bit
    v = avg.samples
    rev = np.concatenate((v[:1], v[:0:-1]))
    assert np.array_equal(v, rev)


def _node_count(alpha0):
    # the node rule: the smallest 256 * 2**k with N >= 10*alpha0
    n = 256
    while n < 10 * alpha0:
        n *= 2
    return n


def _full_cycle_average(grid, alpha0, n=None, chunk=1024):
    # reference: the folded sum over n nodes (the rule's count by default)
    # evaluated at every distinct |x|, no row skipped, 1,024 rows per block
    n = n or _node_count(alpha0)
    half = alpha0 * np.sin(2.0 * np.pi * np.arange(n // 4 + 1) / n)
    disp = np.concatenate((-half[:0:-1], half))
    weights = np.full(len(disp), 2.0 / n)
    weights[[0, -1]] = 1.0 / n
    ax, where = np.unique(np.abs(grid.x), return_inverse=True)
    folded = np.empty(len(ax))
    for lo in range(0, len(ax), chunk):
        hi = min(lo + chunk, len(ax))
        folded[lo:hi] = (atomic_potential(ax[lo:hi, None] + disp[None, :]) * weights).sum(axis=1)
    return folded[where]


@pytest.mark.parametrize("alpha0", [ALPHA0, 0.98 * ALPHA0, 1.02 * ALPHA0])
def test_averaged_bits_match_full_evaluation(alpha0):
    # skipping the rows that underflow leaves V0 bit for bit, signed zeros
    # included, on the default grid
    grid = SpatialGrid()
    want = _full_cycle_average(grid, alpha0)
    got = kh_averaged_potential(grid, alpha0).samples
    assert np.count_nonzero(want == 0.0) > grid.n_points // 3
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_averaged_node_count_rule(grid):
    # V0 is the sum over the rule's nodes, bit for bit: 256 up to alpha0 = 25.6
    for alpha0, n in ((1e-8, 256), (25.6, 256), (30.0, 512), (60.0, 1024), (120.0, 2048),
                      (300.0, 4096)):
        assert _node_count(alpha0) == n
        got = kh_averaged_potential(grid, alpha0).samples
        assert np.array_equal(got, _full_cycle_average(grid, alpha0, n)), alpha0


def test_averaged_matches_plain_node_mean(grid, avg):
    n = _node_count(ALPHA0)  # the nodes avg was built with
    disp = ALPHA0 * np.sin(2.0 * np.pi * np.arange(n) / n)
    plain = np.array([atomic_potential(x + disp).mean() for x in grid.x[::7]])
    assert np.max(np.abs(avg.samples[::7] - plain)) < 1e-15


def test_averaged_not_deeper_than_bare_well(avg, grid):
    assert avg.samples.min() >= atomic_potential(grid.x).min()


def test_averaged_barrier_top(avg, grid):
    i0 = np.argmin(np.abs(grid.x))
    assert grid.x[i0] == 0.0
    assert avg.samples[i0] == pytest.approx(-0.0115, abs=5e-4)


def test_averaged_two_wells(avg):
    xm = local_minima_positions(avg)
    assert len(xm) == 2
    assert xm[0] == pytest.approx(-xm[1], abs=1e-12)
    # wells sit inside the quiver range, displaced outward from the origin
    assert 5.0 < xm[1] < ALPHA0


def test_averaged_quadrature_converged(grid):
    # the rule's node count is at machine accuracy: 256 fixed nodes were
    # off by 8e-10 at alpha0 = 60 and 3e-6 at 120
    for alpha0 in (ALPHA0, 60.0, 120.0):
        got = kh_averaged_potential(grid, alpha0).samples
        fine = _full_cycle_average(grid, alpha0, 4 * _node_count(alpha0))
        assert np.max(np.abs(got - fine)) < 1e-15, alpha0


def test_averaged_rejects_alpha0_out_of_range(grid):
    # beyond the grid's half-width (300 here) the wells leave the box; the
    # bound also keeps the node count finite
    for alpha0 in (-1.0, 0.0, np.nan, np.inf, 300.5, 1e7):
        with pytest.raises(PotentialError, match="must lie in"):
            kh_averaged_potential(grid, alpha0)
    kh_averaged_potential(SpatialGrid(-300.0, 300.0, 256), 300.0)


def test_harmonic_zero_matches_average(grid, avg):
    v0 = kh_fourier_harmonic(0, grid, ALPHA0)
    assert np.max(np.abs(v0 - avg.samples)) < 1e-12
    assert np.max(np.abs(v0.imag)) < 1e-14


def test_harmonic_parity_in_n(grid):
    for n in (1, 2, 3, 6):
        vn = kh_fourier_harmonic(n, grid, ALPHA0)
        vmn = kh_fourier_harmonic(-n, grid, ALPHA0)
        assert np.max(np.abs(vmn - np.conj(vn))) < 1e-14
        if n % 2 == 0:
            assert np.max(np.abs(vn.imag)) < 1e-14
        else:
            assert np.max(np.abs(vn.real)) < 1e-14


def test_harmonic_decay(grid):
    v0 = np.max(np.abs(kh_fourier_harmonic(0, grid, ALPHA0)))
    v2 = np.max(np.abs(kh_fourier_harmonic(2, grid, ALPHA0)))
    v10 = np.max(np.abs(kh_fourier_harmonic(10, grid, ALPHA0)))
    assert v10 < v2 < v0


def test_harmonic_rejects_out_of_range(grid):
    with pytest.raises(PotentialError):
        kh_fourier_harmonic(65, grid, ALPHA0)
