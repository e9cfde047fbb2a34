"""Gaussian secrecy region tests, including the separate-coding comparison."""

import numpy as np
import pytest

from secembed import gauss
from secembed.gauss import ParallelGaussChannel, ScalarGaussChannel


def test_cs_scalar_zero_cases():
    assert gauss.cs_scalar(2.0, 1.0, 1.0) == 0.0
    assert gauss.cs_scalar(1.0, 0.5, 0.9) == 0.0  # clamp when b >= a
    assert gauss.cs_scalar(0.0, 1.0, 0.1) == 0.0


def test_cs_scalar_reference_value():
    # 0.5*log2(2/1.1), checked against 50-digit arithmetic with mpmath
    import mpmath

    mpmath.mp.dps = 50
    want = float(0.5 * (mpmath.log(2, 2) - mpmath.log(mpmath.mpf(11) / 10, 2)))
    got = gauss.cs_scalar(1.0, 1.0, 0.1)
    assert got == pytest.approx(want, abs=1e-14)
    assert got == pytest.approx(0.4312482381250325, abs=1e-12)


def test_cs_scalar_monotone():
    rng = np.random.default_rng(4)
    for _ in range(300):
        p, a, b = rng.uniform(0, 4, size=3)
        dp, da = rng.uniform(0, 1, size=2)
        assert gauss.cs_scalar(p + dp, a, b) >= gauss.cs_scalar(p, a, b) - 1e-12
        assert gauss.cs_scalar(p, a + da, b) >= gauss.cs_scalar(p, a, b) - 1e-12
        assert gauss.cs_scalar(p, a, b + da) <= gauss.cs_scalar(p, a, b) + 1e-12


def test_channel_validation():
    with pytest.raises(ValueError):
        ScalarGaussChannel(power=1.0, a=1.0, b1=0.1, b2=0.5)
    with pytest.raises(ValueError):
        ScalarGaussChannel(power=-1.0, a=1.0, b1=0.5, b2=0.1)
    with pytest.raises(ValueError):
        ParallelGaussChannel(a=(1,), b1=(0.5,), b2=(0.1,))  # no power mode
    with pytest.raises(ValueError):
        ParallelGaussChannel(a=(1,), b1=(0.5,), b2=(0.1,), powers=(1,), total_power=1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_power_and_gains_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        gauss.cs_scalar(bad, 1.0, 0.1)
    with pytest.raises(ValueError, match="finite"):
        gauss.cs_scalar(1.0, 1.0, bad)
    with pytest.raises(ValueError, match="finite"):
        ScalarGaussChannel(power=bad, a=1.0, b1=0.5, b2=0.1)
    with pytest.raises(ValueError, match="finite"):
        ScalarGaussChannel(power=1.0, a=bad, b1=0.5, b2=0.1)
    with pytest.raises(ValueError, match="finite"):
        ParallelGaussChannel(a=(1, bad), b1=(0.5, 0.5), b2=(0.1, 0.1), total_power=1.0)
    with pytest.raises(ValueError, match="finite"):
        ParallelGaussChannel(a=(1, 1), b1=(0.5, 0.5), b2=(0.1, 0.1), powers=(0.5, bad))
    with pytest.raises(ValueError, match="finite"):
        ParallelGaussChannel(a=(1, 1), b1=(0.5, 0.5), b2=(0.1, 0.1), total_power=bad)


def test_region_scalar_degenerate_orders():
    # both eavesdroppers at least as strong as the legitimate receiver
    res = gauss.region_scalar(ScalarGaussChannel(1.0, 0.5, 1.0, 0.8))
    assert res.cap_high == res.cap_low == 0.0
    assert res.region.contains((0.0, 0.0))
    assert not res.region.contains((0.01, 0.0))
    # strong above, weak below: only the low-security rate survives
    res = gauss.region_scalar(ScalarGaussChannel(1.0, 1.0, 1.5, 0.1))
    assert res.cap_high == 0.0 and res.cap_low > 0
    assert res.corner[0] == 0.0
    assert res.region.contains((0.0, res.cap_low))
    assert not res.region.contains((1e-6, res.cap_low))


def test_region_scalar_corner_inside_region():
    res = gauss.region_scalar(ScalarGaussChannel(1.0, 1.0, 0.5, 0.1))
    assert res.corner == (pytest.approx(0.207518749639422), pytest.approx(0.2237294884856105))
    assert res.region.contains(res.corner, tol=1e-12)
    assert not res.region.contains((res.corner[0] + 1e-9, res.corner[1]))


def test_naive_region_endpoints_and_violation():
    ch = ScalarGaussChannel(1.0, 1.0, 0.5, 0.1)
    res = gauss.region_scalar(ch)
    naive = gauss.naive_region(ch)
    assert not naive.degenerate
    assert naive.region.contains((naive.cap_high, 0.0), tol=1e-12)
    assert naive.region.contains((0.0, naive.cap_low), tol=1e-12)
    # the joint-coding corner strictly violates the time-sharing hull
    violation = naive.hull_violation(res.corner)
    assert violation > 1e-9
    # algebraic form: c1/c1 + (c2-c1)/c2 - 1 = (c2-c1)/c2 > 0 iff c2 > c1
    want = (res.cap_low - res.cap_high) / res.cap_low
    assert violation == pytest.approx(want, abs=1e-12)


def test_naive_region_coincides_when_eavesdroppers_match():
    ch = ScalarGaussChannel(1.0, 1.0, 0.3, 0.3)
    res = gauss.region_scalar(ch)
    naive = gauss.naive_region(ch)
    grid = np.linspace(0, res.cap_low, 40)
    for r1 in grid:
        full = res.region.max_r2_at(float(r1))
        hull = naive.region.max_r2_at(float(r1))
        assert full == pytest.approx(hull, abs=1e-12)


def test_naive_region_degenerate():
    naive = gauss.naive_region(ScalarGaussChannel(1.0, 1.0, 1.5, 0.1))
    assert naive.degenerate
    assert naive.region.contains((0.0, naive.cap_low))
    assert not naive.region.contains((0.01, 0.0))
    with pytest.raises(ValueError):
        naive.hull_violation((0.0, 0.0))


def test_parallel_individual_single_subchannel_reduces_to_scalar():
    ch = ParallelGaussChannel(a=(1.0,), b1=(0.5,), b2=(0.1,), powers=(1.0,))
    par = gauss.region_parallel_individual(ch)
    sca = gauss.region_scalar(ScalarGaussChannel(1.0, 1.0, 0.5, 0.1))
    assert par.cap_high_sum == pytest.approx(sca.cap_high, abs=1e-15)
    assert par.cap_low_sum == pytest.approx(sca.cap_low, abs=1e-15)
    assert par.region == sca.region


def test_parallel_individual_additivity_and_corner():
    ch = ParallelGaussChannel(a=(1.0, 1.0), b1=(0.8, 0.25), b2=(0.1, 0.1),
                              powers=(0.5, 0.5))
    par = gauss.region_parallel_individual(ch)
    want_high = gauss.cs_scalar(0.5, 1.0, 0.8) + gauss.cs_scalar(0.5, 1.0, 0.25)
    want_low = 2 * gauss.cs_scalar(0.5, 1.0, 0.1)
    assert par.cap_high_sum == pytest.approx(want_high, abs=1e-15)
    assert par.cap_low_sum == pytest.approx(want_low, abs=1e-15)
    # every fixed allocation is perfectly embeddable: corner lies in the region
    assert par.region.contains(par.corner, tol=1e-12)


def test_parallel_individual_zero_high_when_b1_matches_a():
    ch = ParallelGaussChannel(a=(1.0, 2.0), b1=(1.0, 2.0), b2=(0.1, 0.2),
                              powers=(1.0, 1.0))
    par = gauss.region_parallel_individual(ch)
    assert par.cap_high_sum == 0.0
    assert par.cap_low_sum > 0.0


def test_parallel_total_single_subchannel_matches_scalar_boundary():
    ch = ParallelGaussChannel(a=(1.0,), b1=(0.5,), b2=(0.1,), total_power=1.0)
    bnd = gauss.region_parallel_total(ch)
    sca = gauss.region_scalar(ScalarGaussChannel(1.0, 1.0, 0.5, 0.1))
    assert bnd.max_r1 == pytest.approx(sca.cap_high, abs=1e-12)
    assert bnd.max_sum == pytest.approx(sca.cap_low, abs=1e-12)
    for r1 in np.linspace(0, sca.cap_high, 23):
        assert bnd.max_r2_at(float(r1)) == pytest.approx(
            sca.region.max_r2_at(float(r1)), abs=1e-9)


def test_parallel_total_symmetric_subchannels_split_evenly():
    ch = ParallelGaussChannel(a=(1.0, 1.0), b1=(0.5, 0.5), b2=(0.1, 0.1),
                              total_power=1.0)
    bnd = gauss.region_parallel_total(ch)
    assert bnd.alloc_max_sum[0] == pytest.approx(0.5, abs=1e-3)
    assert bnd.alloc_max_r1[0] == pytest.approx(0.5, abs=1e-3)
    assert bnd.embedding_gap() == pytest.approx(0.0, abs=1e-9)


def test_parallel_total_two_subchannel_reference():
    ch = ParallelGaussChannel(a=(1.0, 1.0), b1=(0.8, 0.25), b2=(0.1, 0.1),
                              total_power=1.0)
    bnd = gauss.region_parallel_total(ch)
    # the weak-eavesdropper objective is symmetric: even split
    assert bnd.alloc_max_sum[0] == pytest.approx(0.5, abs=2e-3)
    # the strong-eavesdropper objective prefers the better second subchannel
    assert bnd.alloc_max_r1[1] > 0.95
    assert abs(bnd.alloc_max_r1[0] - bnd.alloc_max_sum[0]) > 0.1
    # grid-search oracle at fixed resolution for max_r1
    grid = np.linspace(0.0, 1.0, 1001)
    vals = [gauss.cs_scalar(p, 1.0, 0.8) + gauss.cs_scalar(1 - p, 1.0, 0.25) for p in grid]
    assert bnd.max_r1 == pytest.approx(max(vals), abs=1e-6)
    # not perfectly embeddable: the would-be corner sits above the boundary
    assert bnd.embedding_gap() > 1e-4
    assert not bnd.contains((bnd.max_r1, bnd.max_sum - bnd.max_r1), tol=1e-6)


def test_parallel_total_region_nests_fixed_allocations():
    ch = ParallelGaussChannel(a=(1.0, 1.0), b1=(0.8, 0.25), b2=(0.1, 0.1),
                              total_power=1.0)
    bnd = gauss.region_parallel_total(ch)
    rng = np.random.default_rng(8)
    for _ in range(25):
        split = float(rng.uniform(0, 1))
        fixed = gauss.region_parallel_individual(
            ParallelGaussChannel(a=ch.a, b1=ch.b1, b2=ch.b2, powers=(split, 1 - split)))
        assert bnd.contains(fixed.corner, tol=1e-6)
        assert bnd.contains((fixed.cap_high_sum, 0.0), tol=1e-6)


def test_boundary_points_monotone_and_feasible():
    ch = ParallelGaussChannel(a=(1.0, 1.0), b1=(0.8, 0.25), b2=(0.1, 0.1),
                              total_power=1.0)
    bnd = gauss.region_parallel_total(ch)
    pts = bnd.points
    assert (np.diff(pts[:, 0]) > 0).all()
    assert (pts[:, 1] >= -1e-12).all()
    # sum rate along the boundary never exceeds the pooled maximum
    assert (pts.sum(axis=1) <= bnd.max_sum + 1e-9).all()


@pytest.mark.parametrize("b1, b2", [(0.5, 0.1), (1.5, 0.1), (1.0, 1.0), (0.3, 0.3)])
def test_boundary_points_one_vertex_frontier_is_the_corner_region(b1, b2):
    res = gauss.region_scalar(ScalarGaussChannel(1.0, 1.0, b1, b2))
    pts = gauss.boundary_points([(res.cap_high, res.cap_low)], res.cap_high, res.cap_low, 57)
    assert pts.shape == (57, 2)
    assert pts[0, 0] == 0.0 and pts[-1, 0] == res.cap_high
    for r1, r2 in pts:
        assert r2 == max(res.cap_low - r1, 0.0)
        assert r2 == pytest.approx(res.region.max_r2_at(r1), abs=1e-15)
        assert res.region.contains((r1, r2))


def test_boundary_points_r1_extent_is_explicit():
    # a frontier vertex just past max_r1 must not stretch the R1 samples
    frontier = np.array([[0.2, 1.0], [0.5, 0.9], [0.8 + 4e-16, 0.85]])
    pts = gauss.boundary_points(frontier, 0.8, 1.1, 7)
    assert np.array_equal(pts[:, 0], np.linspace(0.0, 0.8, 7))
    sums = pts.sum(axis=1)
    assert (sums[pts[:, 0] <= 0.2] == 1.1).all()  # max_sum before the first vertex
    assert np.allclose(sums[pts[:, 0] > 0.2], np.interp(pts[pts[:, 0] > 0.2, 0], *frontier.T),
                       rtol=0, atol=1e-15)


def test_total_power_points_sample_its_frontier():
    ch = ParallelGaussChannel(a=(1.0, 1.2, 0.9), b1=(0.5, 0.3, 0.4), b2=(0.1, 0.1, 0.1),
                              total_power=1.0)
    bnd = gauss.region_parallel_total(ch)
    want = gauss.boundary_points(bnd.frontier, bnd.max_r1, bnd.max_sum, gauss.N_BOUNDARY)
    assert np.array_equal(bnd.points, want)
    for r1, r2 in bnd.points:
        assert bnd.max_r2_at(r1) == pytest.approx(r2, abs=1e-12)
