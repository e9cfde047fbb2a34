"""Gaussian secrecy region tests, including the separate-coding comparison."""

import json

import numpy as np
import pytest

from secembed import gauss, regions
from secembed.cli import main
from secembed.gauss import ParallelGaussChannel, ScalarGaussChannel


def corner_region(report, high="cap_high", low="cap_low") -> dict:
    """{R1 <= report[high], R1 + R2 <= report[low]}, the region a fixed-power report names."""
    return regions.corner_region(report[high], report[low])


def pooled_contains(frontier, report, point, tol=1e-9) -> bool:
    """Whether ``point`` lies within ``tol`` of the pooled-power region of ``report``.

    R1 must lie in [0, max_r1] and R2 at most the sum rate at R1, read from
    ``frontier`` as ``boundary_points`` reads it, less R1.
    """
    r1, r2 = float(point[0]), float(point[1])
    if r1 < -tol or r2 < -tol or r1 > report["max_r1"] + tol:
        return False
    r1 = min(max(r1, 0.0), report["max_r1"])
    r2_max = max(float(gauss._sum_rate_at(frontier, report["max_sum"], r1)) - r1, 0.0)
    return r2 <= r2_max + tol


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
        ParallelGaussChannel(a=(), b1=(), b2=(), total_power=1.0)
    with pytest.raises(ValueError):
        gauss.region_parallel_individual([])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 "1", "1.5", True, None])
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
        gauss.region_parallel_individual([ScalarGaussChannel(0.5, 1, 0.5, 0.1),
                                          ScalarGaussChannel(bad, 1, 0.5, 0.1)])
    with pytest.raises(ValueError, match="finite"):
        ParallelGaussChannel(a=(1, 1), b1=(0.5, 0.5), b2=(0.1, 0.1), total_power=bad)


def test_numbers_keep_their_values():
    ch = ScalarGaussChannel(1, 2, np.float32(0.5), 0.1)
    assert (type(ch.power), type(ch.a), type(ch.b1)) == (float, float, float)
    pooled = ParallelGaussChannel([1, np.float32(0.3)], np.array([0.5, 0.1]), (0.1, 0.1), 2)
    assert pooled.a == (1.0, float(np.float32(0.3))) and pooled.b1 == (0.5, 0.1)
    assert all(type(v) is float for v in pooled.a + pooled.b1 + pooled.b2)
    assert gauss.cs_scalar(1, 1, 0) == gauss.cs_scalar(1.0, 1.0, 0.0) == 0.5


def test_region_scalar_degenerate_orders():
    # both eavesdroppers at least as strong as the legitimate receiver
    res = gauss.region_scalar(ScalarGaussChannel(1.0, 0.5, 1.0, 0.8))
    assert res["cap_high"] == res["cap_low"] == 0.0
    assert regions.contains(corner_region(res), (0.0, 0.0))
    assert not regions.contains(corner_region(res), (0.01, 0.0))
    # strong above, weak below: only the low-security rate survives
    res = gauss.region_scalar(ScalarGaussChannel(1.0, 1.0, 1.5, 0.1))
    assert res["cap_high"] == 0.0 and res["cap_low"] > 0
    assert res["corner"][0] == 0.0
    assert regions.contains(corner_region(res), (0.0, res["cap_low"]))
    assert not regions.contains(corner_region(res), (1e-6, res["cap_low"]))


def test_region_scalar_corner_inside_region():
    res = gauss.region_scalar(ScalarGaussChannel(1.0, 1.0, 0.5, 0.1))
    corner = res["corner"]
    assert corner == [pytest.approx(0.207518749639422), pytest.approx(0.2237294884856105)]
    assert regions.contains(corner_region(res), corner)
    assert not regions.contains(corner_region(res), (corner[0] + 1e-9, corner[1]))


def test_naive_region_endpoints_and_violation():
    ch = ScalarGaussChannel(1.0, 1.0, 0.5, 0.1)
    res = gauss.region_scalar(ch)
    naive = gauss.naive_region(ch)
    assert not naive["degenerate"]
    assert regions.contains(naive["region"], (naive["cap_high"], 0.0))
    assert regions.contains(naive["region"], (0.0, naive["cap_low"]))
    # the joint-coding corner strictly violates the time-sharing hull
    violation = naive["corner_violation"]
    assert violation > 1e-9
    # algebraic form: c1/c1 + (c2-c1)/c2 - 1 = (c2-c1)/c2 > 0 iff c2 > c1
    want = (res["cap_low"] - res["cap_high"]) / res["cap_low"]
    assert violation == pytest.approx(want, abs=1e-12)


def test_naive_region_coincides_when_eavesdroppers_match():
    ch = ScalarGaussChannel(1.0, 1.0, 0.3, 0.3)
    res = gauss.region_scalar(ch)
    naive = gauss.naive_region(ch)
    grid = np.linspace(0, res["cap_low"], 40)
    for r1 in grid:
        full = regions.max_r2_at(corner_region(res), float(r1))
        hull = regions.max_r2_at(naive["region"], float(r1))
        assert full == pytest.approx(hull, abs=1e-12)


def test_naive_region_degenerate():
    naive = gauss.naive_region(ScalarGaussChannel(1.0, 1.0, 1.5, 0.1))
    assert naive["degenerate"]
    assert regions.contains(naive["region"], (0.0, naive["cap_low"]))
    assert not regions.contains(naive["region"], (0.01, 0.0))
    assert naive["corner_violation"] is None


def test_parallel_individual_single_subchannel_reduces_to_scalar():
    par = gauss.region_parallel_individual([ScalarGaussChannel(1.0, 1.0, 0.5, 0.1)])
    sca = gauss.region_scalar(ScalarGaussChannel(1.0, 1.0, 0.5, 0.1))
    assert par["cap_high_sum"] == pytest.approx(sca["cap_high"], abs=1e-15)
    assert par["cap_low_sum"] == pytest.approx(sca["cap_low"], abs=1e-15)
    assert par["region"] == corner_region(sca)


def test_parallel_individual_additivity_and_corner():
    par = gauss.region_parallel_individual([ScalarGaussChannel(0.5, 1.0, 0.8, 0.1),
                                            ScalarGaussChannel(0.5, 1.0, 0.25, 0.1)])
    want_high = gauss.cs_scalar(0.5, 1.0, 0.8) + gauss.cs_scalar(0.5, 1.0, 0.25)
    want_low = 2 * gauss.cs_scalar(0.5, 1.0, 0.1)
    assert par["cap_high_sum"] == pytest.approx(want_high, abs=1e-15)
    assert par["cap_low_sum"] == pytest.approx(want_low, abs=1e-15)
    # every fixed allocation is perfectly embeddable: corner lies in the region
    region = corner_region(par, "cap_high_sum", "cap_low_sum")
    assert par["region"] == region
    assert regions.contains(region, par["corner"])


def test_parallel_individual_zero_high_when_b1_matches_a():
    par = gauss.region_parallel_individual([ScalarGaussChannel(1.0, 1.0, 1.0, 0.1),
                                            ScalarGaussChannel(1.0, 2.0, 2.0, 0.2)])
    assert par["cap_high_sum"] == 0.0
    assert par["cap_low_sum"] > 0.0


def test_parallel_total_single_subchannel_matches_scalar_boundary():
    ch = ParallelGaussChannel(a=(1.0,), b1=(0.5,), b2=(0.1,), total_power=1.0)
    r = gauss.region_parallel_total(ch)
    front = gauss.pooled_frontier(ch, r)
    sca = gauss.region_scalar(ScalarGaussChannel(1.0, 1.0, 0.5, 0.1))
    assert r["max_r1"] == pytest.approx(sca["cap_high"], abs=1e-12)
    assert r["max_sum"] == pytest.approx(sca["cap_low"], abs=1e-12)
    for r1 in np.linspace(0, sca["cap_high"], 23):
        r2 = max(float(gauss._sum_rate_at(front, r["max_sum"], float(r1))) - r1, 0.0)
        assert r2 == pytest.approx(regions.max_r2_at(corner_region(sca), float(r1)), abs=1e-9)


def test_parallel_total_symmetric_subchannels_split_evenly():
    ch = ParallelGaussChannel(a=(1.0, 1.0), b1=(0.5, 0.5), b2=(0.1, 0.1),
                              total_power=1.0)
    r = gauss.region_parallel_total(ch)
    assert r["alloc_max_sum"][0] == pytest.approx(0.5, abs=1e-3)
    assert r["alloc_max_r1"][0] == pytest.approx(0.5, abs=1e-3)
    assert r["embedding_gap"] == pytest.approx(0.0, abs=1e-9)


def test_parallel_total_two_subchannel_reference():
    ch = ParallelGaussChannel(a=(1.0, 1.0), b1=(0.8, 0.25), b2=(0.1, 0.1),
                              total_power=1.0)
    r = gauss.region_parallel_total(ch)
    # the weak-eavesdropper objective is symmetric: even split
    assert r["alloc_max_sum"][0] == pytest.approx(0.5, abs=2e-3)
    # the strong-eavesdropper objective prefers the better second subchannel
    assert r["alloc_max_r1"][1] > 0.95
    assert abs(r["alloc_max_r1"][0] - r["alloc_max_sum"][0]) > 0.1
    # grid-search oracle at fixed resolution for max_r1
    grid = np.linspace(0.0, 1.0, 1001)
    vals = [gauss.cs_scalar(p, 1.0, 0.8) + gauss.cs_scalar(1 - p, 1.0, 0.25) for p in grid]
    assert r["max_r1"] == pytest.approx(max(vals), abs=1e-6)
    # not perfectly embeddable: the would-be corner sits above the boundary
    assert r["embedding_gap"] > 1e-4
    corner = (r["max_r1"], r["max_sum"] - r["max_r1"])
    assert not pooled_contains(gauss.pooled_frontier(ch, r), r, corner, tol=1e-6)


def test_parallel_total_region_nests_fixed_allocations():
    ch = ParallelGaussChannel(a=(1.0, 1.0), b1=(0.8, 0.25), b2=(0.1, 0.1),
                              total_power=1.0)
    r = gauss.region_parallel_total(ch)
    front = gauss.pooled_frontier(ch, r)
    rng = np.random.default_rng(8)
    for _ in range(25):
        split = float(rng.uniform(0, 1))
        fixed = gauss.region_parallel_individual(
            [ScalarGaussChannel(p, a, b1, b2)
             for p, a, b1, b2 in zip((split, 1 - split), ch.a, ch.b1, ch.b2)])
        assert pooled_contains(front, r, fixed["corner"], tol=1e-6)
        assert pooled_contains(front, r, (fixed["cap_high_sum"], 0.0), tol=1e-6)


def test_boundary_points_monotone_and_feasible():
    ch = ParallelGaussChannel(a=(1.0, 1.0), b1=(0.8, 0.25), b2=(0.1, 0.1),
                              total_power=1.0)
    r = gauss.region_parallel_total(ch)
    pts = gauss.boundary_points(gauss.pooled_frontier(ch, r), r["max_r1"], r["max_sum"],
                                gauss.N_BOUNDARY)
    assert (np.diff(pts[:, 0]) > 0).all()
    assert (pts[:, 1] >= -1e-12).all()
    # sum rate along the boundary never exceeds the pooled maximum
    assert (pts.sum(axis=1) <= r["max_sum"] + 1e-9).all()


@pytest.mark.parametrize("b1, b2", [(0.5, 0.1), (1.5, 0.1), (1.0, 1.0), (0.3, 0.3)])
def test_boundary_points_one_vertex_frontier_is_the_corner_region(b1, b2):
    res = gauss.region_scalar(ScalarGaussChannel(1.0, 1.0, b1, b2))
    high, low = res["cap_high"], res["cap_low"]
    pts = gauss.boundary_points([(high, low)], high, low, 57)
    assert pts.shape == (57, 2)
    assert pts[0, 0] == 0.0 and pts[-1, 0] == high
    for r1, r2 in pts:
        assert r2 == max(low - r1, 0.0)
        assert r2 == pytest.approx(regions.max_r2_at(corner_region(res), r1), abs=1e-15)
        assert regions.contains(corner_region(res), (r1, r2))


@pytest.mark.parametrize("frontier", [[1, 2], [[np.nan, 1]], [[0.5, np.inf]], [],
                                      [[0.5, 1.0], [0.2, 1.1]], [[1, 2, 3]], [[[1, 2]]]])
def test_boundary_points_frontier_is_finite_vertices_by_nondecreasing_r1(frontier):
    with pytest.raises(ValueError, match="^frontier must hold one or more finite"):
        gauss.boundary_points(frontier, 1.0, 1.0, 3)


def test_boundary_points_r1_extent_is_explicit():
    # a frontier vertex just past max_r1 must not stretch the R1 samples
    frontier = np.array([[0.2, 1.0], [0.5, 0.9], [0.8 + 4e-16, 0.85]])
    pts = gauss.boundary_points(frontier, 0.8, 1.1, 7)
    assert np.array_equal(pts[:, 0], np.linspace(0.0, 0.8, 7))
    sums = pts.sum(axis=1)
    assert (sums[pts[:, 0] <= 0.2] == 1.1).all()  # max_sum before the first vertex
    assert np.allclose(sums[pts[:, 0] > 0.2], np.interp(pts[pts[:, 0] > 0.2, 0], *frontier.T),
                       rtol=0, atol=1e-15)


def test_total_power_points_sample_its_frontier(tmp_path, capsys):
    ch = ParallelGaussChannel(a=(1.0, 1.2, 0.9), b1=(0.5, 0.3, 0.4), b2=(0.1, 0.1, 0.1),
                              total_power=1.0)
    r = gauss.region_parallel_total(ch)
    front = gauss.pooled_frontier(ch, r)
    pts = gauss.boundary_points(front, r["max_r1"], r["max_sum"], gauss.N_BOUNDARY)
    csv = tmp_path / "boundary.csv"
    assert main(["region", "parallel-total", "--a", "1,1.2,0.9", "--b1", "0.5,0.3,0.4",
                 "--b2", "0.1,0.1,0.1", "--csv", str(csv)]) == 0
    assert json.loads(capsys.readouterr().out) == r
    want = ["R1,R2"] + [f"{r1:.12g},{r2:.12g}" for r1, r2 in pts]
    assert csv.read_text().splitlines() == want  # the CLI samples this frontier
    for r1, r2 in pts:
        r2_max = max(float(gauss._sum_rate_at(front, r["max_sum"], r1)) - r1, 0.0)
        assert r2_max == pytest.approx(r2, abs=1e-12)
