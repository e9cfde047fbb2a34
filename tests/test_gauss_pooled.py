"""Pooled-power region: exact water-filling against oracles, KKT and edge cases."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secembed import gauss
from secembed.cli import main
from secembed.gauss import ParallelGaussChannel

# three subchannels: the grid search this solver replaced crashed on this input
CRASH3 = dict(a=(1.0, 1.2, 0.9), b1=(0.5, 0.3, 0.4), b2=(0.1, 0.1, 0.1))
SUB4 = dict(a=(1.0, 1.1, 0.9, 1.3), b1=(0.3, 0.5, 0.2, 0.9), b2=(0.1, 0.05, 0.1, 0.3))


def values(ch, p):
    """(cap_high_sum, cap_low_sum) of one allocation, from the scalar formula."""
    high = sum(gauss.cs_scalar(x, a, s) for x, a, s in zip(p, ch.a, ch.b1))
    low = sum(gauss.cs_scalar(x, a, w) for x, a, w in zip(p, ch.a, ch.b2))
    return high, low


def simplex_grid(dims, steps):
    """Every split of unit power into ``dims >= 2`` parts in multiples of 1/steps."""
    free = np.indices((steps + 1,) * (dims - 1)).reshape(dims - 1, -1).T
    free = free[free.sum(axis=1) <= steps]
    return np.column_stack([free, steps - free.sum(axis=1)]) / steps


def grid_max(ch, eve, steps):
    p = simplex_grid(ch.n_sub, steps) * ch.total_power
    a, b = np.array(ch.a), np.array(eve)
    vals = np.maximum(0.5 * (np.log2(1 + a * p) - np.log2(1 + b * p)), 0.0).sum(axis=1)
    return float(vals.max())


def slopes(p, a, b):
    """d/dp [Cs(p,a,b)]+ per subchannel, in bits per unit power."""
    p, a, b = (np.asarray(v, dtype=float) for v in (p, a, b))
    return np.where(a > b, (a - b) / ((1 + a * p) * (1 + b * p)) / (2 * math.log(2)), 0.0)


def assert_kkt(alloc, a, b):
    p = np.asarray(alloc)
    active = p > 0
    level = slopes(p, a, b)[active]
    mu = level.max()
    assert level.min() >= mu * (1 - 1e-9)
    assert (slopes(np.zeros_like(p), a, b)[~active] <= mu * (1 + 1e-9)).all()


def test_simplex_grid_oracle():
    assert len(simplex_grid(3, 4)) == 15
    assert np.allclose(simplex_grid(3, 4).sum(axis=1), 1.0)


def test_three_subchannels_match_dense_grid_oracle():
    ch = ParallelGaussChannel(**CRASH3, total_power=1.0)
    bnd = gauss.region_parallel_total(ch)
    steps = 800
    # the optimum is within 2/steps of a grid point in every coordinate, and
    # each term's curvature is at most a^2/(2 ln 2) bits per unit power^2
    err = 0.5 * sum(a * a for a in ch.a) / (2 * math.log(2)) * (2 / steps) ** 2
    for got, eve in ((bnd.max_r1, ch.b1), (bnd.max_sum, ch.b2)):
        oracle = grid_max(ch, eve, steps)
        assert oracle - 1e-12 <= got <= oracle + err
    assert bnd.max_r1 == pytest.approx(0.4003774250, abs=1e-10)
    assert bnd.max_sum == pytest.approx(0.5769805063, abs=1e-10)
    assert bnd.embedding_gap() > 1e-3
    assert_kkt(bnd.alloc_max_r1, ch.a, ch.b1)
    assert_kkt(bnd.alloc_max_sum, ch.a, ch.b2)


def test_four_subchannels_kkt_and_random_allocations():
    ch = ParallelGaussChannel(**SUB4, total_power=2.0)
    bnd = gauss.region_parallel_total(ch)
    assert sum(bnd.alloc_max_r1) == pytest.approx(2.0, abs=1e-12)
    assert_kkt(bnd.alloc_max_r1, ch.a, ch.b1)
    assert_kkt(bnd.alloc_max_sum, ch.a, ch.b2)
    rng = np.random.default_rng(5)
    for p in rng.dirichlet(np.ones(4), size=200) * 2.0:
        high, low = values(ch, p)
        assert high <= bnd.max_r1 + 1e-12 and low <= bnd.max_sum + 1e-12
        assert low <= bnd.best_sum_given_r1(high) + gauss.FRONTIER_SAG
    assert bnd.contains((bnd.max_r1, 0.0))
    assert not bnd.contains((bnd.max_r1, bnd.max_sum - bnd.max_r1))


@pytest.mark.parametrize("gains", [CRASH3, SUB4], ids=["sub3", "sub4"])
def test_cli_parallel_total_many_subchannels(tmp_path, capsys, gains):
    argv = ["region", "parallel-total", "--P", "1.5", "--grid", "1e-3"]
    for key in ("a", "b1", "b2"):
        argv += [f"--{key}", ",".join(repr(x) for x in gains[key])]
    csv = tmp_path / "boundary.csv"
    assert main(argv + ["--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == out  # byte-deterministic
    payload = json.loads(out)
    assert "boundary" not in payload
    ch = ParallelGaussChannel(**gains, total_power=1.5)
    assert payload["max_r1"] == pytest.approx(values(ch, payload["alloc_max_r1"])[0], abs=1e-14)
    assert payload["max_sum"] == pytest.approx(values(ch, payload["alloc_max_sum"])[1], abs=1e-14)
    rows = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert rows.shape == (201, 2) and np.isfinite(rows).all()
    assert rows[0, 1] == pytest.approx(payload["max_sum"], abs=1e-11)


def test_grid_argument_does_not_change_the_result():
    ch = ParallelGaussChannel(**CRASH3, total_power=1.0)
    want = gauss.region_parallel_total(ch).to_dict()
    for grid in (0.1, 1e-2, 1e-4):
        assert gauss.region_parallel_total(ch, grid=grid).to_dict() == want


@pytest.mark.parametrize("grid", [0.0, -1e-3, float("nan")])
def test_nonpositive_grid_is_rejected(capsys, grid):
    ch = ParallelGaussChannel(**CRASH3, total_power=1.0)
    with pytest.raises(ValueError, match="grid"):
        gauss.region_parallel_total(ch, grid=grid)
    argv = ["region", "parallel-total", "--preset", "two-subchannel-reference", "--grid", repr(grid)]
    assert main(argv) == 1
    assert "grid" in capsys.readouterr().err


# ---------------------------------------------------------------- degenerate inputs

def finite(bnd):
    parts = [bnd.max_r1, bnd.max_sum, bnd.embedding_gap(), *bnd.alloc_max_r1,
             *bnd.alloc_max_sum]
    return np.isfinite(parts).all() and np.isfinite(bnd.points).all()


def test_high_objective_flat_when_a_le_b1_everywhere():
    ch = ParallelGaussChannel(a=(1.0, 0.5, 0.8), b1=(1.0, 0.7, 0.9), b2=(0.2, 0.1, 0.3),
                              total_power=1.0)
    bnd = gauss.region_parallel_total(ch)
    assert bnd.max_r1 == 0.0 and bnd.embedding_gap() == 0.0
    assert bnd.alloc_max_r1 == bnd.alloc_max_sum
    assert bnd.max_sum > 0 and finite(bnd)
    assert_kkt(bnd.alloc_max_sum, ch.a, ch.b2)


def test_everything_zero_when_a_le_b2_everywhere():
    ch = ParallelGaussChannel(a=(1.0, 0.5), b1=(1.5, 0.9), b2=(1.2, 0.5), total_power=3.0)
    bnd = gauss.region_parallel_total(ch)
    assert bnd.max_r1 == bnd.max_sum == bnd.embedding_gap() == 0.0
    assert bnd.alloc_max_r1 == bnd.alloc_max_sum == (1.5, 1.5)
    assert finite(bnd) and bnd.contains((0.0, 0.0)) and not bnd.contains((0.0, 1e-6))


def test_zero_total_power():
    ch = ParallelGaussChannel(**CRASH3, total_power=0.0)
    bnd = gauss.region_parallel_total(ch)
    assert bnd.alloc_max_r1 == bnd.alloc_max_sum == (0.0, 0.0, 0.0)
    assert bnd.max_r1 == bnd.max_sum == bnd.embedding_gap() == 0.0
    assert finite(bnd) and len(bnd.frontier) == 1


def test_equal_eavesdroppers_are_perfectly_embeddable():
    ch = ParallelGaussChannel(a=(1.0, 1.2, 0.9), b1=(0.5, 0.3, 0.4), b2=(0.5, 0.3, 0.4),
                              total_power=1.0)
    bnd = gauss.region_parallel_total(ch)
    assert bnd.alloc_max_r1 == bnd.alloc_max_sum
    assert bnd.max_r1 == bnd.max_sum > 0
    assert bnd.embedding_gap() == 0.0 and finite(bnd)
    assert bnd.contains((bnd.max_r1, 0.0), tol=1e-12)


def test_one_subchannel_takes_all_power():
    ch = ParallelGaussChannel(a=(2.0,), b1=(0.5,), b2=(0.25,), total_power=1.5)
    bnd = gauss.region_parallel_total(ch)
    assert bnd.alloc_max_r1 == bnd.alloc_max_sum == (1.5,)
    assert bnd.max_r1 == gauss.cs_scalar(1.5, 2.0, 0.5)
    assert bnd.max_sum == gauss.cs_scalar(1.5, 2.0, 0.25)
    assert bnd.embedding_gap() == 0.0 and finite(bnd)


# ---------------------------------------------------------------- properties

@st.composite
def pooled_channels(draw):
    n = draw(st.integers(1, 5))
    unit = st.floats(0.0, 1.0)
    a = [draw(st.floats(0.05, 3.0)) for _ in range(n)]
    b1 = [x * draw(st.floats(0.0, 1.5)) for x in a]
    b2 = [x * draw(unit) for x in b1]
    return ParallelGaussChannel(a=a, b1=b1, b2=b2, total_power=draw(st.floats(0.01, 10.0)))


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@PROPERTY
@given(pooled_channels())
def test_property_allocations_split_the_total_and_beat_feasible_points(ch):
    bnd = gauss.region_parallel_total(ch)
    total, n = ch.total_power, ch.n_sub
    for alloc in (bnd.alloc_max_r1, bnd.alloc_max_sum):
        assert min(alloc) >= 0.0 and abs(sum(alloc) - total) <= 1e-12
    rng = np.random.default_rng(n)
    candidates = [np.eye(n)[k] * total for k in range(n)] + [np.full(n, total / n)]
    candidates += list(rng.dirichlet(np.ones(n), size=20) * total)
    for p in candidates:
        high, low = values(ch, p)
        assert bnd.max_r1 >= high - 1e-12 and bnd.max_sum >= low - 1e-12
    assert bnd.embedding_gap() >= -1e-12


@PROPERTY
@given(pooled_channels())
def test_property_kkt_conditions(ch):
    bnd = gauss.region_parallel_total(ch)
    if any(a > s for a, s in zip(ch.a, ch.b1)):
        assert_kkt(bnd.alloc_max_r1, ch.a, ch.b1)
    if any(a > w for a, w in zip(ch.a, ch.b2)):
        assert_kkt(bnd.alloc_max_sum, ch.a, ch.b2)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(pooled_channels())
def test_property_frontier_is_a_certified_inner_approximation(ch):
    bnd = gauss.region_parallel_total(ch)
    front = bnd.frontier
    assert (np.diff(front[:, 0]) > 0).all() and (np.diff(front[:, 1]) < 0).all()
    rng = np.random.default_rng(ch.n_sub)
    spread = rng.dirichlet(np.ones(ch.n_sub), size=60) * ch.total_power
    # allocations close to the max-R1 end, where the frontier is steepest
    near = np.array(bnd.alloc_max_r1) + np.logspace(-6, -1, 20)[:, None] * (
        spread[:20] - np.array(bnd.alloc_max_r1))
    for p in np.vstack([spread, near]):
        high, low = values(ch, p)
        assert low <= bnd.best_sum_given_r1(min(high, bnd.max_r1)) + gauss.FRONTIER_SAG
