"""Pooled-power region: exact water-filling against oracles, KKT and edge cases;
the domain of every Gaussian verb."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secembed import gauss
from secembed.cli import main
from secembed.gauss import ParallelGaussChannel
from test_gauss import pooled_contains

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
    r = gauss.region_parallel_total(ch)
    steps = 800
    # the optimum is within 2/steps of a grid point in every coordinate, and
    # each term's curvature is at most a^2/(2 ln 2) bits per unit power^2
    err = 0.5 * sum(a * a for a in ch.a) / (2 * math.log(2)) * (2 / steps) ** 2
    for got, eve in ((r["max_r1"], ch.b1), (r["max_sum"], ch.b2)):
        oracle = grid_max(ch, eve, steps)
        assert oracle - 1e-12 <= got <= oracle + err
    assert r["max_r1"] == pytest.approx(0.4003774250, abs=1e-10)
    assert r["max_sum"] == pytest.approx(0.5769805063, abs=1e-10)
    assert r["embedding_gap"] > 1e-3
    assert_kkt(r["alloc_max_r1"], ch.a, ch.b1)
    assert_kkt(r["alloc_max_sum"], ch.a, ch.b2)


def test_four_subchannels_kkt_and_random_allocations():
    ch = ParallelGaussChannel(**SUB4, total_power=2.0)
    r = gauss.region_parallel_total(ch)
    front = gauss.pooled_frontier(ch, r)
    assert sum(r["alloc_max_r1"]) == pytest.approx(2.0, abs=1e-12)
    assert_kkt(r["alloc_max_r1"], ch.a, ch.b1)
    assert_kkt(r["alloc_max_sum"], ch.a, ch.b2)
    rng = np.random.default_rng(5)
    for p in rng.dirichlet(np.ones(4), size=200) * 2.0:
        high, low = values(ch, p)
        assert high <= r["max_r1"] + 1e-12 and low <= r["max_sum"] + 1e-12
        assert low <= gauss._sum_rate_at(front, r["max_sum"], high) + gauss.FRONTIER_SAG
    assert pooled_contains(front, r, (r["max_r1"], 0.0))
    assert not pooled_contains(front, r, (r["max_r1"], r["max_sum"] - r["max_r1"]))


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


def test_grid_argument_does_not_change_the_result(capsys):
    gains = [f"--{key}={','.join(repr(x) for x in CRASH3[key])}" for key in ("a", "b1", "b2")]
    outs = []
    for grid in ("0.1", "1e-2", "1e-4"):
        assert main(["region", "parallel-total", *gains, "--grid", grid]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] and outs.count(outs[0]) == 3


@pytest.mark.parametrize("grid", [0.0, -1e-3, float("nan")])
def test_nonpositive_grid_is_rejected(capsys, grid):
    argv = ["region", "parallel-total", "--preset", "two-subchannel-reference", "--grid", repr(grid)]
    assert main(argv) == 1
    assert "grid" in capsys.readouterr().err


# ---------------------------------------------------------------- degenerate inputs

def finite(ch, r):
    parts = [r["max_r1"], r["max_sum"], r["embedding_gap"], *r["alloc_max_r1"],
             *r["alloc_max_sum"]]
    pts = gauss.boundary_points(gauss.pooled_frontier(ch, r), r["max_r1"], r["max_sum"],
                                gauss.N_BOUNDARY)
    return np.isfinite(parts).all() and np.isfinite(pts).all()


HUGE_POWER = {
    "pooled-1e150": ["region", "parallel-total", "--a", "1,1", "--b1", "0.5,0.5",
                     "--b2", "0.1,0.1", "--P", "1e150"],
    "pooled-1e120": ["region", "parallel-total", "--a", "1,1.2", "--b1", "0.5,0.3",
                     "--b2", "0.1,0.1", "--P", "1e120"],
    "fixed-1e200": ["region", "parallel", "--a", "1,1", "--b1", "0.5,0.5", "--b2", "0.1,0.1",
                    "--powers", "1,1e200"],
    "scalar-1e308": ["region", "scalar", "--P", "1e308", "--a", "1e308", "--b1", "0.5",
                     "--b2", "0.1"],
}


@pytest.mark.filterwarnings("error")  # as under python -W error
@pytest.mark.parametrize("argv", HUGE_POWER.values(), ids=HUGE_POWER.keys())
def test_huge_power_is_a_domain_error(capsys, argv):
    # these once warned of overflow in the solver and then failed at JSON output on a nan
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert not out and err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "ValueError" and "power" in payload["message"]


@pytest.mark.filterwarnings("error")
def test_power_just_inside_the_limit_is_solved():
    scale = np.finfo(float).max ** (1 / 3)  # the largest power * max(1, gain)**2
    ch = ParallelGaussChannel(**CRASH3, total_power=1e100)
    assert finite(ch, gauss.region_parallel_total(ch))
    ch = ParallelGaussChannel(a=(1.0, 2.0), b1=(0.25, 0.5), b2=(0.0, 0.1), total_power=scale / 4)
    assert finite(ch, gauss.region_parallel_total(ch))
    with pytest.raises(ValueError, match="total power"):
        ParallelGaussChannel(a=(1.0, 2.0), b1=(0.25, 0.5), b2=(0.0, 0.1),
                             total_power=scale / 4 * 1.001)


# Each of these warned in the solver: the first three because 1 + a*P rounds to 1, so
# no water level lay below the top slope (they then exited 1 on a nan at JSON output),
# the last because the slope's derivative was too small to invert.
FLAT_OR_STEEP = {
    "power-1e-200": (["--a", "1,1", "--b1", "0.5,0.5", "--b2", "0.1,0.1", "--P", "1e-200"],
                     [5e-201, 5e-201]),
    "gains-1e-100": (["--a", "1e-100,1e-100", "--b1", "5e-101,5e-101", "--b2", "1e-101,1e-101",
                      "--P", "1"], [0.5, 0.5]),
    "gains-1e100-power-1e-150": (["--a", "1e100,1e100", "--b1", "5e99,5e99",
                                  "--b2", "1e99,1e99", "--P", "1e-150"], [5e-151, 5e-151]),
    "near-the-power-limit": (["--a", "0.727", "--b1", "0.572", "--b2", "0.362",
                              "--P", "5.638e102"], [5.638e102]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, alloc", FLAT_OR_STEEP.values(), ids=FLAT_OR_STEEP.keys())
def test_flat_or_steep_slopes_solve_without_warning(capsys, argv, alloc):
    assert main(["region", "parallel-total", *argv]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert not err and payload["alloc_max_r1"] == payload["alloc_max_sum"] == alloc
    assert all(math.isfinite(payload[k]) for k in ("max_r1", "max_sum", "embedding_gap"))


@pytest.mark.filterwarnings("error")
def test_held_level_is_shared_inversely_to_the_rate_of_descent():
    # both slopes start at 1 and 1 + a*P rounds to 1: to first order the slope falls
    # like 1 - (a + b) p, so the power splits 1 : 5
    ch = ParallelGaussChannel(a=(3.0, 1.0), b1=(2.0, 0.0), b2=(2.0, 0.0), total_power=1e-200)
    r = gauss.region_parallel_total(ch)
    assert r["alloc_max_sum"] == pytest.approx([1e-200 / 6, 5e-200 / 6], rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_held_level_leaves_the_steep_subchannel_its_power():
    # the first slope is flat over [0, P] in float (a*P = 1e-20), so mu stays at 1e-80;
    # the second takes the power where its slope falls to that level, the first the rest
    ch = ParallelGaussChannel(a=(1e-80, 1.0), b1=(0.0, 0.5), b2=(0.0, 0.5), total_power=1e60)
    r = gauss.region_parallel_total(ch)
    assert r["alloc_max_sum"][1] == pytest.approx(1e40, rel=1e-3)
    assert sum(r["alloc_max_sum"]) == pytest.approx(1e60, rel=1e-12)
    assert_kkt(r["alloc_max_sum"], ch.a, ch.b2)


def test_high_objective_flat_when_a_le_b1_everywhere():
    ch = ParallelGaussChannel(a=(1.0, 0.5, 0.8), b1=(1.0, 0.7, 0.9), b2=(0.2, 0.1, 0.3),
                              total_power=1.0)
    r = gauss.region_parallel_total(ch)
    assert r["max_r1"] == 0.0 and r["embedding_gap"] == 0.0
    assert r["alloc_max_r1"] == r["alloc_max_sum"]
    assert r["max_sum"] > 0 and finite(ch, r)
    assert_kkt(r["alloc_max_sum"], ch.a, ch.b2)


def test_everything_zero_when_a_le_b2_everywhere():
    ch = ParallelGaussChannel(a=(1.0, 0.5), b1=(1.5, 0.9), b2=(1.2, 0.5), total_power=3.0)
    r = gauss.region_parallel_total(ch)
    front = gauss.pooled_frontier(ch, r)
    assert r["max_r1"] == r["max_sum"] == r["embedding_gap"] == 0.0
    assert r["alloc_max_r1"] == r["alloc_max_sum"] == [1.5, 1.5]
    assert finite(ch, r) and pooled_contains(front, r, (0.0, 0.0))
    assert not pooled_contains(front, r, (0.0, 1e-6))


def test_zero_total_power():
    ch = ParallelGaussChannel(**CRASH3, total_power=0.0)
    r = gauss.region_parallel_total(ch)
    assert r["alloc_max_r1"] == r["alloc_max_sum"] == [0.0, 0.0, 0.0]
    assert r["max_r1"] == r["max_sum"] == r["embedding_gap"] == 0.0
    assert finite(ch, r) and len(gauss.pooled_frontier(ch, r)) == 1


def test_equal_eavesdroppers_are_perfectly_embeddable():
    ch = ParallelGaussChannel(a=(1.0, 1.2, 0.9), b1=(0.5, 0.3, 0.4), b2=(0.5, 0.3, 0.4),
                              total_power=1.0)
    r = gauss.region_parallel_total(ch)
    assert r["alloc_max_r1"] == r["alloc_max_sum"]
    assert r["max_r1"] == r["max_sum"] > 0
    assert r["embedding_gap"] == 0.0 and finite(ch, r)
    assert pooled_contains(gauss.pooled_frontier(ch, r), r, (r["max_r1"], 0.0), tol=1e-12)


def test_one_subchannel_takes_all_power():
    ch = ParallelGaussChannel(a=(2.0,), b1=(0.5,), b2=(0.25,), total_power=1.5)
    r = gauss.region_parallel_total(ch)
    assert r["alloc_max_r1"] == r["alloc_max_sum"] == [1.5]
    assert r["max_r1"] == gauss.cs_scalar(1.5, 2.0, 0.5)
    assert r["max_sum"] == gauss.cs_scalar(1.5, 2.0, 0.25)
    assert r["embedding_gap"] == 0.0 and finite(ch, r)


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
    r = gauss.region_parallel_total(ch)
    total, n = ch.total_power, ch.n_sub
    for alloc in (r["alloc_max_r1"], r["alloc_max_sum"]):
        assert min(alloc) >= 0.0 and abs(sum(alloc) - total) <= 1e-12
    rng = np.random.default_rng(n)
    candidates = [np.eye(n)[k] * total for k in range(n)] + [np.full(n, total / n)]
    candidates += list(rng.dirichlet(np.ones(n), size=20) * total)
    for p in candidates:
        high, low = values(ch, p)
        assert r["max_r1"] >= high - 1e-12 and r["max_sum"] >= low - 1e-12
    assert r["embedding_gap"] >= -1e-12


@PROPERTY
@given(pooled_channels())
def test_property_kkt_conditions(ch):
    r = gauss.region_parallel_total(ch)
    if any(a > s for a, s in zip(ch.a, ch.b1)):
        assert_kkt(r["alloc_max_r1"], ch.a, ch.b1)
    if any(a > w for a, w in zip(ch.a, ch.b2)):
        assert_kkt(r["alloc_max_sum"], ch.a, ch.b2)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(pooled_channels())
def test_property_frontier_is_a_certified_inner_approximation(ch):
    r = gauss.region_parallel_total(ch)
    front = gauss.pooled_frontier(ch, r)
    assert (np.diff(front[:, 0]) > 0).all() and (np.diff(front[:, 1]) < 0).all()
    rng = np.random.default_rng(ch.n_sub)
    spread = rng.dirichlet(np.ones(ch.n_sub), size=60) * ch.total_power
    # allocations close to the max-R1 end, where the frontier is steepest
    near = np.array(r["alloc_max_r1"]) + np.logspace(-6, -1, 20)[:, None] * (
        spread[:20] - np.array(r["alloc_max_r1"]))
    for p in np.vstack([spread, near]):
        high, low = values(ch, p)
        best = gauss._sum_rate_at(front, r["max_sum"], min(high, r["max_r1"]))
        assert low <= best + gauss.FRONTIER_SAG


def log_uniform():
    return st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


@st.composite
def wide_subchannel(draw):
    a = draw(log_uniform())
    below = st.one_of(log_uniform(), st.just(a),  # free, or equal, or just under a
                      st.floats(1.0, 16.0).map(lambda k: a * (1.0 - 10.0 ** -k)))
    b1, b2 = sorted((draw(below), draw(below)), reverse=True)
    return a, b1, b2


def run_main(argv) -> tuple:
    """(exit code, stdout, stderr) of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def flag_lists(flags, columns) -> list:
    """argv giving each flag its column of values, comma-separated."""
    return [item for flag, column in zip(flags, columns)
            for item in (flag, ",".join(map(repr, column)))]


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(wide_subchannel(), min_size=1, max_size=3), log_uniform())
def test_property_parallel_total_answers_or_names_the_input(subchannels, power):
    argv = ["region", "parallel-total", "--P", repr(power),
            *flag_lists(("--a", "--b1", "--b2"), zip(*subchannels))]
    code, out, err = run_main(argv)
    if code == 0:
        payload = json.loads(out)
        assert not err
        assert all(math.isfinite(payload[k]) for k in ("max_r1", "max_sum", "embedding_gap"))
        for key in ("alloc_max_r1", "alloc_max_sum"):
            assert min(payload[key]) >= 0.0 and math.isfinite(sum(payload[key]))
            assert sum(payload[key]) == pytest.approx(power, rel=1e-12)
    else:
        assert code == 1 and not out and err.count("\n") == 1
        message = json.loads(err)["message"]
        assert "total power" in message or "gain" in message


def numbers(payload) -> list:
    """Every number in a JSON payload."""
    if isinstance(payload, dict):
        return [x for v in payload.values() for x in numbers(v)]
    if isinstance(payload, list):
        return [x for v in payload for x in numbers(v)]
    return [payload] if isinstance(payload, (int, float)) and not isinstance(payload, bool) else []


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(wide_subchannel(), log_uniform()), min_size=1, max_size=3))
def test_property_parallel_answers_or_names_the_input(subchannels):
    gains, powers = zip(*subchannels)
    argv = ["region", "parallel",
            *flag_lists(("--a", "--b1", "--b2", "--powers"), [*zip(*gains), powers])]
    code, out, err = run_main(argv)
    if code == 0:
        payload = json.loads(out)
        assert not err
        assert all(math.isfinite(x) for x in numbers(payload))
        assert len(payload["per_subchannel"]) == len(subchannels)
        assert all(len(pair) == 2 for pair in payload["per_subchannel"])
    else:
        assert code == 1 and not out and err.count("\n") == 1
        message = json.loads(err)["message"]
        assert "power" in message or "gain" in message


def test_parallel_checks_each_power_against_its_own_gains():
    # a huge gain beside a tiny power: the largest power times the largest gain
    # squared once put this channel past the power limit
    code, out, err = run_main(["region", "parallel", "--a", "1,1e50", "--b1", "0.5,0.1",
                               "--b2", "0.1,0.1", "--powers", "1e3,1e-200"])
    assert code == 0 and not err
    payload = json.loads(out)
    want = gauss.cs_scalar(1e3, 1.0, 0.5) + gauss.cs_scalar(1e-200, 1e50, 0.1)
    assert payload["cap_high_sum"] == want == pytest.approx(0.49928, abs=1e-5)


def test_parallel_lengths_that_differ_name_the_flags():
    code, out, err = run_main(["region", "parallel", "--a", "1,1", "--b1", "0.5,0.5",
                               "--b2", "0.1,0.1", "--powers", "1"])
    assert code == 1 and not out
    assert json.loads(err) == {"error": "ValueError", "message":
                               "--a, --b1, --b2 and --powers must have equal lengths"}
