"""Secrecy capacity regions for scalar and parallel Gaussian wiretap channels
with two eavesdropper strength levels.

All noise variances are normalized to one, so a channel is described by
its power budget and gain triple (legitimate gain ``a``, strong
eavesdropper gain ``b1``, weak eavesdropper gain ``b2`` with b1 >= b2).
Rates are in bits per channel use (base-2 logs throughout).

Under a pooled power budget each weighted objective
w1*Σ[Cs(p,a,b1)]⁺ + w2*Σ[Cs(p,a,b2)]⁺ is separable and concave in the
allocation, so its exact maximizer is a secrecy water-filling solution
(Liang, Poor and Shamai, IEEE T-IT 54(6), 2008): the region's extreme
allocations are two such solves, and its frontier is traced by more.
Every region boundary, fixed-power corner or pooled-power frontier, is
sampled by the one routine ``boundary_points``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import log2

import numpy as np

from secembed import _bounded, _integer, _real, regions

__all__ = [
    "cs_scalar",
    "ScalarGaussChannel",
    "ParallelGaussChannel",
    "region_scalar",
    "naive_region",
    "region_parallel_individual",
    "region_parallel_total",
    "pooled_frontier",
    "boundary_points",
]


def _check_power(power, gains, what: str) -> float:
    """The power as a float; reject a NaN, infinite or negative power, or one with
    power * max(1, gain)**2 above the cube root of the largest float, the domain the
    solvers are checked on.  The gains are floats."""
    power = _real(power, what, 0)
    g, limit = max(1.0, *gains), np.finfo(float).max ** (1 / 3)
    if power * g * g > limit:
        raise ValueError(f"{what} too large for these gains: "
                         f"{power:g} * max(1, gain)**2 exceeds {limit:.4g}")
    return power


def _cs(power, a, b):
    """[0.5*log2(1+a*P) - 0.5*log2(1+b*P)]^+, elementwise over arrays."""
    return np.maximum(0.5 * (np.log2(1.0 + a * power) - np.log2(1.0 + b * power)), 0.0)


def cs_scalar(power: float, a: float, b: float) -> float:
    """Secrecy capacity [0.5*log2(1+a*P) - 0.5*log2(1+b*P)]^+ in bits/use."""
    return float(_cs(_real(power, "power", 0), _real(a, "a", 0), _real(b, "b", 0)))


MAX_POINTS = 1_000_000  # most boundary samples: two floats each, a CSV of about 30 MB


def boundary_points(frontier, max_r1: float, max_sum: float, num: int) -> np.ndarray:
    """(num, 2) samples (R1, R2) of a region's upper boundary, R1 evenly over [0, max_r1].

    ``frontier`` holds one or more finite (R1, sum-rate) vertices by
    nondecreasing R1.  The sum rate is ``max_sum`` up to the first vertex
    and their polyline after it, and R2 is the sum rate less R1, clamped at
    zero.  A corner region {R1 <= cap_high, R1 + R2 <= cap_low} is the
    one-vertex frontier [(cap_high, cap_low)] with max_r1 = cap_high and
    max_sum = cap_low.  ``max_r1`` and ``max_sum`` are reals >= 0 and
    ``num`` is an integer from 2 to MAX_POINTS.
    """
    max_r1, max_sum = _real(max_r1, "max_r1", 0), _real(max_sum, "max_sum", 0)
    r1 = np.linspace(0.0, max_r1, _integer(num, "num", 2, MAX_POINTS))
    return np.column_stack([r1, np.maximum(_sum_rate_at(frontier, max_sum, r1) - r1, 0.0)])


def _sum_rate_at(frontier, max_sum: float, r1):
    """Largest sum rate at ``r1`` under ``frontier``, as ``boundary_points`` reads it."""
    try:
        f = np.asarray(frontier, dtype=float)
    except (TypeError, ValueError):  # a text or ragged vertex: no vertex array at all
        f = np.empty(0)
    if not (f.ndim == 2 and f.shape[1] == 2 and len(f) and np.isfinite(f).all()
            and (np.diff(f[:, 0]) >= 0).all()):  # np.interp reads R1 in that order
        raise ValueError("frontier must hold one or more finite (R1, sum-rate) vertices "
                         "by nondecreasing R1")
    a, b = f.T
    return np.where(r1 <= a[0], max_sum, np.interp(r1, a, b))


@dataclass(frozen=True)
class ScalarGaussChannel:
    power: float
    a: float
    b1: float
    b2: float

    def __post_init__(self):
        for name in ("power", "a", "b1"):  # stored as floats
            object.__setattr__(self, name, _real(getattr(self, name), name, 0))
        object.__setattr__(self, "b2", _real(self.b2, "b2", 0, self.b1))
        _check_power(self.power, (self.a, self.b1, self.b2), "power")


@dataclass(frozen=True)
class ParallelGaussChannel:
    """Independent parallel subchannels sharing one pooled power budget.

    With a fixed power per subchannel the channel is its subchannels, a
    sequence of ``ScalarGaussChannel`` (see ``region_parallel_individual``).
    """

    a: tuple
    b1: tuple
    b2: tuple
    total_power: float

    def __post_init__(self):
        try:
            a, b1, b2 = (tuple(getattr(self, name)) for name in ("a", "b1", "b2"))
        except TypeError:  # a gain given as a number, not a list
            a = b1 = b2 = ()
        if not (len(a) == len(b1) == len(b2)) or not a:
            raise ValueError("gain lists must be nonempty and of equal length")
        a, b1, b2 = (tuple(_real(x, "gains", 0) for x in values) for values in (a, b1, b2))
        for name, values in zip(("a", "b1", "b2"), (a, b1, b2)):  # once every gain is read
            object.__setattr__(self, name, values)
        for l, (s, w) in enumerate(zip(b1, b2)):
            _bounded(w, f"b2_{l}", None, s)
        object.__setattr__(self, "total_power",
                           _check_power(self.total_power, a + b1 + b2, "total power"))

    @property
    def n_sub(self) -> int:
        return len(self.a)


def region_scalar(ch: ScalarGaussChannel) -> dict:
    """The ``region scalar`` report of {R1 <= Cs(P,a,b1); R1+R2 <= Cs(P,a,b2)}.

    Keys: ``channel``, ``cap_high``, ``cap_low``, the ``corner``
    [cap_high, cap_low - cap_high], which carries the high-security message
    at full rate with no sum-rate loss, ``naive_degenerate`` and
    ``corner_outside_naive`` (None when the separate-coding hull is degenerate).
    """
    naive = naive_region(ch)
    cap_high, cap_low = naive["cap_high"], naive["cap_low"]
    return {
        "channel": {"P": ch.power, "a": ch.a, "b1": ch.b1, "b2": ch.b2},
        "cap_high": cap_high,
        "cap_low": cap_low,
        "corner": [cap_high, cap_low - cap_high],
        "naive_degenerate": naive["degenerate"],
        "corner_outside_naive": None if naive["degenerate"] else naive["corner_violation"] > 0,
    }


def naive_region(ch: ScalarGaussChannel) -> dict:
    """Separate-encoding benchmark: convex hull of the two single-code endpoints.

    With both capacities positive this is {R1/cap_high + R2/cap_low <= 1}
    over nonnegative rates; with either capacity zero it collapses to an
    axis segment, and is ``degenerate``.  Keys: ``cap_high``, ``cap_low``,
    ``degenerate``, the ``region`` dict and ``corner_violation``, the hull's
    R1/cap_high + R2/cap_low - 1 at the joint-coding corner
    [cap_high, cap_low - cap_high]: positive when the corner lies strictly
    outside the hull, None when the hull is degenerate.
    """
    cap_high = cs_scalar(ch.power, ch.a, ch.b1)
    cap_low = cs_scalar(ch.power, ch.a, ch.b2)
    degenerate = not (cap_high > 0 and cap_low > 0)
    bounds = ([((1.0, 0.0), cap_high, False), ((0.0, 1.0), cap_low, False)] if degenerate
              else [((1.0 / cap_high, 1.0 / cap_low), 1.0, False)])
    nonneg = [((-1.0, 0.0), 0.0, False), ((0.0, -1.0), 0.0, False)]
    return {"cap_high": cap_high, "cap_low": cap_low, "degenerate": degenerate,
            "region": regions.region(("R1", "R2"), bounds + nonneg),
            "corner_violation": None if degenerate
            else cap_high / cap_high + (cap_low - cap_high) / cap_low - 1.0}


def region_parallel_individual(subchannels: Sequence[ScalarGaussChannel]) -> dict:
    """The ``region parallel`` report: with a fixed power in each subchannel, a
    ``ScalarGaussChannel`` each, the bounds are sums of scalar capacities.

    Keys: ``cap_high_sum``, ``cap_low_sum``, the ``corner``
    [cap_high_sum, cap_low_sum - cap_high_sum], ``per_subchannel`` [high, low]
    pairs and the ``region`` dict of ``regions.corner_region``.
    """
    if not subchannels:
        raise ValueError("need at least one subchannel")
    for l, c in enumerate(subchannels):
        if not isinstance(c, ScalarGaussChannel):
            raise ValueError(f"subchannel {l} = {c!r} must be a ScalarGaussChannel")
    per = [[cs_scalar(c.power, c.a, c.b1), cs_scalar(c.power, c.a, c.b2)] for c in subchannels]
    cap_high = sum(p[0] for p in per)
    cap_low = sum(p[1] for p in per)
    return {
        "cap_high_sum": cap_high,
        "cap_low_sum": cap_low,
        "corner": [cap_high, cap_low - cap_high],
        "per_subchannel": per,
        "region": regions.corner_region(cap_high, cap_low),
    }


FRONTIER_SAG = 1e-8  # vertical sag (bits) certified for every traced frontier chord
_POWER_STOP, _LEVEL_STOP = 1e-12, 1e-13  # _waterfill's Newton stops, near float resolution
N_BOUNDARY = 201  # evenly spaced R1 samples: the parallel-total CSV, default --points


def _cap_pairs(ch: ParallelGaussChannel, p) -> tuple:
    """(cap_high_sum, cap_low_sum) of an allocation, or arrays of them per row of ``p``."""
    a, b1, b2, p = (np.asarray(v, dtype=float) for v in (ch.a, ch.b1, ch.b2, p))
    return tuple(_cs(p, a, b).sum(axis=-1) for b in (b1, b2))


def _waterfill(ch: ParallelGaussChannel, w1, w2) -> np.ndarray:
    """Exact maximizers of w1*Σ[Cs(p,a,b1)]⁺ + w2*Σ[Cs(p,a,b2)]⁺ subject to Σp = P.

    One row per weight pair, each with a subchannel of positive slope at 0.
    By KKT, p_l > 0 exactly where the slope at 0 exceeds a water level mu,
    and there the slope equals mu.  A one-term slope u/((1+ap)(1+bp)) inverts
    as a quadratic in p; with two, Newton steps from the b1-only root rise
    monotonically to it, the slope being convex and decreasing.  Σp is convex
    and decreasing in mu, so Newton steps on mu rise alike from max_l slope_l(P).

    Each row is solved with its gains times a power of two and the powers over it,
    which leaves every a*p and every rounding as is; the row's top gain of positive
    slope goes to about (a*P)**(1/4), or (a*P)**(1/2) below 1, so all terms stay
    finite.  Where that top's slope at P equals its slope at 0 in float, mu is held
    there: the held subchannels share what the others leave, inversely to their
    rate of descent -slope'/slope at 0, as they do to first order.
    """
    w1, w2 = (np.asarray(w, dtype=float)[:, None] for w in (w1, w2))
    a, b1, b2 = (np.array(g) for g in (ch.a, ch.b1, ch.b2))
    # gains of a zero-slope subchannel (in its row) or term (b >= a) do not matter: 0, b <= a
    a = np.where(w1 * (a > b1) + w2 * (a > b2) > 0, a, 0.0)
    top = a.max(axis=1, keepdims=True)
    reach = np.log2(top) + log2(ch.total_power)  # log2 of the row's largest a*P
    scale = np.ldexp(1.0, np.round(reach / np.where(reach > 0, 4, 2) - np.log2(top)).astype(int))
    a, b1, b2 = (np.minimum(g, a) * scale for g in (a, b1, b2))
    total = ch.total_power / scale
    u1, u2 = w1 * (a - b1), w2 * (a - b2)
    u = u1 + u2
    b = np.where(u1 > 0, b1, b2)  # its quadratic root: exact for one term, a lower bound for two

    def slope(p):  # the weighted slope times 2 ln 2, and its derivative in p
        t1, t2 = u1 / ((1 + a * p) * (1 + b1 * p)), u2 / ((1 + a * p) * (1 + b2 * p))
        da = a / (1 + a * p)
        return t1 + t2, -t1 * (da + b1 / (1 + b1 * p)) - t2 * (da + b2 / (1 + b2 * p))

    def powers(mu):
        active = u > mu
        k = np.where(active, u / mu, 1.0)
        p = 2 * (k - 1) / np.where(active, (a + b) + np.sqrt((a - b) ** 2 + 4 * a * b * k), 1.0)
        for _ in range(100):
            s, ds = slope(p)
            step = np.divide(mu - s, ds, out=np.zeros_like(p), where=active)
            p = np.maximum(p + step, 0.0)
            if np.all(np.abs(step) <= _POWER_STOP * (p + total)):
                break
        return p, np.divide(1.0, ds, out=np.zeros_like(p), where=active)

    at_total = slope(total)[0]
    mu = at_total.max(axis=1, keepdims=True)
    held = (at_total == u) & (u == mu)  # a top slope flat over [0, P] in float holds mu there
    lowest = np.where(held.any(axis=1, keepdims=True), 0.0, -np.inf)  # a held mu does not fall
    for _ in range(100):
        p, dp = powers(mu)
        dp = dp.sum(axis=1, keepdims=True)
        step = np.maximum(np.divide(total - p.sum(axis=1, keepdims=True), dp,
                                    out=np.zeros_like(dp), where=dp != 0), lowest)
        mu = mu + step
        if np.all(np.abs(step) <= _LEVEL_STOP * mu):
            break
    held &= mu == u  # where mu stayed held, the held subchannels share the rest
    if held.any():  # -slope'/slope at 0 is a + the u-weighted mean of b1 and b2
        fall = a + np.divide(u1 * b1 + u2 * b2, u, out=np.full_like(u, np.inf), where=held)
        share = np.divide(fall.min(axis=1, keepdims=True), fall, out=np.zeros_like(u), where=held)
        rest = np.maximum(total - p.sum(axis=1, keepdims=True), 0.0) * share
        p = p + np.divide(rest, share.sum(axis=1, keepdims=True), out=np.zeros_like(u), where=held)
    return p / p.sum(axis=1, keepdims=True) * ch.total_power


def _trace_frontier(ch: ParallelGaussChannel, left: tuple, right: tuple) -> np.ndarray:
    """Pareto frontier from the max-sum end ``left`` to the max-R1 end ``right``.

    Each round splits every open chord at the exact maximizer of the
    weighted objective normal to it, in one vectorized solve.  No pair lies
    above that maximizer's supporting line, so the line's height above the
    chord bounds its sag; chords within FRONTIER_SAG are closed.
    """
    pts = [np.array([left, right])]
    chords = np.array([[*left, *right]])
    for _ in range(80):  # a guard: chords reach float resolution within ~30 rounds
        chords = chords[(chords[:, 2] > chords[:, 0]) & (chords[:, 1] > chords[:, 3])]
        if not len(chords):
            break
        xi, yi, xj, yj = chords.T
        slope = (yi - yj) / (xj - xi)
        new = np.column_stack(_cap_pairs(ch, _waterfill(ch, slope, np.ones_like(slope))))
        x, y = new.T
        inside = (x > xi) & (x < xj)  # on or past a chord's end: that end, rounded
        pts.append(new[inside])
        split = inside & (slope * (x - xi) + (y - yi) > FRONTIER_SAG)
        chords = np.vstack([np.column_stack([chords[split, :2], new[split]]),
                            np.column_stack([new[split], chords[split, 2:]])])
    pts = np.unique(np.vstack(pts), axis=0)  # sorted by cap_high, then cap_low
    later_max = np.append(np.maximum.accumulate(pts[::-1, 1])[::-1][1:], -np.inf)
    return pts[pts[:, 1] > later_max]  # Pareto filter


def region_parallel_total(ch: ParallelGaussChannel) -> dict:
    """The ``region parallel-total`` report, by exact secrecy water-filling.

    Keys: ``max_r1`` and ``max_sum``, the largest high-security and sum
    rates under the pooled budget; ``alloc_max_r1`` and ``alloc_max_sum``,
    the allocations (lists) that reach them; and ``embedding_gap``, the
    height of the would-be corner (max_r1, max_sum - max_r1) above the
    boundary, whose best sum rate at R1 = max_r1 is the low-security sum at
    the only allocation reaching max_r1.  A positive gap means the channel
    is not perfectly embeddable under the pooled power constraint.

    The extreme allocations are single-objective ``_waterfill`` solves.  An
    objective with no subchannel of a > b is flat: the low one then takes
    the equal split and the high one the low one's allocation, so the gap
    is 0.
    """
    total, dims = ch.total_power, ch.n_sub
    alloc_sum = alloc_r1 = [total / dims] * dims
    if total > 0 and any(a > w for a, w in zip(ch.a, ch.b2)):
        both = any(a > s for a, s in zip(ch.a, ch.b1))  # else the high objective is flat
        rows = _waterfill(ch, [0.0, 1.0][:1 + both], [1.0, 0.0][:1 + both]).tolist()
        alloc_sum, alloc_r1 = rows[0], rows[-1]
    high, low = _cap_pairs(ch, [alloc_r1, alloc_sum])
    max_r1, max_sum = float(high[0]), float(low[1])
    return {"max_r1": max_r1, "max_sum": max_sum,
            "alloc_max_r1": list(alloc_r1), "alloc_max_sum": list(alloc_sum),
            "embedding_gap": (max_sum - max_r1) - max(float(low[0]) - max_r1, 0.0)}


def pooled_frontier(ch: ParallelGaussChannel, report: dict) -> np.ndarray:
    """Upper boundary of the pooled-power region of ``region_parallel_total(ch)``.

    (cap_high_sum, cap_low_sum) vertices by increasing cap_high, from the
    report's max_sum to its max_r1, traced from its two allocations, with no
    achievable pair over FRONTIER_SAG bits above their polyline.  Tracing
    costs tens of times the report.
    """
    high, low = _cap_pairs(ch, [report["alloc_max_sum"], report["alloc_max_r1"]])
    return _trace_frontier(ch, (high[0], report["max_sum"]), (report["max_r1"], low[1]))
