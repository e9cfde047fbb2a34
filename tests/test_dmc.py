"""Channel-triple tests: degradation witnesses and exact region points."""

import itertools
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secembed import dmc
from secembed.dmc import AuxiliaryChain, DmcTriple

CONSTANT = np.ones((2, 1))  # a binary-input kernel whose one sure output carries nothing


def mi_oracle(joint):
    """Independent double-loop mutual information in bits."""
    joint = np.asarray(joint, dtype=float)
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    total = 0.0
    for i, j in itertools.product(range(joint.shape[0]), range(joint.shape[1])):
        if joint[i, j] > 0:
            total += joint[i, j] * math.log2(joint[i, j] / (pa[i] * pb[j]))
    return total


def random_triple(rng, nx=2, ny=2, nz1=2, nz2=2):
    p = rng.uniform(0.05, 1.0, size=(nx, ny, nz1, nz2))
    p /= p.sum(axis=(1, 2, 3), keepdims=True)
    return DmcTriple(p)


def test_tensor_validation():
    with pytest.raises(ValueError):
        DmcTriple(np.ones((2, 2, 2, 2)))
    with pytest.raises(ValueError, match=r"^transition tensor must have axes \(x, y, z1, z2\)$"):
        DmcTriple(np.ones((2, 1)))
    bad = np.zeros((2, 2, 2, 2))
    bad[:, 0, 0, 0] = 1.0
    bad[0, 0, 0, 0] = 1.0 + 1e-6
    with pytest.raises(ValueError):
        DmcTriple(bad)


def test_mi_matches_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        j = rng.uniform(0, 1, size=(3, 4))
        j /= j.sum()
        assert dmc.mi_bits(j) == pytest.approx(mi_oracle(j), abs=1e-12)


def test_degraded_erasure_composition():
    # the weaker eavesdropper sees extra erasures on top of the stronger one
    ch = DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(0.3),
                               dmc.bec_kernel(0.58))
    res = dmc.check_degraded(ch, "z2_of_z1")
    assert res.degraded
    # witness reproduces p(z2|x) exactly
    rebuilt = ch.pz1_x @ res.witness
    assert np.allclose(rebuilt, ch.pz2_x, atol=1e-7)
    # known extra-erasure kernel: pass with probability 0.6, erase 0.4
    want = np.array([[0.6, 0.0, 0.4], [0.0, 0.6, 0.4], [0.0, 0.0, 1.0]])
    assert np.allclose(res.witness, want, atol=1e-6)


def test_degraded_identity_witness():
    ch = DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(0.4),
                               dmc.bec_kernel(0.4))
    res = dmc.check_degraded(ch, "z2_of_z1")
    assert res.degraded
    assert np.allclose(ch.pz1_x @ res.witness, ch.pz2_x, atol=1e-7)


def test_not_degraded_information_creation():
    # strong output constant, weak output reveals x: impossible ordering
    ch = DmcTriple.independent(dmc.noiseless_kernel(2), CONSTANT,
                               dmc.noiseless_kernel(2))
    res = dmc.check_degraded(ch, "z2_of_z1")
    assert not res.degraded
    assert res.residual > 0.1


def test_degraded_of_y_variants():
    ch = DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(0.5),
                               dmc.bec_kernel(0.9))
    assert dmc.check_degraded(ch, "z1_of_y").degraded
    assert dmc.check_degraded(ch, "z2_of_y").degraded
    with pytest.raises(ValueError):
        dmc.check_degraded(ch, "y_of_z1")


def highs_residual(src, tgt):
    """The best max|src·W − tgt| over row-stochastic W, by scipy's HiGHS: the oracle."""
    from scipy.optimize import linprog

    nx, ns = src.shape
    nt = tgt.shape[1]
    # variables: W row-major, then the bound t on every |(src·W − tgt)[x, t']|
    m = np.kron(src, np.eye(nt))
    t_col = np.ones((nx * nt, 1))
    a_ub = np.vstack([np.hstack([m, -t_col]), np.hstack([-m, -t_col])])
    b_ub = np.concatenate([tgt.reshape(-1), -tgt.reshape(-1)])
    a_eq = np.hstack([np.kron(np.eye(ns), np.ones(nt)), np.zeros((ns, 1))])
    c = np.zeros(ns * nt + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.ones(ns), bounds=(0, None),
                  method="highs")
    assert res.success
    return float(res.x[-1])


def random_kernel(rng, rows, cols):
    """A row-stochastic matrix, with about a third of its entries zero half the time."""
    w = rng.dirichlet(np.ones(cols), size=rows)
    if rng.random() < 0.5:
        w[rng.random(w.shape) < 0.3] = 0.0
        w[w.sum(axis=1) == 0, 0] = 1.0
        w /= w.sum(axis=1, keepdims=True)
    return w


def verdict(src, tgt):
    """check_degraded on the pair, after checking its certificate independently."""
    ch = DmcTriple.independent(src, src, tgt)
    res = dmc.check_degraded(ch, "z2_of_z1")
    src, tgt = ch.pz1_x, ch.pz2_x  # the kernels as the channel holds them
    if res.degraded:
        w = res.witness
        assert res.dual is None
        assert (w >= 0).all() and np.allclose(w.sum(axis=1), 1.0, atol=1e-15, rtol=0)
        assert res.residual == np.abs(src @ w - tgt).max() <= 1e-9
    else:
        assert res.witness is None and res.dual.shape == tgt.shape
        assert res.residual == dmc._dual_bound(src, tgt, res.dual) > 0
    return res


def test_verdicts_agree_with_highs_on_random_pairs():
    """1200 pairs over 2-4 symbols, half degraded by construction: the same verdicts as
    HiGHS's optimum read at _DEGRADED_TOL, and every bound at most that optimum."""
    rng = np.random.default_rng(40)
    verdicts = []
    for _ in range(1200):
        nx, ns, nt = rng.integers(2, 5, size=3)
        src = random_kernel(rng, nx, ns)
        tgt = src @ random_kernel(rng, ns, nt) if rng.random() < 0.5 else random_kernel(
            rng, nx, nt)
        best = highs_residual(src, tgt)
        res = verdict(src, tgt)
        assert res.degraded == (best <= dmc._DEGRADED_TOL), (src, tgt, best)
        if not res.degraded:
            assert res.residual <= best + 1e-12
        verdicts.append(res.degraded)
    assert 300 < sum(verdicts) < 900  # both verdicts are well represented


def stochastic(rows, cols):
    """Row-stochastic rows x cols matrices, drawn as weights normalized per row."""
    weights = st.lists(st.floats(0, 1), min_size=cols, max_size=cols).filter(
        lambda row: sum(row) > 1e-3)
    return st.lists(weights, min_size=rows, max_size=rows).map(
        lambda m: np.array(m) / np.sum(m, axis=1, keepdims=True))


@st.composite
def dual_cases(draw):
    nx, ns, nt = (draw(st.integers(1, 4)) for _ in range(3))
    y = np.array(draw(st.lists(st.floats(-1e300, 1e300), min_size=nx * nt,
                               max_size=nx * nt).filter(any))).reshape(nx, nt)
    return (draw(stochastic(nx, ns)), draw(stochastic(nx, nt)), y,
            draw(stochastic(ns, nt)))


@settings(max_examples=300)
@given(case=dual_cases())
# a subnormal Y: unscaled, 0.8 * 5e-324 rounds up to 5e-324 and each 0.3 or 0.4 * 5e-324
# down to 0, so the bound would read 1 where W reaches residual 0
@example(case=(np.array([[0.3, 0.3, 0.4]]), np.array([[0.8, 0.2]]), np.array([[5e-324, 0.0]]),
               np.array([[0.8, 0.2]] * 3)))
def test_property_dual_bound_never_exceeds_any_kernels_residual(case):
    src, tgt, y, w = case
    assert dmc._dual_bound(src, tgt, y) <= np.abs(src @ w - tgt).max() + 1e-12


@pytest.mark.parametrize("d1", [0.0, 0.25, 0.4, 0.75, 1.0])
def test_bec_is_degraded_from_bec_iff_it_erases_more(d1):
    for d2 in (0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 0.9, 1.0):
        res = verdict(dmc.bec_kernel(d1), dmc.bec_kernel(d2))
        assert res.degraded == (d2 >= d1), (d1, d2)


@pytest.mark.parametrize("p1", [0.0, 0.1, 0.25, 0.4, 0.5])
def test_bsc_is_degraded_from_bsc_iff_its_flip_lies_between_p1_and_1_minus_p1(p1):
    for p2 in (0.0, 0.05, 0.1, 0.25, 0.4, 0.45, 0.5, 0.6, 0.75, 0.9, 1.0, 1 - p1):
        res = verdict(dmc.bsc_kernel(p1), dmc.bsc_kernel(p2))
        assert res.degraded == (p1 <= p2 <= 1 - p1), (p1, p2)


def roc_gap(src, tgt):
    """The exact degradation verdict for binary inputs, in Fractions (Blackwell, 1953): tgt
    is a degradation of src iff tgt's ROC curve lies on or under src's, iff this is <= 0.

    A kernel's ROC curve is its columns (p(.|0), p(.|1)) sorted by likelihood ratio, largest
    first, then summed cumulatively into vertices (x, y) = (Σ p(.|1), Σ p(.|0)).  It is
    concave, so tgt's lies under src's iff h_tgt(g) <= h_src(g) for every g >= 0, where
    h(g) = max (y − g·x) over the vertices.  h_tgt − h_src is linear in g between the two
    curves' slopes and constant past the last, so the gap, the largest (h_tgt − h_src)/(1 + g),
    is reached at 0 or at a slope."""
    def roc(rows):
        cols = sorted((c for c in zip(*rows) if any(c)), key=lambda c: c[0] / (c[0] + c[1]),
                      reverse=True)
        vertices = [(Fraction(0), Fraction(0))]
        for p0, p1 in cols:
            vertices.append((vertices[-1][0] + p1, vertices[-1][1] + p0))
        return vertices

    curves = roc(src), roc(tgt)
    slopes = {p0 / p1 for rows in (src, tgt) for p0, p1 in zip(*rows) if p1} | {Fraction(0)}

    def support(vertices, g):
        return max(y - g * x for x, y in vertices)

    return max((support(curves[1], g) - support(curves[0], g)) / (1 + g) for g in slopes)


def bsc_fraction(p):
    return [[1 - p, p], [p, 1 - p]]


def bec_fraction(e):
    return [[1 - e, 0, e], [0, 1 - e, e]]


def as_floats(rows):
    return np.array(rows, dtype=float)


@pytest.mark.parametrize("e, degraded", [(Fraction(1, 5), True), (Fraction(21, 100), False)])
def test_bsc_is_degraded_from_bec_iff_it_erases_at_most_twice_its_flip(e, degraded):
    """Nair's threshold at p = 1/10 (IEEE T-IT 56(9), 2010): BSC(p) is a degradation of
    BEC(e) iff e <= 2p.  The exact verdict holds of the rational pair; check_degraded,
    given its float images, agrees."""
    src, tgt = bec_fraction(e), bsc_fraction(Fraction(1, 10))
    assert (roc_gap(src, tgt) <= 0) == degraded
    assert verdict(as_floats(src), as_floats(tgt)).degraded == degraded


def test_exact_verdict_reads_a_float_as_the_rational_it_stores():
    # 1 - 0.9 != 0.1 in binary: read exactly, BSC(0.9) is no degradation of BSC(0.1), while
    # check_degraded finds a witness within 3e-17
    src, tgt = ([[Fraction(v) for v in row] for row in dmc.bsc_kernel(flip)] for flip in (0.1, 0.9))
    assert roc_gap(src, tgt) > 0
    assert verdict(dmc.bsc_kernel(0.1), dmc.bsc_kernel(0.9)).degraded


def rational_kernel(rows, cols):
    """rows x cols row-stochastic matrices of Fractions, from small integer weights."""
    weights = st.lists(st.integers(0, 12), min_size=cols, max_size=cols).filter(any)
    return st.lists(weights, min_size=rows, max_size=rows).map(
        lambda m: [[Fraction(w, sum(row)) for w in row] for row in m])


@st.composite
def binary_pairs(draw):
    """A binary-input (src, tgt) pair with 2-5 outputs each, half of them tgt = src·K."""
    ns, nt = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    src = draw(rational_kernel(2, ns))
    if not draw(st.booleans()):
        return src, draw(rational_kernel(2, nt))
    k = draw(rational_kernel(ns, nt))
    return src, [[sum(row[s] * k[s][t] for s in range(ns)) for t in range(nt)] for row in src]


@settings(max_examples=300)
@given(pair=binary_pairs())
def test_property_check_degraded_agrees_with_the_exact_roc_verdict(pair):
    """Exactly degraded rational pairs are degraded; pairs past a margin are not.

    The margin: given a row-stochastic W with max|src·W − tgt| <= r, src·W's curve lies under
    src's, and each vertex of tgt's lies within nt·r in x and in y of the same columns' sums
    under src·W, so h_tgt − h_src <= nt·r·(1 + g).  A degraded verdict gives such a W with r
    at most _DEGRADED_TOL on the float images, which lie within 1e-15 of the rationals, as
    W's row sums lie within 1e-15 of 1; so a gap over 2·nt·_DEGRADED_TOL rules it out."""
    src, tgt = pair
    gap = roc_gap(src, tgt)
    res = verdict(as_floats(src), as_floats(tgt))
    if gap <= 0:
        assert res.degraded, (src, tgt)
    elif gap > 2 * len(tgt[0]) * dmc._DEGRADED_TOL:
        assert not res.degraded, (src, tgt, gap)


@pytest.mark.parametrize("what", ["p(v|u)", "p(y,z1,z2|x)"])
def test_kernel_rows_take_the_distribution_rule(what):
    """Each row of a kernel or a channel tensor meets the rule of test_one_distribution_rule;
    a kernel is kept as given, its tiny negative entries included."""
    def check(row):
        if what == "p(v|u)":
            return AuxiliaryChain(pu=[0.5, 0.5], pv_u=[[1.0, 0.0], row], px_v=np.eye(2)).pv_u
        return DmcTriple(np.array([[1.0, 0.0], row]).reshape(2, 2, 1, 1)).p.reshape(2, 2)

    for row in ([1.0, -1e-12], [0.5, 0.5000000001], [0.5, 0.5 - 9e-10]):
        assert check(row).tolist() == [[1.0, 0.0], row]
    for row, fault in (([1.0, -2e-12], "has negative entries"),
                       ([0.5, 0.5 + 2e-9], "rows must sum to 1 within 1e-09"),
                       ([0.5, 0.5 - 2e-9], "rows must sum to 1 within 1e-09")):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{what} {fault}')}$"):
            check(row)


def test_degradation_solve_names_its_step_cap(monkeypatch):
    ch = DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(0.3),
                               dmc.bec_kernel(0.58))
    monkeypatch.setattr(dmc, "NNLS_STEPS", 1)
    with pytest.raises(RuntimeError, match=re.escape("dmc.NNLS_STEPS = 1")):
        dmc.check_degraded(ch)


def test_check_degraded_imports_no_scipy():
    src = str(Path(dmc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys; from secembed import dmc; "
         "ch = dmc.DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(0.3), "
         "dmc.bec_kernel(0.58)); "
         "print(dmc.check_degraded(ch).degraded, dmc.check_degraded(ch, 'z1_of_y').degraded, "
         "*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True, env=env).stdout.split()
    assert loaded == ["True", "True"]


def test_region_point_simple_point_mass():
    ch = DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(0.5),
                               dmc.bec_kernel(0.9))
    b = dmc.region_point_simple(ch, [1.0, 0.0])
    assert b["r1_max"] == 0.0 and b["sum_max"] == 0.0


def test_region_point_simple_reference_channel():
    # Y noiseless, Z1 a coin flip independent of X, Z2 constant
    ch = DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bsc_kernel(0.5),
                               CONSTANT)
    b = dmc.region_point_simple(ch, [0.5, 0.5])
    assert b["r1_max"] == pytest.approx(1.0, abs=1e-12)
    assert b["sum_max"] == pytest.approx(1.0, abs=1e-12)


def test_region_point_simple_strong_eavesdropper_equals_y():
    ch = DmcTriple.independent(dmc.bsc_kernel(0.1), dmc.bsc_kernel(0.1),
                               dmc.bsc_kernel(0.4))
    # identical marginals for Y and Z1: R1 bound collapses to 0
    b = dmc.region_point_simple(ch, [0.5, 0.5])
    assert b["r1_max"] == pytest.approx(0.0, abs=1e-12)
    assert b["sum_max"] > 0


def test_region_point_simple_bec_corner():
    ch = DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(0.5),
                               dmc.bec_kernel(0.9))
    b = dmc.region_point_simple(ch, [0.5, 0.5])
    assert b["r1_max"] == pytest.approx(0.5, abs=1e-12)
    assert b["sum_max"] == pytest.approx(0.9, abs=1e-12)


def test_region_point_full_constant_u_matches_simple():
    rng = np.random.default_rng(33)
    for _ in range(100):
        ch = random_triple(rng, nz1=3, nz2=2)
        px = rng.dirichlet(np.ones(2))
        aux = AuxiliaryChain(pu=[1.0], pv_u=[px.tolist()], px_v=np.eye(2))
        full = dmc.region_point_full(ch, aux)
        simple = dmc.region_point_simple(ch, px)
        assert full["r1_max"] == pytest.approx(simple["r1_max"], abs=1e-10)
        assert full["sum_max"] == pytest.approx(simple["sum_max"], abs=1e-10)
        assert full["side_condition_ok"]  # I(U;.) = 0 on both sides


def test_region_point_full_rejects_chain_over_wrong_alphabet():
    ch = random_triple(np.random.default_rng(4))
    aux = AuxiliaryChain(pu=[1.0], pv_u=[[0.5, 0.5]], px_v=[[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
    with pytest.raises(ValueError, match="auxiliary chain does not match the channel input"):
        dmc.region_point_full(ch, aux)


def test_region_point_full_v_equals_u_kills_r1():
    rng = np.random.default_rng(5)
    ch = random_triple(rng)
    aux = AuxiliaryChain(pu=[0.4, 0.6], pv_u=np.eye(2), px_v=[[0.8, 0.2], [0.3, 0.7]])
    b = dmc.region_point_full(ch, aux)
    assert b["r1_max"] == pytest.approx(0.0, abs=1e-10)


def test_data_processing_along_declared_degradation():
    rng = np.random.default_rng(9)
    for _ in range(50):
        w1 = rng.dirichlet(np.ones(3), size=2)
        extra = rng.dirichlet(np.ones(2), size=3)
        w2 = w1 @ extra  # z2 made from z1: degraded by construction
        ch = DmcTriple.independent(dmc.noiseless_kernel(2), w1, w2)
        assert dmc.check_degraded(ch, "z2_of_z1").degraded
        px = rng.dirichlet(np.ones(2))
        i1 = dmc.mi_bits(px[:, None] * ch.pz1_x)
        i2 = dmc.mi_bits(px[:, None] * ch.pz2_x)
        assert i2 <= i1 + 1e-10


def test_embeddability_report_discretized_gaussian_like():
    # quantized symmetric channel family: strong eavesdropper noisier than
    # legitimate but cleaner than weak; uniform input is simultaneously best
    ch = DmcTriple.independent(dmc.bsc_kernel(0.05), dmc.bsc_kernel(0.2),
                               dmc.bsc_kernel(0.45))
    candidates = [np.array([q, 1 - q]) for q in np.linspace(0.05, 0.95, 19)]
    rep = dmc.embeddability_report(ch, px_candidates=candidates)
    assert rep["embeddable"]
    assert rep["perfectly_embeddable"]
    uniform = dmc.region_point_simple(ch, [0.5, 0.5])
    assert rep["best_sum"] == pytest.approx(uniform["sum_max"], abs=1e-12)
    assert rep["best_r1_at_best_sum"] == pytest.approx(uniform["r1_max"], abs=1e-12)


def quantized_gaussian_triple(a, b1, b2, n_in=41, n_out=81, span=4.5):
    """Discretize the scalar Gaussian triple onto finite grids.

    Inputs are mass points of a standard normal scaled by sqrt(power)
    at evaluation time; outputs are equal-width bins of each sqrt(gain)
    scaled observation with unit noise.
    """
    from scipy.stats import norm

    x = np.linspace(-span, span, n_in)
    edges = np.linspace(-2 * span, 2 * span, n_out - 1)

    def kernel(gain):
        centers = np.sqrt(gain) * x
        cdf = norm.cdf(edges[None, :] - centers[:, None])
        probs = np.diff(np.concatenate(
            [np.zeros((n_in, 1)), cdf, np.ones((n_in, 1))], axis=1), axis=1)
        return probs

    triple = DmcTriple.independent(kernel(a), kernel(b1), kernel(b2))

    def px(power):
        w = norm.pdf(x / np.sqrt(power))
        return w / w.sum()

    return triple, px


def test_embeddability_discretized_gaussian_matches_closed_form():
    from secembed import gauss

    triple, px = quantized_gaussian_triple(1.0, 0.5, 0.1)
    full_power = dmc.region_point_simple(triple, px(1.0))
    # discretized evaluation approaches the closed-form capacities
    assert full_power["r1_max"] == pytest.approx(gauss.cs_scalar(1, 1, 0.5), abs=0.02)
    assert full_power["sum_max"] == pytest.approx(gauss.cs_scalar(1, 1, 0.1), abs=0.02)
    # among quantized-Gaussian candidates the full-power one certifies
    # perfect embedding, as the scalar Gaussian region predicts
    rep = dmc.embeddability_report(
        triple, px_candidates=[px(p) for p in (0.25, 0.5, 1.0)])
    assert rep["embeddable"] and rep["perfectly_embeddable"]
    assert rep["best_sum"] == pytest.approx(full_power["sum_max"], abs=1e-12)


def test_embeddability_report_strong_equals_y_blocks_r1():
    ch = DmcTriple.independent(dmc.bsc_kernel(0.1), dmc.bsc_kernel(0.1),
                               dmc.bsc_kernel(0.3))
    candidates = [np.array([q, 1 - q]) for q in np.linspace(0.1, 0.9, 9)]
    rep = dmc.embeddability_report(ch, px_candidates=candidates)
    assert not rep["embeddable"]
    assert rep["best_r1_overall"] == pytest.approx(0.0, abs=1e-12)


def test_embeddability_report_excludes_chains_failing_the_side_condition():
    # X = (A, B), two bits: Y sees A through a BSC(0.1) and B cleanly, Z1 = Z2 = A.
    # The chain U = A, V = X has I(U;Y) < I(U;Z2), and an R1 bound of 1 bit
    # above the uniform input's 1 - h(0.1).
    bsc = dmc.bsc_kernel(0.1)
    py_x = np.zeros((4, 4))
    for a, b, flip in itertools.product(range(2), repeat=3):
        py_x[2 * a + b, 2 * (a ^ flip) + b] = bsc[0, flip]
    pz_x = np.repeat(np.eye(2), 2, axis=0)
    ch = DmcTriple.independent(py_x, pz_x, pz_x)
    chain = AuxiliaryChain(pu=[0.5, 0.5], pv_u=[[0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5]],
                           px_v=np.eye(4))
    uniform = dmc.region_point_simple(ch, [0.25] * 4)
    rep = dmc.embeddability_report(ch, px_candidates=[[0.25] * 4], aux_candidates=[chain])
    assert rep["evaluations"] == [uniform, dmc.region_point_full(ch, chain)]
    assert rep["evaluations"][1]["side_condition_ok"] is False
    assert rep["evaluations"][1]["r1_max"] == pytest.approx(1.0, abs=1e-12)
    assert rep["best_r1_overall"] == uniform["r1_max"] == pytest.approx(0.531004406, abs=1e-9)
    assert rep["best_sum"] == uniform["sum_max"]
    assert rep["perfectly_embeddable"]


def test_embeddability_report_empty():
    rng = np.random.default_rng(2)
    rep = dmc.embeddability_report(random_triple(rng))
    assert not rep["embeddable"] and not rep["perfectly_embeddable"]
    assert rep["evaluations"] == []


def test_channel_dict_roundtrip():
    rng = np.random.default_rng(12)
    ch = random_triple(rng, nx=2, ny=3, nz1=2, nz2=2)
    back = DmcTriple.from_dict(ch.to_dict())
    assert np.allclose(back.p, ch.p, atol=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_distributions_reject_non_finite_entries(bad):
    ch = DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(0.5),
                               dmc.bec_kernel(0.9))
    with pytest.raises(ValueError, match="px must be a distribution of finite entries"):
        dmc.region_point_simple(ch, [bad, 1.0])
    with pytest.raises(ValueError, match=r"p\(u\) must be a distribution of finite entries"):
        AuxiliaryChain(pu=[bad], pv_u=[[0.5, 0.5]], px_v=np.eye(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kernels_reject_non_finite_entries(bad):
    p = np.zeros((2, 2, 2, 2))
    p[:, 0, 0, 0] = 1.0
    p[0, 0, 0, 0] = bad
    with pytest.raises(ValueError, match=r"p\(y,z1,z2\|x\) has non-finite entries"):
        DmcTriple(p)
    with pytest.raises(ValueError, match=r"p\(v\|u\) has non-finite entries"):
        AuxiliaryChain(pu=[1.0], pv_u=[[bad, 1.0]], px_v=np.eye(2))
    with pytest.raises(ValueError, match=r"p\(x\|v\) has non-finite entries"):
        AuxiliaryChain(pu=[1.0], pv_u=[[0.5, 0.5]], px_v=[[1.0, 0.0], [bad, 1.0]])


@pytest.mark.parametrize("what", ["px", "p(u)"])
def test_one_distribution_rule(what):
    """Entries >= -1e-12 read as 0 past it, and a sum within 1e-9 of 1, for px and p(u)."""
    ch = DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(0.5),
                               dmc.bec_kernel(0.9))

    def check(p):
        if what == "px":
            return dmc.region_point_simple(ch, p)
        return AuxiliaryChain(pu=p, pv_u=np.eye(2), px_v=np.eye(2)).pu

    for p in ([1.0, -1e-12], [1.0, -1e-13], [0.5, 0.5000000001], [0.5, 0.5 - 9e-10]):
        check(p)
    for p in ([1.0, -2e-12], [0.5, 0.5 + 2e-9], [0.5, 0.5 - 2e-9]):
        with pytest.raises(ValueError, match=re.escape(f"{what} must be a distribution")):
            check(p)


def test_tiny_negative_px_reads_as_zero():
    ch = DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(0.5),
                               dmc.bec_kernel(0.9))
    # the negative entry once reached the information sums: raw_r1 was -2.2e-14
    assert dmc.region_point_simple(ch, [1.0, -1e-13]) == dmc.region_point_simple(ch, [1.0, 0.0])
    assert dmc.region_point_simple(ch, [1.0, -1e-13])["raw_r1"] == 0.0
    assert dmc._check_distribution([1.0, -1e-13], "px").tolist() == [1.0, 0.0]


@pytest.mark.parametrize("bad", [[True, False], ["0.5", "0.5"], [None, 1.0], [10**400, 1],
                                 [[1.0], [0.5, 0.5]], [0.5 + 0j, 0.5],
                                 [True, 0.0], [0.0, np.True_]])
def test_distribution_and_kernel_must_be_numbers(bad):
    with pytest.raises(ValueError, match=r"^p\(u\) must be a 1-D vector of numbers$"):
        AuxiliaryChain(pu=bad, pv_u=np.eye(2), px_v=np.eye(2))
    with pytest.raises(ValueError, match=r"^p\(v\|u\) must be a 2-D matrix of numbers$"):
        AuxiliaryChain(pu=[0.5, 0.5], pv_u=[bad, bad], px_v=np.eye(2))


@pytest.mark.parametrize("pv_u, px_v, message", [
    (np.eye(3), np.eye(2), "p(v|u) must have 2 rows, one per input symbol"),
    ([[0.5, 0.25, 0.25]] * 2, np.eye(2), "p(x|v) must have 3 rows, one per input symbol"),
], ids=["p(v|u)", "p(x|v)"])
def test_chain_kernels_take_one_row_per_input_symbol(pv_u, px_v, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        AuxiliaryChain(pu=[0.5, 0.5], pv_u=pv_u, px_v=px_v)


def test_marginals_are_summed_once_and_read_only():
    ch = random_triple(np.random.default_rng(7), nx=2, ny=3, nz1=2, nz2=4)
    for name, axes in (("py_x", (2, 3)), ("pz1_x", (1, 3)), ("pz2_x", (1, 2))):
        kernel = getattr(ch, name)
        assert kernel is getattr(ch, name)
        assert np.array_equal(kernel, ch.p.sum(axis=axes))
        with pytest.raises(ValueError):
            kernel[0, 0] = 0.0
    with pytest.raises(TypeError):
        DmcTriple(ch.p, py_x=ch.py_x)


@pytest.mark.parametrize("kernels, message", [
    ((np.eye(2), np.eye(3), np.eye(2)), "p(z1|x) must have 2 rows, one per input symbol"),
    ((np.eye(2), np.eye(2), np.eye(3)), "p(z2|x) must have 2 rows, one per input symbol"),
    (([0.5, 0.5], np.eye(2), np.eye(2)), "p(y|x) must be a 2-D matrix of numbers"),
    ((np.eye(2), [0.5, 0.5], np.eye(2)), "p(z1|x) must be a 2-D matrix of numbers"),
    ((np.eye(2), np.eye(2), [[0.5, 0.6], [0.5, 0.5]]), "p(z2|x) rows must sum to 1"),
], ids=["z1-rows", "z2-rows", "y-1d", "z1-1d", "z2-not-stochastic"])
def test_independent_names_the_kernel(kernels, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        DmcTriple.independent(*kernels)


def test_independent_keeps_the_bits_of_a_valid_channel():
    rng = np.random.default_rng(3)
    kernels = [rng.dirichlet(np.ones(k), size=3) for k in (2, 3, 4)]
    kernels[0] = kernels[0].tolist()  # a list reads as np.asarray(..., dtype=float) does
    want = np.einsum("xy,xa,xb->xyab", *(np.asarray(w, dtype=float) for w in kernels))
    assert np.array_equal(DmcTriple.independent(*kernels).p, want)


@pytest.mark.parametrize("kernel, what", [(dmc.bec_kernel, "erasure"), (dmc.bsc_kernel, "flip")])
@pytest.mark.parametrize("bad", [1.5, -0.1, "0.5", True, None, math.nan])
def test_kernel_parameters_are_numbers_in_the_unit_interval(kernel, what, bad):
    if isinstance(bad, float) and not math.isnan(bad):  # a finite real outside [0, 1]
        message = f"{what} probability = {bad} must be {'<= 1' if bad > 1 else '>= 0'}"
    else:  # not a finite real: the scalar reader's
        message = f"{what} probability = {bad!r} must be a finite real number"
    with pytest.raises(ValueError, match=re.escape(message)):
        kernel(bad)
