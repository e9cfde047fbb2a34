"""Channel-triple tests: degradation witnesses and exact region points."""

import itertools
import math

import numpy as np
import pytest

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


def test_region_point_simple_point_mass():
    ch = DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(0.5),
                               dmc.bec_kernel(0.9))
    b = dmc.region_point_simple(ch, [1.0, 0.0])
    assert b.r1_max == 0.0 and b.sum_max == 0.0


def test_region_point_simple_reference_channel():
    # Y noiseless, Z1 a coin flip independent of X, Z2 constant
    ch = DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bsc_kernel(0.5),
                               CONSTANT)
    b = dmc.region_point_simple(ch, [0.5, 0.5])
    assert b.r1_max == pytest.approx(1.0, abs=1e-12)
    assert b.sum_max == pytest.approx(1.0, abs=1e-12)


def test_region_point_simple_strong_eavesdropper_equals_y():
    ch = DmcTriple.independent(dmc.bsc_kernel(0.1), dmc.bsc_kernel(0.1),
                               dmc.bsc_kernel(0.4))
    # identical marginals for Y and Z1: R1 bound collapses to 0
    b = dmc.region_point_simple(ch, [0.5, 0.5])
    assert b.r1_max == pytest.approx(0.0, abs=1e-12)
    assert b.sum_max > 0


def test_region_point_simple_bec_corner():
    ch = DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(0.5),
                               dmc.bec_kernel(0.9))
    b = dmc.region_point_simple(ch, [0.5, 0.5])
    assert b.r1_max == pytest.approx(0.5, abs=1e-12)
    assert b.sum_max == pytest.approx(0.9, abs=1e-12)


def test_region_point_full_constant_u_matches_simple():
    rng = np.random.default_rng(33)
    for _ in range(100):
        ch = random_triple(rng, nz1=3, nz2=2)
        px = rng.dirichlet(np.ones(2))
        aux = AuxiliaryChain(pu=[1.0], pv_u=[px.tolist()], px_v=np.eye(2))
        full = dmc.region_point_full(ch, aux)
        simple = dmc.region_point_simple(ch, px)
        assert full.r1_max == pytest.approx(simple.r1_max, abs=1e-10)
        assert full.sum_max == pytest.approx(simple.sum_max, abs=1e-10)
        assert full.side_condition_ok  # I(U;.) = 0 on both sides


def test_region_point_full_v_equals_u_kills_r1():
    rng = np.random.default_rng(5)
    ch = random_triple(rng)
    aux = AuxiliaryChain(pu=[0.4, 0.6], pv_u=np.eye(2), px_v=[[0.8, 0.2], [0.3, 0.7]])
    b = dmc.region_point_full(ch, aux)
    assert b.r1_max == pytest.approx(0.0, abs=1e-10)


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
    assert rep.embeddable
    assert rep.perfectly_embeddable
    uniform = dmc.region_point_simple(ch, [0.5, 0.5])
    assert rep.best_sum == pytest.approx(uniform.sum_max, abs=1e-12)
    assert rep.best_r1_at_best_sum == pytest.approx(uniform.r1_max, abs=1e-12)


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
    assert full_power.r1_max == pytest.approx(gauss.cs_scalar(1, 1, 0.5), abs=0.02)
    assert full_power.sum_max == pytest.approx(gauss.cs_scalar(1, 1, 0.1), abs=0.02)
    # among quantized-Gaussian candidates the full-power one certifies
    # perfect embedding, as the scalar Gaussian region predicts
    rep = dmc.embeddability_report(
        triple, px_candidates=[px(p) for p in (0.25, 0.5, 1.0)], tol=1e-9)
    assert rep.embeddable and rep.perfectly_embeddable
    assert rep.best_sum == pytest.approx(full_power.sum_max, abs=1e-12)


def test_embeddability_report_strong_equals_y_blocks_r1():
    ch = DmcTriple.independent(dmc.bsc_kernel(0.1), dmc.bsc_kernel(0.1),
                               dmc.bsc_kernel(0.3))
    candidates = [np.array([q, 1 - q]) for q in np.linspace(0.1, 0.9, 9)]
    rep = dmc.embeddability_report(ch, px_candidates=candidates)
    assert not rep.embeddable
    assert rep.best_r1_overall == pytest.approx(0.0, abs=1e-12)


def test_embeddability_report_empty():
    rng = np.random.default_rng(2)
    rep = dmc.embeddability_report(random_triple(rng))
    assert not rep.embeddable and not rep.perfectly_embeddable
    assert rep.evaluations == ()


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
