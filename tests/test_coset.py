"""Coset-code tests: syndrome round trips and exact-equivocation oracles."""

import itertools
import math

import numpy as np
import pytest

from secembed import coset, gf2
from secembed.coset import CosetCodePair, WiretapIIParams


def parity_code():
    """Hand-built n=4 code: total parity on top, parity of positions {0,2} below."""
    params = WiretapIIParams(n=4, alpha1=0.75, alpha2=0.5, eps=0.0)
    h1 = np.array([[1, 1, 1, 1]], dtype=np.uint8)
    h2 = np.array([[1, 0, 1, 0]], dtype=np.uint8)
    return CosetCodePair(params=params, h1=h1, h2=h2, d1_star=1, d2_star=1)


def entropy(counts):
    total = sum(counts)
    return -sum((c / total) * math.log2(c / total) for c in counts if c)


def equivocation_oracle(code, observed, level):
    """Brute-force H(messages | observation) by enumerating every codeword.

    The stacked matrix has full row rank, so uniform messages plus a
    uniform coset choice make the transmitted word uniform on {0,1}^n.
    """
    n = code.n
    observed = sorted(observed)
    groups = {}
    for bits in itertools.product((0, 1), repeat=n):
        x = np.array(bits, dtype=np.uint8)
        m1, m2 = coset.decode(code, x)
        msg = m1 if level == "high" else (m1, m2)
        key = tuple(x[observed])
        groups.setdefault(key, []).append(msg)
    h = 0.0
    for msgs in groups.values():
        weight = len(msgs) / 2**n
        counts = {}
        for msg in msgs:
            counts[msg] = counts.get(msg, 0) + 1
        h += weight * entropy(list(counts.values()))
    return h


def test_params_validation():
    with pytest.raises(ValueError):
        WiretapIIParams(n=4, alpha1=0.25, alpha2=0.5, eps=0.0)  # alpha order
    with pytest.raises(ValueError):
        WiretapIIParams(n=4, alpha1=0.3, alpha2=0.1, eps=0.0)  # non-integer products
    p = WiretapIIParams(n=16, alpha1=0.5, alpha2=0.25, eps=0.25)
    assert (p.k1, p.k2, p.n_alpha1, p.n_alpha2) == (4, 4, 8, 4)
    assert p.r1 == pytest.approx(1 - 0.5 - 0.25)
    assert p.r2 == pytest.approx(0.5 - 0.25)


def test_encode_lands_in_hand_enumerated_coset():
    code = parity_code()
    # s1 = (1), s2 = (0): odd total parity, even parity on positions {0, 2}
    want = set()
    for bits in itertools.product((0, 1), repeat=4):
        if sum(bits) % 2 == 1 and (bits[0] + bits[2]) % 2 == 0:
            want.add(bits)
    assert len(want) == 4
    rng = np.random.default_rng(2)
    seen = set()
    for _ in range(80):
        x = coset.encode(code, 1, 0, rng)
        assert tuple(x) in want
        seen.add(tuple(x))
    assert seen == want  # every coset member is reachable


def test_decode_hand_example_and_zero():
    code = parity_code()
    assert coset.decode(code, [1, 0, 0, 0]) == (1, 1)
    assert coset.decode(code, [0, 0, 0, 0]) == (0, 0)


def test_encode_decode_roundtrip_exhaustive():
    params = WiretapIIParams(n=8, alpha1=0.5, alpha2=0.25, eps=0.25)
    code = coset.construct(params, seed=3)
    rng = np.random.default_rng(7)
    for m1 in range(2**code.k1):
        for m2 in range(2**code.k2):
            for _ in range(4):
                x = coset.encode(code, m1, m2, rng)
                assert coset.decode(code, x) == (m1, m2)


def test_encode_zero_messages_in_kernel():
    params = WiretapIIParams(n=8, alpha1=0.5, alpha2=0.25, eps=0.25)
    code = coset.construct(params, seed=5)
    rng = np.random.default_rng(0)
    x = coset.encode(code, 0, 0, rng)
    assert not ((code.stacked @ x) % 2).any()


def test_encode_words_pinned():
    # fixed words for this code and seed: a change of kernel basis or draw order shows here
    params = WiretapIIParams(n=16, alpha1=0.5, alpha2=0.25, eps=0.25)
    code = coset.construct(params, seed=1)
    rng = np.random.default_rng(2024)
    want = [
        ((0, 0), "0000101011100001"),
        ((15, 0), "0110111111101110"),
        ((0, 15), "1000001000001000"),
        ((9, 4), "0101101100110111"),
        ((9, 4), "0110100001011111"),
        ((6, 11), "0110000011001000"),
    ]
    for (m1, m2), word in want:
        assert "".join(map(str, coset.encode(code, m1, m2, rng))) == word


def test_encode_message_range_errors():
    code = parity_code()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        coset.encode(code, 2, 0, rng)
    with pytest.raises(ValueError):
        coset.encode(code, 0, -1, rng)


def test_eavesdrop_basics():
    x = np.array([1, 0, 1, 1], dtype=np.uint8)
    obs = coset.eavesdrop(x, set())
    assert (obs.z == coset.ERASURE).all()
    obs = coset.eavesdrop(x, range(4))
    assert np.array_equal(obs.z, x)
    obs = coset.eavesdrop(x, {1, 2})
    assert list(obs.z) == [coset.ERASURE, 0, 1, coset.ERASURE]
    with pytest.raises(IndexError):
        coset.eavesdrop(x, {4})


def test_equivocation_everything_observed_is_zero():
    code = parity_code()
    assert coset.equivocation(code, range(4), "both") == 0
    assert coset.equivocation(code, range(4), "high") == 0


def test_equivocation_parity_code_every_size3_set():
    code = parity_code()
    for observed in itertools.combinations(range(4), 3):
        got = coset.equivocation(code, observed, "high")
        assert got == 1
        oracle = equivocation_oracle(code, observed, "high")
        assert abs(oracle - got) < 1e-12


def test_equivocation_nothing_observed_is_rank():
    code = parity_code()
    got = coset.equivocation(code, set(), "both")
    assert got == gf2.rank(code.stacked) == 2
    assert abs(equivocation_oracle(code, set(), "both") - got) < 1e-12


def test_equivocation_matches_oracle_random_codes():
    rng = np.random.default_rng(19)
    params = WiretapIIParams(n=8, alpha1=0.5, alpha2=0.25, eps=0.25)
    for seed in range(4):
        code = coset.construct(params, seed=seed)
        for _ in range(6):
            size = int(rng.integers(0, 9))
            observed = set(int(i) for i in rng.choice(8, size=size, replace=False))
            for level in ("both", "high"):
                got = coset.equivocation(code, observed, level)
                assert abs(equivocation_oracle(code, observed, level) - got) < 1e-12


def test_worst_case_security_parity_code():
    code = parity_code()
    d1, d2 = coset.worst_case_security(code)
    # size n*(1-alpha1) = 1: every single column of the all-ones row spans 1 dim
    assert d1 == 1
    # size n*(1-alpha2) = 2: columns 0 and 2 of the stack coincide
    assert d2 == 1
    # oracle: exhaustive subsets
    stacked = code.stacked
    assert d2 == min(gf2.rank(stacked[:, list(c)]) for c in itertools.combinations(range(4), 2))


def test_worst_case_security_bounded_by_row_counts():
    params = WiretapIIParams(n=12, alpha1=0.5, alpha2=0.25, eps=0.25)
    code = coset.construct(params, seed=11)
    d1, d2 = coset.worst_case_security(code)
    assert 0 <= d1 <= code.k1
    assert 0 <= d2 <= code.k1 + code.k2
    assert (d1, d2) == (code.d1_star, code.d2_star)


def test_construct_rate_identities_and_leakage_bound():
    params = WiretapIIParams(n=16, alpha1=0.5, alpha2=0.25, eps=0.25)
    code = coset.construct(params, seed=1)
    assert code.k1 / code.n == pytest.approx(1 - params.alpha1 - params.eps)
    assert (code.k1 + code.k2) / code.n == pytest.approx(1 - params.alpha2 - params.eps)
    assert code.k1 - code.d1_star <= params.margin_bits
    assert code.k1 + code.k2 - code.d2_star <= params.margin_bits


def test_construct_acceptance_rate_full_rank_regime():
    # thresholds are vacuous at these parameters, so acceptance is exactly
    # the full-rank event; Monte Carlo rate should be near the analytic one
    params = WiretapIIParams(n=16, alpha1=0.5, alpha2=0.25, eps=0.25)
    assert params.d1_threshold < 0 and params.d2_threshold < 0
    rows = params.k1 + params.k2
    accepted = 0
    trials = 300
    for attempt in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=99, spawn_key=(attempt,)))
        h = gf2.random_matrix(rows, params.n, rng)
        accepted += gf2.rank(h) == rows
    # P(full rank) = prod_{i=0}^{rows-1} (1 - 2**(i - n)) ~ 0.9961 at 8x16
    assert accepted / trials > 0.95


def test_construct_determinism():
    params = WiretapIIParams(n=16, alpha1=0.5, alpha2=0.25, eps=0.25)
    a = coset.construct(params, seed=42)
    b = coset.construct(params, seed=42)
    assert np.array_equal(a.stacked, b.stacked)
    assert (a.d1_star, a.d2_star) == (b.d1_star, b.d2_star)


@pytest.mark.parametrize("n, pinned", [
    (16, [(3, 7), (3, 6), (3, 7), (3, 6), (3, 7)]),
    (24, [(5, 11), (4, 11), (4, 11), (4, 11), (4, 11)]),
])
def test_construct_certificates_pinned(n, pinned):
    # exact (d1_star, d2_star) for seeds 1-5; a change to the search must keep them
    params = WiretapIIParams(n=n, alpha1=0.5, alpha2=0.25, eps=0.25)
    got = [coset.construct(params, seed=seed) for seed in range(1, 6)]
    assert [(c.d1_star, c.d2_star) for c in got] == pinned


def test_construct_collapsed_second_level():
    params = WiretapIIParams(n=8, alpha1=0.5, alpha2=0.5, eps=0.25)
    code = coset.construct(params, seed=0)
    assert code.k2 == 0 and code.h2.shape == (0, 8)
    assert code.params.r2 == 0.0
    rng = np.random.default_rng(1)
    x = coset.encode(code, 3, 0, rng)
    assert coset.decode(code, x) == (3, 0)


def test_construct_requires_positive_eps_and_attempts():
    params = WiretapIIParams(n=4, alpha1=0.75, alpha2=0.5, eps=0.0)
    with pytest.raises(ValueError):
        coset.construct(params, seed=0)
    good = WiretapIIParams(n=8, alpha1=0.5, alpha2=0.25, eps=0.25)
    with pytest.raises(ValueError):
        coset.construct(good, seed=0, max_attempts=0)


def test_union_bound_loose_chain():
    # subset term literally equals 2**(1-n); below 1/2 exactly when n > 2
    p2 = WiretapIIParams(n=2, alpha1=0.5, alpha2=0.0, eps=0.5)
    r2 = coset.union_bound_report(p2)
    assert r2.subset_term == 0.5 and not r2.subset_ok
    for n in (4, 8, 16, 32):
        p = WiretapIIParams(n=n, alpha1=0.5, alpha2=0.25, eps=0.25)
        r = coset.union_bound_report(p)
        assert r.subset_term == 2.0 ** (1 - n)
        q = 2.0 ** (-(p.n_alpha2 + round(n * p.eps)))
        assert r.rank_term == pytest.approx((p.k1 + p.k2) * q / (1 - q), rel=1e-12)
        if r.conclusive:
            assert r.total < 1.0


def test_union_bound_exact_not_looser():
    for n in (4, 8, 16, 32, 64):
        p = WiretapIIParams(n=n, alpha1=0.5, alpha2=0.25, eps=0.25)
        loose = coset.union_bound_report(p)
        exact = coset.union_bound_report(p, exact_counts=True)
        assert exact.subset_term <= loose.subset_term
        assert exact.rank_term == loose.rank_term


def test_bundle_roundtrip_and_audit():
    params = WiretapIIParams(n=16, alpha1=0.5, alpha2=0.25, eps=0.25)
    code = coset.construct(params, seed=6)
    bundle = code.to_bundle(seed=6)
    back = CosetCodePair.from_bundle(bundle)
    assert np.array_equal(back.stacked, code.stacked)
    report = coset.audit_code(back)
    assert report["pass"] is True
    assert report["certificates_match"] is True
    assert report["strong_eavesdropper"]["worst_case_leakage_bits"] <= 12
    assert report["weak_eavesdropper"]["worst_case_leakage_bits"] <= 12


def test_audit_flags_tampered_certificates():
    params = WiretapIIParams(n=16, alpha1=0.5, alpha2=0.25, eps=0.25)
    code = coset.construct(params, seed=8)
    tampered = CosetCodePair(params=params, h1=code.h1, h2=code.h2,
                             d1_star=code.d1_star + 1, d2_star=code.d2_star)
    report = coset.audit_code(tampered)
    assert report["certificates_match"] is False
    assert report["pass"] is False
