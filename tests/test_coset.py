"""Coset-code tests: syndrome round trips and exact-equivocation oracles."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secembed import binning, coset, dmc, gf2
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
    with pytest.raises(ValueError, match="^n = 0 must be >= 1$"):
        WiretapIIParams(n=0, alpha1=0.5, alpha2=0.25)
    with pytest.raises(ValueError, match=r"^eps = -0\.1 must be >= 0$"):
        WiretapIIParams(n=8, alpha1=0.5, alpha2=0.25, eps=-0.1)
    with pytest.raises(ValueError, match=r"^n\*\(1-alpha1-eps\) = -1 must be >= 0$"):
        WiretapIIParams(n=4, alpha1=0.75, alpha2=0.0, eps=0.5)  # k1 = -1
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
    # the 3/eps leakage bound holds for any certificate at these parameters, so
    # acceptance is exactly the full-rank event; Monte Carlo rate should be near
    # the analytic one
    params = WiretapIIParams(n=16, alpha1=0.5, alpha2=0.25, eps=0.25)
    assert params.k1 < params.margin_bits and params.k1 + params.k2 < params.margin_bits
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
    (32, [(6, 15), (6, 14), (6, 14), (6, 15), (6, 15)]),
    (40, [(8, 18)] * 5),
])
def test_construct_certificates_pinned(n, pinned):
    # exact (d1_star, d2_star) for seeds 1-5, as the subset-rank branch-and-bound
    # computed them (about 45 s per n = 40 seed); a change to the search must keep them
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


def test_construct_requires_positive_eps():
    params = WiretapIIParams(n=4, alpha1=0.75, alpha2=0.5, eps=0.0)
    with pytest.raises(ValueError):
        coset.construct(params, seed=0)


def test_union_bound_loose_chain():
    # subset term literally equals 2**(1-n); below 1/2 exactly when n > 2
    p2 = WiretapIIParams(n=2, alpha1=0.5, alpha2=0.0, eps=0.5)
    r2 = coset.union_bound_report(p2)
    assert r2["subset_term"] == 0.5 and r2["subset_term_below_half"] is False
    for n in (4, 8, 16, 32):
        p = WiretapIIParams(n=n, alpha1=0.5, alpha2=0.25, eps=0.25)
        r = coset.union_bound_report(p)
        assert r["subset_term"] == 2.0 ** (1 - n)
        q = 2.0 ** (-(p.n_alpha2 + round(n * p.eps)))
        assert r["rank_term"] == pytest.approx((p.k1 + p.k2) * q / (1 - q), rel=1e-12)
        if r["conclusive"]:
            assert r["total"] < 1.0


def test_union_bound_exact_not_looser():
    for n in (4, 8, 16, 32, 64):
        p = WiretapIIParams(n=n, alpha1=0.5, alpha2=0.25, eps=0.25)
        loose = coset.union_bound_report(p)
        exact = coset.union_bound_report(p, exact_counts=True)
        assert exact["subset_term"] <= loose["subset_term"]
        assert exact["rank_term"] == loose["rank_term"]


def test_union_bound_matches_fraction_reference():
    """Every term is the exact rational rounded once to a float."""
    checked = 0
    for n in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128, 256, 1024, 2048):
        for a1, a2, e in itertools.product(range(0, n + 1, max(1, n // 8)), repeat=3):
            if not (a2 <= a1 and 1 <= e <= n - a1):
                continue
            p = WiretapIIParams(n=n, alpha1=a1 / n, alpha2=a2 / n, eps=e / n)
            q = Fraction(1, 1 << (p.n_alpha2 + e))
            rank = float((p.k1 + p.k2) * q / (1 - q))
            loose = float(Fraction(2 << n, 1 << (2 * n)))
            exact = float(Fraction(math.comb(n, p.n_alpha1) + math.comb(n, p.n_alpha2),
                                   1 << (2 * n)))
            for exact_counts, subset in ((False, loose), (True, exact)):
                r = coset.union_bound_report(p, exact_counts=exact_counts)
                assert (r["rank_term"], r["subset_term"]) == (rank, subset)
            checked += 1
    assert checked > 1000, checked


def test_params_eps_must_leave_a_margin_position():
    # at n = 8, n*(1-alpha1-eps) = 4 - 8e-12 reads as k1 = 4, which once left no margin
    # position for a 3/eps = 3e12-bit allowance, and union_bound_report divided by 2**0 - 1
    with pytest.raises(ValueError, match=r"^n\*eps = 0 must be >= 1$"):
        WiretapIIParams(8, 0.5, 0.0, 1e-12)
    assert WiretapIIParams(8, 0.5, 0.0, 0.125).k1 == 3
    assert WiretapIIParams(8, 0.5, 0.0, 0.0).k1 == 4  # eps = 0, for hand-built codes


@st.composite
def params_args(draw):
    """(n, alpha1, alpha2, eps) with n <= 16 and each fraction k/n moved by 0 to 1e-6."""
    n = draw(st.integers(1, 16))
    moves = st.sampled_from([0.0, 1e-15, 1e-12, 1e-10, 1e-9, 2e-9, 1e-7, 1e-6])
    return (n, *(draw(st.integers(0, n)) / n + draw(moves) * draw(st.sampled_from([1, -1]))
                 for _ in range(3)))


@settings(max_examples=300)
@given(args=params_args())
@example(args=(8, 0.5, 0.0, 1e-12))
def test_property_params_are_rejected_or_bound_finitely(args):
    """Parameters are a domain error, or have a union bound of finite terms and, for
    eps > 0, an allowance of about 3n bits at most: n*eps names at least one position."""
    try:
        params = WiretapIIParams(*args)
    except ValueError:
        return
    if params.eps > 0:
        assert params.margin_bits <= 3 * params.n * (1 + 1e-6)
        for exact_counts in (False, True):
            report = coset.union_bound_report(params, exact_counts=exact_counts)
            assert all(map(math.isfinite, (report["rank_term"], report["subset_term"],
                                           report["total"])))


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


def reference_encode(code, m1, m2, rng):
    """Two little-endian syndromes concatenated, then one solve on [h1; h2]."""
    s = np.concatenate([gf2.unpack_rows([m1], code.k1)[0], gf2.unpack_rows([m2], code.k2)[0]])
    return gf2.solve_affine(np.vstack([code.h1, code.h2]).T, s, rng)


def reference_decode(code, x):
    """One packed syndrome per block."""
    x = np.asarray(x, dtype=np.uint8)
    return tuple(gf2.pack_rows((h @ x % 2).reshape(1, -1))[0] for h in (code.h1, code.h2))


def full_rank_code(params, rng):
    rows = params.k1 + params.k2
    while True:
        h = gf2.random_matrix(rows, params.n, rng)
        if gf2.rank(h) == rows:
            return CosetCodePair(params=params, h1=h[:params.k1], h2=h[params.k1:],
                                 d1_star=0, d2_star=0)


@st.composite
def codes(draw, max_n=24):
    """Random full-rank codes with n in 1..max_n; k1 or k2 may be 0."""
    n = draw(st.integers(1, max_n))
    n_alpha1 = draw(st.integers(0, n))
    n_alpha2 = draw(st.integers(0, n_alpha1))
    k1 = draw(st.integers(0, n - n_alpha1))
    params = WiretapIIParams(n=n, alpha1=n_alpha1 / n, alpha2=n_alpha2 / n,
                             eps=(n - n_alpha1 - k1) / n)
    assert (params.k1, params.k2) == (k1, n_alpha1 - n_alpha2)
    return full_rank_code(params, np.random.default_rng(draw(st.integers(0, 2**32))))


@settings(max_examples=150)
@given(code=codes(), data=st.data())
def test_encode_decode_match_two_block_reference(code, data):
    seed = data.draw(st.integers(0, 2**32))
    for _ in range(3):
        m1 = data.draw(st.integers(0, 2**code.k1 - 1))
        m2 = data.draw(st.integers(0, 2**code.k2 - 1))
        x = coset.encode(code, m1, m2, np.random.default_rng(seed))
        assert np.array_equal(x, reference_encode(code, m1, m2, np.random.default_rng(seed)))
        assert coset.decode(code, x) == (m1, m2)
        word = data.draw(st.lists(st.integers(0, 1), min_size=code.n, max_size=code.n))
        assert coset.decode(code, word) == reference_decode(code, word)


def test_encode_numpy_messages_beyond_63_syndrome_bits():
    params = WiretapIIParams(n=128, alpha1=0.5, alpha2=0.125, eps=0.125)
    code = full_rank_code(params, np.random.default_rng(128))
    assert (code.k1, code.k2, code.rows) == (48, 48, 96)
    for m1, m2 in [(2**48 - 1, 2**48 - 2), (2**47 + 5, 2**48 - 3), (0, 2**48 - 1)]:
        m1, m2 = np.int64(m1), np.int64(m2)
        x = coset.encode(code, m1, m2, np.random.default_rng(3))
        assert np.array_equal(x, reference_encode(code, m1, m2, np.random.default_rng(3)))
        assert coset.decode(code, x) == (m1, m2)
    with pytest.raises(ValueError, match="m1 = 281474976710656 must be <= 281474976710655"):
        coset.encode(code, np.int64(2**48), 0, np.random.default_rng(0))


@settings(max_examples=150)
@given(code=codes(), data=st.data())
def test_equivocation_matches_column_subset_dim(code, data):
    everything = set(range(code.n))
    observed = data.draw(st.one_of(st.just(set()), st.just(everything),
                                   st.sets(st.sampled_from(sorted(everything)))))
    hidden = sorted(everything - observed)
    assert coset.equivocation(code, observed, "both") == \
        gf2.column_subset_dim(code.stacked, hidden)
    assert coset.equivocation(code, observed, "high") == gf2.column_subset_dim(code.h1, hidden)


def test_equivocation_beyond_63_syndrome_bits():
    params = WiretapIIParams(n=128, alpha1=0.5, alpha2=0.125, eps=0.125)
    code = full_rank_code(params, np.random.default_rng(128))
    assert code.rows == 96
    rng = np.random.default_rng(7)
    sets = [[], list(range(128))] + [rng.permutation(128)[:size] for size in (16, 32, 64, 100)]
    for observed in sets:
        hidden = sorted(set(range(128)) - {int(i) for i in observed})
        assert coset.equivocation(code, observed, "both") == \
            gf2.column_subset_dim(code.stacked, hidden)
        assert coset.equivocation(code, observed, "high") == \
            gf2.column_subset_dim(code.h1, hidden)


def test_code_does_not_alias_caller_arrays():
    params = WiretapIIParams(n=16, alpha1=0.5, alpha2=0.25, eps=0.25)
    h = coset.construct(params, seed=1).stacked.copy()
    h1, h2 = h[:params.k1], h[params.k1:]
    code = CosetCodePair(params=params, h1=h1, h2=h2, d1_star=3, d2_star=7)
    before = code.stacked.copy()
    word = coset.encode(code, 9, 4, np.random.default_rng(5))
    h[0, 0] ^= 1
    h2[-1, -1] ^= 1
    assert np.array_equal(code.stacked, before)
    assert np.array_equal(code.h1, before[:params.k1])
    assert np.array_equal(code.h2, before[params.k1:])
    assert np.array_equal(coset.encode(code, 9, 4, np.random.default_rng(5)), word)


def test_stacked_and_blocks_are_read_only():
    code = parity_code()
    for a in (code.stacked, code.h1, code.h2):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0


PARITY_H2 = [[1, 0, 1, 0]]


@pytest.mark.parametrize("h1, h2, match", [
    ([[1, 0.5, 1.9, 1]], PARITY_H2, "h1 entries must be 0 or 1"),
    ([[1, 1, 1, 1]], [[1, 0, 2, 0]], "h2 entries must be 0 or 1"),
    ([[1, 1], [1, 1]], PARITY_H2, r"\(2, 2\), \(1, 4\) do not match"),
    ([[1], [1], [1], [1]], PARITY_H2, r"\(4, 1\), \(1, 4\) do not match"),
    ([1, 1, 1, 1], PARITY_H2, r"\(4,\), \(1, 4\) do not match"),
    ([[1, 1, 1, 1]], [], r"\(1, 4\), \(0,\) do not match"),
], ids=["h1-fraction", "h2-two", "h1-2x2", "h1-transposed", "h1-flat", "h2-flat-empty"])
def test_parity_checks_are_read_exactly(h1, h2, match):
    """Entries must be 0 or 1 and shapes exactly (k1, n) and (k2, n): never
    truncated or reshaped into another code."""
    params = WiretapIIParams(n=4, alpha1=0.75, alpha2=0.5, eps=0.0)
    with pytest.raises(ValueError, match=match):
        CosetCodePair(params=params, h1=h1, h2=h2, d1_star=1, d2_star=1)


@pytest.mark.parametrize("d1_star, d2_star", [(True, 1), (1, 1.5), (1, None)])
def test_certificates_must_be_ints(d1_star, d2_star):
    params = WiretapIIParams(n=4, alpha1=0.75, alpha2=0.5, eps=0.0)
    with pytest.raises(ValueError, match=r"^d[12]_star = (True|1\.5|None) must be an integer$"):
        CosetCodePair(params=params, h1=[[1, 1, 1, 1]], h2=PARITY_H2,
                      d1_star=d1_star, d2_star=d2_star)


def test_numpy_certificates_are_stored_as_ints():
    params = WiretapIIParams(n=4, alpha1=0.75, alpha2=0.5, eps=0.0)
    code = CosetCodePair(params=params, h1=[[1, 1, 1, 1]], h2=PARITY_H2,
                         d1_star=np.int64(1), d2_star=np.uint8(1))
    assert (type(code.d1_star), type(code.d2_star)) == (int, int)
    back = CosetCodePair.from_bundle(json.loads(json.dumps(code.to_bundle())))
    assert (back.d1_star, back.d2_star) == (1, 1) and np.array_equal(back.stacked, code.stacked)


@pytest.mark.parametrize("h1, h2", [
    ([[1, 1, 0, 0], [1, 1, 0, 0]], [[0, 0, 1, 0]]),
    ([[1, 1, 0, 0], [0, 0, 0, 0]], [[0, 0, 1, 0]]),
    ([[1, 1, 0, 0], [0, 1, 1, 0]], [[1, 0, 1, 0]]),
], ids=["duplicated-row", "zero-row", "h2-sum-of-h1-rows"])
def test_rank_deficient_parity_checks_are_rejected(h1, h2):
    params = WiretapIIParams(n=4, alpha1=0.5, alpha2=0.25, eps=0.0)
    assert (params.k1, params.k2) == (2, 1)
    with pytest.raises(ValueError, match="full row rank"):
        CosetCodePair(params=params, h1=h1, h2=h2, d1_star=0, d2_star=0)
    bundle = {"params": params.to_dict(), "H1": gf2.matrix_to_text(h1),
              "H2": gf2.matrix_to_text(h2), "d1_star": 0, "d2_star": 0, "seed": None}
    with pytest.raises(ValueError, match="full row rank"):
        CosetCodePair.from_bundle(bundle)


def test_parity_checks_of_any_binary_dtype_and_zero_rows_are_accepted():
    params = WiretapIIParams(n=4, alpha1=0.75, alpha2=0.5, eps=0.0)
    code = CosetCodePair(params=params, h1=np.ones((1, 4)), h2=[[True, False, True, False]],
                         d1_star=1, d2_star=1)
    assert code.stacked.dtype == np.uint8
    assert np.array_equal(code.stacked, parity_code().stacked)
    params = WiretapIIParams(n=4, alpha1=0.5, alpha2=0.5, eps=0.25)
    assert (params.k1, params.k2) == (1, 0)
    code = CosetCodePair(params=params, h1=[[1, 1, 0, 0]], h2=np.zeros((0, 4), np.uint8),
                         d1_star=1, d2_star=1)
    assert code.h2.shape == (0, 4) and code.rows == 1


def test_construct_ranks_each_draw_once_and_builds_one_code(monkeypatch):
    ranks, builds = [], []
    rank, post_init = gf2.rank, CosetCodePair.__post_init__
    monkeypatch.setattr(gf2, "rank", lambda m: ranks.append(np.shape(m)) or rank(m))
    monkeypatch.setattr(CosetCodePair, "__post_init__",
                        lambda self: builds.append(1) or post_init(self))
    code = coset.construct(WiretapIIParams(16, 0.5, 0.25, 0.25), seed=1)
    # one rank per draw in the loop; the code's own check is its tagged reduction
    assert len(builds) == 1
    assert ranks == [(8, 16)]
    assert coset.worst_case_security(code) == (code.d1_star, code.d2_star)


def test_construct_skips_rank_deficient_draws_and_exhausts(monkeypatch):
    params = WiretapIIParams(16, 0.5, 0.25, 0.25)
    draw, draws = gf2.random_matrix, []

    def first_draw_deficient(rows, cols, rng):
        h = draw(rows, cols, rng)
        if not draws:
            h[1] = h[0]
        draws.append(h)
        return h

    monkeypatch.setattr(gf2, "random_matrix", first_draw_deficient)
    code = coset.construct(params, seed=1)
    assert len(draws) == 2 and np.array_equal(code.stacked, draws[1])
    monkeypatch.setattr(gf2, "random_matrix",
                        lambda rows, cols, rng: np.zeros((rows, cols), np.uint8))
    with pytest.MonkeyPatch.context() as mp, pytest.raises(
            coset.ConstructionExhaustedError,
            match="no acceptable matrix in 3 attempts at n=16") as exc:
        mp.setattr(coset, "MAX_ATTEMPTS", 3)
        coset.construct(params, seed=1)
    assert str(exc.value).endswith("(coset.MAX_ATTEMPTS = 3)")


@pytest.mark.parametrize("n, bracket", [(400, (0, 100)), (56, (14, 28))])
def test_construct_past_the_budget_fails_before_drawing(monkeypatch, n, bracket):
    def no_draw(rows, cols, rng):
        raise AssertionError("construct drew a matrix")

    monkeypatch.setattr(gf2, "random_matrix", no_draw)
    with pytest.raises(gf2.BudgetExceededError) as exc:
        coset.construct(WiretapIIParams(n, 0.5, 0.25, 0.25), seed=1)
    # d1 at n = 400; d1 fits the budget at n = 56 and d2's bracket is reported
    assert (exc.value.nodes, exc.value.lower, exc.value.upper) == (gf2.NODE_LIMIT, *bracket)


@pytest.mark.parametrize("kwargs, match", [
    ({"n": 16.0}, "n = 16.0 must be an integer"),
    ({"n": "16"}, "n = '16' must be an integer"),
    ({"n": True}, "n = True must be an integer"),
    ({"n": 10**400}, "must be a finite real number"),
    ({"alpha1": math.nan}, "alpha1 = nan must be a finite real number"),
    ({"alpha2": "0.25"}, "alpha2 = '0.25' must be a finite real number"),
    ({"eps": math.inf}, "eps = inf must be a finite real number"),
    ({"eps": 10**400}, "must be a finite real number"),
    ({"eps": 1e308}, "n\\*\\(1-alpha1-eps\\) = -inf must be an integer"),
    ({"alpha1": True}, "alpha1 = True must be a finite real number"),
    ({"alpha2": False}, "alpha2 = False must be a finite real number"),
    ({"eps": False}, "eps = False must be a finite real number"),
])
def test_params_reject_non_numeric_and_non_finite(kwargs, match):
    args = {"n": 16, "alpha1": 0.5, "alpha2": 0.25, "eps": 0.25, **kwargs}
    with pytest.raises(ValueError, match=match):
        WiretapIIParams(**args)


def test_params_sizes_are_plain_ints():
    p = WiretapIIParams(n=np.int64(16), alpha1=np.float32(0.5), alpha2=0.25, eps=0.25)
    assert type(p.n) is int and p.to_dict()["n"] == 16
    assert [type(v) for v in (p.n_alpha1, p.n_alpha2, p.k1, p.k2)] == [int] * 4


def _code_bundle():
    params = WiretapIIParams(n=16, alpha1=0.5, alpha2=0.25, eps=0.25)
    return coset.construct(params, seed=6).to_bundle(seed=6)


@pytest.mark.parametrize("edit, match", [
    (lambda b: [b], "must be a JSON object"),
    (lambda b: json.dumps(b), "must be a JSON object"),
    (lambda b: {**b, "params": list(b["params"].values())}, "exactly the keys"),
    (lambda b: {**b, "params": {**b["params"], "extra": 1}}, "exactly the keys"),
    (lambda b: {**b, "params": {k: v for k, v in b["params"].items() if k != "eps"}},
     "exactly the keys"),
    (lambda b: {**b, "H1": [[1, 0]]}, "must be matrix text"),
    (lambda b: {**b, "H2": None}, "must be matrix text"),
    (lambda b: {**b, "d1_star": None}, "^d1_star = None must be an integer$"),
    (lambda b: {k: v for k, v in b.items() if k != "H1"}, r"lacks the key\(s\) H1$"),
    (lambda b: {k: v for k, v in b.items() if k not in ("params", "H2")},
     r"lacks the key\(s\) params, H2$"),
    (lambda b: {"seed": 6}, r"lacks the key\(s\) params, H1, H2, d1_star, d2_star$"),
    (lambda b: {**b, "d1_star": True}, "^d1_star = True must be an integer$"),
    (lambda b: {**b, "d2_star": False}, "^d2_star = False must be an integer$"),
    (lambda b: {**b, "params": {**b["params"], "alpha1": True}},
     "alpha1 = True must be a finite real number"),
], ids=["list", "text", "params-list", "params-extra", "params-no-eps", "H1-list", "H2-none",
        "d1-none", "no-H1", "no-params-H2", "only-seed", "d1-true", "d2-false", "alpha1-true"])
def test_from_bundle_rejects_malformed_bundles(edit, match):
    with pytest.raises(ValueError, match=match):
        CosetCodePair.from_bundle(edit(_code_bundle()))


@pytest.fixture(scope="module")
def n16_code():
    return coset.construct(WiretapIIParams(16, 0.5, 0.25, 0.25), seed=1)


@pytest.mark.parametrize("word", [[2] * 16, [0.5] * 16, [1.9] + [0] * 15, [-1] * 16,
                                  [256] + [0] * 15, [np.nan] * 16])
def test_non_binary_words_are_rejected(n16_code, word):
    with pytest.raises(ValueError, match="codeword entries must be 0 or 1"):
        coset.decode(n16_code, word)
    with pytest.raises(ValueError, match="codeword entries must be 0 or 1"):
        coset.eavesdrop(word, [0, 1])


def test_binary_words_of_any_dtype_are_accepted(n16_code):
    x = coset.encode(n16_code, 5, 3, np.random.default_rng(0))
    for word in (x.astype(float), x.astype(bool), x.astype(np.int64), list(map(int, x))):
        assert coset.decode(n16_code, word) == (5, 3)
        assert np.array_equal(coset.eavesdrop(word, [0, 1]).z, coset.eavesdrop(x, [0, 1]).z)


@pytest.mark.parametrize("observed", [[0.9], [0, 2.0], ["3"], [None]])
def test_non_integral_positions_are_rejected(n16_code, observed):
    x = np.zeros(16, dtype=np.uint8)
    with pytest.raises(ValueError, match="is not an integer"):
        coset.eavesdrop(x, observed)
    with pytest.raises(ValueError, match="is not an integer"):
        coset.equivocation(n16_code, observed)
    with pytest.raises(ValueError, match="is not an integer"):
        coset.Observation(z=x, observed=observed)


def test_observation_copies_the_caller_array():
    z = np.array([1, 0, -1, -1], dtype=np.int8)
    obs = coset.Observation(z, [0, 1])
    assert not np.shares_memory(obs.z, z) and not obs.z.flags.writeable
    z[...] = 1
    assert list(obs.z) == [1, 0, -1, -1]


def test_numpy_integer_positions_are_accepted(n16_code):
    x = np.ones(16, dtype=np.uint8)
    obs = coset.eavesdrop(x, np.array([3, 7]))
    assert obs.observed == {3, 7} and all(type(i) is int for i in obs.observed)
    assert coset.equivocation(n16_code, [np.int64(3), np.int8(7)]) == \
        coset.equivocation(n16_code, [3, 7])


def nested_codebook(code):
    """The code as a nested codebook: bin m1, subbin m2, slot a kernel combination."""
    kernel = gf2.nullspace(code.stacked)
    slots = np.array([np.array(r, dtype=np.uint8) @ kernel % 2
                      for r in itertools.product((0, 1), repeat=len(kernel))])
    rng = np.random.default_rng(0)
    words = [[(coset.encode(code, m1, m2, rng) + slots) % 2 for m2 in range(2**code.k2)]
             for m1 in range(2**code.k1)]
    return binning.NestedCodebook(codewords=np.array(words), nx=2)


def bec_leakage_oracle(code, delta, level):
    """Sum over revealed sets B of P(B) (k - rank(H[:, B^c])) on a BEC(delta)."""
    k, h = (code.k1, code.h1) if level == "bin" else (code.rows, code.stacked)
    n = code.n
    total = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        hidden = [i for i in range(n) if not bits[i]]
        revealed = n - len(hidden)
        total += (1 - delta)**revealed * delta**len(hidden) * (
            k - gf2.column_subset_dim(h, hidden))
    return total


@settings(max_examples=80)
@given(code=codes(max_n=10),
       delta=st.floats(0, 1, exclude_min=True, exclude_max=True),
       level=st.sampled_from(["bin", "subbin"]))
def test_coset_code_bec_leakage_is_a_rank_sum(code, delta, level):
    got = binning.exact_leakage(nested_codebook(code), dmc.bec_kernel(delta), level)
    assert got == pytest.approx(bec_leakage_oracle(code, delta, level), abs=1e-12)


def test_coset_code_bec_leakage_is_a_rank_sum_n12():
    code = coset.construct(WiretapIIParams(12, 0.5, 0.25, 0.25), seed=2)
    cb = nested_codebook(code)
    assert cb.codewords.shape == (2**code.k1, 2**code.k2, 2**(12 - code.rows), 12)
    assert len({tuple(w) for w in cb.flat()}) == 2**12
    got = binning.exact_leakage(cb, dmc.bec_kernel(0.3), "subbin")
    assert got == pytest.approx(bec_leakage_oracle(code, 0.3, "subbin"), abs=1e-12)


def test_code_guards_name_the_input():
    code = parity_code()
    with pytest.raises(ValueError, match="^codeword length 3 != n = 4$"):
        coset.decode(code, [0, 1, 0])
    with pytest.raises(ValueError, match="^level must be 'both' or 'high'$"):
        coset.equivocation(code, [0], level="x")
    with pytest.raises(ValueError, match="^union bound requires eps > 0$"):
        coset.union_bound_report(WiretapIIParams(8, 0.5, 0.25, 0.0))
