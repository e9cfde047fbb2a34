"""Nested-binning simulator tests with a brute-force joint-distribution oracle."""

import itertools
import math
import re
import sys
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secembed import binning, coset, dmc, gf2
from secembed.binning import NestedCodebook
from secembed.dmc import DmcTriple

CONSTANT = np.ones((2, 1))  # a binary-input kernel whose one sure output carries nothing


def bec_triple(d1=0.5, d2=0.9):
    return DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(d1),
                                 dmc.bec_kernel(d2))


def leakage_oracle(codebook, kernel, level):
    """I(messages; Z^n) by enumerating every (codeword, output sequence)."""
    w = np.asarray(kernel, dtype=float)
    nz = w.shape[1]
    flat = codebook.flat()
    if level == "bin":
        group = codebook.n_subbins * codebook.n_per
    else:
        group = codebook.n_per
    n_groups = codebook.size // group
    joint = {}
    for gidx in range(n_groups):
        for word in flat[gidx * group:(gidx + 1) * group]:
            for z in itertools.product(range(nz), repeat=codebook.n):
                p = 1.0
                for xi, zi in zip(word, z):
                    p *= w[xi, zi]
                if p:
                    joint[(gidx, z)] = joint.get((gidx, z), 0.0) + p / codebook.size
    # I = sum p log p/(pm pz)
    pm = {}
    pz = {}
    for (g, z), p in joint.items():
        pm[g] = pm.get(g, 0.0) + p
        pz[z] = pz.get(z, 0.0) + p
    return sum(p * math.log2(p / (pm[g] * pz[z])) for (g, z), p in joint.items())


def leakage_general_reference(codebook, kernel, level):
    """Per-codeword loop that binning._leakage_general must equal.

    Builds each word's |Z|**n product law from n outer products, sums the
    laws of a group, and scores the groups' laws against their mean.
    """
    w = np.asarray(kernel, dtype=float)
    nz = w.shape[1]
    n = codebook.n
    flat = codebook.flat()

    def product_vector(word):
        v = np.ones(1)
        for x in word:
            v = np.outer(v, w[x]).reshape(-1)
        return v

    group = codebook.n_per if level == "subbin" else codebook.n_subbins * codebook.n_per
    total = np.zeros(nz**n)
    h_cond = 0.0
    n_groups = codebook.size // group
    for gidx in range(n_groups):
        dist = np.zeros(nz**n)
        for word in flat[gidx * group:(gidx + 1) * group]:
            dist += product_vector(word)
        dist /= group
        total += dist
        h_cond += dmc.entropy_bits(dist) / n_groups
    total /= n_groups
    return dmc.entropy_bits(total) - h_cond


def pattern_statistics_reference(codebook, reveal):
    """Per-pattern loop over the 2**n reveal patterns in Gray-code order.

    Yields (popcount, I(M1; f(X)_B), I(M1, M2; f(X)_B)) for one pattern B
    at a time, updating the projection key by one position per step.
    """
    n = codebook.n
    k_total = codebook.size
    base = int(reveal.max()) + 1 if reveal.size else 1
    if base < 2:
        for t in range(1 << n):
            yield bin(t ^ (t >> 1)).count("1"), 0.0, 0.0
        return
    groups = codebook.n_bins * codebook.n_subbins
    proj = reveal[codebook.flat()].astype(np.int64)
    contrib = (proj * base ** np.arange(n)[None, :]).T * groups
    lut = np.zeros(k_total + 1)
    lut[1:] = np.arange(1, k_total + 1) * np.log2(np.arange(1, k_total + 1))
    key = np.arange(k_total) // codebook.n_per
    yield 0, 0.0, 0.0
    pc = 0
    for t in range(1, 1 << n):
        j = (t & -t).bit_length() - 1
        if ((t ^ (t >> 1)) >> j) & 1:
            key = key + contrib[j]
            pc += 1
        else:
            key = key - contrib[j]
            pc -= 1
        ks = np.sort(key)
        bnd = np.flatnonzero(ks[1:] != ks[:-1]) + 1
        starts = np.concatenate(([0], bnd))
        ends = np.concatenate((bnd, [k_total]))
        s_sub = float(lut[ends - starts].sum())
        reps = ks[starts] // codebook.n_subbins
        keep = np.flatnonzero(reps[1:] != reps[:-1]) + 1
        bstarts = starts[np.concatenate(([0], keep))]
        s_bin = float(lut[np.diff(np.concatenate((bstarts, [k_total])))].sum())
        reps //= codebook.n_bins
        keep = np.flatnonzero(reps[1:] != reps[:-1]) + 1
        gstarts = starts[np.concatenate(([0], keep))]
        s_glob = float(lut[np.diff(np.concatenate((gstarts, [k_total])))].sum())
        i_bin = math.log2(codebook.n_bins) - (s_glob - s_bin) / k_total
        i_sub = math.log2(groups) - (s_glob - s_sub) / k_total
        yield pc, max(i_bin, 0.0), max(i_sub, 0.0)


def leakage_erasure_reference(codebook, reveal, requests):
    """Pattern-by-pattern sums that the erasure profile's evaluations must equal."""
    n = codebook.n
    results = [0.0] * len(requests)
    for pc, i_bin, i_sub in pattern_statistics_reference(codebook, reveal):
        for idx, (delta, level) in enumerate(requests):
            weight = (1.0 - delta) ** pc * delta ** (n - pc)
            results[idx] += weight * (i_bin if level == "bin" else i_sub)
    return results


def erasure_kernel(reveal, delta):
    """Input x shows symbol reveal[x] with probability 1 - delta, else the erasure."""
    nz = max(reveal) + 2
    w = np.zeros((len(reveal), nz))
    w[np.arange(len(reveal)), reveal] = 1.0 - delta
    w[:, -1] = delta
    return w


@st.composite
def erasure_cases(draw):
    n = draw(st.integers(1, 9))
    counts = tuple(draw(st.sampled_from([1, 2, 3, 5])) for _ in range(3))
    nx = draw(st.sampled_from([2, 3]))
    reveal = draw(st.lists(st.integers(0, nx - 1), min_size=nx, max_size=nx))
    delta = draw(st.sampled_from([0.0, 0.3, 0.5, 0.9]))
    requests = draw(st.lists(st.tuples(st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]),
                                       st.sampled_from(["bin", "subbin"])),
                             min_size=1, max_size=4))
    seed = draw(st.integers(0, 2**32 - 1))
    cb = binning.make_codebook(np.full(nx, 1.0 / nx), n, counts,
                               np.random.default_rng(seed))
    return cb, erasure_kernel(reveal, delta), requests


@pytest.mark.parametrize("block_keys", [1, 2**20])
@settings(max_examples=60)
@given(case=erasure_cases())
def test_erasure_profile_matches_per_pattern_reference(case, block_keys):
    """Each profile coefficient is the loop's sum over the patterns of that size."""
    cb, kernel, _ = case
    _, reveal = binning._erasure_decomposition(kernel)
    want = np.zeros((2, cb.n + 1))
    for pc, i_bin, i_sub in pattern_statistics_reference(cb, reveal):
        want[:, pc] += (i_bin, i_sub)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(binning, "_BLOCK_KEYS", block_keys)
        got = binning._erasure_profile(cb, reveal)
    assert got.shape == (2, cb.n + 1)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("block_keys", [1, 2**20])
@settings(max_examples=60)
@given(case=erasure_cases())
def test_leakage_erasure_matches_per_pattern_reference(case, block_keys):
    """Blocks of one pattern and blocks of every pattern both equal the loop."""
    cb, kernel, requests = case
    delta, reveal = binning._erasure_decomposition(kernel)
    want = leakage_erasure_reference(cb, reveal, requests)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(binning, "_BLOCK_KEYS", block_keys)
        profile = binning._erasure_profile(cb, reveal)
    got = [binning._erasure_leakage(profile[1 if level == "subbin" else 0], d)
           for d, level in requests]
    assert got == pytest.approx(want, abs=1e-12)


def profile_by_threads(cb, reveal, block_keys, thread_counts=(1, 2, 3)):
    """_erasure_profile of one codebook with the walk split over each thread count."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(binning, "_BLOCK_KEYS", block_keys)
        profiles = []
        for threads in thread_counts:
            mp.setattr(binning, "_usable_cpus", lambda: threads)
            profiles.append(binning._erasure_profile(cb, reveal))
    return profiles


@pytest.mark.parametrize("block_keys", [1, 2**16])
@settings(max_examples=40)
@given(case=erasure_cases())
def test_erasure_profile_same_for_any_thread_count(case, block_keys):
    cb, kernel, _ = case
    _, reveal = binning._erasure_decomposition(kernel)
    first, *others = profile_by_threads(cb, reveal, block_keys)
    for other in others:
        assert np.array_equal(first, other)


@pytest.mark.parametrize("block_keys", [1, 2**16])
@pytest.mark.parametrize("n, counts, kernel", [
    # the benchmark's codebook: 64 blocks at 2**16 keys
    (12, (8, 8, 27), dmc.bec_kernel(0.5)),
    # base-5 reveal: keys span 31.9 bits, the int64 path; 16 blocks at 2**16 keys
    (12, (4, 4, 16), erasure_kernel(list(range(5)), 0.5)),
    # nothing revealed: a zero profile
    (7, (3, 5, 2), CONSTANT),
], ids=["binary", "base5", "constant"])
def test_erasure_profile_same_for_any_thread_count_pinned(block_keys, n, counts, kernel):
    nx = len(kernel)
    cb = binning.make_codebook(np.full(nx, 1.0 / nx), n, counts, np.random.default_rng(3))
    _, reveal = binning._erasure_decomposition(kernel)
    first, *others = profile_by_threads(cb, reveal, block_keys)
    assert first.any() == (reveal.max() > 0)
    for other in others:
        assert np.array_equal(first, other)


def test_erasure_profile_more_threads_than_cores_with_fast_switching():
    """Eight threads on short interpreter time slices still fill every block once."""
    cb = binning.make_codebook([0.5, 0.5], 12, (8, 8, 27), np.random.default_rng(5))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        one, eight = profile_by_threads(cb, np.array([0, 1]), 2**16, thread_counts=(1, 8))
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(one, eight)


def test_erasure_profile_scratch_is_one_block_per_thread(monkeypatch):
    """Each walk thread holds one block's scratch, so the peak grows with the threads, no faster."""
    cb = binning.make_codebook([0.5, 0.5], 12, (8, 8, 27), np.random.default_rng(1))
    peaks = {}
    for threads in (1, 8):
        monkeypatch.setattr(binning, "_usable_cpus", lambda threads=threads: threads)
        tracemalloc.start()
        try:
            binning._erasure_profile(cb, np.array([0, 1]))
            peaks[threads] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # 64 rows x 1,728 keys per block; about 4.5 MB on one thread, 21 MB on eight
    block_keys = 64 * 1728
    assert peaks[1] < 48 * block_keys
    assert peaks[8] < 8 * 48 * block_keys


def test_simulation_leaves_no_thread_behind(monkeypatch):
    monkeypatch.setattr(binning, "_usable_cpus", lambda: 3)
    before = threading.active_count()
    report = binning.simulate_nested_binning(bec_triple(), [0.5, 0.5],
                                             (0.25, 0.25, np.log2(3) / 4),
                                             n=12, trials=50, seed=1)
    assert report["normalized_leak_m1_strong"] == pytest.approx(REFERENCE_RUNS[12, 1][1],
                                                                abs=1e-12)
    assert threading.active_count() == before


def test_worker_error_reaches_the_caller_and_leaves_no_thread(monkeypatch):
    caller = threading.current_thread()
    real = binning._row_clogc

    def fail_in_workers(*args):
        if threading.current_thread() is not caller:
            raise RuntimeError("worker failed")
        return real(*args)

    monkeypatch.setattr(binning, "_row_clogc", fail_in_workers)
    monkeypatch.setattr(binning, "_usable_cpus", lambda: 3)
    cb = binning.make_codebook([0.5, 0.5], 12, (8, 8, 27), np.random.default_rng(1))
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="worker failed"):
        binning.exact_leakage(cb, dmc.bec_kernel(0.5), "bin")
    assert threading.active_count() == before


def test_caller_error_stops_the_workers_early(monkeypatch):
    """Workers quit at their next block once the calling thread has failed."""
    caller = threading.current_thread()
    real = binning._row_clogc
    worker_calls = []

    def fail_in_caller(*args):
        if threading.current_thread() is caller:
            raise RuntimeError("caller failed")
        worker_calls.append(1)
        time.sleep(0.005)
        return real(*args)

    monkeypatch.setattr(binning, "_row_clogc", fail_in_caller)
    monkeypatch.setattr(binning, "_usable_cpus", lambda: 3)
    cb = binning.make_codebook([0.5, 0.5], 12, (8, 8, 27), np.random.default_rng(1))
    with pytest.raises(RuntimeError, match="caller failed"):
        binning._erasure_profile(cb, np.array([0, 1]))
    # the two helpers own blocks 21..63, 3 calls each (one whole-block sort)
    assert len(worker_calls) < 43 * 3 // 2


@st.composite
def general_cases(draw):
    n = draw(st.integers(1, 8))
    counts = tuple(draw(st.sampled_from([1, 2, 3, 5])) for _ in range(3))
    nx = draw(st.integers(2, 4))
    nz = draw(st.integers(2, 4))
    # integer weights with zeros, each row normalized; a zero row gets one unit
    weights = np.array(draw(st.lists(st.integers(0, 4), min_size=nx * nz,
                                     max_size=nx * nz)), dtype=float).reshape(nx, nz)
    weights[weights.sum(axis=1) == 0, 0] = 1.0
    seed = draw(st.integers(0, 2**32 - 1))
    cb = binning.make_codebook(np.full(nx, 1.0 / nx), n, counts,
                               np.random.default_rng(seed))
    return cb, weights / weights.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("scores", [1, 2**20])
@settings(max_examples=60)
@given(case=general_cases())
def test_leakage_general_matches_per_codeword_reference(case, scores):
    """Chunks of one group and one chunk of every group both equal the loop."""
    cb, kernel = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(binning, "_DECODE_SCORES", scores)
        for level in ("bin", "subbin"):
            got = binning._leakage_general(cb, kernel, level)
            assert got == pytest.approx(leakage_general_reference(cb, kernel, level),
                                        abs=1e-12)


@st.composite
def kernels_below_a_bec(draw):
    """A BSC, or a 2 x 3 kernel of integer weights: most take the general path."""
    if draw(st.booleans()):
        return dmc.bsc_kernel(draw(st.floats(0, 1)))
    weights = np.array(draw(st.lists(st.integers(0, 6), min_size=6, max_size=6)),
                       dtype=float).reshape(2, 3)
    weights[weights.sum(axis=1) == 0, 0] = 1.0
    return weights / weights.sum(axis=1, keepdims=True)


@settings(max_examples=60)
@given(w=kernels_below_a_bec(), counts=st.sampled_from([(2, 2, 2), (4, 4, 4)]),
       seed=st.integers(0, 2**32 - 1))
def test_property_leakage_is_at_most_that_of_the_bec_it_degrades(w, counts, seed):
    """Data processing across the two leakage paths: W(z|x) = (1 − δ) R(z|x) + δ C(z) with
    δ = Σ_z min_x W(z|x), so W is a degradation of BEC(δ), whose erasure-path leakage
    bounds W's general-path leakage at both levels on one codebook."""
    delta = min(float(w.min(axis=0).sum()), 1.0)
    cb = binning.make_codebook([0.5, 0.5], 8, counts, np.random.default_rng(seed))
    for level in ("bin", "subbin"):
        assert binning.exact_leakage(cb, w, level) <= binning.exact_leakage(
            cb, dmc.bec_kernel(delta), level) + 1e-12


def test_leakage_general_budget_raises_before_allocating():
    cb = binning.make_codebook([0.5, 0.5], 25, (1, 1, 1), np.random.default_rng(1))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(
                "|Z|**n = 2**25 = 33554432 exceeds binning.LEAKAGE_BUDGET = 16777216")):
            binning.exact_leakage(cb, dmc.bsc_kernel(0.2), "subbin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16  # the codeword's output law alone would take 256 MB


def test_leakage_general_memory_bounded():
    """The n = 12 BSC codebook of the benchmark's general-path op, subbin level."""
    cb = binning.make_codebook([0.5, 0.5], 12, (8, 8, 27), np.random.default_rng(1))
    tracemalloc.start()
    try:
        binning.exact_leakage(cb, dmc.bsc_kernel(0.4), "subbin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_leakage_erasure_wide_keys_match_reference():
    """Keys over 30 bits take the int64 path; base-5 reveals at n=12 need 31."""
    cb = binning.make_codebook(np.full(5, 0.2), 12, (2, 3, 2), np.random.default_rng(4))
    reveal = np.arange(5)
    requests = [(0.5, "bin"), (0.9, "subbin")]
    want = leakage_erasure_reference(cb, reveal, requests)
    profile = binning._erasure_profile(cb, reveal)
    got = [binning._erasure_leakage(profile[0], 0.5), binning._erasure_leakage(profile[1], 0.9)]
    assert got == pytest.approx(want, abs=1e-12)


def test_leakage_budget_of_both_eavesdroppers_checked_before_any_profile(monkeypatch):
    """A BEC strong eavesdropper and a weak one over 3**16 outputs, past the budget."""
    weak = [[0.6, 0.3, 0.1], [0.1, 0.3, 0.6]]  # not erasure-style: two live outputs per input
    ch = DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(0.5), weak)
    calls = []
    monkeypatch.setattr(binning, "_erasure_profile", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="^" + re.escape(
            "|Z|**n = 3**16 = 43046721 exceeds binning.LEAKAGE_BUDGET = 16777216") + "$"):
        binning.simulate_nested_binning(ch, [0.5, 0.5], (0.0, 0.0, 0.0), n=16, trials=0,
                                        seed=1)
    assert calls == []


def test_leakage_key_budget_checked_before_any_codebook():
    # 2**24 patterns of K = 4,096 keys: within LEAKAGE_BUDGET, a 7-minute walk past this one
    with pytest.raises(ValueError, match="^" + re.escape(
            "2**n * K = 2**24 * 4096 = 68719476736 exceeds binning.LEAKAGE_KEY_BUDGET = "
            "4294967296") + "$"):
        binning._check_simulation(bec_triple(), [0.5, 0.5], (0.25, 0.25, 0.0), 24, 1, True)
    binning._check_simulation(bec_triple(), [0.5, 0.5], (0.25, 0.25, 0.0), 24, 1, False)


@pytest.mark.parametrize("weak, n, message", [
    (None, 63, "2**n = 2**63 = 9223372036854775808 exceeds binning.LEAKAGE_BUDGET = 16777216"),
    (None, 64, "2**n = 2**64 exceeds binning.LEAKAGE_BUDGET = 16777216"),
    (None, 20000, "2**n = 2**20000 exceeds binning.LEAKAGE_BUDGET = 16777216"),
    ([[0.6, 0.3, 0.1], [0.1, 0.3, 0.6]], 20000,
     "|Z|**n = 3**20000 exceeds binning.LEAKAGE_BUDGET = 16777216"),
], ids=["2**63", "2**64", "2**20000", "3**20000"])
def test_budget_error_names_its_budget_at_any_n(weak, n, message):
    """An amount of 2**64 or more is named by its expression alone: the decimal of
    2**20000 passes Python's 4300-digit limit on int-to-str conversion."""
    ch = bec_triple() if weak is None else DmcTriple.independent(
        dmc.noiseless_kernel(2), weak, weak)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        binning._check_simulation(ch, [0.5, 0.5], (0.0, 0.0, 0.0), n, 1, True)


def test_leakage_key_budget_admits_its_bound(monkeypatch):
    calls = []
    monkeypatch.setattr(binning, "_erasure_profile",
                        lambda cb, reveal: calls.append(cb.size) or np.zeros((2, cb.n + 1)))
    cb = binning.make_codebook([0.5, 0.5], 24, (1, 1, 256), np.random.default_rng(1))
    assert binning.exact_leakage(cb, dmc.bec_kernel(0.5), "bin") == 0.0  # 2**32 keys
    cb = binning.make_codebook([0.5, 0.5], 24, (1, 1, 257), np.random.default_rng(1))
    with pytest.raises(ValueError, match=re.escape(
            "2**n * K = 2**24 * 257 = 4311744512 exceeds binning.LEAKAGE_KEY_BUDGET = "
            "4294967296") + "$"):
        binning.exact_leakage(cb, dmc.bec_kernel(0.5), "bin")
    assert calls == [256]


def coset_code(n, k1, k2, rng):
    """A random two-level coset code whose stacked matrix has full row rank."""
    while gf2.rank(stacked := rng.integers(0, 2, size=(k1 + k2, n))) < k1 + k2:
        pass
    params = coset.WiretapIIParams(n=n, alpha1=(n - k1) / n, alpha2=(n - k1 - k2) / n)
    return coset.CosetCodePair(params=params, h1=stacked[:k1], h2=stacked[k1:],
                               d1_star=0, d2_star=0)


def coset_codebook(code):
    """Every n-bit word, binned by its syndrome m1 | m2 << k1: bin m1, subbin m2,
    and the members of coset (m1, m2) as its slots."""
    n, k1, k2 = code.n, code.k1, code.k2
    words = np.arange(2**n)[:, None] >> np.arange(n) & 1
    syndromes = (words @ code.stacked.T % 2) @ (1 << np.arange(k1 + k2))
    by_syndrome = words[np.argsort(syndromes, kind="stable")]
    return NestedCodebook(by_syndrome.reshape(2**k2, 2**k1, -1, n).swapaxes(0, 1), 2)


DELTAS = (0.1, 0.5, 0.85)


def check_coset_codes_are_linear_nested_binning(code):
    """Erasure profile and leakage of the coset codebook against the equivocation
    identity of coset, summed over every reveal set B."""
    n = code.n
    reveal_sets = [[i for i in range(n) if mask >> i & 1] for mask in range(2**n)]
    info = np.array([[code.k1 - coset.equivocation(code, b, "high"),
                      code.k1 + code.k2 - coset.equivocation(code, b, "both")]
                     for b in reveal_sets])
    sizes = np.array([len(b) for b in reveal_sets])
    profile = [np.bincount(sizes, info[:, level], n + 1) for level in (0, 1)]
    got = binning._erasure_profile(coset_codebook(code), np.array([0, 1]))
    assert got == pytest.approx(np.array(profile), abs=1e-9)
    for d in DELTAS:
        leakage = (1 - d)**sizes * d**(n - sizes) @ info
        assert [binning._erasure_leakage(row, d) for row in got] == pytest.approx(
            leakage, abs=1e-9)


@settings(max_examples=25)
@given(data=st.data())
def test_coset_codes_are_linear_nested_binning(data):
    n = data.draw(st.integers(1, 10))
    k1 = data.draw(st.integers(0, n))
    k2 = data.draw(st.integers(0, n - k1))
    check_coset_codes_are_linear_nested_binning(
        coset_code(n, k1, k2, np.random.default_rng(data.draw(st.integers(0, 2**32)))))


@pytest.mark.parametrize("k1, k2, seed", [(3, 3, 1), (4, 4, 2)])
def test_coset_codes_are_linear_nested_binning_pinned(k1, k2, seed):
    check_coset_codes_are_linear_nested_binning(
        coset_code(12, k1, k2, np.random.default_rng(seed)))


def test_leakage_erasure_constant_kernel_is_zero():
    cb = binning.make_codebook([0.5, 0.5], 6, (3, 5, 2), np.random.default_rng(8))
    delta, reveal = binning._erasure_decomposition(CONSTANT)
    assert delta == 1.0
    profile = binning._erasure_profile(cb, reveal)
    assert profile.shape == (2, 7) and not profile.any()
    assert [binning._erasure_leakage(row, d) for row, d in zip(profile, (1.0, 0.5))] == [0.0, 0.0]


# (error_rate, leak_m1_strong, leak_messages_weak) of simulate_nested_binning on
# the reference channel at rates (0.25, 0.25, log2(3)/4) with 400 trials,
# computed by the per-pattern loop
REFERENCE_RUNS = {
    (8, 1): (0.1825, 0.04704771957268182, 0.012966811831343267),
    (8, 2): (0.2125, 0.04815267506091521, 0.011211203815514372),
    (8, 3): (0.2575, 0.045364425991109354, 0.010942214122268768),
    (12, 1): (0.195, 0.03018083256802155, 0.005058795984484001),
    (12, 2): (0.17, 0.031121987089097122, 0.005016085158413651),
    (12, 3): (0.1725, 0.031615564768248165, 0.005082606288780296),
}


@pytest.mark.parametrize("n, seed", sorted(REFERENCE_RUNS))
def test_reference_channel_runs_pinned(n, seed):
    report = binning.simulate_nested_binning(bec_triple(), [0.5, 0.5],
                                             (0.25, 0.25, np.log2(3) / 4),
                                             n=n, trials=400, seed=seed)
    error, leak1, leak2 = REFERENCE_RUNS[n, seed]
    assert report["error_rate"] == error
    assert report["normalized_leak_m1_strong"] == pytest.approx(leak1, abs=1e-12)
    assert report["normalized_leak_messages_weak"] == pytest.approx(leak2, abs=1e-12)


# error_rate of decode-only runs (measure_leakage=False) at n = 16, rates
# (0.25, 0.25, log2(3)/4), 400 trials, seed 1, on the reference channel and on
# one with a BSC(0.02) main output; the decoder scores these in several chunks.
DECODE_ONLY_N16 = {"noiseless": 0.16, "bsc": 0.365}


@pytest.mark.parametrize("main", sorted(DECODE_ONLY_N16))
def test_decode_only_n16_pinned_and_memory_bounded(main):
    kernel = dmc.noiseless_kernel(2) if main == "noiseless" else dmc.bsc_kernel(0.02)
    ch = DmcTriple.independent(kernel, dmc.bec_kernel(0.5), dmc.bec_kernel(0.9))
    tracemalloc.start()
    try:
        report = binning.simulate_nested_binning(ch, [0.5, 0.5], (0.25, 0.25, np.log2(3) / 4),
                                                 n=16, trials=400, seed=1,
                                                 measure_leakage=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["error_rate"] == DECODE_ONLY_N16[main]
    assert report["normalized_leak_m1_strong"] is None
    assert peak < 32 * 2**20  # a single 400 x 20,736 score matrix is 66 MB


def error_rate_reference(codebook, py_x, trials, rng):
    """ML decoding with 2-D fancy indexing, all trials in one score matrix.

    The same draws and the same per-position sum order that
    binning.empirical_error_rate must reproduce exactly.
    """
    w = np.asarray(py_x, dtype=float)
    flat = codebook.flat()
    logw = np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), -1e30)
    sent = rng.integers(0, codebook.size, size=trials)
    x = flat[sent]
    cdf = np.cumsum(w, axis=1)
    u = rng.random(size=x.shape)
    y = (u[:, :, None] >= cdf[x][:, :, :-1]).sum(axis=2)
    scores = np.zeros((trials, codebook.size))
    for i in range(codebook.n):
        scores += logw[flat[:, i][None, :], y[:, i][:, None]]
    decoded = np.argmax(scores, axis=1)
    return float(((decoded // codebook.n_per) != (sent // codebook.n_per)).mean())


@st.composite
def decode_cases(draw):
    n = draw(st.integers(1, 8))
    counts = tuple(draw(st.sampled_from([1, 2, 3, 5])) for _ in range(3))
    nx = draw(st.sampled_from([2, 3]))
    ny = draw(st.integers(2, 4))
    # integer weights with zeros, each row normalized; a zero row gets one unit
    weights = np.array(draw(st.lists(st.integers(0, 3), min_size=nx * ny,
                                     max_size=nx * ny)), dtype=float).reshape(nx, ny)
    weights[weights.sum(axis=1) == 0, 0] = 1.0
    trials = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    cb = binning.make_codebook(np.full(nx, 1.0 / nx), n, counts,
                               np.random.default_rng(seed))
    return cb, weights / weights.sum(axis=1, keepdims=True), trials, seed


def decode_example(n, counts, kernel, trials=40, seed=0):
    """A decode_cases value with a fixed codebook shape and kernel."""
    kernel = np.asarray(kernel, dtype=float)
    cb = binning.make_codebook(np.full(len(kernel), 1.0 / len(kernel)), n, counts,
                               np.random.default_rng(seed))
    return cb, kernel, trials, seed


@pytest.mark.parametrize("scores", [1, 2**20])
@settings(max_examples=60)
@given(case=decode_cases())
# the decoder's prefix table at its edges: K = 1 < nx, so no position is scored
# ahead; nx**n = K, so the table holds every whole word; ternary input with
# 3**3 <= K = 45 < 3**4, so 3 positions are scored ahead and 4 gathered
@example(case=decode_example(5, (1, 1, 1), [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]))
@example(case=decode_example(3, (2, 2, 2), [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]))
@example(case=decode_example(7, (3, 3, 5), [[0.6, 0.2, 0.2], [0.2, 0.6, 0.2],
                                            [0.0, 0.5, 0.5]]))
def test_error_rate_matches_fancy_indexing_reference(case, scores):
    cb, kernel, trials, seed = case
    want = error_rate_reference(cb, kernel, trials, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(binning, "_DECODE_SCORES", scores)
        got = binning.empirical_error_rate(cb, kernel, trials, np.random.default_rng(seed))
    assert got == want


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_decoder_chunking_does_not_change_error_rate(monkeypatch, seed):
    cb = binning.make_codebook([0.5, 0.5], 8, (4, 4, 9), np.random.default_rng(seed))
    kernel = dmc.bsc_kernel(0.1)
    whole = binning.empirical_error_rate(cb, kernel, 97, np.random.default_rng(seed))
    for scores in (1, 144 * 5 * 8, 144 * 96 * 8 + 1):  # 1 row, 5 rows, 96 rows per chunk
        monkeypatch.setattr(binning, "_DECODE_SCORES", scores)
        assert binning.empirical_error_rate(cb, kernel, 97,
                                            np.random.default_rng(seed)) == whole


def test_decoder_memory_bounded_at_benchmark_shape():
    """One decoding run of the benchmark's n = 12 codebook (K = 1,728), 400 trials."""
    cb = binning.make_codebook([0.5, 0.5], 12, (8, 8, 27), np.random.default_rng(1))
    tracemalloc.start()
    try:
        binning.empirical_error_rate(cb, dmc.bsc_kernel(0.02), 400, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # one 400 x 1,728 score matrix and its gathers take 11 MB


@pytest.mark.parametrize("px", [[math.nan, 1.0], [0.5, math.inf], [-math.inf, 1.0]])
def test_make_codebook_rejects_non_finite_px(px):
    with pytest.raises(ValueError, match="px must be a distribution of finite entries"):
        binning.make_codebook(px, 4, (2, 2, 1), np.random.default_rng(0))


def test_rates_to_counts():
    assert binning.rates_to_counts((0.25, 0.25, np.log2(3) / 4), 8) == (4, 4, 9)
    assert binning.rates_to_counts((0.5, 0.0, 0.0), 8) == (16, 1, 1)
    assert binning.rates_to_counts((1, 0, 0), np.int64(8)) == (256, 1, 1)  # ints are numbers
    with pytest.raises(ValueError):
        binning.rates_to_counts((0.3, 0.1, 0.1), 8)  # 2**2.4 not an integer
    with pytest.raises(ValueError):
        binning.rates_to_counts((-0.1, 0.0, 0.0), 8)


def test_rates_to_counts_takes_the_one_count_rule():
    # log2(9)/8 to seven digits: 2**(8*R) misses 9 by 1.4e-7 relative, which the old 1e-6
    # check read as 9 while the report echoed the seven-digit rate
    with pytest.raises(ValueError, match=re.escape("2**(8*0.3962406) = 8.99999874333755 "
                                                   "must be an integer")):
        binning.rates_to_counts((0.25, 0.25, 0.3962406), 8)
    assert binning.rates_to_counts((0.25, 0.25, math.log2(9) / 8), 8) == (4, 4, 9)


# ids kept from when the messages were "not finite", "rate 'a' is not a number",
# "positive integer, got n=8.5" and "positive integer, got n=0": the cases are the
# same, the scalar readers' messages new
@pytest.mark.parametrize("rates, n, match", [
    pytest.param((math.inf, 0.0, 0.0), 8, "^rate = inf must be a finite real number$",
                 id="rates0-8-not finite"),
    pytest.param((math.nan, 0.0, 0.0), 8, "^rate = nan must be a finite real number$",
                 id="rates1-8-not finite"),
    ((300.0, 0.0, 0.0), 8, "too large"),
    pytest.param((0.25, 0.25, 0.0), 0, "^n = 0 must be >= 1$",
                 id="rates3-0-positive integer, got n=0"),
    pytest.param((0.25, 0.25, 0.0), -4, "^n = -4 must be >= 1$",
                 id="rates4--4-positive integer, got n=-4"),
    pytest.param(("a", 0, 0), 8, "^rate = 'a' must be a finite real number$",
                 id="rates5-8-rate 'a' is not a number"),
    pytest.param((True, 0, 0), 8, "^rate = True must be a finite real number$",
                 id="rates6-8-rate True is not a number"),
    pytest.param((0.25, 0.25, 0.0), 8.5, r"^n = 8\.5 must be an integer$",
                 id="rates7-8.5-positive integer, got n=8.5"),
    pytest.param((0.25, 0.25, 0.0), True, "^n = True must be an integer$",
                 id="rates8-True-positive integer, got n=True"),
    pytest.param((0.25, 0.25, 0.0), "8", "^n = '8' must be an integer$",
                 id="rates9-8-positive integer, got n='8'"),
    ((0.25, 0.25), 8, r"^rates must be \(R1, R2, T\)$"),
])
def test_rates_to_counts_domain_errors(rates, n, match):
    with pytest.raises(ValueError, match=match):
        binning.rates_to_counts(rates, n)


def test_simulate_rejects_negative_trials():
    with pytest.raises(ValueError, match="^trials = -5 must be >= 0$"):
        binning.simulate_nested_binning(bec_triple(), [0.5, 0.5], (0.25, 0.25, 0.0),
                                        n=8, trials=-5, seed=1)


@pytest.mark.parametrize("n, trials, message", [
    (8.0, 4, "n = 8.0 must be an integer"),
    (8, "5", "trials = '5' must be an integer"),
    (8, 5.0, "trials = 5.0 must be an integer"),
    (8, True, "trials = True must be an integer"),
], ids=["n=8.0", "trials=str", "trials=5.0", "trials=True"])
def test_simulate_reads_n_and_trials_as_integers(n, trials, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        binning.simulate_nested_binning(bec_triple(), [0.5, 0.5], (0.25, 0.25, 0.0),
                                        n=n, trials=trials, seed=1)


@pytest.mark.parametrize("trials", ["5", 5.0, True])
def test_error_rate_reads_trials_as_an_integer(trials):
    cb = binning.make_codebook([0.5, 0.5], 4, (2, 2, 2), np.random.default_rng(1))
    message = f"trials = {trials!r} must be an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        binning.empirical_error_rate(cb, dmc.bsc_kernel(0.1), trials, np.random.default_rng(1))


def test_codebook_and_leakage_guards_name_the_input():
    with pytest.raises(ValueError, match="^" + re.escape(
            "codeword shape (2, 2, 8) must be (*, *, *, *), of integers from 0 to 1") + "$"):
        NestedCodebook(np.zeros((2, 2, 8), dtype=np.int64), nx=2)
    cb = binning.make_codebook([0.5, 0.5], 4, (2, 2, 2), np.random.default_rng(1))
    with pytest.raises(ValueError, match="^level must be 'bin' or 'subbin'$"):
        binning.exact_leakage(cb, dmc.bec_kernel(0.5), level="x")


SYMBOLS = f"^{re.escape('codeword entries must be integers from 0 to 1, in shape (*, *, *, *)')}$"


def test_codebook_of_fractions_is_not_truncated():
    with pytest.raises(ValueError, match=SYMBOLS):
        NestedCodebook(np.full((2, 2, 2, 4), 0.5), nx=2)
    words = np.ones((2, 2, 2, 4))  # an integral float array reads by value
    assert np.array_equal(NestedCodebook(words, nx=2).codewords, words.astype(np.int64))


def test_negative_symbol_does_not_wrap():
    words = np.zeros((2, 2, 2, 4), dtype=np.int64)
    words[0, 0, 0, 0] = -1  # at the parent, numpy's index -1 read it as symbol 1: leakage 0.0
    with pytest.raises(ValueError, match=SYMBOLS):
        binning.exact_leakage(NestedCodebook(words, nx=2), dmc.bec_kernel(0.5))


@pytest.mark.parametrize("measure", ["leakage", "error rate"])
def test_symbol_outside_the_alphabet_is_a_domain_error(measure):
    words = np.zeros((2, 2, 2, 4), dtype=np.int64)
    words[1, 1, 1, 3] = 2  # == nx: an IndexError inside the measure at the parent
    with pytest.raises(ValueError, match=SYMBOLS):
        cb = NestedCodebook(words, nx=2)
        if measure == "leakage":
            binning.exact_leakage(cb, dmc.bec_kernel(0.5))
        else:
            binning.empirical_error_rate(cb, np.eye(2), 4, np.random.default_rng(1))


@pytest.mark.parametrize("nx, message", [
    (True, "nx = True must be an integer"), (1.5, "nx = 1.5 must be an integer"),
    (0, "nx = 0 must be >= 1")], ids=["True", "1.5", "0"])
def test_alphabet_size_is_read_as_an_integer(nx, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        NestedCodebook(np.zeros((2, 2, 2, 4), dtype=np.int64), nx=nx)
    assert NestedCodebook(np.zeros((2, 2, 2, 4)), nx=np.int64(2)).nx == 2


@pytest.mark.parametrize("axis", range(4))
def test_empty_codebook_axis_is_a_domain_error(axis):
    shape = [2, 2, 2, 4]
    shape[axis] = 0  # an empty bin axis gave "math domain error" in the leakage at the parent
    with pytest.raises(ValueError, match=re.escape(
            "codewords must have axes (bin, subbin, slot, position), none empty")):
        binning.exact_leakage(NestedCodebook(np.zeros(shape, dtype=np.int64), nx=2),
                              dmc.bec_kernel(0.5))


def test_pattern_keys_beyond_64_bits_are_refused():
    # 8 positions of 256 revealed symbols need 64 key bits: within both leakage budgets
    cb = binning.make_codebook(np.full(256, 1 / 256), 8, (2, 2, 2), np.random.default_rng(1))
    with pytest.raises(ValueError, match="^pattern projection would overflow 64-bit keys$"):
        binning.exact_leakage(cb, np.eye(256))


def erasure16_triple():
    """Noiseless over 16 symbols; both eavesdroppers see a symbol or, half the time, erase it."""
    erasure = np.hstack([0.5 * np.eye(16), 0.5 * np.ones((16, 1))])
    return DmcTriple.independent(np.eye(16), erasure, erasure)


def test_pattern_key_span_checked_before_any_codebook(monkeypatch):
    # n = 16 digits of base 16 and 256 (bin, subbin) groups span 72 key bits
    ch, px = erasure16_triple(), np.full(16, 1 / 16)
    binning._check_simulation(ch, px, (0.25, 0.25, 0.0), 8, 50, True)  # 36 bits
    with pytest.raises(ValueError, match="^pattern projection would overflow 64-bit keys$"):
        binning._check_simulation(ch, px, (0.25, 0.25, 0.0), 16, 50, True)
    binning._check_simulation(ch, px, (0.25, 0.25, 0.0), 16, 50, False)
    calls = []
    monkeypatch.setattr(binning, "make_codebook", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="^pattern projection would overflow 64-bit keys$"):
        binning.simulate_nested_binning(ch, px, (0.25, 0.25, 0.0), n=16, trials=50, seed=1)
    assert calls == []


@pytest.mark.parametrize("kernel, match", [
    ([[2.0, 0.0], [0.0, 2.0]], "kernel rows must sum to 1"),
    ([[math.nan, 1.0], [0.0, 1.0]], "kernel has non-finite"),
    ([[math.inf, 1.0], [0.0, 1.0]], "kernel has non-finite"),
    ([[1.5, -0.5], [0.2, 0.8]], "kernel has negative entries"),
    ([0.5, 0.5], "kernel must be a 2-D matrix"),
])
def test_exact_leakage_rejects_non_stochastic_kernel(kernel, match):
    cb = binning.make_codebook([0.5, 0.5], 4, (2, 2, 2), np.random.default_rng(1))
    for level in ("bin", "subbin"):
        with pytest.raises(ValueError, match=match):
            binning.exact_leakage(cb, kernel, level)


@pytest.mark.parametrize("trials", [0, -3])
def test_error_rate_rejects_trials_below_one(trials):
    cb = binning.make_codebook([0.5, 0.5], 4, (2, 2, 2), np.random.default_rng(1))
    with pytest.raises(ValueError, match=f"^trials = {trials} must be >= 1$"):
        binning.empirical_error_rate(cb, dmc.bsc_kernel(0.1), trials,
                                     np.random.default_rng(1))


def test_error_rate_rejects_trials_over_budget_before_sampling():
    cb = binning.make_codebook([0.5, 0.5], 8, (2, 2, 2), np.random.default_rng(1))
    trials = binning.TRIALS_BUDGET // 8 + 1
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(
                f"trials * n = {trials} * 8 = {trials * 8} exceeds binning.TRIALS_BUDGET = "
                f"{binning.TRIALS_BUDGET}")):
            binning.empirical_error_rate(cb, dmc.bsc_kernel(0.1), trials,
                                         np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16  # the sampled outputs alone would take 8 MB


def test_error_rate_accepts_trials_at_budget(monkeypatch):
    cb = binning.make_codebook([0.5, 0.5], 8, (2, 2, 2), np.random.default_rng(1))
    monkeypatch.setattr(binning, "TRIALS_BUDGET", 64)
    rate = binning.empirical_error_rate(cb, dmc.bsc_kernel(0.1), 8, np.random.default_rng(1))
    assert 0.0 <= rate <= 1.0
    with pytest.raises(ValueError, match=re.escape(
            "trials * n = 9 * 8 = 72 exceeds binning.TRIALS_BUDGET = 64")):
        binning.empirical_error_rate(cb, dmc.bsc_kernel(0.1), 9, np.random.default_rng(1))


@pytest.mark.parametrize("py_x, message", [
    ([[0.9, 0.1]], "py_x must have 2 rows, one per input symbol"),
    ([[0.9, 0.1]] * 3, "py_x must have 2 rows, one per input symbol"),
    ([0.9, 0.1], "py_x must be a 2-D matrix of numbers"),
], ids=["py_x0", "py_x1", "py_x2"])
def test_error_rate_rejects_py_x_over_wrong_alphabet(py_x, message):
    cb = binning.make_codebook([0.5, 0.5], 4, (2, 2, 2), np.random.default_rng(1))
    with pytest.raises(ValueError, match=message):
        binning.empirical_error_rate(cb, py_x, 10, np.random.default_rng(1))


@pytest.mark.parametrize("py_x, match", [
    ([[2.0, 0.0], [0.0, 2.0]], "py_x rows must sum to 1"),
    ([[0.5, 0.6], [0.5, 0.5]], "py_x rows must sum to 1"),
    ([[math.nan, 1.0], [0.0, 1.0]], "py_x has non-finite"),
    ([[1.5, -0.5], [0.2, 0.8]], "py_x has negative entries"),
])
def test_error_rate_rejects_non_stochastic_py_x(py_x, match):
    """The decoder's kernel is checked as exact_leakage checks an eavesdropper's."""
    cb = binning.make_codebook([0.5, 0.5], 4, (2, 2, 2), np.random.default_rng(1))
    with pytest.raises(ValueError, match=match):
        binning.empirical_error_rate(cb, py_x, 50, np.random.default_rng(1))


def test_exact_leakage_rejects_kernel_over_wrong_alphabet():
    cb = binning.make_codebook([0.5, 0.5], 4, (2, 2, 2), np.random.default_rng(1))
    with pytest.raises(ValueError, match="kernel must have 2 rows, one per input symbol"):
        binning.exact_leakage(cb, dmc.bec_kernel(0.5)[[0, 1, 1]], "bin")


@pytest.mark.parametrize("px", [[1.0], [0.5, 0.25, 0.25]])
def test_simulate_rejects_px_over_wrong_alphabet(px):
    with pytest.raises(ValueError, match="px must be a distribution over the input alphabet"):
        binning.simulate_nested_binning(bec_triple(), px, (0.25, 0.25, 0.0),
                                        n=8, trials=10, seed=1)


@pytest.mark.parametrize("px", [[[0.5, 0.5]], [[0.5], [0.5]], 1.0], ids=["row", "column", "0-d"])
@pytest.mark.parametrize("use", [
    lambda px: dmc.region_point_simple(bec_triple(), px),
    lambda px: binning.make_codebook(px, 4, (2, 2, 1), np.random.default_rng(0)),
    lambda px: binning.simulate_nested_binning(bec_triple(), px, (0.25, 0.25, 0.0),
                                               n=8, trials=10, seed=1),
], ids=["region_point_simple", "make_codebook", "simulate_nested_binning"])
def test_px_that_is_not_1d_is_rejected(use, px):
    # a flattened px once passed for a distribution over the input alphabet
    with pytest.raises(ValueError, match="px must be a 1-D vector"):
        use(px)


def test_make_codebook_shape_and_determinism():
    rng = np.random.default_rng(3)
    cb = binning.make_codebook([0.5, 0.5], 6, (2, 4, 3), rng)
    assert cb.codewords.shape == (2, 4, 3, 6)
    assert cb.size == 24 and cb.nx == 2
    cb2 = binning.make_codebook([0.5, 0.5], 6, (2, 4, 3), np.random.default_rng(3))
    assert np.array_equal(cb.codewords, cb2.codewords)
    assert (cb.n_bins, cb.n_subbins, cb.n_per, cb.n) == (2, 4, 3, 6)


def test_erasure_decomposition_detects_structure():
    dec = binning._erasure_decomposition(dmc.bec_kernel(0.3))
    assert dec is not None
    delta, reveal = dec
    assert delta == pytest.approx(0.3)
    assert list(reveal) == [0, 1]
    dec = binning._erasure_decomposition(dmc.noiseless_kernel(2))
    assert dec is not None and dec[0] == 0.0
    dec = binning._erasure_decomposition(CONSTANT)
    assert dec is not None and dec[0] == 1.0
    assert binning._erasure_decomposition(dmc.bsc_kernel(0.1)) is None
    # ten constant columns 0.9e-9 apart across the rows give delta = 0.5 + 9e-9, and
    # row 1 reveals 0.5: 9e-9 from 1 - delta, beyond _ERASURE_TOL, so the kernel is general
    drift = np.array([[0.05 + 0.9e-9] * 10 + [0.5 - 9e-9, 0.0],
                      [0.05] * 10 + [0.0, 0.5]])
    assert binning._erasure_decomposition(drift) is None


MARGINALS = DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(0.3),
                                  dmc.bec_kernel(0.9))


@pytest.mark.parametrize("kernel, delta", [
    (dmc.bec_kernel(1 / 3), 1 / 3),
    (MARGINALS.pz1_x, 0.3),
    (MARGINALS.pz2_x, 0.9),
    (np.array([[0.6666666667, 0.0, 0.3333333333], [0.0, 0.6666666667, 0.3333333333]]),
     0.3333333333),
])
def test_erasure_decomposition_keeps_bec_kernels_on_the_erasure_path(kernel, delta):
    """Exact BECs, the marginals of a DmcTriple of BECs and a BEC written to ten digits."""
    dec = binning._erasure_decomposition(kernel)
    assert dec is not None
    assert dec[0] == pytest.approx(delta, abs=1e-15)
    assert list(dec[1]) == [0, 1]


def test_exact_leakage_matches_oracle_general_path():
    rng = np.random.default_rng(7)
    ch_kernels = [dmc.bsc_kernel(0.2), dmc.bsc_kernel(0.45)]
    for kernel in ch_kernels:
        for _ in range(3):
            cb = binning.make_codebook([0.6, 0.4], 3, (2, 2, 2), rng)
            for level in ("bin", "subbin"):
                got = binning.exact_leakage(cb, kernel, level)
                want = leakage_oracle(cb, kernel, level)
                assert got == pytest.approx(want, abs=1e-10)


def test_exact_leakage_erasure_path_matches_oracle_and_general():
    rng = np.random.default_rng(11)
    kernel = dmc.bec_kernel(0.4)
    for _ in range(3):
        cb = binning.make_codebook([0.5, 0.5], 4, (2, 2, 3), rng)
        for level in ("bin", "subbin"):
            fast = binning.exact_leakage(cb, kernel, level)
            slow = binning._leakage_general(cb, kernel, level)
            want = leakage_oracle(cb, kernel, level)
            assert fast == pytest.approx(want, abs=1e-10)
            assert slow == pytest.approx(want, abs=1e-10)


def test_leakage_single_bin_is_zero():
    rng = np.random.default_rng(5)
    cb = binning.make_codebook([0.5, 0.5], 4, (1, 4, 2), rng)
    assert binning.exact_leakage(cb, dmc.bec_kernel(0.5), "bin") == pytest.approx(0.0, abs=1e-12)


def test_noiseless_main_constant_eavesdroppers():
    ch = DmcTriple.independent(dmc.noiseless_kernel(2), CONSTANT, CONSTANT)
    report = binning.simulate_nested_binning(
        ch, [0.5, 0.5], (0.25, 0.25, 0.0), n=8, trials=200, seed=1)
    assert report["normalized_leak_m1_strong"] == pytest.approx(0.0, abs=1e-12)
    assert report["normalized_leak_messages_weak"] == pytest.approx(0.0, abs=1e-12)
    # collisions between distinct codewords can still produce rare ties
    assert report["error_rate"] <= 0.05


def test_simulate_report_deterministic():
    ch = bec_triple()
    a = binning.simulate_nested_binning(ch, [0.5, 0.5], (0.25, 0.25, 0.25),
                                        n=8, trials=50, seed=9)
    b = binning.simulate_nested_binning(ch, [0.5, 0.5], (0.25, 0.25, 0.25),
                                        n=8, trials=50, seed=9)
    assert a == b


# (strong kernel, weak kernel, erasure-profile passes one simulation makes)
LEAKAGE_REQUESTS = {
    "bec-pair": (dmc.bec_kernel(0.5), dmc.bec_kernel(0.9), 1),
    "bec-strong-bsc-weak": (dmc.bec_kernel(0.5), dmc.bsc_kernel(0.3), 1),
    # the same erasures with the weak outputs swapped: it reveals 1 - x, a second reveal map
    "bec-pair-swapped-reveal": (dmc.bec_kernel(0.5), dmc.bec_kernel(0.9)[:, [1, 0, 2]], 2),
    "bsc-pair": (dmc.bsc_kernel(0.2), dmc.bsc_kernel(0.4), 0),
}


@pytest.mark.parametrize("z1, z2, passes", LEAKAGE_REQUESTS.values(),
                         ids=LEAKAGE_REQUESTS.keys())
def test_simulation_leaks_are_exact_leakage_per_symbol(monkeypatch, z1, z2, passes):
    ch = DmcTriple.independent(dmc.noiseless_kernel(2), z1, z2)
    rates, n, seed = (0.25, 0.25, np.log2(3) / 4), 8, 3
    real, calls = binning._erasure_profile, []

    def counting_profile(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(binning, "_erasure_profile", counting_profile)
    report = binning.simulate_nested_binning(ch, [0.5, 0.5], rates, n=n, trials=20, seed=seed)
    assert len(calls) == passes
    # the codebook substream the simulation draws from
    rng_cb = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
    cb = binning.make_codebook([0.5, 0.5], n, binning.rates_to_counts(rates, n), rng_cb)
    assert report["normalized_leak_m1_strong"] == binning.exact_leakage(cb, ch.pz1_x, "bin") / n
    assert (report["normalized_leak_messages_weak"]
            == binning.exact_leakage(cb, ch.pz2_x, "subbin") / n)


def test_simulate_budget_errors():
    ch = bec_triple()
    # 2**20 codewords of 16 symbols each
    with pytest.raises(ValueError):
        binning.simulate_nested_binning(ch, [0.5, 0.5], (0.5, 0.5, 0.25),
                                        n=16, trials=1, seed=0)
    # one codeword, but 2**25 reveal patterns
    with pytest.raises(ValueError):
        binning.simulate_nested_binning(ch, [0.5, 0.5], (0.0, 0.0, 0.0),
                                        n=25, trials=1, seed=0)


def test_decoding_below_capacity_is_reliable():
    # T = R2 = 0 and R1 well below I(X;Y) = 1: plain reliable coding
    ch = bec_triple()
    report = binning.simulate_nested_binning(ch, [0.5, 0.5], (0.5, 0.0, 0.0),
                                             n=16, trials=400, seed=2)
    assert report["error_rate"] < 0.10


def test_ml_decoder_prefers_likely_codeword():
    # two codewords, noiseless channel: decoding must be exact
    cw = np.array([[[[0, 0, 0, 0]]], [[[1, 1, 1, 1]]]])
    cb = NestedCodebook(codewords=cw, nx=2)
    err = binning.empirical_error_rate(cb, dmc.noiseless_kernel(2), 64,
                                       np.random.default_rng(0))
    assert err == 0.0


def test_codebook_copies_the_caller_array():
    w = np.zeros((2, 1, 1, 4), dtype=np.int64)
    cb = NestedCodebook(w, 2)
    assert not np.shares_memory(cb.codewords, w) and not cb.codewords.flags.writeable
    w[...] = 1
    assert not cb.codewords.any()


def test_leakage_bounds_total_entropy():
    rng = np.random.default_rng(13)
    cb = binning.make_codebook([0.5, 0.5], 6, (4, 2, 2), rng)
    leak_bin = binning.exact_leakage(cb, dmc.bec_kernel(0.2), "bin")
    leak_sub = binning.exact_leakage(cb, dmc.bec_kernel(0.2), "subbin")
    assert 0.0 <= leak_bin <= math.log2(4) + 1e-12
    assert leak_bin <= leak_sub + 1e-12  # (m1,m2) reveals at least as much as m1
    assert leak_sub <= math.log2(8) + 1e-12


def ensemble_gain(words: int, cells: int) -> float:
    """g(N, B) = log2 N - E log2(1 + Bin(N - 1, 1/B)).

    N words fall i.i.d. uniformly into B cells; g is the expected information
    I(word; cell) about a uniformly chosen word, whose cell holds it and a
    Bin(N - 1, 1/B) count of the others.
    """
    p = 1 / cells
    return math.log2(words) - sum(
        math.comb(words - 1, j) * p**j * (1 - p)**(words - 1 - j) * math.log2(1 + j)
        for j in range(words))


def test_ensemble_gain_matches_enumeration():
    # the average over all B**N cell assignments of log2 N - sum_c (c/N) log2 c
    for words in range(1, 5):
        for cells in range(1, 5):
            total = 0.0
            for cell_of in itertools.product(range(cells), repeat=words):
                total += math.log2(words) - sum(
                    c / words * math.log2(c) for c in Counter(cell_of).values())
            assert ensemble_gain(words, cells) == pytest.approx(total / cells**words, abs=1e-12)


def test_simulated_leakage_matches_the_codebook_ensemble():
    """Over seeds 1-400 at n = 8, each mean realized leakage lies within 4 standard
    errors of its ensemble value.

    With codewords i.i.d. uniform on {0, 1}, an erasure eavesdropper seeing k of the
    n positions puts each word in one of 2**k equally likely cells, so by linearity
    E I(M; Z^n) = sum_k C(n, k) (1 - delta)**k delta**(n - k) [g(K, 2**k) - g(N, 2**k)],
    with K = 144 codewords and N words per message value: 36 per bin, 9 per subbin.
    """
    n, rates, seeds = 8, (0.25, 0.25, np.log2(3) / 4), range(1, 401)
    ch = bec_triple(0.5, 0.9)
    runs = [binning.simulate_nested_binning(ch, [0.5, 0.5], rates, n=n, trials=0, seed=s)
            for s in seeds]
    for key, delta, words, want in (("normalized_leak_m1_strong", 0.5, 36, 0.0474303),
                                    ("normalized_leak_messages_weak", 0.9, 9, 0.0121920)):
        ensemble = sum(
            math.comb(n, k) * (1 - delta)**k * delta**(n - k)
            * (ensemble_gain(144, 2**k) - ensemble_gain(words, 2**k))
            for k in range(n + 1)) / n
        assert ensemble == pytest.approx(want, abs=5e-8)
        leaks = np.array([run[key] for run in runs])
        stderr = leaks.std(ddof=1) / math.sqrt(len(leaks))
        assert abs(leaks.mean() - ensemble) <= 4 * stderr, (key, leaks.mean(), ensemble)


def ensemble_codebooks(seeds):
    """The n = 8 codebooks of test_simulated_leakage_matches_the_codebook_ensemble,
    drawn as simulate_nested_binning draws them."""
    counts = binning.rates_to_counts((0.25, 0.25, np.log2(3) / 4), 8)
    for seed in seeds:
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
        yield binning.make_codebook([0.5, 0.5], 8, counts, rng)


def test_erasure_profile_rows_match_the_codebook_ensemble():
    """Over seeds 1-400, each profile entry's mean lies within 4 standard errors of
    C(8, k) [g(144, 2**k) - g(N, 2**k)]: the leakage ensemble row by row, N = 36
    words per bin (level 0) and 9 per subbin (level 1); the empty pattern gives 0."""
    profiles = np.array([binning._erasure_profile(cb, np.arange(2))
                         for cb in ensemble_codebooks(range(1, 401))])
    assert not profiles[:, :, 0].any()
    for level, words in ((0, 36), (1, 9)):
        for k in range(1, 9):
            rows = profiles[:, level, k]
            want = math.comb(8, k) * (ensemble_gain(144, 2**k) - ensemble_gain(words, 2**k))
            stderr = rows.std(ddof=1) / math.sqrt(len(rows))
            assert abs(rows.mean() - want) <= 4 * stderr, (level, k, rows.mean(), want)


def test_noiseless_error_rate_matches_the_codebook_ensemble():
    """Over seeds 1-400 (100 trials each), the mean error rate lies within 4 standard
    errors of its ensemble value.

    Over a noiseless channel the decoder errs exactly when a lower-index word of
    another (bin, subbin) group equals the sent one; a word of group g = 0..15 has
    9 g such words, each equal with probability 2**-8."""
    ch = DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(0.5), dmc.bec_kernel(0.9))
    rates = (0.25, 0.25, np.log2(3) / 4)
    errors = np.array([binning.simulate_nested_binning(
        ch, [0.5, 0.5], rates, n=8, trials=100, seed=s, measure_leakage=False)["error_rate"]
        for s in range(1, 401)])
    want = np.mean([1 - (1 - 2.0**-8) ** (9 * g) for g in range(16)])
    assert want == pytest.approx(0.22201, abs=5e-6)
    stderr = errors.std(ddof=1) / math.sqrt(len(errors))
    assert abs(errors.mean() - want) <= 4 * stderr, (errors.mean(), want)
