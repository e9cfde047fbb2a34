"""Monte Carlo realization of the nested-binning secrecy scheme.

A codebook of i.i.d. codewords is partitioned into bins (high-security
message) and subbins (low-security message); the remaining index inside
a subbin is pure transmitter randomness.  Decoding is maximum
likelihood over the whole codebook.  Leakage about the messages at the
two eavesdropper outputs is computed EXACTLY for the realized codebook
by marginalizing the memoryless channel law over bins and subbins,
never estimated from samples.  One evaluator takes every (kernel, level)
request and picks the path per kernel, subject to the leakage budget:

* an erasure-style kernel (each output symbol reveals a deterministic
  function of the input or, with total probability delta, is
  input-independent noise) takes one pass over the 2**n reveal patterns
  that sums their information by pattern size k into S_k, for both
  levels at once; the leakage is the polynomial
  sum_k (1 - delta)**k delta**(n - k) S_k, and requests whose kernels
  share a reveal map share the pass;
* any other kernel is handled by enumerating all |Z|**n output sequences.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from math import log2, prod

import numpy as np

from secembed import _count, _integer, _real, _shown
from secembed.dmc import DmcTriple, _check_distribution, _check_kernel, entropy_bits

__all__ = [
    "NestedCodebook",
    "rates_to_counts",
    "make_codebook",
    "exact_leakage",
    "empirical_error_rate",
    "simulate_nested_binning",
]


def rates_to_counts(rates, n: int) -> tuple[int, int, int]:
    """Codebook sizes (bins, subbins, per-subbin) for rates in bits/use.

    Each 2**(n*rate) must be a count by the one count rule (within 1e-9 of an
    integer, relative), never rounded to one, so the realized rates are exactly
    the requested ones.  n is an integer >= 1, each rate a finite real >= 0.
    """
    if len(rates) != 3:
        raise ValueError("rates must be (R1, R2, T)")
    n = _integer(n, "n", 1)
    _real(n, "n")  # n * rate is a float
    counts = []
    for r in rates:
        r = _real(r, "rate", 0)
        if n * r >= 1024:  # 2.0 ** 1024 overflows a float
            raise ValueError(f"2**(n*{r}) at n={n} is too large to be a codebook count")
        counts.append(_count(2.0 ** (n * r), f"2**({n}*{r})"))
    return tuple(counts)


@dataclass(frozen=True)
class NestedCodebook:
    """Codewords indexed (bin, subbin, within-subbin), each a length-n word.

    nx >= 1 is the input alphabet size; every entry must equal one of its symbols
    0..nx-1 by value (an integral float passes), never truncated or wrapped.
    """

    codewords: np.ndarray
    nx: int

    def __post_init__(self):
        nx = _integer(self.nx, "nx", 1)
        words = np.asarray(self.codewords)
        if words.ndim != 4 or 0 in words.shape:
            raise ValueError("codewords must have axes (bin, subbin, slot, position), none empty")
        top = min(nx, 2**63)  # stored as int64; a float array cannot compare with 10**400
        in_range = words.dtype.kind in "biuf" and ((words >= 0) & (words < top)).all()
        cw = words.astype(np.int64) if in_range else None  # a copy: the caller's is never aliased
        if cw is None or not np.array_equal(cw, words):
            raise ValueError(f"codeword entries must be symbols 0..{nx - 1}")
        cw.flags.writeable = False
        object.__setattr__(self, "codewords", cw)
        object.__setattr__(self, "nx", nx)

    @property
    def n(self) -> int:
        return self.codewords.shape[3]

    @property
    def n_bins(self) -> int:
        return self.codewords.shape[0]

    @property
    def n_subbins(self) -> int:
        return self.codewords.shape[1]

    @property
    def n_per(self) -> int:
        return self.codewords.shape[2]

    @property
    def size(self) -> int:
        return self.n_bins * self.n_subbins * self.n_per

    def flat(self) -> np.ndarray:
        return self.codewords.reshape(self.size, self.n)


def make_codebook(px, n: int, counts, rng: np.random.Generator) -> NestedCodebook:
    """Draw all codewords i.i.d. from px (bin/subbin structure is just labeling).

    n and the counts (bins, subbins, per-subbin) are integers >= 1, their
    product at most CODEBOOK_BUDGET symbols.
    """
    px = _check_distribution(px, "px")
    shape = (*(_integer(c, "counts", 1) for c in counts), _integer(n, "n", 1))
    _within(f"K * n = {prod(shape[:3])} * {shape[3]}", prod(shape), "CODEBOOK_BUDGET")
    words = rng.choice(len(px), size=shape, p=px)
    return NestedCodebook(codewords=words, nx=len(px))


_ERASURE_TOL = 1e-9  # an entry this near its column's constant, 0 or 1 - delta is it: dmc._LAW_TOL


def _erasure_decomposition(w: np.ndarray):
    """Split a kernel into input-independent noise symbols plus a reveal map.

    Returns (delta, reveal) where delta is the total noise probability
    and reveal[x] is the deterministic symbol produced when not erased,
    or None when the kernel has no such structure (then the general
    enumeration path applies).
    """
    const = np.ptp(w, axis=0) <= _ERASURE_TOL
    delta = float(w[0, const].sum())
    rest = ~const
    if not rest.any():
        return delta, np.zeros(len(w), dtype=np.int64)
    sub = w[:, rest]
    nonzero = sub > _ERASURE_TOL
    if ((nonzero.sum(axis=1) != 1).any()
            or not np.allclose(sub[nonzero], 1.0 - delta, atol=_ERASURE_TOL)):
        return None
    return delta, nonzero.argmax(axis=1).astype(np.int64)


# Keys per block of reveal patterns, rounded up to a power-of-two count of
# patterns: enough patterns to amortize numpy's per-call overhead on small
# codebooks, few enough to keep a block in cache.
_BLOCK_KEYS = 2**16

# Floats per chunk of general-path leakage laws (groups x |Z|**n), whose chunks
# set that path's sum order; the ML decoder scores trials in chunks of an eighth
# of it (trials x codewords): at n = 12, 400 trials decode in about half the
# time in chunks of 75 as in one.
_DECODE_SCORES = 2**20

# Fixed budgets: enumerated outputs or reveal patterns of one exact leakage,
# pattern keys (2**n patterns x K codewords) of one erasure-style leakage,
# codeword symbols of one simulated codebook, and channel symbols (trials x n)
# sampled by one decoding run.
LEAKAGE_BUDGET = 2**24
LEAKAGE_KEY_BUDGET = 2**32
CODEBOOK_BUDGET = 2**20
TRIALS_BUDGET = 2**20


def _within(expr: str, amount: int, name: str) -> None:
    """The one budget check: amount, the work that expr asks for, must not exceed the
    module constant called name, read at call time so that tests can lower it.  The
    message shows amount in decimal below 2**64 only: expr alone names a larger one,
    whose decimal could pass Python's limit on int-to-str digits."""
    limit = globals()[name]
    if amount > limit:
        shown = f"{expr} = {amount}" if amount < 2**64 else expr
        raise ValueError(f"{shown} exceeds binning.{name} = {limit}")


def _row_clogc(bounds: np.ndarray, first_runs: np.ndarray,
               lut: np.ndarray) -> np.ndarray:
    """Per-row sums of c*log2(c) over runs given by sorted boundary offsets.

    bounds holds every run start, then the end of the last row; every
    row start is a run start, so runs never cross rows, and first_runs
    holds the index in bounds of each row's first run.
    """
    sizes = bounds[1:] - bounds[:-1]
    return np.add.reduceat(lut.take(sizes), first_runs)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _erasure_profile(codebook: NestedCodebook, reveal: np.ndarray) -> np.ndarray:
    """Pattern-conditional message information summed by pattern size.

    Returns a (2, n + 1) profile: [0, k] sums I(M1; f(X)_B) and [1, k]
    sums I(M1, M2; f(X)_B), in bits, over the reveal patterns B of size
    k; a constant reveal map gives zeros.  For a pattern B the codewords
    are grouped by their revealed values; the sums of c*log2(c) over
    group sizes at global, bin and subbin granularity give both
    informations.  Each codeword's key is its (bin, subbin) group id
    plus its revealed values in base-|reveal| digits above it.  The n
    positions split into `low` and n - low high ones: the keys of all
    2**low low sub-patterns form one table built by doubling, and a block
    is that table plus the high sub-pattern's keys, the high
    sub-patterns walked in Gray-code order so each step adds or removes
    one position.  Each block is sorted row-wise; the finest runs give
    the subbin level, and the coarser levels merge runs, so their
    boundaries are found among the finest runs' start keys.

    The walk is split into one contiguous range of blocks per usable CPU,
    each run by a thread (numpy releases the interpreter lock in the
    sorts and reductions) that sorts and reduces a whole block per step,
    so each thread holds one block's scratch (about 40 bytes per key) and
    the peak memory grows with the thread count.
    Each block's partial profile is kept and the partials are added in
    block order, so the result does not depend on the thread count.
    """
    n = codebook.n
    k_total = codebook.size
    profile = np.zeros((2, n + 1))
    base = int(reveal.max()) + 1 if reveal.size else 1
    if base < 2:
        return profile
    groups = codebook.n_bins * codebook.n_subbins
    dtype = np.int32 if n * log2(base) + log2(groups) <= 30 else np.int64
    proj_units = reveal[codebook.flat()].astype(dtype)
    weights = (base ** np.arange(n)).astype(dtype)
    contrib = np.ascontiguousarray((proj_units * weights[None, :]).T * dtype(groups))
    counts_range = np.arange(k_total + 1)
    lut = counts_range * np.log2(np.maximum(counts_range, 1))
    log_bins = log2(codebook.n_bins)
    log_groups = log2(groups)

    low = min(n, (max(1, _BLOCK_KEYS // k_total) - 1).bit_length())
    rows = 1 << low
    low_keys = np.empty((rows, k_total), dtype=dtype)
    low_keys[0] = np.arange(k_total) // codebook.n_per
    low_pc = np.zeros(rows, dtype=np.int64)
    for j in range(low):
        np.add(low_keys[:1 << j], contrib[j], out=low_keys[1 << j:2 << j])
        low_pc[1 << j:2 << j] = low_pc[:1 << j] + 1
    n_blocks = 1 << (n - low)
    threads = max(1, min(_usable_cpus(), n_blocks))
    partials = np.empty((n_blocks, 2, low + 1))
    stop = threading.Event()

    def walk(first: int, last: int) -> None:
        """Fill partials[first:last], one block per high sub-pattern."""
        size = rows * k_total
        row_starts = np.arange(0, size, k_total)
        keys = np.empty((rows, k_total), dtype=dtype)
        flat_keys = keys.reshape(-1)
        new_run = np.ones(size + 1, dtype=bool)  # the last entry marks the end
        gray = first ^ (first >> 1)
        high = contrib[[low + j for j in range(n - low) if gray >> j & 1]].sum(
            axis=0, dtype=dtype)
        for t in range(first, last):
            if stop.is_set():
                return
            if t > first:
                j = (t & -t).bit_length() - 1
                if ((t ^ (t >> 1)) >> j) & 1:
                    high += contrib[low + j]
                else:
                    high -= contrib[low + j]
            np.add(low_keys, high, out=keys)
            keys.sort(axis=1)
            np.not_equal(flat_keys[1:], flat_keys[:-1], out=new_run[1:size])
            new_run[row_starts] = True
            bounds = np.flatnonzero(new_run)
            first_run = np.searchsorted(bounds, row_starts)
            sums = [_row_clogc(bounds, first_run, lut)]
            # coarser levels, bin then global: a finest run opens a group where
            # key // width (its (projection, bin), then projection key) changes or a row starts
            reps = flat_keys.take(bounds[:-1])
            merged = np.ones(bounds.size, dtype=bool)
            for width in (codebook.n_subbins, codebook.n_bins):
                reps //= width
                np.not_equal(reps[1:], reps[:-1], out=merged[1:-1])
                merged[first_run] = True
                coarse = bounds.take(np.flatnonzero(merged))
                sums.append(_row_clogc(coarse, np.searchsorted(coarse, row_starts), lut))
            s_sub, s_bin, s_glob = sums
            i_bin = np.maximum(log_bins - (s_glob - s_bin) / k_total, 0.0)
            i_sub = np.maximum(log_groups - (s_glob - s_sub) / k_total, 0.0)
            if t == 0:
                i_bin[0] = i_sub[0] = 0.0  # empty pattern: nothing revealed
            partials[t, 0] = np.bincount(low_pc, i_bin, low + 1)
            partials[t, 1] = np.bincount(low_pc, i_sub, low + 1)

    errors = []

    def guarded_walk(first: int, last: int) -> None:
        try:
            walk(first, last)
        except BaseException as exc:  # re-raised in the calling thread below
            errors.append(exc)
            stop.set()  # the other threads quit at their next block

    cuts = [n_blocks * w // threads for w in range(threads + 1)]
    helpers = [threading.Thread(target=guarded_walk, args=span)
               for span in zip(cuts[1:-1], cuts[2:])]
    for helper in helpers:
        helper.start()
    try:
        guarded_walk(cuts[0], cuts[1])
        for helper in helpers:
            helper.join()
    finally:
        stop.set()  # an interrupt while joining stops the helpers too
    if errors:
        raise errors[0]
    for t in range(n_blocks):
        high_pc = bin(t ^ (t >> 1)).count("1")
        profile[:, high_pc:high_pc + low + 1] += partials[t]
    return profile


def _erasure_leakage(row: np.ndarray, delta: float) -> float:
    """Leakage in bits at noise probability delta: sum_k (1-delta)**k delta**(n-k) row[k]."""
    k = np.arange(row.size)
    return float(((1.0 - delta) ** k * delta ** (row.size - 1 - k)) @ row)


def _word_laws(words: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|Z|**m output laws of length-m words (last axis), position 0 most significant."""
    laws = np.ones(words.shape[:-1] + (1,))
    for i in range(words.shape[-1]):
        laws = (laws[..., None] * w[words[..., i], None, :]).reshape(*words.shape[:-1], -1)
    return laws


def _leakage_general(codebook: NestedCodebook, w: np.ndarray, level: str) -> float:
    """Exact leakage by enumerating every output sequence (small n only).

    A word's law is the outer product of its half-block laws, so a group's
    mean law is A^T B / |group| for its words' stacked half-block laws A, B.
    """
    nz = w.shape[1]
    n = codebook.n
    half = n // 2
    group = codebook.n_per if level == "subbin" else codebook.n_subbins * codebook.n_per
    n_groups = codebook.size // group
    words = codebook.flat().reshape(n_groups, group, n)
    chunk = max(1, _DECODE_SCORES // nz**n)
    total, h_cond = 0.0, 0.0
    for block in np.split(words, range(chunk, n_groups, chunk)):
        laws = np.matmul(_word_laws(block[..., :half], w).transpose(0, 2, 1),
                         _word_laws(block[..., half:], w)) / group
        total = total + laws.sum(axis=0)
        logs = np.log2(laws, out=np.zeros_like(laws), where=laws > 0)
        h_cond -= float(np.multiply(logs, laws, out=logs).sum()) / n_groups
    return entropy_bits(total / n_groups) - h_cond


def _leakage_path(w: np.ndarray, n: int, k_total: int, groups: int):
    """Kernel w's erasure decomposition, or None for the general path, once its leakage at
    block length n is within LEAKAGE_BUDGET (2**n patterns, or |Z|**n outputs on the general
    path), LEAKAGE_KEY_BUDGET (2**n * k_total keys) and 64-bit keys over `groups` groups."""
    dec = _erasure_decomposition(w)
    if dec is None:
        _within(f"|Z|**n = {w.shape[1]}**{n}", w.shape[1]**n, "LEAKAGE_BUDGET")
        return dec
    _within(f"2**n = 2**{n}", 2**n, "LEAKAGE_BUDGET")
    _within(f"2**n * K = 2**{n} * {k_total}", 2**n * k_total, "LEAKAGE_KEY_BUDGET")
    base = int(dec[1].max()) + 1
    if base > 1 and n * log2(base) + log2(groups) > 62:
        raise ValueError("pattern projection would overflow 64-bit keys")
    return dec


def _leakages(codebook: NestedCodebook, requests) -> list:
    """Exact leakage in bits of each (kernel, level) request, in order."""
    profiles = {}
    out = []
    for w, level in requests:
        dec = _leakage_path(w, codebook.n, codebook.size, codebook.n_bins * codebook.n_subbins)
        if dec is None:
            out.append(_leakage_general(codebook, w, level))
            continue
        key = dec[1].tobytes()
        if key not in profiles:
            profiles[key] = _erasure_profile(codebook, dec[1])
        out.append(_erasure_leakage(profiles[key][1 if level == "subbin" else 0], dec[0]))
    return out


def exact_leakage(codebook: NestedCodebook, kernel, level: str = "bin") -> float:
    """Exact I(M1; Z^n) (level='bin') or I(M1,M2; Z^n) (level='subbin') in bits."""
    if level not in ("bin", "subbin"):
        raise ValueError("level must be 'bin' or 'subbin'")
    w = _check_kernel(kernel, "kernel", codebook.nx)
    return _leakages(codebook, [(w, level)])[0]


def empirical_error_rate(codebook: NestedCodebook, py_x, trials: int,
                         rng: np.random.Generator) -> float:
    """Message error rate of maximum-likelihood decoding over the codebook.

    A trial encodes a uniform (m1, m2, t), samples the legitimate output
    and decodes by maximum likelihood with deterministic lowest-index
    tie breaking; the trial errs when the decoded (bin, subbin) pair
    differs from the transmitted one.  All trials are sampled at once, so
    trials * n may not exceed TRIALS_BUDGET.
    """
    trials = _integer(trials, "trials", 1)
    _within(f"trials * n = {_shown(trials)} * {codebook.n}", trials * codebook.n,
            "TRIALS_BUDGET")
    w = _check_kernel(py_x, "py_x", codebook.nx)
    flat = codebook.flat()
    k_total = codebook.size
    logw = np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), -1e30)
    sent = rng.integers(0, k_total, size=trials)
    x = flat[sent]
    cdf = np.cumsum(w, axis=1)
    u = rng.random(size=x.shape)
    y = (u[:, :, None] >= cdf[x][:, :, :-1]).sum(axis=2)
    decoded = np.empty(trials, dtype=np.int64)
    rows = max(1, _DECODE_SCORES // 8 // k_total)
    logw_t = np.ascontiguousarray(logw.T)
    cols = np.ascontiguousarray(flat.T)
    # the first m positions, nx**m <= K, are scored once per prefix (digit i of
    # a prefix is position i's symbol) and each word gathers its prefix's score;
    # every score stays 0 + s_0 + s_1 + ... in position order, so argmax ties break alike
    m = 0
    while m < codebook.n and codebook.nx ** (m + 1) <= k_total:
        m += 1
    prefix = (codebook.nx ** np.arange(m)) @ cols[:m]
    for start in range(0, trials, rows):
        yc = y[start:start + rows]
        table = np.zeros((len(yc), 1))
        for i in range(m):
            table = (table[:, None, :] + logw_t[yc[:, i]][:, :, None]).reshape(len(yc), -1)
        scores = table.take(prefix, axis=1)
        for i in range(m, codebook.n):
            scores += logw_t[yc[:, i]].take(cols[i], axis=1)
        decoded[start:start + rows] = np.argmax(scores, axis=1)
    errs = (decoded // codebook.n_per) != (sent // codebook.n_per)
    return float(errs.mean())


def _check_simulation(ch: DmcTriple, px, rates, n: int, trials: int,
                      leakage: bool) -> tuple[int, int, int]:
    """Every check of simulate_nested_binning that needs no codebook, in its order.

    Returns the codebook sizes (bins, subbins, per-subbin); raises the
    ValueError that the simulation would raise, the leakage budgets of both
    eavesdroppers included when leakage is measured, so a sweep can reject
    every block before simulating any.
    """
    counts = rates_to_counts(rates, n)
    n, trials = _integer(n, "n"), _integer(trials, "trials", 0)
    _check_distribution(px, "px", size=ch.nx)
    k_total = counts[0] * counts[1] * counts[2]
    _within(f"K * n = {k_total} * {n}", k_total * n, "CODEBOOK_BUDGET")
    _within(f"trials * n = {_shown(trials)} * {n}", trials * n, "TRIALS_BUDGET")
    if leakage:
        for w in (ch.pz1_x, ch.pz2_x):
            _leakage_path(w, n, k_total, counts[0] * counts[1])
    return counts


def simulate_nested_binning(ch: DmcTriple, px, rates, n: int, trials: int,
                            seed: int, *, measure_leakage: bool = True) -> dict:
    """Build one random codebook, measure decoding error and exact leakage.

    Returns the JSON-ready report that ``sim dmc`` prints.  Its leakages
    are normalized: ``normalized_leak_m1_strong`` is (1/n) I(M1; Z1^n)
    against the strong eavesdropper and ``normalized_leak_messages_weak``
    (1/n) I(M1, M2; Z2^n) against the weak one, both None unless measured;
    ``error_rate`` is None without trials.
    Deterministic given the seed: codebook, encoder and channel noise
    use separate substreams of one seed sequence.
    """
    counts = _check_simulation(ch, px, rates, n, trials, measure_leakage)
    # the report holds Python numbers, whatever numbers came in
    n, trials, seed = _integer(n, "n"), _integer(trials, "trials"), _integer(seed, "seed", 0)
    rates = [_real(r, "rate") for r in rates]
    ss = np.random.SeedSequence(seed)
    rng_cb, rng_trials = (np.random.default_rng(s) for s in ss.spawn(2))
    codebook = make_codebook(px, n, counts, rng_cb)
    error = empirical_error_rate(codebook, ch.py_x, trials, rng_trials) if trials else None

    leak1 = leak2 = None
    if measure_leakage:
        leak1, leak2 = (leak / n for leak in _leakages(
            codebook, [(ch.pz1_x, "bin"), (ch.pz2_x, "subbin")]))
    return {"n": n, "rates": dict(zip(("r1", "r2", "t"), rates)),
            "counts": dict(zip(("bins", "subbins", "per_subbin"), counts)),
            "trials": trials, "seed": seed, "error_rate": error,
            "normalized_leak_m1_strong": leak1, "normalized_leak_messages_weak": leak2}
