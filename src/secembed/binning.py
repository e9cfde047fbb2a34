"""Monte Carlo realization of the nested-binning secrecy scheme.

A codebook of i.i.d. codewords is partitioned into bins (high-security
message) and subbins (low-security message); the remaining index inside
a subbin is pure transmitter randomness.  Decoding is maximum
likelihood over the whole codebook.  Leakage about the messages at the
two eavesdropper outputs is computed EXACTLY for the realized codebook
by marginalizing the memoryless channel law over bins and subbins,
never estimated from samples:

* an erasure-style kernel (every output symbol either reveals a
  deterministic function of the input or is input-independent noise)
  admits an exact decomposition over the 2**n reveal patterns, which is
  what makes block lengths around 16 tractable;
* any other kernel is handled by enumerating all |Z|**n output
  sequences, subject to the leakage budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, log2

import numpy as np

from secembed.dmc import DmcTriple, _check_distribution, _check_stochastic, entropy_bits

__all__ = [
    "NestedCodebook",
    "SimReport",
    "rates_to_counts",
    "make_codebook",
    "exact_leakage",
    "empirical_error_rate",
    "simulate_nested_binning",
]


def rates_to_counts(rates, n: int) -> tuple[int, int, int]:
    """Codebook sizes (bins, subbins, per-subbin) for rates in bits/use.

    Each 2**(n*rate) must be an integer count (relative tolerance 1e-6
    against the nearest integer); anything else is rejected rather than
    rounded, so the realized rates are exactly the requested ones.  The
    block length n must be a positive integer.
    """
    if len(rates) != 3:
        raise ValueError("rates must be (R1, R2, T)")
    if n < 1:
        raise ValueError(f"block length n must be a positive integer, got n={n}")
    counts = []
    for r in rates:
        if not isfinite(r):
            raise ValueError(f"rate {r} is not finite")
        if r < 0:
            raise ValueError("rates must be nonnegative")
        if n * r >= 1024:  # 2.0 ** 1024 overflows a float
            raise ValueError(
                f"2**(n*{r}) at n={n} is too large to be a codebook count")
        raw = 2.0 ** (n * r)
        near = round(raw)
        if near < 1 or abs(raw - near) > 1e-6 * max(near, 1):
            raise ValueError(
                f"2**(n*{r}) = {raw} is not an integer codebook count at n={n}")
        counts.append(int(near))
    return tuple(counts)


@dataclass(frozen=True)
class NestedCodebook:
    """Codewords indexed (bin, subbin, within-subbin), each a length-n word."""

    codewords: np.ndarray
    nx: int

    def __post_init__(self):
        cw = np.asarray(self.codewords, dtype=np.int64)
        if cw.ndim != 4:
            raise ValueError("codewords must have axes (bin, subbin, slot, position)")
        cw.flags.writeable = False
        object.__setattr__(self, "codewords", cw)

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

    @property
    def rates(self) -> tuple[float, float, float]:
        return (log2(self.n_bins) / self.n, log2(self.n_subbins) / self.n,
                log2(self.n_per) / self.n)

    def flat(self) -> np.ndarray:
        return self.codewords.reshape(self.size, self.n)


def make_codebook(px, n: int, counts, rng: np.random.Generator) -> NestedCodebook:
    """Draw all codewords i.i.d. from px (bin/subbin structure is just labeling)."""
    px = _check_distribution(px, "px", neg_tol=0.0)
    n_bins, n_subbins, n_per = counts
    words = rng.choice(len(px), size=(n_bins, n_subbins, n_per, n), p=px)
    return NestedCodebook(codewords=words, nx=len(px))


def _erasure_decomposition(w: np.ndarray):
    """Split a kernel into input-independent noise symbols plus a reveal map.

    Returns (delta, reveal) where delta is the total noise probability
    and reveal[x] is the deterministic symbol produced when not erased,
    or None when the kernel has no such structure (then the general
    enumeration path applies).
    """
    atol = 1e-9  # an entry this close to constant across inputs, or to 0, is that
    const = np.ptp(w, axis=0) <= atol
    delta = float(w[0, const].sum())
    rest = ~const
    if not rest.any():
        return delta, np.zeros(len(w), dtype=np.int64)
    sub = w[:, rest]
    nonzero = sub > atol
    if (nonzero.sum(axis=1) != 1).any():
        return None
    if not np.allclose(sub[nonzero], 1.0 - delta, atol=atol):
        return None
    reveal_local = nonzero.argmax(axis=1)
    return delta, reveal_local.astype(np.int64)


# Keys per block of reveal patterns, rounded up to a power-of-two count of
# patterns: enough patterns to amortize numpy's per-call overhead on small
# codebooks, few enough to keep a block in cache.
_BLOCK_KEYS = 2**16

# Floats per chunk of ML-decoding scores (trials x codewords) and of general-path
# leakage laws (groups x |Z|**n): bounds both; n <= 12 decodes in one chunk.
_DECODE_SCORES = 2**20


def _row_clogc(bounds: np.ndarray, row_starts: np.ndarray,
               lut: np.ndarray) -> np.ndarray:
    """Per-row sums of c*log2(c) over runs given by sorted boundary offsets.

    bounds holds every run start, then the end of the last row; every
    row start is a run start, so runs never cross rows.
    """
    sizes = bounds[1:] - bounds[:-1]
    return np.add.reduceat(lut.take(sizes), np.searchsorted(bounds, row_starts))


def _pattern_blocks(codebook: NestedCodebook, reveal: np.ndarray):
    """Pattern-conditional message information, one block of reveal patterns at a time.

    For a pattern B of non-erased positions the codewords are grouped by
    their revealed values; the sums of c*log2(c) over group sizes at
    global, bin and subbin granularity give I(M1; f(X)_B) and
    I(M1, M2; f(X)_B) in bits.  Each codeword's key is its (bin, subbin)
    group id plus its revealed values in base-|reveal| digits above it.
    The n positions split into `low` and n - low high ones: the keys of
    all 2**low low sub-patterns form one table built by doubling, and a
    block is that table plus the high sub-pattern's keys, the high
    sub-patterns walked in Gray-code order so each step adds or removes
    one position.  Each block is sorted row-wise; the finest runs give
    the subbin level, and the coarser levels merge runs, so their
    boundaries are found among the finest runs' start keys.  Yields
    (popcount, i_bin, i_subbin) arrays with one entry per pattern of the
    block; yields nothing when the reveal map is constant, since then no
    pattern carries information.
    """
    n = codebook.n
    k_total = codebook.size
    base = int(reveal.max()) + 1 if reveal.size else 1
    if base < 2:
        return
    groups = codebook.n_bins * codebook.n_subbins
    span_bits = n * log2(base) + log2(max(groups, 1))
    if span_bits > 62:
        raise ValueError("pattern projection would overflow 64-bit keys")
    dtype = np.int32 if span_bits <= 30 else np.int64
    proj_units = reveal[codebook.flat()].astype(dtype)
    weights = (base ** np.arange(n)).astype(dtype)
    contrib = np.ascontiguousarray((proj_units * weights[None, :]).T * dtype(groups))
    lut = np.zeros(k_total + 1)
    counts_range = np.arange(1, k_total + 1)
    lut[1:] = counts_range * np.log2(counts_range)
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
    size = rows * k_total
    row_starts = np.arange(0, size, k_total)
    keys = np.empty_like(low_keys)
    flat_keys = keys.reshape(-1)
    new_run = np.ones(size + 1, dtype=bool)  # the last entry marks the end
    high = np.zeros(k_total, dtype=dtype)
    high_pc = 0
    for t in range(1 << (n - low)):
        if t:
            j = (t & -t).bit_length() - 1
            if ((t ^ (t >> 1)) >> j) & 1:
                high += contrib[low + j]
                high_pc += 1
            else:
                high -= contrib[low + j]
                high_pc -= 1
        np.add(low_keys, high, out=keys)
        keys.sort(axis=1)
        np.not_equal(flat_keys[1:], flat_keys[:-1], out=new_run[1:size])
        new_run[row_starts] = True
        bounds = np.flatnonzero(new_run)
        s_sub = _row_clogc(bounds, row_starts, lut)
        # coarser levels: a finest run starts a new group where its
        # (projection, bin) or projection key changes, or where a row starts
        first = np.searchsorted(bounds, row_starts)
        reps = flat_keys.take(bounds[:-1]) // codebook.n_subbins
        merged = np.ones(bounds.size, dtype=bool)
        np.not_equal(reps[1:], reps[:-1], out=merged[1:-1])
        merged[first] = True
        s_bin = _row_clogc(bounds.take(np.flatnonzero(merged)), row_starts, lut)
        reps //= codebook.n_bins
        np.not_equal(reps[1:], reps[:-1], out=merged[1:-1])
        merged[first] = True
        s_glob = _row_clogc(bounds.take(np.flatnonzero(merged)), row_starts, lut)
        i_bin = np.maximum(log_bins - (s_glob - s_bin) / k_total, 0.0)
        i_sub = np.maximum(log_groups - (s_glob - s_sub) / k_total, 0.0)
        if t == 0:
            i_bin[0] = i_sub[0] = 0.0  # empty pattern: nothing revealed
        yield low_pc + high_pc, i_bin, i_sub


def _leakage_erasure(codebook: NestedCodebook, reveal: np.ndarray,
                     requests) -> list[float]:
    """Exact leakages for erasure-style kernels sharing one reveal map.

    requests is a list of (delta, level) pairs; returns total bits
    I(messages; Z^n) per request, with level 'bin' scoring m1 and
    'subbin' scoring (m1, m2).  Each request weighs every reveal pattern
    by its probability (1 - delta)**|B| * delta**(n - |B|).  One pass
    over the blocks of reveal patterns serves every request because the
    pattern-conditional information depends only on the shared reveal
    map.
    """
    n = codebook.n
    k = np.arange(n + 1)
    pc_weights = [(1.0 - delta) ** k * delta ** (n - k) for delta, _ in requests]
    results = [0.0] * len(requests)
    for pc, i_bin, i_sub in _pattern_blocks(codebook, reveal):
        for idx, (_, level) in enumerate(requests):
            results[idx] += float(pc_weights[idx][pc] @ (i_bin if level == "bin" else i_sub))
    return results


def _word_laws(words: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|Z|**m output laws of length-m words (last axis), position 0 most significant."""
    laws = np.ones(words.shape[:-1] + (1,))
    for i in range(words.shape[-1]):
        laws = (laws[..., None] * w[words[..., i], None, :]).reshape(*words.shape[:-1], -1)
    return laws


def _leakage_general(codebook: NestedCodebook, w: np.ndarray, level: str,
                     budget: int) -> float:
    """Exact leakage by enumerating every output sequence (small n only).

    A word's law is the outer product of its half-block laws, so a group's
    mean law is A^T B / |group| for its words' stacked half-block laws A, B.
    """
    nz = w.shape[1]
    n = codebook.n
    if nz**n > budget:
        raise ValueError(
            f"|Z|**n = {nz**n} exceeds the exact-leakage budget {budget}")
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


def exact_leakage(codebook: NestedCodebook, kernel, level: str = "bin", *,
                  budget: int = 2**24) -> float:
    """Exact I(M1; Z^n) (level='bin') or I(M1,M2; Z^n) (level='subbin') in bits.

    Chooses the erasure-pattern decomposition when the kernel supports
    it (budget then applies to the 2**n patterns), otherwise enumerates
    output sequences (budget applies to |Z|**n).
    """
    if level not in ("bin", "subbin"):
        raise ValueError("level must be 'bin' or 'subbin'")
    w = np.asarray(kernel, dtype=float)
    if w.ndim != 2:
        raise ValueError("kernel must be a 2-D matrix p(z|x)")
    _check_stochastic(w, "kernel")
    if w.shape[0] != codebook.nx:
        raise ValueError("kernel input alphabet does not match the codebook")
    dec = _erasure_decomposition(w)
    if dec is not None:
        if 2**codebook.n > budget:
            raise ValueError(
                f"2**n = {2**codebook.n} patterns exceed the exact-leakage budget {budget}")
        delta, reveal = dec
        return _leakage_erasure(codebook, reveal, [(delta, level)])[0]
    return _leakage_general(codebook, w, level, budget)


def empirical_error_rate(codebook: NestedCodebook, py_x, trials: int,
                         rng: np.random.Generator) -> float:
    """Message error rate of maximum-likelihood decoding over the codebook.

    A trial encodes a uniform (m1, m2, t), samples the legitimate output
    and decodes by maximum likelihood with deterministic lowest-index
    tie breaking; the trial errs when the decoded (bin, subbin) pair
    differs from the transmitted one.
    """
    if trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials}")
    w = np.asarray(py_x, dtype=float)
    if w.ndim != 2 or w.shape[0] != codebook.nx:
        raise ValueError("py_x must have one row per codebook input symbol")
    flat = codebook.flat()
    k_total = codebook.size
    logw = np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), -1e30)
    sent = rng.integers(0, k_total, size=trials)
    x = flat[sent]
    cdf = np.cumsum(w, axis=1)
    u = rng.random(size=x.shape)
    y = (u[:, :, None] >= cdf[x][:, :, :-1]).sum(axis=2)
    decoded = np.empty(trials, dtype=np.int64)
    rows = max(1, _DECODE_SCORES // k_total)
    for start in range(0, trials, rows):
        yc = y[start:start + rows]
        scores = np.zeros((len(yc), k_total))
        for i in range(codebook.n):  # the unchunked sum order, so argmax ties break alike
            scores += logw[flat[:, i][None, :], yc[:, i][:, None]]
        decoded[start:start + rows] = np.argmax(scores, axis=1)
    errs = (decoded // codebook.n_per) != (sent // codebook.n_per)
    return float(errs.mean())


@dataclass(frozen=True)
class SimReport:
    n: int
    rates: tuple
    counts: tuple
    trials: int
    seed: int
    error_rate: float | None
    leak_m1_strong: float | None
    leak_messages_weak: float | None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "rates": {"r1": self.rates[0], "r2": self.rates[1], "t": self.rates[2]},
            "counts": {"bins": self.counts[0], "subbins": self.counts[1],
                       "per_subbin": self.counts[2]},
            "trials": self.trials,
            "seed": self.seed,
            "error_rate": self.error_rate,
            "normalized_leak_m1_strong": self.leak_m1_strong,
            "normalized_leak_messages_weak": self.leak_messages_weak,
        }


def simulate_nested_binning(ch: DmcTriple, px, rates, n: int, trials: int,
                            seed: int, *, codebook_budget: int = 2**20,
                            leakage_budget: int = 2**24,
                            measure_leakage: bool = True) -> SimReport:
    """Build one random codebook, measure decoding error and exact leakage.

    Reported leakages are normalized: (1/n) I(M1; Z1^n) against the
    strong eavesdropper and (1/n) I(M1, M2; Z2^n) against the weak one.
    Deterministic given the seed: codebook, encoder and channel noise
    use separate substreams of one seed sequence.
    """
    counts = rates_to_counts(rates, n)
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    px = _check_distribution(px, "px", neg_tol=0.0)
    if px.shape[0] != ch.nx:
        raise ValueError("px must be a distribution over the input alphabet")
    total_symbols = counts[0] * counts[1] * counts[2] * n
    if total_symbols > codebook_budget:
        raise ValueError(
            f"codebook needs {total_symbols} symbols, over the budget {codebook_budget}")
    ss = np.random.SeedSequence(seed)
    rng_cb, rng_trials = (np.random.default_rng(s) for s in ss.spawn(2))
    codebook = make_codebook(px, n, counts, rng_cb)
    error = empirical_error_rate(codebook, ch.py_x, trials, rng_trials) if trials else None

    leak1 = leak2 = None
    if measure_leakage:
        dec1 = _erasure_decomposition(ch.pz1_x)
        dec2 = _erasure_decomposition(ch.pz2_x)
        if (dec1 is not None and dec2 is not None
                and np.array_equal(dec1[1], dec2[1]) and 2**n <= leakage_budget):
            requests = [(dec1[0], "bin"), (dec2[0], "subbin")]
            leak1, leak2 = _leakage_erasure(codebook, dec1[1], requests)
        else:
            leak1 = exact_leakage(codebook, ch.pz1_x, "bin", budget=leakage_budget)
            leak2 = exact_leakage(codebook, ch.pz2_x, "subbin", budget=leakage_budget)
        leak1 /= n
        leak2 /= n
    return SimReport(n=n, rates=tuple(rates), counts=counts, trials=trials,
                     seed=seed, error_rate=error,
                     leak_m1_strong=leak1, leak_messages_weak=leak2)
