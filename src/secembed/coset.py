"""Two-level coset codes for the erasure-eavesdropper wiretap setting.

The main channel is noiseless: the transmitter sends n bits, the
eavesdropper sees an arbitrary subset of positions and erasures
elsewhere.  A two-level coset code stacks two parity-check matrices,
``h1`` (high-security syndromes, ``k1 = n*(1 - alpha1 - eps)`` rows)
and ``h2`` (low-security syndromes, ``k2 = n*(alpha1 - alpha2)`` rows).
Encoding picks a uniform solution of the stacked syndrome equations;
decoding is syndrome computation.  Each code reduces its constraint
rows once, when it is built, and every encode, decode and equivocation
call reads that reduction or the code's packed columns.

Security is certified exactly: for an observed position set S the
eavesdropper's equivocation about the messages equals the GF(2)
dimension of the parity-check columns outside S, so worst-case
equivocation is a minimum subspace dimension over column subsets
(``d1_star``, ``d2_star``).  Construction rejection-samples uniform
matrices until full row rank and both certificates clear their
``3/eps`` margins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import comb, inf

import numpy as np

from secembed import _count, _integer, _real, gf2

__all__ = [
    "ERASURE",
    "WiretapIIParams",
    "CosetCodePair",
    "Observation",
    "ConstructionExhaustedError",
    "encode",
    "decode",
    "eavesdrop",
    "equivocation",
    "worst_case_security",
    "construct",
    "union_bound_report",
    "audit_code",
]

ERASURE = -1
MAX_N = 4096  # largest block length: construct draws at most n x n bits, 16 MiB as uint8


class ConstructionExhaustedError(RuntimeError):
    """No acceptable parity-check matrix found within MAX_ATTEMPTS draws."""


@dataclass(frozen=True)
class WiretapIIParams:
    """Block length and level fractions for a two-level erasure-wiretap code.

    Requires an integer 1 <= n <= MAX_N, finite reals 1 >= alpha1 >= alpha2 >= 0 and eps >= 0,
    and that n*alpha1, n*alpha2, n*(1-alpha1-eps) and n*(alpha1-alpha2) are counts by the one
    count rule (within 1e-9 * max(1, k) of an integer k), derived once: n_alpha1 and n_alpha2
    are the eavesdroppers' observed counts, k1 and k2 the high- and low-security message
    bits.  An eps > 0 must leave n*eps = n - n_alpha1 - k1 >= 1 margin positions, or 3/eps
    bits would be allowed on none.  construct() needs eps > 0; hand-built codes may take 0.
    """

    n: int
    alpha1: float
    alpha2: float
    eps: float = 0.0
    n_alpha1: int = field(init=False, repr=False, compare=False)
    n_alpha2: int = field(init=False, repr=False, compare=False)
    k1: int = field(init=False, repr=False, compare=False)
    k2: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n", 1))
        _real(self.n, "n", most=MAX_N)  # n times a fraction is a float; n sizes construct's draws
        # stored as floats, as to_dict writes them
        object.__setattr__(self, "alpha1", _real(self.alpha1, "alpha1", 0, 1))
        object.__setattr__(self, "alpha2", _real(self.alpha2, "alpha2", 0, self.alpha1))
        object.__setattr__(self, "eps", _real(self.eps, "eps", 0))
        # n*(alpha1-alpha2) rounds to n_alpha1 - n_alpha2: all four are near ints
        for name, (value, what) in zip(("n_alpha1", "n_alpha2", "k1", "k2"), [
            (self.n * self.alpha1, "n*alpha1"),
            (self.n * self.alpha2, "n*alpha2"),
            (self.n * (1.0 - self.alpha1 - self.eps), "n*(1-alpha1-eps)"),
            (self.n * (self.alpha1 - self.alpha2), "n*(alpha1-alpha2)"),
        ]):
            object.__setattr__(self, name, _integer(_count(value, what), what, 0))
        if self.eps > 0:
            _integer(self.n - self.n_alpha1 - self.k1, "n*eps", 1)

    @property
    def r1(self) -> float:
        return self.k1 / self.n

    @property
    def r2(self) -> float:
        return self.k2 / self.n

    @property
    def margin_bits(self) -> float:
        """Leakage allowance 3/eps in bits (inf when eps = 0)."""
        return 3.0 / self.eps if self.eps > 0 else inf

    def to_dict(self) -> dict:
        return {"n": self.n, "alpha1": self.alpha1, "alpha2": self.alpha2, "eps": self.eps}


@dataclass(frozen=True, eq=False)
class CosetCodePair:
    """A two-level coset code with cached worst-case security certificates.

    ``d1_star`` is the exact minimum column-subspace dimension of h1 over
    subsets of n*(1-alpha1) positions; ``d2_star`` the same for the
    stacked matrix over subsets of n*(1-alpha2) positions.  Certificates
    of codes built by construct() always meet the 3/eps leakage bound;
    externally supplied values are checked by audit_code rather than
    rejected here, but both must be integers (not bools), stored as Python
    ints, so that to_bundle writes a bundle from_bundle reads back.

    The code owns one read-only copy of the full-row-rank parity-check
    matrix ``stacked`` = [h1; h2]; ``h1`` and ``h2`` are row views of it.
    Building the code reduces its rows once, each tagged with its own
    syndrome bit (``gf2._affine_map``): that checks the full row rank and
    gives encode its solution map.  It also packs the columns of
    ``stacked`` for decode and equivocation.
    """

    params: WiretapIIParams
    h1: np.ndarray
    h2: np.ndarray
    d1_star: int
    d2_star: int
    stacked: np.ndarray = field(init=False, repr=False)
    _encoder: tuple = field(init=False, repr=False)
    _columns: list = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("d1_star", "d2_star"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        p = self.params
        h1 = gf2._integer_array(self.h1, "h1", (p.k1, p.n))
        h2 = gf2._integer_array(self.h2, "h2", (p.k2, p.n))
        stacked = np.vstack([h1, h2])  # a copy: the caller's arrays are never aliased
        encoder = gf2._affine_map(gf2.pack_rows(stacked), p.n)
        if encoder[2]:  # a dependency among the rows
            raise ValueError("stacked parity-check matrix must have full row rank")
        stacked.flags.writeable = False
        object.__setattr__(self, "_encoder", encoder)
        object.__setattr__(self, "_columns", gf2.pack_rows(stacked.T))
        object.__setattr__(self, "stacked", stacked)
        object.__setattr__(self, "h1", stacked[:p.k1])
        object.__setattr__(self, "h2", stacked[p.k1:])

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def k1(self) -> int:
        return self.params.k1

    @property
    def k2(self) -> int:
        return self.params.k2

    @property
    def rows(self) -> int:
        return self.stacked.shape[0]

    def to_bundle(self, seed=None) -> dict:
        """JSON-ready code bundle with matrices in the text format."""
        return {
            "params": self.params.to_dict(),
            "H1": gf2.matrix_to_text(self.h1),
            "H2": gf2.matrix_to_text(self.h2),
            "d1_star": self.d1_star,
            "d2_star": self.d2_star,
            "seed": seed if seed is None else _integer(seed, "seed", 0),
        }

    @classmethod
    def from_bundle(cls, bundle: dict) -> "CosetCodePair":
        """Inverse of to_bundle; a malformed bundle raises ValueError."""
        if not isinstance(bundle, dict):
            raise ValueError("code bundle must be a JSON object")
        missing = [k for k in ("params", "H1", "H2", "d1_star", "d2_star") if k not in bundle]
        if missing:
            raise ValueError(f"code bundle lacks the key(s) {', '.join(missing)}")
        params = bundle["params"]
        if not isinstance(params, dict) or set(params) != {"n", "alpha1", "alpha2", "eps"}:
            raise ValueError("bundle params must have exactly the keys n, alpha1, alpha2, eps")
        if not (isinstance(bundle["H1"], str) and isinstance(bundle["H2"], str)):
            raise ValueError("bundle H1 and H2 must be matrix text")
        return cls(
            params=WiretapIIParams(**params),
            h1=gf2.matrix_from_text(bundle["H1"]),
            h2=gf2.matrix_from_text(bundle["H2"]),
            d1_star=bundle["d1_star"],
            d2_star=bundle["d2_star"],
        )


@dataclass(frozen=True, eq=False)
class Observation:
    """Eavesdropper view: a read-only int8 copy of a word z of 0, 1 and ERASURE by value."""

    z: np.ndarray

    def __post_init__(self):
        z = np.array(gf2._integer_array(  # a copy: the caller's array is never aliased
            self.z, "observation z", (None,), ERASURE, 1, np.int8))
        z.flags.writeable = False
        object.__setattr__(self, "z", z)

    @property
    def observed(self) -> frozenset:
        return frozenset(np.flatnonzero(self.z != ERASURE).tolist())


def encode(code: CosetCodePair, m1: int, m2: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random codeword of the coset addressed by (m1, m2).

    Message indices are 0-based: m1 in 0..2**k1-1, m2 in 0..2**k2-1.
    The pair is the one syndrome ``m1 | m2 << k1``, little-endian over
    the rows of the stacked matrix (h1's rows first).  The returned x
    satisfies stacked @ x = that syndrome and is uniform over that
    coset.  It is sampled from the solution map the code reduced once
    when it was built, with the same draw as ``gf2.solve_affine`` on
    ``stacked.T``.  Infeasibility cannot occur because the stacked
    matrix has full row rank.
    """
    # Python ints: no shift overflow
    m1 = _integer(m1, "m1", 0, (1 << code.k1) - 1)
    m2 = _integer(m2, "m2", 0, (1 << code.k2) - 1)
    x = gf2._sample_affine(code._encoder, m1 | m2 << code.k1, rng)
    return gf2.unpack_rows([x], code.n)[0]


def decode(code: CosetCodePair, x) -> tuple[int, int]:
    """Recover (m1, m2) from x, n bits on one axis, by its syndrome: the XOR of the code's
    packed columns at x's ones.  Exact inverse of encode."""
    x = gf2._integer_array(x, "codeword", (code.n,))
    s = reduce(int.__xor__, (c for c, bit in zip(code._columns, x.tolist()) if bit), 0)
    return s & ((1 << code.k1) - 1), s >> code.k1


def eavesdrop(x, observed) -> Observation:
    """Observation with z_i = x_i at observed positions, erasure elsewhere; x is one axis."""
    x = gf2._integer_array(x, "codeword", (None,))
    idx = gf2.positions(observed, x.shape[0])
    z = np.full(x.shape[0], ERASURE, dtype=np.int8)
    z[idx] = x[idx]
    return Observation(z)


def equivocation(code: CosetCodePair, observed, level: str = "both") -> int:
    """Exact eavesdropper equivocation in bits for a known observed set.

    For uniform messages and uniform encoder randomness the conditional
    entropy of the messages given the observation equals the GF(2)
    dimension of the parity-check columns at the unobserved positions:
    the unobserved bits are uniform given the observation, and the
    syndrome map restricted to them is linear, so the posterior over
    syndromes is uniform on an affine space of that dimension.

    level="both" scores (m1, m2) against the stacked matrix;
    level="high" scores m1 alone against h1, the low k1 bits of each
    packed column.
    """
    s = set(gf2.positions(observed, code.n))
    if level == "both":
        mask = (1 << code.rows) - 1
    elif level == "high":
        mask = (1 << code.k1) - 1
    else:
        raise ValueError("level must be 'both' or 'high'")
    return len(gf2._rref([c & mask for i, c in enumerate(code._columns) if i not in s]))


def _certificates(p: WiretapIIParams, stacked: np.ndarray) -> tuple[int, int]:
    """(d1_star, d2_star) of the stacked matrix [h1; h2] under params p."""
    return (gf2.min_rank_over_column_subsets(stacked[:p.k1], p.n - p.n_alpha1),
            gf2.min_rank_over_column_subsets(stacked, p.n - p.n_alpha2))


def worst_case_security(code: CosetCodePair) -> tuple[int, int]:
    """Exact (d1_star, d2_star): worst-case equivocations over all observed sets.

    d1_star minimizes the h1 column-subspace dimension over all position
    subsets of size n*(1-alpha1) (eavesdropper sees n*alpha1 positions);
    d2_star does the same for the stacked matrix at size n*(1-alpha2).
    Both come from the generalized-Hamming-weight search of
    gf2.min_rank_over_column_subsets (row space or kernel side), which
    raises BudgetExceededError past gf2.NODE_LIMIT words and subcodes.
    """
    return _certificates(code.params, code.stacked)


MAX_ATTEMPTS = 100  # cap on the matrices construct draws, read at each call


def construct(params: WiretapIIParams, seed: int) -> CosetCodePair:
    """Rejection-sample a two-level coset code with exact security certificates.

    Each attempt draws the stacked parity-check matrix with i.i.d.
    uniform {0,1} entries and accepts iff it has full row rank and both
    exact certificates leave at most 3/eps bits of worst-case leakage, as
    audit_code checks: k1 - d1_star <= 3/eps and k1 + k2 - d2_star <= 3/eps
    (both hold for any certificate at small n).  Attempt i uses
    the seed stream (seed, i), so results are identical no matter how
    attempts are scheduled; the accepted attempt is the lowest index.
    After MAX_ATTEMPTS draws it raises ConstructionExhaustedError.  A
    certificate whose search cannot start within gf2.NODE_LIMIT raises
    BudgetExceededError before the first draw, d1 checked first.
    """
    seed = _integer(seed, "seed", 0)
    if params.eps <= 0:
        raise ValueError("construct requires eps > 0")
    rows = params.k1 + params.k2
    for k, size in ((params.k1, params.n - params.n_alpha1), (rows, params.n - params.n_alpha2)):
        gf2._bracket(params.n, k, size)
    for attempt in range(MAX_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)))
        h = gf2.random_matrix(rows, params.n, rng)
        if gf2.rank(h) != rows:
            continue
        d1, d2 = _certificates(params, h)
        if max(params.k1 - d1, params.k1 + params.k2 - d2) <= params.margin_bits:
            return CosetCodePair(params=params, h1=h[:params.k1], h2=h[params.k1:],
                                 d1_star=d1, d2_star=d2)
    raise ConstructionExhaustedError(
        f"no acceptable matrix in {MAX_ATTEMPTS} attempts at n={params.n}; small blocks "
        f"can legitimately fail the certificate thresholds (coset.MAX_ATTEMPTS = {MAX_ATTEMPTS})")


def union_bound_report(params: WiretapIIParams, *, exact_counts: bool = False) -> dict:
    """Expected-rejection bound for uniform random parity-check matrices.

    rank term:  n(1-alpha2-eps) * 2**(-n(alpha2+eps)) / (1 - 2**(-n(alpha2+eps)))
    subset term, loose:  2 * 2**n * 2**(-2n) = 2**(1-n)
    subset term, exact:  (C(n, n*alpha1) + C(n, n*alpha2)) * 2**(-2n)

    The loose count follows the analytic argument verbatim; the exact
    binomial count is never larger, which makes the bound usable at desk
    scale.  The rank term bounds the probability of a rank deficit, the
    subset term that of an observed set defeating a certificate.  Returns
    a JSON-ready report of both terms, their total and whether each is
    below 1/2; it is ``conclusive``, reproducing the analytic chain, when
    both are: an acceptable matrix then exists.  Requires eps > 0.
    """
    if params.eps <= 0:
        raise ValueError("union bound requires eps > 0")
    n = params.n
    k_low = params.k1 + params.k2  # n(1 - alpha2 - eps)
    exp = params.n_alpha2 + (n - params.n_alpha1 - params.k1)  # n(alpha2 + eps)
    # int true division is correctly rounded: each term is its exact ratio rounded once
    rank_term = k_low / ((1 << exp) - 1)
    if exact_counts:
        subset_term = (comb(n, params.n_alpha1) + comb(n, params.n_alpha2)) / (1 << 2 * n)
        mode = "exact"
    else:
        subset_term = (2 << n) / (1 << 2 * n)
        mode = "loose"
    rank_ok, subset_ok = rank_term < 0.5, subset_term < 0.5
    return {"n": n, "mode": mode, "rank_term": rank_term, "subset_term": subset_term,
            "total": rank_term + subset_term, "rank_term_below_half": rank_ok,
            "subset_term_below_half": subset_ok, "conclusive": rank_ok and subset_ok}


def audit_code(code: CosetCodePair) -> dict:
    """Re-derive the security certificates exactly and check the 3/eps bounds.

    Returns a JSON-ready report: recomputed d1_star/d2_star, whether they
    match the stored certificates, and, for each eavesdropper size, the
    worst-case equivocation, the worst-case leakage (message bits minus
    equivocation) and a pass flag against the 3/eps allowance.
    """
    p = code.params
    d1, d2 = worst_case_security(code)
    finite = p.eps > 0
    report = {
        "params": p.to_dict(),
        "rates": {"r1": p.r1, "r2": p.r2},
        "full_row_rank": True,  # a CosetCodePair cannot be built otherwise
        "d1_star": d1,
        "d2_star": d2,
        "certificates_match": bool(d1 == code.d1_star and d2 == code.d2_star),
        "leakage_allowance_bits": p.margin_bits if finite else None,
    }
    passed = report["certificates_match"]
    for name, observed, bits, d in (("strong", p.n_alpha1, code.k1, d1),
                                    ("weak", p.n_alpha2, code.k1 + code.k2, d2)):
        ok = bits - d <= p.margin_bits if finite else None
        report[f"{name}_eavesdropper"] = {
            "observed_size": observed, "message_bits": bits, "worst_case_equivocation_bits": d,
            "worst_case_leakage_bits": bits - d, "pass": ok}
        passed = passed and ok is not False
    report["pass"] = passed
    return report
