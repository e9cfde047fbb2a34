"""Finite-alphabet channels with one legitimate output and two eavesdropper
strength levels: degradation checks and exact rate-region point evaluation.

A channel is a stochastic tensor p(y, z1, z2 | x).  All information
quantities are computed exactly from the composed joints, in bits.
The region evaluators score user-supplied input distributions or
auxiliary chains; no optimization over distributions is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from secembed import _integer, _real

__all__ = [
    "DmcTriple",
    "AuxiliaryChain",
    "DegradationResult",
    "entropy_bits",
    "mi_bits",
    "conditional_mi_bits",
    "check_degraded",
    "region_point_simple",
    "region_point_full",
    "embeddability_report",
    "bec_kernel",
    "bsc_kernel",
    "noiseless_kernel",
]

_LAW_FLOOR = 1e-12  # least entry, read as 0 in a distribution: a computed 0 may round below 0
_LAW_TOL = 1e-9  # slack of each sum: a law written to ten digits, as JSON inputs are, meets it


def _law_fault(rows: np.ndarray) -> str | None:
    """The one probability rule: what keeps a row of the 2-D ``rows`` from having finite
    entries >= -_LAW_FLOOR summing to 1 within _LAW_TOL, or None when nothing does."""
    if not np.isfinite(rows).all():
        return "has non-finite entries"
    if (rows < -_LAW_FLOOR).any():
        return "has negative entries"
    if (np.abs(rows.sum(axis=1) - 1.0) > _LAW_TOL).any():
        return f"rows must sum to 1 within {_LAW_TOL:g}"
    return None


def _as_numbers(x, what: str, ndim: int) -> np.ndarray:
    """``x`` as floats, or ValueError naming ``what`` unless numpy reads it as an ``ndim``-D
    int or float array with no bool in it: not strings, None, bools, ragged lists or huge ints."""
    try:  # numpy rejects a ragged list with a ValueError of its own
        a = np.asarray(x)
        # numpy reads [True, 0.0] as [1.0, 0.0]: an array's dtype tells, a list's items do
        if a.dtype.kind in "iuf" and a.ndim == ndim and (a is x or not any(
                isinstance(v, (bool, np.bool_)) for v in np.asarray(x, dtype=object).flat)):
            return a.astype(float)
    except ValueError:
        pass
    raise ValueError(f"{what} must be a {('1-D vector', '2-D matrix')[ndim - 1]} of numbers")


def _check_distribution(p, what: str, size: int | None = None) -> np.ndarray:
    """``p`` with its entries below 0 set to 0, or ValueError naming ``what`` unless
    it is a 1-D vector that meets ``_law_fault``'s rule, with ``size`` entries when
    ``size`` is given (the input alphabet's size)."""
    p = _as_numbers(p, what, 1)
    if _law_fault(p[None]):
        raise ValueError(f"{what} must be a distribution of finite entries")
    if size is not None and p.shape[0] != size:
        raise ValueError(f"{what} must be a distribution over the input alphabet")
    return np.maximum(p, 0.0)


def _check_kernel(w, what: str, rows: int | None = None) -> np.ndarray:
    """``w`` as a float matrix, or ValueError naming ``what`` unless it is a 2-D matrix of
    numbers whose rows meet ``_law_fault``'s rule, one per input symbol if ``rows`` is given."""
    w = _as_numbers(w, what, 2)
    if rows is not None and w.shape[0] != rows:
        raise ValueError(f"{what} must have {rows} rows, one per input symbol")
    if fault := _law_fault(w):
        raise ValueError(f"{what} {fault}")
    return w


def entropy_bits(p) -> float:
    p = np.asarray(p, dtype=float).reshape(-1)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def mi_bits(joint) -> float:
    """Mutual information I(A;B) from a 2-D joint, exact in bits."""
    j = np.asarray(joint, dtype=float)
    pa = j.sum(axis=1)
    pb = j.sum(axis=0)
    return entropy_bits(pa) + entropy_bits(pb) - entropy_bits(j)


def conditional_mi_bits(joint3) -> float:
    """I(B;C|A) from a 3-D joint over (a, b, c)."""
    j = np.asarray(joint3, dtype=float)
    total = 0.0
    for a in range(j.shape[0]):
        pa = j[a].sum()
        if pa > 0:
            total += pa * mi_bits(j[a] / pa)
    return total


_SIZES = ("nx", "ny", "nz1", "nz2")  # a channel document's alphabet sizes, in axis order


@dataclass(frozen=True, eq=False)
class DmcTriple:
    """Transition law p(y, z1, z2 | x) as a (|X|, |Y|, |Z1|, |Z2|) tensor, and its marginals."""

    p: np.ndarray
    py_x: np.ndarray = field(init=False, repr=False)
    pz1_x: np.ndarray = field(init=False, repr=False)
    pz2_x: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p = np.array(self.p, dtype=float)  # a copy: the caller's array is never aliased
        if p.ndim != 4:
            raise ValueError("transition tensor must have axes (x, y, z1, z2)")
        _check_kernel(p.reshape(len(p), -1), "p(y,z1,z2|x)")
        for name, value in (("p", p), ("py_x", p.sum(axis=(2, 3))),
                            ("pz1_x", p.sum(axis=(1, 3))), ("pz2_x", p.sum(axis=(1, 2)))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @classmethod
    def independent(cls, py_x, pz1_x, pz2_x) -> "DmcTriple":
        """Compose from per-output kernels, conditionally independent given x."""
        py_x = _check_kernel(py_x, "p(y|x)")
        pz1_x = _check_kernel(pz1_x, "p(z1|x)", len(py_x))
        pz2_x = _check_kernel(pz2_x, "p(z2|x)", len(py_x))
        return cls(np.einsum("xy,xa,xb->xyab", py_x, pz1_x, pz2_x))

    @property
    def nx(self) -> int:
        return self.p.shape[0]

    def to_dict(self) -> dict:
        return {**dict(zip(_SIZES, self.p.shape)), "index_order": "x,y,z1,z2 (row-major)",
                "p": self.p.reshape(-1).tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "DmcTriple":
        """Inverse of to_dict; a malformed document is a ValueError."""
        if not isinstance(d, dict):
            raise ValueError("channel must be a JSON object with integers nx, ny, nz1, nz2 >= 1")
        shape = [_integer(d.get(key), f"channel {key}", 1) for key in _SIZES]
        size = math.prod(shape)
        p = _as_numbers(d.get("p"), "channel p", 1)
        if len(p) != size:
            raise ValueError(f"channel p must be a list of {size} numbers")
        return cls(p.reshape(shape))


def bec_kernel(delta: float) -> np.ndarray:
    """Binary erasure kernel: outputs (0, 1, erasure), erasure probability delta."""
    delta = _real(delta, "erasure probability", 0, 1)  # float64: each row sums to 1
    return np.array([[1 - delta, 0.0, delta], [0.0, 1 - delta, delta]])


def bsc_kernel(flip: float) -> np.ndarray:
    flip = _real(flip, "flip probability", 0, 1)
    return np.array([[1 - flip, flip], [flip, 1 - flip]])


MAX_ALPHABET = 1024  # largest noiseless_kernel size: a 1024 x 1024 identity takes 8 MiB


def noiseless_kernel(size: int) -> np.ndarray:
    """Identity kernel over an alphabet of size 1 to MAX_ALPHABET."""
    return np.eye(_integer(size, "size", 1, MAX_ALPHABET))


@dataclass(frozen=True, eq=False)
class AuxiliaryChain:
    """Distributions p(u), p(v|u), p(x|v) composing a chain U -> V -> X."""

    pu: np.ndarray
    pv_u: np.ndarray
    px_v: np.ndarray

    def __post_init__(self):
        pu = _check_distribution(self.pu, "p(u)")
        pv_u = _check_kernel(self.pv_u, "p(v|u)", len(pu))
        px_v = _check_kernel(self.px_v, "p(x|v)", pv_u.shape[1])
        for arr, name in ((pu, "pu"), (pv_u, "pv_u"), (px_v, "px_v")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def joint_uvx(self) -> np.ndarray:
        return np.einsum("u,uv,vx->uvx", self.pu, self.pv_u, self.px_v)


@dataclass(frozen=True, eq=False)
class DegradationResult:
    """check_degraded's verdict and its certificate, which can be checked without the solver.

    Degraded: ``witness`` is a row-stochastic kernel W with tgt = src·W, and
    ``residual`` is max|src·W − tgt|, recomputed from W, at most _DEGRADED_TOL.
    Not degraded: ``witness`` is None, ``dual`` is a matrix Y shaped like tgt, and
    ``residual`` is ``(⟨Y, tgt⟩ − Σ_s max_t (srcᵀY)[s, t]) / ‖Y‖₁``, by weak duality a
    lower bound on max|src·W − tgt| over every row-stochastic W (src and tgt are the
    pair's kernels p(source|x) and p(target|x)).
    """

    degraded: bool
    witness: np.ndarray | None
    residual: float
    dual: np.ndarray | None = None


_DEGRADED_TOL = 1e-9  # largest witness residual read as degraded: _LAW_TOL, as inputs round
_DEGRADE_PAIRS = {
    "z2_of_z1": ("pz1_x", "pz2_x"),
    "z2_of_y": ("py_x", "pz2_x"),
    "z1_of_y": ("py_x", "pz1_x"),
}
NNLS_STEPS = 10_000  # cap on the active-set steps of check_degraded, read at each call


def _nnls(ata: np.ndarray, atb: np.ndarray) -> np.ndarray:
    """argmin ‖Ax − b‖ over x >= 0, given ata = AᵀA and atb = Aᵀb: Lawson and Hanson's
    active set on the normal equations, as in Bro and De Jong's fast NNLS.  Each step
    solves the unconstrained problem on the passive set; raises RuntimeError after
    NNLS_STEPS steps."""
    tol = 10 * len(atb) * np.finfo(float).eps
    x = z = np.zeros(len(atb))
    passive = np.zeros(len(atb), dtype=bool)
    for _ in range(NNLS_STEPS):
        if (z[passive] > 0).all():  # z is feasible: take it, and free the steepest variable
            x = z
            grad = np.where(passive, -np.inf, atb - ata @ x)
            j = np.argmax(grad)
            if grad[j] <= tol:
                return x
            passive[j] = True
        else:  # move toward z until a passive variable reaches 0, and fix it there
            neg = passive & (z <= 0)
            x = x + np.min(x[neg] / (x[neg] - z[neg])) * (z - x)
            passive &= x > tol
        idx = np.flatnonzero(passive)
        z = np.zeros(len(atb))
        z[idx] = np.linalg.solve(ata[idx[:, None], idx], atb[idx])
    raise RuntimeError(f"degradation solve did not converge in dmc.NNLS_STEPS = {NNLS_STEPS} "
                       "active-set steps")


def _dual_bound(src: np.ndarray, tgt: np.ndarray, y: np.ndarray) -> float:
    """(⟨Y, tgt⟩ − Σ_s max_t (srcᵀY)[s, t]) / ‖Y‖₁ for a nonzero Y, a lower bound on
    max|src·W − tgt| over every row-stochastic W: for such a W, ⟨Y, tgt − src·W⟩ is at
    least the numerator and at most ‖Y‖₁ max|src·W − tgt|.  Y is scaled to max|Y| = 1
    first: products of a subnormal Y round coarsely enough to lift the bound."""
    y = y / np.abs(y).max()
    return float((np.vdot(y, tgt) - (src.T @ y).max(axis=1).sum()) / np.abs(y).sum())


def check_degraded(ch: DmcTriple, which: str = "z2_of_z1") -> DegradationResult:
    """Decide whether the target output is a stochastic degradation of the source:
    whether some row-stochastic kernel W has p(target|x) = Σ_source p(source|x) W.

    A non-negative least-squares solve of the stacked system {W >= 0, W·1 = 1,
    src·W = tgt} gives a candidate W.  The verdict rests on certificates alone:
    degraded iff W with its rows normalized has max|src·W − tgt| within
    _DEGRADED_TOL, and then that recomputed value is ``residual``.  Otherwise
    ``residual`` is the weak-duality bound of Y = tgt − src·W (``dual``): a
    certified lower bound on the best max-residual of any kernel, not that optimum.
    """
    if which not in _DEGRADE_PAIRS:
        raise ValueError(f"which must be one of {sorted(_DEGRADE_PAIRS)}")
    src, tgt = (getattr(ch, name) for name in _DEGRADE_PAIRS[which])
    ns, nt = src.shape[1], tgt.shape[1]
    # the system's rows are kron(src, I) vec(W) = vec(tgt) and kron(I, 1ᵀ) vec(W) = 1, so
    # AᵀA[(s, t), (s', t')] = (srcᵀsrc)[s, s'] δ(t, t') + δ(s, s') and Aᵀb = srcᵀtgt + 1
    ata = (src.T @ src)[:, None, :, None] * np.eye(nt)[:, None] + np.eye(ns)[:, None, :, None]
    w = _nnls(ata.reshape(ns * nt, -1), (src.T @ tgt).reshape(-1) + 1.0).reshape(ns, nt)
    witness = w / w.sum(axis=1, keepdims=True)
    residual = float(np.abs(src @ witness - tgt).max())
    if residual <= _DEGRADED_TOL:
        return DegradationResult(degraded=True, witness=witness, residual=residual)
    y = tgt - src @ w
    return DegradationResult(degraded=False, witness=None, residual=_dual_bound(src, tgt, y),
                             dual=y)


_EMBED_TOL = 1e-9  # information gaps (bits) read as ties or 0: _LAW_TOL moves bounds as much


def _rate_point(raw1: float, raw_sum: float) -> dict:
    """Bounds R1 <= r1_max, R1 + R2 <= sum_max: the raw differences clamped at 0."""
    return {"r1_max": max(0.0, raw1), "sum_max": max(0.0, raw_sum),
            "raw_r1": raw1, "raw_sum": raw_sum}


def region_point_simple(ch: DmcTriple, px) -> dict:
    """Nested-binning bounds for one input distribution:

        R1      <= I(X;Y)  - I(X;Z1)
        R1 + R2 <= I(X;Y)  - I(X;Z2)

    computed exactly in bits, as the JSON-ready rate point that
    ``dmc region-point --px`` prints: ``r1_max`` and ``sum_max`` clamped at
    zero, ``raw_r1`` and ``raw_sum`` unclamped.
    """
    px = _check_distribution(px, "px", size=ch.nx)
    ixy = mi_bits(px[:, None] * ch.py_x)
    ixz1 = mi_bits(px[:, None] * ch.pz1_x)
    ixz2 = mi_bits(px[:, None] * ch.pz2_x)
    return _rate_point(ixy - ixz1, ixy - ixz2)


def region_point_full(ch: DmcTriple, aux: AuxiliaryChain) -> dict:
    """Superposition bounds for an auxiliary chain U -> V -> X:

        R1      <= I(V;Y|U) - I(V;Z1|U)
        R1 + R2 <= I(V;Y)   - I(V;Z2)

    as the rate point of region_point_simple plus ``side_condition_ok``,
    whether I(U;Y) >= I(U;Z2); ``dmc region-point --aux`` prints it.
    """
    if aux.px_v.shape[1] != ch.nx:
        raise ValueError("auxiliary chain does not match the channel input alphabet")
    juvx = aux.joint_uvx()
    juvy = np.einsum("uvx,xy->uvy", juvx, ch.py_x)
    juvz1 = np.einsum("uvx,xy->uvy", juvx, ch.pz1_x)
    juvz2 = np.einsum("uvx,xy->uvy", juvx, ch.pz2_x)
    raw1 = conditional_mi_bits(juvy) - conditional_mi_bits(juvz1)
    raw_sum = mi_bits(np.einsum("uvy->vy", juvy)) - mi_bits(np.einsum("uvy->vy", juvz2))
    iuy = mi_bits(np.einsum("uvy->uy", juvy))
    iuz2 = mi_bits(np.einsum("uvy->uy", juvz2))
    return {**_rate_point(raw1, raw_sum), "side_condition_ok": bool(iuy >= iuz2 - _EMBED_TOL)}


def embeddability_report(ch: DmcTriple, px_candidates=(), aux_candidates=()) -> dict:
    """Best rate points found over the supplied candidates only.

    A search over user-supplied distributions, not a proof of channel-wide
    optimality.  Keys: ``best_sum``; the best R1 bounds ``best_r1_at_best_sum``
    (among candidates tying it) and ``best_r1_overall``; ``embeddable``,
    whether ``best_sum`` and the tie's R1 bound are positive;
    ``perfectly_embeddable``, whether the tie's R1 bound also matches the
    overall best; and ``evaluations``, the list of the candidates' rate
    points, in order.  Auxiliary chains failing the side condition are
    evaluated but excluded from the certificates.
    """
    evals = [region_point_simple(ch, px) for px in px_candidates]
    evals += [region_point_full(ch, aux) for aux in aux_candidates]
    usable = [b for b in evals if b.get("side_condition_ok", True)]
    best_sum = max((b["sum_max"] for b in usable), default=0.0)
    best_r1_at_best_sum = max((b["r1_max"] for b in usable
                               if b["sum_max"] >= best_sum - _EMBED_TOL), default=0.0)
    best_r1_overall = max((b["r1_max"] for b in usable), default=0.0)
    embeddable = best_sum > _EMBED_TOL and best_r1_at_best_sum > _EMBED_TOL
    perfectly = embeddable and best_r1_at_best_sum >= best_r1_overall - _EMBED_TOL
    return {"best_sum": best_sum, "best_r1_at_best_sum": best_r1_at_best_sum,
            "best_r1_overall": best_r1_overall, "embeddable": embeddable,
            "perfectly_embeddable": bool(perfectly), "evaluations": evals}
