"""Finite-alphabet channels with one legitimate output and two eavesdropper
strength levels: degradation checks and exact rate-region point evaluation.

A channel is a stochastic tensor p(y, z1, z2 | x).  All information
quantities are computed exactly from the composed joints, in bits.
The region evaluators score user-supplied input distributions or
auxiliary chains; no optimization over distributions is attempted.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

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

_ATOL = 1e-12


def _check_stochastic(mat: np.ndarray, what: str):
    if not np.isfinite(mat).all():
        raise ValueError(f"{what} has non-finite entries")
    if (mat < -_ATOL).any():
        raise ValueError(f"{what} has negative entries")
    rows = mat.reshape(mat.shape[0], -1).sum(axis=1)
    if not np.allclose(rows, 1.0, atol=1e-12, rtol=0.0):
        raise ValueError(f"{what} rows must sum to 1 within 1e-12")


def _check_distribution(p, what: str, *, neg_tol: float = _ATOL,
                        sum_tol: float = 1e-9, size: int | None = None) -> np.ndarray:
    """``p`` as a float vector, or ValueError naming ``what`` unless it is a 1-D
    finite distribution (entries >= -neg_tol, summing to 1 within sum_tol) with
    ``size`` entries when ``size`` is given (the input alphabet's size)."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"{what} must be a 1-D vector")
    if not np.isfinite(p).all() or (p < -neg_tol).any() or abs(p.sum() - 1.0) > sum_tol:
        raise ValueError(f"{what} must be a distribution of finite entries")
    if size is not None and p.shape[0] != size:
        raise ValueError(f"{what} must be a distribution over the input alphabet")
    return p


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


@dataclass(frozen=True)
class DmcTriple:
    """Transition law p(y, z1, z2 | x) as a (|X|, |Y|, |Z1|, |Z2|) tensor."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 4:
            raise ValueError("transition tensor must have axes (x, y, z1, z2)")
        _check_stochastic(p, "p(y,z1,z2|x)")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    @classmethod
    def independent(cls, py_x, pz1_x, pz2_x) -> "DmcTriple":
        """Compose from per-output kernels, conditionally independent given x."""
        py_x = np.asarray(py_x, dtype=float)
        pz1_x = np.asarray(pz1_x, dtype=float)
        pz2_x = np.asarray(pz2_x, dtype=float)
        return cls(np.einsum("xy,xa,xb->xyab", py_x, pz1_x, pz2_x))

    @property
    def nx(self) -> int:
        return self.p.shape[0]

    @property
    def py_x(self) -> np.ndarray:
        return self.p.sum(axis=(2, 3))

    @property
    def pz1_x(self) -> np.ndarray:
        return self.p.sum(axis=(1, 3))

    @property
    def pz2_x(self) -> np.ndarray:
        return self.p.sum(axis=(1, 2))

    def to_dict(self) -> dict:
        return {
            "nx": self.p.shape[0],
            "ny": self.p.shape[1],
            "nz1": self.p.shape[2],
            "nz2": self.p.shape[3],
            "index_order": "x,y,z1,z2 (row-major)",
            "p": [float(v) for v in self.p.reshape(-1)],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DmcTriple":
        """Inverse of to_dict; a malformed document is a ValueError."""
        shape = [d.get(k) for k in ("nx", "ny", "nz1", "nz2")] if isinstance(d, dict) else []
        if len(shape) != 4 or not all(type(v) is int and v >= 1 for v in shape):
            raise ValueError("channel must be a JSON object with integers nx, ny, nz1, nz2 >= 1")
        size = math.prod(shape)
        p = d.get("p")
        if not (isinstance(p, list) and len(p) == size
                and all(type(v) is float or (type(v) is int and abs(v) <= sys.float_info.max)
                        for v in p)):
            raise ValueError(f"channel p must be a list of {size} numbers")
        return cls(np.asarray(p, dtype=float).reshape(shape))


def bec_kernel(delta: float) -> np.ndarray:
    """Binary erasure kernel: outputs (0, 1, erasure), erasure probability delta."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("erasure probability must be in [0, 1]")
    return np.array([[1 - delta, 0.0, delta], [0.0, 1 - delta, delta]])


def bsc_kernel(flip: float) -> np.ndarray:
    if not 0.0 <= flip <= 1.0:
        raise ValueError("flip probability must be in [0, 1]")
    return np.array([[1 - flip, flip], [flip, 1 - flip]])


def noiseless_kernel(size: int) -> np.ndarray:
    return np.eye(size)


@dataclass(frozen=True)
class AuxiliaryChain:
    """Distributions p(u), p(v|u), p(x|v) composing a chain U -> V -> X."""

    pu: np.ndarray
    pv_u: np.ndarray
    px_v: np.ndarray

    def __post_init__(self):
        pu = _check_distribution(self.pu, "p(u)", sum_tol=1e-12)
        pv_u = np.asarray(self.pv_u, dtype=float)
        px_v = np.asarray(self.px_v, dtype=float)
        for mat, what in ((pv_u, "p(v|u)"), (px_v, "p(x|v)")):
            if mat.ndim != 2:
                raise ValueError(f"{what} must be a 2-D matrix")
            _check_stochastic(mat, what)
        if pv_u.shape[0] != pu.shape[0] or px_v.shape[0] != pv_u.shape[1]:
            raise ValueError("chain shapes do not compose")
        for arr, name in ((pu, "pu"), (pv_u, "pv_u"), (px_v, "px_v")):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def joint_uvx(self) -> np.ndarray:
        return np.einsum("u,uv,vx->uvx", self.pu, self.pv_u, self.px_v)


@dataclass(frozen=True)
class DegradationResult:
    degraded: bool
    witness: np.ndarray | None
    residual: float


_DEGRADED_TOL = 1e-9  # largest LP residual still read as degraded
_DEGRADE_PAIRS = {
    "z2_of_z1": ("pz1_x", "pz2_x"),
    "z2_of_y": ("py_x", "pz2_x"),
    "z1_of_y": ("py_x", "pz1_x"),
}


def check_degraded(ch: DmcTriple, which: str = "z2_of_z1") -> DegradationResult:
    """Decide whether the target output is a stochastic degradation of the source.

    Solves the linear feasibility problem for a kernel w with
    p(target|x) = sum_source p(source|x) w(target|source) by minimizing
    the maximum equation residual; degraded iff the optimum is within
    _DEGRADED_TOL.  Returns the witness kernel when feasible, otherwise the
    best-achievable residual as an infeasibility certificate.
    """
    from scipy.optimize import linprog  # slow to import, and only needed here

    if which not in _DEGRADE_PAIRS:
        raise ValueError(f"which must be one of {sorted(_DEGRADE_PAIRS)}")
    src_name, tgt_name = _DEGRADE_PAIRS[which]
    src = getattr(ch, src_name)
    tgt = getattr(ch, tgt_name)
    nx, ns = src.shape
    nt = tgt.shape[1]
    nvar = ns * nt + 1  # w entries then the residual bound t

    # |sum_s src[x,s] w[s,t'] - tgt[x,t']| <= t  for every (x, t'): row x*nt + t'
    # of kron(src, I) is the sum; its + and - rows alternate
    m = np.kron(src, np.eye(nt))
    t_col = np.full((nx * nt, 1), -1.0)
    a_ub = np.stack([np.hstack([m, t_col]), np.hstack([-m, t_col])], axis=1)
    a_ub = a_ub.reshape(-1, nvar)
    b_ub = np.stack([tgt.reshape(-1), -tgt.reshape(-1)], axis=1).reshape(-1)
    # each row of w sums to one
    a_eq = np.hstack([np.kron(np.eye(ns), np.ones(nt)), np.zeros((ns, 1))])
    c = np.zeros(nvar)
    c[-1] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.ones(ns),
                  bounds=(0, None), method="highs")
    if not res.success:
        return DegradationResult(degraded=False, witness=None, residual=float("inf"))
    residual = float(res.x[-1])
    witness = res.x[:-1].reshape(ns, nt)
    if residual <= _DEGRADED_TOL:
        return DegradationResult(degraded=True, witness=witness, residual=residual)
    return DegradationResult(degraded=False, witness=None, residual=residual)


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
    return {**_rate_point(raw1, raw_sum), "side_condition_ok": bool(iuy >= iuz2 - 1e-12)}


_EMBED_TOL = 1e-9  # bound gaps at or below this are read as ties or zero


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
