"""Dense GF(2) linear algebra.

Matrices are numpy arrays of dtype uint8 with entries in {0, 1}; bit
vectors are 1-D arrays of the same kind.  Rows index constraints or
basis vectors, columns index code positions.  All functions are pure;
the only source of randomness is an explicit ``numpy.random.Generator``
argument, so results are reproducible from a seed.

Internally rows and columns are packed into Python ints (bit ``j`` of a
row int is column ``j``), which keeps Gaussian elimination and the
subset-rank search fast at desk scale (up to ~64 positions).  That
format has one packer, ``pack_rows``, and one unpacker, ``unpack_rows``;
every conversion between arrays and ints goes through them.

Row reduction has one form, ``_rref``: the fully reduced echelon form
whose pivots are each row's lowest set bit.  ``rank``, ``nullspace``,
``solve_affine`` (target bit appended above the columns) and the
min-rank setup all read it.  Only the subset-rank branch-and-bound
keeps its own top-bit canonical basis.
"""

from __future__ import annotations

import operator
from collections import Counter

import numpy as np

__all__ = [
    "InfeasibleSystemError",
    "BudgetExceededError",
    "pack_rows",
    "unpack_rows",
    "bit_array",
    "positions",
    "rank",
    "nullspace",
    "solve_affine",
    "column_subset_dim",
    "min_rank_over_column_subsets",
    "random_matrix",
    "matrix_to_text",
    "matrix_from_text",
]


class InfeasibleSystemError(ValueError):
    """Raised when a linear system over GF(2) has no solution."""


class BudgetExceededError(RuntimeError):
    """Raised when an exact search exceeds its configured node budget.

    ``nodes`` is the number of search nodes visited; the exact answer is
    known to lie in the bracket [``lower``, ``upper``].
    """

    def __init__(self, nodes: int, lower: int, upper: int):
        super().__init__(
            f"subset-rank search exceeded {nodes} nodes with the minimum rank in "
            f"[{lower}, {upper}]; instance beyond desk scale")
        self.nodes = nodes
        self.lower = lower
        self.upper = upper


def bit_array(a, what: str = "matrix") -> np.ndarray:
    """a as uint8 once every entry equals 0 or 1, of any dtype (``np.eye(3)``).

    2, 0.5 or -1 is a ValueError, never truncated; a uint8 array costs one
    ``max()`` pass and no copy."""
    a = np.asarray(a)
    if a.dtype == np.uint8:
        bad = a.size and a.max() > 1
    else:
        bad = not ((a == 0) | (a == 1)).all()
        a = a if bad else a.astype(np.uint8)
    if bad:
        raise ValueError(f"{what} entries must be 0 or 1")
    return a


def positions(items, n: int) -> list[int]:
    """Sorted distinct 0-based positions below n, read with operator.index:
    numpy integers pass, a non-integral one (0.9, "3") is a ValueError."""
    idx = set()
    for i in items:
        try:
            idx.add(operator.index(i))
        except TypeError:
            raise ValueError(f"position {i!r} is not an integer") from None
    idx = sorted(idx)
    if idx and (idx[0] < 0 or idx[-1] >= n):
        raise IndexError(f"positions must lie in 0..{n - 1}")
    return idx


def _as_bits(m) -> np.ndarray:
    a = bit_array(m)
    if a.ndim != 2:
        raise ValueError("expected a 2-D binary matrix")
    return a


def pack_rows(m) -> list[int]:
    """Pack each row of a 0/1 matrix into an int; bit j of the int is column j."""
    packed = np.packbits(np.asarray(m, dtype=np.uint8), axis=1, bitorder="little")
    return [int.from_bytes(r.tobytes(), "little") for r in packed]


def unpack_rows(rows, length: int) -> np.ndarray:
    """Inverse of pack_rows: row ints below 2**length to a (len(rows) x length) matrix."""
    nbytes = (length + 7) // 8
    buf = b"".join(operator.index(v).to_bytes(nbytes, "little") for v in rows)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(packed, axis=1, count=length, bitorder="little")


def _reduce(v: int, basis: list[int]) -> int:
    """Reduce v by an echelon basis (each vector has a unique top bit).

    v ^ b < v exactly when v has b's top bit set, which is the test for
    clearing that bit.
    """
    for b in basis:
        w = v ^ b
        if w < v:
            v = w
    return v


def _rref(rows) -> dict[int, int]:
    """Fully reduced row echelon form of packed rows as {pivot bit: row}.

    A pivot bit is a one-bit int (``1 << j`` for column j).  Each row's
    pivot is its lowest set bit, and no other row has that bit, which
    makes this the unique RREF in column order 0, 1, ...  Each new row is
    reduced by every pivot, then clears its own pivot elsewhere.
    """
    basis: dict[int, int] = {}
    for v in rows:
        for p, b in basis.items():
            if v & p:
                v ^= b
        if v:
            p = v & -v
            for q, b in basis.items():
                if b & p:
                    basis[q] = b ^ v
            basis[p] = v
    return basis


def rank(m) -> int:
    """GF(2) rank of a binary matrix (row rank = column rank)."""
    return len(_rref(pack_rows(_as_bits(m))))


def _kernel_rows(basis: dict[int, int], ncols: int) -> list[int]:
    """Kernel basis of an _rref form, one packed row per free column below ncols.

    Free column bit f gives f plus every pivot whose row has bit f; bits
    from ncols up (an augmented part) are never read.  Rows come in
    increasing free-column order.
    """
    return [f | sum(p for p, r in basis.items() if r & f) for f in _free_bits(basis, ncols)]


def _free_bits(basis: dict[int, int], ncols: int) -> list[int]:
    """Bits of the non-pivot columns below ncols, in column order."""
    return [1 << j for j in range(ncols) if 1 << j not in basis]


def nullspace(m) -> np.ndarray:
    """Basis of {x : m @ x = 0 over GF(2)} as rows of a (dim x cols) matrix.

    Returns a (0 x cols) matrix when the kernel is trivial.
    """
    a = _as_bits(m)
    n = a.shape[1]
    return unpack_rows(_kernel_rows(_rref(pack_rows(a)), n), n)


def solve_affine(m, s, rng: np.random.Generator) -> np.ndarray:
    """Sample a uniform solution x of the transposed system x^T m = s^T.

    ``m`` has one row per code position and one column per constraint
    (the transposed layout of a parity-check matrix), so the system is
    equivalently ``m.T @ x = s``.  The returned x is drawn uniformly
    from the full solution set: a particular solution plus a uniform
    GF(2) combination of a kernel basis, which gives every solution
    probability 2**-(n - rank).  Both come from one elimination of the
    augmented system.

    Raises ValueError when s is not a 0/1 vector of length k, and
    InfeasibleSystemError when s is not in the image.
    """
    a = _as_bits(m)
    n, k = a.shape
    s = bit_array(s, "syndrome").reshape(-1)
    if s.shape[0] != k:
        raise ValueError(f"syndrome length {s.shape[0]} != number of constraints {k}")
    # constraint rows of m.T, augmented with the target bit at position n
    target = 1 << n
    basis = _rref([r | (target if b else 0) for r, b in zip(pack_rows(a.T), s)])
    if target in basis:  # a row reads 0 = 1
        raise InfeasibleSystemError("no solution: syndrome outside the row-space image")
    # Kernel row f is f plus the pivots whose row has bit f, so the drawn free
    # bits and the target bit fix each pivot bit by the parity of its row.
    free = _free_bits(basis, n)
    drawn = target
    for f, c in zip(free, rng.integers(0, 2, size=len(free), dtype=np.uint8)):
        if c:
            drawn |= f
    x = drawn ^ target | sum(p for p, r in basis.items() if (r & drawn).bit_count() & 1)
    return unpack_rows([x], n)[0]


def column_subset_dim(m, subset) -> int:
    """Rank of the submatrix formed by the selected (0-based) columns."""
    a = _as_bits(m)
    return rank(a[:, positions(subset, a.shape[1])])


def min_rank_over_column_subsets(m, size: int, *, node_limit: int = 20_000_000) -> int:
    """Exact minimum of rank(m[:, S]) over all column subsets of the given size.

    Runs an exact branch-and-bound over candidate spanning subspaces
    (rank is monotone in the subset, so partial ranks prune).  When its
    rank bracket is smaller, the search runs on the kernel side via the
    identity

        rank(m[:, S]) = |S| - dim ker(m) + rank(g[:, complement of S])

    with g a kernel basis of m, which keeps the search depth small.

    Raises ValueError when node_limit < 1, and BudgetExceededError when
    the search exceeds node_limit nodes; that signals the instance is
    beyond desk scale, not an approximation.  The error carries the
    bracket [lower, upper] on the minimum that the search had reached.
    """
    if node_limit < 1:
        raise ValueError(f"node_limit must be >= 1, got {node_limit}")
    a = _as_bits(m)
    n = a.shape[1]
    if not 0 <= size <= n:
        raise ValueError(f"subset size {size} out of range 0..{n}")
    basis = _rref(pack_rows(a))
    full = len(basis)
    nullity = n - full
    lb = max(0, size - nullity)
    ub = min(size, full)
    if lb == ub:
        return lb
    dual_size = n - size
    dual_lb = max(0, dual_size - full)
    dual_ub = min(dual_size, nullity)
    if (dual_lb, dual_ub) < (lb, ub):
        shift = size - nullity
        g = unpack_rows(_kernel_rows(basis, n), n)
        try:
            d = _min_rank_subspaces(pack_rows(g.T), dual_size, dual_lb, dual_ub, node_limit)
        except BudgetExceededError as exc:
            raise BudgetExceededError(exc.nodes, shift + exc.lower, shift + exc.upper) from None
        return shift + d
    return _min_rank_subspaces(pack_rows(a.T), size, lb, ub, node_limit)


def _canon_insert(basis: tuple[int, ...], v: int) -> tuple[int, ...]:
    """Insert v into a fully reduced basis, keeping the canonical RREF form."""
    v = _reduce(v, basis)
    p = v.bit_length() - 1
    nb = [b ^ v if (b >> p) & 1 else b for b in basis]
    nb.append(v)
    nb.sort(reverse=True)
    return tuple(nb)


def _min_rank_subspaces(cols: list[int], size: int, lb: int, ub: int,
                        node_limit: int) -> int:
    """Smallest r such that some r-dim subspace contains >= size columns.

    That minimum equals the minimum subset rank: a subset of the stated
    size and rank r spans an r-dim subspace containing all its columns,
    and conversely any r-dim subspace holding >= size columns yields a
    subset of rank <= r.  Targets r are tried upward from lb, so when
    the budget runs out at target r every smaller target was refuted.
    """
    cnt = Counter(cols)
    zero = cnt.pop(0, 0)
    vals = sorted(cnt)
    if zero >= size:
        return 0
    nodes = 0

    def dfs(basis: tuple[int, ...], count: int, target: int,
            visited: set[tuple[int, ...]]) -> bool:
        nonlocal nodes
        if nodes == node_limit:
            raise BudgetExceededError(nodes, target, ub)
        nodes += 1
        if count >= size:
            return True
        dim = len(basis)
        if dim == target:
            return False
        reps: dict[int, int] = {}
        for v in vals:
            r = _reduce(v, basis)
            if r:
                reps[r] = reps.get(r, 0) + cnt[v]
        slots = (1 << (target - dim)) - 1
        top = sorted(reps.values(), reverse=True)[:slots]
        if count + sum(top) < size:
            return False
        for r in sorted(reps, key=lambda x: (-reps[x], x)):
            nb = _canon_insert(basis, r)
            if nb in visited:
                continue
            visited.add(nb)
            if dfs(nb, count + reps[r], target, visited):
                return True
        return False

    for target in range(max(lb, 1), ub + 1):
        if dfs((), zero, target, set()):
            return target
    return ub


def random_matrix(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Matrix with i.i.d. uniform {0,1} entries."""
    return rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)


def matrix_to_text(m) -> str:
    """Serialize to the toolkit text format: 'rows cols' then 0/1 row lines."""
    a = _as_bits(m)
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for i in range(a.shape[0]):
        lines.append("".join("1" if b else "0" for b in a[i]))
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> np.ndarray:
    """Parse the text format produced by matrix_to_text."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'rows cols'")
    rows, cols = int(head[0]), int(head[1])
    body = lines[1:]
    if len(body) != rows:
        raise ValueError(f"expected {rows} row lines, got {len(body)}")
    out = np.zeros((rows, cols), dtype=np.uint8)
    for i, ln in enumerate(body):
        if len(ln) != cols or set(ln) - {"0", "1"}:
            raise ValueError(f"row {i}: expected {cols} characters of 0/1")
        out[i] = [1 if c == "1" else 0 for c in ln]
    return out
