"""Dense GF(2) linear algebra.

Matrices are numpy arrays of dtype uint8 with entries in {0, 1}; bit
vectors are 1-D arrays of the same kind.  Rows index constraints or
basis vectors, columns index code positions.  All functions are pure;
the only source of randomness is an explicit ``numpy.random.Generator``
argument, so results are reproducible from a seed.

Internally rows and columns are packed into Python ints (bit ``j`` of a
row int is column ``j``), which keeps Gaussian elimination fast at desk
scale.  That format has one packer, ``pack_rows``, and one unpacker,
``unpack_rows``; every conversion between 0/1 arrays and ints goes through
them.  The subset-rank search, which grows subcodes of bounded support
by Wei's generalized Hamming weight identity, keeps the same bit masks
in one numpy array of code words and scans it in array operations.

Row reduction has one form, ``_rref``: the fully reduced echelon form
whose pivots are each row's lowest set bit.  ``rank``, ``nullspace``,
``solve_affine`` and the subset-rank search's basis all read it.
``solve_affine`` reduces the constraint rows each tagged with its own
bit above the columns, so the reduced rows say which constraints sum to
them: that tagged map serves every syndrome, and a coset code builds it
once and samples from it per word.
"""

from __future__ import annotations

import operator

import numpy as np

from secembed import _integer

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
    """Raised when the min-rank search exceeds its node budget, NODE_LIMIT.

    ``nodes`` counts the listed code words plus those scanned per expanded
    support; the exact answer is known to lie in [``lower``, ``upper``].
    """

    def __init__(self, nodes: int, lower: int, upper: int):
        super().__init__(
            f"subset-rank search exceeded {nodes} nodes with the minimum rank in "
            f"[{lower}, {upper}]; instance beyond desk scale (gf2.NODE_LIMIT = {NODE_LIMIT})")
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


def _affine_map(rows, n: int) -> tuple[list[tuple[int, int, int]], list[int], list[int]]:
    """One reduction of the system {x : parity(rows[i] & x) = s_i} for every s.

    Row i is tagged with bit n + i before _rref, so above bit n each
    reduced row records the constraints that sum to it, and its low n
    bits are the RREF of the untagged rows.  Returns (pivots, free,
    checks): each pivot bit below n as (pivot, low row, tag); the free
    bits below n in column order; and the tags of the rows with no low
    bit, which span the dependencies among the rows (none iff the rows
    are independent).
    """
    basis = _rref([r | 1 << (n + i) for i, r in enumerate(rows)])
    low = (1 << n) - 1
    pivots = [(p, r & low, r >> n) for p, r in basis.items() if p <= low]
    checks = [r >> n for p, r in basis.items() if p > low]
    return pivots, _free_bits(basis, n), checks


def _sample_affine(affine_map, s: int, rng: np.random.Generator) -> int:
    """Packed uniform solution x of an _affine_map system for the packed syndrome s.

    A dependency with odd parity against s reads 0 = 1 and raises
    InfeasibleSystemError.  Otherwise one coefficient is drawn per free
    bit, and pivot bit p is set when its row's parity over the drawn bits
    differs from its tag's parity over s: x = sP xor rK, for P the
    particular-solution map and K the kernel basis of _kernel_rows.
    """
    pivots, free, checks = affine_map
    if any((t & s).bit_count() & 1 for t in checks):
        raise InfeasibleSystemError("no solution: syndrome outside the row-space image")
    drawn = 0
    for f, c in zip(free, rng.integers(0, 2, size=len(free), dtype=np.uint8).tolist()):
        if c:
            drawn |= f
    x = drawn
    for p, row, tag in pivots:
        if ((row & drawn).bit_count() ^ (tag & s).bit_count()) & 1:
            x |= p
    return x


def solve_affine(m, s, rng: np.random.Generator) -> np.ndarray:
    """Sample a uniform solution x of the transposed system x^T m = s^T.

    ``m`` has one row per code position and one column per constraint
    (the transposed layout of a parity-check matrix), so the system is
    equivalently ``m.T @ x = s``.  The returned x is drawn uniformly
    from the full solution set: a particular solution plus a uniform
    GF(2) combination of a kernel basis, which gives every solution
    probability 2**-(n - rank).  Both come from one reduction of the
    constraint rows, each tagged with its own bit above the columns
    (``_affine_map``); a caller that solves one system for many s, such
    as a coset code's encoder, keeps that map and samples from it.

    Raises ValueError when s is not a 0/1 vector of length k, and
    InfeasibleSystemError when s is not in the image.
    """
    a = _as_bits(m)
    n, k = a.shape
    s = bit_array(s, "syndrome").reshape(-1)
    if s.shape[0] != k:
        raise ValueError(f"syndrome length {s.shape[0]} != number of constraints {k}")
    x = _sample_affine(_affine_map(pack_rows(a.T), n), pack_rows([s])[0], rng)
    return unpack_rows([x], n)[0]


def column_subset_dim(m, subset) -> int:
    """Rank of the submatrix formed by the selected (0-based) columns."""
    a = _as_bits(m)
    return rank(a[:, positions(subset, a.shape[1])])


NODE_LIMIT = 20_000_000  # node cap of the min-rank search, read at each call

# The min-rank search counts listed words for a subcode dimension only when
# there are at most this many: one expansion adds at most as many supports as
# there are words, so its supports-by-words comparison stays within
# _COUNT_WORDS**2 elements (about 9 bytes each in temporaries), and a support
# costs at most _COUNT_WORDS comparisons.  Longer lists reduce rows instead.
_COUNT_WORDS = 1 << 10


def _bracket(n: int, full: int, size: int) -> tuple[int, int, list[int]]:
    """The bracket [lb, ub] on the minimum rank over column subsets of a given
    size of a rank-full matrix with n columns, and the sides (0 the row
    space, 1 the kernel) whose 2**dim - 1 listed words fit NODE_LIMIT.

    With lb < ub and neither side within the limit, the search cannot start:
    BudgetExceededError carries [lb, ub].
    """
    lb = max(0, size - (n - full))
    ub = min(size, full)
    fits = [side for side, dim in enumerate((full, n - full)) if (1 << dim) - 1 <= NODE_LIMIT]
    if lb < ub and not fits:
        raise BudgetExceededError(NODE_LIMIT, lb, ub)
    return lb, ub, fits


def _span(rows, dtype) -> np.ndarray:
    """All 2**len(rows) GF(2) combinations of packed rows: word i sums the rows at i's set bits."""
    span = np.zeros(1, dtype)
    for row in rows:
        span = np.concatenate([span, span ^ row])
    return span


def _counted_dims(words: np.ndarray, supports: list[int]) -> list[int]:
    """Dimension of the subcode inside each support, read off the listed words.

    Every code word inside a support U weighs at most |U|, within the bound
    the words were listed under, so exactly 2**dim - 1 listed words lie in
    U, and that count's popcount is dim.
    """
    cols = np.array(supports, dtype=words.dtype)[:, None]
    return np.bitwise_count(((words | cols) == cols).sum(axis=1)).tolist()


def _reduced_dim(rows: list[int], private: list[int], support: int) -> int:
    """Dimension of the subcode inside support, from the rows alone.

    private[i] is a bit that rows[i] alone has, so a sum of rows lies inside
    the support only if each summed row's private bit does; the sums of
    those rows that vanish outside the support are the subcode.
    """
    inside = [r & ~support for r, p in zip(rows, private) if p & support]
    return len(inside) - len(_rref(inside))


def min_rank_over_column_subsets(m, size: int) -> int:
    """Exact minimum of rank(m[:, S]) over all column subsets of the given size.

    By Wei's generalized-Hamming-weight identity, with C the row space of m
    and C' its kernel, it is rank(m) - r for r the largest dimension of a
    subcode of C supported within n - size positions, and equally size - r'
    for r' the same for C' within size positions.  The search takes the side
    with fewer levels, lists its words within the bound and grows closed
    subcodes (all code words inside one support) one listed word at a time.
    Words are bit masks in one numpy array (uint64 up to 64 positions, Python
    ints beyond), so each expanded support scans them in array operations.

    NODE_LIMIT caps the listed words (2**dim - 1) plus those each expanded
    support scans, each checked before the work.  Each scanned word adds at
    most one support, whose dimension costs at most _COUNT_WORDS word
    comparisons or one reduction of the rows, so the limit bounds the time.
    Past it the instance is beyond desk scale: BudgetExceededError carries
    the bracket [lower, upper] on the minimum reached so far.
    """
    a = _as_bits(m)
    n = a.shape[1]
    size = _integer(size, "size", 0, n)
    basis = _rref(pack_rows(a))
    full = len(basis)
    lb, ub, fits = _bracket(n, full, size)
    if lb == ub:
        return lb
    # Either side answers top - r, so the smaller top grows fewer levels; only
    # the side searched builds its rows.  Each row comes with a bit no other
    # row of its side has: its pivot, or the free column of a kernel row.
    sides = [(full, full, lambda: (list(basis.values()), list(basis), n - size)),
             (size, n - full, lambda: (_kernel_rows(basis, n), _free_bits(basis, n), size))]
    top, _, build = min((sides[i] for i in fits), key=lambda side: side[:2])
    rows, private, bound = build()
    nodes = (1 << len(rows)) - 1
    # Each word of the span of rows[12:] shifts the whole span of rows[:12] once.
    low = _span(rows[:12], np.uint64 if n <= 64 else object)
    light = []
    for offset in _span(rows[12:], low.dtype):
        block = low ^ offset
        weight = np.bitwise_count(block)
        light.append(block[(weight > 0) & (weight <= bound)])
    light = np.concatenate(light)
    # A closed subcode is fixed by its support, which keys the search; growing
    # support S to U adds at most |U| - |S| dimensions, which prunes S.
    r, seen, frontier = 0, {0}, [(0, 0)]
    while frontier:
        grown = []
        for supp, dim in frontier:
            if dim + bound - supp.bit_count() <= r:
                continue
            nodes += len(light)  # the scan below
            if nodes > NODE_LIMIT:
                raise BudgetExceededError(NODE_LIMIT, lb, min(ub, top - r))
            unions = light | supp
            unions = unions[np.bitwise_count(unions) <= bound].tolist()
            fresh = [u for u in dict.fromkeys(unions) if u not in seen]
            if not fresh:
                continue
            seen.update(fresh)
            if len(light) <= _COUNT_WORDS:
                dims = _counted_dims(light, fresh)
            else:  # one support at a time, so the exit at lb comes at the first match
                dims = (_reduced_dim(rows, private, u) for u in fresh)
            for u, dim_u in zip(fresh, dims):
                if top - dim_u == lb:
                    return lb
                r = max(r, dim_u)
                grown.append((u, dim_u))
        frontier = grown
    return top - r


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
    if len(head) != 2 or not all(h.isdecimal() for h in head):
        raise ValueError("first line must be 'rows cols', two nonnegative integers")
    rows, cols = int(head[0]), int(head[1])
    body = lines[1:]
    if len(body) != rows:
        raise ValueError(f"expected {rows} row lines, got {len(body)}")
    for i, ln in enumerate(body):  # every line checked before any allocation
        if len(ln) != cols or set(ln) - {"0", "1"}:
            raise ValueError(f"row {i}: expected {cols} characters of 0/1")
    return np.frombuffer("".join(body).encode(), dtype=np.uint8).reshape(rows, cols) - ord("0")
