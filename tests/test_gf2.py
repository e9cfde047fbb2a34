"""GF(2) linear algebra tests against brute-force oracles."""

import itertools
import re
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secembed import gf2


def span_size_rank(m):
    """Oracle: rank via the size of the row span, |span| = 2**rank."""
    m = np.asarray(m, dtype=np.uint8)
    vecs = {tuple(np.zeros(m.shape[1], dtype=np.uint8))}
    for r in range(1, m.shape[0] + 1):
        for rows in itertools.combinations(range(m.shape[0]), r):
            vecs.add(tuple(np.bitwise_xor.reduce(m[list(rows)], axis=0)))
    size = len(vecs)
    return size.bit_length() - 1


def elimination_rank(m):
    """Oracle: independent column-sweep Gaussian elimination on lists."""
    rows = [list(map(int, r)) for r in np.asarray(m)]
    ncols = len(rows[0]) if rows else 0
    rk = 0
    for c in range(ncols):
        piv = next((i for i in range(rk, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        for i in range(len(rows)):
            if i != rk and rows[i][c]:
                rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[rk])]
        rk += 1
    return rk


def all_solutions(m, s):
    """Oracle: enumerate every x with x @ m == s (mod 2)."""
    m = np.asarray(m, dtype=np.uint8)
    n = m.shape[0]
    sols = []
    for bits in itertools.product((0, 1), repeat=n):
        x = np.array(bits, dtype=np.uint8)
        if np.array_equal((x @ m) % 2, np.asarray(s, dtype=np.uint8)):
            sols.append(x)
    return sols


def test_rank_identity_and_zero():
    assert gf2.rank(np.eye(2, dtype=np.uint8)) == 2
    assert gf2.rank(np.zeros((3, 5), dtype=np.uint8)) == 0


def test_rank_dependent_rows():
    m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    assert span_size_rank(m) == 2
    assert gf2.rank(m) == 2


def test_rank_matches_oracles_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        r, c = rng.integers(1, 9, size=2)
        m = gf2.random_matrix(int(r), int(c), rng)
        got = gf2.rank(m)
        assert got == elimination_rank(m)
        assert got == gf2.rank(m.T)
        assert got <= min(m.shape)
        if max(r, c) <= 6:
            assert got == span_size_rank(m)


def test_solve_affine_unique_solution():
    rng = np.random.default_rng(0)
    x = gf2.solve_affine(np.eye(2, dtype=np.uint8), [1, 0], rng)
    assert np.array_equal(x, [1, 0])


def test_solve_affine_even_weight_set():
    # one parity constraint on three positions: four even-weight solutions
    m = np.ones((3, 1), dtype=np.uint8)
    sols = {tuple(x) for x in all_solutions(m, [0])}
    assert len(sols) == 4
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = gf2.solve_affine(m, [0], rng)
        assert tuple(x) in sols


def test_solve_affine_infeasible():
    with pytest.raises(gf2.InfeasibleSystemError):
        gf2.solve_affine(np.zeros((2, 1), dtype=np.uint8), [1], np.random.default_rng(0))


@pytest.mark.parametrize("s, message", [
    ([2, 1, 0], "syndrome entries must be integers from 0 to 1, in shape (3,)"),
    ([0, 1, 0.5], "syndrome entries must be integers from 0 to 1, in shape (3,)"),
    ([[1, 0, 1]], "syndrome shape (1, 3) must be (3,), of integers from 0 to 1")],
    ids=["s0", "s1", "s2"])
def test_solve_affine_rejects_non_binary_syndrome(s, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gf2.solve_affine(np.eye(3, dtype=np.uint8), s, np.random.default_rng(0))


@pytest.mark.parametrize("m", [[[0.5, 1.0]], [[1.7, 1.0]], [[256, 1]], [[-1, 1]],
                               [[np.nan, 1]], [["1", "0"]], [[2, 0]]])
def test_non_binary_matrices_are_domain_errors(m):
    message = re.escape("matrix entries must be integers from 0 to 1, in shape (*, *)")
    for fn in (gf2.rank, gf2.nullspace, gf2.matrix_to_text, gf2.pack_rows):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fn(m)
    with pytest.raises(ValueError, match=f"^{message}$"):
        gf2.column_subset_dim(m, [0])


def test_binary_matrices_of_any_dtype_are_accepted():
    for m in (np.eye(3), np.eye(3, dtype=bool), np.eye(3, dtype=np.int64), np.eye(3).tolist()):
        assert gf2.rank(m) == 3
    assert gf2._integer_array([[True, False]]).dtype == np.uint8
    # an input already of the target dtype is checked, not copied
    a = gf2.random_matrix(4, 6, np.random.default_rng(0))
    assert gf2._integer_array(a) is a
    z = np.array([1, 0, -1], dtype=np.int8)
    assert gf2._integer_array(z, "z", (None,), -1, 1, np.int8) is z
    words = np.zeros((2, 2, 2, 4), dtype=np.int64)
    assert gf2._integer_array(words, "codeword", (None,) * 4, 0, 1, np.int64) is words


@pytest.mark.parametrize("row, message", [(16, "row = 16 must be <= 15"),
                                          (256, "row = 256 must be <= 15"),
                                          (-1, "row = -1 must be >= 0"),
                                          (1.0, "row = 1.0 must be an integer"),
                                          (True, "row = True must be an integer")])
def test_unpack_rows_keeps_every_bit_or_refuses(row, message):
    assert gf2.unpack_rows([15, 0], 4).tolist() == [[1, 1, 1, 1], [0, 0, 0, 0]]
    with pytest.raises(ValueError, match=f"^{message}$"):
        gf2.unpack_rows([0, row], 4)


def test_positions_take_the_integer_and_range_rules():
    assert gf2.positions([np.int64(3), 0, 3], 4) == [0, 3]
    with pytest.raises(ValueError, match="^position = True must be an integer$"):
        gf2.positions([True, False], 4)
    with pytest.raises(ValueError, match="^position = 4 must be <= 3$"):
        gf2.positions([4, 0], 4)
    with pytest.raises(ValueError, match="^position = -1 must be >= 0$"):
        gf2.positions([2, -1], 4)


def test_non_integral_column_positions_are_domain_errors():
    m = np.eye(4, dtype=np.uint8)
    with pytest.raises(ValueError, match="position = 0.5 must be an integer"):
        gf2.column_subset_dim(m, [0.5, 3.7])
    assert gf2.column_subset_dim(m, np.array([0, 3])) == 2
    assert gf2.column_subset_dim(m, [np.int64(0), np.uint8(3)]) == 2


class FixedCoefficients:
    """Stand-in rng that hands solve_affine a chosen kernel combination."""

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def integers(self, low, high, size, dtype):
        assert len(self.coeffs) == size
        return np.asarray(self.coeffs, dtype=dtype)


def test_solve_affine_kernel_is_nullspace():
    # x(e_i) ^ x(0) is kernel row i, so this recovers the kernel basis in draw order
    rng = np.random.default_rng(17)
    for _ in range(100):
        n, k = (int(v) for v in rng.integers(1, 12, size=2))
        m = gf2.random_matrix(n, k, rng)
        s = (rng.integers(0, 2, size=n, dtype=np.uint8) @ m) % 2
        want = gf2.nullspace(m.T)
        dim = want.shape[0]
        x0 = gf2.solve_affine(m, s, FixedCoefficients([0] * dim))
        got = [gf2.solve_affine(m, s, FixedCoefficients(np.eye(dim)[i])) ^ x0
               for i in range(dim)]
        assert np.array_equal(np.array(got, dtype=np.uint8).reshape(dim, n), want)


def test_solve_affine_satisfies_system_random():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n, k = rng.integers(1, 7, size=2)
        m = gf2.random_matrix(int(n), int(k), rng)
        sols = None
        s = rng.integers(0, 2, size=int(k), dtype=np.uint8)
        sols = all_solutions(m, s)
        if not sols:
            with pytest.raises(gf2.InfeasibleSystemError):
                gf2.solve_affine(m, s, rng)
            continue
        x = gf2.solve_affine(m, s, rng)
        assert np.array_equal((x @ m) % 2, s)


def test_solve_affine_uniformity_chi_square():
    # 3 positions, one even-parity constraint: 4 solutions; and a 6-position
    # system with 2 constraints: 16 solutions.  Chi-square within 3 sigma.
    cases = [
        (np.ones((3, 1), dtype=np.uint8), [0]),
        (gf2.random_matrix(6, 2, np.random.default_rng(5)), [1, 0]),
    ]
    for m, s in cases:
        sols = all_solutions(m, s)
        if not sols:
            continue
        index = {tuple(x): i for i, x in enumerate(sols)}
        counts = np.zeros(len(sols))
        rng = np.random.default_rng(12345)
        draws = 10_000
        for _ in range(draws):
            counts[index[tuple(gf2.solve_affine(m, s, rng))]] += 1
        expected = draws / len(sols)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        df = len(sols) - 1
        assert chi2 < df + 3 * np.sqrt(2 * df)


def test_column_subset_dim_basics():
    eye3 = np.eye(3, dtype=np.uint8)
    assert gf2.column_subset_dim(eye3, [0, 1]) == 2
    assert gf2.column_subset_dim(eye3, []) == 0
    ones = np.ones((1, 4), dtype=np.uint8)
    for j in range(4):
        assert gf2.column_subset_dim(ones, [j]) == 1
    with pytest.raises(ValueError):
        gf2.column_subset_dim(eye3, [3])


def test_column_subset_dim_monotone():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = gf2.random_matrix(4, 6, rng)
        small = set(int(i) for i in rng.choice(6, size=2, replace=False))
        big = small | {int(rng.integers(0, 6))}
        d_small = gf2.column_subset_dim(m, small)
        d_big = gf2.column_subset_dim(m, big)
        assert d_small <= d_big
        assert d_small <= len(small)


def min_rank_oracle(m, size):
    m = np.asarray(m, dtype=np.uint8)
    return min(
        gf2.rank(m[:, list(cols)]) if cols else 0
        for cols in itertools.combinations(range(m.shape[1]), size)
    )


def test_min_rank_small_matches_oracle():
    rng = np.random.default_rng(17)
    for _ in range(150):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        m = gf2.random_matrix(k, n, rng)
        size = int(rng.integers(0, n + 1))
        want = min_rank_oracle(m, size) if size else 0
        assert gf2.min_rank_over_column_subsets(m, size) == want


def draw_min_rank_instance(data):
    """A k x n matrix (k <= 6, n <= 11) and a subset size; columns drawn as
    ints below 2**k, so zero and repeated columns are common."""
    k = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(1, 11))
    cols = data.draw(st.lists(st.integers(0, (1 << k) - 1), min_size=n, max_size=n))
    m = gf2.unpack_rows(cols, k).T
    return m, data.draw(st.integers(0, n))


@settings(max_examples=300)
@given(st.data())
def test_min_rank_matches_oracle_property(data):
    m, size = draw_min_rank_instance(data)
    assert gf2.min_rank_over_column_subsets(m, size) == min_rank_oracle(m, size)


@settings(max_examples=300)
@given(st.data())
def test_min_rank_budget_bracket_contains_oracle(data):
    m, size = draw_min_rank_instance(data)
    node_limit = data.draw(st.integers(1, 30))
    want = min_rank_oracle(m, size)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf2, "NODE_LIMIT", node_limit)
            got = gf2.min_rank_over_column_subsets(m, size)
    except gf2.BudgetExceededError as exc:
        assert exc.nodes == node_limit
        assert exc.lower <= want <= exc.upper <= min(size, gf2.rank(m))
        assert f"[{exc.lower}, {exc.upper}]" in str(exc)
    else:
        assert got == want


# The subset-rank branch-and-bound that computed min_rank_over_column_subsets
# before the generalized-Hamming-weight search, kept as an independent
# reference: it searches column subspaces with its own top-bit basis.

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
            raise gf2.BudgetExceededError(nodes, target, ub)
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


def reference_min_rank(m, size, node_limit=20_000_000):
    """The branch-and-bound on whichever of m and its kernel has the smaller bracket."""
    a = np.asarray(m, dtype=np.uint8)
    n = a.shape[1]
    full = gf2.rank(a)
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
        g = gf2.nullspace(a)
        try:
            d = _min_rank_subspaces(gf2.pack_rows(g.T), dual_size, dual_lb, dual_ub, node_limit)
        except gf2.BudgetExceededError as exc:
            raise gf2.BudgetExceededError(exc.nodes, shift + exc.lower, shift + exc.upper) from None
        return shift + d
    return _min_rank_subspaces(gf2.pack_rows(a.T), size, lb, ub, node_limit)


@st.composite
def repetitive_matrices(draw):
    """A k x n matrix (k <= 10, n <= 20) whose columns are zero or one of at
    most max(1, n // 2) nonzero values, so repeated and zero columns are the rule."""
    k = draw(st.integers(1, 10))
    n = draw(st.integers(1, 20))
    pool = draw(st.lists(st.integers(1, (1 << k) - 1), min_size=1, max_size=max(1, n // 2)))
    cols = draw(st.lists(st.sampled_from([0] + pool), min_size=n, max_size=n))
    return gf2.unpack_rows(cols, k).T


@settings(max_examples=200)
@given(repetitive_matrices())
def test_min_rank_matches_branch_and_bound_reference(m):
    for size in range(m.shape[1] + 1):
        assert gf2.min_rank_over_column_subsets(m, size) == reference_min_rank(m, size), size


def test_min_rank_budget_bracket_tightens_as_subcodes_grow():
    # the search had grown a subcode of dimension 2 when the budget ran out,
    # so the bracket's upper end is rank 6 - 2, below min(size, rank) = 6
    m = gf2.random_matrix(6, 16, np.random.default_rng(2))
    assert gf2.min_rank_over_column_subsets(m, 8) == reference_min_rank(m, 8) == 4
    with pytest.MonkeyPatch.context() as mp, pytest.raises(gf2.BudgetExceededError) as exc:
        mp.setattr(gf2, "NODE_LIMIT", 200)
        gf2.min_rank_over_column_subsets(m, 8)
    assert (exc.value.nodes, exc.value.lower, exc.value.upper) == (200, 0, 4)


def test_min_rank_node_limit_bounds_time():
    # the budget counts each expanded support's scan of the listed words; when
    # it did not, this instance ran 6.6 s on a 2-vCPU host and returned 10
    m = gf2.random_matrix(14, 28, np.random.default_rng(0))
    start = time.process_time()
    with pytest.MonkeyPatch.context() as mp, pytest.raises(gf2.BudgetExceededError) as exc:
        mp.setattr(gf2, "NODE_LIMIT", 10**6)
        gf2.min_rank_over_column_subsets(m, 14)
    assert time.process_time() - start < 2.0  # 0.6-0.9 s on that host
    assert exc.value.nodes == 10**6 and exc.value.lower <= 10 <= exc.value.upper


def test_min_rank_budget_is_checked_before_listing():
    # 2**30 - 1 words on the row-space side and 2**34 - 1 on the kernel side:
    # both exceed the default budget, which must fail before any allocation
    m = gf2.random_matrix(30, 64, np.random.default_rng(0))
    tracemalloc.start()
    try:
        with pytest.raises(gf2.BudgetExceededError) as exc:
            gf2.min_rank_over_column_subsets(m, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (exc.value.nodes, exc.value.lower, exc.value.upper) == (20_000_000, 0, 30)
    assert peak < 1 << 20


def test_min_rank_traversal_pinned():
    # brackets and answers from the search that reduced rows per grown support;
    # the budget errors pin the listing order, the traversal order and the node
    # count: the fourth dimension is found in the support whose scan takes the
    # node count to 1,444,088
    m = gf2.random_matrix(14, 28, np.random.default_rng(0))
    for node_limit, upper in [(10**5, 11), (10**6, 11), (1_444_087, 11), (1_444_088, 10),
                              (gf2.NODE_LIMIT, 10)]:
        with pytest.MonkeyPatch.context() as mp, pytest.raises(gf2.BudgetExceededError) as exc:
            mp.setattr(gf2, "NODE_LIMIT", node_limit)
            gf2.min_rank_over_column_subsets(m, 14)
        assert (exc.value.nodes, exc.value.lower, exc.value.upper) == (node_limit, 0, upper)
    # (d1*, d2*) of 20 random n = 32 certificate shapes: 8 x 32 at size 16, 16 x 32 at size 24
    rng = np.random.default_rng(32)
    got = []
    for _ in range(20):
        h = gf2.random_matrix(16, 32, rng)
        got.append((gf2.min_rank_over_column_subsets(h[:8], 16),
                    gf2.min_rank_over_column_subsets(h, 24)))
    d2 = [15, 14, 15, 15, 14, 14, 15, 14, 15, 14, 15, 15, 14, 15, 14, 14, 15, 15, 14, 14]
    assert got == [(6, d) for d in d2]


def test_min_rank_scan_memory_is_bounded():
    # the first expanded support adds 2,371 new supports to the 2,371 listed
    # words; counting them all against each other would take about 48 MiB
    m = gf2.random_matrix(12, 24, np.random.default_rng(0))
    tracemalloc.start()
    try:
        assert gf2.min_rank_over_column_subsets(m, 12) == 8
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20  # 4.2 MiB


def test_min_rank_default_budget_bounds_time_on_a_long_list():
    # 75,000 listed words, each a new support of the first expansion: counting
    # listed words for each of them took 47 s on a 2-vCPU host
    m = gf2.random_matrix(17, 34, np.random.default_rng(0))
    start = time.process_time()
    with pytest.raises(gf2.BudgetExceededError) as exc:
        gf2.min_rank_over_column_subsets(m, 17)
    assert time.process_time() - start < 15.0  # 4.4-5.7 s on that host
    assert (exc.value.nodes, exc.value.lower, exc.value.upper) == (gf2.NODE_LIMIT, 0, 13)


@pytest.mark.parametrize("k, n", [(3, 70), (4, 100)])
def test_min_rank_beyond_64_positions_matches_reference(k, n):
    # words of more than 64 positions are Python ints in an object array
    m = gf2.random_matrix(k, n, np.random.default_rng(n))
    for size in range(n + 1):
        assert gf2.min_rank_over_column_subsets(m, size) == reference_min_rank(m, size), size


def ghw_generator(code, m):
    """Generator matrix and generalized Hamming weights d_0..d_k of the simplex
    code [2**m - 1, m] or of RM(1, m) [2**m, m + 1].

    Both have d_r = 2**m - 2**(m - r) for r <= m; RM(1, m) adds d_(m+1) = 2**m.
    """
    cols = np.arange(1 if code == "simplex" else 0, 2**m)
    g = gf2.unpack_rows(cols.tolist(), m).T
    weights = [2**m - 2**(m - r) for r in range(m + 1)]
    if code == "rm1":
        g = np.vstack([np.ones((1, 2**m), dtype=g.dtype), g])
        weights.append(2**m)
    return g, weights


@pytest.mark.parametrize("code", ["simplex", "rm1"])
@pytest.mark.parametrize("m", [3, 4, 5])
def test_min_rank_matches_generalized_hamming_weights(code, m):
    """Wei's identity: min_{|S|=s} rank(G_S) = k - max{r : d_r <= n - s}."""
    g, weights = ghw_generator(code, m)
    k, n = g.shape
    assert gf2.rank(g) == k == len(weights) - 1
    for s in range(n + 1):
        want = k - max(r for r, d in enumerate(weights) if d <= n - s)
        assert gf2.min_rank_over_column_subsets(g, s) == want, s


def test_min_rank_identity_and_zero_column():
    eye = np.eye(6, dtype=np.uint8)
    for size in range(7):
        assert gf2.min_rank_over_column_subsets(eye, size) == size
    with_zero = np.hstack([np.eye(3, dtype=np.uint8), np.zeros((3, 1), dtype=np.uint8)])
    assert gf2.min_rank_over_column_subsets(with_zero, 1) == 0


def test_min_rank_node_budget_error():
    rng = np.random.default_rng(2)
    m = gf2.random_matrix(12, 28, rng)
    with pytest.MonkeyPatch.context() as mp, pytest.raises(gf2.BudgetExceededError):
        mp.setattr(gf2, "NODE_LIMIT", 3)
        gf2.min_rank_over_column_subsets(m, 14)


def test_matrix_text_roundtrip():
    rng = np.random.default_rng(9)
    for shape in [(1, 1), (3, 5), (0, 4)]:
        m = gf2.random_matrix(shape[0], shape[1], rng) if shape[0] else np.zeros(shape, np.uint8)
        text = gf2.matrix_to_text(m)
        back = gf2.matrix_from_text(text)
        assert back.shape == shape
        assert np.array_equal(back, m)
    assert gf2.matrix_to_text(np.array([[1, 0], [0, 1]], dtype=np.uint8)) == "2 2\n10\n01\n"


@pytest.mark.parametrize("text", [None, b"1 1\n1", 5, ["1 1", "1"]])
def test_matrix_text_is_a_str(text):
    message = f"matrix text must be a str, not {type(text).__name__}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        gf2.matrix_from_text(text)


def test_matrix_text_rejects_garbage():
    with pytest.raises(ValueError, match="^empty matrix text$"):
        gf2.matrix_from_text("")
    with pytest.raises(ValueError):
        gf2.matrix_from_text("2 2\n10\n")
    with pytest.raises(ValueError):
        gf2.matrix_from_text("1 3\n10x\n")
    # the header alone names a 9 TiB matrix; its one row line is rejected first
    with pytest.raises(ValueError, match="expected 10000000000000 characters"):
        gf2.matrix_from_text("1 10000000000000\n0110\n")
    with pytest.raises(ValueError, match="two nonnegative integers"):
        gf2.matrix_from_text("2 -3\n011\n110\n")


def test_nullspace_spans_kernel():
    rng = np.random.default_rng(41)
    for _ in range(100):
        k, n = rng.integers(1, 7, size=2)
        m = gf2.random_matrix(int(k), int(n), rng)
        ns = gf2.nullspace(m)
        assert ns.shape[0] == int(n) - gf2.rank(m)
        if ns.shape[0]:
            assert not ((np.asarray(m, dtype=int) @ ns.T) % 2).any()
            assert gf2.rank(ns) == ns.shape[0]


WIDTHS = st.one_of(st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 130]),
                   st.integers(0, 130))


@settings(max_examples=300)
@given(st.data())
def test_pack_unpack_round_trip(data):
    width = data.draw(WIDTHS)
    ints = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=5))
    m = gf2.unpack_rows(ints, width)
    assert m.shape == (len(ints), width) and m.dtype == np.uint8
    for v, row in zip(ints, m):
        assert [int(b) for b in row] == [(v >> j) & 1 for j in range(width)]
    assert gf2.pack_rows(m) == ints


def reference_rref(a_rows, ncols):
    """Column-scan RREF: pivots only among bits 0..ncols-1, and pivot -1 for
    leftover rows with support in the augmented bits alone."""
    rows = [r for r in a_rows if r]
    pivots, out = [], []
    for col in range(ncols):
        pick = next((i for i, r in enumerate(rows) if (r >> col) & 1), None)
        if pick is None:
            continue
        piv = rows.pop(pick)
        rows = [r ^ piv if (r >> col) & 1 else r for r in rows]
        out = [r ^ piv if (r >> col) & 1 else r for r in out]
        out.append(piv)
        pivots.append(col)
        rows = [r for r in rows if r]
    return out + rows, pivots + [-1] * len(rows)


def reference_kernel(rows, pivots, ncols):
    """One kernel row per free column of a reference_rref form, in column order."""
    piv_rows = {p: r for p, r in zip(pivots, rows) if p >= 0}
    basis = []
    for f in range(ncols):
        if f in piv_rows:
            continue
        v = 1 << f
        for p, r in piv_rows.items():
            if (r >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return basis


def reference_solve_affine(m, s, rng):
    """Particular solution plus a uniform kernel combination, from reference_rref."""
    m = np.asarray(m, dtype=np.uint8)
    n = m.shape[0]
    aug = [r | (int(b) << n) for r, b in zip(gf2.pack_rows(m.T), s)]
    rows, pivots = reference_rref(aug, n)
    x = 0
    for r, p in zip(rows, pivots):
        if (r >> n) & 1:
            if p < 0:
                raise gf2.InfeasibleSystemError("no solution")
            x |= 1 << p
    kernel = reference_kernel(rows, pivots, n)
    if kernel:
        coeffs = rng.integers(0, 2, size=len(kernel), dtype=np.uint8)
        for c, v in zip(coeffs, kernel):
            if c:
                x ^= v
    return gf2.unpack_rows([x], n)[0]


@st.composite
def systems(draw):
    """A k x n parity-check matrix (k <= 24, n <= 70) and a syndrome.

    Some rows are overwritten by the XOR of two others, so rank deficits
    are common; the syndrome is either in the image or drawn blindly,
    which makes a deficient system mostly inconsistent."""
    k = draw(st.integers(0, 24))
    n = draw(st.integers(0, 70))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k))
    if k:
        index = st.integers(0, k - 1)
        for i, j, l in draw(st.lists(st.tuples(index, index, index), max_size=k)):
            rows[i] = rows[j] ^ rows[l]
    if draw(st.booleans()):
        x = draw(st.integers(0, (1 << n) - 1))
        s = [(r & x).bit_count() & 1 for r in rows]
    else:
        s = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    return gf2.unpack_rows(rows, n), np.array(s, dtype=np.uint8)


@settings(max_examples=400)
@given(systems(), st.integers(0, 2**32))
def test_reduction_matches_column_scan_reference(system, seed):
    h, s = system
    n = h.shape[1]
    rows, pivots = reference_rref(gf2.pack_rows(h), n)
    assert gf2.rank(h) == len(rows) == gf2.rank(h.T)
    assert np.array_equal(gf2.nullspace(h),
                          gf2.unpack_rows(reference_kernel(rows, pivots, n), n))
    try:
        want = reference_solve_affine(h.T, s, np.random.default_rng(seed))
    except gf2.InfeasibleSystemError:
        with pytest.raises(gf2.InfeasibleSystemError):
            gf2.solve_affine(h.T, s, np.random.default_rng(seed))
    else:
        got = gf2.solve_affine(h.T, s, np.random.default_rng(seed))
        assert np.array_equal(got, want)
        assert np.array_equal(h.astype(int) @ got % 2, s)


def test_guards_name_the_input():
    m = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    with pytest.raises(ValueError, match="^" + re.escape(
            "matrix shape (3,) must be (*, *), of integers from 0 to 1") + "$"):
        gf2.rank(np.array([1, 0, 1], dtype=np.uint8))
    with pytest.raises(ValueError, match="^" + re.escape(
            "syndrome shape (1,) must be (3,), of integers from 0 to 1") + "$"):
        gf2.solve_affine(m, [1], np.random.default_rng(0))
    with pytest.raises(ValueError, match="^size = 4 must be <= 3$"):
        gf2.min_rank_over_column_subsets(m, 4)
