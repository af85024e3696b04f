"""Tree builders: the exact optimizers and heuristic constructions.

Both exact optimizers run one interval dynamic program, ``_interval_dp``:
a tree's cost in either model is the sum, over its non-root nodes v, of
a weight of the key interval subtree(v).  For the lazy finger that
weight is ``cut_table``, the transitions with exactly one endpoint in
the interval, since a transition crosses the edge above v exactly when
one of its endpoints lies in subtree(v); it is built from the count
table's triples in one table.  For the root finger the weight is the
search count.  The kernel does O(n^3) work, one vectorized slab per
interval length, and keeps only G, the cheapest cost plus weight of
every interval; the tree walk recovers each interval's root from it.
All tie-breaks prefer the smallest root per interval, which makes every
optimizer deterministic.

Every value the kernel stores is at most the cost of some tree on an
interval plus its weight: 2 n (total transition count) for the lazy
finger and n (total searches) for the root finger, taken from the count
arrays themselves.  The kernel's tables are int32 when that bound is
below 2^31 and int64 otherwise.  The lazy optimizer's cut table is built
at the same width, and the cut and the DP tables are checked against the
memory budget together, before either is built.

Every builder here only picks a root per key interval; the tree itself
comes from ``model.tree_from_splits``.
"""

from __future__ import annotations

import bisect
import random
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .entropy import WeightVector
from .model import SearchStats, StaticTree, check_memory, tree_from_splits


@dataclass(frozen=True)
class OptResult:
    tree: StaticTree
    cost: int


def _cost_dtype(bound: int) -> type[np.signedinteger]:
    """Width of the DP tables whose every value is at most ``bound``:
    int32 when that fits, int64 otherwise."""
    return np.int32 if bound < 2**31 else np.int64


def _lazy_bound(s: SearchStats) -> int:
    """At least every value the lazy DP stores: a transition adds at most
    ln to G of an interval of ln keys for each endpoint inside it."""
    return 2 * s.n * int(s.count.sum())


def _dp_bytes(n: int, bound: int) -> int:
    """Bytes ``_interval_dp`` holds at its peak: H, E and buf at the cost
    width, 2.25 widths a cell, and one byte a cell for the rest: 10 bytes
    a cell at int32, 19 at int64.  The measured tracemalloc peaks are
    9.1-9.5 and 18.1-18.9 from n = 384 to 1024."""
    return (9 * np.dtype(_cost_dtype(bound)).itemsize // 4 + 1) * (n + 1) ** 2


def _interval_dp(n: int, weight: Callable[[int], np.ndarray], bound: int) -> OptResult:
    """Cheapest tree on 1..n whose cost is the sum of ``weight`` over the
    subtrees of its non-root nodes.

    ``weight(ln)[i]`` is the weight of the key interval i+1..i+ln.  With
    ``G = cost + weight`` and ``G(empty) = 0`` the recurrence is
    ``cost[a, b] = min_r G[a, r-1] + G[r+1, b]``.  G is kept by length,
    once by start and once by end with the lengths reversed, so the
    roots of every interval of one length form one slab of contiguous
    rows, one row per root offset, and its minimum over the rows is that
    length's row of G.  The tree walk scores one interval's roots again
    from the final tables; argmin returns the first minimum, i.e. the
    smallest root.

    ``bound`` is at least every G value and every sum of two: the tables
    are int32 when it is below 2^31 and int64 otherwise.  argmin sees the
    same integers at either width, so the tree does not depend on it.
    """
    check_memory(n, _dp_bytes(n, bound), "interval DP tables")
    dtype = _cost_dtype(bound)
    H = np.zeros((n + 1, n + 1), dtype=dtype)     # H[len, a] = G[a, a+len-1]
    E = np.zeros((n + 1, n + 1), dtype=dtype)     # E[n-len, b] = G[b-len+1, b]
    buf = np.empty((n + 1) ** 2 // 4, dtype=dtype)
    for ln in range(1, n + 1):
        A = n - ln + 1
        G = H[ln, 1:A + 1]
        slab = np.add(H[:ln, 1:A + 1], E[A:, ln:], out=buf[:A * ln].reshape(ln, A))
        np.minimum.reduce(slab, axis=0, out=G)
        G += weight(ln)
        E[n - ln, ln:] = G
    tree = tree_from_splits(
        n, lambda a, b: a + int(np.argmin(H[:b - a + 1, a] + E[n - b + a:, b])))
    return OptResult(tree=tree, cost=int(H[n, 1] - weight(n)[0]))


def cut_table(s: SearchStats) -> np.ndarray:
    """``cut[i, j]`` (0 <= i <= j <= n): transitions with exactly one
    endpoint in the key interval i+1..j; entries with i > j are junk.

    With P the 2D prefix sums of the count table and ``g = pair +
    pair^T``, g's prefix sums are ``P + P^T`` and the cut is the row
    total of g over the interval minus g summed over the square
    interval x interval.  All of it is built in one table, in place, at
    the lazy DP's width.  Array integer arithmetic wraps modulo 2^width
    and every cut is at most the total count, within the width, so the
    cuts are exact even where the steps that make them wrap.
    """
    n = s.n
    dtype = _cost_dtype(_lazy_bound(s))
    # the table itself; measured peaks 4.0-4.3 bytes a cell at int32 and
    # 8.0-8.5 at int64, from n = 384 up
    check_memory(n, (np.dtype(dtype).itemsize + 1) * (n + 1) ** 2, "cut table")
    cut = np.zeros((n + 1, n + 1), dtype=dtype)
    cut[s.a, s.b] = s.count
    np.cumsum(cut, axis=0, dtype=dtype, out=cut)
    np.cumsum(cut, axis=1, dtype=dtype, out=cut)
    rows = cut[:, n] + cut[n, :]   # rows[i] = sum of g over rows 1..i
    for i in range(n + 1):         # upper triangle of P + P^T
        cut[i, i:] += cut[i:, i]
    d = np.diagonal(cut).copy()    # d[i] = sum of g over (1..i) x (1..i)
    cut *= 2
    cut += rows - d
    cut -= (rows + d)[:, None]
    return cut


def optimal_lazy_dp(s: SearchStats) -> OptResult:
    """Minimize the lazy-finger transition cost: the interval DP over cut
    weights, since a transition crosses the edge above v exactly when
    one of its endpoints lies in subtree(v).

    The cut table is built at the DP's width, from the same bound.
    """
    n = s.n
    bound = _lazy_bound(s)
    # Held at once: the cut and the DP tables, 14 and 27 bytes a cell
    # (measured peaks 13.1-13.5 and 26.1-26.9 from n = 384 to 1024).
    check_memory(n, np.dtype(_cost_dtype(bound)).itemsize * (n + 1) ** 2
                 + _dp_bytes(n, bound), "lazy optimizer tables")
    cut = cut_table(s)
    return _interval_dp(n, lambda ln: np.diagonal(cut, ln), bound)


def optimal_root_dp(s: SearchStats) -> OptResult:
    """Minimize the root-finger cost sum searches(a) * depth(a): the
    interval DP over subtree search weights, since a search for a pays
    the edge above v exactly when a lies in subtree(v).  A search adds
    at most ln to G of an interval of ln keys holding its key, so n
    (total searches) bounds the DP's values."""
    w = np.cumsum(s.searches)   # slot 0 is always 0
    return _interval_dp(s.n, lambda ln: w[ln:] - w[:-ln], s.n * int(w[-1]))


def mehlhorn_build(w: WeightVector) -> StaticTree:
    """Weight-bisection tree: each interval's root minimizes the absolute
    difference between left and right subtree weight, ties to the
    smaller key.  Guarantees depth(j) <= 2 + 1.45 lg(W / w_j)."""
    prefix = w.prefix.tolist()
    # g(r) = left weight - right weight = mid[r-1] - (prefix[lo-1] +
    # prefix[hi]) is increasing in r; |g| is least at its sign change.
    mid = (w.prefix[:-1] + w.prefix[1:]).tolist()

    def pick(lo: int, hi: int) -> int:
        target = prefix[lo - 1] + prefix[hi]
        r = bisect.bisect_left(mid, target, lo - 1, hi) + 1  # first g(r) >= 0
        # r <= hi: prefix is non-decreasing, so mid[hi-1] >= target.
        if r > lo and target - mid[r - 2] <= mid[r - 1] - target:
            return r - 1
        return r

    return tree_from_splits(w.n, pick)


def treap_build(w: WeightVector, seed: int) -> StaticTree:
    """Random tree where each interval's root is drawn with probability
    proportional to its weight.

    Deterministic given (weights, seed): a single random.Random(seed)
    (Mersenne Twister) generator, intervals processed in preorder (node,
    then left subinterval, then right), one uniform draw per interval
    mapped onto the weight prefix sums.
    """
    rng = random.Random(seed)
    prefix = w.prefix.tolist()

    def draw(lo: int, hi: int) -> int:
        u = prefix[lo - 1] + rng.random() * (prefix[hi] - prefix[lo - 1])
        # float edge: u can land at or past the last prefix
        return min(bisect.bisect_right(prefix, u, lo, hi + 1), hi)

    return tree_from_splits(w.n, draw)
