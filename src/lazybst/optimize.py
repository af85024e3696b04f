"""Tree builders: the exact optimizers and heuristic constructions.

Both exact optimizers run one interval dynamic program, ``_interval_dp``:
a tree's cost in either model is the sum, over its non-root nodes v, of
a weight of the key interval subtree(v).  For the lazy finger that
weight is ``cut_table``, the transitions with exactly one endpoint in
the interval, since a transition crosses the edge above v exactly when
one of its endpoints lies in subtree(v); it is the one reader of the
count table's dense view, ``SearchStats.pair``.  For the root finger the
weight is the search count.  The kernel does O(n^3) work on vectorized diagonals.
For the root model that trades the O(n^2) monotone-root-window scan for
one code path: on a 2-vCPU machine it was faster up to n=1024 (0.52 s
against 0.69 s) and about 10% slower at n=2048 (5.4 s against 5.0 s).
All tie-breaks prefer the smallest root per interval, which makes every
optimizer deterministic.

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


def _interval_dp(n: int, weight: Callable[[int], np.ndarray]) -> OptResult:
    """Cheapest tree on 1..n whose cost is the sum of ``weight`` over the
    subtrees of its non-root nodes.

    ``weight(ln)[i]`` is the weight of the key interval i+1..i+ln.  With
    ``G = cost + weight`` and ``G(empty) = 0`` the recurrence is
    ``cost[a, b] = min_r G[a, r-1] + G[r+1, b]``.  G is kept twice, by
    start and by end, with the end layout's lengths reversed, so the
    roots of every interval of one length are scored by one sum of two
    forward slices; argmin returns the first minimum, i.e. the smallest
    root.
    """
    # H, E, root and buf: 8 + 8 + 4 + 2 bytes per cell
    check_memory(n, 22 * (n + 1) ** 2, "interval DP tables")
    H = np.zeros((n + 2, n + 1), dtype=np.int64)     # H[a, len] = G[a, a+len-1]
    E = np.zeros((n + 1, n + 1), dtype=np.int64)     # E[b, n-len] = G[b-len+1, b]
    root = np.zeros((n + 2, n + 1), dtype=np.int32)  # root[a, len] - a
    buf = np.empty((n + 1) ** 2 // 4, dtype=np.int64)
    for ln in range(1, n + 1):
        A = n - ln + 1
        total = np.add(H[1:A + 1, :ln], E[ln:n + 1, A:], out=buf[:A * ln].reshape(A, ln))
        k = total.argmin(axis=1)
        cost = total[np.arange(A), k]
        root[1:A + 1, ln] = k
        G = cost + weight(ln)
        H[1:A + 1, ln] = G
        E[ln:n + 1, n - ln] = G
    tree = tree_from_splits(n, lambda a, b: a + int(root[a, b - a + 1]))
    return OptResult(tree=tree, cost=int(cost[0]))


def cut_table(s: SearchStats) -> np.ndarray:
    """``cut[i, j]`` (0 <= i <= j <= n): transitions with exactly one
    endpoint in the key interval i+1..j; entries with i > j are junk.

    With ``g = pair + pair^T`` and P its 2D prefix sums, the cut is the
    row total of g over the interval minus g summed over the square
    interval x interval.
    """
    n = s.n
    # at most five (n+1)^2 int64 tables alive at once
    check_memory(n, 40 * (n + 1) ** 2, "cut table")
    g = s.pair[1:, 1:] + s.pair[1:, 1:].T
    P = np.zeros((n + 1, n + 1), dtype=np.int64)
    P[1:, 1:] = g.cumsum(axis=0).cumsum(axis=1)
    rows = P[:, n]                 # rows[i] = sum of g over rows 1..i
    d = np.diagonal(P)             # d[i] = sum of g over (1..i) x (1..i)
    return rows[None, :] - rows[:, None] - (d[None, :] + d[:, None] - 2 * P)


def optimal_lazy_dp(s: SearchStats) -> OptResult:
    """Minimize the lazy-finger transition cost: the interval DP over cut
    weights, since a transition crosses the edge above v exactly when
    one of its endpoints lies in subtree(v)."""
    cut = cut_table(s)
    return _interval_dp(s.n, lambda ln: np.diagonal(cut, ln))


def optimal_root_dp(s: SearchStats) -> OptResult:
    """Minimize the root-finger cost sum searches(a) * depth(a): the
    interval DP over subtree search weights, since a search for a pays
    the edge above v exactly when a lies in subtree(v)."""
    w = np.concatenate(([0], np.cumsum(s.searches[1:], dtype=np.int64)))
    return _interval_dp(s.n, lambda ln: w[ln:] - w[:-ln])


def mehlhorn_build(w: WeightVector) -> StaticTree:
    """Weight-bisection tree: each interval's root minimizes the absolute
    difference between left and right subtree weight, ties to the
    smaller key.  Guarantees depth(j) <= 2 + 1.45 lg(W / w_j)."""
    prefix = w.prefix

    def pick(lo: int, hi: int) -> int:
        # g(r) = left weight - right weight is strictly increasing in r;
        # the minimizer of |g| is at the sign change.
        target = prefix[lo - 1] + prefix[hi]
        a, b = lo, hi
        while a < b:  # smallest r with prefix[r-1] + prefix[r] >= target
            mid = (a + b) // 2
            if prefix[mid - 1] + prefix[mid] >= target:
                b = mid
            else:
                a = mid + 1
        r = a
        if prefix[r - 1] + prefix[r] < target:
            return r  # every split leans left; r == hi
        if r > lo:
            g_r = (prefix[r - 1] + prefix[r]) - target
            g_prev = target - (prefix[r - 2] + prefix[r - 1])
            if g_prev <= g_r:
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
