"""Tree builders: the exact optimizers and heuristic constructions.

Both exact optimizers run one interval dynamic program, ``_interval_dp``:
a tree's cost in either model is the sum, over its non-root nodes v, of
a weight of the key interval subtree(v).  For the lazy finger that
weight is the cut, the transitions with exactly one endpoint in the
interval, since a transition crosses the edge above v exactly when one
of its endpoints lies in subtree(v).  For the root finger it is the
search count.  The kernel reads the weights one interval length at a
time, in length order; the cuts stream from a pair table
(``_cut_weights``), one length following from the one before it.  The
kernel does O(n^3) work, one vectorized slab per interval length, and
keeps only G, the cheapest cost plus weight of every interval; the tree
walk recovers each interval's root from it.  All tie-breaks prefer the
smallest root per interval, which makes every optimizer deterministic.

Every value the kernel stores is at most the cost of some tree on an
interval plus its weight: 2 n (total transition count) for the lazy
finger and n (total searches) for the root finger, taken from the count
arrays themselves.  The kernel's tables are int32 when that bound is
below 2^31 and int64 otherwise.  The lazy optimizer's pair table is at
the same width, and the pair and the DP tables are checked against the
memory budget together, before either is built.

Every builder here only picks a root per key interval; the tree itself
comes from ``model.tree_from_splits``.  The weight-bisection builder
reads its roots from one kernel, ``_bisection_depths``, which also
builds every successor tree of the multitree.
"""

from __future__ import annotations

import bisect
import random
from collections.abc import Iterable, Iterator
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


def _interval_dp(n: int, weights: Iterable[np.ndarray], bound: int) -> OptResult:
    """Cheapest tree on 1..n whose cost is the sum of the weights over the
    subtrees of its non-root nodes.

    ``weights`` yields one array per interval length ln = 1..n, in that
    order; its [i] is the weight of the key interval i+1..i+ln.  With
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
    for ln, weight in zip(range(1, n + 1), weights):
        A = n - ln + 1
        G = H[ln, 1:A + 1]
        slab = np.add(H[:ln, 1:A + 1], E[A:, ln:], out=buf[:A * ln].reshape(ln, A))
        np.minimum.reduce(slab, axis=0, out=G)
        G += weight
        E[n - ln, ln:] = G
    tree = tree_from_splits(
        n, lambda a, b: a + int(np.argmin(H[:b - a + 1, a] + E[n - b + a:, b])))
    return OptResult(tree=tree, cost=int(H[n, 1] - weight[0]))


def _cut_weights(s: SearchStats, dtype: type[np.signedinteger]) -> Iterator[np.ndarray]:
    """The cut of every key interval, length by length: the ln-th
    array's [i] counts the transitions with exactly one endpoint in
    i+1..i+ln.

    Adding key k = i+ln to i+1..i+ln-1 adds D_ln[i] to its cut: k's
    transitions to keys outside the interval less those to keys inside
    it.  That is D_{ln-1}[i+1] less twice the transitions between k and
    i+1, at key distance ln-1; so from D_0 = deg, each key's transitions
    to other keys, and C_0 = 0, each length is three vector steps.
    Every value is at most 2 (total count) in magnitude, so nothing
    wraps at the lazy DP's width, the width of the pair table read here.
    """
    n = s.n
    pair = np.zeros((n + 1, n + 1), dtype=dtype)
    pair[s.a, s.b] = s.count
    np.fill_diagonal(pair, 0)   # a -> a crosses no edge
    d = pair.sum(axis=0, dtype=dtype) + pair.sum(axis=1, dtype=dtype)
    c = np.zeros(n + 1, dtype=dtype)
    for ln in range(1, n + 1):
        d = d[1:] - 2 * (np.diagonal(pair, ln - 1)[1:] + np.diagonal(pair, 1 - ln)[1:])
        c = c[:-1] + d
        yield c


def optimal_lazy_dp(s: SearchStats) -> OptResult:
    """Minimize the lazy-finger transition cost: the interval DP over cut
    weights, since a transition crosses the edge above v exactly when
    one of its endpoints lies in subtree(v).

    The cut weights stream from a pair table at the DP's width.
    """
    n = s.n
    bound = _lazy_bound(s)
    dtype = _cost_dtype(bound)
    # Held at once: the pair and the DP tables, 14 and 27 bytes a cell
    # (measured peaks 13.1-13.5 and 26.1-27.0 from n = 384 to 1024).
    check_memory(n, np.dtype(dtype).itemsize * (n + 1) ** 2
                 + _dp_bytes(n, bound), "lazy optimizer tables")
    return _interval_dp(n, _cut_weights(s, dtype), bound)


def optimal_root_dp(s: SearchStats) -> OptResult:
    """Minimize the root-finger cost sum searches(a) * depth(a): the
    interval DP over subtree search weights, since a search for a pays
    the edge above v exactly when a lies in subtree(v).  A search adds
    at most ln to G of an interval of ln keys holding its key, so n
    (total searches) bounds the DP's values."""
    w = np.cumsum(s.searches)   # slot 0 is always 0
    n = s.n
    return _interval_dp(n, (w[ln:] - w[:-ln] for ln in range(1, n + 1)), n * int(w[-1]))


def _bisection_depths(prefix: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Weight-bisection depths of many runs of items at once, one tree
    level a step: item i weighs prefix[i+1] - prefix[i] (``prefix`` does
    not decrease), run j holds items offsets[j]..offsets[j+1]-1, and each
    interval's root minimizes |left - right| weight, ties to the smaller
    item.  The arithmetic is prefix's: exact in int64, rounded in float64.

    Root r of items lo..hi-1 gives left - right = mid[r] - target, which
    does not decrease in r; the first r with mid[r] >= target lies in
    lo..hi-1, since mid[hi-1] >= target, and the one before it wins a tie.
    One global search finds it for every interval, clamped to lo where a
    weight too small to change a float prefix leaves mid flat before lo.
    """
    mid = prefix[:-1] + prefix[1:]
    depths = np.empty(mid.size, dtype=np.int64)
    lo, hi = offsets[:-1], offsets[1:]
    level = 0
    while (live := lo < hi).any():
        lo, hi = lo[live], hi[live]
        target = prefix[lo] + prefix[hi]
        r = np.maximum(np.searchsorted(mid, target), lo)
        r -= (r > lo) & (target - mid[r - 1] <= mid[r] - target)
        depths[r] = level
        lo, hi = np.concatenate((lo, r + 1)), np.concatenate((r, hi))
        level += 1
    return depths


def mehlhorn_build(w: WeightVector) -> StaticTree:
    """Weight-bisection tree: each interval's root minimizes the absolute
    difference between left and right subtree weight, ties to the
    smaller key.  Guarantees depth(j) <= 2 + 1.45 lg(W / w_j).

    The depths come from ``_bisection_depths`` over the float prefix
    sums, as one run.  A subtree's parent is the deeper of the keys just
    outside its interval (depth -1 past either end), and a preorder walk
    meets the keys of one depth in ascending order, so each interval's
    root is the next key one level below its parent.
    """
    depth = _bisection_depths(w.prefix, np.array([0, w.n]))
    at = np.split(np.argsort(depth, kind="stable") + 1, np.cumsum(np.bincount(depth))[:-1])
    level = [iter(keys.tolist()) for keys in at]
    depth = [-1, *depth.tolist(), -1]
    return tree_from_splits(
        w.n, lambda lo, hi: next(level[max(depth[lo - 1], depth[hi + 1]) + 1]))


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
