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
Search counts are monotone and meet the quadrangle inequality, so for
the root finger each slab is a band of roots bounded by Knuth and Yao's
monotone smallest optimal roots; cuts are not, and the lazy DP scores
every root.

Every value the kernel stores is at most the cost of some tree on an
interval plus its weight: 2 n (total transition count) for the lazy
finger and n (total searches) for the root finger, taken from the count
arrays themselves.  The kernel's table is int32 when that bound is
below 2^31 and int64 otherwise.  The lazy optimizer's pair table is at
the same width.  Each optimizer checks everything it holds against the
memory budget once, before building any of it.

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
from .model import SearchStats, StaticTree, check_memory, check_seed, tree_from_splits


@dataclass(frozen=True)
class OptResult:
    tree: StaticTree
    cost: int


def _cost_dtype(bound: int) -> type[np.signedinteger]:
    """Width of the DP table whose every value is at most ``bound``:
    int32 when that fits, int64 otherwise."""
    return np.int32 if bound < 2**31 else np.int64


def _lazy_bound(s: SearchStats) -> int:
    """At least every value the lazy DP stores: a transition adds at most
    ln to G of an interval of ln keys for each endpoint inside it."""
    return 2 * s.n * int(s.count.sum())


def _dp_bytes(n: int, dtype: type[np.signedinteger]) -> int:
    """Bytes ``_interval_dp`` holds at its peak: its one table and buf at
    ``dtype``, 1.25 widths a cell, and one byte a cell for the rest: 6
    bytes a cell at int32, 11 at int64.  The measured tracemalloc peaks
    at n = 512 are 5.31 and 10.57."""
    return (5 * np.dtype(dtype).itemsize // 4 + 1) * (n + 1) ** 2


STEP = 16       # lengths between two samples of the root band
CUT_ROWS = 16   # rows a block when the pair table is made symmetric


def _first_argmins(slab: np.ndarray, budget: int) -> tuple[int, int]:
    """Least and greatest over the columns of each column's first argmin.

    argmin along the rows copies the slab transposed, so it runs over
    column chunks of at most ``budget`` cells, or of one column."""
    width = max(1, budget // slab.shape[0])
    lo, hi = slab.shape[0], 0
    for j in range(0, slab.shape[1], width):
        first = slab[:, j:j + width].argmin(axis=0)
        lo, hi = min(lo, first.min()), max(hi, first.max())
    return int(lo), int(hi)


def _interval_dp(n: int, weights: Iterable[np.ndarray], dtype: type[np.signedinteger],
                 monotone: bool = False) -> OptResult:
    """Cheapest tree on 1..n whose cost is the sum of the weights over the
    subtrees of its non-root nodes.

    ``weights`` yields one array per interval length ln = 1..n, in that
    order; its [i] is the weight of the key interval i+1..i+ln.  With
    ``G = cost + weight`` and ``G(empty) = 0`` the recurrence is
    ``cost[a, b] = min_r G[a, r-1] + G[r+1, b]``.  G is kept by length,
    once by start and once by end with the lengths reversed, so the
    roots of every interval of one length form one slab of contiguous
    rows, one row per root offset, and its minimum over the rows is that
    length's row of G.  Both are views of one (n+1) x (n+3) table T,
    H[l, a] = T[l, a] and E[r, b] = T[r, b+2]: in row x, H reads only
    columns up to n+1-x and E only columns from n-x+2, so no cell is
    shared.  The tree walk scores one interval's roots again from the
    final table; argmin returns the first minimum, i.e. the smallest
    root.

    ``monotone`` says the weights grow with the interval and satisfy the
    quadrangle inequality, as search counts do; then the smallest optimal
    root R obeys R(a, b-1) <= R(a, b) <= R(a+1, b) (Knuth; Yao), and the
    slab holds only a band of root offsets.  Every STEP lengths the band's
    first argmins give lo and hi at length ``at``; chaining the inequality
    ln - at times puts the smallest optimal root offset of every interval
    of a later length ln within lo..min(hi + ln - at, ln - 1).  The first
    minimum over the band is then that root, so every G value, and so the
    walk's tree, is the full slab's.  The cut weights are not monotone,
    and the lazy DP scores every root.

    ``dtype`` holds every G value and every sum of two, and the caller
    has checked ``_dp_bytes`` at it against the memory budget.  argmin
    sees the same integers at either width, so the tree does not depend
    on it.
    """
    T = np.zeros((n + 1, n + 3), dtype=dtype)
    H = T[:, :n + 1]                              # H[len, a] = G[a, a+len-1]
    E = T[:, 2:]                                  # E[n-len, b] = G[b-len+1, b]
    buf = np.empty((n + 1) ** 2 // 4, dtype=dtype)
    lo = hi = at = 0                              # the full slab until a sample
    for ln, weight in zip(range(1, n + 1), weights):
        A = n - ln + 1
        k0, k1 = lo, min(hi + ln - at, ln - 1) + 1
        G = H[ln, 1:A + 1]
        slab = np.add(H[k0:k1, 1:A + 1], E[A + k0:A + k1, ln:],
                      out=buf[:A * (k1 - k0)].reshape(k1 - k0, A))
        np.minimum.reduce(slab, axis=0, out=G)
        if monotone and ln % STEP == 0 and ln < n:
            # a 64th of the table's cells past n = 511: within _dp_bytes
            lo, hi = _first_argmins(slab, max(4096, buf.size // 16))
            lo, hi, at = lo + k0, hi + k0, ln
        G += weight
        E[n - ln, ln:] = G
    tree = tree_from_splits(
        n, lambda a, b: a + int((H[:b - a + 1, a] + E[n - b + a:, b]).argmin()))
    return OptResult(tree=tree, cost=int(H[n, 1] - weight[0]))


def _cut_weights(s: SearchStats, dtype: type[np.signedinteger]) -> Iterator[np.ndarray]:
    """The cut of every key interval, length by length: the ln-th
    array's [i] counts the transitions with exactly one endpoint in
    i+1..i+ln.

    Adding key k = i+ln to i+1..i+ln-1 adds D_ln[i] to its cut: k's
    transitions to keys outside the interval less those to keys inside
    it.  That is D_{ln-1}[i+1] less twice the transitions between k and
    i+1, at key distance ln-1, in either direction.  So once the pair
    table's upper triangle holds 2 (P + P^T), from D_0 = deg, each key's
    transitions to other keys, and C_0 = 0, each length is two vector
    steps.  The triangle is summed in place in blocks of CUT_ROWS rows,
    whose transposed right-hand side is the only temporary.  Every value
    is at most 2 (total count) in magnitude, so nothing wraps at the lazy
    DP's width, the width of the pair table read here.
    """
    n = s.n
    pair = np.zeros((n + 1, n + 1), dtype=dtype)
    pair[s.a, s.b] = s.count
    np.fill_diagonal(pair, 0)   # a -> a crosses no edge
    d = pair.sum(axis=0, dtype=dtype) + pair.sum(axis=1, dtype=dtype)
    for i in range(0, n + 1, CUT_ROWS):
        k = i + CUT_ROWS
        np.add(pair[i:k, i:], pair[i:, i:k].T, out=pair[i:k, i:])
    pair *= 2
    c = np.zeros(n + 1, dtype=dtype)
    for ln in range(1, n + 1):
        d = d[1:] - np.diagonal(pair, ln - 1)[1:]
        c = c[:-1] + d
        yield c


def optimal_lazy_dp(s: SearchStats) -> OptResult:
    """Minimize the lazy-finger transition cost: the interval DP over cut
    weights, since a transition crosses the edge above v exactly when
    one of its endpoints lies in subtree(v).

    The cut weights stream from a pair table at the DP's width.
    """
    dtype = _cost_dtype(_lazy_bound(s))
    # Held at once: the pair and the DP table, 10 and 19 bytes a cell
    # (measured peaks 9.40 and 18.78 at n = 512).
    check_memory(s.n, np.dtype(dtype).itemsize * (s.n + 1) ** 2 + _dp_bytes(s.n, dtype),
                 "lazy optimizer tables")
    return _interval_dp(s.n, _cut_weights(s, dtype), dtype)


def optimal_root_dp(s: SearchStats) -> OptResult:
    """Minimize the root-finger cost sum searches(a) * depth(a): the
    interval DP over subtree search weights, since a search for a pays
    the edge above v exactly when a lies in subtree(v).  A search adds
    at most ln to G of an interval of ln keys holding its key, so n
    (total searches) bounds the DP's values."""
    n = s.n
    dtype = _cost_dtype(n * int(s.searches.sum()))
    check_memory(n, _dp_bytes(n, dtype), "interval DP tables")
    w = np.cumsum(s.searches)   # slot 0 is always 0
    return _interval_dp(n, (w[ln:] - w[:-ln] for ln in range(1, n + 1)), dtype,
                        monotone=True)


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
    mapped onto the weight prefix sums.  A negative seed is refused.
    """
    check_seed(seed)
    rng = random.Random(seed)
    prefix = w.prefix.tolist()

    def draw(lo: int, hi: int) -> int:
        u = prefix[lo - 1] + rng.random() * (prefix[hi] - prefix[lo - 1])
        # float edge: u can land at or past the last prefix
        return min(bisect.bisect_right(prefix, u, lo, hi + 1), hi)

    return tree_from_splits(w.n, draw)
