"""Shared helpers for the test suite: random instances, fixed count
files, count tables from dense pair tables, independent oracles (tree
distances, tree reading and validation, the lazy DP's whole cut table,
brute-force and exhaustive optimizers, the exact and the per-interval
float weight bisections, the per-search multitree walk, the per-step
markov walk), the Eulerian stitcher that turns a count table back into
a sequence, the per-line sequence and count writers that the numpy text
kernel replaced, and the seeded fuzz of the readers and of the command
line."""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import itertools
import math
import random
import traceback
from collections import deque
from pathlib import Path

import numpy as np

from lazybst import (GeneratorSpec, InvalidInputError, MultiTree, NO_NODE, OptResult,
                     SearchSequence, SearchStats, StaticTree, SuccessorTree, UsageError,
                     WeightVector, build_tree, cost_from_frequencies,
                     frequencies_from_sequence, mehlhorn_build)
from lazybst.cli import build_parser, main
from lazybst.fileio import (write_freq, write_matrix, write_sequence, write_tree,
                            write_weights)
from lazybst.model import check_memory, tree_from_splits
from lazybst.optimize import _cost_dtype, _lazy_bound
from lazybst.seqgen import _default_matrix

# Count files whose totals wrap in int64 (they pass every identity there),
# and a valid one whose lazy cost needs more than 64 bits.
WRAPPING_FREQ = ("3 1 3 3\n9223372036854775807 9223372036854775807 3\n"
                 "1 2 9223372036854775807\n2 1 9223372036854775807\n3 3 2\n")
HUGE_FREQ = ("8 4611686018427387905 1 1\n"
             "2305843009213693953 0 0 0 0 0 0 2305843009213693952\n"
             "1 8 2305843009213693952\n8 1 2305843009213693952\n")


def random_tree(rng: random.Random, n: int) -> StaticTree:
    """Uniform random root per interval; covers paths through balanced shapes."""
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    top = 0
    stack = [(1, n, 0, False)]
    while stack:
        lo, hi, parent, as_left = stack.pop()
        r = rng.randint(lo, hi)
        if parent == 0:
            top = r
        elif as_left:
            left[parent] = r
        else:
            right[parent] = r
        if lo < r:
            stack.append((lo, r - 1, r, True))
        if r < hi:
            stack.append((r + 1, hi, r, False))
    return build_tree(n, top, left, right)


def path_tree(n: int, ascending: bool = True) -> StaticTree:
    """A single chain: root 1 with right spine (ascending) or root n with
    left spine."""
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    if ascending:
        for k in range(1, n):
            right[k] = k + 1
        return build_tree(n, 1, left, right)
    for k in range(2, n + 1):
        left[k] = k - 1
    return build_tree(n, n, left, right)


def vee_tree(n: int) -> StaticTree:
    """Root in the middle, two full-length chains hanging off it; its
    equal-depth leaf pairs give the weight inequality its thinnest margins."""
    mid = (n + 1) // 2
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    for k in range(2, mid + 1):
        left[k] = k - 1
    for k in range(mid, n):
        right[k] = k + 1
    return build_tree(n, mid, left, right)


def caterpillar_tree(n: int) -> StaticTree:
    """Descending spine of every other key, each spine node carrying its
    successor as a pendant leaf."""
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    spine = list(range(n, 0, -2))
    for up, down in zip(spine, spine[1:]):
        left[up] = down
    for k in spine:
        if k + 1 <= n:
            right[k] = k + 1
    if spine[-1] == 2:
        left[2] = 1
    return build_tree(n, n, left, right)


def random_sequence(rng: random.Random, n: int, m: int) -> SearchSequence:
    return SearchSequence(n, [rng.randint(1, n) for _ in range(m)])


def markov_walk_oracle(spec: GeneratorSpec, rng: np.random.Generator) -> list[int]:
    """The markov kind of ``generate`` as a step-by-step loop over each
    key's full cumulative row, a u past the row's sum clamped to key n:
    the reference for the walk over sentinel rows.  Draws from rng in
    the order ``generate`` does."""
    n = spec.n
    matrix = spec.matrix
    if matrix is None:
        matrix = _default_matrix(rng, n, 0.2 if spec.concentration is None
                                 else spec.concentration)
    cum = np.asarray(matrix, dtype=np.float64).cumsum(axis=1).tolist()
    cur = int(rng.integers(1, n + 1))
    items = [cur]
    for u in rng.random(spec.m - 1).tolist():
        cur = min(bisect.bisect_right(cum[cur - 1], u) + 1, n)
        items.append(cur)
    return items


def stats_from_pair_counts(n: int, pair, first: int = 0, last: int = 0) -> SearchStats:
    """Stats record for a dense (n+1) x (n+1) transition-count table,
    ``pair[a, b]`` counting a -> b; row and column 0 are ignored.

    m is inferred as total + 1 and search counts are derived from
    in-transitions (plus the first key); those are exact only when the
    table really came from a sequence starting at ``first``.  Meant for
    experiments on synthetic tables, which need not be realizable by any
    single sequence.
    """
    pair = np.array(pair, dtype=np.int64)
    if pair.shape != (n + 1, n + 1):
        raise InvalidInputError("pair table must be (n+1) x (n+1)")
    if pair.min() < 0:
        raise InvalidInputError("negative transition count")
    pair[0, :] = pair[:, 0] = 0
    a, b = np.nonzero(pair)
    total = int(pair.sum())
    m = total + 1 if (total > 0 or first) else 0
    searches = pair.sum(axis=0)
    if first:
        searches[first] += 1
    return SearchStats(n=n, m=m, a=a, b=b, count=pair[a, b], searches=searches,
                       first=first, last=last)


def random_pair_stats(rng: random.Random, n: int, max_count: int = 9) -> SearchStats:
    """Raw random count table; need not be realizable by one sequence."""
    pair = np.zeros((n + 1, n + 1), dtype=np.int64)
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if rng.random() < 0.6:
                pair[a, b] = rng.randint(0, max_count)
    return stats_from_pair_counts(n, pair)


def write_sequence_oracle(x: SearchSequence) -> str:
    """``fileio.write_sequence`` by str() of each key."""
    # Items become text 4096 at a time, so no list of every item's int or
    # str is held.  With no more keys than items each key's text is made
    # once and looked up: the table never outgrows the sequence.
    text = [str(k) for k in range(x.n + 1)].__getitem__ if x.n <= x.m else str
    body = " ".join(" ".join(map(text, x.items[i:i + 4096].tolist()))
                    for i in range(0, x.m, 4096))
    return f"{x.n} {x.m}\n{body}\n" if x.m else f"{x.n} {x.m}\n"


def write_freq_oracle(s: SearchStats) -> str:
    """``fileio.write_freq`` by one f-string a line."""
    lines = [f"{s.n} {s.m} {s.first} {s.last}", " ".join(map(str, s.searches[1:].tolist()))]
    lines += [f"{a} {b} {c}" for a, b, c in zip(s.a.tolist(), s.b.tolist(), s.count.tolist())]
    return "\n".join(lines) + "\n"


def subtree_intervals(t: StaticTree) -> list[tuple[int, int, int]] | None:
    """``(v, lo, hi)`` for every node v reached from the root, where
    lo..hi is the key interval subtree(v) must cover in a BST; None as
    soon as a key leaves its interval.

    Sibling intervals are disjoint and a child's interval excludes its
    parent, so no key is visited twice and the walk ends on any child
    table, cyclic or shared ones included.
    """
    nodes = []
    stack = [(t.root, 1, t.n)]
    while stack:
        v, lo, hi = stack.pop()
        if not (lo <= v <= hi):
            return None
        nodes.append((v, lo, hi))
        if t.right[v] != NO_NODE:
            stack.append((t.right[v], v + 1, hi))
        if t.left[v] != NO_NODE:
            stack.append((t.left[v], lo, v - 1))
    return nodes


def parents(t: StaticTree) -> list[int]:
    """Parent key of every key (0 for the root), read from the child
    tables of a valid tree.  A tree carries no parent table, so the
    ancestor-walk oracles derive one the first time they see a tree and
    keep it on the tree for the later steps."""
    table = vars(t).get("_parents")
    if table is None:
        table = [NO_NODE] * (t.n + 1)
        for k in range(1, t.n + 1):
            for c in (t.left[k], t.right[k]):
                if c != NO_NODE:
                    table[c] = k
        object.__setattr__(t, "_parents", table)
    return table


def walk_step_oracle(t: StaticTree, i: int, j: int) -> int:
    """Path length by ancestor sets; shares only the parent table with
    step_cost/lca."""
    parent = parents(t)
    up_i = {}
    v, d = i, 0
    while True:
        up_i[v] = d
        if v == t.root:
            break
        v = parent[v]
        d += 1
    v, d = j, 0
    while v not in up_i:
        v = parent[v]
        d += 1
    return d + up_i[v]


def closed_form_lazy_total(t: StaticTree, x: SearchSequence) -> int:
    """2 * sum(depth(x_i) - depth(LCA(x_i, x_{i-1}))) - depth(x_m), with
    x_0 = root.  Uses its own LCA-by-ancestor-sets, not the library's."""
    if x.m == 0:
        return 0
    parent = parents(t)
    items = x.items.tolist()
    total = 0
    prev = t.root
    for tgt in items:
        anc = set()
        v = prev
        while True:
            anc.add(v)
            if v == t.root:
                break
            v = parent[v]
        v = tgt
        while v not in anc:
            v = parent[v]
        total += t.depth[tgt] - t.depth[v]
        prev = tgt
    return 2 * total - t.depth[items[-1]]


def stitch_sequence(s: SearchStats) -> SearchSequence:
    """Rebuild some sequence with exactly the pair counts of s (Hierholzer
    walk over the transition multigraph, starting at s.first)."""
    assert s.m >= 1
    succ: dict[int, deque[int]] = {}
    for a, b, c in zip(s.a.tolist(), s.b.tolist(), s.count.tolist()):
        succ.setdefault(a, deque()).extend([b] * c)
    stack = [s.first]
    out: list[int] = []
    while stack:
        v = stack[-1]
        q = succ.get(v)
        if q:
            stack.append(q.popleft())
        else:
            out.append(stack.pop())
    out.reverse()
    seq = SearchSequence(s.n, out)
    assert np.array_equal(frequencies_from_sequence(seq).pair, s.pair)
    return seq


def exact_weight_inequality_holds(t: StaticTree, dist: np.ndarray) -> bool:
    """Check step_cost(i,j) <= lg(range-sum / min endpoint weight) for all
    pairs with exact integers: weights scaled by 4^maxdepth."""
    n = t.n
    big = max(t.depth[1:])
    scaled = [0] * (n + 1)
    pre = [0] * (n + 1)
    for k in range(1, n + 1):
        scaled[k] = 1 << (2 * (big - t.depth[k]))
        pre[k] = pre[k - 1] + scaled[k]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            lo, hi = (i, j) if i <= j else (j, i)
            rng_sum = pre[hi] - pre[lo - 1]
            minw = min(scaled[i], scaled[j])
            if minw << int(dist[i, j]) > rng_sum:
                return False
    return True


def validate_tree_inorder(t: StaticTree) -> bool:
    """Reference for validate_tree by an in-order walk: a well-formed BST
    over 1..n visits exactly 1, 2, ..., n."""
    n = t.n
    if n < 1 or not (1 <= t.root <= n):
        return False
    for tab in (t.left, t.right, t.depth):
        if len(tab) != n + 1:
            return False
    if any(not (0 <= t.left[k] <= n) or not (0 <= t.right[k] <= n)
           for k in range(1, n + 1)):
        return False
    # Bail out if a key shows up twice or more than n nodes do (cycle).
    seen = [False] * (n + 1)
    order = []
    stack = []
    v = t.root
    while (v != NO_NODE or stack) and len(order) <= n:
        while v != NO_NODE:
            if seen[v]:
                return False
            seen[v] = True
            stack.append(v)
            v = t.left[v]
        v = stack.pop()
        order.append(v)
        v = t.right[v]
    if order != list(range(1, n + 1)):
        return False
    if t.depth[t.root] != 0:
        return False
    for k in range(1, n + 1):
        for c in (t.left[k], t.right[k]):
            if c != NO_NODE and t.depth[c] != t.depth[k] + 1:
                return False
    return True


def build_tree_dfs(n: int, root: int, left, right) -> tuple[int, ...]:
    """Reference for build_tree's depths and refusals: a depth-first walk
    that checks every child's range, marks each key reached and counts
    them, raising build_tree's ValueError texts."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (1 <= root <= n):
        raise ValueError("root out of range")
    if len(left) != n + 1 or len(right) != n + 1:
        raise ValueError("child tables must have length n + 1")
    depth = [0] * (n + 1)
    seen = [False] * (n + 1)
    seen[root] = True
    stack = [root]
    count = 1
    while stack:
        v = stack.pop()
        for c in (left[v], right[v]):
            if c == NO_NODE:
                continue
            if not (1 <= c <= n):
                raise ValueError(f"child key {c} out of range")
            if seen[c]:
                raise ValueError(f"key {c} reached twice")
            seen[c] = True
            depth[c] = depth[v] + 1
            count += 1
            stack.append(c)
    if count != n:
        raise ValueError("tree does not reach every key")
    return tuple(depth)


def lg(v: float) -> float:
    return math.log2(v)


def _check_key(t: StaticTree, k: int) -> None:
    if not (1 <= k <= t.n):
        raise InvalidInputError(f"key {k} out of range 1..{t.n}")


def lca(t: StaticTree, i: int, j: int) -> int:
    """Lowest common ancestor of keys i and j."""
    _check_key(t, i)
    _check_key(t, j)
    parent = parents(t)
    while t.depth[i] > t.depth[j]:
        i = parent[i]
    while t.depth[j] > t.depth[i]:
        j = parent[j]
    while i != j:
        i = parent[i]
        j = parent[j]
    return i


def step_cost(t: StaticTree, i: int, j: int) -> int:
    """Edges on the tree path between i and j."""
    a = lca(t, i, j)
    return t.depth[i] + t.depth[j] - 2 * t.depth[a]


def distance_matrix(t: StaticTree) -> np.ndarray:
    """(n+1) x (n+1) int64 matrix of pairwise path lengths (row/col 0 unused)."""
    n = t.n
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for k in range(1, n + 1):
        for c in (t.left[k], t.right[k]):
            if c != NO_NODE:
                adj[k].append(c)
                adj[c].append(k)
    dist = np.zeros((n + 1, n + 1), dtype=np.int64)
    for src in range(1, n + 1):
        row = dist[src]
        seen = [False] * (n + 1)
        seen[src] = True
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        row[w] = d
                        nxt.append(w)
            frontier = nxt
    return dist


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


def optimal_lazy_naive(s: SearchStats) -> OptResult:
    """Reference lazy-finger optimizer with all sums evaluated literally.

    For interval [a, b] and candidate root r, the root's child edges are
    crossed by: transitions between the two sides (twice each),
    transitions between r and the rest of the interval (once each), and
    transitions between the interval minus r and the outside world (once
    each).  O(n^5); use optimal_lazy_dp for anything but tiny n.
    """
    n = s.n
    f = [[int(v) for v in row] for row in s.pair.tolist()]
    cost = [[0] * (n + 1) for _ in range(n + 2)]
    root = [[0] * (n + 1) for _ in range(n + 1)]
    for ln in range(1, n + 1):
        for a in range(1, n - ln + 2):
            b = a + ln - 1
            best = None
            best_r = 0
            for r in range(a, b + 1):
                sub = cost[a][r - 1] + cost[r + 1][b]
                both = 0
                for i in range(a, r):
                    for j in range(r + 1, b + 1):
                        both += f[i][j] + f[j][i]
                to_root = 0
                for i in range(a, b + 1):
                    if i != r:
                        to_root += f[i][r] + f[r][i]
                outside = 0
                for i in range(a, b + 1):
                    if i == r:
                        continue
                    for j in range(1, a):
                        outside += f[i][j] + f[j][i]
                    for j in range(b + 1, n + 1):
                        outside += f[i][j] + f[j][i]
                total = sub + 2 * both + to_root + outside
                if best is None or total < best:
                    best = total
                    best_r = r
            cost[a][b] = best
            root[a][b] = best_r
    tree = tree_from_splits(n, lambda a, b: root[a][b])
    return OptResult(tree=tree, cost=cost[1][n])


def root_table_naive(s: SearchStats) -> tuple[np.ndarray, np.ndarray]:
    """The classic root-finger interval recurrence scanning every root:
    ``cost[a, b]`` of the cheapest tree on a..b and ``root[a, b]``, its
    smallest optimal root."""
    n = s.n
    w = [0] * (n + 1)
    for k in range(1, n + 1):
        w[k] = w[k - 1] + int(s.searches[k])
    cost = np.zeros((n + 2, n + 1), dtype=np.int64)
    root = np.zeros((n + 1, n + 1), dtype=np.int32)
    s_arr = np.asarray(s.searches, dtype=np.int64)
    for ln in range(1, n + 1):
        for a in range(1, n - ln + 2):
            b = a + ln - 1
            r = np.arange(a, b + 1)
            total = cost[a, a - 1:b] + cost[a + 1:b + 2, b] \
                + (w[b] - w[a - 1]) - s_arr[r]
            k = int(np.argmin(total))
            cost[a, b] = total[k]
            root[a, b] = a + k
    return cost, root


def optimal_root_naive(s: SearchStats) -> OptResult:
    """Reference root-finger optimizer: the classic interval recurrence
    scanning every root, ties to the smallest root."""
    cost, root = root_table_naive(s)
    tree = tree_from_splits(s.n, lambda a, b: int(root[a, b]))
    return OptResult(tree=tree, cost=int(cost[1, s.n]))


def root_band_misses(root: np.ndarray, step: int) -> list[tuple[int, int]]:
    """The intervals (a, b) of ``root_table_naive``'s root table whose
    smallest optimal root lies outside the band the root DP scores.

    From the least and greatest root offset lo, hi over the intervals of
    length ``at``, a multiple of ``step`` (lo = 0 and hi = at = 0 before
    the first), the band of a longer length ln up to at + step is the
    offsets lo..min(hi + ln - at, ln - 1): Yao's R(a, b-1) <= R(a, b) <=
    R(a+1, b), chained ln - at times.
    """
    n = root.shape[0] - 1
    lo = hi = at = 0
    misses = []
    for ln in range(1, n + 1):
        offsets = [int(root[a, a + ln - 1]) - a for a in range(1, n - ln + 2)]
        top = min(hi + ln - at, ln - 1)
        misses += [(a, a + ln - 1) for a, k in enumerate(offsets, 1) if not lo <= k <= top]
        if ln % step == 0:
            lo, hi, at = min(offsets), max(offsets), ln
    return misses


def _all_shapes(lo: int, hi: int, memo: dict):
    """All BST shapes over [lo, hi] as nested (root, left, right) tuples."""
    if lo > hi:
        return (None,)
    key = (lo, hi)
    got = memo.get(key)
    if got is None:
        out = []
        for r in range(lo, hi + 1):
            for L in _all_shapes(lo, r - 1, memo):
                for R in _all_shapes(r + 1, hi, memo):
                    out.append((r, L, R))
        got = memo[key] = tuple(out)
    return got


def enumerate_optimal(s: SearchStats, max_n: int = 10) -> OptResult:
    """Score every BST shape; ties go to the lexicographically smallest
    preorder.  Refuses n > max_n (Catalan growth)."""
    n = s.n
    if n > max_n:
        raise UsageError(f"enumeration over n={n} trees refused (max_n={max_n})")
    best_cost = None
    best_pre = None
    best_shape = None
    for shape in _all_shapes(1, n, {}):
        left = [0] * (n + 1)
        right = [0] * (n + 1)
        pre = []
        stack = [shape]
        while stack:
            node = stack.pop()
            r, L, R = node
            pre.append(r)
            if R is not None:
                right[r] = R[0]
            if L is not None:
                left[r] = L[0]
            # push right first so the left subtree is visited next
            if R is not None:
                stack.append(R)
            if L is not None:
                stack.append(L)
        tree = build_tree(n, shape[0], left, right)
        cost = cost_from_frequencies(tree, s)
        pre_t = tuple(pre)
        if best_cost is None or cost < best_cost or \
                (cost == best_cost and pre_t < best_pre):
            best_cost = cost
            best_pre = pre_t
            best_shape = tree
    return OptResult(tree=best_shape, cost=best_cost)


def bisection_depths_exact(weights) -> list[int]:
    """Depths of the weight-bisection tree over ``weights``, in Python
    integers: each interval's root is found by scoring every |left -
    right| of the interval, ties to the smaller item."""
    prefix = [0, *itertools.accumulate(weights)]
    depths = [0] * len(weights)
    stack = [(0, len(weights), 0)]
    while stack:
        lo, hi, level = stack.pop()
        if lo < hi:
            gap = [abs((prefix[r] - prefix[lo]) - (prefix[hi] - prefix[r + 1]))
                   for r in range(lo, hi)]
            r = lo + gap.index(min(gap))
            depths[r] = level
            stack += [(lo, r, level + 1), (r + 1, hi, level + 1)]
    return depths


def mehlhorn_bisect(w: WeightVector) -> StaticTree:
    """Reference for ``mehlhorn_build``: the weight-bisection tree by one
    ``bisect`` per interval over the float midpoint sums, ties to the
    smaller key, in the same float arithmetic as its kernel."""
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


def successor_trees_loop(s: SearchStats, d: int) -> tuple[SuccessorTree, ...]:
    """Oracle for ``build_multitree``'s successor trees, one key at a
    time: each key's top-d successors by a lexsort on (-count, b), their
    depths from ``bisection_depths_exact`` over their counts (index 0
    unused)."""
    n = s.n
    # The transitions are sorted by (a, b): each key's successors form one
    # contiguous run, in ascending key order.
    bounds = np.searchsorted(s.a, np.arange(1, n + 2)).tolist()
    empty = SuccessorTree((), ())
    succ = [empty]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo == hi:
            succ.append(empty)
            continue
        keep = np.sort(lo + np.lexsort((s.b[lo:hi], -s.count[lo:hi]))[:d])
        depths = bisection_depths_exact(s.count[keep].tolist())
        succ.append(SuccessorTree(tuple(s.b[keep].tolist()), tuple(depths)))
    return tuple(succ)


def successor_shapes(mt: MultiTree, s: SearchStats) -> list[StaticTree | None]:
    """Each key's successor tree as a tree over positions 1..len(members),
    rebuilt with mehlhorn_build from its members' counts in the table s
    it was built from (None for a key with no members; index 0 unused)."""
    count = dict(zip(zip(s.a.tolist(), s.b.tolist()), s.count.tolist()))
    return [None] + [mehlhorn_build(WeightVector.from_values([count[a, b] for b in st.members]))
                     if st.members else None
                     for a, st in enumerate(mt.succ[1:], start=1)]


def walk_probe(shape: StaticTree | None, members, target: int) -> tuple[bool, int]:
    """Walk one successor tree from its root, comparing target against
    members[position - 1] at each node; returns (hit, comparisons made)."""
    pos = shape.root if shape is not None else NO_NODE
    comparisons = 0
    while pos != NO_NODE:
        comparisons += 1
        key = members[pos - 1]
        if target == key:
            return True, comparisons
        pos = shape.left[pos] if target < key else shape.right[pos]
    return False, comparisons


def search_costs(mt: MultiTree, s: SearchStats, x: SearchSequence) -> list[int]:
    """Per-search comparison counts for a full pass over the sequence,
    walking the successor trees rebuilt from s, the count table mt was
    built from."""
    if mt.n != x.n:
        raise InvalidInputError(f"universe mismatch: structure n={mt.n}, input n={x.n}")
    gdepth = mt.global_tree.depth
    shapes = successor_shapes(mt, s)
    costs = []
    prev = 0
    for target in x.items.tolist():
        if prev == 0:
            costs.append(gdepth[target] + 1)
        else:
            hit, comparisons = walk_probe(shapes[prev], mt.succ[prev].members, target)
            if hit:
                costs.append(comparisons)
            else:
                costs.append(comparisons + gdepth[target] + 1)
        prev = target
    return costs


# -- fuzz of the readers ------------------------------------------------------

# Integers at the 64-bit edges, floats at the edges of the double range,
# and text that int(), float() and numpy's parsers might take differently.
# None is above 1e300, so no weights file of a few of them sums past the
# float range: that refusal has its own test.
_READER_TOKENS = ("0", "1", "2", "3", "4", "-1", "-0", "+3", "007", "1_0", "1__0", "_1",
                  "\u0663", "\uff11", "\u0661\u0662.\u0665", "nan", "-nan", "inf", "-inf",
                  "Infinity", "1e400", "-1e400", "5e-324", "1e-400", "1e300", "0.5", "0.25",
                  "1.0", ".5", "5.", "1e3", "+.5e-3", "0x10", "1e", "x", "1d0",
                  str(2**63 - 1), str(2**63), str(-2**63), str(-2**63 - 1), "9" * 18,
                  "9" * 19)
_READER_SEPARATORS = (" ", "\n", "\t", "\r\n", "\x1c", "\u3000", "\v")


def _valid_reader_file(rng: random.Random, fmt: str) -> str:
    n = rng.randint(1, 6)
    if fmt == "sequence":
        return write_sequence(random_sequence(rng, n, rng.randint(0, 12)))
    if fmt == "tree":
        return write_tree(random_tree(rng, n))
    if fmt == "weights":
        return write_weights(WeightVector.from_values(
            [rng.choice((1.0, 0.5, 1 / 3, 7.25, 2.0 ** -1074, 1e-300, 1e300, rng.random()))
             for _ in range(n)]))
    if fmt == "freq":
        return write_freq(frequencies_from_sequence(random_sequence(rng, n, rng.randint(0, 12))))
    rows = np.array([[rng.random() for _ in range(n)] for _ in range(n)])
    return write_matrix(rows / rows.sum(axis=1, keepdims=True))


def mutated_reader_files(seed: int, count: int) -> list[tuple[str, str]]:
    """``count`` seeded (format, text) pairs over the five file formats:
    a valid file with up to three tokens replaced, inserted or deleted,
    joined by one separator that str.split() takes, or a short stream of
    random tokens."""
    rng = random.Random(seed)
    files = []
    for _ in range(count):
        fmt = rng.choice(("sequence", "tree", "weights", "freq", "matrix"))
        if rng.random() < 0.1:
            toks = [rng.choice(_READER_TOKENS) for _ in range(rng.randint(0, 8))]
        else:
            toks = _valid_reader_file(rng, fmt).split()
            for _ in range(rng.randint(0, 3)):
                i = rng.randrange(len(toks) + 1)
                op = rng.randrange(3)
                if op == 0 and i < len(toks):
                    toks[i] = rng.choice(_READER_TOKENS)
                elif op == 1 and i < len(toks):
                    del toks[i]
                else:
                    toks.insert(i, rng.choice(_READER_TOKENS))
        sep = rng.choice(_READER_SEPARATORS) if rng.random() < 0.3 else rng.choice(" \n")
        files.append((fmt, sep.join(toks) + rng.choice(("", "\n"))))
    return files


# -- fuzz of the command line -------------------------------------------------

# Flags naming an input file, by the kind of file each reads.
_FUZZ_INPUTS = {"--seq": "seq", "--freq": "freq", "--tree": "tree",
                "--weights": "weights", "--matrix": "matrix"}
# Small values, and values every size check must refuse before allocating.
_FUZZ_INTS = ("0", "1", "2", "3", "5", "8", "12", "-1", "-0", "+3", "007",
              str(2**31), str(2**63 - 1), str(2**63), str(10**12), str(10**30))
_FUZZ_SMALL = ("1", "2", "3", "5", "6")
_FUZZ_TOKENS = _FUZZ_INTS + ("x", "1.5", "0.25", "1e3", "nan", "inf", "-inf", "1e300",
                             "1e-300", "0x10", "٣", "ÿ", "--seq")


def _fuzz_file(rng: random.Random, base: str) -> bytes:
    """Random bytes, random tokens, or ``base`` intact or mutated a few
    times (a token replaced, dropped or doubled, a byte inserted, the
    text cut short)."""
    r = rng.random()
    if r < 0.1:
        return rng.randbytes(rng.randint(0, 48))
    if r < 0.25:
        seps = (" ", "\n", "\t", "\r\n", "  ")
        return "".join(rng.choice(_FUZZ_TOKENS) + rng.choice(seps)
                       for _ in range(rng.randint(0, 16))).encode()
    toks = base.split(" ")
    for _ in range(0 if r < 0.6 else rng.randint(1, 3)):
        i = rng.randrange(len(toks))
        op = rng.randrange(3)
        if op == 0:
            toks[i] = rng.choice(_FUZZ_TOKENS)
        elif op == 1 and len(toks) > 1:
            del toks[i]
        else:
            toks.insert(i, toks[i])
    data = " ".join(toks).encode()
    if rng.random() < 0.1:
        i = rng.randint(0, len(data))
        data = data[:i] + rng.randbytes(1) + data[i:]
    if rng.random() < 0.1:
        data = data[:rng.randint(0, len(data))]
    return data


def fuzz_main(seed: int, runs: int, workdir: str) -> list[str]:
    """Run ``main`` ``runs`` times on seeded random argv drawn from the
    parser's own subcommands, flags and choices, with fuzzed files (from
    ``_fuzz_file``) behind every input flag.  Returns one description per
    run that did not end in exit code 0 with no stderr, or 1..3 with one
    ``error:`` line."""
    work = Path(workdir)
    seq, freq, tree, weights = (str(work / f"base.{k}") for k in ("seq", "freq", "tree",
                                                                 "weights"))
    for argv in (["gen", "--kind", "markov", "--n", "6", "--m", "24", "--seed", "1",
                  "--out", seq],
                 ["freq", "--seq", seq, "--out", freq],
                 ["opt", "--method", "lazy", "--seq", seq, "--out", tree],
                 ["weights", "--tree", tree, "--out", weights]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    bases = {kind: (work / f"base.{kind}").read_text() for kind in _FUZZ_INPUTS.values()
             if kind != "matrix"}
    bases["matrix"] = write_matrix(np.array([[0.5, 0.5, 0], [0, 0.5, 0.5], [1, 0, 0]]))
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    rng = random.Random(seed)
    failures = []
    for run in range(runs):
        command = rng.choice(sorted(sub.choices))
        argv = [command] if rng.random() < 0.98 else [rng.choice(_FUZZ_TOKENS)]
        for action in sub.choices[command]._actions:
            if rng.random() > (0.01 if "-h" in action.option_strings
                               else 0.97 if action.required else 0.6):
                continue
            flag = rng.choice(action.option_strings)
            if flag in _FUZZ_INPUTS:
                path = work / f"in{run}.{_FUZZ_INPUTS[flag]}"
                path.write_bytes(_fuzz_file(rng, bases[_FUZZ_INPUTS[flag]]))
                value = (str(path) if rng.random() < 0.9
                         else rng.choice((str(work), str(work / "missing"))))
            elif action.nargs == 0:
                argv.append(flag)
                continue
            elif flag in ("--out", "--dump"):
                value = (str(work / "out") if rng.random() < 0.9
                         else rng.choice((str(work), str(work / "no/out"))))
            elif action.choices and rng.random() < 0.9:
                value = rng.choice(action.choices)
            else:
                r = rng.random()
                value = rng.choice(_FUZZ_SMALL if r < 0.5 else _FUZZ_INTS if r < 0.8
                                   else _FUZZ_TOKENS)
            argv += [flag, value]
        if rng.random() < 0.05:
            argv.insert(rng.randint(1, len(argv)), rng.choice(_FUZZ_TOKENS))
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except BaseException:
            failures.append(f"{argv}: raised\n{traceback.format_exc()}")
            continue
        text = err.getvalue()
        ok = (text == "" if code == 0 else
              code in (1, 2, 3) and text.startswith("error: ") and text.count("\n") == 1
              and text.endswith("\n"))
        if not ok:
            failures.append(f"{argv}: exit {code}, stderr {text!r}")
    return failures
