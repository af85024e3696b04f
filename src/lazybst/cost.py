"""Search-cost engines for the two pointer strategies.

A root-finger search always starts at the root, so search i costs
depth(x_i) edges.  A lazy-finger search starts where the previous one
ended, so search i costs the path length between x_{i-1} and x_i; only
the first search descends from the root.  Both are exact integer edge
counts, never floats.

Every lazy cost here comes from ``path_lengths``: in a BST the lowest
common ancestor of keys a <= b is the shallowest key in a..b, so the
path between them has ``depth[a] + depth[b] - 2 min(depth[a..b])``
edges.  Search i of a lazy finger costs pathlen(x_{i-1}, x_i) wherever
it falls in the sequence, so the lazy cost is a function of the count
table alone: one such call over its ``(a, b, count)`` triples, weighted
by count, plus the descent to x_1.  A root-finger cost is one gather
of depth over the m searches, which is cheaper than counting them.

Both engines read a tree through its depth table alone, so both first
check it with ``validate_tree`` and refuse, with InvalidInputError, a
tree that breaks the search order or whose depths disagree with its
children.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import CODE_BLOCK, SearchSequence, SearchStats, StaticTree, check_tree, \
    check_universe


@dataclass(frozen=True)
class CostReport:
    transition_cost: int
    initial_descent: int
    total_with_root_start: int
    per_search_avg: Fraction


def _report(transition: int, descent: int, m: int) -> CostReport:
    total = transition + descent
    avg = Fraction(total, m) if m else Fraction(0)
    return CostReport(transition, descent, total, avg)


def path_lengths(t: StaticTree, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Edges on the tree path between keys ``a[i]`` and ``b[i]``.

    The shallowest key in lo..hi is read from a sparse table over depth
    in key order, whose row j holds the minimum of each run of 2^j keys:
    two overlapping runs of 2^k keys cover lo..hi.
    """
    check_tree(t)
    depth = np.asarray(t.depth, dtype=np.int64)
    runs = np.empty((t.n.bit_length(), t.n + 1), dtype=np.int64)
    runs[0] = depth
    for j in range(1, len(runs)):
        h = 1 << (j - 1)
        runs[j] = runs[j - 1]
        np.minimum(runs[j - 1, :-h], runs[j - 1, h:], out=runs[j, :-h])
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    k = np.frexp(hi - lo + 1)[1] - 1        # floor(lg(hi - lo + 1))
    top = np.minimum(runs[k, lo], runs[k, hi + 1 - (1 << k)])
    return depth[a] + depth[b] - 2 * top


def run_root_finger(t: StaticTree, x: SearchSequence) -> CostReport:
    """Total root-finger cost: sum of depths of the searched keys."""
    check_universe("tree", t.n, x.n)
    check_tree(t)
    depth = np.asarray(t.depth, dtype=np.int64)
    # A block of depths at a time: a gather of all m would be the
    # largest temporary of an eval.
    total = sum(int(depth[x.items[i:i + CODE_BLOCK]].sum()) for i in range(0, x.m, CODE_BLOCK))
    return _report(total, 0, x.m)


def run_lazy_finger(t: StaticTree, x: SearchSequence) -> CostReport:
    """Lazy-finger cost: the path lengths between consecutive searches,
    costed from the sequence's count table, with the initial descent
    from the root to x_1 reported separately."""
    check_universe("tree", t.n, x.n)
    transition = cost_from_frequencies(t, x.stats)
    return _report(transition, t.depth[x.items[0]] if x.m else 0, x.m)


def cost_from_frequencies(t: StaticTree, s: SearchStats) -> int:
    """Lazy transition cost from a count table: the sum over its
    transitions a -> b of count * pathlen(a, b)."""
    check_universe("tree", t.n, s.n)
    return int((s.count * path_lengths(t, s.a, s.b)).sum())
