"""Search-cost engines for the two pointer strategies.

A root-finger search always starts at the root, so search i costs
depth(x_i) edges.  A lazy-finger search starts where the previous one
ended, so search i costs the path length between x_{i-1} and x_i; only
the first search descends from the root.  Both are exact integer edge
counts, never floats.

A transition crosses the edge above node v exactly when one of its
endpoints lies in subtree(v), a key interval.  So the transition cost is
the sum of ``cut_table`` (transitions with exactly one endpoint in the
interval) over the subtree intervals that ``model.subtree_intervals``
lists for the non-root nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError
from .model import NO_NODE, SearchSequence, SearchStats, StaticTree, subtree_intervals


@dataclass(frozen=True)
class CostReport:
    transition_cost: int
    initial_descent: int
    total_with_root_start: int
    per_search_avg: Fraction


def _check_universe(tree_n: int, other_n: int) -> None:
    if tree_n != other_n:
        raise InvalidInputError(f"universe mismatch: tree n={tree_n}, input n={other_n}")


def _report(transition: int, descent: int, m: int) -> CostReport:
    total = transition + descent
    avg = Fraction(total, m) if m else Fraction(0)
    return CostReport(transition, descent, total, avg)


def run_root_finger(t: StaticTree, x: SearchSequence) -> CostReport:
    """Total root-finger cost: sum of depths of the searched keys."""
    _check_universe(t.n, x.n)
    if x.m == 0:
        return _report(0, 0, 0)
    depth = np.asarray(t.depth, dtype=np.int64)
    total = int(depth[x.items].sum())
    return _report(total, 0, x.m)


def run_lazy_finger(t: StaticTree, x: SearchSequence) -> CostReport:
    """Simulate a lazy-finger pass with an explicit cursor.

    The cursor climbs to the LCA via the parent table, then descends by
    key comparisons; every edge crossed is counted.  The initial descent
    from the root to x_1 is reported separately from the transition cost.
    """
    _check_universe(t.n, x.n)
    if x.m == 0:
        return _report(0, 0, 0)
    items = x.items.tolist()
    parent = t.parent
    left = t.left
    right = t.right
    depth = t.depth

    def descend(cur: int, target: int) -> int:
        edges = 0
        while cur != target:
            cur = left[cur] if target < cur else right[cur]
            if cur == NO_NODE:
                raise InvalidInputError("search fell off the tree; not a valid BST")
            edges += 1
        return edges

    descent = descend(t.root, items[0])
    transition = 0
    cur = items[0]
    for target in items[1:]:
        i, j = cur, target
        while depth[i] > depth[j]:
            i = parent[i]
        while depth[j] > depth[i]:
            j = parent[j]
        while i != j:
            i = parent[i]
            j = parent[j]
        transition += (depth[cur] - depth[i]) + descend(i, target)
        cur = target
    return _report(transition, descent, x.m)


def cut_table(s: SearchStats) -> np.ndarray:
    """``cut[i, j]`` (0 <= i <= j <= n): transitions with exactly one
    endpoint in the key interval i+1..j; entries with i > j are junk.

    With ``g = pair + pair^T`` and P its 2D prefix sums, the cut is the
    row total of g over the interval minus g summed over the square
    interval x interval.
    """
    n = s.n
    g = s.pair[1:, 1:] + s.pair[1:, 1:].T
    P = np.zeros((n + 1, n + 1), dtype=np.int64)
    P[1:, 1:] = g.cumsum(axis=0).cumsum(axis=1)
    rows = P[:, n]                 # rows[i] = sum of g over rows 1..i
    d = np.diagonal(P)             # d[i] = sum of g over (1..i) x (1..i)
    return rows[None, :] - rows[:, None] - (d[None, :] + d[:, None] - 2 * P)


def cost_from_frequencies(t: StaticTree, s: SearchStats) -> int:
    """Lazy transition cost from a pair-count table: sum of
    pair(a, b) * pathlen(a, b) over all ordered pairs, computed as the
    sum of cut over the subtree intervals of the non-root nodes."""
    _check_universe(t.n, s.n)
    if s.pair.shape != (t.n + 1, t.n + 1):
        raise InvalidInputError("pair table has the wrong shape")
    nodes = subtree_intervals(t)
    if nodes is None:
        raise InvalidInputError("tree breaks the search order; not a valid BST")
    _, lo, hi = np.array(nodes, dtype=np.int64).T
    # The root's interval is 1..n, whose cut is 0.
    return int(cut_table(s)[lo - 1, hi].sum())
