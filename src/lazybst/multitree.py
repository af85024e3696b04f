"""Two-level search structure: a global balanced tree plus, for every
key, a small tree over that key's most frequent successors.

Search cost is counted in key comparisons (one per node inspected), not
edges: after finding x, the next search probes x's successor tree first
and falls back to a fresh descent of the global tree on a miss.  The
jump from wherever a probe ends back to a tree root is free, which is
what makes the comparison model the honest one here.

Like both edge costs, the comparison count depends only on the
transition counts: a search for b after a always costs the same, so a
sequence is costed by one probe per distinct transition a -> b, times
its count, plus the first search's descent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import WeightVector
from .errors import InvalidInputError, UsageError
from .model import NO_NODE, SearchSequence, SearchStats, StaticTree, build_balanced
from .optimize import mehlhorn_build


@dataclass(frozen=True)
class SuccessorTree:
    """Search tree over one key's retained successors.

    ``members`` lists the retained successor keys in ascending order;
    ``shape`` is a tree over positions 1..len(members) (None when no
    successors are retained).  A probe compares against
    members[position - 1] at each node.
    """

    members: tuple[int, ...]
    shape: StaticTree | None


@dataclass(frozen=True, eq=False)
class MultiTree:
    n: int
    d: int
    global_tree: StaticTree
    succ: tuple[SuccessorTree, ...]   # index 0 unused


def node_count(mt: MultiTree) -> int:
    """Global nodes plus all successor-tree nodes; at most n * (d + 1)."""
    return mt.n + sum(len(st.members) for st in mt.succ[1:])


def build_multitree(s: SearchStats, d: int) -> MultiTree:
    """Keep each key's top-d successors by transition count (ties to the
    smaller key), arranged by weight bisection over those counts."""
    n = s.n
    if not (1 <= d <= n):
        raise UsageError(f"d must be in 1..{n}, got {d}")
    # One nonzero pass in row-major order: each key's successors form one
    # contiguous run, in ascending key order.
    pair = s.pair[1:, 1:]
    rows, cols = np.nonzero(pair > 0)
    counts = pair[rows, cols]
    bounds = np.searchsorted(rows, np.arange(n + 1)).tolist()
    succ = [SuccessorTree((), None)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        keep = np.sort(lo + np.lexsort((cols[lo:hi], -counts[lo:hi]))[:d])
        shape = (mehlhorn_build(WeightVector.from_values(counts[keep].tolist()))
                 if keep.size else None)
        succ.append(SuccessorTree(tuple((cols[keep] + 1).tolist()), shape))
    return MultiTree(n=n, d=d, global_tree=build_balanced(n), succ=tuple(succ))


def probe(st: SuccessorTree, target: int) -> tuple[bool, int]:
    """Search one successor tree; returns (hit, comparisons made)."""
    if st.shape is None:
        return False, 0
    members = st.members
    shape = st.shape
    pos = shape.root
    comparisons = 0
    while pos != NO_NODE:
        comparisons += 1
        key = members[pos - 1]
        if target == key:
            return True, comparisons
        pos = shape.left[pos] if target < key else shape.right[pos]
    return False, comparisons


def run_multitree(mt: MultiTree, x: SearchSequence) -> int:
    """Total comparisons for the sequence: the first search descends the
    global tree, and each transition a -> b probes a's successor tree,
    descending the global tree again on a miss."""
    if mt.n != x.n:
        raise InvalidInputError(f"universe mismatch: structure n={mt.n}, input n={x.n}")
    if x.m == 0:
        return 0
    gdepth = mt.global_tree.depth
    pair = x.stats.pair
    rows, cols = np.nonzero(pair)
    total = gdepth[int(x.items[0])] + 1
    for a, b, count in zip(rows.tolist(), cols.tolist(), pair[rows, cols].tolist()):
        hit, comparisons = probe(mt.succ[a], b)
        total += count * (comparisons if hit else comparisons + gdepth[b] + 1)
    return total
