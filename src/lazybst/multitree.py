"""Two-level search structure: a global balanced tree plus, for every
key, a small tree over that key's most frequent successors.

Search cost is counted in key comparisons (one per node inspected), not
edges: after finding x, the next search probes x's successor tree first
and falls back to a fresh descent of the global tree on a miss.  The
jump from wherever a probe ends back to a tree root is free, which is
what makes the comparison model the honest one here.

A search in a BST compares once per node on its path, so a probe's cost
follows from the members' depths alone.  A hit on a member at depth k
costs k + 1.  A miss ends at the deeper of the target's in-order
neighbours among the members, one of which is an ancestor of the other,
so it costs that depth + 1, where a missing neighbour counts as depth
-1: a tree with no members costs 0.

Like both edge costs, the comparison count depends only on the
transition counts: a search for b after a always costs the same, so a
sequence is costed from its count table's (a, b, count) triples, each
transition's probe cost times its count, plus the first search's
descent.  ``run_multitree`` costs all transitions in one vectorized
pass; ``probe`` applies the rule to one target.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .entropy import WeightVector
from .errors import InvalidInputError, UsageError
from .model import SearchSequence, SearchStats, StaticTree, build_balanced
from .optimize import mehlhorn_build


@dataclass(frozen=True)
class SuccessorTree:
    """Search tree over one key's retained successors, kept as what its
    costs read: ``members``, the retained successor keys in ascending
    order, and ``depths``, each member's depth in the weight-bisection
    tree over them."""

    members: tuple[int, ...]
    depths: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class MultiTree:
    n: int
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
        depths = mehlhorn_build(WeightVector.from_values(s.count[keep])).depth[1:]
        succ.append(SuccessorTree(tuple(s.b[keep].tolist()), depths))
    return MultiTree(n=n, global_tree=build_balanced(n), succ=tuple(succ))


def probe(st: SuccessorTree, target: int) -> tuple[bool, int]:
    """Search one successor tree by the probe rule of the module
    docstring; returns (hit, comparisons made)."""
    i = bisect.bisect_left(st.members, target)
    if i < len(st.members) and st.members[i] == target:
        return True, st.depths[i] + 1
    below = st.depths[i - 1] if i > 0 else -1
    above = st.depths[i] if i < len(st.depths) else -1
    return False, max(below, above) + 1


def run_multitree(mt: MultiTree, x: SearchSequence) -> int:
    """Total comparisons for the sequence: the first search descends the
    global tree, and each transition a -> b probes a's successor tree,
    descending the global tree again on a miss.

    Every distinct transition is costed at once by the probe rule of
    the module docstring.  The successor trees are flattened into one
    array of codes a (n+1) + member, ascending, and each transition's
    code is looked up in it; a miss adds a descent of the global tree
    to b.
    """
    if mt.n != x.n:
        raise InvalidInputError(f"universe mismatch: structure n={mt.n}, input n={x.n}")
    if x.m == 0:
        return 0
    n = mt.n
    s = x.stats
    sizes = [len(st.members) for st in mt.succ]
    total_size = sum(sizes)
    # -1 pads both ends: no owner, and depth -1 for a missing neighbour.
    owner = np.full(total_size + 2, -1, dtype=np.int64)
    owner[1:-1] = np.repeat(np.arange(n + 1), sizes)
    depth = np.full(total_size + 2, -1, dtype=np.int64)
    depth[1:-1] = np.fromiter(chain.from_iterable(st.depths for st in mt.succ),
                              np.int64, total_size)
    key = owner * (n + 1)
    key[1:-1] += np.fromiter(chain.from_iterable(st.members for st in mt.succ),
                             np.int64, total_size)
    code = s.a * (n + 1) + s.b
    # With the padding, key[i] is the last member code below the
    # transition's and key[i + 1] the first at or above it.
    i = np.searchsorted(key[1:-1], code)
    hit = key[i + 1] == code
    pred = np.where(owner[i] == s.a, depth[i], -1)
    succ = np.where(owner[i + 1] == s.a, depth[i + 1], -1)
    gdepth = np.asarray(mt.global_tree.depth, dtype=np.int64)
    cost = np.where(hit, depth[i + 1] + 1, np.maximum(pred, succ) + gdepth[s.b] + 2)
    return int(gdepth[s.first]) + 1 + int((s.count * cost).sum())
