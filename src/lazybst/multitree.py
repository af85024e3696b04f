"""Two-level search structure: a global balanced tree plus, for every
key, a small tree over that key's most frequent successors.

Search cost is counted in key comparisons (one per node inspected), not
edges: after finding x, the next search probes x's successor tree first
and falls back to a fresh descent of the global tree on a miss.  The
jump from wherever a probe ends back to a tree root is free, which is
what makes the comparison model the honest one here.

Like both edge costs, the comparison count depends only on the
transition counts: a search for b after a always costs the same, so a
sequence is costed from its count table's (a, b, count) triples, each
transition's probe cost times its count, plus the first search's
descent.  ``run_multitree`` costs all transitions in one vectorized
pass; ``probe`` walks one successor tree and is the reference for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

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
    empty = SuccessorTree((), None)
    succ = [empty]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo == hi:
            succ.append(empty)
            continue
        keep = np.sort(lo + np.lexsort((s.b[lo:hi], -s.count[lo:hi]))[:d])
        shape = mehlhorn_build(WeightVector.from_values(s.count[keep]))
        succ.append(SuccessorTree(tuple(s.b[keep].tolist()), shape))
    return MultiTree(n=n, global_tree=build_balanced(n), succ=tuple(succ))


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
    descending the global tree again on a miss.

    Every distinct transition is costed at once.  The successor trees
    are flattened into one array of codes a (n+1) + member, ascending,
    and each transition's code is looked up in it.  A hit on a member
    at depth k costs k + 1.  A miss ends at the deeper of b's in-order
    neighbours among a's members (a missing one counts as depth -1, so
    a key with no successors costs 0), plus a descent of the global
    tree to b.
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
    depth[1:-1] = np.fromiter(chain.from_iterable(st.shape.depth[1:] for st in mt.succ
                                                  if st.shape is not None),
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
