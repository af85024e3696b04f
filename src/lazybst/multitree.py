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
descent.

A ``MultiTree`` keeps every successor tree in three flat arrays: the
members and their depths, ascending by (owner, member), and each key's
offsets into them.  ``build_multitree`` fills them in one vectorized
pass over the count triples, running the weight bisection for all keys
at once, one tree level a step, in the kernel ``mehlhorn_build`` runs
too; ``run_multitree`` costs all transitions in one vectorized pass
over them; ``probe`` applies the rule to one target.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UsageError
from .model import SearchSequence, SearchStats, StaticTree, build_balanced, check_universe
from .optimize import _bisection_depths


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
    """The global tree and every key's successor tree: key a's members
    are ``members[offsets[a]:offsets[a + 1]]``, ascending, and
    ``depths`` holds each member's depth in a's tree.  ``offsets`` has
    n + 2 entries; key 0 has no members.  The arrays are read-only
    int64."""

    n: int
    global_tree: StaticTree
    members: np.ndarray
    depths: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        for name in ("members", "depths", "offsets"):
            getattr(self, name).flags.writeable = False

    @cached_property
    def succ(self) -> tuple[SuccessorTree, ...]:
        """Each key's successor tree (index 0 empty), built on first
        use for callers that index one key's tree."""
        members, depths = self.members.tolist(), self.depths.tolist()
        offsets = self.offsets.tolist()
        return tuple(SuccessorTree(tuple(members[lo:hi]), tuple(depths[lo:hi]))
                     for lo, hi in zip(offsets[:-1], offsets[1:]))


def node_count(mt: MultiTree) -> int:
    """Global nodes plus all successor-tree nodes; at most n * (d + 1)."""
    return mt.n + mt.members.size


def build_multitree(s: SearchStats, d: int) -> MultiTree:
    """Keep each key's top-d successors by transition count (ties to the
    smaller key), arranged by weight bisection over those counts: each
    interval's root minimizes the absolute difference between left and
    right weight, ties to the smaller key, as in ``mehlhorn_build``.

    The bisection is ``optimize._bisection_depths``, the kernel that
    ``mehlhorn_build`` runs as one run over its float prefix sums; here
    each key's kept counts are one run of an int64 prefix, so every sum
    is exact.  Every count table ``read_freq`` accepts has a count total
    below 2^61, so no sum wraps.
    """
    n = s.n
    if not (1 <= d <= n):
        raise UsageError(f"d must be in 1..{n}, got {d}")
    # The transitions ascend by (a, b), so one stable sort by a, then by
    # descending count, ranks each key's successors with ties to the
    # smaller key; each key's run starts where it did before the sort.
    cmax = int(s.count.max(initial=0))
    order = np.argsort(s.a * (cmax + 1) + (cmax - s.count), kind="stable")
    bounds = np.searchsorted(s.a, np.arange(n + 1))
    kept = np.zeros(s.a.size, dtype=bool)
    kept[order[np.arange(s.a.size) - bounds[s.a] < d]] = True
    members = s.b[kept]
    offsets = np.searchsorted(s.a[kept], np.arange(n + 2))
    prefix = np.concatenate(([0], np.cumsum(s.count[kept])))
    # Only the members, offsets and prefix sums reach the bisection's
    # peak; the global tree is built after it.
    del order, bounds, kept
    return MultiTree(n=n, members=members, depths=_bisection_depths(prefix, offsets),
                     offsets=offsets, global_tree=build_balanced(n))


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
    the module docstring.  Each member's code a (n+1) + member ascends
    with its position, and each transition's code is looked up among
    them; a miss adds a descent of the global tree to b.
    """
    check_universe("structure", mt.n, x.n)
    if x.m == 0:
        return 0
    n = mt.n
    s = x.stats
    code = s.a * (n + 1) + s.b
    key = np.repeat(np.arange(n + 1) * (n + 1), np.diff(mt.offsets)) + mt.members
    i = np.searchsorted(key, code)
    # a's members sit at offsets[a]..offsets[a+1]-1, so b's neighbours
    # among them are members i-1 and i, where those lie in that range.
    # The pads make every index valid; depth -1 is a missing neighbour.
    inside = i < mt.offsets[s.a + 1]
    hit = inside & (np.append(key, -1)[i] == code)
    depth = np.concatenate(([-1], mt.depths, [-1]))
    below = np.where(i > mt.offsets[s.a], depth[i], -1)
    above = np.where(inside, depth[i + 1], -1)
    gdepth = np.asarray(mt.global_tree.depth, dtype=np.int64)
    cost = np.where(hit, depth[i + 1] + 1, np.maximum(below, above) + gdepth[s.b] + 2)
    return int(gdepth[s.first]) + 1 + int((s.count * cost).sum())
