"""Key universes, search sequences, and static trees.

Keys are always the integers ``1..n``.  Every per-key table is a flat
array of length ``n + 1`` whose slot 0 is unused padding, and ``0`` is
the "no node" sentinel for child and parent slots.  A count table's
transitions are the count file's sorted ``(a, b, count)`` triples of
the pairs that occur.  Both match the on-disk formats, so nothing ever
translates between representations; only the cut table reads the
transitions as a dense (n+1) x (n+1) table, ``SearchStats.pair``.

Every subtree of a BST is a key interval, so a tree is a choice of root
per interval: ``tree_from_splits`` turns such a choice into a tree and
``subtree_intervals`` reads the intervals back out of one.

Every dense table whose size grows with n (a sequence's pair-count
scratch, the dense pair view, the cut and DP tables, the default markov
matrix) and every generated sequence is first checked against one
memory budget, ``MEMORY_BUDGET``, by ``check_memory``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, UsageError

NO_NODE = 0

# Bytes one dense table set sized by an input n may take; past it a call
# refuses with UsageError instead of failing inside the allocator.
MEMORY_BUDGET = 2 * 2**30


def check_memory(n: int, nbytes: int, what: str) -> None:
    """Raise UsageError, before anything is allocated, when ``what`` for
    n keys needs more than MEMORY_BUDGET bytes."""
    if nbytes > MEMORY_BUDGET:
        raise UsageError(f"{what} for n={n} needs {nbytes} bytes, over the "
                         f"{MEMORY_BUDGET}-byte memory budget")


@dataclass(frozen=True)
class StaticTree:
    """A fixed binary search tree over keys 1..n.

    ``left``/``right`` hold child keys (0 = none).  ``depth`` is the
    edge distance from the root and ``parent`` the parent key (0 for the
    root); both are derived from the children and kept consistent by the
    constructors in this module.
    """

    n: int
    root: int
    left: tuple[int, ...]
    right: tuple[int, ...]
    depth: tuple[int, ...]
    parent: tuple[int, ...]


def build_tree(n: int, root: int, left, right) -> StaticTree:
    """Attach derived tables to a child-table description of a tree.

    Raises ValueError if the description is not a single binary tree
    reaching every key exactly once (cycles, out-of-range children,
    shared children, disconnected keys).  Does not check the search
    order property; see validate_tree.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (1 <= root <= n):
        raise ValueError("root out of range")
    left = tuple(left)
    right = tuple(right)
    if len(left) != n + 1 or len(right) != n + 1:
        raise ValueError("child tables must have length n + 1")
    depth = [0] * (n + 1)
    parent = [0] * (n + 1)
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
            parent[c] = v
            depth[c] = depth[v] + 1
            count += 1
            stack.append(c)
    if count != n:
        raise ValueError("tree does not reach every key")
    return StaticTree(n, root, left, right, tuple(depth), tuple(parent))


def tree_from_splits(n: int, split: Callable[[int, int], int]) -> StaticTree:
    """The tree whose subtree on each key interval lo..hi is rooted at
    ``split(lo, hi)``, a key in lo..hi.

    ``split`` is called exactly once per subtree interval, in preorder
    (node, then left subinterval, then right), so a split that consumes
    random draws gives the same tree for the same generator state.
    """
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    root = 0
    stack = [(1, n, 0)]
    while stack:
        lo, hi, parent = stack.pop()
        r = split(lo, hi)
        if parent == 0:
            root = r
        elif r < parent:
            left[parent] = r
        else:
            right[parent] = r
        if r < hi:
            stack.append((r + 1, hi, r))
        if lo < r:
            stack.append((lo, r - 1, r))
    return build_tree(n, root, left, right)


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


def validate_tree(t: StaticTree) -> bool:
    """True iff t is a well-formed BST with consistent derived tables."""
    n = t.n
    if any(len(tab) != n + 1 for tab in (t.left, t.right, t.depth, t.parent)):
        return False
    # Every key inside its interval and n keys reached: a BST over 1..n.
    nodes = subtree_intervals(t)
    if nodes is None or len(nodes) != n:
        return False
    if t.depth[t.root] != 0 or t.parent[t.root] != NO_NODE:
        return False
    for k in range(1, n + 1):
        for c in (t.left[k], t.right[k]):
            if c != NO_NODE and (t.parent[c] != k or t.depth[c] != t.depth[k] + 1):
                return False
    return True


def build_balanced(n: int) -> StaticTree:
    """Balanced tree by recursive median split; interval [lo, hi] gets
    root ceil((lo + hi) / 2)."""
    if n < 1:
        raise UsageError("n must be >= 1")
    return tree_from_splits(n, lambda lo, hi: (lo + hi + 1) // 2)


@dataclass(frozen=True, eq=False)
class SearchSequence:
    """A sequence of m searched keys over the universe 1..n.

    ``items`` is a read-only view, so ``stats``, computed on first use,
    stays the count table of this sequence.
    """

    n: int
    items: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError("n must be >= 1")
        arr = np.asarray(self.items, dtype=np.int64).view()
        if arr.ndim != 1:
            raise InvalidInputError("items must be one-dimensional")
        if arr.size and (arr.min() < 1 or arr.max() > self.n):
            v = arr[(arr < 1) | (arr > self.n)][0]
            raise InvalidInputError(f"sequence key {v} out of range 1..{self.n}")
        arr.flags.writeable = False
        object.__setattr__(self, "items", arr)

    @property
    def m(self) -> int:
        return int(self.items.size)

    @cached_property
    def stats(self) -> SearchStats:
        """Count table of the sequence, built once and shared."""
        n, items = self.n, self.items
        check_memory(n, 8 * (n + 1) ** 2, "count table")
        flat = np.bincount(items[:-1] * (n + 1) + items[1:])
        code = np.flatnonzero(flat)
        m = self.m
        return SearchStats(n=n, m=m, a=code // (n + 1), b=code % (n + 1), count=flat[code],
                           searches=np.bincount(items, minlength=n + 1),
                           first=int(items[0]) if m else 0, last=int(items[-1]) if m else 0)


@dataclass(frozen=True, eq=False)
class SearchStats:
    """Count summary of a search sequence, laid out as the count file.

    The transition a[i] -> b[i] (consecutive searches; the first search
    starts none) occurs count[i] > 0 times, strictly ascending by (a, b).
    ``searches[k]`` counts searches for k (slot 0 unused); ``first`` and
    ``last`` are the endpoint keys, 0 when the sequence is empty.  Every
    array is a read-only int64 view.
    """

    n: int
    m: int
    a: np.ndarray
    b: np.ndarray
    count: np.ndarray
    searches: np.ndarray
    first: int
    last: int

    def __post_init__(self):
        for name in ("a", "b", "count", "searches"):
            arr = np.asarray(getattr(self, name), dtype=np.int64).view()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @cached_property
    def pair(self) -> np.ndarray:
        """Dense read-only view: ``pair[a, b]`` counts a -> b, row and
        column 0 are zero.  Built on first use, for the cut table."""
        n = self.n
        check_memory(n, 8 * (n + 1) ** 2, "count table")
        pair = np.zeros((n + 1, n + 1), dtype=np.int64)
        pair[self.a, self.b] = self.count
        pair.flags.writeable = False
        return pair
