"""Key universes, search sequences, and static trees.

Keys are always the integers ``1..n``.  Every per-key table is a flat
array of length ``n + 1`` whose slot 0 is unused padding, and ``0`` is
the "no node" sentinel for child and parent slots.  This matches the
on-disk formats, so nothing ever translates between representations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UsageError

NO_NODE = 0


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


def validate_tree(t: StaticTree) -> bool:
    """True iff t is a well-formed BST with consistent derived tables."""
    n = t.n
    if n < 1 or not (1 <= t.root <= n):
        return False
    for tab in (t.left, t.right, t.depth, t.parent):
        if len(tab) != n + 1:
            return False
    if any(not (0 <= t.left[k] <= n) or not (0 <= t.right[k] <= n)
           for k in range(1, n + 1)):
        return False
    # Iterative in-order walk; a well-formed BST over 1..n visits exactly
    # 1, 2, ..., n.  Bail out if more than n nodes show up (cycle).
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
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    root = (1 + n + 1) // 2
    stack = [(1, n)]
    while stack:
        lo, hi = stack.pop()
        r = (lo + hi + 1) // 2
        if lo < r:
            left[r] = (lo + r) // 2
            stack.append((lo, r - 1))
        if r < hi:
            right[r] = (r + 1 + hi + 1) // 2
            stack.append((r + 1, hi))
    return build_tree(n, root, left, right)


@dataclass(frozen=True, eq=False)
class SearchSequence:
    """A sequence of m searched keys over the universe 1..n."""

    n: int
    items: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError("n must be >= 1")
        arr = np.asarray(self.items, dtype=np.int64)
        if arr.ndim != 1:
            raise InvalidInputError("items must be one-dimensional")
        if arr.size and (arr.min() < 1 or arr.max() > self.n):
            raise InvalidInputError("sequence item out of range")
        object.__setattr__(self, "items", arr)

    @property
    def m(self) -> int:
        return int(self.items.size)


@dataclass(frozen=True, eq=False)
class SearchStats:
    """Count summary of a search sequence.

    ``pair[a, b]`` counts transitions x_{i-1} = a, x_i = b for i >= 2
    (the first search starts no transition); ``searches[a]`` counts
    occurrences of a; ``first``/``last`` are the endpoint keys, 0 when
    the sequence is empty.  Arrays are 1-indexed with row/col 0 unused.
    """

    n: int
    m: int
    pair: np.ndarray
    searches: np.ndarray
    first: int
    last: int

    @classmethod
    def from_pair_counts(cls, n: int, pair: np.ndarray, first: int = 0,
                         last: int = 0) -> "SearchStats":
        """Stats record for a raw transition-count table.

        m is inferred as total + 1 and search counts are derived from
        in-transitions (plus the first key); those are exact only when
        the table really came from a sequence starting at ``first``.
        Meant for experiments on synthetic tables, which need not be
        realizable by any single sequence.
        """
        pair = np.asarray(pair, dtype=np.int64)
        if pair.shape != (n + 1, n + 1):
            raise InvalidInputError("pair table must be (n+1) x (n+1)")
        if pair.min() < 0:
            raise InvalidInputError("negative transition count")
        total = int(pair.sum())
        m = total + 1 if (total > 0 or first) else 0
        searches = pair.sum(axis=0).astype(np.int64)
        if first:
            searches[first] += 1
        return cls(n=n, m=m, pair=pair, searches=searches, first=first, last=last)
