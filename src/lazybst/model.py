"""Key universes, search sequences, and static trees.

Keys are always the integers ``1..n``.  Every per-key table is a flat
array of length ``n + 1`` whose slot 0 is unused padding, and ``0`` is
the "no node" sentinel for child slots.  A count table's
transitions are the count file's sorted ``(a, b, count)`` triples of
the pairs that occur.  Both match the on-disk formats, so nothing ever
translates between representations.

A tree is its child tables plus each key's depth; both costs are
functions of depth alone, so no parent table is kept.  Every subtree of
a BST is a key interval, so a tree is a choice of root per interval:
``tree_from_splits`` turns such a choice into a tree, in one walk, and
every tree the package makes comes from it.  Child tables given from
outside, such as a tree file's, are read by one walk over the same
intervals, which ``build_tree`` and ``validate_tree`` share.

Every dense table whose size grows with n (a sequence's per-key search
counts, the dense pair view, the lazy optimizer's pair table and the DP
table, a balanced tree's tables) and every generated sequence, with a
markov walk's rows, is first checked against one memory budget,
``MEMORY_BUDGET``, by ``check_memory``.  A sequence's count table needs
no (n+1)^2 table: when that table would be large next to m or past the
budget, its transitions are counted by sorting (``SearchSequence.stats``).
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
# Transitions coded and counted at a time into a dense count table.
CODE_BLOCK = 2**18


def check_memory(n: int, nbytes: int, what: str) -> None:
    """Raise UsageError, before anything is allocated, when ``what`` for
    n keys needs more than MEMORY_BUDGET bytes."""
    if nbytes > MEMORY_BUDGET:
        raise UsageError(f"{what} for n={n} needs {nbytes} bytes, over the "
                         f"{MEMORY_BUDGET}-byte memory budget")


def check_seed(seed: int) -> None:
    """Raise UsageError for a negative seed, which numpy's generators
    reject and random.Random would take as its absolute value."""
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")


def check_universe(what: str, n: int, input_n: int) -> None:
    """Raise InvalidInputError when ``what``, over keys 1..n, meets an
    input over another universe."""
    if n != input_n:
        raise InvalidInputError(f"universe mismatch: {what} n={n}, input n={input_n}")


@dataclass(frozen=True)
class StaticTree:
    """A fixed binary search tree over keys 1..n.

    ``left``/``right`` hold child keys (0 = none) and ``depth`` the edge
    distance from the root; ``tree_from_splits`` sets it as it places
    each key, and ``build_tree`` derives it from given children.  The
    fields are not checked on construction: ``validate_tree`` does that,
    and the cost engines refuse a tree it rejects.
    """

    n: int
    root: int
    left: tuple[int, ...]
    right: tuple[int, ...]
    depth: tuple[int, ...]


def _walk(n: int, root: int, left, right) -> tuple[list, bool]:
    """The depth table of the tree the child tables hang from ``root``,
    and whether every key lay in the key interval its subtree covers.

    One walk over ``(v, lo, hi, d)``; v's children (0 is none) are read
    left then right and get depth d.  Sibling intervals are disjoint and
    a child's interval excludes its parent, so until a key falls outside
    its interval none can repeat; from then on each child must be a key
    not yet reached.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (1 <= root <= n):
        raise ValueError("root out of range")
    if len(left) != n + 1 or len(right) != n + 1:
        raise ValueError("child tables must have length n + 1")
    depth = [-1] * (n + 1)    # -1: not reached
    depth[0] = depth[root] = 0

    def fault(c: int) -> bool:
        if not (1 <= c <= n):
            raise ValueError(f"child key {c} out of range")
        if depth[c] >= 0:
            raise ValueError(f"key {c} reached twice")
        return False

    ordered = True
    stack = [(root, 1, n, 1)]
    while stack:
        v, lo, hi, d = stack.pop()
        c = left[v]
        if c:
            if not (ordered and lo <= c < v):
                ordered = fault(c)
            depth[c] = d
            stack.append((c, lo, v - 1, d + 1))
        c = right[v]
        if c:
            if not (ordered and v < c <= hi):
                ordered = fault(c)
            depth[c] = d
            stack.append((c, v + 1, hi, d + 1))
    if -1 in depth:
        raise ValueError("tree does not reach every key")
    return depth, ordered


def build_tree(n: int, root: int, left, right) -> StaticTree:
    """The tree that child tables given from outside (a tree file, a
    test) hang from ``root``, with its depth table; the package's own
    trees come from ``tree_from_splits``.  ValueError unless the tables
    are one binary tree reaching every key once (cycles, out-of-range,
    shared or unreached keys); validate_tree checks the search order.
    """
    left, right = tuple(left), tuple(right)
    return StaticTree(n, root, left, right, tuple(_walk(n, root, left, right)[0]))


def tree_from_splits(n: int, split: Callable[[int, int], int]) -> StaticTree:
    """The tree whose subtree on each key interval lo..hi is rooted at
    ``split(lo, hi)``, a key in lo..hi; ValueError for any other.

    ``split`` is called exactly once per subtree interval, in preorder
    (node, then left subinterval, then right), so a split that consumes
    random draws gives the same tree for the same generator state.  The
    intervals partition 1..n, so every key is placed exactly once, with
    its depth.
    """
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    depth = [0] * (n + 1)
    root = 0
    stack = [(1, n, 0, 0)]
    while stack:
        lo, hi, p, d = stack.pop()
        r = split(lo, hi)
        if not lo <= r <= hi:
            raise ValueError(f"split {r} outside the interval {lo}..{hi}")
        if p == 0:
            root = r
        elif r < p:
            left[p] = r
        else:
            right[p] = r
        depth[r] = d
        if r < hi:
            stack.append((r + 1, hi, r, d + 1))
        if lo < r:
            stack.append((lo, r - 1, r, d + 1))
    return StaticTree(n, root, tuple(left), tuple(right), tuple(depth))


def validate_tree(t: StaticTree) -> bool:
    """True iff t is a BST over keys 1..n whose depth table matches its
    child tables: ``_walk`` finds every key in its interval at t's depth."""
    try:
        depth, ordered = _walk(t.n, t.root, t.left, t.right)
    except ValueError:
        return False
    depth[:1] = t.depth[:1]    # slot 0 is padding, whatever it holds
    return ordered and tuple(depth) == tuple(t.depth)


def check_tree(t: StaticTree) -> None:
    """Raise InvalidInputError unless ``validate_tree(t)``: the guard of
    every function that reads a tree's depths as its costs."""
    if not validate_tree(t):
        raise InvalidInputError("tree is not a valid BST: its keys break the search "
                                "order or its depths disagree with its children")


def build_balanced(n: int) -> StaticTree:
    """Balanced tree by recursive median split; interval [lo, hi] gets
    root ceil((lo + hi) / 2)."""
    if n < 1:
        raise UsageError("n must be >= 1")
    # The only tree whose n no input of that size backs.  Three lists,
    # their tuples and a key object: 80 bytes a key (tracemalloc peak at
    # n = 10^5 and 10^6).
    check_memory(n, 80 * (n + 1), "tree tables")
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
        """Count table of the sequence, built once and shared.

        Each transition a -> b is coded a (n+1) + b.  While the dense
        (n+1)^2 table has at most two cells a search and fits the budget
        with its nonzero mask (9 bytes a cell), the codes are counted
        into it with ``np.bincount``, faster than sorting there, a block
        of max(CODE_BLOCK, 4 (n+1)^2) transitions at a time, so the
        codes of a long sequence are never all held; otherwise they are
        sorted and counted with ``np.unique``, in memory linear in m.
        """
        n, items, m = self.n, self.items, self.m
        # Once the n+1 per-key counts fit the budget, (n+1)^2 < 2^63.
        check_memory(n, 8 * (n + 1), "per-key search counts")
        first = int(items[0]) if m else 0
        if (n + 1) ** 2 > 2 * m or 9 * (n + 1) ** 2 > MEMORY_BUDGET:
            code, count = np.unique(items[:-1] * (n + 1) + items[1:], return_counts=True)
            searches = np.bincount(items, minlength=n + 1)
        else:
            cells = (n + 1) ** 2
            step = max(CODE_BLOCK, 4 * cells)
            buf = np.empty(min(step, m - 1), dtype=np.int64)
            for i in range(0, m - 1, step):
                j = min(i + step, m - 1)
                code = np.multiply(items[i:j], n + 1, out=buf[:j - i])
                code += items[i + 1:j + 1]
                if i:
                    flat += np.bincount(code, minlength=cells)
                else:
                    flat = np.bincount(code, minlength=cells)
            code = np.flatnonzero(flat != 0)   # several times faster on bools
            count = flat[code]
            # Every search but the first ends a transition: a key's
            # searches are its column of the table, plus the first.
            searches = flat.reshape(n + 1, n + 1).sum(axis=0)
            if m:
                searches[first] += 1
        a, b = np.divmod(code, n + 1)
        return SearchStats(n=n, m=m, a=a, b=b, count=count, searches=searches,
                           first=first, last=int(items[-1]) if m else 0)


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
        column 0 are zero.  Built on first use; no package function
        reads it, it is there for callers that index the table."""
        n = self.n
        check_memory(n, 8 * (n + 1) ** 2, "count table")
        pair = np.zeros((n + 1, n + 1), dtype=np.int64)
        pair[self.a, self.b] = self.count
        pair.flags.writeable = False
        return pair
