import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lazybst import (InvalidInputError, SearchSequence, SearchStats, StaticTree,
                     UsageError, build_balanced, build_tree, validate_tree)
from lazybst.model import subtree_intervals, tree_from_splits
from support import (distance_matrix, lca, path_tree, random_tree, step_cost,
                     validate_tree_inorder, vee_tree, walk_step_oracle)


def test_balanced_small_shapes():
    t = build_balanced(3)
    assert t.root == 2 and t.left[2] == 1 and t.right[2] == 3
    assert t.depth[1:] == (1, 0, 1)
    t = build_balanced(7)
    assert t.root == 4
    assert t.depth[1:] == (2, 1, 2, 0, 2, 1, 2)
    t = build_balanced(1)
    assert t.root == 1 and t.depth[1] == 0


def test_balanced_height_is_complete():
    import math
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 100, 255, 256, 257):
        t = build_balanced(n)
        assert max(t.depth[1:]) == math.ceil(math.log2(n + 1)) - 1


def test_balanced_rejects_zero():
    with pytest.raises(UsageError):
        build_balanced(0)


def test_validate_tree_good_and_bad():
    t = build_balanced(5)
    assert validate_tree(t)
    # out-of-order child: left[2] = 3 breaks the search order
    bad = StaticTree(3, 1, (0, 0, 3, 0), (0, 2, 0, 0), (0, 0, 1, 2), (0, 0, 1, 2))
    assert not validate_tree(bad)
    # inconsistent depth table
    good = build_balanced(3)
    mangled = StaticTree(3, 2, good.left, good.right, (0, 1, 0, 2), good.parent)
    assert not validate_tree(mangled)


class _CountedTable(tuple):
    """A child table that counts its reads, so a walk that does not end
    fails the test instead of hanging it."""

    def __getitem__(self, i):
        self.reads[0] += 1
        assert self.reads[0] <= 10 * len(self), "walk does not end"
        return super().__getitem__(i)


@st.composite
def _tree_tables(draw):
    """Arbitrary StaticTree tables: a random BST whose child slots are
    then overwritten with keys from 0..n (cycles, shared children and
    out-of-order keys), with its derived tables kept or redrawn."""
    n = draw(st.integers(1, 9))
    base = random_tree(random.Random(draw(st.integers(0, 2 ** 32 - 1))), n)
    tabs = [list(base.left), list(base.right)]
    for _ in range(draw(st.integers(0, 2 * n))):
        tabs[draw(st.integers(0, 1))][draw(st.integers(1, n))] = draw(st.integers(0, n))
    depth, parent = base.depth, base.parent
    if draw(st.booleans()):
        depth = (0,) + tuple(draw(st.lists(st.integers(0, n), min_size=n, max_size=n)))
        parent = (0,) + tuple(draw(st.lists(st.integers(0, n), min_size=n, max_size=n)))
    root = draw(st.one_of(st.just(base.root), st.integers(0, n + 1)))
    reads = [0]
    left, right = _CountedTable(tabs[0]), _CountedTable(tabs[1])
    left.reads = right.reads = reads
    return StaticTree(n, root, left, right, depth, parent)


@settings(max_examples=400, deadline=None)
@given(_tree_tables())
def test_validate_tree_agrees_with_inorder_walk(t):
    ok = validate_tree(t)
    assert isinstance(ok, bool)
    t.left.reads[0] = 0
    assert ok == validate_tree_inorder(t)


def test_tree_from_splits_calls_split_once_per_interval_in_preorder():
    calls = []

    def lower_median(lo, hi):
        calls.append((lo, hi))
        return (lo + hi) // 2

    t = tree_from_splits(7, lower_median)
    assert calls == [(1, 7), (1, 3), (1, 1), (3, 3), (5, 7), (5, 5), (7, 7)]
    assert validate_tree(t) and t.root == 4 and t.left[4] == 2 and t.right[4] == 6
    # Random splits: subtree_intervals reads back each (root, interval)
    # pair the split chose, in the same preorder.
    rng = random.Random(7)
    for n in (1, 2, 5, 30):
        chosen = []

        def draw(lo, hi):
            chosen.append((rng.randint(lo, hi), lo, hi))
            return chosen[-1][0]

        t = tree_from_splits(n, draw)
        assert validate_tree(t)
        assert subtree_intervals(t) == chosen


def test_build_tree_rejects_broken_structures():
    with pytest.raises(ValueError):
        build_tree(3, 1, [0, 2, 0, 0], [0, 2, 0, 0])  # key 2 reached twice
    with pytest.raises(ValueError):
        build_tree(3, 1, [0, 0, 0, 0], [0, 2, 0, 0])  # key 3 unreachable
    with pytest.raises(ValueError):
        build_tree(2, 1, [0, 0, 0], [0, 5, 0])  # child out of range


def test_step_cost_worked_values():
    t = build_balanced(7)
    assert step_cost(t, 4, 7) == 2
    assert step_cost(t, 5, 3) == 4
    assert step_cost(t, 6, 6) == 0


def test_lca_and_step_cost_range_errors():
    t = build_balanced(3)
    with pytest.raises(InvalidInputError):
        lca(t, 0, 2)
    with pytest.raises(InvalidInputError):
        step_cost(t, 1, 4)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_step_cost_matches_walk_oracle_and_is_a_metric(n, seed):
    rng = random.Random(seed)
    t = random_tree(rng, n)
    keys = [rng.randint(1, n) for _ in range(6)]
    for i in keys:
        assert step_cost(t, t.root, i) == t.depth[i]
        for j in keys:
            c = step_cost(t, i, j)
            assert c == walk_step_oracle(t, i, j)
            assert c == step_cost(t, j, i)
            assert (c == 0) == (i == j)
            for k in keys:
                assert c <= step_cost(t, i, k) + step_cost(t, k, j)


def test_distance_matrix_agrees_with_step_cost():
    rng = random.Random(11)
    for t in (random_tree(rng, 17), path_tree(9), vee_tree(10), build_balanced(16)):
        dist = distance_matrix(t)
        for i in range(1, t.n + 1):
            for j in range(1, t.n + 1):
                assert dist[i, j] == step_cost(t, i, j)


def test_lca_on_path_tree():
    t = path_tree(6)
    assert lca(t, 3, 5) == 3
    assert lca(t, 6, 1) == 1
    assert step_cost(t, 1, 6) == 5


def test_sequence_validation():
    x = SearchSequence(4, [1, 4, 2])
    assert x.m == 3
    with pytest.raises(InvalidInputError, match=r"key 4 out of range 1\.\.3"):
        SearchSequence(3, [1, 4])
    with pytest.raises(InvalidInputError):
        SearchSequence(3, [0])
    with pytest.raises(InvalidInputError):
        SearchSequence(0, [])
    assert SearchSequence(5, []).m == 0


def test_stats_from_pair_counts():
    pair = np.zeros((4, 4), dtype=np.int64)
    pair[1, 3] = 5
    pair[3, 1] = 5
    s = SearchStats.from_pair_counts(3, pair)
    assert s.m == 11
    assert int(s.pair.sum()) == 10
    with pytest.raises(InvalidInputError):
        SearchStats.from_pair_counts(3, -pair)
