import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lazybst import (InvalidInputError, SearchSequence, StaticTree,
                     UsageError, build_balanced, build_tree, validate_tree)
from lazybst import model, optimize
from lazybst.fileio import read_freq
from lazybst.model import tree_from_splits
from lazybst.optimize import _cut_weights, optimal_lazy_dp, optimal_root_dp
from lazybst.seqgen import GeneratorSpec, frequencies_from_sequence, generate
from support import (build_tree_dfs, distance_matrix, lca, path_tree, random_pair_stats,
                     random_tree, stats_from_pair_counts, step_cost, subtree_intervals,
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
    bad = StaticTree(3, 1, (0, 0, 3, 0), (0, 2, 0, 0), (0, 0, 1, 2))
    assert not validate_tree(bad)
    # inconsistent depth table
    good = build_balanced(3)
    mangled = StaticTree(3, 2, good.left, good.right, (0, 1, 0, 2))
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
    out-of-order keys), with its depth table kept or redrawn."""
    n = draw(st.integers(1, 9))
    base = random_tree(random.Random(draw(st.integers(0, 2 ** 32 - 1))), n)
    tabs = [list(base.left), list(base.right)]
    for _ in range(draw(st.integers(0, 2 * n))):
        tabs[draw(st.integers(0, 1))][draw(st.integers(1, n))] = draw(st.integers(0, n))
    depth = base.depth
    if draw(st.booleans()):
        depth = (0,) + tuple(draw(st.lists(st.integers(0, n), min_size=n, max_size=n)))
    root = draw(st.one_of(st.just(base.root), st.integers(0, n + 1)))
    reads = [0]
    left, right = _CountedTable(tabs[0]), _CountedTable(tabs[1])
    left.reads = right.reads = reads
    return StaticTree(n, root, left, right, depth)


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


def test_tree_from_splits_refuses_a_split_outside_its_interval():
    for split in (lambda lo, hi: hi + 1,        # past the right end
                  lambda lo, hi: lo - 1,        # before the left end
                  # a key placed already, outside the right subinterval 4..5
                  lambda lo, hi: 1 if (lo, hi) == (4, 5) else (lo + hi) // 2):
        with pytest.raises(ValueError, match="outside the interval"):
            tree_from_splits(5, split)
    with pytest.raises(ValueError, match="outside the interval 1..0"):
        tree_from_splits(0, lambda lo, hi: 1)


def test_build_tree_rejects_broken_structures():
    with pytest.raises(ValueError):
        build_tree(3, 1, [0, 2, 0, 0], [0, 2, 0, 0])  # key 2 reached twice
    with pytest.raises(ValueError):
        build_tree(3, 1, [0, 0, 0, 0], [0, 2, 0, 0])  # key 3 unreachable
    with pytest.raises(ValueError):
        build_tree(2, 1, [0, 0, 0], [0, 5, 0])  # child out of range


def test_build_tree_refuses_bad_sizes_and_roots():
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        build_tree(0, 1, [0], [0])
    for root in (0, 4):
        with pytest.raises(ValueError, match="^root out of range$"):
            build_tree(3, root, [0, 0, 1, 0], [0, 0, 3, 0])
    for left, right in (([0, 0, 1], [0, 0, 3, 0]), ([0, 0, 1, 0], [0, 0, 3, 0, 0])):
        with pytest.raises(ValueError, match="^child tables must have length n \\+ 1$"):
            build_tree(3, 2, left, right)
        assert not validate_tree(StaticTree(3, 2, tuple(left), tuple(right), (0, 1, 0, 1)))
    assert validate_tree(StaticTree(3, 2, (0, 0, 1, 0), (0, 0, 3, 0), (0, 1, 0, 1)))


def test_build_tree_checks_every_child_after_the_first_out_of_place_key():
    # Key 4 lies outside 3's left interval 2..2; after it, key 3 comes
    # back as 4's right child and is named, as a key reached twice.
    with pytest.raises(ValueError, match="^key 3 reached twice$"):
        build_tree(4, 1, [0, 0, 0, 4, 2], [0, 3, 0, 0, 3])
    # Key 3 as the left child of 2 is out of place and 1 as its right
    # child too: the tables build but are no BST.
    t = build_tree(3, 2, [0, 0, 3, 0], [0, 0, 1, 0])
    assert t.depth == (0, 1, 0, 1)
    assert not validate_tree(t) and not validate_tree_inorder(t)
    # Order faults with a key past n and a key never reached.
    with pytest.raises(ValueError, match="^child key 7 out of range$"):
        build_tree(3, 2, [0, 0, 3, 0], [0, 0, 7, 0])
    with pytest.raises(ValueError, match="^tree does not reach every key$"):
        build_tree(3, 2, [0, 0, 3, 0], [0, 0, 0, 0])


@settings(max_examples=400, deadline=None)
@given(_tree_tables())
def test_build_tree_agrees_with_a_seen_and_count_walk(t):
    """Same depths, or the same ValueError text, as a depth-first walk
    that checks every child it reaches."""
    try:
        want = build_tree_dfs(t.n, t.root, t.left, t.right)
    except ValueError as e:
        with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
            build_tree(t.n, t.root, t.left, t.right)
    else:
        assert build_tree(t.n, t.root, t.left, t.right).depth == want


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


def test_sequence_refuses_items_of_more_than_one_dimension():
    with pytest.raises(InvalidInputError, match="^items must be one-dimensional$"):
        SearchSequence(3, [[1, 2]])


def test_stats_from_pair_counts():
    pair = np.zeros((4, 4), dtype=np.int64)
    pair[1, 3] = 5
    pair[3, 1] = 5
    s = stats_from_pair_counts(3, pair)
    assert s.m == 11
    assert (s.a.tolist(), s.b.tolist(), s.count.tolist()) == ([1, 3], [3, 1], [5, 5])
    assert np.array_equal(s.pair, pair)
    with pytest.raises(InvalidInputError):
        stats_from_pair_counts(3, -pair)


def test_count_table_triples_are_sorted_positive_and_read_only():
    rng = random.Random(70)
    tables = [frequencies_from_sequence(generate(GeneratorSpec(kind, n, 500, seed=seed)))
              for kind, n in (("markov", 12), ("uniform", 30), ("rounds", 9), ("bitrev", 8))
              for seed in (1, 2)]
    tables += [random_pair_stats(rng, rng.randint(1, 12)) for _ in range(20)]
    tables.append(frequencies_from_sequence(SearchSequence(4, [])))
    for s in tables:
        assert (np.diff(s.a * (s.n + 1) + s.b) > 0).all()
        assert (s.count > 0).all()
        assert ((1 <= s.a) & (s.a <= s.n) & (1 <= s.b) & (s.b <= s.n)).all()
        assert s.searches.shape == (s.n + 1,)
        for arr in (s.a, s.b, s.count, s.searches, s.pair):
            assert arr.dtype == np.int64 and not arr.flags.writeable
        # The dense view holds the triples and nothing else.
        assert s.pair.shape == (s.n + 1, s.n + 1)
        assert s.pair[s.a, s.b].tolist() == s.count.tolist()
        assert int(s.pair.sum()) == int(s.count.sum())


def test_memory_budget_refuses_before_allocating():
    n = 100_000   # an (n+1)^2 int64 table is 80 GB
    freq = f"{n} 2 1 2\n1 1" + " 0" * (n - 2) + "\n1 2 1\n"
    calls = [
        ("count table", lambda: read_freq(freq).pair),
        ("lazy optimizer tables", lambda: optimal_lazy_dp(read_freq(freq))),
        ("interval DP tables", lambda: optimal_root_dp(read_freq(freq))),
        ("sequence of m=2 searches",
         lambda: generate(GeneratorSpec("markov", n, 2, seed=0))),
    ]
    for what, call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(UsageError, match=f"{what} for n={n} needs"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the file text and its tokens, nothing of the table's size
        assert peak < 64 * 2**20, what
    # A count file lists only its transitions, so reading one needs
    # nothing of the dense table's size.
    tracemalloc.start()
    try:
        s = read_freq(freq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert (s.n, s.a.tolist(), s.b.tolist(), s.count.tolist()) == (n, [1], [2], [1])
    # Past the budget a sequence's transitions are counted by sorting:
    # memory in m and n, not n^2.
    items = [1, n, 2, n, 1, 2, n, n]
    tracemalloc.start()
    try:
        s = frequencies_from_sequence(SearchSequence(n, items))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert list(zip(s.a.tolist(), s.b.tolist(), s.count.tolist())) == \
        [(1, 2, 1), (1, n, 1), (2, n, 2), (n, 1, 1), (n, 2, 1), (n, n, 1)]
    assert (s.searches[[1, 2, n]].tolist(), s.first, s.last) == ([2, 2, 4], 1, n)


def _assert_checked_once_before_building(monkeypatch, optimizer, what, per_cell):
    """At n = 20, on a table whose DP runs at int32 and one at int64:
    ``optimizer`` makes one memory check a call; with one byte less than
    ``per_cell`` (bytes a cell at each width) it refuses before it holds
    one table at that width, and at exactly that budget it returns the
    unpatched tree."""
    n = 20
    cells = (n + 1) ** 2
    rng = np.random.default_rng(20)
    for high, itemsize, need in zip((10, 10**7), (4, 8), per_cell):
        s = stats_from_pair_counts(n, rng.integers(0, high, size=(n + 1, n + 1)))
        want = optimizer(s)
        with monkeypatch.context() as mp:
            checks = []
            mp.setattr(optimize, "check_memory",
                       lambda *args: checks.append(args[2]) or model.check_memory(*args))
            mp.setattr(model, "MEMORY_BUDGET", need * cells - 1)
            refused = ""
            tracemalloc.start()
            try:
                try:
                    optimizer(s)
                except UsageError as err:
                    refused = str(err)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert refused.startswith(f"{what} for n={n} needs {need * cells} bytes")
            assert peak < itemsize * cells, (itemsize, peak)
            mp.setattr(model, "MEMORY_BUDGET", need * cells)
            got = optimizer(s)
        assert checks == [what, what]
        assert (got.cost, got.tree) == (want.cost, want.tree)


def test_lazy_optimizer_checks_its_tables_once_before_the_cut(monkeypatch):
    # The lazy optimizer holds the pair table its cut weights stream from,
    # at the DP's width, and the DP table at once: 4 + 6 bytes a cell at
    # int32 and 8 + 11 at int64.
    _assert_checked_once_before_building(monkeypatch, optimal_lazy_dp,
                                         "lazy optimizer tables", (10, 19))


def test_root_optimizer_checks_its_table_once_before_building_it(monkeypatch):
    # The root optimizer holds only the DP table: 6 bytes a cell at int32
    # and 11 at int64.
    _assert_checked_once_before_building(monkeypatch, optimal_root_dp,
                                         "interval DP tables", (6, 11))


def test_short_sequence_over_a_large_universe_counts_by_sorting():
    # (n+1)^2 = 16 million cells for 50 searches: the dense count table
    # would take 144 MB, the sort path memory in m and n.
    n = 4000
    items = np.random.default_rng(4).integers(1, n + 1, size=50)
    tracemalloc.start()
    try:
        s = SearchSequence(n, items).stats
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    pairs = {}
    for a, b in zip(items[:-1].tolist(), items[1:].tolist()):
        pairs[a, b] = pairs.get((a, b), 0) + 1
    assert list(zip(s.a.tolist(), s.b.tolist(), s.count.tolist())) == \
        [(a, b, c) for (a, b), c in sorted(pairs.items())]
    assert s.searches.tolist() == np.bincount(items, minlength=n + 1).tolist()


def test_count_table_blocks_match_the_sort_path(monkeypatch):
    # CODE_BLOCK = 1 makes a block 4 (n+1)^2 transitions, so a longer
    # sequence is counted over several blocks, the last one short.
    rng = random.Random(72)
    for _ in range(40):
        n = rng.randint(1, 6)
        items = [rng.randint(1, n) for _ in range(rng.randint(2, 400))]
        with monkeypatch.context() as mp:
            mp.setattr(model, "CODE_BLOCK", 1)
            dense = SearchSequence(n, items).stats
            mp.setattr(model, "MEMORY_BUDGET", 9 * (n + 1) ** 2 - 1)
            sparse = SearchSequence(n, items).stats
        for name in ("a", "b", "count", "searches"):
            assert getattr(dense, name).tolist() == getattr(sparse, name).tolist(), name
        assert (dense.first, dense.last) == (sparse.first, sparse.last)


def test_dense_count_table_holds_one_block_of_codes():
    # m = 10^6 searches over 128 keys: the codes of one CODE_BLOCK
    # (2 MiB), not of the whole sequence (8 MB).
    x = SearchSequence(128, np.random.default_rng(5).integers(1, 129, size=10**6))
    tracemalloc.start()
    try:
        x.stats
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * model.CODE_BLOCK + 2**20, peak


def test_count_table_sort_path_matches_bincount(monkeypatch):
    # A budget just under 9 (n+1)^2 bytes sends stats down the sort path.
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(1, 30)
        items = [rng.randint(1, n) for _ in range(rng.choice([0, 1, 2, rng.randint(3, 300)]))]
        dense = SearchSequence(n, items).stats
        with monkeypatch.context() as mp:
            mp.setattr(model, "MEMORY_BUDGET", 9 * (n + 1) ** 2 - 1)
            sparse = SearchSequence(n, items).stats
        for name in ("a", "b", "count", "searches"):
            got = getattr(sparse, name)
            assert got.dtype == np.int64 and not got.flags.writeable
            assert got.tolist() == getattr(dense, name).tolist(), name
        assert (sparse.n, sparse.m, sparse.first, sparse.last) == \
            (dense.n, dense.m, dense.first, dense.last)
    # n = 2048 passes the count-table check, and its cut weights stream
    # at int32: keys 1 and 2048 cross two transitions, the universe none.
    s = frequencies_from_sequence(SearchSequence(2048, [1, 2048, 1]))
    weights = list(_cut_weights(s, np.int32))
    assert np.flatnonzero(weights[0]).tolist() == [0, 2047] and weights[0][0] == 2
    assert weights[-1].tolist() == [0]
