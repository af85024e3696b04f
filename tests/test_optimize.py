import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest

from lazybst import (GeneratorSpec, InvalidInputError, SearchSequence, SearchStats,
                     UsageError, WeightVector, build_balanced, conditional_entropy,
                     df_bound, entropy, frequencies_from_sequence,
                     generate, mehlhorn_build, optimal_lazy_dp, optimal_root_dp,
                     run_lazy_finger, run_root_finger, treap_build, validate_tree,
                     weights_from_tree)
from lazybst import model
from lazybst.fileio import write_tree
from lazybst.optimize import (STEP, _bisection_depths, _cost_dtype, _cut_weights,
                              _lazy_bound)
from support import (_all_shapes, bisection_depths_exact, cut_table, enumerate_optimal,
                     mehlhorn_bisect, optimal_lazy_naive, optimal_root_naive,
                     random_pair_stats, random_sequence, root_band_misses,
                     root_table_naive, stats_from_pair_counts, stitch_sequence,
                     subtree_intervals)


def _alternating_stats():
    pair = np.zeros((4, 4), dtype=np.int64)
    pair[1, 3] = 5
    pair[3, 1] = 5
    return stats_from_pair_counts(3, pair)


def _streamed_cuts(s, dtype=None):
    """The streamed cut weights, one array a length, at ``dtype`` or else
    at the lazy DP's width."""
    return list(_cut_weights(s, dtype or _cost_dtype(_lazy_bound(s))))


def test_cut_table_matches_literal_count():
    # The oracle table against the literal count, and every streamed
    # length against the oracle's diagonal.
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 12)
        s = random_pair_stats(rng, n)
        cut = cut_table(s)
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                assert cut[a - 1, b] == _literal_cut(s, a, b)
        for ln, w in enumerate(_streamed_cuts(s), 1):
            assert w.tolist() == np.diagonal(cut, ln).tolist()


def test_streamed_cut_weights_equal_the_oracle_diagonals_at_both_widths():
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randint(1, 20)
        s = random_pair_stats(rng, n, max_count=rng.choice([1, 9, 1000]))
        assert _lazy_bound(s) < 2**31
        cut = cut_table(s)
        for dtype in (np.int32, np.int64):
            weights = _streamed_cuts(s, dtype)
            assert len(weights) == n
            for ln, w in enumerate(weights, 1):
                assert w.dtype == dtype
                assert w.tolist() == np.diagonal(cut, ln).tolist(), (n, ln, dtype)


def _dense_stream_peak(s, dtype):
    """tracemalloc's peak while the cut weights stream at the lazy DP's
    width, keeping only the first and the last length; those are checked
    after: the width, single keys against the count table, and the whole
    universe's cut of 0."""
    tracemalloc.start()
    try:
        weights = _cut_weights(s, _cost_dtype(_lazy_bound(s)))
        first = last = next(weights)
        for last in weights:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.dtype == last.dtype == dtype
    pair = s.pair
    for k in (1, 200, s.n):
        assert first[k - 1] == int(pair[k].sum() + pair[:, k].sum() - 2 * pair[k, k])
    assert last.tolist() == [0]
    return peak


def test_cut_weights_stream_from_one_table():
    n = 512
    rng = np.random.default_rng(12)
    # every transition occurs: the densest count table of n keys
    s = stats_from_pair_counts(n, rng.integers(1, 100, size=(n + 1, n + 1)))
    peak = _dense_stream_peak(s, np.int64)
    assert peak < 9 * (n + 1) ** 2, peak / (n + 1) ** 2


def _literal_cut(s, a, b):
    pair = s.pair
    n = s.n
    return sum(int(pair[i, j]) for i in range(1, n + 1) for j in range(1, n + 1)
               if (a <= i <= b) != (a <= j <= b))


def _assert_literal_cuts(s, dtype):
    for ln, w in enumerate(_streamed_cuts(s), 1):
        assert w.dtype == dtype, (s.n, ln)
        assert w.tolist() == [_literal_cut(s, a, a + ln - 1) for a in range(1, s.n - ln + 2)]


def test_cut_weights_take_the_lazy_dp_width():
    # The lazy DP's bound is 2 n (total count): int32 below 2^31.
    rng = random.Random(2033)
    for n in (1, 2, 5):
        below = (2**31 - 1) // (2 * n)
        for total, dtype in ((below, np.int32), (below + 1, np.int64)):
            s = _table_with_total(rng, n, total) if n > 1 else \
                stats_from_pair_counts(1, [[0, 0], [0, total]])
            _assert_literal_cuts(s, dtype)


def test_int32_cut_weights_stay_exact_at_the_width_extreme():
    # Every value the stream makes is at most 2 (total count) in
    # magnitude, within int32 whenever the DP's bound 2 n (total) is.
    # At n = 1 the one transition is a self-loop and crosses nothing; at
    # n = 2 the pairs between the two keys reach that magnitude.
    total = 2**30 - 1
    s = stats_from_pair_counts(1, [[0, 0], [0, total]])
    assert 2 * total < 2**31 <= 4 * total
    assert _streamed_cuts(s)[0].dtype == np.int32
    _assert_literal_cuts(s, np.int32)
    total = (2**31 - 1) // 4
    s = stats_from_pair_counts(2, [[0, 0, 0], [0, 0, total // 2], [0, total - total // 2, 0]])
    _assert_literal_cuts(s, np.int32)
    assert [w.tolist() for w in _streamed_cuts(s)] == [[total, total], [0]]


def test_int32_cut_weights_take_5_bytes_a_cell():
    n = 512
    rng = np.random.default_rng(14)
    s = stats_from_pair_counts(n, rng.integers(0, 8, size=(n + 1, n + 1)))
    assert 2 * n * int(s.count.sum()) < 2**31
    peak = _dense_stream_peak(s, np.int32)
    assert peak <= 5 * (n + 1) ** 2, peak / (n + 1) ** 2


def test_lazy_dp_tables_take_10_bytes_a_cell_at_int32_and_19_at_int64():
    n = 512
    rng = np.random.default_rng(13)
    for high, fits, per_cell in ((2, True, 10), (100, False, 19)):
        s = stats_from_pair_counts(n, rng.integers(0, high, size=(n + 1, n + 1)))
        assert (2 * n * int(s.count.sum()) < 2**31) == fits
        tracemalloc.start()
        try:
            res = optimal_lazy_dp(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= per_cell * (n + 1) ** 2, (high, peak / (n + 1) ** 2)
        assert run_lazy_finger(res.tree, s).transition_cost == res.cost


def _hot_key_stats(n, count):
    """One key, n // 2, searched ``count`` times in a row: every interval
    holding it has its root there, so the root band spans every offset."""
    pair = np.zeros((n + 1, n + 1), dtype=np.int64)
    pair[n // 2, n // 2] = count
    return stats_from_pair_counts(n, pair)


def test_optimizers_peak_at_their_checked_bytes_a_cell():
    # The figures the budget checks use: the lazy optimizer 10 bytes a
    # cell at int32 and 19 at int64, the root optimizer 6 and 11.  The
    # hot keys give the root DP its widest band.
    n = 512
    rng = np.random.default_rng(15)
    cases = [(stats_from_pair_counts(n, rng.integers(0, high, size=(n + 1, n + 1))), fits)
             for high, fits in ((2, True), (100, False))]
    cases += [(_hot_key_stats(n, 10**6), True), (_hot_key_stats(n, 10**12), False)]
    for s, fits in cases:
        lazy_cell, root_cell = (10, 6) if fits else (19, 11)
        for fn, per_cell, bound in ((optimal_lazy_dp, lazy_cell, 2 * n * int(s.count.sum())),
                                    (optimal_root_dp, root_cell, n * int(s.searches.sum()))):
            assert (bound < 2**31) == fits
            tracemalloc.start()
            try:
                fn(s)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= per_cell * (n + 1) ** 2, (fn.__name__, fits, peak / (n + 1) ** 2)


def _table_with_total(rng, n, total):
    """A count table over n keys whose counts sum to ``total``, spread
    over random pairs (a != b)."""
    cells = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    cuts = sorted(rng.randrange(total + 1) for _ in range(len(cells) - 1))
    pair = np.zeros((n + 1, n + 1), dtype=np.int64)
    for (a, b), lo, hi in zip(cells, [0] + cuts, cuts + [total]):
        pair[a, b] = hi - lo
    return stats_from_pair_counts(n, pair)


def test_dp_width_switches_at_the_bound_with_oracle_results(monkeypatch):
    # The bound is 2 n (total count) for lazy and n (total searches) for
    # root; tables just below 2^31 run at int32 and just above at int64.
    # The budget is patched to the int32 figure (lazy optimizer 10 bytes
    # a cell, root optimizer 6), which only the int32 side fits.
    rng = random.Random(2031)
    for n in (2, 3, 4):
        for factor, naive, fast, per_cell in ((2 * n, optimal_lazy_naive, optimal_lazy_dp, 10),
                                              (n, optimal_root_naive, optimal_root_dp, 6)):
            below = (2**31 - 1) // factor
            for total, fits in ((below, True), (below + 1, False)):
                s = _table_with_total(rng, n, total)
                assert int(s.searches.sum()) == int(s.count.sum()) == total
                assert (factor * total < 2**31) == fits
                want, got = naive(s), fast(s)
                assert got.cost == want.cost, (n, fast.__name__, total)
                assert write_tree(got.tree) == write_tree(want.tree)
                with monkeypatch.context() as mp:
                    mp.setattr(model, "MEMORY_BUDGET", per_cell * (n + 1) ** 2)
                    if fits:
                        assert fast(s).cost == want.cost
                    else:
                        with pytest.raises(UsageError, match=f"for n={n} needs"):
                            fast(s)
    # Costs past 2^31, which int32 tables would wrap.
    for n in (3, 4):
        s = _table_with_total(rng, n, 10**9 * n * n)
        for naive, fast in ((optimal_lazy_naive, optimal_lazy_dp),
                            (optimal_root_naive, optimal_root_dp)):
            want, got = naive(s), fast(s)
            assert want.cost >= 2**31
            assert got.cost == want.cost and write_tree(got.tree) == write_tree(want.tree)


def test_every_dp_value_stays_within_the_width_bound():
    # The kernel stores G = cost + weight of every interval under every
    # root it scores, each at most G of some tree on that interval; so
    # G of every tree on every interval must stay within the bound.
    rng = random.Random(2032)
    for _ in range(30):
        n = rng.randint(1, 6)
        s = random_pair_stats(rng, n, max_count=rng.choice([1, 9, 10**6]))
        pair = s.pair
        searches = s.searches.tolist()

        def cut(lo, hi):
            inside = np.zeros(n + 1, dtype=bool)
            inside[lo:hi + 1] = True
            return int(pair[inside][:, ~inside].sum() + pair[~inside][:, inside].sum())

        def g(shape, lo, hi, weight):
            if shape is None:
                return 0
            r, left, right = shape
            return weight(lo, hi) + g(left, lo, r - 1, weight) + g(right, r + 1, hi, weight)

        lazy_bound = 2 * n * int(s.count.sum())
        root_bound = n * sum(searches)
        memo = {}
        for lo in range(1, n + 1):
            for hi in range(lo, n + 1):
                for shape in _all_shapes(lo, hi, memo):
                    assert g(shape, lo, hi, cut) <= lazy_bound
                    assert g(shape, lo, hi, lambda a, b: sum(searches[a:b + 1])) <= root_bound
        assert optimal_lazy_dp(s).cost <= lazy_bound
        assert optimal_root_dp(s).cost <= root_bound


def test_lazy_optimizers_trivial_and_alternating():
    one = stats_from_pair_counts(1, np.zeros((2, 2), dtype=np.int64))
    for fn in (optimal_lazy_naive, optimal_lazy_dp, enumerate_optimal):
        res = fn(one)
        assert res.cost == 0 and res.tree.n == 1
    s = _alternating_stats()
    for fn in (optimal_lazy_naive, optimal_lazy_dp, enumerate_optimal):
        assert fn(s).cost == 10
    zero3 = stats_from_pair_counts(3, np.zeros((4, 4), dtype=np.int64))
    res = optimal_lazy_naive(zero3)
    assert res.cost == 0
    assert res.tree.root == 1 and res.tree.right[1] == 2 and res.tree.right[2] == 3


def test_lazy_dp_identical_to_naive_including_tree():
    rng = random.Random(303)
    for _ in range(40):
        n = rng.randint(1, 7)
        s = random_pair_stats(rng, n)
        a = optimal_lazy_naive(s)
        b = optimal_lazy_dp(s)
        assert a.cost == b.cost
        assert a.tree == b.tree


def test_oracle_triangle_small():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randint(2, 6)
        s = random_pair_stats(rng, n)
        costs = set()
        for fn in (optimal_lazy_naive, optimal_lazy_dp, enumerate_optimal):
            res = fn(s)
            assert validate_tree(res.tree)
            assert run_lazy_finger(res.tree, s).transition_cost == res.cost
            costs.add(res.cost)
        assert len(costs) == 1


def test_enumerate_counts_catalan_shapes_and_refuses_large():
    assert len(_all_shapes(1, 3, {})) == 5
    assert len(_all_shapes(1, 8, {})) == 1430
    with pytest.raises(UsageError):
        enumerate_optimal(random_pair_stats(random.Random(0), 11))
    # an explicit cap override is honored
    enumerate_optimal(random_pair_stats(random.Random(0), 4), max_n=4)


def test_recurrence_audit_against_stitched_sequences():
    rng = random.Random(2024)
    for _ in range(25):
        n = rng.randint(2, 24)
        x = random_sequence(rng, n, rng.randint(2, 300))
        s = frequencies_from_sequence(x)
        res = optimal_lazy_dp(s)
        stitched = stitch_sequence(s)
        assert run_lazy_finger(res.tree, stitched.stats).transition_cost == res.cost
        assert run_lazy_finger(res.tree, s).transition_cost == res.cost


def test_optimal_lazy_cost_separates_at_equal_entropies():
    # The paper's separation: sequential and bitrev repeat a permutation
    # (H = lg n, H_c = 0 alike), yet per search the optimal lazy cost of
    # sequential stays flat (1.758 to 1.868 measured, 1.875 at n = 4096)
    # while bitrev's rises +1.45, +1.63, +1.77, +1.86 a doubling of n.
    per_search = {}
    for kind in ("sequential", "bitrev"):
        for n in (16, 32, 64, 128, 256):
            s = generate(GeneratorSpec(kind, n, 8 * n)).stats
            assert entropy(s) == pytest.approx(math.log2(n)) and conditional_entropy(s) == 0.0
            per_search[kind, n] = optimal_lazy_dp(s).cost / s.m
    assert max(per_search["sequential", n] for n in (16, 32, 64, 128, 256)) < 1.9
    for n in (16, 32, 64, 128):
        assert per_search["bitrev", 2 * n] - per_search["bitrev", n] >= 1.25, n


def test_root_dp_worked_examples():
    one = SearchStats(1, 4, [], [], [], np.array([0, 4]), 1, 1)
    assert optimal_root_dp(one).cost == 0
    uni = SearchStats(3, 3, [], [], [], np.array([0, 1, 1, 1]), 1, 3)
    res = optimal_root_dp(uni)
    assert res.tree.root == 2 and res.cost == 2
    skew = SearchStats(3, 12, [], [], [], np.array([0, 10, 1, 1]), 1, 1)
    res = optimal_root_dp(skew)
    assert res.tree.root == 1 and res.cost == 3


def test_root_dp_cost_matches_evaluation():
    rng = random.Random(4040)
    for _ in range(15):
        n = rng.randint(1, 40)
        x = random_sequence(rng, n, rng.randint(1, 200))
        s = frequencies_from_sequence(x)
        res = optimal_root_dp(s)
        assert run_root_finger(res.tree, x).transition_cost == res.cost


def test_root_dp_equals_baseline():
    rng = random.Random(606)
    for n in (2, 3, 5, 9, 17, 33, 60, 120, 200):
        searches = np.zeros(n + 1, dtype=np.int64)
        for k in range(1, n + 1):
            searches[k] = rng.randint(0, 50)
        s = SearchStats(n, int(searches.sum()), [], [], [], searches, 1, 1)
        fast = optimal_root_dp(s)
        slow = optimal_root_naive(s)
        assert fast.cost == slow.cost
        assert fast.tree == slow.tree
        assert validate_tree(fast.tree)
        assert int((np.asarray(fast.tree.depth) * searches).sum()) == fast.cost


def _band_inputs(rng, n, top):
    """Search counts of keys 1..n, each at most ``top``, that stress the
    root DP's band: one and two hot keys, runs of unsearched keys,
    geometric counts falling and rising, and Zipf counts shuffled."""
    hot = np.zeros(n + 1, dtype=np.int64)
    hot[(n + 1) // 2] = top
    two = np.zeros(n + 1, dtype=np.int64)
    two[max(1, n // 3)] = top
    two[n - n // 4] += top // 3
    runs = np.zeros(n + 1, dtype=np.int64)
    on = True
    for k in range(1, n + 1):
        on ^= rng.random() < 0.25
        runs[k] = rng.randint(1, top) if on else 0
    down = np.array([0] + [int(top * 0.7 ** k) for k in range(n)], dtype=np.int64)
    up = np.concatenate(([0], down[:0:-1]))
    ranks = list(range(1, n + 1))
    rng.shuffle(ranks)
    zipf = np.array([0] + [top // r for r in ranks], dtype=np.int64)
    return {"hot": hot, "two-hot": two, "zero-runs": runs, "geometric-down": down,
            "geometric-up": up, "zipf": zipf}


@pytest.mark.parametrize("top", (10**4, 10**12))
def test_root_band_equals_the_full_scan(top):
    # The band holds every interval's smallest optimal root (the full
    # scan's), so the root DP gives the full scan's tree and cost, at
    # every n to three samples past the first and at n = 200; top =
    # 10^12 runs the tables at int64.
    rng = random.Random(2035)
    for n in (*range(1, 3 * STEP + 2), 200):
        for name, searches in _band_inputs(rng, n, top).items():
            total = int(searches.sum())
            if total == 0:
                continue
            assert (_cost_dtype(n * total) == np.int64) == (top > 2**31)
            s = SearchStats(n, total, [], [], [], searches, 1, 1)
            cost, root = root_table_naive(s)
            assert root_band_misses(root, STEP) == [], (name, n)
            got = optimal_root_dp(s)
            assert got.cost == int(cost[1, n]), (name, n)
            assert got.tree == optimal_root_naive(s).tree, (name, n)


def test_root_band_misses_flags_a_root_outside_the_band():
    # The check itself: a root table whose offsets jump back below the
    # last sample's least offset is flagged at that interval.
    n = 2 * STEP + 1
    root = np.zeros((n + 1, n + 1), dtype=np.int32)
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            root[a, b] = b
    assert root_band_misses(root, STEP) == []
    root[1, STEP + 1] = 1
    assert root_band_misses(root, STEP) == [(1, STEP + 1)]


# (cost, sha256 of the tree file) of each optimizer on tie-heavy inputs,
# recorded from the per-interval-loop optimizers this kernel replaced.
TIE_PINS = {
    "sequential-64": (
        (1197, "497bd33d0e54a7a525139b46c69cc8a02e097e31fc1ab6b8e1b284b31be6ae8d"),
        (2640, "9c0bd5d12e49076e6a035a46650e3b4a78607bbcc8388895160454d188d7981e")),
    "bitrev-64": (
        (4197, "c0b36e529b884d8e31450703d53e44bbde4393e231d0b13f7e5ca0fd421cb857"),
        (2640, "9c0bd5d12e49076e6a035a46650e3b4a78607bbcc8388895160454d188d7981e")),
    "markov-96": (
        (34084, "d876c75caf797ac157547d959a6758dafb335d070f63f3ff2447239d48240108"),
        (22606, "37e9649fc5d333f9d60156091d0936a83e3f91430697a9264183f2f3f5561552")),
    "zero-40": (
        (0, "7ed1be2cf1e05ec4a6f486ef07256ed07491595646fafcc9336aaf42e0f1ef15"),
        (0, "7ed1be2cf1e05ec4a6f486ef07256ed07491595646fafcc9336aaf42e0f1ef15")),
}


def _pin_stats(name):
    if name == "zero-40":
        return stats_from_pair_counts(40, np.zeros((41, 41), dtype=np.int64))
    spec = {"sequential-64": GeneratorSpec("sequential", 64, 640),
            "bitrev-64": GeneratorSpec("bitrev", 64, 640),
            "markov-96": GeneratorSpec("markov", 96, 5000, seed=5)}[name]
    return frequencies_from_sequence(generate(spec))


@pytest.mark.parametrize("name", sorted(TIE_PINS))
def test_tie_break_pins(name):
    s = _pin_stats(name)
    for fn, (cost, digest) in zip((optimal_lazy_dp, optimal_root_dp), TIE_PINS[name]):
        res = fn(s)
        assert res.cost == cost
        assert hashlib.sha256(write_tree(res.tree).encode()).hexdigest() == digest


# (cost, sha256 of the tree file) of each optimizer on inputs past the
# oracles' reach: the dp-markov benchmark's table, and a sequential scan
# whose lazy optimum is a path of depth 699, the deepest tree walk.
# Recorded from the kernel that kept a root table.
LARGE_PINS = {
    "markov-384-100000": (
        (1071538, "8b166394cce7f86d622839a4c6e2eda1f636db5ee2312413d2d0ae30fcc0695c"),
        (658205, "4442bffa93dc2ca1f78527995e7858eafbf3072367bc7e930bb975f89f1fb5ba")),
    "sequential-700-2000": (
        (3395, "4f2f216051d43db5baf3543e9bab31f6ebef9c83e5245d52df2b92752fbd7bb4"),
        (15058, "52c6a3e38d671bdb7b2080a871e30134da5cbb6304b38fe5ecf81f6874120990")),
}


@pytest.mark.parametrize("name", sorted(LARGE_PINS))
def test_large_optimizer_pins(name):
    kind, n, m = name.split("-")
    s = frequencies_from_sequence(generate(GeneratorSpec(kind, int(n), int(m), seed=1)))
    lazy, root = optimal_lazy_dp(s), optimal_root_dp(s)
    for res, (cost, digest) in zip((lazy, root), LARGE_PINS[name]):
        assert res.cost == cost
        assert hashlib.sha256(write_tree(res.tree).encode()).hexdigest() == digest
    assert max(lazy.tree.depth) == (699 if kind == "sequential" else 15)


# sha256 of the tree file of each builder, recorded from the per-builder
# interval loops that model.tree_from_splits replaced.
PIN_WEIGHTS = {"pi": [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7], "flat": [1] * 16}
BUILDER_PINS = {
    "balanced-1": "6e1e9445fd0bd0736d00d1cafb78d3c101ae577a258c5178efd9e8909f20ddb8",
    "balanced-2": "5e3fdea3fc24e80c50e17b40d3345119f1da2d782e1cee103194f4dcc856c8a4",
    "balanced-7": "3500d5122ebc6931d55b604fe83ba96ff72147be9f9cabc5d9f434daa0fa0877",
    "balanced-100": "d9e01871152ab1efccdf849d49c025f83a14d32273f0d1bb7a6fffcb282a238e",
    "mehlhorn-pi": "407349274fb488e7f7450d0c60d8325f0a7787686e3aed7e523ae3743f226333",
    "mehlhorn-flat": "d55c73acdeebf37cc8ae897514e9a4b521fa91c1ba4724112ccbb6c5dd1c9f05",
    "treap-pi-0": "92d3cd0be4c2c93a961379c65bcd548d0e9faa66e03008a0ef6bdb90ef179a29",
    "treap-pi-1": "2e7053d574d15695733b3d85c47714256113bac11d537fa8bc90dad2b70d2981",
    "treap-flat-0": "810490cb4e7288f1df029976ba1769e234bdbb0b87a3a5da1a310cb4ac5ad864",
    "treap-flat-1": "fe2fd40072bc8f7214b148a7a6a325563bb84273b8087d6ba0c7307af8344b20",
}


@pytest.mark.parametrize("name", sorted(BUILDER_PINS))
def test_builder_pins(name):
    kind, arg, *seed = name.split("-")
    if kind == "balanced":
        t = build_balanced(int(arg))
    elif kind == "mehlhorn":
        t = mehlhorn_build(WeightVector.from_values(PIN_WEIGHTS[arg]))
    else:
        t = treap_build(WeightVector.from_values(PIN_WEIGHTS[arg]), int(seed[0]))
    assert hashlib.sha256(write_tree(t).encode()).hexdigest() == BUILDER_PINS[name]


def test_mehlhorn_worked_examples():
    assert mehlhorn_build(WeightVector.from_values([1, 1, 1])).root == 2
    assert mehlhorn_build(WeightVector.from_values([3.5])).n == 1
    assert mehlhorn_build(WeightVector.from_values([8, 1, 1])).root == 1


def test_mehlhorn_roots_balance_left_and_right_weight():
    # Integer weights sum exactly: every subtree root is the first key
    # of its interval that minimizes |left weight - right weight|.
    rng = random.Random(32)
    for _ in range(200):
        n = rng.randint(1, 40)
        vals = [rng.randint(1, rng.choice([1, 3, 1000])) for _ in range(n)]
        t = mehlhorn_build(WeightVector.from_values(vals))
        for v, lo, hi in subtree_intervals(t):
            gap = [abs(sum(vals[lo - 1:r - 1]) - sum(vals[r:hi])) for r in range(lo, hi + 1)]
            assert v == lo + gap.index(min(gap)), (vals, lo, hi)


def _extreme_vectors():
    """Weights from the smallest subnormal up to a total of 2^1022."""
    rng = random.Random(33)
    vectors = [[2.0 ** 1021, 2.0 ** 1021], [2.0 ** 1022 - 2.0 ** 970, 2.0 ** -1074, 1.0],
               [5e-324] * 5, [1e-300, 1e300, 1e-300, 1e300]]
    for _ in range(300):
        top = rng.randint(-1000, 1015)
        vectors.append([math.ldexp(1 + rng.random(), rng.randint(-1074, top))
                        for _ in range(rng.randint(1, 30))])
    return vectors


def test_mehlhorn_at_extreme_magnitudes():
    """Weights from the smallest subnormal up to a total of 2^1022: each
    root has the least float gap |mid[r-1] - target| of its interval, and
    a power-of-two scale that keeps every weight normal keeps the tree."""
    for vals in _extreme_vectors():
        w = WeightVector.from_values(vals)
        t = mehlhorn_build(w)
        assert validate_tree(t)
        p = w.prefix.tolist()
        for v, lo, hi in subtree_intervals(t):
            target = p[lo - 1] + p[hi]
            gap = [abs(p[r - 1] + p[r] - target) for r in range(lo, hi + 1)]
            assert gap[v - lo] == min(gap), (vals, lo, hi)
        if min(vals) >= 2.0 ** -1000 and sum(vals) <= 2.0 ** 1000:
            for k in (-20, 20):
                assert mehlhorn_build(WeightVector.from_values(np.ldexp(vals, k))) == t
    with pytest.raises(InvalidInputError, match="at most 2\\^1022"):
        WeightVector.from_values([2.0 ** 1022, 2.0 ** 970])


def test_mehlhorn_equals_the_per_interval_float_bisect():
    # The shared kernel gives the tree the per-interval float bisect gave,
    # ties to the smaller key included, also where a weight too small to
    # change its prefix sum leaves the prefix flat.
    rng = random.Random(34)
    vectors = [*PIN_WEIGHTS.values(), *_extreme_vectors(), [1e20, 1, 1, 1, 1e20, 1, 1]]
    for _ in range(300):
        vectors.append([rng.choice([1e20, 1e-20, 1.0, 2.0, 3.0, 2.0 ** 60])
                        for _ in range(rng.randint(1, 40))])
    flat = 0
    for vals in vectors:
        w = WeightVector.from_values(vals)
        assert mehlhorn_build(w) == mehlhorn_bisect(w), vals
        flat += bool((np.diff(w.prefix) == 0).any())
    assert flat > 500


def test_bisection_kernel_is_exact_over_an_int64_prefix():
    # 2^52 + 1, 3, 1, 1: roots 2 and 3 of 2..4 tie at |left - right| = 2,
    # which float sums past 2^53 cannot see; the int64 prefix can.
    prefix = np.cumsum([0, 2**52 + 1, 3, 1, 1])
    assert prefix.dtype == np.int64
    assert _bisection_depths(prefix, np.array([0, 4])).tolist() == [0, 1, 2, 3]
    assert bisection_depths_exact([2**52 + 1, 3, 1, 1]) == [0, 1, 2, 3]


def test_mehlhorn_depth_bound_per_key():
    # depth(j) <= 2 + 1.4405 * lg(W / w_j); the true constant is
    # 1/(1 - lg(sqrt(5) - 1)) ~= 1.4404
    c = 1.4405
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 200)
        vals = [rng.randint(1, 1000) for _ in range(n)]
        t = mehlhorn_build(WeightVector.from_values(vals))
        assert validate_tree(t)
        total = sum(vals)
        for k in range(1, n + 1):
            assert t.depth[k] <= 2 + c * math.log2(total / vals[k - 1]) + 1e-9


def test_treap_determinism_and_validity():
    w = WeightVector.from_values([3, 1, 4, 1, 5, 9, 2, 6])
    a = treap_build(w, 99)
    b = treap_build(w, 99)
    assert write_tree(a) == write_tree(b)
    assert validate_tree(a)
    assert treap_build(WeightVector.from_values([7.0]), 5).n == 1
    others = [treap_build(w, seed) for seed in range(100, 108)]
    assert all(validate_tree(t) for t in others)
    assert len({write_tree(t) for t in others}) > 1  # the seed matters


def test_treap_refuses_a_negative_seed():
    with pytest.raises(UsageError, match="seed must be >= 0, got -5"):
        treap_build(WeightVector.from_values([1, 2, 3]), -5)


def test_treap_heavy_root_statistics():
    w = WeightVector.from_values([1, 10 ** 6, 1])
    hits = sum(1 for seed in range(1000) if treap_build(w, seed).root == 2)
    assert hits >= 990


def test_treap_average_within_df_bound_envelope():
    # average lazy cost over 32 seeds <= 4 * df_bound + 4m on markov workloads
    for seed in (0, 1, 2):
        x = generate(GeneratorSpec("markov", 48, 6000, seed=seed))
        s = frequencies_from_sequence(x)
        w = weights_from_tree(optimal_lazy_dp(s).tree)
        df = df_bound(w, s)
        total = 0
        for ts in range(32):
            total += run_lazy_finger(treap_build(w, ts), s).transition_cost
        assert total / 32 <= 4 * df + 4 * x.m


def test_root_sandwich_small():
    rng = random.Random(11)
    for n in (16, 64):
        counts = np.zeros(n + 1, dtype=np.int64)
        for k in range(1, n + 1):
            counts[k] = rng.randint(1, 40)
        m = int(counts.sum())
        s = SearchStats(n, m, [], [], [], counts, 1, 1)
        h = entropy(s)
        opt = optimal_root_dp(s).cost / m
        meh = run_root_finger(mehlhorn_build(WeightVector.from_values(counts[1:])),
                              stitch_all(n, counts)).transition_cost / m
        assert h / math.log2(3) - 1 <= opt + 1e-6
        assert opt <= meh + 1e-9
        assert meh <= 2 + 1.4405 * h + 1e-6


def stitch_all(n, counts):
    items = []
    for k in range(1, n + 1):
        items.extend([k] * int(counts[k]))
    return SearchSequence(n, items)
