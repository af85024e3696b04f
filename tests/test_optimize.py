import hashlib
import math
import random

import numpy as np
import pytest

from lazybst import (GeneratorSpec, SearchSequence, SearchStats, UsageError,
                     WeightVector, build_balanced, cost_from_frequencies, df_bound, entropy,
                     frequencies_from_sequence, generate, mehlhorn_build,
                     optimal_lazy_dp, optimal_root_dp, run_lazy_finger,
                     run_root_finger, treap_build, validate_tree, weights_from_tree)
from lazybst.fileio import write_tree
from lazybst.optimize import cut_table
from support import (_all_shapes, enumerate_optimal, optimal_lazy_naive,
                     optimal_root_naive, random_pair_stats, random_sequence,
                     stats_from_pair_counts, stitch_sequence)


def _alternating_stats():
    pair = np.zeros((4, 4), dtype=np.int64)
    pair[1, 3] = 5
    pair[3, 1] = 5
    return stats_from_pair_counts(3, pair)


def test_cut_table_matches_literal_count():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 12)
        s = random_pair_stats(rng, n)
        cut = cut_table(s)
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                literal = sum(int(s.pair[i, j]) for i in range(1, n + 1)
                              for j in range(1, n + 1)
                              if (a <= i <= b) != (a <= j <= b))
                assert cut[a - 1, b] == literal


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
            assert cost_from_frequencies(res.tree, s) == res.cost
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
        assert run_lazy_finger(res.tree, stitched).transition_cost == res.cost
        assert cost_from_frequencies(res.tree, s) == res.cost


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
        df = df_bound(w, x)
        total = 0
        for ts in range(32):
            total += cost_from_frequencies(treap_build(w, ts), s)
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
