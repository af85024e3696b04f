import math
import random
import tracemalloc

import numpy as np
import pytest

from lazybst import (GeneratorSpec, InvalidInputError, SearchSequence, UsageError,
                     build_multitree, conditional_entropy, frequencies_from_sequence,
                     generate, node_count, probe, run_multitree, validate_tree)
from lazybst.fileio import read_freq, write_freq
from support import (bisection_depths_exact, random_sequence, search_costs,
                     stats_from_pair_counts, successor_shapes, successor_trees_loop,
                     walk_probe)


def test_build_examples():
    x = SearchSequence(4, [1, 2] * 10)
    s = frequencies_from_sequence(x)
    mt = build_multitree(s, 1)
    assert mt.succ[1].members == (2,)
    assert mt.succ[2].members == (1,)
    assert mt.succ[3].members == ()
    # the root key of each successor tree, 0 if none
    roots = [st.members[st.depths.index(0)] if st.members else 0 for st in mt.succ]
    assert roots[1] == 2 and roots[2] == 1 and roots[3] == 0
    total = run_multitree(mt, x)
    assert total == (mt.global_tree.depth[1] + 1) + (x.m - 1) * 1


def test_build_capacity_not_binding():
    rng = random.Random(2)
    x = random_sequence(rng, 5, 400)
    s = frequencies_from_sequence(x)
    # with enough data every pair occurs; d = n keeps all successors
    if not (s.pair[1:, 1:] > 0).all():
        x = SearchSequence(5, list(range(1, 6)) * 5 + x.items.tolist())
        s = frequencies_from_sequence(x)
    mt = build_multitree(s, 5)
    for i in range(1, 6):
        expect = tuple(j for j in range(1, 6) if s.pair[i, j] > 0)
        assert mt.succ[i].members == expect


def test_d_out_of_range():
    s = frequencies_from_sequence(SearchSequence(3, [1, 2, 3]))
    with pytest.raises(UsageError):
        build_multitree(s, 0)
    with pytest.raises(UsageError):
        build_multitree(s, 4)


def test_single_search_and_mismatch():
    x = SearchSequence(7, [5])
    mt = build_multitree(frequencies_from_sequence(x), 2)
    assert run_multitree(mt, x) == mt.global_tree.depth[5] + 1
    with pytest.raises(InvalidInputError):
        run_multitree(mt, SearchSequence(6, [1]))


def test_top_d_selection_tie_breaks_smaller_key():
    # key 1 goes to 2, 3, 4 equally often; top-2 must keep {2, 3}
    x = SearchSequence(4, [1, 2, 1, 3, 1, 4, 1, 2, 1, 3, 1, 4])
    s = frequencies_from_sequence(x)
    mt = build_multitree(s, 2)
    assert mt.succ[1].members == (2, 3)


def test_succ_trees_are_valid_and_small():
    rng = random.Random(55)
    for _ in range(10):
        n = rng.randint(2, 40)
        x = random_sequence(rng, n, rng.randint(2, 600))
        s = frequencies_from_sequence(x)
        d = rng.randint(1, n)
        mt = build_multitree(s, d)
        assert node_count(mt) <= n * (d + 1)
        shapes = successor_shapes(mt, s)
        for i in range(1, n + 1):
            st = mt.succ[i]
            assert len(st.members) <= d
            assert len(st.depths) == len(st.members)
            if st.members:
                # the weight-bisection tree over the kept counts
                assert validate_tree(shapes[i])
                assert st.depths == shapes[i].depth[1:]
            assert list(st.members) == sorted(st.members)


def test_probe_costs():
    x = SearchSequence(8, [1, 2, 1, 3, 1, 2, 1, 5, 1, 2])
    s = frequencies_from_sequence(x)
    mt = build_multitree(s, 2)
    st = mt.succ[1]
    assert st.members == (2, 3)  # counts 3, 1, 1 -> keep 2 and 3 (tie, smaller key)
    hit, c = probe(st, 2)
    assert hit and c == st.depths[st.members.index(2)] + 1
    miss, c = probe(st, 7)
    assert not miss and c >= 1
    assert probe(mt.succ[4], 1) == (False, 0)  # key 4 never searched: empty tree


def test_miss_ranking_property_and_miss_cost_bound():
    rng = random.Random(88)
    for _ in range(10):
        n = rng.randint(4, 32)
        x = random_sequence(rng, n, rng.randint(10, 400))
        s = frequencies_from_sequence(x)
        d = rng.randint(1, max(1, n // 2))
        mt = build_multitree(s, d)
        gh = max(mt.global_tree.depth[1:])
        items = x.items.tolist()
        costs = search_costs(mt, s, x)
        for idx in range(1, len(items)):
            i, j = items[idx - 1], items[idx]
            st = mt.succ[i]
            if j in st.members:
                continue
            # ranking: a missed successor cannot outrank the kept ones
            row = s.pair[i]
            if len(st.members) == d:
                kept_min = min(int(row[k]) for k in st.members)
                assert int(row[j]) <= kept_min
            else:
                # under capacity every nonzero successor was kept
                assert int(row[j]) == 0
            # height bounds of both phases cap the miss cost
            ti_h = max(st.depths, default=-1) + 1
            assert costs[idx] <= ti_h + gh + 1


def test_all_hit_workload_average_tracks_conditional_entropy():
    # d = n on a low-entropy chain: avg comparisons stays near H_c-scale
    x = generate(GeneratorSpec("markov", 32, 20000, seed=3))
    s = frequencies_from_sequence(x)
    mt = build_multitree(s, 32)
    hc = conditional_entropy(s)
    avg = run_multitree(mt, x) / x.m
    assert avg <= 2 + 1.4405 * hc + 2 + 1e-9


def test_miss_bound_example_all_distinct():
    # a sequence that never repeats a transition: every probe after the
    # first either misses or hits a count-1 tree
    n = 16
    x = SearchSequence(n, list(range(1, n + 1)))
    s = frequencies_from_sequence(x)
    mt = build_multitree(s, 4)
    costs = search_costs(mt, s, x)
    cap = math.ceil(math.log2(4 + 1)) + math.ceil(math.log2(n + 1)) + 1
    assert all(c <= cap for c in costs[1:])


def test_count_table_total_equals_per_search_walk():
    rng = random.Random(5)
    cases = 0
    for n in (1, 2, 3, 9, 40):
        for m in (0, 1, 2, 3, 50, 600):
            # a few distinct keys leave most keys without a successor tree
            # and make self-transitions common
            pool = [rng.randint(1, n) for _ in range(rng.randint(1, 3))]
            for items in ([rng.randint(1, n) for _ in range(m)],
                          [rng.choice(pool) for _ in range(m)]):
                x = SearchSequence(n, items)
                s = frequencies_from_sequence(x)
                for d in sorted({1, n, rng.randint(1, n)}):
                    mt = build_multitree(s, d)
                    assert run_multitree(mt, x) == sum(search_costs(mt, s, x))
                    cases += 1
    assert cases > 100
    # a structure built from another sequence: most transitions miss
    x = SearchSequence(6, [3, 3, 1, 6, 3, 3, 2])
    s = frequencies_from_sequence(SearchSequence(6, [1, 2, 3, 1, 2]))
    mt = build_multitree(s, 2)
    assert run_multitree(mt, x) == sum(search_costs(mt, s, x))


def test_every_transition_costs_its_probe_plus_the_miss_descent():
    # probe equals the walk down the rebuilt successor tree, and
    # run_multitree on the two searches a, b costs the descent to a plus
    # that walk alone.
    rng = random.Random(8)
    checked = misses_outside = no_successors = 0
    for n in (1, 2, 5, 17, 40):
        for kind in ("all", "few"):
            if kind == "all":
                x = random_sequence(rng, n, rng.randint(1, 8 * n))
            else:
                # a few keys leave most keys without a successor tree
                pool = [rng.randint(1, n) for _ in range(3)]
                x = SearchSequence(n, [rng.choice(pool) for _ in range(30)])
            s = frequencies_from_sequence(x)
            for d in sorted({1, min(3, n), n}):
                mt = build_multitree(s, d)
                gdepth = mt.global_tree.depth
                shapes = successor_shapes(mt, s)
                for a in range(1, n + 1):
                    members = mt.succ[a].members
                    for b in range(1, n + 1):
                        hit, comparisons = walk_probe(shapes[a], members, b)
                        assert probe(mt.succ[a], b) == (hit, comparisons), (n, d, a, b)
                        expect = comparisons if hit else comparisons + gdepth[b] + 1
                        got = run_multitree(mt, SearchSequence(n, [a, b])) - gdepth[a] - 1
                        assert got == expect, (n, d, a, b)
                        checked += 1
                        no_successors += not members
                        if members and not hit and not members[0] < b < members[-1]:
                            misses_outside += 1
    assert checked > 5000 and misses_outside > 100 and no_successors > 100


def test_flat_build_equals_the_per_key_loop():
    # Few distinct counts (so ties in rank and in bisection abound),
    # self-transitions, keys with no successors, and tables with no
    # transitions at all (m = 1).
    rng = random.Random(20)
    no_transitions = self_loops = no_successors = 0
    for _ in range(320):
        n = rng.randint(1, 24)
        pair = np.zeros((n + 1, n + 1), dtype=np.int64)
        if rng.random() < 0.9:
            values = [rng.randint(1, 40) for _ in range(rng.randint(1, 3))]
            for a in rng.sample(range(1, n + 1), rng.randint(1, n)):
                for b in range(1, n + 1):
                    if rng.random() < 0.6:
                        pair[a, b] = rng.choice(values)
        s = stats_from_pair_counts(n, pair, first=rng.randint(1, n))
        no_transitions += s.a.size == 0
        self_loops += bool((s.a == s.b).any())
        no_successors += n - np.unique(s.a).size
        for d in sorted({1, min(2, n), n, rng.randint(1, n)}):
            mt = build_multitree(s, d)
            assert mt.succ == successor_trees_loop(s, d), (n, d)
            assert node_count(mt) == n + sum(len(st.members) for st in mt.succ)
    assert no_transitions > 20 and self_loops > 200 and no_successors > 1000


def test_bisection_is_exact_past_2_to_the_53():
    # Per-key totals past 2^53, where float prefix sums round, read from a
    # count file; a few distinct counts make near-ties of |left - right|.
    rng = random.Random(53)
    checked = 0
    for _ in range(40):
        n = rng.randint(3, 5)
        big = [2**53 + rng.randint(0, 7) for _ in range(3)]
        values = big + [rng.randint(1, 9)]
        pair = np.zeros((n + 1, n + 1), dtype=np.int64)
        for a in range(1, n + 1):
            pair[a, a] = rng.choice(big)
            for b in range(a + 1, n + 1):   # symmetric: every key's in and out agree
                pair[a, b] = pair[b, a] = rng.choice(values)
        s = read_freq(write_freq(stats_from_pair_counts(n, pair, first=1, last=1)))
        count = dict(zip(zip(s.a.tolist(), s.b.tolist()), s.count.tolist()))
        assert min(sum(count[a, b] for b in range(1, n + 1)) for a in range(1, n + 1)) > 2**53
        for d in range(1, n + 1):
            for a, st in enumerate(build_multitree(s, d).succ[1:], start=1):
                # Each root checked in Python integers.
                assert list(st.depths) == bisection_depths_exact([count[a, b] for b in st.members])
                checked += len(st.members)
    assert checked > 1500


def test_build_holds_under_23_bytes_a_kept_member():
    # The members, their depths and the offsets, plus the global tree: at
    # uniform n = 10^5, m = 10^6, d = 16 tracemalloc reads 22.4 bytes a
    # kept member.  The successor-tree view is not built.  The peak, 57.4
    # bytes a kept member, is the bisection's, entered holding only the
    # members, offsets and prefix sums.
    x = generate(GeneratorSpec("uniform", 10**5, 10**6, seed=1))
    s = frequencies_from_sequence(x)
    tracemalloc.start()
    try:
        mt = build_multitree(s, 16)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = node_count(mt) - mt.n
    assert kept > 990_000 and "succ" not in vars(mt)
    assert held < 23 * kept
    assert peak < 62 * kept
