import math
import random

import numpy as np
import pytest

from lazybst import (GeneratorSpec, InvalidInputError, SearchSequence, UsageError,
                     build_multitree, conditional_entropy, frequencies_from_sequence,
                     generate, node_count, probe, run_multitree, validate_tree)
from support import random_sequence, search_costs


def test_build_examples():
    x = SearchSequence(4, [1, 2] * 10)
    s = frequencies_from_sequence(x)
    mt = build_multitree(s, 1)
    assert mt.succ[1].members == (2,)
    assert mt.succ[2].members == (1,)
    assert mt.succ[3].members == ()
    # the root key of each successor tree, 0 if none
    roots = [st.members[st.shape.root - 1] if st.shape else 0 for st in mt.succ]
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
        for i in range(1, n + 1):
            st = mt.succ[i]
            assert len(st.members) <= d
            if st.shape is not None:
                assert validate_tree(st.shape)
                assert st.shape.n == len(st.members)
            assert list(st.members) == sorted(st.members)


def test_probe_costs():
    x = SearchSequence(8, [1, 2, 1, 3, 1, 2, 1, 5, 1, 2])
    s = frequencies_from_sequence(x)
    mt = build_multitree(s, 2)
    st = mt.succ[1]
    assert st.members == (2, 3)  # counts 3, 1, 1 -> keep 2 and 3 (tie, smaller key)
    hit, c = probe(st, 2)
    assert hit and c == st.shape.depth[st.members.index(2) + 1] + 1
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
        costs = search_costs(mt, x)
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
            ti_h = (max(st.shape.depth[1:]) + 1) if st.shape is not None else 0
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
    costs = search_costs(mt, x)
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
                    assert run_multitree(mt, x) == sum(search_costs(mt, x))
                    cases += 1
    assert cases > 100
    # a structure built from another sequence: most transitions miss
    x = SearchSequence(6, [3, 3, 1, 6, 3, 3, 2])
    mt = build_multitree(frequencies_from_sequence(SearchSequence(6, [1, 2, 3, 1, 2])), 2)
    assert run_multitree(mt, x) == sum(search_costs(mt, x))
