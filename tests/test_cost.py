import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from lazybst import (CostReport, GeneratorSpec, InvalidInputError, SearchSequence,
                     WeightVector, build_balanced, build_tree, df_bound,
                     frequencies_from_sequence, generate, run_lazy_finger, run_root_finger,
                     validate_tree, weights_from_tree)
from lazybst import cost
from lazybst.fileio import read_freq, write_freq
from lazybst.seqgen import KINDS
from support import (caterpillar_tree, closed_form_lazy_total, path_tree, random_sequence,
                     random_tree, stats_from_pair_counts, step_cost, vee_tree)


def test_root_finger_worked_examples():
    t = build_balanced(3)
    assert run_root_finger(t, SearchSequence(3, [2, 2, 2, 2])).total_with_root_start == 0
    rep = run_root_finger(t, SearchSequence(3, [1, 2, 3]))
    assert rep.transition_cost == 2
    assert rep.initial_descent == 0
    assert rep.per_search_avg == Fraction(2, 3)
    assert run_root_finger(t, SearchSequence(3, [])).total_with_root_start == 0


def test_root_finger_sums_its_blocks(monkeypatch):
    # A 7-search block: each sequence longer than that is summed over
    # several blocks, the last one short.
    monkeypatch.setattr(cost, "CODE_BLOCK", 7)
    rng = random.Random(11)
    for m in (0, 1, 7, 8, 50):
        t = random_tree(rng, 12)
        x = random_sequence(rng, 12, m)
        assert run_root_finger(t, x).transition_cost == sum(t.depth[k] for k in x.items.tolist())


def test_lazy_finger_worked_examples():
    t = build_balanced(3)
    rep = run_lazy_finger(t, SearchSequence(3, [1, 2, 3]).stats)
    assert rep.transition_cost == 2
    assert rep.initial_descent == 1
    assert rep.total_with_root_start == 3
    single = run_lazy_finger(t, SearchSequence(3, [3]).stats)
    assert single.transition_cost == 0
    assert single.initial_descent == t.depth[3]
    assert run_lazy_finger(t, SearchSequence(3, [2] * 9).stats).transition_cost == 0
    assert run_lazy_finger(t, SearchSequence(3, []).stats).total_with_root_start == 0


def test_cost_from_frequencies_worked_examples():
    pair = np.zeros((4, 4), dtype=np.int64)
    pair[1, 3] = 5
    pair[3, 1] = 5
    s = stats_from_pair_counts(3, pair)
    bent = build_tree(3, 1, [0, 0, 0, 2], [0, 3, 0, 0])
    assert run_lazy_finger(bent, s).transition_cost == 10
    assert run_lazy_finger(build_balanced(3), s).transition_cost == 20
    zero = stats_from_pair_counts(3, np.zeros((4, 4), dtype=np.int64))
    assert run_lazy_finger(bent, zero).transition_cost == 0
    # Row and column 0 of a dense table are not transitions: only
    # 3 * pathlen(2, 5) + 2 * pathlen(4, 1) counts.
    pair = np.zeros((6, 6), dtype=np.int64)
    pair[2, 5] = 3
    pair[4, 1] = 2
    pair[0, 0] = pair[0, 4] = pair[3, 0] = 1
    rep = run_lazy_finger(build_balanced(5), stats_from_pair_counts(5, pair))
    assert rep.transition_cost == 14


def test_cost_from_frequencies_rejects_non_bst():
    # root 1 -> right 3 -> right 2: key 2 sits where keys above 3 belong
    bad = build_tree(3, 1, [0, 0, 0, 0], [0, 3, 0, 2])
    s = stats_from_pair_counts(3, np.ones((4, 4), dtype=np.int64))
    with pytest.raises(InvalidInputError):
        run_lazy_finger(bad, s)
    # Neither search falls off this tree, but the tree is still no BST.
    with pytest.raises(InvalidInputError):
        run_lazy_finger(bad, SearchSequence(3, [3, 1]).stats)


def test_every_engine_refuses_depths_that_disagree_with_the_children():
    # Both costs are read from depth alone, so a depth table the child
    # tables contradict would give wrong totals (35 and 20 here, where
    # the balanced tree's are 7 and 4) instead of a refusal.
    good = build_balanced(3)
    mangled = replace(good, depth=(0, 5, 0, 5))
    x = SearchSequence(3, [1, 3, 1, 3])
    assert run_lazy_finger(good, x.stats).total_with_root_start == 7
    assert run_root_finger(good, x).total_with_root_start == 4
    for engine, arg in ((run_lazy_finger, x.stats),
                        (run_root_finger, x), (run_root_finger, SearchSequence(3, [])),
                        (run_lazy_finger, SearchSequence(3, []).stats)):
        with pytest.raises(InvalidInputError, match="depths disagree"):
            engine(mangled, arg)
    with pytest.raises(InvalidInputError, match="depths disagree"):
        weights_from_tree(mangled)


def test_an_empty_tables_descent_ignores_the_padding_slot():
    # An empty table's first key is 0, and validate_tree accepts any
    # value in depth slot 0, so the descent must not read it.
    t = replace(build_balanced(3), depth=(7, 1, 0, 1))
    assert validate_tree(t)
    for s in (SearchSequence(3, []).stats, read_freq("3 0 0 0\n0 0 0\n")):
        assert run_lazy_finger(t, s) == CostReport(0, 0, 0, 0)


def test_costs_and_bounds_read_count_tables_from_count_files():
    rng = random.Random(27)
    for kind in KINDS:
        x = generate(GeneratorSpec(kind=kind, n=32, m=300, seed=5))
        t = random_tree(rng, 32)
        w = weights_from_tree(random_tree(rng, 32))
        read = read_freq(write_freq(x.stats))
        assert run_lazy_finger(t, read) == run_lazy_finger(t, x.stats)
        assert df_bound(w, read) == df_bound(w, x.stats)
    # m = 10^12 searches, costed and bounded with no sequence built.
    s = read_freq("2 1000000000000 1 2\n500000000000 500000000000\n"
                  "1 2 500000000000\n2 1 499999999999\n")
    assert run_lazy_finger(build_balanced(2), s) == CostReport(999999999999, 1, 10**12, 1)
    assert df_bound(WeightVector.from_values([1, 1]), s) == 999999999999.0


def test_universe_mismatch_errors():
    t = build_balanced(3)
    with pytest.raises(InvalidInputError, match="universe mismatch: tree n=3, input n=4"):
        run_root_finger(t, SearchSequence(4, [1]))
    with pytest.raises(InvalidInputError, match="universe mismatch: tree n=3, input n=2"):
        run_lazy_finger(t, SearchSequence(2, [1]).stats)
    with pytest.raises(InvalidInputError, match="universe mismatch: tree n=3, input n=5"):
        run_lazy_finger(t, frequencies_from_sequence(SearchSequence(5, [1])))


def test_report_ordering_invariant():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 30)
        t = random_tree(rng, n)
        x = random_sequence(rng, n, rng.randint(0, 60))
        rep = run_lazy_finger(t, x.stats)
        assert rep.total_with_root_start >= rep.transition_cost >= 0


def test_simulation_equals_stepcost_sum_and_closed_form():
    rng = random.Random(99)
    cases = []
    for _ in range(40):
        n = rng.randint(1, 40)
        t = random_tree(rng, n)
        cases.append((t, random_sequence(rng, n, rng.randint(1, 80))))
    shapes = (path_tree, lambda n: path_tree(n, ascending=False), vee_tree,
              caterpillar_tree, build_balanced)
    for n in (64, 65, 129, 700):
        for shape in shapes:
            cases.append((shape(n), random_sequence(rng, n, rng.randint(1, 80))))
    for t, x in cases:
        rep = run_lazy_finger(t, x.stats)
        items = x.items.tolist()
        pairwise = sum(step_cost(t, a, b) for a, b in zip(items, items[1:]))
        assert rep.transition_cost == pairwise
        assert rep.total_with_root_start == closed_form_lazy_total(t, x)
        assert run_lazy_finger(t, read_freq(write_freq(frequencies_from_sequence(x)))) == rep


def test_lazy_at_most_doubled_root_finger():
    rng = random.Random(123)
    for _ in range(30):
        n = rng.randint(1, 45)
        t = random_tree(rng, n)
        x = random_sequence(rng, n, rng.randint(1, 100))
        lazy = run_lazy_finger(t, x.stats).total_with_root_start
        root = run_root_finger(t, x).transition_cost
        assert lazy <= 2 * root
