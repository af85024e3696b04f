import random
from fractions import Fraction

import numpy as np
import pytest

from lazybst import (InvalidInputError, SearchSequence,
                     build_balanced, build_tree, cost_from_frequencies,
                     frequencies_from_sequence, run_lazy_finger, run_root_finger)
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


def test_lazy_finger_worked_examples():
    t = build_balanced(3)
    rep = run_lazy_finger(t, SearchSequence(3, [1, 2, 3]))
    assert rep.transition_cost == 2
    assert rep.initial_descent == 1
    assert rep.total_with_root_start == 3
    single = run_lazy_finger(t, SearchSequence(3, [3]))
    assert single.transition_cost == 0
    assert single.initial_descent == t.depth[3]
    assert run_lazy_finger(t, SearchSequence(3, [2] * 9)).transition_cost == 0
    assert run_lazy_finger(t, SearchSequence(3, [])).total_with_root_start == 0


def test_cost_from_frequencies_worked_examples():
    pair = np.zeros((4, 4), dtype=np.int64)
    pair[1, 3] = 5
    pair[3, 1] = 5
    s = stats_from_pair_counts(3, pair)
    bent = build_tree(3, 1, [0, 0, 0, 2], [0, 3, 0, 0])
    assert cost_from_frequencies(bent, s) == 10
    assert cost_from_frequencies(build_balanced(3), s) == 20
    zero = stats_from_pair_counts(3, np.zeros((4, 4), dtype=np.int64))
    assert cost_from_frequencies(bent, zero) == 0
    # Row and column 0 of a dense table are not transitions: only
    # 3 * pathlen(2, 5) + 2 * pathlen(4, 1) counts.
    pair = np.zeros((6, 6), dtype=np.int64)
    pair[2, 5] = 3
    pair[4, 1] = 2
    pair[0, 0] = pair[0, 4] = pair[3, 0] = 1
    assert cost_from_frequencies(build_balanced(5), stats_from_pair_counts(5, pair)) == 14


def test_cost_from_frequencies_rejects_non_bst():
    # root 1 -> right 3 -> right 2: key 2 sits where keys above 3 belong
    bad = build_tree(3, 1, [0, 0, 0, 0], [0, 3, 0, 2])
    s = stats_from_pair_counts(3, np.ones((4, 4), dtype=np.int64))
    with pytest.raises(InvalidInputError):
        cost_from_frequencies(bad, s)
    # Neither search falls off this tree, but the tree is still no BST.
    with pytest.raises(InvalidInputError):
        run_lazy_finger(bad, SearchSequence(3, [3, 1]))


def test_universe_mismatch_errors():
    t = build_balanced(3)
    with pytest.raises(InvalidInputError):
        run_root_finger(t, SearchSequence(4, [1]))
    with pytest.raises(InvalidInputError):
        run_lazy_finger(t, SearchSequence(2, [1]))
    with pytest.raises(InvalidInputError):
        cost_from_frequencies(t, frequencies_from_sequence(SearchSequence(5, [1])))


def test_report_ordering_invariant():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 30)
        t = random_tree(rng, n)
        x = random_sequence(rng, n, rng.randint(0, 60))
        rep = run_lazy_finger(t, x)
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
        rep = run_lazy_finger(t, x)
        items = x.items.tolist()
        pairwise = sum(step_cost(t, a, b) for a, b in zip(items, items[1:]))
        assert rep.transition_cost == pairwise
        assert rep.total_with_root_start == closed_form_lazy_total(t, x)
        assert rep.transition_cost == cost_from_frequencies(t, frequencies_from_sequence(x))


def test_lazy_at_most_doubled_root_finger():
    rng = random.Random(123)
    for _ in range(30):
        n = rng.randint(1, 45)
        t = random_tree(rng, n)
        x = random_sequence(rng, n, rng.randint(1, 100))
        lazy = run_lazy_finger(t, x).total_with_root_start
        root = run_root_finger(t, x).transition_cost
        assert lazy <= 2 * root
