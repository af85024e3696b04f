import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lazybst import (GeneratorSpec, InvalidInputError, SearchSequence, SearchStats,
                     WeightVector, build_balanced, build_tree, conditional_entropy,
                     df_bound, entropy, frequencies_from_sequence, generate,
                     run_lazy_finger, weights_from_tree)
from support import (caterpillar_tree, distance_matrix, exact_weight_inequality_holds,
                     path_tree, random_sequence, random_tree, stats_from_pair_counts,
                     vee_tree)


def _stats_from_counts(counts):
    n = len(counts)
    m = int(sum(counts))
    searches = np.zeros(n + 1, dtype=np.int64)
    searches[1:] = counts
    return SearchStats(n=n, m=m, a=[], b=[], count=[],
                       searches=searches, first=1 if m else 0, last=1 if m else 0)


def test_entropy_examples():
    assert entropy(_stats_from_counts([3, 3, 3, 3])) == 2.0
    assert entropy(_stats_from_counts([0, 7, 0])) == 0.0
    got = entropy(_stats_from_counts([1, 3]))
    want = 0.25 * math.log2(4) + 0.75 * math.log2(4 / 3)
    assert abs(got - want) < 1e-12
    assert abs(got - 0.811278) < 1e-6


def test_entropy_bounds_and_errors():
    with pytest.raises(InvalidInputError):
        entropy(_stats_from_counts([0, 0]))
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 50)
        counts = [rng.randint(0, 20) for _ in range(n)]
        if sum(counts) == 0:
            counts[0] = 1
        h = entropy(_stats_from_counts(counts))
        assert -1e-12 <= h <= math.log2(n) + 1e-12 if n > 1 else h == 0.0


def test_conditional_entropy_examples():
    x = generate(GeneratorSpec("bitrev", 8, 40))
    assert conditional_entropy(frequencies_from_sequence(x)) == 0.0
    pair = np.full((3, 3), 4, dtype=np.int64)
    pair[0, :] = 0
    pair[:, 0] = 0
    s = stats_from_pair_counts(2, pair)
    assert abs(conditional_entropy(s) - 1.0) < 1e-12
    single = np.zeros((3, 3), dtype=np.int64)
    single[1, 2] = 1
    assert conditional_entropy(stats_from_pair_counts(2, single)) == 0.0


def test_conditional_entropy_needs_two_searches():
    with pytest.raises(InvalidInputError):
        conditional_entropy(frequencies_from_sequence(SearchSequence(3, [2])))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=2, max_size=12), st.randoms())
def test_entropy_invariant_under_count_relabeling(counts, pyrng):
    if sum(counts) == 0:
        counts[0] = 1
    shuffled = counts[:]
    pyrng.shuffle(shuffled)
    assert abs(entropy(_stats_from_counts(counts))
               - entropy(_stats_from_counts(shuffled))) < 1e-9


def test_conditional_entropy_invariant_under_key_permutation():
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(2, 12)
        x = random_sequence(rng, n, rng.randint(2, 200))
        s = frequencies_from_sequence(x)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        relabel = {k: p for k, p in zip(range(1, n + 1), perm)}
        y = SearchSequence(n, [relabel[v] for v in x.items.tolist()])
        sy = frequencies_from_sequence(y)
        assert abs(conditional_entropy(s) - conditional_entropy(sy)) < 1e-9


def test_conditional_at_most_marginal_entropy():
    # destination-marginal data-processing check on Markov workloads
    for seed in range(8):
        x = generate(GeneratorSpec("markov", 32, 4000, seed=seed))
        s = frequencies_from_sequence(x)
        dest = s.pair.sum(axis=0)
        t = int(dest.sum())
        p = dest[dest > 0] / t
        h_dest = float(-(p * np.log2(p)).sum())
        assert conditional_entropy(s) <= h_dest + 1e-9


def test_weights_from_tree_examples():
    single = build_tree(1, 1, [0, 0], [0, 0])
    assert weights_from_tree(single).w[1] == 1.0
    w3 = weights_from_tree(build_balanced(3))
    assert w3.w[1:].tolist() == [0.25, 1.0, 0.25]
    wpath = weights_from_tree(path_tree(3, ascending=False))
    assert wpath.w[1:].tolist() == [1 / 16, 1 / 4, 1.0]


def test_weight_vector_rejects_nonpositive():
    with pytest.raises(InvalidInputError):
        WeightVector.from_values([1.0, 0.0])
    with pytest.raises(InvalidInputError):
        WeightVector.from_values([])


def test_df_bound_examples():
    assert df_bound(WeightVector.from_values([1, 1, 1]),
                    SearchSequence(3, [2, 2])) == 0.0
    assert df_bound(WeightVector.from_values([1, 1, 1, 1]),
                    SearchSequence(4, [1, 4])) == 2.0
    assert df_bound(WeightVector.from_values([1, 2, 1]),
                    SearchSequence(3, [1, 3])) == 2.0
    assert df_bound(WeightVector.from_values([5, 5]), SearchSequence(2, [1])) == 0.0


def test_df_bound_errors():
    with pytest.raises(InvalidInputError, match="universe mismatch: weights n=2, input n=3"):
        df_bound(WeightVector.from_values([1, 1]), SearchSequence(3, [1, 2]))
    with pytest.raises(InvalidInputError):
        df_bound(WeightVector.from_values([1, 1]), SearchSequence(2, []))


def test_df_bound_matches_the_sum_over_consecutive_pairs():
    # df_bound sums count * term over the distinct transitions; the
    # reference sums one term per consecutive pair, in sequence order.
    # Float64 sums in another order agree to a few ulps per term.
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(1, 30)
        span = rng.choice([1, 20, 200])
        w = WeightVector.from_values([10.0 ** rng.uniform(-span, span) for _ in range(n)])
        pool = [rng.randint(1, n) for _ in range(rng.randint(1, 4))]
        items = [rng.choice(pool) for _ in range(rng.randint(1, 400))]
        expect = 0.0
        for a, b in zip(items, items[1:]):
            if a != b:
                lo, hi = min(a, b), max(a, b)
                wa, wb = float(w.w[a]), float(w.w[b])
                total = max(float(w.prefix[hi] - w.prefix[lo - 1]), wa + wb)
                expect += math.log2(total) - math.log2(min(wa, wb))
        assert math.isclose(df_bound(w, SearchSequence(n, items)), expect,
                            rel_tol=1e-12, abs_tol=1e-12)


def test_df_bound_terms_nonnegative_even_for_wild_weights():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 40)
        vals = [10.0 ** rng.uniform(-200, 200) for _ in range(n)]
        w = WeightVector.from_values(vals)
        for _ in range(10):
            a, b = rng.randint(1, n), rng.randint(1, n)
            assert df_bound(w, SearchSequence(n, [a, b])) >= 0.0


def test_weight_inequality_exact_on_random_and_pathological_trees():
    rng = random.Random(42)
    trees = [random_tree(rng, rng.randint(1, 64)) for _ in range(30)]
    trees += [path_tree(50), path_tree(50, ascending=False), vee_tree(63),
              vee_tree(64), caterpillar_tree(49), caterpillar_tree(50)]
    for t in trees:
        assert exact_weight_inequality_holds(t, distance_matrix(t))


def test_lazy_cost_at_most_df_bound_of_own_weights():
    rng = random.Random(1234)
    for _ in range(25):
        n = rng.randint(1, 50)
        t = random_tree(rng, n)
        x = random_sequence(rng, n, rng.randint(1, 150))
        w = weights_from_tree(t)
        assert run_lazy_finger(t, x).transition_cost <= df_bound(w, x) + 1e-9
