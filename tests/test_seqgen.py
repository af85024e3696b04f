from collections import Counter

import numpy as np
import pytest

from lazybst import (GeneratorSpec, SearchSequence, UsageError,
                     frequencies_from_sequence, generate)


def test_sequential():
    x = generate(GeneratorSpec("sequential", 3, 7))
    assert x.items.tolist() == [1, 2, 3, 1, 2, 3, 1]
    assert generate(GeneratorSpec("sequential", 5, 0)).m == 0


def test_bitrev():
    x = generate(GeneratorSpec("bitrev", 4, 4))
    assert x.items.tolist() == [1, 3, 2, 4]
    x8 = generate(GeneratorSpec("bitrev", 8, 8))
    assert x8.items.tolist() == [1, 5, 3, 7, 2, 6, 4, 8]
    assert sorted(x8.items.tolist()) == list(range(1, 9))
    assert generate(GeneratorSpec("bitrev", 1, 3)).items.tolist() == [1, 1, 1]
    assert generate(GeneratorSpec("bitrev", 4, 10)).items.tolist() == [1, 3, 2, 4] * 2 + [1, 3]
    with pytest.raises(UsageError):
        generate(GeneratorSpec("bitrev", 6, 6))


def test_rounds_shape():
    spec = GeneratorSpec("rounds", 16, 40, seed=5, k=4)
    x = generate(spec)
    assert x.m == 40
    first = x.items[:4].tolist()
    assert len(set(first)) == 4
    assert set(x.items[4:20].tolist()) <= set(first)
    second = x.items[20:24].tolist()
    assert len(set(second)) == 4
    assert set(x.items[24:40].tolist()) <= set(second)


def test_rounds_default_k():
    x = generate(GeneratorSpec("rounds", 16, 100, seed=1))
    assert x.m == 100
    assert len(set(x.items[:4].tolist())) == 4  # ceil(lg 16) = 4 distinct picks
    with pytest.raises(UsageError):
        generate(GeneratorSpec("rounds", 4, 10, seed=1, k=9))


def test_markov_default_and_custom_matrix():
    x = generate(GeneratorSpec("markov", 8, 500, seed=9))
    assert x.m == 500 and 1 <= x.items.min() and x.items.max() <= 8
    ring = np.zeros((4, 4))
    for i in range(4):
        ring[i, (i + 1) % 4] = 1.0
    y = generate(GeneratorSpec("markov", 4, 50, seed=0, matrix=ring))
    items = y.items.tolist()
    for a, b in zip(items, items[1:]):
        assert b == a % 4 + 1
    bad = np.full((3, 3), 0.5)
    with pytest.raises(UsageError):
        generate(GeneratorSpec("markov", 3, 10, seed=0, matrix=bad))


def test_markov_refuses_a_matrix_of_the_wrong_shape_or_sign():
    ring = np.roll(np.eye(3), 1, axis=1)
    cases = ((np.eye(2), "must be 3 x 3"), (ring[:2], "must be 3 x 3"),
             (ring.ravel(), "must be 3 x 3"),
             (np.where(ring == 0, -0.5, 1.0), "entries must be nonnegative"),
             (np.where(np.eye(3) == 1, np.nan, ring), "entries must be nonnegative"),
             (np.array([[1e308, 1e308, 0], [0, 0, 1], [1, 0, 0]]), "rows must sum to 1"))
    for matrix, message in cases:
        with pytest.raises(UsageError, match=message):
            generate(GeneratorSpec("markov", 3, 10, seed=0, matrix=matrix))


def test_uniform_and_seed_determinism():
    for kind in ("uniform", "markov", "rounds"):
        a = generate(GeneratorSpec(kind, 12, 300, seed=77))
        b = generate(GeneratorSpec(kind, 12, 300, seed=77))
        assert a.items.tolist() == b.items.tolist()
        c = generate(GeneratorSpec(kind, 12, 300, seed=78))
        assert c.m == 300


def test_generate_rejects_bad_sizes():
    with pytest.raises(UsageError):
        generate(GeneratorSpec("uniform", 0, 5, seed=1))
    with pytest.raises(UsageError):
        generate(GeneratorSpec("uniform", 5, -1, seed=1))
    with pytest.raises(UsageError):
        generate(GeneratorSpec("nope", 5, 5, seed=1))


def test_frequencies_postconditions():
    x = SearchSequence(4, [2, 3, 2, 2, 4])
    s = frequencies_from_sequence(x)
    assert s.m == 5 and s.first == 2 and s.last == 4
    assert s.searches[1:].tolist() == [0, 3, 1, 1]
    assert (s.a.tolist(), s.b.tolist(), s.count.tolist()) == \
        ([2, 2, 2, 3], [2, 3, 4, 2], [1, 1, 1, 1])
    assert int(s.pair.sum()) == 4
    assert s.pair[2, 3] == 1 and s.pair[3, 2] == 1 and s.pair[2, 2] == 1 \
        and s.pair[2, 4] == 1
    empty = frequencies_from_sequence(SearchSequence(3, []))
    assert empty.m == 0 and empty.first == 0 and empty.last == 0
    assert empty.a.size == empty.b.size == empty.count.size == 0
    assert int(empty.pair.sum()) == 0
    # Built once per sequence and shared, so nothing may write to it.
    assert frequencies_from_sequence(x) is s and x.stats is s
    for arr in (s.a, s.b, s.count, s.pair, s.searches, x.items):
        with pytest.raises(ValueError):
            arr[1] = 0


def test_frequencies_marginal_identities():
    import random
    rng = random.Random(10)
    for _ in range(30):
        n = rng.randint(1, 20)
        m = rng.randint(1, 300)
        x = SearchSequence(n, [rng.randint(1, n) for _ in range(m)])
        s = frequencies_from_sequence(x)
        assert int(s.searches.sum()) == m
        assert int(s.pair.sum()) == m - 1
        items = x.items.tolist()
        literal = Counter(zip(items, items[1:]))
        assert list(zip(s.a.tolist(), s.b.tolist(), s.count.tolist())) == \
            [(a, b, c) for (a, b), c in sorted(literal.items())]
        for a in range(1, n + 1):
            out_a = int(s.pair[a].sum())
            in_a = int(s.pair[:, a].sum())
            occ = int(s.searches[a])
            assert out_a == occ - (1 if a == s.last else 0)
            assert in_a == occ - (1 if a == s.first else 0)
