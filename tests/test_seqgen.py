import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from lazybst import (GeneratorSpec, SearchSequence, UsageError,
                     frequencies_from_sequence, generate)
from lazybst.fileio import write_sequence
from lazybst.seqgen import CELL_BYTES, ITEM_BYTES
from support import markov_walk_oracle

_DEFAULT_RNG = np.random.default_rng


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


class _EdgeRng:
    """numpy's seeded generator, except that about a third of its uniform
    draws are replaced by values where the walk's buckets meet."""

    def __init__(self, seed, edges):
        self._rng = _DEFAULT_RNG(seed)
        self._edges = edges

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def random(self, size):
        u = self._rng.random(size)
        pick = self._rng.random(size) < 0.3
        u[pick] = self._rng.choice(self._edges, size=int(pick.sum()))
        return u


def test_markov_walk_matches_the_per_step_loop(monkeypatch):
    for n in range(1, 9):
        for c in (0.05, 0.2, 1.0):
            spec = GeneratorSpec("markov", n, 300, seed=n, concentration=c)
            assert generate(spec).items.tolist() == markov_walk_oracle(spec, _DEFAULT_RNG(n))
    # Sparse rows, rows summing to 1 - 5e-10, a zero last column and
    # concentration 0 (uniform rows), walked with uniforms that include
    # every cumulative sum and the top of [0, 1), where u passes a row's sum.
    rng = random.Random(15)
    past_the_last_column = 0
    for case in range(300):
        n, m, shape = rng.randint(1, 8), rng.randint(1, 120), case % 4
        if shape == 3:
            spec = GeneratorSpec("markov", n, m, seed=case, concentration=0.0)
            rows = np.full((n, n), 1.0) / float(n)
        else:
            rows = np.array([[rng.random() if rng.random() < 0.5 else 0.0 for _ in range(n)]
                             for _ in range(n)])
            free = n - 1 if shape == 2 and n > 1 else n
            rows[:, free:] = 0.0
            for row in rows:
                if not row.any():
                    row[rng.randrange(free)] = 1.0
            rows /= rows.sum(axis=1, keepdims=True)
            if shape == 1:
                rows *= 1 - 5e-10
            spec = GeneratorSpec("markov", n, m, seed=case, matrix=rows)
        edges = np.concatenate([rows.cumsum(axis=1).ravel(), [0.0, 1 - 2.5e-10, 1 - 2**-53]])
        edges = edges[edges < 1.0]
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _EdgeRng(seed, edges))
        want = markov_walk_oracle(spec, _EdgeRng(case, edges))
        assert generate(spec).items.tolist() == want, (case, n, shape)
        if shape == 2 and n > 1:
            past_the_last_column += want[1:].count(n)
    # Key n has probability 0 there, so only a u past a row's sum reaches it.
    assert past_the_last_column > 0


def test_generating_and_writing_stay_within_the_item_budget():
    # Both writer paths: each key's text from a table (n <= m), and
    # str() of 19-digit keys (n > m).
    m = 60000
    for spec in (GeneratorSpec("markov", 64, m, seed=1),
                 GeneratorSpec("uniform", 2**63 - 1, m, seed=1)):
        tracemalloc.start()
        try:
            x = generate(spec)
            gen_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            text = write_sequence(x)
            write_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peak = max(gen_peak, write_peak)
        assert peak <= ITEM_BYTES * m, (spec.kind, peak / m)
        # The writer holds the items, the text twice (joined, then with
        # its header) and one block of items as objects: no list of all.
        assert write_peak <= 8 * m + 2 * len(text) + 2**20, (spec.kind, write_peak / m)


def test_default_markov_matrix_stays_within_its_cell_budget():
    # n = 512 keeps the tracing to about a second; the fixed costs weigh
    # more per cell there than at n = 1024 (40.26 bytes against 40.14).
    n = 512
    tracemalloc.start()
    try:
        generate(GeneratorSpec("markov", n, 1, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= CELL_BYTES * n * n, peak / n / n


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
