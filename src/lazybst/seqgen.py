"""Workload generators, and ``frequencies_from_sequence``, the count
table of a sequence (built once per ``SearchSequence``, see its ``stats``).

All randomized kinds draw from numpy's default_rng seeded with the
given seed, so a (kind, parameters, seed) triple always reproduces the
same sequence byte for byte.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .model import SearchSequence, SearchStats, check_memory

KINDS = ("sequential", "bitrev", "rounds", "markov", "uniform")
RANDOM_KINDS = ("rounds", "markov", "uniform")

# Peak bytes per item of generating a sequence and writing it as text.
# tracemalloc measured at most 72.4, for a markov walk whose keys pass
# 256 (an int object a step; n = 1024, m = 3 million, its rows
# included), against 47.8 writing 19-digit keys (the items and twice the
# text) and 40.8 for a markov walk over keys below 257.
ITEM_BYTES = 73

# Peak bytes per cell of a markov walk's rows: its cumulative rows as an
# array and as Python floats (a default matrix's draw and normalized copy
# are freed first); tracemalloc measured 40.14 at n = 1024 for the
# default and for an explicit matrix.  The walk holds the rows with its
# items, so one check charges both.
CELL_BYTES = 41


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    kind: str
    n: int
    m: int
    seed: int = 0
    k: int | None = None                # rounds: distinct keys per round
    matrix: np.ndarray | None = None    # markov: row-stochastic (n, n)
    concentration: float | None = None  # markov: Dirichlet parameter of default rows, 0.2 if None


def _default_matrix(rng: np.random.Generator, n: int, concentration: float) -> np.ndarray:
    if not 0.0 <= concentration < math.inf:
        raise UsageError(f"concentration must be nonnegative and finite, got {concentration}")
    # Normalized Gamma rows == Dirichlet rows; one matrix-shaped draw
    # keeps the byte layout of the randomness fixed.
    g = rng.gamma(concentration, 1.0, size=(n, n))
    with np.errstate(over="ignore"):
        sums = g.sum(axis=1)
    # Finite draws near the float maximum can sum past it; those rows
    # alone are scaled by their max first, so every other row is unchanged.
    big = ~np.isfinite(sums)
    if big.any():
        g[big] /= g[big].max(axis=1, keepdims=True)
        sums[big] = g[big].sum(axis=1)
    for i in np.nonzero(sums == 0.0)[0]:  # float underflow only; keep deterministic
        g[i, :] = 1.0
        sums[i] = float(n)
    return g / sums[:, None]


def _check_matrix(matrix: np.ndarray, n: int) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (n, n):
        raise UsageError(f"transition matrix must be {n} x {n}")
    if not np.all(np.isfinite(matrix)) or matrix.min() < 0.0:
        raise UsageError("transition matrix entries must be nonnegative")
    # An entry above 2 fails its row's sum; refusing it first keeps the
    # sums finite.
    if matrix.max() > 2.0 or np.abs(matrix.sum(axis=1) - 1.0).max() > 1e-9:
        raise UsageError("transition matrix rows must sum to 1")
    return matrix


def generate(spec: GeneratorSpec) -> SearchSequence:
    """Produce the sequence described by spec.

    sequential cycles 1..n; bitrev cycles the bit-reversal permutation
    (n must be a power of two); rounds repeatedly picks k distinct keys
    then searches n times uniformly among them; markov walks a
    row-stochastic chain from a uniform start; uniform is i.i.d.
    """
    kind, n, m = spec.kind, spec.n, spec.m
    if kind not in KINDS:
        raise UsageError(f"unknown generator kind {kind!r}")
    if n < 1:
        raise UsageError("n must be >= 1")
    if n >= 2**63:
        raise UsageError(f"n must be below 2^63 (64-bit keys), got {n}")
    if m < 0:
        raise UsageError("m must be >= 0")
    if kind == "bitrev" and n & (n - 1):
        raise UsageError("bitrev needs n to be a power of two")
    row_bytes = CELL_BYTES * n * n if kind == "markov" else 0
    check_memory(n, row_bytes + ITEM_BYTES * m, f"sequence of m={m} searches")

    if kind == "sequential":
        return SearchSequence(n, np.arange(m, dtype=np.int64) % n + 1)

    if kind == "bitrev":
        pos = np.arange(m, dtype=np.int64) % n
        rev = np.zeros_like(pos)
        for _ in range(n.bit_length() - 1):
            rev = (rev << 1) | (pos & 1)
            pos >>= 1
        return SearchSequence(n, rev + 1)

    if spec.seed < 0:
        raise UsageError(f"seed must be >= 0, got {spec.seed}")
    rng = np.random.default_rng(spec.seed)

    if kind == "uniform":
        return SearchSequence(n, rng.integers(1, n + 1, size=m, dtype=np.int64))

    if kind == "rounds":
        k = spec.k if spec.k is not None else max(1, math.ceil(math.log2(n)))
        if not (1 <= k <= n):
            raise UsageError(f"rounds needs k in 1..{n}, got {k}")
        # numpy picks k of n keys from a shuffled arange of all n when
        # k > n / 50 (9 bytes a key), else by Floyd's method (< 40 a pick).
        check_memory(n, 9 * n if 50 * k > n else 40 * k, f"a round's {k} picks")
        chunks = []
        have = 0
        while have < m:
            picks = rng.choice(n, size=k, replace=False) + 1
            # The last round draws only the repeats that fit in m.
            repeats = picks[rng.integers(0, k, size=min(n, max(m - have - k, 0)))]
            chunks.append(picks)
            chunks.append(repeats)
            have += k + n
        return SearchSequence(n, np.concatenate(chunks)[:m] if chunks
                              else np.zeros(0, dtype=np.int64))

    # markov
    matrix = spec.matrix
    if matrix is None:
        matrix = _default_matrix(rng, n, 0.2 if spec.concentration is None
                                 else spec.concentration)
    matrix = _check_matrix(matrix, n)
    if m == 0:
        return SearchSequence(n, np.zeros(0, dtype=np.int64))
    # Row k holds key k's cumulative sums as [-inf, c_1, ..., c_{n-1}, +inf]
    # (row 0 unused), so bisect_right(rows[k], u) is the next key; +inf in
    # place of c_n sends every u >= c_{n-1} to key n, also one past a row
    # summing to just under 1.  cumsum adds along each row in order, so
    # each c_j is the float a full-row prefix sum gives.
    rows = np.zeros((n + 1, n + 1))
    rows[:, 0] = -math.inf
    rows[:, n] = math.inf
    np.cumsum(matrix[:, :-1], axis=1, out=rows[1:, 1:n])
    del matrix
    rows = rows.tolist()
    cur = int(rng.integers(1, n + 1))
    items = [cur]
    items += [cur := bisect_right(rows[cur], u) for u in rng.random(m - 1).tolist()]
    return SearchSequence(n, np.array(items, dtype=np.int64))


def frequencies_from_sequence(x: SearchSequence) -> SearchStats:
    """Count table of x (``x.stats``): per-key totals, consecutive-pair
    counts, endpoints; built on the first call and shared after it."""
    return x.stats
