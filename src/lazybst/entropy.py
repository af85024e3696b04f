"""Entropy measures, tree-derived weights, and the dynamic-finger bound.

Entropies are in bits.  ``entropy`` is the plain entropy of the search
distribution; ``conditional_entropy`` conditions each search on its
predecessor and is normalized by the transition count t = m - 1, not by
m, so a perfectly predictable chain scores exactly zero.  Like the lazy
cost it bounds, ``df_bound`` is a function of the count table's
``(a, b, count)`` triples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .model import SearchSequence, SearchStats, StaticTree, check_tree, check_universe


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Positive per-key weights with a running prefix sum.

    ``prefix[k]`` is the sum of weights 1..k (prefix[0] = 0), so any
    contiguous key range [a, b] sums in O(1).  ``from_values`` refuses a
    total above 2^1022, so every prefix sum, and the sum of any two
    (``mehlhorn_build``'s midpoints), stays finite.
    """

    n: int
    w: np.ndarray
    prefix: np.ndarray

    @classmethod
    def from_values(cls, values) -> "WeightVector":
        vals = np.asarray(values, dtype=np.float64)
        n = int(vals.size)
        if n < 1:
            raise InvalidInputError("weight vector must be nonempty")
        # Scaled by 2^-1023 no total of finite weights overflows, and an
        # infinite one stays infinite.
        total = (vals * 2.0**-1023).sum()
        if not (vals.min() > 0.0 and total < np.inf):   # nan fails both
            raise InvalidInputError("weights must be positive and finite")
        if total > 0.5:
            raise InvalidInputError("weights must sum to at most 2^1022")
        w = np.zeros(n + 1)
        w[1:] = vals
        prefix = np.zeros(n + 1)
        prefix[1:] = np.cumsum(vals)
        return cls(n=n, w=w, prefix=prefix)


def entropy(s: SearchStats) -> float:
    """Entropy of the empirical search distribution, in bits."""
    if s.m == 0:
        raise InvalidInputError("entropy needs at least one search")
    counts = np.asarray(s.searches[1:], dtype=np.float64)
    p = counts[counts > 0] / s.m
    # + 0.0 turns the -0.0 of a single-key sequence into 0.0.
    return float(-(p * np.log2(p)).sum() + 0.0)


def conditional_entropy(s: SearchStats) -> float:
    """Entropy of each search given its predecessor, in bits.

    Sum over the transitions a -> b of (count/t) * lg(out[a]/count),
    where t is the total transition count and out[a] the transitions
    out of a.  Every term is nonnegative, so the result is >= 0 even in
    floats.
    """
    if s.m < 2:
        raise InvalidInputError("conditional entropy needs at least two searches")
    out = np.zeros(s.n + 1, dtype=np.int64)
    np.add.at(out, s.a, s.count)
    cnt = s.count.astype(np.float64)
    ratio = out[s.a].astype(np.float64) / cnt
    return float(((cnt / int(s.count.sum())) * np.log2(ratio)).sum())


def weights_from_tree(t: StaticTree) -> WeightVector:
    """Weight 4^-depth(key) for every key.

    These are exact powers of two (built with ldexp), so the weight
    vector of a tree round-trips through text exactly.  A tree whose
    depths disagree with its children is refused (InvalidInputError).
    """
    check_tree(t)
    return WeightVector.from_values(np.ldexp(1.0, -2 * np.asarray(t.depth[1:])))


def df_bound(w: WeightVector, x: SearchSequence) -> float:
    """Weighted dynamic-finger bound on the lazy transition cost.

    Sum over consecutive pairs (a, b) of lg(range-sum / min endpoint
    weight), where the range runs over keys between a and b inclusive.
    A term depends only on its pair, so the sum runs over the count
    table's distinct transitions, each term times its count.  A
    transition a -> a contributes exactly 0 (its range is just {a}).
    """
    check_universe("weights", w.n, x.n)
    if x.m < 1:
        raise InvalidInputError("df_bound needs at least one search")
    s = x.stats
    a, b = s.a, s.b
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    sums = w.prefix[hi] - w.prefix[lo - 1]
    # Prefix differences can cancel badly when weights span many orders
    # of magnitude; the endpoint sum is an always-valid lower bound.  The
    # log difference (not the ratio) keeps extreme spans finite.
    sums = np.maximum(sums, w.w[a] + w.w[b])
    minw = np.minimum(w.w[a], w.w[b])
    terms = np.where(a == b, 0.0, np.log2(sums) - np.log2(minw))
    return float((s.count * terms).sum())
