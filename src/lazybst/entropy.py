"""Entropy measures, tree-derived weights, and the dynamic-finger bound.

Entropies are in bits.  ``entropy`` is the plain entropy of the search
distribution; ``conditional_entropy`` conditions each search on its
predecessor and is normalized by the transition count t = m - 1, not by
m, so a perfectly predictable chain scores exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .model import SearchSequence, SearchStats, StaticTree


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Positive per-key weights with a running prefix sum.

    ``prefix[k]`` is the sum of weights 1..k (prefix[0] = 0), so any
    contiguous key range [a, b] sums in O(1).
    """

    n: int
    w: np.ndarray
    prefix: np.ndarray

    @classmethod
    def from_values(cls, values) -> "WeightVector":
        vals = np.asarray(list(values), dtype=np.float64)
        n = int(vals.size)
        if n < 1:
            raise InvalidInputError("weight vector must be nonempty")
        if not np.all(np.isfinite(vals)) or vals.min() <= 0.0:
            raise InvalidInputError("weights must be positive and finite")
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
    vector of a tree round-trips through text exactly.
    """
    vals = [math.ldexp(1.0, -2 * t.depth[k]) for k in range(1, t.n + 1)]
    return WeightVector.from_values(vals)


def df_bound(w: WeightVector, x: SearchSequence) -> float:
    """Weighted dynamic-finger bound on the lazy transition cost.

    Sum over consecutive pairs (a, b) of lg(range-sum / min endpoint
    weight), where the range runs over keys between a and b inclusive.
    A transition a -> a contributes exactly 0 (its range is just {a}).
    """
    if w.n != x.n:
        raise InvalidInputError(f"universe mismatch: weights n={w.n}, sequence n={x.n}")
    if x.m < 1:
        raise InvalidInputError("df_bound needs at least one search")
    if x.m == 1:
        return 0.0
    a = x.items[:-1]
    b = x.items[1:]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    sums = w.prefix[hi] - w.prefix[lo - 1]
    # Prefix differences can cancel badly when weights span many orders
    # of magnitude; the endpoint sum is an always-valid lower bound.  The
    # log difference (not the ratio) keeps extreme spans finite.
    sums = np.maximum(sums, w.w[a] + w.w[b])
    minw = np.minimum(w.w[a], w.w[b])
    terms = np.where(a == b, 0.0, np.log2(sums) - np.log2(minw))
    return float(terms.sum())
