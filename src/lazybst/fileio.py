"""Text serialization for trees, sequences, weights, count tables, and
transition matrices.

Writers are byte-deterministic: single spaces, ascending key order,
newline-terminated lines, full-precision floats (shortest round-trip
repr).  Readers classify failures: structural breakage raises
MalformedInputError, values that parse but violate the key universe or
the count identities raise InvalidInputError.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, MalformedInputError
from .entropy import WeightVector
from .model import SearchSequence, SearchStats, StaticTree, build_tree, validate_tree


def _int(tok: str, what: str) -> int:
    try:
        v = int(tok)
    except ValueError:
        raise MalformedInputError(f"{what}: not an integer: {tok!r}") from None
    if -2**63 <= v < 2**63:
        return v
    raise MalformedInputError(f"{what}: outside the 64-bit integer range: {tok!r}")


def _ints(toks: list[str], what: str) -> np.ndarray:
    """The tokens as int64 in one numpy parse, which accepts the same
    tokens as int(); on failure the per-token parse names the bad one."""
    try:
        return np.array(toks, dtype=np.int64)
    except (ValueError, OverflowError):
        return np.array([_int(t, what) for t in toks], dtype=np.int64)


def _float(tok: str, what: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise MalformedInputError(f"{what}: not a number: {tok!r}") from None


def _tokens(text: str, what: str, at_least: int) -> list[str]:
    toks = text.split()
    if len(toks) < at_least:
        raise MalformedInputError(f"{what}: truncated file")
    return toks


# -- sequence ---------------------------------------------------------------

def write_sequence(x: SearchSequence) -> str:
    body = " ".join(str(v) for v in x.items.tolist())
    return f"{x.n} {x.m}\n" + (body + "\n" if x.m else "")


def read_sequence(text: str) -> SearchSequence:
    toks = _tokens(text, "sequence file", 2)
    n = _int(toks[0], "sequence file n")
    m = _int(toks[1], "sequence file m")
    if n < 1:
        raise MalformedInputError("sequence file: n must be >= 1")
    if m < 0:
        raise MalformedInputError("sequence file: m must be >= 0")
    if len(toks) != 2 + m:
        raise MalformedInputError(f"sequence file: expected {m} items, found {len(toks) - 2}")
    return SearchSequence(n, _ints(toks[2:], "sequence item"))


# -- tree -------------------------------------------------------------------

def write_tree(t: StaticTree) -> str:
    lines = [f"{t.n} {t.root}"]
    for k in range(1, t.n + 1):
        lines.append(f"{k} {t.left[k]} {t.right[k]}")
    return "\n".join(lines) + "\n"


def read_tree(text: str) -> StaticTree:
    toks = _tokens(text, "tree file", 2)
    n = _int(toks[0], "tree file n")
    root = _int(toks[1], "tree file root")
    if n < 1:
        raise MalformedInputError("tree file: n must be >= 1")
    if len(toks) != 2 + 3 * n:
        raise MalformedInputError("tree file: wrong number of entries")
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    for i in range(n):
        k = _int(toks[2 + 3 * i], "tree file key")
        l = _int(toks[3 + 3 * i], "tree file left child")
        r = _int(toks[4 + 3 * i], "tree file right child")
        if k != i + 1:
            raise MalformedInputError(f"tree file: keys must be 1..{n} ascending, got {k}")
        if not (0 <= l <= n) or not (0 <= r <= n):
            raise MalformedInputError(f"tree file: child out of range at key {k}")
        left[k] = l
        right[k] = r
    if not (1 <= root <= n):
        raise MalformedInputError("tree file: root out of range")
    try:
        tree = build_tree(n, root, left, right)
    except ValueError as e:
        raise MalformedInputError(f"tree file: {e}") from None
    if not validate_tree(tree):
        raise MalformedInputError("tree file: not a valid binary search tree")
    return tree


# -- weights ----------------------------------------------------------------

def write_weights(w: WeightVector) -> str:
    lines = [str(w.n)]
    for k in range(1, w.n + 1):
        lines.append(repr(float(w.w[k])))
    return "\n".join(lines) + "\n"


def read_weights(text: str) -> WeightVector:
    toks = _tokens(text, "weights file", 1)
    n = _int(toks[0], "weights file n")
    if n < 1:
        raise MalformedInputError("weights file: n must be >= 1")
    if len(toks) != 1 + n:
        raise MalformedInputError(f"weights file: expected {n} weights, found {len(toks) - 1}")
    vals = [_float(t, "weight") for t in toks[1:]]
    for v in vals:
        if not np.isfinite(v) or v <= 0.0:
            raise MalformedInputError(f"weights file: weights must be positive and finite, got {v}")
    return WeightVector.from_values(vals)


# -- frequency table --------------------------------------------------------

def write_freq(s: SearchStats) -> str:
    lines = [f"{s.n} {s.m} {s.first} {s.last}"]
    lines.append(" ".join(str(int(s.searches[k])) for k in range(1, s.n + 1)))
    rows, cols = np.nonzero(s.pair)
    order = np.lexsort((cols, rows))
    for idx in order:
        a, b = int(rows[idx]), int(cols[idx])
        lines.append(f"{a} {b} {int(s.pair[a, b])}")
    return "\n".join(lines) + "\n"


def read_freq(text: str) -> SearchStats:
    toks = _tokens(text, "frequency file", 4)
    n = _int(toks[0], "frequency file n")
    m = _int(toks[1], "frequency file m")
    first = _int(toks[2], "frequency file first")
    last = _int(toks[3], "frequency file last")
    if n < 1:
        raise MalformedInputError("frequency file: n must be >= 1")
    if m < 0:
        raise MalformedInputError("frequency file: m must be >= 0")
    if len(toks) < 4 + n:
        raise MalformedInputError("frequency file: truncated search-count row")
    rest = toks[4 + n:]
    if len(rest) % 3:
        raise MalformedInputError("frequency file: pair lines must have 3 entries")
    searches = np.zeros(n + 1, dtype=np.int64)
    searches[1:] = _ints(toks[4:4 + n], "search count")
    if (searches < 0).any():
        raise MalformedInputError("frequency file: negative search count")
    a = _ints(rest[0::3], "pair key")
    b = _ints(rest[1::3], "pair key")
    c = _ints(rest[2::3], "pair count")
    if (c < 0).any():
        raise MalformedInputError("frequency file: negative pair count")
    bad = np.nonzero((a < 1) | (a > n) | (b < 1) | (b > n))[0]
    if bad.size:
        raise MalformedInputError("frequency file: key out of range in pair "
                                  f"({a[bad[0]]}, {b[bad[0]]})")
    if (np.diff(a * (n + 1) + b) <= 0).any():
        raise MalformedInputError("frequency file: pair lines out of order")
    pair = np.zeros((n + 1, n + 1), dtype=np.int64)
    pair[a, b] = c
    for name, v in (("first", first), ("last", last)):
        if m == 0 and v != 0:
            raise MalformedInputError(f"frequency file: {name} must be 0 when m = 0")
        if m > 0 and not (1 <= v <= n):
            raise MalformedInputError(f"frequency file: {name} out of range 1..{n}")
    if int(searches.sum()) != m:
        raise InvalidInputError("frequency file: search counts do not sum to m")
    # Each search of a key ends a transition into it or is the first
    # search, and starts a transition out of it or is the last; summed
    # over keys this also makes the pair counts total m - 1.
    into = pair.sum(axis=0)
    into[first] += 1
    out = pair.sum(axis=1)
    out[last] += 1
    bad = np.nonzero((into[1:] != searches[1:]) | (out[1:] != searches[1:]))[0]
    if bad.size:
        raise InvalidInputError(f"frequency file: search count of key {bad[0] + 1} "
                                "disagrees with its pair counts")
    return SearchStats(n=n, m=m, pair=pair, searches=searches, first=first, last=last)


# -- markov transition matrix ----------------------------------------------

def write_matrix(matrix: np.ndarray) -> str:
    n = matrix.shape[0]
    lines = [str(n)]
    for i in range(n):
        lines.append(" ".join(repr(float(v)) for v in matrix[i]))
    return "\n".join(lines) + "\n"


def read_matrix(text: str) -> np.ndarray:
    toks = _tokens(text, "matrix file", 1)
    n = _int(toks[0], "matrix file n")
    if n < 1:
        raise MalformedInputError("matrix file: n must be >= 1")
    if len(toks) != 1 + n * n:
        raise MalformedInputError(f"matrix file: expected {n}x{n} entries")
    vals = np.array([_float(t, "matrix entry") for t in toks[1:]],
                    dtype=np.float64).reshape(n, n)
    if not np.all(np.isfinite(vals)) or vals.min() < 0.0:
        raise MalformedInputError("matrix file: entries must be nonnegative and finite")
    if np.abs(vals.sum(axis=1) - 1.0).max() > 1e-9:
        raise MalformedInputError("matrix file: rows must sum to 1")
    return vals
