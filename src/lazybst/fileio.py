"""Text serialization for trees, sequences, weights, count tables, and
transition matrices.

Writers are byte-deterministic: single spaces, ascending key order,
newline-terminated lines, full-precision floats (shortest round-trip
repr).  Readers classify failures: structural breakage raises
MalformedInputError, and values that parse but violate the key universe
or the count identities raise InvalidInputError.  A count table is read
as its (a, b, count) lines, so reading one needs memory in its file
size, not in n^2.

All five readers take the same path.  The whole text first goes
through one numpy parse, which takes any text of ASCII digits and the
separators \t \n \v \f \r and space whose values are all below 10^18.
Any other text (signs, underscores, non-ASCII digits, decimal points, the
separators \x1c-\x1f, larger values) is split into tokens.  The header's
integers are read one by one; every other field becomes int64 or float64
in one numpy conversion, which accepts exactly what int() or float()
accepts, and only when that fails does a pass token by token name the
bad token.

The sequence and count-table writers share one numpy kernel,
``_digit_rows``: each value becomes a row of a fixed width, its decimal
digits right-aligned after NUL padding, then its separator.  Dropping
every NUL from a block of rows with ``bytes.translate`` leaves the text.
Blocks hold about 256 KiB of rows.  A sequence's rows take the width of
n; every field of a count table's lines takes the width of its widest
column.  The block texts and the header are joined once, so a writer
holds its text twice.  A tree is written one f-string a line: at the n
the DPs reach, the kernel's numpy calls cost more than the lines.
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


def _float(tok: str, what: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise MalformedInputError(f"{what}: not a number: {tok!r}") from None


def _parse(toks, what: str, one=_int) -> np.ndarray:
    """The tokens as int64 (one=_int) or float64 (one=_float) in one numpy
    parse, which accepts the same tokens as int() or float(); on failure
    the per-token parse names the bad one.  Tokens the fast parse already
    read come back as they are."""
    dtype = np.int64 if one is _int else np.float64
    try:
        return np.asarray(toks, dtype=dtype)
    except (ValueError, OverflowError):
        return np.array([one(t, what) for t in toks], dtype=dtype)


# ASCII digits and the separators both str.split() and numpy's text
# parser accept; every separator sorts below "0".
_FAST_BYTES = b"0123456789\t\n\v\f\r "


def _fast_ints(text: str) -> np.ndarray | None:
    """Every integer of text as int64 from one numpy pass, or None when
    the text holds another byte or a value numpy could have clamped."""
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    if raw.translate(None, _FAST_BYTES):
        return None
    digit = np.frombuffer(raw, np.uint8) >= ord("0")
    runs = np.count_nonzero(digit[1:] > digit[:-1]) + bool(digit[:1].any())
    vals = np.fromstring(raw, dtype=np.int64, sep=" ")
    # numpy reads a text of separators alone as [0]: one value per run.
    # It clamps a run past 2^63 - 1 without a warning, so any value of
    # 10^18 or more goes to the token parse, which names an overflow.
    if vals.size != runs or (runs and vals.max() >= 10**18):
        return None
    return vals


def _header(text: str, what: str, *names: str):
    """The tokens of text after its header, then the header's integers
    (the first is n, which must be >= 1).  The tokens are int64 when the
    fast parse takes the text, else the str tokens of text.split()."""
    toks = _fast_ints(text)
    if toks is None:
        toks = text.split()
    if len(toks) < len(names):
        raise MalformedInputError(f"{what}: truncated file")
    head = [_int(t, f"{what} {name}") for t, name in zip(toks, names)]
    if head[0] < 1:
        raise MalformedInputError(f"{what}: n must be >= 1")
    return toks[len(names):], *head


# -- integer text -----------------------------------------------------------

_BLOCK_BYTES = 2**18
_SP, _NL = ord(" "), ord("\n")


def _width(values: np.ndarray) -> int:
    """Row width of the largest of values: digits and separator.  The
    kernel writes no sign, so a negative value is refused."""
    if values.min(initial=0) < 0:
        raise ValueError("cannot write a negative integer")
    return len(str(int(values.max(initial=0)))) + 1


def _digit_rows(values: np.ndarray, sep: int, width: int) -> np.ndarray:
    """A (k, width) uint8 array: each nonnegative value's decimal digits
    right-aligned after NUL padding, then sep.  Every value has at most
    width - 1 digits."""
    # The narrowest type that holds width - 1 digits; numpy divides it by
    # a constant in SIMD, which its divmod and masked stores do not.
    v = values.astype(np.uint16 if width <= 5 else np.uint32 if width <= 10 else np.uint64)
    q, digit = np.empty_like(v), np.empty_like(v)
    rows = np.empty((v.size, width), dtype=np.uint8)
    rows[:, -1] = sep
    for col in range(width - 2, -1, -1):
        np.floor_divide(v, 10, out=q)
        np.multiply(q, 10, out=digit)
        np.subtract(v, digit, out=digit)
        # Left of the last digit, a value with no digits left is NUL: its
        # digit is 0 and it adds 0, not "0".
        if col < width - 2:
            np.minimum(v, 1, out=v)
            v *= ord("0")
            digit += v
        else:
            digit += ord("0")
        rows[:, col] = digit
        v, q = q, v
    return rows


def _join_rows(out: list, k: int, width: int, rows_of) -> None:
    """Append to out the text of k rows of width bytes, which
    rows_of(start, stop) makes a block at a time; the last row's
    separator becomes a newline."""
    step = max(1, _BLOCK_BYTES // width)
    for i in range(0, k, step):
        rows = rows_of(i, i + step)
        if i + step >= k:
            rows[-1, -1] = _NL
        out.append(rows.tobytes().translate(None, b"\0").decode("ascii"))


def _spaced(out: list, values: np.ndarray, width: int) -> None:
    """Append values, single-spaced, as one line."""
    _join_rows(out, values.size, width, lambda i, j: _digit_rows(values[i:j], _SP, width))


def _lines(out: list, width: int, *columns: np.ndarray) -> None:
    """Append one line a row of the columns (nonnegative, of one length),
    its fields single-spaced.  Every field takes width, the widest
    column's, so one kernel call formats a block's fields."""
    def rows_of(i, j):
        fields = np.array([c[i:j] for c in columns]).ravel(order="F")
        rows = _digit_rows(fields, _SP, width).reshape(-1, len(columns) * width)
        rows[:, -1] = _NL
        return rows

    _join_rows(out, columns[0].size, len(columns) * width, rows_of)


# -- sequence ---------------------------------------------------------------

def write_sequence(x: SearchSequence) -> str:
    out = [f"{x.n} {x.m}\n"]
    _spaced(out, x.items, len(str(x.n)) + 1)
    return "".join(out)


def read_sequence(text: str) -> SearchSequence:
    items, n, m = _header(text, "sequence file", "n", "m")
    if m < 0:
        raise MalformedInputError("sequence file: m must be >= 0")
    if len(items) != m:
        raise MalformedInputError(f"sequence file: expected {m} items, found {len(items)}")
    return SearchSequence(n, _parse(items, "sequence item"))


# -- tree -------------------------------------------------------------------

def write_tree(t: StaticTree) -> str:
    lines = [f"{t.n} {t.root}"]
    for k in range(1, t.n + 1):
        lines.append(f"{k} {t.left[k]} {t.right[k]}")
    return "\n".join(lines) + "\n"


def read_tree(text: str) -> StaticTree:
    rows, n, root = _header(text, "tree file", "n", "root")
    if len(rows) != 3 * n:
        raise MalformedInputError("tree file: wrong number of entries")
    keys = _parse(rows[0::3], "tree file key")
    left = _parse(rows[1::3], "tree file left child")
    right = _parse(rows[2::3], "tree file right child")
    # The first row at fault names the fault, as reading row by row would.
    bad_key = np.flatnonzero(keys != np.arange(1, n + 1))
    bad_child = np.flatnonzero((left < 0) | (left > n) | (right < 0) | (right > n))
    if bad_key.size and not (bad_child.size and bad_child[0] < bad_key[0]):
        raise MalformedInputError(f"tree file: keys must be 1..{n} ascending, "
                                  f"got {keys[bad_key[0]]}")
    if bad_child.size:
        raise MalformedInputError(f"tree file: child out of range at key {bad_child[0] + 1}")
    if not (1 <= root <= n):
        raise MalformedInputError("tree file: root out of range")
    try:
        tree = build_tree(n, root, [0] + left.tolist(), [0] + right.tolist())
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
    toks, n = _header(text, "weights file", "n")
    if len(toks) != n:
        raise MalformedInputError(f"weights file: expected {n} weights, found {len(toks)}")
    vals = _parse(toks, "weight", _float)
    bad = np.flatnonzero(~((vals > 0.0) & (vals < np.inf)))   # nan fails both
    if bad.size:
        raise MalformedInputError("weights file: weights must be positive and finite, "
                                  f"got {float(vals[bad[0]])}")
    return WeightVector.from_values(vals)


# -- frequency table --------------------------------------------------------

def write_freq(s: SearchStats) -> str:
    out = [f"{s.n} {s.m} {s.first} {s.last}\n"]
    _spaced(out, s.searches[1:], _width(s.searches))
    _lines(out, max(map(_width, (s.a, s.b, s.count))), s.a, s.b, s.count)
    return "".join(out)


def read_freq(text: str) -> SearchStats:
    """Parse a count table and check it against the sequence identities.

    Pair lines with count 0 are dropped.  Totals are compared in Python
    integers, so counts that would wrap in int64 are rejected rather than
    summed.  Tables with 4 n m >= 2^63 are rejected too
    (InvalidInputError): below that bound every path-length sum, cut
    weight and DP intermediate fits in int64.
    """
    toks, n, m, first, last = _header(text, "frequency file", "n", "m", "first", "last")
    if m < 0:
        raise MalformedInputError("frequency file: m must be >= 0")
    if len(toks) < n:
        raise MalformedInputError("frequency file: truncated search-count row")
    rest = toks[n:]
    if len(rest) % 3:
        raise MalformedInputError("frequency file: pair lines must have 3 entries")
    searches = np.zeros(n + 1, dtype=np.int64)
    searches[1:] = _parse(toks[:n], "search count")
    if (searches < 0).any():
        raise MalformedInputError("frequency file: negative search count")
    a = _parse(rest[0::3], "pair key")
    b = _parse(rest[1::3], "pair key")
    c = _parse(rest[2::3], "pair count")
    if (c < 0).any():
        raise MalformedInputError("frequency file: negative pair count")
    bad = np.nonzero((a < 1) | (a > n) | (b < 1) | (b > n))[0]
    if bad.size:
        raise MalformedInputError("frequency file: key out of range in pair "
                                  f"({a[bad[0]]}, {b[bad[0]]})")
    if (np.diff(a * (n + 1) + b) <= 0).any():
        raise MalformedInputError("frequency file: pair lines out of order")
    for name, v in (("first", first), ("last", last)):
        if m == 0 and v != 0:
            raise MalformedInputError(f"frequency file: {name} must be 0 when m = 0")
        if m > 0 and not (1 <= v <= n):
            raise MalformedInputError(f"frequency file: {name} out of range 1..{n}")
    # Python sums: every count is nonnegative, so once both totals are
    # at most m no partial sum below can wrap.
    if sum(searches.tolist()) != m:
        raise InvalidInputError("frequency file: search counts do not sum to m")
    if sum(c.tolist()) != max(m - 1, 0):
        raise InvalidInputError("frequency file: pair counts do not sum to m - 1")
    if 4 * n * m >= 2**63:
        raise InvalidInputError(f"frequency file: n={n}, m={m} too large for "
                                "exact 64-bit costs (needs 4 n m < 2^63)")
    # Each search of a key ends a transition into it or is the first
    # search, and starts a transition out of it or is the last.
    into, out = np.zeros((2, n + 1), dtype=np.int64)
    np.add.at(into, b, c)
    np.add.at(out, a, c)
    into[first] += 1
    out[last] += 1
    bad = np.nonzero((into[1:] != searches[1:]) | (out[1:] != searches[1:]))[0]
    if bad.size:
        raise InvalidInputError(f"frequency file: search count of key {bad[0] + 1} "
                                "disagrees with its pair counts")
    keep = c > 0
    return SearchStats(n=n, m=m, a=a[keep], b=b[keep], count=c[keep], searches=searches,
                       first=first, last=last)


# -- markov transition matrix ----------------------------------------------

def write_matrix(matrix: np.ndarray) -> str:
    n = matrix.shape[0]
    lines = [str(n)]
    for i in range(n):
        lines.append(" ".join(repr(float(v)) for v in matrix[i]))
    return "\n".join(lines) + "\n"


def read_matrix(text: str) -> np.ndarray:
    toks, n = _header(text, "matrix file", "n")
    if len(toks) != n * n:
        raise MalformedInputError(f"matrix file: expected {n}x{n} entries")
    vals = _parse(toks, "matrix entry", _float).reshape(n, n)
    if not np.all(np.isfinite(vals)) or vals.min() < 0.0:
        raise MalformedInputError("matrix file: entries must be nonnegative and finite")
    # An entry above 2 fails its row's sum; refusing it first keeps the
    # sums finite.
    if vals.max() > 2.0 or np.abs(vals.sum(axis=1) - 1.0).max() > 1e-9:
        raise MalformedInputError("matrix file: rows must sum to 1")
    return vals
