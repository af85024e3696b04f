import hashlib
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lazybst import (GeneratorSpec, InvalidInputError, MalformedInputError, SearchSequence,
                     SearchStats, ToolError, WeightVector, build_balanced,
                     frequencies_from_sequence, generate, weights_from_tree)
from lazybst import fileio
from lazybst.fileio import (read_freq, read_matrix, read_sequence, read_tree,
                            read_weights, write_freq, write_matrix, write_sequence,
                            write_tree, write_weights)
from support import (HUGE_FREQ, WRAPPING_FREQ, mutated_reader_files, random_sequence,
                     random_tree, write_freq_oracle, write_sequence_oracle)


def test_sequence_round_trip_and_layout():
    x = SearchSequence(3, [1, 2, 3, 1, 2, 3, 1])
    text = write_sequence(x)
    assert text == "3 7\n1 2 3 1 2 3 1\n"
    back = read_sequence(text)
    assert back.n == 3 and back.items.tolist() == x.items.tolist()
    assert write_sequence(back) == text
    assert write_sequence(SearchSequence(4, [])) == "4 0\n"


def test_sequence_writer_joins_every_block_and_both_key_paths():
    # One- to 19-digit keys, with m on both sides of n;
    # test_writers_equal_the_per_line_oracles covers the block edges.
    rng = np.random.default_rng(5)
    for n in (1, 9, 4096, 2**63 - 1):
        for m in (1, 2, 4095, 4096, 4097, 8193):
            items = rng.integers(1, n + 1, size=m) if n > 1 else np.ones(m, dtype=np.int64)
            x = SearchSequence(n, items)
            assert write_sequence(x) == f"{n} {m}\n" + " ".join(map(str, items.tolist())) + "\n"


def _block_edges(width):
    """Row counts of one block of rows of width bytes, one less and one more."""
    return [fileio._BLOCK_BYTES // width + d for d in (-1, 0, 1)]


def test_writers_equal_the_per_line_oracles():
    rng = np.random.default_rng(22)
    for n in (1, 9, 10, 99, 100, 2**31, 2**63 - 1):
        width = len(str(n)) + 1
        for m in (0, 1, 2, *_block_edges(width)):
            items = rng.integers(1, n, size=m, endpoint=True)
            items[-1:] = n
            x = SearchSequence(n, items)
            assert write_sequence(x) == write_sequence_oracle(x), (n, m)
    # Count tables of sequences, with keys never searched.
    for n in (1, 9, 10, 99, 100):
        for m in (0, 1, 2, 3 * n):
            s = frequencies_from_sequence(SearchSequence(n, rng.integers(1, n, size=m,
                                                                         endpoint=True)))
            assert write_freq(s) == write_freq_oracle(s), (n, m)
    # Triples at a block's edge: keys to 100 and counts of every width to
    # 2^62, so every field takes 20 bytes.
    n = 100
    for k in _block_edges(3 * 20):
        code = np.append(np.sort(rng.choice(n * n - 1, size=k - 1, replace=False)), n * n - 1)
        count = rng.integers(1, 2 ** rng.integers(0, 63, size=k), endpoint=True)
        count[-1] = 2**62
        searches = rng.integers(0, 2**62, size=n + 1, endpoint=True)
        searches[::3] = 0
        s = SearchStats(n=n, m=sum(searches.tolist()), a=code // n + 1, b=code % n + 1,
                        count=count, searches=searches, first=1, last=n)
        assert write_freq(s) == write_freq_oracle(s), k


def test_count_writer_refuses_a_negative_field():
    s = SearchStats(n=2, m=1, a=[], b=[], count=[], searches=[0, 2, -1], first=1, last=1)
    with pytest.raises(ValueError, match="negative"):
        write_freq(s)


def test_count_writer_holds_its_text_twice():
    # The header and the block texts are joined once; the rows of one
    # block and their text come and go below 2^20 bytes.
    s = generate(GeneratorSpec("uniform", 512, 10**6, seed=1)).stats
    assert s.a.size > 250_000
    tracemalloc.start()
    try:
        text = write_freq(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(text) + 2**20, peak - 2 * len(text)


def test_sequence_errors_classified():
    with pytest.raises(MalformedInputError):
        read_sequence("3")                   # truncated header
    with pytest.raises(MalformedInputError):
        read_sequence("3 2\n1")              # missing items
    with pytest.raises(MalformedInputError):
        read_sequence("3 1\n1 7")            # trailing junk
    with pytest.raises(MalformedInputError):
        read_sequence("3 x\n")               # non-integer
    with pytest.raises(MalformedInputError):
        read_sequence("0 0\n")               # empty universe
    with pytest.raises(InvalidInputError, match=r"key 4 out of range 1\.\.3"):
        read_sequence("3 2\n1 4\n")          # key out of range: semantic
    with pytest.raises(MalformedInputError, match="99999999999999999999"):
        read_sequence("3 2\n1 99999999999999999999\n")   # beyond 64 bits


def test_tree_round_trip_and_layout():
    t = build_balanced(3)
    text = write_tree(t)
    assert text == "3 2\n1 0 0\n2 1 3\n3 0 0\n"
    assert read_tree(text) == t
    assert write_tree(read_tree(text)) == text


def test_tree_errors():
    cases = (
        ("2 1\n1 0 0\n", "wrong number of entries"),                 # missing row
        ("2 1\n2 0 0\n1 0 2\n", "keys must be 1..2 ascending, got 2"),
        ("2 3\n1 0 2\n2 0 0\n", "root out of range"),
        ("2 1\n1 0 3\n2 0 0\n", "child out of range at key 1"),
        ("2 1\n1 0 2\n2 0 1\n", "key 1 reached twice"),             # cycle
        ("3 2\n1 0 0\n2 3 1\n3 0 0\n", "not a valid binary search tree"),
        # Several faults: the first row at fault names its fault.
        ("3 2\n1 0 9\n5 0 0\n3 0 0\n", "child out of range at key 1"),
        ("3 2\n1 0 0\n5 0 9\n3 0 0\n", "keys must be 1..3 ascending, got 5"),
        ("2 1\n1 0 x\n2 0 0\n", "right child: not an integer: 'x'"),
        ("2 1\n1 0 99999999999999999999\n2 0 0\n", "outside the 64-bit"),
    )
    for text, message in cases:
        with pytest.raises(MalformedInputError, match=f"^tree file.*{re.escape(message)}"):
            read_tree(text)


def test_weights_round_trip_full_precision():
    w = weights_from_tree(build_balanced(9))
    text = write_weights(w)
    back = read_weights(text)
    assert back.w[1:].tolist() == w.w[1:].tolist()
    assert write_weights(back) == text
    odd = WeightVector.from_values([0.1, 1 / 3, 7.25])
    assert read_weights(write_weights(odd)).w[1:].tolist() == odd.w[1:].tolist()


def test_weights_errors():
    with pytest.raises(MalformedInputError):
        read_weights("2\n1.0\n")             # count mismatch
    with pytest.raises(MalformedInputError):
        read_weights("2\n1.0\n-3\n")         # nonpositive
    with pytest.raises(MalformedInputError):
        read_weights("1\ninf\n")             # nonfinite
    with pytest.raises(MalformedInputError):
        read_weights("1\nabc\n")


def _stats_fields(s):
    return (s.n, s.m, s.first, s.last, s.searches.tolist(), s.a.tolist(), s.b.tolist(),
            s.count.tolist())


def test_freq_round_trip():
    x = SearchSequence(4, [1, 2, 3, 1, 2, 3, 1, 4])
    s = frequencies_from_sequence(x)
    text = write_freq(s)
    assert text == "4 8 1 4\n3 2 2 1\n1 2 2\n1 4 1\n2 3 2\n3 1 2\n"
    back = read_freq(text)
    assert write_freq(back) == text
    rng = random.Random(12)
    for y in [x, SearchSequence(2, []), SearchSequence(1, [1]),
              *(random_sequence(rng, rng.randint(1, 30), rng.randint(1, 300))
                for _ in range(20))]:
        s = frequencies_from_sequence(y)
        back = read_freq(write_freq(s))
        assert _stats_fields(back) == _stats_fields(s)
        assert all(arr.dtype == np.int64 and not arr.flags.writeable
                   for arr in (back.a, back.b, back.count, back.searches))


def test_freq_zero_count_lines_are_dropped():
    text = write_freq(frequencies_from_sequence(SearchSequence(3, [1, 3, 1, 2])))
    assert text == "3 4 1 2\n2 1 1\n1 2 1\n1 3 1\n3 1 1\n"
    padded = "3 4 1 2\n2 1 1\n1 1 0\n1 2 1\n1 3 1\n2 2 0\n3 1 1\n3 3 0\n"
    assert _stats_fields(read_freq(padded)) == _stats_fields(read_freq(text))
    assert write_freq(read_freq(padded)) == text
    # Zero-count lines still sit in the order every pair line keeps.
    with pytest.raises(MalformedInputError, match="out of order"):
        read_freq("3 4 1 2\n2 1 1\n1 2 1\n1 1 0\n1 3 1\n3 1 1\n")


def test_freq_errors_classified():
    good = write_freq(frequencies_from_sequence(SearchSequence(3, [1, 2, 1])))
    with pytest.raises(MalformedInputError):
        read_freq(good.replace("1 2 1\n", "1 2 -1\n"))   # negative count
    with pytest.raises(MalformedInputError):
        read_freq("3 3 1 1\n2 1 0\n1 2 1\n2 1 1\n9 9")   # ragged pair line
    with pytest.raises(MalformedInputError):
        read_freq("3 3 1 1\n2 1 0\n1 9 1\n")             # pair key out of range
    with pytest.raises(MalformedInputError):
        read_freq("3 3 1 1\n2 1 0\n2 1 1\n1 2 1\n")      # pairs out of order
    with pytest.raises(MalformedInputError):
        read_freq("3 3 0 1\n2 1 0\n1 2 1\n2 1 1\n")      # first out of range
    with pytest.raises(InvalidInputError):
        read_freq("3 4 1 1\n2 1 0\n1 2 1\n2 1 1\n")      # sums disagree with m
    with pytest.raises(MalformedInputError, match="search count"):
        read_freq("3 3 1 1\n99999999999999999999 1 0\n1 2 1\n2 1 1\n")
    with pytest.raises(MalformedInputError, match="pair count"):
        read_freq("3 3 1 1\n2 1 0\n1 2 99999999999999999999\n2 1 1\n")
    # Both sums agree with m, but key 1 is searched 3 times with no
    # transition into it after the first search.
    with pytest.raises(InvalidInputError, match="key 1"):
        read_freq("3 3 1 3\n3 0 0\n1 2 1\n2 3 1\n")
    # The sequence 1 3 1 with its last key given as 3: only the
    # transitions out of key 1 disagree.
    with pytest.raises(InvalidInputError, match="key 1"):
        read_freq("3 3 1 3\n2 0 1\n1 3 1\n3 1 1\n")
    assert read_freq("3 3 1 1\n2 0 1\n1 3 1\n3 1 1\n").searches.tolist() == [0, 2, 0, 1]
    # Counts that wrap in int64 satisfy every identity there; the totals
    # are checked in Python integers.
    with pytest.raises(InvalidInputError, match="sum to m"):
        read_freq(WRAPPING_FREQ)
    # A valid table whose lazy cost does not fit in 64 bits.
    with pytest.raises(InvalidInputError, match="too large"):
        read_freq(HUGE_FREQ)


def test_matrix_round_trip_and_errors():
    m = np.array([[0.25, 0.75], [0.5, 0.5]])
    text = write_matrix(m)
    assert np.array_equal(read_matrix(text), m)
    with pytest.raises(MalformedInputError):
        read_matrix("2\n0.5 0.5\n0.5\n")
    with pytest.raises(MalformedInputError):
        read_matrix("2\n0.9 0.2\n0.5 0.5\n")             # row sum off
    with pytest.raises(MalformedInputError):
        read_matrix("2\n-0.5 1.5\n0.5 0.5\n")            # negative entry


def test_matrix_rows_summing_past_the_float_range_are_refused():
    # Finite entries whose row sum overflows: one error, no numpy warning.
    with pytest.raises(MalformedInputError, match="rows must sum to 1"):
        read_matrix("2\n1e308 1e308\n0.5 0.5\n")


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_random_round_trips_are_byte_stable(n, seed):
    rng = random.Random(seed)
    t = random_tree(rng, n)
    assert read_tree(write_tree(t)) == t
    x = random_sequence(rng, n, rng.randint(0, 50))
    assert write_sequence(read_sequence(write_sequence(x))) == write_sequence(x)
    s = frequencies_from_sequence(x)
    assert write_freq(read_freq(write_freq(s))) == write_freq(s)
    w = weights_from_tree(t)
    assert write_weights(read_weights(write_weights(w))) == write_weights(w)


# Integers of any size (64-bit edges included), float text and short
# garbage; small integers make plausible headers.
_TOKEN = st.one_of(
    st.integers(-1, 6).map(str),
    st.integers().map(str),
    st.builds(lambda v, sign: str(sign * v), st.integers(2 ** 63 - 2, 2 ** 64),
              st.sampled_from((1, -1))),
    st.floats().map(repr),
    st.text(st.characters(exclude_categories=("Z", "C")), min_size=1, max_size=3),
)
_VALID = {
    read_sequence: write_sequence(SearchSequence(3, [1, 3, 2, 3])),
    read_tree: write_tree(build_balanced(4)),
    read_weights: write_weights(WeightVector.from_values([1.0, 2.0, 0.5])),
    read_freq: write_freq(frequencies_from_sequence(SearchSequence(3, [1, 3, 2, 3]))),
    read_matrix: write_matrix(np.array([[0.25, 0.75], [0.5, 0.5]])),
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_readers_return_or_raise_tool_error(data):
    """Each reader, fed a valid file of its format with a few tokens
    replaced, or an arbitrary token stream, returns or raises ToolError."""
    for reader, valid in _VALID.items():
        toks = valid.split()
        for i in data.draw(st.lists(st.integers(0, len(toks) - 1), max_size=3)):
            toks[i] = data.draw(_TOKEN)
        for stream in (toks, data.draw(st.lists(_TOKEN, max_size=12))):
            try:
                reader(" ".join(stream))
            except ToolError:
                pass


def test_fast_parse_pins():
    assert fileio._fast_ints("").tolist() == []
    assert fileio._fast_ints("  ") is None          # numpy reads this as [0]
    assert fileio._fast_ints("1 0").tolist() == [1, 0]
    assert fileio._fast_ints("1 0\n").tolist() == [1, 0]
    assert fileio._fast_ints(" 007\t\v\f\r8\n").tolist() == [7, 8]
    assert fileio._fast_ints("9" * 18).tolist() == [10 ** 18 - 1]
    for declined in ("9" * 19, "1\x1c2", "+7", "1_0", "\u0663", "1.0"):
        assert fileio._fast_ints(declined) is None
    with pytest.raises(MalformedInputError, match="truncated"):
        read_sequence("  ")
    assert read_sequence("1 0").m == 0 and read_sequence("1 0\n").m == 0


@settings(max_examples=300, deadline=None)
@given(st.lists(_TOKEN, max_size=8))
def test_float_parse_agrees_with_float(toks):
    """The float parse gives float()'s values bit for bit, or names the
    first token float() refuses."""
    bad = None
    for tok in toks:
        try:
            float(tok)
        except ValueError:
            bad = tok
            break
    if bad is not None:
        with pytest.raises(MalformedInputError) as err:
            fileio._parse(toks, "entry", fileio._float)
        assert str(err.value) == f"entry: not a number: {bad!r}"
        return
    got = fileio._parse(toks, "entry", fileio._float)
    want = np.array([float(tok) for tok in toks], dtype=np.float64)
    assert got.dtype == np.float64
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def _outcome(reader, text):
    try:
        r = reader(text)
    except ToolError as e:
        return type(e), str(e)
    if isinstance(r, SearchSequence):
        return r.n, r.items.tolist()
    if reader is read_freq:
        return _stats_fields(r)
    return r


# Every separator str.split() accepts (ASCII and beyond), digit runs with
# leading zeros around the 18-digit limit and the int64 edge, and the
# stray characters int() takes or refuses.
_SEPARATORS = [chr(c) for c in range(0x3001) if chr(c).isspace()]
_PIECE = st.one_of(
    st.text("0123456789", min_size=1, max_size=25),
    st.integers(0, 5).map(str),
    st.sampled_from(["9223372036854775807", "9223372036854775808",
                     "+", "-", "_", ".", "a", "e", "x", "+7", "1_0", "1.0", "1e3"]),
)
_SEPARATOR_SETS = tuple(st.text(st.sampled_from(chars), min_size=1, max_size=3) for chars in
                        (" \t\n\v\f\r", " \t\n\v\f\r\x1c\x1d\x1e\x1f", _SEPARATORS))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fast_parse_agrees_with_token_parse(data):
    """The fast parse declines a text or returns what text.split() gives;
    each integer reader returns the same result, or raises the same
    error, with and without it."""
    for reader in (read_sequence, read_tree, read_freq):
        toks = _VALID[reader].split()
        for i in data.draw(st.lists(st.integers(0, len(toks) - 1), max_size=2)):
            toks[i] = data.draw(_PIECE)
        sep = data.draw(st.sampled_from(_SEPARATOR_SETS))
        seps = data.draw(st.lists(sep, min_size=len(toks) + 1, max_size=len(toks) + 1))
        stream = data.draw(st.lists(st.one_of(_PIECE, sep), max_size=12))
        for text in ("".join(a + b for a, b in zip(seps, toks)) + seps[-1],
                     "".join(stream)):
            fast = fileio._fast_ints(text)
            if fast is not None:
                assert fast.dtype == np.int64
                assert fast.tolist() == np.array(text.split(), dtype=np.int64).tolist()
            with mock.patch.object(fileio, "_fast_ints", lambda text: None):
                slow = _outcome(reader, text)
            assert _outcome(reader, text) == slow


# sha256 of every reader's outcome on 6,000 seeded mutated files, recorded
# before the readers shared one header rule and one array parse.
READER_DIGEST = "e03b7c26042ac4a9509a724ec56a1d4bc57d100088e66ede6bffdf361c99756b"
_FORMATS = {"sequence": (read_sequence, write_sequence), "tree": (read_tree, write_tree),
            "weights": (read_weights, write_weights), "freq": (read_freq, write_freq),
            "matrix": (read_matrix, write_matrix)}


def test_reader_outcomes_match_their_digest():
    """Each reader's result, written back out, or its error class and
    message, for every file of mutated_reader_files at seeds 1-3."""
    h = hashlib.sha256()
    for seed in (1, 2, 3):
        for fmt, text in mutated_reader_files(seed, 2000):
            read, write = _FORMATS[fmt]
            try:
                out = write(read(text))
            except ToolError as e:
                out = f"{type(e).__name__}: {e}"
            h.update(f"{fmt}\n{len(text)}\n{text}{len(out)}\n{out}".encode())
    assert h.hexdigest() == READER_DIGEST
