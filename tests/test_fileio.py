import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lazybst import (InvalidInputError, MalformedInputError, SearchSequence, ToolError,
                     WeightVector, build_balanced, frequencies_from_sequence,
                     weights_from_tree)
from lazybst.fileio import (read_freq, read_matrix, read_sequence, read_tree,
                            read_weights, write_freq, write_matrix, write_sequence,
                            write_tree, write_weights)
from support import random_sequence, random_tree


def test_sequence_round_trip_and_layout():
    x = SearchSequence(3, [1, 2, 3, 1, 2, 3, 1])
    text = write_sequence(x)
    assert text == "3 7\n1 2 3 1 2 3 1\n"
    back = read_sequence(text)
    assert back.n == 3 and back.items.tolist() == x.items.tolist()
    assert write_sequence(back) == text
    assert write_sequence(SearchSequence(4, [])) == "4 0\n"


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
    with pytest.raises(MalformedInputError):
        read_tree("2 1\n1 0 0\n")            # missing row
    with pytest.raises(MalformedInputError):
        read_tree("2 1\n2 0 0\n1 0 2\n")     # keys out of order
    with pytest.raises(MalformedInputError):
        read_tree("2 3\n1 0 2\n2 0 0\n")     # root out of range
    with pytest.raises(MalformedInputError):
        read_tree("2 1\n1 0 2\n2 0 1\n")     # cycle
    with pytest.raises(MalformedInputError):
        read_tree("3 2\n1 0 0\n2 3 1\n3 0 0\n")  # left child key above root


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


def test_freq_round_trip():
    x = SearchSequence(4, [1, 2, 3, 1, 2, 3, 1, 4])
    s = frequencies_from_sequence(x)
    text = write_freq(s)
    head = text.splitlines()[0]
    assert head == "4 8 1 4"
    back = read_freq(text)
    assert back.m == s.m and back.first == s.first and back.last == s.last
    assert np.array_equal(back.pair, s.pair)
    assert np.array_equal(back.searches, s.searches)
    assert write_freq(back) == text
    empty = frequencies_from_sequence(SearchSequence(2, []))
    assert read_freq(write_freq(empty)).m == 0


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
