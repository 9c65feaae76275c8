"""Tokenizer tests: ranking, caps, one-hot padding, persistence."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from vidcap.tokenizer import Tokenizer
from vidcap.util import InputError

import oracles


def fit(captions, cap=1500):
    return Tokenizer(cap=cap).fit(captions)


# ---------------------------------------------------------------------------
# Fitting and ranking
# ---------------------------------------------------------------------------

def test_ranks_follow_frequency():
    tok = fit([["a", "a", "a", "b", "b", "c"]])
    assert tok.word_to_index == {"a": 1, "b": 2, "c": 3}


def test_frequency_ties_break_by_first_occurrence():
    tok = fit([["z", "m", "z", "m", "q"]])
    assert tok.word_to_index == {"z": 1, "m": 2, "q": 3}


def test_sentinel_ranking_on_wrapped_captions():
    captions = [["bos", "a", "cat", "eos"], ["bos", "a", "dog", "eos"]]
    tok = fit(captions)
    assert tok.word_to_index == {"bos": 1, "a": 2, "eos": 3, "cat": 4, "dog": 5}


def test_cap_keeps_only_top_ranked():
    tok = fit([["a", "a", "a", "b", "b", "c"]], cap=2)
    assert tok.word_to_index == {"a": 1, "b": 2}
    assert tok.size == 2


def test_vocabulary_is_subset_of_training_words():
    stream = [["red", "dog"], ["red", "ball", "dog"]]
    tok = fit(stream)
    seen = {w for caption in stream for w in caption}
    assert set(tok.word_to_index) <= seen


@given(st.lists(st.lists(st.sampled_from("abcdef"), max_size=8), min_size=1, max_size=12),
       st.integers(1, 8))
def test_fit_ranks_by_count_then_first_occurrence(captions, cap):
    # at most 6 words, so ties, and ties across the cap, are common; a
    # cap below the vocabulary size takes most_common's heapq path
    ranked = oracles.ranked_vocabulary(captions, cap)
    assume(ranked)  # an empty stream raises: test_fit_on_empty_stream_rejected
    assert fit(captions, cap).word_to_index == {w: i + 1 for i, w in enumerate(ranked)}


def test_fit_on_empty_stream_rejected():
    with pytest.raises(InputError):
        fit([])
    with pytest.raises(InputError):
        fit([[], []])


def test_bad_cap_rejected():
    with pytest.raises(InputError):
        Tokenizer(cap=0)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def test_encode_drops_out_of_vocabulary_words():
    tok = fit([["a", "b"]])
    assert tok.encode(["a", "martian", "b"]) == [1, 2]


@given(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=20))
def test_round_trip_property(words):
    tok = fit([["a", "b", "c", "d", "e"]])
    assert [tok.index_to_word[i] for i in tok.encode(words)] == words


# ---------------------------------------------------------------------------
# Padded index vectors (pad_one_hot is the former name of pad)
# ---------------------------------------------------------------------------

def test_pad_one_hot_layout():
    tok = fit([["a", "b", "c"]], cap=5)
    enc = tok.pad_one_hot([2, 1, 3], max_len=5)
    assert enc.shape == (5,)
    assert np.issubdtype(enc.dtype, np.integer)
    assert np.count_nonzero(enc) == 3
    assert np.array_equal(enc, [2, 1, 3, 0, 0])
    assert np.array_equal(tok.pad([2, 1, 3], max_len=5), enc)


def test_pad_one_hot_row_width_is_cap_not_fitted_size():
    # any index up to the cap is accepted, not just fitted ones
    tok = fit([["a", "b"]], cap=9)
    assert np.array_equal(tok.pad([9], max_len=2), [9, 0])


def test_pad_one_hot_rejects_overflow_and_bad_indices():
    tok = fit([["a", "b"]], cap=4)
    with pytest.raises(InputError):
        tok.pad([1, 2, 1], max_len=2)
    for bad in (0, 5):
        with pytest.raises(InputError):
            tok.pad([bad], max_len=2)


@given(st.lists(st.integers(min_value=1, max_value=6), max_size=8))
def test_pad_one_hot_row_sums(indices):
    tok = Tokenizer(cap=6)
    enc = tok.pad(indices, max_len=8)
    assert enc.shape == (8,)
    assert np.array_equal(enc[:len(indices)], indices)
    assert np.array_equal(enc[len(indices):], np.zeros(8 - len(indices)))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    tok = fit([["bos", "a", "cat", "eos"], ["bos", "a", "dog", "eos"]], cap=40)
    path = str(tmp_path / "tok.txt")
    tok.save(path)
    back = Tokenizer.load(path)
    assert back.cap == 40
    assert back.word_to_index == tok.word_to_index
    assert back.index_to_word == tok.index_to_word


def test_saved_file_format(tmp_path):
    tok = fit([["b", "a", "b"]], cap=7)
    path = tmp_path / "tok.txt"
    tok.save(str(path))
    assert path.read_text(encoding="utf-8") == "V=7\n1\tb\n2\ta\n"


def load_text(tmp_path, text):
    path = tmp_path / "tok.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_rejects_bad_header(tmp_path):
    with pytest.raises(InputError):
        Tokenizer.load(load_text(tmp_path, "cap=5\n1\ta\n"))
    with pytest.raises(InputError):
        Tokenizer.load(load_text(tmp_path, "V=five\n"))


def test_load_rejects_malformed_rows(tmp_path):
    with pytest.raises(InputError):
        Tokenizer.load(load_text(tmp_path, "V=5\n1 a\n"))
    with pytest.raises(InputError):
        Tokenizer.load(load_text(tmp_path, "V=5\none\ta\n"))
    # words that save never writes: caption words are str.split() tokens
    for row, word in (("2\t", ""), ("2\ta b", "a b"), ("2\t a", " a"), ("2\ta\tb", "a\tb")):
        path = load_text(tmp_path, f"V=5\n1\tbos\n{row}\n")
        with pytest.raises(InputError) as err:
            Tokenizer.load(path)
        assert str(err.value) == f"{path}:3: word {word!r} is empty or holds whitespace"


def test_load_rejects_duplicates_and_gaps(tmp_path):
    with pytest.raises(InputError):
        Tokenizer.load(load_text(tmp_path, "V=5\n1\ta\n1\tb\n"))
    with pytest.raises(InputError):
        Tokenizer.load(load_text(tmp_path, "V=5\n1\ta\n2\ta\n"))
    with pytest.raises(InputError):
        Tokenizer.load(load_text(tmp_path, "V=5\n1\ta\n3\tb\n"))


def test_load_rejects_more_entries_than_cap(tmp_path):
    with pytest.raises(InputError):
        Tokenizer.load(load_text(tmp_path, "V=1\n1\ta\n2\tb\n"))
