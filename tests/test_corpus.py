"""Corpus tests: parsing, normalization, length filter, splits."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vidcap.corpus import (BOS, EOS, DescriptionCorpus, build_corpus,
                           load_split_keys, normalize_caption,
                           parse_descriptions, save_split, split_keys,
                           split_sizes)
from vidcap.util import InputError


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Normalization and parsing
# ---------------------------------------------------------------------------

def test_normalize_lowercases_and_strips_punctuation():
    assert normalize_caption('A man, (quickly!) says: "Hi."') == "a man quickly says hi"


def test_normalize_collapses_whitespace():
    assert normalize_caption("  a\tdog \n runs  ") == "a dog runs"


def test_normalize_is_idempotent():
    once = normalize_caption("The CAT, naps; (outside)!")
    assert normalize_caption(once) == once


def test_normalize_keeps_interior_hyphens_and_digits():
    assert normalize_caption("a 2-year-old walks") == "a 2-year-old walks"


def test_parse_pairs_ids_with_captions(tmp_path):
    path = write_lines(tmp_path / "d.txt", [
        "vid1 A man plays Guitar.",
        "vid2\ta dog  runs",
        "",
        "# comment line",
        "vid1 the same man waves",
    ])
    raw = parse_descriptions(path)
    assert raw.pairs == [("vid1", "a man plays guitar"),
                         ("vid2", "a dog runs"),
                         ("vid1", "the same man waves")]
    assert raw.skipped == 0


def test_parse_counts_captionless_lines(tmp_path):
    path = write_lines(tmp_path / "d.txt", ["vid1", "vid2 ...", "vid3 ok fine"])
    raw = parse_descriptions(path)
    # "..." normalizes to nothing, so that line is skipped too
    assert raw.pairs == [("vid3", "ok fine")]
    assert raw.skipped == 2


# ---------------------------------------------------------------------------
# Length filter
# ---------------------------------------------------------------------------

def corpus_from(pairs):
    class Raw:
        pass
    raw = Raw()
    raw.pairs = pairs
    return build_corpus(raw)


def test_build_wraps_with_sentinels():
    corp = corpus_from([("v", "a b c d")])
    assert corp.entries["v"] == [[BOS, "a", "b", "c", "d", EOS]]
    assert corp.kept == 1 and corp.dropped == 0


def test_filter_window_counts_sentinels():
    # 4 raw words -> 6 tokens (minimum kept); 8 raw -> 10 (maximum kept)
    kept_low = corpus_from([("v", "w x y z")])
    kept_high = corpus_from([("v", "a b c d e f g h")])
    drop_low = corpus_from([("v", "x y z")])
    drop_high = corpus_from([("v", "a b c d e f g h i")])
    assert kept_low.kept == 1 and kept_high.kept == 1
    assert drop_low.kept == 0 and drop_low.dropped == 1
    assert drop_high.kept == 0 and drop_high.dropped == 1


def test_videos_without_surviving_captions_are_dropped():
    corp = corpus_from([("keep", "a b c d"), ("gone", "x y")])
    assert list(corp.entries) == ["keep"]


def test_filter_tallies_match_scalar_recount():
    rng = np.random.default_rng(0)
    pairs = []
    for i in range(300):
        n_words = int(rng.integers(1, 13))
        pairs.append((f"v{i % 40}", " ".join("w" for _ in range(n_words))))
    corp = corpus_from(pairs)
    kept = sum(1 for _, c in pairs if 6 <= len(c.split()) + 2 <= 10)
    assert corp.kept == kept
    assert corp.dropped == len(pairs) - kept
    assert sum(len(v) for v in corp.entries.values()) == kept


# ---------------------------------------------------------------------------
# Split sizes
# ---------------------------------------------------------------------------

def test_split_sizes_reference_values():
    assert split_sizes(1970) == (1773, 99, 98)
    assert split_sizes(20) == (18, 1, 1)
    assert split_sizes(100) == (90, 5, 5)
    assert split_sizes(6) == (5, 1, 0)


def test_split_sizes_small_counts_clamp_to_a_partition():
    assert split_sizes(3) == (2, 1, 0)
    assert split_sizes(4) == (3, 1, 0)
    assert split_sizes(5) == (4, 1, 0)


def test_split_sizes_rejects_below_three():
    for n in (0, 1, 2):
        with pytest.raises(InputError):
            split_sizes(n)


def test_split_sizes_partition_and_formula():
    for n in range(3, 5001):
        train, val, test = split_sizes(n)
        assert train + val + test == n
        assert train >= 0 and val >= 1 and test >= 0
        assert val == (n + 19) // 20
        if n >= 6:  # exact half-up rounding holds once no clamp is needed
            assert train == (9 * n + 5) // 10


# ---------------------------------------------------------------------------
# Key assignment
# ---------------------------------------------------------------------------

def toy_corpus(n, prefix="v"):
    entries = {f"{prefix}{i:04d}": [[BOS, "a", "b", "c", "d", EOS]]
               for i in range(n)}
    return DescriptionCorpus(entries, kept=n)


def test_split_keys_partitions_without_overlap():
    corp = toy_corpus(37)
    split = split_keys(corp, seed=5)
    everything = split.train_keys + split.val_keys + split.test_keys
    assert sorted(everything) == sorted(corp.entries)
    assert len(set(everything)) == 37
    assert (len(split.train_keys), len(split.val_keys),
            len(split.test_keys)) == split_sizes(37)


def test_split_keys_deterministic_per_seed():
    a = split_keys(toy_corpus(50), seed=9)
    b = split_keys(toy_corpus(50), seed=9)
    c = split_keys(toy_corpus(50), seed=10)
    assert a.train_keys == b.train_keys and a.test_keys == b.test_keys
    assert a.train_keys != c.train_keys


def test_split_keys_ignores_insertion_order():
    forward = toy_corpus(30)
    backward = DescriptionCorpus(dict(reversed(list(forward.entries.items()))))
    a = split_keys(forward, seed=3)
    b = split_keys(backward, seed=3)
    assert a.train_keys == b.train_keys
    assert a.val_keys == b.val_keys
    assert a.test_keys == b.test_keys


def test_split_keys_actually_shuffles():
    split = split_keys(toy_corpus(200), seed=0)
    assert split.train_keys != sorted(split.train_keys)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(min_value=3, max_value=400), seed=st.integers(0, 2**31))
def test_split_keys_partition_property(n, seed):
    split = split_keys(toy_corpus(n), seed)
    everything = split.train_keys + split.val_keys + split.test_keys
    assert sorted(everything) == sorted(f"v{i:04d}" for i in range(n))


def test_save_and_load_split_round_trip(tmp_path):
    split = split_keys(toy_corpus(25), seed=1)
    save_split(split, str(tmp_path))
    assert load_split_keys(str(tmp_path), "train") == split.train_keys
    assert load_split_keys(str(tmp_path), "val") == split.val_keys
    assert load_split_keys(str(tmp_path), "test") == split.test_keys


def test_load_split_rejects_unknown_name(tmp_path):
    with pytest.raises(InputError):
        load_split_keys(str(tmp_path), "dev")
