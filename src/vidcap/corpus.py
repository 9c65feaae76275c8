"""Caption corpus handling: description parsing, length filter, splits.

The raw input is a text file with one caption per line in the form
`<video_id><whitespace><caption>`.  Captions are normalized, wrapped in
sentinel tokens, filtered to a fixed length window, grouped by video,
and the video keys are split deterministically into train/val/test.
"""

from dataclasses import dataclass
import os

import numpy as np

from .util import InputError, fisher_yates, open_text, read_lines, write_lines

BOS = "bos"
EOS = "eos"
MIN_TOKENS = 6
MAX_TOKENS = 10

_SPLIT_FILES = {"train": "train.keys", "val": "val.keys", "test": "test.keys"}
_STRIP_TABLE = str.maketrans("", "", ',.!?"\'();:')


def normalize_caption(text):
    """Lowercase, drop punctuation characters, collapse whitespace runs."""
    return " ".join(text.lower().translate(_STRIP_TABLE).split())


@dataclass
class RawDescriptionFile:
    """Parsed description lines plus a tally of skipped malformed ones."""

    pairs: list
    skipped: int = 0


def parse_descriptions(path):
    """Parse a description file into (video_id, caption) pairs.

    One pair per line that util.read_lines keeps (blank and `#` lines
    are not).  The id is the text before the first whitespace run and
    the caption is the normalized remainder.  Lines without caption text
    are skipped and counted in the returned tally.
    """
    pairs, lines = [], read_lines(path)
    for _, line in lines:
        parts = line.split(None, 1)
        caption = normalize_caption(parts[1]) if len(parts) == 2 else ""
        if caption:
            pairs.append((parts[0], caption))
    return RawDescriptionFile(pairs, len(lines) - len(pairs))


@dataclass
class DescriptionCorpus:
    """Per-video lists of sentinel-wrapped token lists."""

    entries: dict
    kept: int = 0
    dropped: int = 0


def build_corpus(raw):
    """Wrap captions with bos/eos and keep those within the length window.

    The window [MIN_TOKENS, MAX_TOKENS] applies to the token count INCLUDING
    the sentinels, so every stored list fits a MAX_TOKENS-step decoder.
    Videos whose captions are all filtered out are dropped.
    """
    entries = {}
    kept = dropped = 0
    for vid, caption in raw.pairs:
        tokens = [BOS] + caption.split() + [EOS]
        if MIN_TOKENS <= len(tokens) <= MAX_TOKENS:
            entries.setdefault(vid, []).append(tokens)
            kept += 1
        else:
            dropped += 1
    return DescriptionCorpus(entries, kept, dropped)


@dataclass
class SplitAssignment:
    train_keys: list
    val_keys: list
    test_keys: list


def split_sizes(n):
    """Train/val/test sizes: round(0.90 n), ceil(0.05 n), remainder.

    Rounding is half-up.  For n in {3, 4, 5} the first two terms exceed
    n, so the train share is clamped down to keep the sizes a partition;
    the test share is empty there, as it is for every n < 16.
    """
    if n < 3:
        raise InputError(f"need at least 3 videos to split, got {n}")
    train = (9 * n + 5) // 10
    val = (n + 19) // 20
    train -= max(0, train + val - n)
    return train, val, n - train - val


def split_keys(corpus, seed):
    """Deterministically partition corpus keys into train/val/test.

    Keys are sorted first so input file order cannot change the split,
    then shuffled by a seeded Fisher-Yates pass and cut into contiguous
    segments per the size formula.
    """
    keys = sorted(corpus.entries)
    n_train, n_val, _ = split_sizes(len(keys))
    fisher_yates(keys, np.random.default_rng(seed))
    return SplitAssignment(keys[:n_train],
                           keys[n_train:n_train + n_val],
                           keys[n_train + n_val:])


def save_split(split, out_dir):
    """Write train.keys / val.keys / test.keys, one video id per line.
    Each file is written whole or not at all (util.write_lines), one
    after the other: a failure can leave new files next to old ones."""
    for name, keys in (("train", split.train_keys),
                       ("val", split.val_keys),
                       ("test", split.test_keys)):
        write_lines(os.path.join(out_dir, _SPLIT_FILES[name]), keys)


def load_split_keys(out_dir, split_name):
    """A split's video ids in file order; each may be listed once."""
    if split_name not in _SPLIT_FILES:
        raise InputError(f"unknown split '{split_name}'; expected train, val or test")
    path = os.path.join(out_dir, _SPLIT_FILES[split_name])
    keys = {}
    with open_text(path) as fh:
        for ln, key in enumerate(map(str.strip, fh), 1):
            if key in keys:
                raise InputError(f"{path}:{ln}: duplicate video id '{key}'")
            if key:  # blank lines are skipped
                keys[key] = None
    return list(keys)
