"""Frequency-ranked vocabulary mapping words to 1-based indices (0 pads)."""

from collections import Counter

import numpy as np

from .util import InputError, open_text, write_lines


class Tokenizer:
    """Word <-> index maps over a capped, frequency-ranked vocabulary.

    Indices are 1-based and dense; rank 1 is the most frequent word and
    frequency ties break by first occurrence in the fitted stream.
    Index 0 is reserved for padding and maps to no word.
    """

    def __init__(self, cap=1500):
        if cap < 1:
            raise InputError(f"vocabulary cap must be >= 1, got {cap}")
        self.cap = cap
        self.word_to_index = {}
        self.index_to_word = {}

    @property
    def size(self):
        return len(self.word_to_index)

    def fit(self, captions):
        """Build the vocabulary; captions must come from the training split.

        A Counter holds the words in first-occurrence order, and
        most_common ranks equal counts in that order, so its first cap
        words are the ranked vocabulary."""
        counts = Counter()
        for caption in captions:
            counts.update(caption)
        if not counts:
            raise InputError("cannot fit tokenizer: no tokens in the caption stream")
        ranked = counts.most_common(self.cap)
        self.word_to_index = {w: i + 1 for i, (w, _) in enumerate(ranked)}
        self.index_to_word = {i: w for w, i in self.word_to_index.items()}
        return self

    def encode(self, caption):
        """Map words to indices, dropping out-of-vocabulary words."""
        w2i = self.word_to_index
        return [w2i[w] for w in caption if w in w2i]

    def pad(self, indices, max_len):
        """`indices` zero-padded to a length-max_len int vector; each index
        must lie in [1, cap], the row range of the model's embedding table."""
        if len(indices) > max_len:
            raise InputError(f"{len(indices)} indices exceed the {max_len}-row limit")
        for idx in indices:
            if not 1 <= idx <= self.cap:
                raise InputError(f"index {idx} outside [1, {self.cap}]")
        padded = np.zeros(max_len, dtype=np.intp)
        padded[:len(indices)] = indices
        return padded

    pad_one_hot = pad  # former name, kept for existing callers

    def save(self, path):
        """Write `V=<cap>` then one `<index>\\t<word>` line per entry,
        whole or not at all (util.write_lines)."""
        write_lines(path, [f"V={self.cap}", *(
            f"{idx}\t{self.index_to_word[idx]}" for idx in range(1, self.size + 1))])

    @classmethod
    def load(cls, path):
        with open_text(path) as fh:
            header = fh.readline().strip()
            if not header.startswith("V="):
                raise InputError(f"{path}: expected 'V=<cap>' header, got '{header}'")
            try:
                tok = cls(int(header[2:]))
            except ValueError:
                raise InputError(f"{path}: bad cap in header '{header}'") from None
            for ln, line in enumerate(fh, 2):
                line = line.rstrip("\n")
                if not line:
                    continue
                if "\t" not in line:
                    raise InputError(f"{path}:{ln}: expected '<index>\\t<word>'")
                idx_str, word = line.split("\t", 1)
                try:
                    idx = int(idx_str)
                except ValueError:
                    raise InputError(f"{path}:{ln}: bad index '{idx_str}'") from None
                if word.split() != [word]:  # a caption word: no whitespace, not empty
                    raise InputError(f"{path}:{ln}: word {word!r} is empty or holds "
                                     "whitespace")
                if word in tok.word_to_index or idx in tok.index_to_word:
                    raise InputError(f"{path}:{ln}: duplicate entry")
                tok.word_to_index[word] = idx
                tok.index_to_word[idx] = word
        if sorted(tok.index_to_word) != list(range(1, tok.size + 1)):
            raise InputError(f"{path}: indices are not dense and 1-based")
        if tok.size > tok.cap:
            raise InputError(f"{path}: {tok.size} entries exceed the cap {tok.cap}")
        return tok
