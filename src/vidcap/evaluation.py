"""Sentence-level 2-gram BLEU scoring and split-level reports."""

from collections import Counter
from dataclasses import dataclass, field
import math

import numpy as np

from .util import InputError, fmt6, write_lines

HIST_BINS = 10


@dataclass
class BleuScore:
    value: float
    brevity_penalty: float
    p1: float
    p2: float


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _modified_precision(candidate, references, n):
    """Clipped n-gram precision: each candidate gram counts at most as
    often as it occurs in any one reference.  Counter's | keeps each
    gram's larger count and & its smaller one."""
    cand = _ngrams(candidate, n)
    total = cand.total()
    if total == 0:
        return 0.0
    best = Counter()
    for ref in references:
        best |= _ngrams(ref, n)
    return (cand & best).total() / total


def bleu2(candidate, references):
    """Multi-reference BLEU over unigram and bigram precisions.

    score = BP * exp((ln p1 + ln p2) / 2) with no smoothing: either
    precision at zero zeroes the score (a one-word candidate has no
    bigrams, so it always scores 0).  BP compares the candidate length
    against the closest reference length, ties going to the shorter
    reference.  An empty candidate scores 0.  Candidate and references
    must not carry bos/eos sentinels.
    """
    if not references:
        raise InputError("bleu2 needs at least one reference")
    c = len(candidate)
    if c == 0:
        return BleuScore(0.0, 0.0, 0.0, 0.0)
    r = min((len(ref) for ref in references), key=lambda L: (abs(L - c), L))
    bp = min(1.0, math.exp(1.0 - r / c))
    p1 = _modified_precision(candidate, references, 1)
    p2 = _modified_precision(candidate, references, 2)
    if p1 == 0.0 or p2 == 0.0:
        return BleuScore(0.0, bp, p1, p2)
    return BleuScore(bp * math.exp(0.5 * (math.log(p1) + math.log(p2))),
                     bp, p1, p2)


@dataclass
class EvalRow:
    split: str
    video_id: str
    bleu: float
    prediction: list


@dataclass
class EvalReport:
    rows: list = field(default_factory=list)
    split: str = ""

    @property
    def mean(self):
        """Arithmetic mean of the rows' scores; 0.0 for an empty split."""
        if not self.rows:
            return 0.0
        return sum(r.bleu for r in self.rows) / len(self.rows)


def evaluate_split(predictions, corpus, keys, split_name):
    """Score every key's prediction against all its corpus references.

    References are the video's surviving descriptions with the bos/eos
    sentinels stripped; predictions map video_id to a word list.
    """
    rows = []
    for key in keys:
        if key not in predictions:
            raise InputError(f"no prediction for video '{key}'")
        refs = [caption[1:-1] for caption in corpus.entries.get(key, ())]
        if not refs:
            raise InputError(f"video '{key}' has no references")
        score = bleu2(predictions[key], refs)
        rows.append(EvalRow(split_name, key, score.value, list(predictions[key])))
    return EvalReport(rows, split_name)


def histogram_counts(scores):
    """(low, high, count) over 10 equal bins of [0, 1].

    Bins are right-open except the last, which includes 1.0.
    """
    counts, edges = np.histogram(scores, bins=np.arange(HIST_BINS + 1) / HIST_BINS)
    return list(zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))


def _quoted(text):
    """text as a quoted CSV field, its double quotes doubled."""
    return '"' + text.replace('"', '""') + '"'


def _csv_field(text):
    """text as it is, or quoted if it holds a comma, a quote or a line break."""
    return _quoted(text) if any(ch in text for ch in ',"\r\n') else text


def write_report_csv(path, report):
    """`split,video_id,bleu2,prediction` rows, prediction always quoted
    and split or video_id quoted when they would not parse bare.  Like
    the other two CSV writers, it writes path whole or not at all
    (util.write_lines), and quotes the split the same way."""
    write_lines(path, ["split,video_id,bleu2,prediction", *(
        f'{_csv_field(r.split)},{_csv_field(r.video_id)},{fmt6(r.bleu)},'
        f'{_quoted(" ".join(r.prediction))}' for r in report.rows)])


def write_summary_csv(path, report):
    write_lines(path, ["split,count,mean_bleu2",
                       f"{_csv_field(report.split)},{len(report.rows)},{fmt6(report.mean)}"])


def write_histogram_csv(path, report):
    write_lines(path, ["split,bin_low,bin_high,count", *(
        f"{_csv_field(report.split)},{fmt6(low)},{fmt6(high)},{count}"
        for low, high, count in histogram_counts([r.bleu for r in report.rows]))])
