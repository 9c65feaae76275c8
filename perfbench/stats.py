"""Summary statistics and output-check accounting for the benchmark.

Kept free of numpy and vidcap imports so run.py and the tests can use
them without loading the program under test.
"""

import math

# Percentiles tried from the highest down, in tenths of a percent.
_PERCENTILE_LADDER = (999, 990, 950, 900, 750, 500)


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with >= p% of the sample at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n):
    """Highest reportable percentile for n samples, or None below 20.

    A percentile is reportable when at least ten samples lie beyond it,
    i.e. n * (1 - p/100) >= 10; the check runs in integer tenths of a
    percent so p90 at n = 100 is not lost to rounding.
    """
    for q in _PERCENTILE_LADDER:
        if n * (1000 - q) >= 10 * 1000:
            return q / 10
    return None


def self_times(spans):
    """Self time of each span: its duration minus what its children cover.

    spans: sequence of (start, end, parent) where parent is the index of
    the enclosing span or None.  Only direct children are subtracted (a
    child's own duration already contains its descendants); children are
    clipped to the parent's interval and overlaps are counted once.
    """
    children = [[] for _ in spans]
    for i, (_, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    result = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for s, e in sorted((spans[c][0], spans[c][1]) for c in children[i]):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        result.append((end - start) - covered)
    return result


class Tally:
    """Counts output checks; every failed check is one failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, what):
        """Record one check; `what` describes the failure when ok is false."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "messages": list(self.messages)}
