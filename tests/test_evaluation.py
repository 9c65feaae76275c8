"""BLEU-2 scoring and report tests, cross-checked against a brute-force oracle."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vidcap.corpus import DescriptionCorpus
from vidcap.evaluation import (EvalReport, EvalRow, bleu2, evaluate_split,
                               histogram_counts, write_histogram_csv,
                               write_report_csv, write_summary_csv)
from vidcap.util import InputError

import oracles

WORDS = ["a", "man", "dog", "runs", "plays", "guitar"]


# ---------------------------------------------------------------------------
# bleu2 on pinned instances
# ---------------------------------------------------------------------------

def test_perfect_match_scores_one():
    assert bleu2(["a", "man", "plays"], [["a", "man", "plays"]]).value == 1.0


def test_half_matched_bigrams():
    # p1 = 2/3, p2 = 1/2, BP = 1 -> sqrt(1/3)
    score = bleu2(["the", "cat", "sat"], [["the", "cat", "naps"]])
    assert score.value == pytest.approx(0.5773502691896257, abs=1e-15)
    assert score.brevity_penalty == 1.0
    assert score.p1 == pytest.approx(2 / 3)
    assert score.p2 == pytest.approx(1 / 2)


def test_short_candidate_pays_brevity_penalty():
    score = bleu2(["a", "dog"], [["a", "dog", "runs"]])
    assert score.p1 == 1.0 and score.p2 == 1.0
    assert score.brevity_penalty == pytest.approx(np.exp(-0.5))
    assert score.value == pytest.approx(np.exp(-0.5))


def test_long_candidate_pays_no_penalty():
    score = bleu2(["a", "dog", "runs", "runs"], [["a", "dog"]])
    assert score.brevity_penalty == 1.0


def test_closest_reference_length_ties_go_shorter():
    score = bleu2(["a", "b", "c"], [["a", "b"], ["a", "b", "c", "d"]])
    assert score.brevity_penalty == 1.0  # r = 2, not 4
    assert score.value == 1.0


def test_repeated_words_are_clipped():
    score = bleu2(["the", "the", "the"], [["the", "cat"]])
    assert score.p1 == pytest.approx(1 / 3)
    assert score.p2 == 0.0
    assert score.value == 0.0


def test_single_word_candidate_scores_zero():
    score = bleu2(["dog"], [["dog"]])
    assert score.p1 == 1.0 and score.p2 == 0.0 and score.value == 0.0


def test_empty_candidate_scores_zero():
    assert bleu2([], [["a", "dog"]]).value == 0.0


def test_empty_reference_list_rejected():
    with pytest.raises(InputError):
        bleu2(["a"], [])


def test_multiple_references_clip_jointly():
    # each bigram is licensed by a different reference
    score = bleu2(["a", "man", "plays"],
                  [["a", "man", "naps"], ["the", "man", "plays"]])
    assert score.p2 == 1.0


def test_reference_order_does_not_matter():
    refs = [["a", "man"], ["a", "dog", "runs"], ["man", "plays"]]
    cand = ["a", "man", "plays"]
    assert bleu2(cand, refs).value == bleu2(cand, list(reversed(refs))).value


def test_extra_same_length_reference_never_hurts():
    # equal-length references pin BP, so clipping can only improve
    rng = np.random.default_rng(4)
    for _ in range(50):
        cand = list(rng.choice(WORDS, size=4))
        refs = [list(rng.choice(WORDS, size=4)) for _ in range(2)]
        base = bleu2(cand, refs).value
        assert bleu2(cand, refs + [list(rng.choice(WORDS, size=4))]).value >= base


@settings(deadline=None, max_examples=150)
@given(cand=st.lists(st.sampled_from(WORDS), max_size=8),
       refs=st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=8),
                     min_size=1, max_size=4))
def test_bleu_bounds_and_oracle_property(cand, refs):
    score = bleu2(cand, refs)
    assert 0.0 <= score.value <= 1.0
    assert score.value == pytest.approx(oracles.bleu2_oracle(cand, refs),
                                        abs=1e-12)


def test_matches_bruteforce_oracle_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(300):
        cand = list(rng.choice(WORDS, size=int(rng.integers(0, 9))))
        refs = [list(rng.choice(WORDS, size=int(rng.integers(1, 9))))
                for _ in range(int(rng.integers(1, 5)))]
        assert abs(bleu2(cand, refs).value
                   - oracles.bleu2_oracle(cand, refs)) < 1e-12


# ---------------------------------------------------------------------------
# Split evaluation
# ---------------------------------------------------------------------------

def split_setup():
    corp = DescriptionCorpus({
        "v1": [["bos", "a", "man", "plays", "guitar", "eos"]],
        "v2": [["bos", "a", "dog", "runs", "fast", "eos"],
               ["bos", "the", "dog", "runs", "away", "eos"]],
    })
    return corp


def test_evaluate_split_strips_sentinels_from_references():
    corp = split_setup()
    predictions = {"v1": ["a", "man", "plays", "guitar"], "v2": ["a", "dog", "runs"]}
    report = evaluate_split(predictions, corp, ["v1", "v2"], "test")
    assert report.split == "test"
    assert [r.video_id for r in report.rows] == ["v1", "v2"]
    assert report.rows[0].bleu == 1.0  # exact match once bos/eos are gone
    expected = bleu2(["a", "dog", "runs"],
                     [["a", "dog", "runs", "fast"], ["the", "dog", "runs", "away"]])
    assert report.rows[1].bleu == expected.value
    assert report.mean == pytest.approx((1.0 + expected.value) / 2)


def test_evaluate_split_requires_predictions_and_references():
    corp = split_setup()
    with pytest.raises(InputError, match="no prediction"):
        evaluate_split({"v1": ["a"]}, corp, ["v1", "v2"], "test")
    with pytest.raises(InputError, match="no references"):
        evaluate_split({"ghost": ["a"]}, corp, ["ghost"], "test")


def test_empty_report_mean_is_zero():
    assert EvalReport([], "val").mean == 0.0


# ---------------------------------------------------------------------------
# Histogram
# ---------------------------------------------------------------------------

def test_histogram_bin_edges_are_right_open():
    rows = histogram_counts([0.0, 0.1, 0.95, 1.0])
    counts = [c for _, _, c in rows]
    assert counts == [1, 1, 0, 0, 0, 0, 0, 0, 0, 2]
    assert rows[0][:2] == (0.0, 0.1)
    assert rows[9][:2] == (0.9, 1.0)
    # each edge's bin also holds the float just above it and the one just
    # below the next edge; the last bin also holds 1.0
    edges = np.arange(11) / 10
    near = np.concatenate([edges, np.nextafter(edges[1:], 0), np.nextafter(edges[:-1], 1)])
    assert [c for _, _, c in histogram_counts(near.tolist())] == [3] * 9 + [4]


def test_histogram_counts_sum_to_input_size():
    rng = np.random.default_rng(0)
    scores = rng.random(137).tolist()
    rows = histogram_counts(scores)
    assert sum(c for _, _, c in rows) == 137
    assert len(rows) == 10


def test_histogram_of_empty_split_is_all_zero():
    assert all(c == 0 for _, _, c in histogram_counts([]))


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

def sample_report():
    return EvalReport([EvalRow("test", "v1", 1.0, ["a", "man"]),
                       EvalRow("test", "v2", 1 / 3, ["a"])], "test")


def test_report_csv_quotes_predictions(tmp_path):
    path = tmp_path / "report.csv"
    write_report_csv(str(path), sample_report())
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "split,video_id,bleu2,prediction"
    assert lines[1] == 'test,v1,1,"a man"'
    assert lines[2] == 'test,v2,0.333333,"a"'


@pytest.mark.parametrize("video_id",
                         ['vid,"001', 'vid"001', "vid,001", "vid\n001", "vid\r\n001"])
def test_report_csv_video_id_round_trips(tmp_path, video_id):
    # a comma, quote or line break in an id is quoted, so the row still
    # parses into its four columns; plain rows keep their bytes
    path = tmp_path / "report.csv"
    report = EvalReport([EvalRow("test", video_id, 0.5, ["a", "man"]),
                         EvalRow("test", "v2", 1 / 3, ["a"])], "test")
    write_report_csv(str(path), report)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows == [{"split": "test", "video_id": video_id, "bleu2": "0.5",
                     "prediction": "a man"},
                    {"split": "test", "video_id": "v2", "bleu2": "0.333333",
                     "prediction": "a"}]
    assert path.read_bytes().endswith(b'\ntest,v2,0.333333,"a"\n')


def test_summary_csv_one_row(tmp_path):
    path = tmp_path / "summary.csv"
    write_summary_csv(str(path), sample_report())
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "split,count,mean_bleu2"
    assert lines[1] == f"test,2,{format((1.0 + 1 / 3) / 2, '.6g')}"


def test_histogram_csv_ten_rows(tmp_path):
    path = tmp_path / "histogram.csv"
    write_histogram_csv(str(path), sample_report())
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "split,bin_low,bin_high,count"
    assert len(lines) == 11
    assert lines[4] == "test,0.3,0.4,1"   # 1/3 lands here
    assert lines[10] == "test,0.9,1,1"    # 1.0 closes the last bin


@pytest.mark.parametrize("split", ["test", "my_split-2", "a,b", 'a"b', "a\nb", "a\r\nb"])
def test_csv_split_round_trips(tmp_path, split):
    # a split name with a comma, quote or line break is quoted in all
    # three CSVs, so every row still parses into its columns; a plain
    # name is written bare, as before
    def written(name, tag):
        report = EvalReport([EvalRow(name, "v1", 1.0, ["a", "man"]),
                             EvalRow(name, "v2", 1 / 3, ["a"])], name)
        out = {}
        for write in (write_report_csv, write_summary_csv, write_histogram_csv):
            path = tmp_path / f"{tag}-{write.__name__}.csv"
            write(str(path), report)
            with open(path, encoding="utf-8", newline="") as fh:
                out[write.__name__] = (path.read_bytes(), list(csv.DictReader(fh)))
        return out

    plain = written("plain", "plain")
    for name, (data, rows) in written(split, "split").items():
        assert [{**row, "split": "plain"} for row in rows] == plain[name][1]
        assert all(row["split"] == split for row in rows)
        if not set(',"\r\n') & set(split):
            assert data == plain[name][0].replace(b"plain,", split.encode() + b",")
