"""Per-layer metrics derived from the spans of traced runs.

A per-call time is the median inclusive duration of the named spans
over every call in the traced runs; the nn kernels named here call no
traced function, so for them inclusive time is self time.  A "total"
is summed within one program run (prepare plus train, or prepare plus
eval) and reported as the median over runs; `*_self_ms` totals subtract
child spans.  A layer the workload does not exercise reads 0.  A metric
whose wrapped function no longer exists in the program is left out.

The last two fields of each METRICS entry record which end-to-end
metric the layer should move and on which workload, so a change to one
layer can be traced to the result it claims.
"""

from statistics import median

from stats import self_times

MS = 1000.0
MB = 1024.0 * 1024.0

# name: (unit, kind, spans, moves, workloads)
# kind: "call" (median per call, ms), "total" (ms per run), "self" (self
# ms per run), "count" (calls per run), "mb" (MB of span values per run),
# "mb_call" (median MB per call), "ratio" (calls of the first name per
# call of the second, per run), "hit" (1 - that ratio).
METRICS = {
    "nn.enc_forward_ms": ("ms", "call", ["nn.lstm_forward[enc]"],
                          "throughput_per_s, caption_ms_p50", "train_full, eval_full"),
    "nn.enc_backward_ms": ("ms", "call", ["nn.lstm_backward[enc]"],
                           "throughput_per_s", "train_full"),
    "nn.dec_forward_ms": ("ms", "call", ["nn.lstm_forward[dec]"],
                          "throughput_per_s", "train_toy"),
    "nn.dec_backward_ms": ("ms", "call", ["nn.lstm_backward[dec]"],
                           "throughput_per_s", "train_toy"),
    "nn.head_ms": ("ms", "call", ["nn.dense_softmax_forward", "nn.cross_entropy",
                                  "nn.dense_softmax_backward"],
                   "throughput_per_s", "train_full"),
    "nn.adam_ms": ("ms", "call", ["nn.adam_step"], "throughput_per_s", "train_full"),
    "nn.adam_calls": ("count", "count", ["nn.adam_step"], "throughput_per_s", "train_full"),
    "model.training_forward_ms": ("ms", "call", ["model.training_forward"],
                                  "throughput_per_s", "train_toy, train_full"),
    "model.training_backward_ms": ("ms", "call", ["model.training_backward"],
                                   "throughput_per_s", "train_toy, train_full"),
    "model.encode_video_ms": ("ms", "call", ["model.encode_video"],
                              "throughput_per_s, caption_ms_p50, caption_ms_p90", "eval_full"),
    "model.decode_step_ms": ("ms", "call", ["model.decode_step"],
                             "throughput_per_s, caption_ms_p50, caption_ms_p90", "eval_full"),
    "model.decode_steps_per_video": ("count", "ratio",
                                     ["model.decode_step", "model.greedy_decode"],
                                     "throughput_per_s, caption_ms_p50, caption_ms_p90", "eval_full"),
    "model.init_ms": ("ms", "call", ["model.ModelParams.init"], "setup_s", "train_full"),
    "model.save_checkpoint_ms": ("ms", "call", ["model.save_checkpoint"],
                                 "throughput_per_s", "train_full"),
    "model.checkpoint_mb": ("MB", "mb_call", ["model.save_checkpoint"],
                            "throughput_per_s", "train_full"),
    "model.load_checkpoint_ms": ("ms", "call", ["model.load_checkpoint"],
                                 "setup_s", "eval_full"),
    "training.train_self_ms": ("ms", "self", ["training.train"],
                               "throughput_per_s, peak_rss_mb", "train_full, train_toy"),
    "training.validate_ms": ("ms", "total", ["training.evaluate_samples"],
                             "throughput_per_s", "train_toy"),
    "training.build_samples_ms": ("ms", "call", ["training.build_samples"],
                                  "setup_s", "train_full"),
    "training.sample_mb": ("MB", "mb", ["training.build_samples"],
                           "setup_s, peak_rss_mb", "train_full"),
    "features.read_ms": ("ms", "call", ["features.read_feature_file"],
                         "throughput_per_s", "eval_full"),
    "features.gets": ("count", "count", ["features.FeatureStore.get"],
                      "throughput_per_s", "eval_full"),
    "features.reads": ("count", "count", ["features.read_feature_file"],
                       "throughput_per_s", "eval_full"),
    "features.hit_ratio": ("ratio", "hit",
                           ["features.read_feature_file", "features.FeatureStore.get"],
                           "throughput_per_s", "eval_full"),
    "features.mb_read": ("MB", "mb", ["features.read_feature_file"],
                         "throughput_per_s", "eval_full"),
    "evaluation.score_ms": ("ms", "total", ["evaluation.evaluate_split",
                                            "evaluation.write_report_csv",
                                            "evaluation.write_summary_csv",
                                            "evaluation.write_histogram_csv"],
                            "throughput_per_s", "eval_full"),
    "corpus.load_ms": ("ms", "call", ["corpus.parse_descriptions", "corpus.build_corpus"],
                       "setup_s", "all"),
    "tokenizer.fit_ms": ("ms", "call", ["tokenizer.Tokenizer.fit"], "setup_s", "all"),
    "tokenizer.load_ms": ("ms", "call", ["tokenizer.Tokenizer.load"], "setup_s", "all"),
    "cli.self_ms": ("ms", "self", ["cli."], "setup_s", "all"),
}


def _base(span_name):
    return span_name.split("[", 1)[0]


def _select(run, wanted):
    """Records of one run matching a wanted name: a name ending in '.' is
    a module prefix, a bracketed name one label, a bare name any label."""
    if wanted.endswith("."):
        return [rec for rec in run if rec[0].startswith(wanted)]
    if "[" in wanted:
        return [rec for rec in run if rec[0] == wanted]
    return [rec for rec in run if _base(rec[0]) == wanted]


def compute(runs, traced_names):
    """Per-layer metrics from traced runs.

    runs: one span list per program run, each span a sequence
    (name, start, end, parent, item, value).  traced_names: qualified
    names that were wrapped; a metric needing a name outside it is left
    out as absent.
    """
    present = set(traced_names) | {n.split(".", 1)[0] + "." for n in traced_names}
    records = []  # per run: (name, inclusive s, self s, value)
    for spans in runs:
        selfs = self_times([(s[1], s[2], s[3]) for s in spans])
        records.append([(s[0], s[2] - s[1], own, s[5]) for s, own in zip(spans, selfs)])

    out = {}
    for metric, (unit, kind, wanted, _, _) in METRICS.items():
        if any(_base(w) not in present for w in wanted):
            continue
        if kind == "call":
            value = 0.0
            for w in wanted:
                times = [rec[1] for run in records for rec in _select(run, w)]
                value += median(times) * MS if times else 0.0
        elif kind == "mb_call":
            sizes = [rec[3] for run in records for rec in _calls(run, wanted)]
            value = median(sizes) / MB if sizes else 0.0
        else:
            value = median([_per_run(kind, run, wanted) for run in records])
        out[metric] = (value, unit)
    return out


def _calls(run, names):
    return [rec for w in names for rec in _select(run, w)]


def _per_run(kind, run, wanted):
    if kind == "total":
        return sum(rec[1] for rec in _calls(run, wanted)) * MS
    if kind == "self":
        return sum(rec[2] for rec in _calls(run, wanted)) * MS
    if kind == "count":
        return len(_calls(run, wanted))
    if kind == "mb":
        return sum(rec[3] or 0 for rec in _calls(run, wanted)) / MB
    first, second = len(_calls(run, wanted[:1])), len(_calls(run, wanted[1:]))
    if second == 0:
        return 0.0
    return first / second if kind == "ratio" else 1.0 - first / second
