"""Runs one workload's program calls in a process of its own.

Started by run.py with a spec file after the inputs exist, so this
process's peak RSS covers only the program.  It runs the workload's
commands through `vidcap.cli.main`, in-process:

1. set-up-only runs: prepare, then the command until its first timed
   call (`vidcap.training.train` or `vidcap.model.greedy_decode`), which
   raises StopAtTimedPhase so only set-up is measured;
2. timed runs, untraced, for the time budget (at least MIN_RUNS when
   untraced alone, so the rerun check has two training runs to compare);
3. with tracing on, further runs with every public function of the
   traced modules wrapped, whose spans give the per-layer metrics.

Outputs of every timed run are checked outside the timed phase.  The
result goes to a JSON file named on the command line.
"""

import contextlib
import csv
import ctypes
import functools
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
from statistics import median
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
from spans import Patch, Tracer, write_spans  # noqa: E402
from stats import Tally, percentile, tail_percentile  # noqa: E402
from workloads import EVAL_SPLIT, WORKLOADS  # noqa: E402

SETUP_RUNS = 5  # at least this many set-up-only runs, and at least
SETUP_SECONDS = 1.0  # this long, so a millisecond set-up gets a steady median
MIN_RUNS = 2
RESCORED_VIDEOS = 3
RESCORE_TOLERANCE = 1e-6
TRACED_MODULES = ("cli", "training", "model", "nn", "features", "corpus",
                  "tokenizer", "evaluation")
# Per-timestep helpers inside the nn kernels: tracing them would cost a
# span per LSTM step and leave the kernels' own spans as loop glue.
UNTRACED = {"nn.sigmoid", "nn.softmax_rows", "nn.lstm_cell_forward"}


class StopAtTimedPhase(Exception):
    """Raised at the first timed call of a set-up-only run."""


class Timers:
    """The only timers of an untraced run: around train and greedy_decode."""

    def __init__(self):
        self.patch = Patch()
        self.reset(stop=False)

    def reset(self, stop):
        self.stop = stop
        self.first = None
        self.durations = []

    def install(self, module, name):
        if not self.patch.function(module, name, self._wrap):
            raise RuntimeError(f"{module.__name__}.{name} not found; cannot time it")

    def _wrap(self, func):
        @functools.wraps(func)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            if self.first is None:
                self.first = start
            if self.stop:
                raise StopAtTimedPhase
            result = func(*args, **kwargs)
            self.durations.append(time.perf_counter() - start)
            return result

        return timed


def ndarray_bytes(obj, depth=0):
    """Bytes of the numpy arrays reachable from obj through containers
    and object attributes, four levels deep."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth >= 4:
        return 0
    if isinstance(obj, (list, tuple)):
        return sum(ndarray_bytes(x, depth + 1) for x in obj)
    if isinstance(obj, dict):
        return sum(ndarray_bytes(x, depth + 1) for x in obj.values())
    if hasattr(obj, "__dict__"):
        return sum(ndarray_bytes(x, depth + 1) for x in vars(obj).values())
    return 0


def make_tracer(workload):
    def lstm_role(args):
        width = args[0].W.shape[0] if args and hasattr(args[0], "W") else None
        if width == workload.feature_dim:
            return "enc"
        return "dec" if width == workload.vocab else "other"

    def file_size(args, kwargs, result):
        return os.path.getsize(args[0])

    return Tracer(
        label={"nn.lstm_forward": lstm_role, "nn.lstm_backward": lstm_role},
        measure={"model.save_checkpoint": file_size,
                 "features.read_feature_file": file_size,
                 "training.build_samples": lambda a, k, r: ndarray_bytes(r)},
        item={"features.FeatureStore.get": lambda args: args[1]})


def run_program(vidcap, workload, inputs, out, seed, timers, stop):
    """prepare + the workload's command; returns timing marks and exit codes."""
    timers.reset(stop)
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [vidcap.cli.main(workload.prepare_argv(inputs, out, seed))]
        try:
            codes.append(vidcap.cli.main(workload.command_argv(inputs, out, seed)))
        except StopAtTimedPhase:
            pass
    end = time.perf_counter()
    if timers.first is None:
        raise RuntimeError(f"{workload.name}: no timed call was reached "
                           f"(exit codes {codes})")
    return {"codes": codes, "setup": timers.first - start,
            "after_setup": end - timers.first, "durations": list(timers.durations)}


def read_keys(out, split):
    with open(os.path.join(out, f"{split}.keys"), encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_training(workload, out, run, state):
    """Problems with one training run: exit codes, finite losses, and
    byte-identical metrics.csv and final checkpoint across the runs."""
    problems = []
    if run["codes"] != [0, 0]:
        return [f"exit codes {run['codes']}"]
    with open(os.path.join(out, "metrics.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    losses = [float(r[k]) for r in rows for k in ("train_loss", "val_loss")]
    if len(rows) != workload.epochs or not all(math.isfinite(x) for x in losses):
        problems.append(f"metrics.csv has {len(rows)} rows or a non-finite loss")
    digest = (sha256(os.path.join(out, "metrics.csv")),
              sha256(workload.final_checkpoint(out)))
    state.setdefault("digest", digest)
    if digest != state["digest"]:
        problems.append("metrics.csv or final checkpoint differs from the first run")
    if rows:
        state.setdefault("loss_final", float(rows[-1]["train_loss"]))
    return problems


def check_eval(workload, out, run, keys, state):
    """Problems with one eval run: one report row per split video, and
    captions of at most max_words words without sentinels."""
    if run["codes"] != [0, 0]:
        return [f"exit codes {run['codes']}"]
    with open(os.path.join(out, "report.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if sorted(r["video_id"] for r in rows) != sorted(keys):
        problems.append(f"report.csv has {len(rows)} rows for {len(keys)} split videos")
    predictions = {r["video_id"]: r["prediction"].split() for r in rows}
    for key, words in predictions.items():
        if len(words) > workload.max_words or {"bos", "eos"} & set(words):
            problems.append(f"caption for {key} breaks the length or sentinel rule")
    state.setdefault("predictions", predictions)
    return problems


def greedy_choices(fed, words, tok, max_words):
    """The token greedy decoding chose at each step, as sets of allowed
    indices, from the tokens it fed back and the words it emitted.

    Every fed token after the first was the previous step's choice.  The
    last step chose eos if decoding stopped early; after max_words steps
    it chose the last word if one more word was emitted than the fed
    tokens account for, else eos or a degenerate bos.  Returns None when
    the words do not follow from the fed tokens.
    """
    bos, eos = tok.word_to_index["bos"], tok.word_to_index["eos"]
    fed_words = [tok.index_to_word[t] for t in fed[1:] if t != bos]
    if words[:len(fed_words)] != fed_words or len(words) > len(fed_words) + 1:
        return None
    if len(words) > len(fed_words):
        last = {tok.word_to_index[words[-1]]}
    else:
        last = {eos} if len(fed) < max_words else {eos, bos}
    return [{t} for t in fed[1:]] + [last]


def rescore(vidcap, inputs, out, predictions, tally):
    """Re-decode a few videos, recording the tokens greedy decoding feeds
    back, and teacher-force them through training_forward: every chosen
    token's probability must be within RESCORE_TOLERANCE of its row
    maximum, and the words must match the eval report."""
    mdl = vidcap.model
    cfg, params, _ = mdl.load_checkpoint(inputs["checkpoint"])
    tok = vidcap.tokenizer.Tokenizer.load(os.path.join(out, "tokenizer.txt"))
    store = vidcap.features.FeatureStore(inputs["manifest"])
    for key in sorted(predictions)[:RESCORED_VIDEOS]:
        fed = []

        def recording(step):
            @functools.wraps(step)
            def wrapper(p, state, token):
                fed.append(token)
                return step(p, state, token)
            return wrapper

        patch = Patch()
        patch.function(mdl, "decode_step", recording)
        try:
            feat = store.get(key)
            words = mdl.greedy_decode(params, tok, feat, cfg.max_words)
        finally:
            patch.undo()
        chosen = greedy_choices(fed, words, tok, cfg.max_words)
        if chosen is None:
            tally.check(False, f"rescore {key}: words {words} do not follow from fed {fed}")
            continue
        try:
            P, _ = mdl.training_forward(params, feat, tok.pad_one_hot(fed, cfg.max_words))
            gap = max(float(P[j, :tok.size].max() - max(P[j, c - 1] for c in allowed))
                      for j, allowed in enumerate(chosen))
        except (ValueError, IndexError) as e:  # e.g. more steps than max_words
            tally.check(False, f"rescore {key}: {e}")
            continue
        tally.check(words == predictions[key] and gap <= RESCORE_TOLERANCE,
                    f"rescore {key}: report {predictions[key]} vs decode {words}, "
                    f"fed {fed}, gap {gap:.2e}")


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def machine_info(nproc):
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads()}


def timed_runs(vidcap, ctx, budget, min_runs, traced):
    """Run the program until the budget is spent; returns the runs."""
    workload, runs, start = ctx["workload"], [], time.perf_counter()
    while True:
        out = os.path.join(ctx["work"], f"run{ctx['counter']}")
        ctx["counter"] += 1
        tracer = make_tracer(workload) if traced else None
        if tracer:
            ctx["traced_names"] = tracer.install(
                [getattr(vidcap, m) for m in TRACED_MODULES], skip=UNTRACED)
        try:
            run = run_program(vidcap, workload, ctx["inputs"], out, ctx["seed"],
                              ctx["timers"], stop=False)
        finally:
            if tracer:
                tracer.uninstall()
        run["tracer"] = tracer
        finish_run(vidcap, ctx, out, run)
        shutil.rmtree(out, ignore_errors=True)
        runs.append(run)
        elapsed = time.perf_counter() - start
        if len(runs) >= min_runs and elapsed * (len(runs) + 1) / len(runs) > budget:
            return runs


def finish_run(vidcap, ctx, out, run):
    """Take the run's timed phase and item count, then check its outputs."""
    workload, tally, state = ctx["workload"], ctx["tally"], ctx["state"]
    if workload.kind == "train":
        run["items"] = len(read_keys(out, "train")) * workload.captions_per_video \
            * workload.epochs
        run["timed"] = run["durations"][0] if run["durations"] else float("nan")
        problems = check_training(workload, out, run, state)
    else:
        keys = read_keys(out, EVAL_SPLIT)
        run["items"], run["timed"] = len(keys), run["after_setup"]
        problems = check_eval(workload, out, run, keys, state)
        if not problems and not state.get("rescored"):
            state["rescored"] = True
            rescore(vidcap, ctx["inputs"], out, state["predictions"], tally)
    tally.check(not problems, f"run {ctx['counter'] - 1}: " + "; ".join(problems))


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    nproc = len(os.sched_getaffinity(0))
    # The worker is single-threaded; keeping it on one CPU avoids
    # migrations (train_toy throughput spread 4.7% pinned, 7.9% not).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import vidcap
    import vidcap.cli  # noqa: F401  (loads every traced module)

    workload = WORKLOADS[spec["workload"]]
    timers = Timers()
    timers.install(vidcap.training, "train")
    timers.install(vidcap.model, "greedy_decode")
    ctx = {"workload": workload, "inputs": spec["inputs"], "seed": spec["seed"],
           "work": spec["work"], "timers": timers, "tally": Tally(), "state": {},
           "counter": 0}

    setups, started = [], time.perf_counter()
    while len(setups) < SETUP_RUNS or time.perf_counter() - started < SETUP_SECONDS:
        out = os.path.join(ctx["work"], f"run{ctx['counter']}")
        ctx["counter"] += 1
        setups.append(run_program(vidcap, workload, ctx["inputs"], out, spec["seed"],
                                  timers, stop=True)["setup"])
        shutil.rmtree(out, ignore_errors=True)

    seconds, trace = spec["seconds"], spec["trace"]
    untraced = timed_runs(vidcap, ctx, seconds / 2 if trace else seconds,
                          1 if trace else MIN_RUNS, traced=False)
    traced = timed_runs(vidcap, ctx, seconds / 2, 1, traced=True) if trace else []
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    setups += [r["setup"] for r in untraced]
    e2e = {"setup_s": (median(setups), "s"),
           "throughput_per_s": (median([r["items"] / r["timed"] for r in untraced]), "1/s"),
           "peak_rss_mb": (rss_mb, "MB"),
           "train_loss_final": (ctx["state"].get("loss_final", 0.0), "nats")}
    captions = [d * 1000.0 for r in untraced if workload.kind == "eval"
                for d in r["durations"]]
    tail = tail_percentile(len(captions))
    e2e["caption_ms_p50"] = (percentile(captions, 50) if captions else 0.0, "ms")
    e2e["caption_ms_p90"] = (percentile(captions, 90) if tail and tail >= 90 else 0.0,
                             "ms")
    result = {"e2e": e2e, "tally": ctx["tally"].as_dict(), "machine": machine_info(nproc),
              "setups": len(setups), "untraced_runs": len(untraced),
              "per_run": " ".join(f"{r['items'] / r['timed']:.4g}" for r in untraced),
              "captions": len(captions),
              "tail": f"p{tail:g} = {percentile(captions, tail):.4g} ms" if tail else "-"}
    if traced:
        result["layers"] = layers.compute([r["tracer"].spans for r in traced],
                                          ctx["traced_names"])
        overhead = median([r["timed"] for r in traced]) / \
            median([r["timed"] for r in untraced]) - 1.0
        result["layers"]["trace.overhead_pct"] = (100.0 * overhead, "%")
        write_spans(spec["spans"], [r["tracer"] for r in traced])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
