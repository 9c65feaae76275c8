"""vidcap benchmark: drives the program through `vidcap.cli.main`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or `all` to run each in
turn.  Run from anywhere inside a checkout of the repository; the
program is imported from its `src/` directory.

For each workload this process generates the seeded inputs under
`.perfbench_work/` in the checkout, then starts worker.py in a process
of its own, which runs the program calls, times and checks them.  Load
comes from that one process with `--threads 1` and one BLAS thread.  With --trace 0 the last line of output is a JSON object with
the end-to-end metrics; with --trace 1 the per-layer metrics from a
traced run (spans are written to `.perfbench_out/`).  Lines before it
print every metric with its unit, the output checks' failed/attempted
counts and the machine.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, generate_inputs  # noqa: E402

WORKER_TIMEOUT_S = 150  # leaves input generation room within 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread (never more than nproc): on a shared 2-core machine two
# threads made train_full throughput spread ~16% across runs, one ~3%.
BLAS_THREADS = 1

# Metrics of the JSON result line, in BENCHMARK.json order.
END_TO_END = ("setup_s", "throughput_per_s", "peak_rss_mb")
UNTRACED_EXTRAS = ("train_loss_final", "caption_ms_p50", "caption_ms_p90")

# The end-to-end metrics under their per-workload names, as printed.
DESCRIPTIONS = {
    "train": [("setup_s", "setup_s", "prepare + train up to vidcap.training.train, "
                                     "median of {setups} set-ups"),
              ("train_samples_per_s", "throughput_per_s",
               "epochs x training samples / wall time of vidcap.training.train, "
               "median of {untraced_runs} runs: {per_run}"),
              ("train_loss_final", "train_loss_final", "last train_loss in metrics.csv"),
              ("peak_rss_mb", "peak_rss_mb", "ru_maxrss of the worker process")],
    "eval": [("setup_s", "setup_s", "prepare + eval up to its first greedy_decode, "
                                    "median of {setups} set-ups"),
             ("eval_videos_per_s", "throughput_per_s",
              "split videos / eval wall time after set-up, median of {untraced_runs} "
              "runs: {per_run}"),
             ("caption_ms_p50", "caption_ms_p50", "greedy_decode wall time, "
                                                  "{captions} captions"),
             ("caption_ms_p90", "caption_ms_p90", "highest percentile with >= 10 "
                                                  "captions beyond it: {tail}"),
             ("peak_rss_mb", "peak_rss_mb", "ru_maxrss of the worker process")],
}


def run_workload(workload, seed, seconds, trace):
    """Generate inputs, run the worker, return its result dict."""
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root)
    try:
        inputs = generate_inputs(workload, seed, work)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        if trace:
            os.makedirs(out_dir, exist_ok=True)
        spec = {"root": ROOT, "workload": workload.name, "seed": seed,
                "seconds": seconds, "trace": trace, "inputs": inputs,
                "work": os.path.join(work, "runs"),
                "spans": os.path.join(out_dir, f"spans-{workload.name}-seed{seed}.tsv")}
        os.makedirs(spec["work"])
        spec_path = os.path.join(work, "spec.json")
        result_path = os.path.join(work, "result.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                               spec_path, result_path],
                              stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker for {workload.name} exited with {proc.returncode}")
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(workload, seed, trace, result):
    """Print the human-readable block; return the JSON result line's metrics."""
    m = result["machine"]
    tally = result["tally"]
    print(f"workload {workload.name}  seed {seed}  trace {'on' if trace else 'off'}")
    print(f"  machine: nproc {m['nproc']}, {m['cpu']}, Python {m['python']}, "
          f"numpy {m['numpy']}, BLAS {m['blas']} {m['blas_version']} "
          f"({m['blas_threads']} threads)")
    e2e = result["e2e"]
    for label, key, note in DESCRIPTIONS[workload.kind]:
        value, unit = e2e[key]
        print(f"  {label:<22}{value:>14.6g} {unit:<6} {note.format(**result)}")
    print(f"  checks: {tally['failed']} failed / {tally['attempted']} attempted")
    for message in tally["messages"]:
        print(f"    FAILED {message}")
    if not trace:
        return {k: e2e[k] for k in END_TO_END}
    metrics = {k: e2e[k] for k in UNTRACED_EXTRAS}
    metrics.update(result["layers"])
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30}{value:>14.6g} {unit}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vidcap", "cli.py")):
        print(f"error: no vidcap sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # set before numpy loads here or in the worker
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        workload = WORKLOADS[name]
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        shown = report(workload, args.seed, args.trace, result)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in shown.items()})
        attempted += result["tally"]["attempted"]
        failed += result["tally"]["failed"]
        correct = correct and result["tally"]["failed"] == 0
    print(json.dumps({"correct": correct and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
