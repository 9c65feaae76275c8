"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads train_toy,train_full,eval_full \
        --seeds 1-10 --seconds 20 [--trace 0|1] [--baseline perfbench/baseline.json]

For every workload and metric it prints the median over the seeds, the
quartiles from statistics.quantiles(n=4), and the spread (Q3 - Q1) as a
share of the median, next to the bound BENCHMARK.json fixes for it; a
spread should stay under a third of its bound.  With --baseline the
medians, quartiles and machine record are merged into that JSON file
(trace 0 fills "end_to_end", trace 1 fills "per_layer"), together with
the figures the ROADMAP quotes from review time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

# ROADMAP review-time figures: (label, value, unit, workload, metric, convert)
ROADMAP_FIGURES = (
    ("quick-start train wall time", 12.5, "s", "train_toy", "throughput_per_s",
     lambda per_s: 400 * 15 / per_s),
    ("full-size training_forward per sample", 87.0, "ms", "train_full",
     "model.training_forward_ms", lambda ms: ms),
    ("full-size training_backward per sample", 1890.0, "ms", "train_full",
     "model.training_backward_ms", lambda ms: ms),
    ("greedy_decode per video", 134.0, "ms", "eval_full", "caption_ms_p50", lambda ms: ms),
)


def parse_seeds(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {"median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else float("nan"), "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)

    table = {}
    for workload in args.workloads.split(","):
        values, failures = {}, 0
        for seed in seeds:
            result = run_once(workload, seed, seconds, args.trace)
            failures += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if k in bounds or args.trace), flush=True)
        table[workload] = {name: summarize(v) for name, v in values.items()}
        print(f"{workload}: {failures} failed checks over {len(seeds)} runs")
        for name, s in table[workload].items():
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                f"bound {bound}: " + ("ok" if s["spread"] < bound / 3 else "WIDE"))
            print(f"  {name:<30} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  {verdict}")

    if args.baseline:
        write_baseline(args.baseline, table, args.trace, seeds, seconds)


def write_baseline(path, table, trace, seeds, seconds):
    import run

    for var in run.BLAS_ENV:  # before worker imports numpy
        os.environ[var] = str(run.BLAS_THREADS)
    import worker
    baseline = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            baseline = json.load(fh)
    baseline["machine"] = worker.machine_info(len(os.sched_getaffinity(0)))
    section = "per_layer" if trace else "end_to_end"
    baseline[section] = {"seeds": seeds, "seconds": seconds, "workloads": {
        w: {name: {k: v for k, v in s.items() if k != "values"}
            for name, s in metrics.items()} for w, metrics in table.items()}}
    figures = []
    for label, value, unit, workload, metric, convert in ROADMAP_FIGURES:
        found = [baseline[sec]["workloads"].get(workload, {}).get(metric)
                 for sec in ("end_to_end", "per_layer") if sec in baseline]
        found = [f for f in found if f]
        if found:
            measured = convert(found[0]["median"])
            figures.append({"figure": label, "roadmap": value, "baseline": measured,
                            "unit": unit, "change": measured / value - 1.0})
    baseline["roadmap_review_figures"] = figures
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
