"""Benchmark of seeded recovery trials for superop-sensing.

Run from the repository root:

    python3 bench/run.py --workload lindblad-n25 --seed 1 --seconds 30 --trace 0

Each trial draws a truth, a design and noisy data, solves, reconstructs and
scores, through one ``harness.run_experiment`` call per trial. With
``--trace 0`` the run times those calls and prints the end-to-end metrics;
with ``--trace 1`` each trial is also replayed through the public calls of
every layer with a span around each, and the run prints per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Environment, per-trial
detail and spans go to ``.bench_out/`` under the repository root.

BLAS runs on one thread, set here before numpy loads, so runs are steady
and form the single-threaded baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BLAS_THREADS = 1
SETUP_REPEATS = 7


def git_commit(root: str):
    """Commit of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: str) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": BLAS_THREADS,
            "commit": git_commit(root)}


def setup_seconds(src: str, workload: str) -> list:
    """Wall times of fresh interpreters that each import the package and run
    the workload's small warm-up trial: the benchmark's set-up."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import pipeline; "
            "pipeline.timed_trial(pipeline.warmup_config(pipeline.WORKLOADS[sys.argv[3]]))")
    bench = os.path.dirname(os.path.abspath(__file__))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, src, bench, workload], check=True)
        times.append(time.perf_counter() - start)
    return times


def result_line(run, extra_metrics: dict) -> str:
    metrics = dict(run.metrics, **extra_metrics)
    return json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "superop_sensing", "__init__.py")):
        print(f"error: no superop_sensing package under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)

    sys.path.insert(0, src)
    import pipeline
    if args.workload not in pipeline.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(pipeline.WORKLOADS)}")
    workload = pipeline.WORKLOADS[args.workload]
    # set-up, timed in fresh processes; then the same warm-up here, untimed
    setup_times = setup_seconds(src, args.workload)
    setup_s = statistics.median(setup_times)
    warmup_s, warm_record = pipeline.timed_trial(pipeline.warmup_config(workload))

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    if args.trace:
        emit_dir = os.path.join(out_dir, "emit", args.workload)
        try:
            run = pipeline.run_traced(workload, args.seed, args.seconds, emit_dir)
        except pipeline.ReplayMismatch as exc:
            print(f"error: replay guard: {exc}", file=sys.stderr)
            return 3
        extra = {}
    else:
        run = pipeline.run_untraced(workload, args.seed, args.seconds)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        extra = {"peak_rss_mib": (peak_mib, "MiB"), "setup_s": (setup_s, "s")}

    env = environment(root)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "setup": {"setup_s": setup_times, "warmup_s": warmup_s,
                        "warmup_error": warm_record.error},
              "error_window": workload.error_window, "trials": run.trials,
              "failures": run.failures, "spans": run.spans}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(detail, fh, indent=1)

    print("environment " + json.dumps(env))
    for i, trial in enumerate(run.trials):
        print(f"trial {i}: {trial['seconds']:.3f} s, error {trial['error']!r}"
              + (f", FAILED: {trial['failure']}" if trial["failure"] else ""))
    print(result_line(run, extra))
    return 0


if __name__ == "__main__":
    sys.exit(main())
