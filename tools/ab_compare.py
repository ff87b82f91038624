"""Compare a git revision with the checkout, trial by trial, in one process.

Run from the repository root:

    python3 tools/ab_compare.py --rev HEAD --workload lindblad-n25 --trials 40

The package of revision `--rev` is exported with `git archive` into a
temporary directory and imported as `superop_sensing_base` (its
imports are relative, so renaming the directory renames the package); the
checkout's `src/superop_sensing` is the change. Both run the benchmark's
workload config (`bench/pipeline.WORKLOADS`) at the master seeds the
benchmark would use (`trial_master_seed`), one `run_experiment` trial at a
time. The two sides alternate trial by trial and the order flips every
trial, so host drift and heap state fall on both sides alike; run one
workload per process, as heap state carries across workloads in one
process. BLAS runs on one thread, set before numpy loads, as in the
benchmark.

Prints one JSON object: per side the number of failed trials and, over
the trials that passed, the median trial time, the median iterations, a
tally of the `stop` values (so a change of the stop rule shows its sweep
cut), the median of each stage time (`stage_s`) and the median of each
part of the solve (`solve_part_s`: Gram build, right and left
half-sweeps, losses; empty for a revision that does not record them), the
ratio of the change's median trial time to the
base's, the number of trials where the change was faster, whether
iterations, restarts, fallbacks and stop agree on every trial, and, over
the trials both sides finished, whether the errors and the final losses
are bitwise equal and their largest relative differences, so one run
backs a bitwise claim. After the timed trials each side runs one more,
untimed trial under `tracemalloc` at the first timed trial's master
seed, and reports its traced peak
(`traced_peak_mib`); that trial enters no median. This is supporting
evidence; it does not replace the benchmark's alternating run pairs.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "bench")]

import pipeline  # noqa: E402  (bench/pipeline.py; imports numpy)

BASE_PACKAGE = "superop_sensing_base"


def export_package(rev: str, into: str) -> None:
    """Write revision rev's src/superop_sensing to into/BASE_PACKAGE."""
    blob = subprocess.run(["git", "-C", _ROOT, "archive", rev, "src/superop_sensing"],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into, filter="data")
    os.rename(os.path.join(into, "src", "superop_sensing"),
              os.path.join(into, BASE_PACKAGE))


def trial(harness, config: dict, master_seed: int) -> dict:
    cfg = harness.ExperimentConfig(trials=1, master_seed=master_seed, **config)
    start = time.perf_counter()
    record = harness.run_experiment(cfg).points[0].records[0]
    return {"seconds": time.perf_counter() - start, "error": record.error,
            "final_loss": record.final_loss,
            "counts": [record.iterations, record.restarts, record.fallbacks, record.stop],
            "stage_s": record.stage_s, "part_s": getattr(record, "solve_part_s", {}),
            "message": record.message}


def traced_peak_mib(harness, config: dict, master_seed: int) -> float:
    """Peak memory traced by `tracemalloc` over one trial, in MiB."""
    tracemalloc.start()
    try:
        trial(harness, config, master_seed)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def side_summary(trials: list) -> dict:
    """Medians and the tally of stops over the trials that passed (a failed
    trial records no stage or part times); a median is None when none
    passed."""
    passed = [t for t in trials if not t["message"]]

    def p50(key):
        return {name: statistics.median(t[key][name] for t in passed)
                for name in (passed[0][key] if passed else ())}

    def median(values):
        return statistics.median(values) if passed else None

    return {"trial_s_p50": median(t["seconds"] for t in passed),
            "iterations_p50": median(t["counts"][0] for t in passed),
            "stops": dict(sorted(collections.Counter(t["counts"][3] for t in passed).items())),
            "stage_s_p50": p50("stage_s"), "part_s_p50": p50("part_s"),
            "failed": len(trials) - len(passed)}


def _common(pairs: list, key: str) -> list:
    # the (base, change) values of key on the trials both sides finished
    return [(b[key], c[key]) for b, c in pairs if None not in (b[key], c[key])]


def identical(pairs: list, key: str) -> bool:
    """Whether key is bitwise equal on every trial both sides finished."""
    return all(float(b).hex() == float(c).hex() for b, c in _common(pairs, key))


def max_rel_diff(pairs: list, key: str):
    """The largest |change - base| / |base| of key over the trials both
    sides finished (inf where only the base is 0); None if there are none."""
    return max((abs(c - b) / abs(b) if b else (0.0 if c == b else math.inf)
                for b, c in _common(pairs, key)), default=None)


def compare(base, change, workload: str, seed: int, n_trials: int) -> dict:
    config = pipeline.WORKLOADS[workload].config
    warm = dict(config, **pipeline.WORKLOADS[workload].warmup)
    for harness in (base, change):
        trial(harness, warm, pipeline.WARMUP_MASTER_SEED)
    runs = {"base": [], "change": []}
    for i in range(n_trials):
        master = pipeline.trial_master_seed(seed, i)
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for name in order:
            runs[name].append(trial(base if name == "base" else change, config, master))
    pairs = list(zip(runs["base"], runs["change"]))
    summary = {name: side_summary(trials) for name, trials in runs.items()}
    first = pipeline.trial_master_seed(seed, 0)
    for name, harness in (("base", base), ("change", change)):
        summary[name]["traced_peak_mib"] = traced_peak_mib(harness, config, first)
    base_s, change_s = summary["base"]["trial_s_p50"], summary["change"]["trial_s_p50"]
    return {
        "workload": workload, "seed": seed, "trials": n_trials,
        "time_ratio": change_s / base_s if None not in (base_s, change_s) else None,
        "change_faster": sum(c["seconds"] < b["seconds"] for b, c in pairs),
        "counts_identical": all(b["counts"] == c["counts"] for b, c in pairs),
        "errors_identical": identical(pairs, "error"),
        "max_rel_error_diff": max_rel_diff(pairs, "error"),
        "final_losses_identical": identical(pairs, "final_loss"),
        "max_rel_final_loss_diff": max_rel_diff(pairs, "final_loss"),
        **summary,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="git revision of the base side")
    parser.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--trials", type=int, default=40)
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    tmp = tempfile.mkdtemp(prefix="ab_compare_")
    try:
        export_package(args.rev, tmp)
        sys.path.insert(0, tmp)
        base = importlib.import_module(BASE_PACKAGE + ".harness")
        change = importlib.import_module("superop_sensing.harness")
        result = compare(base, change, args.workload, args.seed, args.trials)
    finally:
        shutil.rmtree(tmp)
    print(json.dumps(dict(result, rev=args.rev), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
