"""Smoke test of the benchmark at N=4: every workload's code path, the replay
guard and the metric printer, in seconds.

Run from the repository root: ``python3 -m pytest bench/test_smoke.py -q``
"""

import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import pipeline  # noqa: E402
import run  # noqa: E402

def _benchmark(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[kind]


def _benchmark_metrics(kind):
    return {m["name"]: m["unit"] for m in _benchmark(kind)}


def _smoke_workload(name):
    # the workload's own warm-up size: the same code path at N=4
    workload = pipeline.WORKLOADS[name]
    return replace(workload, config=dict(workload.config, **workload.warmup),
                   error_window=(1e-9, 0.5))


def test_benchmark_names_every_workload():
    assert set(pipeline.WORKLOADS) == {w["name"] for w in _benchmark("workloads")}


@pytest.mark.parametrize("name", sorted(pipeline.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(name):
    result = pipeline.run_untraced(_smoke_workload(name), seed=1, seconds=0)
    line = json.loads(run.result_line(
        result, {"peak_rss_mib": (1.0, "MiB"), "setup_s": (1.0, "s")}))
    assert line["correct"] and line["attempted"] == 1 and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        _benchmark_metrics("end_to_end")


@pytest.mark.parametrize("name", sorted(pipeline.WORKLOADS))
def test_traced_replay_matches_and_prints_every_per_layer_metric(name, tmp_path):
    result = pipeline.run_traced(_smoke_workload(name), seed=1, seconds=0,
                                 emit_dir=str(tmp_path))
    line = json.loads(run.result_line(result, {}))
    assert line["correct"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        _benchmark_metrics("per_layer")
    trial = [s for s in result.spans if s["name"] == "trial"]
    assert len(trial) == 1 and trial[0]["parent"] is None
    assert all(s["trial"] == 0 and s["end"] >= s["start"] for s in result.spans)


def test_replay_guard_rejects_a_one_ulp_difference(monkeypatch, tmp_path):
    score = pipeline.relative_frobenius_error
    monkeypatch.setattr(pipeline, "relative_frobenius_error",
                        lambda est, ref: float(np.nextafter(score(est, ref), 1.0)))
    with pytest.raises(pipeline.ReplayMismatch):
        pipeline.run_traced(_smoke_workload("lindblad-n25"), seed=1, seconds=0,
                            emit_dir=str(tmp_path))


def test_error_outside_window_fails_the_trial():
    workload = replace(_smoke_workload("lindblad-n25"), error_window=(0.5, 1.0))
    result = pipeline.run_untraced(workload, seed=1, seconds=0)
    assert len(result.failures) == 1
    line = json.loads(run.result_line(result, {}))
    assert not line["correct"] and line["failed"] == 1
    assert line["metrics"]["trials_per_s"]["value"] == 0
    assert line["metrics"]["pass_share"]["value"] == 0


def test_exits_nonzero_without_result_outside_a_checkout(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           "--workload", "pairs-n8", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
