"""Seeded recovery trials for the benchmark.

Holds the workload table, the timed trial (one ``run_experiment`` call per
trial, timed from outside) and the traced replay, which re-runs a trial
through the package's public calls with one span around each call and
checks that it reproduces ``run_experiment``'s error bit for bit.

Importing this module loads numpy, so ``run.py`` pins the BLAS thread
count before it imports this module.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from superop_sensing import (ExperimentConfig, build_blockwise_design,
                             build_random_design, choi_reshape, emit_results,
                             lindblad_canonical, nesterov_als_solve, random_channel,
                             random_lindbladian, reconstruct_full,
                             relative_frobenius_error, run_experiment,
                             simulate_measurements, solve_first_row_joint)
from superop_sensing.harness import ExperimentResult, SweepPoint, TrialRecord
from superop_sensing.solvers import derive_seed

# Seed-derivation roles used by harness._run_trial; the replay must use the
# same ones to draw the same truth, design, noise and solver start.
ROLE_TRUTH, ROLE_DESIGN, ROLE_NOISE, ROLE_SOLVER = 0, 1, 2, 3

# Master seed of the warm-up trial. It is fixed, not drawn from --seed, so
# that set-up time is the same work in every run.
WARMUP_MASTER_SEED = 7


def _window(baseline: float) -> tuple:
    """Accepted per-trial error: within a factor of 3 of a baseline error.

    Above the window the recovery lost accuracy. Below it the error sits
    under the noise floor, which means the noise or the truth did not reach
    the solver as intended.
    """
    return (baseline / 3, baseline * 3)


@dataclass(frozen=True)
class Workload:
    config: dict          # ExperimentConfig fields other than trials/master_seed
    error_window: tuple   # (low, high) accepted relative Frobenius error
    warmup: dict          # config overrides of the small set-up trial: same path, N=4


# Why each workload was chosen is stated in BENCHMARK.json and README.md.
WORKLOADS = {
    "pairs-n8": Workload(
        dict(task="channel", n=8, kraus_rank=3, design="random_pairs",
             strategy="als_n2", sweep=[1100], sigma=1e-4, solver={"gamma": 1e-6}),
        # criterion 5's als_n2 baseline error
        _window(5.86e-4),
        dict(n=4, kraus_rank=2, sweep=[200])),
    "lindblad-n25": Workload(
        dict(task="lindbladian", n=25, n_jumps=2, design="blockwise",
             strategy="als_n", sweep=[640], sigma=1e-3),
        # criterion 6's mean error at M_O=640 (seed commit's test output)
        _window(3.35e-3),
        dict(n=4, n_jumps=1, sweep=[40])),
}


def trial_master_seed(seed: int, index: int) -> int:
    """Master seed of the index-th trial of a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def experiment_config(workload: Workload, master_seed: int) -> ExperimentConfig:
    return ExperimentConfig(trials=1, master_seed=master_seed, **workload.config)


def timed_trial(config: ExperimentConfig):
    """One untraced trial through run_experiment: (seconds, TrialRecord)."""
    start = time.perf_counter()
    result = run_experiment(config)
    elapsed = time.perf_counter() - start
    return elapsed, result.points[0].records[0]


def warmup_config(workload: Workload) -> ExperimentConfig:
    """The set-up trial: the workload's code path at N=4, fixed master seed."""
    return ExperimentConfig(trials=1, master_seed=WARMUP_MASTER_SEED,
                            **dict(workload.config, **workload.warmup))


def failure(record: TrialRecord, window: tuple) -> str:
    """Why a trial failed, or "" when it passed.

    run_experiment turns every exception into a record message; an error
    outside the workload's window (NaN included) fails the trial too.
    """
    if record.message:
        return record.message
    low, high = window
    if not low <= record.error <= high:
        return f"error {record.error!r} outside [{low:.3e}, {high:.3e}]"
    return ""


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans kept in memory until the run ends.

    Each span is a dict with name, start, end (perf_counter seconds), the
    index of its parent span (None at the top) and the trial id it belongs
    to.
    """

    def __init__(self):
        self.spans = []
        self.trial = None
        self._open = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "trial": self.trial,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


class ReplayMismatch(RuntimeError):
    """The traced replay did not reproduce run_experiment's error bitwise."""


@dataclass
class ReplayOutcome:
    error: float
    iterations: int
    restarts: int
    final_loss: float
    values: int
    emit_bytes: int


def replay_trial(config: ExperimentConfig, tracer: Tracer, emit_dir: str) -> ReplayOutcome:
    """Re-run harness._run_trial's steps through the public calls.

    Spans are named after the layer that does the work.
    """
    def seed(role):
        return derive_seed(config.master_seed, role, 0, 0)

    n, m = config.n, config.sweep[0]
    with tracer.span("trial"):
        with tracer.span("models"):
            if config.task == "channel":
                op = random_channel(n, config.kraus_rank, seed(ROLE_TRUTH))
            else:
                op = lindblad_canonical(
                    random_lindbladian(n, config.n_jumps, seed(ROLE_TRUTH)))
        with tracer.span("reshaping"):
            truth = choi_reshape(op).matrix
        with tracer.span("measurements.design"):
            if config.design == "random_pairs":
                design = build_random_design(n, m, config.source, seed(ROLE_DESIGN))
            else:
                design = build_blockwise_design(n, m, config.source, config.row_index,
                                                seed(ROLE_DESIGN))
        with tracer.span("measurements.simulate"):
            data = simulate_measurements(op, design, config.sigma, config.noise_mode,
                                         seed(ROLE_NOISE))
        cfg = config.solver_config(seed(ROLE_SOLVER))
        with tracer.span("solvers"):
            if config.strategy == "als_n2":
                report = nesterov_als_solve(design, data.values, n * n, n * n, cfg)
                estimate, reports = report.factors.product(), [report]
            elif config.strategy == "als_n":
                blocks, report = solve_first_row_joint(design.observables, data.values,
                                                       n, cfg)
                reports = [report]
            else:
                raise ValueError(f"no replay for strategy {config.strategy!r}")
        if config.strategy != "als_n2":
            with tracer.span("reconstruction"):
                estimate = reconstruct_full(blocks, config.rank, anchor=config.row_index,
                                            hermitize=config.hermitize).matrix
        with tracer.span("harness.score"):
            error = relative_frobenius_error(estimate, truth)

    iterations = sum(r.iterations for r in reports)
    restarts = sum(r.restarts for r in reports)
    record = TrialRecord(0, error, 0.0, iterations, restarts,
                         error < config.recovery_threshold)
    result = ExperimentResult(config.manifest(), [SweepPoint(m, [record])])
    with tracer.span("harness.emit"):
        written = emit_results(result, emit_dir)
    return ReplayOutcome(error, iterations, restarts,
                         float(np.mean([r.final_loss for r in reports])),
                         int(np.size(data.values)),
                         sum(os.path.getsize(p) for p in written))


# ---------------------------------------------------------------------------
# runs


@dataclass
class RunResult:
    attempted: int
    failures: list          # one message per failed trial
    metrics: dict           # name -> (value, unit)
    trials: list            # per-trial detail for the results file
    spans: list

    @property
    def correct(self) -> bool:
        return not self.failures


def _keep_going(elapsed: float, durations: list, seconds: float) -> bool:
    # Start another trial only if a typical one still ends inside the
    # measured window, so a run lasts about `seconds` whatever the trial cost.
    return elapsed + statistics.median(durations) <= seconds


def run_untraced(workload: Workload, seed: int, seconds: float) -> RunResult:
    """Timed trials until `seconds` is used up; end-to-end metrics."""
    times, errors, failures, trials = [], [], [], []
    start = time.perf_counter()
    index = 0
    while index == 0 or _keep_going(time.perf_counter() - start, times, seconds):
        config = experiment_config(workload, trial_master_seed(seed, index))
        elapsed, record = timed_trial(config)
        reason = failure(record, workload.error_window)
        times.append(elapsed)
        if record.error is not None:
            errors.append(record.error)
        if reason:
            failures.append(reason)
        trials.append({"master_seed": config.master_seed, "seconds": elapsed,
                       "error": record.error, "iterations": record.iterations,
                       "restarts": record.restarts, "failure": reason})
        index += 1
    wall = time.perf_counter() - start
    passed = index - len(failures)
    metrics = {
        "trials_per_s": (passed / wall, "1/s"),
        "trial_s_p50": (statistics.median(times), "s"),
        "rel_error_p50": (statistics.median(errors) if errors else None, "1"),
        "pass_share": (passed / index, "1"),
    }
    return RunResult(index, failures, metrics, trials, [])


def _self_time(spans: list, idx: int) -> float:
    """Duration of span idx minus the time its direct children cover."""
    span = spans[idx]
    children = sum(s["end"] - s["start"] for s in spans if s["parent"] == idx)
    return span["end"] - span["start"] - children


def run_traced(workload: Workload, seed: int, seconds: float, emit_dir: str) -> RunResult:
    """Each trial runs untraced, then replayed with spans; per-layer metrics.

    Raises ReplayMismatch when a replayed error differs from the untraced
    one in any bit, since the spans would then describe another program.
    """
    tracer = Tracer()
    untraced, durations, failures, trials, outcomes = [], [], [], [], []
    start = time.perf_counter()
    index = 0
    while index == 0 or _keep_going(time.perf_counter() - start, durations, seconds):
        pair_start = time.perf_counter()
        config = experiment_config(workload, trial_master_seed(seed, index))
        elapsed, record = timed_trial(config)
        reason = failure(record, workload.error_window)
        untraced.append(elapsed)
        if record.message:
            # nothing to replay: the trial raised inside run_experiment
            failures.append(reason)
        else:
            tracer.trial = index
            outcome = replay_trial(config, tracer, emit_dir)
            if outcome.error != record.error:
                raise ReplayMismatch(
                    f"trial {index} (master seed {config.master_seed}): replay error "
                    f"{outcome.error!r} != run_experiment error {record.error!r}")
            outcomes.append(outcome)
            if reason:
                failures.append(reason)
        trials.append({"master_seed": config.master_seed, "seconds": elapsed,
                       "error": record.error, "failure": reason})
        durations.append(time.perf_counter() - pair_start)
        index += 1

    if not outcomes:
        raise RuntimeError("every trial raised inside run_experiment; nothing was traced")
    spans = tracer.spans
    per_trial = {}      # trial id -> {span name: seconds}
    trial_spans = []    # index of each trial's top span
    for i, s in enumerate(spans):
        totals = per_trial.setdefault(s["trial"], {})
        totals[s["name"]] = totals.get(s["name"], 0.0) + s["end"] - s["start"]
        if s["name"] == "trial":
            trial_spans.append(i)

    def p50(name):
        return statistics.median(t.get(name, 0.0) for t in per_trial.values())

    def mean(attr):
        return statistics.fmean(getattr(o, attr) for o in outcomes)

    solve_total = sum(t["solvers"] for t in per_trial.values())
    iterations = sum(o.iterations for o in outcomes)
    metrics = {
        "solvers.solve_s": (p50("solvers"), "s"),
        "solvers.sweeps_per_s": (iterations / solve_total, "1/s"),
        "solvers.iterations": (mean("iterations"), "count"),
        "solvers.restarts": (mean("restarts"), "count"),
        "solvers.restart_share": (sum(o.restarts for o in outcomes) / iterations, "1"),
        "solvers.final_loss": (statistics.median(o.final_loss for o in outcomes), "1"),
        "models.truth_s": (p50("models"), "s"),
        "reshaping.choi_s": (p50("reshaping"), "s"),
        "measurements.design_s": (p50("measurements.design"), "s"),
        "measurements.simulate_s": (p50("measurements.simulate"), "s"),
        "measurements.values": (mean("values"), "count"),
        "reconstruction.s": (p50("reconstruction"), "s"),
        "harness.score_s": (p50("harness.score"), "s"),
        "harness.emit_s": (p50("harness.emit"), "s"),
        "harness.emit_bytes": (mean("emit_bytes"), "bytes"),
        "trace.unaccounted_s": (statistics.median(
            _self_time(spans, i) for i in trial_spans), "s"),
        "trace.overhead_s": (p50("trial") - statistics.median(untraced), "s"),
    }
    return RunResult(index, failures, metrics, trials, spans)
