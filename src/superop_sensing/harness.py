"""End-to-end experiment pipelines and machine-readable results.

A single experiment config describes: which ground truth to draw (channel,
Lindbladian, or Haar low-rank matrix), which measurement design and noise
level to simulate, which recovery strategy to run, and a sweep over the
measurement budget. Every trial derives its own seeds from the master seed,
so rerunning a config reproduces every number exactly; wall-clock timings
are the only non-reproducible fields and are kept in a separate section of
the emitted JSON.

Strategies: `als_n2` solves the full reshaped matrix from random pairs;
`als_p`, `als_n`, `als_i` recover the anchor block row (independently,
jointly, or on a subset) and complete the matrix deterministically.
`als_n` is `als_i` at ratio 1. A config's design kind follows from its
strategy, so `design` may be left out; a given one must match.

Each config field but `design`, which the strategy fixes, has one rule
in `_FIELDS`, checked by `errors._check_fields`, the check `SolverConfig`
and the stored manifests also pass through. `RUN_OPTIONS` is the one table of the options only some
runs read: each truth rank by its task (`kraus_rank` by channels,
`n_jumps` by Lindbladians, `r_plus` and `r_minus` by Haar truths), the
anchor row, the noise mode and hermitizing by blockwise runs, and the
subset ratio by `als_i`. Through `check_run_options` the config and the
`generate`, `measure` and `solve` commands reject one set away from the
value every other run keeps for a run that does not read it.

A trial runs six timed stages (`STAGES`): truth, design, simulate, solve,
reconstruct and score. Their times are kept per record (`stage_s`) and
emitted under `timings` only, as are the solve's own parts, summed over
its solve reports (`solve_part_s`: Gram build, right and left half-sweeps,
losses).

Memory: each N^2 x N^2 array of a trial lives only while something reads
it. The truth is drawn in signed Kraus form (`models.draw_truth`) and its
dense matrix is built at scoring. A random pair design is drawn in
chunks straight into its stacks, so it exists once; a blockwise design
is drawn straight into its observables' real coordinates C (M_O x N^2
reals, half the stack's bytes; see `measurements`), and no stack is
made. The solve runs in two steps (`solvers.set_up_strategy`), and the
design and data are dropped between them: a blockwise set-up makes each
problem's backprojections from C, and the run reads only those and the
design's C, which it shares. The run fills G's packed lower rows (about
half of the complex N^2 x N^2 `G`, which is never made) from the real
N^2 x N^2 `S = C^T C`, made in the rows' own buffer, so the build and
the sweeps hold C and the packed rows; the trial drops them and the
solve reports (their factors) when the run returns, and the row estimate
once completion has read it, so no array made in the solve outlives it
into scoring, where it could split the heap's freed space under the
dense truth (at N=25 the process then keeps the freed pages and maps the
truth afresh: `peak_rss_mib` of a 55 s `lindblad-n25` run read about
54.1 MiB with the reports held and 52.0 without). At N=25,
M_O=640 (C 3.05 MiB, the rows 3.1) the traced stage peaks are design
3.84, simulate 4.30, set-up 4.32 and run 7.75 MiB, the trial's peak
(score 6.88); at N=64, M_O=1640 they are 57.9, 71.6, 66.8 and 196 MiB,
and scoring, 269 MiB, is the peak. Completion keeps
the estimate as its rank-r factors (`reconstruction.CompletedMatrix`),
and an `als_n2` solve returns its factors too; a hermitized completion
is the rank-2r pair of (K + K^H) / 2. Scoring builds the truth's
dense matrix and subtracts the estimate from it in its buffer one row
block of N rows at a time, each block the factors' full-width product,
so that stage holds one N^2 x N^2 array and an N x N^2 block (1.05 N^4
complex entries at N=64 under tracemalloc, 269 MiB, where a dense
estimate beside the truth would take 2.0 N^4). An `als_n2` trial's peak is the pair workspace: with k = N^2 r,
the M x k rows, a scratch array of 2 k^2 entries (the row assembly works
2 k pairs at a time in it) and the k x k normal matrix, all complex (3.2,
1.1 and 0.6 MiB at N=8, M=1100, r=3, beside the 2.1 MiB design).
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import (NUMERICAL_ERRORS, DimensionError, UndefinedMetricError, _check_fields,
                     _is_int)
from .measurements import (DESIGN_KINDS, NOISE_MODES, SOURCES, _qubits_for,
                           build_design, simulate_measurements)
from .models import TASKS, draw_truth
from .reconstruction import CompletedMatrix, reconstruct_full
from .reshaping import ReshapedMatrix, choi_reshape
from .serialize import save_json, write_text
from .solvers import (STRATEGY_DESIGNS, FactorPair, SolverConfig, derive_seed,
                      report_totals, set_up_strategy)

__all__ = [
    "STAGES",
    "RUN_OPTIONS",
    "ExperimentConfig",
    "TrialRecord",
    "SweepPoint",
    "ExperimentResult",
    "relative_frobenius_error",
    "recovery_rate",
    "run_experiment",
    "emit_results",
    "read_csv_records",
    "check_run_options",
]

_LOG = logging.getLogger(__name__)   # a child of the package logger, "superop_sensing"

# seed-derivation roles
_ROLE_TRUTH, _ROLE_DESIGN, _ROLE_NOISE, _ROLE_SOLVER = 0, 1, 2, 3

# the timed stages of a trial, in order; "score" includes building the
# truth's dense matrix and the estimate's row blocks from its factors
STAGES = ("truth", "design", "simulate", "solve", "reconstruct", "score")


def _as_matrix(x) -> np.ndarray:
    if isinstance(x, FactorPair):
        return x.product()
    return x.matrix if isinstance(x, (ReshapedMatrix, CompletedMatrix)) else np.asarray(x)


def relative_frobenius_error(estimate, truth) -> float:
    """||K - K*||_F / ||K*||_F for matrices, ReshapedMatrix, CompletedMatrix
    or FactorPair values.

    Neither input is changed: the difference is taken in a copy of the
    truth, and an estimate held as factors is subtracted from it one row
    block of their product at a time, as a trial scores, so no dense
    estimate is made. A truth of zero or non-finite norm raises
    UndefinedMetricError.
    """
    ref = _as_matrix(truth)
    factors = estimate.factors if isinstance(estimate, CompletedMatrix) else estimate
    if isinstance(factors, FactorPair):
        shape = (len(factors.left), len(factors.right))
        dtype, blocks = np.result_type(factors.left, factors.right), _row_blocks(factors)
    else:
        est = _as_matrix(estimate)
        shape, dtype, blocks = est.shape, est.dtype, [(..., est)]
    if shape != ref.shape:
        raise DimensionError(f"shape mismatch {shape} vs {ref.shape}")
    return _error_in_place(ref.astype(np.result_type(dtype, ref)), blocks)


def _row_blocks(factors: FactorPair):
    """The (rows, the product's rows) pairs of a factor pair's d1 x d2
    product, N = isqrt(d1) rows at a time, each bitwise those rows of the
    whole product."""
    n = max(1, math.isqrt(len(factors.left)))
    for i in range(0, len(factors.left), n):
        yield slice(i, i + n), factors.product(slice(i, i + n))


def _error_in_place(truth: np.ndarray, row_blocks) -> float:
    """relative_frobenius_error of an estimate given as (rows, the
    estimate's rows) pairs, with the difference taken in truth's own
    buffer, which is overwritten: ||K*|| first, then K* - K in place, block
    by block, whose norm is that of K - K* bit for bit."""
    denom = np.linalg.norm(truth)
    if not 0 < denom < np.inf:                             # NaN fails too
        raise UndefinedMetricError(f"reference matrix norm {denom} is not finite and positive")
    for rows, block in row_blocks:
        truth[rows] -= block
    return float(np.linalg.norm(truth) / denom)


def recovery_rate(errors, threshold: float) -> float:
    """Fraction of errors strictly below the threshold."""
    errors = list(errors)
    if not errors:
        raise UndefinedMetricError("empty error list")
    if not threshold > 0:                                  # NaN fails too
        raise UndefinedMetricError(f"threshold must be positive, got {threshold}")
    hits = sum(1 for e in errors if e is not None and math.isfinite(e) and e < threshold)
    return hits / len(errors)


# ExperimentConfig's fields by the rules of `errors._check_fields`
_FIELDS = {"task": TASKS, "n": 2, "strategy": tuple(STRATEGY_DESIGNS), "source": SOURCES, "kraus_rank": 0, "n_jumps": 0, "r_plus": 0, "r_minus": 0,
           "sigma": "[0, inf)", "noise_mode": NOISE_MODES, "subset_ratio": "(0, 1]",
           "trials": 1, "master_seed": 0, "recovery_threshold": "(0, inf)",
           "row_index": 0, "hermitize": (False, True)}
# task -> (its truth rank as messages name it, least value, rule); the
# truth's reshaped matrix is n^2 x n^2, so its rank is at most n^2
_TRUTH_RANKS = {"channel": ("kraus_rank", 1, lambda c: c.kraus_rank),
                "lindbladian": ("n_jumps + 2", 3, lambda c: c.n_jumps + 2),
                "haar": ("r_plus + r_minus", 1, lambda c: c.r_plus + c.r_minus)}
# options that only some runs read -> (the task, design kind or strategy
# that reads it, the value every other run keeps); a strategy reads what
# its design reads
RUN_OPTIONS = {"kraus_rank": ("channel", 0), "n_jumps": ("lindbladian", 0),
               "r_plus": ("haar", 0), "r_minus": ("haar", 0),
               "row_index": ("blockwise", 0), "noise_mode": ("blockwise", "synthetic"),
               "hermitize": ("blockwise", False), "subset_ratio": ("als_i", 1.0)}


def check_run_options(*runs: str, **options) -> None:
    """Raise DimensionError for the first option of `RUN_OPTIONS` that
    none of `runs` (the run's task, design kind or strategy) reads but
    that is set off the value it keeps; an option given as None counts as
    not given."""
    readers = set(runs) | {STRATEGY_DESIGNS.get(run) for run in runs}
    for name, value in options.items():
        reader, default = RUN_OPTIONS[name]
        if value is not None and value != default and reader not in readers:
            kind = ("task" if reader in TASKS else
                    "design" if reader in DESIGN_KINDS else "strategy")
            raise DimensionError(f"{name} is read only by the {reader} {kind}, not by "
                                 f"{'/'.join(runs)}: leave it at {default!r}, got {value!r}")


@dataclass
class ExperimentConfig:
    """Knobs of one experiment; see module docstring for the pipeline.

    `rank`, set at construction, is the solver rank: `solver["rank"]` when
    given, else the truth's rank. `design` is set at construction to the
    strategy's design kind (`solvers.STRATEGY_DESIGNS`); a given value
    must be that kind. No design exists for n = 1, or for the Pauli source
    with n not a power of 2, so such a config is rejected.
    """

    task: str
    n: int
    strategy: str
    sweep: list                     # M values (random_pairs) or M_O values
    design: str | None = None       # the strategy's design kind when not given
    source: str = "random"
    kraus_rank: int = 0             # channel
    n_jumps: int = 0                # lindbladian
    r_plus: int = 0                 # haar
    r_minus: int = 0
    sigma: float = 0.0
    noise_mode: str = "synthetic"
    subset_ratio: float = 1.0
    trials: int = 1
    master_seed: int = 0
    recovery_threshold: float = 1e-5
    row_index: int = 0
    hermitize: bool = False
    solver: dict = field(default_factory=dict)  # overrides for SolverConfig

    def __post_init__(self):
        vars(self).update(_check_fields(vars(self), _FIELDS))
        if self.source == "pauli":
            _qubits_for(self.n)             # Pauli designs need n a power of 2
        if self.row_index >= self.n:
            raise ValueError(f"row_index must be in [0, {self.n}), got {self.row_index}")
        kind = STRATEGY_DESIGNS[self.strategy]
        if self.design not in (None, kind):
            raise ValueError(f"{self.strategy} needs the {kind} design, got {self.design!r}")
        self.design = kind
        sweep = self.sweep if isinstance(self.sweep, (list, tuple)) else [self.sweep]
        if not sweep or not all(_is_int(v) and v >= 1 for v in sweep):
            raise ValueError(f"sweep must hold integers >= 1, got {self.sweep!r}")
        self.sweep = [int(v) for v in sweep]
        name, least, rule = _TRUTH_RANKS[self.task]
        truth_rank = rule(self)
        if not least <= truth_rank <= self.n ** 2:
            raise ValueError(f"{self.task} task needs {least} <= {name} <= n**2 = "
                             f"{self.n ** 2}, got {truth_rank}")
        check_run_options(self.task, self.strategy,
                          **{name: getattr(self, name) for name in RUN_OPTIONS})
        if not isinstance(self.solver, dict):
            raise ValueError(f"solver must be an object, got {self.solver!r}")
        if "seed" in self.solver:
            raise ValueError("solver seeds are derived from master_seed")
        params = {"rank": truth_rank, **self.solver}
        try:
            self._solver = SolverConfig(**params)
        except TypeError as exc:
            raise ValueError(f"bad solver settings: {exc}") from exc
        self.rank = params["rank"]

    def solver_config(self, seed: int) -> SolverConfig:
        return replace(self._solver, seed=seed)

    def manifest(self) -> dict:
        out = asdict(self)
        out["rank"] = self.rank
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config of a JSON object. A "rank" key, as a manifest holds,
        is accepted only when it equals the derived rank."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        data = dict(data)
        given = sorted(key for key in ("sweep", "m", "m_o") if key in data)
        if len(given) > 1:
            raise ValueError(f"give one of sweep, m and m_o, got {given}")
        if given:
            data["sweep"] = data.pop(given[0])
        has_rank, rank = "rank" in data, data.pop("rank", None)
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        try:
            config = cls(**data)
        except TypeError as exc:
            raise ValueError(f"incomplete config: {exc}") from exc
        if has_rank and not (_is_int(rank) and rank == config.rank):
            raise ValueError(f"rank {rank!r} is not the derived rank {config.rank}; "
                             f"set solver.rank to choose the solver rank")
        return config


@dataclass
class TrialRecord:
    trial: int
    error: float | None
    wall_time: float
    iterations: int
    restarts: int
    recovered: bool
    message: str = ""
    fallbacks: int = 0      # half-sweeps of the trial's solves that left Cholesky
    stop: str = ""          # "converged" if every solve converged, else "max_iter"
    final_loss: float | None = None   # mean of the solves' final losses
    stage_s: dict = field(default_factory=dict)   # STAGES -> seconds; empty if it raised
    solve_part_s: dict = field(default_factory=dict)   # summed SolveReport.part_s; likewise


@dataclass
class SweepPoint:
    m: int
    records: list

    def aggregates(self, threshold: float) -> dict:
        errors = [r.error for r in self.records if r.error is not None
                  and math.isfinite(r.error)]
        times = [r.wall_time for r in self.records]
        return {
            "mean_error": float(np.mean(errors)) if errors else None,
            "std_error": float(np.std(errors, ddof=1)) if len(errors) > 1 else 0.0,
            "recovery_rate": recovery_rate([r.error for r in self.records], threshold),
            "mean_time_s": float(np.mean(times)),
            "std_time_s": float(np.std(times, ddof=1)) if len(times) > 1 else 0.0,
            "mean_iterations": float(np.mean([r.iterations for r in self.records])),
            "failed_trials": sum(1 for r in self.records if r.message),
        }


@dataclass
class ExperimentResult:
    manifest: dict
    points: list

    @property
    def threshold(self) -> float:
        return self.manifest["recovery_threshold"]

    def manifest_hash(self) -> str:
        blob = json.dumps(self.manifest, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _run_trial(config: ExperimentConfig, point_idx: int, m: int, trial: int) -> TrialRecord:
    seed = lambda role: derive_seed(config.master_seed, role, point_idx, trial)  # noqa: E731
    marks = [time.perf_counter()]
    stamp = lambda: marks.append(time.perf_counter())  # noqa: E731
    truth = draw_truth(config.task, config.n, seed(_ROLE_TRUTH), config.kraus_rank,
                       config.n_jumps, config.r_plus, config.r_minus)
    stamp()
    design = build_design(config.design, config.n, m, config.source, seed(_ROLE_DESIGN),
                          config.row_index)
    stamp()
    data = simulate_measurements(truth, design, config.sigma, config.noise_mode,
                                 seed(_ROLE_NOISE))
    stamp()
    run = set_up_strategy(config.strategy, design, data.values,
                          config.solver_config(seed(_ROLE_SOLVER)), config.subset_ratio)
    del design, data        # the run holds what it reads of them; the rest goes here
    estimate, reports = run()
    totals = report_totals(reports)
    del run, reports        # what the run read (C, G's packed rows), and its factors
    stamp()
    factors = estimate if config.strategy == "als_n2" else reconstruct_full(
        estimate, config.rank, anchor=config.row_index, hermitize=config.hermitize).factors
    del estimate            # a blockwise row estimate, read by completion alone
    stamp()
    error = _error_in_place(choi_reshape(truth).matrix, _row_blocks(factors))
    stamp()

    stage_s = {name: end - start for name, start, end in zip(STAGES, marks, marks[1:])}
    return TrialRecord(trial, error, stage_s["solve"] + stage_s["reconstruct"],
                       totals["iterations"], totals["restarts"],
                       error < config.recovery_threshold, fallbacks=totals["fallbacks"],
                       stop=totals["stop"], final_loss=totals["final_loss"],
                       stage_s=stage_s, solve_part_s=totals["part_s"])


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all sweep points and trials.

    A numerical failure or an infeasible shape (DimensionError) becomes a
    non-recovery record; any other exception is a programming error and
    propagates. Each sweep point ends with one INFO line on the package
    logger.
    """
    points = []
    for point_idx, m in enumerate(config.sweep):
        start = time.perf_counter()
        records = []
        for trial in range(config.trials):
            try:
                records.append(_run_trial(config, point_idx, m, trial))
            except NUMERICAL_ERRORS + (DimensionError,) as exc:  # recorded, never dropped
                records.append(TrialRecord(trial, None, 0.0, 0, 0, False,
                                           f"{type(exc).__name__}: {exc}"))
        points.append(SweepPoint(m, records))
        agg = points[-1].aggregates(config.recovery_threshold)
        _LOG.info("%s m=%d: %d trials (%d failed), mean error %s, recovery %.2f, %.3f s",
                  config.strategy, m, len(records), agg["failed_trials"],
                  "n/a" if agg["mean_error"] is None else f"{agg['mean_error']:.3e}",
                  agg["recovery_rate"], time.perf_counter() - start)
    return ExperimentResult(config.manifest(), points)


# ---------------------------------------------------------------------------
# emission


def _result_payload(result: ExperimentResult, aggregates: list) -> tuple[dict, dict]:
    """Split into a deterministic payload and the volatile timing section,
    given each point's aggregates."""
    points_out, timings = [], []
    for point, agg in zip(result.points, aggregates):
        agg = dict(agg)
        times = {"per_trial_s": [r.wall_time for r in point.records],
                 "per_trial_stage_s": [r.stage_s for r in point.records],
                 "per_trial_solve_part_s": [r.solve_part_s for r in point.records],
                 "mean_time_s": agg.pop("mean_time_s"),
                 "std_time_s": agg.pop("std_time_s")}
        records = [{"trial": r.trial, "error": r.error, "iterations": r.iterations,
                    "restarts": r.restarts, "fallbacks": r.fallbacks,
                    "stop": r.stop, "final_loss": r.final_loss,
                    "recovered": r.recovered, "message": r.message}
                   for r in point.records]
        points_out.append({"m": point.m, "records": records, "aggregates": agg})
        timings.append(times)
    payload = {"config": result.manifest, "manifest_hash": result.manifest_hash(),
               "points": points_out}
    return payload, {"points": timings}


def emit_results(result: ExperimentResult, out_dir: str) -> list:
    """Write results.json, one CSV per sweep point, and a figure recipe.

    The JSON is emitted with sorted keys and shortest round-trip floats; all
    wall-clock fields live under the top-level "timings" key, everything
    else is bit-reproducible for a fixed config. Each CSV starts with a
    `# manifest <hash>` comment, then one row per trial and a final
    aggregate row over the same columns. Returns the written paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    aggregates = [point.aggregates(result.threshold) for point in result.points]
    payload, timings = _result_payload(result, aggregates)
    payload["timings"] = timings
    path = os.path.join(out_dir, "results.json")
    save_json(path, payload)
    written = [path]
    for point, agg in zip(result.points, aggregates):
        path = os.path.join(out_dir, f"results_m{point.m}.csv")
        lines = [f"# manifest {result.manifest_hash()}"]
        rows = [["trial", "error", "time_s", "iterations", "recovered"]]
        for r in point.records:
            rows.append([r.trial, _fmt(r.error), _fmt(r.wall_time),
                         r.iterations, int(r.recovered)])
        rows.append(["aggregate", _fmt(agg["mean_error"]), _fmt(agg["mean_time_s"]),
                     _fmt(agg["mean_iterations"]), _fmt(agg["recovery_rate"])])
        out = "\n".join(lines + [",".join(str(c) for c in row) for row in rows]) + "\n"
        write_text(path, out)
        written.append(path)
    recipe = {
        "x": "m", "x_scale": "log", "y": "mean_error", "y_scale": "log",
        "series": [{"label": result.manifest["strategy"],
                    "points": [{"m": p.m, "mean_error": agg["mean_error"],
                                "recovery_rate": agg["recovery_rate"]}
                               for p, agg in zip(result.points, aggregates)]}],
        "csv_files": [f"results_m{p.m}.csv" for p in result.points],
        "manifest_hash": result.manifest_hash(),
    }
    path = os.path.join(out_dir, "figure_recipe.json")
    save_json(path, recipe)
    written.append(path)
    return written


def _fmt(x) -> str:
    if x is None:
        return "nan"
    return repr(float(x))


def read_csv_records(path: str) -> tuple[list, dict]:
    """Parse an emitted CSV back into (trial rows, aggregate row)."""
    with open(path) as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    header, body = rows[0], rows[1:]
    trials = [dict(zip(header, r)) for r in body if r[0] != "aggregate"]
    agg = next(dict(zip(header, r)) for r in body if r[0] == "aggregate")
    return trials, agg
