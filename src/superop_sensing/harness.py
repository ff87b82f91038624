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
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import NUMERICAL_ERRORS, DimensionError, UndefinedMetricError
from .measurements import (DESIGN_KINDS, NOISE_MODES, SOURCES, build_design,
                           simulate_measurements)
from .models import TASKS, ground_truth
from .reconstruction import reconstruct_full
from .reshaping import ReshapedMatrix
from .serialize import load_json, save_json, write_text
from .solvers import STRATEGY_DESIGNS, SolverConfig, derive_seed, solve_strategy

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "SweepPoint",
    "ExperimentResult",
    "relative_frobenius_error",
    "recovery_rate",
    "run_experiment",
    "emit_results",
    "load_result",
    "read_csv_records",
]

# seed-derivation roles
_ROLE_TRUTH, _ROLE_DESIGN, _ROLE_NOISE, _ROLE_SOLVER = 0, 1, 2, 3


def _as_matrix(x) -> np.ndarray:
    return x.matrix if isinstance(x, ReshapedMatrix) else np.asarray(x)


def relative_frobenius_error(estimate, truth) -> float:
    """||K - K*||_F / ||K*||_F for matrices or ReshapedMatrix values."""
    est = _as_matrix(estimate)
    ref = _as_matrix(truth)
    if est.shape != ref.shape:
        raise DimensionError(f"shape mismatch {est.shape} vs {ref.shape}")
    denom = np.linalg.norm(ref)
    if denom == 0:
        raise UndefinedMetricError("reference matrix has zero norm")
    return float(np.linalg.norm(est - ref) / denom)


def recovery_rate(errors, threshold: float) -> float:
    """Fraction of errors strictly below the threshold."""
    errors = list(errors)
    if not errors:
        raise UndefinedMetricError("empty error list")
    if threshold <= 0:
        raise UndefinedMetricError("threshold must be positive")
    hits = sum(1 for e in errors if e is not None and math.isfinite(e) and e < threshold)
    return hits / len(errors)


def _nonnegative_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


@dataclass
class ExperimentConfig:
    """Knobs of one experiment; see module docstring for the pipeline."""

    task: str
    n: int
    design: str
    strategy: str
    sweep: list                     # M values (random_pairs) or M_O values
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
        for name in ("n", "trials", "master_seed", "kraus_rank", "n_jumps", "r_plus",
                     "r_minus", "row_index"):
            setattr(self, name, _nonnegative_int(name, getattr(self, name)))
        for name in ("sigma", "subset_ratio", "recovery_threshold"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite real, got {value!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= self.row_index < self.n:
            raise ValueError(f"row_index must be in [0, {self.n}), got {self.row_index}")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.noise_mode not in NOISE_MODES:
            raise ValueError(f"noise_mode must be one of {NOISE_MODES}")
        if self.recovery_threshold <= 0:
            raise ValueError("recovery_threshold must be positive")
        if not isinstance(self.hermitize, bool):
            raise ValueError(f"hermitize must be a bool, got {self.hermitize!r}")
        if not isinstance(self.solver, dict):
            raise ValueError(f"solver must be an object, got {self.solver!r}")
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.design not in DESIGN_KINDS:
            raise ValueError(f"design must be one of {DESIGN_KINDS}")
        if self.source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}")
        if self.strategy not in STRATEGY_DESIGNS:
            raise ValueError(f"strategy must be one of {tuple(STRATEGY_DESIGNS)}")
        if self.design != STRATEGY_DESIGNS[self.strategy]:
            raise ValueError(
                f"{self.strategy} needs the {STRATEGY_DESIGNS[self.strategy]} design")
        self.sweep = [_nonnegative_int("sweep", v) for v in
                      (self.sweep if isinstance(self.sweep, (list, tuple)) else [self.sweep])]
        if not self.sweep or any(v < 1 for v in self.sweep):
            raise ValueError("sweep values must be positive")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.task == "channel" and self.kraus_rank < 1:
            raise ValueError("channel task needs kraus_rank >= 1")
        if self.task == "lindbladian" and self.n_jumps < 1:
            raise ValueError("lindbladian task needs n_jumps >= 1")
        if self.task == "haar" and self.r_plus + self.r_minus < 1:
            raise ValueError("haar task needs r_plus + r_minus >= 1")
        if not 0 < self.subset_ratio <= 1:
            raise ValueError("subset_ratio must be in (0, 1]")
        if "seed" in self.solver:
            raise ValueError("solver seeds are derived from master_seed")
        params = {k: v for k, v in self.solver.items() if k != "rank"}
        try:
            self._solver = SolverConfig(rank=self.rank, **params)
        except TypeError as exc:
            raise ValueError(f"bad solver settings: {exc}") from exc

    @property
    def rank(self) -> int:
        if "rank" in self.solver:
            return self.solver["rank"]
        if self.task == "channel":
            return self.kraus_rank
        if self.task == "lindbladian":
            return self.n_jumps + 2
        return self.r_plus + self.r_minus

    def solver_config(self, seed: int) -> SolverConfig:
        return replace(self._solver, seed=seed)

    def manifest(self) -> dict:
        out = asdict(self)
        out["rank"] = self.rank
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        data = dict(data)
        data.pop("rank", None)
        given = sorted(key for key in ("sweep", "m", "m_o") if key in data)
        if len(given) > 1:
            raise ValueError(f"give one of sweep, m and m_o, got {given}")
        if given:
            data["sweep"] = data.pop(given[0])
        fields = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - fields
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValueError(f"incomplete config: {exc}") from exc


@dataclass
class TrialRecord:
    trial: int
    error: float | None
    wall_time: float
    iterations: int
    restarts: int
    recovered: bool
    message: str = ""


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
    truth_op, truth = ground_truth(config.task, config.n, seed(_ROLE_TRUTH),
                                   config.kraus_rank, config.n_jumps,
                                   config.r_plus, config.r_minus)
    design = build_design(config.design, config.n, m, config.source, seed(_ROLE_DESIGN),
                          config.row_index)
    data = simulate_measurements(truth_op, design, config.sigma, config.noise_mode,
                                 seed(_ROLE_NOISE))
    cfg = config.solver_config(seed(_ROLE_SOLVER))

    start = time.perf_counter()
    estimate, reports = solve_strategy(config.strategy, design, data.values, cfg,
                                       config.subset_ratio)
    if config.strategy != "als_n2":
        estimate = reconstruct_full(estimate, config.rank, anchor=config.row_index,
                                    hermitize=config.hermitize).matrix
    wall = time.perf_counter() - start

    error = relative_frobenius_error(estimate, truth)
    return TrialRecord(trial, error, wall, sum(r.iterations for r in reports),
                       sum(r.restarts for r in reports),
                       error < config.recovery_threshold)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all sweep points and trials.

    A numerical failure or an infeasible shape (DimensionError) becomes a
    non-recovery record; any other exception is a programming error and
    propagates.
    """
    points = []
    for point_idx, m in enumerate(config.sweep):
        records = []
        for trial in range(config.trials):
            try:
                records.append(_run_trial(config, point_idx, m, trial))
            except NUMERICAL_ERRORS + (DimensionError,) as exc:  # recorded, never dropped
                records.append(TrialRecord(trial, None, 0.0, 0, 0, False,
                                           f"{type(exc).__name__}: {exc}"))
        points.append(SweepPoint(m, records))
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
                 "mean_time_s": agg.pop("mean_time_s"),
                 "std_time_s": agg.pop("std_time_s")}
        records = [{"trial": r.trial, "error": r.error, "iterations": r.iterations,
                    "restarts": r.restarts, "recovered": r.recovered,
                    "message": r.message} for r in point.records]
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


def load_result(path: str) -> dict:
    """Read back an emitted results.json."""
    return load_json(path)


def read_csv_records(path: str) -> tuple[list, dict]:
    """Parse an emitted CSV back into (trial rows, aggregate row)."""
    with open(path) as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    header, body = rows[0], rows[1:]
    trials = [dict(zip(header, r)) for r in body if r[0] != "aggregate"]
    agg = next(dict(zip(header, r)) for r in body if r[0] == "aggregate")
    return trials, agg
