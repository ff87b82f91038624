import json

import numpy as np
import pytest

from superop_sensing import (ExperimentConfig, emit_results, recovery_rate,
                             relative_frobenius_error, run_experiment)
from superop_sensing import harness
from superop_sensing.errors import DimensionError, UndefinedMetricError
from superop_sensing.harness import load_result, read_csv_records
from superop_sensing.reshaping import ReshapedMatrix


def test_relative_frobenius_error_basic():
    a = np.diag([1.0, 2.0]).astype(complex)
    assert relative_frobenius_error(a, a) == 0
    assert relative_frobenius_error(np.zeros((2, 2)), a) == pytest.approx(1.0)
    assert relative_frobenius_error(2 * a, a) == pytest.approx(1.0)


def test_relative_frobenius_error_accepts_reshaped():
    r = ReshapedMatrix(2, np.eye(4))
    assert relative_frobenius_error(r, np.eye(4)) == 0


def test_relative_frobenius_error_zero_truth():
    with pytest.raises(UndefinedMetricError):
        relative_frobenius_error(np.eye(2), np.zeros((2, 2)))


def test_relative_frobenius_error_shape_mismatch():
    with pytest.raises(DimensionError):
        relative_frobenius_error(np.eye(2), np.eye(3))


def test_recovery_rate():
    assert recovery_rate([1e-7, 1e-6, 1e-3], 1e-5) == pytest.approx(2 / 3)
    assert recovery_rate([1e-9, 1e-8], 1e-5) == 1.0
    assert recovery_rate([1.0, 2.0], 1e-5) == 0.0
    with pytest.raises(UndefinedMetricError):
        recovery_rate([], 1e-5)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(task="channel", n=4, design="blockwise",
                         strategy="als_n2", sweep=[16], kraus_rank=2)
    with pytest.raises(ValueError):
        ExperimentConfig(task="channel", n=4, design="random_pairs",
                         strategy="als_p", sweep=[16], kraus_rank=2)
    with pytest.raises(ValueError):
        ExperimentConfig(task="nothing", n=4, design="blockwise",
                         strategy="als_n", sweep=[16])
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"task": "channel", "n": 4,
                                    "design": "blockwise", "strategy": "als_n",
                                    "sweep": [16], "kraus_rank": 2,
                                    "bogus_key": 1})
    # solver settings are checked once, at construction, not per trial
    for solver in ({"betta": 0.5}, {"lambda_reg": 0.1}, {"seed": 3}):
        with pytest.raises(ValueError):
            ExperimentConfig(task="channel", n=4, design="blockwise",
                             strategy="als_n", sweep=[16], kraus_rank=2,
                             solver=solver)


def test_config_rank_inference():
    cfg = ExperimentConfig(task="lindbladian", n=4, design="blockwise",
                           strategy="als_n", sweep=[16], n_jumps=2)
    assert cfg.rank == 4
    cfg = ExperimentConfig(task="haar", n=4, design="blockwise",
                           strategy="als_n", sweep=[16], r_plus=2, r_minus=1)
    assert cfg.rank == 3


def _small_config(**overrides):
    base = dict(task="channel", n=4, design="blockwise", strategy="als_i",
                source="random", sweep=[16], kraus_rank=2, sigma=0.0,
                subset_ratio=0.5, trials=3, master_seed=11)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_noiseless_recovers():
    result = run_experiment(_small_config())
    point = result.points[0]
    agg = point.aggregates(result.threshold)
    assert agg["recovery_rate"] == 1.0
    assert agg["mean_error"] <= 1e-6
    assert agg["failed_trials"] == 0


def test_run_experiment_haar_task_and_sweep():
    cfg = _small_config(task="haar", r_plus=2, r_minus=1, kraus_rank=0,
                        strategy="als_n", subset_ratio=1.0, sweep=[16, 24],
                        trials=2)
    result = run_experiment(cfg)
    assert [p.m for p in result.points] == [16, 24]
    for point in result.points:
        assert point.aggregates(result.threshold)["recovery_rate"] == 1.0


def test_run_experiment_records_infeasible_trials():
    # rank above the block dimension is a per-trial solver error: recorded,
    # not raised
    cfg = _small_config(solver={"rank": 5}, trials=2)
    result = run_experiment(cfg)
    point = result.points[0]
    assert all(r.message for r in point.records)
    agg = point.aggregates(result.threshold)
    assert agg["recovery_rate"] == 0.0 and agg["failed_trials"] == 2


def test_run_experiment_propagates_programming_errors(monkeypatch):
    # only numerical and shape failures become records; a bug must surface
    def broken(*args, **kwargs):
        raise TypeError("broken strategy")

    monkeypatch.setattr(harness, "solve_strategy", broken)
    with pytest.raises(TypeError):
        run_experiment(_small_config(trials=1))


def test_run_experiment_deterministic_and_emission(tmp_path):
    cfg = _small_config(sigma=1e-4, trials=2)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    emit_results(r1, str(d1))
    emit_results(r2, str(d2))
    j1 = json.loads((d1 / "results.json").read_text())
    j2 = json.loads((d2 / "results.json").read_text())
    j1.pop("timings"), j2.pop("timings")
    assert json.dumps(j1, sort_keys=True) == json.dumps(j2, sort_keys=True)


def test_emit_results_roundtrip_and_csv(tmp_path):
    cfg = _small_config(sigma=1e-3, trials=4)
    result = run_experiment(cfg)
    out = tmp_path / "out"
    written = emit_results(result, str(out))
    payload = load_result(str(out / "results.json"))
    assert payload["config"]["task"] == "channel"
    assert len(payload["points"][0]["records"]) == 4

    trials, agg = read_csv_records(str(out / "results_m16.csv"))
    assert len(trials) == 4
    # recomputed recovery matches the aggregate column
    rec = sum(int(t["recovered"]) for t in trials) / len(trials)
    assert float(agg["recovered"]) == pytest.approx(rec)
    errors = [float(t["error"]) for t in trials]
    point_agg = result.points[0].aggregates(result.threshold)
    assert np.isclose(np.mean(errors), point_agg["mean_error"])
    assert (out / "figure_recipe.json").exists()
    assert str(out / "results.json") in written


def test_emit_results_sweep_files(tmp_path):
    cfg = _small_config(sweep=[12, 16], trials=2)
    result = run_experiment(cfg)
    emit_results(result, str(tmp_path))
    assert (tmp_path / "results_m12.csv").exists()
    assert (tmp_path / "results_m16.csv").exists()
    recipe = json.loads((tmp_path / "figure_recipe.json").read_text())
    assert recipe["csv_files"] == ["results_m12.csv", "results_m16.csv"]
    assert recipe["manifest_hash"] == result.manifest_hash()


def test_emit_results_rejects_unknown_format(tmp_path):
    result = run_experiment(_small_config(trials=1))
    with pytest.raises(ValueError):
        emit_results(result, str(tmp_path), formats=("parquet",))
