import dataclasses
import json
import logging
import time
import tracemalloc

import numpy as np
import pytest

from superop_sensing import (CompletedMatrix, ExperimentConfig, FactorPair, build_design,
                             choi_reshape, complex_gaussian, draw_truth, emit_results,
                             reconstruct_full, recovery_rate,
                             relative_frobenius_error, run_experiment, sensing_loss,
                             simulate_measurements)
from superop_sensing import harness, solvers
from superop_sensing.errors import DimensionError, UndefinedMetricError
from superop_sensing.harness import RUN_OPTIONS, read_csv_records
from superop_sensing.serialize import load_json
from superop_sensing.solvers import derive_seed, set_up_strategy, solve_strategy
from superop_sensing.reshaping import ReshapedMatrix


def test_relative_frobenius_error_basic():
    a = np.diag([1.0, 2.0]).astype(complex)
    assert relative_frobenius_error(a, a) == 0
    assert relative_frobenius_error(np.zeros((2, 2)), a) == pytest.approx(1.0)
    assert relative_frobenius_error(2 * a, a) == pytest.approx(1.0)


def test_relative_frobenius_error_accepts_reshaped():
    r = ReshapedMatrix(2, np.eye(4))
    assert relative_frobenius_error(r, np.eye(4)) == 0
    # and an estimate held as factors: als_n2's FactorPair, a completion
    factors = FactorPair(np.eye(4)[:, :2], np.eye(4)[:, :2])
    for estimate in (factors, CompletedMatrix(2, factors)):
        assert relative_frobenius_error(estimate, np.diag([1.0, 1, 0, 0])) == 0
        assert relative_frobenius_error(estimate, np.eye(4)) == np.sqrt(0.5)


def test_relative_frobenius_error_zero_truth():
    with pytest.raises(UndefinedMetricError):
        relative_frobenius_error(np.eye(2), np.zeros((2, 2)))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_relative_frobenius_error_non_finite_truth(value):
    # the ratio is undefined, not NaN with a RuntimeWarning
    truth = np.eye(2)
    truth[1, 0] = value
    for estimate in (np.eye(2), FactorPair(np.eye(2), np.eye(2))):
        with pytest.raises(UndefinedMetricError):
            relative_frobenius_error(estimate, truth)


@pytest.mark.parametrize("hermitize", [False, True])
def test_relative_frobenius_error_of_a_completion_holds_no_dense_estimate(hermitize):
    # the estimate's factors are subtracted from the copy of the truth one
    # row block at a time, bitwise the dense estimate's score: at N=16 the
    # copy and one N x N^2 block, under 1.2 N^4 complex entries (2.00 with
    # a dense estimate)
    n = 16
    truth = choi_reshape(draw_truth("haar", n, 3, r_plus=2, r_minus=1)).matrix
    row = truth[:n] + 1e-4 * complex_gaussian(n, n * n, seed=4)
    relative_frobenius_error(reconstruct_full(row, 3, hermitize=hermitize),
                             truth)                               # warm-up
    est = reconstruct_full(row, 3, hermitize=hermitize)
    tracemalloc.start()
    try:
        err = relative_frobenius_error(est, truth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * n ** 4 * 16
    assert err == relative_frobenius_error(est.matrix, truth)
    assert err == relative_frobenius_error(est.factors, truth)


def test_relative_frobenius_error_shape_mismatch():
    with pytest.raises(DimensionError):
        relative_frobenius_error(np.eye(2), np.eye(3))
    with pytest.raises(DimensionError):
        relative_frobenius_error(FactorPair(np.eye(2), np.eye(3)[:, :2]), np.eye(2))


def test_relative_frobenius_error_leaves_inputs_unchanged():
    rng = np.random.default_rng(3)
    est, truth = complex_gaussian(9, 9, rng), complex_gaussian(9, 9, rng)
    pairs = [(est, truth), (est, truth.real), (est.real, truth),
             (ReshapedMatrix(3, est), ReshapedMatrix(3, truth))]
    for a, b in pairs:
        a_bytes, b_bytes = (np.asarray(getattr(x, "matrix", x)).tobytes() for x in (a, b))
        err = relative_frobenius_error(a, b)
        x, y = (np.asarray(getattr(v, "matrix", v)) for v in (a, b))
        assert err == np.linalg.norm(x - y) / np.linalg.norm(y)
        assert (x.tobytes(), y.tobytes()) == (a_bytes, b_bytes)


def test_recovery_rate():
    assert recovery_rate([1e-7, 1e-6, 1e-3], 1e-5) == pytest.approx(2 / 3)
    assert recovery_rate([1e-9, 1e-8], 1e-5) == 1.0
    assert recovery_rate([1.0, 2.0], 1e-5) == 0.0
    with pytest.raises(UndefinedMetricError):
        recovery_rate([], 1e-5)
    with pytest.raises(UndefinedMetricError, match="threshold must be positive"):
        recovery_rate([1e-6], float("nan"))      # NaN would count no error as a hit


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
    for solver in ({"betta": 0.5}, {"lambda_reg": 0.1}, {"seed": 3},
                   {"max_iter": "5"}, {"max_iter": 0}, {"rank": 2.5}, {"eta": None}):
        with pytest.raises(ValueError):
            ExperimentConfig(task="channel", n=4, design="blockwise",
                             strategy="als_n", sweep=[16], kraus_rank=2,
                             solver=solver)


def test_config_accepts_numpy_integers():
    plain = _small_config()
    typed = _small_config(n=np.int64(4), trials=np.int32(3), master_seed=np.uint8(11),
                          kraus_rank=np.int16(2), row_index=np.int64(0))
    assert json.dumps(typed.manifest()) == json.dumps(plain.manifest())


def test_config_rank_inference():
    cfg = ExperimentConfig(task="lindbladian", n=4, design="blockwise",
                           strategy="als_n", sweep=[16], n_jumps=2)
    assert cfg.rank == 4
    cfg = ExperimentConfig(task="haar", n=4, design="blockwise",
                           strategy="als_n", sweep=[16], r_plus=2, r_minus=1)
    assert cfg.rank == 3
    # rank n**2 is the largest a truth can have
    cfg = ExperimentConfig(task="lindbladian", n=2, design="blockwise",
                           strategy="als_n", sweep=[8], n_jumps=2)
    assert cfg.rank == 4


def test_config_round_trips_through_its_manifest():
    # a manifest's rank is accepted when it is the derived rank, so the
    # config of a results.json builds the same config again
    for cfg in (_small_config(), _small_config(solver={"rank": 3})):
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.manifest())))
        assert again == cfg and again.rank == cfg.rank
    base = _small_config().manifest()
    for rank in (3, 2.0, True, None):
        with pytest.raises(ValueError, match="solver.rank"):
            ExperimentConfig.from_dict({**base, "rank": rank})


def test_config_checks_every_field():
    # object() is no valid value of any field: each must be rejected by a
    # check that names it, so a field added later cannot go unchecked
    base = dict(task="channel", n=4, design="blockwise", strategy="als_n",
                sweep=[16], kraus_rank=2)
    for f in dataclasses.fields(ExperimentConfig):
        with pytest.raises(ValueError, match=f.name):
            ExperimentConfig(**{**base, f.name: object()})


@pytest.mark.parametrize("strategy, kind, other", [
    ("als_n2", "random_pairs", "blockwise"), ("als_p", "blockwise", "random_pairs"),
    ("als_n", "blockwise", "random_pairs"), ("als_i", "blockwise", "random_pairs")])
def test_config_derives_its_design_from_the_strategy(strategy, kind, other):
    # design may be left out: it is the strategy's design kind, which the
    # manifest still holds, so results.json is the same either way; a
    # given design must be that kind
    base = dict(task="channel", n=4, strategy=strategy, sweep=[16], kraus_rank=2)
    derived = ExperimentConfig(**base)
    assert derived.design == kind
    assert derived == ExperimentConfig(**base, design=kind)
    assert derived.manifest() == ExperimentConfig(**base, design=kind).manifest()
    assert derived.manifest()["design"] == kind
    assert ExperimentConfig.from_dict(base) == derived
    for bad in (other, "Blockwise", True):
        with pytest.raises(ValueError, match="design"):
            ExperimentConfig(**base, design=bad)


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
    assert all(r.message and r.stop == "" and r.final_loss is None
               for r in point.records)
    agg = point.aggregates(result.threshold)
    assert agg["recovery_rate"] == 0.0 and agg["failed_trials"] == 2


def test_run_experiment_records_a_diverged_trial(monkeypatch):
    # a sweep whose loss is NaN raises DivergenceError in the solve; the
    # trial is a failed record with its message, and the run goes on
    sweep = solvers._Problem.sweep
    monkeypatch.setattr(solvers._Problem, "sweep",
                        lambda prob, u: (*sweep(prob, u)[:2], float("nan")))
    result = run_experiment(_small_config(sigma=1e-3, trials=2))
    point = result.points[0]
    assert [r.message for r in point.records] == ["DivergenceError: loss diverged to nan"] * 2
    assert all(r.error is None and not r.recovered and r.final_loss is None
               for r in point.records)
    assert point.aggregates(result.threshold)["failed_trials"] == 2


def test_run_experiment_records_fallbacks(tmp_path):
    # 12 pairs against 18 unknowns per half-sweep: every half-sweep of the
    # als_n2 solve falls back to least squares
    cfg = _small_config(task="haar", r_plus=1, r_minus=1, kraus_rank=0, n=3,
                        design="random_pairs", strategy="als_n2", sweep=[12],
                        subset_ratio=1.0, sigma=1e-4, trials=2, solver={"max_iter": 5})
    result = run_experiment(cfg)
    emit_results(result, str(tmp_path))
    records = result.points[0].records
    assert all(r.fallbacks == 2 * (r.iterations + r.restarts) > 0 for r in records)
    emitted = load_json(str(tmp_path / "results.json"))["points"][0]["records"]
    assert [r["fallbacks"] for r in emitted] == [r.fallbacks for r in records]


def test_run_experiment_records_stop_and_final_loss(tmp_path, monkeypatch):
    # stop is "converged" only when every solve of the trial converged and
    # final_loss is the mean of the solves' final losses, for als_p the loss
    # of the whole row over the joint design
    seen = []

    def spy(strategy, design, values, cfg, ratio):
        run = set_up_strategy(strategy, design, values, cfg, ratio)

        def spied():
            estimate, reports = run()
            seen.append((design, values, estimate, reports))
            return estimate, reports
        return spied

    monkeypatch.setattr(harness, "set_up_strategy", spy)
    stops = set()
    for strategy, solver in (("als_p", {"max_iter": 300}), ("als_p", {"max_iter": 4}),
                             ("als_n", {})):
        seen.clear()
        result = run_experiment(_small_config(strategy=strategy, subset_ratio=1.0,
                                              sigma=1e-4, trials=2, solver=solver))
        emit_results(result, str(tmp_path))
        emitted = load_json(str(tmp_path / "results.json"))["points"][0]["records"]
        for record, out, (design, values, estimate, reports) in zip(
                result.points[0].records, emitted, seen):
            converged = all(r.stop == "converged" for r in reports)
            assert record.stop == ("converged" if converged else "max_iter")
            assert record.final_loss == np.mean([r.final_loss for r in reports])
            assert (out["stop"], out["final_loss"]) == (record.stop, record.final_loss)
            if strategy == "als_p":
                joint = sensing_loss(design, values, estimate)
                assert record.final_loss == pytest.approx(joint, rel=1e-10, abs=0)
            stops.add(record.stop)
            stops.update(r.stop for r in reports)
    assert stops == {"converged", "max_iter"}


def test_run_experiment_propagates_programming_errors(monkeypatch):
    # only numerical and shape failures become records; a bug must surface
    def broken(*args, **kwargs):
        raise TypeError("broken strategy")

    monkeypatch.setattr(harness, "set_up_strategy", broken)
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
    payload = load_json(str(out / "results.json"))
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


@pytest.mark.parametrize("strategy, field, value", [
    ("als_n2", "row_index", 3), ("als_n2", "hermitize", True),
    ("als_n2", "noise_mode", "physical"), ("als_n2", "subset_ratio", 0.3),
    ("als_n", "subset_ratio", 0.5), ("als_p", "subset_ratio", 0.9)])
def test_config_rejects_options_the_run_never_reads(strategy, field, value):
    design = "random_pairs" if strategy == "als_n2" else "blockwise"
    base = dict(task="channel", n=4, design=design, strategy=strategy, sweep=[16],
                kraus_rank=2)
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**base, **{field: value})
    default = ExperimentConfig.__dataclass_fields__[field].default
    assert default == RUN_OPTIONS[field][1]            # one default per option
    assert getattr(ExperimentConfig(**base, **{field: default}), field) == default


def _replayed_error(cfg):
    # the trial's steps through the public calls, with the truth's dense
    # matrix drawn first and held whole, scored by the public formula
    def seed(role):
        return derive_seed(cfg.master_seed, role, 0, 0)

    op = draw_truth(cfg.task, cfg.n, seed(harness._ROLE_TRUTH), cfg.kraus_rank,
                    cfg.n_jumps, cfg.r_plus, cfg.r_minus)
    truth = choi_reshape(op).matrix
    design = build_design(cfg.design, cfg.n, cfg.sweep[0], cfg.source,
                          seed(harness._ROLE_DESIGN), cfg.row_index)
    data = simulate_measurements(op, design, cfg.sigma, cfg.noise_mode,
                                 seed(harness._ROLE_NOISE))
    estimate, _ = solve_strategy(cfg.strategy, design, data.values,
                                 cfg.solver_config(seed(harness._ROLE_SOLVER)),
                                 cfg.subset_ratio)
    if cfg.strategy != "als_n2":      # als_n2's estimate is its factors' product
        estimate = reconstruct_full(estimate, cfg.rank, anchor=cfg.row_index,
                                    hermitize=cfg.hermitize).matrix
    return relative_frobenius_error(estimate, truth)


@pytest.mark.parametrize("overrides", [
    dict(task="lindbladian", kraus_rank=0, n_jumps=1, strategy="als_n", subset_ratio=1.0),
    dict(strategy="als_i", hermitize=True, row_index=2),
    dict(design="random_pairs", strategy="als_n2", sweep=[120], subset_ratio=1.0),
    dict(task="haar", kraus_rank=0, r_plus=2, r_minus=1, strategy="als_n",
         subset_ratio=1.0),
    dict(n=5, strategy="als_n", sweep=[30], subset_ratio=1.0),
    dict(n=5, strategy="als_i", sweep=[30], hermitize=True, row_index=2),
    dict(n=5, design="random_pairs", strategy="als_n2", sweep=[300], subset_ratio=1.0)],
    ids=["als_n", "als_i-hermitize", "als_n2", "haar", "n5-als_n", "n5-als_i-hermitize",
         "n5-als_n2"])
def test_trial_error_is_bitwise_the_public_score(overrides):
    # the trial builds the truth's matrix only to score, and subtracts the
    # estimate from it in its buffer one row block of the factors' product
    # at a time; its error must still be relative_frobenius_error's of the
    # dense estimate, bit for bit, also at odd N, where column-sliced
    # products are not bitwise the full product's columns
    cfg = _small_config(sigma=1e-3, trials=1, **overrides)
    record = run_experiment(cfg).points[0].records[0]
    assert not record.message
    assert record.error == _replayed_error(cfg)


def test_blockwise_trial_peak_memory():
    # one als_n trial at N=16, M_O = 260 holds the design as C alone (0.51
    # N^4 complex entries), which its run shares, then C and the packed rows
    # (0.53 N^4) with S made in the rows' buffer, and the truth and one
    # N x N^2 row block of the estimate while it scores: it peaked at
    # 1.59 N^4, under 1.7 N^4 (with the observable stack beside C through
    # set-up and S beside the rows it peaked at 1.83; the truth drawn
    # densely up front, the design held to the end and a difference
    # temporary reached above 4)
    cfg = ExperimentConfig(task="lindbladian", n=16, n_jumps=2, design="blockwise",
                           strategy="als_n", sweep=[260], sigma=1e-3, master_seed=1)
    tracemalloc.start()
    try:
        record = run_experiment(cfg).points[0].records[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not record.message
    assert peak < 1.7 * 16 ** 4 * 16


def test_scoring_holds_no_dense_estimate():
    # at N=20, M_O=120 the Gram build holds C (M_O N^2 reals = 0.15 N^4
    # complex entries), S (N^4 reals, 0.5) and the packed rows (N^3 (N + 1)
    # / 2, 0.525): with B and the gathers of S it peaks at 1.40 N^4. Scoring
    # holds the truth (N^4) and one N x N^2 row block of the estimate, with
    # the truth build's temporaries 1.2 N^4. A dense estimate beside the
    # truth alone is 2 N^4 (the trial peaked at 2.05 N^4 with one), so the
    # bound sits between
    n = 20
    cfg = ExperimentConfig(task="lindbladian", n=n, n_jumps=2, design="blockwise",
                           strategy="als_n", sweep=[120], sigma=1e-3, master_seed=1)
    tracemalloc.start()
    try:
        record = run_experiment(cfg).points[0].records[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not record.message
    assert peak < 1.8 * n ** 4 * 16


def test_blockwise_solve_drops_the_design_before_the_gram_build(monkeypatch):
    # at N=20 and M_O = N^2 the design is its C (M_O N^2 reals, 0.5 N^4
    # complex entries), which the run shares; the trial drops the design
    # and the data after set-up, and the Gram build holds C and the packed
    # rows (0.525), S made in their buffer, so with the gather buffers, the
    # data and B the solve peaks at 1.41 N^4. With the observable stack
    # beside C through set-up and S beside the rows it peaked at 1.75 N^4,
    # and with the stack held through the build at 2.31
    n = 20
    run_experiment(_small_config(task="lindbladian", n=4, kraus_rank=0, n_jumps=1,
                                 strategy="als_n", subset_ratio=1.0, trials=1))
    peaks, reconstruct = [], harness.reconstruct_full
    monkeypatch.setattr(harness, "reconstruct_full", lambda *args, **kwargs: peaks.append(
        tracemalloc.get_traced_memory()[1]) or reconstruct(*args, **kwargs))
    cfg = ExperimentConfig(task="lindbladian", n=n, n_jumps=2, design="blockwise",
                           strategy="als_n", sweep=[n * n], sigma=1e-3, master_seed=1)
    tracemalloc.start()
    try:
        record = run_experiment(cfg).points[0].records[0]
    finally:
        tracemalloc.stop()
    assert not record.message and record.fallbacks == 0
    assert peaks[0] < 1.6 * n ** 4 * 16


def test_run_experiment_logs_each_point_and_sweep(caplog):
    # one INFO line per sweep point, one DEBUG line per sweep with its loss;
    # the records do not depend on the level
    cfg = _small_config(sweep=[16, 20], trials=2, sigma=1e-3)
    with caplog.at_level(logging.DEBUG, logger="superop_sensing"):
        result = run_experiment(cfg)
    info = [r for r in caplog.records if r.levelno == logging.INFO]
    assert [r.name for r in info] == ["superop_sensing.harness"] * 2
    assert "als_i m=20: 2 trials (0 failed)" in info[1].getMessage()
    sweeps = [r for r in caplog.records if r.levelno == logging.DEBUG]
    assert {r.name for r in sweeps} == {"superop_sensing.solvers"}
    assert len(sweeps) == sum(r.iterations for p in result.points for r in p.records)
    last = result.points[1].records[1]
    assert sweeps[-1].getMessage().startswith(f"sweep {last.iterations}:")
    quiet = run_experiment(cfg)
    assert all((a.error, a.iterations, a.final_loss) == (b.error, b.iterations, b.final_loss)
               for p, q in zip(result.points, quiet.points)
               for a, b in zip(p.records, q.records))


def test_trial_stage_times(tmp_path):
    cfg = _small_config(sigma=1e-4, trials=1)
    start = time.perf_counter()
    result = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    record = result.points[0].records[0]
    assert tuple(record.stage_s) == harness.STAGES == (
        "truth", "design", "simulate", "solve", "reconstruct", "score")
    assert all(t >= 0 for t in record.stage_s.values())
    assert sum(record.stage_s.values()) <= elapsed
    assert record.wall_time == record.stage_s["solve"] + record.stage_s["reconstruct"]
    # emitted under timings only, so the deterministic payload does not move
    emit_results(result, str(tmp_path))
    payload = load_json(str(tmp_path / "results.json"))
    assert payload["timings"]["points"][0]["per_trial_stage_s"] == [record.stage_s]
    # the solve's parts, summed over its reports, likewise
    assert tuple(record.solve_part_s) == ("gram", "right", "left", "loss")
    assert sum(record.solve_part_s.values()) <= record.stage_s["solve"]
    assert payload["timings"]["points"][0]["per_trial_solve_part_s"] == [
        record.solve_part_s]
    payload.pop("timings")
    assert "stage" not in json.dumps(payload)
    assert "part_s" not in json.dumps(payload)
    # a trial that raised has no stage times
    failed = run_experiment(_small_config(solver={"rank": 5}, trials=1))
    assert failed.points[0].records[0].stage_s == {}
    assert failed.points[0].records[0].solve_part_s == {}


@pytest.mark.parametrize("field, task", [
    ("kraus_rank", "lindbladian"), ("n_jumps", "haar"), ("r_plus", "channel"),
    ("r_minus", "lindbladian")])
def test_config_rejects_truth_fields_the_task_never_reads(field, task):
    reads = {"channel": dict(kraus_rank=2), "lindbladian": dict(n_jumps=1),
             "haar": dict(r_plus=2, r_minus=1)}[task]
    base = dict(task=task, n=4, design="blockwise", strategy="als_n", sweep=[16], **reads)
    with pytest.raises(ValueError, match=f"{field} is read only by the "
                                         f"{RUN_OPTIONS[field][0]} task"):
        ExperimentConfig(**base, **{field: 1})
    assert getattr(ExperimentConfig(**base, **{field: 0}), field) == 0
