import json
import logging
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superop_sensing import (SolverConfig, choi_reshape, draw_truth, load_cmx, save_cmx,
                             sensing_loss)
from superop_sensing.cli import build_parser, main
from superop_sensing.serialize import (load_design, load_measurements, load_superoperator,
                                      save_matrix_stack)
from superop_sensing.solvers import report_totals, solve_strategy


def run_cli(*argv):
    return main(list(argv))


def test_generate_measure_solve_reconstruct_pipeline(tmp_path):
    truth_dir = tmp_path / "truth"
    data_dir = tmp_path / "data"
    solve_dir = tmp_path / "solve"
    recon_dir = tmp_path / "recon"

    assert run_cli("generate", "--task", "channel", "--n", "4",
                   "--kraus-rank", "2", "--seed", "3",
                   "--out", str(truth_dir)) == 0
    s = load_superoperator(str(truth_dir))
    k_truth = load_cmx(truth_dir / "reshaped.cmx")
    assert np.allclose(choi_reshape(s).matrix, k_truth)

    assert run_cli("measure", "--truth", str(truth_dir), "--design", "blockwise",
                   "--source", "random", "--m", "20", "--sigma", "0",
                   "--seed", "4", "--out", str(data_dir)) == 0
    assert (data_dir / "design.json").exists()
    assert (data_dir / "values.cmx").exists()

    assert run_cli("solve", "--data", str(data_dir), "--strategy", "als_n",
                   "--rank", "2", "--seed", "5", "--out", str(solve_dir)) == 0
    report = json.loads((solve_dir / "report.json").read_text())
    assert report["final_loss"] <= 1e-12
    assert report["stop"] == "converged"

    assert run_cli("reconstruct", "--blocks", str(solve_dir / "blocks.cmx"),
                   "--rank", "2", "--out", str(recon_dir)) == 0
    k_est = load_cmx(recon_dir / "k_est.cmx")
    assert np.linalg.norm(k_est - k_truth) <= 1e-6 * np.linalg.norm(k_truth)


def test_solve_als_n2_pipeline(tmp_path):
    truth_dir, data_dir, solve_dir = (tmp_path / x for x in ("t", "d", "s"))
    run_cli("generate", "--task", "haar", "--n", "3", "--r-plus", "1",
            "--r-minus", "1", "--seed", "1", "--out", str(truth_dir))
    run_cli("measure", "--truth", str(truth_dir), "--design", "random_pairs",
            "--source", "random", "--m", "120", "--sigma", "0",
            "--seed", "2", "--out", str(data_dir))
    assert run_cli("solve", "--data", str(data_dir), "--strategy", "als_n2",
                   "--rank", "2", "--seed", "3", "--out", str(solve_dir)) == 0
    k_est = load_cmx(solve_dir / "estimate.cmx")
    k_truth = load_cmx(truth_dir / "reshaped.cmx")
    assert np.linalg.norm(k_est - k_truth) <= 1e-5 * np.linalg.norm(k_truth)
    assert json.loads((solve_dir / "report.json").read_text())["fallbacks"] == 0


def test_solve_als_n2_reports_fallbacks(tmp_path):
    # 12 pairs against 18 unknowns per half-sweep: the normal equations are
    # singular and every half-sweep falls back to least squares
    truth_dir, data_dir, solve_dir = (tmp_path / x for x in ("t", "d", "s"))
    run_cli("generate", "--task", "haar", "--n", "3", "--r-plus", "1",
            "--r-minus", "1", "--seed", "1", "--out", str(truth_dir))
    run_cli("measure", "--truth", str(truth_dir), "--design", "random_pairs",
            "--m", "12", "--sigma", "1e-4", "--seed", "2", "--out", str(data_dir))
    assert run_cli("solve", "--data", str(data_dir), "--strategy", "als_n2",
                   "--rank", "2", "--max-iter", "5", "--seed", "3",
                   "--out", str(solve_dir)) == 0
    report = json.loads((solve_dir / "report.json").read_text())
    assert report["fallbacks"] == 2 * (report["iterations"] + report["restarts"]) > 0
    assert run_cli("solve", "--data", str(data_dir), "--strategy", "als_n2",
                   "--rank", "2", "--max-iter", "1", "--seed", "3",
                   "--out", str(solve_dir)) == 0
    report = json.loads((solve_dir / "report.json").read_text())
    assert (report["stop"], report["iterations"]) == ("max_iter", 1)


@pytest.mark.parametrize("argv", [
    ["--task", "lindbladian", "--n", "2", "--n-jumps", "3"],
    ["--task", "haar", "--n", "2", "--r-plus", "3", "--r-minus", "2"],
    ["--task", "channel", "--n", "2", "--kraus-rank", "5"]])
def test_generate_exit_code_2_on_truth_rank_above_n_squared(tmp_path, argv):
    assert run_cli("generate", *argv, "--out", str(tmp_path)) == 2
    assert not (tmp_path / "reshaped.cmx").exists()


@pytest.mark.parametrize("task, flag", [
    ("lindbladian", "--kraus-rank"), ("channel", "--n-jumps"), ("channel", "--r-plus"),
    ("lindbladian", "--r-minus")])
def test_generate_exit_code_2_on_truth_field_the_task_never_reads(tmp_path, capsys,
                                                                   task, flag):
    assert run_cli("generate", "--task", task, "--n", "3", flag, "2",
                   "--out", str(tmp_path)) == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not (tmp_path / "reshaped.cmx").exists()
    # 0 is the value of a field the task never reads
    assert run_cli("generate", "--task", task, "--n", "3", flag, "0",
                   "--out", str(tmp_path)) == 0


def test_generate_defaults_each_read_truth_field(tmp_path):
    for task, ranks in (("channel", {"kraus_rank": 2}), ("lindbladian", {"n_jumps": 1}),
                        ("haar", {"r_plus": 2, "r_minus": 1})):
        out = tmp_path / task
        assert run_cli("generate", "--task", task, "--n", "3", "--seed", "4",
                       "--out", str(out)) == 0
        k = choi_reshape(draw_truth(task, 3, 4, **ranks)).matrix
        assert load_cmx(out / "reshaped.cmx").tobytes() == k.tobytes()


def test_solve_als_p_writes_per_block_traces(tmp_path):
    truth_dir, data_dir, solve_dir = (tmp_path / x for x in ("t", "d", "s"))
    run_cli("generate", "--task", "channel", "--n", "4", "--kraus-rank", "2",
            "--seed", "3", "--out", str(truth_dir))
    run_cli("measure", "--truth", str(truth_dir), "--design", "blockwise",
            "--m", "20", "--sigma", "1e-4", "--seed", "4", "--out", str(data_dir))
    assert run_cli("solve", "--data", str(data_dir), "--strategy", "als_p",
                   "--rank", "2", "--seed", "6", "--out", str(solve_dir)) == 0
    report = json.loads((solve_dir / "report.json").read_text())
    assert len(report["loss_trace"]) == 4
    # each trace is its block's winning solve; iterations count all three
    # solves of every block, the losing ones too
    assert sum(len(trace) for trace in report["loss_trace"]) < report["iterations"]
    assert report["fallbacks"] == 0
    # one stop for the whole row, reduced as results.json reduces it: no
    # block ran out of sweeps and at least one stopped on a plateau
    assert report["stop"] == "plateau"
    assert (solve_dir / "blocks.cmx").exists()
    assert not (solve_dir / "left.cmx").exists()
    assert not (solve_dir / "right.cmx").exists()


def test_solve_als_p_final_loss_is_the_row_loss(tmp_path):
    # report.json's final_loss is the anchor row's loss, the mean of the
    # block losses, as results.json records it; not their sum
    truth_dir, data_dir, solve_dir = (tmp_path / x for x in ("t", "d", "s"))
    run_cli("generate", "--task", "channel", "--n", "4", "--kraus-rank", "2",
            "--seed", "3", "--out", str(truth_dir))
    run_cli("measure", "--truth", str(truth_dir), "--design", "blockwise",
            "--m", "20", "--sigma", "1e-3", "--seed", "4", "--out", str(data_dir))
    assert run_cli("solve", "--data", str(data_dir), "--strategy", "als_p",
                   "--rank", "2", "--seed", "6", "--out", str(solve_dir)) == 0
    report = json.loads((solve_dir / "report.json").read_text())
    row_loss = sensing_loss(load_design(str(data_dir)),
                            load_measurements(str(data_dir)).values,
                            load_cmx(solve_dir / "blocks.cmx"))
    assert report["final_loss"] == pytest.approx(row_loss, rel=1e-10)


def test_solve_defaults_are_solver_config_defaults():
    args = build_parser().parse_args(["solve", "--data", "d", "--strategy", "als_n",
                                      "--rank", "2"])
    cfg = SolverConfig(rank=2)
    assert (args.max_iter, args.gamma, args.eta, args.beta) == \
        (cfg.max_iter, cfg.gamma, cfg.eta, cfg.beta)


def test_run_subcommand_and_report(tmp_path, capsys):
    config = {
        "task": "channel", "n": 4, "design": "blockwise", "strategy": "als_i",
        "source": "random", "m_o": [16], "kraus_rank": 2, "sigma": 0.0,
        "subset_ratio": 0.5, "trials": 2, "master_seed": 9,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "results"
    assert run_cli("run", "--config", str(cfg_path), "--out", str(out_dir)) == 0
    payload = json.loads((out_dir / "results.json").read_text())
    assert payload["points"][0]["aggregates"]["recovery_rate"] == 1.0

    assert run_cli("report", "--inputs", str(out_dir)) == 0
    out = capsys.readouterr().out
    assert "recovery=1.00" in out


@pytest.mark.parametrize("points", [
    3, None, [1], [{"m": 16}], [{"aggregates": {}}], [{"m": 16, "aggregates": 5}],
    [{"m": 16, "aggregates": {"mean_error": None, "recovery_rate": None}}],
    [{"m": 16, "aggregates": {"mean_error": "0.1", "recovery_rate": 1.0}}],
    [{"m": 16, "aggregates": {"recovery_rate": 1.0}}],
    [{"m": float("nan"), "aggregates": {"mean_error": 0.1, "recovery_rate": 1.0}}],
    [{"m": "16", "aggregates": {"mean_error": 0.1, "recovery_rate": 1.0}}]])
def test_report_exit_code_2_on_malformed_points(tmp_path, capsys, points):
    # a stored results.json whose points are not a list of objects holding
    # m and aggregates, or whose m or aggregates break the field rules, is
    # rejected by file name, not indexed (a NaN m was written to report.json)
    path = tmp_path / "results.json"
    path.write_text(json.dumps({"config": {"strategy": "als_n"}, "points": points}))
    assert run_cli("report", "--inputs", str(path)) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("config", [3, None, {"strategy": "magic"}, {}])
def test_report_exit_code_2_on_malformed_config(tmp_path, capsys, config):
    # the strategy report prints is checked by the field rules; a bad one is
    # rejected by file name, not met by a TypeError
    path = tmp_path / "results.json"
    path.write_text(json.dumps({"config": config, "points": []}))
    assert run_cli("report", "--inputs", str(path)) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[1, 2]", '"config"', "3", '{"config": ', "",
                                  "[" * 10 ** 5 + "]" * 10 ** 5], ids=range(6))
def test_report_names_a_bad_file_once(tmp_path, capsys, text):
    # a results.json that is not a JSON object, or not JSON, or nested past
    # the parser's recursion limit, is rejected by its file name, given once
    path = tmp_path / "results.json"
    path.write_text(text)
    assert run_cli("report", "--inputs", str(path)) == 2
    assert capsys.readouterr().err.count(str(path)) == 1


def test_report_reads_a_null_mean_error(tmp_path, capsys):
    # a point whose trials all failed has no mean error
    path = tmp_path / "results.json"
    path.write_text(json.dumps({"config": {"strategy": "als_n"}, "points": [
        {"m": 16, "aggregates": {"mean_error": None, "recovery_rate": 0.0}}]}))
    assert run_cli("report", "--inputs", str(path)) == 0
    assert "mean_error=n/a recovery=0.00" in capsys.readouterr().out


@pytest.mark.parametrize("task", ["channel", "lindbladian", "haar"])
def test_generate_exit_code_2_names_n(tmp_path, capsys, task):
    # n is checked before the truth rank, so n=0 is not blamed on the rank
    assert run_cli("generate", "--task", task, "--n", "0", "--out", str(tmp_path)) == 2
    assert "n must be an integer >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "reshaped.cmx").exists()


def test_run_exit_code_2_on_bad_config(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"task": "nope"}))
    assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path)) == 2


def test_run_exit_code_2_on_unknown_solver_key(tmp_path, capsys):
    config = {"task": "channel", "n": 4, "design": "blockwise", "strategy": "als_n",
              "m_o": [16], "kraus_rank": 2, "solver": {"betta": 0.5}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path)) == 2
    assert "betta" in capsys.readouterr().err


def test_threads_and_formats_rejected_on_every_subcommand():
    parser = build_parser()
    commands = [["generate", "--task", "channel", "--n", "4"],
                ["measure", "--truth", "t", "--design", "blockwise"],
                ["solve", "--data", "d", "--strategy", "als_p", "--rank", "1"],
                ["reconstruct", "--blocks", "b.cmx", "--rank", "1"],
                ["run", "--config", "c.json"],
                ["rip-probe", "--n", "4", "--design", "blockwise", "--m", "4"],
                ["report", "--inputs", "r"]]
    for argv in commands:
        parser.parse_args(argv)
        for flag in (["--threads", "2"], ["--formats", "json"]):
            with pytest.raises(SystemExit) as info:
                parser.parse_args(argv + flag)
            assert info.value.code == 2
    # reconstruct and report draw nothing at random, so take no --seed
    for argv in (commands[3], commands[6]):
        with pytest.raises(SystemExit) as info:
            parser.parse_args(argv + ["--seed", "1"])
        assert info.value.code == 2


def test_run_exit_code_2_on_missing_file(tmp_path):
    assert run_cli("run", "--config", str(tmp_path / "none.json"),
                   "--out", str(tmp_path)) == 2


def test_reconstruct_exit_code_3_on_rank_violation(tmp_path):
    blocks = np.zeros((3, 9), dtype=complex)
    blocks[:, 3:6] = np.eye(3)  # anchor diagonal block is zero
    path = tmp_path / "blocks.cmx"
    save_cmx(path, blocks)
    assert run_cli("reconstruct", "--blocks", str(path), "--rank", "2",
                   "--out", str(tmp_path)) == 3


@pytest.mark.parametrize("solver", [{"max_iter": "5"}, {"max_iter": 0},
                                    {"gamma": "1e-8"}, {"rank": True}])
def test_run_exit_code_2_on_bad_solver_value(tmp_path, solver):
    config = {"task": "channel", "n": 4, "design": "blockwise", "strategy": "als_n",
              "m_o": [16], "kraus_rank": 2, "solver": solver}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path)) == 2


@pytest.mark.parametrize("override", [
    {"n": "4"}, {"n": True}, {"n": 0}, {"trials": 2.0}, {"master_seed": "1"},
    {"master_seed": -1}, {"kraus_rank": 2.5}, {"r_minus": -1}, {"row_index": 4},
    {"row_index": -1}, {"sigma": -1},
    {"sigma": float("nan")}, {"sigma": "0"}, {"subset_ratio": True},
    {"noise_mode": "bogus"}, {"recovery_threshold": -1}, {"recovery_threshold": 0},
    {"sweep": [16.5]}, {"sweep": [True]}, {"hermitize": "no"}, {"solver": [1]},
    {"workers": 2}, {"m_o": [20], "m": [30]}, {"kraus_rank": 17}, {"rank": 3},
    {"n_jumps": 3, "task": "lindbladian", "n": 2},
    {"r_plus": 3, "r_minus": 2, "task": "haar", "n": 2}], ids=lambda o: ",".join(f"{k}={v!r}" for k, v in o.items()))
def test_run_exit_code_2_on_bad_config_value(tmp_path, capsys, override):
    config = {"task": "channel", "n": 4, "design": "blockwise", "strategy": "als_n",
              "sweep": [16], "kraus_rank": 2, **override}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path)) == 2
    assert next(iter(override)) in capsys.readouterr().err


@pytest.mark.parametrize("override, message", [
    ({"n": 1}, "n must be an integer >= 2, got 1"),
    ({"n": 3, "source": "pauli"}, "Pauli designs need n a power of 2, got 3"),
    ({"n": 6, "source": "pauli", "strategy": "als_n2"},
     "Pauli designs need n a power of 2, got 6")],
    ids=["n=1", "pauli-n=3", "pauli-als_n2-n=6"])
def test_run_exit_code_2_on_config_no_design_exists_for(tmp_path, capsys, override,
                                                          message):
    # no trial of these could run, so the config is rejected before any is
    config = {"task": "channel", "n": 4, "strategy": "als_n", "sweep": [4],
              "kraus_rank": 1, "trials": 2, **override}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path)) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "results.json").exists()


@pytest.mark.parametrize("payload", [[1, 2], "config", 3])
def test_run_exit_code_2_on_config_not_an_object(tmp_path, payload):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(payload))
    assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path)) == 2


def test_run_exit_code_2_on_config_nested_too_deep(tmp_path):
    # past the JSON parser's recursion limit: rejected, not a RecursionError
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text("[" * 10 ** 5 + "]" * 10 ** 5)
    assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path)) == 2


def test_solve_and_reconstruct_exit_code_2_on_oversized_cmx_header(tmp_path):
    data_dir = _stored_blockwise_data(tmp_path)
    huge = struct.pack("<4sQQ", b"CMX1", 2 ** 32, 2 ** 32)
    (data_dir / "values.cmx").write_bytes(huge)
    assert run_cli("solve", "--data", str(data_dir), "--strategy", "als_n",
                   "--rank", "1", "--out", str(tmp_path / "s")) == 2
    blocks = tmp_path / "blocks.cmx"
    blocks.write_bytes(huge)
    assert run_cli("reconstruct", "--blocks", str(blocks), "--rank", "1",
                   "--out", str(tmp_path / "r")) == 2


def _stored_blockwise_data(tmp_path):
    truth_dir, data_dir = tmp_path / "truth", tmp_path / "data"
    assert run_cli("generate", "--task", "channel", "--n", "3", "--kraus-rank", "1",
                   "--seed", "1", "--out", str(truth_dir)) == 0
    assert run_cli("measure", "--truth", str(truth_dir), "--design", "blockwise",
                   "--m", "12", "--seed", "2", "--out", str(data_dir)) == 0
    return data_dir


def test_solve_exit_code_2_on_zero_max_iter(tmp_path):
    data_dir = _stored_blockwise_data(tmp_path)
    assert run_cli("solve", "--data", str(data_dir), "--strategy", "als_n",
                   "--rank", "1", "--max-iter", "0", "--out", str(tmp_path / "s")) == 2


@pytest.mark.parametrize("count", [0, -1, "30", 2.5, True, None])
def test_exit_code_2_on_malformed_stack_count(tmp_path, count):
    # design.json's count feeds solve, superoperator.json's r_plus measure;
    # r_plus = 0 is a valid truth with no plus operators
    data_dir = _stored_blockwise_data(tmp_path)
    design = json.loads((data_dir / "design.json").read_text())
    (data_dir / "design.json").write_text(json.dumps(dict(design, count=count)))
    assert run_cli("solve", "--data", str(data_dir), "--strategy", "als_n",
                   "--rank", "1", "--out", str(tmp_path / "s")) == 2
    if count == 0:
        return
    truth_dir = tmp_path / "truth"
    truth = json.loads((truth_dir / "superoperator.json").read_text())
    (truth_dir / "superoperator.json").write_text(json.dumps(dict(truth, r_plus=count)))
    assert run_cli("measure", "--truth", str(truth_dir), "--design", "blockwise",
                   "--m", "12", "--seed", "2", "--out", str(tmp_path / "d")) == 2


@pytest.mark.parametrize("manifest", ["design.json", "measurements.json"])
def test_solve_exit_code_2_on_unknown_kind(tmp_path, capsys, manifest):
    # a kind other than "blockwise" or "random_pairs" in either stored file
    # is rejected, not read as the other kind
    data_dir = _stored_blockwise_data(tmp_path)
    stored = json.loads((data_dir / manifest).read_text())
    (data_dir / manifest).write_text(json.dumps(dict(stored, kind="bogus")))
    assert run_cli("solve", "--data", str(data_dir), "--strategy", "als_n",
                   "--rank", "1", "--out", str(tmp_path / "s")) == 2
    assert "unknown kind 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("manifest, name, value", [
    ("design.json", "row_index", "0"), ("design.json", "dim_n", "3"),
    ("superoperator.json", "dim_n", "3")])
def test_exit_code_2_on_non_integer_manifest_field(tmp_path, capsys, manifest, name, value):
    # a stored dimension or row index that is not an integer is rejected by
    # name, not compared with an integer or reported as a shape mismatch
    data_dir, truth_dir = _stored_blockwise_data(tmp_path), tmp_path / "truth"
    if manifest == "design.json":
        path, args = data_dir / manifest, ("solve", "--data", str(data_dir),
                                           "--strategy", "als_n", "--rank", "1")
    else:
        path, args = truth_dir / manifest, ("measure", "--truth", str(truth_dir),
                                            "--design", "blockwise", "--m", "12")
    stored = json.loads(path.read_text())
    path.write_text(json.dumps(dict(stored, **{name: value})))
    assert run_cli(*args, "--out", str(tmp_path / "out")) == 2
    assert f"{name} must be an integer, got '{value}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fault", ["shape", "columns", "imaginary"])
def test_solve_exit_code_2_on_pair_values_off_their_manifest(tmp_path, capsys, fault):
    # stored pair values must have the manifest's shape and be one real
    # column, not be read as column 0's real part
    run_cli("generate", "--task", "haar", "--n", "3", "--r-plus", "1",
            "--r-minus", "1", "--seed", "1", "--out", str(tmp_path / "t"))
    data_dir = tmp_path / "d"
    run_cli("measure", "--truth", str(tmp_path / "t"), "--design", "random_pairs",
            "--m", "120", "--sigma", "0", "--seed", "2", "--out", str(data_dir))
    values = load_cmx(data_dir / "values.cmx")
    stored = json.loads((data_dir / "measurements.json").read_text())
    if fault == "shape":
        stored["shape"] = [119, 1]
    elif fault == "columns":
        values, stored["shape"] = np.hstack([values, values]), [120, 2]
    else:
        values = values + 5j
    (data_dir / "measurements.json").write_text(json.dumps(stored))
    save_cmx(data_dir / "values.cmx", values)
    assert run_cli("solve", "--data", str(data_dir), "--strategy", "als_n2",
                   "--rank", "2", "--out", str(tmp_path / "s")) == 2
    assert "values.cmx" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_exit_code_2_on_non_finite_data(tmp_path, bad):
    data_dir = _stored_blockwise_data(tmp_path)
    values = load_cmx(data_dir / "values.cmx")
    values[3, 1] = bad
    save_cmx(data_dir / "values.cmx", values)
    for strategy in ("als_p", "als_n", "als_i"):
        assert run_cli("solve", "--data", str(data_dir), "--strategy", strategy,
                       "--rank", "1", "--out", str(tmp_path / "s")) == 2


def test_reconstruct_exit_code_2_on_partial_block(tmp_path):
    # 18 columns are four 4 x 4 blocks plus two stray columns
    path = tmp_path / "blocks.cmx"
    save_cmx(path, np.ones((4, 18), dtype=complex))
    assert run_cli("reconstruct", "--blocks", str(path), "--rank", "1",
                   "--out", str(tmp_path)) == 2


@pytest.mark.parametrize("rtol", ["nan", "inf", "-1"])
def test_reconstruct_exit_code_2_on_bad_rtol(tmp_path, capsys, rtol):
    path = tmp_path / "blocks.cmx"
    save_cmx(path, np.hstack([np.eye(3)] * 3))
    assert run_cli("reconstruct", "--blocks", str(path), "--rank", "1",
                   "--rtol", rtol, "--out", str(tmp_path / "r")) == 2
    assert "rtol" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_measure_exit_code_2_on_non_finite_sigma(tmp_path, capsys, sigma):
    truth_dir, data_dir = tmp_path / "truth", tmp_path / "data"
    assert run_cli("generate", "--task", "channel", "--n", "3", "--kraus-rank", "1",
                   "--seed", "1", "--out", str(truth_dir)) == 0
    for design in ("blockwise", "random_pairs"):
        assert run_cli("measure", "--truth", str(truth_dir), "--design", design,
                       "--m", "12", "--sigma", sigma, "--out", str(data_dir)) == 2
        assert "sigma" in capsys.readouterr().err
        assert not data_dir.exists()


def test_reconstruct_exit_code_2_on_non_finite_row(tmp_path):
    row = np.ones((3, 9), dtype=complex)
    row[0, 7] = np.nan
    path = tmp_path / "blocks.cmx"
    save_cmx(path, row)
    assert run_cli("reconstruct", "--blocks", str(path), "--rank", "1",
                   "--out", str(tmp_path)) == 2


def test_rip_probe_subcommand(tmp_path, capsys):
    assert run_cli("rip-probe", "--n", "4", "--design", "blockwise",
                   "--source", "pauli", "--m", "16", "--rank", "2",
                   "--samples", "50", "--seed", "0",
                   "--out", str(tmp_path / "probe")) == 0
    payload = json.loads((tmp_path / "probe" / "rip_probe.json").read_text())
    assert 0 <= payload["delta"] < 1
    assert payload["c0"] <= payload["c1"]


def test_rip_probe_exit_code_2_on_rank_above_the_block(tmp_path, capsys):
    # blockwise at N=3 samples 3 x 3 matrices: rank 10 was sampled as 3
    assert run_cli("rip-probe", "--n", "3", "--design", "blockwise", "--m", "12",
                   "--rank", "10", "--samples", "5", "--out", str(tmp_path)) == 2
    assert "rank 10" in capsys.readouterr().err
    assert not (tmp_path / "rip_probe.json").exists()


def test_rip_probe_rejects_row_index():
    # the probe reads no anchor row, so the option is gone
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["rip-probe", "--n", "4", "--design", "blockwise",
                                   "--m", "4", "--row-index", "1"])
    assert info.value.code == 2


def test_argparse_rejects_unknown_strategy(tmp_path):
    with pytest.raises(SystemExit) as info:
        run_cli("solve", "--data", str(tmp_path), "--strategy", "magic",
                "--rank", "1")
    assert info.value.code == 2


def _measured(tmp_path, design="blockwise", m="20"):
    truth_dir, data_dir = tmp_path / "t", tmp_path / "d"
    run_cli("generate", "--task", "channel", "--n", "4", "--kraus-rank", "2",
            "--seed", "3", "--out", str(truth_dir))
    assert run_cli("measure", "--truth", str(truth_dir), "--design", design,
                   "--m", m, "--sigma", "1e-3", "--seed", "4",
                   "--out", str(data_dir)) == 0
    return truth_dir, data_dir


@pytest.mark.parametrize("flag, value", [("--row-index", "99"), ("--row-index", "1"),
                                         ("--noise-mode", "physical")])
def test_measure_random_pairs_rejects_options_it_never_reads(tmp_path, capsys, flag,
                                                            value):
    truth_dir, _ = _measured(tmp_path)
    assert run_cli("measure", "--truth", str(truth_dir), "--design", "random_pairs",
                   "--m", "30", flag, value, "--out", str(tmp_path / "p")) == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not (tmp_path / "p" / "design.json").exists()


def test_solve_rejects_subset_ratio_outside_als_i(tmp_path, capsys):
    _, data_dir = _measured(tmp_path)
    assert run_cli("solve", "--data", str(data_dir), "--strategy", "als_n",
                   "--rank", "2", "--subset-ratio", "0.5", "--out", str(tmp_path)) == 2
    assert "subset_ratio" in capsys.readouterr().err
    assert run_cli("solve", "--data", str(data_dir), "--strategy", "als_i",
                   "--rank", "2", "--subset-ratio", "0.5",
                   "--out", str(tmp_path / "i")) == 0


def test_solve_exit_code_2_on_non_hermitian_observables(tmp_path, capsys):
    _, data_dir = _measured(tmp_path)
    design = load_design(str(data_dir))
    obs = design.observables.copy()
    obs[3, 0, 1] += 1e-9                                    # O_3[1,0] left as it was
    save_matrix_stack(str(data_dir / "observables.cmx"), obs)
    assert run_cli("solve", "--data", str(data_dir), "--strategy", "als_n",
                   "--rank", "2", "--out", str(tmp_path / "s")) == 2
    assert "Hermitian" in capsys.readouterr().err


@pytest.mark.parametrize("strategy", ["als_p", "als_n"])
def test_solve_report_is_the_shared_reduction(tmp_path, strategy):
    # report.json holds the same totals as results.json's records: one
    # reduction of the solve reports serves both
    _, data_dir = _measured(tmp_path)
    assert run_cli("solve", "--data", str(data_dir), "--strategy", strategy,
                   "--rank", "2", "--seed", "6", "--out", str(tmp_path / "s")) == 0
    report = json.loads((tmp_path / "s" / "report.json").read_text())
    _, reports = solve_strategy(strategy, load_design(str(data_dir)),
                                load_measurements(str(data_dir)).values,
                                SolverConfig(rank=2, seed=6))
    totals = report_totals(reports)
    for timing in ("wall_time_s", "part_s"):
        del totals[timing], report[timing]
    assert {k: report[k] for k in totals} == totals


# ---------------------------------------------------------------------------
# one property over the stored files: a mutated manifest never raises out of
# the command that reads it

# design kind -> (measure's pair or observable count, the strategy solved)
_STORED_KINDS = {"blockwise": ("12", "als_n"), "random_pairs": ("30", "als_n2")}
# each stored manifest's keys, and those the command reading it uses
_MANIFEST_KEYS = {
    "superoperator.json": ("dim_n", "kind", "r_minus", "r_plus", "seed", "task"),
    "design.json": ("count", "dim_n", "kind", "row_index", "seed"),
    "measurements.json": ("design_ref", "kind", "noise_mode", "seed", "shape", "sigma")}
_READ_KEYS = {"superoperator.json": {"dim_n", "r_plus", "r_minus"},
              "design.json": {"kind", "dim_n", "count", "row_index"},
              "measurements.json": {"kind", "shape"}}
_COUNTS = {"dim_n", "count", "r_plus", "r_minus"}
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.sampled_from([2 ** 63, 10 ** 30]),
    st.floats(), st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1))
_NON_OBJECTS = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3),
                         st.lists(st.integers(0, 3), max_size=2))


def _mutations(name):
    # (manifest, op, key, value): set or remove one key, add an extra one,
    # or replace the whole manifest
    keys = st.sampled_from(_MANIFEST_KEYS[name])
    return st.one_of(st.tuples(st.just(name), st.just("set"), keys, _JSON_VALUES),
                     st.tuples(st.just(name), st.just("remove"), keys, st.none()),
                     st.tuples(st.just(name), st.just("set"), st.just("extra"), _JSON_VALUES),
                     st.tuples(st.just(name), st.just("replace"), st.none(), _NON_OBJECTS))


def _command(kind, manifest, folder):
    # measure reads superoperator.json; solve reads the other two
    m, strategy = _STORED_KINDS[kind]
    if manifest == "superoperator.json":
        return ("measure", "--truth", str(folder / "truth"), "--design", kind, "--m", m,
                "--sigma", "1e-3", "--seed", "2")
    return ("solve", "--data", str(folder / "data"), "--strategy", strategy,
            "--rank", "1", "--seed", "3")


def _outputs(out):
    # every file a command wrote, with report.json's wall-clock fields dropped
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    if "report.json" in files:
        report = json.loads(files["report.json"])
        del report["wall_time_s"], report["part_s"]
        files["report.json"] = report
    return files


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    # N=3 generate/measure outputs of each design kind, with measure's and
    # solve's outputs on them unmutated
    root = tmp_path_factory.mktemp("stored")
    for kind, (m, _) in _STORED_KINDS.items():
        folder = root / kind / "in"
        assert run_cli("generate", "--task", "channel", "--n", "3", "--kraus-rank", "1",
                       "--seed", "1", "--out", str(folder / "truth")) == 0
        assert run_cli("measure", "--truth", str(folder / "truth"), "--design", kind,
                       "--m", m, "--sigma", "1e-3", "--seed", "2",
                       "--out", str(folder / "data")) == 0
        for manifest in ("superoperator.json", "design.json"):
            argv = _command(kind, manifest, folder)
            assert run_cli(*argv, "--out", str(root / kind / argv[0])) == 0
    return root


@settings(derandomize=True, deadline=None, max_examples=100)
@given(kind=st.sampled_from(sorted(_STORED_KINDS)),
       mutation=st.sampled_from(sorted(_MANIFEST_KEYS)).flatmap(_mutations))
@example(kind="blockwise", mutation=("design.json", "replace", None, [1]))
@example(kind="blockwise", mutation=("superoperator.json", "set", "r_plus", None))
@example(kind="random_pairs", mutation=("superoperator.json", "set", "r_plus", False))
def test_mutated_manifest_exits_0_2_or_3(stored, kind, mutation):
    # exit 2 for a non-object manifest and for a count the command reads
    # that is not an integer or is missing; on exit 0 after a mutation of a
    # key the command does not read, the unmutated run's outputs
    name, op, key, value = mutation
    with tempfile.TemporaryDirectory() as tmp:
        folder, out = Path(tmp) / "in", Path(tmp) / "out"
        shutil.copytree(stored / kind / "in", folder)
        path = folder / ("truth" if name == "superoperator.json" else "data") / name
        manifest = json.loads(path.read_text())
        if op == "replace":
            manifest = value
        elif op == "remove":
            manifest.pop(key)
        else:
            manifest[key] = value
        path.write_text(json.dumps(manifest))
        argv = _command(kind, name, folder)
        code = run_cli(*argv, "--out", str(out))
        assert code in (0, 2, 3)
        read = key in _READ_KEYS[name]
        if op == "replace" or read and key in _COUNTS and (
                op == "remove" or isinstance(value, bool) or not isinstance(value, int)):
            assert code == 2
        if code == 0 and not read:
            assert _outputs(out) == _outputs(stored / kind / argv[0])


# every CMX1 file `solve` reads, by design kind
_CMX_FILES = {"blockwise": ("values.cmx", "observables.cmx"),
              "random_pairs": ("values.cmx", "observables.cmx", "states.cmx")}


def _cmx_case():
    # (kind, file, (field, value)): a new magic, rows or cols, or the file
    # cut to value modulo its length
    return st.sampled_from(sorted(_CMX_FILES)).flatmap(lambda kind: st.tuples(
        st.just(kind), st.sampled_from(_CMX_FILES[kind]), st.one_of(
            st.tuples(st.just("magic"), st.binary(min_size=4, max_size=4)),
            st.tuples(st.sampled_from(["rows", "cols"]),
                      st.one_of(st.integers(0, 40), st.integers(0, 2 ** 64 - 1))),
            st.tuples(st.just("truncate"), st.integers(0, 2 ** 16)))))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=_cmx_case())
@example(case=("blockwise", "values.cmx", ("magic", b"CMX1")))
@example(case=("blockwise", "values.cmx", ("rows", 3)))
@example(case=("random_pairs", "observables.cmx", ("cols", 30)))
@example(case=("random_pairs", "states.cmx", ("truncate", 20)))
def test_mutated_cmx_header_exits_2_or_leaves_outputs(stored, case):
    # solve on a CMX1 file whose magic, rows or cols is replaced, or which
    # is cut short, exits 2, or exits 0 with the unmutated run's outputs
    # (a mutation that left the file as it was)
    kind, name, (field, value) = case
    with tempfile.TemporaryDirectory() as tmp:
        folder, out = Path(tmp) / "in", Path(tmp) / "out"
        shutil.copytree(stored / kind / "in", folder)
        path = folder / "data" / name
        blob = bytearray(path.read_bytes())
        if field == "magic":
            blob[:4] = value
        elif field == "truncate":
            blob = blob[:value % len(blob)]
        else:
            struct.pack_into("<Q", blob, 4 if field == "rows" else 12, value)
        path.write_bytes(bytes(blob))
        argv = _command(kind, "design.json", folder)
        code = run_cli(*argv, "--out", str(out))
        assert code in (0, 2)
        if code == 0:
            assert _outputs(out) == _outputs(stored / kind / "solve")


@pytest.fixture(scope="module")
def stored_results(tmp_path_factory):
    # results.json of an N=3 als_n run with two sweep points, and report's
    # output on it
    root = tmp_path_factory.mktemp("results")
    config = {"task": "channel", "n": 3, "strategy": "als_n", "m_o": [10, 12],
              "kraus_rank": 1, "sigma": 1e-3, "trials": 2, "master_seed": 5}
    (root / "config.json").write_text(json.dumps(config))
    assert run_cli("run", "--config", str(root / "config.json"), "--out", str(root)) == 0
    assert run_cli("report", "--inputs", str(root), "--out", str(root / "report")) == 0
    return root / "results.json", (root / "report" / "report.json").read_bytes()


# the objects of results.json that report reads, by path from the top, and
# their keys: the fields report reads, one it does not, and "extra" (new)
_RESULTS_OBJECTS = {(): ("config", "points", "manifest_hash"),
                    ("config",): ("strategy", "n", "extra"),
                    ("points", 0): ("m", "aggregates", "records"),
                    ("points", 1, "aggregates"): ("mean_error", "recovery_rate",
                                                  "failed_trials", "extra")}
_RESULTS_READ = {"config", "points", "strategy", "m", "aggregates", "mean_error",
                 "recovery_rate"}


def _results_mutation():
    # (path, op, key, value): set or remove one key of one object, replace
    # the object, or cut the file to value modulo its length
    def of(path):
        keys = st.sampled_from(_RESULTS_OBJECTS[path])
        return st.one_of(st.tuples(st.just(path), st.just("set"), keys, _JSON_VALUES),
                         st.tuples(st.just(path), st.just("remove"), keys, st.none()),
                         st.tuples(st.just(path), st.just("replace"), st.none(),
                                   st.one_of(_NON_OBJECTS, _JSON_VALUES)))
    return st.one_of(st.sampled_from(sorted(_RESULTS_OBJECTS)).flatmap(of),
                     st.tuples(st.none(), st.just("truncate"), st.none(),
                               st.integers(0, 2 ** 16)))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(mutation=_results_mutation())
@example(mutation=((), "replace", None, [1]))
@example(mutation=(("points", 1, "aggregates"), "set", "mean_error", 10 ** 30))
@example(mutation=(("points", 1, "aggregates"), "set", "recovery_rate", True))
@example(mutation=(("points", 0), "set", "m", float("nan")))
@example(mutation=(None, "truncate", None, 7))
def test_mutated_results_report_exits_0_or_2(stored_results, mutation):
    # report on a results.json with one key set or removed, one object
    # replaced, or the file cut short exits 0 or 2, never with a traceback:
    # 2 for a cut file and a removed key that report reads; on exit 0 after
    # a mutation of a key it neither reads nor copies, the unmutated report
    path, op, key, value = mutation
    source, report = stored_results
    text = source.read_text()
    with tempfile.TemporaryDirectory() as tmp:
        target, out = Path(tmp) / "results.json", Path(tmp) / "out"
        if op == "truncate":
            target.write_text(text[:value % len(text)])
        else:
            payload = json.loads(text)
            parent = payload
            for step in path[:-1]:
                parent = parent[step]
            if op == "replace" and not path:
                payload = value
            elif op == "replace":
                parent[path[-1]] = value
            elif op == "remove":
                (parent[path[-1]] if path else payload).pop(key, None)
            else:
                (parent[path[-1]] if path else payload)[key] = value
            target.write_text(json.dumps(payload))
        code = run_cli("report", "--inputs", str(target), "--out", str(out))
        assert code in (0, 2)
        if op == "truncate" and value % len(text) < len(text.rstrip()):
            assert code == 2
        if op == "remove" and key in _RESULTS_READ:
            assert code == 2
        if code == 0 and op in ("set", "remove") and key not in _RESULTS_READ and (
                "aggregates" not in path):
            entries = [json.loads(blob)["entries"] for blob in
                       ((out / "report.json").read_bytes(), report)]
            assert [[{**e, "path": None} for e in side] for side in entries] == [
                [{**e, "path": None} for e in entries[1]]] * 2


def _results(out):
    # results.json without its wall-clock section, and the figure recipe
    payload = json.loads((out / "results.json").read_text())
    del payload["timings"]
    return payload, (out / "figure_recipe.json").read_bytes()


def test_log_level_changes_no_output(tmp_path, capsys, caplog):
    # at the default level the package logs nothing; at DEBUG run reports
    # its sweep point and each sweep's loss, and writes the same results
    config = {"task": "channel", "n": 3, "design": "blockwise", "strategy": "als_n",
              "m_o": [12], "kraus_rank": 1, "sigma": 1e-3, "trials": 2, "master_seed": 4}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    try:
        assert run_cli("run", "--config", str(cfg_path), "--out", str(quiet)) == 0
        assert capsys.readouterr().err == "" and caplog.records == []
        assert run_cli("run", "--config", str(cfg_path), "--out", str(loud),
                       "--log-level", "DEBUG") == 0
    finally:
        logging.getLogger("superop_sensing").setLevel(logging.NOTSET)
    levels = [r.levelname for r in caplog.records]
    assert levels.count("INFO") == 1 and levels.count("DEBUG") >= 2
    assert _results(quiet) == _results(loud)
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--config", "c", "--log-level", "LOUD"])
