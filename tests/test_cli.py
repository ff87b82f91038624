import json
import struct

import numpy as np
import pytest

from superop_sensing import choi_reshape, load_cmx, save_cmx
from superop_sensing.cli import build_parser, main
from superop_sensing.serialize import load_superoperator


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
    assert sum(len(trace) for trace in report["loss_trace"]) == report["iterations"]
    assert report["fallbacks"] == 0
    assert (solve_dir / "blocks.cmx").exists()
    assert not (solve_dir / "left.cmx").exists()
    assert not (solve_dir / "right.cmx").exists()


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
    {"workers": 2}, {"m_o": [20], "m": [30]}], ids=lambda o: ",".join(f"{k}={v!r}" for k, v in o.items()))
def test_run_exit_code_2_on_bad_config_value(tmp_path, capsys, override):
    config = {"task": "channel", "n": 4, "design": "blockwise", "strategy": "als_n",
              "sweep": [16], "kraus_rank": 2, **override}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path)) == 2
    assert next(iter(override)) in capsys.readouterr().err


@pytest.mark.parametrize("payload", [[1, 2], "config", 3])
def test_run_exit_code_2_on_config_not_an_object(tmp_path, payload):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(payload))
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


def test_argparse_rejects_unknown_strategy(tmp_path):
    with pytest.raises(SystemExit) as info:
        run_cli("solve", "--data", str(tmp_path), "--strategy", "magic",
                "--rank", "1")
    assert info.value.code == 2
