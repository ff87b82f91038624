import json

import numpy as np
import pytest

from superop_sensing import choi_reshape, load_cmx
from superop_sensing.cli import main
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


def test_threads_only_on_solve_and_run(tmp_path):
    with pytest.raises(SystemExit) as info:
        run_cli("generate", "--task", "channel", "--n", "4", "--threads", "2",
                "--out", str(tmp_path))
    assert info.value.code == 2


def test_run_exit_code_2_on_missing_file(tmp_path):
    assert run_cli("run", "--config", str(tmp_path / "none.json"),
                   "--out", str(tmp_path)) == 2


def test_reconstruct_exit_code_3_on_rank_violation(tmp_path):
    from superop_sensing import save_cmx
    blocks = np.zeros((3, 9), dtype=complex)
    blocks[:, 3:6] = np.eye(3)  # anchor diagonal block is zero
    path = tmp_path / "blocks.cmx"
    save_cmx(path, blocks)
    assert run_cli("reconstruct", "--blocks", str(path), "--rank", "2",
                   "--out", str(tmp_path)) == 3


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
