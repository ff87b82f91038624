import importlib
import json
import os
import shutil
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

_TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")


@pytest.fixture
def ab_compare(monkeypatch):
    # the tool sets one BLAS thread and its import paths on import; both are
    # undone after the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.syspath_prepend(_TOOLS)
    return importlib.import_module("ab_compare")


@pytest.mark.parametrize("failed_first", [False, True])
def test_side_summary_skips_failed_trials(ab_compare, failed_first):
    # a failed trial records no stage or part times; medians are over the
    # trials that passed, and the failed one is counted
    passed = {"seconds": 2.0, "error": 1e-3, "counts": [5, 0, 0, "tol"],
              "stage_s": {"solve": 1.5}, "part_s": {"gram": 0.5}, "message": ""}
    failed = {"seconds": 9.0, "error": None, "counts": [0, 0, 0, None],
              "stage_s": {}, "part_s": {}, "message": "DivergenceError: loss grew"}
    trials = [failed, passed] if failed_first else [passed, failed]
    assert ab_compare.side_summary(trials) == {
        "trial_s_p50": 2.0, "stage_s_p50": {"solve": 1.5}, "part_s_p50": {"gram": 0.5},
        "failed": 1}
    assert ab_compare.side_summary([failed]) == {
        "trial_s_p50": None, "stage_s_p50": {}, "part_s_p50": {}, "failed": 1}


class _FakeHarness:
    """`run_experiment` stand-in: a trial allocates a 4 MiB array and
    records a solve time of 1 s when traced, 0 s otherwise; the timed
    trials record the given final losses in turn, the warm-up and traced
    trials 0.5."""

    def __init__(self, final_losses=(0.5, 0.5, 0.5)):
        self.seeds = []
        self.final_losses = [0.5, *final_losses, 0.5]

    def ExperimentConfig(self, trials, master_seed, **config):
        return SimpleNamespace(master_seed=master_seed)

    def run_experiment(self, cfg):
        self.seeds.append(cfg.master_seed)
        np.ones(2 ** 19)
        record = SimpleNamespace(
            error=1e-3, final_loss=self.final_losses[len(self.seeds) - 1],
            iterations=5, restarts=0, fallbacks=0, stop="converged",
            stage_s={"solve": float(tracemalloc.is_tracing())}, solve_part_s={},
            message="")
        return SimpleNamespace(points=[SimpleNamespace(records=[record])])


def test_compare_reports_one_traced_peak_outside_the_medians(ab_compare, monkeypatch):
    # after the timed trials, one traced trial per side at the first trial's
    # master seed; its peak is reported and it enters no median
    workload = SimpleNamespace(config={}, warmup={})
    monkeypatch.setitem(ab_compare.pipeline.WORKLOADS, "fake", workload)
    base, change = _FakeHarness(), _FakeHarness()
    result = ab_compare.compare(base, change, "fake", seed=3, n_trials=3)
    seeds = [ab_compare.pipeline.trial_master_seed(3, i) for i in range(3)]
    for fake, name in ((base, "base"), (change, "change")):
        assert fake.seeds == [ab_compare.pipeline.WARMUP_MASTER_SEED, *seeds, seeds[0]]
        assert 4 <= result[name]["traced_peak_mib"] < 5
        assert result[name]["stage_s_p50"] == {"solve": 0.0}
    assert not tracemalloc.is_tracing()
    assert result["errors_identical"] and result["max_rel_error_diff"] == 0
    assert result["final_losses_identical"] and result["max_rel_final_loss_diff"] == 0


@pytest.mark.parametrize("change_losses, identical, diff", [
    ((0.5, 0.5 + 2 ** -53, 0.5), False, 2 ** -52),
    ((0.5, 0.75, 0.5), False, 0.5),
    ((0.5, None, 0.5), True, 0.0)])
def test_compare_reports_final_loss_agreement(ab_compare, monkeypatch, change_losses,
                                              identical, diff):
    # every trial both sides finished must agree bit for bit for a bitwise
    # claim, and the largest relative difference is reported otherwise; a
    # trial without a final loss on either side is not compared
    workload = SimpleNamespace(config={}, warmup={})
    monkeypatch.setitem(ab_compare.pipeline.WORKLOADS, "fake", workload)
    result = ab_compare.compare(_FakeHarness(), _FakeHarness(change_losses), "fake",
                                seed=3, n_trials=3)
    assert result["final_losses_identical"] is identical
    assert result["max_rel_final_loss_diff"] == diff


def test_code_lines_counts_code_outside_comments_and_docstrings(monkeypatch):
    monkeypatch.syspath_prepend(_TOOLS)
    code_lines = importlib.import_module("code_lines").code_lines
    source = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a line of code that ends in a comment


def f(x):
    """Function docstring."""

    total = (x +
             1)
    text = """a string that is not a docstring
counts each line"""
    return total, text
'''
    # import, def, the two lines of each statement and return
    assert code_lines(source) == 7


def test_large_n_point_runs_both_sides_in_fresh_processes(ab_compare, monkeypatch, capsys):
    # smoke test at N=4: the base side is a copy of the checkout's package
    # under the base name, so both sides give the same error bit for bit
    src = os.path.join(_TOOLS, "..", "src", "superop_sensing")

    def export(rev, into):
        shutil.copytree(src, os.path.join(into, ab_compare.BASE_PACKAGE))

    monkeypatch.setattr(ab_compare, "export_package", export)
    large_n_point = importlib.import_module("large_n_point")
    assert large_n_point.main(["--rev", "HEAD", "--n", "4", "--m-o", "24",
                               "--pairs", "2"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert [(r["side"], r["pair"]) for r in result["runs"]] == [
        ("base", 0), ("change", 0), ("change", 1), ("base", 1)]
    for run in result["runs"]:
        assert not run["message"] and run["error"] > 0
        assert tuple(run["stage_s"]) == ("truth", "design", "simulate", "solve",
                                         "reconstruct", "score")
        assert tuple(run["solve_part_s"]) == ("gram", "right", "left", "loss")
        assert run["ru_maxrss_mib"] > 0
    assert result["errors_identical"]
    assert result["base"]["trial_s_p50"] > 0 and result["change"]["ru_maxrss_mib_max"] > 0


def test_large_n_point_runs_the_checkout_alone_without_rev(ab_compare, monkeypatch, capsys):
    # without --rev only the checkout's side runs, once a pair, and no
    # revision is exported
    def export(rev, into):
        raise AssertionError("exported a revision")

    monkeypatch.setattr(ab_compare, "export_package", export)
    large_n_point = importlib.import_module("large_n_point")
    assert large_n_point.main(["--n", "4", "--m-o", "24", "--pairs", "2"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert [(r["side"], r["pair"]) for r in result["runs"]] == [("change", 0), ("change", 1)]
    assert "base" not in result and result["rev"] is None
    for run in result["runs"]:
        assert run["returncode"] == 0 and not run["message"] and run["error"] > 0
    assert result["change"]["exited_nonzero"] == 0 and result["change"]["trial_s_p50"] > 0
    assert result["errors_identical"]


def test_large_n_point_reports_a_child_that_exits_nonzero(monkeypatch):
    # a child that exits non-zero (here it cannot import its package) is
    # reported with its exit code and the last line of its stderr, and its
    # side's summary counts it; a child that finishes ran under an address
    # space limit below the host's physical memory
    monkeypatch.syspath_prepend(_TOOLS)
    large_n_point = importlib.import_module("large_n_point")
    src = os.path.join(_TOOLS, "..", "src")
    sides = {"base": (src, "no_such_package"), "change": (src, "superop_sensing")}
    result = large_n_point.run_pairs(sides, 4, 24, seed=1, pairs=1)
    failed, finished = result["runs"]
    assert failed["side"] == "base" and failed["returncode"] != 0
    assert failed["message"].startswith("ModuleNotFoundError")
    assert finished["returncode"] == 0 and not finished["message"] and finished["error"] > 0
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 20
    assert 0 < finished["rlimit_as_mib"] <= large_n_point.ADDRESS_SPACE_SHARE * physical
    assert result["base"] == {"trial_s_p50": None, "ru_maxrss_mib_max": None,
                              "exited_nonzero": 1}
    assert result["change"]["exited_nonzero"] == 0 and result["change"]["trial_s_p50"] > 0
    assert not result["errors_identical"]


@pytest.fixture
def reference_hashes(ab_compare):
    return importlib.import_module("reference_hashes")


def test_reference_hashes_rev_compares_every_config(ab_compare, reference_hashes,
                                                    monkeypatch, capsys):
    # the base side is a copy of the checkout's package under the base name:
    # one line per config, both hashes the checkout's own, every field equal
    src = os.path.join(_TOOLS, "..", "src", "superop_sensing")

    def export(rev, into):
        shutil.copytree(src, os.path.join(into, ab_compare.BASE_PACKAGE))

    monkeypatch.setattr(ab_compare, "export_package", export)
    assert reference_hashes.main(["--rev", "HEAD"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(reference_hashes.CONFIGS)
    for line, config in zip(lines, reference_hashes.CONFIGS.values()):
        own = reference_hashes.payload_hash(
            reference_hashes.payload(reference_hashes.harness, config))
        assert line.split()[1:3] == [own, own]
        assert line.split()[3] == "fields=equal"
    # G's rank is infeasible, so no trial has an error on either side
    assert lines[0].endswith("error=0.0 final_loss=0.0")
    assert lines[6].endswith("error=None final_loss=None")


def _payload(errors, final_losses, stops):
    records = [{"trial": i, "error": e, "iterations": 5, "restarts": 0, "fallbacks": 0,
                "stop": stop, "final_loss": f, "recovered": False, "message": ""}
               for i, (e, f, stop) in enumerate(zip(errors, final_losses, stops))]
    return {"points": [{"m": 10, "records": records}]}


def test_reference_hashes_compare_line_reports_each_field(reference_hashes):
    # counts compared field by field on every trial; errors and final losses
    # by their largest relative difference
    base = _payload([1e-3, 2 ** -9], [0.5, 0.25], ["converged"] * 2)
    same = reference_hashes.compare_line("X", base, base)
    h = reference_hashes.payload_hash(base)
    assert same == f"X {h} {h} fields=equal error=0.0 final_loss=0.0"
    change = _payload([1e-3, 2 ** -9 * (1 + 2 ** -50)], [0.5, 0.375],
                      ["converged", "max_iter"])
    line = reference_hashes.compare_line("X", base, change).split()
    assert line[1] == h and line[2] != h
    assert line[3:] == ["fields=differ", f"error={2 ** -50}", "final_loss=0.5"]
    fewer = _payload([1e-3], [0.5], ["converged"])
    assert reference_hashes.compare_line("X", base, fewer).split()[3] == "fields=differ"

