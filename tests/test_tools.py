import importlib
import os
import sys

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
