"""Test-session setting: BLAS runs on one thread.

OpenBLAS reads its thread count once, when numpy loads, so the variables
are set here, before any test module imports numpy. On a host whose cores
are shared, the default thread count slows the suite many times over, past
the time bounds of acceptance criteria 5 and 6; one thread also fixes the
roundoff of every BLAS call, as `tools/reference_hashes.py` does. If numpy
was imported earlier (by a plugin, say), the pin is too late for this
process; the session header says so. The variables are set either way, so
subprocesses the tests start run on one thread.
"""

import os
import sys

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_NUMPY_FIRST = "numpy" in sys.modules
for _var in _BLAS_THREADS:
    os.environ[_var] = "1"


def pytest_report_header(config):
    if _NUMPY_FIRST:
        return ("BLAS thread count NOT pinned: numpy was imported before "
                "tests/conftest.py set " + ", ".join(_BLAS_THREADS))
    return "BLAS pinned to one thread (" + ", ".join(_BLAS_THREADS) + " = 1)"
