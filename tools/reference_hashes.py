"""Print the sha256 of results.json for the reference configs A-H.

Run from the repository root:

    python3 tools/reference_hashes.py

Each config runs through `run_experiment` and `emit_results`; the hash is
taken over the emitted results.json without its "timings" key, dumped with
`json.dumps(sort_keys=True, indent=1)`, and printed as its first 16 hex
characters, one "<name> <hash>" line per config. Everything outside
"timings" is reproducible for a fixed config, so an unchanged hash means
every number a config produces is bitwise unchanged. BLAS runs on one
thread, set here before numpy loads, because a different thread count may
change roundoff.
"""

import hashlib
import json
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from superop_sensing.harness import (ExperimentConfig, emit_results,  # noqa: E402
                                     run_experiment)

_CHANNEL = {"task": "channel", "n": 4, "kraus_rank": 2}
_BLOCKWISE = {"design": "blockwise", "trials": 2, "sigma": 1e-4}

# A-H: both pair configs, each first-row strategy, both noise modes and
# sources, a Lindbladian and a Haar truth, a non-zero anchor row, and an
# infeasible rank whose trials are recorded as failures
CONFIGS = {
    "A": {**_CHANNEL, "design": "random_pairs", "strategy": "als_n2", "m": [200],
          "sigma": 1e-4, "trials": 2, "master_seed": 5},
    "B": {**_CHANNEL, "kraus_rank": 1, "design": "random_pairs", "strategy": "als_n2",
          "source": "pauli", "m": [120], "master_seed": 10},
    "C": {**_CHANNEL, **_BLOCKWISE, "strategy": "als_p", "m_o": [16], "master_seed": 6},
    "D": {**_BLOCKWISE, "task": "lindbladian", "n": 6, "n_jumps": 1, "strategy": "als_n",
          "m_o": [30, 50], "sigma": 1e-3, "master_seed": 7},
    "E": {**_BLOCKWISE, "task": "haar", "n": 8, "r_plus": 2, "r_minus": 1,
          "strategy": "als_i", "m_o": [40], "subset_ratio": 0.5, "master_seed": 8},
    "F": {**_CHANNEL, **_BLOCKWISE, "strategy": "als_n", "source": "pauli",
          "noise_mode": "physical", "m_o": [16], "master_seed": 9},
    "G": {**_CHANNEL, **_BLOCKWISE, "strategy": "als_i", "solver": {"rank": 5},
          "m_o": [16], "sigma": 0.0, "master_seed": 11},
    "H": {**_CHANNEL, **_BLOCKWISE, "strategy": "als_n", "m_o": [20], "row_index": 2,
          "hermitize": True, "master_seed": 12},
}


def reference_hash(config: dict) -> str:
    result = run_experiment(ExperimentConfig.from_dict(config))
    with tempfile.TemporaryDirectory() as out:
        emit_results(result, out)
        with open(os.path.join(out, "results.json")) as fh:
            payload = json.load(fh)
    del payload["timings"]
    blob = json.dumps(payload, sort_keys=True, indent=1).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def main() -> int:
    for name, config in CONFIGS.items():
        print(f"{name} {reference_hash(config)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
