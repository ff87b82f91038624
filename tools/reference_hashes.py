"""Print the sha256 of results.json for the reference configs A-H.

Run from the repository root:

    python3 tools/reference_hashes.py
    python3 tools/reference_hashes.py --rev HEAD

Each config runs through `run_experiment` and `emit_results`; the hash is
taken over the emitted results.json without its "timings" key, dumped with
`json.dumps(sort_keys=True, indent=1)`, and printed as its first 16 hex
characters, one "<name> <hash>" line per config. Everything outside
"timings" is reproducible for a fixed config, so an unchanged hash means
every number a config produces is bitwise unchanged. BLAS runs on one
thread, set here before numpy loads, because a different thread count may
change roundoff.

With `--rev REV`, revision REV's package is exported as
`tools/ab_compare.py` does and both it and the checkout's package run
each config. One line per config gives the base's hash, the checkout's,
whether each of `COUNT_FIELDS` is equal on every trial (`fields=equal`,
else `fields=differ`), and the largest relative differences of the
trials' errors and final losses (`ab_compare.max_rel_diff`; "None" when
no trial has the value on both sides).
"""

import argparse
import hashlib
import importlib
import json
import os
import shutil
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import ab_compare  # noqa: E402  (tools/ab_compare.py)
from superop_sensing import harness  # noqa: E402

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


# the per-trial fields a change that only moves roundoff leaves equal
COUNT_FIELDS = ("iterations", "restarts", "fallbacks", "stop", "recovered", "message")


def payload(module, config: dict) -> dict:
    """The results.json that a package's harness `module` emits for
    config, without its "timings"."""
    result = module.run_experiment(module.ExperimentConfig.from_dict(config))
    with tempfile.TemporaryDirectory() as out:
        module.emit_results(result, out)
        with open(os.path.join(out, "results.json")) as fh:
            data = json.load(fh)
    del data["timings"]
    return data


def payload_hash(data: dict) -> str:
    blob = json.dumps(data, sort_keys=True, indent=1).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def compare_line(name: str, base: dict, change: dict) -> str:
    """The --rev line of one config, given both sides' payloads."""
    def records(data):
        return [r for point in data["points"] for r in point["records"]]

    pairs = list(zip(records(base), records(change)))
    equal = len(records(base)) == len(records(change)) and all(
        b[key] == c[key] for b, c in pairs for key in COUNT_FIELDS)
    return (f"{name} {payload_hash(base)} {payload_hash(change)} "
            f"fields={'equal' if equal else 'differ'} "
            f"error={ab_compare.max_rel_diff(pairs, 'error')} "
            f"final_loss={ab_compare.max_rel_diff(pairs, 'final_loss')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", help="compare with this git revision's package")
    args = parser.parse_args(argv)
    if args.rev is None:
        for name, config in CONFIGS.items():
            print(f"{name} {payload_hash(payload(harness, config))}", flush=True)
        return 0
    tmp = tempfile.mkdtemp(prefix="reference_hashes_")
    sys.path.insert(0, tmp)
    try:
        ab_compare.export_package(args.rev, tmp)
        base = importlib.import_module(ab_compare.BASE_PACKAGE + ".harness")
        for name, config in CONFIGS.items():
            print(compare_line(name, payload(base, config), payload(harness, config)),
                  flush=True)
    finally:
        sys.path.remove(tmp)
        shutil.rmtree(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
