"""One large-N blockwise trial per fresh process, for the checkout alone or
against a git revision.

Run from the repository root:

    python3 tools/large_n_point.py --rev HEAD --n 64 --m-o 1640 --pairs 3
    python3 tools/large_n_point.py --n 128 --m-o 3280 --pairs 1

The checkout's `src/superop_sensing` is the change side. With `--rev`, the
package of that revision is exported as in `ab_compare`
(`export_package`) and is the base side; without it only the change side
runs, once per pair. Each run is one `als_n` Lindbladian
trial through `run_experiment` (N_J = 2, sigma = 1e-3, master seed
`--seed`) in a fresh interpreter, so its `ru_maxrss` is that trial's peak
resident memory plus the interpreter's. Pairs alternate which side runs
first (even pairs base first). BLAS runs on one thread, as in the benchmark.
Each child limits its own address space (`RLIMIT_AS`) to a fraction,
`ADDRESS_SPACE_SHARE`, of the host's physical memory, so a run that
outgrows the host raises `MemoryError` in that child instead of starving
the host. Run one point at a time.

Prints one JSON object: every run in order, with its side, its child's
exit code (`returncode`), trial seconds, stage times (`stage_s`), solve
parts (`solve_part_s`; empty for a revision that does not record them),
`ru_maxrss` in MiB, the address-space limit in MiB, error, iterations and
restarts; a child that exits non-zero gives only its exit code and the
last line of its stderr as `message`. Then per side that ran the median
trial time and the largest `ru_maxrss` over the runs that finished (None
if none did) and the number of runs that did not, and whether every run
finished with the same error bit for bit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
_BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# a child's address-space limit as a share of the host's physical memory:
# an N = 128 trial peaks at 2.6 GiB resident (4.7 when scoring built the
# dense truth) and runs under 6 GiB on 8 GB
ADDRESS_SPACE_SHARE = 0.8


def limit_address_space() -> int:
    """Lower this process's RLIMIT_AS to ADDRESS_SPACE_SHARE of the host's
    physical memory (never above the hard limit); the limit in bytes."""
    import resource

    limit = int(ADDRESS_SPACE_SHARE * os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    return limit


def child(package: str, n: int, m_o: int, seed: int) -> dict:
    """Run one trial with `package`'s harness in this process, under
    `limit_address_space`; its record and this process's peak resident
    memory."""
    import importlib
    import resource
    import time

    limit = limit_address_space()
    harness = importlib.import_module(package + ".harness")
    cfg = harness.ExperimentConfig(task="lindbladian", n=n, n_jumps=2, design="blockwise",
                                   strategy="als_n", sweep=[m_o], sigma=1e-3,
                                   master_seed=seed)
    start = time.perf_counter()
    record = harness.run_experiment(cfg).points[0].records[0]
    seconds = time.perf_counter() - start
    return {"trial_s": seconds, "stage_s": record.stage_s,
            "solve_part_s": getattr(record, "solve_part_s", {}),
            "ru_maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "rlimit_as_mib": limit / 2 ** 20,
            "error": record.error, "iterations": record.iterations,
            "restarts": record.restarts, "message": record.message}


def run_pairs(sides: dict, n: int, m_o: int, seed: int, pairs: int) -> dict:
    """Alternate fresh-process trials of the sides, each given by name as
    (import path, package name), the first named first in even pairs; the
    summary printed by `main`."""
    runs = []
    for i in range(pairs):
        for name in list(sides)[::1 if i % 2 == 0 else -1]:
            path, package = sides[name]
            env = dict(os.environ, PYTHONPATH=path, **dict.fromkeys(_BLAS, "1"))
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--child", package,
                 "--n", str(n), "--m-o", str(m_o), "--seed", str(seed)],
                env=env, capture_output=True, text=True)
            if proc.returncode == 0:
                run = json.loads(proc.stdout)
            else:
                last = proc.stderr.strip().splitlines()[-1:] or [""]
                run = {"message": last[0] or f"exit code {proc.returncode}"}
            runs.append(dict(run, side=name, pair=i, returncode=proc.returncode))
    finished = [r for r in runs if r["returncode"] == 0]

    def side(name):
        mine = [r for r in finished if r["side"] == name]
        return {"trial_s_p50": statistics.median(r["trial_s"] for r in mine) if mine else None,
                "ru_maxrss_mib_max": max((r["ru_maxrss_mib"] for r in mine), default=None),
                "exited_nonzero": sum(r["side"] == name for r in runs) - len(mine)}

    return {"n": n, "m_o": m_o, "seed": seed, "pairs": pairs, "runs": runs,
            **{name: side(name) for name in sides},
            "errors_identical": (len(finished) == len(runs)
                                 and len({repr(r["error"]) for r in runs}) == 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", help="git revision of the base side; without it "
                        "only the checkout runs")
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--m-o", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1, help="master seed")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--child", help=argparse.SUPPRESS)   # package of one run
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.n, args.m_o, args.seed)))
        return 0
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    sides = {"change": (os.path.join(_ROOT, "src"), "superop_sensing")}
    with tempfile.TemporaryDirectory(prefix="large_n_point_") as tmp:
        if args.rev is not None:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            import ab_compare
            ab_compare.export_package(args.rev, tmp)
            sides = {"base": (tmp, ab_compare.BASE_PACKAGE), **sides}
        result = run_pairs(sides, args.n, args.m_o, args.seed, args.pairs)
    print(json.dumps(dict(result, rev=args.rev), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
