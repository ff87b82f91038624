"""Command-line entry points.

Subcommands: generate (ground truth to disk), measure (design + data), solve
(strategy on stored data), reconstruct (full matrix from stored blocks), run
(full pipeline from a JSON config), rip-probe, report (aggregate stored
results). Every subcommand accepts --seed and --out. `run` writes
results.json, one CSV per sweep point and figure_recipe.json. Exit codes:
0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import harness, serialize
from .errors import NUMERICAL_ERRORS
from .linalg import load_cmx, save_cmx
from .measurements import (DESIGN_KINDS, NOISE_MODES, SOURCES, build_design,
                           empirical_rip_probe, simulate_measurements)
from .models import TASKS, ground_truth
from .reconstruction import reconstruct_full
from .solvers import STRATEGY_DESIGNS, SolverConfig, solve_strategy

_CONFIG_ERRORS = (ValueError, KeyError, FileNotFoundError, json.JSONDecodeError)


def _common(parser):
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="superop-sensing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a ground-truth superoperator")
    p.add_argument("--task", choices=TASKS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kraus-rank", type=int, default=2)
    p.add_argument("--n-jumps", type=int, default=1)
    p.add_argument("--r-plus", type=int, default=2)
    p.add_argument("--r-minus", type=int, default=1)
    _common(p)

    p = sub.add_parser("measure", help="build a design and simulate data")
    p.add_argument("--truth", required=True, help="directory from `generate`")
    p.add_argument("--design", choices=DESIGN_KINDS, required=True)
    p.add_argument("--source", choices=SOURCES, default="random")
    p.add_argument("--m", type=int, default=100,
                   help="pair count (random_pairs) or observable count (blockwise)")
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--noise-mode", choices=NOISE_MODES, default="synthetic")
    p.add_argument("--row-index", type=int, default=0)
    _common(p)

    p = sub.add_parser("solve", help="run a recovery strategy on stored data")
    p.add_argument("--data", required=True, help="directory from `measure`")
    p.add_argument("--strategy", choices=list(STRATEGY_DESIGNS), required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--subset-ratio", type=float, default=0.5)
    p.add_argument("--max-iter", type=int, default=300)
    p.add_argument("--gamma", type=float, default=1e-8)
    p.add_argument("--eta", type=float, default=1.2)
    p.add_argument("--beta", type=float, default=1.0,
                   help="momentum; 0 runs plain ALS")
    _common(p)

    p = sub.add_parser("reconstruct", help="complete the matrix from stored blocks")
    p.add_argument("--blocks", required=True,
                   help="CMX1 file holding the anchor row blocks side by side")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--rtol", type=float, default=None)
    p.add_argument("--anchor", type=int, default=0)
    p.add_argument("--hermitize", action="store_true")
    _common(p)

    p = sub.add_parser("run", help="full pipeline from a JSON config")
    p.add_argument("--config", required=True)
    _common(p)

    p = sub.add_parser("rip-probe", help="sampled frame bounds of a design")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--design", choices=DESIGN_KINDS, required=True)
    p.add_argument("--source", choices=SOURCES, default="random")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--row-index", type=int, default=0)
    _common(p)

    p = sub.add_parser("report", help="aggregate stored results")
    p.add_argument("--inputs", nargs="+", required=True,
                   help="results.json files or directories containing them")
    _common(p)
    return parser


def cmd_generate(args) -> int:
    extra = {"task": args.task, "seed": args.seed}
    if args.task == "lindbladian":
        extra["n_jumps"] = args.n_jumps
    s, reshaped = ground_truth(args.task, args.n, args.seed, args.kraus_rank,
                               args.n_jumps, args.r_plus, args.r_minus)
    serialize.save_superoperator(args.out, s, extra)
    save_cmx(os.path.join(args.out, "reshaped.cmx"), reshaped)
    print(f"wrote superoperator (n={s.dim_n}, r_+={len(s.plus_ops)}, "
          f"r_-={len(s.minus_ops)}) to {args.out}")
    return 0


def cmd_measure(args) -> int:
    s = serialize.load_superoperator(args.truth)
    design = build_design(args.design, s.dim_n, args.m, args.source, args.seed,
                          args.row_index)
    data = simulate_measurements(s, design, args.sigma, args.noise_mode, args.seed)
    serialize.save_design(args.out, design, seed=args.seed)
    serialize.save_measurements(args.out, data)
    print(f"wrote design + measurements ({design.ref()}, sigma={args.sigma}) to {args.out}")
    return 0


def cmd_solve(args) -> int:
    design = serialize.load_design(args.data)
    data = serialize.load_measurements(args.data)
    cfg = SolverConfig(rank=args.rank, max_iter=args.max_iter, gamma=args.gamma,
                       eta=args.eta, beta=args.beta, seed=args.seed)
    estimate, reports = solve_strategy(args.strategy, design, data.values, cfg,
                                       args.subset_ratio)
    os.makedirs(args.out, exist_ok=True)
    name = "estimate.cmx" if args.strategy == "als_n2" else "blocks.cmx"
    save_cmx(os.path.join(args.out, name), estimate)
    if len(reports) == 1:   # als_p's per-block factors are only in blocks.cmx
        save_cmx(os.path.join(args.out, "left.cmx"), reports[0].factors.left)
        save_cmx(os.path.join(args.out, "right.cmx"), reports[0].factors.right)
    serialize.save_json(os.path.join(args.out, "report.json"), {
        "strategy": args.strategy,
        "rank": args.rank,
        "final_loss": sum(r.final_loss for r in reports),
        "iterations": sum(r.iterations for r in reports),
        "restarts": sum(r.restarts for r in reports),
        "fallbacks": sum(r.fallbacks for r in reports),
        "wall_time_s": sum(r.wall_time for r in reports),
        "loss_trace": (reports[0].loss_trace if len(reports) == 1
                       else [r.loss_trace for r in reports]),
    })
    print(f"solved with {args.strategy}: loss={sum(r.final_loss for r in reports):.3e}, "
          f"iterations={sum(r.iterations for r in reports)}")
    return 0


def cmd_reconstruct(args) -> int:
    resh = reconstruct_full(load_cmx(args.blocks), args.rank, rtol=args.rtol,
                            anchor=args.anchor, hermitize=args.hermitize,
                            svd_seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    save_cmx(os.path.join(args.out, "k_est.cmx"), resh.matrix)
    serialize.save_json(os.path.join(args.out, "reconstruct.json"), {
        "rank": args.rank, "anchor": args.anchor, "hermitize": args.hermitize,
        "dim_n": resh.dim_n,
    })
    side = resh.dim_n ** 2
    print(f"reconstructed {side} x {side} matrix at rank {args.rank}")
    return 0


def cmd_run(args) -> int:
    with open(args.config) as fh:
        config = harness.ExperimentConfig.from_dict(json.load(fh))
    if args.seed_explicit:
        config = replace(config, master_seed=args.seed)
    result = harness.run_experiment(config)
    written = harness.emit_results(result, args.out)
    for point in result.points:
        agg = point.aggregates(config.recovery_threshold)
        err = "n/a" if agg["mean_error"] is None else f"{agg['mean_error']:.3e}"
        print(f"m={point.m}: mean_error={err} recovery={agg['recovery_rate']:.2f} "
              f"mean_time={agg['mean_time_s']:.3f}s")
    print("wrote: " + ", ".join(written))
    return 0


def cmd_rip_probe(args) -> int:
    design = build_design(args.design, args.n, args.m, args.source, args.seed,
                          args.row_index)
    probe = empirical_rip_probe(design, args.rank, args.samples, args.seed)
    payload = {"c0": probe.c0, "c1": probe.c1, "c": probe.c, "delta": probe.delta,
               "design": design.ref(), "rank": args.rank, "samples": args.samples}
    print(json.dumps(payload, sort_keys=True, indent=1))
    if args.out != ".":
        os.makedirs(args.out, exist_ok=True)
        serialize.save_json(os.path.join(args.out, "rip_probe.json"), payload)
    return 0


def cmd_report(args) -> int:
    paths = [os.path.join(item, "results.json") if os.path.isdir(item) else item
             for item in args.inputs]
    combined = []
    for path in paths:
        payload = harness.load_result(path)
        strategy = payload["config"]["strategy"]
        for point in payload["points"]:
            agg = point["aggregates"]
            err = "n/a" if agg["mean_error"] is None else f"{agg['mean_error']:.3e}"
            print(f"{path}: strategy={strategy} m={point['m']} mean_error={err} "
                  f"recovery={agg['recovery_rate']:.2f}")
            combined.append({"path": path, "strategy": strategy, "m": point["m"],
                             "aggregates": agg})
    if args.out != ".":
        os.makedirs(args.out, exist_ok=True)
        serialize.save_json(os.path.join(args.out, "report.json"),
                            {"entries": combined})
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "measure": cmd_measure,
    "solve": cmd_solve,
    "reconstruct": cmd_reconstruct,
    "run": cmd_run,
    "rip-probe": cmd_rip_probe,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.seed_explicit = args.seed is not None
    if args.seed is None:
        args.seed = 0
    try:
        return _COMMANDS[args.command](args)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
