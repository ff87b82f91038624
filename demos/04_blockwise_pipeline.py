"""The blockwise pipeline: probe one block row, then complete the matrix.

Sharing one observable list across synthesized initial states turns each
data vector into measurements of a single N x N block of the reshaped
matrix. Three strategies estimate the first block row (independent blocks,
one joint factorization, or a joint solve on a subset with least-squares
fill), and a deterministic SVD/pseudo-inverse step then rebuilds all N^2
blocks from that one row. Note the difference in time against the full
N^2 x N^2 solve of demo 03 at equal measurement budgets.
"""

import time

import numpy as np

from superop_sensing import (SolverConfig, build_blockwise_design,
                             build_random_design, choi_reshape,
                             nesterov_als_solve, random_lindbladian,
                             reconstruct_full, relative_frobenius_error,
                             simulate_measurements, solve_first_row_joint,
                             solve_first_row_parallel, solve_first_row_subset)
from superop_sensing.models import lindblad_canonical

n, n_jumps, sigma = 8, 1, 1e-4
rank = n_jumps + 2
lind = random_lindbladian(n, n_jumps, seed=5)
truth_op = lindblad_canonical(lind)
truth = choi_reshape(truth_op).matrix
m_o = 50

design = build_blockwise_design(n, m_o, "random", 0, seed=6)
data = simulate_measurements(truth_op, design, sigma, seed=7)
cfg = SolverConfig(rank=rank, seed=8)
print(f"Lindbladian N={n}, N_J={n_jumps} (rank {rank}), M_O={m_o}, "
      f"sigma={sigma:.0e}; total measurements M=(3N-2)M_O={(3 * n - 2) * m_o}")

for label, run in [
    ("parallel blocks ", lambda: solve_first_row_parallel(
        design.observables, data.values, n, cfg)),
    ("joint row       ", lambda: solve_first_row_joint(
        design.observables, data.values, n, cfg)),
    ("subset 0.4 + fill", lambda: solve_first_row_subset(
        design.observables, data.values, n, 0.4, cfg)),
]:
    t0 = time.perf_counter()
    row, _ = run()
    est = reconstruct_full(row, rank)
    dt = time.perf_counter() - t0
    err = relative_frobenius_error(est, truth)
    print(f"  {label}: error={err:.2e}  time={dt:.3f}s")

print("\nfull-matrix solve on random pairs at the same budget, for contrast:")
pair_design = build_random_design(n, (3 * n - 2) * m_o, "random", seed=9)
pair_data = simulate_measurements(truth_op, pair_design, sigma, seed=10)
t0 = time.perf_counter()
report = nesterov_als_solve(pair_design, pair_data.values, n * n, n * n,
                            SolverConfig(rank=rank, seed=8, gamma=1e-6))
dt = time.perf_counter() - t0
err = relative_frobenius_error(report.factors.product(), truth)
print(f"  full N^2 solve   : error={err:.2e}  time={dt:.3f}s")
