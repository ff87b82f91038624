"""Acceptance suite: one test per numbered criterion, one summary line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
and the measured numbers for every criterion. Criterion 6 is implemented
exactly as stated and is expected to fail under this package's pinned
measurement conventions; the test prints the measured slope alongside the
asymptotic slope without the marginal first sweep point.
"""

import time

import numpy as np

from superop_sensing import (ExperimentConfig, SensingDesign, SolverConfig,
                             Superoperator, apply_superop,
                             build_blockwise_design,
                             choi_reshape, complex_gaussian, empirical_rip_probe,
                             haar_low_rank_hermitian, hs_inner, kron,
                             lindblad_canonical, nesterov_als_solve, pauli_basis,
                             random_channel, random_density, random_lindbladian,
                             random_observable, reconstruct_full,
                             relative_frobenius_error, reshape_R, run_experiment,
                             simulate_measurements, solve_first_row_joint,
                             solve_first_row_subset, vec)
from superop_sensing.solvers import StackedDesign, _make_problem, derive_seed


def _report(num, ok, detail=""):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_reshaping_calculus():
    start = time.time()
    worst = 0.0
    for n in (2, 3, 4):
        rng = np.random.default_rng(n)
        for _ in range(100):
            a, b = complex_gaussian(n, n, rng), complex_gaussian(n, n, rng)
            worst = max(worst, abs(hs_inner(a, b) - np.vdot(vec(a), vec(b))))

            m = complex_gaussian(n * n, n * n, rng)
            r = reshape_R(m)
            worst = max(worst, np.linalg.norm(reshape_R(r) - m))
            worst = max(worst, abs(np.linalg.norm(r) - np.linalg.norm(m)))

            worst = max(worst, np.linalg.norm(
                reshape_R(kron(a, b)) - np.outer(vec(b), vec(a))))

            s = Superoperator(n, [complex_gaussian(n, n, rng) for _ in range(2)],
                              [complex_gaussian(n, n, rng)])
            rho, obs = random_density(n, rng), random_observable(n, rng)
            lhs = hs_inner(apply_superop(s, rho), obs)
            rhs = hs_inner(np.kron(rho.conj(), obs), choi_reshape(s).matrix)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    elapsed = time.time() - start
    _report(1, worst <= 1e-12 and elapsed < 5,
            f"(max deviation {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_lindbladian_rank_law():
    start = time.time()
    ok = True
    for n_jumps in (1, 2, 3):
        for seed in range(10):
            lind = random_lindbladian(8, n_jumps, seed=100 * n_jumps + seed)
            k = choi_reshape(lindblad_canonical(lind)).matrix
            evals = np.linalg.eigvalsh(k)
            count = int(np.sum(np.abs(evals) > 1e-8 * np.abs(evals).max()))
            ok = ok and count == n_jumps + 2
    elapsed = time.time() - start
    _report(2, ok and elapsed < 10, f"(rank = N_J + 2 over 30 runs, {elapsed:.1f}s)")


def test_criterion_3_deterministic_reconstruction():
    start = time.time()
    cases = [(n, r) for n in (3, 4, 8) for r in (1, 2, 3)]
    worst = 0.0
    count = 0
    seed = 0
    while count < 20:
        n, r = cases[count % len(cases)]
        r_minus = 0 if r == 1 else 1
        truth = haar_low_rank_hermitian(n, r - r_minus, r_minus, seed=seed)
        blocks = [truth.matrix[:n, k * n:(k + 1) * n] for k in range(n)]
        est = reconstruct_full(blocks, r)
        worst = max(worst, relative_frobenius_error(est, truth))
        count += 1
        seed += 1
    elapsed = time.time() - start
    _report(3, worst <= 1e-10 and elapsed < 30,
            f"(20 instances, worst error {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_4_noiseless_recovery_threshold():
    start = time.time()
    sweep = [32, 64, 128, 256]
    config = ExperimentConfig(
        task="channel", n=4, design="random_pairs", strategy="als_n2",
        source="random", sweep=sweep, kraus_rank=2, sigma=0.0, trials=20,
        master_seed=404)
    result = run_experiment(config)
    rates = [p.aggregates(result.threshold)["recovery_rate"] for p in result.points]
    reached = [m for m, rate in zip(sweep, rates) if rate == 1.0]
    ok = bool(reached) and reached[0] <= 256
    if ok:
        idx = sweep.index(reached[0])
        ok = all(r >= 0.9 for r in rates[idx:])
    elapsed = time.time() - start
    _report(4, ok and elapsed < 180,
            f"(rates {dict(zip(sweep, rates))}, {elapsed:.0f}s)")


def test_criterion_5_benchmark_reproduction():
    start = time.time()
    n, m_o, sigma, trials, master = 8, 50, 1e-4, 10, 2024
    m_pairs = (3 * n - 2) * m_o
    baseline = {"als_n2": 5.86e-4, "als_p": 1.30e-3, "als_n": 9.32e-4,
                "als_i": 1.04e-3}
    base = dict(task="channel", n=n, kraus_rank=3, source="random",
                sigma=sigma, trials=trials, master_seed=master)
    configs = {
        "als_n2": ExperimentConfig(design="random_pairs", strategy="als_n2",
                                   sweep=[m_pairs], solver={"gamma": 1e-6},
                                   **base),
        "als_p": ExperimentConfig(design="blockwise", strategy="als_p",
                                  sweep=[m_o], **base),
        "als_n": ExperimentConfig(design="blockwise", strategy="als_n",
                                  sweep=[m_o], **base),
        "als_i": ExperimentConfig(design="blockwise", strategy="als_i",
                                  sweep=[m_o], subset_ratio=0.4, **base),
    }
    means, times, ratios = {}, {}, {}
    ok = True
    for name, config in configs.items():
        agg = run_experiment(config).points[0].aggregates(1e-5)
        means[name] = agg["mean_error"]
        times[name] = agg["mean_time_s"]
        ratios[name] = means[name] / baseline[name]
        ok = ok and 1 / 3 <= ratios[name] <= 3
    speedup = times["als_n2"] / times["als_i"]
    ok = ok and speedup >= 10
    elapsed = time.time() - start
    detail = ", ".join(f"{k}={means[k]:.2e} ({ratios[k]:.2f}x baseline)"
                       for k in baseline)
    _report(5, ok and elapsed < 300,
            f"({detail}; ALS-I speedup {speedup:.0f}x, {elapsed:.0f}s)")


def test_criterion_6_noisy_scaling_slope():
    start = time.time()
    n, n_jumps, sigma, r = 25, 2, 1e-3, 4
    grid = [120, 200, 320, 480, 640]
    config = ExperimentConfig(
        task="lindbladian", n=n, design="blockwise", strategy="als_n",
        source="random", sweep=grid, n_jumps=n_jumps, sigma=sigma, trials=5,
        master_seed=606)
    result = run_experiment(config)
    means = [p.aggregates(result.threshold)["mean_error"] for p in result.points]
    slope = float(np.polyfit(np.log10(grid), np.log10(means), 1)[0])
    tail_slope = float(np.polyfit(np.log10(grid[1:]), np.log10(means[1:]), 1)[0])
    elapsed = time.time() - start
    ok = -0.9 <= slope <= -0.45
    detail = (f"(slope {slope:.3f} over {grid}, window [-0.9, -0.45]; "
              f"errors {[f'{e:.2e}' for e in means]}; slope without the "
              f"marginal 120 point: {tail_slope:.3f}; {elapsed:.0f}s)")
    _report(6, ok and elapsed < 600, detail)


def _recovery_threshold(n, r, grid, trials=10):
    for m_o in grid:
        hits = 0
        for trial in range(trials):
            s = random_channel(n, r, seed=derive_seed(70, n, r, m_o, trial))
            k = choi_reshape(s).matrix
            design = build_blockwise_design(n, m_o, "random", 0,
                                            derive_seed(71, n, r, m_o, trial))
            data = simulate_measurements(s, design, 0.0,
                                         seed=derive_seed(72, n, r, m_o, trial))
            cfg = SolverConfig(rank=r, seed=derive_seed(73, n, r, m_o, trial))
            try:
                blocks, _ = solve_first_row_subset(design.observables,
                                                   data.values, n, 0.5, cfg)
                err = relative_frobenius_error(
                    reconstruct_full(blocks, r).matrix, k)
            except Exception:
                err = 1.0
            hits += err < 1e-5
        if hits >= 0.8 * trials:
            return m_o
    return None


def test_criterion_7_measurement_count_scaling():
    start = time.time()
    t_n4_r2 = _recovery_threshold(4, 2, (8, 12, 16, 20, 28, 36, 48))
    t_n8_r2 = _recovery_threshold(8, 2, (12, 16, 20, 28, 36, 48, 64, 96))
    t_n8_r4 = _recovery_threshold(8, 4, (16, 20, 28, 36, 48, 64, 96, 128))
    ok = None not in (t_n4_r2, t_n8_r2, t_n8_r4)
    if ok:
        ok = t_n8_r2 <= 3 * t_n4_r2 and t_n8_r4 <= 3 * t_n8_r2
    elapsed = time.time() - start
    _report(7, ok and elapsed < 600,
            f"(M_O*: N=4,r=2 -> {t_n4_r2}; N=8,r=2 -> {t_n8_r2}; "
            f"N=8,r=4 -> {t_n8_r4}; {elapsed:.0f}s)")


def test_criterion_8_solver_invariants():
    start = time.time()
    ok = True

    # plain-ALS loss monotonicity on 50 random problems
    rng = np.random.default_rng(808)
    for case in range(50):
        n = int(rng.integers(3, 5))
        r = int(rng.integers(1, 3))
        s = random_channel(n, min(r + 1, n), seed=800 + case)
        design = build_blockwise_design(n, int(rng.integers(n, 3 * n)),
                                        "random", 0, 900 + case)
        sigma = float(rng.choice([0.0, 1e-4, 1e-2]))
        data = simulate_measurements(s, design, sigma, seed=case)
        stacked = StackedDesign(design.observables, n, n)
        b = np.stack([np.asarray(v) for v in data.values])
        # plain ALS: the momentum loop at beta = 0
        cfg = SolverConfig(rank=r, seed=case, max_iter=25, init="random", beta=0.0)
        trace = np.asarray(nesterov_als_solve(stacked, b, n, n * n, cfg).loss_trace)
        # 1e-12 slack relative to the data energy: noiseless runs bottom out
        # at the roundoff floor ~eps^2 * ||b||^2 where exact ordering of the
        # loss values is meaningless
        slack = 1e-12 * float(np.sum(np.abs(b) ** 2)) / (2 * b.size)
        ok = ok and bool(np.all(trace[1:] <= trace[:-1] * (1 + 1e-12) + slack))

    # restart semantics: replay equals solver output bitwise
    s = random_channel(4, 2, seed=850)
    design = build_blockwise_design(4, 24, "random", 0, 851)
    data = simulate_measurements(s, design, 1e-3, seed=852)
    stacked = StackedDesign(design.observables, 4, 4)
    b = np.stack([np.asarray(v) for v in data.values])
    cfg = SolverConfig(rank=2, seed=853, max_iter=25, eta=1 + 1e-12,
                       init="random")
    rep = nesterov_als_solve(stacked, b, 4, 16, cfg)
    prob = _make_problem(stacked, b, 4, 16)
    rng2 = np.random.default_rng(cfg.seed)
    u_prev = complex_gaussian(4, 2, rng2)
    v_prev = complex_gaussian(16, 2, rng2)
    v_curr = prob.solve_right(u_prev)
    u_curr = prob.solve_left(v_curr)
    f_curr = prob.loss(u_curr, v_curr)
    best = (u_curr, v_curr, f_curr)
    x_curr = u_curr @ v_curr.conj().T
    restarts_seen = 0
    for _ in range(1, cfg.max_iter):
        u_ext = u_curr + cfg.beta * (u_curr - u_prev)
        v_ext = v_curr + cfg.beta * (v_curr - v_prev)
        v_new = prob.solve_right(u_ext)
        u_new = prob.solve_left(v_new)
        f_new = prob.loss(u_new, v_new)
        if f_new >= cfg.eta * f_curr:
            restarts_seen += 1
            v_new = prob.solve_right(u_curr)
            u_new = prob.solve_left(v_new)
            f_new = prob.loss(u_new, v_new)
        if f_new < best[2]:
            best = (u_new, v_new, f_new)
        x_new = u_new @ v_new.conj().T
        done = np.linalg.norm(x_new - x_curr) <= cfg.gamma * np.linalg.norm(x_curr)
        u_prev, v_prev = u_curr, v_curr
        u_curr, v_curr, f_curr, x_curr = u_new, v_new, f_new, x_new
        if done:
            break
    ok = ok and rep.restarts == restarts_seen and restarts_seen > 0
    ok = ok and np.array_equal(rep.factors.left, best[0])
    ok = ok and np.array_equal(rep.factors.right, best[1])

    # scale invariance under common (A, b) scaling, c a power of two
    c = 2.0
    scaled = StackedDesign([c * o for o in design.observables], 4, 4)
    for beta in (0.0, 1.0):
        cfg2 = SolverConfig(rank=2, seed=854, max_iter=20, beta=beta)
        r1 = nesterov_als_solve(stacked, b, 4, 16, cfg2)
        r2 = nesterov_als_solve(scaled, c * b, 4, 16, cfg2)
        ok = ok and np.array_equal(r1.factors.product(), r2.factors.product())

    # subset solver at ratio 1 reproduces the joint solver
    cfg3 = SolverConfig(rank=2, seed=855)
    joint, _ = solve_first_row_joint(design.observables, data.values, 4, cfg3)
    subset, _ = solve_first_row_subset(design.observables, data.values, 4, 1.0,
                                       cfg3)
    ok = ok and all(np.array_equal(a, bb) for a, bb in zip(joint, subset))

    elapsed = time.time() - start
    _report(8, ok and elapsed < 120,
            f"(monotonicity, restart replay ({restarts_seen} restarts), "
            f"scale invariance, subset==joint; {elapsed:.0f}s)")


def test_criterion_9_rip_probe_sanity():
    start = time.time()
    # complete scaled-Pauli single-block design: a Parseval frame
    n = 4
    design = SensingDesign("blockwise", n, observables=pauli_basis(2))
    probe = empirical_rip_probe(design, r=2, n_samples=300, seed=0)
    m = n * n
    ok = abs(probe.delta) <= 1e-12 and abs(probe.c - 1 / m) <= 1e-12

    # sampled delta non-increasing in M on average (majority vote over 10)
    grid = [8, 16, 32, 64]
    votes = np.zeros(len(grid) - 1, dtype=int)
    for rep in range(10):
        deltas = []
        for m_o in grid:
            d = build_blockwise_design(n, m_o, "random", 0,
                                       derive_seed(909, rep, m_o))
            deltas.append(empirical_rip_probe(d, 2, 300,
                                              derive_seed(910, rep)).delta)
        for i in range(len(grid) - 1):
            votes[i] += deltas[i + 1] <= deltas[i]
    ok = ok and bool(np.all(votes >= 6))
    elapsed = time.time() - start
    _report(9, ok and elapsed < 120,
            f"(Parseval delta {probe.delta:.1e}, c - 1/M = "
            f"{probe.c - 1 / m:.1e}; votes {votes.tolist()}/10; {elapsed:.0f}s)")


def test_criterion_10_out_of_scope_documented():
    # nothing runnable: N = 64 benchmark rows (hours + memory), diamond-norm
    # comparisons (external SDP solver), and asymptotic error-bound constants
    # are covered by the property-based criteria above
    _report(10, True, "(documented exclusions; no desk-scale run)")
