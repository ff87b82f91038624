import tracemalloc
import weakref
from dataclasses import fields, replace
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest

from superop_sensing import (SensingDesign, SolverConfig, build_blockwise_design,
                             build_random_design,
                             choi_reshape, complex_gaussian, nesterov_als_solve,
                             pauli_basis, random_channel, random_observable,
                             sample_pauli, sensing_loss,
                             simulate_measurements, solve_first_row_joint,
                             solve_first_row_parallel, solve_first_row_subset)
from superop_sensing.errors import DimensionError, DivergenceError
from superop_sensing import solvers
from superop_sensing.linalg import cholesky_solve, least_squares
from superop_sensing.measurements import _coord_index, pair_inner_products
from superop_sensing.models import haar_low_rank_hermitian, superop_from_reshaped
from superop_sensing.harness import RUN_OPTIONS, check_run_options
from superop_sensing.solvers import (_PLATEAU_FLOOR, _PLATEAU_PATIENCE, _PLATEAU_RTOL,
                                     _RESTART_FLOOR, _TIE_RTOL, _make_problem, derive_seed,
                                     report_totals, solve_strategy)


def plain_als(design, b, d1, d2, cfg):
    # plain ALS is the momentum loop at beta = 0
    return nesterov_als_solve(design, b, d1, d2, replace(cfg, beta=0.0))


def _channel_case(n, r, seed, m_o=None, sigma=0.0):
    s = random_channel(n, r, seed=seed)
    k = choi_reshape(s).matrix
    design = build_blockwise_design(n, m_o or n * n, "random", 0, seed + 1)
    data = simulate_measurements(s, design, sigma, seed=seed + 2)
    return k, design, data


def naive_loss(design, b, x):
    # direct double-loop evaluation of (1/2M) sum |<A_m, X> - b_m|^2
    if design.kind == "blockwise":
        n = design.dim_n
        total, count = 0.0, 0
        n_blocks = x.shape[1] // n
        b = np.asarray(b).reshape(n_blocks, -1)
        for k in range(n_blocks):
            xk = x[:, k * n:(k + 1) * n]
            for m, obs in enumerate(design.observables):
                val = np.trace(obs.conj().T @ xk)
                total += abs(val - b[k][m]) ** 2
                count += 1
        return total / (2 * count)
    total = 0.0
    for m, (rho, obs) in enumerate(zip(design.states, design.observables)):
        a = np.kron(rho.conj(), obs)
        val = np.trace(a.conj().T @ x)
        total += abs(val - b[m]) ** 2
    return total / (2 * design.n_measurements)


def test_sensing_loss_zero_at_truth():
    k, design, data = _channel_case(4, 2, seed=30)
    block = k[:4, :4]
    assert sensing_loss(design, data.values[0], block) <= 1e-20


def test_sensing_loss_at_zero_matrix():
    k, design, data = _channel_case(4, 2, seed=31)
    b = np.asarray(data.values[0])
    expected = float(np.sum(np.abs(b) ** 2)) / (2 * b.size)
    assert np.isclose(sensing_loss(design, b, np.zeros((4, 4))), expected)


def test_sensing_loss_matches_naive_oracle():
    rng = np.random.default_rng(32)
    k, design, data = _channel_case(3, 2, seed=33, m_o=11)
    b = data.values
    x = complex_gaussian(3, 9, rng)
    assert np.isclose(sensing_loss(design, b, x), naive_loss(design, b, x),
                      rtol=1e-13)
    pair_design = build_random_design(3, 17, "random", seed=34)
    s = random_channel(3, 2, seed=35)
    pair_data = simulate_measurements(s, pair_design, 0.0, seed=36)
    x2 = complex_gaussian(9, 9, rng)
    assert np.isclose(sensing_loss(pair_design, pair_data.values, x2),
                      naive_loss(pair_design, pair_data.values, x2), rtol=1e-13)


def test_als_exact_recovery_complete_basis():
    # rank-1 ground truth, complete orthonormal design, <= 5 sweeps
    truth = haar_low_rank_hermitian(2, 1, 0, seed=40)
    s = superop_from_reshaped(truth)
    design = SensingDesign("blockwise", 2, pauli_basis(1))
    data = simulate_measurements(s, design, 0.0, seed=42)
    cfg = SolverConfig(rank=1, seed=7, max_iter=5)
    rep = plain_als(design, data.values[0], 2, 2, cfg)
    assert np.linalg.norm(rep.factors.product() - truth.matrix[:2, :2]) <= 1e-10
    assert rep.iterations <= 5
    assert rep.stop == "converged"
    rep = plain_als(design, data.values[0], 2, 2, replace(cfg, max_iter=1))
    assert (rep.stop, rep.iterations) == ("max_iter", 1)


def test_als_loss_trace_monotone():
    k, design, data = _channel_case(4, 2, seed=43, m_o=20, sigma=1e-3)
    b = data.values
    cfg = SolverConfig(rank=2, seed=8, max_iter=40, init="random")
    rep = plain_als(design, b, 4, 16, cfg)
    trace = np.asarray(rep.loss_trace)
    assert len(trace) == rep.iterations
    assert rep.restarts == 0
    assert np.all(trace[1:] <= trace[:-1] * (1 + 1e-12))


def test_als_final_loss_consistent_with_sensing_loss():
    k, design, data = _channel_case(4, 2, seed=44, m_o=30, sigma=1e-4)
    b = data.values
    cfg = SolverConfig(rank=2, seed=9, max_iter=60)
    for solver in (plain_als, nesterov_als_solve):
        rep = solver(design, b, 4, 16, cfg)
        direct = sensing_loss(design, b, rep.factors.product())
        assert np.isclose(direct, rep.final_loss, rtol=1e-12, atol=1e-18)


def test_als_final_loss_consistent_with_sensing_loss_pairs():
    # final_loss is read off the left half-sweep's rows and must still be the
    # direct residual of the returned factors
    n, r = 3, 2
    s = random_channel(n, r, seed=95)
    wide = build_random_design(n, 60, "random", seed=96)          # M >= N^2 r = 18
    # 6 pairs, each twice: M = 12 < N^2 r, so every half-sweep takes the
    # least-squares fallback, and the repeats' noise keeps the residual nonzero
    few = build_random_design(n, 6, "random", seed=97)
    repeated = SensingDesign("random_pairs", n, np.concatenate([few.observables] * 2),
                             np.concatenate([few.states] * 2))
    for design, fallback in ((wide, False), (repeated, True)):
        b = simulate_measurements(s, design, 1e-2, seed=98).values
        for solver in (plain_als, nesterov_als_solve):
            rep = solver(design, b, n * n, n * n, SolverConfig(rank=r, seed=22, max_iter=40))
            assert (rep.fallbacks > 0) == fallback
            direct = sensing_loss(design, b, rep.factors.product())
            assert direct > 1e-8 * float(np.sum(b ** 2)) / (2 * b.size)
            assert np.isclose(direct, rep.final_loss, rtol=1e-12, atol=0)


def test_als_rank_deficient_subproblem_min_norm():
    # fewer measurements than unknowns: must not raise
    k, design, data = _channel_case(4, 1, seed=45, m_o=3)
    cfg = SolverConfig(rank=1, seed=10, max_iter=5)
    rep = plain_als(design, data.values[0], 4, 4, cfg)
    assert np.isfinite(rep.final_loss)


def test_als_rank_exceeds_dimensions():
    k, design, data = _channel_case(3, 1, seed=46, m_o=9)
    with pytest.raises(DimensionError):
        plain_als(design, data.values[0], 3, 3, SolverConfig(rank=4, seed=0))


@pytest.mark.parametrize("values_rows, d2", [(3, 8), (3, 6), (2, 9), (3, 0), (1, 9)])
def test_blockwise_dimensions_are_checked_at_the_boundary(values_rows, d2):
    # d2 must be a positive multiple of N and the data hold d2 / N rows of
    # M_O values; a reshape error from numpy was raised before
    design = build_blockwise_design(3, 12, "random", 0, seed=7)
    values = np.ones((3, 12), dtype=complex)[:values_rows]
    with pytest.raises(DimensionError, match="blockwise"):
        nesterov_als_solve(design, values, 3, d2, SolverConfig(rank=1))
    with pytest.raises(DimensionError, match="blockwise"):
        sensing_loss(design, values, np.zeros((3, d2)))
    # the rows that fit, also one row given flat
    assert sensing_loss(design, values, np.zeros((3, 3 * values_rows))) == 0.5
    assert sensing_loss(design, values[0], np.zeros((3, 3))) == 0.5


def test_nesterov_exact_recovery_matches_plain_on_complete_basis():
    truth = haar_low_rank_hermitian(2, 1, 1, seed=47)
    s = superop_from_reshaped(truth)
    design = SensingDesign("blockwise", 2, pauli_basis(1))
    data = simulate_measurements(s, design, 0.0, seed=49)
    b = data.values
    cfg = SolverConfig(rank=2, seed=11)
    for solver in (plain_als, nesterov_als_solve):
        rep = solver(design, b, 2, 4, cfg)
        assert np.linalg.norm(rep.factors.product() - truth.matrix[:2, :])\
            <= 1e-8 * np.linalg.norm(truth.matrix[:2, :])


def _replay(prob, b, cfg, plateau=True):
    """The documented loop written out from a random start: (best,
    iterations, restarts, stop). Without plateau, only the ||dX|| rule and
    max_iter stop it."""
    rng = np.random.default_rng(cfg.seed)
    u_prev = complex_gaussian(prob.d1, cfg.rank, rng)
    v_curr = prob.solve_right(u_prev)
    u_curr = prob.solve_left(v_curr)
    f_curr = prob.loss(u_curr, v_curr)
    best = (u_curr, v_curr, f_curr)
    x_curr = u_curr @ v_curr.conj().T
    b_sq = float(np.vdot(b, b).real)
    floor = _RESTART_FLOOR * b_sq / b.size
    plateau_floor = _PLATEAU_FLOOR * b_sq / b.size
    iterations, restarts, calm, stop = 1, 0, 0, "max_iter"
    for _ in range(1, cfg.max_iter):
        u_ext = u_curr + cfg.beta * (u_curr - u_prev)
        v_new = prob.solve_right(u_ext)
        u_new = prob.solve_left(v_new)
        f_new = prob.loss(u_new, v_new)
        restarted = f_curr > floor and f_new >= cfg.eta * f_curr
        if restarted:
            restarts += 1
            v_new = prob.solve_right(u_curr)
            u_new = prob.solve_left(v_new)
            f_new = prob.loss(u_new, v_new)
        iterations += 1
        if f_new < best[2] * (1 - _TIE_RTOL):
            best = (u_new, v_new, f_new)
        x_new = u_new @ v_new.conj().T
        done = np.linalg.norm(x_new - x_curr) <= cfg.gamma * np.linalg.norm(x_curr)
        if (not restarted and f_curr > plateau_floor
                and 0 <= f_curr - f_new <= _PLATEAU_RTOL * f_new):
            calm += 1
        else:
            calm = 0
        u_prev = u_curr
        u_curr, f_curr, x_curr = u_new, f_new, x_new
        if done:
            stop = "converged"
            break
        if plateau and calm == _PLATEAU_PATIENCE:
            stop = "plateau"
            break
    return best, iterations, restarts, stop


def test_nesterov_restart_semantics_replay():
    # replay the documented loop and require bitwise-equal factors; the
    # solve restarts before it stops on a plateau
    k, design, data = _channel_case(4, 2, seed=50, m_o=24, sigma=1e-3)
    b = data.values
    cfg = SolverConfig(rank=2, seed=11, max_iter=25, eta=1.0 + 1e-12,
                       init="random")
    rep = nesterov_als_solve(design, b, 4, 16, cfg)
    assert rep.restarts > 0  # tiny eta forces the restart branch
    assert rep.stop == "plateau"
    best, iterations, restarts, stop = _replay(_make_problem(design, b, 4, 16), b, cfg)
    assert (rep.iterations, rep.restarts, rep.stop) == (iterations, restarts, stop)
    assert np.array_equal(rep.factors.left, best[0])
    assert np.array_equal(rep.factors.right, best[1])


def test_noiseless_solve_is_the_dx_only_loop():
    # at sigma = 0 the loss falls below the plateau floor, so no plateau
    # stop fires: the solve is bitwise the loop without one
    k, design, data = _channel_case(4, 2, seed=51, m_o=24)
    b = data.values
    cfg = SolverConfig(rank=2, seed=13, max_iter=60, init="random")
    rep = nesterov_als_solve(design, b, 4, 16, cfg)
    assert rep.stop == "converged"
    best, iterations, restarts, stop = _replay(_make_problem(design, b, 4, 16), b, cfg,
                                               plateau=False)
    assert (rep.iterations, rep.restarts, rep.stop) == (iterations, restarts, stop)
    assert np.array_equal(rep.factors.left, best[0])
    assert np.array_equal(rep.factors.right, best[1])


def test_noisy_solve_stops_on_a_plateau_before_the_dx_rule(monkeypatch):
    # two calm sweeps end a noisy solve in fewer sweeps than ||dX|| <= gamma ||X||
    # would, at the same error to 1e-3 relative
    k, design, data = _channel_case(4, 2, seed=60, m_o=24, sigma=1e-3)
    cfg = SolverConfig(rank=2, seed=60)
    row, rep = solve_first_row_joint(design.observables, data.values, 4, cfg)
    monkeypatch.setattr(solvers, "_PLATEAU_PATIENCE", cfg.max_iter + 1)
    dx_row, dx_rep = solve_first_row_joint(design.observables, data.values, 4, cfg)
    assert (rep.stop, dx_rep.stop) == ("plateau", "converged")
    assert _sweeps(rep) < _sweeps(dx_rep)
    error, dx_error = (np.linalg.norm(x - k[:4]) / np.linalg.norm(k[:4])
                       for x in (row, dx_row))
    assert error == pytest.approx(dx_error, rel=1e-3, abs=0)


class _ScriptedProblem:
    """What `_als` reads of a problem, with scripted sweep losses: sweep k
    returns the k-th loss and factors filled with k, so ||dX|| never falls
    to gamma, and the final loss of a pair is that of its sweep."""

    def __init__(self, losses):
        self.d1 = self.d2 = 2
        self.b_sq, self.m_total = 1.0, 1        # the plateau gate is 1e6 eps
        self.fallbacks, self.part_s = 0, dict.fromkeys(solvers._PARTS, 0.0)
        self.losses, self.sweeps = losses, 0

    def sweep(self, u):
        self.sweeps += 1
        factor = np.full((2, 1), float(self.sweeps))
        return factor, factor, self.losses[self.sweeps - 1]

    def final_loss(self, u, v):
        return self.losses[int(u[0, 0]) - 1]


@pytest.mark.parametrize("losses, outcome", [
    ([1.0] * 6, (3, 0, "plateau")),                      # two calm sweeps in a row
    ([(1 - _PLATEAU_RTOL / 2) ** k for k in range(6)], (3, 0, "plateau")),
    ([(1 - 2 * _PLATEAU_RTOL) ** k for k in range(6)], (6, 0, "max_iter")),  # falls by > tau
    ([1.0 + 1e-9 * k for k in range(6)], (6, 0, "max_iter")),        # a rise is not calm
    ([1e-11] * 6, (6, 0, "max_iter")),                    # below the gate
    # the restarted third step is not calm, so the stop comes two sweeps later
    ([1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0], (5, 1, "plateau"))])
def test_plateau_rule_on_scripted_losses(losses, outcome):
    rep = solvers._als(_ScriptedProblem(losses),
                       SolverConfig(rank=1, max_iter=6, init="random"))
    assert (rep.iterations, rep.restarts, rep.stop) == outcome


@pytest.mark.parametrize("second, best", [(1 - 2 ** -52, 1), (1 - 2 ** -49, 2)])
def test_best_iterate_needs_a_fall_beyond_the_tie_tolerance(second, best):
    # a sweep within 4 eps of the best loss does not replace it
    rep = solvers._als(_ScriptedProblem([1.0, second, second]),
                       SolverConfig(rank=1, max_iter=3, init="random"))
    assert rep.factors.left[0, 0] == best
    assert rep.final_loss == [1.0, second][best - 1]


@pytest.mark.parametrize("stops, total", [
    (["converged", "converged"], "converged"), (["converged", "plateau"], "plateau"),
    (["plateau", "max_iter"], "max_iter"), (["max_iter", "converged"], "max_iter")])
def test_report_totals_stop_precedence(stops, total):
    # "max_iter" if any solve ran out, else "plateau" if any plateaued
    reports = [SimpleNamespace(iterations=1, restarts=0, fallbacks=0, wall_time=0.0,
                               part_s=dict.fromkeys(solvers._PARTS, 0.0), final_loss=1.0,
                               stop=stop) for stop in stops]
    assert report_totals(reports)["stop"] == total


def _sweeps(rep):
    # a restart re-runs the step's sweep, so it costs one sweep too
    return rep.iterations + rep.restarts


def test_nesterov_not_slower_than_plain_on_average():
    # full-matrix sensing from random pairs, where acceleration matters
    n, r = 4, 2
    plain_iters, acc_iters = [], []
    acc_sweeps = beta_one_sweeps = 0
    for seed in range(6):
        s = random_channel(n, r, seed=200 + seed)
        k = choi_reshape(s).matrix
        design = build_random_design(n, 200, "random", seed=300 + seed)
        data = simulate_measurements(s, design, 0.0, seed=400 + seed)
        cfg = SolverConfig(rank=r, seed=seed, max_iter=400)
        rp = plain_als(design, data.values, 16, 16, cfg)
        ra = nesterov_als_solve(design, data.values, 16, 16, cfg)
        for rep in (rp, ra):
            err = np.linalg.norm(rep.factors.product() - k) / np.linalg.norm(k)
            assert err <= 1e-5
        plain_iters.append(rp.iterations)
        acc_iters.append(ra.iterations)
        acc_sweeps += _sweeps(ra)
        beta_one_sweeps += _sweeps(nesterov_als_solve(design, data.values, 16, 16,
                                                      replace(cfg, beta=1.0)))
    assert np.median(acc_iters) <= np.median(plain_iters)
    # the default beta was chosen to cut the sweeps beta = 1 overshoots into;
    # strict, so a default moved back to 1 fails here
    assert acc_sweeps < beta_one_sweeps


def test_default_momentum_fewer_sweeps_than_beta_one_blockwise():
    _, design, data = _channel_case(4, 2, seed=56, m_o=16, sigma=1e-4)
    cfg = SolverConfig(rank=2, seed=57)
    rep = nesterov_als_solve(design, data.values, 4, 16, cfg)
    assert _sweeps(rep) < _sweeps(nesterov_als_solve(design, data.values, 4, 16,
                                                      replace(cfg, beta=1.0)))


def test_no_restart_decided_on_roundoff():
    # criterion 4's noiseless M = 32 point: 32 pairs for 32 unknowns, so
    # the first sweep fits the data exactly and later losses are roundoff
    # (~1e-29). Permuting the pairs changes only that roundoff, so it must
    # not change whether a restart fires.
    n, r, m = 4, 2, 32
    rng = np.random.default_rng(58)
    for trial in range(20):
        seed = lambda role: derive_seed(404, role, 0, trial)  # noqa: E731
        s = random_channel(n, r, seed=seed(0))
        design = build_random_design(n, m, "random", seed=seed(1))
        b = simulate_measurements(s, design, 0.0, seed=seed(2)).values
        perm = rng.permutation(m)
        permuted = SensingDesign("random_pairs", n, design.observables[perm],
                                 design.states[perm])
        cfg = SolverConfig(rank=r, seed=seed(3))
        rep = nesterov_als_solve(design, b, n * n, n * n, cfg)
        rep_perm = nesterov_als_solve(permuted, b[perm], n * n, n * n, cfg)
        assert rep.restarts == rep_perm.restarts


def test_scale_invariance_of_iterates():
    # common scaling of design and data leaves products unchanged bitwise
    k, design, data = _channel_case(4, 2, seed=70, m_o=30, sigma=1e-4)
    c = 2.0  # power of two: exact in floating point
    b = data.values
    scaled = SensingDesign("blockwise", 4, c * design.observables)
    for solver in (plain_als, nesterov_als_solve):
        cfg = SolverConfig(rank=2, seed=13, max_iter=30)
        rep1 = solver(design, b, 4, 16, cfg)
        rep2 = solver(scaled, c * b, 4, 16, cfg)
        assert np.array_equal(rep1.factors.product(), rep2.factors.product())
        assert rep1.iterations == rep2.iterations


@pytest.mark.parametrize("m", [100, 24])
def test_pair_scale_invariance_of_iterates(m):
    # pair observables and data doubled leave the product unchanged bitwise;
    # M = 24 < N^2 r = 32 sends every half-sweep to least squares
    n, r = 4, 2
    s = random_channel(n, r, seed=80)
    design = build_random_design(n, m, "random", seed=81)
    b = simulate_measurements(s, design, 1e-4, seed=82).values
    scaled = SensingDesign("random_pairs", n, 2.0 * design.observables, design.states)
    for solver in (plain_als, nesterov_als_solve):
        cfg = SolverConfig(rank=r, seed=83, max_iter=30)
        rep1 = solver(design, b, n * n, n * n, cfg)
        rep2 = solver(scaled, 2.0 * b, n * n, n * n, cfg)
        assert np.array_equal(rep1.factors.product(), rep2.factors.product())
        assert (rep1.iterations, rep1.restarts) == (rep2.iterations, rep2.restarts)
        expected = 2 * (rep1.iterations + rep1.restarts) if m < n * n * r else 0
        assert rep1.fallbacks == rep2.fallbacks == expected


def test_first_row_parallel_exact_on_complete_basis():
    n, r = 4, 2
    s = random_channel(n, r, seed=71)
    k = choi_reshape(s).matrix
    design = SensingDesign("blockwise", n, pauli_basis(2))
    data = simulate_measurements(s, design, 0.0, seed=73)
    cfg = SolverConfig(rank=r, seed=14)
    row, reports = solve_first_row_parallel(design.observables, data.values, n, cfg)
    assert row.shape == (n, n * n)
    assert np.linalg.norm(row - k[:n, :]) <= 1e-8 * np.linalg.norm(k[:n, :])
    assert len(reports) == n


def test_first_row_parallel_equals_per_block_winners():
    # each block is the lowest-loss of its three seeded solves, bitwise
    n, r = 4, 2
    s = random_channel(n, r, seed=74)
    design = build_blockwise_design(n, 20, "random", 0, seed=75)
    data = simulate_measurements(s, design, 1e-4, seed=76)
    cfg = SolverConfig(rank=r, seed=15)
    row, reports = solve_first_row_parallel(design.observables, data.values, n, cfg)
    for k in range(n):
        tries = [nesterov_als_solve(design, data.values[k], n, n,
                                    replace(cfg, seed=derive_seed(cfg.seed, 1, k, attempt),
                                            init="spectral" if attempt == 0 else "random"))
                 for attempt in range(3)]
        best = min(tries, key=lambda rep: rep.final_loss)
        assert np.array_equal(row[:, k * n:(k + 1) * n], best.factors.product())
        assert reports[k].final_loss == best.final_loss
        assert reports[k].loss_trace == best.loss_trace
        # the block's counts cover all three solves, not only the winner's
        for name in ("iterations", "restarts", "fallbacks"):
            assert getattr(reports[k], name) == sum(getattr(rep, name) for rep in tries)
        assert reports[k].iterations > best.iterations


def test_first_row_joint_exact_and_rank():
    n, r = 4, 2
    s = random_channel(n, r, seed=77)
    k = choi_reshape(s).matrix
    design = SensingDesign("blockwise", n, pauli_basis(2))
    data = simulate_measurements(s, design, 0.0, seed=79)
    cfg = SolverConfig(rank=r, seed=16)
    row, report = solve_first_row_joint(design.observables, data.values, n, cfg)
    assert np.linalg.norm(row - k[:n, :]) <= 1e-8 * np.linalg.norm(k[:n, :])
    assert np.linalg.matrix_rank(row, tol=1e-8 * np.linalg.norm(row)) == r


def test_first_row_subset_ratio_one_equals_joint():
    n, r = 4, 2
    s = random_channel(n, r, seed=80)
    design = build_blockwise_design(n, 25, "random", 0, seed=81)
    data = simulate_measurements(s, design, 1e-4, seed=82)
    cfg = SolverConfig(rank=r, seed=17)
    joint, _ = solve_first_row_joint(design.observables, data.values, n, cfg)
    subset, _ = solve_first_row_subset(design.observables, data.values, n, 1.0, cfg)
    assert np.array_equal(joint, subset)


def test_first_row_subset_fills_missing_blocks():
    n, r = 4, 2
    s = random_channel(n, r, seed=83)
    k = choi_reshape(s).matrix
    design = SensingDesign("blockwise", n, pauli_basis(2))
    data = simulate_measurements(s, design, 0.0, seed=85)
    cfg = SolverConfig(rank=r, seed=18)
    row, _ = solve_first_row_subset(design.observables, data.values, n, 0.5, cfg)
    assert np.linalg.norm(row - k[:n, :]) <= 1e-8 * np.linalg.norm(k[:n, :])


def test_subset_ratio_validation():
    with pytest.raises(DimensionError):
        solve_first_row_subset(np.eye(2)[None], np.zeros((2, 1)), 2, 0.0,
                               SolverConfig(rank=1, seed=0))


@pytest.mark.parametrize("ratio", [True, "0.5", 0.0, 1.5, float("nan"), None])
def test_subset_ratio_must_be_a_real_in_the_unit_interval(ratio):
    # the one field rule of the config's subset_ratio: a bool is not a real
    # (True was taken as 1), nor is a string, and both sides of (0, 1] hold
    _, design, data = _channel_case(3, 1, seed=86, m_o=9)
    cfg = SolverConfig(rank=1, seed=19, max_iter=3)
    with pytest.raises(DimensionError, match="subset_ratio"):
        solve_first_row_subset(design.observables, data.values, 3, ratio, cfg)
    with pytest.raises(DimensionError, match="subset_ratio"):
        solve_strategy("als_i", design, data.values, cfg, subset_ratio=ratio)


@pytest.mark.parametrize("n", [2, 4])
def test_first_row_solvers_need_one_block_per_row_of_n(n):
    # an anchor row of an N = 3 design has 3 blocks: n != N is rejected,
    # where a 2-block row would be solved and then refused by completion
    _, design, _ = _channel_case(3, 1, seed=86, m_o=9)
    values = complex_gaussian(n, 9, seed=87)
    cfg = SolverConfig(rank=1, seed=19, max_iter=3)
    for solve, extra in ((solve_first_row_parallel, ()), (solve_first_row_joint, ()),
                         (solve_first_row_subset, (0.5,))):
        with pytest.raises(DimensionError, match="blocks"):
            solve(design.observables, values, n, *extra, cfg)


@pytest.mark.parametrize("observables", [np.float64(1.0), np.ones((3, 3))])
def test_first_row_solvers_need_a_stack_of_observables(observables):
    # observables that are not an (M_O, N, N) stack raise DimensionError,
    # not IndexError, whatever their number of dimensions
    values = complex_gaussian(3, 9, seed=88)
    cfg = SolverConfig(rank=1, seed=19, max_iter=3)
    for solve, extra in ((solve_first_row_parallel, ()), (solve_first_row_joint, ()),
                         (solve_first_row_subset, (0.5,))):
        with pytest.raises(DimensionError, match="observables"):
            solve(observables, values, 3, *extra, cfg)


def test_subset_report_counts_the_fill():
    # als_i's report adds the fill's right half-sweep to the subset solve's
    # parts and wall time, so the solve parts account for every half-sweep
    _, design, data = _channel_case(4, 2, seed=152, m_o=20, sigma=1e-3)
    run = solvers.set_up_strategy("als_i", design, data.values,
                                  SolverConfig(rank=2, seed=25, max_iter=10), 0.5)
    held = dict(zip(run.__code__.co_freevars, (c.cell_contents for c in run.__closure__)))
    prob, fill = held["prob"], held["fill"]
    _, (report,) = run()
    assert fill.part_s["right"] > 0
    assert report.part_s == {name: prob.part_s[name] + fill.part_s[name]
                             for name in prob.part_s}
    assert report.wall_time >= sum(report.part_s.values())


def test_solve_strategy_checks_design_kind():
    k, design, data = _channel_case(3, 1, seed=86, m_o=9)
    cfg = SolverConfig(rank=1, seed=19)
    with pytest.raises(DimensionError):
        solve_strategy("als_n2", design, data.values, cfg)
    with pytest.raises(DimensionError):
        solve_strategy("magic", design, data.values, cfg)
    row, reports = solve_strategy("als_p", design, data.values, cfg)
    assert row.shape == (3, 9) and len(reports) == 3
    row, reports = solve_strategy("als_n", design, data.values, cfg)
    assert row.shape == (3, 9) and len(reports) == 1


def test_each_solve_checks_its_design_once(monkeypatch):
    # the finiteness and Hermitian checks run when a design is built; a
    # strategy run on a built design adds none, and each public first-row
    # solver, which builds one from its observables, runs them once
    k, design, data = _channel_case(3, 1, seed=86, m_o=9)
    cfg = SolverConfig(rank=1, seed=19, max_iter=3)
    checks = []
    init = SensingDesign.__init__
    monkeypatch.setattr(SensingDesign, "__init__", lambda self, *args, **kwargs:
                        checks.append(self) or init(self, *args, **kwargs))
    for strategy in ("als_p", "als_n", "als_i"):
        solve_strategy(strategy, design, data.values, cfg, 0.5)
        assert checks == []
    for solve, extra in ((solve_first_row_parallel, ()), (solve_first_row_joint, ()),
                         (solve_first_row_subset, (0.5,))):
        solve(design.observables, data.values, 3, *extra, cfg)
        assert len(checks) == 1
        checks.clear()


@pytest.mark.parametrize("run, name, value", [
    ("random_pairs", "row_index", 2), ("random_pairs", "noise_mode", "physical"),
    ("als_n2", "hermitize", True), ("als_n2", "row_index", 1),
    ("als_n", "subset_ratio", 0.5), ("als_p", "subset_ratio", 0.9),
    ("blockwise", "subset_ratio", 0.5)])
def test_check_run_options_rejects_options_the_run_never_reads(run, name, value):
    with pytest.raises(DimensionError, match=name):
        check_run_options(run, **{name: value})
    check_run_options(run, **{name: RUN_OPTIONS[name][1]})   # the default passes
    check_run_options(run, **{name: None})                   # as does none given


@pytest.mark.parametrize("run, name, value", [
    ("blockwise", "row_index", 2), ("blockwise", "noise_mode", "physical"),
    ("als_p", "hermitize", True), ("als_n", "row_index", 1),
    ("als_i", "subset_ratio", 0.5)])
def test_check_run_options_accepts_options_the_run_reads(run, name, value):
    check_run_options(run, **{name: value})


@pytest.mark.parametrize("bad", [
    {"rank": 2.0}, {"rank": True}, {"rank": "2"}, {"max_iter": 0},
    {"max_iter": "5"}, {"max_iter": False}, {"gamma": "1e-8"}, {"eta": None},
    {"beta": True}, {"beta": float("nan")}, {"gamma": 1j},
])
def test_solver_config_rejects_bad_types(bad):
    with pytest.raises(DimensionError):
        SolverConfig(**{"rank": 1, **bad})


def test_solver_config_checks_every_field():
    # object() is no valid value of any field: each must be rejected by a
    # check that names it, so a field added later cannot go unchecked
    for f in fields(SolverConfig):
        with pytest.raises(DimensionError, match=f.name):
            SolverConfig(**{"rank": 1, f.name: object()})
    with pytest.raises(DimensionError, match="seed"):
        SolverConfig(rank=1, seed=-1)


def test_solver_config_accepts_numpy_scalars():
    cfg = SolverConfig(rank=np.int64(2), max_iter=np.int32(3), gamma=np.float64(1e-6))
    assert cfg.rank == 2 and cfg.max_iter == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_make_problem_rejects_non_finite_data(bad):
    k, design, data = _channel_case(3, 1, seed=87, m_o=9)
    values = data.values.copy()
    values[2, 4] = bad
    with pytest.raises(DimensionError):
        _make_problem(design, values, 3, 9)
    with pytest.raises(DimensionError):
        solve_first_row_joint(design.observables, values, 3, SolverConfig(rank=1))
    pair_design = build_random_design(3, 20, "random", seed=88)
    pair_values = np.zeros(20)
    pair_values[5] = bad
    with pytest.raises(DimensionError):
        _make_problem(pair_design, pair_values, 9, 9)


def _lstsq_half_sweeps(design, b, u, v):
    # the M-row least-squares assembly of both blockwise half-sweeps
    obs, n, r = design.observables, design.dim_n, u.shape[1]
    b = np.asarray(b).reshape(-1, design.n_measurements)
    w = np.einsum("mxa,xc->mac", obs.conj(), u)
    y = least_squares(w.reshape(len(obs), -1), b.T)
    z = np.einsum("mxy,kyc->kmxc", obs, v.reshape(len(b), n, r), optimize=True)
    x = least_squares(z.conj().reshape(b.size, -1), b.reshape(-1))
    return y.T.conj().reshape(-1, r), x.reshape(n, r)


@pytest.mark.parametrize("n", [3, 4, 8])
@pytest.mark.parametrize("blocks", [1, 2, 3, 4])
def test_gram_half_sweeps_match_least_squares(n, blocks):
    rng = np.random.default_rng(100 * n + blocks)
    r = 2
    design = build_blockwise_design(n, 2 * n * r + 3, "random", 0, seed=n + blocks)
    b = complex_gaussian(blocks, design.n_measurements, rng)
    u, v = complex_gaussian(n, r, rng), complex_gaussian(n * blocks, r, rng)
    prob = _make_problem(design, b, n, n * blocks)
    right, left = _lstsq_half_sweeps(design, b, u, v)
    for got, want in ((prob.solve_right(u), right), (prob.solve_left(v), left)):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert prob.fallbacks == 0


@pytest.mark.parametrize("n, blocks", [(3, 1), (3, 3), (8, 8)])
def test_left_normal_matrix_reads_only_lower_gram_rows(n, blocks):
    # solve_left, built from G's rows (x, x') with x >= x' only, matches the
    # least-squares solve of its stacked rows
    rng = np.random.default_rng(7 * n + blocks)
    r = 3
    design = build_blockwise_design(n, 2 * n * r + 5, "random", 0, seed=n * blocks)
    b = complex_gaussian(blocks, design.n_measurements, rng)
    v = complex_gaussian(n * blocks, r, rng)
    prob = _make_problem(design, b, n, n * blocks)
    left = prob.solve_left(v)
    want = _lstsq_half_sweeps(design, b, complex_gaussian(n, r, rng), v)[1]
    assert np.linalg.norm(left - want) <= 1e-12 * np.linalg.norm(want)
    assert prob.fallbacks == 0


def test_fallback_when_fewer_observables_than_unknowns():
    # one block with M_O = 6 < N r = 8: both normal matrices are singular
    n, r = 4, 2
    k, design, data = _channel_case(n, r, seed=89, m_o=6, sigma=1e-4)
    b = data.values[:1]
    rng = np.random.default_rng(90)
    u, v = complex_gaussian(n, r, rng), complex_gaussian(n, r, rng)
    prob = _make_problem(design, b, n, n)
    right, left = _lstsq_half_sweeps(design, b, u, v)
    assert np.array_equal(prob.solve_right(u), right)
    assert np.array_equal(prob.solve_left(v), left)
    assert prob.fallbacks == 2
    rep = nesterov_als_solve(design, b, n, n, SolverConfig(rank=r, seed=20, max_iter=5))
    assert rep.fallbacks > 0
    assert rep.fallbacks <= 2 * (rep.iterations + rep.restarts)


def _pair_lstsq_half_sweeps(design, b, u, v):
    # the M-row least-squares solves of both pair half-sweeps, assembled as
    # the solver assembles them
    n, r = design.dim_n, u.shape[1]
    rho, obs = design.states, design.observables
    w = np.einsum("mxa,xyc,myb->mabc", obs.conj(), u.reshape(n, n, r, order="F"),
                  rho, optimize=True)
    y = least_squares(w.transpose(0, 2, 1, 3).reshape(len(obs), -1), b)
    right = y.conj().reshape(n, n, r).transpose(1, 0, 2).reshape(n * n, r, order="F")
    z = np.einsum("mxa,abc,myb->mxyc", obs, v.reshape(n, n, r, order="F"),
                  rho.conj(), optimize=True)
    x = least_squares(z.conj().transpose(0, 2, 1, 3).reshape(len(obs), -1), b)
    left = x.reshape(n, n, r).transpose(1, 0, 2).reshape(n * n, r, order="F")
    return right, left


@pytest.mark.parametrize("n", [3, 4, 8])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_pair_half_sweeps_match_least_squares(n, r):
    rng = np.random.default_rng(10 * n + r)
    design = build_random_design(n, 3 * n * n * r, "random", seed=n + r)
    b = complex_gaussian(design.n_measurements, 1, rng)[:, 0]
    u, v = complex_gaussian(n * n, r, rng), complex_gaussian(n * n, r, rng)
    prob = _make_problem(design, b, n * n, n * n)
    right, left = _pair_lstsq_half_sweeps(design, b, u, v)
    for got, want in ((prob.solve_right(u), right), (prob.solve_left(v), left)):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert prob.fallbacks == 0


def _pair_rows_oracle(design, u, v):
    # both pair half-sweeps' design rows by einsum, in the solver's column
    # layouts: right (a, c, b) for conj(V), left (x, c, y) for U
    n, r = design.dim_n, u.shape[1]
    rho, obs = design.states, design.observables
    w = np.einsum("mxa,xyc,myb->macb", obs.conj(), u.reshape(n, n, r, order="F"),
                  rho, optimize=True)
    z = np.einsum("mxa,abc,myb->mxcy", obs.conj(), v.reshape(n, n, r, order="F").conj(),
                  rho, optimize=True)
    return w.reshape(len(obs), -1), z.reshape(len(obs), -1)


def _pair_flat(factor, n):
    # an N^2 x r factor in the rows' (i, c, j) column layout
    return factor.reshape(n, n, -1, order="F").transpose(0, 2, 1).reshape(-1)


def _pair_factor(flat, n, r):
    # inverse of _pair_flat
    return flat.reshape(n, r, n).transpose(0, 2, 1).reshape(n * n, r, order="F")


# 2 N^2 r = 96 pairs a chunk at N = 4, r = 3: a partial last chunk, a
# one-pair last chunk and one short chunk; 384 at N = 8
@pytest.mark.parametrize("n, m", [(4, 128), (4, 97), (4, 50), (8, 1100)])
def test_pair_right_rows_are_bitwise_the_per_pair_form(n, m):
    # the chunked products over the stacked observables equal, bit for bit,
    # the per-pair forms: conj(O_m^T conj(F)) rho_m for the right rows, as
    # O_m is exactly Hermitian, and conj(O_m F) rho_m^T for the left rows
    r = 3
    design = build_random_design(n, m, "random", seed=n + m)
    u, v = complex_gaussian(n * n, r, seed=n), complex_gaussian(n * n, r, seed=n + 1)
    prob = _make_problem(design, np.zeros(m), n * n, n * n)
    cols_u, cols_v = prob._cols(u), prob._cols(v)
    pairs = list(zip(design.observables, design.states))
    right = np.array([(np.conj(obs.T @ cols_u.conj())).reshape(n * r, n) @ rho
                      for obs, rho in pairs]).reshape(m, -1)
    left = np.array([np.conj(obs @ cols_v).reshape(n * r, n) @ rho.T
                     for obs, rho in pairs]).reshape(m, -1)
    assert prob._rows_right(u).tobytes() == right.tobytes()
    assert prob._rows_left(v).tobytes() == left.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 8])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_pair_rows_match_einsum_oracle(n, r):
    rng = np.random.default_rng(20 * n + r)
    design = build_random_design(n, 2 * n * n * r + 5, "random", seed=30 + n + r)
    u, v = complex_gaussian(n * n, r, rng), complex_gaussian(n * n, r, rng)
    prob = _make_problem(design, np.zeros(design.n_measurements), n * n, n * n)
    right, left = _pair_rows_oracle(design, u, v)
    # the rows are a view of the problem's workspace, overwritten by the next
    # assembly, so the right rows are copied before the left ones are built
    for got, want in ((prob._rows_right(u).copy(), right),
                      (prob._rows_left(v), left)):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    # the oracle's rows applied to the factor they solve for give <A_m, U V^H>
    values = pair_inner_products(design.states, design.observables, u @ v.conj().T)
    for got in (right @ _pair_flat(v.conj(), n), left @ _pair_flat(u, n)):
        assert np.linalg.norm(got - values) <= 1e-13 * np.linalg.norm(values)


def test_pair_fallback_when_fewer_pairs_than_unknowns():
    # M = 12 pairs against N^2 r = 18 unknowns: both normal matrices are singular
    n, r = 3, 2
    design = build_random_design(n, 12, "random", seed=91)
    s = superop_from_reshaped(haar_low_rank_hermitian(n, 1, 1, seed=92))
    b = simulate_measurements(s, design, 1e-4, seed=93).values
    rng = np.random.default_rng(94)
    u, v = complex_gaussian(n * n, r, rng), complex_gaussian(n * n, r, rng)
    prob = _make_problem(design, b, n * n, n * n)
    # least squares on the problem's own rows, mapped to factors by hand
    right = _pair_factor(least_squares(prob._rows_right(u), b).conj(), n, r)
    left = _pair_factor(least_squares(prob._rows_left(v), b), n, r)
    assert np.array_equal(prob.solve_right(u), right)
    assert np.array_equal(prob.solve_left(v), left)
    assert prob.fallbacks == 2
    rep = nesterov_als_solve(design, b, n * n, n * n,
                             SolverConfig(rank=r, seed=21, max_iter=5))
    assert rep.fallbacks == 2 * (rep.iterations + rep.restarts) > 0


def _pair_problem(n, m, seed):
    design = build_random_design(n, m, "random", seed=seed)
    b = complex_gaussian(m, 1, seed + 1)[:, 0]
    return design, b, _make_problem(design, b, n * n, n * n)


def test_pair_sweep_reuses_its_workspace():
    # the workspace is the rows, a 2 k^2 scratch array and the normal matrix,
    # k = N^2 r, whatever M; after the first sweep has allocated it, a sweep
    # allocates less than a quarter of one M x k row matrix
    n, r, m = 4, 2, 600
    k = n * n * r
    _, _, prob = _pair_problem(n, m, 40)
    u = complex_gaussian(n * n, r, seed=42)
    tracemalloc.start()
    try:
        prob.sweep(u)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        prob.sweep(u)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    work = prob._workspace(r)
    assert all(a.dtype == np.complex128 for a in work)
    assert [a.size for a in work] == [m * k, 2 * k * k, k * k]
    assert peak < m * k * 16 / 4


def test_pair_problems_interleaved_equal_fresh():
    # two problems driven in turn return bitwise what each returns alone
    n = 3
    cases = [(_pair_problem(n, 50, 50), complex_gaussian(n * n, 2, seed=70)),
             (_pair_problem(n, 70, 60), complex_gaussian(n * n, 2, seed=71))]

    def steps(prob, u):
        # a sweep and the loss of its result both ways; the last at rank 1
        for rank in (2, 2, 1):
            v, u, loss = prob.sweep(u[:, :rank])
            yield [v, u, loss, prob.loss(u, v), prob.loss_of(u @ v.conj().T)]

    alone = [[x for step in steps(_make_problem(d, b, n * n, n * n), u) for x in step]
             for (d, b, _), u in cases]
    runs = [steps(prob, u) for (_, _, prob), u in cases]
    together = [[], []]
    for _ in range(3):
        for k in (0, 1):
            together[k] += next(runs[k])
    for got, want in zip(together, alone):
        assert len(got) == len(want) == 15
        assert all(np.array_equal(x, y) for x, y in zip(got, want))


def _gram_oracle(design):
    # G[x,y,x',y'] = sum_m O_m[x,y] conj(O_m[x',y']) by the complex product
    n, flat = design.dim_n, design.observables.reshape(design.n_measurements, -1)
    return (flat.T @ flat.conj()).reshape(n, n, n, n)


_GRAM_SIZES = (2, 3, 4, 8, 9, 16)


@pytest.mark.parametrize("design", [
    build_blockwise_design(5, 40, "random", seed=120),
    build_blockwise_design(8, 70, "random", seed=121),
    build_blockwise_design(4, 30, "pauli", seed=122),
    build_blockwise_design(8, 90, "pauli", seed=123),
    build_blockwise_design(16, 60, "pauli", seed=124),
    build_blockwise_design(32, 110, "pauli", seed=125)] + [
    build_blockwise_design(n, n * n + 3, "random", seed=130 + n) for n in _GRAM_SIZES],
    ids=["r5", "r8", "p4", "p8", "p16", "p32"] + [f"n{n}" for n in _GRAM_SIZES])
def test_gram_matches_complex_product(design):
    # G's packed rows (x, x') with x >= x', built from the real coordinates
    # of the Hermitian observables, equal the complex product's rows up to
    # roundoff, and O -> 2 O scales them by exactly 4; the sizes cover every
    # shape of the per-x fill, whose strided views of the rows are written in
    # place, and Pauli observables give S exact zeros, where the terms with
    # s(x,y) = 0 on the diagonal act
    n, m = design.dim_n, design.n_measurements
    x, x_prime, rows = _make_problem(design, np.zeros((2, m)), n, 2 * n)._gram_lower
    assert len(x) == n * (n + 1) // 2 and np.all(x >= x_prime)
    want = _gram_oracle(design)[x, :, x_prime, :].reshape(len(x), n * n)
    assert np.linalg.norm(rows - want) <= 1e-13 * np.linalg.norm(want)
    doubled = SensingDesign("blockwise", n, 2 * design.observables)
    rows2 = _make_problem(doubled, np.zeros((2, m)), n, 2 * n)._gram_lower[2]
    assert np.array_equal(rows2, 4 * rows)


def _gram_rows_oracle(coords, n):
    # the fill of G's packed rows from a separate S = C^T C, x by x, the
    # build the in-buffer one must equal bit for bit
    sign, p, q = _coord_index(n)
    x, _ = np.tril_indices(n)
    s = coords.T @ coords
    rows = np.empty((len(x), n * n), dtype=np.complex128)
    sp, sq = np.empty((n, n * n)), np.empty((n, n * n))
    parts = np.empty((2, n ** 3))
    for i in range(n):
        k = i + 1
        block = rows[i * k // 2:i * k // 2 + k]
        re, im = parts[:, :n * k * n].reshape(2, n, k, n)
        t = block.view(np.float64).reshape(-1)[:n * k * n].reshape(n, k, n)
        sk = sign[:k]
        np.take(s, p[i], axis=0, out=sp, mode="clip")
        np.take(s, q[i], axis=0, out=sq, mode="clip")
        for y in range(n):
            sq[y] *= sign[i, y]
        np.take(sq, q[:k], axis=1, out=re, mode="clip")
        np.take(sp, q[:k], axis=1, out=t, mode="clip")
        for y in range(n):
            re[y] *= sk
            t[y] *= sk
        np.take(sq, p[:k], axis=1, out=im, mode="clip")
        im -= t
        re += np.take(sp, p[:k], axis=1, out=t, mode="clip")
        g = block.reshape(k, n, n).transpose(1, 0, 2)
        np.copyto(g.real, re)
        np.copyto(g.imag, im)
    return rows


_IN_BUFFER_SIZES = (*range(2, 21), 25, 32, 33)


@pytest.mark.parametrize("source, n, m", [
    *(("random", n, m) for n in _IN_BUFFER_SIZES for m in (n, 3 * n + 7)),
    *(("pauli", n, m) for n in (2, 4, 8, 16) for m in (n, 3 * n + 7))])
def test_gram_rows_built_in_their_buffer_are_bitwise_the_fill_over_s(source, n, m):
    # S made in the tail of the rows' buffer and moved into last-read order
    # changes no bit of the rows: every size from 2 to 20 and three larger,
    # M_O below and above N, and Pauli designs with their exact zeros
    design = build_blockwise_design(n, m, source, seed=170 + n + m)
    rows = solvers._BlockStats(design).gram_lower[2]
    assert rows.tobytes() == _gram_rows_oracle(design.coords, n).tobytes()


def test_gram_build_holds_only_the_packed_rows():
    # S = C^T C is made in the rows' own buffer, so at M_O = N^2 the build's
    # peak is the rows (N^3 (N + 1) / 2 complex) and one set of buffers that
    # every x reuses (4 N^3 reals, 0.154 of the rows at N = 25), 1.004 of
    # those; with S apart (N^4 float64) it was 1.84, and a full complex G
    # beside them would add N^4 complex
    n = 25
    design = build_blockwise_design(n, n * n, "random", seed=129)
    prob = _make_problem(design, np.zeros((1, n * n)), n, n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prob._gram_lower
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.01 * (8 * n ** 3 * (n + 1) + 4 * 8 * n ** 3)


@pytest.mark.parametrize("strategy", ["als_n2", "als_p", "als_n", "als_i"])
def test_solve_parts_are_timed(strategy):
    # each report splits its solve into the Gram build (blockwise only), the
    # two half-sweeps and the losses, and report_totals sums the splits
    n = 3
    if strategy == "als_n2":
        design = build_random_design(n, 60, "random", seed=140)
        values = complex_gaussian(60, 1, seed=141)[:, 0]
    else:
        design = build_blockwise_design(n, 20, "random", seed=142)
        values = complex_gaussian(n, 20, seed=143)
    _, reports = solve_strategy(strategy, design, values,
                                SolverConfig(rank=2, seed=1, max_iter=4), 0.5)
    for rep in reports:
        assert tuple(rep.part_s) == ("gram", "right", "left", "loss")
        assert all(t >= 0 for t in rep.part_s.values())
        assert sum(rep.part_s.values()) <= rep.wall_time
        assert (rep.part_s["gram"] > 0) == (strategy != "als_n2")
        assert min(rep.part_s["right"], rep.part_s["left"], rep.part_s["loss"]) > 0
    assert report_totals(reports)["part_s"] == {
        name: sum(rep.part_s[name] for rep in reports) for name in reports[0].part_s}


@pytest.mark.parametrize("n, blocks", [(5, 1), (8, 3)])
def test_sweeps_hold_only_the_packed_gram_rows(n, blocks, monkeypatch):
    # after the first sweep the problem holds no N^4-entry array (M_O < N^2,
    # so not even the design has that many), and the right normal matrix
    # from the packed rows matches the full-G contraction
    # sum_{x,x'} conj(U[x,c]) G[x,a,x',a'] U[x',c'] of the oracle; both
    # half-sweeps solve through the one Cholesky function
    r = 2
    design = build_blockwise_design(n, n * n - 1, "random", 0, seed=126 + n)
    rng = np.random.default_rng(127 + n)
    b = complex_gaussian(blocks, design.n_measurements, rng)
    u = complex_gaussian(n, r, rng)
    normals = []

    def recording(normal, rhs):
        normals.append(normal.copy())
        return cholesky_solve(normal, rhs)

    monkeypatch.setattr(solvers, "cholesky_solve", recording)
    prob = _make_problem(design, b, n, n * blocks)
    prob.sweep(u)
    assert len(normals) == 2
    held = [a for value in vars(prob).values()
            for a in (value if isinstance(value, tuple) else (value,))
            if isinstance(a, np.ndarray)]
    assert max(a.size for a in held) < n ** 4
    assert prob._gram_lower[2].size == n ** 3 * (n + 1) // 2
    want = np.einsum("xc,xayb,yd->acbd", u.conj(), _gram_oracle(design), u).reshape(
        n * r, n * r)
    assert np.linalg.norm(normals[0] - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("blocks", [1, 3])
def test_stacked_loss_matches_batched_formula(blocks):
    # the loss by one real GEMM over the coordinates C against the batched
    # matmul over the conjugated observables
    n, r = 6, 2
    design = build_blockwise_design(n, 40, "random", seed=124)
    rng = np.random.default_rng(125)
    b = complex_gaussian(blocks, design.n_measurements, rng)
    u, v = complex_gaussian(n, r, rng), complex_gaussian(n * blocks, r, rng)
    w = np.matmul(u.conj().T, design.observables).conj().reshape(len(b.T), r * n)
    vt = v.reshape(blocks, n, r).conj().transpose(0, 2, 1).reshape(blocks, r * n)
    want = float(np.sum(np.abs(vt @ w.T - b) ** 2)) / (2 * b.size)
    got = _make_problem(design, b, n, n * blocks).loss(u, v)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("strategy", ["als_p", "als_n", "als_i"])
def test_set_up_holds_no_observable_stack(strategy):
    # after set-up the run holds the design's own C and each problem's B,
    # not the design, and no problem of the run holds a complex (M_O, N, N)
    # array; the run's result is the one-step solve's, bit for bit
    n, m = 4, 20
    _, design, data = _channel_case(n, 2, seed=150, m_o=m, sigma=1e-3)
    cfg = SolverConfig(rank=2, seed=23, max_iter=20)
    want, _ = solve_strategy(strategy, design, data.values, cfg, 0.5)
    coords, kept = design.coords, weakref.ref(design)
    run = solvers.set_up_strategy(strategy, design, data.values, cfg, 0.5)
    del design
    assert kept() is None
    held = [a for cell in run.__closure__ for value in _problems(cell.cell_contents)
            for a in [*vars(value).values(), *vars(value.stats).values()]
            if isinstance(a, np.ndarray)]
    assert any(a is coords for a in held)
    assert not any(np.iscomplexobj(a) and a.size >= m * n * n for a in held)
    got, _ = run()
    assert np.array_equal(got, want)


def _problems(value):
    # the blockwise problems among a closure cell's contents
    values = value if isinstance(value, list) else [value]
    return [v for v in values if isinstance(v, solvers._StackedProblem)]


@pytest.mark.parametrize("strategy", ["als_p", "als_i"])
def test_packed_rows_built_once_per_run(strategy, monkeypatch):
    # every solve of a run reads one set of G's packed rows: als_p's 3 N
    # block solves (12 here) and als_i's subset and fill problems, which
    # built them 12 and 2 times when each problem held its own
    builds = []
    build = solvers._BlockStats.gram_lower.func
    counted = cached_property(lambda stats: builds.append(stats) or build(stats))
    counted.__set_name__(solvers._BlockStats, "gram_lower")
    monkeypatch.setattr(solvers._BlockStats, "gram_lower", counted)
    _, design, data = _channel_case(4, 2, seed=151, m_o=20, sigma=1e-3)
    solve_strategy(strategy, design, data.values, SolverConfig(rank=2, seed=24), 0.5)
    assert len(builds) == 1


@pytest.mark.parametrize("source, n, m", [
    ("random", 2, 3), ("random", 3, 9), ("random", 5, 31), ("random", 8, 70),
    ("random", 16, 20), ("pauli", 2, 9), ("pauli", 4, 30), ("pauli", 8, 50)])
def test_observables_rebuilt_from_the_coordinates(source, n, m):
    # a blockwise design holds C alone and `observables`, like the fallback
    # rows, reads the stack rebuilt from it: equal in every value to the
    # stack drawn from the same generator, and in every bit on random
    # designs, whose two triangles agree in the signs of their zeros (Pauli
    # products can hold -0.0 in one triangle only); the design's statistics
    # share its C
    design = build_blockwise_design(n, m, source, seed=160 + n)
    rng = np.random.default_rng(160 + n)
    drawn = (random_observable(n, rng, m) if source == "random"
             else sample_pauli(n.bit_length() - 1, m, True, rng.integers(2 ** 63)))
    stats = solvers._BlockStats(design)
    assert stats.coords is design.coords
    for rebuilt in (design.observables, stats.observables()):
        assert np.array_equal(rebuilt, drawn)
        if source == "random":
            assert rebuilt.tobytes() == drawn.tobytes()


# the sweep's loss from its left solve agrees with the direct residual of the
# sweep's factors to this many ulps of ||b||^2 / 2M (27 at most over 600
# sweeps of 40 seeded noisy problems, N = 3..8)
_LEFT_LOSS_ULPS = 64


@pytest.mark.parametrize("n, blocks, r, sigma", [(4, 4, 2, 1e-3), (6, 3, 2, 1e-2),
                                                 (5, 1, 1, 1e-4), (8, 8, 3, 1e-3)])
def test_sweep_loss_from_the_left_solve_matches_the_direct_loss(n, blocks, r, sigma):
    # on noisy problems every sweep takes its loss from the left solve; loss
    # of the pair the left solve returned (or a copy of it) gives the sweep's
    # bits, and any other pair the direct loss
    s = random_channel(n, r, seed=160 + n)
    design = build_blockwise_design(n, 4 * n * r, "random", 0, seed=161 + n)
    b = simulate_measurements(s, design, sigma, seed=162 + n).values[:blocks]
    prob = _make_problem(design, b, n, n * blocks)
    ulp = np.spacing(float(np.vdot(b, b).real) / (2 * b.size))
    u = complex_gaussian(n, r, seed=163 + n)
    for _ in range(8):
        v, u, loss = prob.sweep(u)
        assert prob._left_loss is not None
        assert abs(loss - prob.loss_of(u @ v.conj().T)) <= _LEFT_LOSS_ULPS * ulp
        assert prob.loss(u, v) == prob.loss(u.copy(), v.copy()) == loss
        other = u * (1 + 2 ** -20)
        assert prob.loss(other, v) == prob.loss_of(other @ v.conj().T)


def _direct_only(design, b, d1, d2, cfg, monkeypatch):
    # the same solve with every sweep's loss direct
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_LEFT_LOSS_FLOOR", np.inf)
        return nesterov_als_solve(design, b, d1, d2, cfg)


def test_noiseless_losses_below_the_floor_are_direct(monkeypatch):
    # a noiseless solve falls from far above the floor to far below it; every
    # loss of its trace below the floor is the direct one bit for bit, so the
    # decisions, the factors and the final loss are too
    _, design, data = _channel_case(4, 2, seed=164, m_o=16)
    b = data.values
    cfg = SolverConfig(rank=2, seed=26, max_iter=30)
    rep = nesterov_als_solve(design, b, 4, 16, cfg)
    direct = _direct_only(design, b, 4, 16, cfg, monkeypatch)
    floor = solvers._LEFT_LOSS_FLOOR * float(np.vdot(b, b).real) / b.size
    below = [i for i, loss in enumerate(rep.loss_trace) if loss < floor]
    assert 0 < len(below) < len(rep.loss_trace) and rep.restarts > 0
    assert [rep.loss_trace[i] for i in below] == [direct.loss_trace[i] for i in below]
    assert rep.loss_trace != direct.loss_trace
    assert (rep.iterations, rep.restarts) == (direct.iterations, direct.restarts)
    assert np.array_equal(rep.factors.product(), direct.factors.product())
    assert rep.final_loss == direct.final_loss


def test_fallback_sweeps_take_the_direct_loss(monkeypatch):
    # six observables, each measured twice with its own noise: every normal
    # matrix is singular (6 < N r = 8), so every half-sweep falls back to
    # least squares while the residual stays far above the floor; the trace
    # is the direct one bit for bit
    n, r = 4, 2
    few = build_blockwise_design(n, 6, "random", 0, seed=165)
    design = SensingDesign("blockwise", n, np.concatenate([few.observables] * 2))
    b = simulate_measurements(random_channel(n, r, seed=166), design, 1e-2,
                              seed=167).values[:1]
    cfg = SolverConfig(rank=r, seed=27, max_iter=15)
    rep = nesterov_als_solve(design, b, n, n, cfg)
    assert rep.fallbacks == 2 * (rep.iterations + rep.restarts)
    assert min(rep.loss_trace) > solvers._LEFT_LOSS_FLOOR * float(np.vdot(b, b).real) / b.size
    direct = _direct_only(design, b, n, n, cfg, monkeypatch)
    assert rep.loss_trace == direct.loss_trace
    assert np.array_equal(rep.factors.product(), direct.factors.product())


# the pair back end's final loss, the residual of its left rows, agrees with
# sensing_loss of the same factors to this many ulps of ||b||^2 / 2M (0.004
# at most over 40 seeded noisy solves, N = 3, 4, and 1 over 480 sweeps)
_PAIR_LOSS_ULPS = 2


@pytest.mark.parametrize("strategy", ["als_n", "als_i", "als_p", "als_n2"])
def test_final_loss_is_the_direct_residual(strategy):
    # the emitted final loss is sensing_loss of the returned factors on the
    # problem's own data, bit for bit blockwise, whatever the sweeps read; on
    # random pairs the two sum one residual in different orders
    n, r = 5, 2
    if strategy == "als_n2":
        design = build_random_design(3, 200, "random", seed=169)
        values = simulate_measurements(random_channel(3, r, seed=168), design, 1e-3,
                                       seed=170).values
        _, (rep,) = solve_strategy(strategy, design, values, SolverConfig(rank=r, seed=28))
        ulp = np.spacing(float(np.vdot(values, values).real) / (2 * values.size))
        want = sensing_loss(design, values, rep.factors.product())
        assert abs(rep.final_loss - want) <= _PAIR_LOSS_ULPS * ulp
        return
    s = random_channel(n, r, seed=168)
    design = build_blockwise_design(n, 40, "random", 0, seed=169)
    values = simulate_measurements(s, design, 1e-3, seed=170).values
    cfg = SolverConfig(rank=r, seed=28, max_iter=30)
    row, reports = solve_strategy(strategy, design, values, cfg, 0.6)
    if strategy == "als_p":
        for k, rep in enumerate(reports):
            assert rep.final_loss == sensing_loss(design, values[k], rep.factors.product())
        return
    (rep,) = reports
    x = rep.factors.product()
    # the solved blocks, in order: those of the row that the factors' product holds
    chosen = [k for k in range(n) for j in range(x.shape[1] // n)
              if np.allclose(row[:, k * n:(k + 1) * n], x[:, j * n:(j + 1) * n],
                             rtol=1e-12, atol=0)]
    assert len(chosen) == x.shape[1] // n == (n if strategy == "als_n" else 3)
    assert rep.final_loss == sensing_loss(design, values[chosen], x)


def test_noisy_joint_solve_makes_one_direct_loss_pass(monkeypatch):
    # every sweep of a noisy als_n solve reads its loss off the left solve,
    # and the divergence guard reads ||b||^2 / 2M, so the solve's one pass
    # over C is its final loss
    passes = []
    loss_of = solvers._StackedProblem.loss_of
    monkeypatch.setattr(solvers._StackedProblem, "loss_of",
                        lambda prob, x: passes.append(x) or loss_of(prob, x))
    _, design, data = _channel_case(5, 2, seed=171, m_o=40, sigma=1e-3)
    _, (rep,) = solve_strategy("als_n", design, data.values,
                               SolverConfig(rank=2, seed=29, max_iter=30))
    assert rep.iterations > 2 and len(passes) == 1
    assert rep.final_loss == loss_of(_make_problem(design, data.values, 5, 25), passes[0])


def _reporting(monkeypatch, loss):
    # every sweep of either back end reports `loss` as its loss
    sweep = solvers._Problem.sweep
    monkeypatch.setattr(solvers._Problem, "sweep", lambda prob, u: (*sweep(prob, u)[:2], loss))


def _guard_cases():
    # a noisy blockwise and a noisy random-pairs solve: (design, b, d1, d2)
    _, design, data = _channel_case(3, 2, seed=172, m_o=12, sigma=1e-3)
    pairs = build_random_design(3, 120, "random", seed=173)
    values = simulate_measurements(random_channel(3, 2, seed=174), pairs, 1e-3,
                                   seed=175).values
    return [(design, data.values, 3, 9), (pairs, values, 9, 9)]


@pytest.mark.parametrize("case", [0, 1], ids=["blockwise", "pairs"])
def test_divergence_guard_reads_the_zero_estimate_loss(case, monkeypatch):
    # ||b||^2 / 2M is the loss of X = 0, and no sweep of a solve exceeds it;
    # a sweep loss that is NaN or above 10^6 times it raises DivergenceError,
    # one at exactly 10^6 times it does not
    design, b, d1, d2 = _guard_cases()[case]
    cfg = SolverConfig(rank=2, seed=30, max_iter=8, init="random")
    scale = float(np.vdot(b, b).real) / (2 * np.size(b))
    assert sensing_loss(design, b, np.zeros((d1, d2))) == pytest.approx(scale, rel=1e-15)
    assert max(nesterov_als_solve(design, b, d1, d2, cfg).loss_trace) <= scale
    limit = solvers._DIVERGENCE_FACTOR * scale
    _reporting(monkeypatch, limit)
    assert nesterov_als_solve(design, b, d1, d2, cfg).loss_trace[0] == limit
    for loss in (np.nextafter(limit, np.inf), np.nan):
        _reporting(monkeypatch, loss)
        with pytest.raises(DivergenceError, match="loss diverged to"):
            nesterov_als_solve(design, b, d1, d2, cfg)


@pytest.mark.parametrize("init", ["spectral", "random"])
@pytest.mark.parametrize("case", [0, 1], ids=["blockwise", "pairs"])
def test_zero_data_solve_in_two_sweeps(case, init):
    # b = 0: the guard's scale is 0, every sweep's exact solution is 0, and
    # the solve stops after its second sweep with loss 0
    design, b, d1, d2 = _guard_cases()[case]
    rep = nesterov_als_solve(design, np.zeros_like(b), d1, d2,
                             SolverConfig(rank=2, seed=31, init=init))
    assert (rep.final_loss, rep.iterations, rep.stop) == (0.0, 2, "converged")
    assert rep.loss_trace == [0.0, 0.0]


def test_race_keeps_the_first_attempt_within_a_few_ulps_of_the_least():
    # attempts in one basin differ by roundoff: the first within _TIE_RTOL of
    # the least loss wins, so summation order cannot pick the winner
    def tries(*losses):
        return [SimpleNamespace(final_loss=loss) for loss in losses]

    least = 7.026804032535483e-07
    # block 6 of an N = 25, M_O = 640 als_p trial (seed 2024): 3 ulps apart
    race = tries(7.026804032535486e-07, least, 9e-07)
    assert solvers._first_least(race) is race[0]
    race = tries(2e-06, least * (1 + solvers._TIE_RTOL), least)
    assert solvers._first_least(race) is race[1]
    race = tries(least * (1 + 4 * solvers._TIE_RTOL), least, least)
    assert solvers._first_least(race) is race[1]
    race = tries(0.0, 0.0)
    assert solvers._first_least(race) is race[0]
