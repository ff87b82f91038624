from dataclasses import replace

import numpy as np
import pytest

from superop_sensing import (SensingDesign, SolverConfig, build_blockwise_design,
                             build_random_design,
                             choi_reshape, complex_gaussian, nesterov_als_solve,
                             pauli_basis, random_channel, sensing_loss,
                             simulate_measurements, solve_first_row_joint,
                             solve_first_row_parallel, solve_first_row_subset)
from superop_sensing.errors import DimensionError
from superop_sensing.linalg import least_squares
from superop_sensing.models import haar_low_rank_hermitian, superop_from_reshaped
from superop_sensing.solvers import _make_problem, derive_seed, solve_strategy


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


def test_nesterov_restart_semantics_replay():
    # replay the documented loop and require bitwise-equal factors
    k, design, data = _channel_case(4, 2, seed=50, m_o=24, sigma=1e-3)
    b = data.values
    cfg = SolverConfig(rank=2, seed=12, max_iter=25, eta=1.0 + 1e-12,
                       init="random")
    rep = nesterov_als_solve(design, b, 4, 16, cfg)
    assert rep.restarts > 0  # tiny eta forces the restart branch

    prob = _make_problem(design, b, 4, 16)
    rng = np.random.default_rng(cfg.seed)
    u_prev = complex_gaussian(4, 2, rng)
    v_prev = complex_gaussian(16, 2, rng)
    v_curr = prob.solve_right(u_prev)
    u_curr = prob.solve_left(v_curr)
    f_curr = prob.loss(u_curr, v_curr)
    best = (u_curr, v_curr, f_curr)
    x_curr = u_curr @ v_curr.conj().T
    for _ in range(1, cfg.max_iter):
        u_ext = u_curr + cfg.beta * (u_curr - u_prev)
        v_ext = v_curr + cfg.beta * (v_curr - v_prev)
        v_new = prob.solve_right(u_ext)
        u_new = prob.solve_left(v_new)
        f_new = prob.loss(u_new, v_new)
        if f_new >= cfg.eta * f_curr:
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
    assert np.array_equal(rep.factors.left, best[0])
    assert np.array_equal(rep.factors.right, best[1])


def test_nesterov_not_slower_than_plain_on_average():
    # full-matrix sensing from random pairs, where acceleration matters
    n, r = 4, 2
    plain_iters, acc_iters = [], []
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
    assert np.median(acc_iters) <= np.median(plain_iters)


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


@pytest.mark.parametrize("bad", [
    {"rank": 2.0}, {"rank": True}, {"rank": "2"}, {"max_iter": 0},
    {"max_iter": "5"}, {"max_iter": False}, {"gamma": "1e-8"}, {"eta": None},
    {"beta": True}, {"beta": float("nan")}, {"gamma": 1j},
])
def test_solver_config_rejects_bad_types(bad):
    with pytest.raises(DimensionError):
        SolverConfig(**{"rank": 1, **bad})


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
