import numpy as np
import pytest

from superop_sensing import (SolverConfig, build_design, build_random_design,
                             build_blockwise_design, random_channel,
                             simulate_measurements)
from superop_sensing.solvers import STRATEGY_DESIGNS, solve_strategy
from superop_sensing.serialize import (load_design, load_measurements,
                                       load_superoperator, save_design,
                                       save_measurements, save_superoperator)


def test_superoperator_roundtrip(tmp_path):
    s = random_channel(4, 3, seed=1)
    save_superoperator(str(tmp_path), s, extra={"seed": 1})
    loaded = load_superoperator(str(tmp_path))
    assert loaded.dim_n == 4
    assert all(np.array_equal(a, b) for a, b in zip(s.plus_ops, loaded.plus_ops))
    assert loaded.minus_ops == []


def test_design_roundtrip_random_pairs(tmp_path):
    design = build_random_design(3, 7, "random", seed=2)
    save_design(str(tmp_path), design, seed=2)
    loaded = load_design(str(tmp_path))
    assert loaded.kind == "random_pairs" and loaded.dim_n == 3
    assert np.array_equal(design.states, loaded.states)
    assert np.array_equal(design.observables, loaded.observables)
    assert loaded.states.flags.c_contiguous and loaded.observables.flags.c_contiguous


def test_design_roundtrip_blockwise(tmp_path):
    design = build_blockwise_design(4, 9, "random", row_index=2, seed=3)
    save_design(str(tmp_path), design)
    loaded = load_design(str(tmp_path))
    assert loaded.row_index == 2
    assert np.array_equal(design.observables, loaded.observables)
    assert loaded.observables.flags.c_contiguous


def test_measurements_roundtrip(tmp_path):
    s = random_channel(4, 2, seed=4)
    design = build_blockwise_design(4, 11, "random", 0, seed=5)
    data = simulate_measurements(s, design, 1e-4, "physical", seed=6)
    save_measurements(str(tmp_path), data)
    loaded = load_measurements(str(tmp_path))
    assert loaded.sigma == 1e-4 and loaded.noise_mode == "physical"
    assert loaded.values.shape == (4, 11)
    assert np.array_equal(data.values, loaded.values)

    pair_design = build_random_design(4, 13, "random", seed=7)
    pair_data = simulate_measurements(s, pair_design, 0.0, seed=8)
    out = tmp_path / "pairs"
    save_measurements(str(out), pair_data)
    loaded = load_measurements(str(out))
    assert np.array_equal(loaded.values, pair_data.values)
    assert loaded.values.dtype.kind == "f"


@pytest.mark.parametrize("strategy", sorted(STRATEGY_DESIGNS))
def test_solve_on_reloaded_data_equals_in_memory_solve(tmp_path, strategy):
    # a save/load round trip must not change a single bit of the solve
    s = random_channel(4, 2, seed=9)
    kind = STRATEGY_DESIGNS[strategy]
    m = 160 if kind == "random_pairs" else 18
    design = build_design(kind, 4, m, "random", seed=10)
    data = simulate_measurements(s, design, 1e-3, seed=11)
    save_design(str(tmp_path), design)
    save_measurements(str(tmp_path), data)
    cfg = SolverConfig(rank=2, seed=12, max_iter=40)
    ratio = 0.5 if strategy == "als_i" else 1.0        # read by als_i only
    est, reports = solve_strategy(strategy, design, data.values, cfg, ratio)
    est2, reports2 = solve_strategy(strategy, load_design(str(tmp_path)),
                                    load_measurements(str(tmp_path)).values, cfg, ratio)
    if strategy == "als_n2":           # the full matrix's factors
        est, est2 = est.product(), est2.product()
    assert np.array_equal(est, est2)
    assert [r.final_loss for r in reports] == [r.final_loss for r in reports2]
