import numpy as np
import pytest

from superop_sensing import (SensingDesign, apply_superop, build_blockwise_design,
                             build_design, build_random_design, choi_reshape,
                             empirical_rip_probe, hs_inner, pauli_basis,
                             random_channel, sample_pauli, simulate_measurements,
                             synth_state_combination)
from superop_sensing.errors import DimensionError


def _matrix_unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def test_sample_pauli_algebra():
    paulis = sample_pauli(1, 50, scaled=False, seed=0)
    for p in paulis:
        assert np.allclose(p, p.conj().T)
        assert np.allclose(p @ p, np.eye(2))


def test_scaled_pauli_norms():
    d = 8
    for p in sample_pauli(3, 20, scaled=True, seed=1):
        assert np.isclose(np.linalg.norm(p), 1.0)
        assert np.isclose(np.linalg.norm(p, 2), 1 / np.sqrt(d))


def test_pauli_basis_orthonormal():
    basis = pauli_basis(2)
    assert len(basis) == 16
    gram = np.array([[hs_inner(a, b) for b in basis] for a in basis])
    assert np.allclose(gram, np.eye(16), atol=1e-13)


def test_build_random_design_pauli():
    design = build_random_design(4, 30, "pauli", seed=2)
    for rho, obs in design.pairs:
        assert np.isclose(np.linalg.norm(np.kron(rho.conj(), obs)), 1.0)


def test_build_random_design_random_source():
    design = build_random_design(4, 50, "random", seed=3)
    for rho, obs in design.pairs:
        assert abs(np.trace(rho) - 1) < 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
        assert np.linalg.norm(obs - obs.conj().T) < 1e-12


def test_build_random_design_reproducible():
    d1 = build_random_design(4, 10, "random", seed=4)
    d2 = build_random_design(4, 10, "random", seed=4)
    assert all(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
               for a, b in zip(d1.pairs, d2.pairs))


def test_build_random_design_pauli_needs_power_of_two():
    with pytest.raises(DimensionError):
        build_random_design(3, 5, "pauli", seed=0)


def test_build_blockwise_design():
    design = build_blockwise_design(4, 12, "random", row_index=1, seed=5)
    assert design.kind == "blockwise" and design.row_index == 1
    assert len(design.observables) == 12
    d2 = build_blockwise_design(4, 12, "random", row_index=1, seed=5)
    assert all(np.array_equal(a, b) for a, b in zip(design.observables,
                                                    d2.observables))


def test_build_design_dispatch():
    pairs = build_design("random_pairs", 4, 5, "random", seed=1)
    assert pairs.kind == "random_pairs" and pairs.n_measurements == 5
    blocks = build_design("blockwise", 4, 6, "pauli", seed=1, row_index=2)
    assert blocks.kind == "blockwise" and blocks.row_index == 2
    assert all(np.array_equal(a, b) for a, b in zip(
        blocks.observables, build_blockwise_design(4, 6, "pauli", 2, 1).observables))
    with pytest.raises(DimensionError):
        build_design("nothing", 4, 5, "random", seed=1)


def test_synth_state_combination_exact():
    n = 4
    for (k, l) in [(0, 1), (2, 3), (1, 0)]:
        coeffs, states = synth_state_combination(k, l, n)
        combo = sum(c * s for c, s in zip(coeffs, states))
        assert np.array_equal(combo, _matrix_unit(n, l, k))
        for s in states:
            assert np.allclose(s, s.conj().T)
            assert np.isclose(np.trace(s).real, 1.0)
            assert np.linalg.eigvalsh(s).min() >= -1e-15


def test_synth_state_combination_linearity_under_superop():
    s = random_channel(4, 2, seed=6)
    coeffs, states = synth_state_combination(0, 3, 4)
    combined = apply_superop(s, sum(c * st for c, st in zip(coeffs, states)))
    summed = sum(c * apply_superop(s, st) for c, st in zip(coeffs, states))
    assert np.allclose(combined, summed, atol=1e-12)


def test_synth_state_combination_rejects_diagonal():
    with pytest.raises(DimensionError):
        synth_state_combination(1, 1, 4)


def test_simulate_random_pairs_matches_choi_formula():
    s = random_channel(4, 2, seed=7)
    k = choi_reshape(s).matrix
    design = build_random_design(4, 40, "random", seed=8)
    data = simulate_measurements(s, design, 0.0, seed=9)
    for m, (rho, obs) in enumerate(design.pairs):
        expected = hs_inner(np.kron(rho.conj(), obs), k)
        assert abs(expected.imag) <= 1e-12
        assert abs(data.values[m] - expected.real) <= 1e-12


def test_simulate_blockwise_block_extraction():
    n = 4
    s = random_channel(n, 2, seed=10)
    k = choi_reshape(s).matrix
    design = build_blockwise_design(n, 25, "random", 0, seed=11)
    data = simulate_measurements(s, design, 0.0, seed=12)
    for l in range(n):
        block = k[0:n, l * n:(l + 1) * n]
        expected = np.array([np.trace(obs @ block) for obs in design.observables])
        assert np.allclose(data.values[l], expected, atol=1e-12)


def test_simulate_blockwise_anchor_row():
    n = 4
    s = random_channel(n, 2, seed=13)
    k = choi_reshape(s).matrix
    design = build_blockwise_design(n, 20, "random", row_index=2, seed=14)
    data = simulate_measurements(s, design, 0.0, seed=15)
    for l in range(n):
        block = k[2 * n:3 * n, l * n:(l + 1) * n]
        expected = np.array([np.trace(obs @ block) for obs in design.observables])
        assert np.allclose(data.values[l], expected, atol=1e-12)


def test_simulate_noise_magnitude():
    s = random_channel(4, 2, seed=16)
    design = build_random_design(4, 10000, "random", seed=17)
    clean = simulate_measurements(s, design, 0.0, seed=18)
    noisy = simulate_measurements(s, design, 1e-4, seed=18)
    std = np.std(noisy.values - clean.values)
    assert 0.9e-4 <= std <= 1.1e-4


def test_simulate_noise_modes_agree_at_zero_sigma():
    s = random_channel(4, 2, seed=19)
    design = build_blockwise_design(4, 15, "random", 0, seed=20)
    a = simulate_measurements(s, design, 0.0, "synthetic", seed=21)
    b = simulate_measurements(s, design, 0.0, "physical", seed=21)
    assert all(np.allclose(x, y, atol=1e-15) for x, y in zip(a.values, b.values))


def test_simulate_physical_combination_is_exact():
    # vanishing noise: the four-state combination must reproduce the direct
    # evaluation, validating the conjugated weights
    s = random_channel(4, 2, seed=30)
    design = build_blockwise_design(4, 10, "random", 0, seed=31)
    exact = simulate_measurements(s, design, 0.0, "synthetic", seed=32)
    tiny = simulate_measurements(s, design, 1e-13, "physical", seed=32)
    for a, b in zip(exact.values, tiny.values):
        assert np.allclose(a, b, atol=1e-11)


def test_simulate_physical_noise_statistics():
    # physical mode perturbs the four raw real measurements; the combined
    # complex value inherits variance 1.5 sigma^2 per component for off-
    # diagonal blocks
    s = random_channel(4, 2, seed=22)
    design = build_blockwise_design(4, 4000, "random", 0, seed=23)
    clean = simulate_measurements(s, design, 0.0, "physical", seed=24)
    noisy = simulate_measurements(s, design, 1e-4, "physical", seed=24)
    diff = np.concatenate([np.asarray(noisy.values[l]) - np.asarray(clean.values[l])
                           for l in range(1, 4)])
    var = np.var(diff.real)
    assert 1.2e-8 <= var <= 1.8e-8
    diag = np.asarray(noisy.values[0]) - np.asarray(clean.values[0])
    assert np.allclose(diag.imag, 0)


def test_simulate_dimension_mismatch():
    s = random_channel(4, 2, seed=25)
    design = build_blockwise_design(8, 5, "random", 0, seed=26)
    with pytest.raises(DimensionError):
        simulate_measurements(s, design, 0.0, seed=27)


def test_rip_probe_parseval_frame():
    n = 4
    design = SensingDesign("blockwise", n, observables=pauli_basis(2))
    probe = empirical_rip_probe(design, r=2, n_samples=200, seed=0)
    m = n * n
    assert abs(probe.delta) <= 1e-12
    assert np.isclose(probe.c, 1 / m, atol=1e-12)


def test_rip_probe_single_measurement():
    design = SensingDesign("blockwise", 4,
                           observables=[np.eye(4) / 2])
    probe = empirical_rip_probe(design, r=1, n_samples=500, seed=1)
    assert probe.delta > 0.5


def test_rip_probe_bounds_order():
    design = build_blockwise_design(4, 30, "random", 0, seed=2)
    probe = empirical_rip_probe(design, r=2, n_samples=300, seed=3)
    assert probe.c0 <= probe.c1
    assert 0 <= probe.delta < 1


def test_rip_probe_pauli_blockwise():
    design = build_blockwise_design(4, 64, "pauli", 0, seed=4)
    probe = empirical_rip_probe(design, r=2, n_samples=2000, seed=5)
    assert probe.delta < 0.9


def test_rip_probe_random_pairs_kind():
    design = build_random_design(3, 60, "random", seed=6)
    probe = empirical_rip_probe(design, r=1, n_samples=100, seed=7)
    assert probe.c0 <= probe.c1 and probe.delta < 1


def test_noiseless_random_design_values_real():
    # independently recompute the complex trace and check its imaginary part
    s = random_channel(4, 3, seed=28)
    design = build_random_design(4, 50, "random", seed=29)
    for rho, obs in design.pairs:
        val = hs_inner(apply_superop(s, rho), obs)
        assert abs(val.imag) <= 1e-12
