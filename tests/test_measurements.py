import tracemalloc

import numpy as np
import pytest

from superop_sensing import (SensingDesign, apply_superop, build_blockwise_design,
                             build_design, build_random_design, choi_reshape,
                             complex_gaussian, empirical_rip_probe, hs_inner,
                             pauli_basis, random_channel, random_density,
                             random_observable, sample_pauli, simulate_measurements,
                             synth_state_combination)
from superop_sensing.errors import DimensionError
from superop_sensing.models import _STACK_CHUNK


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
    assert design.states.shape == design.observables.shape == (30, 4, 4)
    for rho, obs in zip(design.states, design.observables):
        assert np.isclose(np.linalg.norm(np.kron(rho.conj(), obs)), 1.0)


def test_build_random_design_random_source():
    design = build_random_design(4, 50, "random", seed=3)
    for rho, obs in zip(design.states, design.observables):
        assert abs(np.trace(rho) - 1) < 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
        assert np.linalg.norm(obs - obs.conj().T) < 1e-12


def test_build_random_design_reproducible():
    d1 = build_random_design(4, 10, "random", seed=4)
    d2 = build_random_design(4, 10, "random", seed=4)
    assert np.array_equal(d1.states, d2.states)
    assert np.array_equal(d1.observables, d2.observables)


def test_build_random_design_pauli_needs_power_of_two():
    with pytest.raises(DimensionError):
        build_random_design(3, 5, "pauli", seed=0)


def test_build_blockwise_design():
    design = build_blockwise_design(4, 12, "random", row_index=1, seed=5)
    assert design.kind == "blockwise" and design.row_index == 1
    assert design.observables.shape == (12, 4, 4) and design.states is None
    assert design.observables.flags.c_contiguous
    d2 = build_blockwise_design(4, 12, "random", row_index=1, seed=5)
    assert np.array_equal(design.observables, d2.observables)


def test_build_design_dispatch():
    pairs = build_design("random_pairs", 4, 5, "random", seed=1)
    assert pairs.kind == "random_pairs" and pairs.n_measurements == 5
    blocks = build_design("blockwise", 4, 6, "pauli", seed=1, row_index=2)
    assert blocks.kind == "blockwise" and blocks.row_index == 2
    assert np.array_equal(blocks.observables,
                          build_blockwise_design(4, 6, "pauli", 2, 1).observables)
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
    for m, (rho, obs) in enumerate(zip(design.states, design.observables)):
        expected = hs_inner(np.kron(rho.conj(), obs), k)
        assert abs(expected.imag) <= 1e-12
        assert abs(data.values[m] - expected.real) <= 1e-12


def test_simulate_blockwise_block_extraction():
    n = 4
    s = random_channel(n, 2, seed=10)
    k = choi_reshape(s).matrix
    design = build_blockwise_design(n, 25, "random", 0, seed=11)
    data = simulate_measurements(s, design, 0.0, seed=12)
    assert data.values.shape == (n, 25)
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
    assert np.allclose(a.values, b.values, atol=1e-15)


def test_simulate_physical_combination_is_exact():
    # vanishing noise: the four-state combination must reproduce the direct
    # evaluation, validating the conjugated weights
    s = random_channel(4, 2, seed=30)
    design = build_blockwise_design(4, 10, "random", 0, seed=31)
    exact = simulate_measurements(s, design, 0.0, "synthetic", seed=32)
    tiny = simulate_measurements(s, design, 1e-13, "physical", seed=32)
    assert np.allclose(exact.values, tiny.values, atol=1e-11)


def test_simulate_physical_noise_statistics():
    # physical mode perturbs the four raw real measurements; the combined
    # complex value inherits variance 1.5 sigma^2 per component for off-
    # diagonal blocks
    s = random_channel(4, 2, seed=22)
    design = build_blockwise_design(4, 4000, "random", 0, seed=23)
    clean = simulate_measurements(s, design, 0.0, "physical", seed=24)
    noisy = simulate_measurements(s, design, 1e-4, "physical", seed=24)
    diff = noisy.values - clean.values
    var = np.var(diff[1:].real)
    assert 1.2e-8 <= var <= 1.8e-8
    diag = diff[0]
    assert np.allclose(diag.imag, 0)


def test_simulate_dimension_mismatch():
    s = random_channel(4, 2, seed=25)
    design = build_blockwise_design(8, 5, "random", 0, seed=26)
    with pytest.raises(DimensionError):
        simulate_measurements(s, design, 0.0, seed=27)


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -1e-3])
@pytest.mark.parametrize("kind", ["blockwise", "random_pairs"])
def test_simulate_rejects_bad_sigma(kind, sigma):
    s = random_channel(3, 1, seed=28)
    design = build_design(kind, 3, 6, "random", seed=29)
    with pytest.raises(DimensionError):
        simulate_measurements(s, design, sigma, seed=30)


def test_rip_probe_parseval_frame():
    n = 4
    design = SensingDesign("blockwise", n, pauli_basis(2))
    probe = empirical_rip_probe(design, r=2, n_samples=200, seed=0)
    m = n * n
    assert abs(probe.delta) <= 1e-12
    assert np.isclose(probe.c, 1 / m, atol=1e-12)


def test_rip_probe_single_measurement():
    design = SensingDesign("blockwise", 4, np.eye(4)[None] / 2)
    probe = empirical_rip_probe(design, r=1, n_samples=500, seed=1)
    assert probe.delta > 0.5


@pytest.mark.parametrize("kind, d", [("blockwise", 3), ("random_pairs", 9)])
def test_rip_probe_rank_in_range(kind, d):
    # the probe samples d x d matrices, d = N^2 for pairs and N for
    # blockwise, so a rank outside [1, d] is rejected, not sampled as d
    design = build_design(kind, 3, 12, "random", 1)
    assert 0 < empirical_rip_probe(design, d, 5).c0
    for r in (0, d + 1):
        with pytest.raises(DimensionError, match="rank"):
            empirical_rip_probe(design, r, 5)


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
    for rho, obs in zip(design.states, design.observables):
        val = hs_inner(apply_superop(s, rho), obs)
        assert abs(val.imag) <= 1e-12


def test_design_validation():
    obs = pauli_basis(1)
    with pytest.raises(DimensionError):
        SensingDesign("blockwise", 3, obs)                  # N mismatch
    with pytest.raises(DimensionError):
        SensingDesign("random_pairs", 2, obs)               # no states
    with pytest.raises(DimensionError):
        SensingDesign("random_pairs", 2, obs, states=obs[:3])
    bad = obs.copy()
    bad[1, 0, 0] = np.nan
    with pytest.raises(DimensionError):
        SensingDesign("blockwise", 2, bad)
    # a list of matrices is accepted and stored as one C-contiguous array
    design = SensingDesign("blockwise", 2, list(obs))
    assert design.observables.flags.c_contiguous
    assert np.array_equal(design.observables, obs)


def _bits(a):
    return a.view(np.uint64)


def _observable_oracle(n, rng):
    g = complex_gaussian(n, n, rng)
    return (g + g.conj().T) / np.sqrt(2.0)


def _density_oracle(n, rng):
    g = complex_gaussian(n, n, rng)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("seed", range(5))
def test_batched_draws_equal_per_matrix_generators(seed):
    # the one-batch draws are, bit for bit, the matrices of one
    # complex_gaussian formula per matrix on the same generator
    rng = np.random.default_rng(seed)
    obs = np.array([_observable_oracle(25, rng) for _ in range(640)])
    design = build_blockwise_design(25, 640, "random", seed=seed)
    assert np.array_equal(_bits(design.observables), _bits(obs))
    rng = np.random.default_rng(seed)
    pairs = [(_density_oracle(8, rng), _observable_oracle(8, rng)) for _ in range(1100)]
    design = build_random_design(8, 1100, "random", seed=seed)
    assert np.array_equal(_bits(design.states), _bits(np.array([p[0] for p in pairs])))
    assert np.array_equal(_bits(design.observables),
                          _bits(np.array([p[1] for p in pairs])))
    # one matrix per call, or a count of them, on the same generator
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in (2, 5, 16):
        assert np.array_equal(_bits(random_observable(n, rng)),
                              _bits(_observable_oracle(n, oracle)))
        assert np.array_equal(_bits(random_density(n, rng)),
                              _bits(_density_oracle(n, oracle)))
        want = np.array([_density_oracle(n, oracle) for _ in range(3)])
        assert np.array_equal(_bits(random_density(n, rng, 3)), _bits(want))


@pytest.mark.parametrize("n, m", [(1, 5), (0, 5), (3, 0)])
def test_random_designs_reject_degenerate_sizes(n, m):
    with pytest.raises(DimensionError):
        build_random_design(n, m, "random", seed=0)
    with pytest.raises(DimensionError):
        build_blockwise_design(n, m, "random", seed=0)


def test_design_requires_exactly_hermitian_observables():
    obs = build_blockwise_design(3, 6, "random", seed=40).observables
    for scale in (0.5, 2.0, 4.0):                       # real powers of two
        SensingDesign("blockwise", 3, scale * obs)
    SensingDesign("blockwise", 4, pauli_basis(2))
    bumped = obs.copy()
    bumped[2, 0, 1] = np.nextafter(bumped[2, 0, 1].real, np.inf) + 1j * bumped[2, 0, 1].imag
    imag_diag = obs.copy()
    imag_diag[0, 1, 1] += 1e-3j
    for bad in (bumped, imag_diag, 1j * obs, obs + 0.1 * complex_gaussian(3, 3, 41)):
        with pytest.raises(DimensionError, match="Hermitian"):
            SensingDesign("blockwise", 3, bad)
        with pytest.raises(DimensionError, match="Hermitian"):
            SensingDesign("random_pairs", 3, bad, states=obs)


def test_blockwise_coordinates_are_checked():
    # C given in place of the stack must be finite and (M_O, N^2), and
    # stands alone, for a blockwise design only
    obs = build_blockwise_design(3, 6, "random", seed=42).observables
    coords = SensingDesign("blockwise", 3, obs).coords
    rebuilt = SensingDesign("blockwise", 3, coords=coords).observables
    assert rebuilt.tobytes() == obs.tobytes()
    bad = coords.copy()
    bad[1, 4] = np.inf
    for kind, kwargs in [("blockwise", {"coords": bad}),
                         ("blockwise", {"coords": coords[:, :8]}),
                         ("blockwise", {"coords": coords, "observables": obs}),
                         ("random_pairs", {"coords": coords, "states": obs})]:
        with pytest.raises(DimensionError):
            SensingDesign(kind, 3, **kwargs)


def _matvec_values(s, design, sigma, noise_mode, seed):
    # blockwise simulation one column block at a time, one matrix-vector
    # product per state over the conjugated design
    rng = np.random.default_rng(seed)
    n, m_o, k0 = design.dim_n, design.n_measurements, design.row_index
    obs_flat = design.observables.conj().reshape(m_o, -1)
    values = np.empty((n, m_o), dtype=complex)
    for l in range(n):
        if noise_mode == "synthetic" or sigma == 0 or l == k0:
            vals = (obs_flat @ apply_superop(s, _matrix_unit(n, l, k0)).reshape(-1)).conj()
            if sigma > 0 and l == k0 and noise_mode == "physical":
                vals = vals + sigma * rng.standard_normal(m_o)
            elif sigma > 0:
                noise = rng.standard_normal((m_o, 2))
                vals = vals + sigma * (noise[:, 0] + 1j * noise[:, 1])
        else:
            coeffs, states = synth_state_combination(k0, l, n)
            vals = np.zeros(m_o, dtype=complex)
            for c, rho in zip(coeffs, states):
                raw = (obs_flat @ apply_superop(s, rho).reshape(-1)).conj().real
                vals = vals + np.conj(c) * (raw + sigma * rng.standard_normal(m_o))
        values[l] = vals
    return values


@pytest.mark.parametrize("noise_mode", ["synthetic", "physical"])
@pytest.mark.parametrize("sigma", [0.0, 1e-3])
def test_simulate_blockwise_matches_matvec_oracle(noise_mode, sigma):
    s = random_channel(5, 2, seed=43)
    design = build_blockwise_design(5, 30, "random", row_index=2, seed=44)
    got = simulate_measurements(s, design, sigma, noise_mode, seed=45).values
    want = _matvec_values(s, design, sigma, noise_mode, seed=45)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_simulated_pair_values_are_bitwise_the_per_pair_form():
    s = random_channel(8, 3, seed=46)
    design = build_random_design(8, 300, "random", seed=47)
    got = simulate_measurements(s, design, 1e-4, seed=48).values
    exact = np.array([np.vdot(apply_superop(s, rho), obs).real
                      for rho, obs in zip(design.states, design.observables)])
    want = exact + 1e-4 * np.random.default_rng(48).standard_normal(exact.size)
    assert got.tobytes() == want.tobytes()


def test_blockwise_design_holds_one_copy_of_the_design():
    # a random design is drawn in chunks straight into its real coordinates
    # C, half the stack's bytes, so the design stage peaks at C plus about
    # one chunk of planes (drawing the stack and taking C from it peaks at
    # three times C)
    n, m_o = 25, 640
    build_blockwise_design(n, 8, "random", seed=49)             # warm-up
    tracemalloc.start()
    try:
        design = build_blockwise_design(n, m_o, "random", seed=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk = _STACK_CHUNK * 2 * n * n * 8
    assert design.coords.nbytes == m_o * n * n * 8
    assert peak <= 1.1 * design.coords.nbytes + chunk
