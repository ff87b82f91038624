import numpy as np
import pytest

from superop_sensing import (Lindbladian, Superoperator, apply_superop,
                             choi_reshape, complex_gaussian, ground_truth,
                             haar_low_rank_hermitian, hs_inner, lindblad_apply,
                             lindblad_canonical, random_channel, random_density,
                             random_lindbladian, random_observable,
                             superop_from_reshaped)
from superop_sensing.errors import DegenerateSpectrumError, DimensionError


def lindblad_bracket_oracle(lind, rho):
    # term-by-term commutator/dissipator form, independent of the Q-form
    h = lind.hamiltonian
    out = -1j * (h @ rho - rho @ h)
    for j in lind.jumps:
        jd = j.conj().T
        out += j @ rho @ jd - 0.5 * (jd @ j @ rho) - 0.5 * (rho @ jd @ j)
    return out


def test_apply_superop_identity_channel():
    s = Superoperator(3, [np.eye(3)], [])
    rho = random_density(3, 0)
    assert np.allclose(apply_superop(s, rho), rho)


def test_apply_superop_preserves_hermiticity():
    rng = np.random.default_rng(1)
    s = Superoperator(3, [complex_gaussian(3, 3, rng) for _ in range(2)],
                      [complex_gaussian(3, 3, rng)])
    rho = random_density(3, 2)
    out = apply_superop(s, rho)
    assert np.linalg.norm(out - out.conj().T) <= 1e-12 * np.linalg.norm(out)


def test_apply_superop_linearity():
    rng = np.random.default_rng(3)
    s = Superoperator(3, [complex_gaussian(3, 3, rng)], [complex_gaussian(3, 3, rng)])
    r1, r2 = complex_gaussian(3, 3, rng), complex_gaussian(3, 3, rng)
    a, b = 0.7 - 0.2j, -1.1 + 0.4j
    lhs = apply_superop(s, a * r1 + b * r2)
    rhs = a * apply_superop(s, r1) + b * apply_superop(s, r2)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_apply_superop_dimension_mismatch():
    s = Superoperator(3, [np.eye(3)], [])
    with pytest.raises(DimensionError):
        apply_superop(s, np.eye(4))


def test_lindblad_apply_commutator_with_identity_state():
    lind = Lindbladian(np.diag([1.0, -1.0]), [])
    assert np.allclose(lindblad_apply(lind, np.eye(2) / 2), 0)


def test_lindblad_apply_traceless():
    lind = random_lindbladian(4, 2, seed=4)
    rho = random_density(4, 5)
    out = lindblad_apply(lind, rho)
    assert abs(np.trace(out)) <= 1e-12 * np.linalg.norm(out)


def test_lindblad_apply_matches_bracket_oracle():
    rng = np.random.default_rng(6)
    lind = random_lindbladian(4, 3, seed=6)
    for _ in range(10):
        rho = complex_gaussian(4, 4, rng)
        assert np.allclose(lindblad_apply(lind, rho),
                           lindblad_bracket_oracle(lind, rho), atol=1e-12)


def test_lindblad_canonical_signature_single_jump():
    j = complex_gaussian(3, 3, seed=7)
    j /= np.linalg.norm(j)
    lind = Lindbladian(np.zeros((3, 3)), [j])
    k = choi_reshape(lindblad_canonical(lind)).matrix
    evals = np.linalg.eigvalsh(k)
    tol = 1e-8 * np.abs(evals).max()
    assert np.sum(evals > tol) == 2 and np.sum(evals < -tol) == 1


def test_lindblad_canonical_rank_law():
    for n_jumps in (1, 2):
        lind = random_lindbladian(8, n_jumps, seed=10 + n_jumps)
        s = lindblad_canonical(lind)
        assert len(s.plus_ops) == n_jumps + 1 and len(s.minus_ops) == 1
        evals = np.linalg.eigvalsh(choi_reshape(s).matrix)
        assert np.sum(np.abs(evals) > 1e-8 * np.abs(evals).max()) == n_jumps + 2


def test_lindblad_canonical_reproduces_generator():
    rng = np.random.default_rng(12)
    lind = random_lindbladian(4, 2, seed=12)
    s = lindblad_canonical(lind)
    for _ in range(50):
        rho = complex_gaussian(4, 4, rng)
        diff = apply_superop(s, rho) - lindblad_apply(lind, rho)
        assert np.linalg.norm(diff) <= 1e-10 * np.linalg.norm(rho)


def test_lindblad_canonical_degenerate_jumps():
    # two identical jumps collapse the reshaped rank below N_J + 2
    j = complex_gaussian(3, 3, seed=13)
    lind = Lindbladian(np.zeros((3, 3)), [j, j])
    with pytest.raises(DegenerateSpectrumError):
        lindblad_canonical(lind)


def test_random_channel_rank_one_is_unitary():
    s = random_channel(4, 1, seed=14)
    v = s.plus_ops[0]
    assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-12)


def test_random_channel_trace_preserving_and_rank():
    s = random_channel(4, 2, seed=15)
    total = sum(v.conj().T @ v for v in s.plus_ops)
    assert np.allclose(total, np.eye(4), atol=1e-12)
    assert not s.minus_ops
    evals = np.linalg.eigvalsh(choi_reshape(s).matrix)
    tol = 1e-8 * evals.max()
    assert np.sum(evals > tol) == 2
    assert evals.min() >= -1e-10 * evals.max()


def test_random_channel_kraus_orthogonality():
    s = random_channel(5, 3, seed=16)
    ops = s.plus_ops
    for i in range(3):
        for j in range(3):
            ip = hs_inner(ops[i], ops[j])
            if i != j:
                bound = 1e-10 * np.linalg.norm(ops[i]) * np.linalg.norm(ops[j])
                assert abs(ip) <= bound


def test_random_channel_deterministic():
    a = random_channel(3, 2, seed=17)
    b = random_channel(3, 2, seed=17)
    assert all(np.array_equal(x, y) for x, y in zip(a.plus_ops, b.plus_ops))


def test_random_channel_trace_preservation_on_states():
    s = random_channel(4, 3, seed=18)
    for k in range(5):
        rho = random_density(4, 20 + k)
        out = apply_superop(s, rho)
        assert abs(np.trace(out) - np.trace(rho)) <= 1e-10


def test_random_channel_rank_out_of_range():
    with pytest.raises(DimensionError):
        random_channel(3, 10, seed=0)


def test_random_lindbladian_properties():
    lind = random_lindbladian(5, 2, seed=19)
    h = lind.hamiltonian
    assert np.linalg.norm(h - h.conj().T) <= 1e-14
    assert np.isclose(np.linalg.norm(h), 1.0)
    assert all(np.isclose(np.linalg.norm(j), 1.0) for j in lind.jumps)


def test_random_lindbladian_rank_over_seeds():
    for seed in range(20):
        lind = random_lindbladian(4, 2, seed=seed)
        k = choi_reshape(lindblad_canonical(lind)).matrix
        evals = np.linalg.eigvalsh(k)
        assert np.sum(np.abs(evals) > 1e-8 * np.abs(evals).max()) == 4


def test_random_density_properties():
    rho = random_density(4, 21)
    assert abs(np.trace(rho) - 1) <= 1e-14
    assert np.linalg.norm(rho - rho.conj().T) <= 1e-14
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_random_observable_properties():
    obs = random_observable(6, 22)
    assert np.linalg.norm(obs - obs.conj().T) <= 1e-13
    assert np.array_equal(obs, random_observable(6, 22))
    # entrywise unit variance: Frobenius norm concentrates near N
    norms = [np.linalg.norm(random_observable(16, 100 + k)) for k in range(20)]
    assert 12 < np.mean(norms) < 20


def test_haar_low_rank_psd_case():
    resh = haar_low_rank_hermitian(3, 1, 0, seed=23)
    evals = np.linalg.eigvalsh(resh.matrix)
    assert np.sum(evals > 1e-10) == 1
    assert evals.min() >= -1e-12


def test_haar_low_rank_signature_and_hermitian():
    resh = haar_low_rank_hermitian(4, 2, 1, seed=24)
    m = resh.matrix
    assert np.linalg.norm(m - m.conj().T) <= 1e-12 * np.linalg.norm(m)
    evals = np.linalg.eigvalsh(m)
    tol = 1e-8 * np.abs(evals).max()
    assert np.sum(evals > tol) == 2 and np.sum(evals < -tol) == 1


def test_haar_blocks_full_rank():
    n, r = 4, 3
    for seed in range(10):
        resh = haar_low_rank_hermitian(n, 2, 1, seed=seed)
        smax = np.linalg.svd(resh.matrix, compute_uv=False)[0]
        for i in range(n):
            for j in range(n):
                sv = np.linalg.svd(resh.block(i, j), compute_uv=False)
                assert sv[r - 1] > 1e-10 * smax


def test_superop_from_reshaped_roundtrip():
    resh = haar_low_rank_hermitian(3, 2, 1, seed=25)
    s = superop_from_reshaped(resh)
    assert np.allclose(choi_reshape(s).matrix, resh.matrix, atol=1e-10)


def test_ground_truth_tasks():
    s, k = ground_truth("channel", 3, 4, kraus_rank=2)
    assert s.rank == 2 and np.array_equal(k, choi_reshape(s).matrix)
    s, k = ground_truth("lindbladian", 3, 5, n_jumps=1)
    assert (len(s.plus_ops), len(s.minus_ops)) == (2, 1)
    # haar: the drawn matrix itself is the truth
    s, k = ground_truth("haar", 3, 6, r_plus=2, r_minus=1)
    assert np.array_equal(k, haar_low_rank_hermitian(3, 2, 1, 6).matrix)
    assert np.allclose(choi_reshape(s).matrix, k, atol=1e-12)
    with pytest.raises(DimensionError):
        ground_truth("nothing", 3, 0)
