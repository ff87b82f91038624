import tracemalloc

import numpy as np
import pytest

from superop_sensing import (Lindbladian, ReshapedMatrix, Superoperator, apply_superop,
                             build_blockwise_design, build_random_design, choi_reshape,
                             complex_gaussian, draw_truth, empirical_rip_probe,
                             haar_low_rank_hermitian, hs_inner, lindblad_apply,
                             lindblad_canonical, random_channel, random_density,
                             random_lindbladian, random_observable, reconstruct_full,
                             sample_pauli, superop_from_reshaped, truncated_svd, vec)
from superop_sensing.errors import DegenerateSpectrumError, DimensionError
from superop_sensing.models import _STACK_CHUNK, random_pairs


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


def test_apply_superop_on_a_stack_is_bitwise_per_matrix():
    s = random_channel(4, 3, seed=12)
    rho = random_density(4, 13, 7)
    out = apply_superop(s, rho)
    assert out.shape == rho.shape
    for got, one in zip(out, rho):
        assert got.tobytes() == apply_superop(s, one).tobytes()
    assert apply_superop(s, rho.reshape(7, 1, 4, 4)).tobytes() == out.tobytes()


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


def lindblad_dense_oracle(lind):
    # the N^2 x N^2 reshaped matrix assembled term by term
    n = lind.dim_n
    q = -1j * lind.hamiltonian - 0.5 * sum(j.conj().T @ j for j in lind.jumps)
    mat = np.outer(vec(q), vec(np.eye(n)).conj()) + np.outer(vec(np.eye(n)), vec(q).conj())
    for j in lind.jumps:
        mat += np.outer(vec(j), vec(j).conj())
    return mat


def _assert_hs_orthogonal(ops):
    gram = np.array([[hs_inner(a, b) for b in ops] for a in ops])
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() <= 1e-12 * np.abs(np.diag(gram)).max()


def test_factored_truth_matches_dense_split():
    for n in (2, 3, 5, 8):
        for n_jumps in (1, 2, 3):
            lind = random_lindbladian(n, n_jumps, seed=10 * n + n_jumps)
            if n_jumps + 2 > n * n:   # more vectors than the space holds
                with pytest.raises(DegenerateSpectrumError):
                    lindblad_canonical(lind)
                continue
            s = lindblad_canonical(lind)
            dense = lindblad_dense_oracle(lind)
            diff = choi_reshape(s).matrix - dense
            assert np.linalg.norm(diff) <= 1e-12 * np.linalg.norm(dense)
            assert (len(s.plus_ops), len(s.minus_ops)) == (n_jumps + 1, 1)
            _assert_hs_orthogonal(s.plus_ops + s.minus_ops)
    # a channel's split reproduces the sum over its polar-factor Kraus vectors
    n, kraus_rank, seed = 5, 3, 31
    g = complex_gaussian(kraus_rank * n, n, np.random.default_rng(seed))
    u, _, vh = np.linalg.svd(g, full_matrices=False)
    w = u @ vh                                  # polar factor of g
    dense = sum(np.outer(vec(v), vec(v).conj()) for v in np.split(w, kraus_rank))
    s = random_channel(n, kraus_rank, seed)
    assert np.linalg.norm(choi_reshape(s).matrix - dense) <= 1e-12 * np.linalg.norm(dense)
    _assert_hs_orthogonal(s.plus_ops)


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


@pytest.mark.parametrize("task, ranks", [
    ("channel", {"kraus_rank": 2}), ("lindbladian", {"n_jumps": 1}),
    ("haar", {"r_plus": 2, "r_minus": 1})])
def test_draw_truth_returns_the_signed_kraus_form(task, ranks):
    s = draw_truth(task, 3, 4, **ranks)
    again = draw_truth(task, 3, 4, **ranks)
    assert isinstance(s, Superoperator) and s.dim_n == 3
    for a, b in zip(s.plus_ops + s.minus_ops, again.plus_ops + again.minus_ops,
                    strict=True):
        assert a.tobytes() == b.tobytes()
    # the haar helper is the reshaped matrix of the same draw
    if task == "haar":
        assert (haar_low_rank_hermitian(3, 2, 1, 4).matrix.tobytes()
                == choi_reshape(s).matrix.tobytes())


def test_ground_truth_tasks():
    s = draw_truth("channel", 3, 4, kraus_rank=2)
    assert s.rank == 2
    s = draw_truth("lindbladian", 3, 5, n_jumps=1)
    assert (len(s.plus_ops), len(s.minus_ops)) == (2, 1)
    s = draw_truth("haar", 3, 6, r_plus=2, r_minus=1)
    assert (len(s.plus_ops), len(s.minus_ops)) == (2, 1)
    with pytest.raises(DimensionError):
        draw_truth("nothing", 3, 0)
    # a rank the 4 x 4 reshaped matrix of n = 2 cannot have
    for kwargs in ({"task": "channel", "kraus_rank": 5},
                   {"task": "lindbladian", "n_jumps": 3},
                   {"task": "haar", "r_plus": 3, "r_minus": 2}):
        with pytest.raises(DimensionError):
            draw_truth(n=2, seed=0, **kwargs)
    assert draw_truth("lindbladian", 2, 7, n_jumps=2).rank == 4


@pytest.mark.parametrize("r_plus, r_minus", [(2, 1), (3, 0), (1, 3)])
def test_haar_split_matches_the_dense_reference(r_plus, r_minus):
    # splitting the drawn isometry gives what eigendecomposing the truth's
    # dense reshaped matrix gives: the same signature and the same matrix
    s = draw_truth("haar", 4, 30 + r_plus, r_plus=r_plus, r_minus=r_minus)
    k = choi_reshape(s).matrix
    ref = superop_from_reshaped(ReshapedMatrix(4, k))
    assert ((len(s.plus_ops), len(s.minus_ops))
            == (len(ref.plus_ops), len(ref.minus_ops)) == (r_plus, r_minus))
    k_ref = choi_reshape(ref).matrix
    assert np.linalg.norm(k - k_ref) <= 1e-12 * np.linalg.norm(k_ref)


def test_haar_draw_holds_no_dense_matrix():
    # the draw splits the N^2 x r isometry: at N=16 it peaks under 0.1 N^4
    # complex entries, where a dense N^2 x N^2 truth alone is 1.0
    n = 16
    draw_truth("haar", n, 3, r_plus=2, r_minus=1)                  # warm-up
    tracemalloc.start()
    try:
        draw_truth("haar", n, 3, r_plus=2, r_minus=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * n ** 4 * 16


def _one_draw(n, seed, m, k):
    # the k complex Gaussian (m, n, n) stacks from one standard-normal draw of
    # all m rows, scaled as complex_gaussian scales them
    planes = np.random.default_rng(seed).standard_normal((m, 2 * k, n, n))
    stacks = []
    for j in range(k):
        g = np.empty((m, n, n), dtype=complex)
        g.real, g.imag = planes[:, 2 * j], planes[:, 2 * j + 1]
        stacks.append(g / np.sqrt(2.0))
    return stacks


def _densities_of(g):
    rho = g @ g.conj().transpose(0, 2, 1)
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def _observables_of(g):
    return (g + g.conj().transpose(0, 2, 1)) / np.sqrt(2.0)


@pytest.mark.parametrize("n", [2, 5])
def test_chunked_draws_are_bitwise_one_draw(n):
    # a count spanning three full chunks and a partial one
    m = 3 * _STACK_CHUNK + 5
    (g,) = _one_draw(n, 3, m, 1)
    assert random_observable(n, 3, m).tobytes() == _observables_of(g).tobytes()
    assert random_density(n, 3, m).tobytes() == _densities_of(g).tobytes()
    g_states, g_obs = _one_draw(n, 4, m, 2)
    states, obs = random_pairs(n, m, 4)
    assert states.tobytes() == _densities_of(g_states).tobytes()
    assert obs.tobytes() == _observables_of(g_obs).tobytes()


# the anchor row of a rank-2 N = 2 matrix
_ROW = np.hstack([np.eye(2), np.eye(2)]).astype(complex)


@pytest.mark.parametrize("call", [
    lambda: reconstruct_full(_ROW, 2.0),
    lambda: reconstruct_full(_ROW, 2, anchor=1.0),
    lambda: reconstruct_full(_ROW, True),
    lambda: truncated_svd(np.eye(3), 2.0),
    lambda: empirical_rip_probe(build_blockwise_design(3, 6, "random"), 2.0, 5),
    lambda: empirical_rip_probe(build_blockwise_design(3, 6, "random"), 2, n_samples=2.5),
    lambda: build_blockwise_design(3, 2.0, "random"),
    lambda: build_random_design(3, 2.0, "random", seed=0),
    lambda: complex_gaussian(2.0, 2, 0),
    lambda: random_lindbladian(3, 1.5, 0),
    lambda: random_channel(3, 2.0, 0),
    lambda: sample_pauli(2, -1, True, 0)],
    ids=["rank-float", "anchor-float", "rank-bool", "svd-k-float", "rip-rank-float",
         "rip-samples-float", "blockwise-m-float", "pairs-m-float", "gaussian-rows-float",
         "jumps-float", "kraus-rank-float", "pauli-count-negative"])
def test_public_integer_arguments_are_checked(call):
    # an integer argument of the public API that is a float, a bool or out
    # of range raises DimensionError through `_check_fields`, not a
    # TypeError or ValueError from deep inside numpy, and a bool rank does
    # not run as 1
    with pytest.raises(DimensionError):
        call()
