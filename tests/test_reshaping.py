import numpy as np
import pytest

from superop_sensing import (Superoperator, apply_superop, choi_factors, choi_reshape,
                             complex_gaussian, draw_truth, hs_inner, kron, random_density,
                             random_lindbladian, random_observable, reshape_R,
                             superop_matrix, unvec, vec)
from superop_sensing.errors import DimensionError
from superop_sensing.models import lindblad_canonical


def hs_inner_oracle(a, b):
    # elementwise double sum, independent of vec
    total = 0.0 + 0.0j
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            total += np.conj(a[i, j]) * b[i, j]
    return total


def reshape_oracle(a, n):
    # index-mapping definition: block (i,j) element (k,l) -> (l*n+k, j*n+i)
    out = np.zeros_like(a)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    out[l * n + k, j * n + i] = a[i * n + k, j * n + l]
    return out


def test_vec_column_first():
    assert np.array_equal(vec(np.array([[1, 2], [3, 4]])), [1, 3, 2, 4])
    assert np.array_equal(vec(np.eye(2)), [1, 0, 0, 1])


def test_vec_unvec_roundtrip():
    a = complex_gaussian(4, 4, seed=0)
    assert np.array_equal(unvec(vec(a)), a)


def test_vec_rejects_nonsquare():
    with pytest.raises(DimensionError):
        vec(np.ones((2, 3)))


def test_vec_isometry_against_elementwise_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = complex_gaussian(3, 3, rng)
        b = complex_gaussian(3, 3, rng)
        lhs = hs_inner(a, b)
        rhs = np.vdot(vec(a), vec(b))
        assert abs(lhs - hs_inner_oracle(a, b)) <= 1e-13
        assert abs(lhs - rhs) <= 1e-13


def test_hs_inner_basics():
    assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    assert hs_inner(sx, sy) == pytest.approx(0)


def test_hs_inner_shape_mismatch():
    with pytest.raises(DimensionError):
        hs_inner(np.eye(2), np.eye(3))


def test_kron_identity_and_permutation():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
    swap = np.array([[0, 1], [1, 0]])
    k = kron(swap, np.eye(2))
    expected = np.zeros((4, 4))
    expected[:2, 2:] = np.eye(2)
    expected[2:, :2] = np.eye(2)
    assert np.array_equal(k, expected)


def test_kron_vec_identity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, x, b = (complex_gaussian(2, 2, rng) for _ in range(3))
        assert np.allclose(vec(a @ x @ b), kron(b.T, a) @ vec(x), atol=1e-13)


def test_reshape_of_kron_is_outer_product():
    b = np.array([[1, 2], [3, 4]], dtype=complex)
    c = np.array([[5, 6], [7, 8]], dtype=complex)
    expected = np.outer(vec(c), vec(b))
    assert np.array_equal(reshape_R(kron(b, c)), expected)
    # frozen value, computed from vec(c) = [5,7,6,8], vec(b) = [1,3,2,4]
    frozen = np.array([
        [5, 15, 10, 20],
        [7, 21, 14, 28],
        [6, 18, 12, 24],
        [8, 24, 16, 32],
    ], dtype=complex)
    assert np.array_equal(expected, frozen)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reshape_involution_isometry_and_oracle(n):
    rng = np.random.default_rng(n)
    for _ in range(100):
        a = complex_gaussian(n * n, n * n, rng)
        r = reshape_R(a)
        assert np.array_equal(r, reshape_oracle(a, n))
        assert np.array_equal(reshape_R(r), a)
        assert abs(np.linalg.norm(r) - np.linalg.norm(a)) <= 1e-13 * np.linalg.norm(a)


def test_reshape_rejects_non_square_side():
    with pytest.raises(DimensionError):
        reshape_R(np.ones((6, 6)))   # 6 is not a perfect square


def random_superop(n, r_plus, r_minus, rng):
    return Superoperator(
        n,
        [complex_gaussian(n, n, rng) for _ in range(r_plus)],
        [complex_gaussian(n, n, rng) for _ in range(r_minus)],
    )


def test_superop_matrix_identity_channel():
    s = Superoperator(3, [np.eye(3)], [])
    assert np.allclose(superop_matrix(s), np.eye(9))


def test_superop_matrix_applies_like_superop():
    rng = np.random.default_rng(5)
    s = random_superop(3, 2, 1, rng)
    mat = superop_matrix(s)
    for _ in range(10):
        rho = complex_gaussian(3, 3, rng)
        assert np.allclose(vec(apply_superop(s, rho)), mat @ vec(rho), atol=1e-12)


def test_superop_matrix_sign_split():
    v = np.diag([1.0, -1.0])
    u = np.array([[0, 1], [0, 0]], dtype=complex)
    s = Superoperator(2, [v], [u])
    expected = np.kron(v.conj(), v) - np.kron(u.conj(), u)
    assert np.allclose(superop_matrix(s), expected)


def test_choi_reshape_identity_kraus():
    s = Superoperator(2, [np.eye(2)], [])
    k = choi_reshape(s).matrix
    assert np.allclose(k, np.outer(vec(np.eye(2)), vec(np.eye(2)).conj()))
    assert np.isclose(np.trace(k).real, 2.0)
    assert np.linalg.matrix_rank(k) == 1


def test_choi_reshape_equals_reshaped_matrix():
    rng = np.random.default_rng(6)
    s = random_superop(3, 2, 1, rng)
    direct = choi_reshape(s).matrix
    assert np.allclose(direct, reshape_R(superop_matrix(s)), atol=1e-12)
    assert np.linalg.norm(direct - direct.conj().T) <= 1e-12 * np.linalg.norm(direct)


@pytest.mark.parametrize("n, r_plus, r_minus", [(9, 2, 2), (10, 1, 3), (2, 1, 1)])
def test_choi_reshape_matches_the_sum_of_outer_products(n, r_plus, r_minus):
    # oracle: the whole signed sum of outer products, one N^4 temporary per
    # term; the one product rounds differently, so to roundoff of ||K||
    s = random_superop(n, r_plus, r_minus, np.random.default_rng(n))
    expected = np.zeros((n * n, n * n), dtype=complex)
    for v in s.plus_ops:
        expected += np.outer(vec(v), vec(v).conj())
    for u in s.minus_ops:
        expected -= np.outer(vec(u), vec(u).conj())
    k = choi_reshape(s).matrix
    scale = np.linalg.norm(expected)
    assert np.linalg.norm(k - expected) <= 1e-15 * scale
    assert np.linalg.norm(k - k.conj().T) <= 1e-15 * scale


def test_choi_reshape_lindbladian_signature():
    lind = random_lindbladian(3, 1, seed=7)
    k = choi_reshape(lindblad_canonical(lind)).matrix
    evals = np.linalg.eigvalsh(k)
    tol = 1e-8 * np.abs(evals).max()
    assert np.sum(evals > tol) == 2
    assert np.sum(evals < -tol) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_measurement_identity(n):
    # tr[(S rho)^H O] equals the reshaped-matrix inner product
    rng = np.random.default_rng(10 + n)
    for trial in range(100):
        s = random_superop(n, 2, 1, rng)
        rho = random_density(n, rng)
        obs = random_observable(n, rng)
        lhs = hs_inner(apply_superop(s, rho), obs)
        rhs = hs_inner(np.kron(rho.conj(), obs), choi_reshape(s).matrix)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("task, ranks", [("channel", dict(kraus_rank=3)),
                                         ("lindbladian", dict(n_jumps=2)),
                                         ("haar", dict(r_plus=2, r_minus=1))])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 25, 33])
def test_choi_factors_row_blocks_are_bitwise_the_dense_rows(task, ranks, n):
    # the truth is the pair (W s, W) of its vectorized signed Kraus
    # operators; a scorer reads it N rows of the product at a time, and each
    # block must be bitwise those rows of choi_reshape's dense matrix, also
    # at odd N (compared as bytes of the float64 view, so signed zeros count)
    s = draw_truth(task, n, n, **ranks)
    pair, dense = choi_factors(s), choi_reshape(s).matrix
    w = np.stack([vec(op) for op in s.plus_ops + s.minus_ops], axis=1)
    signs = np.repeat([1.0, -1.0], [len(s.plus_ops), len(s.minus_ops)])
    assert pair.left.tobytes() == (w * signs).tobytes() and pair.right.tobytes() == w.tobytes()
    as_bytes = lambda a: a.view(np.float64).tobytes()  # noqa: E731
    assert as_bytes(pair.product()) == as_bytes(dense)
    for i in range(0, n * n, n):
        assert as_bytes(pair.product(slice(i, i + n))) == as_bytes(dense[i:i + n])
