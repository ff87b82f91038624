import tracemalloc

import numpy as np
import pytest

from superop_sensing import (complex_gaussian, haar_low_rank_hermitian, pseudo_inverse,
                             reconstruct_full, truncated_svd)
from superop_sensing.errors import AssumptionViolationError, DimensionError


def _row(matrix, n, row=0):
    return matrix[row * n:(row + 1) * n, :]


def _noise(n, scale, seed):
    # independent complex Gaussian noise per N x N block of an N x N^2 row
    return scale * np.hstack([complex_gaussian(n, n, seed=seed + k) for k in range(n)])


@pytest.mark.parametrize("n,r_plus,r_minus", [(3, 1, 1), (4, 2, 1), (4, 1, 2)])
def test_exact_reconstruction(n, r_plus, r_minus):
    truth = haar_low_rank_hermitian(n, r_plus, r_minus, seed=n + r_plus)
    est = reconstruct_full(_row(truth.matrix, n), r_plus + r_minus)
    err = np.linalg.norm(est.matrix - truth.matrix) / np.linalg.norm(truth.matrix)
    assert err <= 1e-10


def test_rank_one_psd_case():
    rng = np.random.default_rng(1)
    v = complex_gaussian(9, 1, rng)
    v[0] += 1.0  # keep the anchor block nonzero
    truth = np.outer(v[:, 0], v[:, 0].conj())
    est = reconstruct_full(_row(truth, 3), 1)
    assert np.linalg.norm(est.matrix - truth) <= 1e-10 * np.linalg.norm(truth)


def test_output_rank_is_exactly_r():
    truth = haar_low_rank_hermitian(4, 2, 1, seed=5)
    noisy = _row(truth.matrix, 4) + _noise(4, 1e-5, seed=10)
    est = reconstruct_full(noisy, 3)
    sv = np.linalg.svd(est.matrix, compute_uv=False)
    assert sv[3] <= 1e-10 * sv[0]


def test_first_row_projection_property():
    truth = haar_low_rank_hermitian(4, 2, 1, seed=6)
    row = _row(truth.matrix, 4)
    est = reconstruct_full(row, 3)
    assert np.linalg.norm(est.matrix[:4, :] - row) <= 1e-10 * np.linalg.norm(row)


def test_anchor_row_other_than_first():
    truth = haar_low_rank_hermitian(4, 2, 1, seed=7)
    est = reconstruct_full(_row(truth.matrix, 4, row=2), 3, anchor=2)
    err = np.linalg.norm(est.matrix - truth.matrix) / np.linalg.norm(truth.matrix)
    assert err <= 1e-10


def test_assumption_violation_zero_anchor_block():
    row = np.zeros((3, 9), dtype=complex)
    row[:, 3:6] = complex_gaussian(3, 3, seed=8)
    with pytest.raises(AssumptionViolationError) as info:
        reconstruct_full(row, 2)
    assert info.value.observed_rank == 0


def test_assumption_violation_reports_observed_rank():
    truth = haar_low_rank_hermitian(3, 1, 0, seed=9)  # rank 1
    with pytest.raises(AssumptionViolationError) as info:
        reconstruct_full(_row(truth.matrix, 3), 2, rtol=1e-8)
    assert info.value.observed_rank == 1


def test_hermitize_flag():
    truth = haar_low_rank_hermitian(3, 2, 0, seed=10)
    noisy = _row(truth.matrix, 3) + _noise(3, 1e-4, seed=20)
    est = reconstruct_full(noisy, 2, hermitize=True)
    assert np.linalg.norm(est.matrix - est.matrix.conj().T) <= 1e-14


def _hermitized_pin(est, plain, n):
    # a hermitized completion is the pair [L, J] / 2, [J, L] of the plain
    # one's factors L, J: its matrix and every row block are bitwise
    # 1/2 [L, J][J, L]^H, and within 2 ulps of max|K|, 2 eps max|K|, of
    # (K + K^H) / 2 (0.60-1.38 at N = 3, 4, 5, 16 and 25)
    lj = np.hstack([plain.factors.left, plain.factors.right])
    jl = np.hstack([plain.factors.right, plain.factors.left])
    pinned = (lj @ jl.conj().T) / 2
    assert est.factors.left.tobytes() == (lj / 2).tobytes()
    assert est.factors.right.tobytes() == jl.tobytes()
    assert est.matrix.tobytes() == pinned.tobytes()
    blocks = [est.factors.product(slice(i, i + n)) for i in range(0, n * n, n)]
    assert np.vstack(blocks).tobytes() == pinned.tobytes()
    k = plain.matrix
    ulp = np.finfo(np.float64).eps * np.abs(k).max()
    assert np.abs(est.matrix - (k + k.conj().T) / 2).max() <= 2 * ulp


@pytest.mark.parametrize("n", [3, 16])
def test_hermitize_is_bitwise_the_average_with_the_adjoint(n):
    truth = haar_low_rank_hermitian(n, 2, 1, seed=n)
    noisy = _row(truth.matrix, n) + _noise(n, 1e-4, seed=30)
    plain = reconstruct_full(noisy, 3)
    _hermitized_pin(reconstruct_full(noisy, 3, hermitize=True), plain, n)


def test_hermitize_holds_no_second_full_matrix():
    # a hermitized completion is a rank-2r factor pair: at N=16 building
    # its dense matrix peaks under 1.5 output matrices
    n = 16
    truth = haar_low_rank_hermitian(n, 2, 1, seed=31)
    noisy = _row(truth.matrix, n) + _noise(n, 1e-4, seed=32)
    reconstruct_full(noisy, 3, hermitize=True).matrix             # warm-up
    tracemalloc.start()
    try:
        reconstruct_full(noisy, 3, hermitize=True).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n ** 4 * 16


@pytest.mark.parametrize("hermitize", [False, True])
@pytest.mark.parametrize("n", [3, 4, 5, 16, 25])
def test_matrix_is_bitwise_the_one_product(n, hermitize):
    # .matrix, built from the factors, must be bitwise the dense completion
    # (row^H proj) J^H with the SVD's anchor rows, and each row block a
    # scorer reads bitwise .matrix's rows, also at odd N; hermitized, both
    # are bitwise 1/2 [L, J][J, L]^H of those factors
    r = min(n, 3)
    truth = haar_low_rank_hermitian(n, r - 1, 1, seed=40 + n)
    noisy = _row(truth.matrix, n, row=1) + _noise(n, 1e-4, seed=50 + n)
    plain = reconstruct_full(noisy, r, anchor=1)
    if hermitize:
        _hermitized_pin(reconstruct_full(noisy, r, anchor=1, hermitize=True), plain, n)
        return
    blocks = [plain.factors.product(slice(i, i + n)) for i in range(0, n * n, n)]
    svd = truncated_svd(noisy, r)
    j_h = svd.right.conj().T
    proj = pseudo_inverse(j_h[:, n:2 * n], max(n * n, r) * np.finfo(np.float64).eps)
    dense = (noisy.conj().T @ proj) @ j_h
    dense[n:2 * n] = svd.reconstruct()
    assert plain.matrix.tobytes() == dense.tobytes()
    assert np.vstack(blocks).tobytes() == dense.tobytes()
    assert plain.block(2, 1).tobytes() == dense[2 * n:3 * n, n:2 * n].tobytes()


def test_noise_stability_is_measured_not_asserted():
    # perturbing the row by eps changes the output by kappa * eps; kappa is
    # finite and reported here as a smoke check, not bounded
    truth = haar_low_rank_hermitian(4, 2, 1, seed=11)
    row = _row(truth.matrix, 4)
    eps = 1e-6
    noisy = row + eps * np.linalg.norm(row) * _noise(4, 1.0, seed=30)
    est = reconstruct_full(noisy, 3)
    delta = np.linalg.norm(est.matrix - truth.matrix) / np.linalg.norm(truth.matrix)
    kappa = delta / eps
    assert np.isfinite(kappa) and kappa > 0


def test_input_validation():
    with pytest.raises(DimensionError):
        reconstruct_full(np.zeros((0, 0)), 1)
    with pytest.raises(DimensionError):
        reconstruct_full(np.zeros(9), 1)
    with pytest.raises(DimensionError):
        reconstruct_full(np.hstack([np.eye(3)] * 2), 1)
    with pytest.raises(DimensionError):
        reconstruct_full(np.hstack([np.eye(3)] * 3), 1, anchor=5)
    for rtol in (np.nan, np.inf, -1.0):   # rejected before the rank count
        with pytest.raises(DimensionError):
            reconstruct_full(np.hstack([np.eye(3)] * 3), 1, rtol=rtol)


def test_rejects_width_not_a_multiple_of_height():
    # a 4 x 18 row used to lose its last two columns silently
    with pytest.raises(DimensionError):
        reconstruct_full(np.ones((4, 18)), 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_row(bad):
    row = _row(haar_low_rank_hermitian(3, 1, 0, seed=12).matrix, 3)
    row[1, 4] = bad
    with pytest.raises(DimensionError):
        reconstruct_full(row, 1)
