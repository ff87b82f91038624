import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superop_sensing import (complex_gaussian, least_squares, load_cmx,
                             pseudo_inverse, randomized_svd, save_cmx,
                             truncated_svd)
from superop_sensing.errors import DimensionError
from superop_sensing.linalg import cholesky_solve


def test_truncated_svd_identity():
    res = truncated_svd(np.eye(3), 3)
    assert np.allclose(res.singular_values, [1, 1, 1])


def test_truncated_svd_rank_one():
    u = np.array([1, 1j, -1]) / np.sqrt(3)
    v = np.array([1, -1]) / np.sqrt(2)
    res = truncated_svd(np.outer(u, v.conj()), 1)
    assert np.allclose(res.singular_values, [1.0])
    # left/right recover u, v up to a common phase
    phase = res.left[0, 0] / u[0]
    assert np.allclose(res.left[:, 0], u * phase, atol=1e-12)
    assert np.allclose(res.right[:, 0], v * phase, atol=1e-12)


def test_truncated_svd_against_eigendecomposition():
    # oracle: singular values of A are sqrt eigenvalues of A^H A
    a = complex_gaussian(6, 4, seed=1)
    res = truncated_svd(a, 4)
    evals = np.linalg.eigvalsh(a.conj().T @ a)[::-1]
    assert np.allclose(res.singular_values, np.sqrt(np.clip(evals, 0, None)),
                       atol=1e-10)
    recon = res.reconstruct()
    assert np.linalg.norm(a - recon) <= 1e-10 * np.linalg.norm(a)


def test_truncated_svd_best_rank_k():
    rng = np.random.default_rng(7)
    a = complex_gaussian(8, 8, seed=2)
    for k in (1, 3, 5):
        approx = truncated_svd(a, k).reconstruct()
        err = np.linalg.norm(a - approx)
        for _ in range(20):
            p = complex_gaussian(8, k, rng) @ complex_gaussian(8, k, rng).conj().T
            assert err <= np.linalg.norm(a - p) + 1e-9


def test_truncated_svd_k_out_of_range():
    with pytest.raises(DimensionError):
        truncated_svd(np.eye(3), 4)
    with pytest.raises(DimensionError):
        truncated_svd(np.eye(3), 0)


def test_randomized_svd_exact_rank():
    u = complex_gaussian(8, 2, seed=3)
    v = complex_gaussian(8, 2, seed=4)
    a = u @ v.conj().T
    res = randomized_svd(a, 2, seed=0)
    assert np.linalg.norm(a - res.reconstruct()) <= 1e-8 * np.linalg.norm(a)


def test_randomized_svd_zero_matrix():
    res = randomized_svd(np.zeros((4, 4)), 1, seed=0)
    assert np.allclose(res.singular_values, [0.0])


def test_randomized_svd_matches_truncated_on_decaying_spectrum():
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(complex_gaussian(16, 16, rng))
    v, _ = np.linalg.qr(complex_gaussian(64, 16, rng))
    s = 2.0 ** -np.arange(16)
    a = (u * s) @ v[:, :16].conj().T
    top = truncated_svd(a, 4).singular_values
    approx = randomized_svd(a, 4, seed=1).singular_values
    assert np.allclose(approx, top, rtol=1e-6)


def test_pseudo_inverse_invertible():
    a = np.array([[2.0, 1j], [-1j, 3.0]])
    assert np.allclose(pseudo_inverse(a) @ a, np.eye(2), atol=1e-12)


def test_pseudo_inverse_rank_one():
    u = np.array([1.0, 2j, 0.5])
    v = np.array([0.3, -1.0])
    a = np.outer(u, v.conj())
    sigma2 = (np.linalg.norm(u) * np.linalg.norm(v)) ** 2
    expected = np.outer(v, u.conj()) / sigma2
    assert np.allclose(pseudo_inverse(a), expected, atol=1e-12)
    assert np.allclose(a @ pseudo_inverse(a) @ a, a, atol=1e-12)


@pytest.mark.parametrize("shape,rank", [((5, 8), 3), ((6, 6), 6), ((7, 4), 2)])
def test_pseudo_inverse_penrose_conditions(shape, rank):
    a = (complex_gaussian(shape[0], rank, seed=11)
         @ complex_gaussian(shape[1], rank, seed=12).conj().T)
    p = pseudo_inverse(a)
    scale = np.linalg.norm(a)
    assert np.linalg.norm(a @ p @ a - a) <= 1e-10 * scale
    assert np.linalg.norm(p @ a @ p - p) <= 1e-10 * np.linalg.norm(p)
    assert np.linalg.norm((a @ p).conj().T - a @ p) <= 1e-10
    assert np.linalg.norm((p @ a).conj().T - p @ a) <= 1e-10


def test_least_squares_invertible():
    a = complex_gaussian(4, 4, seed=13)
    b = complex_gaussian(4, 2, seed=14)
    assert np.allclose(least_squares(a, b), np.linalg.solve(a, b), atol=1e-10)


def test_least_squares_orthonormal_columns():
    q, _ = np.linalg.qr(complex_gaussian(6, 3, seed=15))
    b = complex_gaussian(6, 2, seed=16)
    assert np.allclose(least_squares(q, b), q.conj().T @ b, atol=1e-12)


def test_least_squares_matches_normal_equations():
    # oracle: (A^H A)^-1 A^H B for a well-conditioned overdetermined system
    a = complex_gaussian(20, 5, seed=17)
    b = complex_gaussian(20, 3, seed=18)
    x = least_squares(a, b)
    oracle = np.linalg.solve(a.conj().T @ a, a.conj().T @ b)
    assert np.allclose(x, oracle, atol=1e-9)
    resid = a.conj().T @ (a @ x - b)
    assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(b)


def test_least_squares_shape_mismatch():
    with pytest.raises(DimensionError):
        least_squares(np.eye(3), np.ones((4, 1)))


def test_cholesky_solve_normal_equations():
    a = complex_gaussian(20, 5, seed=19)
    b = complex_gaussian(20, 3, seed=20)
    x = cholesky_solve(a.conj().T @ a, a.conj().T @ b)
    assert np.linalg.norm(x - least_squares(a, b)) <= 1e-12 * np.linalg.norm(x)
    vec = cholesky_solve(a.conj().T @ a, a.conj().T @ b[:, 0])
    assert vec.shape == (5,) and np.allclose(vec, x[:, 0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("a", [
    np.diag([1.0, 1.0, 0.0]),               # singular
    np.diag([1.0, -1.0, 1.0]),              # indefinite
    np.diag([1.0, 1.0, 1e-9]),              # diagonal ratio sqrt(1e9) > 1e4
    np.diag([1.0, np.nan, 1.0]),
])
def test_cholesky_solve_rejects_invalid_systems(a):
    assert cholesky_solve(a, np.ones(3)) is None


def test_complex_gaussian_deterministic_and_seed_sensitive():
    a = complex_gaussian(5, 5, seed=0)
    b = complex_gaussian(5, 5, seed=0)
    c = complex_gaussian(5, 5, seed=1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_complex_gaussian_moments():
    z = complex_gaussian(1000, 1, seed=2)
    assert abs(z.mean()) <= 0.15
    assert 0.85 <= np.mean(np.abs(z) ** 2) <= 1.15


def test_cmx_roundtrip(tmp_path):
    a = complex_gaussian(3, 5, seed=21)
    path = tmp_path / "m.cmx"
    save_cmx(path, a)
    assert np.array_equal(load_cmx(path), a)


def test_cmx_layout(tmp_path):
    # header magic + little-endian dims, column-major payload of (re, im)
    a = np.array([[1 + 2j, 3 + 4j]])
    path = tmp_path / "m.cmx"
    save_cmx(path, a)
    raw = path.read_bytes()
    magic, rows, cols = struct.unpack("<4sQQ", raw[:20])
    assert magic == b"CMX1" and (rows, cols) == (1, 2)
    floats = struct.unpack("<4d", raw[20:])
    assert floats == (1.0, 2.0, 3.0, 4.0)


def test_cmx_bad_magic(tmp_path):
    path = tmp_path / "bad.cmx"
    path.write_bytes(b"NOPE" + b"\0" * 16)
    with pytest.raises(DimensionError):
        load_cmx(path)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 4), cols=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_cmx_every_truncation_raises(tmp_path_factory, rows, cols, seed):
    a = complex_gaussian(rows, cols, seed)
    path = tmp_path_factory.mktemp("cmx") / "m.cmx"
    save_cmx(path, a)
    raw = path.read_bytes()
    assert np.array_equal(load_cmx(path), a)
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(DimensionError):
            load_cmx(path)


_CMX_HEADERS = st.one_of(
    st.binary(max_size=24),
    st.builds(lambda r, c: struct.pack("<4sQQ", b"CMX1", r, c),
              st.integers(0, 2 ** 64 - 1) | st.integers(0, 4),
              st.integers(0, 2 ** 64 - 1) | st.integers(0, 4)))


@settings(max_examples=300, deadline=None)
@given(header=_CMX_HEADERS, payload=st.binary(max_size=300))
@example(header=struct.pack("<4sQQ", b"CMX1", 2 ** 32, 2 ** 32), payload=b"")
@example(header=struct.pack("<4sQQ", b"CMX1", 1, 2), payload=bytes(32))
def test_cmx_arbitrary_header_returns_file_contents_or_raises(tmp_path_factory, header,
                                                              payload):
    path = tmp_path_factory.mktemp("cmx") / "m.cmx"
    raw = header + payload
    path.write_bytes(raw)
    try:
        a = load_cmx(path)
    except DimensionError:
        return
    _, rows, cols = struct.unpack("<4sQQ", raw[:20])
    assert a.shape == (rows, cols)
    assert a.astype("<c16").tobytes(order="F") == raw[20:]
