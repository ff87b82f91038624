"""Dense complex linear algebra used by every other module.

Thin wrappers around numpy's LAPACK bindings: truncated and randomized SVD,
Moore-Penrose pseudo-inverse, minimum-norm least squares, a checked
Cholesky solve, and seeded complex Gaussian sampling, plus the CMX1 on-disk
matrix format.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

__all__ = [
    "SvdResult",
    "truncated_svd",
    "randomized_svd",
    "pseudo_inverse",
    "least_squares",
    "cholesky_solve",
    "complex_gaussian",
    "save_cmx",
    "load_cmx",
]

_CMX_MAGIC = b"CMX1"

_SVD_OVERSAMPLE = 10    # randomized_svd sketch columns beyond k
_SVD_POWER_ITERS = 2

# cholesky_solve's bound on max/min of the Cholesky diagonal; see there
_CHOLESKY_MAX_DIAG_RATIO = 1e4


@dataclass
class SvdResult:
    """Top-k singular triplets: left (m, k), singular_values (k,), right (n, k).

    The factorization reconstructs as left @ diag(singular_values) @ right^H.
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular_values) @ self.right.conj().T


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.size == 0:
        raise DimensionError(f"expected a nonempty 2-d matrix, got shape {a.shape}")
    return a


def truncated_svd(a, k: int) -> SvdResult:
    """Exact top-k SVD of a dense complex matrix.

    Raises DimensionError unless 1 <= k <= min(a.shape).
    """
    a = _as_matrix(a)
    if not 1 <= k <= min(a.shape):
        raise DimensionError(f"k={k} out of range for shape {a.shape}")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return SvdResult(u[:, :k].copy(), s[:k].copy(), vh[:k].conj().T.copy())


def randomized_svd(a, k: int, seed: int = 0) -> SvdResult:
    """Approximate top-k SVD via a Gaussian range sketch with power iterations.

    Deterministic for a fixed seed. The sketch width k + _SVD_OVERSAMPLE is
    capped at min(a.shape); for matrices of exact rank <= k the result
    matches truncated_svd to roundoff.
    """
    a = _as_matrix(a)
    m, n = a.shape
    if not 1 <= k <= min(m, n):
        raise DimensionError(f"k={k} out of range for shape {a.shape}")
    ell = min(k + _SVD_OVERSAMPLE, min(m, n))
    omega = complex_gaussian(n, ell, seed)
    y = a @ omega
    q = np.linalg.qr(y)[0]
    for _ in range(_SVD_POWER_ITERS):
        q = np.linalg.qr(a.conj().T @ q)[0]
        q = np.linalg.qr(a @ q)[0]
    b = q.conj().T @ a
    ub, s, vh = np.linalg.svd(b, full_matrices=False)
    u = q @ ub
    return SvdResult(u[:, :k].copy(), s[:k].copy(), vh[:k].conj().T.copy())


def pseudo_inverse(a, rtol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with singular values below rtol*s_max dropped.

    Default rtol is max(a.shape) * machine epsilon, the usual numerical-rank
    convention.
    """
    a = _as_matrix(a)
    if rtol is None:
        rtol = max(a.shape) * np.finfo(np.float64).eps
    if rtol < 0:
        raise DimensionError("rtol must be nonnegative")
    return np.linalg.pinv(a, rcond=rtol)


def least_squares(a, b) -> np.ndarray:
    """Minimum-norm minimizer X of ||A X - B||_F.

    Uses the SVD-backed LAPACK driver, so rank-deficient systems get the
    minimum-norm solution rather than an error.
    """
    a = _as_matrix(a)
    b = np.asarray(b, dtype=np.complex128)
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, None]
    if b.shape[0] != a.shape[0]:
        raise DimensionError(f"row mismatch: A has {a.shape[0]}, B has {b.shape[0]}")
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    return x[:, 0] if squeeze else x


def cholesky_solve(a, b):
    """Solve A X = B for Hermitian positive-definite A, or return None.

    A is factored as L L^H (only its lower triangle is read) and X comes
    from the two triangular solves. None means "not valid": the
    factorization failed, or the ratio of the largest to the smallest
    diagonal entry of L exceeds _CHOLESKY_MAX_DIAG_RATIO = 1e4. When A is
    the normal matrix G^H G of a least-squares problem in G, that ratio is
    a lower bound on cond(G), and solving through A instead of G loses
    about eps * cond(G)^2 in relative accuracy. A ratio above 1e4 thus
    flags a system where that loss would pass ~1e-8, still far under every
    noise floor the solvers meet, and sends rank-deficient or nearly
    collinear systems, where the normal equations are meaningless, to the
    caller's minimum-norm fallback. The check costs nothing beyond the
    factorization; it is not an estimate of cond(G).
    """
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    diag = chol.diagonal().real
    if not diag.max() <= _CHOLESKY_MAX_DIAG_RATIO * diag.min():   # NaN fails too
        return None
    return np.linalg.solve(chol.conj().T, np.linalg.solve(chol, b))


def complex_gaussian(rows: int, cols: int, seed) -> np.ndarray:
    """iid standard complex Gaussian matrix: Re, Im ~ N(0, 1/2), so E|z|^2 = 1.

    `seed` may be an int or a numpy Generator (the latter is consumed).
    """
    if rows < 1 or cols < 1:
        raise DimensionError("rows and cols must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return z / np.sqrt(2.0)


def save_cmx(path, a) -> None:
    """Write a matrix in the CMX1 format.

    Layout: magic "CMX1", two little-endian uint64 (rows, cols), then
    rows*cols complex entries in column-major order, each a pair of
    little-endian IEEE-754 binary64 values (real, imaginary).
    """
    a = _as_matrix(a)
    rows, cols = a.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sQQ", _CMX_MAGIC, rows, cols))
        fh.write(np.asarray(a, dtype="<c16").tobytes(order="F"))


def load_cmx(path) -> np.ndarray:
    """Read a matrix written by save_cmx; a header whose nonempty size does
    not match the rest of the file raises DimensionError before any read."""
    with open(path, "rb") as fh:
        header = fh.read(20)
        if len(header) != 20:
            raise DimensionError(f"{path}: truncated CMX1 header")
        magic, rows, cols = struct.unpack("<4sQQ", header)
        if magic != _CMX_MAGIC:
            raise DimensionError(f"{path}: bad magic {magic!r}")
        size, held = 16 * rows * cols, os.fstat(fh.fileno()).st_size - 20
        if size == 0 or size != held:
            raise DimensionError(f"{path}: header declares {rows} x {cols} "
                                 f"({size} payload bytes), file holds {held}")
        data = fh.read(size)
    if len(data) != size:
        raise DimensionError(f"{path}: truncated CMX1 payload")
    flat = np.frombuffer(data, dtype="<c16")
    return flat.reshape((rows, cols), order="F").astype(np.complex128)
