"""Dense complex linear algebra used by every other module.

Thin wrappers around numpy's LAPACK bindings: an exact truncated SVD,
Moore-Penrose pseudo-inverse, minimum-norm least squares, a checked
Cholesky solve, and seeded complex Gaussian sampling, plus the CMX1 on-disk
matrix format.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, _check_fields

__all__ = [
    "SvdResult",
    "truncated_svd",
    "pseudo_inverse",
    "least_squares",
    "cholesky_solve",
    "complex_gaussian",
    "save_cmx",
    "load_cmx",
]

_CMX_MAGIC = b"CMX1"

# cholesky_solve's bound on max/min of the Cholesky diagonal; see there
_CHOLESKY_MAX_DIAG_RATIO = 1e4

# largest triangular block _lower_solve hands to an LU solve
_TRIANGULAR_LEAF = 48


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
    _check_fields({"k": k}, {"k": 1})
    if k > min(a.shape):
        raise DimensionError(f"k={k} out of range for shape {a.shape}")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return SvdResult(u[:, :k].copy(), s[:k].copy(), vh[:k].conj().T.copy())


def pseudo_inverse(a, rtol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with singular values below rtol*s_max dropped.

    Default rtol is max(a.shape) * machine epsilon, the usual numerical-rank
    convention; a given rtol must be finite and nonnegative.
    """
    a = _as_matrix(a)
    if rtol is None:
        rtol = max(a.shape) * np.finfo(np.float64).eps
    elif not 0 <= rtol < np.inf:                           # NaN fails too
        raise DimensionError(f"rtol must be finite and nonnegative, got {rtol}")
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


def _lower_solve(low, b):
    """Solve L X = B for square lower-triangular L by forward substitution on
    halves: X_1 from the leading block, then X_2 from the trailing block and
    B_2 - L_21 X_1. Blocks of at most _TRIANGULAR_LEAF rows are solved by LU
    (np.linalg.solve), so the work above a leaf is matrix products."""
    n = low.shape[0]
    if n <= _TRIANGULAR_LEAF:
        return np.linalg.solve(low, b)
    h = n // 2
    x1 = _lower_solve(low[:h, :h], b[:h])
    x2 = _lower_solve(low[h:, h:], b[h:] - low[h:, :h] @ x1)
    return np.concatenate((x1, x2))


def cholesky_solve(a, b):
    """Solve A X = B for Hermitian positive-definite A: (X, Y), with
    Y = L^-1 B, or (None, None).

    A is factored as L L^H (only its lower triangle is read) and X comes
    from two triangular solves, L Y = B and L^H X = Y; the second is the
    same forward substitution on L^H with rows and columns reversed, which
    is lower triangular and is read as a view of the factor conjugated in
    place, so no second N x N matrix is made. Y, the forward substitution,
    is returned beside X: with A = G^H G and B = G^H b, the residual at X
    is ||G X - b||^2 = ||b||^2 - ||Y||^2 (cf. Bjorck, "Numerical Methods
    for Least Squares Problems"). (None, None) means "not valid": the
    factorization failed, or the ratio of the largest to the smallest
    diagonal entry of L exceeds _CHOLESKY_MAX_DIAG_RATIO = 1e4. When A is
    the normal matrix G^H G of a least-squares problem in G, that ratio is
    a lower bound on cond(G), and solving through A instead of G loses
    about eps * cond(G)^2 in relative accuracy. A ratio above 1e4 thus
    flags a system where that loss would pass ~1e-8, still far under every
    noise floor the solvers meet, and sends rank-deficient or nearly
    collinear systems, where the normal equations are meaningless, to the
    caller's minimum-norm fallback. The check costs nothing beyond the
    factorization; it is not an estimate of cond(G). Scaling A by 4 and B
    by 2 halves X and keeps Y, exactly: every step scales by a power of
    two.
    """
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None, None
    diag = chol.diagonal().real
    if not diag.max() <= _CHOLESKY_MAX_DIAG_RATIO * diag.min():   # NaN fails too
        return None, None
    y = _lower_solve(chol, b)
    np.conjugate(chol, out=chol)   # L^H reversed is conj(L) reversed, transposed
    return _lower_solve(chol[::-1, ::-1].T, y[::-1])[::-1].copy(), y


def complex_gaussian(rows: int, cols: int, seed) -> np.ndarray:
    """iid standard complex Gaussian matrix: Re, Im ~ N(0, 1/2), so E|z|^2 = 1.

    `seed` may be an int or a numpy Generator (the latter is consumed).
    """
    _check_fields({"rows": rows, "cols": cols}, {"rows": 1, "cols": 1})
    rng = np.random.default_rng(seed)
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
