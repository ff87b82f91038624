"""Vectorization and reshaping calculus for superoperators.

Conventions: vec stacks columns first (Fortran order). A superoperator K
acting on N x N matrices has an N^2 x N^2 matrix representation `mat` with
vec(K rho) = mat @ vec(rho). The rearrangement R permutes the entries of an
N^2 x N^2 matrix so that R(B x C) = vec(C) vec(B)^T; applied to `mat` it
produces the Hermitian reshaped (Choi-like) matrix whose rank equals the
number of signed Kraus terms. R is linear, Frobenius-isometric and an
involution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .linalg import FactorPair

__all__ = [
    "ReshapedMatrix",
    "vec",
    "unvec",
    "hs_inner",
    "kron",
    "reshape_R",
    "superop_matrix",
    "choi_factors",
    "choi_reshape",
]


@dataclass
class ReshapedMatrix:
    """An N^2 x N^2 reshaped superoperator matrix over an N-dimensional space."""

    dim_n: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.complex128)
        n2 = self.dim_n * self.dim_n
        if self.matrix.shape != (n2, n2):
            raise DimensionError(
                f"reshaped matrix must be {n2}x{n2} for dim_n={self.dim_n}, "
                f"got {self.matrix.shape}")

    def block(self, i: int, j: int) -> np.ndarray:
        """The (i, j)-th N x N sub-block, 0-based."""
        n = self.dim_n
        return self.matrix[i * n:(i + 1) * n, j * n:(j + 1) * n]


def vec(a) -> np.ndarray:
    """Column-first stacking of a square matrix into a vector."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"vec expects a square matrix, got {a.shape}")
    return a.reshape(-1, order="F")


def unvec(v) -> np.ndarray:
    """Inverse of vec: a length-N^2 vector back to an N x N matrix."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    n = math.isqrt(v.size)
    if n * n != v.size:
        raise DimensionError(f"vector length {v.size} is not a perfect square")
    return v.reshape((n, n), order="F")


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product tr[A^H B] = sum conj(A_ij) B_ij."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def kron(b, c) -> np.ndarray:
    """Kronecker product; satisfies vec(A X B) = kron(B^T, A) @ vec(X)."""
    return np.kron(np.asarray(b, dtype=np.complex128),
                   np.asarray(c, dtype=np.complex128))


def reshape_R(a) -> np.ndarray:
    """Rearrange an N^2 x N^2 matrix by vectorizing its N x N blocks to columns.

    The (k, l) element of block (i, j) moves to row l*N + k, column j*N + i
    (0-based), i.e. the block-row index and within-block column index swap
    roles.  A pure entry permutation, hence a Frobenius isometry, and its own
    inverse.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"reshape expects a square matrix, got {a.shape}")
    n = math.isqrt(a.shape[0])
    if n * n != a.shape[0]:
        raise DimensionError(f"side {a.shape[0]} is not a perfect square")
    blocks = a.reshape(n, n, n, n)          # [i, k, j, l]
    return blocks.transpose(3, 1, 2, 0).reshape(n * n, n * n)


def superop_matrix(s) -> np.ndarray:
    """Matrix representation of a signed-Kraus superoperator on vec'd inputs.

    mat = sum_k conj(V_k) x V_k - sum_k conj(U_k) x U_k, so that
    vec(S rho) = mat @ vec(rho).
    """
    n = s.dim_n
    mat = np.zeros((n * n, n * n), dtype=np.complex128)
    for v in s.plus_ops:
        _check_op(v, n)
        mat += np.kron(v.conj(), v)
    for u in s.minus_ops:
        _check_op(u, n)
        mat -= np.kron(u.conj(), u)
    return mat


def choi_factors(s) -> FactorPair:
    """The reshaped (Choi-like) matrix of a signed-Kraus superoperator as
    the factor pair (W s, W): W is the N^2 x k matrix of the vectorized
    operators, s their signs, and the product (W s) W^H is
    sum vec(V_k)vec(V_k)^H - sum vec(U_k)vec(U_k)^H, which equals
    reshape_R(superop_matrix(s)) without forming any Kronecker product."""
    n = s.dim_n
    ops = s.plus_ops + s.minus_ops
    w = np.empty((n * n, len(ops)), dtype=np.complex128)
    for k, op in enumerate(ops):
        _check_op(op, n)
        w[:, k] = vec(op)
    signs = np.repeat([1.0, -1.0], [len(s.plus_ops), len(s.minus_ops)])
    return FactorPair(w * signs, w)


def choi_reshape(s) -> ReshapedMatrix:
    """Reshaped (Choi-like) matrix of a signed-Kraus superoperator: the
    product of `choi_factors(s)`, its only N^2 x N^2 array. Hermitian to
    roundoff: entries (i, j) and (j, i) sum the same products, but the
    product kernel may round them differently.
    """
    return ReshapedMatrix(s.dim_n, choi_factors(s).product())


def _check_op(op, n: int) -> None:
    if np.shape(op) != (n, n):
        raise DimensionError(f"operator shape {np.shape(op)} != ({n}, {n})")
