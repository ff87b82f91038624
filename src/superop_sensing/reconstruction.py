"""Deterministic completion of the full reshaped matrix from one block row.

Given an estimate of one block row of the Hermitian N^2 x N^2 reshaped
matrix, as one N x N^2 array, and provided the row's diagonal block has full
rank r, the whole matrix is recovered without further optimization: the
exact rank-r SVD of the row (only N x N^2, so a sketch would save nothing)
yields the shared row basis J^H, Hermitian symmetry supplies the anchor
column, and every block row is the pseudo-inverse projection of its
anchor-column block onto the basis. The result has rank exactly r because
every row is a linear combination of the r basis rows.

The completion is returned as those rank-r factors, K = L J^H with
L = row^H proj (N^2 x r) and the anchor rows of L set to the SVD's left
vectors times its singular values. No N^2 x N^2 array is made until a
caller reads `.matrix`. A full-width row block L[blk] J^H is bitwise those
rows of the whole product, and the product is bitwise the old dense
completion, whose anchor rows were the SVD's own product (measured at
N = 3, 4, 5, 16 and 25, and pinned by the tests), so a scorer reads the
dense matrix one row block at a time without building it. A
hermitized completion is a factor pair too: (K + K^H) / 2 is
([L, J] / 2) [J, L]^H, of rank at most 2r, the halving exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AssumptionViolationError, DimensionError, _check_fields
from .linalg import FactorPair, pseudo_inverse, truncated_svd

__all__ = ["CompletedMatrix", "reconstruct_full"]


@dataclass
class CompletedMatrix:
    """The completed N^2 x N^2 matrix as its factors, K = L J^H
    (`factors.left` L, `factors.right` J)."""

    dim_n: int
    factors: FactorPair

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense N^2 x N^2 matrix, built on first read."""
        return self.factors.product()

    def block(self, i: int, j: int) -> np.ndarray:
        """The (i, j)-th N x N sub-block of `matrix`, 0-based."""
        n = self.dim_n
        return self.matrix[i * n:(i + 1) * n, j * n:(j + 1) * n]


def reconstruct_full(row, r: int, rtol: float | None = None,
                     anchor: int = 0, hermitize: bool = False) -> CompletedMatrix:
    """Rebuild the N^2 x N^2 matrix from its anchor-th block row.

    row is the N x N^2 matrix [K_{a,0}, ..., K_{a,N-1}] of anchor row a
    (0-based), with finite entries. The diagonal block K_{a,a} must have r
    singular values above rtol * sigma_max (default rtol: max(N^2, r) *
    machine epsilon; a given rtol must be finite and nonnegative); otherwise
    an AssumptionViolationError reports the observed numerical rank.
    Returns the completion's rank-r factors. hermitize=True returns those
    of (K + K^H) / 2 instead, the rank-2r pair [L, J] / 2 and [J, L]; that
    may break the exact rank-r structure and is off by default.
    """
    row = np.ascontiguousarray(row, dtype=np.complex128)
    if row.ndim != 2 or row.size == 0 or row.shape[1] != row.shape[0] ** 2:
        raise DimensionError(f"row of shape {row.shape} is not N x N^2")
    if not np.all(np.isfinite(row)):
        raise DimensionError("row holds non-finite entries")
    n = row.shape[0]
    _check_fields({"anchor": anchor, "r": r}, {"anchor": 0, "r": 1})
    if anchor >= n:
        raise DimensionError(f"anchor {anchor} out of [0, {n})")
    if r > n:
        raise DimensionError(f"rank {r} out of range for block size {n}")
    if rtol is None:
        rtol = max(n * n, r) * np.finfo(np.float64).eps
    elif not 0 <= rtol < np.inf:                           # NaN fails too
        raise DimensionError(f"rtol must be finite and nonnegative, got {rtol}")
    a = slice(anchor * n, (anchor + 1) * n)

    svals = np.linalg.svd(row[:, a], compute_uv=False)
    observed = int(np.count_nonzero(svals > rtol * svals[0])) if svals[0] > 0 else 0
    if observed < r:
        raise AssumptionViolationError(
            f"anchor diagonal block has numerical rank {observed} < r={r} "
            f"at rtol={rtol:.3e}", observed_rank=observed)

    svd = truncated_svd(row, r)
    j_h = svd.right.conj().T                              # r x N^2
    proj = pseudo_inverse(j_h[:, a], rtol)                # N x r
    # block k of row^H is K_{k,a} = K_{a,k}^H; the anchor rows come from the SVD
    left = row.conj().T @ proj
    left[a] = svd.left * svd.singular_values
    if hermitize:                       # K + K^H = [L, J] [J, L]^H
        return CompletedMatrix(n, FactorPair(np.hstack([left, svd.right]) / 2,
                                             np.hstack([svd.right, left])))
    return CompletedMatrix(n, FactorPair(left, svd.right))

