"""Deterministic completion of the full reshaped matrix from one block row.

Given an estimate of one block row of the Hermitian N^2 x N^2 reshaped
matrix, as one N x N^2 array, and provided the row's diagonal block has full
rank r, the whole matrix is recovered without further optimization: a rank-r
randomized SVD of the row yields the shared row basis J^H, Hermitian symmetry
supplies the anchor column, and each remaining block row is the
pseudo-inverse projection of its anchor-column block onto the basis. The
output has rank exactly r because every row is a linear combination of the r
basis rows.
"""

from __future__ import annotations

import numpy as np

from .errors import AssumptionViolationError, DimensionError
from .linalg import pseudo_inverse, randomized_svd
from .reshaping import ReshapedMatrix

__all__ = ["reconstruct_full"]


def reconstruct_full(row, r: int, rtol: float | None = None,
                     anchor: int = 0, hermitize: bool = False,
                     svd_seed: int = 0) -> ReshapedMatrix:
    """Rebuild the N^2 x N^2 matrix from its anchor-th block row.

    row is the N x N^2 matrix [K_{a,0}, ..., K_{a,N-1}] of anchor row a
    (0-based), with finite entries. The diagonal block K_{a,a} must have r
    singular values above rtol * sigma_max (default rtol: max(N^2, r) *
    machine epsilon); otherwise an AssumptionViolationError reports the
    observed numerical rank. hermitize=True averages the result with its
    adjoint, which may break the exact rank-r structure and is off by
    default.
    """
    row = np.ascontiguousarray(row, dtype=np.complex128)
    if row.ndim != 2 or row.size == 0 or row.shape[1] != row.shape[0] ** 2:
        raise DimensionError(f"row of shape {row.shape} is not N x N^2")
    if not np.all(np.isfinite(row)):
        raise DimensionError("row holds non-finite entries")
    n = row.shape[0]
    if not 0 <= anchor < n:
        raise DimensionError(f"anchor {anchor} out of [0, {n})")
    if not 1 <= r <= n:
        raise DimensionError(f"rank {r} out of range for block size {n}")
    if rtol is None:
        rtol = max(n * n, r) * np.finfo(np.float64).eps
    a = slice(anchor * n, (anchor + 1) * n)

    svals = np.linalg.svd(row[:, a], compute_uv=False)
    observed = int(np.count_nonzero(svals > rtol * svals[0])) if svals[0] > 0 else 0
    if observed < r:
        raise AssumptionViolationError(
            f"anchor diagonal block has numerical rank {observed} < r={r} "
            f"at rtol={rtol:.3e}", observed_rank=observed)

    svd = randomized_svd(row, r, seed=svd_seed)
    j = svd.right                                         # N^2 x r
    proj = pseudo_inverse(j[a, :].conj().T, rtol)         # N x r
    j_h = j.conj().T

    out = np.empty((n * n, n * n), dtype=np.complex128)
    out[a, :] = svd.reconstruct()
    for k in range(n):
        if k == anchor:
            continue
        col_block = row[:, k * n:(k + 1) * n].conj().T    # K_{k,a} = K_{a,k}^H
        out[k * n:(k + 1) * n, :] = (col_block @ proj) @ j_h
    if hermitize:
        out = (out + out.conj().T) / 2
    return ReshapedMatrix(n, out)
