"""Ground-truth superoperator models and random instance generators.

A superoperator is kept in signed Kraus form,

    S rho = sum_k V_k rho V_k^H - sum_k U_k rho U_k^H,

with the combined operator set orthogonal in the Hilbert-Schmidt inner
product, so the reshaped matrix has rank r_+ + r_- with eigenvalue signs
matching the split. Lindbladians are stored as (H, jump operators) and
converted to the signed form through the eigendecomposition of their
reshaped matrix, which generically has N_J + 1 positive and one negative
eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpectrumError, DimensionError
from .linalg import complex_gaussian
from .reshaping import ReshapedMatrix, choi_reshape, unvec, vec

__all__ = [
    "TASKS",
    "Superoperator",
    "Lindbladian",
    "apply_superop",
    "lindblad_apply",
    "lindblad_canonical",
    "superop_from_reshaped",
    "random_channel",
    "random_lindbladian",
    "random_density",
    "random_observable",
    "haar_low_rank_hermitian",
    "haar_isometry",
    "ground_truth",
]

TASKS = ("channel", "lindbladian", "haar")

# relative eigenvalue cutoff for counting signed Kraus terms
_RANK_TOL = 1e-10


@dataclass
class Superoperator:
    """Signed Kraus form: positive-part operators V_k and negative-part U_k."""

    dim_n: int
    plus_ops: list = field(default_factory=list)
    minus_ops: list = field(default_factory=list)

    def __post_init__(self):
        self.plus_ops = [np.asarray(v, dtype=np.complex128) for v in self.plus_ops]
        self.minus_ops = [np.asarray(u, dtype=np.complex128) for u in self.minus_ops]
        for op in self.plus_ops + self.minus_ops:
            if op.shape != (self.dim_n, self.dim_n):
                raise DimensionError(
                    f"operator shape {op.shape} != ({self.dim_n}, {self.dim_n})")

    @property
    def rank(self) -> int:
        return len(self.plus_ops) + len(self.minus_ops)


@dataclass
class Lindbladian:
    """Markovian generator data: Hermitian Hamiltonian plus jump operators."""

    hamiltonian: np.ndarray
    jumps: list = field(default_factory=list)

    def __post_init__(self):
        self.hamiltonian = np.asarray(self.hamiltonian, dtype=np.complex128)
        n = self.hamiltonian.shape[0]
        if self.hamiltonian.shape != (n, n):
            raise DimensionError(f"Hamiltonian must be square, got {self.hamiltonian.shape}")
        self.jumps = [np.asarray(j, dtype=np.complex128) for j in self.jumps]
        for j in self.jumps:
            if j.shape != (n, n):
                raise DimensionError(f"jump shape {j.shape} != ({n}, {n})")

    @property
    def dim_n(self) -> int:
        return self.hamiltonian.shape[0]


def apply_superop(s: Superoperator, rho) -> np.ndarray:
    """Evaluate S rho = sum V_k rho V_k^H - sum U_k rho U_k^H."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (s.dim_n, s.dim_n):
        raise DimensionError(f"state shape {rho.shape} != ({s.dim_n}, {s.dim_n})")
    out = np.zeros_like(rho)
    for v in s.plus_ops:
        out += v @ rho @ v.conj().T
    for u in s.minus_ops:
        out -= u @ rho @ u.conj().T
    return out


def lindblad_apply(lind: Lindbladian, rho) -> np.ndarray:
    """Evaluate the generator via its Q-form.

    With Q = -iH - (1/2) sum J_k^H J_k this is
    Q rho + rho Q^H + sum J_k rho J_k^H, equal to the commutator-plus-
    dissipator expression and exactly traceless on any input.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    n = lind.dim_n
    if rho.shape != (n, n):
        raise DimensionError(f"state shape {rho.shape} != ({n}, {n})")
    q = _q_operator(lind)
    out = q @ rho + rho @ q.conj().T
    for j in lind.jumps:
        out += j @ rho @ j.conj().T
    return out


def _q_operator(lind: Lindbladian) -> np.ndarray:
    q = -1j * lind.hamiltonian
    for j in lind.jumps:
        q -= 0.5 * (j.conj().T @ j)
    return q


def lindblad_reshaped(lind: Lindbladian) -> ReshapedMatrix:
    """Reshaped matrix of the generator, assembled from rank-one terms.

    vec(Q)vec(I)^H + vec(I)vec(Q)^H + sum vec(J_k)vec(J_k)^H; Hermitian with
    at most N_J + 2 nonzero eigenvalues.
    """
    n = lind.dim_n
    q = vec(_q_operator(lind))
    ident = vec(np.eye(n))
    mat = np.outer(q, ident.conj()) + np.outer(ident, q.conj())
    for j in lind.jumps:
        w = vec(j)
        mat += np.outer(w, w.conj())
    return ReshapedMatrix(n, mat)


def _signed_kraus_from_hermitian(resh: ReshapedMatrix, expected_rank: int | None = None,
                                 tol: float = _RANK_TOL) -> Superoperator:
    """Split a Hermitian reshaped matrix into orthogonal signed Kraus operators.

    Eigenvectors with |eigenvalue| above tol * max|eigenvalue| become
    operators scaled by sqrt(|eigenvalue|), positive eigenvalues in the plus
    set and negative ones in the minus set.
    """
    evals, evecs = np.linalg.eigh(resh.matrix)
    scale = np.max(np.abs(evals)) if evals.size else 0.0
    keep = np.abs(evals) > tol * scale
    if expected_rank is not None and int(np.count_nonzero(keep)) < expected_rank:
        raise DegenerateSpectrumError(
            f"reshaped matrix has numerical rank {int(np.count_nonzero(keep))}, "
            f"expected {expected_rank}")
    plus, minus = [], []
    order = np.argsort(-np.abs(evals))
    for idx in order:
        if not keep[idx]:
            continue
        op = unvec(np.sqrt(abs(evals[idx])) * evecs[:, idx])
        (plus if evals[idx] > 0 else minus).append(op)
    return Superoperator(resh.dim_n, plus, minus)


def lindblad_canonical(lind: Lindbladian) -> Superoperator:
    """Signed Kraus form of a Lindbladian, r_+ = N_J + 1 and r_- = 1 generically.

    Raises DegenerateSpectrumError when the jump set is degenerate enough to
    drop the numerical rank of the reshaped matrix below N_J + 2.
    """
    return _signed_kraus_from_hermitian(lindblad_reshaped(lind),
                                        expected_rank=len(lind.jumps) + 2)


def superop_from_reshaped(resh: ReshapedMatrix, tol: float = _RANK_TOL) -> Superoperator:
    """Signed Kraus form of an arbitrary Hermitian reshaped matrix."""
    return _signed_kraus_from_hermitian(resh, expected_rank=None, tol=tol)


def random_channel(n: int, kraus_rank: int, seed: int) -> Superoperator:
    """Random trace-preserving channel with the given Kraus rank.

    Stacks kraus_rank blocks of the polar factor of an (r*n) x n complex
    Gaussian matrix, which makes sum V_k^H V_k the identity exactly, then
    re-extracts a Hilbert-Schmidt-orthogonal Kraus set from the
    eigendecomposition of the reshaped matrix (same channel, orthogonal
    operators).
    """
    if not 1 <= kraus_rank <= n * n:
        raise DimensionError(f"kraus_rank={kraus_rank} out of range for n={n}")
    rng = np.random.default_rng(seed)
    g = complex_gaussian(kraus_rank * n, n, rng)
    # polar factor W = G (G^H G)^(-1/2); W^H W = I
    evals, evecs = np.linalg.eigh(g.conj().T @ g)
    inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.conj().T
    w = g @ inv_sqrt
    ops = [w[k * n:(k + 1) * n, :] for k in range(kraus_rank)]
    raw = Superoperator(n, ops, [])
    return _signed_kraus_from_hermitian(choi_reshape(raw), expected_rank=kraus_rank)


def random_lindbladian(n: int, n_jumps: int, seed: int) -> Lindbladian:
    """Random Lindbladian: unit-Frobenius Hermitian H and Gaussian jumps."""
    if n_jumps < 1:
        raise DimensionError("n_jumps must be >= 1")
    rng = np.random.default_rng(seed)
    g = complex_gaussian(n, n, rng)
    h = (g + g.conj().T) / 2
    h /= np.linalg.norm(h)
    jumps = []
    for _ in range(n_jumps):
        j = complex_gaussian(n, n, rng)
        jumps.append(j / np.linalg.norm(j))
    return Lindbladian(h, jumps)


def random_density(n: int, seed) -> np.ndarray:
    """Random density matrix G G^H / tr(G G^H): Hermitian, PSD, unit trace."""
    if n < 2:
        raise DimensionError("n must be >= 2")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = complex_gaussian(n, n, rng)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_observable(n: int, seed) -> np.ndarray:
    """Random Hermitian observable O = (G + G^H)/sqrt(2), G complex Gaussian.

    Entries have unit variance (Frobenius norm concentrates at N), matching
    the scale of the generic Hermitian ensembles used to benchmark noisy
    recovery; divide by the norm if a unit-norm observable is needed.
    """
    if n < 2:
        raise DimensionError("n must be >= 2")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = complex_gaussian(n, n, rng)
    return (g + g.conj().T) / np.sqrt(2.0)


def haar_isometry(dim: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """First r columns of a Haar-distributed unitary on C^dim.

    QR of a complex Gaussian with the R-diagonal phase fix.
    """
    g = complex_gaussian(dim, r, rng)
    q, rmat = np.linalg.qr(g)
    d = np.diagonal(rmat)
    return q * (d / np.abs(d))


def haar_low_rank_hermitian(n: int, r_plus: int, r_minus: int, seed: int) -> ReshapedMatrix:
    """Random Hermitian N^2 x N^2 matrix with Haar eigenvectors and signature
    (r_plus, r_minus).

    Eigenvalue magnitudes are drawn as |N(0,1)| + 0.5, bounded away from zero
    so the signature is numerically unambiguous; every N x N block then has
    full rank r with probability one.
    """
    r = r_plus + r_minus
    if r < 1 or r > n * n:
        raise DimensionError(f"rank {r} out of range for n={n}")
    rng = np.random.default_rng(seed)
    p = haar_isometry(n * n, r, rng)
    mags = np.abs(rng.standard_normal(r)) + 0.5
    signs = np.concatenate([np.ones(r_plus), -np.ones(r_minus)])
    d = mags * signs
    mat = (p * d) @ p.conj().T
    return ReshapedMatrix(n, mat)


def ground_truth(task: str, n: int, seed: int, kraus_rank: int = 0, n_jumps: int = 0,
                 r_plus: int = 0, r_minus: int = 0):
    """(signed Kraus superoperator, reshaped N^2 x N^2 matrix) of a drawn truth.

    `channel` reads kraus_rank, `lindbladian` n_jumps, `haar` r_plus and
    r_minus; a `haar` truth is the drawn matrix, not its Kraus form reshaped.
    """
    if task == "channel":
        s = random_channel(n, kraus_rank, seed)
    elif task == "lindbladian":
        s = lindblad_canonical(random_lindbladian(n, n_jumps, seed))
    elif task == "haar":
        resh = haar_low_rank_hermitian(n, r_plus, r_minus, seed)
        return superop_from_reshaped(resh), resh.matrix
    else:
        raise DimensionError(f"unknown task {task!r}")
    return s, choi_reshape(s).matrix
