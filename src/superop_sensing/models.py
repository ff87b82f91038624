"""Ground-truth superoperator models and random instance generators.

A superoperator is kept in signed Kraus form,

    S rho = sum_k V_k rho V_k^H - sum_k U_k rho U_k^H,

with the combined operator set orthogonal in the Hilbert-Schmidt inner
product, so the reshaped matrix has rank r_+ + r_- with eigenvalue signs
matching the split. Every truth is given as a few vectors (a Lindbladian's
vec Q, vec I and vec J_k, a channel's Kraus operators, a `haar` truth's
Haar isometry) and is split from a thin QR of those vectors and the
eigendecomposition of a small core matrix, without forming its N^2 x N^2
reshaped matrix; only a reshaped matrix given densely
(superop_from_reshaped) is eigendecomposed as such. Lindbladians are stored
as (H, jump operators); their reshaped matrix generically has N_J + 1
positive and one negative eigenvalue.

Random states and observables are drawn as stacks (`random_density`,
`random_observable` with a count, `random_pairs`) from standard-normal
planes drawn _STACK_CHUNK matrices at a time into one reused buffer, which
gives bitwise the values of one draw. Each chunk is written straight into
its output stack, with the 1/sqrt(2) scalings as float multiplies by the
reciprocal, which is bitwise what numpy's complex-by-real division
computes; so a design exists once, beside at most one chunk of planes.
A blockwise design keeps only its observables' real coordinates (see
`measurements`), and `_observable_coords` draws those from the same
planes without making the stack: at N = 25, M_O = 640 the design stage's
traced peak is 3.84 MiB, C (3.05) and one chunk of planes, where drawing
the 6.1 MiB stack made it 6.88; at N = 64, M_O = 1640, 57.9 against 109.
`apply_superop` takes one state or a stack of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpectrumError, DimensionError, _check_fields
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
    "random_pairs",
    "haar_low_rank_hermitian",
    "haar_isometry",
    "draw_truth",
]

TASKS = ("channel", "lindbladian", "haar")

# relative eigenvalue cutoff for counting signed Kraus terms
_RANK_TOL = 1e-10

# matrices per chunk of a state or observable stack: drawn this many at a
# time here, and checked this many at a time by `measurements.SensingDesign`,
# so the temporaries of building or checking a design stay one chunk
_STACK_CHUNK = 64
# what numpy's division of a complex array by np.sqrt(2.0) multiplies by
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass
class Superoperator:
    """Signed Kraus form: positive-part operators V_k and negative-part U_k."""

    dim_n: int
    plus_ops: list = field(default_factory=list)
    minus_ops: list = field(default_factory=list)

    def __post_init__(self):
        _check_fields(vars(self), {"dim_n": 1})
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
    """Evaluate S rho = sum V_k rho V_k^H - sum U_k rho U_k^H, on one N x N
    matrix or on each matrix of a (..., N, N) stack (each bitwise its own
    call)."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim < 2 or rho.shape[-2:] != (s.dim_n, s.dim_n):
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


def _signed_kraus(n: int, vecs, core, expected_rank: int | None = None) -> Superoperator:
    """Split the Hermitian reshaped matrix K = vecs core vecs^H into
    orthogonal signed Kraus operators.

    vecs is N^2 x k and core a Hermitian k x k matrix. A thin QR vecs = Q R
    gives K = Q (R core R^H) Q^H, so the eigenpairs of K are those of the
    k x k matrix R core R^H with eigenvectors mapped through Q, and K itself
    is never formed. Eigenvectors with |eigenvalue| above
    _RANK_TOL * max|eigenvalue| become operators scaled by sqrt(|eigenvalue|),
    in descending |eigenvalue| order, positive eigenvalues in the plus set and
    negative ones in the minus set.
    """
    q, rmat = np.linalg.qr(vecs)
    evals, evecs = np.linalg.eigh(rmat @ core @ rmat.conj().T)
    evecs = q @ evecs
    scale = np.max(np.abs(evals)) if evals.size else 0.0
    keep = np.abs(evals) > _RANK_TOL * scale
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
    return Superoperator(n, plus, minus)


def lindblad_canonical(lind: Lindbladian) -> Superoperator:
    """Signed Kraus form of a Lindbladian, r_+ = N_J + 1 and r_- = 1 generically.

    The reshaped matrix is vec(Q)vec(I)^H + vec(I)vec(Q)^H
    + sum vec(J_k)vec(J_k)^H, split from its N_J + 2 vectors. Raises
    DegenerateSpectrumError when the jump set is degenerate enough to drop
    its numerical rank below N_J + 2.
    """
    n, n_jumps = lind.dim_n, len(lind.jumps)
    vecs = np.column_stack([vec(_q_operator(lind)), vec(np.eye(n))]
                           + [vec(j) for j in lind.jumps])
    core = np.eye(n_jumps + 2)
    core[:2, :2] = [[0, 1], [1, 0]]
    return _signed_kraus(n, vecs, core, expected_rank=n_jumps + 2)


def superop_from_reshaped(resh: ReshapedMatrix) -> Superoperator:
    """Signed Kraus form of an arbitrary Hermitian reshaped matrix."""
    return _signed_kraus(resh.dim_n, np.eye(resh.dim_n ** 2), resh.matrix)


def random_channel(n: int, kraus_rank: int, seed: int) -> Superoperator:
    """Random trace-preserving channel with the given Kraus rank.

    Stacks kraus_rank blocks of the polar factor of an (r*n) x n complex
    Gaussian matrix, which makes sum V_k^H V_k the identity exactly, then
    re-extracts a Hilbert-Schmidt-orthogonal Kraus set from those operators
    (same channel, orthogonal operators).
    """
    _check_fields({"n": n, "kraus_rank": kraus_rank}, {"n": 1, "kraus_rank": 1})
    if kraus_rank > n * n:
        raise DimensionError(f"kraus_rank={kraus_rank} out of range for n={n}")
    rng = np.random.default_rng(seed)
    g = complex_gaussian(kraus_rank * n, n, rng)
    # polar factor W = G (G^H G)^(-1/2); W^H W = I
    evals, evecs = np.linalg.eigh(g.conj().T @ g)
    inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.conj().T
    w = g @ inv_sqrt
    vecs = np.column_stack([vec(w[k * n:(k + 1) * n, :]) for k in range(kraus_rank)])
    return _signed_kraus(n, vecs, np.eye(kraus_rank), expected_rank=kraus_rank)


def random_lindbladian(n: int, n_jumps: int, seed: int) -> Lindbladian:
    """Random Lindbladian: unit-Frobenius Hermitian H and Gaussian jumps."""
    _check_fields({"n": n, "n_jumps": n_jumps}, {"n": 1, "n_jumps": 1})
    rng = np.random.default_rng(seed)
    g = complex_gaussian(n, n, rng)
    h = (g + g.conj().T) / 2
    h /= np.linalg.norm(h)
    jumps = []
    for _ in range(n_jumps):
        j = complex_gaussian(n, n, rng)
        jumps.append(j / np.linalg.norm(j))
    return Lindbladian(h, jumps)


def _empty_stack(n: int, m) -> np.ndarray:
    """An uninitialized complex (m, n, n) stack; m=None gives one matrix."""
    _check_fields({"n": n}, {"n": 2})
    if m is not None:
        _check_fields({"m": m}, {"m": 1})
    return np.empty((m or 1, n, n), dtype=np.complex128)


def _planes(seed, count: int, k: int, n: int):
    """Yield (rows, planes): the (count, 2k, n, n) standard-normal draw,
    _STACK_CHUNK rows at a time from one generator into one reused buffer
    (bitwise one draw), scaled by 1/sqrt(2) as `linalg.complex_gaussian`
    scales them. Per row the real and then the imaginary plane of each of
    the k matrices in turn, the order of k `complex_gaussian(n, n)` calls.
    planes is valid until the next chunk is drawn."""
    rng = np.random.default_rng(seed)
    buf = np.empty((min(_STACK_CHUNK, count), 2 * k, n, n))
    for start in range(0, count, _STACK_CHUNK):
        planes = buf[:count - start]
        rng.standard_normal(out=planes)
        planes *= _INV_SQRT2
        yield slice(start, start + len(planes)), planes


def _densities_into(out, re, im) -> None:
    """G G^H / tr(G G^H) into the (c, n, n) stack out, G = re + i im."""
    g = np.empty_like(out)
    g.real, g.imag = re, im
    np.matmul(g, g.conj().transpose(0, 2, 1), out=out)
    out /= np.trace(out, axis1=1, axis2=2).real[:, None, None]


def _observables_into(out, re, im) -> None:
    """(G + G^H)/sqrt(2) into the (c, n, n) stack out, G = re + i im: the
    real and imaginary parts straight from the planes, so both triangles
    come from the same additions and O = O^H exactly."""
    np.add(re, re.transpose(0, 2, 1), out=out.real)
    np.subtract(im, im.transpose(0, 2, 1), out=out.imag)
    flat = out.view(np.float64)
    flat *= _INV_SQRT2


def _observable_coords(n: int, seed, m: int) -> np.ndarray:
    """The real coordinates C (m x n^2 float64; see `measurements`) of
    `random_observable(n, seed, m)`'s stack, bitwise, drawn from the same
    planes without making the stack: Re O = (re + re^T)/sqrt(2) on and
    above the diagonal and Im O = (im - im^T)/sqrt(2) below it, by the
    additions and the scaling `_observables_into` makes."""
    _check_fields({"n": n, "m": m}, {"n": 2, "m": 1})
    coords = np.empty((m, n, n))
    below = np.tri(n, k=-1, dtype=bool)
    for rows, planes in _planes(seed, m, 1, n):
        re, im, out = planes[:, 0], planes[:, 1], coords[rows]
        np.add(re, re.transpose(0, 2, 1), out=out)
        np.subtract(im, im.transpose(0, 2, 1), out=out, where=below)
        out *= _INV_SQRT2
    return coords.reshape(m, n * n)


def random_density(n: int, seed, m: int | None = None) -> np.ndarray:
    """Random density matrix G G^H / tr(G G^H): Hermitian, PSD, unit trace.

    With a count m, an (m, n, n) stack drawn in chunks, bitwise the
    matrices of m calls on the same generator.
    """
    rho = _empty_stack(n, m)
    for rows, planes in _planes(seed, len(rho), 1, n):
        _densities_into(rho[rows], planes[:, 0], planes[:, 1])
    return rho if m is not None else rho[0]


def random_observable(n: int, seed, m: int | None = None) -> np.ndarray:
    """Random Hermitian observable O = (G + G^H)/sqrt(2), G complex Gaussian.

    Entries have unit variance (Frobenius norm concentrates at N), matching
    the scale of the generic Hermitian ensembles used to benchmark noisy
    recovery; divide by the norm if a unit-norm observable is needed. With
    a count m, an (m, n, n) stack drawn in chunks, bitwise the matrices of
    m calls on the same generator; the stack is the only array the size of
    the design.
    """
    obs = _empty_stack(n, m)
    for rows, planes in _planes(seed, len(obs), 1, n):
        _observables_into(obs[rows], planes[:, 0], planes[:, 1])
    return obs if m is not None else obs[0]


def random_pairs(n: int, m: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """m (density, observable) pairs as two (m, n, n) stacks drawn in
    chunks, bitwise those of m alternating `random_density` and
    `random_observable` calls on the same generator."""
    states, obs = _empty_stack(n, m), _empty_stack(n, m)
    for rows, planes in _planes(seed, len(states), 2, n):
        _densities_into(states[rows], planes[:, 0], planes[:, 1])
        _observables_into(obs[rows], planes[:, 2], planes[:, 3])
    return states, obs


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
    (r_plus, r_minus): the reshaped matrix of `draw_truth`'s `haar` truth of
    the same seed, bitwise."""
    return choi_reshape(draw_truth("haar", n, seed, r_plus=r_plus, r_minus=r_minus))


def draw_truth(task: str, n: int, seed: int, kraus_rank: int = 0, n_jumps: int = 0,
               r_plus: int = 0, r_minus: int = 0) -> Superoperator:
    """Signed Kraus form of a drawn truth; `reshaping.choi_reshape` builds
    its N^2 x N^2 reshaped matrix.

    `channel` reads kraus_rank, `lindbladian` n_jumps, `haar` r_plus and
    r_minus. A `haar` truth has Haar eigenvectors (the isometry P, N^2 x r)
    and eigenvalues d = sign * (|N(0,1)| + 0.5), bounded away from zero so
    the signature is numerically unambiguous and every N x N block of its
    matrix has full rank r with probability one; it is split from P and
    diag(d). A rank the N^2 x N^2 matrix cannot have (kraus_rank,
    n_jumps + 2 or r_plus + r_minus above N^2) raises DimensionError.
    """
    if task == "channel":
        return random_channel(n, kraus_rank, seed)
    if task == "lindbladian":
        lindbladian = random_lindbladian(n, n_jumps, seed)
        if n_jumps + 2 > n * n:
            raise DimensionError(f"n_jumps + 2 = {n_jumps + 2} exceeds n**2 = {n * n}")
        return lindblad_canonical(lindbladian)
    if task != "haar":
        raise DimensionError(f"unknown task {task!r}")
    _check_fields({"n": n}, {"n": 1})
    r = r_plus + r_minus
    if r < 1 or r > n * n:
        raise DimensionError(f"rank {r} out of range for n={n}")
    rng = np.random.default_rng(seed)
    p = haar_isometry(n * n, r, rng)
    mags = np.abs(rng.standard_normal(r)) + 0.5
    signs = np.concatenate([np.ones(r_plus), -np.ones(r_minus)])
    return _signed_kraus(n, p, np.diag(mags * signs), expected_rank=r)
