"""Measurement designs and simulated data.

Two designs are supported. The random-pairs design draws M independent
(initial state, observable) pairs and records the real scalars
tr[(S rho_0)^H O]. The blockwise design shares one observable array across
synthesized initial states so each data vector probes a single N x N block
of the reshaped matrix: with E_lk the matrix unit carrying a one at (l, k),
tr[(S E_lk)^H O] equals the inner product of O with block (k, l).

E_lk is not a density matrix for k != l, so it is synthesized from four
genuine states with complex weights (1, i, -(1+i)/2, -(1+i)/2); the
`physical` noise mode perturbs the four underlying real measurements before
combining, while the default `synthetic` mode adds complex Gaussian noise to
the combined value directly.

Observables are exactly Hermitian, O_m = O_m^H entry by entry; the
pair right rows rely on it (they use O_m F for conj(O_m^T conj(F))), so
`SensingDesign` rejects any other stack it is given, checked a slice of
observables at a time. Random pair observables are (G + G^H)/sqrt(2) with
both triangles computed by the same additions, and scaled Paulis and
their power-of-two rescalings are Hermitian in every bit.

A blockwise design holds its observables as their real coordinates alone:
an exactly Hermitian O holds N^2 real numbers, C[x,y] = Re O[x,y] for
x <= y and Im O[x,y] for x > y, so with s = s(x,y) the sign of x - y and
p, q the flat indices of (min, max) and (max, min) of x and y,
O[x,y] = C[p] + i s C[q] (s = 0 on the diagonal). `coords` is the M_O x N^2
float64 matrix C, half the stack's bytes, and Hermitian by construction.
A random design's C is drawn straight from the normal planes
(`models._observable_coords`, bitwise the coordinates of
`models.random_observable`'s stack); a stack given to `SensingDesign`
(Pauli designs, `serialize.load_design`, the `solvers.solve_first_row_*`
functions) is checked and only its C is kept. `observables` rebuilds the
stack from C on each read: bitwise the drawn stack for random designs,
equal in value to a given one, whose zeros may change sign (a Pauli
product carries -0.0 in one triangle only).

Every blockwise value is an inner product <O_m, X> = sum conj(O_m) X, and
with the coordinates it is C_m . W, W = alpha X^T + beta X entry by entry
(`_weights`), (alpha, beta) = (i, -i) below the diagonal, (1, 1) above it
and (0, 1) on it: one real product of C with W's float64 view, half the
multiplies of the complex product with the stack.

`simulate_measurements` applies the superoperator once per design, to the
stack of all its states (`models.apply_superop` on a stack is bitwise one
call per state): the M pair states, or the synthesized unit states of the
anchor row, whose values are then one real product over C (they moved
by at most 7.8e-16 relative, in norm, from the complex product with the
stack on four designs of N = 4 to 25). At N = 25, M_O = 640 the design
stage's traced peak is 3.84 MiB and the simulate stage's 4.30 (C, the
states' images, their weights and the values), where the 6.1 MiB stack
beside C made them 6.88 and 7.35; at N = 64, M_O = 1640, 57.9 and 71.6
MiB, where they were 109 and 123.

All indices are 0-based: the first block row is row_index=0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, _check_fields
from .linalg import complex_gaussian
from .models import (_STACK_CHUNK, Superoperator, _observable_coords, apply_superop,
                     random_pairs)

__all__ = [
    "DESIGN_KINDS",
    "SOURCES",
    "NOISE_MODES",
    "SensingDesign",
    "MeasurementSet",
    "RipProbe",
    "PAULIS",
    "sample_pauli",
    "pauli_basis",
    "build_random_design",
    "build_blockwise_design",
    "build_design",
    "synth_state_combination",
    "simulate_measurements",
    "pair_inner_products",
    "empirical_rip_probe",
]

DESIGN_KINDS = ("random_pairs", "blockwise")
SOURCES = ("pauli", "random")
NOISE_MODES = ("synthetic", "physical")

_I2 = np.eye(2, dtype=np.complex128)
_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULIS = (_I2, _SX, _SY, _SZ)


class SensingDesign:
    """Either `random_pairs` (state/observable pairs) or `blockwise`
    (shared observables probing one block row).

    A `random_pairs` design holds `observables` and `states`, each one
    C-contiguous complex (M, N, N) array; the observables are exactly
    Hermitian. A `blockwise` design is given either the stack
    `observables`, which is checked as a pair design's and then dropped,
    or its real coordinates `coords` (see the module docstring), and holds
    `coords` alone, a C-contiguous float64 (M_O, N^2) array; its
    `observables` is the stack rebuilt from them on each read, and
    `states` is None. Raises DimensionError on an unknown `kind`, a
    `dim_n` that is not an integer >= 1, a `row_index` that is not an
    integer >= 0 (below N for `blockwise`), a wrong shape, a non-finite
    entry, an observable that differs from its conjugate transpose in any
    bit, or `coords` given beside a stack or to a pair design.
    """

    def __init__(self, kind: str, dim_n: int, observables=None, states=None,
                 row_index: int = 0, coords=None):
        _check_fields({"kind": kind, "dim_n": dim_n, "row_index": row_index},
                      {"kind": DESIGN_KINDS, "dim_n": 1, "row_index": 0})
        # row_index: the blockwise anchor row, 0-based
        self.kind, self.dim_n, self.row_index = kind, dim_n, row_index
        self.states = self.coords = self._observables = None
        if coords is not None:
            if kind != "blockwise" or observables is not None:
                raise DimensionError("coords stand alone, for a blockwise design only")
            self.coords = _finite(np.ascontiguousarray(coords, dtype=np.float64), "coords")
            if self.coords.ndim != 2 or self.coords.shape[1] != dim_n * dim_n:
                raise DimensionError(f"coords must be an (M_O, {dim_n * dim_n}) "
                                     f"matrix, got {self.coords.shape}")
        else:
            obs = _matrix_stack(observables, dim_n, "observables")
            if not _is_hermitian(obs):
                raise DimensionError("observables must be exactly Hermitian")
            if kind == "blockwise":
                self.coords = _coords_of(obs)
            else:
                self._observables = obs
                self.states = _matrix_stack(states, dim_n, "states")
                if self.states.shape != obs.shape:
                    raise DimensionError("need one state per observable")
        if kind == "blockwise" and row_index >= dim_n:
            raise DimensionError(f"row_index {row_index} out of [0, {dim_n})")

    @property
    def observables(self) -> np.ndarray:
        """The (M, N, N) observable stack; a blockwise design's is rebuilt
        from `coords` on each read."""
        if self.coords is not None:
            return _stack_of(self.coords, self.dim_n)
        return self._observables

    @property
    def n_measurements(self) -> int:
        """Rows of the sensing operator: M for pairs, M_O per block otherwise."""
        return len(self.coords if self.coords is not None else self._observables)

    def ref(self) -> str:
        return f"{self.kind}:n={self.dim_n}:m={self.n_measurements}"


def _finite(arr, name: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise DimensionError(f"{name} hold non-finite entries")
    return arr


def _matrix_stack(mats, n: int, name: str) -> np.ndarray:
    """mats as a finite, C-contiguous complex (M, N, N) array."""
    arr = np.ascontiguousarray(mats, dtype=np.complex128)
    if arr.ndim != 3 or arr.shape[1:] != (n, n):
        raise DimensionError(f"{name} must be an (M, {n}, {n}) stack, got {arr.shape}")
    return _finite(arr, name)


def _is_hermitian(obs) -> bool:
    """Whether each matrix of the (M, N, N) stack equals its conjugate
    transpose entry by entry, compared _STACK_CHUNK matrices at a time so
    no temporary grows with M."""
    n = obs.shape[1]
    for start in range(0, len(obs), _STACK_CHUNK):
        parts = obs[start:start + _STACK_CHUNK].view(np.float64).reshape(-1, n, n, 2)
        swapped = parts.transpose(0, 2, 1, 3)
        if not (np.array_equal(parts[..., 0], swapped[..., 0])
                and np.array_equal(parts[..., 1], -swapped[..., 1])):
            return False
    return True


def _coord_index(n: int):
    """s(x, y), the sign of x - y, as float64, and the flat indices p and q
    of (min, max) and (max, min) of (x, y): O[x,y] = C[p] + i s C[q]."""
    idx = np.arange(n)
    sign = np.sign(idx[:, None] - idx[None, :]).astype(np.float64)
    lo, hi = np.minimum.outer(idx, idx), np.maximum.outer(idx, idx)
    return sign, lo * n + hi, hi * n + lo


def _coords_of(obs) -> np.ndarray:
    """The real coordinates C (M x N^2 float64) of an exactly Hermitian
    (M, N, N) stack: Re O on and above the diagonal, Im O below it."""
    m, n = obs.shape[:2]
    parts = obs.view(np.float64).reshape(m, n, n, 2)
    coords = np.empty((m, n, n))
    np.copyto(coords, parts[..., 0])
    np.copyto(coords, parts[..., 1], where=np.tri(n, k=-1, dtype=bool))
    return coords.reshape(m, n * n)


def _stack_of(coords, n: int) -> np.ndarray:
    """The (M, N, N) stack of the coordinates C, O[x,y] = C[p] + i s C[q]:
    bitwise the stack C was taken from where its two triangles agree in the
    signs of their zeros, as random observables do."""
    sign, p, q = _coord_index(n)
    obs = np.zeros((len(coords), n, n), dtype=np.complex128)
    obs.real = coords[:, p]
    imag = coords[:, q]
    np.copyto(obs.imag, imag, where=sign > 0)
    np.copyto(obs.imag, np.negative(imag, out=imag), where=sign < 0)
    return obs


def _weights(xs) -> np.ndarray:
    """W = alpha X^T + beta X (see the module docstring) of the matrices
    X_k of the [a, x, k] view xs, as an N^2 x K complex array, so that
    <O_m, X_k> = C_m . W_k. W is filled one row a at a time, as a ufunc
    over the whole strided views allocates a buffer of up to 8192 elements
    an operand, W's own size at N = 25."""
    n, k = xs.shape[1:]
    sign = _coord_index(n)[0]
    alpha = np.select([sign > 0, sign < 0], [1j, 1], 0)
    beta = np.where(sign > 0, -1j, 1)
    w = np.empty((n, n, k), dtype=np.complex128)
    for a in range(n):
        np.multiply(alpha[a, :, None], xs[:, a], out=w[a])
        w[a] += beta[a, :, None] * xs[a]
    return w.reshape(n * n, k)


@dataclass
class MeasurementSet:
    """Simulated data: a real (M,) vector for `random_pairs`; for
    `blockwise`, a complex (N, M_O) array whose row l holds the M_O values of
    column block l of the anchor row."""

    design_ref: str
    values: np.ndarray
    sigma: float
    seed: int
    noise_mode: str = "synthetic"


class RipProbe(NamedTuple):
    c0: float
    c1: float
    c: float
    delta: float


def sample_pauli(n_qubits: int, count: int, scaled: bool, seed: int) -> np.ndarray:
    """`count` iid uniform tensor products of the four one-qubit Paulis, as a
    (count, d, d) array with d = 2**n_qubits.

    With scaled=True each product is divided by sqrt(d), giving unit
    Frobenius norm and operator norm 1/sqrt(d).
    """
    _check_fields({"n_qubits": n_qubits, "count": count}, {"n_qubits": 1, "count": 1})
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 4, size=(count, n_qubits))
    d = 2 ** n_qubits
    out = []
    for row in labels:
        p = PAULIS[row[0]]
        for idx in row[1:]:
            p = np.kron(p, PAULIS[idx])
        out.append(p / math.sqrt(d) if scaled else p)
    return np.array(out)


def pauli_basis(n_qubits: int, scaled: bool = True) -> np.ndarray:
    """All 4**n_qubits Pauli products, in lexicographic label order, as a
    (4**n_qubits, d, d) array."""
    if n_qubits < 1:
        raise DimensionError("n_qubits must be >= 1")
    d = 2 ** n_qubits
    basis = [np.array([[1.0]], dtype=np.complex128)]
    for _ in range(n_qubits):
        basis = [np.kron(b, p) for b in basis for p in PAULIS]
    if scaled:
        basis = [b / math.sqrt(d) for b in basis]
    return np.array(basis)


def _qubits_for(n: int) -> int:
    q = n.bit_length() - 1
    if n < 2 or 2 ** q != n:
        raise DimensionError(f"Pauli designs need n a power of 2, got {n}")
    return q


def build_random_design(n: int, m: int, source: str, seed: int) -> SensingDesign:
    """M independent (initial state, observable) pairs.

    source='pauli' draws both from the scaled Paulis (n must be a power of
    two); source='random' draws random densities and observables in one
    batch (`models.random_pairs`).
    """
    _check_fields({"m": m}, {"m": 1})
    rng = np.random.default_rng(seed)
    if source == "pauli":
        q = _qubits_for(n)
        states = sample_pauli(q, m, True, rng.integers(2 ** 63))
        obs = sample_pauli(q, m, True, rng.integers(2 ** 63))
    elif source == "random":
        states, obs = random_pairs(n, m, rng)
    else:
        raise DimensionError(f"unknown source {source!r}")
    return SensingDesign("random_pairs", n, obs, states=states)


def build_blockwise_design(n: int, m_o: int, source: str, row_index: int = 0,
                           seed: int = 0) -> SensingDesign:
    """Shared observable list for probing the blocks of one anchor row.

    source='random' draws the real coordinates of the m_o observables that
    `models.random_observable` with a count would draw, without the stack.
    """
    _check_fields({"m_o": m_o}, {"m_o": 1})
    rng = np.random.default_rng(seed)
    if source == "pauli":
        q = _qubits_for(n)
        obs = sample_pauli(q, m_o, True, rng.integers(2 ** 63))
        return SensingDesign("blockwise", n, obs, row_index=row_index)
    if source == "random":
        return SensingDesign("blockwise", n, row_index=row_index,
                             coords=_observable_coords(n, rng, m_o))
    raise DimensionError(f"unknown source {source!r}")


def build_design(kind: str, n: int, m: int, source: str, seed: int,
                 row_index: int = 0) -> SensingDesign:
    """A `random_pairs` design of m pairs or a `blockwise` design of m
    observables on anchor row row_index (ignored for random pairs)."""
    if kind == "random_pairs":
        return build_random_design(n, m, source, seed)
    if kind == "blockwise":
        return build_blockwise_design(n, m, source, row_index, seed)
    raise DimensionError(f"unknown design kind {kind!r}")


def _matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((n, n), dtype=np.complex128)
    e[i, j] = 1.0
    return e


def synth_state_combination(k: int, l: int, n: int):
    """Four density matrices and complex weights whose sum is E_lk exactly.

    For 0-based k != l the states are

        (E_kl + E_lk + E_kk + E_ll)/2,  (iE_kl - iE_lk + E_kk + E_ll)/2,
        E_kk,  E_ll

    with weights (1, i, -(1+i)/2, -(1+i)/2). All four are rank-one density
    matrices (Hermitian, PSD, unit trace).
    """
    if k == l:
        raise DimensionError("k == l has a single direct state; no synthesis needed")
    if not (0 <= k < n and 0 <= l < n):
        raise DimensionError(f"indices ({k}, {l}) out of [0, {n})")
    e_kl, e_lk = _matrix_unit(n, k, l), _matrix_unit(n, l, k)
    e_kk, e_ll = _matrix_unit(n, k, k), _matrix_unit(n, l, l)
    states = [
        0.5 * (e_kl + e_lk + e_kk + e_ll),
        0.5 * (1j * e_kl - 1j * e_lk + e_kk + e_ll),
        e_kk,
        e_ll,
    ]
    coeffs = np.array([1.0, 1.0j, -(1 + 1j) / 2, -(1 + 1j) / 2], dtype=np.complex128)
    return coeffs, states


def simulate_measurements(s: Superoperator, design: SensingDesign, sigma: float,
                          noise_mode: str = "synthetic", seed: int = 0) -> MeasurementSet:
    """Simulate the (noisy) measurement data for a design.

    random_pairs: a real (M,) vector, values[m] = Re tr[(S rho_m)^H O_m]
    + N(0, sigma^2).

    blockwise: a complex (N, M_O) array whose row l holds the values of the
    M_O observables on column block l of the anchor row.
    noise_mode='synthetic' adds independent N(0, sigma^2) to real and
    imaginary parts of each combined value; 'physical' perturbs each
    underlying real single-state measurement before combining. Noise is
    drawn from one generator in block order, so results are deterministic
    per seed.
    """
    _check_fields({"sigma": sigma, "noise_mode": noise_mode},
                  {"sigma": "[0, inf)", "noise_mode": NOISE_MODES})
    if design.dim_n != s.dim_n:
        raise DimensionError(f"design dim {design.dim_n} != superoperator dim {s.dim_n}")
    rng = np.random.default_rng(seed)
    n = design.dim_n

    if design.kind == "random_pairs":
        outs = apply_superop(s, design.states)
        exact = np.array([np.vdot(out, obs).real
                          for out, obs in zip(outs, design.observables)])
        values = exact + sigma * rng.standard_normal(exact.size)
        return MeasurementSet(design.ref(), values, sigma, seed, noise_mode)

    # per column block (None, [E_lk]), or the weights and four states that
    # synthesize E_lk when its raw measurements get noise; the exact values
    # of all states are one real product with C, <out, O_m> = conj(C_m . W)
    k0 = design.row_index
    plan = [(None, [_matrix_unit(n, l, k0)])
            if noise_mode == "synthetic" or sigma == 0 or l == k0
            else synth_state_combination(k0, l, n) for l in range(n)]
    outs = apply_superop(s, np.array([rho for _, states in plan for rho in states]))
    w = _weights(outs.transpose(1, 2, 0))
    del outs
    exact = (design.coords @ np.conjugate(w, out=w).view(np.float64)).view(np.complex128)
    del w
    columns = iter(exact.T)
    values = np.empty((n, design.n_measurements), dtype=np.complex128)
    for l, (coeffs, _) in enumerate(plan):
        if coeffs is None:
            vals = next(columns)
            if sigma > 0:
                if l == k0 and noise_mode == "physical":
                    vals = vals + sigma * rng.standard_normal(vals.size)
                else:
                    noise = rng.standard_normal((vals.size, 2))
                    vals = vals + sigma * (noise[:, 0] + 1j * noise[:, 1])
        else:
            vals = np.zeros(design.n_measurements, dtype=np.complex128)
            for c in coeffs:
                raw = next(columns).real
                raw = raw + sigma * rng.standard_normal(raw.size)
                vals = vals + np.conj(c) * raw
        values[l] = vals
    return MeasurementSet(design.ref(), values, sigma, seed, noise_mode)


def pair_inner_products(rhos, obs, x) -> np.ndarray:
    """<A_m, X> for A_m = conj(rho_m) (x) O_m, given the stacked M x N x N
    states and observables, without forming Kronecker products."""
    n = rhos.shape[1]
    x4 = np.asarray(x, dtype=np.complex128).reshape(n, n, n, n)
    return np.einsum("mij,mkl,ikjl->m", rhos, obs.conj(), x4, optimize=True)


def empirical_rip_probe(design: SensingDesign, r: int, n_samples: int,
                        seed: int = 0) -> RipProbe:
    """Sampled lower/upper frame bounds of the 1/sqrt(M)-scaled sensing map
    on unit-Frobenius rank-r matrices.

    Returns (c0, c1, c, delta) with c = (c0 + c1)/2 and
    delta = (c1 - c0)/(c1 + c0). A sampled, optimistic estimate: the true
    restricted-isometry constant can only be worse. The matrices are
    d x d, d = N^2 for a random-pairs design and N for a blockwise one, so
    r must be in [1, d].
    """
    _check_fields({"rank": r, "n_samples": n_samples}, {"rank": 1, "n_samples": 1})
    m = design.n_measurements
    if m < 1:
        raise DimensionError("design has no measurements")
    rng = np.random.default_rng(seed)
    n = design.dim_n
    d = n * n if design.kind == "random_pairs" else n
    if not 1 <= r <= d:
        raise DimensionError(f"rank {r} out of [1, {d}] for {d} x {d} matrices")
    energies = np.empty(n_samples)
    for i in range(n_samples):
        left = complex_gaussian(d, r, rng)
        right = complex_gaussian(d, r, rng)
        x = left @ right.conj().T
        x /= np.linalg.norm(x)
        if design.kind == "blockwise":
            vals = design.coords @ _weights(x[:, :, None]).view(np.float64)
            vals = vals.view(np.complex128)
        else:
            vals = pair_inner_products(design.states, design.observables, x)
        energies[i] = float(np.sum(np.abs(vals) ** 2)) / m
    c0, c1 = float(energies.min()), float(energies.max())
    return RipProbe(c0, c1, (c0 + c1) / 2, (c1 - c0) / (c1 + c0))
