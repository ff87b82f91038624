"""Measurement designs and simulated data.

Two designs are supported. The random-pairs design draws M independent
(initial state, observable) pairs and records the real scalars
tr[(S rho_0)^H O]. The blockwise design shares one observable list across
synthesized initial states so each data vector probes a single N x N block
of the reshaped matrix: with E_lk the matrix unit carrying a one at (l, k),
tr[(S E_lk)^H O] equals the inner product of O with block (k, l).

E_lk is not a density matrix for k != l, so it is synthesized from four
genuine states with complex weights (1, i, -(1+i)/2, -(1+i)/2); the
`physical` noise mode perturbs the four underlying real measurements before
combining, while the default `synthetic` mode adds complex Gaussian noise to
the combined value directly.

All indices are 0-based: the first block row is row_index=0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionError
from .linalg import complex_gaussian
from .models import Superoperator, apply_superop, random_density, random_observable

__all__ = [
    "DESIGN_KINDS",
    "SOURCES",
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

_I2 = np.eye(2, dtype=np.complex128)
_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULIS = (_I2, _SX, _SY, _SZ)


@dataclass
class SensingDesign:
    """Either `random_pairs` (state/observable pairs) or `blockwise`
    (shared observables probing one block row)."""

    kind: str
    dim_n: int
    pairs: list = field(default_factory=list)           # random_pairs: (rho0, obs)
    observables: list = field(default_factory=list)     # blockwise
    row_index: int = 0                                  # blockwise anchor row, 0-based

    def __post_init__(self):
        if self.kind not in DESIGN_KINDS:
            raise DimensionError(f"unknown design kind {self.kind!r}")
        n = self.dim_n
        if self.kind == "random_pairs":
            for rho, obs in self.pairs:
                if np.shape(rho) != (n, n) or np.shape(obs) != (n, n):
                    raise DimensionError("design matrices must be N x N")
        else:
            if not 0 <= self.row_index < n:
                raise DimensionError(f"row_index {self.row_index} out of [0, {n})")
            for obs in self.observables:
                if np.shape(obs) != (n, n):
                    raise DimensionError("observables must be N x N")

    @property
    def n_measurements(self) -> int:
        """Rows of the sensing operator: M for pairs, M_O per block otherwise."""
        return len(self.pairs) if self.kind == "random_pairs" else len(self.observables)

    def ref(self) -> str:
        return f"{self.kind}:n={self.dim_n}:m={self.n_measurements}"


@dataclass
class MeasurementSet:
    """Simulated data: one real vector (random_pairs) or N complex vectors,
    one per column block of the anchor row (blockwise)."""

    design_ref: str
    values: object
    sigma: float
    seed: int
    noise_mode: str = "synthetic"


class RipProbe(NamedTuple):
    c0: float
    c1: float
    c: float
    delta: float


def sample_pauli(n_qubits: int, count: int, scaled: bool, seed: int) -> list:
    """`count` iid uniform tensor products of the four one-qubit Paulis.

    With scaled=True each product is divided by sqrt(d), d = 2**n_qubits,
    giving unit Frobenius norm and operator norm 1/sqrt(d).
    """
    if n_qubits < 1:
        raise DimensionError("n_qubits must be >= 1")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 4, size=(count, n_qubits))
    d = 2 ** n_qubits
    out = []
    for row in labels:
        p = PAULIS[row[0]]
        for idx in row[1:]:
            p = np.kron(p, PAULIS[idx])
        out.append(p / math.sqrt(d) if scaled else p)
    return out


def pauli_basis(n_qubits: int, scaled: bool = True) -> list:
    """All 4**n_qubits Pauli products, in lexicographic label order."""
    if n_qubits < 1:
        raise DimensionError("n_qubits must be >= 1")
    d = 2 ** n_qubits
    basis = [np.array([[1.0]], dtype=np.complex128)]
    for _ in range(n_qubits):
        basis = [np.kron(b, p) for b in basis for p in PAULIS]
    if scaled:
        basis = [b / math.sqrt(d) for b in basis]
    return basis


def _qubits_for(n: int) -> int:
    q = n.bit_length() - 1
    if n < 2 or 2 ** q != n:
        raise DimensionError(f"Pauli designs need n a power of 2, got {n}")
    return q


def build_random_design(n: int, m: int, source: str, seed: int) -> SensingDesign:
    """M independent (initial state, observable) pairs.

    source='pauli' draws both from the scaled Paulis (n must be a power of
    two); source='random' uses random densities and unit-Frobenius
    observables.
    """
    rng = np.random.default_rng(seed)
    if source == "pauli":
        q = _qubits_for(n)
        states = sample_pauli(q, m, True, rng.integers(2 ** 63))
        obs = sample_pauli(q, m, True, rng.integers(2 ** 63))
        pairs = list(zip(states, obs))
    elif source == "random":
        pairs = [(random_density(n, rng), random_observable(n, rng)) for _ in range(m)]
    else:
        raise DimensionError(f"unknown source {source!r}")
    return SensingDesign("random_pairs", n, pairs=pairs)


def build_blockwise_design(n: int, m_o: int, source: str, row_index: int = 0,
                           seed: int = 0) -> SensingDesign:
    """Shared observable list for probing the blocks of one anchor row."""
    rng = np.random.default_rng(seed)
    if source == "pauli":
        q = _qubits_for(n)
        obs = sample_pauli(q, m_o, True, rng.integers(2 ** 63))
    elif source == "random":
        obs = [random_observable(n, rng) for _ in range(m_o)]
    else:
        raise DimensionError(f"unknown source {source!r}")
    return SensingDesign("blockwise", n, observables=obs, row_index=row_index)


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

    random_pairs: values[m] = Re tr[(S rho_m)^H O_m] + N(0, sigma^2).

    blockwise: for each column block l of the anchor row, a complex vector
    over observables. noise_mode='synthetic' adds independent N(0, sigma^2)
    to real and imaginary parts of each combined value; 'physical' perturbs
    each underlying real single-state measurement before combining. Noise is
    drawn from one generator in block order, so results are deterministic
    per seed.
    """
    if sigma < 0:
        raise DimensionError("sigma must be nonnegative")
    if noise_mode not in ("synthetic", "physical"):
        raise DimensionError(f"unknown noise_mode {noise_mode!r}")
    if design.dim_n != s.dim_n:
        raise DimensionError(f"design dim {design.dim_n} != superoperator dim {s.dim_n}")
    rng = np.random.default_rng(seed)
    n = design.dim_n

    if design.kind == "random_pairs":
        exact = np.array([
            np.vdot(apply_superop(s, rho), obs).real for rho, obs in design.pairs
        ])
        values = exact + sigma * rng.standard_normal(exact.size)
        return MeasurementSet(design.ref(), values, sigma, seed, noise_mode)

    obs_stack = np.stack(design.observables) if design.observables else \
        np.zeros((0, n, n), dtype=np.complex128)
    obs_flat = obs_stack.conj().reshape(len(design.observables), -1)
    k0 = design.row_index
    blocks = []
    for l in range(n):
        if noise_mode == "synthetic" or sigma == 0 or l == k0:
            e_lk = _matrix_unit(n, l, k0)
            out = apply_superop(s, e_lk)
            vals = obs_flat @ out.reshape(-1)
            vals = vals.conj()  # tr[out^H O] = <out, O>
            if sigma > 0:
                if l == k0 and noise_mode == "physical":
                    vals = vals + sigma * rng.standard_normal(vals.size)
                else:
                    noise = rng.standard_normal((vals.size, 2))
                    vals = vals + sigma * (noise[:, 0] + 1j * noise[:, 1])
        else:
            coeffs, states = synth_state_combination(k0, l, n)
            vals = np.zeros(len(design.observables), dtype=np.complex128)
            for c, rho in zip(coeffs, states):
                out = apply_superop(s, rho)
                raw = (obs_flat @ out.reshape(-1)).conj().real
                raw = raw + sigma * rng.standard_normal(raw.size)
                vals = vals + np.conj(c) * raw
        blocks.append(vals)
    return MeasurementSet(design.ref(), blocks, sigma, seed, noise_mode)


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
    restricted-isometry constant can only be worse.
    """
    if n_samples < 1:
        raise DimensionError("n_samples must be >= 1")
    m = design.n_measurements
    if m < 1:
        raise DimensionError("design has no measurements")
    rng = np.random.default_rng(seed)
    n = design.dim_n
    d = n * n if design.kind == "random_pairs" else n
    if design.kind == "blockwise":
        obs_flat = np.stack(design.observables).conj().reshape(m, -1)
    else:
        rhos = np.stack([p[0] for p in design.pairs])
        obs = np.stack([p[1] for p in design.pairs])
    energies = np.empty(n_samples)
    for i in range(n_samples):
        left = complex_gaussian(d, r, rng)
        right = complex_gaussian(d, r, rng)
        x = left @ right.conj().T
        x /= np.linalg.norm(x)
        if design.kind == "blockwise":
            vals = obs_flat @ x.reshape(-1)
        else:
            vals = pair_inner_products(rhos, obs, x)
        energies[i] = float(np.sum(np.abs(vals) ** 2)) / m
    c0, c1 = float(energies.min()), float(energies.max())
    return RipProbe(c0, c1, (c0 + c1) / 2, (c1 - c0) / (c1 + c0))
