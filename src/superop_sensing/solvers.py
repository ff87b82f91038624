"""Alternating least squares solvers for low-rank sensing problems.

The unknown is factored as X = U V^H with U (d1 x r) and V (d2 x r). Each
half-sweep solves an exact linear least-squares problem in one factor, so the
loss is non-increasing across full sweeps. The accelerated variant
extrapolates both factors with momentum beta before the sweep and falls back
to a plain sweep whenever the loss grows by more than the restart factor eta.
There is one ALS loop: at beta = 0 the extrapolated point is the current
iterate, so every step is one exact sweep and the loop is plain ALS.

Three problem shapes are handled:

* random pairs: X is the full N^2 x N^2 reshaped matrix, sensed by
  tr[(conj(rho) x O)^H X]; the Kronecker products are never formed, the
  design rows are assembled through O^H (.) rho products on the unvectorized
  factor columns.
* one block: X is a single N x N block sensed by a shared observable list.
* stacked blocks: X = [X_1, ..., X_p] shares the left factor U across
  blocks; the right-factor update decouples into one shared-design solve
  with p right-hand sides, the left-factor update couples all blocks.

The least-squares subproblems use the SVD-backed solver, so rank-deficient
assemblies yield minimum-norm solutions, and common rescaling of design and
data leaves every iterate unchanged.

`solve_strategy` is the one table from strategy name to solver: `als_n2`
solves the full matrix, `als_p`, `als_n` and `als_i` the anchor block row.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionError, DivergenceError
from .linalg import complex_gaussian, least_squares, truncated_svd
from .measurements import SensingDesign, pair_inner_products

__all__ = [
    "STRATEGY_DESIGNS",
    "FactorPair",
    "SolverConfig",
    "SolveReport",
    "StackedDesign",
    "derive_seed",
    "sensing_loss",
    "nesterov_als_solve",
    "solve_first_row_parallel",
    "solve_first_row_joint",
    "solve_first_row_subset",
    "solve_strategy",
]

_DIVERGENCE_FACTOR = 1e6

# recovery strategy -> the design kind it reads
STRATEGY_DESIGNS = {"als_n2": "random_pairs", "als_p": "blockwise",
                    "als_n": "blockwise", "als_i": "blockwise"}


def derive_seed(*parts) -> int:
    """Deterministic child seed from integer parts (master seed, indices...)."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


@dataclass
class FactorPair:
    left: np.ndarray    # d1 x r
    right: np.ndarray   # d2 x r

    def product(self) -> np.ndarray:
        return self.left @ self.right.conj().T


@dataclass
class SolverConfig:
    rank: int
    max_iter: int = 300
    gamma: float = 1e-8
    eta: float = 1.2
    beta: float = 1.0
    seed: int = 0
    init: str = "spectral"   # or "random"

    def __post_init__(self):
        if self.rank < 1:
            raise DimensionError("rank must be >= 1")
        if self.gamma <= 0:
            raise DimensionError("gamma must be positive")
        if self.eta <= 1:
            raise DimensionError("eta must be > 1")
        if self.init not in ("spectral", "random"):
            raise DimensionError(f"unknown init {self.init!r}")


@dataclass
class SolveReport:
    factors: FactorPair
    final_loss: float
    iterations: int
    restarts: int
    loss_trace: list = field(default_factory=list)
    wall_time: float = 0.0


@dataclass
class StackedDesign:
    """Shared observables sensing a row of n_blocks horizontally stacked
    N x N blocks with a common left factor."""

    observables: list
    n_blocks: int
    dim_n: int

    def __post_init__(self):
        if self.n_blocks < 1:
            raise DimensionError("n_blocks must be >= 1")
        for obs in self.observables:
            if np.shape(obs) != (self.dim_n, self.dim_n):
                raise DimensionError("observables must be N x N")

    @property
    def n_measurements(self) -> int:
        return len(self.observables) * self.n_blocks


# ---------------------------------------------------------------------------
# problem back ends


class _PairProblem:
    """Full reshaped-matrix sensing from (state, observable) pairs."""

    def __init__(self, design: SensingDesign, b):
        self.n = design.dim_n
        self.d1 = self.d2 = self.n * self.n
        self.rho = np.stack([p[0] for p in design.pairs]).astype(np.complex128)
        self.obs = np.stack([p[1] for p in design.pairs]).astype(np.complex128)
        self.b = np.asarray(b, dtype=np.complex128).reshape(-1)
        if self.b.size != len(design.pairs):
            raise DimensionError(
                f"{self.b.size} data values for {len(design.pairs)} pairs")
        self.m_total = self.b.size

    def _fold(self, factor):
        # columns viewed as N x N matrices, column-major vec convention
        n, r = self.n, factor.shape[1]
        return factor.reshape(n, n, r, order="F")

    def _unfold(self, tensor):
        n, r = self.n, tensor.shape[2]
        return tensor.reshape(n * n, r, order="F")

    def _rows_right(self, u):
        # row m = vec(A_m^H U) over conj(vec(V)); A_m^H U cols = O^H (.) rho
        t = self._fold(u)
        w = np.einsum("mxa,xyc,myb->mabc", self.obs.conj(), t, self.rho,
                      optimize=True)
        return w

    def measure(self, u, v):
        w = self._rows_right(u)
        return np.einsum("mabc,abc->m", w, self._fold(v).conj(), optimize=True)

    def solve_right(self, u):
        w = self._rows_right(u)
        m = w.shape[0]
        g = w.transpose(0, 2, 1, 3).reshape(m, -1)  # (a,b)->b*N+a = col-major vec
        y = least_squares(g, self.b)
        r = u.shape[1]
        vt = y.conj().reshape(self.n, self.n, r).transpose(1, 0, 2)
        return self._unfold(vt)

    def solve_left(self, v):
        tv = self._fold(v)
        z = np.einsum("mxa,abc,myb->mxyc", self.obs, tv, self.rho.conj(),
                      optimize=True)
        m = z.shape[0]
        h = z.conj().transpose(0, 2, 1, 3).reshape(m, -1)
        u = least_squares(h, self.b)
        r = v.shape[1]
        ut = u.reshape(self.n, self.n, r).transpose(1, 0, 2)
        return self._unfold(ut)

    def loss(self, u, v):
        resid = self.measure(u, v) - self.b
        return float(np.sum(np.abs(resid) ** 2)) / (2 * self.m_total)

    def loss_of(self, x):
        vals = pair_inner_products(self.rho, self.obs, x)
        return float(np.sum(np.abs(vals - self.b) ** 2)) / (2 * self.m_total)

    def backprojection(self):
        x4 = np.einsum("m,mij,mkl->ikjl", self.b, self.rho.conj(), self.obs,
                       optimize=True)
        d = self.n * self.n
        return x4.reshape(d, d) / self.m_total


class _StackedProblem:
    """Shared-observable sensing of stacked blocks with a common left factor."""

    def __init__(self, observables, n_blocks: int, b):
        self.obs = np.stack(observables).astype(np.complex128)
        self.n = self.obs.shape[1]
        self.n_blocks = n_blocks
        self.d1 = self.n
        self.d2 = self.n * n_blocks
        b = np.asarray(b, dtype=np.complex128)
        self.b = b.reshape(n_blocks, len(observables))
        self.m_total = self.b.size

    def _split(self, v):
        return v.reshape(self.n_blocks, self.n, v.shape[1])

    def measure(self, u, v):
        w = np.einsum("mxa,xc->mac", self.obs.conj(), u)
        return np.einsum("mac,kac->km", w, self._split(v).conj(), optimize=True)

    def solve_right(self, u):
        w = np.einsum("mxa,xc->mac", self.obs.conj(), u)
        g = w.reshape(w.shape[0], -1)
        y = least_squares(g, self.b.T)                      # (N r, n_blocks)
        r = u.shape[1]
        return y.T.conj().reshape(self.d2, r)

    def solve_left(self, v):
        vt = self._split(v)
        z = np.einsum("mxy,kyc->kmxc", self.obs, vt, optimize=True)
        h = z.conj().reshape(self.m_total, -1)
        u = least_squares(h, self.b.reshape(-1))
        return u.reshape(self.n, v.shape[1])

    def loss(self, u, v):
        resid = self.measure(u, v) - self.b
        return float(np.sum(np.abs(resid) ** 2)) / (2 * self.m_total)

    def loss_of(self, x):
        x = np.asarray(x, dtype=np.complex128)
        blocks = x.reshape(self.n, self.n_blocks, self.n).transpose(1, 0, 2)
        vals = np.einsum("mxy,kxy->km", self.obs.conj(), blocks, optimize=True)
        return float(np.sum(np.abs(vals - self.b) ** 2)) / (2 * self.m_total)

    def backprojection(self):
        blocks = np.einsum("km,mxy->kxy", self.b, self.obs, optimize=True)
        return np.hstack(list(blocks)) / len(self.obs)


def _make_problem(design, b, d1: int, d2: int):
    if isinstance(design, StackedDesign):
        prob = _StackedProblem(design.observables, design.n_blocks, b)
    elif isinstance(design, SensingDesign) and design.kind == "random_pairs":
        prob = _PairProblem(design, b)
    elif isinstance(design, SensingDesign) and design.kind == "blockwise":
        prob = _StackedProblem(design.observables, 1, b)
    else:
        raise DimensionError(f"unsupported design {type(design).__name__}")
    if (prob.d1, prob.d2) != (d1, d2):
        raise DimensionError(
            f"design implies dimensions ({prob.d1}, {prob.d2}), got ({d1}, {d2})")
    if prob.m_total < 1:
        raise DimensionError("need at least one measurement")
    return prob


# ---------------------------------------------------------------------------
# loss


def sensing_loss(design, b, x) -> float:
    """Quadratic sensing loss (1/2M) sum |<A_m, X> - b_m|^2."""
    x = np.asarray(x, dtype=np.complex128)
    return _make_problem(design, b, x.shape[0], x.shape[1]).loss_of(x)


# ---------------------------------------------------------------------------
# the ALS loop


def _init_factors(prob, config: SolverConfig):
    """Starting factors: balanced truncated SVD of the data backprojection
    (the standard spectral start, robust against spurious basins) or iid
    complex Gaussians when config.init == "random"."""
    rank = config.rank
    if config.init == "random":
        rng = np.random.default_rng(config.seed)
        return complex_gaussian(prob.d1, rank, rng), complex_gaussian(prob.d2, rank, rng)
    svd = truncated_svd(prob.backprojection(), rank)
    scale = np.sqrt(svd.singular_values)
    return svd.left * scale, svd.right * scale


def _guard(loss: float, initial: float):
    if not math.isfinite(loss) or loss > _DIVERGENCE_FACTOR * max(initial, 1e-300):
        raise DivergenceError(f"loss diverged to {loss!r}")


def nesterov_als_solve(design, b, d1: int, d2: int,
                       config: SolverConfig) -> SolveReport:
    """ALS with factor-wise momentum extrapolation and loss-ratio restarts.

    Factors are initialized once (see _init_factors) and a plain sweep
    produces the second iterate. Each subsequent step extrapolates U and V
    by beta times the last move, runs one sweep, and, if the loss exceeds
    eta times the previous one, discards the step and re-sweeps from the
    previous iterate (a plain ALS step). Terminates when the relative change
    of X = U V^H falls below gamma or after max_iter sweeps. Returns the
    best iterate visited; the loss trace holds one value per sweep.

    beta = 0 is plain ALS: the extrapolated point is the current iterate,
    every step is one exact sweep and the loss trace is non-increasing up
    to roundoff.
    """
    start = time.perf_counter()
    prob = _make_problem(design, b, d1, d2)
    if config.rank > min(d1, d2):
        raise DimensionError(f"rank {config.rank} exceeds min dimension {min(d1, d2)}")
    u_prev, v_prev = _init_factors(prob, config)
    initial = prob.loss(u_prev, v_prev)

    v_curr = prob.solve_right(u_prev)
    u_curr = prob.solve_left(v_curr)
    f_curr = prob.loss(u_curr, v_curr)
    trace = [f_curr]
    _guard(f_curr, initial)
    best = (u_curr, v_curr, f_curr)
    x_curr = u_curr @ v_curr.conj().T
    restarts = 0
    iterations = 1

    for _ in range(1, config.max_iter):
        u_ext = u_curr + config.beta * (u_curr - u_prev)
        v_ext = v_curr + config.beta * (v_curr - v_prev)
        v_new = prob.solve_right(u_ext)
        u_new = prob.solve_left(v_new)
        f_new = prob.loss(u_new, v_new)
        if f_new >= config.eta * f_curr:
            restarts += 1
            v_new = prob.solve_right(u_curr)
            u_new = prob.solve_left(v_new)
            f_new = prob.loss(u_new, v_new)
        iterations += 1
        trace.append(f_new)
        _guard(f_new, initial)
        if f_new < best[2]:
            best = (u_new, v_new, f_new)
        x_new = u_new @ v_new.conj().T
        converged = np.linalg.norm(x_new - x_curr) <= config.gamma * np.linalg.norm(x_curr)
        u_prev, v_prev = u_curr, v_curr
        u_curr, v_curr, f_curr, x_curr = u_new, v_new, f_new, x_new
        if converged:
            break
    return SolveReport(FactorPair(best[0], best[1]), best[2], iterations,
                       restarts, trace, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# first-row strategies


def _as_block_matrix(b_blocks, n: int) -> np.ndarray:
    """The anchor row's data vectors as an n x M_O matrix, one row per block."""
    bmat = np.stack([np.asarray(v, dtype=np.complex128).reshape(-1)
                     for v in b_blocks])
    if bmat.shape[0] != n:
        raise DimensionError(f"expected {n} data vectors, got {bmat.shape[0]}")
    return bmat


def solve_first_row_parallel(observables, b_blocks, n: int, config: SolverConfig,
                             workers: int = 1, n_inits: int = 3):
    """Recover each anchor-row block independently (one solve per block).

    The per-block problems run near the identifiability limit, where a
    single start can land in a spurious basin, so each block races n_inits
    accelerated solves (the configured init plus random restarts) and keeps
    the lowest-loss result. Per-block seeds are derived from (config.seed,
    block index, attempt), so the outcome does not depend on the worker
    count. Returns (blocks, reports).
    """
    bmat = _as_block_matrix(b_blocks, n)
    design = StackedDesign(observables, 1, np.shape(observables[0])[0])

    def solve_block(k):
        best = None
        for attempt in range(max(1, n_inits)):
            cfg = replace(config, seed=derive_seed(config.seed, 1, k, attempt),
                          init=config.init if attempt == 0 else "random")
            try:
                rep = nesterov_als_solve(design, bmat[k], design.dim_n,
                                         design.dim_n, cfg)
            except Exception as exc:
                raise type(exc)(f"block {k}: {exc}") from exc
            if best is None or rep.final_loss < best.final_loss:
                best = rep
        return best

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(solve_block, range(n)))
    else:
        reports = [solve_block(k) for k in range(n)]
    blocks = [r.factors.product() for r in reports]
    return blocks, reports


def solve_first_row_joint(observables, b_blocks, n: int, config: SolverConfig):
    """Recover the whole anchor row at once with a shared left factor.

    Returns (blocks, report) where blocks are the N column blocks of U V^H.
    """
    bmat = _as_block_matrix(b_blocks, n)
    dim = np.shape(observables[0])[0]
    design = StackedDesign(observables, n, dim)
    report = nesterov_als_solve(design, bmat, dim, dim * n, config)
    x = report.factors.product()
    blocks = [x[:, k * dim:(k + 1) * dim] for k in range(n)]
    return blocks, report


def solve_first_row_subset(observables, b_blocks, n: int, subset_ratio: float,
                           config: SolverConfig):
    """Joint solve on a random subset of the anchor row, then fill the rest.

    The subset always contains block 0 (the Hermitian diagonal block) plus
    ceil(ratio * N) - 1 indices sampled without replacement; it is kept in
    ascending order, so ratio 1 reproduces the joint solve exactly. Blocks
    outside the subset are recovered by one right-factor solve of the
    stacked problem with the shared left factor fixed. Returns
    (blocks, report).
    """
    if not 0 < subset_ratio <= 1:
        raise DimensionError("subset_ratio must be in (0, 1]")
    bmat = _as_block_matrix(b_blocks, n)
    dim = np.shape(observables[0])[0]
    p = min(n, max(1, math.ceil(subset_ratio * n)))
    rng = np.random.default_rng(derive_seed(config.seed, 2))
    chosen = [0] + sorted(rng.choice(np.arange(1, n), size=p - 1, replace=False).tolist())
    design = StackedDesign(observables, p, dim)
    report = nesterov_als_solve(design, bmat[chosen], dim, dim * p, config)
    u = report.factors.left
    parts = [(chosen, report.factors.right)]
    rest = [k for k in range(n) if k not in chosen]
    if rest:
        parts.append((rest, _StackedProblem(observables, len(rest),
                                            bmat[rest]).solve_right(u)))
    blocks: list = [None] * n
    for indices, v in parts:
        for pos, k in enumerate(indices):
            blocks[k] = u @ v[pos * dim:(pos + 1) * dim].conj().T
    return blocks, report


def solve_strategy(strategy: str, design: SensingDesign, values, config: SolverConfig,
                   subset_ratio: float = 1.0, workers: int = 1):
    """Run one recovery strategy on a design and its measured values.

    Returns (estimate, reports): the full N^2 x N^2 matrix for `als_n2`, the
    N anchor-row blocks otherwise, and the list of solve reports behind it
    (one per block for `als_p`, a single one otherwise). `subset_ratio` is
    read by `als_i` only, `workers` by `als_p` only.
    """
    if strategy not in STRATEGY_DESIGNS:
        raise DimensionError(f"unknown strategy {strategy!r}")
    if design.kind != STRATEGY_DESIGNS[strategy]:
        raise DimensionError(f"{strategy} needs a {STRATEGY_DESIGNS[strategy]} design")
    n = design.dim_n
    if strategy == "als_n2":
        report = nesterov_als_solve(design, values, n * n, n * n, config)
        return report.factors.product(), [report]
    if strategy == "als_p":
        return solve_first_row_parallel(design.observables, values, n, config,
                                        workers=workers)
    if strategy == "als_n":
        blocks, report = solve_first_row_joint(design.observables, values, n, config)
    else:
        blocks, report = solve_first_row_subset(design.observables, values, n,
                                                subset_ratio, config)
    return blocks, [report]
