"""Alternating least squares solvers for low-rank sensing problems.

The unknown is factored as X = U V^H with U (d1 x r) and V (d2 x r). Each
half-sweep solves an exact linear least-squares problem in one factor, so the
loss is non-increasing across full sweeps. The accelerated variant
extrapolates both factors with momentum beta before the sweep and falls back
to a plain sweep whenever the loss grows by more than the restart factor eta.
There is one ALS loop: at beta = 0 the extrapolated point is the current
iterate, so every step is one exact sweep and the loop is plain ALS.

Two problem shapes are handled, one per design kind:

* random pairs: X is the full N^2 x N^2 reshaped matrix, sensed by
  tr[(conj(rho) x O)^H X] with data a length-M vector; the Kronecker
  products are never formed, the design rows are assembled through
  O^H (.) rho products on the unvectorized factor columns, and each
  half-sweep is an SVD-backed least-squares solve of those M rows.
* blockwise: X = [X_1, ..., X_p] is an N x pN row of blocks, p = d2 / N,
  sensed by the shared (M_O, N, N) observables with data the (p, M_O)
  matrix whose row k belongs to X_k (p = 1 is a single block). The blocks
  share the left factor U; the right-factor update decouples into one
  shared-design solve with p right-hand sides, the left-factor update
  couples all blocks.

Blockwise half-sweeps solve normal equations. A half-sweep minimises a
quadratic in one factor, so it needs the design only through its second
moments: the N^2 x N^2 Gram matrix G[x,y,x',y'] = sum_m O_m[x,y]
conj(O_m[x',y']) and the backprojections B_k = sum_m b_km O_m, both built
once per problem. The left update is then one (N r) x (N r) Hermitian
positive-definite solve with normal matrix sum G[x,y,x',y'] W[y,c,y',c'],
W = sum_k V_k (x) conj(V_k), and right-hand side sum_k B_k V_k; the right
update is one such solve with normal matrix sum G[x,a,x',a'] conj(U[x,c])
U[x',c'] and one right-hand side sum_x B_k[x,a] conj(U[x,c]) per block.
Neither costs anything that grows with M.

Validity: normal equations square the condition number. A Cholesky solve
is used only when the factorization succeeds and its diagonal's max/min
ratio stays under the bound of `linalg.cholesky_solve`. Otherwise (for
instance M_O < N r, where the normal matrix is singular) the half-sweep
assembles the M-row system and solves it by SVD-backed least squares,
which gives minimum-norm solutions on rank-deficient systems, and
`SolveReport.fallbacks` counts it.

The loss stays the direct residual over all M data. The quadratic form
||b||^2 - 2 Re<B, X> + <X, G X> would also be independent of M, but it
cancels down to roundoff at noiseless floors, where the restart test and
the choice of the best iterate read it.

On both back ends a common power-of-two rescaling of design and data
leaves every iterate unchanged bitwise: G, B and the normal matrices scale
by exact powers of four, their Cholesky factors by powers of two.

`solve_strategy` is the one table from strategy name to solver: `als_n2`
solves the full matrix, `als_p`, `als_n` and `als_i` the anchor block row.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DimensionError, DivergenceError
from .linalg import cholesky_solve, complex_gaussian, least_squares, truncated_svd
from .measurements import SensingDesign, pair_inner_products

__all__ = [
    "STRATEGY_DESIGNS",
    "FactorPair",
    "SolverConfig",
    "SolveReport",
    "derive_seed",
    "sensing_loss",
    "nesterov_als_solve",
    "solve_first_row_parallel",
    "solve_first_row_joint",
    "solve_first_row_subset",
    "solve_strategy",
]

_DIVERGENCE_FACTOR = 1e6

_BLOCK_INITS = 3   # solves raced per als_p block

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
        for name, kind in (("rank", numbers.Integral), ("max_iter", numbers.Integral),
                           ("gamma", numbers.Real), ("eta", numbers.Real),
                           ("beta", numbers.Real)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or not math.isfinite(value)):
                raise DimensionError(f"{name} must be a finite {kind.__name__}, "
                                     f"got {value!r}")
        if self.rank < 1:
            raise DimensionError("rank must be >= 1")
        if self.max_iter < 1:
            raise DimensionError("max_iter must be >= 1")
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
    fallbacks: int = 0      # half-sweeps that fell back from Cholesky to least squares


# ---------------------------------------------------------------------------
# problem back ends


class _PairProblem:
    """Full reshaped-matrix sensing from (state, observable) pairs."""

    fallbacks = 0   # no normal-equation path to fall back from

    def __init__(self, design: SensingDesign, b):
        self.n = design.dim_n
        self.d1 = self.d2 = self.n * self.n
        self.rho = design.states
        self.obs = design.observables
        self.b = np.asarray(b, dtype=np.complex128).reshape(-1)
        if self.b.size != len(self.obs):
            raise DimensionError(f"{self.b.size} data values for {len(self.obs)} pairs")
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


def _regroup(t, shape):
    """Matrix with rows (i, j) and columns (k, l), of index ranges shape,
    as the matrix with rows (i, k) and columns (j, l)."""
    a, b, c, d = shape
    return t.reshape(shape).transpose(0, 2, 1, 3).reshape(a * c, b * d)


class _StackedProblem:
    """Shared-observable sensing of stacked blocks with a common left factor.

    The half-sweeps solve normal equations built from G and B (see the
    module docstring), which are computed on first use, so after
    _make_problem's checks; `fallbacks` counts the half-sweeps that went to
    the least-squares assembly instead.
    """

    def __init__(self, design: SensingDesign, n_blocks: int, b):
        self.obs = design.observables
        self.n = design.dim_n
        self.n_blocks = n_blocks
        self.d1 = self.n
        self.d2 = self.n * n_blocks
        self.b = np.asarray(b, dtype=np.complex128).reshape(n_blocks, len(self.obs))
        self.m_total = self.b.size
        self.fallbacks = 0
        self._flat = self.obs.reshape(len(self.obs), -1)    # (M, N^2), col x*N+y

    @cached_property
    def _gram(self):
        """G as the N^2 x N^2 matrix with rows (x, x') and columns (y, y')."""
        n = self.n
        g = (self._flat.T @ self._flat.conj()).reshape(n, n, n, n)
        return g.transpose(0, 2, 1, 3).reshape(n * n, n * n)

    @cached_property
    def _brow(self):
        """[B_1, ..., B_p] side by side: N x pN, column (k, y)."""
        bsum = (self.b @ self._flat).reshape(self.n_blocks, self.n, self.n)
        return bsum.transpose(1, 0, 2).reshape(self.d1, self.d2)

    def _split(self, v):
        return v.reshape(self.n_blocks, self.n, v.shape[1])

    def measure(self, u, v):
        # w[m,c,a] = sum_x conj(O_m[x,a]) U[x,c]; value (k, m) = sum w conj(V_k[a,c])
        n, r, m = self.n, u.shape[1], len(self.obs)
        w = np.matmul(u.conj().T, self.obs).conj().reshape(m, r * n)
        vt = self._split(v).conj().transpose(0, 2, 1).reshape(self.n_blocks, r * n)
        return vt @ w.T

    def solve_right(self, u):
        n, r = self.n, u.shape[1]
        # normal matrix sum_{x,x'} conj(U[x,c]) G[x,a,x',a'] U[x',c'], contracted
        # over x (the leading row index of _gram), then over x'
        t = (u.conj().T @ self._gram.reshape(n, -1)).reshape(r, n, n * n)
        t = np.matmul(u.T, t).reshape(r, r, n, n)          # [c, c', a, a']
        normal = t.transpose(2, 0, 3, 1).reshape(n * r, n * r)
        # one right-hand side per block: sum_x B_k[x,a] conj(U[x,c])
        rhs = (self._brow.T @ u.conj()).reshape(self.n_blocks, n * r).T
        y = cholesky_solve(normal, rhs)                     # (N r, n_blocks)
        if y is None:
            self.fallbacks += 1
            w = np.einsum("mxa,xc->mac", self.obs.conj(), u)
            y = least_squares(w.reshape(w.shape[0], -1), self.b.T)
        return y.T.conj().reshape(self.d2, r)

    def solve_left(self, v):
        n, r = self.n, v.shape[1]
        # normal matrix sum_{y,y'} G[x,y,x',y'] W[y,c,y',c'], W = sum_k V_k (x) conj(V_k)
        vf = v.reshape(self.n_blocks, n * r)
        w = _regroup(vf.T @ vf.conj(), (n, r, n, r))
        normal = _regroup(self._gram @ w, (n, n, r, r))
        u = cholesky_solve(normal, (self._brow @ v).reshape(-1))   # sum_k B_k V_k
        if u is None:
            self.fallbacks += 1
            z = np.einsum("mxy,kyc->kmxc", self.obs, self._split(v), optimize=True)
            u = least_squares(z.conj().reshape(self.m_total, -1), self.b.reshape(-1))
        return u.reshape(n, r)

    def loss(self, u, v):
        resid = self.measure(u, v) - self.b
        return float(np.sum(np.abs(resid) ** 2)) / (2 * self.m_total)

    def loss_of(self, x):
        x = np.asarray(x, dtype=np.complex128)
        blocks = x.reshape(self.n, self.n_blocks, self.n).transpose(1, 0, 2)
        vals = np.einsum("mxy,kxy->km", self.obs.conj(), blocks, optimize=True)
        return float(np.sum(np.abs(vals - self.b) ** 2)) / (2 * self.m_total)

    def backprojection(self):
        return self._brow / len(self.obs)


def _make_problem(design: SensingDesign, b, d1: int, d2: int):
    """The back end of a design: a random-pairs design senses the full
    N^2 x N^2 matrix, a blockwise one the d2 // N blocks of an N x d2 row."""
    if design.kind == "random_pairs":
        prob = _PairProblem(design, b)
    else:
        prob = _StackedProblem(design, max(1, d2 // design.dim_n), b)
    if not np.all(np.isfinite(prob.b)):
        raise DimensionError("data values hold non-finite entries")
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
                       restarts, trace, time.perf_counter() - start, prob.fallbacks)


# ---------------------------------------------------------------------------
# first-row strategies


def _row_design(observables, values, n: int) -> SensingDesign:
    """The blockwise design of the shared observables, after checking that
    values is the (n, M_O) data matrix of an n-block anchor row."""
    design = SensingDesign("blockwise", np.shape(observables)[-1], observables)
    if np.shape(values) != (n, design.n_measurements):
        raise DimensionError(f"values of shape {np.shape(values)}, expected "
                             f"({n}, {design.n_measurements})")
    return design


def solve_first_row_parallel(observables, values, n: int, config: SolverConfig):
    """Recover each anchor-row block independently (one solve per block).

    observables is the (M_O, N, N) array of the design and values the
    (n, M_O) data matrix, one row per column block. The per-block problems
    run near the identifiability limit, where a single start can land in a
    spurious basin, so each block races three accelerated solves (the
    configured init plus random restarts) and keeps the lowest-loss result;
    per-block seeds are derived from (config.seed, block index, attempt).
    Returns (row, reports) with row the N x nN anchor row and one winning
    report per block.
    """
    design = _row_design(observables, values, n)
    dim = design.dim_n
    row = np.empty((dim, n * dim), dtype=np.complex128)
    reports = []
    for k in range(n):
        best = None
        for attempt in range(_BLOCK_INITS):
            cfg = replace(config, seed=derive_seed(config.seed, 1, k, attempt),
                          init=config.init if attempt == 0 else "random")
            try:
                rep = nesterov_als_solve(design, values[k], dim, dim, cfg)
            except Exception as exc:
                raise type(exc)(f"block {k}: {exc}") from exc
            if best is None or rep.final_loss < best.final_loss:
                best = rep
        row[:, k * dim:(k + 1) * dim] = best.factors.product()
        reports.append(best)
    return row, reports


def solve_first_row_joint(observables, values, n: int, config: SolverConfig):
    """Recover the whole anchor row at once with a shared left factor.

    observables is the (M_O, N, N) array of the design and values the
    (n, M_O) data matrix. Returns (row, report) with row = U V^H, the
    N x nN anchor row.
    """
    design = _row_design(observables, values, n)
    dim = design.dim_n
    report = nesterov_als_solve(design, values, dim, dim * n, config)
    return report.factors.product(), report


def solve_first_row_subset(observables, values, n: int, subset_ratio: float,
                           config: SolverConfig):
    """Joint solve on a random subset of the anchor row, then fill the rest.

    observables and values are laid out as for solve_first_row_joint. The
    subset always contains block 0 (the Hermitian diagonal block) plus
    ceil(ratio * N) - 1 indices sampled without replacement; it is kept in
    ascending order, so ratio 1 reproduces the joint solve exactly. Blocks
    outside the subset are recovered by one right-factor solve of the
    stacked problem with the shared left factor fixed; its fallback, if
    any, is added to the report's count. Returns (row, report) with row the
    N x nN anchor row.
    """
    if not 0 < subset_ratio <= 1:
        raise DimensionError("subset_ratio must be in (0, 1]")
    design = _row_design(observables, values, n)
    dim = design.dim_n
    p = min(n, max(1, math.ceil(subset_ratio * n)))
    rng = np.random.default_rng(derive_seed(config.seed, 2))
    chosen = [0] + sorted(rng.choice(np.arange(1, n), size=p - 1, replace=False).tolist())
    report = nesterov_als_solve(design, values[chosen], dim, dim * p, config)
    u = report.factors.left
    v = np.empty((n, dim, config.rank), dtype=np.complex128)   # right factor by block
    v[chosen] = report.factors.right.reshape(p, dim, -1)
    rest = [k for k in range(n) if k not in chosen]
    if rest:
        fill = _make_problem(design, values[rest], dim, dim * len(rest))
        v[rest] = fill.solve_right(u).reshape(len(rest), dim, -1)
        report.fallbacks += fill.fallbacks
    return u @ v.reshape(n * dim, -1).conj().T, report


def solve_strategy(strategy: str, design: SensingDesign, values, config: SolverConfig,
                   subset_ratio: float = 1.0):
    """Run one recovery strategy on a design and its measured values.

    values is laid out as `MeasurementSet.values`. Returns
    (estimate, reports): the full N^2 x N^2 matrix for `als_n2`, the
    N x N^2 anchor row otherwise, and the list of solve reports behind it
    (one per block for `als_p`, a single one otherwise). `subset_ratio` is
    read by `als_i` only.
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
        return solve_first_row_parallel(design.observables, values, n, config)
    if strategy == "als_n":
        row, report = solve_first_row_joint(design.observables, values, n, config)
    else:
        row, report = solve_first_row_subset(design.observables, values, n,
                                             subset_ratio, config)
    return row, [report]
