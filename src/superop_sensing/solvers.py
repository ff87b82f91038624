"""Alternating least squares solvers for low-rank sensing problems.

The unknown is factored as X = U V^H with U (d1 x r) and V (d2 x r). Each
half-sweep solves an exact linear least-squares problem in one factor, so the
loss is non-increasing across full sweeps. A sweep solves for V given U, then
for U given V, so it reads U only. The accelerated variant extrapolates U
with momentum beta before the sweep and falls back to a plain sweep whenever
the loss grows by more than the restart factor eta.
There is one ALS loop: at beta = 0 the extrapolated point is the current
iterate, so every step is one exact sweep and the loop is plain ALS.

The default momentum is beta = 0.5, with eta = 1.2. beta = 1 overshoots:
on N = 8 random pairs (M = 1100, rank 3) it took 828 sweeps (iterations
plus restarts) over ten seeds, against 611 for plain ALS and 300 at 0.5.
The constant was chosen among {0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 1.0} as the
one of least worst-case cost, the cost being the largest ratio of its
sweeps to beta = 1's over six configurations: that one, the N = 25
Lindbladian joint row at M_O = 640 and 120, the N = 8 joint and subset
rows at M_O = 50, and N = 4 noiseless pairs at M = 128. A candidate had
to keep every noisy median error within 1% of beta = 1's, recover all
noiseless trials at M >= 128, and still restart on a slowly falling loss
(eta just above 1); 0.3 and 0.8 missed the error bound, 0.3 never
restarted. 0.5 cost at most 0.75 of beta = 1's sweeps on every
configuration.

The restart test runs only while the current loss is above a floor of
eps ||b||^2 / M, eps the float64 machine epsilon. At an exact fit the
compared losses are roundoff (about eps^2 ||b||^2 / M times the squared
conditioning of the rows), so whether a restart fired was noise; below
the floor every extrapolated step is kept. Validity: noisy data keep the
loss near sigma^2, far above the floor (by more than 1e7 on every noisy
configuration above), so there the floor changes no decision. It scales
with ||b||^2, so a power-of-two rescaling of design and data keeps every
decision and iterate bitwise.

Two problem shapes are handled, one per design kind:

* random pairs: X is the full N^2 x N^2 reshaped matrix, sensed by
  tr[(conj(rho) x O)^H X] with data a length-M vector; the Kronecker
  products are never formed. Both half-sweeps assemble their M rows
  with one routine, from the other factor's columns F viewed as N x N
  matrices, 2 N^2 r pairs at a time: per chunk, one product O_m F over
  the observable index, with the chunk's observables stacked as an
  (M N) x N matrix, conjugated in place for the left rows only, and one
  matmul batched over the chunk's pairs with rho_m (rho_m^T for the left
  rows), whose output is already the chunk's slice of the M x (N^2 r)
  row matrix. The right rows need conj(O_m^T conj(F)), which is O_m F
  entry by entry because O_m is exactly Hermitian, so they take no
  conjugate pass and no per-pair product. A half-sweep then solves the
  normal equations of its rows.
* blockwise: X = [X_1, ..., X_p] is an N x pN row of blocks, p = d2 / N,
  sensed by the shared (M_O, N, N) observables with data the (p, M_O)
  matrix whose row k belongs to X_k (p = 1 is a single block). The blocks
  share the left factor U; the right-factor update decouples into one
  shared-design solve with p right-hand sides, the left-factor update
  couples all blocks.

Every half-sweep solves normal equations. On random pairs the M x (N^2 r)
row matrix g of a half-sweep changes with the other factor, and the
whole-design Gram matrix would be N^4 x N^4, so the half-sweep forms
g^H g and g^H b from its own rows and solves that N^2 r x N^2 r system.
g^H g comes from the real view rv of g, an M x 2N^2 r float64 matrix with
columns (re, im): s = rv^T rv is a symmetric rank-k update, half the
multiplies of a complex product, and g^H g = s[re, re] + s[im, im] +
i (s[re, im] - s[im, re]). g^H b is computed as conj(b^H g), so no
conjugate copy of g is made.

The rows, a scratch array and the normal matrix live in a workspace of
the problem, allocated on its first row assembly and kept while the rank
stays the same. With k = N^2 r, the scratch array holds 2 k^2 complex
entries for every M: one chunk's intermediate O_m F of a row assembly,
2 k pairs of k entries each, and then, once the rows are built, s, 2k x
2k real. A sweep thus allocates nothing the size of the rows, and each
assembly returns a view of the workspace that is valid until the next
one. A pair problem holds one M x k, one 2 k^2 and one k x k complex
array (3.4 MB, 1.2 MB and 0.6 MB at N = 8, M = 1100, r = 3), where an
intermediate of all M pairs would need M k entries (3.4 MB). The chunks
change no arithmetic: each pair's products are the same calls on the
same numbers, so the rows are bitwise those of one product over all M.
A problem used only for its loss allocates no workspace.

Blockwise, a half-sweep minimises a quadratic in one factor, so it needs
the design only through its second moments: the N^2 x N^2 Gram matrix
G[x,y,x',y'] = sum_m O_m[x,y] conj(O_m[x',y']) and the backprojections
B_k = sum_m b_km O_m, G once per design and shared by every problem on
it, B once per problem. The left update is
then one (N r) x (N r) Hermitian positive-definite solve with normal
matrix sum G[x,y,x',y'] W[y,c,y',c'], W = sum_k V_k (x) conj(V_k), and
right-hand side sum_k B_k V_k; the right update is one such solve with
normal matrix sum G[x,a,x',a'] conj(U[x,c]) U[x',c'] and one right-hand
side sum_x B_k[x,a] conj(U[x,c]) per block. Neither costs anything that
grows with M.

Both half-sweeps read G in one format: its rows (x, x') with x >= x',
N (N + 1) / 2 of its N^2 rows, in one array of N^3 (N + 1) / 2 complex
entries filled once per design straight from S (below). No full G is
ever made, so the sweeps hold C (the design's own; below), B and the
packed rows.

The left normal matrix, with rows (x, c) and columns (x', c'), is formed
on its lower triangle only: G W is computed on the packed rows, and the
other rows of G W are left zero. Those rows hold every entry on or below
the diagonal, so the matrix is exact where it is read. Validity: only
`linalg.cholesky_solve` reads the normal matrix, and it reads the lower
triangle only (its stated contract); the least-squares fallback solves
the M rows, not the normal matrix.

The right normal matrix, with rows (a, c) and columns (a', c'), is T + T^H,
T = sum over the packed rows of z[(x,x'),(c,c')] G[x,a,x',a'] with weights
z = conj(U[x,c]) U[x',c'], halved on the rows x = x'. This holds as
G[x,a,x',a'] = conj(G[x',a',x,a]): T^H is the same sum over the rows
x <= x', and the halving counts the rows x = x', which both sums hold,
once. The 1/2 is a power of two, so the scale invariance below holds. T
is one product z^T rows, whose output has only r^2 rows. At one BLAS
thread it took 0.41 ms at N = 25, r = 3 and 26 ms at N = 64, r = 4,
against 0.84 and 45 ms for the contraction of the full G over x, then x';
the other orientation, rows^T z, took the same at N = 25 but 62 ms at
N = 64.

G comes from the observables' real coordinates C, the M x N^2 float64
matrix a blockwise `SensingDesign` holds in place of its stack
(`measurements`): O_m[x,y] = C_m[p] + i s C_m[q] with s = s(x,y) the sign
of x - y and p, q the flat indices of (min, max) and (max, min) of x and
y (s = 0 on the diagonal). S = C^T C is one symmetric rank-k update, a
quarter of the multiplies of the complex product flat^T conj(flat) over
the stack, and every entry of G is one formula of S:
G[x,y,x',y'] = S[p,p'] + s s' S[q,q'] + i (s S[q,p'] - s' S[p,q']).
Only the packed rows are filled, x by x: the x + 1 rows (x, x'), viewed as
[y, x', y'], from S's rows p and q of that x gathered at the columns p' and
q' of x' <= x, by `np.take` into buffers that every x reuses (4 N^3 reals:
S's two rows and the x's real and imaginary parts, each contiguous, with
the x's own rows as scratch), then copied into those rows once. Every
ufunc reads and writes whole contiguous operands: one that writes a
strided view of the rows, casts, or broadcasts allocates a buffer of up
to 8192 elements an operand, so the signs go on y by y. The rows are bitwise
those of writing each formula into the strided views.

S lives in the rows' own buffer, whose N^3 (N + 1) reals are (N + 1) / N
of S's N^4: the syrk writes S into the buffer's last N^4 reals, and its
rows are then moved, by cycles with one row of scratch, into the order
of the fill step that reads each last. S's row (a, b) is read at the
steps x = a and x = b, so last at max(a, b); the 2t + 1 rows of step t
take the slots t^2 to (t + 1)^2 - 1, which start at real N^3 + t^2 N^2.
Step x reads its rows of S first and then writes its own rows, up to real
(x + 1)(x + 2) N^2, which is at most N^3 + (x + 1)^2 N^2, where the rows
of later steps begin; so the fill overwrites only rows of S it is done
with, and every bit of S and of the rows stays (pinned against a fill
over a separate S by the tests). The build holds C, the rows and those
buffers. At N = 25, M_O = 640 its own peak is 3.59 MiB under tracemalloc,
1.004 times the rows (3.1 MiB) and the buffers (0.48), beside C
(3.05 MiB), where S apart (3.0 MiB) made it 6.56; at N = 64, M_O = 1640
it is 138 MiB, where S apart made it 266, at about the same time
(0.85-0.94 s against 0.90-1.05 s for the whole Gram part of a trial).

A strategy runs in two steps (`set_up_strategy`): set-up makes each
problem's B from C and shares the design's C with `_BlockStats`, which
every problem on the design shares, with its packed rows; the run reads
no other part of the design. B_k = sum_m b_km O_m = T_k[p] + i s T_k[q]
with T = b C, one real product C^T [Re b^T, Im b^T] per problem, half
the multiplies of the complex product with the stack (B moved by at
most 5.3e-16 relative, in norm, on four designs of N = 4 to 25). It is
each problem's own product, as a row of a product over more rows of b
is not bitwise the product of that row alone. `harness` and `cli solve`
drop the design and data between the two steps, which frees the data;
the public solvers (`nesterov_als_solve`, `solve_first_row_*`,
`sensing_loss`) take the design or a stack as an argument, so their
caller holds it through the solve (a stack given to `solve_first_row_*`
beside the C taken from it). At N = 25, M_O = 640,
C is 3.05 MiB, the rows 3.1, and a trial's traced stage peaks are design
3.84, simulate 4.30, set-up 4.32 and run 7.75 MiB, where the
observable stack (6.1 MiB) beside C and S beside the rows read 6.88,
7.35, 10.20 and 10.18. At N = 64, M_O = 1640, C is 51.3 MiB and the rows
130: the stages read 57.9, 71.6, 66.8 and 196 MiB, where the stack
(102.5 MiB) and S (128 MiB) made them 109, 123, 165 and 323. Scoring
holds N-row blocks only (`harness`), so the run sets a trial's peak.

Validity, on both back ends: normal equations square the condition number.
A Cholesky solve is used only when the factorization succeeds and its
diagonal's max/min ratio stays under the bound of `linalg.cholesky_solve`.
Otherwise (for instance fewer pairs M than the N^2 r unknowns, or
M_O < N r blockwise, where the normal matrix is singular; or a square,
badly conditioned pair system) the half-sweep solves its M-row system by
SVD-backed least squares, which gives minimum-norm solutions on
rank-deficient systems, and `SolveReport.fallbacks` counts it. Every
half-sweep of both back ends takes this step through one function,
`_normal_solve`; a blockwise half-sweep builds its M rows only when it
falls back.

Both back ends feed the ALS loop through one loss protocol, in their
base `_Problem`, which holds the data b, ||b||^2 (taken once per
problem), the fallback count and the part times. A back end supplies its
two half-sweeps, a direct loss of factors and `loss_of` a matrix; its
left half-sweep keeps the loss at the (u, v) it returns and takes, and
the base's one `sweep` (right, left, then `loss` of the new pair), one
`loss` and one `final_loss` read it under rules 3 and 4 below. Every
loss of both back ends, from factors, from a matrix or from the pair
rows, is one function of the predicted values, `_loss`.

On random pairs the kept loss is the direct residual over all M data.
The left half-sweep has just built the rows h that map U to the data at
the new V, and solved min ||h y - b|| for y = U, so the loss at its
solution is ||h y - b||^2 / 2M, read off those rows without a second
assembly, after a fallback too. The pair direct loss assembles the left
rows once more; a solve pays that once, for its final loss.

The blockwise quadratic form ||b||^2 - 2 Re<B, X> + <X, G X> would be
independent of M, but it cancels down to roundoff at noiseless floors,
where the restart test and the choice of the best iterate read it. The
blockwise direct loss is one real GEMM over C: with X_k = U V_k^H,
<O_m, X_k> = sum_{a,x} conj(O_m[a,x]) X_k[a,x] = sum_j C_m[j] W_k[j],
W_k = alpha X_k^T + beta X_k entry by entry (`measurements._weights`),
so the values are C W, taken over W's float64 view as an M_O x N^2 by
N^2 x 2p real product. X and W are dropped as soon as they are read, and
the residual is taken in the values' own buffer (`_loss`), bitwise as
before, so at N = 25, M_O = 640 a direct loss holds 0.52 MiB beside the
sweeps' data, where it held 1.09. It costs 2 M_O N^2 p multiplies
against about 8 M_O N^2 r for the stacked (M N) x N product of O with U
and then conj(V): at N = 25
(p = 25, r = 3) the two run at parity, 1.4 ms a call, while at N = 64
(r = 4) it takes 0.8 s of a 4 s trial where the stacked form takes 0.4 s.
The two forms' roundoff differs, by up to 6e-15 relative in the final
loss at N = 25 and 3.5e-13 at N = 4, sigma = 1e-4, each the size of
either form's own error against a long-double residual.

The blockwise kept loss is the one from the left solve,
(||b||^2 - ||L^-1 h||^2) / 2M with L the Cholesky factor of the left
normal matrix and h its right-hand side, which skips that GEMM: the
left half-sweep has just solved L L^H u = h, and L^-1 h is the forward
substitution of that solve, which `linalg.cholesky_solve` returns beside
u, so the loss at its solution costs one vdot of N r entries. But it
resolves the loss only to one ulp of ||b||^2 / 2M, and it is the very
quadratic form above, so it cancels down to roundoff at noiseless
floors. On N = 4, M_O = 20, sigma = 1e-3, rank 2, plain ALS, it
differed from the direct loss by up to 1.75e-10 relative, and one ulp was
7.1e-11 of the final loss, 70 times the 1e-12 relative rise that a
plain ALS trace may show. Whether that trace stayed within it depended
on how the two norms were summed: with vdot it did, with sum(|.|^2) it
rose by one ulp. So a blockwise sweep reads its loss off the left solve
only under these rules; the direct loss has no such floor. Rules 3 to 5
hold on both back ends.

1. Fallback. A left half-sweep that fell back to least squares has no
   Cholesky factor, and its loss is the direct one.
2. Floor. The value from the solve is used only at or above
   10^6 eps ||b||^2 / M, 10^6 times the restart floor, where its
   resolution, one ulp of ||b||^2 / 2M, is at most 5e-7 of it. Below,
   the loss is direct, so the cancellation at noiseless floors never
   reaches a decision, and noiseless solves keep their direct losses bit
   for bit. Noisy losses sit above the restart floor by more than 1e7
   (above), so above this one too.
3. Replay. The problem keeps the value of its last left solve beside a
   digest of the (u, v) that solve returned and took, not the arrays, and
   `loss(u, v)` of that pair returns it; `sweep` reads its loss that way,
   so a replay of the loop that calls `loss(u, v)` on the pair a left
   half-sweep just returned gets the loop's bits. Every other pair and
   `sensing_loss` are direct.
4. Final loss. The emitted `final_loss` is the direct residual of the
   returned factors, one pass over C (on pairs, one assembly of the left
   rows) at the end of the solve, so `als_p`'s race and every report
   compare direct residuals.
5. Decisions. The restart test and the best iterate (strict
   f_new < best) read the loop's losses as before. ||b||^2, L^-1 h and the
   floor scale by exact powers of two, so the scale invariance below
   holds.

The two losses agree to a few ulps of ||b||^2 / 2M: 27 at most over 600
sweeps of 40 seeded noisy problems (N = 3 to 8), and `tests/test_solvers.py`
holds them to 64. A noisy solve then makes one direct pass, its final
loss: on `lindblad-n25` (N = 25, M_O = 640, one BLAS thread) its losses
take 2.2 ms a trial, against 4.2 ms with a direct initial loss as well
and 39 ms with a direct loss every sweep, and at N = 64, M_O = 1640,
0.053 s against 0.11 and 0.83 s.

The divergence guard takes no loss of its own. Every sweep ends on an
exact left solve, whose loss is the least over every U at the new V,
U = 0 among them, so no sweep's loss exceeds that of the zero estimate,
||b||^2 / 2M, beyond roundoff. A sweep loss that is not finite, or above
10^6 times that, raises `DivergenceError`. At b = 0 the scale is 0, and
so is every exact solution and its loss.

On both back ends a common power-of-two rescaling of design and data
leaves every iterate unchanged bitwise: the design rows, C, S, G, B, the
normal matrices and their Cholesky factors all scale by exact powers of
two.

One table, `_STRATEGIES`, maps each strategy name to the design kind it
reads and its set-up; `STRATEGY_DESIGNS` is derived from it, and
`set_up_strategy` looks a name up in it. `als_n2` solves the full matrix
from random pairs. The others recover the anchor block row: `als_p` block
by block, and `als_i` jointly on a subset of the blocks, then fills the
rest by one right-factor solve with the subset's left factor. `als_n`,
the joint solve of the whole row, is `als_i` at ratio 1: the subset is
every block in order, so there is no fill and it runs the one joint
solve. `solve_strategy` runs both steps.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property, wraps

import numpy as np

from .errors import DimensionError, DivergenceError, _check_fields
from .linalg import (FactorPair, cholesky_solve, complex_gaussian, least_squares,
                     truncated_svd)
from .measurements import (SensingDesign, _coord_index, _stack_of, _weights,
                           pair_inner_products)

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
    "set_up_strategy",
    "solve_strategy",
    "report_totals",
]

_LOG = logging.getLogger(__name__)   # a child of the package logger, "superop_sensing"

_DIVERGENCE_FACTOR = 1e6

# restart decisions are taken only while the loss is above this multiple of
# ||b||^2 / M; below it the loss values being compared are roundoff
_RESTART_FLOOR = float(np.finfo(np.float64).eps)

# a blockwise sweep reads its loss off the left solve only at or above this
# multiple of ||b||^2 / M (see the module docstring)
_LEFT_LOSS_FLOOR = 1e6 * _RESTART_FLOOR

_BLOCK_INITS = 3   # solves raced per als_p block

# als_p keeps the first attempt whose final loss is within this relative
# distance of the least, a few ulps: attempts that reach one basin differ
# by roundoff, which should not pick the winner
_TIE_RTOL = 4 * float(np.finfo(np.float64).eps)


def derive_seed(*parts) -> int:
    """Deterministic child seed from integer parts (master seed, indices...)."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


# SolverConfig's fields by the rules of `errors._check_fields`
_SOLVER_FIELDS = {"rank": 1, "max_iter": 1, "gamma": "(0, inf)", "eta": "(1, inf)",
                  "beta": "(-inf, inf)", "seed": 0, "init": ("spectral", "random")}


@dataclass
class SolverConfig:
    rank: int
    max_iter: int = 300
    gamma: float = 1e-8
    eta: float = 1.2
    beta: float = 0.5   # chosen as the module docstring states
    seed: int = 0
    init: str = "spectral"   # or "random"

    def __post_init__(self):
        vars(self).update(_check_fields(vars(self), _SOLVER_FIELDS))


@dataclass
class SolveReport:
    factors: FactorPair
    final_loss: float
    iterations: int
    restarts: int
    loss_trace: list = field(default_factory=list)
    wall_time: float = 0.0
    fallbacks: int = 0      # half-sweeps that fell back from Cholesky to least squares
    stop: str = "max_iter"  # or "converged": why the loop ended
    part_s: dict = field(default_factory=dict)   # _PARTS -> seconds of the problem's work


# ---------------------------------------------------------------------------
# problem back ends


# a problem's timed work: the Gram build (blockwise only), the right and
# left half-sweeps and the losses
_PARTS = ("gram", "right", "left", "loss")


def _timed(part):
    """Method decorator: add a call's seconds to self.part_s[part], less
    those that timed calls inside it add, so none is counted twice."""
    def wrap(method):
        @wraps(method)
        def timed(self, *args):
            start = time.perf_counter() - sum(self.part_s.values())
            out = method(self, *args)
            self.part_s[part] += time.perf_counter() - sum(self.part_s.values()) - start
            return out
        return timed
    return wrap


def _loss(values, b) -> float:
    """The sensing loss sum |values - b|^2 / 2M over the M data b. values,
    a temporary of the caller's, is overwritten by the difference, and
    the squared moduli go to one array in C order, the order of b and so
    of the difference `values - b` would make, so the sum's bits are
    those of that expression."""
    np.subtract(values, b, out=values)
    sq = np.abs(values, out=np.empty(values.shape))
    return float(np.sum(np.square(sq, out=sq))) / (2 * b.size)


def _normal_solve(prob, normal, rhs, b, rows):
    """Solve the normal equations normal y = rhs of the M-row system
    rows() y = b by Cholesky: (y, L^-1 rhs), L the Cholesky factor, whose
    forward substitution the solve has made (`linalg.cholesky_solve`).

    When `linalg.cholesky_solve` rejects them, solve rows() y = b by
    least squares instead, count one fallback on prob and return (y, None);
    rows is called only then, so a back end that never forms its M rows
    builds them only for the fallback.
    """
    y, forward = cholesky_solve(normal, rhs)
    if y is None:
        prob.fallbacks += 1
        return least_squares(rows(), b), None
    return y, forward


def _digest(*arrays) -> int:
    """A hash of the arrays' dtypes, shapes and bits: knows them again
    without holding them."""
    return hash(tuple((a.dtype.str, a.shape, a.tobytes()) for a in map(np.asarray, arrays)))


class _Problem:
    """What the ALS loop reads of a back end: the data b (M values in all)
    and ||b||^2, the fallback count, the part times, and one `sweep`,
    `loss` and `final_loss` (see the module docstring). A back end
    supplies `solve_right`, `solve_left`, `_direct_loss(u, v)` and
    `loss_of(x)`; its `solve_left` keeps the loss at the pair it returns
    and takes, or None, through `_keep`.
    """

    def __init__(self, b):
        self.b = b
        self.m_total = b.size
        self.b_sq = float(np.vdot(b, b).real)              # ||b||^2
        self.fallbacks = 0
        self.part_s = dict.fromkeys(_PARTS, 0.0)
        self._left_loss = None   # (digest of (u, v), loss) of the last left solve

    def _keep(self, u, v, loss):
        self._left_loss = None if loss is None else (_digest(u, v), loss)

    def sweep(self, u):
        v = self.solve_right(u)
        u_new = self.solve_left(v)
        return v, u_new, self.loss(u_new, v)

    @_timed("loss")
    def loss(self, u, v):
        # the last left solve's loss for the pair it returned and took, else direct
        if self._left_loss is not None and self._left_loss[0] == _digest(u, v):
            return self._left_loss[1]
        return self._direct_loss(u, v)

    @_timed("loss")
    def final_loss(self, u, v):
        return self._direct_loss(u, v)


class _PairProblem(_Problem):
    """Full reshaped-matrix sensing from (state, observable) pairs.

    Both half-sweeps assemble their M design rows with the one routine
    `_rows`, 2 N^2 r pairs at a time, each chunk as one product with its
    O stacked as an (M N) x N matrix and one matmul batched over its
    pairs, into the problem's workspace; the right
    half passes rho_m, the left half rho_m^T and a conjugation of the
    product, so neither copies the design. Each then
    solves the normal equations of its rows through the one fallback step
    `_normal_solve` (see the module docstring), and `fallbacks` counts the
    half-sweeps that went to least squares on those rows instead. A factor
    F enters the rows as its columns viewed as N x N matrices,
    F[i + N j, c] -> [i, (c, j)], so the right rows have columns (a, c, b)
    and solve for conj(V), the left rows columns (x, c, y) and solve for U.
    `solve_left` keeps the residual of the rows it has just solved as the
    loss at its pair.
    """

    def __init__(self, design: SensingDesign, b):
        b = np.asarray(b, dtype=np.complex128).reshape(-1)
        if b.size != len(design.observables):
            raise DimensionError(f"{b.size} data values for {len(design.observables)} pairs")
        super().__init__(b)
        self.n = design.dim_n
        self.d1 = self.d2 = self.n * self.n
        self.rho = design.states
        self.obs = design.observables
        self._work = None   # (rank, rows, scratch, normal matrix)

    def _workspace(self, r):
        # made on first use (see the module docstring); the flat scratch array
        # of 2 k^2 entries holds one chunk's row-assembly intermediate, then
        # the real Gram matrix s
        if self._work is None or self._work[0] != r:
            m, k = self.m_total, self.n * self.n * r
            self._work = (r, np.empty((m, k), np.complex128),
                          np.empty(2 * k * k, np.complex128),
                          np.empty((k, k), np.complex128))
        return self._work[1:]

    def _cols(self, factor):
        # F[i + N j, c] as the N x (r N) matrix [i, (c, j)]
        n, r = self.n, factor.shape[1]
        return factor.reshape(n, n, r, order="F").transpose(0, 2, 1).reshape(n, r * n)

    def _uncols(self, flat, r):
        # inverse of _cols on the flattened (i, c, j) vector
        n = self.n
        return flat.reshape(n, r, n).transpose(0, 2, 1).reshape(n * n, r, order="F")

    def _rows(self, factor, b, conj):
        """Row m, column (i, c, j): sum_{k,l} q_m[i,(c,l)] b_m[l,j], with
        q_m = O_m F for F the factor's columns from `_cols`, conjugated in
        place when conj is set; b is the states, batched as (M, N, N).

        The rows are built 2 N^2 r pairs at a time: a chunk's q comes from
        one product with its observables stacked as an (M N) x N matrix,
        into the scratch array, which holds exactly one full chunk's q, and
        its batched product with b goes straight into its rows. A view of
        the workspace, valid until the next row assembly.
        """
        m, n, r = self.m_total, self.n, factor.shape[1]
        rows, scratch, _ = self._workspace(r)
        cols, out = self._cols(factor), rows.reshape(m, n * r, n)
        chunk = 2 * n * n * r
        for start in range(0, m, chunk):
            stop = min(start + chunk, m)
            q = scratch[:(stop - start) * n * r * n].reshape((stop - start) * n, r * n)
            np.matmul(self.obs[start:stop].reshape(-1, n), cols, out=q)
            if conj:
                np.conjugate(q, out=q)
            np.matmul(q.reshape(stop - start, n * r, n), b[start:stop], out=out[start:stop])
        return rows

    def _rows_right(self, u):
        # column (a, c, b): sum_{x,y} O_m[a,x] U[x + N y, c] rho_m[y,b], which is
        # conj(O_m[x,a]) U rho_m as O_m is Hermitian; solving for conj(V)
        return self._rows(u, self.rho, conj=False)

    def _rows_left(self, v):
        # column (x, c, y): sum_{a,b} conj(O_m[x,a] V[a + N b, c]) rho_m[y,b]
        return self._rows(v, self.rho.transpose(0, 2, 1), conj=True)

    def _normal(self, g):
        # g^H g into the workspace, from the real Gram matrix s of g's (re, im)
        # columns: s = rv^T rv is a symmetric rank-k update, half a complex GEMM
        _, _, scratch, normal = self._work
        rv = g.view(np.float64)
        s = scratch.view(np.float64)[:rv.shape[1] ** 2].reshape(rv.shape[1], -1)
        np.matmul(rv.T, rv, out=s)
        nv = normal.view(np.float64)
        np.add(s[0::2, 0::2], s[1::2, 1::2], out=nv[:, 0::2])
        np.subtract(s[0::2, 1::2], s[1::2, 0::2], out=nv[:, 1::2])
        return normal

    def _solve_rows(self, g):
        # min ||g y - b|| through g^H g y = g^H b
        return _normal_solve(self, self._normal(g), (self.b.conj() @ g).conj(), self.b,
                             lambda: g)[0]

    @_timed("right")
    def solve_right(self, u):
        return self._uncols(self._solve_rows(self._rows_right(u)).conj(), u.shape[1])

    @_timed("left")
    def solve_left(self, v):
        h = self._rows_left(v)
        y = self._solve_rows(h)
        u = self._uncols(y, v.shape[1])
        self._keep(u, v, self._rows_loss(h, y))
        return u

    @_timed("loss")
    def _rows_loss(self, h, y):
        return _loss(h @ y, self.b)

    def _direct_loss(self, u, v):
        return self._rows_loss(self._rows_left(v), self._cols(u).reshape(-1))

    def loss_of(self, x):
        return _loss(pair_inner_products(self.rho, self.obs, x), self.b)

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


class _BlockStats:
    """What the solves of one blockwise design read of it: the design's
    real coordinates C (M_O x N^2 float64, the design's own array), and
    G's packed rows (x, x') with x >= x', built from C on first use and
    shared by every problem of the design (see the module docstring). It
    holds no reference to the design."""

    def __init__(self, design: SensingDesign):
        self.n, self.m, self.coords = design.dim_n, design.n_measurements, design.coords
        self.sign, self.p, self.q = _coord_index(self.n)   # s(x, y); (min, max), (max, min)

    @cached_property
    def gram_lower(self):
        """G's rows (x, x') with x >= x': x and x', then the rows packed,
        row (x, x') at x (x + 1) / 2 + x' with columns (y, y'). Each x fills
        its x + 1 rows by one formula of S = C^T C (see the module
        docstring), from S's rows and columns gathered into buffers that
        every x reuses, and copies them into its rows once. S is made in
        the tail of the rows' own buffer, its rows in the order the fill
        reads them last, so the fill overwrites only rows of S it is done
        with; no full G and no separate S is made."""
        n, p, q, sign = self.n, self.p, self.q, self.sign
        x, x_prime = np.tril_indices(n)
        rows = np.empty((len(x), n * n), dtype=np.complex128)
        s, slot = self._gram_in_tail(rows)                 # S's row j is s[slot[j]]
        sp, sq = np.empty((n, n * n)), np.empty((n, n * n))   # S's rows p and q of one x
        parts = np.empty((2, n ** 3))                      # one x's real and imaginary parts
        for i in range(n):
            k = i + 1                                      # rows (i, x') with x' < k
            block = rows[i * k // 2:i * k // 2 + k]
            re, im = parts[:, :n * k * n].reshape(2, n, k, n)
            # the block's own memory is the scratch t until the parts are copied in
            t = block.view(np.float64).reshape(-1)[:n * k * n].reshape(n, k, n)
            sk = sign[:k]
            np.take(s, slot[p[i]], axis=0, out=sp, mode="clip")
            np.take(s, slot[q[i]], axis=0, out=sq, mode="clip")
            # [y, x', y']: S[p,p'] + s s' S[q,q'] + i (s S[q,p'] - s' S[p,q']); the
            # signs go on y by y, as a ufunc that broadcasts allocates a buffer
            for y in range(n):
                sq[y] *= sign[i, y]
            np.take(sq, q[:k], axis=1, out=re, mode="clip")
            np.take(sp, q[:k], axis=1, out=t, mode="clip")
            for y in range(n):
                re[y] *= sk
                t[y] *= sk
            np.take(sq, p[:k], axis=1, out=im, mode="clip")
            im -= t
            re += np.take(sp, p[:k], axis=1, out=t, mode="clip")
            g = block.reshape(k, n, n).transpose(1, 0, 2)
            np.copyto(g.real, re)
            np.copyto(g.imag, im)
        return x, x_prime, rows

    def _gram_in_tail(self, rows):
        """S = C^T C in the last N^4 reals of the rows' buffer, as (s, slot):
        S's row (a, b), flat index j, is s[slot[j]], the rows in the order
        of the fill step max(a, b) that reads them last. The syrk writes S
        in flat order, then a permutation by cycles, one row of scratch
        each, moves every row to its slot, so S keeps every bit."""
        n2 = self.n * self.n
        s = rows.view(np.float64).reshape(-1)[-n2 * n2:].reshape(n2, n2)
        np.matmul(self.coords.T, self.coords, out=s)       # symmetric rank-k update
        a, b = np.divmod(np.arange(n2), self.n)
        order = np.lexsort((np.arange(n2), np.maximum(a, b)))   # slot -> flat index
        slot = np.empty(n2, dtype=np.intp)
        slot[order] = np.arange(n2)
        scratch, done = np.empty(n2), np.zeros(n2, dtype=bool)
        for start in range(n2):
            if done[start] or order[start] == start:
                continue
            np.copyto(scratch, s[start])                   # slot start's row leaves first
            here = start
            while order[here] != start:                    # slot here takes row order[here]
                np.copyto(s[here], s[order[here]])
                done[here], here = True, order[here]
            np.copyto(s[here], scratch)
            done[here] = True
        return s, slot

    def observables(self):
        """The (M_O, N, N) stack rebuilt from C, made only for a
        least-squares fallback's rows."""
        return _stack_of(self.coords, self.n)


class _StackedProblem(_Problem):
    """Shared-observable sensing of stacked blocks with a common left factor.

    A view of one design's `_BlockStats` with one problem's data: the
    (p, M_O) data b and the backprojections B, side by side as an N x pN
    row, computed from the design's stack by `of` while it is alive. The
    half-sweeps solve normal equations built from G's packed rows, which
    both half-sweeps read, and from B (see the module docstring), through
    the one fallback step `_normal_solve`; `fallbacks` counts the
    half-sweeps that assembled their M rows and went to least squares
    instead. `solve_left` keeps the loss from its Cholesky solve where the
    module docstring's rules allow; the direct loss is one real product
    over C. `part_s` adds up the seconds of the Gram build (the first
    problem of a design to read the rows pays for it), each half-sweep and
    each loss (the pair back end, with no Gram build, keeps the same
    account).
    """

    def __init__(self, stats: _BlockStats, b, brow):
        super().__init__(b)
        self.stats = stats
        self.n = stats.n
        self.n_blocks = len(b)
        self.d1 = self.n
        self.d2 = self.n * self.n_blocks
        self.brow = brow

    @classmethod
    def of(cls, stats: _BlockStats, b, n_blocks: int):
        """The problem of data b on the design whose statistics are stats,
        with [B_1, ..., B_p] from its coordinates: N x pN, column (k, y).
        B_k = sum_m b_km O_m = T_k[p] + i s T_k[q] with T = b C, taken as
        the real product C^T [Re b^T, Im b^T], half the multiplies of the
        complex product with the stack."""
        n, m = stats.n, stats.m
        b = np.asarray(b, dtype=np.complex128).reshape(n_blocks, m)
        t = stats.coords.T @ np.ascontiguousarray(b.T).view(np.float64)
        t = t.view(np.complex128)                          # T^T, [(x, y), k]
        bsum = t[stats.q]                                  # [x, y, k]
        bsum *= 1j * stats.sign[..., None]
        bsum += t[stats.p]
        del t
        return cls(stats, b, bsum.transpose(0, 2, 1).reshape(n, n_blocks * n))

    def fresh(self):
        """The same problem with counters of its own."""
        return _StackedProblem(self.stats, self.b, self.brow)

    @property
    @_timed("gram")
    def _gram_lower(self):
        return self.stats.gram_lower

    def _split(self, v):
        return v.reshape(self.n_blocks, self.n, v.shape[1])

    @_timed("right")
    def solve_right(self, u):
        n, r = self.n, u.shape[1]
        # normal matrix sum_{x,x'} conj(U[x,c]) G[x,a,x',a'] U[x',c'] = T + T^H,
        # T the sum over G's packed rows x >= x' with the rows x = x' weighted
        # by 1/2, as G[x,a,x',a'] = conj(G[x',a',x,a])
        x, x_prime, gram_lower = self._gram_lower
        z = u[x].conj()[:, :, None] * u[x_prime][:, None, :]   # [(x, x'), c, c']
        z[x == x_prime] *= 0.5
        t = (z.reshape(len(x), r * r).T @ gram_lower).reshape(r, r, n, n)   # [c, c', a, a']
        t = t.transpose(2, 0, 3, 1).reshape(n * r, n * r)
        normal = t + t.conj().T
        # one right-hand side per block: sum_x B_k[x,a] conj(U[x,c])
        rhs = (self.brow.T @ u.conj()).reshape(self.n_blocks, n * r).T
        y = _normal_solve(self, normal, rhs, self.b.T, lambda: np.einsum(
            "mxa,xc->mac", self.stats.observables().conj(), u).reshape(self.stats.m, -1))[0]
        return y.T.conj().reshape(self.d2, r)             # y is (N r, n_blocks)

    @_timed("left")
    def solve_left(self, v):
        n, r = self.n, v.shape[1]
        # normal matrix sum_{y,y'} G[x,y,x',y'] W[y,c,y',c'], W = sum_k V_k (x) conj(V_k),
        # from G's rows (x, x') with x >= x' only, which hold the lower triangle
        # (see the module docstring)
        vf = v.reshape(self.n_blocks, n * r)
        w = _regroup(vf.T @ vf.conj(), (n, r, n, r))
        x, x_prime, gram_lower = self._gram_lower
        gw = np.zeros((n * n, r * r), dtype=np.complex128)
        gw[x * n + x_prime] = gram_lower @ w
        normal = _regroup(gw, (n, n, r, r))
        rhs = (self.brow @ v).reshape(-1)                  # sum_k B_k V_k
        u, forward = _normal_solve(self, normal, rhs, self.b.reshape(-1), lambda: np.einsum(
            "mxy,kyc->kmxc", self.stats.observables(), self._split(v), optimize=True
        ).conj().reshape(self.m_total, -1))
        u = u.reshape(n, r)
        # the loss at (u, v), ||b||^2 - ||L^-1 h||^2 over 2M, kept unless the
        # solve fell back or it is below the floor
        loss = None
        if forward is not None:
            loss = (self.b_sq - float(np.vdot(forward, forward).real)) / (2 * self.m_total)
            if not loss >= _LEFT_LOSS_FLOOR * self.b_sq / self.m_total:   # NaN too
                loss = None
        self._keep(u, v, loss)
        return u

    def _direct_loss(self, u, v):
        return self.loss_of(u @ v.conj().T)

    def loss_of(self, x):
        # value (k, m) = <O_m, X_k> = C_m . W_k, one real product of C with W's
        # float64 view (see the module docstring); x and W are dropped
        # before the next array of their size is made, which frees x when
        # the caller passed a temporary
        xs = np.asarray(x, dtype=np.complex128).reshape(self.n, self.n_blocks, self.n)
        w = _weights(xs.transpose(0, 2, 1))                # [a, x, k]
        del x, xs
        values = (self.stats.coords @ w.view(np.float64)).view(np.complex128)
        del w
        return _loss(values.T, self.b)

    def backprojection(self):
        return self.brow / self.stats.m


def _make_problem(design: SensingDesign, b, d1: int, d2: int, stats=None):
    """The back end of a design: a random-pairs design senses the full
    N^2 x N^2 matrix, a blockwise one the p = d2 / N blocks of an N x d2
    row from p rows of M_O values (one row may be given flat), as a view of
    the design's statistics stats (made here if not given)."""
    b = np.asarray(b, dtype=np.complex128)
    if not np.all(np.isfinite(b)):
        raise DimensionError("data values hold non-finite entries")
    if design.kind == "random_pairs":
        prob = _PairProblem(design, b)
    else:
        n, m = design.dim_n, design.n_measurements
        if d2 < n or d2 % n or b.shape[-1:] != (m,) or b.size != d2 // n * m:
            raise DimensionError(f"blockwise data of shape {b.shape} are not d2 / N rows "
                                 f"of {m} values for d2={d2}, N={n}")
        prob = _StackedProblem.of(stats or _BlockStats(design), b, d2 // n)
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


def _init_left(prob, config: SolverConfig):
    """The starting left factor, all a sweep reads: that of the balanced
    truncated SVD of the data backprojection, U = left sqrt(s) (the
    standard spectral start, robust against spurious basins), or iid
    complex Gaussians when config.init == "random"."""
    if config.init == "random":
        return complex_gaussian(prob.d1, config.rank, config.seed)
    svd = truncated_svd(prob.backprojection(), config.rank)
    return svd.left * np.sqrt(svd.singular_values)


def _guard(loss: float, scale: float):
    if not math.isfinite(loss) or loss > _DIVERGENCE_FACTOR * max(scale, 1e-300):
        raise DivergenceError(f"loss diverged to {loss!r}")


def nesterov_als_solve(design, b, d1: int, d2: int,
                       config: SolverConfig) -> SolveReport:
    """ALS with factor-wise momentum extrapolation and loss-ratio restarts.

    U is initialized once (see _init_left) and a plain sweep produces the
    second iterate. Each subsequent step extrapolates U by beta
    (default 0.5, chosen to cut beta = 1's overshoot; see the module
    docstring) times its last move, runs one sweep (`prob.sweep`, which
    reads U only), and, if the loss exceeds eta times the previous one,
    discards the step and re-sweeps from the previous iterate (a plain ALS
    step). The restart test is skipped while the previous loss is at or
    below the floor eps ||b||^2 / M, where loss values are roundoff; that is
    valid while the data's noise keeps the loss above it. Terminates
    when the relative change of X = U V^H falls below gamma (`stop` is
    "converged") or after max_iter sweeps ("max_iter"). Returns the best
    iterate visited, with the direct residual of it as the final loss; the
    loss trace holds one value per sweep, each also logged at DEBUG. A
    sweep's loss comes from the back end's one loss protocol (see the
    module docstring), and one that is not finite or exceeds 10^6
    ||b||^2 / 2M, 10^6 times the loss of the zero estimate, raises
    DivergenceError; no loss is taken before the first sweep.

    beta = 0 is plain ALS: the extrapolated point is the current iterate,
    every step is one exact sweep and the loss trace is non-increasing up
    to roundoff.
    """
    return _als(_make_problem(design, b, d1, d2), config)


def _als(prob, config: SolverConfig) -> SolveReport:
    """The loop of `nesterov_als_solve` on a problem already set up."""
    start = time.perf_counter()
    if config.rank > min(prob.d1, prob.d2):
        raise DimensionError(f"rank {config.rank} exceeds min dimension "
                             f"{min(prob.d1, prob.d2)}")
    u_prev = _init_left(prob, config)
    # the loss of the zero estimate, which no exact left solve exceeds
    scale = prob.b_sq / (2 * prob.m_total)

    v_curr, u_curr, f_curr = prob.sweep(u_prev)
    trace = [f_curr]
    _LOG.debug("sweep 1: loss %r", f_curr)
    _guard(f_curr, scale)
    best = (u_curr, v_curr, f_curr)
    x_curr = u_curr @ v_curr.conj().T
    restarts = 0
    iterations = 1
    stop = "max_iter"
    floor = _RESTART_FLOOR * prob.b_sq / prob.m_total

    for _ in range(1, config.max_iter):
        v_new, u_new, f_new = prob.sweep(u_curr + config.beta * (u_curr - u_prev))
        restarted = f_curr > floor and f_new >= config.eta * f_curr
        if restarted:
            restarts += 1
            v_new, u_new, f_new = prob.sweep(u_curr)
        iterations += 1
        trace.append(f_new)
        _LOG.debug("sweep %d: loss %r%s", iterations, f_new,
                   " after a restart" if restarted else "")
        _guard(f_new, scale)
        if f_new < best[2]:
            best = (u_new, v_new, f_new)
        x_prev, x_curr = x_curr, u_new @ v_new.conj().T
        # x_prev is not read again, so the difference is taken in its buffer
        tol = config.gamma * np.linalg.norm(x_prev)
        converged = np.linalg.norm(np.subtract(x_curr, x_prev, out=x_prev)) <= tol
        del x_prev
        u_prev = u_curr
        u_curr, f_curr = u_new, f_new
        if converged:
            stop = "converged"
            break
    del x_curr                  # the final loss makes arrays of its size
    return SolveReport(FactorPair(best[0], best[1]), prob.final_loss(*best[:2]), iterations,
                       restarts, trace, time.perf_counter() - start, prob.fallbacks,
                       stop, dict(prob.part_s))


# ---------------------------------------------------------------------------
# strategies


# Each strategy is set up from (design, values, config, subset_ratio),
# already checked by set_up_strategy, and reads what its solves need of
# the design; it returns its run: a callable of no arguments that returns
# (estimate, reports) and holds no reference to the design.


def _full(design: SensingDesign, values, config: SolverConfig, subset_ratio: float):
    d = design.dim_n ** 2
    prob = _make_problem(design, values, d, d)

    def run():
        report = _als(prob, config)
        return report.factors, [report]
    return run


def _row_parallel(design: SensingDesign, values, config: SolverConfig, subset_ratio: float):
    n = design.dim_n
    stats = _BlockStats(design)
    blocks = [_make_problem(design, values[k], n, n, stats) for k in range(n)]

    def run():
        row = np.empty((n, n * n), dtype=np.complex128)
        reports = []
        for k, block in enumerate(blocks):
            tries = []
            for attempt in range(_BLOCK_INITS):
                cfg = replace(config, seed=derive_seed(config.seed, 1, k, attempt),
                              init=config.init if attempt == 0 else "random")
                try:
                    tries.append(_als(block.fresh(), cfg))
                except Exception as exc:
                    raise type(exc)(f"block {k}: {exc}") from exc
            best = _first_least(tries)
            row[:, k * n:(k + 1) * n] = best.factors.product()
            reports.append(replace(best,
                                   iterations=sum(rep.iterations for rep in tries),
                                   restarts=sum(rep.restarts for rep in tries),
                                   fallbacks=sum(rep.fallbacks for rep in tries),
                                   wall_time=sum(rep.wall_time for rep in tries),
                                   part_s=_sum_parts(tries)))
        return row, reports
    return run


def _first_least(reports):
    """The first of the reports whose final loss is within _TIE_RTOL of
    the least."""
    least = min(rep.final_loss for rep in reports)
    return next(rep for rep in reports if rep.final_loss <= least * (1 + _TIE_RTOL))


def _row_subset(design: SensingDesign, values, config: SolverConfig, subset_ratio: float):
    n = design.dim_n
    p = min(n, max(1, math.ceil(subset_ratio * n)))
    rng = np.random.default_rng(derive_seed(config.seed, 2))
    chosen = [0] + sorted(rng.choice(np.arange(1, n), size=p - 1, replace=False).tolist())
    rest = [k for k in range(n) if k not in chosen]
    stats = _BlockStats(design)
    prob = _make_problem(design, values[chosen], n, n * p, stats)
    fill = _make_problem(design, values[rest], n, n * len(rest), stats) if rest else None

    def run():
        report = _als(prob, config)
        u = report.factors.left
        v = np.empty((n, n, config.rank), dtype=np.complex128)   # right factor by block
        v[chosen] = report.factors.right.reshape(p, n, -1)
        if fill is not None:
            v[rest] = fill.solve_right(u).reshape(len(rest), n, -1)
            # the fill's half-sweep joins the report's counts and times
            report.fallbacks += fill.fallbacks
            report.wall_time += sum(fill.part_s.values())
            report.part_s = _sum_parts([report, fill])
        return u @ v.reshape(n * n, -1).conj().T, [report]
    return run


# recovery strategy -> (the design kind it reads, its set-up); als_n is
# als_i at ratio 1
_STRATEGIES = {"als_n2": ("random_pairs", _full), "als_p": ("blockwise", _row_parallel),
               "als_n": ("blockwise", _row_subset), "als_i": ("blockwise", _row_subset)}
STRATEGY_DESIGNS = {name: kind for name, (kind, _) in _STRATEGIES.items()}


def set_up_strategy(strategy: str, design: SensingDesign, values, config: SolverConfig,
                    subset_ratio: float = 1.0):
    """The first of `solve_strategy`'s two steps: check the run and read
    what its solves need of the design and its values (a blockwise
    design's real coordinates and each problem's backprojections).

    A blockwise strategy needs values of shape (N, M_O), and subset_ratio
    must be a real in (0, 1] whatever the strategy; every strategy but
    `als_i` runs at ratio 1. Returns the second step, `run`, a callable of
    no arguments that returns what `solve_strategy` returns; it holds no
    reference to the design. A caller that drops its own references to the
    design before calling `run` frees the observable stack before the
    solves' Gram build (CPython keeps a call's arguments alive until it
    returns).
    """
    if strategy not in _STRATEGIES:
        raise DimensionError(f"unknown strategy {strategy!r}")
    kind, set_up = _STRATEGIES[strategy]
    if design.kind != kind:
        raise DimensionError(f"{strategy} needs a {kind} design")
    ratio = _check_fields({"subset_ratio": subset_ratio},
                          {"subset_ratio": "(0, 1]"})["subset_ratio"]
    values = np.asarray(values)
    if kind == "blockwise" and values.shape != (design.dim_n, design.n_measurements):
        raise DimensionError(f"values of shape {values.shape}, expected "
                             f"({design.dim_n}, {design.n_measurements})")
    return set_up(design, values, config, ratio if strategy == "als_i" else 1.0)


def solve_strategy(strategy: str, design: SensingDesign, values, config: SolverConfig,
                   subset_ratio: float = 1.0):
    """Run one recovery strategy on a design and its measured values:
    `set_up_strategy`, then its run.

    values is laid out as `MeasurementSet.values`. Returns
    (estimate, reports): for `als_n2` the rank-r factors of the full
    N^2 x N^2 matrix (a FactorPair, whose `product()` is that matrix), the
    N x N^2 anchor row otherwise, and the list of solve reports behind it
    (one per block for `als_p`, a single one otherwise). `subset_ratio` is
    read by `als_i` only; `als_n` is `als_i` at ratio 1.
    """
    return set_up_strategy(strategy, design, values, config, subset_ratio)()


def _solve_row(strategy: str, observables, values, n: int, config: SolverConfig,
               subset_ratio: float = 1.0):
    """solve_strategy on the blockwise design of the shared observables,
    whose N must be the row's number of blocks n."""
    if np.ndim(observables) != 3:
        raise DimensionError(f"observables of shape {np.shape(observables)}, "
                             "expected (M_O, N, N)")
    design = SensingDesign("blockwise", np.shape(observables)[-1], observables)
    if n != design.dim_n:
        raise DimensionError(f"the anchor row of an N = {design.dim_n} design has "
                             f"{design.dim_n} blocks, got n = {n}")
    return solve_strategy(strategy, design, values, config, subset_ratio)


def solve_first_row_parallel(observables, values, n: int, config: SolverConfig):
    """Recover each anchor-row block independently (one solve per block):
    the `als_p` strategy.

    observables is the (M_O, N, N) array of the design, n = N the number
    of column blocks and values the (n, M_O) data matrix, one row per
    column block. The per-block problems run near the identifiability
    limit, where a single start can land in a spurious basin, so each
    block races three accelerated solves (the configured init plus random
    restarts) and keeps the first whose final loss is within a few ulps
    (`_TIE_RTOL`) of the least, so roundoff does not pick among attempts
    that reached one basin; per-block seeds are
    derived from (config.seed, block index, attempt). Every solve reads
    one set of G's packed rows. Returns (row, reports) with row the
    N x nN anchor row and one report per block: the winning solve's
    factors, loss, trace and stop, with iterations, restarts, fallbacks
    and wall time summed over all three solves, so the counts cover every
    sweep the block ran.
    """
    return _solve_row("als_p", observables, values, n, config)


def solve_first_row_joint(observables, values, n: int, config: SolverConfig):
    """Recover the whole anchor row at once with a shared left factor: the
    `als_n` strategy, which is `solve_first_row_subset` at ratio 1.

    observables is the (M_O, N, N) array of the design, n = N the number
    of column blocks and values the (n, M_O) data matrix. Returns
    (row, report) with row = U V^H, the N x nN anchor row.
    """
    row, (report,) = _solve_row("als_n", observables, values, n, config)
    return row, report


def solve_first_row_subset(observables, values, n: int, subset_ratio: float,
                           config: SolverConfig):
    """Joint solve on a random subset of the anchor row, then fill the
    rest: the `als_i` strategy.

    observables, values and n are laid out as for solve_first_row_joint,
    and subset_ratio is a real in (0, 1]. The subset always contains block
    0 (the Hermitian diagonal block) plus ceil(ratio * N) - 1 indices
    sampled without replacement; it is kept in ascending order, so ratio 1
    is the joint solve. Blocks outside the subset are recovered by one
    right-factor solve of the stacked problem with the shared left factor
    fixed, on the same packed rows as the subset's solve; its fallback, if
    any, its seconds and its part times join the report's. Returns
    (row, report) with row the N x nN anchor row.
    """
    row, (report,) = _solve_row("als_i", observables, values, n, config, subset_ratio)
    return row, report


def _sum_parts(reports) -> dict:
    return {name: sum(r.part_s[name] for r in reports) for name in _PARTS}


def report_totals(reports) -> dict:
    """The solve reports of one strategy run reduced to one summary.

    iterations, restarts, fallbacks, wall_time_s and part_s, the seconds of
    each part of the solves, are summed over the reports; final_loss is
    their mean, which for `als_p` is the loss of the
    whole row (every block has the same number of data); stop is
    "converged" when every solve converged, else "max_iter".
    """
    return {"iterations": sum(r.iterations for r in reports),
            "restarts": sum(r.restarts for r in reports),
            "fallbacks": sum(r.fallbacks for r in reports),
            "wall_time_s": sum(r.wall_time for r in reports),
            "part_s": _sum_parts(reports),
            "final_loss": float(np.mean([r.final_loss for r in reports])),
            "stop": ("converged" if all(r.stop == "converged" for r in reports)
                     else "max_iter")}
