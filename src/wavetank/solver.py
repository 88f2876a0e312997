"""Explicit finite-difference integration of the coupled-KdV system.

Periodic uniform grid.  Spatial operators are the centred first
difference D0 and the centred third difference D3 (5-point stencil),
both O(h^2).  Two schemes:

two-stage
    A midpoint pair: an explicit half step to t + tau/2, then a full
    step whose spatial differences are evaluated on the intermediate
    layer.  O(tau^2 + h^2).  The dispersion stencil carries the
    modified coefficient e_n = d_n - c_n h^2 / 6, which cancels the
    O(h^2) truncation of the advection difference.

one-stage
    Forward Euler with the unmodified coefficient e_n = d_n.
    O(tau + h^2), used for scheme comparison.

Both are weakly unstable on the dispersive spectrum, so one policy
picks tau for both: `stable_tau` bounds the round-off growth of the
grid-scale mode over the run's horizon by a fixed budget.  `advance`
lands every run on its t_end, in steps no longer than the tau given.

Each stage computes its increment dt * rhs as one matrix product
(dt K) S of a stage matrix K and stage rows S = [D1; D4; R], with D1
and D4 the differences across two and four cells and R the triad
rows.  Each mechanism is told once, in the docstring that owns it: the
stage layout and the cost of its calls in `_increment_kernel`, the
forms of the triad block in `_triad_term`, the in-place stepping and
the replay that names the exact step of an abort in `advance`, and
ETDRK4 in `semi_discrete_limit`, the tau -> 0 limit that is the
yardstick of the temporal order study.

Single-mode periodic runs conserve the discrete mass sum_i theta_i to
round-off: D0, D3 and theta * D0 theta all telescope on a ring.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

__all__ = [
    "Grid",
    "ModeState",
    "SchemeParams",
    "RunReport",
    "NonFiniteError",
    "advance",
    "semi_discrete_limit",
    "stable_tau",
    "step_count",
    "discrete_l2_norm",
    "mass_per_mode",
    "l2_per_mode",
]

TWO_STAGE = "two-stage"
ONE_STAGE = "one-stage"
# the exponent `stable_tau` lets the weak instability of the explicit
# stages reach over a run's horizon
GROWTH_BUDGET = 10.0
# steps between finiteness checks of the state in `advance`
_FINITE_CHECK_EVERY = 100
# semi_discrete_limit accepts a step-doubled result once it agrees with
# the one before to this share of max|theta|, unless its call names
# another share
LIMIT_RTOL = 1e-8
# the step counts semi_discrete_limit tries: 32, 64, ..., 2**13
_LIMIT_MIN_STEPS, _LIMIT_MAX_STEPS = 32, 2**13
# points on each contour circle of the phi-function means
_CONTOUR_POINTS = 64
# the product in z replaces the dense pair rows once its operation count
# per column is below this multiple of theirs (`_triad_in_z`).  Two-stage
# step at n = 256, one BLAS thread (2-core Xeon, OpenBLAS 0.3.31,
# medians of 7-41 interleaved rounds in each of three runs), z against dense,
# by count ratio: 1.17 (modes 2..14, 1..7, 3..21 by 3) 0.82-0.93; 1.40
# (2..12, 1..6) 0.96-1.19, even; 1.57 (2..10, 1..5) 1.13-1.26; 2.0-2.8
# 1.07-1.48.  The crossover lies between 1.17 and 1.40; at even cost the
# dense form keeps the fewer calls
_Z_FORM_COST_RATIO = 1.3


class NonFiniteError(ArithmeticError):
    """A step produced non-finite values (numerical instability)."""

    def __init__(self, message, step=None, last_state=None):
        super().__init__(message)
        self.step = step
        self.last_state = last_state


@dataclass(frozen=True)
class Grid:
    """Uniform periodic x-grid: n_points cells of width h_x from x0."""

    h_x: float
    n_points: int
    x0: float = 0.0

    def __post_init__(self):
        if not self.h_x > 0:
            raise ValueError(f"h_x must be positive, got {self.h_x}")
        if self.n_points < 8:
            raise ValueError(f"need at least 8 grid points, got {self.n_points}")

    @property
    def length(self):
        return self.n_points * self.h_x

    @property
    def x(self):
        return self.x0 + self.h_x * np.arange(self.n_points)


@dataclass
class ModeState:
    """Per-mode amplitude arrays theta^n(x_i) at one time level."""

    time: float
    theta: np.ndarray  # shape (n_modes, n_points)

    def __post_init__(self):
        self.theta = np.atleast_2d(np.asarray(self.theta, dtype=float))

    @property
    def n_modes(self):
        return self.theta.shape[0]

    @property
    def n_points(self):
        return self.theta.shape[1]

    def copy(self):
        return ModeState(time=self.time, theta=self.theta.copy())


@dataclass(frozen=True)
class SchemeParams:
    """Time step and scheme selector ("two-stage" or "one-stage")."""

    tau: float
    scheme: str = TWO_STAGE

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if self.scheme not in (TWO_STAGE, ONE_STAGE):
            raise ValueError(f"unknown scheme {self.scheme!r}")


def _dispersion_coefficient(coeffs, grid, scheme):
    """Stencil coefficient e_n: d_n, corrected by -c_n h^2/6 for
    two-stage."""
    if scheme == TWO_STAGE:
        return coeffs.d - coeffs.c * grid.h_x**2 / 6.0
    return coeffs.d


def stable_tau(coeffs, grid, scheme, horizon):
    """Largest tau that keeps the round-off amplification of a run over
    `horizon` within GROWTH_BUDGET (an exponent).

    The grid-scale symbol magnitude is bounded by
    lambda = 2.598 max|e_n| / h^3 + max|c_n| / h; the weak instability
    of the explicit stages accumulates ~ T tau lambda^2 / 2 (one-stage)
    or T tau^3 lambda^4 / 8 (two-stage) in the exponent.  Round-off is
    re-injected every step, so the budget must stay small enough that
    n_steps * exp(budget) * eps remains far below truncation error.  In
    the dispersion-dominated limit this is tau ~ h^4 (two-stage) and
    tau ~ h^6 (one-stage).  A horizon <= 0 takes no steps: inf.  The
    powers of lambda are taken in numpy, so that one beyond the float
    range gives 0 (and lambda = 0 gives inf) rather than raising.
    """
    if horizon <= 0:
        return math.inf
    h = grid.h_x
    e = _dispersion_coefficient(coeffs, grid, scheme)
    lam = np.float64(2.598 * float(np.max(np.abs(e))) / h**3
                     + float(np.max(np.abs(coeffs.c))) / h)
    with np.errstate(over="ignore", divide="ignore"):
        if scheme == TWO_STAGE:
            tau = (8.0 * GROWTH_BUDGET / (horizon * lam**4)) ** (1.0 / 3.0)
        else:
            tau = 2.0 * GROWTH_BUDGET / (horizon * lam**2)
    return float(tau)


def step_count(t0, t_end, tau):
    """Number of steps of size tau that `advance` takes from t0 to t_end:
    none when t_end <= t0, else at least one, however short the span.
    The 1e-9 absorbs the rounding of a span that is a whole number of
    steps."""
    if t_end <= t0:
        return 0
    return max(1, int(np.ceil((t_end - t0) / tau - 1e-9)))


def _transform_grid(modes):
    """(q, P) of the product in z for the mode numbers `modes`: their gcd
    q and P = floor(3 M'/2) + 1 with M' = max(modes) / q, so that the
    P + 1 points zeta_j = j pi / P (in units of q pi z / h) integrate
    every product of three of the modes' cosines exactly."""
    q = math.gcd(*modes)
    return q, 3 * (max(modes) // q) // 2 + 1


def _triad_in_z(coeffs):
    """The one rule that picks the triad term's stage form: True for the
    product in z, False for the dense pair rows.  Only a closed-form g
    (`coeffs.triad_scale` set) has a product in z, and it is taken when
    its operation count per column, 4L(P + 1) + L(2L + P + 1), is below
    _Z_FORM_COST_RATIO times the dense one, L(2L + L^2)."""
    if coeffs.triad_scale is None:
        return False
    L = coeffs.n_modes
    _, P = _transform_grid(coeffs.mode_indices)
    return (4 * L * (P + 1) + L * (2 * L + P + 1)
            < _Z_FORM_COST_RATIO * L * (2 * L + L * L))


def _transform_matrices(modes, triad_scale):
    """(synthesis of theta, synthesis of D1, analysis) of the product in
    z, for the mode numbers m, m' = m / q and zeta_j = j pi / P
    (`_transform_grid`).  The synthesis rows sample
    [A'; C] = [3 m cos m' zeta_j; m^2 sin m' zeta_j] of theta and
    [B; D] = [m cos m' zeta_j; sin m' zeta_j] of D1, so that
    F = A'B - CD is, at each zeta_j,

        sum_{m,k} (3 m k cos m' zeta cos k' zeta
                   - m^2 sin m' zeta sin k' zeta) theta^m D1 theta^k
        = sum_{m,k} (m (3k + m) cos (m' + k') zeta
                     + m (3k - m) cos (m' - k') zeta) theta^m D1 theta^k / 2.

    The analysis row of mode n, (2 sigma K / n) w_j cos n' zeta_j with
    the trapezoid weights w = 2/P inside and 1/P at the ends, takes
    cosine coefficient n' of F.  Every product it sums has a degree of
    at most 3M' < 2P, so none aliases and the coefficient is exact: it
    keeps the two resonance branches n = m + k and n = |m - k|, and
    analysis F = sum g^n_{m,k} theta^m D1 theta^k for the closed-form g
    of scale sigma K = triad_scale.  The angles m' j pi / P are reduced
    to [0, 2 pi) in integers."""
    m = np.asarray(modes)
    q, P = _transform_grid(modes)
    turn = (np.arange(P + 1)[:, None] * (m // q)) % (2 * P)
    cos, sin = np.cos(np.pi * turn / P), np.sin(np.pi * turn / P)
    weights = np.full(P + 1, 2.0 / P)
    weights[[0, P]] = 1.0 / P
    synth_theta = np.vstack((3 * m * cos, m * m * sin))
    synth_d1 = np.vstack((m * cos, sin))
    analysis = (2.0 * triad_scale / m)[:, None] * (weights * cos.T)
    return synth_theta, synth_d1, analysis


def _triad_term(coeffs, n):
    """The triad term sum g^n_{m,k} theta^m d^k on rows of n columns, in
    the one form that this function picks for `coeffs`, as (T, bind).
    bind(theta, d, r) gives a zero-argument call that writes the triad
    rows R of the (L, n) theta and its difference d into r, so that
    T @ R is the triad term in the units of d.  The forms:

    none
        For a linear system (g = 0, as in every single-mode tank), T is
        (L, 0) and the call writes nothing: the term is an empty block.
    dense
        T = g as a matrix of row n and column m L + k, R the L^2 pair
        rows theta^m d^k: the call is a partial of the bare multiply of
        broadcast views.
    product in z
        Orszag's transform method (J. Atmos. Sci. 27, 890, 1970) in the
        vertical coordinate.  The closed-form g is the cosine
        coefficient, in z, of a product of two sums over the modes'
        eigenfunctions, so R = F = A'B - CD samples that product at the
        P + 1 points zeta_j and T is the analysis matrix
        (`_transform_matrices`).  The call synthesises [A'; C] from
        theta and [B; D] from d by two BLAS products into work buffers
        of its own, built here once and zero-initialised, and takes one
        multiply and one subtract.  With the mode numbers divided by
        their gcd and M' the largest, P = floor(3M'/2) + 1, so nothing
        aliases and the form is exact.  Only a closed-form g has it
        (`coeffs.triad_scale`).

    `_triad_in_z` picks the form from the mode list alone: the product in
    z from modes 2..14 (L = 7) on, never for the five McEwan modes or a
    single mode."""
    L = coeffs.n_modes
    if not coeffs.g.any():
        def bind(theta, d, r):
            return lambda: None

        return np.zeros((L, 0)), bind
    if not _triad_in_z(coeffs):
        def bind(theta, d, r):
            return partial(np.multiply, theta[:, None, :], d[None, :, :],
                           r.reshape(L, L, -1))

        return coeffs.g.reshape(L, L * L), bind
    synth_theta, synth_d1, analysis = _transform_matrices(
        coeffs.mode_indices, coeffs.triad_scale)
    points = analysis.shape[1]
    sampled = np.zeros((2 * points, n))     # [A'; C], then [A'B; CD]
    sampled_d = np.zeros((2 * points, n))   # [B; D]
    multiply, subtract, matmul = np.multiply, np.subtract, np.matmul

    def product(theta, d, f):
        matmul(synth_theta, theta, sampled)
        matmul(synth_d1, d, sampled_d)
        multiply(sampled, sampled_d, sampled)
        subtract(sampled[:points], sampled[points:], f)

    def bind(theta, d, r):
        return partial(product, theta, d, r)

    return analysis, bind


def _increment_kernel(coeffs, grid, scheme):
    """bind(src, base, dt, dest) -> stage: a zero-argument call that
    writes dest = base - dt (c D0 theta + e D3 theta
    + sum g theta^m D0 theta^k), per mode, with `scheme`'s e_n and theta
    the state in columns 2..n+1 of src.  src, base and dest are padded
    (L, n + 4) C-ordered arrays; `bind` makes every view of src once.
    With D1 = theta_{i+1} - theta_{i-1}, D4 = theta_{i+2} - theta_{i-2},
    s0 = 1/2h and s3 = 1/2h^3 the increment is the one product (dt K) S
    of the stage matrix K = [diag(c s0 - 2 e s3) | diag(e s3) | s0 T],
    built once and scaled by dt for each binding, and the stage rows
    S = [D1; D4; R], with T and R the triad term of theta and D1 in the
    form `_triad_term` picks.

    A stage refreshes src's four ghost columns from their periodic
    sources, writes D1 and D4 each as one difference of the flat src
    over its entries 2..L(n+4)-3, writes R by the triad term's bound
    call, takes the product and subtracts the padded increment from the
    padded base into the padded dest: 7 calls in the dense form, 9 in z.
    All are numpy calls at L >= 2; at L = 1 the two ghost copies are
    memoryview copies, so a dense stage is 5 numpy calls plus 2.  At
    n = 300 a call's fixed cost outweighs its arithmetic, so each is
    issued the cheap way, on (1, 300) arrays: the output by position
    (0.4 us a call, 0.8 us as `out=`), the ghost columns at L >= 2 by
    ndarray `[...]` assignment (0.3 us, 0.6 us by `np.copyto`).  Every
    stage shares S, the triad term's work buffers and the increment,
    allocated once and zero-initialised, so the entries no pass writes
    read 0, and the increment's ghost columns stay 0, so dest's are
    base's.  A linear system's empty triad block leaves K and S exactly
    their first 2L columns and rows, as it must: theta^m D1^k overflows
    while theta is still finite, and 0 * inf is nan.

    The layout of S and the product are picked here, from L (2-core
    Xeon, OpenBLAS 0.3.31 on one thread, medians of 9 rounds):

    L >= 2
        S holds whole padded rows, (P, n + 4) with P = 2L + T's columns,
        and the product is `np.matmul` of dt K on S's columns 2..n+1
        (at a leading dimension of n + 4, with the bits of the (., n)
        product) into the increment's.  The ghost columns of S hold junk
        (differences across the ends of two rows, products of ghost
        values), which is harmless: an interior column reads only its
        own row's columns 0..n+3, refreshed first, and every product
        works column by column.  Padded rows keep the gemm fast: packed
        (P, n) rows take 2.57 against 2.07 us at L = 5, n = 256.
    L = 1 (the vector stage)
        S is a C-contiguous (P, n) array, P = 2 for a linear system and
        3 otherwise: at L = 1 the flat differences are exactly n long,
        and R is bound on the interior columns 2..n+1 of src.  The
        product is one BLAS gemv of dt K[0] and S into the contiguous
        interior of the increment's row, without `np.matmul`'s gufunc
        dispatch: a two-stage step at n = 300 took 3.79 against 4.31 us
        (medians of 9 rounds).  Both operands must be contiguous and
        exactly n wide.  `np.dot` copies a strided operand, which costs
        more than the gufunc (1.01 against 0.98 us at n = 300).  Over
        the full padded width the gemv rounds a column by where it sits
        in the call: that product's interior differed from `np.matmul`'s
        in 208 of 578 (P = 2) and 226 of 622 (P = 3) random draws at
        n = 8..400, where the (P, n) product matched in every draw and
        at n = 1024, 4096 and 65536.  From n ~ 8192 the gufunc is the
        faster again (4.9 against 5.3 us there, 9.6 against 11.9 us at
        16384); no single-mode study runs past n = 4096.

        Two calls of the vector stage skip numpy overhead that their
        operation does not need (min of 30 interleaved rounds, a Python
        call included):
        - the ghost columns are refreshed as `lo[:] = lo_from` and
          `hi[:] = hi_from` on slices of a memoryview of the flat src,
          a pair of 16-byte copies in 123 against 282 ns as ndarray
          `[...]` assignments;
        - the product is the bound method `(dt K[0]).dot(S, out)`, the
          C routine `np.dot` reaches, without the Python-level
          `__array_function__` dispatcher in front of it: 493 against
          630 ns at n = 300, P = 3, with the same bytes in 2000 of 2000
          random draws (P = 2..3, n = 8..5000).
        A two-stage step at n = 300 takes 4.44 against 5.21 us with
        `np.dot` and ndarray ghost copies (medians of 31 interleaved
        rounds of 2000 steps in one process, on a host then about 1.4
        times slower than for the 3.79 us above).  Four traps, each
        measured:
        1. A memoryview takes no Ellipsis: `m[...] = x` raises
           TypeError and `m[()] = x` NotImplementedError.  For ndarrays
           `[:]` costs more than `[...]` (263 against 151 ns at (1, 2),
           514 against 409 ns at (5, 2)), so one body shared with
           L >= 2 would slow it.
        2. A memoryview has no multi-dimensional sub-views, so L >= 2
           would need 2L row copies.  They beat the two ndarray copies
           only at small L (0.63 against 0.90 us at L = 5, even at
           L = 8, 3.38 against 1.43 us at L = 32), which would take a
           threshold; L >= 2 keeps ndarray views.
        3. Each binding makes its own memoryview, of the very flat view
           its differences read, so that both see the same memory: the
           full stage refreshes the ghosts of `half`, not of `pad`.
           The flat slices never overlap, since `Grid` keeps n >= 8.
        4. The product is bound once per binding as `scaled.dot`:
           `np.dot`, or a `functools.partial` of it, puts the dispatch
           or an indirection back.
    """
    L, n = coeffs.n_modes, grid.n_points
    s0, s3 = 0.5 / grid.h_x, 0.5 / grid.h_x**3
    e = _dispersion_coefficient(coeffs, grid, scheme)
    width = n if L == 1 else n + 4
    block, bind_triad = _triad_term(coeffs, width)
    stage = np.hstack((np.diag(coeffs.c * s0 - 2.0 * e * s3),
                       np.diag(e * s3), s0 * block))
    rows = np.zeros((stage.shape[1], width))
    increment = np.zeros((L, n + 4))
    subtract, matmul = np.subtract, np.matmul
    if L == 1:
        stage, used, product_out = stage[0], rows, increment[0, 2:n + 2]
        diff1, diff4, columns = rows[0], rows[1], slice(2, n + 2)
    else:
        used, product_out = rows[:, 2:n + 2], increment[:, 2:n + 2]
        diff1 = rows[:L].reshape(-1)[2:-2]
        diff4 = rows[L:2 * L].reshape(-1)[2:-2]
        columns = slice(None)

    def bind(src, base, dt, dest):
        flat = src.reshape(-1)
        # the entries 3.., 1.., 4.. and 0.. that line up with 2..L(n+4)-3
        p3, p1, p4, p0 = flat[3:-1], flat[1:-3], flat[4:], flat[:-4]
        triad = bind_triad(src[:, columns], rows[:L], rows[2 * L:])
        scaled = dt * stage
        if L == 1:
            cells = memoryview(flat)
            lo, lo_from = cells[:2], cells[n:n + 2]
            hi, hi_from = cells[n + 2:], cells[2:4]
            product = scaled.dot

            def call():
                lo[:] = lo_from
                hi[:] = hi_from
                subtract(p3, p1, diff1)
                subtract(p4, p0, diff4)
                triad()
                product(used, product_out)
                subtract(base, increment, dest)

            return call

        ghost_lo, wrap_lo = src[:, :2], src[:, n:n + 2]
        ghost_hi, wrap_hi = src[:, n + 2:], src[:, 2:4]

        def call():
            ghost_lo[...] = wrap_lo
            ghost_hi[...] = wrap_hi
            subtract(p3, p1, diff1)
            subtract(p4, p0, diff4)
            triad()
            matmul(scaled, used, product_out)
            subtract(base, increment, dest)

        return call

    return bind


def _row_sums(theta, form):
    """form(rows), a sum along the last axis, per row of theta.  A finite
    row whose sum is not finite (it overflows, or reads inf - inf) is
    summed scaled by its max|theta| instead: peak * form(row / peak)."""
    with np.errstate(over="ignore", invalid="ignore"):
        sums = form(theta)
        for n in np.flatnonzero(~np.isfinite(sums)):
            peak = np.max(np.abs(theta[n]))
            if np.isfinite(peak):
                sums[n] = peak * form(theta[n] / peak)
    return sums


def mass_per_mode(state, grid):
    """Discrete mass h sum_i theta_i per mode (`_row_sums`)."""
    return _row_sums(state.theta, lambda rows: grid.h_x * rows.sum(axis=-1))


def l2_per_mode(state, grid):
    """Discrete L2 norm (h sum_i theta_i^2)^(1/2) per mode (`_row_sums`)."""
    return _row_sums(state.theta,
                     lambda rows: np.sqrt(grid.h_x * (rows**2).sum(axis=-1)))


def discrete_l2_norm(a, b, grid):
    """Grid-weighted L2 distance (sum_n sum_i (a-b)^2 h)^(1/2)."""
    if a.theta.shape != b.theta.shape:
        raise ValueError(
            f"state shapes differ: {a.theta.shape} vs {b.theta.shape}"
        )
    diff = a.theta - b.theta
    return float(np.sqrt(grid.h_x * np.sum(diff * diff)))


@dataclass
class RunReport:
    """Diagnostics collected while advancing a state."""

    scheme: str
    tau: float
    steps: int = 0
    wall_time: float = 0.0
    times: list = field(default_factory=list)
    mass: list = field(default_factory=list)      # per observation, per mode
    l2: list = field(default_factory=list)


def _check_span(state, coeffs, grid, t_end):
    """ValueError unless `state` fits `coeffs` and `grid` and t_end does
    not lie before it."""
    if state.n_modes != coeffs.n_modes:
        raise ValueError(
            f"state has {state.n_modes} modes, coefficients {coeffs.n_modes}"
        )
    if state.n_points != grid.n_points:
        raise ValueError(
            f"state has {state.n_points} points, grid {grid.n_points}"
        )
    if t_end < state.time:
        raise ValueError(f"t_end {t_end} lies before state.time {state.time}")


def advance(state, coeffs, grid, params, t_end, observers=(), observe_every=0):
    """March `state` to t_end with the selected scheme, in the
    n = step_count(t0, t_end, params.tau) equal steps that span it
    (`RunReport.tau`), and stamp the final state t_end.

    observers are callables (step_index, state) invoked at step 0,
    every `observe_every` steps (0 = only first/last) and after the
    final step, each with a state of its own (never a view of the
    buffers stepped in place).  Conserved-quantity series are recorded
    at the same instants.  On instability raises NonFiniteError
    carrying the step index and the last finite state, with the stage
    that failed named in its cause.  The time after step j < n is
    t0 + j * tau, never a running sum.  Callers pick params.tau with
    `stable_tau`.

    The state steps in place in columns 2..n+1 of a padded (L, n + 4)
    buffer, through the stages `_increment_kernel` binds once per call:
    the half and the full step into and out of a padded half-stage
    buffer (two-stage), or the one-stage step.  Finiteness is checked
    every `_FINITE_CHECK_EVERY` steps, before every observation and
    after the last step, and each passing check copies the state into a
    checkpoint.  A non-finite value stays non-finite through every later
    stage, so a failed check means the first bad stage lies after the
    checkpoint: the same stages replay from it, each followed by a check
    of its destination, which names the exact step and stage.
    """
    _check_span(state, coeffs, grid, t_end)
    if observe_every < 0:
        raise ValueError(f"observe_every must be >= 0, got {observe_every}")

    tau, t0 = params.tau, state.time
    n_steps = step_count(t0, t_end, tau)
    # a tau that lands on t_end stays bit for bit: runs share their steps
    if t0 + n_steps * tau != t_end:
        tau = (t_end - t0) / n_steps
    L, n = state.theta.shape
    bind = _increment_kernel(coeffs, grid, params.scheme)
    pad = np.empty((L, n + 4))
    theta = pad[:, 2:n + 2]        # the state, advanced in place
    theta[...] = state.theta
    # (stage, its padded destination, name): every stage is based on the
    # padded theta
    if params.scheme == TWO_STAGE:
        half = np.empty((L, n + 4))
        stages = ((bind(pad, pad, tau / 2.0, half), half, "half step"),
                  (bind(half, pad, tau, pad), pad, "full step"))
    else:
        stages = ((bind(pad, pad, tau, pad), pad, "one-stage step"),)
    calls = tuple(stage for stage, _, _ in stages)

    def checked_step():
        """One step in place: the name of the first stage that produced
        non-finite values, else None.  A stage's destination keeps the
        ghost columns of its base, copied from the finite state the step
        started from, so all of it is finite where its state is."""
        for stage, dest, what in stages:
            stage()
            if not np.isfinite(dest).all():
                return what
        return None

    def at_step(j, values):
        return ModeState(time=t_end if j == n_steps else t0 + j * tau,
                         theta=values.copy())

    report = RunReport(scheme=params.scheme, tau=tau)

    def observe(j):
        snap = at_step(j, theta)
        report.times.append(snap.time)
        report.mass.append(mass_per_mode(snap, grid))
        report.l2.append(l2_per_mode(snap, grid))
        for obs in observers:
            obs(j, snap)

    started = time.perf_counter()
    observe(0)
    checkpoint, checked = theta.copy(), 0
    while checked < n_steps:
        stop = min(checked + _FINITE_CHECK_EVERY, n_steps)
        if observe_every:
            stop = min(stop, (checked // observe_every + 1) * observe_every)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(checked, stop):
                for stage in calls:
                    stage()
        if not np.isfinite(theta).all():
            theta[...] = checkpoint
            with np.errstate(over="ignore", invalid="ignore"):
                for failed in range(checked + 1, stop + 1):
                    checkpoint[...] = theta
                    what = checked_step()
                    if what:
                        break
            last = at_step(failed - 1, checkpoint)
            raise NonFiniteError(
                f"scheme went non-finite at step {failed} (t = {last.time:.6g})",
                step=failed,
                last_state=last,
            ) from NonFiniteError(f"{what} produced non-finite values")
        checkpoint[...] = theta
        checked = stop
        if stop == n_steps or (observe_every and stop % observe_every == 0):
            observe(stop)
    report.steps = n_steps
    report.wall_time = time.perf_counter() - started
    return at_step(n_steps, theta), report


def _phi_weights(z):
    """ETDRK4 weights of Cox & Matthews for the step symbols z = tau L,
    as means over a unit circle around each z (Kassam & Trefethen):
    the direct formulas cancel catastrophically for small |z|.  The
    symbols are imaginary, so the whole circle is needed; a half circle
    plus real part holds only for real z.  Returns (E, E2, Q, f1, f2,
    f3), each shaped like z and missing the factor tau of Q and f."""
    r = np.exp(2j * np.pi * (np.arange(_CONTOUR_POINTS) + 0.5)
               / _CONTOUR_POINTS)
    zr = z[..., None] + r
    ez = np.exp(zr)
    zr3 = zr**3
    q = np.mean((np.exp(zr / 2.0) - 1.0) / zr, axis=-1)
    f1 = np.mean((-4.0 - zr + ez * (4.0 - 3.0 * zr + zr**2)) / zr3, axis=-1)
    f2 = np.mean((2.0 + zr + ez * (zr - 2.0)) / zr3, axis=-1)
    f3 = np.mean((-4.0 - 3.0 * zr - zr**2 + ez * (4.0 - zr)) / zr3, axis=-1)
    return np.exp(z), np.exp(z / 2.0), q, f1, f2, f3


def _real_transforms(n):
    """(rfft, irfft, 1/n): the pocketfft gufuncs that numpy.fft.rfft and
    irfft call for n points, and irfft's factor.  rfft(x, 1.0, out) and
    irfft(s, 1/n, out) write numpy.fft.rfft(x) and irfft(s, n) into out,
    bit for bit: the same C routine runs with the same factor."""
    # imported here: `import wavetank` stays free of numpy.fft
    from numpy.fft import _pocketfft_umath as pocketfft

    rfft = pocketfft.rfft_n_even if n % 2 == 0 else pocketfft.rfft_n_odd
    return rfft, pocketfft.irfft, 1.0 / n


def semi_discrete_limit(state, coeffs, grid, scheme, t_end, rtol=None):
    """The tau -> 0 solution at exactly t_end of the finite-difference
    system that `scheme` integrates: theta_t = -(c D0 theta + e D3 theta
    + sum g theta^m D0 theta^k) with that scheme's e_n.

    D0 and D3 are circulant, so in rfft space they are the diagonal
    symbols i sin(kh)/h and i (sin 2kh - 2 sin kh)/h^3 and the linear
    part is integrated exactly.  The triad term is explicit, applied to
    theta and the spectral D0 theta in the form `_triad_term` picks, as
    in the stepper, but with no factor s0 = 1/2h, since D0 theta carries
    it; for a linear system (g = 0) it reads 0.  The integrator is
    ETDRK4 (Cox & Matthews, J. Comput. Phys. 176, 2002).  A step
    allocates no array: the spectra, the real pair (theta, D0 theta),
    the triad rows and the four nonlinear terms live in arrays built
    once per call, and each combination applies the ufuncs of its plain
    expression to the same operands in the same order, so the dense
    form keeps the bits of a step with fresh temporaries.  The
    transforms are the pocketfft gufuncs behind numpy.fft.rfft and
    irfft (`_real_transforms`), called with their output by position:
    at n = 120 the numpy.fft wrapper doubles a transform's cost (2-core
    Xeon, numpy 2.4.6: 2.65 against 1.29 us for rfft, 3.7 against
    1.7 us for irfft of a (2, 1, 61) stack), and a step makes eight.
    The result verifies itself by step doubling: from
    `_LIMIT_MIN_STEPS` steps the count doubles until two successive
    results agree within `rtol` of max|theta| (LIMIT_RTOL, read at call
    time, when None), and the finer one is returned.  A non-finite
    result disagrees with its neighbours, so a coarse level that
    overflows is refined like one that is inaccurate.  A non-finite
    initial state raises NonFiniteError before the first level, as does
    a non-finite result at `_LIMIT_MAX_STEPS` steps; a finite one that
    has not settled by then raises RuntimeError: an unverified limit is
    never returned as a yardstick.
    """
    _check_span(state, coeffs, grid, t_end)
    if rtol is None:
        rtol = LIMIT_RTOL
    if not np.isfinite(state.theta).all():
        raise NonFiniteError(
            f"semi-discrete limit refuses a non-finite state at "
            f"t = {state.time:.6g}")
    L, n = state.theta.shape
    h = grid.h_x
    kh = 2.0 * np.pi * np.arange(n // 2 + 1) / n
    sym0 = 1j * np.sin(kh) / h
    sym3 = 1j * (np.sin(2.0 * kh) - 2.0 * np.sin(kh)) / h**3
    e = _dispersion_coefficient(coeffs, grid, scheme)
    lin = -(coeffs.c[:, None] * sym0 + e[:, None] * sym3)
    rfft, irfft, inverse = _real_transforms(n)
    multiply, add, subtract, matmul = (np.multiply, np.add, np.subtract,
                                       np.matmul)
    shape = (L, n // 2 + 1)
    # the spectra v, a, b and c of Cox & Matthews, each in row 0 of its
    # own stack, whose row 1 takes its D0 for the inverse transform
    sv, sa, sb, sc = (np.empty((2,) + shape, dtype=complex) for _ in range(4))
    v, a, b, c = sv[0], sa[0], sb[0], sc[0]
    e2v, tmp = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    # the nonlinear terms N(v), N(a), N(b), N(c)
    nv, na, nb, nc = (np.empty(shape, dtype=complex) for _ in range(4))
    real = np.empty((2, L, n))              # theta, D0 theta
    rows = np.empty((L, n))                 # the triad term in x
    block, bind_triad = _triad_term(coeffs, n)
    pairs = np.empty((block.shape[1], n))
    product = bind_triad(real[0], real[1], pairs)

    def triad_term(stack, out):
        """sum g theta^m D0 theta^k of the spectrum in stack[0], as a
        spectrum in `out`."""
        multiply(sym0, stack[0], stack[1])
        irfft(stack, inverse, real)
        product()
        matmul(block, pairs, rows)
        rfft(rows, 1.0, out)

    def solve(n_steps):
        tau = (t_end - state.time) / n_steps
        E, E2, q, f1, f2, f3 = _phi_weights(tau * lin)
        w = -tau
        q, f1, f2, f3 = w * q, w * f1, 2.0 * w * f2, w * f3
        rfft(state.theta, 1.0, v)
        for _ in range(n_steps):
            triad_term(sv, nv)
            multiply(E2, v, e2v)
            multiply(q, nv, tmp)
            add(e2v, tmp, a)                # a = E2 v + q N(v)
            triad_term(sa, na)
            multiply(q, na, tmp)
            add(e2v, tmp, b)                # b = E2 v + q N(a)
            triad_term(sb, nb)
            multiply(E2, a, c)
            multiply(2.0, nb, tmp)
            subtract(tmp, nv, tmp)
            multiply(q, tmp, tmp)
            add(c, tmp, c)                  # c = E2 a + q (2 N(b) - N(v))
            triad_term(sc, nc)
            # v = E v + f1 N(v) + f2 (N(a) + N(b)) + f3 N(c)
            multiply(E, v, v)
            multiply(f1, nv, tmp)
            add(v, tmp, v)
            add(na, nb, tmp)
            multiply(f2, tmp, tmp)
            add(v, tmp, v)
            multiply(f3, nc, tmp)
            add(v, tmp, v)
        fine = np.empty((L, n))
        irfft(v, inverse, fine)
        return fine

    n_steps, coarse = _LIMIT_MIN_STEPS, None
    with np.errstate(over="ignore", invalid="ignore"):
        while n_steps <= _LIMIT_MAX_STEPS:
            fine = solve(n_steps)
            if not np.isfinite(fine).all():
                fine = None
            elif (coarse is not None and np.max(np.abs(fine - coarse))
                    <= rtol * np.max(np.abs(fine))):
                return ModeState(time=t_end, theta=fine)
            coarse, n_steps = fine, 2 * n_steps
    if coarse is None:
        raise NonFiniteError(
            f"semi-discrete limit at t = {t_end:.6g} went non-finite "
            f"at {_LIMIT_MAX_STEPS} steps", step=_LIMIT_MAX_STEPS)
    raise RuntimeError(
        f"semi-discrete limit at t = {t_end:.6g} did not settle to "
        f"{rtol:.0e} by {_LIMIT_MAX_STEPS} steps; refusing to use it "
        f"as a yardstick")
