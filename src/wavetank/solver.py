"""Explicit finite-difference integration of the coupled-KdV system.

Periodic uniform grid.  Spatial operators are the centred first
difference D0 and the centred third difference D3 (5-point stencil),
both O(h^2).  Two schemes:

two-stage
    A midpoint pair: an explicit half step to t + tau/2, then a full
    step whose spatial differences are evaluated on the intermediate
    layer.  O(tau^2 + h^2).  The dispersion stencil carries the
    modified coefficient e_n = beta2 d_n - c_n h^2 / 6, which cancels
    the O(h^2) truncation of the advection difference.

one-stage
    Forward Euler with the unmodified coefficient e_n = beta2 d_n.
    O(tau + h^2), used for scheme comparison.

Both are weakly unstable on the dispersive spectrum, so one policy
picks tau for both: `stable_tau` bounds the round-off growth of the
grid-scale mode over the run's horizon by a fixed budget.  `advance`
lands every run on its t_end, in steps no longer than the tau given.

Each stage computes its increment dt * rhs as one matrix product.
With D1 = theta_{i+1} - theta_{i-1}, D4 = theta_{i+2} - theta_{i-2},
s0 = 1/(2h) and s3 = 1/(2h^3),

    dt (c D0 theta + e D3 theta + sum_{m,k} g^n_{m,k} theta^m D0 theta^k)
        = (dt K) S,
    K = [diag(c s0 - 2 e s3) | diag(e s3) | s0 T],
    S = [D1; D4; R],

with the triad block in one of two forms, which `_triad_in_z` picks
from the mode list alone:

dense
    T is g as a matrix of row n and column m L + k, R the L^2 pair rows
    theta^m D1 theta^k: K is (L, 2L + L^2), about L(2L + L^2)
    operations per column.
product in z
    Orszag's transform method (J. Atmos. Sci. 27, 890, 1970) in the
    vertical coordinate.  The closed-form g is the cosine coefficient,
    in z, of a product of two sums over the modes' eigenfunctions, so R
    samples that product at P + 1 points in z and T is the analysis
    matrix (`_transform_matrices`): K is (L, 2L + P + 1), about
    4L(P + 1) + L(2L + P + 1) operations per column.  With the mode
    numbers divided by their gcd and M' the largest, P = floor(3M'/2)
    + 1, so nothing aliases and the form is exact.  Only a closed-form
    g has it (`CoefficientSet.triad_scale`).

The rule takes the product in z once its count is below
_Z_FORM_COST_RATIO times the dense one: from modes 2..14 (L = 7) on,
never for the five McEwan modes or a single mode.  `advance` builds K
once per call and scales it by dt for each stage.  A dense stage is 7
numpy calls: two ghost-column slice assignments; the two differences
and the pair product, written into the rows of S; the product; and one
subtract(base, increment, dest).  In z the pair product gives way to
two synthesis products, one multiply and one subtract: 9 calls.  D1, D4,
the pair product and the update run over whole padded rows in one
contiguous pass: D1 and D4 are each one difference of the flattened
(L, n + 4) buffer, over its entries 2..L(n+4)-3, the pair product spans
n + 4 columns, and the update subtracts the padded increment from the
padded base into the padded destination.  The ghost columns so collect
junk: differences across the ends of two rows, products of ghost
values.  It never reaches the interior: an interior column reads only
its own row's columns 0..n+3, which the stage refreshes first, and
every product works column by column.  Each BLAS product reads and
writes only columns 2..n+1 (at a leading dimension of n + 4, so with
the bits of the (., n) product).  At n = 300 a call's fixed cost
outweighs its arithmetic, so each is issued the cheap way: the output
array by position rather than as `out=`, slice assignment rather than
`np.copyto`.  The two-stage step takes about 10 us at (L, n) =
(1, 120), 11 us at (1, 300), 39 us at (5, 256) and 0.3 ms at (32, 256),
where the CSR form before the product in z took 1.0 ms (README,
Numerical notes, has the harness and the numbers of the earlier forms).

`advance` steps in place.  Per call it allocates the padded state
(L, n + 4), with the state in columns 2..n+1, a padded half-stage
buffer (two-stage), and, zero-initialised, the padded increment, S and
the work buffers of the product in z, shared by every stage, so that
the entries no pass writes read 0; each
stage refreshes the four ghost columns of its input and writes S, the
increment and its padded destination through calls that write into
those arrays.  Finiteness of the state is checked every
`_FINITE_CHECK_EVERY` steps, before every observation and after the
last step, and each passing check copies the state into a checkpoint.
A non-finite value stays non-finite through every later stage, so a
failed check means the first bad stage lies after the checkpoint: the
same kernel replays from it with a check after every stage and raises
NonFiniteError at the exact step, with the last finite state and the
stage named in its cause.

`semi_discrete_limit` gives the tau -> 0 limit of either scheme: the
same D0, D3 and e_n, integrated by ETDRK4 with the linear part exact in
rfft space and g applied as the dense (L, L^2) matrix at every L, and
returned only once step doubling has settled to LIMIT_RTOL.  It is the
yardstick of the temporal order study.

Single-mode periodic runs conserve the discrete mass sum_i theta_i to
round-off: D0, D3 and theta * D0 theta all telescope on a ring.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

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
# the one before to this share of max|theta|
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
    """Stencil coefficient e_n: corrected by -c_n h^2/6 for two-stage."""
    e = coeffs.beta2 * coeffs.d
    if scheme == TWO_STAGE:
        e = e - coeffs.c * grid.h_x**2 / 6.0
    return e


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


def _stencil_views(pad):
    """Views into a padded (L, n + 4) buffer that holds the state in
    columns 2..n+1: the two ghost-column pairs with their periodic
    sources; the flat buffer's entries 3.., 1.., 4.. and 0.. that line
    up with its entries 2..L(n+4)-3, so that D1 and D4 of every row are
    each one contiguous difference; the buffer as (L, 1, n + 4) for the
    pair product; and the state, columns 2..n+1."""
    n = pad.shape[1] - 4
    flat = pad.reshape(-1)
    return (pad[:, :2], pad[:, n:n + 2], pad[:, n + 2:], pad[:, 2:4],
            flat[3:-1], flat[1:-3], flat[4:], flat[:-4],
            pad[:, None, :], pad[:, 2:n + 2])


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


def _increment_kernel(coeffs, grid, scheme):
    """increment(dt) -> inc(views): dt (c D0 theta + e D3 theta
    + sum g theta^m D0 theta^k), per mode, with `scheme`'s e_n, for the
    padded state behind `views` (`_stencil_views`), as a padded
    (L, n + 4) array whose columns 2..n+1 hold the increment.  With
    D1 = theta_{i+1} - theta_{i-1}, D4 = theta_{i+2} - theta_{i-2},
    s0 = 1/2h and s3 = 1/2h^3 this is the one product (dt K) S of the
    stage matrix K = [diag(c s0 - 2 e s3) | diag(e s3) | s0 T] and the
    stage rows S = [D1; D4; R], in one of two forms that `_triad_in_z`
    picks from the mode list:

    dense
        T = g as a matrix of row n and column m L + k, and R the L^2
        pair rows theta^m D1^k: K is (L, 2L + L^2).
    product in z
        T the analysis matrix and R = F, the product A'B - CD of the
        synthesised rows at the P + 1 points zeta_j
        (`_transform_matrices`): K is (L, 2L + P + 1).  Two BLAS
        products synthesise [A'; C] from theta and [B; D] from D1 into
        work buffers of their own, one multiply and one subtract write F
        into S.

    D1 and D4 are each one difference of the flat buffer over its
    entries 2..L(n+4)-3, and the dense pair product spans all n + 4
    columns.  The ghost columns of S so hold junk, which is harmless: an
    interior column reads only its own row's columns 0..n+3, refreshed
    first; every BLAS product reads and writes only columns 2..n+1 (at
    a leading dimension of n + 4, with the bits of the (., n) product);
    and the next stage refreshes every ghost column it reads.  Every
    `inc` shares S, the work buffers and the increment, allocated here
    once and zero-initialised, so the entries no pass writes read 0.  A
    linear system (g = 0, as in every single-mode tank) keeps only K's
    and S's first 2L columns and rows: theta^m D1^k overflows while
    theta is still finite, and 0 * inf is nan."""
    L, n = coeffs.n_modes, grid.n_points
    s0, s3 = 0.5 / grid.h_x, 0.5 / grid.h_x**3
    e = _dispersion_coefficient(coeffs, grid, scheme)
    blocks = [np.diag(coeffs.c * s0 - 2.0 * e * s3), np.diag(e * s3)]
    nonlinear = coeffs.g.any()
    in_z = nonlinear and _triad_in_z(coeffs)
    if in_z:
        synth_theta, synth_d1, analysis = _transform_matrices(
            coeffs.mode_indices, coeffs.triad_scale)
        blocks.append(s0 * analysis)
    elif nonlinear:
        blocks.append(s0 * coeffs.g.reshape(L, L * L))
    stage = np.hstack(blocks)
    rows = np.zeros((stage.shape[1], n + 4))
    padded = np.zeros((L, n + 4))
    used, product_out = rows[:, 2:n + 2], padded[:, 2:n + 2]
    diff1 = rows[:L].reshape(-1)[2:-2]
    diff4 = rows[L:2 * L].reshape(-1)[2:-2]
    multiply, subtract, matmul = np.multiply, np.subtract, np.matmul
    # triad(col, diff1_row, pairs) writes R into S: the dense form is the
    # bare multiply, which spares a stage a Python call (0.1 us at L = 1)
    diff1_row = pairs = None
    if in_z:
        points = analysis.shape[1]
        sampled = np.zeros((2 * points, n))     # [A'; C], then [A'B; CD]
        sampled_d1 = np.zeros((2 * points, n))  # [B; D]
        d1, f_rows = used[:L], used[2 * L:]

        def triad(col, diff1_row, pairs):
            matmul(synth_theta, col[:, 0, 2:n + 2], sampled)
            matmul(synth_d1, d1, sampled_d1)
            multiply(sampled, sampled_d1, sampled)
            subtract(sampled[:points], sampled[points:], f_rows)
    elif nonlinear:
        triad = multiply  # theta^m D1 theta^k
        pairs, diff1_row = rows[2 * L:].reshape(L, L, n + 4), rows[None, :L]
    else:
        def triad(col, diff1_row, pairs):
            pass

    def increment(dt):
        scaled = dt * stage

        # the output goes by position: as `out=` a call on (1, 300)
        # arrays costs about 0.8 us instead of 0.4 us
        def inc(views):
            ghost_lo, wrap_lo, ghost_hi, wrap_hi, p3, p1, p4, p0, col, _ = views
            ghost_lo[...] = wrap_lo
            ghost_hi[...] = wrap_hi
            subtract(p3, p1, diff1)
            subtract(p4, p0, diff4)
            triad(col, diff1_row, pairs)
            matmul(scaled, used, product_out)
            return padded

        return inc

    return increment


def mass_per_mode(state, grid):
    """Discrete mass h sum_i theta_i per mode.  A finite row whose sum
    overflows is summed scaled by its max|theta| instead."""
    with np.errstate(over="ignore", invalid="ignore"):
        mass = grid.h_x * state.theta.sum(axis=1)
    for n in np.flatnonzero(~np.isfinite(mass)):
        row = state.theta[n]
        peak = np.max(np.abs(row))
        if np.isfinite(peak):
            with np.errstate(over="ignore"):
                mass[n] = peak * (grid.h_x * np.sum(row / peak))
    return mass


def l2_per_mode(state, grid):
    """Discrete L2 norm (h sum_i theta_i^2)^(1/2) per mode.  A finite
    row whose sum overflows is summed scaled by its max|theta| instead."""
    with np.errstate(over="ignore"):
        l2sq = grid.h_x * (state.theta**2).sum(axis=1)
    norms = np.sqrt(l2sq)
    for n in np.flatnonzero(np.isinf(l2sq)):
        row = state.theta[n]
        peak = np.max(np.abs(row))
        if np.isfinite(peak):
            with np.errstate(over="ignore"):
                norms[n] = peak * np.sqrt(grid.h_x * np.sum((row / peak) ** 2))
    return norms


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
    increment = _increment_kernel(coeffs, grid, params.scheme)
    pad = np.empty((L, n + 4))
    views = _stencil_views(pad)
    theta = views[-1]              # the state, advanced in place
    theta[...] = state.theta
    # (stage input, increment, padded destination, its state, name):
    # every stage is based on the padded theta, and its update runs over
    # whole padded rows; the ghost junk it writes is refreshed by the
    # next stage before anything reads it
    if params.scheme == TWO_STAGE:
        half = np.empty((L, n + 4))
        half_views = _stencil_views(half)
        stages = ((views, increment(tau / 2.0), half, half_views[-1],
                   "half step"),
                  (half_views, increment(tau), pad, theta, "full step"))
    else:
        stages = ((views, increment(tau), pad, theta, "one-stage step"),)
    subtract = np.subtract

    def step(check=False):
        """One step in place; with `check`, the name of the first stage
        that produced non-finite values, else None."""
        for at, inc, dest, dest_state, what in stages:
            subtract(pad, inc(at), dest)
            if check and not np.isfinite(dest_state).all():
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
                step()
        if not np.isfinite(theta).all():
            # a non-finite value stays non-finite through every later
            # stage, so the first bad stage lies between the checkpoint
            # and stop: replay from the checkpoint, checking every stage
            theta[...] = checkpoint
            with np.errstate(over="ignore", invalid="ignore"):
                for failed in range(checked + 1, stop + 1):
                    checkpoint[...] = theta
                    what = step(check=True)
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


def semi_discrete_limit(state, coeffs, grid, scheme, t_end):
    """The tau -> 0 solution at exactly t_end of the finite-difference
    system that `scheme` integrates: theta_t = -(c D0 theta + e D3 theta
    + sum g theta^m D0 theta^k) with that scheme's e_n.

    D0 and D3 are circulant, so in rfft space they are the diagonal
    symbols i sin(kh)/h and i (sin 2kh - 2 sin kh)/h^3 and the linear
    part is integrated exactly; the triad term is explicit, g applied
    as the dense matrix of row n and column m L + k.  The
    integrator is ETDRK4 (Cox & Matthews, J. Comput. Phys. 176, 2002).
    The result verifies itself by step doubling: from
    `_LIMIT_MIN_STEPS` steps the count doubles until two successive
    results agree within LIMIT_RTOL of max|theta|, and the finer one is
    returned.  A non-finite result raises NonFiniteError, and no
    agreement by `_LIMIT_MAX_STEPS` steps raises RuntimeError: an
    unverified limit is never returned as a yardstick.
    """
    _check_span(state, coeffs, grid, t_end)
    # imported here: `import wavetank` stays free of numpy.fft
    from numpy import fft

    L, n = state.theta.shape
    h = grid.h_x
    kh = 2.0 * np.pi * np.arange(n // 2 + 1) / n
    sym0 = 1j * np.sin(kh) / h
    sym3 = 1j * (np.sin(2.0 * kh) - 2.0 * np.sin(kh)) / h**3
    e = _dispersion_coefficient(coeffs, grid, scheme)
    lin = -(coeffs.c[:, None] * sym0 + e[:, None] * sym3)
    triad = coeffs.g.reshape(L, L * L)
    stack = np.empty((2, L, n // 2 + 1), dtype=complex)

    def triad_term(v):
        """sum g theta^m D0 theta^k of the spectrum v, as a spectrum."""
        stack[0] = v
        np.multiply(sym0, v, out=stack[1])
        theta, d0 = fft.irfft(stack, n)
        return fft.rfft(triad @ (theta[:, None, :] * d0[None, :, :])
                        .reshape(L * L, n))

    def solve(n_steps):
        tau = (t_end - state.time) / n_steps
        E, E2, q, f1, f2, f3 = _phi_weights(tau * lin)
        w = -tau
        q, f1, f2, f3 = w * q, w * f1, 2.0 * w * f2, w * f3
        v = fft.rfft(state.theta)
        for _ in range(n_steps):
            nv = triad_term(v)
            e2v = E2 * v
            a = e2v + q * nv
            na = triad_term(a)
            nb = triad_term(e2v + q * na)
            nc = triad_term(E2 * a + q * (2.0 * nb - nv))
            v = E * v + f1 * nv + f2 * (na + nb) + f3 * nc
        return fft.irfft(v, n)

    n_steps, coarse = _LIMIT_MIN_STEPS, None
    with np.errstate(over="ignore", invalid="ignore"):
        while n_steps <= _LIMIT_MAX_STEPS:
            fine = solve(n_steps)
            if not np.isfinite(fine).all():
                raise NonFiniteError(
                    f"semi-discrete limit at t = {t_end:.6g} went non-finite "
                    f"at {n_steps} steps", step=n_steps)
            if (coarse is not None and np.max(np.abs(fine - coarse))
                    <= LIMIT_RTOL * np.max(np.abs(fine))):
                return ModeState(time=t_end, theta=fine)
            coarse, n_steps = fine, 2 * n_steps
    raise RuntimeError(
        f"semi-discrete limit at t = {t_end:.6g} did not settle to "
        f"{LIMIT_RTOL:.0e} by {_LIMIT_MAX_STEPS} steps; refusing to use it "
        f"as a yardstick")
