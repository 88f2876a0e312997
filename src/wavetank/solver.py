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
grid-scale mode over the run's horizon by a fixed budget.

Each stage computes its increment dt * rhs in one kernel.  With
D1 = theta_{i+1} - theta_{i-1}, D4 = theta_{i+2} - theta_{i-2},
s0 = 1/(2h) and s3 = 1/(2h^3),

    dt (c D0 theta + e D3 theta + sum_{m,k} g^n_{m,k} theta^m D0 theta^k)
        = A D1 + F D4 + T_dt(theta^m D1^k),
    A = dt (c s0 - 2 e s3),  F = dt e s3,  T_dt = dt s0 g,

so tau, the stencil scales and the coefficients meet once per `advance`
call, in per-mode factors, and a stage is the two differences, their
products and one subtract(theta, increment, out=dest).

The triad operator T_dt is applied through the nonzeros of g, which lie
only on the resonance branches n = m + k and n = |m - k| (4.5 % of the
entries at L = 32, 1.8 % at L = 80).  `advance` builds g once per call
as a CSR matrix of shape (L, L^2) and scales a copy by dt s0 for each
stage; each stage forms the all-pair product theta^m D1 theta^k as an
(L^2, n) array and applies the matrix, at O(L^2 n) for the product plus
O(nnz n) for the sum, instead of the dense O(L^3 n) contraction.  L = 1
computes (A + B theta) D1 + F D4 with B = dt g s0 and A, B, F as Python
floats, and builds no matrix: a (1, 1) sparse call alone costs about
4 us.  An L = 1 stage is 10 numpy calls and an L > 1 stage 11.  The
two-stage step at L = 1 takes about 18 us at n = 120 and at n = 300,
one-stage about 9 us, and at L = 5, n = 256, about 87 us (medians of 5
rounds of 10,000 steps; 2-core Xeon, numpy 2.4.6, scipy 1.17.1).

`advance` steps in place.  Per call it allocates the padded state
(L, n + 4), with the state in columns 2..n+1, a padded half-stage
buffer (two-stage), the increment and one set of work arrays (D1, a
temporary and, for L > 1, the (L, L, n) pair product) shared by every
stage; each stage refreshes the four ghost columns and evaluates the
stencil through `out=` ufuncs into those arrays.  Finiteness is checked
every `_FINITE_CHECK_EVERY` steps, before every observation and after
the last step, and each passing check copies the state into a
checkpoint.
A non-finite value stays non-finite through every later stage, so a
failed check means the first bad stage lies after the checkpoint: the
same kernel replays from it with a check after every stage and raises
NonFiniteError at the exact step, with the last finite state and the
stage named in its cause.

`semi_discrete_limit` gives the tau -> 0 limit of either scheme: the
same D0, D3 and e_n, integrated by ETDRK4 with the linear part exact in
rfft space, and returned only once step doubling has settled to
LIMIT_RTOL.  It is the yardstick of the temporal order study.

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
    tau ~ h^6 (one-stage).  A horizon <= 0 takes no steps: inf.
    """
    if horizon <= 0:
        return math.inf
    h = grid.h_x
    e = _dispersion_coefficient(coeffs, grid, scheme)
    lam = (2.598 * float(np.max(np.abs(e))) / h**3
           + float(np.max(np.abs(coeffs.c))) / h)
    if scheme == TWO_STAGE:
        return (8.0 * GROWTH_BUDGET / (horizon * lam**4)) ** (1.0 / 3.0)
    return 2.0 * GROWTH_BUDGET / (horizon * lam**2)


def step_count(t0, t_end, tau):
    """Number of steps of size tau that `advance` takes from t0 to t_end."""
    if t_end <= t0:
        return 0
    return int(np.ceil((t_end - t0) / tau - 1e-9))


def _triad_operator(g):
    """g^n_{m,k} as a CSR matrix of shape (L, L^2): row n, column m L + k,
    holding only g's nonzero entries; None for a single mode."""
    L = g.shape[0]
    if L == 1:
        return None
    # imported here: importing scipy.sparse costs about 20 MB resident and
    # 0.24 s (2-core Xeon, scipy 1.17.1), which single-mode runs never need
    from scipy import sparse
    return sparse.csr_array(g.reshape(L, L * L))


def _stencil_views(pad):
    """Views into a padded (L, n + 4) buffer that holds the state in
    columns 2..n+1: the two ghost-column pairs with their periodic
    sources, then the shifts 0..4 of the stencil (shift 2 is the state)."""
    n = pad.shape[1] - 4
    return ((pad[:, :2], pad[:, n:n + 2], pad[:, n + 2:], pad[:, 2:4])
            + tuple(pad[:, s:s + n] for s in range(5)))


def _increment_kernel(coeffs, grid, e, triad):
    """increment(dt) -> inc(views, out): dt (c D0 theta + e D3 theta
    + sum g theta^m D0 theta^k), per mode, written into `out` for the
    padded state behind `views` (`_stencil_views`); `triad` is
    `_triad_operator(coeffs.g)`.  With D1 = theta_{i+1} - theta_{i-1} and
    D4 = theta_{i+2} - theta_{i-2}, this is A D1 + F D4 + T(theta^m D1^k)
    for A = dt (c s0 - 2 e s3), F = dt e s3 and T the triad matrix times
    dt s0 (s0 = 1/2h, s3 = 1/2h^3).  Every `inc` shares the work arrays,
    allocated here once."""
    L, n = coeffs.n_modes, grid.n_points
    s0, s3 = 0.5 / grid.h_x, 0.5 / grid.h_x**3
    diff1, tmp = np.empty((L, n)), np.empty((L, n))
    if L > 1:
        prod = np.empty((L, L, n))
        pairs = prod.reshape(L * L, n)
    subtract, multiply, add, copyto = (np.subtract, np.multiply, np.add,
                                       np.copyto)

    def increment(dt):
        a = dt * (coeffs.c * s0 - 2.0 * e * s3)
        f = dt * e * s3
        if L == 1:
            # Python floats: a (1, 1) array would send every multiply down
            # numpy's broadcast path
            a, f = float(a[0]), float(f[0])
            b = dt * float(coeffs.g[0, 0, 0]) * s0
        else:
            a, f = a[:, None], f[:, None]
            scaled = triad * (dt * s0)

        def inc(views, out):
            ghost_lo, wrap_lo, ghost_hi, wrap_hi, p0, p1, theta, p3, p4 = views
            copyto(ghost_lo, wrap_lo)
            copyto(ghost_hi, wrap_hi)
            subtract(p3, p1, out=diff1)          # theta_{i+1} - theta_{i-1}
            subtract(p4, p0, out=out)            # theta_{i+2} - theta_{i-2}
            multiply(out, f, out=out)
            if L == 1:
                multiply(theta, b, out=tmp)      # (A + B theta) D1
                add(tmp, a, out=tmp)
                multiply(tmp, diff1, out=tmp)
                add(out, tmp, out=out)
            else:
                multiply(diff1, a, out=tmp)
                add(out, tmp, out=out)
                multiply(theta[:, None, :], diff1[None, :, :], out=prod)
                add(out, scaled @ pairs, out=out)
            return out

        return inc

    return increment


def _rhs(theta, coeffs, grid, e, triad):
    """c D0 theta + sum g theta^m D0 theta^k + e D3 theta, per mode, as a
    new array: the dt = 1 increment of `_increment_kernel`."""
    L, n = theta.shape
    pad = np.empty((L, n + 4))
    pad[:, 2:n + 2] = theta
    inc = _increment_kernel(coeffs, grid, e, triad)(1.0)
    return inc(_stencil_views(pad), np.empty((L, n)))


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
    """March `state` to t >= t_end with the selected scheme.

    observers are callables (step_index, state) invoked at step 0,
    every `observe_every` steps (0 = only first/last) and after the
    final step, each with a state of its own (never a view of the
    buffers stepped in place).  Conserved-quantity series are recorded
    at the same instants.  On instability raises NonFiniteError
    carrying the step index and the last finite state, with the stage
    that failed named in its cause.  The time after step j is
    t0 + j * tau, never a running sum.  tau is taken as given; callers
    pick it with `stable_tau`.
    """
    _check_span(state, coeffs, grid, t_end)
    if observe_every < 0:
        raise ValueError(f"observe_every must be >= 0, got {observe_every}")

    tau, t0 = params.tau, state.time
    n_steps = step_count(t0, t_end, tau)
    L, n = state.theta.shape
    increment = _increment_kernel(
        coeffs, grid, _dispersion_coefficient(coeffs, grid, params.scheme),
        _triad_operator(coeffs.g))
    views = _stencil_views(np.empty((L, n + 4)))
    theta = views[6]               # the state, advanced in place
    theta[...] = state.theta
    out = np.empty((L, n))
    # (stage input, increment, destination, name): every stage is based
    # on theta
    if params.scheme == TWO_STAGE:
        half_views = _stencil_views(np.empty((L, n + 4)))
        stages = ((views, increment(tau / 2.0), half_views[6], "half step"),
                  (half_views, increment(tau), theta, "full step"))
    else:
        stages = ((views, increment(tau), theta, "one-stage step"),)
    subtract = np.subtract

    def step(check=False):
        """One step in place; with `check`, the name of the first stage
        that produced non-finite values, else None."""
        for at, inc, dest, what in stages:
            subtract(theta, inc(at, out), out=dest)
            if check and not np.isfinite(dest).all():
                return what
        return None

    def at_step(j, values):
        return ModeState(time=t0 + j * tau if j else t0, theta=values.copy())

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
    part is integrated exactly; the triad term is explicit.  The
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
    triad = _triad_operator(coeffs.g)
    # the step weights carry the sign of the triad term, and g at L = 1
    sign = -1.0 if triad is not None else -float(coeffs.g[0, 0, 0])
    stack = np.empty((2, L, n // 2 + 1), dtype=complex)

    def triad_term(v):
        """sum g theta^m D0 theta^k of the spectrum v, as a spectrum,
        without g at L = 1."""
        stack[0] = v
        np.multiply(sym0, v, out=stack[1])
        theta, d0 = fft.irfft(stack, n)
        if triad is None:
            return fft.rfft(theta * d0)
        return fft.rfft(triad @ (theta[:, None, :] * d0[None, :, :])
                        .reshape(L * L, n))

    def solve(n_steps):
        tau = (t_end - state.time) / n_steps
        E, E2, q, f1, f2, f3 = _phi_weights(tau * lin)
        w = sign * tau
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
