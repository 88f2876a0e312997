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

The triad term sum_{m,k} g^n_{m,k} theta^m D0 theta^k is applied
through the nonzeros of g, which lie only on the resonance branches
n = m + k and n = |m - k| (4.5 % of the entries at L = 32, 1.8 % at
L = 80).  `advance` builds g once per call as a CSR matrix of shape
(L, L^2); each stage forms the all-pair product theta^m D0 theta^k as
an (L^2, n) array and applies the matrix, at O(L^2 n) for the product
plus O(nnz n) for the sum, instead of the dense O(L^3 n) contraction.
L = 1 keeps its scalar product g theta D0 theta and builds no matrix:
a sparse call would add 10-20 us to a 50-60 us step.

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
    "stable_tau",
    "step_count",
    "discrete_l2_norm",
    "mass_per_mode",
    "l2_per_mode",
]

TWO_STAGE = "two-stage"
ONE_STAGE = "one-stage"
DEFAULT_GROWTH_BUDGET = 10.0


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


def stable_tau(coeffs, grid, scheme, horizon,
               growth_budget=DEFAULT_GROWTH_BUDGET):
    """Largest tau that keeps the round-off amplification of a run over
    `horizon` within `growth_budget` (an exponent).

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
        return (8.0 * growth_budget / (horizon * lam**4)) ** (1.0 / 3.0)
    return 2.0 * growth_budget / (horizon * lam**2)


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
    # imported here: scipy.sparse adds ~2 MB resident, which single-mode
    # runs never need
    from scipy import sparse
    return sparse.csr_array(g.reshape(L, L * L))


def _rhs(theta, coeffs, grid, e, triad):
    """c D0 theta + sum g theta^m D0 theta^k + e D3 theta, per mode;
    `triad` is `_triad_operator(coeffs.g)`."""
    h = grid.h_x
    L, n = theta.shape
    # one padded copy; shifted neighbours are views into it
    pad = np.concatenate((theta[:, -2:], theta, theta[:, :2]), axis=1)
    diff1 = pad[:, 3:n + 3] - pad[:, 1:n + 1]          # theta_{i+1} - theta_{i-1}
    d0 = diff1 * (0.5 / h)
    d3 = (pad[:, 4:n + 4] - pad[:, 0:n] - 2.0 * diff1) * (0.5 / h**3)
    out = coeffs.c[:, None] * d0 + e[:, None] * d3
    if L == 1:
        out += coeffs.g[0, 0, 0] * theta * d0
    else:
        out += triad @ (theta[:, None, :] * d0[None, :, :]).reshape(L * L, n)
    return out


def _stage(base, at, dt, coeffs, grid, e, triad, what):
    """base - dt * rhs(at): one explicit stage, checked for finiteness."""
    with np.errstate(over="ignore", invalid="ignore"):
        theta = base - dt * _rhs(at, coeffs, grid, e, triad)
    if not np.all(np.isfinite(theta)):
        raise NonFiniteError(f"{what} produced non-finite values")
    return theta


def mass_per_mode(state, grid):
    """Discrete mass h sum_i theta_i per mode."""
    return grid.h_x * state.theta.sum(axis=1)


def l2_per_mode(state, grid):
    """Discrete L2 norm (h sum_i theta_i^2)^(1/2) per mode."""
    return np.sqrt(grid.h_x * (state.theta**2).sum(axis=1))


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
    aborted_at_step: int | None = None
    times: list = field(default_factory=list)
    mass: list = field(default_factory=list)      # per observation, per mode
    l2: list = field(default_factory=list)


def advance(state, coeffs, grid, params, t_end, observers=(), observe_every=0):
    """March `state` to t >= t_end with the selected scheme.

    observers are callables (step_index, state) invoked at step 0,
    every `observe_every` steps (0 = only first/last) and after the
    final step.  Conserved-quantity series are recorded at the same
    instants.  On instability raises NonFiniteError carrying the step
    index and the last finite state.  The time after step j is
    t0 + j * tau, never a running sum.  tau is taken as given; callers
    pick it with `stable_tau`.
    """
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

    tau, t0 = params.tau, state.time
    n_steps = step_count(t0, t_end, tau)

    two_stage = params.scheme == TWO_STAGE
    e = _dispersion_coefficient(coeffs, grid, params.scheme)
    triad = _triad_operator(coeffs.g)
    report = RunReport(scheme=params.scheme, tau=tau)
    current = state.copy()

    def observe(step):
        report.times.append(current.time)
        report.mass.append(mass_per_mode(current, grid))
        report.l2.append(l2_per_mode(current, grid))
        for obs in observers:
            obs(step, current)

    started = time.perf_counter()
    observe(0)
    for step in range(1, n_steps + 1):
        theta = current.theta
        try:
            if two_stage:
                half = _stage(theta, theta, tau / 2.0, coeffs, grid, e,
                              triad, "half step")
                theta = _stage(theta, half, tau, coeffs, grid, e, triad,
                               "full step")
            else:
                theta = _stage(theta, theta, tau, coeffs, grid, e, triad,
                               "one-stage step")
        except NonFiniteError as err:
            report.steps = step - 1
            report.aborted_at_step = step
            report.wall_time = time.perf_counter() - started
            raise NonFiniteError(
                f"scheme went non-finite at step {step} (t = {current.time:.6g})",
                step=step,
                last_state=current,
            ) from err
        current = ModeState(time=t0 + step * tau, theta=theta)
        if observe_every and step % observe_every == 0 and step != n_steps:
            observe(step)
    if n_steps > 0:
        observe(n_steps)
    report.steps = n_steps
    report.wall_time = time.perf_counter() - started
    return current, report
