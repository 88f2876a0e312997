"""Verification harness: the exact travelling-wave oracle, empirical
convergence orders, conservation audits, a stability probe and
soliton-fission counting.

One oracle type, `TravelingWave`, carries every exact solution: the
single-mode KdV soliton (`kdv_soliton_oracle`) and the coupled two-mode
pair (`build_traveling_pair`).  Each is residual-verified, by
substituting its exact derivatives into the equations, before it is
allowed to judge the solver.  Convergence orders are fitted by log-log
least squares over >= 3 refinement levels; a fit whose RMS residual
exceeds 0.1 (in log2 units) is flagged non-asymptotic instead of being
reported as an order.  The fission census predicts its soliton count
from the closed-form bound states of the Poeschl-Teller well.

Every study runs one fixed design.  Its time step comes from
`stable_tau(coeffs, grid, scheme, horizon)`, the one growth budget
`solver.GROWTH_BUDGET` over the run's horizon: the temporal study and
the stability probe (at multiples r of it) over their horizons, the
pair check over its round trip (twice each leg's horizon), and the
spatial study over its horizon but capped for accuracy by
`SPATIAL_TAU_CAP_FRACTION`.  The temporal study measures against
`solver.semi_discrete_limit`, the step-doubling verified tau -> 0
limit of the scheme's own finite-difference system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import CoefficientSet
from .solver import (
    Grid,
    ModeState,
    NonFiniteError,
    ONE_STAGE,
    SchemeParams,
    TWO_STAGE,
    advance,
    discrete_l2_norm,
    semi_discrete_limit,
    stable_tau,
    step_count,
)

__all__ = [
    "TravelingWave",
    "kdv_soliton_oracle",
    "build_traveling_pair",
    "single_mode_coefficients",
    "ConvergenceLevel",
    "ConvergenceReport",
    "measure_spatial_convergence",
    "measure_temporal_convergence",
    "ConservationAudit",
    "conservation_audit",
    "StabilityProbeResult",
    "stability_probe",
    "FissionReport",
    "fission_census",
    "scattering_bound_states",
    "canonical_pulse_strength",
    "PairCheckReport",
    "integrable_pair_check",
    "fit_order",
]

ORACLE_RTOL = 1e-9
FIT_RESIDUAL_LIMIT = 0.1   # log2 units
# The spatial study caps tau so that its O(tau^2) error stays below this
# share of the expected O(h^2) error, which the fit is meant to see.  An
# accuracy cap, not a growth budget: it binds below `stable_tau` at 12
# and 24 points per width, for 100 transits and for 40.
SPATIAL_TAU_CAP_FRACTION = 0.02
# The temporal study settles its tau -> 0 yardstick to this share of
# max|theta|, not to the tighter `solver.LIMIT_RTOL`: the smallest error
# the study measures is 1.26e-2 (L2), so the yardstick's own error stays
# more than 1e4 below anything the study resolves
TEMPORAL_LIMIT_RTOL = 1e-6
# A crest is a local maximum at or above this share of its row's maximum
CREST_FLOOR = 0.05
# The windows a fitted order must lie in: a second-order study (the
# two-stage scheme in h, the coupled pair) and a first-order one (the
# one-stage scheme in tau)
SECOND_ORDER_WINDOW = (1.8, 2.2)
FIRST_ORDER_WINDOW = (0.8, 1.2)


# -- the exact travelling wave -------------------------------------------------

@dataclass(frozen=True)
class TravelingWave:
    """Exact sech^2 travelling wave of a coupled-KdV coefficient set:
    theta^n(x, t) = A_n sech^2((x - x0 - v t) / width).

    The ansatz reduces mode n's equation to two algebraic constraints,
      v = c_n + 4 d_n / width^2
      sum_{m,k} g^n_{m,k} A_m A_k = 12 d_n A_n / width^2.
    If `domain` is set the argument is wrapped periodically, which is
    the exact solution on a ring up to exponentially small tail overlap.
    """

    coeffs: CoefficientSet
    amplitudes: np.ndarray                  # (L,)
    width: float
    speed: float
    x0: float = 0.0
    domain: float | None = None
    residual: float = float("nan")          # filled by verified()
    residual_relative: float = float("nan")

    def __call__(self, x, t):
        """theta at positions x and time t, shape (L, len(x))."""
        xi = np.asarray(x) - self.x0 - self.speed * t
        if self.domain is not None:
            xi = np.mod(xi + self.domain / 2.0, self.domain) - self.domain / 2.0
        return self.amplitudes[:, None] * (1.0 / np.cosh(xi / self.width) ** 2)[None, :]

    def state(self, grid, t):
        return ModeState(time=float(t), theta=self(grid.x, t))

    def grid(self, points_per_width):
        """Ring grid of the domain with about `points_per_width` cells
        per width."""
        return _ring_grid(self.domain, self.width / points_per_width)

    def verified(self):
        """This wave with its residual filled in; raises RuntimeError
        when the residual exceeds ORACLE_RTOL of the equation terms."""
        worst, rel = _residual(self)
        if rel > ORACLE_RTOL:
            raise RuntimeError(
                f"travelling-wave residual {rel:.3e} (relative) exceeds "
                f"{ORACLE_RTOL:.0e}; refusing to use it as a yardstick"
            )
        return replace(self, residual=worst, residual_relative=rel)


def _residual(wave):
    """Max over modes of |(c_n - v) theta^n_x + sum g^n_{m,k} theta^m
    theta^k_x + d_n theta^n_xxx|, i.e. the equation with theta_t =
    -v theta_x, at 4097 points over +-8 widths.  The derivatives are
    exact: with theta^n = A_n S, S = sech^2(u), T = tanh(u) and
    u = (x - x0) / w,
      theta_x = -(2 / w) A S T,  theta_xxx = (8 / w^3) A S T (3 S - 1).
    Returns it and its ratio to max(1, max |v theta^n_x|)."""
    w, v = wave.width, wave.speed
    u = np.linspace(-8.0, 8.0, 4097)
    s = 1.0 / np.cosh(u) ** 2
    st = s * np.tanh(u)
    a = wave.amplitudes[:, None]
    theta = a * s
    first = -(2.0 / w) * a * st
    third = (8.0 / w**3) * a * st * (3.0 * s - 1.0)
    c, d, g = wave.coeffs.c, wave.coeffs.d, wave.coeffs.g

    worst = 0.0
    scale = 1.0
    for n in range(len(theta)):
        res = (c[n] - v) * first[n]
        for m, k in zip(*np.nonzero(g[n])):
            res = res + g[n, m, k] * theta[m] * first[k]
        res = res + d[n] * third[n]
        worst = max(worst, float(np.max(np.abs(res))))
        scale = max(scale, float(abs(v) * np.max(np.abs(first[n]))))
    return worst, worst / scale


def single_mode_coefficients(c, g, d):
    """Synthetic one-mode CoefficientSet for solver benchmarks."""
    return CoefficientSet(
        mode_indices=(1,),
        c=np.array([float(c)]),
        d=np.array([float(d)]),
        g=np.full((1, 1, 1), float(g)),
    )


def kdv_soliton_oracle(c, g, d, amplitude, x0=0.0, domain=None):
    """The exact single-mode soliton, residual-verified: speed
    c + g A / 3, width sqrt(12 d / (g A)).

    Requires g != 0, d > 0 and amplitude * g > 0 (width must be real).
    """
    if g == 0:
        raise ValueError("soliton oracle needs g != 0")
    if not d > 0:
        raise ValueError(f"soliton oracle needs d > 0, got {d}")
    if not amplitude * g > 0:
        raise ValueError(
            f"amplitude * g must be positive (got A = {amplitude}, g = {g})"
        )
    c, g, d, amplitude = float(c), float(g), float(d), float(amplitude)
    wave = TravelingWave(coeffs=single_mode_coefficients(c, g, d),
                         amplitudes=np.array([amplitude]),
                         width=math.sqrt(12.0 * d / (g * amplitude)),
                         speed=c + g * amplitude / 3.0,
                         x0=float(x0), domain=domain)
    return wave.verified()


def build_traveling_pair():
    """A genuinely coupled two-mode set carrying an exact travelling
    pair of amplitudes (1, 0.8) and unit width on a ring of 12 widths,
    residual-verified.

    d = (0.1, 0.05) and c_1 = 1 are fixed; c_2 follows from the common
    speed.  The cross couplings are fixed and the diagonal entry
    g^n_{22} of each mode is solved from the amplitude constraint."""
    d1, d2 = 0.1, 0.05
    a1, a2 = 1.0, 0.8
    c1, width, domain = 1.0, 1.0, 12.0
    w2 = width**2
    speed = c1 + 4.0 * d1 / w2
    c2 = speed - 4.0 * d2 / w2

    # sum g^n_{m,k} A_m A_k = 12 d_n A_n / w^2 is linear in g^n_{22}
    g = np.zeros((2, 2, 2))
    g[0, 0, 1] = g[0, 1, 0] = 0.30
    g[1, 0, 1] = g[1, 1, 0] = 0.15
    g[0, 0, 0] = 0.50
    g[1, 0, 0] = 0.20
    for n, (dn, an) in enumerate(((d1, a1), (d2, a2))):
        target = 12.0 * dn * an / w2
        partial = (g[n, 0, 0] * a1 * a1 + g[n, 0, 1] * a1 * a2
                   + g[n, 1, 0] * a2 * a1)
        g[n, 1, 1] = (target - partial) / (a2 * a2)

    coeffs = CoefficientSet(
        mode_indices=(1, 2),
        c=np.array([c1, c2]),
        d=np.array([d1, d2]),
        g=g,
    )
    wave = TravelingWave(coeffs=coeffs, amplitudes=np.array([a1, a2]),
                         width=width, speed=speed, x0=domain / 2.0,
                         domain=domain)
    return wave.verified()


def _ring_grid(length, h):
    """Periodic grid of `length` with the whole number of cells nearest
    to spacing h."""
    n = int(round(length / h))
    return Grid(h_x=length / n, n_points=n)


def _unit_width_soliton(amplitude, g, speed):
    """Verified unit-width soliton of the given speed, centred on a ring
    of 12 widths."""
    return kdv_soliton_oracle(c=speed - g * amplitude / 3.0, g=g,
                              d=g * amplitude / 12.0, amplitude=amplitude,
                              x0=6.0, domain=12.0)


# -- convergence measurement -------------------------------------------------

@dataclass(frozen=True)
class ConvergenceLevel:
    h_x: float
    tau: float
    n_steps: int
    norm: float            # ||V|| against the yardstick at final time
    rel_norm: float
    oracle_norm: float     # ||V|| against the exact oracle (always reported)
    stable: bool


@dataclass(frozen=True)
class ConvergenceReport:
    kind: str              # "spatial" | "temporal"
    scheme: str
    levels: tuple
    fitted_order: float | None
    fit_residual: float | None   # RMS of log2 residuals
    asymptotic: bool

    def order_within(self, lo, hi):
        """True when the fit is asymptotic and its order lies in
        [lo, hi]: a non-asymptotic fit reports no order to check."""
        p = self.fitted_order
        return p is not None and lo <= p <= hi and self.asymptotic

    def to_text(self):
        lines = [f"# kind = {self.kind} scheme = {self.scheme}",
                 "h_x\ttau\tsteps\tnorm\trel_norm\toracle_norm\tstable"]
        for lv in self.levels:
            lines.append(
                f"{lv.h_x:.17g}\t{lv.tau:.17g}\t{lv.n_steps}\t{lv.norm:.17g}"
                f"\t{lv.rel_norm:.17g}\t{lv.oracle_norm:.17g}\t{lv.stable}"
            )
        lines.append(f"# fitted_order = {self.fitted_order}")
        lines.append(f"# fit_residual_log2 = {self.fit_residual}")
        lines.append(f"# asymptotic = {self.asymptotic}")
        return "\n".join(lines) + "\n"


def fit_order(scales, norms):
    """Least-squares slope of log(norm) vs log(scale) plus the RMS
    fit residual in log2 units."""
    x = np.log(np.asarray(scales, dtype=float))
    y = np.log(np.asarray(norms, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)) / np.log(2.0))
    return float(slope), resid


def _convergence_study(kind, scheme, wave, levels, horizon, reference=None):
    """Run `wave` from t = 0 to `horizon` once per (grid, tau) pair and
    fit the order.

    Each level's norm is taken against `reference` (a state on that
    level's grid) when one is given and against the exact wave at the
    final time otherwise; rel_norm divides it by the exact wave's norm,
    and oracle_norm is always the distance to the exact wave.  A level
    that goes non-finite is kept as unstable and left out of the fit,
    which is taken against h_x (kind "spatial") or tau (kind "temporal")
    over >= 3 stable levels.
    """
    out = []
    for grid, tau in levels:
        try:
            final, run = advance(wave.state(grid, 0.0), wave.coeffs, grid,
                                 SchemeParams(tau=tau, scheme=scheme), horizon)
        except NonFiniteError:
            nan = float("nan")
            out.append(ConvergenceLevel(grid.h_x, tau, 0, nan, nan, nan, False))
            continue
        exact = wave.state(grid, final.time)
        oracle_norm = discrete_l2_norm(final, exact, grid)
        norm = (oracle_norm if reference is None
                else discrete_l2_norm(final, reference, grid))
        exact_norm = float(np.sqrt(grid.h_x * np.sum(exact.theta**2)))
        out.append(ConvergenceLevel(grid.h_x, run.tau, run.steps, norm,
                                    norm / exact_norm, oracle_norm, True))
    good = [lv for lv in out if lv.stable]
    if len(good) < 3:
        return ConvergenceReport(kind, scheme, tuple(out), None, None, False)
    scales = [lv.h_x if kind == "spatial" else lv.tau for lv in good]
    order, resid = fit_order(scales, [lv.norm for lv in good])
    return ConvergenceReport(kind, scheme, tuple(out), order, resid,
                             resid <= FIT_RESIDUAL_LIMIT)


def measure_spatial_convergence(n_transits=100):
    """Two-stage error against the exact soliton at 12, 24 and 48 points
    per width, after `n_transits` transit times.

    The soliton has unit width and an advection-dominated speed, so that
    100 transit times stay cheap.  tau is `stable_tau`, capped so that
    its O(tau^2) error stays below SPATIAL_TAU_CAP_FRACTION of an
    expected O(h^2) error of 0.5 h^2 (the measured one is 0.5-0.6 h^2)."""
    orc = _unit_width_soliton(amplitude=2.0, g=0.37, speed=20.0)
    horizon = n_transits * orc.width / abs(orc.speed)
    levels = []
    for ppw in (12, 24, 48):
        grid = orc.grid(ppw)
        expected_h2 = 0.5 * grid.h_x**2
        tau_cap = math.sqrt(
            SPATIAL_TAU_CAP_FRACTION * expected_h2 * 6.0
            / (horizon * abs(orc.speed / orc.width) ** 3)
        )
        levels.append((grid, min(stable_tau(orc.coeffs, grid, TWO_STAGE,
                                            horizon), tau_cap)))
    return _convergence_study("spatial", TWO_STAGE, orc, levels, horizon)


def measure_temporal_convergence():
    """One-stage temporal order at 10 points per width over 5 transit
    times of a unit-width soliton, at tau0, tau0/2 and tau0/4 with tau0
    = `stable_tau`.

    The O(h^2) spatial bias does not refine with tau, so the pure
    time-stepping error is isolated against the tau -> 0 limit of the
    same one-stage system on the same grid (`semi_discrete_limit`); the
    norms against the exact oracle are reported alongside.  The limit
    settles to TEMPORAL_LIMIT_RTOL = 1e-6 of max|theta|, at 128 steps:
    the smallest error the study measures is 1.26e-2 (L2), and the limit
    lies 2.2e-8 from the one settled to `solver.LIMIT_RTOL`, which takes
    512 steps."""
    orc = _unit_width_soliton(amplitude=1.0, g=1.2, speed=30.0)
    grid = orc.grid(10)
    horizon = 5 * orc.width / abs(orc.speed)
    tau0 = stable_tau(orc.coeffs, grid, ONE_STAGE, horizon)
    reference = semi_discrete_limit(orc.state(grid, 0.0), orc.coeffs, grid,
                                    ONE_STAGE, horizon,
                                    rtol=TEMPORAL_LIMIT_RTOL)
    return _convergence_study("temporal", ONE_STAGE, orc,
                              [(grid, tau0 / div) for div in (1, 2, 4)],
                              horizon, reference)


# -- conservation audit -------------------------------------------------------

@dataclass(frozen=True)
class ConservationAudit:
    """Drift of discrete mass and discrete L2 energy over a run."""

    max_mass_drift: float         # max |mass(t) - mass(0)| over obs and modes
    max_l2_drift: float           # max |l2^2(t) - l2^2(0)| / l2^2(0)
    final_l2_drift: float         # the same at the last observation


def conservation_audit(report):
    """Drift summary of a RunReport's conserved series.  A mode whose
    largest L2 norm passes 1e150 has its norms scaled by a power of two
    that brings that one below 1 before they are squared: the scaling is
    exact, so the drift keeps its bits and the squares do not
    overflow."""
    mass = np.asarray(report.mass)
    l2 = np.asarray(report.l2)
    peak = l2.max(axis=0)
    exponent = np.where(peak > 1e150, np.frexp(peak)[1], 0)
    l2sq = np.ldexp(l2, -exponent) ** 2
    mass_drift = np.abs(mass - mass[0])
    denom = np.where(l2sq[0] > 0, l2sq[0], 1.0)
    l2_drift = np.abs(l2sq - l2sq[0]) / denom
    return ConservationAudit(
        max_mass_drift=float(mass_drift.max()),
        max_l2_drift=float(l2_drift.max()),
        final_l2_drift=float(l2_drift[-1].max()),
    )


# -- stability probe ----------------------------------------------------------

@dataclass(frozen=True)
class StabilityProbeResult:
    ratios: tuple             # tau / stable_tau, ascending
    verdicts: tuple           # True = stable, one per ratio
    max_stable_ratio: float   # 0 when no ratio is stable
    monotone: bool            # stable below a threshold, unstable above


def stability_probe(grid, coeffs, ratios, initial_state, horizon):
    """Run two-stage over `horizon` at tau = r `stable_tau` for each
    ratio r, in ascending order; a run is unstable on NonFinite or when
    the state's L2 norm ends past 10 times its start."""
    cap = 10.0 * np.linalg.norm(initial_state.theta)
    limit = stable_tau(coeffs, grid, TWO_STAGE, horizon)
    ratios = tuple(sorted(ratios))
    verdicts = []
    for r in ratios:
        try:
            with np.errstate(all="ignore"):
                final, _ = advance(initial_state.copy(), coeffs, grid,
                                   SchemeParams(tau=r * limit),
                                   initial_state.time + horizon)
                verdicts.append(bool(np.linalg.norm(final.theta) <= cap))
        except NonFiniteError:
            verdicts.append(False)
    return StabilityProbeResult(
        ratios=ratios,
        verdicts=tuple(verdicts),
        max_stable_ratio=max((r for r, ok in zip(ratios, verdicts) if ok),
                             default=0.0),
        monotone=verdicts == sorted(verdicts, reverse=True),
    )


# -- soliton fission ----------------------------------------------------------

def canonical_pulse_strength(amplitude, width, g, d):
    """Strength V0 of the pulse after rescaling the single KdV mode to
    canonical form u_t + 6 u u_x + u_xxx = 0: V0 = A g w^2 / (6 d)."""
    return amplitude * g * width**2 / (6.0 * d)


def scattering_bound_states(strength):
    """Number of bound states of -psi'' - strength sech^2(x) psi with
    energy below -1e-2: the soliton count of the canonical KdV pulse
    strength*sech^2.

    This is the Poeschl-Teller well: with strength = nu (nu + 1) its
    bound states are E_j = -(nu - j)^2 for the integers 0 <= j < nu
    (Drazin & Johnson, Solitons: an introduction, 1989), so E_j < -1e-2
    counts the j with nu - j > 0.1.  The threshold rejects the
    zero-energy edge state of integer nu: strength 2 gives 1, 6 gives 2."""
    if strength <= 0:
        return 0
    nu = (math.sqrt(1.0 + 4.0 * strength) - 1.0) / 2.0
    return math.ceil(nu - 0.1)


def _count_crests(row):
    """Local maxima at or above CREST_FLOOR of the row's maximum, and
    their amplitudes in descending order."""
    peak = float(np.max(row))
    if peak <= 0:
        return 0, ()
    left = np.roll(row, 1)
    right = np.roll(row, -1)
    is_max = (row > left) & (row > right) & (row >= CREST_FLOOR * peak)
    amps = tuple(sorted((float(v) for v in row[is_max]), reverse=True))
    return int(np.count_nonzero(is_max)), amps


@dataclass(frozen=True)
class FissionReport:
    amplitude: float
    width: float
    strength: float            # canonical V0
    predicted_count: int
    detected_count: int
    crest_amplitudes: tuple
    persistent: bool           # same count across the last snapshots
    snapshot_counts: tuple


def fission_census(coeffs, amplitude, width, t_end):
    """Evolve a single-mode sech^2 pulse and count the solitons it
    sheds, against the independent scattering-eigenvalue prediction.

    The pulse sits mid-ring on 30 widths at 10 points per width, and
    the two-stage run is observed at 12 snapshots.  A crest is a local
    maximum at or above CREST_FLOOR (5 %) of the snapshot's global
    maximum; the census is persistent when the crest count agrees
    across the last 3 snapshots.  Detection is deterministic for a given trajectory."""
    if coeffs.n_modes != 1:
        raise ValueError("fission census is a single-mode diagnostic")
    g, d = float(coeffs.g[0, 0, 0]), float(coeffs.d[0])
    strength = canonical_pulse_strength(amplitude, width, g, d)
    predicted = scattering_bound_states(strength)

    grid = _ring_grid(30.0 * width, width / 10.0)
    center = grid.x0 + grid.length / 2.0
    theta0 = amplitude / np.cosh((grid.x - center) / width) ** 2
    state = ModeState(time=0.0, theta=theta0[None, :])

    tau = stable_tau(coeffs, grid, TWO_STAGE, t_end)
    snaps = []
    advance(state, coeffs, grid, SchemeParams(tau=tau), t_end,
            observers=[lambda s, st: snaps.append(st.theta[0].copy())],
            observe_every=max(1, step_count(0.0, t_end, tau) // 12))
    counts_amps = [_count_crests(row) for row in snaps]
    counts = tuple(ca[0] for ca in counts_amps)
    detected, amps = counts_amps[-1]
    return FissionReport(
        amplitude=float(amplitude),
        width=float(width),
        strength=float(strength),
        predicted_count=predicted,
        detected_count=detected,
        crest_amplitudes=amps,
        persistent=len(set(counts[-3:])) == 1,
        snapshot_counts=counts,
    )


# -- two-mode travelling pair -------------------------------------------------

@dataclass(frozen=True)
class PairCheckReport:
    residual: float
    convergence: ConvergenceReport
    reversal_error: float
    forward_error: float

    @property
    def ok(self):
        return (self.convergence.order_within(*SECOND_ORDER_WINDOW)
                and self.reversal_error <= 2.0 * self.forward_error)


def _reflect(state):
    """x -> -x on the periodic ring (index i -> (n - i) mod n)."""
    theta = state.theta[:, ::-1].copy()
    theta = np.roll(theta, 1, axis=1)
    return ModeState(time=state.time, theta=theta)


def integrable_pair_check():
    """Propagate the exact coupled travelling pair with the two-stage
    scheme to t = 2 at 8, 16 and 32 points per width: the fitted order
    must be second.  Reflecting the state, integrating forward again and
    reflecting back must return the initial data within twice the
    forward error (discrete time-reversal).  The pair is built and
    residual-checked from fixed constants, so the check always runs.

    The reversal leg runs on the middle grid for a quarter of the
    horizon.  A round trip doubles the weak-instability exponent of the
    explicit stages, and the reversed seed is truncation-level, so every
    tau is `stable_tau` over twice its leg's horizon: the round trip
    stays within the one growth budget, and long reversed runs do not
    drown in amplified grid-scale noise."""
    pair = build_traveling_pair()
    horizon = 2.0
    levels = []
    for ppw in (8, 16, 32):
        grid = pair.grid(ppw)
        levels.append((grid, stable_tau(pair.coeffs, grid, TWO_STAGE,
                                        2.0 * horizon)))
    conv = _convergence_study("spatial", TWO_STAGE, pair, levels, horizon)

    rev_horizon = 0.25 * horizon
    grid = levels[1][0]
    params = SchemeParams(tau=stable_tau(pair.coeffs, grid, TWO_STAGE,
                                         2.0 * rev_horizon))
    start = pair.state(grid, 0.0)
    fwd, _ = advance(start, pair.coeffs, grid, params, rev_horizon)
    forward_err = discrete_l2_norm(fwd, pair.state(grid, rev_horizon), grid)
    back, _ = advance(_reflect(fwd), pair.coeffs, grid, params,
                      fwd.time + rev_horizon)
    reversal_err = discrete_l2_norm(_reflect(back), start, grid)
    return PairCheckReport(pair.residual, conv, reversal_err, forward_err)
