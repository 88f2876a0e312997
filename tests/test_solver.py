import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import wavetank
import wavetank.solver as solver
from wavetank.coefficients import build_coefficients
from wavetank.modes import Stratification, build_constant_n_basis
from wavetank.scenario import build_initial_state, mcewan_default
from wavetank.solver import (
    Grid,
    ModeState,
    NonFiniteError,
    ONE_STAGE,
    SchemeParams,
    TWO_STAGE,
    advance,
    _FINITE_CHECK_EVERY,
    _dispersion_coefficient,
    _increment_kernel,
    discrete_l2_norm,
    l2_per_mode,
    mass_per_mode,
    semi_discrete_limit,
    stable_tau,
    step_count,
)
from wavetank import verification
from wavetank.verification import (
    build_traveling_pair,
    kdv_soliton_oracle,
    single_mode_coefficients,
)


def one_step(state, coeffs, grid, tau, scheme=TWO_STAGE):
    final, report = advance(state, coeffs, grid, SchemeParams(tau, scheme),
                            state.time + tau)
    assert report.steps == 1
    return final


def soliton_state(grid, c=1.0, g=6.0, d=1.0, A=2.0):
    orc = kdv_soliton_oracle(c, g, d, A, x0=grid.length / 2.0,
                             domain=grid.length)
    return orc.state(grid, 0.0), orc.coeffs, orc


class TestGrid:
    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            Grid(h_x=0.1, n_points=4)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            Grid(h_x=0.0, n_points=32)

    def test_length_and_axis(self):
        grid = Grid(h_x=0.25, n_points=16, x0=-2.0)
        assert grid.length == 4.0
        assert grid.x[0] == -2.0
        assert grid.x[-1] == pytest.approx(2.0 - 0.25)


class TestSingleSteps:
    def test_zero_state_stays_zero(self):
        grid = Grid(h_x=0.1, n_points=32)
        coeffs = single_mode_coefficients(1.0, 6.0, 1.0)
        state = ModeState(0.0, np.zeros((1, 32)))
        for scheme in (TWO_STAGE, ONE_STAGE):
            stepped = one_step(state, coeffs, grid, 1e-3, scheme)
            assert np.all(stepped.theta == 0.0)

    def test_constant_state_unchanged(self):
        grid = Grid(h_x=0.1, n_points=32)
        coeffs = single_mode_coefficients(1.3, 2.0, 0.7)
        state = ModeState(0.0, np.full((1, 32), 3.25))
        for scheme in (TWO_STAGE, ONE_STAGE):
            assert np.all(one_step(state, coeffs, grid, 1e-3, scheme).theta
                          == 3.25)

    def test_pure_advection_half_step_hand_computed(self):
        # d = c h^2 / 6 cancels the corrected dispersion stencil exactly:
        # the half stage is theta_i - 0.1 (theta_{i+1} - theta_{i-1}) at
        # tau = 0.1, and the full stage differences that half layer
        h, c, tau = 0.5, 2.0, 0.1
        grid = Grid(h_x=h, n_points=8)
        coeffs = single_mode_coefficients(c, 0.0001, c * h**2 / 6.0)
        coeffs.g[0, 0, 0] = 0.0
        theta = np.array([1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0])
        half = np.array([4.2, 1.8, 2.7, 4.5, 7.2, 11.7, 18.9, 36.0])
        expected = theta - 0.2 * (np.roll(half, -1) - np.roll(half, 1))
        out = one_step(ModeState(0.0, theta[None, :]), coeffs, grid, tau)
        np.testing.assert_allclose(out.theta[0], expected, rtol=1e-14)
        assert out.time == tau

    def test_pure_advection_one_stage_hand_computed(self):
        # one-stage keeps the unmodified e = d: with d = 0 the step is
        # theta_i - 0.1 (theta_{i+1} - theta_{i-1}) at tau = 0.05
        h, c, tau = 0.5, 2.0, 0.05
        grid = Grid(h_x=h, n_points=8)
        coeffs = single_mode_coefficients(c, 0.0001, 0.0)
        coeffs.g[0, 0, 0] = 0.0
        theta = np.array([1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0])
        out = one_step(ModeState(0.0, theta[None, :]), coeffs, grid, tau,
                       ONE_STAGE)
        expected = np.array([4.2, 1.8, 2.7, 4.5, 7.2, 11.7, 18.9, 36.0])
        np.testing.assert_allclose(out.theta[0], expected, rtol=1e-14)

    def test_step_pair_translates_soliton(self):
        # one (half, full) pair moves the exact soliton by ~ speed*tau
        grid = Grid(h_x=1.0 / 24, n_points=24 * 16)
        state, coeffs, orc = soliton_state(grid, c=1.0, g=6.0, d=1.0, A=2.0)
        tau = 5e-6
        f = one_step(state, coeffs, grid, tau)
        exact = orc.state(grid, tau)
        err = discrete_l2_norm(f, exact, grid)
        norm = discrete_l2_norm(exact, ModeState(tau, 0 * exact.theta), grid)
        assert err / norm < 1e-5
        # and it beats "did not move at all" by a clear margin
        stay = discrete_l2_norm(f, state, grid)
        assert stay > 3 * err

    def test_half_step_raises_on_nonfinite(self):
        grid = Grid(h_x=0.05, n_points=64)
        state, coeffs, _ = soliton_state(grid)
        state.theta[0, 10] = np.inf
        with pytest.raises(NonFiniteError) as err:
            one_step(state, coeffs, grid, 1e-4)
        assert err.value.step == 1
        assert "half step" in str(err.value.__cause__)

    def test_time_is_not_accumulated(self):
        grid = Grid(h_x=0.1, n_points=64)
        state, coeffs, _ = soliton_state(grid)
        t0, tau, n_steps = 0.1, 4e-5, 500
        state.time = t0
        final, report = advance(state, coeffs, grid, SchemeParams(tau=tau),
                                t0 + n_steps * tau)
        assert report.steps == n_steps
        assert final.time == t0 + n_steps * tau


class TestNorm:
    def test_identical_states_zero(self):
        grid = Grid(h_x=0.01, n_points=100)
        s = ModeState(0.0, np.random.default_rng(0).random((1, 100)))
        assert discrete_l2_norm(s, s, grid) == 0.0

    def test_unit_difference(self):
        grid = Grid(h_x=0.01, n_points=100)
        a = ModeState(0.0, np.zeros((1, 100)))
        b = ModeState(0.0, np.ones((1, 100)))
        assert discrete_l2_norm(a, b, grid) == pytest.approx(1.0, rel=1e-14)

    def test_step_scaling(self):
        a = ModeState(0.0, np.zeros((1, 100)))
        b = ModeState(0.0, np.ones((1, 100)))
        n1 = discrete_l2_norm(a, b, Grid(h_x=0.01, n_points=100))
        n2 = discrete_l2_norm(a, b, Grid(h_x=0.02, n_points=100))
        assert n2 / n1 == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_shape_mismatch(self):
        grid = Grid(h_x=0.01, n_points=100)
        a = ModeState(0.0, np.zeros((1, 100)))
        b = ModeState(0.0, np.zeros((2, 100)))
        with pytest.raises(ValueError):
            discrete_l2_norm(a, b, grid)

    def test_l2_per_mode_of_huge_finite_state_is_finite(self):
        grid = Grid(h_x=0.5, n_points=64)
        shape = np.linspace(-1.0, 1.0, 64)
        theta = np.vstack([1e200 * shape, shape])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            l2 = l2_per_mode(ModeState(0.0, theta), grid)
        plain = np.sqrt(grid.h_x * np.sum(shape**2))
        assert l2[0] == pytest.approx(1e200 * plain, rel=1e-15)
        assert l2[1] == plain

    def test_mass_per_mode_of_huge_finite_row_is_exact(self):
        # the plain sum reads inf - inf = nan; the row's exact mass is 0
        grid = Grid(h_x=1.0, n_points=8)
        theta = np.zeros((2, 8))
        theta[0, :4] = [1e308, 1e308, -1e308, -1e308]
        theta[1] = np.arange(8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mass = mass_per_mode(ModeState(0.0, theta), grid)
        assert mass[0] == 0.0
        assert mass[1] == 28.0


@st.composite
def wide_rows(draw):
    """(L, n) rows whose magnitudes run from 1e-300 to 1e308, both signs:
    each row's entries lie within 20 decades below a decade of its own,
    so that its plain sum or sum of squares overflows on some rows and
    not on others."""
    n = draw(st.integers(8, 24))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        top = draw(st.integers(-280, 307))
        entry = st.builds(lambda sign, mantissa, decade: sign * mantissa
                          * 10.0**decade,
                          st.sampled_from([-1.0, 1.0]),
                          st.floats(1.0, 10.0, exclude_max=True),
                          st.integers(max(top - 20, -300), top))
        rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
    return np.array(rows)


def exact_row_sums(row, h):
    """(mass, L2) of one finite row from math.fsum of the row scaled by a
    power of two, so that only the scaling of entries far below the
    row's peak rounds; inf when the value lies beyond the float range."""
    _, exponent = math.frexp(float(np.max(np.abs(row))))
    scaled = [math.ldexp(float(x), -exponent) for x in row]
    with np.errstate(over="ignore"):
        return (np.ldexp(h * math.fsum(scaled), exponent),
                np.ldexp(math.sqrt(h * math.fsum(x * x for x in scaled)),
                         exponent))


@given(theta=wide_rows(), h=st.floats(0.01, 4.0))
def test_row_sums_are_plain_where_finite_and_rescued_where_not(theta, h):
    grid = Grid(h_x=h, n_points=theta.shape[1])
    state = ModeState(0.0, theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sums = (mass_per_mode(state, grid), l2_per_mode(state, grid))
    with np.errstate(over="ignore", invalid="ignore"):
        plain = (h * theta.sum(axis=1), np.sqrt(h * (theta**2).sum(axis=1)))
    n = theta.shape[1]
    eps = np.finfo(float).eps
    for i, row in enumerate(theta):
        peak = np.max(np.abs(row))
        # round-off of the rescued mass and L2, in units of the peak
        bounds = (2.0 * n * n * eps * h * peak,
                  2.0 * (n + 4) * eps * math.sqrt(h * n) * peak)
        for got, ref, exact, bound in zip(sums, plain,
                                          exact_row_sums(row, h), bounds):
            if np.isfinite(ref[i]):
                assert got[i].tobytes() == ref[i].tobytes()
            elif abs(exact) < 2.0**1023:
                assert np.isfinite(got[i])
                assert abs(got[i] - exact) <= bound


def test_import_and_single_mode_run_load_no_scipy():
    # no run loads scipy, the 32-mode product in z included; numpy.fft
    # only semi_discrete_limit does.  The table writer builds its tables
    # from ints and floats, without fractions or decimal
    code = (
        "import os, sys\n"
        "from dataclasses import replace\n"
        "import numpy as np\n"
        "import wavetank as wt\n"
        "def loaded():\n"
        "    scipy = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "    exact = [m for m in ('fractions', 'decimal') if m in sys.modules]\n"
        "    print(sorted(scipy), 'numpy.fft' in sys.modules, exact)\n"
        "loaded()\n"
        "grid = wt.Grid(h_x=0.1, n_points=32)\n"
        "coeffs = wt.single_mode_coefficients(1.0, 6.0, 1.0)\n"
        "wt.advance(wt.ModeState(0.0, np.ones((1, 32))), coeffs, grid,\n"
        "           wt.SchemeParams(tau=1e-5), 1e-4)\n"
        "loaded()\n"
        "for modes in (None, tuple(range(2, 65, 2))):\n"
        "    cfg = wt.mcewan_default()\n"
        "    cfg = cfg if modes is None else replace(cfg, modes=modes)\n"
        "    basis = cfg.basis()\n"
        "    coeffs = wt.build_coefficients(basis, sigma=cfg.sigma,\n"
        "                                   beta2=cfg.beta2)\n"
        "    state, _ = wt.build_initial_state(cfg, basis)\n"
        "    final, report = wt.advance(state, coeffs, cfg.grid, cfg.scheme,\n"
        "                               10 * cfg.scheme.tau)\n"
        "    wt.export(wt.synthesize(basis, final, cfg.grid), os.devnull)\n"
        "    print(coeffs.n_modes, report.steps)\n"
        "    loaded()\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(wavetank.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[] False []", "[] False []", "5 10", "[] False []",
        "32 10", "[] False []"]


class TestTimestepPolicy:
    def test_two_stage_formula(self):
        # lambda = 2.598 |d - c h^2/6| / h^3 + |c| / h, the corrected e
        grid = Grid(h_x=0.01, n_points=64)
        coeffs = single_mode_coefficients(1.0, 1.0, 1.0)
        lam = 2.598 * (1.0 - 1e-4 / 6.0) / 1e-6 + 1.0 / 0.01
        tau = stable_tau(coeffs, grid, TWO_STAGE, horizon=2.0)
        assert tau == pytest.approx((80.0 / (2.0 * lam**4)) ** (1 / 3),
                                    rel=1e-12)

    def test_one_stage_formula(self):
        # one-stage integrates the unmodified e = d
        grid = Grid(h_x=0.1, n_points=64)
        coeffs = single_mode_coefficients(1.0, 1.0, 1.0)
        lam = 2.598 / 1e-3 + 1.0 / 0.1
        tau = stable_tau(coeffs, grid, ONE_STAGE, horizon=2.0)
        assert tau == pytest.approx(20.0 / (2.0 * lam**2), rel=1e-12)

    def test_halving_h(self):
        # with c = 0 the two-stage bound is the familiar tau ~ h^4 guard
        coeffs = single_mode_coefficients(0.0, 1.0, 1.0)
        t1 = stable_tau(coeffs, Grid(h_x=0.02, n_points=64), TWO_STAGE, 1.0)
        t2 = stable_tau(coeffs, Grid(h_x=0.01, n_points=64), TWO_STAGE, 1.0)
        assert t1 / t2 == pytest.approx(16.0, rel=1e-12)

    def test_one_stage_power(self):
        # ... and the one-stage bound the tau ~ h^6 guard
        coeffs = single_mode_coefficients(0.0, 1.0, 1.0)
        t1 = stable_tau(coeffs, Grid(h_x=0.2, n_points=64), ONE_STAGE, 1.0)
        t2 = stable_tau(coeffs, Grid(h_x=0.1, n_points=64), ONE_STAGE, 1.0)
        assert t1 / t2 == pytest.approx(64.0, rel=1e-12)

    def test_longer_horizon_smaller_tau(self):
        grid = Grid(h_x=0.05, n_points=64)
        coeffs = single_mode_coefficients(1.0, 6.0, 1.0)
        ratio = (stable_tau(coeffs, grid, TWO_STAGE, 1.0)
                 / stable_tau(coeffs, grid, TWO_STAGE, 8.0))
        assert ratio == pytest.approx(2.0, rel=1e-12)

    def test_zero_horizon_unbounded(self):
        grid = Grid(h_x=0.05, n_points=64)
        coeffs = single_mode_coefficients(1.0, 6.0, 1.0)
        assert stable_tau(coeffs, grid, TWO_STAGE, 0.0) == math.inf

    @pytest.mark.parametrize("scheme", [TWO_STAGE, ONE_STAGE])
    def test_finite_lambda_beyond_the_float_range(self, scheme):
        # lambda = 1e200 / h: lambda^4 and lambda^2 raised OverflowError;
        # the step they bound lies below the float range
        grid = Grid(h_x=0.05, n_points=64)
        coeffs = single_mode_coefficients(1e200, 6.0, 0.0)
        assert stable_tau(coeffs, grid, scheme, 1.0) == 0.0
        # no dispersion and no advection bound no step
        still = single_mode_coefficients(0.0, 6.0, 0.0)
        assert stable_tau(still, grid, scheme, 1.0) == math.inf

    def test_scheme_params_has_two_fields(self):
        assert [f.name for f in fields(SchemeParams)] == ["tau", "scheme"]

    def test_advance_does_not_police_tau(self):
        # tau far beyond stable_tau: advance runs without a warning; the
        # warning belongs to the CLI, which takes tau from outside
        grid = Grid(h_x=0.1, n_points=64)
        state, coeffs, _ = soliton_state(grid, d=0.01)
        params = SchemeParams(tau=0.2)
        assert params.tau > 3 * stable_tau(coeffs, grid, TWO_STAGE, 0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, report = advance(state, coeffs, grid, params, 0.4)
        assert report.steps == 2


class TestAdvance:
    def test_zero_span_is_identity(self):
        grid = Grid(h_x=0.05, n_points=64)
        state, coeffs, _ = soliton_state(grid)
        final, report = advance(state, coeffs, grid,
                                SchemeParams(tau=1e-4), state.time)
        assert report.steps == 0
        assert np.array_equal(final.theta, state.theta)

    def test_span_far_below_one_step_takes_one(self):
        # a span under 1e-9 tau used to round to 0 steps, leaving the
        # state at t0 < t_end
        assert step_count(0.0, 1e-13, 1e-3) == 1
        assert step_count(0.0, 0.0, 1e-3) == 0
        grid = Grid(h_x=0.05, n_points=64)
        state, coeffs, _ = soliton_state(grid)
        final, report = advance(state, coeffs, grid, SchemeParams(tau=1e-4),
                                1e-14)
        assert report.steps == 1
        assert final.time == 1e-14

    def test_lands_on_t_end(self):
        # 1e-3 is 33.3 steps of 3e-5: 34 shorter steps end on it
        grid = Grid(h_x=0.05, n_points=64)
        state, coeffs, _ = soliton_state(grid)
        params = SchemeParams(tau=3e-5)
        final, report = advance(state, coeffs, grid, params, 1e-3,
                                observe_every=10)
        assert final.time == report.times[-1] == 1e-3
        assert report.tau <= params.tau
        assert report.steps == step_count(0.0, 1e-3, params.tau) == 34
        assert report.times[1] == 10 * report.tau

    def test_keeps_a_tau_that_lands_on_t_end(self):
        # 5 steps of 3e-5 end on t_end, whose fifth is not 3e-5
        grid = Grid(h_x=0.05, n_points=64)
        state, coeffs, _ = soliton_state(grid)
        params = SchemeParams(tau=3e-5)
        t_end = 5 * params.tau
        assert t_end / 5 != params.tau
        final, report = advance(state, coeffs, grid, params, t_end)
        assert report.tau == params.tau
        assert report.steps == 5
        assert final.time == t_end

    def test_rejects_backward_span(self):
        grid = Grid(h_x=0.05, n_points=64)
        state, coeffs, _ = soliton_state(grid)
        with pytest.raises(ValueError):
            advance(state, coeffs, grid, SchemeParams(tau=1e-4), -1.0)

    def test_periodic_advection_full_period(self):
        # g = 0, d = 0: profile should come back to where it started
        n, h, c = 256, 1.0 / 16, 0.8
        grid = Grid(h_x=h, n_points=n)
        theta0 = 1.0 / np.cosh(grid.x - grid.length / 2.0) ** 2
        state = ModeState(0.0, theta0[None, :])
        coeffs = single_mode_coefficients(c, 0.0001, 1.0)
        coeffs.g[0, 0, 0] = 0.0
        coeffs.d[0] = 0.0
        period = grid.length / c
        tau = period / 4096
        final, _ = advance(state, coeffs, grid,
                           SchemeParams(tau=tau), period)
        rel = (discrete_l2_norm(final, state, grid)
               / np.sqrt(h * np.sum(theta0**2)))
        assert rel < 1e-2

    def test_mass_conserved_to_roundoff(self):
        grid = Grid(h_x=0.1, n_points=128)
        state, coeffs, _ = soliton_state(grid, c=1.0, g=6.0, d=1.0, A=2.0)
        steps = 1000
        tau = 2e-4
        final, report = advance(state, coeffs, grid,
                                SchemeParams(tau=tau),
                                steps * tau)
        drift = abs(np.sum(final.theta) - np.sum(state.theta)) * grid.h_x
        assert drift <= 1e-12 * steps * np.max(np.abs(state.theta))

    def test_determinism_bitwise(self):
        grid = Grid(h_x=0.1, n_points=128)
        state, coeffs, _ = soliton_state(grid)
        p = SchemeParams(tau=2e-4)
        a, _ = advance(state, coeffs, grid, p, 0.05)
        b, _ = advance(state, coeffs, grid, p, 0.05)
        assert np.array_equal(a.theta, b.theta)

    def test_translation_equivariance_bitwise(self):
        grid = Grid(h_x=0.1, n_points=128)
        state, coeffs, _ = soliton_state(grid)
        shift = 17
        rolled = ModeState(0.0, np.roll(state.theta, shift, axis=1))
        p = SchemeParams(tau=2e-4)
        a, _ = advance(state, coeffs, grid, p, 0.02)
        b, _ = advance(rolled, coeffs, grid, p, 0.02)
        assert np.array_equal(np.roll(a.theta, shift, axis=1), b.theta)

    def test_linear_superposition_with_zero_g(self):
        grid = Grid(h_x=0.1, n_points=128)
        theta0 = np.sin(2 * np.pi * grid.x / grid.length)
        coeffs = single_mode_coefficients(0.7, 0.0001, 0.002)
        coeffs.g[0, 0, 0] = 0.0
        p = SchemeParams(tau=1e-4)
        one, _ = advance(ModeState(0.0, theta0[None, :]), coeffs, grid, p, 0.05)
        two, _ = advance(ModeState(0.0, 2.0 * theta0[None, :]), coeffs, grid,
                         p, 0.05)
        np.testing.assert_allclose(two.theta, 2.0 * one.theta, rtol=1e-13)

    def test_nonfinite_abort_carries_step(self):
        grid = Grid(h_x=0.05, n_points=128)
        state, coeffs, _ = soliton_state(grid)
        bad = SchemeParams(tau=0.05)  # far beyond stability
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError) as err:
            advance(state, coeffs, grid, bad, 10.0)
        assert err.value.step is not None and err.value.step >= 1
        assert err.value.last_state is not None
        assert np.all(np.isfinite(err.value.last_state.theta))

    def test_observers_called_at_intervals(self):
        # each step at most once, in increasing order: snapshot names by
        # step index rest on it
        grid = Grid(h_x=0.1, n_points=128)
        state, coeffs, _ = soliton_state(grid)
        for scheme in (TWO_STAGE, ONE_STAGE):
            for n_steps, every, expected in (
                    (10, 2, [0, 2, 4, 6, 8, 10]),
                    (10, 3, [0, 3, 6, 9, 10]),
                    (10, 0, [0, 10]),
                    (10, 25, [0, 10]),
                    (0, 2, [0])):
                seen = []
                _, report = advance(
                    state, coeffs, grid, SchemeParams(1e-4, scheme),
                    n_steps * 1e-4, observers=[lambda s, st: seen.append(s)],
                    observe_every=every)
                assert seen == expected, (scheme, n_steps, every)
                assert report.times == [j * 1e-4 for j in expected]

    def test_rejects_negative_observe_every(self):
        grid = Grid(h_x=0.05, n_points=64)
        state, coeffs, _ = soliton_state(grid)
        with pytest.raises(ValueError, match="observe_every"):
            advance(state, coeffs, grid, SchemeParams(tau=1e-4), 1e-3,
                    observe_every=-2)

    def test_mode_count_mismatch(self):
        grid = Grid(h_x=0.1, n_points=128)
        coeffs = single_mode_coefficients(1.0, 1.0, 1.0)
        state = ModeState(0.0, np.zeros((2, 128)))
        with pytest.raises(ValueError):
            advance(state, coeffs, grid, SchemeParams(tau=1e-4), 1e-3)


def dense_triad(g, theta, grid):
    """Reference triad term sum_{m,k} g^n_{m,k} theta^m D0 theta^k by the
    dense O(L^3 n) contraction."""
    d0 = (np.roll(theta, -1, axis=1) - np.roll(theta, 1, axis=1)) * (
        0.5 / grid.h_x)
    return np.einsum("nmk,mi,ki->ni", g, theta, d0)


# distinct mode numbers 1..24, odd and non-contiguous sets included
mode_sets = st.lists(st.integers(1, 24), min_size=2, max_size=12,
                     unique=True).map(tuple)


class TestTriadSum:
    @given(modes=mode_sets,
           method=st.sampled_from(["closed_form", "quadrature"]),
           sigma=st.sampled_from([1.0, -0.6, 2.5]),
           n_points=st.integers(8, 48),
           seed=st.integers(0, 2**32 - 1))
    def test_sparse_matches_dense_einsum(self, modes, method, sigma,
                                         n_points, seed):
        basis = build_constant_n_basis(Stratification(N=1.23, depth=0.25),
                                       modes)
        coeffs = build_coefficients(basis, sigma=sigma, method=method)
        L = len(modes)
        grid = Grid(h_x=0.5 / n_points, n_points=n_points)
        theta = np.random.default_rng(seed).standard_normal((L, n_points))
        # c = d = 0 leave the triad term alone in the one-stage increment,
        # in the form `_triad_in_z` picks: dense for a quadrature-built g
        bare = replace(coeffs, c=np.zeros(L), d=np.zeros(L))
        got = kernel_increment(theta, bare, grid, ONE_STAGE, 1.0)
        ref = dense_triad(coeffs.g, theta, grid)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    # (1, 2, 3): gcd 1 and 3M'/2 not an integer; (2, 4, 6, 8): gcd 2 and
    # 3M'/2 = 6; (3, 9, 12, 21): gcd 3 and 3M'/2 = 10.5
    @example(modes=(1, 2, 3), scale=1, sigma=1.0, n_points=8, seed=0)
    @example(modes=(2, 4, 6, 8), scale=1, sigma=-0.6, n_points=17, seed=1)
    @example(modes=(1, 3, 4, 7), scale=3, sigma=2.5, n_points=48, seed=2)
    @given(modes=mode_sets,
           scale=st.integers(1, 3),
           sigma=st.sampled_from([1.0, -0.6, 2.5]),
           n_points=st.integers(8, 48),
           seed=st.integers(0, 2**32 - 1))
    def test_z_form_matches_dense_einsum(self, modes, scale, sigma, n_points,
                                         seed):
        # the product in z, forced at any mode count, applies the
        # closed-form g exactly; `scale` multiplies every mode number, so
        # that the gcd q reduces both gcd-1 and gcd > 1 sets
        modes = tuple(scale * m for m in modes)
        basis = build_constant_n_basis(Stratification(N=1.23, depth=0.25),
                                       modes)
        coeffs = build_coefficients(basis, sigma=sigma)
        assume(coeffs.g.any())
        L = len(modes)
        grid = Grid(h_x=0.5 / n_points, n_points=n_points)
        theta = np.random.default_rng(seed).standard_normal((L, n_points))
        bare = replace(coeffs, c=np.zeros(L), d=np.zeros(L))
        in_z = solver._triad_in_z(coeffs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_triad_in_z", lambda coeffs: True)
            got = kernel_increment(theta, bare, grid, ONE_STAGE, 1.0)
        ref = dense_triad(coeffs.g, theta, grid)
        err = np.max(np.abs(got - ref))
        # the analysis cancels every pair off the resonance branches, so
        # the round-off scales with `size`, the same sums over absolute
        # values, which is far above max|ref| for a sparse resonance
        # (1.2e-13 of it at modes 3, 6, 42, 51, 60); on the mode sets the
        # rule itself puts in z it stays within 1e-14 of max|ref|
        synth_theta, synth_d1, analysis = solver._transform_matrices(
            modes, coeffs.triad_scale)
        d1 = np.roll(theta, -1, axis=1) - np.roll(theta, 1, axis=1)
        sampled = (np.abs(synth_theta) @ np.abs(theta)) * (
            np.abs(synth_d1) @ np.abs(d1))
        points = analysis.shape[1]
        size = (0.5 / grid.h_x) * np.abs(analysis) @ (sampled[:points]
                                                      + sampled[points:])
        assert err <= 1e-15 * np.max(size)
        if in_z:
            assert err <= 1e-14 * np.max(np.abs(ref))


class TestMassProperty:
    @given(n_points=st.integers(16, 128),
           h=st.floats(0.05, 0.5),
           c=st.floats(-1.0, 1.0),
           g=st.floats(-6.0, 6.0),
           d=st.floats(0.01, 1.0),
           steps=st.integers(1, 20),
           scheme=st.sampled_from([TWO_STAGE, ONE_STAGE]),
           seed=st.integers(0, 2**32 - 1))
    def test_random_periodic_state_conserves_mass(self, n_points, h, c, g, d,
                                                  steps, scheme, seed):
        grid = Grid(h_x=h, n_points=n_points)
        coeffs = single_mode_coefficients(c, g, d)
        theta = np.random.default_rng(seed).uniform(-1.0, 1.0, (1, n_points))
        # stay inside the linear policy and an advective CFL of 0.1
        tau = min(stable_tau(coeffs, grid, scheme, 1.0),
                  0.1 * h / max(abs(c) + abs(g), 1.0))
        peak = []
        final, report = advance(
            ModeState(0.0, theta), coeffs, grid, SchemeParams(tau, scheme),
            steps * tau, observe_every=1,
            observers=[lambda j, s: peak.append(np.max(np.abs(s.theta)))])
        assert report.steps == steps
        drift = abs(mass_per_mode(final, grid)[0]
                    - mass_per_mode(ModeState(0.0, theta), grid)[0])
        # each stage rounds every point once; the sums round once more
        bound = (8 * np.finfo(float).eps * (steps + 1) * n_points * h
                 * max(peak))
        assert drift <= bound


def bound_increment(pad, coeffs, grid, scheme, dt):
    """The padded increment dt rhs of the state in columns 2..n+1 of
    `pad`, from one stage bound on the kernel's zero-initialised first
    buffer as its base: it writes 0 - inc, which negates inc exactly."""
    pads, bind = _increment_kernel(coeffs, grid, scheme)
    bind(pad, pads[0], dt, pads[1])()
    return -pads[1]


def kernel_increment(theta, coeffs, grid, scheme, dt):
    """The in-place kernel's increment dt rhs of theta, as a new array."""
    L, n = theta.shape
    pad = np.empty((L, n + 4))
    pad[:, 2:n + 2] = theta
    return bound_increment(pad, coeffs, grid, scheme, dt)[:, 2:n + 2]


def reference_operands(theta, coeffs, grid, e):
    """The stage matrix K = [diag(c s0 - 2 e s3) | diag(e s3) | s0 T] and
    the stage rows S = [D1; D4; R] with fresh arrays for every
    intermediate, built from a padded copy, in the form
    `solver._triad_in_z` picks, as in the in-place kernel: T = g and R
    the pair rows theta^m D1 theta^k (dense), or T the analysis matrix
    and R = A'B - CD of the synthesised rows (product in z).  At g = 0
    only the first 2L columns of K and rows of S enter."""
    s0, s3 = 0.5 / grid.h_x, 0.5 / grid.h_x**3
    L, n = theta.shape
    pad = np.concatenate((theta[:, -2:], theta, theta[:, :2]), axis=1)
    diff1 = pad[:, 3:n + 3] - pad[:, 1:n + 1]
    diff4 = pad[:, 4:n + 4] - pad[:, 0:n]
    blocks = [np.diag(coeffs.c * s0 - 2.0 * e * s3), np.diag(e * s3)]
    rows = [diff1, diff4]
    if coeffs.g.any() and solver._triad_in_z(coeffs):
        synth_theta, synth_d1, analysis = solver._transform_matrices(
            coeffs.mode_indices, coeffs.triad_scale)
        sampled = (synth_theta @ theta) * (synth_d1 @ diff1)
        points = analysis.shape[1]
        blocks.append(s0 * analysis)
        rows.append(sampled[:points] - sampled[points:])
    elif coeffs.g.any():
        blocks.append(s0 * coeffs.g.reshape(L, L * L))
        rows.append((theta[:, None, :] * diff1[None, :, :]).reshape(L * L, n))
    return np.hstack(blocks), np.concatenate(rows)


def reference_increment(theta, coeffs, grid, e, dt):
    """dt times the right-hand side, as the in-place kernel forms it: the
    one product (dt K) S of `reference_operands`.  A single mode's
    kernel folds its base into that product (`reference_stage`); on a
    zero base it negates the increment exactly, and so it is taken
    here."""
    if theta.shape[0] == 1:
        return -reference_stage(np.zeros_like(theta), theta, coeffs, grid,
                                e, dt)
    stage, rows = reference_operands(theta, coeffs, grid, e)
    return (dt * stage) @ rows


def reference_stage(base, theta, coeffs, grid, e, dt):
    """base - dt rhs(theta), as the in-place kernel forms it:
    base - (dt K) S for several modes, and for a single mode the one
    product [1, -dt K[0]] . [base; S] over the padded width n + 4, the
    ghost columns of its rows 0, with its interior taken."""
    L, n = theta.shape
    if L > 1:
        return base - reference_increment(theta, coeffs, grid, e, dt)
    stage, rows = reference_operands(theta, coeffs, grid, e)
    operand = np.zeros((1 + rows.shape[0], n + 4))
    operand[0, 2:n + 2] = base
    operand[1:, 2:n + 2] = rows
    product = np.dot(np.concatenate(([1.0], -dt * stage[0])), operand)
    return product[None, 2:n + 2]


def reference_trajectory(theta, coeffs, grid, tau, scheme, steps):
    """theta after 0..steps steps, one stage at a time:
    theta <- stage(theta, stage(theta, theta, tau/2), tau) (two-stage)
    or theta <- stage(theta, theta, tau) (one-stage), stage(base, u, dt)
    the fused base - dt rhs(u) of `reference_stage`."""
    e = _dispersion_coefficient(coeffs, grid, scheme)
    out = [theta]
    for _ in range(steps):
        if scheme == TWO_STAGE:
            half = reference_stage(theta, theta, coeffs, grid, e, tau / 2.0)
            theta = reference_stage(theta, half, coeffs, grid, e, tau)
        else:
            theta = reference_stage(theta, theta, coeffs, grid, e, tau)
        out.append(theta)
    return out


def textbook_trajectory(theta, coeffs, grid, tau, scheme, steps):
    """theta after `steps` unfused steps theta - tau (c D0 theta
    + e D3 theta + sum g theta^m D0 theta^k), each difference quotient
    formed on its own and the triad term by the dense contraction."""
    h = grid.h_x
    e = _dispersion_coefficient(coeffs, grid, scheme)[:, None]
    c = coeffs.c[:, None]

    def rhs(u):
        def shift(s):
            return np.roll(u, -s, axis=1)
        d0 = (shift(1) - shift(-1)) / (2.0 * h)
        d3 = (shift(2) - 2.0 * shift(1) + 2.0 * shift(-1) - shift(-2)) / (
            2.0 * h**3)
        return c * d0 + e * d3 + dense_triad(coeffs.g, u, grid)

    for _ in range(steps):
        if scheme == TWO_STAGE:
            theta = theta - tau * rhs(theta - 0.5 * tau * rhs(theta))
        else:
            theta = theta - tau * rhs(theta)
    return theta


def finite_tau(coeffs, grid, scheme, theta):
    """A tau inside the linear policy and an advective CFL of 0.1."""
    speed = (np.max(np.abs(coeffs.c)) + np.max(np.abs(theta))
             * np.abs(coeffs.g).sum(axis=(1, 2)).max())
    return min(stable_tau(coeffs, grid, scheme, horizon=1.0),
               0.1 * grid.h_x / speed)


def tank_coefficients(modes):
    basis = build_constant_n_basis(Stratification(N=1.23, depth=0.25), modes)
    return build_coefficients(basis, method="closed_form")


# tank mode sets (g = 0 at one mode, the product in z at ten) and the
# single-mode KdV system (g = 6)
KERNEL_CASES = [(1,), (2,), (1, 2, 3), (1, 3, 4), tuple(range(2, 21, 2)),
                "kdv"]


def kernel_coefficients(case):
    if case == "kdv":
        return single_mode_coefficients(1.0, 6.0, 1.0)
    return tank_coefficients(case)


@pytest.mark.parametrize("form, modes", [
    ("linear", (2,)), ("dense", mcewan_default().modes),
    ("z", tuple(range(2, 21)))])
def test_bound_triad_call_writes_its_form_and_repeats(form, modes):
    coeffs = tank_coefficients(modes)
    assert (coeffs.g.any(), solver._triad_in_z(coeffs)) == (
        form != "linear", form == "z")
    n = 40
    block, bind = solver._triad_term(coeffs, n)
    rng = np.random.default_rng(7)
    theta, d = rng.standard_normal((2, coeffs.n_modes, n))
    r = np.full((max(block.shape[1], coeffs.n_modes), n), np.nan)
    call = bind(theta, d, r)
    call()
    first = r.copy()
    if form == "linear":
        assert block.shape == (coeffs.n_modes, 0)
        assert np.isnan(first).all()
    elif form == "dense":
        L = coeffs.n_modes
        assert (first.reshape(L, L, n).tobytes()
                == (theta[:, None] * d[None]).tobytes())
    else:
        synth_theta, synth_d1, analysis = solver._transform_matrices(
            coeffs.mode_indices, coeffs.triad_scale)
        sampled = (synth_theta @ theta) * (synth_d1 @ d)
        points = analysis.shape[1]
        ref = sampled[:points] - sampled[points:]
        assert (np.max(np.abs(first - ref))
                <= 1e-15 * np.max(np.abs(first)))
    call()
    assert r.tobytes() == first.tobytes()


class TestInPlaceKernel:
    # the single-mode stage is one gemv on rows exactly n wide, whose
    # bits depend on n: pin it at the studies' widths as well
    @example(case="kdv", scheme=TWO_STAGE, n_points=97, steps=3,
             observe_every=2, seed=0)
    @example(case="kdv", scheme=TWO_STAGE, n_points=120, steps=3,
             observe_every=2, seed=1)
    @example(case="kdv", scheme=TWO_STAGE, n_points=300, steps=3,
             observe_every=2, seed=2)
    @example(case="kdv", scheme=TWO_STAGE, n_points=1024, steps=3,
             observe_every=2, seed=3)
    @example(case="kdv", scheme=ONE_STAGE, n_points=97, steps=3,
             observe_every=2, seed=0)
    @example(case="kdv", scheme=ONE_STAGE, n_points=120, steps=3,
             observe_every=2, seed=1)
    @example(case="kdv", scheme=ONE_STAGE, n_points=300, steps=3,
             observe_every=2, seed=2)
    @example(case="kdv", scheme=ONE_STAGE, n_points=1024, steps=3,
             observe_every=2, seed=3)
    @example(case=(1,), scheme=TWO_STAGE, n_points=97, steps=3,
             observe_every=2, seed=0)
    @example(case=(1,), scheme=TWO_STAGE, n_points=120, steps=3,
             observe_every=2, seed=1)
    @example(case=(1,), scheme=TWO_STAGE, n_points=300, steps=3,
             observe_every=2, seed=2)
    @example(case=(1,), scheme=TWO_STAGE, n_points=1024, steps=3,
             observe_every=2, seed=3)
    @example(case=(1,), scheme=ONE_STAGE, n_points=97, steps=3,
             observe_every=2, seed=0)
    @example(case=(1,), scheme=ONE_STAGE, n_points=120, steps=3,
             observe_every=2, seed=1)
    @example(case=(1,), scheme=ONE_STAGE, n_points=300, steps=3,
             observe_every=2, seed=2)
    @example(case=(1,), scheme=ONE_STAGE, n_points=1024, steps=3,
             observe_every=2, seed=3)
    @given(case=st.sampled_from(KERNEL_CASES),
           scheme=st.sampled_from([TWO_STAGE, ONE_STAGE]),
           n_points=st.integers(8, 64),
           steps=st.integers(1, 30),
           observe_every=st.integers(0, 7),
           seed=st.integers(0, 2**32 - 1))
    def test_bit_identical_to_per_stage_reference(self, case, scheme,
                                                  n_points, steps,
                                                  observe_every, seed):
        coeffs = kernel_coefficients(case)
        grid = Grid(h_x=0.5 / n_points, n_points=n_points)
        theta = np.random.default_rng(seed).standard_normal(
            (coeffs.n_modes, n_points))
        tau = finite_tau(coeffs, grid, scheme, theta)
        seen = {}
        final, report = advance(
            ModeState(0.0, theta), coeffs, grid, SchemeParams(tau, scheme),
            steps * tau, observe_every=observe_every,
            observers=[lambda j, s: seen.setdefault(j, s.theta)])
        ref = reference_trajectory(theta, coeffs, grid, tau, scheme, steps)
        assert report.steps == steps
        assert final.theta.tobytes() == ref[steps].tobytes()
        for j, snap in seen.items():
            assert snap.tobytes() == ref[j].tobytes()
        # the dt = 1 increment the triad test reads is the same arithmetic
        e = _dispersion_coefficient(coeffs, grid, scheme)
        assert (kernel_increment(theta, coeffs, grid, scheme, 1.0).tobytes()
                == reference_increment(theta, coeffs, grid, e, 1.0).tobytes())

    @pytest.mark.parametrize("scheme", [TWO_STAGE, ONE_STAGE])
    def test_zero_rows_keep_their_bytes(self, scheme):
        # a linear set (sigma = 0) never feeds its zero mode row, which
        # stays exact zeros: the bytes see the sign of each zero, which
        # FMT writes and array_equal ignores
        coeffs = build_coefficients(build_constant_n_basis(
            Stratification(N=1.23, depth=0.25), (2, 4, 6)), sigma=0.0)
        assert not coeffs.g.any()
        n, steps = 32, 25
        grid = Grid(h_x=0.5 / n, n_points=n)
        theta = np.random.default_rng(5).standard_normal((3, n))
        theta[1] = 0.0
        tau = finite_tau(coeffs, grid, scheme, theta)
        seen = {}
        final, _ = advance(
            ModeState(0.0, theta), coeffs, grid, SchemeParams(tau, scheme),
            steps * tau, observe_every=4,
            observers=[lambda j, s: seen.setdefault(j, s.theta)])
        ref = reference_trajectory(theta, coeffs, grid, tau, scheme, steps)
        assert not ref[steps][1].any()
        assert final.theta.tobytes() == ref[steps].tobytes()
        for j, snap in seen.items():
            assert snap.tobytes() == ref[j].tobytes()

    @given(case=st.sampled_from(KERNEL_CASES),
           scheme=st.sampled_from([TWO_STAGE, ONE_STAGE]),
           n_points=st.integers(8, 64),
           steps=st.integers(1, 30),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_unfused_textbook_step_to_roundoff(self, case, scheme,
                                                       n_points, steps, seed):
        # folding tau, the stencil scales and the coefficients into one
        # stage matrix reorders the float arithmetic but not the scheme
        coeffs = kernel_coefficients(case)
        grid = Grid(h_x=0.5 / n_points, n_points=n_points)
        theta = np.random.default_rng(seed).standard_normal(
            (coeffs.n_modes, n_points))
        tau = finite_tau(coeffs, grid, scheme, theta)
        final, _ = advance(ModeState(0.0, theta), coeffs, grid,
                           SchemeParams(tau, scheme), steps * tau)
        ref = textbook_trajectory(theta, coeffs, grid, tau, scheme, steps)
        assert (np.max(np.abs(final.theta - ref))
                <= 1e-12 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("scheme", [TWO_STAGE, ONE_STAGE])
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_stage_reads_no_ghost_column_before_refreshing_it(self, case,
                                                              scheme):
        # every pass of a stage runs over whole padded rows, so the ghost
        # columns of S hold junk, and from L = 2 on those of the stage's
        # destination too; with the input's ghost columns NaN, a pass
        # that read one before the stage refreshed it would carry NaN
        # into the interior
        coeffs = kernel_coefficients(case)
        L, n = coeffs.n_modes, 16
        grid = Grid(h_x=0.5 / n, n_points=n)
        theta = np.random.default_rng(3).standard_normal((L, n))
        e = _dispersion_coefficient(coeffs, grid, scheme)
        dt = finite_tau(coeffs, grid, scheme, theta)
        pad = np.full((L, n + 4), np.nan)
        pad[:, 2:n + 2] = theta
        with np.errstate(all="raise"):
            padded = bound_increment(pad, coeffs, grid, scheme, dt)
        assert np.array_equal(
            padded[:, 2:n + 2],
            reference_increment(theta, coeffs, grid, e, dt))
        assert np.isfinite(padded).all()

    def test_two_stage_work_buffers_are_shared(self):
        # each state buffer heads its own operand [state; S], and both
        # stages of a step read the S of the buffer the step starts from;
        # they share one set of the product in z's work buffers, the two
        # (2(P + 1), n + 4) sampled rows.  The two S and one set of rows
        # come to 1.36 `work`; a set of rows for each stage would take
        # the peak past 1.5 `work` and the eight state-sized arrays
        L, n = 32, 256
        coeffs = tank_coefficients(tuple(range(2, 2 * L + 1, 2)))
        assert solver._triad_in_z(coeffs)
        _, P = solver._transform_grid(coeffs.mode_indices)
        work = (2 * L + P + 1) * (n + 4) + 4 * (P + 1) * (n + 4)
        grid = Grid(h_x=0.5 / n, n_points=n)
        x = 2.0 * np.pi * np.arange(n) / n
        state = ModeState(0.0, 1e-3 * np.sin(np.arange(1, L + 1)[:, None] * x))
        params = SchemeParams(1e-9)
        advance(state, coeffs, grid, params, 2 * params.tau)   # warm imports
        tracemalloc.start()
        try:
            advance(state, coeffs, grid, params, 2 * params.tau)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (1.5 * work + 8 * L * (n + 4)) * 8

    def test_no_buffer_aliasing(self):
        # snapshots and the returned state are copies, never views of the
        # buffers the kernel goes on writing.  The state alternates
        # between two buffers, so the single mode's odd interval and odd
        # step count take snapshots, and the result, from both
        grid = Grid(h_x=0.5 / 32, n_points=32)
        x = 2.0 * np.pi * np.arange(32) / 32
        cases = [
            ((1, 2, 3), [np.sin(x), 0.5 * np.cos(2 * x), 0.2 * np.sin(3 * x)],
             60, 250, [0, 60, 120, 180, 240, 250]),
            ("kdv", [np.sin(x)], 61, 251, [0, 61, 122, 183, 244, 251])]
        for case, rows, every, steps, expected in cases:
            coeffs = kernel_coefficients(case)
            theta = np.array(rows)
            state = ModeState(0.0, theta.copy())
            params = SchemeParams(finite_tau(coeffs, grid, TWO_STAGE, theta))
            kept = []
            final, _ = advance(state, coeffs, grid, params,
                               steps * params.tau,
                               observers=[lambda j, s: kept.append((j, s))],
                               observe_every=every)
            assert [j for j, _ in kept] == expected
            assert np.array_equal(state.theta, theta)
            for j, snap in kept:
                alone, _ = advance(state, coeffs, grid, params,
                                   j * params.tau)
                assert np.array_equal(snap.theta, alone.theta)
                assert snap.time == alone.time
                assert not np.shares_memory(snap.theta, final.theta)
            for (_, a), (_, b) in zip(kept, kept[1:]):
                assert not np.shares_memory(a.theta, b.theta)
                assert not np.array_equal(a.theta, b.theta)
            assert np.array_equal(final.theta, kept[-1][1].theta)

    @pytest.mark.parametrize("scheme", [TWO_STAGE, ONE_STAGE])
    def test_single_mode_tracks_the_textbook_step_over_a_long_horizon(
            self, scheme):
        # 1001 steps, an odd count, end in the second of the alternating
        # buffers, each step read from ghost columns refreshed in its own
        # buffer.  The state moves by 0.93 (two-stage) and 0.11
        # (one-stage) of max|theta|, so a stale ghost column or a lost
        # last step would read some 1e-4 of it away; the fold into one
        # gemv reads 3.5e-15 and 4.1e-15
        coeffs = kernel_coefficients("kdv")
        n, steps = 16, 1001
        grid = Grid(h_x=0.5 / n, n_points=n)
        theta = np.random.default_rng(11).standard_normal((1, n))
        tau = finite_tau(coeffs, grid, scheme, theta)
        final, report = advance(ModeState(0.0, theta), coeffs, grid,
                                SchemeParams(tau, scheme), steps * tau)
        ref = textbook_trajectory(theta, coeffs, grid, tau, scheme, steps)
        assert report.steps == steps
        assert (np.max(np.abs(final.theta - ref))
                <= 1e-13 * np.max(np.abs(ref)))


@pytest.fixture(scope="module")
def mcewan_tank():
    cfg = mcewan_default()
    basis = cfg.basis()
    coeffs = build_coefficients(basis, sigma=cfg.sigma, beta2=cfg.beta2)
    state, _ = build_initial_state(cfg, basis)
    return cfg, coeffs, state


def test_z_form_tracks_the_dense_trajectory(mcewan_tank, monkeypatch):
    # the five-mode tank applies g as the dense pair rows; forced into the
    # product in z, which sums in another order, the run stays within
    # round-off of it over 500 steps
    cfg, coeffs, state = mcewan_tank
    t_end = state.time + 500 * cfg.scheme.tau
    assert not solver._triad_in_z(coeffs)
    dense, report = advance(state, coeffs, cfg.grid, cfg.scheme, t_end)
    monkeypatch.setattr(solver, "_triad_in_z", lambda coeffs: True)
    in_z, _ = advance(state, coeffs, cfg.grid, cfg.scheme, t_end)
    assert report.steps == 500
    assert (np.max(np.abs(in_z.theta - dense.theta))
            <= 1e-13 * np.max(np.abs(dense.theta)))


@pytest.mark.parametrize("form, modes", [
    ("dense", mcewan_default().modes), ("dense", (2, 4)),
    ("z", tuple(range(2, 21, 2)))],
    ids=["dense", "dense-L2", "z"])
def test_several_modes_keep_the_per_stage_bits_over_a_long_horizon(form,
                                                                   modes):
    # from L = 2 on a stage leaves junk in its destination's ghost
    # columns, a different junk every step, and the next stage must
    # refresh them before any pass reads them.  1001 two-stage steps of
    # the McEwan tank, an odd count that ends in the second buffer,
    # equal the per-stage reference bit for bit
    cfg = replace(mcewan_default(), modes=modes)
    basis = cfg.basis()
    coeffs = build_coefficients(basis, sigma=cfg.sigma, beta2=cfg.beta2)
    assert solver._triad_in_z(coeffs) == (form == "z")
    state, _ = build_initial_state(cfg, basis)
    tau, steps = cfg.scheme.tau, 1001
    final, report = advance(state, coeffs, cfg.grid, cfg.scheme,
                            state.time + steps * tau)
    ref = reference_trajectory(state.theta, coeffs, cfg.grid, tau,
                               TWO_STAGE, steps)
    assert report.steps == steps
    assert final.theta.tobytes() == ref[steps].tobytes()


def test_mcewan_tank_lies_on_its_semi_discrete_limit(mcewan_tank):
    # the periodic paddle leaves no grid-scale tail for the stages to
    # amplify: at T = 0.02 (500 steps of tau, landing on T) the default
    # run reads 6.0e-10 from the tau -> 0 limit, 2.25e-3 with phi1 itself
    cfg, coeffs, state = mcewan_tank
    final, report = advance(state, coeffs, cfg.grid, cfg.scheme, 0.02)
    limit = semi_discrete_limit(state, coeffs, cfg.grid, cfg.scheme.scheme,
                                0.02)
    assert report.steps == 500 and final.time == limit.time == 0.02
    rel = (np.max(np.abs(final.theta - limit.theta), axis=1)
           / np.max(np.abs(limit.theta), axis=1))
    assert np.max(rel) <= 1e-8


def textbook_limit(state, coeffs, grid, scheme, t_end):
    """semi_discrete_limit as plain expressions, with a fresh array for
    every intermediate: the dense triad term and the ETDRK4 step of Cox &
    Matthews, step-doubled from `_LIMIT_MIN_STEPS` until two results
    agree within LIMIT_RTOL of max|theta|."""
    L, n = state.theta.shape
    h = grid.h_x
    kh = 2.0 * np.pi * np.arange(n // 2 + 1) / n
    sym0 = 1j * np.sin(kh) / h
    sym3 = 1j * (np.sin(2.0 * kh) - 2.0 * np.sin(kh)) / h**3
    e = _dispersion_coefficient(coeffs, grid, scheme)
    lin = -(coeffs.c[:, None] * sym0 + e[:, None] * sym3)
    triad = coeffs.g.reshape(L, L * L)

    def triad_term(v):
        theta, d0 = np.fft.irfft(np.stack((v, sym0 * v)), n)
        return np.fft.rfft(triad @ (theta[:, None, :] * d0[None, :, :])
                           .reshape(L * L, n))

    def solve(n_steps):
        tau = (t_end - state.time) / n_steps
        E, E2, q, f1, f2, f3 = solver._phi_weights(tau * lin)
        w = -tau
        q, f1, f2, f3 = w * q, w * f1, 2.0 * w * f2, w * f3
        v = np.fft.rfft(state.theta)
        for _ in range(n_steps):
            nv = triad_term(v)
            e2v = E2 * v
            a = e2v + q * nv
            na = triad_term(a)
            nb = triad_term(e2v + q * na)
            nc = triad_term(E2 * a + q * (2.0 * nb - nv))
            v = E * v + f1 * nv + f2 * (na + nb) + f3 * nc
        return np.fft.irfft(v, n)

    n_steps, coarse = solver._LIMIT_MIN_STEPS, None
    while True:
        fine = solve(n_steps)
        if (coarse is not None and np.max(np.abs(fine - coarse))
                <= solver.LIMIT_RTOL * np.max(np.abs(fine))):
            return fine
        coarse, n_steps = fine, 2 * n_steps


def limit_cases():
    """(state, coeffs, grid, scheme, t_end) of the temporal study (L = 1),
    the travelling pair under both schemes (L = 2) and the McEwan tank
    (L = 5)."""
    orc = verification._unit_width_soliton(amplitude=1.0, g=1.2, speed=30.0)
    grid = orc.grid(10)
    yield (orc.state(grid, 0.0), orc.coeffs, grid, ONE_STAGE,
           5 * orc.width / abs(orc.speed))
    wave = build_traveling_pair()
    grid = wave.grid(8)
    for scheme in (TWO_STAGE, ONE_STAGE):
        yield wave.state(grid, 0.0), wave.coeffs, grid, scheme, 0.5
    cfg = mcewan_default()
    basis = cfg.basis()
    coeffs = build_coefficients(basis, sigma=cfg.sigma, beta2=cfg.beta2)
    state, _ = build_initial_state(cfg, basis)
    yield state, coeffs, cfg.grid, cfg.scheme.scheme, 0.02


@pytest.mark.parametrize("case", list(limit_cases()),
                         ids=["temporal-L1", "pair-two-stage",
                              "pair-one-stage", "mcewan-L5"])
def test_limit_keeps_the_bits_of_the_textbook_step(case):
    # the buffered step applies every ufunc of the expressions above to
    # the same operands in the same order, so the dense form agrees bit
    # for bit
    state, coeffs, grid, scheme, t_end = case
    assert not solver._triad_in_z(coeffs)
    limit = semi_discrete_limit(state, coeffs, grid, scheme, t_end)
    assert (limit.theta.tobytes()
            == textbook_limit(state, coeffs, grid, scheme, t_end).tobytes())


def test_limit_in_z_tracks_the_dense_limit(monkeypatch):
    # modes 2..20 of the periodic McEwan tank take the product in z by
    # the stepper's rule; forced dense, the limit sums in another order,
    # so its bits differ, and agrees to round-off (1.3e-16 of max|theta|
    # when measured)
    cfg = replace(mcewan_default(), modes=tuple(range(2, 21, 2)))
    basis = cfg.basis()
    coeffs = build_coefficients(basis, sigma=cfg.sigma, beta2=cfg.beta2)
    state, _ = build_initial_state(cfg, basis)
    assert cfg.grid.n_points == 256 and solver._triad_in_z(coeffs)
    in_z = semi_discrete_limit(state, coeffs, cfg.grid, cfg.scheme.scheme, 0.2)
    monkeypatch.setattr(solver, "_triad_in_z", lambda coeffs: False)
    dense = semi_discrete_limit(state, coeffs, cfg.grid, cfg.scheme.scheme,
                                0.2)
    assert not np.array_equal(in_z.theta, dense.theta)
    assert (np.max(np.abs(in_z.theta - dense.theta))
            <= 1e-14 * np.max(np.abs(dense.theta)))


@pytest.mark.parametrize("scheme", [TWO_STAGE, ONE_STAGE])
def test_limit_of_a_linear_system_is_its_exact_exponential(scheme):
    # one tank mode has g = 0, so the limit has no triad term and its
    # ETDRK4 step is the exact exponential of the linear symbols (7.8e-16
    # of max|theta| when measured)
    cfg = replace(mcewan_default(), modes=(2,))
    basis = cfg.basis()
    coeffs = build_coefficients(basis, sigma=cfg.sigma, beta2=cfg.beta2)
    assert not coeffs.g.any()
    state, _ = build_initial_state(cfg, basis)
    limit = semi_discrete_limit(state, coeffs, cfg.grid, scheme, 0.02)
    n, h = cfg.grid.n_points, cfg.grid.h_x
    kh = 2.0 * np.pi * np.arange(n // 2 + 1) / n
    sym0 = 1j * np.sin(kh) / h
    sym3 = 1j * (np.sin(2.0 * kh) - 2.0 * np.sin(kh)) / h**3
    e = _dispersion_coefficient(coeffs, cfg.grid, scheme)
    lin = -(coeffs.c[:, None] * sym0 + e[:, None] * sym3)
    exact = np.fft.irfft(np.exp(0.02 * lin) * np.fft.rfft(state.theta), n)
    assert (np.max(np.abs(limit.theta - exact))
            <= 1e-13 * np.max(np.abs(exact)))


def test_limit_at_odd_n_keeps_the_bits_of_the_textbook_step():
    # the travelling pair on a 97-point ring: an odd n takes rfft_n_odd
    wave = build_traveling_pair()
    grid = Grid(h_x=wave.domain / 97, n_points=97)
    state = wave.state(grid, 0.0)
    limit = semi_discrete_limit(state, wave.coeffs, grid, TWO_STAGE, 0.5)
    assert limit.theta.tobytes() == textbook_limit(
        state, wave.coeffs, grid, TWO_STAGE, 0.5).tobytes()


@given(n=st.integers(8, 300), L=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
@example(n=9, L=1, seed=0)
@example(n=127, L=4, seed=1)
def test_limit_transforms_are_numpy_fft_bit_for_bit(n, L, seed):
    rfft, irfft, inverse = solver._real_transforms(n)
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((L, n))
    stack = (rng.standard_normal((2, L, n // 2 + 1))
             + 1j * rng.standard_normal((2, L, n // 2 + 1)))
    spectra = np.empty((L, n // 2 + 1), dtype=complex)
    real = np.empty((2, L, n))
    rfft(rows, 1.0, spectra)
    irfft(stack, inverse, real)
    assert spectra.tobytes() == np.fft.rfft(rows).tobytes()
    assert real.tobytes() == np.fft.irfft(stack, n).tobytes()


class TestExactAbort:
    """Finiteness is checked only every `_FINITE_CHECK_EVERY` steps; a
    failed check replays from the last checkpoint to the exact stage."""

    def test_mcewan_abort_between_checks(self, mcewan_tank):
        # the default tank goes non-finite near step 4427; round-off sets
        # the exact step (summing the paddle in other orders gave 4416 and
        # 4477), so the run that checks after every step sets the answer
        cfg, coeffs, state = mcewan_tank
        tau, t_end = cfg.scheme.tau, state.time + 4500 * cfg.scheme.tau
        with pytest.raises(NonFiniteError) as every_step:
            advance(state, coeffs, cfg.grid, cfg.scheme, t_end,
                    observe_every=1)
        with pytest.raises(NonFiniteError) as err:
            advance(state, coeffs, cfg.grid, cfg.scheme, t_end)
        step = every_step.value.step
        assert step % _FINITE_CHECK_EVERY != 0
        assert err.value.step == step
        assert str(err.value.__cause__) == str(every_step.value.__cause__)
        last = err.value.last_state
        assert last.time == every_step.value.last_state.time
        assert np.array_equal(last.theta, every_step.value.last_state.theta)
        assert last.time == state.time + (step - 1) * tau
        before, report = advance(state, coeffs, cfg.grid, cfg.scheme,
                                 state.time + (step - 1) * tau)
        assert report.steps == step - 1
        assert np.array_equal(last.theta, before.theta)

    def test_half_stage_abort_off_the_check_grid(self):
        # a linear (g = 0) grid-scale wave of amplitude 3 at tau far beyond
        # stable_tau overflows first in the half stage of step 589
        grid = Grid(h_x=1.0, n_points=16)
        coeffs = single_mode_coefficients(1.0, 6.0, 1.0)
        coeffs.g[0, 0, 0] = 0.0
        state = ModeState(0.0,
                          3.0 * np.cos(np.pi * np.arange(16) / 2)[None, :])
        params = SchemeParams(tau=2.0)
        seen = []
        with pytest.raises(NonFiniteError) as err:
            advance(state, coeffs, grid, params, 1000 * params.tau,
                    observers=[lambda j, s: seen.append(
                        (j, bool(np.isfinite(s.theta).all())))],
                    observe_every=7)
        assert err.value.step == 589
        assert 589 % _FINITE_CHECK_EVERY != 0
        assert "half step" in str(err.value.__cause__)
        # observers saw only finite states, up to the last one (588 = 84 * 7)
        assert seen == [(j, True) for j in range(0, 589, 7)]
        before, _ = advance(state, coeffs, grid, params, 588 * params.tau)
        assert np.array_equal(err.value.last_state.theta, before.theta)
        assert err.value.last_state.time == before.time


class TestSemiDiscreteLimit:
    """The verified tau -> 0 limit of each scheme's finite-difference
    system, on the coupled travelling pair (L = 2, n = 96)."""

    HORIZON = 0.5

    @pytest.fixture(scope="class")
    def pair(self):
        wave = build_traveling_pair()
        return wave, wave.grid(8)

    def test_two_stage_converges_to_it_at_second_order(self, pair):
        wave, grid = pair
        limit = semi_discrete_limit(wave.state(grid, 0.0), wave.coeffs, grid,
                                    TWO_STAGE, self.HORIZON)
        assert limit.time == self.HORIZON
        tau = stable_tau(wave.coeffs, grid, TWO_STAGE, self.HORIZON)
        (coarse, r1), (fine, r2) = [
            advance(wave.state(grid, 0.0), wave.coeffs, grid,
                    SchemeParams(tau / div, TWO_STAGE), self.HORIZON)
            for div in (4, 16)]
        n1, n2 = r1.steps, r2.steps
        e1 = discrete_l2_norm(coarse, limit, grid)
        e2 = discrete_l2_norm(fine, limit, grid)
        assert e2 < 1e-6
        assert 1.9 <= math.log(e1 / e2) / math.log(n2 / n1) <= 2.1

    def test_one_stage_converges_to_it_at_first_order(self, pair):
        # a quarter of stable_tau keeps the growth the policy budgets at
        # stable_tau out of the first-order error
        wave, grid = pair
        limit = semi_discrete_limit(wave.state(grid, 0.0), wave.coeffs, grid,
                                    ONE_STAGE, self.HORIZON)
        tau = stable_tau(wave.coeffs, grid, ONE_STAGE, self.HORIZON) / 4
        (coarse, r1), (fine, r2) = [
            advance(wave.state(grid, 0.0), wave.coeffs, grid,
                    SchemeParams(t, ONE_STAGE), self.HORIZON)
            for t in (tau, tau / 2)]
        n1, n2 = r1.steps, r2.steps
        e1 = discrete_l2_norm(coarse, limit, grid)
        e2 = discrete_l2_norm(fine, limit, grid)
        assert 0.95 <= math.log(e1 / e2) / math.log(n2 / n1) <= 1.05

    def test_conserves_mass(self, pair):
        wave, grid = pair
        start = wave.state(grid, 0.0)
        limit = semi_discrete_limit(start, wave.coeffs, grid, TWO_STAGE,
                                    self.HORIZON)
        drift = mass_per_mode(limit, grid) - mass_per_mode(start, grid)
        assert np.max(np.abs(drift)) <= 1e-12

    def test_refuses_a_limit_that_does_not_settle(self, monkeypatch):
        grid = Grid(h_x=0.5, n_points=16)
        coeffs = single_mode_coefficients(1.0, 6.0, 1.0)
        state = ModeState(0.0, np.cos(2 * np.pi * np.arange(16) / 16)[None, :])
        monkeypatch.setattr(solver, "LIMIT_RTOL", 0.0)
        with pytest.raises(RuntimeError, match="did not settle"):
            semi_discrete_limit(state, coeffs, grid, TWO_STAGE, 0.1)

    def test_names_the_tolerance_of_the_call(self):
        grid = Grid(h_x=0.5, n_points=16)
        coeffs = single_mode_coefficients(1.0, 6.0, 1.0)
        state = ModeState(0.0, np.cos(2 * np.pi * np.arange(16) / 16)[None, :])
        with pytest.raises(RuntimeError, match=r"did not settle to 0e\+00 by"):
            semi_discrete_limit(state, coeffs, grid, TWO_STAGE, 0.1, rtol=0.0)

    def test_refines_past_a_coarse_level_that_overflows(self, monkeypatch):
        # a small wave on the uniform current theta = 1: the triad term
        # carries the advection g theta D0 explicitly, so at 32 steps
        # (tau = 4) the grid-scale symbol tau g max|theta| / h = 4 lies
        # past ETDRK4's stability bound and the level overflows; from 64
        # steps the levels are finite, and the limit settles at 1024
        grid = Grid(h_x=1.0, n_points=32)
        coeffs = single_mode_coefficients(0.0, 1.0, 0.01)
        state = ModeState(
            0.0, 1.0 + 1e-3 * np.cos(2 * np.pi * np.arange(32) / 32)[None, :])
        limit = semi_discrete_limit(state, coeffs, grid, TWO_STAGE, 128.0)
        monkeypatch.setattr(solver, "_LIMIT_MAX_STEPS", 32)
        with pytest.raises(NonFiniteError, match="non-finite at 32 steps"):
            semi_discrete_limit(state, coeffs, grid, TWO_STAGE, 128.0)
        monkeypatch.setattr(solver, "_LIMIT_MIN_STEPS", 64)
        monkeypatch.setattr(solver, "_LIMIT_MAX_STEPS", 512)
        with pytest.raises(RuntimeError, match="did not settle"):
            semi_discrete_limit(state, coeffs, grid, TWO_STAGE, 128.0)
        # doubled from the first finite level, the same levels settle on
        # the same bits
        monkeypatch.setattr(solver, "_LIMIT_MAX_STEPS", 1024)
        from_finite = semi_discrete_limit(state, coeffs, grid, TWO_STAGE,
                                          128.0)
        assert np.array_equal(limit.theta, from_finite.theta)

    def test_refuses_a_non_finite_limit(self):
        grid = Grid(h_x=0.5, n_points=16)
        coeffs = single_mode_coefficients(1.0, 6.0, 1.0)
        theta = np.zeros((1, 16))
        theta[0, 3] = np.nan
        with pytest.raises(NonFiniteError, match="non-finite"):
            semi_discrete_limit(ModeState(0.0, theta), coeffs, grid,
                                TWO_STAGE, 0.1)
