from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from wavetank import solver, verification
from wavetank.solver import (
    Grid,
    ModeState,
    RunReport,
    SchemeParams,
    TWO_STAGE,
    advance,
    discrete_l2_norm,
    semi_discrete_limit,
    stable_tau,
    step_count,
)
from wavetank.verification import (
    build_traveling_pair,
    canonical_pulse_strength,
    conservation_audit,
    fission_census,
    fit_order,
    kdv_soliton_oracle,
    measure_spatial_convergence,
    measure_temporal_convergence,
    scattering_bound_states,
    single_mode_coefficients,
    stability_probe,
    _unit_width_soliton,
)


class TestSolitonOracle:
    def test_residual_verified_on_construction(self):
        orc = kdv_soliton_oracle(c=1.0, g=6.0, d=1.0, amplitude=2.0)
        assert orc.residual_relative <= 1e-9
        assert np.isfinite(orc.residual)

    def test_speed_and_width(self):
        orc = kdv_soliton_oracle(c=1.0, g=6.0, d=1.0, amplitude=2.0)
        assert orc.speed == pytest.approx(1.0 + 4.0)
        assert orc.width == pytest.approx(1.0)

    def test_speed_tends_to_c_with_amplitude(self):
        speeds = [
            kdv_soliton_oracle(0.7, 6.0, 1.0, a).speed
            for a in (1.0, 0.1, 0.001)
        ]
        assert abs(speeds[-1] - 0.7) < abs(speeds[0] - 0.7)
        assert speeds[-1] == pytest.approx(0.7, abs=1e-2)

    def test_quadrupled_amplitude_halves_width(self):
        w1 = kdv_soliton_oracle(0.0, 6.0, 1.0, 1.0).width
        w4 = kdv_soliton_oracle(0.0, 6.0, 1.0, 4.0).width
        assert w4 == pytest.approx(w1 / 2.0, rel=1e-12)

    @pytest.mark.parametrize("c,g,d,a", [
        (1.0, 0.0, 1.0, 1.0),      # zero g
        (1.0, 6.0, -1.0, 1.0),     # negative d
        (1.0, 6.0, 1.0, -1.0),     # A g < 0
    ])
    def test_parameter_validation(self, c, g, d, a):
        with pytest.raises(ValueError):
            kdv_soliton_oracle(c, g, d, a)

    def test_periodic_wrap(self):
        orc = kdv_soliton_oracle(1.0, 6.0, 1.0, 2.0, x0=5.0, domain=10.0)
        x = np.linspace(0, 10, 101)
        np.testing.assert_allclose(orc(x, 0.0), orc(x + 10.0, 0.0), rtol=1e-12)

    def test_values_are_amplitude_times_sech2(self):
        # the studies pin their bytes to A / cosh^2, which A * (1 / cosh^2)
        # equals exactly for the power-of-two amplitudes they use
        for a in (1.0, 2.0):
            orc = kdv_soliton_oracle(1.0, 6.0, 1.0, a, x0=5.0, domain=10.0)
            x = np.linspace(0, 10, 101)
            theta = orc(x, 0.3)
            assert theta.shape == (1, 101)
            xi = np.mod(x - 5.0 - orc.speed * 0.3 + 5.0, 10.0) - 5.0
            assert np.array_equal(theta[0], a / np.cosh(xi / orc.width) ** 2)


def _scaled(wave, field):
    """wave with its speed, width or first amplitude scaled by 1.001."""
    if field == "amplitude":
        amplitudes = wave.amplitudes.copy()
        amplitudes[0] *= 1.001
        return replace(wave, amplitudes=amplitudes)
    return replace(wave, **{field: getattr(wave, field) * 1.001})


WAVES = {
    "soliton": lambda: kdv_soliton_oracle(1.0, 6.0, 1.0, 2.0),
    "pair": build_traveling_pair,
}


# the spatial and temporal studies' solitons, by (amplitude, g, speed)
STUDY_SOLITONS = {"spatial": (2.0, 0.37, 20.0), "temporal": (1.0, 1.2, 30.0)}


class TestResidualCheck:
    @pytest.mark.parametrize("name", sorted(WAVES) + sorted(STUDY_SOLITONS))
    def test_exact_wave_residual_is_round_off(self, name):
        wave = (WAVES[name]() if name in WAVES
                else _unit_width_soliton(*STUDY_SOLITONS[name]))
        assert wave.residual_relative <= 1e-13

    @pytest.mark.parametrize("field", ["speed", "width", "amplitude"])
    @pytest.mark.parametrize("name", sorted(WAVES))
    def test_wrong_wave_is_refused(self, name, field):
        wave = WAVES[name]()
        assert wave.verified().residual_relative <= 1e-9
        with pytest.raises(RuntimeError, match="refusing to use it as a yardstick"):
            _scaled(wave, field).verified()


class TestConvergence:
    def test_self_comparison_is_zero(self):
        # the oracle sampled as its own numerical input
        orc = kdv_soliton_oracle(c=1.0, g=6.0, d=1.0, amplitude=2.0,
                                 x0=6.0, domain=12.0)
        grid = orc.grid(16)
        a = orc.state(grid, 0.3)
        b = orc.state(grid, 0.3)
        from wavetank.solver import discrete_l2_norm
        assert discrete_l2_norm(a, b, grid) == 0.0

    def test_fit_order_recovers_synthetic_slope(self):
        hs = [0.1, 0.05, 0.025]
        errs = [2.0 * h**2 for h in hs]
        p, resid = fit_order(hs, errs)
        assert p == pytest.approx(2.0, abs=1e-12)
        assert resid < 1e-12

    def test_fit_residual_flags_non_powerlaw(self):
        p, resid = fit_order([0.1, 0.05, 0.025], [1.0, 0.9, 0.1])
        assert resid > 0.1

    @pytest.mark.slow
    def test_reduced_horizon_spatial_order(self):
        # shorter horizon than the acceptance study; below ~30 transits
        # the startup transient (the discrete travelling wave differs
        # from the continuum one by O(h^2) instantaneously) breaks the
        # pure-power-law fit, so this uses 40
        rep = measure_spatial_convergence(n_transits=40)
        assert rep.asymptotic
        assert 1.8 <= rep.fitted_order <= 2.2

    def test_temporal_order_one_stage(self):
        rep = measure_temporal_convergence()
        assert rep.asymptotic
        assert 0.8 <= rep.fitted_order <= 1.2
        # against the raw oracle the error plateaus at the h^2 bias,
        # which is why the tau sweep is measured against the tau->0
        # reference of the same grid
        oracle_norms = [lv.oracle_norm for lv in rep.levels]
        assert oracle_norms[-1] > 0.3 * oracle_norms[0]

    def test_temporal_yardstick_lies_below_its_smallest_error(self,
                                                              monkeypatch):
        # the study settles its limit to TEMPORAL_LIMIT_RTOL; that limit
        # lies within 1e-4 of the study's smallest level norm of the one
        # settled to solver.LIMIT_RTOL (2.2e-8 against 1.26e-2 when
        # measured), and the fitted order stays put
        calls = []

        def recording(state, coeffs, grid, scheme, t_end, rtol=None):
            limit = semi_discrete_limit(state, coeffs, grid, scheme, t_end,
                                        rtol=rtol)
            calls.append((grid, rtol, limit))
            return limit

        monkeypatch.setattr(verification, "semi_discrete_limit", recording)
        study = measure_temporal_convergence()
        monkeypatch.setattr(verification, "TEMPORAL_LIMIT_RTOL",
                            solver.LIMIT_RTOL)
        tight = measure_temporal_convergence()
        (grid, loose_rtol, loose), (_, tight_rtol, limit) = calls
        assert loose_rtol > tight_rtol == solver.LIMIT_RTOL
        smallest = min(lv.norm for lv in study.levels)
        assert discrete_l2_norm(loose, limit, grid) <= 1e-4 * smallest
        assert abs(study.fitted_order - tight.fitted_order) <= 1e-6


class TestConservation:
    def test_zero_state_zero_drift(self):
        grid = Grid(h_x=0.1, n_points=64)
        coeffs = single_mode_coefficients(1.0, 6.0, 1.0)
        state = ModeState(0.0, np.zeros((1, 64)))
        _, report = advance(state, coeffs, grid,
                            SchemeParams(tau=1e-4), 0.01,
                            observe_every=10)
        audit = conservation_audit(report)
        assert audit.max_mass_drift == 0.0
        assert audit.max_l2_drift == 0.0

    def test_single_mode_mass_telescopes(self):
        orc = kdv_soliton_oracle(c=1.0, g=1.2, d=0.1, amplitude=1.0,
                                 x0=6.0, domain=12.0)
        grid = orc.grid(16)
        state = orc.state(grid, 0.0)
        steps = 2000
        _, report = advance(state, orc.coeffs, grid,
                            SchemeParams(tau=1e-4), steps * 1e-4,
                            observe_every=200)
        audit = conservation_audit(report)
        assert audit.max_mass_drift <= 1e-12 * steps * np.max(np.abs(state.theta))

    def test_l2_drift_first_order_in_tau_one_stage(self):
        orc = kdv_soliton_oracle(c=1.0, g=1.2, d=0.1, amplitude=1.0,
                                 x0=6.0, domain=12.0)
        grid = orc.grid(16)
        coeffs = orc.coeffs
        state = orc.state(grid, 0.0)
        tau0, steps = 1.2e-5, 20000
        drifts = []
        for div in (1, 2):
            _, rep = advance(state, coeffs, grid,
                             SchemeParams(tau=tau0 / div, scheme="one-stage"),
                             steps * tau0, observe_every=steps)
            drifts.append(conservation_audit(rep).final_l2_drift)
        assert drifts[0] / drifts[1] == pytest.approx(2.0, abs=0.3)


@pytest.fixture(scope="module")
def probe_setup():
    grid = Grid(h_x=0.125, n_points=128)
    coeffs = single_mode_coefficients(0.0, 6.0, 1.0)
    orc = kdv_soliton_oracle(0.0, 6.0, 1.0, 2.0, x0=8.0, domain=16.0)
    state = orc.state(grid, 0.0)
    return grid, coeffs, state


class TestStabilityProbe:
    def test_sweep_monotone_with_threshold(self, probe_setup):
        # the probe of `wavetank verify`: stable up to stable_tau, and
        # non-finite from twice it
        grid, coeffs, state = probe_setup
        res = stability_probe(grid, coeffs, (0.5, 1.0, 2.0, 4.0, 8.0),
                              state, horizon=2.5)
        assert res.ratios == (0.5, 1.0, 2.0, 4.0, 8.0)
        assert res.verdicts == (True, True, False, False, False)
        assert res.monotone
        assert res.max_stable_ratio == 1.0

    def test_default_margin_stable_two_stage(self, probe_setup):
        # stable_tau shrinks as horizon^(-1/3); r = 1 holds at each
        # horizon and r = 1.5 already fails
        grid, coeffs, state = probe_setup
        for horizon in (0.25, 1.0):
            res = stability_probe(grid, coeffs, (1.0, 1.5), state, horizon)
            assert res.verdicts == (True, False)

    def test_advection_only_tolerates_cfl_scale_steps(self, probe_setup):
        # without dispersion or nonlinearity stable_tau relaxes by itself
        # to the advection scale tau ~ h/c: 0.36 h/c at T = 50
        grid, _, _ = probe_setup
        coeffs = single_mode_coefficients(1.0, 1e-12, 1e-30)
        coeffs.g[0, 0, 0] = 0.0
        coeffs.d[0] = 0.0
        theta = 1.0 / np.cosh(grid.x - 8.0) ** 2
        state = ModeState(0.0, theta[None, :])
        tau = stable_tau(coeffs, grid, TWO_STAGE, 50.0)
        assert 0.3 * grid.h_x < tau < grid.h_x
        res = stability_probe(grid, coeffs, (1.0, 2.0), state, 50.0)
        assert res.verdicts == (True, False)
        assert res.max_stable_ratio == 1.0


def reference_bound_states(strength):
    """Eigenvalues below -1e-2 of -psi'' - strength sech^2(x) psi on a
    clamped (Dirichlet) grid of 4096 points over |x| <= 20, where sech^2
    has decayed to 2e-17: the numerical reference for the closed form."""
    if strength <= 0:
        return 0
    n_grid = 4096
    x = np.linspace(-20.0, 20.0, n_grid)
    h = x[1] - x[0]
    diag = 2.0 / h**2 - strength / np.cosh(x) ** 2
    off = np.full(n_grid - 1, -1.0 / h**2)
    vals = eigh_tridiagonal(diag, off, select="v",
                            select_range=(-10.0 * strength - 1.0, -1e-2),
                            eigvals_only=True)
    return int(len(vals))


def _near_threshold(strength):
    """True when some nu - j lies in [0.1, 0.106), where the box's
    clamped ends lift the eigenvalue just below -1e-2 above it."""
    nu = (np.sqrt(1.0 + 4.0 * strength) - 1.0) / 2.0
    return nu >= 0.1 and (nu - 0.1) % 1.0 < 0.006


class TestScattering:
    PINNED = [(2.0, 1), (6.0, 2), (12.0, 3), (0.5, 1), (0.0, 0), (1e-9, 0)]

    @pytest.mark.parametrize("strength,count", PINNED)
    def test_sech2_bound_state_counts(self, strength, count):
        assert scattering_bound_states(strength) == count
        assert reference_bound_states(strength) == count

    @pytest.mark.parametrize("strengths", [
        np.linspace(0.0, 60.0, 241),     # sweep
        (0.5, 2.0, 6.0, 12.0),           # demo 05
        np.linspace(1.96, 2.04, 17),     # single-mode benchmark pulses
        np.linspace(5.88, 6.12, 17),
    ])
    def test_closed_form_matches_eigen_solve(self, strengths):
        checked = [s for s in strengths if not _near_threshold(s)]
        assert len(checked) >= len(strengths) - 1    # the band is narrow
        assert ([scattering_bound_states(s) for s in checked]
                == [reference_bound_states(s) for s in checked])

    def test_integer_nu_rejects_its_edge_state(self):
        # strength nu (nu + 1) has a zero-energy state at j = nu
        for nu in range(1, 6):
            assert scattering_bound_states(nu * (nu + 1.0)) == nu

    def test_strength_rescaling(self):
        assert canonical_pulse_strength(2.0, 1.0, 6.0, 1.0) == pytest.approx(2.0)
        assert canonical_pulse_strength(1.0, 2.0, 3.0, 0.5) == pytest.approx(4.0)


@pytest.fixture(scope="module")
def fission_coeffs():
    return single_mode_coefficients(c=0.3, g=6.0, d=1.0)


class TestFission:
    def test_single_soliton_census(self, fission_coeffs):
        rep = fission_census(fission_coeffs, amplitude=2.0, width=1.0, t_end=1.5)
        assert rep.predicted_count == 1
        assert rep.detected_count == 1
        assert rep.persistent

    def test_two_soliton_census(self, fission_coeffs):
        rep = fission_census(fission_coeffs, amplitude=6.0, width=1.0, t_end=1.5)
        assert rep.predicted_count == 2
        assert rep.detected_count == 2
        assert rep.persistent
        # emerging amplitudes approach the reflectionless 8 and 2
        assert rep.crest_amplitudes[0] == pytest.approx(8.0, rel=0.05)
        assert rep.crest_amplitudes[1] == pytest.approx(2.0, rel=0.05)

    def test_linear_regime_predicts_none(self, fission_coeffs):
        rep = fission_census(fission_coeffs, amplitude=1e-4, width=1.0, t_end=0.2)
        assert rep.predicted_count == 0

    def test_detector_deterministic(self, fission_coeffs):
        a = fission_census(fission_coeffs, amplitude=6.0, width=1.0, t_end=1.0)
        b = fission_census(fission_coeffs, amplitude=6.0, width=1.0, t_end=1.0)
        assert a == b

    def test_rejects_multimode(self):
        pair = build_traveling_pair()
        with pytest.raises(ValueError):
            fission_census(pair.coeffs, 1.0, 1.0, 0.1)


class TestTravelingPair:
    def test_construction_satisfies_constraints(self):
        pair = build_traveling_pair()
        w2 = pair.width**2
        for n in range(2):
            lhs = sum(pair.coeffs.g[n, m, k] * pair.amplitudes[m]
                      * pair.amplitudes[k]
                      for m in range(2) for k in range(2))
            rhs = 12.0 * pair.coeffs.d[n] * pair.amplitudes[n] / w2
            assert lhs == pytest.approx(rhs, rel=1e-12)
            assert pair.speed == pytest.approx(
                pair.coeffs.c[n] + 4.0 * pair.coeffs.d[n] / w2)

    def test_residual_verified(self):
        pair = build_traveling_pair()
        assert pair.residual <= 1e-9

    @pytest.mark.parametrize("asymptotic", [True, False])
    def test_ok_needs_an_asymptotic_fit(self, asymptotic):
        # an order of 2.0 from a fit that is not a power law is no
        # second order: the check reads ok only for an asymptotic fit
        conv = verification.ConvergenceReport(
            kind="spatial", scheme=TWO_STAGE, levels=(), fitted_order=2.0,
            fit_residual=0.0 if asymptotic else 0.5, asymptotic=asymptotic)
        report = verification.PairCheckReport(
            residual=0.0, convergence=conv, reversal_error=1.0,
            forward_error=1.0)
        assert report.ok is asymptotic

    def test_check_budgets_the_round_trip(self, monkeypatch):
        # each tau is stable_tau over twice its leg's horizon; these are
        # the values of a growth budget of 5 over the plain horizons, bit
        # for bit (powers of 2 scale exactly)
        taus = []

        def recording(*args):
            taus.append(stable_tau(*args))
            return taus[-1]

        def no_run(state, coeffs, grid, params, t_end, **kwargs):
            return (ModeState(t_end, state.theta.copy()),
                    RunReport(params.scheme, params.tau))

        monkeypatch.setattr(verification, "stable_tau", recording)
        monkeypatch.setattr(verification, "advance", no_run)
        verification.integrable_pair_check()
        assert taus == [3.7642986342247076e-3, 2.4605839901269724e-4,
                        1.5555745131698625e-5, 3.905933614383666e-4]

    def test_cross_coupling_is_genuine(self):
        pair = build_traveling_pair()
        assert np.any(pair.coeffs.g[0, 0, 1] != 0.0)
        assert np.any(pair.coeffs.g[1, 0, 0] != 0.0)

    def test_decoupled_limit_matches_single_solitons(self):
        # zero the cross terms and give each mode its own soliton
        g = np.zeros((2, 2, 2))
        g[0, 0, 0], g[1, 1, 1] = 3.0, 2.0
        from wavetank.coefficients import CoefficientSet
        coeffs = CoefficientSet(mode_indices=(1, 2),
                                c=np.array([1.0, 0.8]),
                                d=np.array([0.1, 0.05]), g=g)
        orc1 = kdv_soliton_oracle(1.0, 3.0, 0.1, 0.9, x0=6.0, domain=12.0)
        orc2 = kdv_soliton_oracle(0.8, 2.0, 0.05, 0.7, x0=6.0, domain=12.0)
        grid = Grid(h_x=12.0 / 240, n_points=240)
        state = ModeState(0.0, np.vstack([orc1(grid.x, 0.0),
                                          orc2(grid.x, 0.0)]))
        t_end = 0.5
        final, _ = advance(state, coeffs, grid,
                           SchemeParams(tau=2e-5), t_end)
        for row, orc in ((0, orc1), (1, orc2)):
            exact = orc(grid.x, final.time)
            rel = (np.sqrt(np.sum((final.theta[row] - exact) ** 2))
                   / np.sqrt(np.sum(exact**2)))
            assert rel < 5e-3


def test_every_study_steps_within_stable_tau_onto_its_end(monkeypatch,
                                                          fission_coeffs):
    # each study's tau is never longer than stable_tau over its span (a
    # rounded step count gave the temporal study's tau0 0.011 % above
    # stable_tau); `advance` lands it on the span's end
    runs = []

    def recording(state, coeffs, grid, params, t_end, observers=(),
                  observe_every=0):
        runs.append((params.tau, stable_tau(coeffs, grid, params.scheme,
                                            t_end - state.time)))
        final = ModeState(t_end, state.theta.copy())
        for obs in observers:
            obs(0, final)
        return final, RunReport(params.scheme, params.tau,
                                step_count(state.time, t_end, params.tau))

    def shifted_limit(state, coeffs, grid, scheme, t_end, rtol=None):
        return ModeState(t_end, np.roll(state.theta, 1, axis=1))

    monkeypatch.setattr(verification, "advance", recording)
    monkeypatch.setattr(verification, "semi_discrete_limit", shifted_limit)
    measure_spatial_convergence()
    measure_temporal_convergence()
    fission_census(fission_coeffs, amplitude=6.0, width=1.0, t_end=1.5)
    verification.integrable_pair_check()
    assert len(runs) == 3 + 3 + 1 + 5
    for tau, limit in runs:
        assert tau <= limit
