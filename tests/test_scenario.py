import configparser
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from wavetank.modes import Stratification
from wavetank.scenario import (
    _KEYS,
    MAX_AXIS_CELLS,
    PaddleProfile,
    ScenarioConfig,
    build_initial_state,
    mcewan_default,
    parse_config,
    parse_modes,
    serialize_config,
    validate,
    validate_coefficients,
)
from wavetank.solver import Grid, ONE_STAGE, SchemeParams, TWO_STAGE
from dataclasses import replace

# finite doubles from the subnormal range up to 1e300
positive = st.one_of(st.floats(min_value=5e-324, max_value=2.2e-308),
                     st.floats(min_value=5e-324, max_value=1e300),
                     st.floats(min_value=1e299, max_value=1e300))
signed = st.builds(lambda v, sign: sign * v, positive, st.sampled_from((1, -1)))
finite = st.one_of(st.just(0.0), st.just(-0.0), signed)


@st.composite
def valid_configs(draw):
    """ScenarioConfigs that `validate` accepts, with any finite magnitudes
    but N and depth, which lie within 1e-60..1e60 and 1e-100..1e100, so
    that the mode basis and the coupling scale stay in the float range,
    and the pulse width l, within 1e-90..1e90, so that dx = l/10..l/100
    keeps the stencil's h^2, h^3, 1/(2h) and 1/(2h^3) in it."""
    depth = draw(st.floats(min_value=1e-100, max_value=1e100))
    z0 = depth * draw(st.floats(min_value=0.01, max_value=0.99))
    l = draw(st.floats(min_value=1e-90, max_value=1e90))
    h_x = l / draw(st.floats(min_value=10.0, max_value=100.0))
    assume(0 < z0 < depth and h_x > 0)
    cfg = ScenarioConfig(
        strat=Stratification(N=draw(st.floats(min_value=1e-60,
                                              max_value=1e60)),
                             depth=depth),
        modes=tuple(draw(st.lists(st.integers(1, 99), min_size=1, max_size=8,
                                  unique=True))),
        paddle=PaddleProfile(a=draw(signed), l=l, b=draw(positive), z0=z0),
        grid=Grid(h_x=h_x, n_points=draw(st.integers(1000, 5000)),
                  x0=draw(finite)),
        scheme=SchemeParams(tau=draw(positive),
                            scheme=draw(st.sampled_from((TWO_STAGE, ONE_STAGE)))),
        t_end=draw(st.one_of(st.just(0.0), positive)),
        snapshot_every=draw(st.integers(0, 10**6)),
        sigma=draw(finite),
        beta2=draw(finite),
    )
    assume(validate(cfg) == [])
    return cfg


class TestDefaults:
    def test_reference_stratification(self):
        cfg = mcewan_default()
        assert cfg.strat.N == 1.23
        assert cfg.strat.depth == 0.25

    def test_tank_footprint(self):
        cfg = mcewan_default()
        assert cfg.grid.length == pytest.approx(0.50)
        assert cfg.grid.length >= 8.0 * cfg.paddle.l

    def test_modes_and_horizon(self):
        cfg = mcewan_default()
        assert cfg.modes == (2, 4, 6, 8, 10)
        assert cfg.t_end == 0.02
        assert cfg.sigma == 1.0 and cfg.beta2 == 1.0
        assert cfg.paddle.z0 == pytest.approx(cfg.strat.depth / 2.0)

    def test_default_validates_clean(self):
        assert validate(mcewan_default()) == []


class TestValidate:
    def test_underresolved_pulse_named(self):
        cfg = mcewan_default()
        bad = replace(cfg, paddle=replace(cfg.paddle, l=cfg.grid.h_x / 2.0))
        violations = validate(bad)
        assert any("under-resolved" in v for v in violations)

    def test_z0_out_of_range_named(self):
        cfg = mcewan_default()
        bad = replace(cfg, paddle=replace(cfg.paddle, z0=-0.1))
        assert any("z0" in v for v in validate(bad))

    def test_empty_modes(self):
        bad = replace(mcewan_default(), modes=())
        assert any("modes" in v for v in validate(bad))

    def test_step_count_below_2_pow_53(self):
        # step_count(0, t_end, dt) is 2**53 - 1 and 2**53 here
        cfg = replace(mcewan_default(), scheme=SchemeParams(tau=1.0))
        assert validate(replace(cfg, t_end=2.0**53 - 1)) == []
        violations = validate(replace(cfg, t_end=2.0**53))
        assert len(violations) == 1 and violations[0].startswith("t_end")

    def test_x_axis_within_2_pow_26_cells(self):
        # |x0| + length = 2**26 dx exactly, then one cell farther out
        cfg = mcewan_default()
        edge = MAX_AXIS_CELLS * cfg.grid.h_x - cfg.grid.length
        inside = replace(cfg.grid, x0=-edge)
        assert validate(replace(cfg, grid=inside)) == []
        assert len(set(inside.x)) == inside.n_points
        outside = replace(cfg.grid, x0=-edge - cfg.grid.h_x)
        violations = validate(replace(cfg, grid=outside))
        assert len(violations) == 1 and violations[0].startswith("grid.x0")

    def test_build_rejects_invalid(self):
        cfg = mcewan_default()
        bad = replace(cfg, paddle=replace(cfg.paddle, l=cfg.grid.h_x))
        with pytest.raises(ValueError):
            build_initial_state(bad)

    @pytest.mark.parametrize("check", [validate, validate_coefficients])
    def test_preflight_holds_no_dense_tensor(self, check):
        # the sigma g row reads the closed-form triads, about 1.5 L^2
        # numbers: a peak of 24.5 MB measured on modes 1..400, where the
        # dense (400, 400, 400) tensor alone is 512 MB (a pre-flight that
        # builds it peaks at 576 MB)
        cfg = replace(mcewan_default(), modes=tuple(range(1, 401)))
        assert check(cfg) == []   # warm imports and caches
        tracemalloc.start()
        try:
            assert check(cfg) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50e6


class TestInitialState:
    def test_phi1_peak_is_amplitude(self):
        cfg = mcewan_default()
        assert cfg.paddle.phi1(0.0) == pytest.approx(cfg.paddle.a)

    def test_separable_structure(self):
        cfg = mcewan_default()
        basis = cfg.basis()
        state, projection = build_initial_state(cfg, basis)
        coeffs = projection.coefficients
        expected = (coeffs[:, None]
                    * cfg.paddle.periodic_phi1(cfg.grid.x,
                                               cfg.grid.length)[None, :])
        np.testing.assert_allclose(state.theta, expected, rtol=1e-14)

    def test_no_grid_scale_tail(self):
        # phi1 wraps with a jump in slope, whose rfft tail (k h >= pi/2)
        # reads 6.6e-6 of the peak; its periodic image sum, 1.0e-16
        cfg = mcewan_default()
        state, _ = build_initial_state(cfg)
        spectrum = np.abs(np.fft.rfft(state.theta, axis=1))
        kh = 2.0 * np.pi * np.arange(spectrum.shape[1]) / cfg.grid.n_points
        assert np.max(spectrum[:, kh >= np.pi / 2]) < 1e-12 * np.max(spectrum)

    def test_amplitude_near_the_float_limit_raises_nothing(self):
        # the far form amp 2 exp(-|arg|) overflowed at small |arg| for a
        # finite a above about 9e307 although its value was never used;
        # where cosh is in range the value stays a / cosh(arg) bit for bit.
        # The far arguments stay below 708, where exp(-|arg|) is normal:
        # beyond it the far form underflows, which its value does too
        cfg = mcewan_default()
        paddle = replace(cfg.paddle, a=1.7e308)
        x = paddle.l * np.concatenate((np.linspace(-700.0, 700.0, 1401),
                                       [-705.0, -701.0, 701.0, 705.0]))
        z = paddle.z0 + x / paddle.b
        with np.errstate(all="raise"):
            phi1 = paddle.phi1(x)
            phi2 = paddle.phi2(z, cfg.strat)
        arg = x / paddle.l
        near = np.abs(arg) <= 700.0
        assert near.sum() == 1401
        assert np.array_equal(phi1[near], paddle.a / np.cosh(arg[near]))
        assert np.all(np.isfinite(phi1)) and np.all(phi1 > 0)
        zarg = paddle.b * (z - paddle.z0)
        amp = np.sqrt(2.0 / (cfg.strat.N**2 * cfg.strat.depth))
        inner = np.abs(zarg) <= 700.0
        assert np.array_equal(phi2[inner],
                              amp / np.cosh(zarg[inner]) * np.tanh(zarg[inner]))

    def test_periodic_phi1_is_the_image_sum(self):
        # against a sum over far more images than the J = 4 it takes
        paddle, length = mcewan_default().paddle, 0.5
        x = np.linspace(-0.25, 0.25, 41)
        wide = sum(paddle.phi1(x + j * length) for j in range(-40, 41))
        np.testing.assert_allclose(paddle.periodic_phi1(x, length), wide,
                                   rtol=1e-15)
        np.testing.assert_allclose(paddle.periodic_phi1(x + 3 * length, length),
                                   wide, rtol=1e-14)

    def test_even_in_x_about_pulse_centre(self):
        cfg = mcewan_default()
        state, _ = build_initial_state(cfg)
        theta = state.theta
        # grid is [-L/2, L/2); index 0 is the centre's mirror fixed point
        flipped = np.roll(theta[:, ::-1], 1, axis=1)
        np.testing.assert_allclose(theta, flipped, atol=1e-18)

    def test_odd_modes_empty_for_centered_paddle(self):
        cfg = replace(mcewan_default(), modes=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
        state, projection = build_initial_state(cfg)
        odd = [i for i, n in enumerate(cfg.modes) if n % 2 == 1]
        assert np.max(np.abs(projection.coefficients[odd])) < 1e-12
        assert np.max(np.abs(state.theta[odd])) < 1e-12 * cfg.paddle.a

    def test_energy_accounting(self):
        cfg = mcewan_default()
        _, projection = build_initial_state(cfg)
        fr = projection.coefficients**2 / projection.profile_norm2
        assert np.all(fr >= 0)
        assert fr.sum() == pytest.approx(projection.captured_fraction)
        assert fr.sum() <= 1.0 + 1e-12
        # five even modes keep essentially all the paddle energy
        assert projection.captured_fraction > 0.99

    def test_psi_antisymmetric_about_mid_depth(self):
        cfg = mcewan_default()
        basis = cfg.basis()
        state, projection = build_initial_state(cfg, basis)
        z0 = cfg.paddle.z0
        delta = 0.04
        up = basis.evaluate(np.array([z0 + delta]))[:, 0] @ state.theta
        dn = basis.evaluate(np.array([z0 - delta]))[:, 0] @ state.theta
        # antisymmetry holds up to the truncation residual of the basis
        scale = np.max(np.abs(state.theta)) * np.max(basis.amplitudes)
        bound = np.sqrt(projection.residual_fraction) * scale * 5
        assert np.max(np.abs(up + dn)) <= bound


class TestConfigRoundTrip:
    def test_round_trip_semantic_equality(self):
        cfg = mcewan_default()
        text = serialize_config(cfg)
        back = parse_config(text)
        assert back == cfg

    def test_round_trip_modified(self):
        cfg = replace(mcewan_default(), t_end=0.125,
                      modes=(2, 4), sigma=2.0)
        assert parse_config(serialize_config(cfg)) == cfg

    @given(valid_configs())
    def test_round_trip_any_valid_config(self, cfg):
        text = serialize_config(cfg)
        assert serialize_config(cfg) == text
        back = parse_config(text)
        assert back == cfg
        assert serialize_config(back) == text

    def test_empty_file_is_the_default(self):
        assert parse_config("") == mcewan_default()

    def test_partial_file_uses_defaults(self):
        cfg = parse_config("[run]\nt_end = 0.5\n")
        assert cfg.t_end == 0.5
        assert cfg.strat.N == 1.23

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError):
            parse_config("[frobnicate]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config("[run]\nbogus = 1\n")

    def test_default_section_rejected(self):
        # a [DEFAULT] key used to be dropped: t_end parsed as 0.02
        with pytest.raises(ValueError, match=r"section \[DEFAULT\]"):
            parse_config("[DEFAULT]\nt_end = 5\n")

    def test_scheme_section_has_scheme_and_dt_only(self):
        text = serialize_config(mcewan_default())
        section = text.split("[scheme]")[1].split("[run]")[0]
        keys = [l.split(" = ")[0] for l in section.splitlines() if " = " in l]
        assert keys == ["scheme", "dt"]


def test_key_table_names_every_field_once():
    # a new field without a key, or a key without a field, fails here
    def leaves(obj, prefix=""):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if dataclasses.is_dataclass(value):
                yield from leaves(value, f"{prefix}{f.name}.")
            else:
                yield prefix + f.name

    cfg = mcewan_default()
    assert sorted(field for _, _, field in _KEYS) == sorted(leaves(cfg))
    cp = configparser.ConfigParser()
    cp.read_string(serialize_config(cfg))
    assert ([(section, key.lower()) for section, key, _ in _KEYS]
            == [(section, key) for section in cp.sections()
                for key in cp[section]])


def test_parse_modes():
    assert parse_modes("2, 4,6,") == (2, 4, 6)
    assert parse_config("[run]\nmodes = 3, 1\n").modes == (3, 1)
    with pytest.raises(ValueError):
        parse_modes("2,q")
