import numpy as np
import pytest

from wavetank.modes import (
    Stratification,
    build_constant_n_basis,
    project_profile,
    simpson_grid,
    weighted_inner_product,
)

MCEWAN = Stratification(N=1.23, depth=0.25)
MODES = (2, 4, 6, 8, 10)

# paddle-profile projections (Z^n, phi2) for b = 40 1/m, z0 = h/2,
# frozen from adaptive Gauss-Kronrod quadrature at 1e-14 tolerance
ORACLE_PROJECTIONS = {
    2: -0.26081385251171491,
    4: 0.21258070439702353,
    6: -0.12453924546247937,
    8: 0.059068819791953706,
    10: -0.0299487774565344,
}
ORACLE_PROFILE_NORM2 = 0.13329701833581797


def paddle_profile(z, strat=MCEWAN, b=40.0):
    amp = np.sqrt(2.0 / (strat.N**2 * strat.depth))
    arg = b * (z - strat.depth / 2.0)
    return amp / np.cosh(arg) * np.tanh(arg)


class TestStratification:
    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            Stratification(N=0.0, depth=0.25)

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError):
            Stratification(N=1.0, depth=-1.0)


class TestBasisConstruction:
    def test_phase_speeds_closed_form(self):
        basis = build_constant_n_basis(MCEWAN, MODES)
        expected = MCEWAN.N * MCEWAN.depth / (np.array(MODES) * np.pi)
        np.testing.assert_allclose(basis.speeds, expected, rtol=1e-15)

    def test_c2_value(self):
        basis = build_constant_n_basis(MCEWAN, (2,))
        assert basis.speeds[0] == pytest.approx(0.04894, abs=5e-6)

    def test_c10_value(self):
        basis = build_constant_n_basis(MCEWAN, (10,))
        assert basis.speeds[0] == pytest.approx(0.009788, abs=5e-7)

    def test_normalization_amplitude(self):
        # oracle: int_0^h (B sin(n pi z/h))^2 N^2 dz = 1 by quadrature
        basis = build_constant_n_basis(MCEWAN, MODES)
        np.testing.assert_allclose(basis.amplitudes, 2.2995342477611302,
                                   rtol=1e-12)
        for n in MODES:
            val = weighted_inner_product(
                lambda z, n=n: basis.evaluate_mode(n, z),
                lambda z, n=n: basis.evaluate_mode(n, z),
                MCEWAN,
            )
            assert val == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [(0,), (-2,), (2, 2), ()])
    def test_rejects_bad_mode_lists(self, bad):
        with pytest.raises(ValueError):
            build_constant_n_basis(MCEWAN, bad)

    def test_walls_exactly_zero(self):
        basis = build_constant_n_basis(MCEWAN, MODES)
        vals = basis.evaluate(np.array([0.0, MCEWAN.depth]))
        assert np.all(vals == 0.0)

    def test_speeds_strictly_decreasing_and_scaling(self):
        basis = build_constant_n_basis(MCEWAN, MODES)
        assert np.all(np.diff(basis.speeds) < 0)
        products = basis.speeds * np.array(MODES)
        np.testing.assert_allclose(products, MCEWAN.N * MCEWAN.depth / np.pi,
                                   rtol=1e-12)


class TestInnerProduct:
    def test_orthonormality_all_pairs(self):
        basis = build_constant_n_basis(MCEWAN, MODES)
        zmat = basis.evaluate(simpson_grid(MCEWAN.depth)[0])
        for i in range(len(MODES)):
            for j in range(len(MODES)):
                val = weighted_inner_product(zmat[i], zmat[j], MCEWAN)
                expected = 1.0 if i == j else 0.0
                assert abs(val - expected) <= 1e-10

    def test_odd_mode_against_paddle_is_zero(self):
        basis = build_constant_n_basis(MCEWAN, (3,))
        val = weighted_inner_product(
            lambda z: basis.evaluate_mode(3, z), paddle_profile, MCEWAN
        )
        assert abs(val) <= 1e-12

    def test_simpson_grid_integrates_cubics_exactly(self):
        # composite Simpson is exact for cubics on any odd node count
        z, w, dz = simpson_grid(MCEWAN.depth)
        assert len(z) % 2 == 1 and z[0] == 0.0 and z[-1] == MCEWAN.depth
        assert dz == z[1] - z[0]
        cubic = 1.0 - 2.0 * z + 3.0 * z**2 - 4.0 * z**3
        h = MCEWAN.depth
        exact = h - h**2 + h**3 - h**4
        assert dz * np.sum(w * cubic) == pytest.approx(exact, rel=1e-14)

    def test_eigen_residual_finite_difference(self):
        # second difference of Z^n against -(N/c_n)^2 Z^n; tolerance
        # scales with the stencil's O(dz^2) truncation
        basis = build_constant_n_basis(MCEWAN, MODES)
        z = np.linspace(0, MCEWAN.depth, 2001)
        dz = z[1] - z[0]
        vals = basis.evaluate(z)
        for i, n in enumerate(MODES):
            zn = vals[i]
            lap = (zn[2:] - 2 * zn[1:-1] + zn[:-2]) / dz**2
            resid = lap + (MCEWAN.N / basis.speeds[i]) ** 2 * zn[1:-1]
            k = n * np.pi / MCEWAN.depth
            bound = basis.amplitudes[i] * k**4 * dz**2 / 12.0 * 1.1
            assert np.max(np.abs(resid)) <= max(bound, 1e-8)


class TestProjection:
    def test_projecting_basis_mode_is_unit_vector(self):
        basis = build_constant_n_basis(MCEWAN, MODES)
        proj = project_profile(lambda z: basis.evaluate_mode(2, z), basis)
        expected = np.zeros(len(MODES))
        expected[0] = 1.0
        np.testing.assert_allclose(proj.coefficients, expected, atol=1e-10)

    def test_odd_modes_vanish_for_centered_paddle(self):
        basis = build_constant_n_basis(MCEWAN, (1, 3, 5, 7, 9))
        proj = project_profile(paddle_profile, basis)
        assert np.max(np.abs(proj.coefficients)) < 1e-12

    def test_even_mode_values_against_quadrature_oracle(self):
        basis = build_constant_n_basis(MCEWAN, MODES)
        proj = project_profile(paddle_profile, basis)
        for i, n in enumerate(MODES):
            assert proj.coefficients[i] == pytest.approx(
                ORACLE_PROJECTIONS[n], abs=1e-10)
        assert proj.profile_norm2 == pytest.approx(ORACLE_PROFILE_NORM2,
                                                   abs=1e-10)

    def test_captured_fraction_bessel(self):
        basis = build_constant_n_basis(MCEWAN, MODES)
        proj = project_profile(paddle_profile, basis)
        assert proj.captured_fraction <= 1.0 + 1e-12
        assert proj.captured_fraction == pytest.approx(0.99860073, abs=1e-6)

    def test_projection_idempotence(self):
        basis = build_constant_n_basis(MCEWAN, MODES)
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(len(MODES))
        proj = project_profile(lambda z: basis.synthesize(coeffs, z), basis)
        np.testing.assert_allclose(proj.coefficients, coeffs, atol=1e-9)
