from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import wavetank.coefficients as coefficients
from wavetank.coefficients import (
    ConsistencyError,
    _tensor_quadrature,
    build_coefficients,
    dispersion_coeffs,
    nonlinear_coeff_closed_form,
    nonlinear_coeffs,
    reconcile_with_reference,
)
from wavetank import modes
from wavetank.cli import main
from wavetank.modes import Stratification, build_constant_n_basis, simpson_grid
from wavetank import reference_tables as ref

MCEWAN = Stratification(N=1.23, depth=0.25)
MODES = (2, 4, 6, 8, 10)


@pytest.fixture(scope="module")
def basis():
    return build_constant_n_basis(MCEWAN, MODES)


@pytest.fixture(scope="module")
def coeffs(basis):
    return build_coefficients(basis)


class TestDispersion:
    def test_formula(self, basis):
        d = dispersion_coeffs(basis)
        np.testing.assert_allclose(d, basis.speeds**3 / (2 * MCEWAN.N**2),
                                   rtol=1e-15)

    def test_d2_matches_rounded_reference(self, basis):
        d = dispersion_coeffs(basis)
        assert d[0] == pytest.approx(3.874e-5, rel=1e-3)

    def test_d10(self, basis):
        d = dispersion_coeffs(basis)
        assert d[-1] == pytest.approx(3.099e-7, rel=1e-3)

    def test_n_cubed_scaling(self, basis):
        d = dispersion_coeffs(basis)
        products = d * np.array(MODES, dtype=float) ** 3
        np.testing.assert_allclose(products, products[0], rtol=1e-12)

    def test_positive_decreasing(self, basis):
        d = dispersion_coeffs(basis)
        assert np.all(d > 0)
        assert np.all(np.diff(d) < 0)


def entrywise_quadrature(basis, sigma):
    """(g, size) of `_tensor_quadrature`, one Simpson sum per entry
    (n, m, k) over the nodes of `simpson_grid`, mode n at node j of q + 1
    sampled at the angle pi (n j mod 2q) / q, reduced in Python ints."""
    strat = basis.strat
    z, w, dz = simpson_grid(strat.depth)
    q = len(z) - 1
    angle = np.array([[np.pi * (n * j % (2 * q)) / q for j in range(q + 1)]
                      for n in basis.indices])
    nidx = np.asarray(basis.indices, dtype=float)
    S = basis.amplitudes[:, None] * np.sin(angle)
    Sz = (basis.amplitudes * nidx * np.pi / strat.depth)[:, None] * np.cos(
        angle)
    c = basis.speeds
    L = basis.n_modes
    g = np.zeros((L, L, L))
    size = np.zeros((L, L, L))
    for a in range(L):
        pref = sigma * strat.N**2 * c[a] ** 2 / 2.0
        for b in range(L):
            for c_ in range(L):
                integrand = (
                    (1.0 / c[b] ** 2 + 3.0 / c[c_] ** 2) * S[c_] * Sz[b]
                    + (4.0 / c[b] ** 2) * S[b] * Sz[c_]
                ) * S[a]
                terms = w * integrand
                g[a, b, c_] = pref * dz * np.sum(terms)
                size[a, b, c_] = abs(pref) * dz * np.sum(np.abs(terms))
    return g, size


class TestNonlinearTensor:
    @given(modes=st.lists(st.integers(1, 24), min_size=1, max_size=12,
                          unique=True).map(tuple),
           sigma=st.sampled_from([1.0, -0.6, 2.5]))
    def test_quadrature_matches_entrywise_sums(self, modes, sigma):
        # every entry takes the same products in the same order, and a row
        # of the (m, k) pairs is summed as one 1-D array is, so the bits
        # agree: off resonance g is round-off, which no tolerance relative
        # to max|g| bounds
        basis = build_constant_n_basis(MCEWAN, modes)
        g, size = _tensor_quadrature(basis, sigma)
        ref_g, ref_size = entrywise_quadrature(basis, sigma)
        assert np.array_equal(g, ref_g)
        assert np.array_equal(size, ref_size)

    def test_quadrature_matches_closed_form(self, basis):
        g_quad = nonlinear_coeffs(basis, method="quadrature")
        g_closed = nonlinear_coeffs(basis, method="closed_form")
        scale = np.maximum(1.0, np.abs(g_closed))
        assert np.max(np.abs(g_quad - g_closed) / scale) <= 1e-8

    def test_underresolved_quadrature_flags_inconsistency(self, basis,
                                                           monkeypatch):
        # the dual-route check is the falsifier: starve the quadrature
        # and the paths must disagree loudly instead of silently
        monkeypatch.setattr(modes, "QUAD_POINTS", 17)
        with pytest.raises(ConsistencyError):
            nonlinear_coeffs(basis, method="quadrature")

    def test_off_resonance_stray_flags_inconsistency(self, basis,
                                                     monkeypatch):
        # a stray off-resonance entry of 1e-10 of its size passes the 1e-8
        # cross-check, and the off-resonance limit 1e-12 catches it
        def stray_quadrature(unit, sigma):
            g, size = _tensor_quadrature(unit, sigma)
            g[0, 0, 0] += 1e-10 * size[0, 0, 0]
            return g, size

        assert nonlinear_coeff_closed_form(basis, 2, 2, 2) == 0.0
        monkeypatch.setattr(coefficients, "_tensor_quadrature",
                            stray_quadrature)
        with pytest.raises(ConsistencyError) as err:
            nonlinear_coeffs(basis, method="quadrature")
        assert type(err.value) is ConsistencyError
        assert "off-resonance quadrature entries reach" in str(err.value)
        assert "(limit 1e-12)" in str(err.value)

    def test_spot_values_from_reference_tables(self, coeffs):
        assert coeffs.g_entry(2, 2, 4) == pytest.approx(72.3, rel=5e-3)
        assert coeffs.g_entry(4, 2, 2) == pytest.approx(28.9, rel=5e-3)
        assert coeffs.g_entry(6, 8, 2) == pytest.approx(-19.3, rel=5e-3)
        assert coeffs.g_entry(8, 10, 2) == pytest.approx(-36.0, rel=5e-3)

    def test_resonance_rule_zeroes(self, coeffs):
        # zero whenever n is neither m + k nor |m - k|
        for i, n in enumerate(MODES):
            for j, m in enumerate(MODES):
                for l, k in enumerate(MODES):
                    if n != m + k and n != abs(m - k):
                        assert coeffs.g[i, j, l] == 0.0

    def test_off_resonance_quadrature_vanishes(self):
        # triples whose sine-product integrals all vanish must give 0
        basis = build_constant_n_basis(MCEWAN, (1, 2, 3))
        g = nonlinear_coeffs(basis, method="quadrature")
        idx = {n: i for i, n in enumerate((1, 2, 3))}
        assert abs(g[idx[2], idx[2], idx[2]]) <= 1e-12
        assert abs(g[idx[1], idx[2], idx[2]]) <= 1e-12

    def test_far_mode_quadrature_is_the_zero_tensor(self, tmp_path):
        # sampled at the float angles n (pi z_j / h), mode 200000 left
        # 1.4e-12 of the absolute integrand on these vanishing entries,
        # and coeffs failed its check on a tensor that is exactly zero
        basis = build_constant_n_basis(MCEWAN, (1, 200000))
        g = nonlinear_coeffs(basis, method="quadrature")
        assert g.shape == (2, 2, 2) and not g.any()
        assert main(["coeffs", "--modes", "1,200000",
                     "--out", str(tmp_path)]) == 0

    def test_accidental_zero_at_3k_equals_m(self, coeffs):
        # (n, m, k) = (4, 6, 2) is resonant but the closed form vanishes
        assert coeffs.g_entry(4, 6, 2) == 0.0

    def test_diagonal_self_interaction_vanishes(self, coeffs):
        for n in MODES:
            assert coeffs.g_entry(n, n, n) == 0.0

    def test_mixed_parity_closed_form(self, basis):
        # resonances exist for odd modes too; rule is n = m +- k
        odd_basis = build_constant_n_basis(MCEWAN, (1, 2, 3, 5))
        g = nonlinear_coeffs(odd_basis, method="quadrature")
        idx = {n: i for i, n in enumerate((1, 2, 3, 5))}
        expected = nonlinear_coeff_closed_form(odd_basis, 3, 2, 1)
        assert g[idx[3], idx[2], idx[1]] == pytest.approx(expected, rel=1e-10)
        assert expected != 0.0

    @pytest.mark.parametrize("modes, sigma", [
        (MODES, 1.0),
        ((1, 3, 4, 9, 13, 14, 27), -0.7),     # odd, non-contiguous
        ((27, 3, 1, 14, 4), 2.5),             # unsorted
        ((7,), -1.0),
        (tuple(range(1, 80, 2)), -1.3),       # odd modes only: no triads
    ])
    def test_tensor_is_the_scalar_rule_bitwise(self, modes, sigma):
        # the vectorised build places exactly the floats the single-entry
        # rule returns, zeros' signs included (-0.0 for sigma < 0)
        b = build_constant_n_basis(MCEWAN, modes)
        g = nonlinear_coeffs(b, sigma=sigma)
        scalar = np.array([[[nonlinear_coeff_closed_form(b, n, m, k, sigma)
                             for k in modes] for m in modes] for n in modes])
        assert np.array_equal(g, scalar)
        assert np.array_equal(np.signbit(g), np.signbit(scalar))
        if sigma < 0:
            assert np.all(np.signbit(g[g == 0.0]))

    def test_mode_list_without_triads_passes_quadrature_check(self):
        # no n = m +- k among (1, 9): every entry is off resonance and
        # max|g| = 0, so the stray limit cannot be scaled by max|g|
        b = build_constant_n_basis(MCEWAN, (1, 9))
        g = nonlinear_coeffs(b, method="quadrature")
        assert np.array_equal(g, np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    def test_scaling_in_buoyancy_frequency(self, basis, alpha):
        # c ~ alpha, d ~ alpha, g ~ 1/alpha
        scaled = Stratification(N=alpha * MCEWAN.N, depth=MCEWAN.depth)
        b2 = build_constant_n_basis(scaled, MODES)
        np.testing.assert_allclose(b2.speeds / basis.speeds, alpha, rtol=1e-12)
        np.testing.assert_allclose(
            dispersion_coeffs(b2) / dispersion_coeffs(basis), alpha, rtol=1e-12)
        g1 = nonlinear_coeffs(basis, method="closed_form")
        g2 = nonlinear_coeffs(b2, method="closed_form")
        mask = g1 != 0
        measured = np.log(g2[mask] / g1[mask]) / np.log(alpha)
        np.testing.assert_allclose(measured, -1.0, atol=1e-10)


class TestReconciliation:
    def test_mask_matches_all_five_tables(self, coeffs):
        report = reconcile_with_reference(coeffs)
        assert report.mask_matches
        assert report.mask_mismatches == ()

    def test_every_table_entry_classified(self, coeffs):
        report = reconcile_with_reference(coeffs)
        n_nonzero = sum(
            1 for n in MODES for row in ref.REFERENCE_G[n] for v in row if v != 0
        )
        n_g = sum(1 for e in report.entries if e.quantity == "g")
        assert n_g == n_nonzero
        assert sum(1 for e in report.entries if e.quantity == "c") == 5
        assert sum(1 for e in report.entries if e.quantity == "d") == 5

    def test_g_entries_all_confirmed(self, coeffs):
        report = reconcile_with_reference(coeffs)
        g_bad = [e for e in report.discrepant if e.quantity == "g"]
        assert g_bad == []

    def test_c_entries_all_confirmed(self, coeffs):
        report = reconcile_with_reference(coeffs)
        assert [e for e in report.discrepant if e.quantity == "c"] == []

    def test_known_reference_rounding_outliers_documented(self, coeffs):
        # d_6 and d_8 of the reference list are inconsistent with
        # d_n = c_n^3/(2 N^2) (and with the exact 1/n^3 scaling of the
        # other three entries); they are logged, not "corrected"
        report = reconcile_with_reference(coeffs)
        labels = sorted(e.label for e in report.discrepant)
        assert labels == ["d_6", "d_8"]

    def test_never_raises_on_discrepancy(self, coeffs):
        report = reconcile_with_reference(coeffs, rtol=1e-6)
        assert len(report.discrepant) > 0  # documents, does not fail

    def test_report_text_roundtrip(self, coeffs):
        text = reconcile_with_reference(coeffs).to_text()
        assert "CONFIRMED" in text and "DISCREPANT" in text

    def test_zero_g_mismatches_every_nonzero_reference_entry(self, basis):
        # sigma = 0 makes every computed g read zero
        report = reconcile_with_reference(build_coefficients(basis, sigma=0.0))
        nonzero = [(n, m, k) for n in MODES
                   for j, m in enumerate(MODES) for l, k in enumerate(MODES)
                   if ref.REFERENCE_G[n][j][l] != 0]
        assert not report.mask_matches
        assert [mm[:3] for mm in report.mask_mismatches] == nonzero
        assert all(mm[3] == 0.0 for mm in report.mask_mismatches)
        lines = report.to_text().splitlines()
        assert "# zero/nonzero mask matches reference: False" in lines
        n, m, k, _, refv = report.mask_mismatches[0]
        assert (f"# mask mismatch at g[{n}][{m},{k}]: computed 0 vs "
                f"reference {refv:.6g}") in lines
        assert sum(line.startswith("# mask mismatch") for line in lines) \
            == len(nonzero)

    def test_nonzero_entry_where_the_reference_is_zero(self, coeffs):
        # g[2][2,2] vanishes in the tables; a computed 0.5 there is
        # classified against 0.0, never skipped
        assert ref.REFERENCE_G[2][0][0] == 0.0
        g = coeffs.g.copy()
        g[0, 0, 0] = 0.5
        report = reconcile_with_reference(replace(coeffs, g=g))
        [entry] = [e for e in report.entries if e.label == "g[2][2,2]"]
        assert (entry.quantity, entry.computed, entry.reference,
                entry.status) == ("g", 0.5, 0.0, "DISCREPANT")
        assert report.mask_mismatches == ((2, 2, 2, 0.5, 0.0),)
        assert "g\tg[2][2,2]\t0.5\t0\t" in report.to_text()

    def test_rejects_wrong_mode_list(self):
        b = build_constant_n_basis(MCEWAN, (1, 2))
        with pytest.raises(ValueError):
            reconcile_with_reference(build_coefficients(b))


def test_mcewan_convenience():
    strat = Stratification(N=ref.MCEWAN_N, depth=ref.MCEWAN_DEPTH)
    basis = build_constant_n_basis(strat, ref.MCEWAN_MODES)
    coeffs = build_coefficients(basis)
    assert coeffs.mode_indices == MODES
    assert np.array_equal(coeffs.d, dispersion_coeffs(basis))


def test_beta2_is_folded_into_d(basis):
    # the engines integrate d as stored, so the scale lives in d alone
    coeffs = build_coefficients(basis, beta2=0.5)
    assert np.array_equal(coeffs.d, 0.5 * dispersion_coeffs(basis))
