"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion.  Criteria 1 and 2 compare the computed phase speeds and
dispersion coefficients with the reference list in
`wavetank.reference_tables`, printed at one or two significant figures.
A printed entry stands for every value that prints as it, so each entry
is read as that interval (`printed_interval`), not as a point.  Because
a one-figure interval is wide, each criterion also pins its values to
an exact check that does not use the program's formula: the
second-difference Sturm-Liouville eigenproblem for c_n, and the exact
linear dispersion relation of the stratified Euler equations for d_n.
The printed d_8 is a misprint; criterion 2 shows this from the printed
list alone before it replaces that one entry.  The reconciliation
report (criterion 3) compares the printed tables point-wise under its
own 5% rule and classifies d_6 and d_8 as DISCREPANT without failing.
"""

import itertools
import math
import os
import subprocess
import sys
from decimal import Decimal

import numpy as np
from scipy.linalg import eigh_tridiagonal

import wavetank as wt
from wavetank import verification as V
from wavetank.coefficients import build_coefficients, reconcile_with_reference
from wavetank.fields import cross_section, export, synthesize, write_mode_file
from wavetank.modes import (build_constant_n_basis, project_profile, simpson_grid,
                            weighted_inner_product)
from wavetank.reference_tables import (MCEWAN_DEPTH, MCEWAN_MODES, MCEWAN_N,
                                       REFERENCE_C, REFERENCE_D)
from wavetank.scenario import build_initial_state, mcewan_default
from wavetank.solver import SchemeParams, advance

MCEWAN_STRAT = wt.Stratification(MCEWAN_N, MCEWAN_DEPTH)

ACCEPTANCE_LINES = []  # echoed by conftest in the terminal summary


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    ACCEPTANCE_LINES.append(line)
    return ok


def printed_interval(r):
    """Interval [lo, hi) of the values that print as the reference entry
    `r` at its own significant figures, rounded half up.

    The figures are those of the shortest decimal repr of `r`.  An entry
    whose digits are a 1 followed by zeros ("1e-06") reaches down only
    half a unit of the decade below (9.5e-7), since 9.4e-7 prints as
    9e-7.
    """
    d = Decimal(repr(r))
    k = len(d.as_tuple().digits)
    ulp = Decimal(1).scaleb(d.adjusted() - k + 1)
    below = ulp / 10 if d == ulp.scaleb(k - 1) else ulp
    return d - below / 2, d + ulp / 2


def prints_as(x, r, rtol):
    """True if some value within `rtol` of `x` prints as the entry `r`."""
    lo, hi = printed_interval(r)
    x, rtol = Decimal(repr(float(x))), Decimal(repr(rtol))
    return lo <= x * (1 + rtol) and x * (1 - rtol) < hi


def test_prints_as_edges():
    assert prints_as(0.0245, 0.025, 0) and not prints_as(0.02449, 0.025, 0)
    assert prints_as(9.5e-7, 1e-6, 0) and not prints_as(9.4e-7, 1e-6, 0)
    assert prints_as(0.045, 0.05, 0) and not prints_as(0.0449, 0.05, 0)


def power_law_exponents(entries):
    """Open range (lo, hi) of exponents p for which some A n^-p prints as
    every entry of `entries` ({n: r}); empty when lo >= hi.

    A n^-p lies in [a_n, b_n) for every n exactly when a_m m^p < b_n n^p
    for every pair (m, n), and each pair m < n bounds p on both sides.
    """
    lo, hi = -math.inf, math.inf
    for (m, rm), (n, rn) in itertools.combinations(sorted(entries.items()), 2):
        am, bm = map(float, printed_interval(rm))
        an, bn = map(float, printed_interval(rn))
        s = math.log(n / m)
        lo = max(lo, math.log(am / bn) / s)
        hi = min(hi, math.log(bm / an) / s)
    return lo, hi


def reading(symbol, values, table, rtol):
    """Whether every value prints as its entry within `rtol`, and a
    per-entry report: computed value, printed entry and its interval,
    with the entries that miss marked."""
    parts, ok = [], True
    for n, v in zip(MCEWAN_MODES, values):
        lo, hi = printed_interval(table[n])
        hit = prints_as(v, table[n], rtol)
        ok = ok and hit
        parts.append(f"{symbol}_{n} {v:.4g} vs {table[n]!r} "
                     f"[{float(lo):.3g}, {float(hi):.3g}){'' if hit else ' MISS'}")
    return ok, ", ".join(parts)


def test_criterion_1_phase_speeds():
    """c_2..c_10 print as the reference list within 2 percent, and agree
    within 1e-5 with the eigenvalues of the second-difference
    Sturm-Liouville problem."""
    basis = build_constant_n_basis(MCEWAN_STRAT, MCEWAN_MODES)
    printed, entries = reading("c", basis.speeds, REFERENCE_C, 0.02)

    # Z'' + (N/c)^2 Z = 0 with Z(0) = Z(h) = 0 on 4000 intervals: the ten
    # lowest eigenvalues of -Z'' are (N/c_n)^2 for n = 1..10.
    intervals = 4000
    dz = MCEWAN_DEPTH / intervals
    lam = eigh_tridiagonal(np.full(intervals - 1, 2.0 / dz**2),
                           np.full(intervals - 2, -1.0 / dz**2),
                           eigvals_only=True, select="i", select_range=(0, 9))
    c_eig = MCEWAN_N / np.sqrt(lam[np.asarray(MCEWAN_MODES) - 1])
    eig_rel = float(np.max(np.abs(basis.speeds / c_eig - 1.0)))

    detail = entries + f"; eigenproblem worst {eig_rel:.1e} (tol 1e-5)"
    ok = report(1, "phase speeds print as reference within 2% and match "
                   "the eigenproblem", printed and eig_rel <= 1e-5, detail)
    assert ok, detail


def test_criterion_2_dispersion_coefficients():
    """d_2..d_10 print as the reference list within 10 percent, after the
    misprinted d_8 is shown and replaced, and agree within 1e-6 with the
    k^3 coefficient of the exact linear dispersion relation."""
    basis = build_constant_n_basis(MCEWAN_STRAT, MCEWAN_MODES)
    d = wt.dispersion_coeffs(basis)

    def fits(entries):
        lo, hi = power_law_exponents(entries)
        return lo < hi

    # The printed d_8 = 1e-6 is a misprint.  For constant N the modes are
    # self-similar in n (Z_n = sin(n pi z/h), c_n = c_1/n), so every
    # dispersion coefficient of the model follows a power law d ~ n^-p.
    # At their printed precision d_2, d_4, d_6 and d_10 share p in
    # (2.86, 3.10), which holds the model's p = 3; d_8 needs p < 2.78 to
    # fit d_2 and p > 4.47 to fit d_10, and it is the only entry whose
    # removal leaves a common p.  The list's own c_8 = 0.012 gives
    # c_8^3/(2 N^2) = 5.7e-7, which prints as 6e-7.
    assert not fits(REFERENCE_D), "printed d_n now share a power law"
    off_law = [n for n in MCEWAN_MODES
               if fits({m: r for m, r in REFERENCE_D.items() if m != n})]
    assert off_law == [8], f"entries off the common n^-p law: {off_law}"
    assert prints_as(REFERENCE_C[8]**3 / (2.0 * MCEWAN_N**2), 6e-7, 0.0)
    reference = {**REFERENCE_D, 8: 6e-7}
    lo, hi = power_law_exponents(reference)
    assert lo < 3.0 < hi, f"corrected list admits only p in ({lo:.3f}, {hi:.3f})"
    printed, entries = reading("d", d, reference, 0.10)

    # c_n k - omega(k) = d_n k^3 (1 - (3/4)(k/m)^2 + ...) for the exact
    # relation omega = N k / sqrt(k^2 + m^2), m = n pi/h, whose slope at
    # k = 0 is c_n = N/m; at k/m = 1e-3 the truncation is 7.5e-7.
    m = np.asarray(MCEWAN_MODES) * np.pi / MCEWAN_DEPTH
    k = 1e-3 * m
    omega = MCEWAN_N * k / np.sqrt(k**2 + m**2)
    d_exact = (MCEWAN_N / m * k - omega) / k**3
    exact_rel = float(np.max(np.abs(d / d_exact - 1.0)))

    detail = (entries + "; d_8 read as 6e-7 (printed 1e-6)"
              + f"; dispersion relation worst {exact_rel:.1e} (tol 1e-6)")
    ok = report(2, "dispersion coefficients print as reference within 10% "
                   "and match the dispersion relation",
                printed and exact_rel <= 1e-6, detail)
    assert ok, detail


def test_criterion_3_coefficient_consistency(tmp_path):
    """Quadrature/closed-form 1e-8 agreement, exact zero mask, spot
    values classified, reconciliation report covering every entry."""
    basis = build_constant_n_basis(wt.Stratification(1.23, 0.25),
                                   (2, 4, 6, 8, 10))
    g_quad = wt.nonlinear_coeffs(basis, method="quadrature")
    g_closed = wt.nonlinear_coeffs(basis, method="closed_form")
    scale = np.maximum(1.0, np.abs(g_closed))
    internal = float(np.max(np.abs(g_quad - g_closed) / scale))

    coeffs = build_coefficients(basis)
    rec = reconcile_with_reference(coeffs)
    path = tmp_path / "reconciliation.dat"
    path.write_text(rec.to_text())

    by_label = {e.label: e for e in rec.entries}
    spot1 = by_label["g[2][2,4]"]
    spot2 = by_label["g[4][2,2]"]
    n_g_entries = sum(1 for e in rec.entries if e.quantity == "g")

    ok = (
        internal <= 1e-8
        and rec.mask_matches
        and spot1.status in ("CONFIRMED", "DISCREPANT")
        and spot2.status in ("CONFIRMED", "DISCREPANT")
        and len(rec.entries) == n_g_entries + 10
        and path.stat().st_size > 0
    )
    report(3, "coefficient internal consistency and reconciliation", ok,
           f"quad/closed worst {internal:.2e}, mask match {rec.mask_matches}, "
           f"g[2][2,4] {spot1.status} at {spot1.rel_diff * 100:.2f}%, "
           f"g[4][2,2] {spot2.status} at {spot2.rel_diff * 100:.2f}%")
    assert internal <= 1e-8
    assert rec.mask_matches, f"mask mismatches: {rec.mask_mismatches}"
    assert spot1.status == "CONFIRMED" and spot1.rel_diff <= 0.05
    assert spot2.status == "CONFIRMED" and spot2.rel_diff <= 0.05
    assert path.stat().st_size > 0


def test_criterion_4_orthonormality_suite():
    """All basis pairs within 1e-10 of the identity; odd-mode paddle
    projections below 1e-12."""
    strat = wt.Stratification(1.23, 0.25)
    basis = build_constant_n_basis(strat, (2, 4, 6, 8, 10))
    zmat = basis.evaluate(simpson_grid(strat.depth)[0])
    worst = 0.0
    for i in range(5):
        for j in range(5):
            val = weighted_inner_product(zmat[i], zmat[j], strat)
            worst = max(worst, abs(val - (1.0 if i == j else 0.0)))

    cfg = mcewan_default()
    odd_basis = build_constant_n_basis(strat, (1, 3, 5, 7, 9))
    proj = project_profile(lambda zz: cfg.paddle.phi2(zz, strat), odd_basis)
    odd_worst = float(np.max(np.abs(proj.coefficients)))

    ok = worst <= 1e-10 and odd_worst < 1e-12
    report(4, "orthonormality and odd-mode suppression", ok,
           f"pair worst {worst:.2e}, odd projection worst {odd_worst:.2e}")
    assert worst <= 1e-10
    assert odd_worst < 1e-12


def test_criterion_5_soliton_propagation_orders():
    """100 transit times: finest relative L2 error <= 1e-3 with
    two-stage spatial order in [1.8, 2.2]; one-stage temporal order in
    [0.8, 1.2]."""
    spatial = V.measure_spatial_convergence()  # 100 transits by default
    finest = spatial.levels[-1]
    temporal = V.measure_temporal_convergence()

    ok = (
        spatial.order_within(1.8, 2.2)
        and finest.stable
        and finest.rel_norm <= 1e-3
        and temporal.order_within(0.8, 1.2)
    )
    report(5, "soliton propagation and convergence orders", ok,
           f"p_h {spatial.fitted_order:.3f} (resid {spatial.fit_residual:.3f}), "
           f"finest rel L2 {finest.rel_norm:.2e}, "
           f"p_tau {temporal.fitted_order:.3f}")
    assert spatial.order_within(1.8, 2.2)
    assert finest.rel_norm <= 1e-3
    assert temporal.order_within(0.8, 1.2)


def test_criterion_6_conservation():
    """1e5-step single-mode run: mass drift <= 1e-12*steps*max|theta|,
    and the L2 energy drift halves when tau halves (one-stage time
    error is first order; the two-stage pair's energy error is
    higher-order and would vanish into the spatial term)."""
    orc = V.kdv_soliton_oracle(c=1.0, g=1.2, d=0.1, amplitude=1.0,
                               x0=6.0, domain=12.0)
    grid = orc.grid(16)
    coeffs = orc.coeffs
    state = orc.state(grid, 0.0)
    tau0, steps = 1.2e-5, 100_000
    horizon = steps * tau0

    _, rep1 = advance(state, coeffs, grid,
                      SchemeParams(tau=tau0, scheme=wt.ONE_STAGE),
                      horizon, observe_every=10_000)
    _, rep2 = advance(state, coeffs, grid,
                      SchemeParams(tau=tau0 / 2, scheme=wt.ONE_STAGE),
                      horizon, observe_every=20_000)
    a1 = V.conservation_audit(rep1)
    a2 = V.conservation_audit(rep2)
    mass_tol = 1e-12 * steps * float(np.max(np.abs(state.theta)))
    ratio = a1.final_l2_drift / a2.final_l2_drift

    ok = a1.max_mass_drift <= mass_tol and 1.7 <= ratio <= 2.3
    report(6, "conservation over 1e5 steps", ok,
           f"mass drift {a1.max_mass_drift:.2e} (tol {mass_tol:.2e}), "
           f"L2-drift ratio {ratio:.3f}")
    assert a1.max_mass_drift <= mass_tol
    assert 1.7 <= ratio <= 2.3


def test_criterion_7_fission_census():
    """Canonical 2 sech^2 and 6 sech^2 pulses shed exactly 1 and 2
    solitons, matching the scattering-eigenvalue oracle."""
    coeffs = V.single_mode_coefficients(c=0.3, g=6.0, d=1.0)
    rep1 = V.fission_census(coeffs, amplitude=2.0, width=1.0, t_end=1.5)
    rep2 = V.fission_census(coeffs, amplitude=6.0, width=1.0, t_end=1.5)

    ok = (
        rep1.predicted_count == 1 and rep1.detected_count == 1
        and rep1.persistent
        and rep2.predicted_count == 2 and rep2.detected_count == 2
        and rep2.persistent
    )
    report(7, "soliton fission census", ok,
           f"2sech^2: {rep1.predicted_count}/{rep1.detected_count}, "
           f"6sech^2: {rep2.predicted_count}/{rep2.detected_count}, "
           f"amplitudes {[round(a, 2) for a in rep2.crest_amplitudes]}")
    assert rep1.predicted_count == 1 and rep1.detected_count == 1
    assert rep2.predicted_count == 2 and rep2.detected_count == 2
    assert rep1.persistent and rep2.persistent


def test_criterion_8_mcewan_end_to_end(tmp_path):
    """Five-mode reference run to t = 0.02: finishes finite, emits the
    mode/field files (mode files read back bit-exactly), walls exactly
    zero, and the t = 0 mid-tank cross-section reproduces the truncated
    paddle profile within the reported truncation residual."""
    cfg = mcewan_default()
    basis = cfg.basis()
    coeffs = build_coefficients(basis, sigma=cfg.sigma, beta2=cfg.beta2)
    state0, projection = build_initial_state(cfg, basis)

    # t = 0 cross-section against the truncated and the full paddle
    snap0 = synthesize(basis, state0, cfg.grid, z_points=257)
    xs = cross_section(snap0, 0.0)
    truncated = (basis.synthesize(projection.coefficients, xs.z)
                 * cfg.paddle.periodic_phi1(xs.x_used, cfg.grid.length))
    full = (cfg.paddle.phi2(xs.z, cfg.strat)
            * cfg.paddle.periodic_phi1(xs.x_used, cfg.grid.length))
    trunc_err = float(np.max(np.abs(xs.values - truncated)))
    dz = xs.z[1] - xs.z[0]
    misfit = np.sqrt(np.sum((xs.values - full) ** 2) * dz)
    full_norm = np.sqrt(np.sum(full**2) * dz)
    residual_bound = (np.sqrt(projection.residual_fraction)
                      * full_norm * 1.1)

    final, run_rep = advance(state0, coeffs, cfg.grid, cfg.scheme, cfg.t_end)
    finite = bool(np.all(np.isfinite(final.theta)))

    snap = synthesize(basis, final, cfg.grid, z_points=257)
    wall = max(float(np.max(np.abs(snap.psi[0]))),
               float(np.max(np.abs(snap.psi[-1]))))
    wall_tol = 1e-14 * float(np.max(np.abs(snap.psi)))

    field_path = tmp_path / "mcewan_field.dat"
    export(snap, field_path)
    mode_paths = []
    for pos, n in enumerate(cfg.modes):
        p = tmp_path / f"mcewan_mode{n}.dat"
        write_mode_file(p, final, cfg.grid, pos, n)
        mode_paths.append(p)
    files_ok = field_path.stat().st_size > 0 and all(
        np.array_equal(np.loadtxt(p)[:, 1], final.theta[pos])
        for pos, p in enumerate(mode_paths))

    ok = (finite and files_ok and wall <= wall_tol
          and trunc_err <= 1e-12 * np.max(np.abs(truncated))
          and misfit <= residual_bound)
    report(8, "McEwan five-mode end-to-end", ok,
           f"steps {run_rep.steps}, wall zeros {wall:.2e} "
           f"(tol {wall_tol:.2e}), cross-section misfit {misfit:.2e} "
           f"within residual bound {residual_bound:.2e}")
    assert finite
    assert files_ok
    assert wall <= wall_tol
    assert trunc_err <= 1e-12 * np.max(np.abs(truncated))
    assert misfit <= residual_bound


def test_criterion_9_determinism(tmp_path):
    """Repeated CLI runs produce byte-identical data files."""
    # the subprocess imports the same wavetank package as this test
    src = os.path.dirname(os.path.dirname(wt.__file__))
    env = dict(os.environ, PYTHONWARNINGS="ignore", PYTHONPATH=src)
    for rid in ("da", "db"):
        proc = subprocess.run(
            [sys.executable, "-m", "wavetank.cli", "run", "--t-end", "0.002",
             "--out", str(tmp_path), "--run-id", rid],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
    d1, d2 = tmp_path / "da", tmp_path / "db"
    files1 = sorted(f for f in os.listdir(d1)
                    if f.endswith(".dat") or f == "config.cfg")
    files2 = sorted(f for f in os.listdir(d2)
                    if f.endswith(".dat") or f == "config.cfg")
    assert [f.replace("da_", "") for f in files1] == \
           [f.replace("db_", "") for f in files2]
    identical = all(
        (d1 / f1).read_bytes() == (d2 / f2).read_bytes()
        for f1, f2 in zip(files1, files2)
    )
    report(9, "byte-identical repeated runs", identical,
           f"{len(files1)} data files compared")
    assert identical
