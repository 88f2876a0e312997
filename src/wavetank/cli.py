"""Command-line entry point.

Subcommands: run | coeffs | converge | verify | fission.  Exit codes:
0 success, 1 check failure (including a coefficient ConsistencyError),
2 usage/config error (including a config file the parser cannot read,
a non-finite scenario value, an N and depth that put the mode basis or
the coupling scale outside the float range, a `--dx` that does not
divide the domain, and a snapshot name that would overwrite another
snapshot of the same run), 3 numerical abort (non-finite state).  Data
files are byte-reproducible; wall-clock information only ever lands in
the metadata sidecar.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import fields, scenario, verification
from . import reference_tables as ref
from .coefficients import (
    ConsistencyError,
    build_coefficients,
    reconcile_with_reference,
)
from .fields import FMT
from .solver import (
    Grid,
    NonFiniteError,
    ONE_STAGE,
    SchemeParams,
    TWO_STAGE,
    advance,
    stable_tau,
    step_count,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(
        prog="wavetank",
        description="Waveguide-mode / coupled-KdV internal-wave pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", metavar="DIR",
                       help="output directory (default: $CKDV_OUT or ./out)")
        p.add_argument("--run-id", default="run", help="filesystem-safe run name")

    def scenario_file(p):
        p.add_argument("--config", metavar="PATH", help="scenario config file")
        common(p)

    run = sub.add_parser("run", help="integrate a scenario and emit snapshots")
    scenario_file(run)
    run.add_argument("--t-end", type=float, metavar="S")
    run.add_argument("--dx", type=float, metavar="M")
    run.add_argument("--dt", type=float, metavar="S")
    run.add_argument("--modes", metavar="LIST",
                     help="comma-separated mode numbers, e.g. 2,4,6")
    run.add_argument("--scheme", choices=[TWO_STAGE, ONE_STAGE])
    run.add_argument("--snapshot-every", type=int, metavar="N")

    coeffs = sub.add_parser("coeffs", help="emit c/d/g tables and the "
                                           "reconciliation report")
    scenario_file(coeffs)
    coeffs.add_argument("--modes", metavar="LIST")

    conv = sub.add_parser("converge", help="measure empirical convergence orders")
    common(conv)
    conv.add_argument("--scheme", choices=[TWO_STAGE, ONE_STAGE],
                      default=TWO_STAGE)

    ver = sub.add_parser("verify", help="run the verification checks")
    common(ver)

    fis = sub.add_parser("fission", help="soliton fission census vs the "
                                         "scattering oracle")
    common(fis)
    return parser


def _out_dir(args):
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.run_id):
        raise UsageError(f"run-id {args.run_id!r} is not filesystem-safe")
    root = args.out or os.environ.get("CKDV_OUT") or "out"
    path = os.path.join(root, args.run_id)
    os.makedirs(path, exist_ok=True)
    return path


def _load_scenario(args):
    cfg = scenario.load_config(args.config) if args.config else scenario.mcewan_default()
    # an empty --modes "" must reach `validate`, not run the default modes
    if getattr(args, "modes", None) is not None:
        try:
            modes = scenario.parse_modes(args.modes)
        except ValueError:
            raise UsageError(f"cannot parse --modes {args.modes!r}")
        cfg = replace(cfg, modes=modes)
    if getattr(args, "t_end", None) is not None:
        cfg = replace(cfg, t_end=args.t_end)
    if getattr(args, "dx", None) is not None:
        # dx must tile the configured domain; rounding the cell count
        # would silently run a different tank
        if not args.dx > 0:
            raise ValueError(f"--dx must be positive, got {args.dx:g}")
        cells = cfg.grid.length / args.dx
        n = int(round(cells))
        if abs(cells - n) > 1e-9 * cells:
            raise ValueError(
                f"--dx {args.dx:g} does not divide the domain length "
                f"{cfg.grid.length:.17g} m: {n} cells would give a length "
                f"of {n * args.dx:.17g} m")
        cfg = replace(cfg, grid=Grid(h_x=args.dx, n_points=n, x0=cfg.grid.x0))
    if getattr(args, "dt", None) is not None:
        cfg = replace(cfg, scheme=replace(cfg.scheme, tau=args.dt))
    if getattr(args, "scheme", None):
        cfg = replace(cfg, scheme=replace(cfg.scheme, scheme=args.scheme))
    if getattr(args, "snapshot_every", None) is not None:
        cfg = replace(cfg, snapshot_every=args.snapshot_every)
    return cfg


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _rejected(violations):
    """Print each violation as a `config error:` line; True if any."""
    for v in violations:
        print(f"config error: {v}", file=sys.stderr)
    return bool(violations)


def cmd_run(args):
    cfg = _load_scenario(args)
    if _rejected(scenario.validate(cfg)):
        return 2
    out = _out_dir(args)
    _write(os.path.join(out, "config.cfg"), scenario.serialize_config(cfg))

    basis = cfg.basis()
    coeffs = build_coefficients(basis, sigma=cfg.sigma, beta2=cfg.beta2)
    state, projection = scenario.build_initial_state(cfg, basis)
    limit = stable_tau(coeffs, cfg.grid, cfg.scheme.scheme, cfg.t_end)
    if cfg.scheme.tau > limit:
        warnings.warn(
            f"dt = {cfg.scheme.tau:.3e} exceeds the {cfg.scheme.scheme} "
            f"stable_tau = {limit:.3e} for t_end = {cfg.t_end:g}",
            RuntimeWarning,
            stacklevel=2,
        )

    last_step = step_count(state.time, cfg.t_end, cfg.scheme.tau)
    written = {}

    def snapshot(step, st):
        name = fields.state_filename(args.run_id, step, last_step)
        if name in written:  # would overwrite an earlier snapshot
            raise FileExistsError(
                f"snapshot {name} of step {step} would overwrite the one "
                f"of step {written[name]}")
        written[name] = step
        fields.write_state_file(os.path.join(out, name), st, cfg.grid,
                                cfg.scheme.scheme, step)

    final, report = advance(state, coeffs, cfg.grid, cfg.scheme, cfg.t_end,
                            observers=[snapshot],
                            observe_every=cfg.snapshot_every)

    for pos, n in enumerate(cfg.modes):
        fields.write_mode_file(
            os.path.join(out, fields.mode_filename(args.run_id, final.time, n)),
            final, cfg.grid, pos, n)

    snap = fields.synthesize(basis, final, cfg.grid)
    fields.export(snap, os.path.join(out, fields.field_filename(args.run_id, final.time)))
    xsec = fields.cross_section(snap, cfg.grid.x0 + cfg.grid.length / 2.0)
    fields.write_table(
        os.path.join(out, fields.xsec_filename(args.run_id, final.time)),
        [f"# time = {FMT % final.time}",
         f"# x_requested = {FMT % xsec.x_requested} "
         f"x_used = {FMT % xsec.x_used} rule = {xsec.rule}",
         "# columns: z psi"],
        np.column_stack([xsec.z, xsec.values]))

    audit = verification.conservation_audit(report)
    # a stable_tau below the float range reads 0, which every tau exceeds
    over_limit = report.tau / limit if limit else math.inf
    meta = [
        f"run_id = {args.run_id}",
        f"scheme = {report.scheme}",
        f"tau = {FMT % report.tau}",
        f"stable_tau = {FMT % limit}",
        f"tau_over_stable_tau = {FMT % over_limit}",
        f"steps = {report.steps}",
        f"wall_time_s = {report.wall_time:.3f}",
        f"final_time = {FMT % final.time}",
        f"max_mass_drift = {FMT % audit.max_mass_drift}",
        f"max_l2_relative_drift = {FMT % audit.max_l2_drift}",
        f"captured_energy_fraction = {FMT % projection.captured_fraction}",
        "truncation_residual_fraction = "
        + (FMT % projection.residual_fraction),
        "resolved config:",
    ]
    meta.extend("  " + line for line in
                scenario.serialize_config(cfg).splitlines())
    meta.append("conserved series (time, mass per mode, l2 per mode):")
    fields.write_table(os.path.join(out, f"{args.run_id}_meta.txt"), meta,
                       np.column_stack([report.times, report.mass, report.l2]))
    print(f"run complete: {report.steps} steps to t = {final.time:.6g}, "
          f"outputs in {out}")
    return 0


def cmd_coeffs(args):
    cfg = _load_scenario(args)
    if _rejected(scenario.validate_coefficients(cfg)):
        return 2
    out = _out_dir(args)
    basis = cfg.basis()
    coeffs = build_coefficients(basis, sigma=cfg.sigma, beta2=cfg.beta2,
                                method="quadrature")

    idx = np.asarray(basis.indices, dtype=float)
    fields.write_table(os.path.join(out, "cd_table.dat"),
                       ["# columns: mode c[m/s] d[m^3/s] B"],
                       np.column_stack([idx, coeffs.c, coeffs.d, basis.amplitudes]))
    n, m, k = (a.ravel() for a in np.meshgrid(idx, idx, idx, indexing="ij"))
    fields.write_table(os.path.join(out, "g_tensor.dat"),
                       ["# columns: n m k g"],
                       np.column_stack([n, m, k, coeffs.g.ravel()]))

    summary = [f"coefficients for modes {basis.indices}: tables in {out}"]
    if (tuple(basis.indices) == ref.MCEWAN_MODES
            and np.isclose(basis.strat.N, ref.MCEWAN_N)
            and np.isclose(basis.strat.depth, ref.MCEWAN_DEPTH)):
        report = reconcile_with_reference(coeffs)
        _write(os.path.join(out, "reconciliation.dat"), report.to_text())
        n_conf = sum(1 for e in report.entries if e.status == "CONFIRMED")
        summary.append(
            f"reconciliation: {n_conf}/{len(report.entries)} entries CONFIRMED, "
            f"{len(report.discrepant)} DISCREPANT "
            f"(documented in reconciliation.dat); "
            f"zero mask matches: {report.mask_matches}"
        )
    print("\n".join(summary))
    return 0


def cmd_converge(args):
    out = _out_dir(args)
    if args.scheme == TWO_STAGE:
        # reduced horizon keeps the command interactive; the acceptance
        # suite runs the full 100-transit study through the library
        report = verification.measure_spatial_convergence(n_transits=40)
        window = (1.8, 2.2)
    else:
        report = verification.measure_temporal_convergence()
        window = (0.8, 1.2)
    _write(os.path.join(out, f"convergence_{report.kind}_{args.scheme}.dat"),
           report.to_text())
    order = report.fitted_order
    ok = (order is not None and window[0] <= order <= window[1]
          and report.asymptotic)
    print(f"{report.kind} order ({args.scheme}): "
          f"{'n/a' if order is None else f'{order:.3f}'} "
          f"expected in [{window[0]}, {window[1]}] "
          f"fit residual {report.fit_residual if report.fit_residual is None else round(report.fit_residual, 4)} "
          f"-> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_verify(args):
    from .modes import (Stratification, build_constant_n_basis, simpson_grid,
                        weighted_inner_product)

    out = _out_dir(args)
    checks = []

    strat = Stratification(N=ref.MCEWAN_N, depth=ref.MCEWAN_DEPTH)
    basis = build_constant_n_basis(strat, ref.MCEWAN_MODES)
    worst = 0.0
    zmat = basis.evaluate(simpson_grid(strat.depth)[0])
    for i in range(basis.n_modes):
        for j in range(basis.n_modes):
            val = weighted_inner_product(zmat[i], zmat[j], strat)
            worst = max(worst, abs(val - (1.0 if i == j else 0.0)))
    checks.append(("orthonormality <= 1e-10", worst <= 1e-10, f"worst {worst:.3e}"))

    orc = verification.kdv_soliton_oracle(c=1.0, g=6.0, d=1.0, amplitude=2.0)
    checks.append(("soliton oracle residual <= 1e-9 (relative)",
                   orc.residual_relative <= 1e-9,
                   f"residual {orc.residual_relative:.3e}"))

    wave = verification.kdv_soliton_oracle(c=1.0, g=1.2, d=0.1, amplitude=1.0,
                                           x0=6.0, domain=12.0)
    grid = wave.grid(16)
    tau = stable_tau(wave.coeffs, grid, TWO_STAGE, 2.4)
    state = wave.state(grid, 0.0)
    _, report = advance(state, wave.coeffs, grid, SchemeParams(tau=tau),
                        2.4, observe_every=2000)
    audit = verification.conservation_audit(report)
    tol = 1e-12 * report.steps * float(np.max(np.abs(state.theta)))
    checks.append(("mass drift <= 1e-12 * steps * max|theta|",
                   audit.max_mass_drift <= tol,
                   f"drift {audit.max_mass_drift:.3e} tol {tol:.3e}"))

    probe_wave = verification.kdv_soliton_oracle(
        c=0.0, g=6.0, d=1.0, amplitude=2.0, x0=8.0, domain=16.0)
    probe_grid = probe_wave.grid(8)
    probe = verification.stability_probe(
        probe_grid, probe_wave.coeffs, (0.5, 1.0, 2.0, 4.0, 8.0),
        probe_wave.state(probe_grid, 0.0), horizon=2.5)
    checks.append(("tau / stable_tau <= 1 stable, verdicts monotone",
                   probe.monotone and probe.max_stable_ratio >= 1.0,
                   f"ratios {probe.ratios} verdicts {probe.verdicts}"))

    pair = verification.integrable_pair_check()
    order = pair.convergence.fitted_order
    checks.append(("coupled travelling pair order in [1.8, 2.2], "
                   "reversal <= 2x forward error", pair.ok,
                   f"order {None if order is None else round(order, 3)} "
                   f"reversal {pair.reversal_error:.3e} "
                   f"forward {pair.forward_error:.3e}"))

    lines = []
    rows = ["check\tstatus\tdetail"]
    all_ok = True
    for name, ok, detail in checks:
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
        rows.append(f"{name}\t{'PASS' if ok else 'FAIL'}\t{detail}")
        all_ok = all_ok and ok
    text = "\n".join(lines)
    print(text)
    _write(os.path.join(out, "verify_summary.txt"), text + "\n")
    _write(os.path.join(out, "verify_checks.dat"), "\n".join(rows) + "\n")
    return 0 if all_ok else 1


def cmd_fission(args):
    out = _out_dir(args)
    coeffs = verification.single_mode_coefficients(c=0.3, g=6.0, d=1.0)
    lines = []
    rows = ["amplitude\twidth\tstrength\tpredicted\tdetected\tpersistent\tcrest_amplitudes"]
    ok = True
    for amp, expected in ((2.0, 1), (6.0, 2)):
        rep = verification.fission_census(coeffs, amplitude=amp, width=1.0,
                                          t_end=1.5)
        good = (rep.predicted_count == expected
                and rep.detected_count == rep.predicted_count
                and rep.persistent)
        ok = ok and good
        lines.append(
            f"{'PASS' if good else 'FAIL'}  {amp:g}*sech^2 pulse: predicted "
            f"{rep.predicted_count}, detected {rep.detected_count} "
            f"(persistent={rep.persistent}, crests={[round(a, 3) for a in rep.crest_amplitudes]})"
        )
        rows.append(
            f"{FMT % rep.amplitude}\t{FMT % rep.width}\t{FMT % rep.strength}\t"
            f"{rep.predicted_count}\t{rep.detected_count}\t{rep.persistent}\t"
            + ",".join([FMT] * len(rep.crest_amplitudes))
            % tuple(rep.crest_amplitudes)
        )
    text = "\n".join(lines)
    print(text)
    _write(os.path.join(out, "fission_report.txt"), text + "\n")
    _write(os.path.join(out, "fission_census.dat"), "\n".join(rows) + "\n")
    return 0 if ok else 1


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        handler = {
            "run": cmd_run,
            "coeffs": cmd_coeffs,
            "converge": cmd_converge,
            "verify": cmd_verify,
            "fission": cmd_fission,
        }[args.command]
        return handler(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ConsistencyError as err:
        print(f"check failure: {err}", file=sys.stderr)
        return 1
    except NonFiniteError as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
