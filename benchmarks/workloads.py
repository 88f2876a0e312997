"""The three benchmark workloads.

Each workload has ``setup()`` (timed as part of ``setup_s``: it builds
the inputs a fresh ``wavetank run`` would), ``run(index)`` (one timed
workload run of fixed work) and ``check(outcome)`` (untimed;
returns the names of the correctness checks that failed).  Every call
into wavetank goes through a module attribute (``cli.main``,
``solver.advance``, ...) so that the tracer's wrappers see it.

The seed only perturbs inputs in ways that leave the work per run and
every correctness verdict unchanged: the paddle amplitude and centre
height by a few percent, and the fission pulse amplitudes by 2 %.
"""

import hashlib
import os
import random
import shutil
from dataclasses import replace

import numpy as np

import wavetank.cli as cli
from wavetank import coefficients, fields, scenario, solver, verification

CONSISTENCY_RTOL = 1e-8


def _perturbed_paddle(cfg, rng):
    paddle = cfg.paddle
    return replace(cfg, paddle=replace(
        paddle,
        a=paddle.a * (1.0 + 0.03 * rng.uniform(-1.0, 1.0)),
        z0=paddle.z0 * (1.0 + 0.02 * rng.uniform(-1.0, 1.0)),
    ))


def _field_wall_failures(path):
    """The first and last z rows of an exported field must be exact zeros."""
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("z\\x"):
                continue
            rows.append(line.split()[1:])
    walls = np.array([rows[0], rows[-1]], dtype=float)
    return [] if np.all(walls == 0.0) else ["field wall rows not exactly zero"]


class McEwan:
    """The paper's reference run, in-process through the CLI entry point."""

    name = "mcewan"

    def __init__(self, seed, scratch):
        self.scratch = scratch
        self.cfg = _perturbed_paddle(scenario.mcewan_default(), random.Random(seed))
        self.config_path = os.path.join(scratch, "mcewan.cfg")
        self.reference = None
        self.info = {"paddle_a": self.cfg.paddle.a, "paddle_z0": self.cfg.paddle.z0}

    def setup(self):
        with open(self.config_path, "w") as fh:
            fh.write(scenario.serialize_config(self.cfg))
        basis = self.cfg.basis()
        coefficients.build_coefficients(basis, sigma=self.cfg.sigma,
                                        beta2=self.cfg.beta2)
        state, _ = scenario.build_initial_state(self.cfg, basis)
        return [] if np.all(np.isfinite(state.theta)) else ["initial state not finite"]

    def run(self, index):
        run_id = f"run{index:04d}"
        return run_id, cli.main(["run", "--config", self.config_path,
                                 "--out", self.scratch, "--run-id", run_id])

    def check(self, outcome):
        run_id, code = outcome
        out = os.path.join(self.scratch, run_id)
        try:
            if code != 0:
                return [f"exit code {code}"]
            names = sorted(os.listdir(out))
            failures = []
            if (sum("_mode" in n for n in names) != len(self.cfg.modes)
                    or not any(n.endswith("_field.dat") for n in names)):
                failures.append(f"missing output files: {names}")
            digests = {}
            for name in names:
                path = os.path.join(out, name)
                if "_mode" in name:
                    theta = np.loadtxt(path, comments="#")[:, 1]
                    if not np.all(np.isfinite(theta)):
                        failures.append(f"{name}: final state not finite")
                if name.endswith("_field.dat"):
                    failures += _field_wall_failures(path)
                if name.endswith(".dat") or name == "config.cfg":
                    with open(path, "rb") as fh:
                        digests[name.removeprefix(run_id)] = hashlib.sha256(
                            fh.read()).hexdigest()
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                failures.append("output files differ from the first run's bytes")
            return failures
        finally:
            shutil.rmtree(out, ignore_errors=True)


class SingleMode:
    """Fission census (criterion 7) plus the one-stage temporal-order
    study (the temporal half of criterion 5), all on the L = 1 path."""

    name = "single-mode"
    PULSES = ((2.0, 1), (6.0, 2))       # (amplitude, expected soliton count)
    C, G, D, WIDTH, T_END = 0.3, 6.0, 1.0, 1.0, 1.5
    ORDER_WINDOW = (0.8, 1.2)

    def __init__(self, seed, scratch):
        rng = random.Random(seed)
        self.amplitudes = [a * (1.0 + 0.02 * rng.uniform(-1.0, 1.0))
                           for a, _ in self.PULSES]
        self.info = {"pulse_amplitudes": self.amplitudes}

    def setup(self):
        self.coeffs = verification.single_mode_coefficients(self.C, self.G, self.D)
        self.predicted = [
            verification.scattering_bound_states(verification.canonical_pulse_strength(
                a, self.WIDTH, self.G, self.D))
            for a in self.amplitudes]
        expected = [n for _, n in self.PULSES]
        return [] if self.predicted == expected else [
            f"scattering oracle predicts {self.predicted}, expected {expected}"]

    def run(self, index):
        census = [verification.fission_census(self.coeffs, amplitude=a,
                                              width=self.WIDTH, t_end=self.T_END)
                  for a in self.amplitudes]
        return census, verification.measure_temporal_convergence()

    def check(self, outcome):
        census, conv = outcome
        failures = []
        for rep, predicted in zip(census, self.predicted):
            if not (rep.predicted_count == predicted
                    and rep.detected_count == predicted and rep.persistent):
                failures.append(
                    f"census at amplitude {rep.amplitude:.4g}: predicted "
                    f"{rep.predicted_count}, detected {rep.detected_count}, "
                    f"persistent {rep.persistent}")
        lo, hi = self.ORDER_WINDOW
        order = conv.fitted_order
        if order is None or not lo <= order <= hi or not conv.asymptotic:
            failures.append(f"temporal order {order} (asymptotic "
                            f"{conv.asymptotic}) outside [{lo}, {hi}]")
        return failures


class ManyModes:
    """The McEwan tank with modes 2, 4, ..., 64 (L = 32) for 150 steps,
    then one synthesis and export of the stream function."""

    name = "many-modes"
    MODES = tuple(range(2, 65, 2))
    STEPS = 150

    def __init__(self, seed, scratch):
        cfg = replace(scenario.mcewan_default(), modes=self.MODES)
        self.cfg = _perturbed_paddle(cfg, random.Random(seed))
        self.field_path = os.path.join(scratch, "many_modes_field.dat")
        self.info = {"paddle_a": self.cfg.paddle.a, "paddle_z0": self.cfg.paddle.z0}

    def setup(self):
        cfg = self.cfg
        self.basis = cfg.basis()
        failures = []
        # The default (quadrature) build is what `wavetank run --modes ...`
        # calls.  At L >= 8 it raises ConsistencyError (a known defect); the
        # solver is then measured with the closed-form tensor.
        try:
            default = coefficients.build_coefficients(
                self.basis, sigma=cfg.sigma, beta2=cfg.beta2)
            self.info["default_build"] = "ok"
        except coefficients.ConsistencyError:
            default = None
            self.info["default_build"] = "ConsistencyError"
        closed = coefficients.build_coefficients(
            self.basis, sigma=cfg.sigma, beta2=cfg.beta2, method="closed_form")
        if default is not None:
            worst = np.max(np.abs(default.g - closed.g)
                           / np.maximum(1.0, np.abs(closed.g)))
            if worst > CONSISTENCY_RTOL:
                failures.append(f"default build deviates {worst:.3e} from the "
                                f"closed form")
        self.coeffs = closed if default is None else default
        self.state, _ = scenario.build_initial_state(cfg, self.basis)
        if not np.all(np.isfinite(self.state.theta)):
            failures.append("initial state not finite")
        return failures

    def run(self, index):
        cfg = self.cfg
        final, report = solver.advance(self.state, self.coeffs, cfg.grid,
                                       cfg.scheme, self.STEPS * cfg.scheme.tau)
        snap = fields.synthesize(self.basis, final, cfg.grid)
        fields.export(snap, self.field_path)
        return final, report

    def check(self, outcome):
        final, report = outcome
        failures = []
        if report.steps != self.STEPS:
            failures.append(f"ran {report.steps} steps, expected {self.STEPS}")
        if not np.all(np.isfinite(final.theta)):
            failures.append("final state not finite")
        return failures + _field_wall_failures(self.field_path)


WORKLOADS = {w.name: w for w in (McEwan, SingleMode, ManyModes)}
