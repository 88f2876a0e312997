"""McEwan-style release scenarios: paddle-shaped initial data and full
run configurations.

The initial stream function is separable, psi(z, x, 0) = phi1(x) phi2(z)
with a sech pulse along x and an antisymmetric sech*tanh paddle profile
in z.  Projected onto the waveguide basis this gives
theta^n(x, 0) = (Z^n, phi2) phi1(x), sampled on the periodic ring as
phi1's image sum (`PaddleProfile.periodic_phi1`): phi1 itself wraps
with a jump in slope, whose grid-scale tail the explicit stages amplify.

The reference tank is 0.50 m long, 0.25 m deep, N = 1.23 1/s, modes
(2, 4, 6, 8, 10) (`reference_tables.MCEWAN_*`).  The pulse constants a, l, b, z0 are qualitative
paddle parameters, not reference values; the defaults below centre the
paddle at mid-depth, which kills every odd mode by symmetry.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

import numpy as np

from . import reference_tables as ref
from .fields import FMT
from .modes import Stratification, build_constant_n_basis, project_profile
from .solver import Grid, ModeState, SchemeParams, TWO_STAGE

__all__ = [
    "PaddleProfile",
    "ScenarioConfig",
    "mcewan_default",
    "validate",
    "validate_coefficients",
    "build_initial_state",
    "serialize_config",
    "parse_config",
    "parse_modes",
    "load_config",
]

MIN_POINTS_PER_PULSE = 10.0
MIN_DOMAIN_PULSE_RATIO = 8.0
# Above 2**53 steps neither the step index nor the clock t0 + j*dt is
# exact in double precision.
MAX_STEPS = 2**53
# Within this many cells of dx from 0 every grid point x0 + i dx is
# exact to 2**-26 of a cell, half of a double's 52 bits.
MAX_AXIS_CELLS = 2**26


@dataclass(frozen=True)
class PaddleProfile:
    """Separable initial disturbance: a/cosh(x/l) times the z-profile
    sqrt(2/(N^2 h)) sech(b (z - z0)) tanh(b (z - z0))."""

    a: float      # horizontal amplitude [m^2/s]
    l: float      # horizontal width [m]
    b: float      # vertical steepness [1/m]
    z0: float     # paddle centre height [m]

    def phi1(self, x):
        return _over_cosh(self.a, np.asarray(x, dtype=float) / self.l)

    def periodic_phi1(self, x, length):
        """phi1's periodic image sum on a ring of `length`,
        sum_{|j| <= J} phi1(x + j length), with x first reduced to
        [-length/2, length/2].  The images beyond J lie at least
        (J + 1/2) length away, where sech < 2 exp(-40), under half an ulp
        of the peak; so J = ceil(40 l / length - 1/2).  The images are
        added in pairs, smallest first, which keeps the sum even in x
        bit for bit."""
        x = np.asarray(x, dtype=float)
        x = x - length * np.round(x / length)
        images = 0.0
        for j in range(math.ceil(40.0 * self.l / length - 0.5), 0, -1):
            images = images + (self.phi1(x + j * length)
                               + self.phi1(x - j * length))
        return images + self.phi1(x)

    def phi2(self, z, strat):
        amp = np.sqrt(2.0 / (strat.N**2 * strat.depth))
        arg = self.b * (np.asarray(z, dtype=float) - self.z0)
        return _over_cosh(amp, arg) * np.tanh(arg)


def _over_cosh(amp, arg):
    """amp / cosh(arg), as amp 2 exp(-|arg|) where cosh would overflow
    (|arg| > 700): there the two are equal in double precision."""
    far = np.abs(arg) > 700.0
    return np.where(far, amp * (2.0 * np.exp(-np.abs(arg))),
                    amp / np.cosh(np.where(far, 0.0, arg)))


@dataclass(frozen=True)
class ScenarioConfig:
    strat: Stratification
    modes: tuple
    paddle: PaddleProfile
    grid: Grid
    scheme: SchemeParams
    t_end: float
    snapshot_every: int
    sigma: float = 1.0
    beta2: float = 1.0

    def basis(self):
        return build_constant_n_basis(self.strat, self.modes)


def mcewan_default():
    """Reference configuration: 50 cm x 25 cm tank, N = 1.23 1/s,
    modes (2, 4, 6, 8, 10), paddle at mid-depth, run to t = 0.02 s.

    a, l, b are qualitative defaults (pulse one tenth of the tank,
    vertical structure confined to the paddle region, stream-function
    amplitude of order 1e-4 m^2/s).  tau = 4e-5 s lies below the
    solver's `stable_tau` for this horizon (4.9e-5 s); a run continued
    at it goes non-finite in the half stage of step 4427 (t = 0.1771 s).
    """
    strat = Stratification(N=ref.MCEWAN_N, depth=ref.MCEWAN_DEPTH)
    paddle = PaddleProfile(a=4e-4, l=0.05, b=40.0, z0=strat.depth / 2.0)
    n_points = 256
    grid = Grid(h_x=0.5 / n_points, n_points=n_points, x0=-0.25)
    scheme = SchemeParams(tau=4e-5, scheme=TWO_STAGE)
    return ScenarioConfig(
        strat=strat,
        modes=ref.MCEWAN_MODES,
        paddle=paddle,
        grid=grid,
        scheme=scheme,
        t_end=0.02,
        snapshot_every=50,
    )


def _non_finite(values):
    """A violation for each non-finite entry of {name: value}."""
    return [f"{name}: must be finite, got {value}"
            for name, value in values.items() if not math.isfinite(value)]


def _mode_rules(cfg):
    if len(cfg.modes) == 0:
        return ["modes: list must not be empty"]
    if any(n < 1 for n in cfg.modes) or len(set(cfg.modes)) != len(cfg.modes):
        return [f"modes: indices must be distinct and >= 1, got {cfg.modes}"]
    return []


def _scale_rules(strat):
    """A violation unless N and depth give the mode basis and the
    coupling scale as finite, nonzero floats: the mode amplitude
    sqrt(2 / (N^2 depth)), the phase-speed scale N depth / pi and the
    resonance scale pi sqrt(2) / (4 N depth^1.5).  Outside that range
    the basis and the tables raise OverflowError or ZeroDivisionError
    on the way."""
    N, depth = np.float64(strat.N), np.float64(strat.depth)
    with np.errstate(all="ignore"):
        scales = {
            "mode amplitude": np.sqrt(2.0 / (N**2 * depth)),
            "phase speed": N * depth / np.pi,
            "coupling scale": np.pi * np.sqrt(2.0) / (4.0 * N * depth**1.5),
        }
    out = [name for name, value in scales.items() if not 0 < value < np.inf]
    if not out:
        return []
    return [f"stratification.N, stratification.depth: N = {strat.N} and "
            f"depth = {strat.depth} put the {' and the '.join(out)} "
            f"outside the float range"]


def _grid_rules(grid):
    """A violation unless dx gives the stencil's powers h^2 and h^3 and
    its scales 1/(2h) and 1/(2h^3) as finite, nonzero floats.  Outside
    that range the stepper's dispersion coefficient and `stable_tau`
    raise OverflowError or ZeroDivisionError.

    Inside it, a violation unless the x-axis lies within MAX_AXIS_CELLS
    cells of 0 (|x0| + length <= 2**26 dx).  Farther out the points
    x0 + i dx round to fewer distinct values than cells, down to one,
    and the paddle is sampled at positions that are not the grid's."""
    h = np.float64(grid.h_x)
    with np.errstate(all="ignore"):
        scales = {"h^2": h**2, "h^3": h**3,
                  "1/(2h)": 0.5 / h, "1/(2h^3)": 0.5 / h**3}
    out = [name for name, value in scales.items() if not 0 < value < np.inf]
    if out:
        return [f"grid.h_x: dx = {grid.h_x} puts {', '.join(out)} outside "
                f"the float range"]
    extent = abs(grid.x0) + grid.length
    if extent > MAX_AXIS_CELLS * grid.h_x:
        return [f"grid.x0: x0 = {grid.x0} puts the x-axis out to |x0| + "
                f"length = {extent:.3e} m, more than 2**26 cells of dx = "
                f"{grid.h_x} from 0, where its points are not exact"]
    return []


def validate_coefficients(cfg):
    """The rules of `validate` that the coefficient tables depend on:
    finite stratification, sigma and beta2, a basis and coupling scale
    in the float range, and a valid mode list.  The paddle, grid and
    run-length rules do not enter the tables."""
    return _non_finite({
        "stratification.N": cfg.strat.N,
        "stratification.depth": cfg.strat.depth,
        "sigma": cfg.sigma,
        "beta2": cfg.beta2,
    }) or _scale_rules(cfg.strat) + _mode_rules(cfg)


def validate(cfg):
    """Check all scenario invariants; returns a list of violations,
    one human-readable string naming the field and the rule each.

    Non-finite values are reported alone: the range rules assume finite
    numbers, and an infinite one would pass some of them and only fail
    once the run has started."""
    out = _non_finite({
        "stratification.N": cfg.strat.N,
        "stratification.depth": cfg.strat.depth,
        "paddle.a": cfg.paddle.a,
        "paddle.l": cfg.paddle.l,
        "paddle.b": cfg.paddle.b,
        "paddle.z0": cfg.paddle.z0,
        "grid.h_x": cfg.grid.h_x,
        "grid.x0": cfg.grid.x0,
        "t_end": cfg.t_end,
        "sigma": cfg.sigma,
        "beta2": cfg.beta2,
    })
    if out:
        return out
    out.extend(_scale_rules(cfg.strat) + _grid_rules(cfg.grid))
    if cfg.paddle.a == 0:
        out.append("paddle.a: must be nonzero")
    if not cfg.paddle.l > 0:
        out.append(f"paddle.l: must be > 0, got {cfg.paddle.l}")
    if not cfg.paddle.b > 0:
        out.append(f"paddle.b: must be > 0, got {cfg.paddle.b}")
    if not 0 < cfg.paddle.z0 < cfg.strat.depth:
        out.append(
            f"paddle.z0: must lie inside (0, {cfg.strat.depth}), got {cfg.paddle.z0}"
        )
    out.extend(_mode_rules(cfg))
    if cfg.paddle.l < MIN_POINTS_PER_PULSE * cfg.grid.h_x:
        out.append(
            f"grid.h_x: pulse width l = {cfg.paddle.l} under-resolved; "
            f"need l >= {MIN_POINTS_PER_PULSE} * h_x = "
            f"{MIN_POINTS_PER_PULSE * cfg.grid.h_x}"
        )
    if cfg.grid.length < MIN_DOMAIN_PULSE_RATIO * cfg.paddle.l:
        out.append(
            f"grid.length: domain {cfg.grid.length} shorter than "
            f"{MIN_DOMAIN_PULSE_RATIO} pulse widths "
            f"({MIN_DOMAIN_PULSE_RATIO * cfg.paddle.l}); wrap-around would "
            f"contaminate the run"
        )
    if cfg.t_end < 0:
        out.append(f"t_end: must be >= 0, got {cfg.t_end}")
    elif not cfg.t_end / cfg.scheme.tau < MAX_STEPS:
        # the ratio step_count rounds up; it is inf where step_count
        # would overflow
        out.append(
            f"t_end: {cfg.t_end} at dt = {cfg.scheme.tau} needs "
            f"{cfg.t_end / cfg.scheme.tau:.3e} steps; at most 2**53 - 1 "
            f"can be counted exactly")
    if cfg.snapshot_every < 0:
        out.append(f"snapshot_every: must be >= 0, got {cfg.snapshot_every}")
    return out


def build_initial_state(cfg, basis=None):
    """theta^n(x_i, 0) = (Z^n, phi2) phi1(x_i) on the configured grid,
    with phi1 summed over its periodic images (`periodic_phi1`).

    Returns (ModeState, Projection): the projection of phi2 onto the
    basis, with its coefficients (Z^n, phi2), ||phi2||^2 and the share
    of paddle energy that the truncated basis captures and misses.
    Raises on under-resolved grids.
    """
    violations = validate(cfg)
    if violations:
        raise ValueError("invalid scenario: " + "; ".join(violations))
    if basis is None:
        basis = cfg.basis()
    if tuple(basis.indices) != tuple(cfg.modes):
        raise ValueError(
            f"basis modes {basis.indices} do not match config modes {cfg.modes}"
        )
    proj = project_profile(lambda z: cfg.paddle.phi2(z, cfg.strat), basis)
    theta = (proj.coefficients[:, None]
             * cfg.paddle.periodic_phi1(cfg.grid.x, cfg.grid.length)[None, :])
    return ModeState(time=0.0, theta=theta), proj


# -- flat key = value config files -----------------------------------------


def serialize_config(cfg):
    """Render a ScenarioConfig as the sectioned key = value text format."""
    cp = configparser.ConfigParser()
    cp["stratification"] = {"N": FMT % cfg.strat.N, "depth": FMT % cfg.strat.depth}
    cp["paddle"] = {
        "a": FMT % cfg.paddle.a,
        "l": FMT % cfg.paddle.l,
        "b": FMT % cfg.paddle.b,
        "z0": FMT % cfg.paddle.z0,
    }
    cp["grid"] = {
        "dx": FMT % cfg.grid.h_x,
        "n_points": str(cfg.grid.n_points),
        "x0": FMT % cfg.grid.x0,
    }
    cp["scheme"] = {
        "scheme": cfg.scheme.scheme,
        "dt": FMT % cfg.scheme.tau,
    }
    cp["run"] = {
        "t_end": FMT % cfg.t_end,
        "snapshot_every": str(cfg.snapshot_every),
        "modes": ",".join(str(n) for n in cfg.modes),
        "sigma": FMT % cfg.sigma,
        "beta2": FMT % cfg.beta2,
    }
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def parse_modes(text):
    """Mode list "2, 4,6" -> (2, 4, 6); ValueError on a non-integer entry."""
    return tuple(int(v) for v in text.replace(" ", "").split(",") if v)


def parse_config(text):
    """Parse the sectioned key = value format back into a ScenarioConfig.

    The file is read over `serialize_config(mcewan_default())`, so
    missing keys keep the reference defaults and partial files are
    usable; a section or key the default does not have, or a
    [DEFAULT] section, is rejected.  A file the parser cannot read
    (duplicate keys or sections, no section header, a line without
    `=`, a bad `%(name)s` reference) raises ValueError, as does a value
    that does not convert, naming its section, key and text."""
    cp = configparser.ConfigParser()
    cp.read_string(serialize_config(mcewan_default()))
    known = {section: set(cp[section]) for section in cp.sections()}
    try:
        cp.read_string(text)
        values = {(section, key): cp.get(section, key)
                  for section in cp.sections() for key in cp[section]}
    except configparser.Error as err:
        # on one line: some of the parser's messages span several
        raise ValueError("malformed config file: "
                         + " ".join(str(err).split())) from None
    if cp.defaults():
        raise ValueError("unknown config section [DEFAULT]")
    for section in cp.sections():
        if section not in known:
            raise ValueError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in known[section]:
                raise ValueError(f"unknown key {key!r} in section [{section}]")

    def get(section, key, conv=float):
        raw = values[section, key]
        try:
            return conv(raw)
        except ValueError as err:
            raise ValueError(f"[{section}] {key} = {raw!r}: {err}") from err

    return ScenarioConfig(
        strat=Stratification(N=get("stratification", "n"),
                             depth=get("stratification", "depth")),
        modes=get("run", "modes", parse_modes),
        paddle=PaddleProfile(a=get("paddle", "a"), l=get("paddle", "l"),
                             b=get("paddle", "b"), z0=get("paddle", "z0")),
        grid=Grid(h_x=get("grid", "dx"), n_points=get("grid", "n_points", int),
                  x0=get("grid", "x0")),
        scheme=SchemeParams(tau=get("scheme", "dt"),
                            scheme=get("scheme", "scheme", str)),
        t_end=get("run", "t_end"),
        snapshot_every=get("run", "snapshot_every", int),
        sigma=get("run", "sigma"),
        beta2=get("run", "beta2"),
    )


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())
