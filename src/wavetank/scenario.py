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

The config file's keys are named once, in `_KEYS`; configparser writes
them in lower case, while the pre-flight's messages print N and dx.
"""

from __future__ import annotations

import configparser
import functools
import io
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import reference_tables as ref
from .coefficients import (_closed_form_triads, _resonance_scale,
                           dispersion_coeffs)
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
    (|arg| > 700): there the two are equal in double precision.  Each
    form is evaluated only where it is used, so that an amp near the
    float limit does not overflow in the far form at small |arg|."""
    arg = np.asarray(arg, dtype=float)
    far = np.abs(arg) > 700.0
    out = np.asarray(amp / np.cosh(np.where(far, 0.0, arg)))
    out[far] = amp * (2.0 * np.exp(-np.abs(arg[far])))
    return out


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
    solver's `stable_tau` for this horizon (4.9e-5 s).  Continued at
    it, a run goes non-finite where round-off sets: over a horizon of
    4500 tau (0.18000000000000002 in floating point, so tau stays
    exact) in the half stage of step 4427, while `wavetank run
    --t-end 0.18` spans 0.18 with a tau one rounding away and goes
    non-finite in the full stage of step 4463 (last finite states at
    t = 0.17704 and 0.17848 s).
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


# The config file's keys in file order, each named here only: (section,
# file key, field), the field a ScenarioConfig attribute or part.attribute.
_KEYS = (
    ("stratification", "N", "strat.N"),
    ("stratification", "depth", "strat.depth"),
    ("paddle", "a", "paddle.a"), ("paddle", "l", "paddle.l"),
    ("paddle", "b", "paddle.b"), ("paddle", "z0", "paddle.z0"),
    ("grid", "dx", "grid.h_x"), ("grid", "n_points", "grid.n_points"),
    ("grid", "x0", "grid.x0"),
    ("scheme", "scheme", "scheme.scheme"), ("scheme", "dt", "scheme.tau"),
    ("run", "t_end", "t_end"), ("run", "snapshot_every", "snapshot_every"),
    ("run", "modes", "modes"), ("run", "sigma", "sigma"),
    ("run", "beta2", "beta2"),
)


def _rows():
    """(section, file key, part, attribute, getter, type) of each key,
    the type that of its value in `mcewan_default()`."""
    default = mcewan_default()
    for section, key, field in _KEYS:
        part, _, attr = field.rpartition(".")
        get = operator.attrgetter(field)
        yield section, key, part, attr, get, type(get(default))


_ROWS = tuple(_rows())
# each float key's pre-flight name: section.attribute, or a top attribute
_FLOAT_ROWS = tuple((f"{section}.{attr}" if part else attr, key, get)
                    for section, key, part, attr, get, kind in _ROWS
                    if kind is float)


def _float_keys(cfg):
    """{name: (file key, value)} of each float key of a scenario."""
    return {name: (key, get(cfg)) for name, key, get in _FLOAT_ROWS}


def _non_finite(values):
    """A violation for each non-finite entry of {name: (key, value)}."""
    return [f"{name}: must be finite, got {value}"
            for name, (_, value) in values.items() if not math.isfinite(value)]


def _mode_rules(cfg):
    if len(cfg.modes) == 0:
        return ["modes: list must not be empty"]
    if any(n < 1 for n in cfg.modes) or len(set(cfg.modes)) != len(cfg.modes):
        return [f"modes: indices must be distinct and >= 1, got {cfg.modes}"]
    return []


def _system_rows(cfg):
    """The range table's rows for the coefficient tables: (keys,
    quantity, nonzero, form), each quantity formed by the products a run
    forms it with, in the order the run forms them.  sigma g is its
    closed-form triad values times sigma, the only entries of the dense
    tensor that are not 0 * sigma (0, for the finite sigma the table
    sees), so that the pre-flight holds O(L^2) numbers, never the
    O(L^3) tensor."""
    strat = ("stratification.N", "stratification.depth")
    basis = functools.cache(cfg.basis)
    return [
        (strat, "the mode amplitude", True, lambda: basis().amplitudes),
        (strat, "the phase speed", True, lambda: basis().speeds),
        (strat, "the coupling scale", True,
         lambda: _resonance_scale(cfg.strat)),
        (strat + ("beta2",), "beta2 d", False,
         lambda: cfg.beta2 * dispersion_coeffs(basis())),
        (strat + ("sigma",), "sigma g", False,
         lambda: _closed_form_triads(basis())[1] * cfg.sigma),
    ]


def _stencil_rows(grid):
    """The range table's rows for the stepper's stencil: its powers h^2
    and h^3 and its scales 1/(2h) and 1/(2h^3)."""
    h = grid.h_x
    return [(("grid.h_x",), name, True, form) for name, form in (
        ("h^2", lambda: h**2), ("h^3", lambda: h**3),
        ("1/(2h)", lambda: 0.5 / h), ("1/(2h^3)", lambda: 0.5 / h**3))]


def _out_of_range(cfg, rows):
    """A violation naming the keys of the first row whose quantity is
    not finite, or has a zero entry where it must be nonzero: past the
    float range the basis and the tables raise, or hold inf and nan, and
    a run would abort after its first snapshot.  A Python float power or
    quotient that raises (ArithmeticError) counts as out of range."""
    values = _float_keys(cfg)
    with np.errstate(all="ignore"):
        for keys, quantity, nonzero, form in rows:
            try:
                value = np.asarray(form(), dtype=float)
            except ArithmeticError:
                value = np.asarray(np.nan)
            if not np.isfinite(value).all() or nonzero and not value.all():
                named = ", ".join("%s = %s" % values[k] for k in keys)
                return [f"{', '.join(keys)}: {named} put {quantity} "
                        f"outside the float range"]
    return []


def validate_coefficients(cfg):
    """The rules of `validate` that the coefficient tables depend on:
    finite keys, a valid mode list and the range table cut before its
    stencil rows.  The paddle, grid and run-length rules do not enter
    the tables."""
    rows = _system_rows(cfg)
    used = {key for keys, *_ in rows for key in keys}
    return (_non_finite({k: v for k, v in _float_keys(cfg).items() if k in used})
            or _mode_rules(cfg) or _out_of_range(cfg, rows))


def validate(cfg):
    """Check all scenario invariants; returns a list of violations,
    one human-readable string naming the field and the rule each.

    Non-finite values are reported alone: the range rules assume finite
    numbers, and an infinite one would pass some of them and only fail
    once the run has started.  Then a valid mode list, the whole range
    table and, once the stencil is in range, an x-axis within
    MAX_AXIS_CELLS cells of 0 (|x0| + length <= 2**26 dx): farther out
    the points x0 + i dx round to fewer distinct values than cells,
    down to one, and the paddle is sampled at positions that are not
    the grid's."""
    out = _non_finite(_float_keys(cfg))
    if out:
        return out
    grid = cfg.grid
    extent = abs(grid.x0) + grid.length
    out = _mode_rules(cfg) or _out_of_range(
        cfg, _system_rows(cfg) + _stencil_rows(grid))
    if not out and extent > MAX_AXIS_CELLS * grid.h_x:
        out.append(f"grid.x0: x0 = {grid.x0} puts the x-axis out to |x0| + "
                   f"length = {extent:.3e} m, more than 2**26 cells of dx = "
                   f"{grid.h_x} from 0, where its points are not exact")
    if cfg.paddle.a == 0:
        out.append("paddle.a: must be nonzero")
    if not cfg.paddle.l > 0:
        out.append(f"paddle.l: must be > 0, got {cfg.paddle.l}")
    if not cfg.paddle.b > 0:
        out.append(f"paddle.b: must be > 0, got {cfg.paddle.b}")
    if not 0 < cfg.paddle.z0 < cfg.strat.depth:
        out.append(f"paddle.z0: must lie inside (0, {cfg.strat.depth}), "
                   f"got {cfg.paddle.z0}")
    if cfg.paddle.l < MIN_POINTS_PER_PULSE * cfg.grid.h_x:
        out.append(f"grid.h_x: pulse width l = {cfg.paddle.l} under-resolved; "
                   f"need l >= {MIN_POINTS_PER_PULSE} * h_x = "
                   f"{MIN_POINTS_PER_PULSE * cfg.grid.h_x}")
    if cfg.grid.length < MIN_DOMAIN_PULSE_RATIO * cfg.paddle.l:
        out.append(f"grid.length: domain {cfg.grid.length} shorter than "
                   f"{MIN_DOMAIN_PULSE_RATIO} pulse widths "
                   f"({MIN_DOMAIN_PULSE_RATIO * cfg.paddle.l}); wrap-around "
                   f"would contaminate the run")
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
    Raises ValueError on any `validate` violation.
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


def parse_modes(text):
    """Mode list "2, 4,6" -> (2, 4, 6); ValueError on a non-integer entry."""
    return tuple(int(v) for v in text.replace(" ", "").split(",") if v)


# how a value of each type is written and read, if not by str and the type
_FORMATS = {float: FMT.__mod__, tuple: lambda modes: ",".join(map(str, modes))}
_CONVERTERS = {tuple: parse_modes}


def _sections(cfg):
    """{section: {key: text}} of a ScenarioConfig, each value as its
    config file writes it."""
    out = {}
    for section, key, _, _, get, kind in _ROWS:
        out.setdefault(section, {})[key] = _FORMATS.get(kind, str)(get(cfg))
    return out


def serialize_config(cfg):
    """Render a ScenarioConfig as the sectioned key = value text format."""
    cp = configparser.ConfigParser()
    cp.read_dict(_sections(cfg))
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def parse_config(text):
    """Parse the sectioned key = value format back into a ScenarioConfig.

    The file is read over `_sections(mcewan_default())`, the values
    `serialize_config` writes for the default, not over that text
    written out and parsed back, so missing keys keep the reference
    defaults and partial files are usable; a section or key the default
    does not have, or a [DEFAULT] section, is rejected.  A file the
    parser cannot read (duplicate keys or sections, no section header, a
    line without `=`, a bad `%(name)s` reference) raises ValueError, as
    does a value that does not convert, naming its section, key and
    text; the values convert in file order, each to the type of the
    default's."""
    default = mcewan_default()
    cp = configparser.ConfigParser()
    cp.read_dict(_sections(default))
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

    parts = {}
    for section, key, part, attr, _, kind in _ROWS:
        key = cp.optionxform(key)
        raw = values[section, key]
        try:
            parts.setdefault(part, {})[attr] = _CONVERTERS.get(kind, kind)(raw)
        except ValueError as err:
            raise ValueError(f"[{section}] {key} = {raw!r}: {err}") from err
    return ScenarioConfig(
        **parts.pop(""),
        **{part: type(getattr(default, part))(**fields)
           for part, fields in parts.items()})


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())
