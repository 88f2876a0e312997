"""Scenario values at the ends of the float range, through the CLI."""

import contextlib
import glob
import io
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from wavetank.cli import main
from wavetank.fields import read_state_file
from wavetank.scenario import mcewan_default

PREFIX = {1: "check failure: ", 2: "config error: ", 3: "numerical abort: "}


def run_with_config(text, command, *flags, out):
    """main([command, --config, ...]) on a config file holding `text`;
    returns (exit code, stderr lines)."""
    cfgfile = os.path.join(out, "strat.cfg")
    with open(cfgfile, "w") as fh:
        fh.write(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", cfgfile, "--out", out,
                     "--run-id", "r", *flags])
    return code, err.getvalue().splitlines()


@pytest.mark.parametrize("command", ["run", "coeffs"])
@pytest.mark.parametrize("key, value", [
    ("N", "1e200"), ("N", "1e300"),            # N^2 overflowed
    ("N", "1e-200"), ("N", "1e-300"),          # N^2 depth underflowed to 0
    ("N", "5e-324"),
    ("depth", "1e300"),                        # depth^1.5 overflowed
])
def test_basis_or_coupling_out_of_range_exits_2(tmp_path, command, key,
                                                value):
    # each ended in an OverflowError or ZeroDivisionError traceback, exit 1
    code, err = run_with_config(f"[stratification]\n{key} = {value}\n",
                                command, out=str(tmp_path))
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith(
        "config error: stratification.N, stratification.depth: ")
    assert "outside the float range" in err[0]
    assert not (tmp_path / "r").exists()


def test_stable_tau_beyond_the_float_range_aborts_with_one_line(tmp_path):
    # lambda^4 overflowed inside stable_tau: an OverflowError traceback
    with pytest.warns(RuntimeWarning, match="stable_tau = 0.000e"):
        code, err = run_with_config("[stratification]\nN = 1e100\n", "run",
                                    "--t-end", "0.0004", out=str(tmp_path))
    assert code == 3
    assert len(err) == 1 and err[0].startswith("numerical abort: ")


def test_run_past_a_stable_tau_of_zero_records_an_infinite_ratio(tmp_path):
    # stable_tau reads 0 here; one finite step then divided by it.  The
    # step leaves |theta| near 1e97, whose squared L2 norms the audit
    # forms scaled, without an overflow warning
    with pytest.warns(RuntimeWarning) as warned:
        code, err = run_with_config("[stratification]\nN = 1e100\n", "run",
                                    "--t-end", "4e-5", out=str(tmp_path))
    assert [w for w in warned if "stable_tau = 0.000e" not in str(w.message)
            ] == []
    assert (code, err) == (0, [])
    meta = (tmp_path / "r" / "r_meta.txt").read_text().splitlines()
    assert "tau_over_stable_tau = inf" in meta


# N and depth spread over every decade of the positive doubles
log_spread = st.floats(min_value=-323.3, max_value=308.25).map(
    lambda u: 10.0 ** u)


@given(n=log_spread, depth=log_spread)
def test_any_finite_stratification_exits_with_a_message(n, depth):
    # run and coeffs exit 0, 2 or 3: coeffs checks its quadrature on the
    # unit tank, so no scale makes the check fail (exit 1); a failing
    # exit prints only lines of its kind, and nothing raises
    text = f"[stratification]\nN = {n!r}\ndepth = {depth!r}\n"
    for command, *flags in (("run", "--t-end", "0"), ("coeffs",),
                            ("run", "--t-end", "4e-5")):
        with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, err = run_with_config(text, command, *flags, out=out)
        assert code in (0, 2, 3)
        if code:
            assert err and all(line.startswith(PREFIX[code]) for line in err)
        else:
            assert err == []


@pytest.mark.parametrize("dx, l", [("1e200", "2e201"), ("1e-200", "1e-199")])
def test_grid_scale_out_of_range_exits_2(tmp_path, dx, l):
    # OverflowError at h_x**2 and ZeroDivisionError at / h**3, each a
    # traceback after config.cfg was written
    code, err = run_with_config(f"[grid]\ndx = {dx}\n[paddle]\nl = {l}\n",
                                "run", out=str(tmp_path))
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith(f"config error: grid.h_x: dx = {float(dx)} ")
    assert "outside the float range" in err[0]
    assert not (tmp_path / "r").exists()


@given(dx=log_spread)
def test_any_finite_dx_exits_with_a_message(dx):
    # the pulse spans 20 cells, inside the resolution and domain rules
    text = f"[grid]\ndx = {dx!r}\n[paddle]\nl = {20.0 * dx!r}\n"
    for t_end in ("0", "4e-5"):
        with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "dt = .* exceeds",
                                    RuntimeWarning)
            code, err = run_with_config(text, "run", "--t-end", t_end,
                                        out=out)
        assert code in (0, 2, 3)
        if code:
            assert err and all(line.startswith(PREFIX[code]) for line in err)
        else:
            assert err == []


@example(dx=1e-309)
@example(dx=5e-324)
@given(dx=log_spread)
def test_any_dx_flag_exits_with_a_message(dx):
    # a --dx below about 2.8e-309 made the cell count inf, and rounding
    # it to an int raised OverflowError: a traceback, exit 1
    with tempfile.TemporaryDirectory() as out:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--dx", repr(dx), "--t-end", "0",
                         "--out", out, "--run-id", "r"])
        err = err.getvalue().splitlines()
        assert code in (0, 2)
        if code:
            assert err and all(line.startswith(PREFIX[code]) for line in err)
            assert not os.path.exists(os.path.join(out, "r"))
        else:
            assert err == []


@pytest.mark.parametrize("n, depth", [
    ("1.23", "1e-5"), ("3.5e-7", "0.107"), ("1.6", "1.4e-7")])
def test_coeffs_cross_check_holds_at_any_scale(tmp_path, n, depth):
    # each exited 1: the check measured every entry against max(1, |g|),
    # an absolute floor in g's units
    code, err = run_with_config(
        f"[stratification]\nN = {n}\ndepth = {depth}\n", "coeffs",
        out=str(tmp_path))
    assert (code, err) == (0, [])


@pytest.mark.parametrize("n, depth", [
    ("1e80", "1"), ("1e-80", "1"), ("1e20", "1e50")])
def test_coeffs_cross_check_holds_far_out_of_range(tmp_path, n, depth):
    # the quadrature on the tank itself formed N^2 c^2 and Z^3 past the
    # float range: RuntimeWarnings and a nan deviation, exit 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, err = run_with_config(
            f"[stratification]\nN = {n}\ndepth = {depth}\n", "coeffs",
            out=str(tmp_path))
    assert (code, err) == (0, [])
    for name in ("g_tensor.dat", "cd_table.dat"):
        table = np.loadtxt(tmp_path / "r" / name)
        assert np.isfinite(table).all()
    g = np.loadtxt(tmp_path / "r" / "g_tensor.dat")[:, 3]
    assert (g != 0).any()


def test_steep_paddle_runs_without_a_runtime_warning(tmp_path):
    # sech(b (z - z0)) as 1/cosh warned "overflow encountered in cosh"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, err = run_with_config("[paddle]\nb = 1e300\n", "run",
                                    out=str(tmp_path))
    assert (code, err) == (0, [])


@pytest.mark.parametrize("text", [
    "[grid]\ndx = 1e-66\n[paddle]\nl = 2e-65\n",
    "[grid]\nx0 = 1e300\n",
], ids=["dx-1e-66", "x0-1e300"])
def test_x_axis_beyond_its_cells_exits_2(tmp_path, text):
    # all 256 grid.x values were x0, so the paddle was sampled at one
    # position and the run exited 0 on a constant initial state
    code, err = run_with_config(text, "run", out=str(tmp_path))
    assert code == 2
    assert len(err) == 1 and err[0].startswith("config error: grid.x0: ")
    assert not (tmp_path / "r").exists()


# the float keys of the scenario that the range rules above leave out,
# each spread over every decade of both signs, and 0
FLOAT_KEYS = [("paddle", "a"), ("paddle", "l"), ("paddle", "b"),
              ("paddle", "z0"), ("grid", "x0"), ("run", "sigma"),
              ("run", "beta2")]


def signed(magnitudes):
    return st.one_of(st.just(0.0), st.just(-0.0), st.builds(
        lambda v, sign: sign * v, magnitudes, st.sampled_from((1, -1))))


# a t_end between 0.02 s (500 default steps) and 1e12 s (past 2**53
# steps, which `validate` rejects) only runs longer, so it is left out
# for time
short_or_uncountable = st.one_of(
    st.floats(min_value=-323.3, max_value=-1.7),
    st.floats(min_value=12.0, max_value=308.25)).map(lambda u: 10.0 ** u)


@given(values=st.dictionaries(st.sampled_from(FLOAT_KEYS),
                              signed(log_spread), min_size=1, max_size=3),
       t_end=st.none() | signed(short_or_uncountable))
@example({("run", "sigma"): 1e300}, None)              # exits 3
@example({("paddle", "l"): 1e300}, None)              # exits 2
@example({("grid", "x0"): 1e300}, None)               # exits 2
@example({("paddle", "a"): 1e-320}, 1e300)            # exits 2
@example({("paddle", "a"): 1e-320}, None)             # exits 0
@example({("paddle", "z0"): 1e-300}, None)            # exits 0
def test_any_finite_float_key_exits_with_a_message(values, t_end):
    # run exits 0, 2 or 3 and nothing raises; a run that exits 0 samples
    # its paddle at n distinct positions
    if t_end is not None:
        values = {**values, ("run", "t_end"): t_end}
    sections = {"run": ["snapshot_every = 0"]}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value!r}")
    text = "".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                   for section, lines in sections.items())
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code, err = run_with_config(text, "run", out=out)
        if code:
            assert code in (2, 3)
            assert err and all(line.startswith(PREFIX[code]) for line in err)
            return
        assert err == []
        states = glob.glob(os.path.join(out, "r", "r_step*_state.dat"))
        _, x, _ = read_state_file(min(states))
    assert len(set(x)) == mcewan_default().grid.n_points


SYSTEM_OUT_OF_RANGE = [
    ("[stratification]\nN = 1e100\ndepth = 1e100\n",
     "stratification.N, stratification.depth, beta2: "),
    ("[run]\nsigma = 1e308\n",
     "stratification.N, stratification.depth, sigma: "),
]


@pytest.mark.parametrize("command", ["run", "coeffs"])
@pytest.mark.parametrize("text, keys", SYSTEM_OUT_OF_RANGE,
                         ids=["d-inf", "g-inf"])
def test_system_out_of_range_exits_2(tmp_path, command, text, keys):
    # coeffs exited 0 with inf d or 29 non-finite g entries in its
    # tables; run exited 3 after writing config.cfg and the step-0
    # snapshot.  A RuntimeWarning would fail the test here
    code, err = run_with_config(text, command, out=str(tmp_path))
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"config error: {keys}")
    assert "outside the float range" in err[0]
    assert not (tmp_path / "r").exists()


@example(n=1e100, depth=1e100, sigma=1.0, beta2=1.0)
@example(n=1.23, depth=0.25, sigma=1e308, beta2=1.0)
@given(n=log_spread, depth=log_spread, sigma=signed(log_spread),
       beta2=signed(log_spread))
def test_coeffs_exit_0_writes_only_finite_tables(n, depth, sigma, beta2):
    text = (f"[stratification]\nN = {n!r}\ndepth = {depth!r}\n"
            f"[run]\nsigma = {sigma!r}\nbeta2 = {beta2!r}\n")
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code, err = run_with_config(text, "coeffs", out=out)
        if code:
            assert err and all(line.startswith(PREFIX[code]) for line in err)
            return
        for name in ("cd_table.dat", "g_tensor.dat"):
            table = np.loadtxt(os.path.join(out, "r", name), comments="#")
            assert np.isfinite(table).all(), name
