import os
import warnings

import numpy as np
import pytest

import wavetank.cli as cli
from wavetank import verification
from wavetank.cli import main
from wavetank.coefficients import ConsistencyError
from wavetank.fields import read_state_file


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.delenv("CKDV_OUT", raising=False)
    return tmp_path


class TestParsing:
    def test_unknown_subcommand_names_token(self, capsys):
        assert run_cli("frobnicate") == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, capsys, outdir):
        assert run_cli("run", "--out", str(outdir), "--bogus", "1") == 2
        assert "--bogus" in capsys.readouterr().err

    def test_missing_config_file(self, capsys, outdir):
        assert run_cli("run", "--config", str(outdir / "nope.cfg"),
                       "--out", str(outdir)) == 2

    def test_bad_modes_list(self, capsys, outdir):
        assert run_cli("run", "--modes", "2,q", "--out", str(outdir)) == 2
        assert capsys.readouterr().err.startswith(
            "usage error: cannot parse --modes '2,q'")

    @pytest.mark.parametrize("key", ["stability_margin",
                                     "dispersion_correction"])
    def test_removed_scheme_keys_rejected(self, capsys, outdir, key):
        cfgfile = outdir / "old.cfg"
        cfgfile.write_text(f"[scheme]\ndt = 4e-05\n{key} = 1\n")
        assert run_cli("run", "--config", str(cfgfile),
                       "--out", str(outdir)) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "[run]\nt_end = 0\nt_end = 0.01\n",        # duplicate key
        "[run]\nt_end = 0\n[run]\nsigma = 1\n",   # duplicate section
        "t_end = 0\n",                              # no section header
        "[run]\nt_end\n",                           # no '='
        "[run]\nt_end = %(x)s\n",                   # unknown reference
        "[DEFAULT]\nt_end = 5\n",                   # section outside the format
    ], ids=["duplicate-key", "duplicate-section", "no-section",
            "no-equals", "interpolation", "default-section"])
    def test_malformed_config_file_exits_2(self, capsys, outdir, text):
        # each raised an uncaught configparser error: a traceback and
        # exit 1, the code of a failed check; the [DEFAULT] file ran with
        # its key dropped (t_end = 0.02)
        cfgfile = outdir / "bad.cfg"
        cfgfile.write_text(text)
        assert run_cli("run", "--config", str(cfgfile), "--out", str(outdir),
                       "--run-id", "bad") == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not (outdir / "bad").exists()

    def test_consistency_error_exits_1(self, capsys, outdir, monkeypatch):
        def failing_build(*args, **kwargs):
            raise ConsistencyError("quadrature/closed-form tensor mismatch")
        monkeypatch.setattr(cli, "build_coefficients", failing_build)
        assert run_cli("coeffs", "--out", str(outdir)) == 1
        err = capsys.readouterr().err
        assert err.startswith("check failure: quadrature/closed-form")
        assert len(err.strip().splitlines()) == 1


class TestRun:
    def test_t_end_zero_initial_snapshot_only(self, outdir):
        code = run_cli("run", "--t-end", "0", "--out", str(outdir),
                       "--run-id", "t0")
        assert code == 0
        files = os.listdir(outdir / "t0")
        assert "config.cfg" in files
        states = [f for f in files if f.endswith("_state.dat")]
        assert len(states) == 1
        assert any(f.endswith("_field.dat") for f in files)
        meta = (outdir / "t0" / "t0_meta.txt").read_text().splitlines()
        assert "steps = 0" in meta
        assert "stable_tau = inf" in meta
        assert "tau_over_stable_tau = 0" in meta

    def test_default_run_records_stable_tau(self, outdir):
        # the McEwan default runs inside its stable_tau: no warning, and
        # the sidecar (only) says how close it ran to the limit
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("run", "--out", str(outdir), "--run-id", "mc") == 0
        d = outdir / "mc"
        meta = dict(line.split(" = ", 1)
                    for line in (d / "mc_meta.txt").read_text().splitlines()
                    if line.startswith(("tau", "stable_tau")))
        assert float(meta["tau"]) == 4e-5
        ratio = float(meta["tau_over_stable_tau"])
        assert ratio == pytest.approx(4e-5 / float(meta["stable_tau"]),
                                      rel=1e-15)
        assert 0.5 < ratio < 1.0
        for name in os.listdir(d):
            if name.endswith(".dat") or name == "config.cfg":
                assert "stable_tau" not in (d / name).read_text()
        mode2 = (d / "mc_t0.020000_mode2.dat").read_text().splitlines()
        assert mode2[0] == "# time = 0.02"

    def test_overrides_beat_file_values(self, outdir):
        cfgfile = outdir / "base.cfg"
        cfgfile.write_text("[run]\nt_end = 0.01\n")
        code = run_cli("run", "--config", str(cfgfile), "--t-end", "0",
                       "--out", str(outdir), "--run-id", "ovr")
        assert code == 0
        echoed = (outdir / "ovr" / "config.cfg").read_text()
        assert "t_end = 0" in echoed

    def test_short_run_emits_mode_and_field_files(self, outdir):
        code = run_cli("run", "--t-end", "0.002", "--out", str(outdir),
                       "--run-id", "short", "--snapshot-every", "20")
        assert code == 0
        files = sorted(os.listdir(outdir / "short"))
        for n in (2, 4, 6, 8, 10):
            assert any(f"mode{n}.dat" in f for f in files)
        assert any(f.endswith("_xsec.dat") for f in files)
        assert any(f.endswith("_meta.txt") for f in files)

    def test_byte_identical_reruns(self, outdir):
        for rid in ("rep1", "rep2"):
            assert run_cli("run", "--t-end", "0.002", "--out", str(outdir),
                           "--run-id", rid) == 0
        d1, d2 = outdir / "rep1", outdir / "rep2"
        data1 = sorted(f for f in os.listdir(d1) if f.endswith(".dat"))
        data2 = sorted(f for f in os.listdir(d2) if f.endswith(".dat"))
        assert [f.replace("rep1", "") for f in data1] == \
               [f.replace("rep2", "") for f in data2]
        for f1, f2 in zip(data1, data2):
            assert (d1 / f1).read_bytes() == (d2 / f2).read_bytes()

    def test_env_var_out_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CKDV_OUT", str(tmp_path / "envroot"))
        assert run_cli("run", "--t-end", "0", "--run-id", "envrun") == 0
        assert (tmp_path / "envroot" / "envrun" / "config.cfg").exists()

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CKDV_OUT", str(tmp_path / "envroot"))
        assert run_cli("run", "--t-end", "0", "--out", str(tmp_path / "flag"),
                       "--run-id", "x") == 0
        assert (tmp_path / "flag" / "x" / "config.cfg").exists()
        assert not (tmp_path / "envroot").exists()

    def test_config_echo_reproduces_run(self, outdir):
        # the echoed resolved config alone re-runs the experiment
        assert run_cli("run", "--t-end", "0.002", "--snapshot-every", "100",
                       "--out", str(outdir), "--run-id", "orig") == 0
        echoed = outdir / "orig" / "config.cfg"
        assert run_cli("run", "--config", str(echoed), "--out", str(outdir),
                       "--run-id", "again") == 0
        d1, d2 = outdir / "orig", outdir / "again"
        data1 = sorted(f for f in os.listdir(d1) if f.endswith(".dat"))
        for f1 in data1:
            f2 = f1.replace("orig", "again")
            assert (d1 / f1).read_bytes() == (d2 / f2).read_bytes()

    def test_invalid_config_exits_2(self, outdir):
        cfgfile = outdir / "bad.cfg"
        cfgfile.write_text("[paddle]\nl = 1e-6\n")  # under-resolved pulse
        assert run_cli("run", "--config", str(cfgfile),
                       "--out", str(outdir)) == 2

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("flag, field", [("--t-end", "t_end"),
                                             ("--dt", "tau")])
    def test_non_finite_flag_exits_2(self, outdir, capsys, flag, field, value):
        # --t-end inf overflowed step_count with a traceback, and --dt inf
        # "completed" 0 steps with exit 0
        assert run_cli("run", f"{flag}={value}", "--out", str(outdir),
                       "--run-id", "nf") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: ") and field in err[0]
        assert not (outdir / "nf").exists()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("section, key, field", [
        ("run", "t_end", "t_end"),
        ("scheme", "dt", "tau"),
        ("stratification", "N", "N"),
        ("stratification", "depth", "depth"),
        ("paddle", "a", "paddle.a"),
        ("paddle", "b", "paddle.b"),
        ("grid", "x0", "grid.x0"),
        ("run", "sigma", "sigma"),
        ("run", "beta2", "beta2"),
    ])
    def test_non_finite_config_value_exits_2(self, outdir, capsys, section,
                                             key, field, value):
        # an infinite N, depth or b, or any non-finite a, x0, sigma or
        # beta2, wrote config.cfg and the first snapshot, then aborted
        # with exit 3 at step 1
        cfgfile = outdir / "nf.cfg"
        cfgfile.write_text(f"[{section}]\n{key} = {value}\n")
        assert run_cli("run", "--config", str(cfgfile), "--out", str(outdir),
                       "--run-id", "nf") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: ") and field in err[0]
        assert not (outdir / "nf").exists()

    @pytest.mark.parametrize("flags", [("--t-end", "1e300"),
                                       ("--dt", "1e-300"),
                                       ("--t-end", "1e12"),
                                       ("--t-end", "1e300", "--dt", "1e-300")])
    def test_uncountable_step_count_exits_2(self, outdir, capsys, flags):
        # --t-end 1e300 wrote config.cfg, then failed at the first snapshot
        # on a 305-digit step index; --t-end 1e12 ran 1936 steps first
        assert run_cli("run", *flags, "--out", str(outdir),
                       "--run-id", "big") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: t_end") and "2**53" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (outdir / "big").exists()

    def test_uncountable_step_count_in_config_exits_2(self, outdir, capsys):
        cfgfile = outdir / "big.cfg"
        cfgfile.write_text("[run]\nt_end = 1e300\n")
        assert run_cli("run", "--config", str(cfgfile), "--out", str(outdir),
                       "--run-id", "big") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: t_end") and "2**53" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (outdir / "big").exists()

    def test_unstable_run_exits_3(self, outdir, capsys):
        # dt far beyond the dispersive limit of a fine grid
        with pytest.warns(RuntimeWarning):
            code = run_cli("run", "--t-end", "0.02", "--dx", "0.001",
                           "--dt", "1e-4", "--out", str(outdir),
                           "--run-id", "boom")
        assert code == 3

    def test_every_snapshot_has_its_own_file(self, outdir):
        # 21 snapshots 1e-7 apart: names by time at 6 decimals collided
        # and kept 3 files
        assert run_cli("run", "--dt", "1e-7", "--t-end", "2e-6",
                       "--snapshot-every", "1", "--out", str(outdir),
                       "--run-id", "every") == 0
        d = outdir / "every"
        states = sorted(f for f in os.listdir(d) if f.endswith("_state.dat"))
        assert states == [f"every_step{j:02d}_state.dat" for j in range(21)]
        for j, name in enumerate(states):
            t, _, _ = read_state_file(d / name)
            assert t == j * 1e-7

    def test_snapshot_name_collision_exits_2(self, outdir, capsys,
                                             monkeypatch):
        def observe_twice(state, coeffs, grid, params, t_end, observers=(),
                          observe_every=0):
            for obs in observers:
                obs(0, state)
                obs(0, state)
        monkeypatch.setattr(cli, "advance", observe_twice)
        assert run_cli("run", "--t-end", "0", "--out", str(outdir),
                       "--run-id", "twice") == 2
        err = capsys.readouterr().err
        assert "twice_step0_state.dat" in err and "overwrite" in err
        assert "Traceback" not in err

    def test_dx_must_divide_the_domain(self, outdir, capsys):
        # 0.5 m / 0.003 m is 166.67 cells; rounding ran a 0.501 m tank
        assert run_cli("run", "--dx", "0.003", "--t-end", "0",
                       "--out", str(outdir), "--run-id", "dx") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "0.501" in err
        assert not (outdir / "dx").exists()

    def test_state_files_readable(self, outdir):
        assert run_cli("run", "--t-end", "0.001", "--out", str(outdir),
                       "--run-id", "rd") == 0
        d = outdir / "rd"
        state_files = sorted(f for f in os.listdir(d)
                             if f.endswith("_state.dat"))
        t, x, theta = read_state_file(d / state_files[0])
        assert t == 0.0
        assert theta.shape[0] == 5
        assert np.all(np.isfinite(theta))


class TestCoeffs:
    def test_tables_and_reconciliation_on_disk(self, outdir):
        assert run_cli("coeffs", "--out", str(outdir), "--run-id", "co") == 0
        d = outdir / "co"
        assert (d / "cd_table.dat").exists()
        assert (d / "g_tensor.dat").exists()
        text = (d / "reconciliation.dat").read_text()
        assert "CONFIRMED" in text
        rows = [l for l in (d / "g_tensor.dat").read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 125

    def test_ten_modes_pass_the_quadrature_check(self, outdir):
        # off-resonance quadrature strays are round-off (2.3e-12 absolute
        # at max|g| = 1365 here); an absolute 1e-12 limit rejected this set
        modes = ",".join(str(n) for n in range(1, 11))
        assert run_cli("coeffs", "--modes", modes, "--out", str(outdir),
                       "--run-id", "m10") == 0
        rows = [l for l in (outdir / "m10" / "g_tensor.dat").read_text()
                .splitlines() if not l.startswith("#")]
        assert len(rows) == 1000

    def test_custom_modes_skip_reconciliation(self, outdir):
        assert run_cli("coeffs", "--modes", "1,2,3", "--out", str(outdir),
                       "--run-id", "m3") == 0
        assert not (outdir / "m3" / "reconciliation.dat").exists()

    @pytest.mark.parametrize("section, key, value, field", [
        ("stratification", "N", "inf", "stratification.N"),
        ("stratification", "depth", "inf", "stratification.depth"),
        ("run", "sigma", "inf", "sigma"),
        ("run", "beta2", "-inf", "beta2"),
        ("run", "modes", "2,2", "modes"),
    ])
    def test_invalid_config_exits_2_before_any_output(
            self, outdir, capsys, section, key, value, field):
        # N = inf exited 0 with cd_table.dat rows of "inf nan"
        cfgfile = outdir / "bad.cfg"
        cfgfile.write_text(f"[{section}]\n{key} = {value}\n")
        assert run_cli("coeffs", "--config", str(cfgfile),
                       "--out", str(outdir), "--run-id", "bad") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: {field}")
        assert not (outdir / "bad").exists()

    def test_paddle_and_grid_rules_do_not_apply(self, outdir):
        # a pulse far below the grid spacing stops `run`, not the tables
        cfgfile = outdir / "pulse.cfg"
        cfgfile.write_text("[paddle]\nl = 1e-6\n[grid]\nx0 = 1e300\n")
        assert run_cli("run", "--config", str(cfgfile),
                       "--out", str(outdir), "--run-id", "r") == 2
        assert run_cli("coeffs", "--config", str(cfgfile),
                       "--out", str(outdir), "--run-id", "c") == 0
        assert (outdir / "c" / "cd_table.dat").exists()


class TestFissionCommand:
    def test_fission_report(self, outdir):
        assert run_cli("fission", "--out", str(outdir), "--run-id", "fi") == 0
        text = (outdir / "fi" / "fission_report.txt").read_text()
        assert "predicted 1, detected 1" in text
        assert "predicted 2, detected 2" in text


class TestConvergeCommand:
    def test_one_stage_writes_the_temporal_study(self, outdir):
        assert run_cli("converge", "--scheme", "one-stage",
                       "--out", str(outdir), "--run-id", "cv") == 0
        text = (outdir / "cv" / "convergence_temporal_one-stage.dat").read_text()
        assert text == verification.measure_temporal_convergence().to_text()


class TestVerifyCommand:
    @pytest.mark.slow
    def test_every_check_passes(self, outdir):
        assert run_cli("verify", "--out", str(outdir), "--run-id", "ve") == 0
        summary = (outdir / "ve" / "verify_summary.txt").read_text().splitlines()
        assert len(summary) == 5
        assert all(line.startswith("PASS  ") for line in summary)
        rows = (outdir / "ve" / "verify_checks.dat").read_text().splitlines()
        assert rows[0] == "check\tstatus\tdetail"
        assert [row.split("\t")[1] for row in rows[1:]] == ["PASS"] * 5
