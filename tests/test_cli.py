import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import wavetank.cli as cli
from wavetank import coefficients, scenario, verification
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

    @pytest.mark.parametrize("command", ["verify", "converge", "fission"])
    def test_config_only_for_scenario_commands(self, capsys, outdir, command):
        # these commands read no scenario: --config was accepted, ignored
        # and the command ran to exit 0
        cfgfile = outdir / "x.cfg"
        cfgfile.write_text("[run]\nt_end = 0.01\n")
        assert run_cli(command, "--config", str(cfgfile), "--out", str(outdir),
                       "--run-id", "cfg") == 2
        assert "--config" in capsys.readouterr().err
        assert not (outdir / "cfg").exists()

    def test_bad_modes_list(self, capsys, outdir):
        assert run_cli("run", "--modes", "2,q", "--out", str(outdir)) == 2
        assert capsys.readouterr().err.startswith(
            "usage error: cannot parse --modes '2,q'")

    @pytest.mark.parametrize("command, flags", [
        ("run", ("--t-end", "0")), ("coeffs", ()), ("converge", ()),
        ("verify", ()), ("fission", ())])
    @pytest.mark.parametrize("run_id", [".", ".."])
    def test_dot_run_ids_rejected(self, capsys, outdir, command, flags,
                                  run_id):
        # `..` wrote config.cfg and the data files next to --out, over any
        # file of the same name, and `.` into the output root itself
        assert run_cli(command, *flags, "--out", str(outdir / "out"),
                       "--run-id", run_id) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"usage error: run-id {run_id!r} is not filesystem-safe"]
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "coeffs"])
    @pytest.mark.parametrize("modes", ["", ",", " "])
    def test_empty_modes_list_exits_2(self, capsys, outdir, command, modes):
        # --modes "" ran the default modes (2, 4, 6, 8, 10) and exited 0
        assert run_cli(command, "--modes", modes, "--out", str(outdir),
                       "--run-id", "empty") == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: modes: list must not be empty"]
        assert not (outdir / "empty").exists()

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

    @pytest.mark.parametrize("text, named", [
        ("[run]\nt_end = abc\n", "[run] t_end = 'abc': "),
        ("[grid]\nn_points = 1e3\n", "[grid] n_points = '1e3': "),
    ], ids=["float", "int"])
    def test_unconvertible_value_names_its_key(self, capsys, outdir, text,
                                               named):
        # the message named neither section nor key, only Python's
        # conversion error
        cfgfile = outdir / "bad.cfg"
        cfgfile.write_text(text)
        assert run_cli("run", "--config", str(cfgfile), "--out", str(outdir),
                       "--run-id", "bad") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: " + named)
        assert len(err.splitlines()) == 1 and "Traceback" not in err
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

    def test_rerun_replaces_the_earlier_run(self, outdir):
        # a shorter rerun into the same directory kept the first run's
        # later snapshots and its t = 0.02 field, mode and section files
        # next to its own: 27 files, and a _meta.txt of the second run
        assert run_cli("run", "--out", str(outdir / "a"), "--run-id", "r") == 0
        (outdir / "a" / "r" / "notes.txt").write_text("kept\n")
        for root in ("a", "fresh"):
            assert run_cli("run", "--t-end", "0.01", "--out",
                           str(outdir / root), "--run-id", "r") == 0
        rerun = sorted(os.listdir(outdir / "a" / "r"))
        fresh = sorted(os.listdir(outdir / "fresh" / "r"))
        assert len(fresh) == 15
        assert rerun == sorted(fresh + ["notes.txt"])
        for name in fresh:
            if not name.endswith("_meta.txt"):
                assert ((outdir / "a" / "r" / name).read_bytes()
                        == (outdir / "fresh" / "r" / name).read_bytes()), name

    def test_rejected_rerun_keeps_the_earlier_run(self, outdir):
        assert run_cli("run", "--t-end", "0", "--out", str(outdir),
                       "--run-id", "keep") == 0
        before = sorted(os.listdir(outdir / "keep"))
        # the pre-flight rejects the rerun before anything is removed
        assert run_cli("run", "--t-end=inf", "--out", str(outdir),
                       "--run-id", "keep") == 2
        assert sorted(os.listdir(outdir / "keep")) == before

    def test_dx_must_divide_the_domain(self, outdir, capsys):
        # 0.5 m / 0.003 m is 166.67 cells; rounding ran a 0.501 m tank
        assert run_cli("run", "--dx", "0.003", "--t-end", "0",
                       "--out", str(outdir), "--run-id", "dx") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "0.501" in err
        assert not (outdir / "dx").exists()

    @pytest.mark.parametrize("flags, message", [
        (("--dx", "-1"), "config error: --dx must be positive, got -1"),
        (("--snapshot-every", "-1"),
         "config error: snapshot_every: must be >= 0, got -1")])
    def test_negative_flag_exits_2(self, outdir, capsys, flags, message):
        assert run_cli("run", *flags, "--t-end", "0", "--out", str(outdir),
                       "--run-id", "neg") == 2
        assert capsys.readouterr().err.splitlines() == [message]
        assert not (outdir / "neg").exists()

    def test_scheme_flag_overrides(self, outdir):
        assert run_cli("run", "--scheme", "one-stage", "--t-end", "0",
                       "--out", str(outdir), "--run-id", "one") == 0
        d = outdir / "one"
        assert "scheme = one-stage" in (d / "config.cfg").read_text().splitlines()
        assert "scheme = one-stage" in (d / "one_meta.txt").read_text().splitlines()
        [state] = [f for f in os.listdir(d) if f.endswith("_state.dat")]
        assert (d / state).read_text().splitlines()[2] == "# scheme = one-stage"

    def test_default_run_builds_one_dense_tensor(self, outdir, monkeypatch):
        # the pre-flight reads the closed-form triads, so the run's own
        # coefficient set is its one dense tensor; a pre-flight that
        # built it would add one for each of validate's two calls
        calls = []
        build = coefficients._tensor_closed_form

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(coefficients, "_tensor_closed_form", counted)
        assert run_cli("run", "--out", str(outdir), "--run-id", "one") == 0
        assert len(calls) == 1

    def test_config_run_serializes_its_config_once(self, outdir,
                                                   monkeypatch):
        # config.cfg and _meta.txt share one text, and the file is read
        # over the default's sections, not over the default's text
        assert run_cli("run", "--t-end", "0", "--out", str(outdir),
                       "--run-id", "src") == 0
        calls = []
        serialize = scenario.serialize_config

        def counted(cfg):
            calls.append(cfg)
            return serialize(cfg)

        monkeypatch.setattr(scenario, "serialize_config", counted)
        assert run_cli("run", "--config", str(outdir / "src" / "config.cfg"),
                       "--t-end", "0", "--out", str(outdir),
                       "--run-id", "again") == 0
        assert len(calls) == 1
        meta = (outdir / "again" / "again_meta.txt").read_text()
        config = (outdir / "again" / "config.cfg").read_text()
        assert "".join("  " + line + "\n"
                       for line in config.splitlines()) in meta

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

    def test_rerun_replaces_the_earlier_tables(self, outdir):
        # a rerun on a mode list other than the reference's kept the first
        # run's five-mode reconciliation next to its own tables
        assert run_cli("coeffs", "--out", str(outdir / "a"),
                       "--run-id", "c") == 0
        (outdir / "a" / "c" / "notes.txt").write_text("kept\n")
        for root in ("a", "fresh"):
            assert run_cli("coeffs", "--modes", "2,4", "--out",
                           str(outdir / root), "--run-id", "c") == 0
        fresh = sorted(os.listdir(outdir / "fresh" / "c"))
        assert fresh == ["cd_table.dat", "g_tensor.dat"]
        assert sorted(os.listdir(outdir / "a" / "c")) == fresh + ["notes.txt"]
        for name in fresh:
            assert ((outdir / "a" / "c" / name).read_bytes()
                    == (outdir / "fresh" / "c" / name).read_bytes()), name

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

    @pytest.mark.parametrize("modes, combination", [
        ("1023,1025,2048", "2048 + 1023 - 1023 = 2048"),
        ("512,1024,1536", "1024 + 512 + 512 = 2048")])
    def test_list_the_quadrature_grid_aliases_exits_2(self, outdir, capsys,
                                                      modes, combination):
        # some n +- m +- k is a nonzero multiple of the grid's 1024
        # intervals, so the cross-check fails on a closed form it cannot
        # test: that was exit 1, "check failure"
        assert run_cli("coeffs", "--modes", modes, "--out", str(outdir),
                       "--run-id", "al") == 2
        listed = modes.replace(",", ", ")
        assert capsys.readouterr().err.splitlines() == [
            f"config error: the 1025-node quadrature grid cannot resolve "
            f"modes ({listed}): {combination} is a nonzero multiple of its "
            f"1024 intervals"]
        assert not (outdir / "al").exists()

    def test_mismatch_on_a_list_the_grid_resolves_exits_1(self, outdir,
                                                          capsys,
                                                          monkeypatch):
        quadrature = coefficients._tensor_quadrature

        def off_by_a_percent(basis, sigma):
            g, size = quadrature(basis, sigma)
            return 1.01 * g, size

        monkeypatch.setattr(coefficients, "_tensor_quadrature",
                            off_by_a_percent)
        assert run_cli("coeffs", "--out", str(outdir), "--run-id", "off") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "check failure: quadrature/closed-form tensor mismatch")

    def test_paddle_and_grid_rules_do_not_apply(self, outdir):
        # a pulse far below the grid spacing stops `run`, not the tables
        cfgfile = outdir / "pulse.cfg"
        cfgfile.write_text("[paddle]\nl = 1e-6\n[grid]\nx0 = 1e300\n")
        assert run_cli("run", "--config", str(cfgfile),
                       "--out", str(outdir), "--run-id", "r") == 2
        assert run_cli("coeffs", "--config", str(cfgfile),
                       "--out", str(outdir), "--run-id", "c") == 0
        assert (outdir / "c" / "cd_table.dat").exists()


@pytest.mark.parametrize("modes", ["2", "2,4"])
@pytest.mark.parametrize("sigma", [sign * size for size in (
    1e-320, 1e-300, 1.0, 1e150, 1e300, 1e308) for sign in (1, -1)])
def test_sigma_across_the_float_range_raises_no_warning(outdir, modes,
                                                        sigma):
    # at sigma = 1e-320 the quadrature check compared two subnormal
    # tensors (exit 1), and at 1e308 with one mode the quadrature's size
    # and the unused triad_scale overflowed (RuntimeWarning)
    cfgfile = outdir / "sigma.cfg"
    cfgfile.write_text(f"[run]\nsigma = {sigma!r}\nmodes = {modes}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tables = run_cli("coeffs", "--config", str(cfgfile),
                         "--out", str(outdir), "--run-id", "c")
        run = run_cli("run", "--config", str(cfgfile), "--t-end", "0.0004",
                      "--out", str(outdir), "--run-id", "r")
    assert tables in (0, 2)
    # a triad coupling of 1e150 and more takes the two-mode state past the
    # float range in its first step: a numerical abort
    assert run in ((0, 2, 3) if modes == "2,4" and abs(sigma) >= 1e150
                   else (0, 2))


class TestOutOfMemory:
    """Valid scenarios too large for a 3 GiB address space: exit 2 and one
    `config error` line, never a traceback.  The cap makes every such
    allocation fail, whatever memory the host has."""

    CAP = 3 << 30

    def run_capped(self, outdir, *argv, cap_bytes=CAP):
        """The CLI in a subprocess whose address space is capped at
        cap_bytes, or not capped when cap_bytes is None."""
        resource = pytest.importorskip("resource")

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))

        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        return subprocess.run(
            [sys.executable, "-m", "wavetank.cli", *argv,
             "--out", str(outdir), "--run-id", "oom"],
            preexec_fn=None if cap_bytes is None else cap, env=env,
            capture_output=True, text=True, timeout=300)

    def assert_one_line(self, done, size):
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        [line] = done.stderr.splitlines()
        assert line.startswith(
            f"config error: out of memory: Unable to allocate {size} ")

    def test_field_synthesis(self, outdir):
        # steps to the end, then psi of shape (20000001, 256) fails; a dt
        # below stable_tau keeps the run's own warning off stderr
        done = self.run_capped(outdir, "run", "--modes", "1,10000000",
                               "--t-end", "0.0004", "--dt", "1e-5")
        self.assert_one_line(done, "38.1 GiB")

    def test_coefficient_tensor_in_the_preflight(self, outdir):
        # the dense (1500, 1500, 1500) tensor that the run builds, before
        # it makes its output directory
        modes = ",".join(str(m) for m in range(1, 1501))
        done = self.run_capped(outdir, "run", "--modes", modes)
        self.assert_one_line(done, "25.1 GiB")
        assert not (outdir / "oom").exists()

    def test_400_modes_run_in_1_gib(self, outdir):
        # the run builds its one dense (400, 400, 400) tensor, 488 MiB,
        # and peaks at 680 MB of address space; a pre-flight that built
        # its own copies would take the run past 1 GiB
        argv = ("run", "--modes", ",".join(map(str, range(1, 401))),
                "--t-end", "4e-5", "--dt", "1e-5")
        capped, free = outdir / "capped" / "oom", outdir / "free" / "oom"
        done = self.run_capped(capped.parent, *argv, cap_bytes=1 << 30)
        assert done.returncode == 0, done.stderr
        done = self.run_capped(free.parent, *argv, cap_bytes=None)
        assert done.returncode == 0, done.stderr
        # the same data bytes; the sidecar holds the wall time
        data = sorted(f.name for f in capped.iterdir()
                      if not f.name.endswith("_meta.txt"))
        assert data == sorted(f.name for f in free.iterdir()
                              if not f.name.endswith("_meta.txt"))
        # config, two snapshots, 400 mode files, the field and its section
        assert len(data) == 1 + 2 + 400 + 2
        for name in data:
            assert (capped / name).read_bytes() == (free / name).read_bytes(), name


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
