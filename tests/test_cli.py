import json
import math

import mpmath as mp
import pytest

from dyncool import cli
from dyncool.protocols import parse_config
from oracles import laguerre_recurrence


def run_cli(*argv):
    return cli.main(list(argv))


class TestDark:
    def test_level_single_root(self, capsys):
        assert run_cli("dark", "level", "--m", "1", "--s", "8") == 0
        assert capsys.readouterr().out.strip() == "3.000000000000"

    def test_level_two_roots(self, capsys):
        assert run_cli("dark", "level", "--m", "2", "--s", "11") == 0
        parts = capsys.readouterr().out.strip().split(", ")
        vals = [float(p) for p in parts]
        assert vals[0] == pytest.approx(math.sqrt(13 - math.sqrt(13)), abs=1e-10)
        assert vals[1] == pytest.approx(math.sqrt(13 + math.sqrt(13)), abs=1e-10)

    def test_ratio(self, capsys):
        assert run_cli("dark", "ratio", "--eta", "3", "--target", "0,1") == 0
        assert capsys.readouterr().out.strip() == "0.125+0i"

    def test_level_zero_exits_3(self, capsys):
        assert run_cli("dark", "level", "--m", "0", "--s", "8") == 3

    def test_singular_ratio_exits_3(self, capsys):
        assert run_cli("dark", "ratio", "--eta", "1", "--target", "0,1") == 3

    @pytest.mark.parametrize("eta", ["9", "30"])
    def test_ground_target_far_from_zeros(self, capsys, eta):
        # e^{-eta^2/2} is 2.6e-18 at eta = 9 and 1e-196 at 30, and it is the
        # whole factor of level 0, which has no zero: the ratio is exactly -1
        assert run_cli("dark", "ratio", "--eta", eta, "--target", "0,0") == 0
        assert capsys.readouterr().out.strip() == "-1+0i"

    @pytest.mark.parametrize("eta, target", [("38.5", "0,1"), ("40", "0,0"),
                                             ("40", "0,100")])
    def test_ratio_refused_where_factors_go_subnormal(self, capsys, eta, target):
        # above eta = 37.64 e^{-eta^2/2} is subnormal: read from such factors
        # (0, 1) came out 1.7% off at 38.5, (0, 0) as vanishing at 40 and
        # (0, 100) as -0.0
        assert run_cli("dark", "ratio", "--eta", eta, "--target", target) == 3
        err = capsys.readouterr().err
        assert f"eta={float(eta)} exceeds 37.6403" in err
        assert "normal double range" in err

    @pytest.mark.parametrize("level, n_listed", [(100, 1), (300, 0)])
    def test_singular_ratio_names_level(self, capsys, level, n_listed):
        # eta at the smallest zero of L_level, from the 60-digit recurrence:
        # level 100 lists that dark eta alone, and level 300 is above the
        # solver's cap and lists none
        x = mp.findroot(lambda x: laguerre_recurrence(level, 0, x), 5.78 / (4 * level + 2))
        eta = float(mp.sqrt(x))
        assert run_cli("dark", "ratio", "--eta", repr(eta), "--target", f"0,{level}") == 3
        err = capsys.readouterr().err
        assert f"diagonal factor of level {level} vanishes at eta={eta}" in err
        listed = err.partition("dark etas for that level: ")[2]
        nearest = json.loads(listed) if listed else []
        assert len(nearest) == n_listed
        assert all(e == pytest.approx(eta, rel=1e-14) for e in nearest)

    @pytest.mark.parametrize("s", [0, 1500])
    def test_level_at_degree_cap(self, capsys, s):
        assert run_cli("dark", "level", "--m", "256", "--s", str(s)) == 0
        vals = [float(p) for p in capsys.readouterr().out.strip().split(", ")]
        assert len(vals) == 256
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_level_above_degree_cap_exits_3(self, capsys):
        assert run_cli("dark", "level", "--m", "257", "--s", "0") == 3


class TestPresets:
    def test_list_has_nine(self, capsys):
        assert run_cli("presets", "list") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 9

    def test_export_unknown_exits_2(self, capsys):
        assert run_cli("presets", "export", "nope") == 2

    def test_export_into_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "p.cfg"
        assert run_cli("presets", "export", "fig2", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: cannot write output:")

    def test_export_round_trips(self, tmp_path, capsys):
        assert run_cli("presets", "export", "fig5_A_minus",
                       "--out", str(tmp_path / "p.cfg")) == 0
        spec = parse_config((tmp_path / "p.cfg").read_text())
        assert spec.trap.dims == 2
        assert [p.s for p in spec.protocol.pulses][:2] == [-18, -9]


class TestRates:
    def test_fig2_first_pulse_zero_below_nine(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli("rates", "--preset", "fig2", "--pulse", "0",
                       "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        vals = {int(m): float(v) for m, v in rows}
        assert all(vals[m] == 0.0 for m in range(9))
        assert vals[9] > 0.0

    def test_fig3_dark_pulse_level1(self, capsys):
        assert run_cli("rates", "--preset", "fig3", "--pulse", "1") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3] == "1,0"

    def test_out_into_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.csv"
        assert run_cli("rates", "--preset", "fig2", "--pulse", "0", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: cannot write output:")

    def test_out_of_range_pulse_exits_2(self, capsys):
        assert run_cli("rates", "--preset", "fig2", "--pulse", "7") == 2


class TestRun:
    def test_missing_config_exits_2(self, capsys):
        assert run_cli("run", "--config", "missing.cfg") == 2

    def test_bad_config_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[trap]\nconfusion = 1\n")
        assert run_cli("run", "--config", str(cfg)) == 2
        assert "confusion" in capsys.readouterr().err

    def test_validation_failure_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("[trap]\neta = 3\ngamma_over_omega = 0.01\ndims = 1\n"
                       "n_max = 40\n[[pulse]]\ns = -9.5\n")
        assert run_cli("run", "--config", str(cfg)) == 3
        assert "integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, code", [
        ("n_max", "1e400", 2), ("cycles", "1e400", 2), ("seed", "1e400", 2),
        ("trajectories", "-1e400", 2), ("thermal_mean", "inf", 3),
        ("thermal_mean", "1e400", 3)])
    def test_overflowing_number_refused(self, tmp_path, capsys, key, value, code):
        # an integer key that overflows is a config error naming its key and
        # line; an infinite thermal mean is outside the thermal state's domain
        lines = ["[trap]", "eta = 0.5", "gamma_over_omega = 0.01", "dims = 1",
                 "n_max = 30", "[init]", "thermal_mean = 1", "[[pulse]]", "s = -1",
                 "[run]", "cycles = 3", "trajectories = 5", "seed = 1"]
        lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(key))
        lines[lineno - 1] = f"{key} = {value}"
        cfg = tmp_path / "o.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        assert run_cli("run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")) == code
        err = capsys.readouterr().err
        if code == 2:
            assert f"line {lineno}: bad value for {key!r}" in err
        else:
            assert "thermal mean must be positive and finite" in err

    def test_weak_confinement_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "w.cfg"
        cfg.write_text("[trap]\neta = 3\ngamma_over_omega = 1.5\ndims = 1\n"
                       "n_max = 40\n[[pulse]]\ns = -9\n")
        assert run_cli("run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")) == 3
        assert "not resolved" in capsys.readouterr().err

    def test_unfoldable_quadrature_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "q.cfg"
        cfg.write_text("[trap]\neta = 3\ngamma_over_omega = 0.01\ndims = 2\n"
                       "n_max = 4\nquad_theta = 63\n[[pulse]]\ns = -2\n")
        out = tmp_path / "o"
        assert run_cli("run", "--config", str(cfg), "--out-dir", str(out)) == 3
        assert "quad_theta must be even" in capsys.readouterr().err
        assert not out.exists()

    def test_preset_run_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--preset", "fig2", "--cycles", "10",
                       "--out-dir", str(out), "--plot",
                       "--final-distribution") == 0
        assert (out / "timeseries.csv").exists()
        assert (out / "manifest.json").exists()
        assert (out / "plot.svg").exists()
        assert (out / "distribution_final.csv").exists()
        header = (out / "timeseries.csv").read_text().splitlines()[0]
        assert header == "cycle,pulse,t_tau0,p_target,mean_nx,mean_ny,mean_n,leak"
        svg = (out / "plot.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_mc_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("run", "--preset", "fig2", "--mode", "mc",
                           "--trajectories", "1", "--seed", "7",
                           "--cycles", "20", "--out-dir", str(out)) == 0
        assert (a / "timeseries.csv").read_bytes() == (b / "timeseries.csv").read_bytes()

    def test_config_equivalent_to_preset(self, tmp_path, capsys):
        cfg = tmp_path / "fig2.cfg"
        assert run_cli("presets", "export", "fig2", "--out", str(cfg)) == 0
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        assert run_cli("run", "--preset", "fig2", "--cycles", "15",
                       "--out-dir", str(d1)) == 0
        assert run_cli("run", "--config", str(cfg), "--cycles", "15",
                       "--out-dir", str(d2)) == 0
        assert (d1 / "timeseries.csv").read_bytes() == (d2 / "timeseries.csv").read_bytes()

    def test_manifest_replay_bitwise(self, tmp_path, capsys):
        d1 = tmp_path / "d1"
        assert run_cli("run", "--preset", "fig3", "--cycles", "12",
                       "--out-dir", str(d1)) == 0
        manifest = json.loads((d1 / "manifest.json").read_text())
        cfg = tmp_path / "replay.cfg"
        cfg.write_text(manifest["config"])
        d2 = tmp_path / "d2"
        assert run_cli("run", "--config", str(cfg), "--out-dir", str(d2)) == 0
        assert (d1 / "timeseries.csv").read_bytes() == (d2 / "timeseries.csv").read_bytes()

    def test_manifest_contents(self, tmp_path, capsys):
        out = tmp_path / "m"
        assert run_cli("run", "--preset", "fig2", "--cycles", "5",
                       "--out-dir", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "master"
        assert manifest["outputs"]["timeseries"] == "timeseries.csv"
        assert "wall_clock_seconds" in manifest and "version" in manifest
        # the embedded config is fully resolved
        assert "quad_theta" in manifest["config"]

    @pytest.mark.parametrize("mode, phases", [
        ("master", {"rates.rate_matrix", "dynamics.propagate"}),
        ("mc", {"rates.column_sampler", "dynamics.mc"})])
    def test_manifest_phases(self, tmp_path, capsys, mode, phases):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("[trap]\neta = 1\ngamma_over_omega = 0.01\ndims = 2\n"
                       "n_max = 10\n[init]\nthermal_mean = 1\n"
                       "[[pulse]]\ns = -2\nA_re = -1\n[[pulse]]\ns = 0\nA_re = -1\n"
                       "[run]\ncycles = 4\ntarget = 0,0\n")
        out = tmp_path / mode
        assert run_cli("run", "--config", str(cfg), "--mode", mode,
                       "--trajectories", "20", "--out-dir", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["phases"]) == phases
        assert all(v >= 0.0 for v in manifest["phases"].values())
        assert sum(manifest["phases"].values()) <= manifest["wall_clock_seconds"]
        # both pulses (s <= 0) share one kernel; Monte Carlo builds no matrix
        assert manifest["cache"] == {
            "emission_kernel": {"builds": 1, "hits": 1},
            "rate_matrix": {"builds": 2 if mode == "master" else 0, "hits": 0}}
        if mode == "mc":
            assert 0 < manifest["columns_built"] <= 2 * 121
            # 20 trajectories: the total jumps and the most one made
            assert 0 < manifest["jumps_max"] <= manifest["jumps"] <= 20 * manifest["jumps_max"]
            assert not {"basis", "states", "clipped_mass"} & set(manifest)
        else:
            assert "columns_built" not in manifest
            # |A| = 1 and a thermal start: the unordered level pairs of 11 x 11
            assert manifest["basis"] == "swap" and manifest["states"] == 66
            assert 0.0 <= manifest["clipped_mass"] < 1e-12

    def test_target_override(self, tmp_path, capsys):
        out = tmp_path / "t"
        assert run_cli("run", "--preset", "fig2", "--cycles", "5",
                       "--out-dir", str(out), "--target", "1", "--target", "0",
                       "--plot") == 0
        first = (out / "timeseries.csv").read_text().splitlines()[1]
        # initial p_target is the thermal occupation of level 1
        assert float(first.split(",")[3]) == pytest.approx(6.0 / 49.0, rel=1e-6)

    def test_out_dir_is_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "file"
        out.write_text("")
        assert run_cli("run", "--preset", "fig2", "--cycles", "2", "--out-dir", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: cannot write output:")

    def test_mc_plot_draws_every_target(self, tmp_path, capsys):
        out = tmp_path / "mc"
        assert run_cli("run", "--preset", "fig2", "--mode", "mc", "--trajectories", "50",
                       "--cycles", "5", "--out-dir", str(out), "--target", "0",
                       "--target", "1", "--plot") == 0
        svg = (out / "plot.svg").read_text()
        assert svg.count("<polyline") == 2
        assert ">P0</text>" in svg and ">P1</text>" in svg

    @pytest.mark.parametrize("mode", ["master", "mc"])
    def test_extra_target_outside_truncation_exits_3(self, tmp_path, capsys, mode):
        assert run_cli("run", "--preset", "fig2", "--mode", mode, "--trajectories", "5",
                       "--cycles", "2", "--out-dir", str(tmp_path), "--target", "0",
                       "--target", "999") == 3
        assert "target 999 outside truncation" in capsys.readouterr().err

    def test_resource_limit_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "big.cfg"
        cfg.write_text("[trap]\neta = 3\ngamma_over_omega = 0.01\ndims = 2\n"
                       "n_max = 400\n[[pulse]]\ns = -9\n[run]\ncycles = 1\n")
        out = tmp_path / "o"
        assert run_cli("run", "--config", str(cfg), "--out-dir", str(out)) == 4

    def test_final_distribution_refused_in_mc_mode(self, tmp_path, capsys):
        # a Monte Carlo run keeps no distribution: refuse before any work,
        # whether the mode comes from the flag or from the config
        cfg = tmp_path / "mc.cfg"
        cfg.write_text("[trap]\neta = 0.5\ngamma_over_omega = 0.01\ndims = 1\n"
                       "n_max = 30\n[[pulse]]\ns = -1\n[run]\ncycles = 3\n"
                       "mode = mc\ntrajectories = 5\n")
        out = tmp_path / "o"
        for source in (["--preset", "fig2", "--mode", "mc"], ["--config", str(cfg)]):
            assert run_cli("run", *source, "--cycles", "3", "--out-dir", str(out),
                           "--final-distribution") == 2
            assert "--final-distribution" in capsys.readouterr().err
            assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        # numpy seeds take no negative integer: refuse at parse time, before
        # any sampler is built, from the flag and from the config alike
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("[trap]\neta = 0.5\ngamma_over_omega = 0.01\ndims = 1\n"
                       "n_max = 30\n[[pulse]]\ns = -1\n[run]\ncycles = 3\n"
                       "mode = mc\ntrajectories = 5\nseed = -3\n")
        out = tmp_path / "o"
        for source in (["--preset", "fig2", "--mode", "mc", "--seed", "-3"],
                       ["--config", str(cfg)]):
            assert run_cli("run", *source, "--out-dir", str(out)) == 2
            assert "seed must be a non-negative integer" in capsys.readouterr().err
            assert not out.exists()

    def test_cycles_in_config_respected(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[trap]\neta = 0.5\ngamma_over_omega = 0.01\ndims = 1\n"
                       "n_max = 30\n[init]\nthermal_mean = 1\n"
                       "[[pulse]]\ns = -1\n[run]\ncycles = 7\nmode = master\n"
                       "trajectories = 10\nseed = 1\ntarget = 0\n")
        out = tmp_path / "o"
        assert run_cli("run", "--config", str(cfg), "--out-dir", str(out)) == 0
        rows = (out / "timeseries.csv").read_text().splitlines()
        assert rows[-1].startswith("7,1,")

    def test_final_distribution_is_where_the_run_stopped(self, tmp_path, capsys):
        cfg = tmp_path / "stop.cfg"
        cfg.write_text("[trap]\neta = 1\ngamma_over_omega = 0.01\ndims = 1\n"
                       "n_max = 20\n[init]\nthermal_mean = 1\n"
                       "[[pulse]]\ns = -1\nduration_tau0 = 5\n"
                       "[[pulse]]\ns = -2\nduration_tau0 = 5\n"
                       "[run]\ncycles = 500\n")
        out = tmp_path / "o"
        assert run_cli("run", "--config", str(cfg), "--out-dir", str(out),
                       "--final-distribution") == 0
        last = (out / "timeseries.csv").read_text().splitlines()[-1].split(",")
        cycle, p_target, leak = int(last[0]), last[3], last[7]
        assert cycle < 500  # the early stop fired
        lines = (out / "distribution_final.csv").read_text().splitlines()
        assert lines[0] == f"# final distribution after {cycle} cycles; leak = {leak}"
        assert lines[1:3] == ["n,probability", f"0,{p_target}"]


def test_config_parse_imports_no_scipy(tmp_path):
    # scipy is a test dependency only: neither loading the package and
    # parsing a config nor a master run, propagators included, imports it
    import subprocess
    import sys
    loaded = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    parse = ("import sys, dyncool\n"
             "from dyncool import protocols\n"
             "protocols.parse_config(protocols.write_config("
             "protocols.preset_runspec('fig5_A_minus')))\n" + loaded)
    run = ("import sys\n"
           "from dyncool import cli\n"
           "code = cli.main(['run', '--preset', 'fig3', '--cycles', '3', '--out-dir', "
           f"{str(tmp_path)!r}, '--final-distribution'])\n"
           "assert code == 0, code\n" + loaded)
    for code in (parse, run):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "distribution_final.csv").exists()


def test_console_entry_point():
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "dyncool.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
