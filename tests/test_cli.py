import json
import math

import pytest

from dyncool import cli
from dyncool.protocols import parse_config


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


class TestPresets:
    def test_list_has_nine(self, capsys):
        assert run_cli("presets", "list") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 9

    def test_export_unknown_exits_2(self, capsys):
        assert run_cli("presets", "export", "nope") == 2

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

    def test_target_override(self, tmp_path, capsys):
        out = tmp_path / "t"
        assert run_cli("run", "--preset", "fig2", "--cycles", "5",
                       "--out-dir", str(out), "--target", "1", "--target", "0",
                       "--plot") == 0
        first = (out / "timeseries.csv").read_text().splitlines()[1]
        # initial p_target is the thermal occupation of level 1
        assert float(first.split(",")[3]) == pytest.approx(6.0 / 49.0, rel=1e-6)

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


def test_console_entry_point():
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "dyncool.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
