"""Tests of the benchmark's own arithmetic; they do not run the program.

    python3 -m pytest perfbench/test_perfbench.py
"""

import math
import subprocess
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_self_time_of_synthetic_spans():
    # outer [0, 10] holds inner [1, 3] and inner [4, 8]; the second inner
    # holds leaf [5, 6]
    names = ["outer", "inner", "leaf"]
    name_id = [0, 1, 1, 2]
    start = [0.0, 1.0, 4.0, 5.0]
    end = [10.0, 3.0, 8.0, 6.0]
    parent = [-1, 0, 0, 2]
    out = spans.self_times(name_id, start, end, parent, names)
    assert out["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert out["inner"] == {"calls": 2, "total_s": 6.0, "self_s": 5.0}
    assert out["leaf"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_self_time_net_of_recorder_cost():
    # the spans above; each call costs 0.5 s outside its span, 0.25 s inside
    names = ["outer", "inner", "leaf"]
    out = spans.self_times([0, 1, 1, 2], [0.0, 1.0, 4.0, 5.0],
                           [10.0, 3.0, 8.0, 6.0], [-1, 0, 0, 2], names,
                           cost=(0.5, 0.25))
    assert out["leaf"] == {"calls": 1, "total_s": 0.75, "self_s": 0.75}
    assert out["inner"] == {"calls": 2, "total_s": 4.75, "self_s": 4.0}
    # 10 s less 0.75 s for each of the three spans below and 0.25 s its own
    assert out["outer"] == {"calls": 1, "total_s": 7.5, "self_s": 2.75}


def test_recorder_cost_is_measured():
    outside, inside = spans.recorder_cost(calls=20_000, rounds=3)
    assert 0.0 < outside + inside < 1e-4


def test_tracer_records_nesting_and_restores(tmp_path):
    ns = types.SimpleNamespace()
    ns.leaf = lambda x: x + 1
    ns.outer = lambda x: ns.leaf(x) + ns.leaf(x)
    original = dict(vars(ns))
    seen = []
    tracer = spans.Tracer()
    tracer.wrap(ns, "outer", "outer")
    tracer.wrap(ns, "leaf", "leaf", on_return=lambda a, k, r: seen.append(r))
    assert ns.outer(1) == 4
    assert seen == [2, 2]
    assert tracer.restore() == []
    assert vars(ns) == original

    tracer.dump(tmp_path / "s.bin")
    names, (name_id, start, end, parent) = spans.load(tmp_path / "s.bin")
    assert [names[i] for i in name_id] == ["outer", "leaf", "leaf"]
    assert list(parent) == [-1, 0, 0]
    out = spans.summarize(tmp_path / "s.bin")
    leaf_total = (end[1] - start[1]) + (end[2] - start[2])
    assert math.isclose(out["outer"]["self_s"], end[0] - start[0] - leaf_total)
    assert out["leaf"]["calls"] == 2


def test_wraps_methods_and_restores_class():
    class K:
        def f(self, i):
            return i * 2

    original = vars(K)["f"]
    calls = []
    tracer = spans.Tracer()
    tracer.wrap(K, "f", "k.f", on_return=lambda a, k, r: calls.append((a[1], r)))
    assert K().f(3) == 6
    assert calls == [(3, 6)]
    assert tracer.restore() == []
    assert vars(K)["f"] is original


def test_z_test_passes_on_reference_and_fails_far_off(tmp_path):
    curve = [{"cycle": 0, "p_target": 0.25, "leak": 0.0, "mean_n": 2.0, "mean_nx": 1.0},
             {"cycle": 30, "p_target": 0.5, "leak": 0.1, "mean_n": 3.0, "mean_nx": 1.5}]
    mc = {"n_traj": 1000, "cycles": [0, 30], "mean_n_se": [0.1, 0.1],
          "mean_nx_se": [0.05, 0.05]}

    def write(p30):
        lines = ["cycle,pulse,t_tau0,p_target,mean_nx,mean_ny,mean_n,leak",
                 "0,0,0,0.25,1.0,1.0,2.0,0",
                 f"30,8,240,{p30},1.5,1.5,3.0,0.1"]
        (tmp_path / "timeseries.csv").write_text("\n".join(lines) + "\n")

    sigma = math.sqrt(0.5 * 0.5 / 1000)
    write(0.5 + (checks.Z_MAX - 0.1) * sigma)
    assert checks.check_mc(tmp_path, mc, curve) == []
    write(0.5 + (checks.Z_MAX + 0.1) * sigma)
    assert len(checks.check_mc(tmp_path, mc, curve)) == 1


def test_reference_curve_takes_cycle_ends():
    rows = [{"cycle": c, "pulse": p, "p_target": c + p / 10, "leak": 0.0,
             "mean_n": 0.0, "mean_nx": 0.0}
            for c in range(0, 61) for p in ((0,) if c == 0 else (1, 2))]
    curve = checks.reference_curve(rows, 60)
    assert [r["cycle"] for r in curve] == [0, 30, 60]
    assert [r["p_target"] for r in curve] == [0.0, 30.2, 60.2]


def test_dead_job_is_a_failed_job(tmp_path, monkeypatch):
    def killed(args, deadline):
        return subprocess.CompletedProcess(args, -9, "", "Killed\n")

    def stopped(args, deadline):
        raise subprocess.TimeoutExpired(args, 170.0)

    monkeypatch.setattr(run, "setup_sample", lambda config, deadline: 0.2)
    for child in (killed, stopped):
        monkeypatch.setattr(run, "child", child)
        jobs, metrics, counts = run.measure("fig5_mc", 1, 0.0, tmp_path / "c.cfg",
                                            tmp_path, deadline=1e12)
        assert len(jobs) == 1 and jobs[0]["errors"]
        assert metrics == {"setup_s": (0.2, "s")}
