import math

import numpy as np
import pytest

from dyncool import dynamics, rates
from dyncool.dynamics import (Distribution, mc_ensemble, mc_trajectory,
                              observables, propagate_pulse, run_protocol,
                              thermal_distribution)
from dyncool.errors import DomainError
from dyncool.protocols import Protocol, preset
from dyncool.rates import Pulse, RateMatrix, TrapConfig

from oracles import (jump_trajectory, level_distribution, per_pulse_run,
                     uniformization_expm)


def trap_1d(eta=3.0, n_max=60, **kw):
    return TrapConfig(eta=eta, gamma_over_omega=0.01, dims=1, n_max=n_max, **kw)


def toy_matrix(gen, trap, pulse=None):
    """Wrap a hand-built generator (columns already summing to -leak)."""
    gen = np.asarray(gen, dtype=float)
    off = gen.copy()
    np.fill_diagonal(off, 0.0)
    leak = -(gen.sum(axis=0))
    closure = off.sum(axis=0) + leak
    return RateMatrix(gen, leak, closure, np.zeros(gen.shape[0]),
                      "resonant", trap, pulse or Pulse(s=0, duration=1.0))


class TestThermalDistribution:
    def test_1d_geometric_head(self):
        trap = trap_1d(n_max=120)
        dist = thermal_distribution(6.0, trap)
        assert dist.probs[0] == pytest.approx(1.0 / 7.0, rel=1e-8)
        assert dist.probs[1] / dist.probs[0] == pytest.approx(6.0 / 7.0, rel=1e-12)
        assert dist.leak == 0.0

    def test_1d_mean(self):
        trap = trap_1d(n_max=120)
        dist = thermal_distribution(6.0, trap)
        mean = observables(dist, 0).mean_n
        assert mean == pytest.approx(6.0, abs=1e-6)

    def test_2d_product_head(self):
        trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=2, n_max=40)
        with pytest.warns(UserWarning):
            dist = thermal_distribution(6.0, trap)
        # per-axis mean 3 so the total mean is 6; the warned-about thermal
        # tail beyond 40 per axis shaves a few 1e-4 off the means
        assert dist.probs[0] == pytest.approx(0.0625, rel=1e-4)
        obs = observables(dist, (0, 0))
        assert obs.mean_nx == pytest.approx(3.0, abs=1e-3)
        assert obs.mean_n == pytest.approx(6.0, abs=2e-3)

    def test_small_n_max_warns(self):
        trap = trap_1d(n_max=20)
        with pytest.warns(UserWarning):
            thermal_distribution(6.0, trap)

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(DomainError):
            thermal_distribution(0.0, trap_1d())


class TestObservables:
    def test_ground_delta(self):
        trap = trap_1d(n_max=10)
        dist = level_distribution(0, trap)
        obs = observables(dist, 0)
        assert obs.p_target == 1.0 and obs.mean_n == 0.0 and obs.leak == 0.0

    def test_uniform_two_levels(self):
        trap = trap_1d(n_max=10)
        probs = np.zeros(11)
        probs[0] = probs[1] = 0.5
        obs = observables(Distribution(probs, 0.0, trap.shape), 0)
        assert obs.p_target == 0.5
        assert obs.mean_n == 0.5

    def test_2d_axis_means(self):
        trap = TrapConfig(eta=1.0, gamma_over_omega=0.01, dims=2, n_max=4)
        dist = level_distribution((2, 3), trap)
        obs = observables(dist, (2, 3))
        assert obs.p_target == 1.0
        assert (obs.mean_nx, obs.mean_ny, obs.mean_n) == (2.0, 3.0, 5.0)

    def test_target_outside_truncation(self):
        trap = trap_1d(n_max=10)
        dist = level_distribution(0, trap)
        with pytest.raises(DomainError):
            observables(dist, 11)


class TestPropagatePulse:
    def test_zero_generator_is_identity(self):
        trap = trap_1d(n_max=3)
        mat = toy_matrix(np.zeros((4, 4)), trap)
        dist = Distribution(np.array([0.4, 0.3, 0.2, 0.1]), 0.0, trap.shape)
        out = propagate_pulse(dist, mat, 5.0)
        assert np.allclose(out.probs, dist.probs, atol=1e-15)
        assert out.leak == 0.0

    def test_two_level_decay(self):
        trap = trap_1d(n_max=1)
        gen = np.array([[0.0, 1.0], [0.0, -1.0]])
        mat = toy_matrix(gen, trap)
        dist = Distribution(np.array([0.0, 1.0]), 0.0, trap.shape)
        out = propagate_pulse(dist, mat, 1.0)
        assert out.probs[1] == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert out.probs[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_sideband_ladder_absorbs_into_ground(self):
        trap = trap_1d(eta=1e-3, n_max=10)
        mat = rates.rate_matrix(trap, Pulse(s=-1, duration=1.0))
        dist = level_distribution(7, trap)
        out = propagate_pulse(dist, mat, 1e8)
        assert out.probs[0] == pytest.approx(1.0, abs=1e-6)

    def test_matches_uniformization_oracle(self):
        trap = trap_1d(n_max=60)
        mat = rates.rate_matrix(trap, Pulse(s=-9, duration=1.0))
        ref = uniformization_expm(mat.generator, 1.0)
        dist = thermal_distribution(6.0, trap)
        out = propagate_pulse(dist, mat, 1.0)
        assert np.abs(out.probs - ref @ dist.probs).max() < 1e-9

    def test_semigroup_split(self):
        trap = trap_1d(n_max=60)
        mat = rates.rate_matrix(trap, Pulse(s=0, duration=1.0))
        dist = thermal_distribution(6.0, trap)
        once = propagate_pulse(dist, mat, 1.0)
        twice = propagate_pulse(propagate_pulse(dist, mat, 0.5), mat, 0.5)
        assert np.abs(once.probs - twice.probs).max() < 1e-9
        assert once.leak == pytest.approx(twice.leak, abs=1e-12)

    def test_dark_state_monotonicity(self):
        trap = trap_1d(n_max=40)
        mat = rates.rate_matrix(trap, Pulse(s=8, duration=1.0))  # level 1 dark
        dist = thermal_distribution(6.0, trap)
        prev = dist.probs[1]
        for _ in range(20):
            dist = propagate_pulse(dist, mat, 0.5)
            assert dist.probs[1] >= prev - 1e-12
            prev = dist.probs[1]

    def test_clipped_mass_is_counted(self):
        trap = trap_1d(n_max=1)
        mat = toy_matrix(np.zeros((2, 2)), trap)
        # a propagator whose rounding leaves one entry just below zero
        mat._propagators[1.0] = np.array([[1.0, 0.0], [-5e-13, 1.0]])
        dist = Distribution(np.array([1.0, 0.0]), 0.0, trap.shape)
        once = propagate_pulse(dist, mat, 1.0)
        twice = propagate_pulse(once, mat, 1.0)
        assert once.probs[1] == 0.0
        assert once.clipped == 5e-13
        assert twice.clipped == 1e-12

    def test_dimension_mismatch(self):
        trap = trap_1d(n_max=5)
        mat = rates.rate_matrix(trap, Pulse(s=0, duration=1.0))
        other = Distribution(np.ones(3) / 3, 0.0, (3,))
        with pytest.raises(DomainError):
            propagate_pulse(other, mat, 1.0)


class TestRunProtocol:
    def test_empty_protocol_single_sample(self):
        trap = trap_1d(n_max=20)
        proto = Protocol((), cycles=5, target=0)
        series = run_protocol(thermal_distribution(2.0, trap), proto, trap)
        assert len(series.samples) == 1
        assert series.samples[0].t == 0.0

    def test_conservation_every_pulse(self):
        proto, trap, mean = preset("fig2")
        proto = Protocol(proto.pulses, 40, proto.name, proto.target)
        series = run_protocol(thermal_distribution(mean, trap), proto, trap,
                              stop_tol=0.0)
        # Sigma probs + leak tracked via mean/leak snapshots is checked in
        # acceptance; here assert the sampled leaks are monotone and finite
        leaks = [s.obs.leak for s in series.samples]
        assert all(b >= a - 1e-15 for a, b in zip(leaks, leaks[1:]))
        assert len(series.samples) == 1 + 40 * 4

    def test_early_stop(self):
        trap = trap_1d(eta=1e-3, n_max=10)
        proto = Protocol((Pulse(s=-1, duration=1.0),), cycles=500, target=0)
        series = run_protocol(level_distribution(2, trap), proto, trap,
                              stop_tol=1e-6)
        assert series.samples[-1].cycle < 500

    def test_extra_targets_recorded(self):
        trap = trap_1d(n_max=20)
        proto = Protocol((Pulse(s=0, duration=1.0),), cycles=3, target=0)
        series = run_protocol(thermal_distribution(2.0, trap), proto, trap,
                              stop_tol=0.0, extra_targets=(1, 2))
        assert all(len(s.obs.extra) == 2 for s in series.samples)

    @pytest.mark.parametrize("mode", ["master", "mc"])
    def test_bad_extra_target_refused_before_any_rate(self, mode, monkeypatch):
        def refuse(*args):
            raise AssertionError("a rate matrix was built")
        monkeypatch.setattr(dynamics, "rate_matrix", refuse)
        trap = trap_1d(n_max=20)
        proto = Protocol((Pulse(s=0, duration=1.0),), cycles=3, target=0)
        with pytest.raises(DomainError, match="target 999 outside truncation"):
            run_protocol(level_distribution(3, trap), proto, trap, mode=mode,
                         trajectories=5, extra_targets=(999,))

    def test_csv_schema(self, tmp_path):
        trap = trap_1d(n_max=20)
        proto = Protocol((Pulse(s=0, duration=1.0),), cycles=2, target=0)
        series = run_protocol(thermal_distribution(2.0, trap), proto, trap,
                              stop_tol=0.0)
        path = tmp_path / "ts.csv"
        series.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "cycle,pulse,t_tau0,p_target,mean_nx,mean_ny,mean_n,leak"
        assert lines[1].startswith("0,0,0,")
        assert len(lines) == 1 + len(series.samples)


class TestMcTrajectory:
    def test_dark_state_never_jumps(self):
        trap = trap_1d(n_max=30)
        proto = Protocol((Pulse(s=8, duration=1.0),), cycles=50, target=1)
        res = mc_trajectory(1, proto, trap, np.random.default_rng(0))
        assert res.status == "completed"
        assert res.jumps == [(0.0, 1)]
        assert res.final_level == 1

    def test_pure_ladder_descends(self):
        trap = trap_1d(eta=1e-3, n_max=10)
        proto = Protocol((Pulse(s=-1, duration=1e7),), cycles=1, target=0)
        res = mc_trajectory(3, proto, trap, np.random.default_rng(1))
        levels = [lvl for _, lvl in res.jumps]
        assert levels == [3, 2, 1, 0]
        times = [t for t, _ in res.jumps]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_ensemble_single_matches_trajectory(self):
        # one stream: the initial draw, then the same pulse-by-pulse draws
        proto, trap, mean = preset("fig2")
        proto = Protocol(proto.pulses, 100, proto.name, proto.target)
        init = thermal_distribution(mean, trap)
        ens = mc_ensemble(1, proto, trap, seed=123, init=init)
        rng = np.random.default_rng(123)
        init_cum = np.cumsum(init.probs)
        init_cum /= init_cum[-1]
        level0 = int(np.searchsorted(init_cum, rng.random(), side="right"))
        res = mc_trajectory(level0, proto, trap, rng)
        assert len(res.jumps) > 1
        assert ens.jump_counts[0] == len(res.jumps) - 1
        completed = res.status == dynamics.COMPLETED
        assert ens.p_target[-1] == (1.0 if completed and res.final_level == 0 else 0.0)
        assert ens.mean_n[-1] == (res.final_level if completed else 0.0)
        assert ens.leak_frac[-1] == (0.0 if completed else 1.0)

    @pytest.mark.parametrize("case", ["1d", "2d"])
    def test_dark_start_never_jumps(self, case):
        if case == "1d":
            trap, target = trap_1d(n_max=30), 1
            proto = Protocol((Pulse(s=8, duration=1.0),), cycles=20, target=target)
        else:
            proto, trap0, _ = preset("fig5_A_minus")
            trap = TrapConfig(eta=trap0.eta, gamma_over_omega=trap0.gamma_over_omega,
                              dims=2, n_max=8)
            target = proto.target
            proto = Protocol(proto.pulses, 20, proto.name, target)
        init = level_distribution(target, trap)
        ens = mc_ensemble(50, proto, trap, seed=7, init=init)
        assert not ens.jump_counts.any()
        assert np.all(ens.p_target == 1.0)
        assert not ens.leak_frac.any()

    def test_leak_absorption_flags_trajectory(self):
        # a hot trap with a tiny basis forces ceiling absorption quickly
        trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=1, n_max=12)
        proto = Protocol((Pulse(s=0, duration=1.0),), cycles=4000, target=0)
        leaked = 0
        for i in range(8):
            res = mc_trajectory(10, proto, trap, np.random.default_rng((1, i)))
            if res.status == dynamics.LEAKED:
                leaked += 1
                assert res.jumps[-1][1] == -1  # leak marker ends the record
        assert leaked > 0

    def test_trajectory_matches_per_jump_loop(self):
        # the array stepper at n = 1 draws as the plain loop over jumps does;
        # this hot, shallow trap also leaks on some streams
        trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=1, n_max=12)
        proto = Protocol((Pulse(s=0, duration=1.0), Pulse(s=-9, duration=0.5)),
                         cycles=300, target=0)
        pulses = [(m.generator, m.leak, p.duration)
                  for p in proto.pulses for m in [rates.rate_matrix(trap, p)]]
        statuses = set()
        for i in range(6):
            res = mc_trajectory(10, proto, trap, np.random.default_rng((2, i)))
            ref = jump_trajectory(pulses, 10, proto.cycles, np.random.default_rng((2, i)))
            assert [lvl for _, lvl in res.jumps] == [lvl for _, lvl in ref]
            assert np.allclose([t for t, _ in res.jumps], [t for t, _ in ref],
                               rtol=1e-12, atol=0.0)
            statuses.add(res.status)
        assert statuses == {dynamics.LEAKED, dynamics.COMPLETED}

    def test_same_seed_bitwise(self):
        proto, trap, mean = preset("fig2")
        proto = Protocol(proto.pulses, 15, proto.name, proto.target)
        init = thermal_distribution(mean, trap)
        a = mc_ensemble(200, proto, trap, seed=99, init=init)
        b = mc_ensemble(200, proto, trap, seed=99, init=init)
        assert np.array_equal(a.p_target, b.p_target)
        assert np.array_equal(a.jump_counts, b.jump_counts)

    def test_ensemble_matches_deterministic(self):
        proto, trap, mean = preset("fig2")
        proto = Protocol(proto.pulses, 60, proto.name, proto.target)
        init = thermal_distribution(mean, trap)
        det = run_protocol(init, proto, trap, stop_tol=0.0)
        ens = mc_ensemble(1500, proto, trap, seed=2024, init=init)
        det_cycle = det.cycle_samples()
        n = ens.n_traj
        for rec in range(0, 61, 10):
            truth = det_cycle[rec].obs
            se = math.sqrt(max(truth.p_target * (1 - truth.p_target), 1e-12) / n)
            assert abs(ens.p_target[rec] - truth.p_target) < 4.0 * se + 1e-9

    def test_ensemble_extra_targets_match_deterministic(self):
        proto, trap, mean = preset("fig2")
        proto = Protocol(proto.pulses, 60, proto.name, proto.target)
        init = thermal_distribution(mean, trap)
        det = run_protocol(init, proto, trap, stop_tol=0.0, extra_targets=(1, 2))
        ens = mc_ensemble(1500, proto, trap, seed=2024, init=init, extra_targets=(1, 2))
        det_cycle = det.cycle_samples()
        assert ens.extra.shape == ens.extra_se.shape == (2, 61)
        for rec in range(0, 61, 10):
            for truth, got in zip(det_cycle[rec].obs.extra, ens.extra[:, rec]):
                se = math.sqrt(max(truth * (1 - truth), 1e-12) / ens.n_traj)
                assert abs(got - truth) < 4.0 * se + 1e-9

    @pytest.mark.parametrize("mode", ["master", "mc"])
    def test_extra_target_equal_to_target_reads_p_target(self, mode):
        proto, trap, mean = preset("fig2")
        proto = Protocol(proto.pulses, 20, proto.name, proto.target)
        series = run_protocol(thermal_distribution(mean, trap), proto, trap, mode=mode,
                              trajectories=200, stop_tol=0.0,
                              extra_targets=(proto.target,))
        assert len(series.samples) == (1 + 20 * len(proto.pulses) if mode == "master"
                                       else 21)
        assert all(s.obs.extra == (s.obs.p_target,) for s in series.samples)

    def test_mc_mode_timeseries(self):
        proto, trap, mean = preset("fig2")
        proto = Protocol(proto.pulses, 10, proto.name, proto.target)
        init = thermal_distribution(mean, trap)
        series = run_protocol(init, proto, trap, mode="mc", trajectories=50,
                              seed=3)
        assert series.mode == "mc"
        assert len(series.samples) == 11
        assert series.samples[0].obs.p_target == pytest.approx(0.14, abs=0.2)


def preset_run(name, n_max=20, cycles=6):
    """A 2D preset at basis depth ``n_max`` for ``cycles`` cycles, with its
    thermal start."""
    proto, trap0, mean = preset(name)
    trap = TrapConfig(eta=trap0.eta, gamma_over_omega=trap0.gamma_over_omega,
                      dims=2, n_max=n_max)
    proto = Protocol(proto.pulses, cycles, proto.name, proto.target)
    with pytest.warns(UserWarning):
        init = thermal_distribution(mean, trap)
    return init, proto, trap


class TestLumpedBasis:
    @pytest.mark.parametrize("name", ["fig5_A_minus", "fig5_A_plus", "fig6_solid"])
    def test_matches_full_basis(self, name, monkeypatch):
        init, proto, trap = preset_run(name)
        extra = ((0, 1), (3, 1), (2, 2))
        lumped = run_protocol(init, proto, trap, stop_tol=0.0, extra_targets=extra)
        monkeypatch.setattr(dynamics, "_swap_lumpable", lambda *args: False)
        full = run_protocol(init, proto, trap, stop_tol=0.0, extra_targets=extra)
        n1 = trap.n_max + 1
        assert lumped.diagnostics["basis"] == "swap"
        assert lumped.diagnostics["states"] == n1 * (n1 + 1) // 2
        assert full.diagnostics == {"basis": "full", "states": n1 * n1,
                                    "clipped_mass": 0.0}
        assert len(lumped.samples) == len(full.samples) == 1 + 6 * len(proto.pulses)
        for a, b in zip(lumped.samples, full.samples):
            assert (a.cycle, a.pulse, a.t) == (b.cycle, b.pulse, b.t)
            for field in ("p_target", "mean_nx", "mean_ny", "mean_n", "leak"):
                assert abs(getattr(a.obs, field) - getattr(b.obs, field)) <= 1e-12
        assert np.abs(_extra_table(lumped) - _extra_table(full)).max() <= 1e-12
        assert np.abs(lumped.final_distribution.probs
                      - full.final_distribution.probs).max() <= 1e-12

    @pytest.mark.parametrize("case", ["fig7", "asymmetric_start", "full_rates"])
    def test_full_basis_where_not_lumpable(self, case):
        name = "fig7" if case == "fig7" else "fig5_A_minus"
        init, proto, trap = preset_run(name, n_max=5, cycles=1)
        if case == "asymmetric_start":
            init = level_distribution((0, 1), trap)
        rate_mode = "resonant"
        if case == "full_rates":
            rate_mode, proto = "full", Protocol(proto.pulses[:1], 1, target=(0, 0))
        series = run_protocol(init, proto, trap, stop_tol=0.0, rate_mode=rate_mode)
        assert series.diagnostics["basis"] == "full"
        assert series.diagnostics["states"] == 36

    def test_written_final_distribution(self, tmp_path):
        from dyncool import cli
        cfg = tmp_path / "sym.cfg"
        cfg.write_text("[trap]\neta = 1\ngamma_over_omega = 0.01\ndims = 2\n"
                       "n_max = 10\n[init]\nthermal_mean = 1\n"
                       "[[pulse]]\ns = -2\nA_re = -1\n[[pulse]]\ns = 0\nA_re = 1\n"
                       "[run]\ncycles = 30\ntarget = 0,0\n")
        assert cli.main(["run", "--config", str(cfg), "--out-dir", str(tmp_path),
                         "--final-distribution"]) == 0
        lines = (tmp_path / "distribution_final.csv").read_text().splitlines()
        leak = float(lines[0].rsplit("=", 1)[1])
        grid = np.zeros((11, 11))
        for line in lines[2:]:
            nx, ny, p = line.split(",")
            grid[int(nx), int(ny)] = float(p)
        assert np.array_equal(grid, grid.T)
        assert leak > 1e-6
        assert grid.sum() + leak == pytest.approx(1.0, abs=1e-12)


def _sample_table(series):
    return np.array([[s.cycle, s.pulse, s.t, s.obs.p_target, s.obs.mean_nx,
                      s.obs.mean_ny, s.obs.mean_n, s.obs.leak] for s in series.samples])


def _extra_table(series):
    return np.array([s.obs.extra for s in series.samples])


def _fig2_run(cycles):
    proto, trap, mean = preset("fig2")
    return (thermal_distribution(mean, trap),
            Protocol(proto.pulses, cycles, proto.name, proto.target), trap)


class TestCycleStepping:
    """The cycle-at-a-time master run against the per-pulse oracle."""

    @pytest.mark.parametrize("case", ["fig2", "fig2_early_stop", "fig5_swap", "fig7_full"])
    def test_matches_per_pulse_oracle(self, case):
        if case.startswith("fig2"):
            (init, proto, trap), extra = _fig2_run(40), (1, 2, 7)
        elif case == "fig5_swap":
            init, proto, trap = preset_run("fig5_A_minus", n_max=12, cycles=10)
            extra = ((0, 1), (1, 0), (3, 2))
        else:
            init, proto, trap = preset_run("fig7", n_max=8, cycles=10)
            extra = ((0, 0), (1, 0), (2, 5))
        stop_tol = 4e-3 if case == "fig2_early_stop" else 0.0
        got = run_protocol(init, proto, trap, stop_tol=stop_tol, extra_targets=extra)
        want = per_pulse_run(init, proto, trap, stop_tol=stop_tol, extra_targets=extra)
        assert got.diagnostics["basis"] == want.diagnostics["basis"] == (
            "swap" if case == "fig5_swap" else "full")
        assert got.final().cycle == want.final().cycle
        assert got.final().cycle == (14 if case == "fig2_early_stop" else proto.cycles)
        a, b = _sample_table(got), _sample_table(want)
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-13
        assert np.abs(_extra_table(got) - _extra_table(want)).max() <= 1e-13
        fa, fb = got.final_distribution, want.final_distribution
        assert fa.shape == fb.shape == trap.shape
        assert np.abs(fa.probs - fb.probs).max() <= 1e-13
        assert abs(fa.leak - fb.leak) <= 1e-13
        assert fa.clipped == fb.clipped == 0.0
        assert got.diagnostics["clipped_mass"] == want.diagnostics["clipped_mass"] == 0.0

    def test_early_stop_at_first_quiet_cycle(self):
        init, proto, trap = _fig2_run(40)
        series = run_protocol(init, proto, trap, stop_tol=4e-3)
        ends = [s.obs.p_target for s in series.cycle_samples()]
        moves = np.abs(np.diff(ends))
        assert moves[-1] < 4e-3 and np.all(moves[:-1] >= 4e-3)

    def test_sample_times_equal_oracle(self):
        # durations whose running sum rounds differently from cycle multiples
        trap = trap_1d(n_max=20)
        pulses = (Pulse(s=-9, duration=0.1), Pulse(s=0, duration=0.7),
                  Pulse(s=-1, duration=0.3))
        proto = Protocol(pulses, 25, target=0)
        init = level_distribution(3, trap)
        got = [s.t for s in run_protocol(init, proto, trap, stop_tol=0.0).samples]
        want = [s.t for s in per_pulse_run(init, proto, trap, stop_tol=0.0).samples]
        assert got == want
        assert got[-1] != 25 * (0.1 + 0.7 + 0.3)

    def test_negative_partial_product_refused_before_first_cycle(self, monkeypatch):
        trap = trap_1d(n_max=1)
        first, second = toy_matrix(np.zeros((2, 2)), trap), toy_matrix(np.zeros((2, 2)), trap)
        first._propagators[1.0] = np.array([[1.0, 0.0], [-5e-12, 1.0]])
        mats = iter((first, second))
        monkeypatch.setattr(dynamics, "rate_matrix", lambda *args: next(mats))
        stepped = []
        monkeypatch.setattr(dynamics, "propagate_pulse",
                            lambda *args: stepped.append(args))
        proto = Protocol((Pulse(s=-1, duration=1.0), Pulse(s=0, duration=1.0)), 3,
                         target=0)
        with pytest.raises(DomainError, match="significantly negative occupation"):
            run_protocol(level_distribution(0, trap), proto, trap)
        assert stepped == []

    @pytest.mark.parametrize("n_max,cycles", [(120, 200), (480, 1000)])
    def test_leak_nondecreasing_every_pulse(self, n_max, cycles):
        # at depth 480 a cycle-end leak taken from the cycle map's output
        # alone, not chained pulse by pulse, drops below the chained
        # leak of the pulse before it at 17 rows
        proto, trap, mean = preset("fig3")
        trap = TrapConfig(eta=trap.eta, gamma_over_omega=trap.gamma_over_omega,
                          dims=1, n_max=n_max)
        proto = Protocol(proto.pulses, cycles, proto.name, proto.target)
        series = run_protocol(thermal_distribution(mean, trap), proto, trap, stop_tol=0.0)
        leaks = [s.obs.leak for s in series.samples]
        assert len(leaks) == 1 + cycles * 4
        assert all(b >= a for a, b in zip(leaks, leaks[1:]))

    @pytest.mark.parametrize("pulses,cycles", [((), 5), ((Pulse(s=-1, duration=1.0),), 0)])
    def test_no_cycle_computes_nothing(self, pulses, cycles, monkeypatch):
        def refuse(*args):
            raise AssertionError("a propagator or cycle map was computed")
        monkeypatch.setattr(rates, "markov_expm", refuse)
        monkeypatch.setattr(dynamics, "_CycleMap", refuse)
        trap = trap_1d(n_max=20)
        init = level_distribution(3, trap)
        series = run_protocol(init, Protocol(pulses, cycles, target=0), trap, stop_tol=0.0)
        assert len(series.samples) == 1 and series.samples[0].obs.extra == ()
        assert series.samples[0].t == 0.0
        assert np.array_equal(series.final_distribution.probs, init.probs)


class TestRecordedRun:
    def test_fig5_master_matches_recorded_values(self):
        # fig5_A_minus at n_max 16 after 30 cycles, as recorded at commit
        # 26db19c, which summed the dense recoil tensors of every 2D column
        init, proto, trap = preset_run("fig5_A_minus", n_max=16, cycles=30)
        series = run_protocol(init, proto, trap, stop_tol=0.0)
        final = series.final().obs
        got = [final.p_target, final.mean_nx, final.mean_ny, final.mean_n, final.leak]
        want = [0.10380574812648555, 1.4765702752263716, 1.4765702752263712,
                2.953140550452743, 0.39256030989733537]
        assert np.abs(np.array(got) - want).max() <= 1e-12
        cycle10 = series.cycle_samples()[10].obs
        assert np.abs(np.array([cycle10.p_target, cycle10.mean_n, cycle10.leak])
                      - [0.08269649812519358, 5.066611291410081, 0.17154505944284304]
                      ).max() <= 1e-12
        grid = series.final_distribution.grid()
        levels = ((0, 0), (1, 0), (1, 1), (2, 0), (3, 5), (8, 8), (16, 16))
        want = [0.10380574812648555, 0.06515689172481852, 0.06658993881207262,
                0.011451251841032926, 0.000485058515004156, 0.0011090410744642545,
                5.7992179364393194e-05]
        assert np.abs(np.array([grid[lv] for lv in levels]) - want).max() <= 1e-12
        assert abs(grid.sum() - 0.6074396901026645) <= 1e-12


class TestTruncationRobustness:
    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4"])
    def test_raising_n_max_leaves_endpoint(self, name):
        proto, trap0, mean = preset(name)
        vals = {}
        for n_max in (120, 160):
            trap = TrapConfig(eta=trap0.eta, gamma_over_omega=trap0.gamma_over_omega,
                              dims=1, n_max=n_max)
            init = thermal_distribution(mean, trap)
            series = run_protocol(init, proto, trap, stop_tol=0.0)
            vals[n_max] = series.final().obs.p_target
        assert abs(vals[120] - vals[160]) < 1e-4
