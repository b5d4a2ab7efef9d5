import dataclasses
import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from dyncool import dynamics, rates
from dyncool.dynamics import (Distribution, mc_ensemble, observables, propagate_pulse,
                              run_protocol, thermal_distribution)
from dyncool.errors import DomainError, ResourceLimitError
from dyncool.protocols import RUN_DEFAULTS, Protocol, preset
from dyncool.rates import Pulse, RateMatrix, TrapConfig

from oracles import (emission_destination, flat_level, jump_trajectory, level_distribution,
                     per_pulse_run, uniformization_expm)


def trap_1d(eta=3.0, n_max=60, **kw):
    return TrapConfig(eta=eta, gamma_over_omega=0.01, dims=1, n_max=n_max, **kw)


def toy_matrix(gen):
    """Wrap a hand-built generator (columns already summing to -leak)."""
    gen = np.asarray(gen, dtype=float)
    leak = -(gen.sum(axis=0))
    return RateMatrix(gen, leak, np.zeros(gen.shape[0]), "resonant")


def random_generator(rng, n):
    """A dense random n x n Markov generator with no leak, its largest exit
    rate 1."""
    g = rng.random((n, n))
    np.fill_diagonal(g, 0.0)
    np.fill_diagonal(g, -g.sum(axis=0))
    return g / -g.diagonal().min()


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
        mat = toy_matrix(np.zeros((4, 4)))
        dist = Distribution(np.array([0.4, 0.3, 0.2, 0.1]), 0.0, trap.shape)
        out = propagate_pulse(dist, mat, 5.0)
        assert np.allclose(out.probs, dist.probs, atol=1e-15)
        assert out.leak == 0.0

    def test_two_level_decay(self):
        trap = trap_1d(n_max=1)
        gen = np.array([[0.0, 1.0], [0.0, -1.0]])
        mat = toy_matrix(gen)
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
        mat = toy_matrix(np.zeros((2, 2)))
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

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_duration_refused(self, duration):
        trap = trap_1d(n_max=5)
        mat = rates.rate_matrix(trap, Pulse(s=0, duration=1.0))
        with pytest.raises(DomainError, match="finite and >= 0"):
            propagate_pulse(level_distribution(3, trap), mat, duration)
        with pytest.raises(DomainError, match="finite and >= 0"):
            rates.markov_expm(mat.generator, duration)


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

    def test_early_stop_holds_no_budget_sized_table(self):
        # a table of 10^12 cycles would fail to allocate
        trap = trap_1d(eta=1e-3, n_max=10)
        proto = Protocol((Pulse(s=-1, duration=1.0),), cycles=10 ** 12, target=0)
        series = run_protocol(level_distribution(2, trap), proto, trap,
                              stop_tol=1e-6)
        assert series.final().cycle < 500

    @pytest.mark.parametrize("extra", [(), (1, 2)])
    def test_mc_cycle_budget_refused_before_any_provider(self, extra, monkeypatch):
        # a Monte Carlo ensemble records every cycle boundary: 10^9 cycles
        # are refused, naming the count, before any provider is built, and
        # check_budgets refuses them alike
        def refuse(*args, **kwargs):
            raise AssertionError("a provider was built")
        monkeypatch.setattr(rates, "_providers", refuse)
        trap = trap_1d(eta=1.0, n_max=6)
        proto = Protocol((Pulse(s=-1, duration=1.0),), cycles=10 ** 9, target=0)
        with pytest.raises(ResourceLimitError, match="of 1000000000 cycles"):
            mc_ensemble(5, proto, trap, seed=1, init=level_distribution(2, trap),
                        extra_targets=extra)
        with pytest.raises(ResourceLimitError, match="of 1000000000 cycles"):
            rates.check_budgets(proto, trap, "mc", extra)
        rates.check_budgets(proto, trap)  # a master run stops early with a small table

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

    @pytest.mark.parametrize("mode", ["master", "mc"])
    def test_unknown_rate_mode_refused_at_zero_cycles(self, mode):
        # both run modes refuse the rate mode itself, not only where a
        # provider is built
        trap = trap_1d(n_max=6)
        proto = Protocol((Pulse(s=-9, duration=1.0),), cycles=0, target=0)
        with pytest.raises(DomainError, match="unknown rate mode 'x'"):
            run_protocol(thermal_distribution(2.0, trap), proto, trap, mode=mode,
                         rate_mode="x", trajectories=5)

    @pytest.mark.parametrize("mode", ["master", "mc"])
    def test_start_of_another_trap_refused_before_any_provider(self, mode, monkeypatch):
        # a 2D start (25 levels) on a 1D trap of 7 levels
        def refuse(*args):
            raise AssertionError("a provider was built")
        monkeypatch.setattr(rates, "_provider", refuse)
        trap = trap_1d(n_max=6)
        other = level_distribution((1, 1), TrapConfig(eta=3.0, gamma_over_omega=0.01,
                                                      dims=2, n_max=4))
        proto = Protocol((Pulse(s=0, duration=1.0),), cycles=3, target=0)
        with pytest.raises(DomainError, match=r"shape \(5, 5\), the trap \(7,\)"):
            run_protocol(other, proto, trap, mode=mode, trajectories=5)

    @pytest.mark.parametrize("mode", ["master", "mc"])
    def test_start_of_wrong_size_refused(self, mode):
        # 25 probabilities labelled as the 7 levels of a 1D trap: Monte
        # Carlo counted the 18 extra levels as leaked (leak 0.71 at cycle
        # 0), and a master run failed with a bare ValueError
        trap = trap_1d(n_max=6)
        proto = Protocol((Pulse(s=0, duration=1.0),), cycles=3, target=0)
        with pytest.raises(DomainError, match=r"25 probabilities for shape \(7,\)"):
            run_protocol(Distribution(np.ones(25) / 25, 0.0, (7,)), proto, trap,
                         mode=mode, trajectories=5)

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


class Stream:
    """A seeded generator that logs what the Monte Carlo stepper draws.

    It keeps the size of each exponential draw.  When ``_jump_rounds``
    draws the uniforms of its jumpers' destinations, it logs the first
    jumper's time into ``times``, read from the stepper's frame as
    cycle * (cycle time) + (start of pulse j) + delta.
    """

    def __init__(self, rng, times):
        self.rng, self.times, self.exponentials = rng, times, []

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def standard_exponential(self, size):
        self.exponentials.append(size)
        return self.rng.standard_exponential(size)

    def random(self, size=None):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "_jump_rounds":
            local = frame.f_locals
            durations, j = local["durations"], int(local["j"][0])
            self.times.append(int(local["cycle"][0]) * sum(durations) + sum(durations[:j])
                              + float(local["delta"][0]))
        return self.rng.random(size)


def streams(patch, times):
    """Make every ``np.random.default_rng`` a ``Stream`` logging to ``times``;
    returns the list they are appended to (a 2D sketch seeds its own)."""
    made, make = [], np.random.default_rng
    patch.setattr(np.random, "default_rng",
                  lambda *args: made.append(Stream(make(*args), times)) or made[-1])
    return made


def mc_jumps(proto, trap, init, seed):
    """``mc_ensemble(1, ...)`` and its trajectory: (time, flat level) at the
    start and after each jump, level -1 being absorption into the leak.

    Three spies record the jumps.  The ensemble's ``Stream`` logs each
    jump's time, ``ColumnSampler.jump_distribution`` each jump's source,
    and ``_jump_rounds`` keeps the level array it steps in place, whose
    entry at the end is where the last jump landed (``n_states``: the
    leak).  A jump lands where the next one starts.
    """
    times, levels, end = [0.0], [], []
    column, rounds = rates.ColumnSampler.jump_distribution, dynamics._jump_rounds

    def logged(sampler, index):
        levels.append(index)
        return column(sampler, index)

    def kept(samplers, durations, level, *args):
        out = rounds(samplers, durations, level, *args)
        end.append(-1 if level[0] == trap.n_states else int(level[0]))
        return out

    with pytest.MonkeyPatch.context() as patch:
        streams(patch, times)
        patch.setattr(dynamics, "_jump_rounds", kept)
        patch.setattr(rates.ColumnSampler, "jump_distribution", logged)
        ens = mc_ensemble(1, proto, trap, seed, init=init)
    return ens, list(zip(times, levels + end))


def run_generators(proto, trap, basis="full"):
    """The pulses' generators as a master run builds them, from its providers."""
    providers, _ = rates._providers(proto, trap, "resonant")
    return [rates.rate_matrix(trap, pulse, basis=basis, provider=provider)
            for pulse, provider in zip(proto.pulses, providers)]


def dense_pulses(proto, trap):
    """(generator, leak, duration) per pulse, as ``oracles.jump_trajectory``
    reads them, on one trap's tables."""
    tables = rates.AngularTables(trap)
    return [(m.generator, m.leak, p.duration) for p in proto.pulses
            for m in [rates.rate_matrix(trap, p, provider=rates._provider(tables, p, "resonant"))]]


class TestMcTrajectory:
    @pytest.mark.parametrize("n_traj", [3.5, 4.0])
    def test_non_integer_trajectory_count_refused(self, n_traj):
        trap = trap_1d(n_max=10)
        proto = Protocol((Pulse(s=-1, duration=1.0),), cycles=1, target=0)
        with pytest.raises(DomainError, match="n_traj"):
            mc_ensemble(n_traj, proto, trap, seed=1, init=level_distribution(3, trap))
        ens = mc_ensemble(np.int64(4), proto, trap, seed=1, init=level_distribution(3, trap))
        assert ens.n_traj == 4

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_refused(self, seed):
        trap = trap_1d(n_max=10)
        proto = Protocol((Pulse(s=-1, duration=1.0),), cycles=1, target=0)
        with pytest.raises(DomainError, match="seed"):
            mc_ensemble(4, proto, trap, seed=seed, init=level_distribution(3, trap))
        ens = mc_ensemble(4, proto, trap, seed=np.int64(1), init=level_distribution(3, trap))
        assert ens.seed == 1

    def test_pure_ladder_descends(self):
        trap = trap_1d(eta=1e-3, n_max=10)
        proto = Protocol((Pulse(s=-1, duration=1e7),), cycles=1, target=0)
        _, jumps = mc_jumps(proto, trap, level_distribution(3, trap), seed=1)
        levels = [lvl for _, lvl in jumps]
        assert levels == [3, 2, 1, 0]
        times = [t for t, _ in jumps]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_pulse_without_jumps_builds_no_column(self, monkeypatch):
        # every (m, m) level is dark under s = 0, A = -1; exit clocks read
        # the sampler's exit rates, so a start there draws no exponential,
        # builds no column and never jumps
        trap = TrapConfig(eta=1.7, gamma_over_omega=0.01, dims=2, n_max=6)
        pulse = Pulse(s=0, duration=1.0, amplitude_ratio=-1.0)
        exits = rates.ColumnSampler(rates._provider(rates.AngularTables(trap), pulse,
                                                    "resonant")).exit_rates
        dark = [flat_level((m, m), trap) for m in range(7)]
        assert np.all(exits[dark] == 0.0) and exits.max() > 0.0
        probs = np.zeros(trap.n_states)
        probs[dark] = 1.0 / len(dark)
        made = streams(monkeypatch, [])
        ens = mc_ensemble(21, Protocol((pulse,), 1000), trap, seed=3,
                          init=Distribution(probs, 0.0, trap.shape))
        assert made and not any(s.exponentials for s in made)
        assert ens.columns_built == 0 and not ens.jump_counts.any()
        assert np.all(ens.mean_n == ens.mean_n[0]) and not ens.leak_frac.any()

    @pytest.mark.parametrize("case", ["1d", "2d"])
    def test_one_exponential_per_jump(self, case, monkeypatch):
        # the stepper draws at most jumps + n_traj exponentials, in at most
        # (most jumps) + 1 rounds, not one per trajectory per pulse
        if case == "1d":
            proto, trap, mean = preset("fig2")
            proto = Protocol(proto.pulses, 100, proto.name, proto.target)
            init = thermal_distribution(mean, trap)
        else:
            init, proto, trap = preset_run("fig5_A_minus", n_max=12, cycles=60)
        made = streams(monkeypatch, [])
        ens = mc_ensemble(300, proto, trap, seed=5, init=init)
        draws = [size for stream in made for size in stream.exponentials]
        jumps = int(ens.jump_counts.sum())
        assert jumps > 0
        assert sum(draws) <= jumps + ens.n_traj
        assert len(draws) <= int(ens.jump_counts.max()) + 1
        assert sum(draws) * 10 < ens.n_traj * len(proto.pulses) * proto.cycles

    def test_columns_built_only_at_jump_sources(self, monkeypatch):
        sources = []
        inner = rates.ColumnSampler.jump_distribution

        def spy(sampler, index):
            sources.append((id(sampler), index))
            return inner(sampler, index)

        monkeypatch.setattr(rates.ColumnSampler, "jump_distribution", spy)
        trap = TrapConfig(eta=1.7, gamma_over_omega=0.01, dims=2, n_max=8)
        proto = Protocol((Pulse(s=-2, duration=2.0, amplitude_ratio=-1.0),
                          Pulse(s=0, duration=2.0, amplitude_ratio=-1.0),
                          Pulse(s=-2, duration=2.0, amplitude_ratio=-1.0)), 6)
        ens = mc_ensemble(60, proto, trap, seed=4, init=level_distribution((3, 2), trap))
        assert len(sources) == ens.jump_counts.sum() > 0
        assert ens.columns_built == len(set(sources)) < len(sources)

    def test_ensemble_single_matches_trajectory(self):
        # one stream: the initial draw, then the per-jump loop's draws
        proto, trap, mean = preset("fig2")
        proto = Protocol(proto.pulses, 100, proto.name, proto.target)
        init = thermal_distribution(mean, trap)
        ens = mc_ensemble(1, proto, trap, seed=123, init=init)
        rng = np.random.default_rng(123)
        init_cum = np.cumsum(init.probs)
        init_cum /= init_cum[-1]
        level0 = int(np.searchsorted(init_cum, rng.random(), side="right"))
        ref = jump_trajectory(dense_pulses(proto, trap), level0, proto.cycles, rng)
        assert len(ref) > 1
        assert ens.jump_counts[0] == len(ref) - 1
        final = ref[-1][1]
        assert ens.p_target[-1] == (1.0 if final == 0 else 0.0)
        assert ens.mean_n[-1] == max(final, 0)
        assert ens.leak_frac[-1] == (1.0 if final == -1 else 0.0)

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

    def test_start_leak_is_drawn(self):
        # a start that has already leaked: cycle 0 records what master mode
        # records, within 3 sigma, and a start all in the leak never jumps
        trap = trap_1d(eta=1.0, n_max=10)
        proto = Protocol((Pulse(s=-1, duration=1.0),), cycles=3, target=0)
        probs = np.zeros(trap.n_states)
        probs[0], probs[3] = 0.5, 0.25
        init = Distribution(probs, 0.25, trap.shape)
        master = run_protocol(init, proto, trap, stop_tol=0.0).samples[0].obs
        ens = mc_ensemble(2000, proto, trap, seed=11, init=init)
        for got, want in ((ens.p_target[0], master.p_target), (ens.leak_frac[0], master.leak)):
            assert abs(got - want) < 3.0 * math.sqrt(want * (1.0 - want) / ens.n_traj)
        gone = mc_ensemble(20, proto, trap, seed=11,
                           init=Distribution(np.zeros(trap.n_states), 1.0, trap.shape))
        assert np.all(gone.leak_frac == 1.0) and not gone.jump_counts.any()

    def test_leak_absorption_flags_trajectory(self):
        # a hot trap with a tiny basis forces ceiling absorption quickly
        trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=1, n_max=12)
        proto = Protocol((Pulse(s=0, duration=1.0),), cycles=4000, target=0)
        leaked = 0
        for seed in range(8):
            ens, jumps = mc_jumps(proto, trap, level_distribution(10, trap), seed)
            assert ens.jump_counts[0] == len(jumps) - 1
            if jumps[-1][1] == -1:  # the absorbing jump ends the record
                leaked += 1
                assert ens.leak_frac[-1] == 1.0 and ens.mean_n[-1] == 0.0
                assert np.all(np.diff(ens.leak_frac) >= 0.0)
            else:
                assert not ens.leak_frac.any()
        assert leaked > 0

    @pytest.mark.parametrize("case", ["1d", "1d_plateau", "2d"])
    def test_trajectory_matches_per_jump_loop(self, case):
        # the array stepper at n = 1 draws as the plain loop over jumps does,
        # after the initial draw; these shallow traps also leak on some streams
        if case == "1d":
            trap, start = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=1, n_max=12), 10
            proto = Protocol((Pulse(s=0, duration=1.0), Pulse(s=-9, duration=0.5)),
                             cycles=300, target=0)
        elif case == "1d_plateau":
            # the start is dark in the first pulse (10 + s < 0), so its first
            # draw crosses that pulse's zero-hazard plateau
            trap, start = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=1, n_max=12), 10
            proto = Protocol((Pulse(s=-11, duration=1.0), Pulse(s=0, duration=1.0)),
                             cycles=300, target=0)
        else:
            # fig5's pulses: the even s != 0 ones with A = -1 carry the cross
            # term; at eta 1.7 a trajectory makes several jumps before it
            # leaks.  A 2D resonant ensemble draws each jump as an emission:
            # the oracle draws the same two stages one jump at a time
            trap, start = TrapConfig(eta=1.7, gamma_over_omega=0.01, dims=2, n_max=8), (3, 2)
            fig5 = preset("fig5_A_minus")[0]
            proto = Protocol(fig5.pulses, 30, fig5.name, fig5.target)
        pulses = dense_pulses(proto, trap)
        draw = emission_destination(trap, proto.pulses, pulses) if case == "2d" else None
        statuses = set()
        for seed in range(6):
            _, jumps = mc_jumps(proto, trap, level_distribution(start, trap), seed)
            rng = np.random.default_rng(seed)
            rng.random()  # the ensemble's initial draw
            ref = jump_trajectory(pulses, flat_level(start, trap), proto.cycles, rng, draw)
            assert [lvl for _, lvl in jumps] == [lvl for _, lvl in ref]
            assert np.allclose([t for t, _ in jumps], [t for t, _ in ref],
                               rtol=1e-12, atol=0.0)
            statuses.add(jumps[-1][1] == -1)
            if case == "1d_plateau":
                assert jumps[1][0] > proto.pulses[0].duration
        assert statuses == {True, False}

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
        monkeypatch.setattr(rates._Resonant, "swap_symmetric", staticmethod(lambda pulse: False))
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

    @pytest.mark.parametrize("name, n_max", [("fig5_A_minus", 20), ("fig5_A_plus", 16),
                                             ("fig6_solid", 12)])
    def test_full_mode_matches_full_basis(self, name, n_max, monkeypatch):
        # full-mode rates with A = +-1 commute with the swap, so a thermal
        # start lumps in full mode too: over 300 cycles every recorded value
        # and the final grid state stay within 1e-12 of the full grid's
        init, proto, trap = preset_run(name, n_max=n_max, cycles=300)
        extra = ((0, 1), (3, 1), (2, 2))
        kw = dict(rate_mode="full", stop_tol=0.0, extra_targets=extra)
        lumped = run_protocol(init, proto, trap, **kw)
        monkeypatch.setattr(rates._Full, "swap_symmetric", staticmethod(lambda pulse: False))
        full = run_protocol(init, proto, trap, **kw)
        n1 = trap.n_max + 1
        assert (lumped.diagnostics["basis"], full.diagnostics["basis"]) == ("swap", "full")
        assert lumped.diagnostics["states"] == n1 * (n1 + 1) // 2
        assert len(lumped.samples) == len(full.samples) == 1 + 300 * len(proto.pulses)
        assert np.abs(_sample_table(lumped) - _sample_table(full)).max() <= 1e-12
        assert np.abs(_extra_table(lumped) - _extra_table(full)).max() <= 1e-12
        fa, fb = lumped.final_distribution, full.final_distribution
        assert np.abs(fa.probs - fb.probs).max() <= 1e-12
        assert abs(fa.leak - fb.leak) <= 1e-12

    @pytest.mark.parametrize("mode, a, kind", [
        ("resonant", 1.0, "swap"), ("resonant", -1.0, "swap"), ("resonant", 1j, "swap"),
        ("full", 1.0, "swap"), ("full", -1.0, "swap"),
        ("full", 1j, "full"), ("full", 0.125, "full")])
    def test_basis_by_rate_mode_and_ratio(self, mode, a, kind):
        # resonant rates see A through |A|^2 and Re(A), full-mode rates
        # through A itself, whose swap image is its conjugate
        init, proto, trap = preset_run("fig5_A_minus", n_max=5, cycles=1)
        pulses = tuple(dataclasses.replace(p, amplitude_ratio=a) for p in proto.pulses)
        series = run_protocol(init, Protocol(pulses, 1, target=(0, 0)), trap,
                              rate_mode=mode, stop_tol=0.0)
        assert series.diagnostics["basis"] == kind
        assert rates._run_basis(pulses, trap, mode).kind == kind

    @pytest.mark.parametrize("a, kind", [(1.0, "swap"), (-1.0, "swap"), (1j, "swap"),
                                         (0.125, "full")])
    def test_check_budgets_sizes_the_run_basis(self, a, kind, monkeypatch):
        # under a budget between the swap basis (91 states, 66 kB) and the
        # grid (169 states, 228 kB), check_budgets passes or refuses a
        # resonant run as the run itself does, on the same state count
        init, proto, trap = preset_run("fig5_A_minus", n_max=12, cycles=1)
        pulses = tuple(dataclasses.replace(p, amplitude_ratio=a) for p in proto.pulses)
        proto = Protocol(pulses, 1, target=(0, 0))
        sides, inner = [], rates._check_matrix_budget
        monkeypatch.setattr(rates, "_check_matrix_budget",
                            lambda side: sides.append(side) or inner(side))
        monkeypatch.setattr(rates, "MATRIX_MEMORY_BUDGET", 100_000)
        if kind == "full":
            with pytest.raises(ResourceLimitError, match=r"\(169 x 169\)"):
                rates.check_budgets(proto, trap)
            with pytest.raises(ResourceLimitError, match=r"\(169 x 169\)"):
                run_protocol(init, proto, trap, stop_tol=0.0)
            assert sides == [169, 169]
            return
        rates.check_budgets(proto, trap)
        series = run_protocol(init, proto, trap, stop_tol=0.0)
        assert series.diagnostics["basis"] == kind
        assert sides[:2] == [91, 91] and set(sides) == {series.diagnostics["states"]}

    def test_mc_steps_a_basis_over_the_matrix_budget(self, monkeypatch):
        # the budget guards dense matrices, and a Monte Carlo run builds
        # none: under a budget below the swap basis (91 states, 66 kB) the
        # master run is refused and the ensemble steps that basis (its
        # cached draw tables fit the budget)
        init, proto, trap = preset_run("fig5_A_minus", n_max=12, cycles=3)
        monkeypatch.setattr(rates, "MATRIX_MEMORY_BUDGET", 50_000)
        with pytest.raises(ResourceLimitError, match=r"\(91 x 91\)"):
            rates.check_budgets(proto, trap)
        with pytest.raises(ResourceLimitError, match=r"\(91 x 91\)"):
            run_protocol(init, proto, trap, stop_tol=0.0)
        rates.check_budgets(proto, trap, "mc")
        series = run_protocol(init, proto, trap, mode="mc", trajectories=50)
        assert (series.diagnostics["basis"], series.diagnostics["states"]) == ("swap", 91)
        assert series.diagnostics["jumps"] > 0

    @pytest.mark.parametrize("basis", ["full", "swap"])
    def test_column_cache_bounded_by_the_budget(self, monkeypatch, basis):
        # the samplers' cached draw tables count against the budget: a run
        # whose tables fit it exactly is bitwise the unbounded one, and
        # under one byte less the table past it is refused before it is
        # built, not evicted.  A table holds a cell per laser and theta row
        # of the rule, and the leak's.  A start on (3, 1), or half on (1, 3) too
        trap = TrapConfig(eta=1.7, gamma_over_omega=0.01, dims=2, n_max=6)
        protocol = Protocol((Pulse(s=-2, duration=1.0), Pulse(s=0, duration=1.0)), 3)
        probs = np.zeros(trap.shape)
        probs[3, 1] = 1.0
        if basis == "swap":
            probs = (probs + probs.T) / 2
        init = Distribution(probs.reshape(-1), 0.0, trap.shape)
        free = mc_ensemble(40, protocol, trap, seed=3, init=init)
        assert free.basis == basis
        need = 8 * free.columns_built * (2 * (trap.quad_theta // 2) + 1)
        monkeypatch.setattr(rates, "MATRIX_MEMORY_BUDGET", need)
        fits = mc_ensemble(40, protocol, trap, seed=3, init=init)
        assert fits.columns_built == free.columns_built > 1
        for name in ("p_target", "mean_n", "mean_n_se", "leak_frac", "jump_counts"):
            assert np.array_equal(getattr(fits, name), getattr(free, name))
        built = []
        inner = rates._Draws.table
        monkeypatch.setattr(rates._Draws, "table",
                            lambda self, *level: built.append(level) or inner(self, *level))
        monkeypatch.setattr(rates, "MATRIX_MEMORY_BUDGET", need - 1)
        with pytest.raises(ResourceLimitError, match="n_max 6, 40 trajectories"):
            mc_ensemble(40, protocol, trap, seed=3, init=init)
        assert len(built) == free.columns_built - 1

    def test_swap_ensemble_matches_master_and_grid_ensemble(self, monkeypatch):
        # a swap-symmetric ensemble steps the unordered pairs {a, b}; it
        # agrees with the lumped master run, and with an ensemble forced
        # onto the grid, within z < 4 at every 10th cycle boundary
        init, proto, trap = preset_run("fig5_A_minus", n_max=12, cycles=60)
        master = run_protocol(init, proto, trap, stop_tol=0.0)
        assert master.diagnostics["basis"] == "swap"
        truth = master.cycle_samples()
        swap = mc_ensemble(4000, proto, trap, seed=1, init=init)
        run_basis = rates._run_basis
        monkeypatch.setattr(rates, "_run_basis", lambda pulses, trap, mode, symmetric=True:
                            run_basis(pulses, trap, mode, False))
        grid = mc_ensemble(4000, proto, trap, seed=2, init=init)
        assert (swap.basis, swap.states, grid.basis, grid.states) == ("swap", 91, "full", 169)
        assert swap.columns_built < grid.columns_built
        fields = (("p_target", "p_target", None), ("leak_frac", "leak", None),
                  ("mean_n", "mean_n", "mean_n_se"), ("mean_nx", "mean_nx", "mean_nx_se"))
        for rec in range(0, proto.cycles + 1, 10):
            for name, true_name, se_name in fields:
                want = getattr(truth[rec].obs, true_name)
                if se_name is None:  # binomial, from the truth
                    var_s = var_g = want * (1.0 - want) / swap.n_traj
                else:
                    var_s, var_g = (getattr(e, se_name)[rec] ** 2 for e in (swap, grid))
                got_s, got_g = getattr(swap, name)[rec], getattr(grid, name)[rec]
                for diff, var in ((got_s - want, var_s), (got_g - want, var_g),
                                  (got_s - got_g, var_s + var_g)):
                    if var < 1e-24:
                        assert abs(diff) < 1e-9, (rec, name)
                    else:
                        assert abs(diff) < 4.0 * math.sqrt(var), (rec, name)

    def test_swap_ensemble_axis_means_bitwise_equal(self):
        # on {a, b} the n_x and n_y rows both read (a + b)/2, the exact
        # conditional mean; a target off the diagonal reads 1/2
        init, proto, trap = preset_run("fig5_A_minus", n_max=10, cycles=20)
        ens = mc_ensemble(300, proto, trap, seed=3, init=init, extra_targets=((1, 2), (2, 1)))
        assert ens.basis == "swap" and ens.jump_counts.sum() > 0
        assert np.array_equal(ens.mean_nx, ens.mean_ny)
        assert np.array_equal(ens.mean_nx_se, ens.mean_ny_se)
        assert np.array_equal(ens.mean_nx + ens.mean_ny, ens.mean_n)
        assert np.array_equal(ens.extra[0], ens.extra[1])
        halves = ens.extra[0] * ens.n_traj * 2.0
        assert np.array_equal(halves, np.round(halves)) and np.any(halves % 2 == 1)

    @pytest.mark.parametrize("case", ["fig7", "asymmetric_start", "full_rates"])
    def test_full_basis_where_not_lumpable(self, case):
        name = "fig7" if case == "fig7" else "fig5_A_minus"
        init, proto, trap = preset_run(name, n_max=5, cycles=1)
        if case == "asymmetric_start":
            init = level_distribution((0, 1), trap)
        rate_mode = "resonant"
        if case == "full_rates":  # a complex A: full mode's cross term sees Im(A)
            pulse = dataclasses.replace(proto.pulses[0], amplitude_ratio=1j)
            rate_mode, proto = "full", Protocol((pulse,), 1, target=(0, 0))
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
        # the first pulse's propagator leaves an entry below -1e-12
        props = iter((np.array([[1.0, 0.0], [-5e-12, 1.0]]), np.eye(2)))
        monkeypatch.setattr(rates, "markov_expm", lambda *args: next(props))
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
        def refuse(*args, **kwargs):
            raise AssertionError("a generator, sampler, propagator or cycle map was computed")
        for owner, attr in ((rates, "markov_expm"), (dynamics, "_CycleMap"),
                            (dynamics, "rate_matrix"), (rates.ColumnSampler, "__init__"),
                            (rates, "_provider")):
            monkeypatch.setattr(owner, attr, refuse)
        trap_2d = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=2, n_max=6)
        for trap, level in ((trap_1d(n_max=20), 3), (trap_2d, (3, 3))):
            init = level_distribution(level, trap)
            protocol = Protocol(pulses, cycles, target=RUN_DEFAULTS[trap.dims].target)
            series = run_protocol(init, protocol, trap, stop_tol=0.0)
            assert len(series.samples) == 1 and series.samples[0].obs.extra == ()
            assert series.samples[0].t == 0.0
            assert np.array_equal(series.final_distribution.probs, init.probs)
            if cycles == 0:  # a Monte Carlo ensemble records its start alike
                ens = mc_ensemble(5, protocol, trap, seed=1, init=init)
                assert ens.cycles.tolist() == [0] and ens.jump_counts.sum() == 0

    @pytest.mark.parametrize("case", ["1d", "2d_swap"])
    def test_streamed_map_equals_product_of_propagators(self, case):
        if case == "1d":
            init, proto, trap = _fig2_run(1)
        else:
            init, proto, trap = preset_run("fig5_A_minus", n_max=8, cycles=1)
        basis = "swap" if trap.dims == 2 else "full"
        mats = run_generators(proto, trap, basis)
        rows = np.random.default_rng(7).random((5, mats[0].n_states))
        cycle_map = dynamics._CycleMap(mats, proto.pulses, rows)
        props = [rates.markov_expm(mat.generator, pulse.duration)
                 for mat, pulse in zip(mats, proto.pulses)]
        # the map forms Z^T <- Z^T P^T in place, half its rows at a time:
        # bitwise that, and within rounding of the one-GEMM product
        z, zt, inner = props[0], props[0].T.copy(), []
        for prop in props[1:]:
            inner.append(rows @ zt.T)
            step = -(-len(zt) // 2)
            for lo in range(0, len(zt), step):
                zt[lo:lo + step] = zt[lo:lo + step] @ prop.T
            z = prop @ z
        assert np.array_equal(cycle_map.matrix, zt.T)
        assert np.array_equal(cycle_map.inner, np.concatenate(inner))
        assert np.abs(cycle_map.matrix - z).max() <= 1e-15
        assert not any(mat._propagators for mat in mats)

    def test_build_memory_independent_of_pulse_count(self):
        # the propagators are streamed: the map holds one partial product
        # and markov_expm's working set, whatever the pulse count.  Distinct
        # durations of one pulse give distinct propagators of one series order
        trap = trap_1d(n_max=100)
        rows = dynamics._obs_rows(trap.shape, 0)[0]

        def added(count):
            pulses = tuple(Pulse(s=-9, duration=1.0 + j / 100) for j in range(count))
            mats = run_generators(Protocol(pulses, 1), trap)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                dynamics._CycleMap(mats, pulses, rows)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        two, eight = added(2), added(8)
        assert two > 4 * 8 * trap.n_states ** 2
        assert abs(eight - two) <= 8 * trap.n_states ** 2

    @pytest.mark.parametrize("case", ["1d", "2d_swap"])
    def test_run_holds_one_generator(self, case, monkeypatch):
        # each generator is built when the cycle map needs it and dropped
        # once exponentiated: no cache or name keeps an earlier one
        if case == "1d":
            init, proto, trap = _fig2_run(2)
        else:
            init, proto, trap = preset_run("fig5_A_minus", n_max=8, cycles=2)
        built, alive_at_expm = [], []
        inner_build, inner_expm = dynamics.rate_matrix, rates.markov_expm

        def build(*args, **kwargs):
            mat = inner_build(*args, **kwargs)
            built.extend((weakref.ref(mat), weakref.ref(mat.generator)))
            return mat

        def expm(*args):
            alive_at_expm.append(sum(ref() is not None for ref in built[1::2]))
            assert sum(ref() is not None for ref in built[::2]) <= 1
            return inner_expm(*args)

        monkeypatch.setattr(dynamics, "rate_matrix", build)
        monkeypatch.setattr(rates, "markov_expm", expm)
        series = run_protocol(init, proto, trap, stop_tol=0.0)
        assert series.diagnostics["basis"] == ("swap" if trap.dims == 2 else "full")
        assert len(built) == 2 * len(proto.pulses) > 2
        assert alive_at_expm == [1] * len(proto.pulses)
        assert all(ref() is None for ref in built)

    @pytest.mark.parametrize("case", ["1d", "2d_swap"])
    def test_tables_released_before_first_propagator(self, case, monkeypatch):
        # every pulse's provider is built first from the run's one
        # AngularTables, which is freed once they exist: it is dead at every
        # propagator of a master run and every column a Monte Carlo run draws
        if case == "1d":
            init, proto, trap = _fig2_run(1)
        else:
            init, proto, trap = preset_run("fig5_A_minus", n_max=8, cycles=1)
        made, alive = [], {"master": [], "mc": []}
        init_tables = rates.AngularTables.__init__

        def track(tables, *args):
            made.append(weakref.ref(tables))
            init_tables(tables, *args)

        def spy(owner, attr, mode):
            inner = getattr(owner, attr)

            def probe(*args):
                alive[mode].append(sum(ref() is not None for ref in made))
                return inner(*args)
            monkeypatch.setattr(owner, attr, probe)

        monkeypatch.setattr(rates.AngularTables, "__init__", track)
        spy(rates, "markov_expm", "master")
        spy(rates.ColumnSampler, "jump_distribution", "mc")
        master = run_protocol(init, proto, trap, stop_tol=0.0)
        mc = run_protocol(init, proto, trap, mode="mc", trajectories=50)
        assert master.diagnostics["basis"] == ("swap" if trap.dims == 2 else "full")
        assert len(alive["master"]) == len(proto.pulses) > 1
        assert len(alive["mc"]) == mc.diagnostics["jumps"] > 0
        assert len(made) == 2  # one per run
        assert alive == {mode: [0] * len(seen) for mode, seen in alive.items()}

    @pytest.mark.parametrize("dims, mode", [(1, "resonant"), (2, "resonant"), (2, "full")])
    def test_master_run_one_provider_per_key(self, dims, mode, monkeypatch):
        # a master run builds one provider per distinct pulse: s = -2
        # repeated shares one, and s = -3 at A = +-1 has two, though in 1D
        # and resonant 2D (an odd s, no cross term) their rates coincide;
        # each generator is bitwise the one a lone rate_matrix call builds.
        # Every pulse has A = +-1, so a 2D run lumps in both rate modes
        trap = TrapConfig(eta=1.7, gamma_over_omega=0.01, dims=dims, n_max=5)
        pulses = tuple(Pulse(s=s, duration=1.0, amplitude_ratio=a) for s, a in
                       ((-2, -1.0), (-3, 1.0), (0, -1.0), (-2, -1.0), (-3, -1.0)))
        made, built = [], []
        inner_provider, inner_build = rates._provider, dynamics.rate_matrix
        monkeypatch.setattr(rates, "_provider",
                            lambda *args: made.append(args) or inner_provider(*args))

        def build(*args, **kwargs):
            built.append((args, inner_build(*args, **kwargs)))
            return built[-1][1]
        monkeypatch.setattr(dynamics, "rate_matrix", build)
        init = level_distribution(RUN_DEFAULTS[dims].target, trap)
        series = run_protocol(init, Protocol(pulses, 1), trap, rate_mode=mode, stop_tol=0.0)
        assert len(made) == 4
        assert series.diagnostics["basis"] == ("swap" if dims == 2 else "full")
        assert [args[1] for args, _ in built] == list(pulses)
        monkeypatch.undo()
        for (trap_, pulse, mode_, basis), mat in built:
            alone = rates.rate_matrix(trap_, pulse, mode_, basis)
            for attr in ("generator", "leak", "self_rates"):
                assert np.array_equal(getattr(mat, attr), getattr(alone, attr))

    def test_markov_expm_working_set(self):
        # B^1 ... B^q, the sum and n/5 rows of scratch: at n = 300 and
        # lam = 1/2 (series order 14, q = 3, no squaring) the peak, the
        # only G included, is under (q + 1.25) n x n arrays, where a Horner
        # product formed beside the sum made it q + 2
        n, q = 300, 3
        rng = np.random.default_rng(5)
        tracemalloc.start()
        try:
            box = [random_generator(rng, n)]
            base = tracemalloc.get_traced_memory()[0] - 8 * n * n  # G counts
            tracemalloc.reset_peak()
            rates.markov_expm(box.pop(), 0.5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= (q + 1.25) * 8 * n * n

    def test_cycle_map_working_set(self):
        # three pulses as in test_markov_expm_working_set, each G built when
        # the map asks for it: Z^T P^T is formed in place, so the peak is
        # Z beside markov_expm's working set, (q + 2.25) n x n arrays, where
        # it was q + 3
        n, q = 300, 3
        rng = np.random.default_rng(5)
        random_generator(rng, 2)  # the imports of a first call are not the map's
        mats = (RateMatrix(random_generator(rng, n), np.zeros(n), np.zeros(n), "resonant")
                for _ in range(3))
        pulses = (Pulse(s=0, duration=0.5),) * 3
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cycle_map = dynamics._CycleMap(mats, pulses, np.ones((1, n)))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert cycle_map.inner.shape == (2, n)
        assert peak <= (q + 2.25) * 8 * n * n

    def test_peak_rss_names_the_phase_that_raised_it(self, monkeypatch):
        # three pulses under a stand-in peak RSS that rises in the first
        # generator build (30), the second exponential (50) and the first
        # cycle's propagation (60), and not in the third build (40 < 50):
        # each phase holds the peak it raised, not the peak at its last end
        proto = Protocol(tuple(Pulse(s=s, duration=1.0) for s in (-2, -1, 0)), 2)
        trap = trap_1d(eta=1.0, n_max=12)
        peak = [10.0]

        def raising(fn, at):
            calls = []

            def wrapped(*args, **kw):
                out = fn(*args, **kw)
                calls.append(None)
                peak[0] = max(peak[0], at.get(len(calls), 0.0))
                return out
            return wrapped
        monkeypatch.setattr(dynamics, "_peak_rss_mb", lambda: peak[0])
        monkeypatch.setattr(rates, "_providers", raising(rates._providers, {1: 20.0}))
        monkeypatch.setattr(dynamics, "rate_matrix", raising(rates.rate_matrix, {1: 30.0, 3: 40.0}))
        monkeypatch.setattr(rates, "markov_expm", raising(rates.markov_expm, {2: 50.0}))
        monkeypatch.setattr(dynamics, "propagate_pulse",
                            raising(dynamics.propagate_pulse, {1: 60.0}))
        series = run_protocol(thermal_distribution(2.0, trap), proto, trap, stop_tol=None)
        assert series.peak_rss_mb == {"rates.providers": 20.0, "rates.rate_matrix": 30.0,
                                      "rates.markov_expm": 50.0, "dynamics.propagate": 60.0}
        assert list(series.peak_rss_mb) == list(series.phases)
        # a run that raises nothing credits no phase
        series = run_protocol(thermal_distribution(2.0, trap), proto, trap, stop_tol=None)
        assert set(series.peak_rss_mb.values()) == {None}

    def test_markov_expm_frees_its_only_input(self):
        # given the only reference to G, markov_expm frees it once G t is
        # formed: its peak is an n x n array below that of a call whose
        # caller still holds G
        n = 300
        rng = np.random.default_rng(5)

        def generator():
            g = rng.random((n, n))
            np.fill_diagonal(g, 0.0)
            np.fill_diagonal(g, -g.sum(axis=0))
            return g
        peaks = {}
        tracemalloc.start()
        try:
            for held in (True, False):
                box = [generator()]
                kept = box[0] if held else None
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                rates.markov_expm(box.pop(), 0.01)
                peaks[held] = tracemalloc.get_traced_memory()[1] - base
                del kept
        finally:
            tracemalloc.stop()
        assert peaks[True] - peaks[False] >= 0.9 * 8 * n * n

    def test_over_budget_basis_refused_before_any_provider(self, monkeypatch):
        # the swap basis of a thermal start at n_max 214 has 23 220 states,
        # a 4.0 GiB generator: refused before any provider or table exists
        def refuse(*args, **kwargs):
            raise AssertionError("a provider or recoil table was built")
        monkeypatch.setattr(rates, "_provider", refuse)
        monkeypatch.setattr(rates.AngularTables, "__init__", refuse)
        trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=2, n_max=214)
        init = thermal_distribution(6.0, trap)
        protocol = Protocol((Pulse(s=-2, duration=1.0), Pulse(s=0, duration=1.0)), 1)
        with pytest.raises(ResourceLimitError, match=r"\(23220 x 23220\)"):
            run_protocol(init, protocol, trap)

    @pytest.mark.parametrize("dims", [1, 2])
    def test_samplers_one_per_key(self, dims, monkeypatch):
        # pulses of equal s and A share one provider, and so one sampler:
        # s = -2 repeated; s = -9 at A = +-1 has two, though their rates
        # coincide (in 2D the odd s's cross term vanishes)
        trap = TrapConfig(eta=1.7, gamma_over_omega=0.01, dims=dims, n_max=6)
        pulses = tuple(Pulse(s=s, duration=1.0, amplitude_ratio=a)
                       for s, a in ((-2, -1.0), (0, -1.0), (-2, -1.0), (-9, 1.0), (-9, -1.0)))
        providers, _ = rates._providers(Protocol(pulses, 1), trap, "resonant")
        keys = [(pulse.s, pulse.amplitude_ratio) for pulse in pulses]
        assert len(set(keys)) == len(set(map(id, providers))) == 4
        assert all((providers[i] is providers[j]) == (keys[i] == keys[j])
                   for i in range(len(pulses)) for j in range(len(pulses)))
        made = []
        inner = rates.ColumnSampler.__init__
        monkeypatch.setattr(rates.ColumnSampler, "__init__",
                            lambda self, *args: made.append(args) or inner(self, *args))
        mc_ensemble(1, Protocol(pulses, 1), trap, seed=1,
                    init=level_distribution(RUN_DEFAULTS[dims].target, trap))
        assert len(made) == 4

    def test_coinciding_pulses_apart_change_no_estimate(self):
        # s = -9 at A = +1 and A = -1 build one provider each, and at odd s
        # their columns and exits are bitwise equal, so the ensemble's
        # estimates are bitwise those of the cycle with both at A = -1,
        # which share one; only the count of columns built differs.  s = -9
        # empties only levels with n_x or n_y >= 9, so the basis is 12 deep
        trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=2, n_max=12)
        init = thermal_distribution(6.0, trap)
        runs = {}
        for a in (1.0, -1.0):
            pulses = tuple(Pulse(s=s, duration=1.0, amplitude_ratio=b) for s, b in
                           ((-2, -1.0), (-9, a), (0, -1.0), (-9, -1.0)))
            providers, _ = rates._providers(Protocol(pulses, 1), trap, "resonant")
            assert len(set(map(id, providers))) == (4 if a > 0 else 3)
            runs[a] = mc_ensemble(300, Protocol(pulses, 10), trap, seed=7, init=init)
        apart, shared = runs.values()
        assert apart.columns_built > shared.columns_built
        for field in ("p_target", "mean_nx", "mean_ny", "mean_n", "leak_frac", "extra",
                      "p_target_se", "mean_nx_se", "mean_ny_se", "mean_n_se", "leak_se",
                      "extra_se", "jump_counts"):
            assert np.array_equal(getattr(apart, field), getattr(shared, field)), field

    def test_1d_ensemble_builds_column_samplers(self, monkeypatch):
        # a 1D ensemble samples jumps from columns built on demand, as a 2D
        # one does: one ColumnSampler per distinct (s, A) and no dense generator
        trap = TrapConfig(eta=1.7, gamma_over_omega=0.01, dims=1, n_max=12)
        pulses = tuple(Pulse(s=s, duration=1.0) for s in (-2, 0, -2, -3))
        keys = {(pulse.s, pulse.amplitude_ratio) for pulse in pulses}
        made, dense = [], []
        inner = rates.ColumnSampler.__init__
        monkeypatch.setattr(rates.ColumnSampler, "__init__",
                            lambda self, *args: made.append(args) or inner(self, *args))
        monkeypatch.setattr(dynamics, "rate_matrix", lambda *args: dense.append(args))
        ens = mc_ensemble(50, Protocol(pulses, 3), trap, seed=2,
                          init=level_distribution(6, trap))
        assert len(made) == len(keys) == 3
        assert dense == []
        assert ens.jump_counts.sum() > 0 and set(ens.phases) == {"rates.column_sampler",
                                                                 "dynamics.mc"}


def _csv_by_samples(series):
    """The time series as written one sample at a time, each value in
    ``format(x, ".17g")``."""
    lines = ["cycle,pulse,t_tau0,p_target,mean_nx,mean_ny,mean_n,leak"]
    for s in series.samples:
        o = s.obs
        values = (s.t, o.p_target, o.mean_nx, o.mean_ny, o.mean_n, o.leak)
        lines.append(",".join([str(s.cycle), str(s.pulse),
                               *(format(x, ".17g") for x in values)]))
    return ("\n".join(lines) + "\n").encode()


class TestTimeSeriesColumns:
    """A run's values are held as columns; ``samples`` is read from them."""

    @pytest.mark.parametrize("case", ["extra_targets", "early_stop", "one_pulse", "mc"])
    def test_csv_bytes_equal_the_per_sample_writer(self, case, tmp_path):
        kwargs = {"stop_tol": 0.0}
        if case == "extra_targets":
            (init, proto, trap), kwargs["extra_targets"] = _fig2_run(10), (1, 2, 7)
        elif case == "early_stop":
            (init, proto, trap), kwargs["stop_tol"] = _fig2_run(40), 4e-3
        elif case == "one_pulse":
            trap = trap_1d(n_max=20)
            proto = Protocol((Pulse(s=-1, duration=0.3),), 7, target=0)
            init = level_distribution(3, trap)
        else:
            init, proto, trap = preset_run("fig5_A_minus", n_max=6, cycles=5)
            kwargs = {"mode": "mc", "trajectories": 200, "extra_targets": ((0, 1),)}
        series = run_protocol(init, proto, trap, **kwargs)
        if case == "early_stop":
            assert series.final().cycle == 14
        path = tmp_path / "ts.csv"
        series.to_csv(path)
        assert path.read_bytes() == _csv_by_samples(series)

    def test_samples_built_on_first_read(self, tmp_path):
        init, proto, trap = _fig2_run(5)
        series = run_protocol(init, proto, trap, stop_tol=0.0, extra_targets=(3,))
        series.to_csv(tmp_path / "ts.csv")
        final, ends = series.final(), series.cycle_samples()
        assert "samples" not in vars(series)
        samples = series.samples
        assert series.samples is samples
        assert final == samples[-1]
        assert ends == [s for s in samples if s.pulse in (0, len(proto.pulses))]
        assert [s.obs.extra for s in samples] == [(x,) for x in series.extra[:, 0].tolist()]

    def test_oracle_samples_rebuilt_from_columns(self, monkeypatch):
        # per_pulse_run records into columns; the samples read back from
        # them are the snapshots it took, value for value and type for type
        init, proto, trap = preset_run("fig5_A_minus", n_max=6, cycles=4)
        extra = ((0, 1), (2, 3))
        seen, observe = [], dynamics.observables

        def spy(dist, target):
            obs = observe(dist, target)
            seen.append(dataclasses.replace(
                obs, extra=tuple(float(dist.grid()[level]) for level in extra)))
            return obs

        monkeypatch.setattr(dynamics, "observables", spy)
        samples = per_pulse_run(init, proto, trap, stop_tol=0.0, extra_targets=extra).samples
        assert [s.obs for s in samples] == seen
        t, times = 0.0, [0.0]
        for pulse in proto.pulses * 4:
            t += pulse.duration
            times.append(t)
        assert [s.t for s in samples] == times
        assert [(s.cycle, s.pulse) for s in samples] == [(0, 0)] + [
            (c, j) for c in range(1, 5) for j in range(1, len(proto.pulses) + 1)]
        assert all(type(s.cycle) is type(s.pulse) is int for s in samples)
        assert all(type(x) is float for s in samples
                   for x in (s.t, *dataclasses.astuple(s.obs)[:5], *s.obs.extra))


class TestLevelArity:
    """A level is an int on a 1D trap and a pair on a 2D one; every entry
    point refuses another arity with DomainError."""

    CASES = ((1, (0, 1)), (2, 0), (2, (0,)), (2, (0, 1, 2)))

    @staticmethod
    def trap(dims):
        return TrapConfig(eta=1.7, gamma_over_omega=0.01, dims=dims, n_max=4)

    @pytest.mark.parametrize("mode", ["master", "mc"])
    def test_run_protocol_refuses_wrong_arity(self, mode):
        for dims, level in self.CASES:
            trap = self.trap(dims)
            init = level_distribution(RUN_DEFAULTS[dims].target, trap)
            pulses = (Pulse(s=-1, duration=1.0),)
            with pytest.raises(DomainError, match=f"{dims}D trap"):
                run_protocol(init, Protocol(pulses, 1, target=level), trap, mode=mode,
                             trajectories=5)
            with pytest.raises(DomainError, match=f"{dims}D trap"):
                run_protocol(init, Protocol(pulses, 1), trap, mode=mode, trajectories=5,
                             extra_targets=(level,))

    def test_observables_refuse_wrong_arity(self):
        for dims, level in self.CASES:
            trap = self.trap(dims)
            with pytest.raises(DomainError, match=f"{dims}D trap"):
                observables(level_distribution(RUN_DEFAULTS[dims].target, trap), level)


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


class TestFullModeEndpoints:
    """Full mode, every intermediate level with its Lorentzian weight, is the
    check of the resonant approximation (gamma << omega): at 2D n_max 20 it
    moves the cycle-300 target occupation by a few 1e-4 only."""

    @pytest.mark.filterwarnings("ignore:n_max=20 is below the recommended")
    @pytest.mark.parametrize("name, full, shift", [
        ("fig5_A_minus", 0.159850, -3.731e-4), ("fig7", 0.116413, -7.071e-4)])
    def test_cycle_300_endpoint(self, name, full, shift):
        proto, trap, mean = preset(name)
        trap = TrapConfig(eta=trap.eta, gamma_over_omega=trap.gamma_over_omega, dims=2,
                          n_max=20)
        init = thermal_distribution(mean, trap)
        end = {mode: run_protocol(init, proto, trap, rate_mode=mode,
                                  stop_tol=None).final().obs.p_target
               for mode in ("full", "resonant")}
        assert abs(end["full"] - full) <= 1e-6
        assert abs(end["full"] - end["resonant"] - shift) <= 1e-6


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
