"""The names the benchmark's traced run wraps and reads must exist.

``perfbench/layers.py`` wraps every ``(module, class, attribute)`` in
``BOUNDARIES`` and, after a run, counts built columns through the
``_cache`` column caches of ``ColumnSampler`` and ``RateMatrix``.
``perfbench/job.py`` writes each workload's config from its preset (reading
the trap's quadrature orders and state count), runs the CLI with
``--threads 1`` and the workload's flags, and reads the Monte Carlo
ensemble's standard errors and jump counts.  A rename or deletion in the
program would otherwise surface only as a failed ``perfbench/run.py``.
"""

import argparse
import dataclasses
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from dyncool import cli, dynamics, fc, rates
from dyncool.protocols import Protocol, parse_config
from dyncool.rates import ColumnSampler, Pulse, TrapConfig, rate_matrix

from oracles import level_distribution

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"
WORKLOADS = ("fig3_deep", "fig5_master", "fig5_mc")


def _perfbench_module(name, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # job.py imports workloads
    return importlib.import_module(name)


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.BOUNDARIES


@pytest.mark.parametrize("module, cls, attr, name", _boundaries())
def test_boundary_resolves(module, cls, attr, name):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr)), name


def test_column_caches_exist():
    pulse = Pulse(s=-1, duration=1.0)
    sampler = ColumnSampler(TrapConfig(eta=1.0, gamma_over_omega=0.01, dims=2, n_max=3),
                            pulse)
    matrix = rate_matrix(TrapConfig(eta=1.0, gamma_over_omega=0.01, dims=1, n_max=3),
                         pulse)
    sampler.jump_distribution(5)
    matrix.jump_distribution(2)
    assert len(vars(sampler)["_cache"]) == 1
    assert len(vars(matrix)["_cache"]) == 1


def test_1d_resonant_build_reaches_traced_layers(monkeypatch):
    # fig3_deep's per-layer trace reads the emission-kernel and stack spans
    calls = []
    for owner, attr in ((rates.AngularTables, "emission_kernel"), (fc, "reduced_stack")):
        def spy(*args, _inner=getattr(owner, attr), _attr=attr, **kwargs):
            calls.append(_attr)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(owner, attr, spy)
    rates.clear_caches()
    rate_matrix(TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=1, n_max=10),
                Pulse(s=8, duration=1.0))
    assert {"emission_kernel", "reduced_stack"} <= set(calls)


def test_2d_resonant_build_reaches_traced_layers(monkeypatch):
    # the fig5 per-layer trace reads the stack spans of the recoil tensor
    calls = []
    for owner, attr in ((rates.AngularTables, "stack"), (fc, "reduced_stack")):
        def spy(*args, _inner=getattr(owner, attr), _attr=attr, **kwargs):
            calls.append(_attr)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(owner, attr, spy)
    rates.clear_caches()
    rate_matrix(TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=2, n_max=4),
                Pulse(s=-2, duration=1.0))
    assert {"stack", "reduced_stack"} <= set(calls)


def test_lumped_2d_master_run_reaches_traced_layers(monkeypatch):
    # fig5_master runs on the swap basis; its per-layer trace reads the
    # rate_matrix, expm and propagate spans, where the expm span belongs on
    # markov_expm (perfbench still wraps scipy's expm: ROADMAP item 4)
    calls = []
    for owner, attr in ((dynamics, "rate_matrix"), (rates, "markov_expm"),
                        (dynamics, "propagate_pulse")):
        def spy(*args, _inner=getattr(owner, attr), _attr=attr, **kwargs):
            calls.append(_attr)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(owner, attr, spy)
    rates.clear_caches()
    trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=2, n_max=4)
    protocol = Protocol((Pulse(s=-2, duration=1.0), Pulse(s=0, duration=1.0)), 2)
    init = level_distribution((0, 0), trap)
    series = dynamics.run_protocol(init, protocol, trap)
    assert series.diagnostics["basis"] == "swap"
    assert {"rate_matrix", "markov_expm", "propagate_pulse"} <= set(calls)


def test_2d_mc_run_reaches_traced_layers(monkeypatch):
    # fig5_mc's per-layer trace reads the mc, column_sampler and sampler spans
    calls = []
    for owner, attr in ((dynamics, "mc_ensemble"), (ColumnSampler, "__init__"),
                        (ColumnSampler, "jump_distribution")):
        def spy(*args, _inner=getattr(owner, attr), _attr=attr, **kwargs):
            calls.append(_attr)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(owner, attr, spy)
    rates.clear_caches()
    trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=2, n_max=4)
    protocol = Protocol((Pulse(s=-2, duration=1.0), Pulse(s=0, duration=1.0)), 2)
    init = level_distribution((2, 1), trap)
    series = dynamics.run_protocol(init, protocol, trap, mode="mc", trajectories=20)
    assert series.diagnostics["jumps"] > 0
    assert {"mc_ensemble", "__init__", "jump_distribution"} <= set(calls)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_prepared_config_parses_back(workload, tmp_path, monkeypatch, capsys):
    job = _perfbench_module("job", monkeypatch)
    cfg = tmp_path / "w.cfg"
    job.cmd_prepare(argparse.Namespace(workload=workload, seed=7, config=str(cfg)))
    sizes = json.loads(capsys.readouterr().out)["sizes"]
    spec = parse_config(cfg.read_text(encoding="utf-8"))
    assert sizes["n_states"] == spec.trap.n_states
    assert sizes["quad"] == [spec.trap.quad_theta, spec.trap.quad_phi]
    assert (sizes["n_max"], sizes["cycles"]) == (spec.trap.n_max, spec.protocol.cycles)
    assert spec.seed == 7


@pytest.mark.parametrize("workload", WORKLOADS)
def test_job_command_line_parses(workload, monkeypatch):
    flags = _perfbench_module("workloads", monkeypatch).cli_flags(workload, 7)
    args = cli._build_parser().parse_args(
        ["run", "--config", "w.cfg", "--out-dir", "o", "--threads", "1", *flags])
    assert (args.command, args.threads) == ("run", 1)


def test_mc_result_has_the_fields_job_reads():
    trap = TrapConfig(eta=0.5, gamma_over_omega=0.01, dims=1, n_max=6)
    protocol = Protocol((Pulse(s=-1, duration=1.0),), 2)
    ens = dynamics.mc_ensemble(4, protocol, trap, seed=1,
                               init=level_distribution(3, trap))
    names = {f.name for f in dataclasses.fields(ens)}
    assert {"n_traj", "cycles", "mean_n_se", "mean_nx_se", "jump_counts"} <= names
    assert len(ens.cycles.tolist()) == len(ens.mean_n_se.tolist()) == 3
    assert int(ens.jump_counts.sum()) >= 0
