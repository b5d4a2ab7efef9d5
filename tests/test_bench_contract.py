"""The names the benchmark's traced run wraps and reads must exist.

``perfbench/layers.py`` wraps every ``(module, class, attribute)`` in
``BOUNDARIES`` and, after a run, counts built columns through the
``_cache`` column caches of ``ColumnSampler`` and ``RateMatrix``.  A
rename or deletion in the program would otherwise surface only as a failed
``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import scipy.linalg

from dyncool import dynamics, fc, rates
from dyncool.protocols import Protocol
from dyncool.rates import ColumnSampler, Pulse, TrapConfig, rate_matrix

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


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
    # rate_matrix, expm and propagate spans
    calls = []
    for owner, attr in ((dynamics, "rate_matrix"), (scipy.linalg, "expm"),
                        (dynamics, "propagate_pulse")):
        def spy(*args, _inner=getattr(owner, attr), _attr=attr, **kwargs):
            calls.append(_attr)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(owner, attr, spy)
    rates.clear_caches()
    trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=2, n_max=4)
    protocol = Protocol((Pulse(s=-2, duration=1.0), Pulse(s=0, duration=1.0)), 2)
    init = dynamics.level_distribution((0, 0), trap)
    series = dynamics.run_protocol(init, protocol, trap)
    assert series.diagnostics["basis"] == "swap"
    assert {"rate_matrix", "expm", "propagate_pulse"} <= set(calls)


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
    init = dynamics.level_distribution((2, 1), trap)
    series = dynamics.run_protocol(init, protocol, trap, mode="mc", trajectories=20)
    assert series.diagnostics["jumps"] > 0
    assert {"mc_ensemble", "__init__", "jump_distribution"} <= set(calls)
