"""The benchmark's workloads: which preset, which overrides, which flags.

Every workload is one real ``dyncool run`` job on a config generated from a
published preset.  They are chosen so that each stresses a different layer:

* ``fig3_deep``: a deep 1D basis, where the emission kernel built from
  ``fc.reduced_stack`` dominates; no 2D assembly and no Monte Carlo.
* ``fig5_master``: the 2D preset as published, where dense rate assembly,
  ``expm`` and propagation dominate.
* ``fig5_mc``: the same preset unravelled as a Monte Carlo ensemble, which
  builds rate columns on demand and never forms a dense matrix or calls
  ``expm``; an optimisation of the dense path should leave it unchanged.

This module is plain data so run.py can read it without importing the
program.
"""

WORKLOADS = {
    "fig3_deep": {
        "preset": "fig3",
        "n_max": 480,
        "cycles": 1000,
        "flags": ["--final-distribution", "--plot"],
        "kind": "master",
    },
    "fig5_master": {
        "preset": "fig5_A_minus",
        "flags": ["--final-distribution", "--plot"],
        "kind": "master",
    },
    "fig5_mc": {
        "preset": "fig5_A_minus",
        "flags": ["--mode", "mc", "--trajectories", "1000", "--seed", "{seed}"],
        "kind": "mc",
    },
}

# the master workload whose time series is the fig5_mc reference curve
MC_REFERENCE = "fig5_master"


def cli_flags(name: str, seed: int) -> list[str]:
    """Flags after ``run --config <file>`` for one workload and seed."""
    return [f.format(seed=seed) for f in WORKLOADS[name]["flags"]]
