"""Chance that a correct program fails the fig5_mc z-test, per run.

    python3 perfbench/z_bound.py

Takes the exact fig5_A_minus distributions at every 30th cycle boundary from
the master equation, draws ensembles of 1000 independent trajectories from
them and bounds, by the union over all 44 comparisons, the chance that one
run exceeds the z bound.  p_target and leak use the binomial sigma of the
true value, whose tails are computed exactly; mean_n and mean_nx use the
ensemble's sample standard error, whose tails are simulated.  The level
distribution is heavy-tailed (mean about 2, standard deviation about 6 late
in the run), so an ensemble that misses its rare high levels has both a low
mean and a low standard error, and the lower tail of z is far heavier than
a normal one.  Run with PYTHONPATH=src from the repository root; it takes a
few minutes.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import stats

from checks import MC_STRIDE, Z_MAX

N_TRAJ = 1000
CANDIDATES = (4.0, 5.0, 6.0, 7.0)
REPLICATES = 400_000


def boundary_distributions():
    """(cycle, pmf of nx+ny, pmf of nx, p(0,0), leak) at every MC_STRIDE-th cycle."""
    from dyncool import dynamics, protocols, rates
    spec = protocols.preset_runspec("fig5_A_minus")
    trap, proto = spec.trap, spec.protocol
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dist = dynamics.thermal_distribution(spec.thermal_mean, trap)
    mats = [rates.rate_matrix(trap, p) for p in proto.pulses]
    n1 = trap.n_max + 1
    total = np.add.outer(np.arange(n1), np.arange(n1)).reshape(-1)
    for cycle in range(proto.cycles + 1):
        if cycle:
            for pulse, mat in zip(proto.pulses, mats):
                dist = dynamics.propagate_pulse(dist, mat, pulse.duration)
        if cycle % MC_STRIDE == 0:
            yield (cycle, np.bincount(total, weights=dist.probs),
                   dist.grid().sum(axis=1), dist.probs[0], dist.leak)


def sample_se_tail(pmf, leak, rng, batch=50_000):
    """P(|z| > Z) for each candidate Z, z using the sample standard error.

    Leaked trajectories count as level 0, as in the ensemble's sums."""
    values = np.arange(pmf.shape[0] + 1)
    values[-1] = 0
    probs = np.append(np.maximum(pmf, 0.0), max(leak, 0.0))
    probs /= probs.sum()
    mu = probs @ values
    exceed = np.zeros(len(CANDIDATES))
    for _ in range(REPLICATES // batch):
        counts = rng.multinomial(N_TRAJ, probs, size=batch)
        mean = counts @ values / N_TRAJ
        var = np.maximum(counts @ values ** 2 / N_TRAJ - mean ** 2, 0.0)
        z = np.abs(mean - mu) / np.sqrt(var / N_TRAJ)
        exceed += [(z > c).sum() for c in CANDIDATES]
    return exceed / (REPLICATES // batch * batch)


def binomial_tail(p):
    """Exact P(|z| > Z) for each candidate Z with the true-value sigma."""
    if p <= 0.0:
        return np.zeros(len(CANDIDATES))
    sigma = np.sqrt(p * (1.0 - p) / N_TRAJ)
    out = []
    for c in CANDIDATES:
        lo = np.ceil(N_TRAJ * (p - c * sigma)) - 1  # largest count below
        hi = np.floor(N_TRAJ * (p + c * sigma)) + 1  # smallest count above
        out.append(stats.binom.cdf(lo, N_TRAJ, p) + stats.binom.sf(hi - 1, N_TRAJ, p))
    return np.array(out)


def main() -> None:
    rng = np.random.default_rng(20261017)
    union = np.zeros(len(CANDIDATES))
    for cycle, pmf_n, pmf_nx, p00, leak in boundary_distributions():
        for name, tail in (("mean_n", sample_se_tail(pmf_n, leak, rng)),
                           ("mean_nx", sample_se_tail(pmf_nx, leak, rng)),
                           ("p_target", binomial_tail(p00)),
                           ("leak", binomial_tail(leak))):
            union += tail
            print(f"cycle {cycle:3d} {name:8s} " + " ".join(
                f"P(|z|>{c:g})={t:.1e}" for c, t in zip(CANDIDATES, tail)))
    bounds = ", ".join(f"Z={c:g}: {u:.1e}" for c, u in zip(CANDIDATES, union))
    print(f"union bound per run: {bounds} (checks use Z={Z_MAX:g})")


if __name__ == "__main__":
    main()
