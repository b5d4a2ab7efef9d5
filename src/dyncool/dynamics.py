"""Population dynamics under pulse protocols.

The rate equation dN/dt = G N with the piecewise-constant generators from
:mod:`dyncool.rates` is solved exactly per pulse by a cached matrix
exponential; the same process is also unraveled as a continuous-time jump
Monte Carlo, which serves as an independent statistical check of the
propagator (and vice versa).
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .protocols import Protocol
from .rates import ColumnSampler, RateMatrix, TrapConfig, rate_matrix

LEAKED = "leaked"
COMPLETED = "completed"


@dataclass
class Distribution:
    """Probability vector over flattened trap levels plus truncation leak."""

    probs: np.ndarray
    leak: float
    shape: tuple[int, ...]

    def copy(self) -> "Distribution":
        return Distribution(self.probs.copy(), self.leak, self.shape)

    @property
    def total(self) -> float:
        return float(self.probs.sum() + self.leak)

    def grid(self) -> np.ndarray:
        return self.probs.reshape(self.shape)


@dataclass(frozen=True)
class ObsSnapshot:
    p_target: float
    mean_nx: float
    mean_ny: float
    mean_n: float
    leak: float


@dataclass(frozen=True)
class Sample:
    cycle: int
    pulse: int  # 1-based pulse index within the cycle; 0 marks the initial state
    t: float
    obs: ObsSnapshot


@dataclass
class TimeSeries:
    """Observables recorded at pulse boundaries of a protocol run.

    A master run also keeps the distribution it stopped at, the state
    behind the last sample, as ``final_distribution``.
    """

    samples: list[Sample] = field(default_factory=list)
    target: int | tuple[int, int] | None = None
    mode: str = "master"
    extra_targets: tuple = ()
    extra_probs: list[tuple[float, ...]] = field(default_factory=list)
    final_distribution: Distribution | None = field(default=None, init=False, repr=False)

    def cycle_samples(self) -> list[Sample]:
        """Initial sample plus the end-of-cycle boundary samples."""
        last_pulse = max((s.pulse for s in self.samples), default=0)
        return [s for s in self.samples if s.pulse in (0, last_pulse)]

    def final(self) -> Sample:
        return self.samples[-1]

    def to_csv(self, path) -> None:
        from .rates import format_float as ff
        lines = ["cycle,pulse,t_tau0,p_target,mean_nx,mean_ny,mean_n,leak"]
        for s in self.samples:
            o = s.obs
            lines.append(f"{s.cycle},{s.pulse},{ff(s.t)},{ff(o.p_target)},"
                         f"{ff(o.mean_nx)},{ff(o.mean_ny)},{ff(o.mean_n)},{ff(o.leak)}")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


@dataclass
class TrajectoryResult:
    """One quantum-jump trajectory: (time, flat level) after each jump."""

    jumps: list[tuple[float, int]]
    status: str
    final_level: int


@dataclass
class McEnsembleResult:
    """Seeded trajectory ensemble reduced to per-record-time estimates.

    Occupation estimates carry binomial standard errors
    sqrt(p(1-p)/n_traj); level means carry sample standard errors.
    """

    n_traj: int
    seed: int
    cycles: np.ndarray
    times: np.ndarray
    p_target: np.ndarray
    p_target_se: np.ndarray
    mean_nx: np.ndarray
    mean_nx_se: np.ndarray
    mean_ny: np.ndarray
    mean_ny_se: np.ndarray
    mean_n: np.ndarray
    mean_n_se: np.ndarray
    leak_frac: np.ndarray
    leak_se: np.ndarray
    jump_counts: np.ndarray


def thermal_distribution(mean_n: float, trap: TrapConfig) -> Distribution:
    """Truncated thermal state with the given total mean quantum number.

    1D: geometric occupation p_n = (1-q) q^n with q = mean/(mean+1).  2D: a
    product of two geometrics carrying mean/2 each, so the total mean
    n_x + n_y matches.  Tail mass beyond truncation is folded into the
    renormalization and warned about when it exceeds 1e-6.
    """
    if not mean_n > 0:
        raise DomainError(f"thermal mean must be positive, got {mean_n}")
    if trap.n_max < trap.recommended_n_max(mean_n):
        warnings.warn(
            f"n_max={trap.n_max} is below the recommended "
            f"{trap.recommended_n_max(mean_n)} for eta={trap.eta}, "
            f"thermal mean {mean_n}; expect visible truncation leak",
            stacklevel=2)
    axis_mean = mean_n / trap.dims
    q = axis_mean / (axis_mean + 1.0)
    axis = (1.0 - q) * q ** np.arange(trap.n_max + 1)
    if trap.dims == 1:
        probs = axis
    else:
        probs = np.outer(axis, axis).reshape(-1)
    tail = 1.0 - probs.sum()
    if tail > 1e-6:
        warnings.warn(
            f"thermal tail mass {tail:.2e} beyond n_max={trap.n_max} folded "
            "into renormalization", stacklevel=2)
    return Distribution(probs / probs.sum(), 0.0, trap.shape)


def level_distribution(level, trap: TrapConfig) -> Distribution:
    """Point distribution on one trap level."""
    probs = np.zeros(trap.n_states)
    probs[trap.flat_index(level)] = 1.0
    return Distribution(probs, 0.0, trap.shape)


def observables(dist: Distribution, target) -> ObsSnapshot:
    """Target occupation, per-axis and total mean level, and leak."""
    shape = dist.shape
    grid = dist.grid()
    if len(shape) == 1:
        (n1,) = shape
        tgt = int(target) if not isinstance(target, tuple) else int(target[0])
        if not 0 <= tgt < n1:
            raise DomainError(f"target {target} outside truncation")
        ns = np.arange(n1)
        mean = float(ns @ grid)
        return ObsSnapshot(float(grid[tgt]), mean, 0.0, mean, dist.leak)
    tx, ty = target
    n1 = shape[0]
    if not (0 <= tx < n1 and 0 <= ty < shape[1]):
        raise DomainError(f"target {target} outside truncation")
    ns = np.arange(n1)
    px = grid.sum(axis=1)
    py = grid.sum(axis=0)
    mean_nx = float(ns @ px)
    mean_ny = float(np.arange(shape[1]) @ py)
    return ObsSnapshot(float(grid[tx, ty]), mean_nx, mean_ny,
                       mean_nx + mean_ny, dist.leak)


def propagate_pulse(dist: Distribution, rates: RateMatrix, duration: float) -> Distribution:
    """Evolve a distribution under one pulse's generator for ``duration`` tau0."""
    if duration < 0:
        raise DomainError(f"duration must be >= 0, got {duration}")
    if rates.n_states != dist.probs.shape[0]:
        raise DomainError(
            f"rate matrix has {rates.n_states} states, distribution "
            f"{dist.probs.shape[0]}")
    if duration == 0:
        return dist.copy()
    new = rates.propagator(duration) @ dist.probs
    lost = float(dist.probs.sum() - new.sum())
    if np.any(new < -1e-12):
        raise DomainError("propagation produced significantly negative occupation")
    np.maximum(new, 0.0, out=new)
    return Distribution(new, dist.leak + max(lost, 0.0), dist.shape)


def run_protocol(init: Distribution, protocol: Protocol, trap: TrapConfig,
                 mode: str = "master", *, rate_mode: str = "resonant",
                 trajectories: int = 1000, seed: int = 12345,
                 stop_tol: float | None = 1e-6,
                 extra_targets: tuple = (), n_workers: int = 1) -> TimeSeries:
    """Run a pulse protocol and record observables at every pulse boundary.

    ``mode='master'`` propagates the rate equation exactly (matrix
    exponentials built once per distinct pulse); ``mode='mc'`` averages a
    seeded trajectory ensemble and records at cycle boundaries.  Early stop
    fires when the target occupation moves less than ``stop_tol`` over a
    cycle (None or 0 disables).
    """
    target = protocol.target if protocol.target is not None else _default_target(trap)
    if mode == "mc":
        ens = mc_ensemble(trajectories, protocol, trap, seed, init=init,
                          rate_mode=rate_mode, n_workers=n_workers)
        return _ensemble_to_series(ens, protocol, target)
    if mode != "master":
        raise DomainError(f"unknown run mode {mode!r}")

    mats = [rate_matrix(trap, pulse, rate_mode) for pulse in protocol.pulses]
    series = TimeSeries(target=target, mode=mode, extra_targets=tuple(extra_targets))
    dist = init.copy()
    t = 0.0
    series.samples.append(Sample(0, 0, t, observables(dist, target)))
    series.extra_probs.append(_extra_probs(dist, extra_targets, trap))
    prev_p = series.samples[0].obs.p_target
    for cycle in range(1, protocol.cycles + 1):
        for j, (pulse, mat) in enumerate(zip(protocol.pulses, mats), start=1):
            dist = propagate_pulse(dist, mat, pulse.duration)
            t += pulse.duration
            series.samples.append(Sample(cycle, j, t, observables(dist, target)))
            series.extra_probs.append(_extra_probs(dist, extra_targets, trap))
        p_now = series.samples[-1].obs.p_target
        if stop_tol and abs(p_now - prev_p) < stop_tol:
            break
        prev_p = p_now
    series.final_distribution = dist
    return series


def _default_target(trap: TrapConfig):
    return 0 if trap.dims == 1 else (0, 0)


def _extra_probs(dist: Distribution, extra_targets, trap: TrapConfig) -> tuple[float, ...]:
    return tuple(float(dist.probs[trap.flat_index(tg)]) for tg in extra_targets)


def _samplers(protocol: Protocol, trap: TrapConfig, rate_mode: str):
    """Per-pulse jump samplers: dense-backed in 1D, column-on-demand in 2D."""
    shared: dict = {}
    out = []
    for pulse in protocol.pulses:
        if trap.dims == 1:
            out.append(rate_matrix(trap, pulse, rate_mode))
        else:
            from .rates import _pulse_cache_key
            key = _pulse_cache_key(trap, pulse, rate_mode)
            if key not in shared:
                shared[key] = ColumnSampler(trap, pulse, rate_mode)
            out.append(shared[key])
    return out


def mc_trajectory(initial_level, protocol: Protocol, trap: TrapConfig,
                  rng_stream: np.random.Generator,
                  rate_mode: str = "resonant") -> TrajectoryResult:
    """One continuous-time jump trajectory through the whole protocol.

    In state m the exit clock runs at the column outflow (leak included);
    pulse boundaries truncate waiting times, which is exact for exponential
    clocks.  Absorption into the truncation leak ends the trajectory.
    """
    samplers = _samplers(protocol, trap, rate_mode)
    level = trap.flat_index(initial_level)
    jumps: list[tuple[float, int]] = [(0.0, level)]
    t = 0.0
    leaked = False
    for _cycle in range(protocol.cycles):
        for pulse, sampler in zip(protocol.pulses, samplers):
            level, t, leaked, _ = _advance(sampler, level, t, pulse.duration,
                                           rng_stream, jumps)
            if leaked:
                return TrajectoryResult(jumps, LEAKED, level)
    return TrajectoryResult(jumps, COMPLETED, level)


def _advance(sampler, level: int, t: float, duration: float,
             rng: np.random.Generator, jumps=None):
    """Jump process within one pulse; returns (level, time, leaked, n_jumps)."""
    remaining = duration
    n_jumps = 0
    while True:
        total, dest, cum = sampler.jump_distribution(level)
        if total <= 0.0:
            return level, t + remaining, False, n_jumps
        dt = rng.exponential(1.0 / total)
        if dt >= remaining:
            return level, t + remaining, False, n_jumps
        remaining -= dt
        t += dt
        n_jumps += 1
        u = rng.random() * total
        k = int(np.searchsorted(cum, u, side="right"))
        if k >= dest.shape[0]:
            if jumps is not None:
                jumps.append((t, -1))
            return level, t, True, n_jumps
        level = int(dest[k])
        if jumps is not None:
            jumps.append((t, level))


def mc_ensemble(n_traj: int, protocol: Protocol, trap: TrapConfig, seed: int,
                *, init: Distribution | None = None,
                rate_mode: str = "resonant", n_workers: int = 1) -> McEnsembleResult:
    """Seeded trajectory ensemble with cycle-boundary occupation estimates.

    Trajectory i draws from the stream seeded by (seed, i), so results are
    bitwise reproducible and independent of how trajectories are
    partitioned across workers (all accumulators are integers).
    """
    if n_traj < 1:
        raise DomainError(f"n_traj must be >= 1, got {n_traj}")
    if init is None:
        raise DomainError("mc_ensemble requires an initial distribution")
    target = protocol.target if protocol.target is not None else _default_target(trap)
    target_flat = trap.flat_index(target)
    samplers = _samplers(protocol, trap, rate_mode)
    durations = [p.duration for p in protocol.pulses]
    cycle_len = float(sum(durations))
    n_rec = protocol.cycles + 1
    n1 = trap.n_max + 1

    init_cum = np.cumsum(init.probs)
    init_cum /= init_cum[-1]

    def run_chunk(lo: int, hi: int):
        hits = np.zeros(n_rec, dtype=np.int64)
        leaks = np.zeros(n_rec, dtype=np.int64)
        sx = np.zeros(n_rec, dtype=np.int64)
        sx2 = np.zeros(n_rec, dtype=np.int64)
        sy = np.zeros(n_rec, dtype=np.int64)
        sy2 = np.zeros(n_rec, dtype=np.int64)
        sn = np.zeros(n_rec, dtype=np.int64)
        sn2 = np.zeros(n_rec, dtype=np.int64)
        jumps = np.zeros(hi - lo, dtype=np.int64)
        for i in range(lo, hi):
            rng = np.random.default_rng((seed, i))
            level = int(np.searchsorted(init_cum, rng.random(), side="right"))
            level = min(level, trap.n_states - 1)
            leaked = False
            n_jumps = 0
            for rec in range(n_rec):
                if rec > 0 and not leaked:
                    for dur, sampler in zip(durations, samplers):
                        level, _, leaked, nj = _advance(sampler, level, 0.0, dur, rng)
                        n_jumps += nj
                        if leaked:
                            break
                if leaked:
                    leaks[rec] += 1
                    continue
                if trap.dims == 1:
                    nx, ny = level, 0
                else:
                    nx, ny = divmod(level, n1)
                hits[rec] += int(level == target_flat)
                sx[rec] += nx
                sx2[rec] += nx * nx
                sy[rec] += ny
                sy2[rec] += ny * ny
                sn[rec] += nx + ny
                sn2[rec] += (nx + ny) ** 2
            jumps[i - lo] = n_jumps
        return hits, leaks, sx, sx2, sy, sy2, sn, sn2, jumps

    n_workers = max(1, int(n_workers))
    bounds = np.linspace(0, n_traj, n_workers + 1, dtype=int)
    chunks = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    if len(chunks) <= 1:
        results = [run_chunk(0, n_traj)]
    else:
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            results = list(pool.map(lambda ab: run_chunk(*ab), chunks))

    hits = sum(r[0] for r in results)
    leaks = sum(r[1] for r in results)
    sx = sum(r[2] for r in results)
    sx2 = sum(r[3] for r in results)
    sy = sum(r[4] for r in results)
    sy2 = sum(r[5] for r in results)
    sn = sum(r[6] for r in results)
    sn2 = sum(r[7] for r in results)
    jump_counts = np.concatenate([r[8] for r in results])

    n = float(n_traj)
    p = hits / n
    lf = leaks / n
    mean_x, se_x = _mean_se(sx, sx2, n)
    mean_y, se_y = _mean_se(sy, sy2, n)
    mean_t, se_t = _mean_se(sn, sn2, n)
    return McEnsembleResult(
        n_traj=n_traj, seed=seed,
        cycles=np.arange(n_rec),
        times=np.arange(n_rec) * cycle_len,
        p_target=p, p_target_se=np.sqrt(p * (1.0 - p) / n),
        mean_nx=mean_x, mean_nx_se=se_x,
        mean_ny=mean_y, mean_ny_se=se_y,
        mean_n=mean_t, mean_n_se=se_t,
        leak_frac=lf, leak_se=np.sqrt(lf * (1.0 - lf) / n),
        jump_counts=jump_counts)


def _mean_se(s: np.ndarray, s2: np.ndarray, n: float):
    mean = s / n
    var = np.maximum(s2 / n - mean ** 2, 0.0)
    return mean, np.sqrt(var / n)


def _ensemble_to_series(ens: McEnsembleResult, protocol: Protocol, target) -> TimeSeries:
    series = TimeSeries(target=target, mode="mc")
    n_pulses = len(protocol.pulses)
    for rec in range(ens.cycles.shape[0]):
        obs = ObsSnapshot(float(ens.p_target[rec]), float(ens.mean_nx[rec]),
                          float(ens.mean_ny[rec]), float(ens.mean_n[rec]),
                          float(ens.leak_frac[rec]))
        pulse = 0 if rec == 0 else n_pulses
        series.samples.append(Sample(int(ens.cycles[rec]), pulse,
                                     float(ens.times[rec]), obs))
    return series
