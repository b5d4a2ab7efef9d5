"""Population dynamics under pulse protocols.

The rate equation dN/dt = G N with the piecewise-constant generators from
:mod:`dyncool.rates` is solved exactly per pulse by a cached matrix
exponential; the same process is also unraveled as a continuous-time jump
Monte Carlo, which serves as an independent statistical check of the
propagator (and vice versa).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .protocols import Protocol
from .rates import (ColumnSampler, RateMatrix, StateBasis, TrapConfig,
                    _pulse_cache_key, cache_counts, rate_matrix, release_tables)

LEAKED = "leaked"
COMPLETED = "completed"


@dataclass
class Distribution:
    """Probability vector over flattened trap levels plus truncation leak.

    ``clipped`` is the mass that propagation has set to zero so far, where
    rounding left an entry below zero.
    """

    probs: np.ndarray
    leak: float
    shape: tuple[int, ...]
    clipped: float = 0.0

    def copy(self) -> "Distribution":
        return Distribution(self.probs.copy(), self.leak, self.shape, self.clipped)

    @property
    def total(self) -> float:
        return float(self.probs.sum() + self.leak)

    def grid(self) -> np.ndarray:
        return self.probs.reshape(self.shape)


@dataclass(frozen=True)
class ObsSnapshot:
    """Values recorded at one boundary; ``extra`` holds the extra targets' occupations."""

    p_target: float
    mean_nx: float
    mean_ny: float
    mean_n: float
    leak: float
    extra: tuple[float, ...] = ()


@dataclass(frozen=True)
class Sample:
    cycle: int
    pulse: int  # 1-based pulse index within the cycle; 0 marks the initial state
    t: float
    obs: ObsSnapshot


@dataclass
class TimeSeries:
    """Observables recorded at pulse boundaries of a protocol run.

    In both run modes every sample's ``obs.extra`` holds the occupations of
    ``extra_targets``.  A master run also keeps the distribution it stopped
    at, the state behind the last sample, as ``final_distribution``.
    ``phases`` holds the wall seconds of the run's phases, named as the
    benchmark's spans, ``cache`` the builds and hits of the emission-kernel
    and rate-matrix caches during the run (``rates.cache_counts``), and
    ``diagnostics`` the run's counts for the manifest: in master mode the
    state basis propagated, its state count and the clipped mass, in Monte
    Carlo mode the columns built, the jumps made and the most jumps one
    trajectory made.
    """

    samples: list[Sample] = field(default_factory=list)
    target: int | tuple[int, int] | None = None
    mode: str = "master"
    extra_targets: tuple = ()
    final_distribution: Distribution | None = field(default=None, init=False, repr=False)
    phases: dict[str, float] = field(default_factory=dict, init=False, repr=False)
    cache: dict = field(default_factory=dict, init=False, repr=False)
    diagnostics: dict = field(default_factory=dict, init=False, repr=False)

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
    """Seeded trajectory ensemble reduced to cycle-boundary estimates.

    Record r is the state after r cycles.  Each estimate averages a row of
    ``_obs_rows`` or the n = n_x + n_y row (the leak: 1 - the mass row) over
    the trajectories, with standard error sqrt((<x^2> - <x>^2) / n_traj),
    the binomial sqrt(p(1-p)/n_traj) for a 0/1 row.  ``extra`` and
    ``extra_se`` hold one row per extra target.  ``jump_counts`` holds each
    trajectory's jumps, the absorbing jump into the leak included.
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
    extra: np.ndarray
    extra_se: np.ndarray
    jump_counts: np.ndarray
    phases: dict[str, float]
    columns_built: int


def thermal_distribution(mean_n: float, trap: TrapConfig) -> Distribution:
    """Truncated thermal state with the given total mean quantum number.

    1D: geometric occupation p_n = (1-q) q^n with q = mean/(mean+1).  2D: a
    product of two geometrics carrying mean/2 each, so the total mean
    n_x + n_y matches.  Tail mass beyond truncation is folded into the
    renormalization and warned about when it exceeds 1e-6.
    """
    if not 0.0 < mean_n < np.inf:
        raise DomainError(f"thermal mean must be positive and finite, got {mean_n}")
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


def _obs_rows(shape: tuple[int, ...], target, extra_targets=()):
    """The recorded values as rows over the flattened grid levels, and the
    row of each extra target.

    Row 0 is the mass, rows 1 and 2 the n_x and n_y weights (n and 0 in
    1D), and rows 3 on one indicator per distinct level of the target and
    the extra targets, the target's first, so a grid distribution's values
    are ``rows @ probs`` and a level named twice reads one row.
    """
    flat = []
    for level in (target, *extra_targets):
        idx = tuple(int(v) for v in np.atleast_1d(level))[:len(shape)]
        if len(idx) != len(shape) or not all(0 <= v < n for v, n in zip(idx, shape)):
            raise DomainError(f"target {level} outside truncation")
        flat.append(int(np.ravel_multi_index(idx, shape)))
    distinct = list(dict.fromkeys(flat))
    levels = np.indices(shape).reshape(len(shape), -1)
    rows = np.zeros((3 + len(distinct), levels.shape[1]))
    rows[0] = 1.0
    rows[1:1 + len(shape)] = levels
    rows[3 + np.arange(len(distinct)), distinct] = 1.0
    return rows, [3 + distinct.index(f) for f in flat[1:]]


def _snapshot(values, leak: float, extra_rows=()) -> ObsSnapshot:
    """The snapshot of one row-product vector of ``_obs_rows``."""
    return ObsSnapshot(values[3], values[1], values[2], values[1] + values[2], leak,
                       tuple(values[i] for i in extra_rows))


def observables(dist: Distribution, target) -> ObsSnapshot:
    """Target occupation, per-axis and total mean level, and leak."""
    return _snapshot((_obs_rows(dist.shape, target)[0] @ dist.probs).tolist(), dist.leak)


def propagate_pulse(dist: Distribution, rates: RateMatrix, duration: float) -> Distribution:
    """Evolve a distribution under one pulse's generator for ``duration`` tau0.

    ``rates`` is anything with ``n_states`` and ``propagator(duration)``: a
    pulse's ``RateMatrix``, or the cycle map of a master run.
    """
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
    clipped = -float(np.minimum(new, 0.0).sum())
    np.maximum(new, 0.0, out=new)
    return Distribution(new, dist.leak + max(lost, 0.0), dist.shape,
                        dist.clipped + clipped)


class _CycleMap:
    """One pulse cycle as one step on a state basis.

    From the pulses' cached propagators P_j it forms the partial products
    Z_j = P_j ... P_1 (K - 1 GEMMs) and the cycle map M = Z_K, which
    ``propagate_pulse`` applies.  ``inner`` stacks ``rows @ Z_j`` for
    j < K, so ``inner @ y`` holds the row values after every pulse but the
    last of a cycle that starts at y.  min(Z_j) >= -1e-12 for j < K keeps
    every state inside a cycle above -1e-12 for any start of mass <= 1;
    ``propagate_pulse`` checks the state M leaves.
    """

    def __init__(self, mats, pulses, rows: np.ndarray):
        self.duration = sum(pulse.duration for pulse in pulses)
        # every propagator first: no partial product is held beside their powers
        z, *later = [mat.propagator(pulse.duration) for mat, pulse in zip(mats, pulses)]
        inner = []
        for prop in later:
            if z.min() < -1e-12:
                raise DomainError("propagation produced significantly negative occupation")
            inner.append(rows @ z)
            z = prop @ z
        self.matrix = z
        self.inner = np.concatenate(inner) if inner else np.zeros((0, z.shape[0]))

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]

    def propagator(self, duration: float) -> np.ndarray:
        """M; the map has one duration, the cycle's (``self.duration``)."""
        return self.matrix


def run_protocol(init: Distribution, protocol: Protocol, trap: TrapConfig,
                 mode: str = "master", *, rate_mode: str = "resonant",
                 trajectories: int = 1000, seed: int = 12345,
                 stop_tol: float | None = 1e-6,
                 extra_targets: tuple = ()) -> TimeSeries:
    """Run a pulse protocol and record observables at every pulse boundary.

    ``mode='master'`` propagates the rate equation exactly (matrix
    exponentials built once per distinct pulse); ``mode='mc'`` averages a
    seeded trajectory ensemble and records at cycle boundaries.  Both read
    every recorded value, the ``extra_targets`` included, from the rows of
    ``_obs_rows``, which refuses a target outside the truncation.  Early
    stop fires when the target occupation moves less than ``stop_tol`` over
    a cycle (None or 0 disables; Monte Carlo runs never stop early).

    A master run propagates on the unordered level pairs (the ``swap``
    basis of ``rates.StateBasis``) when the x <-> y swap commutes with every
    generator and the start is swap-symmetric (``_swap_lumpable``), and on
    the full grid otherwise.  In the swap basis p(a, b) = p(b, a) = q{a, b}/2
    exactly, so each grid row of ``_obs_rows`` carries over to the states
    as ``basis.lump(row * share)``, share being the weight ``unlump`` gives
    each level.  The run steps one cycle at a time through ``_CycleMap``.
    The leak is chained pulse by pulse, leak_j = leak_{j-1} +
    max(m_{j-1} - m_j, 0) with m the mass row (read after clipping at a
    cycle's end), so it never decreases; t accumulates pulse by pulse.  The
    grid state is recovered once, at the end.  An empty protocol or zero
    cycles records the initial sample only and computes no propagator.
    """
    target = protocol.target if protocol.target is not None else _default_target(trap)
    before = cache_counts()
    series = TimeSeries(target=target, mode=mode, extra_targets=tuple(extra_targets))
    if mode == "mc":
        ens = mc_ensemble(trajectories, protocol, trap, seed, init=init,
                          rate_mode=rate_mode, extra_targets=extra_targets)
        records = zip(ens.cycles.tolist(), ens.times.tolist(), ens.p_target.tolist(),
                      ens.mean_nx.tolist(), ens.mean_ny.tolist(), ens.mean_n.tolist(),
                      ens.leak_frac.tolist(), ens.extra.T.tolist())
        for cycle, t, *obs, extra in records:
            series.samples.append(Sample(cycle, min(cycle, 1) * len(protocol.pulses), t,
                                         ObsSnapshot(*obs, tuple(extra))))
        series.phases, series.cache = ens.phases, cache_counts(before)
        series.diagnostics = {"columns_built": ens.columns_built,
                              "jumps": int(ens.jump_counts.sum()),
                              "jumps_max": int(ens.jump_counts.max())}
        return series
    if mode != "master":
        raise DomainError(f"unknown run mode {mode!r}")

    grid_rows, extra_rows = _obs_rows(trap.shape, target, extra_targets)
    basis = StateBasis(trap, "swap" if _swap_lumpable(init, protocol, trap, rate_mode)
                       else "full")
    t0 = time.perf_counter()
    mats = [rate_matrix(trap, pulse, rate_mode, basis.kind) for pulse in protocol.pulses]
    release_tables()
    t1 = time.perf_counter()
    share = basis.unlump(np.ones(basis.size))
    rows = np.array([basis.lump(row) for row in grid_rows * share])
    state = Distribution(basis.lump(init.probs), init.leak, (basis.size,), init.clipped)
    values = (rows @ state.probs).tolist()
    t, leak = 0.0, state.leak
    series.samples.append(Sample(0, 0, t, _snapshot(values, leak, extra_rows)))
    cycles = protocol.cycles if protocol.pulses else 0
    if cycles:
        cycle_map = _CycleMap(mats, protocol.pulses, rows)
    for cycle in range(1, cycles + 1):
        start = values
        inner = (cycle_map.inner @ state.probs).reshape(-1, len(rows)).tolist()
        state = propagate_pulse(state, cycle_map, cycle_map.duration)
        values = (rows @ state.probs).tolist()
        mass = start[0]
        for j, (pulse, vals) in enumerate(zip(protocol.pulses, [*inner, values]), start=1):
            leak += max(mass - vals[0], 0.0)
            mass = vals[0]
            t += pulse.duration
            series.samples.append(Sample(cycle, j, t, _snapshot(vals, leak, extra_rows)))
        state.leak = leak
        if stop_tol and abs(values[3] - start[3]) < stop_tol:
            break
    series.final_distribution = Distribution(basis.unlump(state.probs), state.leak,
                                             trap.shape, state.clipped)
    series.phases = {"rates.rate_matrix": t1 - t0,
                     "dynamics.propagate": time.perf_counter() - t1}
    series.cache = cache_counts(before)
    series.diagnostics = {"basis": basis.kind, "states": basis.size,
                          "clipped_mass": state.clipped}
    return series


def _swap_lumpable(init: Distribution, protocol: Protocol, trap: TrapConfig,
                   rate_mode: str) -> bool:
    """Whether every generator commutes with the x <-> y swap and the start
    is swap-symmetric, so the run can propagate unordered level pairs.

    Resonant 2D rates see the amplitude ratio A only through |A|^2 and
    Re(A), and are swap-symmetric when |A| = 1; both emission patterns are.
    The sphere rule maps onto itself under phi -> pi/2 - phi, since its phi
    order is a multiple of 4.  Full mode's cross term depends on Im(A).
    """
    if trap.dims != 2 or rate_mode != "resonant":
        return False
    if any(abs(complex(p.amplitude_ratio)) != 1.0 for p in protocol.pulses):
        return False
    grid = init.grid()
    return bool(np.array_equal(grid, grid.T))


def _default_target(trap: TrapConfig):
    return 0 if trap.dims == 1 else (0, 0)


def _samplers(protocol: Protocol, trap: TrapConfig, rate_mode: str):
    """Per-pulse jump samplers: dense-backed in 1D, column-on-demand in 2D."""
    shared: dict = {}
    out = []
    for pulse in protocol.pulses:
        if trap.dims == 1:
            out.append(rate_matrix(trap, pulse, rate_mode))
        else:
            key = _pulse_cache_key(trap, pulse, rate_mode)
            if key not in shared:
                shared[key] = ColumnSampler(trap, pulse, rate_mode)
            out.append(shared[key])
    release_tables()
    return out


def mc_trajectory(initial_level, protocol: Protocol, trap: TrapConfig,
                  rng_stream: np.random.Generator,
                  rate_mode: str = "resonant") -> TrajectoryResult:
    """One continuous-time jump trajectory through the whole protocol.

    The n = 1 case of the ensemble's stepper (``_JumpStepper``), logging
    (time, flat level) after each jump.  Absorption into the truncation
    leak logs the level -1 and ends the trajectory.
    """
    stepper = _JumpStepper(_samplers(protocol, trap, rate_mode), trap.n_states,
                           np.array([trap.flat_index(initial_level)]))
    jumps: list[tuple[float, int]] = [(0.0, int(stepper.level[0]))]
    t = 0.0
    for _cycle in range(protocol.cycles):
        for k, pulse in enumerate(protocol.pulses):
            stepper.pulse(k, pulse.duration, rng_stream, t, jumps)
            t += pulse.duration
            if stepper.leaked[0]:
                return TrajectoryResult(jumps, LEAKED, int(stepper.level[0]))
    return TrajectoryResult(jumps, COMPLETED, int(stepper.level[0]))


class _JumpStepper:
    """Trajectories advanced together through pulses, on numpy arrays.

    ``level`` holds each trajectory's flat level (the last one before
    absorption, for a leaked trajectory), ``leaked`` whether the truncation
    leak has absorbed it, and ``jumps`` its jump count, the absorbing jump
    included.  Each distinct sampler gets an exit-rate vector, filled from
    ``jump_distribution(level)[0]`` the first time a trajectory stands on
    the level (NaN until then), so the sampler builds each column once.
    """

    def __init__(self, samplers, n_states: int, level: np.ndarray):
        self.samplers = samplers
        self.n_states = n_states
        self.level = level
        self.leaked = np.zeros(level.size, dtype=bool)
        self.jumps = np.zeros(level.size, dtype=np.int64)
        shared: dict[int, np.ndarray] = {}
        self._rates = [shared.setdefault(id(s), np.full(n_states, np.nan))
                       for s in samplers]

    def _exit_rates(self, k: int, idx: np.ndarray) -> np.ndarray:
        table = self._rates[k]
        levels = self.level[idx]
        rate = table[levels]
        unseen = np.isnan(rate)
        if unseen.any():
            for m in np.unique(levels[unseen]).tolist():
                table[m] = self.samplers[k].jump_distribution(m)[0]
            rate = table[levels]
        return rate

    def pulse(self, k: int, duration: float, rng: np.random.Generator,
              t0: float = 0.0, log: list | None = None) -> None:
        """Advance every live trajectory through pulse ``k`` of ``duration``.

        Exit clocks are exponential, so a trajectory whose exit time falls
        beyond the time left in the pulse stays put until its end, and only
        the ones that jumped draw again.  A jump's destination is the
        right-sided search of u * total in its column's cumulative rates;
        a search past the last level is absorption into the leak.  With
        ``log``, append (t0 + elapsed, level) for every jump.
        """
        sampler = self.samplers[k]
        idx = np.flatnonzero(~self.leaked)
        left = np.full(idx.size, float(duration))
        while idx.size:
            rate = self._exit_rates(k, idx)
            moving = rate > 0.0  # a zero exit rate never jumps
            idx, rate, left = idx[moving], rate[moving], left[moving]
            dt = rng.standard_exponential(idx.size) / rate
            hit = dt < left
            idx, rate, left = idx[hit], rate[hit], left[hit] - dt[hit]
            if not idx.size:
                return
            self.jumps[idx] += 1
            u = rng.random(idx.size) * rate
            dest = np.array([sampler.jump_distribution(m)[1].searchsorted(x, side="right")
                             for m, x in zip(self.level[idx].tolist(), u.tolist())],
                            dtype=np.int64)
            gone = dest == self.n_states
            if log is not None:
                log.extend(zip((t0 + duration - left).tolist(),
                               np.where(gone, -1, dest).tolist()))
            self.leaked[idx[gone]] = True
            idx, left = idx[~gone], left[~gone]
            self.level[idx] = dest[~gone]


def mc_ensemble(n_traj: int, protocol: Protocol, trap: TrapConfig, seed: int,
                *, init: Distribution | None = None, rate_mode: str = "resonant",
                extra_targets: tuple = ()) -> McEnsembleResult:
    """Seeded trajectory ensemble with cycle-boundary occupation estimates.

    One ``np.random.default_rng(seed)`` stream draws the initial levels
    from ``init`` and then drives ``_JumpStepper`` over all trajectories at
    once, pulse by pulse, so a result depends only on (seed, n_traj,
    protocol, trap) and is bitwise reproducible.  At each cycle boundary
    the live trajectories' level histogram is summed against the rows of
    ``_obs_rows``, plus one n = n_x + n_y row, and against their squares;
    the sums are integers, exact in floats.  The leak fraction is
    (n_traj - live) / n_traj.
    """
    if n_traj < 1:
        raise DomainError(f"n_traj must be >= 1, got {n_traj}")
    if init is None:
        raise DomainError("mc_ensemble requires an initial distribution")
    target = protocol.target if protocol.target is not None else _default_target(trap)
    rows, extra_rows = _obs_rows(trap.shape, target, extra_targets)
    rows = np.vstack([rows, rows[1] + rows[2]])
    moments = np.concatenate([rows, rows * rows])
    t0 = time.perf_counter()
    samplers = _samplers(protocol, trap, rate_mode)
    t1 = time.perf_counter()
    n_rec = protocol.cycles + 1

    rng = np.random.default_rng(seed)
    init_cum = np.cumsum(init.probs)
    init_cum /= init_cum[-1]
    level = np.searchsorted(init_cum, rng.random(n_traj), side="right")
    stepper = _JumpStepper(samplers, trap.n_states, np.minimum(level, trap.n_states - 1))
    sums = np.zeros((len(moments), n_rec))
    for rec in range(n_rec):
        if rec:
            for k, pulse in enumerate(protocol.pulses):
                stepper.pulse(k, pulse.duration, rng)
        counts = np.bincount(stepper.level[~stepper.leaked], minlength=trap.n_states)
        sums[:, rec] = moments @ counts
    build = "rates.column_sampler" if trap.dims == 2 else "rates.rate_matrix"

    n = float(n_traj)
    mean = sums[:len(rows)] / n
    se = np.sqrt(np.maximum(sums[len(rows):] / n - mean ** 2, 0.0) / n)
    return McEnsembleResult(
        n_traj=n_traj, seed=seed, cycles=np.arange(n_rec),
        times=np.arange(n_rec) * float(sum(pulse.duration for pulse in protocol.pulses)),
        p_target=mean[3], p_target_se=se[3], mean_nx=mean[1], mean_nx_se=se[1],
        mean_ny=mean[2], mean_ny_se=se[2], mean_n=mean[-1], mean_n_se=se[-1],
        leak_frac=(n - sums[0]) / n, leak_se=se[0],
        extra=mean[extra_rows], extra_se=se[extra_rows],
        jump_counts=stepper.jumps, columns_built=sum(len(s._cache) for s in set(samplers)),
        phases={build: t1 - t0, "dynamics.mc": time.perf_counter() - t1})

