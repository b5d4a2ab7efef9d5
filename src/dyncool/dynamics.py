"""Population dynamics under pulse protocols.

The rate equation dN/dt = G N with the piecewise-constant generators from
:mod:`dyncool.rates` is solved exactly per pulse by a matrix exponential;
the same process is also unraveled as a continuous-time jump
Monte Carlo, which serves as an independent statistical check of the
propagator (and vice versa).
"""

from __future__ import annotations

import functools
import math
import resource
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rates
from .errors import DomainError
from .protocols import Protocol, RunSpec
from .rates import ColumnSampler, RateMatrix, TrapConfig, _target_index, rate_matrix


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

    def __post_init__(self) -> None:
        if np.size(self.probs) != math.prod(self.shape):
            raise DomainError(f"{np.size(self.probs)} probabilities for shape {self.shape}")

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


_COLUMNS = ("cycle", "pulse", "t", "p_target", "mean_nx", "mean_ny", "mean_n", "leak")


@dataclass
class TimeSeries:
    """Observables recorded at pulse boundaries of a protocol run.

    The values are held as columns, one entry per sample: ``cycle``,
    ``pulse`` (1-based within the cycle, 0 for the initial state), the time
    ``t``, ``p_target``, ``mean_nx``, ``mean_ny``, ``mean_n`` and ``leak``,
    and ``extra``, one row per sample holding the occupations of
    ``extra_targets``.  ``samples`` is built from them when first read.
    A master run also keeps the distribution it stopped
    at, the state behind the last sample, as ``final_distribution``.
    ``phases`` holds the wall seconds of the run's phases, named after the
    layer each times: in master mode the providers (``rates.providers``),
    the generators (``rates.rate_matrix``), their exponentials
    (``rates.markov_expm``) and the rest of the propagation
    (``dynamics.propagate``), in Monte Carlo mode the samplers' build and
    the stepping.  ``peak_rss_mb`` holds, under the same names, the
    process's peak RSS in MB that each phase raised it to (``_PeakMarks``),
    None where it never did: the largest value names the phase that set the
    run's peak.
    ``cache`` holds the builds and hits of the run's emission
    kernels (``rates._providers``), and ``diagnostics`` the run's counts for
    the manifest: in both modes the state basis stepped and its state
    count, then in master mode the clipped mass, in Monte Carlo mode the
    columns (or draw tables) built, the jumps made, the proposals drawn
    and the most jumps one trajectory made.
    """

    cycle: np.ndarray
    pulse: np.ndarray
    t: np.ndarray
    p_target: np.ndarray
    mean_nx: np.ndarray
    mean_ny: np.ndarray
    mean_n: np.ndarray
    leak: np.ndarray
    extra: np.ndarray
    target: int | tuple[int, int] | None = None
    mode: str = "master"
    extra_targets: tuple = ()
    final_distribution: Distribution | None = field(default=None, init=False, repr=False)
    phases: dict[str, float] = field(default_factory=dict, init=False, repr=False)
    peak_rss_mb: dict[str, float | None] = field(default_factory=dict, init=False, repr=False)
    cache: dict = field(default_factory=dict, init=False, repr=False)
    diagnostics: dict = field(default_factory=dict, init=False, repr=False)

    @functools.cached_property
    def samples(self) -> list[Sample]:
        return self._samples(slice(None))

    def _samples(self, which) -> list[Sample]:
        """The samples at ``which``, an index array or slice of the columns."""
        columns = [getattr(self, name)[which].tolist() for name in _COLUMNS]
        return [Sample(cycle, pulse, t, ObsSnapshot(*obs, tuple(extra)))
                for cycle, pulse, t, *obs, extra in zip(*columns, self.extra[which].tolist())]

    def cycle_samples(self) -> list[Sample]:
        """Initial sample plus the end-of-cycle boundary samples."""
        return self._samples(self.cycle_ends())

    def cycle_ends(self) -> np.ndarray:
        """Where ``cycle_samples`` are: pulse 0 and the cycle's last pulse."""
        return (self.pulse == 0) | (self.pulse == self.pulse.max(initial=0))

    def final(self) -> Sample:
        return self._samples(slice(-1, None))[0]

    def to_csv(self, path) -> None:
        row = "%d,%d" + f",{rates.FLOAT_FIELD}" * (len(_COLUMNS) - 2)
        lines = ["cycle,pulse,t_tau0,p_target,mean_nx,mean_ny,mean_n,leak"]
        lines += [row % values
                  for values in zip(*(getattr(self, name).tolist() for name in _COLUMNS))]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


@dataclass
class McEnsembleResult:
    """Seeded trajectory ensemble reduced to cycle-boundary estimates.

    Record r is the state after r cycles.  Each estimate averages a row of
    ``_obs_rows`` or the n = n_x + n_y row (the leak: 1 - the mass row),
    carried over to the run's basis (``_run_rows``), over the trajectories,
    with standard error sqrt((<x^2> - <x>^2) / n_traj), the binomial
    sqrt(p(1-p)/n_traj) for a 0/1 row.  On the swap basis a trajectory on
    {a, b} reads (a + b)/2 for n_x and n_y, and a target off the diagonal
    reads 1/2, so there its standard error is the sample one, not the
    binomial.  ``extra`` and ``extra_se`` hold one row per extra target.
    ``jump_counts`` holds each trajectory's jumps, the absorbing jump into
    the leak included, ``columns_built`` one per distinct (sampler, state
    of the run's basis) a trajectory jumped from, one sampler per provider
    (a draw table in a 2D resonant run, a column otherwise),
    ``proposals`` the samplers' second-stage draws, rejections included (0
    where jumps are drawn from columns), ``basis`` and ``states`` the
    basis's kind and size, and ``cache`` and ``peak_rss_mb`` the run's
    ``TimeSeries`` blocks of those names.
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
    peak_rss_mb: dict[str, float | None]
    columns_built: int
    proposals: int
    basis: str
    states: int
    cache: dict


def _peak_rss_mb() -> float:
    """The process's peak resident set size so far, ``ru_maxrss``, in MB
    (MiB; the field counts KiB on Linux, bytes on macOS)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (
        2 ** 20 if sys.platform == "darwin" else 2 ** 10)


class _PeakMarks:
    """Which phases of a run raised the process's peak RSS.

    ``mark(name)`` ends a stretch of phase ``name`` that began at the last
    mark (or at construction).  ``peaks[name]`` is the peak RSS in MB
    (``_peak_rss_mb``) at the end of the last stretch of ``name`` during
    which it rose, None if none did.  The peak never falls, so the phase
    holding the largest value is the one that set the run's peak, however
    its stretches interleave with others'.
    """

    def __init__(self, names):
        self.peaks = dict.fromkeys(names)
        self._last = _peak_rss_mb()

    def mark(self, name: str) -> None:
        now = _peak_rss_mb()
        if now > self._last:
            self.peaks[name] = self._last = now


def thermal_distribution(mean_n: float, trap: TrapConfig) -> Distribution:
    """Truncated thermal state with the given total mean quantum number.

    A product of one geometric occupation p_n = (1-q) q^n per axis, with
    q = mean/(mean+1) of the axis mean mean_n/dims, so the total mean
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
    probs = functools.reduce(np.multiply.outer, [axis] * trap.dims).reshape(-1)
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
        flat.append(int(np.ravel_multi_index(_target_index(shape, level), shape)))
    distinct = list(dict.fromkeys(flat))
    levels = np.indices(shape).reshape(len(shape), -1)
    rows = np.zeros((3 + len(distinct), levels.shape[1]))
    rows[0] = 1.0
    rows[1:1 + len(shape)] = levels
    rows[3 + np.arange(len(distinct)), distinct] = 1.0
    return rows, [3 + distinct.index(f) for f in flat[1:]]


def observables(dist: Distribution, target) -> ObsSnapshot:
    """Target occupation, per-axis and total mean level, and leak."""
    _, mean_nx, mean_ny, p_target = (_obs_rows(dist.shape, target)[0] @ dist.probs).tolist()
    return ObsSnapshot(p_target, mean_nx, mean_ny, mean_nx + mean_ny, dist.leak)


def propagate_pulse(dist: Distribution, rates: RateMatrix, duration: float) -> Distribution:
    """Evolve a distribution under one pulse's generator for ``duration`` tau0.

    ``rates`` is anything with ``n_states`` and ``propagator(duration)``: a
    pulse's ``RateMatrix``, or the cycle map of a master run.
    """
    if not 0 <= duration < np.inf:
        raise DomainError(f"duration must be finite and >= 0, got {duration}")
    if rates.n_states != dist.probs.shape[0]:
        raise DomainError(
            f"rate matrix has {rates.n_states} states, distribution "
            f"{dist.probs.shape[0]}")
    if duration == 0:
        return dist.copy()
    new = rates.propagator(duration) @ dist.probs
    lost = float(dist.probs.sum() - new.sum())
    low, clipped = new.min(), 0.0
    if low < -1e-12:
        raise DomainError("propagation produced significantly negative occupation")
    if low < 0.0:
        clipped = -float(np.minimum(new, 0.0).sum())
        np.maximum(new, 0.0, out=new)
    return Distribution(new, dist.leak + max(lost, 0.0), dist.shape,
                        dist.clipped + clipped)


class _CycleMap:
    """One pulse cycle as one step on a state basis.

    It forms the partial products Z_j = P_j ... P_1 (K - 1 GEMMs) and the
    cycle map M = Z_K, which ``propagate_pulse`` applies.  ``mats`` yields
    the pulses' ``RateMatrix`` objects in order, and is read one at a time:
    given a lazy iterable, each G_j is built, exponentiated into
    P_j = ``rates.markov_expm`` (G_j, tau_j), multiplied into Z and dropped
    with P_j, so the dense working set does not grow with the pulse count K;
    ``markov_expm`` gets the only reference to G_j.  Z is held as its
    transpose, and Z^T <- Z^T P_j^T is formed in place, half the rows of
    Z^T at a time (``rates._right_multiply``): beside Z and P_j the product
    holds n/2 rows, not a third n x n array, well below the peak of
    ``markov_expm`` beside Z (q + 2.2 n x n arrays, q >= 1).  ``phases``
    holds the wall seconds of the generator builds and of the exponentials.
    ``marks`` (a run's ``_PeakMarks``, or the map's own) is marked at the
    end of each build and exponential, and before each build for the
    products between them, which the run times as ``dynamics.propagate``.
    ``inner`` stacks ``rows @ Z_j`` for j < K, so ``inner @ y`` holds the
    row values after every pulse but the last of a cycle that starts at y.
    min(Z_j) >= -1e-12 for j < K keeps every state inside a cycle above
    -1e-12 for any start of mass <= 1; ``propagate_pulse`` checks the state
    M leaves.
    """

    def __init__(self, mats, pulses, rows: np.ndarray, marks: _PeakMarks | None = None):
        self.duration = sum(pulse.duration for pulse in pulses)
        self.phases = {"rates.rate_matrix": 0.0, "rates.markov_expm": 0.0}
        marks = marks or _PeakMarks([*self.phases, "dynamics.propagate"])
        zt, inner, mats = None, [], iter(mats)
        for pulse in pulses:
            if zt is not None:
                if zt.min() < -1e-12:
                    raise DomainError("propagation produced significantly negative occupation")
                inner.append(rows @ zt.T)
            marks.mark("dynamics.propagate")
            start = time.perf_counter()
            held = [next(mats).generator]
            built = time.perf_counter()
            marks.mark("rates.rate_matrix")
            # no name holds G_j past this call (the list hands it over), nor
            # P_j past the product
            prop = rates.markov_expm(held.pop(), pulse.duration)
            self.phases["rates.rate_matrix"] += built - start
            self.phases["rates.markov_expm"] += time.perf_counter() - built
            marks.mark("rates.markov_expm")
            if zt is None:
                zt = np.ascontiguousarray(prop.T)
            else:
                rates._right_multiply(zt, prop.T, rates._row_scratch(zt, 2))
            del prop
        self.matrix = zt.T
        self.inner = np.concatenate(inner) if inner else np.zeros((0, zt.shape[0]))

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]

    def propagator(self, duration: float) -> np.ndarray:
        """M; the map has one duration, the cycle's (``self.duration``)."""
        return self.matrix


def run_protocol(init: Distribution, protocol: Protocol, trap: TrapConfig,
                 mode: str = "master", *, rate_mode: str = "resonant",
                 trajectories: int = RunSpec.trajectories, seed: int = RunSpec.seed,
                 stop_tol: float | None = 1e-6,
                 extra_targets: tuple = ()) -> TimeSeries:
    """Run a pulse protocol and record observables at every pulse boundary.

    ``mode='master'`` propagates the rate equation exactly (one matrix
    exponential per pulse of the cycle); ``mode='mc'`` averages a
    seeded trajectory ensemble and records at cycle boundaries.  Both read
    every recorded value, the ``extra_targets`` included, from the rows of
    ``_obs_rows``, which refuses a target outside the truncation.  Early
    stop fires when the target occupation moves less than ``stop_tol`` over
    a cycle (None or 0 disables; Monte Carlo runs never stop early).

    Both modes step the states of ``rates._run_basis`` (``_run_rows``): the
    unordered level pairs where the start is swap-symmetric and every
    pulse's rates commute with the x <-> y swap, else the grid.  A master
    run steps one cycle at a time through ``_CycleMap``,
    which builds each generator when it needs it, from the providers built
    first (``rates._providers``), whose recoil tables are freed once they
    all exist.  A start over another trap's levels, or a basis over the
    dense-matrix budget, is refused before any of them.  Each cycle is one
    ``propagate_pulse`` and one product of the rows stacked on the map's
    ``inner`` rows with the state, one row of a table that holds every
    sample's row values in order.  From them, once the run ends, the leak
    is chained pulse by pulse, leak_j = leak_{j-1} + max(m_{j-1} - m_j, 0)
    with m the mass row (read after clipping at a cycle's end), so it never
    decreases, and t accumulates pulse by pulse.  The grid state is
    recovered once, at the end.  An empty protocol or zero cycles records
    the initial sample only and builds no provider or generator.
    """
    target = protocol.target_in(trap.dims)
    labels = {"target": target, "mode": mode, "extra_targets": tuple(extra_targets)}
    if mode == "mc":
        ens = mc_ensemble(trajectories, protocol, trap, seed, init=init,
                          rate_mode=rate_mode, extra_targets=extra_targets)
        series = TimeSeries(**labels, cycle=ens.cycles,
                            pulse=np.minimum(ens.cycles, 1) * len(protocol.pulses),
                            t=ens.times, p_target=ens.p_target, mean_nx=ens.mean_nx,
                            mean_ny=ens.mean_ny, mean_n=ens.mean_n, leak=ens.leak_frac,
                            extra=ens.extra.T)
        series.phases, series.peak_rss_mb, series.cache = ens.phases, ens.peak_rss_mb, ens.cache
        series.diagnostics = {"basis": ens.basis, "states": ens.states,
                              "columns_built": ens.columns_built,
                              "jumps": int(ens.jump_counts.sum()),
                              "proposals": ens.proposals,
                              "jumps_max": int(ens.jump_counts.max())}
        return series
    if mode != "master":
        raise DomainError(f"unknown run mode {mode!r}")
    _check_start(init, trap)

    grid_rows, extra_rows = _obs_rows(trap.shape, target, extra_targets)
    basis, rows = _run_rows(init, protocol, trap, rate_mode, grid_rows)
    rates._check_matrix_budget(basis.size)
    t0 = time.perf_counter()
    state = Distribution(basis.lump(init.probs), init.leak, (basis.size,), init.clipped)
    pulses = len(protocol.pulses)
    cycles = protocol.cycles if pulses else 0
    marks = _PeakMarks(["rates.providers", "rates.rate_matrix", "rates.markov_expm",
                        "dynamics.propagate"])
    start = time.perf_counter()
    providers, cache = rates._providers(protocol, trap, rate_mode)
    phases = {"rates.providers": time.perf_counter() - start,
              "rates.rate_matrix": 0.0, "rates.markov_expm": 0.0}
    marks.mark("rates.providers")
    readout = rows
    if cycles:
        cycle_map = _CycleMap((rate_matrix(trap, pulse, rate_mode, basis.kind, provider=provider)
                               for pulse, provider in zip(protocol.pulses, providers)),
                              protocol.pulses, rows, marks)
        del providers
        phases.update(cycle_map.phases)
        readout = np.concatenate([rows, cycle_map.inner])
    # row c: the row values at the end of cycle c, then after each pulse but
    # the last of cycle c + 1, so in order the table's rows of values are
    # the samples; grown by doubling, so a run that stops early holds no
    # table sized to its cycle budget
    table = np.empty((min(cycles, 1023) + 1, len(readout)))
    np.matmul(readout, state.probs, out=table[0])
    done = 0
    for done in range(1, cycles + 1):
        if done == len(table):
            table = np.concatenate([table, np.empty_like(table)])
        state = propagate_pulse(state, cycle_map, cycle_map.duration)
        np.matmul(readout, state.probs, out=table[done])
        if stop_tol and abs(table[done, 3] - table[done - 1, 3]) < stop_tol:
            break
    values = table.reshape(-1, len(rows))[:1 + done * pulses]
    mass = values[:, 0]
    # cumsum adds in order: bitwise the sums chained pulse by pulse
    leak = np.cumsum(np.r_[init.leak, np.maximum(mass[:-1] - mass[1:], 0.0)])
    durations = [pulse.duration for pulse in protocol.pulses]
    series = TimeSeries(**labels, cycle=np.r_[0, np.repeat(np.arange(1, done + 1), pulses)],
                        pulse=np.r_[0, np.tile(np.arange(1, pulses + 1), done)],
                        t=np.cumsum(np.r_[0.0, durations * done]), p_target=values[:, 3],
                        mean_nx=values[:, 1], mean_ny=values[:, 2],
                        mean_n=values[:, 1] + values[:, 2], leak=leak,
                        extra=values[:, extra_rows])
    series.final_distribution = Distribution(basis.unlump(state.probs), float(leak[-1]),
                                             trap.shape, state.clipped)
    series.phases = {**phases,
                     "dynamics.propagate": time.perf_counter() - t0 - sum(phases.values())}
    marks.mark("dynamics.propagate")
    series.peak_rss_mb, series.cache = marks.peaks, cache
    series.diagnostics = {"basis": basis.kind, "states": basis.size,
                          "clipped_mass": state.clipped}
    return series


def _run_rows(init: Distribution, protocol: Protocol, trap: TrapConfig, rate_mode: str,
              grid_rows: np.ndarray):
    """The run's ``rates._run_basis`` and ``grid_rows`` carried over to it.

    On the swap basis p(a, b) = p(b, a) = q{a, b}/2 exactly, so each grid
    row carries over as ``basis.lump(row * share)``, share being the weight
    ``unlump`` gives each level; on the grid the rows are unchanged.
    """
    grid = init.grid()
    basis = rates._run_basis(protocol.pulses, trap, rate_mode, np.array_equal(grid, grid.T))
    share = basis.unlump(np.ones(basis.size))
    return basis, np.array([basis.lump(row) for row in grid_rows * share])


def _check_start(init: Distribution, trap: TrapConfig) -> None:
    """Refuse a start distribution over another trap's levels."""
    if tuple(init.shape) != trap.shape:
        raise DomainError(f"start distribution has shape {tuple(init.shape)}, "
                          f"the trap {trap.shape}")


def _jump_rounds(samplers, durations, level: np.ndarray, moments: np.ndarray,
                 cycles: int, rng: np.random.Generator):
    """Step trajectories from jump to jump, in rounds vectorised over them.

    ``level`` holds each trajectory's state of the run's basis (a flat
    level on the grid, a class {a, b} on the swap basis), ``n_states``
    once the leak has absorbed it, and is stepped in place.  The samplers'
    ``exit_rates`` give hazard[j, m] = sum over pulses i < j of
    tau_i exit_i[m], level m's exit rate integrated over a cycle up to
    pulse j; hazard[K, m] is its hazard per cycle.  A trajectory sits at a
    cycle with hazard ``used`` on its level since that cycle began.  One
    exponential E per jump: the jump lands floor((used + E) / hazard[K, m])
    cycles on, in the pulse whose hazard interval holds the remainder
    (pulses that leave m dark are plateaus, where none lands), or never if
    that is past the run.  Its destination comes from one uniform u: the
    right-sided search of u * exit rate in the source's cumulative rates
    (``jump_distribution``, once per jump), past the last entry being the
    leak, which ``ColumnSampler.destinations`` turns into the states of
    the round's jumps at once: on columns the search is the state, on a
    2D resonant run's draw tables a cell where the samplers finish the
    draw as an emission, with their own uniforms.  On the swap basis the
    destination may be the source itself, the in-class move
    (a, b) -> (b, a).  The trajectory restarts there at
    hazard[j, dest] + delta exit_j[dest], delta being the time into pulse j.

    Each round draws one exponential per live trajectory whose level has a
    positive cycle hazard, then one uniform per jumper, both in index
    order, and then the samplers' draws, so there are at most
    (most jumps) + 1 rounds.  A stint on level
    m from cycle boundary a up to b adds m's column of ``moments`` to row a
    of a difference array and subtracts it from row b.  Returns its
    cumulative sum, the (moments, cycles + 1) sums over the live
    trajectories at each boundary, exact in floats (the moments are
    multiples of 1/4), and each trajectory's jumps, the absorbing one
    included.
    """
    n_states = moments.shape[1]
    exits = np.zeros((len(samplers), n_states))
    hazard = np.zeros((len(samplers) + 1, n_states))
    for j, (sampler, duration) in enumerate(zip(samplers, durations)):
        exits[j] = sampler.exit_rates
        hazard[j + 1] = hazard[j] + duration * exits[j]
    per_cycle = hazard[-1]
    jumps = np.zeros(level.size, dtype=np.int64)
    at = np.zeros(level.size, dtype=np.int64)  # the cycle whose start ``used`` counts from
    used = np.zeros(level.size)
    since = np.zeros(level.size, dtype=np.int64)  # the boundary the level holds from
    diff = np.zeros((cycles + 1, len(moments)))

    def stint(idx, stop=None):  # to the end of the run if no stop
        values = moments[:, level[idx]].T
        np.add.at(diff, since[idx], values)
        if stop is not None:
            np.add.at(diff, stop, -values)

    idx = np.flatnonzero(level < n_states)
    while idx.size:
        lit = per_cycle[level[idx]] > 0.0
        stint(idx[~lit])
        idx = idx[lit]
        if not idx.size:
            break
        source = level[idx]
        skip, rem = np.divmod(used[idx] + rng.standard_exponential(idx.size),
                              per_cycle[source])
        cycle = at[idx] + skip
        stays = cycle >= cycles
        stint(idx[stays])
        idx, source, rem = idx[~stays], source[~stays], rem[~stays]
        if not idx.size:
            break
        cycle = cycle[~stays].astype(np.int64)
        j = (hazard[:, source] <= rem).sum(axis=0) - 1
        rate = exits[j, source]
        delta = (rem - hazard[j, source]) / rate
        jumps[idx] += 1
        u = rng.random(idx.size) * rate
        tables = [samplers[k].jump_distribution(m)[1] for k, m in zip(j.tolist(), source.tolist())]
        dest = ColumnSampler.destinations(samplers, j, source, u, tables, rng)
        stint(idx, cycle + 1)
        since[idx], at[idx], level[idx] = cycle + 1, cycle, dest
        live = dest < n_states
        idx, j, delta, dest = idx[live], j[live], delta[live], dest[live]
        used[idx] = hazard[j, dest] + delta * exits[j, dest]
    return np.cumsum(diff, axis=0).T, jumps


def mc_ensemble(n_traj: int, protocol: Protocol, trap: TrapConfig, seed: int,
                *, init: Distribution, rate_mode: str = "resonant",
                extra_targets: tuple = ()) -> McEnsembleResult:
    """Seeded trajectory ensemble with cycle-boundary occupation estimates.

    Trajectories step the states of the run's basis (``_run_rows``), as a
    master run does: the swap basis's chain is the grid's lumped exactly,
    and each pulse's ``rates.ColumnSampler`` serves its jumps: from
    columns in 1D and in full mode, and as emissions on the run's one
    recoil stack in a 2D resonant run (``rates._Draws``), which the
    samplers hold until this returns, with no kernel or column.  One
    ``np.random.default_rng(seed)`` stream draws the initial states from
    ``basis.lump(init.probs)``, its leak included (a trajectory drawn there
    starts leaked, with no jumps), and then drives ``_jump_rounds`` over
    all trajectories at once, one exponential draw per jump against each
    state's integrated exit rate across pulses and cycles, so a result
    depends only on (seed, n_traj, protocol, trap) and is bitwise
    reproducible.  At each cycle boundary the live trajectories' states
    are summed against the rows of ``_obs_rows`` on the basis, plus one
    n = n_x + n_y row, and against their squares; the sums are exact in
    floats.  The leak fraction is (n_traj - live) / n_traj.  A negative or
    non-integer seed, and a start over another trap's levels, are refused,
    and so are a record of the cycle budget over its memory budget
    (``rates._check_record_budget``, before any provider) and a column or
    draw table that would take the samplers' cached ones past
    ``rates.MATRIX_MEMORY_BUDGET`` (``ResourceLimitError``, before it is
    built): the caches keep every one, so none is evicted.
    """
    n_traj, seed = rates._integer(n_traj, "n_traj"), rates._integer(seed, "seed")
    if n_traj < 1:
        raise DomainError(f"n_traj must be >= 1, got {n_traj}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    _check_start(init, trap)
    target = protocol.target_in(trap.dims)
    grid_rows, extra_rows = _obs_rows(trap.shape, target, extra_targets)
    basis, rows = _run_rows(init, protocol, trap, rate_mode,
                            np.vstack([grid_rows, grid_rows[1] + grid_rows[2]]))
    moments = np.concatenate([rows, rows * rows])
    rates._check_record_budget(protocol.cycles, len(moments))
    marks = _PeakMarks(["rates.column_sampler", "dynamics.mc"])
    t0 = time.perf_counter()
    providers, cache = rates._providers(protocol, trap, rate_mode, basis)
    budget = rates._CacheBudget(f"n_max {trap.n_max}, {n_traj} trajectories")
    wrapped = {provider: ColumnSampler(provider, basis, budget)
               for provider in dict.fromkeys(providers)}
    samplers = [wrapped[provider] for provider in providers]
    t1 = time.perf_counter()
    marks.mark("rates.column_sampler")
    n_rec = protocol.cycles + 1
    rng = np.random.default_rng(seed)
    init_cum = np.cumsum(basis.lump(init.probs))
    init_cum /= init_cum[-1] + init.leak
    level = np.searchsorted(init_cum, rng.random(n_traj), side="right")  # n_states: leaked
    durations = [pulse.duration for pulse in protocol.pulses]
    sums, jumps = _jump_rounds(samplers, durations, level, moments, protocol.cycles, rng)
    marks.mark("dynamics.mc")

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
        jump_counts=jumps, columns_built=sum(len(s._cache) for s in wrapped.values()),
        proposals=sum(s.proposals for s in wrapped.values()),
        basis=basis.kind, states=basis.size,
        phases={"rates.column_sampler": t1 - t0, "dynamics.mc": time.perf_counter() - t1},
        peak_rss_mb=marks.peaks,
        cache=cache)

