"""Independent reference computations used by the test suite only.

Everything here deliberately avoids the package's own evaluation paths:
recoil matrix elements come from the explicit finite series in at least
50-digit arithmetic, Laguerre polynomials from their three-term recurrence
in 60-digit arithmetic, expectations from brute-force sums, and propagators from a
uniformization series.  The one exception is ``per_pulse_run``, the master
run stepped pulse by pulse on the package's own propagators, which is the
reference for the cycle-at-a-time stepping of ``run_protocol``.
``flat_level`` and ``level_distribution`` build test inputs: the flattened
grid index of a level, and a point start on one level.
"""

import math

import mpmath as mp
import numpy as np

from dyncool import dynamics, rates
from dyncool.errors import DomainError

mp.mp.dps = 50


def angular_quadrature(quad_theta: int, quad_phi: int):
    """Whole-sphere product rule: Gauss-Legendre in cos(theta), trapezoid in phi.

    Returns (theta, phi, w) flattened over the grid; weights carry the
    sin(theta) Jacobian through the cos(theta) substitution, so sum(w) = 4*pi.
    The package runs on its parity-folded part; this is the reference rule
    that folded results are checked against.
    """
    if quad_theta < 4 or quad_phi < 4:
        raise DomainError("quadrature orders must be >= 4")
    x, wx = np.polynomial.legendre.leggauss(quad_theta)
    theta = np.arccos(x)
    phi = 2.0 * math.pi * np.arange(quad_phi) / quad_phi
    w_grid = np.repeat(wx, quad_phi) * (2.0 * math.pi / quad_phi)
    return np.repeat(theta, quad_phi), np.tile(phi, quad_theta), w_grid


def folded_resonant_column_2d(rx, ry, w, fx, fy, s: int, a: complex, mx: int, my: int):
    """Resonant 2D column (mx, my) as the direct sum over folded nodes k of
    w_k x[k] (x) y[k], averaged over each node's four mirror images.

    ``rx``, ``ry`` are the real reduced recoil stacks (nodes, n, l) of the
    folded nodes on each axis, ``w`` their weights, ``fx``, ``fy`` the
    reduced absorption factors of mx and my (zero where m + s < 0).  At
    each image (+-u, +-v) the stacks take the parity (-1)^(n+l) per
    flipped axis, the amplitudes their phases i^|n-l|, and the column is
    |x-laser + A y-laser|^2 expanded into its three node sums.
    """
    n1 = rx.shape[1]
    ns = np.arange(n1)

    def axis(stack, level, sign):
        if level < 0:
            return np.zeros((stack.shape[0], n1), dtype=complex)
        parity = sign ** ((ns + level) % 2)
        return stack[:, :, level] * parity * 1j ** np.abs(ns - level)

    out = np.zeros((n1, n1))
    for sx in (1, -1):
        for sy in (1, -1):
            x_hit, x_spec = axis(rx, mx + s, sx), axis(rx, mx, sx)
            y_hit, y_spec = axis(ry, my + s, sy), axis(ry, my, sy)
            xl, yl = fx * x_hit, a * fy * x_spec  # x-axis parts of each laser
            xr, yr = y_spec, y_hit                # y-axis parts
            out += 0.25 * (np.einsum("k,ki,kj->ij", w, np.abs(xl) ** 2, np.abs(xr) ** 2)
                           + np.einsum("k,ki,kj->ij", w, np.abs(yl) ** 2, np.abs(yr) ** 2)
                           + 2.0 * np.einsum("k,ki,kj->ij", w, xl * np.conj(yl),
                                             xr * np.conj(yr)).real)
    return out


def recoil_phases(n_max: int, l_max: int) -> np.ndarray:
    """i^|n-l| over the (n, l) grid: the phases of the recoil amplitudes
    <n|exp(i*eta*(a+a^dag))|l> over their real reduced factors."""
    d = np.abs(np.arange(n_max + 1)[:, None] - np.arange(l_max + 1)[None, :])
    return np.array([1.0, 1.0j, -1.0, -1.0j])[d % 4]


def fc_modulus_series(eta: float, m: int, n: int) -> float:
    """|<n|exp(i*eta*(a+a^dag))|m>| from the exact finite sum."""
    return abs(fc_reduced_series(eta, m, n))


def fc_reduced_series(eta: float, m: int, n: int) -> float:
    """Signed reduced factor: <n|exp(i*eta*(a+a^dag))|m> / i^|n-m|.

    e^{-x/2} eta^(hi-lo) sqrt(lo!/hi!) sum_l (-1)^l C(hi, lo-l) x^l / l!,
    x = eta^2, lo = min(m, n), hi = max(m, n), from the exact finite sum.
    The working precision is 50 digits plus the digits the alternating sum
    cancels (its largest term times the prefactor, estimated in floats), so
    every entry above 1e-30 keeps at least 20 digits.
    """
    lo, hi = min(m, n), max(m, n)
    if eta == 0:
        return 1.0 if lo == hi else 0.0
    lg, log_x = math.lgamma, 2.0 * math.log(abs(eta))
    log_pref = -0.5 * eta * eta + 0.5 * (lg(lo + 1) - lg(hi + 1) + (hi - lo) * log_x)
    log_term = max(lg(hi + 1) - lg(lo - l + 1) - lg(hi - lo + l + 1) + l * log_x - lg(l + 1)
                   for l in range(lo + 1))
    with mp.workdps(50 + max(0, math.ceil((log_pref + log_term) / math.log(10)))):
        x = mp.mpf(eta) ** 2
        total = mp.fsum((-1) ** l * mp.binomial(hi, lo - l) * x ** l / mp.factorial(l)
                        for l in range(lo + 1))
        pref = mp.e ** (-x / 2) * mp.sqrt(mp.factorial(lo) / mp.factorial(hi)) \
            * mp.mpf(eta) ** (hi - lo)
        return float(pref * total)


def laguerre_recurrence(n: int, alpha: int, x, dps: int = 60):
    """L_n^alpha(x) by the three-term recurrence in n in ``dps``-digit
    arithmetic, returned as an mpf.

    ``x`` is taken as given: a float, or an mpf carrying its own digits.
    At a dark eta the alternating terms of the defining sum exceed its
    value by 1e32 at degree 40 and by 1e52 at degree 80, so the sum is no
    reference at the degrees the dark-state solver reaches.  The recurrence
    cancels little: at 60 digits it agrees with 150 digits to 1e-44
    relative at degree 256 (s = 0, 1500).
    """
    with mp.workdps(dps):
        xm = mp.mpf(x)
        prev, cur = mp.mpf(1), 1 + alpha - xm
        if n == 0:
            return prev
        for k in range(1, n):
            prev, cur = cur, ((2 * k + 1 + alpha - xm) * cur - (k + alpha) * prev) / (k + 1)
        return cur


def uniformization_expm(gen: np.ndarray, t: float, tol: float = 1e-14) -> np.ndarray:
    """exp(gen*t) by the uniformization (shifted Taylor) series.

    Valid for generator matrices (nonnegative off-diagonal): shift by the
    most negative diagonal so the series has nonnegative terms.
    """
    c = float(-gen.diagonal().min())
    q = gen + c * np.eye(gen.shape[0])
    out = np.eye(gen.shape[0])
    term = np.eye(gen.shape[0])
    k = 0
    while True:
        k += 1
        term = term @ q * (t / k)
        out += term
        if np.abs(term).max() < tol and k > c * t:
            break
        if k > 10000:
            raise RuntimeError("uniformization did not converge")
    return np.exp(-c * t) * out


def jump_trajectory(pulses, level: int, cycles: int, rng,
                    destination=None) -> list[tuple[float, int]]:
    """One jump trajectory by the plain loop over jumps, from dense generators.

    ``pulses`` holds (generator, leak, duration) per pulse of a cycle.  A
    level's exit rate in a pulse is its column's outflow plus its leak.
    Each jump draws one exponential from ``rng``, the integrated exit rate
    the level spends before it jumps, and walks on from the last jump pulse
    by pulse and cycle by cycle, spending exit rate times time, until the
    draw is spent; a pulse that leaves the level dark spends nothing.  It
    then draws a uniform u below the exit rate and lands where u falls in
    the level's column, past its last entry being the leak, or, given
    ``destination``, on ``destination(pulse, level, u, rng)``.  A level
    that every pulse leaves dark draws nothing.  Returns (time, level) at
    the start and after each jump, with level -1 for absorption into the
    leak, which ends the trajectory.
    """
    durations = [duration for *_, duration in pulses]
    log = [(0.0, level)]
    cycle, k, into = 0, 0, 0.0  # the cycle, the pulse and the time into it
    while cycle < cycles:
        columns = []
        for gen, leak, _ in pulses:
            col = gen[:, level].copy()
            col[level] = 0.0
            cum = np.cumsum(col)
            columns.append((cum, cum[-1] + leak[level]))
        if not any(total * duration > 0.0
                   for (_, total), duration in zip(columns, durations)):
            return log
        spend = rng.standard_exponential()
        while spend >= columns[k][1] * (durations[k] - into):
            spend -= columns[k][1] * (durations[k] - into)
            k, into = k + 1, 0.0
            if k == len(pulses):
                cycle, k = cycle + 1, 0
                if cycle == cycles:
                    return log
        cum, total = columns[k]
        into += spend / total
        t = cycle * sum(durations) + sum(durations[:k]) + into
        if destination is None:
            level = int(np.searchsorted(cum, rng.random() * total, side="right"))
        else:
            level = destination(k, level, rng.random() * total, rng)
        if level == cum.size:
            log.append((t, -1))
            return log
        log.append((t, level))
    return log


def emission_destination(trap, pulses, dense):
    """The 2D resonant jump drawn as an emission, one jump at a time, as
    ``jump_trajectory``'s ``destination``, on the grid levels of ``trap``.

    ``pulses`` are the cycle's pulses and ``dense`` their (generator, leak,
    duration).  The recoil factors are the trap's signed stack
    (``AngularTables.stack``) on the folded sphere rule, the y row the x
    row at the node's mirror.  A draw u below the exit rate E is the leak
    where u >= E - leak; else it picks a (laser, theta row) cell by the
    cells' in-basis masses, its own level left out, rescaled to E - leak.
    Then, with four uniforms per proposal: the node within the row, n_x
    and n_y from the product of the two rows without the source level,
    and, for an even s != 0 with Re(A) != 0, acceptance with probability
    |a + A b|^2 / (2 (a^2 + |A|^2 b^2)).  A rejected proposal draws a new
    cell from the in-basis cells and proposes again, 32 at a time (a lone
    jumper's batch), each with its own cell uniform, all cell uniforms
    before the proposals', and keeps the first accepted.
    """
    tables = rates.AngularTables(trap)
    n1 = trap.n_max + 1
    l_max = trap.n_max + max(max(pulse.s_int for pulse in pulses), 0)
    w, _, mirror, row = tables.rule(l_max)
    stack = tables.stack(l_max)
    rows = len(w) // row

    def masses(k, lx, ly):
        return float(np.sum(stack[k, :, lx] ** 2)), float(np.sum(stack[mirror[k], :, ly] ** 2))

    def cell_levels(pulse, mx, my, cell):
        laser, r = divmod(cell, rows)
        s = pulse.s_int
        return r, (mx + s, my) if laser == 0 else (mx, my + s)

    def propose(pulse, f, mx, my, cell, u):
        r, (lx, ly) = cell_levels(pulse, mx, my, cell)
        nodes = range(r * row, (r + 1) * row)
        weights = []
        for k in nodes:
            x_in, y_in = masses(k, lx, ly)
            own = stack[k, mx, lx] * stack[mirror[k], my, ly]
            weights.append(max(w[k] * (x_in * y_in - own * own), 0.0))
        cum = np.cumsum(weights)
        k = nodes[min(int(np.searchsorted(cum, u[0] * cum[-1], side="right")), row - 1)]
        x_row, y_row = stack[k, :, lx] ** 2, stack[mirror[k], :, ly] ** 2
        y_in = masses(k, lx, ly)[1]
        x_weights = x_row * y_in
        x_weights[mx] = x_row[mx] * max(y_in - y_row[my], 0.0)
        cum = np.cumsum(x_weights)
        nx = min(int(np.searchsorted(cum, u[1] * cum[-1], side="right")), n1 - 1)
        if nx == mx:
            y_row[my] = 0.0
        cum = np.cumsum(y_row)
        ny = min(int(np.searchsorted(cum, u[2] * cum[-1], side="right")), n1 - 1)
        s, a = pulse.s_int, complex(pulse.amplitude_ratio)
        if s == 0 or s % 2 or a.real == 0.0:
            return nx, ny, True
        amp_x = f[mx] * stack[k, nx, max(mx + s, 0)] * stack[mirror[k], ny, my]
        amp_y = f[my] * stack[k, nx, mx] * stack[mirror[k], ny, max(my + s, 0)]
        direct = amp_x ** 2 + abs(a) ** 2 * amp_y ** 2
        return nx, ny, 2.0 * direct * u[3] < direct + 2.0 * a.real * amp_x * amp_y

    def destination(j, level, u, rng):
        pulse, (gen, leak, _) = pulses[j], dense[j]
        exit_rate = -gen[level, level]
        if u >= exit_rate - leak[level]:
            return n1 * n1
        mx, my = divmod(level, n1)
        s, a = pulse.s_int, complex(pulse.amplitude_ratio)
        f = rates._reduced_absorption(tables, s, range(n1))
        lasers = ((abs(f[mx] + a * f[my]) ** 2, 0.0) if s == 0
                  else (f[mx] ** 2, abs(a) ** 2 * f[my] ** 2))
        cells = []
        for cell in range(2 * rows):
            r, (lx, ly) = cell_levels(pulse, mx, my, cell)
            total = own = 0.0
            for k in range(r * row, (r + 1) * row):
                if lasers[cell // rows] == 0.0:
                    break
                x_in, y_in = masses(k, lx, ly)
                total += w[k] * x_in * y_in
                own += w[k] * (stack[k, mx, lx] * stack[mirror[k], my, ly]) ** 2
            cells.append(lasers[cell // rows] * max(total - own, 0.0))
        cum = np.cumsum(cells)
        cell = int(np.searchsorted(cum * ((exit_rate - leak[level]) / cum[-1]), u, side="right"))
        batch = 1
        while True:
            if batch > 1:
                picks = [int(np.searchsorted(cum, v * cum[-1], side="right"))
                         for v in rng.random(batch)]
            else:
                picks = [cell]
            for cell, u4 in zip(picks, rng.random((batch, 4))):
                nx, ny, accepted = propose(pulse, f, mx, my, cell, u4)
                if accepted:
                    return nx * n1 + ny
            batch = 32

    return destination


def flat_level(level, trap):
    """The flattened grid index of one trap level, an int m in 1D and a pair
    (m_x, m_y) in 2D; a level outside the grid is refused."""
    return int(np.ravel_multi_index(np.atleast_1d(level), trap.shape))


def level_distribution(level, trap):
    """Point distribution on one trap level."""
    probs = np.zeros(trap.n_states)
    probs[flat_level(level, trap)] = 1.0
    return dynamics.Distribution(probs, 0.0, trap.shape)


def per_pulse_run(init, protocol, trap, *, rate_mode="resonant", stop_tol=1e-6,
                  extra_targets=()):
    """A master run stepped one pulse at a time, as ``run_protocol`` once did.

    Each pulse is one ``propagate_pulse`` with the pulse's own propagator,
    on the same state basis as ``run_protocol``.  After every pulse the grid
    state is recovered and ``observables`` read from it, and each extra
    target's occupation taken as its grid entry.  Early stop compares the
    target occupation at consecutive cycle ends.  Returns a master
    ``TimeSeries`` with its final distribution and ``clipped_mass``.
    """
    target = protocol.target_in(trap.dims)
    grid = init.grid()
    basis = rates._run_basis(protocol.pulses, trap, rate_mode, np.array_equal(grid, grid.T))
    tables = rates.AngularTables(trap)  # shared by the pulses, as a run's are
    mats = [rates.rate_matrix(trap, pulse, rate_mode, basis.kind,
                              provider=rates._provider(tables, pulse, rate_mode))
            for pulse in protocol.pulses]
    state = dynamics.Distribution(basis.lump(init.probs), init.leak, (basis.size,),
                                  init.clipped)
    dist = init.copy()
    t = 0.0
    records, extras = [], []  # a row of the series' columns, and its extra row, per sample

    def record(cycle, pulse):
        obs = dynamics.observables(dist, target)
        records.append((cycle, pulse, t, obs.p_target, obs.mean_nx, obs.mean_ny,
                        obs.mean_n, obs.leak))
        extras.append([float(dist.probs[flat_level(tg, trap)]) for tg in extra_targets])

    record(0, 0)
    prev_p = records[0][3]
    for cycle in range(1, protocol.cycles + 1):
        for j, (pulse, mat) in enumerate(zip(protocol.pulses, mats), start=1):
            state = dynamics.propagate_pulse(state, mat, pulse.duration)
            dist = dynamics.Distribution(basis.unlump(state.probs), state.leak,
                                         trap.shape, state.clipped)
            t += pulse.duration
            record(cycle, j)
        p_now = records[-1][3]
        if stop_tol and abs(p_now - prev_p) < stop_tol:
            break
        prev_p = p_now
    columns = dict(zip(dynamics._COLUMNS, map(np.array, zip(*records))))
    series = dynamics.TimeSeries(target=target, extra_targets=tuple(extra_targets), **columns,
                                 extra=np.array(extras).reshape(len(records), -1))
    series.final_distribution = dist
    series.diagnostics = {"basis": basis.kind, "clipped_mass": state.clipped}
    return series
