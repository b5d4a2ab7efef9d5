"""Transition-rate matrices for pulsed cooling in 1D and 2D harmonic traps.

Rates are expressed in units Gamma0 = Omega^2/(2*gamma); pulse durations in
tau0 = 2*gamma/Omega^2, so Gamma0*tau0 = 1 and propagation is dimensionless.

Two rate modes are provided, each one column provider for both geometries:

* ``resonant`` (``_Resonant``) keeps only the intermediate level hit exactly
  by an integer detuning delta = s*omega (dominant Lorentzian term for
  gamma << omega).  Column totals then close exactly onto the analytic
  empty rates.
* ``full`` (``_Full``) sums every intermediate level with its Lorentzian
  weight and accepts non-integer detunings.

Emission recoil is integrated over the photon direction with one rule per
geometry, folded by parity: the u > 0 half of a Gauss-Legendre rule in the
projection u on the trap axis in 1D, the u, v >= 0, z > 0 part of a
Gauss-Legendre (cos theta) x trapezoid (phi) sphere rule of orders
``quad_theta`` x ``quad_phi`` in 2D.  A folded node stands for its mirror
images, reached through the parity R(-x)[n, l] = (-1)^(n+l) R(x)[n, l] of
the recoil factors.  Resonant columns are slices and scales of one recoil
integral per trap and depth (S1 in 1D; in 2D T and the cross terms C_s, as
low-rank node factors); full-mode ones come from the folded recoil stacks.

One builder assembles every dense generator from a provider's columns, on
the states of a ``StateBasis``; ``ColumnSampler`` serves Monte Carlo jumps
from the same providers.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import fc
from .errors import DomainError, ResourceLimitError, SimulationError, ValidityError

DIPOLE_PATTERNS = ("isotropic", "dipole_z")

# Sphere rule of 2D rates.  On the 1D kernel at eta = 3 it was measured to
# err by 1.0e-10 at level 68, 1.6e-6 at level 90 and 1.35e-3 at level 120.
DEFAULT_QUAD_THETA = 64
DEFAULT_QUAD_PHI = 128

# dense (states x states) matrices beyond this many bytes are refused
MATRIX_MEMORY_BUDGET = 4 << 30

# 2D recoil factors drop sketch directions below _RANK_TOL of the largest, and
# check ||X - Q Q^T X||_F <= 10 _RANK_TOL ||X||_F (margin for the check's rounding)
_RANK_TOL = 1e-14

# 2D recoil factors form their node arrays from the stacks this many bytes of
# stack at a time; the fig5 stacks (14-17 MB) are one chunk
_FACTOR_CHUNK_BYTES = 32 << 20


@dataclass(frozen=True)
class TrapConfig:
    """Physical and numerical parameters of one trap/laser setup.

    ``quad_theta`` x ``quad_phi`` is the sphere rule of 2D rates only; it is
    folded by parity, so ``quad_theta`` must be even and ``quad_phi`` a
    multiple of 4.
    """

    eta: float
    gamma_over_omega: float
    dims: int = 1
    n_max: int = 120
    dipole: str = "isotropic"
    quad_theta: int = DEFAULT_QUAD_THETA
    quad_phi: int = DEFAULT_QUAD_PHI

    def __post_init__(self) -> None:
        if not math.isfinite(self.eta) or self.eta < 0:
            raise DomainError(f"eta must be finite and >= 0, got {self.eta}")
        if self.gamma_over_omega <= 0 or not math.isfinite(self.gamma_over_omega):
            raise DomainError(f"gamma/omega must be positive, got {self.gamma_over_omega}")
        if self.gamma_over_omega >= 1.0:
            raise ValidityError(
                f"gamma/omega = {self.gamma_over_omega} >= 1: trap sidebands are "
                "not resolved, red detuning no longer makes level 0 dark")
        if self.dims not in (1, 2):
            raise DomainError(f"dims must be 1 or 2, got {self.dims}")
        if self.n_max < 1:
            raise DomainError(f"n_max must be >= 1, got {self.n_max}")
        if self.dipole not in DIPOLE_PATTERNS:
            raise DomainError(f"unknown dipole pattern {self.dipole!r}; "
                              f"choose from {DIPOLE_PATTERNS}")
        if self.quad_theta < 4 or self.quad_phi < 4:
            raise DomainError("quadrature orders must be >= 4")
        if self.quad_theta % 2 or self.quad_phi % 4:
            raise DomainError(
                f"quad_theta must be even and quad_phi a multiple of 4, got "
                f"{self.quad_theta} x {self.quad_phi}")

    @property
    def eta_hat2(self) -> int:
        """Closest integer to eta^2."""
        return int(round(self.eta * self.eta))

    @property
    def n_states(self) -> int:
        return (self.n_max + 1) ** self.dims

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_max + 1,) * self.dims

    def recommended_n_max(self, thermal_mean: float) -> int:
        """Truncation below which thermal tails and recoil heating leak."""
        return math.ceil(2 * self.eta ** 2 + thermal_mean + 6.0 * math.sqrt(thermal_mean))

    def flat_index(self, level: int | tuple[int, int]) -> int:
        if self.dims == 1:
            m = int(level) if not isinstance(level, tuple) else int(level[0])
            if not 0 <= m <= self.n_max:
                raise DomainError(f"level {m} outside truncation 0..{self.n_max}")
            return m
        mx, my = level  # type: ignore[misc]
        if not (0 <= mx <= self.n_max and 0 <= my <= self.n_max):
            raise DomainError(f"level {level} outside truncation 0..{self.n_max}")
        return mx * (self.n_max + 1) + my


@dataclass(frozen=True)
class Pulse:
    """One laser pulse: detuning index s, duration in tau0, amplitude ratio A.

    The ratio between the y- and x-propagating laser amplitudes only enters
    two-dimensional rates; resonant mode requires s to be an integer.
    """

    s: float
    duration: float
    amplitude_ratio: complex = complex(-1.0)

    def __post_init__(self) -> None:
        if not math.isfinite(self.s):
            raise DomainError(f"detuning index must be finite, got {self.s}")
        if not (self.duration > 0) or not math.isfinite(self.duration):
            raise DomainError(f"pulse duration must be positive, got {self.duration}")

    @property
    def s_int(self) -> int:
        if self.s != int(self.s):
            raise ValidityError(
                f"detuning index s={self.s} is not an integer; the resonant "
                "empty-rate form assumes delta = s*omega with integer s "
                "(use mode='full' for arbitrary detunings)")
        return int(self.s)


def dipole_pattern(tag: str, theta: float | np.ndarray, phi: float | np.ndarray):
    """Angular emission density W(theta, phi), normalized to 1 over the sphere."""
    th, _ = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                np.asarray(phi, dtype=float))
    if tag == "isotropic":
        out = np.full_like(th, 1.0 / (4.0 * math.pi))
    elif tag == "dipole_z":
        out = (3.0 / (8.0 * math.pi)) * np.sin(th) ** 2
    else:
        raise DomainError(f"unknown dipole pattern {tag!r}")
    return out if out.ndim else float(out)


def _folded_quadrature(quad_theta: int, quad_phi: int):
    """Quarter-phi, half-theta sphere grid: each node's weight counts its
    mirror images (+-u, +-v, +-z) in the full rule.

    Exact for integrands that depend on the direction through the x and y
    projections u, v alone and are averaged over their sign images, because
    sin(theta) is even in cos(theta) and the four phi-quadrant images
    realize all sign combinations of (u, v); requires an even
    Gauss-Legendre order and a phi order divisible by 4 (``TrapConfig``
    checks both).
    """
    x, wx = np.polynomial.legendre.leggauss(quad_theta)
    pos = x > 0
    theta = np.arccos(x[pos])
    wth = 2.0 * wx[pos]
    q = quad_phi // 4
    phi = 2.0 * math.pi * np.arange(q + 1) / quad_phi
    wphi = np.full(q + 1, 4.0) * (2.0 * math.pi / quad_phi)
    wphi[0] = wphi[-1] = 2.0 * (2.0 * math.pi / quad_phi)
    th_grid = np.repeat(theta, q + 1)
    ph_grid = np.tile(phi, theta.shape[0])
    w_grid = np.repeat(wth, q + 1) * np.tile(wphi, theta.shape[0])
    return th_grid, ph_grid, w_grid


def _line_order(eta: float, l_max: int) -> int:
    """Even Gauss-Legendre order in u for 1D kernels reaching level ``l_max``,
    above the smallest order (in steps of 16) within 1e-13 of order 1024:
    64/96/128/160 at l_max 40/120/240/480 for eta = 3, 80/128/176/240 for
    eta = 4.5."""
    order = math.ceil(1.25 * eta * math.sqrt(4 * l_max + 2)) + 32
    return order + order % 2


def _line_depth(eta: float, n_max: int, l_max: int) -> int:
    """Deepest level served by the line order of ``l_max``, capped at
    n_max + 32 (as eta -> 0 the order stays at 32 at every depth)."""
    order, depth = _line_order(eta, l_max), l_max
    while depth < n_max + 32 and _line_order(eta, depth + 1) == order:
        depth += 1
    return depth


def _line_rule(dipole: str, order: int):
    """Nodes u in [-1, 1], the photon direction projected on the trap axis,
    and weights times its density W1(u): 1/2 for isotropic emission
    (Archimedes' hat-box theorem), (3/8)(1 + u^2) for a dipole along z."""
    u, w = np.polynomial.legendre.leggauss(order)
    return u, w * (0.5 if dipole == "isotropic" else 0.375 * (1.0 + u * u))


class AngularTables:
    """Per-trap emission kernels, and the 2D folded sphere rule and its stacks.

    The 1D kernel S1[n, l] = int W1(u) R(eta*u)[n, l]^2 du is even in u, so it
    runs on the positive half of the line rule with doubled weights;
    ``fc.reduced_stack`` sums it as it steps, so no stack is held.  The 2D
    integrands of both modes depend on the direction through
    u = sin(th)cos(ph) and v = sin(th)sin(ph) alone, so they run on the
    8-fold folded sphere grid (u, v >= 0, z > 0); where an integrand is not
    even in u or v (full-mode interference between intermediate levels), its
    consumer adds the mirror images through the parity of R.
    ``stack(axis, l_max)`` holds the real reduced factors R[k, n, l] on that
    grid (phases applied by consumers) and grows lazily in l:
    (quad_theta/2)(quad_phi/4 + 1) nodes x (n_max+1) x (l_max+1) doubles,
    84 MB per axis for full mode at the fig5 depth.  The
    2D kernel T[nx, l, ny, l'] = sum_k w_k Rx_k[nx, l]^2 Ry_k[ny, l']^2 is held
    in the low-rank form of ``factors``: R[n, l]^2 is e^{-x^2} times a
    polynomial in x^2, so the squared stack has rank 37, 50, 64 and 75 over
    the 1056 fig5 nodes at n_max 40, 80, 120 and 160.  ``factors`` forms its
    squared or cross-term node arrays from the stacks in node chunks, so no
    array of a stack's size is held beside the stacks.  Kernels are keyed by
    a build depth that depends on the trap and the requested level alone:
    build order cannot move them.
    """

    _FULL_STACK_BUDGET = 512 << 20  # cap on one stack (a 2D axis, 1D full mode) or 1D kernel

    def __init__(self, trap: TrapConfig):
        self.trap = trap
        self._stacks: dict[str, np.ndarray] = {}
        self._kernels: dict[int, np.ndarray | tuple] = {}
        if trap.dims == 2:
            fth, fph, fw = _folded_quadrature(trap.quad_theta, trap.quad_phi)
            self.fold_weights = fw * dipole_pattern(trap.dipole, fth, fph)
            self.fold_proj = {"x": np.sin(fth) * np.cos(fph),
                              "y": np.sin(fth) * np.sin(fph)}

    def stack(self, axis: str, l_max: int) -> np.ndarray:
        cached = self._stacks.get(axis)
        if cached is None or cached.shape[2] <= l_max:
            proj = self.fold_proj[axis]
            _check_stack_budget(proj.shape[0] * (self.trap.n_max + 1) * (l_max + 1),
                                "projected displacement stack", " or the quadrature orders")
            cached = fc.reduced_stack(self.trap.eta * proj, self.trap.n_max, l_max)
            self._stacks[axis] = cached
        return cached

    def factors(self, l_max: int, form, q: np.ndarray | None = None):
        """Low-rank form (q, a, b) of the folded node sum sum_k w_k x[k] (x) y[k]
        of the node arrays x, y = form(Rx), form(Ry) (nodes, n, p) of the
        stacks to ``l_max``: its (n x n) slice at (i, j) is a[i].T @ b[j], with
        a, b = q^T sqrt(w) x, q^T sqrt(w) y as (p, r, n).  q spans sqrt(w) y
        (checked); unless given, it comes from a Gaussian sketch with a fixed
        seed (Halko, Martinsson & Tropp 2011) of width n + p + 9: R[n, l]^2 is
        e^{-x^2} times a polynomial of degree n + l in x^2, so squared stacks
        span at most n + p - 1 node vectors.

        ``form`` maps a node chunk of a stack to its node arrays.  Each pass
        (sketch, projection, residual) forms them chunk by chunk, at most
        ``_FACTOR_CHUNK_BYTES`` of stack at a time; an axis's last chunk is
        kept, so a stack in one chunk is formed once."""
        stacks = {axis: self.stack(axis, l_max) for axis in "xy"}
        k = self.fold_weights.shape[0]
        step = max(1, _FACTOR_CHUNK_BYTES // stacks["x"][0].nbytes)
        chunks = [slice(start, start + step) for start in range(0, k, step)]
        w_root = np.sqrt(self.fold_weights)[:, None]
        n, p = form(stacks["y"][:1]).shape[1:]
        last = {}

        def nodes(axis, sl):
            # rows sqrt(w_k) form(R)[k] of one chunk; each axis keeps its last
            if last.get(axis, (None,))[0] != sl.start:
                v = form(stacks[axis][sl]).reshape(-1, n * p)
                last[axis] = (sl.start, np.multiply(v, w_root[sl], out=v))
            return last[axis][1]

        if q is None:
            omega = np.random.default_rng(0).standard_normal((n * p, min(k, n + p + 9)))
            u, sv, _ = np.linalg.svd(np.concatenate([nodes("y", sl) @ omega for sl in chunks]),
                                     full_matrices=False)
            q = u[:, :np.count_nonzero(sv > _RANK_TOL * sv[0])]
        a, b = (functools.reduce(operator.iadd, (q[sl].T @ nodes(axis, sl) for sl in chunks))
                for axis in "xy")
        resid2 = norm2 = 0.0
        for sl in chunks:
            y = nodes("y", sl)
            resid = q[sl] @ b
            resid -= y
            resid2 += np.vdot(resid, resid)
            norm2 += np.vdot(y, y)
        if math.sqrt(resid2) > 10 * _RANK_TOL * math.sqrt(norm2):
            raise SimulationError(f"rank-{q.shape[1]} node basis misses part of a "
                                  "2D recoil integrand")
        return q, *(np.ascontiguousarray(f.reshape(-1, n, p).transpose(2, 0, 1))
                    for f in (a, b))

    def emission_kernel(self, l_max: int) -> np.ndarray | tuple:
        """Direction-averaged emission redistribution weights up to level
        ``l_max``: S1[n, l] in 1D; in 2D the factors (q, a, b) of
        T[nx, l, ny, l'] = (a[l].T @ b[l'])[nx, ny].

        A 1D kernel is built to the deepest level its line order serves
        (``_line_depth``) and sliced, so depths that share an order share one
        build; a 2D kernel is built to ``l_max`` itself."""
        n1 = self.trap.n_max + 1
        depth = l_max if self.trap.dims == 2 else _line_depth(self.trap.eta, n1 - 1, l_max)
        kernel = self._kernels.get(depth)
        _CACHE_COUNTS["emission_kernel"]["hits" if kernel is not None else "builds"] += 1
        if kernel is None:
            l1 = depth + 1
            if self.trap.dims == 2:
                # a deeper stack holds the same values; the slice fixes the shapes
                kernel = self.factors(depth, lambda r: np.square(r[:, :, :l1]))
            else:
                _check_stack_budget(n1 * l1, "the 1D emission kernel")
                u, w = _line_rule(self.trap.dipole, _line_order(self.trap.eta, depth))
                kernel = fc.reduced_stack(self.trap.eta * u[u > 0], n1 - 1, depth,
                                          weights=2.0 * w[u > 0])
            self._kernels[depth] = kernel
        return kernel if self.trap.dims == 2 else kernel[:, :l_max + 1]


def _check_stack_budget(entries: int, what: str, remedy: str = "") -> None:
    """Refuse an array of ``entries`` doubles above ``_FULL_STACK_BUDGET``,
    before anything is allocated."""
    need = 8 * entries
    if need > AngularTables._FULL_STACK_BUDGET:
        raise ResourceLimitError(f"{what} would need {need / 2**20:.0f} MiB; "
                                 f"lower n_max{remedy}")


_TABLES: dict[tuple, AngularTables] = {}

# builds and hits of the emission-kernel and rate-matrix caches since import
_CACHE_COUNTS = {name: {"builds": 0, "hits": 0} for name in ("emission_kernel", "rate_matrix")}


def cache_counts(since: dict | None = None) -> dict:
    """Builds and hits of the emission-kernel and rate-matrix caches since
    import, or since ``since``, an earlier result of this function."""
    return {name: {k: v - (since[name][k] if since else 0) for k, v in counts.items()}
            for name, counts in _CACHE_COUNTS.items()}


def angular_tables(trap: TrapConfig) -> AngularTables:
    key = (trap.dims, trap.eta, trap.dipole, trap.quad_theta, trap.quad_phi, trap.n_max)
    tab = _TABLES.get(key)
    if tab is None:
        tab = AngularTables(trap)
        _TABLES[key] = tab
    return tab


def release_tables() -> None:
    """Drop the build-time stacks and kernels, once generators or samplers exist."""
    _TABLES.clear()


def clear_caches() -> None:
    """Drop cached quadrature stacks and rate matrices (for tests/benchmarks)."""
    release_tables()
    _MATRICES.clear()


def _reduced_absorption(eta: float, s: int, levels) -> np.ndarray:
    """F[i] = reduced <m+s|e^{ikx}|m> at each level m = levels[i], zero where
    m+s < 0: band s of one reduced-factor table."""
    m = np.asarray(levels, dtype=int)
    top = int(m.max(initial=0))
    table = fc.reduced_stack(np.array([eta]), top, top + max(s, 0))[0]
    live = m + s >= 0
    out = np.zeros(m.shape)
    out[live] = table[m[live], m[live] + s]
    return out


def _empty_rate(x2, dx=0.0, y2=0.0, dy=0.0, a=0.0):
    """The rate at which a level is emptied, broadcast over arrays.

    Gamma = |c_x|^2 + |A|^2 |c_y|^2 + 2 Re(A* c_x[m_x] c_y[m_y]*), with c an
    axis's absorption amplitudes over the intermediate levels (``x2``,
    ``y2`` their squared norms, ``dx``, ``dy`` their entries at the level
    itself) and A the y/x laser amplitude ratio; 1D is the case c_y = 0.
    The cross term is the two-laser interference.  Resonant absorption has
    one amplitude, the real reduced factor F at level m + s, so |c|^2 = F^2
    and c[m] = F [s = 0].  A level is dark exactly where Gamma vanishes.
    """
    rate = x2 + abs(a) ** 2 * y2
    rate = rate + (2.0 * np.conj(a) * dx * np.conj(dy)).real
    return np.maximum(rate, 0.0)


def empty_rates(trap: TrapConfig, pulse: Pulse) -> np.ndarray:
    """Total rate (units Gamma0) at which each level is emptied, over trap.shape.

    In 1D Gamma_m = |<m+s|e^{ikx}|m>|^2 for m+s >= 0, else 0; in 2D it is the
    two-laser form of ``_empty_rate``.  A level is dark exactly where its
    rate vanishes.
    """
    levels = np.indices(trap.shape).reshape(trap.dims, -1).T
    return level_empty_rates(trap, pulse, levels).reshape(trap.shape)


def level_empty_rates(trap: TrapConfig, pulse: Pulse, levels) -> np.ndarray:
    """Resonant empty rates of the listed levels: ints in 1D, (m_x, m_y)
    pairs in 2D."""
    s = pulse.s_int
    grid = np.asarray(levels, dtype=int).reshape(-1, trap.dims)
    f = _reduced_absorption(trap.eta, s, grid.reshape(-1)).reshape(grid.shape)
    norm2, diag = f * f, f * (s == 0)
    if trap.dims == 1:
        return _empty_rate(norm2[:, 0])
    return _empty_rate(norm2[:, 0], diag[:, 0], norm2[:, 1], diag[:, 1],
                       complex(pulse.amplitude_ratio))


class RateMatrix:
    """Generator of the rate equation for one pulse, on the truncated basis.

    ``generator`` holds Gamma_{n<-m} off the diagonal and
    -(column outflow + truncation leak) on it, so column sums equal -leak.
    ``empty_rates`` are the untruncated closure totals; ``self_rates`` the
    m<-m redistribution terms, which cancel in the dynamics and are kept
    out of the generator.
    """

    def __init__(self, generator: np.ndarray, leak: np.ndarray,
                 empty_rates: np.ndarray, self_rates: np.ndarray,
                 mode: str, trap: TrapConfig, pulse: Pulse):
        self.generator = generator
        self.leak = leak
        self.empty_rates = empty_rates
        self.self_rates = self_rates
        self.mode = mode
        self.trap = trap
        self.pulse = pulse
        self._propagators: dict[float, np.ndarray] = {}
        self._cache: dict[int, tuple[float, np.ndarray]] = {}

    @property
    def n_states(self) -> int:
        return self.generator.shape[0]

    def propagator(self, duration: float) -> np.ndarray:
        """exp(G * duration) by ``markov_expm``, cached per duration."""
        if duration not in self._propagators:
            self._propagators[duration] = markov_expm(self.generator, duration)
        return self._propagators[duration]

    def jump_distribution(self, index: int):
        """MC jump table of one flattened level, cached per column (see _jump_table)."""
        cached = self._cache.get(index)
        if cached is None:
            col = self.generator[:, index].copy()
            col[index] = 0.0
            cached = _jump_table(np.cumsum(col, out=col), self.leak[index])
            self._cache[index] = cached
        return cached


# Most expected jumps in one uniformization sub-step: near 1, doubling it
# saves a squaring and adds about one series product, so the GEMM count is flat.
_UNIFORM_STEP = 1.0


def markov_expm(generator: np.ndarray, duration: float) -> np.ndarray:
    """exp(G t), t >= 0, of a Markov generator by uniformization (Jensen 1953).

    With lam = t * (largest exit rate, leak included) and the substochastic
    B = I + G t / lam, exp(G t) = sum_k Pois(k; lam) B^k has only nonnegative
    terms.  Above lam = _UNIFORM_STEP it takes 2^s sub-steps and squares s
    times; the series stops where the Poisson tail is below 2^-54 and is
    evaluated by Paterson-Stockmeyer (1973).  Entries of G t below
    2^-106 lam are zeroed first: that moves the result by at most
    n 2^-106 lam in the 1-norm, and keeps subnormals out of the GEMMs.
    """
    a = generator * duration
    lam = float(-a.diagonal().min(initial=0.0))
    if lam == 0.0:
        return np.eye(len(a))
    a[np.abs(a) < 2.0 ** -106 * lam] = 0.0
    squarings = max(0, math.ceil(math.log2(lam / _UNIFORM_STEP)))
    mu = lam / 2.0 ** squarings
    b = a / lam
    b.flat[::len(b) + 1] += 1.0
    w = math.exp(-mu) * np.cumprod(np.r_[1.0, mu / np.arange(1.0, 32.0)])
    # the first order whose tail P(X > order) is below 2^-54; B^2 ... B^q
    # and one Horner product in B^q per further q terms cost ~ 2 sqrt(order)
    order = max(1, int(np.argmax(np.cumsum(w[::-1])[::-1][1:] < 2.0 ** -54)))
    q = math.isqrt(order)
    powers = [np.eye(len(b)), b]
    for _ in range(q - 1):
        powers.append(powers[-1] @ b)
    top = (-(-order // q) - 1) * q
    out = sum(w[k] * powers[k - top] for k in range(top, order + 1))
    for lo in range(top - q, -1, -q):
        out = out @ powers[q] + sum(w[lo + j] * powers[j] for j in range(q))
    return np.linalg.matrix_power(out, 2 ** squarings)  # s squarings


def _jump_table(cum: np.ndarray, leak: float):
    """(total exit rate, cumulative rates in index order) of one column, its
    own entry zeroed.  A right-sided search of a draw never lands on a zero
    rate; the truncation leak takes the rest of the total beyond ``cum[-1]``."""
    return float(cum[-1] + leak), cum


def _assemble(columns: np.ndarray, closure: np.ndarray, mode: str,
              trap: TrapConfig, pulse: Pulse) -> RateMatrix:
    """Package raw quadrature columns (including the m<-m entry) into a generator."""
    n = columns.shape[0]
    columns = np.maximum(columns, 0.0)
    self_rates = columns.diagonal().copy()
    generator = columns.copy()
    np.fill_diagonal(generator, 0.0)
    colsum = generator.sum(axis=0)
    leak = np.maximum(closure - colsum - self_rates, 0.0)
    generator[np.arange(n), np.arange(n)] = -(colsum + leak)
    return RateMatrix(generator, leak, closure.copy(), self_rates, mode, trap, pulse)


def _check_matrix_budget(side: int) -> None:
    need = side * side * 8
    if need > MATRIX_MEMORY_BUDGET:
        raise ResourceLimitError(
            f"dense rate matrix would need {need / 2**30:.1f} GiB ({side} x {side}); "
            "lower n_max")


def _level_headroom(eta: float, top_level: int, sigmas: float = 7.0) -> int:
    """Levels to add above ``top_level`` so recoil redistribution closes.

    A displaced level l spreads over ~ eta*sqrt(2l+1) levels; the headroom
    covers the mean shift eta^2 plus ``sigmas`` standard deviations.
    """
    spread = abs(eta) * math.sqrt(2.0 * top_level + 1.0)
    return int(math.ceil(eta * eta + sigmas * spread)) + 2


# ---------------------------------------------------------------------------
# Column providers and the dense builder
#
# A provider serves one pulse's rates to the dense builder and to
# ``ColumnSampler`` alike: ``column(*level)`` is Gamma_{n <- level} over the
# truncated grid, self term included (a level is (m,) in 1D, (m_x, m_y) in
# 2D), and ``closures`` holds the empty rate of every grid level, onto which
# its untruncated column closes.


class _Resonant:
    """Resonant columns as slices and scales of the trap's emission kernel.

    In 1D column m is its empty rate F_m^2 times S1[:, m+s].  In 2D column
    (mx, my) is f_x^2 T[:, mx+s, :, my] + |A|^2 f_y^2 T[:, mx, :, my+s]
    + 2 Re(A) f_x f_y C_s[:, mx, :, my].  The cross term is odd in both
    direction projections for odd s; for even s its i^|n-l| phases factor
    into one sign per axis, so C_s is a folded node sum like T, held as
    factors on T's node basis.  A column is then one GEMM of the three scaled
    left factor slices, stacked, against their right slices.  At s = 0 C_s is
    T: the column is the empty rate times T[:, mx, :, my], exactly 0 if dark.
    """

    def __init__(self, trap: TrapConfig, pulse: Pulse):
        self.s = s = pulse.s_int
        self.a = complex(pulse.amplitude_ratio)
        if trap.dims == 2:
            self.f = _reduced_absorption(trap.eta, s, range(trap.n_max + 1))
        self.closures = empty_rates(trap, pulse)
        tables = angular_tables(trap)
        l_max = trap.n_max + max(s, 0)
        self.kernel = tables.emission_kernel(l_max)
        self.cross = None
        if trap.dims == 2 and s != 0 and s % 2 == 0 and self.a.real != 0.0:
            self.cross = tables.factors(l_max, lambda r: _cross_factor(r, s),
                                        self.kernel[0])[1:]

    def column(self, *level) -> np.ndarray:
        s = self.s
        # every scale is zero where m + s < 0, so its slice there is immaterial
        if len(level) == 1:
            return self.closures[level[0]] * self.kernel[:, max(level[0] + s, 0)]
        mx, my = level
        _, a, b = self.kernel
        if s == 0:
            return self.closures[mx, my] * (a[mx].T @ b[my])
        fx, fy = self.f[mx], self.f[my]
        left = [(fx * fx) * a[max(mx + s, 0)], (abs(self.a) ** 2 * fy * fy) * a[mx]]
        right = [b[my], b[max(my + s, 0)]]
        if self.cross is not None:
            left.append((2.0 * self.a.real * fx * fy) * self.cross[0][mx])
            right.append(self.cross[1][my])
        return np.concatenate(left).T @ np.concatenate(right)


def _cross_factor(stack: np.ndarray, s: int) -> np.ndarray:
    """(-1)^(p/2) R_k[n, m+s] R_k[n, m], p = |n-m-s| - |n-m|, or 0 if m+s < 0."""
    n1 = stack.shape[1]
    ns = np.arange(n1)
    shifted = np.maximum(ns + s, 0)
    p = np.abs(ns[:, None] - shifted[None, :]) - np.abs(ns[:, None] - ns[None, :])
    sign = np.where(p % 4 == 0, 1.0, -1.0)
    sign[:, ns + s < 0] = 0.0
    return stack[:, :, shifted] * stack[:, :, :n1] * sign


def _lorentzian_amplitudes(trap: TrapConfig, pulse: Pulse, l_max: int) -> np.ndarray:
    """c[l, m] = <l|e^{ikx}|m> * gamma / (delta - omega(l - m) + i gamma),
    dimensionless, for l <= l_max and every trap level m."""
    gt = trap.gamma_over_omega
    n_max = trap.n_max
    amps = fc.phase_table(l_max, n_max) * fc.reduced_stack(np.array([trap.eta]), l_max, n_max)[0]
    shift = np.arange(l_max + 1)[:, None] - np.arange(n_max + 1)[None, :]
    return amps * gt / ((pulse.s - shift) + 1j * gt)


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real ** 2 + z.imag ** 2


class _Full:
    """Full-mode columns on demand, every intermediate level l with its
    Lorentzian amplitude c[l, m], on the folded emission rule.

    At folded node k an axis recoils from level m into n with amplitude
    g[k, n] = sum_l R_k[n, l] i^|n-l| c[l, m] after absorbing on that axis,
    and e[k, n] = i^|n-m| R_k[n, m] as a spectator.  Split g = P + Q into
    the terms with l of m's parity (P) and of the other (Q).  At the mirror
    image of the node on that axis, R(-x)[n, l] = (-1)^(n+l) R(x)[n, l]
    turns g into (-1)^(n+m) (P - Q) and e into (-1)^(n+m) e.  Averaged over
    the images, which the folded weights count, |g|^2 becomes
    |P|^2 + |Q|^2 and g e* becomes P e*: the mixed-parity terms cancel.
    """

    def __init__(self, trap: TrapConfig, pulse: Pulse):
        self.a = complex(pulse.amplitude_ratio)
        n_max = trap.n_max
        l_max = min(n_max + _level_headroom(trap.eta, n_max), fc._INTERNAL_MAX_DEGREE)
        if trap.dims == 1:
            order = _line_order(trap.eta, l_max)
            _check_stack_budget(order // 2 * (n_max + 1) * (l_max + 1), "the 1D recoil stack")
        self.coeffs = c = _lorentzian_amplitudes(trap, pulse, l_max)  # (l, m)
        norm2 = np.einsum("lm,lm->m", c.real, c.real) + np.einsum("lm,lm->m", c.imag, c.imag)
        self.closures = _empty_rate(norm2) if trap.dims == 1 else _empty_rate(
            norm2[:, None], c.diagonal()[:, None], norm2, c.diagonal(), self.a)
        self.phases = fc.phase_table(n_max, l_max)
        if trap.dims == 1:
            # the u > 0 half of the line rule; its order is even, so no node at u = 0
            u, w = _line_rule(trap.dipole, order)
            self.stacks = (fc.reduced_stack(trap.eta * u[u > 0], n_max, l_max),)
            self.w = 2.0 * w[u > 0]
        else:
            tables = angular_tables(trap)
            self.stacks = tuple(tables.stack(axis, l_max)[:, :, :l_max + 1]
                                for axis in "xy")
            self.w = tables.fold_weights

    def _axis(self, stack: np.ndarray, m: int):
        """(P, Q, e) of one axis for source level m, each (nodes, n)."""
        b = self.phases * self.coeffs[:, m]
        same, other = m % 2, 1 - m % 2
        return (np.einsum("knl,nl->kn", stack[:, :, same::2], b[:, same::2]),
                np.einsum("knl,nl->kn", stack[:, :, other::2], b[:, other::2]),
                self.phases[:, m] * stack[:, :, m])

    def column(self, *level) -> np.ndarray:
        px, qx, ex = self._axis(self.stacks[0], level[0])
        if len(level) == 1:
            return self.w @ (_abs2(px) + _abs2(qx))
        py, qy, ey = self._axis(self.stacks[1], level[1])
        w = self.w[:, None]
        out = (w * (_abs2(px) + _abs2(qx))).T @ _abs2(ey)
        out += abs(self.a) ** 2 * ((w * _abs2(ex)).T @ (_abs2(py) + _abs2(qy)))
        cross = np.conj(self.a) * ((w * (px * np.conj(ex))).T @ (ey * np.conj(py)))
        return out + 2.0 * cross.real


def _provider(trap: TrapConfig, pulse: Pulse, mode: str) -> _Resonant | _Full:
    if mode == "resonant":
        return _Resonant(trap, pulse)
    if mode == "full":
        return _Full(trap, pulse)
    raise DomainError(f"unknown rate mode {mode!r}")


class StateBasis:
    """The states a generator acts on, as classes of flattened grid levels.

    ``full`` is the grid itself.  ``swap`` (2D only) takes the unordered
    pairs {a, b}, a <= b, in row-major order: (n_max+1)(n_max+2)/2 states.
    Where every rate commutes with the x <-> y swap, the chain is strongly
    lumpable onto them (Kemeny & Snell 1960, Finite Markov Chains, 6.3): a
    class's column is the column of its representative (a, b) with rows
    (c, d) and (d, c) added, and the in-class move (a, b) -> (b, a) becomes
    its diagonal self term.  A swap-symmetric state lumps to q{a, b} =
    p(a, b) + p(b, a) and is recovered exactly as p(a, b) = p(b, a) = q/2.
    """

    def __init__(self, trap: TrapConfig, kind: str = "full"):
        grid = np.indices(trap.shape).reshape(trap.dims, -1).T
        if kind == "full":
            self.class_of, self.levels = np.arange(trap.n_states), grid
        elif kind == "swap" and trap.dims == 2:
            a, b = np.triu_indices(trap.n_max + 1)
            ids = np.empty(trap.shape, dtype=int)
            ids[a, b] = ids[b, a] = np.arange(a.size)
            self.class_of, self.levels = ids.reshape(-1), np.stack([a, b], axis=1)
        else:
            raise DomainError(f"no {kind!r} state basis for a {trap.dims}D trap")
        self.kind = kind
        self.size = self.levels.shape[0]
        self._share = 1.0 / np.bincount(self.class_of)[self.class_of]

    def lump(self, probs: np.ndarray) -> np.ndarray:
        """Class totals of a grid vector (rows of a grid column, or a state)."""
        return np.bincount(self.class_of, weights=probs, minlength=self.size)

    def unlump(self, state: np.ndarray) -> np.ndarray:
        """The grid state spread evenly over each class's levels."""
        return state[self.class_of] * self._share


def _build(trap: TrapConfig, pulse: Pulse, mode: str, basis: str) -> RateMatrix:
    """The dense generator on the states of ``StateBasis(trap, basis)``:
    the representative columns of the mode's provider, rows lumped."""
    states = StateBasis(trap, basis)
    _check_matrix_budget(states.size)
    provider = _provider(trap, pulse, mode)
    columns = np.zeros((states.size, states.size))
    for j, level in enumerate(states.levels):
        columns[:, j] = states.lump(provider.column(*level).reshape(-1))
    return _assemble(columns, provider.closures[tuple(states.levels.T)], mode, trap, pulse)


class ColumnSampler:
    """Column-on-demand jump sampler for Monte Carlo.

    Serves jump tables for one pulse from the provider that backs the dense
    matrix, without assembling it, caching columns as they are visited.
    """

    def __init__(self, trap: TrapConfig, pulse: Pulse, mode: str = "resonant"):
        self.trap = trap
        self.pulse = pulse
        self._provider = _provider(trap, pulse, mode)
        self._cache: dict[int, tuple[float, np.ndarray]] = {}

    def jump_distribution(self, index: int):
        cached = self._cache.get(index)
        if cached is None:
            level = np.unravel_index(index, self.trap.shape)
            col = np.maximum(self._provider.column(*level).reshape(-1), 0.0)
            self_rate = col[index]
            col[index] = 0.0
            # _assemble's leak; summed in index order like the dense column
            # sum, so sampler and matrix agree bitwise
            cum = np.cumsum(col, out=col)
            leak = max(self._provider.closures[level] - cum[-1] - self_rate, 0.0)
            cached = _jump_table(cum, leak)
            self._cache[index] = cached
        return cached


def rate_matrix(trap: TrapConfig, pulse: Pulse, mode: str = "resonant",
                basis: str = "full") -> RateMatrix:
    """Transition-rate generator of one pulse in a 1D or 2D trap, on the
    states of ``StateBasis(trap, basis)``; cached per (trap, basis, pulse,
    mode).  The cache holds one trap: a build for another trap drops it, so
    sweeps over eta or n_max keep one trap's matrices and propagators."""
    key = (trap, basis, _pulse_cache_key(trap, pulse, mode))
    cached = _MATRICES.get(key)
    _CACHE_COUNTS["rate_matrix"]["hits" if cached is not None else "builds"] += 1
    if cached is None:
        if any(other[0] != trap for other in _MATRICES):
            _MATRICES.clear()
        cached = _build(trap, pulse, mode, basis)
        _MATRICES[key] = cached
    return cached


def _pulse_cache_key(trap: TrapConfig, pulse: Pulse, mode: str):
    a = complex(pulse.amplitude_ratio)
    if trap.dims == 1:
        return (mode, pulse.s)
    if mode == "resonant":
        # resonant 2D rates depend on A through |A|^2 plus, for even s where
        # the cross term survives the parity integral, Re(A)
        cross = a.real if pulse.s % 2 == 0 else 0.0
        return (mode, pulse.s, abs(a) ** 2, cross)
    return (mode, pulse.s, a)


_MATRICES: dict[tuple, RateMatrix] = {}


# ---------------------------------------------------------------------------
# CSV export


def format_float(x: float) -> str:
    """Round-trip decimal formatting used by every CSV/CLI emitter."""
    return format(float(x), ".17g")


def empty_rates_csv_text(trap: TrapConfig, rates: np.ndarray) -> str:
    """CSV text for an empty-rate vector (1D) or grid (2D), units Gamma0."""
    lines = []
    if trap.dims == 1:
        lines.append("# 1D empty rates; m is the trap level")
        lines.append("m,gamma_over_Gamma0")
        for m, val in enumerate(np.asarray(rates).reshape(-1)):
            lines.append(f"{m},{format_float(val)}")
    else:
        lines.append("# 2D empty rates; rows flattened row-major in (mx, my): "
                     "index = mx*(n_max+1) + my")
        lines.append("mx,my,gamma_over_Gamma0")
        grid = np.asarray(rates).reshape(trap.shape)
        for mx in range(trap.n_max + 1):
            for my in range(trap.n_max + 1):
                lines.append(f"{mx},{my},{format_float(grid[mx, my])}")
    return "\n".join(lines) + "\n"


def export_empty_rates_csv(path, trap: TrapConfig, rates: np.ndarray) -> None:
    """Empty-rate vector (1D) or grid (2D) in units Gamma0."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(empty_rates_csv_text(trap, rates))
