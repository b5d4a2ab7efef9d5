"""Transition-rate matrices for pulsed cooling in 1D and 2D harmonic traps.

Rates are expressed in units Gamma0 = Omega^2/(2*gamma); pulse durations in
tau0 = 2*gamma/Omega^2, so Gamma0*tau0 = 1 and propagation is dimensionless.

Two modes are provided:

* ``resonant`` keeps only the intermediate level hit exactly by an integer
  detuning delta = s*omega (dominant Lorentzian term for gamma << omega).
  Column totals then close exactly onto the analytic empty rates.
* ``full`` sums every intermediate level with its Lorentzian weight and
  accepts non-integer detunings.

Emission recoil is integrated over the photon direction with one rule per
geometry: 1D rates see it only through its projection u on the trap axis and
use a Gauss-Legendre rule in u; 2D rates use a Gauss-Legendre (cos theta) x
trapezoid (phi) sphere rule of orders ``quad_theta`` x ``quad_phi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fc
from .errors import DomainError, ResourceLimitError, ValidityError

DIPOLE_PATTERNS = ("isotropic", "dipole_z")

# Sphere rule of 2D rates.  On the 1D kernel at eta = 3 it was measured to
# err by 1.0e-10 at level 68, 1.6e-6 at level 90 and 1.35e-3 at level 120.
DEFAULT_QUAD_THETA = 64
DEFAULT_QUAD_PHI = 128

# dense (states x states) matrices beyond this many bytes are refused
MATRIX_MEMORY_BUDGET = 4 << 30

_NODE_CHUNK = 256


@dataclass(frozen=True)
class TrapConfig:
    """Physical and numerical parameters of one trap/laser setup.

    ``quad_theta`` x ``quad_phi`` is the sphere rule of 2D rates only.
    """

    eta: float
    gamma_over_omega: float
    dims: int = 1
    n_max: int = 120
    dipole: str = "isotropic"
    quad_theta: int = DEFAULT_QUAD_THETA
    quad_phi: int = DEFAULT_QUAD_PHI
    allow_weak_confinement: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.eta) or self.eta < 0:
            raise DomainError(f"eta must be finite and >= 0, got {self.eta}")
        if self.gamma_over_omega <= 0 or not math.isfinite(self.gamma_over_omega):
            raise DomainError(f"gamma/omega must be positive, got {self.gamma_over_omega}")
        if self.gamma_over_omega >= 1.0 and not self.allow_weak_confinement:
            raise ValidityError(
                f"gamma/omega = {self.gamma_over_omega} >= 1 leaves the "
                "strong-confinement regime; pass allow_weak_confinement=True to override")
        if self.dims not in (1, 2):
            raise DomainError(f"dims must be 1 or 2, got {self.dims}")
        if self.n_max < 1:
            raise DomainError(f"n_max must be >= 1, got {self.n_max}")
        if self.dipole not in DIPOLE_PATTERNS:
            raise DomainError(f"unknown dipole pattern {self.dipole!r}; "
                              f"choose from {DIPOLE_PATTERNS}")
        if self.quad_theta < 4 or self.quad_phi < 4:
            raise DomainError("quadrature orders must be >= 4")

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


def angular_quadrature(quad_theta: int, quad_phi: int):
    """Sphere product rule: Gauss-Legendre in cos(theta), trapezoid in phi.

    Returns (theta, phi, w) flattened over the grid; weights carry the
    sin(theta) Jacobian through the cos(theta) substitution, so sum(w) = 4*pi.
    """
    if quad_theta < 4 or quad_phi < 4:
        raise DomainError("quadrature orders must be >= 4")
    x, wx = np.polynomial.legendre.leggauss(quad_theta)
    theta = np.arccos(x)
    phi = 2.0 * math.pi * np.arange(quad_phi) / quad_phi
    wphi = 2.0 * math.pi / quad_phi
    th_grid = np.repeat(theta, quad_phi)
    ph_grid = np.tile(phi, quad_theta)
    w_grid = np.repeat(wx, quad_phi) * wphi
    return th_grid, ph_grid, w_grid


def _folded_quadrature(quad_theta: int, quad_phi: int):
    """Quarter-phi, half-theta sphere grid for integrands even in both the
    x and y direction projections.

    Valid because sin(theta) is even in cos(theta) and the four phi-quadrant
    images realize all sign combinations of (u, v); requires an even
    Gauss-Legendre order and a phi order divisible by 4.
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


def _line_rule(dipole: str, order: int):
    """Nodes u in [-1, 1], the photon direction projected on the trap axis,
    and weights times its density W1(u): 1/2 for isotropic emission
    (Archimedes' hat-box theorem), (3/8)(1 + u^2) for a dipole along z."""
    u, w = np.polynomial.legendre.leggauss(order)
    return u, w * (0.5 if dipole == "isotropic" else 0.375 * (1.0 + u * u))


class AngularTables:
    """Per-trap 1D emission kernels, or 2D sphere grids and displacement stacks.

    The 1D kernel S1[n, l] = int W1(u) R(eta*u)[n, l]^2 du is even in u, so it
    runs on the positive half of the line rule with doubled weights, in node
    chunks so no full per-node tensor is kept.  2D resonant integrands are
    even in both projections u = sin(th)cos(ph) and v = sin(th)sin(ph), so
    they use an 8-fold folded grid; full mode (whose intermediate-level
    interference breaks the parity) uses the complete sphere.  Stacks hold
    the real reduced factors R[k, n, l] (phases applied by consumers) and
    grow lazily in l.
    """

    _FULL_STACK_BUDGET = 512 << 20  # per-axis cap for full-grid stacks

    def __init__(self, trap: TrapConfig):
        self.trap = trap
        self._stacks: dict[tuple[str, bool], np.ndarray] = {}
        self._s1: dict[int, np.ndarray] = {}
        if trap.dims == 2:
            theta, phi, w = angular_quadrature(trap.quad_theta, trap.quad_phi)
            self.weights = w * dipole_pattern(trap.dipole, theta, phi)
            self.proj = {"x": np.sin(theta) * np.cos(phi),
                         "y": np.sin(theta) * np.sin(phi)}
            if trap.quad_theta % 2 == 0 and trap.quad_phi % 4 == 0:
                fth, fph, fw = _folded_quadrature(trap.quad_theta, trap.quad_phi)
            else:
                fth, fph, fw = theta, phi, w
            self.fold_weights = fw * dipole_pattern(trap.dipole, fth, fph)
            self.fold_proj = {"x": np.sin(fth) * np.cos(fph),
                              "y": np.sin(fth) * np.sin(fph)}

    def stack(self, axis: str, l_max: int, folded: bool = True) -> np.ndarray:
        cached = self._stacks.get((axis, folded))
        if cached is None or cached.shape[2] <= l_max:
            proj = self.fold_proj[axis] if folded else self.proj[axis]
            need = proj.shape[0] * (self.trap.n_max + 1) * (l_max + 1) * 8
            if need > self._FULL_STACK_BUDGET:
                raise ResourceLimitError(
                    f"projected displacement stack would need {need / 2**20:.0f} "
                    "MiB; lower n_max or the quadrature orders")
            cached = fc.reduced_stack(self.trap.eta * proj, self.trap.n_max, l_max)
            self._stacks[(axis, folded)] = cached
        return cached

    def emission_kernel(self, l_max: int) -> np.ndarray:
        """S1[n, l]: direction-averaged emission redistribution weights (1D)."""
        s1 = self._s1.get(l_max)
        if s1 is None:
            n_max = self.trap.n_max
            u, w = _line_rule(self.trap.dipole, _line_order(self.trap.eta, l_max))
            eta_u, w = self.trap.eta * u[u > 0], 2.0 * w[u > 0]
            s1 = np.zeros((n_max + 1, l_max + 1))
            for start in range(0, eta_u.shape[0], _NODE_CHUNK):
                sl = slice(start, start + _NODE_CHUNK)
                chunk = fc.reduced_stack(eta_u[sl], n_max, l_max)
                s1 += np.tensordot(w[sl], np.square(chunk, out=chunk), axes=1)
            self._s1[l_max] = s1
        return s1


_TABLES: dict[tuple, AngularTables] = {}


def angular_tables(trap: TrapConfig) -> AngularTables:
    key = (trap.dims, trap.eta, trap.dipole, trap.quad_theta, trap.quad_phi, trap.n_max)
    tab = _TABLES.get(key)
    if tab is None:
        tab = AngularTables(trap)
        _TABLES[key] = tab
    return tab


def clear_caches() -> None:
    """Drop cached quadrature stacks and rate matrices (for tests/benchmarks)."""
    _TABLES.clear()
    _MATRICES.clear()


def _reduced_absorption(eta: float, s: int, levels) -> np.ndarray:
    """F[i] = reduced <m+s|e^{ikx}|m> at each level m = levels[i], zero where m+s < 0."""
    return np.array([fc.fc_reduced(eta, m, m + s) if m + s >= 0 else 0.0
                     for m in levels], dtype=float)


def _empty_rate(fx, s: int, fy=0.0, a=0.0):
    """The resonant empty rate, broadcast over arrays of reduced factors.

    Gamma = F_x^2 + |A|^2 F_y^2 + 2 Re(A) F_x F_y [s = 0], with F the real
    reduced absorption factor of each axis and A the y/x laser amplitude
    ratio; 1D is the case F_y = 0.  The cross term is the two-laser
    interference, alive only at zero detuning.  A level is dark exactly
    where Gamma vanishes.
    """
    rate = fx * fx + abs(a) ** 2 * fy * fy
    if s == 0:
        rate = rate + 2.0 * a.real * fx * fy
    return np.maximum(rate, 0.0)


def empty_rates_1d(trap: TrapConfig, s: int) -> np.ndarray:
    """Total rate (units Gamma0) at which each 1D level is emptied.

    Gamma_m = |<m+s|e^{ikx}|m>|^2 for m+s >= 0, else 0; the level is dark
    exactly where the Franck-Condon factor vanishes.
    """
    if trap.dims != 1:
        raise DomainError("empty_rates_1d requires a 1D trap")
    s = Pulse(s=s, duration=1.0).s_int
    return _empty_rate(_reduced_absorption(trap.eta, s, range(trap.n_max + 1)), s)


def empty_rates_2d(trap: TrapConfig, pulse: Pulse) -> np.ndarray:
    """Empty rates over (m_x, m_y) for the two-laser arrangement."""
    if trap.dims != 2:
        raise DomainError("empty_rates_2d requires a 2D trap")
    s = pulse.s_int
    f = _reduced_absorption(trap.eta, s, range(trap.n_max + 1))
    return _empty_rate(f[:, None], s, f[None, :], complex(pulse.amplitude_ratio))


def level_empty_rates(trap: TrapConfig, pulse: Pulse, levels) -> np.ndarray:
    """Empty rates of the listed levels: ints in 1D, (m_x, m_y) pairs in 2D."""
    s = pulse.s_int
    grid = np.asarray(levels, dtype=int).reshape(-1, trap.dims)
    f = _reduced_absorption(trap.eta, s, grid.reshape(-1)).reshape(grid.shape)
    if trap.dims == 1:
        return _empty_rate(f[:, 0], s)
    return _empty_rate(f[:, 0], s, f[:, 1], complex(pulse.amplitude_ratio))


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
        self._column_cumsum: dict[int, tuple[float, np.ndarray, np.ndarray]] = {}

    @property
    def n_states(self) -> int:
        return self.generator.shape[0]

    def propagator(self, duration: float) -> np.ndarray:
        """exp(G * duration), cached per duration."""
        cached = self._propagators.get(duration)
        if cached is None:
            from scipy.linalg import expm
            cached = expm(self.generator * duration)
            self._propagators[duration] = cached
        return cached

    def jump_distribution(self, index: int):
        """MC jump table of one flattened level, cached per column (see _jump_table)."""
        cached = self._column_cumsum.get(index)
        if cached is None:
            col = self.generator[:, index].copy()
            col[index] = 0.0
            cached = _jump_table(col, self.leak[index])
            self._column_cumsum[index] = cached
        return cached


def _jump_table(col: np.ndarray, leak: float):
    """(total exit rate, destination indices, cumulative rates) of one column.

    ``col`` holds the non-negative rates out of the level, its own entry
    zeroed.  Absorption into the truncation leak takes the rest of the
    total beyond the last cumulative entry.
    """
    dest = np.nonzero(col > 0.0)[0]
    cum = np.cumsum(col[dest])
    total = (cum[-1] if cum.size else 0.0) + leak
    return float(total), dest, cum


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


def _check_matrix_budget(n_states: int) -> None:
    need = n_states * n_states * 8
    if need > MATRIX_MEMORY_BUDGET:
        raise ResourceLimitError(
            f"dense rate matrix would need {need / 2**30:.1f} GiB "
            f"({n_states} states); lower n_max or use column-on-demand sampling")


def _level_headroom(eta: float, top_level: int, sigmas: float = 7.0) -> int:
    """Levels to add above ``top_level`` so recoil redistribution closes.

    A displaced level l spreads over ~ eta*sqrt(2l+1) levels; the headroom
    covers the mean shift eta^2 plus ``sigmas`` standard deviations.
    """
    spread = abs(eta) * math.sqrt(2.0 * top_level + 1.0)
    return int(math.ceil(eta * eta + sigmas * spread)) + 2


# ---------------------------------------------------------------------------
# 1D construction


def rate_matrix_1d(trap: TrapConfig, pulse: Pulse, mode: str = "resonant") -> RateMatrix:
    """Transition rates Gamma_{n<-m} for a 1D trap under one pulse."""
    if trap.dims != 1:
        raise DomainError("rate_matrix_1d requires a 1D trap")
    if mode == "resonant":
        return _rate_matrix_1d_resonant(trap, pulse)
    if mode == "full":
        return _rate_matrix_1d_full(trap, pulse)
    raise DomainError(f"unknown rate mode {mode!r}")


def _rate_matrix_1d_resonant(trap: TrapConfig, pulse: Pulse) -> RateMatrix:
    s = pulse.s_int
    _check_matrix_budget(trap.n_max + 1)
    s1 = angular_tables(trap).emission_kernel(trap.n_max + max(s, 0))
    closure = empty_rates_1d(trap, s)
    columns = np.zeros((trap.n_max + 1, trap.n_max + 1))
    bright = np.nonzero(closure)[0]
    columns[:, bright] = closure[bright] * s1[:, bright + s]
    return _assemble(columns, closure, "resonant", trap, pulse)


def _lorentzian_amplitudes(trap: TrapConfig, pulse: Pulse, m: int, l_max: int) -> np.ndarray:
    """c_l = <l|e^{ikx}|m> * gamma / (delta - omega(l - m) + i gamma), dimensionless."""
    gt = trap.gamma_over_omega
    ls = np.arange(l_max + 1)
    amps = fc.fc_row(trap.eta, m, l_max)
    denom = (pulse.s - (ls - m)) + 1j * gt
    return amps * gt / denom


def _rate_matrix_1d_full(trap: TrapConfig, pulse: Pulse) -> RateMatrix:
    n_max = trap.n_max
    _check_matrix_budget(n_max + 1)
    l_max = min(n_max + _level_headroom(trap.eta, n_max), fc._INTERNAL_MAX_DEGREE)
    coeffs = np.stack([_lorentzian_amplitudes(trap, pulse, m, l_max)
                       for m in range(n_max + 1)], axis=1)  # (l, m)
    phases = fc.phase_table(n_max, l_max)
    # intermediate-level interference is odd in u: the whole line rule
    u, w = _line_rule(trap.dipole, _line_order(trap.eta, l_max))
    stack = fc.reduced_stack(trap.eta * u, n_max, l_max)  # (k, n, l)
    columns = np.zeros((n_max + 1, n_max + 1))
    for m in range(n_max + 1):
        amp = np.einsum("knl,nl->kn", stack, phases * coeffs[:, m])
        columns[:, m] = w @ (amp.real ** 2 + amp.imag ** 2)
    closure = np.einsum("lm,lm->m", coeffs.real, coeffs.real) \
        + np.einsum("lm,lm->m", coeffs.imag, coeffs.imag)
    return _assemble(columns, closure, "full", trap, pulse)


# ---------------------------------------------------------------------------
# 2D construction


class _Resonant2d:
    """Column-on-demand resonant 2D rates; backs both dense assembly and MC."""

    def __init__(self, trap: TrapConfig, pulse: Pulse):
        self.trap = trap
        self.pulse = pulse
        self.s = pulse.s_int
        self.a = complex(pulse.amplitude_ratio)
        self.tables = angular_tables(trap)
        self.f = _reduced_absorption(trap.eta, self.s, range(trap.n_max + 1))
        l_max = trap.n_max + max(self.s, 0)
        self.dx = self.tables.stack("x", l_max)
        self.dy = self.tables.stack("y", l_max)
        self.wgt = self.tables.fold_weights
        self._ns = np.arange(trap.n_max + 1)

    def closure(self, mx: int, my: int) -> float:
        return float(_empty_rate(self.f[mx], self.s, self.f[my], self.a))

    def column(self, mx: int, my: int) -> np.ndarray:
        """Gamma_{(nx,ny) <- (mx,my)} over the truncated grid, incl. self term."""
        n1 = self.trap.n_max + 1
        s = self.s
        fx, fy = self.f[mx], self.f[my]
        out = np.zeros((n1, n1))
        w = self.wgt
        if fx != 0.0:
            ux2 = self.dx[:, :, mx + s] ** 2
            vy2 = self.dy[:, :, my] ** 2
            out += (fx * fx) * ((w[:, None] * ux2).T @ vy2)
        if fy != 0.0 and self.a != 0.0:
            qx2 = self.dx[:, :, mx] ** 2
            py2 = self.dy[:, :, my + s] ** 2
            out += (abs(self.a) ** 2 * fy * fy) * ((w[:, None] * qx2).T @ py2)
        if fx != 0.0 and fy != 0.0 and self.a.real != 0.0 and s % 2 == 0:
            # Cross term; for odd s it is odd in both direction projections
            # and integrates to exactly zero, hence the parity guard.  The
            # i^|n-l| phases of the four factors collapse to a sign grid
            # because both channels share s.
            xr = self.dx[:, :, mx + s] * self.dx[:, :, mx]
            yr = self.dy[:, :, my] * self.dy[:, :, my + s]
            px = np.abs(self._ns - (mx + s)) - np.abs(self._ns - mx)
            py = np.abs(self._ns - my) - np.abs(self._ns - (my + s))
            sign = np.where(((px[:, None] + py[None, :]) % 4) == 0, 1.0, -1.0)
            out += (2.0 * self.a.real * fx * fy) * sign * ((w[:, None] * xr).T @ yr)
        return out


class _Full2d:
    """Column-on-demand full-mode 2D rates (all intermediate levels)."""

    def __init__(self, trap: TrapConfig, pulse: Pulse):
        self.trap = trap
        self.pulse = pulse
        self.a = complex(pulse.amplitude_ratio)
        self.tables = angular_tables(trap)
        self.l_max = min(trap.n_max + _level_headroom(trap.eta, trap.n_max),
                         fc._INTERNAL_MAX_DEGREE)
        # intermediate-level interference is direction-odd: full sphere grid
        self.dx = self.tables.stack("x", self.l_max, folded=False)
        self.dy = self.tables.stack("y", self.l_max, folded=False)
        self.wgt = self.tables.weights
        self.phases = fc.phase_table(trap.n_max, self.l_max)
        self._coeffs: dict[int, np.ndarray] = {}

    def _c(self, m: int) -> np.ndarray:
        cached = self._coeffs.get(m)
        if cached is None:
            cached = _lorentzian_amplitudes(self.trap, self.pulse, m, self.l_max)
            self._coeffs[m] = cached
        return cached

    def closure(self, mx: int, my: int) -> float:
        cx, cy = self._c(mx), self._c(my)
        total = float(np.vdot(cx, cx).real + abs(self.a) ** 2 * np.vdot(cy, cy).real)
        total += 2.0 * (np.conj(self.a) * cx[mx] * np.conj(cy[my])).real
        return max(total, 0.0)

    def column(self, mx: int, my: int) -> np.ndarray:
        w = self.wgt
        gx = np.einsum("knl,nl->kn", self.dx, self.phases * self._c(mx))
        gy = np.einsum("knl,nl->kn", self.dy, self.phases * self._c(my))
        ex = self.phases[:, mx][None, :] * self.dx[:, :, mx]  # x spectator
        ey = self.phases[:, my][None, :] * self.dy[:, :, my]  # y spectator
        t1 = (w[:, None] * (gx.real ** 2 + gx.imag ** 2)).T @ (ey.real ** 2 + ey.imag ** 2)
        t2 = abs(self.a) ** 2 * (
            (w[:, None] * (ex.real ** 2 + ex.imag ** 2)).T @ (gy.real ** 2 + gy.imag ** 2))
        cross = np.conj(self.a) * ((w[:, None] * (gx * np.conj(ex))).T
                                   @ (ey * np.conj(gy)))
        return t1 + t2 + 2.0 * cross.real


def _provider_2d(trap: TrapConfig, pulse: Pulse, mode: str):
    if trap.dims != 2:
        raise DomainError("2D rates require a 2D trap")
    if mode == "resonant":
        return _Resonant2d(trap, pulse)
    if mode == "full":
        return _Full2d(trap, pulse)
    raise DomainError(f"unknown rate mode {mode!r}")


def rate_matrix_2d(trap: TrapConfig, pulse: Pulse, mode: str = "resonant") -> RateMatrix:
    """Dense transition-rate generator for a 2D trap under one pulse."""
    provider = _provider_2d(trap, pulse, mode)
    n1 = trap.n_max + 1
    _check_matrix_budget(n1 * n1)
    columns = np.zeros((n1 * n1, n1 * n1))
    closure = np.zeros(n1 * n1)
    for mx in range(n1):
        for my in range(n1):
            j = mx * n1 + my
            columns[:, j] = provider.column(mx, my).reshape(-1)
            closure[j] = provider.closure(mx, my)
    return _assemble(columns, closure, mode, trap, pulse)


class ColumnSampler:
    """Column-on-demand jump sampler for 2D Monte Carlo.

    Serves exit rates and jump distributions for one pulse without ever
    assembling the dense matrix; columns are cached as they are visited.
    """

    def __init__(self, trap: TrapConfig, pulse: Pulse, mode: str = "resonant"):
        self.trap = trap
        self.pulse = pulse
        self._provider = _provider_2d(trap, pulse, mode)
        self._cache: dict[int, tuple[float, np.ndarray, np.ndarray]] = {}

    def jump_distribution(self, index: int):
        cached = self._cache.get(index)
        if cached is None:
            mx, my = divmod(index, self.trap.n_max + 1)
            col = np.maximum(self._provider.column(mx, my).reshape(-1), 0.0)
            self_rate = col[index]
            col[index] = 0.0
            # _assemble's leak; summed in index order like the dense column
            # sum, so sampler and matrix agree bitwise
            inside = np.cumsum(col)[-1]
            leak = max(self._provider.closure(mx, my) - inside - self_rate, 0.0)
            cached = _jump_table(col, leak)
            self._cache[index] = cached
        return cached


def rate_matrix(trap: TrapConfig, pulse: Pulse, mode: str = "resonant") -> RateMatrix:
    """Dispatch on trap dimensionality; results cached per (trap, pulse, mode)."""
    key = (trap, _pulse_cache_key(trap, pulse, mode))
    cached = _MATRICES.get(key)
    if cached is None:
        if trap.dims == 1:
            cached = rate_matrix_1d(trap, pulse, mode)
        else:
            cached = rate_matrix_2d(trap, pulse, mode)
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
