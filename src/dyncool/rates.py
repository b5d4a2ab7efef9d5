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
low-rank node factors, formed from the folded stack in node chunks of
about 1 MiB); full-mode ones are rows of one block per pulse, summed in
node chunks from the folded recoil stack, one per trap.
These recoil tables belong to an ``AngularTables`` that its caller builds
and drops (a run's ``_providers``, or a standalone call's own); the module
keeps no state.

One builder assembles every dense generator from a provider's columns on the
states of a ``StateBasis``, exit rates Gamma_empty - Gamma_{m<-m} on its diagonal;
``ColumnSampler`` serves Monte Carlo jumps on the same states from the same
providers, except in a 2D resonant ensemble, whose pulses draw each jump as
the photon is emitted (``_Draws``): laser, theta row, node and the two
levels, on the run's one recoil stack, with no kernel and no column.  It
refuses a column or draw table that would take a run's cached ones past
``MATRIX_MEMORY_BUDGET``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fc
from .errors import DomainError, ResourceLimitError, SimulationError, ValidityError

DIPOLE_PATTERNS = ("isotropic", "dipole_z")

# Sphere rule of 2D rates.  On the 1D kernel at eta = 3 it errs by 1.0e-10 at
# level 68, 1.6e-6 at 90 and 1.35e-3 at 120.  Its 2D kernel T (largest entry
# 0.059) is off a 192 x 384 rule at eta = 3 by 1.1e-14, 4.9e-10 and 2.3e-5 at
# n_max 20, 40 and 60 (80 x 160: 4.1e-12 at 60), at eta = 3.065 by 5.2e-7 at
# n_max 48, and by 6.9e-10 and 3.0e-9 on fig6's s > 0 pulses.  At n_max 40 the
# theta order limits it: 70 x 140 (1260 nodes against 1056) is 1.2e-13 off and
# 72 x 140 (1296) 1.9e-14, and 72 x 144 moves fig5_A_minus's cycle-300 endpoint
# by at most 1.3e-13 and adds 7 MB to its peak RSS.
DEFAULT_QUAD_THETA = 64
DEFAULT_QUAD_PHI = 128

# dense (states x states) matrices beyond this many bytes are refused, and so
# are Monte Carlo columns that would take a run's cached ones past it
MATRIX_MEMORY_BUDGET = 4 << 30

# 2D recoil factors drop sketch directions below _RANK_TOL of the largest, and
# check ||X - Q Q^T X||_F <= 10 _RANK_TOL ||X||_F (margin for the check's rounding)
_RANK_TOL = 1e-14

# 2D recoil factors form their node arrays from the stack this many bytes of
# stack at a time, and at least _FACTOR_CHUNK_NODES nodes, so that deep GEMMs
# keep their shape: the fig5 stack (14 MB) is 14 chunks of 77 nodes, a chunk
# at n_max 160 32 nodes (6.6 MB)
_FACTOR_CHUNK_BYTES = 1 << 20
_FACTOR_CHUNK_NODES = 32


class RunDefaults(NamedTuple):
    n_max: int
    cycles: int
    target: int | tuple[int, int]


# basis depth, cycle count and target of a run by trap dimension: the presets'
# values, and what traps, configs and designed protocols get unless told otherwise
RUN_DEFAULTS = {1: RunDefaults(n_max=120, cycles=200, target=0),
                2: RunDefaults(n_max=40, cycles=300, target=(0, 0))}


@dataclass(frozen=True)
class TrapConfig:
    """Physical and numerical parameters of one trap/laser setup.

    ``n_max`` left out is the ``RUN_DEFAULTS`` depth of the trap's dims.
    ``quad_theta`` x ``quad_phi`` is the sphere rule of 2D rates only; it is
    folded by parity, so ``quad_theta`` must be even and ``quad_phi`` a
    multiple of 4.
    """

    eta: float
    gamma_over_omega: float
    dims: int = 1
    n_max: int | None = None
    dipole: str = "isotropic"
    quad_theta: int = DEFAULT_QUAD_THETA
    quad_phi: int = DEFAULT_QUAD_PHI

    def __post_init__(self) -> None:
        for name in ("dims", "n_max", "quad_theta", "quad_phi"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _integer(getattr(self, name), name))
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
        if self.n_max is None:
            object.__setattr__(self, "n_max", RUN_DEFAULTS[self.dims].n_max)
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


def _integer(value, name: str) -> int:
    """``value`` by ``operator.index`` (numpy integers pass, floats do not),
    else ``DomainError`` naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def level_indices(shape: tuple[int, ...], levels) -> np.ndarray:
    """The listed trap levels of a grid of ``shape`` as a (count, dims) int
    array: each level is an int m in 1D and a pair (m_x, m_y) in 2D.

    This is the one check of what a level is; any other arity, or a
    non-integer index, is refused with ``DomainError``; a target's range
    check is ``_target_index``."""
    try:
        grid = np.asarray(levels)
    except ValueError:  # levels of mixed arity
        grid = np.empty((0, 0))
    if grid.ndim == 1:  # one index per level
        grid = grid[:, None]
    if grid.ndim != 2 or grid.shape[1] != len(shape) or (
            grid.size and not np.issubdtype(grid.dtype, np.integer)):
        raise DomainError(f"a level of a {len(shape)}D trap is "
                          f"{('an int m', 'a pair (m_x, m_y)')[len(shape) - 1]}; got {levels}")
    return grid.astype(int, copy=False)


def _target_index(shape: tuple[int, ...], target) -> tuple[int, ...]:
    """The indices of one target level (``level_indices``) of a grid of
    ``shape``, refused with ``DomainError`` outside the truncation."""
    idx = level_indices(shape, [target])[0]
    if not np.all((idx >= 0) & (idx < shape)):
        raise DomainError(f"target {target} outside truncation")
    return tuple(idx.tolist())


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
        if not np.isfinite(complex(self.amplitude_ratio)):
            raise DomainError(f"amplitude ratio must be finite, got {self.amplitude_ratio}")

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


def _sphere_rule(trap: TrapConfig):
    """Quarter-phi, half-theta sphere grid as (weights times W(theta, phi),
    x projection u, mirror, nodes per theta row): a node's weight counts its
    images (+-u, +-v, +-z) in the full rule.  Exact for integrands that depend
    on the direction through u, v alone, averaged over their sign images:
    sin(theta) is even in cos(theta), and the four phi quadrants realize
    every sign of (u, v), given an even theta order and a phi order divisible
    by 4 (``TrapConfig`` checks both).

    The grid maps onto itself under phi -> pi/2 - phi, which swaps u and v:
    ``mirror`` is that node permutation, phi_j -> phi_{q-j} within each theta
    row, an involution that keeps every weight of both emission patterns.  The
    y projection is u at ``mirror``, so a y recoil stack is the x stack there."""
    x, wx = np.polynomial.legendre.leggauss(trap.quad_theta)
    pos = x > 0
    q = trap.quad_phi // 4
    phi = 2.0 * math.pi * np.arange(q + 1) / trap.quad_phi
    wphi = np.full(q + 1, 4.0) * (2.0 * math.pi / trap.quad_phi)
    wphi[0] = wphi[-1] = 2.0 * (2.0 * math.pi / trap.quad_phi)
    th, ph = (g.ravel() for g in np.meshgrid(np.arccos(x[pos]), phi, indexing="ij"))
    w = np.outer(2.0 * wx[pos], wphi).ravel()
    mirror = (np.arange(np.count_nonzero(pos))[:, None] * (q + 1) + np.arange(q, -1, -1)).ravel()
    u = np.sin(th) * np.cos(ph)
    return w * dipole_pattern(trap.dipole, th, ph), u, mirror, q + 1


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
    """The u > 0 half of the Gauss-Legendre rule of even ``order`` in u, the
    photon direction projected on the trap axis, as (doubled weights times
    its density W1(u), u, None, 1): W1 is 1/2 for isotropic emission
    (Archimedes' hat-box theorem), (3/8)(1 + u^2) for a dipole along z."""
    u, w = np.polynomial.legendre.leggauss(order)
    w = w * (0.5 if dipole == "isotropic" else 0.375 * (1.0 + u * u))
    return 2.0 * w[u > 0], u[u > 0], None, 1


class AngularTables:
    """Per-trap recoil tables in 1D and 2D: the single-eta bands ``bands``
    (absorption factors, Lorentzian amplitudes), the folded emission rules,
    their signed recoil stack and the emission kernels built on them.

    ``rule(l_max)`` is the emission rule folded by parity: in 1D the u > 0 half
    of the line rule (``_line_rule``), whose order grows with l_max; in 2D the
    8-fold folded sphere grid (u, v >= 0, z > 0, ``_sphere_rule``), whose node
    permutation ``mirror`` swaps u and v.  The integrands of both modes depend
    on the direction through the projections u, v alone; where one is not
    even in u or v (full-mode interference between intermediate levels), its
    consumer adds the mirror images through the parity of R.
    ``stack(l_max)`` is the x axis's signed reduced factors S[k, n, l]
    (``_signed``) on the nodes of ``rule(l_max)``, to l_max: the full-mode
    providers of one trap are built from it and keep none of it, and 2D
    kernels grow the held one lazily in l.  It is the one stack in 2D as
    well: the y stack is the x stack at ``mirror``, which its consumers read
    in place of it.  A 2D
    stack is (quad_theta/2)(quad_phi/4 + 1) nodes x (n_max+1) x (l_max+1)
    doubles, 84 MB for full mode at the fig5 depth.  ``fc.reduced_stack``
    sums the 1D kernel S1[n, l] = int W1(u) R(eta*u)[n, l]^2 du as it steps,
    so no stack is held for it.  The 2D kernel
    T[nx, l, ny, l'] = sum_k w_k Rx_k[nx, l]^2 Ry_k[ny, l']^2 is held in the
    low-rank form of ``factors``: R[n, l]^2 is e^{-x^2} times a polynomial in
    x^2, so the squared stack has rank 37, 50, 64 and 74 over the 1056 fig5
    nodes at n_max 40, 80, 120 and 160.
    ``factors`` forms its squared or cross-term node arrays from the stack in
    node chunks of about ``_FACTOR_CHUNK_BYTES``, and beside the stack and
    the factors it returns holds one chunk, the sketch until its basis is
    known and a product buffer of one factor's size: 1.6 MiB at n_max 24.
    A resonant 2D sampler of s = -4 peaks at 353 MB at n_max 160 (215 MB at
    120), 219 MB of it the stack.
    Every table is the one asked for, and kernels are keyed by a build depth
    of the trap and the requested level alone: build order cannot move one.
    ``kernel_counts`` holds the kernel builds and hits of these tables.
    """

    _FULL_STACK_BUDGET = 512 << 20  # cap on the bands, the stack or the 1D kernel

    def __init__(self, trap: TrapConfig):
        self.trap = trap
        self._bands = np.zeros((0, 0))
        self._rules: dict[int, tuple] = {}
        self._stack: tuple = (None, None)
        self._kernels: dict[int, np.ndarray | tuple] = {}
        self.kernel_counts = {"builds": 0, "hits": 0}

    def bands(self, d: int, count: int) -> np.ndarray:
        """Read-only bands of the single-eta factors, R(eta)[lo, lo + d'] at
        [d', lo] (``fc.reduced_bands``), to at least band d and ``count``
        degrees: the held ones, rebuilt larger if too small; an entry does
        not depend on the size.  One build over the trap's levels serves
        every resonant pulse up to |s| = d."""
        rows, cols = self._bands.shape
        if d >= rows or count > cols:
            rows, cols = max(d + 1, rows), max(count, cols)
            _check_stack_budget(rows * cols, "the single-eta recoil bands")
            self._bands = fc.reduced_bands(self.trap.eta, rows, cols)
        return self._bands

    def rule(self, l_max: int) -> tuple:
        """The folded rule to ``l_max``, built once: (weights, x projection u,
        ``mirror``, nodes per theta row), in 1D (weights, u, None, 1)."""
        order = _line_order(self.trap.eta, l_max) if self.trap.dims == 1 else 0
        if order not in self._rules:
            self._rules[order] = (_line_rule(self.trap.dipole, order) if order
                                  else _sphere_rule(self.trap))
        return self._rules[order]

    def stack(self, l_max: int) -> np.ndarray:
        """The signed x stack on ``rule(l_max)`` to level l_max, a view of the
        held one, rebuilt where that is on another rule or shallower."""
        u = self.rule(l_max)[1]
        built_on, held = self._stack
        if built_on is not u or held.shape[2] <= l_max:
            self._check_stack(l_max)
            held = _signed(fc.reduced_stack(self.trap.eta * u, self.trap.n_max, l_max))
            self._stack = (u, held)
        return held[:, :, :l_max + 1]

    def _check_stack(self, l_max: int) -> None:
        _check_stack_budget(len(self.rule(l_max)[0]) * (self.trap.n_max + 1) * (l_max + 1),
                            f"the {self.trap.dims}D recoil stack",
                            " (in 2D, or the quadrature orders)")

    def factors(self, l_max: int, form, q: np.ndarray | None = None):
        """Low-rank form (q, a, b) of the folded node sum sum_k w_k x[k] (x) y[k]
        of the node arrays x, y = form(Rx), form(Ry) (nodes, n, p) of the
        stacks to ``l_max``: its (n x n) slice at (i, j) is a[i].T @ b[j], with
        a, b = q^T sqrt(w) x, q^T sqrt(w) y as (p, r, n).  q spans sqrt(w) y
        (checked); unless given, it comes from a Gaussian sketch with a fixed
        seed (Halko, Martinsson & Tropp 2011) of width n + p + 9: R[n, l]^2 is
        e^{-x^2} times a polynomial of degree n + l in x^2, so squared stacks
        span at most n + p - 1 node vectors.

        Only x is formed.  With P the permutation ``mirror``, y = P x and P
        keeps w, so q_x = P q spans sqrt(w) x: the sketch gives q_x, and
        a = q^T sqrt(w) x and b = q_x^T sqrt(w) x both come from each chunk
        of x.  The check ||sqrt(w) y - q b|| is ||sqrt(w) x - q_x b||, which
        a wrong ``mirror`` fails for a given q.

        ``form(r, out)`` writes the node arrays of a node chunk r of the stack
        into ``out``, or into a new array if ``out`` is None.  Each pass
        (sketch, projection, residual) forms them chunk by chunk, about
        ``_FACTOR_CHUNK_BYTES`` of stack and at least ``_FACTOR_CHUNK_NODES``
        nodes at a time, into one buffer.  The last chunk is kept and the
        next pass starts from it, running the other way: a stack in one chunk
        is formed once, and a later pass over c chunks forms c - 1 of them.
        The sketch, its Gaussian operator and its SVD are freed once q is
        known.  a and b are summed in place, through one product buffer of a
        factor's size, which the residual check reuses r nodes at a time;
        they are laid out as (p, r, n) once checked, one at a time.  The
        chunking moves a factor by rounding alone."""
        weights, _, mirror, _ = self.rule(l_max)
        stack = self.stack(l_max)
        k = weights.shape[0]
        step = max(_FACTOR_CHUNK_NODES, _FACTOR_CHUNK_BYTES // stack[0].nbytes)
        chunks = [slice(start, start + step) for start in range(0, k, step)]
        w_root = np.sqrt(weights)[:, None]
        n, p = form(stack[:1]).shape[1:]
        # every chunk is formed into one buffer: fresh chunk arrays each cost
        # their pages' first-touch faults
        buf = np.empty((min(step, k), n, p))
        kept = (None, None)

        def sweep():
            # (chunk, rows sqrt(w_k) form(R)[k] of its nodes) for every
            # chunk, the kept one first
            nonlocal kept
            for sl in chunks[::-1] if kept[0] == chunks[-1] else chunks:
                if sl != kept[0]:
                    r = stack[sl]
                    v = form(r, buf[:len(r)]).reshape(-1, n * p)
                    kept = (sl, np.multiply(v, w_root[sl], out=v))
                yield kept

        if q is None:
            omega = np.random.default_rng(0).standard_normal((n * p, min(k, n + p + 9)))
            sketch = np.empty((k, omega.shape[1]))
            for sl, x in sweep():
                np.matmul(x, omega, out=sketch[sl])
            del omega
            u, sv, _ = np.linalg.svd(sketch, full_matrices=False)
            del sketch
            q = u[mirror, :np.count_nonzero(sv > _RANK_TOL * sv[0])]
            del u
        q_x, r = q[mirror], q.shape[1]
        a, b, prod = np.zeros((r, n * p)), np.zeros((r, n * p)), np.empty((r, n * p))
        for sl, x in sweep():
            a += np.matmul(q[sl].T, x, out=prod)
            b += np.matmul(q_x[sl].T, x, out=prod)
        resid2 = norm2 = 0.0
        for sl, x in sweep():
            for lo in range(0, len(x), r):
                rows = x[lo:lo + r]
                resid = np.matmul(q_x[sl][lo:lo + r], b, out=prod[:len(rows)])
                resid -= rows
                resid2 += np.vdot(resid, resid)
            norm2 += np.vdot(x, x)
        if math.sqrt(resid2) > 10 * _RANK_TOL * math.sqrt(norm2):
            raise SimulationError(f"rank-{r} node basis misses part of a "
                                  "2D recoil integrand")
        kept = buf = prod = None
        a = np.ascontiguousarray(a.reshape(r, n, p).transpose(2, 0, 1))
        return q, a, np.ascontiguousarray(b.reshape(r, n, p).transpose(2, 0, 1))

    def kernel_depth(self, l_max: int) -> int:
        """The build depth of the emission kernel to ``l_max``, refused over
        budget before anything is built: in 2D l_max, to which it builds the
        recoil stack; in 1D the deepest level its line order serves
        (``_line_depth``), to which it sums S1 through recurrence arrays of
        one entry per rule node and level, counted by ``_line_order``:
        building the rule would itself take order^2 memory."""
        if self.trap.dims == 2:
            self._check_stack(l_max)
            return l_max
        n1 = self.trap.n_max + 1
        depth = _line_depth(self.trap.eta, n1 - 1, l_max)
        nodes = _line_order(self.trap.eta, l_max) // 2
        _check_stack_budget(max(n1, nodes) * (depth + 1), "the 1D emission kernel")
        return depth

    def emission_kernel(self, l_max: int) -> np.ndarray | tuple:
        """Direction-averaged emission redistribution weights up to level
        ``l_max``: S1[n, l] in 1D; in 2D the factors (q, a, b) of
        T[nx, l, ny, l'] = (a[l].T @ b[l'])[nx, ny].

        A kernel is built to its ``kernel_depth`` and sliced, so 1D depths
        that share a line order share one build."""
        depth = self.kernel_depth(l_max)
        kernel = self._kernels.get(depth)
        self.kernel_counts["hits" if kernel is not None else "builds"] += 1
        if kernel is None:
            if self.trap.dims == 2:
                kernel = self.factors(depth, np.square)
            else:
                w, u = self.rule(depth)[:2]
                kernel = fc.reduced_stack(self.trap.eta * u, self.trap.n_max, depth, weights=w)
            self._kernels[depth] = kernel
        return kernel if self.trap.dims == 2 else kernel[:, :l_max + 1]


def _signed(stack: np.ndarray) -> np.ndarray:
    """Reduced factors R[..., n, l] times (-1)^floor(|n-l|/2), in place: the
    phase i^|n-l| of the recoil amplitude up to the unit i^((n-l) mod 2),
    which is fixed for each n within one parity class of l and cancels in
    every product the rates take (squares, the even-s cross term, full
    mode's |P|^2, |Q|^2 and P e*)."""
    n, l = stack.shape[-2:]
    d = np.abs(np.arange(n)[:, None] - np.arange(l))
    return np.multiply(stack, np.where(d % 4 > 1, -1.0, 1.0), out=stack)


def _check_stack_budget(entries: int, what: str, remedy: str = "") -> None:
    """Refuse an array of ``entries`` doubles above ``_FULL_STACK_BUDGET``,
    before anything is allocated."""
    need = 8 * entries
    if need > AngularTables._FULL_STACK_BUDGET:
        raise ResourceLimitError(f"{what} would need {need / 2**20:.0f} MiB; "
                                 f"lower n_max{remedy}")


def _reduced_absorption(tables: AngularTables, s, levels) -> np.ndarray:
    """R[m+s, m], the reduced <m+s|e^{ikx}|m>, at levels m and shifts s
    broadcast together, zero where m+s < 0: band |s| of ``tables.bands`` at
    degree min(m, m+s)."""
    s, m = np.broadcast_arrays(s, np.asarray(levels, dtype=int))
    lo = m + np.minimum(s, 0)
    reached = lo >= 0
    if not reached.any():
        return np.zeros(lo.shape)
    bands = tables.bands(int(np.abs(s[reached]).max()), int(lo.max()) + 1)
    return np.where(reached, bands[np.abs(s), np.maximum(lo, 0)], 0.0)


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


def _grid_empty_rates(shape: tuple[int, ...], norm2, diag, a: complex) -> np.ndarray:
    """``_empty_rate`` of every level of a grid of ``shape``, from one axis's
    |c|^2 (``norm2``) and c[m] (``diag``) at each level m; a grid whose level
    indices alone exceed the stack budget is refused before they are built."""
    _check_stack_budget(len(shape) * math.prod(shape), f"the {len(shape)}D level grid")
    return _empty_rate(*(v for m in np.indices(shape) for v in (norm2[m], diag[m])), a=a)


def empty_rates(trap: TrapConfig, pulse: Pulse) -> np.ndarray:
    """``level_empty_rates`` of every grid level, over trap.shape, as ``_Resonant.closures``."""
    s = pulse.s_int
    f = _reduced_absorption(AngularTables(trap), s, range(trap.n_max + 1))
    return _grid_empty_rates(trap.shape, f * f, f * (s == 0), complex(pulse.amplitude_ratio))


def level_empty_rates(trap: TrapConfig, pulse: Pulse, levels) -> np.ndarray:
    """Resonant empty rates (units Gamma0) of the listed levels
    (``level_indices``), from each axis's ``_reduced_absorption`` by
    ``_empty_rate``; a level is dark exactly where its rate vanishes."""
    return _level_empty_rates(AngularTables(trap), pulse, levels)


def _level_empty_rates(tables: AngularTables, pulse: Pulse, levels) -> np.ndarray:
    """``level_empty_rates`` on the bands of ``tables``, which a caller
    that scans one trap's pulses builds once."""
    s = pulse.s_int
    grid = level_indices(tables.trap.shape, levels)
    f = _reduced_absorption(tables, s, grid.reshape(-1)).reshape(grid.shape)
    axes = [v for axis in f.T for v in (axis * axis, axis * (s == 0))]
    return _empty_rate(*axes, a=complex(pulse.amplitude_ratio))


class RateMatrix:
    """Generator of the rate equation for one pulse, on the truncated basis.

    ``generator`` holds Gamma_{n<-m} off the diagonal and -(Gamma_empty - Gamma_self)
    on it; ``leak`` is max(exit - column outflow, 0), so column sums equal -leak up
    to rounding.  ``self_rates`` are the m<-m terms, kept out of the generator as
    they cancel in the dynamics; ``exit_rates`` is -diag, the Monte Carlo exit clocks.
    """

    def __init__(self, generator: np.ndarray, leak: np.ndarray,
                 self_rates: np.ndarray, mode: str):
        self.generator = generator
        self.leak = leak
        self.self_rates = self_rates
        self.mode = mode
        self._propagators: dict[float, np.ndarray] = {}
        self._cache: dict[int, np.ndarray] = {}

    @property
    def n_states(self) -> int:
        return self.generator.shape[0]

    @functools.cached_property
    def exit_rates(self) -> np.ndarray:
        return -self.generator.diagonal()

    def propagator(self, duration: float) -> np.ndarray:
        """exp(G * duration) by ``markov_expm``, cached per duration for
        ``propagate_pulse`` callers; master runs stream their propagators
        into the cycle map and cache none here."""
        if duration not in self._propagators:
            self._propagators[duration] = markov_expm(self.generator, duration)
        return self._propagators[duration]

    def jump_distribution(self, index: int):
        """(exit rate, cached cumulative rates of the column, own entry zeroed):
        a search of a draw below the exit rate past the last state is the leak."""
        cum = self._cache.get(index)
        if cum is None:
            cum = self.generator[:, index].copy()
            cum[index] = 0.0
            self._cache[index] = cum = np.cumsum(cum, out=cum)
        return float(self.exit_rates[index]), cum


# Most expected jumps in one uniformization sub-step: near 1, doubling it
# saves a squaring and adds about one series product, so the GEMM count is flat.
_UNIFORM_STEP = 1.0

# entries per band of ``_add_weighted``: a 256 KiB product, which stays in cache
_BAND = 1 << 15


def markov_expm(generator: np.ndarray, duration: float) -> np.ndarray:
    """exp(G t), finite t >= 0, of a Markov generator by uniformization (Jensen 1953).

    With lam = t * (largest exit rate, leak included) and the substochastic
    B = I + G t / lam, exp(G t) = sum_k Pois(k; lam) B^k has only nonnegative
    terms.  Above lam = _UNIFORM_STEP it takes 2^s sub-steps and squares s
    times; the series stops where the Poisson tail is below 2^-54 and is
    evaluated by Paterson-Stockmeyer (1973).  B is G scaled by t / lam in
    one pass, plus I; its entries below 2^-106 are then zeroed.  That moves
    the result by at most n 2^-106 lam in the 1-norm, keeps subnormals out
    of the GEMMs, and keeps out a diagonal entry that rounding took below 0.

    The working set is B^1 ... B^q and the sum, each its own n x n array,
    and one scratch of n/5 rows: the Horner product is formed in place, a
    fifth of its rows at a time (``_right_multiply``), and the scratch
    also holds the bands of ``_add_weighted``.  Freed arrays of one size
    reuse each other's memory.
    It drops its reference to G once B is formed, so a caller that passes
    the only one (the streamed cycle map) frees G before the series
    products.  Each group starts from its highest term (the Horner product
    below the top group) and adds the others, the highest order first, in
    one pass per band of entries; the identity's weight is added last, on
    the diagonal.  Added from the identity up, the terms lost 1.1e-13 of
    column sum on a pulse of lam = 1e3 (10 squarings).
    """
    if not 0 <= duration < math.inf:
        raise DomainError(f"duration must be finite and >= 0, got {duration}")
    lam = duration * float(-generator.diagonal().min(initial=0.0))
    if lam == 0.0:
        return np.eye(len(generator))
    b = generator * (duration / lam)
    del generator
    b.flat[::len(b) + 1] += 1.0
    b[b < 2.0 ** -106] = 0.0
    squarings = max(0, math.ceil(math.log2(lam / _UNIFORM_STEP)))
    mu = lam / 2.0 ** squarings
    w = math.exp(-mu) * np.cumprod(np.r_[1.0, mu / np.arange(1.0, 32.0)])
    # the first order whose tail P(X > order) is below 2^-54; B^2 ... B^q
    # and one Horner product in B^q per further q terms cost ~ 2 sqrt(order)
    order = max(1, int(np.argmax(np.cumsum(w[::-1])[::-1][1:] < 2.0 ** -54)))
    q = math.isqrt(order)
    powers = [None, b]  # B^0 = I is added on the diagonal
    for _ in range(q - 1):
        powers.append(powers[-1] @ b)
    top = (-(-order // q) - 1) * q
    scratch = _row_scratch(b, 5)
    out = None
    for lo in range(top, -1, -q):
        # out = sum of w[k] B^(k - lo) over this group's orders k, from its
        # highest, hi, down; below the top, out B^q stands for w[hi] B^q
        hi = order if lo == top else lo + q
        if lo == top:
            out = w[hi] * powers[hi - lo]
        else:
            _right_multiply(out, powers[q], scratch)
        _add_weighted(out, powers[hi - lo - 1:0:-1], w[hi - 1:lo:-1], scratch)
        out.flat[::len(b) + 1] += w[lo]
    del powers, b, scratch
    for _ in range(squarings):
        out = out @ out
    return out


def _row_scratch(z: np.ndarray, parts: int) -> np.ndarray:
    """Scratch for ``_right_multiply`` of the n x n ``z``: n/parts rows
    (rounded up)."""
    return np.empty((-(-len(z) // parts), z.shape[1]))


def _right_multiply(z: np.ndarray, m: np.ndarray, scratch: np.ndarray) -> None:
    """z = z @ m in place, one block of contiguous rows at a time through
    ``scratch``: row i of the product reads row i of z alone."""
    for lo in range(0, len(z), len(scratch)):
        block = z[lo:lo + len(scratch)]
        block[...] = np.matmul(block, m, out=scratch[:len(block)])


def _add_weighted(out: np.ndarray, terms, weights, scratch: np.ndarray) -> None:
    """out += sum_i weights[i] terms[i], in place, the terms in order, one
    band of at most ``_BAND`` entries (and at most ``scratch``'s) at a
    time: each term is read once and its products stay in cache."""
    acc, prod = out.reshape(-1), scratch.reshape(-1)[:_BAND]
    for lo in range(0, acc.size, prod.size):
        band = acc[lo:lo + prod.size]
        for term, weight in zip(terms, weights):
            band += np.multiply(term.reshape(-1)[lo:lo + prod.size], weight, out=prod[:band.size])


def _assemble(columns: np.ndarray, exits: np.ndarray, mode: str) -> RateMatrix:
    """Package raw quadrature columns (including the m<-m entry) into a
    generator with -exits on its diagonal."""
    generator = np.maximum(columns, 0.0, order="C")
    self_rates = generator.diagonal().copy()
    np.fill_diagonal(generator, 0.0)
    leak = np.maximum(exits - generator.sum(axis=0), 0.0)
    np.fill_diagonal(generator, -exits)
    return RateMatrix(generator, leak, self_rates, mode)


def _check_record_budget(cycles: int, rows: int) -> None:
    """Refuse a Monte Carlo run whose record, (cycles + 1) x ``rows``
    doubles summed over the trajectories at every cycle boundary, exceeds
    ``_FULL_STACK_BUDGET``, before it is allocated."""
    need = 8 * (cycles + 1) * rows
    if need > AngularTables._FULL_STACK_BUDGET:
        raise ResourceLimitError(f"the Monte Carlo record of {cycles} cycles would need "
                                 f"{need / 2**20:.0f} MiB; lower the cycle count")


def _check_matrix_budget(side: int) -> None:
    need = side * side * 8
    if need > MATRIX_MEMORY_BUDGET:
        raise ResourceLimitError(
            f"dense rate matrix would need {need / 2**30:.1f} GiB ({side} x {side}); "
            "lower n_max")


def _level_headroom(eta: float, top_level: int) -> int:
    """Levels to add above ``top_level`` so recoil redistribution closes.

    A displaced level l spreads over ~ eta*sqrt(2l+1) levels; the headroom
    covers the mean shift eta^2 plus 7 standard deviations.
    """
    spread = abs(eta) * math.sqrt(2.0 * top_level + 1.0)
    return int(math.ceil(eta * eta + 7.0 * spread)) + 2


# ---------------------------------------------------------------------------
# Column providers and the dense builder
#
# A provider serves one pulse's rates to the dense builder and to
# ``ColumnSampler`` alike: ``column(*level)`` is Gamma_{n <- level} over the
# truncated grid, self term included (a level is (m,) in 1D, (m_x, m_y) in
# 2D), ``closures`` holds the empty rate of every grid level, onto which
# its untruncated column closes, and ``exits`` max(closure - self term, 0),
# formed for all levels at once when the provider is built, with no column.


class _Resonant:
    """Resonant columns as slices and scales of the trap's emission kernel.

    In 1D column m is its empty rate F_m^2 times S1[:, m+s].  In 2D column
    (mx, my) is f_x^2 T[:, mx+s, :, my] + |A|^2 f_y^2 T[:, mx, :, my+s]
    + 2 Re(A) f_x f_y C_s[:, mx, :, my].  The cross term is odd in both
    direction projections for odd s; for even s its phases are the signs of
    the signed stacks, so C_s is a folded node sum like T, held as
    factors on T's node basis.  A column is then one GEMM of the three left
    factor slices, stacked with their f_x scales, against their right slices
    with their f_y scales, so the left operand depends on mx alone.  At s = 0
    C_s is T: the column is the empty rate times T[:, mx, :, my], exactly 0
    if dark.
    """

    def __init__(self, tables: AngularTables, pulse: Pulse):
        self.trap = trap = tables.trap
        self.s = s = pulse.s_int
        self.a = complex(pulse.amplitude_ratio)
        l_max = self.kernel_level(trap, pulse)
        tables.kernel_depth(l_max)  # refuses an over-budget kernel before any table
        self.f = f = _reduced_absorption(tables, s, range(trap.n_max + 1))
        self.closures = _grid_empty_rates(trap.shape, f * f, f * (s == 0), self.a)
        self.kernel = tables.emission_kernel(l_max)
        self.cross = None
        if trap.dims == 2 and s != 0 and s % 2 == 0 and self.a.real != 0.0:
            self.cross = tables.factors(l_max, lambda r, out=None: _cross_factor(r, s, out),
                                        self.kernel[0])[1:]
        self.exits = np.maximum(self.closures - self._self_rates(), 0.0)
        self._left = self._right = self._left_mx = None

    @staticmethod
    def kernel_level(trap: TrapConfig, pulse: Pulse) -> int:
        """The deepest kernel level a pulse reads: m + s, for column m."""
        return trap.n_max + max(pulse.s_int, 0)

    @staticmethod
    def swap_symmetric(pulse: Pulse) -> bool:
        """Whether the pulse's 2D rates commute with the x <-> y swap: they
        see A through |A|^2 and Re(A) alone, so where |A| = 1."""
        return abs(complex(pulse.amplitude_ratio)) == 1.0

    def column(self, *level) -> np.ndarray:
        """The column of ``level``; in 1D, given an array of levels, their
        columns side by side, in one broadcast."""
        s = self.s
        # every scale is zero where m + s < 0, so its slice there is immaterial
        if len(level) == 1:
            return self.closures[level[0]] * self.kernel[:, np.maximum(level[0] + s, 0)]
        mx, my = level
        _, a, b = self.kernel
        if s == 0:
            return self.closures[mx, my] * (a[mx].T @ b[my])
        if self._left is None:
            # the stacked operands, written in place: a fresh pair per column
            # fragmented the heap among a sampler's cached columns (fig5_mc
            # peaked 7 MB higher)
            rows = a.shape[1] * (2 if self.cross is None else 3)
            self._left, self._right = np.empty((rows, a.shape[2])), np.empty((rows, b.shape[2]))
        left, right = self._stack_left(mx), self._right
        r, fy = b.shape[1], self.f[my]
        right[:r] = b[my]
        np.multiply(b[max(my + s, 0)], abs(self.a) ** 2 * fy * fy, out=right[r:2 * r])
        if self.cross is not None:
            np.multiply(self.cross[1][my], fy, out=right[2 * r:])
        return left.T @ right

    def _stack_left(self, mx) -> np.ndarray:
        """The left slices of the columns (mx, .), stacked with their f_x
        scales, kept for the last mx stacked: the dense builder asks for the
        columns of one mx in a row."""
        if self._left_mx != mx:
            s, fx, a = self.s, self.f[mx], self.kernel[1]
            r, left = a.shape[1], self._left
            np.multiply(a[max(mx + s, 0)], fx * fx, out=left[:r])
            left[r:2 * r] = a[mx]
            if self.cross is not None:
                np.multiply(self.cross[0][mx], 2.0 * self.a.real * fx, out=left[2 * r:])
            self._left_mx = mx
        return self._left

    def _self_rates(self) -> np.ndarray:
        """Gamma_{m<-m} of every level from the factors' diagonals (1D: bitwise)."""
        m = np.arange(self.closures.shape[0])
        up = np.maximum(m + self.s, 0)
        if self.closures.ndim == 1:
            return self.closures * self.kernel[m, up]
        _, a, b = self.kernel
        if self.s == 0:
            return self.closures * (a[m, :, m] @ b[m, :, m].T)
        f2 = self.f * self.f
        out = f2[:, None] * (a[up, :, m] @ b[m, :, m].T)
        out += (abs(self.a) ** 2 * f2) * (a[m, :, m] @ b[up, :, m].T)  # f_y^2, by m_y
        if self.cross is not None:
            ca, cb = self.cross
            out += (2.0 * self.a.real * np.outer(self.f, self.f)) * (ca[m, :, m] @ cb[m, :, m].T)
        return out


def _cross_factor(stack: np.ndarray, s: int, out: np.ndarray | None = None) -> np.ndarray:
    """S_k[n, m+s] S_k[n, m] of a signed stack, or 0 if m+s < 0, into ``out``
    if given: two slices of the stack multiplied, with no gathered copy."""
    k, n1 = stack.shape[:2]
    lo = min(max(-s, 0), n1)
    out = np.empty((k, n1, n1)) if out is None else out
    out[:, :, :lo] = 0.0
    np.multiply(stack[:, :, lo + s:n1 + s], stack[:, :, lo:n1], out=out[:, :, lo:])
    return out


class _Full:
    """Full-mode rates, every intermediate level l with its Lorentzian
    amplitude c[l, m], on the folded emission rule, held as one block whose
    ``raw[level]`` is the level's column, self term included.

    At folded node k an axis recoils from level m into n with amplitude
    g[k, n] = sum_l R_k[n, l] i^|n-l| c[l, m] after absorbing on that axis,
    and e[k, n] = i^|n-m| R_k[n, m] as a spectator.  Split g = P + Q into
    the terms with l of m's parity (P) and of the other (Q).  At the mirror
    image of the node on that axis, R(-x)[n, l] = (-1)^(n+l) R(x)[n, l]
    turns g into (-1)^(n+m) (P - Q) and e into (-1)^(n+m) e.  Averaged over
    the images, which the folded weights count, |g|^2 becomes
    |P|^2 + |Q|^2 and g e* becomes P e*: the mixed-parity terms cancel.

    The build walks the trap's one signed stack (``_signed``) in node chunks
    of at most ``_FACTOR_CHUNK_BYTES``, and keeps none of it: one real
    product with c split by the parity of l gives (P, Q) of every m, and e
    is a slice.  In 1D the block adds sum_k w_k G, G = |P|^2 + |Q|^2.  In 2D
    column (m_x, m_y) adds sum_k w_k [G_x E_y + |A|^2 E_x G_y + 2 Re(A* H_x H_y*)],
    E = e^2, H = P e, the y arrays being the x ones at the 2D rule's ``mirror``,
    which maps each chunk (whole theta rows) onto itself: one GEMM per chunk.
    """

    def __init__(self, tables: AngularTables, pulse: Pulse):
        self.trap = trap = tables.trap
        _check_matrix_budget(trap.n_states)
        a = complex(pulse.amplitude_ratio)
        l_max = min(trap.n_max + _level_headroom(trap.eta, trap.n_max), fc._INTERNAL_MAX_DEGREE)
        l1, n1, side = l_max + 1, trap.n_max + 1, trap.n_states
        (w, _, mirror, row), stack = tables.rule(l_max), tables.stack(l_max)
        # c[l, m] = <l|e^{ikx}|m> gamma / (delta - omega (l - m) + i gamma), ``_signed``
        m, gt = np.arange(n1), trap.gamma_over_omega
        shift = np.arange(l1)[:, None] - m
        c = _signed(_reduced_absorption(tables, shift, m))
        c = c * gt / ((pulse.s - shift) + 1j * gt)
        norm2 = np.einsum("lm,lm->m", c.real, c.real) + np.einsum("lm,lm->m", c.imag, c.imag)
        self.closures = _grid_empty_rates(trap.shape, norm2, c.diagonal(), a)
        # c split by the parity of l (m's, the other), Re and Im of each: (l, m x 4)
        other = shift % 2 == 1
        operand = (c[..., None] * np.stack([~other, other], axis=-1)).view(float).reshape(l1, -1)
        # the mirror images paired with (G, E, Re H, Im H): E, |A|^2 G and H mixed by A
        ar, ai = 2.0 * a.real, 2.0 * a.imag
        mix = np.array([[0, 1, 0, 0], [abs(a) ** 2, 0, 0, 0], [0, 0, ar, -ai], [0, 0, ai, ar]])
        step = row * max(1, _FACTOR_CHUNK_BYTES // (row * n1 * l1 * 8))
        acc = np.zeros((side, side))  # [n, m] in 1D; [(n_x, m_x), (n_y, m_y)] in 2D
        for start in range(0, len(w), step):
            r, wk = stack[start:start + step], w[start:start + step]
            p = (r.reshape(-1, l1) @ operand).reshape(len(r), n1, n1, 4)  # [k, n, m, .]
            g = np.einsum("knmj,knmj->knm", p, p)
            if mirror is None:
                acc += (wk @ g.reshape(len(r), -1)).reshape(n1, n1)
                continue
            e = r[:, :, :n1]
            x = np.stack([g, e * e, p[..., 0] * e, p[..., 1] * e]).reshape(4, len(r), -1)
            y = np.einsum("ij,jk...->ik...", mix, x[:, mirror[start:start + len(r)] - start])
            x *= wk[:, None]
            acc += x.reshape(-1, side).T @ y.reshape(-1, side)
        axes = [*range(1, 2 * trap.dims, 2), *range(0, 2 * trap.dims, 2)]  # to [m..., n...]
        self.raw = np.ascontiguousarray(acc.reshape((n1,) * 2 * trap.dims).transpose(axes))
        self.raw.flags.writeable = False
        self_rates = self.raw.reshape(side, side).diagonal().reshape(trap.shape)
        self.exits = np.maximum(self.closures - self_rates, 0.0)

    def column(self, *level) -> np.ndarray:
        return self.raw[level]

    @staticmethod
    def swap_symmetric(pulse: Pulse) -> bool:
        """Where A = +-1, as the x <-> y swap conjugates A in the cross term."""
        return complex(pulse.amplitude_ratio) in (1.0, -1.0)


class _Emission:
    """The run's one signed 2D recoil stack, as emission draws read it.

    ``stack`` is ``AngularTables.stack`` to the run's deepest kernel level
    on the folded sphere rule (weights ``w``, ``mirror``, ``row`` nodes per
    theta row, which ``mirror`` reverses); the y axis's rows are the x
    stack's at ``mirror``.  Node sums read it through node rows, one per
    level: ``mass[l, k]`` is sum_{n <= n_max} S_k[n, l]^2, the in-basis
    mass of level l's emission row at node k, whose shortfall below 1 is
    the truncation leak (sum_n |<n|D|l>|^2 = 1 over all n).
    """

    def __init__(self, tables: AngularTables, l_max: int):
        self.w, _, self.mirror, self.row = tables.rule(l_max)
        self.stack = stack = tables.stack(l_max)
        self.mass = np.einsum("knl,knl->lk", stack, stack)

    def row_sums(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """sum_k w_k x[i, k] y[j, k~] over each theta row r's nodes k, k~ the
        mirror of k, for node rows x and y of the x stack, as (i, j, r): one
        batched GEMM of row-sized products.  (One GEMM over all nodes took
        30 ms at fig5's 41 x 1056 x 41 where OpenBLAS ran it on two threads
        of a 2-core VM, and 0.1 ms on one.)"""
        shape = (-1, len(self.w) // self.row, self.row)
        return np.matmul((x * self.w).reshape(shape).transpose(1, 0, 2),
                         y[:, self.mirror].reshape(shape).transpose(1, 2, 0)).transpose(1, 2, 0)


class _Draws:
    """A 2D resonant pulse's Monte Carlo jumps, drawn the way the photon is
    emitted, on the run's ``_Emission``: no column, no kernel.

    Laser x (weight f_x^2; at s = 0 the empty rate, the one laser term)
    takes level (m_x, m_y) to (m_x + s, m_y), laser y (|A|^2 f_y^2) to
    (m_x, m_y + s); the photon's folded node k is drawn with weight w_k
    times the in-basis mass of that pair's rows, then n_x and n_y from the
    x row S_k[:, l_x]^2 and the y row, read at the node's mirror.  The
    source level is left out of that product.  An even s != 0 with
    Re(A) != 0 adds the cross term 2 Re(A) a b of the two amplitudes
    a = f_x Sx[n_x, m_x + s] Sy[n_y, m_y] and b = f_y Sx[n_x, m_x]
    Sy[n_y, m_y + s] (``cross``): the pair of lasers is then proposed at
    its direct weight and accepted with probability
    |a + A b|^2 / (2 (a^2 + |A|^2 b^2)) <= 1.

    ``exits``, ``leaks`` and ``self_rates`` hold every level's exit rate
    (Gamma_empty - Gamma_{m<-m}), truncation leak and self term as node
    sums on the stack.  ``cells[j]`` holds the proposal mass per laser and
    theta row of state j of the run's ``basis`` (its representative level),
    summed in that order; ``table(j)`` scales it to the in-basis rate
    exit - leak and appends the leak's cell, so a draw u * exit past the
    last row is the leak.  One batched GEMM per term builds the cells of
    every level: 2 x (theta rows) doubles per state, 3.5 MB over fig5's
    eight pulses on its 861 level pairs at n_max 40.
    """

    def __init__(self, emission: _Emission, tables: AngularTables, pulse: Pulse,
                 basis: StateBasis):
        self.trap, self.emission, self.basis, e = tables.trap, emission, basis, emission
        self.s = s = pulse.s_int
        a = complex(pulse.amplitude_ratio)
        m = np.arange(self.trap.n_max + 1)
        up, reached = np.maximum(m + s, 0), m + s >= 0
        self.f = f = _reduced_absorption(tables, s, m)
        self.closures = _grid_empty_rates(self.trap.shape, f * f, f * (s == 0), a)
        self.a2, self.ar = abs(a) ** 2, 2.0 * a.real
        self.cross = s != 0 and s % 2 == 0 and a.real != 0.0
        # each laser's weight at every level; at s = 0 one term, the empty rate
        f2 = np.broadcast_to(f * f, (len(m), len(m)))
        lasers = [self.closures] if s == 0 else [f2.T, self.a2 * f2]
        hit = e.stack[:, m, up].T * reached[:, None]  # S_k[m, m+s]
        hit2, diag = np.square(hit), np.square(e.stack[:, m, m]).T
        # per laser: the in-basis rows (x, y) and the source's own entries
        terms = [(e.mass[up], e.mass[m], hit2, diag), (e.mass[m], e.mass[up], diag, hit2)]
        mx, my = basis.levels.T
        cells = np.zeros((basis.size, 2, len(e.w) // e.row))
        self_rates = inside = 0.0
        for laser, (x, y, x_own, y_own) in enumerate(terms[:len(lasers)]):
            total, own = e.row_sums(x, y), e.row_sums(x_own, y_own)
            self_rates = self_rates + lasers[laser] * own.sum(axis=2)
            inside = inside + lasers[laser] * total.sum(axis=2)
            np.multiply(np.maximum(total[mx, my] - own[mx, my], 0.0),
                        lasers[laser][mx, my, None], out=cells[:, laser])
        if self.cross:
            # in-basis overlaps sum_n S[n, m+s] S[n, m], and the self terms
            lo = min(-s, len(m)) if s < 0 else 0
            over = np.zeros_like(hit)
            over[lo:] = np.einsum("knm,knm->mk", e.stack[:, :, lo + s:len(m) + s],
                                  e.stack[:, :, lo:len(m)])
            own = hit * e.stack[:, m, m].T  # signed
            scale = self.ar * np.outer(f, f)
            self_rates = self_rates + scale * e.row_sums(own, own).sum(axis=2)
            inside = inside + scale * e.row_sums(over, over).sum(axis=2)
        self.self_rates = self_rates
        self.exits = np.maximum(self.closures - self_rates, 0.0)
        self.leaks = np.maximum(self.exits - (inside - self_rates), 0.0)
        self.cells = np.cumsum(cells.reshape(basis.size, -1), axis=1)
        total, self.leak_cells = self.cells[:, -1], self.leaks[mx, my]
        self.scale = np.divide(self.exits[mx, my] - self.leak_cells, total,
                               out=np.zeros_like(total), where=total > 0.0)

    def table(self, state: int) -> np.ndarray:
        """The draw table of ``state``: 2 x (theta rows) + 1 doubles."""
        out = np.empty(self.cells.shape[1] + 1)
        np.multiply(self.cells[state], self.scale[state], out=out[:-1])
        out[-1] = out[-2] + self.leak_cells[state]
        return out


def _emit(samplers, which: np.ndarray, index: np.ndarray, cells: np.ndarray,
          tables: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The destinations of one round's jumps on ``_Draws`` samplers: the
    jump of sampler ``which[i]`` from state ``index[i]`` landed in cell
    ``cells[i]`` of its draw table ``tables[i]`` (past the last row: the
    leak, state ``size``).  The rest of each draw is vectorised across the
    jumpers and their pulses, ``_DRAW_CHUNK`` jumpers at a time, with the
    samplers' own uniforms, four per proposal (``_PulseArrays.propose``).
    A jumper whose proposal is rejected proposes again from a new row of
    its table's in-basis part, one uniform each, in batches: while T
    jumpers wait, each draws max(2, 32 // T) proposals in a row, uniforms
    jumper by jumper, and keeps the first accepted one, which is
    sequential rejection sampling in fewer passes.  The drawn level is
    mapped to its state of the basis (its class on the swap basis, the
    in-class move included).  Each sampler counts its proposals up to
    each acceptance."""
    basis, pulses = samplers[0]._basis, _PulseArrays([s._provider for s in samplers])
    n1, rows = pulses.n1, pulses.rows
    dest = np.full(cells.size, basis.size, dtype=np.int64)
    inside = np.flatnonzero(cells < 2 * rows)
    proposals = np.zeros(len(samplers), dtype=np.int64)
    for lo in range(0, inside.size, _DRAW_CHUNK):
        go = inside[lo:lo + _DRAW_CHUNK]
        mx, my = basis.levels[index[go]].T
        todo, batch, cell = np.arange(go.size), 1, cells[go]
        while todo.size:
            # candidates, ``batch`` per waiting jumper, jumper-major
            at = np.repeat(todo, batch)
            if cell is None:  # a retry: new rows
                cell = _pick(tables[go[at], :2 * rows], rng.random(at.size))
            nx, ny, accept = pulses.propose(which[go[at]], mx[at], my[at], cell, rng)
            accept = accept.reshape(-1, batch)
            first, done = accept.argmax(axis=1), accept.any(axis=1)
            proposals += np.bincount(which[go[todo]], np.where(done, first + 1, batch),
                                     minlength=len(samplers)).astype(np.int64)
            pick = np.flatnonzero(done) * batch + first[done]
            dest[go[todo[done]]] = basis.class_of[nx[pick] * n1 + ny[pick]]
            todo, cell = todo[~done], None
            batch = max(2, 32 // max(todo.size, 1))
    for sampler, count in zip(samplers, proposals.tolist()):
        sampler.proposals += count
    return dest


class _PulseArrays:
    """The ``_Draws`` of one run's pulses as arrays indexed by pulse, on
    their one ``_Emission``, for proposals vectorised across pulses."""

    def __init__(self, provs):
        self.e = e = provs[0].emission
        k1, self.n1, self.l1 = e.stack.shape
        self.rows = k1 // e.row
        # the stack by theta row: ``mirror`` reverses each row
        self.by_row = e.stack.reshape(self.rows, e.row, self.n1, self.l1)
        self.w = e.w.reshape(self.rows, e.row)
        self.mass = e.mass.reshape(-1, self.rows, e.row)
        self.s, self.f = np.array([p.s for p in provs]), np.array([p.f for p in provs])
        self.a2, self.ar = np.array([p.a2 for p in provs]), np.array([p.ar for p in provs])
        self.cross = np.array([p.cross for p in provs])

    def squared_rows(self, node: np.ndarray, level: np.ndarray) -> np.ndarray:
        """S_k[:, l]^2 over n <= n_max at each (node k, level l): the stack
        is symmetric in (n, l) up to n_max, bitwise (``fc.reduced_stack``
        writes both triangles from one value), so a row of a level up to
        n_max is read as the contiguous S_k[l, :n_max + 1]."""
        out = self.e.stack[node, np.minimum(level, self.n1 - 1), :self.n1]
        deep = level >= self.n1
        if deep.any():
            out[deep] = self.e.stack[node[deep], :, level[deep]]
        return np.square(out, out=out)

    def propose(self, k, mx, my, cell, rng):
        """One proposal per entry, of pulse k from level (mx, my) in row cell
        ``cell`` of its table, with four uniforms each: the node within the
        row, n_x and n_y (each the right-sided search of its weights'
        running sum, the source level left out of the product of the two
        rows), and, where the pulse has a cross term, its acceptance.
        Returns (n_x, n_y, accepted)."""
        e, at, s = self.e, np.arange(k.size), self.s[k]
        u = rng.random((k.size, 4))
        row, laser_y = cell % self.rows, cell >= self.rows
        lx, ly = mx + s * ~laser_y, my + s * laser_y
        own = self.by_row[row, :, mx, lx] * self.by_row[row, :, my, ly][:, ::-1]
        weights = self.w[row] * (self.mass[lx, row] * self.mass[ly, row][:, ::-1] - own * own)
        node = row * e.row + _pick(np.cumsum(np.maximum(weights, 0.0), axis=1), u[:, 0])
        y_node = e.mirror[node]
        x_row, y_row = np.split(self.squared_rows(np.r_[node, y_node], np.r_[lx, ly]), 2)
        y_in = e.mass[ly, y_node]
        x_weights = x_row * y_in[:, None]
        x_weights[at, mx] = x_row[at, mx] * np.maximum(y_in - y_row[at, my], 0.0)
        nx = _pick(np.cumsum(x_weights, axis=1), u[:, 1])
        y_row[at[nx == mx], my[nx == mx]] = 0.0
        ny = _pick(np.cumsum(y_row, axis=1), u[:, 2])
        accept = ~self.cross[k]
        if not accept.all():
            c = ~accept
            kc, xc, yc, sc, kx, ky = k[c], mx[c], my[c], s[c], node[c], y_node[c]
            a = (self.f[kc, xc] * e.stack[kx, nx[c], np.maximum(xc + sc, 0)]
                 * e.stack[ky, ny[c], yc])
            b = (self.f[kc, yc] * e.stack[kx, nx[c], xc]
                 * e.stack[ky, ny[c], np.maximum(yc + sc, 0)])
            direct = a * a + self.a2[kc] * b * b
            accept[c] = 2.0 * direct * u[c, 3] < direct + self.ar[kc] * a * b
        return nx, ny, accept


def _pick(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row of running sums ``cum``, the right-sided search of u times
    the row's total: an index drawn with probability proportional to its
    weight, never one of weight 0."""
    return np.minimum((cum <= (u * cum[:, -1])[:, None]).sum(axis=1), cum.shape[1] - 1)


# jumpers whose draws ``_emit`` finishes at a time: its (jumpers x levels)
# arrays stay near 1.3 MB at n_max 40, 5 MB at 160
_DRAW_CHUNK = 4096


def _provider_class(mode: str) -> type[_Resonant] | type[_Full]:
    try:
        return {"resonant": _Resonant, "full": _Full}[mode]
    except KeyError:
        raise DomainError(f"unknown rate mode {mode!r}") from None


def _provider(tables: AngularTables, pulse: Pulse, mode: str) -> _Resonant | _Full:
    """The column provider of ``pulse`` in rate ``mode``, built on the
    trap's ``tables``: the pulses that share them share their kernels."""
    return _provider_class(mode)(tables, pulse)


def _providers(protocol, trap: TrapConfig, mode: str, mc_basis: StateBasis | None = None):
    """The rate-``mode`` column provider of every pulse of ``protocol`` (none
    if it runs no cycle), one per distinct s and A even where rates
    coincide, all from one ``AngularTables(trap)``, and the run's ``cache``
    block, its kernel builds and hits.  Resonant pulses read bands built
    once, to the deepest |s| that reaches a level (s >= -n_max).  The
    providers keep the kernels (full mode: the block) they read, not the
    tables, which are freed on return, before any generator or column.

    A 2D resonant Monte Carlo run, which gives the basis it steps as
    ``mc_basis``, gets ``_Draws`` on that basis in their place, all on one
    ``_Emission`` of the stack to the deepest kernel level, which they
    keep: it builds no kernel."""
    _provider_class(mode)  # an unknown mode is refused before anything is built
    tables = AngularTables(trap)
    pulses = protocol.pulses if protocol.cycles else ()
    reached = [abs(pulse.s_int) for pulse in pulses
               if mode == "resonant" and pulse.s_int >= -trap.n_max]
    if reached:  # one build of the bands every pulse reads; no entry depends on their size
        tables.bands(max(reached), trap.n_max + 1)
    emission = None
    if pulses and mc_basis is not None and mode == "resonant" and trap.dims == 2:
        emission = _Emission(tables, max(_Resonant.kernel_level(trap, p) for p in pulses))
    shared, providers = {}, []
    for pulse in pulses:
        key = pulse.s, complex(pulse.amplitude_ratio)
        if key not in shared:
            shared[key] = (_provider(tables, pulse, mode) if emission is None
                           else _Draws(emission, tables, pulse, mc_basis))
        providers.append(shared[key])
    return providers, {"emission_kernel": tables.kernel_counts}


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
    A basis holds no matrix: ``MATRIX_MEMORY_BUDGET`` is checked where one is
    built (``rate_matrix``, a master run and ``check_budgets``), so a Monte
    Carlo run steps a basis of any size.
    """

    def __init__(self, trap: TrapConfig, kind: str = "full"):
        sizes = {"full": trap.n_states, "swap": (trap.n_max + 1) * (trap.n_max + 2) // 2}
        if kind not in sizes or kind == "swap" and trap.dims != 2:
            raise DomainError(f"no {kind!r} state basis for a {trap.dims}D trap")
        self.kind, self.size = kind, sizes[kind]
        self.class_of = np.arange(self.size)
        self.levels = np.indices(trap.shape).reshape(trap.dims, -1).T
        if kind == "swap":
            a, b = np.triu_indices(trap.n_max + 1)
            ids = np.empty(trap.shape, dtype=int)
            ids[a, b] = ids[b, a] = np.arange(a.size)
            self.class_of, self.levels = ids.reshape(-1), np.stack([a, b], axis=1)
        self._share = 1.0 / np.bincount(self.class_of)[self.class_of]

    def lump(self, probs: np.ndarray) -> np.ndarray:
        """Class totals of a grid vector (rows of a grid column, or a state)."""
        return np.bincount(self.class_of, weights=probs, minlength=self.size)

    def unlump(self, state: np.ndarray) -> np.ndarray:
        """The grid state spread evenly over each class's levels."""
        return state[self.class_of] * self._share


def _run_basis(pulses, trap: TrapConfig, mode: str, symmetric: bool = True) -> StateBasis:
    """The ``StateBasis`` a run of ``pulses`` in rate ``mode`` steps, in
    either run mode: the unordered level pairs where the start is
    swap-symmetric and every pulse commutes with the x <-> y swap
    (``swap_symmetric`` of the mode's provider class), the grid otherwise."""
    swap_symmetric = _provider_class(mode).swap_symmetric
    lumped = symmetric and trap.dims == 2 and all(map(swap_symmetric, pulses))
    return StateBasis(trap, "swap" if lumped else "full")


def check_budgets(protocol, trap: TrapConfig, run_mode: str = "master",
                  extra_targets=()) -> None:
    """Refuse a resonant run over its memory budgets from the trap alone,
    before any rate or table is built: in master mode its dense generators,
    on the basis of a swap-symmetric (say thermal) start (``_run_basis``),
    in Monte Carlo mode its record (``_check_record_budget``, with every
    extra target counted as distinct), and the emission kernel, or in 2D
    the stack, of its deepest pulse (``kernel_level``)."""
    if run_mode == "master":
        _check_matrix_budget(_run_basis(protocol.pulses, trap, "resonant").size)
    else:
        _check_record_budget(protocol.cycles, 2 * (5 + len(extra_targets)))
    levels = [_Resonant.kernel_level(trap, pulse) for pulse in protocol.pulses]
    AngularTables(trap).kernel_depth(max(levels, default=trap.n_max))


def rate_matrix(trap: TrapConfig, pulse: Pulse, mode: str = "resonant",
                basis: str = "full", *, provider=None) -> RateMatrix:
    """Transition-rate generator of one pulse in a 1D or 2D trap, on the
    states of ``StateBasis(trap, basis)``: the representative columns of the
    provider, rows lumped, exits less the in-class move; a basis over
    ``MATRIX_MEMORY_BUDGET`` is refused.  ``provider`` is the pulse's column
    provider if it exists already (``_providers``), else one is built on
    tables of its own.  A 1D resonant provider gives every column in one
    broadcast; a 2D column is one GEMM, which a block of columns would not
    reproduce bitwise (``ColumnSampler`` serves the same columns).  Nothing
    caches the result."""
    states = StateBasis(trap, basis)
    _check_matrix_budget(states.size)
    if provider is None:
        provider = _provider(AngularTables(trap), pulse, mode)
    exits = provider.exits[tuple(states.levels.T)]
    if trap.dims == 1 and isinstance(provider, _Resonant):  # bitwise the loop's columns
        return _assemble(provider.column(np.arange(states.size)), np.maximum(exits, 0.0), mode)
    lumped = np.empty((states.size, states.size))  # row j: column j, written whole
    # each column's entry at its level's swap image: in the swap basis, the in-class move
    swapped = np.ravel_multi_index(states.levels[:, ::-1].T, trap.shape)
    moves = np.empty(states.size)
    for j, level in enumerate(states.levels):
        col = provider.column(*level).reshape(-1)
        moves[j] = col[swapped[j]]
        lumped[j] = states.lump(col)
    if basis == "swap":
        a, b = states.levels.T
        exits -= np.maximum(moves, 0.0) * (a != b)
    return _assemble(lumped.T, np.maximum(exits, 0.0), mode)


class ColumnSampler:
    """Jump sampler for Monte Carlo, on the states of a ``StateBasis`` (the
    grid if none is given), one per pulse provider of a run.

    ``exit_rates`` are the provider's exits at the states'
    representatives, bitwise the grid's, read without building a column.
    ``jump_distribution(j)``, called once per jump, builds and caches
    state j's cumulative rates, and the stepper's uniform u * exit rate,
    searched in them from the right, lands in one cell, past the last
    being the leak; ``destinations`` turns the cells of a round's jumps
    into states.

    On a column provider (``_Resonant``, ``_Full``) the rates are state j's
    column: the representative's raw column with its own m <- m entry
    zeroed, lumped (on the swap basis), clipped at 0 and summed, and a
    cell is a state.  At i != j its rates are bitwise those of
    ``rate_matrix(..., basis)``; at j it holds max(move, 0), the in-class
    move (a, b) -> (b, a) (0 on the grid and at a = b), which the
    generator folds into its diagonal.  A draw there is a jump to the
    trajectory's own class: thinning, so the exit clocks stay the grid's
    and the jump law, jump counts included, is the grid chain's.  On
    ``_Draws`` (2D resonant runs) they are the representative's draw
    table, 2 x (theta rows) + 1 doubles in place of a column, and
    ``destinations`` finishes the draws as emissions (``_emit``), the
    in-class move included; ``proposals`` counts the sampler's second-stage
    draws, rejections included.

    The samplers of one run share its ``_CacheBudget``, if given: a table
    that would take their cached ones past it is refused before it is
    built.  Nothing is evicted, so the cache holds every table built.
    """

    def __init__(self, provider: _Resonant | _Full | _Draws, basis: StateBasis | None = None,
                 budget: _CacheBudget | None = None):
        self._provider = provider
        self._basis = basis = basis or StateBasis(provider.trap)
        self._budget = budget
        levels = tuple(basis.levels.T)
        self.exit_rates = provider.exits[levels]
        self._own = np.ravel_multi_index(levels, provider.exits.shape)
        self._draws = isinstance(provider, _Draws)
        self._entries = provider.cells.shape[1] + 1 if self._draws else basis.size
        self._cache: dict[int, np.ndarray] = {}
        self.proposals = 0

    def jump_distribution(self, index: int):
        """(exit rate, cached cumulative rates of state ``index``): on the
        grid, ``RateMatrix.jump_distribution``, bitwise, for a column
        provider; a draw table for ``_Draws``."""
        cum = self._cache.get(index)
        if cum is None:
            if self._budget is not None:
                self._budget.take(8 * self._entries)
            if self._draws:
                cum = self._provider.table(index)
            else:
                cum = self._provider.column(*self._basis.levels[index]).reshape(-1).copy()
                cum[self._own[index]] = 0.0
                if self._basis.kind != "full":
                    cum = self._basis.lump(cum)
                np.maximum(cum, 0.0, out=cum)
                cum = np.cumsum(cum, out=cum)
            self._cache[index] = cum
        return float(self.exit_rates[index]), cum

    @staticmethod
    def destinations(samplers, which: np.ndarray, index: np.ndarray, u: np.ndarray,
                     tables, rng: np.random.Generator) -> np.ndarray:
        """The states one round's jumps land on (``size``: the leak), the
        jump i of ``samplers[which[i]]`` from state ``index[i]`` drawing
        ``u[i]`` below its exit rate: the right-sided search of ``u[i]`` in
        ``tables[i]``, its ``jump_distribution``, which on column samplers
        is the state, and on ``_Draws`` the cell where ``_emit`` finishes
        the draw (one sampler kind per run)."""
        if not samplers[0]._draws:
            return np.array([cum.searchsorted(x, side="right") for cum, x in
                             zip(tables, u.tolist())], dtype=np.int64)
        cum = np.array(tables)
        return _emit(samplers, which, index, np.count_nonzero(cum <= u[:, None], axis=1), cum, rng)


class _CacheBudget:
    """The bytes a Monte Carlo run's samplers may still cache, from
    ``MATRIX_MEMORY_BUDGET``; ``run`` names the run in the refusal."""

    def __init__(self, run: str):
        self.budget = self.left = MATRIX_MEMORY_BUDGET
        self.run = run

    def take(self, nbytes: int) -> None:
        """Count ``nbytes`` more, or refuse them with ``ResourceLimitError``
        where they pass the budget."""
        if nbytes > self.left:
            raise ResourceLimitError(
                f"the Monte Carlo column cache would pass {self.budget / 2**30:.3g} GiB "
                f"({self.run}); lower n_max or the trajectory count")
        self.left -= nbytes


# round-trip decimal formatting of every CSV/CLI emitter, as a printf field,
# so a writer formats each row with one ``%``
FLOAT_FIELD = "%.17g"


def format_float(x: float) -> str:
    """One value in ``FLOAT_FIELD``."""
    return FLOAT_FIELD % float(x)
