"""Displaced harmonic-oscillator matrix elements and dark-state solvers.

The photon-recoil operator exp(i*eta*(a+a^dag)) connects trap levels m -> n
with amplitude

    <n|exp(i eta (a+a^dag))|m> = i^|n-m| * eta^|n-m| * exp(-eta^2/2)
                                 * sqrt(min(n,m)!/max(n,m)!)
                                 * L_min^{|n-m|}(eta^2)

where L is an associated Laguerre polynomial.  The reduced (phase-stripped)
factor is real and symmetric in (n, m); all observables in this package are
built from it.  Dark states arise exactly at the Laguerre zeros.

One evaluator computes every factor: ``reduced_stack`` steps the Laguerre
degree recurrence for all bands |n - m| and projected etas at once, on the
normalised factor, which is bounded by 1.  ``fc_reduced`` and ``fc_factor``
are single entries of it.  The dark-state solver evaluates no Laguerre
polynomial: the zeros are the singular values of a bidiagonal factor of
their Jacobi matrix.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularRatioError

# cap on the level m asked for by outside input: dark_eta_for_level holds its
# Jacobi factor as a dense m x m matrix
MAX_LAGUERRE_DEGREE = 256

# ceiling for internal callers (large simulation bases legitimately exceed
# the public default)
_INTERNAL_MAX_DEGREE = 4096

_LN2 = math.log(2.0)
# reduced_stack moves the growth of its band values into their exponents this
# often; 32 steps grow a value by less than 1e42 for d <= 4096 and eta <= 10
_RESCALE_EVERY = 32
# e^{-eta^2/2}, a factor of every diagonal entry, is subnormal above this eta
_RATIO_MAX_ETA = math.sqrt(-2.0 * math.log(np.finfo(np.float64).tiny))


@dataclass(frozen=True)
class FcAmplitude:
    """One recoil matrix element, with the projection it was evaluated at."""

    value: complex
    from_level: int
    to_level: int
    eta_effective: float


_memo = (math.nan, np.zeros((0, 0)))  # fc_reduced's last eta and its table
_MEMO_ENTRIES = 1 << 20  # larger tables are not kept


def fc_reduced(eta_eff: float, m: int, n: int) -> float:
    """Real reduced recoil factor: fc_factor with the i^|n-m| phase stripped.

    Signed, symmetric in (n, m); may be negative (Laguerre oscillation, or
    odd powers of a negative projected eta).  One entry of ``reduced_stack``,
    read from the last eta's table, grown to each (lo, hi) asked for.
    """
    global _memo
    if m < 0 or n < 0:
        raise DomainError(f"trap levels must be >= 0, got ({m}, {n})")
    if not math.isfinite(eta_eff):
        raise DomainError(f"eta_eff must be finite, got {eta_eff}")
    lo, hi = (m, n) if m <= n else (n, m)
    if hi > _INTERNAL_MAX_DEGREE:
        raise DomainError(f"level {hi} exceeds maximum {_INTERNAL_MAX_DEGREE}")
    eta, table = _memo
    rows, cols = table.shape if eta == eta_eff else (0, 0)
    if lo >= rows or hi >= cols:
        table = reduced_stack(np.array([eta_eff]), max(lo, rows - 1), max(hi, cols - 1))[0]
        if table.size <= _MEMO_ENTRIES:
            _memo = (eta_eff, table)
    return float(table[lo, hi])


_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def fc_factor(eta_eff: float, m: int, n: int) -> FcAmplitude:
    """Matrix element <n|exp(i*eta_eff*(a+a^dag))|m>."""
    value = _I_POWERS[abs(n - m) % 4] * fc_reduced(eta_eff, m, n)
    return FcAmplitude(value=complex(value), from_level=m, to_level=n,
                       eta_effective=eta_eff)


def phase_table(n_max: int, l_max: int) -> np.ndarray:
    """i^|n-l| over the (n, l) grid."""
    d = np.abs(np.arange(n_max + 1)[:, None] - np.arange(l_max + 1)[None, :])
    return np.array([1.0, 1.0j, -1.0, -1.0j])[d % 4]


def reduced_stack(eta_proj: np.ndarray, n_max: int, l_max: int, *,
                  weights: np.ndarray | None = None) -> np.ndarray:
    """Reduced factors R[k, n, l] at many projected etas at once.

    Steps the degree lo = min(n, l) once for every band d = |n - l| and eta
    together, on the normalised factor

        g = e^{-x/2} eta^d sqrt(lo!/(lo+d)!) L_lo^d(x),   x = eta^2,

    which is the entry itself and is bounded by 1 in modulus, so the
    recurrence cannot overflow.  Each band carries a power-of-two exponent
    beside its values, so a band whose first value e^{-x/2} |eta|^d / sqrt(d!)
    is below the double range (deep bands, small eta) still grows into it:
    an entry reads 0 only where it underflows itself.  No error is carried
    across bands; an entry's absolute error is at the rounding level of its
    band's largest value.  The tests check entries against the exact series
    to 1e-10 relative up to level 1060 (eta = 0.05, 1, 3) and at levels
    3500/4000 (eta = 3), where the band starts below the double range.

    With ``weights`` w, one per eta, it returns sum_k w_k R[k, n, l]^2 as one
    (n_max+1, l_max+1) table instead, adding each degree's entries as they
    are stepped, so no stack is held.
    """
    eta = np.asarray(eta_proj, dtype=np.float64)
    zero = eta == 0.0
    eta = np.where(zero, 1.0, eta)  # rows reset to the identity below
    if weights is None:
        out = np.zeros((eta.shape[0], n_max + 1, l_max + 1))
    else:
        w = np.where(zero, 0.0, weights)  # identity rows are added at the end
        out = np.zeros((n_max + 1, l_max + 1))
    top = max(n_max, l_max)
    d = np.arange(top + 1.0)
    x = (eta * eta)[:, None]
    # lo = 0: g = e^{-x/2} eta^d / sqrt(d!) <= 1, held as cur * 2^expo, 1 <= |cur| < 2
    log_g = (-0.5 * x + d * np.log(np.abs(eta))[:, None]
             - 0.5 * np.array([math.lgamma(v + 1.0) for v in d]))
    expo = np.floor(log_g / _LN2).astype(int)
    cur = np.exp(log_g - expo * _LN2)
    cur[(eta < 0.0)[:, None] & (d % 2 == 1)] *= -1.0
    prev = np.zeros_like(cur)
    scale = np.ldexp(1.0, expo)
    for lo in range(min(n_max, l_max) + 1):
        nb = top - lo + 1  # bands d that still have an entry of degree lo
        if lo > 0:
            dd = d[:nb]
            inv = 1.0 / np.sqrt(lo * (lo + dd))
            # L_lo^d = ((2lo-1+d-x) L_{lo-1}^d - (lo-1+d) L_{lo-2}^d) / lo, normalised
            step = (2 * lo - 1 + dd - x) * inv
            step *= cur[:, :nb]
            step -= np.sqrt((lo - 1) * (lo - 1 + dd)) * inv * prev[:, :nb]
            prev, cur = cur[:, :nb], step
            if lo % _RESCALE_EVERY == 0:
                # move each band's growth out of its values into its exponent
                shift = np.clip(np.frexp(cur)[1], 0, -expo[:, :nb])
                cur, prev = np.ldexp(cur, -shift), np.ldexp(prev, -shift)
                expo = expo[:, :nb] + shift
                scale = np.ldexp(1.0, expo)
        val = cur * scale[:, :nb]
        if weights is not None:
            val = w @ (val * val)
        out[..., lo, lo:] = val[..., :l_max + 1 - lo]
        out[..., lo + 1:, lo] = val[..., 1:n_max + 1 - lo]
    if np.any(zero):
        rows, diag = np.flatnonzero(zero), np.arange(min(n_max, l_max) + 1)
        if weights is not None:
            out[diag, diag] += np.sum(np.asarray(weights)[rows])
            return out
        out[rows] = 0.0
        out[rows[:, None], diag, diag] = 1.0
    return out


def dark_eta_for_level(m: int, s: int) -> list[float]:
    """All eta > 0 making trap level m dark under detuning index s.

    These are the square roots of the zeros of L_m^s; there are exactly m of
    them, returned ascending.  The zeros are the eigenvalues of the Jacobi
    matrix of L^s (Golub & Welsch 1969): diagonal 2k + s + 1, off-diagonal
    sqrt(k (k + s)).  It is U^T U for the upper bidiagonal U with diagonal
    sqrt(k + s + 1) and superdiagonal sqrt(k), k < m, so the etas are the
    singular values of U: within 1.5e-15 relative of 80-digit roots for
    m <= 256 and s up to 1e5, and the tests see L_m^s change sign across
    eta^2 (1 +- 1e-14) at each.  U is held dense, which is what the cap on
    m bounds.  Level 0 is dark for any red detuning and has no root-based
    condition.
    """
    if m < 1:
        raise DomainError("level 0 has no dark-state condition (m >= 1 required)")
    if s < 0:
        raise DomainError(f"detuning index must be >= 0, got {s}")
    if m > MAX_LAGUERRE_DEGREE:
        raise DomainError(f"m={m} exceeds maximum degree {MAX_LAGUERRE_DEGREE}")
    k = np.arange(m, dtype=np.float64)
    u = np.diag(np.sqrt(k + s + 1.0)) + np.diag(np.sqrt(k[1:]), 1)
    return np.linalg.svd(u, compute_uv=False)[::-1].tolist()


def dark_ratio_A(eta: float, target: tuple[int, int]) -> complex:
    """Two-laser amplitude ratio that darkens one 2D level at zero detuning.

    A = -<mx|e^{ikx}|mx> / <my|e^{iky}|my>; substituting into the
    zero-detuning empty rate cancels the target exactly.  Refuses |eta| >
    37.64, where e^{-eta^2/2} is subnormal and the ratio loses digits.
    Raises when the y-axis diagonal factor vanishes (eta at a Laguerre zero
    of the target's y level) to rounding, relative to the largest diagonal
    factor up to my; the message lists that level's dark etas nearest to
    eta on each side, where the level is within MAX_LAGUERRE_DEGREE.
    """
    mx, my = target
    if mx < 0 or my < 0:
        raise DomainError(f"target levels must be >= 0, got {target}")
    if abs(eta) > _RATIO_MAX_ETA:
        raise DomainError(f"eta={eta} exceeds {_RATIO_MAX_ETA:.4f}, above which "
                          "e^(-eta^2/2) leaves the normal double range")
    num = fc_reduced(eta, mx, mx)
    den = fc_reduced(eta, my, my)
    # den's rounding grows with my, relative to its band's largest value (<= 1)
    tol = 1e-14 * (my + 1)
    if abs(den) <= tol and abs(den) <= tol * np.abs(
            reduced_stack(np.array([eta]), my, my)[0].diagonal()).max():
        nearby = ""
        if 1 <= my <= MAX_LAGUERRE_DEGREE:
            roots = dark_eta_for_level(my, 0)
            i = bisect.bisect_left(roots, abs(eta))
            nearby = f"; nearest dark etas for that level: {roots[max(i - 1, 0):i + 1]}"
        raise SingularRatioError(
            f"diagonal factor of level {my} vanishes at eta={eta}{nearby}")
    return complex(-num / den)
