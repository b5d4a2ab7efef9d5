"""Displaced harmonic-oscillator matrix elements and dark-state solvers.

The photon-recoil operator exp(i*eta*(a+a^dag)) connects trap levels m -> n
with amplitude

    <n|exp(i eta (a+a^dag))|m> = i^|n-m| * eta^|n-m| * exp(-eta^2/2)
                                 * sqrt(min(n,m)!/max(n,m)!)
                                 * L_min^{|n-m|}(eta^2)

where L is an associated Laguerre polynomial.  The reduced (phase-stripped)
factor is real and symmetric in (n, m); all observables in this package are
built from it.  Dark states arise exactly at the Laguerre zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularRatioError

MAX_LAGUERRE_DEGREE = 256

# ceiling for internal callers (large simulation bases legitimately exceed
# the public default)
_INTERNAL_MAX_DEGREE = 4096

# direct factorial products below this level, lgamma above (overflow safety)
_LOG_FACTORIAL_SWITCH = 150


@dataclass(frozen=True)
class FcAmplitude:
    """One recoil matrix element, with the projection it was evaluated at."""

    value: complex
    from_level: int
    to_level: int
    eta_effective: float


def laguerre_assoc(n: int, alpha: int, x: float,
                   max_degree: int = MAX_LAGUERRE_DEGREE) -> float:
    """Associated Laguerre L_n^alpha(x) by the three-term recurrence in n.

    Requires alpha >= -n; smaller alpha corresponds to transitions into
    negative trap levels and must be mapped to a zero rate by the caller.
    """
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    if n > max_degree:
        raise DomainError(f"degree {n} exceeds maximum {max_degree}")
    if alpha < -n:
        raise DomainError(f"alpha={alpha} < -n={-n}: matrix element undefined")
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    if n == 0:
        return 1.0
    prev = 1.0
    cur = 1.0 + alpha - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def _log_factorial_ratio(lo: int, hi: int) -> float:
    """log(lo!/hi!) for lo <= hi."""
    if hi <= _LOG_FACTORIAL_SWITCH:
        acc = 0.0
        for k in range(lo + 1, hi + 1):
            acc += math.log(k)
        return -acc
    return math.lgamma(lo + 1) - math.lgamma(hi + 1)


def fc_reduced(eta_eff: float, m: int, n: int) -> float:
    """Real reduced recoil factor: fc_factor with the i^|n-m| phase stripped.

    Signed, symmetric in (n, m); may be negative (Laguerre oscillation, or
    odd powers of a negative projected eta).
    """
    if m < 0 or n < 0:
        raise DomainError(f"trap levels must be >= 0, got ({m}, {n})")
    if not math.isfinite(eta_eff):
        raise DomainError(f"eta_eff must be finite, got {eta_eff}")
    lo, hi = (m, n) if m <= n else (n, m)
    d = hi - lo
    if eta_eff == 0.0:
        return 1.0 if d == 0 else 0.0
    x = eta_eff * eta_eff
    lag = laguerre_assoc(lo, d, x, max_degree=_INTERNAL_MAX_DEGREE)
    logpre = d * math.log(abs(eta_eff)) - 0.5 * x + 0.5 * _log_factorial_ratio(lo, hi)
    sign = -1.0 if (eta_eff < 0 and d % 2 == 1) else 1.0
    return sign * math.exp(logpre) * lag


_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def fc_factor(eta_eff: float, m: int, n: int) -> FcAmplitude:
    """Matrix element <n|exp(i*eta_eff*(a+a^dag))|m>."""
    value = _I_POWERS[abs(n - m) % 4] * fc_reduced(eta_eff, m, n)
    return FcAmplitude(value=complex(value), from_level=m, to_level=n,
                       eta_effective=eta_eff)


def fc_row(eta_eff: float, m: int, n_max: int) -> np.ndarray:
    """Amplitudes <n|exp(i*eta_eff*(a+a^dag))|m> for n = 0..n_max.

    Same kernel as fc_factor, batched over the Laguerre recurrences so a row
    costs O(n_max) once the degree loop is amortized.
    """
    if n_max < m:
        raise DomainError(f"n_max={n_max} < m={m}")
    out = np.zeros(n_max + 1, dtype=np.complex128)
    if eta_eff == 0.0:
        out[m] = 1.0
        return out
    x = eta_eff * eta_eff

    # n >= m: fixed degree m, order alpha = n - m handled as a vector.
    alphas = np.arange(0, n_max - m + 1, dtype=np.float64)
    prev = np.ones_like(alphas)
    if m == 0:
        lag_up = prev
    else:
        cur = 1.0 + alphas - x
        for k in range(1, m):
            prev, cur = cur, ((2 * k + 1 + alphas - x) * cur - (k + alphas) * prev) / (k + 1)
        lag_up = cur
    for i, a in enumerate(range(0, n_max - m + 1)):
        n = m + a
        logpre = a * math.log(abs(eta_eff)) - 0.5 * x + 0.5 * _log_factorial_ratio(m, n)
        sign = -1.0 if (eta_eff < 0 and a % 2 == 1) else 1.0
        out[n] = _I_POWERS[a % 4] * sign * math.exp(logpre) * lag_up[i]

    # n < m: symmetry of the reduced factor.
    for n in range(0, m):
        out[n] = _I_POWERS[(m - n) % 4] * fc_reduced(eta_eff, n, m)
    return out


def phase_table(n_max: int, l_max: int) -> np.ndarray:
    """i^|n-l| over the (n, l) grid."""
    d = np.abs(np.arange(n_max + 1)[:, None] - np.arange(l_max + 1)[None, :])
    return np.array([1.0, 1.0j, -1.0, -1.0j])[d % 4]


def reduced_stack(eta_proj: np.ndarray, n_max: int, l_max: int) -> np.ndarray:
    """Reduced factors R[k, n, l] at many projected etas at once.

    Evaluates the same log-space Laguerre form as fc_reduced, band by band
    in |n - l| with the degree recurrence vectorized over the eta values;
    stable for every entry (no cross-entry error propagation).
    """
    eta_proj = np.asarray(eta_proj, dtype=np.float64)
    k = eta_proj.shape[0]
    out = np.zeros((k, n_max + 1, l_max + 1))
    x = eta_proj ** 2
    abs_e = np.abs(eta_proj)
    nonzero = abs_e > 0.0
    log_abs = np.zeros_like(abs_e)
    log_abs[nonzero] = np.log(abs_e[nonzero])
    top = max(n_max, l_max)
    log_fac = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, 2 * top + 2)))))
    neg_sign = np.where(eta_proj < 0.0, -1.0, 1.0)

    for d in range(0, top + 1):
        lo_cap = max(min(n_max, l_max - d), min(l_max, n_max - d))
        if lo_cap < 0:
            continue
        # prefactor at lo = 0: e^{-x/2} |eta|^d / sqrt(d!)
        pref = np.exp(-0.5 * x + d * log_abs - 0.5 * log_fac[d])
        if d % 2 == 1:
            pref = pref * neg_sign
        prev = np.zeros(k)
        cur = np.ones(k)
        for lo in range(0, lo_cap + 1):
            if lo > 0:
                # degree step of L_lo^d and sqrt(lo!/(lo+d)!) update
                prev, cur = cur, (((2 * lo - 1 + d - x) * cur
                                   - (lo - 1 + d) * prev) / lo)
                pref = pref * math.sqrt(lo / (lo + d))
            val = pref * cur
            if lo <= n_max and lo + d <= l_max:
                out[:, lo, lo + d] = val
            if d > 0 and lo + d <= n_max and lo <= l_max:
                out[:, lo + d, lo] = val
    if not np.all(nonzero):
        zero_rows = np.where(~nonzero)[0]
        out[zero_rows] = 0.0
        diag = min(n_max, l_max) + 1
        out[zero_rows[:, None], np.arange(diag)[None, :], np.arange(diag)[None, :]] = 1.0
    return out


def dark_eta_for_level(m: int, s: int) -> list[float]:
    """All eta > 0 making trap level m dark under detuning index s.

    These are the square roots of the zeros of L_m^s; there are exactly m of
    them, returned ascending.  Level 0 is dark for any red detuning and has
    no root-based condition.
    """
    if m < 1:
        raise DomainError("level 0 has no dark-state condition (m >= 1 required)")
    if s < 0:
        raise DomainError(f"detuning index must be >= 0, got {s}")
    if m > MAX_LAGUERRE_DEGREE:
        raise DomainError(f"m={m} exceeds maximum degree {MAX_LAGUERRE_DEGREE}")
    roots = _laguerre_zeros(m, s)
    return [math.sqrt(x) for x in roots]


def _laguerre_zeros(m: int, s: int) -> list[float]:
    """Zeros of L_m^s by degree-interlacing brackets + bisection/Newton."""
    zeros: list[float] = []
    for k in range(1, m + 1):
        upper = 4.0 * k + 2.0 * s + 4.0  # above the largest zero of L_k^s
        brackets = [0.0] + zeros + [upper]
        new: list[float] = []
        for a, b in zip(brackets[:-1], brackets[1:]):
            new.append(_refine_zero(k, s, a, b))
        zeros = new
    return zeros


def _refine_zero(k: int, s: int, a: float, b: float) -> float:
    fa = laguerre_assoc(k, s, a)
    fb = laguerre_assoc(k, s, b)
    if fa == 0.0:
        # interlacing gives open brackets; nudge off the shared endpoint
        a = math.nextafter(a, b)
        fa = laguerre_assoc(k, s, a)
    if fa * fb > 0:
        raise DomainError(f"no sign change in bracket ({a}, {b}) for L_{k}^{s}")
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = laguerre_assoc(k, s, mid)
        if fm == 0.0:
            a = b = mid
            break
        if fa * fm < 0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
        if b - a <= 1e-14 * max(1.0, abs(mid)):
            break
    x = 0.5 * (a + b)
    # Newton polish; d/dx L_k^s = -L_{k-1}^{s+1}
    for _ in range(6):
        f = laguerre_assoc(k, s, x)
        df = -laguerre_assoc(k - 1, s + 1, x) if k >= 1 else 0.0
        if df == 0.0:
            break
        step = f / df
        x_new = x - step
        if not (a - 1e-9 <= x_new <= b + 1e-9):
            break
        x = x_new
        if abs(step) <= 1e-15 * max(1.0, abs(x)):
            break
    return x


def dark_ratio_A(eta: float, target: tuple[int, int]) -> complex:
    """Two-laser amplitude ratio that darkens one 2D level at zero detuning.

    A = -<mx|e^{ikx}|mx> / <my|e^{iky}|my>; substituting into the
    zero-detuning empty rate cancels the target exactly.  Raises when the
    y-axis diagonal factor vanishes (eta at a Laguerre zero of the target's
    y level).
    """
    mx, my = target
    if mx < 0 or my < 0:
        raise DomainError(f"target levels must be >= 0, got {target}")
    num = fc_reduced(eta, mx, mx)
    den = fc_reduced(eta, my, my)
    if abs(den) <= 1e-14:
        nearby = dark_eta_for_level(my, 0) if my >= 1 else []
        raise SingularRatioError(
            f"diagonal factor of level {my} vanishes at eta={eta}; "
            f"nearby dark etas for that level: {nearby}")
    return complex(-num / den)
