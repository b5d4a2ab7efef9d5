import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from dyncool import fc, rates
from dyncool.errors import DomainError, SingularRatioError
from dyncool.rates import TrapConfig

from oracles import fc_modulus_series, fc_reduced_series, laguerre_recurrence, recoil_phases


class TestLaguerre:
    """L_n^alpha(x) as the one Laguerre evaluator, ``reduced_stack``, holds
    it: the reduced factor of levels (n, n + alpha) at eta = sqrt(x), over
    its prefactor eta^alpha * exp(-x/2) * sqrt(n!/(n + alpha)!)."""

    @staticmethod
    def laguerre(n, alpha, x):
        value = fc.fc_reduced(math.sqrt(x), n, n + alpha)
        log_norm = 0.5 * (math.lgamma(n + 1) - math.lgamma(n + alpha + 1))
        return value / (math.sqrt(x) ** alpha * math.exp(log_norm - x / 2))

    def test_degree_zero_is_one(self):
        # any alpha within the domain rule alpha >= -n
        for alpha in (0, 5, 40):
            assert self.laguerre(0, alpha, 7.3) == pytest.approx(1.0, rel=1e-14)

    def test_degree_one_closed_form(self):
        # L_1^s(x) = 1 + s - x, zero at x = s + 1
        assert self.laguerre(1, 8, 9.0) == 0.0
        assert self.laguerre(1, 3, 1.5) == pytest.approx(2.5)

    def test_degree_two_dark_roots(self):
        # L_2^s zeros at x = (s+2)(1 +- (s+2)^{-1/2})
        s = 11
        for sign in (-1.0, 1.0):
            x = (s + 2) * (1.0 + sign / math.sqrt(s + 2))
            assert abs(self.laguerre(2, s, x)) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 9, 17, 33])
    @pytest.mark.parametrize("alpha", [0, 1, 4, 11])
    def test_against_series_oracle(self, n, alpha):
        # the reference is the mpmath recurrence: the defining series loses
        # its digits to cancellation from degree ~40
        for x in (0.25, 1.0, 9.0, 16.61):
            ref = float(laguerre_recurrence(n, alpha, x))
            got = self.laguerre(n, alpha, x)
            assert got == pytest.approx(ref, rel=1e-11, abs=1e-11 * abs(ref) + 1e-13)

    def test_negative_alpha_allowed_to_minus_n(self):
        # alpha = -n is fine; alpha < -n is outside the matrix-element domain
        assert self.laguerre(2, -2, 3.0) == pytest.approx(float(laguerre_recurrence(2, -2, 3.0)))
        with pytest.raises(DomainError):
            self.laguerre(2, -3, 3.0)

    def test_degree_cap(self):
        with pytest.raises(DomainError):
            fc.dark_eta_for_level(fc.MAX_LAGUERRE_DEGREE + 1, 0)
        with pytest.raises(DomainError):
            self.laguerre(3, 0, float("inf"))


class TestFcFactor:
    def test_diagonal_ground_state(self):
        assert fc.fc_factor(3.0, 0, 0) == pytest.approx(math.exp(-4.5), rel=1e-14)

    def test_zero_displacement_is_identity(self):
        for m, n in [(0, 0), (4, 4), (3, 7)]:
            expected = 1.0 if m == n else 0.0
            assert fc.fc_factor(0.0, m, n) == expected

    def test_first_sideband_closed_form(self):
        value = fc.fc_factor(3.0, 0, 1)
        assert abs(value) == pytest.approx(3.0 * math.exp(-4.5), rel=1e-14)
        assert value == pytest.approx(1j * 3.0 * math.exp(-4.5), rel=1e-14)

    def test_dark_transition_eta3(self):
        # eta^2 = s + 1 with s = 8 darkens level 1
        assert abs(fc.fc_factor(3.0, 1, 9)) < 1e-12

    def test_modulus_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m, n = rng.integers(0, 61, size=2)
            eta = float(rng.uniform(0.1, 4.0))
            a = abs(fc.fc_factor(eta, int(m), int(n)))
            b = abs(fc.fc_factor(eta, int(n), int(m)))
            assert a == pytest.approx(b, abs=1e-14 * max(1.0, a))

    def test_negative_eta_parity(self):
        for m, n in [(0, 3), (2, 2), (1, 6)]:
            plus = fc.fc_factor(2.2, m, n)
            minus = fc.fc_factor(-2.2, m, n)
            assert minus == pytest.approx((-1) ** abs(n - m) * plus, rel=1e-14)

    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0, 3.0, 3.065, 4.0])
    def test_unitarity(self, eta):
        # row norm of the displacement operator; headroom covers the
        # mean shift eta^2 plus 8 sigma of the eta*sqrt(2m+1) spread
        # (plus slack for the fat Poisson tail at small m)
        for m in (0, 5, 17, 40):
            n_max = m + math.ceil(eta * eta + 8.0 * eta * math.sqrt(2 * m + 1)) + 6
            total = sum(abs(fc.fc_factor(eta, m, n)) ** 2
                        for n in range(n_max + 1))
            assert 1.0 - 1e-8 <= total <= 1.0 + 1e-12

    def test_series_oracle_spot_checks(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            m = int(rng.integers(0, 31))
            s = int(rng.integers(-20, 21))
            n = m + s
            if n < 0:
                continue
            eta = float(rng.choice([0.5, 1.0, 2.0, 3.0, 3.065, 4.0]))
            ref = fc_modulus_series(eta, m, n)
            got = abs(fc.fc_factor(eta, m, n))
            if ref > 1e-30:
                assert got == pytest.approx(ref, rel=1e-10)


class TestFcRow:
    """Rows <n|exp(i*eta*(a+a^dag))|m>, n = 0..n_max, of the amplitude table
    recoil_phases * reduced_stack, and the fc_factor entries they slice."""

    @staticmethod
    def row(eta, m, n_max):
        return (recoil_phases(n_max, m) * fc.reduced_stack(np.array([eta]), n_max, m)[0])[:, m]

    def test_zero_eta_unit_vector(self):
        row = self.row(0.0, 5, 10)
        expected = np.zeros(11, dtype=complex)
        expected[5] = 1.0
        assert np.array_equal(row, expected)

    def test_matches_fc_factor(self):
        # the table row and the scalar slice both equal the signed series
        for eta in (0.7, 3.0, -2.1):
            for m in (0, 1, 7, 20):
                row = self.row(eta, m, 60)
                for n in range(61):
                    ref = 1j ** abs(n - m) * fc_reduced_series(eta, m, n)
                    got = fc.fc_factor(eta, m, n)
                    if abs(ref) > 1e-300:
                        assert abs(row[n] - ref) <= 1e-13 * abs(ref)
                        assert abs(got - ref) <= 1e-13 * abs(ref)
                    else:
                        assert abs(row[n]) <= 1e-300 and abs(got) <= 1e-300

    def test_unitarity_partial_sum(self):
        row = self.row(3.0, 0, 60)
        assert np.sum(np.abs(row) ** 2) >= 1.0 - 1e-10

    def test_dark_entry(self):
        # eta^2 = s + 1 with s = 8 darkens level 1
        assert abs(self.row(3.0, 1, 60)[9]) < 1e-12
        assert abs(fc.fc_reduced(3.0, 1, 9)) < 1e-12


class TestReducedStack:
    def test_reduced_stack_many_etas(self):
        etas = np.array([-2.5, -0.3, 0.0, 0.9, 3.0])
        for n_max, l_max in ((20, 25), (25, 20)):
            stack = fc.reduced_stack(etas, n_max, l_max)
            assert stack.shape == (5, n_max + 1, l_max + 1)
            for k, eta in enumerate(etas):
                for n in (0, 7, n_max):
                    for l in (0, 13, l_max):
                        ref = fc_reduced_series(float(eta), l, n)
                        assert stack[k, n, l] == pytest.approx(ref, rel=1e-12, abs=1e-280)
            # eta = 0 is the identity on the square part, zero elsewhere
            identity = np.zeros((n_max + 1, l_max + 1))
            np.fill_diagonal(identity, 1.0)
            assert np.array_equal(stack[2], identity)
        # with its i^|n-l| phases the stack is the full amplitude table
        table = recoil_phases(50, 60) * fc.reduced_stack(np.array([3.0]), 50, 60)[0]
        for m in (0, 3, 25, 50):
            for l in (0, 10, 42, 60):
                ref = 1j ** abs(m - l) * fc_reduced_series(3.0, m, l)
                if abs(ref) > 1e-280:
                    assert abs(table[m, l] - ref) <= 1e-12 * abs(ref)

    def test_deep_levels_finite(self):
        # 1060 levels: the unnormalised L_lo^d overflows from lo ~ d ~ 520
        stack = fc.reduced_stack(np.array([0.05, 1.0, 3.0]), 1060, 1060)
        assert np.all(np.isfinite(stack))
        for k, eta in enumerate((0.05, 1.0, 3.0)):
            for n, l in ((520, 540), (530, 530), (1000, 1055)):
                ref = fc_modulus_series(eta, n, l)
                assert abs(stack[k, n, l]) == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_scaled_band_start(self):
        # at eta = 3 the band d = 500 starts at 3^500 / sqrt(500!) e^-4.5,
        # below the double range, and grows to 1e-34 by level 3500
        stack = fc.reduced_stack(np.array([3.0]), 3500, 4000)
        ref = fc_reduced_series(3.0, 3500, 4000)
        assert 1e-35 < ref < 1e-33
        assert stack[0, 3500, 4000] == pytest.approx(ref, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("n_max, l_max", [(20, 25), (25, 20), (1060, 1060)])
    def test_weighted_sum_of_squares(self, n_max, l_max):
        # weights give sum_k w_k R_k^2 as one table, with the eta = 0 node's
        # identity rows and eta = 0.05's bands, which start below the double
        # range at the deep levels
        etas = np.array([-2.5, -0.3, 0.0, 0.05, 0.9, 3.0])
        w = np.array([0.3, 1.7, 0.2, 0.9, 1.1, 0.4])
        got = fc.reduced_stack(etas, n_max, l_max, weights=w)
        ref = np.tensordot(w, fc.reduced_stack(etas, n_max, l_max) ** 2, axes=1)
        assert got.shape == (n_max + 1, l_max + 1)
        assert np.all(np.abs(got - ref) <= 1e-15 * ref)

    def test_level_checks_before_allocation(self, monkeypatch):
        calls = []
        for name in ("reduced_stack", "reduced_bands", "_degrees"):
            monkeypatch.setattr(fc, name, lambda *args: calls.append(args))
        top = fc._INTERNAL_MAX_DEGREE + 1
        for args in ((1.0, -1, 3), (float("nan"), 0, 1), (1.0, 0, top)):
            with pytest.raises(DomainError):
                fc.fc_factor(*args)
        for args in ((1.0, (-1, 3)), (float("nan"), (0, 1)), (1.0, (0, top))):
            with pytest.raises(DomainError):
                fc.dark_ratio_A(*args)
        assert calls == []

    def test_scalar_holds_one_degree(self):
        # a scalar steps the bands one degree at a time and keeps the last:
        # bitwise the entry of the stacked bands, and (2000, 4000) peaks far
        # below the 61.8 MiB its 2001 bands x 2001 degrees held when stacked
        for eta in (0.0, 0.3, -1.1, 1.0, 3.065, 7.5):
            for m, n in ((0, 0), (3, 0), (5, 9), (120, 128), (1000, 1010)):
                lo, hi = min(m, n), max(m, n)
                bands = fc.reduced_bands(eta, hi - lo + 1, lo + 1)
                assert fc.fc_reduced(eta, m, n) == bands[hi - lo, lo]
        tracemalloc.start()
        try:
            fc.fc_reduced(3.0, 2000, 4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    @pytest.mark.parametrize("eta, n_max, s", [
        (3.0, 480, 8), (3.0, 480, 9), (3.0, 40, 18), (3.065, 48, 4), (0.05, 200, 3),
        (3.0, 3000, 1), (3.0, 480, -9), (0.0, 6, 2)])
    def test_bands_equal_table_bands(self, eta, n_max, s):
        # absorption bands are stepped alone, bitwise the bands of the
        # single-eta table a resonant run read them from before
        table = fc.reduced_stack(np.array([eta]), n_max, n_max + max(s, 0))[0]
        count = n_max + 1 - max(-s, 0)
        bands = fc.reduced_bands(eta, abs(s) + 1, count)
        for d in range(abs(s) + 1):
            assert bands[d].tobytes() == np.diagonal(table, d)[:count].tobytes()
        m = np.arange(n_max + 1)
        from_table = np.where(m + s >= 0, table[m, np.maximum(m + s, 0)], 0.0)
        tables = rates.AngularTables(TrapConfig(eta=eta, gamma_over_omega=0.01, n_max=n_max))
        assert rates._reduced_absorption(tables, s, m).tobytes() == from_table.tobytes()

    def test_trap_bands_grow(self):
        # a trap's bands grow to each band and degree count asked for; each
        # entry is bitwise that of bands built for it alone and of
        # fc_reduced, which keeps no table
        tables = rates.AngularTables(TrapConfig(eta=2.3, gamma_over_omega=0.01, n_max=5))
        shapes = []
        for d, count in ((2, 3), (1, 9), (7, 4), (3, 12)):
            bands = tables.bands(d, count)
            shapes.append(bands.shape)
            alone = fc.reduced_bands(2.3, d + 1, count)[d]
            assert bands[d, :count].tobytes() == alone.tobytes()
            assert bands[d, count - 1] == fc.fc_reduced(2.3, count - 1, count - 1 + d)
        # a detuning below every level reads no band: 10^6 bands are not built
        assert not rates._reduced_absorption(tables, -10 ** 6, range(6)).any()
        assert tables.bands(0, 1).shape == (8, 12)
        assert shapes == [(3, 3), (3, 9), (8, 9), (8, 12)]


class TestDarkSolvers:
    def test_level1_closed_form(self):
        for s in range(1, 21):
            roots = fc.dark_eta_for_level(1, s)
            assert len(roots) == 1
            assert roots[0] == pytest.approx(math.sqrt(s + 1), rel=1e-10)

    def test_level1_s_zero(self):
        assert fc.dark_eta_for_level(1, 0) == pytest.approx([1.0])

    def test_level2_closed_form(self):
        s = 11
        roots = fc.dark_eta_for_level(2, s)
        x_lo = (s + 2) * (1 - 1 / math.sqrt(s + 2))
        x_hi = (s + 2) * (1 + 1 / math.sqrt(s + 2))
        assert roots == pytest.approx([math.sqrt(x_lo), math.sqrt(x_hi)], rel=1e-10)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("s", [0, 1, 4, 11])
    def test_root_count_and_residuals(self, m, s):
        roots = fc.dark_eta_for_level(m, s)
        assert len(roots) == m
        assert all(b > a for a, b in zip(roots, roots[1:]))
        for eta in roots:
            assert abs(laguerre_recurrence(m, s, eta * eta)) < 1e-10 * max(
                1.0, abs(laguerre_recurrence(m, s, eta * eta + 0.1)))
            # the dark level really is dark
            assert abs(fc.fc_factor(eta, m, m + s)) < 1e-10

    @pytest.mark.parametrize("m, s", [(1, 8), (2, 11), (80, 0), (80, 1),
                                      (256, 0), (256, 11), (256, 1500)])
    def test_every_root_is_a_sign_change(self, m, s):
        # L_m^s changes sign across eta^2 (1 +- 1e-14), evaluated at 60 digits
        roots = fc.dark_eta_for_level(m, s)
        assert len(roots) == m
        assert all(b > a for a, b in zip(roots, roots[1:]))
        for eta in roots:
            with mp.workdps(60):
                x = mp.mpf(eta) ** 2
                below, above = x * (1 - mp.mpf("1e-14")), x * (1 + mp.mpf("1e-14"))
            assert laguerre_recurrence(m, s, below) * laguerre_recurrence(m, s, above) < 0

    def test_level_zero_rejected(self):
        with pytest.raises(DomainError):
            fc.dark_eta_for_level(0, 3)


class TestDarkRatio:
    def test_published_one_eighth(self):
        assert fc.dark_ratio_A(3.0, (0, 1)) == pytest.approx(0.125 + 0j, abs=1e-15)

    def test_diagonal_targets_give_minus_one(self):
        for m in (0, 1, 3, 6):
            if abs(fc.fc_reduced(3.0, m, m)) > 1e-14:
                assert fc.dark_ratio_A(3.0, (m, m)) == pytest.approx(-1.0 + 0j)

    def test_singular_denominator(self):
        # L_1(1) = 0: the y-diagonal factor of level 1 vanishes at eta = 1
        with pytest.raises(SingularRatioError) as err:
            fc.dark_ratio_A(1.0, (0, 1))
        assert "1.0" in str(err.value)
