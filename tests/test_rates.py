import math

import numpy as np
import pytest

from dyncool import fc, rates
from dyncool.errors import DomainError, ResourceLimitError, ValidityError
from dyncool.rates import (Pulse, TrapConfig, angular_quadrature, dipole_pattern,
                           empty_rates_1d, empty_rates_2d, rate_matrix,
                           rate_matrix_1d, rate_matrix_2d)


def trap_1d(eta=3.0, n_max=40, **kw):
    return TrapConfig(eta=eta, gamma_over_omega=0.01, dims=1, n_max=n_max, **kw)


def trap_2d(eta=3.0, n_max=8, **kw):
    return TrapConfig(eta=eta, gamma_over_omega=0.01, dims=2, n_max=n_max, **kw)


def at_doubled_line_order(monkeypatch, build):
    """``build()`` evaluated with every 1D line rule at twice its order."""
    order = rates._line_order
    monkeypatch.setattr(rates, "_line_order", lambda eta, l_max: 2 * order(eta, l_max))
    rates.clear_caches()
    try:
        return build()
    finally:
        monkeypatch.undo()
        rates.clear_caches()


class TestTrapConfig:
    def test_festina_lente_guard(self):
        with pytest.raises(ValidityError):
            TrapConfig(eta=1.0, gamma_over_omega=1.5, dims=1, n_max=10)
        trap = TrapConfig(eta=1.0, gamma_over_omega=1.5, dims=1, n_max=10,
                          allow_weak_confinement=True)
        assert trap.gamma_over_omega == 1.5

    def test_basic_validation(self):
        with pytest.raises(DomainError):
            TrapConfig(eta=-1.0, gamma_over_omega=0.1)
        with pytest.raises(DomainError):
            TrapConfig(eta=1.0, gamma_over_omega=0.1, dims=3)
        with pytest.raises(DomainError):
            TrapConfig(eta=1.0, gamma_over_omega=0.1, dipole="cardioid")
        with pytest.raises(DomainError):
            TrapConfig(eta=1.0, gamma_over_omega=0.1, quad_theta=2)

    def test_eta_hat2_and_indexing(self):
        trap = trap_2d(eta=3.065, n_max=5)
        assert trap.eta_hat2 == 9
        assert trap.n_states == 36
        assert trap.flat_index((2, 3)) == 15
        with pytest.raises(DomainError):
            trap.flat_index((6, 0))

    def test_recommended_n_max(self):
        trap = trap_1d(eta=3.0)
        assert trap.recommended_n_max(6.0) == math.ceil(18 + 6 + 6 * math.sqrt(6))


class TestDipolePattern:
    def test_isotropic_value(self):
        assert dipole_pattern("isotropic", 0.3, 1.2) == pytest.approx(1 / (4 * math.pi))

    def test_dipole_z_peak(self):
        assert dipole_pattern("dipole_z", math.pi / 2, 0.0) == pytest.approx(3 / (8 * math.pi))

    @pytest.mark.parametrize("tag", ["isotropic", "dipole_z"])
    def test_normalization_via_quadrature(self, tag):
        theta, phi, w = angular_quadrature(32, 64)
        total = np.sum(w * dipole_pattern(tag, theta, phi))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_unknown_tag(self):
        with pytest.raises(DomainError):
            dipole_pattern("sideways", 0.1, 0.1)


class TestAngularQuadrature:
    def test_node_count_and_weight_sum(self):
        theta, phi, w = angular_quadrature(4, 8)
        assert theta.shape == (32,)
        assert np.sum(w) == pytest.approx(4 * math.pi, abs=1e-12)

    def test_gauss_exactness(self):
        # degree-5 polynomial in cos(theta) integrated exactly at order 4
        theta, phi, w = angular_quadrature(4, 8)
        c = np.cos(theta)
        poly = 1.0 + c - 2 * c**2 + 0.5 * c**3 - c**4 + 3 * c**5
        got = np.sum(w * poly)
        # analytic: 2*pi * int_{-1}^{1} poly dc
        ref = 2 * math.pi * (2 + 0 - 4 / 3 + 0 - 2 / 5 + 0)
        assert got == pytest.approx(ref, rel=1e-13)

    def test_order_guard(self):
        with pytest.raises(DomainError):
            angular_quadrature(3, 8)

    def test_self_convergence_at_defaults(self, monkeypatch):
        # doubling the 1D line order moves no significant entry by more
        # than 1e-8, in either rate mode
        trap = trap_1d()
        cases = [(s, "resonant") for s in (-9, 0, 8)] + [(-0.5, "full")]

        def build():
            return [rate_matrix_1d(trap, Pulse(s=s, duration=1.0), mode).generator
                    for s, mode in cases]

        for m1, m2 in zip(build(), at_doubled_line_order(monkeypatch, build)):
            mask = np.abs(m2) > 1e-12
            rel = (np.abs(m1 - m2)[mask] / np.abs(m2)[mask]).max()
            assert rel < 1e-8

    @pytest.mark.parametrize("dipole", ["isotropic", "dipole_z"])
    def test_line_rule_matches_sphere_rule(self, dipole):
        # the 1D emission kernel on the line rule equals the sphere integral
        # of angular_quadrature x dipole_pattern, which converges below
        # level ~68 at eta = 3
        trap = trap_1d(n_max=40, dipole=dipole)
        l_max = 48
        theta, phi, w = angular_quadrature(64, 128)
        wgt = w * dipole_pattern(dipole, theta, phi)
        eta_u = trap.eta * np.sin(theta) * np.cos(phi)
        ref = np.zeros((trap.n_max + 1, l_max + 1))
        for start in range(0, eta_u.shape[0], 1024):
            sl = slice(start, start + 1024)
            chunk = fc.reduced_stack(eta_u[sl], trap.n_max, l_max)
            ref += np.tensordot(wgt[sl], chunk ** 2, axes=1)
        kernel = rates.angular_tables(trap).emission_kernel(l_max)
        assert np.abs(kernel - ref).max() <= 1e-14

    def test_line_order_converged_deep(self, monkeypatch):
        # N against 2N at the depth of the fig3 benchmark workload
        trap = trap_1d(n_max=480)

        def build():
            return rates.angular_tables(trap).emission_kernel(480)

        base = build()
        assert np.abs(base - at_doubled_line_order(monkeypatch, build)).max() <= 1e-12


class TestEmptyRates1d:
    def test_dark_level_blue_pulse(self):
        assert empty_rates_1d(trap_1d(), 8)[1] == 0.0

    def test_negative_levels_zero(self):
        vec = empty_rates_1d(trap_1d(eta=1.7), -1)
        assert vec[0] == 0.0
        vec9 = empty_rates_1d(trap_1d(), -9)
        assert np.all(vec9[:9] == 0.0)

    def test_carrier_ground_rate(self):
        assert empty_rates_1d(trap_1d(), 0)[0] == pytest.approx(math.exp(-9.0), rel=1e-13)

    def test_confinement_complementarity(self):
        # the two slightly detuned confinement pulses cover each other's
        # quasi-zero minima (frozen floor derived from this operation and
        # cross-checked against the high-precision series oracle)
        from oracles import fc_modulus_series
        r9 = empty_rates_1d(trap_1d(), -9)
        r10 = empty_rates_1d(trap_1d(), -10)
        combined = np.maximum(r9, r10)[10:41]
        assert combined.min() > 5e-3
        # each vector alone has at least one quasi-zero minimum
        assert r9[10:41].min() < 1e-4 < r10[11:41].min() + 1.0
        m9 = 10 + int(np.argmin(r9[10:41]))
        assert r9[m9] == pytest.approx(fc_modulus_series(3.0, m9, m9 - 9) ** 2, rel=1e-9)

    def test_requires_1d(self):
        with pytest.raises(DomainError):
            empty_rates_1d(trap_2d(), 0)

    def test_non_integer_detuning_rejected(self):
        with pytest.raises(ValidityError, match="not an integer"):
            empty_rates_1d(trap_1d(), 8.5)

    def test_carrier_rate_decays_with_recoil(self):
        # the m=0 zero-detuning rate carries the full exp(-eta^2)
        # suppression; it is what dies when eta grows past ~4
        prev = None
        for eta in (2.0, 3.0, 4.0, 4.5):
            rate = empty_rates_1d(trap_1d(eta=eta, n_max=10), 0)[0]
            assert rate == pytest.approx(math.exp(-eta * eta), rel=1e-12)
            if prev is not None:
                assert rate < prev
            prev = rate


class TestEmptyRates2d:
    def test_diagonal_dark_at_minus_one(self):
        grid = empty_rates_2d(trap_2d(n_max=10), Pulse(s=0, duration=1, amplitude_ratio=-1))
        assert np.all(grid.reshape(11, 11).diagonal() == 0.0)

    def test_one_eighth_darkens_01(self):
        grid = empty_rates_2d(trap_2d(), Pulse(s=0, duration=1, amplitude_ratio=0.125))
        assert grid.reshape(9, 9)[0, 1] == 0.0
        assert grid.reshape(9, 9)[1, 0] > 1e-3

    def test_blue_dark_level_11(self):
        grid = empty_rates_2d(trap_2d(), Pulse(s=8, duration=1, amplitude_ratio=1.0))
        assert grid.reshape(9, 9)[1, 1] == 0.0

    def test_unit_ratio_is_square_of_sum(self):
        trap = trap_2d(eta=1.3, n_max=6)
        grid = empty_rates_2d(trap, Pulse(s=0, duration=1, amplitude_ratio=1.0)).reshape(7, 7)
        f = np.array([fc.fc_reduced(1.3, m, m) for m in range(7)])
        ref = (f[:, None] + f[None, :]) ** 2
        assert np.allclose(grid, ref, rtol=1e-13, atol=1e-300)

    def test_cross_term_only_at_s_zero(self):
        trap = trap_2d(eta=1.3, n_max=6)
        g_plus = empty_rates_2d(trap, Pulse(s=2, duration=1, amplitude_ratio=1.0))
        g_minus = empty_rates_2d(trap, Pulse(s=2, duration=1, amplitude_ratio=-1.0))
        assert np.array_equal(g_plus, g_minus)


def brute_column_2d(trap, pulse, mx, my):
    """Literal complex-amplitude quadrature sum built from fc_row only."""
    s = int(pulse.s)
    a = complex(pulse.amplitude_ratio)
    theta, phi, w = angular_quadrature(trap.quad_theta, trap.quad_phi)
    wgt = w * dipole_pattern(trap.dipole, theta, phi)
    n1 = trap.n_max + 1
    out = np.zeros((n1, n1))
    c1 = fc.fc_factor(trap.eta, mx, mx + s).value if mx + s >= 0 else 0.0
    c2 = a * (fc.fc_factor(trap.eta, my, my + s).value if my + s >= 0 else 0.0)
    def row_from(eta_eff, level):
        if level < 0:
            return np.zeros(n1, dtype=complex)
        return np.array([fc.fc_factor(eta_eff, level, n).value for n in range(n1)])

    for k in range(theta.shape[0]):
        ex = trap.eta * math.sin(theta[k]) * math.cos(phi[k])
        ey = trap.eta * math.sin(theta[k]) * math.sin(phi[k])
        amp = c1 * np.outer(row_from(ex, mx + s), row_from(ey, my)) \
            + c2 * np.outer(row_from(ex, mx), row_from(ey, my + s))
        out += wgt[k] * np.abs(amp) ** 2
    return out


class TestRateMatrix1d:
    def test_dark_column_exact(self):
        mat = rate_matrix_1d(trap_1d(n_max=30), Pulse(s=8, duration=1.0))
        assert np.all(mat.generator[:, 1] == 0.0)
        assert mat.leak[1] == 0.0

    def test_nonnegative_off_diagonal(self):
        mat = rate_matrix_1d(trap_1d(n_max=30), Pulse(s=-9, duration=1.0))
        off = mat.generator.copy()
        np.fill_diagonal(off, 0.0)
        assert np.all(off >= 0.0)

    def test_column_sums_equal_minus_leak(self):
        mat = rate_matrix_1d(trap_1d(n_max=30), Pulse(s=0, duration=1.0))
        assert np.allclose(mat.generator.sum(axis=0), -mat.leak, atol=1e-15)

    def test_closure_against_analytic_empty_rates(self):
        # emission redistribution must telescope to the analytic totals
        # once the basis has enough headroom above the probed levels
        eta, top = 3.0, 40
        head = math.ceil(eta * eta + 7.0 * eta * math.sqrt(2 * (top + 8) + 1))
        trap = trap_1d(n_max=top + 8 + head)
        for s in (-9, 0, 8):
            mat = rate_matrix_1d(trap, Pulse(s=s, duration=1.0))
            target = empty_rates_1d(trap, s)
            off = mat.generator.copy()
            np.fill_diagonal(off, 0.0)
            total = off.sum(axis=0) + mat.self_rates
            for m in range(top + 1):
                if target[m] > 0:
                    assert total[m] == pytest.approx(target[m], rel=1e-8)

    def test_lamb_dicke_limit_is_sideband_ladder(self):
        # eta -> 0 with s = -1: only |n=m-1 <- m| survives, rate eta^2 * m
        trap = trap_1d(eta=1e-3, n_max=12)
        mat = rate_matrix_1d(trap, Pulse(s=-1, duration=1.0))
        gen = mat.generator.copy()
        np.fill_diagonal(gen, 0.0)
        for m in range(1, 13):
            ladder = float(gen[m - 1, m])
            assert ladder == pytest.approx(1e-6 * m, rel=1e-4)
            others = np.delete(gen[:, m], m - 1)
            assert others.max() <= 1e-5 * ladder

    def test_full_mode_accepts_fractional_detuning(self):
        trap = trap_1d(n_max=12)
        mat = rate_matrix_1d(trap, Pulse(s=-0.5, duration=1.0), mode="full")
        assert mat.mode == "full"
        with pytest.raises(ValidityError):
            rate_matrix_1d(trap, Pulse(s=-0.5, duration=1.0), mode="resonant")

    def test_full_approaches_resonant_in_small_gamma(self):
        worst = []
        for g in (1e-2, 1e-3, 1e-4):
            trap = TrapConfig(eta=3.0, gamma_over_omega=g, dims=1, n_max=40)
            for s in (-9, 0, 8):
                full = rate_matrix_1d(trap, Pulse(s=s, duration=1.0), mode="full")
                res = empty_rates_1d(trap, s)
                off = full.generator.copy()
                np.fill_diagonal(off, 0.0)
                total = off.sum(axis=0) + full.self_rates + full.leak
                mask = res > 1e-6
                worst.append((np.abs(total - res)[mask] / res[mask]).max())
        by_gamma = [max(worst[i:i + 3]) for i in range(0, 9, 3)]
        assert by_gamma[1] < 1e-2  # the gamma/omega = 1e-3 comparison
        assert by_gamma[0] > by_gamma[1] > by_gamma[2]


class TestRateMatrix2d:
    @pytest.mark.parametrize("s,a", [(0, -1.0), (0, 0.125), (-1, 1.0),
                                     (2, 0.3 + 0.4j), (-3, -1.0), (3, 1j)])
    def test_column_matches_brute_force(self, s, a):
        trap = trap_2d(eta=1.7, n_max=5, quad_theta=6, quad_phi=8)
        pulse = Pulse(s=s, duration=1.0, amplitude_ratio=a)
        mat = rate_matrix_2d(trap, pulse)
        n1 = trap.n_max + 1
        for mx, my in [(0, 0), (1, 0), (2, 3), (3, 3)]:
            fast = mat.generator[:, mx * n1 + my].copy().reshape(n1, n1)
            fast[mx, my] = 0.0  # generator diagonal holds -outflow
            slow = brute_column_2d(trap, pulse, mx, my)
            slow[mx, my] = 0.0  # the self term is kept out of the generator
            scale = max(slow.max(), 1e-30)
            assert np.abs(fast - slow).max() / scale < 1e-12

    def test_diagonal_dark_columns(self):
        trap = trap_2d(n_max=10)
        mat = rate_matrix_2d(trap, Pulse(s=0, duration=1.0, amplitude_ratio=-1.0))
        for m in range(11):
            j = m * 11 + m
            assert np.all(mat.generator[:, j] == 0.0)
            assert mat.leak[j] == 0.0

    def test_single_laser_limit_is_tensored_1d(self):
        # A = 0: x-channel rates tensored with y-emission redistribution;
        # marginalizing the y destination recovers the 1D matrix (at small
        # eta so the y-ladder truncation tail is negligible)
        trap2 = trap_2d(eta=0.5, n_max=10)
        trap1 = trap_1d(eta=0.5, n_max=10)
        s = -1
        m2 = rate_matrix_2d(trap2, Pulse(s=s, duration=1.0, amplitude_ratio=0.0))
        m1 = rate_matrix_1d(trap1, Pulse(s=s, duration=1.0))
        n1 = 11
        for mx in range(n1):
            grid = m2.generator[:, mx * n1 + 0].reshape(n1, n1).copy()
            grid[mx, 0] = 0.0
            summed = grid.sum(axis=1)
            summed[mx] += m2.self_rates[mx * n1 + 0]
            col1 = m1.generator[:, mx].copy()
            col1[mx] = m1.self_rates[mx]
            assert np.allclose(summed, col1, rtol=1e-9, atol=1e-13)

    def test_row_sum_closure_2d(self):
        eta, top = 1.5, 5
        head = math.ceil(eta * eta + 7.0 * eta * math.sqrt(2 * (top + 2) + 1))
        trap = trap_2d(eta=eta, n_max=top + 2 + head)
        pulse = Pulse(s=2, duration=1.0, amplitude_ratio=0.5 + 0.1j)
        mat = rate_matrix_2d(trap, pulse)
        target = empty_rates_2d(trap, pulse).reshape(-1)
        off = mat.generator.copy()
        np.fill_diagonal(off, 0.0)
        total = off.sum(axis=0) + mat.self_rates
        n1 = trap.n_max + 1
        for mx in range(top + 1):
            for my in range(top + 1):
                j = mx * n1 + my
                if target[j] > 1e-12:
                    assert total[j] == pytest.approx(target[j], rel=1e-6)

    def test_full_mode_2d_column_positive_and_closes(self):
        trap = trap_2d(eta=1.2, n_max=4, quad_theta=8, quad_phi=8)
        pulse = Pulse(s=0, duration=1.0, amplitude_ratio=-1.0)
        mat = rate_matrix_2d(trap, pulse, mode="full")
        off = mat.generator.copy()
        np.fill_diagonal(off, 0.0)
        assert np.all(off >= 0.0)
        # full mode washes out the exact interference darkness at finite gamma
        j = 1 * 5 + 1
        assert 0.0 < -mat.generator[j, j] < 1e-2

    def test_memory_budget_guard(self):
        with pytest.raises(ResourceLimitError):
            rate_matrix_2d(trap_2d(n_max=300), Pulse(s=0, duration=1.0))


class TestColumnSampler:
    def test_matches_dense_matrix(self):
        trap = trap_2d(eta=1.7, n_max=6)
        pulse = Pulse(s=-1, duration=1.0, amplitude_ratio=-1.0)
        dense = rate_matrix_2d(trap, pulse)
        sampler = rates.ColumnSampler(trap, pulse)
        for idx in (0, 5, 17, 30, 48):
            total_d, dest_d, cum_d = dense.jump_distribution(idx)
            total_s, dest_s, cum_s = sampler.jump_distribution(idx)
            assert total_s == pytest.approx(total_d, rel=1e-12, abs=1e-15)
            assert np.array_equal(dest_d, dest_s)
            assert np.allclose(cum_d, cum_s, rtol=1e-12)


class TestMatrixCache:
    def test_resonant_cache_shares_a_sign(self):
        trap = trap_2d(n_max=4)
        m_minus = rate_matrix(trap, Pulse(s=-9, duration=1.0, amplitude_ratio=-1.0))
        m_plus = rate_matrix(trap, Pulse(s=-9, duration=1.0, amplitude_ratio=1.0))
        assert m_minus is m_plus  # |A|^2 and the dead cross term coincide
        s0_minus = rate_matrix(trap, Pulse(s=0, duration=1.0, amplitude_ratio=-1.0))
        s0_plus = rate_matrix(trap, Pulse(s=0, duration=1.0, amplitude_ratio=1.0))
        assert s0_minus is not s0_plus


class TestCsvExport:
    def test_empty_rates_csv_1d(self, tmp_path):
        trap = trap_1d(n_max=12)
        path = tmp_path / "r.csv"
        rates.export_empty_rates_csv(path, trap, empty_rates_1d(trap, -9))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "m,gamma_over_Gamma0"
        assert lines[2] == "0,0"
        assert len(lines) == 2 + 13

    def test_empty_rates_csv_2d_row_major(self, tmp_path):
        trap = trap_2d(n_max=2)
        path = tmp_path / "r.csv"
        grid = empty_rates_2d(trap, Pulse(s=0, duration=1.0, amplitude_ratio=-1.0))
        rates.export_empty_rates_csv(path, trap, grid)
        lines = path.read_text().splitlines()
        assert "row-major" in lines[0]
        assert lines[1] == "mx,my,gamma_over_Gamma0"
        assert lines[2].startswith("0,0,")
        assert lines[3].startswith("0,1,")
