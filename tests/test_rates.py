import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from dyncool import cli, dynamics, fc, rates
from dyncool.errors import DomainError, ResourceLimitError, SimulationError, ValidityError
from dyncool.protocols import PRESET_NAMES, RUN_DEFAULTS, Protocol, preset
from dyncool.rates import Pulse, TrapConfig, dipole_pattern, empty_rates, rate_matrix
from oracles import (angular_quadrature, fc_reduced_series, folded_resonant_column_2d,
                     recoil_phases, uniformization_expm)


def trap_1d(eta=3.0, n_max=40, **kw):
    return TrapConfig(eta=eta, gamma_over_omega=0.01, dims=1, n_max=n_max, **kw)


def trap_2d(eta=3.0, n_max=8, **kw):
    return TrapConfig(eta=eta, gamma_over_omega=0.01, dims=2, n_max=n_max, **kw)


def sampler_of(trap, pulse, mode="resonant", tables=None):
    """The ``ColumnSampler`` of ``pulse``, on ``tables`` if given (as the
    pulses of one run share them), else on tables of its own."""
    tables = tables or rates.AngularTables(trap)
    return rates.ColumnSampler(rates._provider(tables, pulse, mode))


def generators(trap, pulses, mode="resonant", basis="full"):
    """The pulses' ``rate_matrix`` results, from providers on one
    ``AngularTables``, as the pulses of one run share it."""
    tables = rates.AngularTables(trap)
    return [rate_matrix(trap, pulse, mode, basis, provider=rates._provider(tables, pulse, mode))
            for pulse in pulses]


def dense_and_sampler(trap, pulse, mode="resonant"):
    """The pulse's dense generator and ``ColumnSampler``, from two providers
    on one ``AngularTables``."""
    tables = rates.AngularTables(trap)
    return (rate_matrix(trap, pulse, mode, provider=rates._provider(tables, pulse, mode)),
            sampler_of(trap, pulse, mode, tables))


def at_doubled_line_order(monkeypatch, build):
    """``build()`` evaluated with every 1D line rule at twice its order."""
    order = rates._line_order
    monkeypatch.setattr(rates, "_line_order", lambda eta, l_max: 2 * order(eta, l_max))
    try:
        return build()
    finally:
        monkeypatch.undo()


class TestTrapConfig:
    def test_festina_lente_guard(self):
        # gamma >= omega leaves the sideband-resolved regime, in either geometry
        for g, dims in ((1.5, 1), (1.0, 2)):
            with pytest.raises(ValidityError, match="not resolved"):
                TrapConfig(eta=1.0, gamma_over_omega=g, dims=dims, n_max=10)
        assert TrapConfig(eta=1.0, gamma_over_omega=0.99, n_max=10).gamma_over_omega == 0.99

    def test_basic_validation(self):
        with pytest.raises(DomainError):
            TrapConfig(eta=-1.0, gamma_over_omega=0.1)
        with pytest.raises(DomainError):
            TrapConfig(eta=1.0, gamma_over_omega=0.1, dims=3)
        with pytest.raises(DomainError):
            TrapConfig(eta=1.0, gamma_over_omega=0.1, dipole="cardioid")
        with pytest.raises(DomainError):
            TrapConfig(eta=1.0, gamma_over_omega=0.1, quad_theta=2)

    @pytest.mark.parametrize("field, value", [
        ("n_max", 3.5), ("n_max", 3.0), ("dims", 1.0), ("quad_theta", 8.0), ("quad_phi", 8.5)])
    def test_non_integer_sizes_refused(self, field, value):
        # a float size, whole or not, is refused naming its field; numpy
        # integers pass as ints
        with pytest.raises(DomainError, match=field):
            TrapConfig(eta=1.0, gamma_over_omega=0.01, **{field: value})
        trap = TrapConfig(eta=1.0, gamma_over_omega=0.01, **{field: np.int64(int(value))})
        assert type(getattr(trap, field)) is int

    def test_unfoldable_sphere_rule_refused(self):
        # the sphere rule is folded by parity: even theta order, phi order 4k
        for theta, phi in ((63, 128), (64, 126), (9, 12), (8, 10)):
            with pytest.raises(DomainError):
                TrapConfig(eta=1.0, gamma_over_omega=0.1, dims=2,
                           quad_theta=theta, quad_phi=phi)
        trap = TrapConfig(eta=1.0, gamma_over_omega=0.1, dims=2, quad_theta=6, quad_phi=12)
        assert (trap.quad_theta, trap.quad_phi) == (6, 12)

    def test_default_n_max_by_dims(self):
        # a trap that leaves n_max out gets its dims' run default: 40 in 2D
        # (1681 states), not the 1D depth of 120 (14641)
        for dims, n_max in ((1, 120), (2, 40)):
            trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=dims)
            assert trap.n_max == n_max == RUN_DEFAULTS[dims].n_max

    def test_eta_hat2_and_indexing(self):
        trap = trap_2d(eta=3.065, n_max=5)
        assert trap.eta_hat2 == 9
        assert trap.n_states == 36
        assert rates.level_indices(trap.shape, [(2, 3)]).tolist() == [[2, 3]]
        # the recorded rows index the grid, and refuse a level outside it
        rows, _ = dynamics._obs_rows(trap.shape, (2, 3))
        assert np.flatnonzero(rows[3]).tolist() == [15]
        for level in ((6, 0), (0, -1)):
            with pytest.raises(DomainError, match="outside truncation"):
                dynamics._obs_rows(trap.shape, level)

    def test_wrong_arity_levels_refused(self):
        # a level is an int in 1D and a pair in 2D, in level_indices, the
        # recorded rows and level_empty_rates alike
        pulse = Pulse(s=-1, duration=1.0)
        for trap, level in ((trap_1d(n_max=5), (0, 1)), (trap_2d(n_max=5), 0),
                            (trap_2d(n_max=5), (0,)), (trap_2d(n_max=5), (0, 1, 2))):
            with pytest.raises(DomainError, match=f"{trap.dims}D trap"):
                rates.level_indices(trap.shape, [level])
            with pytest.raises(DomainError, match=f"{trap.dims}D trap"):
                dynamics._obs_rows(trap.shape, level)
            with pytest.raises(DomainError, match=f"{trap.dims}D trap"):
                rates.level_empty_rates(trap, pulse, [level])
        assert rates.level_indices((6,), [4]).tolist() == [[4]]

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
            return [rate_matrix(trap, Pulse(s=s, duration=1.0), mode).generator
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
        kernel = rates.AngularTables(trap).emission_kernel(l_max)
        assert np.abs(kernel - ref).max() <= 1e-14

    def test_line_order_converged_deep(self, monkeypatch):
        # N against 2N at the depth of the fig3 benchmark workload
        trap = trap_1d(n_max=480)

        def build():
            return rates.AngularTables(trap).emission_kernel(480)

        base = build()
        assert np.abs(base - at_doubled_line_order(monkeypatch, build)).max() <= 1e-12

    def test_shared_kernel_independent_of_build_order(self):
        # at eta = 1, n_max = 32 the s = -9 and s = +8 kernels (levels 32
        # and 40) share one line order, so both are slices of one build
        trap = trap_1d(eta=1.0, n_max=32)
        assert rates._line_depth(1.0, 32, 32) == rates._line_depth(1.0, 32, 40)
        built = []
        for order in ((8, -9), (-9, 8)):
            tables = rates.AngularTables(trap)
            pulses = {s: Pulse(s=s, duration=1.0) for s in order}
            built.append({s: rate_matrix(trap, pulse, provider=rates._provider(
                tables, pulse, "resonant")) for s, pulse in pulses.items()})
            assert tables.kernel_counts == {"builds": 1, "hits": 1}
        for s in (8, -9):
            assert np.array_equal(built[0][s].generator, built[1][s].generator)
            assert np.array_equal(built[0][s].leak, built[1][s].leak)

    def test_fig3_pulses_build_one_kernel(self, monkeypatch):
        # the fig3 benchmark pulses reach levels 480 (s < 0) and 488 (s = 8),
        # and a run's providers share one kernel; multi-node calls are
        # kernel builds, single-eta ones absorption bands
        calls = []

        def spy(eta_proj, n_max, l_max, _inner=fc.reduced_stack, **kwargs):
            if len(eta_proj) > 1:
                calls.append(l_max)
            return _inner(eta_proj, n_max, l_max, **kwargs)

        monkeypatch.setattr(fc, "reduced_stack", spy)
        protocol = Protocol(tuple(Pulse(s=s, duration=1.0) for s in (-9, 8, -10, -3)), 1)
        providers, cache = rates._providers(protocol, trap_1d(n_max=480), "resonant")
        assert calls == [489]
        assert cache == {"emission_kernel": {"builds": 1, "hits": 3}}
        assert all(np.shares_memory(p.kernel, providers[0].kernel) for p in providers)

    def test_kernel_build_holds_no_stack(self):
        # the fig3 kernel at n_max 480 is summed as its stack is stepped: the
        # build holds less than a quarter of that 186 MB stack
        trap = trap_1d(n_max=480)
        depth = rates._line_depth(trap.eta, 480, 480)
        stack_bytes = rates._line_order(trap.eta, depth) // 2 * 481 * (depth + 1) * 8
        assert stack_bytes > 180e6
        tracemalloc.start()
        try:
            kernel = rates.AngularTables(trap).emission_kernel(480)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kernel.shape == (481, 481)
        assert peak < stack_bytes / 4

    def test_kernel_node_over_budget_refused(self, monkeypatch):
        # a 1D kernel above the budget is refused before any recoil factor
        calls = []
        monkeypatch.setattr(fc, "reduced_stack", lambda *args: calls.append(args))
        node_bytes = 41 * (rates._line_depth(3.0, 40, 48) + 1) * 8
        monkeypatch.setattr(rates.AngularTables, "_FULL_STACK_BUDGET", node_bytes - 1)
        with pytest.raises(ResourceLimitError):
            rates.AngularTables(trap_1d(n_max=40)).emission_kernel(48)
        assert calls == []

    def test_kernel_recurrence_over_budget_refused(self, monkeypatch):
        # s = 2000 at n_max 6: the kernel (7 x 2007 doubles, 110 KiB) is under
        # a 1 MiB budget, but the recurrence that sums it steps arrays of
        # 184 rule nodes x 2007 levels (2.8 MiB): the pulse is refused before
        # the rule or any recoil factor is built
        monkeypatch.setattr(rates.AngularTables, "_FULL_STACK_BUDGET", 1 << 20)
        trap = trap_1d(n_max=6)
        depth = rates._line_depth(trap.eta, 6, 2006)
        assert 7 * (depth + 1) * 8 < 1 << 20 < rates._line_order(trap.eta, 2006) // 2 * (depth + 1) * 8
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="1D emission kernel"):
                rates._Resonant(rates.AngularTables(trap), Pulse(s=2000, duration=1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestEmptyRates1d:
    def test_grid_over_budget_refused(self, monkeypatch):
        # 2D n_max 700 under a 1 MiB budget: the grid's level indices
        # (2 x 491 401, 7.5 MiB) are refused before they are built
        monkeypatch.setattr(rates.AngularTables, "_FULL_STACK_BUDGET", 1 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="2D level grid"):
                empty_rates(trap_2d(n_max=700), Pulse(s=-18, duration=1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_dark_level_blue_pulse(self):
        assert empty_rates(trap_1d(), Pulse(s=8, duration=1.0))[1] == 0.0

    def test_negative_levels_zero(self):
        vec = empty_rates(trap_1d(eta=1.7), Pulse(s=-1, duration=1.0))
        assert vec[0] == 0.0
        vec9 = empty_rates(trap_1d(), Pulse(s=-9, duration=1.0))
        assert np.all(vec9[:9] == 0.0)

    def test_carrier_ground_rate(self):
        rate = empty_rates(trap_1d(), Pulse(s=0, duration=1.0))[0]
        assert rate == pytest.approx(math.exp(-9.0), rel=1e-13)

    def test_confinement_complementarity(self):
        # the two slightly detuned confinement pulses cover each other's
        # quasi-zero minima (frozen floor derived from this operation and
        # cross-checked against the high-precision series oracle)
        from oracles import fc_modulus_series
        r9 = empty_rates(trap_1d(), Pulse(s=-9, duration=1.0))
        r10 = empty_rates(trap_1d(), Pulse(s=-10, duration=1.0))
        combined = np.maximum(r9, r10)[10:41]
        assert combined.min() > 5e-3
        # each vector alone has at least one quasi-zero minimum
        assert r9[10:41].min() < 1e-4 < r10[11:41].min() + 1.0
        m9 = 10 + int(np.argmin(r9[10:41]))
        assert r9[m9] == pytest.approx(fc_modulus_series(3.0, m9, m9 - 9) ** 2, rel=1e-9)

    def test_shape_follows_trap(self):
        pulse = Pulse(s=0, duration=1.0)
        assert empty_rates(trap_1d(n_max=12), pulse).shape == (13,)
        assert empty_rates(trap_2d(n_max=6), pulse).shape == (7, 7)

    def test_non_integer_detuning_rejected(self):
        with pytest.raises(ValidityError, match="not an integer"):
            empty_rates(trap_1d(), Pulse(s=8.5, duration=1.0))

    def test_carrier_rate_decays_with_recoil(self):
        # the m=0 zero-detuning rate carries the full exp(-eta^2)
        # suppression; it is what dies when eta grows past ~4
        prev = None
        for eta in (2.0, 3.0, 4.0, 4.5):
            rate = empty_rates(trap_1d(eta=eta, n_max=10), Pulse(s=0, duration=1.0))[0]
            assert rate == pytest.approx(math.exp(-eta * eta), rel=1e-12)
            if prev is not None:
                assert rate < prev
            prev = rate


class TestEmptyRates2d:
    def test_diagonal_dark_at_minus_one(self):
        grid = empty_rates(trap_2d(n_max=10), Pulse(s=0, duration=1, amplitude_ratio=-1))
        assert np.all(grid.reshape(11, 11).diagonal() == 0.0)

    def test_one_eighth_darkens_01(self):
        grid = empty_rates(trap_2d(), Pulse(s=0, duration=1, amplitude_ratio=0.125))
        assert grid.reshape(9, 9)[0, 1] == 0.0
        assert grid.reshape(9, 9)[1, 0] > 1e-3

    def test_blue_dark_level_11(self):
        grid = empty_rates(trap_2d(), Pulse(s=8, duration=1, amplitude_ratio=1.0))
        assert grid.reshape(9, 9)[1, 1] == 0.0

    def test_unit_ratio_is_square_of_sum(self):
        trap = trap_2d(eta=1.3, n_max=6)
        grid = empty_rates(trap, Pulse(s=0, duration=1, amplitude_ratio=1.0)).reshape(7, 7)
        f = np.array([fc.fc_reduced(1.3, m, m) for m in range(7)])
        ref = (f[:, None] + f[None, :]) ** 2
        assert np.allclose(grid, ref, rtol=1e-13, atol=1e-300)

    def test_cross_term_only_at_s_zero(self):
        trap = trap_2d(eta=1.3, n_max=6)
        g_plus = empty_rates(trap, Pulse(s=2, duration=1, amplitude_ratio=1.0))
        g_minus = empty_rates(trap, Pulse(s=2, duration=1, amplitude_ratio=-1.0))
        assert np.array_equal(g_plus, g_minus)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_level_form_equals_grid_form(self, name):
        # empty_rates broadcasts _empty_rate over the per-axis factors as
        # below, as _Full does; level_empty_rates forms it level by level
        proto, trap, _ = preset(name)
        tables = rates.AngularTables(trap)
        for pulse in proto.pulses:
            s = pulse.s_int
            f = rates._reduced_absorption(tables, s, range(trap.n_max + 1))
            norm2, diag = f * f, f * (s == 0)
            grid = rates._empty_rate(norm2) if trap.dims == 1 else rates._empty_rate(
                norm2[:, None], diag[:, None], norm2[None, :], diag[None, :],
                complex(pulse.amplitude_ratio))
            assert np.array_equal(empty_rates(trap, pulse), grid)
            levels = np.indices(trap.shape).reshape(trap.dims, -1).T
            by_level = rates.level_empty_rates(trap, pulse, levels)
            assert np.array_equal(by_level.reshape(trap.shape), grid)

    @pytest.mark.parametrize("dims, n_max", [(1, 60), (2, 12)])
    def test_grid_form_bitwise_level_form(self, dims, n_max):
        # empty_rates and the resonant provider's closures are one grid form
        # of the empty rate; level_empty_rates forms it level by level
        trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=dims, n_max=n_max)
        levels = np.indices(trap.shape).reshape(dims, -1).T
        for s in (-30, -3, 0, 2):
            for a in (-1.0, 0.125, 0.3 + 0.4j):
                pulse = Pulse(s=s, duration=1.0, amplitude_ratio=a)
                grid = empty_rates(trap, pulse)
                by_level = rates.level_empty_rates(trap, pulse, levels).reshape(trap.shape)
                closures = rates._Resonant(rates.AngularTables(trap), pulse).closures
                assert np.array_equal(grid.view(np.int64), by_level.view(np.int64))
                assert np.array_equal(grid.view(np.int64), closures.view(np.int64))


def brute_column_2d(trap, pulse, mx, my):
    """Literal complex-amplitude quadrature sum built from fc_row only."""
    s = int(pulse.s)
    a = complex(pulse.amplitude_ratio)
    theta, phi, w = angular_quadrature(trap.quad_theta, trap.quad_phi)
    wgt = w * dipole_pattern(trap.dipole, theta, phi)
    n1 = trap.n_max + 1
    out = np.zeros((n1, n1))
    c1 = fc.fc_factor(trap.eta, mx, mx + s) if mx + s >= 0 else 0.0
    c2 = a * (fc.fc_factor(trap.eta, my, my + s) if my + s >= 0 else 0.0)
    def row_from(eta_eff, level):
        if level < 0:
            return np.zeros(n1, dtype=complex)
        return np.array([fc.fc_factor(eta_eff, level, n) for n in range(n1)])

    for k in range(theta.shape[0]):
        ex = trap.eta * math.sin(theta[k]) * math.cos(phi[k])
        ey = trap.eta * math.sin(theta[k]) * math.sin(phi[k])
        amp = c1 * np.outer(row_from(ex, mx + s), row_from(ey, my)) \
            + c2 * np.outer(row_from(ex, mx), row_from(ey, my + s))
        out += wgt[k] * np.abs(amp) ** 2
    return out


def brute_full_column_2d(trap, pulse, mx, my, l_max=40):
    """Full-mode column as the literal sum over every node of the unfolded
    sphere rule of |both lasers' amplitudes, summed over intermediate
    levels l <= l_max|^2, self term included; and the same sum without the
    two lasers' interference, the scale its rounding is set by."""
    gt, a, n1 = trap.gamma_over_omega, complex(pulse.amplitude_ratio), trap.n_max + 1
    theta, phi, w = angular_quadrature(trap.quad_theta, trap.quad_phi)
    wgt = w * dipole_pattern(trap.dipole, theta, phi)

    def recoil(eta_proj, rows, cols):  # <n|exp(i eta_proj (a + a^dag))|l>
        return recoil_phases(rows, cols) * fc.reduced_stack(eta_proj, rows, cols)

    shift = np.arange(l_max + 1)[:, None] - np.arange(n1)[None, :]
    c = recoil(np.array([trap.eta]), l_max, trap.n_max)[0] * gt / (pulse.s - shift + 1j * gt)
    rx = recoil(trap.eta * np.sin(theta) * np.cos(phi), trap.n_max, l_max)
    ry = recoil(trap.eta * np.sin(theta) * np.sin(phi), trap.n_max, l_max)
    x_laser = (rx @ c[:, mx])[:, :, None] * ry[:, None, :, my]
    y_laser = a * rx[:, :, mx, None] * (ry @ c[:, my])[:, None, :]
    return (np.einsum("k,kij->ij", wgt, np.abs(x_laser + y_laser) ** 2),
            np.einsum("k,kij->ij", wgt, np.abs(x_laser) ** 2 + np.abs(y_laser) ** 2))


class TestRateMatrix1d:
    def test_dark_column_exact(self):
        mat = rate_matrix(trap_1d(n_max=30), Pulse(s=8, duration=1.0))
        assert np.all(mat.generator[:, 1] == 0.0)
        assert mat.leak[1] == 0.0

    @pytest.mark.parametrize("s", [-10, -1, 0, 3, 8])
    def test_broadcast_generator_bitwise_the_columns(self, s):
        # the generator takes every column in one broadcast: bitwise the
        # provider's columns one level at a time, zero where m + s < 0
        trap, pulse = trap_1d(n_max=30), Pulse(s=s, duration=1.0)
        provider = rates._provider(rates.AngularTables(trap), pulse, "resonant")
        columns = np.stack([provider.column(m) for m in range(trap.n_states)], axis=1)
        assert np.array_equal(provider.column(np.arange(trap.n_states)), columns)
        assert not columns[:, :max(-s, 0)].any()
        want = rates._assemble(columns, provider.exits, "resonant")
        got = rate_matrix(trap, pulse, provider=provider)
        for name in ("generator", "leak", "self_rates"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_nonnegative_off_diagonal(self):
        mat = rate_matrix(trap_1d(n_max=30), Pulse(s=-9, duration=1.0))
        off = mat.generator.copy()
        np.fill_diagonal(off, 0.0)
        assert np.all(off >= 0.0)

    def test_column_sums_equal_minus_leak(self):
        mat = rate_matrix(trap_1d(n_max=30), Pulse(s=0, duration=1.0))
        assert np.allclose(mat.generator.sum(axis=0), -mat.leak, atol=1e-15)

    def test_closure_against_analytic_empty_rates(self):
        # emission redistribution must telescope to the analytic totals
        # once the basis has enough headroom above the probed levels
        eta, top = 3.0, 40
        head = math.ceil(eta * eta + 7.0 * eta * math.sqrt(2 * (top + 8) + 1))
        trap = trap_1d(n_max=top + 8 + head)
        pulses = [Pulse(s=s, duration=1.0) for s in (-9, 0, 8)]
        for pulse, mat in zip(pulses, generators(trap, pulses)):
            target = empty_rates(trap, pulse)
            off = mat.generator.copy()
            np.fill_diagonal(off, 0.0)
            total = off.sum(axis=0) + mat.self_rates
            for m in range(top + 1):
                if target[m] > 0:
                    assert total[m] == pytest.approx(target[m], rel=1e-8)

    def test_lamb_dicke_limit_is_sideband_ladder(self):
        # eta -> 0 with s = -1: only |n=m-1 <- m| survives, rate eta^2 * m
        trap = trap_1d(eta=1e-3, n_max=12)
        mat = rate_matrix(trap, Pulse(s=-1, duration=1.0))
        gen = mat.generator.copy()
        np.fill_diagonal(gen, 0.0)
        for m in range(1, 13):
            ladder = float(gen[m - 1, m])
            assert ladder == pytest.approx(1e-6 * m, rel=1e-4)
            others = np.delete(gen[:, m], m - 1)
            assert others.max() <= 1e-5 * ladder

    def test_full_mode_accepts_fractional_detuning(self):
        trap = trap_1d(n_max=12)
        mat = rate_matrix(trap, Pulse(s=-0.5, duration=1.0), mode="full")
        assert mat.mode == "full"
        with pytest.raises(ValidityError):
            rate_matrix(trap, Pulse(s=-0.5, duration=1.0), mode="resonant")

    def test_full_column_matches_whole_line_sum(self):
        # the u > 0 half and its parity images against every node of the
        # unfolded line rule, weighted by the isotropic density W1(u) = 1/2
        trap = trap_1d(eta=1.7, n_max=10)
        l_max = trap.n_max + rates._level_headroom(trap.eta, trap.n_max)
        u, w = np.polynomial.legendre.leggauss(rates._line_order(trap.eta, l_max))
        w = 0.5 * w
        recoil = recoil_phases(trap.n_max, l_max) \
            * fc.reduced_stack(trap.eta * u, trap.n_max, l_max)
        absorb = recoil_phases(l_max, trap.n_max) \
            * fc.reduced_stack(np.array([trap.eta]), l_max, trap.n_max)[0]
        shift = np.arange(l_max + 1)[:, None] - np.arange(trap.n_max + 1)[None, :]
        for s in (-2, 0.5):
            pulse = Pulse(s=s, duration=1.0)
            mat = rate_matrix(trap, pulse, mode="full")
            c = absorb * trap.gamma_over_omega / (s - shift + 1j * trap.gamma_over_omega)
            for m in (0, 3, 10):
                ref = w @ np.abs(recoil @ c[:, m]) ** 2
                fast = mat.generator[:, m].copy()
                fast[m] = mat.self_rates[m]
                assert np.abs(fast - ref).max() <= 1e-13 * ref.max()

    @pytest.mark.parametrize("n_max, lowered", [(20, True), (480, False)])
    def test_full_stack_over_budget_refused(self, monkeypatch, n_max, lowered):
        # a 1D full-mode stack above the budget is refused before any recoil
        # factor is computed: at n_max 480 it is 600 MiB against 512 MiB
        trap = trap_1d(n_max=n_max)
        l_max = n_max + rates._level_headroom(trap.eta, n_max)
        need = rates._line_order(trap.eta, l_max) // 2 * (n_max + 1) * (l_max + 1) * 8
        if lowered:
            monkeypatch.setattr(rates.AngularTables, "_FULL_STACK_BUDGET", need - 1)
        else:
            assert need > rates.AngularTables._FULL_STACK_BUDGET
        calls = []
        monkeypatch.setattr(fc, "reduced_stack", lambda *args, **kw: calls.append(args))
        with pytest.raises(ResourceLimitError, match="1D recoil stack"):
            rate_matrix(trap, Pulse(s=-9, duration=1.0), mode="full")
        assert calls == []

    def test_full_approaches_resonant_in_small_gamma(self):
        worst = []
        for g in (1e-2, 1e-3, 1e-4):
            trap = TrapConfig(eta=3.0, gamma_over_omega=g, dims=1, n_max=40)
            for s in (-9, 0, 8):
                full = rate_matrix(trap, Pulse(s=s, duration=1.0), mode="full")
                res = empty_rates(trap, Pulse(s=s, duration=1.0))
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
        mat = rate_matrix(trap, pulse)
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
        mat = rate_matrix(trap, Pulse(s=0, duration=1.0, amplitude_ratio=-1.0))
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
        m2 = rate_matrix(trap2, Pulse(s=s, duration=1.0, amplitude_ratio=0.0))
        m1 = rate_matrix(trap1, Pulse(s=s, duration=1.0))
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
        mat = rate_matrix(trap, pulse)
        target = empty_rates(trap, pulse).reshape(-1)
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
        mat = rate_matrix(trap, pulse, mode="full")
        off = mat.generator.copy()
        np.fill_diagonal(off, 0.0)
        assert np.all(off >= 0.0)
        # full mode washes out the exact interference darkness at finite gamma
        j = 1 * 5 + 1
        assert 0.0 < -mat.generator[j, j] < 1e-2

    @pytest.mark.parametrize("a", [-1.0, 0.3 + 0.4j])
    @pytest.mark.parametrize("s", [0, -1.5, 2])
    def test_full_mode_column_matches_brute_force(self, s, a):
        # the folded rule and its parity images against the whole sphere.
        # At s = 0, A = -1 the diagonal levels are nearly dark: the lasers'
        # terms cancel to 1e-4 of themselves, and rounding is relative to them
        trap = trap_2d(eta=1.2, n_max=4, quad_theta=8, quad_phi=8)
        pulse = Pulse(s=s, duration=1.0, amplitude_ratio=a)
        mat = rate_matrix(trap, pulse, mode="full")
        for mx, my in [(0, 0), (1, 0), (2, 3), (4, 1), (3, 3)]:
            j = mx * 5 + my
            fast = mat.generator[:, j].copy()
            fast[j] = mat.self_rates[j]
            slow, incoherent = brute_full_column_2d(trap, pulse, mx, my)
            scale = max(slow.max(), incoherent.max())
            assert np.abs(fast - slow.reshape(-1)).max() <= 1e-12 * scale

    def test_full_approaches_resonant_closures_in_small_gamma(self):
        worst = []
        for g in (1e-2, 1e-3, 1e-4):
            trap = TrapConfig(eta=3.0, gamma_over_omega=g, dims=2, n_max=6,
                              quad_theta=4, quad_phi=4)
            for s, a in ((-2, -1.0), (0, -1.0), (0, 0.3 + 0.4j), (3, 0.125)):
                pulse = Pulse(s=s, duration=1.0, amplitude_ratio=a)
                full = rates._Full(rates.AngularTables(trap), pulse).closures.reshape(-1)
                res = empty_rates(trap, pulse).reshape(-1)
                mask = res > 1e-6
                worst.append((np.abs(full - res)[mask] / res[mask]).max())
        by_gamma = [max(worst[i:i + 4]) for i in range(0, 12, 4)]
        assert by_gamma[1] < 1e-2  # the gamma/omega = 1e-3 comparison
        assert by_gamma[0] > by_gamma[1] > by_gamma[2]

    def test_full_mode_column_at_fig5_depth(self):
        # the folded stacks of n_max 40 (84 MB per axis) fit the stack budget
        trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=2, n_max=40)
        pulse = Pulse(s=-9, duration=1.0)
        sampler = sampler_of(trap, pulse, "full")
        total, cum = sampler.jump_distribution(9 * 41 + 1)
        closure = sampler._provider.closures[9, 1]
        assert np.all(np.diff(cum) >= 0.0)
        assert total - cum[-1] <= 1e-6 * closure  # the leak
        resonant = rates.level_empty_rates(trap, pulse, [(9, 1)])[0]
        assert closure == pytest.approx(resonant, rel=1e-3)

    def test_memory_budget_guard(self):
        with pytest.raises(ResourceLimitError):
            rate_matrix(trap_2d(n_max=300), Pulse(s=0, duration=1.0))

    @pytest.mark.parametrize("s", [-3, -2, 0, 4])
    def test_swap_basis_folds_full_generator(self, s):
        # with |A| = 1 the generator commutes with the x <-> y swap, and the
        # lumped generator is its representative columns with rows folded
        trap = trap_2d(eta=1.7, n_max=6)
        pulse = Pulse(s=s, duration=1.0, amplitude_ratio=-1.0)
        full = rate_matrix(trap, pulse)
        swap = rate_matrix(trap, pulse, basis="swap")
        states = rates.StateBasis(trap, "swap")
        n1 = trap.n_max + 1
        assert swap.n_states == n1 * (n1 + 1) // 2
        mirror = np.arange(n1 * n1).reshape(n1, n1).T.reshape(-1)
        scale = np.abs(full.generator).max()
        assert np.abs(full.generator[np.ix_(mirror, mirror)]
                      - full.generator).max() <= 1e-15 * scale
        reps = states.levels[:, 0] * n1 + states.levels[:, 1]
        folded = np.stack([states.lump(full.generator[:, j]) for j in reps], axis=1)
        assert np.abs(swap.generator - folded).max() <= 1e-14 * scale
        assert np.abs(swap.leak - full.leak[reps]).max() <= 1e-14 * scale

    def test_swap_basis_is_2d_only(self):
        with pytest.raises(DomainError):
            rate_matrix(trap_1d(n_max=4), Pulse(s=-1, duration=1.0), basis="swap")
        with pytest.raises(DomainError):
            rates.StateBasis(trap_1d(n_max=4), "swap")

    @pytest.mark.parametrize("n_max, s", [(8, -4), (40, -10)])
    def test_independent_of_build_order(self, n_max, s):
        # s = 8 needs a deeper recoil stack than s = -4 or -10; building it
        # first on the same tables must not move the later pulse's rates.  At
        # n_max 40 the stack spans several node chunks, whose size must come
        # from the requested depth, not the deeper held stack
        trap = trap_2d(n_max=n_max)
        pulse = Pulse(s=s, duration=1.0, amplitude_ratio=-1.0)
        lone = rates._provider(rates.AngularTables(trap), pulse, "resonant")
        tables = rates.AngularTables(trap)
        rates._provider(tables, Pulse(s=8, duration=1.0, amplitude_ratio=-1.0), "resonant")
        after = rates._provider(tables, pulse, "resonant")
        first, second = (rate_matrix(trap, pulse, provider=p) for p in (lone, after))
        assert np.array_equal(first.generator, second.generator)
        assert np.array_equal(first.leak, second.leak)
        assert lone.cross is not None
        for ref, got in zip(lone.cross, after.cross):
            assert np.array_equal(ref, got)


class TestColumnSampler:
    def test_matches_dense_matrix(self):
        trap = trap_2d(eta=1.7, n_max=6)
        pulse = Pulse(s=-1, duration=1.0, amplitude_ratio=-1.0)
        dense, sampler = dense_and_sampler(trap, pulse)
        for idx in (0, 5, 17, 30, 48):
            total_d, cum_d = dense.jump_distribution(idx)
            total_s, cum_s = sampler.jump_distribution(idx)
            assert total_s == total_d
            assert np.array_equal(cum_d, cum_s)

    @pytest.mark.parametrize("dims", [1, 2])
    def test_grid_columns_not_lumped(self, monkeypatch, dims):
        # on the grid a class is one level, so the sampler skips the lump
        trap = trap_1d(eta=1.7, n_max=30) if dims == 1 else trap_2d(eta=1.7, n_max=6)
        pulse = Pulse(s=-2, duration=1.0, amplitude_ratio=0.125)
        dense, sampler = dense_and_sampler(trap, pulse)
        calls = []
        inner = rates.StateBasis.lump
        monkeypatch.setattr(rates.StateBasis, "lump",
                            lambda self, probs: calls.append(self.kind) or inner(self, probs))
        for idx in range(trap.n_states):
            assert np.array_equal(sampler.jump_distribution(idx)[1], dense.jump_distribution(idx)[1])
        assert calls == []

    @pytest.mark.parametrize("s, a, mode", [
        *(pytest.param(s, a, "resonant", id=f"{s}-{a}")
          for s in (0, -2, 2, -3, 4) for a in (-1.0, 0.125, 0.3 + 0.4j, 1j)),
        *(pytest.param(s, a, "full", id=f"{s}-{a}-full")
          for s, a in ((0, -1.0), (-2, 0.3 + 0.4j), (-3, 1j), (2.5, 0.125)))])
    def test_every_column_bitwise_equal_to_dense(self, s, a, mode):
        trap = trap_2d(eta=1.7, n_max=8)
        pulse = Pulse(s=s, duration=1.0, amplitude_ratio=a)
        dense, sampler = dense_and_sampler(trap, pulse, mode)
        for idx in range(trap.n_states):
            total_d, cum_d = dense.jump_distribution(idx)
            total_s, cum_s = sampler.jump_distribution(idx)
            assert total_s == total_d
            assert np.array_equal(cum_d, cum_s)

    @pytest.mark.parametrize("mode", ["resonant", "full"])
    @pytest.mark.parametrize("s", [0, -2, 2, -3, 4])
    def test_every_column_bitwise_equal_to_dense_1d(self, s, mode):
        # 1D Monte Carlo samples from a ColumnSampler, as 2D does
        trap = trap_1d(eta=1.7, n_max=30)
        pulse = Pulse(s=s, duration=1.0)
        dense, sampler = dense_and_sampler(trap, pulse, mode)
        for idx in range(trap.n_states):
            total_d, cum_d = dense.jump_distribution(idx)
            total_s, cum_s = sampler.jump_distribution(idx)
            assert total_s == total_d
            assert np.array_equal(cum_d, cum_s)

    @pytest.mark.parametrize("s, a, mode", [
        *(pytest.param(s, a, "resonant", id=f"{s}-{a}")
          for s in (0, -2, 2, -3, 4) for a in (-1.0, 1.0)),
        *(pytest.param(-2, a, "full", id=f"-2-{a}-full") for a in (-1.0, 1.0))])
    def test_swap_basis_columns_match_swap_generator(self, s, a, mode):
        # off the own class every cumulative column is bitwise the swap
        # generator's; the own class holds the in-class move (a, b) -> (b, a),
        # clipped at 0, which the generator folds into its diagonal; the
        # exits are the grid sampler's at each class's representative
        trap = trap_2d(eta=1.7, n_max=8)
        pulse = Pulse(s=s, duration=1.0, amplitude_ratio=a)
        tables = rates.AngularTables(trap)
        provider = rates._provider(tables, pulse, mode)
        basis = rates.StateBasis(trap, "swap")
        swap = rates.ColumnSampler(provider, basis)
        grid = rates.ColumnSampler(provider)
        dense = rate_matrix(trap, pulse, mode, "swap", provider=provider)
        own = np.ravel_multi_index(basis.levels.T, trap.shape)
        assert np.array_equal(swap.exit_rates, grid.exit_rates[own])
        moves = 0
        for j, (x, y) in enumerate(basis.levels):
            total, cum = swap.jump_distribution(j)
            assert total == grid.exit_rates[own[j]]
            want = dense.generator[:, j].copy()
            move = provider.column(x, y)[y, x] if x != y else 0.0
            want[j] = max(move, 0.0)
            moves += want[j] > 0.0
            assert np.array_equal(cum, np.cumsum(want))
        assert moves > 0

    @pytest.mark.parametrize("s", [0, -2, 4])
    def test_chunked_columns_bitwise_equal_to_dense(self, monkeypatch, s):
        # with the factors formed in chunks of 7 of the 1056 nodes
        trap = trap_2d(eta=1.7, n_max=8)
        node_bytes = (trap.n_max + 1) * (trap.n_max + 1 + max(s, 0)) * 8
        monkeypatch.setattr(rates, "_FACTOR_CHUNK_BYTES", 7 * node_bytes)
        monkeypatch.setattr(rates, "_FACTOR_CHUNK_NODES", 1)
        self.test_every_column_bitwise_equal_to_dense(s, -1.0, "resonant")

    def test_deep_column_builds(self):
        # n_max 160 is past where a dense recoil tensor (5.0 GiB) fit the
        # budget; the factors need none.  The tiny sphere rule keeps it fast
        trap = trap_2d(n_max=160, quad_theta=4, quad_phi=4)
        pulse = Pulse(s=-2, duration=1.0, amplitude_ratio=-1.0)
        tables = rates.AngularTables(trap)
        sampler = sampler_of(trap, pulse, tables=tables)
        weights, u, mirror, _ = tables.rule(160)
        # unsigned stacks: the oracle applies the recoil phases itself
        rx, ry = (fc.reduced_stack(trap.eta * proj, 160, 160) for proj in (u, u[mirror]))
        f = sampler._provider.f
        for mx, my in ((2, 2), (3, 150), (160, 79)):
            col = sampler._provider.column(mx, my)
            ref = folded_resonant_column_2d(rx, ry, weights, f[mx], f[my],
                                            -2, -1.0, mx, my)
            assert np.abs(col - ref).max() <= 1e-13 * ref.max()

    def test_one_trap_held_at_a_time(self):
        # one 2D sampler per trap over six etas, each dropped after its
        # build: the module keeps no trap's tables, so the memory held after
        # each build is flat (it grew by one trap's tables, 16.6 MiB, per
        # trap while every trap's were kept)
        held = []
        tracemalloc.start()
        try:
            for eta in np.linspace(2.9, 3.1, 6):
                sampler_of(trap_2d(eta=float(eta), n_max=30), Pulse(s=-4, duration=1.0))
                held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert max(held) - held[0] < (1 << 20), held


_EXIT_S = (-4, -3, 0, 2, 3)
_EXIT_CASES = ([(1, s, -1.0) for s in _EXIT_S]
               + [(2, s, a) for s in _EXIT_S for a in (-1.0, 0.125, 0.3 + 0.4j, 1j)])


class TestExitRates:
    """Each provider's exits are its closures less each column's own entry,
    formed without a column; the dense generator and the sampler read them."""

    @pytest.mark.parametrize("mode, tol", [("resonant", 1e-15), ("full", 1e-12)])
    @pytest.mark.parametrize("dims, s, a", _EXIT_CASES)
    def test_exits_are_closure_less_own_entry(self, mode, tol, dims, s, a):
        trap = trap_1d(n_max=60) if dims == 1 else trap_2d(n_max=8)
        pulse = Pulse(s=s, duration=1.0, amplitude_ratio=a)
        dense, sampler = dense_and_sampler(trap, pulse, mode)
        closures, exits = sampler._provider.closures.reshape(-1), sampler.exit_rates
        # dense.self_rates holds each column's own entry
        assert np.all(np.abs(exits - (closures - dense.self_rates)) <= tol * closures)
        assert np.all(exits[closures == 0.0] == 0.0)
        assert np.array_equal(dense.exit_rates, -dense.generator.diagonal())
        assert np.array_equal(exits, dense.exit_rates)

    def test_dark_levels_exit_exactly_zero(self):
        # below the band (m + s < 0) in 1D and 2D, and on the 2D diagonal
        # at s = 0, A = -1, where both lasers' amplitudes cancel
        def exits(trap, pulse):
            return rates._Resonant(rates.AngularTables(trap), pulse).exits

        one = exits(trap_1d(n_max=60), Pulse(s=-3, duration=1.0))
        assert np.all(one[:3] == 0.0) and np.all(one[3:] > 0.0)
        two = exits(trap_2d(), Pulse(s=-3, duration=1.0))
        assert np.all(two[:3, :3] == 0.0) and np.all(two[3:, :] > 0.0)
        two = exits(trap_2d(), Pulse(s=0, duration=1.0, amplitude_ratio=-1.0))
        assert np.all(two.diagonal() == 0.0)
        assert np.all(two[~np.eye(9, dtype=bool)] > 0.0)

    @pytest.mark.parametrize("s", [-3, 0, 2])
    def test_swap_exit_is_full_exit_less_in_class_move(self, s):
        trap = trap_2d(eta=1.7, n_max=6)
        pulse = Pulse(s=s, duration=1.0, amplitude_ratio=-1.0)
        full = rate_matrix(trap, pulse)
        swap = rate_matrix(trap, pulse, basis="swap")
        a, b = rates.StateBasis(trap, "swap").levels.T
        move = np.where(a != b, full.generator[b * 7 + a, a * 7 + b], 0.0)
        want = full.exit_rates[a * 7 + b] - move
        assert np.abs(swap.exit_rates - want).max() <= 1e-15 * full.exit_rates.max()
        assert np.array_equal(swap.exit_rates, -swap.generator.diagonal())


def draws_of(trap, pulses, basis="full"):
    """The ``_Draws`` of ``pulses`` as a 2D resonant Monte Carlo run on
    ``basis`` builds them, on one ``_Emission`` of the run's stack."""
    return rates._providers(Protocol(tuple(pulses), 1), trap, "resonant",
                            rates.StateBasis(trap, basis))[0]


def emission_counts(trap, pulse, level, basis_kind, n=100_000, seed=11):
    """Where ``n`` jumps of ``pulse`` from ``level`` land, drawn as a 2D
    resonant ensemble draws them, counted over the states of the basis and
    the leak (the last entry), with the sampler's proposals."""
    provider = draws_of(trap, [pulse], basis_kind)[0]
    basis = provider.basis
    sampler = rates.ColumnSampler(provider, basis)
    state = int(basis.class_of[np.ravel_multi_index(level, trap.shape)])
    rate, table = sampler.jump_distribution(state)
    rng = np.random.default_rng(seed)
    u = rng.random(n) * rate
    dest = np.concatenate([rates.ColumnSampler.destinations(
        [sampler], np.zeros(part.size, dtype=int), np.full(part.size, state), part,
        [table] * part.size, rng) for part in np.array_split(u, 10)])
    return np.bincount(dest, minlength=basis.size + 1), sampler.proposals


class TestEmissionDraws:
    """A 2D resonant ensemble draws each jump as the photon is emitted, on
    the run's recoil stack, with no column: its law is the dense column's."""

    @pytest.mark.parametrize("s, a, level, basis, cross", [
        pytest.param(-2, -1.0, (3, 2), "full", True, id="even_s_cross"),
        pytest.param(-3, -1.0, (4, 2), "full", False, id="odd_s"),
        pytest.param(0, -1.0, (3, 1), "swap", False, id="s0_A_minus"),
        pytest.param(0, 0.125, (3, 1), "full", False, id="s0_A_eighth"),
        pytest.param(2, -1.0, (7, 6), "full", True, id="s_positive_past_n_max"),
        pytest.param(-2, -1.0, (3, 2), "swap", True, id="swap_in_class_move"),
        pytest.param(-4, -1.0, (6, 6), "swap", True, id="leak_cell")])
    def test_jump_law_matches_dense_column(self, s, a, level, basis, cross):
        # 10^5 draws from one source against the dense column of rate_matrix
        # on the run's basis, its leak and, on the swap basis, the in-class
        # move (the grid exit less the swap exit): chi-square at a fixed seed
        trap = trap_2d(eta=3.0 if s == -4 else 1.7, n_max=6 if s == -4 else 8)
        pulse = Pulse(s=s, duration=1.0, amplitude_ratio=a)
        assert draws_of(trap, [pulse])[0].cross == cross
        counts, _ = emission_counts(trap, pulse, level, basis)
        dense = rate_matrix(trap, pulse, basis=basis)
        state = int(rates.StateBasis(trap, basis).class_of[np.ravel_multi_index(level,
                                                                                trap.shape)])
        want = np.append(dense.generator[:, state], dense.leak[state])
        grid_exit = rate_matrix(trap, pulse).exit_rates[np.ravel_multi_index(level, trap.shape)]
        want[state] = grid_exit - dense.exit_rates[state]
        if basis == "swap" and level[0] != level[1]:  # the in-class move is drawn
            assert want[state] > 1e-3 * grid_exit and counts[state] > 0
        assert want[-1] > 0.0 and counts[-1] > 0
        assert np.all(counts[want <= 0.0] == 0)
        expect = want / want.sum() * counts.sum()
        big = expect >= 5.0
        stat = np.sum((counts[big] - expect[big]) ** 2 / expect[big])
        pooled = expect[~big].sum()  # the bins expected below 5, as one
        if pooled > 0.0:
            stat += (counts[~big].sum() - pooled) ** 2 / pooled
        dof = np.count_nonzero(big) - (pooled == 0.0)
        assert scipy.stats.chi2.sf(stat, dof) > 1e-3, stat

    @pytest.mark.parametrize("s", _EXIT_S)
    @pytest.mark.parametrize("a", [-1.0, 0.125, 0.3 + 0.4j, 1j])
    def test_exits_match_the_resonant_provider(self, s, a):
        # node sums on the stack against the low-rank factors' diagonals;
        # the leaks against the dense generator's
        trap = trap_2d(n_max=8)
        pulse = Pulse(s=s, duration=1.0, amplitude_ratio=a)
        draws = draws_of(trap, [pulse])[0]
        resonant = rates._Resonant(rates.AngularTables(trap), pulse)
        top = resonant.exits.max()
        assert np.abs(draws.exits - resonant.exits).max() <= 1e-13 * top
        assert np.all(draws.exits[resonant.exits == 0.0] == 0.0)
        leak = rate_matrix(trap, pulse).leak.reshape(trap.shape)
        assert np.abs(draws.leaks - leak).max() <= 1e-13 * top

    def test_few_proposals_per_jump_at_small_eta(self):
        # near the Lamb-Dicke limit the two lasers' amplitudes hardly
        # overlap, so a cross-term proposal is accepted about half the time
        trap = TrapConfig(eta=0.05, gamma_over_omega=0.01, dims=2, n_max=10)
        pulses = tuple(Pulse(s=s, duration=2.0e3, amplitude_ratio=-1.0) for s in (-2, -1, 0))
        init = dynamics.thermal_distribution(3.0, trap)
        ens = dynamics.mc_ensemble(400, Protocol(pulses, 20, target=(0, 0)), trap, seed=2,
                                   init=init)
        jumps = int(ens.jump_counts.sum())
        assert jumps > 1000
        assert jumps <= ens.proposals < 3 * jumps

    def test_2d_resonant_ensemble_builds_no_kernel(self, monkeypatch):
        # no recoil factors and no emission kernel: the stack alone
        def refuse(*args, **kwargs):
            raise AssertionError("a 2D kernel or its factors was built")
        monkeypatch.setattr(rates.AngularTables, "factors", refuse)
        monkeypatch.setattr(rates.AngularTables, "emission_kernel", refuse)
        trap = trap_2d(eta=1.7, n_max=8)
        pulses = tuple(Pulse(s=s, duration=1.0, amplitude_ratio=a)
                       for s, a in ((-2, -1.0), (0, -1.0), (2, 0.125)))
        ens = dynamics.mc_ensemble(50, Protocol(pulses, 5, target=(0, 0)), trap, seed=1,
                                   init=dynamics.thermal_distribution(2.0, trap))
        assert ens.jump_counts.sum() > 0 and ens.cache == {
            "emission_kernel": {"builds": 0, "hits": 0}}


class TestResonantFactors:
    FIG5 = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=2, n_max=40)

    @pytest.mark.parametrize("a", [-1.0, 1.0])
    @pytest.mark.parametrize("s", [-18, -9, -4, 0, -19, -10, -5, -1, 8])
    def test_column_matches_folded_node_sum(self, s, a):
        # every fig5 pulse, and fig6's s = 8, whose levels reach past n_max
        trap = self.FIG5
        tables = rates.AngularTables(trap)
        provider = rates._Resonant(tables, Pulse(s=s, duration=1.0, amplitude_ratio=a))
        weights, u, mirror, _ = tables.rule(trap.n_max + max(s, 0))
        # unsigned stacks: the oracle applies the recoil phases itself
        rx, ry = (fc.reduced_stack(trap.eta * proj, trap.n_max,
                                   trap.n_max + max(s, 0)) for proj in (u, u[mirror]))

        def absorb(m):
            return fc_reduced_series(trap.eta, m, m + s) if m + s >= 0 else 0.0

        for mx, my in ((0, 0), (9, 1), (20, 20), (40, 7), (3, 36)):
            ref = folded_resonant_column_2d(rx, ry, weights, absorb(mx),
                                            absorb(my), s, a, mx, my)
            col = provider.column(mx, my)
            assert np.abs(col - ref).max() <= 1e-13 * max(ref.max(), 1e-300)

    def test_no_array_of_n1_to_the_fourth(self):
        # with fewer folded nodes (72) than (n_max+1)^2 = 169, only an array
        # that scales as (n_max+1)^4, such as a dense recoil tensor, reaches
        # (n_max+1)^4 entries
        trap = trap_2d(n_max=12, quad_theta=16, quad_phi=32)
        n1 = trap.n_max + 1
        tables = rates.AngularTables(trap)
        providers = [rates._Resonant(tables, Pulse(s=s, duration=1.0, amplitude_ratio=a))
                     for s, a in ((-4, -1.0), (8, 1.0), (0, -1.0), (-9, 0.125))]

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, (tuple, list)):
                for item in obj:
                    yield from arrays(item)
            elif isinstance(obj, dict):
                for item in obj.values():
                    yield from arrays(item)
            elif hasattr(obj, "__dict__"):
                yield from arrays(vars(obj))

        held = list(arrays([providers, tables]))
        assert any(p.cross is not None for p in providers)
        assert len(held) > 10
        assert max(arr.size for arr in held) < n1 ** 4

    def test_node_basis_residual_checked(self):
        # a basis that misses part of the integrand is refused, not used
        tables = rates.AngularTables(trap_2d(n_max=6))
        q, a, b = tables.factors(6, np.square)
        assert 10 < q.shape[1] < q.shape[0] and a.shape == b.shape == (7, q.shape[1], 7)
        with pytest.raises(SimulationError, match="node basis"):
            tables.factors(6, np.square, q[:, :-1])

    @pytest.mark.parametrize("s", [0, -4, 8])
    def test_node_chunks_match_one_chunk(self, monkeypatch, s):
        # factors formed over many node chunks give the sums of one chunk:
        # the kernel T and, for even s != 0, the cross term C_s
        trap = trap_2d(n_max=12, quad_theta=16, quad_phi=32)
        pulse = Pulse(s=s, duration=1.0, amplitude_ratio=-1.0)

        def sums():
            p = rates._Resonant(rates.AngularTables(trap), pulse)
            return [np.einsum("irn,jrm->injm", a, b)
                    for a, b in (p.kernel[1:], p.cross or p.kernel[1:])]

        one = sums()
        node_bytes = (trap.n_max + 1) * (trap.n_max + 1 + max(s, 0)) * 8
        monkeypatch.setattr(rates, "_FACTOR_CHUNK_BYTES", 5 * node_bytes)
        monkeypatch.setattr(rates, "_FACTOR_CHUNK_NODES", 1)
        many = sums()
        for ref, got in zip(one, many):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_kernel_build_working_set(self):
        # beside the stack and the factors it returns, a 2D kernel build at
        # n_max 24 on the default rule (1056 nodes, 5.3 MB of stack) holds
        # at most 2 MiB: one formed chunk of about 1 MiB, the sketch until
        # the basis is known, and a product buffer of a factor's size
        tables = rates.AngularTables(trap_2d(n_max=24))
        tracemalloc.start()
        try:
            kernel = tables.emission_kernel(24)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        q, a, b = kernel
        assert a.shape == b.shape == (25, q.shape[1], 25) and a.flags.c_contiguous
        stack = tables.stack(24).nbytes
        assert stack > 5e6
        assert peak - stack <= (2 << 20) + q.nbytes + a.nbytes + b.nbytes

    @pytest.mark.parametrize("given_basis", [False, True])
    def test_each_pass_starts_on_the_kept_chunk(self, monkeypatch, given_basis):
        # c chunks of the one stack: the first pass (the sketch, or the
        # projection if the basis is given) forms c, and each later pass
        # c - 1; one call probes the shapes
        tables = rates.AngularTables(trap_2d(n_max=6))
        q = tables.factors(6, np.square)[0] if given_basis else None
        nodes = tables.rule(6)[0].shape[0]
        monkeypatch.setattr(rates, "_FACTOR_CHUNK_BYTES", 100 * tables.stack(6)[0].nbytes)
        chunks = -(-nodes // 100)
        calls = []

        def form(r, out=None):
            calls.append(r.shape[0])
            return np.square(r, out)

        tables.factors(6, form, q)
        passes = 2 if given_basis else 3
        assert chunks > 2 and len(calls) == 1 + chunks + (passes - 1) * (chunks - 1)

    def test_wrong_mirror_fails_the_residual_check(self):
        # the y side of the factors is read through the rule's mirror, so a
        # given basis checked through a wrong one is refused, not used
        tables = rates.AngularTables(trap_2d(n_max=6))
        q = tables.factors(6, np.square)[0]
        tables.factors(6, np.square, q)
        w, u, mirror, row = tables.rule(6)
        for wrong in (np.arange(q.shape[0]), np.roll(mirror, 1)):
            tables._rules[0] = (w, u, wrong, row)  # the held rule, given a wrong mirror
            with pytest.raises(SimulationError, match="node basis"):
                tables.factors(6, np.square, q)

    @pytest.mark.parametrize("pulses, depths", [((-2, 0, -3), [6]), ((-2, 2, -4), [6, 8])])
    def test_one_stack_build_per_depth(self, monkeypatch, pulses, depths):
        # a 2D run's resonant providers build the one x stack once per depth
        # they reach, and a full-mode provider builds it once
        built = []
        stack = fc.reduced_stack

        def spy(eta_proj, n_max, l_max, **kw):
            built.append(l_max)
            return stack(eta_proj, n_max, l_max, **kw)

        monkeypatch.setattr(fc, "reduced_stack", spy)
        trap = trap_2d(n_max=6, quad_theta=8, quad_phi=8)
        protocol = Protocol(tuple(Pulse(s=s, duration=1.0) for s in pulses), cycles=1)
        rates._providers(protocol, trap, "resonant")
        assert built == depths
        built.clear()
        rates._Full(rates.AngularTables(trap), Pulse(s=-2, duration=1.0))
        assert len(built) == 1

    def test_sampler_holds_one_stack(self):
        # a 2D sampler at n_max 30 builds one 8.1 MiB stack, not two: the
        # build peaked at 27.6 MiB with the y stack held beside the x stack
        # and peaks at 20.7 MiB without it
        tracemalloc.start()
        try:
            sampler_of(trap_2d(n_max=30), Pulse(s=-4, duration=1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 << 20, peak / 2 ** 20

    def test_providers_build_the_bands_once(self, monkeypatch):
        # fig3's pulses (s = -9, 8, -10, -3) grew the bands three times, one
        # pulse at a time; a run builds them once, to its deepest |s|, and
        # every provider reads the entries it read before, bitwise
        builds = []
        bands = fc.reduced_bands

        def spy(eta, rows, count):
            builds.append((rows, count))
            return bands(eta, rows, count)

        monkeypatch.setattr(fc, "reduced_bands", spy)
        protocol, trap, _ = preset("fig3")
        trap = dataclasses.replace(trap, n_max=60)
        providers, _ = rates._providers(protocol, trap, "resonant")
        assert builds == [(11, 61)]
        for pulse, provider in zip(protocol.pulses, providers):
            alone = rates._reduced_absorption(rates.AngularTables(trap), pulse.s_int, range(61))
            assert np.array_equal(provider.f, alone)

    @pytest.mark.parametrize("dims", [1, 2])
    def test_resonant_rates_hold_bands_to_their_detuning(self, dims):
        # resonant absorption reads band |s| of the trap's bands, which hold
        # bands 0 ... max |s| over the levels, not a whole single-eta table
        trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=dims, n_max=6)
        tables = rates.AngularTables(trap)
        for s in (-3, 0, 2):
            pulse = Pulse(s=s, duration=1.0)
            rate_matrix(trap, pulse, provider=rates._provider(tables, pulse, "resonant"))
            sampler_of(trap, pulse, tables=tables).jump_distribution(3)
        assert tables.bands(0, 1).shape == (4, 7)


class TestSignedStacks:
    """Every recoil stack carries the phase of its amplitudes as the sign
    (-1)^floor(|n-l|/2) of its reduced factors."""

    @staticmethod
    def signed(eta_proj, n_max, l_max):
        d = np.abs(np.arange(n_max + 1)[:, None] - np.arange(l_max + 1))
        return fc.reduced_stack(eta_proj, n_max, l_max) * (-1.0) ** (d // 2)

    def test_stacks_are_signed_reduced_factors(self):
        # the one stack holds the x projections' factors; read at the 2D
        # rule's mirror, the y projections'
        trap = trap_2d(eta=1.7, n_max=8, quad_theta=8, quad_phi=8)
        tables = rates.AngularTables(trap)
        _, u, mirror, _ = tables.rule(13)
        for nodes in (slice(None), mirror):
            ref = self.signed(trap.eta * u[nodes], 8, 13)
            assert np.array_equal(tables.stack(13)[nodes].view(np.int64), ref.view(np.int64))
        trap = trap_1d(eta=1.7, n_max=10)
        tables = rates.AngularTables(trap)
        l_max = trap.n_max + rates._level_headroom(trap.eta, trap.n_max)
        ref = self.signed(trap.eta * tables.rule(l_max)[1], trap.n_max, l_max)
        assert np.array_equal(tables.stack(l_max).view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("dims", [1, 2])
    def test_full_pulses_share_one_stack(self, monkeypatch, dims):
        # every full-mode provider and sampler of one trap is built from the
        # one stack its tables hold, in 1D as in 2D, and keeps none of it
        built = []
        stack = fc.reduced_stack

        def spy(eta_proj, n_max, l_max, **kw):
            built.append(l_max)
            return stack(eta_proj, n_max, l_max, **kw)

        monkeypatch.setattr(fc, "reduced_stack", spy)
        trap = trap_1d(eta=1.7, n_max=10) if dims == 1 else trap_2d(eta=1.7, n_max=4)
        tables = rates.AngularTables(trap)
        users = [rates._Full(tables, Pulse(s=-2, duration=1.0)),
                 rates._Full(tables, Pulse(s=0.5, duration=1.0, amplitude_ratio=0.3)),
                 sampler_of(trap, Pulse(s=-9, duration=1.0), "full", tables)._provider]
        assert len(built) == 1
        held = tables.stack(built[0])
        assert not any(np.shares_memory(arr, held) for user in users
                       for arr in vars(user).values() if isinstance(arr, np.ndarray))

    @pytest.mark.parametrize("dipole", rates.DIPOLE_PATTERNS)
    def test_y_projection_is_x_at_mirror(self, dipole):
        # phi -> pi/2 - phi maps the folded sphere rule onto itself: mirror is
        # an involution that keeps every weight, and x on it is y
        trap = trap_2d(n_max=4, quad_theta=16, quad_phi=24, dipole=dipole)
        tables = rates.AngularTables(trap)
        w, u, mirror, _ = tables.rule(4)
        assert np.array_equal(mirror[mirror], np.arange(w.size))
        assert not np.array_equal(mirror, np.arange(w.size))
        assert np.array_equal(w[mirror], w)
        cos_theta = np.polynomial.legendre.leggauss(16)[0]
        phi = np.arange(7) * (2.0 * np.pi / 24)
        want = np.outer(np.sqrt(1.0 - cos_theta[cos_theta > 0] ** 2), np.sin(phi)).ravel()
        assert np.abs(u[mirror] - want).max() <= 1e-15


class TestMarkovExpm:
    """Pulse propagators against scipy's Pade expm and the series oracle."""

    @staticmethod
    def check(gen, t, oracle=True):
        prop = rates.markov_expm(gen, t)
        assert np.abs(prop - scipy.linalg.expm(gen * t)).max() <= 1e-14
        if oracle:
            assert np.abs(prop - uniformization_expm(gen, t)).max() <= 1e-14
        assert prop.min() >= 0.0
        # column sums summed exactly, so only the propagator's rounding counts
        assert max(math.fsum(col) for col in prop.T) <= 1.0 + 1e-15
        return prop

    @pytest.mark.parametrize("name, n_max", [("fig3", 60), ("fig3", 120), ("fig5_A_minus", 12)])
    def test_preset_generators(self, name, n_max):
        proto, trap, _ = preset(name)
        trap = dataclasses.replace(trap, n_max=n_max)
        basis = "swap" if trap.dims == 2 else "full"
        for pulse, mat in zip(proto.pulses, generators(trap, proto.pulses, basis=basis)):
            self.check(mat.generator, pulse.duration)

    def test_long_pulse_squares(self):
        # lam is about 1e3 here, so the series runs on 2^10 sub-steps; the
        # oracle's single series would need e^{-lam}, which underflows
        trap = trap_1d(eta=1e-3, n_max=10)
        gen = rate_matrix(trap, Pulse(s=-1, duration=1.0)).generator
        assert 512 < -gen.diagonal().min() * 1e8 <= 1024
        prop = self.check(gen, 1e8, oracle=False)
        assert prop[0] == pytest.approx(np.ones(11), abs=1e-6)

    def test_no_rates_give_identity(self):
        gen = rate_matrix(trap_1d(n_max=20), Pulse(s=-9, duration=1.0)).generator
        for g, t in ((np.zeros((5, 5)), 3.0), (gen, 0.0)):
            assert np.array_equal(rates.markov_expm(g, t), np.eye(len(g)))

    @pytest.mark.parametrize("t", [2.0, 1e3])
    def test_input_generator_unchanged(self, t):
        # B is scaled in place in markov_expm's copy of G t, and the 1e-300
        # entries are zeroed in it, below 2^-106 lam
        gen = np.array([[-0.7, 0.2, 1e-300], [0.0, -0.5, 0.0], [0.7, 0.3, -1e-300]])
        before = gen.copy()
        rates.markov_expm(gen, t)
        assert np.array_equal(gen, before)

    # at this exit rate and duration the fastest level's diagonal in B,
    # 1 - g (t / (t g)), rounds below zero
    G_ROUNDS, T_ROUNDS = 2.224126066457955, 0.9033280256479342

    @pytest.mark.parametrize("gen, t", [
        ([[-0.7, 0.2, 1e-300], [0.0, -0.5, 0.0], [0.7, 0.3, -1e-300]], 2.0),
        ([[-0.7, 0.2, 1e-300], [0.0, -0.5, 0.0], [0.7, 0.3, -1e-300]], 1e3),
        ([[-G_ROUNDS, 0.2, 0.0], [G_ROUNDS, -0.5, 0.0], [0.0, 0.3, 0.0]], T_ROUNDS)],
        ids=["tiny", "tiny-squared", "rounded-diagonal"])
    def test_every_entry_nonnegative(self, gen, t):
        # entries of 1e-300 fall below 2^-106 in B, and a diagonal entry that
        # rounds below zero is zeroed with them
        assert -self.G_ROUNDS * (self.T_ROUNDS / (self.T_ROUNDS * self.G_ROUNDS)) < -1.0
        prop = rates.markov_expm(np.array(gen), t)
        assert prop.min() >= 0.0
        assert max(math.fsum(col) for col in prop.T) <= 1.0 + 1e-15

    def test_leak_only_column(self):
        # level 0 only leaks, level 1 also feeds 0 and 2, level 2 is absorbing
        gen = np.array([[-0.7, 0.2, 0.0], [0.0, -0.5, 0.0], [0.0, 0.1, 0.0]])
        prop = self.check(gen, 2.0)
        assert prop[:, 0] == pytest.approx([math.exp(-1.4), 0.0, 0.0], abs=1e-16)
        assert prop[:, 2] == pytest.approx([0.0, 0.0, 1.0], abs=1e-16)


class TestPulseCacheKey:
    def test_resonant_key_shares_a_sign(self):
        # at odd s the cross term vanishes and A = +-1 differ only in its
        # sign; at s = 0 the sign darkens different levels
        trap = trap_2d(n_max=4)
        for s, shared in ((-9, True), (-3, True), (0, False)):
            pulses = [Pulse(s=s, duration=1.0, amplitude_ratio=a) for a in (-1.0, 1.0)]
            mats = generators(trap, pulses)
            for field in ("generator", "leak"):
                a, b = (getattr(m, field) for m in mats)
                assert np.array_equal(a, b) == shared, (s, field)


class TestCsvExport:
    def test_empty_rates_csv_1d(self, tmp_path):
        path = tmp_path / "r.csv"
        config = tmp_path / "p.cfg"
        config.write_text("[trap]\neta = 3\ngamma_over_omega = 0.01\ndims = 1\n"
                          "n_max = 12\n[[pulse]]\ns = -9\n")
        assert cli.main(["rates", "--config", str(config), "--pulse", "0",
                         "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "m,gamma_over_Gamma0"
        assert lines[2] == "0,0"
        assert len(lines) == 2 + 13

    def test_empty_rates_csv_2d_row_major(self, tmp_path):
        path = tmp_path / "r.csv"
        config = tmp_path / "p.cfg"
        config.write_text("[trap]\neta = 3\ngamma_over_omega = 0.01\ndims = 2\n"
                          "n_max = 2\n[[pulse]]\ns = 0\nA_re = -1\n")
        assert cli.main(["rates", "--config", str(config), "--pulse", "0",
                         "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert "row-major" in lines[0]
        assert lines[1] == "mx,my,gamma_over_Gamma0"
        assert lines[2].startswith("0,0,")
        assert lines[3].startswith("0,1,")
