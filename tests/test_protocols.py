import dataclasses

import numpy as np
import pytest

from dyncool import fc, protocols
from dyncool.errors import ConfigError, DomainError, SingularRatioError
from dyncool.protocols import (PRESET_NAMES, Protocol, design_excited_protocol,
                               parse_config, preset, preset_runspec,
                               validate_protocol, write_config)
from dyncool.rates import Pulse, TrapConfig, empty_rates


class TestPresets:
    def test_all_names_resolve(self):
        assert len(PRESET_NAMES) == 9
        for name in PRESET_NAMES:
            bundle = preset(name)
            assert bundle.thermal_mean == 6.0
            assert bundle.trap.gamma_over_omega == 0.01

    def test_fig2_parameters(self):
        proto, trap, mean = preset("fig2")
        assert [p.s for p in proto.pulses] == [-9, 0, -10, -1]
        assert all(p.duration == 1.0 for p in proto.pulses)
        assert trap.eta == 3.0 and trap.dims == 1
        assert proto.target == 0
        assert proto.pulses[0].s == -9

    def test_fig3_fig4_parameters(self):
        proto3, trap3, _ = preset("fig3")
        assert [p.s for p in proto3.pulses] == [-9, 8, -10, -3]
        assert proto3.target == 1
        proto4, trap4, _ = preset("fig4")
        assert [p.s for p in proto4.pulses] == [-9, 11, -10, -5]
        assert trap4.eta == 3.065
        assert proto4.target == 2

    def test_fig5_parameters(self):
        minus = preset("fig5_A_minus")
        plus = preset("fig5_A_plus")
        ss = [-18, -9, -4, 0, -19, -10, -5, -1]
        assert [p.s for p in minus.protocol.pulses] == ss
        assert all(p.amplitude_ratio == -1.0 for p in minus.protocol.pulses)
        assert all(p.amplitude_ratio == 1.0 for p in plus.protocol.pulses)
        assert minus.trap.dims == 2 and minus.trap.n_max == 40

    def test_fig6_parameters(self):
        solid = preset("fig6_solid")
        assert [p.s for p in solid.protocol.pulses] == [-18, -9, -4, 8, -19, -10, -5, -3]
        dashed = preset("fig6_dashed")
        assert len(dashed.protocol.pulses) == 7
        assert [p.s for p in dashed.protocol.pulses] == [-18, -9, -4, 11, -19, -10, -5]
        assert dashed.trap.eta == 3.065
        assert dashed.protocol.target == (2, 2)

    def test_fig7_parameters(self):
        proto, trap, _ = preset("fig7")
        assert [p.s for p in proto.pulses] == [-18, -9, -4, 0, -19, -10, -5, -2]
        assert proto.pulses[3].duration == 8.0
        assert proto.pulses[3].amplitude_ratio == 0.125
        assert all(p.amplitude_ratio == -1.0 for i, p in enumerate(proto.pulses) if i != 3)
        assert proto.target == (0, 1)
        variant = preset("fig7_caption_variant")
        assert variant.protocol.pulses[-1].s == -1

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            preset("fig99")


class TestProtocolFields:
    @pytest.mark.parametrize("cycles", [2.5, 2.0, "3"])
    def test_non_integer_cycles_refused(self, cycles):
        pulses = (Pulse(s=-1, duration=1.0),)
        with pytest.raises(DomainError, match="cycles"):
            Protocol(pulses, cycles=cycles)
        assert type(Protocol(pulses, cycles=np.int32(2)).cycles) is int


class TestValidation:
    def test_presets_have_no_errors(self):
        for name in PRESET_NAMES:
            proto, trap, _ = preset(name)
            report = validate_protocol(proto, trap)
            assert report.ok, (name, report.errors)
            assert not report.warnings, (name, report.warnings)

    def test_fig2_clean(self):
        proto, trap, _ = preset("fig2")
        report = validate_protocol(proto, trap)
        assert not report.errors and not report.warnings

    def test_missing_confinement_2d(self):
        trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=2, n_max=10)
        proto = Protocol((Pulse(s=-9, duration=1.0),), cycles=10)
        report = validate_protocol(proto, trap)
        rules = [r for r, _ in report.warnings]
        assert "confinement-missing" in rules
        msg = dict(report.warnings)["confinement-missing"]
        assert "-18" in msg

    def test_single_confinement_1d(self):
        trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=1, n_max=40)
        proto = Protocol((Pulse(s=-9, duration=1.0), Pulse(s=0, duration=1.0)),
                         cycles=10)
        report = validate_protocol(proto, trap)
        assert "confinement-pair" in [r for r, _ in report.warnings]

    def test_interference_regime_flag(self):
        trap = TrapConfig(eta=4.5, gamma_over_omega=0.01, dims=2, n_max=10)
        proto = Protocol((Pulse(s=-20, duration=1.0), Pulse(s=-21, duration=1.0),
                          Pulse(s=0, duration=1.0, amplitude_ratio=-1.0)),
                         cycles=10)
        report = validate_protocol(proto, trap)
        assert "interference-regime" in [r for r, _ in report.warnings]

    def test_non_integer_detuning_resonant_only(self):
        trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=1, n_max=40)
        proto = Protocol((Pulse(s=-9.5, duration=1.0), Pulse(s=-9, duration=1.0),
                          Pulse(s=-10, duration=1.0)), cycles=10)
        assert not validate_protocol(proto, trap, mode="resonant").ok
        assert validate_protocol(proto, trap, mode="full").ok

    def test_empty_protocol_error(self):
        trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=1, n_max=40)
        assert not validate_protocol(Protocol((), cycles=1), trap).ok

    def test_dark_sensitivity_note(self):
        proto, trap, _ = preset("fig3")
        report = validate_protocol(proto, trap)
        notes = [r for r, _ in report.notes]
        assert "dark-sensitivity" in notes
        # the note carries residual rates at eta*(1 +- 0.001)
        text = dict(report.notes)["dark-sensitivity"]
        assert "1.001" in text and "0.999" in text


class TestLevelArity:
    # a level is an int in 1D and a pair in 2D: validation and design refuse
    # another arity
    CASES = ((1, (1, 1)), (2, 1), (2, (1,)), (2, (1, 1, 1)))

    def test_validate_refuses_wrong_arity(self):
        for dims, level in self.CASES:
            trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=dims, n_max=20)
            protocol = Protocol((Pulse(s=-9, duration=1.0), Pulse(s=8, duration=1.0)), 1,
                                target=level)
            with pytest.raises(DomainError, match=f"{dims}D trap"):
                validate_protocol(protocol, trap)

    def test_design_refuses_wrong_arity(self):
        for dims, level in self.CASES:
            trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=dims, n_max=20)
            with pytest.raises(DomainError, match=f"{dims}D trap"):
                design_excited_protocol(level, trap)


class TestDesign:
    def test_1d_level1_uses_s8(self):
        trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=1, n_max=60)
        proto = design_excited_protocol(1, trap)
        ss = [p.s for p in proto.pulses]
        assert 8 in ss
        assert -9 in ss and -10 in ss
        assert proto.target == 1

    def test_1d_level2_at_exact_root(self):
        eta = fc.dark_eta_for_level(2, 11)[0]
        trap = TrapConfig(eta=eta, gamma_over_omega=0.01, dims=1, n_max=60)
        proto = design_excited_protocol(2, trap)
        assert 11 in [p.s for p in proto.pulses]

    def test_dark_pulse_exactly_dark(self):
        trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=1, n_max=60)
        proto = design_excited_protocol(1, trap)
        for pulse in proto.pulses:
            rate = empty_rates(trap, pulse)[1]
            assert rate < 1e-6  # auxiliary cap; the dark pulse is exactly zero
        dark = [p for p in proto.pulses if p.s == 8][0]
        assert empty_rates(trap, dark)[1] < 1e-12

    def test_aux_never_exceeds_cap(self):
        for eta, target in ((3.0, 1), (fc.dark_eta_for_level(2, 11)[0], 2)):
            trap = TrapConfig(eta=eta, gamma_over_omega=0.01, dims=1, n_max=60)
            proto = design_excited_protocol(target, trap)
            aux = proto.pulses[-1]
            assert empty_rates(trap, aux)[target] <= 1e-6

    def test_detuned_eta_errors_with_nearest(self):
        trap = TrapConfig(eta=3.05, gamma_over_omega=0.01, dims=1, n_max=60)
        with pytest.raises(DomainError) as err:
            design_excited_protocol(1, trap)
        assert "3.0" in str(err.value)

    def test_2d_interference_design(self):
        trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=2, n_max=20)
        proto = design_excited_protocol((0, 1), trap, style="interference")
        dark = [p for p in proto.pulses if p.s == 0][0]
        assert dark.amplitude_ratio == pytest.approx(0.125 + 0j)
        grid = empty_rates(trap, dark).reshape(21, 21)
        assert grid[0, 1] == 0.0
        ss = [p.s for p in proto.pulses]
        assert -18 in ss and -19 in ss  # confinement pair
        assert -9 in ss and -4 in ss    # pseudo-confinement

    def test_2d_fc_design_diagonal_only(self):
        trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=2, n_max=20)
        proto = design_excited_protocol((1, 1), trap, style="fc")
        assert 8 in [p.s for p in proto.pulses]
        with pytest.raises(DomainError):
            design_excited_protocol((0, 1), trap, style="fc")

    def test_2d_singular_ratio_propagates(self):
        trap = TrapConfig(eta=1.0, gamma_over_omega=0.01, dims=2, n_max=20)
        with pytest.raises(SingularRatioError):
            design_excited_protocol((0, 1), trap, style="interference")

    @pytest.mark.parametrize("target, dims, style, builds", [
        (1, 1, "fc", 1), (2, 1, "fc", 1),
        ((1, 1), 2, "fc", 2),             # the trap and its 1D axis
        ((0, 1), 2, "interference", 2)])  # the trap, and dark_ratio_A's own band
    def test_one_band_build_per_trap(self, target, dims, style, builds, monkeypatch):
        # a design reads its many resonant rates from one set of bands per trap
        built, inner = [], fc.reduced_bands
        monkeypatch.setattr(fc, "reduced_bands", lambda *args: built.append(args) or inner(*args))
        eta = fc.dark_eta_for_level(2, 11)[0] if target == 2 else 3.0
        trap = TrapConfig(eta=eta, gamma_over_omega=0.01, dims=dims, n_max=60 // dims)
        design_excited_protocol(target, trap, style=style)
        assert len(built) == builds

    def test_designed_protocol_validates(self):
        trap = TrapConfig(eta=3.0, gamma_over_omega=0.01, dims=1, n_max=60)
        proto = design_excited_protocol(1, trap)
        assert validate_protocol(proto, trap).ok


class TestConfigRoundTrip:
    def test_preset_round_trip_byte_identical(self):
        for name in PRESET_NAMES:
            spec = preset_runspec(name)
            text = write_config(spec)
            again = write_config(parse_config(text))
            assert text == again, name

    def test_preset_round_trip_gives_the_spec(self):
        # the parsed spec is the preset's, all but the protocol's name
        for name in PRESET_NAMES:
            spec = preset_runspec(name)
            unnamed = dataclasses.replace(spec, protocol=dataclasses.replace(spec.protocol,
                                                                             name=None))
            assert parse_config(write_config(spec)) == unnamed, name

    @pytest.mark.parametrize("key", ["eta", "gamma_over_omega", "dims", "s"])
    def test_parse_requires_key(self, key):
        text = "[trap]\neta = 3\ngamma_over_omega = 0.01\ndims = 2\n[[pulse]]\ns = -18\n"
        text = "".join(line + "\n" for line in text.splitlines()
                       if not line.startswith(f"{key} ="))
        with pytest.raises(ConfigError, match=f"missing required key '{key}'"):
            parse_config(text)

    def test_parse_rejects_unknown_key(self):
        spec = preset_runspec("fig2")
        text = write_config(spec).replace("eta =", "etaa =", 1)
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "etaa" in str(err.value)
        assert "line 2" in str(err.value)

    def test_parse_rejects_unknown_section(self):
        with pytest.raises(ConfigError):
            parse_config("[laser]\npower = 3\n")

    def test_parse_requires_pulses(self):
        text = "[trap]\neta = 3\ngamma_over_omega = 0.01\ndims = 1\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "pulse" in str(err.value)

    def test_parse_duplicate_key(self):
        spec = preset_runspec("fig2")
        text = write_config(spec)
        text = text.replace("[init]\nthermal_mean = 6",
                            "[init]\nthermal_mean = 6\nthermal_mean = 7")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "duplicate" in str(err.value)

    def test_parse_bad_value_names_line(self):
        spec = preset_runspec("fig2")
        text = write_config(spec).replace("eta = 3", "eta = three")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "eta" in str(err.value)

    def test_2d_target_round_trip(self):
        spec = preset_runspec("fig7")
        parsed = parse_config(write_config(spec))
        assert parsed.protocol.target == (0, 1)
        assert parsed.protocol.pulses[3].amplitude_ratio == 0.125 + 0j

    def test_defaults_materialize(self):
        text = ("[trap]\neta = 2\ngamma_over_omega = 0.05\ndims = 1\n"
                "[[pulse]]\ns = -4\n")
        spec = parse_config(text)
        assert spec.trap.n_max == 120
        assert spec.protocol.pulses[0].duration == 1.0
        assert spec.protocol.pulses[0].amplitude_ratio == -1.0 + 0j
        assert spec.mode == "master"
        assert spec.protocol.target == 0

    def test_defaults_materialize_2d(self):
        spec = parse_config("[trap]\neta = 3\ngamma_over_omega = 0.01\ndims = 2\n"
                            "[[pulse]]\ns = -18\n")
        assert spec.trap.n_max == 40
        assert (spec.trap.quad_theta, spec.trap.quad_phi) == (64, 128)
        assert spec.protocol.cycles == 300
        assert spec.protocol.target == (0, 0)
        assert spec.thermal_mean == 6.0
        assert (spec.trajectories, spec.seed) == (1000, 12345)
