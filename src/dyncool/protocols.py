"""Pulse protocols: data model, regime validation, presets, dark-state design.

Presets reproduce the published pulse sequences figure by figure.  Where the
source text and a figure caption disagree (fig4's Lamb-Dicke parameter,
fig7's final detuning) the presets follow the text, and the caption variant
of fig7 is exposed separately.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import fc
from .errors import ConfigError, DomainError, ValidityError
from .rates import (DEFAULT_QUAD_PHI, DEFAULT_QUAD_THETA, Pulse, TrapConfig,
                    format_float, level_empty_rates, level_indices)


@dataclass(frozen=True)
class Protocol:
    """Ordered pulse cycle applied a fixed number of times."""

    pulses: tuple[Pulse, ...]
    cycles: int
    name: str | None = None
    target: int | tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise DomainError(f"cycles must be >= 0, got {self.cycles}")


@dataclass
class ValidationReport:
    """Rule findings; a protocol is runnable iff ``errors`` is empty."""

    errors: list[tuple[str, str]] = field(default_factory=list)
    warnings: list[tuple[str, str]] = field(default_factory=list)
    notes: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


class PresetBundle(NamedTuple):
    protocol: Protocol
    trap: TrapConfig
    thermal_mean: float


class RunDefaults(NamedTuple):
    n_max: int
    cycles: int
    target: int | tuple[int, int]


# basis depth, cycle count and target of a run, by trap dimension: the
# presets' values, and what configs and designed protocols get unless they
# say otherwise
RUN_DEFAULTS = {1: RunDefaults(n_max=120, cycles=200, target=0),
                2: RunDefaults(n_max=40, cycles=300, target=(0, 0))}

PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5_A_minus", "fig5_A_plus",
                "fig6_solid", "fig6_dashed", "fig7", "fig7_caption_variant")

PRESET_DESCRIPTIONS = {
    "fig2": "1D ground-state cooling, eta=3, pulses s=(-9,0,-10,-1)",
    "fig3": "1D confinement into level 1, eta=3, pulses s=(-9,8,-10,-3)",
    "fig4": "1D confinement into level 2, eta=3.065, pulses s=(-9,11,-10,-5)",
    "fig5_A_minus": "2D ground-state cooling with interference dark states (A=-1)",
    "fig5_A_plus": "2D ground-state cooling without the interference boost (A=+1)",
    "fig6_solid": "2D confinement into (1,1), eta=3, dark pulse s=8",
    "fig6_dashed": "2D confinement into (2,2), eta=3.065, dark pulse s=11",
    "fig7": "2D confinement into (0,1) via A=1/8 interference pulse, final s=-2",
    "fig7_caption_variant": "fig7 with the final detuning -1 from the figure caption",
}

_GAMMA = 0.01
_MEAN = 6.0


def _pulses(ss, durations=None, ratios=None) -> tuple[Pulse, ...]:
    if durations is None:
        durations = [1.0] * len(ss)
    if ratios is None:
        ratios = [complex(-1.0)] * len(ss)
    return tuple(Pulse(s=s, duration=d, amplitude_ratio=complex(a))
                 for s, d, a in zip(ss, durations, ratios))


def preset(name: str) -> PresetBundle:
    """Published protocol + trap configuration for one figure."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    if name == "fig2":
        eta, dims, target = 3.0, 1, 0
        pulses = _pulses([-9, 0, -10, -1])
    elif name == "fig3":
        eta, dims, target = 3.0, 1, 1
        pulses = _pulses([-9, 8, -10, -3])
    elif name == "fig4":
        eta, dims, target = 3.065, 1, 2
        pulses = _pulses([-9, 11, -10, -5])
    elif name in ("fig5_A_minus", "fig5_A_plus"):
        eta, dims, target = 3.0, 2, (0, 0)
        pulses = _pulses([-18, -9, -4, 0, -19, -10, -5, -1],
                         ratios=[-1.0 if name == "fig5_A_minus" else 1.0] * 8)
    elif name == "fig6_solid":
        eta, dims, target = 3.0, 2, (1, 1)
        pulses = _pulses([-18, -9, -4, 8, -19, -10, -5, -3])
    elif name == "fig6_dashed":
        eta, dims, target = 3.065, 2, (2, 2)
        pulses = _pulses([-18, -9, -4, 11, -19, -10, -5])
    else:  # fig7 and its caption variant
        eta, dims, target = 3.0, 2, (0, 1)
        pulses = _pulses([-18, -9, -4, 0, -19, -10, -5, -2 if name == "fig7" else -1],
                         durations=[1, 1, 1, 8, 1, 1, 1, 1],
                         ratios=[-1, -1, -1, 0.125, -1, -1, -1, -1])
    defaults = RUN_DEFAULTS[dims]
    trap = TrapConfig(eta=eta, gamma_over_omega=_GAMMA, dims=dims, n_max=defaults.n_max)
    proto = Protocol(pulses, defaults.cycles, name, target=target)
    return PresetBundle(proto, trap, _MEAN)


def validate_protocol(protocol: Protocol, trap: TrapConfig,
                      mode: str = "resonant") -> ValidationReport:
    """Check a protocol against the cooling-regime rules.

    Errors make the protocol unrunnable (non-integer detuning in resonant
    mode, no pulses); weak confinement never gets here, as ``TrapConfig``
    refuses gamma >= omega.  Warnings flag setups that run but are expected
    to cool badly; notes carry dark-state sensitivity numbers.  A target
    that is not a level of the trap (``rates.level_indices``) raises
    ``DomainError``.
    """
    rep = ValidationReport()
    if not protocol.pulses:
        rep.errors.append(("empty-protocol", "protocol contains no pulses"))

    d = trap.dims
    confinement_s = -d * trap.eta_hat2
    window = [p.s for p in protocol.pulses if abs(p.s - confinement_s) <= 1]
    if protocol.pulses and not window:
        rep.warnings.append((
            "confinement-missing",
            f"no confinement pulse near s = {confinement_s} "
            f"(-{d}*eta_hat^2 for a {d}D trap)"))
    elif d == 1 and len(set(window)) < 2:
        rep.warnings.append((
            "confinement-pair",
            "only one confinement detuning present; two slightly detuned "
            "confinement pulses are needed to cover each other's rate minima"))
    if trap.eta > 4.0 and any(p.s == 0 for p in protocol.pulses):
        rep.warnings.append((
            "interference-regime",
            f"eta = {trap.eta} > 4: the zero-detuning diagonal factor "
            "exp(-eta^2/2) L_m(eta^2) is suppressed on the lowest levels, so "
            "the interference dark-state mechanism no longer selects levels"))

    target = protocol.target
    if target is not None:
        level_indices(trap.shape, [target])
    for i, pulse in enumerate(protocol.pulses):
        try:
            s = pulse.s_int
        except ValidityError:
            if mode == "resonant":
                rep.errors.append((
                    "integer-detuning",
                    f"pulse {i + 1} has non-integer s={pulse.s}; resonant mode "
                    "requires delta = s*omega with integer s"))
            continue
        # a red pulse darkens low levels trivially (m+s < 0): nothing to report
        if target is None or s < 0 or _target_rate(trap, pulse, target) >= 1e-10:
            continue
        plus = _perturbed_rate(trap, pulse, target, 1.001)
        minus = _perturbed_rate(trap, pulse, target, 0.999)
        rep.notes.append((
            "dark-sensitivity",
            f"pulse {i + 1} (s={pulse.s:g}) darkens target "
            f"{target}; residual empty rate at eta*1.001: "
            f"{plus:.3e} Gamma0, at eta*0.999: {minus:.3e} Gamma0"))
    return rep


def _target_rate(trap: TrapConfig, pulse: Pulse, target) -> float:
    return float(level_empty_rates(trap, pulse, [target])[0])


def _perturbed_rate(trap: TrapConfig, pulse: Pulse, target, factor: float) -> float:
    return _target_rate(dataclasses.replace(trap, eta=trap.eta * factor), pulse, target)


# ---------------------------------------------------------------------------
# dark-state protocol design

_AUX_RATE_CAP = 1e-6
_DARK_RATE_CAP = 1e-12


def design_excited_protocol(target, trap: TrapConfig,
                            style: str = "fc", cycles: int | None = None) -> Protocol:
    """Assemble a confinement + dark + auxiliary pulse cycle for one target.

    style='fc' uses the Laguerre-zero dark condition (1D targets 1 or 2, or
    2D diagonal targets); style='interference' uses the two-laser amplitude
    ratio at zero detuning (any 2D target with a nonsingular ratio).
    """
    idx = tuple(level_indices(trap.shape, [target])[0].tolist())
    if trap.dims == 1:
        if style != "fc":
            raise DomainError("1D targets support only the 'fc' style")
        (tgt,) = idx
        if tgt not in (1, 2):
            raise DomainError(
                f"closed-form dark conditions exist for levels 1 and 2, got {tgt}")
        dark = Pulse(s=_dark_detuning_1d(tgt, trap), duration=1.0)
        skeleton = [Pulse(s=-trap.eta_hat2, duration=1.0), dark,
                    Pulse(s=-trap.eta_hat2 - 1, duration=1.0)]
    else:
        e2 = trap.eta_hat2
        pseudo = e2 // 2
        tgt = idx
        if style == "fc":
            mx, my = idx
            if mx != my or mx < 1:
                raise DomainError(
                    "the Franck-Condon dark condition darkens both axes only "
                    f"for diagonal targets (m, m), m >= 1; got {target}")
            if mx > 2:
                raise DomainError(
                    f"closed-form dark conditions exist for levels 1 and 2, got {mx}")
            dark = Pulse(s=_dark_detuning_1d(mx, trap), duration=1.0)
        elif style == "interference":
            ratio = fc.dark_ratio_A(trap.eta, tgt)
            dark = Pulse(s=0, duration=8.0, amplitude_ratio=ratio)
        else:
            raise DomainError(f"unknown design style {style!r}")
        skeleton = [Pulse(s=-2 * e2, duration=1.0),
                    Pulse(s=-e2, duration=1.0),
                    Pulse(s=-pseudo, duration=1.0),
                    dark,
                    Pulse(s=-2 * e2 - 1, duration=1.0),
                    Pulse(s=-e2 - 1, duration=1.0),
                    Pulse(s=-pseudo - 1, duration=1.0)]

    aux = _auxiliary_pulse(idx, trap, skeleton)
    pulses = tuple(skeleton + [aux])
    if cycles is None:
        cycles = RUN_DEFAULTS[trap.dims].cycles
    return Protocol(pulses, cycles, name=f"designed_{style}", target=tgt)


def _dark_detuning_1d(m: int, trap: TrapConfig) -> int:
    """Integer s whose Laguerre-zero condition is met at the trap's eta."""
    axis = dataclasses.replace(trap, dims=1)  # the condition holds per axis
    best: tuple[float, float] | None = None
    for s in range(1, 2 * trap.eta_hat2 + 8):
        if _target_rate(axis, Pulse(s=s, duration=1.0), m) < _DARK_RATE_CAP:
            return s
        for root in fc.dark_eta_for_level(m, s):
            gap = abs(root - trap.eta)
            if best is None or gap < best[0]:
                best = (gap, root)
    nearest = best[1] if best else float("nan")
    raise DomainError(
        f"no detuning makes level {m} dark at eta={trap.eta}; nearest valid "
        f"eta is {nearest:.10f}")


def _auxiliary_pulse(idx: tuple, trap: TrapConfig, skeleton: list[Pulse]) -> Pulse:
    """Detuning that spares the target, at index tuple ``idx``, but empties
    its surviving neighbors."""
    e2 = trap.eta_hat2
    used = {p.s for p in skeleton}
    # the levels up to eta_hat^2 + 2 per axis (eta_hat^2 // 2 + 2 in 2D) but the target
    top = min(trap.n_max, e2 // trap.dims + 2)
    window = [lvl for lvl in np.ndindex((top + 1,) * trap.dims) if lvl != idx]
    base = np.zeros(len(window))
    for p in skeleton:
        base += level_empty_rates(trap, p, window)
    best_s = None
    best_score = -1.0
    for s in range(-2 * e2 - 5, 2 * e2 + 6):
        if s in used:
            continue
        cand = Pulse(s=s, duration=1.0)
        if _target_rate(trap, cand, idx) > _AUX_RATE_CAP:
            continue
        rates = level_empty_rates(trap, cand, window)
        score = float(np.min(base + rates)) if window else 0.0
        if score > best_score or (score == best_score and best_s is not None
                                  and abs(s) < abs(best_s)):
            best_score = score
            best_s = s
    if best_s is None:
        raise DomainError("no auxiliary detuning spares the target in the scan range")
    return Pulse(s=best_s, duration=1.0)


# ---------------------------------------------------------------------------
# sectioned key-value config files


@dataclass
class RunSpec:
    """One fully resolved run: trap, protocol, initial state, run options."""

    trap: TrapConfig
    protocol: Protocol
    thermal_mean: float = 6.0
    mode: str = "master"
    trajectories: int = 1000
    seed: int = 12345


_TRAP_KEYS = ("eta", "gamma_over_omega", "dims", "n_max", "dipole",
              "quad_theta", "quad_phi")
_INIT_KEYS = ("thermal_mean",)
_PULSE_KEYS = ("s", "duration_tau0", "A_re", "A_im")
_RUN_KEYS = ("cycles", "mode", "trajectories", "seed", "target")


def parse_config(text: str) -> RunSpec:
    """Parse the sectioned key-value protocol format.

    Sections: [trap], [init], repeated [[pulse]], [run].  Errors name the
    offending key and line.
    """
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    pulses: list[dict[str, tuple[str, int]]] = []
    current: dict[str, tuple[str, int]] | None = None
    current_name = ""
    known = {"[trap]": _TRAP_KEYS, "[init]": _INIT_KEYS, "[run]": _RUN_KEYS,
             "[[pulse]]": _PULSE_KEYS}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if line == "[[pulse]]":
                current = {}
                pulses.append(current)
                current_name = line
            elif line in ("[trap]", "[init]", "[run]"):
                if line in sections:
                    raise ConfigError(f"line {lineno}: duplicate section {line}")
                current = {}
                sections[line] = current
                current_name = line
            else:
                raise ConfigError(f"line {lineno}: unknown section {line}")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if current is None:
            raise ConfigError(f"line {lineno}: key {key!r} outside any section")
        if key not in known[current_name]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in {current_name}")
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in {current_name}")
        current[key] = (value, lineno)

    trap_kv = sections.get("[trap]")
    if trap_kv is None:
        raise ConfigError("missing required section [trap]")
    if not pulses:
        raise ConfigError("config declares no [[pulse]] sections")

    def get(kv, key, conv, default=None, required=False):
        if key not in kv:
            if required:
                raise ConfigError(f"missing required key {key!r}")
            return default
        value, lineno = kv[key]
        try:
            return conv(value)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None

    def to_int(value: str) -> int:
        as_float = float(value)
        if as_float != int(as_float):
            raise ValueError(f"{value!r} is not an integer")
        return int(as_float)

    dims = get(trap_kv, "dims", to_int, required=True)
    if dims not in RUN_DEFAULTS:
        raise ConfigError(f"dims must be 1 or 2, got {dims}")
    defaults = RUN_DEFAULTS[dims]
    trap = TrapConfig(
        eta=get(trap_kv, "eta", float, required=True),
        gamma_over_omega=get(trap_kv, "gamma_over_omega", float, required=True),
        dims=dims,
        n_max=get(trap_kv, "n_max", to_int, default=defaults.n_max),
        dipole=get(trap_kv, "dipole", str, default="isotropic"),
        quad_theta=get(trap_kv, "quad_theta", to_int, default=DEFAULT_QUAD_THETA),
        quad_phi=get(trap_kv, "quad_phi", to_int, default=DEFAULT_QUAD_PHI))

    pulse_objs = []
    for kv in pulses:
        pulse_objs.append(Pulse(
            s=get(kv, "s", float, required=True),
            duration=get(kv, "duration_tau0", float, default=1.0),
            amplitude_ratio=complex(get(kv, "A_re", float, default=-1.0),
                                    get(kv, "A_im", float, default=0.0))))

    run_kv = sections.get("[run]", {})
    mode = get(run_kv, "mode", str, default="master")
    if mode not in ("master", "mc"):
        raise ConfigError(f"mode must be 'master' or 'mc', got {mode!r}")
    target = get(run_kv, "target", lambda v: _parse_target(v, dims), default=defaults.target)
    protocol = Protocol(tuple(pulse_objs),
                        cycles=get(run_kv, "cycles", to_int, default=defaults.cycles),
                        target=target)
    init_kv = sections.get("[init]", {})
    return RunSpec(
        trap=trap, protocol=protocol,
        thermal_mean=get(init_kv, "thermal_mean", float, default=_MEAN),
        mode=mode,
        trajectories=get(run_kv, "trajectories", lambda v: _check_trajectories(to_int(v)),
                         default=1000),
        seed=get(run_kv, "seed", lambda v: _check_seed(to_int(v)), default=12345))


def _check_seed(seed: int) -> int:
    """A Monte Carlo seed: ``np.random.default_rng`` takes no negative one."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _check_trajectories(count: int) -> int:
    """A Monte Carlo trajectory count: an ensemble needs at least one."""
    if count < 1:
        raise ValueError(f"trajectories must be >= 1, got {count}")
    return count


def _parse_target(value: str, dims: int):
    """A target level, '3' or '0,1': an int, or a tuple of several (``level_indices``)."""
    try:
        levels = tuple(int(p) for p in value.split(","))
        target = levels[0] if len(levels) == 1 else levels
        level_indices((1,) * dims, [target])
    except ValueError:
        raise ValueError(f"target must be integer level(s), got {value!r}") from None
    except DomainError as exc:
        raise ValueError(f"target {value!r}: {exc}") from None
    return target


def write_config(spec: RunSpec) -> str:
    """Canonical text form; parse(write(spec)) round-trips byte-identically."""
    ff = format_float
    lines = ["[trap]",
             f"eta = {ff(spec.trap.eta)}",
             f"gamma_over_omega = {ff(spec.trap.gamma_over_omega)}",
             f"dims = {spec.trap.dims}",
             f"n_max = {spec.trap.n_max}",
             f"dipole = {spec.trap.dipole}",
             f"quad_theta = {spec.trap.quad_theta}",
             f"quad_phi = {spec.trap.quad_phi}",
             "",
             "[init]",
             f"thermal_mean = {ff(spec.thermal_mean)}"]
    for pulse in spec.protocol.pulses:
        a = complex(pulse.amplitude_ratio)
        lines += ["",
                  "[[pulse]]",
                  f"s = {ff(pulse.s)}",
                  f"duration_tau0 = {ff(pulse.duration)}",
                  f"A_re = {ff(a.real)}",
                  f"A_im = {ff(a.imag)}"]
    target = spec.protocol.target
    if target is None:
        target = RUN_DEFAULTS[spec.trap.dims].target
    target_str = ",".join(map(str, level_indices(spec.trap.shape, [target])[0].tolist()))
    lines += ["",
              "[run]",
              f"cycles = {spec.protocol.cycles}",
              f"mode = {spec.mode}",
              f"trajectories = {spec.trajectories}",
              f"seed = {spec.seed}",
              f"target = {target_str}",
              ""]
    return "\n".join(lines)


def preset_runspec(name: str) -> RunSpec:
    """RunSpec for a preset with default run options."""
    bundle = preset(name)
    return RunSpec(trap=bundle.trap, protocol=bundle.protocol,
                   thermal_mean=bundle.thermal_mean)
