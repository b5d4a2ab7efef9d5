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
from .rates import (RUN_DEFAULTS, AngularTables, Pulse, TrapConfig, _integer,
                    _level_empty_rates, format_float, level_indices)


@dataclass(frozen=True)
class Protocol:
    """Ordered pulse cycle applied a fixed number of times."""

    pulses: tuple[Pulse, ...]
    cycles: int
    name: str | None = None
    target: int | tuple[int, int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "cycles", _integer(self.cycles, "cycles"))
        if self.cycles < 0:
            raise DomainError(f"cycles must be >= 0, got {self.cycles}")

    def target_in(self, dims: int):
        """The target level, or the default one of a ``dims``-dimensional trap."""
        return RUN_DEFAULTS[dims].target if self.target is None else self.target


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


# the published presets: description, eta, target and the cycle as (s, tau,
# A) per pulse; a preset's trap has the dims of its target and gamma/omega 0.01
_PRESETS = {
    "fig2": ("1D ground-state cooling, eta=3, pulses s=(-9,0,-10,-1)", 3.0, 0,
             ((-9, 1, -1), (0, 1, -1), (-10, 1, -1), (-1, 1, -1))),
    "fig3": ("1D confinement into level 1, eta=3, pulses s=(-9,8,-10,-3)", 3.0, 1,
             ((-9, 1, -1), (8, 1, -1), (-10, 1, -1), (-3, 1, -1))),
    "fig4": ("1D confinement into level 2, eta=3.065, pulses s=(-9,11,-10,-5)", 3.065, 2,
             ((-9, 1, -1), (11, 1, -1), (-10, 1, -1), (-5, 1, -1))),
    "fig5_A_minus": ("2D ground-state cooling with interference dark states (A=-1)", 3.0,
                     (0, 0), ((-18, 1, -1), (-9, 1, -1), (-4, 1, -1), (0, 1, -1),
                              (-19, 1, -1), (-10, 1, -1), (-5, 1, -1), (-1, 1, -1))),
    "fig5_A_plus": ("2D ground-state cooling without the interference boost (A=+1)", 3.0,
                    (0, 0), ((-18, 1, 1), (-9, 1, 1), (-4, 1, 1), (0, 1, 1),
                             (-19, 1, 1), (-10, 1, 1), (-5, 1, 1), (-1, 1, 1))),
    "fig6_solid": ("2D confinement into (1,1), eta=3, dark pulse s=8", 3.0, (1, 1),
                   ((-18, 1, -1), (-9, 1, -1), (-4, 1, -1), (8, 1, -1),
                    (-19, 1, -1), (-10, 1, -1), (-5, 1, -1), (-3, 1, -1))),
    "fig6_dashed": ("2D confinement into (2,2), eta=3.065, dark pulse s=11", 3.065, (2, 2),
                    ((-18, 1, -1), (-9, 1, -1), (-4, 1, -1), (11, 1, -1),
                     (-19, 1, -1), (-10, 1, -1), (-5, 1, -1))),
    "fig7": ("2D confinement into (0,1) via A=1/8 interference pulse, final s=-2", 3.0,
             (0, 1), ((-18, 1, -1), (-9, 1, -1), (-4, 1, -1), (0, 8, 0.125),
                      (-19, 1, -1), (-10, 1, -1), (-5, 1, -1), (-2, 1, -1))),
    "fig7_caption_variant": ("fig7 with the final detuning -1 from the figure caption", 3.0,
                             (0, 1), ((-18, 1, -1), (-9, 1, -1), (-4, 1, -1), (0, 8, 0.125),
                                      (-19, 1, -1), (-10, 1, -1), (-5, 1, -1), (-1, 1, -1))),
}

PRESET_NAMES = tuple(_PRESETS)

PRESET_DESCRIPTIONS = {name: entry[0] for name, entry in _PRESETS.items()}


def preset(name: str) -> PresetBundle:
    """Published protocol + trap configuration for one figure."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    _, eta, target, cycle = _PRESETS[name]
    trap = TrapConfig(eta=eta, gamma_over_omega=0.01, dims=np.size(target))
    pulses = tuple(Pulse(s, tau, complex(a)) for s, tau, a in cycle)
    return PresetBundle(Protocol(pulses, RUN_DEFAULTS[trap.dims].cycles, name, target), trap,
                        RunSpec.thermal_mean)


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
    # one set of bands per trap: the trap's, and at eta * 1.001 and eta * 0.999
    tables = [AngularTables(dataclasses.replace(trap, eta=trap.eta * f))
              for f in (1.0, 1.001, 0.999)]
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
        if target is None or s < 0 or _target_rate(tables[0], pulse, target) >= 1e-10:
            continue
        plus, minus = (_target_rate(perturbed, pulse, target) for perturbed in tables[1:])
        rep.notes.append((
            "dark-sensitivity",
            f"pulse {i + 1} (s={pulse.s:g}) darkens target "
            f"{target}; residual empty rate at eta*1.001: "
            f"{plus:.3e} Gamma0, at eta*0.999: {minus:.3e} Gamma0"))
    return rep


def _target_rate(tables: AngularTables, pulse: Pulse, target) -> float:
    return float(_level_empty_rates(tables, pulse, [target])[0])


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
        tables = _scan_tables(trap, idx)
        dark = Pulse(s=_dark_detuning_1d(tgt, tables), duration=1.0)
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
            # the condition holds per axis
            axis = _scan_tables(dataclasses.replace(trap, dims=1), (mx,))
            dark = Pulse(s=_dark_detuning_1d(mx, axis), duration=1.0)
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
        tables = _scan_tables(trap, idx)

    aux = _auxiliary_pulse(idx, tables, skeleton)
    pulses = tuple(skeleton + [aux])
    if cycles is None:
        cycles = RUN_DEFAULTS[trap.dims].cycles
    return Protocol(pulses, cycles, name=f"designed_{style}", target=tgt)


def _window_top(trap: TrapConfig) -> int:
    """The auxiliary pulse's window: levels up to eta_hat^2 + 2 per axis
    (eta_hat^2 // 2 + 2 in 2D)."""
    return min(trap.n_max, trap.eta_hat2 // trap.dims + 2)


def _scan_tables(trap: TrapConfig, idx: tuple) -> AngularTables:
    """``trap``'s tables, their bands built once for every rate a design
    reads: detunings |s| <= 2 eta_hat^2 + 7 on the window's levels and
    the target's, ``idx``."""
    tables = AngularTables(trap)
    tables.bands(2 * trap.eta_hat2 + 7, max(_window_top(trap), *idx) + 1)
    return tables


def _dark_detuning_1d(m: int, tables: AngularTables) -> int:
    """Integer s whose Laguerre-zero condition is met at the 1D trap's eta."""
    trap = tables.trap
    best: tuple[float, float] | None = None
    for s in range(1, 2 * trap.eta_hat2 + 8):
        if _target_rate(tables, Pulse(s=s, duration=1.0), m) < _DARK_RATE_CAP:
            return s
        for root in fc.dark_eta_for_level(m, s):
            gap = abs(root - trap.eta)
            if best is None or gap < best[0]:
                best = (gap, root)
    nearest = best[1] if best else float("nan")
    raise DomainError(
        f"no detuning makes level {m} dark at eta={trap.eta}; nearest valid "
        f"eta is {nearest:.10f}")


def _auxiliary_pulse(idx: tuple, tables: AngularTables, skeleton: list[Pulse]) -> Pulse:
    """Detuning that spares the target, at index tuple ``idx``, but empties
    its surviving neighbors in the window (``_window_top``)."""
    trap = tables.trap
    e2 = trap.eta_hat2
    used = {p.s for p in skeleton}
    window = [lvl for lvl in np.ndindex((_window_top(trap) + 1,) * trap.dims) if lvl != idx]
    base = np.zeros(len(window))
    for p in skeleton:
        base += _level_empty_rates(tables, p, window)
    best_s = None
    best_score = -1.0
    for s in range(-2 * e2 - 5, 2 * e2 + 6):
        if s in used:
            continue
        cand = Pulse(s=s, duration=1.0)
        if _target_rate(tables, cand, idx) > _AUX_RATE_CAP:
            continue
        rates = _level_empty_rates(tables, cand, window)
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


def _to_int(value: str) -> int:
    as_float = float(value)
    if as_float != int(as_float):
        raise ValueError(f"{value!r} is not an integer")
    return int(as_float)


def _mode(value: str) -> str:
    if value not in ("master", "mc"):
        raise ValueError(f"mode must be 'master' or 'mc', got {value!r}")
    return value


def _at_least(low: int, message: str):
    """The conversion of an integer that ``message`` refuses below ``low``."""
    def convert(value: str) -> int:
        number = _to_int(value)
        if number < low:
            raise ValueError(f"{message}, got {number}")
        return number
    return convert


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


# The keys of each config section in file order, with the conversion of their
# text.  A [trap], [init] or [run] key sets the TrapConfig, RunSpec or Protocol
# field of its name, and one left out takes that field's default, or the
# RUN_DEFAULTS entry of the trap's dims; eta, gamma_over_omega and dims have
# none.  A [[pulse]] is Pulse(s, duration_tau0, A_re + i A_im), and its keys
# left out read as _PULSE_DEFAULTS.
_SCHEMA = {
    "[trap]": {"eta": float, "gamma_over_omega": float, "dims": _to_int, "n_max": _to_int,
               "dipole": str, "quad_theta": _to_int, "quad_phi": _to_int},
    "[init]": {"thermal_mean": float},
    "[[pulse]]": {"s": float, "duration_tau0": float, "A_re": float, "A_im": float},
    # an ensemble needs a trajectory, and np.random.default_rng no negative seed
    "[run]": {"cycles": _to_int, "mode": _mode,
              "trajectories": _at_least(1, "trajectories must be >= 1"),
              "seed": _at_least(0, "seed must be a non-negative integer"),
              "target": _parse_target},
}

# the [[pulse]] keys' defaults in file order: s has none, A is Pulse's
_PULSE_DEFAULTS = (None, 1.0, Pulse.amplitude_ratio.real, Pulse.amplitude_ratio.imag)


def parse_config(text: str, run: dict[str, str] | None = None) -> RunSpec:
    """Parse the sectioned key-value protocol format.

    Sections: [trap], [init], repeated [[pulse]], [run], with the keys of
    ``_SCHEMA``.  ``run`` maps [run] keys to text that takes the place of
    the file's, as the command line's flags do.  Errors name the offending
    key and its line, or its flag ("--key") for a key from ``run``.
    """
    sections: dict[str, list[dict[str, tuple[str, str]]]] = {}
    name, current = "", None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if line not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section {line}")
            if line in sections and line != "[[pulse]]":
                raise ConfigError(f"line {lineno}: duplicate section {line}")
            name, current = line, {}
            sections.setdefault(name, []).append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if current is None:
            raise ConfigError(f"line {lineno}: key {key!r} outside any section")
        if key not in _SCHEMA[name]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in {name}")
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in {name}")
        current[key] = (value, f"line {lineno}")

    if "[trap]" not in sections:
        raise ConfigError("missing required section [trap]")
    if "[[pulse]]" not in sections:
        raise ConfigError("config declares no [[pulse]] sections")
    # the keys of the sections other than [[pulse]], which are unique
    given = {key: entry for section in ("[trap]", "[init]", "[run]")
             for kv in sections.get(section, ()) for key, entry in kv.items()}
    given.update((key, (value, f"--{key}")) for key, value in (run or {}).items())

    def get(kv, key, conv, default):
        if key not in kv:
            if default is None:  # no default: the key is required
                raise ConfigError(f"missing required key {key!r}")
            return default
        value, place = kv[key]
        try:
            # a target is a level of the trap's dims
            return conv(value, dims) if conv is _parse_target else conv(value)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"{place}: bad value for {key!r}: {exc}") from None

    dims = get(given, "dims", _SCHEMA["[trap]"]["dims"], None)
    if dims not in RUN_DEFAULTS:
        raise ConfigError(f"dims must be 1 or 2, got {dims}")
    defaults = {f.name: f.default for cls in (TrapConfig, Protocol, RunSpec)
                for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}
    defaults.update(RUN_DEFAULTS[dims]._asdict())
    values = {key: get(given, key, conv, defaults.get(key))
              for section in ("[trap]", "[init]", "[run]")
              for key, conv in _SCHEMA[section].items()}
    pulses = []
    for kv in sections["[[pulse]]"]:
        s, tau, a_re, a_im = (get(kv, key, conv, default) for (key, conv), default
                              in zip(_SCHEMA["[[pulse]]"].items(), _PULSE_DEFAULTS))
        pulses.append(Pulse(s, tau, complex(a_re, a_im)))

    def fields(cls) -> dict:
        return {f.name: values[f.name] for f in dataclasses.fields(cls) if f.name in values}

    return RunSpec(TrapConfig(**fields(TrapConfig)),
                   Protocol(tuple(pulses), **fields(Protocol)), **fields(RunSpec))


def write_config(spec: RunSpec) -> str:
    """Canonical text form; parse(write(spec)) round-trips byte-identically."""
    protocol = dataclasses.replace(spec.protocol,
                                   target=spec.protocol.target_in(spec.trap.dims))
    values = {**vars(spec), **vars(spec.trap), **vars(protocol)}
    blocks = [("[trap]", values), ("[init]", values)]
    for pulse in spec.protocol.pulses:
        a = complex(pulse.amplitude_ratio)
        blocks.append(("[[pulse]]", dict(zip(_SCHEMA["[[pulse]]"],
                                             (pulse.s, pulse.duration, a.real, a.imag)))))
    blocks.append(("[run]", values))
    return "\n\n".join("\n".join([section, *(f"{key} = {_text(conv, kv[key])}"
                                             for key, conv in _SCHEMA[section].items())])
                       for section, kv in blocks) + "\n"


def _text(conv, value) -> str:
    """A config value as ``conv`` reads it back: a float in round-trip
    decimals, anything else, a level included, as its indices."""
    return format_float(value) if conv is float else ",".join(map(str, np.ravel(value)))


def preset_runspec(name: str) -> RunSpec:
    """RunSpec for a preset with default run options."""
    protocol, trap, thermal_mean = preset(name)
    return RunSpec(trap, protocol, thermal_mean)
