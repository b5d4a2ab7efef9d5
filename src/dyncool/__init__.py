"""Dynamical cooling of a single trapped atom beyond the Lamb-Dicke regime.

Builds Franck-Condon transition rates for pulsed laser cooling in 1D and 2D
harmonic traps, designs dark-state pulses, and propagates trap populations
through pulse protocols deterministically or by quantum-jump Monte Carlo.
"""

from .dynamics import (Distribution, McEnsembleResult, TimeSeries, mc_ensemble,
                       observables, propagate_pulse, run_protocol, thermal_distribution)
from .errors import (ConfigError, DomainError, ResourceLimitError,
                     SimulationError, SingularRatioError, ValidityError)
from .fc import dark_eta_for_level, dark_ratio_A, fc_factor
from .protocols import (Protocol, RunSpec, ValidationReport,
                        design_excited_protocol, parse_config, preset,
                        preset_runspec, validate_protocol, write_config,
                        PRESET_NAMES)
from .rates import (Pulse, RateMatrix, TrapConfig, dipole_pattern,
                    empty_rates, rate_matrix)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "Distribution", "DomainError",
    "McEnsembleResult", "PRESET_NAMES", "Protocol", "Pulse",
    "RateMatrix", "ResourceLimitError", "RunSpec", "SimulationError",
    "SingularRatioError", "TimeSeries", "TrapConfig", "ValidationReport",
    "ValidityError", "dark_eta_for_level",
    "dark_ratio_A", "design_excited_protocol", "dipole_pattern",
    "empty_rates", "fc_factor",
    "mc_ensemble", "observables", "parse_config",
    "preset", "preset_runspec", "propagate_pulse",
    "rate_matrix", "run_protocol",
    "thermal_distribution", "validate_protocol", "write_config",
]
