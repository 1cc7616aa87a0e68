"""Two-mode Gaussian states in a common thermal bath.

Covariance-matrix dynamics of two non-interacting modes under dissipation,
with logarithmic negativity, entanglement sudden death and Gaussian quantum
discord tracked along the evolution.
"""

from .analysis import (
    SweepRow,
    SweepTable,
    ThresholdTag,
    TrajectoryPoint,
    classify_threshold,
    sudden_death_time,
    sweep,
    trajectory,
)
from .dynamics import (
    EnvironmentParams,
    asymptotic_covariance,
    evolve_closed,
    propagator,
)
from .errors import (
    DomainError,
    GaussBathError,
    InvalidInput,
    InvalidParams,
    NonPhysical,
    ThresholdInconsistency,
)
from .states import (
    Branch,
    CovarianceMatrix,
    DiscordInvariants,
    MeasuredMode,
    SqueezedThermalParams,
    SymplecticSpectrum,
    blocks,
    build_squeezed_thermal,
    discord_invariants,
    f_entropy,
    gaussian_discord,
    is_physical,
    log_negativity,
    ppt_g,
    separability_threshold_r,
    symplectic_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "CovarianceMatrix",
    "DiscordInvariants",
    "DomainError",
    "EnvironmentParams",
    "GaussBathError",
    "InvalidInput",
    "InvalidParams",
    "MeasuredMode",
    "NonPhysical",
    "SqueezedThermalParams",
    "SweepRow",
    "SweepTable",
    "SymplecticSpectrum",
    "ThresholdInconsistency",
    "ThresholdTag",
    "TrajectoryPoint",
    "asymptotic_covariance",
    "blocks",
    "build_squeezed_thermal",
    "classify_threshold",
    "discord_invariants",
    "evolve_closed",
    "f_entropy",
    "gaussian_discord",
    "is_physical",
    "log_negativity",
    "ppt_g",
    "propagator",
    "separability_threshold_r",
    "sudden_death_time",
    "sweep",
    "symplectic_spectrum",
    "trajectory",
]
