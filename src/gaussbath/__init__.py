"""Two-mode Gaussian states in a common thermal bath.

Covariance-matrix dynamics of two non-interacting modes under dissipation,
with logarithmic negativity, entanglement sudden death and Gaussian quantum
discord tracked along the evolution.
"""

from .analysis import (
    SweepRow,
    TrajectoryPoint,
    sudden_death_time,
    sweep,
    trajectory,
)
from .dynamics import (
    EnvironmentParams,
    asymptotic_covariance,
    evolution,
    propagator,
)
from .errors import (
    DomainError,
    GaussBathError,
    InvalidInput,
    InvalidParams,
    NonPhysical,
)
from .states import (
    Branch,
    CovarianceMatrix,
    DiscordInvariants,
    MeasuredMode,
    SqueezedThermalParams,
    SymplecticSpectrum,
    build_squeezed_thermal,
    discord_invariants,
    f_entropy,
    gaussian_discord,
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
    "SymplecticSpectrum",
    "TrajectoryPoint",
    "asymptotic_covariance",
    "build_squeezed_thermal",
    "discord_invariants",
    "evolution",
    "f_entropy",
    "gaussian_discord",
    "log_negativity",
    "ppt_g",
    "propagator",
    "separability_threshold_r",
    "sudden_death_time",
    "sweep",
    "symplectic_spectrum",
    "trajectory",
]
