import gaussbath

PUBLIC_NAMES = [
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


def test_public_api():
    # the names the CLI and the paper's four quantities need, and no more
    assert sorted(gaussbath.__all__) == PUBLIC_NAMES
    missing = [name for name in PUBLIC_NAMES if not hasattr(gaussbath, name)]
    assert missing == []
