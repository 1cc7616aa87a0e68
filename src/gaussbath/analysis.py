"""Trajectory-level studies of the correlation measures.

Time series of logarithmic negativity and Gaussian discord along the
dissipative evolution, detection of entanglement sudden death via a sign
change of 4 g(sigma(t)) - 1, and rectangular (time, temperature) sweeps.
Every grid cell is an independent pure computation, so tables come out
identical regardless of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

from .dynamics import EnvironmentParams, evolve_closed
from .errors import GaussBathError, InvalidInput, InvalidParams, ThresholdInconsistency
from .states import (
    CovarianceMatrix,
    MeasuredMode,
    SqueezedThermalParams,
    build_squeezed_thermal,
    gaussian_discord,
    log_negativity,
    ppt_g,
    symplectic_spectrum,
)

# Coarse-scan resolution of the sudden-death search: with omega = 1 the
# entanglement witness oscillates at period pi, so t_max/2000 points
# resolve every sign change by a wide margin.
_SCAN_POINTS = 2000

_DISCORD_THRESHOLD = 1.0 + 1e-12


class ThresholdTag(Enum):
    """Classification of a sweep row against the discord entanglement threshold."""

    ABOVE_ONE = "above_one"
    BETWEEN_ZERO_AND_ONE = "between_zero_and_one"


@dataclass(frozen=True)
class TrajectoryPoint:
    """Measures of the evolved state at one time.

    e_n is the logarithmic negativity in bits, discord the Gaussian discord
    in nats, and nu_minus the smallest symplectic eigenvalue (physicality
    witness, 2 nu_minus >= 1 for bona fide states).
    """

    t: float
    e_n: float
    discord: float
    nu_minus: float


@dataclass(frozen=True)
class SweepRow:
    """One (time, temperature) cell of a sweep."""

    t: float
    temperature: float
    e_n: float
    discord: float


@dataclass(frozen=True)
class SweepTable:
    """Rectangular sweep result in lexicographic (temperature, t) row order.

    env_base carries the dissipation, mass and frequencies; its temperature
    field is replaced by each row's grid value.
    """

    rows: tuple[SweepRow, ...]
    state: SqueezedThermalParams
    env_base: EnvironmentParams
    t_grid: tuple[float, ...]
    temperature_grid: tuple[float, ...]
    measured_mode: MeasuredMode


def _check_grid(grid: Sequence[float], name: str) -> tuple[float, ...]:
    values = tuple(float(v) for v in grid)
    if not values:
        raise InvalidParams(f"{name} must be nonempty")
    if any(b < a for a, b in zip(values, values[1:])):
        raise InvalidParams(f"{name} must be ascending")
    return values


def _measures_at(
    s0: CovarianceMatrix,
    p: EnvironmentParams,
    t: float,
    measured_mode: MeasuredMode,
) -> TrajectoryPoint:
    state = evolve_closed(s0, p, t)
    return TrajectoryPoint(
        t=t,
        e_n=log_negativity(state),
        discord=gaussian_discord(state, measured_mode),
        nu_minus=symplectic_spectrum(state).nu_minus,
    )


def trajectory(
    s0: CovarianceMatrix,
    p: EnvironmentParams,
    t_grid: Sequence[float],
    measured_mode: MeasuredMode = MeasuredMode.MODE2,
) -> list[TrajectoryPoint]:
    """Evaluate the correlation measures along an ascending time grid.

    Each point is computed independently from the closed-form propagation
    of s0, so the result does not depend on evaluation order.
    """
    times = _check_grid(t_grid, "t_grid")
    points = []
    for t in times:
        try:
            points.append(_measures_at(s0, p, t, measured_mode))
        except GaussBathError as exc:
            raise type(exc)(f"at t={t:g}, T={p.temperature:g}: {exc}") from exc
    return points


def sudden_death_time(
    s0: CovarianceMatrix,
    p: EnvironmentParams,
    t_max: float,
    tol: float = 1e-6,
) -> float | None:
    """Earliest time in (0, t_max] at which the state becomes separable.

    Works on the sign of h(t) = 4 g(sigma(t)) - 1, which crosses zero where
    the logarithmic negativity hits zero: a coarse scan with step
    t_max/2000 brackets the first sign change and bisection narrows it to
    width <= tol.  Returns None when the state stays entangled on the whole
    range.

    Raises
    ------
    InvalidInput
        If the initial state is already separable.
    """
    if tol <= 0:
        raise InvalidParams(f"tolerance must be positive, got {tol}")
    if t_max <= 0:
        raise InvalidParams(f"t_max must be positive, got {t_max}")
    if log_negativity(s0) <= 0:
        raise InvalidInput("initial state is separable; there is no entanglement to lose")

    def h(t: float) -> float:
        try:
            return 4.0 * ppt_g(evolve_closed(s0, p, t)) - 1.0
        except GaussBathError as exc:
            raise type(exc)(f"at t={t:g}, T={p.temperature:g}: {exc}") from exc

    step = t_max / _SCAN_POINTS
    lo, h_lo = 0.0, -1.0  # h(0) < 0 since the initial state is entangled
    for k in range(1, _SCAN_POINTS + 1):
        hi = k * step
        h_hi = h(hi)
        if h_hi >= 0.0:
            break
        lo, h_lo = hi, h_hi
    else:
        return None

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if h(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def sweep(
    state_params: SqueezedThermalParams,
    env_base: EnvironmentParams,
    t_grid: Sequence[float],
    temperature_grid: Sequence[float],
    measured_mode: MeasuredMode = MeasuredMode.MODE2,
) -> SweepTable:
    """Rectangular (t, T) sweep of negativity and discord.

    Rows are emitted in lexicographic (temperature, t) order; each cell is
    an independent computation from the initial state, so the table is
    deterministic and complete.
    """
    times = _check_grid(t_grid, "t_grid")
    temperatures = _check_grid(temperature_grid, "temperature_grid")
    s0 = build_squeezed_thermal(state_params)
    rows = []
    for temperature in temperatures:
        p = replace(env_base, temperature=temperature)
        for t in times:
            try:
                point = _measures_at(s0, p, t, measured_mode)
            except GaussBathError as exc:
                raise type(exc)(f"at cell (t={t:g}, T={temperature:g}): {exc}") from exc
            rows.append(
                SweepRow(t=t, temperature=temperature, e_n=point.e_n, discord=point.discord)
            )
    return SweepTable(
        rows=tuple(rows),
        state=state_params,
        env_base=env_base,
        t_grid=times,
        temperature_grid=temperatures,
        measured_mode=measured_mode,
    )


def classify_threshold(table: SweepTable) -> list[ThresholdTag]:
    """Tag each sweep row against the discord entanglement threshold D = 1.

    Every row with discord above 1 must be entangled; a violation aborts
    because it can only come from a convention bug (logarithm base or
    eigenvalue scaling), never from the physics.
    """
    tags = []
    for row in table.rows:
        if row.discord > _DISCORD_THRESHOLD:
            if row.e_n <= 0.0:
                raise ThresholdInconsistency(
                    f"discord {row.discord:.6g} > 1 with zero negativity at "
                    f"(t={row.t:g}, T={row.temperature:g}); check the logarithm "
                    "base or eigenvalue scaling"
                )
            tags.append(ThresholdTag.ABOVE_ONE)
        else:
            tags.append(ThresholdTag.BETWEEN_ZERO_AND_ONE)
    return tags
