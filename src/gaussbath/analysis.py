"""Trajectory-level studies of the correlation measures.

Time series of logarithmic negativity and Gaussian discord along the
dissipative evolution, detection of entanglement sudden death via a sign
change of 4 g(sigma(t)) - 1, and rectangular (time, temperature) sweeps.
All three take the initial CovarianceMatrix and the bath parameters.
Every grid cell is an independent pure computation, so tables come out
identical regardless of evaluation order.  Each loop builds one
``evolution`` per bath temperature, so the Gibbs state is not rebuilt per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .dynamics import EnvironmentParams, evolution
from .errors import GaussBathError, InvalidInput, InvalidParams
from .states import (
    CovarianceMatrix,
    MeasuredMode,
    gaussian_discord,
    log_negativity,
    ppt_g,
    symplectic_spectrum,
)

# Coarse-scan resolution of the sudden-death search: with omega = 1 the
# entanglement witness oscillates at period pi, so t_max/2000 points
# resolve every sign change by a wide margin.
_SCAN_POINTS = 2000


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


def _check_grid(grid: Sequence[float], name: str) -> tuple[float, ...]:
    values = tuple(float(v) for v in grid)
    if not values:
        raise InvalidParams(f"{name} must be nonempty")
    if not all(map(math.isfinite, values)):
        raise InvalidParams(f"{name} values must be finite")
    if any(b < a for a, b in zip(values, values[1:])):
        raise InvalidParams(f"{name} must be ascending")
    return values


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
    state_at = evolution(s0, p)
    points = []
    for t in times:
        try:
            state = state_at(t)
            e_n, discord = log_negativity(state), gaussian_discord(state, measured_mode)
            nu_minus = symplectic_spectrum(state).nu_minus
        except GaussBathError as exc:
            raise type(exc)(f"at t={t:g}, T={p.temperature:g}: {exc}") from exc
        points.append(TrajectoryPoint(t, e_n, discord, nu_minus))
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
    if not 0 < tol < math.inf:
        raise InvalidParams(f"tolerance must be positive and finite, got {tol}")
    if not 0 < t_max < math.inf:
        raise InvalidParams(f"t_max must be positive and finite, got {t_max}")
    if log_negativity(s0) <= 0:
        raise InvalidInput("initial state is separable; there is no entanglement to lose")
    state_at = evolution(s0, p)

    def h(t: float) -> float:
        try:
            return 4.0 * ppt_g(state_at(t)) - 1.0
        except GaussBathError as exc:
            raise type(exc)(f"at t={t:g}, T={p.temperature:g}: {exc}") from exc

    step = t_max / _SCAN_POINTS
    lo = 0.0  # h(0) < 0 since the initial state is entangled
    for k in range(1, _SCAN_POINTS + 1):
        hi = k * step
        if h(hi) >= 0.0:
            break
        lo = hi
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
    s0: CovarianceMatrix,
    env_base: EnvironmentParams,
    t_grid: Sequence[float],
    temperature_grid: Sequence[float],
    measured_mode: MeasuredMode = MeasuredMode.MODE2,
) -> list[SweepRow]:
    """Rectangular (t, T) sweep of negativity and discord.

    env_base carries the dissipation, mass and frequencies; its temperature
    is replaced by each grid value.  Rows come in lexicographic
    (temperature, t) order; each cell is an independent computation from
    s0, so the table is deterministic and complete.
    """
    times = _check_grid(t_grid, "t_grid")
    temperatures = _check_grid(temperature_grid, "temperature_grid")
    rows = []
    for temperature in temperatures:
        state_at = evolution(s0, replace(env_base, temperature=temperature))
        for t in times:
            try:
                state = state_at(t)
                e_n, discord = log_negativity(state), gaussian_discord(state, measured_mode)
            except GaussBathError as exc:
                raise type(exc)(f"at cell (t={t:g}, T={temperature:g}): {exc}") from exc
            rows.append(SweepRow(t, temperature, e_n, discord))
    return rows
