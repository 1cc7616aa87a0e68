"""Grid studies of the correlation measures along the dissipative evolution.

``sweep`` evaluates logarithmic negativity, Gaussian discord and nu_minus
on a rectangular (time, temperature) grid; a time series at one bath
temperature is the sweep over that single temperature.
``sudden_death_time`` detects entanglement sudden death via a sign change
of 4 g(sigma(t)) - 1.  Both take the parameters of the squeezed thermal
initial state and of the bath, and a failing cell is named as
``at t=..., T=...``.

The measures read only the block determinants det A, det B, det C and
det sigma.  ``sweep`` computes x = e^{-2 lam t} and y = 1 - x once per
time, and the entries of the initial state and the Gibbs terms once per
bath temperature; each cell is then a closed float kernel on those numbers
(``states._cell_kernel``), so a sweep builds no matrix, loads no numpy and
forms no object but its rows.  ``sudden_death_time`` scans sigma(t) from
one ``evolution`` per search, on 4x4 numpy matrices.  Every grid cell is an
independent pure computation, so tables come out identical regardless of
evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple, Sequence

from .dynamics import EnvironmentParams, evolution
from .errors import GaussBathError, InvalidInput, InvalidParams
from .states import (
    MeasuredMode,
    SqueezedThermalParams,
    _cell_kernel,
    build_squeezed_thermal,
    log_negativity,
    ppt_g,
)

# Coarse-scan resolution of the sudden-death search.  The witness depends on
# t only through x = e^{-2 lam t} and has no oscillating part, but it can be
# non-monotone when m omega != 1, so the scan takes the first sign change on
# a grid of t_max/2000 steps.
_SCAN_POINTS = 2000

# Width to which bisection narrows the sudden-death bracket: absolute for
# brackets above t = 1, relative below.
_ESD_TOL = 1e-6


class SweepRow(NamedTuple):
    """Measures of the evolved state at one (time, temperature) cell.

    e_n is the logarithmic negativity in bits, discord the Gaussian discord
    in nats, and nu_minus the smallest symplectic eigenvalue (physicality
    witness, 2 nu_minus >= 1 for bona fide states).  A row is a tuple of
    these five fields, and compares equal to the plain tuple of them.
    """

    t: float
    temperature: float
    e_n: float
    discord: float
    nu_minus: float


def _check_grid(grid: Sequence[float], name: str) -> tuple[float, ...]:
    values = tuple(float(v) for v in grid)
    if not values:
        raise InvalidParams(f"{name} must be nonempty")
    if not all(map(math.isfinite, values)):
        raise InvalidParams(f"{name} values must be finite")
    if any(b < a for a, b in zip(values, values[1:])):
        raise InvalidParams(f"{name} must be ascending")
    return values


def _at_cell(t: float, temperature: float, exc: GaussBathError) -> GaussBathError:
    """exc, of the same type, with the failing cell named in front of its message."""
    return type(exc)(f"at t={t:g}, T={temperature:g}: {exc}")


def sudden_death_time(
    state: SqueezedThermalParams, p: EnvironmentParams, t_max: float
) -> float | None:
    """Earliest time in (0, t_max] at which the squeezed thermal state becomes separable.

    Works on the sign of h(t) = 4 g(sigma(t)) - 1, which crosses zero where
    the logarithmic negativity hits zero: a coarse scan with step
    t_max/2000 brackets the first sign change and bisection narrows it to
    width <= 1e-6 min(1, t), or to two adjacent doubles.  Returns None when
    the state stays entangled on the whole range.

    Raises
    ------
    InvalidInput
        If the initial state is already separable.
    """
    if not 0 < t_max < math.inf:
        raise InvalidParams(f"t_max must be positive and finite, got {t_max}")
    s0 = build_squeezed_thermal(state)
    try:
        entangled = log_negativity(s0) > 0
    except GaussBathError as exc:
        raise _at_cell(0.0, p.temperature, exc) from exc
    if not entangled:
        raise InvalidInput("initial state is separable; there is no entanglement to lose")
    state_at = evolution(s0, p)

    def h(t: float) -> float:
        try:
            return 4.0 * ppt_g(state_at(t)) - 1.0
        except GaussBathError as exc:
            raise _at_cell(t, p.temperature, exc) from exc

    step = t_max / _SCAN_POINTS
    lo = 0.0  # h(0) < 0 since the initial state is entangled
    for k in range(1, _SCAN_POINTS + 1):
        hi = k * step
        if h(hi) >= 0.0:
            break
        lo = hi
    else:
        return None

    while hi - lo > _ESD_TOL * min(1.0, hi):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent doubles: hi is the first one past the crossing
            return hi
        if h(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def sweep(
    state: SqueezedThermalParams,
    env_base: EnvironmentParams,
    t_grid: Sequence[float],
    temperature_grid: Sequence[float],
    measured_mode: MeasuredMode = MeasuredMode.MODE2,
) -> list[SweepRow]:
    """Rectangular (t, T) sweep of negativity, discord and nu_minus.

    env_base carries the dissipation, mass and frequencies; its temperature
    is replaced by each grid value, so the time series at env_base's own
    temperature is sweep(state, env_base, t_grid, [env_base.temperature]).
    Rows come in lexicographic (temperature, t) order; each cell is an
    independent computation from the parameters, so the table is
    deterministic and complete.  A failing cell raises its error again, of the same type,
    as "at t=..., T=...: <message>".
    """
    times = _check_grid(t_grid, "t_grid")
    if times[0] < 0:
        raise InvalidParams(f"time must be finite and non-negative, got {times[0]}")
    temperatures = _check_grid(temperature_grid, "temperature_grid")
    rate = -2.0 * env_base.lam
    decay = [(t, math.exp(rate * t), -math.expm1(rate * t)) for t in times]
    rows = []
    for temperature in temperatures:
        gibbs = replace(env_base, temperature=temperature)._gibbs_modes()
        cell = _cell_kernel(state, gibbs, measured_mode)
        for t, x, y in decay:
            try:
                e_n, discord, nu_minus = cell(x, y)
            except GaussBathError as exc:
                raise _at_cell(t, temperature, exc) from exc
            rows.append(SweepRow(t, temperature, e_n, discord, nu_minus))
    return rows
