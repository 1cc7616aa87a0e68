import math

import numpy as np
import pytest
from oracles import evolve_rk4

from gaussbath import analysis, dynamics, states
from gaussbath.analysis import sudden_death_time, sweep, trajectory
from gaussbath.dynamics import EnvironmentParams, evolution
from gaussbath.errors import InvalidInput, InvalidParams, NonPhysical
from gaussbath.states import (
    MeasuredMode,
    SqueezedThermalParams,
    build_squeezed_thermal,
    gaussian_discord,
    log_negativity,
    ppt_g,
    symplectic_spectrum,
)

FIG_STATE = SqueezedThermalParams(n1=1.0, n2=1.0, r=2.0)
FIG_S0 = build_squeezed_thermal(FIG_STATE)

# locked regression from this implementation's own bisection, cross-checked
# against the RK4 integrator in test_sudden_death_sign_change_confirmed_by_rk4;
# the closed form of test_sudden_death_matches_closed_form gives 2.9719732809
T_STAR_T1_LAM01 = 2.9719735717773443


def fig_env(temperature, lam=0.1):
    return EnvironmentParams(lam=lam, temperature=temperature)


# ---------------------------------------------------------------- trajectory


def test_trajectory_single_point_matches_direct_measures():
    s0 = build_squeezed_thermal(FIG_STATE)
    points = trajectory(s0, fig_env(1.0), [0.0])
    assert len(points) == 1
    pt = points[0]
    assert pt.t == 0.0
    assert pt.e_n == log_negativity(s0)
    assert pt.discord == gaussian_discord(s0)
    assert pt.nu_minus == symplectic_spectrum(s0).nu_minus


def test_trajectory_zero_temperature_stays_entangled():
    s0 = build_squeezed_thermal(FIG_STATE)
    points = trajectory(s0, fig_env(0.0), np.linspace(0.0, 20.0, 50))
    assert all(pt.e_n > 0.0 for pt in points)


def test_trajectory_warm_bath_reaches_separability():
    s0 = build_squeezed_thermal(FIG_STATE)
    points = trajectory(s0, fig_env(1.0), np.linspace(0.0, 20.0, 200))
    assert any(pt.e_n == 0.0 for pt in points)


def test_trajectory_validates_grid():
    s0 = build_squeezed_thermal(FIG_STATE)
    with pytest.raises(InvalidParams):
        trajectory(s0, fig_env(1.0), [])
    with pytest.raises(InvalidParams):
        trajectory(s0, fig_env(1.0), [1.0, 0.5])


# ---------------------------------------------------------------- sudden death


def test_sudden_death_zero_temperature_never_dies():
    s0 = build_squeezed_thermal(FIG_STATE)
    assert sudden_death_time(s0, fig_env(0.0), 20.0) is None


def test_sudden_death_warm_bath_regression():
    s0 = build_squeezed_thermal(FIG_STATE)
    t_star = sudden_death_time(s0, fig_env(1.0), 20.0, tol=1e-6)
    assert t_star is not None
    assert 0.0 < t_star < 20.0
    assert t_star == pytest.approx(T_STAR_T1_LAM01, abs=5e-6)


def closed_form_death_time(n, r, lam, temperature):
    """t_esd for n1 = n2 = n and omega1 = omega2 = m = 1.

    a - c, half the variance of x1 - x2, starts at (n + 1/2) e^{-2r} and
    relaxes monotonically to coth(1/2T)/2; the state is separable once
    a - c reaches 1/2:
    t_esd = ln[(coth(1/2T) - (2n+1) e^{-2r}) / (coth(1/2T) - 1)] / (2 lam).
    """
    coth = 1.0 / math.tanh(1.0 / (2.0 * temperature))
    return math.log((coth - (2 * n + 1) * math.exp(-2 * r)) / (coth - 1.0)) / (2.0 * lam)


@pytest.mark.parametrize(
    "n, r, lam, temperature",
    [
        (0.0, 0.8, 0.05, 0.5),
        (0.0, 1.7, 0.1, 0.5),
        (0.0, 3.0, 0.3, 4.0),
        (0.5, 0.8, 0.3, 4.0),
        (0.5, 1.2, 0.1, 1.0),
        (0.5, 2.5, 0.05, 4.0),
        (1.0, 1.5, 0.3, 0.5),
        (1.0, 2.0, 0.1, 1.0),
        (1.0, 3.0, 0.05, 1.0),
        (2.0, 1.1, 0.1, 4.0),
        (2.0, 2.2, 0.3, 1.0),
        (2.0, 3.0, 0.05, 0.5),
    ],
)
def test_sudden_death_matches_closed_form(n, r, lam, temperature):
    s0 = build_squeezed_thermal(SqueezedThermalParams(n, n, r))
    expected = closed_form_death_time(n, r, lam, temperature)
    t_max = max(20.0, 2.0 * expected)
    t_star = sudden_death_time(s0, fig_env(temperature, lam=lam), t_max)
    assert abs(t_star - expected) <= 1e-6
    # at T = 0 the variance relaxes to 1/2 from below and never reaches it
    assert sudden_death_time(s0, fig_env(0.0, lam=lam), t_max) is None


def test_sudden_death_sign_change_confirmed_by_rk4():
    s0 = build_squeezed_thermal(FIG_STATE)
    p = fig_env(1.0)
    t_star = sudden_death_time(s0, p, 20.0)
    before = 4.0 * ppt_g(evolve_rk4(s0, p, t_star - 0.01, 1e-3)) - 1.0
    after = 4.0 * ppt_g(evolve_rk4(s0, p, t_star + 0.01, 1e-3)) - 1.0
    assert before < 0.0 < after


def test_sudden_death_earlier_for_stronger_dissipation():
    s0 = build_squeezed_thermal(FIG_STATE)
    t_weak = sudden_death_time(s0, fig_env(1.0, lam=0.1), 20.0)
    t_strong = sudden_death_time(s0, fig_env(1.0, lam=0.2), 20.0)
    assert t_strong < t_weak


def test_sudden_death_is_permanent_on_grid():
    s0 = build_squeezed_thermal(FIG_STATE)
    p = fig_env(1.0)
    t_star = sudden_death_time(s0, p, 20.0)
    for t in np.linspace(0.0, 20.0, 200):
        if t > t_star:
            e_n = log_negativity(evolution(s0, p)(float(t)))
            assert e_n == 0.0, f"revival at t={t} would be a finding, not noise"


def test_discord_continuous_across_death_time():
    s0 = build_squeezed_thermal(FIG_STATE)
    p = fig_env(1.0)
    t_star = sudden_death_time(s0, p, 20.0)
    delta = 1e-3

    def discord_at(t):
        return gaussian_discord(evolution(s0, p)(t))

    jump = abs(discord_at(t_star + delta) - discord_at(t_star - delta))
    slope = (
        abs(discord_at(t_star - delta) - discord_at(t_star - 3 * delta))
        + abs(discord_at(t_star + 3 * delta) - discord_at(t_star + delta))
    ) / (4 * delta)
    assert jump <= 10 * delta * max(slope, 1e-6)


def test_sudden_death_rejects_separable_initial_state():
    separable = build_squeezed_thermal(SqueezedThermalParams(1.0, 1.0, 0.3))
    with pytest.raises(InvalidInput):
        sudden_death_time(separable, fig_env(1.0), 20.0)


def test_sudden_death_validates_tolerance():
    s0 = build_squeezed_thermal(FIG_STATE)
    with pytest.raises(InvalidParams):
        sudden_death_time(s0, fig_env(1.0), 20.0, tol=0.0)


def test_sudden_death_rejects_nan_tolerance():
    # a NaN tolerance used to skip the bisection and return the coarse bracket
    s0 = build_squeezed_thermal(FIG_STATE)
    with pytest.raises(InvalidParams, match="tolerance"):
        sudden_death_time(s0, fig_env(1.0), 20.0, tol=float("nan"))


def test_sudden_death_rejects_infinite_horizon():
    s0 = build_squeezed_thermal(FIG_STATE)
    with pytest.raises(InvalidParams, match="t_max"):
        sudden_death_time(s0, fig_env(1.0), float("inf"))


def test_sudden_death_failure_names_time_and_temperature(monkeypatch):
    def broken_ppt_g(state):
        raise NonPhysical("radicand negative")

    monkeypatch.setattr(analysis, "ppt_g", broken_ppt_g)
    s0 = build_squeezed_thermal(FIG_STATE)
    with pytest.raises(NonPhysical, match=r"^at t=0\.01, T=1\.5: radicand negative$"):
        sudden_death_time(s0, fig_env(1.5), 20.0)


# ---------------------------------------------------------------- sweep


def test_sweep_single_cell_at_origin():
    s0 = build_squeezed_thermal(FIG_STATE)
    rows = sweep(FIG_S0, fig_env(0.0), [0.0], [0.7])
    assert len(rows) == 1
    row = rows[0]
    assert row.t == 0.0
    assert row.temperature == 0.7
    assert row.e_n == log_negativity(s0)
    assert row.discord == gaussian_discord(s0)


def test_sweep_row_order_is_lexicographic():
    t_grid = [0.0, 1.0, 2.0]
    temperature_grid = [0.0, 1.0]
    rows = sweep(FIG_S0, fig_env(0.0), t_grid, temperature_grid)
    assert len(rows) == 6
    seen = [(row.temperature, row.t) for row in rows]
    assert seen == sorted(seen)


def test_sweep_discord_decreases_with_temperature():
    rows = sweep(FIG_S0, fig_env(0.0), [2.0, 5.0, 10.0], [0.0, 0.5, 1.0, 2.0])
    by_time = {}
    for row in rows:
        by_time.setdefault(row.t, []).append(row.discord)
    for values in by_time.values():
        assert all(b < a for a, b in zip(values, values[1:]))


def test_sweep_rows_independent_of_evaluation_order():
    t_grid = np.linspace(0.0, 10.0, 7)
    temperature_grid = np.linspace(0.0, 2.0, 4)
    rows = sweep(FIG_S0, fig_env(0.0), t_grid, temperature_grid)
    s0 = build_squeezed_thermal(FIG_STATE)
    # recompute every cell in reverse order through independent calls
    for row in reversed(rows):
        p = EnvironmentParams(lam=0.1, temperature=row.temperature)
        state = evolution(s0, p)(row.t)
        assert log_negativity(state) == row.e_n
        assert gaussian_discord(state) == row.discord


def test_sweep_validates_grids():
    with pytest.raises(InvalidParams):
        sweep(FIG_S0, fig_env(0.0), [], [0.0])
    with pytest.raises(InvalidParams):
        sweep(FIG_S0, fig_env(0.0), [0.0], [2.0, 1.0])


def test_sweep_rejects_non_finite_grid_values():
    with pytest.raises(InvalidParams, match="t_grid"):
        sweep(FIG_S0, fig_env(0.0), [0.0, float("inf")], [1.0])
    with pytest.raises(InvalidParams, match="temperature_grid"):
        sweep(FIG_S0, fig_env(0.0), [0.0], [1.0, float("nan")])


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_loop_invariants_are_computed_once(monkeypatch):
    # the Gibbs state depends on the temperature only, and each cell's
    # spectrum feeds the discord's bona fide check and nothing else
    gibbs = _count_calls(monkeypatch, dynamics, "asymptotic_covariance")
    spectra = _count_calls(monkeypatch, states, "symplectic_spectrum")
    sweep(FIG_S0, fig_env(0.0), np.linspace(0.0, 4.0, 5), [0.0, 1.0, 2.0])
    assert len(gibbs) <= 3
    assert len(spectra) == 5 * 3

    gibbs.clear()
    sudden_death_time(build_squeezed_thermal(FIG_STATE), fig_env(1.0), 20.0)
    assert len(gibbs) == 1


def test_sweep_respects_measured_mode():
    asymmetric = build_squeezed_thermal(SqueezedThermalParams(n1=2.0, n2=0.0, r=1.0))
    t1 = sweep(asymmetric, fig_env(0.0), [0.0], [0.5], MeasuredMode.MODE1)
    t2 = sweep(asymmetric, fig_env(0.0), [0.0], [0.5], MeasuredMode.MODE2)
    assert t1[0].discord != t2[0].discord


# ---------------------------------------------------------------- late-time discord


def test_classify_threshold_late_time_rows_decay():
    rows = sweep(FIG_S0, fig_env(0.0), [250.0], [0.5, 1.0, 2.0])
    assert all(row.discord <= 1e-6 for row in rows)
