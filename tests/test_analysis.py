import numpy as np
import pytest
from oracles import evolve_rk4

from gaussbath import analysis
from gaussbath.analysis import (
    SweepRow,
    SweepTable,
    ThresholdTag,
    classify_threshold,
    sudden_death_time,
    sweep,
    trajectory,
)
from gaussbath.dynamics import EnvironmentParams, evolve_closed
from gaussbath.errors import (
    InvalidInput,
    InvalidParams,
    NonPhysical,
    ThresholdInconsistency,
)
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

# locked regression from this implementation's own bisection, cross-checked
# against the RK4 integrator in test_sudden_death_sign_change_confirmed_by_rk4
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
            e_n = log_negativity(evolve_closed(s0, p, float(t)))
            assert e_n == 0.0, f"revival at t={t} would be a finding, not noise"


def test_discord_continuous_across_death_time():
    s0 = build_squeezed_thermal(FIG_STATE)
    p = fig_env(1.0)
    t_star = sudden_death_time(s0, p, 20.0)
    delta = 1e-3

    def discord_at(t):
        return gaussian_discord(evolve_closed(s0, p, t))

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
    table = sweep(FIG_STATE, fig_env(0.0), [0.0], [0.7])
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row.t == 0.0
    assert row.temperature == 0.7
    assert row.e_n == log_negativity(s0)
    assert row.discord == gaussian_discord(s0)


def test_sweep_row_order_is_lexicographic():
    t_grid = [0.0, 1.0, 2.0]
    temperature_grid = [0.0, 1.0]
    table = sweep(FIG_STATE, fig_env(0.0), t_grid, temperature_grid)
    assert len(table.rows) == 6
    seen = [(row.temperature, row.t) for row in table.rows]
    assert seen == sorted(seen)


def test_sweep_discord_decreases_with_temperature():
    table = sweep(FIG_STATE, fig_env(0.0), [2.0, 5.0, 10.0], [0.0, 0.5, 1.0, 2.0])
    by_time = {}
    for row in table.rows:
        by_time.setdefault(row.t, []).append(row.discord)
    for values in by_time.values():
        assert all(b < a for a, b in zip(values, values[1:]))


def test_sweep_rows_independent_of_evaluation_order():
    t_grid = np.linspace(0.0, 10.0, 7)
    temperature_grid = np.linspace(0.0, 2.0, 4)
    table = sweep(FIG_STATE, fig_env(0.0), t_grid, temperature_grid)
    s0 = build_squeezed_thermal(FIG_STATE)
    # recompute every cell in reverse order through independent calls
    for row in reversed(table.rows):
        p = EnvironmentParams(lam=0.1, temperature=row.temperature)
        state = evolve_closed(s0, p, row.t)
        assert log_negativity(state) == row.e_n
        assert gaussian_discord(state) == row.discord


def test_sweep_validates_grids():
    with pytest.raises(InvalidParams):
        sweep(FIG_STATE, fig_env(0.0), [], [0.0])
    with pytest.raises(InvalidParams):
        sweep(FIG_STATE, fig_env(0.0), [0.0], [2.0, 1.0])


def test_sweep_respects_measured_mode():
    asymmetric = SqueezedThermalParams(n1=2.0, n2=0.0, r=1.0)
    t1 = sweep(asymmetric, fig_env(0.0), [0.0], [0.5], MeasuredMode.MODE1)
    t2 = sweep(asymmetric, fig_env(0.0), [0.0], [0.5], MeasuredMode.MODE2)
    assert t1.rows[0].discord != t2.rows[0].discord


# ---------------------------------------------------------------- threshold tags


def test_classify_threshold_tags():
    product = SqueezedThermalParams(1.0, 1.0, 0.0)
    table = sweep(product, fig_env(0.0), [0.0], [0.0])
    assert classify_threshold(table) == [ThresholdTag.BETWEEN_ZERO_AND_ONE]

    entangled = sweep(FIG_STATE, fig_env(0.0), [0.0], [1.0])
    assert classify_threshold(entangled) == [ThresholdTag.ABOVE_ONE]


def test_classify_threshold_late_time_rows_decay():
    table = sweep(FIG_STATE, fig_env(0.0), [250.0], [0.5, 1.0, 2.0])
    tags = classify_threshold(table)
    assert all(tag is ThresholdTag.BETWEEN_ZERO_AND_ONE for tag in tags)
    assert all(row.discord <= 1e-6 for row in table.rows)


def test_classify_threshold_rejects_inconsistent_rows():
    base = sweep(FIG_STATE, fig_env(0.0), [0.0], [1.0])
    doctored = SweepTable(
        rows=(SweepRow(t=0.0, temperature=1.0, e_n=0.0, discord=1.5),),
        state=base.state,
        env_base=base.env_base,
        t_grid=base.t_grid,
        temperature_grid=base.temperature_grid,
        measured_mode=base.measured_mode,
    )
    with pytest.raises(ThresholdInconsistency):
        classify_threshold(doctored)
