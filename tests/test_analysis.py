import math
import random

import numpy as np
import pytest
from oracles import evolve_rk4, mp_param_measures

from gaussbath import analysis, cli, dynamics, states
from gaussbath.analysis import sudden_death_time, sweep
from gaussbath.dynamics import EnvironmentParams, evolution
from gaussbath.errors import InvalidInput, InvalidParams, NonPhysical
from gaussbath.states import (
    MeasuredMode,
    SqueezedThermalParams,
    build_squeezed_thermal,
    gaussian_discord,
    log_negativity,
    ppt_g,
    separability_threshold_r,
)

FIG_STATE = SqueezedThermalParams(n1=1.0, n2=1.0, r=2.0)

# locked regression from this implementation's own bisection, cross-checked
# against the RK4 integrator in test_sudden_death_sign_change_confirmed_by_rk4;
# the closed form of test_sudden_death_matches_closed_form gives 2.9719732809
T_STAR_T1_LAM01 = 2.9719735717773443


def fig_env(temperature, lam=0.1):
    return EnvironmentParams(lam=lam, temperature=temperature)


# ---------------------------------------------------------------- time series at one temperature


def test_trajectory_single_point_matches_direct_measures():
    points = sweep(FIG_STATE, fig_env(1.0), [0.0], [1.0])
    assert len(points) == 1
    pt = points[0]
    assert pt.t == 0.0
    assert_near_reference(points, FIG_STATE, fig_env(1.0), MeasuredMode.MODE2, 2e-15)


def test_trajectory_zero_temperature_stays_entangled():
    points = sweep(FIG_STATE, fig_env(0.0), np.linspace(0.0, 20.0, 50), [0.0])
    assert all(pt.e_n > 0.0 for pt in points)


def test_trajectory_warm_bath_reaches_separability():
    points = sweep(FIG_STATE, fig_env(1.0), np.linspace(0.0, 20.0, 200), [1.0])
    assert any(pt.e_n == 0.0 for pt in points)


# ---------------------------------------------------------------- sudden death


def test_sudden_death_zero_temperature_never_dies():
    assert sudden_death_time(FIG_STATE, fig_env(0.0), 20.0) is None


def test_sudden_death_warm_bath_regression():
    t_star = sudden_death_time(FIG_STATE, fig_env(1.0), 20.0)
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
    state = SqueezedThermalParams(n, n, r)
    expected = closed_form_death_time(n, r, lam, temperature)
    t_max = max(20.0, 2.0 * expected)
    t_star = sudden_death_time(state, fig_env(temperature, lam=lam), t_max)
    assert abs(t_star - expected) <= 1e-6
    # at T = 0 the variance relaxes to 1/2 from below and never reaches it
    assert sudden_death_time(state, fig_env(0.0, lam=lam), t_max) is None


@pytest.mark.parametrize("temperature", [1e3, 1e6])
def test_sudden_death_bracket_is_relative_at_early_deaths(temperature):
    # a hot bath kills the entanglement at t ~ 1e-3 and ~ 1e-6; the bisection
    # narrows the bracket to 1e-6 of t there, not to 1e-6 absolute
    expected = closed_form_death_time(1.0, 2.0, 0.1, temperature)
    t_star = sudden_death_time(FIG_STATE, fig_env(temperature), 20.0)
    assert t_star == pytest.approx(expected, rel=1e-6, abs=0.0)


def test_sudden_death_sign_change_confirmed_by_rk4():
    s0 = build_squeezed_thermal(FIG_STATE)
    p = fig_env(1.0)
    t_star = sudden_death_time(FIG_STATE, p, 20.0)
    before = 4.0 * ppt_g(evolve_rk4(s0, p, t_star - 0.01, 1e-3)) - 1.0
    after = 4.0 * ppt_g(evolve_rk4(s0, p, t_star + 0.01, 1e-3)) - 1.0
    assert before < 0.0 < after


def test_sudden_death_earlier_for_stronger_dissipation():
    t_weak = sudden_death_time(FIG_STATE, fig_env(1.0, lam=0.1), 20.0)
    t_strong = sudden_death_time(FIG_STATE, fig_env(1.0, lam=0.2), 20.0)
    assert t_strong < t_weak


def test_sudden_death_is_permanent_on_grid():
    s0 = build_squeezed_thermal(FIG_STATE)
    p = fig_env(1.0)
    t_star = sudden_death_time(FIG_STATE, p, 20.0)
    for t in np.linspace(0.0, 20.0, 200):
        if t > t_star:
            e_n = log_negativity(evolution(s0, p)(float(t)))
            assert e_n == 0.0, f"revival at t={t} would be a finding, not noise"


def test_discord_continuous_across_death_time():
    s0 = build_squeezed_thermal(FIG_STATE)
    p = fig_env(1.0)
    t_star = sudden_death_time(FIG_STATE, p, 20.0)
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
    separable = SqueezedThermalParams(1.0, 1.0, 0.3)
    with pytest.raises(InvalidInput):
        sudden_death_time(separable, fig_env(1.0), 20.0)


def test_sudden_death_rejects_infinite_horizon():
    with pytest.raises(InvalidParams, match="t_max"):
        sudden_death_time(FIG_STATE, fig_env(1.0), float("inf"))


def test_sudden_death_failure_names_time_and_temperature(monkeypatch):
    def broken_ppt_g(state):
        raise NonPhysical("radicand negative")

    monkeypatch.setattr(analysis, "ppt_g", broken_ppt_g)
    with pytest.raises(NonPhysical, match=r"^at t=0\.01, T=1\.5: radicand negative$"):
        sudden_death_time(FIG_STATE, fig_env(1.5), 20.0)


# ---------------------------------------------------------------- sweep


def test_sweep_single_cell_at_origin():
    rows = sweep(FIG_STATE, fig_env(0.0), [0.0], [0.7])
    assert len(rows) == 1
    row = rows[0]
    assert row.t == 0.0
    assert row.temperature == 0.7
    assert row == (0.0, 0.7, row.e_n, row.discord, row.nu_minus)  # rows are tuples
    assert_near_reference(rows, FIG_STATE, fig_env(0.7), MeasuredMode.MODE2, 2e-15)


def test_sweep_failure_names_time_and_temperature(monkeypatch, tmp_path, capsys):
    def broken_discord(beta, epsilon, nu_minus, nu_plus):
        raise NonPhysical("radicand negative")

    # the discord rule that gaussian_discord and each sweep cell call
    monkeypatch.setattr(states, "_discord", broken_discord)
    with pytest.raises(NonPhysical, match=r"^at t=0\.5, T=1\.5: radicand negative$"):
        sweep(FIG_STATE, fig_env(0.0), [0.5, 1.0], [1.5, 2.0])
    # evolve is the same loop over its one temperature
    argv = ["evolve", "--temperature", "0.25", "--output", str(tmp_path / "out.csv")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "numerical failure: at t=0, T=0.25: radicand negative\n"


def test_sweep_row_order_is_lexicographic():
    t_grid = [0.0, 1.0, 2.0]
    temperature_grid = [0.0, 1.0]
    rows = sweep(FIG_STATE, fig_env(0.0), t_grid, temperature_grid)
    assert len(rows) == 6
    seen = [(row.temperature, row.t) for row in rows]
    assert seen == sorted(seen)


def test_sweep_discord_decreases_with_temperature():
    rows = sweep(FIG_STATE, fig_env(0.0), [2.0, 5.0, 10.0], [0.0, 0.5, 1.0, 2.0])
    by_time = {}
    for row in rows:
        by_time.setdefault(row.t, []).append(row.discord)
    for values in by_time.values():
        assert all(b < a for a, b in zip(values, values[1:]))


def test_sweep_rows_independent_of_evaluation_order():
    t_grid = np.linspace(0.0, 10.0, 7)
    temperature_grid = np.linspace(0.0, 2.0, 4)
    rows = sweep(FIG_STATE, fig_env(0.0), t_grid, temperature_grid)
    # recompute every cell in reverse order through independent one-cell sweeps
    for row in reversed(rows):
        p = EnvironmentParams(lam=0.1, temperature=row.temperature)
        (cell,) = sweep(FIG_STATE, p, [row.t], [row.temperature])
        assert cell.e_n == row.e_n
        assert cell.discord == row.discord


def test_sweep_validates_grids():
    with pytest.raises(InvalidParams):
        sweep(FIG_STATE, fig_env(0.0), [], [0.0])
    with pytest.raises(InvalidParams):
        sweep(FIG_STATE, fig_env(0.0), [1.0, 0.5], [0.0])
    with pytest.raises(InvalidParams):
        sweep(FIG_STATE, fig_env(0.0), [0.0], [2.0, 1.0])
    with pytest.raises(InvalidParams, match="non-negative"):
        sweep(FIG_STATE, fig_env(0.0), [-1.0, 0.0], [0.0])


def test_sweep_rejects_non_finite_grid_values():
    with pytest.raises(InvalidParams, match="t_grid"):
        sweep(FIG_STATE, fig_env(0.0), [0.0, float("inf")], [1.0])
    with pytest.raises(InvalidParams, match="temperature_grid"):
        sweep(FIG_STATE, fig_env(0.0), [0.0], [1.0, float("nan")])


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_loop_invariants_are_computed_once(monkeypatch, tmp_path):
    # the Gibbs terms and the cell kernel's constants depend on the temperature
    # only: one of each per temperature; a cell calls no exact-integer rule
    kernels = _count_calls(monkeypatch, analysis, "_cell_kernel")
    gibbs = _count_calls(monkeypatch, dynamics.EnvironmentParams, "_gibbs_modes")
    squared = _count_calls(monkeypatch, states, "_squared_spectrum")
    conditionals = _count_calls(monkeypatch, states, "_conditional")
    sweep(FIG_STATE, fig_env(0.0), np.linspace(0.0, 4.0, 5), [0.0, 1.0, 2.0])
    assert len(kernels) == len(gibbs) == 3
    assert not squared and not conditionals

    kernels.clear()
    assert cli.main(["evolve", "--points", "5", "--output", str(tmp_path / "out.csv")]) == 0
    assert len(kernels) == 1

    covariances = _count_calls(monkeypatch, dynamics, "asymptotic_covariance")
    sudden_death_time(FIG_STATE, fig_env(1.0), 20.0)
    assert len(covariances) == 1


def test_sweep_respects_measured_mode():
    asymmetric = SqueezedThermalParams(n1=2.0, n2=0.0, r=1.0)
    t1 = sweep(asymmetric, fig_env(0.0), [0.0], [0.5], MeasuredMode.MODE1)
    t2 = sweep(asymmetric, fig_env(0.0), [0.0], [0.5], MeasuredMode.MODE2)
    assert t1[0].discord != t2[0].discord


# ---------------------------------------------------------------- late-time discord


def test_classify_threshold_late_time_rows_decay():
    rows = sweep(FIG_STATE, fig_env(0.0), [250.0], [0.5, 1.0, 2.0])
    assert all(row.discord <= 1e-6 for row in rows)


# ---------------------------------------------------------------- accuracy from the parameters


def assert_near_reference(rows, state, env, mode, d_bound):
    """Every row against the 50-digit reference from the parameters: E_N within
    2e-15 and D within d_bound, absolute, and nu_minus within 2e-15 relative."""
    pytest.importorskip("mpmath")
    params = (state.n1, state.n2, state.r, env.m, env.omega1, env.omega2, env.lam)
    worst = [0.0, 0.0, 0.0]
    for row in rows:
        e_n, discord, nu_minus = mp_param_measures(*params, row.temperature, row.t, mode)
        errors = (abs(row.e_n - e_n), abs(row.discord - discord), abs(row.nu_minus / nu_minus - 1))
        worst = [max(w, err) for w, err in zip(worst, errors)]
    assert worst[0] <= 2e-15 and worst[1] <= d_bound and worst[2] <= 2e-15, worst


@pytest.mark.parametrize(
    "state, env, mode",
    [
        (FIG_STATE, EnvironmentParams(), MeasuredMode.MODE2),
        (FIG_STATE, EnvironmentParams(omega2=1.7), MeasuredMode.MODE1),
        (
            SqueezedThermalParams(0.3, 1.4, 1.5),
            EnvironmentParams(lam=0.2, m=1.3, omega1=0.8, omega2=1.6),
            MeasuredMode.MODE2,
        ),
    ],
    ids=["default", "omega2-1.7-mode1", "asymmetric"],
)
def test_sweep_matches_parameter_side_reference(state, env, mode):
    # every 7th cell of a CLI-shaped sweep against a 50-digit reference
    # built from (n1, n2, r, m, omega, lam, T, t) with no rounded entry: the
    # bounds cover the rounding of s0, of the Gibbs terms, of x and y and of
    # the float kernel
    t_grid, temperature_grid = np.linspace(0.0, 20.0, 200), np.linspace(0.0, 4.0, 40)
    rows = sweep(state, env, t_grid, temperature_grid, mode)
    assert_near_reference(rows[::7], state, env, mode, 1e-14)


# (state, bath, t grid, T grid, measured mode, bound on D); n1 = n2 = 0 is the
# hardest case for the exact-integer kernel, which loses 1e-7 in D at r = 5 and
# fails at r = 8
_GATES = {
    "r3": ((0, 0, 3), {}, (20, 12), (4, 5), "mode2", 1e-14),
    "r5": ((0, 0, 5), {}, (20, 12), (4, 5), "mode2", 5e-14),
    "r8": ((0, 0, 8), {}, (20, 12), (4, 5), "mode2", 5e-14),
    "r8-mode1-m1.3": ((0, 0, 8), {"m": 1.3, "omega1": 0.8, "omega2": 1.6}, (20, 12), (4, 5),
                      "mode1", 5e-14),
    "mixed-mode1-m1.3": ((0.3, 1.4, 1.5), {"m": 1.3, "omega1": 0.8, "omega2": 1.6}, (20, 12),
                         (4, 5), "mode1", 1e-14),
    "r1-T0-late-mode1": ((0, 0, 1), {}, (60, 40), (0, 1), "mode1", 1e-14),
}


@pytest.mark.parametrize("gate", _GATES.values(), ids=_GATES.keys())
def test_sweep_accuracy_gates(gate):
    (n1, n2, r), bath, (t_max, t_points), (temperature_max, temperatures), mode, d_bound = gate
    state, env = SqueezedThermalParams(n1, n2, r), EnvironmentParams(**bath)
    mode = MeasuredMode(mode)
    t_grid = np.linspace(0.0, t_max, t_points)
    rows = sweep(state, env, t_grid, np.linspace(0.0, temperature_max, temperatures), mode)
    assert_near_reference(rows, state, env, mode, d_bound)


def test_sweep_accuracy_on_bench_box_draws():
    # 12 seeded draws from the benchmark's box, 10 cells each, both measured modes
    rng = random.Random(27)
    for draw in range(12):
        n1, n2 = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
        r = rng.uniform(separability_threshold_r(n1, n2) + 0.2, 3.0)
        state = SqueezedThermalParams(n1, n2, r)
        env = EnvironmentParams(
            lam=rng.uniform(0.05, 0.3), omega1=rng.uniform(0.5, 2.0), omega2=rng.uniform(0.5, 2.0)
        )
        mode = MeasuredMode.MODE1 if draw % 2 else MeasuredMode.MODE2
        rows = sweep(state, env, np.linspace(0.0, 20.0, 5), [0.0, rng.uniform(0.0, 4.0)], mode)
        assert_near_reference(rows, state, env, mode, 1e-14)


def test_parameter_side_reference_keeps_its_digits_at_large_squeezing():
    # at r = 12 the squared eigenvalues differ by ~20 orders of magnitude; the
    # reference takes the smaller as 2 det / (Delta + root), so its 50-digit
    # values equal a 120-digit run
    pytest.importorskip("mpmath")
    params = (1.0, 0.5, 12.0, 1.3, 0.8, 1.6, 0.1, 0.0, 0.0)
    got, want = mp_param_measures(*params), mp_param_measures(*params, dps=120)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-15, abs=0.0)
