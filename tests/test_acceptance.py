"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  The reference configuration throughout is the symmetric
entangled squeezed thermal state (r=2, n1=n2=1) with lambda=0.1,
omega1=omega2=1, m=1, on the default grids t in [0, 20] (200 points) and
T in [0, 4] (40 points).
"""

import math

import numpy as np
import pytest
from oracles import drift_matrix, evolve_rk4, thermal_diffusion

from gaussbath.analysis import sudden_death_time, sweep
from gaussbath.cli import main as cli_main
from gaussbath.dynamics import EnvironmentParams, asymptotic_covariance, evolution
from gaussbath.states import (
    CovarianceMatrix,
    SqueezedThermalParams,
    build_squeezed_thermal,
    f_entropy,
    gaussian_discord,
    log_negativity,
    ppt_g,
    symplectic_spectrum,
)

FIG_STATE = SqueezedThermalParams(n1=1.0, n2=1.0, r=2.0)
SEPARABLE_STATE = SqueezedThermalParams(n1=1.0, n2=1.0, r=0.3)
T_GRID = np.linspace(0.0, 20.0, 200)
TEMPERATURE_GRID = np.linspace(0.0, 4.0, 40)

# locked by this implementation's bisection after criterion 1 held;
# the RK4 oracle confirms the witness sign change at this time, and the
# closed form t_esd = ln[(coth(1/2T) - 3 e^{-4}) / (coth(1/2T) - 1)] / (2 lam)
# of this symmetric state gives 2.9719732809
T_STAR_REGRESSION = 2.9719735717773443

# smallest doubled symplectic eigenvalue seen by each criterion, for C9
_witnesses: dict[str, float] = {}


def _env(temperature, lam=0.1):
    return EnvironmentParams(lam=lam, temperature=temperature)


def _watch(criterion, states):
    smallest = min(2.0 * symplectic_spectrum(s).nu_minus for s in states)
    _witnesses[criterion] = min(smallest, _witnesses.get(criterion, math.inf))


def _report(cid, ok, detail):
    print(f"{cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{cid} failed: {detail}"


@pytest.fixture(scope="module")
def entangled_trajectories():
    grid = {}
    for temperature in TEMPERATURE_GRID:
        points = sweep(FIG_STATE, _env(float(temperature)), T_GRID, [float(temperature)])
        grid[float(temperature)] = points
        low = min(2.0 * pt.nu_minus for pt in points)
        _witnesses["C7/C8 grid"] = min(low, _witnesses.get("C7/C8 grid", math.inf))
    return grid


@pytest.fixture(scope="module")
def separable_trajectories():
    grid = {}
    for temperature in TEMPERATURE_GRID:
        points = sweep(SEPARABLE_STATE, _env(float(temperature)), T_GRID, [float(temperature)])
        grid[float(temperature)] = points
        low = min(2.0 * pt.nu_minus for pt in points)
        _witnesses["C3 grid"] = min(low, _witnesses.get("C3 grid", math.inf))
    return grid


def test_c01_closed_form_agrees_with_rk4_oracle():
    s0 = build_squeezed_thermal(FIG_STATE)
    worst = 0.0
    for temperature in (0.0, 1.0):
        p = _env(temperature)
        for t in (1.0, 5.0, 20.0):
            closed = evolution(s0, p)(t)
            integrated = evolve_rk4(s0, p, t, 1e-3)
            worst = max(worst, float(np.max(np.abs(closed.sigma - integrated.sigma))))
            _watch("C1", (closed, integrated))
    _report("C1", worst <= 1e-6, f"closed vs RK4 max-entry difference {worst:.3e} <= 1e-6")


def test_c02_stationary_state_is_gibbs():
    worst_resid = 0.0
    worst_gibbs = 0.0
    for temperature in (0.0, 0.5, 1.0, 2.0):
        p = _env(temperature)
        s_inf = asymptotic_covariance(p)
        y, d = drift_matrix(p), thermal_diffusion(p)
        resid = np.max(np.abs(y @ s_inf.sigma + s_inf.sigma @ y.T + 2 * d))
        coth = 1.0 if temperature == 0 else 1.0 / math.tanh(1.0 / (2 * temperature))
        gibbs = np.diag([0.5 * coth, 0.5 * coth, 0.5 * coth, 0.5 * coth])
        worst_resid = max(worst_resid, float(resid))
        worst_gibbs = max(worst_gibbs, float(np.max(np.abs(s_inf.sigma - gibbs))))
        _watch("C2", (s_inf,))
    ok = worst_resid <= 1e-10 and worst_gibbs <= 1e-10
    _report(
        "C2",
        ok,
        f"stationary residual {worst_resid:.3e} <= 1e-10, "
        f"Gibbs-diagonal deviation {worst_gibbs:.3e} <= 1e-10",
    )


def test_c03_separable_state_stays_separable(separable_trajectories):
    nonzero = sum(
        1
        for points in separable_trajectories.values()
        for pt in points
        if pt.e_n != 0.0
    )
    cells = sum(len(points) for points in separable_trajectories.values())
    _report(
        "C3",
        nonzero == 0,
        f"r=0.3 below threshold: E_N = 0 on all {cells} grid cells ({nonzero} violations)",
    )


def test_c04_entanglement_sudden_death():
    s0 = build_squeezed_thermal(FIG_STATE)
    warm = _env(1.0)
    t_star = sudden_death_time(FIG_STATE, warm, 20.0)
    finite_death = t_star is not None and 0.0 < t_star < 20.0
    regression = finite_death and abs(t_star - T_STAR_REGRESSION) <= 5e-6

    dead_after = True
    if finite_death:
        warm_points = sweep(FIG_STATE, warm, T_GRID, [warm.temperature])
        _watch("C4", (evolution(s0, warm)(t) for t in (t_star - 0.01, t_star + 0.01)))
        dead_after = all(pt.e_n == 0.0 for pt in warm_points if pt.t > t_star)

    cold = _env(0.0)
    no_cold_death = sudden_death_time(FIG_STATE, cold, 20.0) is None
    cold_start = log_negativity(s0)
    cold_end = log_negativity(evolution(s0, cold)(20.0))
    cold_decays = 0.0 < cold_end < cold_start

    ok = finite_death and regression and dead_after and no_cold_death and cold_decays
    _report(
        "C4",
        ok,
        f"T=1 death at t*={t_star!r} (regression {T_STAR_REGRESSION}), permanent after t*: "
        f"{dead_after}; T=0 never dies on [0,20] with E_N(20)={cold_end:.4f} < E_N(0)={cold_start:.4f}",
    )


def test_c05_stronger_dissipation_kills_entanglement_earlier():
    s0 = build_squeezed_thermal(FIG_STATE)
    t_weak = sudden_death_time(FIG_STATE, _env(1.0, lam=0.1), 20.0)
    t_strong = sudden_death_time(FIG_STATE, _env(1.0, lam=0.2), 20.0)
    _watch(
        "C5",
        (
            evolution(s0, _env(1.0, lam=0.1))(t_weak),
            evolution(s0, _env(1.0, lam=0.2))(t_strong),
        ),
    )
    ok = t_strong < t_weak
    _report("C5", ok, f"t*(lambda=0.2) = {t_strong:.6f} < t*(lambda=0.1) = {t_weak:.6f}")


def test_c06_initial_negativity_reference_value():
    s0 = build_squeezed_thermal(FIG_STATE)
    _watch("C6", (s0,))
    expected = 4.0 / math.log(2.0) - math.log2(3.0)
    error = abs(log_negativity(s0) - expected)
    _report("C6", error <= 1e-9, f"E_N(0) matches 4/ln2 - log2(3) to {error:.3e} <= 1e-9")


def test_c07_discord_properties(entangled_trajectories):
    grid_positive = all(
        pt.discord > 0.0 for points in entangled_trajectories.values() for pt in points
    )

    s0 = build_squeezed_thermal(FIG_STATE)
    late = []
    for temperature in (0.0, 1.0, 2.0):
        state = evolution(s0, _env(temperature))(250.0)
        _watch("C7", (state,))
        late.append(gaussian_discord(state))
    late_ok = all(d <= 1e-6 for d in late)

    product_worst = 0.0
    for n1 in (0.0, 0.5, 1.0, 2.0):
        for n2 in (0.0, 0.5, 1.0, 2.0):
            state = build_squeezed_thermal(SqueezedThermalParams(n1, n2, 0.0))
            _watch("C7", (state,))
            product_worst = max(product_worst, gaussian_discord(state))
    products_ok = product_worst <= 1e-10

    pure_worst = 0.0
    for r in (0.5, 1.0, 2.0):
        state = build_squeezed_thermal(SqueezedThermalParams(0.0, 0.0, r))
        _watch("C7", (state,))
        pure_worst = max(
            pure_worst, abs(gaussian_discord(state) - f_entropy(math.cosh(2 * r)))
        )
    pure_ok = pure_worst <= 1e-9

    ok = grid_positive and late_ok and products_ok and pure_ok
    _report(
        "C7",
        ok,
        f"discord > 0 on full grid: {grid_positive}; at t=25/lambda max {max(late):.2e} <= 1e-6; "
        f"thermal products max {product_worst:.2e} <= 1e-10; "
        f"squeezed-vacuum deviation max {pure_worst:.2e} <= 1e-9",
    )


def test_c08_discord_above_one_implies_entanglement():
    rows = sweep(FIG_STATE, _env(0.0), T_GRID, TEMPERATURE_GRID)
    above = [row for row in rows if row.discord > 1.0 + 1e-12]
    violations = [row for row in above if row.e_n <= 0.0]
    ok = len(violations) == 0 and len(above) > 0
    _report(
        "C8",
        ok,
        f"{len(above)} cells with D > 1, all entangled ({len(violations)} violations)",
    )


def test_c09_physicality_of_all_sampled_states(
    entangled_trajectories, separable_trajectories
):
    assert _witnesses, "no states were sampled by the earlier criteria"
    low = min(_witnesses.values())
    where = min(_witnesses, key=_witnesses.get)
    _report(
        "C9",
        low >= 1.0 - 1e-9,
        f"2 nu_minus >= 1 - 1e-9 for every sampled state (smallest {low:.12f} at {where})",
    )


def test_c10_ppt_invariant_matches_sign_flip_oracle():
    rng = np.random.default_rng(61)
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    worst = 0.0
    for _ in range(1000):
        r = rng.normal(size=(4, 4)) * 0.5
        state = CovarianceMatrix(0.5 * np.eye(4) + r @ r.T)
        flipped = CovarianceMatrix(flip @ state.sigma @ flip)
        brute = symplectic_spectrum(flipped).nu_minus ** 2
        worst = max(worst, abs(ppt_g(state) - brute))
    _report("C10", worst <= 1e-10, f"1000 random states, worst route difference {worst:.3e} <= 1e-10")


def test_c11_sweep_output_is_deterministic(tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    code1 = cli_main(["sweep", "--output", str(first)])
    code2 = cli_main(["sweep", "--output", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    shape_ok = lines[0] == "t,T,E_N,discord" and len(lines) == 1 + 200 * 40
    ok = code1 == 0 and code2 == 0 and identical and shape_ok
    _report(
        "C11",
        ok,
        f"two default sweep runs byte-identical; header + {len(lines) - 1} rows",
    )
