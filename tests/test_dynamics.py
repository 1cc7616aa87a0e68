import math
import random
from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    _block_dets,
    _evolved_invariants,
    det4,
    drift_matrix,
    evolve_rk4,
    exact_invariants,
    expm_generic,
    is_physical,
    thermal_diffusion,
)

from gaussbath.dynamics import (
    EnvironmentParams,
    asymptotic_covariance,
    evolution,
    propagator,
)
from gaussbath.errors import InvalidParams
from gaussbath.states import (
    SqueezedThermalParams,
    build_squeezed_thermal,
    separability_threshold_r,
    symplectic_spectrum,
)

FIG_STATE = SqueezedThermalParams(n1=1.0, n2=1.0, r=2.0)


def gibbs_diagonal(p):
    entries = []
    for omega in (p.omega1, p.omega2):
        coth = 1.0 if p.temperature == 0 else 1.0 / math.tanh(omega / (2 * p.temperature))
        entries += [coth / (2 * p.m * omega), p.m * omega * coth / 2.0]
    return np.diag(entries)


def lyapunov_residual(y, sigma, d):
    return np.max(np.abs(y @ sigma + sigma @ y.T + 2 * d))


# ---------------------------------------------------------------- parameters


def test_environment_params_validation():
    with pytest.raises(InvalidParams):
        EnvironmentParams(lam=-0.1)
    with pytest.raises(InvalidParams):
        EnvironmentParams(m=0.0)
    with pytest.raises(InvalidParams):
        EnvironmentParams(omega1=-1.0)
    with pytest.raises(InvalidParams):
        EnvironmentParams(omega2=0.0)
    with pytest.raises(InvalidParams):
        EnvironmentParams(temperature=-0.5)
    for field in ("lam", "m", "omega1", "omega2", "temperature"):
        for value in (math.nan, math.inf):
            with pytest.raises(InvalidParams, match=field):
                EnvironmentParams(**{field: value})


@pytest.mark.parametrize(
    "kwargs",
    [
        {"omega1": 1e-300, "temperature": 1.0},  # coth/(2 m w) overflows
        {"m": 1e-310, "temperature": 0.0},  # 1/(2 m w) overflows
        {"m": 1e-200, "omega1": 1e-200},  # 2 m w underflows to 0
        {"m": 1e154, "omega1": 1e154, "omega2": 1e154},  # 2 m w overflows: 1/(2 m w) is 0
    ],
)
def test_environment_params_reject_gibbs_entries_outside_double_range(kwargs):
    with pytest.raises(InvalidParams, match="Gibbs state .* outside the double range"):
        EnvironmentParams(**kwargs)


def test_environment_params_allow_zero_damping():
    # the undamped limit: the evolution is a free rotation
    p = EnvironmentParams(lam=0.0)
    assert p.lam == 0.0


# ---------------------------------------------------------------- drift


def test_drift_matrix_reference_blocks():
    p = EnvironmentParams(lam=0.1, m=1.0, omega1=1.0, omega2=1.0)
    y = drift_matrix(p)
    block = np.array([[-0.1, 1.0], [-1.0, -0.1]])
    assert np.array_equal(y[:2, :2], block)
    assert np.array_equal(y[2:, 2:], block)
    assert np.array_equal(y[:2, 2:], np.zeros((2, 2)))
    assert np.array_equal(y[2:, :2], np.zeros((2, 2)))


def test_drift_trace():
    p = EnvironmentParams(lam=0.35, m=2.0, omega1=1.3, omega2=0.8)
    assert np.trace(drift_matrix(p)) == pytest.approx(-4 * 0.35, abs=1e-15)


def test_drift_block_eigenvalues():
    # characteristic polynomial of each block: x^2 + 2 lam x + lam^2 + omega^2
    p = EnvironmentParams(lam=0.2, m=1.5, omega1=0.9, omega2=1.7)
    y = drift_matrix(p)
    for k, omega in ((0, 0.9), (2, 1.7)):
        blk = y[k : k + 2, k : k + 2]
        tr = blk[0, 0] + blk[1, 1]
        det = blk[0, 0] * blk[1, 1] - blk[0, 1] * blk[1, 0]
        assert tr == pytest.approx(-2 * 0.2, abs=1e-15)
        assert det == pytest.approx(0.2**2 + omega**2, rel=1e-14)


# ---------------------------------------------------------------- diffusion


def test_thermal_diffusion_zero_temperature():
    p = EnvironmentParams(lam=0.1, m=1.0, omega1=1.0, omega2=1.0, temperature=0.0)
    d = thermal_diffusion(p)
    assert d[0, 0] == pytest.approx(0.05, abs=1e-15)
    assert d[1, 1] == pytest.approx(0.05, abs=1e-15)
    assert np.array_equal(d, np.diag(np.diag(d)))


def test_thermal_diffusion_high_temperature_asymptote():
    # coth(w/2T) -> 2T/w, so D_xx -> lam T / (m w^2)
    p = EnvironmentParams(lam=0.1, m=1.0, omega1=1.0, omega2=1.0, temperature=100.0)
    d = thermal_diffusion(p)
    assert d[0, 0] == pytest.approx(0.1 * 100.0, rel=0.01)


def test_thermal_diffusion_mode_symmetry():
    p = EnvironmentParams(lam=0.3, m=1.2, omega1=1.4, omega2=1.4, temperature=0.7)
    d = thermal_diffusion(p)
    assert d[0, 0] == d[2, 2]
    assert d[1, 1] == d[3, 3]


def test_thermal_diffusion_cross_terms_vanish():
    p = EnvironmentParams(lam=0.2, m=1.0, omega1=1.0, omega2=2.0, temperature=1.5)
    d = thermal_diffusion(p)
    off = d - np.diag(np.diag(d))
    assert np.array_equal(off, np.zeros((4, 4)))


# ---------------------------------------------------------------- propagator


def test_propagator_identity_at_zero():
    p = EnvironmentParams(lam=0.1)
    assert np.array_equal(propagator(p, 0.0), np.eye(4))


def test_propagator_quarter_period_rotation():
    p = EnvironmentParams(lam=0.0, m=1.0, omega1=1.0, omega2=1.0)
    m = propagator(p, math.pi / 2)
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.max(np.abs(m[:2, :2] - block)) <= 1e-15
    assert np.max(np.abs(m[2:, 2:] - block)) <= 1e-15


def test_propagator_decay_envelope():
    p = EnvironmentParams(lam=0.25, m=2.0, omega1=0.5, omega2=1.5)
    bound = max(1.0, 1.0 / (p.m * p.omega1), p.m * p.omega1, 1.0 / (p.m * p.omega2), p.m * p.omega2)
    for t in (1.0, 5.0, 20.0):
        m = propagator(p, t)
        assert np.max(np.abs(m)) <= math.exp(-p.lam * t) * bound * (1 + 1e-12)


def test_propagator_matches_generic_expm():
    p = EnvironmentParams(lam=0.1, m=1.3, omega1=1.0, omega2=0.7)
    y = drift_matrix(p)
    for t in np.linspace(0.0, 50.0, 26):
        diff = np.max(np.abs(propagator(p, t) - expm_generic(y * t)))
        assert diff <= 1e-9


# ---------------------------------------------------------------- stationary state


def test_asymptotic_covariance_is_gibbs_diagonal():
    for temperature in (0.0, 0.5, 1.0, 2.0):
        p = EnvironmentParams(lam=0.1, temperature=temperature)
        s_inf = asymptotic_covariance(p).sigma
        assert np.max(np.abs(s_inf - gibbs_diagonal(p))) <= 1e-10
        resid = lyapunov_residual(drift_matrix(p), s_inf, thermal_diffusion(p))
        assert resid <= 1e-10


def test_asymptotic_covariance_detuned_modes():
    p = EnvironmentParams(lam=0.4, m=1.7, omega1=0.6, omega2=2.3, temperature=1.3)
    s_inf = asymptotic_covariance(p).sigma
    assert np.max(np.abs(s_inf - gibbs_diagonal(p))) <= 1e-10


def test_asymptotic_spectrum_is_thermal():
    p = EnvironmentParams(lam=0.1, temperature=1.0)
    spec = symplectic_spectrum(asymptotic_covariance(p))
    expected = 0.5 / math.tanh(0.5)
    assert spec.nu_minus == pytest.approx(expected, rel=1e-12)
    assert spec.nu_plus == pytest.approx(expected, rel=1e-12)


def test_asymptotic_covariance_is_exactly_diagonal():
    for p in (
        EnvironmentParams(lam=0.1, temperature=1.0),
        EnvironmentParams(lam=0.4, m=1.7, omega1=0.6, omega2=2.3, temperature=1.3),
        EnvironmentParams(lam=0.0, temperature=0.0),
    ):
        s_inf = asymptotic_covariance(p).sigma
        assert np.array_equal(s_inf, np.diag(np.diag(s_inf)))


def test_asymptotic_covariance_matches_high_precision_gibbs():
    # the 50-digit Gibbs state, rounded once; the closed form is within 4 ulps
    mpmath = pytest.importorskip("mpmath")
    for p in (
        EnvironmentParams(lam=0.1, temperature=0.0),
        EnvironmentParams(lam=0.1, temperature=1.0),
        EnvironmentParams(lam=0.4, m=1.7, omega1=0.6, omega2=2.3, temperature=1.3),
        EnvironmentParams(lam=0.2, m=0.3, omega1=5.0, omega2=0.05, temperature=0.01),
    ):
        diagonal = np.diag(asymptotic_covariance(p).sigma)
        expected = []
        with mpmath.workdps(50):
            for omega in (p.omega1, p.omega2):
                w, m = mpmath.mpf(omega), mpmath.mpf(p.m)
                coth = 1 if p.temperature == 0 else mpmath.coth(w / (2 * mpmath.mpf(p.temperature)))
                expected += [float(coth / (2 * m * w)), float(m * w * coth / 2)]
        for got, want in zip(diagonal, expected):
            assert abs(got - want) <= 4 * math.ulp(want)


# ---------------------------------------------------------------- closed evolution


def test_evolve_closed_identity_at_zero():
    s0 = build_squeezed_thermal(FIG_STATE)
    p = EnvironmentParams(lam=0.1, temperature=1.0)
    assert np.array_equal(evolution(s0, p)(0.0).sigma, s0.sigma)


def test_evolve_closed_fixed_point():
    p = EnvironmentParams(lam=0.1, temperature=1.0)
    s_inf = asymptotic_covariance(p)
    for t in (0.5, 3.0, 12.0):
        out = evolution(s_inf, p)(t)
        assert np.max(np.abs(out.sigma - s_inf.sigma)) <= 1e-12


def test_evolve_closed_converges():
    s0 = build_squeezed_thermal(FIG_STATE)
    p = EnvironmentParams(lam=0.1, temperature=1.0)
    s_inf = asymptotic_covariance(p).sigma
    out = evolution(s0, p)(10.0 / p.lam)
    assert np.max(np.abs(out.sigma - s_inf)) <= 1e-6


def test_evolve_closed_convergence_is_monotone_on_periods():
    s0 = build_squeezed_thermal(FIG_STATE)
    p = EnvironmentParams(lam=0.1, temperature=1.0)
    s_inf = asymptotic_covariance(p).sigma
    period = 2 * math.pi / p.omega1
    distances = []
    for k in range(0, 40):
        out = evolution(s0, p)(k * period)
        distances.append(np.max(np.abs(out.sigma - s_inf)))
    assert all(b <= a for a, b in zip(distances, distances[1:]))
    assert distances[-1] <= 1e-8  # t = 39 periods ~ 245 ~ 25 / lam


def test_evolve_closed_semigroup():
    s0 = build_squeezed_thermal(FIG_STATE)
    p = EnvironmentParams(lam=0.1, temperature=0.7)
    two_step = evolution(evolution(s0, p)(1.3), p)(2.4)
    one_step = evolution(s0, p)(3.7)
    assert np.max(np.abs(two_step.sigma - one_step.sigma)) <= 1e-9


def test_evolve_closed_preserves_physicality():
    s0 = build_squeezed_thermal(FIG_STATE)
    for temperature in (0.0, 1.0):
        p = EnvironmentParams(lam=0.1, temperature=temperature)
        for t in np.linspace(0.0, 20.0, 41):
            out = evolution(s0, p)(float(t))
            assert is_physical(out)
            assert 2 * symplectic_spectrum(out).nu_minus >= 1 - 1e-9


def test_evolve_closed_rejects_negative_time():
    s0 = build_squeezed_thermal(FIG_STATE)
    with pytest.raises(InvalidParams):
        evolution(s0, EnvironmentParams(lam=0.1))(-1.0)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_evolution_rejects_non_finite_time(t):
    s0 = build_squeezed_thermal(FIG_STATE)
    with pytest.raises(InvalidParams, match="finite"):
        evolution(s0, EnvironmentParams(lam=0.1))(t)


# ---------------------------------------------------------------- exact invariant kernel


def box_draws(seed, count):
    """Seeded (state, bath, t) draws over the bench box, with unequal
    frequencies, m != 1, and lam = 0 and T = 0 among them."""
    rng = random.Random(seed)
    for draw in range(count):
        n1, n2 = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
        r = rng.uniform(separability_threshold_r(n1, n2) + 0.2, 3.0)
        p = EnvironmentParams(
            lam=0.0 if draw % 10 == 0 else rng.uniform(0.0, 0.3),
            m=rng.uniform(0.5, 2.0),
            omega1=rng.uniform(0.5, 2.0),
            omega2=rng.uniform(0.5, 2.0),
            temperature=0.0 if draw % 7 == 0 else rng.uniform(0.0, 4.0),
        )
        yield SqueezedThermalParams(n1, n2, r), p, rng.uniform(0.0, 30.0)


def test_evolved_invariants_match_closed_form():
    # the invariants of the kernel against those of the closed-form sigma(t),
    # which C1 ties to RK4, over the bench box with unequal frequencies,
    # m != 1, lam = 0 and T = 0; the tolerance covers the rounding of M(t),
    # of x and of each invariant
    for draw, (state, p, t) in enumerate(box_draws(19, 120)):
        s0 = build_squeezed_thermal(state)
        got = _evolved_invariants(state, p)(t)
        den2 = got.den * got.den
        floats = (got.det_a / den2, got.det_b / den2, got.det_c / den2, got.det_sigma / den2**2)
        for g, w in zip(floats, exact_invariants(s0, p, t)):
            assert g == pytest.approx(float(w), rel=1e-11, abs=0.0), (draw, p, t)
        assert got.positive_definite == evolution(s0, p)(t)._invariants.positive_definite


def _as_fractions(inv):
    """(det A, det B, det C, det sigma) as fractions, and the positive-definite verdict."""
    den2 = inv.den * inv.den
    dets = (inv.det_a, den2), (inv.det_b, den2), (inv.det_c, den2), (inv.det_sigma, den2**2)
    return tuple(Fraction(num, den) for num, den in dets), inv.positive_definite


def test_evolved_invariants_are_exact_block_determinants():
    # the products of the evolved quadrature entries equal, as fractions, the
    # block determinants of G + x (s0 - G) formed in exact rationals from the
    # double entries of s0 and of the Gibbs state G, at the same double x
    for state, p, t in box_draws(21, 150):
        s0 = build_squeezed_thermal(state)
        got = _evolved_invariants(state, p)(t)
        x = Fraction(math.exp(-2.0 * p.lam * t))
        gibbs, start = (
            [[Fraction(v) for v in row] for row in a.tolist()]
            for a in (asymptotic_covariance(p).sigma, s0.sigma)
        )
        q = [[g + x * (s - g) for g, s in zip(rg, rs)] for rg, rs in zip(gibbs, start)]
        assert _as_fractions(got)[0] == _block_dets(q), (state, p, t)


def test_evolved_invariants_where_x_is_one_are_the_initial_state():
    # the same rationals and verdict as s0's own invariants, over another den;
    # at r = 12 the rounded entries have a b = c^2, so s0 is not positive definite
    p = EnvironmentParams(lam=0.2, m=1.3, omega1=0.8, omega2=1.6, temperature=1.0)
    undamped = EnvironmentParams(lam=0.0, m=1.3, omega1=0.8, omega2=1.6, temperature=1.0)
    for state in SqueezedThermalParams(0.3, 1.4, 1.5), SqueezedThermalParams(0.0, 0.0, 12.0):
        want = _as_fractions(build_squeezed_thermal(state)._invariants)
        assert _as_fractions(_evolved_invariants(state, p)(0.0)) == want
        assert _as_fractions(_evolved_invariants(state, p)(1e-300)) == want  # x rounds to 1
        assert _as_fractions(_evolved_invariants(state, undamped)(7.0)) == want


@pytest.mark.parametrize("t", [-1.0, math.inf, math.nan])
def test_evolved_invariants_reject_bad_time(t):
    with pytest.raises(InvalidParams, match="non-negative"):
        _evolved_invariants(FIG_STATE, EnvironmentParams(lam=0.1))(t)


# ---------------------------------------------------------------- RK4 oracle


def test_rk4_identity_at_zero():
    s0 = build_squeezed_thermal(FIG_STATE)
    p = EnvironmentParams(lam=0.1, temperature=1.0)
    assert np.array_equal(evolve_rk4(s0, p, 0.0, 1e-3).sigma, s0.sigma)


def test_rk4_agrees_with_closed_form():
    s0 = build_squeezed_thermal(FIG_STATE)
    p = EnvironmentParams(lam=0.1, temperature=1.0)
    closed = evolution(s0, p)(2.0)
    integrated = evolve_rk4(s0, p, 2.0, 1e-3)
    assert np.max(np.abs(closed.sigma - integrated.sigma)) <= 1e-6


def test_rk4_partial_final_step():
    s0 = build_squeezed_thermal(FIG_STATE)
    p = EnvironmentParams(lam=0.1, temperature=1.0)
    closed = evolution(s0, p)(0.7605)  # not a multiple of dt
    integrated = evolve_rk4(s0, p, 0.7605, 1e-3)
    assert np.max(np.abs(closed.sigma - integrated.sigma)) <= 1e-6


def test_evolve_closed_undamped_is_free_rotation():
    # lam = 0: the Gibbs state is invariant under the free rotation M(t)
    s0 = build_squeezed_thermal(SqueezedThermalParams(0.5, 0.5, 1.0))
    for temperature in (0.0, 1.0):
        p = EnvironmentParams(lam=0.0, omega1=1.0, omega2=1.3, temperature=temperature)
        for t in (0.7, 3.0, 11.0):
            m = propagator(p, t)
            closed = evolution(s0, p)(t)
            assert np.max(np.abs(closed.sigma - m @ s0.sigma @ m.T)) <= 1e-12
            integrated = evolve_rk4(s0, p, t, 1e-3)
            assert np.max(np.abs(closed.sigma - integrated.sigma)) <= 1e-6


def test_rk4_undamped_flow_preserves_determinant():
    # lam = 0 gives a pure symplectic rotation with D = 0
    s0 = build_squeezed_thermal(SqueezedThermalParams(0.5, 0.5, 1.0))
    p = EnvironmentParams(lam=0.0, omega1=1.0, omega2=1.3)
    out = evolve_rk4(s0, p, 3.0, 1e-3)
    assert det4(out.sigma) == pytest.approx(det4(s0.sigma), rel=1e-8)


def test_rk4_rejects_bad_step():
    s0 = build_squeezed_thermal(FIG_STATE)
    p = EnvironmentParams(lam=0.1)
    with pytest.raises(InvalidParams):
        evolve_rk4(s0, p, 1.0, 0.0)
    with pytest.raises(InvalidParams):
        evolve_rk4(s0, p, -1.0, 1e-3)


def test_rk4_output_is_symmetric():
    s0 = build_squeezed_thermal(FIG_STATE)
    p = EnvironmentParams(lam=0.1, temperature=2.0)
    out = evolve_rk4(s0, p, 1.0, 1e-3)
    assert np.array_equal(out.sigma, out.sigma.T)
