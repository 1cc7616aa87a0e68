import math

import numpy as np
import pytest
from oracles import det4, drift_matrix, evolve_rk4, expm_generic, is_physical, thermal_diffusion

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
