import math
import random

import numpy as np
import pytest
from oracles import _evolved_invariants, _measures, det4, is_physical, mp_measures

from gaussbath.dynamics import EnvironmentParams, evolution
from gaussbath.errors import DomainError, GaussBathError, InvalidParams, NonPhysical
from gaussbath.states import (
    Branch,
    CovarianceMatrix,
    MeasuredMode,
    SqueezedThermalParams,
    _ExactInvariants,
    _cell_kernel,
    build_squeezed_thermal,
    discord_invariants,
    f_entropy,
    gaussian_discord,
    log_negativity,
    ppt_g,
    separability_threshold_r,
    symplectic_spectrum,
)

VACUUM = CovarianceMatrix(0.5 * np.eye(4))

# partial-transpose sign flip of the second mode's momentum
FLIP = np.diag([1.0, 1.0, 1.0, -1.0])


def ppt_nu_squared_brute(state):
    """Independent route to g: flip p_y and read nu_minus^2 off the invariants."""
    flipped = CovarianceMatrix(FLIP @ state.sigma @ FLIP)
    return symplectic_spectrum(flipped).nu_minus ** 2


# ---------------------------------------------------------------- containers


def test_covariance_matrix_symmetrizes():
    raw = np.array(
        [
            [1.0, 0.25, 0.0, 0.0],
            [0.75, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    s = CovarianceMatrix(raw)
    assert np.array_equal(s.sigma, s.sigma.T)
    assert s.sigma[0, 1] == 0.5


def test_covariance_matrix_rejects_bad_shape_and_nan():
    with pytest.raises(InvalidParams):
        CovarianceMatrix(np.eye(3))
    bad = np.eye(4)
    bad[2, 2] = np.nan
    with pytest.raises(InvalidParams):
        CovarianceMatrix(bad)


def test_covariance_matrix_symmetrizing_stays_finite():
    # halving before adding: 0.5 * (s + s^T) would overflow an entry of 1.5e308
    raw = np.diag([1.5e308, 1.0, 1.0, 1.0])
    raw[0, 2] = raw[2, 0] = 1.5e308
    s = CovarianceMatrix(raw)
    assert np.array_equal(s.sigma, raw)


def test_covariance_matrix_storage_is_readonly():
    s = CovarianceMatrix(np.eye(4))
    with pytest.raises(ValueError):
        s.sigma[0, 0] = 2.0


def test_squeezed_thermal_params_reject_negative_occupation():
    with pytest.raises(InvalidParams):
        SqueezedThermalParams(n1=-0.1, n2=0.0, r=1.0)
    with pytest.raises(InvalidParams):
        SqueezedThermalParams(n1=0.0, n2=-1.0, r=1.0)


def test_squeezed_thermal_params_reject_non_finite():
    for field in ("n1", "n2", "r"):
        for value in (math.nan, math.inf, -math.inf):
            kwargs = {"n1": 1.0, "n2": 1.0, "r": 1.0, field: value}
            with pytest.raises(InvalidParams, match=field):
                SqueezedThermalParams(**kwargs)


@pytest.mark.parametrize(
    "n1, n2, r", [(1.0, 1.0, 400.0), (1.0, 1.0, 355.2), (0.0, 0.0, 356.0), (1e308, 1.0, 1.0)]
)
def test_squeezed_thermal_params_reject_overflowing_entries(n1, n2, r):
    # cosh^2 r raises OverflowError at r = 400; a, b and c are inf at 355.2
    with pytest.raises(InvalidParams, match="entries overflow"):
        SqueezedThermalParams(n1, n2, r)


# ---------------------------------------------------------------- blocks


def test_blocks_of_squeezed_thermal_cross_pattern():
    s = build_squeezed_thermal(SqueezedThermalParams(1.0, 1.0, 2.0))
    c = s.sigma[:2, 2:]
    assert c[0, 1] == 0.0 and c[1, 0] == 0.0
    assert c[0, 0] == -c[1, 1] != 0.0


# ---------------------------------------------------------------- builder


def test_build_vacuum():
    s = build_squeezed_thermal(SqueezedThermalParams(0.0, 0.0, 0.0))
    assert np.array_equal(s.sigma, 0.5 * np.eye(4))


def test_build_symmetric_entangled_entries():
    s = build_squeezed_thermal(SqueezedThermalParams(1.0, 1.0, 2.0))
    a = 1.5 * math.cosh(4.0)
    c = 1.5 * math.sinh(4.0)
    assert s.sigma[0, 0] == pytest.approx(a, rel=1e-15)
    assert s.sigma[2, 2] == pytest.approx(a, rel=1e-15)
    assert s.sigma[0, 2] == pytest.approx(c, rel=1e-15)
    assert s.sigma[1, 3] == pytest.approx(-c, rel=1e-15)


def test_build_thermal_product():
    for n in (0.5, 1.0, 3.0):
        s = build_squeezed_thermal(SqueezedThermalParams(n, n, 0.0))
        assert np.array_equal(s.sigma, (n + 0.5) * np.eye(4))


def test_build_outputs_are_physical():
    rng = np.random.default_rng(19)
    for _ in range(50):
        params = SqueezedThermalParams(
            n1=rng.uniform(0, 3), n2=rng.uniform(0, 3), r=rng.uniform(-2, 2)
        )
        assert is_physical(build_squeezed_thermal(params))


# ---------------------------------------------------------------- threshold


def test_threshold_vacuum_pair():
    assert separability_threshold_r(0.0, 0.0) == 0.0


def test_threshold_symmetric_pair():
    assert separability_threshold_r(1.0, 1.0) == pytest.approx(0.5 * math.log(3.0), abs=1e-14)


def test_threshold_one_mode_at_vacuum_is_zero():
    # resolved by the brute-force partial-transpose check below: with one
    # mode at vacuum occupation, any squeezing entangles the pair
    assert separability_threshold_r(1.0, 0.0) == 0.0
    assert separability_threshold_r(0.0, 2.5) == 0.0


def test_threshold_agrees_with_brute_force_ppt_near_zero():
    for r in (1e-3, 0.01, 0.1):
        s = build_squeezed_thermal(SqueezedThermalParams(1.0, 0.0, r))
        assert 4.0 * ppt_nu_squared_brute(s) < 1.0
        assert log_negativity(s) > 0.0
    s0 = build_squeezed_thermal(SqueezedThermalParams(1.0, 0.0, 0.0))
    assert log_negativity(s0) == 0.0


def test_threshold_rejects_negative_occupation():
    for n1, n2 in ((-1.0, 0.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf)):
        with pytest.raises(InvalidParams):
            separability_threshold_r(n1, n2)


def test_entanglement_iff_r_above_threshold():
    for n1 in (0.0, 0.5, 1.0, 2.0):
        for n2 in (0.0, 0.5, 1.0, 2.0):
            r_s = separability_threshold_r(n1, n2)
            for r in np.linspace(0.0, 2.0, 41):
                if abs(r - r_s) <= 1e-6:
                    continue
                e_n = log_negativity(build_squeezed_thermal(SqueezedThermalParams(n1, n2, r)))
                assert (e_n > 0.0) == (r > r_s), (n1, n2, r, r_s, e_n)


# ---------------------------------------------------------------- spectrum


def test_spectrum_of_vacuum():
    spec = symplectic_spectrum(VACUUM)
    assert spec.nu_minus == pytest.approx(0.5, abs=1e-15)
    assert spec.nu_plus == pytest.approx(0.5, abs=1e-15)


def test_spectrum_of_thermal_product():
    s = CovarianceMatrix(1.5 * np.eye(4))
    spec = symplectic_spectrum(s)
    assert spec.nu_minus == pytest.approx(1.5, rel=1e-14)
    assert spec.nu_plus == pytest.approx(1.5, rel=1e-14)


def test_spectrum_of_asymmetric_thermal_product():
    s = CovarianceMatrix(np.diag([1.5, 1.5, 2.5, 2.5]))
    spec = symplectic_spectrum(s)
    assert spec.nu_minus == pytest.approx(1.5, rel=1e-12)
    assert spec.nu_plus == pytest.approx(2.5, rel=1e-12)


def test_spectrum_of_pure_squeezed_vacuum():
    for r in (0.3, 1.0, 2.0):
        s = build_squeezed_thermal(SqueezedThermalParams(0.0, 0.0, r))
        spec = symplectic_spectrum(s)
        assert spec.nu_minus == pytest.approx(0.5, abs=1e-9)
        assert spec.nu_plus == pytest.approx(0.5, abs=1e-9)


def test_spectrum_product_identity():
    rng = np.random.default_rng(31)
    for _ in range(30):
        r = rng.normal(size=(4, 4))
        s = CovarianceMatrix(0.5 * np.eye(4) + r @ r.T)
        spec = symplectic_spectrum(s)
        delta16 = 16.0 * det4(s.sigma)
        product = 2.0 * spec.nu_minus * 2.0 * spec.nu_plus
        assert product == pytest.approx(math.sqrt(delta16), rel=1e-9)


def test_spectrum_ordering():
    rng = np.random.default_rng(37)
    for _ in range(50):
        r = rng.normal(size=(4, 4))
        spec = symplectic_spectrum(CovarianceMatrix(0.5 * np.eye(4) + r @ r.T))
        assert spec.nu_minus <= spec.nu_plus


def test_spectrum_rejects_invalid_matrix():
    bad = CovarianceMatrix(
        np.array(
            [
                [0.329, 0.187, 1.294, 0.329],
                [0.187, -2.204, -0.283, 0.809],
                [1.294, -0.283, 1.822, -0.636],
                [0.329, 0.809, -0.636, 2.002],
            ]
        )
    )
    with pytest.raises(NonPhysical):
        symplectic_spectrum(bad)


# ---------------------------------------------------------------- ppt and negativity


def test_ppt_g_vacuum_boundary():
    assert ppt_g(VACUUM) == pytest.approx(0.25, abs=1e-15)
    assert log_negativity(VACUUM) == 0.0


def test_ppt_g_symmetric_closed_form():
    for n, r in ((0.5, 0.4), (1.0, 1.0), (2.0, 1.5)):
        s = build_squeezed_thermal(SqueezedThermalParams(n, n, r))
        a = (n + 0.5) * math.cosh(2 * r)
        c = (n + 0.5) * math.sinh(2 * r)
        assert ppt_g(s) == pytest.approx((a - c) ** 2, abs=1e-10)


def test_ppt_g_entangled_reference_value():
    s = build_squeezed_thermal(SqueezedThermalParams(1.0, 1.0, 2.0))
    assert ppt_g(s) == pytest.approx((1.5 * math.exp(-4.0)) ** 2, rel=1e-9)


def test_ppt_g_matches_brute_force_flip():
    rng = np.random.default_rng(41)
    for _ in range(200):
        r = rng.normal(size=(4, 4)) * 0.5
        s = CovarianceMatrix(0.5 * np.eye(4) + r @ r.T)
        assert abs(ppt_g(s) - ppt_nu_squared_brute(s)) <= 1e-10


def test_log_negativity_two_mode_squeezed_vacuum():
    for r in (0.25, 1.0, 2.0):
        s = build_squeezed_thermal(SqueezedThermalParams(0.0, 0.0, r))
        assert log_negativity(s) == pytest.approx(2.0 * r / math.log(2.0), rel=1e-10)


def test_log_negativity_entangled_reference_value():
    s = build_squeezed_thermal(SqueezedThermalParams(1.0, 1.0, 2.0))
    expected = 4.0 / math.log(2.0) - math.log2(3.0)
    assert log_negativity(s) == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------- physicality


def test_is_physical_vacuum():
    assert is_physical(VACUUM)


def test_is_physical_rejects_squashed_vacuum():
    assert not is_physical(CovarianceMatrix(0.25 * np.eye(4)))


def test_is_physical_rejects_indefinite_matrix():
    m = np.diag([1.0, -1.0, 1.0, 1.0])
    assert not is_physical(CovarianceMatrix(m))


@pytest.mark.parametrize("diagonal", [(-0.5, -0.5, -0.5, -0.5), (-1.0, -1.0, 1.0, 1.0)])
def test_bona_fide_check_needs_leading_minors(diagonal):
    # negative definite blocks have the spectrum of a bona fide state; only
    # the signs of the leading principal minors reject them
    state = CovarianceMatrix(np.diag(diagonal))
    assert 2.0 * symplectic_spectrum(state).nu_minus >= 1.0
    assert not is_physical(state)
    with pytest.raises(NonPhysical):
        gaussian_discord(state)


def test_bona_fide_check_needs_third_leading_minor():
    # eigenvalues (-1, -1, 3, 3) and symplectic spectrum (1, 3); sigma_00,
    # det A and det sigma are positive, only the leading 3x3 minor (-3) is not
    sigma = np.array([[1, 0, 2, 0], [0, 1, 0, 2], [2, 0, 1, 0], [0, 2, 0, 1]], dtype=float)
    state = CovarianceMatrix(sigma)
    assert 2.0 * symplectic_spectrum(state).nu_minus >= 1.0
    assert not is_physical(state)
    with pytest.raises(NonPhysical):
        gaussian_discord(state)


# ---------------------------------------------------------------- entropy function


def test_f_entropy_pure_limit():
    assert f_entropy(1.0) == 0.0


def test_f_entropy_reference_values():
    assert f_entropy(3.0) == pytest.approx(2.0 * math.log(2.0), abs=1e-14)
    expected = 1.5 * math.log(1.5) - 0.5 * math.log(0.5)
    assert f_entropy(2.0) == pytest.approx(expected, abs=1e-14)


def test_f_entropy_thermal_identity():
    for n in (0.5, 1.0, 2.0, 5.0):
        expected = (n + 1.0) * math.log(n + 1.0) - n * math.log(n)
        assert f_entropy(2.0 * n + 1.0) == pytest.approx(expected, abs=1e-12)


def test_f_entropy_clamps_tolerated_undershoot():
    assert f_entropy(1.0 - 1e-10) == 0.0


def test_f_entropy_rejects_domain_violation():
    with pytest.raises(DomainError):
        f_entropy(0.9)


# ---------------------------------------------------------------- discord


def test_discord_of_thermal_products_is_zero():
    for n1 in (0.0, 0.5, 1.0, 2.0, 5.0):
        for n2 in (0.0, 0.5, 1.0, 2.0, 5.0):
            s = build_squeezed_thermal(SqueezedThermalParams(n1, n2, 0.0))
            assert gaussian_discord(s) <= 1e-10


def test_discord_of_two_mode_squeezed_vacuum():
    for r in (0.5, 1.0, 2.0):
        s = build_squeezed_thermal(SqueezedThermalParams(0.0, 0.0, r))
        assert gaussian_discord(s) == pytest.approx(f_entropy(math.cosh(2 * r)), abs=1e-9)


def test_discord_initial_entangled_state_above_threshold():
    s = build_squeezed_thermal(SqueezedThermalParams(1.0, 1.0, 2.0))
    d = gaussian_discord(s)
    assert d > 1.0
    # regression value from evaluating the closed formulas
    assert d == pytest.approx(2.135657162331881, abs=1e-9)


def test_discord_depends_only_on_det_c_magnitude():
    for n1, n2, r in ((1.0, 1.0, 2.0), (0.5, 2.0, 0.7), (0.0, 0.0, 1.2)):
        s = build_squeezed_thermal(SqueezedThermalParams(n1, n2, r))
        mirrored = s.sigma.copy()
        mirrored[0, 2] = mirrored[2, 0] = -mirrored[0, 2]
        mirrored[1, 3] = mirrored[3, 1] = -mirrored[1, 3]
        d1 = gaussian_discord(s)
        d2 = gaussian_discord(CovarianceMatrix(mirrored))
        assert abs(d1 - d2) <= 1e-12


def test_discord_measured_mode_breaks_symmetry():
    s = build_squeezed_thermal(SqueezedThermalParams(2.0, 0.0, 1.0))
    d2 = gaussian_discord(s, MeasuredMode.MODE2)
    d1 = gaussian_discord(s, MeasuredMode.MODE1)
    assert abs(d1 - d2) > 1e-3


def test_discord_mode1_equals_mode2_on_swapped_state():
    s = build_squeezed_thermal(SqueezedThermalParams(2.0, 0.0, 1.0))
    perm = np.zeros((4, 4))
    perm[0, 2] = perm[1, 3] = perm[2, 0] = perm[3, 1] = 1.0
    swapped = CovarianceMatrix(perm @ s.sigma @ perm.T)
    d1 = gaussian_discord(s, MeasuredMode.MODE1)
    d2 = gaussian_discord(swapped, MeasuredMode.MODE2)
    assert d1 == pytest.approx(d2, abs=1e-12)


def test_discord_symmetric_state_mode_independent():
    s = build_squeezed_thermal(SqueezedThermalParams(1.0, 1.0, 2.0))
    d1 = gaussian_discord(s, MeasuredMode.MODE1)
    d2 = gaussian_discord(s, MeasuredMode.MODE2)
    assert d1 == pytest.approx(d2, abs=1e-12)


def test_discord_rejects_unphysical_state():
    with pytest.raises(NonPhysical):
        gaussian_discord(CovarianceMatrix(0.25 * np.eye(4)))


def test_separable_states_stay_below_discord_threshold():
    # contrapositive of "discord above one implies entanglement"
    rng = np.random.default_rng(43)
    for _ in range(100):
        n1, n2 = rng.uniform(0, 2, size=2)
        r_s = separability_threshold_r(n1, n2)
        r = rng.uniform(0.0, r_s) if r_s > 0 else 0.0
        s = build_squeezed_thermal(SqueezedThermalParams(n1, n2, r))
        if log_negativity(s) == 0.0:
            assert gaussian_discord(s) <= 1.0 + 1e-9


# ---------------------------------------------------------------- invariants


def test_invariants_product_state_branch_one():
    s = build_squeezed_thermal(SqueezedThermalParams(1.0, 2.0, 0.0))
    inv = discord_invariants(s)
    assert inv.branch is Branch.ONE
    assert inv.gamma == 0.0
    assert inv.epsilon == pytest.approx(inv.alpha, rel=1e-12)
    assert inv.delta == pytest.approx(inv.alpha * inv.beta, rel=1e-12)


def test_invariants_pure_squeezed_vacuum_epsilon_is_one():
    s = build_squeezed_thermal(SqueezedThermalParams(0.0, 0.0, 1.0))
    inv = discord_invariants(s)
    assert inv.branch is Branch.ONE
    assert inv.epsilon == pytest.approx(1.0, abs=1e-9)


def test_invariants_mode_swap_exchanges_alpha_beta():
    s = build_squeezed_thermal(SqueezedThermalParams(2.0, 0.5, 0.8))
    inv2 = discord_invariants(s, MeasuredMode.MODE2)
    inv1 = discord_invariants(s, MeasuredMode.MODE1)
    assert inv1.alpha == inv2.beta
    assert inv1.beta == inv2.alpha
    assert inv1.gamma == inv2.gamma
    assert inv1.delta == inv2.delta


def test_invariants_branch_condition_recorded():
    rng = np.random.default_rng(47)
    for _ in range(100):
        r = rng.normal(size=(4, 4)) * 0.6
        s = CovarianceMatrix(0.5 * np.eye(4) + r @ r.T)
        inv = discord_invariants(s)
        condition = (inv.delta - inv.alpha * inv.beta) ** 2 <= (
            inv.beta + 1.0
        ) * inv.gamma**2 * (inv.alpha + inv.delta)
        assert (inv.branch is Branch.ONE) == condition


def test_invariants_pure_measured_mode_vacuum_product():
    # mode 2 at vacuum: beta = 1 and gamma = 0, epsilon falls back to alpha
    s = build_squeezed_thermal(SqueezedThermalParams(1.0, 0.0, 0.0))
    inv = discord_invariants(s)
    assert inv.beta == 1.0
    assert inv.epsilon == inv.alpha
    assert gaussian_discord(s) == 0.0


def test_invariants_pure_measured_mode_with_correlations_rejected():
    sigma = np.array(
        [
            [1.0, 0.0, 0.1, 0.0],
            [0.0, 1.0, 0.0, -0.1],
            [0.1, 0.0, 0.5, 0.0],
            [0.0, -0.1, 0.0, 0.5],
        ]
    )
    with pytest.raises(NonPhysical):
        discord_invariants(CovarianceMatrix(sigma))


def test_invariants_branch_two_with_zero_beta_rejected():
    # det B = 0 on the second branch: epsilon's denominator 2 beta vanishes
    sigma = np.array(
        [
            [1.0, 0.0, 0.5, 0.0],
            [0.0, -1.0, 0.0, -0.5],
            [0.5, 0.0, 0.0, 0.0],
            [0.0, -0.5, 0.0, 0.0],
        ]
    )
    with pytest.raises(NonPhysical, match="beta=0.0 is not positive"):
        discord_invariants(CovarianceMatrix(sigma))


# ---------------------------------------------------------------- precision


def test_measures_match_high_precision_reference():
    # 60-digit mpmath on the exact float entries; t up to 30 reaches the
    # second discord branch at omega2 = 1.7, T = 0
    pytest.importorskip("mpmath")
    s0 = build_squeezed_thermal(SqueezedThermalParams(1.0, 1.0, 2.0))
    branches = set()
    for omega2 in (1.0, 1.7):
        for temperature in (0.0, 1.0, 4.0):
            env = EnvironmentParams(lam=0.1, omega2=omega2, temperature=temperature)
            state_at = evolution(s0, env)
            for t in np.linspace(0.0, 30.0, 20):
                state = state_at(t)
                for mode in MeasuredMode:
                    e_n, discord, nu_minus = mp_measures(state, mode)
                    assert abs(log_negativity(state) - e_n) <= 1e-14
                    assert abs(gaussian_discord(state, mode) - discord) <= 1e-13
                    assert abs(symplectic_spectrum(state).nu_minus - nu_minus) <= 1e-14
                    branches.add(discord_invariants(state, mode).branch)
    assert branches == {Branch.ONE, Branch.TWO}


@pytest.mark.parametrize("measure", [ppt_g, symplectic_spectrum, gaussian_discord])
def test_invariant_outside_double_range_is_domain_error(measure):
    # det sigma = 1e400 has no double; the conversion names the failure
    with pytest.raises(DomainError):
        measure(CovarianceMatrix(1e100 * np.eye(4)))


# ---------------------------------------------------------------- sweep cell kernel


def _public_measures(inv, mode):
    """A sweep cell through the public measures, in the order the sweep reports them."""
    return log_negativity(inv), gaussian_discord(inv, mode), symplectic_spectrum(inv).nu_minus


def _outcome(measures, inv, mode):
    try:
        return [value.hex() for value in measures(inv, mode)]
    except GaussBathError as exc:
        return type(exc), str(exc)


def test_cell_kernel_equals_public_measures():
    # bit for bit on seeded draws with separable and entangled states, unequal
    # frequencies and m != 1, lam = 0 and T = 0 among them, and cells where
    # x = e^{-2 lam t} is 1 (t = 0 or lam = 0: the initial state's invariants)
    rng = random.Random(23)
    seen, ones = set(), 0
    for draw in range(300):
        state = SqueezedThermalParams(rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 3))
        p = EnvironmentParams(
            lam=0.0 if draw % 10 == 0 else rng.uniform(0.0, 0.3),
            m=rng.uniform(0.5, 2.0),
            omega1=rng.uniform(0.5, 2.0),
            omega2=rng.uniform(0.5, 2.0),
            temperature=0.0 if draw % 7 == 0 else rng.uniform(0.0, 4.0),
        )
        t = 0.0 if draw % 5 == 0 else rng.uniform(0.0, 30.0)
        inv = _evolved_invariants(state, p)(t)
        ones += math.exp(-2.0 * p.lam * t) == 1.0
        for mode in MeasuredMode:
            want = _outcome(_public_measures, inv, mode)
            assert _outcome(_measures, inv, mode) == want, (draw, mode)
            seen.add((discord_invariants(inv, mode).branch, mode))
    assert seen == {(branch, mode) for branch in Branch for mode in MeasuredMode}
    assert ones >= 60


@pytest.mark.parametrize(
    "inv, error, message",
    [
        (_ExactInvariants(2, 4, 4, 2, 4, False), NonPhysical, "not positive definite"),
        (_ExactInvariants(2, 4, 4, 0, 0, True), NonPhysical, "partial-transpose invariant g="),
        (_ExactInvariants(4, 1, 1, 0, 1, True), NonPhysical, "2 nu_minus = 0.5 is below 1"),
        (_ExactInvariants(2, 3, 1, -1, 1, True), NonPhysical, "pure measured mode"),
        (_ExactInvariants(2, 4, 4, 0, 10**400, True), DomainError, "outside the double range"),
    ],
    ids=["not-positive-definite", "g-zero", "below-vacuum", "pure-mode-gamma", "overflow"],
)
def test_cell_kernel_fails_as_public_measures(inv, error, message):
    # the same error type and message, from the same first failing check
    with pytest.raises(error, match=message):
        _measures(inv, MeasuredMode.MODE2)
    assert _outcome(_measures, inv, MeasuredMode.MODE2) == _outcome(
        _public_measures, inv, MeasuredMode.MODE2
    )


# ---------------------------------------------------------------- float sweep cell kernel


@pytest.mark.parametrize(
    "state, gibbs, x, error, message",
    [
        (SqueezedThermalParams(0.0, 0.0, 0.0), [(-1.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0)], 0.0,
         NonPhysical, r"^non-positive partial-transpose invariant g=-1\.000e\+00$"),
        (SqueezedThermalParams(0.0, 0.0, 0.0), [(0.1, 0.1, 0.0, 0.0)] * 2, 0.0,
         NonPhysical, r"^2 nu_minus = 0\.2 is below 1 beyond tolerance$"),
        (SqueezedThermalParams(0.0, 0.0, 355.0), EnvironmentParams()._gibbs_modes(), 1.0,
         DomainError, "outside the double range"),
    ],
    ids=["g-negative", "below-vacuum", "overflow"],
)
def test_float_cell_kernel_checks(state, gibbs, x, error, message):
    # the checks of the public measures, with their messages, on Gibbs terms
    # no bath produces, and a value outside the double range as a DomainError
    with pytest.raises(error, match=message):
        _cell_kernel(state, gibbs, MeasuredMode.MODE2)(x, 1.0 - x)
