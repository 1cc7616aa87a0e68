"""Checks of the float determinant and matrix-exponential oracles in oracles.py."""

import math

import numpy as np
import pytest
from oracles import det2, det3, det4, expm_generic


def test_det2_identity():
    assert det2(np.eye(2)) == 1.0


def test_det2_diagonal():
    assert det2(np.diag([2.0, 3.0])) == 6.0


def test_det2_hand_expansion():
    assert det2(np.array([[1.0, 2.0], [3.0, 4.0]])) == -2.0


def test_det3_matches_numpy():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.normal(size=(3, 3))
        assert det3(m) == pytest.approx(np.linalg.det(m), rel=1e-12, abs=1e-12)


def test_det4_identity():
    assert det4(np.eye(4)) == 1.0


def test_det4_diagonal():
    assert det4(np.diag([1.0, 2.0, 3.0, 4.0])) == 24.0


def test_det4_block_diagonal_factorizes():
    rng = np.random.default_rng(11)
    for _ in range(10):
        b1 = rng.normal(size=(2, 2))
        b2 = rng.normal(size=(2, 2))
        m = np.zeros((4, 4))
        m[:2, :2] = b1
        m[2:, 2:] = b2
        assert det4(m) == pytest.approx(det2(b1) * det2(b2), rel=1e-12)


def test_det4_matches_numpy_on_random_input():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = rng.normal(size=(4, 4))
        assert det4(m) == pytest.approx(np.linalg.det(m), rel=1e-10, abs=1e-12)


def test_expm_zero_is_identity_exactly():
    assert np.array_equal(expm_generic(np.zeros((4, 4))), np.eye(4))


def test_expm_diagonal():
    d = np.array([0.3, -1.2, 2.0, 0.0])
    out = expm_generic(np.diag(d))
    assert np.allclose(out, np.diag(np.exp(d)), rtol=1e-12, atol=1e-14)


def test_expm_rotation_generator():
    # quarter turn: exp(J * pi/2) = [[0, 1], [-1, 0]] for J = [[0,1],[-1,0]]
    gen = np.zeros((4, 4))
    gen[0, 1] = math.pi / 2
    gen[1, 0] = -math.pi / 2
    out = expm_generic(gen)
    expected = np.eye(4)
    expected[:2, :2] = [[0.0, 1.0], [-1.0, 0.0]]
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_expm_semigroup_for_commuting_arguments():
    rng = np.random.default_rng(23)
    m = rng.normal(size=(4, 4))
    for t, s in ((0.4, 1.1), (2.0, 3.0), (0.05, 0.7)):
        lhs = expm_generic(m * t) @ expm_generic(m * s)
        rhs = expm_generic(m * (t + s))
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))


def test_expm_determinant_equals_exp_trace():
    rng = np.random.default_rng(29)
    m = rng.normal(size=(4, 4))
    for t in (0.5, 2.0, 5.0):
        expected = math.exp(np.trace(m) * t)
        assert det4(expm_generic(m * t)) == pytest.approx(expected, rel=1e-8)


def test_expm_accuracy_at_large_norm():
    # pure rotation block scaled to 1-norm ~50: closed form available
    omega = 50.0
    gen = np.zeros((4, 4))
    gen[2, 3] = omega
    gen[3, 2] = -omega
    out = expm_generic(gen)
    expected = np.eye(4)
    expected[2:, 2:] = [[math.cos(omega), math.sin(omega)], [-math.sin(omega), math.cos(omega)]]
    assert np.max(np.abs(out - expected)) <= 1e-10
