"""Independent oracles that the tests check the production code against.

None of this is used by the package itself:

* ``drift_matrix`` and ``thermal_diffusion`` spell out the equation of
  motion d sigma/dt = Y sigma + sigma Y^T + 2 D term by term;
* ``evolve_rk4`` integrates that equation with fixed-step Runge-Kutta, as
  an oracle for the closed-form ``evolve_closed``;
* ``expm_generic`` is a scaling-and-squaring matrix exponential, as an
  oracle for the analytic ``propagator``;
* ``det2``/``det3``/``det4`` are plain float cofactor determinants, as an
  oracle for the exact integer invariants.
"""

from __future__ import annotations

import math

import numpy as np

from gaussbath.dynamics import EnvironmentParams
from gaussbath.errors import InvalidParams
from gaussbath.states import CovarianceMatrix, Mat2, Mat4

# Scaling-and-squaring parameters: halve until the 1-norm is at or below
# _SQUARING_THRESHOLD, then evaluate a Taylor polynomial of this order.
_SQUARING_THRESHOLD = 0.5
_TAYLOR_ORDER = 16


def det2(m: Mat2) -> float:
    """Determinant of a 2x2 matrix, ad - bc."""
    return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def det3(m: np.ndarray) -> float:
    """Determinant of a 3x3 matrix by cofactor expansion along the first row."""
    return float(
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def det4(m: Mat4) -> float:
    """Determinant of a 4x4 matrix by cofactor expansion along the first row."""
    r = m[1:]
    return float(
        m[0, 0] * det3(r[:, [1, 2, 3]])
        - m[0, 1] * det3(r[:, [0, 2, 3]])
        + m[0, 2] * det3(r[:, [0, 1, 3]])
        - m[0, 3] * det3(r[:, [0, 1, 2]])
    )


def expm_generic(m: Mat4) -> Mat4:
    """Matrix exponential by scaling and squaring with a truncated Taylor series.

    The argument is halved until its 1-norm is at or below 0.5, an
    order-16 Taylor polynomial is evaluated by Horner's scheme, and the
    result is squared back up.  Relative accuracy is well below 1e-10 for
    norms up to ~50, which covers every drift matrix and time used here.
    """
    a = np.asarray(m, dtype=float)
    n = a.shape[0]
    norm = float(np.max(np.abs(a).sum(axis=0)))

    squarings = 0
    while norm > _SQUARING_THRESHOLD:
        norm /= 2.0
        squarings += 1

    x = a / (2.0**squarings)
    eye = np.eye(n)
    result = eye.copy()
    for k in range(_TAYLOR_ORDER, 0, -1):
        result = eye + (x @ result) / k
    for _ in range(squarings):
        result = result @ result
    return result


def drift_matrix(p: EnvironmentParams) -> Mat4:
    """Block-diagonal drift matrix; each block has eigenvalues -lam +- i omega."""
    y = np.zeros((4, 4))
    for k, omega in ((0, p.omega1), (2, p.omega2)):
        y[k, k] = -p.lam
        y[k, k + 1] = 1.0 / p.m
        y[k + 1, k] = -p.m * omega**2
        y[k + 1, k + 1] = -p.lam
    return y


def thermal_diffusion(p: EnvironmentParams) -> Mat4:
    """Diagonal diffusion matrix of a bath in thermal equilibrium.

    D_xx = lam coth(w/2T) / (2 m w) and D_pp = lam m w coth(w/2T) / 2 per
    mode; every cross coefficient vanishes.  At T = 0 the coth weight is 1.
    """
    d = np.zeros((4, 4))
    for k, omega in ((0, p.omega1), (2, p.omega2)):
        coth = 1.0 if p.temperature == 0 else 1.0 / math.tanh(omega / (2.0 * p.temperature))
        d[k, k] = p.lam * coth / (2.0 * p.m * omega)
        d[k + 1, k + 1] = p.lam * p.m * omega * coth / 2.0
    return d


def evolve_rk4(
    s0: CovarianceMatrix, p: EnvironmentParams, t: float, dt: float
) -> CovarianceMatrix:
    """Integrate d sigma/dt = Y sigma + sigma Y^T + 2 D with fixed-step RK4.

    The state is symmetrized after every step.  A trailing partial step
    covers t when it is not an exact multiple of dt.
    """
    if dt <= 0:
        raise InvalidParams(f"step size must be positive, got {dt}")
    if t < 0:
        raise InvalidParams(f"time must be non-negative, got {t}")
    y = drift_matrix(p)
    two_d = 2.0 * thermal_diffusion(p)

    def rhs(s: Mat4) -> Mat4:
        return y @ s + s @ y.T + two_d

    def step(s: Mat4, h: float) -> Mat4:
        k1 = rhs(s)
        k2 = rhs(s + 0.5 * h * k1)
        k3 = rhs(s + 0.5 * h * k2)
        k4 = rhs(s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return 0.5 * (s + s.T)

    s = np.array(s0.sigma, dtype=float)
    n_full, remainder = divmod(t, dt)
    for _ in range(int(n_full)):
        s = step(s, dt)
    if remainder > 1e-15 * max(t, 1.0):
        s = step(s, remainder)
    return CovarianceMatrix(s)
