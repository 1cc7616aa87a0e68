"""Independent oracles that the tests check the production code against.

None of this is used by the package itself:

* ``drift_matrix`` and ``thermal_diffusion`` spell out the equation of
  motion d sigma/dt = Y sigma + sigma Y^T + 2 D term by term;
* ``evolve_rk4`` integrates that equation with fixed-step Runge-Kutta, as
  an oracle for the closed-form ``evolution``;
* ``expm_generic`` is a scaling-and-squaring matrix exponential, as an
  oracle for the analytic ``propagator``;
* ``det2``/``det3``/``det4`` are plain float cofactor determinants, as an
  oracle for the exact integer invariants;
* ``mp_measures`` recomputes E_N, D and nu_minus from the exact float
  entries with rational determinants and 60-digit ``mpmath`` arithmetic,
  as an oracle for the whole static-measure path;
* ``is_physical`` reads the package's bona fide check, the one
  ``gaussian_discord`` raises on, as a flag.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

import numpy as np

from gaussbath.dynamics import EnvironmentParams
from gaussbath.errors import InvalidParams, NonPhysical
from gaussbath.states import CovarianceMatrix, Mat4, MeasuredMode, _bona_fide_spectrum

# Scaling-and-squaring parameters: halve until the 1-norm is at or below
# _SQUARING_THRESHOLD, then evaluate a Taylor polynomial of this order.
_SQUARING_THRESHOLD = 0.5
_TAYLOR_ORDER = 16


def det2(m: np.ndarray) -> float:
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


def _det_exact(m: list[list[Fraction]]) -> Fraction:
    """Leibniz determinant over the rationals: no rounding at all."""
    total = Fraction(0)
    for perm in permutations(range(len(m))):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        term = Fraction(-1 if inversions % 2 else 1)
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


def mp_measures(
    state: CovarianceMatrix, measured_mode: MeasuredMode = MeasuredMode.MODE2
) -> tuple[float, float, float]:
    """(E_N in bits, Gaussian discord D in nats, nu_minus) at 60 digits.

    The block determinants of the exact float entries are rational numbers;
    everything after them (the symplectic pairs of sigma and of its partial
    transpose, the Adesso-Datta conditional invariant and the entropies)
    runs in ``mpmath`` at 60 significant digits.
    """
    import mpmath

    q = [[Fraction(x) for x in row] for row in state.sigma.tolist()]
    det_a, det_b = _det_exact([r[:2] for r in q[:2]]), _det_exact([r[2:] for r in q[2:]])
    det_c, det_s = _det_exact([r[2:] for r in q[:2]]), _det_exact(q)
    with mpmath.workdps(60):

        def mp(x: Fraction) -> mpmath.mpf:
            return mpmath.mpf(x.numerator) / x.denominator

        def squared_pair(dc: Fraction) -> tuple[mpmath.mpf, mpmath.mpf]:
            big_delta = det_a + det_b + 2 * dc
            root = mpmath.sqrt(mp(big_delta * big_delta - 4 * det_s))
            return (mp(big_delta) - root) / 2, (mp(big_delta) + root) / 2

        def f(x: mpmath.mpf) -> mpmath.mpf:
            if x <= 1:
                return mpmath.mpf(0)
            return (x + 1) / 2 * mpmath.log((x + 1) / 2) - (x - 1) / 2 * mpmath.log((x - 1) / 2)

        nu2_minus, nu2_plus = squared_pair(det_c)
        g, _ = squared_pair(-det_c)
        e_n = max(mpmath.mpf(0), -mpmath.log(4 * g, 2) / 2)

        if measured_mode is MeasuredMode.MODE1:
            det_a, det_b = det_b, det_a
        alpha, beta, gamma, delta = mp(4 * det_a), mp(4 * det_b), mp(4 * det_c), mp(16 * det_s)
        if (delta - alpha * beta) ** 2 <= (beta + 1) * gamma**2 * (alpha + delta):
            cross = (beta - 1) * (delta - alpha)
            root = mpmath.sqrt(gamma**2 + cross)
            epsilon = (2 * gamma**2 + cross + 2 * abs(gamma) * root) / (beta - 1) ** 2
        else:
            root = mpmath.sqrt(
                gamma**4 + (delta - alpha * beta) ** 2 - 2 * gamma**2 * (delta + alpha * beta)
            )
            epsilon = (alpha * beta - gamma**2 + delta - root) / (2 * beta)
        discord = (
            f(mpmath.sqrt(beta))
            - f(2 * mpmath.sqrt(nu2_minus))
            - f(2 * mpmath.sqrt(nu2_plus))
            + f(mpmath.sqrt(epsilon))
        )
        return float(e_n), float(discord), float(mpmath.sqrt(nu2_minus))


def is_physical(state: CovarianceMatrix) -> bool:
    """True iff sigma is positive definite and 2 nu_minus >= 1 - 1e-9.

    Every CovarianceMatrix is exactly symmetric by construction.  This is
    the check gaussian_discord raises on, returned as a flag.
    """
    try:
        _bona_fide_spectrum(state)
    except NonPhysical:
        return False
    return True
