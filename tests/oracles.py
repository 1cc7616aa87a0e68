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
* ``exact_invariants`` forms the closed-form sigma(t) in rational
  arithmetic, as an oracle for ``_evolved_invariants``;
* ``_evolved_invariants`` and ``_measures`` are the exact-integer sweep
  cell: the block determinants of the evolved state as exact products of its
  quadrature entries, turned into (E_N, D, nu_minus) by the private rules of
  the public measures, with every check and message in their order;
* ``mp_measures`` recomputes E_N, D and nu_minus from the exact float
  entries with rational determinants and 60-digit ``mpmath`` arithmetic,
  as an oracle for the whole static-measure path;
* ``mp_param_measures`` computes them from the parameters of the evolved
  squeezed thermal state at 50 digits (or ``dps``), with no rounded entry
  at all, as an accuracy reference for the sweep;
* ``is_physical`` reads the package's bona fide check, the one
  ``gaussian_discord`` raises on, as a flag.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from typing import Any, Callable

import numpy as np
from numpy.typing import NDArray

from gaussbath.dynamics import EnvironmentParams, asymptotic_covariance, propagator
from gaussbath.errors import InvalidParams, NonPhysical
from gaussbath.states import (
    CovarianceMatrix,
    MeasuredMode,
    SqueezedThermalParams,
    _ExactInvariants,
    _bona_fide,
    _conditional,
    _den_powers,
    _discord,
    _negativity,
    _ppt_g,
)

Mat4 = NDArray[np.float64]

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


def _block_dets(q: list[list[Fraction]]) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """det A, det B, det C and det sigma of a rational 4x4 matrix."""
    return (
        _det_exact([r[:2] for r in q[:2]]),
        _det_exact([r[2:] for r in q[2:]]),
        _det_exact([r[2:] for r in q[:2]]),
        _det_exact(q),
    )


def exact_invariants(
    s0: CovarianceMatrix, p: EnvironmentParams, t: float
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """det A, det B, det C and det sigma of the closed form sigma(t), with no rounding after M(t).

    sigma(t) = M (s0 - G) M^T + G is formed from the double entries of
    ``propagator``, s0 and ``asymptotic_covariance`` in exact rational
    arithmetic.  In doubles, the products lose digits that the invariants
    need: for a strongly squeezed state at lam = 0 and t ~ 25, det sigma
    can come out ~1e9 times smaller than the product of the diagonal.
    """
    m, s, g = (
        np.array([[Fraction(v) for v in row] for row in a.tolist()], dtype=object)
        for a in (propagator(p, t), s0.sigma, asymptotic_covariance(p).sigma)
    )
    return _block_dets((m @ (s - g) @ m.T + g).tolist())


def _evolved_invariants(
    state: SqueezedThermalParams, p: EnvironmentParams
) -> Callable[[float], _ExactInvariants]:
    """The exact invariants of sigma(t), as a function of the time t, without sigma(t).

    sigma(0) is build_squeezed_thermal(state).  sigma(t) is a local
    unit-determinant transform of G + x (sigma(0) - G), x = e^{-2 lam t}, with
    the same det A, det B, det C and det sigma.  In the order (x1, x2 | p1, p2)
    that matrix is block diagonal, [[A_x, k], [k, B_x]] and
    [[A_p, -k], [-k, B_p]], with A_x = x a + (1 - x) g1x (likewise A_p, B_x,
    B_p from a, b and the Gibbs diagonal) and k = x c:

        det A = A_x A_p,  det B = B_x B_p,  det C = -k^2,
        det sigma = (A_x B_x - k^2)(A_p B_p - k^2).

    The seven entries become integers over one power-of-two den; each t forms
    the products exactly at the double x = xn / xd, over den * xd, so y = 1 - x
    is exact in x and 0 where x rounds to 1.  positive_definite is sigma(0)'s
    verdict on the rounded entries (a > 0 and ab > c^2), since
    G + x (sigma(0) - G) is a convex combination of sigma(0) and the Gibbs
    state.  t must be finite and non-negative.
    """
    ratios = [v.as_integer_ratio() for v in (*state._entries(), *p._gibbs_diagonal())]
    den = max(2, *(d for _, d in ratios))  # powers of two: each divides the largest
    a, b, c, g1x, g1p, g2x, g2p = (n * (den // d) for n, d in ratios)
    positive_definite = a > 0 and a * b > c * c
    rate = -2.0 * p.lam

    def at(t: float) -> _ExactInvariants:
        if not 0 <= t < math.inf:
            raise InvalidParams(f"time must be finite and non-negative, got {t}")
        xn, xd = math.exp(rate * t).as_integer_ratio()
        y = xd - xn
        a_x, a_p = xn * a + y * g1x, xn * a + y * g1p
        b_x, b_p = xn * b + y * g2x, xn * b + y * g2p
        k2 = (xn * c) ** 2
        det_sigma = (a_x * b_x - k2) * (a_p * b_p - k2)
        return _ExactInvariants(den * xd, a_x * a_p, b_x * b_p, -k2, det_sigma, positive_definite)

    return at


def _measures(inv: _ExactInvariants, measured_mode: MeasuredMode) -> tuple[float, float, float]:
    """(E_N, D, nu_minus) of one exact-integer cell: the values and the order of checks
    of log_negativity, gaussian_discord and symplectic_spectrum(...).nu_minus, from
    the same private rules, with den**2 and den**4 formed once and no result objects."""
    den2, den4 = _den_powers(inv)
    e_n = _negativity(_ppt_g(inv, den2, den4))
    nu_minus, nu_plus = _bona_fide(inv, den2, den4)
    _, beta, _, _, epsilon, _ = _conditional(inv, measured_mode, den2)
    return e_n, _discord(beta, epsilon, nu_minus, nu_plus), nu_minus


def _mp_measures(
    det_a: Any, det_b: Any, det_c: Any, det_s: Any, measured_mode: MeasuredMode
) -> tuple[float, float, float]:
    """(E_N, D, nu_minus) from the four block determinants, at mpmath's working precision.

    The determinants are ``mpmath.mpf``.  From them: the symplectic pairs
    of sigma and of its partial transpose, the Adesso-Datta conditional
    invariant and the entropies.
    """
    import mpmath

    def squared_pair(dc: Any) -> tuple[Any, Any]:
        big_delta = det_a + det_b + 2 * dc
        root = mpmath.sqrt(max(big_delta * big_delta - 4 * det_s, 0))
        # the smaller root without the cancellation of (Delta - root) / 2
        return 2 * det_s / (big_delta + root), (big_delta + root) / 2

    def f(x: Any) -> Any:
        if x <= 1:
            return mpmath.mpf(0)
        # (xm + 1) log(xm + 1) - xm log(xm) without the cancellation of its two
        # terms, which costs log10(x) digits
        xm = (x - 1) / 2
        return mpmath.log1p(xm) + xm * mpmath.log1p(1 / xm)

    nu2_minus, nu2_plus = squared_pair(det_c)
    g, _ = squared_pair(-det_c)
    e_n = max(mpmath.mpf(0), -mpmath.log(4 * g, 2) / 2)

    if measured_mode is MeasuredMode.MODE1:
        det_a, det_b = det_b, det_a
    alpha, beta, gamma, delta = 4 * det_a, 4 * det_b, 4 * det_c, 16 * det_s
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


def mp_measures(
    state: CovarianceMatrix, measured_mode: MeasuredMode = MeasuredMode.MODE2
) -> tuple[float, float, float]:
    """(E_N in bits, Gaussian discord D in nats, nu_minus) at 60 digits.

    The block determinants of the exact float entries are rational numbers;
    everything after them runs in ``mpmath`` at 60 significant digits.
    """
    import mpmath

    dets = _block_dets([[Fraction(x) for x in row] for row in state.sigma.tolist()])
    with mpmath.workdps(60):
        return _mp_measures(
            *(mpmath.mpf(d.numerator) / d.denominator for d in dets), measured_mode
        )


def mp_param_measures(
    n1: float,
    n2: float,
    r: float,
    m: float,
    omega1: float,
    omega2: float,
    lam: float,
    temperature: float,
    t: float,
    measured_mode: MeasuredMode = MeasuredMode.MODE2,
    dps: int = 50,
) -> tuple[float, float, float]:
    """(E_N, D, nu_minus) of the evolved squeezed thermal state at dps digits, from the parameters.

    No matrix entry is rounded to a double.  With x = e^{-2 lam t}, the
    evolved invariants are those of x sigma0 + (1 - x) G, where G is the
    Gibbs state diag(s_k / (m w_k), s_k m w_k), s_k = coth(w_k / 2T) / 2.
    Both are block diagonal in the quadrature order (x1, x2 | p1, p2), with
    the cross entries +x c and -x c, so det sigma = P_x P_p.
    """
    import mpmath

    with mpmath.workdps(dps):
        n1, n2, r, m, lam, temperature, t = map(mpmath.mpf, (n1, n2, r, m, lam, temperature, t))
        ch2, sh2 = mpmath.cosh(r) ** 2, mpmath.sinh(r) ** 2
        a = n1 * ch2 + n2 * sh2 + mpmath.cosh(2 * r) / 2
        b = n1 * sh2 + n2 * ch2 + mpmath.cosh(2 * r) / 2
        x, y = mpmath.exp(-2 * lam * t), -mpmath.expm1(-2 * lam * t)
        xc = x * (n1 + n2 + 1) * mpmath.sinh(2 * r) / 2
        blocks = []  # (x-quadrature, momentum) diagonal entries of each mode
        for diag, omega in ((a, omega1), (b, omega2)):
            omega = mpmath.mpf(omega)
            s = mpmath.coth(omega / (2 * temperature)) / 2 if temperature > 0 else mpmath.mpf(1) / 2
            blocks.append((x * diag + y * s / (m * omega), x * diag + y * s * m * omega))
        (a_x, a_p), (b_x, b_p) = blocks
        p_x, p_p = a_x * b_x - xc * xc, a_p * b_p - xc * xc
        return _mp_measures(a_x * a_p, b_x * b_p, -xc * xc, p_x * p_p, measured_mode)


def is_physical(state: CovarianceMatrix) -> bool:
    """True iff sigma is positive definite and 2 nu_minus >= 1 - 1e-9.

    Every CovarianceMatrix is exactly symmetric by construction.  This is
    the check gaussian_discord raises on, returned as a flag.
    """
    try:
        _bona_fide(state._invariants, *_den_powers(state._invariants))
    except NonPhysical:
        return False
    return True
