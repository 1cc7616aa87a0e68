"""Two-mode Gaussian states and their static correlation measures.

A two-mode Gaussian state is fully described by the 4x4 real symmetric
covariance matrix of its quadratures (x, p_x, y, p_y).  Units are natural
(hbar = k = 1), so the two-mode vacuum is sigma = diag(1/2, 1/2, 1/2, 1/2)
and physicality reads 2*nu_minus >= 1 for the smallest symplectic
eigenvalue nu_minus.

The measures implemented here:

* logarithmic negativity E_N = max{0, -1/2 log2[4 g(sigma)]}, where
  g(sigma) is the squared smallest symplectic eigenvalue of the partial
  transpose, whose block determinants are those of sigma with
  det C -> -det C;
* Gaussian quantum discord from the symplectic invariants
  alpha = 4 det A, beta = 4 det B, gamma = 4 det C, delta = 16 det sigma,
  evaluated in nats (natural logarithm) so that the usual D = 1
  entanglement threshold applies.

The entropy function f takes arguments >= 1, so it is evaluated at the
doubled symplectic eigenvalues 2*nu (equivalently, the symplectic spectrum
of 2*sigma); this is the same rescaling that makes sqrt(alpha) >= 1 and
gives D = 0 exactly on product states.

Determinant invariants are evaluated in exact integer arithmetic over the
(dyadic) float entries, and each reaches floating point through one
correctly rounded division.  The physically interesting states here sit on
or near the degenerate manifold Delta^2 = 4 det sigma (symmetric states,
pure states, equal-frequency evolution), where plain double arithmetic
loses half its digits through sqrt of a cancellation-noise discriminant;
exact invariants keep the eigenvalues accurate to machine precision there.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError, InvalidParams, NonPhysical

# 4x4 real matrices are represented as plain float64 arrays.
Mat4 = NDArray[np.float64]

_log = logging.getLogger(__name__)

# Tolerance for physicality and radicand clamping at pure-state boundaries.
PHYSICALITY_TOL = 1e-9

# |beta - 1| below this means the measured mode is pure; the closed-form
# branch denominator (beta - 1)^2 vanishes and the product-state limit applies.
_PURE_MODE_TOL = 1e-12


class MeasuredMode(Enum):
    """Which mode the Gaussian measurement in the discord acts on."""

    MODE1 = "mode1"
    MODE2 = "mode2"


class Branch(Enum):
    """Which closed-form branch produced the conditional invariant epsilon."""

    ONE = 1
    TWO = 2


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """4x4 covariance matrix of quadrature second moments, stored symmetric.

    Construction symmetrizes the input (0.5 * (s + s^T)) and rejects
    non-finite entries, so every instance is exactly symmetric; the stored
    array is read-only.  The exact integer invariants that every measure
    reads are computed on first use and kept on the instance.
    """

    sigma: Mat4

    def __post_init__(self) -> None:
        arr = np.array(self.sigma, dtype=float)
        if arr.shape != (4, 4):
            raise InvalidParams(f"covariance matrix must be 4x4, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidParams("covariance matrix entries must be finite")
        arr = 0.5 * (arr + arr.T)
        arr.setflags(write=False)
        object.__setattr__(self, "sigma", arr)

    @cached_property
    def _invariants(self) -> _ExactInvariants:
        m, den = _scaled_ints(self.sigma)
        return _ExactInvariants(
            ints=m,
            den=den,
            det_a=_det2_int(m, 0, 1, 0, 1),
            det_b=_det2_int(m, 2, 3, 2, 3),
            det_c=_det2_int(m, 0, 1, 2, 3),
            det_sigma=_det4_int(m),
        )


@dataclass(frozen=True)
class SqueezedThermalParams:
    """Thermal occupations (n1, n2) and squeezing r of the initial state."""

    n1: float
    n2: float
    r: float

    def __post_init__(self) -> None:
        for name in ("n1", "n2", "r"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParams(f"{name} must be finite, got {value}")
        if self.n1 < 0 or self.n2 < 0:
            raise InvalidParams(
                f"thermal photon numbers must be non-negative, got n1={self.n1}, n2={self.n2}"
            )


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Symplectic eigenvalue pair (nu_minus <= nu_plus); vacuum value is 1/2."""

    nu_minus: float
    nu_plus: float


@dataclass(frozen=True)
class DiscordInvariants:
    """Symplectic invariants entering the Gaussian discord.

    alpha = 4 det A, beta = 4 det B, gamma = 4 det C, delta = 16 det sigma,
    with A the unmeasured and B the measured mode block.  epsilon is the
    conditional invariant after the optimal Gaussian measurement, and
    branch records which closed-form case produced it.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    epsilon: float
    branch: Branch


# ----------------------------------------------------------------------------
# Exact determinant invariants.  Float entries are dyadic rationals, so the
# matrix can be written exactly as an integer matrix over a power-of-two
# denominator; determinants and discriminants computed over the integers
# carry no rounding at all, and each conversion back to float rounds once.


def _scaled_ints(sigma: Mat4) -> tuple[list[list[int]], int]:
    """Exact representation sigma = ints / den, with den a power of two >= 2."""
    ratios = [x.as_integer_ratio() for x in sigma.flat]
    # every denominator is a power of two, so each divides the largest
    den = max(2, *(d for _, d in ratios))
    flat = [n * (den // d) for n, d in ratios]
    return [flat[0:4], flat[4:8], flat[8:12], flat[12:16]], den


def _det2_int(m: list[list[int]], r0: int, r1: int, c0: int, c1: int) -> int:
    return m[r0][c0] * m[r1][c1] - m[r0][c1] * m[r1][c0]


def _det3_int(
    m: list[list[int]], rows: tuple[int, int, int], cols: tuple[int, int, int]
) -> int:
    r0, r1, r2 = rows
    c0, c1, c2 = cols
    return (
        m[r0][c0] * _det2_int(m, r1, r2, c1, c2)
        - m[r0][c1] * _det2_int(m, r1, r2, c0, c2)
        + m[r0][c2] * _det2_int(m, r1, r2, c0, c1)
    )


def _det4_int(m: list[list[int]]) -> int:
    return (
        m[0][0] * _det3_int(m, (1, 2, 3), (1, 2, 3))
        - m[0][1] * _det3_int(m, (1, 2, 3), (0, 2, 3))
        + m[0][2] * _det3_int(m, (1, 2, 3), (0, 1, 3))
        - m[0][3] * _det3_int(m, (1, 2, 3), (0, 1, 2))
    )


def _to_float(num: int, den: int) -> float:
    """num / den, correctly rounded (Python's int / int); DomainError on overflow."""
    try:
        return num / den
    except OverflowError as exc:
        raise DomainError("an exact invariant lies outside the double range") from exc


@dataclass(frozen=True)
class _ExactInvariants:
    """Integer block determinants of sigma = ints / den.

    An invariant of degree d in the entries is its integer over den**d
    (det A, det B and det C over den**2, det sigma over den**4), rounded
    once, correctly, by _to_float.  The partial transpose of sigma has the
    same invariants with det C -> -det C.
    """

    ints: list[list[int]]
    den: int
    det_a: int
    det_b: int
    det_c: int
    det_sigma: int


def build_squeezed_thermal(params: SqueezedThermalParams) -> CovarianceMatrix:
    """Covariance matrix of a two-mode squeezed thermal state.

    The diagonal entries are

        a = n1 cosh^2 r + n2 sinh^2 r + cosh(2r)/2
        b = n1 sinh^2 r + n2 cosh^2 r + cosh(2r)/2

    and the cross block is C = diag(c, -c) with c = (n1 + n2 + 1) sinh(2r)/2.
    At n1 = n2 = r = 0 this is the two-mode vacuum diag(1/2, ..., 1/2).
    """
    n1, n2, r = params.n1, params.n2, params.r
    ch2, sh2 = math.cosh(r) ** 2, math.sinh(r) ** 2
    a = n1 * ch2 + n2 * sh2 + 0.5 * math.cosh(2 * r)
    b = n1 * sh2 + n2 * ch2 + 0.5 * math.cosh(2 * r)
    c = 0.5 * (n1 + n2 + 1) * math.sinh(2 * r)
    sigma = np.array(
        [
            [a, 0.0, c, 0.0],
            [0.0, a, 0.0, -c],
            [c, 0.0, b, 0.0],
            [0.0, -c, 0.0, b],
        ]
    )
    return CovarianceMatrix(sigma)


def separability_threshold_r(n1: float, n2: float) -> float:
    """Squeezing value above which the squeezed thermal state is entangled.

    r_s = arccosh(sqrt((n1 + 1)(n2 + 1) / (n1 + n2 + 1))).  The ratio is 1
    exactly when n1 * n2 = 0, so any squeezing entangles a pair with one
    mode at vacuum occupation.
    """
    SqueezedThermalParams(n1, n2, 0.0)  # the occupation rule, raising InvalidParams
    ratio = (n1 + 1.0) * (n2 + 1.0) / (n1 + n2 + 1.0)
    return math.acosh(math.sqrt(max(ratio, 1.0)))


def _squared_spectrum(
    det_a: int, det_b: int, det_c: int, det_sigma: int, den: int
) -> tuple[float, float]:
    """Squared symplectic eigenvalues (nu_minus^2, nu_plus^2) from exact invariants.

    The invariants are integers over den**2 (det A, det B, det C) and den**4
    (det sigma).  With Delta = det A + det B + 2 det C, the squared
    eigenvalues are nu_mp^2 = (Delta -+ sqrt(Delta^2 - 4 det sigma)) / 2.
    The discriminant is computed exactly over the integers (it vanishes
    identically for symmetric equal-frequency states, where naive float
    evaluation turns rounding noise into sqrt-amplified eigenvalue errors),
    and the smaller value uses the subtraction-free form
    2 det sigma / (Delta + root).  Where the discriminant vanishes or is
    clamped, rounding can leave the pair misordered by an ulp.  Radicands
    negative within tolerance clamp to zero; strongly negative ones mark an
    invalid covariance matrix.
    """
    delta_num = det_a + det_b + 2 * det_c
    den4 = den**4
    big_delta = _to_float(delta_num, den * den)
    dets = _to_float(det_sigma, den4)
    disc = _to_float(delta_num * delta_num - 4 * det_sigma, den4)
    if disc < -PHYSICALITY_TOL * max(1.0, big_delta * big_delta):
        raise NonPhysical(
            f"symplectic invariant discriminant {disc:.3e} is negative beyond tolerance"
        )
    if big_delta <= 0.0 or dets < -PHYSICALITY_TOL * max(1.0, big_delta):
        raise NonPhysical(
            f"symplectic invariants Delta={big_delta:.3e}, det={dets:.3e} are not physical"
        )
    root = math.sqrt(max(disc, 0.0))
    return max(2.0 * dets, 0.0) / (big_delta + root), 0.5 * (big_delta + root)


def symplectic_spectrum(state: CovarianceMatrix) -> SymplecticSpectrum:
    """Symplectic eigenvalues of sigma: the square roots of _squared_spectrum.

    Each invariant reaches floating point through one correctly rounded
    division of exact integers; DomainError if one leaves the double range.
    ppt_g applies the same rule to the partial transpose, det C -> -det C.
    """
    inv = state._invariants
    pair = _squared_spectrum(inv.det_a, inv.det_b, inv.det_c, inv.det_sigma, inv.den)
    nu_minus, nu_plus = sorted(math.sqrt(nu2) for nu2 in pair)
    return SymplecticSpectrum(nu_minus=nu_minus, nu_plus=nu_plus)


def ppt_g(state: CovarianceMatrix) -> float:
    """Squared smallest symplectic eigenvalue of the partial transpose.

    Transposing one mode maps det C -> -det C and leaves det A, det B and
    det sigma unchanged (Simon, PRL 84, 2726, 2000), so g is the smaller
    value of _squared_spectrum with -det C, each invariant rounded once,
    correctly.  The state is entangled exactly when 4 g < 1.
    """
    inv = state._invariants
    g, _ = _squared_spectrum(inv.det_a, inv.det_b, -inv.det_c, inv.det_sigma, inv.den)
    if g <= 0.0:
        raise NonPhysical(f"non-positive partial-transpose invariant g={g:.3e}")
    return g


def log_negativity(state: CovarianceMatrix) -> float:
    """Logarithmic negativity E_N = max{0, -1/2 log2[4 g]} in bits.

    Strictly positive exactly for entangled states (4 g < 1).
    """
    g = ppt_g(state)
    return max(0.0, -0.5 * math.log2(4.0 * g))


def _bona_fide_spectrum(state: CovarianceMatrix) -> SymplecticSpectrum:
    """Symplectic spectrum of a bona fide state; raises NonPhysical otherwise.

    This is the one physicality check; gaussian_discord raises on it.

    Bona fide means positive definite, decided by the exact signs of the
    leading principal minors, and 2 nu_minus >= 1 - 1e-9.  The minors are
    needed: -sigma of a bona fide sigma has the same spectrum.
    """
    inv = state._invariants
    m = inv.ints
    minors = (m[0][0], inv.det_a, _det3_int(m, (0, 1, 2), (0, 1, 2)), inv.det_sigma)
    if any(minor <= 0 for minor in minors):
        raise NonPhysical("covariance matrix is not positive definite")
    spectrum = symplectic_spectrum(state)
    if 2.0 * spectrum.nu_minus < 1.0 - PHYSICALITY_TOL:
        raise NonPhysical(f"2 nu_minus = {2.0 * spectrum.nu_minus:.6g} is below 1 beyond tolerance")
    return spectrum


def f_entropy(x: float) -> float:
    """Entropy function f(x) = (x+1)/2 log((x+1)/2) - (x-1)/2 log((x-1)/2).

    Natural logarithm; defined for x >= 1 with f(1) = 0 as the pure-state
    limit.  Arguments in [1 - 1e-9, 1) are clamped to 1.
    """
    if x < 1.0 - PHYSICALITY_TOL:
        raise DomainError(f"entropy function argument {x!r} is below 1 beyond tolerance")
    if x <= 1.0:
        return 0.0
    xp = 0.5 * (x + 1.0)
    xm = 0.5 * (x - 1.0)
    return xp * math.log(xp) - xm * math.log(xm)


def _clamped_sqrt(value: float, what: str, scale: float = 1.0) -> float:
    """sqrt with the [-tol, 0) range clamped to 0; tol grows with the term scale."""
    if value < -PHYSICALITY_TOL * max(1.0, scale):
        raise NonPhysical(f"{what} {value:.3e} is negative beyond tolerance")
    return math.sqrt(max(value, 0.0))


def discord_invariants(
    state: CovarianceMatrix, measured_mode: MeasuredMode = MeasuredMode.MODE2
) -> DiscordInvariants:
    """Compute (alpha, beta, gamma, delta, epsilon) and the branch taken.

    With the measurement on mode 2 (the default), alpha and beta are the
    scaled local determinants 4 det A and 4 det B.  Measuring mode 1
    instead swaps the roles of the two mode blocks; gamma and delta are
    symmetric under the swap.

    The conditional invariant uses the first closed-form branch when
    (delta - alpha beta)^2 <= (beta + 1) gamma^2 (alpha + delta) and the
    second otherwise; the condition and the branch radicands are evaluated
    in exact rational arithmetic, so ties (pure states sit exactly on the
    boundary) deterministically take the first branch.
    """
    inv = state._invariants
    a_num, b_num = inv.det_a, inv.det_b
    if measured_mode is MeasuredMode.MODE1:
        a_num, b_num = b_num, a_num
    c_num, s_num = inv.det_c, inv.det_sigma
    # 4 det A = a_num / one with one = den**2 / 4, and 16 det sigma = s_num / one**2
    one = inv.den * inv.den // 4
    alpha, beta, gamma = (_to_float(x, one) for x in (a_num, b_num, c_num))
    delta = _to_float(s_num, one * one)
    c2_num = c_num * c_num
    lead_num = (s_num - a_num * b_num) ** 2

    # (delta - alpha beta)^2 <= (beta + 1) gamma^2 (alpha + delta), cleared
    # of the common denominators
    if lead_num * one <= c2_num * (b_num + one) * (a_num * one + s_num):
        if abs(beta - 1.0) < _PURE_MODE_TOL:
            # Measured mode is pure; it cannot carry cross-correlations.
            if abs(gamma) < _PURE_MODE_TOL:
                epsilon = alpha
            else:
                raise NonPhysical(
                    f"pure measured mode (beta={beta!r}) with nonzero gamma={gamma!r}"
                )
        else:
            # gamma^2 + (beta - 1)(delta - alpha), numerator over one**3
            cross_num = (b_num - one) * (s_num - a_num * one)
            root = _clamped_sqrt(
                _to_float(c2_num * one + cross_num, one**3),
                "conditional-branch radicand",
                scale=gamma * gamma + abs(_to_float(cross_num, one**3)),
            )
            numerator = _to_float(2 * c2_num * one + cross_num, one**3) + 2.0 * abs(gamma) * root
            epsilon = numerator / _to_float((b_num - one) ** 2, one * one)
        branch = Branch.ONE
    else:
        # gamma^4 + (delta - alpha beta)^2 - 2 gamma^2 (delta + alpha beta),
        # numerator over one**4
        mix_num = 2 * c2_num * (s_num + a_num * b_num)
        root = _clamped_sqrt(
            _to_float(c2_num * c2_num + lead_num - mix_num, one**4),
            "conditional-branch radicand",
            scale=_to_float(c2_num * c2_num + lead_num + abs(mix_num), one**4),
        )
        epsilon = (_to_float(a_num * b_num - c2_num + s_num, one * one) - root) / (2.0 * beta)
        branch = Branch.TWO

    msg = "conditional invariant branch %s (alpha=%g beta=%g gamma=%g delta=%g)"
    _log.debug(msg, branch.name, alpha, beta, gamma, delta)
    return DiscordInvariants(
        alpha=alpha, beta=beta, gamma=gamma, delta=delta, epsilon=epsilon, branch=branch
    )


def gaussian_discord(
    state: CovarianceMatrix, measured_mode: MeasuredMode = MeasuredMode.MODE2
) -> float:
    """Gaussian quantum discord under Gaussian measurements on one mode, in nats.

    D = f(sqrt(beta)) - f(2 nu_minus) - f(2 nu_plus) + f(sqrt(epsilon)),
    where the symplectic eigenvalues are doubled so that f's arguments are
    at least 1 for physical states.  The result is clamped to zero from
    tiny negative values; a value below -1e-9 or an entropy-domain
    violation aborts, since it indicates a convention bug rather than
    floating-point noise.

    Raises
    ------
    NonPhysical
        If the state is not bona fide (positive definite with
        2 nu_minus >= 1 - 1e-9) or the invariants are inconsistent.
    DomainError
        If an entropy argument falls below its domain beyond tolerance.
    """
    spectrum = _bona_fide_spectrum(state)
    inv = discord_invariants(state, measured_mode)
    d = (
        f_entropy(_clamped_sqrt(inv.beta, "local invariant beta"))
        - f_entropy(2.0 * spectrum.nu_minus)
        - f_entropy(2.0 * spectrum.nu_plus)
        + f_entropy(_clamped_sqrt(inv.epsilon, "conditional invariant epsilon"))
    )
    if d < -PHYSICALITY_TOL:
        raise NonPhysical(f"discord {d:.3e} is negative beyond tolerance")
    return max(0.0, d)
