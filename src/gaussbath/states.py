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

Every measure reads only the four block determinants det A, det B, det C
and det sigma.  The public measures hold them as exact integers over a
power-of-two denominator (``_ExactInvariants``), computed from a
CovarianceMatrix's dyadic float entries; each measure is a private float
rule on those integers, wrapped by its public function, and each invariant
reaches floating point through one correctly rounded division.  The
physically interesting states sit on or near the degenerate manifold
Delta^2 = 4 det sigma (symmetric, pure, equal-frequency states), where plain
doubles lose half their digits through sqrt of a cancellation-noise
discriminant; exact invariants keep the eigenvalues accurate there.  A
sweep cell instead evaluates, in floats, forms of the same quantities in
which nothing cancels, from the parameters (``_cell_kernel``), with the
checks and messages of the public measures.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Union

from .errors import DomainError, InvalidParams, NonPhysical

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import NDArray

    # 4x4 real matrices are plain float64 arrays.  numpy is imported only where
    # one is built (CovarianceMatrix, build_squeezed_thermal and the dynamics'
    # propagator and stationary state), so the sweep loads no numpy.
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

    Construction rejects non-finite entries and symmetrizes the input to
    s/2 + s^T/2, so every instance is exactly symmetric and finite; the
    stored array is read-only.  The exact integer invariants that every
    measure reads are computed on first use and kept on the instance.
    """

    sigma: Mat4

    def __post_init__(self) -> None:
        import numpy as np

        arr = np.array(self.sigma, dtype=float)
        if arr.shape != (4, 4):
            raise InvalidParams(f"covariance matrix must be 4x4, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidParams("covariance matrix entries must be finite")
        arr *= 0.5  # halved first, since s + s^T can overflow
        arr = arr + arr.T
        arr.setflags(write=False)
        object.__setattr__(self, "sigma", arr)

    @cached_property
    def _invariants(self) -> _ExactInvariants:
        m, den = _scaled_ints(self.sigma)
        # the 2x2 minors of the rows (0, 1) and (2, 3): det A = p01, det B = q23,
        # det C = p23, and det sigma by Laplace expansion along the rows (0, 1)
        p01, p02, p03, p12, p13, p23 = _minors(m[0], m[1])
        q01, q02, q03, q12, q13, q23 = _minors(m[2], m[3])
        det_sigma = p01 * q23 - p02 * q13 + p03 * q12 + p12 * q03 - p13 * q02 + p23 * q01
        # Sylvester's criterion; the leading 3x3 minor by expansion along its row 2
        minor3 = m[2][0] * p12 - m[2][1] * p02 + m[2][2] * p01
        positive_definite = m[0][0] > 0 and p01 > 0 and minor3 > 0 and det_sigma > 0
        return _ExactInvariants(den, p01, q23, p23, det_sigma, positive_definite)


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
        try:
            finite = all(map(math.isfinite, self._entries()))
        except OverflowError:  # cosh or its square past the double range
            finite = False
        if not finite:
            raise InvalidParams(
                f"covariance matrix entries overflow at n1={self.n1}, n2={self.n2}, r={self.r}"
            )

    def _entries(self) -> tuple[float, float, float]:
        """The entries (a, b, c) of the covariance matrix, in the one formula for them:

            a = n1 cosh^2 r + n2 sinh^2 r + cosh(2r)/2
            b = n1 sinh^2 r + n2 cosh^2 r + cosh(2r)/2
            c = (n1 + n2 + 1) sinh(2r)/2

        build_squeezed_thermal places them in sigma; the sweep kernel reads them.
        """
        n1, n2, r = self.n1, self.n2, self.r
        ch2, sh2 = math.cosh(r) ** 2, math.sinh(r) ** 2
        a = n1 * ch2 + n2 * sh2 + 0.5 * math.cosh(2 * r)
        b = n1 * sh2 + n2 * ch2 + 0.5 * math.cosh(2 * r)
        c = 0.5 * (n1 + n2 + 1) * math.sinh(2 * r)
        return a, b, c


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


def _minors(u: list, v: list) -> tuple:
    """2x2 minors of the rows u, v in the columns 01, 02, 03, 12, 13, 23."""
    return (
        u[0] * v[1] - u[1] * v[0],
        u[0] * v[2] - u[2] * v[0],
        u[0] * v[3] - u[3] * v[0],
        u[1] * v[2] - u[2] * v[1],
        u[1] * v[3] - u[3] * v[1],
        u[2] * v[3] - u[3] * v[2],
    )


_OUT_OF_RANGE = "an invariant lies outside the double range"


@dataclass(frozen=True)
class _ExactInvariants:
    """Integer block determinants det A, det B, det C, det sigma of sigma = ints / den.

    An invariant of degree d in the entries is its integer over den**d
    (det A, det B and det C over den**2, det sigma over den**4), rounded
    once, correctly, by Python's int / int.  The partial transpose of sigma
    has the same invariants with det C -> -det C.  positive_definite is
    Sylvester's criterion on the exact leading principal minors.

    These are all that the measures read: each takes a CovarianceMatrix or
    its _ExactInvariants (``_invariants`` is the instance itself).
    """

    den: int
    det_a: int
    det_b: int
    det_c: int
    det_sigma: int
    positive_definite: bool

    @property
    def _invariants(self) -> _ExactInvariants:
        return self


# What every measure takes: a covariance matrix, or the exact invariants of one.
_State = Union[CovarianceMatrix, _ExactInvariants]


def build_squeezed_thermal(params: SqueezedThermalParams) -> CovarianceMatrix:
    """Covariance matrix of a two-mode squeezed thermal state.

    The local blocks are A = a I and B = b I and the cross block is
    C = diag(c, -c), with (a, b, c) = params._entries().  At
    n1 = n2 = r = 0 this is the two-mode vacuum diag(1/2, ..., 1/2).
    """
    import numpy as np

    a, b, c = params._entries()
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


def _den_powers(inv: _ExactInvariants) -> tuple[int, int]:
    """(den**2, den**4): the denominators of the block determinants and of det sigma."""
    return inv.den**2, inv.den**4


def _squared_spectrum(
    det_a: int, det_b: int, det_c: int, det_sigma: int, den2: int, den4: int
) -> tuple[float, float]:
    """Squared symplectic eigenvalues (nu_minus^2, nu_plus^2) from exact invariants.

    The invariants are integers over den2 = den**2 (det A, det B, det C) and
    den4 = den**4 (det sigma).  With Delta = det A + det B + 2 det C, the
    squared eigenvalues are nu_mp^2 = (Delta -+ sqrt(Delta^2 - 4 det sigma)) / 2.
    The discriminant is computed exactly over the integers (it vanishes
    identically for symmetric equal-frequency states, where naive float
    evaluation turns rounding noise into sqrt-amplified eigenvalue errors),
    and the smaller value uses the subtraction-free form
    2 det sigma / (Delta + root).  Radicands negative within tolerance clamp
    to zero; strongly negative ones mark an invalid covariance matrix.
    """
    delta_num = det_a + det_b + 2 * det_c
    try:
        big_delta = delta_num / den2
        dets = det_sigma / den4
        disc = (delta_num * delta_num - 4 * det_sigma) / den4
    except OverflowError as exc:
        raise DomainError(_OUT_OF_RANGE) from exc
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


def _spectrum_pair(inv: _ExactInvariants, den2: int, den4: int) -> tuple[float, float]:
    """(nu_minus, nu_plus): the square roots of _squared_spectrum, which rounding can
    misorder by an ulp where the discriminant vanishes or is clamped."""
    squares = _squared_spectrum(inv.det_a, inv.det_b, inv.det_c, inv.det_sigma, den2, den4)
    nu_minus, nu_plus = math.sqrt(squares[0]), math.sqrt(squares[1])
    return (nu_plus, nu_minus) if nu_plus < nu_minus else (nu_minus, nu_plus)


def symplectic_spectrum(state: _State) -> SymplecticSpectrum:
    """Symplectic eigenvalues of sigma: the square roots of _squared_spectrum.

    Each invariant reaches floating point through one correctly rounded
    division of exact integers; DomainError if one leaves the double range.
    ppt_g applies the same rule to the partial transpose, det C -> -det C.
    """
    inv = state._invariants
    return SymplecticSpectrum(*_spectrum_pair(inv, *_den_powers(inv)))


def _ppt_g(inv: _ExactInvariants, den2: int, den4: int) -> float:
    g, _ = _squared_spectrum(inv.det_a, inv.det_b, -inv.det_c, inv.det_sigma, den2, den4)
    if g <= 0.0:
        raise NonPhysical(f"non-positive partial-transpose invariant g={g:.3e}")
    return g


def ppt_g(state: _State) -> float:
    """Squared smallest symplectic eigenvalue of the partial transpose.

    Transposing one mode maps det C -> -det C and leaves det A, det B and
    det sigma unchanged (Simon, PRL 84, 2726, 2000), so g is the smaller
    value of _squared_spectrum with -det C, each invariant rounded once,
    correctly.  The state is entangled exactly when 4 g < 1.
    """
    inv = state._invariants
    return _ppt_g(inv, *_den_powers(inv))


def _negativity(g: float) -> float:
    return max(0.0, -0.5 * math.log2(4.0 * g))


def log_negativity(state: _State) -> float:
    """Logarithmic negativity E_N = max{0, -1/2 log2[4 g]} in bits.

    Strictly positive exactly for entangled states (4 g < 1).
    """
    return _negativity(ppt_g(state))


def _bona_fide(inv: _ExactInvariants, den2: int, den4: int) -> tuple[float, float]:
    """(nu_minus, nu_plus) of a bona fide state; raises NonPhysical otherwise.

    This is the one physicality check; gaussian_discord raises on it.

    Bona fide means positive definite, decided by the exact signs of the
    leading principal minors, and 2 nu_minus >= 1 - 1e-9.  The minors are
    needed: -sigma of a bona fide sigma has the same spectrum.
    """
    if not inv.positive_definite:
        raise NonPhysical("covariance matrix is not positive definite")
    nu_minus, nu_plus = _spectrum_pair(inv, den2, den4)
    if 2.0 * nu_minus < 1.0 - PHYSICALITY_TOL:
        raise NonPhysical(f"2 nu_minus = {2.0 * nu_minus:.6g} is below 1 beyond tolerance")
    return nu_minus, nu_plus


def f_entropy(x: float) -> float:
    """Entropy function f(x) = (x+1)/2 log((x+1)/2) - (x-1)/2 log((x-1)/2).

    Natural logarithm; defined for x >= 1 with f(1) = 0 as the pure-state
    limit.  Arguments in [1 - 1e-9, 1) are clamped to 1.
    """
    if x < 1.0 - PHYSICALITY_TOL:
        raise DomainError(f"entropy function argument {x!r} is below 1 beyond tolerance")
    if x <= 1.0:
        return 0.0
    xm = 0.5 * (x - 1.0)
    # (xm + 1) log(xm + 1) - xm log(xm), with no cancellation at large x
    return math.log1p(xm) + xm * math.log1p(1.0 / xm)


def _clamped_sqrt(value: float, what: str, scale: float = 1.0) -> float:
    """sqrt with the [-tol, 0) range clamped to 0; tol grows with the term scale."""
    if value < -PHYSICALITY_TOL * max(1.0, scale):
        raise NonPhysical(f"{what} {value:.3e} is negative beyond tolerance")
    return math.sqrt(max(value, 0.0))


def _conditional(inv: _ExactInvariants, measured_mode: MeasuredMode, den2: int) -> tuple:
    """The fields (alpha, beta, gamma, delta, epsilon, branch) of discord_invariants."""
    a_num, b_num = inv.det_a, inv.det_b
    if measured_mode is MeasuredMode.MODE1:
        a_num, b_num = b_num, a_num
    c_num, s_num = inv.det_c, inv.det_sigma
    # 4 det A = a_num / one with one = den**2 / 4, and 16 det sigma = s_num / one**2
    one = den2 // 4
    try:
        alpha, beta, gamma = a_num / one, b_num / one, c_num / one
        delta = s_num / (one * one)
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
                    (c2_num * one + cross_num) / one**3,
                    "conditional-branch radicand",
                    scale=gamma * gamma + abs(cross_num / one**3),
                )
                numerator = (2 * c2_num * one + cross_num) / one**3 + 2.0 * abs(gamma) * root
                epsilon = numerator / ((b_num - one) ** 2 / (one * one))
            branch = Branch.ONE
        else:
            # gamma^4 + (delta - alpha beta)^2 - 2 gamma^2 (delta + alpha beta),
            # numerator over one**4
            if beta <= 0.0:  # epsilon's denominator; positive on every bona fide state
                raise NonPhysical(f"measured-mode invariant beta={beta!r} is not positive")
            mix_num = 2 * c2_num * (s_num + a_num * b_num)
            root = _clamped_sqrt(
                (c2_num * c2_num + lead_num - mix_num) / one**4,
                "conditional-branch radicand",
                scale=(c2_num * c2_num + lead_num + abs(mix_num)) / one**4,
            )
            epsilon = ((a_num * b_num - c2_num + s_num) / (one * one) - root) / (2.0 * beta)
            branch = Branch.TWO
    except OverflowError as exc:
        raise DomainError(_OUT_OF_RANGE) from exc
    return alpha, beta, gamma, delta, epsilon, branch


def discord_invariants(
    state: _State, measured_mode: MeasuredMode = MeasuredMode.MODE2
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
    values = _conditional(state._invariants, measured_mode, _den_powers(state._invariants)[0])
    msg = "conditional invariant branch %s (alpha=%g beta=%g gamma=%g delta=%g)"
    _log.debug(msg, values[5].name, *values[:4])
    return DiscordInvariants(*values)


def _discord(beta: float, epsilon: float, nu_minus: float, nu_plus: float) -> float:
    d = (
        f_entropy(_clamped_sqrt(beta, "local invariant beta"))
        - f_entropy(2.0 * nu_minus)
        - f_entropy(2.0 * nu_plus)
        + f_entropy(_clamped_sqrt(epsilon, "conditional invariant epsilon"))
    )
    if d < -PHYSICALITY_TOL:
        raise NonPhysical(f"discord {d:.3e} is negative beyond tolerance")
    return max(0.0, d)


def gaussian_discord(
    state: _State, measured_mode: MeasuredMode = MeasuredMode.MODE2
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
    nu_minus, nu_plus = _bona_fide(state._invariants, *_den_powers(state._invariants))
    conditional = discord_invariants(state, measured_mode)
    return _discord(conditional.beta, conditional.epsilon, nu_minus, nu_plus)


def _cell_kernel(
    state: SqueezedThermalParams, gibbs: list, measured_mode: MeasuredMode
) -> Callable[[float, float], tuple[float, float, float]]:
    """(E_N, D, nu_minus) of a sweep cell, as a function of (x, y) = (e^{-2 lam t}, 1 - x).

    gibbs is EnvironmentParams._gibbs_modes().  In the quadrature order
    (x1, x2 | p1, p2) the evolved state has the blocks [[A_x, k], [k, B_x]]
    and [[A_p, -k], [-k, B_p]], where B is the measured mode,
    A_x = x a + y g1x (likewise A_p, B_x, B_p) and k = x c.  With
    P_x = A_x B_x - k^2 and P_p likewise, det A = A_x A_p, det B = B_x B_p,
    det C = -k^2 and det sigma = P_x P_p.  Every quantity that cancels is
    taken from a form free of cancellation:

    * P_x = x^2 d0 + x y (a g2x + b g1x) + y^2 g1x g2x, d0 = (n1+1/2)(n2+1/2);
    * diff = det A - det B, whose x^2 coefficient is (nA - nB)(a + b);
    * g = 2 det sigma / (tr~ + sqrt(disc~)), where tr~ = det A + det B + 2k^2
      and disc~ = diff^2 + 4k^2 (A_x + B_p)(A_p + B_x);
    * tr = (sqrt det A - sqrt det B)^2 + 2 (sqrt(det A det B) - k^2), each
      difference as a quotient, and disc = diff^2 + 4k^2 (B_p - A_x)(A_p - B_x),
      or tr^2 - 4 det sigma where that cancels less;
    * beta - 1 = x^2 u (u + 2) + 2 x y h + y^2 z^2, with u = 2b - 1 and
      h = 2b (g2x + g2p) - 1 = u (g2x + g2p) + e;
    * the Adesso-Datta branch test, whose sides differ by
      64 k^4 (A_p - 4 B_x P_x)(A_x - 4 B_p P_p) (k = 0 takes branch one);
    * branch one's radicand 4 (4 B_x P_p - A_p)(4 B_p P_x - A_x), each factor a
      cubic in (x, y), and sqrt(epsilon) = (4k^2 + sqrt(radicand)) / (beta - 1);
    * branch two's radicand 256 k^4 (P_p - P_x)^2, which leaves
      epsilon = 16 (det sigma + k^2 min(P_x, P_p)) / beta.

    Each y g product is formed first, so a huge Gibbs state at a tiny t stays
    in range.  The checks and messages are those of the public measures, and
    a value outside the double range is a DomainError.
    """
    (n_a, n_b), (a, b, c), modes = (state.n1, state.n2), state._entries(), gibbs
    if measured_mode is MeasuredMode.MODE1:
        n_a, n_b, a, b, modes = n_b, n_a, b, a, modes[::-1]
    (ga_x, ga_p, _, _), (gb_x, gb_p, e, z) = modes
    sh2, ch2 = math.sinh(state.r) ** 2, math.cosh(state.r) ** 2
    d0, nd = (n_a + 0.5) * (n_b + 0.5), n_a - n_b
    u = 2.0 * (n_a * sh2 + n_b * ch2 + sh2)
    u2, ab4, d04, nd2 = u * (u + 2.0), 4.0 * a * b, 4.0 * d0, nd * (a + b)
    g_diff = ga_x + ga_p - gb_x - gb_p
    # the x^3 coefficient of both radicand factors, 4 b d0 - a
    c3 = 4.0 * ((n_b + 0.5) * sh2 * n_a * (n_a + 1.0) + (n_a + 0.5) * ch2 * n_b * (n_b + 1.0))

    def cell(x: float, y: float) -> tuple[float, float, float]:
        ax, ap, bx, bp = y * ga_x, y * ga_p, y * gb_x, y * gb_p
        a_x, a_p, b_x, b_p = x * a + ax, x * a + ap, x * b + bx, x * b + bp
        k = x * c
        k2 = k * k
        p_x = x * (x * d0 + a * bx + b * ax) + ax * bx
        p_p = x * (x * d0 + a * bp + b * ap) + ap * bp
        det_a, det_b, det_s = a_x * a_p, b_x * b_p, p_x * p_p
        diff = x * (x * nd2 + nd * (ax + ap) + b * (y * g_diff)) + (ax * ap - bx * bp)
        d2 = diff * diff
        s_ppt = det_a + det_b + 2.0 * k2 + math.sqrt(d2 + 4.0 * k2 * (a_x + b_p) * (a_p + b_x))
        g = 2.0 * det_s / s_ppt
        if not math.isfinite(s_ppt + g):
            raise DomainError(_OUT_OF_RANGE)
        if g <= 0.0:
            raise NonPhysical(f"non-positive partial-transpose invariant g={g:.3e}")
        root_a, root_b = math.sqrt(det_a), math.sqrt(det_b)
        root_diff = diff / (root_a + root_b)
        tr = root_diff * root_diff + 2.0 * (det_s + k2 * (p_x + p_p)) / (root_a * root_b + k2)
        qq = 4.0 * k2 * (bp - ax - x * nd) * (ap - bx + x * nd)
        disc = tr * tr - 4.0 * det_s if d2 - qq > tr * tr else d2 + qq
        s = tr + _clamped_sqrt(disc, "symplectic invariant discriminant", tr * tr)
        nu_minus, nu_plus = math.sqrt(2.0 * det_s / s), math.sqrt(0.5 * s)
        if nu_plus < nu_minus:
            nu_minus, nu_plus = nu_plus, nu_minus
        if 2.0 * nu_minus < 1.0 - PHYSICALITY_TOL:
            raise NonPhysical(f"2 nu_minus = {2.0 * nu_minus:.6g} is below 1 beyond tolerance")
        beta = 4.0 * det_b
        if k2 == 0.0 or (a_p - 4.0 * b_x * p_x) * (a_x - 4.0 * b_p * p_p) >= 0.0:
            yz, yh = y * z, u * (bx + bp) + y * e
            yz2 = yz * yz
            beta_1 = x * (x * u2 + 2.0 * yh) + yz2
            if abs(beta_1) < _PURE_MODE_TOL:
                if 4.0 * k2 >= _PURE_MODE_TOL:
                    raise NonPhysical(
                        f"pure measured mode (beta={beta!r}) with nonzero gamma={-4.0 * k2!r}"
                    )
                epsilon = 4.0 * det_a
            else:
                f1 = x * (x * (x * c3 + ap * u2 + ab4 * bp + d04 * bx - 2.0 * a * y)
                          + a * yz2 + 2.0 * ap * yh) + ap * yz2
                f2 = x * (x * (x * c3 + ax * u2 + ab4 * bx + d04 * bp - 2.0 * a * y)
                          + a * yz2 + 2.0 * ax * yh) + ax * yz2
                if f1 * f2 >= 0.0:
                    root = 2.0 * math.sqrt(abs(f1)) * math.sqrt(abs(f2))
                else:  # 32 k^4 - 4 f1 f2 = gamma^2 + |(beta - 1)(delta - alpha)|
                    rad, scale = 4.0 * f1 * f2, 32.0 * k2 * k2 - 4.0 * f1 * f2
                    root = _clamped_sqrt(rad, "conditional-branch radicand", scale)
                root_eps = (4.0 * k2 + root) / beta_1
                epsilon = root_eps * root_eps
        else:
            epsilon = 16.0 * (det_s + k2 * min(p_x, p_p)) / beta
        if not math.isfinite(beta + epsilon):
            raise DomainError(_OUT_OF_RANGE)
        return _negativity(g), _discord(beta, epsilon, nu_minus, nu_plus), nu_minus

    return cell
