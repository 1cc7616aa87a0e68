"""Independent numpy reference for the benchmark's correctness checks.

Nothing here imports gaussbath.  The reference rebuilds every quantity from
the raw parameters along a different route from the package:

* the initial state as S(r) sigma_th S(r)^T with the two-mode squeezer S(r);
* the stationary state as the closed-form Gibbs state, never a linear solve;
* the propagator as the per-mode damped rotation exp(-lam t) R(w t);
* symplectic and partial-transpose spectra as |eigvals(i Omega sigma)|;
* Gaussian discord from the Adesso & Datta formula (PRL 105, 030501, 2010)
  with float determinants.

All functions are vectorised over a leading axis of cells.  Quadrature order
is (x, p_x, y, p_y) and the vacuum is diag(1/2, 1/2, 1/2, 1/2), as in the
package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Absolute tolerance on E_N (bits), discord (nats) and nu_minus.  The package
# evaluates invariants in exact integer arithmetic and prints 12 significant
# digits; the float eigensolver here agrees with it to ~5e-11 on the
# benchmark's parameter box, so 1e-8 leaves over two decades of headroom while
# still catching any wrong branch, convention or propagation error.
TOL = 1e-8

# Width of the sign-ambiguity band of the witness 4 g - 1 on the ESD scan
# grid: a grid point with |4 g - 1| below this may fall on either side.
WITNESS_TOL = 1e-9

SCAN_POINTS = 2000

# The ESD search bisects its scan bracket to a width of 1e-6 and returns the
# midpoint, so t_esd lies within 5e-7 of a sign change of the witness; the
# reference witness must change sign within ESD_SLACK of t_esd.
ESD_SLACK = 1e-6

_OMEGA = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                   [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])
_FLIP = np.diag([1.0, 1.0, 1.0, -1.0])  # partial transpose: p_y -> -p_y


@dataclass(frozen=True)
class Params:
    """One benchmark configuration, exactly as passed to the CLI (mass 1)."""

    n1: float
    n2: float
    r: float
    omega1: float
    omega2: float
    lam: float
    temperature: float
    measured_mode: str


def initial_state(p: Params) -> np.ndarray:
    """Two-mode squeezed thermal state S(r) diag(n+1/2) S(r)^T."""
    ch, sh = np.cosh(p.r), np.sinh(p.r)
    z = np.diag([1.0, -1.0])
    eye = np.eye(2)
    s = np.block([[ch * eye, sh * z], [sh * z, ch * eye]])
    thermal = np.diag([p.n1 + 0.5, p.n1 + 0.5, p.n2 + 0.5, p.n2 + 0.5])
    return s @ thermal @ s.T


def gibbs_state(p: Params, temperature) -> np.ndarray:
    """Stationary Gibbs state per temperature, shape (len(T), 4, 4)."""
    temps = np.atleast_1d(np.asarray(temperature, dtype=float))
    hot = temps > 0.0
    out = np.zeros((temps.size, 4, 4))
    for k, w in ((0, p.omega1), (2, p.omega2)):
        coth = np.ones(temps.size)  # the T = 0 limit
        coth[hot] = 1.0 / np.tanh(w / (2.0 * temps[hot]))
        out[:, k, k] = coth / (2.0 * w)
        out[:, k + 1, k + 1] = w * coth / 2.0
    return out


def propagator(p: Params, t) -> np.ndarray:
    """exp(Y t) for each time, shape (len(t), 4, 4)."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros((ts.size, 4, 4))
    decay = np.exp(-p.lam * ts)
    for k, w in ((0, p.omega1), (2, p.omega2)):
        c, s = np.cos(w * ts), np.sin(w * ts)
        out[:, k, k] = decay * c
        out[:, k, k + 1] = decay * s / w
        out[:, k + 1, k] = -decay * w * s
        out[:, k + 1, k + 1] = decay * c
    return out


def evolved(p: Params, t, temperature) -> np.ndarray:
    """sigma(t) for matching arrays of times and temperatures."""
    m = propagator(p, t)
    s_inf = gibbs_state(p, temperature)
    d = initial_state(p) - s_inf
    return m @ d @ np.swapaxes(m, 1, 2) + s_inf


def symplectic(sigma: np.ndarray) -> np.ndarray:
    """Sorted symplectic eigenvalues (nu_minus, nu_plus), shape (N, 2)."""
    # i Omega sigma and the real Omega sigma have eigenvalues of equal
    # moduli; the real matrix takes the cheaper real eigensolver
    ev = np.abs(np.linalg.eigvals(_OMEGA @ sigma))
    ev.sort(axis=-1)
    # eigenvalues come in +-nu pairs, so sorted moduli read (nu-, nu-, nu+, nu+)
    return 0.5 * (ev[:, ::2] + ev[:, 1::2])


def witness(sigma: np.ndarray) -> np.ndarray:
    """4 g - 1 = 4 nu~_minus^2 - 1; negative exactly for entangled states."""
    nu_pt = symplectic(_FLIP @ sigma @ _FLIP)[:, 0]
    return 4.0 * nu_pt * nu_pt - 1.0


def log_negativity(sigma: np.ndarray) -> np.ndarray:
    nu_pt = symplectic(_FLIP @ sigma @ _FLIP)[:, 0]
    return np.maximum(0.0, -np.log2(2.0 * nu_pt))


def _f(x: np.ndarray) -> np.ndarray:
    """f(x) = (x+1)/2 ln((x+1)/2) - (x-1)/2 ln((x-1)/2), with f(1) = 0."""
    x = np.maximum(x, 1.0)
    xp, xm = 0.5 * (x + 1.0), 0.5 * (x - 1.0)
    return xp * np.log(xp) - xm * np.log(np.where(xm > 0.0, xm, 1.0))


def discord(sigma: np.ndarray, measured_mode: str) -> np.ndarray:
    """Adesso-Datta Gaussian discord in nats, measurement on the given mode."""
    a_blk, b_blk = sigma[:, :2, :2], sigma[:, 2:, 2:]
    if measured_mode == "mode1":
        a_blk, b_blk = b_blk, a_blk
    alpha = 4.0 * np.linalg.det(a_blk)
    beta = 4.0 * np.linalg.det(b_blk)
    gamma = 4.0 * np.linalg.det(sigma[:, :2, 2:])
    delta = 16.0 * np.linalg.det(sigma)
    branch_one = (delta - alpha * beta) ** 2 <= (1.0 + beta) * gamma**2 * (alpha + delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        rad1 = np.maximum(gamma**2 + (beta - 1.0) * (delta - alpha), 0.0)
        eps1 = (2.0 * gamma**2 + (beta - 1.0) * (delta - alpha) + 2.0 * np.abs(gamma) * np.sqrt(rad1)) / (
            beta - 1.0
        ) ** 2
        rad2 = np.maximum(gamma**4 + (delta - alpha * beta) ** 2 - 2.0 * gamma**2 * (delta + alpha * beta), 0.0)
        eps2 = (alpha * beta - gamma**2 + delta - np.sqrt(rad2)) / (2.0 * beta)
    eps = np.where(branch_one, eps1, eps2)
    nu = 2.0 * symplectic(sigma)  # vacuum-normalised symplectic eigenvalues
    d = _f(np.sqrt(beta)) - _f(nu[:, 0]) - _f(nu[:, 1]) + _f(np.sqrt(eps))
    return np.maximum(d, 0.0)


def scan_witness(p: Params, t_max: float) -> np.ndarray:
    """Witness on the package's ESD scan grid k t_max / 2000, k = 1..2000."""
    grid = np.arange(1, SCAN_POINTS + 1) * (t_max / SCAN_POINTS)
    return witness(evolved(p, grid, np.full(grid.size, p.temperature)))


def first_crossing(h: np.ndarray) -> int | None:
    """Scan index of the first witness value that is clearly non-negative."""
    hits = np.flatnonzero(h >= WITNESS_TOL)
    return int(hits[0]) if hits.size else None


def esd_consistent(h: np.ndarray, t_max: float, t_esd: float | None) -> bool:
    """True iff t_esd lies in the bracket of the first witness sign change.

    h is the reference witness on the scan grid.  The search scans
    k t_max/2000 for the first h >= 0 and bisects that bracket, so t_esd
    must fall strictly inside it, every earlier grid point must be entangled
    and the bracket's right end separable.  Grid points inside the ambiguity
    band may count on either side.
    """
    if t_esd is None:
        return first_crossing(h) is None
    k = int(np.ceil(t_esd / (t_max / SCAN_POINTS))) - 1
    if not 0 <= k < SCAN_POINTS:
        return False
    return bool(np.all(h[:k] < WITNESS_TOL) and h[k] > -WITNESS_TOL)


def esd_refined(p: Params, t_esd: float) -> bool:
    """True iff the witness changes sign within ESD_SLACK of t_esd.

    Values inside the ambiguity band may count on either side.
    """
    t = np.array([t_esd - ESD_SLACK, t_esd + ESD_SLACK])
    before, after = witness(evolved(p, t, np.full(2, p.temperature)))
    return bool(before < WITNESS_TOL and after > -WITNESS_TOL)
