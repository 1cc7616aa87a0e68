"""Dissipative time evolution of the covariance matrix.

Two non-interacting modes couple to a common thermal bath, giving the
linear matrix equation

    d sigma / dt = Y sigma + sigma Y^T + 2 D,

with a block-diagonal drift Y (per-mode blocks [[-lam, 1/m], [-m w^2, -lam]])
and a diagonal diffusion matrix D with coth(w / 2T) weights.  Because the
bath is in thermal equilibrium, the stationary state is the Gibbs state of
the two oscillators, diag(coth(w/2T)/(2 m w), m w coth(w/2T)/2) per mode.

The closed-form solution

    sigma(t) = M(t) (sigma(0) - sigma_inf) M(t)^T + sigma_inf,
    M(t) = exp(Y t),

is the only production path: M(t) has an exact per-block expression (a
damped rotation) and sigma_inf is the Gibbs state written down directly.
``evolution(s0, p)`` builds sigma_inf once for a loop over t.  The
independent oracles (a fixed-step Runge-Kutta integrator and a generic
matrix exponential) live with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParams
from .states import CovarianceMatrix, Mat4


@dataclass(frozen=True)
class EnvironmentParams:
    """Bath and mode parameters in natural units (hbar = k = 1).

    lam is the dissipation constant.  lam = 0 is the undamped limit: the
    evolution is then a free rotation, which leaves the Gibbs state
    invariant, so the closed-form solution needs no special case.  Every
    field must be finite, and the temperature low enough that coth(w/2T)
    is finite for both modes.
    """

    lam: float = 0.1
    m: float = 1.0
    omega1: float = 1.0
    omega2: float = 1.0
    temperature: float = 0.0

    def __post_init__(self) -> None:
        for name in ("lam", "m", "omega1", "omega2", "temperature"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParams(f"{name} must be finite, got {value}")
        if self.lam < 0:
            raise InvalidParams(f"dissipation constant must be non-negative, got {self.lam}")
        if self.m <= 0:
            raise InvalidParams(f"mass must be positive, got {self.m}")
        if self.omega1 <= 0 or self.omega2 <= 0:
            raise InvalidParams(
                f"frequencies must be positive, got omega1={self.omega1}, omega2={self.omega2}"
            )
        if self.temperature < 0:
            raise InvalidParams(f"temperature must be non-negative, got {self.temperature}")
        slowest = min(self.omega1, self.omega2)
        if self.temperature > 0 and math.tanh(slowest / (2.0 * self.temperature)) == 0:
            raise InvalidParams(f"temperature {self.temperature} is too high: tanh(w/2T) is 0")


def propagator(p: EnvironmentParams, t: float) -> Mat4:
    """Analytic exp(Y t): per mode a damped rotation.

    exp(-lam t) [[cos(w t), sin(w t)/(m w)], [-m w sin(w t), cos(w t)]].
    """
    m_out = np.zeros((4, 4))
    decay = math.exp(-p.lam * t)
    for k, omega in ((0, p.omega1), (2, p.omega2)):
        c = math.cos(omega * t)
        s = math.sin(omega * t)
        m_out[k, k] = decay * c
        m_out[k, k + 1] = decay * s / (p.m * omega)
        m_out[k + 1, k] = -decay * p.m * omega * s
        m_out[k + 1, k + 1] = decay * c
    return m_out


def asymptotic_covariance(p: EnvironmentParams) -> CovarianceMatrix:
    """Stationary covariance matrix of the dissipative evolution.

    The Gibbs state diag(coth(w/2T)/(2 m w), m w coth(w/2T)/2) per mode,
    exactly diagonal.  At T = 0 the coth weight is 1 (the vacuum of each
    oscillator).
    """
    entries = []
    for omega in (p.omega1, p.omega2):
        # coth(w / 2T), whose T = 0 limit is 1
        coth = 1.0 / math.tanh(omega / (2.0 * p.temperature)) if p.temperature > 0 else 1.0
        entries += [coth / (2.0 * p.m * omega), p.m * omega * coth / 2.0]
    return CovarianceMatrix(np.diag(entries))


def evolution(s0: CovarianceMatrix, p: EnvironmentParams) -> Callable[[float], CovarianceMatrix]:
    """sigma(t) of the closed-form solution, as a function of the time t.

    sigma(t) = M(t) (sigma(0) - sigma_inf) M(t)^T + sigma_inf, with the Gibbs
    state sigma_inf built once, here.  t must be finite and non-negative;
    t = 0 returns s0 unchanged.
    """
    s_inf = asymptotic_covariance(p).sigma
    shifted = s0.sigma - s_inf

    def at(t: float) -> CovarianceMatrix:
        if not 0 <= t < math.inf:
            raise InvalidParams(f"time must be finite and non-negative, got {t}")
        if t == 0:
            return s0
        m = propagator(p, t)
        return CovarianceMatrix(m @ shifted @ m.T + s_inf)

    return at
