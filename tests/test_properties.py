"""Property tests over the benchmark's parameter box (needs ``hypothesis``)."""

import numpy as np
import pytest

from gaussbath.dynamics import EnvironmentParams, evolution
from gaussbath.states import (
    SqueezedThermalParams,
    build_squeezed_thermal,
    ppt_g,
    separability_threshold_r,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

TIMES = np.linspace(0.0, 20.0, 400)
SIGN_TOL = 1e-9


@st.composite
def box_runs(draw):
    """Initial state and bath from the box n1, n2 in [0, 2], r in
    [r_s + 0.2, 3], omega in [0.5, 2], lam in [0.05, 0.3], T in [0, 4]."""
    n1 = draw(st.floats(0.0, 2.0))
    n2 = draw(st.floats(0.0, 2.0))
    r = draw(st.floats(separability_threshold_r(n1, n2) + 0.2, 3.0))
    env = EnvironmentParams(
        lam=draw(st.floats(0.05, 0.3)),
        omega1=draw(st.floats(0.5, 2.0)),
        omega2=draw(st.floats(0.5, 2.0)),
        temperature=draw(st.floats(0.0, 4.0)),
    )
    return build_squeezed_thermal(SqueezedThermalParams(n1, n2, r)), env


@settings(max_examples=60, deadline=None)
@given(box_runs())
def test_separability_is_permanent(run):
    # the bath acts on each mode by its own channel, and local channels
    # cannot create entanglement: once 4 g - 1 >= 0, it stays there
    s0, env = run
    state_at = evolution(s0, env)
    witness = [4.0 * ppt_g(state_at(float(t))) - 1.0 for t in TIMES]
    separable = [k for k, h in enumerate(witness) if h >= SIGN_TOL]
    if separable:
        revivals = [TIMES[k] for k in range(separable[0], len(TIMES)) if witness[k] <= -SIGN_TOL]
        assert revivals == [], f"entanglement returns at t={revivals[0]:g}"
