"""Seeded workloads: the parameter box, the op streams and their output checks.

An op is one ``gaussbath.cli.main`` invocation.  Every op draws fresh
parameters from the box below, so no two ops repeat a configuration and a
cache keyed on the inputs cannot serve one op from another.  The seed fixes
the whole stream.

The box keeps clear of the known double-precision defects at large squeezing
(r >= 10): every draw is entangled (r at least 0.2 above the separability
threshold) and no operation fails on it at the seed commit.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import reference as ref

BOX = {
    "n1, n2": [0.0, 2.0],
    "r": ["r_s(n1, n2) + 0.2", 3.0],
    "omega1, omega2": [0.5, 2.0],
    "lambda": [0.05, 0.3],
    "T": [0.0, 4.0],
    "mass": 1.0,
    "t_max": 20.0,
    "n1 == n2": "half of the draws",
    "omega1 == omega2": "half of the draws",
    "measured mode": "mode1 or mode2 at random",
}
T_MAX = 20.0

# sweep-grid shape: the CLI defaults, 200 t x 40 T cells
SWEEP_POINTS, SWEEP_TEMP_MAX, SWEEP_TEMP_POINTS = 200, 4.0, 40
# every SWEEP_CHECK_STRIDE-th cell of a sweep, offset by the op index, is
# compared with the reference
SWEEP_CHECK_STRIDE = 4

# The cost of an esd op grows with the scan index of the first witness sign
# change: from a few dozen evaluations for an early death to the full
# 2000-point scan for a state that never dies.  Each block of 40 ops takes a
# fixed number of draws from each stratum of that index, in proportion to the
# stratum's share of the box.  Over 4000 draws from the box (shares.py) the
# shares were 25.2%, 38.1%, 16.1%, 9.1%, 8.0% and 3.6%.  So the
# ops follow the box's own mix, but the seed cannot change how many cheap and
# expensive searches a run holds.  Entries are (first index, end, ops per
# block).
ESD_STRATA: tuple[tuple[int, int, int], ...] = (
    (0, 50, 10),
    (50, 150, 15),
    (150, 300, 7),
    (300, 600, 4),
    (600, ref.SCAN_POINTS, 3),
    (ref.SCAN_POINTS, ref.SCAN_POINTS + 1, 1),  # never dies on (0, t_max]
)
ESD_BLOCK = sum(count for _, _, count in ESD_STRATA)


def _separability_r(n1: float, n2: float) -> float:
    """r_s = arccosh(sqrt((n1 + 1)(n2 + 1) / (n1 + n2 + 1)))."""
    return math.acosh(math.sqrt(max((n1 + 1.0) * (n2 + 1.0) / (n1 + n2 + 1.0), 1.0)))


def draw(rng: random.Random) -> ref.Params:
    n1 = rng.uniform(0.0, 2.0)
    n2 = n1 if rng.random() < 0.5 else rng.uniform(0.0, 2.0)
    r = rng.uniform(_separability_r(n1, n2) + 0.2, 3.0)
    w1 = rng.uniform(0.5, 2.0)
    w2 = w1 if rng.random() < 0.5 else rng.uniform(0.5, 2.0)
    return ref.Params(
        n1=n1,
        n2=n2,
        r=r,
        omega1=w1,
        omega2=w2,
        lam=rng.uniform(0.05, 0.3),
        temperature=rng.uniform(0.0, 4.0),
        measured_mode=rng.choice(("mode1", "mode2")),
    )


def _state_flags(p: ref.Params) -> list[str]:
    return [
        "--n1", repr(p.n1),
        "--n2", repr(p.n2),
        "--squeezing", repr(p.r),
        "--lambda", repr(p.lam),
        "--omega1", repr(p.omega1),
        "--omega2", repr(p.omega2),
        "--measured-mode", p.measured_mode,
        "--t-max", repr(T_MAX),
    ]


@dataclass
class Check:
    ok: bool
    dev_en: float = 0.0
    dev_d: float = 0.0
    reason: str = ""


@dataclass
class Op:
    index: int
    argv: list[str]
    check: Callable[[str], Check]  # stdout of the op -> verdict


def _verdict(dev_en: float, dev_d: float) -> Check:
    ok = max(dev_en, dev_d) <= ref.TOL
    reason = "" if ok else f"deviation E_N {dev_en:.3g}, D {dev_d:.3g}"
    return Check(ok, dev_en, dev_d, reason)


def _sweep_ops(rng: random.Random, out: Path) -> Iterator[Op]:
    path = out / "sweep.csv"
    t_grid = np.linspace(0.0, T_MAX, SWEEP_POINTS)
    temp_grid = np.linspace(0.0, SWEEP_TEMP_MAX, SWEEP_TEMP_POINTS)
    cell_t = np.tile(t_grid, SWEEP_TEMP_POINTS)  # rows in (T, t) order
    cell_temp = np.repeat(temp_grid, SWEEP_POINTS)
    for index in itertools.count():
        p = draw(rng)
        argv = ["sweep", *_state_flags(p), "--points", str(SWEEP_POINTS),
                "--temp-max", repr(SWEEP_TEMP_MAX), "--temp-points", str(SWEEP_TEMP_POINTS),
                "--output", str(path)]

        def check(stdout: str, p=p, index=index) -> Check:
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            if table.shape != (cell_t.size, 4):
                return Check(False, reason=f"sweep table has shape {table.shape}")
            if not (np.allclose(table[:, 0], cell_t, rtol=1e-11, atol=0.0)
                    and np.allclose(table[:, 1], cell_temp, rtol=1e-11, atol=0.0)):
                return Check(False, reason="sweep grid columns differ from the requested grid")
            cells = slice(index % SWEEP_CHECK_STRIDE, None, SWEEP_CHECK_STRIDE)
            sigma = ref.evolved(p, cell_t[cells], cell_temp[cells])
            return _verdict(
                float(np.max(np.abs(table[cells, 2] - ref.log_negativity(sigma)))),
                float(np.max(np.abs(table[cells, 3] - ref.discord(sigma, p.measured_mode)))),
            )

        yield Op(index, argv, check)


def esd_stratum(h: np.ndarray) -> int:
    """Index into ESD_STRATA of the draw whose scan witness is h."""
    k = ref.first_crossing(h)
    k = ref.SCAN_POINTS if k is None else k
    return next(s for s, (lo, end, _) in enumerate(ESD_STRATA) if lo <= k < end)


def _esd_ops(rng: random.Random, out: Path) -> Iterator[Op]:
    # every draw is kept: it waits in its stratum's queue until a block
    # takes it, so each queue holds plain box draws of that stratum
    pending: list[deque] = [deque() for _ in ESD_STRATA]
    block = [s for s, (_, _, count) in enumerate(ESD_STRATA) for _ in range(count)]
    index = 0
    while True:
        for stratum in block:
            while not pending[stratum]:
                p = draw(rng)
                h = ref.scan_witness(p, T_MAX)
                pending[esd_stratum(h)].append((p, h))
            p, h = pending[stratum].popleft()
            argv = ["esd", *_state_flags(p), "--temperature", repr(p.temperature)]

            def check(stdout: str, p=p, h=h) -> Check:
                lines = [ln for ln in stdout.splitlines() if ln.startswith("t_esd=")]
                if len(lines) != 1:
                    return Check(False, reason=f"esd printed {stdout!r}")
                value = lines[0][len("t_esd="):]
                t_esd = None if value == "none" else float(value)
                if not ref.esd_consistent(h, T_MAX, t_esd):
                    return Check(False, reason=f"t_esd={value} outside the reference bracket")
                if t_esd is not None and not ref.esd_refined(p, t_esd):
                    return Check(False, reason=f"t_esd={value} is not within "
                                 f"{ref.ESD_SLACK:g} of a reference witness sign change")
                return Check(True)

            yield Op(index, argv, check)
            index += 1


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[random.Random, Path], Iterator[Op]]
    trace_ops: int  # ops per pass of a traced run


# Why each workload is in the benchmark is set out in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-grid", _sweep_ops, 1),
        Workload("esd-scan", _esd_ops, ESD_BLOCK),
    )
}


def op_stream(workload: Workload, seed: int, out: Path) -> Iterator[Op]:
    return workload.ops(random.Random(f"{workload.name}:{seed}"), out)
