"""Per-layer spans recorded from outside the package.

The tracer replaces module-level functions of gaussbath with wrappers that
record a span (name, start, end, parent) per call.  A function is replaced
under every module-level name that binds it in any gaussbath module, so a
call resolved through ``from .states import ppt_g`` in analysis is caught as
well as one through ``states.ppt_g``.  Nothing in the package changes on
disk, and ``uninstall`` puts every original back.

A name that the package no longer defines is recorded as absent: its
metrics read ABSENT instead of a count or a time, and the run goes on.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable

# Span name -> (module, function).  "cli.self" is cli.main; with its children
# removed its self time is argument handoff, formatting and writing.
SPANS: dict[str, tuple[str, str]] = {
    "cli.self": ("cli", "main"),
    "cli.parse_config": ("cli", "parse_config"),
    "analysis.sweep": ("analysis", "sweep"),
    "analysis.sudden_death_time": ("analysis", "sudden_death_time"),
    "dynamics.evolve_closed": ("dynamics", "evolve_closed"),
    "dynamics.asymptotic_covariance": ("dynamics", "asymptotic_covariance"),
    "dynamics.propagator": ("dynamics", "propagator"),
    "linalg.solve_linear": ("linalg", "solve_linear"),
    "states.build_squeezed_thermal": ("states", "build_squeezed_thermal"),
    "states.ppt_g": ("states", "ppt_g"),
    "states.log_negativity": ("states", "log_negativity"),
    "states.symplectic_spectrum": ("states", "symplectic_spectrum"),
    "states.is_physical": ("states", "is_physical"),
    "states.discord_invariants": ("states", "discord_invariants"),
    "states.gaussian_discord": ("states", "gaussian_discord"),
    # the exact integer invariants, computed once per state instance and
    # cached on it as ``_invariants``
    "states.exact_invariants": ("states", "_invariants_of"),
}

ABSENT = -1.0  # value of every metric of a span whose function is gone

# counts taken from what a call sees or returns, per owning span
COUNTS = {
    "states.discord_invariants.branch_two": "states.discord_invariants",
    "states.exact_invariants.computed": "states.exact_invariants",
}


@dataclass
class Trace:
    """Spans of one pass, in call order, plus the value-derived counts."""

    names: list[int] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTS, 0))

    def calls(self) -> list[int]:
        out = [0] * len(SPANS)
        for i in self.names:
            out[i] += 1
        return out

    def self_times(self) -> list[float]:
        """Per span name, summed duration minus the time of direct children."""
        out = [0.0] * len(SPANS)
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            out[name] += duration
            if self.parents[i] >= 0:
                out[self.names[self.parents[i]]] -= duration
        return out

    def nests(self) -> bool:
        """Every span lies within its parent's interval."""
        for i, parent in enumerate(self.parents):
            if self.ends[i] < self.starts[i]:
                return False
            if parent >= 0 and not (
                self.starts[parent] <= self.starts[i] and self.ends[i] <= self.ends[parent]
            ):
                return False
        return True


def _package_modules() -> list[ModuleType]:
    return [m for name, m in sys.modules.items() if name == "gaussbath" or name.startswith("gaussbath.")]


class Tracer:
    """Installs span wrappers into the loaded gaussbath modules."""

    def __init__(self) -> None:
        self.trace = Trace()
        self.absent: list[str] = []
        self._stack = [-1]
        self._patched: list[tuple[ModuleType, str, Any]] = []

    def install(self) -> None:
        self.absent = []
        modules = _package_modules()
        by_name = {m.__name__: m for m in modules}
        for index, (span, (module_name, attr)) in enumerate(SPANS.items()):
            owner = by_name.get(f"gaussbath.{module_name}")
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(span)
                continue
            wrapper = self._wrap(fn, index, span)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, key, fn))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()

    def _wrap(self, fn: Callable[..., Any], index: int, span: str) -> Callable[..., Any]:
        stack = self._stack
        clock = time.perf_counter

        def record(*args: Any, **kwargs: Any) -> Any:
            tr = self.trace
            i = len(tr.names)
            tr.names.append(index)
            tr.parents.append(stack[-1])
            tr.ends.append(0.0)
            stack.append(i)
            tr.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tr.ends[i] = clock()
                stack.pop()

        if span == "states.discord_invariants":

            def discord_invariants(*args: Any, **kwargs: Any) -> Any:
                result = record(*args, **kwargs)
                branch = getattr(result, "branch", None)
                if getattr(branch, "name", branch) in ("TWO", 2):
                    self.trace.counts["states.discord_invariants.branch_two"] += 1
                return result

            return discord_invariants
        if span == "states.exact_invariants":

            def exact_invariants(state: Any, *args: Any, **kwargs: Any) -> Any:
                if "_invariants" not in getattr(state, "__dict__", {}):
                    self.trace.counts["states.exact_invariants.computed"] += 1
                return record(state, *args, **kwargs)

            return exact_invariants
        return record
