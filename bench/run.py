"""gaussbath benchmark: seeded CLI workloads, checked against a reference.

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, and ops write their output under ``.bench_out/``.

One closed-loop client runs one op at a time: an op is one
``gaussbath.cli.main(argv)`` call on parameters drawn from the seed.  A timed
run hands its ops to a child process (``worker.py``) that runs nothing else,
so the peak RSS it reports is the program's; a traced run runs them in this
process.  After each op, outside the timed region, its output is compared
with the independent numpy reference in ``reference.py``.  An op fails on a
nonzero exit, an exception or an output that misses the reference.

``--trace 0`` reports the end-to-end metrics: ops run until their summed
latency reaches ``--seconds``.  ``--trace 1`` reports per-layer spans from
``spans.py``: a fixed set of ops runs untraced, traced, traced again and
untraced again; the two traced passes must agree on every count and every
span must nest in its parent.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

import reference as ref
import spans
import worker
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = Path(__file__).with_name("worker.py")

# fresh interpreters timed per run for setup_s, spread evenly over the run's
# ops; the median is reported
SETUP_PROBES = 15
_SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import gaussbath.cli\n"
    "gaussbath.cli.parse_config(sys.argv[2:])\n"
    "print(time.perf_counter() - t0)\n"
)
# the tail is the highest percentile, up to p99, with at least TAIL_SAMPLES
# samples beyond it; at p99.9 and beyond, a few hiccups of a shared machine
# decide the value
TAIL_SAMPLES = 10

Runner = Callable[[list[str]], dict]  # argv -> worker.run_op result


class OpProcess:
    """Child interpreter that runs the ops of a timed run and nothing else."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(SRC)],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self) -> "OpProcess":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()

    def _ask(self, request) -> object:
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except OSError:
            line = ""
        if not line:
            raise SystemExit(f"error: the op process ended with exit code {self.proc.wait()}")
        return json.loads(line)

    def run(self, argv: list[str]) -> dict:
        return self._ask(argv)

    def peak_rss_mib(self) -> float:
        return self._ask("rss")


def _run_op(run: Runner, op: workloads.Op) -> tuple[float, bool, workloads.Check]:
    """Time one op; returns (latency, exit ok, check of its output)."""
    result = run(op.argv)
    if result["code"] != 0:
        # an op that crashes is a failed op, not a crashed run
        reason = result["error"] or f"exit code {result['code']}"
        return result["latency"], False, workloads.Check(False, reason=reason)
    return result["latency"], True, op.check(result["stdout"])


class Tally:
    """Failure and reference-deviation bookkeeping over every op of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.dev_en = 0.0
        self.dev_d = 0.0

    def add(self, op: workloads.Op, exited_ok: bool, check: workloads.Check) -> None:
        self.attempted += 1
        self.dev_en = max(self.dev_en, check.dev_en)
        self.dev_d = max(self.dev_d, check.dev_d)
        if not (exited_ok and check.ok):
            self.failed += 1
            print(f"op {op.index} failed: {check.reason.strip()}\n  argv: {op.argv}", file=sys.stderr)


def _setup_seconds(argv: list[str]) -> float:
    """One fresh interpreter's import of gaussbath.cli plus one parse_config."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC), *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the tail latency.

    A run of 2 * TAIL_SAMPLES ops or fewer has no such percentile above the
    median; its tail is the upper median.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = max(TAIL_SAMPLES, -(-n // 100))  # at least 1% of the samples
    beyond = min(beyond, (n - 1) // 2)
    return ordered[-1 - beyond], 100.0 * (n - beyond) / n, beyond


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: workloads.Workload, seed: int, seconds: float) -> dict:
    stream = workloads.op_stream(workload, seed, OUT)
    first = next(stream)
    tally = Tally()
    latencies: list[float] = []
    setup: list[float] = []
    busy = 0.0
    with OpProcess() as child:
        # warm-up op: lazy imports and first-call costs are not part of an op
        _run_op(child.run, first)
        for op in stream:
            # the setup probes are spread over the run, so that a slow spell
            # of a shared machine falls on them as it falls on the ops
            while len(setup) < SETUP_PROBES and busy >= len(setup) * seconds / SETUP_PROBES:
                setup.append(_setup_seconds(first.argv))
            latency, exited_ok, check = _run_op(child.run, op)
            tally.add(op, exited_ok, check)
            latencies.append(latency)
            busy += latency
            if busy >= seconds:
                break
        while len(setup) < SETUP_PROBES:
            setup.append(_setup_seconds(first.argv))
        rss_mib = child.peak_rss_mib()
    tail, pct, beyond = _tail(latencies)
    print(
        f"{workload.name}: {len(latencies)} ops in {busy:.3f} s, tail = p{pct:.2f} "
        f"({beyond} of {len(latencies)} samples beyond), failed_frac = "
        f"{tally.failed / tally.attempted:.4g}, check.max_abs_dev_EN = {tally.dev_en:.3g}, "
        f"check.max_abs_dev_D = {tally.dev_d:.3g} (tolerance {ref.TOL:g})"
    )
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            "ops_per_s": _metric(len(latencies) / busy, "1/s"),
            "op_s_p50": _metric(statistics.median(latencies), "s"),
            "op_s_tail": _metric(tail, "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mib": _metric(rss_mib, "MiB"),
        },
    }


def trace(workload: workloads.Workload, seed: int) -> dict:
    run = functools.partial(worker.run_op, worker.import_package(SRC))
    stream = workloads.op_stream(workload, seed, OUT)
    ops = [next(stream) for _ in range(workload.trace_ops)]
    tally = Tally()
    tracer = spans.Tracer()
    _run_op(run, ops[0])  # warm-up

    def timed(op: workloads.Op) -> float:
        latency, exited_ok, check = _run_op(run, op)
        tally.add(op, exited_ok, check)
        return latency

    # each op runs untraced, traced twice and untraced again, so that drift
    # in machine speed falls alike on both sides of trace.overhead_s
    a, b = spans.Trace(), spans.Trace()
    untraced = wall_a = wall_b = 0.0
    for op in ops:
        untraced += timed(op)
        tracer.install()
        try:
            tracer.trace = a
            wall_a += timed(op)
            tracer.trace = b
            wall_b += timed(op)
        finally:
            tracer.uninstall()
        untraced += timed(op)

    repeatable = a.calls() == b.calls() and a.counts == b.counts
    nested = a.nests() and b.nests()
    if not repeatable:
        print("trace self-check: the two traced passes disagree on call counts", file=sys.stderr)
    if not nested:
        print("trace self-check: a span lies outside its parent", file=sys.stderr)
    if tracer.absent:
        print(f"trace: absent from the package: {', '.join(tracer.absent)}")

    n = len(ops)
    calls = a.calls()
    self_a, self_b = a.self_times(), b.self_times()
    metrics = {}
    for i, name in enumerate(spans.SPANS):
        gone = name in tracer.absent
        metrics[f"{name}.calls"] = _metric(spans.ABSENT if gone else calls[i] / n, "count")
        metrics[f"{name}.self_s"] = _metric(
            spans.ABSENT if gone else (self_a[i] + self_b[i]) / (2 * n), "s"
        )
    for count, owner in spans.COUNTS.items():
        gone = owner in tracer.absent
        metrics[count] = _metric(spans.ABSENT if gone else a.counts[count] / n, "count")
    inv = list(spans.SPANS).index("states.exact_invariants")
    if "states.exact_invariants" in tracer.absent:
        hit_ratio = spans.ABSENT
    else:
        hit_ratio = 1.0 - a.counts["states.exact_invariants.computed"] / max(calls[inv], 1)
    metrics["states.exact_invariants.hit_ratio"] = _metric(hit_ratio, "ratio")
    metrics["trace.overhead_s"] = _metric((wall_a + wall_b - untraced) / (2 * n), "s")
    metrics["trace.ops"] = _metric(float(n), "count")
    metrics["trace.absent"] = _metric(float(len(tracer.absent)), "count")
    metrics["check.max_abs_dev_EN"] = _metric(tally.dev_en, "bit")
    metrics["check.max_abs_dev_D"] = _metric(tally.dev_d, "nat")
    print(
        f"{workload.name}: traced {n} ops per pass; per-op counts and self times are the "
        f"mean over the two traced passes (reference tolerance {ref.TOL:g})"
    )
    return {
        "correct": tally.failed == 0 and repeatable and nested,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            result = trace(workload, args.seed)
        else:
            result = measure(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
