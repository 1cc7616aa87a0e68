"""Run every workload on several seeds and summarise each metric's spread.

    python3 bench/baseline.py --seeds 10 [--out bench/baseline.json]

Run from the root of a source checkout.  Seeds 1..N run with ``--trace 0``
and the run length from BENCHMARK.json, one run of each workload per seed in
turn, so a slow spell of a shared machine falls on every workload alike.
One ``--trace 1`` run per workload follows on seed 1.  For each end-to-end
metric the summary gives the median and the quartiles of the N values and
the quartile distance as a share of the median (``iqr_share``), as
``statistics.quantiles(values, n=4)`` computes them.  With ``--out`` the
summary, the traced per-layer values and the provenance (commit, Python and
numpy versions, CPU count) are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import workloads

ROOT = Path.cwd()
RUN = Path(__file__).with_name("run.py")


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="run seeds 1..N")
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    values: dict[str, dict[str, list[float]]] = {name: {} for name in names}
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for seed in range(1, args.seeds + 1):
        for name in names:
            result = _run(name, seed, seconds, 0)
            runs[name].append({k: result[k] for k in ("correct", "attempted", "failed")})
            for metric, entry in result["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
            print(f"seed {seed} {name}: " + ", ".join(
                f"{m}={e['value']:.4g}" for m, e in result["metrics"].items()), flush=True)

    summary: dict[str, dict] = {}
    for name in names:
        summary[name] = {"runs": runs[name], "end_to_end": {}}
        for metric, vals in values[name].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / statistics.median(vals)
            summary[name]["end_to_end"][metric] = {
                "median": statistics.median(vals), "q1": q1, "q3": q3, "iqr_share": share,
                "values": vals,
            }
            print(f"{name:13s} {metric:13s} median {statistics.median(vals):.5g} "
                  f"iqr_share {share:.3f}")
        traced = _run(name, 1, seconds, 1)
        summary[name]["per_layer_seed_1"] = {
            "correct": traced["correct"],
            **{m: e["value"] for m, e in traced["metrics"].items()},
        }
        print(f"{name}: traced run correct={traced['correct']}", flush=True)

    if args.out:
        report = {
            "commit": _commit(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.processor() or platform.machine(),
            "run_seconds": seconds,
            "seeds": list(range(1, args.seeds + 1)),
            "parameter_box": workloads.BOX,
            "workloads": summary,
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
