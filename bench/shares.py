"""Share of each esd-scan stratum among plain draws from the parameter box.

    python3 bench/shares.py [--draws 4000]

The per-block op counts in workloads.ESD_STRATA are set in proportion to
these shares.  The draws use the reference only, with the fixed seed
"shares".
"""

from __future__ import annotations

import argparse
import random

import reference as ref
import workloads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=4000)
    args = parser.parse_args()
    rng = random.Random("shares")
    hits = [0] * len(workloads.ESD_STRATA)
    for _ in range(args.draws):
        p = workloads.draw(rng)
        hits[workloads.esd_stratum(ref.scan_witness(p, workloads.T_MAX))] += 1
    for (lo, end, count), n in zip(workloads.ESD_STRATA, hits):
        share = n / args.draws
        print(f"[{lo}, {end}): share {share:.4f}, {share * workloads.ESD_BLOCK:.2f} "
              f"of a block of {workloads.ESD_BLOCK}, taken {count}")


if __name__ == "__main__":
    main()
