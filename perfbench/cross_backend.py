#!/usr/bin/env python3
"""Recompute a workload's certified LP bounds on the other master backend.

    python3 perfbench/cross_backend.py --workload desk-highs --seed 1

Solves every instance of the workload's batch for that seed with the
workload's backend and with the other one, and prints z_lp for both. The LP
optimum is unique, so two certified bounds must agree; the script exits with
1 when one pair differs.
"""

from __future__ import annotations

import argparse
import sys

from checks import TOL
from run import use_checkout_sources


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if not use_checkout_sources():
        return 2

    from dataclasses import replace

    import eonrsa
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    own = workload.config
    other = replace(own, backend="bundled" if own.backend == "highs" else "highs")
    disagree = 0
    print(f"{'instance':32s} {own.backend:>10s} {other.backend:>10s}")
    for inst in workload.instances(args.seed):
        a, _ = eonrsa.solve(inst, own)
        b, _ = eonrsa.solve(inst, other)
        both = a.certified and b.certified
        differ = both and abs(a.z_lp_star_slots - b.z_lp_star_slots) > TOL * (1 + a.z_lp_star_slots)
        disagree += differ
        note = "DIFFER" if differ else ("" if both else "not both certified")
        print(f"{inst.name:32s} {a.z_lp_star_slots:10.4f} {b.z_lp_star_slots:10.4f} {note}")
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())
