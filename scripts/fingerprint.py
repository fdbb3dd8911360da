#!/usr/bin/env python3
"""Fingerprint solver results on the deterministic ladder, one sha256 per case.

Run from the root of a checkout:

    python3 scripts/fingerprint.py              # every case
    python3 scripts/fingerprint.py tiny-3 desk  # cases whose name contains a word

Each line is `<case> <sha256>`. A case's hash covers the `repr` of
`lp_value_trace`, `prune_checks`, `columns_generated`, `outer_iterations`,
`z_lp`, `z_ilp`, `certified` and the sorted plan assignments of every instance
it solves, so two checkouts that print the same lines gave byte-identical
results. The cases are:

  tiny-<i>-<backend>   tests/conftest.make_random_tiny_instance(i), i in 0..39,
                       gap 0, on both backends;
  acceptance-8-<backend>
                       spain21, 35 pairs, 50 slots, seed 1, default settings;
  congested-bundled    spain21, 20 pairs, 12 slots, seed 1, default settings;
  congested-highs      spain21, 25 pairs, 16 slots, seed 1, default settings;
                       they price 8 and 4 rounds, each meets the flow
                       bound (79.5 and 104), and on HiGHS the start plan
                       beats the final ILP;
  desk-highs, tiny-oracle
                       the seed-1 batches of perfbench/workloads.py, solved in
                       order with the workload's settings;
  guardband-tri-<backend>
                       triangle a-b-c, 3 slots, requests (a,c,2), (a,b,2) and
                       (c,a,3), with derived_pricing_requests at gap 0: no flow
                       bound, so it certifies by pricing, below its demand of 7;
  check-oracle, check-desk
                       the tiny-oracle and desk-highs batches of seeds 1..10;
  check-small-<backend>
                       make_random_tiny_instance(i), i in 0..199, gap 0.

The four check-* cases are the 2,520 check solves, one hash each over their
solves in order; their names contain none of the words tiny, acceptance and
congested, so those words select what they did before.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from conftest import make_random_tiny_instance  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from eonrsa import (  # noqa: E402
    Instance,
    Request,
    SolveConfig,
    Topology,
    builtin_topology,
    derived_pricing_requests,
    generate_icton_style,
    solve,
)

BACKENDS = ("bundled", "highs")
TINY_SEEDS = range(40)
CHECK_SEEDS = range(1, 11)  # workload seeds of check-oracle and check-desk
CHECK_SMALL = range(200)  # tiny instances of check-small-<backend>


def _guardband_triangle(config: SolveConfig) -> tuple:
    """The `solve` arguments of the guardband-tri case under `config`."""
    links = (("a", "b"), ("b", "c"), ("a", "c"))
    requests = (Request(0, "a", "c", 2), Request(1, "a", "b", 2), Request(2, "c", "a", 3))
    topology = Topology(name="triangle", nodes=("a", "b", "c"), links=links)
    inst = Instance(topology=topology, spectrum_slots=3, requests=requests)
    return inst, config, derived_pricing_requests(inst)


def cases():
    """(name, thunk) pairs; each thunk returns the argument tuples of its `solve` calls."""
    tiny = SolveConfig(final_ilp_relative_gap=0.0)
    for i in TINY_SEEDS:
        for backend in BACKENDS:
            yield f"tiny-{i}-{backend}", lambda i=i, b=backend: [
                (make_random_tiny_instance(i), dataclasses.replace(tiny, backend=b))
            ]
    for backend in BACKENDS:
        yield f"acceptance-8-{backend}", lambda b=backend: [(
            generate_icton_style(builtin_topology("spain21"), num_pairs=35, seed=1, spectrum_slots=50),
            SolveConfig(backend=b),
        )]
    for backend, pairs, slots in (("bundled", 20, 12), ("highs", 25, 16)):
        yield f"congested-{backend}", lambda b=backend, n=pairs, s=slots: [(
            generate_icton_style(builtin_topology("spain21"), num_pairs=n, seed=1, spectrum_slots=s),
            SolveConfig(backend=b),
        )]
    for name in ("desk-highs", "tiny-oracle"):
        yield name, lambda w=WORKLOADS[name]: [(inst, w.config) for inst in w.instances(1)]
    for backend in BACKENDS:
        yield f"guardband-tri-{backend}", lambda b=backend: [
            _guardband_triangle(dataclasses.replace(tiny, backend=b))
        ]
    for name, workload in (("check-oracle", "tiny-oracle"), ("check-desk", "desk-highs")):
        yield name, lambda w=WORKLOADS[workload]: [
            (inst, w.config) for seed in CHECK_SEEDS for inst in w.instances(seed)
        ]
    for backend in BACKENDS:
        yield f"check-small-{backend}", lambda b=backend: [
            (make_random_tiny_instance(i), dataclasses.replace(tiny, backend=b)) for i in CHECK_SMALL
        ]


def fingerprint(report, plan) -> str:
    assignments = sorted(
        (k, lp.request_key, lp.path.links, lp.start_slot, lp.width)
        for k, lp in plan.assignments.items()
    )
    return repr((
        report.lp_value_trace,
        report.prune_checks,
        report.columns_generated,
        report.outer_iterations,
        report.z_lp_star_slots,
        report.z_ilp_slots,
        report.certified,
        assignments,
    ))


def main(words: list[str]) -> int:
    for name, build in cases():
        if words and not any(word in name for word in words):
            continue
        digest = hashlib.sha256()
        for args in build():
            digest.update(fingerprint(*solve(*args)).encode())
        print(f"{name} {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
