#!/usr/bin/env python3
"""Desk-scale benchmark: solve a ladder of generated instances and print the
result table (markdown). Shapes follow the two reference recipes:

  conference  - one request per sampled node pair, demands 1..8 slots,
                spectrum sized with the pair count (fast, certifies)
  backbone    - load spread over all node pairs, demands {4,8,16} slots with
                proportions {70,20,10}%, aggregated per pair (heavier)

Examples:
  python scripts/run_benchmark.py --suite conference --backend highs
  python scripts/run_benchmark.py --suite backbone --loads 5 10 --spectrum 100
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eonrsa import (  # noqa: E402
    BUILTIN_TOPOLOGIES,
    SolveConfig,
    aggregate_per_node_pair,
    builtin_topology,
    generate_icton_style,
    generate_inoc_style,
    solve,
)
from eonrsa.cli import (  # noqa: E402
    _gap,
    _positive_float,
    _positive_int,
    report_row,
    rows_to_markdown,
)
from eonrsa.lpsolver import BACKENDS  # noqa: E402
from eonrsa.solver import DEFAULT_FINAL_GAP  # noqa: E402

CONFERENCE_LADDER = [(35, 50), (45, 60), (60, 75), (64, 85), (70, 100)]


def conference_instances(topology, seed):
    for pairs, spectrum in CONFERENCE_LADDER:
        inst = generate_icton_style(topology, num_pairs=pairs, seed=seed, spectrum_slots=spectrum)
        yield inst


def backbone_instances(topology, loads_tbps, spectrum, seed):
    for load in loads_tbps:
        inst = generate_inoc_style(
            topology, target_load_gbps=load * 1000.0, seed=seed, spectrum_slots=spectrum
        )
        aggregated, _ = aggregate_per_node_pair(inst.requests)
        yield dataclasses.replace(inst, requests=tuple(aggregated))


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--topology", default="spain21", choices=BUILTIN_TOPOLOGIES)
    parser.add_argument("--suite", default="conference", choices=("conference", "backbone"))
    parser.add_argument("--loads", type=_positive_float, nargs="*", default=[2.0, 4.0],
                        help="offered loads in Tbps (backbone suite)")
    parser.add_argument("--spectrum", type=_positive_int, default=100, help="slots (backbone suite)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--gap", type=_gap, default=DEFAULT_FINAL_GAP, help="final ILP relative gap, in [0, 1)"
    )
    parser.add_argument("--backend", default="highs", choices=BACKENDS)
    args = parser.parse_args()

    topology = builtin_topology(args.topology)
    if args.suite == "conference":
        instances = conference_instances(topology, args.seed)
    else:
        instances = backbone_instances(topology, args.loads, args.spectrum, args.seed)

    config = SolveConfig(final_ilp_relative_gap=args.gap, backend=args.backend)
    rows = []
    for inst in instances:
        t0 = time.monotonic()
        report, _plan = solve(inst, config)
        rows.append(report_row(report))
        print(
            f"# {inst.name}: {time.monotonic() - t0:.1f}s, "
            f"z_lp {report.z_lp_star_tbps:.2f} Tbps, z_ilp {report.z_ilp_tbps:.2f} Tbps, "
            f"eps {report.epsilon_tab * 100:.1f}%, certified {report.certified}",
            file=sys.stderr,
        )
    print(rows_to_markdown(rows), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
