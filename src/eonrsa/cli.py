"""Command-line front end: generate instances, solve, verify against the oracle.

Exit codes: 0 success, 1 solver/runtime failure, 2 uncertified bound under
--require-certified, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from pathlib import Path as FsPath
from typing import Optional, Sequence

from .errors import EonRsaError, LimitsExceeded
from .guardband import derived_pricing_requests
from .instance import Instance, generate_inoc_style, load_instance, save_instance
from .lpsolver import BACKENDS
from .master import ProvisioningPlan
from .oracle import oracle_solve
from .solver import DEFAULT_FINAL_GAP, SolveConfig, SolveReport, solve
from .topology import BUILTIN_TOPOLOGIES, builtin_topology

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_UNCERTIFIED = 2
EXIT_USAGE = 64

# One entry per result-table column: CSV name, markdown header, and the text
# of its cell for a SolveReport. Headers, rule and rows all come from here.
COLUMNS = (
    ("instance", "Instance", lambda r: r.instance_name or "instance"),
    ("spectrum_slots", "\\|S\\|", lambda r: str(r.spectrum_slots)),
    ("num_requests", "\\|D\\|", lambda r: str(r.num_requests)),
    ("offered_load_tbps", "Load (Tbps)", lambda r: f"{r.offered_load_tbps:.1f}"),
    ("z_lp_star_tbps", "z_LP* (Tbps)", lambda r: f"{r.z_lp_star_tbps:.1f}"),
    ("z_ub_tbps", "z_UB (Tbps)", lambda r: f"{r.z_ub_tbps:.1f}"),
    ("z_ilp_tbps", "z_ILP (Tbps)", lambda r: f"{r.z_ilp_tbps:.1f}"),
    ("epsilon_pct", "eps (%)", lambda r: f"{r.epsilon_tab * 100.0:.1f}"),
    ("gos_pct", "GoS (%)", lambda r: f"{r.gos_percent:.1f}"),
    ("lp_sec", "LP (s)", lambda r: f"{r.timings['lp_phase']:.1f}"),
    ("ilp_sec", "ILP (s)", lambda r: f"{r.timings['ilp_phase']:.1f}"),
    ("total_sec", "Total (s)", lambda r: f"{r.timings['total']:.1f}"),
    ("certified", "Certified", lambda r: "yes" if r.certified else "no"),
)


def report_row(report: SolveReport) -> list[str]:
    """The cells of one result-table row, in column order."""
    return [cell(report) for _name, _header, cell in COLUMNS]


def rows_to_csv(rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([name for name, _header, _cell in COLUMNS])
    writer.writerows(rows)
    return buf.getvalue()


def rows_to_markdown(rows: Sequence[Sequence[str]]) -> str:
    header = [header for _name, header, _cell in COLUMNS]
    lines = ["| " + " | ".join(cells) + " |" for cells in (header, *rows)]
    lines.insert(1, "|" + "---|" * len(COLUMNS))
    return "\n".join(lines) + "\n"


def plan_to_json_obj(instance: Instance, plan: ProvisioningPlan) -> dict:
    return {
        "instance": instance.name,
        "throughput_slots": plan.throughput_slots,
        "throughput_gbps": plan.throughput_gbps,
        "requests": [
            {
                "request_id": k,
                "path_nodes": list(lp.path.nodes),
                "start_slot": lp.start_slot,
                "width": lp.width,
            }
            for k, lp in sorted(plan.assignments.items())
        ],
    }


def report_to_json_obj(report: SolveReport) -> dict:
    """run.json: every report field but `prune_checks`, then the two values in Tbps."""
    fields = dataclasses.asdict(report)
    del fields["prune_checks"]  # its second values are `lp_value_trace`
    return {
        "instance": fields.pop("instance_name"),
        **fields,
        "z_lp_star_tbps": report.z_lp_star_tbps,
        "z_ilp_tbps": report.z_ilp_tbps,
    }


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; the contract says 64
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _number_in(kind: type, accepts, reason: str):
    """An argparse type for a `kind` (int or float) value that `accepts(value)` holds for."""

    def parse(text: str):
        value = kind(text)
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"must be {reason}, not {value}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


_positive_int = _number_in(int, lambda v: v > 0, "a positive integer")
_positive_float = _number_in(float, lambda v: 0 < v < math.inf, "a positive finite number")
_gap = _number_in(float, lambda v: 0 <= v < 1, "a fraction in [0, 1)")
_time_limit = _number_in(float, lambda v: 0 <= v < math.inf, "finite and non-negative")


def _build_parser() -> _Parser:
    parser = _Parser(prog="eonrsa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_source(p, from_file: bool = True):
        sources = "--topology and --load-tbps"  # named when the source is missing
        if from_file:
            p.add_argument("--instance", help="instance JSON file")
            sources = "--instance, or " + sources
        else:
            p.set_defaults(instance=None)  # generate always draws a new instance
        p.set_defaults(sources=sources)
        p.add_argument("--topology", choices=BUILTIN_TOPOLOGIES, help="generate on this topology")
        p.add_argument(
            "--load-tbps", type=_positive_float, help="target offered load (Tbps, generation)"
        )
        p.add_argument("--seed", type=int, default=0, help="generation seed")
        p.add_argument("--spectrum", type=_positive_int, help="spectrum size override (slots)")

    gen = sub.add_parser("generate", help="write a seeded instance file")
    gen.set_defaults(run=cmd_generate)
    add_instance_source(gen, from_file=False)
    gen.add_argument("--out-dir", default=".", help="output directory")

    slv = sub.add_parser("solve", help="solve an instance and emit result files")
    slv.set_defaults(run=cmd_solve)
    add_instance_source(slv)
    slv.add_argument(
        "--gap", type=_gap, default=DEFAULT_FINAL_GAP, help="final ILP relative gap, in [0, 1)"
    )
    slv.add_argument("--guardband", action="store_true", help="enable the derived-request extension")
    slv.add_argument("--require-certified", action="store_true", help="exit 2 unless the bound certifies")
    slv.add_argument("--out-dir", default=".", help="output directory")
    slv.add_argument("--format", choices=("csv", "md", "json"), default="md", help="stdout format")
    slv.add_argument("--backend", choices=BACKENDS, default="bundled")
    slv.add_argument("--time-limit", type=_time_limit, default=0.0, help="wall-clock seconds, 0 = none")

    ver = sub.add_parser("verify", help="solve a tiny instance and check it against the oracle")
    ver.set_defaults(run=cmd_verify)
    add_instance_source(ver)
    ver.add_argument("--gap", type=_gap, default=0.0, help="final ILP relative gap, in [0, 1)")
    ver.add_argument("--backend", choices=BACKENDS, default="bundled")
    return parser


def _load_or_generate(args) -> Instance:
    if args.instance:
        inst = load_instance(FsPath(args.instance).read_bytes())
    elif args.topology is None or args.load_tbps is None:
        print(f"{args.command} requires {args.sources}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    else:
        topology = builtin_topology(args.topology)
        inst = generate_inoc_style(topology, args.load_tbps * 1000.0, args.seed)
    return dataclasses.replace(inst, spectrum_slots=args.spectrum or inst.spectrum_slots)


def cmd_generate(args) -> int:
    inst = _load_or_generate(args)
    out_dir = FsPath(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{inst.name}.json"
    path.write_bytes(save_instance(inst))
    print(path)
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = _load_or_generate(args)
    config = SolveConfig(
        final_ilp_relative_gap=args.gap,
        backend=args.backend,
        max_wall_clock_seconds=args.time_limit,
    )
    report, plan = solve(inst, config, derived_pricing_requests(inst) if args.guardband else None)

    row = report_row(report)
    echo = {  # one text per --format, also written to its output file
        "csv": rows_to_csv([row]),
        "md": rows_to_markdown([row]),
        "json": json.dumps(report_to_json_obj(report), indent=2) + "\n",
    }
    out_dir = FsPath(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.csv").write_text(echo["csv"])
    (out_dir / "report.md").write_text(echo["md"])
    (out_dir / "plan.json").write_text(json.dumps(plan_to_json_obj(inst, plan), indent=2) + "\n")
    (out_dir / "run.json").write_text(echo["json"])
    print(echo[args.format], end="")

    if args.require_certified and not report.certified:
        print("bound is not certified", file=sys.stderr)
        return EXIT_UNCERTIFIED
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = _load_or_generate(args)
    config = SolveConfig(final_ilp_relative_gap=args.gap, backend=args.backend)
    reference = oracle_solve(inst)  # raises LimitsExceeded before any work
    report, _plan = solve(inst, config)
    z_ilp = report.z_ilp_slots
    z_oracle = float(reference.value_slots)
    z_lp = report.z_lp_star_slots
    print(f"z_ilp={z_ilp:.6g} <= z_oracle={z_oracle:.6g} <= z_lp_star={z_lp:.6g}")
    print(f"certified={report.certified}")
    if z_ilp > z_oracle + 1e-6:
        print("BOUND VIOLATION: integral value above the oracle optimum", file=sys.stderr)
        return EXIT_FAILURE
    if report.certified and z_oracle > z_lp + 1e-6:
        print("BOUND VIOLATION: oracle optimum above the certified LP bound", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)  # the subcommand's cmd_* function
    except LimitsExceeded as exc:
        print(f"instance too large for the oracle: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (EonRsaError, OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
