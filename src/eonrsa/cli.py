"""Command-line front end: generate instances, solve, verify against the oracle.

Exit codes: 0 success, 1 solver/runtime failure, 2 uncertified bound under
--require-certified, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import Optional, Sequence

from .errors import EonRsaError, LimitsExceeded
from .guardband import solve_extended
from .instance import Instance, generate_inoc_style, load_instance, save_instance
from .master import ProvisioningPlan
from .oracle import OracleLimits, oracle_solve
from .solver import SolveConfig, SolveReport, solve
from .topology import BUILTIN_TOPOLOGIES, builtin_topology

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_UNCERTIFIED = 2
EXIT_USAGE = 64

CSV_COLUMNS = [
    "instance",
    "spectrum_slots",
    "num_requests",
    "offered_load_tbps",
    "z_lp_star_tbps",
    "z_ilp_tbps",
    "epsilon_pct",
    "gos_pct",
    "lp_sec",
    "ilp_sec",
    "total_sec",
    "certified",
]

MD_HEADER = (
    "| Instance | \\|S\\| | \\|D\\| | Load (Tbps) | z_LP* (Tbps) | z_ILP (Tbps) "
    "| eps (%) | GoS (%) | LP (s) | ILP (s) | Total (s) | Certified |"
)


@dataclass(frozen=True)
class RunRow:
    """One result-table row; column set and order mirror the CSV schema."""

    instance: str
    spectrum_slots: int
    num_requests: int
    offered_load_tbps: float
    z_lp_star_tbps: float
    z_ilp_tbps: float
    epsilon_pct: float
    gos_pct: float
    lp_sec: float
    ilp_sec: float
    total_sec: float
    certified: bool

    @staticmethod
    def from_report(report: SolveReport) -> "RunRow":
        return RunRow(
            instance=report.instance_name or "instance",
            spectrum_slots=report.spectrum_slots,
            num_requests=report.num_requests,
            offered_load_tbps=round(report.offered_load_tbps, 1),
            z_lp_star_tbps=round(report.z_lp_star_tbps, 1),
            z_ilp_tbps=round(report.z_ilp_tbps, 1),
            epsilon_pct=round(report.epsilon_tab * 100.0, 1),
            gos_pct=round(report.gos_percent, 1),
            lp_sec=round(report.timings["lp_phase"], 1),
            ilp_sec=round(report.timings["ilp_phase"], 1),
            total_sec=round(report.timings["total"], 1),
            certified=report.certified,
        )

    def to_csv_values(self) -> list[str]:
        return [
            self.instance,
            str(self.spectrum_slots),
            str(self.num_requests),
            f"{self.offered_load_tbps:.1f}",
            f"{self.z_lp_star_tbps:.1f}",
            f"{self.z_ilp_tbps:.1f}",
            f"{self.epsilon_pct:.1f}",
            f"{self.gos_pct:.1f}",
            f"{self.lp_sec:.1f}",
            f"{self.ilp_sec:.1f}",
            f"{self.total_sec:.1f}",
            "yes" if self.certified else "no",
        ]

    @staticmethod
    def from_csv_values(values: Sequence[str]) -> "RunRow":
        return RunRow(
            instance=values[0],
            spectrum_slots=int(values[1]),
            num_requests=int(values[2]),
            offered_load_tbps=float(values[3]),
            z_lp_star_tbps=float(values[4]),
            z_ilp_tbps=float(values[5]),
            epsilon_pct=float(values[6]),
            gos_pct=float(values[7]),
            lp_sec=float(values[8]),
            ilp_sec=float(values[9]),
            total_sec=float(values[10]),
            certified=values[11] == "yes",
        )

    def to_markdown(self) -> str:
        v = self.to_csv_values()
        return "| " + " | ".join(v) + " |"


def rows_to_csv(rows: Sequence[RunRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.to_csv_values())
    return buf.getvalue()


def rows_from_csv(text: str) -> list[RunRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header: {header}")
    return [RunRow.from_csv_values(values) for values in reader if values]


def rows_to_markdown(rows: Sequence[RunRow]) -> str:
    lines = [MD_HEADER, "|" + "---|" * len(CSV_COLUMNS)]
    lines.extend(row.to_markdown() for row in rows)
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
    return {
        "instance": report.instance_name,
        "spectrum_slots": report.spectrum_slots,
        "num_requests": report.num_requests,
        "offered_load_gbps": report.offered_load_gbps,
        "slot_rate_gbps": report.slot_rate_gbps,
        "z_lp_star_slots": report.z_lp_star_slots,
        "z_ilp_slots": report.z_ilp_slots,
        "z_lp_star_tbps": report.z_lp_star_tbps,
        "z_ilp_tbps": report.z_ilp_tbps,
        "epsilon_lp": report.epsilon_lp,
        "epsilon_tab": report.epsilon_tab,
        "gos_percent": report.gos_percent,
        "certified": report.certified,
        "timed_out": report.timed_out,
        "outer_iterations": report.outer_iterations,
        "columns_generated": report.columns_generated,
        "final_ilp_gap": report.final_ilp_gap,
        "timings": report.timings,
        "lp_value_trace": report.lp_value_trace,
    }


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; the contract says 64
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, not {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="eonrsa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_source(p, from_file: bool = True):
        if from_file:
            p.add_argument("--instance", help="instance JSON file")
        else:
            p.set_defaults(instance=None)  # generate always draws a new instance
        p.add_argument("--topology", choices=BUILTIN_TOPOLOGIES, help="generate on this topology")
        p.add_argument(
            "--load-tbps", type=_positive_float, help="target offered load (Tbps, generation)"
        )
        p.add_argument("--seed", type=int, default=0, help="generation seed")
        p.add_argument("--spectrum", type=_positive_int, help="spectrum size override (slots)")

    gen = sub.add_parser("generate", help="write a seeded instance file")
    add_instance_source(gen, from_file=False)
    gen.add_argument("--out-dir", default=".", help="output directory")

    slv = sub.add_parser("solve", help="solve an instance and emit result files")
    add_instance_source(slv)
    slv.add_argument("--gap", type=float, default=0.1, help="final ILP relative gap")
    slv.add_argument("--guardband", action="store_true", help="enable the derived-request extension")
    slv.add_argument("--require-certified", action="store_true", help="exit 2 unless the bound certifies")
    slv.add_argument("--out-dir", default=".", help="output directory")
    slv.add_argument("--format", choices=("csv", "md", "json"), default="md", help="stdout format")
    slv.add_argument("--backend", choices=("bundled", "highs"), default="bundled")
    slv.add_argument("--time-limit", type=float, default=0.0, help="wall-clock budget (s), 0 = none")

    ver = sub.add_parser("verify", help="solve a tiny instance and check it against the oracle")
    add_instance_source(ver)
    ver.add_argument("--gap", type=float, default=0.0, help="final ILP relative gap")
    ver.add_argument("--backend", choices=("bundled", "highs"), default="bundled")
    return parser


def _load_or_generate(args) -> Instance:
    if args.instance:
        inst = load_instance(FsPath(args.instance).read_bytes())
        return inst if args.spectrum is None else inst.with_spectrum(args.spectrum)
    if args.topology is None or args.load_tbps is None:
        print(f"{args.command} requires --instance, or --topology and --load-tbps", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return generate_inoc_style(
        builtin_topology(args.topology),
        target_load_gbps=args.load_tbps * 1000.0,
        seed=args.seed,
        spectrum_slots=400 if args.spectrum is None else args.spectrum,
    )


def cmd_generate(args) -> int:
    if args.topology is None or args.load_tbps is None:
        print("generate requires --topology and --load-tbps", file=sys.stderr)
        return EXIT_USAGE
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
    if args.guardband:
        report, plan = solve_extended(inst, config)
    else:
        report, plan = solve(inst, config)

    out_dir = FsPath(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    row = RunRow.from_report(report)
    (out_dir / "report.csv").write_text(rows_to_csv([row]))
    (out_dir / "report.md").write_text(rows_to_markdown([row]))
    (out_dir / "plan.json").write_text(json.dumps(plan_to_json_obj(inst, plan), indent=2) + "\n")
    (out_dir / "run.json").write_text(json.dumps(report_to_json_obj(report), indent=2) + "\n")

    if args.format == "csv":
        print(rows_to_csv([row]), end="")
    elif args.format == "json":
        print(json.dumps(report_to_json_obj(report), indent=2))
    else:
        print(rows_to_markdown([row]), end="")

    if args.require_certified and not report.certified:
        print("bound is not certified", file=sys.stderr)
        return EXIT_UNCERTIFIED
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = _load_or_generate(args)
    config = SolveConfig(final_ilp_relative_gap=args.gap, backend=args.backend)
    reference = oracle_solve(inst, OracleLimits())  # raises LimitsExceeded before any work
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
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "verify":
            return cmd_verify(args)
    except LimitsExceeded as exc:
        print(f"instance too large for the oracle: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (EonRsaError, OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
