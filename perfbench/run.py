#!/usr/bin/env python3
"""Benchmark of the eonrsa nested column-generation solver.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload desk-highs --seed 1 --seconds 40 --trace 0

It builds the workload's seeded instance batch, then solves the whole batch
in rounds until `--seconds` have passed, checking every solve against
computations made apart from the solver. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; the same
object is written to `perfbench/out/`. With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` the run alternates untraced and traced
rounds and reports the per-layer split. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
BLAS_THREADS = "1"
SETUP_REPEATS = 3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not use_checkout_sources():
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # HiGHS writes some diagnostics straight to file descriptor 1; keep them
    # out of the result line.
    native_log = OUT / f"{stem}.native.log"
    with _stdout_fd_to(native_log):
        result = run(args, stem)
    if native_log.stat().st_size == 0:
        native_log.unlink()
    if result is None:
        return 1
    line = json.dumps(result)
    (OUT / f"{stem}.json").write_text(line + "\n", encoding="utf-8")
    print(line, flush=True)
    return 0


def use_checkout_sources() -> bool:
    """Put the checkout's `src` first on the path and pin BLAS to one thread."""
    if not (SRC / "eonrsa" / "__init__.py").is_file():
        log(f"no eonrsa sources under {SRC}; run from the root of a checkout")
        return False
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # read once, when numpy loads BLAS
    sys.path.insert(0, str(SRC))
    return True


def run(args, stem: str):
    t = time.perf_counter()
    eonrsa = importlib.import_module("eonrsa")
    import_s = time.perf_counter() - t
    if not Path(eonrsa.__file__).resolve().is_relative_to(SRC.resolve()):
        log(f"eonrsa was imported from {eonrsa.__file__}, not from {SRC}")
        return None

    from workloads import WORKLOADS, warmup_instance

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return None

    build_s = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        instances = workload.instances(args.seed)
        build_s.append(time.perf_counter() - t)
    t = time.perf_counter()
    eonrsa.solve(warmup_instance(), workload.config)
    warmup_s = time.perf_counter() - t
    setup_s = import_s + statistics.median(build_s) + warmup_s

    refs = [reference_value(eonrsa, workload, inst) for inst in instances]
    tally = {"attempted": 0, "failed": 0, "wrong": 0}

    def checked_round(solve_fn) -> dict:
        times, outcomes = solve_round(instances, solve_fn, workload.config)
        reports = []
        for inst, ref, outcome in zip(instances, refs, outcomes):
            tally["attempted"] += 1
            if isinstance(outcome, BaseException):
                tally["failed"] += 1
                continue
            problems = checks.check_solve(inst, *outcome, ref, oracle=workload.tiny)
            if problems:
                tally["failed"] += 1
                tally["wrong"] += 1
                log(f"{inst.name}: " + "; ".join(problems))
            reports.append(outcome[0])
        return {
            "times": times,
            "solve_s": sum(times),
            "granted_tbps": sum(report.z_ilp_tbps for report in reports),
            "certified_runs": sum(report.certified for report in reports),
            "outer_rounds": sum(report.outer_iterations for report in reports),
        }

    tracer = None
    if args.trace:
        from tracing import Tracer, write_spans

        tracer = Tracer()
    plain, traced, layers = [], [], []
    first_spans = None
    start = time.perf_counter()
    while True:
        plain.append(checked_round(eonrsa.solve))
        if tracer is not None:
            with tracer.installed() as traced_solve:
                traced.append(checked_round(traced_solve))
            layer, spans = tracer.take_round()
            layers.append(layer)
            first_spans = first_spans or spans
        if time.perf_counter() - start >= args.seconds:
            break

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "granted_tbps": (statistics.median(row["granted_tbps"] for row in plain), "Tbps"),
            "certified_runs": (statistics.median(row["certified_runs"] for row in plain), "count"),
            "outer_rounds": (statistics.median(row["outer_rounds"] for row in plain), "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        write_spans(OUT / f"{stem}.spans.jsonl", first_spans)
        metrics = layer_report(layers, traced, plain)
    log(
        f"{args.workload} seed {args.seed}: {len(plain)} untraced round(s) of {len(instances)} "
        f"instances taking " + ", ".join(f"{row['solve_s']:.2f}" for row in plain)
        + f" s, fastest per instance summed {fastest_sum(plain):.3f} s; setup {setup_s:.3f} s "
        f"(import {import_s:.3f}, build {statistics.median(build_s):.3f}, warm-up {warmup_s:.3f})"
    )
    return {
        "correct": tally["wrong"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }


def solve_round(instances, solve_fn, config):
    """Solve every instance once; an exception is the outcome of that operation."""
    times = []
    outcomes = []
    for inst in instances:
        t = time.perf_counter()
        try:
            outcome = solve_fn(inst, config)
        except Exception as exc:  # one failed operation; the round goes on
            outcome = exc
            log(f"{inst.name}: solve raised\n{traceback.format_exc()}")
        times.append(time.perf_counter() - t)
        outcomes.append(outcome)
    return times, outcomes


def reference_value(eonrsa, workload, inst) -> float:
    """Exhaustive optimum on tiny instances, else the value of a greedy first-fit plan."""
    if workload.tiny:
        return eonrsa.oracle_solve(inst).value_slots
    grants = checks.greedy_first_fit(inst)
    value = sum(r.demand for r in inst.requests if r.id in grants)
    problems = checks.scan_plan(inst, grants, value)
    if problems:
        raise RuntimeError(f"{inst.name}: greedy plan fails the scan: {problems}")
    return value


def fastest_sum(rounds) -> float:
    """Each instance's fastest solve over the rounds, summed over the batch."""
    return sum(map(min, zip(*(row["times"] for row in rounds))))


def layer_report(layers, traced, plain) -> dict[str, tuple[float, str]]:
    from tracing import LAYER_METRICS, SELF_TIMES

    metrics = {}
    for name, unit in LAYER_METRICS.items():
        values = [layer[name] for layer in layers]
        if unit == "count" and len(set(values)) > 1:
            log(f"{name} differs between traced rounds: {values}")
        metrics[name] = (statistics.median(values), unit)
    self_sum = statistics.median(
        sum(layer[name] for name in SELF_TIMES) / row["solve_s"]
        for layer, row in zip(layers, traced)
    )
    metrics["solver.solve_s"] = (fastest_sum(plain), "s")
    metrics["trace.solve_s"] = (fastest_sum(traced), "s")
    metrics["trace.overhead_s"] = (fastest_sum(traced) - fastest_sum(plain), "s")
    metrics["trace.self_sum_pct"] = (100.0 * self_sum, "%")
    return metrics


@contextlib.contextmanager
def _stdout_fd_to(path: Path):
    """Point file descriptor 1 at `path` for the block, flushing C stdio on the way out."""
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        with open(path, "wb") as sink:
            os.dup2(sink.fileno(), 1)
            try:
                yield
            finally:
                sys.stdout.flush()
                ctypes.CDLL(None).fflush(None)
                os.dup2(saved, 1)
    finally:
        os.close(saved)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


if __name__ == "__main__":
    sys.exit(main())
