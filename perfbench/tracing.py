"""Span tracing around eonrsa's layer entry points, installed from outside the package.

`Tracer.installed()` swaps each traced function for a wrapper that records a
span (name, start, end, parent) and restores the originals on exit. Spans stay
in memory; `layer_metrics` folds one round's spans into the per-layer figures,
splitting the model calls by the span that caused them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict

import numpy as np

import eonrsa
import eonrsa.pricing
import eonrsa.solver
from eonrsa import Model, PricingRequest, RestrictedMaster

ROOT = "solve"

# Layer of each span name, for its self time.
LAYER = {
    ROOT: "solver",
    "solve_lp_and_prune": "master",
    "solve_final_ilp": "master",
    "post_process": "master",
    "price_slot": "pricing",
    "shortest_path": "topology",
    "verify_plan": "oracle",
    "solve_lp": "lpsolver",
    "solve_mip": "lpsolver",
}

# Stem of the `_calls` and `_s` totals of a span. A model call is keyed by
# (name, parent name): it belongs to the span that caused it.
TOTALS = {
    ROOT: "solve",
    "solve_lp_and_prune": "master.lp_and_prune",
    "post_process": "master.post_process",
    "price_slot": "pricing.price_slot",
    "shortest_path": "topology.shortest_path",
    "verify_plan": "oracle.verify_plan",
    ("solve_lp", "solve_lp_and_prune"): "lpsolver.master_lp",
    ("solve_lp", "price_slot"): "lpsolver.inner_lp",
    ("solve_mip", "price_slot"): "lpsolver.inner_mip",
    ("solve_mip", "solve_final_ilp"): "lpsolver.final_mip",
}

# Every per-layer metric a traced round yields, in report order, with its unit.
LAYER_METRICS = {
    "solver.outer_rounds": "count",
    "solver.columns_added": "count",
    "solver.self_s": "s",
    "master.lp_and_prune_s": "s",
    "master.self_s": "s",
    "master.rows": "count",
    "master.columns_final": "count",
    "master.post_process_s": "s",
    "lpsolver.master_lp_calls": "count",
    "lpsolver.master_lp_s": "s",
    "lpsolver.final_mip_s": "s",
    "lpsolver.inner_lp_calls": "count",
    "lpsolver.inner_lp_s": "s",
    "lpsolver.inner_mip_calls": "count",
    "lpsolver.inner_mip_s": "s",
    "pricing.price_slot_calls": "count",
    "pricing.price_slot_s": "s",
    "pricing.self_s": "s",
    "pricing.improving_slots": "count",
    "pricing.distinct_inputs": "count",
    "topology.shortest_path_calls": "count",
    "topology.shortest_path_s": "s",
    "oracle.verify_plan_s": "s",
}


# Self time of every layer; together they partition the root spans.
SELF_TIMES = tuple(f"{layer}.self_s" for layer in dict.fromkeys(LAYER.values()))


class Tracer:
    """Records spans in call order; `parent` is the index of the enclosing span."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._round_duals = None
        self._round_keys: set = set()

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer entry points for the duration of the block."""
        patches = [
            (eonrsa.solver, "price_slot", self._after_price_slot),
            (eonrsa.solver, "verify_plan", None),
            (eonrsa.pricing, "shortest_path", None),
            (Model, "solve_lp", None),
            (Model, "solve_mip", None),
            (RestrictedMaster, "solve_lp_and_prune", None),
            (RestrictedMaster, "solve_final_ilp", self._after_final_ilp),
            (RestrictedMaster, "post_process", None),
        ]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, after in patches:
                setattr(owner, attr, self.wrap(attr, getattr(owner, attr), after))
            yield self.wrap(ROOT, eonrsa.solve, self._after_solve)
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)
            self._close_outer_round()

    # -- counters recorded at the span boundaries ------------------------------

    def _after_solve(self, args, kwargs, result) -> None:
        report, _plan = result
        self.counts["solver.outer_rounds"] += report.outer_iterations
        self.counts["solver.columns_added"] += report.columns_generated

    def _after_final_ilp(self, args, kwargs, result) -> None:
        rmp = args[0]
        self.counts["master.rows"] += rmp.model.num_constraints
        self.counts["master.columns_final"] += rmp.num_columns

    def _after_price_slot(self, args, kwargs, result) -> None:
        instance, s, duals = args[:3]
        if result.configuration is not None:
            self.counts["pricing.improving_slots"] += 1
        # The solver prices every slot of an outer round against one duals snapshot.
        if duals is not self._round_duals:
            self._close_outer_round()
            self._round_duals = duals
        self._round_keys.add(_pricing_input_key(instance, s, duals, kwargs.get("pricing_requests")))

    def _close_outer_round(self) -> None:
        self.counts["pricing.distinct_inputs"] += len(self._round_keys)
        self._round_keys = set()
        self._round_duals = None

    # -- folding spans into per-layer figures -----------------------------------

    def take_round(self) -> tuple[dict[str, float], list[tuple[str, float, float, int]]]:
        """Per-layer metrics of the spans and counts recorded since the last call."""
        self._close_outer_round()
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return layer_metrics(spans, counts), spans


def _pricing_input_key(instance, s, duals, pricing_requests):
    """Everything `price_slot` reads: eligible requests, clamped window sums, clamped mu."""
    if pricing_requests is None:
        pricing_requests = [PricingRequest.from_request(r) for r in instance.requests]
    eligible = [p for p in pricing_requests if s + p.width - 1 <= instance.spectrum_slots]
    widths = sorted({p.width for p in eligible})
    windows = tuple(
        (w, np.maximum(duals.mu_cell[:, s - 1 : s - 1 + w], 0.0).sum(axis=1).tobytes())
        for w in widths
    )
    mu = tuple(
        (k, max(duals.mu_request.get(k, 0.0), 0.0)) for p in eligible for k in p.members
    )
    return frozenset(p.key for p in eligible), windows, tuple(sorted(mu))


def layer_metrics(spans, counts) -> dict[str, float]:
    child_s = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        out[f"{LAYER[name]}.self_s"] += dur - child_s[idx]
        key = name
        if LAYER[name] == "lpsolver":
            key = (name, spans[parent][0] if parent >= 0 else None)
            if key not in TOTALS:
                raise RuntimeError(f"{name} called outside a traced layer span")
        stem = TOTALS.get(key)
        if stem is not None:
            out[f"{stem}_calls"] += 1
            out[f"{stem}_s"] += dur
    out.update(counts)
    metrics = {k: out.get(k, 0.0) for k in (*LAYER_METRICS, *SELF_TIMES, "solve_s")}
    return {k: int(v) if LAYER_METRICS.get(k) == "count" else v for k, v in metrics.items()}


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent in spans:
            fh.write(json.dumps([name, start, end, parent]) + "\n")
