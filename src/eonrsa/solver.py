"""Outer column-generation loop, optimality certification, and reporting.

The master starts from the columns of a first-fit plan (`master.first_fit`).
That plan, and a second first-fit plan with the opposite tie order that the
master never sees, floor the returned plan. One outer round: solve the master
LP (pruning dropped columns), snapshot the duals, price every starting slot
against that snapshot, add every improving configuration. A run is certified,
its final LP value a true upper bound, in one of two ways:

- the LP value meets the master's `upper_bound` (the demand that fits the
  spectrum, or the multicommodity-flow bound, computed after the first LP that
  falls short of the demand), which no LP can beat; the run stops before
  pricing those duals, also after a time-out, and when the first-fit plan
  meets either bound, after 0 rounds;
- no slot produces a column (the pricing ILP values are all zero) and every
  slot's pricing LP bound is zero too.

Slots of one round with equal window sums (`pricing_key`) share one inner solve,
its column moved to each slot; a slot where no request gains needs none. A round
stops after the slot that ends past the deadline, and then certifies nothing.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .instance import Instance
from .master import MasterDuals, PricingRequest, ProvisioningPlan, RestrictedMaster, first_fit
from .oracle import verify_plan
from .pricing import IMPROVE_TOL, PricingResult, price_slot, pricing_key

DEFAULT_FINAL_GAP = 0.1
MAX_OUTER_ROUNDS = 10_000  # a run that needs more is cycling


@dataclass(frozen=True)
class SolveConfig:
    final_ilp_relative_gap: float = DEFAULT_FINAL_GAP
    max_wall_clock_seconds: float = 0.0  # 0 = unlimited
    backend: str = "bundled"

    def __post_init__(self) -> None:
        if not 0.0 <= self.final_ilp_relative_gap < 1.0:
            raise ValueError("final_ilp_relative_gap must lie in [0, 1)")
        if not 0.0 <= self.max_wall_clock_seconds < math.inf:
            raise ValueError("max_wall_clock_seconds must be finite and non-negative")


@dataclass
class SolveReport:
    """Everything a result row needs, plus the traces invariant checks read.

    z values are in slot units with Tbps available via the helpers. `z_ub_slots`
    is the master's `upper_bound`, a bound on the optimum certified or not.
    Epsilons are fractions (table display multiplies by 100) against
    `z_lp_star_slots` when certified, else against `z_ub_slots`.
    `outer_iterations` counts priced rounds and `columns_generated` priced
    columns; the first-fit columns the master starts from are in neither.
    """

    instance_name: str
    spectrum_slots: int
    num_requests: int
    offered_load_gbps: float
    slot_rate_gbps: float
    z_lp_star_slots: float
    z_ilp_slots: int
    z_ub_slots: float
    epsilon_lp: float
    epsilon_tab: float
    gos_percent: float
    certified: bool
    timed_out: bool
    outer_iterations: int
    columns_generated: int
    final_ilp_gap: float
    timings: dict[str, float]
    lp_value_trace: list[float] = field(default_factory=list)
    prune_checks: list[tuple[float, float]] = field(default_factory=list)

    @property
    def offered_load_tbps(self) -> float:
        return self.offered_load_gbps / 1000.0

    @property
    def z_lp_star_tbps(self) -> float:
        return self.z_lp_star_slots * self.slot_rate_gbps / 1000.0

    @property
    def z_ub_tbps(self) -> float:
        return self.z_ub_slots * self.slot_rate_gbps / 1000.0

    @property
    def z_ilp_tbps(self) -> float:
        return self.z_ilp_slots * self.slot_rate_gbps / 1000.0


class Metrics(NamedTuple):
    epsilon_lp_percent: float
    epsilon_tab_percent: float
    gos_percent: float


def report_metrics(z_lp_star: float, z_ilp: float, offered_load: float) -> Metrics:
    """Quality metrics in percent (display rounds to one decimal).

    epsilon_lp divides the bound gap by z_LP*; epsilon_tab divides by the
    integral value, which is the arithmetic the result tables use. Bounds
    crossed by up to 1e-6 * (1 + |z_lp_star|) give a zero gap; wider, they raise
    (solve()'s bound check). Zero denominators give 0; zero load a GoS of 100.
    """
    if z_ilp < 0 or z_lp_star < z_ilp - 1e-6 * (1.0 + abs(z_lp_star)):
        raise ValueError(f"need z_lp_star >= z_ilp >= 0, got {z_lp_star}, {z_ilp}")
    gap = max(z_lp_star - z_ilp, 0.0)
    eps_lp = 100.0 * gap / z_lp_star if z_lp_star > 1e-12 else 0.0
    eps_tab = 100.0 * gap / z_ilp if z_ilp > 1e-12 else 0.0
    gos = 100.0 * z_ilp / offered_load if offered_load > 1e-12 else 100.0
    return Metrics(eps_lp, eps_tab, gos)


def certify(results: Sequence[PricingResult]) -> bool:
    """True when every slot's pricing LP bound vanished in the final round.

    Only then does rc_ilp = 0 prove that no improving configuration exists at
    all, making the master LP value a valid upper bound.
    """
    for res in results:
        if res.rc_ilp > IMPROVE_TOL:
            raise ValueError("certification requires a finished run (rc_ilp ~ 0 everywhere)")
    return all(res.rc_lp_star <= IMPROVE_TOL for res in results)


def _price_round(
    instance: Instance,
    duals: MasterDuals,
    slot_requests: Sequence[PricingRequest],
    deadline: Optional[float],
) -> list[PricingResult]:
    """Price the starting slots in order against one duals snapshot, one inner solve
    per distinct pricing key; slot s's result is in place s - 1, its column moved to
    slot s. The round stops after the first slot that ends past `deadline`."""
    clamped = duals.clamped()
    priced: dict[tuple, PricingResult] = {}
    results = []
    for s in range(1, instance.spectrum_slots + 1):
        key = pricing_key(instance, s, clamped, slot_requests)
        if key not in priced:
            priced[key] = price_slot(instance, s, clamped, pricing_requests=slot_requests)
        res = priced[key]
        if res.configuration is not None:
            res = dataclasses.replace(
                res, configuration=dataclasses.replace(res.configuration, start_slot=s)
            )
        results.append(res)
        if deadline is not None and time.monotonic() > deadline:
            break
    return results


def solve(
    instance: Instance,
    config: SolveConfig = SolveConfig(),
    pricing_requests: Optional[Sequence[PricingRequest]] = None,
) -> tuple[SolveReport, ProvisioningPlan]:
    """Full run: column generation, certification, final ILP, post-processing."""
    t0 = time.monotonic()
    deadline = t0 + config.max_wall_clock_seconds if config.max_wall_clock_seconds > 0 else None
    rmp = RestrictedMaster(instance, pricing_requests, backend=config.backend, deadline=deadline)
    slot_requests = list(rmp.pricing_requests.values())
    seed = first_fit(instance, slot_requests)  # in the first LP, and a floor of the plan
    for column in seed:
        rmp.add_column(column)

    lp_trace: list[float] = []
    columns_generated = 0
    outer = 0
    timed_out = met_bound = False

    while True:
        # after a timed-out round, this solve gives the bound of the final RMP
        z_lp_star, duals = rmp.solve_lp_and_prune()
        lp_trace.append(z_lp_star)
        # no LP can beat this value, so no column can raise it, time-out or not
        met_bound = rmp.meets_bound(z_lp_star)
        if met_bound or timed_out:
            break
        outer += 1
        if outer > MAX_OUTER_ROUNDS:
            raise RuntimeError(f"column generation exceeded {MAX_OUTER_ROUNDS} rounds")
        results = _price_round(instance, duals, slot_requests, deadline)
        timed_out = len(results) < instance.spectrum_slots  # a cut round certifies nothing
        improving = [r for r in results if r.configuration is not None]
        if not improving:
            break
        for res in improving:
            rmp.add_column(res.configuration)
        columns_generated += len(improving)
        timed_out = timed_out or (deadline is not None and time.monotonic() > deadline)

    certified = met_bound or (not timed_out and certify(results))
    lp_seconds = time.monotonic() - t0

    t1 = time.monotonic()
    z_ilp, selected, mip = rmp.solve_final_ilp(config.final_ilp_relative_gap, deadline=deadline)
    plan = rmp.post_process(selected)
    ilp_seconds = time.monotonic() - t1

    verify_plan(instance, plan, expected_slots=z_ilp)  # the one scan for reused cells
    # the better of two first-fit tie orders floors a weak or timed-out final ILP
    for columns in (seed, first_fit(instance, slot_requests, keys_descending=True)):
        floor = rmp.post_process(columns)
        if floor.throughput_slots > plan.throughput_slots:
            verify_plan(instance, floor)
            plan = floor
    z_ilp = plan.throughput_slots

    # an uncertified z_lp is no bound, and the second first-fit plan may exceed it
    bound = z_lp_star if certified else rmp.upper_bound
    eps = report_metrics(bound, z_ilp, instance.offered_load_gbps / instance.slot_rate_gbps)
    report = SolveReport(
        instance_name=instance.name,
        spectrum_slots=instance.spectrum_slots,
        num_requests=len(instance.requests),
        offered_load_gbps=instance.offered_load_gbps,
        slot_rate_gbps=instance.slot_rate_gbps,
        z_lp_star_slots=z_lp_star,
        z_ilp_slots=z_ilp,
        z_ub_slots=rmp.upper_bound,
        epsilon_lp=eps.epsilon_lp_percent / 100.0,
        epsilon_tab=eps.epsilon_tab_percent / 100.0,
        gos_percent=eps.gos_percent,
        certified=certified,
        timed_out=timed_out,
        outer_iterations=outer,
        columns_generated=columns_generated,
        final_ilp_gap=mip.gap if math.isfinite(mip.gap) else 1.0,
        timings={
            "lp_phase": lp_seconds,
            "ilp_phase": ilp_seconds,
            "total": time.monotonic() - t0,
        },
        lp_value_trace=lp_trace,
        prune_checks=list(rmp.prune_checks),
    )
    return report, plan

