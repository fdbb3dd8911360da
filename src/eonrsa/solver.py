"""Outer column-generation loop, optimality certification, and reporting.

The start plan is the best of several first-fit plans (`master.first_fit`),
widest request first: ties by key ascending, then descending, then shuffled by
`random.Random(0)`. The passes stop at the first plan that meets the master's
`upper_bound`, once every order of equal widths has run, at the deadline, or
after FIRST_FIT_PASSES. Its columns seed the master before the first LP, only on
the path that solves one; a plan that meets the bound has them only validated.
Where the first LP falls short of the bound and the deadline has not passed, the
master gets every single-lightpath column (`master.lightpath_columns`), and its
LP is solved again before any round is priced; its prune drops the seeded columns
that are not basic. One outer round: solve the master LP (pruning dropped
columns), snapshot the duals, price every starting slot against that snapshot,
add every improving configuration, and offer each one at the other start slots
where it prices too (at most SHARED_PER_SLOT a slot). A run is certified, its
final LP value a true upper bound, in one of two ways:

- the LP value meets the master's `upper_bound` (the demand that fits the
  spectrum, or the multicommodity-flow bound, computed after the first LP that
  falls short of the demand), which no LP can beat; the run stops before
  pricing those duals, also after a time-out, and when the LP with the start
  plan or the seeded columns meets either bound, after 0 rounds. A start plan
  that grants all the demand that fits fixes that value (plan <= LP <= demand),
  so no LP runs at all and the LP traces stay empty;
- no slot produces a column (the pricing ILP values are all zero) and every
  slot's pricing LP bound is zero too.

Slots of one round with equal window sums (`pricing_key`) share one inner solve,
its column moved to each slot; a slot where no request gains needs none. Its inner
LPs and ILP stop at the deadline, and the round after the slot that ends past it,
and then certifies nothing; a cut inner LP leaves its slot's LP bound infinite. No
round, and no seeding, starts after a master LP that ends past it.

The returned plan is the first of the greatest value among the start plan, the
final ILP's plan, and first-fit passes that take first the requests the last LP
grants most, searched in that order until one meets the bound (the certified
z_lp, else `upper_bound`) or the deadline passes. A start plan that meets it
skips the final ILP, and so does a deadline that has passed; a final ILP that
starts stops at the deadline. The master never sees the passes' columns. The LP
value trace is the second value of each prune check.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .instance import Instance
from .master import (
    Configuration,
    MasterDuals,
    PricingRequest,
    ProvisioningPlan,
    RestrictedMaster,
    first_fit,
    lightpath_columns,
    validate_configuration,
)
from .oracle import verify_plan
from .pricing import IMPROVE_TOL, PricingResult, price_slot, pricing_key

DEFAULT_FINAL_GAP = 0.1
MAX_OUTER_ROUNDS = 10_000  # a run that needs more is cycling
FIRST_FIT_PASSES = 20  # the most first-fit passes before pricing, and again after it
SHARED_PER_SLOT = 8  # the most shared columns a start slot gets in one round


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
    columns, shared ones included; the start plan's columns and the seeded
    single-lightpath columns are in neither.
    `final_ilp_gap` and `timings["ilp_phase"]` are the final ILP's proven gap and
    its time with post-processing; 0 where a start plan that meets the bound skips
    it, a gap of 1.0 in 0 s where the deadline does, and a gap of 1.0 where it
    ends with no incumbent.
    `lp_value_trace` reads the second value of each `prune_checks` pair. Where the
    start plan grants all the demand that fits, no LP runs: both are empty,
    `z_lp_star_slots` equals `z_ub_slots`, and `timings["lp_phase"]` covers only
    the start passes.
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
    prune_checks: list[tuple[float, float]] = field(default_factory=list)

    @property
    def lp_value_trace(self) -> list[float]:
        return [after for _, after in self.prune_checks]

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
    deadline: float,
) -> list[PricingResult]:
    """Price the starting slots in order against one clamped duals snapshot, one inner
    solve per distinct pricing key; slot s's result is in place s - 1, its column moved
    to slot s. The inner solves stop at `deadline`, and the round after the first slot
    that ends past it."""
    priced: dict[tuple, PricingResult] = {}
    results = []
    for s in range(1, instance.spectrum_slots + 1):
        key = pricing_key(instance, s, duals, slot_requests)
        if key not in priced:
            priced[key] = price_slot(
                instance, s, duals, pricing_requests=slot_requests, deadline=deadline
            )
        res = priced[key]
        if res.configuration is not None:
            res = dataclasses.replace(
                res, configuration=dataclasses.replace(res.configuration, start_slot=s)
            )
        results.append(res)
        if time.monotonic() > deadline:
            break
    return results


def _shared_columns(
    instance: Instance, duals: MasterDuals, improving: Sequence[Configuration]
) -> list[Configuration]:
    """Each improving configuration at the other start slots where its widest window
    fits and its reduced cost under the clamped `duals` exceeds IMPROVE_TOL; per slot at
    most SHARED_PER_SLOT of them, highest reduced cost first, and no two alike."""
    import numpy as np

    slots = instance.spectrum_slots
    mu = np.zeros((instance.topology.num_links, slots + 1))
    np.cumsum(duals.mu_cell, axis=1, out=mu[:, 1:])
    # the routes of a configuration, as a set -> (the routes first seen, the slots they priced at)
    priced: dict[frozenset, tuple[tuple, set[int]]] = {}
    for config in improving:
        routes = config.routes
        priced.setdefault(frozenset(routes), (routes, set()))[1].add(config.start_slot)
    offers: dict[int, list[tuple[float, int, tuple]]] = {}
    for rank, (routes, at) in enumerate(priced.values()):
        starts = slots - max(req.width for req, _ in routes) + 1
        gain = sum(duals.mu_request.get(k, 0.0) for req, _ in routes for k in req.members)
        rc = np.full(starts, gain)
        for req, path in routes:
            links = list(path.links)
            rc -= (mu[links, req.width : req.width + starts] - mu[links, :starts]).sum(axis=0)
        for i in np.flatnonzero(rc > IMPROVE_TOL).tolist():
            if i + 1 not in at:
                offers.setdefault(i + 1, []).append((-float(rc[i]), rank, routes))
    return [
        Configuration(s, routes)
        for s in sorted(offers)
        for _, _, routes in sorted(offers[s])[:SHARED_PER_SLOT]
    ]


def _first_fit_orders(
    requests: Sequence[PricingRequest], rank: Callable[[PricingRequest], tuple], fixed=()
) -> Iterator[list[PricingRequest]]:
    """Distinct request orders by ascending `rank`: the `fixed` ones, then ties shuffled by
    random.Random(0). They stop after FIRST_FIT_PASSES orders, or when none is left: there
    are prod(n!) over the groups of n requests of equal rank."""
    groups = Counter(rank(p) for p in requests).values()
    limit = min(FIRST_FIT_PASSES, math.prod(math.factorial(n) for n in groups))
    rng, seen = random.Random(0), set()

    def shuffled() -> Iterator[list[PricingRequest]]:
        while True:
            order = list(requests)
            rng.shuffle(order)
            yield sorted(order, key=rank)  # a stable sort keeps the shuffled ties

    for order in itertools.chain(fixed, shuffled()):
        if len(seen) >= limit:
            return
        keys = tuple(p.key for p in order)
        if keys not in seen:
            seen.add(keys)
            yield order


def solve(
    instance: Instance,
    config: SolveConfig = SolveConfig(),
    pricing_requests: Optional[Sequence[PricingRequest]] = None,
) -> tuple[SolveReport, ProvisioningPlan]:
    """Full run: column generation, certification, then the plan search."""
    t0 = time.monotonic()
    deadline = t0 + (config.max_wall_clock_seconds or math.inf)  # 0 s: no limit
    rmp = RestrictedMaster(instance, pricing_requests, backend=config.backend, deadline=deadline)
    slot_requests = list(rmp.pricing_requests.values())

    def past_deadline() -> bool:
        return time.monotonic() > deadline

    def meets(slots: int, bound: float) -> bool:  # no plan within `bound` grants more
        return slots >= math.floor(bound + 1e-6 * (1.0 + bound))

    def best_of(best: list, candidates: Iterator[list], bound: float) -> list:
        """`best`, or the first candidate plan, as columns, that serves more than all before
        it, searched until the best meets `bound`, the deadline passes or none is left."""
        value = rmp.served_slots(best)
        while not (meets(value, bound) or past_deadline()):
            candidate = next(candidates, None)
            if candidate is None:
                break
            if (slots := rmp.served_slots(candidate)) > value:
                best, value = candidate, slots
        return best

    # the start plan: the best of first-fit passes, widest first
    by_key = [sorted(slot_requests, key=lambda p: (-p.width, sign * p.key)) for sign in (1, -1)]
    orders = _first_fit_orders(slot_requests, lambda p: (-p.width,), by_key)
    starts = (first_fit(instance, order) for order in orders)
    start = best_of(next(starts), starts, rmp.upper_bound)
    columns_generated = outer = 0
    timed_out = False
    # plan value <= LP <= the demand that fits: a start plan that meets it fixes the LP value
    z_lp_star = rmp.upper_bound
    met_bound = meets(rmp.served_slots(start), z_lp_star)
    for column in start:  # checked as the master checks a column; added only if an LP runs
        if met_bound:
            validate_configuration(column, instance.spectrum_slots, rmp.pricing_requests)
        else:
            rmp.add_column(column)

    while not met_bound:
        # after a timed-out round, this solve gives the bound of the final RMP
        z_lp_star, duals = rmp.solve_lp_and_prune()
        # no LP can beat this value, so no column can raise it, time-out or not
        met_bound = rmp.meets_bound(z_lp_star)
        timed_out = timed_out or past_deadline()  # no round starts past the deadline
        if met_bound or timed_out:
            break
        if len(rmp.prune_checks) == 1:
            # every single-lightpath column; the LP is solved once more, unpriced
            for column in lightpath_columns(instance, slot_requests):
                rmp.add_column(column)
            continue
        outer += 1
        if outer > MAX_OUTER_ROUNDS:
            raise RuntimeError(f"column generation exceeded {MAX_OUTER_ROUNDS} rounds")
        clamped = duals.clamped()  # one snapshot for the round's slots and shared columns
        results = _price_round(instance, clamped, slot_requests, deadline)
        timed_out = len(results) < instance.spectrum_slots  # a cut round certifies nothing
        improving = [r.configuration for r in results if r.configuration is not None]
        if not improving:
            break
        added = improving + _shared_columns(instance, clamped, improving)
        for column in added:
            rmp.add_column(column)
        columns_generated += len(added)

    certified = met_bound or (not timed_out and certify(results))
    bound = z_lp_star if certified else rmp.upper_bound  # an uncertified z_lp is no bound
    timings = {"lp_phase": time.monotonic() - t0, "ilp_phase": 0.0}
    # the plan search of the module docstring; a start plan that meets the bound is optimal
    chosen, selected = start, None
    short = not meets(rmp.served_slots(start), bound)
    ilp_gap = 1.0 if short else 0.0  # a short plan has no gap proved until a final ILP ends
    if short and not past_deadline():
        t1 = time.monotonic()
        z, selected, mip = rmp.solve_final_ilp(config.final_ilp_relative_gap)
        ilp_plan = rmp.post_process(selected)
        timings["ilp_phase"] = time.monotonic() - t1
        ilp_gap = mip.gap if math.isfinite(mip.gap) else 1.0
        verify_plan(instance, ilp_plan, expected_slots=z)
        grant = {p.key: sum(map(rmp.grants.get, p.members)) / len(p.members) for p in slot_requests}
        by_grant = _first_fit_orders(slot_requests, lambda p: (-round(grant[p.key], 6), -p.width))
        passes = (first_fit(instance, o) for o in by_grant)
        # max keeps the first of equal values, so the start plan wins a tie
        chosen = best_of(max(start, selected, key=rmp.served_slots), passes, bound)
    plan = rmp.post_process(chosen)
    if chosen is not selected:
        verify_plan(instance, plan)  # the one scan of the returned plan for reused cells
    z_ilp = plan.throughput_slots

    eps = report_metrics(bound, z_ilp, instance.total_demand_slots)
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
        final_ilp_gap=ilp_gap,
        timings={**timings, "total": time.monotonic() - t0},
        prune_checks=list(rmp.prune_checks),
    )
    return report, plan

