"""Exhaustive reference solver for tiny instances, plus the plan scanner.

Everything here recomputes from first principles (path enumeration, explicit
conflict masks) so it can stand as ground truth against the column-generation
stack. Both references, the optimum and a slot's best reduced cost, run one
search over packings of bitmasks, and no code is shared with the solver they
check. Keep it simple enough to be obviously correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ConflictDetected, InvariantViolation, LimitsExceeded
from .instance import Instance
from .master import MasterDuals, PricingRequest, ProvisioningPlan
from .topology import Path, enumerate_simple_paths


# Caps that keep the exhaustive search small.
MAX_NODES = 6
MAX_REQUESTS = 5
MAX_SLOTS = 10
MAX_HOPS = 5


@dataclass(frozen=True)
class OracleSolution:
    value_slots: int
    assignments: dict[int, tuple[Path, int]]  # pricing key -> (path, start slot)


def _check_limits(instance: Instance, n_requests: int) -> None:
    if instance.topology.num_nodes > MAX_NODES:
        raise LimitsExceeded(f"{instance.topology.num_nodes} nodes > oracle cap {MAX_NODES}")
    if n_requests > MAX_REQUESTS:
        raise LimitsExceeded(f"{n_requests} requests > oracle cap {MAX_REQUESTS}")
    if instance.spectrum_slots > MAX_SLOTS:
        raise LimitsExceeded(f"{instance.spectrum_slots} slots > oracle cap {MAX_SLOTS}")


def _best_packing(entries: list) -> tuple:
    """Best total value of at most one option per entry, the taken masks disjoint.

    `entries` holds (bound, options); each option is (value, mask, tag), with
    value in (0, bound]. Depth first, options in order before the skip; a branch
    stops once it cannot strictly beat the best so far even with every bound
    ahead. Returns the best value and the tags of the first packing with it.
    """
    suffix = [0] * (len(entries) + 1)
    for i in range(len(entries) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + entries[i][0]

    best_value, best_tags = 0, []
    taken: list = []

    def dfs(i: int, used: int, acc) -> None:
        nonlocal best_value, best_tags
        if acc > best_value:
            best_value, best_tags = acc, list(taken)
        if i == len(entries) or acc + suffix[i] <= best_value:
            return
        for value, mask, tag in entries[i][1]:
            if mask & used:
                continue
            taken.append(tag)
            dfs(i + 1, used | mask, acc + value)
            taken.pop()
        dfs(i + 1, used, acc)

    dfs(0, 0, 0)
    return best_value, best_tags


def oracle_solve(
    instance: Instance,
    pricing_requests: Optional[Sequence[PricingRequest]] = None,
) -> OracleSolution:
    """Exact maximum served demand by depth-first search over all assignments.

    Each request is either rejected or given a (simple path, starting slot);
    conflicts are tracked with a (link, slot) bitmask. With pricing_requests
    given (derived-request mode) the same mask keeps member atomics disjoint.
    """
    if pricing_requests is None:
        pricing_requests = [PricingRequest.from_request(r) for r in instance.requests]
    _check_limits(instance, len(pricing_requests))
    demands = {r.id: r.demand for r in instance.requests}
    spectrum = instance.spectrum_slots
    cells = instance.topology.num_links * spectrum  # atomic bits sit above the cell bits
    atom_bit = {k: 1 << (cells + i) for i, k in enumerate(sorted(demands))}

    entries = []
    for p in sorted(pricing_requests, key=lambda p: (-sum(demands[k] for k in p.members), p.key)):
        value = sum(demands[k] for k in p.members)
        amask = 0
        for k in p.members:
            amask |= atom_bit[k]
        options = []
        for path in enumerate_simple_paths(instance.topology, p.source, p.dest, MAX_HOPS):
            for s in range(1, spectrum - p.width + 2):
                mask = amask
                for link in path.links:
                    for slot in range(s, s + p.width):
                        mask |= 1 << (link * spectrum + slot - 1)
                options.append((value, mask, (p.key, path, s)))
        entries.append((value, options))

    best_value, taken = _best_packing(entries)
    return OracleSolution(best_value, {key: (path, s) for key, path, s in taken})


def oracle_max_reduced_cost(
    instance: Instance,
    s: int,
    master_duals: MasterDuals,
) -> float:
    """Exact best configuration reduced cost for slot s by full enumeration.

    Duals are clamped at zero exactly like the pricing path, so the bound
    ordering rc_ilp <= this <= rc_lp_star is comparable term by term.
    """
    _check_limits(instance, len(instance.requests))
    duals = master_duals.clamped()
    entries = []
    for req in sorted(instance.requests, key=lambda r: r.id):
        if s + req.demand - 1 > instance.spectrum_slots:
            continue
        mu = duals.mu_request.get(req.id, 0.0)
        if mu <= 0.0:
            continue
        weights = duals.mu_cell[:, s - 1 : s - 1 + req.demand].sum(axis=1)
        options = []
        for path in enumerate_simple_paths(instance.topology, req.source, req.dest, MAX_HOPS):
            value = mu - float(sum(weights[link] for link in path.links))
            if value <= 0.0:
                continue
            lmask = 0
            for link in path.links:
                lmask |= 1 << link
            options.append((value, lmask, path))
        if options:
            entries.append((max(v for v, _, _ in options), options))

    entries.sort(key=lambda e: -e[0])
    return float(_best_packing(entries)[0])


def verify_plan(
    instance: Instance,
    plan: ProvisioningPlan,
    expected_slots: Optional[float] = None,
) -> None:
    """Independent feasibility scan of a provisioning plan.

    Recomputes every occupied (link, slot) cell from the raw paths and
    windows; raises on any conflict, out-of-spectrum window, window whose width
    is not its members' fused demand (sum(D) - (m - 1)), broken path, or
    throughput mismatch.
    """
    requests = {r.id: r for r in instance.requests}
    cells: dict[tuple[int, int], tuple] = {}
    for k, lp in plan.assignments.items():
        req = requests.get(k)
        if req is None:
            raise InvariantViolation(f"plan grants unknown request {k}")
        if k not in lp.members:
            raise InvariantViolation(f"lightpath for request {k} does not list it as member")
        if not requests.keys() >= set(lp.members):
            raise InvariantViolation(f"lightpath for request {k} lists an unknown member")
        fused = sum(requests[m].demand for m in lp.members) - (len(lp.members) - 1)
        if lp.width != fused:
            raise InvariantViolation(f"request {k}: members {lp.members} need {fused} slots")
        if lp.start_slot < 1 or lp.start_slot + lp.width - 1 > instance.spectrum_slots:
            raise InvariantViolation(
                f"request {k}: window [{lp.start_slot}, {lp.start_slot + lp.width - 1}] "
                f"outside spectrum 1..{instance.spectrum_slots}"
            )
        instance.topology.validate_path(lp.path)
        if {lp.path.source, lp.path.dest} != {req.source, req.dest}:
            raise InvariantViolation(
                f"request {k}: path connects ({lp.path.source}, {lp.path.dest}), "
                f"request wants ({req.source}, {req.dest})"
            )
        ident = (lp.request_key, lp.path.links, lp.start_slot, lp.width)
        for link in lp.path.links:
            for slot in range(lp.start_slot, lp.start_slot + lp.width):
                cell = (link, slot)
                if cell in cells and cells[cell] != ident:
                    raise ConflictDetected(f"cell {cell} occupied twice")
                cells[cell] = ident
    total = sum(requests[k].demand for k in plan.assignments)
    if total != plan.throughput_slots:
        raise InvariantViolation(
            f"plan claims {plan.throughput_slots} slots, assignments sum to {total}"
        )
    if expected_slots is not None and abs(total - expected_slots) > 1e-6:
        raise InvariantViolation(
            f"plan throughput {total} differs from solver value {expected_slots}"
        )
