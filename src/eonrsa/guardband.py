"""Derived-request extension for non-aggregated traffic.

When several atomic requests share a node pair, any non-empty subset of them
can ride one contiguous window on one path; routed together they need a
single trailing guard band instead of one each. A derived request is a
`PricingRequest` whose `members` are such a subset. Enumerating all 2^n - 1
subsets per pair (binomial-tree recursion) makes the extension exact but
exponential, so a pair may hold at most `CAP` atomics: desk scale.

Demands are guard-band-inclusive, so a subset of m atomics needs
sum(D) - (m - 1) slots: one shared guard band instead of m.
"""

from __future__ import annotations

from typing import Optional

from .errors import CapExceeded
from .instance import Instance, Request
from .master import PricingRequest, ProvisioningPlan
from .solver import SolveConfig, SolveReport, solve

CAP = 12


def derived_pricing_requests(instance: Instance) -> list[PricingRequest]:
    """All derived requests: pairs sorted, subsets in binomial-tree order, keys dense.

    Children extend a subset with later-indexed atomics of its pair, so each
    subset is produced exactly once.
    """
    by_pair: dict[tuple[str, str], list[Request]] = {}
    for req in sorted(instance.requests, key=lambda r: r.id):
        by_pair.setdefault(req.pair, []).append(req)
    out: list[PricingRequest] = []

    def extend(pair, atoms: list[Request], start: int, members: tuple[int, ...], total: int):
        for i in range(start, len(atoms)):
            new_members, raw = members + (atoms[i].id,), total + atoms[i].demand
            width = raw - (len(new_members) - 1)
            out.append(PricingRequest(len(out), pair[0], pair[1], width, new_members))
            extend(pair, atoms, i + 1, new_members, raw)

    for pair, atoms in sorted(by_pair.items()):
        if len(atoms) > CAP:
            raise CapExceeded(
                f"{len(atoms)} atomic requests on pair {pair} exceed the cap of {CAP}"
            )
        extend(pair, atoms, 0, (), 0)
    return out


def solve_extended(
    instance: Instance, config: Optional[SolveConfig] = None
) -> tuple[SolveReport, ProvisioningPlan]:
    """End-to-end run of the extension (desk scale; raises CapExceeded beyond it)."""
    requests = derived_pricing_requests(instance)
    return solve(instance, config or SolveConfig(), pricing_requests=requests)
