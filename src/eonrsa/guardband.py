"""Derived-request extension for non-aggregated traffic.

When several atomic requests share a node pair, any non-empty subset of them
can ride one contiguous window on one path; routed together they need a
single trailing guard band instead of one each. Enumerating all 2^n - 1
subsets per pair (binomial-tree recursion) makes the extension exact but
exponential, so it is gated by a cap and meant for desk-scale instances.

Demands here are guard-band-inclusive. With ``guard_saving`` a composite of m
atomics needs sum(D) - (m - 1) slots (one shared guard band); without it the
plain subset sum is used, which is also what the enumeration examples count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import CapExceeded
from .instance import Instance, Request
from .master import PricingRequest, ProvisioningPlan
from .solver import SolveConfig, SolveReport, solve

DEFAULT_CAP = 12


@dataclass(frozen=True)
class DerivedRequest:
    """A non-empty subset of one node pair's atomic requests, fused into one demand."""

    pair: tuple[str, str]
    members: tuple[int, ...]
    demand: int

    @property
    def is_composite(self) -> bool:
        return len(self.members) > 1


def enumerate_derived(
    requests: Sequence[Request],
    cap: int = DEFAULT_CAP,
    guard_saving: bool = False,
) -> list[DerivedRequest]:
    """All 2^n - 1 derived requests of one node pair, in binomial-tree order.

    Children extend the subset with later-indexed atomics, so each subset is
    produced exactly once and membership is tracked along the way.
    """
    if not requests:
        return []
    pairs = {r.pair for r in requests}
    if len(pairs) != 1:
        raise ValueError(f"requests span several node pairs: {sorted(pairs)}")
    pair = next(iter(pairs))
    n = len(requests)
    if n > cap:
        raise CapExceeded(f"{n} atomic requests on pair {pair} exceed the cap of {cap}")
    ordered = sorted(requests, key=lambda r: r.id)
    out: list[DerivedRequest] = []

    def extend(start: int, members: tuple[int, ...], total: int) -> None:
        for i in range(start, n):
            req = ordered[i]
            new_members = members + (req.id,)
            raw = total + req.demand
            demand = raw - (len(new_members) - 1) if guard_saving else raw
            out.append(DerivedRequest(pair=pair, members=new_members, demand=demand))
            extend(i + 1, new_members, raw)

    extend(0, (), 0)
    return out


def derived_pricing_requests(
    instance: Instance,
    cap: int = DEFAULT_CAP,
    guard_saving: bool = False,
) -> list[PricingRequest]:
    """Derived requests of every node pair, keyed densely for the pricing layer."""
    by_pair: dict[tuple[str, str], list[Request]] = {}
    for req in instance.requests:
        by_pair.setdefault(req.pair, []).append(req)
    out: list[PricingRequest] = []
    key = 0
    for pair in sorted(by_pair):
        for derived in enumerate_derived(by_pair[pair], cap=cap, guard_saving=guard_saving):
            out.append(
                PricingRequest(
                    key=key,
                    source=pair[0],
                    dest=pair[1],
                    width=derived.demand,
                    members=derived.members,
                )
            )
            key += 1
    return out


def solve_extended(
    instance: Instance,
    config: Optional[SolveConfig] = None,
    cap: int = DEFAULT_CAP,
    guard_saving: bool = True,
) -> tuple[SolveReport, ProvisioningPlan]:
    """End-to-end run of the extension (desk scale; raises CapExceeded beyond it)."""
    config = config or SolveConfig()
    return solve(
        instance,
        config,
        pricing_requests=derived_pricing_requests(instance, cap, guard_saving),
    )
