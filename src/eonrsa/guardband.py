"""Derived-request extension for non-aggregated traffic.

When several atomic requests share a node pair, any non-empty subset of them
can ride one contiguous window on one path; routed together they need a
single trailing guard band instead of one each. A derived request is a
`PricingRequest` whose `members` are such a subset. Enumerating all 2^n - 1
subsets per pair (binomial-tree recursion) makes the extension exact but
exponential, so a pair may hold at most `CAP` atomics: desk scale.

Demands are guard-band-inclusive, so a subset of m atomics needs
sum(D) - (m - 1) slots (`fused_width`): one shared guard band instead of m.
`solve` runs the extension when given `derived_pricing_requests(instance)`.
"""

from __future__ import annotations

from .errors import CapExceeded
from .instance import Instance, Request
from .master import PricingRequest, fused_width

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

    def extend(pair, atoms: list[Request], start: int, members: tuple[Request, ...]):
        for i in range(start, len(atoms)):
            subset = members + (atoms[i],)
            width = fused_width([r.demand for r in subset])
            out.append(PricingRequest(len(out), *pair, width, tuple(r.id for r in subset)))
            extend(pair, atoms, i + 1, subset)

    for pair, atoms in sorted(by_pair.items()):
        if len(atoms) > CAP:
            raise CapExceeded(
                f"{len(atoms)} atomic requests on pair {pair} exceed the cap of {CAP}"
            )
        extend(pair, atoms, 0, ())
    return out

