"""Per-starting-slot configuration pricing, itself solved by column generation.

For a fixed starting slot the window of every request is known, so pricing
only has to pick routing paths: maximize the dual-weighted value of served
requests subject to "each request at most once" and "each link at most once".
That inner problem is attacked by column generation whose own pricing step is
a plain shortest-path query per request; the inner LP bound certifies the
slot (rc_lp_star) while the inner ILP incumbent (rc_ilp) decides whether a
new master column exists.

All dual values are clamped to zero from below on entry, mirroring the
rounding applied to engine noise before Dijkstra sees the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .instance import Instance, Request
from .lpsolver import Model, SolveStatus, VarKind
from .master import Configuration, Lightpath, MasterDuals, PricingRequest
from .topology import Path, shortest_path

IMPROVE_TOL = 1e-6

# Safety valve for the inner loop; regular instances converge in a handful of
# rounds, so hitting this means something is numerically wrong. The slot is
# then reported with an infinite LP bound, i.e. never certified.
MAX_INNER_ROUNDS = 500


@dataclass(eq=False)
class PricingDuals:
    """Inner duals: one per atomic request row, one per link row."""

    nu_request: dict[int, float]
    nu_link: np.ndarray

    def clamped(self) -> "PricingDuals":
        return PricingDuals(
            nu_request={k: max(v, 0.0) for k, v in self.nu_request.items()},
            nu_link=np.maximum(self.nu_link, 0.0),
        )


@dataclass(frozen=True)
class PricingResult:
    """Outcome for one starting slot: bounds plus the improving column, if any."""

    slot: int
    configuration: Optional[Configuration]
    rc_ilp: float
    rc_lp_star: float


def eligible_requests(instance: Instance, s: int) -> list[Request]:
    """Requests whose window starting at slot s fits the spectrum (1-based)."""
    if not 1 <= s <= instance.spectrum_slots:
        raise ValueError(f"slot {s} outside 1..{instance.spectrum_slots}")
    return [r for r in instance.requests if s + r.demand - 1 <= instance.spectrum_slots]


def _eligible_pricing(
    pricing_requests: Sequence[PricingRequest], s: int, spectrum_slots: int
) -> list[PricingRequest]:
    return [p for p in pricing_requests if s + p.width - 1 <= spectrum_slots]


def pricing_key(
    instance: Instance, s: int, duals: MasterDuals, pricing_requests: Sequence[PricingRequest]
) -> tuple:
    """Everything price_slot reads at slot s except the tolerance, given clamped duals: the
    eligible request keys, each eligible width's window sums of mu_cell, and their mu."""
    eligible = _eligible_pricing(pricing_requests, s, instance.spectrum_slots)
    widths = sorted({p.width for p in eligible})
    return (
        tuple(p.key for p in eligible),
        tuple((w, _link_weights(duals, None, s, w).tobytes()) for w in widths),
        tuple(duals.mu_request.get(k, 0.0) for p in eligible for k in p.members),
    )


def _link_weights(
    duals: MasterDuals, nu_link: Optional[np.ndarray], s: int, width: int
) -> np.ndarray:
    w = np.maximum(duals.mu_cell[:, s - 1 : s - 1 + width], 0.0).sum(axis=1)
    if nu_link is not None:
        w = w + np.maximum(nu_link, 0.0)
    return w


def path_reduced_cost(
    request: PricingRequest,
    path: Path,
    s: int,
    master_duals: MasterDuals,
    pricing_duals: Optional[PricingDuals] = None,
) -> float:
    """(mu - nu) gain of the request minus the clamped window cost of its path."""
    gain = sum(master_duals.mu_request.get(k, 0.0) for k in request.members)
    if pricing_duals is not None:
        gain -= sum(pricing_duals.nu_request.get(k, 0.0) for k in request.members)
    nu_link = pricing_duals.nu_link if pricing_duals is not None else None
    w = _link_weights(master_duals, nu_link, s, request.width)
    return gain - float(sum(w[link] for link in path.links))


def generate_lightpath(
    instance: Instance,
    request: PricingRequest,
    s: int,
    master_duals: MasterDuals,
    pricing_duals: Optional[PricingDuals] = None,
    tolerance: float = IMPROVE_TOL,
) -> Optional[tuple[Path, float]]:
    """Best path for one request at slot s, if it improves by more than tolerance.

    Link weight = clamped window sum of cell duals + clamped link dual; the
    path minimizes it, and the lightpath qualifies iff (mu - nu) - dist > tol.
    """
    nu_link = pricing_duals.nu_link if pricing_duals is not None else None
    weights = _link_weights(master_duals, nu_link, s, request.width)
    return _lightpath_under(instance, request, master_duals, pricing_duals, weights, tolerance)


def _lightpath_under(
    instance: Instance,
    request: PricingRequest,
    master_duals: MasterDuals,
    pricing_duals: Optional[PricingDuals],
    weights: np.ndarray,
    tolerance: float,
) -> Optional[tuple[Path, float]]:
    """generate_lightpath with the request's link weights already computed."""
    gain = sum(master_duals.mu_request.get(k, 0.0) for k in request.members)
    if pricing_duals is not None:
        gain -= sum(pricing_duals.nu_request.get(k, 0.0) for k in request.members)
    if gain <= tolerance:
        return None  # no positive weight can be beaten by a non-negative distance
    found = shortest_path(instance.topology, request.source, request.dest, weights)
    if found is None:
        return None
    path, dist = found
    rc = gain - dist
    if rc <= tolerance:
        return None
    return path, rc


class _InnerProblem:
    """Pricing RMP for one slot: path columns, request rows, link rows.

    It always runs on the bundled engine: its LPs are tiny, so HiGHS's per-call
    overhead would outweigh its speed whatever the master's backend.
    """

    def __init__(
        self,
        instance: Instance,
        s: int,
        eligible: Sequence[PricingRequest],
        duals: MasterDuals,
    ):
        self.instance = instance
        self.s = s
        self.eligible = list(eligible)
        self.duals = duals
        self.model = Model()
        atom_ids = sorted({k for p in eligible for k in p.members})
        self._row_atomic = {k: self.model.add_constraint({}, 1.0) for k in atom_ids}
        self._row_link = {
            link: self.model.add_constraint({}, 1.0)
            for link in range(instance.topology.num_links)
        }
        self._columns: dict[int, tuple[PricingRequest, Path]] = {}
        self._present: dict[int, set[tuple[int, ...]]] = {p.key: set() for p in eligible}
        self._weights = {p.key: _link_weights(duals, None, s, p.width) for p in eligible}

    def has_column(self, request: PricingRequest, path: Path) -> bool:
        return path.links in self._present[request.key]

    def add_path(self, request: PricingRequest, path: Path) -> int:
        gain = sum(self.duals.mu_request.get(k, 0.0) for k in request.members)
        value = gain - float(sum(self._weights[request.key][link] for link in path.links))
        coeffs: dict[int, float] = {self._row_atomic[k]: 1.0 for k in request.members}
        for link in path.links:
            coeffs[self._row_link[link]] = 1.0
        vid = self.model.add_variable(obj=value, lo=0.0, hi=math.inf, coeffs=coeffs)
        self._columns[vid] = (request, path)
        self._present[request.key].add(path.links)
        return vid

    def solve_lp(self) -> tuple[float, PricingDuals]:
        sol = self.model.solve_lp(use_warm_start=True)
        if sol.status is not SolveStatus.OPTIMAL:
            raise RuntimeError(f"pricing LP failed: {sol.status}")
        for vid in self.model.prune(sol, self._columns):
            request, path = self._columns.pop(vid)
            self._present[request.key].discard(path.links)
        nu_request = {k: sol.duals[row] for k, row in self._row_atomic.items()}
        nu_link = np.zeros(self.instance.topology.num_links)
        for link, row in self._row_link.items():
            nu_link[link] = sol.duals[row]
        return sol.objective, PricingDuals(nu_request=nu_request, nu_link=nu_link)

    def solve_ilp(self) -> tuple[float, list[Lightpath]]:
        for vid in self._columns:
            self.model.set_kind(vid, VarKind.BINARY)
        mip = self.model.solve_mip(0.0, use_warm_start=True)
        if mip.status is not SolveStatus.OPTIMAL:
            raise RuntimeError(f"pricing ILP failed: {mip.status}")
        chosen = []
        for vid, (request, path) in sorted(self._columns.items()):
            if mip.values.get(vid, 0.0) > 0.5:
                chosen.append(
                    Lightpath(
                        request_key=request.key,
                        path=path,
                        start_slot=self.s,
                        width=request.width,
                        members=request.members,
                    )
                )
        return mip.objective, chosen


def price_slot(
    instance: Instance,
    s: int,
    master_duals: MasterDuals,
    pricing_requests: Optional[Sequence[PricingRequest]] = None,
    tolerance: float = IMPROVE_TOL,
) -> PricingResult:
    """Inner column generation for one starting slot.

    Pure in its inputs: safe to run concurrently for different slots against
    one shared duals snapshot.
    """
    duals = master_duals.clamped()
    if pricing_requests is None:
        pricing_requests = [PricingRequest.from_request(r) for r in instance.requests]
    eligible = _eligible_pricing(pricing_requests, s, instance.spectrum_slots)
    if not eligible:
        return PricingResult(slot=s, configuration=None, rc_ilp=0.0, rc_lp_star=0.0)

    inner = _InnerProblem(instance, s, eligible, duals)
    rc_lp_star = 0.0
    converged = False
    widths = {p.width for p in eligible}
    for _ in range(MAX_INNER_ROUNDS):
        rc_lp_star, nu = inner.solve_lp()
        # a request's link weights depend on the request only through its width
        weights = {w: _link_weights(duals, nu.nu_link, s, w) for w in widths}
        added = 0
        for request in sorted(eligible, key=lambda p: p.key):
            gen = _lightpath_under(instance, request, duals, nu, weights[request.width], tolerance)
            if gen is None:
                continue
            path, _ = gen
            if inner.has_column(request, path):
                continue  # defensive: never re-add a live column
            inner.add_path(request, path)
            added += 1
        if added == 0:
            converged = True
            break
    if not converged:
        rc_lp_star = math.inf  # inner CG failed to settle; slot cannot certify

    if not inner.model.num_variables:
        return PricingResult(slot=s, configuration=None, rc_ilp=0.0, rc_lp_star=rc_lp_star)

    rc_ilp, chosen = inner.solve_ilp()
    if rc_ilp <= tolerance or not chosen:
        return PricingResult(slot=s, configuration=None, rc_ilp=max(rc_ilp, 0.0), rc_lp_star=rc_lp_star)
    config = Configuration(start_slot=s, lightpaths=tuple(chosen))
    if rc_ilp > rc_lp_star + 1e-6 * (1.0 + abs(rc_lp_star)):
        raise RuntimeError(f"pricing ILP {rc_ilp} exceeds its LP bound {rc_lp_star}")
    return PricingResult(slot=s, configuration=config, rc_ilp=rc_ilp, rc_lp_star=rc_lp_star)


def master_reduced_cost(config: Configuration, master_duals: MasterDuals) -> float:
    """Recompute a column's reduced cost from (mu, a, b) with clamped duals."""
    duals = master_duals.clamped()
    value = sum(duals.mu_request.get(k, 0.0) for k in config.served_atomics())
    for link, slot in config.occupied_cells():
        value -= float(duals.mu_cell[link, slot - 1])
    return value
