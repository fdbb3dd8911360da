"""Per-starting-slot configuration pricing, itself solved by column generation.

For a fixed starting slot the window of every request is known, so pricing
only has to pick routing paths: maximize the dual-weighted value of served
requests subject to "each request at most once" and "each link at most once".
That inner problem is attacked by column generation whose own pricing step is
a plain shortest-path query per request; the inner LP bound certifies the
slot (rc_lp_star) while the inner ILP incumbent (rc_ilp) decides whether a
new master column exists.

price_slot clamps the master duals to zero from below once, on entry, so that
engine noise never reaches Dijkstra's weights. In each inner round a request's
link weight is the window sum of the clamped cell duals plus the inner link
dual, clamped where it is added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .instance import Instance
from .lpsolver import INT_TOL, LpSolution, Model, SolveStatus
from .master import Configuration, MasterDuals, PricingRequest
from .topology import Path, shortest_path

if TYPE_CHECKING:
    import numpy as np

IMPROVE_TOL = 1e-6

# Safety valve for the inner loop; regular instances converge in a handful of
# rounds, so hitting this means something is numerically wrong. The slot is
# then reported with an infinite LP bound, i.e. never certified.
MAX_INNER_ROUNDS = 500


@dataclass(frozen=True)
class PricingResult:
    """Outcome for one starting slot: bounds plus the improving column, if any."""

    configuration: Optional[Configuration]
    rc_ilp: float
    rc_lp_star: float


def _slot_input(
    instance: Instance, s: int, duals: MasterDuals, pricing_requests: Sequence[PricingRequest]
) -> tuple[list[PricingRequest], dict[int, np.ndarray], dict[int, float]]:
    """Everything pricing reads at slot s, given clamped duals: the eligible requests,
    each link's window sum of mu_cell per eligible width (ascending), and each eligible
    request's mu gain, the sum of its members' mu."""
    eligible = [p for p in pricing_requests if s + p.width - 1 <= instance.spectrum_slots]
    widths = sorted({p.width for p in eligible})
    windows = {w: duals.mu_cell[:, s - 1 : s - 1 + w].sum(axis=1) for w in widths}
    mu_gain = {p.key: sum(duals.mu_request.get(k, 0.0) for k in p.members) for p in eligible}
    return eligible, windows, mu_gain


def pricing_key(
    instance: Instance, s: int, duals: MasterDuals, pricing_requests: Sequence[PricingRequest]
) -> tuple:
    """The slot's window sums by eligible width, as a hashable key. Against one duals
    snapshot, slots with equal keys price identically: the eligible widths fix the
    eligible requests, and their mu gains are the same at every slot."""
    _, windows, _ = _slot_input(instance, s, duals, pricing_requests)
    return tuple((w, win.tobytes()) for w, win in windows.items())


class _InnerProblem:
    """Pricing RMP for one slot: path columns, atomic request rows (by id), then link rows.

    It always runs on the bundled engine, whatever the master's backend. Warm
    HiGHS took its LPs at |S|=50, 9 Tbps from 8.8 to 5.2 s; whether the inner
    problem should take the master's engine, or HiGHS always, is not settled.
    """

    def __init__(
        self,
        instance: Instance,
        eligible: Sequence[PricingRequest],
        mu_gain: dict[int, float],
        windows: dict[int, np.ndarray],
    ):
        self._mu_gain = mu_gain
        self._windows = windows
        atom_ids = sorted({k for p in eligible for k in p.members})
        self._row_atomic = {k: row for row, k in enumerate(atom_ids)}
        self.model = Model([1.0] * (len(atom_ids) + instance.topology.num_links))
        self._columns: dict[int, tuple[PricingRequest, Path]] = {}
        self._lp: Optional[LpSolution] = None  # the LP of the current columns, once solved

    def add_path(self, request: PricingRequest, path: Path) -> int:
        window = self._windows[request.width]
        value = self._mu_gain[request.key] - float(sum(window[link] for link in path.links))
        coeffs: dict[int, float] = {self._row_atomic[k]: 1.0 for k in request.members}
        for link in path.links:
            coeffs[len(self._row_atomic) + link] = 1.0
        vid = self.model.add_variable(obj=value, lo=0.0, hi=math.inf, coeffs=coeffs)
        self._columns[vid] = (request, path)
        self._lp = None
        return vid

    def solve_lp(self, deadline: float) -> Optional[tuple[float, dict[int, float], np.ndarray]]:
        """The LP value, then the duals of the atomic rows by request id and of the link rows;
        None when `deadline` cuts the LP."""
        sol = self.model.solve_lp(deadline)
        if sol.status is SolveStatus.TIME_LIMIT:
            return None
        if sol.status is not SolveStatus.OPTIMAL:
            raise RuntimeError(f"pricing LP failed: {sol.status}")
        for vid in self.model.prune(sol, self._columns):
            del self._columns[vid]
        self._lp = sol
        atomics = len(self._row_atomic)
        nu_request = dict(zip(self._row_atomic, sol.duals[:atomics].tolist()))
        return sol.objective, nu_request, sol.duals[atomics:]

    def solve_ilp(self, deadline: float) -> tuple[float, list[tuple[PricingRequest, Path]]]:
        """The ILP value and the chosen (request, path) routes, by column id; an
        integral LP of the current columns is the optimum, without branch and bound.
        A search cut by `deadline` gives its incumbent, or -inf and no route."""
        sol = self._lp
        if sol is None or any(INT_TOL < sol.values[vid] < 1 - INT_TOL for vid in self._columns):
            sol = self.model.solve_mip(0.0, self._columns, deadline)
            if sol.status not in (SolveStatus.OPTIMAL, SolveStatus.TIME_LIMIT):
                raise RuntimeError(f"pricing ILP failed: {sol.status}")
        chosen = [
            route for vid, route in sorted(self._columns.items()) if sol.values.get(vid, 0.0) > 0.5
        ]
        return sol.objective, chosen


def price_slot(
    instance: Instance,
    s: int,
    master_duals: MasterDuals,
    pricing_requests: Optional[Sequence[PricingRequest]] = None,
    deadline: float = math.inf,
) -> PricingResult:
    """Inner column generation for one starting slot; its LPs and ILP stop at `deadline`.

    An inner LP cut there ends the slot with no column and an infinite LP bound; a cut
    ILP gives its incumbent, if it has one. Pure in its inputs, the deadline aside: safe
    to run concurrently for different slots against one shared duals snapshot.
    """
    import numpy as np

    duals = master_duals.clamped()
    if pricing_requests is None:
        pricing_requests = [PricingRequest.from_request(r) for r in instance.requests]
    eligible, windows, mu_gain = _slot_input(instance, s, duals, pricing_requests)
    if all(gain <= IMPROVE_TOL for gain in mu_gain.values()):
        return PricingResult(configuration=None, rc_ilp=0.0, rc_lp_star=0.0)  # no path can gain

    inner = _InnerProblem(instance, eligible, mu_gain, windows)
    eligible.sort(key=lambda p: p.key)
    rc_lp_star = 0.0
    converged = False
    for _ in range(MAX_INNER_ROUNDS):
        lp = inner.solve_lp(deadline)
        if lp is None:  # no bound, and so no column either
            return PricingResult(configuration=None, rc_ilp=0.0, rc_lp_star=math.inf)
        rc_lp_star, nu_request, nu_link = lp
        # a request's link weights depend on the request only through its width
        nu_link = np.maximum(nu_link, 0.0)
        weights = {w: (win + nu_link).tolist() for w, win in windows.items()}
        added = 0
        for request in eligible:
            gain = mu_gain[request.key] - sum(nu_request.get(k, 0.0) for k in request.members)
            if gain <= IMPROVE_TOL:
                continue  # no positive weight can be beaten by a non-negative distance
            weight = weights[request.width]
            found = shortest_path(instance.topology, request.source, request.dest, weight)
            # a live column's reduced cost is at most OPT_TOL, and the clamped link
            # weights only lower it, so a path priced above IMPROVE_TOL is new
            if found is not None and gain - found[1] > IMPROVE_TOL:
                inner.add_path(request, found[0])
                added += 1
        if added == 0:
            converged = True
            break
    if not converged:
        rc_lp_star = math.inf  # inner CG failed to settle; slot cannot certify

    rc_ilp, chosen = inner.solve_ilp(deadline)
    if rc_ilp <= IMPROVE_TOL:
        return PricingResult(configuration=None, rc_ilp=max(rc_ilp, 0.0), rc_lp_star=rc_lp_star)
    config = Configuration(start_slot=s, routes=tuple(chosen))
    if rc_ilp > rc_lp_star + 1e-6 * (1.0 + abs(rc_lp_star)):
        raise RuntimeError(f"pricing ILP {rc_ilp} exceeds its LP bound {rc_lp_star}")
    return PricingResult(configuration=config, rc_ilp=rc_ilp, rc_lp_star=rc_lp_star)
