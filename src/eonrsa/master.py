"""Restricted master problem over configuration columns.

Model (maximization): a [0,1] grant variable y_k per request weighted by its
demand, coverage rows ``y_k - sum_c a_k^c z_c <= 0``, and slot-occupancy rows
``sum_c b_{ls}^c z_c <= 1`` per (link, slot). Configuration columns carry no
objective weight of their own; the objective rides entirely on y. The request
rows come first, by request id, then the cell rows link by link, so the cell
duals are one reshape of the dual array.

Slots are 1-based everywhere. z columns are added with bounds [0, inf): any
real configuration occupies at least one (link, slot) cell, so the occupancy
rows already cap z at 1 and the explicit upper bound would only create
nonbasic-at-upper columns that pricing could regenerate. The final ILP makes
them binary.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import InvalidConfiguration, InvariantViolation
from .instance import Instance, Request
from .lazy import np
from .lpsolver import INT_TOL, Model, MipSolution, SolveStatus
from .topology import Path, shortest_path


def fused_width(demands: Sequence[int]) -> int:
    """Slots of one window carrying guard-band-inclusive `demands`: sum(D) - (m - 1)."""
    return sum(demands) - (len(demands) - 1)


@dataclass(frozen=True)
class PricingRequest:
    """What pricing provisions: a demand window between two nodes.

    In the base model this is exactly one traffic request (`members` is the
    singleton of its id). The guard-band extension prices derived requests
    whose members are several same-pair atomic requests.
    """

    key: int
    source: str
    dest: str
    width: int
    members: tuple[int, ...]

    @staticmethod
    def from_request(req: Request) -> "PricingRequest":
        return PricingRequest(
            key=req.id, source=req.source, dest=req.dest, width=req.demand, members=(req.id,)
        )


@dataclass(frozen=True)
class Lightpath:
    """A routed demand window: path plus contiguous slots on every path link."""

    request: PricingRequest
    path: Path
    start_slot: int

    @property
    def request_key(self) -> int:
        return self.request.key

    @property
    def width(self) -> int:
        return self.request.width

    @property
    def members(self) -> tuple[int, ...]:
        return self.request.members


@dataclass(frozen=True)
class Configuration:
    """Link-disjoint routes for distinct requests, all at one starting slot."""

    start_slot: int
    routes: tuple[tuple[PricingRequest, Path], ...]

    @property
    def lightpaths(self) -> tuple[Lightpath, ...]:
        return tuple(Lightpath(req, path, self.start_slot) for req, path in self.routes)

    def served_atomics(self) -> frozenset[int]:
        return frozenset(k for req, _ in self.routes for k in req.members)

    def occupied_cells(self) -> frozenset[tuple[int, int]]:
        s = self.start_slot
        return frozenset(
            (link, slot)
            for request, path in self.routes
            for link in path.links
            for slot in range(s, s + request.width)
        )


def validate_configuration(
    config: Configuration,
    spectrum_slots: int,
    requests: Optional[dict[int, PricingRequest]] = None,
) -> None:
    """Raise InvalidConfiguration on any structural breach; with `requests`, also
    when a lightpath's request is not the master's request of its key."""
    if not config.routes:
        raise InvalidConfiguration("configuration has no lightpaths")
    seen_keys: set[int] = set()
    seen_members: set[int] = set()
    seen_links: set[int] = set()
    for lp in config.lightpaths:
        req = lp.request
        end = lp.start_slot + req.width - 1
        if lp.start_slot < 1 or end > spectrum_slots:
            raise InvalidConfiguration(
                f"window [{lp.start_slot}, {end}] outside spectrum 1..{spectrum_slots}"
            )
        if req.key in seen_keys:
            raise InvalidConfiguration(f"request {req.key} appears twice")
        seen_keys.add(req.key)
        for k in req.members:
            if k in seen_members:
                raise InvalidConfiguration(f"atomic request {k} covered twice")
            seen_members.add(k)
        for link in lp.path.links:
            if link in seen_links:
                raise InvalidConfiguration(f"link {link} used by two lightpaths")
            seen_links.add(link)
        ends = {lp.path.source, lp.path.dest}
        if ends != {req.source, req.dest}:
            raise InvalidConfiguration(
                f"path endpoints {ends} do not match request ({req.source}, {req.dest})"
            )
        if requests is not None and requests.get(req.key) != req:
            raise InvalidConfiguration(f"{req} is not the master's request of key {req.key}")


def first_fit(instance: Instance, order: Iterable[PricingRequest]) -> list[Configuration]:
    """A plan as columns, one configuration per start slot.

    Requests go in `order`; one whose members are already served is skipped. Each
    takes the lowest start slot at which a fewest-hop path avoids every link busy
    over its window. Lightpaths at one start slot all hold that slot's cell on each
    of their links, so they are link-disjoint.
    """
    topo, slots = instance.topology, instance.spectrum_slots
    busy = [0] * topo.num_links  # per link, bit s - 1 set when slot s is taken
    served: set[int] = set()
    routes: dict[int, list[tuple[PricingRequest, Path]]] = {}
    for req in order:
        if not served.isdisjoint(req.members):
            continue
        failed = None  # the link weights of the last slot without a path
        for s in range(1, slots - req.width + 2):
            window = ((1 << req.width) - 1) << (s - 1)
            weights = [math.inf if cells & window else 1.0 for cells in busy]
            if weights == failed:
                continue
            found = shortest_path(topo, req.source, req.dest, weights)
            if found is None:  # no path at all, whatever the weights
                break
            path, hops = found
            if math.isinf(hops):  # every path crosses a blocked link
                failed = weights
                continue
            for link in path.links:
                busy[link] |= window
            served.update(req.members)
            routes.setdefault(s, []).append((req, path))
            break
    return [Configuration(s, tuple(routes[s])) for s in sorted(routes)]


def lightpath_columns(
    instance: Instance, requests: Iterable[PricingRequest]
) -> list[Configuration]:
    """One single-lightpath column per request and start slot where its window fits.

    Each column takes the request's fewest-hop path, the one `first_fit` takes on
    an empty spectrum. Every such column is a configuration of its own.
    """
    topo, slots = instance.topology, instance.spectrum_slots
    columns = []
    for req in requests:
        found = shortest_path(topo, req.source, req.dest, [1.0] * topo.num_links)
        if found is not None:
            route = (req, found[0])
            columns += [Configuration(s, (route,)) for s in range(1, slots - req.width + 2)]
    return columns


def window_hits(sets: np.ndarray, widths: Sequence[int]) -> np.ndarray:
    """hits_w(T) by set and width: the fewest slots of a set T, one boolean row of
    `sets` over the spectrum, that a window of w slots inside the spectrum covers."""
    slots = sets.shape[1]
    covered = np.zeros((len(sets), slots + 1), dtype=np.int64)
    np.cumsum(sets, axis=1, out=covered[:, 1:])
    return np.array(
        [(covered[:, w:] - covered[:, : slots + 1 - w]).min(axis=1) for w in widths], dtype=np.int64
    ).reshape(len(widths), len(sets)).T


def slot_set_rows(slots: int, widths: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The slot sets T of the flow bound's link rows, as (hits_w(T) by set and width, |T|).

    The candidates are the centred intervals of every length, the full spectrum
    first, for each width w the progressions {o, o + w, ...}, and for each width
    w >= 2 their gap sets, the slots that a progression misses. A row whose
    hits_w(T) / |T| another row matches or exceeds at every width is implied by
    that row and left out, and of two rows with equal ratios the later one.
    """
    slot = np.arange(slots)
    sets = [(slot >= (slots - n) // 2) & (slot < (slots - n) // 2 + n) for n in range(slots, 0, -1)]
    sets += [(slot >= o) & ((slot - o) % w == 0) for w in widths for o in range(w)]
    sets += [(slot < o) | ((slot - o) % w != 0) for w in widths if w >= 2 for o in range(w)]
    sets = np.array(sets)
    hits, size = window_hits(sets, widths), sets.sum(axis=1)
    # a row implied by another has the smaller ratio sum, exactly so unless their
    # ratios are equal; so each row need only be checked against those kept before it
    kept: list[int] = []
    for a in sorted(range(len(sets)), key=lambda a: (-(hits[a] / size[a]).sum(), a)):
        if not (hits[a] * size[kept, None] <= hits[kept] * size[a]).all(axis=1).any():
            kept.append(a)
    kept.sort()
    return hits[kept], size[kept]


@dataclass(eq=False)
class MasterDuals:
    """Dual snapshot: one value per request row, one per (link, slot) row.

    mu_cell is indexed [link, slot-1]. Values are exactly what the engine
    reported; negatives survive until clamped().
    """

    mu_request: dict[int, float]
    mu_cell: np.ndarray

    def clamped(self) -> "MasterDuals":
        return MasterDuals(
            mu_request={k: max(v, 0.0) for k, v in self.mu_request.items()},
            mu_cell=np.maximum(self.mu_cell, 0.0),
        )


@dataclass(frozen=True)
class ProvisioningPlan:
    """Final per-request provisioning: each granted request gets one lightpath."""

    assignments: dict[int, Lightpath]  # atomic request id -> carrying lightpath
    throughput_slots: int
    slot_rate_gbps: float

    @property
    def throughput_gbps(self) -> float:
        return self.throughput_slots * self.slot_rate_gbps


class RestrictedMaster:
    """Mutable RMP state: build, grow by columns, prune, and finish with the ILP."""

    def __init__(
        self,
        instance: Instance,
        pricing_requests: Optional[Sequence[PricingRequest]] = None,
        backend: str = "bundled",
        deadline: Optional[float] = None,
    ):
        self.instance = instance
        self.deadline = deadline  # of the flow-bound LP and the final ILP, a time.monotonic() value
        self.atomics: dict[int, Request] = {r.id: r for r in instance.requests}
        if pricing_requests is None:
            pricing_requests = [PricingRequest.from_request(r) for r in instance.requests]
        self.pricing_requests = self._checked(pricing_requests)
        ordered = sorted(self.atomics.values(), key=lambda r: r.id)
        self._row_request = {req.id: row for row, req in enumerate(ordered)}
        self._grid = (instance.topology.num_links, instance.spectrum_slots)
        self.model = Model([0.0] * len(ordered) + [1.0] * math.prod(self._grid), backend)
        self._y = {
            req.id: self.model.add_variable(obj=float(req.demand), hi=1.0, coeffs={row: 1.0})
            for row, req in enumerate(ordered)
        }
        self._columns: dict[int, Configuration] = {}
        self.grants: dict[int, float] = {}  # y by atomic request id, from the last LP
        self.prune_checks: list[tuple[float, float]] = []
        # no LP value exceeds this; a request wider than the spectrum fits no window
        fitting = [r.demand for r in instance.requests if r.demand <= instance.spectrum_slots]
        self.upper_bound = float(sum(fitting))
        self._flow_pending = all(len(p.members) == 1 for p in self.pricing_requests.values())

    def _checked(self, requests: Iterable[PricingRequest]) -> dict[int, PricingRequest]:
        """The pricing requests by key; InvariantViolation unless each has its own key and
        distinct atomic members, joins their node pair and has their fused width."""
        by_key: dict[int, PricingRequest] = {}
        for p in requests:
            if p.key in by_key:
                raise InvariantViolation(f"pricing requests share key {p.key}")
            ids = set(p.members)
            if not ids or len(ids) < len(p.members) or not ids <= self.atomics.keys():
                raise InvariantViolation(f"pricing request {p.key}: bad members {p.members}")
            members = [self.atomics[k] for k in p.members]
            if any({r.source, r.dest} != {p.source, p.dest} for r in members):
                raise InvariantViolation(f"pricing request {p.key}: not its members' pair")
            if p.width != fused_width([r.demand for r in members]):
                raise InvariantViolation(f"pricing request {p.key}: width {p.width} is not fused")
            by_key[p.key] = p
        return by_key

    # -- columns -----------------------------------------------------------

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    def add_column(self, config: Configuration) -> int:
        validate_configuration(config, self.instance.spectrum_slots, self.pricing_requests)
        coeffs: dict[int, float] = {}
        for k in config.served_atomics():
            coeffs[self._row_request[k]] = -1.0
        links, slots = self._grid
        for link, s in config.occupied_cells():
            if not (0 <= link < links and 1 <= s <= slots):
                raise InvalidConfiguration(f"cell {(link, s)} outside the master grid")
            coeffs[len(self._row_request) + link * slots + s - 1] = 1.0
        vid = self.model.add_variable(obj=0.0, lo=0.0, hi=math.inf, coeffs=coeffs)
        self._columns[vid] = config
        return vid

    # -- LP phase ------------------------------------------------------------

    def solve_lp_and_prune(self) -> tuple[float, MasterDuals]:
        """Solve the LP, drop nonbasic zero columns, and re-verify the value.

        A prune that drops a column is followed by a re-solve from the retained
        basis, the prune-invariance check; one that drops none leaves the model
        as it was, so the check is recorded as (v, v). The duals come from the
        solve before the prune: they stay optimal for the pruned LP, since only
        nonbasic columns at zero go. The re-solve may end at another optimal
        dual, under which a dropped column would price out again.

        The first value that falls short of `upper_bound` lowers it to the flow
        bound, once, so a run can meet that bound, and its any-order start passes
        stop at it, before its first priced round.
        """
        sol = self._solve_lp_checked()
        dropped = self.model.prune(sol, self._columns)
        for vid in dropped:
            del self._columns[vid]
        sol2 = self._solve_lp_checked() if dropped else sol
        self.prune_checks.append((sol.objective, sol2.objective))
        if abs(sol.objective - sol2.objective) > 1e-6 * (1.0 + abs(sol.objective)):
            raise RuntimeError(
                f"pruning changed the LP value: {sol.objective} -> {sol2.objective}"
            )
        self.grants = {k: sol2.values[y] for k, y in self._y.items()}
        if self._flow_pending and not self.meets_bound(sol2.objective):
            self._flow_pending = False
            self.upper_bound = min(self.upper_bound, self._flow_bound())
        return sol2.objective, self._duals_from(sol)

    def meets_bound(self, value: float) -> bool:
        """True when an LP value reaches `upper_bound`, which no LP can beat."""
        return value >= self.upper_bound - 1e-6 * (1.0 + abs(self.upper_bound))

    def _flow_bound(self) -> float:
        """Optimum of a multicommodity-flow LP relaxation, a bound on every master LP.

        Max sum w_k y_k, y_k in [0, 1]: request k ships y_k lightpaths of width
        w_k between its ends. Each link has one row per slot set T of
        `slot_set_rows` (intervals, progressions and their gaps),
        `sum_w hits_w(T) flow_w(link) <= |T|` over both
        directions: a width-w lightpath takes at least hits_w(T) of the link's
        cells in T, and each cell holds at most one lightpath.

        Widths whose hits are proportional, hits_w = scale_w * unit, share one
        commodity whose flow counts units. A commodity is rooted at one end of
        each of its requests, greedily: the (node, unit) pair with the most
        requests left. Its flow from the root splits into paths to the other
        ends, so one row per other node v suffices: `sum_k scale_k y_k +
        out(v) - in(v) <= 0` over its requests k ending at v (inflow beyond
        that can be cut back along its paths), and no flow enters the root.
        With the full spectrum's row alone this is the plain flow LP, each link
        carrying at most |S| slots. It bounds the master only when every pricing
        request is one atomic request: a fused window takes fewer slots than its
        members. Cut by the deadline, it leaves the fitting demand.
        """
        topo, slots = self.instance.topology, self.instance.spectrum_slots
        requests = [p for p in self.pricing_requests.values() if p.width <= slots]
        widths = sorted({p.width for p in requests})
        hits, size = slot_set_rows(slots, widths)
        scale = {w: math.gcd(*col) for w, col in zip(widths, hits.T.tolist())}
        unit = {w: tuple(h // scale[w] for h in col) for w, col in zip(widths, hits.T.tolist())}
        commodity: dict[int, tuple] = {}  # request key -> (root, unit)
        left = requests
        while left:
            count = Counter((n, unit[p.width]) for p in left for n in (p.source, p.dest))
            root, u = max(count, key=count.__getitem__)
            for p in left:
                if unit[p.width] == u and root in (p.source, p.dest):
                    commodity[p.key] = (root, u)
            left = [p for p in left if p.key not in commodity]
        commodities = sorted(set(commodity.values()))
        targets = [(c, v) for c in commodities for v in topo.nodes if v != c[0]]
        row, cap = {target: i for i, target in enumerate(targets)}, len(targets)
        model = Model([0.0] * cap + size.tolist() * topo.num_links, self.model.backend)
        for p in requests:
            c = commodity[p.key]
            end = p.dest if p.source == c[0] else p.source
            model.add_variable(obj=float(p.width), hi=1.0, coeffs={row[c, end]: scale[p.width]})
        for c in commodities:
            root, u = c
            for link, ends in enumerate(topo.links):
                first = cap + link * len(size)
                for a, b in (ends, ends[::-1]):  # flow from a to b leaves a, enters b
                    if b == root:
                        continue
                    coeffs = {first + t: float(h) for t, h in enumerate(u) if h}
                    coeffs[row[c, b]] = -1.0
                    if a != root:
                        coeffs[row[c, a]] = 1.0
                    model.add_variable(coeffs=coeffs)
        sol = model.solve_lp(self.deadline)
        if sol.status is SolveStatus.TIME_LIMIT:
            return self.upper_bound
        if sol.status is not SolveStatus.OPTIMAL:
            raise RuntimeError(f"flow bound LP failed: {sol.status}")
        return sol.objective

    def _solve_lp_checked(self):
        sol = self.model.solve_lp()
        if sol.status is not SolveStatus.OPTIMAL:
            raise RuntimeError(f"master LP solve failed: {sol.status}")
        return sol

    def _duals_from(self, sol) -> MasterDuals:
        requests = len(self._row_request)
        return MasterDuals(
            mu_request=dict(zip(self._row_request, sol.duals[:requests].tolist())),
            mu_cell=sol.duals[requests:].reshape(self._grid),
        )

    # -- final ILP ------------------------------------------------------------

    def solve_final_ilp(
        self, relative_gap: float
    ) -> tuple[float, list[Configuration], MipSolution]:
        """Restrict columns to {0,1} and solve until `deadline`, on the bundled engine from
        the last LP's basis; y integrality must emerge. A search that ends, by the deadline
        or a numerical failure, before any incumbent selects no column."""
        mip = self.model.solve_mip(relative_gap, self._columns, self.deadline)
        if mip.status is SolveStatus.INFEASIBLE:  # the zero point is always feasible
            raise RuntimeError(f"final ILP failed: {mip.status}")
        if not mip.values:  # timed out, or failed numerically, before any incumbent
            return 0.0, [], mip
        for k, y in self._y.items():
            yv = mip.values[y]
            if min(yv, 1.0 - yv) > INT_TOL:
                raise RuntimeError(f"y for request {k} is fractional in the incumbent: {yv}")
        selected = [
            self._columns[vid]
            for vid in sorted(self._columns)
            if mip.values.get(vid, 0.0) > 0.5
        ]
        # the value of what the columns serve: a timed-out incumbent may leave such a y at 0
        return float(self.served_slots(selected)), selected, mip

    # -- post-processing ---------------------------------------------------

    def served_slots(self, columns: Iterable[Configuration]) -> int:
        """The demand of the atomic requests `columns` serve: their post-processed plan's value."""
        served = {k for config in columns for k in config.served_atomics()}
        return sum(self.atomics[k].demand for k in served)

    def post_process(self, selected: Iterable[Configuration]) -> ProvisioningPlan:
        """Collapse multiple grants per request down to a single lightpath.

        Preference order: a lightpath already kept for another member, then
        fewest hops, smallest starting slot, lexicographically smallest link
        sequence. Dropped duplicates free their cells entirely.
        """
        covering: dict[int, list[Lightpath]] = {}
        for config in selected:
            for lp in config.lightpaths:
                for k in lp.members:
                    covering.setdefault(k, []).append(lp)

        def rank(lp: Lightpath) -> tuple:
            return (lp.path.hops, lp.start_slot, lp.path.links)

        assignments: dict[int, Lightpath] = {}
        kept: set[Lightpath] = set()
        for k in sorted(covering):
            options = covering[k]
            already = [lp for lp in options if lp in kept]
            chosen = min(already, key=rank) if already else min(options, key=rank)
            kept.add(chosen)
            assignments[k] = chosen

        return ProvisioningPlan(
            assignments=assignments,
            throughput_slots=sum(self.atomics[k].demand for k in assignments),
            slot_rate_gbps=self.instance.slot_rate_gbps,
        )

