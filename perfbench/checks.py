"""Output checks computed apart from the solver.

The plan scan and the greedy first-fit plan read only the instance's raw
fields (node names, link list, requests) and share no code with
`eonrsa.oracle`. Each check returns a list of problems; empty means passed.
"""

from __future__ import annotations

from collections import deque

TOL = 1e-6
GREEDY_PATHS = 3  # candidate paths per request in the greedy plan,
GREEDY_HOP_SLACK = 1  # at most this many hops above the fewest

# (links, nodes, start slot, width) of one granted request
Grant = tuple[tuple[int, ...], tuple[str, ...], int, int]


def plan_grants(plan) -> dict[int, Grant]:
    """A solver plan as plain tuples, so the scan never calls the solver's objects."""
    return {
        k: (tuple(lp.path.links), tuple(lp.path.nodes), lp.start_slot, lp.width)
        for k, lp in plan.assignments.items()
    }


def scan_plan(instance, grants: dict[int, Grant], value: float) -> list[str]:
    """Paths are simple and join the endpoints, windows fit and match the demand,
    no (link, slot) cell is used twice, and the granted demands sum to `value`."""
    problems: list[str] = []
    links = instance.topology.links
    requests = {r.id: r for r in instance.requests}
    used: dict[tuple[int, int], int] = {}
    for k, (path_links, nodes, start, width) in sorted(grants.items()):
        req = requests.get(k)
        if req is None:
            problems.append(f"grant for unknown request {k}")
            continue
        if len(nodes) != len(path_links) + 1 or len(set(nodes)) != len(nodes):
            problems.append(f"request {k}: path {nodes} is not simple")
        elif {nodes[0], nodes[-1]} != {req.source, req.dest}:
            problems.append(f"request {k}: path joins {nodes[0]}-{nodes[-1]}")
        else:
            for i, link in enumerate(path_links):
                if not 0 <= link < len(links) or set(links[link]) != {nodes[i], nodes[i + 1]}:
                    problems.append(f"request {k}: hop {i} is not link {link}")
                    break
        if width != req.demand or start < 1 or start + width - 1 > instance.spectrum_slots:
            problems.append(f"request {k}: window [{start}, +{width}) for demand {req.demand}")
        for link in path_links:
            for slot in range(start, start + width):
                other = used.setdefault((link, slot), k)
                if other != k:
                    problems.append(f"cell ({link}, {slot}) used by {other} and {k}")
    granted = sum(requests[k].demand for k in grants if k in requests)
    if abs(granted - value) > TOL:
        problems.append(f"granted demands sum to {granted}, solver reports {value}")
    return problems


def check_solve(instance, report, plan, reference: float, oracle: bool) -> list[str]:
    """Scan the plan; z_ilp <= z_lp <= offered demand; no time-out; a non-decreasing
    LP trace; and the bounds against `reference`, an exhaustive optimum when
    `oracle` is set, else the value of a feasible plan."""
    z_lp, z_ilp = report.z_lp_star_slots, report.z_ilp_slots
    problems = scan_plan(instance, plan_grants(plan), z_ilp)
    offered = sum(r.demand for r in instance.requests)
    if not z_ilp <= z_lp + TOL * (1 + abs(z_lp)):
        problems.append(f"z_ilp {z_ilp} above z_lp {z_lp}")
    if not z_lp <= offered + TOL * (1 + offered):
        problems.append(f"z_lp {z_lp} above the offered {offered}")
    if report.timed_out:
        problems.append("run timed out without a time limit")
    trace = report.lp_value_trace
    for a, b in zip(trace, trace[1:]):
        if b < a - TOL * (1 + abs(a)):
            problems.append(f"lp_value_trace falls from {a} to {b}")
            break
    # Only a certified z_lp bounds every plan; z_ilp is itself a plan's value.
    if report.certified and reference > z_lp + TOL * (1 + z_lp):
        problems.append(f"certified z_lp {z_lp} below the reference plan's {reference}")
    if oracle and z_ilp > reference + TOL:
        problems.append(f"z_ilp {z_ilp} above the oracle optimum {reference}")
    return problems


def _candidate_paths(adjacency, source, dest, count, slack):
    """Up to `count` simple paths, fewest hops first, at most `slack` hops above the minimum."""
    hops = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for _link, other in adjacency[node]:
            if other not in hops:
                hops[other] = hops[node] + 1
                queue.append(other)
    if dest not in hops:
        return []
    limit = hops[dest] + slack
    found = []

    def extend(node, path_links, nodes):
        if node == dest:
            found.append((len(path_links), path_links, nodes))
            return
        if len(path_links) >= limit:
            return
        for link, other in adjacency[node]:
            if other not in nodes:
                extend(other, path_links + (link,), nodes + (other,))

    extend(source, (), (source,))
    found.sort()
    return [(links, nodes) for _, links, nodes in found[:count]]


def greedy_first_fit(instance) -> dict[int, Grant]:
    """Requests in id order, each on the candidate path whose lowest free window starts first."""
    adjacency: dict[str, list[tuple[int, str]]] = {n: [] for n in instance.topology.nodes}
    for link, (a, b) in enumerate(instance.topology.links):
        adjacency[a].append((link, b))
        adjacency[b].append((link, a))
    spectrum = instance.spectrum_slots
    busy: set[tuple[int, int]] = set()
    grants: dict[int, Grant] = {}
    for req in sorted(instance.requests, key=lambda r: r.id):
        best = None
        for links, nodes in _candidate_paths(
            adjacency, req.source, req.dest, GREEDY_PATHS, GREEDY_HOP_SLACK
        ):
            for start in range(1, spectrum - req.demand + 2):
                window = range(start, start + req.demand)
                if all((link, s) not in busy for link in links for s in window):
                    if best is None or start < best[2]:
                        best = (links, nodes, start, req.demand)
                    break
        if best is not None:
            grants[req.id] = best
            busy.update((link, s) for link in best[0] for s in range(best[2], best[2] + best[3]))
    return grants
