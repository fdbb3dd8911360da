"""Undirected network graphs and the weighted shortest-path query.

Link ids are dense indices into the link list (file order). The shortest-path
query breaks weight ties by hop count, then by the lexicographically smallest
link-id sequence, so identical inputs always produce identical paths.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional, Sequence

from .errors import InvariantViolation, ParseError

BUILTIN_TOPOLOGIES = ("spain21", "usa24")


@dataclass(frozen=True)
class Path:
    """A simple path described by its link-id sequence and node sequence."""

    links: tuple[int, ...]
    nodes: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.links) + 1:
            raise InvariantViolation(
                f"path with {len(self.links)} links must visit {len(self.links) + 1} nodes"
            )
        if len(set(self.nodes)) != len(self.nodes):
            raise InvariantViolation(f"path revisits a node: {self.nodes}")

    @property
    def source(self) -> str:
        return self.nodes[0]

    @property
    def dest(self) -> str:
        return self.nodes[-1]

    @property
    def hops(self) -> int:
        return len(self.links)


@dataclass(frozen=True)
class Topology:
    """Simple undirected graph; links carry dense ids 0..|L|-1 in list order."""

    name: str
    nodes: tuple[str, ...]
    links: tuple[tuple[str, str], ...]
    _adjacency: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise InvariantViolation("duplicate node id")
        seen_pairs = set()
        adjacency: dict[str, list[tuple[int, str]]] = {n: [] for n in self.nodes}
        for link_id, (a, b) in enumerate(self.links):
            if a not in node_set or b not in node_set:
                raise InvariantViolation(f"link {link_id} endpoint not in node list: ({a}, {b})")
            if a == b:
                raise InvariantViolation(f"link {link_id} is a self-loop at {a}")
            pair = (a, b) if a <= b else (b, a)
            if pair in seen_pairs:
                raise InvariantViolation(f"duplicate undirected link between {a} and {b}")
            seen_pairs.add(pair)
            adjacency[a].append((link_id, b))
            adjacency[b].append((link_id, a))
        for neighbors in adjacency.values():
            neighbors.sort()
        object.__setattr__(self, "_adjacency", adjacency)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_links(self) -> int:
        return len(self.links)

    def neighbors(self, node: str) -> Sequence[tuple[int, str]]:
        """(link id, other endpoint) pairs, sorted by link id."""
        return self._adjacency[node]

    def node_pairs(self) -> list[tuple[str, str]]:
        """All unordered node pairs, in node-list order."""
        return [
            (self.nodes[i], self.nodes[j])
            for i in range(len(self.nodes))
            for j in range(i + 1, len(self.nodes))
        ]

    def validate_path(self, path: Path) -> None:
        """Check a path's links exist and chain source to destination."""
        at = path.source
        for link_id, expect_next in zip(path.links, path.nodes[1:]):
            a, b = self.links[link_id]
            if at == a:
                at = b
            elif at == b:
                at = a
            else:
                raise InvariantViolation(f"link {link_id} does not touch node {at}")
            if at != expect_next:
                raise InvariantViolation(f"node sequence disagrees with link {link_id}")


def shortest_path(
    topology: Topology,
    source: str,
    dest: str,
    weights: Sequence[float],
) -> Optional[tuple[Path, float]]:
    """Minimum-weight simple path under non-negative per-link weights (NaN is not one).

    Ties are broken by fewest hops, then by lexicographically smallest link-id
    sequence. Returns None when dest is unreachable.
    """
    if source == dest:
        raise ValueError("source and destination must differ")
    if len(weights) != topology.num_links:
        raise ValueError(f"expected {topology.num_links} weights, got {len(weights)}")
    cost = [float(x) for x in weights]  # Python floats add faster than numpy scalars
    if any(not x >= 0.0 for x in cost):
        raise ValueError("negative or NaN link weight (caller must clamp)")
    # Labels are (dist, hops, link-seq); Dijkstra finalizes each node once, so
    # the first pop per node is minimal under the full lexicographic order and
    # the resulting path is simple.
    heap: list[tuple[float, int, tuple[int, ...], str]] = [(0.0, 0, (), source)]
    done: set[str] = set()
    while heap:
        dist, hops, seq, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node == dest:
            nodes = [source]
            at = source
            for link_id in seq:
                a, b = topology.links[link_id]
                at = b if at == a else a
                nodes.append(at)
            return Path(links=seq, nodes=tuple(nodes)), dist
        for link_id, other in topology.neighbors(node):
            if other in done:
                continue
            heapq.heappush(heap, (dist + cost[link_id], hops + 1, seq + (link_id,), other))
    return None


def _topology_from_dict(data: dict) -> Topology:
    try:
        name = str(data.get("name", ""))
        nodes = tuple(str(n) for n in data["nodes"])
        links = tuple((str(a), str(b)) for a, b in data["links"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"topology missing/invalid field: {exc}") from exc
    return Topology(name=name, nodes=nodes, links=links)


def _topology_to_dict(topology: Topology) -> dict:
    return {
        "name": topology.name,
        "nodes": list(topology.nodes),
        "links": [list(pair) for pair in topology.links],
    }


def builtin_topology(name: str) -> Topology:
    """Load one of the shipped reference topologies ("spain21", "usa24")."""
    if name not in BUILTIN_TOPOLOGIES:
        raise KeyError(f"unknown topology {name!r}; available: {BUILTIN_TOPOLOGIES}")
    text = resources.files("eonrsa.data").joinpath(f"{name}.json").read_text("utf-8")
    return _topology_from_dict(json.loads(text))


def enumerate_simple_paths(
    topology: Topology, source: str, dest: str, max_hops: int
) -> list[Path]:
    """All simple source->dest paths with at most max_hops links (small graphs only)."""
    results: list[Path] = []

    def extend(node: str, links: tuple[int, ...], nodes: tuple[str, ...]) -> None:
        if node == dest:
            results.append(Path(links=links, nodes=nodes))
            return
        if len(links) >= max_hops:
            return
        for link_id, other in topology.neighbors(node):
            if other not in nodes:
                extend(other, links + (link_id,), nodes + (other,))

    extend(source, (), (source,))
    results.sort(key=lambda p: (p.hops, p.links))
    return results
