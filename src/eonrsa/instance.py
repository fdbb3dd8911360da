"""Traffic requests, seeded instance generation, and instance file I/O."""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import ParseError, UnknownNode
from .topology import BUILTIN_TOPOLOGIES, Topology, builtin_topology
from .topology import _topology_from_dict, _topology_to_dict

DEFAULT_SLOT_RATE_GBPS = 25.0

# INOC-style recipe: demand granularities (slots) with their draw probabilities.
INOC_GRANULARITIES = (4, 8, 16)
INOC_PROPORTIONS = (0.7, 0.2, 0.1)
# ICTON-style recipe: demand granularities (slots), drawn uniformly.
ICTON_GRANULARITIES = tuple(range(1, 9))


@dataclass(frozen=True)
class Request:
    """One optical connection: source, destination, demand in slots."""

    id: int
    source: str
    dest: str
    demand: int

    def __post_init__(self) -> None:
        if self.source == self.dest:
            raise ValueError(f"request {self.id}: source equals destination ({self.source})")
        if self.demand < 1:
            raise ValueError(f"request {self.id}: demand must be >= 1, got {self.demand}")

    @property
    def pair(self) -> tuple[str, str]:
        a, b = self.source, self.dest
        return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Instance:
    """A topology, a spectrum size, and the requests to provision on it."""

    topology: Topology
    spectrum_slots: int
    requests: tuple[Request, ...]
    slot_rate_gbps: float = DEFAULT_SLOT_RATE_GBPS
    name: str = ""

    def __post_init__(self) -> None:
        if self.spectrum_slots < 1:
            raise ValueError("spectrum_slots must be positive")
        if not 0 < self.slot_rate_gbps < math.inf:
            raise ValueError("slot_rate_gbps must be positive and finite")
        nodes = set(self.topology.nodes)
        for req in self.requests:
            if req.source not in nodes or req.dest not in nodes:
                raise UnknownNode(
                    f"request {req.id} endpoints ({req.source}, {req.dest}) not in topology"
                )

    @property
    def total_demand_slots(self) -> int:
        return sum(r.demand for r in self.requests)

    @property
    def offered_load_gbps(self) -> float:
        return self.slot_rate_gbps * self.total_demand_slots


def aggregate_per_node_pair(
    requests: Sequence[Request],
) -> tuple[list[Request], dict[int, list[int]]]:
    """Merge requests per unordered node pair, summing demands.

    Returns the aggregated list (ids 0..n-1, pairs in first-seen order) and a
    map from each aggregate id to the member request ids it absorbed.
    """
    order: list[tuple[str, str]] = []
    demand: dict[tuple[str, str], int] = {}
    members: dict[tuple[str, str], list[int]] = {}
    for req in requests:
        key = req.pair
        if key not in demand:
            order.append(key)
            demand[key] = 0
            members[key] = []
        demand[key] += req.demand
        members[key].append(req.id)
    aggregated = [
        Request(id=i, source=pair[0], dest=pair[1], demand=demand[pair])
        for i, pair in enumerate(order)
    ]
    return aggregated, {i: members[pair] for i, pair in enumerate(order)}


def generate_inoc_style(
    topology: Topology,
    target_load_gbps: float,
    seed: int,
    spectrum_slots: int = 400,
) -> Instance:
    """Seeded traffic over all node pairs until the offered load reaches the target.

    Demands are drawn from {4, 8, 16} slots with probabilities {0.7, 0.2, 0.1};
    requests are assigned round-robin over a seeded shuffle of all node pairs,
    stopping at the first request that reaches or exceeds the target load.
    """
    if not 0 < target_load_gbps < math.inf:
        raise ValueError("target_load_gbps must be positive and finite")
    if topology.num_nodes < 2:
        raise ValueError("topology needs at least 2 nodes")
    rng = random.Random(seed)
    pairs = topology.node_pairs()
    rng.shuffle(pairs)
    requests: list[Request] = []
    load = 0.0
    i = 0
    while load < target_load_gbps:
        src, dst = pairs[i % len(pairs)]
        d = rng.choices(INOC_GRANULARITIES, weights=INOC_PROPORTIONS, k=1)[0]
        requests.append(Request(id=len(requests), source=src, dest=dst, demand=d))
        load += d * DEFAULT_SLOT_RATE_GBPS
        i += 1
    return Instance(
        topology=topology,
        spectrum_slots=spectrum_slots,
        requests=tuple(requests),
        name=f"{topology.name}_{target_load_gbps / 1000.0:g}",
    )


def generate_icton_style(
    topology: Topology,
    num_pairs: int,
    seed: int,
    spectrum_slots: int = 50,
    name: str = "",
) -> Instance:
    """One request on each of num_pairs distinct node pairs, demands uniform over 1..8 slots."""
    pairs = topology.node_pairs()
    if num_pairs > len(pairs):
        raise ValueError(f"topology only has {len(pairs)} node pairs")
    rng = random.Random(seed)
    chosen = rng.sample(pairs, num_pairs)
    requests = tuple(
        Request(id=i, source=a, dest=b, demand=rng.choice(ICTON_GRANULARITIES))
        for i, (a, b) in enumerate(chosen)
    )
    return Instance(
        topology=topology,
        spectrum_slots=spectrum_slots,
        requests=requests,
        name=name or f"{topology.name}_p{num_pairs}",
    )


def save_instance(instance: Instance) -> bytes:
    payload: dict = {
        "spectrum_slots": instance.spectrum_slots,
        "slot_rate_gbps": instance.slot_rate_gbps,
        "requests": [
            {"src": r.source, "dst": r.dest, "demand_slots": r.demand}
            for r in instance.requests
        ],
    }
    if instance.name:
        payload["name"] = instance.name
    topology = instance.topology
    if topology.name in BUILTIN_TOPOLOGIES and topology == builtin_topology(topology.name):
        payload["topology_id"] = topology.name
    else:
        payload["topology"] = _topology_to_dict(topology)
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def _whole(value, field: str) -> int:
    """An instance-file count; anything but an integral JSON number is a ParseError."""
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not int:  # a string, a fraction, a boolean
        raise ParseError(f"{field} must be an integer, got {json.dumps(value)}")
    return value


def _rate(value) -> float:
    """The slot rate as a float; anything but a positive finite JSON number is a ParseError."""
    if type(value) not in (int, float) or not 0 < value < math.inf:
        raise ParseError(f"slot_rate_gbps must be positive and finite, got {json.dumps(value)}")
    return float(value)


def load_instance(data: bytes | str) -> Instance:
    """Parse an instance file, topology included (built-in by id, or inline)."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ParseError("instance file must be a JSON object")

    if "topology_id" in obj:
        if obj["topology_id"] not in BUILTIN_TOPOLOGIES:
            raise ParseError(f"topology_id {obj['topology_id']!r} not in {BUILTIN_TOPOLOGIES}")
        topology = builtin_topology(obj["topology_id"])
    elif "topology" in obj:
        topology = _topology_from_dict(obj["topology"])
    else:
        raise ParseError("instance file declares neither topology_id nor inline topology")

    try:
        spectrum = _whole(obj["spectrum_slots"], "spectrum_slots")
        slot_rate = _rate(obj.get("slot_rate_gbps", DEFAULT_SLOT_RATE_GBPS))
        raw_requests = obj["requests"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"instance file missing/invalid field: {exc}") from exc
    if spectrum < 1:
        raise ParseError("spectrum_slots must be positive")
    if not isinstance(raw_requests, list):
        raise ParseError(f"requests must be a list, got {json.dumps(raw_requests)}")

    requests = []
    for i, entry in enumerate(raw_requests):
        try:
            requests.append(
                Request(
                    id=i,
                    source=str(entry["src"]),
                    dest=str(entry["dst"]),
                    demand=_whole(entry["demand_slots"], "demand_slots"),
                )
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"request #{i} missing/invalid field: {exc}") from exc
        except ValueError as exc:
            raise ParseError(f"request #{i}: {exc}") from exc

    return Instance(
        topology=topology,
        spectrum_slots=spectrum,
        requests=tuple(requests),
        slot_rate_gbps=slot_rate,
        name=str(obj.get("name", "")),
    )
