"""The benchmark's workloads: seeded instance batches and the solver settings for each.

Every instance of a batch comes from `--seed`, so the same seed gives the same
inputs; the base instances are fixed per workload, so every seed asks for
about the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from eonrsa import Instance, Request, SolveConfig, Topology, builtin_topology, generate_icton_style


@dataclass(frozen=True)
class Workload:
    """Fixed base instances, relabelled by `--seed`, solved with one configuration.

    Every seed poses the same problems under new node names, link order and
    request order, so seeds differ only in the solver's tie-breaks and the
    amount of work stays comparable between runs.
    """

    name: str
    config: SolveConfig
    pairs: int = 0  # spain21 base instances: node pairs and spectrum slots
    slots: int = 0
    base_seeds: tuple[int, ...] = ()  # generator seeds of the base instances
    tiny: bool = False  # tiny random base instances, checked against the oracle

    def base_instances(self) -> list[Instance]:
        if self.tiny:
            return [tiny_instance(g, f"tiny_g{g}") for g in self.base_seeds]
        topology = builtin_topology("spain21")
        return [
            generate_icton_style(
                topology, num_pairs=self.pairs, seed=g, spectrum_slots=self.slots,
                name=f"spain21_p{self.pairs}_s{self.slots}_g{g}",
            )
            for g in self.base_seeds
        ]

    def instances(self, seed: int) -> list[Instance]:
        rng = random.Random(f"{self.name}:{seed}")
        return [relabel(base, rng, f"{base.name}_r{seed}") for base in self.base_instances()]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-highs", SolveConfig(backend="highs"),
            pairs=15, slots=20, base_seeds=tuple(range(1, 13)),
        ),
        Workload(
            "tiny-oracle", SolveConfig(backend="bundled", final_ilp_relative_gap=0.0),
            tiny=True, base_seeds=tuple(range(200)),
        ),
    )
}


def relabel(instance: Instance, rng: random.Random, name: str) -> Instance:
    """The same network and traffic under shuffled node names, link order and
    orientation, and request order and orientation."""
    old = instance.topology.nodes
    names = [f"v{i:02d}" for i in range(len(old))]
    rng.shuffle(names)
    rename = dict(zip(old, names))

    def pair(a: str, b: str) -> tuple[str, str]:
        return (rename[a], rename[b]) if rng.random() < 0.5 else (rename[b], rename[a])

    links = [pair(a, b) for a, b in instance.topology.links]
    rng.shuffle(links)
    requests = list(instance.requests)
    rng.shuffle(requests)
    topology = Topology(
        name=f"{instance.topology.name}-{name}", nodes=tuple(sorted(names)), links=tuple(links)
    )
    return Instance(
        topology=topology,
        spectrum_slots=instance.spectrum_slots,
        requests=tuple(
            Request(i, *pair(r.source, r.dest), r.demand) for i, r in enumerate(requests)
        ),
        slot_rate_gbps=instance.slot_rate_gbps,
        name=name,
    )


def tiny_instance(seed: int, name: str) -> Instance:
    """A connected random instance within the oracle's limits: at most 6 nodes,
    8 links, 5 requests of 1-3 slots, and 8 slots of spectrum."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    nodes = tuple(f"n{i}" for i in range(n))
    edges = {(rng.randrange(i), i) for i in range(1, n)}  # a random spanning tree
    extra = rng.randint(0, min(8, n * (n - 1) // 2) - len(edges))
    while extra:
        a, b = sorted(rng.sample(range(n), 2))
        if (a, b) not in edges:
            edges.add((a, b))
            extra -= 1
    links = tuple((nodes[a], nodes[b]) for a, b in sorted(edges))
    requests = []
    for i in range(rng.randint(1, 5)):
        a, b = rng.sample(range(n), 2)
        requests.append(Request(i, nodes[a], nodes[b], rng.randint(1, 3)))
    return Instance(
        topology=Topology(name=name, nodes=nodes, links=links),
        spectrum_slots=rng.randint(2, 8),
        requests=tuple(requests),
        name=name,
    )


def warmup_instance() -> Instance:
    """A fixed four-node ring with three requests; solving it finishes the lazy imports."""
    nodes = ("a", "b", "c", "d")
    links = (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"))
    requests = (Request(0, "a", "c", 2), Request(1, "b", "d", 1), Request(2, "a", "b", 3))
    return Instance(
        Topology("ring4", nodes, links), spectrum_slots=4, requests=requests, name="warmup"
    )
