import contextlib
import random

import pytest

from eonrsa import Instance, Request, RestrictedMaster, Topology


def make_random_tiny_instance(
    seed: int,
    max_nodes: int = 6,
    max_links: int = 8,
    max_requests: int = 5,
    max_spectrum: int = 8,
    max_demand: int = 3,
) -> Instance:
    """Seeded connected instance within the oracle limits."""
    rng = random.Random(seed)
    n = rng.randint(2, max_nodes)
    nodes = tuple(f"n{i}" for i in range(n))
    links = []
    present = set()
    for i in range(1, n):  # random spanning tree keeps it connected
        j = rng.randrange(i)
        links.append((nodes[j], nodes[i]))
        present.add((j, i))
    budget = min(max_links, n * (n - 1) // 2) - len(links)
    extra = rng.randint(0, max(0, budget))
    guard = 0
    while extra > 0 and guard < 100:
        guard += 1
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        a, b = min(i, j), max(i, j)
        if (a, b) in present:
            continue
        present.add((a, b))
        links.append((nodes[a], nodes[b]))
        extra -= 1
    topo = Topology(name=f"rand{seed}", nodes=nodes, links=tuple(links))
    spectrum = rng.randint(2, max_spectrum)
    k = rng.randint(1, max_requests)
    requests = []
    for i in range(k):
        a, b = rng.sample(range(n), 2)
        requests.append(Request(i, nodes[a], nodes[b], rng.randint(1, max_demand)))
    return Instance(
        topology=topo, spectrum_slots=spectrum, requests=tuple(requests), name=f"tiny{seed}"
    )


def widest_first(requests, keys_descending: bool = False) -> list:
    """Pricing requests widest first, ties by key: the first two first-fit orders of a solve."""
    return sorted(requests, key=lambda p: (-p.width, -p.key if keys_descending else p.key))


def make_four_node_instance(seed: int) -> Instance:
    rng = random.Random(seed)
    nodes = ("a", "b", "c", "d")
    all_edges = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    rng.shuffle(all_edges)
    links = tuple(sorted(all_edges[: rng.randint(4, 6)]))
    topo = Topology(name=f"quad{seed}", nodes=nodes, links=links)
    spectrum = rng.randint(3, 8)
    k = rng.randint(2, 4)
    requests = tuple(
        Request(i, *rng.sample(nodes, 2), demand=rng.randint(1, 3)) for i in range(k)
    )
    return Instance(topology=topo, spectrum_slots=spectrum, requests=requests, name=f"quad{seed}")


def model_column(model, vid: int) -> tuple[float, dict[int, float]]:
    """Objective coefficient and {row: coefficient} of a model variable, read from its store."""
    mat = model.arrays()
    j = mat.var_ids.index(vid)
    s, e = mat.indptr[j], mat.indptr[j + 1]
    return float(mat.c[j]), dict(zip(mat.indices[s:e].tolist(), mat.data[s:e].tolist()))


def reduced_costs(model, sol) -> dict[int, float]:
    """Each variable's reduced cost d = c - A^T y under the solution's row duals."""
    mat = model.arrays()
    d = mat.c.copy()
    for j in range(mat.n):
        s, e = mat.indptr[j], mat.indptr[j + 1]
        d[j] -= mat.data[s:e] @ sol.duals[mat.indices[s:e]]
    return dict(zip(mat.var_ids, d.tolist()))


def column_ids(rmp: RestrictedMaster) -> list[int]:
    """The master's configuration columns, ascending."""
    return sorted(rmp._columns)


def configurations(rmp: RestrictedMaster) -> list:
    """The configuration of each column, in `column_ids` order."""
    return [rmp._columns[vid] for vid in column_ids(rmp)]


def column_coefficients(rmp: RestrictedMaster, vid: int):
    """Stored coefficients of a master column: (covered atomics, occupied cells)."""
    _, coeffs = model_column(rmp.model, vid)
    ids, slots = list(rmp._row_request), rmp.instance.spectrum_slots
    atomics = frozenset(ids[row] for row, v in coeffs.items() if v == -1.0)
    cells = [divmod(row - len(ids), slots) for row, v in coeffs.items() if v == 1.0]
    return atomics, frozenset((link, s + 1) for link, s in cells)


def signature(config) -> tuple:
    """A configuration's starting slot and its (request key, links) pairs, sorted."""
    return (
        config.start_slot,
        tuple(sorted((lp.request_key, lp.path.links) for lp in config.lightpaths)),
    )


def master_reduced_cost(config, master_duals) -> float:
    """Recompute a column's reduced cost from (mu, a, b) with clamped duals."""
    duals = master_duals.clamped()
    value = sum(duals.mu_request.get(k, 0.0) for k in config.served_atomics())
    for link, slot in config.occupied_cells():
        value -= float(duals.mu_cell[link, slot - 1])
    return value


@contextlib.contextmanager
def recorded_master_duals():
    """Yields a list that collects the duals of every master LP solve inside the block."""
    snapshots = []
    original = RestrictedMaster.solve_lp_and_prune

    def recording(rmp):
        value, duals = original(rmp)
        snapshots.append(duals)
        return value, duals

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RestrictedMaster, "solve_lp_and_prune", recording)
        yield snapshots


@pytest.fixture
def triangle() -> Topology:
    return Topology(name="triangle", nodes=("a", "b", "c"), links=(("a", "b"), ("b", "c"), ("a", "c")))


@pytest.fixture
def two_node() -> Topology:
    return Topology(name="pair", nodes=("a", "b"), links=(("a", "b"),))
