import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eonrsa import (
    InvariantViolation,
    ParseError,
    Topology,
    builtin_topology,
    enumerate_simple_paths,
    load_instance,
    shortest_path,
)


def test_triangle_prefers_cheap_two_hop(triangle):
    # a-b (1) + b-c (1) beats the direct a-c link at weight 3
    result = shortest_path(triangle, "a", "c", [1.0, 1.0, 3.0])
    assert result is not None
    path, weight = result
    assert weight == 2.0
    assert path.links == (0, 1)
    assert path.nodes == ("a", "b", "c")


def test_zero_weights_tie_break_fewest_hops(triangle):
    path, weight = shortest_path(triangle, "a", "c", [0.0, 0.0, 0.0])
    assert weight == 0.0
    assert path.links == (2,)  # direct link wins the hop tie-break


def test_equal_weight_tie_break_lexicographic():
    # two parallel 2-hop routes a-b-d and a-c-d with identical weights
    topo = Topology(
        name="diamond",
        nodes=("a", "b", "c", "d"),
        links=(("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")),
    )
    path, weight = shortest_path(topo, "a", "d", [1.0, 1.0, 1.0, 1.0])
    assert weight == 2.0
    assert path.links == (0, 2)  # smallest link-id sequence


def test_disconnected_returns_none():
    topo = Topology(name="split", nodes=("a", "b", "c"), links=(("a", "b"),))
    assert shortest_path(topo, "a", "c", [1.0]) is None


def test_negative_weight_rejected(triangle):
    with pytest.raises(ValueError):
        shortest_path(triangle, "a", "c", [1.0, -0.5, 1.0])


def test_nan_weight_rejected(triangle):
    # a NaN weight is no more a distance than a negative one; the a-c link would win at NaN
    with pytest.raises(ValueError):
        shortest_path(triangle, "a", "c", [0.0, 0.0, math.nan])


def test_same_source_dest_rejected(triangle):
    with pytest.raises(ValueError):
        shortest_path(triangle, "a", "a", [1.0, 1.0, 1.0])


def _random_connected(seed: int, max_nodes: int = 8):
    rng = random.Random(seed)
    n = rng.randint(2, max_nodes)
    nodes = tuple(f"v{i}" for i in range(n))
    links = []
    present = set()
    for i in range(1, n):
        j = rng.randrange(i)
        links.append((nodes[j], nodes[i]))
        present.add((j, i))
    for a, b in itertools.combinations(range(n), 2):
        if (a, b) not in present and rng.random() < 0.3:
            present.add((a, b))
            links.append((nodes[a], nodes[b]))
    weights = [round(rng.uniform(0.0, 3.0), 2) for _ in links]
    return Topology(name=f"g{seed}", nodes=nodes, links=tuple(links)), weights, rng


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_matches_bruteforce_enumeration(seed):
    topo, weights, rng = _random_connected(seed)
    src, dst = rng.sample(topo.nodes, 2)
    found = shortest_path(topo, src, dst, weights)
    all_paths = enumerate_simple_paths(topo, src, dst, max_hops=topo.num_nodes - 1)
    if not all_paths:
        assert found is None
        return
    best = min(sum(weights[l] for l in p.links) for p in all_paths)
    path, weight = found
    assert abs(weight - best) < 1e-9
    assert len(set(path.nodes)) == len(path.nodes)  # simple


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_weight_invariant_under_link_relabeling(seed):
    topo, weights, rng = _random_connected(seed)
    src, dst = rng.sample(topo.nodes, 2)
    perm = list(range(topo.num_links))
    rng.shuffle(perm)
    relabeled = Topology(
        name="perm", nodes=topo.nodes, links=tuple(topo.links[i] for i in perm)
    )
    new_weights = [0.0] * topo.num_links
    for new_id, old_id in enumerate(perm):
        new_weights[new_id] = weights[old_id]
    a = shortest_path(topo, src, dst, weights)
    b = shortest_path(relabeled, src, dst, new_weights)
    assert (a is None) == (b is None)
    if a is not None:
        assert abs(a[1] - b[1]) < 1e-9


def _instance_text(topology) -> str:
    """An instance file with `topology` inline and no requests."""
    return json.dumps({"topology": topology, "spectrum_slots": 4, "requests": []})


def test_load_topology_well_formed():
    text = _instance_text({"name": "t3", "nodes": ["x", "y", "z"], "links": [["x", "y"], ["y", "z"], ["x", "z"]]})
    topo = load_instance(text).topology
    assert topo.num_nodes == 3 and topo.num_links == 3


def test_load_topology_unknown_endpoint():
    text = _instance_text({"nodes": ["x", "y"], "links": [["x", "w"]]})
    with pytest.raises(InvariantViolation):
        load_instance(text)


def test_load_topology_duplicate_link():
    text = _instance_text({"nodes": ["x", "y"], "links": [["x", "y"], ["y", "x"]]})
    with pytest.raises(InvariantViolation):
        load_instance(text)


def test_load_topology_bad_json():
    with pytest.raises(ParseError):
        load_instance(b"{nodes: oops")


@pytest.mark.parametrize("topology", [["x", "y"], {"nodes": ["x"]}, {"nodes": 3, "links": []}])
def test_load_topology_malformed_is_a_parse_error(topology):
    with pytest.raises(ParseError, match="topology"):
        load_instance(_instance_text(topology))


def test_self_loop_rejected():
    with pytest.raises(InvariantViolation):
        Topology(name="loop", nodes=("a", "b"), links=(("a", "a"),))


@pytest.mark.parametrize(
    "name,nodes,links", [("spain21", 21, 35), ("usa24", 24, 43)]
)
def test_builtin_topologies_have_reference_sizes(name, nodes, links):
    topo = builtin_topology(name)
    assert topo.num_nodes == nodes
    assert topo.num_links == links
    # connected: every node reachable from the first
    reached = {topo.nodes[0]}
    frontier = [topo.nodes[0]]
    while frontier:
        node = frontier.pop()
        for _, other in topo.neighbors(node):
            if other not in reached:
                reached.add(other)
                frontier.append(other)
    assert reached == set(topo.nodes)
