import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eonrsa import (
    Instance,
    ParseError,
    Request,
    Topology,
    UnknownNode,
    aggregate_per_node_pair,
    builtin_topology,
    generate_icton_style,
    generate_inoc_style,
    load_instance,
    save_instance,
)


def test_aggregate_sums_per_pair():
    reqs = [Request(0, "a", "b", 4), Request(1, "a", "b", 8), Request(2, "a", "c", 4)]
    agg, members = aggregate_per_node_pair(reqs)
    assert [(r.pair, r.demand) for r in agg] == [(("a", "b"), 12), (("a", "c"), 4)]
    assert members == {0: [0, 1], 1: [2]}


def test_aggregate_empty():
    agg, members = aggregate_per_node_pair([])
    assert agg == [] and members == {}


def test_aggregate_idempotent_on_one_per_pair():
    reqs = [Request(0, "a", "b", 4), Request(1, "a", "c", 2)]
    agg, _ = aggregate_per_node_pair(reqs)
    assert [(r.pair, r.demand) for r in agg] == [(r.pair, r.demand) for r in reqs]
    again, _ = aggregate_per_node_pair(agg)
    assert [(r.pair, r.demand) for r in again] == [(r.pair, r.demand) for r in agg]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_aggregate_conserves_total_demand(seed):
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(rng.randint(2, 6))]
    reqs = [
        Request(i, *rng.sample(nodes, 2), demand=rng.randint(1, 9))
        for i in range(rng.randint(0, 12))
    ]
    agg, members = aggregate_per_node_pair(reqs)
    assert sum(r.demand for r in agg) == sum(r.demand for r in reqs)
    flat = sorted(i for ids in members.values() for i in ids)
    assert flat == sorted(r.id for r in reqs)


def test_generator_deterministic(two_node):
    topo = builtin_topology("spain21")
    a = generate_inoc_style(topo, 5000.0, seed=42)
    b = generate_inoc_style(topo, 5000.0, seed=42)
    assert a == b
    assert save_instance(a) == save_instance(b)
    c = generate_inoc_style(topo, 5000.0, seed=43)
    assert a != c


def test_generator_demand_proportions():
    topo = builtin_topology("usa24")
    # enough load for ~100k demands at mean 6 slots x 25 Gbps
    inst = generate_inoc_style(topo, target_load_gbps=15_000_000.0, seed=7)
    counts = Counter(r.demand for r in inst.requests)
    total = len(inst.requests)
    assert total >= 100_000
    for demand, expected in ((4, 0.70), (8, 0.20), (16, 0.10)):
        assert abs(counts[demand] / total - expected) < 0.02


def test_generator_stopping_rule():
    topo = builtin_topology("spain21")
    inst = generate_inoc_style(topo, target_load_gbps=50_000.0, seed=3)
    total = inst.total_demand_slots
    assert 2000 <= total < 2000 + 16
    assert inst.offered_load_gbps >= 50_000.0


def test_generator_spreads_over_all_pairs():
    topo = builtin_topology("spain21")
    inst = generate_inoc_style(topo, target_load_gbps=100_000.0, seed=5)
    pairs = {r.pair for r in inst.requests}
    assert len(pairs) == 21 * 20 // 2


def test_icton_style_one_request_per_pair():
    topo = builtin_topology("spain21")
    inst = generate_icton_style(topo, num_pairs=35, seed=1, spectrum_slots=50)
    assert len(inst.requests) == 35
    assert len({r.pair for r in inst.requests}) == 35
    assert all(1 <= r.demand <= 8 for r in inst.requests)
    assert inst.spectrum_slots == 50


def test_save_load_round_trip(triangle):
    inst = Instance(
        topology=triangle,
        spectrum_slots=6,
        requests=(Request(0, "a", "b", 2), Request(1, "b", "c", 1), Request(2, "a", "c", 3)),
        name="trip",
    )
    again = load_instance(save_instance(inst))
    assert again == inst


def test_round_trip_uses_builtin_topology_id():
    topo = builtin_topology("usa24")
    inst = generate_inoc_style(topo, 2000.0, seed=1)
    raw = save_instance(inst)
    assert json.loads(raw)["topology_id"] == "usa24"
    assert load_instance(raw) == inst


def test_round_trip_keeps_a_custom_topology_named_like_a_builtin(two_node):
    topo = Topology(name="spain21", nodes=two_node.nodes, links=two_node.links)
    inst = Instance(topology=topo, spectrum_slots=4, requests=(Request(0, "a", "b", 2),))
    raw = save_instance(inst)
    assert "topology_id" not in json.loads(raw)
    assert load_instance(raw) == inst


@pytest.mark.parametrize(
    "load_tbps, name",
    [(0.5, "spain21_0.5"), (1.5, "spain21_1.5"), (2, "spain21_2"), (50, "spain21_50")],
)
def test_generator_names_the_instance_by_its_load(load_tbps, name):
    inst = generate_inoc_style(builtin_topology("spain21"), load_tbps * 1000.0, seed=1)
    assert inst.name == name


def test_unknown_node_rejected(triangle):
    with pytest.raises(UnknownNode):
        Instance(topology=triangle, spectrum_slots=4, requests=(Request(0, "a", "zz", 1),))


def test_zero_spectrum_is_parse_error(triangle):
    raw = {
        "topology": {"name": "t", "nodes": ["a", "b"], "links": [["a", "b"]]},
        "spectrum_slots": 0,
        "requests": [],
    }
    with pytest.raises(ParseError):
        load_instance(json.dumps(raw))


@pytest.mark.parametrize(
    "field, value",
    [
        ("spectrum_slots", 50.7),
        ("spectrum_slots", True),
        ("spectrum_slots", "4"),
        ("demand_slots", 4.5),
        ("demand_slots", True),
        ("demand_slots", "2"),
    ],
)
def test_non_integral_counts_are_parse_errors(field, value):
    raw = {
        "topology": {"name": "t", "nodes": ["a", "b"], "links": [["a", "b"]]},
        "spectrum_slots": 8,
        "requests": [{"src": "a", "dst": "b", "demand_slots": 2}],
    }
    target = raw if field == "spectrum_slots" else raw["requests"][0]
    assert load_instance(json.dumps(raw)).spectrum_slots == 8  # integers load
    target[field] = value
    with pytest.raises(ParseError, match=field):
        load_instance(json.dumps(raw))


@pytest.mark.parametrize(
    "fields, field",
    [
        pytest.param({"topology_id": "atlantis", "requests": []}, "topology_id", id="unknown id"),
        pytest.param({"topology_id": "spain21", "requests": None}, "requests", id="null requests"),
        pytest.param({"topology_id": "spain21", "requests": 5}, "requests", id="number requests"),
    ],
)
def test_malformed_fields_are_parse_errors_naming_the_field(fields, field):
    with pytest.raises(ParseError, match=field):
        load_instance(json.dumps({"spectrum_slots": 4, **fields}))


@pytest.mark.parametrize(
    "value", ["NaN", "Infinity", "-Infinity", "true", "false", "0", "-25", '"12.5"', "null"]
)
def test_slot_rate_must_be_positive_and_finite(value):
    raw = (
        '{"topology": {"name": "t", "nodes": ["a", "b"], "links": [["a", "b"]]}, '
        f'"spectrum_slots": 8, "slot_rate_gbps": {value}, "requests": []}}'
    )
    with pytest.raises(ParseError, match="slot_rate_gbps"):
        load_instance(raw)


@pytest.mark.parametrize("rate", [math.nan, math.inf])
def test_instance_rate_must_be_positive_and_finite(triangle, rate):
    with pytest.raises(ValueError, match="slot_rate_gbps"):
        Instance(topology=triangle, spectrum_slots=4, requests=(), slot_rate_gbps=rate)


@pytest.mark.parametrize("target", [math.inf, math.nan])
def test_generator_target_must_be_finite(target):
    # an infinite target used to append requests forever; NaN gave zero requests, then a crash
    with pytest.raises(ValueError, match="target_load_gbps"):
        generate_inoc_style(builtin_topology("spain21"), target, seed=1)


def test_request_invariants():
    with pytest.raises(ValueError):
        Request(0, "a", "a", 1)
    with pytest.raises(ValueError):
        Request(0, "a", "b", 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_generated_instances_satisfy_invariants(seed):
    topo = Topology(name="t4", nodes=("a", "b", "c", "d"), links=(("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")))
    inst = generate_inoc_style(topo, target_load_gbps=random.Random(seed).uniform(100, 3000), seed=seed, spectrum_slots=40)
    nodes = set(topo.nodes)
    for r in inst.requests:
        assert r.demand >= 1 and r.source != r.dest
        assert r.source in nodes and r.dest in nodes
    assert inst.offered_load_gbps == 25.0 * inst.total_demand_slots
