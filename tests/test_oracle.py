import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eonrsa import (
    Instance,
    LimitsExceeded,
    MasterDuals,
    Request,
    Topology,
    builtin_topology,
    oracle_max_reduced_cost,
    oracle_solve,
)
from eonrsa.oracle import _best_packing
from conftest import make_random_tiny_instance


def test_single_request_served(two_node):
    inst = Instance(topology=two_node, spectrum_slots=2, requests=(Request(0, "a", "b", 2),))
    sol = oracle_solve(inst)
    assert sol.value_slots == 2
    path, start = sol.assignments[0]
    assert path.links == (0,) and start == 1


def test_one_of_two_on_shared_link(two_node):
    inst = Instance(
        topology=two_node,
        spectrum_slots=2,
        requests=(Request(0, "a", "b", 2), Request(1, "a", "b", 2)),
    )
    sol = oracle_solve(inst)
    assert sol.value_slots == 2
    assert len(sol.assignments) == 1


def test_triangle_all_three_fit(triangle):
    inst = Instance(
        topology=triangle,
        spectrum_slots=2,
        requests=(Request(0, "a", "b", 2), Request(1, "b", "c", 2), Request(2, "a", "c", 2)),
    )
    sol = oracle_solve(inst)
    assert sol.value_slots == 6
    assert len(sol.assignments) == 3


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_value_invariant_under_request_reordering(seed):
    inst = make_random_tiny_instance(seed)
    base = oracle_solve(inst).value_slots
    rng = random.Random(seed)
    order = list(inst.requests)
    rng.shuffle(order)
    relabeled = tuple(
        Request(i, r.source, r.dest, r.demand) for i, r in enumerate(order)
    )
    shuffled = Instance(
        topology=inst.topology, spectrum_slots=inst.spectrum_slots, requests=relabeled
    )
    assert oracle_solve(shuffled).value_slots == base


def test_limits_enforced(two_node):
    topo = builtin_topology("spain21")
    inst = Instance(topology=topo, spectrum_slots=8, requests=(Request(0, "madrid", "bilbao", 2),))
    with pytest.raises(LimitsExceeded, match="21 nodes > oracle cap 6"):
        oracle_solve(inst)
    nodes = tuple("abcdefg")
    line = Topology(name="line7", nodes=nodes, links=tuple(zip(nodes, nodes[1:])))
    seven = Instance(topology=line, spectrum_slots=4, requests=(Request(0, "a", "g", 1),))
    with pytest.raises(LimitsExceeded, match="7 nodes > oracle cap 6"):
        oracle_solve(seven)
    six = Instance(
        topology=two_node,
        spectrum_slots=10,
        requests=tuple(Request(i, "a", "b", 1) for i in range(6)),
    )
    with pytest.raises(LimitsExceeded, match="6 requests > oracle cap 5"):
        oracle_solve(six)
    wide = Instance(topology=two_node, spectrum_slots=11, requests=(Request(0, "a", "b", 1),))
    with pytest.raises(LimitsExceeded, match="11 slots > oracle cap 10"):
        oracle_solve(wide)
    at_caps = Instance(
        topology=two_node,
        spectrum_slots=10,
        requests=tuple(Request(i, "a", "b", 2) for i in range(5)),
    )
    assert oracle_solve(at_caps).value_slots == 10


def test_max_reduced_cost_zero_duals(triangle):
    inst = Instance(topology=triangle, spectrum_slots=4, requests=(Request(0, "a", "b", 2),))
    duals = MasterDuals(mu_request={0: 0.0}, mu_cell=np.zeros((3, 4)))
    assert oracle_max_reduced_cost(inst, 1, duals) == 0.0


def test_max_reduced_cost_single_request(triangle):
    inst = Instance(topology=triangle, spectrum_slots=4, requests=(Request(0, "a", "b", 2),))
    duals = MasterDuals(mu_request={0: 5.0}, mu_cell=np.zeros((3, 4)))
    assert abs(oracle_max_reduced_cost(inst, 1, duals) - 5.0) < 1e-12


def test_max_reduced_cost_subtracts_window_costs(triangle):
    inst = Instance(topology=triangle, spectrum_slots=4, requests=(Request(0, "a", "b", 2),))
    mu_cell = np.zeros((3, 4))
    mu_cell[0, 0] = 1.5  # direct link: window {1,2} costs 1.5
    duals = MasterDuals(mu_request={0: 5.0}, mu_cell=mu_cell)
    assert abs(oracle_max_reduced_cost(inst, 1, duals) - 5.0) < 1e-12  # detour is free
    mu_cell[1, :2] = 2.0
    mu_cell[2, :2] = 2.0  # now the detour costs 4.0 total
    assert abs(oracle_max_reduced_cost(inst, 1, duals) - 3.5) < 1e-12


def _packing_value(options):
    """The summed value of options with pairwise disjoint masks, else None."""
    used = 0
    for _value, mask, _tag in options:
        if mask & used:
            return None
        used |= mask
    return sum(value for value, _mask, _tag in options)


def test_search_matches_plain_enumeration():
    rng = random.Random(16)

    def draw(quarters: bool):
        # quarter steps keep float sums exact, so values compare with ==
        return rng.randint(1, 36) / 4 if quarters else rng.randint(1, 9)

    for _ in range(500):
        quarters = rng.random() < 0.5
        entries = []
        for i in range(rng.randint(0, 5)):
            options = [
                (draw(quarters), rng.randrange(256), (i, j)) for j in range(rng.randint(1, 4))
            ]
            entries.append((max(value for value, _mask, _tag in options), options))
        packings = itertools.product(*(options + [None] for _bound, options in entries))
        values = (_packing_value([o for o in picks if o is not None]) for picks in packings)
        best = max(v for v in values if v is not None)

        value, tags = _best_packing(entries)
        assert value == best
        taken = [entries[i][1][j] for i, j in tags]
        assert _packing_value(taken) == value
