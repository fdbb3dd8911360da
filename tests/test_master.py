import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eonrsa import (
    Configuration,
    ConflictDetected,
    Instance,
    InvalidConfiguration,
    InvariantViolation,
    Lightpath,
    MipSolution,
    Path,
    PricingRequest,
    ProvisioningPlan,
    Request,
    RestrictedMaster,
    SolveStatus,
    builtin_topology,
    generate_icton_style,
    validate_configuration,
    verify_plan,
)
from eonrsa.lpsolver import Model
from eonrsa.master import first_fit, slot_set_rows, window_hits
from eonrsa.topology import enumerate_simple_paths
from conftest import (
    column_coefficients,
    column_ids,
    configurations,
    make_random_tiny_instance,
    model_column,
    reduced_costs,
    signature,
    widest_first,
)


def _route(request_key, links, nodes, width, members=None):
    request = PricingRequest(request_key, nodes[0], nodes[-1], width, members or (request_key,))
    return request, Path(links=links, nodes=nodes)


def _lp(request_key, links, nodes, start, width, members=None):
    return Lightpath(*_route(request_key, links, nodes, width, members), start_slot=start)


@pytest.fixture
def small_instance(triangle):
    return Instance(
        topology=triangle,
        spectrum_slots=10,
        requests=(Request(0, "a", "b", 4), Request(1, "b", "c", 2), Request(2, "a", "c", 3)),
        name="small",
    )


def test_fresh_rmp_shape(small_instance):
    rmp = RestrictedMaster(small_instance)
    # 3 grant variables, 3 coverage rows, |L| * |S| occupancy rows
    assert rmp.model.arrays().n == 3
    assert rmp.model.num_constraints == 3 + 3 * 10
    value, duals = rmp.solve_lp_and_prune()
    assert value == 0.0
    for req in small_instance.requests:
        assert 0.0 - 1e-9 <= duals.mu_request[req.id] <= req.demand + 1e-9
    assert duals.mu_cell.shape == (3, 10)


def test_empty_request_set(triangle):
    inst = Instance(topology=triangle, spectrum_slots=4, requests=())
    rmp = RestrictedMaster(inst)
    value, _ = rmp.solve_lp_and_prune()
    assert value == 0.0


def test_fresh_duals_equal_demands_on_two_request_toy(two_node):
    inst = Instance(
        topology=two_node,
        spectrum_slots=4,
        requests=(Request(0, "a", "b", 3), Request(1, "a", "b", 1)),
    )
    rmp = RestrictedMaster(inst)
    value, duals = rmp.solve_lp_and_prune()
    # bundled backend: the coverage rows are the only binding constraints
    assert value == 0.0
    assert abs(duals.mu_request[0] - 3.0) < 1e-9
    assert abs(duals.mu_request[1] - 1.0) < 1e-9


def test_column_coefficient_mapping(small_instance):
    rmp = RestrictedMaster(small_instance)
    config = Configuration(
        start_slot=5,
        routes=(_route(0, (0,), ("a", "b"), 4),),
    )
    vid = rmp.add_column(config)
    obj, coeffs = model_column(rmp.model, vid)
    rows = {cid for cid, coef in coeffs.items() if coef == 1.0}
    # the 3 request rows by id, then the cell rows link by link, 10 slots per link
    assert rows == {3 + 0 * 10 + s - 1 for s in (5, 6, 7, 8)}
    assert coeffs[0] == -1.0
    assert obj == 0.0  # objective rides on the grant variables
    cells = frozenset((0, s) for s in (5, 6, 7, 8))
    assert column_coefficients(rmp, vid) == (frozenset({0}), cells)


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_duals_are_read_at_the_master_rows(backend):
    from conftest import make_random_tiny_instance
    from eonrsa.pricing import price_slot

    inst = make_random_tiny_instance(9)
    rmp = RestrictedMaster(inst, backend=backend)
    for _ in range(3):
        _value, duals = rmp.solve_lp_and_prune()
        for s in range(1, inst.spectrum_slots + 1):
            if (res := price_slot(inst, s, duals)).configuration is not None:
                rmp.add_column(res.configuration)
    sol = rmp.model.solve_lp()
    duals = rmp._duals_from(sol)
    slots = inst.spectrum_slots
    cell_row = {
        (link, s): len(inst.requests) + link * slots + s - 1
        for link in range(inst.topology.num_links)
        for s in range(1, slots + 1)
    }
    for k, y in rmp._y.items():
        # y_k's one coefficient sits in the coverage row of k
        (row,) = model_column(rmp.model, y)[1]
        assert duals.mu_request[k] == sol.duals[row]
    for vid, config in zip(column_ids(rmp), configurations(rmp)):
        rows = {row for row, coef in model_column(rmp.model, vid)[1].items() if coef == 1.0}
        assert rows == {cell_row[cell] for cell in config.occupied_cells()}
    for (link, s), row in cell_row.items():
        assert duals.mu_cell[link, s - 1] == sol.duals[row]
    # some request and cell rows bind, so the checks read values other than zero
    assert duals.mu_cell.any() and any(duals.mu_request.values())


def test_shared_link_rejected(small_instance):
    config = Configuration(
        start_slot=1,
        routes=(
            _route(0, (0,), ("a", "b"), 4),
            _route(1, (0, 2), ("b", "a", "c"), 2),
        ),
    )
    with pytest.raises(InvalidConfiguration):
        validate_configuration(config, 10)


def test_duplicate_request_rejected(small_instance):
    config = Configuration(
        start_slot=1,
        routes=(
            _route(0, (0,), ("a", "b"), 4),
            _route(0, (1, 2), ("a", "c", "b"), 4),
        ),
    )
    with pytest.raises(InvalidConfiguration):
        validate_configuration(config, 10)


def test_window_must_fit(small_instance):
    config = Configuration(start_slot=8, routes=(_route(0, (0,), ("a", "b"), 4),))
    with pytest.raises(InvalidConfiguration):
        rmp = RestrictedMaster(small_instance)
        rmp.add_column(config)


def test_mismatched_endpoints_rejected(small_instance):
    rmp = RestrictedMaster(small_instance)
    b_to_c = Path(links=(1,), nodes=("b", "c"))
    config = Configuration(start_slot=1, routes=((rmp.pricing_requests[0], b_to_c),))
    with pytest.raises(InvalidConfiguration, match="endpoints"):
        rmp.add_column(config)


def test_lightpath_members_must_match_its_request(two_node):
    # two same-pair atomics of 2 slots: a lightpath for request 0 that lists
    # members (0, 1) would grant both, 4 slots, on one 2-slot window
    inst = Instance(
        topology=two_node,
        spectrum_slots=4,
        requests=(Request(0, "a", "b", 2), Request(1, "a", "b", 2)),
    )
    fused = _lp(0, (0,), ("a", "b"), 1, 2, members=(0, 1))
    with pytest.raises(InvalidConfiguration):
        RestrictedMaster(inst).add_column(
            Configuration(start_slot=1, routes=((fused.request, fused.path),))
        )
    plan = ProvisioningPlan(assignments={0: fused, 1: fused}, throughput_slots=4, slot_rate_gbps=25.0)
    with pytest.raises(InvariantViolation):
        verify_plan(inst, plan, expected_slots=4)
    # the 3-slot window the two members need (2 + 2 - 1) passes the scan
    fits = _lp(0, (0,), ("a", "b"), 1, 3, members=(0, 1))
    plan = ProvisioningPlan(assignments={0: fits, 1: fits}, throughput_slots=4, slot_rate_gbps=25.0)
    verify_plan(inst, plan, expected_slots=4)


MALFORMED_REQUESTS = {
    "shared key": [PricingRequest(0, "a", "b", 4, (0,)), PricingRequest(0, "b", "c", 2, (1,))],
    "no members": [PricingRequest(0, "a", "b", 1, ())],  # fused_width([]) is 1
    "repeated member": [PricingRequest(0, "a", "b", 7, (0, 0))],
    "unknown member": [PricingRequest(0, "a", "b", 4, (0, 9))],
    "other pair": [PricingRequest(0, "a", "c", 4, (0,))],
    "not the fused width": [PricingRequest(0, "a", "b", 5, (0,))],
}


@pytest.mark.parametrize("case", MALFORMED_REQUESTS)
def test_pricing_requests_are_checked_once(small_instance, case):
    with pytest.raises(InvariantViolation):
        RestrictedMaster(small_instance, MALFORMED_REQUESTS[case])


def test_pricing_request_may_join_its_pair_either_way(small_instance):
    # members keep the atomic's orientation; the check compares unordered pairs
    flipped = [PricingRequest(0, "b", "a", 4, (0,)), PricingRequest(2, "c", "a", 3, (2,))]
    assert RestrictedMaster(small_instance, flipped).pricing_requests == {0: flipped[0], 2: flipped[1]}


def test_duplicate_twin_columns_pruned(small_instance):
    rmp = RestrictedMaster(small_instance)
    config = Configuration(start_slot=1, routes=(_route(0, (0,), ("a", "b"), 4),))
    rmp.add_column(config)
    rmp.add_column(config)
    value, _ = rmp.solve_lp_and_prune()
    assert abs(value - 4.0) < 1e-9
    assert rmp.num_columns <= 1  # at most one twin survives


def test_prune_keeps_lp_value(small_instance):
    rmp = RestrictedMaster(small_instance)
    rmp.add_column(Configuration(start_slot=1, routes=(_route(0, (0,), ("a", "b"), 4),)))
    rmp.add_column(Configuration(start_slot=1, routes=(_route(1, (1,), ("b", "c"), 2),)))
    v1, _ = rmp.solve_lp_and_prune()
    v2, _ = rmp.solve_lp_and_prune()
    assert abs(v1 - v2) < 1e-9
    for before, after in rmp.prune_checks:
        assert abs(before - after) <= 1e-6 * (1 + abs(before))


def test_used_column_retained(small_instance):
    rmp = RestrictedMaster(small_instance)
    rmp.add_column(Configuration(start_slot=1, routes=(_route(0, (0,), ("a", "b"), 4),)))
    rmp.solve_lp_and_prune()
    assert rmp.num_columns == 1


def test_final_ilp_single_column_covers_all(small_instance):
    rmp = RestrictedMaster(small_instance)
    config = Configuration(
        start_slot=1,
        routes=(
            _route(0, (0,), ("a", "b"), 4),
            _route(1, (1,), ("b", "c"), 2),
            _route(2, (2,), ("a", "c"), 3),
        ),
    )
    rmp.add_column(config)
    rmp.solve_lp_and_prune()
    value, selected, mip = rmp.solve_final_ilp(0.0)
    assert abs(value - 9.0) < 1e-9  # sum of all demands
    assert selected == [config]


def test_final_ilp_value_counts_every_request_its_columns_serve(small_instance, monkeypatch):
    # a HiGHS incumbent cut by its time limit selected a column and left each y at 0
    rmp = RestrictedMaster(small_instance, deadline=0.0)
    config = Configuration(
        start_slot=1,
        routes=(_route(0, (0,), ("a", "b"), 4), _route(2, (2,), ("a", "c"), 3)),
    )
    vid = rmp.add_column(config)
    values = {vid: 1.0, **{y: 0.0 for y in rmp._y.values()}}
    lazy = MipSolution(SolveStatus.TIME_LIMIT, 0.0, values, math.inf)
    monkeypatch.setattr(Model, "solve_mip", lambda *args, **kwargs: lazy)
    value, selected, mip = rmp.solve_final_ilp(0.1)
    assert value == 7.0 and selected == [config] and mip is lazy
    verify_plan(small_instance, rmp.post_process(selected), expected_slots=value)


def test_final_ilp_prefers_heavier_conflicting_column(two_node):
    inst = Instance(
        topology=two_node,
        spectrum_slots=8,
        requests=(Request(0, "a", "b", 8), Request(1, "a", "b", 4)),
    )
    rmp = RestrictedMaster(inst)
    big = Configuration(start_slot=1, routes=(_route(0, (0,), ("a", "b"), 8),))
    small = Configuration(start_slot=1, routes=(_route(1, (0,), ("a", "b"), 4),))
    rmp.add_column(big)
    rmp.add_column(small)
    rmp.solve_lp_and_prune()
    value, selected, _ = rmp.solve_final_ilp(0.0)
    assert abs(value - 8.0) < 1e-9
    assert selected == [big]


def test_final_ilp_gap_contract(small_instance):
    rmp = RestrictedMaster(small_instance)
    rmp.add_column(Configuration(start_slot=1, routes=(_route(0, (0,), ("a", "b"), 4),)))
    rmp.add_column(Configuration(start_slot=1, routes=(_route(1, (1,), ("b", "c"), 2),)))
    rmp.solve_lp_and_prune()
    _, _, mip = rmp.solve_final_ilp(0.1)
    assert mip.gap <= 0.1 + 1e-9


def test_post_process_prefers_fewer_hops(small_instance):
    rmp = RestrictedMaster(small_instance)
    two_hop = Configuration(start_slot=1, routes=(_route(0, (2, 1), ("a", "c", "b"), 4),))
    one_hop = Configuration(start_slot=5, routes=(_route(0, (0,), ("a", "b"), 4),))
    plan = rmp.post_process([two_hop, one_hop])
    assert plan.assignments[0].path.links == (0,)
    assert plan.throughput_slots == 4


def test_post_process_union_when_no_duplicates(small_instance):
    rmp = RestrictedMaster(small_instance)
    c1 = Configuration(start_slot=1, routes=(_route(0, (0,), ("a", "b"), 4),))
    c2 = Configuration(start_slot=5, routes=(_route(1, (1,), ("b", "c"), 2),))
    plan = rmp.post_process([c1, c2])
    assert set(plan.assignments) == {0, 1}
    assert plan.throughput_slots == 6
    verify_plan(small_instance, plan)


def test_post_process_smaller_slot_breaks_hop_ties(small_instance):
    rmp = RestrictedMaster(small_instance)
    late = Configuration(start_slot=6, routes=(_route(0, (0,), ("a", "b"), 4),))
    early = Configuration(start_slot=2, routes=(_route(0, (0,), ("a", "b"), 4),))
    plan = rmp.post_process([late, early])
    assert plan.assignments[0].start_slot == 2


def test_plan_scanner_catches_conflicts(small_instance):
    clash = {
        0: _lp(0, (0,), ("a", "b"), 1, 4),
        1: _lp(1, (0, 2), ("b", "a", "c"), 1, 2, members=(1,)),
    }
    plan = ProvisioningPlan(assignments=clash, throughput_slots=6, slot_rate_gbps=25.0)
    with pytest.raises(ConflictDetected):
        verify_plan(small_instance, plan)


def test_lp_value_monotone_under_columns(small_instance):
    rmp = RestrictedMaster(small_instance)
    values = []
    v, _ = rmp.solve_lp_and_prune()
    values.append(v)
    for config in (
        Configuration(start_slot=1, routes=(_route(0, (0,), ("a", "b"), 4),)),
        Configuration(start_slot=5, routes=(_route(1, (1,), ("b", "c"), 2),)),
        Configuration(start_slot=1, routes=(_route(2, (2,), ("a", "c"), 3),)),
    ):
        rmp.add_column(config)
        v, _ = rmp.solve_lp_and_prune()
        values.append(v)
    assert values == sorted(values)
    assert abs(values[-1] - 9.0) < 1e-9


def test_retained_columns_have_nonpositive_reduced_cost():
    from conftest import make_random_tiny_instance
    from eonrsa.pricing import price_slot

    for seed in (3, 11, 29):
        inst = make_random_tiny_instance(seed)
        # drive the column generation by hand to reach a settled master
        rmp = RestrictedMaster(inst)
        while True:
            _value, duals = rmp.solve_lp_and_prune()
            snapshot = duals.clamped()
            configs = []
            for s in range(1, inst.spectrum_slots + 1):
                res = price_slot(inst, s, snapshot)
                if res.configuration is not None:
                    configs.append(res.configuration)
            if not configs:
                break
            for config in configs:
                rmp.add_column(config)
        rc = reduced_costs(rmp.model, rmp.model.solve_lp())
        for vid in column_ids(rmp):
            assert rc[vid] <= 1e-6


def test_selected_configuration_coefficients_rederive():
    from conftest import make_random_tiny_instance
    from eonrsa.pricing import price_slot

    inst = make_random_tiny_instance(8)
    rmp = RestrictedMaster(inst)
    while True:
        _value, duals = rmp.solve_lp_and_prune()
        configs = [
            res.configuration
            for s in range(1, inst.spectrum_slots + 1)
            if (res := price_slot(inst, s, duals.clamped())).configuration is not None
        ]
        if not configs:
            break
        for config in configs:
            rmp.add_column(config)
    _z, selected, _mip = rmp.solve_final_ilp(0.0)
    assert selected
    by_sig = {signature(cfg): cfg for cfg in selected}
    for vid in column_ids(rmp):
        config = configurations(rmp)[column_ids(rmp).index(vid)]
        if signature(config) not in by_sig:
            continue
        atomics, cells = column_coefficients(rmp, vid)
        assert atomics == config.served_atomics()
        assert cells == config.occupied_cells()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_coefficients_rederivable_from_lightpaths(seed):
    rng = random.Random(seed)
    spectrum = rng.randint(4, 10)
    width1 = rng.randint(1, 3)
    width2 = rng.randint(1, 3)
    s = rng.randint(1, spectrum - max(width1, width2))
    config = Configuration(
        start_slot=s,
        routes=(
            _route(0, (0,), ("a", "b"), width1),
            _route(1, (1,), ("b", "c"), width2),
        ),
    )
    validate_configuration(config, spectrum)
    assert config.served_atomics() == {0, 1}
    cells = config.occupied_cells()
    expected = {(0, t) for t in range(s, s + width1)} | {(1, t) for t in range(s, s + width2)}
    assert cells == expected


def test_window_hits_match_a_count_over_every_window():
    for slots in range(1, 11):
        sets = list(itertools.product((False, True), repeat=slots))
        widths = list(range(1, slots + 1))
        hits = window_hits(np.array(sets), widths)
        for t, members in enumerate(sets):
            for i, w in enumerate(widths):
                fewest = min(sum(members[o : o + w]) for o in range(slots - w + 1))
                assert hits[t, i] == fewest, (slots, members, w)


@pytest.mark.parametrize("slots", [1, 4, 7, 12, 20, 50])
def test_slot_set_rows_keep_every_candidate_implied_and_no_kept_row(slots):
    rng = random.Random(slots)
    for widths in ([1], [slots], sorted(rng.sample(range(1, slots + 1), min(slots, 4))), range(1, slots + 1)):
        hits, size = slot_set_rows(slots, list(widths))
        ratio = [[h / t for h in row] for row, t in zip(hits.tolist(), size.tolist())]
        for a, b in itertools.permutations(range(len(size)), 2):
            assert any(x > y for x, y in zip(ratio[a], ratio[b])), (slots, widths, a, b)
        # the candidates: centred intervals of every length, width-step progressions and
        # the gaps of those of steps of 2 or more
        candidates = [range((slots - n) // 2, (slots - n) // 2 + n) for n in range(1, slots + 1)]
        candidates += [range(o, slots, w) for w in widths for o in range(w)]
        candidates += [
            [t for t in range(slots) if t < o or (t - o) % w] for w in widths if w >= 2 for o in range(w)
        ]
        for members in candidates:
            fewest = [
                min(sum(o <= t < o + w for t in members) for o in range(slots - w + 1)) for w in widths
            ]
            assert any(
                all(h / len(members) <= r + 1e-12 for h, r in zip(fewest, row)) for row in ratio
            ), (slots, widths, list(members))


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_flow_bound_cut_by_the_deadline_leaves_the_fitting_demand(backend):
    # the flow bound of spain21, 35 pairs, |S|=20 is 162 of a demand sum of 176
    inst = generate_icton_style(builtin_topology("spain21"), num_pairs=35, seed=1, spectrum_slots=20)
    rmp = RestrictedMaster(inst, backend=backend, deadline=time.monotonic() - 1.0)
    assert rmp.solve_lp_and_prune()[0] < 162.0
    assert rmp.upper_bound == 176.0


def _first_fit_by_cells(instance, order) -> list[Configuration]:
    """first_fit's plan from a set of busy (link, slot) cells and every simple path, fewest
    hops then smallest link sequence first."""
    topo, slots = instance.topology, instance.spectrum_slots
    busy: set[tuple[int, int]] = set()
    served: set[int] = set()
    routes: dict[int, list] = {}
    for req in order:
        if served & set(req.members):
            continue
        paths = enumerate_simple_paths(topo, req.source, req.dest, topo.num_nodes - 1)
        for s in range(1, slots - req.width + 2):
            window = range(s, s + req.width)
            blocked = {link for link, t in busy if t in window}
            free = [path for path in paths if blocked.isdisjoint(path.links)]
            if free:
                busy.update((link, t) for link in free[0].links for t in window)
                served.update(req.members)
                routes.setdefault(s, []).append((req, free[0]))
                break
    return [Configuration(s, tuple(routes[s])) for s in sorted(routes)]


def test_first_fit_matches_a_busy_cell_reference():
    # widest first and one shuffled order on each of tiny 0-199
    rng = random.Random(0)
    for seed in range(200):
        inst = make_random_tiny_instance(seed)
        requests = [PricingRequest.from_request(r) for r in inst.requests]
        shuffled = list(requests)
        rng.shuffle(shuffled)
        for order in (widest_first(requests), shuffled):
            assert first_fit(inst, order) == _first_fit_by_cells(inst, order), inst.name
