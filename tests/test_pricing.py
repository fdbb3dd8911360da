import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eonrsa import (
    Instance,
    MasterDuals,
    PricingRequest,
    PricingResult,
    Request,
    RestrictedMaster,
    SolveConfig,
    certify,
    enumerate_simple_paths,
    oracle_max_reduced_cost,
    price_slot,
    shortest_path,
    solve,
    validate_configuration,
)
import eonrsa.pricing as pricing_module
from eonrsa.lpsolver import MipSolution, Model, SolveStatus
from eonrsa.pricing import IMPROVE_TOL, _slot_input, pricing_key
from conftest import (
    make_four_node_instance,
    make_random_tiny_instance,
    master_reduced_cost,
    recorded_master_duals,
)


def _zero_duals(instance) -> MasterDuals:
    return MasterDuals(
        mu_request={r.id: 0.0 for r in instance.requests},
        mu_cell=np.zeros((instance.topology.num_links, instance.spectrum_slots)),
    )


@pytest.fixture
def tri_instance(triangle):
    return Instance(
        topology=triangle,
        spectrum_slots=10,
        requests=(Request(0, "a", "b", 4), Request(1, "b", "c", 8)),
        name="tri",
    )


def test_eligible_window_arithmetic(tri_instance):
    def eligible(inst, s):
        requests = [PricingRequest.from_request(r) for r in inst.requests]
        return [p.key for p in _slot_input(inst, s, _zero_duals(inst), requests)[0]]

    assert eligible(tri_instance, 7) == [0]
    assert eligible(tri_instance, 1) == [0, 1]
    assert eligible(tri_instance, 8) == []
    one = Instance(
        topology=tri_instance.topology,
        spectrum_slots=10,
        requests=(Request(0, "a", "b", 1),),
    )
    assert eligible(one, 10) == [0]


def test_price_slot_takes_the_fewest_hop_path(tri_instance):
    duals = _zero_duals(tri_instance)
    duals.mu_request[0] = 3.0
    path, dist = shortest_path(tri_instance.topology, "a", "b", np.zeros(3))
    rc = 3.0 - dist
    assert path.links == (0,)
    assert abs(rc - 3.0) < 1e-12
    res = price_slot(tri_instance, 1, duals)
    (lp,) = res.configuration.lightpaths
    assert lp.path.links == (0,)
    assert abs(res.rc_ilp - 3.0) < 1e-12


def test_price_slot_queries_no_path_for_a_cancelled_gain(tri_instance, monkeypatch):
    # mu = 4 on a-b; once a column routes the request, its inner dual nu = 4 cancels
    # mu, so the last inner round makes no shortest-path query and adds no column
    duals = _zero_duals(tri_instance)
    duals.mu_request[0] = 4.0
    queries, columns = [], []
    query, add_path = pricing_module.shortest_path, pricing_module._InnerProblem.add_path

    def recorded_query(topology, source, dest, weights):
        queries.append((source, dest))
        return query(topology, source, dest, weights)

    def recorded_add_path(inner, request, path):
        columns.append((request.key, path.links))
        return add_path(inner, request, path)

    monkeypatch.setattr(pricing_module, "shortest_path", recorded_query)
    monkeypatch.setattr(pricing_module._InnerProblem, "add_path", recorded_add_path)
    res = price_slot(tri_instance, 1, duals)
    assert queries and len(queries) == len(columns)  # every query priced a new column
    assert set(queries) == {("a", "b")}  # request 1 has no gain at all
    assert res.rc_ilp == pytest.approx(4.0) and res.rc_lp_star == pytest.approx(4.0)


def test_price_slot_takes_the_priced_detour(tri_instance):
    # direct link a-b costs 10 through its window, detour a-c-b costs 1
    duals = _zero_duals(tri_instance)
    duals.mu_request[0] = 5.0
    duals.mu_cell[0, :] = 10.0 / 4.0  # link 0 window sum = 10
    duals.mu_cell[1, :] = 0.5 / 4.0
    duals.mu_cell[2, :] = 0.5 / 4.0
    weights = duals.mu_cell[:, :4].sum(axis=1)
    path, dist = shortest_path(tri_instance.topology, "a", "b", weights)
    assert path.links == (2, 1)
    # hand enumeration over both simple paths: direct 5 - 10, detour 5 - 1
    assert 5.0 - dist == pytest.approx(max(5.0 - 10.0, 5.0 - 1.0))
    # the slot's inner column generation routes the request the same way
    res = price_slot(tri_instance, 1, duals)
    (lp,) = res.configuration.lightpaths
    assert lp.path.links == (2, 1) and res.rc_ilp == pytest.approx(4.0)


def test_price_slot_zero_duals_produces_nothing(tri_instance):
    res = price_slot(tri_instance, 1, _zero_duals(tri_instance))
    assert res.configuration is None
    assert res.rc_ilp == 0.0 and res.rc_lp_star == 0.0


def test_price_slot_single_request(tri_instance):
    duals = _zero_duals(tri_instance)
    duals.mu_request[0] = 4.0  # equals its demand
    res = price_slot(tri_instance, 3, duals)
    assert res.configuration is not None
    assert abs(res.rc_ilp - 4.0) < 1e-9
    (lp,) = res.configuration.lightpaths
    assert lp.path.links == (0,) and lp.start_slot == 3 and lp.width == 4
    validate_configuration(res.configuration, tri_instance.spectrum_slots)


def _contention_duals(triangle) -> tuple[Instance, MasterDuals]:
    inst = Instance(
        topology=triangle,
        spectrum_slots=6,
        requests=(Request(0, "a", "b", 2), Request(1, "a", "b", 2)),
        name="contend",
    )
    duals = _zero_duals(inst)
    duals.mu_request[0], duals.mu_request[1] = 8.0, 4.0
    return inst, duals


def test_price_slot_resolves_link_contention(triangle):
    # both requests want the shared node b; ILP must pick a link-disjoint set
    inst, duals = _contention_duals(triangle)
    res = price_slot(inst, 1, duals)
    assert res.configuration is not None
    # brute force over all path subsets satisfying the one-per-request and
    # link-disjointness rules
    paths0 = enumerate_simple_paths(inst.topology, "a", "b", 5)
    paths1 = enumerate_simple_paths(inst.topology, "a", "b", 5)
    best = 0.0
    for choice0 in [None] + paths0:
        for choice1 in [None] + paths1:
            if choice0 and choice1 and set(choice0.links) & set(choice1.links):
                continue
            value = (8.0 if choice0 else 0.0) + (4.0 if choice1 else 0.0)
            best = max(best, value)
    assert abs(res.rc_ilp - best) < 1e-9
    assert abs(res.rc_ilp - 12.0) < 1e-9  # both fit on disjoint paths


def test_an_inner_lp_cut_by_the_deadline_ends_the_slot_uncertified(triangle):
    inst, duals = _contention_duals(triangle)
    assert price_slot(inst, 1, duals, deadline=time.monotonic() + 60.0).rc_lp_star < math.inf
    res = price_slot(inst, 1, duals, deadline=time.monotonic() - 1.0)
    assert res == PricingResult(configuration=None, rc_ilp=0.0, rc_lp_star=math.inf)


@pytest.mark.parametrize("incumbent", [True, False])
def test_an_inner_ilp_cut_by_the_deadline_keeps_its_incumbent(monkeypatch, triangle, incumbent):
    inst, duals = _contention_duals(triangle)
    solve_ilp, solve_mip = pricing_module._InnerProblem.solve_ilp, Model.solve_mip
    deadlines = []

    def branched(inner, deadline):
        inner._lp = None  # forces branch and bound
        return solve_ilp(inner, deadline)

    def cut_mip(model, relative_gap, binaries, deadline=math.inf):
        deadlines.append(deadline)
        mip = solve_mip(model, relative_gap, binaries, deadline)
        if incumbent:  # stopped with the optimum found, the gap still open
            return MipSolution(SolveStatus.TIME_LIMIT, mip.objective, mip.values, 0.5)
        return MipSolution(SolveStatus.TIME_LIMIT, -math.inf, {}, math.inf)

    full = price_slot(inst, 1, duals)
    monkeypatch.setattr(pricing_module._InnerProblem, "solve_ilp", branched)
    monkeypatch.setattr(Model, "solve_mip", cut_mip)
    deadline = time.monotonic() + 60.0
    res = price_slot(inst, 1, duals, deadline=deadline)
    assert deadlines == [deadline]
    if incumbent:
        assert res == full and res.configuration is not None
    else:
        assert res == PricingResult(configuration=None, rc_ilp=0.0, rc_lp_star=full.rc_lp_star)


def test_price_slot_reduced_cost_recomputation(tri_instance):
    rng = random.Random(4)
    duals = MasterDuals(
        mu_request={r.id: rng.uniform(0, 3) for r in tri_instance.requests},
        mu_cell=np.array(
            [[rng.choice([0.0, rng.uniform(0, 0.6)]) for _ in range(10)] for _ in range(3)]
        ),
    )
    for s in range(1, 11):
        res = price_slot(tri_instance, s, duals)
        assert res.rc_ilp <= res.rc_lp_star + 1e-6
        if res.configuration is not None:
            rc = master_reduced_cost(res.configuration, duals)
            assert abs(rc - res.rc_ilp) < 1e-6
            validate_configuration(res.configuration, tri_instance.spectrum_slots)


def test_pricing_key_sees_exactly_the_eligible_windows(tri_instance):
    # widths 4 and 8 on 10 slots: both requests are eligible up to slot 3, the
    # width-4 one up to slot 7, none after; a cell is read iff it lies in the
    # window of an eligible width
    requests = [PricingRequest.from_request(r) for r in tri_instance.requests]
    base = _random_duals(tri_instance, 5).clamped()
    for s in range(1, 11):
        key = pricing_key(tri_instance, s, base, requests)
        last = max((s + p.width - 1 for p in requests if s + p.width - 1 <= 10), default=0)
        for link in range(3):
            for slot in range(1, 11):
                raised = MasterDuals(dict(base.mu_request), base.mu_cell.copy())
                raised.mu_cell[link, slot - 1] += 1.0
                changed = pricing_key(tri_instance, s, raised, requests) != key
                assert changed == (s <= slot <= last), (s, link, slot)
        # mu is the same at every slot of a snapshot, so the key leaves it out
        for r in tri_instance.requests:
            raised = MasterDuals(dict(base.mu_request), base.mu_cell)
            raised.mu_request[r.id] += 1.0
            assert pricing_key(tri_instance, s, raised, requests) == key, (s, r.id)


def test_pricing_key_keeps_each_width_apart(tri_instance):
    # moving a dual from slot 6 to slot 2 keeps the width-8 window sum of slot 1
    # and changes the width-4 one
    requests = [PricingRequest.from_request(r) for r in tri_instance.requests]
    before = _zero_duals(tri_instance)
    before.mu_cell[0, 5] = 1.0
    after = _zero_duals(tri_instance)
    after.mu_cell[0, 1] = 1.0
    assert pricing_key(tri_instance, 1, before, requests) != pricing_key(
        tri_instance, 1, after, requests
    )


def test_slot_without_a_positive_gain_needs_no_inner_solve(monkeypatch):
    # duals of every master LP of tiny 0-39, and random cell duals with mu at or
    # just above zero; a slot whose eligible gains are all at most IMPROVE_TOL
    # is answered without building an inner problem
    def no_inner(*args, **kwargs):
        raise AssertionError("inner problem built for a slot without gain")

    skipped = 0
    for seed in range(40):
        inst = make_random_tiny_instance(seed)
        with recorded_master_duals() as snapshots:
            solve(inst, SolveConfig(final_ilp_relative_gap=0.0))
        rng = random.Random(seed)
        noise = _random_duals(inst, seed)
        for r in inst.requests:
            noise.mu_request[r.id] = rng.choice([0.0, -1e-7, 5e-7])
        requests = [PricingRequest.from_request(r) for r in inst.requests]
        for duals in snapshots + [noise]:
            for s in range(1, inst.spectrum_slots + 1):
                eligible, _, mu_gain = _slot_input(inst, s, duals.clamped(), requests)
                if not eligible or any(gain > IMPROVE_TOL for gain in mu_gain.values()):
                    continue
                with monkeypatch.context() as patch:
                    patch.setattr(pricing_module, "_InnerProblem", no_inner)
                    res = price_slot(inst, s, duals)
                assert res == PricingResult(None, 0.0, 0.0), (seed, s)
                assert oracle_max_reduced_cost(inst, s, duals) == pytest.approx(0.0, abs=IMPROVE_TOL)
                skipped += 1
    assert skipped > 0


def _random_duals(inst, seed):
    rng = random.Random(seed)
    return MasterDuals(
        mu_request={r.id: rng.choice([0.0, rng.uniform(0, 3)]) for r in inst.requests},
        mu_cell=np.array(
            [
                [rng.choice([0.0, 0.0, rng.uniform(0, 1.5)]) for _ in range(inst.spectrum_slots)]
                for _ in range(inst.topology.num_links)
            ]
        ),
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_pricing_bounds_bracket_exhaustive_optimum(seed):
    inst = make_four_node_instance(seed)
    duals = _random_duals(inst, seed + 1)
    for s in range(1, inst.spectrum_slots + 1):
        res = price_slot(inst, s, duals)
        exact = oracle_max_reduced_cost(inst, s, duals)
        assert res.rc_ilp <= exact + 1e-6
        assert exact <= res.rc_lp_star + 1e-6


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_pricing_lp_bound_dominates_on_six_node_instances(seed):
    from conftest import make_random_tiny_instance

    inst = make_random_tiny_instance(seed, max_requests=4)
    duals = _random_duals(inst, seed + 2)
    for s in range(1, inst.spectrum_slots + 1):
        res = price_slot(inst, s, duals)
        exact = oracle_max_reduced_cost(inst, s, duals)
        assert exact <= res.rc_lp_star + 1e-6
        assert res.rc_ilp <= exact + 1e-6


def test_inner_round_cap_reports_an_uncertified_slot(monkeypatch):
    # one inner round adds paths but cannot show that none is left to add
    monkeypatch.setattr(pricing_module, "MAX_INNER_ROUNDS", 1)
    inst = make_random_tiny_instance(9)
    rmp = RestrictedMaster(inst)
    _, duals = rmp.solve_lp_and_prune()
    res = price_slot(inst, 1, duals)
    assert res.rc_lp_star == math.inf
    assert res.configuration is not None
    rmp.add_column(res.configuration)
    assert not certify([PricingResult(None, 0.0, math.inf)])


def test_integral_inner_lp_equals_the_inner_ilp(monkeypatch):
    # solve_ilp returns an integral last LP as it is; branch and bound must agree
    mip_calls = []
    solve_mip = Model.solve_mip
    solve_ilp = pricing_module._InnerProblem.solve_ilp

    def counting_mip(model, *args, **kwargs):
        mip_calls.append(model)
        return solve_mip(model, *args, **kwargs)

    compared = {"skipped": 0, "branched": 0}

    def compared_ilp(inner, deadline):
        before = len(mip_calls)
        value, chosen = solve_ilp(inner, deadline)
        compared["skipped" if len(mip_calls) == before else "branched"] += 1
        inner._lp = None  # forces branch and bound on the same model
        mip_value, mip_chosen = solve_ilp(inner, deadline)
        assert value == pytest.approx(mip_value, abs=1e-9) and chosen == mip_chosen
        return value, chosen

    monkeypatch.setattr(Model, "solve_mip", counting_mip)
    monkeypatch.setattr(pricing_module._InnerProblem, "solve_ilp", compared_ilp)
    for seed in range(40):
        inst = make_random_tiny_instance(seed)
        solve(inst, SolveConfig(final_ilp_relative_gap=0.0))
        duals = _random_duals(inst, seed)
        for s in range(1, inst.spectrum_slots + 1):
            price_slot(inst, s, duals)
    assert compared["skipped"] > 0 and compared["branched"] > 0
