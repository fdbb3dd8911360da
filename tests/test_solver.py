import dataclasses
import itertools
import json
import math
import subprocess
import sys
import time
from pathlib import Path as FsPath

import pytest

import eonrsa
import eonrsa.solver as solver_module
from eonrsa import (
    Configuration,
    ConflictDetected,
    Instance,
    InvariantViolation,
    MipSolution,
    Path,
    PricingRequest,
    PricingResult,
    Request,
    RestrictedMaster,
    SolveConfig,
    SolveStatus,
    Topology,
    builtin_topology,
    certify,
    derived_pricing_requests,
    generate_icton_style,
    validate_configuration,
    oracle_solve,
    price_slot,
    report_metrics,
    save_instance,
    solve,
    verify_plan,
)
from eonrsa.lpsolver import Model
from eonrsa.master import first_fit, lightpath_columns
from eonrsa.pricing import IMPROVE_TOL, pricing_key
from eonrsa.solver import SHARED_PER_SLOT
from conftest import (
    make_random_tiny_instance,
    master_reduced_cost,
    recorded_master_duals,
    signature,
    widest_first,
)


def test_single_lightpath_run(two_node):
    inst = Instance(topology=two_node, spectrum_slots=4, requests=(Request(0, "a", "b", 2),))
    report, plan = solve(inst, SolveConfig(final_ilp_relative_gap=0.0))
    assert report.z_lp_star_slots == pytest.approx(2.0)
    assert report.z_ilp_slots == pytest.approx(2.0)
    assert report.gos_percent == pytest.approx(100.0)
    assert report.epsilon_lp == 0.0 and report.epsilon_tab == 0.0
    assert report.certified
    assert plan.throughput_slots == 2
    assert plan.assignments[0].start_slot == 1


def test_empty_instance(two_node):
    inst = Instance(topology=two_node, spectrum_slots=4, requests=())
    report, plan = solve(inst, SolveConfig(final_ilp_relative_gap=0.0))
    assert report.z_lp_star_slots == 0.0 and report.z_ilp_slots == 0.0
    assert report.gos_percent == 100.0  # undefined load reported as 100 by convention
    assert report.columns_generated == 0
    assert plan.assignments == {}


def test_a_full_grant_reports_a_gos_of_exactly_100(two_node):
    # 7 of 7 slots; the offered load in Gbps, 0.3 * 7, is not 7 slots once divided back
    requests = (Request(0, "a", "b", 3), Request(1, "a", "b", 4))
    inst = Instance(topology=two_node, spectrum_slots=7, requests=requests, slot_rate_gbps=0.3)
    report, _plan = solve(inst)
    assert report.z_ilp_slots == 7
    assert report.gos_percent == 100.0


def test_metrics_table_arithmetic():
    m = report_metrics(50.2, 42.6, 50.2)
    assert m.gos_percent == pytest.approx(84.9, abs=0.05)
    assert m.epsilon_tab_percent == pytest.approx(17.8, abs=0.05)
    m2 = report_metrics(3.7, 3.6, 3.7)
    assert m2.epsilon_tab_percent == pytest.approx(2.8, abs=0.05)


def test_metrics_equal_bounds():
    m = report_metrics(5.0, 5.0, 10.0)
    assert m.epsilon_lp_percent == 0.0 and m.epsilon_tab_percent == 0.0
    assert m.gos_percent == pytest.approx(50.0)


def test_metrics_zero_guard():
    m = report_metrics(0.0, 0.0, 0.0)
    assert m == (0.0, 0.0, 100.0)


def test_metrics_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        report_metrics(1.0, 2.0, 2.0)


def test_metrics_accept_bounds_crossed_within_solve_slack():
    # solve() accepts z_ilp up to 1e-6 * (1 + |z_lp_star|) above the LP bound
    eps_lp, eps_tab, gos = report_metrics(175.9999999, 176.0, 176.0)
    assert (eps_lp, eps_tab, gos) == (0.0, 0.0, 100.0)


def _res(rc_ilp, rc_lp):
    return PricingResult(configuration=None, rc_ilp=rc_ilp, rc_lp_star=rc_lp)


def test_certify_all_zero():
    assert certify([_res(0.0, 0.0), _res(0.0, 0.0)])


def test_certify_positive_lp_bound_fails():
    assert not certify([_res(0.0, 0.0), _res(0.0, 0.3)])


def test_certify_tolerates_noise():
    assert certify([_res(0.0, 1e-7), _res(0.0, 9e-7)])


def test_certify_requires_finished_run():
    with pytest.raises(ValueError):
        certify([_res(0.5, 0.5)])


def test_deterministic_repeats():
    inst = make_random_tiny_instance(17)
    cfg = SolveConfig(final_ilp_relative_gap=0.0)
    r1, p1 = solve(inst, cfg)
    r2, p2 = solve(inst, cfg)
    skip = {"timings"}
    for f in dataclasses.fields(r1):
        if f.name in skip:
            continue
        assert getattr(r1, f.name) == getattr(r2, f.name), f.name
    assert {k: (lp.path.links, lp.start_slot) for k, lp in p1.assignments.items()} == {
        k: (lp.path.links, lp.start_slot) for k, lp in p2.assignments.items()
    }


def test_lp_trace_monotone_and_bounds_ordered():
    for seed in range(8):
        inst = make_random_tiny_instance(seed + 200)
        report, plan = solve(inst, SolveConfig(final_ilp_relative_gap=0.0))
        trace = report.lp_value_trace
        assert all(trace[i] <= trace[i + 1] + 1e-9 for i in range(len(trace) - 1))
        assert report.z_ilp_slots <= report.z_lp_star_slots + 1e-6
        exact = oracle_solve(inst).value_slots
        assert report.z_ilp_slots <= exact + 1e-6
        if report.certified:
            assert exact <= report.z_lp_star_slots + 1e-6
        verify_plan(inst, plan, expected_slots=report.z_ilp_slots)


def _guard_band_triangle(triangle) -> tuple[Instance, list[PricingRequest]]:
    """The guard-band triangle of test_a_guard_band_run_certifies_by_pricing and its derived
    requests: it gets no flow bound, so it still prices rounds after its seeded LP."""
    requests = (Request(0, "a", "c", 2), Request(1, "a", "b", 2), Request(2, "c", "a", 3))
    inst = Instance(topology=triangle, spectrum_slots=3, requests=requests)
    return inst, derived_pricing_requests(inst)


def test_time_limit_flags_partial_result(triangle):
    inst, derived = _guard_band_triangle(triangle)  # the first-fit start does not certify it
    for backend in ("bundled", "highs"):
        config = SolveConfig(final_ilp_relative_gap=0.0, backend=backend)
        unlimited = solve(inst, config, derived)[0]
        assert unlimited.outer_iterations >= 2
        report, _ = solve(inst, dataclasses.replace(config, max_wall_clock_seconds=1e-9), derived)
        assert report.timed_out
        assert not report.certified
        # the round that passed the deadline added columns; one more LP solve gives the bound
        assert report.columns_generated > 0
        assert len(report.lp_value_trace) == report.outer_iterations + 1
        assert len(report.prune_checks) == len(report.lp_value_trace)
        assert report.z_lp_star_slots == report.lp_value_trace[-1]


def test_gap_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(final_ilp_relative_gap=1.5)
    for seconds in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SolveConfig(max_wall_clock_seconds=seconds)
    SolveConfig(max_wall_clock_seconds=0.0)  # 0 s = unlimited


def test_round_cap_stops_a_run(monkeypatch, triangle):
    inst, derived = _guard_band_triangle(triangle)  # needs 3 pricing rounds
    assert solve(inst, SolveConfig(final_ilp_relative_gap=0.0), derived)[0].outer_iterations >= 2
    monkeypatch.setattr(solver_module, "MAX_OUTER_ROUNDS", 1)
    with pytest.raises(RuntimeError, match="exceeded 1 rounds"):
        solve(inst, SolveConfig(final_ilp_relative_gap=0.0), derived)


def test_solve_rejects_a_request_wider_than_its_member():
    # a 5-slot window for a 2-slot request would never fit, and the run would
    # certify a bound of 0 against an optimum of 2
    topo = Topology(name="path3", nodes=("a", "b", "c"), links=(("a", "b"), ("b", "c")))
    inst = Instance(topology=topo, spectrum_slots=4, requests=(Request(0, "a", "c", 2),))
    with pytest.raises(InvariantViolation, match="width"):
        solve(inst, SolveConfig(final_ilp_relative_gap=0.0), [PricingRequest(0, "a", "c", 5, (0,))])


def test_solve_rejects_a_conflicting_plan(monkeypatch):
    # tiny 9's start plan grants 6 of its certified 7, so the final ILP runs; its plan
    # routes requests 0 (n3-n0) and 2 (n3-n0-n1) over link 2 from slot 1
    inst = make_random_tiny_instance(9)
    routes = [(inst.requests[0], (2,), ("n3", "n0")), (inst.requests[2], (2, 0), ("n3", "n0", "n1"))]
    clash = [
        Configuration(1, ((PricingRequest.from_request(r), Path(links=links, nodes=nodes)),))
        for r, links, nodes in routes
    ]
    mip = MipSolution(SolveStatus.OPTIMAL, 5.0, {}, 0.0)
    monkeypatch.setattr(RestrictedMaster, "solve_final_ilp", lambda *args, **kw: (5.0, clash, mip))
    with pytest.raises(ConflictDetected, match=r"\(2, 1\)"):
        solve(inst, SolveConfig(final_ilp_relative_gap=0.0))


def test_solve_rejects_an_ilp_above_its_bound(monkeypatch):
    # tiny 7's start plan grants 2 of the 6 slots that fit, so its LP runs; one below its
    # value of 2, the LP bound falls under the plan
    inst = make_random_tiny_instance(7)
    original = RestrictedMaster.solve_lp_and_prune

    def one_below(rmp):
        value, duals = original(rmp)
        return value - 1.0, duals

    monkeypatch.setattr(RestrictedMaster, "solve_lp_and_prune", one_below)
    with pytest.raises(ValueError, match=r"got 1\.0, 2$"):
        solve(inst, SolveConfig(final_ilp_relative_gap=0.0))


def test_unreachable_request_is_rejected_not_fatal():
    from eonrsa import Topology

    topo = Topology(name="islands", nodes=("a", "b", "c", "d"), links=(("a", "b"), ("c", "d")))
    inst = Instance(
        topology=topo,
        spectrum_slots=4,
        requests=(Request(0, "a", "c", 2), Request(1, "a", "b", 2)),
    )
    report, plan = solve(inst, SolveConfig(final_ilp_relative_gap=0.0))
    assert report.z_ilp_slots == pytest.approx(2.0)  # only the reachable one
    assert set(plan.assignments) == {1}
    assert report.certified


def test_oversized_demand_never_eligible(two_node):
    inst = Instance(
        topology=two_node,
        spectrum_slots=2,
        requests=(Request(0, "a", "b", 5), Request(1, "a", "b", 2)),
    )
    report, plan = solve(inst, SolveConfig(final_ilp_relative_gap=0.0))
    assert report.z_ilp_slots == pytest.approx(2.0)
    assert set(plan.assignments) == {1}
    assert report.certified


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_run_without_columns_reports_a_zero_ilp_gap(two_node, backend):
    # no window fits, so the bound is 0 and the empty start plan meets it: no final ILP runs
    inst = Instance(topology=two_node, spectrum_slots=2, requests=(Request(0, "a", "b", 3),))
    report, plan = solve(inst, SolveConfig(backend=backend))
    assert report.columns_generated == 0
    assert report.final_ilp_gap == 0.0
    assert report.z_ilp_slots == 0.0 and plan.assignments == {}


def test_highs_backend_agrees_on_lp_bound(monkeypatch):
    # instance 36 cycled on the HiGHS master while it took its duals from the
    # post-prune re-solve; the round cap makes such a cycle fail fast
    monkeypatch.setattr(solver_module, "MAX_OUTER_ROUNDS", 200)
    for seed in (41, 36):
        inst = make_random_tiny_instance(seed)
        config = SolveConfig(final_ilp_relative_gap=0.0)
        a, _ = solve(inst, dataclasses.replace(config, backend="bundled"))
        b, _ = solve(inst, dataclasses.replace(config, backend="highs"))
        assert a.z_lp_star_slots == pytest.approx(b.z_lp_star_slots, abs=1e-5)
        assert a.z_ilp_slots == pytest.approx(b.z_ilp_slots, abs=1e-5)


def test_highs_certifies_the_known_cycles_when_no_bound_stops_them(monkeypatch):
    # with the flow bound at the demand sum, only pricing certifies; tiny 57, 71 and 100
    # cycled on a HiGHS master that solved cold and reported no basis
    monkeypatch.setattr(solver_module, "MAX_OUTER_ROUNDS", 200)
    monkeypatch.setattr(RestrictedMaster, "_flow_bound", lambda master: master.upper_bound)
    config = SolveConfig(final_ilp_relative_gap=0.0)
    for seed in (57, 71, 100):
        inst = make_random_tiny_instance(seed)
        bundled, _ = solve(inst, dataclasses.replace(config, backend="bundled"))
        highs, _ = solve(inst, dataclasses.replace(config, backend="highs"))
        assert bundled.certified and highs.certified, seed
        assert highs.z_lp_star_slots == pytest.approx(bundled.z_lp_star_slots, abs=1e-6), seed


def test_highs_prices_no_more_rounds_than_bundled_from_the_first_fit_start():
    config = SolveConfig(final_ilp_relative_gap=0.0)
    for seed in (9, 12):
        inst = make_random_tiny_instance(seed)
        bundled, _ = solve(inst, dataclasses.replace(config, backend="bundled"))
        highs, _ = solve(inst, dataclasses.replace(config, backend="highs"))
        assert highs.outer_iterations <= bundled.outer_iterations, seed


def _shared_candidates(inst, duals, improving) -> dict[int, list[float]]:
    """By start slot, the reduced cost of every improving configuration moved there from
    another slot, recomputed cell by cell; highest first."""
    offers: dict[int, list[float]] = {}
    for routes in dict.fromkeys(frozenset(c.routes) for c in improving):
        at = {c.start_slot for c in improving if frozenset(c.routes) == routes}
        routes = tuple(routes)
        widest = max(req.width for req, _ in routes)
        for s in range(1, inst.spectrum_slots - widest + 2):
            rc = master_reduced_cost(Configuration(s, routes), duals)
            if s not in at and rc > IMPROVE_TOL:
                offers.setdefault(s, []).append(rc)
    return {s: sorted(rcs, reverse=True) for s, rcs in offers.items()}


def _congested_spain21():
    # some of its slots get more offers than SHARED_PER_SLOT; 16 s on the bundled engine
    return generate_icton_style(builtin_topology("spain21"), num_pairs=20, seed=1, spectrum_slots=12)


@pytest.mark.parametrize(
    "backend, congested", [("bundled", []), ("highs", [_congested_spain21])], ids=["bundled", "highs"]
)
def test_shared_columns_are_the_best_priced_offers_at_each_slot(
    monkeypatch, triangle, backend, congested
):
    rounds = []
    original = solver_module._shared_columns

    def recording(instance, duals, improving):
        shared = original(instance, duals, improving)
        rounds.append((improving, shared))
        return shared

    monkeypatch.setattr(solver_module, "_shared_columns", recording)
    capped = 0
    for inst, requests in [_guard_band_triangle(triangle)] + [(f(), None) for f in congested]:
        rounds.clear()
        with recorded_master_duals() as snapshots:
            config = SolveConfig(final_ilp_relative_gap=0.0, backend=backend)
            report, _ = solve(inst, config, requests)
        added = 0
        # round r prices the duals of LP r + 1: the LP with the seeded columns is LP 2
        for (improving, shared), duals in zip(rounds, snapshots[1:]):
            added += len(improving) + len(shared)
            signatures = [signature(c) for c in [*improving, *shared]]
            assert len(set(signatures)) == len(signatures), inst.name
            offers = _shared_candidates(inst, duals, improving)
            for s in range(1, inst.spectrum_slots + 1):
                at_s = [master_reduced_cost(c, duals) for c in shared if c.start_slot == s]
                assert all(rc > IMPROVE_TOL for rc in at_s), (inst.name, s)
                best = offers.get(s, [])[:SHARED_PER_SLOT]
                assert sorted(at_s, reverse=True) == pytest.approx(best, abs=1e-9), (inst.name, s)
                capped += len(offers.get(s, [])) > SHARED_PER_SLOT
        assert report.columns_generated == added, inst.name
    assert (capped > 0) == bool(congested)


def test_shared_pricing_keys_give_the_direct_result(monkeypatch, triangle):
    # every slot whose pricing key appeared earlier in its round reuses that
    # result, its column moved to its own slot; it must equal pricing the slot directly
    spain = generate_icton_style(builtin_topology("spain21"), num_pairs=10, seed=1, spectrum_slots=10)
    spain_requests = [PricingRequest.from_request(r) for r in spain.requests]
    shared = 0
    for inst, requests in [_guard_band_triangle(triangle), (spain, spain_requests)]:
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return price_slot(*args, **kwargs)

        monkeypatch.setattr(solver_module, "price_slot", counted)
        with recorded_master_duals() as snapshots:
            report, _ = solve(inst, SolveConfig(final_ilp_relative_gap=0.0), requests)
        monkeypatch.undo()
        distinct = 0
        # rounds price from the LP with the seeded columns, the second; a run that meets
        # its upper bound stops before pricing its last duals
        for duals in snapshots[1 : 1 + report.outer_iterations]:
            clamped = duals.clamped()
            first = {}
            for s in range(1, inst.spectrum_slots + 1):
                key = pricing_key(inst, s, clamped, requests)
                if key not in first:
                    first[key] = price_slot(inst, s, duals, pricing_requests=requests)
                    continue
                shared += 1
                direct = price_slot(inst, s, duals, pricing_requests=requests)
                memo = first[key]
                if memo.configuration is not None:
                    moved = dataclasses.replace(memo.configuration, start_slot=s)
                    memo = dataclasses.replace(memo, configuration=moved)
                assert memo == direct, (inst.name, s)
            distinct += len(first)
        assert len(calls) == distinct, inst.name  # one inner solve per distinct key and round
    assert shared > 0


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_lp_value_lies_between_the_optimum_and_the_upper_bound(backend):
    flow_stops = 0
    for seed in range(40):
        inst = make_random_tiny_instance(seed)
        report, _ = solve(inst, SolveConfig(final_ilp_relative_gap=0.0, backend=backend))
        flow = RestrictedMaster(inst, backend=backend)._flow_bound()
        z_lp, tol = report.z_lp_star_slots, 1e-6 * (1.0 + report.z_lp_star_slots)
        assert report.certified, seed
        assert oracle_solve(inst).value_slots <= z_lp + tol, seed
        # z_ub is the master's last upper_bound, also where no master LP ran
        assert z_lp <= min(report.z_ub_slots, flow) + tol, seed
        # stopped unpriced below the demand sum: the flow bound certified it
        demand = sum(r.demand for r in inst.requests if r.demand <= inst.spectrum_slots)
        flow_stops += len(report.lp_value_trace) > report.outer_iterations and z_lp < demand - tol
    assert flow_stops > 0


@pytest.mark.parametrize("slots, bound", [(20, 162.0), (50, 176.0)])
def test_flow_bound_of_spain21(slots, bound):
    # the demand of the 35 requests sums to 176 slots
    inst = generate_icton_style(builtin_topology("spain21"), num_pairs=35, seed=1, spectrum_slots=slots)
    assert RestrictedMaster(inst, backend="highs")._flow_bound() == pytest.approx(bound, abs=1e-6)


def _equality_flow_bound(inst, backend):
    """The flow LP with each conservation row an equality, written as two `<=` rows."""
    topo, slots = inst.topology, inst.spectrum_slots
    requests = [r for r in inst.requests if r.demand <= slots]
    sources = sorted({r.source for r in requests})
    pairs = [(s, v) for s in sources for v in topo.nodes if v != s]
    row = {pair: 2 * i for i, pair in enumerate(pairs)}
    cap = 2 * len(pairs)
    model = Model([0.0] * cap + [float(slots)] * topo.num_links, backend)
    for r in requests:
        k = row[r.source, r.dest]
        model.add_variable(obj=float(r.demand), hi=1.0, coeffs={k: r.demand, k + 1: -r.demand})
    for s in sources:
        for link, ends in enumerate(topo.links):
            for a, b in (ends, ends[::-1]):
                coeffs = {cap + link: 1.0}
                for node, sign in ((a, 1.0), (b, -1.0)):  # out of a, into b
                    if node != s:
                        coeffs[row[s, node]], coeffs[row[s, node] + 1] = sign, -sign
                model.add_variable(coeffs=coeffs)
    return model.solve_lp().objective


def _flow_bound_cases():
    spain = builtin_topology("spain21")
    # at tiny 95 a gap row binds: the bound is 6.5, 7 without gap rows
    return [make_random_tiny_instance(seed) for seed in (*range(40), 95)] + [
        generate_icton_style(spain, num_pairs=35, seed=1, spectrum_slots=slots) for slots in (20, 50)
    ]


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_flow_bound_lies_below_the_equality_flow_lp(backend):
    # the slot-set rows include the full spectrum's, which is the equality LP's link row
    tighter = 0
    for inst in _flow_bound_cases():
        bound = RestrictedMaster(inst, backend=backend)._flow_bound()
        flow = _equality_flow_bound(inst, backend)
        assert bound <= flow + 1e-9 * (1.0 + flow), inst.name
        tighter += bound < flow - 1e-6
    assert tighter > 0


# the certified LP value of spain21, 35 pairs, |S|=20, with the bound patched to the
# demand sum: 162 on both engines, after 265 priced rounds on HiGHS and 37 on bundled
PRICED_Z_LP_OF_SPAIN21_AT_20_SLOTS = 162.0


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_flow_bound_lies_above_the_lp_value_that_pricing_certifies(monkeypatch, backend):
    config = SolveConfig(final_ilp_relative_gap=0.0, backend=backend)
    no_incumbent = MipSolution(SolveStatus.TIME_LIMIT, math.nan, {}, math.inf)
    bounds = {}
    for inst in _flow_bound_cases():
        bounds[inst.name, inst.spectrum_slots] = RestrictedMaster(inst, backend=backend)._flow_bound()
    met = 0
    with monkeypatch.context() as patch:
        patch.setattr(RestrictedMaster, "_flow_bound", lambda master: master.upper_bound)
        patch.setattr(RestrictedMaster, "solve_final_ilp", lambda *args, **kw: (0.0, [], no_incumbent))
        for inst in _flow_bound_cases():
            if inst.spectrum_slots == 20:
                z_lp = PRICED_Z_LP_OF_SPAIN21_AT_20_SLOTS  # 30-80 s of pricing
            else:
                report = solve(inst, config)[0]
                assert report.certified, inst.name
                z_lp = report.z_lp_star_slots
            bound = bounds[inst.name, inst.spectrum_slots]
            assert z_lp <= bound + 1e-6 * (1.0 + bound), inst.name
            met += z_lp >= bound - 1e-6 * (1.0 + bound)
    assert met > 0


# (links, slots, requests) of base instances of the tiny-oracle benchmark workload,
# perfbench/workloads.tiny_instance(g), over nodes n0..n5
TINY_ORACLE_BASES = {
    33: ([(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (4, 5)], 4,
         [(3, 5, 2), (5, 0, 2), (3, 2, 3), (3, 0, 3), (4, 3, 2)]),
    130: ([(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)], 7, [(1, 4, 2), (1, 2, 3), (4, 0, 3)]),
}


def _tiny_oracle_base(g: int) -> Instance:
    links, slots, requests = TINY_ORACLE_BASES[g]
    n = [f"n{i}" for i in range(6)]
    topology = Topology(f"tiny_g{g}", tuple(n), tuple((n[a], n[b]) for a, b in links))
    requests = tuple(Request(i, n[a], n[b], d) for i, (a, b, d) in enumerate(requests))
    return Instance(topology=topology, spectrum_slots=slots, requests=requests, name=f"tiny_g{g}")


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_gap_rows_bring_the_flow_bound_down_to_the_lp_value(backend):
    # 7 slots, widths 2 and 3: the gap set {2, 3, 5, 6} of the progression {1, 4, 7}
    # gives f2 + 2 f3 <= 4, and with the full spectrum's row a bound of 6.5
    for inst in (make_random_tiny_instance(95), _tiny_oracle_base(130)):
        assert RestrictedMaster(inst, backend=backend)._flow_bound() == pytest.approx(6.5)
        report, _ = solve(inst, SolveConfig(final_ilp_relative_gap=0.0, backend=backend))
        assert report.certified and report.outer_iterations == 0, inst.name
        assert report.z_lp_star_slots == pytest.approx(6.5) == report.z_ub_slots, inst.name


# tiny instance: (z_lp, plan value); without the single-lightpath columns each prices 1-4 rounds
SEEDED_TINY = {9: (7.0, 6), 12: (5.5, 5), 27: (5.5, 5), 32: (3.5, 3), 95: (6.5, 6)}


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_seeded_lightpaths_certify_tiny_runs_without_pricing(backend):
    for seed, (z_lp, value) in SEEDED_TINY.items():
        inst = make_random_tiny_instance(seed)
        report, plan = solve(inst, SolveConfig(final_ilp_relative_gap=0.0, backend=backend))
        assert report.certified and report.outer_iterations == 0, seed
        assert report.columns_generated == 0 and len(report.lp_value_trace) == 2, seed
        assert report.z_lp_star_slots == pytest.approx(z_lp) == report.z_ub_slots, seed
        assert report.z_ilp_slots == plan.throughput_slots == value, seed


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_a_run_without_a_flow_bound_certifies_by_pricing(monkeypatch, backend):
    # with the flow bound at the demand sum, the seeded LP's value is no bound until one
    # round, every slot's pricing LP bound zero, certifies it
    monkeypatch.setattr(RestrictedMaster, "_flow_bound", lambda master: master.upper_bound)
    verdicts = _counted(monkeypatch, solver_module, "certify")
    for seed, (z_lp, value) in SEEDED_TINY.items():
        inst = make_random_tiny_instance(seed)
        verdicts.clear()
        report, plan = solve(inst, SolveConfig(final_ilp_relative_gap=0.0, backend=backend))
        assert report.certified and len(verdicts) == 1, seed
        assert report.outer_iterations == 1 and report.columns_generated == 0, seed
        assert report.z_lp_star_slots == pytest.approx(z_lp), seed
        assert report.z_lp_star_slots < report.z_ub_slots - 1e-6, seed
        assert report.z_ilp_slots == plan.throughput_slots == value, seed


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_the_seeded_lp_keeps_no_nonbasic_lightpath_column(monkeypatch, backend):
    prunes, prune = [], Model.prune

    def recording(model, sol, candidates):
        offered = dict(candidates)
        dropped = prune(model, sol, candidates)
        prunes.append((sol, offered, set(dropped)))
        return dropped

    monkeypatch.setattr(Model, "prune", recording)
    for seed in SEEDED_TINY:
        inst = make_random_tiny_instance(seed)
        prunes.clear()
        solve(inst, SolveConfig(final_ilp_relative_gap=0.0, backend=backend))
        sol, offered, dropped = prunes[1]  # the master's second LP, the seeded one
        seeded = lightpath_columns(inst, [PricingRequest.from_request(r) for r in inst.requests])
        lightpaths = {vid for vid, c in offered.items() if len(c.routes) == 1}
        assert len(lightpaths) >= len(seeded) and dropped, seed
        assert all(vid in sol.basic_variables for vid in lightpaths - dropped), seed


def test_lightpath_columns_take_each_fitting_window_on_the_fewest_hop_path(triangle):
    requests = (Request(0, "a", "c", 2), Request(1, "a", "b", 1), Request(2, "b", "c", 4))
    inst = Instance(topology=triangle, spectrum_slots=3, requests=requests)
    columns = lightpath_columns(inst, [PricingRequest.from_request(r) for r in requests])
    assert [signature(c) for c in columns] == [
        (1, ((0, (2,)),)), (2, ((0, (2,)),)),  # the direct link a-c, not a-b-c
        (1, ((1, (0,)),)), (2, ((1, (0,)),)), (3, ((1, (0,)),)),
    ]  # the 4-slot request fits no window
    for column in columns:
        validate_configuration(column, inst.spectrum_slots)


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_a_final_ilp_that_fails_numerically_keeps_the_best_plan(monkeypatch, backend):
    inst = make_random_tiny_instance(9)  # its start plan of 6 falls short of its bound of 7
    failed = MipSolution(SolveStatus.NUMERICAL_FAILURE, -math.inf, {}, math.inf)
    ilp_calls = _counted(monkeypatch, RestrictedMaster, "solve_final_ilp")
    monkeypatch.setattr(Model, "solve_mip", lambda *args, **kwargs: failed)
    report, plan = solve(inst, SolveConfig(final_ilp_relative_gap=0.0, backend=backend))
    assert len(ilp_calls) == 1 and report.final_ilp_gap == 1.0
    assert report.z_ilp_slots == plan.throughput_slots == 6
    verify_plan(inst, plan, expected_slots=report.z_ilp_slots)


def test_a_final_ilp_without_a_feasible_point_raises(monkeypatch):
    # the zero point is always feasible, so an infeasible final ILP is a defect
    inst = make_random_tiny_instance(9)
    infeasible = MipSolution(SolveStatus.INFEASIBLE, -math.inf, {}, math.inf)
    monkeypatch.setattr(Model, "solve_mip", lambda *args, **kwargs: infeasible)
    with pytest.raises(RuntimeError, match="final ILP failed"):
        solve(inst, SolveConfig(final_ilp_relative_gap=0.0))


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_triangle_meets_its_demand_without_pricing(monkeypatch, triangle, backend):
    # the start plan grants the demand sum of 6, which fixes the LP value: no LP runs
    lps = _counted(monkeypatch, Model, "solve_lp")
    requests = (Request(0, "a", "b", 2), Request(1, "b", "c", 1), Request(2, "a", "c", 3))
    inst = Instance(topology=triangle, spectrum_slots=4, requests=requests)
    report, plan = solve(inst, SolveConfig(final_ilp_relative_gap=0.0, backend=backend))
    assert report.certified and report.outer_iterations == 0 and lps == []
    assert report.lp_value_trace == report.prune_checks == []
    assert report.z_lp_star_slots == report.z_ub_slots == 6.0
    assert type(report.z_ilp_slots) is int and report.z_ilp_slots == plan.throughput_slots == 6


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_fused_windows_keep_the_demand_bound(two_node, backend):
    # the flow over atomics caps this pair at 3.5 slots, but one fused window grants 5:
    # each atomic window covers a slot of {2, 3} and the 3-slot one both, so
    # y_2 + 2 y_3 <= 2 next to 2 y_2 + 3 y_3 <= 4
    inst = Instance(
        topology=two_node, spectrum_slots=4, requests=(Request(0, "a", "b", 2), Request(1, "a", "b", 3))
    )
    for requests, bound in ((None, 3.5), (derived_pricing_requests(inst), 5.0)):
        rmp = RestrictedMaster(inst, requests, backend=backend)
        rmp.solve_lp_and_prune()
        rmp.solve_lp_and_prune()  # no column came, so the LP value stalls
        assert rmp.upper_bound == pytest.approx(bound)
    config = SolveConfig(final_ilp_relative_gap=0.0, backend=backend)
    report, _ = solve(inst, config, derived_pricing_requests(inst))
    assert report.certified
    assert report.z_lp_star_slots == pytest.approx(5.0) and report.z_ilp_slots == 5


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_a_guard_band_run_certifies_by_pricing(monkeypatch, triangle, backend):
    # a guard-band run gets no flow bound, so its LP value of 5 stays below the demand
    # bound of 7: only pricing, every slot's LP bound at zero, can certify it
    requests = (Request(0, "a", "c", 2), Request(1, "a", "b", 2), Request(2, "c", "a", 3))
    inst = Instance(topology=triangle, spectrum_slots=3, requests=requests)
    derived = derived_pricing_requests(inst)
    verdicts = []

    def counting(results):
        verdicts.append(certify(results))
        return verdicts[-1]

    monkeypatch.setattr(solver_module, "certify", counting)
    report, plan = solve(inst, SolveConfig(final_ilp_relative_gap=0.0, backend=backend), derived)
    assert report.certified and verdicts == [True]
    assert report.z_lp_star_slots < report.z_ub_slots - 1e-6 and report.outer_iterations >= 1
    assert report.z_ilp_slots == plan.throughput_slots == oracle_solve(inst, derived).value_slots


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_run_where_no_request_fits_certifies_without_pricing(monkeypatch, two_node, backend):
    lps = _counted(monkeypatch, Model, "solve_lp")
    inst = Instance(topology=two_node, spectrum_slots=2, requests=(Request(0, "a", "b", 3),))
    report, _ = solve(inst, SolveConfig(backend=backend))
    assert report.certified and report.outer_iterations == 0 and lps == []
    assert report.lp_value_trace == report.prune_checks == []
    assert report.z_lp_star_slots == report.z_ub_slots == 0.0 and report.z_ilp_slots == 0


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_timed_out_run_that_meets_its_bound_is_certified(monkeypatch, backend):
    # tiny 155 under guard bands: 2 slots, so its 3-slot request fits no window and the
    # bound is the fitting demand of 5
    inst = make_random_tiny_instance(155)
    derived = derived_pricing_requests(inst)
    unlimited, _, _ = _solve_with_a_cut(monkeypatch, inst, backend, 0, 0, derived)
    # the first LP, the seeded one, one priced round, and the LP after it meets the bound
    assert unlimited.outer_iterations == 1 and len(unlimited.lp_value_trace) == 3
    assert unlimited.z_lp_star_slots < sum(r.demand for r in inst.requests)
    # the deadline passes in the round's first slot
    report, _, _ = _solve_with_a_cut(monkeypatch, inst, backend, 1, 1, derived)
    assert report.timed_out and report.outer_iterations == 1
    assert report.certified
    assert report.z_lp_star_slots == pytest.approx(unlimited.z_lp_star_slots)


def _guardband_instance(triangle) -> Instance:
    # two a-b atomics give three derived requests that share members; fused, they need 4 slots
    demands = [("a", "b", 2), ("a", "b", 3), ("b", "c", 2), ("a", "c", 3)]
    requests = tuple(Request(i, a, b, d) for i, (a, b, d) in enumerate(demands))
    return Instance(topology=triangle, spectrum_slots=4, requests=requests)


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_first_fit_columns_form_a_plan(triangle, backend):
    gb = _guardband_instance(triangle)
    cases = [(make_random_tiny_instance(seed), None) for seed in range(40)]
    cases.append((gb, derived_pricing_requests(gb)))
    for inst, requests in cases:
        rmp = RestrictedMaster(inst, requests, backend=backend)
        seed = first_fit(inst, widest_first(rmp.pricing_requests.values()))
        members = [k for config in seed for k in config.served_atomics()]
        cells = [cell for config in seed for cell in config.occupied_cells()]
        assert len(members) == len(set(members)), inst.name
        assert len(cells) == len(set(cells)), inst.name
        for config in seed:
            validate_configuration(config, inst.spectrum_slots, rmp.pricing_requests)
            rmp.add_column(config)
        plan = rmp.post_process(seed)
        verify_plan(inst, plan)
        assert plan.throughput_slots <= oracle_solve(inst, requests).value_slots, inst.name
        # the first LP holds the plan
        assert rmp.solve_lp_and_prune()[0] >= plan.throughput_slots - 1e-6, inst.name


def test_served_slots_is_the_value_of_the_post_processed_plan(triangle):
    # the plan search ranks column lists by served_slots and post-processes only the winner
    cases = []
    for seed in range(40):
        inst = make_random_tiny_instance(seed)
        rmp = RestrictedMaster(inst)
        orders = [widest_first(rmp.pricing_requests.values(), k) for k in (False, True)]
        cases += [(rmp, first_fit(inst, order)) for order in orders]
    # an incumbent may select two columns that serve one request, as here request 0
    small = Instance(triangle, 10, (Request(0, "a", "b", 4), Request(1, "b", "c", 2)))
    rmp = RestrictedMaster(small)
    ab, bc = (PricingRequest.from_request(r) for r in small.requests)
    two_hop = Configuration(1, ((ab, Path((2, 1), ("a", "c", "b"))),))
    both = Configuration(5, ((ab, Path((0,), ("a", "b"))), (bc, Path((1,), ("b", "c")))))
    cases.append((rmp, [two_hop, both]))
    # guard-band columns, some of a fused window, alone and over-covering in pairs
    gb = _guardband_instance(triangle)
    rmp = RestrictedMaster(gb, derived_pricing_requests(gb))
    plans = [first_fit(gb, order) for order in itertools.permutations(rmp.pricing_requests.values())]
    assert any(len(req.members) > 1 for plan in plans for c in plan for req, _ in c.routes)
    cases += [(rmp, plan) for plan in plans] + [(rmp, a + b) for a, b in zip(plans, plans[1:])]
    for rmp, columns in cases:
        assert rmp.served_slots(columns) == rmp.post_process(columns).throughput_slots


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_post_process_runs_once_per_solve_and_once_per_final_ilp(monkeypatch, backend):
    # the returned plan's columns are post-processed once, and a final ILP's selection
    # once more for its own scan; no candidate plan is
    post = _counted(monkeypatch, RestrictedMaster, "post_process")
    ilp_calls = _counted(monkeypatch, RestrictedMaster, "solve_final_ilp")
    ilps = 0
    for i in range(40):
        post.clear()
        ilp_calls.clear()
        solve(make_random_tiny_instance(i), SolveConfig(final_ilp_relative_gap=0.0, backend=backend))
        assert len(post) == 1 + len(ilp_calls), i
        ilps += len(ilp_calls)
    assert ilps > 0  # tiny9's start plan falls short of its bound


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_acceptance_8_certifies_from_its_first_fit_start(monkeypatch, backend):
    lps = _counted(monkeypatch, Model, "solve_lp")
    inst = generate_icton_style(builtin_topology("spain21"), num_pairs=35, seed=1, spectrum_slots=50)
    report, plan = solve(inst, SolveConfig(backend=backend))
    assert report.certified and report.z_lp_star_slots == report.z_ub_slots == 176.0
    assert report.outer_iterations == 0 and lps == []
    assert report.lp_value_trace == report.prune_checks == []
    assert report.columns_generated == 0 and plan.throughput_slots == report.z_ilp_slots


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_a_guard_band_start_plan_that_serves_every_request_solves_no_lp(
    monkeypatch, two_node, backend
):
    # 2 + 3 slots fit 4 only as one fused window; the start plan takes it, serving both
    # atomic requests, so the demand that fits, 5, is the LP value
    lps = _counted(monkeypatch, Model, "solve_lp")
    requests = (Request(0, "a", "b", 2), Request(1, "a", "b", 3))
    inst = Instance(topology=two_node, spectrum_slots=4, requests=requests)
    config = SolveConfig(final_ilp_relative_gap=0.0, backend=backend)
    report, plan = solve(inst, config, derived_pricing_requests(inst))
    assert report.certified and report.outer_iterations == 0 and lps == []
    assert report.lp_value_trace == report.prune_checks == []
    assert report.z_lp_star_slots == report.z_ub_slots == 5.0
    assert report.z_ilp_slots == plan.throughput_slots == 5 and report.final_ilp_gap == 0.0


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_a_short_start_plan_still_solves_its_lps(monkeypatch, backend):
    # tiny 9's start plan grants 6 of the 10 slots that fit, so its LPs run: the first LP
    # (6), the flow-bound LP (7), and the LP with the seeded columns and its prune's
    # re-solve (7); the final ILP proves 6 optimal
    lps = _counted(monkeypatch, Model, "solve_lp")
    ilp_calls = _counted(monkeypatch, RestrictedMaster, "solve_final_ilp")
    config = SolveConfig(final_ilp_relative_gap=0.0, backend=backend)
    report, plan = solve(make_random_tiny_instance(9), config)
    assert report.certified and report.outer_iterations == 0 and len(lps) == 4
    assert report.lp_value_trace == pytest.approx([6.0, 7.0])
    assert [v for check in report.prune_checks for v in check] == pytest.approx([6, 6, 7, 7])
    assert report.z_lp_star_slots == pytest.approx(7.0) and report.z_ub_slots == 7.0
    assert len(ilp_calls) == 1 and report.final_ilp_gap == 0.0
    assert report.z_ilp_slots == plan.throughput_slots == 6


_NUMPY_CHECK = """
import contextlib, io, json, sys
import eonrsa, eonrsa.cli
from eonrsa import Instance, Request, SolveConfig, Topology, load_instance, solve

def loaded():  # the lazy module object may sit under "numpy"; a loaded numpy has submodules
    return sorted(m for m in sys.modules if m.startswith("numpy."))

print(json.dumps(["import", loaded()]))
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    eonrsa.cli.main(["--help"])
print(json.dumps(["help", loaded()]))
tri = Topology("tri", ("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))
requests = (Request(0, "a", "b", 2), Request(1, "b", "c", 1), Request(2, "a", "c", 3))
for backend in ("bundled", "highs"):
    triangle = Instance(topology=tri, spectrum_slots=4, requests=requests, name="tri")
    report, plan = solve(triangle, SolveConfig(backend=backend))
    print(json.dumps([backend, report.z_lp_star_slots, plan.throughput_slots, loaded()]))
tiny = load_instance(sys.stdin.read())
for backend in ("bundled", "highs"):
    report, plan = solve(tiny, SolveConfig(backend=backend))
    starts = {k: lp.start_slot for k, lp in plan.assignments.items()}
    print(json.dumps([backend, report.z_lp_star_slots, plan.throughput_slots, starts, bool(loaded())]))
"""


def test_numpy_loads_only_when_a_run_solves_an_lp():
    # a fresh interpreter: importing eonrsa, --help and a triangle solve whose start plan
    # grants all its demand load no numpy module; tiny 9's short start plan solves LPs, which
    # load it, with the same bound and plan as here
    tiny = make_random_tiny_instance(9)
    package_root = str(FsPath(eonrsa.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_CHECK],
        input=save_instance(tiny).decode(),
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root, "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert lines[:4] == [
        ["import", []], ["help", []], ["bundled", 6.0, 6, []], ["highs", 6.0, 6, []]
    ]
    expected = []
    for backend in ("bundled", "highs"):
        report, plan = solve(tiny, SolveConfig(backend=backend))
        starts = {str(k): lp.start_slot for k, lp in plan.assignments.items()}
        expected.append([backend, report.z_lp_star_slots, plan.throughput_slots, starts, True])
    assert lines[4:] == expected
    assert [line[1:3] for line in expected] == [[7.0, 6], [7.0, 6]]


def _counted(patch, owner, name) -> list:
    """Patch `owner.name` to record the arguments of each call, and return the record."""
    calls, original = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    patch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_final_ilp_runs_only_below_the_bound(monkeypatch, backend):
    # a start plan of `most` slots, the floor of the bound, is optimal: no final ILP runs,
    # and the plan is returned after one scan
    ilp_calls = _counted(monkeypatch, RestrictedMaster, "solve_final_ilp")
    scans = _counted(monkeypatch, solver_module, "verify_plan")
    tiny = SolveConfig(final_ilp_relative_gap=0.0, backend=backend)
    spain = generate_icton_style(builtin_topology("spain21"), num_pairs=35, seed=1, spectrum_slots=50)
    cases = [(make_random_tiny_instance(i), tiny) for i in range(40)]
    calls = {}
    for inst, config in cases + [(spain, SolveConfig(backend=backend))]:
        ilp_calls.clear()
        scans.clear()
        report, plan = solve(inst, config)
        calls[inst.name] = len(ilp_calls)
        bound = report.z_lp_star_slots if report.certified else report.z_ub_slots
        most = math.floor(bound + 1e-6 * (1.0 + bound))
        assert len(ilp_calls) <= 1, inst.name
        if not ilp_calls:
            assert plan.throughput_slots == report.z_ilp_slots == most, inst.name
            assert report.final_ilp_gap == 0.0 and report.timings["ilp_phase"] == 0.0
            assert [args[1] for args in scans] == [plan], inst.name
            verify_plan(inst, plan, expected_slots=most)
    assert calls[spain.name] == 0 and calls["tiny9"] == 1  # plans of 176 of 176 and 6 of 7


def _recorded_passes(patch, rmp):
    """Patch the solver's first_fit to collect each pass's plan, as `rmp` post-processes it."""
    plans, original = [], solver_module.first_fit

    def recording(instance, order):
        columns = original(instance, order)
        plans.append(rmp.post_process(columns))
        return columns

    patch.setattr(solver_module, "first_fit", recording)
    return plans


def test_plan_is_never_below_the_first_fit_plan():
    # the final ILP over the certified columns stops within its gap below the best pass
    inst = generate_icton_style(builtin_topology("spain21"), num_pairs=35, seed=1, spectrum_slots=20)
    rmp = RestrictedMaster(inst)
    requests = rmp.pricing_requests.values()
    assert rmp.post_process(first_fit(inst, widest_first(requests))).throughput_slots == 130
    floor = rmp.post_process(first_fit(inst, widest_first(requests, keys_descending=True)))
    assert floor.throughput_slots == 132
    ilp_values = []
    original = RestrictedMaster.solve_final_ilp

    def recording(master, *args, **kwargs):
        result = original(master, *args, **kwargs)
        ilp_values.append(result[0])
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RestrictedMaster, "solve_final_ilp", recording)
        passes = _recorded_passes(patch, rmp)
        report, plan = solve(inst, SolveConfig(backend="highs"))
    assert report.certified and report.z_lp_star_slots == pytest.approx(162.0)
    assert [p.throughput_slots for p in passes[:2]] == [130, 132]
    best = max(p.throughput_slots for p in passes)
    assert best > 132
    assert report.z_ilp_slots == plan.throughput_slots == max(round(ilp_values[0]), best)
    verify_plan(inst, plan, expected_slots=report.z_ilp_slots)


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_final_ilp_without_an_incumbent_returns_the_first_fit_plan(monkeypatch, backend):
    inst = make_random_tiny_instance(9)
    rmp = RestrictedMaster(inst)
    expected = rmp.post_process(first_fit(inst, widest_first(rmp.pricing_requests.values())))
    assert expected.throughput_slots > 0
    timed_out = MipSolution(SolveStatus.TIME_LIMIT, math.nan, {}, math.inf)
    monkeypatch.setattr(RestrictedMaster, "solve_final_ilp", lambda *args, **kw: (0.0, [], timed_out))
    report, plan = solve(inst, SolveConfig(final_ilp_relative_gap=0.0, backend=backend))
    assert plan == expected and report.z_ilp_slots == expected.throughput_slots
    assert report.final_ilp_gap == 1.0
    verify_plan(inst, plan, expected_slots=report.z_ilp_slots)


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_plan_is_floored_by_both_first_fit_orders(monkeypatch, backend):
    # and by every other first-fit pass, each of which is a valid plan
    config = SolveConfig(backend=backend)
    no_incumbent = MipSolution(SolveStatus.TIME_LIMIT, math.nan, {}, math.inf)
    for seed in range(40):
        inst = make_random_tiny_instance(seed)
        rmp = RestrictedMaster(inst)
        floors = [
            rmp.post_process(first_fit(inst, widest_first(rmp.pricing_requests.values(), k)))
            for k in (False, True)
        ]
        for no_ilp in (False, True):
            with monkeypatch.context() as patch:
                if no_ilp:
                    patch.setattr(
                        RestrictedMaster, "solve_final_ilp", lambda *a, **kw: (0.0, [], no_incumbent)
                    )
                passes = _recorded_passes(patch, rmp)
                _, plan = solve(inst, config)
            for floor in passes:
                verify_plan(inst, floor)
            best = max(f.throughput_slots for f in passes)
            assert best >= max(f.throughput_slots for f in floors), inst.name
            assert plan.throughput_slots >= best, inst.name
            if no_ilp:
                assert plan.throughput_slots == best, inst.name
            verify_plan(inst, plan, expected_slots=plan.throughput_slots)


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_start_passes_stop_when_the_tie_orders_run_out(monkeypatch, two_node, backend):
    # one link of 4 slots: no plan meets the fitting demand, so the passes before the
    # first LP stop only when each order of equal widths has been tried, once
    for demands, orders in (((3, 2), 1), ((2, 1, 2), 2), ((2, 2, 2), 6), ((1,) * 5, 20)):
        requests = tuple(Request(i, "a", "b", d) for i, d in enumerate(demands))
        inst = Instance(topology=two_node, spectrum_slots=4, requests=requests)
        started = []
        solve_lp = RestrictedMaster.solve_lp_and_prune

        def first_lp(master):
            started.append(len(passes))
            return solve_lp(master)

        with monkeypatch.context() as patch:
            passes = _recorded_passes(patch, RestrictedMaster(inst))
            patch.setattr(RestrictedMaster, "solve_lp_and_prune", first_lp)
            report, plan = solve(inst, SolveConfig(final_ilp_relative_gap=0.0, backend=backend))
        assert started[0] == orders, demands  # 5! orders are cut at FIRST_FIT_PASSES
        assert plan.throughput_slots == oracle_solve(inst).value_slots and report.certified


def _widest_first_orders(inst: Instance) -> list[list[PricingRequest]]:
    """Every order of the instance's requests that takes the wider first."""
    requests = [PricingRequest.from_request(r) for r in inst.requests]
    orders = [list(order) for order in itertools.permutations(requests)]
    return [order for order in orders if order == sorted(order, key=lambda p: -p.width)]


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_seeded_columns_certify_where_widest_first_runs_out(monkeypatch, backend):
    # tiny-oracle base 33 has 3! 2! = 12 widest-first orders, each giving 6 slots; the
    # seeded single-lightpath columns lift the LP to its optimum of 9, which meets the flow
    # bound, and the final ILP finds a plan of 9
    inst = _tiny_oracle_base(33)
    rmp = RestrictedMaster(inst)
    orders = _widest_first_orders(inst)
    assert len(orders) == 12
    assert {rmp.post_process(first_fit(inst, order)).throughput_slots for order in orders} == {6}
    config = SolveConfig(final_ilp_relative_gap=0.0, backend=backend)
    # tiny 45: 3 slots from the widest-first orders, its optimum of 4 from the final ILP
    for inst, trace, optimum in ((inst, [6.0, 9.0], 9), (make_random_tiny_instance(45), [3.0, 4.0], 4)):
        with monkeypatch.context() as patch:
            ilp_calls = _counted(patch, RestrictedMaster, "solve_final_ilp")
            seeds = _counted(patch, solver_module, "lightpath_columns")
            report, plan = solve(inst, config)
        assert report.certified and report.outer_iterations == 0, inst.name
        assert report.lp_value_trace == pytest.approx(trace), inst.name
        assert len(ilp_calls) == len(seeds) == 1, inst.name
        assert report.z_ilp_slots == plan.throughput_slots == optimum == oracle_solve(inst).value_slots


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_no_column_is_seeded_past_the_deadline(monkeypatch, backend):
    # the deadline passes in base 33's first LP, after its 12 widest-first passes
    inst = _tiny_oracle_base(33)
    clock, solve_lp = _Clock(), RestrictedMaster.solve_lp_and_prune

    def late_lp(master):
        clock.offset = 1e6
        return solve_lp(master)

    config = SolveConfig(final_ilp_relative_gap=0.0, max_wall_clock_seconds=1000.0, backend=backend)
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "time", clock)
        patch.setattr(RestrictedMaster, "solve_lp_and_prune", late_lp)
        passes = _recorded_passes(patch, RestrictedMaster(inst))
        seeds = _counted(patch, solver_module, "lightpath_columns")
        report, _ = solve(inst, config)
    assert len(passes) == 12 and report.timed_out and seeds == []
    assert [p.throughput_slots for p in passes] == [6] * 12


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_no_final_ilp_starts_past_the_deadline(monkeypatch, backend):
    # tiny 9's start plan of 6 falls short of its bound of 7; the deadline passes in its
    # first LP, so no final ILP runs and no gap is proved
    inst = make_random_tiny_instance(9)
    rmp = RestrictedMaster(inst)
    start = rmp.post_process(first_fit(inst, widest_first(rmp.pricing_requests.values())))
    clock, solve_lp = _Clock(), RestrictedMaster.solve_lp_and_prune

    def late_lp(master):
        clock.offset = 1e6
        return solve_lp(master)

    config = SolveConfig(final_ilp_relative_gap=0.0, max_wall_clock_seconds=1000.0, backend=backend)
    with monkeypatch.context() as patch:
        ilp_calls = _counted(patch, RestrictedMaster, "solve_final_ilp")
        patch.setattr(solver_module, "time", clock)
        patch.setattr(RestrictedMaster, "solve_lp_and_prune", late_lp)
        report, plan = solve(inst, config)
    assert report.timed_out and report.z_ub_slots == 7.0 and ilp_calls == []
    assert plan == start and report.z_ilp_slots == start.throughput_slots == 6
    assert report.final_ilp_gap == 1.0 and report.timings["ilp_phase"] == 0.0


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_reported_upper_bound_holds_also_after_a_time_out(backend):
    config = SolveConfig(final_ilp_relative_gap=0.0, backend=backend)
    timed = dataclasses.replace(config, max_wall_clock_seconds=1e-9)
    for seed in range(40):
        inst = make_random_tiny_instance(seed)
        exact = oracle_solve(inst).value_slots
        for cfg in (config, timed):
            report = solve(inst, cfg)[0]
            assert report.z_lp_star_slots <= report.z_ub_slots + 1e-6, inst.name
            assert exact <= report.z_ub_slots + 1e-6, inst.name


def test_uncertified_epsilon_is_measured_against_the_upper_bound():
    # timed out after one round, with one first-fit pass before the deadline: the plan is
    # that pass's 130, as is z_RMP; the deadline also cut the flow bound LP, so z_ub stays
    # at the demand sum of 176
    inst = generate_icton_style(builtin_topology("spain21"), num_pairs=35, seed=1, spectrum_slots=20)
    config = SolveConfig(backend="highs", max_wall_clock_seconds=1e-9)
    report, plan = solve(inst, config)
    assert report.timed_out and not report.certified
    assert report.z_lp_star_slots == pytest.approx(130.0) and report.z_ub_slots == pytest.approx(176.0)
    assert report.z_ilp_slots == plan.throughput_slots == 130
    assert report.epsilon_lp == pytest.approx(46.0 / 176.0)
    verify_plan(inst, plan, expected_slots=130)


def test_flow_bound_is_set_by_the_first_lp_that_falls_short():
    inst = generate_icton_style(builtin_topology("spain21"), num_pairs=35, seed=1, spectrum_slots=20)
    rmp = RestrictedMaster(inst, backend="highs")
    for column in first_fit(inst, widest_first(rmp.pricing_requests.values())):
        rmp.add_column(column)
    assert rmp.upper_bound > 162.0
    assert rmp.solve_lp_and_prune()[0] < 162.0
    assert rmp.upper_bound == pytest.approx(162.0)


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_first_lp_that_meets_the_demand_skips_the_flow_bound(monkeypatch, backend):
    inst = generate_icton_style(builtin_topology("spain21"), num_pairs=35, seed=1, spectrum_slots=50)
    calls = []
    original = RestrictedMaster._flow_bound

    def counting(master):
        calls.append(master)
        return original(master)

    monkeypatch.setattr(RestrictedMaster, "_flow_bound", counting)
    report, _ = solve(inst, SolveConfig(backend=backend))
    assert report.z_lp_star_slots == pytest.approx(176.0) == report.z_ub_slots
    assert calls == []


class _Clock:
    """Stands in for the solver's `time`: real monotonic time plus an offset."""

    def __init__(self):
        self.offset = 0.0

    def monotonic(self):
        return time.monotonic() + self.offset


def _solve_with_a_cut(monkeypatch, inst, backend, cut_round, cut_call, requests=None):
    """Solve under a 1000 s limit whose clock jumps past the deadline at price_slot
    call `cut_call` of priced round `cut_round` (0: never); the report, the plan and
    the price_slot calls of each priced round."""
    clock, calls, fresh = _Clock(), [], [True]
    solve_lp, price = RestrictedMaster.solve_lp_and_prune, solver_module.price_slot

    def counting_lp(master):
        fresh[0] = True  # the next price_slot call opens a round
        return solve_lp(master)

    def counting_price(*args, **kwargs):
        if fresh[0]:
            calls.append(0)
            fresh[0] = False
        calls[-1] += 1
        if (len(calls), calls[-1]) == (cut_round, cut_call):
            clock.offset = 1e6
        return price(*args, **kwargs)

    config = SolveConfig(final_ilp_relative_gap=0.0, max_wall_clock_seconds=1000.0, backend=backend)
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "time", clock)
        patch.setattr(RestrictedMaster, "solve_lp_and_prune", counting_lp)
        patch.setattr(solver_module, "price_slot", counting_price)
        report, plan = solve(inst, config, requests)
    assert len(calls) == report.outer_iterations
    return report, plan, calls


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_a_round_stops_at_the_deadline_between_slots(monkeypatch, triangle, backend):
    # the guard-band triangle prices 3 distinct slots in its first round; the clock passes
    # the deadline during the 2nd, so the round stops there and its columns are added
    inst, derived = _guard_band_triangle(triangle)
    unlimited, _, calls = _solve_with_a_cut(monkeypatch, inst, backend, 0, 0, derived)
    assert calls[0] == 3 and unlimited.certified and not unlimited.timed_out
    report, plan, calls = _solve_with_a_cut(monkeypatch, inst, backend, 1, 2, derived)
    assert calls == [2]
    assert report.timed_out and not report.certified
    # the first LP, the seeded one, and the one after the cut round
    assert report.columns_generated > 0 and len(report.lp_value_trace) == 3
    verify_plan(inst, plan, expected_slots=report.z_ilp_slots)


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_a_round_cut_before_any_improving_slot_is_not_certified(monkeypatch, backend):
    # under guard bands, which give no flow bound, tiny-68's first round finds nothing at
    # slot 1, whose LP bound is 0, and a column at a later slot; cut after slot 1, the
    # round must not certify
    inst = make_random_tiny_instance(68)
    derived = derived_pricing_requests(inst)
    _, _, calls = _solve_with_a_cut(monkeypatch, inst, backend, 0, 0, derived)
    assert calls[0] > 1
    report, plan, calls = _solve_with_a_cut(monkeypatch, inst, backend, 1, 1, derived)
    assert calls == [1] and report.outer_iterations == 1
    assert report.timed_out and not report.certified
    # the first LP and the seeded one; no column, so no further LP
    assert len(report.lp_value_trace) == 2
    verify_plan(inst, plan, expected_slots=report.z_ilp_slots)
