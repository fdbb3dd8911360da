from math import comb

import pytest

from eonrsa import (
    CapExceeded,
    Configuration,
    Instance,
    InvalidConfiguration,
    Path,
    PricingRequest,
    Request,
    RestrictedMaster,
    SolveConfig,
    Topology,
    derived_pricing_requests,
    oracle_solve,
    solve,
    validate_configuration,
    verify_plan,
)


def _derived(topology, demands):
    """The derived requests of atomics with `demands`, all on the pair (a, b)."""
    atoms = tuple(Request(i, "a", "b", d) for i, d in enumerate(demands))
    return derived_pricing_requests(Instance(topology=topology, spectrum_slots=8, requests=atoms))


def test_three_atomics_make_seven_derived(two_node):
    derived = _derived(two_node, [2, 3, 5])
    assert len(derived) == 7
    assert sorted(len(d.members) for d in derived) == [1, 1, 1, 2, 2, 2, 3]


def test_guard_saving_arithmetic(two_node):
    derived = _derived(two_node, [2, 3, 5])
    # an m-member composite shares one guard band, saving m-1 slots
    assert sorted(d.width for d in derived) == [2, 3, 4, 5, 6, 7, 8]


def test_singleton_is_the_atomic_itself(two_node):
    derived = _derived(two_node, [4])
    assert len(derived) == 1
    assert derived[0].members == (0,) and derived[0].width == 4


@pytest.mark.parametrize("n", range(1, 13))
def test_counts_follow_binomials(two_node, n):
    derived = _derived(two_node, [1 + i % 3 for i in range(n)])
    assert len(derived) == 2**n - 1
    by_size: dict[int, int] = {}
    for d in derived:
        by_size[len(d.members)] = by_size.get(len(d.members), 0) + 1
    for m in range(1, n + 1):
        assert by_size[m] == comb(n, m)


def test_members_are_distinct_subsets(two_node):
    derived = _derived(two_node, [1, 2, 3, 4])
    subsets = {tuple(sorted(d.members)) for d in derived}
    assert len(subsets) == len(derived) == 15


def test_pairs_sorted_and_keys_dense():
    topo = Topology(name="path3", nodes=("a", "b", "c"), links=(("a", "b"), ("b", "c")))
    atoms = (Request(0, "c", "b", 1), Request(1, "a", "b", 2), Request(2, "b", "c", 3))
    derived = derived_pricing_requests(Instance(topology=topo, spectrum_slots=8, requests=atoms))
    assert [(d.key, d.source, d.dest, d.width, d.members) for d in derived] == [
        (0, "a", "b", 2, (1,)),
        (1, "b", "c", 1, (0,)),
        (2, "b", "c", 3, (0, 2)),
        (3, "b", "c", 3, (2,)),
    ]


def test_cap_enforced(two_node):
    with pytest.raises(CapExceeded):
        _derived(two_node, [1] * 13)


@pytest.fixture
def one_pair_instance(two_node):
    return Instance(
        topology=two_node,
        spectrum_slots=4,
        requests=(Request(0, "a", "b", 2), Request(1, "a", "b", 3)),
        name="pair",
    )


def test_extended_rmp_prices_three_requests(one_pair_instance):
    rmp = RestrictedMaster(
        one_pair_instance, pricing_requests=derived_pricing_requests(one_pair_instance)
    )
    widths = sorted(p.width for p in rmp.pricing_requests.values())
    assert widths == [2, 3, 4]
    # grant rows stay per atomic
    assert rmp.model.arrays().n == 2


def test_singletons_only_reduces_to_base(one_pair_instance):
    base, _ = solve(one_pair_instance, SolveConfig(final_ilp_relative_gap=0.0))
    singles = [
        p
        for p in derived_pricing_requests(one_pair_instance)
        if len(p.members) == 1
    ]
    reduced, _ = solve(
        one_pair_instance, SolveConfig(final_ilp_relative_gap=0.0), pricing_requests=singles
    )
    assert reduced.z_lp_star_slots == pytest.approx(base.z_lp_star_slots)
    assert reduced.z_ilp_slots == pytest.approx(base.z_ilp_slots)


def test_composite_grants_both_where_base_grants_one(one_pair_instance):
    # spectrum 4 cannot host windows of 2 and 3 separately, but the composite
    # needs only 2+3-1 = 4 slots once the guard band is shared
    base, _ = solve(one_pair_instance, SolveConfig(final_ilp_relative_gap=0.0))
    assert base.z_ilp_slots == pytest.approx(3.0)
    derived = derived_pricing_requests(one_pair_instance)
    ext, plan = solve(one_pair_instance, SolveConfig(final_ilp_relative_gap=0.0), derived)
    assert ext.z_ilp_slots == pytest.approx(5.0)
    assert set(plan.assignments) == {0, 1}
    verify_plan(one_pair_instance, plan, expected_slots=5.0)
    # exhaustive check over the derived request set agrees
    exact = oracle_solve(one_pair_instance, pricing_requests=derived)
    assert exact.value_slots == 5
    if ext.certified:
        assert exact.value_slots <= ext.z_lp_star_slots + 1e-6


def test_configuration_rejects_overlapping_members(two_node):
    fused = PricingRequest(key=10, source="a", dest="b", width=2, members=(0, 1))
    single = PricingRequest(key=11, source="a", dest="b", width=1, members=(1,))
    link = Path(links=(0,), nodes=("a", "b"))
    # shared member 1 means an atomic would be provisioned twice
    config = Configuration(start_slot=1, routes=((fused, link), (single, link)))
    with pytest.raises(InvalidConfiguration):
        validate_configuration(config, 8)


def test_extended_solve_respects_cap(two_node):
    reqs = tuple(Request(i, "a", "b", 1) for i in range(13))
    inst = Instance(topology=two_node, spectrum_slots=8, requests=reqs)
    with pytest.raises(CapExceeded):
        solve(inst, SolveConfig(final_ilp_relative_gap=0.0), derived_pricing_requests(inst))
