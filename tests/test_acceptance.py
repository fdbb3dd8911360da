"""End-to-end acceptance gate.

Each test covers one release criterion at its stated tolerance and prints a
single PASS line with the measured evidence (run with `pytest -s` to see the
lines as they happen). The random tiny-instance batch is shared between the
sandwich, scanner, monotonicity, and dual-noise criteria.
"""

import math
import time
from math import comb

import numpy as np
import pytest

from eonrsa import (
    Instance,
    MasterDuals,
    Request,
    SolveConfig,
    Topology,
    aggregate_per_node_pair,
    builtin_topology,
    derived_pricing_requests,
    generate_icton_style,
    oracle_max_reduced_cost,
    oracle_solve,
    price_slot,
    report_metrics,
    solve,
    verify_plan,
)
from conftest import (
    make_four_node_instance,
    make_random_tiny_instance,
    master_reduced_cost,
    recorded_master_duals,
    signature,
)

N_TINY = 200
N_SNAPSHOT_RUNS = N_TINY  # runs whose recorded master duals criterion 7 re-prices; a run
# whose start plan meets its bound solves no master LP and records none
TOL = 1e-6


@pytest.fixture(scope="module")
def tiny_batch():
    runs, snapshots = [], []
    config = SolveConfig(final_ilp_relative_gap=0.0)
    t0 = time.monotonic()
    for seed in range(N_TINY):
        inst = make_random_tiny_instance(seed)
        with recorded_master_duals() as duals:
            report, plan = solve(inst, config)
        runs.append((inst, report, plan))
        snapshots.append(duals)
    elapsed = time.monotonic() - t0
    return runs, elapsed, snapshots


def test_criterion_1_metric_arithmetic_goldens():
    spain_row = report_metrics(50.2, 42.6, 50.2)
    assert spain_row.gos_percent == pytest.approx(84.9, abs=0.05)
    assert spain_row.epsilon_tab_percent == pytest.approx(17.8, abs=0.05)
    first_row = report_metrics(3.7, 3.6, 3.7)
    assert first_row.epsilon_tab_percent == pytest.approx(2.8, abs=0.05)
    t0 = time.perf_counter()
    for _ in range(1000):
        report_metrics(50.2, 42.6, 50.2)
    per_call = (time.perf_counter() - t0) / 1000.0
    assert per_call < 1e-3
    print(
        f"\nACCEPTANCE 1 (metric goldens): PASS — GoS {spain_row.gos_percent:.2f}%, "
        f"eps {spain_row.epsilon_tab_percent:.2f}% / {first_row.epsilon_tab_percent:.2f}%, "
        f"{per_call * 1e6:.1f} us/call"
    )


def test_criterion_2_oracle_sandwich(tiny_batch):
    runs, elapsed, _ = tiny_batch
    assert len(runs) >= 200
    eps_zero = 0
    t0 = time.monotonic()
    for inst, report, _plan in runs:
        # every run is certified and, at gap 0, its plan is the oracle's optimum
        exact = oracle_solve(inst).value_slots
        assert report.certified and report.z_ilp_slots == exact, inst.name
        assert exact <= report.z_lp_star_slots + TOL
        if abs(report.z_lp_star_slots - report.z_ilp_slots) <= TOL:
            eps_zero += 1
    total = elapsed + time.monotonic() - t0
    assert total < 300.0
    print(
        f"\nACCEPTANCE 2 (oracle sandwich): PASS — {len(runs)} instances, all certified "
        f"at the oracle's optimum, eps=0 {100.0 * eps_zero / len(runs):.1f}%, {total:.1f}s"
    )


def test_criterion_3_pricing_exactness_on_small_slices():
    import random

    t0 = time.monotonic()
    snapshots = 0
    checks = 0
    seed = 0
    while snapshots < 100:
        inst = make_four_node_instance(seed)
        rng = random.Random(10_000 + seed)
        seed += 1
        from eonrsa import MasterDuals

        duals = MasterDuals(
            mu_request={r.id: rng.choice([0.0, rng.uniform(0.0, 3.0)]) for r in inst.requests},
            mu_cell=np.array(
                [
                    [rng.choice([0.0, 0.0, rng.uniform(0.0, 1.5)]) for _ in range(inst.spectrum_slots)]
                    for _ in range(inst.topology.num_links)
                ]
            ),
        )
        snapshots += 1
        for s in range(1, inst.spectrum_slots + 1):
            res = price_slot(inst, s, duals)
            exact = oracle_max_reduced_cost(inst, s, duals)
            assert res.rc_ilp <= exact + TOL
            assert exact <= res.rc_lp_star + TOL
            checks += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 3 (pricing exactness): PASS — {snapshots} duals snapshots, "
        f"{checks} slot checks, {elapsed:.1f}s"
    )


def test_criterion_4_plan_feasibility_scanner(tiny_batch):
    runs, _, _ = tiny_batch
    for inst, report, plan in runs:
        verify_plan(inst, plan, expected_slots=report.z_ilp_slots)
        assert plan.throughput_slots == pytest.approx(report.z_ilp_slots, abs=TOL)
    print(f"\nACCEPTANCE 4 (plan scanner): PASS — {len(runs)} plans, zero conflicts")


def test_criterion_5_cg_monotonicity(tiny_batch):
    runs, _, _ = tiny_batch
    prune_pairs = 0
    for _inst, report, _plan in runs:
        trace = report.lp_value_trace
        assert all(trace[i] <= trace[i + 1] + TOL for i in range(len(trace) - 1))
        for before, after in report.prune_checks:
            assert abs(before - after) <= 1e-6 * (1.0 + abs(before))
            prune_pairs += 1
    print(
        f"\nACCEPTANCE 5 (CG monotonicity): PASS — {len(runs)} runs, "
        f"{prune_pairs} prune invariance checks"
    )


def test_criterion_6_derived_request_counts():
    pair = Topology(name="pair", nodes=("a", "b"), links=(("a", "b"),))
    t0 = time.perf_counter()
    for n in range(1, 13):
        atoms = tuple(Request(i, "a", "b", 1 + i % 3) for i in range(n))
        derived = derived_pricing_requests(Instance(topology=pair, spectrum_slots=8, requests=atoms))
        assert len(derived) == 2**n - 1
        by_size: dict[int, int] = {}
        for d in derived:
            by_size[len(d.members)] = by_size.get(len(d.members), 0) + 1
        for m in range(1, n + 1):
            assert by_size[m] == comb(n, m)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 6 (derived counts): PASS — n=1..12, {elapsed * 1000:.0f} ms")


def _priced_configurations(inst, duals):
    out = {}
    for s in range(1, inst.spectrum_slots + 1):
        res = price_slot(inst, s, duals)
        if res.configuration is not None:
            out[s] = res.configuration
    return out


def _shifted(duals, delta):
    """A copy of `duals` with every value moved by `delta`, the shape of additive solver noise."""
    return MasterDuals(
        mu_request={k: v + delta for k, v in duals.mu_request.items()},
        mu_cell=duals.mu_cell + delta,
    )


def test_criterion_7_dual_clamp_robustness(tiny_batch):
    runs, _, recorded = tiny_batch
    snapshots = 0
    tie_flips = 0
    for (inst, _report, _plan), run_duals in zip(runs[:N_SNAPSHOT_RUNS], recorded):
        for duals in run_duals:
            snapshots += 1
            reference = _priced_configurations(inst, duals)
            ref_sigs = {s: signature(c) for s, c in reference.items()}

            # pure engine-noise shape: negatives appear only where the true
            # dual is zero; the clamp must neutralize them exactly
            zeroed = MasterDuals(
                mu_request={
                    k: (v if v != 0.0 else -1e-9) for k, v in duals.mu_request.items()
                },
                mu_cell=np.where(duals.mu_cell == 0.0, -1e-9, duals.mu_cell),
            )
            noisy_zero = _priced_configurations(inst, zeroed)
            assert {s: signature(c) for s, c in noisy_zero.items()} == ref_sigs

            # uniform additive -1e-9 on every dual: a change is only legal
            # between configurations that were reduced-cost-tied before the
            # shift (the shift strictly orders formerly-equal optima)
            shifted = _priced_configurations(inst, _shifted(duals, -1e-9))
            assert set(shifted) == set(reference)
            for s, noisy_config in shifted.items():
                if signature(noisy_config) == ref_sigs[s]:
                    continue
                tie_flips += 1
                clean_rc = master_reduced_cost(reference[s], duals)
                flip_rc = master_reduced_cost(noisy_config, duals)
                assert abs(clean_rc - flip_rc) <= 1e-7, (
                    f"non-tie configuration change under noise: {clean_rc} vs {flip_rc}"
                )
    assert snapshots >= 40
    print(
        f"\nACCEPTANCE 7 (dual-clamp robustness): PASS — {snapshots} snapshots; "
        f"zero-noise-shape injection changed nothing; additive injection produced "
        f"{tie_flips} equal-value tie swap(s) and no value-changing flip"
    )


def test_criterion_8_desk_scale_smoke():
    topo = builtin_topology("spain21")
    inst = generate_icton_style(topo, num_pairs=35, seed=1, spectrum_slots=50)
    aggregated, _ = aggregate_per_node_pair(inst.requests)
    assert len(aggregated) == 35
    assert inst.spectrum_slots == 50

    t0 = time.monotonic()
    rep_fast, plan_fast = solve(inst, SolveConfig(backend="highs"))
    highs_seconds = time.monotonic() - t0
    assert rep_fast.certified
    assert highs_seconds <= 10.0
    verify_plan(inst, plan_fast, expected_slots=rep_fast.z_ilp_slots)

    t0 = time.monotonic()
    rep_bundled, plan_bundled = solve(inst, SolveConfig(backend="bundled"))
    bundled_seconds = time.monotonic() - t0
    assert rep_bundled.certified
    assert bundled_seconds <= 120.0
    verify_plan(inst, plan_bundled, expected_slots=rep_bundled.z_ilp_slots)

    assert rep_bundled.z_lp_star_slots == pytest.approx(rep_fast.z_lp_star_slots, abs=1e-4)
    print(
        f"\nACCEPTANCE 8 (desk-scale smoke): PASS — spain21 |D|=35 |S|=50: "
        f"bundled {bundled_seconds:.1f}s (<=120), external {highs_seconds:.1f}s (<=10), "
        f"both certified, z_lp {rep_bundled.z_lp_star_tbps:.2f} Tbps, "
        f"GoS {rep_bundled.gos_percent:.1f}%"
    )
