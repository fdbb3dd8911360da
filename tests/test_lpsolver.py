import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eonrsa import Model, SolveStatus, UnknownId
from eonrsa.bundled import _cold_state, _Factor, _SimplexRun
from conftest import model_column, reduced_costs

BACKENDS = ("bundled", "highs")


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_variable_lp(backend):
    m = Model([1.0], backend)
    x = m.add_variable(obj=1.0, lo=0.0, hi=10.0, coeffs={0: 1.0})
    sol = m.solve_lp()
    assert sol.status is SolveStatus.OPTIMAL
    assert abs(sol.objective - 1.0) < 1e-6
    assert abs(sol.values[x] - 1.0) < 1e-6
    assert isinstance(sol.duals, np.ndarray) and sol.duals.shape == (1,)
    assert abs(sol.duals[0] - 1.0) < 1e-6


@pytest.mark.parametrize("backend", BACKENDS)
def test_analytic_vertex(backend):
    m = Model([1.0], backend)
    x = m.add_variable(obj=2.0, coeffs={0: 1.0})
    y = m.add_variable(obj=1.0, coeffs={0: 1.0})
    sol = m.solve_lp()
    assert abs(sol.objective - 2.0) < 1e-6
    assert abs(sol.values[x] - 1.0) < 1e-6 and abs(sol.values[y]) < 1e-6
    assert abs(sol.duals[0] - 2.0) < 1e-6


@pytest.mark.parametrize("backend", BACKENDS)
def test_infeasible_lp(backend):
    m = Model([1.0, -2.0], backend)
    m.add_variable(obj=1.0, lo=0.0, hi=10.0, coeffs={0: 1.0, 1: -1.0})
    assert m.solve_lp().status is SolveStatus.INFEASIBLE


def test_add_then_remove_is_identity():
    base = Model([1.0])
    base.add_variable(obj=1.0, lo=0.0, hi=1.0, coeffs={0: 1.0})
    edited = Model([1.0])
    edited.add_variable(obj=1.0, lo=0.0, hi=1.0, coeffs={0: 1.0})
    z = edited.add_variable(obj=3.0, hi=1.0, coeffs={0: 2.0})
    edited.remove_variables([z])
    a, b = edited.arrays(), base.arrays()
    assert a.var_ids == b.var_ids
    for name in ("data", "indices", "indptr", "b", "c", "lo", "hi"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_remove_unknown_id():
    m = Model([])
    with pytest.raises(UnknownId):
        m.remove_variables([17])


def test_column_into_missing_constraint():
    m = Model([1.0])
    with pytest.raises(UnknownId):
        m.add_variable(obj=1.0, coeffs={9: 1.0})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_right_hand_side_must_be_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        Model([1.0, bad])


@pytest.mark.parametrize("backend", BACKENDS)
def test_knapsack_mip(backend):
    m = Model([4.0], backend)
    a, b, c = (m.add_variable(obj=v, coeffs={0: 2.0}) for v in (3.0, 2.0, 2.0))
    sol = m.solve_mip(0.0, [a, b, c])
    assert sol.status is SolveStatus.OPTIMAL
    assert abs(sol.objective - 5.0) < 1e-6
    assert sol.values[a] > 0.5  # a plus one of b/c

    relaxed = m.solve_mip(0.5, [a, b, c])
    assert relaxed.objective >= 2.5 - 1e-9
    assert relaxed.gap <= 0.5 + 1e-9


@pytest.mark.parametrize("backend", BACKENDS)
def test_two_binary_cover(backend):
    m = Model([1.0], backend)
    ids = [m.add_variable(obj=1.0, coeffs={0: 1.0}) for _ in range(2)]
    sol = m.solve_mip(0.0, ids)
    assert abs(sol.objective - 1.0) < 1e-6


@pytest.mark.parametrize("backend", BACKENDS)
def test_listed_binary_ends_integral_and_at_most_one(backend):
    m = Model([2.5], backend)
    x = m.add_variable(obj=1.0, hi=math.inf, coeffs={0: 1.0})
    assert m.solve_lp().values[x] == pytest.approx(2.5)
    mip = m.solve_mip(0.0, [x])
    assert mip.status is SolveStatus.OPTIMAL
    assert mip.values[x] == pytest.approx(1.0, abs=1e-9) and mip.objective == pytest.approx(1.0)
    assert (m.arrays().lo[0], m.arrays().hi[0]) == (0.0, 1.0)  # the bounds stay cut


@pytest.mark.parametrize("backend", BACKENDS)
def test_unlisted_variable_keeps_a_fractional_optimum(backend):
    m = Model([1.5], backend)
    x = m.add_variable(obj=2.0, hi=1.0, coeffs={0: 1.0})
    y = m.add_variable(obj=1.0, hi=1.0, coeffs={0: 1.0})
    mip = m.solve_mip(0.0, [x])
    assert mip.status is SolveStatus.OPTIMAL
    assert mip.values[x] == pytest.approx(1.0, abs=1e-9)
    assert mip.values[y] == pytest.approx(0.5, abs=1e-9)
    assert mip.objective == pytest.approx(2.5)


@pytest.mark.parametrize("backend", BACKENDS)
def test_mip_without_binaries_is_its_lp(backend):
    m = Model([1.5], backend)
    x = m.add_variable(obj=2.0, hi=1.0, coeffs={0: 1.0})
    y = m.add_variable(obj=1.0, hi=1.0, coeffs={0: 1.0})
    mip = m.solve_mip(0.0, [])
    assert mip.status is SolveStatus.OPTIMAL and mip.gap == 0.0
    assert mip.objective == pytest.approx(2.5)
    assert mip.values[x] == pytest.approx(1.0) and mip.values[y] == pytest.approx(0.5)


@pytest.mark.parametrize("backend", BACKENDS)
def test_unbounded_mip_is_reported_unbounded(backend):
    # max x + y with x binary under x <= 1 and y >= 0 unbounded above
    m = Model([1.0], backend)
    x = m.add_variable(obj=1.0, coeffs={0: 1.0})
    m.add_variable(obj=1.0)
    assert m.solve_mip(0.0, [x]).status is SolveStatus.UNBOUNDED


@pytest.mark.parametrize("backend", BACKENDS)
def test_mip_without_integral_point_is_infeasible(backend):
    # max x + y with x binary held at 0.5, and y >= 0 unbounded above: the LP
    # relaxation is unbounded, but no integral point exists
    m = Model([0.5, -0.5], backend)
    x = m.add_variable(obj=1.0, coeffs={0: 1.0, 1: -1.0})
    m.add_variable(obj=1.0)
    assert m.solve_mip(0.0, [x]).status is SolveStatus.INFEASIBLE


def test_mip_over_an_unknown_variable():
    m = Model([1.0])
    m.add_variable(obj=1.0, coeffs={0: 1.0})
    with pytest.raises(UnknownId):
        m.solve_mip(0.0, [7])


def test_mip_gap_reporting():
    m = Model([7.0])
    ids = [m.add_variable(obj=v, coeffs={0: 3.0}) for v in (5.0, 4.0, 3.0)]
    sol = m.solve_mip(0.1, ids)
    assert sol.gap <= 0.1 + 1e-9
    assert sol.objective >= (1.0 - 0.1) * 9.0 - 1e-6


def _random_lp(seed):
    rng = random.Random(seed)
    n, mrows = rng.randint(1, 7), rng.randint(1, 7)
    A = [[round(rng.gauss(0, 2), 2) for _ in range(n)] for _ in range(mrows)]
    b = [round(rng.uniform(-1, 4), 2) for _ in range(mrows)]
    c = [round(rng.gauss(0, 2), 2) for _ in range(n)]
    lo = [rng.choice([0.0, 0.0, round(rng.uniform(0.0, 0.5), 2)]) for _ in range(n)]
    hi = [rng.choice([math.inf, round(rng.uniform(0.6, 5), 2)]) for _ in range(n)]
    return A, b, c, lo, hi


def _random_lp_model(seed, backend="bundled"):
    """The model of `_random_lp(seed)`, its column j holding {i: A[i][j]}; also its data."""
    A, b, c, lo, hi = _random_lp(seed)
    m = Model(b, backend)
    for j in range(len(c)):
        m.add_variable(obj=c[j], lo=lo[j], hi=hi[j], coeffs={i: A[i][j] for i in range(len(b))})
    return m, (A, b, c, lo, hi)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_weak_duality_on_random_lps(seed):
    m, (A, b, c, lo, hi) = _random_lp_model(seed)
    vids = m.arrays().var_ids
    sol = m.solve_lp()
    if sol.status is not SolveStatus.OPTIMAL:
        return
    # dual objective: y b + bound multipliers max(d,0)*hi + min(d,0)*lo
    dual = sum(sol.duals[i] * b[i] for i in range(len(b)))
    rc = reduced_costs(m, sol)
    for j, v in enumerate(vids):
        d = rc[v]
        if math.isfinite(hi[j]):
            dual += max(d, 0.0) * hi[j]
        dual += min(d, 0.0) * lo[j]
    assert abs(sol.objective - dual) <= 1e-6 * (1.0 + abs(sol.objective))
    # primal feasibility within tolerance
    for i in range(len(b)):
        lhs = sum(A[i][j] * sol.values[vids[j]] for j in range(len(c)))
        assert lhs <= b[i] + 1e-6
    for j, v in enumerate(vids):
        assert lo[j] - 1e-6 <= sol.values[v] <= hi[j] + 1e-6


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
@example(seed=194541)  # feasible and unbounded; HiGHS presolve said infeasible
@example(seed=998500)  # feasible and unbounded; HiGHS presolve gave no verdict
def test_bundled_matches_highs_on_random_lps(seed):
    objectives = {}
    for backend in BACKENDS:
        sol = _random_lp_model(seed, backend)[0].solve_lp()
        objectives[backend] = (sol.status, sol.objective)
    sa, va = objectives["bundled"]
    sb, vb = objectives["highs"]
    assert sa == sb
    if sa is SolveStatus.OPTIMAL:
        assert abs(va - vb) <= 1e-6 * (1.0 + abs(vb))


def test_highs_writes_nothing_to_the_process_output(capfd):
    # on this LP HiGHS presolve writes a return-status line to fd 1 from native code
    m, _ = _random_lp_model(998500, "highs")
    assert m.solve_lp().status is SolveStatus.UNBOUNDED
    assert capfd.readouterr() == ("", "")


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_mip_matches_enumeration_up_to_15_binaries(seed):
    rng = random.Random(seed)
    n, mrows = rng.randint(1, 15), rng.randint(1, 5)
    A = [[round(rng.gauss(0, 1.5), 1) for _ in range(n)] for _ in range(mrows)]
    b = [round(rng.uniform(-0.5, 4), 1) for _ in range(mrows)]
    c = [round(rng.gauss(0, 3), 1) for _ in range(n)]
    m = Model(b)
    ids = [m.add_variable(obj=c[j], coeffs={i: A[i][j] for i in range(mrows)}) for j in range(n)]
    sol = m.solve_mip(0.0, ids)
    best = -math.inf
    for bits in itertools.product((0, 1), repeat=n):
        if all(sum(A[i][j] * bits[j] for j in range(n)) <= b[i] + 1e-9 for i in range(mrows)):
            best = max(best, sum(c[j] * bits[j] for j in range(n)))
    if best == -math.inf:
        assert sol.status is SolveStatus.INFEASIBLE
    else:
        assert sol.status is SolveStatus.OPTIMAL
        assert abs(sol.objective - best) < 1e-6


def test_numerical_failure_is_retried_by_blands_rule(monkeypatch):
    """A first attempt that fails numerically is run again, cold and by Bland's rule."""
    models = {backend: Model([4.0, 6.0], backend) for backend in BACKENDS}
    for m in models.values():
        m.add_variable(obj=3.0, coeffs={0: 1.0, 1: 1.0})
    models["bundled"].solve_lp()
    assert models["bundled"]._warm is not None  # the first attempt starts warm
    for m in models.values():
        m.add_variable(obj=2.0, coeffs={0: 1.0, 1: 2.0})
    attempts = []
    run = _SimplexRun.run

    def fails_unless_bland(self, *args):
        attempts.append(self.bland)
        if not self.bland:
            return SolveStatus.NUMERICAL_FAILURE, None, None, None, None
        return run(self, *args)

    monkeypatch.setattr(_SimplexRun, "run", fails_unless_bland)
    sol = models["bundled"].solve_lp()
    assert attempts == [False, True]
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(models["highs"].solve_lp().objective, abs=1e-9)


def test_warm_start_toggle_stays_correct():
    """Each warm solve agrees with a cold solve of a freshly built copy of the model."""
    m = Model([1.0] * 4)
    columns = []
    rng = random.Random(11)
    prev = 0.0
    for _ in range(25):
        picked = rng.sample(range(4), rng.randint(1, 3))
        columns.append((rng.uniform(0.1, 2.0), {row: 1.0 for row in picked}))
        m.add_variable(obj=columns[-1][0], coeffs=columns[-1][1])
        warm = m.solve_lp()
        fresh = Model([1.0] * 4)
        for obj, coeffs in columns:
            fresh.add_variable(obj=obj, coeffs=coeffs)
        cold = fresh.solve_lp()
        assert abs(warm.objective - cold.objective) < 1e-7
        assert warm.objective >= prev - 1e-9
        prev = warm.objective


def test_duals_reported_unclamped_semantics():
    # nonbinding row must carry a zero dual
    m = Model([0.5, 100.0])
    m.add_variable(obj=1.0, lo=0.0, hi=1.0, coeffs={0: 1.0, 1: 1.0})
    sol = m.solve_lp()
    assert abs(sol.duals[0] - 1.0) < 1e-6  # tight
    assert abs(sol.duals[1]) < 1e-9  # loose


def test_backends_agree_on_reduced_cost_signs():
    results = {}
    for backend in BACKENDS:
        m = Model([1.0], backend)
        x, y, z = (m.add_variable(obj=v, lo=0.0, hi=1.0, coeffs={0: 1.0}) for v in (2.0, 1.0, 0.5))
        sol = m.solve_lp()
        rc = reduced_costs(m, sol)
        results[backend] = (rc[x], rc[y], rc[z])
    for a, b in zip(results["bundled"], results["highs"]):
        assert a == pytest.approx(b, abs=1e-7)
    # nonbasic-at-lower columns in a maximization have nonpositive reduced cost
    assert results["bundled"][1] <= 1e-9 and results["bundled"][2] <= 1e-9


def test_empty_model_solves_to_zero():
    m = Model([])
    sol = m.solve_lp()
    assert sol.status is SolveStatus.OPTIMAL and sol.objective == 0.0


def test_mip_deadline_returns_quickly():
    import time

    rng = random.Random(5)
    n = 26
    objs = [rng.uniform(0.9, 1.1) for _ in range(n)]
    rows = [rng.sample(range(n), 7) for _ in range(12)]
    m = Model([3.0] * len(rows))
    ids = []
    for j in range(n):
        coeffs = {i: 1.0 for i, picked in enumerate(rows) if j in picked}
        ids.append(m.add_variable(obj=objs[j], coeffs=coeffs))
    t0 = time.monotonic()
    sol = m.solve_mip(0.0, ids, deadline=time.monotonic() + 0.2)
    assert time.monotonic() - t0 < 5.0
    assert sol.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE, SolveStatus.TIME_LIMIT)


@pytest.mark.parametrize("backend", BACKENDS)
def test_zero_optimum_is_reported_as_positive_zero(backend):
    m = Model([0.0], backend)
    x = m.add_variable(obj=3.0, lo=0.0, hi=1.0, coeffs={0: 1.0})
    lp = m.solve_lp()
    assert lp.status is SolveStatus.OPTIMAL
    assert lp.objective == 0.0 and math.copysign(1.0, lp.objective) == 1.0
    mip = m.solve_mip(0.0, [x])
    assert mip.status is SolveStatus.OPTIMAL
    assert mip.objective == 0.0 and math.copysign(1.0, mip.objective) == 1.0


def _assert_store_matches(model, rhs, cols):
    """The model's column store equals the plain dicts the test keeps beside it."""
    mat = model.arrays()
    assert mat.var_ids == sorted(cols)
    assert model.num_constraints == len(rhs)
    assert mat.b.tolist() == rhs
    assert mat.indptr[0] == 0 and mat.indptr[-1] == len(mat.data) == len(mat.indices)
    for j, vid in enumerate(mat.var_ids):
        col = cols[vid]
        s, e = mat.indptr[j], mat.indptr[j + 1]
        assert mat.indices[s:e].tolist() == sorted(col["coeffs"])
        assert mat.data[s:e].tolist() == [col["coeffs"][cid] for cid in sorted(col["coeffs"])]
        assert (mat.c[j], mat.lo[j], mat.hi[j]) == (col["obj"], col["lo"], col["hi"])
        assert model_column(model, vid) == (col["obj"], col["coeffs"])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_column_store_follows_random_edits(data):
    """Random edits keep the store equal to a dict model, and both engines agree on it."""
    rhs = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 5.0]), max_size=6), label="rhs")
    models = {backend: Model(rhs, backend) for backend in BACKENDS}
    cols: dict[int, dict] = {}
    coef = st.sampled_from([0.0, 1.0, -1.0, 2.5, -0.5])
    for _ in range(data.draw(st.integers(1, 14), label="edits")):
        op = data.draw(st.sampled_from(["variable", "remove", "mip"]))
        if op == "variable":
            rows = data.draw(st.lists(st.sampled_from(range(len(rhs))), unique=True)) if rhs else []
            coeffs = {cid: data.draw(coef) for cid in rows}
            obj = data.draw(st.sampled_from([0.0, 1.0, 2.0, -1.0]))
            hi = data.draw(st.sampled_from([1.0, 3.0, math.inf]))
            ids = {m.add_variable(obj=obj, hi=hi, coeffs=coeffs) for m in models.values()}
            (vid,) = ids
            cols[vid] = {
                "obj": obj,
                "lo": 0.0,
                "hi": hi,
                "coeffs": {cid: a for cid, a in coeffs.items() if a != 0.0},
            }
        elif op == "remove" and cols:
            gone = data.draw(st.lists(st.sampled_from(sorted(cols)), unique=True))
            for m in models.values():
                m.remove_variables(gone)
            for vid in gone:
                del cols[vid]
        elif op == "mip" and cols:
            binaries = data.draw(st.lists(st.sampled_from(sorted(cols)), unique=True))
            mips = {backend: m.solve_mip(0.0, binaries) for backend, m in models.items()}
            for vid in binaries:  # held in [0, 1] from this solve on
                col = cols[vid]
                col["lo"], col["hi"] = max(col["lo"], 0.0), min(col["hi"], 1.0)
            bundled, highs = mips["bundled"], mips["highs"]
            assert bundled.status in (SolveStatus.OPTIMAL, SolveStatus.UNBOUNDED)
            if not binaries:  # the MIP is its LP on both engines
                assert bundled.status is highs.status
                if bundled.status is SolveStatus.OPTIMAL:
                    assert bundled.gap == highs.gap == 0.0
            # x = 0 is feasible, so a MIP that is not solved is unbounded on both engines
            found = (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)
            solved = {backend: mip.status in found for backend, mip in mips.items()}
            assert solved["bundled"] is solved["highs"]
            if solved["bundled"]:
                assert bundled.objective == pytest.approx(highs.objective, abs=1e-6)
                for mip, vid in itertools.product(mips.values(), binaries):
                    assert min(abs(mip.values[vid]), abs(mip.values[vid] - 1.0)) <= 1e-6
            else:
                assert bundled.status is highs.status
        # x = 0 is always feasible (lo = 0, rhs >= 0): each LP is optimal or unbounded
        sols = {backend: m.solve_lp() for backend, m in models.items()}
        for m in models.values():
            _assert_store_matches(m, rhs, cols)
        bundled, highs = sols["bundled"], sols["highs"]
        assert bundled.status is highs.status
        if bundled.status is SolveStatus.OPTIMAL:
            assert bundled.objective == pytest.approx(highs.objective, abs=1e-6)


def test_import_loads_neither_scipy_sparse_nor_optimize():
    import subprocess
    import sys
    from pathlib import Path

    import eonrsa

    package_root = str(Path(eonrsa.__file__).resolve().parents[1])
    # after the import, a bundled solve of a fixed four-node ring loads no scipy module at all,
    # and HiGHS solves load neither scipy.sparse nor scipy.optimize; each engine module loads
    # at its backend's first LP, and the ring's start plan grants all its demand: no LP runs
    code = """
import sys, eonrsa
def engines():
    return [m for m in ('eonrsa.bundled', 'eonrsa.highs') if m in sys.modules]
print(sorted(m for m in ('scipy.sparse', 'scipy.optimize') if m in sys.modules), engines())
from eonrsa import Instance, Request, SolveConfig, Topology, solve
ring = Topology("ring4", ("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")))
requests = (Request(0, "a", "c", 2), Request(1, "b", "d", 1), Request(2, "a", "b", 3))
instance = Instance(topology=ring, spectrum_slots=4, requests=requests, name="ring4")
report, _ = solve(instance, SolveConfig(backend="bundled"))
print(report.certified, report.z_lp_star_slots, engines())
print(sorted(m for m in sys.modules if m.startswith("scipy")))
# a HiGHS LP and a HiGHS solve load HiGHS's compiled module alone
lp = eonrsa.Model([1.0], "highs")
lp.add_variable(obj=1.0, coeffs={0: 1.0})
report, _ = solve(instance, SolveConfig(backend="highs"))
print(lp.solve_lp().objective, report.certified, report.z_lp_star_slots, engines())
print(sorted(m for m in ('scipy', 'scipy.sparse', 'scipy.optimize') if m in sys.modules))
lp = eonrsa.Model([1.0], "bundled")
lp.add_variable(obj=1.0, coeffs={0: 1.0})
print(lp.solve_lp().objective, engines())
"""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root, "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[] []",
        "True 6.0 []",
        "[]",
        "1.0 True 6.0 ['eonrsa.highs']",
        "[]",
        "1.0 ['eonrsa.bundled', 'eonrsa.highs']",
    ]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_simplex_products_sum_rows_in_column_order(seed):
    """A x and A^T y equal plain loops over the columns, structural then slack, bit for bit."""
    rng = random.Random(seed)
    m = Model([rng.uniform(0, 5) for _ in range(rng.randint(1, 6))])
    rows = range(m.num_constraints)
    for _ in range(rng.randint(0, 8)):
        picked = rng.sample(rows, rng.randint(0, len(rows)))
        m.add_variable(obj=1.0, coeffs={cid: rng.uniform(-3, 3) for cid in picked})
    mat = m.arrays()
    sx = _SimplexRun(mat, mat.lo, mat.hi)
    x = [rng.uniform(-2, 2) for _ in range(sx.ncols)]
    y = [rng.uniform(-2, 2) for _ in range(sx.m)]
    columns = [model_column(m, vid)[1] for vid in mat.var_ids] + [{cid: 1.0} for cid in rows]
    ax = [0.0] * sx.m
    aty = [0.0] * sx.ncols
    for j, coeffs in enumerate(columns):
        for cid in sorted(coeffs):
            ax[cid] += coeffs[cid] * x[j]
            aty[j] += coeffs[cid] * y[cid]
    assert sx._ax(np.array(x)).tolist() == ax
    assert sx._aty(np.array(y)).tolist() == aty


def _dense_columns(sx, cols):
    """The columns `cols` of [A I -I_artificial], gathered into a dense matrix."""
    dense = np.zeros((sx.m, len(cols)))
    for r, j in enumerate(cols):
        s, e = sx.indptr[j], sx.indptr[j + 1]
        dense[sx.rows[s:e], r] = sx.data[s:e]
    return dense


def test_kernel_factor_solves_like_the_dense_basis():
    """FTRAN and BTRAN equal dense solves with B, through pivots of every kind and rebuilds."""
    exchanges, mixed = set(), 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        m_rows = int(rng.integers(1, 8))
        model = Model([1.0] * m_rows)
        rows = range(m_rows)
        for j in range(m_rows):  # diagonally dominant: columns 0..m-1 form a basis without slacks
            coeffs = {cid: rng.uniform(-0.5, 0.5) for cid in rows if rng.random() < 0.5}
            model.add_variable(coeffs={**coeffs, rows[j]: 4.0})
        for _ in range(4):
            model.add_variable(coeffs={cid: rng.uniform(-3, 3) for cid in rows if rng.random() < 0.6})
        mat = model.arrays()
        sx = _SimplexRun(mat, mat.lo, mat.hi)

        def check(factor, basis):
            dense = _dense_columns(sx, basis)
            a, cb = rng.uniform(-2, 2, sx.m), rng.uniform(-2, 2, sx.m)
            x, y = factor.ftran(sx, basis, a), factor.btran(sx, basis, cb)
            np.testing.assert_allclose(x, np.linalg.solve(dense, a), rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(y, np.linalg.solve(dense.T, cb), rtol=1e-10, atol=1e-10)

        no_slacks = np.arange(m_rows)
        check(_Factor(sx, no_slacks), no_slacks)
        basis, vstat, factor = _cold_state(sx)
        check(factor, basis)  # all slacks
        art_rows = np.flatnonzero(rng.random(m_rows) < 0.5)
        basis, vstat = sx.add_artificials(basis, vstat, art_rows)
        factor = _Factor(sx, basis)
        check(factor, basis)
        for _ in range(4 * m_rows):
            e = int(rng.integers(sx.ncols))
            if e in basis:
                continue
            w = factor.ftran(sx, basis, _dense_columns(sx, [e])[:, 0])
            # a large pivot keeps B well conditioned
            picks = np.flatnonzero(np.abs(w) >= max(0.5 * np.abs(w).max(), 0.1))
            if not len(picks):
                continue
            r = int(rng.choice(picks))
            kind = {True: "unit", False: "structural"}
            exchanges.add((kind[bool(basis[r] >= sx.n)], kind[e >= sx.n]))
            factor = factor.pivot(sx, basis, r, e, w)
            check(factor, basis)
            slack = (basis >= sx.n) & (basis < sx.n + sx.m)
            mixed += (basis < sx.n).any() and slack.any() and (basis >= sx.n + sx.m).any()
        check(_Factor(sx, basis), basis)
    assert exchanges == {(out, into) for out in ("unit", "structural") for into in ("unit", "structural")}
    assert mixed  # some bases held structurals, slacks and artificials at once


def _set_packing_mip(backend="bundled"):
    """A 26-column set packing whose branch and bound visits many nodes."""
    rng = random.Random(5)
    n = 26
    objs = [rng.uniform(0.9, 1.1) for _ in range(n)]
    rows = [rng.sample(range(n), 7) for _ in range(12)]
    m = Model([3.0] * len(rows), backend)
    ids = [
        m.add_variable(obj=objs[j], coeffs={i: 1.0 for i, picked in enumerate(rows) if j in picked})
        for j in range(n)
    ]
    return m, ids


@pytest.mark.parametrize("fail_at", ["after_an_incumbent", "first_node"])
def test_failed_node_lp_keeps_the_incumbent(monkeypatch, fail_at):
    import eonrsa.bundled as bundled

    original = bundled.solve_lp
    bounds, incumbents, failed = {}, [], []  # node LP values by branched ids; integral values

    def node_lp(model, overrides=None, deadline=None):
        if overrides and (fail_at == "first_node" or incumbents):
            failed.append(tuple(overrides))
            return bundled.LpSolution(SolveStatus.NUMERICAL_FAILURE, -math.inf)
        sol = original(model, overrides, deadline)
        bounds[tuple(overrides or {})] = sol.objective
        frac = [v for v in sol.values.values() if 1e-6 < v < 1.0 - 1e-6]
        if sol.status is SolveStatus.OPTIMAL and not frac and overrides:
            incumbents.append(sol.objective)
        return sol

    monkeypatch.setattr(bundled, "solve_lp", node_lp)
    m, ids = _set_packing_mip()
    sol = m.solve_mip(0.0, ids)
    if fail_at == "first_node":
        assert sol.status is SolveStatus.NUMERICAL_FAILURE and sol.values == {}
        return
    assert sol.status is SolveStatus.FEASIBLE
    assert sol.objective == pytest.approx(incumbents[0]) and len(sol.values) == len(ids)
    assert all(min(v, 1.0 - v) <= 1e-6 for v in sol.values.values())
    assert len(failed) == 1  # the search ended at the failed node
    parent_bound = bounds[failed[0][:-1]]  # its last branched id is its own
    assert parent_bound > sol.objective + 1e-9
    assert sol.gap >= (parent_bound - sol.objective) / parent_bound - 1e-12


@pytest.mark.parametrize("backend", BACKENDS)
def test_lp_stops_at_a_passed_deadline(backend):
    import time

    m, ids = _set_packing_mip(backend)
    assert m.solve_lp(deadline=time.monotonic() - 1.0).status is SolveStatus.TIME_LIMIT
    assert m.solve_lp(deadline=time.monotonic() + 60.0).status is SolveStatus.OPTIMAL
    if backend == "bundled":  # so does the branch and bound, with no incumbent
        mip = m.solve_mip(0.0, ids, deadline=time.monotonic() - 1.0)
        assert mip.status is SolveStatus.TIME_LIMIT and mip.values == {}


@pytest.mark.parametrize("backend", BACKENDS)
def test_mip_without_binaries_stops_at_a_passed_deadline(backend):
    import time

    m, _ = _set_packing_mip(backend)
    mip = m.solve_mip(0.0, [], deadline=time.monotonic() - 1.0)
    assert mip.status is SolveStatus.TIME_LIMIT and mip.values == {}
    assert m.solve_mip(0.0, [], deadline=time.monotonic() + 60.0).status is SolveStatus.OPTIMAL
