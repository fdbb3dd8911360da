"""The HiGHS engine, driven through scipy's compiled HiGHS module.

The reference below is scipy.optimize's linprog/milp path that the engine replaced,
imported only inside these tests: both must give bit-for-bit the same results.
"""

import math
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import eonrsa
from eonrsa import Model, SolveStatus
from eonrsa import highs
from eonrsa.lpsolver import LpSolution, MipSolution
from test_lpsolver import _random_lp_model

_SCIPY_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.NUMERICAL_FAILURE,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.NUMERICAL_FAILURE,
}


def _linprog_reference(model: Model) -> LpSolution:
    from scipy.optimize import linprog
    from scipy.sparse import csc_matrix

    mat = model.arrays()
    a = csc_matrix((mat.data, mat.indices, mat.indptr), shape=(mat.m, mat.n))
    problem = dict(A_ub=a, b_ub=mat.b, bounds=list(zip(mat.lo, mat.hi)), method="highs")
    res = linprog(-mat.c, **problem)
    if res.status in (2, 4):
        res = linprog(-mat.c, **problem, options={"presolve": False})
    status = _SCIPY_STATUS[res.status]
    if status is not SolveStatus.OPTIMAL:
        return LpSolution(status, -math.inf)
    return LpSolution(
        status,
        float(0.0 - res.fun),
        dict(zip(mat.var_ids, res.x.tolist())),
        -res.ineqlin.marginals,
    )


def _milp_reference(model: Model, binaries, relative_gap, deadline=None) -> MipSolution:
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csc_matrix

    mat = model.arrays()
    a = csc_matrix((mat.data, mat.indices, mat.indptr), shape=(mat.m, mat.n))
    options: dict = {"mip_rel_gap": relative_gap}
    if deadline is not None:
        options["time_limit"] = max(deadline - time.monotonic(), 0.0)
    problem = {
        "constraints": LinearConstraint(a, -np.inf, mat.b) if mat.m else None,
        "integrality": np.isin(mat.var_ids, binaries),
        "bounds": Bounds(mat.lo, mat.hi),
        "options": options,
    }
    res = milp(-mat.c, **problem)
    status = _SCIPY_STATUS[res.status]
    if res.status == 1:
        status = SolveStatus.TIME_LIMIT
    elif res.status == 4:
        feasible = milp(np.zeros(mat.n), **problem).status == 0
        status = SolveStatus.UNBOUNDED if feasible else SolveStatus.INFEASIBLE
    if res.x is None:
        return MipSolution(status, -math.inf, {}, math.inf)
    gap = float(res.mip_gap)
    if status is SolveStatus.OPTIMAL and gap > 1e-9:
        status = SolveStatus.FEASIBLE
    values = dict(zip(mat.var_ids, res.x.tolist()))
    return MipSolution(status, float(0.0 - res.fun), values, gap)


def _bits(values) -> bytes:
    return np.asarray(list(values), dtype=float).tobytes()


def _assert_same_lp(new: LpSolution, ref: LpSolution) -> None:
    assert new.status is ref.status
    assert _bits([new.objective]) == _bits([ref.objective])
    assert list(new.values) == list(ref.values)
    assert _bits(new.values.values()) == _bits(ref.values.values())
    assert _bits(new.duals) == _bits(ref.duals)


def _assert_same_mip(new: MipSolution, ref: MipSolution) -> None:
    assert new.status is ref.status
    assert _bits([new.objective, new.gap]) == _bits([ref.objective, ref.gap])
    assert list(new.values) == list(ref.values)
    assert _bits(new.values.values()) == _bits(ref.values.values())


def _random_mip_model(seed: int):
    """Binary and continuous columns, some unbounded above: every MIP status occurs."""
    rng = random.Random(seed)
    n, mrows = rng.randint(2, 12), rng.randint(0, 5)
    m = Model([round(rng.uniform(-0.5, 4), 1) for _ in range(mrows)], "highs")
    for _ in range(n):
        coeffs = {i: round(rng.gauss(0, 1.5), 1) for i in range(mrows) if rng.random() < 0.7}
        hi = rng.choice([1.0, 2.5, math.inf])
        m.add_variable(obj=round(rng.gauss(0, 3), 1), hi=hi, coeffs=coeffs)
    ids = m.arrays().var_ids
    return m, rng.sample(ids, rng.randint(1, n)), rng.choice([0.0, 0.0, 0.1])


def test_driver_equals_linprog_on_random_lps():
    statuses = set()
    for seed in range(60):
        m, _ = _random_lp_model(seed, "highs")
        new = m.solve_lp()
        _assert_same_lp(new, _linprog_reference(m))
        statuses.add(new.status)
    assert statuses == {SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED}


def test_driver_equals_milp_on_random_mips():
    statuses = set()
    for seed in range(60):
        m, binaries, gap = _random_mip_model(seed)
        new = m.solve_mip(gap, binaries)  # cuts the binaries' bounds to [0, 1] first
        _assert_same_mip(new, _milp_reference(m, binaries, gap))
        statuses.add(new.status)
    assert {SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED} <= statuses


def test_lp_reports_its_basis_and_the_next_lp_starts_from_it(monkeypatch):
    starts = []
    run = highs._highs_run

    def recorded(mat, options, deadline, integrality=None, warm=None):
        starts.append(warm)
        return run(mat, options, deadline, integrality, warm)

    monkeypatch.setattr(highs, "_highs_run", recorded)
    warm = 0
    for seed in range(60):
        m, _ = _random_lp_model(seed, "highs")
        first = m.solve_lp()
        if first.status is not SolveStatus.OPTIMAL:
            continue
        mat = m.arrays()
        assert len(first.basic_variables) <= mat.m
        for vid, lo, hi in zip(mat.var_ids, mat.lo, mat.hi):
            if vid not in first.basic_variables:  # a nonbasic column sits at a bound
                assert min(abs(first.values[vid] - lo), abs(first.values[vid] - hi)) <= 1e-9
        new = m.add_variable(obj=1.0, hi=2.0, coeffs={i: 1.0 for i in range(mat.m)})
        second = m.solve_lp()
        assert starts[-1] is not None and set(first.basic_variables) <= set(starts[-1].basis_keys)
        assert new not in starts[-1].basis_keys and new not in starts[-1].at_upper
        ref = _linprog_reference(m)
        assert second.status is ref.status
        if ref.status is SolveStatus.OPTIMAL:
            assert second.objective == pytest.approx(ref.objective, abs=1e-7)
            warm += 1
    assert warm > 10


def test_driver_equals_linprog_on_unbounded_and_infeasible_lps():
    unbounded = Model([1.0], "highs")
    unbounded.add_variable(obj=1.0, coeffs={0: -1.0})
    infeasible = Model([1.0, -2.0], "highs")
    infeasible.add_variable(obj=1.0, lo=0.0, hi=10.0, coeffs={0: 1.0, 1: -1.0})
    for m, status in ((unbounded, SolveStatus.UNBOUNDED), (infeasible, SolveStatus.INFEASIBLE)):
        new = m.solve_lp()
        assert new.status is status
        _assert_same_lp(new, _linprog_reference(m))


def test_lp_without_a_presolve_verdict_is_run_again_without_presolve(monkeypatch):
    runs = []
    run = highs._highs_run

    def recorded(mat, options, deadline, integrality=None, **kwargs):
        runs.append(options["presolve"])
        return run(mat, options, deadline, integrality, **kwargs)

    monkeypatch.setattr(highs, "_highs_run", recorded)
    m, _ = _random_lp_model(998500, "highs")
    new = m.solve_lp()
    assert runs == ["on", "off"] and new.status is SolveStatus.UNBOUNDED
    _assert_same_lp(new, _linprog_reference(m))


def test_driver_equals_milp_when_stopped_by_its_time_limit():
    # a market split problem (Cornuejols and Dawande): no integral point turns up in seconds
    rng = random.Random(0)
    a = [[rng.randrange(100) for _ in range(30)] for _ in range(4)]
    b = [sum(row) // 2 for row in a]
    m = Model(b + [-v for v in b], "highs")
    for j in range(30):
        column = {i: a[i][j] for i in range(4)}
        m.add_variable(coeffs={**column, **{4 + i: -v for i, v in column.items()}})
    ids = m.arrays().var_ids
    deadline = time.monotonic()  # already passed: HiGHS gets a time limit of 0 s
    new = m.solve_mip(0.0, ids, deadline=deadline)
    assert new.status is SolveStatus.TIME_LIMIT
    _assert_same_mip(new, _milp_reference(m, ids, 0.0, deadline))


def test_missing_highs_module_names_the_folder_and_the_scipy_floor(monkeypatch, tmp_path):
    class NoHighs:
        submodule_search_locations = [str(tmp_path)]

    monkeypatch.delitem(sys.modules, highs._HIGHS_CORE, raising=False)
    monkeypatch.setattr(highs.importlib.util, "find_spec", lambda name: NoHighs())
    m = Model([1.0], "highs")
    m.add_variable(obj=1.0, hi=1.0, coeffs={0: 1.0})
    with pytest.raises(ImportError) as raised:
        m.solve_lp()
    message = str(raised.value)
    assert str(tmp_path / "optimize" / "_highspy") in message and "scipy>=1.15" in message


# the ring's start plan grants 4 of its 6 slots, so the solve runs HiGHS LPs
_RING_SOLVE = """
import sys
from eonrsa import Instance, Request, SolveConfig, Topology, solve
ring = Topology("ring4", ("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")))
requests = (Request(0, "a", "c", 1), Request(1, "b", "d", 3), Request(2, "a", "b", 2))
instance = Instance(topology=ring, spectrum_slots=4, requests=requests, name="ring4")
report, _ = solve(instance, SolveConfig(backend="highs"))
print(report.certified, report.z_lp_star_slots)
"""
_LINPROG = """
from scipy.optimize import linprog
print(linprog([-1.0], A_ub=[[1.0]], b_ub=[2.0], method="highs").fun)
"""
_CORE_LOADS = """
import importlib.machinery
loads = []
create = importlib.machinery.ExtensionFileLoader.create_module
def counted(self, spec):
    loads.append(spec.name)
    return create(self, spec)
importlib.machinery.ExtensionFileLoader.create_module = counted
"""


@pytest.mark.parametrize(
    "order, expected",
    [
        ("solve, then scipy.optimize", ["True 6.0", "-2.0"]),
        ("scipy.optimize, then solve", ["-2.0", "True 6.0"]),
    ],
)
def test_highs_and_scipy_optimize_share_one_highs_module(order, expected):
    steps = [_RING_SOLVE, _LINPROG] if order.startswith("solve") else [_LINPROG, _RING_SOLVE]
    code = _CORE_LOADS + "".join(steps) + "print(loads.count('scipy.optimize._highspy._core'))\n"
    package_root = str(Path(eonrsa.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root, "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == expected + ["1"]


_TRIANGLE_SOLVE = """
from eonrsa import Instance, Request, SolveConfig, Topology, solve
triangle = Topology("triangle", ("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))
requests = (Request(0, "a", "b", 2), Request(1, "b", "c", 1), Request(2, "a", "c", 3))
instance = Instance(topology=triangle, spectrum_slots=4, requests=requests)
report, _ = solve(instance, SolveConfig(backend="highs"))
print(report.certified, report.z_lp_star_slots)
"""


@pytest.mark.parametrize(
    "code, expected",
    [
        # its start plan grants the demand sum of 6, which fixes the LP value: no LP runs
        (_TRIANGLE_SOLVE, ["True 6.0", "False"]),
        (_RING_SOLVE, ["True 6.0", "True"]),
    ],
    ids=["triangle", "ring4"],
)
def test_a_highs_run_loads_the_highs_module_only_to_solve_an_lp(code, expected):
    check = "import sys\nprint('scipy.optimize._highspy._core' in sys.modules)\n"
    package_root = str(Path(eonrsa.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code + check],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root, "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == expected
