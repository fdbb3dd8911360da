"""The bundled engine's numerical safety paths, each forced by a patch.

A drifting residual refactors the basis, in the pivot loop and at a warm start; a
singular basis and a pivot loop past its cap retry cold; a solution that fails the
post-solve check is not returned as optimal; and the branch and bound stops at its
deadline with its incumbent. Each LP that ends optimal gives HiGHS's value.
"""

import math
import random
import time

import numpy as np
import pytest

import eonrsa.bundled as bundled
from eonrsa import Model, SolveStatus


def _packing(backend="bundled") -> tuple[Model, list[int]]:
    """A 26-column set packing whose LP takes structural pivots and whose branch and
    bound visits many nodes."""
    rng = random.Random(5)
    objs = [rng.uniform(0.9, 1.1) for _ in range(26)]
    rows = [rng.sample(range(26), 7) for _ in range(12)]
    m = Model([3.0] * len(rows), backend)
    ids = [
        m.add_variable(obj=obj, coeffs={i: 1.0 for i, picked in enumerate(rows) if j in picked})
        for j, obj in enumerate(objs)
    ]
    return m, ids


def _highs_lp_value() -> float:
    sol = _packing("highs")[0].solve_lp()
    assert sol.status is SolveStatus.OPTIMAL
    return sol.objective


def _runs(monkeypatch, **limits) -> list[bool]:
    """Records the `retry` flag of each simplex run; `limits` (by flag) replace its
    `check_period` or `max_iter`."""
    retries = []
    init = bundled._SimplexRun.__init__

    def recorded(sx, mat, lo, hi, retry=False):
        init(sx, mat, lo, hi, retry)
        retries.append(retry)
        for name, by_retry in limits.items():
            if retry in by_retry:
                setattr(sx, name, by_retry[retry])

    monkeypatch.setattr(bundled._SimplexRun, "__init__", recorded)
    return retries


def _residuals(monkeypatch) -> list[float]:
    """Records each residual the engine measures."""
    seen = []
    residual = bundled._SimplexRun._residual

    def recorded(sx, basis, vstat, xb):
        seen.append(residual(sx, basis, vstat, xb))
        return seen[-1]

    monkeypatch.setattr(bundled._SimplexRun, "_residual", recorded)
    return seen


def test_a_drifting_residual_in_the_pivot_loop_refactors(monkeypatch):
    retries = _runs(monkeypatch, check_period={False: 1})
    residuals = _residuals(monkeypatch)
    xb_of, drifted = bundled._SimplexRun._xb, []

    def drifting(sx, basis, vstat, factor):  # the first basic values start 1e-6 off
        xb = xb_of(sx, basis, vstat, factor)
        if not drifted:
            drifted.append(True)
            xb = xb + 1e-6
        return xb

    monkeypatch.setattr(bundled._SimplexRun, "_xb", drifting)
    sol = _packing()[0].solve_lp()
    assert sol.status is SolveStatus.OPTIMAL and retries == [False]
    assert residuals[0] > 1e-8 and max(residuals[1:]) <= 1e-8  # one refactor mends it
    assert sol.objective == pytest.approx(_highs_lp_value(), abs=1e-9)


def test_a_drifting_warm_factor_refactors(monkeypatch):
    m, ids = _packing()
    assert m.solve_lp().status is SolveStatus.OPTIMAL
    factor = m._warm.factor
    assert factor.kinv.size > 0  # structural columns are basic
    factor.kinv = factor.kinv + 1e-3
    retries = _runs(monkeypatch)
    residuals = _residuals(monkeypatch)
    sol = m.solve_lp()
    assert sol.status is SolveStatus.OPTIMAL and retries == [False]
    assert residuals[0] > 1e-8
    assert m._warm.factor is not factor
    assert sol.objective == pytest.approx(_highs_lp_value(), abs=1e-9)


def test_a_singular_basis_is_retried_cold(monkeypatch):
    retries = _runs(monkeypatch)
    inv, raised = np.linalg.inv, []

    def singular_once(a):
        if not raised:
            raised.append(True)
            raise np.linalg.LinAlgError("singular matrix")
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", singular_once)
    sol = _packing()[0].solve_lp()
    assert raised and retries == [False, True]
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(_highs_lp_value(), abs=1e-9)


@pytest.mark.parametrize("capped", [{False: 1}, {False: 1, True: 1}])
def test_the_pivot_cap_fails_numerically(monkeypatch, capped):
    retries = _runs(monkeypatch, max_iter=capped)
    sol = _packing()[0].solve_lp()
    assert retries == [False, True]
    if True in capped:  # both attempts stop at the cap
        assert sol.status is SolveStatus.NUMERICAL_FAILURE and sol.objective == -math.inf
    else:  # the cold retry has its own cap
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(_highs_lp_value(), abs=1e-9)


@pytest.mark.parametrize("spoiled", [1, 2])
def test_a_failed_post_solve_check_is_no_optimum(monkeypatch, spoiled):
    retries = _runs(monkeypatch)
    run, runs = bundled._SimplexRun.run, []

    def spoiling(sx, c, basis, vstat, factor, xb, deadline):
        status, xb, y, d, factor = run(sx, c, basis, vstat, factor, xb, deadline)
        runs.append(status)
        if len(runs) <= spoiled:  # every basic value 1 too high: rows overfilled
            xb = xb + 1.0
        return status, xb, y, d, factor

    monkeypatch.setattr(bundled._SimplexRun, "run", spoiling)
    m = _packing()[0]
    sol = m.solve_lp()
    assert runs == [SolveStatus.OPTIMAL] * 2 and retries == [False, True]
    if spoiled == 2:
        assert sol.status is SolveStatus.NUMERICAL_FAILURE and m._warm is None
    else:
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(_highs_lp_value(), abs=1e-9)


class _Clock:
    """Stands in for the engine's `time`: real monotonic time plus an offset."""

    def __init__(self):
        self.offset = 0.0

    def monotonic(self):
        return time.monotonic() + self.offset


def test_branch_and_bound_stops_at_its_deadline_with_the_incumbent(monkeypatch):
    clock, node_lp, incumbents = _Clock(), bundled.solve_lp, []

    def passing_at_the_first_incumbent(model, overrides=None, deadline=math.inf):
        sol = node_lp(model, overrides, deadline)
        frac = [v for v in sol.values.values() if 1e-6 < v < 1.0 - 1e-6]
        if sol.status is SolveStatus.OPTIMAL and not frac and overrides:
            incumbents.append(sol)
            clock.offset = 1e6
        return sol

    monkeypatch.setattr(bundled, "time", clock)
    monkeypatch.setattr(bundled, "solve_lp", passing_at_the_first_incumbent)
    m, ids = _packing()
    mip = m.solve_mip(0.0, ids, deadline=time.monotonic() + 60.0)
    (first,) = incumbents
    assert mip.status is SolveStatus.TIME_LIMIT and mip.gap > 0.0
    assert mip.objective == first.objective and mip.values == first.values
