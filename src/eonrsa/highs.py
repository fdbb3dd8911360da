"""The ``"highs"`` backend: HiGHS, through the compiled module that scipy ships.

The module (``scipy/optimize/_highspy/_core``) is loaded on the first HiGHS solve;
scipy.optimize and scipy.sparse are never imported. Faster than the bundled engine
on large models. `Model` imports this module at the first solve of a HiGHS model
and calls its `solve_lp` and `solve_mip`.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib.machinery
import importlib.util
import math
import os
import sys
import time
from typing import Optional

from .lazy import np
from .lpsolver import FEAS_TOL, LpSolution, MipSolution, Model, ModelArrays, SolveStatus, _WarmState


_HIGHS_CORE = "scipy.optimize._highspy._core"
_HIGHS_STATUS = {  # HighsModelStatus by name; any other status is no verdict (None)
    "kOptimal": SolveStatus.OPTIMAL, "kInfeasible": SolveStatus.INFEASIBLE,
    "kUnbounded": SolveStatus.UNBOUNDED, "kTimeLimit": SolveStatus.TIME_LIMIT,
}


def _highs_core():
    """HiGHS's module, loaded once from scipy's folder without importing scipy itself."""
    core = sys.modules.get(_HIGHS_CORE)  # there too once scipy.optimize is imported
    if core is None:
        spec = importlib.util.find_spec("scipy")  # finds scipy without running its __init__
        root = spec.submodule_search_locations[0] if spec else "scipy"
        folder = os.path.join(root, "optimize", "_highspy")
        paths = [os.path.join(folder, "_core" + s) for s in importlib.machinery.EXTENSION_SUFFIXES]
        paths = [path for path in paths if os.path.isfile(path)]
        if not paths:  # 1.15 is the first scipy with this module
            raise ImportError(f"the highs backend needs scipy>=1.15: no _core module in {folder}")
        loader = importlib.machinery.ExtensionFileLoader(_HIGHS_CORE, paths[0])
        core = importlib.util.module_from_spec(importlib.util.spec_from_loader(_HIGHS_CORE, loader))
        loader.exec_module(core)
        sys.modules[_HIGHS_CORE] = core
    return core


@contextlib.contextmanager
def _native_stdout_silenced():
    """Point fd 1 at os.devnull for the block, as HiGHS's native code writes there; C stdio
    is flushed (ctypes' handle on the process's own symbols) before fd 1 comes back."""
    saved = os.dup(1)
    try:
        with open(os.devnull, "wb") as sink:
            os.dup2(sink.fileno(), 1)
            yield
    finally:
        ctypes.pythonapi.fflush(None)
        os.dup2(saved, 1)
        os.close(saved)


def _highs_run(mat: ModelArrays, options: dict, deadline, integrality=None, warm=None):
    """(verdict, solver) of one HiGHS run on `mat`, costs negated, or its MIP by `integrality`,
    with what is left until `deadline` as its time limit; an LP from the `_WarmState` basis
    `warm`, without presolve, if HiGHS finds it consistent."""
    if deadline is not None:
        options = {**options, "time_limit": max(deadline - time.monotonic(), 0.0)}
    h = _highs_core()
    lp = h.HighsLp()
    lp.num_col_, lp.num_row_ = mat.n, mat.m
    a = lp.a_matrix_  # a reference into lp
    a.num_col_, a.num_row_, a.format_ = mat.n, mat.m, h.MatrixFormat.kColwise
    a.start_, a.index_, a.value_ = mat.indptr.tolist(), mat.indices.tolist(), mat.data.tolist()
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = (-mat.c).tolist(), mat.lo.tolist(), mat.hi.tolist()
    lp.row_lower_, lp.row_upper_ = [-math.inf] * mat.m, mat.b.tolist()
    if integrality is not None:
        lp.integrality_ = list(map(h.HighsVarType, integrality.tolist()))
    highs = h._Highs()
    with _native_stdout_silenced():
        for key, value in options.items():
            highs.setOptionValue(key, value)
        highs.passModel(lp)
        if warm is not None:  # a nonbasic row, its slack at zero, is at its upper bound
            st, basic, basis = h.HighsBasisStatus, set(warm.basis_keys), h.HighsBasis()
            basis.col_status = [
                st.kBasic if j in basic else st.kUpper if j in warm.at_upper else st.kLower
                for j in mat.var_ids
            ]
            basis.row_status = [st.kBasic if -1 - r in basic else st.kUpper for r in range(mat.m)]
            basis.valid = True
            highs.setBasis(basis)
        highs.run()
    return _HIGHS_STATUS.get(highs.getModelStatus().name), highs


def solve_lp(model: Model, deadline: Optional[float] = None) -> LpSolution:
    mat = model.arrays()
    if mat.n == 0:
        if np.all(mat.b >= -FEAS_TOL):
            return LpSolution(SolveStatus.OPTIMAL, 0.0, duals=np.zeros(mat.m))
        return LpSolution(SolveStatus.INFEASIBLE, -math.inf)
    options = {"presolve": "on", "highs_debug_level": 0, "log_to_console": False}  # as linprog
    options.update(output_flag=False, simplex_strategy=1)  # 1: the dual simplex
    status, highs = _highs_run(mat, options, deadline, warm=model._warm)
    if status in (None, SolveStatus.INFEASIBLE):
        # presolve may end at "infeasible or unbounded" or no verdict; the simplex alone tells
        status, highs = _highs_run(mat, {**options, "presolve": "off"}, deadline)
    if status is not SolveStatus.OPTIMAL:  # None, a verdict, or the deadline
        return LpSolution(status or SolveStatus.NUMERICAL_FAILURE, -math.inf)
    sol, basis, ids = highs.getSolution(), highs.getBasis(), mat.var_ids
    col = [int(s) for s in basis.col_status]  # HighsBasisStatus: kLower 0, kBasic 1, kUpper 2
    basic = [vid for vid, s in zip(ids, col) if s == 1]
    rows = [-1 - r for r, s in enumerate(basis.row_status) if int(s) == 1]
    model._warm = _WarmState(basic + rows, {vid for vid, s in zip(ids, col) if s == 2}, None)
    values = dict(zip(ids, sol.col_value))
    objective = 0.0 - highs.getInfo().objective_function_value  # 0.0, never -0.0, at 0
    duals = -np.array(sol.row_dual)
    return LpSolution(SolveStatus.OPTIMAL, objective, values, duals, frozenset(basic))


def solve_mip(
    model: Model, binaries: list[int], relative_gap: float, deadline: Optional[float]
) -> MipSolution:
    mat = model.arrays()
    options: dict = {"log_to_console": False, "mip_rel_gap": relative_gap}
    status, highs = _highs_run(mat, options, deadline, np.isin(mat.var_ids, binaries))
    objective, gap = highs.getInfo().objective_function_value, highs.getInfo().mip_gap
    # an objective of +inf: no incumbent; no verdict (None) is UNBOUNDED, for solve_mip to probe
    if status not in (SolveStatus.OPTIMAL, SolveStatus.TIME_LIMIT) or objective == math.inf:
        return MipSolution(status or SolveStatus.UNBOUNDED, -math.inf, {}, math.inf)
    values = dict(zip(mat.var_ids, highs.getSolution().col_value))
    if status is SolveStatus.OPTIMAL and gap > 1e-9:
        status = SolveStatus.FEASIBLE
    return MipSolution(status, 0.0 - objective, values, gap)

