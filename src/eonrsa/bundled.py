"""The ``"bundled"`` backend: a bounded-variable revised simplex plus a depth-first
branch-and-bound, in numpy.

The basis inverse is held through a dense inverse of the basis kernel only, and
pricing is Dantzig's with a Bland anti-cycling fallback. `Model` imports this
module at the first solve of a bundled model and calls its `solve_lp` and `solve_mip`.
"""

from __future__ import annotations

import copy
import math
import time
from bisect import bisect_left
from typing import Optional

from .lazy import np
from .lpsolver import (
    FEAS_TOL,
    INT_TOL,
    OPT_TOL,
    PIVOT_TOL,
    LpSolution,
    MipSolution,
    Model,
    ModelArrays,
    SolveStatus,
    _WarmState,
)

_BASIC, _AT_LO, _AT_UP = 0, 1, 2

# ---------------------------------------------------------------------------
# bundled backend: bounded-variable revised simplex
# ---------------------------------------------------------------------------


class _Factor:
    """Inverse of a simplex basis B, held through the kernel of B.

    Basic slack (+1) and artificial (-1) columns are signed unit columns; each
    covers one row, the rows U. The k structural basic columns S, cut to the
    other k rows R, form the kernel K = A[R, S]; with C = A[U, S] and signs σ,
    B x = a solves as x_S = K⁻¹ a_R, x_U = σ (a_U - C x_S), and y B = c_B as
    y_U = σ c_U, y_R = (c_S - y_U C) K⁻¹. Only K⁻¹ is dense, k × k. A factor names
    basis positions and rows, never column numbers, and never changes once built.
    """

    def __init__(self, sx: _SimplexRun, basis: np.ndarray):
        unit = basis >= sx.n
        self.upos, self.spos = unit.nonzero()[0], (~unit).nonzero()[0]  # basis positions
        first = sx.indptr[basis[self.upos]]
        self.urow, self.sign = sx.rows[first], sx.data[first]
        free = np.ones(sx.m, dtype=bool)
        free[self.urow] = False
        self.rrow = free.nonzero()[0]
        k = len(self.spos)
        if len(self.rrow) != k:
            raise np.linalg.LinAlgError("two basic unit columns cover one row")
        kernel_row, kernel_col = np.full(sx.m, -1), np.full(sx.ncols, -1)
        kernel_row[self.rrow] = kernel_col[basis[self.spos]] = np.arange(k)
        i, j = kernel_row[sx.rows], kernel_col[sx.cols]
        at = (i >= 0) & (j >= 0)
        kernel = np.zeros((k, k))
        kernel[i[at], j[at]] = sx.data[at]
        self.kinv = np.linalg.inv(kernel)

    def ftran(self, sx: _SimplexRun, basis: np.ndarray, a: np.ndarray) -> np.ndarray:
        """x with B x = a."""
        x, x_s = np.empty(sx.m), np.zeros(sx.ncols)
        x[self.spos] = x_s[basis[self.spos]] = self.kinv @ a[self.rrow]
        x[self.upos] = self.sign * (a - sx._ax(x_s))[self.urow]
        return x

    def btran(self, sx: _SimplexRun, basis: np.ndarray, cb: np.ndarray) -> np.ndarray:
        """y with y B = cb."""
        y = np.zeros(sx.m)
        y[self.urow] = self.sign * cb[self.upos]
        y[self.rrow] = (cb[self.spos] - sx._aty(y)[basis[self.spos]]) @ self.kinv
        return y

    def pivot(self, sx: _SimplexRun, basis: np.ndarray, r: int, e: int, w: np.ndarray) -> _Factor:
        """The factor once column e takes position r of `basis`, in place; w = B⁻¹ a_e.

        Only a structural column replacing one keeps k and R, for a rank-1 step
        on K⁻¹; any other exchange rebuilds K.
        """
        leaving, basis[r] = basis[r], e
        if e >= sx.n or leaving >= sx.n:
            return _Factor(sx, basis)
        j = int((self.spos == r).argmax())
        u = w[self.spos]
        row = self.kinv[j] / u[j]
        twin = copy.copy(self)
        twin.kinv = self.kinv - u[:, None] * row
        twin.kinv[j] = row
        return twin


class _SimplexRun:
    """One bounded-variable primal simplex execution over a model's column store.

    The slack identity follows the structural columns, and artificial columns
    (phase 1) follow the slacks; the same pivot loop serves both phases. Each
    product with the matrix sums every row in column order. A `retry` run, after
    a numerical failure, pivots by Bland's rule and checks residuals more often.
    """

    def __init__(self, mat: ModelArrays, lo, hi, retry: bool = False):
        self.mat = mat
        self.n, self.m = n, m = mat.n, mat.m
        self.bland = retry
        slack = np.arange(m)
        self.data = np.concatenate([mat.data, np.ones(m)])
        self.rows = np.concatenate([mat.indices, slack])
        self.indptr = np.concatenate([mat.indptr, mat.indptr[-1] + 1 + slack])
        self.cols = np.concatenate([np.repeat(np.arange(n), np.diff(mat.indptr)), n + slack])
        self.lo = np.concatenate([lo, np.zeros(m)])
        self.hi = np.concatenate([hi, np.full(m, math.inf)])
        self.ncols = n + m
        self.check_period = 25 if retry else 200
        self.max_iter = 2000 + 20 * (self.m + self.ncols)

    # -- helpers ----------------------------------------------------------

    def _ax(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=self.data * x[self.cols], minlength=self.m)

    def _aty(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(self.cols, weights=self.data * y[self.rows], minlength=self.ncols)

    def _nonbasic_x(self, vstat: np.ndarray) -> np.ndarray:
        x = np.where(vstat == _AT_UP, self.hi, self.lo)
        x[vstat == _BASIC] = 0.0
        return x

    def _xb(self, basis: np.ndarray, vstat: np.ndarray, factor: _Factor) -> np.ndarray:
        return factor.ftran(self, basis, self.mat.b - self._ax(self._nonbasic_x(vstat)))

    def _residual(self, basis, vstat, xb) -> float:
        x = self._nonbasic_x(vstat)
        x[basis] = xb
        r = self.mat.b - self._ax(x)
        return float(np.max(np.abs(r))) if len(r) else 0.0

    def add_artificials(self, basis, vstat, rows_needing_art: np.ndarray):
        """Swap artificial columns into the basis on the given rows."""
        na = len(rows_needing_art)
        art = np.arange(na)
        self.data = np.concatenate([self.data, -np.ones(na)])
        self.rows = np.concatenate([self.rows, rows_needing_art])
        self.cols = np.concatenate([self.cols, self.ncols + art])
        self.indptr = np.concatenate([self.indptr, self.indptr[-1] + 1 + art])
        self.lo = np.concatenate([self.lo, np.zeros(na)])
        self.hi = np.concatenate([self.hi, np.full(na, math.inf)])
        vstat = np.concatenate([vstat, np.full(na, _AT_LO, dtype=np.int8)])
        vstat[basis[rows_needing_art]] = _AT_LO  # the slacks of a cold basis leave
        basis[rows_needing_art] = self.ncols + art
        vstat[self.ncols + art] = _BASIC
        self.ncols += na
        return basis, vstat

    # -- pivot loop ---------------------------------------------------------

    def run(self, c, basis, vstat, factor, xb, deadline: Optional[float]):
        """Pivot from basic values `xb` to optimality, or until `deadline` passes.

        Returns (status, xb, y, d, factor)."""
        lo, hi = self.lo, self.hi
        # cost and bounds of the basic columns, row by row; kept up to date per pivot
        cb, lob, hib = c[basis], lo[basis], hi[basis]
        # by status: a nonbasic column may enter iff improving_sign[vstat] * d > OPT_TOL
        improving_sign = np.array([0.0, 1.0, -1.0])
        degen_run = 0
        bland = self.bland
        for it in range(1, self.max_iter + 1):
            if deadline is not None and time.monotonic() > deadline:
                return SolveStatus.TIME_LIMIT, xb, None, None, factor
            if it % self.check_period == 0 and self._residual(basis, vstat, xb) > 1e-8:
                factor = _Factor(self, basis)
                xb = self._xb(basis, vstat, factor)
            y = factor.btran(self, basis, cb)
            d = c - self._aty(y)
            cand = improving_sign[vstat] * d > OPT_TOL
            if not cand.any():
                return SolveStatus.OPTIMAL, xb, y, d, factor
            # Bland: the first candidate; Dantzig: the first of the largest |d|
            e = cand.argmax() if bland else np.where(cand, np.abs(d), -1.0).argmax()
            t = 1.0 if vstat[e] == _AT_LO else -1.0
            s_e, e_e = self.indptr[e], self.indptr[e + 1]
            a_e = np.zeros(self.m)
            a_e[self.rows[s_e:e_e]] = self.data[s_e:e_e]
            w = factor.ftran(self, basis, a_e)
            tw = t * w

            # ratio test (vectorized); basic values move by -tw * step, so a
            # row with tw > 0 runs down to its lower bound and one with tw < 0
            # up to its upper bound (never, when that is infinite)
            abs_tw = np.abs(tw)
            room = np.maximum(np.where(tw > 0, xb - lob, hib - xb), 0.0)
            ratios = np.divide(
                room, abs_tw, out=np.full(self.m, math.inf), where=abs_tw > PIVOT_TOL
            )
            min_ratio = ratios.min() if self.m else math.inf
            flip = hi[e] - lo[e]

            if min_ratio >= flip - 1e-12:
                # entering variable reaches its opposite bound first
                if not math.isfinite(flip):
                    return SolveStatus.UNBOUNDED, xb, None, None, factor
                step = flip
                xb = xb - tw * step
                vstat[e] = _AT_UP if vstat[e] == _AT_LO else _AT_LO
            else:
                # among tied rows, the one whose basic column has the lowest index
                tie = ratios <= min_ratio + 1e-12
                leave_r = int(np.where(tie, basis, self.ncols).argmin())
                step = max(ratios[leave_r], 0.0)
                lv = basis[leave_r]
                vstat[lv] = _AT_LO if tw[leave_r] > 0 else _AT_UP
                xb = xb - tw * step
                xb[leave_r] = (lo[e] if t > 0 else hi[e]) + t * step
                factor = factor.pivot(self, basis, leave_r, e, w)
                cb[leave_r], lob[leave_r], hib[leave_r] = c[e], lo[e], hi[e]
                vstat[e] = _BASIC

            degen_run = degen_run + 1 if step < 1e-12 else 0
            bland = self.bland or degen_run > 150  # Bland only while a degenerate run lasts
        return SolveStatus.NUMERICAL_FAILURE, xb, None, None, factor


def _cold_state(sx: _SimplexRun) -> tuple[np.ndarray, np.ndarray, _Factor]:
    basis = np.arange(sx.n, sx.n + sx.m, dtype=np.int64)
    vstat = np.full(sx.n + sx.m, _AT_LO, dtype=np.int8)
    vstat[basis] = _BASIC
    return basis, vstat, _Factor(sx, basis)


def _warm_state(model: Model, sx: _SimplexRun):
    warm = model._warm
    if warm is None:
        return None
    n = sx.n
    col_of = {vid: j for j, vid in enumerate(sx.mat.var_ids)}
    # the slack of row r, key -1 - r, sits at column n + r
    positions = [n - 1 - key if key < 0 else col_of.get(key) for key in warm.basis_keys]
    if None in positions:
        return None
    basis = np.array(positions, dtype=np.int64)
    vstat = np.full(n + sx.m, _AT_LO, dtype=np.int8)
    for key in warm.at_upper:
        j = n - 1 - key if key < 0 else col_of.get(key)
        if j is not None and math.isfinite(sx.hi[j]):
            vstat[j] = _AT_UP
    vstat[basis] = _BASIC
    # a factor names basis positions and rows only, and these keys fix both
    return basis, vstat, warm.factor


def _store_warm(model: Model, sx: _SimplexRun, basis, vstat, factor) -> None:
    n, ids = sx.n, sx.mat.var_ids
    if (basis >= n + sx.m).any():
        return  # an artificial is still basic; not worth caching

    def key(j: int) -> int:
        return ids[j] if j < n else n - 1 - j

    keys = [key(j) for j in basis.tolist()]
    at_upper = {key(j) for j in np.flatnonzero(vstat[: n + sx.m] == _AT_UP).tolist()}
    model._warm = _WarmState(basis_keys=keys, at_upper=at_upper, factor=factor)


def solve_lp(
    model: Model,
    overrides: Optional[dict[int, tuple[float, float]]] = None,
    deadline: Optional[float] = None,
) -> LpSolution:
    mat = model.arrays()
    lo, hi = mat.lo, mat.hi
    if overrides:
        lo, hi = lo.copy(), hi.copy()
        for vid, (lo_j, hi_j) in overrides.items():
            j = bisect_left(mat.var_ids, vid)
            lo[j], hi[j] = lo_j, hi_j
    for attempt in (0, 1):
        sx = _SimplexRun(mat, lo, hi, retry=attempt == 1)
        try:
            sol = _simplex_solve(model, sx, try_warm=attempt == 0, deadline=deadline)
        except np.linalg.LinAlgError:  # a singular basis; the second attempt starts cold
            sol = LpSolution(SolveStatus.NUMERICAL_FAILURE, -math.inf)
        if sol.status is not SolveStatus.NUMERICAL_FAILURE:
            return sol
    return sol


def _simplex_solve(
    model: Model, sx: _SimplexRun, try_warm: bool, deadline: Optional[float]
) -> LpSolution:
    n, m = sx.n, sx.m
    state = _warm_state(model, sx) if try_warm else None
    used_warm = state is not None
    basis, vstat, factor = state or _cold_state(sx)
    xb = sx._xb(basis, vstat, factor)
    if used_warm and sx._residual(basis, vstat, xb) > 1e-8:
        factor = _Factor(sx, basis)
        xb = sx._xb(basis, vstat, factor)
    feasible = bool(
        np.all(xb >= sx.lo[basis] - FEAS_TOL) and np.all(xb <= sx.hi[basis] + FEAS_TOL)
    )
    if not feasible and used_warm:
        basis, vstat, factor = _cold_state(sx)
        xb = sx._xb(basis, vstat, factor)
        feasible = bool(np.all(xb >= sx.lo[basis] - FEAS_TOL))

    if not feasible:
        bad_rows = np.flatnonzero(xb < sx.lo[basis] - FEAS_TOL)
        basis, vstat = sx.add_artificials(basis, vstat, bad_rows)
        factor = _Factor(sx, basis)
        c1 = np.zeros(sx.ncols)
        c1[n + m :] = -1.0  # phase 1 maximizes minus the sum of the artificials
        xb = sx._xb(basis, vstat, factor)
        status, xb1, _, _, factor = sx.run(c1, basis, vstat, factor, xb, deadline)
        if status is not SolveStatus.OPTIMAL:  # phase 1 is bounded: a failure or the deadline
            return LpSolution(status, -math.inf)
        infeasibility = float(np.sum(np.maximum(xb1[basis >= n + m], 0.0)))
        if infeasibility > FEAS_TOL:
            return LpSolution(SolveStatus.INFEASIBLE, -math.inf)
        sx.lo[n + m :] = sx.hi[n + m :] = 0.0
        xb = sx._xb(basis, vstat, factor)

    c = np.concatenate([sx.mat.c, np.zeros(sx.ncols - n)])
    status, xb, y, d, factor = sx.run(c, basis, vstat, factor, xb, deadline)
    if status is SolveStatus.UNBOUNDED:
        return LpSolution(SolveStatus.UNBOUNDED, math.inf)
    if status is not SolveStatus.OPTIMAL:  # a failure or the deadline
        return LpSolution(status, -math.inf)

    x = sx._nonbasic_x(vstat)
    x[basis] = xb
    b = sx.mat.b
    resid = b - sx._ax(x)
    finite_hi = np.isfinite(sx.hi)
    primal_ok = (
        bool(np.all(resid >= -FEAS_TOL))
        and bool(np.all(x >= sx.lo - FEAS_TOL))
        and bool(np.all(x[finite_hi] <= sx.hi[finite_hi] + FEAS_TOL))
    )
    obj = float(c @ x)
    dpos, dneg = np.maximum(d, 0.0), np.minimum(d, 0.0)
    dual_obj = float(y @ b)
    dual_obj += float(dpos[finite_hi] @ sx.hi[finite_hi]) + float(dneg @ sx.lo)
    gap_ok = abs(obj - dual_obj) <= FEAS_TOL * (1.0 + abs(obj))
    dual_ok = bool(np.all(y >= -FEAS_TOL)) and bool(np.all(dpos[~finite_hi] <= 1e-7))
    if not (primal_ok and gap_ok and dual_ok):
        return LpSolution(SolveStatus.NUMERICAL_FAILURE, obj)

    ids = sx.mat.var_ids
    values = dict(zip(ids, x[:n].tolist()))
    basic = frozenset(ids[j] for j in basis[basis < n].tolist())
    _store_warm(model, sx, basis, vstat, factor)
    return LpSolution(SolveStatus.OPTIMAL, obj, values, y, basic)


# ---------------------------------------------------------------------------
# bundled backend: depth-first branch and bound
# ---------------------------------------------------------------------------


def solve_mip(
    model: Model, binaries: list[int], relative_gap: float, deadline: Optional[float]
) -> MipSolution:
    root = solve_lp(model, deadline=deadline)
    if root.status is not SolveStatus.OPTIMAL:  # UNBOUNDED: Model.solve_mip probes
        return MipSolution(root.status, -math.inf, {}, math.inf)

    inc_val = -math.inf
    inc_values: dict[int, float] = {}
    # DFS stack of (parent LP bound, branching bound overrides)
    stack: list[tuple[float, dict[int, tuple[float, float]]]] = [(root.objective, {})]
    timed_out = failed = False

    def global_ub() -> float:
        return max([inc_val] + [bound for bound, _ in stack]) if stack else inc_val

    def gap_of(ub: float) -> float:
        if inc_val == -math.inf:
            return math.inf
        if ub <= inc_val:
            return 0.0
        return (ub - inc_val) / max(abs(ub), 1e-10)

    while stack:
        if deadline is not None and time.monotonic() > deadline:
            timed_out = True
            break
        if inc_val > -math.inf and gap_of(global_ub()) <= relative_gap + 1e-12:
            break
        bound, overrides = stack.pop()
        if bound <= inc_val + 1e-9:
            continue
        # the root node is the LP just solved; re-solving it changes nothing
        sol = solve_lp(model, overrides, deadline) if overrides else root
        if sol.status is SolveStatus.INFEASIBLE:
            continue
        if sol.status is not SolveStatus.OPTIMAL:  # the search ends; the node stays open
            stack.append((bound, overrides))
            timed_out = sol.status is SolveStatus.TIME_LIMIT
            failed = not timed_out
            break
        if sol.objective <= inc_val + 1e-9:
            continue
        frac = [
            (min(sol.values[j], 1.0 - sol.values[j]), j)
            for j in binaries
            if INT_TOL < sol.values[j] < 1.0 - INT_TOL
        ]
        if not frac:
            inc_val = sol.objective
            inc_values = dict(sol.values)
            continue
        j = min(frac, key=lambda p: (-p[0], p[1]))[1]
        stack.append((sol.objective, {**overrides, j: (0.0, 0.0)}))
        stack.append((sol.objective, {**overrides, j: (1.0, 1.0)}))  # explore "fix to 1" first

    gap = gap_of(global_ub())
    if inc_val == -math.inf:
        status = SolveStatus.TIME_LIMIT if timed_out else SolveStatus.INFEASIBLE
        status = SolveStatus.NUMERICAL_FAILURE if failed else status
        return MipSolution(status, -math.inf, {}, math.inf)
    if timed_out and gap > relative_gap + 1e-12:
        status = SolveStatus.TIME_LIMIT
    elif gap <= 1e-9 and not failed:
        status = SolveStatus.OPTIMAL
    else:
        status = SolveStatus.FEASIBLE
    return MipSolution(status, inc_val, inc_values, max(gap, 0.0))

