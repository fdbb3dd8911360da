"""Narrow LP/MIP layer: incremental models, LP duals, MIP with a relative-gap stop.

A ``Model`` keeps its columns as plain Python records by id, and its rows, fixed
from their right-hand sides when it is built, as a list; columns come and go.
The LP and MIP engines of each backend (`_ENGINES`) read one CSC form of them,
`Model.arrays()`, built on demand and kept until the next edit. numpy is loaded
then, at the first LP or MIP, and duals come back as one numpy array by row.
The backends are:

* ``"bundled"`` — a bounded-variable revised simplex (the basis inverse held
  through a dense inverse of the basis kernel only, Dantzig pricing with a
  Bland anti-cycling fallback) plus a depth-first branch-and-bound, in numpy.
* ``"highs"`` — HiGHS, through the compiled module that scipy ships
  (``scipy/optimize/_highspy/_core``), loaded on the first HiGHS solve;
  scipy.optimize and scipy.sparse are never imported. Faster on large models.

Both engines report the basis of an optimal LP and start the model's next LP
from it, new columns nonbasic at their lower bound. `Model.solve_mip` holds the
one unboundedness probe that serves both MIP engines.

All models maximize, all rows are ``sum a_i x_i <= b`` with finite
right-hand side, and variables are continuous in [lo, hi] (finite lo); a MIP
solve names the variables it holds binary. Duals of binding constraints are
reported exactly as the engine produced them, tiny negatives included:
clamping is the caller's business.
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import enum
import importlib.machinery
import importlib.util
import math
import os
import sys
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .errors import UnknownId
from .lazy import np

FEAS_TOL = 1e-6
PIVOT_TOL = 1e-9
OPT_TOL = 1e-9
INT_TOL = 1e-6


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # incumbent present, optimality not proven to zero gap
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL_FAILURE = "numerical_failure"
    TIME_LIMIT = "time_limit"


@dataclass(eq=False)
class ModelArrays:
    """A model's columns as both engines read them: ``max c x  s.t.  a x <= b,  lo <= x <= hi``.

    `a` is held in CSC form: column j has the values `data[indptr[j]:indptr[j+1]]`
    in the rows `indices[indptr[j]:indptr[j+1]]`, ascending. Columns follow
    `var_ids`, ascending; the rows, and so `b`, are fixed when the model is built.
    `Model.arrays()` builds them from the model's records when first asked after an edit.
    """

    var_ids: list[int]
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @property
    def n(self) -> int:
        return len(self.var_ids)

    @property
    def m(self) -> int:
        return len(self.b)


@dataclass(frozen=True, eq=False)
class LpSolution:
    status: SolveStatus
    objective: float
    values: dict[int, float] = field(default_factory=dict)
    duals: np.ndarray = field(default_factory=lambda: np.zeros(0))  # by row
    basic_variables: Optional[frozenset[int]] = None


@dataclass(frozen=True)
class MipSolution:
    status: SolveStatus
    objective: float
    values: dict[int, float]
    gap: float  # proven relative gap


@dataclass
class _WarmState:
    """Basis carried between LP solves of one model; HiGHS keeps no factor."""

    basis_keys: list[int]  # var ids, and -1 - row for a slack; by row position when bundled
    at_upper: set[int]  # keys of nonbasic columns sitting at their upper bound
    factor: Optional[_Factor]


_BASIC, _AT_LO, _AT_UP = 0, 1, 2


class Model:
    """Maximization model over the rows `sum a x <= rhs`; columns come and go by id."""

    def __init__(self, rhs: Sequence[float], backend: str = "bundled"):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; available: {BACKENDS}")
        self._b = [float(v) for v in rhs]
        if not all(map(math.isfinite, self._b)):
            raise ValueError("right-hand side must be finite")
        self.backend = backend
        # by id, ascending (ids only grow): [obj, lo, hi, rows ascending, values by row]
        self._columns: dict[int, list] = {}
        self._arrays: Optional[ModelArrays] = None  # built from the records, until an edit
        self._next_var = 0
        self._warm: Optional[_WarmState] = None

    # -- editing ---------------------------------------------------------

    def add_variable(
        self,
        obj: float = 0.0,
        lo: float = 0.0,
        hi: float = math.inf,
        coeffs: Optional[Mapping[int, float]] = None,
    ) -> int:
        """New variable; `coeffs` maps rows to its coefficients there."""
        if not math.isfinite(lo):
            raise ValueError("lower bound must be finite")
        if hi < lo:
            raise ValueError(f"empty bound interval [{lo}, {hi}]")
        coeffs = {row: float(v) for row, v in (coeffs or {}).items() if v != 0.0}
        for row in coeffs:
            if row not in range(len(self._b)):
                raise UnknownId(f"row {row} does not exist")
        rows = sorted(coeffs)
        vid, self._next_var = self._next_var, self._next_var + 1
        self._columns[vid] = [float(obj), float(lo), float(hi), rows, [coeffs[r] for r in rows]]
        self._arrays = None
        return vid

    def _known(self, ids: list[int]) -> list[int]:
        """`ids`, each a variable of the model; UnknownId at the first that is not."""
        for vid in ids:
            if vid not in self._columns:
                raise UnknownId(f"variable {vid} does not exist")
        return ids

    def remove_variables(self, ids: Iterable[int]) -> None:
        ids = self._known(list(ids))
        for vid in set(ids):
            del self._columns[vid]
        self._arrays = None
        if self._warm is not None and set(ids).isdisjoint(self._warm.basis_keys):
            self._warm.at_upper.difference_update(ids)
        else:
            self._warm = None  # none, or stale: a removed column was basic

    def prune(self, sol: LpSolution, candidates: Iterable[int]) -> list[int]:
        """Remove the candidates that sit at zero outside the basis of `sol`; the removed ids."""
        basic, values = sol.basic_variables, sol.values
        drop = [vid for vid in candidates if values.get(vid, 0.0) <= INT_TOL and vid not in basic]
        if drop:
            self.remove_variables(drop)
        return drop

    # -- introspection ----------------------------------------------------

    @property
    def num_constraints(self) -> int:
        return len(self._b)

    def arrays(self) -> ModelArrays:
        """The columns as the arrays both engines read, built once after each edit."""
        if self._arrays is None:
            cols = self._columns.values()
            self._arrays = ModelArrays(
                var_ids=list(self._columns),
                data=np.array([v for col in cols for v in col[4]], dtype=float),
                indices=np.array([r for col in cols for r in col[3]], dtype=np.intp),
                indptr=np.cumsum([0] + [len(col[3]) for col in cols], dtype=np.intp),
                b=np.array(self._b, dtype=float),
                c=np.array([col[0] for col in cols], dtype=float),
                lo=np.array([col[1] for col in cols], dtype=float),
                hi=np.array([col[2] for col in cols], dtype=float),
            )
        return self._arrays

    # -- solving ----------------------------------------------------------

    def solve_lp(self, deadline: Optional[float] = None) -> LpSolution:
        """The LP, warm from the last basis; TIME_LIMIT once time.monotonic() passes `deadline`."""
        return _ENGINES[self.backend][0](self, deadline=deadline)

    def solve_mip(
        self, relative_gap: float, binaries: Iterable[int], deadline: Optional[float] = None
    ) -> MipSolution:
        """Branch-and-bound over `binaries` to the requested gap, stopped at `deadline`.

        The bounds of `binaries` are cut to [0, 1] in the model, and stay so. The bundled
        root LP starts from the last basis; HiGHS starts its MIP from none. With no binaries
        the MIP is its LP, solved to a zero gap on both engines. An UNBOUNDED MIP verdict is
        probed by re-solving a zero-objective copy, gap 0, on the same engine: OPTIMAL makes
        it UNBOUNDED, UNBOUNDED (no verdict) INFEASIBLE, and any other status is returned.
        """
        if not 0.0 <= relative_gap < 1.0:
            raise ValueError("relative_gap must lie in [0, 1)")
        binaries = self._known(sorted(binaries))
        for vid in binaries:
            col = self._columns[vid]
            col[1], col[2] = max(col[1], 0.0), min(col[2], 1.0)
        self._arrays = None
        solve_lp, solve_mip = _ENGINES[self.backend]
        if not binaries:
            lp = solve_lp(self, deadline=deadline)
            if lp.status is not SolveStatus.OPTIMAL:
                return MipSolution(lp.status, -math.inf, {}, math.inf)
            return MipSolution(SolveStatus.OPTIMAL, lp.objective, lp.values, 0.0)
        mip = solve_mip(self, binaries, relative_gap, deadline)
        if mip.status is not SolveStatus.UNBOUNDED:
            return mip
        probe = Model(self._b, self.backend)  # solved by the engine: model calls never nest
        probe._columns = {vid: [0.0, *col[1:]] for vid, col in self._columns.items()}
        found = solve_mip(probe, binaries, 0.0, deadline).status
        verdict = {SolveStatus.OPTIMAL: mip.status, SolveStatus.UNBOUNDED: SolveStatus.INFEASIBLE}
        return MipSolution(verdict.get(found, found), -math.inf, {}, math.inf)


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


def _solve_lp_bundled(
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


def _solve_mip_bundled(
    model: Model, binaries: list[int], relative_gap: float, deadline: Optional[float]
) -> MipSolution:
    root = _solve_lp_bundled(model, deadline=deadline)
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
        sol = _solve_lp_bundled(model, overrides, deadline) if overrides else root
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


# ---------------------------------------------------------------------------
# highs backend: HiGHS's compiled module, as scipy ships it
# ---------------------------------------------------------------------------


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


def _solve_lp_highs(model: Model, deadline: Optional[float] = None) -> LpSolution:
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


def _solve_mip_highs(
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


_ENGINES = {  # each backend's (LP engine, MIP engine): the one place a Model finds them
    "bundled": (_solve_lp_bundled, _solve_mip_bundled),
    "highs": (_solve_lp_highs, _solve_mip_highs),
}
BACKENDS = tuple(_ENGINES)
