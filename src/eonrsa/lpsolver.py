"""Narrow LP/MIP layer: incremental models, LP duals, MIP with a relative-gap stop.

Two interchangeable engines sit behind the same ``Model`` contract:

* ``"bundled"`` — a bounded-variable revised simplex (explicit basis inverse,
  Dantzig pricing with a Bland anti-cycling fallback) plus a depth-first
  branch-and-bound. Depends only on numpy/scipy.sparse, so the test suite is
  self-contained.
* ``"highs"`` — scipy.optimize.linprog / milp (HiGHS). Faster on large
  models; does not report basis membership.

All models maximize, all constraints are ``sum a_i x_i <= b`` with finite
right-hand side, and variables are continuous in [lo, hi] (finite lo) or
binary. Duals of binding constraints are reported exactly as the engine
produced them, tiny negatives included: clamping is the caller's business.
"""

from __future__ import annotations

import enum
import math
import time
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dger

from .errors import UnknownId

FEAS_TOL = 1e-6
PIVOT_TOL = 1e-9
OPT_TOL = 1e-9
INT_TOL = 1e-6

BACKENDS = ("bundled", "highs")


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # incumbent present, optimality not proven to zero gap
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL_FAILURE = "numerical_failure"
    TIME_LIMIT = "time_limit"


class VarKind(enum.Enum):
    CONTINUOUS = "continuous"
    BINARY = "binary"


@dataclass
class _VarData:
    obj: float
    lo: float
    hi: float
    kind: VarKind
    coeffs: dict[int, float]  # constraint id -> coefficient


@dataclass
class ModelArrays:
    """Column-major snapshot of a model: ``max c x  s.t.  a x <= b,  lo <= x <= hi``.

    Columns follow `var_ids` and rows follow `con_ids`, both ascending;
    `integrality` is 1 for binary columns and 0 otherwise.
    """

    var_ids: list[int]
    con_ids: list[int]
    a: sp.csc_matrix  # m x n
    b: np.ndarray
    c: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    integrality: np.ndarray


@dataclass(frozen=True)
class LpSolution:
    status: SolveStatus
    objective: float
    values: dict[int, float]
    duals: dict[int, float]
    reduced_costs: Optional[dict[int, float]] = None
    basic_variables: Optional[frozenset[int]] = None


@dataclass(frozen=True)
class MipSolution:
    status: SolveStatus
    objective: float
    values: dict[int, float]
    gap: float  # proven relative gap


@dataclass
class _WarmState:
    """Basis carried between LP solves of one model (bundled backend)."""

    basis_keys: list[int]  # row position -> var id, or -1 - con id for a slack
    at_upper: set[int]  # keys of nonbasic columns sitting at their upper bound
    binv: np.ndarray


_BASIC, _AT_LO, _AT_UP = 0, 1, 2
# by status: a nonbasic column may enter iff _IMPROVING_SIGN[vstat] * d > OPT_TOL
_IMPROVING_SIGN = np.array([0.0, 1.0, -1.0])


class Model:
    """Incremental maximization model with stable variable/constraint ids."""

    def __init__(self, backend: str = "bundled"):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; available: {BACKENDS}")
        self.backend = backend
        self._vars: dict[int, _VarData] = {}
        self._cons: dict[int, float] = {}  # constraint id -> rhs
        self._next_var = 0
        self._next_con = 0
        self._warm: Optional[_WarmState] = None
        self._simplex_arrays: Optional[_Arrays] = None  # dropped on every edit

    # -- editing ---------------------------------------------------------

    def add_variable(
        self,
        obj: float = 0.0,
        lo: float = 0.0,
        hi: float = math.inf,
        kind: VarKind = VarKind.CONTINUOUS,
        coeffs: Optional[Mapping[int, float]] = None,
    ) -> int:
        """New variable; `coeffs` places it into existing constraints."""
        if not math.isfinite(lo):
            raise ValueError("lower bound must be finite")
        if hi < lo:
            raise ValueError(f"empty bound interval [{lo}, {hi}]")
        coeffs = {cid: float(v) for cid, v in (coeffs or {}).items() if v != 0.0}
        for cid in coeffs:
            if cid not in self._cons:
                raise UnknownId(f"constraint {cid} does not exist")
        vid = self._next_var
        self._next_var += 1
        if kind is VarKind.BINARY:
            lo, hi = max(lo, 0.0), min(hi, 1.0)
        self._vars[vid] = _VarData(obj=float(obj), lo=lo, hi=hi, kind=kind, coeffs=coeffs)
        self._simplex_arrays = None
        return vid

    def add_constraint(self, coeffs: Mapping[int, float], rhs: float) -> int:
        """New `sum coeffs[v] * x_v <= rhs` row over existing variables."""
        if not math.isfinite(rhs):
            raise ValueError("right-hand side must be finite")
        for vid in coeffs:
            if vid not in self._vars:
                raise UnknownId(f"variable {vid} does not exist")
        cid = self._next_con
        self._next_con += 1
        self._cons[cid] = float(rhs)
        for vid, coef in coeffs.items():
            if coef != 0.0:
                self._vars[vid].coeffs[cid] = float(coef)
        self._warm = None  # row set changed; cached basis no longer lines up
        self._simplex_arrays = None
        return cid

    def remove_variables(self, ids: Iterable[int]) -> None:
        ids = list(ids)
        for vid in ids:
            if vid not in self._vars:
                raise UnknownId(f"variable {vid} does not exist")
        self._simplex_arrays = None
        for vid in ids:
            del self._vars[vid]
            if self._warm is not None:
                self._warm.at_upper.discard(vid)
                if vid in self._warm.basis_keys:
                    self._warm = None  # removed a basic column; basis is stale

    def set_kind(self, vid: int, kind: VarKind) -> None:
        if vid not in self._vars:
            raise UnknownId(f"variable {vid} does not exist")
        var = self._vars[vid]
        var.kind = kind
        self._simplex_arrays = None
        if kind is VarKind.BINARY:
            var.lo, var.hi = max(var.lo, 0.0), min(var.hi, 1.0)

    def prune(self, sol: LpSolution, candidates: Iterable[int]) -> list[int]:
        """Remove the candidates that sit at zero outside the basis of `sol`.

        When the engine hides the basis, a column with zero reduced cost may be
        basic at a degenerate optimum and is kept. Returns the removed ids.
        """
        drop = []
        for vid in candidates:
            if sol.values.get(vid, 0.0) > INT_TOL:
                continue
            if sol.basic_variables is not None:
                if vid in sol.basic_variables:
                    continue
            elif sol.reduced_costs is not None and abs(sol.reduced_costs.get(vid, 0.0)) <= 1e-7:
                continue
            drop.append(vid)
        if drop:
            self.remove_variables(drop)
        return drop

    # -- introspection ----------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self._vars)

    @property
    def num_constraints(self) -> int:
        return len(self._cons)

    def variable_ids(self) -> list[int]:
        return sorted(self._vars)

    def constraint_ids(self) -> list[int]:
        return sorted(self._cons)

    def column(self, vid: int) -> tuple[float, dict[int, float]]:
        """Objective coefficient and {constraint id: coefficient} of a variable."""
        if vid not in self._vars:
            raise UnknownId(f"variable {vid} does not exist")
        var = self._vars[vid]
        return var.obj, dict(var.coeffs)

    def binary_ids(self) -> list[int]:
        return sorted(v for v, d in self._vars.items() if d.kind is VarKind.BINARY)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return self._cons == other._cons and self._vars == other._vars

    def arrays(self) -> ModelArrays:
        """The model as one CSC matrix plus dense vectors; both engines read this."""
        var_ids = sorted(self._vars)
        con_ids = sorted(self._cons)
        row_of = {cid: i for i, cid in enumerate(con_ids)}
        data: list[float] = []
        rows: list[int] = []
        indptr = [0]
        for vid in var_ids:
            coeffs = self._vars[vid].coeffs
            for cid in sorted(coeffs):
                rows.append(row_of[cid])
                data.append(coeffs[cid])
            indptr.append(len(data))
        a = sp.csc_matrix(
            (
                np.asarray(data, dtype=float),
                np.asarray(rows, dtype=np.int32),
                np.asarray(indptr, dtype=np.int32),
            ),
            shape=(len(con_ids), len(var_ids)),
        )
        columns = [self._vars[vid] for vid in var_ids]
        return ModelArrays(
            var_ids=var_ids,
            con_ids=con_ids,
            a=a,
            b=np.asarray([self._cons[cid] for cid in con_ids], dtype=float),
            c=np.asarray([v.obj for v in columns], dtype=float),
            lo=np.asarray([v.lo for v in columns], dtype=float),
            hi=np.asarray([v.hi for v in columns], dtype=float),
            integrality=np.asarray(
                [1.0 if v.kind is VarKind.BINARY else 0.0 for v in columns], dtype=float
            ),
        )

    def to_lp_format(self) -> str:
        """Debug dump in LP-file style."""
        obj_terms = [f"{v.obj} x{vid}" for vid, v in sorted(self._vars.items()) if v.obj]
        lines = ["Maximize", " obj: " + (" + ".join(obj_terms) if obj_terms else "0")]
        lines.append("Subject To")
        for cid, rhs in sorted(self._cons.items()):
            terms = [
                f"{v.coeffs[cid]} x{vid}"
                for vid, v in sorted(self._vars.items())
                if cid in v.coeffs
            ]
            lines.append(f" c{cid}: " + (" + ".join(terms) if terms else "0") + f" <= {rhs}")
        lines.append("Bounds")
        for vid, v in sorted(self._vars.items()):
            hi = "inf" if math.isinf(v.hi) else v.hi
            lines.append(f" {v.lo} <= x{vid} <= {hi}")
        binaries = self.binary_ids()
        if binaries:
            lines.append("Binaries")
            lines.append(" " + " ".join(f"x{vid}" for vid in binaries))
        lines.append("End")
        return "\n".join(lines) + "\n"

    # -- solving ----------------------------------------------------------

    def solve_lp(self, use_warm_start: bool = True) -> LpSolution:
        """LP relaxation (binaries treated as [0,1] continuous)."""
        if self.backend == "highs":
            return _solve_lp_highs(self)
        return _solve_lp_bundled(self, use_warm_start=use_warm_start)

    def solve_mip(
        self,
        relative_gap: float = 0.0,
        use_warm_start: bool = True,
        deadline: Optional[float] = None,
    ) -> MipSolution:
        """Branch-and-bound over the binary variables to the requested gap."""
        if not 0.0 <= relative_gap < 1.0:
            raise ValueError("relative_gap must lie in [0, 1)")
        if self.backend == "highs":
            return _solve_mip_highs(self, relative_gap, deadline)
        if not use_warm_start:
            self._warm = None
        return _solve_mip_bundled(self, relative_gap, deadline)


# ---------------------------------------------------------------------------
# bundled backend: bounded-variable revised simplex
# ---------------------------------------------------------------------------


@dataclass
class _Arrays:
    """A model's arrays for one simplex solve, with the slack identity appended."""

    var_ids: list[int]
    con_ids: list[int]
    a_ext: sp.csc_matrix  # m x ncols
    a_t: sp.csr_matrix  # a_ext transposed, for pricing all columns at once
    keys: list[int]  # column position -> warm-start key (see _WarmState)
    b: np.ndarray
    c: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    n: int  # structural columns
    m: int


def _build_arrays(model: Model, overrides: Optional[dict[int, tuple[float, float]]]) -> _Arrays:
    # kept on the model until its next edit: the nodes of one B&B share a build
    if model._simplex_arrays is None:
        model._simplex_arrays = _arrays_with_slacks(model.arrays())
    base = model._simplex_arrays
    lo, hi = base.lo.copy(), base.hi.copy()
    for vid, (lo_j, hi_j) in (overrides or {}).items():
        j = bisect_left(base.var_ids, vid)
        lo[j], hi[j] = lo_j, hi_j
    return replace(base, lo=lo, hi=hi)


def _arrays_with_slacks(mat: ModelArrays) -> _Arrays:
    n, m = len(mat.var_ids), len(mat.con_ids)
    a, slack = mat.a, np.arange(m, dtype=np.int32)
    a_ext = sp.csc_matrix(
        (
            np.concatenate([a.data, np.ones(m)]),
            np.concatenate([a.indices, slack]),
            np.concatenate([a.indptr, a.indptr[-1] + 1 + slack]),
        ),
        shape=(m, n + m),
    )
    c = np.concatenate([mat.c, np.zeros(m)])
    lo = np.concatenate([mat.lo, np.zeros(m)])
    hi = np.concatenate([mat.hi, np.full(m, math.inf)])
    keys = mat.var_ids + [-1 - cid for cid in mat.con_ids]
    return _Arrays(mat.var_ids, mat.con_ids, a_ext, a_ext.T.tocsr(), keys, mat.b, c, lo, hi, n, m)


class _SimplexRun:
    """One bounded-variable primal simplex execution over prepared arrays.

    Artificial columns (phase 1) are appended past the slack block; the same
    pivot loop serves both phases.
    """

    def __init__(self, ar: _Arrays, bland: bool = False, paranoid: bool = False):
        self.ar = ar
        self.m = ar.m
        self.bland = bland
        self.a_ext = ar.a_ext
        self.a_t = ar.a_t
        self.lo = ar.lo
        self.hi = ar.hi
        self.ncols = ar.a_ext.shape[1]
        self.check_period = 25 if paranoid else 200
        self.max_iter = 2000 + 20 * (self.m + self.ncols)
        self.art_count = 0

    # -- helpers ----------------------------------------------------------

    def _column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        a = self.a_ext
        s, e = a.indptr[j], a.indptr[j + 1]
        return a.indices[s:e], a.data[s:e]

    def _nonbasic_x(self, vstat: np.ndarray) -> np.ndarray:
        x = np.where(vstat == _AT_UP, self.hi, self.lo)
        x[vstat == _BASIC] = 0.0
        return x

    def _xb(self, vstat: np.ndarray, binv: np.ndarray) -> np.ndarray:
        r = self.ar.b - self.a_ext @ self._nonbasic_x(vstat)
        return binv @ r

    def _refactor(self, basis: np.ndarray) -> np.ndarray:
        return np.asfortranarray(np.linalg.inv(self.a_ext[:, basis].toarray()))

    def _residual(self, basis, vstat, xb) -> float:
        x = self._nonbasic_x(vstat)
        x[basis] = xb
        r = self.ar.b - self.a_ext @ x
        return float(np.max(np.abs(r))) if len(r) else 0.0

    def add_artificials(self, basis, vstat, rows_needing_art: np.ndarray):
        """Swap artificial columns into the basis on the given rows."""
        na = len(rows_needing_art)
        art = sp.csc_matrix(
            (-np.ones(na), (rows_needing_art, np.arange(na))), shape=(self.m, na)
        )
        self.a_ext = sp.hstack([self.a_ext, art], format="csc")
        self.a_t = self.a_ext.T.tocsr()
        self.lo = np.concatenate([self.lo, np.zeros(na)])
        self.hi = np.concatenate([self.hi, np.full(na, math.inf)])
        vstat = np.concatenate([vstat, np.full(na, _AT_LO, dtype=np.int8)])
        for k, i in enumerate(rows_needing_art):
            vstat[basis[i]] = _AT_LO
            basis[i] = self.ncols + k
            vstat[self.ncols + k] = _BASIC
        self.art_count = na
        self.ncols += na
        return basis, vstat

    def fix_artificials_to_zero(self) -> None:
        self.lo[self.ncols - self.art_count :] = 0.0
        self.hi[self.ncols - self.art_count :] = 0.0

    def extended_cost(self, c_real: np.ndarray) -> np.ndarray:
        return np.concatenate([c_real, np.zeros(self.ncols - len(c_real))])

    def phase_one_cost(self) -> np.ndarray:
        c1 = np.zeros(self.ncols)
        c1[self.ncols - self.art_count :] = -1.0
        return c1

    # -- pivot loop ---------------------------------------------------------

    def run(self, c, basis, vstat, binv):
        """Pivot to optimality. Returns (status, xb, y, d, binv)."""
        a_t = self.a_t
        lo, hi = self.lo, self.hi
        xb = self._xb(vstat, binv)
        # cost and bounds of the basic columns, row by row; kept up to date per pivot
        cb, lob, hib = c[basis], lo[basis], hi[basis]
        degen_run = 0
        bland = self.bland
        it = 0
        while True:
            it += 1
            if it > self.max_iter:
                return SolveStatus.NUMERICAL_FAILURE, xb, None, None, binv
            if it % self.check_period == 0 and self._residual(basis, vstat, xb) > 1e-8:
                binv = self._refactor(basis)
                xb = self._xb(vstat, binv)
            y = cb @ binv
            d = c - a_t @ y
            cand = _IMPROVING_SIGN[vstat] * d > OPT_TOL
            if not cand.any():
                return SolveStatus.OPTIMAL, xb, y, d, binv
            # Bland: the first candidate; Dantzig: the first of the largest |d|
            e = cand.argmax() if bland else np.where(cand, np.abs(d), -1.0).argmax()
            t = 1.0 if vstat[e] == _AT_LO else -1.0
            rows_e, data_e = self._column(e)
            w = binv[:, rows_e] @ data_e
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
                    return SolveStatus.UNBOUNDED, xb, None, None, binv
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
                basis[leave_r] = e
                cb[leave_r], lob[leave_r], hib[leave_r] = c[e], lo[e], hi[e]
                vstat[e] = _BASIC
                row = binv[leave_r] / w[leave_r]
                # rank-1 eta update in place (dger needs Fortran layout)
                binv = dger(-1.0, w, row, a=binv, overwrite_a=1)
                binv[leave_r] = row

            if step < 1e-12:
                degen_run += 1
                if degen_run > 150:
                    bland = True
            else:
                degen_run = 0


def _cold_state(ar: _Arrays) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ncols = ar.n + ar.m
    basis = np.arange(ar.n, ncols, dtype=np.int64)
    vstat = np.full(ncols, _AT_LO, dtype=np.int8)
    vstat[basis] = _BASIC
    return basis, vstat, np.eye(ar.m, order="F")


def _warm_state(model: Model, ar: _Arrays):
    warm = model._warm
    if warm is None or len(warm.basis_keys) != ar.m:
        return None
    col_of = dict(zip(ar.keys, range(len(ar.keys))))
    positions = [col_of.get(key) for key in warm.basis_keys]
    if None in positions:
        return None
    basis = np.array(positions, dtype=np.int64)
    vstat = np.full(ar.n + ar.m, _AT_LO, dtype=np.int8)
    for key in warm.at_upper:
        j = col_of.get(key)
        if j is not None and math.isfinite(ar.hi[j]):
            vstat[j] = _AT_UP
    vstat[basis] = _BASIC
    return basis, vstat, warm.binv.copy(order="F")


def _store_warm(model: Model, ar: _Arrays, basis, vstat, binv) -> None:
    if basis.max() >= ar.n + ar.m:
        return  # an artificial is still basic; not worth caching
    keys = [ar.keys[j] for j in basis.tolist()]
    at_upper = {ar.keys[j] for j in np.flatnonzero(vstat[: ar.n + ar.m] == _AT_UP).tolist()}
    model._warm = _WarmState(basis_keys=keys, at_upper=at_upper, binv=binv.copy())


def _solve_lp_bundled(
    model: Model,
    use_warm_start: bool = True,
    overrides: Optional[dict[int, tuple[float, float]]] = None,
) -> LpSolution:
    for attempt in (0, 1):
        ar = _build_arrays(model, overrides)
        if ar.m == 0:
            return _solve_unconstrained(ar)
        sol = _simplex_solve(
            model,
            ar,
            try_warm=use_warm_start and attempt == 0,
            bland=attempt == 1,
            paranoid=attempt == 1,
        )
        if sol.status is not SolveStatus.NUMERICAL_FAILURE:
            return sol
    return sol


def _solve_unconstrained(ar: _Arrays) -> LpSolution:
    values: dict[int, float] = {}
    obj = 0.0
    for j, vid in enumerate(ar.var_ids):
        cj = ar.c[j]
        if cj > 0 and not math.isfinite(ar.hi[j]):
            return LpSolution(SolveStatus.UNBOUNDED, math.inf, {}, {})
        x = ar.hi[j] if cj > 0 else ar.lo[j]
        values[vid] = float(x)
        obj += cj * x
    rc = {vid: float(ar.c[j]) for j, vid in enumerate(ar.var_ids)}
    return LpSolution(SolveStatus.OPTIMAL, obj, values, {}, rc, frozenset())


def _simplex_solve(model, ar, try_warm, bland, paranoid) -> LpSolution:
    sx = _SimplexRun(ar, bland=bland, paranoid=paranoid)
    state = _warm_state(model, ar) if try_warm else None
    used_warm = state is not None
    if state is None:
        state = _cold_state(ar)
    basis, vstat, binv = state
    if used_warm:
        xb = sx._xb(vstat, binv)
        if sx._residual(basis, vstat, xb) > 1e-8:
            try:
                binv = sx._refactor(basis)
            except np.linalg.LinAlgError:
                used_warm = False
                basis, vstat, binv = _cold_state(ar)
    xb = sx._xb(vstat, binv)
    feasible = bool(
        np.all(xb >= sx.lo[basis] - FEAS_TOL) and np.all(xb <= sx.hi[basis] + FEAS_TOL)
    )
    if not feasible and used_warm:
        basis, vstat, binv = _cold_state(ar)
        xb = sx._xb(vstat, binv)
        feasible = bool(np.all(xb >= sx.lo[basis] - FEAS_TOL))

    if not feasible:
        bad_rows = np.flatnonzero(xb < sx.lo[basis] - FEAS_TOL)
        basis, vstat = sx.add_artificials(basis, vstat, bad_rows)
        binv = np.eye(ar.m, order="F")
        binv[bad_rows, bad_rows] = -1.0
        status, xb1, _, _, binv = sx.run(sx.phase_one_cost(), basis, vstat, binv)
        if status is not SolveStatus.OPTIMAL:
            return LpSolution(SolveStatus.NUMERICAL_FAILURE, -math.inf, {}, {})
        infeasibility = float(np.sum(np.maximum(xb1[basis >= ar.n + ar.m], 0.0)))
        if infeasibility > FEAS_TOL:
            return LpSolution(SolveStatus.INFEASIBLE, -math.inf, {}, {})
        sx.fix_artificials_to_zero()

    c = sx.extended_cost(ar.c)
    status, xb, y, d, binv = sx.run(c, basis, vstat, binv)
    if status is SolveStatus.UNBOUNDED:
        return LpSolution(SolveStatus.UNBOUNDED, math.inf, {}, {})
    if status is not SolveStatus.OPTIMAL:
        return LpSolution(SolveStatus.NUMERICAL_FAILURE, -math.inf, {}, {})

    x = sx._nonbasic_x(vstat)
    x[basis] = xb
    resid = ar.b - sx.a_ext @ x
    finite_hi = np.isfinite(sx.hi)
    primal_ok = (
        bool(np.all(resid >= -FEAS_TOL))
        and bool(np.all(x >= sx.lo - FEAS_TOL))
        and bool(np.all(x[finite_hi] <= sx.hi[finite_hi] + FEAS_TOL))
    )
    obj = float(c @ x)
    dpos = np.maximum(d, 0.0)
    dneg = np.minimum(d, 0.0)
    dual_obj = float(y @ ar.b)
    dual_obj += float(dpos[finite_hi] @ sx.hi[finite_hi]) + float(dneg @ sx.lo)
    gap_ok = abs(obj - dual_obj) <= FEAS_TOL * (1.0 + abs(obj))
    dual_ok = bool(np.all(y >= -FEAS_TOL)) and bool(np.all(dpos[~finite_hi] <= 1e-7))
    if not (primal_ok and gap_ok and dual_ok):
        return LpSolution(SolveStatus.NUMERICAL_FAILURE, obj, {}, {})

    values = dict(zip(ar.var_ids, x[: ar.n].tolist()))
    duals = dict(zip(ar.con_ids, y.tolist()))
    rc = dict(zip(ar.var_ids, d[: ar.n].tolist()))
    basic = frozenset(ar.var_ids[j] for j in basis[basis < ar.n].tolist())
    _store_warm(model, ar, basis, vstat, binv)
    return LpSolution(SolveStatus.OPTIMAL, obj, values, duals, rc, basic)


# ---------------------------------------------------------------------------
# bundled backend: depth-first branch and bound
# ---------------------------------------------------------------------------


def _solve_mip_bundled(
    model: Model, relative_gap: float, deadline: Optional[float]
) -> MipSolution:
    binaries = model.binary_ids()
    root = _solve_lp_bundled(model, use_warm_start=True)
    if root.status is SolveStatus.INFEASIBLE:
        return MipSolution(SolveStatus.INFEASIBLE, -math.inf, {}, math.inf)
    if root.status is not SolveStatus.OPTIMAL:
        return MipSolution(root.status, -math.inf, {}, math.inf)
    if not binaries:
        return MipSolution(SolveStatus.OPTIMAL, root.objective, root.values, 0.0)

    inc_val = -math.inf
    inc_values: dict[int, float] = {}
    # DFS stack of (parent LP bound, branching bound overrides)
    stack: list[tuple[float, dict[int, tuple[float, float]]]] = [(root.objective, {})]
    timed_out = False

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
        sol = _solve_lp_bundled(model, use_warm_start=True, overrides=overrides) if overrides else root
        if sol.status is SolveStatus.INFEASIBLE:
            continue
        if sol.status is not SolveStatus.OPTIMAL:
            return MipSolution(SolveStatus.NUMERICAL_FAILURE, inc_val, inc_values, math.inf)
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
        frac.sort(key=lambda p: (-p[0], p[1]))
        j = frac[0][1]
        down = dict(overrides)
        down[j] = (0.0, 0.0)
        up = dict(overrides)
        up[j] = (1.0, 1.0)
        stack.append((sol.objective, down))
        stack.append((sol.objective, up))  # explore the "fix to 1" branch first

    gap = gap_of(global_ub())
    if inc_val == -math.inf:
        status = SolveStatus.TIME_LIMIT if timed_out else SolveStatus.INFEASIBLE
        return MipSolution(status, -math.inf, {}, math.inf)
    if timed_out and gap > relative_gap + 1e-12:
        status = SolveStatus.TIME_LIMIT
    elif gap <= 1e-9:
        status = SolveStatus.OPTIMAL
    else:
        status = SolveStatus.FEASIBLE
    return MipSolution(status, inc_val, inc_values, max(gap, 0.0))


# ---------------------------------------------------------------------------
# highs backend (scipy.optimize)
# ---------------------------------------------------------------------------


_HIGHS_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.NUMERICAL_FAILURE,  # iteration limit
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.NUMERICAL_FAILURE,
}


def _solve_lp_highs(model: Model) -> LpSolution:
    from scipy.optimize import linprog

    mat = model.arrays()
    var_ids, con_ids, a, b = mat.var_ids, mat.con_ids, mat.a, mat.b
    if len(var_ids) == 0:
        feasible = bool(np.all(b >= -FEAS_TOL))
        status = SolveStatus.OPTIMAL if feasible else SolveStatus.INFEASIBLE
        duals = {cid: 0.0 for cid in con_ids} if feasible else {}
        return LpSolution(status, 0.0 if feasible else -math.inf, {}, duals)
    c = -mat.c  # scipy minimizes
    bounds = list(zip(mat.lo, mat.hi))
    res = linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
    if res.status in (2, 4):
        # HiGHS presolve may stop at "infeasible or unbounded" (reported as 2)
        # or an unresolved status (4); the simplex without presolve tells them apart.
        res = linprog(
            c, A_ub=a, b_ub=b, bounds=bounds, method="highs", options={"presolve": False}
        )
    status = _HIGHS_STATUS.get(res.status, SolveStatus.NUMERICAL_FAILURE)
    if status is not SolveStatus.OPTIMAL:
        return LpSolution(status, -math.inf, {}, {})
    values = {vid: float(res.x[j]) for j, vid in enumerate(var_ids)}
    duals = {cid: float(-res.ineqlin.marginals[i]) for i, cid in enumerate(con_ids)}
    rc = None
    if getattr(res, "lower", None) is not None and getattr(res, "upper", None) is not None:
        # bound marginals carry the min-sense reduced costs; negate for max
        rc = {
            vid: float(-(res.lower.marginals[j] + res.upper.marginals[j]))
            for j, vid in enumerate(var_ids)
        }
    return LpSolution(SolveStatus.OPTIMAL, float(-res.fun), values, duals, rc, None)


def _solve_mip_highs(
    model: Model, relative_gap: float, deadline: Optional[float] = None
) -> MipSolution:
    from scipy.optimize import Bounds, LinearConstraint, milp

    mat = model.arrays()
    var_ids = mat.var_ids
    if len(var_ids) == 0:
        feasible = bool(np.all(mat.b >= -FEAS_TOL))
        return MipSolution(
            SolveStatus.OPTIMAL if feasible else SolveStatus.INFEASIBLE,
            0.0 if feasible else -math.inf,
            {},
            0.0 if feasible else math.inf,
        )
    constraints = LinearConstraint(mat.a, -np.inf, mat.b) if len(mat.con_ids) else None
    options: dict = {"mip_rel_gap": relative_gap}
    if deadline is not None:
        options["time_limit"] = max(deadline - time.monotonic(), 0.01)
    res = milp(
        -mat.c,  # scipy minimizes
        constraints=constraints,
        integrality=mat.integrality,
        bounds=Bounds(mat.lo, mat.hi),
        options=options,
    )
    status = _HIGHS_STATUS.get(res.status, SolveStatus.NUMERICAL_FAILURE)
    if res.status == 1:  # iteration/time budget exhausted
        status = SolveStatus.TIME_LIMIT
    if res.x is None:
        return MipSolution(status, -math.inf, {}, math.inf)
    values = {vid: float(res.x[j]) for j, vid in enumerate(var_ids)}
    gap = float(res.mip_gap) if res.mip_gap is not None else math.inf
    if status is SolveStatus.OPTIMAL and gap > 1e-9:
        status = SolveStatus.FEASIBLE
    return MipSolution(status, float(-res.fun), values, gap)
