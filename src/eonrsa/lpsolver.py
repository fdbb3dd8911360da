"""Narrow LP/MIP layer: incremental models, LP duals, MIP with a relative-gap stop.

A ``Model`` keeps its columns as plain Python records by id, and its rows, fixed
from their right-hand sides when it is built, as a list; columns come and go.
The LP and MIP engines of each backend read one CSC form of them,
`Model.arrays()`, built on demand and kept until the next edit. numpy is loaded
then, at the first LP or MIP, and duals come back as one numpy array by row.
Each backend in `BACKENDS` names the package module that holds its two engines,
``solve_lp`` and ``solve_mip``: `eonrsa.bundled`, a revised simplex and
branch-and-bound in numpy, and `eonrsa.highs`, HiGHS. A model imports that module
at its backend's first solve, so a process that solves no LP compiles neither.

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

import enum
import importlib
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from .errors import UnknownId
from .lazy import np

if TYPE_CHECKING:
    from .bundled import _Factor

BACKENDS = ("bundled", "highs")  # each the name of the package module of its engines
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
        return _engines(self.backend).solve_lp(self, deadline=deadline)

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
        engines = _engines(self.backend)
        if not binaries:
            lp = engines.solve_lp(self, deadline=deadline)
            if lp.status is not SolveStatus.OPTIMAL:
                return MipSolution(lp.status, -math.inf, {}, math.inf)
            return MipSolution(SolveStatus.OPTIMAL, lp.objective, lp.values, 0.0)
        mip = engines.solve_mip(self, binaries, relative_gap, deadline)
        if mip.status is not SolveStatus.UNBOUNDED:
            return mip
        probe = Model(self._b, self.backend)  # solved by the engine: model calls never nest
        probe._columns = {vid: [0.0, *col[1:]] for vid, col in self._columns.items()}
        found = engines.solve_mip(probe, binaries, 0.0, deadline).status
        verdict = {SolveStatus.OPTIMAL: mip.status, SolveStatus.UNBOUNDED: SolveStatus.INFEASIBLE}
        return MipSolution(verdict.get(found, found), -math.inf, {}, math.inf)


def _engines(backend: str):
    """The module that holds `backend`'s `solve_lp` and `solve_mip`, imported at its first solve."""
    return importlib.import_module(f"{__package__}.{backend}")
