"""MIP problem data, search node state, and incumbent bookkeeping."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from branchlab.lp import (
    INT_TOL,
    LpModel,
    LpSolution,
    fractional_parts,
    frozen,
)


# the incumbent cutoff step of an objective that can take fractional
# values at MIP points
FINE_EPS = 1e-6


class ModelError(Exception):
    pass


class MipProblem:
    """Immutable MIP instance: an LpModel plus the integer column set.

    Integer columns get their global bounds tightened inward to integers at
    construction time.  Column order is meaningful and preserved.  The
    arrays are read-only: copies of the caller's, unless read-only already.

    `eps` is the incumbent cutoff step the objective allows: 1 when every
    MIP point's objective is an integer (each integer column's cost is an
    integer and every other column's is 0), so a better point is better
    by at least 1, and `FINE_EPS` otherwise.
    """

    __slots__ = ("name", "obj", "rows", "rhs", "lower", "upper",
                 "integer_mask", "integer_indices", "col_names", "row_names",
                 "eps", "_lp")

    def __init__(self, name, obj, rows, rhs, lower, upper, integer_mask,
                 col_names=None, row_names=None):
        obj = frozen(obj)
        rows = frozen(rows)
        rhs = frozen(rhs)
        lower = np.array(lower, dtype=float)
        upper = np.array(upper, dtype=float)
        integer_mask = np.array(integer_mask, dtype=bool)
        n = obj.shape[0]
        if rows.size == 0:
            rows = rows.reshape(0, n)
        if integer_mask.shape[0] != n:
            raise ModelError("integer mask length mismatch")
        for j in np.flatnonzero(integer_mask):
            if math.isfinite(lower[j]):
                lower[j] = math.ceil(lower[j] - INT_TOL)
            if math.isfinite(upper[j]):
                upper[j] = math.floor(upper[j] + INT_TOL)
        for a in (lower, upper, integer_mask):
            a.setflags(write=False)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "obj", obj)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "integer_mask", integer_mask)
        object.__setattr__(self, "integer_indices",
                           tuple(int(j) for j in np.flatnonzero(integer_mask)))
        object.__setattr__(self, "col_names",
                           tuple(col_names) if col_names
                           else tuple(f"C{j}" for j in range(n)))
        object.__setattr__(self, "row_names",
                           tuple(row_names) if row_names
                           else tuple(f"R{i}" for i in range(rows.shape[0])))
        integral = np.where(integer_mask, obj == np.floor(obj), obj == 0)
        object.__setattr__(self, "eps",
                           1.0 if integral.all() else FINE_EPS)
        object.__setattr__(self, "_lp", None)

    def __setattr__(self, *a):
        raise AttributeError("MipProblem is immutable")

    def __eq__(self, other):
        if not isinstance(other, MipProblem):
            return NotImplemented
        return (self.name == other.name
                and self.col_names == other.col_names
                and self.row_names == other.row_names
                and np.array_equal(self.obj, other.obj)
                and np.array_equal(self.rows, other.rows)
                and np.array_equal(self.rhs, other.rhs)
                and np.array_equal(self.lower, other.lower)
                and np.array_equal(self.upper, other.upper)
                and np.array_equal(self.integer_mask, other.integer_mask))

    def __hash__(self):
        return hash((self.name, self.col_names))

    @property
    def n_cols(self) -> int:
        return self.obj.shape[0]

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    def is_binary(self, j: int) -> bool:
        return (self.integer_mask[j] and self.lower[j] >= 0
                and self.upper[j] <= 1)

    def to_lp(self) -> LpModel:
        """The problem's LP, built once: every search's root model, which
        shares this problem's arrays, and whose full matrix every node
        model derived from it shares."""
        if self._lp is None:
            object.__setattr__(self, "_lp", LpModel(
                self.obj, self.rows, self.rhs, self.lower, self.upper))
        return self._lp


@dataclass(frozen=True)
class BranchRecord:
    """One imposed restriction: an explicit branch or a compulsory bound."""

    var: int
    direction: str          # "up" | "down"
    bound: float            # the bound imposed (lower for up, upper for down)
    compulsory: bool = False


@dataclass
class NodeState:
    """One node of the search: its LP model plus solve/bookkeeping caches.

    The model is the only record of the node's bounds.  A root's is the
    problem's LP (`MipProblem.to_lp`); a child's is its parent's model
    under the branch (`lp.apply_branch`), and a forced branch replaces it
    with the model its re-solve solved (`criteria.settle`).
    """

    node_id: int
    parent_id: int | None
    depth: int
    branch: BranchRecord | None
    model: LpModel = field(repr=False, compare=False)
    implied: list[BranchRecord] = field(default_factory=list)
    solution: LpSolution | None = None
    bound: float = -math.inf    # best known lower bound on this subtree
    ext_id: int | None = None   # matching node in the extended-tree log
    dval_parts: tuple | None = None
    plan: tuple = ()            # accepted steps left after this node's branch


def fractional(x, problem: MipProblem,
               tol: float = INT_TOL) -> dict[int, tuple[float, float]]:
    """{j: (f_plus, f_minus)} over the integer columns of x whose value is
    further than tol from every integer; empty means integral."""
    values = np.asarray(x, dtype=float).tolist()
    out = {}
    for j in problem.integer_indices:
        v = values[j]
        if abs(v - round(v)) > tol:     # lp.is_fractional, inline
            out[j] = fractional_parts(v)
    return out


def kept_fractional(sol: LpSolution,
                    problem: MipProblem) -> dict[int, tuple[float, float]]:
    """`fractional(sol.x, problem)`, scanned once per solution and kept on
    it as `_fractions`: a solution is only ever scanned for the problem
    its model came from.  Every caller shares the one map, so none may
    change it."""
    kept = sol.__dict__.get("_fractions")
    if kept is None:
        kept = sol.__dict__["_fractions"] = fractional(sol.x, problem)
    return kept


def detect_fractional(sol: LpSolution,
                      problem: MipProblem) -> dict[int, tuple[float, float]]:
    """Fractional integer variables of an optimal solution, the kept map
    (`kept_fractional`); empty means MIP feasible."""
    if not sol.is_optimal:
        raise ModelError("fractional detection needs an optimal solution")
    return kept_fractional(sol, problem)


@dataclass
class Incumbent:
    """Best MIP-feasible solution found so far."""

    x: np.ndarray | None = None
    x_o: float = math.inf
    eps: float = FINE_EPS

    @property
    def cutoff(self) -> float:
        """LP feasibility requires x_o <= incumbent - eps."""
        if math.isinf(self.x_o):
            return math.inf
        return self.x_o - self.eps

    def update(self, x, x_o: float, problem: MipProblem,
               tol: float = INT_TOL) -> bool:
        """Install a strictly better MIP-feasible solution.

        Returns True when the incumbent changed; the caller must then prune
        every live node whose bound is >= the new cutoff.
        """
        x = np.asarray(x, dtype=float)
        if fractional(x, problem, tol):
            raise ModelError("incumbent candidate is not MIP feasible")
        if x_o >= self.x_o:
            return False
        self.x = x.copy()
        self.x_o = float(x_o)
        return True
