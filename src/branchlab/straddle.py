"""Straddle branching on derived integer variables.

For a fractional basic variable x_j with tableau row

    x_j + sum(a_i * t_i) = x_j°        (t_i: nonbasic columns translated
                                        to sit at 0, integer columns among
                                        them integer-valued)

a derived variable z = x_j + sum(q_i * t_i) with integer q_i is integral
at every MIP point, so z >= ceil(x_j°) or z <= floor(x_j°) is a valid
disjunction.  Writing r_i/s_i for the fractional parts of the translated
coefficient of an integer nonbasic column, the partition

    NB1 = {i : r_i <= r_o}   (q_i = floor(a_i),  up-row coefficient +r_i)
    NB2 = {i : r_i >  r_o}   (q_i = ceil(a_i),   up-row coefficient -s_i)

with r_o = frac(x_j°) gives the two straddle rows

    up:    z+ + sum(r_i t_i, NB1) - sum(s_i t_i, NB2) + sum(d_i t_i) = -s_o
    down:  z- - sum(r_i t_i, NB1) + sum(s_i t_i, NB2) - sum(d_i t_i) = -r_o

where d_i are the raw translated coefficients of continuous columns and
the nonnegative integer slacks z+/z- start basic at -s_o resp. -r_o
(dual feasible, primal infeasible).  Ties r_i = r_o go to NB1.

Each row is appended to the child model as one >= constraint over the
original variables (translated columns substituted back, surplus columns
eliminated through their defining rows); the appended row's surplus IS the
z slack.  Straddle rows whose slack has gone nonbasic are dropped before
deriving further children.

StraddleDisjunction partitions the tableau row once and derives both
children from it, for criteria.evaluate_pair and the winnow estimates.
The children are kept on the node's basis, keyed like its LP memo (the
model's arrays and bounds), on x_j and on the integrality mask, until
`Basis.forget_solves`.  So the stage-1 estimates, the stage-2 truncated
solves and the Step-2 pair solves at that node all load one child model
and warm basis: they share its inverse and its memo, and answer bit for
bit as freshly built children would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from branchlab.criteria import (
    BranchEval,
    EvalContext,
    evaluate_pair,
    solve_warm,
)
from branchlab.lp import (
    Basis,
    LpModel,
    LpProbeError,
    LpSolution,
    LpStatus,
    PivotBudget,
    fractional_parts,
    is_fractional,
    memo_key,
    solve,
    tableau_row_for,
)

COEF_TOL = 1e-9


@dataclass(frozen=True)
class StraddleRow:
    """Construction record for one straddle branch row."""

    var: int
    direction: str
    nb1: tuple[int, ...]            # integer nonbasic columns, floor side
    nb2: tuple[int, ...]            # integer nonbasic columns, ceil side
    r: dict                         # translated fractional parts, NB1
    s: dict                         # translated complements, NB2
    d: dict                         # continuous/surplus column coefficients
    q: dict                         # integer multipliers defining z
    r_o: float
    s_o: float
    slack_col: int                  # surplus column acting as z+ or z-
    shifts: tuple = ()              # (col, kind, bound, row?) translation data

    def z_value(self, x: np.ndarray, model_rows: np.ndarray,
                model_rhs: np.ndarray) -> float:
        """Evaluate z at a point given in original variables."""
        z = float(x[self.var])
        for col, kind, bound, row in self.shifts:
            if col not in self.q:
                continue
            if kind == "lower":
                t = x[col] - bound
            elif kind == "upper":
                t = bound - x[col]
            else:  # surplus of an original row
                t = float(model_rows[row] @ x - model_rhs[row])
            z += self.q[col] * t
        return z


def build_straddle_rows(model: LpModel, sol: LpSolution, j: int,
                        integer_mask: np.ndarray) -> tuple[dict, StraddleRow,
                                                           StraddleRow]:
    """Partition x_j's tableau row and derive both straddle rows.

    Returns (structural row data, up record, down record); the row data
    maps each direction to (coeffs over structural columns, rhs).
    """
    alpha, at_upper, value, n = tableau_row_for(model, sol.basis, j)
    if not is_fractional(value):
        raise LpProbeError(f"x_{j} = {value} is not fractional")
    s_o, r_o = fractional_parts(value)
    ncols = alpha.shape[0]
    basic = set(sol.basis.basic)
    nb1, nb2 = [], []
    r: dict = {}
    s: dict = {}
    d: dict = {}
    q: dict = {}
    coef: dict = {}       # up-row coefficient per nonbasic column
    shifts = []
    for col in range(ncols):
        if col in basic:
            continue
        a_raw = alpha[col]
        if abs(a_raw) <= COEF_TOL:
            continue
        upperside = bool(at_upper[col])
        a_bar = -a_raw if upperside else a_raw
        if col < n:
            kind = "lower" if not upperside else "upper"
            bound = model.upper[col] if upperside else model.lower[col]
            shifts.append((col, kind, float(bound), -1))
        else:
            shifts.append((col, "surplus", 0.0, col - n))
        integer_col = col < n and bool(integer_mask[col])
        if integer_col:
            frac = a_bar - math.floor(a_bar)
            if frac <= COEF_TOL or frac >= 1.0 - COEF_TOL:
                q[col] = round(a_bar)
                continue  # integral coefficient: the column drops out
            if frac <= r_o:
                nb1.append(col)
                r[col] = frac
                q[col] = math.floor(a_bar)
                coef[col] = frac
            else:
                nb2.append(col)
                s[col] = 1.0 - frac
                q[col] = math.ceil(a_bar)
                coef[col] = -(1.0 - frac)
        else:
            d[col] = a_bar
            coef[col] = a_bar

    # substitute original variables back: t = x - L, U - x, or row - rhs
    def to_structural(sign: float, rhs: float):
        w = np.zeros(n)
        const = 0.0
        for col, kind, bound, row in shifts:
            c = coef.get(col)
            if c is None:
                continue
            c *= sign
            if kind == "lower":
                w[col] += -c          # -(c*(x - L)) contributes -c*x
                const += c * bound
            elif kind == "upper":
                w[col] += c           # -(c*(U - x)) contributes +c*x
                const += -c * bound
            else:
                w -= c * model.rows[row]
                const += c * model.rhs[row]
        # row reads: -(sum c_i t_i) >= rhs  =>  w.x >= rhs - const
        return w, rhs - const

    up_row = to_structural(1.0, s_o)
    down_row = to_structural(-1.0, r_o)
    slack = model.n_cols + model.n_rows
    common = dict(var=j, nb1=tuple(nb1), nb2=tuple(nb2), r=r, s=s, d=d,
                  q=q, r_o=r_o, s_o=s_o, slack_col=slack,
                  shifts=tuple(shifts))
    up = StraddleRow(direction="up", **common)
    down = StraddleRow(direction="down", **common)
    return {"up": up_row, "down": down_row}, up, down


def make_straddle(model: LpModel, sol: LpSolution, j: int, direction: str,
                  integer_mask: np.ndarray) -> tuple[LpModel, Basis,
                                                     StraddleRow]:
    """Child model with the straddle row appended and a warm dual start.

    The appended >= row's surplus column is the z slack; it enters the
    basis at -s_o (up) or -r_o (down).
    """
    if direction not in ("up", "down"):
        raise LpProbeError(f"bad direction {direction!r}")
    rows, up, down = build_straddle_rows(model, sol, j, integer_mask)
    rec = up if direction == "up" else down
    return (*_append_row(model, sol, rows[direction], rec.slack_col), rec)


def _append_row(model: LpModel, sol: LpSolution, row: tuple,
                slack_col: int) -> tuple[LpModel, Basis]:
    w, rhs = row
    child = model.with_row(w, rhs, straddle=True)
    warm = Basis(basic=sol.basis.basic + (slack_col,),
                 at_upper=sol.basis.at_upper)
    return child, warm


class StraddleDisjunction:
    """z >= ceil(x_j°) or z <= floor(x_j°) on x_j's derived variable.

    A single dead side only resolves the derived disjunction, not a
    branch on x_j, so it raises no compulsory signal; both sides dead
    still kill the node (the two children partition its MIP-feasible
    set).
    """

    signal_compulsory = False

    def __init__(self, model: LpModel, sol: LpSolution, j: int,
                 ctx: EvalContext):
        self.sol, self.j, self.ctx = sol, j, ctx
        mask = ctx.problem.integer_mask
        key = (memo_key(model), j, mask.tobytes())
        cache = sol.basis.straddle_children
        if cache is None:
            cache = {}
            sol.basis._remember("straddle_children", cache)
        if key not in cache:
            rows, up, _ = build_straddle_rows(model, sol, j, mask)
            # the entry keeps `model`, so the ids in its key stay unique
            cache[key] = model, {
                d: _append_row(model, sol, rows[d], up.slack_col)
                for d in ("up", "down")}
        self.children = cache[key][1]

    def child(self, direction: str) -> tuple[LpModel, Basis]:
        return self.children[direction]

    def solve(self, direction: str,
              budget: PivotBudget | None = None) -> LpSolution:
        child, warm = self.child(direction)
        return solve_straddle_child(child, warm, self.ctx, budget)

    def estimate(self, direction: str) -> float:
        child, warm = self.child(direction)
        return straddle_pivot_estimate(child, warm, self.sol, self.ctx)


def drop_inactive_straddle_rows(model: LpModel,
                                sol: LpSolution) -> tuple[LpModel, Basis | None]:
    """Remove straddle rows whose z slack has left the basis.

    Dropping a row invalidates the basis shape, so the caller gets a cold
    start (None) whenever anything was dropped.
    """
    if not model.straddle_rows:
        return model, sol.basis
    basic = set(sol.basis.basic)
    drop = {row for row, slack in model.straddle_rows if slack not in basic}
    if not drop:
        return model, sol.basis
    return model.without_rows(drop), None


def solve_straddle_child(child: LpModel, warm: Basis, ctx: EvalContext,
                         budget: PivotBudget | None = None) -> LpSolution:
    """Solve one straddle child (same contract as criteria.solve_child)."""
    return solve_warm(child, warm, ctx, budget)


def straddle_eval(model: LpModel, sol: LpSolution, j: int,
                  ctx: EvalContext, fractions: dict,
                  budget: PivotBudget | None = None) -> BranchEval:
    """BranchEval for x_j where both children come from straddle rows."""
    return evaluate_pair(StraddleDisjunction(model, sol, j, ctx), fractions,
                         budget)


def straddle_pivot_estimate(child: LpModel, warm: Basis, sol: LpSolution,
                            ctx: EvalContext) -> float:
    """First-dual-pivot objective change of one straddle child of sol.

    The straddle slack starts as the only violated basic variable, so one
    budgeted pivot realizes exactly the screening estimate; +inf means
    that side of the derived disjunction is empty.
    """
    out = solve(child, warm_basis=warm,
                budget=PivotBudget(max_pivots=1, cutoff=ctx.cutoff))
    ctx.counters.probes += 1
    if out.status is LpStatus.INFEASIBLE or \
            out.status is LpStatus.CUTOFF_INFEASIBLE:
        return math.inf
    return max(out.x_o - sol.x_o, 0.0)
