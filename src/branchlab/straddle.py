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
deriving further children, and the row-dropped model is re-solved cold;
different straddle paths that drop down to the same model are answered
from the search's cold memo, keyed by the model's content, so they share
one solution and one basis and the children kept at it.

A child's first dual pivot needs no child model: at the node's basis
plus the z slack, z's tableau row is its straddle row above, so
`straddle_pivot_estimate` prices that pivot with the node's reduced
costs, as `lp.probe_single_pivot` does on x_j's own row.
`partition_row` is the one loop that splits the tableau row, for the
estimate and for `build_straddle_rows`.

StraddleDisjunction partitions the tableau row on its first estimate
and builds both children on its first child() or solve(), for
criteria.evaluate_pair.  The partition and the children are kept on the
node's basis (`lp.Basis.kept`), keyed like its LP memo (the model's
content and bounds, `memo_key`), on x_j and on the integrality mask, until
`Basis.forget_solves`.  So the estimates, the stage-2 truncated solves
and the Step-2 pair solves at that node all read one partition and load
one child model and warm basis: they share its memo, and answer bit for
bit as freshly built children would.  A candidate
the winnow drops after its stage-1 estimate builds no child at all.
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
    CUTOFF_SLACK,
    Basis,
    LpModel,
    LpProbeError,
    LpSolution,
    PivotBudget,
    first_pivot_ratios,
    fractional_parts,
    is_fractional,
    memo_key,
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


def partition_row(model: LpModel, basis: Basis, j: int,
                  integer_mask: np.ndarray) -> tuple[dict, tuple]:
    """Partition x_j's tableau row at `basis` (module docstring).

    Returns the StraddleRow fields both directions share, and z+'s row of
    the up child's tableau over every column, in `lp.tableau_row` signs:
    the up-row coefficient c_i, negated on a column at its upper bound,
    and 0.0 for a column the row leaves out.  The result is kept on
    `basis`, so every caller shares it and none may change it.
    """
    return basis.kept((memo_key(model), j, integer_mask.tobytes()),
                      lambda: _partition(model, basis, j, integer_mask))


def _partition(model: LpModel, basis: Basis, j: int,
               integer_mask: np.ndarray) -> tuple[dict, tuple]:
    alpha, at_upper, value, n = tableau_row_for(model, basis, j)
    if not is_fractional(value):
        raise LpProbeError(f"x_{j} = {value} is not fractional")
    s_o, r_o = fractional_parts(value)
    basic = set(basis.basic)
    nb1, nb2 = [], []
    r: dict = {}
    s: dict = {}
    d: dict = {}
    q: dict = {}
    z_row = [0.0] * alpha.shape[0]
    shifts = []
    for col, (a_raw, upperside) in enumerate(zip(alpha.tolist(),
                                                 at_upper.tolist())):
        if col in basic or abs(a_raw) <= COEF_TOL:
            continue
        a_bar = -a_raw if upperside else a_raw
        if col < n:
            kind = "lower" if not upperside else "upper"
            bound = model.upper[col] if upperside else model.lower[col]
            shifts.append((col, kind, float(bound), -1))
        else:
            shifts.append((col, "surplus", 0.0, col - n))
        if col < n and integer_mask[col]:
            frac = a_bar - math.floor(a_bar)
            if frac <= COEF_TOL or frac >= 1.0 - COEF_TOL:
                q[col] = round(a_bar)
                continue  # integral coefficient: the column drops out
            if frac <= r_o:
                nb1.append(col)
                r[col] = c = frac
                q[col] = math.floor(a_bar)
            else:
                nb2.append(col)
                s[col] = 1.0 - frac
                c = -(1.0 - frac)
                q[col] = math.ceil(a_bar)
        else:
            d[col] = c = a_bar
        z_row[col] = -c if upperside else c
    common = dict(var=j, nb1=tuple(nb1), nb2=tuple(nb2), r=r, s=s, d=d,
                  q=q, r_o=r_o, s_o=s_o, shifts=tuple(shifts))
    return common, tuple(z_row)


def build_straddle_rows(model: LpModel, sol: LpSolution, j: int,
                        integer_mask: np.ndarray) -> tuple[dict, StraddleRow,
                                                           StraddleRow]:
    """Partition x_j's tableau row and derive both straddle rows.

    Returns (structural row data, up record, down record); the row data
    maps each direction to (coeffs over structural columns, rhs).
    """
    common, z_row = partition_row(model, sol.basis, j, integer_mask)
    n = model.n_cols

    # substitute original variables back: t = x - L, U - x, or row - rhs
    def to_structural(sign: float, rhs: float):
        w = np.zeros(n)
        const = 0.0
        for col, kind, bound, row in common["shifts"]:
            c = z_row[col]
            if c == 0.0:
                continue
            # undo z_row's raw sign on an at-upper column, then sign it
            c *= -sign if kind == "upper" else sign
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

    up_row = to_structural(1.0, common["s_o"])
    down_row = to_structural(-1.0, common["r_o"])
    slack = model.n_cols + model.n_rows
    up = StraddleRow(direction="up", slack_col=slack, **common)
    down = StraddleRow(direction="down", slack_col=slack, **common)
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
        self.model, self.sol, self.j, self.ctx = model, sol, j, ctx
        self.children = None        # both children, on the first child()
        self.ratios = None          # both first-pivot ratios, on the first
                                    # estimate (`straddle_pivot_estimate`)
        self.cut_off: set[str] = set()  # sides estimated past the cutoff

    def child(self, direction: str) -> tuple[LpModel, Basis]:
        if self.children is None:
            self.children = _kept_children(self.model, self.sol, self.j,
                                           self.ctx.problem.integer_mask)
        return self.children[direction]

    def solve(self, direction: str,
              budget: PivotBudget | None = None) -> LpSolution:
        child, warm = self.child(direction)
        return solve_straddle_child(child, warm, self.ctx, budget)

    def estimate(self, direction: str) -> float:
        return straddle_pivot_estimate(self, direction)


def _kept_children(model: LpModel, sol: LpSolution, j: int,
                   mask: np.ndarray) -> dict:
    """Both straddle children of x_j at sol's basis, by direction: built
    once per key and kept with the basis (module docstring)."""
    def build():
        rows, up, _ = build_straddle_rows(model, sol, j, mask)
        return {d: _append_row(model, sol, rows[d], up.slack_col)
                for d in ("up", "down")}

    return sol.basis.kept((memo_key(model), j, mask.tobytes(), "straddle"),
                          build)


def drop_inactive_straddle_rows(model: LpModel,
                                sol: LpSolution) -> tuple[LpModel, Basis | None]:
    """Remove straddle rows whose z slack has left the basis.

    Dropping a row invalidates the basis shape, so the caller gets a cold
    start (None) whenever anything was dropped.  Other straddle paths
    often drop down to the same rows: the caller's cold re-solve, with the
    search's cold memo (`lp.solve`'s `cold_memo`), then finds the first
    one's run by content and returns its solution and basis, with the
    children kept there.
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


def straddle_pivot_estimate(disj: StraddleDisjunction,
                            direction: str) -> float:
    """First-dual-pivot objective change of one straddle child of a node.

    In the child the z slack starts basic at -s_o (up) or -r_o (down),
    the only violated basic variable, and its tableau row is the straddle
    row: over the columns translated to sit at 0 it carries the up-row
    coefficients c (up) or -c (down), since z is an integer combination
    of x_j and those columns (`partition_row` gives z+'s row in raw
    tableau signs, as the child's tableau would).  The other rows, the
    reduced costs and the objective are the node's.  So the child's
    first dual pivot, which the slack leaves below its bound, is the
    ratio test of that row at the node's probe workspace:

        up:    s_o * min(rc_i / |c_i|)  over c_i < 0
        down:  r_o * min(rc_i / c_i)    over c_i > 0

    with no child model built and no LP solved.  The first estimate
    takes both minima in one pass over the row and keeps them on the
    disjunction as `ratios`.  +inf means that side of the derived
    disjunction is empty (no column is eligible), or that its first
    pivot already passes the cutoff, as a budgeted solve of the child
    would stop there; the disjunction notes the latter in `cut_off`.
    """
    sol, ctx = disj.sol, disj.ctx
    common, z_row = partition_row(disj.model, sol.basis, disj.j,
                                  ctx.problem.integer_mask)
    up = direction == "up"
    if disj.ratios is None:
        disj.ratios = first_pivot_ratios(disj.model, sol.basis, z_row)
    # z- has the row -z_row, and leaving below 0 there is the same ratio
    # test as z_row above its bound
    ratio = disj.ratios[0 if up else 1]
    ctx.counters.probes += 1
    if math.isinf(ratio):
        return math.inf
    est = max(float((common["s_o"] if up else common["r_o"]) * ratio), 0.0)
    if sol.x_o + est > ctx.cutoff + CUTOFF_SLACK:
        disj.cut_off.add(direction)
        return math.inf
    return est
