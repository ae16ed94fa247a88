"""Independent oracles used to freeze expected test values.

The brute-force ones do not touch the simplex engine: LPs are checked by
enumerating basic vertices directly from the constraint data, MIPs by
enumerating the integer lattice inside the variable bounds.  The
straddle estimate oracle is the one place that runs the engine: it
solves an explicit child model, and uses none of the closed form it
checks.
"""

import itertools
import math

import numpy as np

from branchlab.lp import LpStatus, PivotBudget, solve

FEAS = 1e-7


def lp_vertex_minimum(obj, rows, rhs, lower, upper):
    """Minimum of obj.v over {rows.v >= rhs, lower <= v <= upper}.

    Enumerates every choice of n active constraints (rows at equality or
    bounds) and keeps the best feasible solution.  Returns +inf when no
    vertex is feasible (for bounded polytopes that means infeasible).
    """
    obj = np.asarray(obj, float)
    rows = np.asarray(rows, float)
    rhs = np.asarray(rhs, float)
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    n = obj.shape[0]
    cands = []
    for i in range(rows.shape[0]):
        cands.append((rows[i], rhs[i]))
    for j in range(n):
        if math.isfinite(lower[j]):
            e = np.zeros(n)
            e[j] = 1.0
            cands.append((e, lower[j]))
        if math.isfinite(upper[j]):
            e = np.zeros(n)
            e[j] = 1.0
            cands.append((e, upper[j]))
    best = math.inf
    best_x = None
    for combo in itertools.combinations(range(len(cands)), n):
        A = np.array([cands[i][0] for i in combo])
        b = np.array([cands[i][1] for i in combo])
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, b)
        if np.any(x < lower - FEAS) or np.any(x > upper + FEAS):
            continue
        if rows.shape[0] and np.any(rows @ x < rhs - FEAS):
            continue
        val = float(obj @ x)
        if val < best:
            best = val
            best_x = x
    return best, best_x


def mip_lattice_minimum(problem):
    """Enumerate all-integer assignments of a pure-integer MipProblem."""
    assert problem.integer_mask.all(), "lattice oracle needs a pure IP"
    lo = problem.lower.astype(int)
    up = problem.upper.astype(int)
    assert np.all(np.isfinite(problem.upper)), "lattice oracle needs bounds"
    best = math.inf
    best_x = None
    for point in itertools.product(*[range(lo[j], up[j] + 1)
                                     for j in range(problem.n_cols)]):
        x = np.array(point, dtype=float)
        if problem.rows.shape[0] and np.any(
                problem.rows @ x < problem.rhs - FEAS):
            continue
        val = float(problem.obj @ x)
        if val < best:
            best = val
            best_x = x
    return best, best_x


def lattice_points(rows, rhs, lower, upper):
    """All integer points of {rows.v >= rhs} inside the given box."""
    lo = np.asarray(lower, float)
    up = np.asarray(upper, float)
    rows = np.asarray(rows, float)
    rhs = np.asarray(rhs, float)
    pts = []
    ranges = [range(int(math.ceil(lo[j] - FEAS)), int(math.floor(up[j] + FEAS)) + 1)
              for j in range(len(lo))]
    for point in itertools.product(*ranges):
        x = np.array(point, dtype=float)
        if rows.shape[0] and np.any(rows @ x < rhs - FEAS):
            continue
        pts.append(x)
    return pts


def straddle_z_value(rec, x, rows, rhs):
    """The derived variable z of straddle record `rec` at a point `x` given
    in original variables, rebuilt from the record's translation data:
    x_j plus q_i times each translated column's value (its distance from
    the bound it was shifted to, or its row's surplus)."""
    z = float(x[rec.var])
    for col, kind, bound, row in rec.shifts:
        if col not in rec.q:
            continue
        if kind == "lower":
            t = x[col] - bound
        elif kind == "upper":
            t = bound - x[col]
        else:  # surplus of an original row
            t = float(rows[row] @ x - rhs[row])
        z += rec.q[col] * t
    return z


def straddle_lp_estimate(child, warm, sol, cutoff=math.inf):
    """First-dual-pivot objective change of a straddle child, by LP.

    `child` is the node model with the straddle row appended and `warm`
    the node basis plus the row's slack.  The slack starts as the only
    violated basic variable, so one budgeted dual pivot realizes the
    estimate; +inf when the child is infeasible or cut off by then.
    """
    out = solve(child, warm_basis=warm,
                budget=PivotBudget(max_pivots=1, cutoff=cutoff))
    if out.status in (LpStatus.INFEASIBLE, LpStatus.CUTOFF_INFEASIBLE):
        return math.inf
    return max(out.x_o - sol.x_o, 0.0)
