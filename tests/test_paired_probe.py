"""Both branch directions priced in one pass, and bound children started
from the column they moved, bit for bit.

`probe_single_pivot` prices both directions of x_j on its first call, in
one pass over x_j's tableau row (`lp._min_ratios`), and keeps both
answers; a straddle disjunction takes both first-pivot ratios of its row
on its first estimate.  The references below are the one-direction forms
these replaced: each call its own pass, in either call order.

`LpModel.with_bounds` records its parent's bound arrays and the column it
moved, and `_Workspace.start_child` starts a child only from that record:
when the probe workspace's model holds those arrays and the column is
basic there.  Any other model, one with equal bounds built apart too,
loads the basis.  A child started so must pass a scan of its bounds
against the workspace's (`fits_child_ref`) and equal a fresh load of the
basis: B^-1, the values, the bounds and the solve.

As in `test_lp_fixed_cost.py`, every comparison is of bits (`same`).
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from branchlab.criteria import EvalContext
from branchlab.lp import (
    CUTOFF_SLACK,
    INF,
    PIVOT_TOL,
    Basis,
    LpModel,
    LpProbeError,
    _probe_workspace,
    _Workspace,
    apply_branch,
    fractional_parts,
    is_fractional,
    probe_single_pivot,
    solve,
)
from branchlab.straddle import StraddleDisjunction, partition_row
from test_kept_work import twin
from test_lp import random_model
from test_lp_factor import random_bases
from test_lp_fixed_cost import fits_child_ref, same
from test_straddle import fractional_instance


def fresh(basis):
    """An equal basis that holds no kept work."""
    return Basis(basis.basic, basis.at_upper)


# -- the replaced forms -----------------------------------------------------


def min_ratio_ref(ws, row, below):
    """The one-direction ratio test each probe made on its own."""
    best = INF
    for col, rc, upper in ws.probe_cols:
        a = row[col]
        if abs(a) <= PIVOT_TOL:
            continue
        if upper:
            a = -a
        if a < 0 if below else a > 0:
            best = min(best, abs(rc / a))
    return best


def probe_ref(model, basis, j, direction):
    """One direction's probe, priced alone at an unkept copy of `basis`."""
    ws = _probe_workspace(model, fresh(basis), "misfit")
    pos = ws.basic.index(j)
    value = ws.beta[pos]
    f_plus, f_minus = fractional_parts(value)
    frac = f_plus if direction == "up" else f_minus
    best = min_ratio_ref(ws, ws.tableau_row(pos).tolist(),
                         below=direction == "up")
    return best * frac if math.isfinite(best) else INF


def first_pivot_ratio_ref(model, basis, row, below):
    return min_ratio_ref(_probe_workspace(model, basis, "misfit"), row,
                         below)


def straddle_estimate_ref(model, sol, j, ctx, direction):
    """One direction's straddle estimate, its ratio test made alone."""
    common, z_row = partition_row(model, sol.basis, j,
                                  ctx.problem.integer_mask)
    up = direction == "up"
    ratio = first_pivot_ratio_ref(model, sol.basis, z_row, below=up)
    if math.isinf(ratio):
        return math.inf
    est = max(float((common["s_o"] if up else common["r_o"]) * ratio), 0.0)
    if sol.x_o + est > ctx.cutoff + CUTOFF_SLACK:
        return math.inf
    return est


# -- the paired probe ---------------------------------------------------------


def probe_sites(rng, count):
    """(model, basis, fractional basic structural columns) at optimal and
    random bases of random models that load."""
    for _ in range(count):
        n, m = int(rng.integers(4, 9)), int(rng.integers(1, 5))
        model = random_model(rng, n, m)
        for basis in [solve(model).basis] + random_bases(rng, n, m, 3):
            try:
                ws = _probe_workspace(model, fresh(basis), "misfit")
            except LpProbeError:
                continue
            frac = [j for pos, j in enumerate(ws.basic)
                    if j < n and is_fractional(ws.beta[pos])]
            if frac:
                yield model, basis, frac


@pytest.mark.parametrize("seed", range(4))
def test_paired_answers_equal_one_direction_probes_in_both_orders(seed):
    rng = np.random.default_rng(2300 + seed)
    checked, empty = 0, 0
    for model, basis, frac in probe_sites(rng, 25):
        for order in (("up", "down"), ("down", "up")):
            sol = SimpleNamespace(basis=fresh(basis))
            for j in frac:
                for d in order:
                    got = probe_single_pivot(model, sol, j, d)
                    assert same(got, probe_ref(model, basis, j, d)), (j, d)
                    # the first call kept both directions' answers
                    state = sol.basis.probe_state
                    assert {(j, "up"), (j, "down")} <= set(state.answers)
                    checked += 1
                    empty += math.isinf(got)
    assert checked >= 200
    assert empty >= 10


def test_a_raising_probe_keeps_neither_direction():
    rng = np.random.default_rng(2310)
    model, basis, frac = next(probe_sites(rng, 10))
    sol = SimpleNamespace(basis=fresh(basis))
    nonbasic = next(j for j in range(model.n_cols)
                    if j not in basis.basic)
    for d in ("up", "down"):
        with pytest.raises(LpProbeError):
            probe_single_pivot(model, sol, nonbasic, d)
    with pytest.raises(LpProbeError):
        probe_single_pivot(model, sol, frac[0], "sideways")
    state = sol.basis.probe_state
    assert state is None or not state.answers


# -- the paired straddle ratios ---------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_straddle_estimates_equal_one_direction_ratio_tests(seed):
    rng = np.random.default_rng(2320 + seed)
    checked, cut = 0, 0
    for draw in range(12):
        p, sol, frac = fractional_instance(rng, n=5, m=3)
        model = p.to_lp()
        cutoff = INF if draw % 2 else sol.x_o + 0.5
        for order in (("up", "down"), ("down", "up")):
            node = replace(sol, basis=fresh(sol.basis))
            ctx = EvalContext(problem=p, check_incumbent=False,
                              cutoff=cutoff)
            for j in sorted(frac):
                disj = StraddleDisjunction(model, node, j, ctx)
                for d in order:
                    before = ctx.counters.probes
                    got = disj.estimate(d)
                    assert ctx.counters.probes == before + 1
                    ref_sol = replace(sol, basis=fresh(sol.basis))
                    want = straddle_estimate_ref(model, ref_sol, j, ctx, d)
                    assert same(got, want), (j, d)
                    cut += d in disj.cut_off
                    checked += 1
                _, z_row = partition_row(model, node.basis, j,
                                         p.integer_mask)
                for below, ratio in zip((True, False), disj.ratios):
                    assert same(ratio, first_pivot_ratio_ref(
                        model, fresh(sol.basis), z_row, below))
    assert checked >= 60
    assert cut >= 10


# -- a bound child started from its recorded column ---------------------------


def bound_changes(rng, model, j):
    """Bounds for `with_bounds(j, ...)`: a branch each way, a lower bound
    raised, and none (column j left as it is)."""
    lo, up = model.lower.item(j), model.upper.item(j)
    mid = float(rng.integers(int(lo), int(up) + 1))
    return [{"lower": mid}, {"upper": mid}, {"lower": lo + 1.0}, {}]


def with_probe(model, basis):
    """An unkept copy of `basis` holding `model`'s probe workspace."""
    start = fresh(basis)
    _probe_workspace(model, start, "misfit")
    return start


STATE = ("binv", "rc", "beta", "_vN", "in_basis", "at_upper", "lo", "up",
         "_lo", "_up")


def assert_same_solution(a, b):
    assert a.status is b.status and a.pivots == b.pivots
    assert same(a.x_o, b.x_o) and same(a.x, b.x)
    assert a.basis == b.basis


@pytest.mark.parametrize("seed", range(3))
def test_a_child_from_its_recorded_column_equals_a_scan_and_a_load(seed):
    rng = np.random.default_rng(2330 + seed)
    seen = {"started": 0, "loaded": 0}
    for _ in range(12):
        n, m = 6, 3
        model = random_model(rng, n, m)
        for basis in [solve(model).basis] + random_bases(rng, n, m, 2):
            try:
                probe = _probe_workspace(model, fresh(basis), "misfit")
            except LpProbeError:
                continue
            # the probe of a twin of the model, which shares its bound
            # arrays, and of a sibling whose bounds differ on column k,
            # which is no child's parent here
            twin_probe = _probe_workspace(twin(model), fresh(basis), "misfit")
            k = int(rng.integers(n))
            sibling = model.with_bounds(k, upper=model.upper[k] - 1.0)
            sibling_probe = _probe_workspace(sibling, fresh(basis), "misfit") \
                if _Workspace(sibling).load_basis(basis) else None
            for j in range(n):
                for bounds in bound_changes(rng, model, j):
                    child = model.with_bounds(j, **bounds)
                    if child.empty_box:
                        continue
                    parent_lower, parent_upper, moved = child._moved
                    assert parent_lower is model.lower and \
                        parent_upper is model.upper and moved == j
                    # the same bounds in a model built apart, which
                    # records no column
                    unrecorded = LpModel(model.obj, model.rows, model.rhs,
                                         child.lower, child.upper)
                    assert unrecorded._moved is None
                    assert probe.start_child(unrecorded) is None
                    got = probe.start_child(child)
                    assert (got is not None) == bool(probe.in_basis[j])
                    again = twin_probe.start_child(child)
                    assert (again is None) == (got is None)
                    if sibling_probe is not None:
                        assert sibling_probe.start_child(child) is None
                    if got is None:
                        seen["loaded"] += 1
                        continue
                    seen["started"] += 1
                    assert fits_child_ref(probe, child)
                    load = _Workspace(child)
                    assert load.load_basis(basis)
                    for ws in (got, again):
                        assert ws.basic == load.basic
                        for name in STATE:
                            assert same(getattr(ws, name),
                                        getattr(load, name)), name
                        assert same(ws.objective(), load.objective())
                    via_column = solve(child, warm_basis=with_probe(model,
                                                                    basis))
                    via_load = solve(child, warm_basis=fresh(basis))
                    unrecorded_load = solve(
                        unrecorded, warm_basis=with_probe(model, basis))
                    assert_same_solution(via_column, via_load)
                    assert_same_solution(unrecorded_load, via_column)
    assert min(seen.values()) >= 50, seen


def test_start_child_reads_the_recorded_column_not_the_bounds():
    rng = np.random.default_rng(2340)
    while True:
        model = random_model(rng, 6, 3)
        sol = solve(model)
        basic = [j for j in sol.basis.basic if j < 6]
        if len(basic) >= 2:
            break
    j, k = basic[:2]
    probe = _probe_workspace(model, sol.basis, "misfit")
    child = model.with_bounds(j, upper=model.upper[j] - 1.0)
    assert probe.start_child(child).up[j] == child.upper[j]
    # the same bounds, recorded as moving k: j keeps the parent's bound,
    # so no comparison of the bound vectors found it
    misnamed = child._derive(_moved=(model.lower, model.upper, k))
    assert probe.start_child(misnamed).up[j] == model.upper[j]
    # a child of the model with a row appended records the same bound
    # arrays, but its rows are not the workspace's
    rowed = model.with_row(np.ones(6), 0.0).with_bounds(
        j, upper=model.upper[j] - 1.0)
    assert rowed._moved[0] is model.lower and \
        rowed._moved[1] is model.upper
    assert probe.start_child(rowed) is None


# -- apply_branch looks up its kept child first -------------------------------


def test_apply_branch_checks_what_no_kept_child_answers():
    rng = np.random.default_rng(2350)
    model, basis, frac = next(probe_sites(rng, 10))
    sol = solve(model, warm_basis=fresh(basis))
    j = next(j for j in sol.basis.basic
             if j < model.n_cols and is_fractional(sol.x[j]))
    up, warm = apply_branch(model, sol, j, "up")
    down, _ = apply_branch(model, sol, j, "down")
    assert warm is sol.basis and up is not down
    assert apply_branch(model, sol, j, "up")[0] is up
    assert apply_branch(twin(model), sol, j, "down")[0] is down
    with pytest.raises(LpProbeError, match="bad direction"):
        apply_branch(model, sol, j, "sideways")
    integral = next(i for i in range(model.n_cols)
                    if not is_fractional(sol.x[i]))
    with pytest.raises(LpProbeError, match="not fractional"):
        apply_branch(model, sol, integral, "up")
