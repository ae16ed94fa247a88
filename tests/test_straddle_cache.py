"""Straddle children are built once per node basis and answer as fresh ones.

`StraddleDisjunction` keeps both children of x_j on the node's basis,
keyed on the node model's content and bounds, on j and on the
integrality mask.  These tests compare every solve through the kept
children, in the order the winnow and Step 2 make them, with a solve of
a freshly built child, bit for bit.  They check that the rows are built
once per key, that another model at the same basis misses, that
`forget_solves` frees the children, and that a look-ahead search reads
the same with and without the cache and keeps no children once it ends.
"""

import numpy as np

import branchlab.driver as driver
from branchlab import straddle, winnow
from branchlab.bench import default_matrix
from branchlab.criteria import BranchSignal, EvalContext
from branchlab.lp import LpModel, PivotBudget, solve
from branchlab.model import detect_fractional
from branchlab.winnow import WinnowParams
from branchlab.straddle import (
    StraddleDisjunction,
    make_straddle,
)
from oracles import straddle_lp_estimate
from test_driver import random_ip as driver_ip
from test_lp_memo import assert_same_answer, runs  # noqa: F401 (fixture)
from test_straddle import fractional_instance


def nodes(rng):
    """A fractional root and the fractional straddle and bound children
    below it, as (model, solution, fractions) triples."""
    p, sol, frac = fractional_instance(rng, n=5, m=3)
    model = p.to_lp()
    out = [(model, sol, frac)]
    j = min(frac)
    for d in ("up", "down"):
        child, warm, _ = make_straddle(model, sol, j, d, p.integer_mask)
        bound = (model.with_bounds(j, lower=np.ceil(sol.x[j])) if d == "up"
                 else model.with_bounds(j, upper=np.floor(sol.x[j])))
        for kid, start in ((child, warm), (bound, sol.basis)):
            ksol = solve(kid, warm_basis=start)
            kfrac = detect_fractional(ksol, p) if ksol.is_optimal else {}
            if kfrac:
                out.append((kid, ksol, kfrac))
    return p, out


def straddle_children(basis):
    """The straddle children kept on `basis`, one dict per key."""
    return [children for key, children in (basis.children or {}).items()
            if key[-1] == "straddle"]


def fresh_solve(model, sol, j, d, mask, budget):
    child, warm, _ = make_straddle(model, sol, j, d, mask)
    return solve(child, warm_basis=warm, budget=budget)


def test_kept_children_answer_as_fresh_ones(runs):
    rng = np.random.default_rng(707)
    compared = hits = shared = 0
    for draw in range(25):
        p, found = nodes(rng)
        mask = p.integer_mask
        for model, sol, frac in found:
            cutoff = np.inf if draw % 2 else sol.x_o + 0.5
            ctx = EvalContext(problem=p, check_incumbent=False,
                              cutoff=cutoff)
            probe = PivotBudget(max_pivots=1, cutoff=cutoff)
            # winnow order: every estimate, then every truncated solve,
            # then every full solve, each through a new disjunction
            for stage in ("estimate", "truncated", "full"):
                budget = {"estimate": probe,
                          "truncated": ctx.branch_budget(pivot_limit=2),
                          "full": ctx.branch_budget()}[stage]
                for j in sorted(frac):
                    disj = StraddleDisjunction(model, sol, j, ctx)
                    for d in ("up", "down"):
                        child, warm = disj.child(d)
                        before = len(runs)
                        got = solve(child, warm_basis=warm, budget=budget)
                        hits += len(runs) == before
                        want = fresh_solve(model, sol, j, d, mask, budget)
                        assert_same_answer(got, want)
                        compared += 1
                        again = StraddleDisjunction(model, sol, j, ctx)
                        a_child, a_warm = again.child(d)
                        shared += a_child is child and a_warm is warm
    assert compared >= 500
    assert shared == compared
    assert hits >= compared // 3


def test_closed_form_estimate_matches_the_one_pivot_lp():
    rng = np.random.default_rng(909)
    sides = {"finite": 0, "inf": 0}
    for draw in range(30):
        p, found = nodes(rng)
        mask = p.integer_mask
        for model, sol, frac in found:
            for cutoff in (np.inf, sol.x_o + 0.5, sol.x_o + 0.05):
                ctx = EvalContext(problem=p, check_incumbent=False,
                                  cutoff=cutoff)
                for j in sorted(frac):
                    disj = StraddleDisjunction(model, sol, j, ctx)
                    for d in ("up", "down"):
                        got = disj.estimate(d)
                        child, warm, _ = make_straddle(model, sol, j, d,
                                                       mask)
                        want = straddle_lp_estimate(child, warm, sol, cutoff)
                        if np.isinf(want):
                            assert got == want
                            # cut off exactly when the side is not empty
                            uncut = straddle_lp_estimate(child, warm, sol)
                            assert (d in disj.cut_off) == np.isfinite(uncut)
                            sides["inf"] += 1
                        else:
                            assert abs(got - want) <= 1e-9
                            sides["finite"] += 1
    assert min(sides.values()) >= 100, sides


def test_a_stage1_screen_builds_no_child(monkeypatch):
    appended = []
    real = LpModel.with_row

    def counted(self, *args, **kwargs):
        appended.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(LpModel, "with_row", counted)
    rng = np.random.default_rng(17)
    screened = 0
    for _ in range(20):
        p, found = nodes(rng)
        for model, sol, frac in found:
            if len(frac) < 2:
                continue
            ctx = EvalContext(problem=p, check_incumbent=False)
            params = WinnowParams(n1=1)
            appended.clear()
            try:
                f0, f1, _ = winnow.stage1(model, sol, frac, params, ctx,
                                          StraddleDisjunction)
            except BranchSignal:
                continue
            assert set(f0) - set(f1)
            assert appended == []
            assert not straddle_children(sol.basis)
            screened += 1
    assert screened >= 10


def test_children_are_built_on_the_first_child_call():
    p, model, sol, j, ctx = one_node()
    disj = StraddleDisjunction(model, sol, j, ctx)
    disj.estimate("up")
    disj.estimate("down")
    assert not straddle_children(sol.basis)
    up = disj.child("up")
    assert disj.child("up") is up
    assert all(a is b for a, b in zip(disj.child("up"), up))
    later = StraddleDisjunction(model, sol, j, ctx)
    assert all(a is b for a, b in zip(later.child("up"), up))
    assert later.child("down") is disj.child("down")
    sol.basis.forget_solves()
    assert sol.basis.children is None
    fresh = StraddleDisjunction(model, sol, j, ctx).child("up")
    assert fresh[0] is not up[0] and fresh[1] is not up[1]


def test_rows_are_built_once_per_key(monkeypatch):
    calls = []
    real = straddle.build_straddle_rows

    def counted(model, sol, j, mask):
        out = real(model, sol, j, mask)
        calls.append((model, sol.basis, j, out[0]))
        return out

    monkeypatch.setattr(straddle, "build_straddle_rows", counted)
    rng = np.random.default_rng(31)
    for _ in range(10):
        p, found = nodes(rng)
        for model, sol, frac in found:
            ctx = EvalContext(problem=p, check_incumbent=False)
            calls.clear()
            for _ in range(3):
                for j in sorted(frac):
                    disj = StraddleDisjunction(model, sol, j, ctx)
                    for d in ("up", "down"):
                        disj.estimate(d)
                        disj.solve(d)
            assert [c[2] for c in calls] == sorted(frac)
            for built_model, basis, j, rows in calls:
                assert built_model is model and basis is sol.basis
                disj = StraddleDisjunction(model, sol, j, ctx)
                slack = model.n_cols + model.n_rows
                for d in ("up", "down"):
                    child, warm = disj.child(d)
                    w, rhs = rows[d]
                    assert child.rows[-1].tobytes() == w.tobytes()
                    assert child.rhs[-1] == rhs
                    assert warm.basic == sol.basis.basic + (slack,)


def one_node():
    p, sol, frac = fractional_instance(np.random.default_rng(5), n=5, m=3)
    ctx = EvalContext(problem=p, check_incumbent=False)
    return p, p.to_lp(), sol, min(frac), ctx


def test_a_bound_sibling_at_the_same_basis_misses():
    p, model, sol, j, ctx = one_node()
    first = StraddleDisjunction(model, sol, j, ctx)
    # x_j is basic, so a wider upper bound keeps its value and the rows
    sibling = model.with_bounds(j, upper=model.upper[j] + 1.0)
    other = StraddleDisjunction(sibling, sol, j, ctx)
    for d in ("up", "down"):
        mine, theirs = first.child(d)[0], other.child(d)[0]
        assert len(straddle_children(sol.basis)) == 2
        assert theirs is not mine
        assert theirs.upper.tobytes() == sibling.upper.tobytes()
        assert mine.upper.tobytes() == model.upper.tobytes()
        assert_same_answer(
            solve(*other.child(d)),
            fresh_solve(sibling, sol, j, d, p.integer_mask, None))


def test_forget_solves_frees_the_children():
    p, model, sol, j, ctx = one_node()
    disj = StraddleDisjunction(model, sol, j, ctx)
    child, warm = disj.child("up")
    kept = solve(child, warm_basis=warm)
    assert straddle_children(sol.basis)
    sol.basis.forget_solves()
    assert sol.basis.children is None and sol.basis.memo is None
    again = StraddleDisjunction(model, sol, j, ctx).child("up")
    assert again[0] is not child and again[1] is not warm
    assert_same_answer(solve(*again), kept)


LA_STRADDLE = default_matrix()["la-straddle"]
BRANCHING = (74, 75, 89, 93)      # seeds whose searches build many rows


def test_a_search_reads_the_same_without_the_cache(monkeypatch):
    problems = [driver_ip(seed, n=8, m=3, hi=6) for seed in BRANCHING]
    kept = [driver.solve_mip(p, LA_STRADDLE) for p in problems]
    # a key that never repeats rebuilds every child, as before the cache
    monkeypatch.setattr(straddle, "memo_key", lambda model: object())
    for p, a in zip(problems, kept):
        b = driver.solve_mip(p, LA_STRADDLE)
        assert driver.trace_to_json(a.trace) == driver.trace_to_json(b.trace)
        assert a.counters == b.counters
        assert a.x.tobytes() == b.x.tobytes()


def test_children_do_not_outlive_a_search():
    for seed in BRANCHING:
        search = driver._Search(driver_ip(seed, n=8, m=3, hi=6), LA_STRADDLE)
        assert search.run().status == "optimal"
        assert not any(node.solution.basis.children
                       for node in search.nodes.values()
                       if node.solution is not None)
