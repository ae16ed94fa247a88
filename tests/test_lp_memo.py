"""The per-basis solve memo answers exactly as a fresh run would.

A warm basis keeps the runs started from it, keyed on the model's arrays
and bounds, with the path of each run.  A stored run may answer a solve
under another budget only when that budget stops its path at the same
iterate with the same status.  These tests compare every memo answer with
a solve from an equal basis that has no memo, bit for bit, and check the
cases that must miss and the driver's release of node memos.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import branchlab.driver as driver
import branchlab.lp as lp
from branchlab.criteria import CriterionSpec
from branchlab.lookahead import LookaheadConfig, PostWinnow
from branchlab.lp import Basis, LpStatus, PivotBudget, solve
from branchlab.winnow import WinnowParams
from test_driver import random_ip
from test_lp import random_model
from test_lp_factor import fresh_model, random_bases


def bare(basis):
    return Basis(tuple(basis.basic), frozenset(basis.at_upper))


def stored(basis):
    """Every solution in a basis's memo, by identity."""
    return {id(sol) for runs in (basis.memo or {}).values()
            for _, _, sol, _ in runs}


def assert_same_answer(a, b):
    assert a.status is b.status
    assert a.x_o == b.x_o
    assert a.pivots == b.pivots
    assert a.infeas == b.infeas
    assert a.basis == b.basis
    assert a.x.tobytes() == b.x.tobytes()
    assert a.reduced.tobytes() == b.reduced.tobytes()


def path_of(model, basis):
    """The path of an unbudgeted run from a copy of `basis`."""
    probe = bare(basis)
    solve(model, warm_basis=probe)
    [[(_, path, _, _)]] = probe.memo.values()
    return path


def budgets_for(path):
    """Budgets that stop the path at each of its iterates and beyond."""
    objs = sorted({o for o, _, _ in path})
    cutoffs = [objs[0] - 1.0] + [(a + b) / 2 for a, b in zip(objs, objs[1:])
                                 if b - a > 1e-6]
    viols = sorted({v for _, v, _ in path if v > lp.FEAS_TOL})
    v_lims = [(a + b) / 2 for a, b in zip(viols, viols[1:])]
    v_lims += [v * 2.0 for v in viols[-1:]]
    out = [PivotBudget(), PivotBudget(max_degenerate=1)]
    out += [PivotBudget(max_pivots=k) for k in (1, 2, 3)]
    out += [PivotBudget(cutoff=c) for c in cutoffs]
    out += [PivotBudget(cutoff=c, max_pivots=2) for c in cutoffs]
    out += [PivotBudget(v_lim=v) for v in v_lims]
    return out


@pytest.fixture
def runs(monkeypatch):
    """Counts runs of the simplex loop, i.e. solves the memo did not answer."""
    calls = []
    real = lp._run_dual_simplex

    def counted(ws, budget):
        calls.append(budget)
        return real(ws, budget)

    monkeypatch.setattr(lp, "_run_dual_simplex", counted)
    return calls


def test_memo_answers_equal_fresh_solves():
    rng = np.random.default_rng(606)
    hits = misses = 0
    kinds = set()
    for _ in range(12):
        n, m = int(rng.integers(4, 8)), int(rng.integers(2, 5))
        model = random_model(rng, n, m)
        root = solve(model)
        if root.status is not LpStatus.OPTIMAL:
            continue
        bases = [root.basis] + random_bases(rng, n, m, count=3)
        # one warm basis serves children that differ in one bound only, so
        # the key must tell every bound apart
        j = int(rng.integers(n))
        f = math.floor(root.x[j])
        lo, up = model.lower[j], model.upper[j]
        children = [model.with_bounds(j, upper=u) for u in (f, f - 1)
                    if u >= lo]
        children += [model.with_bounds(j, lower=v) for v in (f + 1, f + 2)
                     if v <= up]
        for basis in bases:
            warm = bare(basis)
            for child in children:
                budgets = budgets_for(path_of(child, warm))
                order = rng.permutation(len(budgets))
                for i in list(order) + list(order):
                    budget = budgets[i]
                    before = stored(warm)
                    got = solve(child, warm_basis=warm, budget=budget)
                    want = solve(child, warm_basis=bare(warm), budget=budget)
                    assert_same_answer(got, want)
                    if id(got) in before:
                        hits += 1
                        kinds.add(got.status)
                    else:
                        misses += 1
    assert hits >= 2000 and misses >= 500
    assert kinds == set(LpStatus)


def _branching_child():
    """(child model, warm basis) whose unbudgeted solve takes >= 2 pivots."""
    rng = np.random.default_rng(11)
    while True:
        model = random_model(rng, 7, 4)
        root = solve(model)
        if root.status is not LpStatus.OPTIMAL:
            continue
        for j in range(model.n_cols):
            child = model.with_bounds(j, upper=math.floor(root.x[j]))
            if solve(child, warm_basis=bare(root.basis)).pivots >= 2:
                return child, bare(root.basis)


def test_a_budget_that_stops_earlier_misses(runs):
    child, warm = _branching_child()
    runs.clear()
    full = solve(child, warm_basis=warm)
    short = solve(child, warm_basis=warm, budget=PivotBudget(max_pivots=1))
    assert len(runs) == 2
    assert short is not full
    assert short.status is LpStatus.PIVOT_LIMIT_HIT and short.pivots == 1
    # both runs stay: each answers its own budget again without a run
    assert solve(child, warm_basis=warm) is full
    assert solve(child, warm_basis=warm,
                 budget=PivotBudget(max_pivots=1)) is short
    assert len(runs) == 2


def test_other_arrays_miss(runs):
    child, warm = _branching_child()
    runs.clear()
    first = solve(child, warm_basis=warm)
    # equal contents in other arrays: the key is identity, so this runs
    copy = solve(fresh_model(child), warm_basis=warm)
    assert len(runs) == 2 and copy is not first
    assert_same_answer(copy, first)


def test_a_straddle_child_with_other_rows_misses(runs):
    child, warm = _branching_child()
    n, m = child.n_cols, child.n_rows
    slack = n + m
    row_warm = Basis(warm.basic + (slack,), warm.at_upper)
    runs.clear()
    a = child.with_row(np.ones(n), 1.0, straddle=True)
    b = child.with_row(np.ones(n), 1.0, straddle=True)
    first = solve(a, warm_basis=row_warm)
    second = solve(b, warm_basis=row_warm)
    assert len(runs) == 2 and second is not first
    assert_same_answer(second, first)
    assert solve(a, warm_basis=row_warm) is first
    assert len(runs) == 2


def cutoff_at_last(path):
    """A cutoff that first stops `path` at its last iterate, or None when
    no earlier iterate's objective stays clear below the last one's."""
    *head, (last, _, _) = path
    if not head:
        return None
    top = max(objective for objective, _, _ in head)
    return (top + last) / 2 if last - top > 1e-6 else None


def stored_runs(seed=808):
    """{status: (child, warm basis, budget, cutoff)} for one stored run of
    each of OPTIMAL, INFEASIBLE and PIVOT_LIMIT_HIT, whose last iterate a
    cutoff stops first."""
    rng = np.random.default_rng(seed)
    found = {}
    while len(found) < 3:
        model = random_model(rng, int(rng.integers(4, 8)),
                             int(rng.integers(2, 5)))
        root = solve(model)
        if root.status is not LpStatus.OPTIMAL:
            continue
        for j in range(model.n_cols):
            f = math.floor(root.x[j])
            for child in (model.with_bounds(j, upper=f - 1),
                          model.with_bounds(j, lower=f + 2)):
                if child.empty_box:
                    continue
                path = path_of(child, root.basis)
                status = solve(child, warm_basis=bare(root.basis)).status
                budget = PivotBudget()
                if status is LpStatus.OPTIMAL and len(path) > 3:
                    # truncated one pivot before its end
                    budget = PivotBudget(max_pivots=len(path) - 2)
                    status, path = LpStatus.PIVOT_LIMIT_HIT, path[:-1]
                cutoff = cutoff_at_last(path)
                if cutoff is not None and status not in found:
                    found[status] = (child, bare(root.basis), budget, cutoff)
    return found


def test_a_cutoff_at_a_stored_last_iterate_is_answered_without_a_run(runs):
    """An OPTIMAL, INFEASIBLE or truncated stored run answers a tighter
    cutoff that first stops it at its last iterate, as a fresh run would;
    the truncated run answers so again after its workspace is continued."""

    def assert_answered(child, warm, tight, pivots):
        runs.clear()
        got = solve(child, warm_basis=warm, budget=tight)
        assert not runs
        want = solve(child, warm_basis=bare(warm), budget=tight)
        assert want.status is LpStatus.CUTOFF_INFEASIBLE
        assert want.pivots == pivots
        assert_same_answer(got, want)

    for status, (child, warm, budget, cutoff) in stored_runs().items():
        sol = solve(child, warm_basis=warm, budget=budget)
        assert sol.status is status
        tight = replace(budget, cutoff=cutoff)
        assert_answered(child, warm, tight, sol.pivots)
        if status is LpStatus.PIVOT_LIMIT_HIT:
            runs.clear()
            assert solve(child, warm_basis=warm).status is LpStatus.OPTIMAL
            assert len(runs) == 1     # the continuation pivoted on
            assert_answered(child, warm, tight, sol.pivots)


def test_solutions_are_read_only():
    sol = solve(random_model(np.random.default_rng(5), 5, 3))
    with pytest.raises(ValueError):
        sol.x[0] = 1.0
    with pytest.raises(ValueError):
        sol.reduced[0] = 1.0


LOOKAHEAD = driver.SolveConfig(
    criterion=CriterionSpec(), winnow=WinnowParams(k2=3),
    lookahead=LookaheadConfig(depth=3,
                              postwin=PostWinnow("2a", lim=3, d0=2)))


def test_memos_do_not_outlive_a_search(monkeypatch):
    built = []
    real = lp._Workspace.__init__

    def counted(self, model):
        built.append(model)
        real(self, model)

    monkeypatch.setattr(lp._Workspace, "__init__", counted)
    problem = random_ip(66, n=8, m=3, hi=6)
    driver.solve_mip(problem, LOOKAHEAD)
    first = len(built)
    driver.solve_mip(problem, LOOKAHEAD)
    assert first > 0 and len(built) == 2 * first


def test_node_memo_is_freed_once_both_children_are_solved(monkeypatch):
    real = driver._Search.ensure_solved
    checked = []
    used = []

    def spy(self, node):
        parent = self.nodes.get(node.parent_id) \
            if node.parent_id is not None else None
        kids = [] if parent is None else \
            [k for k in self.nodes.values() if k.parent_id == parent.node_id]
        if parent is not None and sum(k.solution is None for k in kids) == 1:
            used.append(bool(parent.solution.basis.memo))
        out = real(self, node)
        if parent is not None and all(k.solution is not None for k in kids):
            assert not parent.solution.basis.memo
            checked.append(parent.node_id)
        return out

    monkeypatch.setattr(driver._Search, "ensure_solved", spy)
    for seed in (66, 75, 94):
        search = driver._Search(random_ip(seed, n=8, m=3, hi=6), LOOKAHEAD)
        result = search.run()
        assert result.status == "optimal"
        # the search is over, so no solve starts from any node again
        assert not any(node.solution.basis.memo
                       for node in search.nodes.values()
                       if node.solution is not None)
    assert checked and any(used)
