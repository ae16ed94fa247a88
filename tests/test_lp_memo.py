"""The solve memos answer exactly as a fresh run would.

A warm basis keeps the runs started from it, and a search its cold runs,
keyed on the model's content and bounds, with the path of each run.  A
stored run may answer a solve under another budget only when that budget
stops its path at the same iterate with the same status.  These tests
compare every memo answer with a solve that has no memo, bit for bit,
and check that equal content found through other arrays hits, the cases
that must miss, the driver's release of node memos and that no memo
outlives its search.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import branchlab.driver as driver
import branchlab.lookahead as lookahead
import branchlab.lp as lp
from branchlab.bench import default_matrix
from branchlab.criteria import CriterionSpec
from branchlab.instances import corpus_paths
from branchlab.lookahead import LookaheadConfig, PostWinnow
from branchlab.lp import Basis, LpModel, LpStatus, PivotBudget, memo_key, solve
from branchlab.mps import parse_mps
from branchlab.winnow import WinnowParams
from test_driver import random_ip
from test_lp import random_model
from test_lp_factor import fresh_model, random_bases


def bare(basis):
    return Basis(tuple(basis.basic), frozenset(basis.at_upper))


def assert_same_answer(a, b):
    assert a.status is b.status
    assert a.x_o == b.x_o
    assert a.pivots == b.pivots
    assert a.infeas == b.infeas
    assert a.basis == b.basis
    assert a.x.tobytes() == b.x.tobytes()
    assert a.reduced.tobytes() == b.reduced.tobytes()


def path_of(model, basis):
    """The path of an unbudgeted run from a copy of `basis`, or of a
    cold run when `basis` is None."""
    probe = None if basis is None else bare(basis)
    memo = {}
    solve(model, warm_basis=probe, cold_memo=memo)
    [[(path, _)]] = (memo if probe is None else probe.memo).values()
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


def test_memo_answers_equal_fresh_solves(runs):
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
                    before = len(runs)
                    got = solve(child, warm_basis=warm, budget=budget)
                    ran = len(runs) > before
                    want = solve(child, warm_basis=bare(warm), budget=budget)
                    assert_same_answer(got, want)
                    if ran:
                        misses += 1
                    else:
                        hits += 1
                        kinds.add(got.status)
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


def test_equal_content_in_other_arrays_hits(runs):
    child, warm = _branching_child()
    runs.clear()
    first = solve(child, warm_basis=warm)
    # the key is the content, so a model built apart finds the run
    copy = solve(fresh_model(child), warm_basis=warm)
    assert len(runs) == 1 and copy is first
    assert_same_answer(copy, solve(fresh_model(child), warm_basis=bare(warm)))


def test_a_straddle_child_with_other_rows_hits(runs):
    child, warm = _branching_child()
    n, m = child.n_cols, child.n_rows
    slack = n + m
    row_warm = Basis(warm.basic + (slack,), warm.at_upper)
    runs.clear()
    a = child.with_row(np.ones(n), 1.0, straddle=True)
    b = child.with_row(np.ones(n), 1.0, straddle=True)
    assert a.rows is not b.rows
    first = solve(a, warm_basis=row_warm)
    second = solve(b, warm_basis=row_warm)
    assert len(runs) == 1 and second is first
    assert_same_answer(second, solve(b, warm_basis=bare(row_warm)))


def test_other_content_misses(runs):
    """A model that differs from a stored one only in its row matrix, its
    objective, its right-hand side or its straddle marks is another key:
    it makes its own run."""
    child, warm = _branching_child()
    solve(child, warm_basis=warm)
    changed = {}
    for name in ("rows", "obj", "rhs"):
        array = getattr(child, name).copy()
        array.flat[0] += 0.5
        changed[name] = array
    others = [LpModel(**{**fields(child), name: array})
              for name, array in changed.items()]
    others.append(LpModel(**fields(child),
                          straddle_rows=((0, child.n_cols),)))
    for other in others:
        assert memo_key(other) != memo_key(child)
        runs.clear()
        got = solve(other, warm_basis=warm)
        assert len(runs) == 1
        assert_same_answer(got, solve(other, warm_basis=bare(warm)))


def fields(model):
    """The constructor arguments of `model`, but its straddle marks."""
    return {name: getattr(model, name)
            for name in ("obj", "rows", "rhs", "lower", "upper")}


def test_a_cold_solve_of_a_rederived_model_is_answered_without_a_run(runs):
    """A model built apart and an equal one derived by adding a straddle
    row and dropping it again share a cold memo: every budget asked of
    the first answers the second without a run, byte-equal to a solve
    with no memo."""
    rng = np.random.default_rng(707)
    checked = 0
    while checked < 12:
        n, m = int(rng.integers(4, 8)), int(rng.integers(2, 5))
        model = random_model(rng, n, m)
        path = path_of(model, None)
        if len(path) < 3:
            continue
        apart = fresh_model(model)
        derived = model.with_row(rng.normal(size=n), 0.0, straddle=True) \
            .without_rows({m})
        assert derived.rows is not apart.rows
        budgets = budgets_for(path)
        memo = {}
        for budget in budgets:
            solve(apart, budget=budget, cold_memo=memo)
        for budget in budgets:
            runs.clear()
            got = solve(derived, budget=budget, cold_memo=memo)
            assert not runs
            assert_same_answer(got, solve(model, budget=budget))
        checked += 1


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
    the truncated run answers so again after a later solve of the same
    key ran past it."""

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
            assert len(runs) == 1     # a run from the warm basis
            assert_answered(child, warm, tight, sol.pivots)


def test_no_workspace_runs_twice(monkeypatch):
    """Every simplex run of the default matrix on the bundled corpus
    pivots in a workspace of its own: no solve goes on in the workspace
    of a run that an earlier solve returned."""
    entered = {}
    real = lp._run_dual_simplex

    def run(ws, budget):
        assert id(ws) not in entered, "a workspace entered a second run"
        entered[id(ws)] = ws      # held, so that no id is reused
        return real(ws, budget)

    monkeypatch.setattr(lp, "_run_dual_simplex", run)
    problems = [parse_mps(p.read_text()) for p in corpus_paths()]
    for config in default_matrix().values():
        for problem in problems:
            driver.solve_mip(problem, config)
    assert len(entered) > 1000


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


def test_memos_do_not_outlive_a_search(runs, monkeypatch):
    """A second search of one problem builds as many workspaces and makes
    as many runs as the first: no basis memo, and not the search's cold
    memo, carries over.  Under straddle look-ahead the cold memo answers
    some of the look-ahead's row-dropped re-solves within a search."""
    built, asks, started = [], [], []
    real_init = lp._Workspace.__init__
    real_solve = lookahead.solve
    real_first = lp._first_iterate

    def counted(self, model):
        built.append(model)
        real_init(self, model)

    def ask(model, warm_basis=None, budget=None, cold_memo=None):
        asks.append(warm_basis is None)
        return real_solve(model, warm_basis, budget, cold_memo)

    def first(model, warm_basis):
        started.append(warm_basis is None)
        return real_first(model, warm_basis)

    monkeypatch.setattr(lp._Workspace, "__init__", counted)
    monkeypatch.setattr(lookahead, "solve", ask)
    monkeypatch.setattr(lp, "_first_iterate", first)
    for config, seed in ((LOOKAHEAD, 66),
                         (default_matrix()["la-straddle"], 75)):
        problem = random_ip(seed, n=8, m=3, hi=6)
        counts = []
        for _ in range(2):
            for seen in (built, runs, asks, started):
                seen.clear()
            driver.solve_mip(problem, config)
            counts.append((len(built), len(runs), sum(asks), sum(started)))
        assert counts[0] == counts[1] and counts[0][0] > 0
    cold_asks, cold_runs = counts[0][2:]
    assert cold_asks > cold_runs > 0


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
