"""A truncated warm run is continued exactly where it stopped.

A warm run that hit its pivot limit keeps its workspace in the basis's
memo.  A later solve of the same model whose budget stops that run's path
at no iterate pivots on from the kept state instead of starting again
from the warm basis.  These tests compare every continued answer with a
solve from an equal basis that has no memo, bit for bit, and check that
only the remaining pivots run: no workspace is built, the executed pivots
are the difference of the two pivot counts, and refactorizations fall on
the same pivot counts as in the fresh run.
"""

import math
from collections import Counter

import numpy as np
import pytest

import branchlab.lp as lp
from branchlab.lp import LpStatus, PivotBudget, solve
from test_lp import random_model
from test_lp_factor import random_bases
from test_lp_memo import assert_same_answer, bare, path_of


@pytest.fixture
def engine(monkeypatch):
    """Counts simplex runs, workspaces built and pivots executed, and
    records the pivot count at which each refactorization happens."""
    seen = Counter()
    refactors = []
    real_init, real_pivot = lp._Workspace.__init__, lp._Workspace.pivot
    real_refactorize = lp._Workspace.refactorize
    real_run = lp._run_dual_simplex

    def run(ws, budget):
        seen["runs"] += 1
        return real_run(ws, budget)

    def init(self, model):
        seen["workspaces"] += 1
        real_init(self, model)

    def pivot(self, *args):
        seen["pivots"] += 1
        return real_pivot(self, *args)

    def refactorize(self):
        refactors.append(len(self.path))
        real_refactorize(self)

    monkeypatch.setattr(lp, "_run_dual_simplex", run)
    monkeypatch.setattr(lp._Workspace, "__init__", init)
    monkeypatch.setattr(lp._Workspace, "pivot", pivot)
    monkeypatch.setattr(lp._Workspace, "refactorize", refactorize)
    return seen, refactors


def truncating_budgets(path):
    """Budgets that end the path early: 1-3 pivots, a violation limit
    between two of its violations, or one degenerate pivot."""
    viols = sorted({v for _, v, _ in path if v > lp.FEAS_TOL})
    out = [PivotBudget(max_pivots=k) for k in (1, 2, 3)]
    out += [PivotBudget(v_lim=(a + b) / 2) for a, b in zip(viols, viols[1:])]
    out.append(PivotBudget(max_degenerate=1))
    return out


def continuing_budgets(full, k):
    """Budgets that may run past iterate k of the unbudgeted path `full`:
    the default, more pivots, a cutoff between later objectives, and one
    degenerate pivot more than the path has stalled so far."""
    objs = [o for o, _, _ in full[k:]]
    out = [PivotBudget(), PivotBudget(max_pivots=k + 1),
           PivotBudget(max_pivots=k + 2)]
    out += [PivotBudget(cutoff=(a + b) / 2) for a, b in zip(objs, objs[1:])
            if b - a > 1e-6]
    out.append(PivotBudget(
        max_degenerate=max(s for _, _, s in full[:k + 1]) + 1))
    return out


def cases(seed, models):
    """(child, warm basis, unbudgeted path) over random models, warm bases
    and bound-change children."""
    rng = np.random.default_rng(seed)
    for _ in range(models):
        n, m = int(rng.integers(4, 8)), int(rng.integers(2, 5))
        model = random_model(rng, n, m)
        root = solve(model)
        if root.status is not LpStatus.OPTIMAL:
            continue
        j = int(rng.integers(n))
        f = math.floor(root.x[j])
        # a child further from the root optimum runs longer, and more
        # often into an empty ratio test
        children = [model.with_bounds(j, upper=f - d) for d in (0, 1, 2)
                    if f - d >= model.lower[j]]
        children += [model.with_bounds(j, lower=f + d) for d in (1, 2, 3)
                     if f + d <= model.upper[j]]
        for basis in [root.basis] + random_bases(rng, n, m, count=3):
            for child in children:
                yield child, bare(basis), path_of(child, bare(basis))


def continue_and_compare(engine, child, basis, first, then):
    """Solve `child` from a copy of `basis` under `first`, then under
    `then`; the second answer must equal a memo-less solve.  Returns
    (first solution, second solution, whether the second continued)."""
    seen, refactors = engine
    warm = bare(basis)
    seen.clear()
    refactors.clear()
    short = solve(child, warm_basis=warm, budget=first)
    first_refactors = list(refactors)
    before = Counter(seen)
    got = solve(child, warm_basis=warm, budget=then)
    ran = seen["runs"] - before["runs"]
    built = seen["workspaces"] - before["workspaces"]
    executed = seen["pivots"] - before["pivots"]
    done = list(refactors)
    refactors.clear()
    want = solve(child, warm_basis=bare(basis), budget=then)
    assert_same_answer(got, want)
    resumed = ran == 1 and built == 0
    if resumed:
        assert short.status is LpStatus.PIVOT_LIMIT_HIT
        assert executed == want.pivots - short.pivots
        # the continuation refactors where a fresh run does
        assert done == refactors and first_refactors == \
            [r for r in refactors if r <= short.pivots]
    return short, got, resumed


def test_continued_runs_equal_fresh_solves(engine):
    resumed = 0
    ends = set()
    for child, basis, full in cases(606, 10):
        for first in truncating_budgets(full):
            short = solve(child, warm_basis=bare(basis), budget=first)
            if short.status is not LpStatus.PIVOT_LIMIT_HIT:
                continue
            k = short.pivots
            for then in continuing_budgets(full, k):
                if lp._first_stop(full[:k + 1], then) is not None:
                    continue
                _, got, went_on = continue_and_compare(
                    engine, child, basis, first, then)
                # every budget that stops the path nowhere continues it
                assert went_on
                resumed += 1
                ends.add(got.status)
    assert resumed >= 800
    assert ends == set(LpStatus)


def test_a_continuation_crosses_a_refactorization(engine, monkeypatch):
    monkeypatch.setattr(lp, "REFACTOR_EVERY", 2)
    _, refactors = engine
    crossed = 0
    for child, basis, full in cases(808, 16):
        if len(full) < 4:
            continue
        for k in (1, 2):
            _, got, went_on = continue_and_compare(
                engine, child, basis, PivotBudget(max_pivots=k),
                PivotBudget())
            assert went_on
            # `refactors` now holds the fresh run's
            crossed += any(r > k for r in refactors)
    assert crossed >= 20


def test_a_stall_count_carries_over(engine):
    """A run truncated by one degenerate pivot goes on to a cap of two,
    which a fresh run reaches with the degenerate pivot before the cut."""
    carried = 0
    for child, basis, full in cases(909, 40):
        cap = PivotBudget(max_degenerate=1)
        if lp._first_stop(full, cap) is None:
            continue
        _, got, went_on = continue_and_compare(
            engine, child, basis, cap, PivotBudget(max_degenerate=2))
        if went_on and got.status is LpStatus.PIVOT_LIMIT_HIT \
                and full[got.pivots][2] == 2:
            carried += 1
    assert carried >= 3


def test_a_truncated_run_is_continued_once(engine):
    seen, _ = engine
    checked = 0
    for child, basis, full in cases(1010, 16):
        if len(full) < 4:
            continue
        # a continuation that is itself truncated keeps the workspace, and
        # the next continuation goes on from there
        warm = bare(basis)
        solve(child, warm_basis=warm, budget=PivotBudget(max_pivots=1))
        solve(child, warm_basis=warm, budget=PivotBudget(max_pivots=2))
        [kept] = [path for path, _, ws in warm.memo[lp.memo_key(child)]
                  if ws is not None]
        assert len(kept) == 3
        before = Counter(seen)
        got = solve(child, warm_basis=warm)
        assert seen["workspaces"] == before["workspaces"]
        assert seen["pivots"] - before["pivots"] == got.pivots - 2
        assert_same_answer(got, solve(child, warm_basis=bare(basis)))
        # the first continuation took the truncated run's state, so a
        # second budget that stops before the continued run's end runs
        # from the warm basis, and both answers stay exact
        warm = bare(basis)
        solve(child, warm_basis=warm, budget=PivotBudget(max_pivots=1))
        longer = solve(child, warm_basis=warm, budget=PivotBudget(
            max_pivots=3))
        before = Counter(seen)
        second = solve(child, warm_basis=warm, budget=PivotBudget(
            max_pivots=2))
        assert seen["workspaces"] == before["workspaces"] + 1
        assert_same_answer(second, solve(child, warm_basis=bare(basis),
                                         budget=PivotBudget(max_pivots=2)))
        assert_same_answer(longer, solve(child, warm_basis=bare(basis),
                                         budget=PivotBudget(max_pivots=3)))
        checked += 1
    assert checked >= 10


def test_only_truncated_runs_keep_their_workspace():
    statuses = Counter()
    for child, basis, full in cases(1111, 8):
        warm = bare(basis)
        for budget in [PivotBudget(), PivotBudget(max_pivots=1),
                       PivotBudget(cutoff=full[0][0] - 1.0)]:
            solve(child, warm_basis=warm, budget=budget)
        for _, sol, ws in warm.memo[lp.memo_key(child)]:
            assert (ws is not None) == \
                (sol.status is LpStatus.PIVOT_LIMIT_HIT)
            statuses[sol.status] += 1
    assert statuses[LpStatus.PIVOT_LIMIT_HIT] >= 10
    assert len(statuses) >= 3
