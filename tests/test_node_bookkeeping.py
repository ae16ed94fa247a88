"""A search keeps per-node bookkeeping only where its strategy reads it:
Dval open-node pieces under Dval selection, pseudo-cost observations
under classic pseudo-costs.  Its LP budgets are made once per cutoff."""

from collections import Counter
from dataclasses import replace

import pytest

import branchlab.criteria as criteria_module
import branchlab.driver as driver_module
from branchlab import lp
from branchlab.bench import default_matrix
from branchlab.costmem import PseudoCostTable
from branchlab.driver import NODE_BUDGET, _Search
from branchlab.instances import corpus_paths
from branchlab.mps import parse_mps


def corpus():
    return [parse_mps(path.read_text()) for path in corpus_paths()]


def counted(seen: Counter, key: str, fn):
    def spy(*args, **kwargs):
        seen[key] += 1
        return fn(*args, **kwargs)
    return spy


@pytest.mark.parametrize("name, dval, pseudo", [
    ("plain-c2a", False, False),
    ("dval-select", True, False),
    ("pseudo-classic", False, True),
])
def test_bookkeeping_runs_only_under_the_strategy_that_reads_it(
        name, dval, pseudo, monkeypatch):
    seen = Counter()
    real_getattr = lp.LpSolution.__getattr__

    def read(self, attr):
        seen[attr] += 1
        return real_getattr(self, attr)

    monkeypatch.setattr(lp.LpSolution, "__getattr__", read)
    monkeypatch.setattr(driver_module, "mincost_sum", counted(
        seen, "mincost_sum", driver_module.mincost_sum))
    monkeypatch.setattr(_Search, "refresh_dval_parts", counted(
        seen, "refresh_dval_parts", _Search.refresh_dval_parts))
    monkeypatch.setattr(PseudoCostTable, "update", counted(
        seen, "pseudo", PseudoCostTable.update))
    config = default_matrix()[name]
    for problem in corpus():
        search = _Search(problem, config)
        search.run()
        seen["dval_parts"] += sum(node.dval_parts is not None
                                  for node in search.nodes.values())
    for key in ("dval_parts", "mincost_sum", "refresh_dval_parts",
                "reduced"):
        assert bool(seen[key]) is dval, (key, seen)
    assert bool(seen["pseudo"]) is pseudo, seen


def test_every_cutoff_keeps_the_budgets_a_solve_would_build(monkeypatch):
    """For every cutoff a search installs, the node budget and the branch
    budgets it keeps equal those built afresh from it, and every LP of
    the search runs under one of the kept objects."""
    current: list[_Search] = []
    cutoffs = set()

    def check(ctx):
        c = ctx.cutoff
        cutoffs.add(c)
        assert ctx.node_budget == replace(NODE_BUDGET, cutoff=c)
        assert ctx.branch_budget() == replace(ctx.budget, cutoff=c)
        for k2, v_lim in ((5, None), (3, 0.25)):
            assert ctx.branch_budget(pivot_limit=k2, v_lim=v_lim) == \
                replace(ctx.budget, cutoff=c, max_pivots=k2, v_lim=v_lim)

    class Checked(_Search):
        def __init__(self, problem, config):
            super().__init__(problem, config)
            check(self.ctx)

        def install_incumbent(self, x, x_o, path_node):
            changed = super().install_incumbent(x, x_o, path_node)
            check(self.ctx)
            return changed

    real_solve = criteria_module.solve

    def solve(model, warm_basis=None, budget=None, cold_memo=None):
        ctx = current[-1].ctx
        assert budget is ctx.node_budget or budget is ctx.default_budget \
            or any(budget is kept for kept in ctx.budgets.values())
        return real_solve(model, warm_basis=warm_basis, budget=budget,
                          cold_memo=cold_memo)

    monkeypatch.setattr(criteria_module, "solve", solve)
    problems = corpus()
    for config in default_matrix().values():
        for problem in problems:
            current.append(Checked(problem, config))
            current[-1].run()
    assert len(cutoffs) > 10
