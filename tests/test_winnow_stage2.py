"""When winnow stage 2 runs, and what skipping it elsewhere keeps.

Stage 2 keeps the n2 best of F1, so with |F1| <= n2 it keeps all of F1.
`winnow.run` then skips its truncated pair solves unless the caller asks
for the stage-2 evaluations (`scored=True`): the look-ahead builder does
at its first post-winnow gate depth, where single-F2 proposals are ranked
by them, and under `attract`, whose counters read their directions.

The reference rule ("stage 2 always") is `run(..., scored=True)` at every
call; the tests below put it back behind both aliases the searches call
through, and check that the skip keeps every status, objective and node
count while solving no more LPs and pivots.
"""

import pytest

from branchlab import driver, lookahead, winnow
from branchlab.bench import default_matrix
from branchlab.criteria import EvalContext
from branchlab.driver import SolveConfig, solve_mip
from branchlab.instances import corpus_dir
from branchlab.lookahead import LookaheadConfig
from branchlab.mps import parse_mps
from branchlab.winnow import WinnowParams, run
from test_warm_iterate import FIRST_DEEP, problems
from test_winnow import fractional_problem


@pytest.fixture
def stage2_calls(monkeypatch):
    """(|F1|, n2, depth) of every `winnow.stage2` call."""
    calls = []
    real = winnow.stage2

    def spy(model, sol, f1, fractions, params, ctx, depth, *rest):
        calls.append((len(f1), params.n2_for(depth), depth))
        return real(model, sol, f1, fractions, params, ctx, depth, *rest)

    monkeypatch.setattr(winnow, "stage2", spy)
    return calls


def test_an_f1_within_n2_is_f2_and_solves_nothing(stage2_calls):
    p, sol, frac = fractional_problem()
    ctx = EvalContext(problem=p, check_incumbent=False)
    f2, s2, f1, s1 = run(p.to_lp(), sol, frac, WinnowParams(n1=3), ctx,
                         depth=0)
    assert (f2, s2) == (f1, None) and len(f1) == 3
    assert set(s1) == set(frac)
    assert not stage2_calls and ctx.counters.lp_solves == 0
    # asked for its scores, stage 2 evaluates all of F1 and keeps it
    f2, s2, f1, _ = run(p.to_lp(), sol, frac, WinnowParams(n1=3), ctx,
                        depth=0, scored=True)
    assert sorted(f2) == sorted(f1) and set(s2) == set(f1)
    assert stage2_calls == [(3, 4, 0)]
    assert ctx.counters.lp_solves == 2 * len(f1)


def test_the_default_matrix_runs_stage2_only_where_it_cuts_or_is_read(
        stage2_calls):
    read = set()
    for name, config in default_matrix().items():
        stage2_calls.clear()
        for problem in problems()[:FIRST_DEEP]:
            solve_mip(problem, config)
        la = config.lookahead
        for n_f1, n2, depth in stage2_calls:
            if n_f1 <= n2:
                assert isinstance(la, LookaheadConfig), name
                gated = la.postwin is not None and depth == la.postwin.d0
                assert gated or la.attract is not None, name
                read.add(name)
    # read at the first gated depth, and at every depth under attract
    assert read == {"la-d3-2a", "la-d3-2b", "la-straddle",
                           "la-attract"}


def test_stage2_still_cuts_a_wider_f1(stage2_calls):
    lab19 = parse_mps((corpus_dir() / "lab19.mps").read_text())
    wide = solve_mip(lab19, SolveConfig(winnow=WinnowParams(n1=4)))
    assert len(stage2_calls) == 15
    assert all(n_f1 > n2 for n_f1, n2, _ in stage2_calls)
    # so its early stop still acts on the search
    stopped = solve_mip(lab19, SolveConfig(
        winnow=WinnowParams(n1=4, vlim_mult=0.5)))
    assert (stopped.status, stopped.objective) == (wide.status,
                                                   wide.objective)
    assert stopped.counters != wide.counters


def stage2_always(*args, **kwargs):
    return run(*args, **{**kwargs, "scored": True})


def solve_cells(monkeypatch, family, strategies, rule):
    monkeypatch.setattr(driver, "winnow_run", rule)
    monkeypatch.setattr(lookahead, "winnow_run", rule)
    matrix = default_matrix()
    return {(name, i): solve_mip(p, matrix[name])
            for name in strategies for i, p in enumerate(family)}


# (problems, strategies): the bundled corpus under the whole default
# matrix, and the seed-1 `deep-plain` and `deep-lookahead` workloads
FAMILIES = {
    "corpus": (lambda: problems()[:FIRST_DEEP], tuple(default_matrix())),
    "deep-plain": (lambda: problems()[FIRST_DEEP:FIRST_DEEP + 8],
                   ("plain-c2a", "pseudo-classic", "dval-select")),
    "deep-lookahead": (lambda: problems()[FIRST_DEEP + 8:FIRST_DEEP + 18],
                       ("la-d3-2a", "la-d2-mode")),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_skipping_stage2_keeps_the_search_and_saves_work(monkeypatch,
                                                         family):
    family_problems, strategies = FAMILIES[family]
    family_problems = family_problems()
    old = solve_cells(monkeypatch, family_problems, strategies,
                      stage2_always)
    new = solve_cells(monkeypatch, family_problems, strategies, run)
    for cell, was in old.items():
        now = new[cell]
        assert (now.status, now.objective, now.counters.nodes) == \
            (was.status, was.objective, was.counters.nodes), cell
    for name in strategies:
        cells = [cell for cell in old if cell[0] == name]
        for counter in ("lp_solves", "pivots"):
            was = sum(getattr(old[c].counters, counter) for c in cells)
            now = sum(getattr(new[c].counters, counter) for c in cells)
            assert now <= was, (name, counter)
