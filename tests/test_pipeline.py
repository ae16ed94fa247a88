"""The shared branch-evaluation pipeline: disjunctions, pair evaluation,
candidate evaluation with estimates, and compulsory absorption."""

import numpy as np
import pytest

from branchlab import straddle
from branchlab.criteria import (
    BoundDisjunction,
    BranchSignal,
    CompulsorySignal,
    Criterion,
    CriterionSpec,
    EvalContext,
    evaluate_candidates,
    evaluate_pair,
    settle,
)
from branchlab.lp import Basis, LpSolution, LpStatus, solve
from branchlab.model import MipProblem, detect_fractional


def random_ip(rng, n, m, hi=4.0):
    obj = rng.integers(-5, 6, size=n).astype(float)
    rows = rng.integers(-4, 5, size=(m, n)).astype(float)
    mid = rng.uniform(0.5, hi - 0.5, size=n)
    rhs = rows @ mid - rng.uniform(0.2, 2.0, size=m)
    return MipProblem(name="p", obj=obj, rows=rows, rhs=rhs,
                      lower=np.zeros(n), upper=np.full(n, hi),
                      integer_mask=np.ones(n, bool))


def fractional_node(seed, n=5, m=3, min_frac=1):
    rng = np.random.default_rng(seed)
    while True:
        p = random_ip(rng, n, m)
        sol = solve(p.to_lp())
        if sol.status is LpStatus.OPTIMAL:
            frac = detect_fractional(sol, p)
            if len(frac) >= min_frac:
                return p, sol, frac


def test_straddle_pair_builds_the_rows_once(monkeypatch):
    calls = []
    original = straddle.build_straddle_rows

    def counting(*args):
        calls.append(args[2])
        return original(*args)

    monkeypatch.setattr(straddle, "build_straddle_rows", counting)
    for seed in range(20):
        p, sol, frac = fractional_node(seed)
        j = min(frac)
        ctx = EvalContext(problem=p, check_incumbent=False)
        calls.clear()
        try:
            ev = straddle.straddle_eval(p.to_lp(), sol, j, ctx, frac)
        except BranchSignal:
            continue
        if ev.sol_up is not None and ev.sol_down is not None:
            break
    else:
        pytest.fail("no draw with two live straddle children")
    assert calls == [j]
    assert ctx.counters.lp_solves == 2
    for direction, x in (("up", ev.sol_up.x_o), ("down", ev.sol_down.x_o)):
        child, warm, _ = straddle.make_straddle(p.to_lp(), sol, j, direction,
                                                p.integer_mask)
        assert solve(child, warm_basis=warm).x_o == x


def test_estimated_winner_is_solved_and_weighted_alone():
    p, sol, frac = fractional_node(3, n=7, m=4, min_frac=3)
    model = p.to_lp()
    cands = sorted(frac)
    est_set = set(cands[1:])          # the lowest index is LP-solved
    favourite = cands[-1]

    def estimate(j, f_plus, f_minus):
        if j not in est_set:
            return None
        return (0.0, 0.0) if j == favourite else (1e6, 1e6)

    spec = CriterionSpec(criterion=Criterion.C7, w1=1.0, w2=1.0)
    ctx = EvalContext(problem=p, check_incumbent=False)
    evals = evaluate_candidates(model, sol, cands, ctx, spec, frac,
                                estimate=estimate)
    assert ctx.counters.lp_solves == 4
    assert evals[favourite].sol_up is not None
    for j in est_set - {favourite}:
        assert evals[j].sol_up is None and evals[j].eval_up == 1e6
    # each LP-solved set is weighted with its own unit costs only
    for subset in ([cands[0]], [favourite]):
        alone = evaluate_candidates(
            model, sol, subset, EvalContext(problem=p, check_incumbent=False),
            spec, frac)
        for j in subset:
            assert (evals[j].eval_up, evals[j].eval_down) == \
                (alone[j].eval_up, alone[j].eval_down)


class _CannedDisjunction:
    """Children from a table; candidate 2's up child is infeasible."""

    signal_compulsory = True

    def __init__(self, model, sol, j, ctx):
        self.sol, self.j, self.ctx = sol, j, ctx

    def solve(self, direction, budget=None):
        dead = self.j == 2 and direction == "up"
        return LpSolution(
            status=LpStatus.INFEASIBLE if dead else LpStatus.OPTIMAL,
            x_o=self.sol.x_o + 1.0 + self.j, x=np.zeros(3),
            reduced=np.zeros(3), infeas=0.0, pivots=1, basis=Basis(()))


def test_on_pair_sees_every_pair_solved_before_a_signal():
    p = MipProblem(name="c", obj=[1.0, 1.0, 1.0], rows=np.zeros((0, 3)),
                   rhs=[], lower=[0.0] * 3, upper=[1.0] * 3,
                   integer_mask=[True] * 3)
    node = LpSolution(status=LpStatus.OPTIMAL, x_o=0.0,
                      x=np.full(3, 0.5), reduced=np.zeros(3), infeas=0.0,
                      pivots=0, basis=Basis(()))
    frac = {j: (0.5, 0.5) for j in range(3)}
    seen = []
    with pytest.raises(CompulsorySignal) as sig:
        evaluate_candidates(None, node, [2, 0, 1], EvalContext(problem=p),
                            CriterionSpec(), frac, _CannedDisjunction,
                            on_pair=lambda ev: seen.append(ev.var))
    assert seen == [0, 1]
    assert (sig.value.var, sig.value.direction) == (2, "down")


def test_bound_pair_and_absorption_match_direct_solves():
    p, sol, frac = fractional_node(5)
    model = p.to_lp()
    j = min(frac)
    ctx = EvalContext(problem=p, check_incumbent=False)
    ev = evaluate_pair(BoundDisjunction(model, sol, j, ctx), frac)
    fp, fm = frac[j]
    assert ev.uc_up == max(ev.sol_up.x_o - sol.x_o, 1e-9) / fp
    assert ev.uc_down == max(ev.sol_down.x_o - sol.x_o, 1e-9) / fm
    assert ctx.counters.lp_solves == 2
    for direction, rounded in (("up", np.ceil), ("down", np.floor)):
        # the scan forces one branch, then returns on the tightened node
        scans, forced = [], []

        def scan(model, sol, fractions):
            scans.append((model, sol))
            if len(scans) == 1:
                raise CompulsorySignal(j, direction)
            return "picked"

        settled = settle(model, sol, ctx, scan,
                         lambda sig, model, fresh: forced.append(
                             (model, fresh)))
        [(tightened, fresh)] = forced
        bound = tightened.lower if direction == "up" else tightened.upper
        assert bound[j] == rounded(sol.x[j])
        assert fresh.x_o == solve(tightened, warm_basis=sol.basis).x_o
        # both forced children stay fractional, so the node is scanned
        # again, tightened
        assert len(scans) == 2
        assert scans[1][0] is tightened and scans[1][1] is fresh
        assert settled.sol is fresh
        assert (settled.result, settled.closed) == ("picked", None)
    assert ctx.counters.lp_solves == 4
