import math
from dataclasses import replace

import numpy as np
import pytest

from branchlab.criteria import (
    BranchEval,
    CompulsorySignal,
    Criterion,
    CriterionSpec,
    EvalContext,
    Flavor,
    NodeInfeasibleSignal,
    attach_unit_costs,
    evaluate_candidates,
    make_eval,
    rank,
    score,
    select,
    uc_lookup_from,
    vote,
    weight_eval,
)
from branchlab.lp import Basis, LpSolution, LpStatus, PivotBudget, solve
from branchlab.model import MipProblem, detect_fractional


def ev(var, up, dn, **kw):
    return BranchEval(var=var, eval_up=up, eval_down=dn, **kw)


def fake_sol(status, x_o, x=(), infeas=0.0):
    return LpSolution(status=status, x_o=x_o, x=np.array(x, float),
                      reduced=np.zeros(len(x)), infeas=infeas, pivots=0,
                      basis=Basis(basic=()))


def two_int_problem():
    return MipProblem(name="t", obj=[1.0, 1.0], rows=[[1.0, 1.0]],
                      rhs=[1.0], lower=[0.0, 0.0], upper=[4.0, 4.0],
                      integer_mask=[True, True])


class TestEvalPlain:
    def test_subtraction(self):
        ctx = EvalContext(problem=two_int_problem(), x_o_star=math.inf)
        up = fake_sol(LpStatus.OPTIMAL, 7.0, x=(0.3, 0))
        dn = fake_sol(LpStatus.OPTIMAL, 6.5, x=(0.7, 0))
        out = make_eval(0, 5.0, up, dn, ctx)
        assert out.eval_up == pytest.approx(2.0)
        assert out.eval_down == pytest.approx(1.5)
        assert out.direction == "down"

    def test_infeasible_child_scored_at_incumbent_and_compulsory(self):
        ctx = EvalContext(problem=two_int_problem(), x_o_star=9.0)
        up = fake_sol(LpStatus.OPTIMAL, 6.0, x=(0.4, 0))
        dn = fake_sol(LpStatus.INFEASIBLE, math.inf, x=(0, 0))
        with pytest.raises(CompulsorySignal) as sig:
            make_eval(0, 5.0, up, dn, ctx)
        assert sig.value.direction == "up"
        filled = sig.value.evaluation
        assert filled.eval_down == pytest.approx(4.0)  # 9 - 5
        assert filled.sol_down is None

    def test_both_infeasible_kills_the_node(self):
        ctx = EvalContext(problem=two_int_problem())
        dead = fake_sol(LpStatus.CUTOFF_INFEASIBLE, 11.0, x=(0, 0))
        with pytest.raises(NodeInfeasibleSignal):
            make_eval(0, 5.0, dead, dead, ctx)

    def test_the_signal_says_whether_a_side_was_only_cut_off(self):
        ctx = EvalContext(problem=two_int_problem())
        cut = fake_sol(LpStatus.CUTOFF_INFEASIBLE, 11.0, x=(0, 0))
        empty = fake_sol(LpStatus.INFEASIBLE, math.inf, x=(0, 0))
        for up, dn, cutoff in ((empty, empty, False), (cut, empty, True),
                               (empty, cut, True), (cut, cut, True)):
            with pytest.raises(NodeInfeasibleSignal) as sig:
                make_eval(0, 5.0, up, dn, ctx)
            assert sig.value.cutoff is cutoff

    def test_zero_eval_is_kept_but_scored_with_substitute(self):
        ctx = EvalContext(problem=two_int_problem())
        up = fake_sol(LpStatus.OPTIMAL, 5.0, x=(0.5, 0))
        dn = fake_sol(LpStatus.OPTIMAL, 6.0, x=(0.5, 0))
        out = make_eval(0, 5.0, up, dn, ctx)
        assert out.eval_up == 0.0
        s = score(out, CriterionSpec(criterion=Criterion.C1_PRODUCT))
        assert s == pytest.approx(1e-6 * 1.0)


class TestWeightedEvals:
    def test_d1_arithmetic(self):
        # x_oj+ - x_o = 2, child fractional mins {0.4, 0.1}, w1=100, w2=10
        e = ev(0, 2.0, 3.0)
        e.frac_up = {1: (0.6, 0.4), 2: (0.9, 0.1)}
        e.frac_down = {}
        out = weight_eval(e, Flavor.FRAC_WEIGHTED, w1=100.0, w2=10.0)
        assert out.eval_up == pytest.approx(2 + 100 * 0.5)
        assert out.eval_down == pytest.approx(3.0)

    def test_d3_mincost_is_min_of_products(self):
        e = ev(0, 2.0, 3.0)
        e.frac_up = {5: (0.25, 0.75)}
        out = weight_eval(e, Flavor.COST_WEIGHTED, w1=1.0, w2=0.0,
                          uc_lookup=lambda i: (4.0, 10.0))
        # min(4*0.25, 10*0.75) = 1
        assert out.eval_up == pytest.approx(2.0 + 1.0)

    def test_zero_weights_reduce_to_plain(self):
        e = ev(0, 2.0, 3.0)
        e.frac_up = {1: (0.5, 0.5)}
        out = weight_eval(e, Flavor.FRAC_WEIGHTED, w1=0.0, w2=0.0)
        assert out.eval_up == e.eval_up and out.eval_down == e.eval_down

    def test_infeas_term(self):
        e = ev(0, 1.0, 1.0)
        e.infeas_up = 0.3
        out = weight_eval(e, Flavor.FRAC_WEIGHTED, w1=0.0, w2=10.0)
        assert out.eval_up == pytest.approx(4.0)


class TestUnitCosts:
    def test_uc_definition_and_epsilon(self):
        e = ev(0, 2.0, 0.0)
        attach_unit_costs(e, f_plus=0.5, f_minus=0.5)
        assert e.uc_up == pytest.approx(4.0)
        assert e.uc_down == pytest.approx(1e-9 / 0.5)

    def test_rc_fallback(self):
        sol = fake_sol(LpStatus.OPTIMAL, 0.0, x=(0.0, 0.0))
        sol = LpSolution(status=sol.status, x_o=0.0, x=sol.x,
                         reduced=np.array([0.0, 2.5]), infeas=0.0,
                         pivots=0, basis=Basis(basic=()))
        lookup = uc_lookup_from(sol, {})
        assert lookup(1) == (2.5, 2.5)

    def test_lookup_takes_the_first_dict_with_a_unit_cost(self):
        sol = LpSolution(status=LpStatus.OPTIMAL, x_o=0.0, x=np.zeros(4),
                         reduced=np.array([-1.5, 2.5, -3.0, 4.0]),
                         infeas=0.0, pivots=0, basis=Basis(basic=()))
        child = {0: ev(0, 1.0, 1.0, uc_up=1.0, uc_down=2.0),
                 1: ev(1, 1.0, 1.0)}                 # estimated: no UC
        root = {0: ev(0, 1.0, 1.0, uc_up=9.0, uc_down=9.0),
                1: ev(1, 1.0, 1.0, uc_up=3.0, uc_down=4.0),
                2: ev(2, 1.0, 1.0)}
        lookup = uc_lookup_from(sol, child, root)
        assert lookup(0) == (1.0, 2.0)
        assert lookup(1) == (3.0, 4.0)
        assert lookup(2) == (3.0, 3.0)
        assert lookup(3) == (4.0, 4.0)


class TestSelect:
    def test_c1_worked_example(self):
        evals = [ev(0, 2.0, 3.0), ev(1, 1.0, 5.0)]
        spec = CriterionSpec(criterion=Criterion.C1_PRODUCT)
        out = select(evals, spec)
        assert out.var == 0
        assert out.direction == "up"
        assert out.scores[0] == pytest.approx(6.0)
        assert out.scores[1] == pytest.approx(5.0)

    def test_c2a_p1_diverges_from_c1(self):
        evals = [ev(0, 2.0, 3.0), ev(1, 1.0, 5.0)]
        out = select(evals, CriterionSpec(criterion=Criterion.C2A, p=1.0))
        # scores 2*3*1 = 6 vs 1*5*4 = 20
        assert out.var == 1

    def test_c3_threshold_formula(self):
        evals = [ev(0, 1.0, 9.0), ev(1, 2.0, 8.0), ev(2, 5.0, 6.0)]
        out = select(evals, CriterionSpec(criterion=Criterion.C3_THRESHOLD,
                                          lam=0.75))
        # T = 1 + 0.75 * (5 - 1) = 4; only var 2 is eligible
        assert out.var == 2

    def test_c2a_p0_equals_c1_on_random_lists(self):
        rng = np.random.default_rng(42)
        c1 = CriterionSpec(criterion=Criterion.C1_PRODUCT)
        c2 = CriterionSpec(criterion=Criterion.C2A, p=0.0)
        for _ in range(1000):
            k = int(rng.integers(2, 9))
            evals = [ev(j, float(rng.uniform(0.1, 10)),
                        float(rng.uniform(0.1, 10))) for j in range(k)]
            a = select(evals, c1)
            b = select(evals, c2)
            assert (a.var, a.direction) == (b.var, b.direction)

    def test_large_p_reduces_to_max_spread(self):
        rng = np.random.default_rng(43)
        for crit in (Criterion.C2A, Criterion.C2B):
            spec = CriterionSpec(criterion=crit, p=64.0)
            for _ in range(500):
                k = int(rng.integers(2, 9))
                evals = [ev(j, float(rng.uniform(0.1, 10)),
                            float(rng.uniform(0.1, 10))) for j in range(k)]
                spreads = {e.var: abs(e.eval_up - e.eval_down)
                           for e in evals}
                ranked = sorted(spreads.values(), reverse=True)
                # the other factors range over [1e-2, 1e2]; a spread ratio
                # above 10^(4/64) makes the p=64 term dominate provably
                if len(ranked) > 1 and ranked[1] >= ranked[0] / 10 ** (4 / 64):
                    continue
                want = max(sorted(spreads), key=lambda j: (spreads[j], -j))
                got = select(evals, spec)
                assert got.var == want

    def test_scale_invariance_c0_to_c5(self):
        rng = np.random.default_rng(44)
        specs = [
            CriterionSpec(criterion=Criterion.C0_CONVEX, mu=1 / 3),
            CriterionSpec(criterion=Criterion.C1_PRODUCT),
            CriterionSpec(criterion=Criterion.C2A, p=1.0),
            CriterionSpec(criterion=Criterion.C2B, p=2.0),
            CriterionSpec(criterion=Criterion.C3_THRESHOLD, lam=0.5),
            CriterionSpec(criterion=Criterion.C4),
            CriterionSpec(criterion=Criterion.C5, p=0.3),
        ]
        for _ in range(200):
            k = int(rng.integers(2, 7))
            base = [(float(rng.uniform(0.05, 10)),
                     float(rng.uniform(0.05, 10))) for _ in range(k)]
            factor = float(rng.uniform(0.1, 50))
            for spec in specs:
                plain = select([ev(j, u, d) for j, (u, d) in
                                enumerate(base)], spec)
                scaled = select([ev(j, u * factor, d * factor)
                                 for j, (u, d) in enumerate(base)], spec)
                assert plain.var == scaled.var
                assert plain.direction == scaled.direction

    def test_direction_flip(self):
        evals = [ev(0, 2.0, 3.0)]
        spec = CriterionSpec(criterion=Criterion.C1_PRODUCT)
        assert select(evals, spec).direction == "up"
        assert select([ev(0, 3.0, 2.0)], spec).direction == "down"

    def test_minimizing_criteria(self):
        evals = [ev(0, 5.0, 6.0), ev(1, 2.0, 9.0)]
        out = select(evals, CriterionSpec(criterion=Criterion.C6))
        assert out.var == 1


class TestRank:
    SPECS = [CriterionSpec(criterion=c) for c in Criterion
             if c is not Criterion.VOTE] + [
        CriterionSpec(criterion=Criterion.C0_CONVEX, mu=0.5),
        CriterionSpec(criterion=Criterion.C2B, p=2.0),
        CriterionSpec(criterion=Criterion.C3_THRESHOLD, lam=0.25),
        CriterionSpec(criterion=Criterion.C3_THRESHOLD, lam=1.0),
        CriterionSpec(criterion=Criterion.C5, p=0.3),
    ]

    @staticmethod
    def reference_pick(evals: dict, spec) -> int:
        """The selection rule written out on its own: best score, ties to
        the lower index; C3 among Min_j >= T, else the MaxMin variable."""
        scores = {j: score(e, spec) for j, e in evals.items()}
        if spec.criterion is Criterion.C3_THRESHOLD:
            mins = {j: e.min_val for j, e in evals.items()}
            lo, hi = min(mins.values()), max(mins.values())
            eligible = [j for j in sorted(evals)
                        if mins[j] >= lo + spec.lam * (hi - lo)]
            if not eligible:
                return max(sorted(evals), key=lambda j: (mins[j], -j))
            return max(eligible, key=lambda j: (scores[j], -j))
        if spec.criterion in (Criterion.C6, Criterion.C7):
            return min(sorted(evals), key=lambda j: (scores[j], j))
        return max(sorted(evals), key=lambda j: (scores[j], -j))

    def test_head_is_the_selection_on_random_evals(self):
        rng = np.random.default_rng(45)
        # a few repeated values make ties and equal Min_j common
        values = [0.0, 0.1, 0.5, 1.0, 2.0]
        for _ in range(400):
            k = int(rng.integers(1, 8))
            evals = {}
            for j in range(k):
                pair = [float(rng.choice(values)) if rng.random() < 0.5
                        else float(rng.uniform(0.0, 5.0)) for _ in range(2)]
                evals[j] = ev(j, *pair)
            for spec in self.SPECS:
                order = rank(evals, spec)
                assert sorted(order) == sorted(evals)
                assert order[0] == select(evals, spec).var
                assert order[0] == self.reference_pick(evals, spec)
                assert rank(list(evals.values()), spec, 2) == order[:2]

    def test_order_follows_the_scores(self):
        rng = np.random.default_rng(46)
        for _ in range(200):
            evals = {j: ev(j, float(rng.uniform(0, 5)),
                           float(rng.uniform(0, 5))) for j in range(6)}
            for spec in self.SPECS:
                if spec.criterion is Criterion.C3_THRESHOLD:
                    continue
                got = [score(evals[j], spec) for j in rank(evals, spec)]
                if spec.criterion in (Criterion.C6, Criterion.C7):
                    assert got == sorted(got)
                else:
                    assert got == sorted(got, reverse=True)

    def test_c3_puts_the_eligible_first(self):
        evals = {0: ev(0, 1.0, 9.0), 1: ev(1, 2.0, 8.0), 2: ev(2, 5.0, 6.0),
                 3: ev(3, 4.5, 9.5)}
        spec = CriterionSpec(criterion=Criterion.C3_THRESHOLD, lam=0.75)
        # T = 1 + 0.75 * (5 - 1) = 4: vars 3 and 2 are eligible, by spread
        assert rank(evals, spec) == [3, 2, 0, 1]

    def test_c3_threshold_above_every_min_falls_back_to_min_order(self):
        evals = {0: ev(0, 0.03, 5.0), 1: ev(1, 0.3, 0.35),
                 2: ev(2, 0.2, 0.2)}
        spec = CriterionSpec(criterion=Criterion.C3_THRESHOLD, lam=1.0)
        # T = 0.03 + 1.0 * (0.3 - 0.03) rounds to 0.30000000000000004
        assert 0.03 + 1.0 * (0.3 - 0.03) > 0.3
        assert rank(evals, spec) == [1, 2, 0]
        assert select(evals, spec).var == 1

    def test_vote_has_no_ranking(self):
        with pytest.raises(ValueError):
            rank([ev(0, 1.0, 2.0)], CriterionSpec(criterion=Criterion.VOTE))


class TestVote:
    def specs(self):
        return [CriterionSpec(criterion=Criterion.C1_PRODUCT),
                CriterionSpec(criterion=Criterion.C4),
                CriterionSpec(criterion=Criterion.C5, p=0.3)]

    def test_unanimous(self):
        evals = [ev(3, 4.0, 5.0), ev(7, 0.2, 0.3)]
        out = vote(evals, self.specs())
        assert out.var == 3

    def test_majority(self):
        # C1: var0 (36 vs 20); C4: var1 (5*4=20 vs 6*... )
        evals = [ev(0, 6.0, 6.0), ev(1, 1.0, 5.0)]
        picks = [select(evals, s) for s in self.specs()]
        out = vote(evals, self.specs())
        tally = {}
        for p in picks:
            tally[p.var] = tally.get(p.var, 0) + 1
        assert tally[out.var] == max(tally.values())

    def test_three_way_tie_takes_lowest_index(self):
        # engineer one winner per criterion
        evals = [ev(0, 3.0, 3.0),      # C1 favorite: product 9
                 ev(1, 0.1, 4.1),      # C4 favorite: max*spread = 4.1*4
                 ev(2, 2.9, 3.4)]      # C5 with p=0.3 likes balanced sums
        picks = [select(evals, s) for s in self.specs()]
        if len({p.var for p in picks}) == 3:
            out = vote(evals, self.specs())
            assert out.var == min(p.var for p in picks)


class TestEvaluateCandidates:
    def test_two_pass_cost_weighting_and_reuse(self):
        problem = MipProblem(name="m", obj=[-2.0, -3.0],
                             rows=[[-3.0, -2.0], [-1.0, -2.0]],
                             rhs=[-5.0, -4.0], lower=[0.0, 0.0],
                             upper=[3.0, 3.0], integer_mask=[True, True])
        sol = solve(problem.to_lp())
        frac = detect_fractional(sol, problem)
        assert frac
        ctx = EvalContext(problem=problem, check_incumbent=False)
        spec = CriterionSpec(criterion=Criterion.C7, w1=1.0, w2=0.0)
        evals = evaluate_candidates(problem.to_lp(), sol, list(frac), ctx,
                                    spec, frac)
        for j, e in evals.items():
            assert e.uc_up is not None and e.uc_up > 0
            assert e.eval_up >= -1e-9
        assert ctx.counters.lp_solves == 2 * len(frac)


def test_branch_budget_is_made_once_per_cutoff_and_pivot_limit():
    ctx = EvalContext(problem=None, cutoff=5.0,
                      budget=PivotBudget(max_pivots=40, max_degenerate=7))
    full, short = ctx.branch_budget(), ctx.branch_budget(pivot_limit=3)
    early = ctx.branch_budget(pivot_limit=3, v_lim=0.25)
    assert full == PivotBudget(max_pivots=40, max_degenerate=7, cutoff=5.0)
    assert short == PivotBudget(max_pivots=3, max_degenerate=7, cutoff=5.0)
    assert early == replace(short, v_lim=0.25)
    assert ctx.branch_budget() is full
    assert ctx.branch_budget(pivot_limit=3) is short
    assert ctx.branch_budget(pivot_limit=3, v_lim=None) is short
    assert ctx.branch_budget(pivot_limit=3, v_lim=0.25) is early
    ctx.cutoff = 2.0
    assert ctx.branch_budget().cutoff == 2.0
    assert ctx.branch_budget(pivot_limit=40) == replace(full, cutoff=2.0)
