import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from branchlab import criteria, lookahead, winnow
from branchlab.criteria import (
    BranchSignal,
    CompulsorySignal,
    Criterion,
    CriterionSpec,
    EvalContext,
    IncumbentSignal,
    evaluate_candidates,
    score,
    select,
)
from branchlab.driver import SolveConfig, solve_mip
from branchlab.lookahead import (
    AttractConfig,
    AttractCounters,
    D2Config,
    LookaheadConfig,
    PostWinnow,
    build_d2_tree,
    build_multi_trees,
    build_tree,
    _Builder,
    _root_node,
)
from branchlab.instances import corpus_dir, corpus_paths
from branchlab.lp import LpStatus, PivotBudget, solve
from branchlab.model import MipProblem, detect_fractional
from branchlab.mps import parse_mps
from branchlab.winnow import WinnowParams
from test_warm_iterate import FIRST_DEEP, problems


def triangle_fixture(n_triangles=7, seed=0):
    """Vertex-cover LP over disjoint triangles: every unresolved triangle
    keeps its three variables at 1/2, so nodes stay feasible and
    fractional throughout a shallow look-ahead tree."""
    rng = np.random.default_rng(seed)
    n = 3 * n_triangles
    rows = []
    for t in range(n_triangles):
        a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
        for (i, j) in ((a, b), (b, c), (c, a)):
            row = np.zeros(n)
            row[i] = 1.0
            row[j] = 1.0
            rows.append(row)
    weights = 1.0 + rng.uniform(0.0, 1.0, size=n)
    return MipProblem(name="triangles", obj=weights, rows=np.array(rows),
                      rhs=np.ones(len(rows)), lower=np.zeros(n),
                      upper=np.ones(n), integer_mask=np.ones(n, bool))


def make_ctx(problem):
    return EvalContext(problem=problem, check_incumbent=False)


def base_cfg(winnow=WinnowParams(k2=3), **kw):
    """Look-ahead that ranks the winnow and picks its branches by C1."""
    return SolveConfig(criterion=CriterionSpec(), winnow=winnow,
                       lookahead=LookaheadConfig(**{"depth": 3, **kw}))


def d2_cfg(v):
    """The two-level mode picking by C1; it sets its own stage sizes."""
    return SolveConfig(criterion=CriterionSpec(), lookahead=D2Config(v=v))


def build(problem, cfg):
    sol = solve(problem.to_lp())
    assert sol.is_optimal
    ctx = make_ctx(problem)
    return build_tree(problem, problem.to_lp(), sol, cfg, ctx)


class TestTreeCounts:
    def test_depth3_full_tree_has_14_nodes(self):
        result = build(triangle_fixture(), base_cfg(depth=3))
        assert result.depth_counts == [2, 4, 8]
        assert result.total_nodes == 14

    def test_depth6_full_tree_has_126_nodes(self):
        result = build(triangle_fixture(9), base_cfg(depth=6))
        assert result.depth_counts == [2, 4, 8, 16, 32, 64]
        assert result.total_nodes == 126

    def test_postwin_2a_gives_48(self):
        result = build(triangle_fixture(9), base_cfg(
            depth=6, postwin=PostWinnow("2a", lim=3, d0=2)))
        assert result.depth_counts == [2, 4, 6, 12, 12, 12]
        assert result.total_nodes == 48

    def test_postwin_2b_gives_30(self):
        result = build(triangle_fixture(9), base_cfg(
            depth=6, postwin=PostWinnow("2b", lim=3, d0=2)))
        assert result.depth_counts == [2, 4, 6, 6, 6, 6]
        assert result.total_nodes == 30

    def test_postwin_2c_caps_single_nodes(self):
        result = build(triangle_fixture(9), base_cfg(
            depth=6, postwin=PostWinnow("2c", lim=2, d0=2)))
        # carried sets hold 2 nodes, possibly sharing a parent
        assert result.depth_counts[0:2] == [2, 4]
        assert all(c <= 4 for c in result.depth_counts[3:])

    def test_post_winnow_keeps_the_best_pairs_of_a_minimized_criterion(self):
        from branchlab.lookahead import TreeNode

        # three generated pairs with Min_j 3, 1 and 5; C7 minimizes Min_j
        pairs = [[TreeNode(node_id=2 * j + k, parent=None, depth=1, var=j,
                           direction=d, model=None, solution=None,
                           eval_vs_parent=low + k)
                  for k, d in enumerate(("down", "up"))]
                 for j, low in enumerate((3.0, 1.0, 5.0))]
        c7 = CriterionSpec(criterion=Criterion.C7, w1=1.0, w2=1.0)
        for mode in ("2a", "2b"):
            kept = lookahead.post_winnow(pairs, mode, 1, c7)
            assert {k.var for k in kept} == {1}


class TestStepFour:
    def test_choice_is_a_root_fractional(self):
        p = triangle_fixture()
        sol = solve(p.to_lp())
        frac = detect_fractional(sol, p)
        result = build(p, base_cfg())
        assert result.var in frac
        assert result.direction in ("up", "down")

    def test_full_path_accept_returns_whole_path(self):
        # lab04's winning leaf descends from the root's better-bound child
        p = parse_mps((corpus_dir() / "lab04.mps").read_text())
        result = build(p, base_cfg(accept="path"))
        assert len(result.path) == 3
        assert result.path[0] == (result.var, result.direction)
        assert result.path == [(r.var, r.direction) for r in
                               result.winner_leaf.path_records()]

    def test_missing_sibling_scored_at_incumbent(self):
        from branchlab.lookahead import TreeNode

        p = triangle_fixture(2)
        sol = solve(p.to_lp())
        ctx = EvalContext(problem=p, x_o_star=9.0, check_incumbent=False)
        builder = _Builder(p, base_cfg(depth=1), ctx)
        root = _root_node(p.to_lp(), sol)
        alive = TreeNode(node_id=1, parent=root, depth=1, var=0,
                         direction="up", model=p.to_lp(), solution=sol,
                         eval_vs_parent=0.5)
        bundles, handles = builder._leaf_bundles([[alive]], root)
        (bundle,) = bundles.values()
        assert bundle.eval_down == pytest.approx(9.0 - sol.x_o)
        del handles


class TestDive:
    """Step 4 answers the chosen root variable's child with the lower LP
    bound, read from the tree's root pair; the tree's path is kept only
    when it starts in that child."""

    @staticmethod
    def pair(**bounds):
        return [lookahead.TreeNode(
            node_id=k, parent=None, depth=1, var=5, direction=direction,
            model=None, solution=SimpleNamespace(x_o=x_o))
            for k, (direction, x_o) in enumerate(bounds.items())]

    def test_the_lower_bound_wins_and_a_tie_goes_down(self):
        dive = _Builder._dive
        assert dive({1: [self.pair(up=-3.0, down=-2.0)]}) == (5, "up")
        assert dive({1: [self.pair(up=-2.0, down=-3.0)]}) == (5, "down")
        assert dive({1: [self.pair(up=-2.0, down=-2.0)]}) == (5, "down")
        # a dead child has no bound
        assert dive({1: [self.pair(up=7.0)]}) == (5, "up")
        assert dive({1: [self.pair(down=7.0)]}) == (5, "down")

    def test_bundled_roots_dive_into_the_better_bound_child(
            self, monkeypatch):
        lp_solves_in_finish = []
        real = _Builder._finish

        def finish(self, *args, **kw):
            before = self.ctx.counters.lp_solves
            result = real(self, *args, **kw)
            lp_solves_in_finish.append(self.ctx.counters.lp_solves - before)
            return result

        monkeypatch.setattr(_Builder, "_finish", finish)
        kept = cut = 0
        for path in corpus_paths():
            p = parse_mps(path.read_text())
            sol = solve(p.to_lp())
            for depth in (2, 3):
                ctx = EvalContext(problem=p)
                try:
                    result = build_tree(p, p.to_lp(), sol, base_cfg(
                        depth=depth, accept="path"), ctx)
                except BranchSignal:
                    continue    # the root's own signals are the driver's
                bound = {k.direction: k.solution.x_o
                         for k in result.nodes if k.depth == 1}
                assert result.var == result.nodes[0].var
                assert result.direction == min(
                    bound, key=lambda d: (bound[d], d == "up"))
                tree_path = [(r.var, r.direction) for r in
                             result.winner_leaf.path_records()]
                if tree_path[0] == (result.var, result.direction):
                    assert result.path == tree_path
                    kept += 1
                else:
                    assert result.path == [(result.var, result.direction)]
                    cut += 1
        assert kept and cut
        assert lp_solves_in_finish and not any(lp_solves_in_finish)

    def test_a_depth_1_tree_is_plain_branching(self):
        # both pick by C1 from the same F2 and dive into the better bound
        plain = SolveConfig(criterion=CriterionSpec(),
                            winnow=WinnowParams(k2=5))
        tree = replace(plain, lookahead=LookaheadConfig(depth=1))
        deep = problems()[FIRST_DEEP:FIRST_DEEP + 8]

        def rows(cfg):
            return [(r.status, r.objective, r.counters.nodes,
                     r.counters.lp_solves, r.counters.pivots,
                     r.counters.probes)
                    for r in (solve_mip(p, cfg) for p in deep)]

        got = rows(plain)
        assert rows(tree) == got
        assert sum(row[2] for row in got) == 266
        assert sum(row[3] for row in got) == 1300


class TestEarlyExit:
    def test_early_exit_matches_completed_tree(self):
        # lim=1 forces all survivors under one root side quickly; the
        # shortcut must agree with running the same gated build in full
        fired = 0
        for seed in range(6):
            p = triangle_fixture(7, seed=seed)
            gated = base_cfg(depth=5, postwin=PostWinnow("2a", lim=1, d0=2))
            quick = build(p, replace(gated, lookahead=replace(
                gated.lookahead, postwin=PostWinnow("2a", lim=1, d0=2,
                                                    early_exit=True))))
            if not quick.early_exit:
                continue
            fired += 1
            full = build(p, gated)
            assert (quick.var, quick.direction) == (full.var,
                                                    full.direction)
            assert quick.total_nodes <= full.total_nodes
        assert fired >= 1


class TestD2Mode:
    def test_budget_split_v1(self):
        p = triangle_fixture(4)   # |F| = 12 at the root
        sol = solve(p.to_lp())
        assert len(detect_fractional(sol, p)) == 12
        cfg = d2_cfg(v=1.0)
        out = build_d2_tree(p, p.to_lp(), sol, cfg, make_ctx(p))
        assert out.pair_scores["n2_root"] == 4
        assert out.pair_scores["n2_child"] == 4

    def test_budget_split_v2(self):
        p = triangle_fixture(4)
        sol = solve(p.to_lp())
        cfg = d2_cfg(v=2.0)
        out = build_d2_tree(p, p.to_lp(), sol, cfg, make_ctx(p))
        assert out.pair_scores["n2_root"] == 6
        assert out.pair_scores["n2_child"] == 3

    def test_n2_one_degenerates_to_single_level(self):
        # one triangle plus a two-variable knapsack tail whose second
        # variable sits at 0.5: |F| = 4 so n2(0) = n2(1) = 1, and both
        # branches of every fractional variable stay feasible
        tri = triangle_fixture(1)
        n = tri.n_cols + 2
        rows = np.zeros((tri.n_rows + 1, n))
        rows[:tri.n_rows, :tri.n_cols] = tri.rows
        rows[-1, -2:] = [-2.0, -2.0]   # 2 x3 + 2 x4 <= 5
        p = MipProblem(name="mix", obj=np.append(tri.obj, [-3.0, -1.0]),
                       rows=rows, rhs=np.append(tri.rhs, -5.0),
                       lower=np.zeros(n),
                       upper=np.append(np.ones(tri.n_cols), [2.0, 2.0]),
                       integer_mask=np.ones(n, bool))
        sol = solve(p.to_lp())
        assert len(detect_fractional(sol, p)) == 4
        cfg = d2_cfg(v=1.0)
        out = build_d2_tree(p, p.to_lp(), sol, cfg, make_ctx(p))
        assert out.pair_scores["n2_root"] == 1
        assert out.var is not None

    def test_a_clist_leaf_child_stays_unexpanded(self):
        # the one CList member is the root choice, so it is integral in
        # both depth-1 children: neither is expanded, and the owning node
        # still branches on the root choice
        p = triangle_fixture(4)
        sol = solve(p.to_lp())
        j = min(detect_fractional(sol, p))
        cfg = replace(d2_cfg(v=1.0), winnow=WinnowParams(
            clist=frozenset({j})))
        out = build_d2_tree(p, p.to_lp(), sol, cfg, make_ctx(p))
        assert out.var == j and out.depth_counts == [2, 0]

    def test_a_child_whose_forced_branches_never_settle_stays_unexpanded(
            self, monkeypatch):
        # every depth-1 winnow signals a compulsory branch, and a branch
        # imposed inside criteria changes nothing, so both children use up
        # their MAX_FORCED forced branches; that proves neither child
        # infeasible
        real = lookahead.winnow_run
        signals = []

        def signalling(model, sol, fractions, params, ctx, depth, *rest):
            if depth == 0:
                return real(model, sol, fractions, params, ctx, depth,
                            *rest)
            signals.append(depth)
            raise CompulsorySignal(min(fractions), "up")

        monkeypatch.setattr(lookahead, "winnow_run", signalling)
        monkeypatch.setattr(criteria, "apply_branch",
                            lambda model, sol, j, direction:
                            (model, sol.basis))
        p = triangle_fixture(4)
        sol = solve(p.to_lp())
        out = build_d2_tree(p, p.to_lp(), sol, d2_cfg(v=1.0), make_ctx(p))
        assert out.depth_counts == [2, 0]
        assert out.path == [(out.var, out.direction)]
        assert len(signals) == 2 * (criteria.MAX_FORCED + 1)


class TestMultiTree:
    def test_single_tree_is_plain_build(self):
        p = triangle_fixture(5, seed=2)
        sol = solve(p.to_lp())
        cfg = base_cfg(depth=2, n_trees=1)
        a = build_multi_trees(p, p.to_lp(), sol, cfg, make_ctx(p))
        b = build_tree(p, p.to_lp(), sol, cfg, make_ctx(p))
        assert (a.var, a.direction) == (b.var, b.direction)

    def test_later_trees_exclude_better_ranked_roots(self):
        p = triangle_fixture(5, seed=2)
        sol = solve(p.to_lp())
        ctx = make_ctx(p)
        cfg = base_cfg(depth=2, winnow=WinnowParams(k2=3, n2_root=3))
        builder = _Builder(p, cfg, ctx)
        builder.excluded = frozenset({0, 1, 2})
        root = _root_node(p.to_lp(), sol)
        result = builder.build(root, forced_root_var=4)
        for node in result.nodes:
            assert node.var not in {0, 1, 2}

    def test_trees_share_no_bound_vectors(self):
        p = triangle_fixture(5, seed=2)
        sol = solve(p.to_lp())
        ctx = make_ctx(p)
        cfg = base_cfg(depth=2, winnow=WinnowParams(k2=3, n2_root=4))
        from branchlab.winnow import run as winnow_run
        frac = detect_fractional(sol, p)
        f2, s2, _, _ = winnow_run(p.to_lp(), sol, frac, cfg.winnow, ctx, 0)
        assert len(f2) >= 2
        ranked = f2[:2]
        seen: set[tuple] = set()
        for rank, var in enumerate(ranked):
            builder = _Builder(p, cfg, ctx)
            builder.excluded = frozenset(ranked[:rank])
            result = builder.build(_root_node(p.to_lp(), sol),
                                   forced_root_var=var)
            for node in result.nodes:
                key = (tuple(node.model.lower), tuple(node.model.upper))
                assert key not in seen
                seen.add(key)

    def test_multi_tree_end_to_end(self):
        p = triangle_fixture(5, seed=2)
        sol = solve(p.to_lp())
        cfg = base_cfg(depth=2, n_trees=2,
                       winnow=WinnowParams(k2=3, n2_root=3))
        out = build_multi_trees(p, p.to_lp(), sol, cfg, make_ctx(p))
        assert out.var is not None

    def test_later_trees_with_every_fractional_excluded_end(self):
        # with the winnow open, several root candidates reach the trees;
        # the k-th tree excludes the better-ranked roots, so a deeper node
        # can have no eligible variable, and it stays a leaf
        open_winnow = WinnowParams(n0=99, n1=99, n2_root=99, n2_mid=99,
                                   n2_deep=99)
        cfg = SolveConfig(winnow=open_winnow,
                          lookahead=LookaheadConfig(depth=2, n_trees=4))
        for p in problems()[:FIRST_DEEP + 8]:
            out = solve_mip(p, cfg)
            plain = solve_mip(p, SolveConfig())
            assert out.status == plain.status == "optimal", p.name
            assert out.objective == pytest.approx(plain.objective), p.name

    def test_c3_roots_the_first_tree_at_the_selection(self, monkeypatch):
        p = triangle_fixture(5, seed=2)
        sol = solve(p.to_lp())
        c3 = CriterionSpec(criterion=Criterion.C3_THRESHOLD, lam=0.75)
        cfg = replace(base_cfg(depth=2, n_trees=2,
                               winnow=WinnowParams(k2=3, n2_root=4)),
                      criterion=c3)
        ctx = make_ctx(p)
        frac = detect_fractional(sol, p)
        f2, _, _, _ = winnow.run(p.to_lp(), sol, frac, cfg.winnow, ctx, 0)
        evals = evaluate_candidates(p.to_lp(), sol, f2, ctx, c3, frac)
        pick = select(evals, c3).var
        # the widest spread fails the threshold here, so a plain spread
        # order would root the first tree elsewhere
        assert pick != min(evals, key=lambda j: (-score(evals[j], c3), j))
        roots = []
        real = lookahead._Builder.build

        def record(self, root, forced_root_var=None):
            roots.append(forced_root_var)
            return real(self, root, forced_root_var)

        monkeypatch.setattr(lookahead._Builder, "build", record)
        build_multi_trees(p, p.to_lp(), sol, cfg, make_ctx(p))
        assert roots[0] == pick and len(roots) == 2


class TestCriterionHome:
    def test_builders_winnow_and_pick_by_the_solve_config(self,
                                                          monkeypatch):
        # C3 picks, C1 ranks the winnow; C2a scores the depth-D leaf pairs
        # and C7 the d2 leaf pairs, whatever the criterion
        seen = {lookahead: set(), winnow: set()}

        def spy(module, name):
            real = getattr(module, name)

            def wrapped(evals, spec, *args, **kw):
                seen[module].add(spec.criterion)
                return real(evals, spec, *args, **kw)

            monkeypatch.setattr(module, name, wrapped)

        for name in ("select", "rank"):
            spy(lookahead, name)
        spy(winnow, "rank")
        p = triangle_fixture(5, seed=2)
        sol = solve(p.to_lp())
        c3 = CriterionSpec(criterion=Criterion.C3_THRESHOLD, lam=0.5)
        for cfg, build in (
                (base_cfg(postwin=PostWinnow("2a", lim=1, d0=1)),
                 build_multi_trees),
                (base_cfg(depth=2, n_trees=2), build_multi_trees),
                (d2_cfg(v=1.0), build_d2_tree)):
            build(p, p.to_lp(), sol, replace(cfg, criterion=c3), make_ctx(p))
        assert seen[winnow] == {Criterion.C1_PRODUCT}
        assert seen[lookahead] == {Criterion.C3_THRESHOLD, Criterion.C2A,
                                   Criterion.C7}


class TestAttract:
    def test_counters_accumulate_and_pick_majority(self):
        c = AttractCounters()
        for _ in range(5):
            c.bump(3, "up", "up")
        for _ in range(2):
            c.bump(3, "down", "up")
        val, direction = c.value(3)
        assert (val, direction) == (5, "up")
        val_half, _ = c.value(3, "down")
        assert val_half == 0

    def test_threshold_infinity_never_overrides(self):
        p = triangle_fixture(5, seed=1)
        cfg = base_cfg(depth=2, attract=AttractConfig(threshold=math.inf))
        result = build(p, cfg)
        assert not result.overridden

    def test_override_fires_above_threshold(self):
        from branchlab.lookahead import BuildResult, _maybe_override

        p = triangle_fixture(2)
        cfg = base_cfg(depth=2, attract=AttractConfig(threshold=4.0))
        builder = _Builder(p, cfg, make_ctx(p))
        for _ in range(5):
            builder.attract.bump(1, "up", None)
        for _ in range(2):
            builder.attract.bump(1, "down", None)
        base = BuildResult(var=0, direction="down", path=[(0, "down")],
                           depth_counts=[2], total_nodes=2, leaves=[],
                           winner_leaf=None, attract=builder.attract)
        builder.root_f2 = [0, 1]
        out = _maybe_override(base, builder)
        assert out.overridden
        assert (out.var, out.direction) == (1, "up")

    def test_half_tree_mode_ignores_other_half(self):
        from branchlab.lookahead import BuildResult, TreeNode, \
            _maybe_override

        p = triangle_fixture(2)
        cfg = base_cfg(depth=2, attract=AttractConfig(threshold=2.0,
                                                      half_tree=True))
        builder = _Builder(p, cfg, make_ctx(p))
        for _ in range(9):
            builder.attract.bump(1, "up", "down")   # other half only
        sol = solve(p.to_lp())
        winner = TreeNode(node_id=9, parent=None, depth=1, var=0,
                          direction="up", model=p.to_lp(), solution=sol,
                          root_side="up")
        base = BuildResult(var=0, direction="up", path=[(0, "up")],
                           depth_counts=[2], total_nodes=2, leaves=[],
                           winner_leaf=winner, attract=builder.attract)
        builder.root_f2 = [0, 1]
        out = _maybe_override(base, builder)
        assert not out.overridden


class TestStraddleMode:
    def test_straddle_build_accumulates_few_slack_rows(self):
        p = triangle_fixture(5, seed=4)
        cfg = base_cfg(depth=3, straddle=True)
        result = build(p, cfg)
        assert result.var is not None
        for leaf in result.leaves:
            assert len(leaf.model.straddle_rows) <= 3


class TestMonteCarloPathCorrectness:
    def test_depth3_probability_is_936(self):
        rng = np.random.default_rng(20240606)
        trials = 100_000
        draws = rng.random((trials, 3)) < 0.6
        hit = draws.any(axis=1).mean()
        assert hit == pytest.approx(1 - 0.4 ** 3, abs=0.005)

    def test_depth2_probability_is_84(self):
        rng = np.random.default_rng(7)
        draws = rng.random((100_000, 2)) < 0.6
        assert draws.any(axis=1).mean() == pytest.approx(0.84, abs=0.005)


def test_root_mip_feasible_raises_incumbent_signal():
    p = MipProblem(name="int", obj=[1.0, 1.0], rows=[[1.0, 1.0]],
                   rhs=[2.0], lower=[0.0, 0.0], upper=[3.0, 3.0],
                   integer_mask=[True, True])
    sol = solve(p.to_lp())
    assert not detect_fractional(sol, p)
    with pytest.raises(IncumbentSignal):
        build_tree(p, p.to_lp(), sol, base_cfg(depth=2), make_ctx(p))


def test_a_truncated_pair_solve_closes_its_node_as_limit(monkeypatch):
    # under a one-pivot budget many pair solves stop at their limit; both
    # builders settle such a node as a `limit` leaf, without scanning its
    # unfinished solution for fractions (which raises ModelError)
    truncated = []
    real = lookahead.settle

    def watched(model, sol, ctx, scan, on_forced=None):
        settled = real(model, sol, ctx, scan, on_forced)
        if sol.status is LpStatus.PIVOT_LIMIT_HIT:
            assert settled.closed == "limit"
            truncated.append(sol)
        return settled

    monkeypatch.setattr(lookahead, "settle", watched)
    for path in corpus_paths():
        p = parse_mps(path.read_text())
        sol = solve(p.to_lp())
        if not sol.is_optimal:
            continue
        for build_with, cfg in ((build_d2_tree, d2_cfg(v=1.0)),
                                (build_tree, base_cfg(depth=2))):
            ctx = EvalContext(problem=p, budget=PivotBudget(max_pivots=1))
            try:
                build_with(p, p.to_lp(), sol, cfg, ctx)
            except BranchSignal:
                pass        # the root's own signals are the driver's
    assert truncated
