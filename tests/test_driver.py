import importlib
import json
import math
import pkgutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import branchlab.driver as driver_module
from branchlab import cli, criteria, lp
from branchlab.bench import default_matrix, report_to_json, run_benchmark
from branchlab.costmem import ReferenceSet
from branchlab.criteria import MAX_FORCED, CompulsorySignal, CriterionSpec
from branchlab.driver import (
    SolveConfig,
    _Search,
    solve_mip,
    trace_to_json,
)
from branchlab.instances import corpus_dir, corpus_paths
from branchlab.lookahead import LookaheadConfig, PostWinnow
from branchlab.lp import LpModelError, LpProbeError, PivotBudget
from branchlab.model import FINE_EPS, MipProblem, detect_fractional
from branchlab.mps import parse_mps, write_mps
from branchlab.winnow import WinnowParams
from oracles import mip_lattice_minimum


def random_ip(seed, n=None, m=None, hi=4):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(3, 7))
    m = m or int(rng.integers(2, 5))
    obj = rng.integers(-6, 7, size=n).astype(float)
    rows = rng.integers(-4, 5, size=(m, n)).astype(float)
    mid = rng.uniform(0.5, hi - 1.0, size=n)
    rhs = np.floor(rows @ mid - rng.uniform(0.2, 2.0, size=m))
    return MipProblem(name=f"r{seed}", obj=obj, rows=rows, rhs=rhs,
                      lower=np.zeros(n), upper=np.full(n, float(hi)),
                      integer_mask=np.ones(n, bool))


def market_split(n, seed, m=2):
    """Cornuejols-Dawande market split with slacks: binary x, and
    min sum(s+ + s-) subject to A x + s+ - s- = d, each equality written
    as two mirrored >= rows; A is integer in 0..99 and d is half of each
    row sum, rounded down."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 100, size=(m, n)).astype(float)
    total = a.sum(axis=1)
    d = np.floor(total / 2)
    eq = np.hstack([a, np.eye(m), -np.eye(m)])
    return MipProblem(
        name=f"split{n}-{seed}",
        obj=np.concatenate([np.zeros(n), np.ones(2 * m)]),
        rows=np.vstack([eq, -eq]), rhs=np.concatenate([d, -d]),
        lower=np.zeros(n + 2 * m),
        upper=np.concatenate([np.ones(n), total, total]),
        integer_mask=np.arange(n + 2 * m) < n)


def fg16():
    """Fractional costs: no better MIP point need be better by 1.  HiGHS's
    optimum is 5.42 at x = (1, 1, 1, 1, 0)."""
    return MipProblem(
        name="fg16", obj=[0.64, 2.12, 0.55, 2.11, 2.88],
        rows=[[7.0, 1.0, 6.0, -4.0, 2.0], [0.0, -5.0, 4.0, 1.0, -5.0],
              [-1.0, 8.0, -4.0, 7.0, 8.0]], rhs=[6.0, -3.0, 9.0],
        lower=np.zeros(5), upper=np.full(5, 6.0),
        integer_mask=np.ones(5, bool))


def knapsack():
    # max 5a + 4b st 3a + 2b <= 4, binary -> min form
    return MipProblem(name="knap", obj=[-5.0, -4.0], rows=[[-3.0, -2.0]],
                      rhs=[-4.0], lower=[0.0, 0.0], upper=[1.0, 1.0],
                      integer_mask=[True, True])


CONFIGS = {
    "plain": SolveConfig(),
    "lookahead": SolveConfig(
        criterion=CriterionSpec(), winnow=WinnowParams(k2=3),
        lookahead=LookaheadConfig(depth=3,
                                  postwin=PostWinnow("2a", lim=3, d0=2))),
    "dval": SolveConfig(dval_approach=1),
    "pseudo": SolveConfig(pseudo="classic"),
    "refset": SolveConfig(refset_theta=0.5),
}


class TestSoundness:
    def test_knapsack_matches_enumeration(self):
        p = knapsack()
        want, _ = mip_lattice_minimum(p)
        for cfg in CONFIGS.values():
            res = solve_mip(p, cfg)
            assert res.status == "optimal"
            assert res.objective == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("name,cfg", sorted(CONFIGS.items()))
    def test_random_instances_match_enumeration(self, name, cfg):
        for seed in range(10, 22):
            p = random_ip(seed)
            want, _ = mip_lattice_minimum(p)
            res = solve_mip(p, cfg)
            if math.isinf(want):
                assert res.status == "infeasible", (name, seed)
            else:
                assert res.status == "optimal", (name, seed)
                assert res.objective == pytest.approx(want, abs=1e-9), \
                    (name, seed)

    @pytest.mark.parametrize("name,lookahead", [
        ("la-straddle", {"accept": "path"}),
        ("la-d3-2a", {"accept": "path"}),
        ("la-d3-2a", {"depth": 5}),
        ("la-d3-2a", {"depth": 4, "postwin": PostWinnow("2b", d0=1)}),
    ], ids=["la-straddle-path", "la-d3-2a-path", "depth-5-2a",
            "depth-4-2b-d0-1"])
    def test_paths_and_empty_post_winnow_levels_match_highs(self, name,
                                                           lookahead):
        # a path step whose variable is no longer fractional at its node
        # is decided again there, and a post-winnow level with no pair
        # carries nothing forward; no node the search made is left open
        optimize = pytest.importorskip("scipy.optimize")
        cfg = default_matrix()[name]
        cfg = replace(cfg, lookahead=replace(cfg.lookahead, **lookahead))
        for path in corpus_paths():
            p = parse_mps(path.read_text())
            highs = optimize.milp(
                p.obj, integrality=p.integer_mask.astype(int),
                constraints=[optimize.LinearConstraint(p.rows, lb=p.rhs)],
                bounds=optimize.Bounds(p.lower, p.upper))
            assert highs.status == 0, p.name
            res = solve_mip(p, cfg)
            assert res.status == "optimal", p.name
            assert res.objective == pytest.approx(highs.fun), p.name
            assert not [rec for rec in res.trace["nodes"]
                        if rec["status"] == "open"], p.name

    def test_integral_root_solves_at_node_zero(self):
        p = MipProblem(name="int", obj=[1.0, 2.0], rows=[[1.0, 1.0]],
                       rhs=[2.0], lower=[0.0, 0.0], upper=[5.0, 5.0],
                       integer_mask=[True, True])
        res = solve_mip(p, SolveConfig())
        assert res.status == "optimal"
        assert res.counters.nodes == 0
        assert res.objective == pytest.approx(2.0)

    def test_a_root_whose_branches_are_cut_off_is_fathomed(self, tmp_path,
                                                           capsys):
        # lab08 under a depth-2 tree with a one-member CList: the probes
        # find the incumbent -20, and then both branches at the root
        # (x_o -20.31) are cut off by it, not infeasible.  Under the
        # integral objective's step 1 the cutoff -21 prunes the root
        # itself, so the step is set to 1e-6
        out = tmp_path / "trace.json"
        assert cli.main(["solve", str(corpus_dir() / "lab08.mps"),
                         "--lookahead", "2", "--clist", "1", "--eps", "1e-6",
                         "--trace", str(out)]) == 0
        trace = json.loads(out.read_text())
        assert (trace["status"], trace["objective"]) == ("optimal", -20.0)
        assert trace["eps"] == 1e-6
        root = trace["nodes"][0]
        assert root["x_o"] == -20.307692308
        assert (root["status"], root["prune_reason"]) == \
            ("fathomed", "both branches cut off")

    def test_plain_searches_fathom_nodes_only_under_an_incumbent(self):
        fathomed = 0
        for seed in range(20, 40):
            res = solve_mip(random_ip(seed), SolveConfig())
            for rec in res.trace["nodes"]:
                if rec["status"] == "fathomed":
                    assert rec["prune_reason"] == "both branches cut off"
                    assert res.trace["incumbents"]
                    fathomed += 1
        assert fathomed

    def test_a_cut_off_forced_branch_is_fathomed_not_infeasible(self):
        # node 1 (x_o -20.5) forces a branch whose re-solve the incumbent
        # -19 cuts off: the node held no better point, but it was not
        # proved infeasible
        res = solve_mip(random_ip(31), SolveConfig())
        assert (res.status, res.objective) == ("optimal", -19.0)
        reasons = [rec.get("prune_reason") for rec in res.trace["nodes"]]
        assert "compulsory branch failed" not in reasons
        node = res.trace["nodes"][1]
        assert (node["x_o"], node["implied"]) == (-20.5, 1)
        assert (node["status"], node["prune_reason"]) == \
            ("fathomed", "both branches cut off")

    def test_pruned_nodes_had_bound_at_or_above_cutoff(self):
        p = random_ip(31)
        res = solve_mip(p, SolveConfig())
        assert res.status == "optimal"
        cutoff = res.objective - res.trace["eps"]
        for rec in res.trace["nodes"]:
            if rec["status"] == "pruned" and rec["x_o"] is not None:
                assert rec["x_o"] >= cutoff - 1e-9


class TestCutoffStep:
    """The incumbent cutoff step is 1 where every MIP point's objective
    is an integer and `FINE_EPS` elsewhere; an explicit eps wins."""

    def test_the_step_follows_the_objective(self):
        assert random_ip(31).eps == 1.0
        assert fg16().eps == FINE_EPS
        # market split's slacks are continuous columns with costs
        assert market_split(12, 0).eps == FINE_EPS
        free = MipProblem(name="free", obj=[1.0, 0.0], rows=[[1.0, 1.0]],
                          rhs=[1.0], lower=[0.0, 0.0], upper=[4.0, 4.0],
                          integer_mask=[True, False])
        assert free.eps == 1.0

    def test_a_fractional_objective_is_solved_to_its_optimum(self, tmp_path,
                                                             capsys):
        p = fg16()
        want, _ = mip_lattice_minimum(p)
        assert round(want, 9) == 5.42
        res = solve_mip(p)
        assert (res.status, round(res.objective, 9)) == ("optimal", 5.42)
        assert res.trace["eps"] == FINE_EPS
        # the step of an integral objective ends optimal at a worse point
        wrong = solve_mip(p, SolveConfig(eps=1.0))
        assert wrong.status == "optimal" and wrong.objective > 5.43
        inst = tmp_path / "fg16.mps"
        inst.write_text(write_mps(p))
        assert cli.main(["solve", str(inst)]) == 0
        out = capsys.readouterr().out
        assert "\nobjective 5.42\n" in out and "\neps       1e-06\n" in out

    def test_an_explicit_eps_wins(self):
        p = random_ip(31)
        default = solve_mip(p)
        fine = solve_mip(p, SolveConfig(eps=FINE_EPS))
        assert (default.trace["eps"], fine.trace["eps"]) == (1.0, FINE_EPS)
        assert fine.objective == default.objective


class TestSafetyNets:
    """Paths the bundled searches never take, each ending at the
    optimum."""

    def test_a_node_that_never_settles_branches_most_fractional(
            self, monkeypatch):
        # the root's winnow signals a compulsory branch every time, and a
        # branch imposed at the root changes nothing, so `settle` gives up
        # after MAX_FORCED forced branches and `decide` branches on the
        # most fractional variable
        p = random_ip(31)
        root_model = p.to_lp()
        root_frac = detect_fractional(lp.solve(root_model), p)
        signals = []
        real_winnow = driver_module.winnow_run
        real_branch = criteria.apply_branch

        def signalling(model, sol, fractions, *rest):
            if model is root_model:
                signals.append(model)
                raise CompulsorySignal(min(fractions), "up")
            return real_winnow(model, sol, fractions, *rest)

        def branch(model, sol, j, direction):
            if model is root_model:
                return model, sol.basis
            return real_branch(model, sol, j, direction)

        monkeypatch.setattr(driver_module, "winnow_run", signalling)
        monkeypatch.setattr(criteria, "apply_branch", branch)
        res = solve_mip(p)
        assert len(signals) == MAX_FORCED + 1
        want, _ = mip_lattice_minimum(p)
        assert (res.status, res.objective) == ("optimal", want)
        root, first = res.trace["nodes"][:2]
        assert (root["status"], root["implied"]) == ("branched", MAX_FORCED)
        assert first["branch"]["var"] == max(
            root_frac, key=lambda j: (min(root_frac[j]), -j))

    def test_dval_under_look_ahead_seeds_from_reduced_costs(
            self, monkeypatch):
        # a look-ahead answer carries no Dval pieces, so each branch seeds
        # its children's from the node's reduced cost
        unseeded = []
        real = _Search.apply_plan

        def apply_plan(self, node, plan, seed):
            unseeded.append(seed is None)
            return real(self, node, plan, seed)

        monkeypatch.setattr(_Search, "apply_plan", apply_plan)
        config = SolveConfig(dval_approach=1,
                             lookahead=LookaheadConfig(depth=2))
        for path in corpus_paths():
            p = parse_mps(path.read_text())
            want, _ = mip_lattice_minimum(p)
            res = solve_mip(p, config)
            assert res.status == "optimal", p.name
            assert res.objective == pytest.approx(want, abs=1e-9), p.name
        assert unseeded and all(unseeded)

    def test_a_gate_that_denies_the_pick_rations_another_branch(
            self, monkeypatch):
        # the gate denies both sides of every even-indexed variable and
        # the down side of every odd one, once the reference set holds a
        # solution; a wider winnow leaves it other candidates
        class Denying(ReferenceSet):
            def gate(self, j, direction, accumulated, theta=0.5,
                     is_binary=False):
                return j % 2 == 1 and direction == "up"

        rationed = []
        real = _Search.apply_gate

        def apply_gate(self, node, evals, pick):
            got = real(self, node, evals, pick)
            if got != (pick.var, pick.direction):
                rationed.append((pick.var, got))
            return got

        monkeypatch.setattr(driver_module, "ReferenceSet", Denying)
        monkeypatch.setattr(_Search, "apply_gate", apply_gate)
        config = SolveConfig(refset_theta=0.5, winnow=WinnowParams(
            n1=4, n2_mid=4, n2_deep=4))
        for path in corpus_paths():
            p = parse_mps(path.read_text())
            want, _ = mip_lattice_minimum(p)
            res = solve_mip(p, config)
            assert res.status == "optimal", p.name
            assert res.objective == pytest.approx(want, abs=1e-9), p.name
        # some pick moved to another variable
        assert [1 for var, (j, _) in rationed if j != var]


class TestLimits:
    def test_max_nodes_one_reports_limit_with_root_bound(self):
        from branchlab.lp import solve as lp_solve
        from branchlab.model import detect_fractional

        for seed in range(11, 30):
            p = random_ip(seed)
            root = lp_solve(p.to_lp())
            if not root.is_optimal or not detect_fractional(root, p):
                continue
            res_full = solve_mip(p, SolveConfig())
            if res_full.status != "optimal" or \
                    res_full.counters.nodes < 4:
                continue
            res = solve_mip(p, SolveConfig(max_nodes=1))
            assert res.status in ("limit", "feasible")
            root_x_o = res.trace["nodes"][0]["x_o"]
            assert res.bound <= res_full.objective + 1e-9
            assert res.bound >= root_x_o - 1e-9
            return
        pytest.fail("no suitable instance found")


class TestUnprovenEnds:
    """A search that proved nothing ends `limit`, not infeasible."""

    LAB01 = corpus_dir() / "lab01.mps"

    def test_a_clist_search_without_an_incumbent_ends_limit(self, capsys):
        from branchlab.cli import main

        # lab01 is feasible: HiGHS finds its optimum, -22
        optimize = pytest.importorskip("scipy.optimize")
        p = parse_mps(self.LAB01.read_text())
        highs = optimize.milp(
            p.obj, integrality=p.integer_mask.astype(int),
            constraints=[optimize.LinearConstraint(p.rows, lb=p.rhs)],
            bounds=optimize.Bounds(p.lower, p.upper))
        assert highs.status == 0 and highs.fun == pytest.approx(-22.0)
        # a 1-member CList closes every region as a leaf before any
        # incumbent is found
        assert main(["solve", str(self.LAB01), "--clist", "1"]) == 1
        assert "status    limit" in capsys.readouterr().out

    def test_a_root_lp_stopped_by_the_node_budget_ends_limit(self,
                                                              monkeypatch):
        monkeypatch.setattr(driver_module, "NODE_BUDGET",
                            PivotBudget(max_pivots=1, max_degenerate=1))
        res = solve_mip(parse_mps(self.LAB01.read_text()), SolveConfig())
        assert res.status == "limit" and res.bound == -math.inf
        assert res.trace["nodes"][0]["prune_reason"] == "solver limit"

    def test_an_inline_path_child_at_the_solver_limit_is_unsearched(self):
        class PathLimit(_Search):
            """Reports every path child that still has plan steps to
            follow as stopped at the solver limit."""

            def ensure_solved(self, node):
                status = super().ensure_solved(node)
                return "limit" if node.plan else status

        cfg = SolveConfig(criterion=CriterionSpec(),
                          winnow=WinnowParams(k2=3),
                          lookahead=LookaheadConfig(depth=3, accept="path"))
        lab04 = corpus_dir() / "lab04.mps"   # accepts multi-step paths
        res = PathLimit(parse_mps(lab04.read_text()), cfg).run()
        closed = [rec for rec in res.trace["nodes"]
                  if rec.get("prune_reason") == "solver limit"]
        assert closed and res.status in ("feasible", "limit")

    @pytest.mark.parametrize("strategy", ["plain-c2a", "la-d3-2a"])
    def test_closed_regions_the_incumbent_prunes_prove_it(self, strategy):
        # a region closed at a solver limit keeps its bound; when every
        # such bound passes the incumbent's cutoff, the incumbent is proven
        optimize = pytest.importorskip("scipy.optimize")
        p = market_split(12, 0)
        highs = optimize.milp(
            p.obj, integrality=p.integer_mask.astype(int),
            constraints=[optimize.LinearConstraint(p.rows, lb=p.rhs)],
            bounds=optimize.Bounds(p.lower, p.upper))
        assert highs.status == 0 and highs.fun == pytest.approx(0.0)
        res = solve_mip(p, default_matrix()[strategy])
        assert any(rec.get("prune_reason") == "solver limit"
                   for rec in res.trace["nodes"])
        assert (res.status, res.objective, res.bound) == ("optimal", 0.0,
                                                          0.0)

    def test_a_closed_region_below_the_incumbent_leaves_it_unproven(self):
        res = solve_mip(market_split(14, 0), default_matrix()["plain-c2a"])
        assert res.status == "feasible"
        assert res.objective == pytest.approx(2.0)
        assert res.bound == 0.0

    # min x0 + x1, x0 + x1 >= 2.5, 2 x0 - x1 >= -3.5, x free and integer:
    # HiGHS gives 2.5 and 3; this engine's root LP stops on a stand-in
    # bound with a zero reduced cost and raises `LpNumericError`
    FREE_MPS = "\n".join([
        "NAME free", "ROWS", " N  OBJ", " G  R0", " G  R1", "COLUMNS",
        "    MARKER    'MARKER' 'INTORG'",
        "    X0  OBJ  1", "    X0  R0  1", "    X0  R1  2",
        "    X1  OBJ  1", "    X1  R0  1", "    X1  R1  -1",
        "    MARKER    'MARKER' 'INTEND'",
        "RHS", "    RHS  R0  2.5", "    RHS  R1  -3.5",
        "BOUNDS", " MI BND  X0", " MI BND  X1", "ENDATA", ""])

    def test_a_root_lp_the_engine_cannot_solve_ends_numeric(self, tmp_path,
                                                             capsys):
        from branchlab.cli import main

        p = parse_mps(self.FREE_MPS)
        with pytest.raises(lp.LpNumericError) as err:
            lp.solve(p.to_lp())
        assert not isinstance(err.value, lp.LpUnboundedError)
        assert err.value.pivots == 1
        res = solve_mip(p)
        assert res.status == res.trace["status"] == "numeric"
        assert res.x is None and res.bound == -math.inf
        assert res.trace["nodes"][0]["prune_reason"] == "numeric"
        # the failed root run is counted, with its pivot
        assert (res.counters.lp_solves, res.counters.pivots) == (1, 1)
        path = tmp_path / "free.mps"
        path.write_text(self.FREE_MPS)
        assert main(["solve", str(path)]) == 1
        out = capsys.readouterr().out
        assert "status    numeric" in out and "Traceback" not in out
        assert "\nlp solves 1\npivots    1\n" in out

    def test_a_run_found_singular_mid_way_is_counted_with_its_pivots(
            self, monkeypatch):
        def singular(ws):
            raise lp.LpNumericError("singular basis")

        monkeypatch.setattr(lp, "REFACTOR_EVERY", 2)
        monkeypatch.setattr(lp._Workspace, "refactorize", singular)
        p = random_ip(3)
        with pytest.raises(lp.LpNumericError) as err:
            lp.solve(p.to_lp())
        assert err.value.pivots == 2
        res = solve_mip(p)
        assert res.status == "numeric"
        assert (res.counters.lp_solves, res.counters.pivots) == (1, 2)

    def test_a_numeric_failure_mid_search_keeps_the_incumbent(self):
        class FailsAfterAnIncumbent(_Search):
            """Raises `LpNumericError` at the first node solve after an
            incumbent is found, noting the bound `limit` would give."""

            want = None

            def ensure_solved(self, node):
                if self.incumbent.x is None or self.want is not None:
                    return super().ensure_solved(node)
                pieces = [self.nodes[i].bound for i, _ in self.open]
                pieces += [node.bound, self.closed_bound,
                           self.incumbent.x_o]
                self.want = (self.incumbent.x_o, node.node_id,
                             min(b for b in pieces if math.isfinite(b)))
                raise lp.LpNumericError("singular basis")

        p = parse_mps((corpus_dir() / "lab04.mps").read_text())
        full = solve_mip(p)
        search = FailsAfterAnIncumbent(p, SolveConfig())
        res = search.run()
        objective, failed, bound = search.want
        assert res.status == "numeric" and res.x is not None
        assert res.objective == objective
        assert res.bound == bound < objective
        assert full.objective <= objective
        assert full.objective >= bound
        assert res.trace["nodes"][failed]["prune_reason"] == "numeric"

    def test_a_numeric_failure_branching_the_root_keeps_its_bound(self):
        class FailsToBranch(_Search):
            """Raises `LpNumericError` where the root's branch is chosen,
            after its LP solved and left the open list."""

            def decide(self, node, fractions):
                raise lp.LpNumericError("singular basis")

        p = parse_mps((corpus_dir() / "lab04.mps").read_text())
        res = FailsToBranch(p, SolveConfig()).run()
        assert res.status == "numeric" and res.x is None
        assert res.bound == lp.solve(p.to_lp()).x_o

    def test_a_forced_branch_stopped_by_its_budget_proves_nothing(self):
        class OnePivotBranches(_Search):
            """Gives every branch re-solve, forced ones too, one pivot."""

            def __init__(self, problem, config):
                super().__init__(problem, config)
                self.ctx.budget = PivotBudget(max_pivots=1)

        claims = unproven = 0
        for seed in range(200):
            p = random_ip(seed)
            res = OnePivotBranches(p, SolveConfig()).run()
            if res.status not in ("optimal", "infeasible"):
                unproven += 1
                continue
            claims += 1
            full = solve_mip(p, SolveConfig())
            assert res.status == full.status, seed
            assert res.objective == pytest.approx(full.objective,
                                                  abs=1e-9), seed
        assert claims and unproven


class TestCounters:
    def test_every_lp_a_search_runs_is_counted(self, monkeypatch):
        """Each `lp.solve` call of a search, under every name a branchlab
        module binds it to, is one of the search's `lp_solves`: the
        default matrix on five bundled instances and on a root LP that
        fails."""
        real = lp.solve
        calls = []

        def spy(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        package = importlib.import_module("branchlab")
        modules = [package] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(package.__path__, "branchlab.")]
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, name, spy)
        problems = [parse_mps(path.read_text()) for path in corpus_paths()
                    if path.stem in ("lab01", "lab03", "lab04", "lab06",
                                     "lab19")]
        problems.append(parse_mps(TestUnprovenEnds.FREE_MPS))
        assert len(problems) == 6
        for label, config in default_matrix().items():
            for problem in problems:
                calls.clear()
                res = solve_mip(problem, config)
                assert len(calls) == res.counters.lp_solves > 0, \
                    (label, problem.name)


class TestNodeSelection:
    def test_dfs_picks_deepest_most_recent(self):
        p = random_ip(12)
        search = _Search(p, SolveConfig())
        from branchlab.model import NodeState

        def fake(node_id, depth):
            node = NodeState(node_id=node_id, parent_id=None, depth=depth,
                             branch=None, model=p.to_lp())
            search.nodes[node_id] = node
            search.push(node)
            return node

        fake(0, 4)
        fake(1, 4)
        fake(2, 2)
        picked = search.select_open()
        assert picked.node_id == 1  # depth tie resolved by recency

    def test_dval_picks_smallest_score(self):
        p = random_ip(12)
        search = _Search(p, SolveConfig(dval_approach=1))
        from branchlab.model import NodeState

        for node_id, score in ((0, 5.0), (1, 3.0)):
            node = NodeState(node_id=node_id, parent_id=None, depth=1,
                             branch=None, model=p.to_lp())
            node.dval_parts = (score, 0.0, 1)
            search.nodes[node_id] = node
            search.push(node)
        assert search.select_open().node_id == 1

    def test_dval_defaults_to_unit_weights_before_incumbent(self):
        assert _Search(random_ip(1),
                       SolveConfig(dval_approach=1)).dval.weights(3) == \
            (1.0, 1.0)

    def test_dval_mode_still_solves_exactly(self):
        for seed in (41, 42, 43):
            p = random_ip(seed)
            want, _ = mip_lattice_minimum(p)
            res = solve_mip(p, SolveConfig(dval_approach=2))
            if math.isfinite(want):
                assert res.status == "optimal"
                assert res.objective == pytest.approx(want, abs=1e-9)


class TestReversals:
    def test_threshold_mix(self):
        # |RC| values {1, 5, 3} with beta 0.5: T = 0.5*3 + 0.5*5 = 4
        assert _Search.reversal_threshold([1.0, 5.0, 3.0], 0.5) == \
            pytest.approx(4.0)
        assert _Search.reversal_threshold([2.0], 0.25) == pytest.approx(2.0)

    def test_reversal_log_and_improvement_bound(self):
        cfg = SolveConfig(
            criterion=CriterionSpec(), winnow=WinnowParams(k2=3),
            lookahead=LookaheadConfig(depth=3), reversal_beta=0.5)
        seen = 0
        for seed in range(50, 70):
            p = random_ip(seed)
            res = solve_mip(p, cfg)
            for entry in res.trace["reversals"]:
                seen += 1
                if entry["realized"] is not None:
                    assert entry["realized"] <= \
                        entry["predicted_max"] + 1e-7
            if seen >= 3:
                break
        assert seen >= 1

    REVERSING = SolveConfig(
        criterion=CriterionSpec(), winnow=WinnowParams(k2=3),
        lookahead=LookaheadConfig(depth=3), reversal_beta=0.5)

    @pytest.mark.parametrize("error", [LpProbeError, LpModelError])
    def test_a_reversal_the_lp_layer_rejects_is_skipped(self, monkeypatch,
                                                        error):
        p = random_ip(52)
        assert solve_mip(p, self.REVERSING).trace["reversals"]

        def reject(*args):
            raise error("rejected")

        monkeypatch.setattr(driver_module, "apply_reversal_update", reject)
        res = solve_mip(p, self.REVERSING)
        assert res.status == "optimal" and res.trace["reversals"] == []

    def test_other_reversal_faults_escape_the_search(self, monkeypatch):
        def broken(*args):
            raise RuntimeError("broken reversal")

        monkeypatch.setattr(driver_module, "apply_reversal_update", broken)
        with pytest.raises(RuntimeError, match="broken reversal"):
            solve_mip(random_ip(52), self.REVERSING)

    def test_reversals_do_not_change_the_answer(self):
        base = SolveConfig(criterion=CriterionSpec(),
                           winnow=WinnowParams(k2=3),
                           lookahead=LookaheadConfig(depth=3))
        with_rev = replace(base, reversal_beta=0.5)
        for seed in (50, 51, 52):
            p = random_ip(seed)
            a = solve_mip(p, base)
            b = solve_mip(p, with_rev)
            assert a.status == b.status
            if a.status == "optimal":
                assert a.objective == pytest.approx(b.objective, abs=1e-9)


class TestDeterminism:
    def test_traces_are_byte_identical(self):
        p = random_ip(77)
        for cfg in CONFIGS.values():
            t1 = trace_to_json(solve_mip(p, cfg).trace)
            t2 = trace_to_json(solve_mip(p, cfg).trace)
            assert t1 == t2

    def test_node_ids_strictly_increase(self):
        p = random_ip(78)
        res = solve_mip(p, SolveConfig())
        ids = [rec["id"] for rec in res.trace["nodes"]]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_incumbent_timeline_nonincreasing(self):
        p = random_ip(79)
        res = solve_mip(p, SolveConfig())
        objs = [e["objective"] for e in res.trace["incumbents"]]
        assert objs == sorted(objs, reverse=True)


class TestBench:
    def test_empty_directory_reports_nothing(self, tmp_path):
        report = run_benchmark(tmp_path, log=lambda *a: None)
        assert report["rows"] == []

    def test_unreadable_instance_skipped_with_warning(self, tmp_path):
        (tmp_path / "bad.mps").write_text("GARBAGE\n")
        (tmp_path / "good.mps").write_text(
            Path("src/branchlab/instances/lab00.mps").read_text())
        messages = []
        matrix = {"plain": SolveConfig()}
        report = run_benchmark(tmp_path, matrix, log=messages.append)
        assert any("bad.mps" in str(m) for m in messages)
        assert {r["instance"] for r in report["rows"]} == {"good.mps"}

    def test_matrix_rows_and_determinism(self, tmp_path):
        for name in ("lab00", "lab01"):
            (tmp_path / f"{name}.mps").write_text(
                Path(f"src/branchlab/instances/{name}.mps").read_text())
        matrix = {"a": SolveConfig(),
                  "b": SolveConfig(dval_approach=1)}
        r1 = run_benchmark(tmp_path, matrix, log=lambda *a: None)
        r2 = run_benchmark(tmp_path, matrix, log=lambda *a: None)
        assert len(r1["rows"]) == 4
        assert report_to_json(r1) == report_to_json(r2)
        assert all(r["status"] == "optimal" for r in r1["rows"])

    def test_a_clist_entry_picks_its_members_per_instance(self, tmp_path):
        # the search picks the K root candidates nearest 0.5 after its own
        # root solve, so a configs entry gives the size as `--clist` does
        from branchlab.bench import load_matrix

        for name in ("lab01", "lab10"):
            (tmp_path / f"{name}.mps").write_text(
                (corpus_dir() / f"{name}.mps").read_text())
        cfgfile = tmp_path / "configs.json"
        cfgfile.write_text(json.dumps({"configs": {"k2": {"clist": 2}}}))
        matrix = load_matrix(cfgfile)
        assert matrix == {"k2": cli.config_from_options({"clist": 2})}
        report = run_benchmark(tmp_path, matrix, log=lambda *a: None)
        assert matrix["k2"].winnow.clist == 2
        assert len(report["rows"]) == 2
        for row in report["rows"]:
            problem = parse_mps((tmp_path / row["instance"]).read_text())
            res = solve_mip(problem, matrix["k2"])
            assert (row["status"], row["objective"], row["nodes"],
                    row["lp_solves"]) == (
                res.status, res.objective if res.x is not None else None,
                res.counters.nodes, res.counters.lp_solves)

    def test_default_matrix_has_the_documented_strategies(self):
        names = set(default_matrix())
        assert {"plain-c1", "la-d3-2a", "la-d3-2b", "la-d2-mode",
                "la-straddle", "pseudo-classic", "pseudo-analytical",
                "dval-select", "refset", "vote"} <= names


class TestCli:
    def test_solve_roundtrip(self, tmp_path, capsys):
        from branchlab.cli import main

        inst = tmp_path / "k.mps"
        from branchlab.mps import write_mps
        inst.write_text(write_mps(knapsack()))
        trace = tmp_path / "trace.json"
        code = main(["solve", str(inst), "--lookahead", "2",
                     "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "status    optimal" in out
        data = json.loads(trace.read_text())
        assert data["schema"] == 2
        assert data["status"] == "optimal"

    def test_solve_and_bench_run_vote(self, tmp_path, capsys):
        from branchlab.cli import main

        lab03 = str(corpus_dir() / "lab03.mps")
        assert main(["solve", lab03, "--criterion", "vote"]) == 0
        assert "status    optimal" in capsys.readouterr().out
        (tmp_path / "lab03.mps").write_text(Path(lab03).read_text())
        cfgfile = tmp_path / "configs.json"
        cfgfile.write_text(json.dumps({"configs": {
            "vote": {"criterion": "vote"}}}))
        out_json = tmp_path / "report.json"
        assert main(["bench", str(tmp_path), "--configs", str(cfgfile),
                     "--out", str(out_json)]) == 0
        (row,) = json.loads(out_json.read_text())["rows"]
        assert row["status"] == "optimal"

    @pytest.mark.parametrize("options", [
        ["--n1", "0"],
        ["--lookahead", "3", "--postwin", "2a", "--lim", "0"],
        ["--postwin", "2a", "--lim", "0"],
        ["--criterion", "vote", "--lookahead", "3"],
        ["--reversals", "0.5"],
        ["--lookahead", "2", "--attract-restart"]])
    def test_solve_rejects_bad_options_with_exit_2(self, tmp_path, capsys,
                                                   options):
        from branchlab.cli import main
        from branchlab.mps import write_mps

        inst = tmp_path / "k.mps"
        inst.write_text(write_mps(knapsack()))
        assert main(["solve", str(inst), *options]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out

    @pytest.mark.parametrize("status, root", [
        # min -x0, x0 - x1 >= 0.5, x >= 0
        ("unbounded", ([-1.0, 0.0], [[1.0, -1.0]], [0.5], [math.inf] * 2)),
        # x0 >= 5, x0 <= 1
        ("infeasible", ([1.0], [[1.0]], [5.0], [1.0]))],
        ids=["unbounded", "infeasible"])
    def test_a_clist_solve_reports_a_root_that_is_not_optimal(
            self, tmp_path, capsys, status, root):
        from branchlab.cli import main
        from branchlab.mps import write_mps

        obj, rows, rhs, upper = root
        n = len(obj)
        inst = tmp_path / "root.mps"
        inst.write_text(write_mps(MipProblem(
            name="root", obj=obj, rows=rows, rhs=rhs, lower=[0.0] * n,
            upper=upper, integer_mask=[True] * n)))
        assert main(["solve", str(inst), "--clist", "1"]) == 1
        assert f"status    {status}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("out", ["", "missing/out.json"],
                             ids=["directory", "missing-parent"])
    def test_an_unwritable_output_path_exits_2_before_solving(
            self, tmp_path, capsys, monkeypatch, out):
        from branchlab import bench, cli

        def no_solving(*args, **kwargs):
            raise AssertionError("solved before the output path was checked")

        monkeypatch.setattr(cli, "solve_mip", no_solving)
        monkeypatch.setattr(bench, "run_benchmark", no_solving)
        lab01 = str(corpus_dir() / "lab01.mps")
        path = str(tmp_path / out)
        for argv in (["solve", lab01, "--trace", path],
                     ["bench", str(corpus_dir()), "--out", path]):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and not captured.out

    def test_solve_prints_the_four_search_counters(self, capsys):
        from branchlab.cli import config_from_options, main

        lab01 = corpus_dir() / "lab01.mps"
        assert main(["solve", str(lab01)]) == 0
        out = capsys.readouterr().out
        counters = solve_mip(parse_mps(lab01.read_text()),
                             config_from_options({})).trace["counters"]
        for label, key in (("nodes    ", "nodes"), ("lp solves", "lp_solves"),
                           ("pivots   ", "pivots"), ("probes   ", "probes")):
            assert f"\n{label} {counters[key]}\n" in out

    def test_bench_rejects_reversals_without_lookahead(self, tmp_path,
                                                        capsys):
        from branchlab.cli import main
        from branchlab.mps import write_mps

        (tmp_path / "k.mps").write_text(write_mps(knapsack()))
        cfgfile = tmp_path / "configs.json"
        cfgfile.write_text(json.dumps({"configs": {
            "plain-rev": {"reversals": 0.5},
            "la-rev": {"lookahead": 2, "reversals": 0.5}}}))
        assert main(["bench", str(tmp_path), "--configs",
                     str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config 'plain-rev'")
        assert "need look-ahead" in err

    def test_bench_exit_code_on_empty_dir(self, tmp_path, capsys):
        from branchlab.cli import main

        code = main(["bench", str(tmp_path)])
        assert code == 2
        del capsys

    def test_config_file_matrix(self, tmp_path, capsys):
        from branchlab.cli import main
        from branchlab.mps import write_mps

        (tmp_path / "k.mps").write_text(write_mps(knapsack()))
        cfgfile = tmp_path / "configs.json"
        cfgfile.write_text(json.dumps({
            "configs": {
                "quick": {"criterion": "C1"},
                "deep": {"criterion": "C2a", "lookahead": 2},
            }}))
        out_json = tmp_path / "report.json"
        code = main(["bench", str(tmp_path), "--configs", str(cfgfile),
                     "--out", str(out_json)])
        assert code == 0
        report = json.loads(out_json.read_text())
        assert {r["strategy"] for r in report["rows"]} == {"quick", "deep"}
        del capsys

    def test_unknown_config_option_fails(self, tmp_path, capsys):
        from branchlab.cli import main
        from branchlab.mps import write_mps

        (tmp_path / "k.mps").write_text(write_mps(knapsack()))
        cfgfile = tmp_path / "configs.json"
        cfgfile.write_text(json.dumps({
            "configs": {"ok": {"lookahead": 3},
                        "typo": {"lookahed": 3}}}))
        code = main(["bench", str(tmp_path), "--configs", str(cfgfile)])
        assert code == 2
        err = capsys.readouterr().err
        assert "'typo'" in err and "'lookahed'" in err

    @pytest.mark.parametrize("text, named", [
        ('{"config": {"ok": {"lookahead": 3}}}', '"configs"'),
        ('[{"lookahead": 3}]', '"configs"'),
        ('{"configs": [{"lookahead": 3}]}', '"configs"'),
        ('{"configs": {"a": 5}}', "'a'"),
        ('{"configs": {"a": {"n1": "x"}}}', "'a'"),
        (None, "No such file")])
    def test_a_malformed_config_file_fails(self, tmp_path, capsys, text,
                                           named):
        from branchlab.cli import main

        cfgfile = tmp_path / "configs.json"
        if text is not None:
            cfgfile.write_text(text)
        code = main(["bench", str(tmp_path), "--configs", str(cfgfile)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("instance, options", [
        ("lab01", ["--clist", "1"]),
        ("lab01", ["--clist", "3"]),
        ("lab08", ["--lookahead", "2", "--clist", "1"]),
        ("lab04", ["--lookahead", "3", "--clist", "2"]),
        ("lab10", ["--clist", "2"])])
    def test_a_clist_size_is_fixed_by_the_search_after_one_root_solve(
            self, monkeypatch, capsys, instance, options):
        # the search's CList is the K root candidates nearest 0.5, picked
        # after its own root solve: the same search as that member set
        # given outright, and no other cold solve of the root
        path = corpus_dir() / f"{instance}.mps"
        problem = parse_mps(path.read_text())
        root = lp.solve(problem.to_lp())
        frac = detect_fractional(root, problem)
        k = int(options[-1])
        members = frozenset(sorted(
            frac, key=lambda j: (abs(frac[j][1] - 0.5), j))[:k])
        by_size = cli.config_from_options(dict(zip(
            (o.removeprefix("--") for o in options[::2]),
            map(int, options[1::2]))))
        search = _Search(problem, by_size)
        result = search.run()
        assert search.config.winnow.clist == members
        given = replace(by_size, winnow=replace(by_size.winnow,
                                                clist=members))
        assert trace_to_json(result.trace) == \
            trace_to_json(solve_mip(problem, given).trace)

        cold_root_solves = []
        real = lp.solve

        def counted(model, *args, **kw):
            if kw.get("warm_basis") is None and \
                    np.array_equal(model.lower, problem.lower) and \
                    np.array_equal(model.upper, problem.upper):
                cold_root_solves.append(model)
            return real(model, *args, **kw)

        for module in [m for name, m in sys.modules.items()
                       if name.startswith("branchlab")]:
            for name, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, name, counted)
        cli.main(["solve", str(path), *options])
        out = capsys.readouterr().out
        assert f"lp solves {result.counters.lp_solves}\n" in out
        assert len(cold_root_solves) == 1
