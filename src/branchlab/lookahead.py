"""Narrow look-ahead tree generation for picking one branch at a node.

The builder scans depths 0..D-1.  Each scanned node is winnowed down to a
candidate set F2, both children of every candidate are solved (Step 2),
one branching variable is chosen per node, and its child pair joins the
tree.  Sibling leaf pairs at depth D are scored against the *root*
objective (Step 3), and the variable of the depth-0 branch above the
winning pair is the answer's (Step 4).  The answer dives into that
variable's child with the lower LP bound, read from the root pair the
tree already solved, ties going down; in path-accept mode the winning
root-to-leaf path is taken when it starts in that child.  The winning
leaf's own root side can be the worse child: on one deep instance it
leads a depth-2 tree into the child the plain search prunes, at 148
nodes against 12.  The two-level mode (`build_d2_tree`) keeps its
second-order leaf rule: the same dive makes it worse on the bundled
corpus.

Post-winnowing caps the sibling pairs carried forward from depth d0 on.
At the first gated depth the cap is applied to the prospective pairs
before their LPs are solved (their selection evaluations are already in
hand from the winnowing stage); at later depths every scanned node's pair
is solved and the cap picks which pairs continue.  This reproduces the
node-count identities 2+4+8 = 14, 126, 2+4+6+12+12+12 = 48 (mode 2a) and
2+4+6+6+6+6 = 30 (mode 2b) on an always-feasible fixture.

Signals: a compulsory branch or dead node discovered while scanning depth
0 propagates to the caller, as does any new incumbent (the caller applies
it and restarts the build).  Deeper scans run under `criteria.settle`,
which folds forced branches into the scanned node and re-scans it; a
deeper node that closes is not expanded, and the missing leaves of a
dead one are scored at the incumbent objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING

from branchlab.criteria import (
    BoundDisjunction,
    BranchEval,
    CompulsorySignal,
    Criterion,
    CriterionSpec,
    EvalContext,
    IncumbentSignal,
    NodeInfeasibleSignal,
    evaluate_candidates,
    pair_eval,
    rank,
    select,
    settle,
    uc_lookup_from,
    weight_eval,
)
# every LP here runs through `EvalContext.solve`; `solve` stays bound for
# perfbench's tracer test, which reads `lookahead.solve`
from branchlab.lp import LpModel, LpSolution, LpStatus, apply_branch, solve
from branchlab.model import BranchRecord, MipProblem, detect_fractional
from branchlab.straddle import StraddleDisjunction, drop_inactive_straddle_rows
from branchlab.winnow import run as winnow_run

if TYPE_CHECKING:
    from branchlab.driver import SolveConfig

# Step 3 scores sibling leaf pairs against the root objective with C2a
LEAF_SPEC = CriterionSpec(criterion=Criterion.C2A, p=1.0)


@dataclass(frozen=True)
class AttractConfig:
    threshold: float = 3.0
    half_tree: bool = False
    restart: bool = False             # restart once, re-rooted on the most
                                      # persistently attractive branch

    def __post_init__(self):
        if math.isnan(self.threshold):
            raise ValueError("the attractiveness threshold must not be NaN")


@dataclass(frozen=True)
class PostWinnow:
    mode: str                         # 2a | 2b | 2c
    lim: int = 3
    d0: int = 2
    early_exit: bool = False          # stop once one root side owns all
                                      # carried nodes (optional shortcut)

    def __post_init__(self):
        if self.mode not in ("2a", "2b", "2c"):
            raise ValueError(f"unknown post-winnow mode {self.mode!r}")
        if not (self.lim >= 1 and self.d0 >= 1):
            raise ValueError("post-winnowing needs lim >= 1 and d0 >= 1")


@dataclass(frozen=True)
class LookaheadConfig:
    depth: int = 3
    accept: str = "first"             # first | path
    n_trees: int = 1
    straddle: bool = False
    postwin: PostWinnow | None = None
    attract: AttractConfig | None = None

    def __post_init__(self):
        if not self.depth >= 1:
            raise ValueError("look-ahead depth must be >= 1")
        if not self.n_trees >= 1:
            raise ValueError(f"a look-ahead builds n_trees >= 1 trees, "
                             f"not {self.n_trees}")
        if self.accept not in ("first", "path"):
            raise ValueError(f"unknown accept mode {self.accept!r}")


@dataclass(frozen=True)
class D2Config:
    v: float = 1.0                    # budget ratio n2(0)/n2(1)

    def __post_init__(self):
        if not 1.0 <= self.v <= 2.0:
            raise ValueError("the d2 ratio v must lie in [1, 2]")


class AttractCounters:
    """Persistent-attractiveness tallies for one tree build."""

    def __init__(self):
        self.counts: dict[tuple[int, str], int] = {}
        self.half: dict[str, dict[tuple[int, str], int]] = {
            "up": {}, "down": {}}

    def bump(self, j: int, direction: str, half: str | None):
        key = (j, direction)
        self.counts[key] = self.counts.get(key, 0) + 1
        halves = [half] if half is not None else ["up", "down"]
        for h in halves:
            self.half[h][key] = self.half[h].get(key, 0) + 1

    def value(self, j: int, half: str | None = None) -> tuple[float, str]:
        table = self.counts if half is None else self.half[half]
        up = table.get((j, "up"), 0)
        down = table.get((j, "down"), 0)
        if up >= down:
            return up, "up"
        return down, "down"


@dataclass
class TreeNode:
    parent: "TreeNode | None"
    depth: int
    var: int | None
    direction: str | None
    model: LpModel
    solution: LpSolution | None
    eval_vs_parent: float = 0.0
    root_side: str | None = None     # which depth-1 child it descends from
    ext_id: int | None = None

    def path_records(self) -> list[BranchRecord]:
        out = []
        node = self
        while node is not None and node.var is not None:
            out.append(BranchRecord(var=node.var, direction=node.direction,
                                    bound=0.0))
            node = node.parent
        out.reverse()
        return out

    def path_key(self) -> tuple:
        """Traversal-order-independent identity of this node."""
        return tuple((r.var, r.direction) for r in self.path_records())


@dataclass
class BuildResult:
    var: int
    direction: str
    path: list[tuple[int, str]]
    depth_counts: list[int]
    total_nodes: int
    leaves: list[TreeNode]
    winner_leaf: TreeNode | None
    attract: AttractCounters
    early_exit: bool = False
    overridden: bool = False
    pair_scores: dict = field(default_factory=dict)
    nodes: list = field(default_factory=list)


@dataclass
class _Proposal:
    parent: TreeNode
    var: int
    ev: BranchEval | None            # what the first post-winnow gate
                                     # ranks by; None where no gate reads it
    solved: BranchEval | None = None


class _Builder:
    def __init__(self, problem: MipProblem, config: SolveConfig,
                 ctx: EvalContext, estimator=None, ext_tree=None):
        self.problem = problem
        self.cfg = cfg = config.lookahead
        self.winnow = config.winnow
        self.spec = config.criterion
        self.ctx = ctx
        self.disjunction = StraddleDisjunction if cfg.straddle \
            else BoundDisjunction
        # Step-2 pairs are scored unweighted whatever the criterion flavor
        self.pair_spec = replace(self.spec, w1=0.0, w2=0.0)
        self.estimator = estimator
        self.ext = ext_tree
        self.attract = AttractCounters()
        self.depth_counts: list[int] = []
        self.excluded: frozenset[int] = frozenset()
        self.root_f2: list[int] = []
        self.all_nodes: list[TreeNode] = []

    # -- helpers ----------------------------------------------------------

    def _record_ext(self, parent: TreeNode, var, direction, bound,
                    tentative, uc):
        if self.ext is None:
            return None
        pid = parent.ext_id if parent.ext_id is not None else 0
        rec = self.ext.add(pid, var=var, direction=direction, bound=bound,
                           tentative=tentative, uc=uc)
        return rec.node_id

    def _fractions(self, node: TreeNode) -> dict:
        return self._eligible(detect_fractional(node.solution, self.problem))

    def _eligible(self, fractions: dict) -> dict:
        if not self.excluded:
            return fractions
        return {j: v for j, v in fractions.items() if j not in self.excluded}

    def _winnow(self, node: TreeNode, fractions: dict):
        """The winnow at one node, with stage-2 evaluations wherever they
        are read: at the first gated depth, where single-F2 proposals are
        ranked by them, and by the attract counters."""
        pw = self.cfg.postwin
        return winnow_run(node.model, node.solution, fractions,
                          self.winnow, self.ctx, node.depth,
                          self.disjunction,
                          scored=self.cfg.attract is not None or
                          (pw is not None and node.depth == pw.d0))

    def _tally(self, evals: dict, js, half: str | None):
        """Bump the attract counters of js in their evaluated directions."""
        if self.cfg.attract is not None:
            for j in js:
                self.attract.bump(j, evals[j].direction, half)

    def _reduce_straddle(self, node: TreeNode) -> bool:
        """Drop straddle rows whose slack went nonbasic, re-solving once;
        False when the re-solve does not end optimal.

        Dropping a tight row relaxes the node, so its solution (and hence
        the fractional set seen by the scan) must be refreshed before any
        candidate work happens.
        """
        if not self.cfg.straddle or not node.model.straddle_rows:
            return True
        model, basis = drop_inactive_straddle_rows(node.model,
                                                   node.solution)
        if basis is node.solution.basis and model is node.model:
            return True
        node.model = model
        if basis is None:
            sol = self.ctx.solve(model)
            if sol.status is not LpStatus.OPTIMAL:
                return False
            node.solution = sol
        return True

    def _solve_pairs(self, node: TreeNode, candidates, fractions: dict,
                     estimate=None) -> dict:
        """Step-2 pair evaluations at a scanned node, each logged to the
        extended tree as soon as it is solved."""
        return evaluate_candidates(
            node.model, node.solution, candidates, self.ctx, self.pair_spec,
            fractions, self.disjunction, estimate=estimate,
            on_pair=partial(self._log_pair, node))

    def _log_pair(self, node: TreeNode, ev: BranchEval):
        if self.ext is None:
            return
        for direction, uc, sol in (("up", ev.uc_up, ev.sol_up),
                                   ("down", ev.uc_down, ev.sol_down)):
            if sol is not None:
                self._record_ext(node, ev.var, direction, 0.0, True, uc)

    def _record_forced(self, node: TreeNode, sig, model: LpModel,
                       fresh: LpSolution):
        """A forced branch tightens the node only when its re-solve is
        optimal; otherwise settle closes the node."""
        if fresh.status is not LpStatus.OPTIMAL:
            return
        node.model = model
        node.solution = fresh
        if self.ext is not None and node.ext_id is not None:
            self.ext.add_compulsory(node.ext_id)

    # -- scanning ---------------------------------------------------------

    def _propose(self, node: TreeNode) -> _Proposal | None:
        """Winnow + Step 2 at one node; None when the node is not expanded.

        Every signal at depth 0 goes to the caller.  Deeper, forced
        branches are folded into the node, and a node that closes (dead,
        at a solver limit, a CList leaf or unsettled) stays a leaf.
        """
        if not self._reduce_straddle(node):
            return None
        if node.depth == 0:
            return self._scan(node, self._fractions(node))
        settled = settle(node.model, node.solution, self.ctx,
                         lambda model, sol, fractions: self._scan(
                             node, self._eligible(fractions)),
                         partial(self._record_forced, node))
        if settled.closed == "integral":
            raise IncumbentSignal(settled.sol)
        return settled.result

    def _scan(self, node: TreeNode, fractions: dict) -> _Proposal | None:
        """Winnow + Step 2 over the node's eligible fractional set; None,
        so the node stays a leaf, when every fractional variable is
        excluded (a later tree of `build_multi_trees`)."""
        if not fractions:
            return None
        f2, s2, f1, _ = self._winnow(node, fractions)
        if node.depth == 0:
            self.root_f2 = list(f2)
        half = node.root_side
        self._tally(s2, [j for j in f1 if j not in f2], half)
        if len(f2) == 1:
            j = f2[0]
            # the pair itself is solved only if this proposal survives
            # post-winnow gating
            self._tally(s2, f2, half)
            return _Proposal(parent=node, var=j,
                             ev=None if s2 is None else s2[j])
        est = self.estimator
        evals = self._solve_pairs(
            node, f2, fractions,
            None if est is None else partial(est, node=node))
        # only an LP-solved pair has children to admit
        chosen = select({j: ev for j, ev in evals.items()
                         if ev.uc_up is not None}, self.spec)
        self._tally(evals, f2, half)
        ev = evals[chosen.var]
        return _Proposal(parent=node, var=chosen.var, ev=ev, solved=ev)

    def _admit_pair(self, prop: _Proposal, fractions: dict | None = None):
        """Solve (if needed) and attach the chosen pair as tree nodes."""
        node = prop.parent
        if prop.solved is None:
            fractions = fractions or self._fractions(node)
            try:
                prop.solved = self._solve_pairs(node, [prop.var],
                                                fractions)[prop.var]
            except CompulsorySignal as sig:
                if node.depth == 0:
                    raise
                ev = sig.evaluation
                if ev is None:
                    return []
                prop.solved = ev
            except NodeInfeasibleSignal:
                if node.depth == 0:
                    raise
                return []
        ev = prop.solved
        live = [(direction, sol) for direction, sol in
                (("up", ev.sol_up), ("down", ev.sol_down)) if sol is not None]
        if not live:
            return []
        disj = self.disjunction(node.model, node.solution, prop.var,
                                self.ctx)
        kids = []
        for direction, sol in live:
            child_model, _ = disj.child(direction)
            kid = TreeNode(
                parent=node, depth=node.depth + 1, var=prop.var,
                direction=direction, model=child_model, solution=sol,
                eval_vs_parent=(ev.eval_up if direction == "up"
                                else ev.eval_down),
                root_side=(node.root_side if node.root_side is not None
                           else direction))
            kid.ext_id = self._record_ext(
                node, prop.var, direction, 0.0, tentative=False,
                uc=(ev.uc_up if direction == "up" else ev.uc_down))
            kids.append(kid)
            self.all_nodes.append(kid)
        return kids

    # -- main build -------------------------------------------------------

    def build(self, root: TreeNode,
              forced_root_var: int | None = None) -> BuildResult:
        cfg = self.cfg
        pw = cfg.postwin
        scan = [root]
        self.depth_counts = []
        pairs_by_depth: dict[int, list[list[TreeNode]]] = {}
        for d in range(cfg.depth):
            proposals = []
            for node in scan:
                if forced_root_var is not None and d == 0:
                    ev = self._solve_pairs(node, [forced_root_var],
                                           self._fractions(node))[
                                               forced_root_var]
                    proposals.append(_Proposal(
                        parent=node, var=forced_root_var, ev=ev,
                        solved=ev))
                    continue
                prop = self._propose(node)
                if prop is not None:
                    proposals.append(prop)
            if d == 0 and not proposals:
                raise NodeInfeasibleSignal(-1)
            gated = pw is not None and d >= pw.d0
            if gated and d == pw.d0 and len(proposals) > pw.lim:
                # first gate: rank prospective pairs before solving them
                proposals = _best([(p.parent.path_key(), p.ev, p)
                                   for p in proposals], self.spec, pw.lim)
            pairs = []
            for prop in proposals:
                kids = self._admit_pair(prop)
                if kids:
                    pairs.append(kids)
            level_nodes = [k for pair in pairs for k in pair]
            self.depth_counts.append(len(level_nodes))
            pairs_by_depth[d + 1] = pairs
            if d + 1 == cfg.depth:
                scan = []
                break
            if not gated:
                carried = level_nodes
            else:
                carried = post_winnow(pairs, pw.mode, pw.lim, self.spec,
                                      already_capped=d == pw.d0)
                if pw.early_exit and \
                        len({k.root_side for k in carried}) == 1:
                    return self._finish(root, pairs_by_depth,
                                        early_exit=True)
            scan = sorted(carried, key=lambda k: k.path_key())
        return self._finish(root, pairs_by_depth)

    def _leaf_bundles(self, pairs: list[list[TreeNode]], root: TreeNode):
        bundles = {}
        handles = {}
        pairs = sorted(pairs, key=lambda pair: pair[0].path_key()[:-1])
        base = root.solution.x_o
        for idx, pair in enumerate(pairs):
            up_node = next((k for k in pair if k.direction == "up"), None)
            dn_node = next((k for k in pair if k.direction == "down"), None)
            bundles[idx] = pair_eval(
                idx,
                None if up_node is None else up_node.solution.x_o - base,
                None if dn_node is None else dn_node.solution.x_o - base,
                self.ctx.x_o_star - base, signal_compulsory=False)
            handles[idx] = (up_node, dn_node)
        return bundles, handles

    @staticmethod
    def _dive(pairs_by_depth) -> tuple[int, str]:
        """The root variable and its child with the lower LP bound, read
        from the LP-solved root pair; a dead child's bound is +inf, and a
        tie goes down, as `BranchEval.direction` breaks it."""
        (pair,) = pairs_by_depth[1]
        bound = {k.direction: k.solution.x_o for k in pair}
        up, down = bound.get("up", math.inf), bound.get("down", math.inf)
        return pair[0].var, "up" if up < down else "down"

    def _finish(self, root, pairs_by_depth,
                early_exit=False) -> BuildResult:
        total = sum(self.depth_counts)
        leaves = [k for pair in pairs_by_depth.get(self.cfg.depth, [])
                  for k in pair]
        if early_exit:
            # every carried node shares one root side
            var, direction = self._dive(pairs_by_depth)
            return BuildResult(
                var=var, direction=direction, path=[(var, direction)],
                depth_counts=self.depth_counts, total_nodes=total,
                leaves=leaves, winner_leaf=None, attract=self.attract,
                early_exit=True, nodes=self.all_nodes)
        deepest = max((d for d, pairs in pairs_by_depth.items() if pairs),
                      default=0)
        pairs = pairs_by_depth.get(deepest, [])
        if not pairs:
            raise NodeInfeasibleSignal(-1)
        bundles, handles = self._leaf_bundles(pairs, root)
        pick = select(bundles, LEAF_SPEC)
        up_node, dn_node = handles[pick.var]
        winner = up_node if pick.direction == "up" else dn_node
        if winner is None:
            winner = up_node or dn_node
        var, direction = self._dive(pairs_by_depth)
        path = [(rec.var, rec.direction) for rec in winner.path_records()]
        if self.cfg.accept != "path" or path[0] != (var, direction):
            path = [(var, direction)]
        return BuildResult(
            var=var, direction=direction, path=path,
            depth_counts=self.depth_counts, total_nodes=total,
            leaves=leaves, winner_leaf=winner, attract=self.attract,
            pair_scores={k: pick.scores.get(k) for k in bundles},
            nodes=self.all_nodes)


def post_winnow(pairs: list[list[TreeNode]], mode: str, lim: int,
                spec: CriterionSpec,
                already_capped: bool = False) -> list[TreeNode]:
    """Select the nodes carried forward from one generated level.

    2a keeps the lim best sibling pairs, ranked under `spec` as
    `criteria.rank` ranks branches; 2b keeps only the lower-eval node of
    each kept pair; 2c keeps the lim best single nodes across pairs.
    """
    if mode == "2c":
        nodes = [k for pair in pairs for k in pair]
        nodes.sort(key=lambda k: (k.eval_vs_parent, k.path_key()))
        return nodes[:lim]
    if already_capped:
        kept_pairs = pairs
    else:
        kept_pairs = _best([(pair[0].path_key(), _pair_eval(pair), pair)
                            for pair in pairs], spec, lim)
    if mode == "2a":
        return [k for pair in kept_pairs for k in pair]
    # 2b: best sibling only
    out = []
    for pair in kept_pairs:
        best = min(pair, key=lambda k: (k.eval_vs_parent, k.path_key()))
        out.append(best)
    return out


def _pair_eval(pair: list[TreeNode]) -> BranchEval:
    """A generated sibling pair's evaluations; a missing sibling's is
    +inf."""
    evals = {k.direction: k.eval_vs_parent for k in pair}
    return BranchEval(var=0, eval_up=evals.get("up", math.inf),
                      eval_down=evals.get("down", math.inf))


def _best(scored: list[tuple], spec: CriterionSpec, lim: int) -> list:
    """The items of the `lim` best (path key, evaluation, item) triples,
    best first as `criteria.rank` orders the evaluations under `spec`;
    ties go to the lower path key."""
    scored = sorted(scored, key=lambda t: t[0])
    best = rank({i: ev for i, (_, ev, _) in enumerate(scored)}, spec, lim)
    return [scored[i][2] for i in best]


def _maybe_override(result: BuildResult, builder: _Builder) -> BuildResult:
    att = builder.cfg.attract
    if att is None or not builder.root_f2:
        return result
    half = None
    if att.half_tree and result.winner_leaf is not None:
        half = result.winner_leaf.root_side
    best_j, best_val, best_dir = None, -1.0, "up"
    for j in sorted(builder.root_f2):
        val, direction = builder.attract.value(j, half)
        if val > best_val:
            best_j, best_val, best_dir = j, val, direction
    if best_j is not None and best_val > att.threshold:
        return replace(result, var=best_j, direction=best_dir,
                       path=[(best_j, best_dir)], overridden=True)
    return result


def _root_node(model: LpModel, sol: LpSolution,
               ext_root: int | None = None) -> TreeNode:
    return TreeNode(parent=None, depth=0, var=None, direction=None,
                    model=model, solution=sol, ext_id=ext_root)


def build_tree(problem: MipProblem, model: LpModel, sol: LpSolution,
               config: SolveConfig, ctx: EvalContext, estimator=None,
               ext_tree=None, ext_root: int | None = None) -> BuildResult:
    """One look-ahead tree; probe signals propagate to the caller."""
    builder = _Builder(problem, config, ctx, estimator, ext_tree)
    root = _root_node(model, sol, ext_root)
    if not detect_fractional(sol, problem):
        raise IncumbentSignal(sol)
    return _maybe_override(builder.build(root), builder)


def build_d2_tree(problem: MipProblem, model: LpModel, sol: LpSolution,
                  config: SolveConfig, ctx: EvalContext) -> BuildResult:
    """Simplified two-level strategy with |F|-proportioned pair budgets.

    Solves 2*n2(0) LPs at the root and 2*n2(1) at each depth-1 child; the
    depth-2 sibling pairs are scored with unit-cost weighted (second
    order) evaluations, pricing each leaf fractional by probes from the
    d=1 parent first, the root's probes second, and the root's reduced
    costs last.  A depth-1 child that closes at a solver limit, as a CList
    leaf or unsettled (`criteria.settle`) stays unexpanded; with no child
    expanded the root choice is taken in its own direction, and only when
    both children are dead is the node infeasible.
    """
    fractions = detect_fractional(sol, problem)
    if not fractions:
        raise IncumbentSignal(sol)
    f_size = len(fractions)
    v = config.lookahead.v
    n2_1 = max(1, round(f_size / (v + 2.0)))
    n2_0 = max(1, round(v * f_size / (v + 2.0)))
    params = replace(config.winnow, k2=1, n2_root=n2_0, n2_mid=n2_1)
    spec = config.criterion
    # root scan
    f2, _, _, _ = winnow_run(model, sol, fractions, params, ctx, 0)
    root_evals = evaluate_candidates(model, sol, f2, ctx, spec, fractions)
    choice = select(root_evals, spec)
    root_ev = root_evals[choice.var]
    leaf_spec = CriterionSpec(criterion=Criterion.C7, w1=spec.w1 or 1.0,
                              w2=0.0)
    bundles = {}
    handles = {}
    unexpanded = cut_off = False

    def child_scan(child_model, child_sol, child_frac):
        cf2, _, _, _ = winnow_run(child_model, child_sol, child_frac,
                                  params, ctx, 1)
        return evaluate_candidates(child_model, child_sol, cf2, ctx, spec,
                                   child_frac)

    for direction, child_sol in (("up", root_ev.sol_up),
                                 ("down", root_ev.sol_down)):
        if child_sol is None:
            continue
        child_model, _ = apply_branch(model, sol, choice.var, direction)
        settled = settle(child_model, child_sol, ctx, child_scan)
        if settled.closed == "integral":
            raise IncumbentSignal(settled.sol)
        if settled.closed is not None:
            # a child is dead only when proven so
            cut_off |= settled.closed == "cutoff"
            unexpanded |= settled.closed not in ("infeasible", "cutoff")
            continue
        child_sol, child_evals = settled.sol, settled.result
        pick = select(child_evals, spec)
        leaf = child_evals[pick.var]
        # re-express the child evals against the root objective (Step 3)
        shift = child_sol.x_o - sol.x_o
        weighted = weight_eval(
            replace(leaf, eval_up=leaf.eval_up + shift,
                    eval_down=leaf.eval_down + shift),
            leaf_spec.eval_flavor(), leaf_spec.w1, leaf_spec.w2,
            uc_lookup_from(sol, child_evals, root_evals))
        side = 0 if direction == "up" else 1
        bundles[side] = replace(weighted, var=side)
        handles[side] = direction
    if bundles:
        direction = handles[select(bundles, leaf_spec).var]
    elif unexpanded:
        direction = choice.direction
    else:
        raise NodeInfeasibleSignal(choice.var, cutoff=cut_off)
    counts = [2, 2 * len(bundles)]
    return BuildResult(var=choice.var, direction=direction,
                       path=[(choice.var, direction)],
                       depth_counts=counts, total_nodes=sum(counts),
                       leaves=[], winner_leaf=None,
                       attract=AttractCounters(),
                       pair_scores={"n2_root": n2_0, "n2_child": n2_1})


def build_multi_trees(problem: MipProblem, model: LpModel,
                      sol: LpSolution, config: SolveConfig,
                      ctx: EvalContext, estimator=None,
                      ext_tree=None, ext_root: int | None = None) -> BuildResult:
    """Lexicographically deduplicated trees from the top root candidates.

    The k-th tree is rooted at the k-th best depth-0 candidate and may not
    branch anywhere on a better-ranked candidate, so no two trees can
    generate the same node.  The best leaf across trees decides.
    """
    n_trees = config.lookahead.n_trees
    if n_trees < 2:
        return build_tree(problem, model, sol, config, ctx, estimator,
                          ext_tree, ext_root)
    fractions = detect_fractional(sol, problem)
    if not fractions:
        raise IncumbentSignal(sol)
    f2, _, _, _ = winnow_run(model, sol, fractions, config.winnow, ctx, 0)
    if len(f2) < 2:
        return build_tree(problem, model, sol, config, ctx, estimator,
                          ext_tree, ext_root)
    root_evals = evaluate_candidates(model, sol, f2, ctx, config.criterion,
                                     fractions)
    ranked = rank(root_evals, config.criterion, n_trees)
    best: tuple[float, BuildResult] | None = None
    cut_off = False
    for k, var in enumerate(ranked):
        builder = _Builder(problem, config, ctx, estimator, ext_tree)
        builder.excluded = frozenset(ranked[:k])
        root = _root_node(model, sol, ext_root)
        try:
            result = builder.build(root, forced_root_var=var)
        except NodeInfeasibleSignal as sig:
            cut_off |= sig.cutoff
            continue
        quality = max((v for v in result.pair_scores.values()
                       if v is not None), default=-math.inf)
        if best is None or quality > best[0]:
            best = (quality, result)
    if best is None:
        raise NodeInfeasibleSignal(-1, cutoff=cut_off)
    return best[1]
