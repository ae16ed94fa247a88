"""Branch-and-bound driver tying the strategy modules together.

One solve owns the incumbent, the open-node set, every cost memory, and a
deterministic JSON-able trace.  Branch decisions come either from the
look-ahead tree builders or from winnowed criterion selection, run under
`criteria.settle`, which folds forced branches into the node; a new
incumbent restarts the decision.  Both loops are capped as a numeric
safety net, after which the driver branches on the most fractional
candidate so no region is ever silently dropped.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from branchlab.costmem import (
    AnalyticalThresholds,
    DvalCalibrator,
    ExtendedTree,
    PathStep,
    PseudoCostTable,
    ReferenceSet,
    analytical_uc,
)
from branchlab.criteria import (
    CLOSED,
    MAX_FORCED,
    Criterion,
    CriterionSpec,
    EvalContext,
    IncumbentSignal,
    SearchCounters,
    evaluate_candidates,
    mincost_sum,
    select,
    settle,
    uc_lookup_from,
    unit_cost,
    vote,
)
from branchlab.lookahead import (
    D2Config,
    LookaheadConfig,
    build_d2_tree,
    build_multi_trees,
    build_tree,
)
from branchlab.lp import (
    CUTOFF_SLACK,
    LpError,
    LpNumericError,
    LpStatus,
    LpUnboundedError,
    PivotBudget,
    apply_branch,
    apply_reversal_update,
    fractional_parts,
    solve,
)
from branchlab.model import (
    BranchRecord,
    Incumbent,
    MipProblem,
    NodeState,
    detect_fractional,
)
from branchlab.winnow import WinnowParams, nearest_half
from branchlab.winnow import run as winnow_run

TRACE_SCHEMA = 2
NODE_BUDGET = PivotBudget(max_pivots=50_000, max_degenerate=5_000)

VOTE_PANEL = (
    CriterionSpec(criterion=Criterion.C1_PRODUCT),
    CriterionSpec(criterion=Criterion.C2A, p=1.0),
    CriterionSpec(criterion=Criterion.C4),
    CriterionSpec(criterion=Criterion.C5, p=0.3),
)
# how decide traces a node that settle closed because both of a branch's
# children are dead (cut off by the incumbent, or infeasible)
DEAD_CHILDREN = {"cutoff": ("fathomed", "both branches cut off"),
                 "infeasible": ("infeasible", "both branches dead")}


@dataclass(frozen=True)
class SolveConfig:
    # picks the branch, plain or look-ahead; winnow.spec ranks the winnow
    criterion: CriterionSpec = field(default_factory=lambda: CriterionSpec(
        criterion=Criterion.C2A, p=1.0))
    winnow: WinnowParams = field(default_factory=WinnowParams)
    lookahead: LookaheadConfig | D2Config | None = None
    pseudo: str = "off"               # off | classic | analytical
    refset_theta: float | None = None   # reference-set gate (plain only)
    dval_approach: int | None = None  # Dval node selection; None is DFS
    reversal_beta: float | None = None  # leaf reversals (look-ahead trees)
    eps: float = 1e-6
    max_nodes: int = 100_000
    max_time: float = 300.0

    def __post_init__(self):
        if self.pseudo not in ("off", "classic", "analytical"):
            raise ValueError(f"unknown pseudo mode {self.pseudo!r}")
        if self.dval_approach not in (None, 1, 2):
            raise ValueError(f"unknown Dval approach {self.dval_approach!r}")
        # NaN fails every comparison, so each test below rejects it
        if not (self.max_nodes > 0 and self.max_time > 0):
            raise ValueError("limits must be positive")
        if not 0 <= self.eps < math.inf:
            raise ValueError(f"eps must be finite and >= 0, not {self.eps}")
        for name in ("reversal_beta", "refset_theta"):
            weight = getattr(self, name)
            if weight is not None and not 0.0 <= weight <= 1.0:
                raise ValueError(f"{name} is a convex weight in [0, 1], "
                                 f"not {weight}")
        if self.lookahead and self.criterion.criterion is Criterion.VOTE:
            raise ValueError("vote is for plain branching, not look-ahead")
        if self.reversal_beta is not None and \
                not isinstance(self.lookahead, LookaheadConfig):
            raise ValueError("reversals need look-ahead trees")
        if self.refset_theta is not None and self.lookahead:
            raise ValueError("the reference-set gate is for plain branching")
        if isinstance(self.lookahead, D2Config) and (
                self.pseudo != "off" or self.winnow != replace(
                    WinnowParams(), spec=self.winnow.spec,
                    clist=self.winnow.clist,
                    vlim_mult=self.winnow.vlim_mult)):
            raise ValueError("d2 sets its own stage sizes, estimating none")


@dataclass
class SolveResult:
    # optimal | feasible | infeasible | limit | unbounded | numeric
    status: str
    objective: float
    bound: float
    x: np.ndarray | None
    trace: dict
    counters: SearchCounters
    ext: ExtendedTree | None = None


class _Search:
    def __init__(self, problem: MipProblem, config: SolveConfig):
        self.problem = problem
        self.config = config
        self.incumbent = Incumbent(eps=config.eps)
        self.counters = SearchCounters()
        self.pseudo = PseudoCostTable()
        self.ext = ExtendedTree()
        self.dval = None if config.dval_approach is None \
            else DvalCalibrator(approach=config.dval_approach)
        self.refset: ReferenceSet | None = None
        self.open: list[tuple[int, int]] = []     # (node_id, push order)
        self.nodes: dict[int, NodeState] = {}
        self.next_id = 0
        self.order = 0
        self.trace_map: dict[int, dict] = {}
        self.incumbent_log: list[dict] = []
        self.reversal_log: list[dict] = []
        self.started = time.monotonic()
        self.root_x: np.ndarray | None = None
        self.incomplete = False       # a region was closed heuristically
        self.closed_bound = math.inf  # best bound among such regions
        self.global_attract: dict[tuple[int, str], int] = {}
        self.pending_restart = False
        self.restarted = False
        self.forced_root: tuple[int, str] | None = None
        self.full_solves = 0
        self.full_pivots = 0
        self.unsolved_children: dict[int, int] = {}   # by parent node id
        self.cold_memo: dict = {}     # this search's cold runs (`lp.solve`)
        self.budgets: dict = {}       # `EvalContext.branch_budget`'s

    # -- plumbing ---------------------------------------------------------

    def ctx(self) -> EvalContext:
        return EvalContext(problem=self.problem,
                           x_o_star=self.incumbent.x_o,
                           cutoff=self.incumbent.cutoff,
                           counters=self.counters,
                           k2_default=self.k2_default(),
                           budgets=self.budgets, cold_memo=self.cold_memo)

    def k2_default(self) -> int | None:
        """One sixth of the running average pivots per full node solve."""
        if self.full_solves == 0:
            return None
        return max(1, math.ceil(self.full_pivots / self.full_solves / 6))

    def new_node(self, parent: NodeState | None, record, model,
                 dval_parts=None) -> NodeState:
        node = NodeState(node_id=self.next_id,
                         parent_id=parent.node_id if parent else None,
                         depth=parent.depth + 1 if parent else 0,
                         branch=record, model=model,
                         bound=parent.solution.x_o if parent and
                         parent.solution else -math.inf)
        node.dval_parts = dval_parts
        self.nodes[node.node_id] = node
        self.next_id += 1
        self.trace_node(node, "open")
        return node

    def push(self, node: NodeState):
        self.open.append((node.node_id, self.order))
        self.order += 1

    def trace_node(self, node: NodeState, status: str, reason=None):
        """Upsert the node's trace record (one record per node id)."""
        rec = self.trace_map.get(node.node_id)
        if rec is None:
            rec = {
                "id": node.node_id,
                "parent": node.parent_id,
                "depth": node.depth,
                "branch": None if node.branch is None else {
                    "var": int(node.branch.var),
                    "direction": node.branch.direction,
                    "bound": float(node.branch.bound)},
                "x_o": None,
                "status": status,
                "implied": 0,
            }
            self.trace_map[node.node_id] = rec
        rec["status"] = status
        rec["implied"] = len(node.implied)
        if node.solution is not None:
            rec["x_o"] = round(float(node.solution.x_o), 9)
        if reason:
            rec["prune_reason"] = reason
        elif "prune_reason" in rec:
            del rec["prune_reason"]

    # -- incumbent flow ----------------------------------------------------

    def install_incumbent(self, x, x_o: float,
                          path_node: NodeState | None) -> bool:
        changed = self.incumbent.update(x, x_o, self.problem)
        if not changed:
            return False
        self.incumbent_log.append({"objective": round(float(x_o), 9),
                                   "order": self.order})
        cutoff = self.incumbent.cutoff
        kept = []
        for node_id, order in self.open:
            node = self.nodes[node_id]
            if node.bound > cutoff + CUTOFF_SLACK:
                self.trace_node(node, "pruned", reason="incumbent cutoff")
                self.child_done(node)
            else:
                kept.append((node_id, order))
        self.open = kept
        if path_node is not None:
            if self.dval is not None:
                self.calibrate_dval(path_node, x_o)
            if self.refset is not None:
                branch_vars = set()
                walk: NodeState | None = path_node
                while walk is not None and walk.branch is not None:
                    if not walk.branch.compulsory:
                        branch_vars.add(walk.branch.var)
                    walk = self.nodes.get(walk.parent_id)
                self.refset.add(x, x_o, branch_vars)
        # only an attract-enabled look-ahead fills global_attract
        if self.global_attract and not self.restarted and \
                self.config.lookahead.attract.restart:
            self.pending_restart = True
        return True

    def merge_attract(self, attract):
        for key, count in attract.counts.items():
            self.global_attract[key] = \
                self.global_attract.get(key, 0) + count

    def calibrate_dval(self, leaf: NodeState, x_o_star: float):
        chain: list[NodeState] = []
        walk: NodeState | None = leaf
        while walk is not None:
            chain.append(walk)
            walk = self.nodes.get(walk.parent_id) \
                if walk.parent_id is not None else None
        chain.reverse()
        steps = []
        for idx in range(1, len(chain) - 1):
            node = chain[idx]
            child = chain[idx + 1]
            if node.solution is None or child.solution is None:
                return
            mincost = child.dval_parts[1] if child.dval_parts else 0.0
            steps.append(PathStep(depth=idx,
                                  x_o_node=node.solution.x_o,
                                  x_child=child.solution.x_o,
                                  mincost_sum=float(mincost)))
        if steps:
            self.dval.calibrate(steps, x_o_star)

    # -- node selection ----------------------------------------------------

    def select_open(self) -> NodeState:
        if self.dval is None:
            best = max(self.open,
                       key=lambda t: (self.nodes[t[0]].depth, t[1]))
        else:
            def dval_key(t):
                node = self.nodes[t[0]]
                parts = node.dval_parts or (0.0, 0.0,
                                            max(node.depth - 1, 1))
                return (self.dval.dval(parts[0], parts[1], parts[2]),
                        t[0])
            best = min(self.open, key=dval_key)
        self.open.remove(best)
        return self.nodes[best[0]]

    # -- pseudo / analytical estimators --------------------------------------

    def estimator(self):
        mode = self.config.pseudo
        if mode == "off":
            return None
        if mode == "classic":
            def classic(j, f_plus, f_minus, node):
                if self.pseudo.count(j, "up") == 0 or \
                        self.pseudo.count(j, "down") == 0:
                    return None
                return self.pseudo.pseudo_eval(j, f_plus, f_minus)
            return classic

        thresholds = AnalyticalThresholds()

        def analytical(j, f_plus, f_minus, node):
            ext_id = getattr(node, "ext_id", None)
            parent = self.ext[ext_id] if ext_id is not None else self.ext[0]
            max_depth = max((r.depth for r in self.ext.records), default=0)
            up = analytical_uc(self.ext, j, "up", parent,
                               thresholds, max_depth,
                               forward_only=True)
            dn = analytical_uc(self.ext, j, "down", parent,
                               thresholds, max_depth,
                               forward_only=True)
            if up is None or dn is None:
                return None
            return up * f_plus, dn * f_minus
        return analytical

    # -- reference-set rationing ---------------------------------------------

    def gate_allows(self, node: NodeState, j: int, direction: str) -> bool:
        if self.refset is None or not len(self.refset):
            return True
        if direction == "up":
            acc = max(0.0, node.model.lower[j] - float(self.root_x[j]))
        else:
            acc = max(0.0, float(self.root_x[j]) - node.model.upper[j])
        return self.refset.gate(j, direction, acc,
                                theta=self.config.refset_theta,
                                is_binary=self.problem.is_binary(j))

    def apply_gate(self, node: NodeState, evals: dict, pick):
        var, direction = pick.var, pick.direction
        if self.gate_allows(node, var, direction):
            return var, direction
        flipped = "down" if direction == "up" else "up"
        if self.gate_allows(node, var, flipped):
            return var, flipped
        allowed = [j for j in evals if j != var
                   and (self.gate_allows(node, j, "up")
                        or self.gate_allows(node, j, "down"))]
        if not allowed:
            return var, direction   # rationing must not wedge the search
        spec = self.config.criterion
        subset = {j: evals[j] for j in allowed}
        sub = vote(subset, VOTE_PANEL) \
            if spec.criterion is Criterion.VOTE else select(subset, spec)
        var, direction = sub.var, sub.direction
        if not self.gate_allows(node, var, direction):
            direction = "down" if direction == "up" else "up"
        return var, direction

    # -- branch selection -----------------------------------------------------

    def pick_branch(self, node: NodeState, model, sol, fractions: dict):
        """Returns (plan, dval seed per direction for the first step)."""
        cfg = self.config
        ctx = self.ctx()
        la = cfg.lookahead
        if isinstance(la, D2Config):
            return list(build_d2_tree(self.problem, model, sol, cfg,
                                      ctx).path), None
        if la is not None:
            build = build_multi_trees if la.n_trees > 1 else build_tree
            result = build(self.problem, model, sol, cfg, ctx,
                           estimator=self.estimator(), ext_tree=self.ext,
                           ext_root=node.ext_id)
            if cfg.reversal_beta is not None and result.leaves:
                self.try_reversal(result.leaves, node)
            if la.attract is not None:
                self.merge_attract(result.attract)
            return list(result.path), None
        f2, _, _, _ = winnow_run(model, sol, fractions, cfg.winnow, ctx,
                                 node.depth)
        spec = cfg.criterion
        ranking_spec = VOTE_PANEL[0] \
            if spec.criterion is Criterion.VOTE else spec
        est = self.estimator()
        evals = evaluate_candidates(
            model, sol, f2, ctx, ranking_spec, fractions,
            estimate=None if est is None else partial(est, node=node))
        pick = vote(evals, VOTE_PANEL) \
            if spec.criterion is Criterion.VOTE else select(evals, spec)
        var, direction = self.apply_gate(node, evals, pick)
        self.record_pseudo(evals)
        seed = None
        ev = evals.get(var)
        if ev is not None and ev.uc_up is not None:
            lookup = uc_lookup_from(sol, evals)
            seed = {
                "up": (ev.eval_up, mincost_sum(ev.frac_up, lookup)),
                "down": (ev.eval_down, mincost_sum(ev.frac_down, lookup)),
            }
        return [(var, direction)], seed

    def record_pseudo(self, evals: dict):
        for j, ev in evals.items():
            if ev.uc_up is None:
                continue
            if ev.sol_up is not None:
                self.pseudo.update(j, "up", ev.uc_up,
                                   ev.sol_up.status is LpStatus.OPTIMAL)
            if ev.sol_down is not None:
                self.pseudo.update(j, "down", ev.uc_down,
                                   ev.sol_down.status is LpStatus.OPTIMAL)

    # -- reversals -------------------------------------------------------------

    @staticmethod
    def reversal_threshold(values, beta: float) -> float:
        """Convex mix of the average and maximum resistance values."""
        return beta * (sum(values) / len(values)) + \
            (1.0 - beta) * max(values)

    def try_reversal(self, leaves, owner: NodeState):
        """Reverse the most resisted look-ahead branch at one leaf.

        Candidates are path branches whose variable sits nonbasic at the
        bound the branch imposed in the leaf solution; the threshold mixes
        the average and maximum reduced cost over the candidates.  At most
        one reversal per tree build, trace-only (the reversed node
        replaces nothing in the search).
        """
        beta = self.config.reversal_beta
        candidates = []
        for leaf in leaves:
            if leaf.solution is None or not leaf.solution.is_optimal:
                continue
            seen = set()
            for rec in leaf.path_records():
                j = rec.var
                if j in seen:
                    continue
                seen.add(j)
                if j in leaf.solution.basis.basic:
                    continue
                at_upper = j in leaf.solution.basis.at_upper
                if rec.direction == "up":
                    # the branch imposed a lower bound; the variable must
                    # still sit on it, tightened relative to the owner
                    if at_upper or \
                            leaf.model.lower[j] <= owner.model.lower[j]:
                        continue
                else:
                    if not at_upper or \
                            leaf.model.upper[j] >= owner.model.upper[j]:
                        continue
                rc = float(leaf.solution.reduced[j])
                candidates.append((rc, j, rec.direction, leaf))
        if not candidates:
            return
        values = [c[0] for c in candidates]
        threshold = self.reversal_threshold(values, beta)
        eligible = [c for c in candidates if c[0] >= threshold - 1e-12]
        if not eligible:
            return
        rc, j, direction, leaf = max(eligible, key=lambda c: (c[0], -c[1]))
        antecedent = (owner.model.lower[j] if direction == "up"
                      else owner.model.upper[j])
        try:
            rev_model, warm = apply_reversal_update(
                leaf.model, leaf.solution, j, antecedent)
        except LpError:
            return
        rev = solve(rev_model, warm_basis=warm,
                    budget=PivotBudget(cutoff=self.incumbent.cutoff))
        self.counters.absorb(rev)
        realized = (leaf.solution.x_o - rev.x_o
                    if rev.status is LpStatus.OPTIMAL else None)
        self.reversal_log.append({
            "node": owner.node_id,
            "var": int(j),
            "direction": direction,
            "predicted_max": round(rc, 9),
            "realized": None if realized is None
            else round(float(realized), 9),
            "lower": [float(v) for v in rev_model.lower],
            "upper": [float(v) for v in rev_model.upper],
        })

    # -- expansion --------------------------------------------------------------

    def ensure_solved(self, node: NodeState) -> str:
        if node.solution is not None and node.solution.is_optimal:
            return "ok"
        warm = None
        parent = self.nodes.get(node.parent_id) \
            if node.parent_id is not None else None
        if parent is not None and parent.solution is not None:
            warm = parent.solution.basis
        budget = PivotBudget(max_pivots=NODE_BUDGET.max_pivots,
                             max_degenerate=NODE_BUDGET.max_degenerate,
                             cutoff=self.incumbent.cutoff)
        sol = solve(node.model, warm_basis=warm, budget=budget,
                    cold_memo=self.cold_memo)
        self.counters.absorb(sol)
        node.solution = sol
        self.child_done(node)
        if sol.status is not LpStatus.OPTIMAL:
            return CLOSED[sol.status]
        node.bound = sol.x_o
        self.full_solves += 1
        self.full_pivots += sol.pivots
        self.refresh_dval_parts(node, parent)
        return "ok"

    # A node's LP memo (`lp.Basis.memo`) serves solves warm-started from
    # its basis: its own look-ahead builds and its children.  It is freed
    # once no such solve can come: the node was closed unbranched, or both
    # its children were solved or dropped.

    def child_done(self, child: NodeState):
        """Count a child as solved or dropped."""
        if child.parent_id is not None:
            self.unsolved_children[child.parent_id] -= 1
            self.release(self.nodes[child.parent_id])

    def release(self, node: NodeState):
        """Free the memo of a solved node that has no child pending."""
        if node.solution is not None and \
                not self.unsolved_children.get(node.node_id):
            node.solution.basis.forget_solves()

    def refresh_dval_parts(self, node: NodeState, parent):
        """Exact open-node evaluation pieces once the node LP is solved."""
        if parent is None or parent.solution is None:
            return
        frac = detect_fractional(node.solution, self.problem)
        mincost = mincost_sum(frac, uc_lookup_from(parent.solution))
        plain = node.solution.x_o - parent.solution.x_o
        node.dval_parts = (plain, mincost, max(parent.depth, 1))

    def make_children(self, node: NodeState, var: int, direction: str,
                      seed) -> tuple[NodeState, NodeState]:
        kids = {}
        for side in ("up", "down"):
            model, _ = apply_branch(node.model, node.solution, var, side)
            rec = BranchRecord(var=var, direction=side, bound=float(
                model.lower[var] if side == "up" else model.upper[var]))
            parts = None
            if seed is not None:
                plain, mincost = seed[side]
                parts = (plain, mincost, max(node.depth, 1))
            child = self.new_node(node, rec, model, dval_parts=parts)
            ext_rec = self.ext.add(node.ext_id or 0, var=var,
                                   direction=side, bound=rec.bound,
                                   tentative=False, uc=None)
            child.ext_id = ext_rec.node_id
            kids[side] = child
        self.counters.nodes += 2
        self.unsolved_children[node.node_id] = 2
        preferred = kids[direction]
        sibling = kids["down" if direction == "up" else "up"]
        return preferred, sibling

    def apply_plan(self, node: NodeState, plan, seed):
        """Create children along the accepted plan, pushing the untaken
        sibling of every step; the last preferred child joins the open set
        and everything deeper is expanded inline.  seed holds the first
        step's Dval pieces per direction, or None to derive them."""
        current = node
        solved = []
        for step, (var, direction) in enumerate(plan):
            if var not in detect_fractional(current.solution,
                                            self.problem):
                break
            preferred, sibling = self.make_children(
                current, var, direction,
                self.seed_for(current, var, seed) if step == 0 else None)
            self.push(sibling)
            last = step == len(plan) - 1
            if last:
                self.push(preferred)
                break
            status = self.ensure_solved(preferred)
            solved.append(preferred)
            if status != "ok":
                self.close(preferred, status)
                break
            frac = detect_fractional(preferred.solution, self.problem)
            self.update_taken_pseudo(current, preferred)
            if not frac:
                self.install_incumbent(preferred.solution.x,
                                       preferred.solution.x_o, preferred)
                self.trace_node(preferred, "integral")
                break
            current = preferred
        for child in solved:
            self.release(child)

    def seed_for(self, node: NodeState, var: int, seed):
        if seed is not None:
            return seed
        sol = node.solution
        rc = abs(float(sol.reduced[var]))
        fp, fm = fractional_parts(float(sol.x[var]))
        return {"up": (rc * fp, 0.0), "down": (rc * fm, 0.0)}

    def update_taken_pseudo(self, parent: NodeState, child: NodeState):
        if child.branch is None or parent.solution is None:
            return
        value = float(parent.solution.x[child.branch.var])
        fp, fm = fractional_parts(value)
        f = fp if child.branch.direction == "up" else fm
        if f <= 1e-12:
            return
        uc = unit_cost(child.solution.x_o - parent.solution.x_o, f)
        self.pseudo.update(child.branch.var, child.branch.direction, uc,
                           True)
        if child.ext_id is not None:
            self.ext.set_uc(child.ext_id, uc)

    # -- main loop ---------------------------------------------------------------

    def run(self) -> SolveResult:
        cfg = self.config
        root = self.new_node(None, None, self.problem.to_lp())
        root.ext_id = 0
        try:
            status = self.ensure_solved(root)
        except LpUnboundedError:
            # a relaxation without a finite optimum leaves the MIP none
            return self.finish("unbounded")
        except LpNumericError:
            return self.numeric(root)
        if status != "ok":
            self.close(root, status)
            return self.finish("limit" if self.incomplete else "optimal")
        self.root_x = root.solution.x.copy()
        self.fix_clist(root)
        if cfg.refset_theta is not None:
            self.refset = ReferenceSet(root_x=self.root_x,
                                       root_x_o=root.solution.x_o)
        self.push(root)
        expansions = 0
        while self.open:
            if expansions >= cfg.max_nodes or \
                    time.monotonic() - self.started > cfg.max_time:
                return self.finish("limit")
            if self.pending_restart:
                self.do_attract_restart()
            node = self.select_open()
            if node.bound > self.incumbent.cutoff + CUTOFF_SLACK:
                self.trace_node(node, "pruned", reason="bound")
                self.child_done(node)
                continue
            try:
                expansions += self.visit(node)
            except LpNumericError:
                return self.numeric(node)
            self.release(node)
        # a region closed without proof holds nothing better than an
        # incumbent that would prune it as an open node
        proven = not self.incomplete or (
            self.incumbent.x is not None and
            self.closed_bound > self.incumbent.cutoff + CUTOFF_SLACK)
        return self.finish("optimal" if proven else "limit")

    def numeric(self, node: NodeState) -> SolveResult:
        """End the search where the engine could not solve an LP of
        `node` (`LpNumericError`): the node's region is left unsearched,
        so its bound counts with the open nodes' bounds."""
        self.closed_bound = min(self.closed_bound, node.bound)
        self.trace_node(node, "closed", reason="numeric")
        return self.finish("numeric")

    def fix_clist(self, root: NodeState):
        """Turn a CList given by its size K into the K root candidates
        nearest 0.5."""
        k = self.config.winnow.clist
        if isinstance(k, int):
            frac = detect_fractional(root.solution, self.problem)
            members = frozenset(nearest_half(frac, frac)[:k])
            self.config = replace(self.config, winnow=replace(
                self.config.winnow, clist=members))

    def close(self, node: NodeState, status: str):
        """Close a node whose LP ended `status` other than "ok", or a CList
        leaf.  The search then proves no more than the bound of a region
        left unsearched: a solver limit's or a CList leaf's."""
        if status == "cutoff":
            self.trace_node(node, "pruned", reason="cutoff")
        elif status == "infeasible":
            self.trace_node(node, "infeasible")
        else:
            self.incomplete = True
            self.closed_bound = min(self.closed_bound, node.bound)
            if status == "limit":
                self.trace_node(node, "closed", reason="solver limit")
            else:
                self.trace_node(node, status)

    def visit(self, node: NodeState) -> bool:
        """Solve an open node and close or branch it; True if it was
        handed to branch selection."""
        status = self.ensure_solved(node)
        if status != "ok":
            self.close(node, status)
            return False
        fractions = detect_fractional(node.solution, self.problem)
        if node.branch is not None and node.parent_id is not None:
            parent = self.nodes.get(node.parent_id)
            if parent is not None and parent.solution is not None:
                self.update_taken_pseudo(parent, node)
        if not fractions:
            self.install_incumbent(node.solution.x, node.solution.x_o, node)
            self.trace_node(node, "integral")
            return False
        plan, seed = self.decide(node, fractions)
        if plan:
            self.trace_node(node, "branched")
            self.apply_plan(node, plan, seed)
        return True

    def decide(self, node: NodeState, fractions: dict):
        """(branch plan, Dval seed) for one node, settling its forced
        branches and restarting on every new incumbent; an empty plan
        means the node needs no branching."""
        if node.depth == 0 and self.forced_root is not None:
            var, direction = self.forced_root
            self.forced_root = None
            if var in fractions:
                return [(var, direction)], None
        # new incumbents restart the pick, capped like forced branches
        for _ in range(MAX_FORCED):
            try:
                settled = settle(node.model, node.solution,
                                 self.ctx(), partial(self.pick_branch, node),
                                 partial(self.record_forced, node))
            except IncumbentSignal as sig:
                self.install_incumbent(sig.solution.x, sig.solution.x_o,
                                       node)
                if node.bound > self.incumbent.cutoff + CUTOFF_SLACK:
                    self.trace_node(node, "pruned",
                                    reason="incumbent cutoff")
                    return [], None
                continue
            closed = settled.closed
            if closed is None:
                return settled.result
            if closed == "unsettled":
                break
            if closed == "integral":
                self.install_incumbent(node.solution.x, node.solution.x_o,
                                       node)
                self.trace_node(node, "integral")
            elif closed in DEAD_CHILDREN:
                # a node whose own LP bound passed the cutoff is `pruned`;
                # this one's bound did not, only its children's did
                self.trace_node(node, *DEAD_CHILDREN[closed])
            else:
                self.close(node, closed)
            return [], None
        fractions = detect_fractional(node.solution, self.problem)
        j = max(fractions, key=lambda i: (min(fractions[i]), -i))
        fp, fm = fractions[j]
        return [(j, "up" if fp < fm else "down")], None

    def record_forced(self, node: NodeState, sig, model, fresh):
        """Record a forced branch on the node, whatever its re-solve."""
        if node.ext_id is not None:
            self.ext.add_compulsory(node.ext_id)
        node.model = model
        bound = float(model.lower[sig.var] if sig.direction == "up"
                      else model.upper[sig.var])
        node.implied.append(BranchRecord(var=sig.var,
                                         direction=sig.direction,
                                         bound=bound, compulsory=True))
        if fresh.status is LpStatus.OPTIMAL:
            node.solution = fresh
            node.bound = fresh.x_o

    def do_attract_restart(self):
        """One-shot restart re-rooting on the best accumulated counter."""
        self.pending_restart = False
        self.restarted = True
        best = max(self.global_attract,
                   key=lambda k: (self.global_attract[k], -k[0]))
        self.forced_root = best
        for node_id, _ in self.open:
            self.trace_node(self.nodes[node_id], "dropped",
                            reason="attract restart")
            self.child_done(self.nodes[node_id])
        self.open = []
        fresh = self.new_node(None, None, self.problem.to_lp())
        fresh.ext_id = 0
        self.push(fresh)

    def finish(self, status: str) -> SolveResult:
        open_bounds = [self.nodes[nid].bound for nid, _ in self.open]
        if status == "optimal":
            bound = self.incumbent.x_o
        elif status == "infeasible":
            bound = math.inf
        else:
            pieces = open_bounds + [self.closed_bound, self.incumbent.x_o]
            finite = [b for b in pieces if math.isfinite(b)]
            bound = min(finite) if finite else -math.inf
        if status == "limit" and self.incumbent.x is not None:
            status = "feasible"
        elif status == "optimal" and self.incumbent.x is None:
            status = "infeasible"    # the whole tree searched, no point
        trace = {
            "schema": TRACE_SCHEMA,
            "instance": self.problem.name,
            "status": status,
            "objective": None if self.incumbent.x is None
            else round(float(self.incumbent.x_o), 9),
            "bound": None if not math.isfinite(bound)
            else round(float(bound), 9),
            "nodes": [self.trace_map[k] for k in sorted(self.trace_map)],
            "incumbents": self.incumbent_log,
            "reversals": self.reversal_log,
            "counters": {
                "nodes": self.counters.nodes,
                "lp_solves": self.counters.lp_solves,
                "pivots": self.counters.pivots,
                "probes": self.counters.probes,
            },
        }
        return SolveResult(status=status,
                           objective=-math.inf if status == "unbounded"
                           else self.incumbent.x_o,
                           bound=bound,
                           x=None if self.incumbent.x is None
                           else self.incumbent.x.copy(),
                           trace=trace,
                           counters=self.counters,
                           ext=self.ext)


def solve_mip(problem: MipProblem, config: SolveConfig | None = None) \
        -> SolveResult:
    return _Search(problem, config or SolveConfig()).run()


def trace_to_json(trace: dict) -> str:
    return json.dumps(trace, indent=1, sort_keys=False) + "\n"
