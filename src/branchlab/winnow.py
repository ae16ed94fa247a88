"""Progressive winnowing of branching candidates.

Stage 1 screens the fractional set by closeness of f_j to 0.5 (n0
survivors) and ranks those with single-dual-pivot branch estimates (n1
survivors).  Stage 2 probes each survivor by actually branching both ways
under a k2-pivot budget and keeps the n2 best under the configured
criterion.  The net effect is the nesting F2 <= F1 <= F0 <= F.  When F1
holds no more than n2 members, stage 2 would keep them all, so it runs
only for a caller that reads its evaluations.

A fixed candidate list (CList) restricts stage 1 to a subset chosen at the
root; when no CList member is fractional the node becomes a leaf.  The
optional v_lim rule stops stage-2 probes early once the largest primal
violation falls below a fraction of the node's own fractionality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from branchlab.criteria import (
    BoundDisjunction,
    BranchEval,
    CListLeafSignal,
    CriterionSpec,
    EvalContext,
    evaluate_candidates,
    pair_eval,
    rank,
)
from branchlab.lp import LpModel, LpSolution


@dataclass(frozen=True)
class WinnowParams:
    """Stage sizes and budgets; None fields resolve per node.

    n0 defaults to |F| (admit everything), n1 to ceil(|F|/4), k2 to one
    sixth of the running average pivots per full solve.  n2 is depth
    indexed: n2_root at d=0, n2_mid at d=1, n2_deep at d>=2.  spec ranks
    the survivors of both stages, not the branch.  clist is the CList's
    member set, or its size K: a search fixes the K root candidates
    nearest 0.5 (`nearest_half`) once its root LP is solved.
    """

    n0: int | None = None
    n1: int | None = None
    n2_root: int = 4
    n2_mid: int = 2
    n2_deep: int = 1
    k2: int | None = None
    spec: CriterionSpec = field(default_factory=CriterionSpec)
    clist: frozenset | int | None = None
    vlim_mult: float | None = None

    def __post_init__(self):
        # NaN fails every comparison, so each test rejects it
        for v in (self.n0, self.n1, self.k2):
            if v is not None and not v >= 1:
                raise ValueError("stage sizes and budgets must be >= 1")
        if not all(n >= 1 for n in (self.n2_root, self.n2_mid, self.n2_deep)):
            raise ValueError("n2 must be >= 1 at every depth")
        if self.vlim_mult is not None and not 0 < self.vlim_mult < 1:
            raise ValueError("the v_lim multiplier must lie in (0, 1)")

    def n2_for(self, depth: int) -> int:
        if depth <= 0:
            return self.n2_root
        if depth == 1:
            return self.n2_mid
        return self.n2_deep


def v_lim_for(fractions: dict, mult: float | None) -> float | None:
    if mult is None or not fractions:
        return None
    return mult * max(min(fp, fm) for fp, fm in fractions.values())


def nearest_half(fractions: dict, pool) -> list[int]:
    """The pool by closeness of f_j to 0.5, ties to the lower index."""
    return sorted(pool, key=lambda j: (abs(fractions[j][1] - 0.5), j))


def stage1(model: LpModel, sol: LpSolution, fractions: dict,
           params: WinnowParams, ctx: EvalContext,
           disjunction=BoundDisjunction
           ) -> tuple[list[int], list[int], dict]:
    """Closeness-to-0.5 screen, then single-pivot probes under the criterion.

    Returns (F0, F1, stage-1 evals keyed by variable).  An empty side
    (a +inf estimate) is a dead child under criteria.pair_eval: both dead
    kill the node, and one raises the compulsory signal when the
    disjunction forces its sibling; otherwise (a straddle row, which only
    restricts the derived variable) it is scored at the incumbent gap.
    """
    if isinstance(params.clist, int):
        raise ValueError("clist is a size: solve_mip must fix the CList's "
                         "members first")
    pool = sorted(fractions)
    if params.clist is not None:
        pool = [j for j in pool if j in params.clist]
        if not pool:
            raise CListLeafSignal("no CList variable is fractional")
    if not pool:
        raise ValueError("stage1 needs a nonempty fractional set")
    n0 = params.n0 if params.n0 is not None else len(pool)
    f0 = nearest_half(fractions, pool)[:n0]
    gap = ctx.x_o_star - sol.x_o
    evals: dict[int, BranchEval] = {}
    for j in sorted(f0):
        disj = disjunction(model, sol, j, ctx)
        est_up = disj.estimate("up")
        est_dn = disj.estimate("down")
        evals[j] = pair_eval(j, None if math.isinf(est_up) else est_up,
                             None if math.isinf(est_dn) else est_dn, gap,
                             disj.signal_compulsory, bool(disj.cut_off))
    n1 = params.n1 if params.n1 is not None else max(1, math.ceil(len(pool) / 4))
    n1 = min(n1, len(f0))
    # single-pivot probes carry no fractional sets or infeasibility sums,
    # and ranking reads no weights, so every criterion ranks its plain form
    f1 = rank(evals, params.spec, n1)
    return f0, f1, evals


def stage2(model: LpModel, sol: LpSolution, f1: list[int], fractions: dict,
           params: WinnowParams, ctx: EvalContext, depth: int,
           disjunction=BoundDisjunction) -> tuple[list[int], dict]:
    """Branch both ways on every F1 member under a k2-pivot budget.

    Returns (F2, stage-2 evals for all of F1).  Evals are truncated-solve
    evaluations: x_o of the last dual iterate, plus the infeasibility sums
    that feed the w2 terms of the weighted criteria.
    """
    k2 = params.k2 if params.k2 is not None else (ctx.k2_default or 25)
    vlim = v_lim_for(fractions, params.vlim_mult)
    budget = ctx.branch_budget(pivot_limit=k2, v_lim=vlim)
    scored = evaluate_candidates(model, sol, f1, ctx, params.spec, fractions,
                                 disjunction, budget)
    n2 = min(params.n2_for(depth), len(f1))
    f2 = rank(scored, params.spec, n2)
    return f2, scored


def run(model: LpModel, sol: LpSolution, fractions: dict,
        params: WinnowParams, ctx: EvalContext, depth: int,
        disjunction=BoundDisjunction, scored: bool = False):
    """Two-stage winnow; returns (F2, stage2 evals, F1, stage1 evals).

    Stage 2 runs when it can cut F1 (|F1| > n2 at this depth) or when
    `scored` asks for its evaluations; otherwise F2 is F1 and the stage-2
    evals are None, and no truncated pair is solved.
    """
    f0, f1, s1 = stage1(model, sol, fractions, params, ctx, disjunction)
    if not scored and len(f1) <= params.n2_for(depth):
        return f1, None, f1, s1
    f2, s2 = stage2(model, sol, f1, fractions, params, ctx, depth,
                    disjunction)
    return f2, s2, f1, s1
