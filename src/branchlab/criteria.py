"""Branch evaluations and the selection criteria built on them.

An up/down pair of child LPs is summarized as a BranchEval.  Evaluations
come in three flavors:

  plain          Eval+/- = child objective minus the node objective
  frac_weighted  plain plus w1 * sum of min(f+, f-) over the child's
                 fractional variables plus w2 * (child infeasibility sum)
  cost_weighted  plain plus w1 * sum of MinCost terms plus w2 *
                 infeasibility, where MinCost_i = min(UC_i+ * f_i+,
                 UC_i- * f_i-) prices a child-fractional variable by this
                 node's unit costs, falling back to |reduced cost| for
                 unprobed variables

Criteria C0..C7 score BranchEvals and pick a winner; the chosen branch
direction is up exactly when Eval+ < Eval-.  pair_eval scores dead
children with the incumbent objective so the surviving sibling does not
look unduly attractive, and raises the control signals that the tree
builders react to (compulsory branch, dead node; solves also raise
improved incumbent).

Every strategy evaluates branches through one pipeline: a disjunction
(BoundDisjunction here, straddle.StraddleDisjunction for derived-variable
rows) supplies the two children and their single-pivot estimates,
evaluate_pair solves and scores one child pair, evaluate_candidates runs
it over a candidate set with optional estimator shortcuts and weights the
results by the spec's flavor, and settle folds every forced branch back
into its node before a scan's result is used.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum

from branchlab.lp import (
    Basis,
    LpModel,
    LpNumericError,
    LpSolution,
    LpStatus,
    PivotBudget,
    apply_branch,
    probe_single_pivot,
    solve,
)
from branchlab.model import MipProblem, detect_fractional, kept_fractional

UC_EPS = 1e-9        # stand-in numerator for zero unit costs
ZERO_SUB = 1e-6      # stand-in for zero factors in product criteria
MAX_FORCED = 20      # forced branches settle imposes on one node


class Flavor(Enum):
    PLAIN = "plain"
    FRAC_WEIGHTED = "frac_weighted"
    COST_WEIGHTED = "cost_weighted"


class Criterion(Enum):
    C0_CONVEX = "C0"
    C1_PRODUCT = "C1"
    C2A = "C2a"
    C2B = "C2b"
    C3_THRESHOLD = "C3"
    C4 = "C4"
    C5 = "C5"
    C6 = "C6"
    C7 = "C7"
    VOTE = "vote"


# flavors implied by the criterion definition; others default to plain
_IMPLIED_FLAVOR = {Criterion.C6: Flavor.FRAC_WEIGHTED,
                   Criterion.C7: Flavor.COST_WEIGHTED}


@dataclass(frozen=True)
class CriterionSpec:
    criterion: Criterion = Criterion.C1_PRODUCT
    p: float = 1.0
    lam: float = 0.75
    w1: float = 100.0
    w2: float = 10.0
    mu: float = 1.0 / 6.0

    def __post_init__(self):
        # NaN fails every comparison, so each test rejects it
        if not (self.p >= 0 and 0 <= self.lam <= 1 and 0 <= self.mu <= 1):
            raise ValueError("bad criterion parameters")
        if not (self.w1 >= 0 and self.w2 >= 0):
            raise ValueError("weights must be nonnegative")

    def eval_flavor(self) -> Flavor:
        return _IMPLIED_FLAVOR.get(self.criterion, Flavor.PLAIN)


@dataclass
class BranchEval:
    """Evaluation bundle for branching on one variable at one node: the
    two evaluations, the weighting terms (child infeasibility sums and
    fractional sets), the unit costs and the child solutions, None for a
    dead or unsolved child."""

    var: int
    eval_up: float
    eval_down: float
    infeas_up: float = 0.0
    infeas_down: float = 0.0
    frac_up: dict = field(default_factory=dict)
    frac_down: dict = field(default_factory=dict)
    uc_up: float | None = None
    uc_down: float | None = None
    sol_up: LpSolution | None = None
    sol_down: LpSolution | None = None

    @property
    def max_val(self) -> float:
        return max(self.eval_up, self.eval_down)

    @property
    def min_val(self) -> float:
        return min(self.eval_up, self.eval_down)

    @property
    def direction(self) -> str:
        return "up" if self.eval_up < self.eval_down else "down"


class BranchSignal(Exception):
    """Control-flow signals raised while probing branches."""


class CompulsorySignal(BranchSignal):
    def __init__(self, var: int, direction: str, evaluation=None):
        super().__init__(f"compulsory {direction} branch on x_{var}")
        self.var = var
        self.direction = direction
        self.evaluation = evaluation


class NodeInfeasibleSignal(BranchSignal):
    """Both sides of a branch on x_var are dead.  With `cutoff`, some side
    was only cut off by the incumbent, so the node may hold MIP points,
    but none better than the incumbent."""

    def __init__(self, var: int, cutoff: bool = False):
        dead = "cut off" if cutoff else "infeasible"
        super().__init__(f"both branches on x_{var} {dead}")
        self.var = var
        self.cutoff = cutoff


class CListLeafSignal(BranchSignal):
    """No CList member is fractional: the node terminates as a leaf."""


class IncumbentSignal(BranchSignal):
    def __init__(self, solution: LpSolution):
        super().__init__(f"new incumbent at {solution.x_o}")
        self.solution = solution


@dataclass
class SearchCounters:
    lp_solves: int = 0
    pivots: int = 0
    probes: int = 0
    nodes: int = 0


@dataclass
class EvalContext:
    """Everything branch probes need from the surrounding search.  A
    search keeps one, and runs and counts every LP through `solve`."""

    problem: MipProblem
    x_o_star: float = math.inf       # incumbent objective; also prices
                                     # infeasible siblings
    cutoff: float = math.inf         # LP cutoff (x_o_star - eps)
    budget: PivotBudget = field(default_factory=PivotBudget)
    counters: SearchCounters = field(default_factory=SearchCounters)
    check_incumbent: bool = True
    k2_default: int | None = None    # driver-calibrated stage-2 budget

    # branch_budget's, made once each
    budgets: dict = field(default_factory=dict, repr=False, compare=False)
    # the search's cold runs, for `lp.solve`'s `cold_memo`
    cold_memo: dict = field(default_factory=dict, repr=False, compare=False)

    def branch_budget(self, pivot_limit: int | None = None,
                      v_lim: float | None = None) -> PivotBudget:
        """`budget` under the cutoff, and the pivot limit and the early
        stop's violation when given."""
        key = (self.budget, self.cutoff, pivot_limit, v_lim)
        budget = self.budgets.get(key)
        if budget is None:
            budget = self.budgets[key] = replace(
                self.budget, cutoff=self.cutoff,
                max_pivots=self.budget.max_pivots if pivot_limit is None
                else pivot_limit,
                v_lim=self.budget.v_lim if v_lim is None else v_lim)
        return budget

    def solve(self, model: LpModel, warm: Basis | None = None,
              budget: PivotBudget | None = None) -> LpSolution:
        """`lp.solve` under `budget`, by default the branch budget, with
        the cold memo.  Every call is counted, with its pivots also when
        the run fails (`LpNumericError.pivots`)."""
        self.counters.lp_solves += 1
        try:
            sol = solve(model, warm_basis=warm,
                        budget=budget or self.branch_budget(),
                        cold_memo=self.cold_memo)
        except LpNumericError as err:
            self.counters.pivots += err.pivots
            raise
        self.counters.pivots += sol.pivots
        return sol


def solve_warm(child: LpModel, warm: Basis, ctx: EvalContext,
               budget: PivotBudget | None = None) -> LpSolution:
    """Solve a prepared child LP from its warm basis; may raise
    IncumbentSignal."""
    sol = ctx.solve(child, warm, budget)
    if (ctx.check_incumbent and sol.status is LpStatus.OPTIMAL
            and not detect_fractional(sol, ctx.problem)):
        raise IncumbentSignal(sol)
    return sol


def solve_child(model: LpModel, parent_sol: LpSolution, j: int,
                direction: str, ctx: EvalContext,
                budget: PivotBudget | None = None) -> LpSolution:
    """Solve one branch child; may raise IncumbentSignal."""
    child, warm = apply_branch(model, parent_sol, j, direction)
    return solve_warm(child, warm, ctx, budget)


class BoundDisjunction:
    """x_j >= ceil(x_j°) or x_j <= floor(x_j°) at one node.

    One dead side forces the other, so this disjunction raises the
    compulsory signal.
    """

    signal_compulsory = True
    cut_off = frozenset()       # a bound probe applies no cutoff

    def __init__(self, model: LpModel, sol: LpSolution, j: int,
                 ctx: EvalContext):
        self.model, self.sol, self.j, self.ctx = model, sol, j, ctx

    def child(self, direction: str) -> tuple[LpModel, Basis]:
        return apply_branch(self.model, self.sol, self.j, direction)

    def solve(self, direction: str,
              budget: PivotBudget | None = None) -> LpSolution:
        return solve_child(self.model, self.sol, self.j, direction, self.ctx,
                           budget)

    def estimate(self, direction: str) -> float:
        """First-dual-pivot objective change; +inf for an empty side."""
        est = probe_single_pivot(self.model, self.sol, self.j, direction)
        self.ctx.counters.probes += 1
        return est


# the word for a node closed by an LP that did not end optimal
CLOSED = {LpStatus.INFEASIBLE: "infeasible",
          LpStatus.CUTOFF_INFEASIBLE: "cutoff",
          LpStatus.PIVOT_LIMIT_HIT: "limit"}


@dataclass
class Settled:
    """A node with its forced branches imposed: its LP solution, and the
    scan's result, or the word that closed the node instead."""

    sol: LpSolution
    result: object = None
    closed: str | None = None


def settle(model: LpModel, sol: LpSolution, ctx: EvalContext, scan,
           on_forced=None) -> Settled:
    """Run scan(model, sol, fractions) until it returns, folding each
    forced branch back into the node.

    A compulsory signal imposes its branch and re-solves the node warm;
    on_forced(signal, model, re-solve) sees every re-solve, whatever its
    status.  The node closes as `integral` (nothing fractional is left),
    `infeasible` or `cutoff` (both branches dead, or `sol` or a forced
    branch's re-solve ended so), `limit` (one stopped at its pivot
    budget), `clist-leaf`, or `unsettled` (MAX_FORCED forced branches
    did not settle it).  A new incumbent propagates as IncumbentSignal.
    """
    forced = 0
    while True:
        if sol.status is not LpStatus.OPTIMAL:
            return Settled(sol, closed=CLOSED[sol.status])
        fractions = detect_fractional(sol, ctx.problem)
        if not fractions:
            return Settled(sol, closed="integral")
        try:
            return Settled(sol, scan(model, sol, fractions))
        except CompulsorySignal as sig:
            if forced == MAX_FORCED:
                return Settled(sol, closed="unsettled")
            forced += 1
            model, warm = apply_branch(model, sol, sig.var, sig.direction)
            sol = ctx.solve(model, warm)
            if on_forced is not None:
                on_forced(sig, model, sol)
        except NodeInfeasibleSignal as sig:
            return Settled(sol,
                           closed="cutoff" if sig.cutoff else "infeasible")
        except CListLeafSignal:
            return Settled(sol, closed="clist-leaf")


def pair_eval(var: int, up: float | None, down: float | None, gap: float,
              signal_compulsory: bool, cutoff: bool = False,
              **fields) -> BranchEval:
    """BranchEval from the objective changes of an up/down child pair;
    None marks a dead child.

    A dead child is scored at `gap`, the incumbent's distance from the
    scoring node, so the surviving sibling does not look unduly
    attractive.  It also raises the compulsory signal (carrying the
    evaluation) when the disjunction forces the sibling; two dead
    children kill the node, `cutoff` telling whether some side was only
    cut off.
    """
    if up is None and down is None:
        raise NodeInfeasibleSignal(var, cutoff=cutoff)
    ev = BranchEval(var=var, eval_up=gap if up is None else up,
                    eval_down=gap if down is None else down, **fields)
    if signal_compulsory and (up is None or down is None):
        raise CompulsorySignal(var, "down" if up is None else "up", ev)
    return ev


def make_eval(var: int, node_x_o: float, sol_up: LpSolution,
              sol_down: LpSolution, ctx: EvalContext,
              signal_compulsory: bool = True) -> BranchEval:
    """Plain BranchEval from two child solves, dead children per
    pair_eval.  Probes on derived-variable disjunctions pass
    signal_compulsory=False: one dead side there restricts the derived
    variable, not the branching variable itself, so only the both-dead
    case may kill the node.
    """
    problem = ctx.problem
    cutoff = LpStatus.CUTOFF_INFEASIBLE in (sol_up.status, sol_down.status)
    dead = (LpStatus.INFEASIBLE, LpStatus.CUTOFF_INFEASIBLE)
    up = None if sol_up.status in dead else sol_up
    dn = None if sol_down.status in dead else sol_down
    return pair_eval(
        var,
        None if up is None else up.x_o - node_x_o,
        None if dn is None else dn.x_o - node_x_o,
        ctx.x_o_star - node_x_o, signal_compulsory, cutoff,
        infeas_up=0.0 if up is None else up.infeas,
        infeas_down=0.0 if dn is None else dn.infeas,
        frac_up={} if up is None else kept_fractional(up, problem),
        frac_down={} if dn is None else kept_fractional(dn, problem),
        sol_up=up, sol_down=dn)


def unit_cost(delta: float, f: float) -> float:
    """UC = (child x_o - node x_o) / f, zero numerators lifted to eps."""
    return max(delta, UC_EPS) / f


def attach_unit_costs(ev: BranchEval, f_plus: float,
                      f_minus: float) -> BranchEval:
    ev.uc_up = unit_cost(ev.eval_up, f_plus)
    ev.uc_down = unit_cost(ev.eval_down, f_minus)
    return ev


def mincost_sum(frac: dict, uc_lookup) -> float:
    """Sum of MinCost_i = min(UC_i+ * f_i+, UC_i- * f_i-) over frac."""
    terms = []
    for i, (fp, fm) in frac.items():
        uc_up, uc_dn = uc_lookup(i)
        terms.append(min(uc_up * fp, uc_dn * fm))
    return float(sum(terms))


def _fracsum(frac: dict) -> float:
    return float(sum(min(fp, fm) for fp, fm in frac.values()))


def weight_eval(ev: BranchEval, flavor: Flavor, w1: float, w2: float,
                uc_lookup=None) -> BranchEval:
    """Return a copy of ev with D1/D2- or D3/D4-augmented Eval values."""
    if flavor is Flavor.PLAIN or (w1 == 0 and w2 == 0):
        return ev
    if flavor is Flavor.FRAC_WEIGHTED:
        up_term = _fracsum(ev.frac_up)
        dn_term = _fracsum(ev.frac_down)
    else:
        if uc_lookup is None:
            raise ValueError("cost weighting needs a unit-cost lookup")
        up_term = mincost_sum(ev.frac_up, uc_lookup)
        dn_term = mincost_sum(ev.frac_down, uc_lookup)
    return replace(ev,
                   eval_up=ev.eval_up + w1 * up_term + w2 * ev.infeas_up,
                   eval_down=ev.eval_down + w1 * dn_term
                   + w2 * ev.infeas_down)


def uc_lookup_from(parent_sol: LpSolution, *evals: dict):
    """Unit costs (UC+, UC-) of a variable from the first eval dict that
    probed it, |reduced cost| at parent_sol when none did."""

    def lookup(i: int) -> tuple[float, float]:
        for table in evals:
            ev = table.get(i)
            if ev is not None and ev.uc_up is not None:
                return ev.uc_up, ev.uc_down
        rc = abs(float(parent_sol.reduced[i]))
        return rc, rc

    return lookup


def evaluate_pair(disj, fractions: dict,
                  budget: PivotBudget | None = None) -> BranchEval:
    """Solve both children of one disjunction and score the pair.

    The evaluation is plain, with unit costs attached.  A dead child
    raises the compulsory signal only when the disjunction says so; both
    children dead always kill the node.
    """
    sol_up = disj.solve("up", budget)
    sol_dn = disj.solve("down", budget)
    ev = make_eval(disj.j, disj.sol.x_o, sol_up, sol_dn, disj.ctx,
                   signal_compulsory=disj.signal_compulsory)
    return attach_unit_costs(ev, *fractions[disj.j])


def evaluate_candidates(model: LpModel, parent_sol: LpSolution,
                        candidates, ctx: EvalContext, spec: CriterionSpec,
                        fractions: dict, disjunction=BoundDisjunction,
                        budget: PivotBudget | None = None, estimate=None,
                        on_pair=None) -> dict:
    """Evaluate every candidate's child pair and score per the flavor.

    estimate(j, f_plus, f_minus) may return (Eval+, Eval-) to stand in
    for candidate j's LP solves; when an estimated candidate wins the
    selection under `spec`, it alone is solved for real.  on_pair(ev) sees
    each plain evaluation as soon as its pair is solved.  Weighting runs
    once over the LP-solved candidates, pricing child fractionals with the
    unit costs of that set, and once more over a re-solved winner alone.
    Compulsory and node-infeasible conditions propagate as signals.
    """

    def solve_pairs(js) -> dict:
        plain = {}
        for j in js:
            ev = evaluate_pair(disjunction(model, parent_sol, j, ctx),
                               fractions, budget)
            if on_pair is not None:
                on_pair(ev)
            plain[j] = ev
        flavor = spec.eval_flavor()
        if flavor is Flavor.PLAIN:
            return plain
        lookup = uc_lookup_from(parent_sol, plain)
        return {j: weight_eval(ev, flavor, spec.w1, spec.w2, lookup)
                for j, ev in plain.items()}

    evals: dict[int, BranchEval] = {}
    pending = []
    for j in sorted(candidates):
        guess = None if estimate is None else estimate(j, *fractions[j])
        if guess is None:
            pending.append(j)
        else:
            up, dn = guess
            evals[j] = BranchEval(var=j, eval_up=up, eval_down=dn)
    evals.update(solve_pairs(pending))
    if len(pending) < len(evals):
        winner = select(evals, spec).var
        if winner not in pending:
            evals.update(solve_pairs([winner]))
    return evals


# -- criterion scoring ----------------------------------------------------


def _pos(value: float, sub: float) -> float:
    return value if value > sub else sub


def score(ev: BranchEval, spec: CriterionSpec) -> float:
    """Criterion score; maximized for C0-C5, minimized for C6/C7."""
    up, dn = ev.eval_up, ev.eval_down
    lo, hi = ev.min_val, ev.max_val
    sub = ZERO_SUB
    c = spec.criterion
    if c is Criterion.C0_CONVEX:
        return spec.mu * hi + (1.0 - spec.mu) * lo
    if c is Criterion.C1_PRODUCT:
        return _pos(up, sub) * _pos(dn, sub)
    if c in (Criterion.C2A, Criterion.C2B):
        spread = _pos(abs(up - dn), sub)
        base = _pos(up, sub) * _pos(dn, sub) if c is Criterion.C2A \
            else _pos(lo, sub)
        return base * spread ** spec.p
    if c is Criterion.C3_THRESHOLD:
        return abs(up - dn)
    if c is Criterion.C4:
        return _pos(hi, sub) * _pos(abs(up - dn), sub)
    if c is Criterion.C5:
        return _pos(lo, sub) ** spec.p * (up + dn)
    if c in (Criterion.C6, Criterion.C7):
        return lo
    raise ValueError(f"{c} has no direct score")


@dataclass(frozen=True)
class Selection:
    var: int
    direction: str
    scores: dict


def _ranked(evals, spec: CriterionSpec) -> tuple[dict, list[int], dict]:
    """(evals keyed by variable, best-first order, scores)."""
    evals = {ev.var: ev for ev in evals} if not isinstance(evals, dict) \
        else evals
    if not evals:
        raise ValueError("no evaluations to rank")
    if spec.criterion is Criterion.VOTE:
        raise ValueError("vote() handles the vote pseudo-criterion")
    scores = {j: score(ev, spec) for j, ev in sorted(evals.items())}
    if spec.criterion is Criterion.C3_THRESHOLD:
        mins = {j: ev.min_val for j, ev in evals.items()}
        lo, hi = min(mins.values()), max(mins.values())
        threshold = lo + spec.lam * (hi - lo)
        if hi >= threshold:
            order = sorted(evals, key=lambda j: (mins[j] < threshold,
                                                 -scores[j], j))
        else:
            order = sorted(evals, key=lambda j: (-mins[j], j))
    elif spec.criterion in (Criterion.C6, Criterion.C7):
        order = sorted(evals, key=lambda j: (scores[j], j))
    else:
        order = sorted(evals, key=lambda j: (-scores[j], j))
    return evals, order, scores


def rank(evals, spec: CriterionSpec, keep: int | None = None) -> list[int]:
    """Variable indices of the `keep` best evaluations, best first: by
    descending score (ascending for C6/C7), ties to the lower index.  C3
    puts Min_j >= T(lambda) first, or ranks by descending Min_j when
    floating point leaves that set empty."""
    return _ranked(evals, spec)[1][:keep]


def select(evals, spec: CriterionSpec) -> Selection:
    """Winner and direction under one criterion: the head of rank()."""
    evals, order, scores = _ranked(evals, spec)
    return Selection(var=order[0], direction=evals[order[0]].direction,
                     scores=scores)


def vote(evals, specs) -> Selection:
    """Plurality vote across criteria; ties to the lowest variable index.

    The direction follows the majority among the criteria that voted for
    the winning variable, defaulting to the winner's own direction rule on
    a tie.
    """
    specs = list(specs)
    if len(specs) < 2:
        raise ValueError("voting needs at least two criteria")
    evals = {ev.var: ev for ev in evals} if not isinstance(evals, dict) \
        else evals
    picks = [select(evals, s) for s in specs]
    tally = Counter(p.var for p in picks)
    best = max(tally.values())
    winner = min(j for j, n in tally.items() if n == best)
    ups = sum(1 for p in picks if p.var == winner and p.direction == "up")
    downs = tally[winner] - ups
    if ups == downs:
        direction = evals[winner].direction
    else:
        direction = "up" if ups > downs else "down"
    return Selection(var=winner, direction=direction,
                     scores={s.criterion.value: p.var
                             for s, p in zip(specs, picks)})
