"""Branch-cost memories: pseudo-costs, the extended tree, depth-calibrated
open-node scores, and reference-set global costs.

Four bookkeeping structures share this module because they all answer the
same question (what will branching cost?) from different memory:

  PseudoCostTable      per-variable averages of unit costs from past
                       LP-feasible branch solves
  ExtendedTree         every branch ever evaluated (taken or tentative),
                       with path-overlap metrics that transfer a stored
                       unit cost to a prospective node when the shared
                       inheritance is large and the path difference small
  DvalCalibrator       per-depth weights fitted on the root-to-incumbent
                       path so open-node evaluations approximate the gap
                       to the best descendant objective
  ReferenceSet         elite MIP solutions with per-variable change data,
                       global unit costs, and branching-distance rationing
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

LARGE = 1e30
DELTA_TOL = 1e-6


class CostMemoryError(Exception):
    pass


# -- classic pseudo-costs ---------------------------------------------------


class PseudoCostTable:
    """Running averages of unit costs per variable and direction."""

    def __init__(self):
        self._sum: dict[tuple[int, str], float] = {}
        self._count: dict[tuple[int, str], int] = {}

    def update(self, j: int, direction: str, uc: float,
               lp_feasible: bool) -> None:
        if not lp_feasible:
            return
        key = (j, direction)
        self._sum[key] = self._sum.get(key, 0.0) + float(uc)
        self._count[key] = self._count.get(key, 0) + 1

    def count(self, j: int, direction: str) -> int:
        return self._count.get((j, direction), 0)

    def pseudo_cost(self, j: int, direction: str) -> float:
        n = self.count(j, direction)
        if n == 0:
            return 0.0
        return self._sum[(j, direction)] / n

    def pseudo_eval(self, j: int, f_plus: float,
                    f_minus: float) -> tuple[float, float]:
        return (self.pseudo_cost(j, "up") * f_plus,
                self.pseudo_cost(j, "down") * f_minus)


# -- extended tree and analytical unit costs --------------------------------


@dataclass(frozen=True)
class ExtendedRecord:
    node_id: int
    parent_id: int | None
    var: int | None               # None for the root record
    direction: str | None
    bound: float | None
    tentative: bool
    uc: float | None
    depth: int
    compulsory: int               # implied restrictions absorbed at this node
    session: object               # the owning tree's token


@dataclass(frozen=True)
class AnalyticalThresholds:
    max_symdif: int = 8
    min_intersect: int = 3
    min_ratio: float = 1.0
    late_depth_frac: float = 0.8

    def __post_init__(self):
        if self.max_symdif < 3:
            raise ValueError("SymDif can never drop below 3 for distinct "
                             "branch reuse; the threshold must be >= 3")
        if self.min_intersect < 0:
            raise ValueError("min_intersect must be >= 0")


class ExtendedTree:
    """Append-only log of every branch evaluated during one solve."""

    def __init__(self):
        self.session = object()
        self.records: list[ExtendedRecord] = []
        root = ExtendedRecord(node_id=0, parent_id=None, var=None,
                              direction=None, bound=None, tentative=False,
                              uc=None, depth=0, compulsory=0,
                              session=self.session)
        self.records.append(root)

    def add(self, parent_id: int, var: int, direction: str, bound: float,
            tentative: bool, uc: float | None) -> ExtendedRecord:
        parent = self[parent_id]
        rec = ExtendedRecord(node_id=len(self.records), parent_id=parent_id,
                             var=var, direction=direction, bound=bound,
                             tentative=tentative, uc=uc,
                             depth=parent.depth + 1, compulsory=0,
                             session=self.session)
        self.records.append(rec)
        return rec

    def add_compulsory(self, node_id: int) -> None:
        """Attach one implied restriction to an existing node (an extra
        path edge)."""
        old = self[node_id]
        self.records[node_id] = replace(old, compulsory=old.compulsory + 1)

    def set_uc(self, node_id: int, uc: float) -> None:
        """Fill in the realized unit cost once a taken branch is solved."""
        self.records[node_id] = replace(self[node_id], uc=float(uc))

    def __getitem__(self, node_id: int) -> ExtendedRecord:
        return self.records[node_id]

    def _check(self, rec: ExtendedRecord):
        if rec.session != self.session:
            raise CostMemoryError("record belongs to a different solve "
                                  "session")

    def ancestors(self, node_id: int) -> list[int]:
        chain = []
        cur: int | None = node_id
        while cur is not None:
            chain.append(cur)
            cur = self[cur].parent_id
        chain.reverse()
        return chain

    def path_edges(self, node_id: int) -> int:
        """Edges from the root, counting compulsory restrictions as edges."""
        total = 0
        for nid in self.ancestors(node_id):
            rec = self[nid]
            if rec.parent_id is not None:
                total += 1
            total += rec.compulsory
        return total

    def symdif_metrics(self, u: ExtendedRecord,
                       v_parent: ExtendedRecord,
                       v_extra_edges: int = 1) -> tuple[int, int, float]:
        """(|Intersect|, |SymDif|, ratio) for node u against a prospective
        child v hanging v_extra_edges below v_parent."""
        self._check(u)
        self._check(v_parent)
        chain_u = self.ancestors(u.node_id)
        chain_v = self.ancestors(v_parent.node_id)
        common = 0
        for a, b in zip(chain_u, chain_v):
            if a != b:
                break
            common = a
        intersect = self.path_edges(common)
        path_u = self.path_edges(u.node_id)
        path_v = self.path_edges(v_parent.node_id) + v_extra_edges
        symdif = (path_u - intersect) + (path_v - intersect)
        ratio = intersect / symdif if symdif > 0 else math.inf
        return intersect, symdif, ratio

    def candidates(self, j: int, direction: str,
                   forward_only: bool = False) -> list[ExtendedRecord]:
        found = [r for r in self.records
                 if r.var == j and r.direction == direction
                 and r.uc is not None]
        if forward_only and found:
            return [max(found, key=lambda r: r.node_id)]
        return found


def analytical_uc(tree: ExtendedTree, j: int, direction: str,
                  v_parent: ExtendedRecord,
                  thresholds: AnalyticalThresholds,
                  max_tree_depth: int = 0,
                  forward_only: bool = False) -> float | None:
    """Unit-cost estimate for branching (j, direction) below v_parent.

    Dominated candidates (smaller intersect and larger symdif than some
    other candidate) are discarded; the survivor with the best
    intersect/symdif ratio is used if it clears every threshold.  Returns
    None ("solve instead") when nothing qualifies or the prospective node
    is in the late-stage region where LPs are preferred.
    """
    v_depth = v_parent.depth + 1
    if max_tree_depth > 0 and v_depth > thresholds.late_depth_frac * \
            max_tree_depth:
        return None
    return _transfer_uc(tree, tree.candidates(j, direction, forward_only),
                        v_parent, thresholds)


def _transfer_uc(tree: ExtendedTree, cands: list[ExtendedRecord],
                 v_parent: ExtendedRecord,
                 thresholds: AnalyticalThresholds) -> float | None:
    """The unit cost of the best undominated candidate, or None."""
    if not cands:
        return None
    scored = []
    for rec in cands:
        intersect, symdif, ratio = tree.symdif_metrics(rec, v_parent)
        scored.append((rec, intersect, symdif, ratio))
    survivors = []
    for rec, i_u, s_u, ratio in scored:
        dominated = False
        for other, i_s, s_s, _ in scored:
            if other is rec:
                continue
            if i_s >= i_u and s_s <= s_u and (i_s > i_u or s_s < s_u):
                dominated = True
                break
        if not dominated:
            survivors.append((rec, i_u, s_u, ratio))
    best = max(survivors,
               key=lambda t: (t[3], t[1], -t[2], t[0].node_id))
    rec, intersect, symdif, ratio = best
    if symdif > thresholds.max_symdif:
        return None
    if intersect < thresholds.min_intersect:
        return None
    if ratio < thresholds.min_ratio:
        return None
    return rec.uc


def uc_error_report(tree: ExtendedTree,
                    thresholds: AnalyticalThresholds | None = None) -> dict:
    """Mean absolute error of unit-cost estimators against realized costs.

    Walks the taken branches in creation order; for each one with a
    realized unit cost, the analytical transfer (restricted to earlier
    records) and the classic running average are both asked to predict
    it.  The report measures accuracy, it does not assert a winner.
    One pass gathers the earlier records as it goes.
    """
    thresholds = thresholds or AnalyticalThresholds(
        max_symdif=10 ** 6, min_intersect=0, min_ratio=0.0)
    analytical_errors = []
    classic_errors = []
    # per (var, direction): the records with a unit cost seen so far, and
    # the running (sum, count) of the taken ones
    earlier: dict[tuple[int, str], list[ExtendedRecord]] = {}
    history: dict[tuple[int, str], tuple[float, int]] = {}
    for rec in tree.records:
        if rec.uc is None:
            continue
        key = (rec.var, rec.direction)
        cands = earlier.setdefault(key, [])
        if rec.parent_id is not None and not rec.tentative:
            est = _transfer_uc(tree, cands, tree[rec.parent_id], thresholds)
            if est is not None:
                analytical_errors.append(abs(est - rec.uc))
            total, count = history.get(key, (0.0, 0))
            if count:
                classic_errors.append(abs(total / count - rec.uc))
            history[key] = (total + rec.uc, count + 1)
        cands.append(rec)
    # tentative records also feed the classic averages in practice, but
    # the comparison here deliberately uses the same event stream for both
    def mae(errors):
        return None if not errors else sum(errors) / len(errors)

    return {
        "analytical_mae": mae(analytical_errors),
        "analytical_events": len(analytical_errors),
        "classic_mae": mae(classic_errors),
        "classic_events": len(classic_errors),
    }


# -- depth-calibrated open-node evaluation ----------------------------------


@dataclass(frozen=True)
class PathStep:
    """Saved evaluation data for the path node at depth `depth`."""

    depth: int
    x_o_node: float       # node objective x_o(d)
    x_child: float        # child objective along the path, x_o(d+1)
    mincost_sum: float    # sum of MinCost terms at that child


class DvalCalibrator:
    """Per-depth (w_o, w_1) weights fitted on incumbent paths.

    Approach 1 pins w_o = 1 and solves for w_1; Approach 2 solves the
    2x2 system over consecutive depths (falling back to Approach 1 when
    the system is singular).  Depths at or beyond the incumbent are
    covered by extending the last calibrated w_1.  New incumbents fold in
    by running average.
    """

    def __init__(self, approach: int = 1):
        if approach not in (1, 2):
            raise ValueError("approach must be 1 or 2")
        self.approach = approach
        self._acc: dict[int, list[float]] = {}   # d -> [sum_wo, sum_w1, n]
        self._ext: list[float] = [0.0, 0]        # extension w1 average

    def has_calibration(self) -> bool:
        return bool(self._acc) or self._ext[1] > 0

    def _fold(self, d: int, wo: float, w1: float):
        acc = self._acc.setdefault(d, [0.0, 0.0, 0])
        acc[0] += wo
        acc[1] += w1
        acc[2] += 1

    def calibrate(self, steps: list[PathStep], x_o_star: float) -> None:
        """Fit weights from one root-to-incumbent path.

        `steps` holds the path nodes at depths 1 .. d*-1 in order; the
        last step's child is the incumbent itself.
        """
        steps = sorted(steps, key=lambda s: s.depth)
        d_star = steps[-1].depth + 1 if steps else 1
        if d_star <= 2:
            # incumbent found as child or grandchild of the root
            self._ext[0] += 1.0
            self._ext[1] += 1
            return
        by_depth = {s.depth: s for s in steps}
        last_w1 = None
        for d in range(1, d_star - 1):
            s = by_depth[d]
            wo, w1 = self._fit(s, by_depth.get(d + 1), x_o_star)
            self._fold(d, wo, w1)
            last_w1 = w1
        self._ext[0] += last_w1 if last_w1 is not None else 1.0
        self._ext[1] += 1

    def _fit(self, s: PathStep, nxt: PathStep | None,
             x_o_star: float) -> tuple[float, float]:
        def approach1():
            if s.mincost_sum <= 1e-15 or x_o_star - s.x_child <= 0:
                # degenerate: the child already reaches the incumbent value
                return 1.0, 0.0
            return 1.0, (x_o_star - s.x_child) / s.mincost_sum

        if self.approach == 1 or nxt is None:
            return approach1()
        e1 = s.x_child - s.x_o_node
        m1 = s.mincost_sum
        e2 = nxt.x_child - nxt.x_o_node
        m2 = nxt.mincost_sum
        a = np.array([[e1, m1], [e2, m2]])
        b = np.array([x_o_star - s.x_o_node, x_o_star - nxt.x_o_node])
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        if abs(det) < 1e-12:
            return approach1()
        w = np.linalg.solve(a, b)
        return float(w[0]), float(w[1])

    def weights(self, depth: int) -> tuple[float, float]:
        if not self.has_calibration():
            return 1.0, 1.0
        d = max(1, depth)
        acc = self._acc.get(d)
        if acc is not None and acc[2] > 0:
            return acc[0] / acc[2], acc[1] / acc[2]
        if self._ext[1] > 0:
            return 1.0, self._ext[0] / self._ext[1]
        return 1.0, 1.0

    def dval(self, plain_eval: float, mincost_sum: float,
             depth: int) -> float:
        wo, w1 = self.weights(depth)
        return wo * plain_eval + w1 * mincost_sum


# -- reference sets of elite solutions --------------------------------------


@dataclass
class RefEntry:
    x: np.ndarray
    x_o: float
    delta: dict[int, float]       # nonzero changes over N(r) only
    n_r: int
    avg_cng: float
    bd: dict[int, float]


class ReferenceSet:
    """Elite MIP solutions with global unit costs and branch distances.

    Global unit costs per solution follow the necessary-branch rule: only
    variables branched on along the producing path (excluding compulsory
    branches) with a nonzero change enter N(r); everything else prices at
    the Large sentinel.  Composites take the min over the set, and global
    costs divide by the supporting-solution count raised to p.
    """

    def __init__(self, root_x: np.ndarray, root_x_o: float,
                 r_max: int = 10, p: float = 0.5,
                 alt_avgcng: bool = False, large: float = LARGE):
        self.root_x = np.asarray(root_x, float).copy()
        self.root_x_o = float(root_x_o)
        self.r_max = r_max
        self.p = p
        self.alt_avgcng = alt_avgcng
        self.large = large
        self.entries: list[RefEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, x_r, x_o_r: float, branch_vars) -> bool:
        """Install one MIP-feasible solution; returns False on duplicates.

        branch_vars: variables branched on (non-compulsory) along the path
        that produced the solution.
        """
        x_r = np.asarray(x_r, float)
        for e in self.entries:
            if np.allclose(e.x, x_r, atol=DELTA_TOL):
                return False
        delta = {}
        for j in branch_vars:
            dj = float(x_r[j] - self.root_x[j])
            if abs(dj) > DELTA_TOL:
                delta[j] = dj
        n_r = len(delta)
        if n_r == 0:
            return False
        total = abs(self.root_x_o - float(x_o_r))
        avg_cng = total if self.alt_avgcng else total / n_r
        bd = {j: abs(float(x_r[j] - self.root_x[j])) for j in delta}
        entry = RefEntry(x=x_r.copy(), x_o=float(x_o_r), delta=delta,
                         n_r=n_r, avg_cng=avg_cng, bd=bd)
        self.entries.append(entry)
        if len(self.entries) > self.r_max:
            worst = max(range(len(self.entries)),
                        key=lambda i: self.entries[i].x_o)
            self.entries.pop(worst)
        return True

    def _guc_entry(self, entry: RefEntry, j: int,
                   direction: str) -> float:
        dj = entry.delta.get(j, 0.0)
        if direction == "up" and dj > 0:
            return entry.avg_cng / dj
        if direction == "down" and dj < 0:
            return entry.avg_cng / abs(dj)
        return self.large

    def guc(self, j: int, direction: str) -> float:
        if not self.entries:
            return self.large
        return min(self._guc_entry(e, j, direction) for e in self.entries)

    def support(self, j: int, direction: str) -> int:
        if direction == "up":
            return sum(1 for e in self.entries if e.delta.get(j, 0.0) > 0)
        return sum(1 for e in self.entries if e.delta.get(j, 0.0) < 0)

    def gc(self, j: int, direction: str) -> float:
        n = self.support(j, direction)
        if n == 0:
            return self.large
        return self.guc(j, direction) / n ** self.p

    def bd_stats(self, j: int, direction: str):
        """(min, max, mean) branching distance over the supporting set."""
        vals = []
        for e in self.entries:
            dj = e.delta.get(j, 0.0)
            if (direction == "up" and dj > 0) or \
                    (direction == "down" and dj < 0):
                vals.append(e.bd[j])
        if not vals:
            return None
        return min(vals), max(vals), sum(vals) / len(vals)

    def gate(self, j: int, direction: str, accumulated: float,
             theta: float = 0.5, is_binary: bool = False) -> bool:
        """Allow a branch unless accumulated movement exceeds the convex
        combination of min and max observed branching distances."""
        if is_binary or not self.entries:
            return True
        stats = self.bd_stats(j, direction)
        if stats is None:
            return True
        lo, hi, _ = stats
        limit = theta * lo + (1.0 - theta) * hi
        return accumulated <= limit + DELTA_TOL
