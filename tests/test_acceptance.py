"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import math
import time

import numpy as np
import pytest

from branchlab.bench import default_matrix
from branchlab.costmem import DvalCalibrator, PathStep
from branchlab.criteria import BranchEval, Criterion, CriterionSpec, select
from branchlab.driver import SolveConfig, solve_mip, trace_to_json
from branchlab.instances import corpus_paths
from branchlab.lookahead import LookaheadConfig, PostWinnow
from branchlab.lp import LpStatus, PivotBudget, apply_branch
from branchlab.lp import probe_single_pivot, solve
from branchlab.model import MipProblem, detect_fractional
from branchlab.mps import parse_mps
from branchlab.straddle import build_straddle_rows, make_straddle
from branchlab.winnow import WinnowParams
from oracles import lattice_points, mip_lattice_minimum, straddle_z_value


def report(number: int, ok: bool, detail: str):
    flag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2}: {flag} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def ev(var, up, dn):
    return BranchEval(var=var, eval_up=up, eval_down=dn)


def random_ip(rng, n=None, m=None, hi=4):
    n = n or int(rng.integers(3, 7))
    m = m or int(rng.integers(2, 5))
    obj = rng.integers(-6, 7, size=n).astype(float)
    rows = rng.integers(-4, 5, size=(m, n)).astype(float)
    mid = rng.uniform(0.5, hi - 1.0, size=n)
    rhs = np.floor(rows @ mid - rng.uniform(0.2, 2.0, size=m))
    return MipProblem(name="acc", obj=obj, rows=rows, rhs=rhs,
                      lower=np.zeros(n), upper=np.full(n, float(hi)),
                      integer_mask=np.ones(n, bool))


def fractional_instance(rng, **kw):
    while True:
        p = random_ip(rng, **kw)
        sol = solve(p.to_lp())
        if sol.status is LpStatus.OPTIMAL:
            frac = detect_fractional(sol, p)
            if frac:
                return p, sol, frac


def triangle_fixture(n_triangles, seed=0):
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


def test_criterion_1_oracle_optimality_on_the_corpus():
    start = time.monotonic()
    matrix = default_matrix()
    mismatches = []
    for path in corpus_paths():
        problem = parse_mps(path.read_text())
        want, _ = mip_lattice_minimum(problem)
        for name, config in matrix.items():
            res = solve_mip(problem, config)
            good = (res.status == "optimal"
                    and abs(res.objective - want) < 1e-6
                    and round(res.objective) == round(want))
            if not good:
                mismatches.append((path.name, name, res.status,
                                   res.objective, want))
    elapsed = time.monotonic() - start
    report(1, not mismatches and elapsed < 60.0,
           f"25 instances x {len(matrix)} strategies exact in "
           f"{elapsed:.1f}s (mismatches: {len(mismatches)})")


def test_criterion_2_tree_count_identities():
    from branchlab.criteria import EvalContext
    from branchlab.lookahead import build_tree

    def counts(n_tri, **kw):
        p = triangle_fixture(n_tri)
        sol = solve(p.to_lp())
        cfg = SolveConfig(criterion=CriterionSpec(),
                          winnow=WinnowParams(k2=3),
                          lookahead=LookaheadConfig(**kw))
        ctx = EvalContext(problem=p, check_incumbent=False)
        return build_tree(p, p.to_lp(), sol, cfg, ctx).total_nodes

    got = (counts(7, depth=3),
           counts(9, depth=6),
           counts(9, depth=6, postwin=PostWinnow("2a", lim=3, d0=2)),
           counts(9, depth=6, postwin=PostWinnow("2b", lim=3, d0=2)))
    want = (14, 126, 48, 30)
    report(2, got == want, f"node counts {got} == {want}")


def test_criterion_3_idealized_path_probability():
    rng = np.random.default_rng(31415)
    draws = rng.random((100_000, 3)) < 0.6
    rate = float(draws.any(axis=1).mean())
    ok = abs(rate - 0.936) <= 0.005
    report(3, ok, f"Monte-Carlo depth-3 correctness {rate:.4f} in "
                  f"0.936 +/- 0.005")


def test_criterion_4_criterion_identities():
    rng = np.random.default_rng(2718)
    c1 = CriterionSpec(criterion=Criterion.C1_PRODUCT)
    c2a0 = CriterionSpec(criterion=Criterion.C2A, p=0.0)
    same = 0
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        evals = [ev(j, float(rng.uniform(0.1, 10)),
                    float(rng.uniform(0.1, 10))) for j in range(k)]
        a = select(evals, c1)
        b = select(evals, c2a0)
        same += (a.var, a.direction) == (b.var, b.direction)
    large_ok = 0
    large_total = 0
    for crit in (Criterion.C2A, Criterion.C2B):
        spec = CriterionSpec(criterion=crit, p=64.0)
        for _ in range(500):
            k = int(rng.integers(2, 9))
            evals = [ev(j, float(rng.uniform(0.1, 10)),
                        float(rng.uniform(0.1, 10))) for j in range(k)]
            spreads = {e.var: abs(e.eval_up - e.eval_down) for e in evals}
            ranked = sorted(spreads.values(), reverse=True)
            # with factors in [1e-2, 1e2] a spread ratio above 10^(4/64)
            # makes the exponent term dominate provably; anything closer
            # is a tie of the limiting criterion itself
            if len(ranked) > 1 and ranked[1] >= ranked[0] / 10 ** (4 / 64):
                continue
            large_total += 1
            want = max(sorted(spreads), key=lambda j: (spreads[j], -j))
            large_ok += select(evals, spec).var == want
    ok = same == 1000 and large_ok == large_total and large_total > 300
    report(4, ok, f"C2a(p=0)==C1 on {same}/1000 lists; large-p argmax "
                  f"spread on {large_ok}/{large_total} separated lists")


def test_criterion_5_single_pivot_probe():
    rng = np.random.default_rng(101)
    checked = 0
    exact = 0
    while checked < 100:
        p, sol, frac = fractional_instance(rng)
        for j in sorted(frac):
            if j not in sol.basis.basic:
                continue
            for direction in ("up", "down"):
                est = probe_single_pivot(p.to_lp(), sol, j, direction)
                child, warm = apply_branch(p.to_lp(), sol, j, direction)
                kid = solve(child, warm_basis=warm,
                            budget=PivotBudget(max_pivots=1))
                checked += 1
                if math.isinf(est):
                    exact += kid.status is LpStatus.INFEASIBLE
                else:
                    exact += abs((kid.x_o - sol.x_o) - est) <= 1e-9
                if checked >= 100:
                    break
            if checked >= 100:
                break
    report(5, exact == checked,
           f"probe == executed pivot delta on {exact}/{checked} tableaus")


def test_criterion_6_straddle_dominance_and_validity():
    from test_straddle import dominates_gomory_cut, gomory_cut_row

    rng = np.random.default_rng(606)
    # dominance: each straddle child region lies inside the region of the
    # Gomory mixed-integer cut from the same tableau row, so its LP bound
    # is at least the bound of the node LP plus that cut; an infeasible
    # cut LP requires both straddle children to be infeasible.
    # Per-direction dominance over the plain x_j child is not a property
    # of straddle rows (see the pinned counterexample in test_straddle);
    # its rate is printed as a diagnostic only.
    checked = 0
    dominated = 0
    gmi_dominated = 0
    while checked < 200:
        p, sol, frac = fractional_instance(rng)
        j = min(frac)
        model = p.to_lp()
        w, rhs = gomory_cut_row(model, sol, j, p.integer_mask)
        cut_sol = solve(model.with_row(w, rhs))
        for d in ("up", "down"):
            child, warm = apply_branch(model, sol, j, d)
            ps = solve(child, warm_basis=warm)
            sc, swarm, _ = make_straddle(model, sol, j, d, p.integer_mask)
            ss = solve(sc, warm_basis=swarm)
            plain = ps.x_o if ps.status is LpStatus.OPTIMAL else math.inf
            strad = ss.x_o if ss.status is LpStatus.OPTIMAL else math.inf
            checked += 1
            if strad >= plain - 1e-7:
                dominated += 1
            gmi_dominated += dominates_gomory_cut(ss, cut_sol)
            if checked >= 200:
                break
    # validity: the two children partition the MIP-feasible set exactly
    valid = 0
    for _ in range(50):
        p, sol, frac = fractional_instance(rng, n=4, m=3)
        j = min(frac)
        rows, up_rec, _ = build_straddle_rows(p.to_lp(), sol, j,
                                              p.integer_mask)
        pts = lattice_points(p.rows, p.rhs, p.lower, p.upper)
        w_up, rhs_up = rows["up"]
        w_dn, rhs_dn = rows["down"]
        ceil_v = math.ceil(sol.x[j])
        floor_v = math.floor(sol.x[j])
        good = bool(pts)
        for x in pts:
            z = straddle_z_value(up_rec, x, p.rows, p.rhs)
            up_ok = z >= ceil_v - 1e-6
            dn_ok = z <= floor_v + 1e-6
            if up_ok == dn_ok:
                good = False
            if (w_up @ x >= rhs_up - 1e-6) != up_ok:
                good = False
            if (w_dn @ x >= rhs_dn - 1e-6) != dn_ok:
                good = False
        valid += good
    ok = gmi_dominated == checked and valid == 50
    report(6, ok,
           f"Gomory-relative dominance {gmi_dominated}/{checked} rows; "
           f"partition validity {valid}/50 instances "
           f"(per-direction dominance {dominated}/{checked}, diagnostic)")


def test_criterion_7_dval_calibration():
    rng = np.random.default_rng(707)
    exact = True
    reduces = True
    for _ in range(40):
        d_star = int(rng.integers(3, 9))
        x = [0.0]
        for _ in range(d_star):
            x.append(x[-1] + float(rng.uniform(0.2, 2.0)))
        steps = []
        for d in range(1, d_star):
            mc = float(rng.uniform(0.3, 3.0)) if d < d_star - 1 else 0.0
            steps.append(PathStep(depth=d, x_o_node=x[d],
                                  x_child=x[d + 1], mincost_sum=mc))
        cals = {a: DvalCalibrator(approach=a) for a in (1, 2)}
        for cal in cals.values():
            cal.calibrate(steps, x_o_star=x[-1])
        for s in steps:
            for cal in cals.values():
                got = cal.dval(s.x_child - s.x_o_node, s.mincost_sum,
                               s.depth)
                if abs(got - (x[-1] - s.x_o_node)) > 1e-9:
                    exact = False
        d = d_star - 2
        if d >= 1:
            w2 = cals[2].weights(d)
            w1 = cals[1].weights(d)
            if abs(w2[0] - 1.0) > 1e-9 or abs(w2[1] - w1[1]) > 1e-9:
                reduces = False
    report(7, exact and reduces,
           "calibrated Dval reproduces the incumbent gap at every path "
           "node (1e-9); approach 2 == approach 1 at d*-2")


def collect_symdif_pairs(tree):
    """SymDif of every (tentative sibling, same-branch-after-commit) pair.

    u is a tentative branch on (j, d) at some parent P; v is any branch on
    the same (j, d) evaluated below a non-tentative child of P.
    """
    observed = []
    tentative = [r for r in tree.records if r.tentative]
    for u in tentative:
        for v in tree.records:
            if v.parent_id is None or v.var != u.var or \
                    v.direction != u.direction or v.node_id == u.node_id:
                continue
            v_parent = tree[v.parent_id]
            if v_parent.parent_id != u.parent_id or v_parent.tentative:
                continue
            _, symdif, _ = tree.symdif_metrics(
                u, v_parent, v_extra_edges=1 + v.compulsory)
            observed.append(symdif)
    return observed


def test_criterion_8_symdif_floor():
    from branchlab.costmem import ExtendedTree
    from branchlab.criteria import EvalContext
    from branchlab.lookahead import build_tree

    observed = []
    # look-ahead builds over the always-feasible fixture re-probe the same
    # variables below each committed branch
    for seed in range(4):
        p = triangle_fixture(6, seed=seed)
        sol = solve(p.to_lp())
        tree = ExtendedTree()
        cfg = SolveConfig(criterion=CriterionSpec(),
                          winnow=WinnowParams(k2=3, n2_root=3, n2_mid=2,
                                              n2_deep=2),
                          lookahead=LookaheadConfig(depth=3))
        ctx = EvalContext(problem=p, check_incumbent=False)
        build_tree(p, p.to_lp(), sol, cfg, ctx, ext_tree=tree, ext_root=0)
        observed.extend(collect_symdif_pairs(tree))
    # plus full solves over corpus instances
    cfg = SolveConfig(criterion=CriterionSpec(),
                      winnow=WinnowParams(k2=3, n2_root=3, n2_mid=2),
                      lookahead=LookaheadConfig(depth=2))
    for path in corpus_paths()[:10]:
        problem = parse_mps(path.read_text())
        res = solve_mip(problem, cfg)
        observed.extend(collect_symdif_pairs(res.ext))
    ok = bool(observed) and min(observed) == 3
    report(8, ok, f"min SymDif over {len(observed)} sibling-tentative/"
                  f"post-branch pairs = "
                  f"{min(observed) if observed else 'n/a'}")


def test_criterion_9_reference_set_arithmetic():
    from branchlab.costmem import LARGE, ReferenceSet

    rs = ReferenceSet(root_x=np.array([1.0, 3.0]), root_x_o=0.0, p=0.5)
    rs.add(np.array([3.0, 2.0]), x_o_r=4.0, branch_vars={0, 1})
    example_ok = (rs.guc(0, "up") == pytest.approx(1.0)
                  and rs.guc(1, "down") == pytest.approx(2.0)
                  and rs.guc(0, "down") == LARGE
                  and rs.guc(1, "up") == LARGE)
    rs2 = ReferenceSet(root_x=np.zeros(4), root_x_o=0.0, p=0.5)
    for k in range(4):
        x = np.zeros(4)
        x[0] = 1.0
        x[(k % 3) + 1] = k + 1.0
        rs2.add(x, x_o_r=4.0, branch_vars={0, (k % 3) + 1})
    gc_ok = rs2.support(0, "up") == 4 and \
        rs2.gc(0, "up") == pytest.approx(rs2.guc(0, "up") / 2.0)
    gate = ReferenceSet(root_x=np.zeros(1), root_x_o=0.0)
    gate.add(np.array([1.0]), 1.0, {0})
    gate.add(np.array([3.0]), 2.0, {0})
    gate_ok = gate.gate(0, "up", 2.0, theta=0.5) and \
        not gate.gate(0, "up", 4.0, theta=0.5)
    ok = example_ok and gc_ok and gate_ok
    report(9, ok, "GUC worked example, GC with p=0.5, and the gate "
                  "boundary all match hand computation")


def test_criterion_10_trace_determinism():
    configs = {
        "plain": SolveConfig(),
        "lookahead": SolveConfig(
            criterion=CriterionSpec(), winnow=WinnowParams(k2=3),
            lookahead=LookaheadConfig(
                depth=3, postwin=PostWinnow("2a", lim=3, d0=2))),
        "analytical": SolveConfig(pseudo="analytical"),
    }

    def output(problem, config):
        # the trace and the extended tree, every branch evaluated
        res = solve_mip(problem, config)
        return trace_to_json(res.trace), [
            (r.node_id, r.parent_id, r.var, r.direction, r.bound,
             r.tentative, r.uc, r.depth, r.compulsory)
            for r in res.ext.records]

    identical = 0
    total = 0
    for path in corpus_paths()[:5]:
        problem = parse_mps(path.read_text())
        for config in configs.values():
            total += 1
            identical += output(problem, config) == output(problem, config)
    report(10, identical == total,
           f"byte-identical traces on {identical}/{total} "
           f"(instance, config, seed) repeats")
