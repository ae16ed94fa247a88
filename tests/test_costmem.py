import math

import numpy as np
import pytest

from branchlab.costmem import (
    LARGE,
    AnalyticalThresholds,
    CostMemoryError,
    DvalCalibrator,
    ExtendedTree,
    PathStep,
    PseudoCostTable,
    ReferenceSet,
    analytical_uc,
)


class TestPseudoCosts:
    def test_mean_and_eval(self):
        t = PseudoCostTable()
        t.update(3, "up", 2.0, lp_feasible=True)
        t.update(3, "up", 4.0, lp_feasible=True)
        assert t.pseudo_cost(3, "up") == pytest.approx(3.0)
        up, dn = t.pseudo_eval(3, f_plus=0.5, f_minus=0.5)
        assert up == pytest.approx(1.5)
        assert dn == 0.0  # no down history yet

    def test_empty_counts_give_zero(self):
        t = PseudoCostTable()
        assert t.pseudo_cost(7, "up") == 0.0
        assert t.pseudo_eval(7, 0.4, 0.6) == (0.0, 0.0)

    def test_infeasible_solves_do_not_update(self):
        t = PseudoCostTable()
        t.update(1, "down", 99.0, lp_feasible=False)
        assert t.count(1, "down") == 0


def build_reference_tree():
    """Root -> (taken k-branch at P) with a tentative j-branch sibling, then
    the j-branch below the taken child."""
    tree = ExtendedTree()
    p = tree[0]
    u = tree.add(p.node_id, var=7, direction="up", bound=3, tentative=True,
                 uc=2.5)
    taken = tree.add(p.node_id, var=4, direction="down", bound=1,
                     tentative=False, uc=1.0)
    return tree, p, u, taken


class TestSymDif:
    def test_sibling_tentative_then_post_branch_is_three(self):
        tree, p, u, taken = build_reference_tree()
        intersect, symdif, ratio = tree.symdif_metrics(u, taken)
        assert symdif == 3
        assert intersect == tree.path_edges(p.node_id)
        del ratio

    def test_other_child_same_parent_is_two(self):
        tree, p, u, taken = build_reference_tree()
        intersect, symdif, _ = tree.symdif_metrics(u, p)
        assert symdif == 2
        assert intersect == tree.path_edges(p.node_id)
        del taken

    def test_unrelated_subtrees_share_nothing(self):
        tree = ExtendedTree()
        a = tree.add(0, var=1, direction="up", bound=1, tentative=False,
                     uc=1.0)
        a2 = tree.add(a.node_id, var=2, direction="up", bound=1,
                      tentative=True, uc=1.0)
        b = tree.add(0, var=3, direction="down", bound=0, tentative=False,
                     uc=1.0)
        intersect, symdif, _ = tree.symdif_metrics(a2, b)
        assert intersect == 0
        assert symdif == 2 + 2

    def test_compulsory_edges_count(self):
        tree = ExtendedTree()
        a = tree.add(0, var=1, direction="up", bound=1, tentative=False,
                     uc=1.0)
        tree.add_compulsory(a.node_id)
        tree.add_compulsory(a.node_id)
        a = tree[a.node_id]
        assert tree.path_edges(a.node_id) == 3
        b = tree.add(0, var=2, direction="up", bound=1, tentative=True,
                     uc=1.0)
        _, symdif, _ = tree.symdif_metrics(b, a)
        # Dif(b) = 1; Dif(v) = path(a) + 1 = 4
        assert symdif == 5

    def test_cross_session_records_are_rejected(self):
        tree1, _, u1, _ = build_reference_tree()
        tree2, _, _, taken2 = build_reference_tree()
        with pytest.raises(CostMemoryError):
            tree1.symdif_metrics(u1, taken2)

    def test_min_symdif_is_three_for_reuse_pairs(self):
        # over many random (tentative sibling, deeper target) pairs the
        # smallest SymDif is exactly 3, never lower
        rng = np.random.default_rng(5)
        lows = []
        for _ in range(50):
            tree = ExtendedTree()
            frontier = [0]
            tentatives = []
            for step in range(12):
                parent = int(rng.choice(frontier))
                var = int(rng.integers(0, 6))
                tent = tree.add(parent, var=var, direction="up", bound=1,
                                tentative=True, uc=float(rng.uniform(1, 5)))
                tentatives.append(tent)
                taken = tree.add(parent, var=var + 10, direction="down",
                                 bound=0, tentative=False, uc=1.0)
                frontier.append(taken.node_id)
            best = math.inf
            for tent in tentatives:
                for parent_id in frontier:
                    if parent_id == tent.parent_id:
                        continue
                    rec = tree[parent_id]
                    _, symdif, _ = tree.symdif_metrics(tent, rec)
                    best = min(best, symdif)
            if math.isfinite(best):
                lows.append(best)
        assert min(lows) == 3


class TestAnalyticalUc:
    def thresholds(self, **kw):
        base = dict(max_symdif=8, min_intersect=0, min_ratio=0.0,
                    late_depth_frac=0.9)
        base.update(kw)
        return AnalyticalThresholds(**base)

    def test_single_candidate_at_symdif_three(self):
        tree, p, u, taken = build_reference_tree()
        out = analytical_uc(tree, 7, "up", taken, self.thresholds())
        assert out == pytest.approx(2.5)
        del p, u

    def test_symdif_over_threshold_solves_instead(self):
        tree, p, u, taken = build_reference_tree()
        out = analytical_uc(tree, 7, "up", taken,
                            self.thresholds(max_symdif=3, min_intersect=0),
                            max_tree_depth=0)
        assert out == pytest.approx(2.5)
        # push the candidate out of range with a deeper target
        deep = taken
        for k in range(6):
            deep = tree.add(deep.node_id, var=20 + k, direction="up",
                            bound=1, tentative=False, uc=None)
        out2 = analytical_uc(tree, 7, "up", deep,
                             self.thresholds(max_symdif=3))
        assert out2 is None

    def test_dominated_candidate_never_selected(self):
        tree = ExtendedTree()
        a = tree.add(0, var=1, direction="up", bound=1, tentative=False,
                     uc=None)
        b = tree.add(a.node_id, var=2, direction="up", bound=1,
                     tentative=False, uc=None)
        # candidate near the root: small intersect, large symdif
        far = tree.add(0, var=9, direction="up", bound=1, tentative=True,
                       uc=111.0)
        # candidate deeper on the current path: dominates
        near = tree.add(b.node_id, var=9, direction="up", bound=1,
                        tentative=True, uc=5.0)
        target = tree.add(b.node_id, var=3, direction="down", bound=0,
                          tentative=False, uc=None)
        out = analytical_uc(tree, 9, "up", target, self.thresholds())
        assert out == pytest.approx(5.0)
        del far, near

    def test_forward_mode_uses_most_recent_record(self):
        tree = ExtendedTree()
        a = tree.add(0, var=1, direction="up", bound=1, tentative=False,
                     uc=None)
        tree.add(0, var=9, direction="up", bound=1, tentative=True, uc=1.0)
        newer = tree.add(a.node_id, var=9, direction="up", bound=1,
                         tentative=True, uc=7.0)
        out = analytical_uc(tree, 9, "up", a, self.thresholds(),
                            forward_only=True)
        assert out == pytest.approx(7.0)
        del newer

    def test_late_stage_disable(self):
        tree, p, u, taken = build_reference_tree()
        out = analytical_uc(tree, 7, "up", taken,
                            self.thresholds(late_depth_frac=0.2),
                            max_tree_depth=4)
        assert out is None
        del p, u

    def test_intersect_monotone_on_forward_growth(self):
        tree = ExtendedTree()
        u = tree.add(0, var=9, direction="up", bound=1, tentative=True,
                     uc=3.0)
        parent = tree[0]
        prev_i, prev_s = None, None
        cur = parent
        for k in range(5):
            nxt = tree.add(cur.node_id, var=30 + k, direction="up", bound=1,
                           tentative=False, uc=None)
            i, s, _ = tree.symdif_metrics(u, nxt)
            if prev_i is not None:
                assert i >= prev_i
                assert s >= prev_s  # target drifts away below u's parent
            prev_i, prev_s = i, s
            cur = nxt
        # growth beneath u's own subtree instead increases intersect
        tree2 = ExtendedTree()
        u2 = tree2.add(0, var=9, direction="up", bound=1, tentative=False,
                       uc=3.0)
        cur = u2
        vals = []
        for k in range(4):
            cur = tree2.add(cur.node_id, var=40 + k, direction="down",
                            bound=0, tentative=False, uc=None)
            i, s, _ = tree2.symdif_metrics(u2, cur)
            vals.append((i, s))
        assert all(a[0] <= b[0] for a, b in zip(vals, vals[1:]))


class TestDval:
    def test_w_of_d_worked_example(self):
        # x_o* = 10, x_o at the node 6, Eval 2 -> w = 2
        assert (10 - 6) / 2 == 2

    def test_approach1_formula(self):
        cal = DvalCalibrator(approach=1)
        steps = [
            PathStep(depth=1, x_o_node=4.0, x_child=8.0, mincost_sum=4.0),
            PathStep(depth=2, x_o_node=8.0, x_child=10.0, mincost_sum=0.0),
        ]
        cal.calibrate(steps, x_o_star=10.0)
        wo, w1 = cal.weights(1)
        assert wo == 1.0
        assert w1 == pytest.approx((10.0 - 8.0) / 4.0)

    def test_approach2_system(self):
        # {2 wo + 4 w1 = 6; 3 wo + 0 w1 = 3} -> (1, 1)
        cal = DvalCalibrator(approach=2)
        steps = [
            PathStep(depth=1, x_o_node=0.0, x_child=2.0, mincost_sum=4.0),
            PathStep(depth=2, x_o_node=3.0, x_child=6.0, mincost_sum=0.0),
            PathStep(depth=3, x_o_node=6.0, x_child=6.0, mincost_sum=0.0),
        ]
        cal.calibrate(steps, x_o_star=6.0)
        wo, w1 = cal.weights(1)
        assert wo == pytest.approx(1.0)
        assert w1 == pytest.approx(1.0)

    def test_degenerate_child_at_incumbent_gives_zero_w1(self):
        cal = DvalCalibrator(approach=1)
        steps = [
            PathStep(depth=1, x_o_node=4.0, x_child=10.0, mincost_sum=3.0),
            PathStep(depth=2, x_o_node=8.0, x_child=10.0, mincost_sum=0.0),
        ]
        cal.calibrate(steps, x_o_star=10.0)
        wo, w1 = cal.weights(1)
        assert (wo, w1) == (1.0, 0.0)

    def test_shallow_incumbent_defaults_to_unit_weights(self):
        cal = DvalCalibrator(approach=1)
        cal.calibrate([PathStep(depth=1, x_o_node=0.0, x_child=5.0,
                                mincost_sum=0.0)], x_o_star=5.0)
        assert cal.weights(1) == (1.0, 1.0)
        assert cal.weights(9) == (1.0, 1.0)

    def test_no_calibration_defaults_to_unit_weights(self):
        cal = DvalCalibrator()
        assert cal.weights(3) == (1.0, 1.0)

    @pytest.mark.parametrize("approach", [1, 2])
    def test_calibration_reproduces_gap_on_path(self, approach):
        rng = np.random.default_rng(99)
        for _ in range(30):
            d_star = int(rng.integers(3, 8))
            x = [0.0]
            for _ in range(d_star):
                x.append(x[-1] + float(rng.uniform(0.2, 2.0)))
            x_star = x[-1]
            steps = []
            for d in range(1, d_star):
                mc = float(rng.uniform(0.3, 3.0)) if d < d_star - 1 else 0.0
                steps.append(PathStep(depth=d, x_o_node=x[d],
                                      x_child=x[d + 1], mincost_sum=mc))
            cal = DvalCalibrator(approach=approach)
            cal.calibrate(steps, x_o_star=x_star)
            for s in steps:
                got = cal.dval(s.x_child - s.x_o_node, s.mincost_sum,
                               s.depth)
                assert got == pytest.approx(x_star - s.x_o_node, abs=1e-9)

    def test_approach2_matches_approach1_at_second_to_last_depth(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d_star = int(rng.integers(4, 8))
            x = [0.0]
            for _ in range(d_star):
                x.append(x[-1] + float(rng.uniform(0.2, 2.0)))
            steps = []
            for d in range(1, d_star):
                mc = float(rng.uniform(0.3, 3.0)) if d < d_star - 1 else 0.0
                steps.append(PathStep(depth=d, x_o_node=x[d],
                                      x_child=x[d + 1], mincost_sum=mc))
            c1 = DvalCalibrator(approach=1)
            c2 = DvalCalibrator(approach=2)
            c1.calibrate(steps, x_o_star=x[-1])
            c2.calibrate(steps, x_o_star=x[-1])
            d = d_star - 2
            assert c2.weights(d)[0] == pytest.approx(1.0, abs=1e-9)
            assert c2.weights(d)[1] == pytest.approx(c1.weights(d)[1],
                                                     abs=1e-9)

    def test_running_average_across_incumbents(self):
        cal = DvalCalibrator(approach=1)
        for w in (2.0, 4.0):
            cal.calibrate([
                PathStep(depth=1, x_o_node=0.0, x_child=1.0,
                         mincost_sum=1.0 / w),
                PathStep(depth=2, x_o_node=1.0, x_child=2.0,
                         mincost_sum=0.0),
            ], x_o_star=2.0)
        assert cal.weights(1)[1] == pytest.approx(3.0)


class TestReferenceSet:
    def test_worked_example(self):
        root = np.array([1.0, 3.0, 0.0])
        rs = ReferenceSet(root_x=root, root_x_o=0.0, p=0.5)
        x_r = np.array([3.0, 2.0, 0.0])
        assert rs.add(x_r, x_o_r=4.0, branch_vars={0, 1})
        assert rs.entries[0].avg_cng == pytest.approx(2.0)
        assert rs.guc(0, "up") == pytest.approx(1.0)
        assert rs.guc(1, "down") == pytest.approx(2.0)
        assert rs.guc(0, "down") == LARGE
        assert rs.guc(1, "up") == LARGE

    def test_gc_scaling_by_support_count(self):
        root = np.zeros(1)
        rs = ReferenceSet(root_x=root, root_x_o=0.0, p=0.5)
        # four solutions all moving x_0 up by 1, engineered so the
        # min-aggregated GUC is 2
        for k in range(4):
            x = np.array([1.0])
            rs.add(x + 0, x_o_r=2.0 + k * 1e-9, branch_vars={0})
        # duplicates are ignored; build distinct ones instead
        assert len(rs) == 1
        rs2 = ReferenceSet(root_x=np.zeros(4), root_x_o=0.0, p=0.5)
        for k in range(4):
            x = np.zeros(4)
            x[0] = 1.0
            x[(k % 3) + 1] = k + 1.0
            rs2.add(x, x_o_r=4.0, branch_vars={0, (k % 3) + 1})
        n = rs2.support(0, "up")
        assert n == 4
        guc = rs2.guc(0, "up")
        assert rs2.gc(0, "up") == pytest.approx(guc / n ** 0.5)

    def test_bd_statistics(self):
        rs = ReferenceSet(root_x=np.zeros(2), root_x_o=0.0)
        rs.add(np.array([1.0, 5.0]), x_o_r=1.0, branch_vars={0, 1})
        rs.add(np.array([3.0, 4.0]), x_o_r=2.0, branch_vars={0, 1})
        lo, hi, mean = rs.bd_stats(0, "up")
        assert (lo, hi, mean) == (1.0, 3.0, 2.0)

    def test_gate_boundary_and_blocking(self):
        rs = ReferenceSet(root_x=np.zeros(1), root_x_o=0.0)
        rs.add(np.array([1.0]), x_o_r=1.0, branch_vars={0})
        rs.add(np.array([3.0]), x_o_r=2.0, branch_vars={0})
        # MinBD = 1, MaxBD = 3, theta = 0.5 -> limit 2
        assert rs.gate(0, "up", accumulated=2.0, theta=0.5)
        assert not rs.gate(0, "up", accumulated=4.0, theta=0.5)

    def test_binary_variables_are_exempt(self):
        rs = ReferenceSet(root_x=np.zeros(1), root_x_o=0.0)
        rs.add(np.array([1.0]), x_o_r=1.0, branch_vars={0})
        assert rs.gate(0, "up", accumulated=99.0, is_binary=True)

    def test_zero_delta_variables_leave_n_r(self):
        rs = ReferenceSet(root_x=np.array([2.0, 0.0]), root_x_o=0.0)
        rs.add(np.array([2.0, 3.0]), x_o_r=3.0, branch_vars={0, 1})
        assert rs.entries[0].n_r == 1
        assert rs.guc(0, "up") == LARGE  # cancelled branch prices Large

    def test_alt_normalization_drops_the_division(self):
        rs = ReferenceSet(root_x=np.zeros(2), root_x_o=0.0,
                          alt_avgcng=True)
        rs.add(np.array([2.0, 1.0]), x_o_r=4.0, branch_vars={0, 1})
        assert rs.entries[0].avg_cng == pytest.approx(4.0)

    def test_ring_keeps_best(self):
        rs = ReferenceSet(root_x=np.zeros(1), root_x_o=0.0, r_max=2)
        rs.add(np.array([1.0]), 5.0, {0})
        rs.add(np.array([2.0]), 3.0, {0})
        rs.add(np.array([3.0]), 4.0, {0})
        assert len(rs) == 2
        assert max(e.x_o for e in rs.entries) == 4.0
