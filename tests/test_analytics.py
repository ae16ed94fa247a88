import math

import numpy as np
import pytest

from branchlab.costmem import ExtendedTree, uc_error_report
from branchlab.criteria import CriterionSpec
from branchlab.driver import SolveConfig, solve_mip
from branchlab.lookahead import AttractConfig, LookaheadConfig
from branchlab.model import MipProblem
from branchlab.winnow import WinnowParams
from oracles import lattice_points, mip_lattice_minimum


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


class TestUcErrorReport:
    def test_synthetic_history(self):
        tree = ExtendedTree()
        a = tree.add(0, var=1, direction="up", bound=1, tentative=False,
                     uc=2.0)
        b = tree.add(a.node_id, var=2, direction="down", bound=0,
                     tentative=False, uc=1.0)
        tree.add(b.node_id, var=1, direction="up", bound=2,
                 tentative=False, uc=4.0)
        report = uc_error_report(tree)
        # the third record re-branches on var 1: classic average is 2.0,
        # analytical transfer uses the stored 2.0 as well
        assert report["classic_events"] == 1
        assert report["classic_mae"] == pytest.approx(2.0)
        assert report["analytical_events"] >= 1
        assert report["analytical_mae"] is not None

    def test_report_from_a_real_solve(self):
        p = random_ip(60)
        res = solve_mip(p, SolveConfig())
        report = uc_error_report(res.ext)
        for key in ("analytical_mae", "classic_mae",
                    "analytical_events", "classic_events"):
            assert key in report
        if report["classic_mae"] is not None:
            assert report["classic_mae"] >= 0


class TestReversalSafety:
    def test_reversed_region_stays_inside_the_owning_node(self):
        cfg = SolveConfig(
            criterion=CriterionSpec(), winnow=WinnowParams(k2=3),
            lookahead=LookaheadConfig(depth=3), reversal_beta=0.5)
        checked = 0
        for seed in range(90, 120):
            p = random_ip(seed, n=4, m=3)
            res = solve_mip(p, cfg)
            for entry in res.trace["reversals"]:
                lo = np.array(entry["lower"])
                up = np.array(entry["upper"])
                # region enumeration: every integer point of the reversed
                # node lies inside the owning problem's box, i.e. the
                # reversal never escapes into regions fathomed elsewhere
                pts = lattice_points(p.rows, p.rhs, lo, up)
                for x in pts:
                    assert np.all(x >= p.lower - 1e-9)
                    assert np.all(x <= p.upper + 1e-9)
                # and it excludes the branch side it reversed
                j = entry["var"]
                if entry["direction"] == "up":
                    assert up[j] < p.upper[j] or lo[j] == p.lower[j]
                checked += 1
            if checked >= 3:
                break
        assert checked >= 1


class TestAttractRestart:
    def test_restart_preserves_exactness_and_logs_drop(self):
        la = LookaheadConfig(
            depth=2, attract=AttractConfig(threshold=2.0, restart=True))
        cfg = SolveConfig(criterion=CriterionSpec(),
                          winnow=WinnowParams(k2=3), lookahead=la)
        restarted = 0
        for seed in range(130, 150):
            p = random_ip(seed)
            want, _ = mip_lattice_minimum(p)
            res = solve_mip(p, cfg)
            if math.isinf(want):
                assert res.status == "infeasible"
                continue
            assert res.status == "optimal"
            assert res.objective == pytest.approx(want, abs=1e-9)
            if any(r["status"] == "dropped"
                   for r in res.trace["nodes"]):
                restarted += 1
        assert restarted >= 1
