import math

import numpy as np
import pytest

from branchlab.criteria import EvalContext
from branchlab.lp import (
    LpModel,
    LpStatus,
    apply_branch,
    solve,
)
from branchlab.model import MipProblem, detect_fractional
from branchlab.straddle import (
    build_straddle_rows,
    drop_inactive_straddle_rows,
    make_straddle,
)
from oracles import lattice_points, straddle_z_value


def random_ip(rng, n=4, m=3, hi=4.0):
    obj = rng.integers(-5, 6, size=n).astype(float)
    rows = rng.integers(-4, 5, size=(m, n)).astype(float)
    mid = rng.uniform(0.5, hi - 0.5, size=n)
    rhs = rows @ mid - rng.uniform(0.2, 2.0, size=m)
    return MipProblem(name="s", obj=obj, rows=rows, rhs=rhs,
                      lower=np.zeros(n), upper=np.full(n, hi),
                      integer_mask=np.ones(n, bool))


def fractional_instance(rng, **kw):
    while True:
        p = random_ip(rng, **kw)
        sol = solve(p.to_lp())
        if sol.status is LpStatus.OPTIMAL:
            frac = detect_fractional(sol, p)
            if frac:
                return p, sol, frac


def test_worked_partition_example():
    """Row x_j + 0.5 x1 - 1.3 x2 = 2.4 with x1, x2 nonbasic at lower."""
    # min x1 + x2 under one >= row: the dual simplex enters x_j at ratio 0,
    # leaving x1, x2 at their lower bounds and the row surplus at zero
    model = LpModel(obj=[0.0, 1.0, 1.0],
                    rows=[[1.0, 0.5, -1.3]],
                    rhs=[2.4],
                    lower=[0.0, 0.0, 0.0], upper=[10.0, 10.0, 10.0])
    sol = solve(model)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x[0] == pytest.approx(2.4)
    mask = np.array([True, True, True])
    rows, up, down = build_straddle_rows(model, sol, 0, mask)
    assert up.r_o == pytest.approx(0.4)
    assert up.s_o == pytest.approx(0.6)
    # r = 0.5 > r_o and r = frac(-1.3) = 0.7 > r_o: both columns go ceil
    assert set(up.nb1) == set()
    assert set(up.nb2) == {1, 2}
    assert up.s[1] == pytest.approx(0.5)
    assert up.s[2] == pytest.approx(0.3)
    assert up.q == {1: 1, 2: -1}
    # substituting the row surplus back, the up child adds exactly
    # z = x_j + x1 - x2 >= 3 and the down child z <= 2
    w, rhs = rows["up"]
    np.testing.assert_allclose(w, [1.0, 1.0, -1.0], atol=1e-9)
    assert rhs == pytest.approx(3.0)
    w2, rhs2 = rows["down"]
    np.testing.assert_allclose(w2, [-1.0, -1.0, 1.0], atol=1e-9)
    assert rhs2 == pytest.approx(-2.0)


def test_integral_coefficients_reduce_to_plain_branch():
    """No fractional integer coefficients: z = x_j and the rows are the
    ordinary bound branches."""
    model = LpModel(obj=[0.0, 1.0],
                    rows=[[1.0, 0.5]],
                    rhs=[2.4],
                    lower=[0.0, 0.0], upper=[9.0, 9.0])
    sol = solve(model)
    assert sol.x[0] == pytest.approx(2.4)
    mask = np.array([True, False])   # the second column is continuous
    rows, up, down = build_straddle_rows(model, sol, 0, mask)
    assert up.nb1 == () and up.nb2 == () and up.q == {}
    w, rhs = rows["up"]
    np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-9)
    assert rhs == pytest.approx(3.0)
    w2, rhs2 = rows["down"]
    np.testing.assert_allclose(w2, [-1.0, 0.0], atol=1e-9)
    assert rhs2 == pytest.approx(-2.0)
    child = model.with_row(w, rhs)
    csol = solve(child)
    plain_child, warm = apply_branch(model, sol, 0, "up")
    psol = solve(plain_child, warm_basis=warm)
    assert csol.x_o == pytest.approx(psol.x_o, abs=1e-7)


def test_at_upper_nonbasic_partition():
    """A nonbasic column at its upper bound uses complemented coefficients."""
    # maximize x1 (minimize -x1) drives x1 to its upper bound
    model = LpModel(obj=[0.0, -1.0],
                    rows=[[1.0, 0.7], [-1.0, -0.7]],
                    rhs=[3.0, -3.0],
                    lower=[0.0, 0.0], upper=[9.0, 2.0])
    sol = solve(model)
    assert sol.x[1] == pytest.approx(2.0)
    assert sol.x[0] == pytest.approx(3.0 - 1.4)
    mask = np.array([True, True])
    rows, up, down = build_straddle_rows(model, sol, 0, mask)
    # translated coefficient of x1 is -0.7 -> frac 0.3, r_o = 0.6: NB1
    assert 1 in up.nb1
    assert up.r[1] == pytest.approx(0.3)
    del rows, down


def straddle_children_partition_lattice(p, sol, j):
    mask = p.integer_mask
    model = p.to_lp()
    rows, up_rec, dn_rec = build_straddle_rows(model, sol, j, mask)
    pts = lattice_points(p.rows, p.rhs, p.lower, p.upper)
    assert pts, "empty lattice makes the check vacuous"
    ceil_v = math.ceil(sol.x[j])
    floor_v = math.floor(sol.x[j])
    w_up, rhs_up = rows["up"]
    w_dn, rhs_dn = rows["down"]
    for x in pts:
        z = straddle_z_value(up_rec, x, p.rows, p.rhs)
        assert abs(z - round(z)) < 1e-6, "z must be integral at MIP points"
        up_ok = z >= ceil_v - 1e-6
        dn_ok = z <= floor_v + 1e-6
        assert up_ok != dn_ok, "children must partition the MIP set"
        # membership in the child LP row must agree with the z test
        assert (w_up @ x >= rhs_up - 1e-6) == up_ok
        assert (w_dn @ x >= rhs_dn - 1e-6) == dn_ok


def test_validity_partitions_mip_points():
    rng = np.random.default_rng(1234)
    done = 0
    while done < 12:
        p, sol, frac = fractional_instance(rng)
        j = min(frac)
        straddle_children_partition_lattice(p, sol, j)
        done += 1


def test_coefficient_ranges():
    rng = np.random.default_rng(77)
    for _ in range(25):
        p, sol, frac = fractional_instance(rng)
        j = min(frac)
        _, up, _ = build_straddle_rows(p.to_lp(), sol, j, p.integer_mask)
        for v in up.r.values():
            assert 0.0 <= v < 1.0
        for v in up.s.values():
            assert 0.0 <= v < 1.0
        assert 0.0 < up.r_o < 1.0 and 0.0 < up.s_o < 1.0
        assert -1.0 < -up.s_o < 0.0 and -1.0 < -up.r_o < 0.0


def test_slack_starts_basic_at_minus_fraction():
    rng = np.random.default_rng(3)
    p, sol, frac = fractional_instance(rng)
    j = min(frac)
    child, warm, rec = make_straddle(p.to_lp(), sol, j, "up",
                                     p.integer_mask)
    assert rec.slack_col == child.n_cols + child.n_rows - 1
    assert rec.slack_col in warm.basic
    # the slack's starting value is w.x_parent - rhs = -s_o
    w = child.rows[-1]
    rhs = child.rhs[-1]
    assert w @ sol.x - rhs == pytest.approx(-rec.s_o, abs=1e-9)


def gomory_cut_row(model, sol, j, integer_mask):
    """Independent Gomory mixed-integer cut from x_j's tableau row.

    Built directly from the raw tableau data with its own back
    substitution, so it does not share code with the straddle builder.
    """
    from branchlab.lp import tableau_row_for

    alpha, at_upper, value, n = tableau_row_for(model, sol.basis, j)
    r_o = value - math.floor(value)
    s_o = 1.0 - r_o
    basic = set(sol.basis.basic)
    w = np.zeros(n)
    rhs = r_o
    for col in range(alpha.shape[0]):
        if col in basic or abs(alpha[col]) <= 1e-9:
            continue
        upperside = bool(at_upper[col])
        a_bar = -alpha[col] if upperside else alpha[col]
        if col < n and integer_mask[col]:
            fr = a_bar - math.floor(a_bar)
            gamma = fr if fr <= r_o else r_o * (1.0 - fr) / s_o
        else:
            gamma = a_bar if a_bar >= 0 else r_o * (-a_bar) / s_o
        # translate gamma * t >= ... back to original variables
        if col < n:
            if upperside:
                w[col] -= gamma
                rhs -= gamma * model.upper[col]
            else:
                w[col] += gamma
                rhs += gamma * model.lower[col]
        else:
            row = col - n
            w += gamma * model.rows[row]
            rhs += gamma * model.rhs[row]
    return w, rhs


def dominates_gomory_cut(child, cut_sol) -> bool:
    """Whether a straddle child's LP bound is at least the cut LP's bound.

    The child region lies inside the Gomory-cut region, so an infeasible
    child always dominates, and an infeasible cut LP leaves room for no
    feasible child.  Any other outcome (a pivot limit) fails the check.
    """
    if child.status is LpStatus.INFEASIBLE:
        return True
    if child.status is not LpStatus.OPTIMAL or \
            cut_sol.status is not LpStatus.OPTIMAL:
        return False
    return child.x_o >= cut_sol.x_o - 1e-7


def test_straddle_children_dominate_the_gomory_cut():
    """Each straddle child region lies inside the Gomory-cut region, so its
    LP bound is at least the cut-augmented node bound."""
    rng = np.random.default_rng(2077)
    for _ in range(60):
        p, sol, frac = fractional_instance(rng)
        j = min(frac)
        model = p.to_lp()
        w, rhs = gomory_cut_row(model, sol, j, p.integer_mask)
        cut_sol = solve(model.with_row(w, rhs))
        for d in ("up", "down"):
            sc, swarm, _ = make_straddle(model, sol, j, d, p.integer_mask)
            ss = solve(sc, warm_basis=swarm)
            assert dominates_gomory_cut(ss, cut_sol), (d, ss.status)


# A node where the straddle down child's bound lies below the plain x_0
# down child's bound, yet above the Gomory-cut bound.  The root LP is
# x = (20/13, 0, 0, 4, 47/13) with objective -614/13.  The straddle rows
# are z = x_0 - x_1 >= 2 and z <= 1.  The down row admits
# x = (4/3, 1/3, 0, 7/3, 4), which the plain branch x_0 <= 1 cuts off.
def counterexample_node():
    p = MipProblem(name="straddle-below-plain",
                   obj=np.array([-1.0, 3.0, 3.0, -6.0, -6.0]),
                   rows=np.array([[-1.0, 0.0, -4.0, -1.0, -4.0],
                                  [-4.0, -1.0, 1.0, 2.0, 3.0],
                                  [-3.0, -3.0, 3.0, 0.0, 0.0],
                                  [3.0, -2.0, 0.0, -1.0, -1.0]]),
                   rhs=np.array([-20.0, -2.0, -5.0, -3.0]),
                   lower=np.zeros(5), upper=np.full(5, 4.0),
                   integer_mask=np.ones(5, bool))
    model = p.to_lp()
    sol = solve(model)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x[0] == pytest.approx(20 / 13)
    assert sol.x_o == pytest.approx(-614 / 13)
    return p, model, sol


def test_straddle_child_may_bound_below_the_plain_child():
    """Per-direction dominance over the plain branch is not a property of
    straddle rows; Gomory-relative dominance is."""
    p, model, sol = counterexample_node()
    rows, _, _ = build_straddle_rows(model, sol, 0, p.integer_mask)
    np.testing.assert_allclose(rows["up"][0], [1, -1, 0, 0, 0], atol=1e-9)
    assert rows["up"][1] == pytest.approx(2.0)
    np.testing.assert_allclose(rows["down"][0], [-1, 1, 0, 0, 0], atol=1e-9)
    assert rows["down"][1] == pytest.approx(-1.0)
    straddle_children_partition_lattice(p, sol, 0)

    child, warm = apply_branch(model, sol, 0, "down")
    plain = solve(child, warm_basis=warm)
    sc, swarm, _ = make_straddle(model, sol, 0, "down", p.integer_mask)
    strad = solve(sc, warm_basis=swarm)
    w, rhs = gomory_cut_row(model, sol, 0, p.integer_mask)
    cut_sol = solve(model.with_row(w, rhs))
    for out in (plain, strad, cut_sol):
        assert out.status is LpStatus.OPTIMAL
    assert plain.x_o == pytest.approx(-37.0)
    assert strad.x_o == pytest.approx(-115 / 3)
    assert cut_sol.x_o == pytest.approx(-1490 / 33)
    assert plain.x_o > strad.x_o >= cut_sol.x_o
    np.testing.assert_allclose(strad.x, [4 / 3, 1 / 3, 0, 7 / 3, 4],
                               atol=1e-9)


def test_counterexample_child_bounds_match_highs():
    """HiGHS gives the same two child bounds, so the gap is an LP fact and
    not a simplex error."""
    optimize = pytest.importorskip("scipy.optimize")
    p, model, sol = counterexample_node()
    rows, _, _ = build_straddle_rows(model, sol, 0, p.integer_mask)
    w_dn, rhs_dn = rows["down"]

    def highs(extra_rows, extra_rhs, upper):
        a = np.vstack([p.rows, *extra_rows])
        b = np.concatenate([p.rhs, extra_rhs])
        res = optimize.linprog(p.obj, A_ub=-a, b_ub=-b,
                               bounds=list(zip(p.lower, upper)),
                               method="highs")
        assert res.status == 0
        return res.fun

    plain_upper = p.upper.copy()
    plain_upper[0] = 1.0
    assert highs([], [], plain_upper) == pytest.approx(-37.0, abs=1e-7)
    assert highs([w_dn], [rhs_dn], p.upper) == \
        pytest.approx(-115 / 3, abs=1e-7)


def test_both_straddle_children_infeasible_signals_dead_node():
    from branchlab.criteria import NodeInfeasibleSignal
    from branchlab.straddle import straddle_eval

    rng = np.random.default_rng(11)
    found = False
    for _ in range(300):
        p, sol, frac = fractional_instance(rng)
        j = min(frac)
        ctx = EvalContext(problem=p, check_incumbent=False,
                          x_o_star=sol.x_o, cutoff=sol.x_o)
        # a cutoff at the relaxation value kills both children
        try:
            straddle_eval(p.to_lp(), sol, j, ctx, frac)
        except NodeInfeasibleSignal:
            found = True
            break
        except Exception:
            continue
    assert found


def test_inactive_straddle_rows_are_dropped():
    rng = np.random.default_rng(9)
    seen_drop = seen_keep = False
    for _ in range(60):
        p, sol, frac = fractional_instance(rng)
        j = min(frac)
        child, warm, rec = make_straddle(p.to_lp(), sol, j, "up",
                                         p.integer_mask)
        csol = solve(child, warm_basis=warm)
        if csol.status is not LpStatus.OPTIMAL:
            continue
        kept, basis = drop_inactive_straddle_rows(child, csol)
        if rec.slack_col in csol.basis.basic:
            assert kept.n_rows == child.n_rows
            assert basis is csol.basis
            seen_keep = True
        else:
            assert kept.n_rows == child.n_rows - 1
            assert basis is None
            resolved = solve(kept)
            assert resolved.status is LpStatus.OPTIMAL
            seen_drop = True
        if seen_drop and seen_keep:
            return
    assert seen_drop or seen_keep
