import math

import numpy as np
import pytest

from branchlab.lp import (
    LpModel,
    LpModelError,
    LpProbeError,
    LpStatus,
    PivotBudget,
    apply_branch,
    apply_reversal_update,
    probe_single_pivot,
    solve,
)
from oracles import lp_vertex_minimum


def two_var_model():
    # min x1 + x2  s.t. x1 + x2 >= 1.5, 0 <= x <= 1
    return LpModel(obj=[1.0, 1.0], rows=[[1.0, 1.0]], rhs=[1.5],
                   lower=[0.0, 0.0], upper=[1.0, 1.0])


def random_model(rng, n, m, bound_hi=6.0):
    obj = rng.integers(-5, 6, size=n).astype(float)
    rows = rng.integers(-4, 5, size=(m, n)).astype(float)
    lower = np.zeros(n)
    upper = np.full(n, bound_hi)
    # anchor the rhs so an interior-ish point is feasible
    mid = rng.uniform(0.5, bound_hi - 0.5, size=n)
    rhs = rows @ mid - rng.uniform(0.5, 3.0, size=m)
    return LpModel(obj, rows, rhs, lower, upper)


def test_two_var_optimum_matches_vertex_enumeration():
    model = two_var_model()
    sol = solve(model)
    assert sol.status is LpStatus.OPTIMAL
    best, _ = lp_vertex_minimum(model.obj, model.rows, model.rhs,
                                model.lower, model.upper)
    assert best == pytest.approx(1.5, abs=1e-9)
    assert sol.x_o == pytest.approx(best, abs=1e-6)


def test_cutoff_minus_infinity_is_immediately_cutoff_infeasible():
    sol = solve(two_var_model(), budget=PivotBudget(cutoff=-math.inf))
    assert sol.status is LpStatus.CUTOFF_INFEASIBLE
    assert sol.pivots == 0


def test_contradictory_bounds_are_infeasible():
    model = LpModel(obj=[1.0], rows=[[1.0]], rhs=[2.0],
                    lower=[0.0], upper=[1.0])
    sol = solve(model)
    assert sol.status is LpStatus.INFEASIBLE
    assert sol.x_o == math.inf


@pytest.mark.parametrize("obj", [[1.0, 1.0], [-1.0, 1.0]])
def test_an_empty_column_box_is_infeasible(obj):
    # 3 <= x0 <= 2: no point satisfies the bounds, whatever the rows say
    model = LpModel(obj=obj, rows=[[1.0, 1.0]], rhs=[1.0],
                    lower=[3.0, 0.0], upper=[2.0, 5.0])
    boxed = model.with_bounds(0, lower=0.0)
    warm = solve(boxed).basis
    # the same empty box, reached through each way of setting bounds
    for empty in (model, model.with_bounds(1, upper=4.0),
                  boxed.with_bounds(0, lower=3.0)):
        assert empty.empty_box
        for start in (None, warm):
            sol = solve(empty, warm_basis=start)
            assert sol.status is LpStatus.INFEASIBLE
            assert sol.x_o == math.inf
            assert sol.pivots == 0
    # a box empty by less than the feasibility tolerance is a point
    flat = model.with_bounds(0, lower=2.0 + 1e-9)
    assert not boxed.empty_box and not flat.empty_box
    assert solve(flat).status is LpStatus.OPTIMAL


def test_optimum_matches_vertex_oracle_on_random_instances():
    rng = np.random.default_rng(20240311)
    solved = 0
    for _ in range(60):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 6))
        model = random_model(rng, n, m)
        oracle, _ = lp_vertex_minimum(model.obj, model.rows, model.rhs,
                                      model.lower, model.upper)
        sol = solve(model)
        if math.isinf(oracle):
            assert sol.status is LpStatus.INFEASIBLE
        else:
            assert sol.status is LpStatus.OPTIMAL
            assert sol.x_o == pytest.approx(oracle, abs=1e-6)
            solved += 1
    assert solved > 30


def test_reduced_costs_nonnegative_and_zero_on_basics():
    rng = np.random.default_rng(7)
    for _ in range(20):
        model = random_model(rng, 4, 3)
        sol = solve(model)
        if sol.status is not LpStatus.OPTIMAL:
            continue
        basic = set(sol.basis.basic)
        for j in range(model.n_cols):
            if j in basic:
                assert sol.reduced[j] == 0.0
            else:
                assert sol.reduced[j] >= -1e-7


def fractional_basic_vars(model, sol):
    out = []
    for j in sol.basis.basic:
        if j < model.n_cols and abs(sol.x[j] - round(sol.x[j])) > 1e-6:
            out.append(j)
    return out


def test_probe_matches_one_executed_dual_pivot():
    # acceptance criterion 5 uses the same machinery at larger volume
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 100:
        model = random_model(rng, int(rng.integers(3, 7)),
                             int(rng.integers(2, 6)))
        sol = solve(model)
        if sol.status is not LpStatus.OPTIMAL:
            continue
        for j in fractional_basic_vars(model, sol):
            for direction in ("up", "down"):
                est = probe_single_pivot(model, sol, j, direction)
                child, warm = apply_branch(model, sol, j, direction)
                kid = solve(child, warm_basis=warm,
                            budget=PivotBudget(max_pivots=1))
                if math.isinf(est):
                    # no eligible pivot: the very first ratio test fails
                    assert kid.status is LpStatus.INFEASIBLE
                else:
                    assert kid.x_o - sol.x_o == pytest.approx(est, abs=1e-9)
                checked += 1
                if checked >= 100:
                    return


def test_probe_rejects_integral_and_nonbasic_variables():
    model = two_var_model()
    sol = solve(model)
    nonbasic = [j for j in range(2) if j not in sol.basis.basic]
    if nonbasic:
        with pytest.raises(LpProbeError):
            probe_single_pivot(model, sol, nonbasic[0], "up")
    # force an integral value: bounds [1, 1]
    pinned = LpModel(obj=[1.0, 1.0], rows=[[1.0, 1.0]], rhs=[1.0],
                     lower=[1.0, 0.0], upper=[1.0, 5.0])
    psol = solve(pinned)
    for j in psol.basis.basic:
        if j < 2:
            with pytest.raises(LpProbeError):
                probe_single_pivot(pinned, psol, j, "up")


def test_apply_branch_bound_arithmetic():
    model = LpModel(obj=[1.0], rows=np.zeros((0, 1)), rhs=[],
                    lower=[-5.0], upper=[5.0])
    sol_like = solve(model)
    # fabricate fractional values through a tiny helper model instead:
    m2 = LpModel(obj=[1.0, 0.0], rows=[[1.0, 1.0]], rhs=[3.4],
                 lower=[0.0, 0.0], upper=[10.0, 1.0])
    s2 = solve(m2)
    assert s2.x[0] == pytest.approx(2.4)
    up_child, _ = apply_branch(m2, s2, 0, "up")
    dn_child, _ = apply_branch(m2, s2, 0, "down")
    assert up_child.lower[0] == 3
    assert dn_child.upper[0] == 2
    del model, sol_like


def test_apply_branch_floor_of_negative():
    m = LpModel(obj=[1.0], rows=[[1.0]], rhs=[-0.6],
                lower=[-4.0], upper=[4.0])
    s = solve(m)
    assert s.x[0] == pytest.approx(-0.6)
    child, _ = apply_branch(m, s, 0, "down")
    assert child.upper[0] == -1


def test_warm_start_agrees_with_cold_solve():
    rng = np.random.default_rng(55)
    agreements = 0
    for _ in range(40):
        model = random_model(rng, 4, 4)
        sol = solve(model)
        if sol.status is not LpStatus.OPTIMAL:
            continue
        fracs = fractional_basic_vars(model, sol)
        if not fracs:
            continue
        j = fracs[0]
        child, warm = apply_branch(model, sol, j, "up")
        warm_sol = solve(child, warm_basis=warm)
        cold_sol = solve(child)
        assert warm_sol.status == cold_sol.status
        if warm_sol.status is LpStatus.OPTIMAL:
            assert warm_sol.x_o == pytest.approx(cold_sol.x_o, abs=1e-6)
            agreements += 1
    assert agreements >= 5


def test_cutoff_is_monotone():
    rng = np.random.default_rng(99)
    for _ in range(30):
        model = random_model(rng, 3, 3)
        base = solve(model)
        if base.status is not LpStatus.OPTIMAL:
            continue
        lo_cut = base.x_o + 1.0
        hi_cut = base.x_o + 10.0
        s1 = solve(model, budget=PivotBudget(cutoff=lo_cut))
        s2 = solve(model, budget=PivotBudget(cutoff=hi_cut))
        assert s1.status is LpStatus.OPTIMAL
        assert s2.status is LpStatus.OPTIMAL


def test_pivot_limit_returns_dual_iterate_with_infeas():
    rng = np.random.default_rng(12)
    saw_limited = False
    for _ in range(50):
        model = random_model(rng, 5, 5)
        sol = solve(model)
        if sol.status is not LpStatus.OPTIMAL or sol.pivots < 2:
            continue
        fracs = fractional_basic_vars(model, sol)
        if not fracs:
            continue
        child, warm = apply_branch(model, sol, fracs[0], "up")
        full = solve(child, warm_basis=warm)
        if full.status is not LpStatus.OPTIMAL or full.pivots < 2:
            continue
        part = solve(child, warm_basis=warm, budget=PivotBudget(max_pivots=1))
        assert part.status is LpStatus.PIVOT_LIMIT_HIT
        assert part.infeas > 0
        assert part.x_o <= full.x_o + 1e-9
        saw_limited = True
        break
    assert saw_limited


def test_reversal_matches_cold_solve_of_rebounded_model():
    rng = np.random.default_rng(2024)
    done = 0
    for _ in range(200):
        model = random_model(rng, 4, 3)
        sol = solve(model)
        if sol.status is not LpStatus.OPTIMAL:
            continue
        fracs = fractional_basic_vars(model, sol)
        if not fracs:
            continue
        j = fracs[0]
        child, warm = apply_branch(model, sol, j, "up")
        csol = solve(child, warm_basis=warm)
        if csol.status is not LpStatus.OPTIMAL:
            continue
        if j in csol.basis.basic or j in csol.basis.at_upper:
            continue  # need x_j nonbasic at the branch's lower bound
        rev_model, rev_warm = apply_reversal_update(
            child, csol, j, antecedent=model.lower[j])
        assert rev_model.upper[j] == child.lower[j] - 1
        rev_sol = solve(rev_model, warm_basis=rev_warm)
        cold = solve(rev_model)
        assert rev_sol.status == cold.status
        if rev_sol.status is LpStatus.OPTIMAL:
            assert rev_sol.x_o == pytest.approx(cold.x_o, abs=1e-6)
        done += 1
        if done >= 10:
            break
    assert done >= 5


def test_reversal_bound_arithmetic_both_sides():
    m = LpModel(obj=[1.0, 1.0], rows=[[1.0, 1.0]], rhs=[1.0],
                lower=[0.0, 0.0], upper=[9.0, 9.0])
    s = solve(m)
    # nonbasic at lower bound 3 after an up branch
    branched = m.with_bounds(0, lower=3.0)
    bs = solve(branched)
    if 0 not in bs.basis.basic and 0 not in bs.basis.at_upper:
        rev, _ = apply_reversal_update(branched, bs, 0, antecedent=0.0)
        assert rev.upper[0] == 2
        assert rev.lower[0] == 0
    # nonbasic at an upper bound imposed by a down branch
    down = m.with_bounds(1, upper=5.0)
    obj2 = LpModel(obj=[1.0, -1.0], rows=down.rows, rhs=down.rhs,
                   lower=down.lower, upper=down.upper)
    ds = solve(obj2)
    assert ds.x[1] == pytest.approx(5.0)
    rev2, _ = apply_reversal_update(obj2, ds, 1, antecedent=9.0)
    assert rev2.lower[1] == 6
    assert rev2.upper[1] == 9
    del s


def test_with_row_checks_only_the_appended_row():
    model = two_var_model()
    grown = model.with_row([1.0, -1.0], 0.25, straddle=True)
    full = LpModel(model.obj, grown.rows, grown.rhs, model.lower,
                   model.upper, grown.straddle_rows)
    for name in ("obj", "rows", "rhs", "lower", "upper"):
        assert getattr(grown, name).tobytes() == getattr(full, name).tobytes()
        assert not getattr(grown, name).flags.writeable
    assert grown.lower is model.lower and grown.upper is model.upper
    assert grown.empty_box == full.empty_box
    assert grown.straddle_rows == ((1, 3),)
    assert solve(grown).x.tobytes() == solve(full).x.tobytes()
    for coeffs, rhs in (([math.nan, 1.0], 0.0), ([math.inf, 1.0], 0.0),
                        ([1.0, 1.0], math.nan), ([1.0, 1.0], -math.inf),
                        ([1.0], 0.0), ([1.0, 1.0, 1.0], 0.0)):
        with pytest.raises(LpModelError):
            model.with_row(coeffs, rhs)


@pytest.mark.parametrize("field", ["max_pivots", "max_degenerate",
                                   "cutoff", "v_lim"])
def test_a_nan_budget_field_is_rejected(field):
    # a NaN cutoff or v_lim once passed every stop test unnoticed, so a
    # run that should be cut off ended OPTIMAL
    with pytest.raises(LpModelError):
        PivotBudget(**{field: math.nan})
    model = LpModel([1, 1], [[1, 1]], [3], [0, 0], [5, 5])
    assert solve(model, budget=PivotBudget(cutoff=0.5)).status is \
        LpStatus.CUTOFF_INFEASIBLE


def test_nan_bounds_are_rejected_at_every_entry_point():
    nan, inf = math.nan, math.inf
    # a NaN bound once built and solved to OPTIMAL with x_o = nan
    with pytest.raises(LpModelError):
        LpModel([1, 1], [[1, 1]], [1], [0, nan], [5, 5])
    with pytest.raises(LpModelError):
        LpModel([1, 1], [[1, 1]], [1], [0, 0], [nan, 5])
    model = LpModel([1, 1], [[1, 1]], [1], [0, -inf], [5, inf])
    for bound in ({"lower": nan}, {"upper": nan}):
        with pytest.raises(LpModelError):
            model.with_bounds(0, **bound)
    # infinite bounds on their own side stay legal
    free = LpModel([1, 1], [[1, 1]], [1], [-inf, -inf], [inf, inf])
    assert model.with_bounds(0, lower=-inf, upper=inf).upper[0] == inf
    assert solve(model).x_o == pytest.approx(1.0)
    assert free.lower.tolist() == [-inf, -inf]
