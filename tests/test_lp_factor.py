"""Exactness of the engine's reuse paths.

Every load of a basis computes a fresh B^-1; probes and tableau rows at
one (model, basis) pair share one loaded workspace.  Every reuse must give
the same bits as a load from scratch, so these tests compare with
`np.array_equal`, never with a tolerance.  The reference loads use fresh
copies of every array, so they share nothing with the path under test.
"""

import numpy as np
import pytest

from branchlab.lp import (
    Basis,
    LpModel,
    LpStatus,
    _Workspace,
    is_fractional,
    probe_single_pivot,
    solve,
    tableau_row_for,
)
from test_lp import random_model


def fresh_model(model):
    return LpModel(model.obj.copy(), model.rows.copy(), model.rhs.copy(),
                   model.lower.copy(), model.upper.copy(),
                   model.straddle_rows)


def fresh_basis(basis):
    return Basis(tuple(basis.basic), frozenset(basis.at_upper))


def load(model, basis):
    ws = _Workspace(model)
    return ws.load_basis(basis), ws


def assert_same_load(ws, ref):
    assert list(ws.basic) == list(ref.basic)
    for name in ("binv", "rc", "beta", "at_upper", "_vN"):
        assert np.array_equal(getattr(ws, name), getattr(ref, name)), name


def assert_same_solution(a, b):
    assert a.status is b.status
    assert a.pivots == b.pivots
    assert a.basis == b.basis
    assert np.array_equal(a.x, b.x) and np.array_equal(a.reduced, b.reduced)
    assert a.x_o == b.x_o or (np.isnan(a.x_o) and np.isnan(b.x_o))


def random_bases(rng, n, m, count):
    out = []
    for _ in range(count):
        basic = tuple(int(c) for c in rng.choice(n + m, size=m,
                                                 replace=False))
        ups = frozenset(int(j) for j in range(n)
                        if j not in basic and rng.random() < 0.5)
        out.append(Basis(basic, ups))
    return out


# -- (a) a load and a warm solve do not depend on which arrays they read ----


def test_a_load_and_warm_solve_equal_fresh_copies():
    rng = np.random.default_rng(2024)
    n, m = 6, 3
    models = [random_model(rng, n, m) for _ in range(5)]
    # optimal bases of every model, plus random basic sets; the same Basis
    # objects are loaded into every model and its bound children
    bases = [solve(model).basis for model in models]
    bases += random_bases(rng, n, m, count=20)
    checked = 0
    for model in models:
        for basis in bases:
            j = int(rng.integers(n))
            child = model.with_bounds(j, upper=float(rng.integers(1, 6)))
            for target in (model, child, child.with_bounds(j, lower=1.0)):
                ok, ws = load(target, basis)
                ref_ok, ref = load(fresh_model(target), fresh_basis(basis))
                assert ok == ref_ok
                if not ok:
                    continue
                assert_same_load(ws, ref)
                checked += 1
                assert_same_solution(
                    solve(target, warm_basis=basis),
                    solve(fresh_model(target), warm_basis=fresh_basis(basis)))
    assert checked >= 60


# -- (b) probes share one read-only loaded state ----------------------------


def _probe_instance(seed):
    rng = np.random.default_rng(seed)
    while True:
        model = random_model(rng, 7, 4)
        sol = solve(model)
        if sol.status is not LpStatus.OPTIMAL:
            continue
        basic = [j for j in sol.basis.basic
                 if j < model.n_cols and is_fractional(sol.x[j])]
        if len(basic) >= 2:
            return model, sol, basic


def _state_copy(ws):
    return {name: np.array(getattr(ws, name), copy=True)
            for name in ("binv", "rc", "beta", "at_upper", "in_basis",
                         "lo", "up", "_vN", "basic")}


@pytest.mark.parametrize("seed", range(5))
def test_probes_and_tableau_rows_do_not_depend_on_order(seed):
    model, sol, basic = _probe_instance(seed)
    calls = [("probe", j, d) for j in basic for d in ("up", "down")]
    calls += [("row", j, None) for j in basic]

    def run(call, m, s):
        kind, j, d = call
        if kind == "probe":
            return (probe_single_pivot(m, s, j, d),)
        return tableau_row_for(m, s.basis, j)

    def alone(call):
        # a fresh model and basis: this call loads its own state
        s = type(sol)(sol.status, sol.x_o, sol.x, sol.reduced, sol.infeas,
                      sol.pivots, fresh_basis(sol.basis))
        return run(call, fresh_model(model), s)

    expected = {call: alone(call) for call in calls}
    for order in (calls, calls[::-1]):
        for call in order:
            got = run(call, model, sol)
            for a, b in zip(got, expected[call]):
                assert np.array_equal(a, b)
            if call is order[0]:
                state = sol.basis.probe_state
                before = _state_copy(state)
            assert sol.basis.probe_state is state
        after = _state_copy(state)
        for name, value in before.items():
            assert np.array_equal(after[name], value), name
    for name in ("binv", "rc", "beta", "at_upper", "in_basis", "lo", "up",
                 "_vN"):
        assert not getattr(state, name).flags.writeable, name


def test_tableau_row_results_are_the_callers_to_keep():
    model, sol, basic = _probe_instance(11)
    alpha, mask, value, n = tableau_row_for(model, sol.basis, basic[0])
    alpha[:] = 0.0
    mask[:] = True
    again, mask2, value2, _ = tableau_row_for(model, sol.basis, basic[0])
    ref, ref_mask, ref_value, _ = tableau_row_for(
        fresh_model(model), fresh_basis(sol.basis), basic[0])
    assert np.array_equal(again, ref) and np.array_equal(mask2, ref_mask)
    assert value2 == ref_value == value
