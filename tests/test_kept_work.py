"""Work kept with a basis or a solution answers as a fresh computation.

A basis keeps its probe workspace with every probe's answer, the bound
children `apply_branch` built at it and the straddle row partitions, all
found by the model's `memo_key`.  A solution keeps its fractional map and
a search node its LP model.
These tests check every kept value against the same computation from
scratch, that a distinct model with the same content finds the kept
work, that a failing call keeps nothing, what `forget_solves` frees, and
that a look-ahead search reads the same when nothing is kept.
"""

from dataclasses import replace

import numpy as np
import pytest

import branchlab.criteria as criteria
import branchlab.driver as driver
import branchlab.lp as lp
import branchlab.model as model_module
from branchlab import straddle
from branchlab.bench import default_matrix
from branchlab.criteria import EvalContext
from branchlab.instances import corpus_paths
from branchlab.lp import (
    LpModel,
    LpProbeError,
    LpStatus,
    PivotBudget,
    apply_branch,
    memo_key,
    probe_single_pivot,
    solve,
)
from branchlab.model import fractional
from branchlab.mps import parse_mps
from branchlab.straddle import StraddleDisjunction, partition_row
from test_driver import random_ip
from test_lp_factor import _probe_instance, fresh_basis
from test_lp_fixed_cost import fits_child_ref
from test_straddle import fractional_instance


def twin(model):
    """A distinct model object with `model`'s content (its memo key)."""
    other = LpModel(model.obj, model.rows, model.rhs, model.lower,
                    model.upper, model.straddle_rows)
    assert other is not model and memo_key(other) == memo_key(model)
    return other


def unkept(sol):
    """`sol` at an equal basis that holds no kept work."""
    return replace(sol, basis=fresh_basis(sol.basis))


@pytest.fixture
def workspaces(monkeypatch):
    """Counts the `_Workspace` objects built."""
    built = []
    real = lp._Workspace

    class Counted(real):
        def __init__(self, model):
            built.append(model)
            super().__init__(model)

    monkeypatch.setattr(lp, "_Workspace", Counted)
    return built


def same_float(a, b):
    return a == b or (np.isinf(a) and np.isinf(b))


@pytest.mark.parametrize("seed", range(5))
def test_a_content_equal_model_finds_the_probe_workspace(seed, workspaces):
    model, sol, basic = _probe_instance(seed)
    calls = [(j, d) for j in basic for d in ("up", "down")]
    first = {c: probe_single_pivot(model, sol, *c) for c in calls}
    state = sol.basis.probe_state
    workspaces.clear()
    for other in (twin(model), twin(model)):
        for call in calls:
            got = probe_single_pivot(other, sol, *call)
            assert got is first[call]
    assert workspaces == []
    assert sol.basis.probe_state is state
    assert set(state.answers) == set(calls)
    for call in calls:
        assert same_float(first[call],
                          probe_single_pivot(model, unkept(sol), *call))
    # other bounds are another model: it loads its own workspace
    j = basic[0]
    wider = model.with_bounds(j, upper=model.upper[j] + 1.0)
    workspaces.clear()
    probe_single_pivot(wider, sol, j, "up")
    assert workspaces == [wider]
    assert sol.basis.probe_state is not state


def test_a_probe_error_is_never_kept():
    model, sol, basic = _probe_instance(3)
    nonbasic = next(j for j in range(model.n_cols)
                    if j not in sol.basis.basic)
    pinned = LpModel(obj=[1.0, 1.0], rows=[[1.0, 1.0]], rhs=[1.0],
                     lower=[1.0, 0.0], upper=[1.0, 5.0])
    psol = solve(pinned)
    # its one basic column is the row's surplus, at 0
    integral = psol.basis.basic[0]
    for m, s, j, d in ((model, sol, nonbasic, "up"),
                       (model, sol, basic[0], "sideways"),
                       (pinned, psol, integral, "down")):
        for other in (m, twin(m), m):
            with pytest.raises(LpProbeError):
                probe_single_pivot(other, s, j, d)
        state = s.basis.probe_state
        assert state is None or not state.answers


@pytest.mark.parametrize("seed", range(5))
def test_apply_branch_keeps_each_child(seed):
    model, sol, basic = _probe_instance(seed)
    j, k = basic[:2]
    up, warm = apply_branch(model, sol, j, "up")
    assert warm is sol.basis
    fresh = model.with_bounds(j, lower=np.ceil(sol.x[j]))
    assert up.lower.tobytes() == fresh.lower.tobytes()
    assert up.upper.tobytes() == fresh.upper.tobytes()
    assert apply_branch(model, sol, j, "up")[0] is up
    assert apply_branch(twin(model), sol, j, "up")[0] is up
    down = apply_branch(model, sol, j, "down")[0]
    assert down is not up
    assert down.upper[j] == np.floor(sol.x[j])
    assert apply_branch(model, sol, k, "up")[0] is not up
    # another value of x_j at the same basis is another child
    moved = sol.x.copy()
    moved[j] += 1.0
    shifted = replace(sol, x=moved)
    other = apply_branch(model, shifted, j, "up")[0]
    assert other is not up and other.lower[j] == up.lower[j] + 1.0
    assert sol.basis.children
    sol.basis.forget_solves()
    assert sol.basis.children is None
    again = apply_branch(model, sol, j, "up")[0]
    assert again is not up
    assert again.lower.tobytes() == up.lower.tobytes()
    assert again.upper.tobytes() == up.upper.tobytes()


def test_a_failing_apply_branch_keeps_nothing():
    model, sol, basic = _probe_instance(1)
    integral = next(j for j in range(model.n_cols)
                    if j not in sol.basis.basic)
    for _ in range(2):
        with pytest.raises(LpProbeError):
            apply_branch(model, sol, integral, "up")
        with pytest.raises(LpProbeError):
            apply_branch(model, sol, basic[0], "sideways")
    assert not sol.basis.children


def test_a_partition_is_made_once_per_key(monkeypatch):
    rows = []
    real = lp.tableau_row_for

    def counted(model, basis, j):
        rows.append(j)
        return real(model, basis, j)

    monkeypatch.setattr(straddle, "tableau_row_for", counted)
    rng = np.random.default_rng(41)
    for _ in range(10):
        p, sol, frac = fractional_instance(rng, n=5, m=3)
        model, mask = p.to_lp(), p.integer_mask
        ctx = EvalContext(problem=p, check_incumbent=False)
        rows.clear()
        for _ in range(2):
            for j in sorted(frac):
                disj = StraddleDisjunction(twin(model), sol, j, ctx)
                for d in ("up", "down"):
                    disj.estimate(d)
                    disj.solve(d)
        assert rows == sorted(frac)
        for j in sorted(frac):
            kept = partition_row(model, sol.basis, j, mask)
            assert partition_row(twin(model), sol.basis, j, mask) is kept
            fresh = partition_row(model, fresh_basis(sol.basis), j, mask)
            assert kept == fresh
            # another integrality mask is another partition
            none = np.zeros_like(mask)
            assert partition_row(model, sol.basis, j, none) == \
                partition_row(model, fresh_basis(sol.basis), j, none)


def test_a_search_reads_the_same_when_nothing_is_kept(monkeypatch):
    """Under plain look-ahead and under straddle look-ahead, whose
    row-dropped cold re-solves the search's cold memo answers."""
    strategies = [default_matrix()[s] for s in ("la-d3-2a", "la-straddle")]
    problems = [random_ip(seed, n=8, m=3, hi=6) for seed in (74, 75, 89)]
    cases = [(p, la) for la in strategies for p in problems]
    kept = [driver.solve_mip(p, la) for p, la in cases]
    # keys that never repeat: every probe workspace, child, partition and
    # solve, warm or cold, is made afresh
    monkeypatch.setattr(lp, "memo_key", lambda model: object())
    monkeypatch.setattr(straddle, "memo_key", lambda model: object())
    for (p, la), a in zip(cases, kept):
        b = driver.solve_mip(p, la)
        assert driver.trace_to_json(a.trace) == driver.trace_to_json(b.trace)
        assert a.counters == b.counters
        assert a.x.tobytes() == b.x.tobytes()


def rebuilt_model(search, node):
    """The node's LP built apart from the search: the problem's bounds
    under every ancestor's branch and forced branches, in order, as a
    new `LpModel`."""
    chain = []
    while node is not None:
        chain.append(node)
        node = search.nodes.get(node.parent_id)
    problem = search.problem
    lower, upper = problem.lower.copy(), problem.upper.copy()
    for node in reversed(chain):
        for rec in ([node.branch] if node.branch else []) + node.implied:
            (lower if rec.direction == "up" else upper)[rec.var] = rec.bound
    return LpModel(problem.obj, problem.rows, problem.rhs, lower, upper)


def test_kept_fractional_maps_and_node_models_equal_fresh_ones(monkeypatch):
    """After every default-matrix search of the corpus, no caller has
    changed a solution's shared fractional map, every node's model is
    the model its branch records rebuild, and no warm run loads a basis
    where the comparison of bound vectors `start_child` once made would
    have started it from the probe workspace."""
    scanned = []
    real = model_module.kept_fractional

    def spy(sol, problem):
        scanned.append(sol)     # keeps every scanned solution alive
        return real(sol, problem)

    started = []
    real_start = lp._Workspace.start_child

    def start_spy(probe, model):
        ws = real_start(probe, model)
        if ws is None:      # the run loads the basis
            own = probe.model
            assert not (model.rows is own.rows and model.obj is own.obj
                        and model.rhs is own.rhs
                        and fits_child_ref(probe, model))
        else:
            started.append(1)
        return ws

    monkeypatch.setattr(model_module, "kept_fractional", spy)
    monkeypatch.setattr(criteria, "kept_fractional", spy)
    monkeypatch.setattr(lp._Workspace, "start_child", start_spy)
    models = 0
    for path in corpus_paths():
        problem = parse_mps(path.read_text())
        for config in default_matrix().values():
            scanned.clear()
            search = driver._Search(problem, config)
            search.run()
            for sol in scanned:
                assert sol.__dict__["_fractions"] == \
                    fractional(sol.x, problem)
            for node in search.nodes.values():
                models += 1
                assert memo_key(node.model) == \
                    memo_key(rebuilt_model(search, node))
    assert models > 1000
    assert len(started) > 1000
