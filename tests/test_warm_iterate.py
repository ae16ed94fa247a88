"""A warm run starts from the probe workspace's iterate, and a solution
derives `reduced` and `infeas` on first read; both bit for bit.

A child whose bounds differ from a probe workspace's model only on columns
basic there starts its run from that workspace's loaded iterate
(`_Workspace.start_child`) instead of loading the warm basis again.  A
solution from `solve` reads its reduced costs and infeasibility from its
final iterate when first asked, whatever its status: no later solve
pivots on in its workspace.  These tests run on every bundled instance
and on the seed-1 deep instances of the benchmark, and compare with
`tobytes`, never with a tolerance.  The last tests check the typed
unbounded outcome against HiGHS.
"""

import functools
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import branchlab.lp as lp
from branchlab.bench import default_matrix
from branchlab.cli import main
from branchlab.driver import solve_mip
from branchlab.instances import corpus_paths
from branchlab.lp import (
    LpModel,
    LpNumericError,
    LpStatus,
    LpUnboundedError,
    PivotBudget,
    apply_branch,
    solve,
    tableau_row_for,
)
from branchlab.model import MipProblem, detect_fractional
from branchlab.mps import parse_mps
from test_lp_memo import assert_same_answer, bare

DEEP = Path(__file__).resolve().parent.parent / "perfbench" / "deep.py"


@functools.cache
def problems() -> tuple[MipProblem, ...]:
    """The bundled corpus, then the benchmark's seed-1 deep instances:
    the DEEP family of `deep-plain` and the SMALL one of the look-ahead
    workloads."""
    spec = importlib.util.spec_from_file_location("perfbench_deep", DEEP)
    deep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(deep)
    corpus = [parse_mps(p.read_text()) for p in corpus_paths()]
    return tuple(corpus + deep.generate(1, 8, deep.DEEP)
                 + deep.generate(1, 10, deep.SMALL))


FIRST_DEEP = len(corpus_paths())
INSTANCES = range(FIRST_DEEP + 8 + 10)


def root_children(index):
    """(model, root solution, [(j, direction, child model)]) for every
    fractional root variable, or None when the root has no branch."""
    problem = problems()[index]
    model = problem.to_lp()
    root = solve(model)
    if root.status is not LpStatus.OPTIMAL:
        return None
    frac = detect_fractional(root, problem)
    if not frac:
        return None
    children = [(j, d, apply_branch(model, root, j, d)[0])
                for j in sorted(frac) for d in ("up", "down")]
    return model, root, children


def budgets(root):
    """Unbudgeted, truncated after 1 and 2 pivots, and two cutoffs above
    the root bound."""
    return [PivotBudget(), PivotBudget(max_pivots=1),
            PivotBudget(max_pivots=2), PivotBudget(cutoff=root.x_o + 0.5),
            PivotBudget(cutoff=root.x_o + 3.0)]


@pytest.fixture
def starts(monkeypatch):
    """Counts the runs started from a probe workspace's iterate."""
    seen = []
    real = lp._Workspace.start_child

    def counted(self, model):
        ws = real(self, model)
        seen.append(ws is not None)
        return ws

    monkeypatch.setattr(lp._Workspace, "start_child", counted)
    return seen




@pytest.mark.parametrize("index", INSTANCES)
def test_a_child_run_from_the_kept_iterate_equals_a_load(index, starts):
    found = root_children(index)
    if found is None:
        pytest.skip("the root does not branch")
    model, root, children = found
    b = root.basis
    for j, d, child in children:
        for budget in budgets(root):
            warm = bare(b)
            tableau_row_for(model, warm, j)     # loads the probe workspace
            starts.clear()
            got = solve(child, warm_basis=warm, budget=budget)
            assert starts == [True]
            ref = solve(child, warm_basis=bare(b), budget=budget)
            assert_same_answer(got, ref)


def test_other_arrays_or_a_nonbasic_bound_load_the_basis(starts):
    model, root, children = root_children(FIRST_DEEP)
    j = children[0][0]
    nonbasic = next(k for k in range(model.n_cols)
                    if k not in root.basis.basic)
    same = (model.obj, model.rows, model.rhs, model.lower, model.upper)
    others = [model.with_bounds(nonbasic, upper=model.upper[nonbasic] + 1),
              model.with_row(np.ones(model.n_cols), -1e3)]
    # equal arrays that are other objects
    for i in range(3):
        arrays = list(same)
        arrays[i] = arrays[i].copy()
        others.append(LpModel(*arrays))
    for other in others:
        warm = bare(root.basis)
        tableau_row_for(model, warm, j)
        starts.clear()
        got = solve(other, warm_basis=warm)
        assert starts == [False]
        assert_same_answer(got, solve(other, warm_basis=bare(root.basis)))


@pytest.fixture
def eager(monkeypatch):
    """Each run's reduced costs and infeasibility as they are at its end,
    by workspace: the values a solution derived at once would hold."""
    ends = {}
    real = lp._run_dual_simplex

    def run(ws, budget):
        status, path = real(ws, budget)
        rc = ws.translated_rc()[:ws.n].copy()
        ends[id(ws)] = (ws, rc.tobytes(), ws.infeasibility(ws.values()))
        return status, path

    monkeypatch.setattr(lp, "_run_dual_simplex", run)
    return ends


@pytest.mark.parametrize("index", INSTANCES)
def test_a_lazy_field_reads_the_value_at_the_end_of_its_run(index, eager):
    found = root_children(index)
    if found is None:
        pytest.skip("the root does not branch")
    model, root, children = found
    sols = []
    # one warm basis for every run, so later runs of a key follow its
    # truncated ones and start from the probe workspace the estimates load
    for j, d, child in children:
        lp.probe_single_pivot(model, root, j, d)
        for budget in budgets(root)[1:] + budgets(root)[:1]:
            sols.append(solve(child, warm_basis=root.basis, budget=budget))
    # a memo answer is an earlier solution again
    lazy = list({id(s): s for s in sols if "_final" in s.__dict__}.values())
    assert len(lazy) == len({id(s) for s in sols})
    for sol in lazy:
        assert "reduced" not in sol.__dict__
        ws, rc, infeas = eager[id(sol.__dict__["_final"][0])]
        assert sol.reduced.tobytes() == rc
        assert not sol.reduced.flags.writeable
        if sol.status is LpStatus.OPTIMAL:
            assert sol.infeas == 0.0
        else:
            assert sol.infeas == infeas


@pytest.mark.parametrize("index", INSTANCES)
def test_a_truncated_solution_keeps_its_values_past_a_continuation(index,
                                                                   eager):
    """A truncated solution's lazily read values stay those of its run
    after a later, longer solve of the same key from the same warm basis,
    which runs from the start in a workspace of its own."""
    found = root_children(index)
    if found is None:
        pytest.skip("the root does not branch")
    _, root, children = found
    short = PivotBudget(max_pivots=1)
    longer = 0
    for _, _, child in children:
        warm = bare(root.basis)
        first = solve(child, warm_basis=warm, budget=short)
        if first.status is not LpStatus.PIVOT_LIMIT_HIT:
            continue
        ref = solve(child, warm_basis=bare(root.basis), budget=short)
        later = solve(child, warm_basis=warm)
        [(_, sol)] = warm.memo[lp.memo_key(child)][:1]
        assert sol is first
        assert later.__dict__["_final"][0] is not first.__dict__["_final"][0]
        longer += later.pivots > first.pivots
        # `reduced` and `infeas` are read only now, after the later run
        assert "reduced" not in first.__dict__
        assert "infeas" not in first.__dict__
        _, rc, infeas = eager[id(first.__dict__["_final"][0])]
        assert first.reduced.tobytes() == ref.reduced.tobytes() == rc
        assert first.infeas == ref.infeas == infeas
    if not longer:
        pytest.skip("no child run stops at one pivot and pivots on")


def test_lazy_reads_in_a_search_equal_the_values_at_run_end(eager,
                                                            monkeypatch):
    reads = []
    real = lp.LpSolution.__getattr__

    def read(self, name):
        value = real(self, name)
        ws, rc, infeas = eager[id(self.__dict__["_final"][0])]
        reads.append(name)
        assert (value.tobytes() == rc if name == "reduced"
                else value == infeas)
        return value

    monkeypatch.setattr(lp.LpSolution, "__getattr__", read)
    matrix = default_matrix()
    for name in ("plain-c2a", "la-d3-2a", "la-straddle"):
        for problem in problems()[:25]:
            solve_mip(problem, matrix[name])
    assert "reduced" in reads


# -- typed unbounded outcome --------------------------------------------------


def random_lp(seed):
    """A small LP over x >= 0 with some columns unbounded above."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, 4))
    obj = rng.integers(-3, 4, size=n).astype(float)
    rows = rng.integers(-3, 4, size=(m, n)).astype(float)
    rhs = rng.integers(-4, 5, size=m).astype(float)
    upper = np.where(rng.random(n) < 0.6, math.inf,
                     rng.integers(1, 5, size=n)).astype(float)
    return LpModel(obj, rows, rhs, np.zeros(n), upper)


def test_unbounded_lps_are_typed_as_highs_finds_them():
    optimize = pytest.importorskip("scipy.optimize")
    seen = {0: 0, 2: 0, 3: 0}
    for seed in range(300):
        model = random_lp(seed)
        # HiGHS presolve reports some unbounded LPs as infeasible
        res = optimize.linprog(
            model.obj, A_ub=-model.rows, b_ub=-model.rhs,
            bounds=[(lo, None if math.isinf(up) else up)
                    for lo, up in zip(model.lower, model.upper)],
            method="highs", options={"presolve": False})
        assert res.status in seen
        seen[res.status] += 1
        if res.status == 3:
            with pytest.raises(LpUnboundedError):
                solve(model)
            continue
        try:
            sol = solve(model)
        except LpUnboundedError:
            pytest.fail(f"seed {seed}: a bounded LP reported unbounded")
        except LpNumericError:
            # the dual-degenerate optimum on a stand-in bound, still open
            assert res.status == 0
            continue
        if res.status == 0:
            assert sol.status is LpStatus.OPTIMAL
            assert sol.x_o == pytest.approx(res.fun, abs=1e-6)
        else:
            assert sol.status is LpStatus.INFEASIBLE
    assert min(seen.values()) > 20


UNBOUNDED_MPS = """NAME unbounded
ROWS
 N  OBJ
 G  R0
COLUMNS
    MARKER    'MARKER' 'INTORG'
    X0  OBJ  -1
    X0  R0  1
    X1  R0  -1
    MARKER    'MARKER' 'INTEND'
RHS
    RHS  R0  0.5
ENDATA
"""


def test_an_unbounded_relaxation_ends_the_search_unbounded(tmp_path,
                                                           capsys):
    # min -x0 subject to x0 - x1 >= 0.5, x >= 0
    problem = parse_mps(UNBOUNDED_MPS)
    optimize = pytest.importorskip("scipy.optimize")
    res = optimize.linprog(problem.obj, A_ub=-problem.rows,
                           b_ub=-problem.rhs, bounds=(0, None),
                           method="highs")
    assert res.status == 3
    with pytest.raises(LpUnboundedError):
        solve(problem.to_lp())
    result = solve_mip(problem)
    assert result.status == "unbounded"
    assert result.x is None
    assert result.objective == result.bound == -math.inf
    assert result.trace["status"] == "unbounded"
    path = tmp_path / "unbounded.mps"
    path.write_text(UNBOUNDED_MPS)
    assert main(["solve", str(path)]) == 1
    assert "status    unbounded" in capsys.readouterr().out


def test_a_free_column_at_a_zero_reduced_cost_still_raises():
    # min x0 + x1, x0 + x1 >= 2.5, 2 x0 - x1 >= -3.5, x free: HiGHS gives
    # 2.5, this engine stops on a stand-in bound with a zero reduced cost
    model = LpModel([1.0, 1.0], [[1.0, 1.0], [2.0, -1.0]], [2.5, -3.5],
                    [-math.inf] * 2, [math.inf] * 2)
    with pytest.raises(LpNumericError) as err:
        solve(model)
    assert not isinstance(err.value, LpUnboundedError)
