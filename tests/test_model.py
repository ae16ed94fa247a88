import math

import numpy as np
import pytest

from branchlab.lp import LpModel, apply_branch, solve
from branchlab.model import (
    BranchRecord,
    Incumbent,
    MipProblem,
    ModelError,
    detect_fractional,
)


def small_problem():
    # min -x1 - x2 s.t. 3x1 + 2x2 <= 5 (stored as >=); LP root is fractional
    return MipProblem(name="p", obj=[-1.0, -1.0],
                      rows=[[-3.0, -2.0]], rhs=[-5.0],
                      lower=[0.0, 0.0], upper=[2.0, 2.0],
                      integer_mask=[True, True])


def test_detect_fractional_basic_arithmetic():
    p = small_problem()
    sol = solve(p.to_lp())
    frac = detect_fractional(sol, p)
    for j, (fp, fm) in frac.items():
        assert fp + fm == pytest.approx(1.0)
        v = sol.x[j]
        assert fp == pytest.approx(math.ceil(v) - v)
        assert fm == pytest.approx(v - math.floor(v))


def test_detect_fractional_examples():
    p = MipProblem(name="q", obj=[0.0, 0.0], rows=[[1.0, 1.0]], rhs=[5.4],
                   lower=[0.0, 0.0], upper=[9.0, 9.0],
                   integer_mask=[True, True])
    sol = solve(p.to_lp())
    frac = detect_fractional(sol, p)
    # exactly one variable carries the fractional mass 5.4
    assert len(frac) == 1
    ((j, (fp, fm)),) = frac.items()
    assert fm == pytest.approx(0.4)
    assert fp == pytest.approx(0.6)
    del j


def test_near_integral_values_respect_tolerance():
    p = small_problem()
    sol = solve(p.to_lp())
    fake = sol.__class__(status=sol.status, x_o=sol.x_o,
                         x=np.array([2.0000004, 0.0]), reduced=sol.reduced,
                         infeas=0.0, pivots=0, basis=sol.basis)
    assert detect_fractional(fake, p) == {}


def test_child_region_is_strictly_tighter():
    p = small_problem()
    sol = solve(p.to_lp())
    frac = detect_fractional(sol, p)
    assert frac
    j = min(frac)
    for direction in ("up", "down"):
        child, _ = apply_branch(p.to_lp(), sol, j, direction)
        assert np.all(child.lower >= p.lower)
        assert np.all(child.upper <= p.upper)
        assert (child.lower[j] > p.lower[j]) or (child.upper[j] < p.upper[j])


def test_incumbent_update_and_cutoff():
    p = small_problem()
    inc = Incumbent(eps=1e-6)
    assert inc.cutoff == math.inf
    assert inc.update([1.0, 0.0], -1.0, problem=p)
    assert inc.x_o == -1.0
    assert inc.cutoff == pytest.approx(-1.0 - 1e-6)
    # equal objective is not an improvement
    assert not inc.update([0.0, 1.0], -1.0, problem=p)
    assert inc.update([0.0, 2.0], -2.0, problem=p)


def test_incumbent_rejects_fractional_candidates():
    p = small_problem()
    inc = Incumbent()
    with pytest.raises(ModelError):
        inc.update([0.5, 0.0], -0.5, problem=p)


def test_constructors_leave_the_callers_arrays_writeable():
    # `np.asarray` returned the caller's own array, which the constructors
    # then made read-only: `lo[0] = 1.0` raised after `LpModel(..., lo, ..)`
    lo, up = np.zeros(2), np.full(2, 5.0)
    obj, rows, rhs = np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), \
        np.array([3.0])
    model = LpModel(obj, rows, rhs, lo, up)
    problem = MipProblem("p", obj, rows, rhs, lo, up, np.ones(2, bool))
    for a in (lo, up, obj, rows, rhs):
        a[...] = 7.0
    assert model.lower.tolist() == problem.lower.tolist() == [0.0, 0.0]
    assert model.obj.tolist() == problem.obj.tolist() == [1.0, 1.0]
    assert problem.rows.tolist() == [[1.0, 1.0]]
    assert model.rhs.tolist() == problem.rhs.tolist() == [3.0]
    # arrays read-only already, a problem's or a parent model's, are shared
    root = problem.to_lp()
    assert root is problem.to_lp()
    assert root.obj is problem.obj and root.rows is problem.rows
    assert root.lower is problem.lower and root.upper is problem.upper
    twin = LpModel(root.obj, root.rows, root.rhs, root.lower, root.upper)
    assert twin.rows is root.rows and twin.lower is root.lower
    assert not any(a.flags.writeable for a in (
        model.obj, model.rows, model.rhs, model.lower, model.upper))
