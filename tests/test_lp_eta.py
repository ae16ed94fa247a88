"""The eta update of B^-1 equals the row loop it replaced, bit for bit.

`_Workspace.pivot` updates the explicit inverse as one rank-1 step into a
new array.  `eta_rows` below is the row loop it replaced, kept here as the
reference: divide the pivot row by the pivot element, then take w[i]
times the new pivot row from every other row i.  Each element gets the
same product and the same subtraction, so the tests compare with
`np.array_equal`, never with a tolerance.  A pivot copies the nonbasic
values `_vN` only when they are a probe workspace's, read-only and
shared with a run it started; any other run writes its own in place.
"""

import numpy as np
import pytest

from branchlab.lp import (
    FEAS_TOL,
    _probe_workspace,
    _Workspace,
    apply_branch,
    solve,
)
from test_lp import random_model
from test_lp_factor import random_bases
from test_warm_iterate import root_children


def eta_rows(binv, w, pos):
    """B^-1 after the basis exchange at `pos` whose updated entering
    column is `w`, one row at a time."""
    binv = binv.copy()
    binv[pos] /= w[pos]
    for i in range(len(w)):
        if i != pos:
            binv[i] -= w[i] * binv[pos]
    return binv


def pivots_checked(ws, limit=30):
    """Run dual simplex steps on `ws`, checking each B^-1 update against
    `eta_rows` and that `_vN` is updated in place, with a
    refactorization after the first step.  Returns the
    number of steps and of those that read a fresh, read-only inverse:
    the first after the load and the first after the refactorization."""
    steps = fresh = 0
    while steps < limit:
        viol, pos = ws.max_violation()
        if viol <= FEAS_TOL:
            break
        found = ws.entering_column(pos)
        if found is None:
            break
        enter, alpha = found
        before, vn = ws.binv, ws._vN
        fresh += not before.flags.writeable
        want = eta_rows(before, before @ ws.full[:, enter], pos)
        ws.pivot(pos, enter, alpha)
        assert np.array_equal(ws.binv, want)
        assert ws.binv is not before and ws.binv.flags.writeable
        # a loaded or refactorized run's nonbasic values are its own, so
        # every pivot, the first after a fresh inverse too, writes them
        # in place
        assert ws._vN is vn
        steps += 1
        if steps == 1:
            ws.refactorize()
    return steps, fresh


def starts(rng, model):
    """Workspaces at the cold basis and at the random bases that load."""
    n, m = model.n_cols, model.n_rows
    ws = _Workspace(model)
    ws.load_cold()
    assert ws._restore_dual_feasibility()
    yield ws
    for basis in random_bases(rng, n, m, count=3):
        ws = _Workspace(model)
        if ws.load_basis(basis):
            yield ws


@pytest.mark.parametrize("m", range(1, 13))
def test_the_rank_1_step_equals_the_row_loop(m):
    rng = np.random.default_rng(1700 + m)
    steps = fresh = 0
    for _ in range(30):
        model = random_model(rng, m + int(rng.integers(1, 5)), m)
        for ws in starts(rng, model):
            done, from_fresh = pivots_checked(ws)
            steps += done
            fresh += from_fresh
            # no step but those two reads a read-only inverse
            assert from_fresh == min(done, 2)
    assert steps >= 30 and fresh >= 20


def test_a_child_run_leaves_the_probe_workspace_unchanged():
    checked = 0
    for index in range(12):
        built = root_children(index)
        if built is None:
            continue
        model, root, children = built
        probe = _probe_workspace(model, root.basis, "misfit")
        binv, vn = probe.binv.copy(), probe._vN.copy()
        for j, direction, _ in children:
            child, warm = apply_branch(model, root, j, direction)
            # a branch on a basic x_j records its column, so it starts
            ws = probe.start_child(child)
            assert ws.binv is probe.binv and ws._vN is probe._vN
            assert not probe._vN.flags.writeable
            sol = solve(child, warm_basis=warm)
            checked += sol.pivots > 0
            assert np.array_equal(probe.binv, binv)
            assert np.array_equal(probe._vN, vn)
    assert checked >= 10

