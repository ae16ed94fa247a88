"""The engine's bookkeeping equals the forms it replaced, bit for bit.

The queries and the pivot of `_Workspace` read and write the workspace
with fewer numpy calls: bound lists kept beside the bound arrays, float
reads, one `put`, `take` or `nonzero` in place of a loop or a fancy index,
the gufunc behind `np.linalg.inv` called directly, and `ndarray.dot` for
`@`.  The functions below are the forms they replaced, kept here as
references, with `@` for every product.  Every floating-point operation
that feeds a value is the same, so the tests compare bits (`same`), never
with a tolerance, and not even with `==`, which takes -0.0 for 0.0.
"""

import warnings

import numpy as np
import pytest

from branchlab.lp import (
    FEAS_TOL,
    Basis,
    LpModel,
    LpNumericError,
    LpProbeError,
    _probe_workspace,
    _reduced,
    _Workspace,
    memo_key,
    solve,
)
from test_lp import random_model
from test_lp_factor import random_bases
from test_warm_iterate import INSTANCES, root_children


def same(a, b) -> bool:
    """Equal bits: same dtype, shape and bytes (floats as float64)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype.kind == "f" or b.dtype.kind == "f":
        a, b = a.astype(np.float64), b.astype(np.float64)
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


# -- the replaced forms -----------------------------------------------------


def snapshot_ref(ws):
    ups = frozenset(int(j) for j in range(ws.ncols)
                    if not ws.in_basis[j] and ws.at_upper[j])
    return Basis(tuple(map(int, ws.basic)), ups)


def values_ref(ws):
    v = ws._vN.copy()
    for pos, c in enumerate(ws.basic):
        v[c] = ws.beta[pos]
    return v


def objective_ref(ws):
    v = values_ref(ws)
    return float(ws.cost[:ws.n] @ v[:ws.n])


def infeasibility_ref(ws, v):
    below = np.maximum(ws.lo - v, 0.0)
    above = np.maximum(v - ws.up, 0.0)
    below[np.isinf(below)] = 0.0
    return float(np.sum(below) + np.sum(above))


def max_violation_ref(ws):
    best_viol = 0.0
    best_pos = -1
    basic, lo, up = ws.basic, ws.lo.tolist(), ws.up.tolist()
    for pos, (c, val) in enumerate(zip(basic, ws.beta.tolist())):
        viol = max(lo[c] - val, val - up[c])
        if viol > best_viol or (best_pos >= 0 and viol == best_viol
                                and c < basic[best_pos]):
            best_viol = viol
            best_pos = pos
    return best_viol, best_pos


def translated_rc_ref(ws):
    rc = ws.reduced_costs().copy()
    rc[ws.at_upper & ~ws.in_basis] *= -1.0
    rc[ws.in_basis] = 0.0
    return rc


def factor_ref(ws):
    """(B^-1, raw reduced costs) of the basic set, as a load made them."""
    binv = np.linalg.inv(ws.full[:, ws.basic])
    y = ws.cost[ws.basic] @ binv
    rc = ws.cost - y @ ws.full
    rc[ws.basic] = 0.0
    return binv, rc


def values_of_sides_ref(ws):
    """(nonbasic values, basic values) of the bound sides, as a load made
    them."""
    vN = np.where(ws.at_upper, ws.up, ws.lo)
    vN[ws.in_basis] = 0.0
    return vN, ws.binv @ (ws.model.rhs - ws.full @ vN)


def pivot_ref(ws, pos, enter, alpha):
    leave = ws.basic[pos]
    below = ws.beta[pos] < ws.lo[leave]
    target = ws.lo[leave] if below else ws.up[leave]
    step = (ws.beta[pos] - target) / alpha[enter]
    before = objective_ref(ws)
    w = ws.binv @ ws.full[:, enter]
    ws.beta -= w * step
    enter_val = (ws.up[enter] if ws.at_upper[enter]
                 else ws.lo[enter]) + step
    ws.basic[pos] = enter
    ws.in_basis[leave] = False
    ws.in_basis[enter] = True
    ws.at_upper[leave] = not below
    ws.at_upper[enter] = False
    if not ws._vN.flags.writeable:
        ws._vN = ws._vN.copy()
    row = ws.binv[pos] / w[pos]
    ws.binv = ws.binv - np.multiply.outer(w, row)
    ws.binv[pos] = row
    ws.beta[pos] = enter_val
    ws._vN[leave] = target
    ws._vN[enter] = 0.0
    ws._objective = None
    ws.rc = None
    return objective_ref(ws) - before


def fits_child_ref(probe, model):
    """Whether `start_child` may start `model` from `probe`'s iterate:
    every column whose bounds differ, bit for bit, is basic there."""
    own = probe.model
    moved = ((model.lower.view(np.int64) != own.lower.view(np.int64))
             | (model.upper.view(np.int64) != own.upper.view(np.int64)))
    return bool(probe.in_basis[:probe.n][moved].all())


# -- checks -----------------------------------------------------------------


def check_queries(ws):
    """Every query of `ws` against its reference, at the current iterate."""
    snap, ref = ws.snapshot_basis(), snapshot_ref(ws)
    assert snap == ref
    assert all(type(c) is int for c in snap.basic + tuple(snap.at_upper))
    v = ws.values()
    assert same(v, values_ref(ws))
    assert same(ws.objective(), objective_ref(ws))
    assert same(ws.infeasibility(v), infeasibility_ref(ws, v))
    assert ws.max_violation() == max_violation_ref(ws)
    assert same(ws.max_violation()[0], max_violation_ref(ws)[0])
    assert same(ws.translated_rc(), translated_rc_ref(ws))
    assert same(_reduced(ws), translated_rc_ref(ws)[:ws.n])


def check_load(ws):
    """B^-1, the reduced costs and the values of a fresh load or
    refactorization against the forms a load had."""
    binv, rc = factor_ref(ws)
    assert same(ws.binv, binv) and same(ws.rc, rc)
    vN, beta = values_of_sides_ref(ws)
    assert same(ws._vN, vN) and same(ws.beta, beta)
    assert same(ws._lo, ws.lo) and same(ws._up, ws.up)


def steps_checked(ws, ref, limit=30):
    """Pivot `ws` with the engine and its twin `ref`, loaded alike, with
    `pivot_ref`, checking the queries at every iterate and the state
    after every pivot; refactorize both after the first.  Returns the
    number of pivots."""
    check_load(ws)
    for steps in range(limit):
        check_queries(ws)
        viol, pos = ws.max_violation()
        if viol <= FEAS_TOL:
            return steps
        found = ws.entering_column(pos)
        if found is None:
            return steps
        enter, alpha = found
        delta = ws.pivot(pos, enter, alpha)
        assert same(delta, pivot_ref(ref, pos, enter, alpha))
        assert ws.basic == ref.basic
        for name in ("binv", "beta", "_vN", "in_basis", "at_upper"):
            assert same(getattr(ws, name), getattr(ref, name)), name
        if steps == 0:
            ws.refactorize()
            ref.refactorize()
            check_load(ws)
    return limit


def twins(model, basis=None):
    """Two workspaces of `model` loaded alike at `basis`, or cold; None
    when the basis does not load."""
    pair = []
    for _ in range(2):
        ws = _Workspace(model)
        if basis is None:
            ws.load_cold()
            assert ws._restore_dual_feasibility()
        elif not ws.load_basis(basis):
            return None
        pair.append(ws)
    return pair


@pytest.mark.parametrize("m", [1, 2, 3, 5, 9])
def test_queries_and_pivots_equal_the_replaced_forms_on_random_models(m):
    rng = np.random.default_rng(2100 + m)
    steps = 0
    for _ in range(20):
        n = m + int(rng.integers(1, 6))
        model = random_model(rng, n, m)
        for basis in [None] + random_bases(rng, n, m, count=3):
            pair = twins(model, basis)
            if pair is not None:
                steps += steps_checked(*pair)
    assert steps >= 30


def test_queries_and_pivots_equal_the_replaced_forms_at_corpus_roots():
    # each root basis loaded into its own bound children: the warm start
    # of every branch the searches make at the root
    steps = 0
    for index in INSTANCES:
        built = root_children(index)
        if built is None:
            continue
        model, root, children = built
        pair = twins(model, root.basis)
        steps_checked(*pair)
        for _, _, child in children:
            pair = twins(child, root.basis)
            if pair is not None:
                steps += steps_checked(*pair)
    assert steps >= 100


def test_infeasibility_equals_the_replaced_form_on_infinite_values():
    rng = np.random.default_rng(21)
    lower = np.array([0.0, -np.inf, 0.0, -np.inf])
    upper = np.array([4.0, 4.0, np.inf, np.inf])
    model = LpModel(np.ones(4), np.ones((1, 4)), [1.0], lower, upper)
    ws = _Workspace(model)
    masked = 0
    for _ in range(200):
        v = rng.uniform(-2.0, 6.0, size=5)
        for j in rng.choice(5, size=int(rng.integers(0, 3)), replace=False):
            v[j] = rng.choice([-np.inf, np.inf])
        with np.errstate(invalid="ignore"):     # -inf - -inf
            got, want = ws.infeasibility(v), infeasibility_ref(ws, v)
            # an infinite violation below, which counts 0
            masked += np.isposinf(ws.lo - v).any() and np.isfinite(want)
        assert same(got, want) or (np.isnan(got) and np.isnan(want))
    assert masked >= 20


def test_probe_columns_equal_the_replaced_translation():
    rng = np.random.default_rng(22)
    checked = 0
    for _ in range(30):
        model = random_model(rng, 7, 3)
        for basis in [solve(model).basis] + random_bases(rng, 7, 3, 3):
            try:
                probe = _probe_workspace(model, basis, "misfit")
            except LpProbeError:
                continue
            rc = translated_rc_ref(probe)
            want = [(col, rc[col], bool(probe.at_upper[col]))
                    for col in range(probe.ncols) if not probe.in_basis[col]]
            assert len(probe.probe_cols) == len(want)
            for got, ref in zip(probe.probe_cols, want):
                assert got[0] == ref[0] and got[2] == ref[2]
                assert same(got[1], ref[1])
            checked += 1
    assert checked >= 40


def test_a_child_starts_from_the_probe_workspace_as_the_replaced_test_says():
    rng = np.random.default_rng(23)
    seen = {True: 0, False: 0}
    for _ in range(30):
        model = random_model(rng, 6, 3)
        sol = solve(model)
        probe = _probe_workspace(model, sol.basis, "misfit")
        for _ in range(8):
            j = int(rng.integers(6))
            side = "lower" if rng.random() < 0.5 else "upper"
            value = getattr(model, side)[j]
            # a zero of the other sign is another bound bit for bit
            value = -value if value == 0.0 else \
                value + rng.choice([-1.0, 1.0])
            child = model.with_bounds(j, **{side: value})
            if child.empty_box:
                continue
            fits = fits_child_ref(probe, child)
            started = probe.start_child(child)
            assert (started is not None) == fits
            seen[fits] += 1
            # equal bounds in a model that records no column load
            assert probe.start_child(LpModel(
                model.obj, model.rows, model.rhs, child.lower,
                child.upper)) is None
            if fits:
                # the bounds a `_bind` of the child's model builds
                bound = _Workspace(child)
                for name in ("_lo", "_up", "lo", "up"):
                    assert same(getattr(started, name), getattr(bound, name))
                assert all(type(v) is float
                           for v in started._lo + started._up)
    assert min(seen.values()) >= 20


def engine_products(rng, m):
    """The operands of every product the engine forms, by name, at a
    random basis of a random integer model with m rows and 1 to 5
    columns, with many zeros; the entering column is a strided view of
    [A | -I], as in `pivot`.  None when the basis is singular."""
    n = int(rng.integers(1, 6))
    full = np.hstack([rng.integers(-3, 4, size=(m, n)).astype(float),
                      -np.eye(m)])
    basic = rng.permutation(n + m)[:m]
    try:
        binv = np.linalg.inv(full[:, basic])
    except np.linalg.LinAlgError:
        return None
    cost = np.concatenate([rng.integers(-2, 3, size=n).astype(float),
                           np.zeros(m)])
    vN = np.where(rng.random(n + m) < 0.5, 0.0,
                  rng.integers(-3, 4, size=n + m).astype(float))
    vN[basic] = 0.0
    rhs = rng.integers(-3, 4, size=m).astype(float)
    y = cost[basic] @ binv
    return {"A vN": (full, vN),
            "B^-1 (b - A vN)": (binv, rhs - full @ vN),
            "c_B B^-1": (cost[basic], binv),
            "y A": (y, full),
            "tableau row": (binv[int(rng.integers(0, m))], full),
            "B^-1 a_q": (binv, full[:, int(rng.integers(0, n + m))]),
            "c x": (cost[:n], vN[:n])}


@pytest.mark.parametrize("m", range(1, 13))
def test_dot_gives_the_bits_of_matmul_for_every_engine_product(m):
    rng = np.random.default_rng(2200 + m)
    checked, differ = 0, set()
    while checked < 300:
        products = engine_products(rng, m)
        if products is None:
            continue
        checked += 1
        for name, (a, b) in products.items():
            if not same(a.dot(b), a @ b):
                # `dot` multiplies by an operand of one entry, and keeps
                # the sign of a zero product that `@`'s sum makes +0.0:
                # the engine keeps `@` there
                assert a.size == 1 or b.size == 1, name
                assert not (a @ b).any()
                differ.add(name)
    if m == 1:
        assert {"c_B B^-1", "B^-1 (b - A vN)"} <= differ


def test_one_row_or_one_column_keeps_the_bits_of_matmul():
    # the cold surplus value -1 * 0 and the objective -1 * 0 are -0.0 by
    # `dot`, 0.0 by `@`
    one_row = LpModel([1.0, 1.0], [[1.0, 1.0]], [0.0], np.zeros(2),
                      np.full(2, 5.0))
    one_col = LpModel([-1.0], [[1.0], [2.0]], [-1.0, -1.0], [0.0], [0.0])
    for model in (one_row, one_col):
        ws, ref = twins(model)
        steps_checked(ws, ref)
        assert not np.signbit(ws.values()).any()
        assert not np.signbit(ws.objective())


def singular_model():
    """x0 and x1 have equal columns, so a basis holding both is
    singular."""
    rows = np.array([[1.0, 1.0, 2.0], [3.0, 3.0, 1.0]])
    return LpModel(np.array([1.0, 2.0, 1.0]), rows, np.array([2.0, 3.0]),
                   np.zeros(3), np.full(3, 5.0))


def test_a_singular_warm_basis_starts_cold_without_a_warning():
    model = singular_model()
    singular = Basis((0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not _Workspace(model).load_basis(singular)
        warm = solve(model, warm_basis=singular)
    cold = solve(model)
    assert warm.status is cold.status and warm.pivots == cold.pivots
    assert same(warm.x, cold.x) and warm.basis == cold.basis


def test_a_singular_refactorize_raises():
    model = singular_model()
    ws = _Workspace(model)
    assert ws.load_basis(Basis((0, 2)))
    ws.basic = [0, 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LpNumericError):
            ws.refactorize()


def test_a_memo_key_is_built_once_per_model_and_follows_its_bounds():
    model = random_model(np.random.default_rng(24), 5, 2)
    key = memo_key(model)
    assert memo_key(model) is key
    child = model.with_bounds(0, upper=1.0)
    assert memo_key(child) != key
    assert memo_key(child.with_bounds(0, upper=model.upper[0])) == key
    assert memo_key(model.with_row(np.ones(5), 1.0)) != key
