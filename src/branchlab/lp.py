"""Bounded-variable LP representation and a dense dual simplex engine.

The engine works on models of the form

    minimize    c . v
    subject to  A v >= b,   lower <= v <= upper

Each row gets a surplus column internally (A v - s = b, s >= 0), and the
basis is tracked as (basic column set, bound side of each nonbasic column).
Nonbasic variables are handled by bound-side bookkeeping: values, reduced
costs and ratio tests are computed as if every nonbasic variable had been
translated/complemented to sit at value 0, so the reduced costs reported at
dual-feasible iterates are always nonnegative (up to tolerance).

All arithmetic is dense numpy; the inverse of the basis matrix is kept
explicitly.  This is intended for desk-scale instances (tens of columns),
not production LPs.

Where B^-1 comes from:

  * Every load of a basis into a model computes a fresh inverse (the
    gufunc behind `np.linalg.inv`) and, from it, the raw reduced costs,
    the dual-feasibility flips and the values.
  * Inside a solve, each pivot updates B^-1 by an eta step, one rank-1
    numpy update written into a new array, and the inverse is rebuilt
    fresh every REFACTOR_EVERY pivots.  A fresh inverse is read-only; no
    pivot writes to the array it reads.
  * All single-pivot probes and tableau rows at one (model, basis) pair
    read one loaded workspace, built on the first of them and kept with
    the basis; they never write to it.  The first probe of x_j prices
    both branch directions in one pass over its tableau row
    (`_min_ratios`) and keeps both answers.
  * A warm run of a `with_bounds` child of that workspace's model whose
    moved column is basic there (every branch on a basic x_j) starts
    from the workspace's own iterate, sharing its B^-1
    (`_Workspace.start_child`): such a bound moves no nonbasic value and
    no dual-feasibility flip, so a load would compute the same iterate.
    It copies the workspace's bounds and replaces the one column
    `with_bounds` recorded.  Any other warm run loads the basis.

Within a run the reduced costs are recomputed, from the same B^-1, only
when the next ratio test reads them.  A solution derives `reduced` and
`infeas` from its final iterate on first read (`LpSolution`): no later
solve pivots on a workspace that a solve returned.

Work done at a basis is kept with the `Basis` and found again by the
model's content, `memo_key`: its `rows`, `obj`, `rhs` and straddle
marks, built into one key once per model (`LpModel.content_key`) and
shared by the models a bound change derives from it, and its bounds,
all by value.  So a model rebuilt with equal rows (a straddle row dropped
again, `LpModel.without_rows`) finds what was done for the first.
A basis keeps

  * `probe_state`: the probe workspace, with every probe's answer by
    (j, direction);
  * `children`: the bound children `apply_branch` built, and the
    straddle row partitions and children (`straddle`);
  * `memo`: the solves warm-started from it, below.

`Basis.forget_solves` frees the children and the memo.

Whole solves are reused too.  A warm solve's run depends only on the warm
basis and the model, a cold one's on the model alone; the budget decides
only where it stops.  So each warm basis keeps a memo of the runs started
from it, and a search keeps one of its cold runs (`solve`'s `cold_memo`),
both keyed on the model's `memo_key`, each run with its solution and its
path: the objective, the largest violation and the stall count at every
iterate.  A later solve of the same key returns a stored solution when
replaying that path through `_stop` under its own budget stops at the
same iterate with the same status.  When that budget's cutoff first
stops the path at its last iterate instead, whatever the stored status,
the answer is built from the stored run without a run: its values, basis
and pivots, the objective recorded at that iterate, and `reduced` and
`infeas` as the stored solution derives them.  Otherwise the solve runs
from the warm basis, or cold, from the start.  A cold solve answered from
the cold memo returns the stored solution, and so the stored `Basis`, at
which the straddle children and their solves are kept already.

A solution also keeps its fractional map once scanned
(`model.kept_fractional`), shared by every reader.

At this engine's sizes (a few rows, about ten columns) a call's time goes
to numpy's fixed cost per call, not to arithmetic.  So every
floating-point operation that feeds a value stays as it is, and the
bookkeeping around them is trimmed: bound lists beside the bound arrays
for the loops that read one entry at a time, float reads in the pivot,
one `take` or `put` for a gather or scatter over the basic set, the
inverse gufunc called without `np.linalg.inv`'s checks of its argument,
and the final values taken from the objective's.  Each product is
`ndarray.dot`, about 1 us sooner than `@` and the same BLAS call, except
where an operand has one entry (one row, or one column in the objective):
there `dot` multiplies and keeps a zero's sign that `@`'s sum makes +0.0,
so those keep `@`.  `tests/test_lp_fixed_cost.py` checks each against the
form it replaced, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

FEAS_TOL = 1e-7       # primal feasibility tolerance on rows and bounds
INT_TOL = 1e-6        # integrality tolerance
DUAL_TOL = 1e-9       # reduced-cost sign tolerance
PIVOT_TOL = 1e-9      # smallest usable pivot element
REFACTOR_EVERY = 64
BIG_BOUND = 1e8       # stand-in upper bound used to dual-start free columns
CUTOFF_SLACK = 1e-9   # an objective passes a cutoff only beyond this

INF = math.inf


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    CUTOFF_INFEASIBLE = "cutoff_infeasible"
    PIVOT_LIMIT_HIT = "pivot_limit_hit"


class LpError(Exception):
    pass


class LpModelError(LpError):
    """Bad model data or mismatched dimensions."""


class LpNumericError(LpError):
    """An LP this engine cannot solve: a singular basis that
    refactorization could not repair, or an optimum on a stand-in bound
    whose column has a zero reduced cost."""


class LpUnboundedError(LpNumericError):
    """The optimum rests on a stand-in bound of a column whose reduced
    cost is nonzero: the objective falls without limit along it."""


class LpProbeError(LpError):
    """Precondition failure in a probe/branch operation."""


@dataclass(frozen=True)
class PivotBudget:
    """Termination controls for one dual simplex run.

    cutoff: the largest still-acceptable objective; the solve is declared
        cutoff-infeasible as soon as any dual iterate exceeds it (callers
        pass incumbent - eps, making the test equivalent to reaching the
        incumbent objective).
    v_lim: optional early stop once the largest primal violation falls
        below this value (the iterate is returned as PIVOT_LIMIT_HIT).
    """

    max_pivots: int = 1000
    max_degenerate: int = 200
    cutoff: float = INF
    v_lim: float | None = None

    def __post_init__(self):
        # written so that NaN, which fails every comparison, fails each
        if not self.max_pivots > 0:
            raise LpModelError("max_pivots must be positive")
        if not self.max_degenerate > 0:
            raise LpModelError("max_degenerate must be positive")
        if self.v_lim is not None and not self.v_lim > 0:
            raise LpModelError("v_lim must be positive when set")
        if self.cutoff != self.cutoff:
            raise LpModelError("cutoff must not be NaN")


@dataclass(frozen=True)
class Basis:
    """Basic column indices plus the bound side of every nonbasic column.

    Columns 0..n-1 are structural, n..n+m-1 are row surpluses.  `at_upper`
    holds the nonbasic columns currently sitting at their upper bound.

    `probe_state`, `children` and `memo` hold work already done at this
    basis, found by the model's `memo_key` (see the module
    docstring).  They are filled in on first use and are not part of the
    basis's value.
    """

    basic: tuple[int, ...]
    at_upper: frozenset[int] = frozenset()
    probe_state: _Workspace | None = field(
        default=None, init=False, compare=False, repr=False)
    memo: dict | None = field(
        default=None, init=False, compare=False, repr=False)
    children: dict | None = field(
        default=None, init=False, compare=False, repr=False)

    def _remember(self, name: str, value) -> None:
        object.__setattr__(self, name, value)

    def kept(self, key: tuple, make):
        """The value kept in `children` under `key`, a tuple that starts
        with the model's `memo_key`; `make()` gives it on the first
        call."""
        if self.children is None:
            self._remember("children", {})
        value = self.children.get(key)
        if value is None:
            value = self.children[key] = make()
        return value

    def forget_solves(self) -> None:
        """Drop the memo of solves warm-started from this basis and the
        children kept at it, whose own memos go with them."""
        self._remember("memo", None)
        self._remember("children", None)


@dataclass(frozen=True)
class LpSolution:
    """One run's outcome.  A solution from `solve` derives `reduced` and
    `infeas` from its final iterate on first read."""

    status: LpStatus
    x_o: float
    x: np.ndarray            # structural values (undefined entries possible
                             # for non-optimal statuses, still reported)
    reduced: np.ndarray      # structural reduced costs, translated so that
                             # nonbasic entries are >= -tol; 0 for basic
    infeas: float            # sum of positive row/bound violations
    pivots: int
    basis: Basis

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL

    def __getattr__(self, name: str):
        # reached only for a field a solution from `solve` left unset:
        # `reduced` and `infeas` are derived from its final iterate, kept
        # as `_final` (the run's workspace and values), on first read
        final = self.__dict__.get("_final")
        if final is None or name not in ("reduced", "infeas"):
            raise AttributeError(name)
        ws, values = final
        value = _reduced(ws) if name == "reduced" else \
            ws.infeasibility(values)
        self.__dict__[name] = value
        return value


_BAD_BOUND = "bounds must not be NaN; lower bounds < +inf, uppers > -inf"


def frozen(a) -> np.ndarray:
    """`a` as a read-only float64 array: one that is read-only already
    is shared, and any other input is copied, so that a caller's own
    array stays writeable."""
    if isinstance(a, np.ndarray) and a.dtype == np.float64 and \
            not a.flags.writeable:
        return a
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _checked_bounds(lower, upper, n: int):
    lower = frozen(lower)
    upper = frozen(upper)
    if lower.shape[0] != n or upper.shape[0] != n:
        raise LpModelError("bound vectors do not match column count")
    # NaN fails both comparisons
    if not ((lower < INF).all() and (upper > -INF).all()):
        raise LpModelError(_BAD_BOUND)
    return lower, upper, _has_empty_box(lower, upper)


def _has_empty_box(lower: np.ndarray, upper: np.ndarray) -> bool:
    """Whether some column's lower bound exceeds its upper bound."""
    return bool((lower > upper + FEAS_TOL).any())


class LpModel:
    """Immutable bounded-variable LP: minimize obj.v s.t. rows.v >= rhs.

    Models derived by a bound change share their parent's validated
    `obj`, `rows` and `rhs` arrays and its full matrix [A | -I].
    `empty_box` is set when some column's lower bound exceeds its upper
    bound, so the model is infeasible whatever its rows.  A model from
    `with_bounds` keeps, as `_moved`, its parent's bound arrays and the
    one column whose bounds it may have changed
    (`_Workspace.start_child`).
    """

    __slots__ = ("obj", "rows", "rhs", "lower", "upper", "empty_box",
                 "straddle_rows", "_matrices", "_content", "_key", "_moved")

    def __init__(self, obj, rows, rhs, lower, upper, straddle_rows=()):
        obj = frozen(obj)
        rows = frozen(rows)
        rhs = frozen(rhs)
        n = obj.shape[0]
        if rows.ndim != 2 or rows.shape[1] != n:
            if rows.size == 0:
                rows = rows.reshape(0, n)
            else:
                raise LpModelError(
                    f"row matrix shape {rows.shape} does not match {n} columns")
        if rhs.shape[0] != rows.shape[0]:
            raise LpModelError("rhs length does not match row count")
        if not (np.all(np.isfinite(obj)) and np.all(np.isfinite(rows))
                and np.all(np.isfinite(rhs))):
            raise LpModelError("coefficients must be finite")
        lower, upper, empty_box = _checked_bounds(lower, upper, n)
        object.__setattr__(self, "obj", obj)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "empty_box", empty_box)
        # (row index, surplus column) pairs of appended straddle rows
        object.__setattr__(self, "straddle_rows", tuple(straddle_rows))
        object.__setattr__(self, "_matrices", None)
        object.__setattr__(self, "_content", None)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_moved", None)

    def __setattr__(self, *a):
        raise AttributeError("LpModel is immutable")

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_cols(self) -> int:
        return self.obj.shape[0]

    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only full matrix [A | -I] and cost [c | 0], built once."""
        if self._matrices is None:
            m = self.n_rows
            full = np.hstack([self.rows, -np.eye(m)]) if m else \
                np.zeros((0, self.n_cols))
            cost = np.concatenate([self.obj, np.zeros(m)])
            full.setflags(write=False)
            cost.setflags(write=False)
            object.__setattr__(self, "_matrices", (full, cost))
        return self._matrices

    def content_key(self) -> tuple:
        """Everything but the bounds, by value, built once: the row
        matrix's shape and the bytes of `rows`, `obj` and `rhs`, and
        `straddle_rows`."""
        if self._content is None:
            object.__setattr__(self, "_content", (
                self.rows.shape, self.rows.tobytes(), self.obj.tobytes(),
                self.rhs.tobytes(), self.straddle_rows))
        return self._content

    def _derive(self, **fields) -> "LpModel":
        """This model with the given, already checked, fields replaced."""
        model = object.__new__(LpModel)
        for name in LpModel.__slots__:
            object.__setattr__(model, name, fields[name] if name in fields
                               else getattr(self, name))
        return model

    def with_bounds(self, j: int, lower: float | None = None,
                    upper: float | None = None) -> "LpModel":
        lo = self.lower.copy()
        up = self.upper.copy()
        if lower is not None:
            lo[j] = lower
        if upper is not None:
            up[j] = upper
        if not (lo[j] < INF and up[j] > -INF):
            raise LpModelError(_BAD_BOUND)
        lo.setflags(write=False)
        up.setflags(write=False)
        # only column j can have emptied its box, unless one already was
        empty_box = bool(lo[j] > up[j] + FEAS_TOL) or \
            (self.empty_box and _has_empty_box(lo, up))
        return self._derive(lower=lo, upper=up, empty_box=empty_box,
                            _matrices=self.matrices(),
                            _content=self.content_key(), _key=None,
                            _moved=(self.lower, self.upper, j))

    def with_row(self, coeffs, rhs_value: float,
                 straddle: bool = False) -> "LpModel":
        """Append one >= row; its surplus column index is n_cols + n_rows.

        Only the new row and right-hand side are checked: the rest is
        this model's, checked already."""
        row = np.asarray(coeffs, dtype=float)
        rhs_value = float(rhs_value)
        if row.shape != (self.n_cols,):
            raise LpModelError(
                f"row of shape {row.shape} does not match {self.n_cols} "
                "columns")
        if not (np.isfinite(row).all() and math.isfinite(rhs_value)):
            raise LpModelError("coefficients must be finite")
        rows = np.vstack([self.rows, row])
        rhs = np.append(self.rhs, rhs_value)
        rows.setflags(write=False)
        rhs.setflags(write=False)
        marks = self.straddle_rows
        if straddle:
            marks = marks + ((self.n_rows, self.n_cols + self.n_rows),)
        return self._derive(rows=rows, rhs=rhs, straddle_rows=marks,
                            _matrices=None, _content=None, _key=None,
                            _moved=None)

    def without_rows(self, drop: set[int]) -> "LpModel":
        keep = [i for i in range(self.n_rows) if i not in drop]
        remap = {old: new for new, old in enumerate(keep)}
        marks = tuple((remap[r], self.n_cols + remap[r])
                      for r, _ in self.straddle_rows if r in remap)
        return LpModel(self.obj, self.rows[keep], self.rhs[keep],
                       self.lower, self.upper, marks)


class _Workspace:
    """Mutable dual simplex state for one model.

    Full column space: structural columns then one surplus per row.
    `binv` is read-only while it is a fresh inverse, which a probe
    workspace's children may share; each pivot writes its eta step into a
    new array.  A child shares the probe workspace's read-only `_vN`
    too, which its first pivot copies.  `rc` is None after a pivot until
    `reduced_costs` recomputes it.
    """

    def __init__(self, model: LpModel):
        self._bind(model)
        self.basic: list[int] = []
        self.in_basis = np.zeros(self.ncols, dtype=bool)
        self.at_upper = np.zeros(self.ncols, dtype=bool)

    def _bind(self, model: LpModel, bounds=None):
        """Everything but the basis: the model, its matrices and full
        bounds, as lists (`_lo`, `_up`) for the loops that read one entry
        at a time and as arrays (`lo`, `up`), given as `bounds` in that
        order or built from the model, and an empty run."""
        self.model = model
        n, m = model.n_cols, model.n_rows
        self.n = n
        self.m = m
        self.ncols = n + m
        self.full, self.cost = model.matrices()
        if bounds is None:
            lo = model.lower.tolist() + [0.0] * m
            up = model.upper.tolist() + [INF] * m
            bounds = lo, up, np.array(lo), np.array(up)
        self._lo, self._up, self.lo, self.up = bounds
        self.artificial: set[int] = set()
        self._objective: float | None = None

    # -- basis management ------------------------------------------------

    def load_cold(self):
        """All-surplus basis; structural columns parked where dual feasible.

        Columns whose required side has no finite bound get a BIG_BOUND
        stand-in; if the optimum ends up resting on one, solve() raises.
        The values follow from _restore_dual_feasibility().
        """
        self.basic = list(range(self.n, self.ncols))
        self.in_basis[:] = False
        self.in_basis[self.n:] = True
        self.at_upper[:] = False
        lo, up = self._lo, self._up
        for j, cost in enumerate(self.model.obj.tolist()):
            if cost < 0:
                if math.isinf(up[j]):
                    self.up[j] = up[j] = BIG_BOUND
                    self.artificial.add(j)
                self.at_upper[j] = True
            elif math.isinf(lo[j]):
                if cost == 0 and not math.isinf(up[j]):
                    self.at_upper[j] = True
                else:
                    self.lo[j] = lo[j] = -BIG_BOUND
                    self.artificial.add(j)
        self._factorize()

    def load_basis(self, basis: Basis) -> bool:
        if len(basis.basic) != self.m:
            return False
        cols = set(basis.basic)
        if len(cols) != self.m or cols and (min(cols) < 0
                                            or max(cols) >= self.ncols):
            return False
        self.basic = list(basis.basic)
        self.in_basis[:] = False
        for c in self.basic:
            self.in_basis[c] = True
        self.at_upper[:] = False
        for c in basis.at_upper:
            if c < self.ncols and not self.in_basis[c]:
                self.at_upper[c] = True
        try:
            self._factorize()
        except LpNumericError:
            return False
        return self._restore_dual_feasibility()

    def start_child(self, model: LpModel) -> _Workspace | None:
        """The first iterate of a run of `model` from this loaded probe
        workspace's basis, or None unless `model` is a `with_bounds` child
        of this workspace's model whose moved column is basic here.

        A basic column's bounds enter neither the nonbasic values nor the
        dual-feasibility flips, so B^-1, the reduced costs and the basic
        values are this workspace's, as a load would compute them.  The
        child shares the read-only B^-1, reduced costs and nonbasic
        values; its pivots write B^-1 into new arrays, and the first copies
        the nonbasic values before writing.  Its bounds are copies of this
        workspace's, with the moved column's replaced: a probe workspace
        is loaded from a basis, so it has no stand-in bounds.
        """
        own = self.model
        record = model._moved
        if (record is None or record[0] is not own.lower
                or record[1] is not own.upper or model.rows is not own.rows
                or model.obj is not own.obj or model.rhs is not own.rhs
                or not self.in_basis[record[2]]):
            return None
        j = record[2]
        ws = object.__new__(type(self))
        ws._bind(model, (self._lo[:], self._up[:], self.lo.copy(),
                         self.up.copy()))
        ws._lo[j] = ws.lo[j] = model.lower.item(j)
        ws._up[j] = ws.up[j] = model.upper.item(j)
        ws.basic = list(self.basic)
        ws.in_basis = self.in_basis.copy()
        ws.at_upper = self.at_upper.copy()
        ws.binv, ws.rc = self.binv, self.rc
        ws.beta = self.beta.copy()
        ws._vN = self._vN
        ws._objective = self.objective()
        ws._values = self._values
        return ws

    def _factorize(self):
        """Fresh B^-1 and raw reduced costs of the current basic set."""
        if self.m == 0:
            binv = np.zeros((0, 0))
        else:
            # the gufunc `np.linalg.inv` calls, under the floating-point
            # error state it sets, without its checks and conversions of
            # the argument: one contiguous float64 square matrix
            try:
                with np.errstate(all="ignore", invalid="raise"):
                    binv = np.linalg._umath_linalg.inv(
                        self.full.take(self.basic, axis=1), signature="d->d")
            except FloatingPointError:
                raise LpNumericError("singular basis")
        binv.setflags(write=False)
        self.binv = binv
        self._recompute_rc()

    def refactorize(self):
        self._factorize()
        self._recompute_values()

    def _recompute_values(self):
        vN = np.where(self.at_upper, self.up, self.lo)
        vN.put(self.basic, 0.0)
        # `ndarray.dot` for `@` from two rows on (module docstring)
        if self.m > 1:
            self.beta = self.binv.dot(self.model.rhs - self.full.dot(vN))
        elif self.m:
            self.beta = self.binv @ (self.model.rhs - self.full @ vN)
        else:
            self.beta = np.zeros(0)
        self._vN = vN
        self._objective = None

    def _recompute_rc(self):
        if self.m > 1:
            y = self.cost.take(self.basic).dot(self.binv)
            rc = self.cost - y.dot(self.full)
        elif self.m:
            y = self.cost.take(self.basic) @ self.binv
            rc = self.cost - y @ self.full
        else:
            rc = self.cost.copy()
        rc.put(self.basic, 0.0)
        rc.setflags(write=False)
        self.rc = rc

    def reduced_costs(self) -> np.ndarray:
        """Raw reduced costs of the current iterate, read-only; a pivot
        leaves them to be recomputed here, from the same B^-1."""
        if self.rc is None:
            self._recompute_rc()
        return self.rc

    def _restore_dual_feasibility(self) -> bool:
        """Flip nonbasic columns whose reduced-cost sign is wrong, then
        compute the values of the freshly loaded basis.

        A flip is only possible onto a finite opposite bound; returns False
        when a wrong-signed column has no finite bound to move to.  The
        flips read only the reduced costs, so values are computed once.
        """
        for j, (basic, upper, rc, lo, up) in enumerate(zip(
                self.in_basis.tolist(), self.at_upper.tolist(),
                self.rc.tolist(), self._lo, self._up)):
            if basic:
                continue
            if not upper and rc < -DUAL_TOL:
                if math.isinf(up):
                    return False
                self.at_upper[j] = True
            elif upper and rc > DUAL_TOL:
                if math.isinf(-lo):
                    return False
                self.at_upper[j] = False
        self._recompute_values()
        return True

    # -- queries ----------------------------------------------------------

    def values(self) -> np.ndarray:
        v = self._vN.copy()
        v.put(self.basic, self.beta)
        return v

    def objective(self) -> float:
        """Objective of the current iterate, computed once per iterate
        with its values, kept as `_values` for `solve` to read."""
        if self._objective is None:
            obj, v = self.model.obj, self.values()
            self._values = v
            v = v[:self.n]
            self._objective = float(obj.dot(v) if self.n > 1 else obj @ v)
        return self._objective

    def infeasibility(self, v: np.ndarray) -> float:
        """Sum of the bound violations of `v`, this iterate's `values()`.

        An infinite violation below counts 0; it needs a value at -inf, so
        the mask is built only when the sum says one is there."""
        below = np.maximum(self.lo - v, 0.0)
        total = below.sum()
        if math.isinf(total):
            below[np.isinf(below)] = 0.0
            total = below.sum()
        return float(total + np.maximum(v - self.up, 0.0).sum())

    def max_violation(self) -> tuple[float, int]:
        """Largest bound violation among basic columns; ties to lowest column."""
        best_viol = 0.0
        best_pos = -1
        basic, lo, up = self.basic, self._lo, self._up
        for pos, (c, val) in enumerate(zip(basic, self.beta.tolist())):
            viol = max(lo[c] - val, val - up[c])
            if viol > best_viol or (best_pos >= 0 and viol == best_viol
                                    and c < basic[best_pos]):
                best_viol = viol
                best_pos = pos
        return best_viol, best_pos

    def tableau_row(self, pos: int) -> np.ndarray:
        """Row of B^-1 A for basis position pos, over all columns (raw signs)."""
        row = self.binv[pos]
        return row.dot(self.full) if self.m > 1 else row @ self.full

    def translated_rc(self) -> np.ndarray:
        """The reduced costs with the sign of each nonbasic column at its
        upper bound flipped; a basic column's is 0 already
        (`_recompute_rc`)."""
        rc = self.reduced_costs()
        return np.where(self.at_upper > self.in_basis, rc * -1.0, rc)

    # -- pivoting ----------------------------------------------------------

    def entering_column(self, pos: int) -> tuple[int, np.ndarray] | None:
        """Dual ratio test for the leaving variable at basis position pos.

        Returns (entering column, tableau row) or None when the ratio test
        is empty (dual unbounded, hence the LP is primal infeasible).
        """
        below = self.beta.item(pos) < self._lo[self.basic[pos]]
        alpha = self.tableau_row(pos)
        best_ratio = INF
        best_col = -1
        # translating a column to 0 only flips the signs of its reduced
        # cost and coefficient, so the ratio is |raw rc / raw a|
        for j, (a, rc, basic, upper) in enumerate(zip(
                alpha.tolist(), self.reduced_costs().tolist(),
                self.in_basis.tolist(), self.at_upper.tolist())):
            if basic or abs(a) <= PIVOT_TOL:
                continue
            t = -a if upper else a
            if not (t < 0 if below else t > 0):
                continue
            ratio = abs(rc / a)
            if ratio < best_ratio - 1e-12:
                best_ratio, best_col = ratio, j
        if best_col < 0:
            return None
        return best_col, alpha

    def pivot(self, pos: int, enter: int, alpha: np.ndarray) -> float:
        """Swap basic position pos for column enter; returns objective delta."""
        leave = self.basic[pos]
        lo, up = self._lo, self._up
        value = self.beta.item(pos)
        below = value < lo[leave]
        target = lo[leave] if below else up[leave]
        step = (value - target) / alpha.item(enter)
        before = self.objective()
        col = self.full[:, enter]
        w = self.binv.dot(col) if self.m > 1 else self.binv @ col
        # basic values move against the entering column's direction
        self.beta -= w * step
        enter_val = (up[enter] if self.at_upper[enter] else lo[enter]) + step
        # basis exchange
        self.basic[pos] = enter
        self.in_basis[leave] = False
        self.in_basis[enter] = True
        self.at_upper[leave] = not below
        self.at_upper[enter] = False
        if not self._vN.flags.writeable:
            # a probe workspace's, shared by a run it started
            # (`start_child`)
            self._vN = self._vN.copy()
        # eta update of the explicit inverse, as one rank-1 step into a
        # new array: row i loses w[i] times the new pivot row
        row = self.binv[pos] / w[pos]
        self.binv = self.binv - np.multiply.outer(w, row)
        self.binv[pos] = row
        self.beta[pos] = enter_val
        # the leaving column rests on the bound it left for
        self._vN[leave] = target
        self._vN[enter] = 0.0
        self._objective = None
        self.rc = None
        return self.objective() - before

    def snapshot_basis(self) -> Basis:
        """The current basis."""
        ups = (self.at_upper > self.in_basis).nonzero()[0].tolist()
        return Basis(tuple(map(int, self.basic)), frozenset(ups))


def _stop(budget: PivotBudget, objective: float, viol: float, pivots: int,
          stalled: int) -> LpStatus | None:
    """The status a run ends with at this iterate, or None to pivot on."""
    # the cutoff is inclusive: an iterate exactly on it can still lead
    # to an acceptable solution, so only strictly worse ones die
    if objective > budget.cutoff + CUTOFF_SLACK:
        return LpStatus.CUTOFF_INFEASIBLE
    if viol <= FEAS_TOL:
        return LpStatus.OPTIMAL
    if budget.v_lim is not None and viol < budget.v_lim:
        return LpStatus.PIVOT_LIMIT_HIT
    if pivots >= budget.max_pivots or stalled >= budget.max_degenerate:
        return LpStatus.PIVOT_LIMIT_HIT
    return None


def _run_dual_simplex(ws: _Workspace, budget: PivotBudget) \
        -> tuple[LpStatus, list[tuple[float, float, int]]]:
    """Pivot until `_stop` or an empty ratio test ends the run.

    Returns the status and the path: (objective, largest violation, stall
    count) at each iterate, so the pivot count is len(path) - 1.
    """
    path = []
    stalled = 0
    while True:
        viol, pos = ws.max_violation()
        objective = ws.objective()
        path.append((objective, viol, stalled))
        status = _stop(budget, objective, viol, len(path) - 1, stalled)
        if status is not None:
            return status, path
        found = ws.entering_column(pos)
        if found is None:
            return LpStatus.INFEASIBLE, path
        enter, alpha = found
        delta = ws.pivot(pos, enter, alpha)
        stalled = stalled + 1 if delta <= 1e-12 else 0
        if len(path) % REFACTOR_EVERY == 0:
            ws.refactorize()


def _first_stop(path: list[tuple[float, float, int]],
                budget: PivotBudget) -> tuple[int, LpStatus] | None:
    """The first iterate of a recorded path at which `budget` ends a run,
    with the status it ends with there, or None when it ends at none."""
    for pivots, (objective, viol, stalled) in enumerate(path):
        stop = _stop(budget, objective, viol, pivots, stalled)
        if stop is not None:
            return pivots, stop
    return None


def memo_key(model: LpModel) -> tuple:
    """The model's content, all by value, built once per model: its
    `content_key`, shared by the models a bound change derives from it,
    and the bytes of its bounds.  Models built apart with equal content
    have equal keys."""
    if model._key is None:
        object.__setattr__(model, "_key", (
            model.content_key(), model.lower.tobytes(),
            model.upper.tobytes()))
    return model._key


def solve(model: LpModel, warm_basis: Basis | None = None,
          budget: PivotBudget | None = None,
          cold_memo: dict | None = None) -> LpSolution:
    """Dual simplex solve; warm basis must be dual-feasible or flippable.

    A warm solve may be answered from the basis's memo (module
    docstring); a cold solve may be so answered from `cold_memo`, when
    given, a dict of the same kind kept by the caller (a search keeps
    one for its cold runs).  Both are keyed by the model's content,
    `memo_key`.  A memo answer is shared with earlier callers, which is
    why a solution's arrays are read-only.
    A model with an empty column box is INFEASIBLE without a pivot.
    """
    if model.empty_box:
        return _infeasible_box(model)
    budget = budget or PivotBudget()
    memo = cold_memo
    if warm_basis is not None:
        if warm_basis.memo is None:
            warm_basis._remember("memo", {})
        memo = warm_basis.memo
    if memo is not None:
        key = memo_key(model)
        for path, sol in memo.get(key, ()):
            stop = _first_stop(path, budget)
            if stop == (len(path) - 1, sol.status):
                return sol
            if stop == (len(path) - 1, LpStatus.CUTOFF_INFEASIBLE):
                return _cutoff_answer(sol, path)
            # no stop test ended an infeasible run: its ratio test came
            # up empty, as it would under this budget
            if stop is None and sol.status is LpStatus.INFEASIBLE:
                return sol
    ws = _first_iterate(model, warm_basis)
    status, path = _run_dual_simplex(ws, budget)
    # the run read the objective, so the values, at its last iterate
    values = ws._values
    values.setflags(write=False)
    if status is LpStatus.OPTIMAL and ws.artificial:
        _check_stand_ins(ws, values)
    x_o = INF if status is LpStatus.INFEASIBLE else ws.objective()
    fields = {"status": status, "x_o": x_o, "x": values[:model.n_cols],
              "pivots": len(path) - 1, "basis": ws.snapshot_basis()}
    if status is LpStatus.OPTIMAL:
        fields["infeas"] = 0.0
    sol = object.__new__(LpSolution)
    sol.__dict__.update(fields, _final=(ws, values))
    if memo is not None:
        memo.setdefault(key, []).append((path, sol))
    return sol


def _cutoff_answer(sol: LpSolution, path) -> LpSolution:
    """What a run would return that follows the stored run of `sol` and
    `path` and is cut off at its last iterate: that iterate's values,
    basis and objective.  `reduced` and `infeas` derive from the stored
    run's final iterate."""
    answer = object.__new__(LpSolution)
    answer.__dict__.update(status=LpStatus.CUTOFF_INFEASIBLE,
                           x_o=path[-1][0], x=sol.x, pivots=sol.pivots,
                           basis=sol.basis, _final=sol.__dict__["_final"])
    return answer


def _first_iterate(model: LpModel, warm_basis: Basis | None) -> _Workspace:
    """A workspace at the first iterate of a run of `model` from
    `warm_basis`: the warm basis's probe workspace's own iterate when it
    is `model`'s (`_Workspace.start_child`), else a load of the warm
    basis, else a cold start."""
    kept = None if warm_basis is None else warm_basis.probe_state
    if kept is not None:
        ws = kept.start_child(model)
        if ws is not None:
            return ws
    ws = _Workspace(model)
    if warm_basis is None or not ws.load_basis(warm_basis):
        ws.load_cold()
        if not ws._restore_dual_feasibility():
            raise LpNumericError("could not construct a dual-feasible start")
    return ws


def _check_stand_ins(ws: _Workspace, values: np.ndarray) -> None:
    """Raise when an optimum rests on a BIG_BOUND stand-in bound:
    `LpUnboundedError` when such a column's reduced cost is nonzero, so
    the objective falls without limit along it, `LpNumericError` when it
    is zero (a dual-degenerate optimum this engine does not resolve)."""
    resting = [j for j in ws.artificial if abs(values[j]) >= BIG_BOUND * 0.5]
    if resting:
        rc = ws.reduced_costs()
        if any(abs(rc[j]) > DUAL_TOL for j in resting):
            raise LpUnboundedError("the LP is unbounded below")
        raise LpNumericError(
            "optimum rests on an artificial bound with a zero reduced cost")


def _reduced(ws: _Workspace) -> np.ndarray:
    """The structural translated reduced costs of the workspace's
    iterate, read-only: an `LpSolution`'s `reduced`."""
    rc = ws.translated_rc()[:ws.n]
    rc.setflags(write=False)
    return rc


def _infeasible_box(model: LpModel) -> LpSolution:
    """The answer for a model with an empty column box, at the cold basis."""
    n, m = model.n_cols, model.n_rows
    zeros = np.zeros(n)
    zeros.setflags(write=False)
    infeas = float(np.maximum(model.lower - model.upper, 0.0).sum())
    return LpSolution(status=LpStatus.INFEASIBLE, x_o=INF, x=zeros,
                      reduced=zeros, infeas=infeas, pivots=0,
                      basis=Basis(tuple(range(n, n + m))))


def fractional_parts(value: float) -> tuple[float, float]:
    """(f_plus, f_minus) = (ceil(v) - v, v - floor(v))."""
    fm = value - math.floor(value)
    return 1.0 - fm if fm > 0 else 0.0, fm


def is_fractional(value: float, tol: float = INT_TOL) -> bool:
    return abs(value - round(value)) > tol


def _probe_workspace(model: LpModel, basis: Basis,
                     misfit: str) -> _Workspace:
    """`model` loaded at `basis`, shared by every probe and tableau row at
    that pair and kept with the basis; a model with the same `memo_key`
    finds it too.  Its arrays are read-only.  It also holds `probe_cols`,
    (column, translated reduced cost, at upper bound) for every nonbasic
    column, the operands of `_min_ratios`, and `probe_single_pivot`'s
    answers by (j, direction) as `answers`."""
    ws = basis.probe_state
    key = memo_key(model)
    if ws is not None and ws.key == key:
        return ws
    ws = _Workspace(model)
    if not ws.load_basis(basis):
        raise LpProbeError(misfit)
    ws.key = key
    ws.basic = tuple(ws.basic)
    # translated as `translated_rc` translates them
    ws.probe_cols = [
        (col, -rc if upper else rc, upper)
        for col, (rc, upper, basic) in enumerate(zip(
            ws.rc.tolist(), ws.at_upper.tolist(), ws.in_basis.tolist()))
        if not basic]
    ws.answers = {}
    for a in (ws.lo, ws.up, ws.in_basis, ws.at_upper, ws.beta, ws._vN):
        a.setflags(write=False)
    basis._remember("probe_state", ws)
    return ws


def probe_single_pivot(model: LpModel, sol: LpSolution, j: int,
                       direction: str) -> float:
    """Objective-increase estimate for one dual pivot of a branch on x_j.

    Eligible ratios pair the (nonnegative, translated) reduced costs with
    the variable's translated tableau-row coefficient (`_min_ratios`): an
    up branch admits negative ones, a down branch positive ones.  The
    smallest ratio magnitude times the relevant fractional part is the
    first-pivot objective change.  Returns +inf when no ratio is eligible
    (that branch is LP infeasible).  The first call for x_j prices both
    directions in one pass over its tableau row, and both answers are
    kept with the probe workspace; a call that raises keeps nothing.
    """
    if direction not in ("up", "down"):
        raise LpProbeError(f"bad direction {direction!r}")
    ws = _probe_workspace(model, sol.basis,
                          "solution basis does not fit the model")
    answer = ws.answers.get((j, direction))
    if answer is not None:
        return answer
    if j not in ws.basic:
        raise LpProbeError(f"x_{j} is nonbasic; probe needs a basic variable")
    pos = ws.basic.index(j)
    value = ws.beta[pos]
    if not is_fractional(value):
        raise LpProbeError(f"x_{j} = {value} is not fractional")
    # an up branch leaves x_j below its new lower bound
    for d, best, frac in zip(("up", "down"),
                             _min_ratios(ws, ws.tableau_row(pos).tolist()),
                             fractional_parts(value)):
        ws.answers[j, d] = best * frac if math.isfinite(best) else INF
    return ws.answers[j, direction]


def _min_ratios(ws: _Workspace, row) -> tuple[float, float]:
    """First dual ratio tests of a basic variable leaving at a probe
    workspace, below its bound and above it, whose tableau row over all
    columns is `row` (raw signs, as `tableau_row` gives them).

    Translated so that every nonbasic column sits at 0, a variable below
    its bound admits the columns with a negative coefficient, one above
    its bound those with a positive one.  Each is the smallest
    |rc / coefficient| among the admitted columns, over the translated
    reduced costs, or +inf when none is admitted.
    """
    below = above = INF
    for col, rc, upper in ws.probe_cols:
        a = row[col]
        # NaN passes no comparison, so it is skipped here as by both tests
        if not abs(a) > PIVOT_TOL:
            continue
        if upper:
            a = -a
        ratio = abs(rc / a)
        if a < 0:
            if ratio < below:
                below = ratio
        elif ratio < above:
            above = ratio
    return below, above


def first_pivot_ratios(model: LpModel, basis: Basis,
                       row) -> tuple[float, float]:
    """`_min_ratios` of a row over the columns of `model` at `basis`.

    Times the row variable's distance to its bound, each is the objective
    change of the first dual pivot the row would make, its variable below
    or above that bound, if it were added to `model` with its variable
    basic; no such model is built and nothing pivots
    (`straddle.straddle_pivot_estimate`).
    """
    return _min_ratios(_probe_workspace(model, basis,
                                        "basis does not fit the model"), row)


def apply_branch(model: LpModel, sol: LpSolution, j: int,
                 direction: str) -> tuple[LpModel, Basis]:
    """Child model for an up/down branch on x_j plus the parent warm basis.

    The child is kept on sol's basis (`Basis.kept`), keyed on the model's
    `memo_key`, j, the direction and x_j's value: a repeat call, with
    this model or an equal one, returns the same child object.  It is
    looked up first: a child is kept only once its value passed the
    checks below.
    """
    value = sol.x.item(j)
    key = (memo_key(model), j, direction, value)
    children = sol.basis.children
    child = None if children is None else children.get(key)
    if child is not None:
        return child, sol.basis
    if not is_fractional(value):
        raise LpProbeError(f"x_{j} = {value} is not fractional")
    if direction == "up":
        bounds = {"lower": math.ceil(value)}
    elif direction == "down":
        bounds = {"upper": math.floor(value)}
    else:
        raise LpProbeError(f"bad direction {direction!r}")
    child = sol.basis.kept(key, lambda: model.with_bounds(j, **bounds))
    return child, sol.basis


def apply_reversal_update(model: LpModel, sol: LpSolution, j: int,
                          antecedent: float) -> tuple[LpModel, Basis]:
    """Reverse the branch that left x_j nonbasic at one of its bounds.

    Nonbasic at lower bound L: the branch bound is dropped (the antecedent
    lower bound is reinstated) and the upper bound becomes L - 1; nonbasic
    at upper bound U symmetrically becomes lower bound U + 1.  The returned
    warm basis keeps the parent basic set with x_j parked at its new near
    bound, which shifts the constant column by the variable's updated
    column; solve() flips the side again if dual feasibility demands it.
    """
    if j in sol.basis.basic:
        raise LpProbeError(f"x_{j} is basic; reversals need a nonbasic column")
    if j in sol.basis.at_upper:
        bound = model.upper[j]
        child = model.with_bounds(j, lower=bound + 1, upper=antecedent)
        at_upper = sol.basis.at_upper - {j}
    else:
        bound = model.lower[j]
        child = model.with_bounds(j, lower=antecedent, upper=bound - 1)
        at_upper = sol.basis.at_upper | {j}
    return child, Basis(sol.basis.basic, frozenset(at_upper))


def tableau_row_for(model: LpModel, basis: Basis, j: int):
    """Raw tableau row of basic variable x_j at the given basis.

    Returns (alpha over all columns, at_upper mask over all columns,
    current value of x_j, number of structural columns).  Used by the
    straddle construction and by tests.
    """
    ws = _probe_workspace(model, basis, "basis does not fit the model")
    if j not in ws.basic:
        raise LpProbeError(f"x_{j} is not basic")
    pos = ws.basic.index(j)
    mask = ws.at_upper & ~ws.in_basis
    return ws.tableau_row(pos), mask, float(ws.beta[pos]), ws.n
