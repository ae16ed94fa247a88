"""Span tracer that wraps branchlab's layer entry points from outside.

Modules bind functions by name (``from branchlab.lp import solve``,
``from branchlab.winnow import run as winnow_run``), so wrapping the
defining module alone would miss most calls.  `Tracer.install` therefore
rebinds the wrapper under every name, in every loaded ``branchlab`` module,
that refers to the original function, and `Tracer.restore` puts every one
of those bindings back.

Each call records one span: layer name, start, end, parent span index, the
exception type it ended with (or None), and an optional note taken from its
arguments and result.  Spans close, and the exception propagates unchanged,
when a call raises (``BranchSignal`` is how the search unwinds).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time


def _lp_solve_note(args, kwargs, result):
    warm = kwargs.get("warm_basis", args[1] if len(args) > 1 else None)
    return (warm is not None, result.pivots, result.status.name)


def _first_len(args, kwargs, result):
    return len(result[0])


# (module, attribute or Class.method, note) -- the layer entry points.
# Small helpers called once per candidate (score, make_eval, is_fractional)
# are left unwrapped to keep the tracing overhead low.
FUNCTIONS = [
    ("lp", "solve", _lp_solve_note),
    ("lp", "probe_single_pivot", None),
    ("lp", "tableau_row_for", None),
    ("lp", "apply_branch", None),
    ("lp", "apply_reversal_update", None),
    ("lp", "LpModel.with_bounds", None),
    ("lp", "LpModel.with_row", None),
    ("lp", "LpModel.without_rows", None),
    ("winnow", "run", None),
    ("winnow", "stage1", _first_len),      # note: |F0|
    ("winnow", "stage2", _first_len),      # note: |F2|
    ("criteria", "solve_child", None),
    ("criteria", "evaluate_candidates", None),
    ("criteria", "select", None),
    ("criteria", "vote", None),
    ("lookahead", "build_tree", None),
    ("lookahead", "build_d2_tree", None),
    ("lookahead", "build_multi_trees", None),
    ("lookahead", "post_winnow", None),
    ("straddle", "build_straddle_rows", None),
    ("straddle", "make_straddle", None),
    ("straddle", "solve_straddle_child", None),
    ("straddle", "straddle_eval", None),
    ("straddle", "straddle_pivot_estimate", None),
    ("straddle", "drop_inactive_straddle_rows", None),
    ("costmem", "analytical_uc", None),
    ("driver", "solve_mip", None),
    ("mps", "parse_mps", None),
]

# every public method of these classes is a costmem span
COSTMEM_CLASSES = ("ExtendedTree", "PseudoCostTable", "DvalCalibrator",
                   "ReferenceSet")


def targets() -> list[tuple[str, str, object]]:
    """(module, attribute path, note) for every wrapped callable."""
    out = list(FUNCTIONS)
    costmem = importlib.import_module("branchlab.costmem")
    for cls_name in COSTMEM_CLASSES:
        for name, member in vars(getattr(costmem, cls_name)).items():
            if inspect.isfunction(member) and not name.startswith("_"):
                out.append(("costmem", f"{cls_name}.{name}", None))
    return out


class Tracer:
    """In-memory spans for every call of the wrapped entry points."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []      # -1 for a root span
        self.raised: list[type | None] = []
        self.notes: list[object] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _wrap(self, layer: str, fn, note):
        names, starts, ends = self.names, self.starts, self.ends
        parents, raised, notes, stack = (self.parents, self.raised,
                                         self.notes, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(layer)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            raised.append(None)
            notes.append(None)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                raised[i] = type(err)
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if note is not None:
                notes[i] = note(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        # import the whole package first: a module imported while wrappers
        # are bound would keep a wrapper after `restore`
        package = importlib.import_module("branchlab")
        loaded = [package] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(package.__path__, "branchlab.")]
        for mod_name, attr, note in targets():
            module = sys.modules[f"branchlab.{mod_name}"]
            layer = f"{mod_name}.{attr.split('.')[-1]}" \
                if mod_name != "costmem" else f"costmem.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = vars(owner)[meth]
                self._rebind(owner, meth, self._wrap(layer, original, note))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, original, note)
            for mod in loaded:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, name, wrapper)
        return self

    def _rebind(self, owner, name: str, wrapper) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis --------------------------------------------------------
    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[i]
        return own
