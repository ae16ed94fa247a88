"""Command line front end: `branchlab solve` and `branchlab bench`."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from branchlab.criteria import Criterion
from branchlab.driver import VOTE_PANEL, SolveConfig, solve_mip, trace_to_json
from branchlab.lookahead import (
    AttractConfig,
    D2Config,
    LookaheadConfig,
    PostWinnow,
)
from branchlab.model import FINE_EPS
from branchlab.mps import MpsParseError, parse_mps

# `solve` options a `bench --configs` entry may not use: the input and
# the output
_CLI_ONLY = ("instance", "trace")

# the config object each strategy option sets; every other option is a
# SolveConfig field.  An option's field has its name unless renamed here.
# The first option of an optional object's group switches it on: without
# it the object is None, and the group's other options are rejected.
_GROUPS = {
    "spec": ("criterion", "p", "lambda", "w1", "w2", "mu"),
    "winnow": ("n0", "n1", "n2", "k2", "vlim", "clist"),
    "lookahead": ("lookahead", "accept", "multi_tree", "straddle"),
    "postwin": ("postwin", "lim", "d0", "early_exit"),
    "attract": ("attract", "attract_half", "attract_restart"),
    "d2": ("d2",),
}
_OPTIONAL = {"lookahead": LookaheadConfig, "postwin": PostWinnow,
             "attract": AttractConfig, "d2": D2Config}
_RENAMED = {"lambda": "lam", "n2": "n2_root", "vlim": "vlim_mult",
            "lookahead": "depth", "multi_tree": "n_trees", "postwin": "mode",
            "attract": "threshold", "attract_half": "half_tree",
            "attract_restart": "restart", "d2": "v",
            "refset": "refset_theta", "reversals": "reversal_beta",
            "dval": "dval_approach"}
_OPTION = {field: option for option, field in _RENAMED.items()}


def solve_parser() -> argparse.ArgumentParser:
    """The `solve` options; none carries a default, so an option left out
    keeps the default of the config field it sets."""
    s = argparse.ArgumentParser(add_help=False,
                                argument_default=argparse.SUPPRESS)
    s.add_argument("instance", type=Path)
    s.add_argument("--criterion", choices=[c.value for c in Criterion])
    s.add_argument("--p", type=float, help="criterion exponent (C2/C5)")
    s.add_argument("--lambda", type=float, help="C3 threshold weight")
    s.add_argument("--w1", type=float)
    s.add_argument("--w2", type=float)
    s.add_argument("--mu", type=float,
                   help="C0 convex weight on the larger evaluation")
    s.add_argument("--lookahead", type=int, metavar="D",
                   help="look-ahead tree depth (0 = plain branching)")
    s.add_argument("--accept", choices=["first", "path"])
    s.add_argument("--multi-tree", type=int, metavar="N")
    s.add_argument("--straddle", action="store_true")
    s.add_argument("--postwin", choices=["2a", "2b", "2c"])
    s.add_argument("--lim", type=int)
    s.add_argument("--d0", type=int)
    s.add_argument("--early-exit", action="store_true")
    s.add_argument("--attract", type=float, metavar="T",
                   help="persistent-attractiveness override threshold")
    s.add_argument("--attract-half", action="store_true")
    s.add_argument("--attract-restart", action="store_true",
                   help="restart once, re-rooting on the most "
                        "persistently attractive branch")
    s.add_argument("--d2", type=float, metavar="V",
                   help="two-level mode with pair-budget ratio V")
    s.add_argument("--pseudo", choices=["off", "classic", "analytical"])
    s.add_argument("--refset", type=float, metavar="THETA",
                   help="reference-set gate, mixing min/max distance")
    s.add_argument("--reversals", type=float, metavar="BETA",
                   help="leaf reversals, mixing avg/max resistance")
    s.add_argument("--dval", type=int, choices=[1, 2],
                   help="Dval open-node selection (default: DFS)")
    s.add_argument("--n0", type=int)
    s.add_argument("--n1", type=int)
    s.add_argument("--n2", type=int, help="stage-2 survivors at the root")
    s.add_argument("--k2", type=int)
    s.add_argument("--clist", type=int, metavar="N",
                   help="fixed candidate list size chosen at the root")
    s.add_argument("--vlim", type=float, metavar="M",
                   help="early-stop multiplier m for stage-2 probes")
    s.add_argument("--max-nodes", type=int)
    s.add_argument("--max-time", type=float)
    s.add_argument("--eps", type=float,
                   help="incumbent cutoff step (default: 1 when every MIP "
                        f"point's objective is an integer, else {FINE_EPS:g})")
    s.add_argument("--trace", type=Path, metavar="OUT.JSON")
    return s


def option_keys() -> set[str]:
    """Names a strategy option may have: the `solve` parser's dests."""
    return {a.dest for a in solve_parser()._actions} - set(_CLI_ONLY)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchlab",
        description="Instrumented branch-and-bound MIP solver for "
                    "comparing look-ahead branching strategies.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[solve_parser()],
                   help="solve one MPS instance")

    b = sub.add_parser("bench", help="strategy matrix over a directory")
    b.add_argument("directory", type=Path)
    b.add_argument("--configs", type=Path,
                   help="JSON file of named option sets")
    b.add_argument("--out", type=Path, help="write the JSON report here")
    return parser


def _optional(group: str, parts: dict, nested=()):
    """The group's optional object, with the objects of the `nested`
    groups in it, or None when its switch is not given."""
    switch = _GROUPS[group][0]
    if _RENAMED.get(switch, switch) in parts[group]:
        return _OPTIONAL[group](**parts[group], **{
            inner: _optional(inner, parts) for inner in nested})
    given = sorted(_OPTION.get(field, field)
                   for g in (group, *nested) for field in parts[g])
    if given:
        raise ValueError(f"{', '.join(given)} "
                         f"need{'s' * (len(given) == 1)} {switch}")
    return None


def config_from_options(opt: dict) -> SolveConfig:
    """SolveConfig from a dict of CLI-style option values.

    Only the options given (and not None) are passed on, so every other
    field keeps its dataclass default.  The selection criterion also
    ranks the winnow; vote, with no score of its own, ranks it by its
    panel's first criterion.  `clist` is the CList's size.
    Look-ahead depth 0 is plain branching.
    """
    parts = {group: {} for group in (*_GROUPS, "solve")}
    group_of = {key: g for g, keys in _GROUPS.items() for key in keys}
    for key, value in opt.items():
        if value is not None and not (key == "lookahead" and value == 0):
            parts[group_of.get(key, "solve")][_RENAMED.get(key, key)] = value
    base = SolveConfig()
    if "criterion" in parts["spec"]:
        parts["spec"]["criterion"] = Criterion(parts["spec"]["criterion"])
    spec = replace(base.criterion, **parts["spec"])
    ranking = VOTE_PANEL[0] if spec.criterion is Criterion.VOTE else spec
    winnow = replace(base.winnow, spec=ranking, **parts["winnow"])
    lookahead = _optional("lookahead", parts, ("postwin", "attract"))
    d2 = _optional("d2", parts)
    if lookahead and d2:
        raise ValueError("d2 and lookahead exclude each other")
    return SolveConfig(criterion=spec, winnow=winnow,
                       lookahead=lookahead or d2, **parts["solve"])


def run_solve(args) -> int:
    options = vars(args)
    try:
        problem = parse_mps(options.pop("instance").read_text())
    except (MpsParseError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    del options["command"]
    trace = options.pop("trace", None)
    try:
        config = config_from_options(options)
        # opened before solving, so an unwritable path costs no solve
        trace_file = None if trace is None else trace.open("w")
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    result = solve_mip(problem, config)
    obj = "-" if result.x is None else f"{result.objective:.9g}"
    bound = "-" if not math.isfinite(result.bound) \
        else f"{result.bound:.9g}"
    print(f"status    {result.status}")
    print(f"objective {obj}")
    print(f"bound     {bound}")
    print(f"eps       {result.trace['eps']:g}")
    print(f"nodes     {result.counters.nodes}")
    print(f"lp solves {result.counters.lp_solves}")
    print(f"pivots    {result.counters.pivots}")
    print(f"probes    {result.counters.probes}")
    if result.x is not None:
        pairs = ", ".join(
            f"{name}={value:.6g}" for name, value in
            zip(problem.col_names, result.x))
        print(f"solution  {pairs}")
    if trace_file is not None:
        with trace_file:
            trace_file.write(trace_to_json(result.trace))
        print(f"trace     {trace}")
    return 0 if result.status in ("optimal", "feasible") else 1


def run_bench(args) -> int:
    from branchlab.bench import (
        load_matrix,
        report_to_json,
        run_benchmark,
    )

    try:
        matrix = load_matrix(args.configs) if args.configs else None
        # opened before the matrix runs, so an unwritable path costs none
        out = None if args.out is None else args.out.open("w")
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    report = run_benchmark(args.directory, matrix)
    if out is not None:
        with out:
            out.write(report_to_json(report))
        print(f"report written to {args.out}")
    if not report["rows"]:
        print("error: no instances found", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "solve":
        return run_solve(args)
    return run_bench(args)


if __name__ == "__main__":
    sys.exit(main())
