"""Benchmark harness: a strategy matrix over a directory of MPS files.

Each (instance, strategy) cell records node/LP/pivot counters and the
incumbent timeline.  The JSON report contains only deterministic fields
so identical runs are byte-identical; wall-clock times appear in the
printed table only.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace
from pathlib import Path

from branchlab.costmem import uc_error_report
from branchlab.criteria import Criterion, CriterionSpec
from branchlab.driver import SolveConfig, solve_mip
from branchlab.lookahead import (
    AttractConfig,
    D2Config,
    LookaheadConfig,
    PostWinnow,
)
from branchlab.mps import MpsParseError, parse_mps
from branchlab.winnow import WinnowParams

REPORT_SCHEMA = 1


def default_matrix() -> dict[str, SolveConfig]:
    """The strategy configurations compared out of the box; the look-ahead
    entries winnow with k2 = 5 and rank and pick by C1."""
    base = SolveConfig(criterion=CriterionSpec(), winnow=WinnowParams(k2=5))
    la = LookaheadConfig(depth=3, postwin=PostWinnow("2a"))
    return {
        "plain-c1": SolveConfig(
            criterion=CriterionSpec(criterion=Criterion.C1_PRODUCT)),
        "plain-c2a": SolveConfig(),
        "plain-c3": SolveConfig(
            criterion=CriterionSpec(criterion=Criterion.C3_THRESHOLD,
                                    lam=0.75)),
        "plain-c5": SolveConfig(
            criterion=CriterionSpec(criterion=Criterion.C5, p=0.3)),
        "plain-c7": SolveConfig(
            criterion=CriterionSpec(criterion=Criterion.C7, w1=1.0,
                                    w2=1.0)),
        "vote": SolveConfig(
            criterion=CriterionSpec(criterion=Criterion.VOTE)),
        "la-d3-2a": replace(base, lookahead=la),
        "la-d3-2b": replace(base, lookahead=replace(
            la, postwin=PostWinnow("2b"))),
        "la-d2-mode": SolveConfig(criterion=CriterionSpec(),
                                  lookahead=D2Config()),
        "la-straddle": replace(base, lookahead=replace(la, straddle=True)),
        "la-attract": replace(base, lookahead=replace(
            la, attract=AttractConfig(threshold=3.0))),
        "la-reversals": replace(
            base, lookahead=replace(la, postwin=None), reversal_beta=0.5),
        "pseudo-classic": SolveConfig(pseudo="classic"),
        "pseudo-analytical": SolveConfig(pseudo="analytical"),
        "dval-select": SolveConfig(dval_approach=1),
        "refset": SolveConfig(refset_theta=0.5),
    }


def run_benchmark(instance_dir: Path,
                  matrix: dict[str, SolveConfig] | None = None,
                  log=print) -> dict:
    """Solve every instance under every strategy; returns the report."""
    matrix = matrix or default_matrix()
    paths = sorted(Path(instance_dir).glob("*.mps"))
    rows = []
    timings = {}
    for path in paths:
        try:
            problem = parse_mps(path.read_text())
        except (MpsParseError, OSError) as err:
            log(f"warning: skipping {path.name}: {err}")
            continue
        for name, config in matrix.items():
            start = time.monotonic()
            result = solve_mip(problem, config)
            elapsed = time.monotonic() - start
            timings[(path.name, name)] = elapsed
            incumbents = result.trace["incumbents"]
            first_optimal = None
            if incumbents and result.x is not None:
                final = incumbents[-1]["objective"]
                first_optimal = next(e["order"] for e in incumbents
                                     if e["objective"] == final)
            errors = uc_error_report(result.ext) if result.ext else {}
            rows.append({
                "instance": path.name,
                "strategy": name,
                "status": result.status,
                "objective": None if result.x is None
                else round(float(result.objective), 9),
                "bound": None if not math.isfinite(result.bound)
                else round(float(result.bound), 9),
                "nodes": result.counters.nodes,
                "lp_solves": result.counters.lp_solves,
                "pivots": result.counters.pivots,
                "probes": result.counters.probes,
                "nodes_to_first_optimal": first_optimal,
                "incumbents": incumbents,
                "analytical_uc_mae": _rounded(
                    errors.get("analytical_mae")),
                "classic_uc_mae": _rounded(errors.get("classic_mae")),
            })
    report = {
        "schema": REPORT_SCHEMA,
        "instances": [p.name for p in paths],
        "strategies": sorted(matrix),
        "rows": rows,
    }
    if rows:
        log(format_table(rows, timings))
    return report


def _rounded(value):
    return None if value is None else round(float(value), 9)


def format_table(rows, timings) -> str:
    header = (f"{'instance':<12} {'strategy':<18} {'status':<10} "
              f"{'objective':>12} {'nodes':>7} {'lps':>7} {'time s':>8}")
    lines = [header, "-" * len(header)]
    for row in rows:
        t = timings.get((row["instance"], row["strategy"]), 0.0)
        obj = "-" if row["objective"] is None else f"{row['objective']:.6g}"
        lines.append(
            f"{row['instance']:<12} {row['strategy']:<18} "
            f"{row['status']:<10} {obj:>12} {row['nodes']:>7} "
            f"{row['lp_solves']:>7} {t:>8.3f}")
    return "\n".join(lines)


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=1, sort_keys=False) + "\n"


def load_matrix(path: Path) -> dict[str, SolveConfig]:
    """Strategy matrix from a JSON file of named CLI-style option sets,
    `{"configs": {name: {option: value}}}`.

    Raises ValueError for a file of another shape, and naming the config
    for an option `solve` lacks or a value of a type or size its config
    rejects; OSError when the file cannot be read.
    """
    from branchlab.cli import config_from_options, option_keys

    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or not isinstance(data.get("configs"),
                                                    dict):
        raise ValueError(f"{path}: no \"configs\" object")
    known = option_keys()
    configs = {}
    for name, options in data["configs"].items():
        if not isinstance(options, dict):
            raise ValueError(f"config {name!r}: not an object of options")
        unknown = sorted(set(options) - known)
        if unknown:
            raise ValueError(f"config {name!r}: unknown option "
                             f"{unknown[0]!r}")
        try:
            configs[name] = config_from_options(options)
        except (ValueError, TypeError) as err:
            # a value of the wrong type, such as "n1": "x", fails a check
            # of its config with a TypeError
            raise ValueError(f"config {name!r}: {err}") from err
    return configs
