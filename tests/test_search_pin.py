"""The search result of every pinned (instance, strategy) solve, exactly.

The golden file `search_pin.json` holds, per bundled instance and strategy,
the status, the objective rounded to 9 digits, and the node, LP, pivot and
probe counters.  The strategies are the default `bench` matrix plus four
look-ahead configurations that no matrix strategy runs: estimator shortcuts
(classic and analytical), the cost-weighted criterion C7 ranking the
winnow and picking the branch, and two deduplicated trees.  The bundled
corpus never lets the look-ahead builder use an estimate, so four more
rows per instance widen stage 1 to n1 = 4 and run a search whose
estimator stands in for every even-indexed candidate.
The look-ahead builder then selects its branch among the LP-solved pairs
only, so every row ends optimal at the instance's one optimum (an
estimated candidate used to win the builder's selection on lab03 and
lab06, leaving the root with no children and closing it as infeasible).
A refactor that keeps the search keeps every row.

Regenerate the golden file (only when a change sets out to alter the
search) with

    PYTHONPATH=src python tests/test_search_pin.py --write
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

from branchlab.bench import default_matrix
from branchlab.criteria import Criterion, CriterionSpec
from branchlab.driver import _Search
from branchlab.instances import corpus_paths
from branchlab.mps import parse_mps

GOLDEN = Path(__file__).with_name("search_pin.json")
FIELDS = ("instance", "strategy", "status", "objective", "nodes",
          "lp_solves", "pivots", "probes")


class _HalfEstimated(_Search):
    """A search whose estimator answers for even-indexed candidates."""

    def estimator(self):
        return lambda j, f_plus, f_minus, node: \
            None if j % 2 else (f_plus, 2.0 * f_minus)


def pinned_matrix() -> dict:
    """{name: (config, search class)} for every pinned strategy."""
    matrix = default_matrix()
    base = matrix["la-d3-2a"]
    la = base.lookahead
    c7 = CriterionSpec(criterion=Criterion.C7, w1=1.0, w2=1.0)
    winnow_c7 = replace(base, criterion=c7,
                        winnow=replace(base.winnow, spec=c7))
    matrix.update({
        "la-d3-2a/pseudo-classic": replace(base, pseudo="classic"),
        "la-d3-2a/pseudo-analytical": replace(base, pseudo="analytical"),
        "la-d3-2a/winnow-c7": winnow_c7,
        "la-d3-2a/2-trees": replace(base, lookahead=replace(la, n_trees=2)),
    })
    pinned = {name: (config, _Search) for name, config in matrix.items()}
    for name in ("plain-c7", "la-d3-2a", "la-d3-2a/winnow-c7",
                 "la-straddle"):
        config = matrix[name]
        pinned[f"{name}/half-estimated"] = (
            replace(config, winnow=replace(config.winnow, n1=4)),
            _HalfEstimated)
    return pinned


def search_rows() -> list[list]:
    matrix = pinned_matrix()
    rows = []
    for path in corpus_paths():
        problem = parse_mps(path.read_text())
        for name, (config, search) in matrix.items():
            result = search(problem, config).run()
            c = result.counters
            objective = None if result.x is None \
                else round(float(result.objective), 9)
            rows.append([path.name, name, result.status, objective,
                         c.nodes, c.lp_solves, c.pivots, c.probes])
    return rows


def test_search_matches_the_golden_file():
    want = json.loads(GOLDEN.read_text())
    got = search_rows()
    for expected, actual in zip(want, got):
        if expected != actual:
            diff = {f: (e, a) for f, e, a in zip(FIELDS, expected, actual)
                    if e != a}
            raise AssertionError(
                f"first differing row {expected[0]} / {expected[1]}: "
                f"{diff} (golden, now)")
    assert len(got) == len(want), f"{len(got)} rows, golden has {len(want)}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    rows = search_rows()
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows)
                      + "\n]\n")
    print(f"wrote {len(rows)} rows to {GOLDEN}")
