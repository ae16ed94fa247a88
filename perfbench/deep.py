"""The "deep" instance family: pure-integer problems that really branch.

Two shapes alternate by slot index, both packing problems written in
branchlab's form (minimize c.x subject to A x >= b, boxed integer x):

- ``gint``: general-integer knapsack, every x_j in [0, u_j] with u_j in 2..4;
- ``mkp``: multi-row 0/1 knapsack.

Weights are integers in 5..30, profits are weakly correlated with the mean
weight of their column, and each capacity is half of the row's weight at
the upper bounds, so x = 0 is always feasible and every column is boxed.

Rejection rule (fixed before anything is timed): a draw is redrawn only if
its LP relaxation is infeasible or unbounded, or its root LP optimum is
already integral.  The first two cannot happen for these shapes; the
third is checked with branchlab's own LP.  No draw is ever dropped for
how long it takes to solve.

The family itself is drawn from the fixed FAMILY_SEED; the benchmark's
seed argument reorders each instance's rows (`reorder_rows`).  Two other uses
of the seed were measured and dropped.  Redrawing the family per seed made
a pass's cost depend on which instances came out: over ten seeds the
interquartile range of pass time was about 30% of its median with ten
instances.  Shuffling the columns as well changes the search's index
tie-breaks, and single solves then took up to twice as long on one seed
as on another with the same node count, which moved the per-solve median
and tail of a 16-solve workload by more than any usable bound.  A row
order only changes which of several equally violated rows leaves the
basis, so the seed varies the input and the pivot path while the amount
of work stays put.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from branchlab.lp import LpNumericError, LpStatus, solve
from branchlab.model import MipProblem, detect_fractional

FAMILY_SEED = 20151101


class Sizes(NamedTuple):
    """Inclusive ranges: columns of each shape, rows of both."""

    gint_n: tuple[int, int]
    mkp_n: tuple[int, int]
    rows: tuple[int, int]


# DEEP for the winnow strategies; SMALL for the look-ahead and straddle ones,
# whose solves take 0.1 to 2 s at DEEP sizes, so that a pass over several
# instances still repeats a few times within one run
DEEP = Sizes(gint_n=(6, 8), mkp_n=(9, 12), rows=(2, 4))
SMALL = Sizes(gint_n=(5, 6), mkp_n=(7, 9), rows=(2, 3))


def draw(rng: np.random.Generator, slot: int, sizes: Sizes) -> MipProblem:
    """One candidate for `slot`; the caller applies the rejection rule."""
    m = int(rng.integers(sizes.rows[0], sizes.rows[1] + 1))
    if slot % 2 == 0:
        kind = "gint"
        n = int(rng.integers(sizes.gint_n[0], sizes.gint_n[1] + 1))
        upper = rng.integers(2, 5, size=n).astype(float)
    else:
        kind = "mkp"
        n = int(rng.integers(sizes.mkp_n[0], sizes.mkp_n[1] + 1))
        upper = np.ones(n)
    weights = rng.integers(5, 31, size=(m, n)).astype(float)
    profit = np.round(weights.mean(axis=0)
                      + rng.integers(-4, 5, size=n)).clip(1.0)
    capacity = np.floor(0.5 * (weights @ upper))
    return MipProblem(name=f"{kind}{slot:02d}", obj=-profit, rows=-weights,
                      rhs=-capacity, lower=np.zeros(n), upper=upper,
                      integer_mask=np.ones(n, bool))


def accepted(problem: MipProblem) -> bool:
    """The rejection rule: root LP optimal and fractional."""
    try:
        sol = solve(problem.to_lp())
    except LpNumericError:
        return False                # unbounded relaxation
    return sol.status is LpStatus.OPTIMAL and \
        bool(detect_fractional(sol, problem))


def family(count: int, sizes: Sizes = DEEP) -> list[MipProblem]:
    """The first `count` accepted draws of the family."""
    rng = np.random.default_rng(FAMILY_SEED)
    problems = []
    while len(problems) < count:
        candidate = draw(rng, len(problems), sizes)
        if accepted(candidate):
            problems.append(candidate)
    return problems


def reorder_rows(problem: MipProblem, rng: np.random.Generator) -> MipProblem:
    """The same problem with its rows in a random order."""
    rows = rng.permutation(problem.n_rows)
    return MipProblem(name=problem.name, obj=problem.obj,
                      rows=problem.rows[rows], rhs=problem.rhs[rows],
                      lower=problem.lower, upper=problem.upper,
                      integer_mask=problem.integer_mask)


def generate(seed: int, count: int, sizes: Sizes = DEEP) -> list[MipProblem]:
    """The family's first `count` instances, rows reordered from `seed`."""
    rng = np.random.default_rng(seed)
    return [reorder_rows(p, rng) for p in family(count, sizes)]
