"""Correctness of a run: HiGHS reference optima and the search fingerprint."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

REL_TOL = 1e-6


@dataclass(frozen=True)
class SolveRecord:
    """What one `solve_mip` call returned (error is set if it raised)."""

    instance: str
    strategy: str
    status: str
    objective: float | None
    nodes: int
    lp_solves: int
    pivots: int
    probes: int
    error: str | None = None

    def key(self) -> str:
        obj = "-" if self.objective is None else repr(round(self.objective, 9))
        return (f"{self.instance}|{self.strategy}|{self.status}|{obj}|"
                f"{self.nodes}|{self.lp_solves}|{self.pivots}|{self.probes}")


def fingerprint(records) -> str:
    """sha256 over every solve's (instance, strategy, status, objective,
    counters), in solve order."""
    digest = hashlib.sha256()
    for rec in records:
        digest.update(rec.key().encode())
        digest.update(b"\n")
    return digest.hexdigest()


def highs_optima(problems) -> dict[str, float | None]:
    """Optimal objective per instance from HiGHS (None: not certified)."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    out = {}
    for p in problems:
        constraints = []
        if p.n_rows:
            constraints.append(LinearConstraint(
                p.rows, lb=p.rhs, ub=np.full(p.n_rows, np.inf)))
        res = milp(p.obj, constraints=constraints,
                   integrality=p.integer_mask.astype(int),
                   bounds=Bounds(p.lower, p.upper),
                   options={"time_limit": 60.0})
        out[p.name] = float(res.fun) if res.status == 0 else None
    return out


def failures(records, optima) -> list[str]:
    """One line per record that raised, did not end optimal, or is off the
    reference optimum by more than REL_TOL * max(1, |z|)."""
    bad = []
    for rec in records:
        ref = optima.get(rec.instance)
        if rec.error is not None:
            bad.append(f"{rec.instance}/{rec.strategy}: raised {rec.error}")
        elif rec.status != "optimal":
            bad.append(f"{rec.instance}/{rec.strategy}: status {rec.status}")
        elif ref is None:
            bad.append(f"{rec.instance}/{rec.strategy}: no HiGHS optimum")
        elif not math.isclose(rec.objective, ref, rel_tol=0.0,
                              abs_tol=REL_TOL * max(1.0, abs(ref))):
            bad.append(f"{rec.instance}/{rec.strategy}: objective "
                       f"{rec.objective!r} != HiGHS {ref!r}")
    return bad
