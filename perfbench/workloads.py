"""The benchmark's workloads: which problems, under which strategies.

Every workload takes its strategies from `branchlab.bench.default_matrix()`
unchanged, so the benchmark measures exactly what `branchlab bench` runs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    strategies: tuple[str, ...] | None   # None: the whole default matrix
    deep_count: int = 0                  # 0: the bundled corpus
    sizes: str = "DEEP"                  # which `deep` size class


WORKLOADS = {w.name: w for w in (
    Workload("corpus-matrix",
             "25 bundled instances x the 16-strategy default matrix: fixed "
             "per-call costs dominate, every strategy path runs; the "
             "ROADMAP anchor",
             None),
    Workload("deep-lookahead",
             "small deep family under la-d3-2a and la-d2-mode: look-ahead "
             "tree builds and their warm pair solves take most of the time",
             ("la-d3-2a", "la-d2-mode"), deep_count=10, sizes="SMALL"),
    Workload("deep-plain",
             "deep family under plain-c2a, pseudo-classic, dval-select: "
             "winnow probes and truncated solves dominate; no look-ahead",
             ("plain-c2a", "pseudo-classic", "dval-select"), deep_count=8),
    Workload("deep-straddle",
             "small deep family under la-straddle and la-reversals: "
             "row-added children, tableau_row_for and reversal updates",
             ("la-straddle", "la-reversals"), deep_count=6, sizes="SMALL"),
)}


def build(name: str, seed: int):
    """(problems, {strategy: SolveConfig}) for one workload and seed."""
    from branchlab.bench import default_matrix

    workload = WORKLOADS[name]
    matrix = default_matrix()
    if workload.strategies is not None:
        matrix = {s: matrix[s] for s in workload.strategies}
    if workload.deep_count:
        import deep

        problems = deep.generate(seed, workload.deep_count,
                                 getattr(deep, workload.sizes))
    else:
        from branchlab.instances import corpus_paths
        from branchlab.mps import parse_mps

        problems = [parse_mps(p.read_text()) for p in corpus_paths()]
    return problems, matrix
