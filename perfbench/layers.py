"""Per-layer metrics from the spans of one traced pass."""

from __future__ import annotations

from collections import Counter, defaultdict

from tracer import Tracer

BUILD = ("lookahead.build_tree", "lookahead.build_d2_tree",
         "lookahead.build_multi_trees")
STRADDLE = ("build_straddle_rows", "straddle_eval", "straddle_pivot_estimate")

# name -> (unit, better); every name `pass_metrics` and the runner emit
PER_LAYER = {
    "lp.solve.calls": ("count", "lower"),
    "lp.solve.self_s": ("s", "lower"),
    "lp.solve.us_per_call": ("us", "lower"),
    "lp.solve.warm_calls": ("count", "lower"),
    "lp.solve.cold_calls": ("count", "lower"),
    "lp.solve.pivots": ("count", "lower"),
    "lp.solve.limit_frac": ("ratio", "lower"),
    "lp.us_per_pivot": ("us", "lower"),
    "lp.probe_single_pivot.calls": ("count", "lower"),
    "lp.probe_single_pivot.self_s": ("s", "lower"),
    "lp.probe_single_pivot.us_per_call": ("us", "lower"),
    "lp.tableau_row_for.calls": ("count", "lower"),
    "lp.tableau_row_for.self_s": ("s", "lower"),
    "lp.with_bounds.calls": ("count", "lower"),
    "lp.with_bounds.self_s": ("s", "lower"),
    "lp.with_row.calls": ("count", "lower"),
    "winnow.stage1.calls": ("count", "lower"),
    "winnow.stage1.self_s": ("s", "lower"),
    "winnow.stage2.calls": ("count", "lower"),
    "winnow.stage2.self_s": ("s", "lower"),
    "winnow.f2_over_f0": ("ratio", "higher"),
    "winnow.signal_frac": ("ratio", "lower"),
    "criteria.evaluate_candidates.calls": ("count", "lower"),
    "criteria.evaluate_candidates.self_s": ("s", "lower"),
    "criteria.select.self_s": ("s", "lower"),
    "lookahead.build.calls": ("count", "lower"),
    "lookahead.build.self_s": ("s", "lower"),
    "lookahead.lp_share": ("ratio", "lower"),
    "lookahead.build.wall_share": ("ratio", "lower"),
    **{f"straddle.{f}.{k}": (u, "lower") for f in STRADDLE
       for k, u in (("calls", "count"), ("self_s", "s"))},
    "costmem.self_s": ("s", "lower"),
    "driver.solve_mip.self_s": ("s", "lower"),
    "mps.parse_mps.self_s": ("s", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(tr: Tracer, wall: float) -> dict[str, float]:
    """Every per-layer metric except the set-up and overhead ones, from a
    traced pass that took `wall` seconds."""
    from branchlab.criteria import BranchSignal

    own = tr.self_times()
    calls = Counter(tr.names)
    self_s: dict[str, float] = defaultdict(float)
    for name, t in zip(tr.names, own):
        self_s[name] += t

    warm = pivots = limit = f0 = f2 = 0
    for name, note in zip(tr.names, tr.notes):
        if name == "lp.solve" and note is not None:
            warm += note[0]
            pivots += note[1]
            limit += note[2] == "PIVOT_LIMIT_HIT"
        elif name == "winnow.stage1" and note is not None:
            f0 += note
        elif name == "winnow.stage2" and note is not None:
            f2 += note
    signals = sum(1 for name, exc in zip(tr.names, tr.raised)
                  if name == "winnow.run" and exc is not None
                  and issubclass(exc, BranchSignal))

    # share of look-ahead build time spent in lp.* spans beneath it
    under = [False] * len(tr.names)
    build_time = lp_in_build = 0.0
    for i, (name, parent) in enumerate(zip(tr.names, tr.parents)):
        if parent >= 0:
            under[i] = under[parent] or tr.names[parent] in BUILD
        if name in BUILD and not under[i]:
            build_time += tr.ends[i] - tr.starts[i]
        if under[i] and name.startswith("lp."):
            lp_in_build += own[i]

    n_solve = calls["lp.solve"]
    n_probe = calls["lp.probe_single_pivot"]
    out = {
        "lp.solve.calls": n_solve,
        "lp.solve.self_s": self_s["lp.solve"],
        "lp.solve.us_per_call": 1e6 * _ratio(self_s["lp.solve"], n_solve),
        "lp.solve.warm_calls": warm,
        "lp.solve.cold_calls": n_solve - warm,
        "lp.solve.pivots": pivots,
        "lp.solve.limit_frac": _ratio(limit, n_solve),
        "lp.us_per_pivot": 1e6 * _ratio(self_s["lp.solve"], pivots),
        "lp.probe_single_pivot.calls": n_probe,
        "lp.probe_single_pivot.self_s": self_s["lp.probe_single_pivot"],
        "lp.probe_single_pivot.us_per_call":
            1e6 * _ratio(self_s["lp.probe_single_pivot"], n_probe),
        "lp.tableau_row_for.calls": calls["lp.tableau_row_for"],
        "lp.tableau_row_for.self_s": self_s["lp.tableau_row_for"],
        "lp.with_bounds.calls": calls["lp.with_bounds"],
        "lp.with_bounds.self_s": self_s["lp.with_bounds"],
        "lp.with_row.calls": calls["lp.with_row"],
        "winnow.stage1.calls": calls["winnow.stage1"],
        "winnow.stage1.self_s": self_s["winnow.stage1"],
        "winnow.stage2.calls": calls["winnow.stage2"],
        "winnow.stage2.self_s": self_s["winnow.stage2"],
        "winnow.f2_over_f0": _ratio(f2, f0),
        "winnow.signal_frac": _ratio(signals, calls["winnow.run"]),
        "criteria.evaluate_candidates.calls":
            calls["criteria.evaluate_candidates"],
        "criteria.evaluate_candidates.self_s":
            self_s["criteria.evaluate_candidates"],
        "criteria.select.self_s": self_s["criteria.select"],
        "lookahead.build.calls": sum(calls[b] for b in BUILD),
        "lookahead.build.self_s": sum(self_s[b] for b in BUILD),
        "lookahead.lp_share": _ratio(lp_in_build, build_time),
        "lookahead.build.wall_share": _ratio(build_time, wall),
        "costmem.self_s": sum(t for name, t in self_s.items()
                              if name.startswith("costmem.")),
        "driver.solve_mip.self_s": self_s["driver.solve_mip"],
    }
    for f in STRADDLE:
        out[f"straddle.{f}.calls"] = calls[f"straddle.{f}"]
        out[f"straddle.{f}.self_s"] = self_s[f"straddle.{f}"]
    return out


def module_shares(tr: Tracer, wall: float) -> dict[str, float]:
    """Self time per module as a share of the traced pass's wall time."""
    shares: dict[str, float] = defaultdict(float)
    for name, t in zip(tr.names, tr.self_times()):
        shares[name.split(".")[0]] += t / wall
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def cross_check(tr: Tracer, records) -> list[str]:
    """Span counts against the search's own counters; empty when they agree.

    A straddle pivot estimate is one budgeted `lp.solve` that the search
    counts as a probe, not as an LP solve.
    """
    estimate_solves = sum(
        1 for name, parent in zip(tr.names, tr.parents)
        if name == "lp.solve" and parent >= 0
        and tr.names[parent] == "straddle.straddle_pivot_estimate")
    counts = Counter(tr.names)
    solves = counts["lp.solve"] - estimate_solves
    probes = counts["lp.probe_single_pivot"] + \
        counts["straddle.straddle_pivot_estimate"]
    want_solves = sum(r.lp_solves for r in records)
    want_probes = sum(r.probes for r in records)
    errors = []
    if solves != want_solves:
        errors.append(f"traced lp.solve calls {solves} != lp_solves "
                      f"{want_solves}")
    if probes != want_probes:
        errors.append(f"traced probe calls {probes} != probes {want_probes}")
    return errors
