"""branchlab benchmark: end-to-end solve metrics and a traced layer breakdown.

    python3 perfbench/run.py --workload corpus-matrix --seed 1 --seconds 25 \
        --trace 0

Run from the repository root.  One workload runs in this one process,
without threads; the set-up samples run one after another in child
processes.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
NOTES.md beside this file for the workloads, the metrics and measured
figures.
"""

from __future__ import annotations

import os

# one BLAS thread per process, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 9       # set-up samples per run; setup_s is their median
MIN_PASSES = 3          # measured passes even if --seconds runs out first;
                        # further passes only while they end within it
TAIL_BEYOND = 10        # solves above the reported tail percentile
CAL_EVERY_S = 0.05      # solve time between two runs of the calibration
                        # kernel (2 to 4 ms each, so about 5% more time)

END_TO_END = {          # name -> unit; `cal`: calibrate.py's kernel time
    "wall_cal": "cal",
    "solve_p50_cal": "cal",
    "solve_tail_cal": "cal",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "nodes": "count",
    "lp_solves": "count",
    "pivots": "count",
    "probes": "count",
}


def import_branchlab() -> None:
    """Put this checkout's `src` first on the path; fail without it."""
    if not (SRC / "branchlab" / "__init__.py").is_file():
        sys.exit(f"error: no branchlab sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import branchlab

    if Path(branchlab.__file__).resolve().parent != SRC / "branchlab":
        sys.exit(f"error: imported branchlab from {branchlab.__file__}")


def run_pass(problems, matrix):
    """Every (instance, strategy) solve once, with the calibration kernel
    timed first, after every CAL_EVERY_S of solving, and last:
    (per-solve s, per-solve `cal` in s, records).

    A solve's `cal` is the mean of the kernel runs just before and just
    after the stretch of solves it belongs to.
    """
    import branchlab.driver as driver
    import calibrate
    from reference import SolveRecord

    times, stretch, records = [], [], []
    cal = [calibrate.timed()]
    since = 0.0
    for problem in problems:
        for strategy, config in matrix.items():
            stretch.append(len(cal) - 1)
            t0 = time.perf_counter()
            try:
                res = driver.solve_mip(problem, config)
            except Exception as err:     # counted as failed, run goes on
                res = None
                records.append(SolveRecord(problem.name, strategy, "error",
                                           None, 0, 0, 0, 0, repr(err)))
            times.append(time.perf_counter() - t0)
            since += times[-1]
            if since >= CAL_EVERY_S:
                cal.append(calibrate.timed())
                since = 0.0
            if res is None:
                continue
            c = res.counters
            records.append(SolveRecord(
                problem.name, strategy, res.status,
                None if res.x is None else float(res.objective),
                c.nodes, c.lp_solves, c.pivots, c.probes))
    cal.append(calibrate.timed())
    units = [(cal[i] + cal[i + 1]) / 2 for i in stretch]
    return times, units, records


def fits(durations: list[float], end: float) -> bool:
    """Whether one more pass, as long as the mean so far, ends by `end`."""
    return time.perf_counter() + statistics.mean(durations) <= end


def setup_probe(workload: str, seed: int) -> None:
    """Child-process body: time importing branchlab and building inputs."""
    t0 = time.perf_counter()
    import_branchlab()
    import workloads

    workloads.build(workload, seed)
    print(f"{time.perf_counter() - t0:.9f}")


def setup_seconds(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=120)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the sample with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    i = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def check(problems, passes) -> tuple[bool, int, int]:
    """HiGHS check of every solve and fingerprint agreement across passes."""
    from reference import failures, fingerprint, highs_optima

    optima = highs_optima(problems)
    records = [r for p in passes for r in p]
    bad = failures(records, optima)
    prints = {fingerprint(p) for p in passes}
    print(f"fingerprint {fingerprint(passes[0])}")
    for line in bad[:20]:
        print(f"FAILED {line}")
    if len(prints) > 1:
        print(f"FAILED passes disagree: {len(prints)} distinct fingerprints")
    print(f"failed_frac {len(bad)}/{len(records)} = "
          f"{len(bad) / len(records):.6f}")
    return not bad and len(prints) == 1, len(records), len(bad)


def measure(args) -> dict:
    import workloads

    setup_s = setup_seconds(args.workload, args.seed)
    problems, matrix = workloads.build(args.workload, args.seed)
    # warm-up: every strategy once, on the first instance, so each code
    # path has run; a full first pass measured no slower than later ones
    # beyond the host's noise, so that time goes to measured passes
    run_pass(problems[:1], matrix)
    durations, walls, units, scaled, passes = [], [], [], [], []
    end = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or fits(durations, end):
        t0 = time.perf_counter()
        times, unit, records = run_pass(problems, matrix)
        durations.append(time.perf_counter() - t0)    # kernel runs included
        walls.append(sum(times))
        units.append(statistics.median(unit))
        scaled.append([t / u for t, u in zip(times, unit)])
        passes.append(records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct, attempted, failed = check(problems, passes)
    # each solve's time is its (instance, strategy) cell's median over the
    # passes, which keeps one noisy repeat from moving the order statistics
    cell = [statistics.median(c) for c in zip(*scaled)]
    samples = [t for t in cell for _ in scaled]
    tail_cal, pct = tail(samples)
    print(f"solve_tail_cal is p{pct:.3f} of {len(samples)} solves "
          f"({len(passes)} passes x {len(cell)})")
    print("pass solve s " + " ".join(f"{w:.3f}" for w in walls))
    print("pass cal ms  " + " ".join(f"{1e3 * u:.3f}" for u in units))
    first = passes[0]
    values = {
        "wall_cal": statistics.median(sum(p) for p in scaled),
        "solve_p50_cal": statistics.median(cell),
        "solve_tail_cal": tail_cal,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "nodes": sum(r.nodes for r in first),
        "lp_solves": sum(r.lp_solves for r in first),
        "pivots": sum(r.pivots for r in first),
        "probes": sum(r.probes for r in first),
    }
    return result(correct, attempted, failed,
                  {k: (v, END_TO_END[k]) for k, v in values.items()})


def measure_traced(args) -> dict:
    """Alternating untraced and traced passes; per-layer metrics."""
    import workloads
    from layers import PER_LAYER, cross_check, module_shares, pass_metrics
    from tracer import Tracer

    with Tracer() as setup_trace:
        problems, matrix = workloads.build(args.workload, args.seed)
    parse_s = sum(t for name, t in zip(setup_trace.names,
                                       setup_trace.self_times())
                  if name == "mps.parse_mps")
    run_pass(problems[:1], matrix)                      # warm-up, as above
    plain, traced_cal, durations, passes, per_pass = [], [], [], [], []
    end = time.perf_counter() + args.seconds
    while len(per_pass) < 2 or fits(durations, end):
        t0 = time.perf_counter()
        for traced in ((False, True) if len(per_pass) % 2 == 0
                       else (True, False)):
            if not traced:
                times, unit, records = run_pass(problems, matrix)
                plain.append(sum(t / u for t, u in zip(times, unit)))
                passes.append(records)
                continue
            tr = Tracer()
            with tr:
                times, unit, records = run_pass(problems, matrix)
            mismatch = cross_check(tr, records)
            if mismatch:
                sys.exit("error: tracer cross-check failed: "
                         + "; ".join(mismatch))
            wall = sum(times)
            traced_cal.append(sum(t / u for t, u in zip(times, unit)))
            passes.append(records)
            per_pass.append(pass_metrics(tr, wall))
            shares = module_shares(tr, wall)
        durations.append(time.perf_counter() - t0)
    print("self-time share of a traced pass: " + ", ".join(
        f"{module} {share:.3f}" for module, share in shares.items()))
    correct, attempted, failed = check(problems, passes)
    values = {k: statistics.median(p[k] for p in per_pass)
              for k in per_pass[0]}
    values["mps.parse_mps.self_s"] = parse_s
    values["trace_overhead_frac"] = (statistics.median(traced_cal)
                                     / statistics.median(plain) - 1)
    return result(correct, attempted, failed,
                  {k: (values[k], unit) for k, (unit, _) in PER_LAYER.items()})


def result(correct, attempted, failed, metrics) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>16.6f} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import_branchlab()
    out = measure_traced(args) if args.trace else measure(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
