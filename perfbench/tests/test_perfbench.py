"""Tests of the benchmark's own code.

    python -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calibrate  # noqa: E402
import deep  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from branchlab import criteria, driver, lookahead, lp, winnow  # noqa: E402
from branchlab.bench import default_matrix  # noqa: E402
from branchlab.instances import corpus_paths  # noqa: E402
from branchlab.mps import parse_mps  # noqa: E402


def bindings():
    """Every callable bound in a branchlab module or in LpModel."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "branchlab" or name.startswith("branchlab."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(name, attr)] = value
    for attr, value in vars(lp.LpModel).items():
        out[("LpModel", attr)] = value
    return out


def corpus_problem(name="lab03.mps"):
    path = next(p for p in corpus_paths() if p.name == name)
    return parse_mps(path.read_text())


def test_tracer_rebinds_every_alias_and_restores_them():
    before = bindings()
    tr = Tracer()
    with tr:
        for module, name in ((criteria, "solve"), (lookahead, "solve"),
                             (driver, "winnow_run"), (lookahead, "winnow_run"),
                             (winnow, "run"), (driver, "solve_mip")):
            assert getattr(module, name).__wrapped__ is \
                before[(module.__name__, name)]
        assert vars(lp.LpModel)["with_bounds"] is not \
            before[("LpModel", "with_bounds")]
        driver.solve_mip(corpus_problem(), default_matrix()["la-d3-2a"])
    after = bindings()            # install imported the rest of the package
    assert {k: after[k] for k in before} == before
    assert not any(hasattr(v, "__wrapped__") for v in after.values())
    assert tr.names[0] == "driver.solve_mip" and tr.parents[0] == -1
    assert "lp.solve" in tr.names and "winnow.run" in tr.names


def test_span_closes_and_reraises_branch_signal():
    tr = Tracer()

    def inner():
        raise criteria.CompulsorySignal(3, "up")

    inner_w = tr._wrap("t.inner", inner, None)
    outer_w = tr._wrap("t.outer", lambda: inner_w(), None)
    with pytest.raises(criteria.CompulsorySignal):
        outer_w()
    assert tr.names == ["t.outer", "t.inner"]
    assert tr.parents == [-1, 0]
    assert tr.raised == [criteria.CompulsorySignal] * 2
    assert all(e >= s > 0 for s, e in zip(tr.starts, tr.ends))
    assert tr._stack == []


def test_self_time_subtracts_direct_children():
    tr = Tracer()
    tr.names = ["a", "b", "c", "d"]
    tr.starts = [0.0, 1.0, 2.0, 6.0]
    tr.ends = [10.0, 5.0, 3.0, 8.0]
    tr.parents = [-1, 0, 1, 0]
    assert tr.self_times() == [4.0, 3.0, 1.0, 2.0]


def test_cross_check_agrees_on_a_straddle_solve_and_catches_a_miscount():
    problem = corpus_problem()
    tr = Tracer()
    with tr:
        _, _, records = run.run_pass([problem],
                                     {"la-straddle":
                                      default_matrix()["la-straddle"]})
    assert "straddle.straddle_pivot_estimate" in tr.names
    assert layers.cross_check(tr, records) == []
    off = [replace(records[0], lp_solves=records[0].lp_solves + 1)]
    assert len(layers.cross_check(tr, off)) == 1
    metrics = layers.pass_metrics(tr, 1.0)
    assert set(metrics) | {"mps.parse_mps.self_s", "trace_overhead_frac"} \
        == set(layers.PER_LAYER)


def test_deep_family_is_deterministic_per_seed():
    a, b = deep.generate(11, 4), deep.generate(11, 4)
    assert a == b
    assert deep.generate(12, 4) != a
    base = deep.family(4)
    for p, q in zip(a, base):
        assert p.name == q.name
        assert sorted(map(tuple, p.rows)) == sorted(map(tuple, q.rows))
        assert (p.obj == q.obj).all()
        assert deep.accepted(p)


def test_small_family_is_smaller_and_deterministic():
    small = deep.generate(11, 4, deep.SMALL)
    assert small == deep.generate(11, 4, deep.SMALL)
    for p, q in zip(small, deep.family(4)):
        assert p.n_cols <= q.n_cols and p.n_rows <= 3
        assert deep.accepted(p)


def test_pass_times_every_solve_and_the_calibration_kernel():
    problem = corpus_problem()
    matrix = {s: default_matrix()[s] for s in ("plain-c2a", "la-d3-2a")}
    times, units, records = run.run_pass([problem], matrix)
    assert len(times) == len(units) == len(records) == 2
    assert all(t > 0 for t in times) and all(u > 0 for u in units)
    assert calibrate.kernel() == calibrate.kernel()


def test_failures_count_an_injected_wrong_objective():
    problem = corpus_problem()
    _, _, records = run.run_pass([problem],
                                 {"plain-c2a": default_matrix()["plain-c2a"]})
    optima = reference.highs_optima([problem])
    assert reference.failures(records, optima) == []
    rec = records[0]
    wrong = [rec, replace(rec, objective=rec.objective + 1.0),
             replace(rec, status="feasible"),
             replace(rec, status="error", error="LpNumericError()")]
    assert len(reference.failures(wrong, optima)) == 3
    assert math.isclose(rec.objective, optima[problem.name], abs_tol=1e-6)


def test_fingerprint_sees_a_changed_counter():
    _, _, records = run.run_pass([corpus_problem()],
                                 {"plain-c1": default_matrix()["plain-c1"]})
    moved = [replace(records[0], pivots=records[0].pivots + 1)]
    assert reference.fingerprint(records) != reference.fingerprint(moved)


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(100)]
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == 90.0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == layers.PER_LAYER


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload",
         "corpus-matrix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
