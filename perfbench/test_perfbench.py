"""Tests of the benchmark itself: generator, oracle, runner and tracing.

Run with ``python3 -m pytest perfbench``. Workloads are built at small sizes
so that the CLI runs take a second or two.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path

import pytest

import oracle
import run
import tracing
import workloads

SMALL = {
    "ingest_clean": {"copies": 2},
    "validate_dirty": {"n_rows": 3000},
    "scenario_sweep": {"n_points": 300},
}


def build(name: str, seed: int, directory: Path) -> workloads.Case:
    directory.mkdir(parents=True, exist_ok=True)
    return workloads.BUILDERS[name](seed, directory, run.ROOT, **SMALL[name])


def input_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_generator_is_deterministic(tmp_path, name):
    first = build(name, 11, tmp_path / "a")
    build(name, 11, tmp_path / "b")
    build(name, 12, tmp_path / "c")
    a, b, c = (input_bytes(tmp_path / d) for d in "abc")
    assert a and a == b
    assert a != c
    assert all(str(tmp_path / "a") in " ".join(inv.argv) for inv in first.invocations)


def test_planted_faults_reach_every_reason():
    reference = list(oracle.read_diary(workloads.reference_paths(run.ROOT)[0]))
    intended = {
        "clean": {oracle.KEPT},
        "bad_date": {oracle.PARSE_ERROR},
        "non_numeric": {oracle.PARSE_ERROR},
        "short_row": {oracle.PARSE_ERROR},
        "unknown_location": {"EXCLUDED_LOCATION"},
        "excluded_location": {"EXCLUDED_LOCATION"},
        "work_short": {"WORK_TOO_SHORT"},
        "total_short": {"TOTAL_TOO_SHORT"},
        "mode_mismatch": {"MODE_MISMATCH"},
        "mismatch_and_excluded": {"MODE_MISMATCH"},
        "nan_minutes": {oracle.ANY_REJECTION},
    }
    assert set(intended) - {"clean", "nan_minutes"} == {kind for kind, _ in workloads.PLANTS}
    rng = random.Random(3)
    seen = set()
    for kind, outcomes in intended.items():
        for template in reference:
            outcome = oracle.expected_outcome(workloads.plant(kind, template, rng))
            assert outcome in outcomes, (kind, template)
            seen.add(outcome)
    assert set(tracing.REASONS) <= seen


def _run_once(tmp_path: Path, name: str, traced: bool = False) -> tuple[workloads.Case, run.Iteration]:
    case = build(name, 5, tmp_path / "inputs")
    return case, run.Runner(tmp_path).iteration(case, traced=traced)


def _rewrite_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def test_oracle_rejects_perturbed_delta(tmp_path):
    case, result = _run_once(tmp_path, "ingest_clean")
    inv = case.invocations[0]
    assert result.failed == 0 and result.attempted == 500
    _rewrite_json(inv.out / "delta.json",
                  lambda p: p["deltas"][1].update(net_mj=p["deltas"][1]["net_mj"] * (1 + 1e-7)))
    assert inv.check(inv.out) == inv.attempted


def test_oracle_rejects_perturbed_rejection(tmp_path):
    case, result = _run_once(tmp_path, "validate_dirty")
    inv = case.invocations[0]
    assert result.failed == 0 and result.attempted == 3000
    path = inv.out / "rejections.csv"
    rows = list(csv.reader(path.open()))
    index = next(i for i, row in enumerate(rows) if row[3] == "WORK_TOO_SHORT")
    rows[index][3] = "MODE_MISMATCH"
    with path.open("w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    assert inv.check(inv.out) == 1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: the package keeps diary rows holding nan minutes")
def test_nan_rows_are_rejected(tmp_path):
    directory = tmp_path / "inputs"
    directory.mkdir()
    case = workloads.validate_dirty(5, directory, run.ROOT, n_rows=400,
                                    plants=(("nan_minutes", 0.5),))
    result = run.Runner(tmp_path).iteration(case, traced=False)
    expected = case.invocations[0].check.keywords["expected"]
    assert sum(o == oracle.ANY_REJECTION for _, o in expected) > 100
    assert result.attempted == 400 and result.failed == 0


def test_oracle_rejects_perturbed_sweep_point_and_root(tmp_path):
    case, result = _run_once(tmp_path, "scenario_sweep")
    assert result.failed == 0 and result.attempted == 303
    sweep, breakeven = case.invocations[0], case.invocations[1]
    _rewrite_json(sweep.out / "sweep.json",
                  lambda p: p["points"][7].update(travel_mj=p["points"][7]["travel_mj"] + 1e-6))
    assert sweep.check(sweep.out) == 1
    _rewrite_json(breakeven.out / "breakeven.json", lambda p: p.update(root=p["root"] + 1e-3))
    assert breakeven.check(breakeven.out) == 1


def test_traced_run_measures_the_layers_that_do_the_work(tmp_path):
    _, result = _run_once(tmp_path, "scenario_sweep", traced=True)
    assert result.failed == 0
    metrics, missing = tracing.summarize(result.spans, result.stderr_lines)
    assert missing == []
    assert set(metrics) == set(tracing.PER_LAYER) - {"trace.overhead_s", "host.slowdown"}
    assert metrics["scenario.sweep_s"] > 0 and metrics["report.write_s"] > 0
    assert metrics["report.build_s"] > 0
    assert metrics["diary.parse_s"] == 0 and metrics["scenario.break_even_calls"] == 3


def test_reference_task_prints_its_checksum(tmp_path):
    # reference_sample raises when the task's output is not REFERENCE_CHECKSUM.
    assert run.Runner(tmp_path).reference_sample() > 0


def _span(id, start, end, parent=None, name="f"):
    return {"id": id, "name": name, "start": start, "end": end, "parent": parent, "run_id": "r"}


def test_self_time_subtracts_covered_child_time():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),
        _span(3, 3.5, 6.0, parent=0),  # overlaps its sibling: counted once
        _span(4, 9.0, 12.0, parent=0),  # runs past its parent: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx({0: 4.0, 1: 2.0, 2: 1.0, 3: 2.5, 4: 3.0})


def test_missing_wrapper_leaves_its_metrics_out():
    payload = {
        "spans": [_span(0, 0.0, 2.0, name="main"), _span(1, 0.5, 1.0, parent=0, name="sweep")],
        "counts": {"scenario.sweep_points": 10},
        "missing": ["telework_impact.cli.break_even"],
    }
    metrics, missing = tracing.summarize([payload], stderr_lines=0)
    assert missing == ["telework_impact.cli.break_even"]
    assert "scenario.break_even_s" not in metrics and "scenario.break_even_calls" not in metrics
    assert metrics["scenario.sweep_s"] == 0.5 and metrics["cli.overhead_s"] == 1.5
    assert metrics["scenario.sweep_us_per_point"] == pytest.approx(5e4)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
