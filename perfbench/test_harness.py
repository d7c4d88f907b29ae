"""Tests of the benchmark harness itself, on miniature workloads.

Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

import compare
import harness
import oracle
import reference
import run
import spans
import workloads
from innoise import cli

SIZES = {"campaign": {"record_s": 1.0, "n_in": 2}, "dense": {"record_s": 0.5}, "export": {"record_s": 1.0}}


def run_cli(workload: workloads.Workload, inputs: Path, out: str) -> Path:
    cwd = Path.cwd()
    os.chdir(inputs)
    try:
        with redirect_stdout(StringIO()):
            for argv in workload.commands:
                assert cli.main([*argv, "--out", out]) == 0
    finally:
        os.chdir(cwd)
    return inputs / out


@pytest.fixture(scope="module", params=sorted(SIZES))
def built(request, tmp_path_factory):
    inputs = tmp_path_factory.mktemp(request.param)
    workload = workloads.build(request.param, 3, inputs, **SIZES[request.param])
    return workload, inputs, run_cli(workload, inputs, "out")


def test_oracle_accepts_correct_outputs(built):
    workload, _, outdir = built
    assert oracle.check(workload, outdir, seed=3) == []


@pytest.fixture
def export(tmp_path):
    workload = workloads.build("export", 5, tmp_path, **SIZES["export"])
    return workload, run_cli(workload, tmp_path, "out")


def test_oracle_rejects_a_dropped_burst(export):
    workload, outdir = export
    path = outdir / "measurement.json"
    report = json.loads(path.read_text())
    del report["bursts"][7]
    path.write_text(json.dumps(report))
    assert any("bursts" in p for p in oracle.check(workload, outdir, seed=5))


def test_oracle_rejects_a_shifted_burst_id(export):
    workload, outdir = export
    path = outdir / "plot.csv"
    lines = path.read_text().split("\n")
    start, end = workload.spans["in.csv"][4]
    lines[1 + start] = lines[1 + start].rsplit(",", 1)[0] + ","  # the run now starts one sample late
    lines[2 + end] = lines[2 + end].rsplit(",", 1)[0] + ",5"
    path.write_text("\n".join(lines))
    assert any("burst_id" in p for p in oracle.check(workload, outdir, seed=5))


def test_oracle_rejects_a_missing_apd_row(export):
    workload, outdir = export
    path = outdir / "apd.csv"
    path.write_text("\n".join(path.read_text().split("\n")[:-2]) + "\n")
    assert any("apd.csv" in p for p in oracle.check(workload, outdir, seed=5))


def test_oracle_rejects_a_shifted_burst_start(tmp_path):
    workload = workloads.build("dense", 5, tmp_path, **SIZES["dense"])
    outdir = run_cli(workload, tmp_path, "out")
    path = outdir / "measurement.json"
    report = json.loads(path.read_text())
    report["bursts"][3]["start_ms"] += 1000.0 / workloads.RATE_HZ
    path.write_text(json.dumps(report))
    assert any("burst 4" in p for p in oracle.check(workload, outdir, seed=5))


def test_self_time_subtracts_nested_children():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    recorder = spans.Recorder(clock=lambda: next(ticks))
    with recorder.span("a"):
        with recorder.span("b"):
            pass
        with recorder.span("c"):
            with recorder.span("d"):
                pass
    assert [s.parent for s in recorder.spans] == [-1, 0, 0, 2]
    assert spans.self_times(recorder.spans) == [3.0, 3.0, 3.0, 1.0]
    assert recorder.self_seconds() == {"a": 3.0, "b": 3.0, "c": 3.0, "d": 1.0}


def test_self_time_counts_overlapping_children_once():
    tree = [
        spans.Span("parent", 0.0, 10.0, -1),
        spans.Span("x", 2.0, 6.0, 0),
        spans.Span("y", 4.0, 8.0, 0),
        spans.Span("z", 9.0, 12.0, 0),
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracing_leaves_outputs_identical_and_counts_the_work(built):
    workload, inputs, outdir = built
    recorder = spans.Recorder()
    original = cli.detect_bursts
    with spans.patched(recorder, harness.COMMAND_LAYERS):
        assert cli.detect_bursts is not original
        traced = run_cli(workload, inputs, "traced")
    assert cli.detect_bursts is original
    assert oracle.tree_digest(traced) == oracle.tree_digest(outdir)
    structure = workload.structure
    assert recorder.counts["bursts.bursts"] == structure["bursts"]
    assert recorder.counts["bursts.pulses"] == structure["pulses"]
    assert recorder.counts["io.read_record.samples"] == structure["samples_read"]
    names = {span.name for span in recorder.spans}
    assert {"io.read_record", "bursts.detect_bursts", "bursts.extract_pulses", "stats.measurement_stats"} <= names


def test_second_seed_keeps_structure_and_changes_inputs(tmp_path):
    for name, sizes in SIZES.items():
        first = workloads.build(name, 1, tmp_path / f"{name}1", **sizes)
        second = workloads.build(name, 2, tmp_path / f"{name}2", **sizes)
        assert first.structure == second.structure
        # at this size every sparse record holds exactly one close pair, which must merge
        assert first.structure["merges"] == (0 if name == "dense" else len(first.spans))
        assert oracle.tree_digest(tmp_path / f"{name}1") != oracle.tree_digest(tmp_path / f"{name}2")
        again = workloads.build(name, 1, tmp_path / f"{name}1b", **sizes)
        assert oracle.tree_digest(tmp_path / f"{name}1") == oracle.tree_digest(tmp_path / f"{name}1b")
        assert again.structure == first.structure


def test_benchmark_json_matches_the_harness():
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) == list(workloads.BUILDERS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ([10.0 + 0.01 * i for i in range(10)], [9.0 + 0.01 * i for i in range(10)], "gain"),
        ([10.0] * 9 + [10.2], [9.0] * 8 + [10.5, 10.5], "unchanged"),  # 8/10 wins is not enough
        ([10.0 + 0.01 * i for i in range(10)], [12.0 + 0.01 * i for i in range(10)], "regression"),
        ([8.0, 12.0] * 5, [9.5, 10.5] * 5, "unresolved"),
        ([10.0 + 0.01 * i for i in range(9)], [9.0 + 0.01 * i for i in range(9)], "unchanged"),  # < 10 pairs
    ],
)
def test_compare_verdicts(parent, change, expected):
    assert compare.verdict(parent, change, "lower", 0.15)["verdict"] == expected


def test_pairs_refuses_a_directory_with_earlier_runs(tmp_path):
    (tmp_path / "parent.jsonl").write_text("")
    argv = ["pairs", str(tmp_path), str(tmp_path), "--out", str(tmp_path)]
    with pytest.raises(SystemExit, match="already exist"):
        compare.main(argv, run.WORKLOADS)


def test_pass_count_does_not_depend_on_speed():
    assert harness.pass_count("dense", 30) == round(30 / harness.PASS_S["dense"])
    assert harness.pass_count("export", 0.1) == harness.MIN_PASSES


def test_host_scaling_cancels_a_uniformly_slower_host():
    quiet = harness.host_scaled([0.8, 0.9, 1.0], [harness.REFERENCE_S] * 3)
    assert quiet == pytest.approx(0.9)
    assert harness.host_scaled([1.6, 1.8, 2.0], [2 * harness.REFERENCE_S] * 3) == pytest.approx(quiet)


def test_host_scaling_takes_the_median_ratio():
    ref = harness.REFERENCE_S
    # one pass caught in a slow phase that its references missed
    assert harness.host_scaled([1.0, 1.0, 5.0], [ref, ref, ref]) == pytest.approx(1.0)


def test_reference_work_is_fixed():
    assert reference.work(2000) == reference.work(2000) > 0
