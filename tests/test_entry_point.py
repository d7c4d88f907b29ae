"""The exit-code contract through the entry point a user runs.

Every ``FAILING_RUNS`` case of test_cli.py, and the README quick start, runs
in a fresh process with warnings as errors. The executable is the
``innoise`` script beside ``sys.executable`` where the package is installed
(``pip install -e``), and ``python -m innoise`` otherwise; either imports the
innoise these tests import. Processes that do not depend on each other run
side by side, as numpy's import dominates each one's time.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import innoise
from test_cli import FAILING_RUNS, NAMED_FILES, _failing_inputs

SCRIPT = Path(sys.executable).with_name("innoise")
MODULE = [sys.executable, "-m", "innoise"]
ENTRY = [str(SCRIPT)] if SCRIPT.exists() else MODULE
ENV = {**os.environ, "PYTHONPATH": str(Path(innoise.__file__).parents[1]), "PYTHONWARNINGS": "error"}
WORKERS = min(4, os.cpu_count() or 1)


def _side_by_side(cwd, *commands):
    """Run each argv in its own process in ``cwd``; their results in order."""

    def run(argv):
        return subprocess.run(
            argv, cwd=cwd, env=ENV, capture_output=True, text=True, encoding="utf-8", timeout=300
        )

    with ThreadPoolExecutor(WORKERS) as pool:
        return list(pool.map(run, commands))


def _succeed(cwd, *commands):
    for done in _side_by_side(cwd, *commands):
        assert done.returncode == 0 and done.stderr == "", (done.args, done.returncode, done.stderr)


@pytest.fixture(scope="module")
def refusals(tmp_path_factory):
    """Each case's finished process and its --out, all run in one folder of
    _failing_inputs' files."""
    directory = tmp_path_factory.mktemp("refusals")
    _failing_inputs(directory)
    outs = [directory / f"out_{i}" for i in range(len(FAILING_RUNS))]
    commands = [[*ENTRY, *argv, "--out", out.name] for (argv, _), out in zip(FAILING_RUNS.values(), outs)]
    return dict(zip(FAILING_RUNS, zip(_side_by_side(directory, *commands), outs)))


@pytest.mark.parametrize("case", FAILING_RUNS)
def test_failing_run_exits_with_one_error_line_and_no_out(refusals, case):
    done, out = refusals[case]
    assert done.returncode == FAILING_RUNS[case][1], done.stderr
    assert done.stderr.startswith(f"error: {NAMED_FILES.get(case, '')}"), done.stderr
    assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n"), done.stderr
    assert done.stdout == "" and "Traceback" not in done.stderr and not out.exists()


EVENTS = [
    {"start_idx": 2000, "length_samples": 12, "level_offset_db": 25.0},
    {"start_idx": 8000, "length_samples": 30, "level_offset_db": 22.0, "shape": "decaying"},
    {"start_idx": 14000, "length_samples": 8, "level_offset_db": 28.0},
    {"start_idx": 20000, "length_samples": 16, "level_offset_db": 24.0},
    {"start_idx": 26000, "length_samples": 10, "level_offset_db": 26.0},
]
MANIFEST = {
    "wgn_record": "wgn/record.csv", "in_records": ["in1/record.csv"],
    "event": "turn on seven flickering tubes", "frequency_khz": 1910,
}
# 20,000 events of both shapes, a third of them length-1 ramps: a
# divide-by-zero warning on those would exit 4
SHAPES = ("constant", "decaying", "decaying")
MANY_EVENTS = [
    {"start_idx": 5 * k, "length_samples": 1 + (k % 4 == 1) * (k % 3),
     "level_offset_db": 18.0 + k % 10, "shape": SHAPES[k % 3]}
    for k in range(20_000)
]


def test_quick_start(tmp_path):
    (tmp_path / "events.json").write_text(json.dumps(EVENTS))
    (tmp_path / "many_events.json").write_text(json.dumps(MANY_EVENTS))
    # a leading byte-order mark, as Windows editors save UTF-8 text
    (tmp_path / "manifest.json").write_bytes(b"\xef\xbb\xbf" + json.dumps(MANIFEST).encode())
    simulate = [*ENTRY, "simulate", "--n", "32004", "--mean-dbm", "-100"]
    _succeed(
        tmp_path,
        [*simulate, "--seed", "1", "--out", "wgn"],
        [*simulate, "--seed", "2", "--events", "events.json", "--out", "in1"],
        [*ENTRY, "simulate", "--n", "100000", "--mean-dbm", "-100", "--seed", "3",
         "--events", "many_events.json", "--out", "many"],
        [*MODULE, "--help"],
    )
    # python -m innoise, the benchmark's entry, goes through cli.run as the script does
    _succeed(
        tmp_path,
        [*ENTRY, "baseline", "wgn/record.csv", "--out", "base"],
        [*MODULE, "baseline", "wgn/record.csv", "--out", "base_module"],
        [*ENTRY, "campaign", "manifest.json", "--out", "campaign"],
        [*ENTRY, "apd", "wgn/record.csv", "in1/record.csv", "--grid-db", "0.1", "--out", "apd"],
        [*ENTRY, "apd", "wgn/record.csv", "in1/record.csv", "--out", "apd_exact"],
    )
    _succeed(tmp_path, [*ENTRY, "analyze", "in1/record.csv", "--baseline", "base/baseline.json",
                        "--out", "analysis", "--plot-data", "--main-burst"])
    baseline = (tmp_path / "base/baseline.json").read_bytes()
    assert (tmp_path / "base_module/baseline.json").read_bytes() == baseline
    assert "Number of Bursts,5" in (tmp_path / "analysis/measurement.csv").read_text().splitlines()
    assert "Number of Bursts,5.00" in (tmp_path / "campaign/campaign.csv").read_text().splitlines()
    for path in ("analysis/measurement.json", "campaign/measurement_001.json"):
        report = json.loads((tmp_path / path).read_text())
        assert len(report["bursts"]) == report["n_bursts"] == 5, path
    # the exact union grid: its top level is exceeded by no sample of either record
    rows = (tmp_path / "apd_exact/apd.csv").read_text().splitlines()
    assert rows[0] == "level_dbm,exceedance_wgn,exceedance_in" and rows[-1].endswith(",0.0,0.0")
    assert json.loads((tmp_path / "many/ground_truth.json").read_text())["n_events"] == 20_000
