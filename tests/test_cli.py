import _pyio
import contextlib
import json
import math
import os
import pathlib
import tempfile
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from innoise import io
from innoise.cli import ExitStatus, main
from innoise.synth import BurstEventSpec, generate_wgn, inject_bursts
from test_json_readers import BASELINE, EVENT, MANIFEST, json_texts


def _write_wgn(path, n=20_000, mean=-100.0, seed=7):
    io.write_record(generate_wgn(n, mean, seed=seed), path)


def _write_in(path, events, n=20_000, mean=-100.0, seed=8):
    record, spans = inject_bursts(generate_wgn(n, mean, seed=seed), events)
    io.write_record(record, path)
    return spans


def _run_baseline(tmp_path, seed=7):
    wgn = tmp_path / "wgn.csv"
    _write_wgn(wgn, seed=seed)
    out = tmp_path / "base_out"
    assert main(["baseline", str(wgn), "--out", str(out)]) == ExitStatus.OK
    return wgn, out / "baseline.json"


# --- baseline ----------------------------------------------------------------


def test_baseline_writes_threshold_13_above_rms(tmp_path):
    _, baseline_json = _run_baseline(tmp_path)
    payload = json.loads(baseline_json.read_text())
    assert payload["threshold_dbm"] == pytest.approx(payload["rms_dbm"] + 13.0)
    assert payload["validation"]["passed"] is True
    assert payload["validation"]["exceed_indices"] == []


def test_baseline_fails_on_impulsive_record_but_still_writes(tmp_path, capsys):
    path = tmp_path / "dirty.csv"
    _write_in(path, [BurstEventSpec(1000, 10, 25.0)], seed=9)
    out = tmp_path / "out"
    code = main(["baseline", str(path), "--out", str(out)])
    assert code == ExitStatus.VALIDATION_FAILED
    assert "WGN check FAIL" in capsys.readouterr().err  # a run exiting 1 reports on stderr
    payload = json.loads((out / "baseline.json").read_text())
    assert payload["validation"]["passed"] is False
    assert 1000 in payload["validation"]["exceed_indices"]


def test_baseline_missing_file_exits_2(tmp_path):
    assert main(["baseline", str(tmp_path / "nope.csv")]) == ExitStatus.IO_ERROR


def test_baseline_bad_offset_exits_3(tmp_path, capsys):
    wgn = tmp_path / "wgn.csv"
    _write_wgn(wgn)
    assert main(["baseline", str(wgn), "--offset-db", "0", "--out", str(tmp_path / "o")]) == ExitStatus.BAD_INPUT
    for fraction in ("nan", "inf", "-0.1"):
        argv = ["baseline", str(wgn), "--max-exceed-fraction", fraction, "--out", str(tmp_path / "o")]
        assert main(argv) == ExitStatus.BAD_INPUT, fraction
        assert "max_exceed_fraction" in capsys.readouterr().err


def test_baseline_threshold_above_the_level_range_exits_3(tmp_path, capsys):
    # a record of 0 dBm samples has an r.m.s. level of exactly 0 dBm, so an
    # offset of 2900 dB puts the threshold at the top of the level range
    wgn = tmp_path / "wgn.csv"
    wgn.write_text("# sample_rate_hz=8001\n" + "0.0\n" * 100)
    out = tmp_path / "o"
    assert main(["baseline", str(wgn), "--offset-db", "2900", "--out", str(out)]) == ExitStatus.OK
    assert json.loads((out / "baseline.json").read_text())["threshold_dbm"] == 2900.0
    capsys.readouterr()
    for offset in ("1e308", repr(math.nextafter(2900.0, math.inf))):
        argv = ["baseline", str(wgn), "--offset-db", offset, "--out", str(tmp_path / offset)]
        assert main(argv) == ExitStatus.BAD_INPUT, offset
        err = capsys.readouterr().err
        assert err.startswith("error: threshold") and "at most 2900 dBm" in err, err
        assert "Traceback" not in err and not (tmp_path / offset).exists()
    # nor does a baseline file or a manifest get past the rule
    base = tmp_path / "baseline.json"
    base.write_text('{"rms_dbm": -100.0, "offset_db": 1e308, "threshold_dbm": 1e308}')
    argv = ["analyze", str(wgn), "--baseline", str(base), "--out", str(tmp_path / "a")]
    assert main(argv) == ExitStatus.BAD_INPUT
    assert capsys.readouterr().err.startswith("error: baseline.json: threshold")
    (tmp_path / "in.csv").write_bytes(wgn.read_bytes())
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "wgn_record": "wgn.csv", "in_records": ["in.csv"], "event": "e",
        "frequency_khz": 1910.0, "offset_db": 1e308,
    }))
    assert main(["campaign", str(manifest), "--out", str(tmp_path / "c")]) == ExitStatus.BAD_INPUT
    assert capsys.readouterr().err.startswith("error: threshold")
    assert not (tmp_path / "a").exists() and not (tmp_path / "c").exists()


def test_baseline_level_overflow_exits_3(tmp_path, capsys):
    # 10^(1e308/10) mW is beyond the float range: the r.m.s. level would be inf
    path = tmp_path / "huge.csv"
    path.write_text("# sample_rate_hz=8001\n-80.0\n1e308\n-90.0\n")
    out = tmp_path / "o"
    assert main(["baseline", str(path), "--out", str(out)]) == ExitStatus.BAD_INPUT
    err = capsys.readouterr().err
    assert "error:" in err and "finite" in err and "Traceback" not in err
    assert "huge.csv: line 3: 1e+308 dBm" in err
    assert not (out / "baseline.json").exists()


# --- analyze -----------------------------------------------------------------


def test_analyze_counts_expected_bursts(tmp_path):
    # 31 well separated events, as a flickering-lights style measurement
    _, baseline_json = _run_baseline(tmp_path)
    in_path = tmp_path / "in.csv"
    events = [BurstEventSpec(500 + 600 * i, 6, 25.0) for i in range(31)]
    _write_in(in_path, events, seed=10)
    out = tmp_path / "an_out"
    code = main([
        "analyze", str(in_path), "--baseline", str(baseline_json),
        "--out", str(out), "--plot-data", "--main-burst",
    ])
    assert code == ExitStatus.OK
    payload = json.loads((out / "measurement.json").read_text())
    assert payload["n_bursts"] == 31
    assert len(payload["bursts"]) == 31
    assert "main_burst" in payload
    assert "stats_excluding_main" in payload
    plot_lines = (out / "plot.csv").read_text().splitlines()
    assert len(plot_lines) == 20_001


def test_analyze_pure_wgn_record_reports_zero_bursts(tmp_path):
    _, baseline_json = _run_baseline(tmp_path)
    quiet = tmp_path / "quiet.csv"
    _write_wgn(quiet, seed=77)
    out = tmp_path / "an_out"
    assert main(["analyze", str(quiet), "--baseline", str(baseline_json), "--out", str(out)]) == ExitStatus.OK
    payload = json.loads((out / "measurement.json").read_text())
    assert payload["n_bursts"] == 0


def test_analyze_malformed_baseline_exits_3(tmp_path, capsys):
    bad = tmp_path / "baseline.json"
    bad.write_text("{broken")
    record = tmp_path / "in.csv"
    _write_wgn(record)
    assert main(["analyze", str(record), "--baseline", str(bad)]) == ExitStatus.BAD_INPUT
    bad.write_text(
        '{"rms_dbm": -100.0, "offset_db": 13.0, "threshold_dbm": -87.0, "validation": {"passed": true}}'
    )
    assert main(["analyze", str(record), "--baseline", str(bad)]) == ExitStatus.BAD_INPUT
    assert "validation: missing required key 'exceed_count'" in capsys.readouterr().err


def test_analyze_level_overflow_exits_3(tmp_path, capsys):
    _, baseline_json = _run_baseline(tmp_path)
    path = tmp_path / "huge.csv"
    path.write_text("# sample_rate_hz=8001\n-80.0\n1e308\n3080\n3080\n-90.0\n")
    argv = ["analyze", str(path), "--baseline", str(baseline_json), "--out", str(tmp_path / "o")]
    assert main(argv) == ExitStatus.BAD_INPUT
    err = capsys.readouterr().err
    assert "error:" in err and "finite" in err and "Traceback" not in err
    assert "huge.csv: line 3: 1e+308 dBm" in err


def test_analyze_accepts_hand_written_baseline(tmp_path):
    # -119.3 + 5.9 is -113.39999999999999 in binary floating point
    base = tmp_path / "baseline.json"
    base.write_text('{"rms_dbm": -119.3, "offset_db": 5.9, "threshold_dbm": -113.4}')
    record = tmp_path / "in.csv"
    _write_wgn(record)
    out = tmp_path / "an_out"
    assert main(["analyze", str(record), "--baseline", str(base), "--out", str(out)]) == ExitStatus.OK
    payload = json.loads((out / "measurement.json").read_text())
    assert payload["threshold_dbm"] == -119.3 + 5.9


# --- campaign ----------------------------------------------------------------


def _campaign_dir(tmp_path, n_in=2):
    _write_wgn(tmp_path / "wgn.csv", seed=7)
    for i in range(n_in):
        events = [BurstEventSpec(500 + 700 * k, 6, 24.0 + i) for k in range(20 + i)]
        _write_in(tmp_path / f"in{i + 1}.csv", events, seed=20 + i)
    manifest = {
        "wgn_record": "wgn.csv",
        "in_records": [f"in{i + 1}.csv" for i in range(n_in)],
        "event": "turn on flickering tubes",
        "frequency_khz": 1910.0,
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def test_campaign_produces_full_output_tree(tmp_path):
    manifest = _campaign_dir(tmp_path)
    out = tmp_path / "camp"
    assert main(["campaign", str(manifest), "--out", str(out)]) == ExitStatus.OK
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "baseline.json",
        "campaign.csv",
        "campaign.json",
        "measurement_001.csv",
        "measurement_001.json",
        "measurement_002.csv",
        "measurement_002.json",
    ]
    csv_lines = (out / "campaign.csv").read_text().splitlines()
    assert len(csv_lines) == 8  # header + the seven characterization fields
    payload = json.loads((out / "campaign.json").read_text())
    assert payload["n_measurements"] == 2
    assert payload["mean_n_bursts"] == pytest.approx((20 + 21) / 2)


def test_campaign_single_measurement_omits_deviations(tmp_path):
    manifest = _campaign_dir(tmp_path, n_in=1)
    out = tmp_path / "camp"
    assert main(["campaign", str(manifest), "--out", str(out)]) == ExitStatus.OK
    payload = json.loads((out / "campaign.json").read_text())
    assert "sd_duration_ms" not in payload
    rows = dict(line.split(",") for line in (out / "campaign.csv").read_text().splitlines()[1:])
    assert rows["Standard Deviation of Duration (ms)"] == ""


def test_campaign_fails_fast_on_dirty_wgn(tmp_path):
    manifest = _campaign_dir(tmp_path)
    _write_in(tmp_path / "wgn.csv", [BurstEventSpec(100, 5, 20.0)], seed=30)
    out = tmp_path / "camp"
    assert main(["campaign", str(manifest), "--out", str(out)]) == ExitStatus.VALIDATION_FAILED
    assert (out / "baseline.json").exists()
    assert not (out / "measurement_001.json").exists()
    assert not (out / "campaign.json").exists()


def test_campaign_malformed_manifest_exits_3(tmp_path, capsys):
    path = _campaign_dir(tmp_path, n_in=1)
    manifest = json.loads(path.read_text())
    bad_values = [
        ("offset_db", "abc"),
        ("location", 5),
        ("max_exceed_fraction", float("nan")),
        ("max_exceed_fraction", float("inf")),
        ("max_exceed_fraction", -0.1),
        ("wgn_record", "a\u0000b"),
        ("in_records", [""]),
    ]
    for key, value in bad_values:
        path.write_text(json.dumps({**manifest, key: value}))
        out = tmp_path / f"camp_{key}"
        assert main(["campaign", str(path), "--out", str(out)]) == ExitStatus.BAD_INPUT, key
        assert key in capsys.readouterr().err
        assert not out.exists()


def test_campaign_applies_manifest_max_exceed_fraction(tmp_path):
    path = _campaign_dir(tmp_path, n_in=1)
    _write_in(tmp_path / "wgn.csv", [BurstEventSpec(100, 1, 25.0)], seed=7)  # one exceedance
    manifest = json.loads(path.read_text())
    for fraction, expected in [(None, ExitStatus.VALIDATION_FAILED), (0.0, ExitStatus.VALIDATION_FAILED),
                               (1e-4, ExitStatus.OK)]:
        if fraction is not None:
            manifest["max_exceed_fraction"] = fraction
        path.write_text(json.dumps(manifest))
        out = tmp_path / f"camp_{fraction}"
        assert main(["campaign", str(path), "--out", str(out)]) == expected, fraction
        validation = json.loads((out / "baseline.json").read_text())["validation"]
        assert validation["exceed_count"] == 1
        assert (out / "campaign.json").exists() == (expected == ExitStatus.OK)


def test_campaign_non_utf8_manifest_exits_3(tmp_path, capsys):
    path = _campaign_dir(tmp_path, n_in=1)
    path.write_bytes(path.read_bytes().replace(b"flickering", b"flicker\xffing"))
    assert main(["campaign", str(path), "--out", str(tmp_path / "camp")]) == ExitStatus.BAD_INPUT
    err = capsys.readouterr().err
    assert "manifest.json" in err and "UTF-8" in err


def test_campaign_missing_record_exits_2(tmp_path):
    # in1.csv is read and analyzed first, but nothing is written before in2.csv is read
    manifest = _campaign_dir(tmp_path)
    (tmp_path / "in2.csv").unlink()
    out = tmp_path / "camp"
    assert main(["campaign", str(manifest), "--out", str(out)]) == ExitStatus.IO_ERROR
    assert not out.exists()


# --- apd ---------------------------------------------------------------------


def test_apd_pair_writes_three_columns(tmp_path):
    wgn = tmp_path / "wgn.csv"
    in_rec = tmp_path / "in.csv"
    _write_wgn(wgn, n=5000)
    _write_in(in_rec, [BurstEventSpec(1000, 20, 25.0)], n=5000, seed=41)
    out = tmp_path / "apd"
    assert main(["apd", str(wgn), str(in_rec), "--out", str(out)]) == ExitStatus.OK
    lines = (out / "apd.csv").read_text().splitlines()
    assert lines[0] == "level_dbm,exceedance_wgn,exceedance_in"


def test_apd_single_record_two_columns(tmp_path):
    wgn = tmp_path / "wgn.csv"
    _write_wgn(wgn, n=5000)
    out = tmp_path / "apd"
    assert main(["apd", str(wgn), "--out", str(out)]) == ExitStatus.OK
    lines = (out / "apd.csv").read_text().splitlines()
    assert lines[0] == "level_dbm,exceedance"


def test_apd_grid_flag_sets_spacing(tmp_path):
    wgn = tmp_path / "wgn.csv"
    _write_wgn(wgn, n=5000)
    out = tmp_path / "apd"
    assert main(["apd", str(wgn), "--grid-db", "0.1", "--out", str(out)]) == ExitStatus.OK
    lines = (out / "apd.csv").read_text().splitlines()[1:]
    levels = [float(line.split(",")[0]) for line in lines]
    assert np.allclose(np.diff(levels), 0.1)


def test_apd_non_utf8_record_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"# sample_rate_hz=8001\n-80.0\n\xff\xfe\n")
    assert main(["apd", str(path), "--out", str(tmp_path / "apd")]) == ExitStatus.BAD_INPUT
    err = capsys.readouterr().err
    assert "bad.csv" in err and "UTF-8" in err


def test_apd_infinite_frequency_header_exits_3(tmp_path, capsys):
    path = tmp_path / "freq.csv"
    path.write_text("# sample_rate_hz=8001\n# frequency_khz=1e999\n-80.0\n")
    assert main(["apd", str(path), "--out", str(tmp_path / "apd")]) == ExitStatus.BAD_INPUT
    err = capsys.readouterr().err
    assert "freq.csv" in err and "frequency_khz" in err and "Traceback" not in err


def test_apd_grid_too_fine_exits_3(tmp_path, capsys):
    wgn = tmp_path / "wgn.csv"
    _write_wgn(wgn, n=5000)
    out = tmp_path / "apd"
    assert main(["apd", str(wgn), "--grid-db", "1e-12", "--out", str(out)]) == ExitStatus.BAD_INPUT
    assert "points" in capsys.readouterr().err
    assert not (out / "apd.csv").exists()


# --- simulate ----------------------------------------------------------------


def test_simulate_writes_record_with_expected_rms(tmp_path):
    out = tmp_path / "sim"
    code = main(["simulate", "--n", "32004", "--mean-dbm", "-100", "--seed", "7", "--out", str(out)])
    assert code == ExitStatus.OK
    record = io.read_record(out / "record.csv")
    assert len(record) == 32004
    assert record.kind == "WGN"
    from innoise.baseline import compute_rms_level

    assert compute_rms_level(record) == pytest.approx(-100.0, abs=0.15)


def test_simulate_with_events_writes_ground_truth(tmp_path):
    spec = tmp_path / "events.json"
    spec.write_text(
        json.dumps(
            [
                {"start_idx": 1000 + 500 * i, "length_samples": 10, "level_offset_db": 25.0}
                for i in range(5)
            ]
        )
    )
    out = tmp_path / "sim"
    code = main([
        "simulate", "--n", "10000", "--mean-dbm", "-100", "--seed", "3",
        "--events", str(spec), "--out", str(out),
    ])
    assert code == ExitStatus.OK
    truth = json.loads((out / "ground_truth.json").read_text())
    assert truth["n_events"] == 5
    assert len(truth["spans"]) == 5
    assert io.read_record(out / "record.csv").kind == "IN"


def test_simulate_bad_sample_rate_exits_3(tmp_path, capsys):
    for rate in ("-5", "inf", "0"):
        out = tmp_path / f"sim_{rate}"
        code = main([
            "simulate", "--n", "100", "--mean-dbm", "-100", "--seed", "3",
            "--sample-rate-hz", rate, "--out", str(out),
        ])
        assert code == ExitStatus.BAD_INPUT, rate
        assert "sample_rate_hz" in capsys.readouterr().err
        assert not (out / "record.csv").exists()


def test_simulate_level_overflow_exits_3(tmp_path, capsys):
    for mean in ("1e308", "3082"):  # beyond the float range in mW; overflows when scaled
        out = tmp_path / f"sim_{mean}"
        code = main([
            "simulate", "--n", "1000", "--mean-dbm", mean, "--seed", "1", "--out", str(out),
        ])
        assert code == ExitStatus.BAD_INPUT, mean
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not (out / "record.csv").exists()


def test_simulate_overlapping_events_exit_3(tmp_path):
    spec = tmp_path / "events.json"
    spec.write_text(
        json.dumps(
            [
                {"start_idx": 100, "length_samples": 50, "level_offset_db": 25.0},
                {"start_idx": 120, "length_samples": 10, "level_offset_db": 25.0},
            ]
        )
    )
    code = main([
        "simulate", "--n", "1000", "--mean-dbm", "-100", "--seed", "3",
        "--events", str(spec), "--out", str(tmp_path / "sim"),
    ])
    assert code == ExitStatus.BAD_INPUT


def test_simulate_malformed_event_spec_exit_3(tmp_path):
    spec = tmp_path / "events.json"
    spec.write_text('[{"start_idx": 1}]')
    code = main([
        "simulate", "--n", "1000", "--mean-dbm", "-100", "--seed", "3",
        "--events", str(spec), "--out", str(tmp_path / "sim"),
    ])
    assert code == ExitStatus.BAD_INPUT


# --- the output rule ---------------------------------------------------------

SIMULATE = ["simulate", "--n", "1000", "--mean-dbm", "-100", "--seed", "3"]

# Each failing input the tests above cover, run from a directory holding
# _failing_inputs' files, with the exit code it documents.
FAILING_RUNS = {
    "baseline missing file": (["baseline", "nope.csv"], ExitStatus.IO_ERROR),
    "baseline bad offset": (["baseline", "wgn.csv", "--offset-db", "0"], ExitStatus.BAD_INPUT),
    "baseline bad fraction": (
        ["baseline", "wgn.csv", "--max-exceed-fraction", "nan"], ExitStatus.BAD_INPUT
    ),
    "baseline overflow": (["baseline", "huge.csv"], ExitStatus.BAD_INPUT),
    "analyze missing baseline": (
        ["analyze", "wgn.csv", "--baseline", "nope.json"], ExitStatus.IO_ERROR
    ),
    "analyze malformed baseline": (
        ["analyze", "wgn.csv", "--baseline", "broken.json"], ExitStatus.BAD_INPUT
    ),
    "analyze overflow": (
        ["analyze", "huge.csv", "--baseline", "baseline.json", "--plot-data"], ExitStatus.BAD_INPUT
    ),
    "campaign malformed manifest": (["campaign", "bad_manifest.json"], ExitStatus.BAD_INPUT),
    "campaign non-UTF-8 manifest": (["campaign", "latin1.json"], ExitStatus.BAD_INPUT),
    "analyze rate 1e-24": (
        ["analyze", "rate_1e-24.csv", "--baseline", "baseline.json"], ExitStatus.BAD_INPUT
    ),
    "analyze rate 1e-305": (
        ["analyze", "rate_1e-305.csv", "--baseline", "baseline.json"], ExitStatus.BAD_INPUT
    ),
    "campaign rate 1e-160": (["campaign", "rate_manifest.json"], ExitStatus.BAD_INPUT),
    "apd non-UTF-8 record": (["apd", "latin1.csv"], ExitStatus.BAD_INPUT),
    "apd infinite frequency": (["apd", "freq.csv"], ExitStatus.BAD_INPUT),
    "apd grid too fine": (["apd", "wgn.csv", "--grid-db", "1e-12"], ExitStatus.BAD_INPUT),
    "apd missing second record": (["apd", "wgn.csv", "nope.csv"], ExitStatus.IO_ERROR),
    "simulate bad rate": ([*SIMULATE, "--sample-rate-hz", "-5"], ExitStatus.BAD_INPUT),
    "simulate overflow": (
        ["simulate", "--n", "1000", "--mean-dbm", "3082", "--seed", "1"], ExitStatus.BAD_INPUT
    ),
    "simulate missing events": ([*SIMULATE, "--events", "nope.json"], ExitStatus.IO_ERROR),
    "simulate malformed events": ([*SIMULATE, "--events", "bad_events.json"], ExitStatus.BAD_INPUT),
    "simulate overlapping events": ([*SIMULATE, "--events", "overlap.json"], ExitStatus.BAD_INPUT),
    "campaign deeply nested manifest": (["campaign", "deep.json"], ExitStatus.BAD_INPUT),
    "analyze deeply nested baseline": (
        ["analyze", "wgn.csv", "--baseline", "deep.json"], ExitStatus.BAD_INPUT
    ),
    "campaign over-long integer": (["campaign", "long_manifest.json"], ExitStatus.BAD_INPUT),
    "analyze over-long integer": (
        ["analyze", "wgn.csv", "--baseline", "long_baseline.json"], ExitStatus.BAD_INPUT
    ),
    "simulate over-long integer": (
        [*SIMULATE, "--events", "long_events.json"], ExitStatus.BAD_INPUT
    ),
    "analyze span power overflow": (
        ["analyze", "overflow.csv", "--baseline", "baseline.json"], ExitStatus.BAD_INPUT
    ),
    "campaign span power overflow": (["campaign", "overflow_manifest.json"], ExitStatus.BAD_INPUT),
    "baseline power sum overflow": (["baseline", "overflow.csv"], ExitStatus.BAD_INPUT),
    "campaign baseline power sum overflow": (
        ["campaign", "overflow_wgn_manifest.json"], ExitStatus.BAD_INPUT
    ),
    "simulate event past int64": ([*SIMULATE, "--events", "past_int64.json"], ExitStatus.BAD_INPUT),
    # malloc refuses 800 TB at once, without touching memory
    "simulate 1e14 samples": (
        ["simulate", "--n", "100000000000000", "--mean-dbm", "-100", "--seed", "1"],
        ExitStatus.BAD_INPUT,
    ),
    "simulate past numpy's largest array": (
        ["simulate", "--n", str(2**63), "--mean-dbm", "-100", "--seed", "1"], ExitStatus.BAD_INPUT
    ),
}

# the file a case's error line names: below 1e-3 Hz, the durations overflow
# the report's Decimal rounding, the campaign's deviation or a float; a JSON
# file nested too deeply or holding an integer of more digits than Python
# converts fails in the decoder; a record holding a level outside
# [-3000, 2900] dBm, whose linear powers could sum past the float range, is
# named with the sample's line
NAMED_FILES = {
    "analyze rate 1e-24": "rate_1e-24.csv",
    "analyze rate 1e-305": "rate_1e-305.csv",
    "campaign rate 1e-160": "rate_1e-160_a.csv",
    "campaign deeply nested manifest": "deep.json",
    "analyze deeply nested baseline": "deep.json",
    "campaign over-long integer": "long_manifest.json",
    "analyze over-long integer": "long_baseline.json",
    "simulate over-long integer": "long_events.json",
    "analyze span power overflow": "overflow.csv: line 3: 3082.0 dBm",
    "campaign span power overflow": "overflow.csv: line 3: 3082.0 dBm",
    "baseline power sum overflow": "overflow.csv: line 3: 3082.0 dBm; "
    "a level must be finite and in [-3000, 2900] dBm",
    "campaign baseline power sum overflow": "overflow.csv: line 3",
    "simulate 1e14 samples": "n = 100000000000000 samples do not fit in memory",
    "simulate past numpy's largest array": "n = 9223372036854775808 samples",
    "simulate event past int64": f"event 0 spans [{10**30}, {10**30 + 4}] outside record",
}


def _write_rate_record(path, rate, burst_len):
    """A record at ``rate`` holding one burst of ``burst_len`` samples at -60 dBm."""
    path.write_text(f"# sample_rate_hz={rate}\n-100.0\n" + "-60.0\n" * burst_len + "-100.0\n")


def _write_manifest(directory, name, records):
    (directory / name).write_text(json.dumps({
        "wgn_record": "wgn.csv", "in_records": records, "event": "e", "frequency_khz": 1910.0,
    }))


def _failing_inputs(directory):
    _write_wgn(directory / "wgn.csv", n=2000)
    (directory / "huge.csv").write_text("# sample_rate_hz=8001\n-80.0\n1e308\n-90.0\n")
    (directory / "baseline.json").write_text(
        '{"rms_dbm": -100.0, "offset_db": 13.0, "threshold_dbm": -87.0}'
    )
    (directory / "broken.json").write_text("{broken")
    (directory / "bad_manifest.json").write_text(json.dumps({
        "wgn_record": "wgn.csv", "in_records": ["in.csv"], "event": "e",
        "frequency_khz": 1910.0, "offset_db": "abc",
    }))
    (directory / "latin1.json").write_bytes(b'{"event": "\xff"}')
    (directory / "latin1.csv").write_bytes(b"# sample_rate_hz=8001\n-80.0\n\xff\xfe\n")
    (directory / "freq.csv").write_text("# sample_rate_hz=8001\n# frequency_khz=1e999\n-80.0\n")
    (directory / "bad_events.json").write_text('[{"start_idx": 1}]')
    (directory / "overlap.json").write_text(json.dumps([
        {"start_idx": 100, "length_samples": 50, "level_offset_db": 25.0},
        {"start_idx": 120, "length_samples": 10, "level_offset_db": 25.0},
    ]))
    _write_rate_record(directory / "rate_1e-24.csv", "1e-24", 1)
    _write_rate_record(directory / "rate_1e-305.csv", "1e-305", 2)
    _write_rate_record(directory / "rate_1e-160_a.csv", "1e-160", 1)
    _write_rate_record(directory / "rate_1e-160_b.csv", "1e-160", 2)
    _write_manifest(directory, "rate_manifest.json", ["rate_1e-160_a.csv", "rate_1e-160_b.csv"])
    (directory / "deep.json").write_text("[" * 100_000)
    digits = "1" * 5001
    (directory / "long_manifest.json").write_text(
        '{"wgn_record": "wgn.csv", "in_records": ["in.csv"], "event": "e", '
        f'"frequency_khz": {digits}}}'
    )
    (directory / "long_baseline.json").write_text(
        f'{{"rms_dbm": {digits}, "offset_db": 13.0, "threshold_dbm": -87.0}}'
    )
    (directory / "long_events.json").write_text(
        f'[{{"start_idx": {digits}, "length_samples": 5, "level_offset_db": 25.0}}]'
    )
    # each sample's power is finite (about 1.6e308 mW), the sum of the two is
    # not: 3082 dBm is outside the level range
    (directory / "overflow.csv").write_text("# sample_rate_hz=8001\n-100.0\n3082\n3082\n-100.0\n")
    _write_rate_record(directory / "one_burst.csv", "8001", 1)
    _write_manifest(directory, "overflow_manifest.json", ["one_burst.csv", "overflow.csv"])
    (directory / "overflow_wgn_manifest.json").write_text(json.dumps({
        "wgn_record": "overflow.csv", "in_records": ["one_burst.csv"], "event": "e",
        "frequency_khz": 1910.0,
    }))
    (directory / "past_int64.json").write_text(
        f'[{{"start_idx": {10**30}, "length_samples": 5, "level_offset_db": 25.0}}]'
    )


@pytest.mark.parametrize("case", FAILING_RUNS)
def test_failing_run_creates_no_out(tmp_path, monkeypatch, capsys, case):
    argv, expected = FAILING_RUNS[case]
    _failing_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "out"]) == expected
    assert f"error: {NAMED_FILES.get(case, '')}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_slowest_sample_rate_runs(tmp_path, monkeypatch):
    _failing_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    _write_rate_record(tmp_path / "slow_a.csv", "1e-3", 1)
    _write_rate_record(tmp_path / "slow_b.csv", "1e-3", 2)
    _write_manifest(tmp_path, "slow.json", ["slow_a.csv", "slow_b.csv"])
    argv = ["analyze", "slow_b.csv", "--baseline", "baseline.json", "--plot-data", "--out", "a"]
    assert main(argv) == ExitStatus.OK
    assert "Average Burst Duration (ms),2000000.00" in (tmp_path / "a/measurement.csv").read_text()
    assert main(["campaign", "slow.json", "--out", "c"]) == ExitStatus.OK
    summary = (tmp_path / "c/campaign.csv").read_text()
    assert "Standard Deviation of Duration (ms),707106.78" in summary


def test_failed_write_leaves_no_file(tmp_path, monkeypatch, capsys):
    _, baseline_json = _run_baseline(tmp_path)
    in_path = tmp_path / "in.csv"
    _write_in(in_path, [BurstEventSpec(1000, 10, 25.0)])
    argv = ["analyze", str(in_path), "--baseline", str(baseline_json), "--plot-data"]
    earlier = tmp_path / "earlier"
    assert main([*argv, "--out", str(earlier)]) == ExitStatus.OK
    before = {p.name: p.read_bytes() for p in earlier.iterdir()}

    def write_then_fail(record, burst_set, path):
        Path(path).write_text("time_ms,level_dbm,burst_id\n0.0,")
        raise OSError("No space left on device")

    monkeypatch.setattr(io, "write_plot_data", write_then_fail)
    fresh = tmp_path / "fresh"
    assert main([*argv, "--out", str(fresh)]) == ExitStatus.IO_ERROR
    assert not fresh.exists()
    # a failed run into an earlier run's directory leaves that run's files whole
    assert main([*argv, "--out", str(earlier)]) == ExitStatus.IO_ERROR
    assert {p.name: p.read_bytes() for p in earlier.iterdir()} == before
    assert capsys.readouterr().err.count("No space left on device") == 2


def test_outputs_hold_no_cr_where_text_files_end_lines_in_crlf(tmp_path, monkeypatch):
    # a text-mode write turns each LF into os.linesep, which _pyio's text
    # layer reads when a file is opened: this runs every writer as on Windows
    _run_baseline(tmp_path)
    _write_in(tmp_path / "in.csv", [BurstEventSpec(1000, 10, 25.0)])
    _write_manifest(tmp_path, "manifest.json", ["in.csv"])
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "linesep", "\r\n")
    monkeypatch.setattr(pathlib, "io", _pyio)
    argv = ["analyze", "in.csv", "--baseline", "base_out/baseline.json", "--plot-data"]
    assert main([*argv, "--main-burst", "--out", "a"]) == ExitStatus.OK
    assert main(["campaign", "manifest.json", "--out", "c"]) == ExitStatus.OK
    outputs = sorted(p.name for p in [*Path("a").iterdir(), *Path("c").iterdir()])
    assert outputs == [
        "baseline.json", "campaign.csv", "campaign.json", "measurement.csv", "measurement.json",
        "measurement_001.csv", "measurement_001.json", "plot.csv",
    ]
    for path in [*Path("a").iterdir(), *Path("c").iterdir()]:
        assert b"\r" not in path.read_bytes(), path


# --- exit codes on any record bytes ------------------------------------------

# each run's arguments but --out; {rec} is the drawn record
RECORD_RUNS = [
    ["baseline", "{rec}"],
    ["analyze", "{rec}", "--baseline", "{base}", "--plot-data", "--main-burst"],
    ["apd", "{rec}"],
    ["apd", "{wgn}", "{rec}"],
    ["apd", "{wgn}", "{rec}", "--grid-db"],
]


@pytest.fixture(scope="module")
def record_inputs(tmp_path_factory):
    """A clean WGN record, its baseline, and its bytes and an IN record's."""
    directory = tmp_path_factory.mktemp("record_runs")
    wgn, in_path = directory / "wgn.csv", directory / "in.csv"
    _write_wgn(wgn, n=1000)
    _write_in(in_path, [BurstEventSpec(100 + 300 * i, 5, 25.0) for i in range(3)], n=1000)
    assert main(["baseline", str(wgn), "--out", str(directory)]) == ExitStatus.OK
    return wgn, directory / "baseline.json", [wgn.read_bytes(), in_path.read_bytes()]


# bytes spliced into a valid record: any, or those of numbers, lines and comments
SPLICES = st.binary(max_size=8) | st.text("0123456789.-e# \n\r", max_size=8).map(str.encode)


@st.composite
def record_bytes(draw, valid):
    """Random bytes, or one of the ``valid`` records with drawn line ends and
    a few byte runs spliced in, as often in its header as anywhere."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=300))
    data = draw(st.sampled_from(valid))
    data = data.replace(b"\n", draw(st.sampled_from([b"\n", b"\r\n", b"\r"])))
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, 80) | st.integers(0, len(data)))
        end = draw(st.integers(start, start + 8))
        data = data[:start] + draw(SPLICES) + data[end:]
    return data


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_record_exits_with_a_documented_code(record_inputs, data):
    # 0, 2 or 3, or 1 from a baseline whose WGN check failed; never an
    # exception, and with warnings as errors no warning either
    wgn, base, valid = record_inputs
    with tempfile.TemporaryDirectory() as directory:
        rec = Path(directory, "rec.csv")
        rec.write_bytes(data.draw(record_bytes(valid)))
        for i, run in enumerate(RECORD_RUNS):
            out = Path(directory, str(i))
            argv = [arg.format(rec=rec, wgn=wgn, base=base) for arg in run]
            err = StringIO()
            with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(err):
                code = main([*argv, "--out", str(out)])
            event(f"{run[0]} exits {code}")
            if code == ExitStatus.VALIDATION_FAILED:
                assert run[0] == "baseline" and "WGN check FAIL" in err.getvalue()
                assert json.loads((out / "baseline.json").read_text())["validation"]["passed"] is False
            else:
                assert code in (ExitStatus.OK, ExitStatus.IO_ERROR, ExitStatus.BAD_INPUT), (run, code)


# --- exit codes on any JSON input bytes ---------------------------------------

# each run's well-formed document and arguments but --out; {json} is the
# drawn file. At 3 dB above the r.m.s. level many WGN samples exceed.
JSON_RUNS = {
    "manifest": (MANIFEST, ["campaign", "{json}"]),
    "manifest failing WGN": ({**MANIFEST, "offset_db": 3.0}, ["campaign", "{json}"]),
    "baseline": (BASELINE, ["analyze", "{in}", "--baseline", "{json}", "--main-burst"]),
    "events": ([EVENT, {**EVENT, "start_idx": 500}], [*SIMULATE, "--events", "{json}"]),
}


@pytest.fixture(scope="module")
def json_inputs(tmp_path_factory):
    """A directory holding the records its manifest names."""
    directory = tmp_path_factory.mktemp("json_runs")
    _write_wgn(directory / "wgn.csv", n=1000)
    for i in (1, 2):
        _write_in(directory / f"in{i}.csv", [BurstEventSpec(100 * i, 5, 25.0)], n=1000, seed=i)
    return directory


@pytest.mark.parametrize("kind", JSON_RUNS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_json_input_exits_with_a_documented_code(json_inputs, kind, data):
    # 0, 2 or 3, or 1 from a campaign whose WGN check failed; never an
    # exception, and with warnings as errors no warning either
    document, run = JSON_RUNS[kind]
    path = json_inputs / "input.json"  # beside the records a manifest names
    path.write_bytes(data.draw(st.just(json.dumps(document).encode()) | json_texts(document)))
    argv = [arg.format(json=path, **{"in": json_inputs / "in1.csv"}) for arg in run]
    with tempfile.TemporaryDirectory() as directory:
        out = Path(directory, "out")
        err = StringIO()
        with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--out", str(out)])
        event(f"{run[0]} exits {code}")
        if code == ExitStatus.VALIDATION_FAILED:
            assert run[0] == "campaign" and "failed the impulse check" in err.getvalue()
            assert json.loads((out / "baseline.json").read_text())["validation"]["passed"] is False
        else:
            assert code in (ExitStatus.OK, ExitStatus.IO_ERROR, ExitStatus.BAD_INPUT), (run, code)
