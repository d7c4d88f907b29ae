import json
from pathlib import Path

import numpy as np
import pytest

from innoise import io
from innoise.cli import ExitStatus, main
from innoise.synth import BurstEventSpec, generate_wgn, inject_bursts


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


def test_baseline_level_overflow_exits_3(tmp_path, capsys):
    # 10^(1e308/10) mW is beyond the float range: the r.m.s. level would be inf
    path = tmp_path / "huge.csv"
    path.write_text("# sample_rate_hz=8001\n-80.0\n1e308\n-90.0\n")
    out = tmp_path / "o"
    assert main(["baseline", str(path), "--out", str(out)]) == ExitStatus.BAD_INPUT
    err = capsys.readouterr().err
    assert "error:" in err and "finite" in err and "Traceback" not in err
    assert "huge.csv: sample at index 1: 1e+308 dBm" in err
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
    assert "huge.csv: sample at index 1: 1e+308 dBm" in err


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
}

# the record a rate case's error line names: below 1e-3 Hz, the durations
# overflow the report's Decimal rounding, the campaign's deviation or a float
RATE_FILES = {
    "analyze rate 1e-24": "rate_1e-24.csv",
    "analyze rate 1e-305": "rate_1e-305.csv",
    "campaign rate 1e-160": "rate_1e-160_a.csv",
}


def _write_rate_record(path, rate, burst_len):
    """A record at ``rate`` holding one burst of ``burst_len`` samples at -60 dBm."""
    path.write_text(f"# sample_rate_hz={rate}\n-100.0\n" + "-60.0\n" * burst_len + "-100.0\n")


def _write_rate_manifest(directory, name, records):
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
    _write_rate_manifest(directory, "rate_manifest.json", ["rate_1e-160_a.csv", "rate_1e-160_b.csv"])


@pytest.mark.parametrize("case", FAILING_RUNS)
def test_failing_run_creates_no_out(tmp_path, monkeypatch, capsys, case):
    argv, expected = FAILING_RUNS[case]
    _failing_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "out"]) == expected
    assert f"error: {RATE_FILES.get(case, '')}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_slowest_sample_rate_runs(tmp_path, monkeypatch):
    _failing_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    _write_rate_record(tmp_path / "slow_a.csv", "1e-3", 1)
    _write_rate_record(tmp_path / "slow_b.csv", "1e-3", 2)
    _write_rate_manifest(tmp_path, "slow.json", ["slow_a.csv", "slow_b.csv"])
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
