import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from innoise import io, numtext
from innoise.apd import apd_pair, compute_apd
from innoise.baseline import WgnValidation, derive_threshold
from innoise.bursts import BurstSet, detect_bursts
from innoise.model import ConfigError, DomainError, FormatError, MeasurementMeta, SampleRecord
from innoise.stats import (
    MeasurementStats,
    aggregate_campaign,
    main_burst,
    measurement_stats,
)
from innoise.synth import BurstEventSpec, generate_wgn, inject_bursts
from report_oracle import read_campaign_report, read_measurement_report, write_manifest

META = MeasurementMeta(frequency_khz=1910.0, event="turn on seven flickering tubes")


def _record(levels=(-80.0, -75.5, -91.25), rate=8001.0, meta=META):
    return SampleRecord(levels=list(levels), sample_rate_hz=rate, meta=meta)


def _detected(seed=3, n=4000, events=((500, 10, 25.0), (2000, 6, 22.0))):
    wgn = generate_wgn(n, -100.0, seed=seed)
    record, _ = inject_bursts(wgn, [BurstEventSpec(*e) for e in events])
    base = derive_threshold(-100.0)
    return record, detect_bursts(record, base, record_id="records/in_001.csv")


# --- records -----------------------------------------------------------------


def test_record_write_read_round_trip(tmp_path):
    record = _record()
    path = tmp_path / "rec.csv"
    io.write_record(record, path)
    back = io.read_record(path)
    assert np.array_equal(back.levels, record.levels)
    assert back.sample_rate_hz == record.sample_rate_hz
    assert back.meta == record.meta
    # second write is byte-identical
    path2 = tmp_path / "rec2.csv"
    io.write_record(back, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("field, text", [
    ("event", "lamp on\n# kind=WGN"),
    ("location", "lab\r\n-50.0"),
    ("source", "tubes\r"),
    ("started_at", "\n2024-01-01"),
])
def test_record_writer_refuses_a_line_break_in_meta_text(tmp_path, field, text):
    # written verbatim, the text would end its header line and the rest would
    # read back as a header line or a sample: a record of 10 samples would
    # gain a location or an 11th sample
    record = _record(levels=[-80.0] * 10, meta=MeasurementMeta(**{field: text}))
    path = tmp_path / "rec.csv"
    with pytest.raises(ConfigError, match=f"^{field} must not hold a line break"):
        io.write_record(record, path)
    assert not path.exists()


@pytest.mark.parametrize("field, text", [
    ("event", " lamp "),
    ("location", "\x0broof"),
    ("source", "tube\t"),
    ("started_at", "2024-01-01\x85"),
])
def test_record_writer_refuses_meta_text_in_whitespace(tmp_path, field, text):
    # the reader strips a header value, so " lamp " would read back as "lamp"
    record = _record(levels=[-80.0] * 10, meta=MeasurementMeta(**{field: text}))
    path = tmp_path / "rec.csv"
    with pytest.raises(ConfigError, match=f"^{field} must not begin or end with whitespace"):
        io.write_record(record, path)
    assert not path.exists()


META_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"))


@settings(max_examples=200, deadline=None)
@given(
    event=META_TEXT, location=META_TEXT, source=META_TEXT,
    started_at=st.none() | META_TEXT.filter(bool),
)
def test_meta_text_round_trips_through_a_record(tmp_path_factory, event, location, source, started_at):
    texts = {"event": event, "location": location, "source": source, "started_at": started_at}
    record = _record(meta=MeasurementMeta(frequency_khz=1910.0, **texts))
    path = tmp_path_factory.getbasetemp() / "meta.csv"
    path.unlink(missing_ok=True)
    # the reader strips a header value, so the writer refuses text it would change
    if any(t is not None and t != t.strip() for t in texts.values()):
        with pytest.raises(ConfigError, match="must not begin or end with whitespace"):
            io.write_record(record, path)
        assert not path.exists()
        return
    io.write_record(record, path)
    back = io.read_record(path)
    assert back.meta == record.meta
    assert np.array_equal(back.levels, record.levels)


def test_read_four_second_capture(tmp_path):
    path = tmp_path / "long.csv"
    lines = ["# sample_rate_hz=8001"] + ["-85.0"] * 32004
    path.write_text("\n".join(lines) + "\n")
    record = io.read_record(path)
    assert len(record) == 32004
    assert record.sample_rate_hz == 8001.0


def test_read_record_header_only_is_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# sample_rate_hz=8001\n")
    with pytest.raises(FormatError, match="empty record"):
        io.read_record(path)


def test_read_record_names_malformed_line(tmp_path):
    path = tmp_path / "bad.csv"
    lines = ["# sample_rate_hz=8001"] + ["-85.0"] * 38 + ["abc"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="line 40"):
        io.read_record(path)


def test_read_record_rejects_nan_sample(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("# sample_rate_hz=8001\n-85.0\nnan\n")
    with pytest.raises(FormatError, match="line 3"):
        io.read_record(path)


def test_read_record_requires_sample_rate(tmp_path):
    path = tmp_path / "norate.csv"
    path.write_text("# frequency_khz=1910\n-85.0\n")
    with pytest.raises(FormatError, match="sample_rate_hz"):
        io.read_record(path)
    for rate in ("-5", "inf", "fast"):
        path.write_text(f"# sample_rate_hz={rate}\n-85.0\n")
        with pytest.raises(FormatError, match="norate.csv: .*sample_rate_hz"):
            io.read_record(path)


def test_read_record_names_a_bad_frequency_before_a_bad_level(tmp_path):
    # the meta is built, and its frequency checked, before the record's levels
    path = tmp_path / "both.csv"
    path.write_text("# sample_rate_hz=8001\n# frequency_khz=-1\n-85.0\n3000\n")
    with pytest.raises(FormatError, match=r"^both\.csv: frequency_khz must be > 0 and finite"):
        io.read_record(path)


@pytest.mark.parametrize("line", ["# kind=WGN\n", "# kind=IN\n", "# kind=other\n"])
def test_read_record_ignores_an_old_kind_line(tmp_path, line):
    # a command gives a record its role by position; a kind line is an ignored key
    body = "# frequency_khz=1910\n# event=lamp on\n-85.0\n-60.25\n"
    plain, old = tmp_path / "plain.csv", tmp_path / "old.csv"
    plain.write_text("# sample_rate_hz=8001\n" + body)
    old.write_text("# sample_rate_hz=8001\n" + line + body)
    want, got = io.read_record(plain), io.read_record(old)
    assert got.levels.tobytes() == want.levels.tobytes()
    assert (got.sample_rate_hz, got.meta) == (want.sample_rate_hz, want.meta)
    assert want.meta == MeasurementMeta(frequency_khz=1910.0, event="lamp on")


def test_record_writer_spells_each_sample_as_repr(tmp_path):
    record = generate_wgn(3 * numtext._ROWS_PER_WRITE + 5, -100.0, seed=6)
    path = tmp_path / "rec.csv"
    io.write_record(record, path)
    lines = ["# sample_rate_hz=8001.0"] + [repr(float(v)) for v in record.levels]
    assert path.read_text() == "\n".join(lines) + "\n"


def test_read_record_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        io.read_record(tmp_path / "nope.csv")


# --- manifests ---------------------------------------------------------------


def _manifest_payload(**overrides):
    payload = {
        "wgn_record": "wgn.csv",
        "in_records": ["in1.csv", "in2.csv"],
        "event": META.event,
        "frequency_khz": 1910.0,
    }
    payload.update(overrides)
    return payload


def test_manifest_round_trip(tmp_path):
    import json

    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(_manifest_payload(location="lab", offset_db=12.0)))
    manifest = io.read_manifest(path)
    assert manifest.in_records == ("in1.csv", "in2.csv")
    assert manifest.offset_db == 12.0
    path2 = tmp_path / "copy.json"
    write_manifest(manifest, path2)
    again = io.read_manifest(path2)
    assert again == manifest
    path3 = tmp_path / "copy2.json"
    write_manifest(again, path3)
    assert path2.read_bytes() == path3.read_bytes()


def test_manifest_defaults_offset_to_13(tmp_path):
    import json

    path = tmp_path / "m.json"
    path.write_text(json.dumps(_manifest_payload()))
    assert io.read_manifest(path).offset_db == 13.0


def test_manifest_missing_key_named(tmp_path):
    import json

    payload = _manifest_payload()
    del payload["frequency_khz"]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError, match="frequency_khz"):
        io.read_manifest(path)
    for key, value in [
        ("offset_db", "abc"),
        ("location", 5),
        ("frequency_khz", -1910.0),
        ("in_records", "in1.csv"),
        ("in_records", ["in1.csv", 2]),
        ("wgn_record", None),
    ]:
        path.write_text(json.dumps(_manifest_payload(**{key: value})))
        with pytest.raises(FormatError, match=key):
            io.read_manifest(path)


@pytest.mark.parametrize(
    "frequency_khz",
    [math.inf, math.nan, 0.0, -5.0, "1910", True, pytest.param(10**400, id="int-past-float"), None],
)
def test_manifest_refuses_a_frequency_that_is_not_positive_and_finite(frequency_khz):
    # the rule and the message MeasurementMeta keeps, so a library caller's
    # manifest is held to it too; the key is required, where a record's meta
    # may leave it out, so None is the manifest's own refusal
    if frequency_khz is None:
        error, message = ConfigError, "manifest needs a frequency_khz"
    else:
        error = DomainError
        message = f"frequency_khz must be > 0 and finite when present, got {frequency_khz!r}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        io.CampaignManifest("wgn.csv", ("in1.csv",), META.event, frequency_khz)


def test_manifest_rejects_empty_and_duplicate_records(tmp_path):
    import json

    path = tmp_path / "m.json"
    path.write_text(json.dumps(_manifest_payload(in_records=[])))
    with pytest.raises(FormatError):
        io.read_manifest(path)
    path.write_text(json.dumps(_manifest_payload(in_records=["in1.csv", "in1.csv"])))
    with pytest.raises(FormatError, match="distinct"):
        io.read_manifest(path)


# --- baseline reports --------------------------------------------------------


def test_baseline_report_round_trip(tmp_path):
    base = derive_threshold(-99.87654321, 13.0, source_record_id="wgn.csv")
    validation = WgnValidation(False, 2, (7, 9), -66.5)
    path = tmp_path / "baseline.json"
    io.write_baseline_report(base, validation, path)
    back_base, back_validation = io.read_baseline_report(path)
    assert back_base == base
    assert back_validation == validation
    # a hand-written threshold need only match rms + offset to 1e-9 dB
    path.write_text('{"rms_dbm": -119.3, "offset_db": 5.9, "threshold_dbm": -113.4}')
    hand_written, no_validation = io.read_baseline_report(path)
    assert hand_written.threshold_dbm == pytest.approx(-113.4, abs=1e-12)
    assert no_validation is None


def test_baseline_report_malformed(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        io.read_baseline_report(path)
    path.write_text('{"rms_dbm": -90.0}')
    with pytest.raises(FormatError, match="threshold_dbm"):
        io.read_baseline_report(path)
    for text, message in [
        ('{"rms_dbm": -90.0, "offset_db": 13.0, "threshold_dbm": -77.1}', "threshold_dbm"),
        ('{"rms_dbm": -90.0, "offset_db": 13.0, "threshold_dbm": "x"}', "threshold_dbm"),
        ('{"rms_dbm": -90.0, "offset_db": 0.0, "threshold_dbm": -90.0}', "offset_db"),
        ('{"offset_db": 13.0, "threshold_dbm": -77.0}', "rms_dbm"),
        ('{"rms_dbm": -90.0, "threshold_dbm": -77.0, "validation": {"passed": true}}', "exceed_count"),
        ('{"rms_dbm": -90.0, "threshold_dbm": -77.0, "validation": {"passed": 1, "exceed_count": 0,'
         ' "exceed_indices": [], "max_level_dbm": -95.0}}', "passed"),
        ('{"rms_dbm": -90.0, "threshold_dbm": -77.0, "validation": {"passed": false, "exceed_count": -3,'
         ' "exceed_indices": [7, 9], "max_level_dbm": -70.0}}', "^baseline.json: validation: exceed_count -3 is not"),
        ("[]", "expected a JSON object"),
    ]:
        path.write_text(text)
        with pytest.raises(FormatError, match=message):
            io.read_baseline_report(path)


# --- measurement reports -----------------------------------------------------


def test_measurement_report_contents_and_round_trip(tmp_path):
    record, burst_set = _detected()
    stats = measurement_stats(burst_set)
    path = tmp_path / "measurement.json"
    io.write_measurement_report(stats, burst_set, path)
    back = read_measurement_report(path)
    assert back == stats

    import json

    payload = json.loads(path.read_text())
    assert payload["n_bursts"] == stats.n_bursts == len(payload["bursts"])
    assert payload["record_id"] == "records/in_001.csv"
    first = payload["bursts"][0]
    assert set(first) == {"start_ms", "duration_ms", "amplitude_dbm"}
    assert first["start_ms"] == pytest.approx(
        burst_set.start_idx[0] * 1000.0 / burst_set.sample_rate_hz
    )

    csv_lines = (tmp_path / "measurement.csv").read_text().splitlines()
    assert csv_lines[0] == "parameter,value"
    assert csv_lines[1] == f"Number of Bursts,{stats.n_bursts}"
    assert len(csv_lines) == 5


def test_measurement_report_with_main_burst_round_trips(tmp_path):
    from dataclasses import replace

    record, burst_set = _detected()
    longest, stats_excluding = main_burst(burst_set)
    stats = replace(
        measurement_stats(burst_set), main_burst=longest, stats_excluding_main=stats_excluding
    )
    path = tmp_path / "measurement.json"
    io.write_measurement_report(stats, burst_set, path)
    assert read_measurement_report(path) == stats


def test_measurement_report_streams_its_rows(tmp_path):
    # the dense benchmark's set: a one-sample burst on every third of 80,010 samples
    n = 26_670
    start = 3 * np.arange(n)
    amplitude = -70.0 - 10.0 * np.random.default_rng(1).random(n)
    burst_set = BurstSet(start, start, np.ones(n), amplitude, -87.0, "dense.csv", 8001.0)
    stats = measurement_stats(burst_set)
    path = tmp_path / "measurement.json"
    tracemalloc.start()
    try:
        io.write_measurement_report(stats, burst_set, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # building the whole text in memory peaked at 17.1 MB traced
    assert peak < 17.1e6 / 2
    payload = {"record_id": "dense.csv", "threshold_dbm": -87.0, "sample_rate_hz": 8001.0}
    payload.update(io._to_json(stats))
    columns = (burst_set.start_ms, burst_set.duration_ms, burst_set.amplitude_dbm)
    payload["bursts"] = [
        {"start_ms": s, "duration_ms": d, "amplitude_dbm": a}
        for s, d, a in zip(*(c.tolist() for c in columns))
    ]
    assert path.read_text() == json.dumps(payload, indent=2) + "\n"


def test_zero_burst_report(tmp_path):
    record = generate_wgn(2000, -100.0, seed=50)
    burst_set = detect_bursts(record, derive_threshold(-100.0), record_id="quiet.csv")
    stats = measurement_stats(burst_set)
    path = tmp_path / "measurement.json"
    io.write_measurement_report(stats, burst_set, path)

    import json

    payload = json.loads(path.read_text())
    assert payload["n_bursts"] == 0
    assert "avg_duration_ms" not in payload
    assert payload["bursts"] == []
    csv_lines = (tmp_path / "measurement.csv").read_text().splitlines()
    assert "Average Burst Duration (ms)," in csv_lines[2]
    assert read_measurement_report(path) == stats


# --- campaign reports --------------------------------------------------------


def _reference_characterization():
    measured = [
        MeasurementStats(31, 0.53, -64.70, 118.91),
        MeasurementStats(30, 0.65, -66.21, 103.13),
    ]
    return aggregate_campaign(measured, [META] * 2)


def test_campaign_report_matches_reference_table(tmp_path):
    char = _reference_characterization()
    path = tmp_path / "campaign.json"
    io.write_campaign_report(char, path)
    rows = dict(
        line.split(",") for line in (tmp_path / "campaign.csv").read_text().splitlines()[1:]
    )
    assert float(rows["Number of Bursts"]) == 30.5
    assert float(rows["Average Burst Duration (ms)"]) == 0.59
    assert float(rows["Standard Deviation of Duration (ms)"]) == 0.08
    assert float(rows["Average Burst Amplitude (dBm)"]) == -65.46
    assert float(rows["Standard Deviation of Amplitude (dBm)"]) == 1.07
    assert float(rows["Average Burst Separation (ms)"]) == 111.02
    assert float(rows["Standard Deviation of Separation (ms)"]) == 11.16
    assert read_campaign_report(path) == char


def test_campaign_report_single_measurement(tmp_path):
    char = aggregate_campaign([MeasurementStats(31, 0.53, -64.70, 118.91)], [META])
    path = tmp_path / "campaign.json"
    io.write_campaign_report(char, path)

    import json

    payload = json.loads(path.read_text())
    assert "sd_duration_ms" not in payload
    rows = dict(
        line.split(",") for line in (tmp_path / "campaign.csv").read_text().splitlines()[1:]
    )
    assert rows["Standard Deviation of Duration (ms)"] == ""
    assert read_campaign_report(path) == char


# --- plot data ---------------------------------------------------------------


def test_plot_data_covers_burst_spans(tmp_path):
    record, burst_set = _detected(events=((500, 10, 25.0), (2000, 6, 22.0), (2600, 4, 24.0), (3500, 8, 26.0)))
    assert len(burst_set) == 4
    path = tmp_path / "plot.csv"
    io.write_plot_data(record, burst_set, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "time_ms,level_dbm,burst_id"
    assert len(lines) == len(record) + 1
    tagged = {}
    for i, line in enumerate(lines[1:]):
        tag = line.split(",")[2]
        if tag:
            tagged.setdefault(int(tag), []).append(i)
    assert sorted(tagged) == [1, 2, 3, 4]
    for burst_id, indices in tagged.items():
        row = burst_id - 1
        assert indices == list(range(burst_set.start_idx[row], burst_set.end_idx[row] + 1))


def test_plot_data_without_bursts(tmp_path):
    record = generate_wgn(100, -100.0, seed=51)
    burst_set = detect_bursts(record, derive_threshold(-100.0))
    path = tmp_path / "plot.csv"
    io.write_plot_data(record, burst_set, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 101
    assert all(line.endswith(",") for line in lines[1:])


def test_plot_data_rejects_foreign_burst_set(tmp_path):
    record, burst_set = _detected()
    short = generate_wgn(10, -100.0, seed=1)
    with pytest.raises(ConfigError):
        io.write_plot_data(short, burst_set, tmp_path / "plot.csv")


# --- APD csv -----------------------------------------------------------------


def test_apd_csv_single_curve(tmp_path):
    curve = compute_apd(_record(levels=(-80.0, -70.0, -60.0), meta=MeasurementMeta()))
    path = tmp_path / "apd.csv"
    io.write_apd_csv([curve], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "level_dbm,exceedance"
    assert len(lines) == 4  # header + one row per distinct level
    assert all(len(line.split(",")) == 2 for line in lines)


def test_apd_csv_pair(tmp_path):
    wgn = generate_wgn(1000, -100.0, seed=60)
    in_rec = generate_wgn(1000, -98.0, seed=61)
    curves = apd_pair(wgn, in_rec, grid_db=0.5)
    path = tmp_path / "apd.csv"
    io.write_apd_csv(curves, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "level_dbm,exceedance_wgn,exceedance_in"
    assert all(len(line.split(",")) == 3 for line in lines)


def test_apd_csv_takes_one_curve_or_a_pair(tmp_path):
    curve = compute_apd(_record(levels=(-80.0, -70.0), meta=MeasurementMeta()))
    path = tmp_path / "apd.csv"
    for curves in ([], [curve] * 3):
        with pytest.raises(ConfigError, match=f"expected 1 or 2 curves, got {len(curves)}"):
            io.write_apd_csv(curves, path)
        assert not path.exists()


def test_apd_csv_rejects_mismatched_grids(tmp_path):
    a = compute_apd(_record(levels=(-80.0, -70.0), meta=MeasurementMeta()))
    b = compute_apd(_record(levels=(-81.0, -70.0), meta=MeasurementMeta()))
    with pytest.raises(ConfigError):
        io.write_apd_csv([a, b], tmp_path / "apd.csv")


# --- event specs / ground truth ----------------------------------------------


def test_event_specs_round_trip(tmp_path):
    import json

    path = tmp_path / "events.json"
    path.write_text(
        json.dumps(
            [
                {"start_idx": 10, "length_samples": 5, "level_offset_db": 25.0},
                {"start_idx": 50, "length_samples": 3, "level_offset_db": 20.0, "shape": "decaying"},
            ]
        )
    )
    events = io.read_event_specs(path)
    assert events == [
        BurstEventSpec(10, 5, 25.0),
        BurstEventSpec(50, 3, 20.0, shape="decaying"),
    ]


def test_json_readers_skip_a_leading_byte_order_mark(tmp_path):
    # as Windows Notepad and Excel's "CSV UTF-8" save a file
    def with_bom(path):
        copy = path.with_name("bom_" + path.name)
        copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return copy

    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(_manifest_payload()))
    assert io.read_manifest(with_bom(manifest)) == io.read_manifest(manifest)
    baseline = tmp_path / "baseline.json"
    validation = WgnValidation(True, 0, (), -90.5)
    io.write_baseline_report(derive_threshold(-99.5), validation, baseline)
    assert io.read_baseline_report(with_bom(baseline)) == io.read_baseline_report(baseline)
    events = tmp_path / "events.json"
    events.write_text(json.dumps([{"start_idx": 10, "length_samples": 5, "level_offset_db": 25.0}]))
    assert io.read_event_specs(with_bom(events)) == [BurstEventSpec(10, 5, 25.0)]


def test_event_specs_errors(tmp_path):
    import json

    path = tmp_path / "events.json"
    path.write_text(json.dumps({"start_idx": 1}))
    with pytest.raises(FormatError, match="list"):
        io.read_event_specs(path)
    path.write_text(json.dumps([{"start_idx": 1}]))
    with pytest.raises(FormatError, match="length_samples"):
        io.read_event_specs(path)
    event = {"start_idx": 1, "length_samples": 5, "level_offset_db": 25.0}
    for key, value, message in [
        ("start_idx", "x", "start_idx"),
        ("start_idx", 1.5, "start_idx"),
        ("length_samples", 0, "length"),
        ("shape", "square", "shape"),
    ]:
        path.write_text(json.dumps([event, {**event, key: value}]))
        with pytest.raises(FormatError, match=rf"events\[1\].*{message}"):
            io.read_event_specs(path)


def test_ground_truth_file(tmp_path):
    import json

    events = [BurstEventSpec(10, 5, 25.0)]
    path = tmp_path / "gt.json"
    io.write_ground_truth([(10, 14)], events, path)
    payload = json.loads(path.read_text())
    assert payload["n_events"] == 1
    assert payload["spans"] == [[10, 14]]
    assert payload["events"][0]["shape"] == "constant"


# --- determinism -------------------------------------------------------------


def test_writers_are_deterministic(tmp_path):
    record, burst_set = _detected()
    stats = measurement_stats(burst_set)
    for name, writer in [
        ("rec.csv", lambda p: io.write_record(record, p)),
        ("m.json", lambda p: io.write_measurement_report(stats, burst_set, p)),
        ("c.json", lambda p: io.write_campaign_report(_reference_characterization(), p)),
        ("plot.csv", lambda p: io.write_plot_data(record, burst_set, p)),
    ]:
        first, second = tmp_path / f"a_{name}", tmp_path / f"b_{name}"
        writer(first)
        writer(second)
        assert first.read_bytes() == second.read_bytes(), name
