"""The block writer behind every per-row table, against frozen references.

The golden inputs are shorter than one block of rows, so these tests patch
``io._ROWS_PER_WRITE`` to cross block edges: every writer must give the
bytes of a reference that builds the whole file in one piece.
"""

import json
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from innoise import io
from innoise.apd import apd_pair, compute_apd
from innoise.baseline import derive_threshold
from innoise.bursts import BurstSet, detect_bursts
from innoise.model import MeasurementMeta, SampleRecord
from innoise.stats import main_burst, measurement_stats
from innoise.synth import BurstEventSpec, generate_wgn, inject_bursts
from writer_oracle import write_apd_csv_oracle, write_plot_data_oracle

ROWS_PER_WRITE = st.sampled_from([1, 3, 4096])
# up to 3000 dBm: a SampleRecord needs a finite linear power for each sample
LEVELS = st.one_of(
    st.floats(min_value=-200.0, max_value=50.0),
    st.floats(min_value=-1e300, max_value=3000.0),
    st.sampled_from([-0.0, 0.0, 5e-324, -100.0, -1e16, 0.1]),
)
METAS = st.builds(
    MeasurementMeta,
    frequency_khz=st.one_of(st.none(), st.floats(min_value=1e-3, max_value=1e9), st.just(1910.0)),
    event=st.sampled_from(["", "turn on seven flickering tubes", "a = b"]),
    location=st.sampled_from(["", "faculty classroom"]),
    source=st.sampled_from(["", "fluorescent tubes"]),
    started_at=st.sampled_from([None, "", "2024-03-01T10:00:00"]),
)


@st.composite
def records(draw, min_size=1, max_size=40):
    levels = draw(st.lists(LEVELS, min_size=min_size, max_size=max_size))
    rate = draw(st.one_of(st.sampled_from([8001.0, 1.0, 3.0]), st.floats(1e-3, 1e7)))
    kind = draw(st.sampled_from(["IN", "WGN"]))
    return SampleRecord(levels, rate, kind=kind, meta=draw(METAS))


@st.composite
def burst_sets(draw, n, rate):
    """Ordered, disjoint spans within n samples, none or several, the last
    one reaching the last sample when drawn so."""
    spans, pos = [], 0
    for gap, length in draw(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 5)), max_size=8)):
        start = pos + gap
        if start >= n:
            break
        spans.append([start, min(start + length, n) - 1])
        pos = spans[-1][1] + 1
    if spans and draw(st.booleans()):
        spans[-1][1] = n - 1
    start, end = np.array(spans, dtype=np.int64).reshape(-1, 2).T
    amplitude = draw(st.lists(st.floats(-300.0, 300.0), min_size=len(spans), max_size=len(spans)))
    return BurstSet(start, end, end - start + 1, amplitude, -87.0, "in.csv", rate)


def _record_oracle(record):
    lines = [f"# sample_rate_hz={record.sample_rate_hz!r}", f"# kind={record.kind}"]
    for key in ("frequency_khz", "event", "location", "source", "started_at"):
        value = getattr(record.meta, key)
        if value is None or value == "":
            continue
        lines.append(f"# {key}={value!r}" if isinstance(value, float) else f"# {key}={value}")
    return "\n".join(lines + [repr(float(v)) for v in record.levels]) + "\n"


def _report_oracle(stats, burst_set, stats_excluding):
    payload = {
        "record_id": burst_set.record_id,
        "threshold_dbm": burst_set.threshold_dbm,
        "sample_rate_hz": burst_set.sample_rate_hz,
    }
    payload.update(io._to_json(stats))
    if stats_excluding is not None:
        payload["stats_excluding_main"] = io._to_json(stats_excluding)
    columns = (burst_set.start_ms, burst_set.duration_ms, burst_set.amplitude_dbm)
    payload["bursts"] = [
        {"start_ms": s, "duration_ms": d, "amplitude_dbm": a}
        for s, d, a in zip(*(c.tolist() for c in columns))
    ]
    return json.dumps(payload, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(data=st.data(), rows=ROWS_PER_WRITE)
def test_record_report_and_plot_writers_match_references(tmp_path_factory, data, rows):
    record = data.draw(records())
    burst_set = data.draw(burst_sets(len(record), record.sample_rate_hz))
    stats, stats_excluding = measurement_stats(burst_set), None
    if len(burst_set) and data.draw(st.booleans()):
        longest, stats_excluding = main_burst(burst_set)
        stats = replace(stats, main_burst=longest)
    base = tmp_path_factory.getbasetemp()
    with mock.patch.object(io, "_ROWS_PER_WRITE", rows):
        io.write_record(record, base / "record.csv")
        io.write_measurement_report(stats, burst_set, base / "m.json", stats_excluding)
        io.write_plot_data(record, burst_set, base / "plot.csv")
    write_plot_data_oracle(record, burst_set, base / "plot_oracle.csv")
    assert (base / "record.csv").read_text() == _record_oracle(record)
    assert (base / "m.json").read_text() == _report_oracle(stats, burst_set, stats_excluding)
    assert (base / "plot.csv").read_bytes() == (base / "plot_oracle.csv").read_bytes()
    assert io.read_record(base / "record.csv").levels.tobytes() == record.levels.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    first=records(max_size=30),
    second=st.none() | records(max_size=30),
    grid_db=st.none() | st.floats(0.05, 50.0),
    rows=ROWS_PER_WRITE,
)
def test_apd_writer_matches_reference(tmp_path_factory, first, second, grid_db, rows):
    if grid_db is not None:  # a uniform grid over 250 dB at most
        first = replace(first, levels=np.clip(first.levels, -200.0, 50.0))
        if second is not None:
            second = replace(second, levels=np.clip(second.levels, -200.0, 50.0))
    if second is None:
        curves = [compute_apd(first, grid_db=grid_db)]
    else:
        curves = apd_pair(first, second, grid_db=grid_db)
    base = tmp_path_factory.getbasetemp()
    with mock.patch.object(io, "_ROWS_PER_WRITE", rows):
        io.write_apd_csv(curves, base / "apd.csv")
    write_apd_csv_oracle(curves, base / "apd_oracle.csv")
    assert (base / "apd.csv").read_bytes() == (base / "apd_oracle.csv").read_bytes()


def _peak(write, *args):
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def export_pair():
    """The export benchmark's sizes: a 10-s pair at 8001 S/s, 400 bursts in the IN record."""
    n = 80_010
    wgn = generate_wgn(n, -100.0, seed=1)
    events = [BurstEventSpec(200 * k + 50, 12, 25.0) for k in range(400)]
    record, _ = inject_bursts(generate_wgn(n, -100.0, seed=2), events)
    return wgn, record


def test_apd_writer_streams_its_rows(tmp_path, export_pair):
    curves = apd_pair(*export_pair)
    assert curves[0].levels_dbm.size > 150_000
    peak = _peak(io.write_apd_csv, curves, tmp_path / "apd.csv")
    # joining the whole file in memory peaked at 35.7 MB traced
    assert peak < 35.7e6 / 4
    write_apd_csv_oracle(curves, tmp_path / "apd_oracle.csv")
    assert (tmp_path / "apd.csv").read_bytes() == (tmp_path / "apd_oracle.csv").read_bytes()


def test_plot_writer_streams_its_rows(tmp_path, export_pair):
    record = export_pair[1]
    burst_set = detect_bursts(record, derive_threshold(-100.0), record_id="in.csv")
    assert len(burst_set) == 400
    peak = _peak(io.write_plot_data, record, burst_set, tmp_path / "plot.csv")
    # joining the whole file in memory peaked at 14.5 MB traced
    assert peak < 14.5e6 / 4
    write_plot_data_oracle(record, burst_set, tmp_path / "plot_oracle.csv")
    assert (tmp_path / "plot.csv").read_bytes() == (tmp_path / "plot_oracle.csv").read_bytes()
