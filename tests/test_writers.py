"""The block writer behind every per-row table, against frozen references.

The golden inputs are shorter than one block of rows, so these tests patch
``numtext._ROWS_PER_WRITE`` to cross block edges: every writer must give the
bytes of a reference that builds the whole file in one piece.
"""

import json
import tracemalloc
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from innoise import io, numtext, records as record_csv
from innoise.apd import apd_pair, compute_apd
from innoise.baseline import derive_threshold
from innoise.bursts import BurstSet, detect_bursts
from innoise.model import LEVEL_MAX_DBM, LEVEL_MIN_DBM, MeasurementMeta, SampleRecord
from innoise.stats import main_burst, measurement_stats
from innoise.synth import BURST_SHAPES, BurstEventSpec, generate_wgn, inject_bursts
from writer_oracle import table_text_oracle, write_apd_csv_oracle, write_plot_data_oracle

ROWS_PER_WRITE = st.sampled_from([1, 3, 4096])
LEVELS = st.one_of(
    st.floats(min_value=-200.0, max_value=50.0),
    st.floats(min_value=LEVEL_MIN_DBM, max_value=LEVEL_MAX_DBM),
    st.sampled_from([LEVEL_MIN_DBM, LEVEL_MAX_DBM, -0.0, 0.0, 5e-324, -100.0, 0.1]),
)
# a small pool, so that a list drawn from it holds long runs of equal values
# and -0.0 next to 0.0
RUN_HEAVY = st.sampled_from([-0.0, 0.0, 5e-324, -100.0, 0.1])


def _from_bits(bits):
    """The double with the 64-bit pattern ``bits``."""
    return float(np.array([bits], np.uint64).view(np.float64)[0])


def _bit_neighbour(value, step):
    """The double whose bit pattern is ``step`` past ``value``'s."""
    return float((np.array([value]).view(np.int64) + step).view(np.float64)[0])


SHORT_DECIMALS = st.builds(
    lambda digits, exponent: float(f"{digits}e{exponent}"),
    st.integers(-(10**6), 10**6),
    st.integers(-12, 18),
)
# Doubles from 2**50 up to 2**54, where the scaled value X = |x| 10**(16 - e10)
# or a scaled midpoint between x and a neighbour lands exactly on a half or an
# integer: in [2**50, 2**51) X ends in .5 where x ends in .25 or .75, which
# _shortest hands to repr(), in [2**51, 2**52) the midpoints end in .5 and
# from 2**52 on they are integers, which it spells itself
LANDING = st.builds(
    lambda whole, part, sign: sign * (whole + part),
    st.integers(50, 53).flatmap(lambda e: st.integers(2**e, 2 ** (e + 1) - 1)),
    st.sampled_from([0.0, 0.25, 0.5, 0.75]),
    st.sampled_from([1.0, -1.0]),
)
# the values the array spelling of a float must get right, by class
HARD_FLOATS = st.one_of(
    st.integers(0, 2**64 - 1).map(_from_bits),
    st.builds(_bit_neighbour, SHORT_DECIMALS, st.integers(-3, 3)),
    st.builds(_bit_neighbour, st.sampled_from([1e-4, -1e-4, 1e16, -1e16]), st.integers(-3, 3)),
    st.integers(-70, 70).map(lambda k: 2.0**k) | st.integers(-7, 18).map(lambda k: float(f"1e{k}")),
    LANDING,
    st.sampled_from([0.0, -0.0]),
)
# the reader with its plain tier, and with every line handed to float()
TIERS = [
    pytest.param(True, id="plain-tier"),
    pytest.param(False, id="float-only"),
]
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
    levels = draw(
        st.lists(LEVELS, min_size=min_size, max_size=max_size)
        | st.lists(RUN_HEAVY, min_size=min_size, max_size=max_size)
    )
    rate = draw(st.one_of(st.sampled_from([8001.0, 1.0, 3.0]), st.floats(1e-3, 1e7)))
    return SampleRecord(levels, rate, meta=draw(METAS))


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
    amplitudes = st.floats(-300.0, 300.0) if draw(st.booleans()) else RUN_HEAVY
    amplitude = draw(st.lists(amplitudes, min_size=len(spans), max_size=len(spans)))
    return BurstSet(start, end, end - start + 1, amplitude, -87.0, "in.csv", rate)


def _spellings(cells):
    """The text of each row of float cells: its bytes but the 0 bytes."""
    return [bytes(row[row != 0]).decode() for row in cells]


@settings(max_examples=300)
@given(
    blocks=st.lists(
        st.lists(RUN_HEAVY | HARD_FLOATS, max_size=40) | st.lists(st.floats(), max_size=40),
        min_size=1,
        max_size=3,
    )
)
def test_spelled_is_the_repr_of_each_value(blocks):
    # the blocks of a row of columns are spelled in one call
    cells = numtext._float_cells([np.array(block, dtype=np.float64) for block in blocks])
    assert [_spellings(c) for c in cells] == [[repr(v) for v in block] for block in blocks]


@st.composite
def tables(draw, floats=RUN_HEAVY | st.floats()):
    """A separator, the literal pieces around a row's cells and 1-3
    equal-length columns of ``floats`` or of text cells, with no rows or
    several."""
    sep = draw(st.sampled_from(["\n", ",", "}{"]))
    n_columns, n_rows = draw(st.integers(1, 3)), draw(st.integers(0, 12))
    piece = st.lists(st.sampled_from(["{", "}", "{}", "%", "%s", sep, "x"]), max_size=3).map("".join)
    pieces = draw(st.lists(piece, min_size=n_columns + 1, max_size=n_columns + 1))
    if n_columns == 1 and draw(st.booleans()):
        pieces = ["", ""]  # write_record's rows: the bare cells
    texts = st.sampled_from([b"", b"1", b"12", b"{}", b"%"])
    columns = [
        np.array(draw(st.lists(floats, min_size=n_rows, max_size=n_rows)), dtype=np.float64)
        if draw(st.booleans())
        else np.array(draw(st.lists(texts, min_size=n_rows, max_size=n_rows)), dtype="S2")
        for _ in range(n_columns)
    ]
    return sep, pieces, columns


@settings(max_examples=300, deadline=None)
@given(table=tables(), rows=ROWS_PER_WRITE)
def test_write_table_matches_a_row_at_a_time(tmp_path_factory, table, rows):
    sep, pieces, columns = table
    path = tmp_path_factory.getbasetemp() / "table.txt"
    with mock.patch.object(numtext, "_ROWS_PER_WRITE", rows), path.open("wb") as fh:
        numtext._write_table(fh, "head\n", pieces, columns, sep=sep, tail="|tail\n")
    expected = table_text_oracle("head\n", pieces, columns, sep=sep, tail="|tail\n")
    assert path.read_bytes() == expected.encode("utf-8")


@settings(max_examples=400, deadline=None)
@given(table=tables(HARD_FLOATS), rows=ROWS_PER_WRITE)
def test_write_table_spells_hard_values_as_repr(tmp_path_factory, table, rows):
    sep, pieces, columns = table
    path = tmp_path_factory.getbasetemp() / "hard.txt"
    with mock.patch.object(numtext, "_ROWS_PER_WRITE", rows), path.open("wb") as fh:
        numtext._write_table(fh, "", pieces, columns, sep=sep, tail="")
    assert path.read_bytes() == table_text_oracle("", pieces, columns, sep=sep, tail="").encode()


def _bit_neighbours(values, k):
    """Every double within ``k`` bit patterns of each of ``values``."""
    bits = np.asarray(values, np.float64).view(np.int64)
    return (bits[:, None] + np.arange(-k, k + 1)).view(np.float64).ravel()


def test_write_table_spells_the_edges_of_the_array_spelling_as_repr(tmp_path):
    # from 2**52 on a scaled midpoint may land on an integer, next to a
    # power of ten the digits come nearest 10**17, and a power of two has a
    # narrower gap below it than above: each must still be spelled as repr()
    rng = np.random.default_rng(35)
    signs = (1.0, -1.0)
    sets = {
        "from 2**52": rng.choice(signs, 10**5) * rng.uniform(2.0**52, 1e16, 10**5),
        "near 10**p": _bit_neighbours(
            [s * float(f"1e{p}") for p in range(-4, 17) for s in signs], 40
        ),
        "near 2**e": _bit_neighbours([s * 2.0**e for e in range(-13, 53) for s in signs], 1),
    }
    for name, values in sets.items():
        path = tmp_path / "edges.txt"
        with path.open("wb") as fh:
            numtext._write_table(fh, "", ["", ""], [values])
        assert path.read_text().split("\n") == [repr(v) for v in values.tolist()] + [""], name


@pytest.mark.parametrize("exact", TIERS)
@settings(max_examples=200, deadline=None)
@given(
    levels=st.lists(
        LEVELS | HARD_FLOATS.filter(lambda v: LEVEL_MIN_DBM <= v <= LEVEL_MAX_DBM),
        min_size=1,
        max_size=40,
    ),
    chunk_chars=st.sampled_from([16, record_csv._CHUNK_CHARS]),
)
def test_record_round_trips_every_level_bit_for_bit(tmp_path_factory, exact, levels, chunk_chars):
    record = SampleRecord(levels, 8001.0)
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    with mock.patch.object(record_csv, "_CHUNK_CHARS", chunk_chars):
        record_csv.write_record(record, path)
        plain_levels = record_csv._plain_levels if exact else lambda block: None
        with mock.patch.object(record_csv, "_plain_levels", plain_levels):
            assert record_csv.read_record(path).levels.tobytes() == record.levels.tobytes()
    # a zero or a level of 0.1 or more in magnitude is written as a plain
    # line of at most 18 digits, which the reader parses as arrays
    body = b"".join(line for line in path.read_bytes().splitlines(True) if line[:1] != b"#")
    plain = record_csv._plain_levels(body)
    if all(v == 0 or abs(v) >= 0.1 for v in levels):
        assert plain is not None and plain.tobytes() == record.levels.tobytes()


def _record_oracle(record):
    lines = [f"# sample_rate_hz={record.sample_rate_hz!r}"]
    for key in ("frequency_khz", "event", "location", "source", "started_at"):
        value = getattr(record.meta, key)
        if value is None or value == "":
            continue
        lines.append(f"# {key}={value!r}" if isinstance(value, float) else f"# {key}={value}")
    return "\n".join(lines + [repr(float(v)) for v in record.levels]) + "\n"


def _present(fields):
    """An ``asdict`` without its None values, at any depth: the main burst and
    the stats without it nest as objects, and an absent parameter is no key."""
    return {k: _present(v) if isinstance(v, dict) else v for k, v in fields.items() if v is not None}


def _report_oracle(stats, burst_set):
    payload = {
        "record_id": burst_set.record_id,
        "threshold_dbm": burst_set.threshold_dbm,
        "sample_rate_hz": burst_set.sample_rate_hz,
    }
    payload.update(_present(asdict(stats)))
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
    stats = measurement_stats(burst_set)
    if len(burst_set) and data.draw(st.booleans()):
        longest, stats_excluding = main_burst(burst_set)
        stats = replace(stats, main_burst=longest, stats_excluding_main=stats_excluding)
    base = tmp_path_factory.getbasetemp()
    with mock.patch.object(numtext, "_ROWS_PER_WRITE", rows):
        io.write_record(record, base / "record.csv")
        io.write_measurement_report(stats, burst_set, base / "m.json")
        io.write_plot_data(record, burst_set, base / "plot.csv")
    write_plot_data_oracle(record, burst_set, base / "plot_oracle.csv")
    assert (base / "record.csv").read_text() == _record_oracle(record)
    assert (base / "m.json").read_text() == _report_oracle(stats, burst_set)
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
    with mock.patch.object(numtext, "_ROWS_PER_WRITE", rows):
        io.write_apd_csv(curves, base / "apd.csv")
    write_apd_csv_oracle(curves, base / "apd_oracle.csv")
    assert (base / "apd.csv").read_bytes() == (base / "apd_oracle.csv").read_bytes()


EVENTS = st.builds(
    BurstEventSpec,
    st.integers(0, 2**64) | st.integers(0, 100),
    st.integers(1, 10**6),
    RUN_HEAVY | HARD_FLOATS.filter(np.isfinite),
    st.sampled_from(BURST_SHAPES),
)


@settings(max_examples=200, deadline=None)
@given(
    spans=st.lists(st.tuples(st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1)), max_size=12),
    events=st.lists(EVENTS, max_size=12),
    rows=ROWS_PER_WRITE,
)
def test_ground_truth_is_json_dumps_indent_2(tmp_path_factory, spans, events, rows):
    path = tmp_path_factory.getbasetemp() / "ground_truth.json"
    with mock.patch.object(numtext, "_ROWS_PER_WRITE", rows):
        io.write_ground_truth(spans, events, path)
    payload = {
        "n_events": len(spans),
        "spans": [[s, e] for s, e in spans],
        "events": [io._to_json(e) for e in events],
    }
    assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()


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
