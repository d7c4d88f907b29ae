"""The chunked record reader against the frozen line-at-a-time oracle."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from innoise import io
from innoise.model import FormatError, SampleRecord
from innoise.synth import generate_wgn
from record_oracle import read_record_oracle

SAMPLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=-200.0, max_value=50.0).map(repr),
    st.integers(-200, 200).map(str),
    st.sampled_from(["1_0", "+1e3", "-.5", "5.", "1e-320", "-0.0", "\u0661\u0662"]),
)
NOT_SAMPLES = st.sampled_from([
    "", " ", "\t", "\x0c", "\u00a0",  # blank once stripped
    "#", "# note", "# kind=WGN", "#kind = IN", "# frequency_khz=1910", "# event=a = b",
    "# sample_rate_hz=4000", "# frequency_khz=1e999",  # header lines after data
    "nan", "-inf", "Infinity", "1e400",  # non-finite
    "abc", "1.0.0", "--1", "1e", "0x10", "1__0", "1,5", "- 1",  # malformed
])
PADDING = st.sampled_from(["", " ", "\t", "   "])
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])
HEADERS = st.sampled_from([
    "",
    "# sample_rate_hz=8001\n",
    "\n# sample_rate_hz = 1000.5 \r\n# kind=WGN\r\n\r\n# frequency_khz=1910\r\n",
    "# note without a key\r# sample_rate_hz=8001\r# kind=IN\r",
])


@st.composite
def record_texts(draw):
    """A record header, then samples with a few other lines among them."""
    rows = draw(st.lists(st.tuples(PADDING, SAMPLES, PADDING, NEWLINES), max_size=60))
    for _ in range(draw(st.integers(0, 3))):
        other = draw(st.tuples(PADDING, NOT_SAMPLES, PADDING, NEWLINES))
        rows.insert(draw(st.integers(0, len(rows))), other)
    body = "".join(map("".join, rows))
    if draw(st.booleans()):
        body = body.rstrip("\r\n")  # no newline at the end of the file
    return draw(HEADERS) + body


def _outcome(read, path):
    try:
        record = read(path)
    except FormatError as exc:
        return str(exc)
    return record.levels.tobytes(), record.sample_rate_hz, record.kind, record.meta


@settings(max_examples=400, deadline=None)
@given(text=record_texts(), chunk_chars=st.sampled_from([1, 5, 40, 300, io._CHUNK_CHARS]))
def test_reader_matches_line_at_a_time_oracle(tmp_path_factory, text, chunk_chars):
    path = tmp_path_factory.getbasetemp() / "diff.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(io, "_CHUNK_CHARS", chunk_chars):
        assert _outcome(io.read_record, path) == _outcome(read_record_oracle, path)


@settings(max_examples=300, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=200),
        st.binary(max_size=200).map(lambda b: b"# sample_rate_hz=8001\n-80.0\n" + b),
    ),
    chunk_chars=st.sampled_from([1, 16, io._CHUNK_CHARS]),
)
def test_reader_gives_a_record_or_a_format_error(tmp_path_factory, data, chunk_chars):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(data)
    with mock.patch.object(io, "_CHUNK_CHARS", chunk_chars):
        try:
            assert isinstance(io.read_record(path), SampleRecord)
        except FormatError:
            pass


def test_line_rules_run_only_on_the_header_of_a_clean_record(tmp_path, monkeypatch):
    path = tmp_path / "rec.csv"
    io.write_record(generate_wgn(20_000, -100.0, seed=4), path)
    seen = []
    parse_lines = io._parse_lines

    def spy(path, lines, first_lineno, header, levels):
        seen.extend(lines)
        return parse_lines(path, lines, first_lineno, header, levels)

    monkeypatch.setattr(io, "_CHUNK_CHARS", 4096)  # many chunks
    monkeypatch.setattr(io, "_parse_lines", spy)
    record = io.read_record(path)
    assert seen == ["# sample_rate_hz=8001.0\n", "# kind=WGN\n"]
    assert np.array_equal(record.levels, read_record_oracle(path).levels)


def test_chunked_error_names_the_line(tmp_path, monkeypatch):
    monkeypatch.setattr(io, "_CHUNK_CHARS", 64)
    path = tmp_path / "bad.csv"
    lines = ["# sample_rate_hz=8001"] + ["-85.0"] * 500 + ["-85.0 x"] + ["-85.0"] * 100
    path.write_text("\n".join(lines) + "\n")
    expected = "bad.csv: malformed line 502: '-85.0 x'"
    for read in (io.read_record, read_record_oracle):
        with pytest.raises(FormatError) as info:
            read(path)
        assert str(info.value) == expected


def test_reader_holds_no_per_sample_python_objects(tmp_path):
    # a list of Python floats costs 32 B a sample; the levels array costs 8 B
    n = 80_010
    path = tmp_path / "rec.csv"
    io.write_record(generate_wgn(n, -100.0, seed=5), path)
    tracemalloc.start()
    try:
        record = io.read_record(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(record) == n
    assert peak < 3 * 8 * n
