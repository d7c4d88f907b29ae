"""The chunked record reader against the frozen line-at-a-time oracle."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from innoise import records
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
    return record.levels.tobytes(), record.sample_rate_hz, record.meta


@settings(max_examples=400, deadline=None)
@given(text=record_texts(), chunk_chars=st.sampled_from([1, 5, 40, 300, records._CHUNK_CHARS]))
def test_reader_matches_line_at_a_time_oracle(tmp_path_factory, text, chunk_chars):
    path = tmp_path_factory.getbasetemp() / "diff.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(records, "_CHUNK_CHARS", chunk_chars):
        assert _outcome(records.read_record, path) == _outcome(read_record_oracle, path)


@settings(max_examples=300, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=200),
        st.binary(max_size=200).map(lambda b: b"# sample_rate_hz=8001\n-80.0\n" + b),
    ),
    chunk_chars=st.sampled_from([1, 16, records._CHUNK_CHARS]),
)
def test_reader_gives_a_record_or_a_format_error(tmp_path_factory, data, chunk_chars):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(data)
    with mock.patch.object(records, "_CHUNK_CHARS", chunk_chars):
        try:
            assert isinstance(records.read_record(path), SampleRecord)
        except FormatError:
            pass


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_line_rules_run_only_on_the_header_of_a_clean_record(tmp_path, monkeypatch, newline):
    # universal newlines make every line end an LF, so the header is a block
    # of its own and the plain tier takes every sample line in each form
    n = 20_000
    path = tmp_path / "rec.csv"
    records.write_record(generate_wgn(n, -100.0, seed=4), path)
    path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
    seen, plain = [], []
    parse_lines, plain_levels = records._parse_lines, records._plain_levels

    def spy(path, block, first_lineno, header):
        seen.extend(block.decode().split("\n")[:-1])
        return parse_lines(path, block, first_lineno, header)

    def plain_spy(block):
        levels = plain_levels(block)
        plain.append(0 if levels is None else len(levels))
        return levels

    monkeypatch.setattr(records, "_CHUNK_CHARS", 4096)  # many chunks
    monkeypatch.setattr(records, "_parse_lines", spy)
    monkeypatch.setattr(records, "_plain_levels", plain_spy)
    record = records.read_record(path)
    assert seen == ["# sample_rate_hz=8001.0"]
    assert sum(plain) == n
    assert record.levels.tobytes() == read_record_oracle(path).levels.tobytes()


def test_chunked_error_names_the_line(tmp_path, monkeypatch):
    monkeypatch.setattr(records, "_CHUNK_CHARS", 64)
    path = tmp_path / "bad.csv"
    lines = ["# sample_rate_hz=8001"] + ["-85.0"] * 500 + ["-85.0 x"] + ["-85.0"] * 100
    path.write_text("\n".join(lines) + "\n")
    expected = "bad.csv: malformed line 502: '-85.0 x'"
    for read in (records.read_record, read_record_oracle):
        with pytest.raises(FormatError) as info:
            read(path)
        assert str(info.value) == expected


def test_reader_holds_no_per_sample_python_objects(tmp_path):
    # a list of Python floats costs 32 B a sample; the levels array costs 8 B
    n = 80_010
    path = tmp_path / "rec.csv"
    records.write_record(generate_wgn(n, -100.0, seed=5), path)
    tracemalloc.start()
    try:
        record = records.read_record(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(record) == n
    assert peak < 3 * 8 * n


# --- the plain tier: every line -?[0-9]+.[0-9]+ of at most 18 digits, parsed as arrays

HEADER = "# sample_rate_hz=8001\n# kind=WGN\n"
# The hard lines of the plain tier, by class. Its first guess at a line's
# sample is the naive quotient q = fl(fl(m) / 10**k), which can miss float()
# by one unit where m >= 2**53; m set against the midpoints around q, scaled
# by 10**k, must move it (test_plain_tier_corrects_the_naive_quotient).
# q one unit below float(), and one unit above it
NAIVE_LOW = [
    "-98.50627231245765", "-101.37068927681109", "14.927551604193825",
    "9753001978.988937", "0.0009213661404105205", "-0.0009765624999999997",
]
NAIVE_HIGH = [
    "-99.99384923321259", "-109.20867518895867", "0.9257809654061343",
    "389785020415945.56", "-0.052021914380895644", "0.99999999999999983",
]
# exact ties between two doubles, which go to the even one; q is the odd one
TIES_TO_EVEN = [
    "5666345049340992.5", "-6219429999788171.5", "4355975654906063.25",
    "-2808322619421615.25", "2566117198557713.75", "-3996667203629424.75",
]
# just below a power of 2, whose double q is: the gap below q is half the gap
# above it, and the line lies nearer the double below
BELOW_POWERS_OF_2 = [
    "0.9999999999999999", "0.99999999999999994", "-0.99999999999999992",
    "0.0039062499999999996", "-0.12499999999999999", "1.99999999999999988",
]
# decimals whose quotient, rounded to a 64-bit significand first, lies
# halfway between two doubles, so a second rounding to a double misses
# float() by one unit: a reader that rounds twice fails on these
DOUBLE_ROUNDING_HAZARDS = [
    "-12.4002275125861674", "-2.36961292358733", "-5.344647944003730",
    "-23.0508257430954", "-637.445121396734919", "-4.37586658381163085",
]


@pytest.fixture(params=[
    pytest.param(True, id="plain-tier"),
    pytest.param(False, id="tier-forced-off"),
])
def tier(request, monkeypatch):
    """With the plain tier, or with it declining every block, so that the
    reader hands each line to ``float()`` as it does a record that holds a
    line of over 18 digits, such as ``repr`` of a level below 0.1, or one in
    exponent notation. Forced off, it checks that
    the line rules received sample lines, so a patch that missed the
    reader's own binding fails rather than passing on the plain tier."""
    if request.param:
        yield True
        return
    blocks, parse_lines = [], records._parse_lines

    def spy(path, block, first_lineno, header):
        blocks.append(block)
        return parse_lines(path, block, first_lineno, header)

    monkeypatch.setattr(records, "_plain_levels", lambda block: None)
    monkeypatch.setattr(records, "_parse_lines", spy)
    yield False
    assert any(line[:1] not in (b"", b"#") for block in blocks for line in block.split(b"\n"))


def _plain(lines):
    return records._plain_levels("".join(f"{line}\n" for line in lines).encode())


def _n_digits(line):
    return sum(map(str.isdigit, line))


def _assert_parses_like_float(path, lines, tier, plain=True):
    """Where the tier runs, it takes a block of ``plain`` lines and gives each
    line the bits of its ``float()``, and it declines any other block; the
    reader gives the oracle's levels for the lines a record can hold."""
    lines = list(lines)
    if tier:
        levels = _plain(lines)
        if plain:
            assert levels.tobytes() == np.array([float(line) for line in lines]).tobytes()
        else:
            assert levels is None
    samples = [line for line in lines if abs(float(line)) < 1000]  # of finite power in mW
    path.write_text(HEADER + "".join(f"{line}\n" for line in samples))
    assert records.read_record(path).levels.tobytes() == read_record_oracle(path).levels.tobytes()


def _signed(rng, values):
    return values * rng.choice([-1.0, 1.0], len(values))


def test_plain_tier_reads_repr_of_doubles_exactly(tmp_path, tier):
    rng = np.random.default_rng(1)
    values = _signed(rng, 10 ** rng.uniform(-4.0, 16.0, 20_000))
    values = values[np.abs(values) < 1e16]
    # from 1e-4 up, repr spells a double in at most 17 significant digits;
    # below 0.1 up to 4 leading zeros come first, and the tier counts them:
    # it declines a block holding a line of more than 18 digits
    large = np.abs(values) >= 0.1
    _assert_parses_like_float(tmp_path / "a.csv", map(repr, values[large].tolist()), tier)
    small = list(map(repr, values[~large].tolist()))
    short = [line for line in small if _n_digits(line) <= 18]
    assert 0 < len(short) < len(small)
    _assert_parses_like_float(tmp_path / "b.csv", short, tier)
    _assert_parses_like_float(tmp_path / "c.csv", map(repr, values.tolist()), tier, plain=False)


def test_plain_tier_reads_decimals_of_2_to_18_digits_exactly(tmp_path, tier):
    rng = np.random.default_rng(2)
    lines = []
    for n_digits in rng.integers(2, 19, 20_000).tolist():
        digits = "".join(map(str, rng.integers(0, 10, n_digits).tolist()))
        point = int(rng.integers(1, n_digits))
        lines.append("-" * int(rng.integers(0, 2)) + digits[:point] + "." + digits[point:])
    _assert_parses_like_float(tmp_path / "rec.csv", lines, tier)


def test_plain_tier_reads_bit_neighbours_near_minus_100_dbm_exactly(tmp_path, tier):
    rng = np.random.default_rng(3)
    levels = rng.normal(-100.0, 5.0, 2000)
    neighbours = (levels.view(np.int64)[:, None] + np.arange(-4, 5)).ravel().view(np.float64)
    _assert_parses_like_float(tmp_path / "rec.csv", map(repr, neighbours.tolist()), tier)


def test_plain_tier_reads_zeros_and_leading_zeros(tmp_path, tier):
    lines = ["-0.0", "0.0", "-00.000", "007.50", "-0000000000000001.5", "0.00000000000000001"]
    _assert_parses_like_float(tmp_path / "rec.csv", lines, tier)
    assert records.read_record(tmp_path / "rec.csv").levels[:2].tobytes() == np.array([-0.0, 0.0]).tobytes()


def test_plain_tier_takes_18_digits_and_declines_19(tmp_path, tier):
    eighteen = ["99999999999999999.9", "-123456789.123456789", "1.00000000000000001"]
    nineteen = ["999999999999999999.9", "-1234567890.123456789", "1.000000000000000001"]
    _assert_parses_like_float(tmp_path / "a.csv", eighteen, tier)
    for line in nineteen:
        _assert_parses_like_float(tmp_path / "b.csv", eighteen + [line], tier, plain=False)


def test_plain_tier_reads_midpoints_exactly(tmp_path, tier):
    # 2**53 + 1 and its kind lie halfway between two doubles and round to even
    midpoints = [f"{2**53 + i}.0" for i in range(-8, 9)] + [f"-{2**54 + i}.0" for i in range(-8, 9)]
    _assert_parses_like_float(tmp_path / "rec.csv", midpoints + DOUBLE_ROUNDING_HAZARDS, tier)


def _bits(value):
    """The bit pattern of the double ``abs(value)``, as an integer."""
    return int(np.array([abs(value)]).view(np.int64)[0])


def _naive(line):
    """The naive quotient fl(fl(m) / 10**k) of a plain line."""
    whole, _, fraction = line.partition(".")
    return float(int(whole + fraction)) / float(10 ** len(fraction))


def test_plain_tier_corrects_the_naive_quotient(tmp_path):
    # each class is what it says, by float() of each line against its naive q
    assert {_bits(float(line)) - _bits(_naive(line)) for line in NAIVE_LOW} == {1}
    assert {_bits(float(line)) - _bits(_naive(line)) for line in NAIVE_HIGH} == {-1}
    for line in TIES_TO_EVEN:
        assert abs(_bits(float(line)) - _bits(_naive(line))) == 1 and _bits(float(line)) % 2 == 0
    for line in BELOW_POWERS_OF_2:
        power = abs(_naive(line))
        assert math.frexp(power)[0] == 0.5 and abs(float(line)) == np.nextafter(power, 0)
    lines = NAIVE_LOW + NAIVE_HIGH + TIES_TO_EVEN + BELOW_POWERS_OF_2
    # the tier declines a line of more than 18 digits, and float() reads it
    wide = [line for line in lines if _n_digits(line) > 18]
    assert len(wide) == 4
    taken = [line for line in lines if line not in wide]
    _assert_parses_like_float(tmp_path / "rec.csv", taken, tier=True)
    for line in wide:
        _assert_parses_like_float(tmp_path / "wide.csv", [line], tier=True, plain=False)


@pytest.mark.parametrize("line", [
    "1-2.5", "--1.5", "-1.5-", "1.5.5", "-.5", "5.", ".5", "-", "1", "1.5e3", "1,5", "١.٢", "1.5\x00",
])
def test_plain_tier_declines_a_line_of_any_other_form(tmp_path, tier, line):
    if tier:
        assert _plain(["-100.25", line, "-99.5"]) is None
        assert _plain(["-100.25", "-99.5"]) is not None
    # the tiers after it give the oracle's levels, or its error, for the line
    path = tmp_path / "rec.csv"
    path.write_text(f"{HEADER}-100.25\n{line}\n-99.5\n", encoding="utf-8")
    assert _outcome(records.read_record, path) == _outcome(read_record_oracle, path)


@pytest.mark.parametrize(
    "odd", ["-100.5\r-100.75", "-1.005e2", " -100.5", "-100.5 ", "+100.5", "-100.5\t"]
)
def test_a_block_with_one_line_not_plain_falls_back(tmp_path, monkeypatch, odd):
    # the first is two lines, the first of them ended by a CR alone
    monkeypatch.setattr(records, "_CHUNK_CHARS", 256)
    path = tmp_path / "rec.csv"
    lines = [repr(float(v)) for v in generate_wgn(200, -100.0, seed=7).levels]
    assert _plain(lines[:2] + [odd]) is None
    lines[100] = odd
    path.write_text(HEADER + "\n".join(lines) + "\n", newline="")
    assert _outcome(records.read_record, path) == _outcome(read_record_oracle, path)
    # and with a bad line after it in the same block: the same error
    lines[101] = "-85.0 x"
    path.write_text(HEADER + "\n".join(lines) + "\n", newline="")
    assert _outcome(records.read_record, path) == _outcome(read_record_oracle, path)
    lineno = 104 + odd.count("\r")
    assert _outcome(records.read_record, path) == f"rec.csv: malformed line {lineno}: '-85.0 x'"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_error_names_the_line_in_any_newline_convention(tmp_path, monkeypatch, newline):
    monkeypatch.setattr(records, "_CHUNK_CHARS", 64)
    path = tmp_path / "bad.csv"
    lines = ["# sample_rate_hz=8001", "", "-85.0"] + ["-85.25"] * 500 + ["nan"] + ["-85.0"] * 9
    path.write_bytes(newline.join(lines).encode())
    for read in (records.read_record, read_record_oracle):
        with pytest.raises(FormatError, match=r"^bad.csv: line 504: nan dBm; a level must be"):
            read(path)


def test_plain_tier_counts_leading_zeros_as_digits(tmp_path, tier):
    # repr of a level in [1e-4, 0.1): up to 4 zeros, then up to 17 digits;
    # the tier takes a line of at most 18 digits, its zeros among them
    taken = [
        "-0.01844736280968114", "0.0001234567890123", "0.00000000000000001",
        "-0.00000000000000000", "0.10000000000000000",
    ]
    assert max(map(_n_digits, taken)) == 18
    _assert_parses_like_float(tmp_path / "a.csv", taken, tier)
    # more than 18 digits, though the first six have at most 18 from the
    # first non-zero one
    declined = [
        "-0.018447362809681143", "0.00012345678901234567", "0.000123456789012345678",
        "0.0000000000000000001", "-0.000000000000000000000", "0.100000000000000000",
        "0.1234567890123456789", "1.00000000000000000001", "0.0000000000000000000001",
    ]
    for line in declined:
        _assert_parses_like_float(tmp_path / "b.csv", taken + [line], tier, plain=False)


def test_plain_tier_reads_crlf_lines(tmp_path, tier):
    # the tier takes LF-ended lines only: _blocks reads a CRLF record as text
    # with universal newlines, so each CRLF is an LF, the header in a block
    # of its own, and hands each block over as bytes
    lines = [repr(v) for v in generate_wgn(500, -100.0, seed=8).levels.tolist()]
    crlf = "".join(f"{line}\r\n" for line in lines).encode()
    if tier:
        assert records._plain_levels(crlf) is None
        assert records._plain_levels(crlf.replace(b"\r\n", b"\n", len(lines) - 1)) is None
    path = tmp_path / "crlf.csv"
    path.write_bytes(HEADER.replace("\n", "\r\n").encode() + crlf)
    with path.open(encoding="utf-8") as fh:
        header, body = records._blocks(fh)
    assert (header, body) == (HEADER.encode(), crlf.replace(b"\r\n", b"\n"))
    if tier:
        levels = records._plain_levels(body)
        assert levels.tobytes() == np.array([float(line) for line in lines]).tobytes()
    assert _outcome(records.read_record, path) == _outcome(read_record_oracle, path)


def test_plain_tier_declines_a_last_line_without_lf():
    # "1.5\n123" passes every count the tier makes (one LF, one '.', two bytes
    # below '0'), so only its LF check keeps it from reading [1.5] and
    # dropping 123. _blocks ends every block in LF, so a record never needs it
    assert records._plain_levels(b"1.5\n123") is None
    assert records._plain_levels(b"1.5\n123.25\n").tobytes() == np.array([1.5, 123.25]).tobytes()


def test_plain_tier_declines_points_and_lfs_out_of_turn():
    # as many '.'s as LFs, and every line's digit counts at least 1 when the
    # marks are taken in pairs, ('.', '.') then (LF, LF); only the check that
    # every second mark is an LF declines it, as float("1.2.3") fails
    assert records._plain_levels(b"1.2.3\n4\n") is None
    assert records._plain_levels(b"1.2\n3.4\n").tobytes() == np.array([1.2, 3.4]).tobytes()


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("sample", ["3000", "-3000.5", "nan", "-inf", "1e400"])
def test_a_level_out_of_range_is_named_by_its_line(tmp_path, newline, sample):
    path = tmp_path / "hot.csv"
    lines = ["# sample_rate_hz=8001", "", "-100.0", sample, "-100.0", "# note", "-100.0"]
    path.write_bytes(newline.join(lines).encode())
    expected = f"hot.csv: line 4: {float(sample)!r} dBm; a level must be finite and in [-3000, 2900] dBm"
    for read in (records.read_record, read_record_oracle):
        assert _outcome(read, path) == expected


@pytest.mark.parametrize("chunk_chars", [5, records._CHUNK_CHARS])
@pytest.mark.parametrize("text", [
    "# sample_rate_hz=8001\n# frequency_khz=1910\n# event=lamp on\n-100.0\n-99.5\n",
    "-100.0\r\n1e3\r\n# sample_rate_hz=8001\r\n",  # a sample first, through the line rules
    "# sample_rate_hz=8001\n-100.0\nabc\n",  # malformed line 3
    "# sample_rate_hz=8001\n\n-100.0\n3000\n",  # a level out of range on line 4
], ids=["header", "sample-first", "malformed", "out-of-range"])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, monkeypatch, text, chunk_chars):
    # as Windows Notepad and Excel's "CSV UTF-8" save a file: the same
    # levels, header and error line numbers as the file without the mark
    monkeypatch.setattr(records, "_CHUNK_CHARS", chunk_chars)
    plain, bom = tmp_path / "plain" / "rec.csv", tmp_path / "bom" / "rec.csv"
    for path, head in ((plain, b""), (bom, b"\xef\xbb\xbf")):
        path.parent.mkdir()
        path.write_bytes(head + text.encode())
    expected = _outcome(read_record_oracle, plain)
    if "event" in text:
        assert expected[2].event == "lamp on" and expected[2].frequency_khz == 1910.0
    for read in (records.read_record, read_record_oracle):
        assert _outcome(read, bom) == _outcome(read, plain) == expected
