"""The record CSV's reader and writer: a sample gets the bits ``float()``
gives its line, and a level is written as its ``repr``, so it reads back."""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import re
import typing
from pathlib import Path

import numpy as np

from . import numtext
from .model import ConfigError, DomainError, FormatError, LevelError, MeasurementMeta, SampleRecord


# characters of record text read at a time, before the rest of the last line
_CHUNK_CHARS = 1 << 17

_PAD = 24  # b"0" bytes before a block, so the 3 words ending at its first LF start in it
_POW10 = np.array([10**k for k in range(19)], dtype=np.uint64)
# _KEEP[j][c]: the bytes of word j (the 8 digits before the last 8 j) that
# hold digits of a c-digit number, its last min(max(c - 8 j, 0), 8) bytes
_KEEP = np.array(
    [[2**64 - 2 ** (64 - 8 * min(max(c - 8 * j, 0), 8)) for c in range(19)] for j in range(3)],
    dtype=np.uint64,
)
# A little-endian word of 8 digit values, the first in its low byte, becomes
# their number in three steps that see the word as lanes of 1, 2, then 4
# digits. Multiplying by 10**w << 8 w | 1 adds 10**w times each lane to the
# lane above it, so the upper lane of each pair holds the pair's number; the
# shift moves it down and the mask drops the other lane. (scale, shift, mask)
_SWAR_STEPS = [
    (np.uint64(10**w << 8 * w | 1), np.uint64(8 * w), np.uint64(mask))
    for w, mask in [(1, 0x00FF00FF00FF00FF), (2, 0x0000FFFF0000FFFF), (4, 0x00000000FFFFFFFF)]
]


def _digits_value(words: np.ndarray, stop: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The integer spelled by the ``count`` digits before each ``stop``, where
    ``words[i]`` is the little-endian word of the 8 digit values at ``i``."""
    value = np.zeros(len(stop), dtype=np.uint64)
    for j in range((int(count.max()) + 7) // 8):  # 8 digits at a time, last first
        x = words[stop - 8 * (j + 1)]
        x &= _KEEP[j][count]
        for scale, shift, mask in _SWAR_STEPS:
            x *= scale
            x >>= shift
            x &= mask
        x *= _POW10[8 * j]
        value += x
    return value


def _plain_digits(block: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Each line's digits as an integer ``m``, its count of fraction digits
    ``k`` and its sign, for a block whose every line is plain; None for any
    other block.

    A plain line is ``-?[0-9]+\\.[0-9]+`` with at most 18 digits, leading
    zeros counted, as ``repr`` spells every double from 0.1 up to 1e16 in
    magnitude, and it ends in LF. So ``m < 10**18`` by the count alone. A
    block with a longer line, such as ``repr`` of a level in (-0.1, 0.1),
    is declined before its digits are gathered. The steps drop each array
    once it is spent, as a block's working set bounds the reader's memory.
    """
    if not block.endswith(b"\n"):
        return None
    a = np.frombuffer(block, np.uint8)
    n_lines, n_minus = (np.count_nonzero(a == c) for c in (10, 45))
    # no bytes but digits, '-', '.' and LF (all below '0' but for the
    # digits): counts decline any other block cheaply
    if a.max() > 57 or np.count_nonzero(a < 48) != 2 * n_lines + n_minus:
        return None
    # the '.'s and LFs: as many '.'s as LFs, and every second one an LF, so
    # they take turns, one '.' a line
    marks = np.flatnonzero((a == 10) | (a == 46))
    dots, ends = marks[::2], marks[1::2]  # where each line's digits end
    if len(marks) != 2 * n_lines or not (a[ends] == 10).all():
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    neg = a[starts] == 45
    if np.count_nonzero(neg) != n_minus:  # a '-' past the start of a line
        return None
    int_digits = dots - starts - neg
    del starts
    frac_digits = ends - dots - 1
    if min(int_digits.min(), frac_digits.min()) < 1 or (int_digits + frac_digits).max() > 18:
        return None
    digits = np.frombuffer(b"0" * _PAD + block, np.uint8) ^ np.uint8(48)  # '0'..'9' -> 0..9
    # every 8-byte window of the digit values, one per byte offset
    words = np.ndarray((len(digits) - 7,), "<u8", digits, strides=(1,))
    marks += _PAD  # dots and ends, as places in digits
    integer = _digits_value(words, dots, int_digits)
    del int_digits
    integer *= _POW10[frac_digits]
    integer += _digits_value(words, ends, frac_digits)
    return integer, frac_digits, neg


def _plain_levels(block: bytes) -> np.ndarray | None:
    """The samples of a block whose every line is plain (``_plain_digits``),
    parsed as arrays; None for any other block.

    A line's digits make an integer ``m < 10**18`` and its fraction digits number
    ``k <= 17``, as a line holds at most 18 digits and one of them before the point;
    ``float()`` gives m / 10**k rounded once, a tie to even. q = fl(fl(m) / 10**k)
    is that double where m < 2**53, and within 1.5 units of m / 10**k elsewhere,
    so the sample is q or a neighbour. Scaled by 10**k, less P = fl(q 10**k), the
    midpoints around q (``numtext._times_pow10``) are multiples of 2**(j + k - 2),
    2**j being q's last bit, below 2**51 times that, so exact; so is m - P, as
    fl(m) - P plus m - fl(m), an int8 (at most 64): m is set against them exactly
    (tests/test_exactness_claims.py). At q = 0 the NaN midpoint below moves nothing.

    The steps write into spent arrays where they can, and k comes as intp,
    the index type the power tables are gathered fastest with.
    """
    if (parts := _plain_digits(block)) is None:
        return None
    m, k, neg = parts
    near = m.view(np.int64).astype(np.float64)  # fl(m), within 2**6 of m
    m -= near.astype(np.uint64)
    # m - fl(m) in a byte, so the rounding stage stays below the digits stage's peak
    m = m.view(np.int64).astype(np.int8)
    q = numtext._POW10_F.take(k)
    np.divide(near, q, out=q)
    big, err, below, above = numtext._times_pow10(q, k)
    del err
    d = np.subtract(near, big, out=near)
    d += m  # m - P
    bits = q.view(np.int64)
    odd = (bits & 1).astype(bool)
    bits += (d > above) | (d == above) & odd
    bits -= (d < below) | (d == below) & odd
    np.negative(q, out=q, where=neg)
    return q


def _parse_lines(path: Path, block: bytes, first_lineno: int, header: dict) -> np.ndarray:
    """The samples of a block from ``_blocks`` that is not all plain lines,
    by the record CSV line rules, one line at a time: blank lines are
    skipped, a ``#`` line sets ``header[key]`` when it holds ``key=value``,
    and any other line must be one number, read by ``float``."""
    values = []
    for lineno, raw in enumerate(block.decode().split("\n")[:-1], start=first_lineno):
        line = raw.strip()
        if line[:1] in ("", "#"):
            key, eq, value = line[1:].partition("=")
            if eq:
                header[key.strip()] = value.strip()
            continue
        try:
            value = float(line)
        except ValueError:
            raise FormatError(f"{path.name}: malformed line {lineno}: {line!r}") from None
        values.append(value)
    return np.array(values, dtype=np.float64)


# the blank and comment lines at the start of a block of LF-ended lines
_NOTE_LINES = re.compile(rb"(?:[ \t]*(?:#[^\n]*)?\n)*")


def _blocks(fh: typing.TextIO) -> typing.Iterator[bytes]:
    """The rest of the text file ``fh`` in blocks of whole lines, as UTF-8
    bytes, read ``_CHUNK_CHARS`` characters and then the rest of a line at a
    time. The text layer's universal newlines have made every line end an
    LF; the last block gets one when the file ends without it. The blank
    and ``#`` lines that begin a block come as a block of their own. Only
    the bytes outlive a read, so the parser never holds a block twice."""
    while block := (fh.read(_CHUNK_CHARS) + fh.readline()).encode():
        if not block.endswith(b"\n"):
            block += b"\n"
        if notes := _NOTE_LINES.match(block).end():
            yield block[:notes]
            block = block[notes:]
        if block:
            yield block


@contextlib.contextmanager
def _text(path: Path) -> typing.Iterator[typing.TextIO]:
    """``path`` open as UTF-8 text with universal newlines (every CRLF and
    CR alone read as an LF) and a leading byte-order mark skipped, as
    Windows editors save one; bytes that are not UTF-8 are a FormatError."""
    try:
        with path.open(encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path.name}: not UTF-8 text: {exc}") from exc


def read_record(path: Path | str) -> SampleRecord:
    """Parse a record CSV file into a SampleRecord.

    Raises FileNotFoundError for a missing file and FormatError (naming the
    offending line) for malformed content. A header key that is neither
    ``sample_rate_hz`` nor a meta field is ignored.

    The file is read as UTF-8 text with universal newlines, in blocks of
    whole LF-ended lines (``_blocks``). The blank and ``#`` lines that begin
    a block, the header among them, come as a block of their own. A block
    whose every line is plain, of at most 18 digits, as ``write_record``
    spells levels from 0.1 up to 1e16 in magnitude, is parsed as arrays
    (``_plain_levels``); any other goes by the line rules
    (``_parse_lines``), which apply the header lines, skip blank lines and
    name the first bad line.

    Both give each sample the bits ``float()`` gives its line, so the
    levels do not depend on the path, the platform or the block size. A
    sample outside [LEVEL_MIN_DBM, LEVEL_MAX_DBM], NaN and infinities
    included, is refused by ``SampleRecord``, and the error names its line.
    """
    path = Path(path)
    header: dict[str, str] = {}
    levels: list[np.ndarray] = []  # one array per block
    lineno = 1  # of the block's first line
    with _text(path) as fh:
        for block in _blocks(fh):
            values = _plain_levels(block)
            if values is None:
                values = _parse_lines(path, block, lineno, header)
                lineno += block.count(b"\n")
            else:
                lineno += len(values)  # a line per sample
            levels.append(values)
    levels = np.concatenate(levels) if levels else np.empty(0)
    if "sample_rate_hz" not in header:
        raise FormatError(f"{path.name}: missing '# sample_rate_hz=...' header")

    def header_float(key: str) -> float:
        try:
            return float(header[key])
        except ValueError:
            raise FormatError(f"{path.name}: header {key}={header[key]!r} is not a number") from None

    names = [f.name for f in dataclasses.fields(MeasurementMeta)]
    meta = {key: header[key] for key in names if key in header}
    if "frequency_khz" in meta:
        meta["frequency_khz"] = header_float("frequency_khz")
    try:
        return SampleRecord(
            levels=levels,
            sample_rate_hz=header_float("sample_rate_hz"),
            meta=MeasurementMeta(**meta),
        )
    except LevelError as exc:  # named by its line, not its index
        line = _sample_line(path, exc.index)
        raise FormatError(f"{path.name}: line {line}: {exc.reason}") from exc
    except DomainError as exc:
        raise FormatError(f"{path.name}: {exc}") from exc


def _sample_line(path: Path, index: int) -> int:
    """The 1-based line of the record at ``path`` that holds sample ``index``,
    counted as ``read_record`` counts lines."""
    with _text(path) as fh:
        samples = (n for n, line in enumerate(fh, start=1) if line.strip()[:1] not in ("", "#"))
        return next(itertools.islice(samples, index, None))


def write_record(record: SampleRecord, path: Path | str) -> None:
    """Write a SampleRecord as a record CSV file.

    Raises ConfigError, before the file is opened, for meta text holding a
    line break: it would end its header line, and the rest would read back
    as another header line or a sample; or for text that begins or ends in
    whitespace, which the reader strips off a header value.
    """
    # str() of a float is its repr, so every value reads back exactly
    head = f"# sample_rate_hz={record.sample_rate_hz}\n"
    for key in (f.name for f in dataclasses.fields(MeasurementMeta)):
        value = getattr(record.meta, key)
        if isinstance(value, str) and ("\n" in value or "\r" in value):
            raise ConfigError(f"{key} must not hold a line break, got {value!r}")
        if isinstance(value, str) and value != value.strip():
            raise ConfigError(f"{key} must not begin or end with whitespace, got {value!r}")
        if value is not None and value != "":
            head += f"# {key}={value}\n"
    with Path(path).open("wb") as fh:
        numtext._write_table(fh, head, ("", ""), [record.levels])
