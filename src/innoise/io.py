"""File formats and their readers/writers.

Formats
-------
record CSV       ``# key=value`` comment header (sample_rate_hz required;
                 MeasurementMeta's fields optional, any other key ignored),
                 then one dBm level per line of UTF-8 text (a leading BOM
                 skipped; universal newlines: LF, CRLF and CR end a line).
                 Blank and ``#`` lines are skipped anywhere; errors name
                 the line. A sample gets the bits ``float()`` gives its line.
manifest JSON    one campaign: a WGN record, the IN records of one event at
                 one frequency, scenario text, threshold offset and the
                 tolerated fraction of WGN exceedances.
baseline JSON    r.m.s. level, threshold and the WGN validation verdict.
measurement      JSON report with per-burst rows and the summary averages,
                 plus a sibling CSV with the summary rounded to 2 decimals.
campaign         JSON + CSV with cross-measurement means and deviations.
plot CSV         time_ms, level_dbm, burst_id per sample, for replotting.
APD CSV          level_dbm plus one exceedance column per curve.

All writers are deterministic (identical inputs give byte-identical files)
and JSON numbers use the shortest round-trip representation, so a read of
what was written reproduces the in-memory values exactly. The human-facing
CSV tables round to 2 decimals; the JSON keeps full precision. The per-row
tables (record CSV, plot CSV, APD CSV and the arrays of the measurement
report and the ground truth) go through one writer, ``_write_table``, which
lays out a block of rows at a time with no call per row, never the whole
text at once. It spells a float as the bytes of its ``repr``, built with
double and integer array arithmetic that rounds alike on every platform
(``_shortest``; a few values go to ``repr()`` itself), once per run of
consecutive values in a column that are equal bit for bit (``-0.0`` and
``0.0`` differ): an exact-grid APD column changes only at its own record's
levels. All the float columns of a block are spelled in one ``_shortest``
call, since each call has a fixed cost.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import re
import typing
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .apd import ApdCurve
from .baseline import DEFAULT_OFFSET_DB, Baseline, WgnValidation
from .bursts import BurstSet
from .model import (
    ConfigError, DomainError, FormatError, LevelError, MeasurementMeta, SampleRecord,
)
from .stats import MeasurementStats, SourceCharacterization
from .synth import BurstEventSpec


@dataclass(frozen=True)
class CampaignManifest:
    """File layout of one measurement campaign.

    Record paths are stored as written in the manifest and resolve
    relative to the manifest's own directory (``base_dir``, which is not
    part of the file). ``max_exceed_fraction`` is the share of WGN samples
    allowed above the threshold, as ``validate_wgn`` takes it.
    """

    wgn_record: str
    in_records: tuple[str, ...]
    event: str
    frequency_khz: float
    location: str = ""
    source: str = ""
    offset_db: float = DEFAULT_OFFSET_DB
    max_exceed_fraction: float = 0.0
    base_dir: Path = field(default=Path("."), compare=False)

    def __post_init__(self) -> None:
        if not self.in_records:
            raise ConfigError("manifest needs at least one IN record")
        paths = (self.wgn_record, *self.in_records)
        if not all(p and "\0" not in p for p in paths):
            raise ConfigError(f"wgn_record, in_records: a path is empty or holds NUL: {paths!r}")
        if len(set(paths)) != len(paths):
            raise ConfigError("manifest record paths must be distinct")
        if self.frequency_khz is None:  # optional in a record's meta, required here
            raise ConfigError("manifest needs a frequency_khz")
        MeasurementMeta(frequency_khz=self.frequency_khz)  # its frequency rule and message

    def wgn_path(self) -> Path:
        return self.base_dir / self.wgn_record

    def in_paths(self) -> list[Path]:
        return [self.base_dir / p for p in self.in_records]


def _write_json(payload: dict, path: Path | str, **arrays: dict | list) -> None:
    """Write ``payload`` (not empty) as ``json.dumps(indent=2)`` lays it out,
    and an LF, with ``arrays`` as its last keys: each an array of a row per
    element of its columns (``_write_table``), an object of a dict's named
    columns or a list of a list's, each cell spelling its JSON text."""
    with Path(path).open("wb") as fh:
        fh.write(json.dumps(payload, indent=2).removesuffix("\n}").encode())
        for key, columns in arrays.items():
            named = isinstance(columns, dict)
            cells = list(columns.values()) if named else columns
            opening, closing = "{}" if named else "[]"
            pieces = [f',\n      "{name}": ' if named else ",\n      " for name in columns]
            pieces = [f"\n    {opening}{pieces[0][1:]}", *pieces[1:], f"\n    {closing}"]
            end = "\n  ]" if len(cells[0]) else "]"
            _write_table(fh, f',\n  "{key}": [', pieces, cells, ",", end)
        fh.write(b"\n}\n")


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of doubles: hi + lo == x, each of at most 26
    significant bits, exactly while x * (2**27 + 1) does not overflow."""
    c = x * 134217729.0
    hi = c - x
    np.subtract(c, hi, out=hi)
    return hi, np.subtract(x, hi, out=c)


_POW10_F = np.array([float(10**k) for k in range(22)])  # each an exact double
_POW10_HI, _POW10_LO = _split(_POW10_F)

# rows of a per-row table formatted and written at a time
_ROWS_PER_WRITE = 4096

# A float cell is 40 bytes: "-0.000", then 17 digits, each followed by a byte
# for a '.'. It holds its text's bytes in their places and 0 bytes elsewhere.
_CELL = 40
# _LANES[g]: the 4 digits of g < 10**4, each followed by a 0xFF byte, as one
# word; _LANES[10**4 + d]: 6 0xFF bytes, the digit d and a 0xFF byte
_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # _DIGITS[g]: g's 4 digits
_LANES = np.full((10**4, 4, 2), 0xFF, np.uint8)
_LANES[:, :, 0] = _DIGITS + 48
_LANES = _LANES.reshape(-1, 8).view(np.uint64).ravel()
_LANES = np.concatenate(
    [_LANES, _LANES[:10] | np.frombuffer(b"\xff\x00\xff\x00\xff\x00\x00\x00", np.uint64)]
)
# _TRAILING_ZEROS[g]: the trailing '0's of g < 10**4 spelled in 4 digits
_TRAILING_ZEROS = np.logical_and.accumulate(_DIGITS[:, ::-1] == 0, axis=1).sum(axis=1)


def _cell_masks() -> np.ndarray:
    """_CELL_MASKS[(20 * negative + e10 + 4) * 18 + kept]: the cell of a
    number with 10**e10 <= |x| < 10**(e10 + 1), -4 <= e10 <= 15, spelled
    with ``kept`` digits, as words: its fixed bytes ('-', "0.000", '.')
    where it has them, 0xFF at each of its digits and 0 elsewhere."""
    pos = np.arange(_CELL)
    negative, e10, kept = (a[..., None] for a in np.ix_(range(2), range(-4, 16), range(18)))
    prefix = (pos == 0) & (negative == 1) | (pos >= 1) & (pos < 2 - e10) & (e10 < 0)
    digits = np.where(pos % 2 == 0, (pos - 6) // 2 < kept, (pos - 7) // 2 == e10)
    chars = np.frombuffer(b"-0.000" + b"\xff." * 17, np.uint8)
    return (chars * np.where(pos < 6, prefix, digits)).reshape(-1, _CELL).view(np.uint64)


_CELL_MASKS = _cell_masks()


def _times_pow10(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """Dekker's product of positive doubles ``a`` and 10**k, 0 <= k <= 21,
    each split into halves of 26 bits: P = fl(a 10**k) and E = a 10**k - P,
    exact unless a split or partial product overflows or underflows; then
    the midpoints between a and its neighbours (the bit patterns next to
    a's) scaled alike, less P: E plus the gap to each times 10**k / 2.

    E = a_hi p_hi - P + a_hi p_lo + a_lo p_hi + a_lo p_lo, in this order.
    Each product goes into a half or a power that it spends, so few steps
    allocate; ``k`` gathers the power tables fastest as intp."""
    (a_hi, a_lo), p10 = _split(a), _POW10_F.take(k)
    big = a * p10
    p_hi, p_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    err = a_hi * p_hi
    err -= big
    err += np.multiply(a_hi, p_lo, out=a_hi)
    err += np.multiply(a_lo, p_hi, out=p_hi)
    err += np.multiply(a_lo, p_lo, out=p_lo)
    del p_hi, p_lo
    for gap, step in ((a_hi, -1), (a_lo, 1)):  # (a's bit neighbour - a) 10**k / 2 + E
        np.add(a.view(np.int64), step, out=gap.view(np.int64))
        gap -= a
        gap *= p10
        gap /= 2
        gap += err
    return big, err, a_hi, a_lo


def _scaled(a: np.ndarray, e10: np.ndarray) -> tuple[np.ndarray, ...]:
    """Positive doubles ``a`` scaled by 10**k, k = 16 - e10, into X, with the
    midpoints lo and hi between each and its neighbouring doubles scaled
    alike: floor(X) as int64, then X, lo and hi less floor(X) as doubles.

    ``_times_pow10`` gives P = fl(a 10**k) and E = a 10**k - P exactly, as no
    split or partial product overflows or underflows: for a in [1e-4, 1e16)
    and k in [1, 20] (or 0 and 21, where ``np.log10`` misjudges e10 by one),
    each is below 2**100, and each but 0 is at least 2**-66, a's last bit
    times an integer. P < 2**60 and |E| <= 64; floor(X) = P + floor(E) where
    X >= 2**53, and the sum is at most X elsewhere, so an X below 1e16 shows.
    a's gap to a neighbour is a power of 2, so a midpoint's distance from
    X, the gap times 10**k / 2, is exact. So X, lo and hi less floor(X) are
    exact values rounded at most twice, after adding E and that distance
    and after subtracting floor(E). Rounding is monotone and every integer
    and half of magnitude below 2**52 is a double, so each lies on the side
    of every integer and half that its exact value does, or lands on it."""
    big, err, below, above = _times_pow10(a, 16 - e10)
    floor = np.floor(err)
    return big.astype(np.int64) + floor.astype(np.int64), err - floor, below - floor, above - floor


def _shortest_digits(
    whole: np.ndarray, frac: np.ndarray, lo: np.ndarray, hi: np.ndarray, ok: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The shortest decimal between lo and hi nearest X, given ``_scaled``, as
    a 17-digit integer; whether a multiple of 10 and of 100 lies between lo
    and hi; and ``ok`` cleared where a rounded value decides the result."""
    low, high = np.floor(lo), np.floor(hi)
    ok &= (lo != low) & (hi != high) & (whole >= 10**16) & (whole < 10**17)
    # relative to floor(X), the integers between lo and hi are low + 1 .. high
    low, high = low.astype(np.int64), high.astype(np.int64)
    span = high - low
    unit = whole - whole // 100 * 100  # floor(X) % 100
    r100 = unit + high
    r100 -= 100 * (r100 >= 100)  # (floor(X) + high) % 100
    hundreds = r100 < span  # a multiple of 100 in there
    tens = r100 - r100 // 10 * 10 < span  # a multiple of 10 in there
    unit -= unit // 10 * 10  # floor(X) % 10: X is place above the multiple of 10 at -unit
    place = unit + frac
    # the multiple of 10 at -unit or at 10 - unit; else the integer nearest X
    up = ((place > 5) | (unit + low >= 0)) & (10 - unit <= high)
    nearest = np.where(tens, 10 * up - unit, frac > 0.5)
    digits = whole + np.where(hundreds, high - r100, nearest)
    tie = np.where(tens, place == 5, frac == 0.5)
    ok &= (hundreds | ~tie) & (span > 0) & (digits < 10**17)
    return digits, tens, hundreds


def _shortest(values: np.ndarray) -> np.ndarray:
    """The float cells of ``values``, as words: each one's ``repr``.

    ``repr`` spells a double x with 1e-4 <= |x| < 1e16 in positional form,
    with the digits of the shortest decimal that reads back as x, the
    nearest to x of those. Scaled by 10**(16 - e10), with e10 =
    floor(log10(|x|)), |x| becomes X in [1e16, 1e17), and those decimals
    become the integers strictly between lo and hi, the scaled midpoints
    between x and its neighbouring doubles (``_scaled``). Both midpoints lie
    over 0.55 from X, and at most 23 integers lie between them. Their
    shortest is a multiple of the largest power of ten among them: a
    multiple of 100 is the only one, a multiple of 10 the nearer of two
    around X, and else the integer nearest X (``_shortest_digits``).

    X, lo and hi lie on the side of every integer and half that their exact
    values do, or land on it (``_scaled``). These values go to ``repr()``
    instead: one whose lo or hi lands on an integer, whose X lands halfway
    between the two nearest candidates, or whose e10 estimate
    (``np.log10``) is off; and any value outside [1e-4, 1e16) (zeros, NaN
    and infinities among them). The double and integer steps round alike
    on every platform and SIMD path, so the bytes do too.

    Declining a landed lo or hi changes no spelling, so no test can see
    it. Below 2**52 an exact scaled midpoint lies at least 2**-47 from
    every integer, farther than its two roundings move it, so it never
    lands. From 2**52 on, X is 10x, a multiple of 10, and the midpoints are
    10x -+ 5 or, from 2**53 with x even, 10x -+ 10: no multiple of 100,
    and farther from X than X is, so a landed one is never chosen.
    """
    a = np.abs(values)
    ok = (a >= 1e-4) & (a < 1e16)
    a[~ok] = 1.0
    e10 = np.floor(np.log10(a)).astype(np.intp)
    digits, tens, hundreds = _shortest_digits(*_scaled(a, e10), ok)
    digits[~ok] = 10**16
    # the 17 digits in groups of 1, 4, 4, 4 and 4
    upper = digits // 10**8
    lower = digits - upper * 10**8
    top, mid = upper // 10**4, lower // 10**4
    first = top // 10**4
    groups = np.stack([first, top - first * 10**4, upper - top * 10**4, mid, lower - mid * 10**4])
    # the digits end in no 0 without a multiple of 10 in there, in one 0
    # without a multiple of 100, and else in the multiple's trailing 0s
    kept = 17 - tens
    some = np.flatnonzero(hundreds)
    if some.size:
        g = groups[1:, some]
        zeros, empty = _TRAILING_ZEROS[g], g == 0
        trailing = zeros[3] + empty[3] * (zeros[2] + empty[2] * (zeros[1] + empty[1] * zeros[0]))
        kept[some] = 17 - trailing
    kept = np.maximum(kept, e10 + 2)  # at least one digit after the point
    groups[0] += 10**4  # the first digit's lanes
    cells = np.take(_CELL_MASKS, (((values < 0) * 20 + e10 + 4) * 18 + kept) * ok, axis=0)
    for k, group in enumerate(groups):
        cells[:, k] &= _LANES[group]
    declined = np.flatnonzero(~ok)
    if declined.size:
        cells[declined] = _repr_cells(values[declined])
    return cells


def _repr_cells(values: np.ndarray) -> np.ndarray:
    """The float cells of ``values``, as words, spelled by ``repr()`` itself."""
    spellings = list(map(repr, values.tolist()))
    return np.array(spellings, dtype=f"S{_CELL}").view(np.uint64).reshape(-1, 5)


def _float_cells(blocks: list[np.ndarray]) -> list[np.ndarray]:
    """The cells of float64 blocks, a row of bytes per value: the bytes of
    its ``repr``, once per run of bit-identical values in a block (so
    ``-0.0`` and ``0.0`` stay apart), and 0s, but no byte column all 0s of
    its block. The first values of every block's runs are spelled in one
    ``_shortest`` call, since each call has a fixed cost."""
    runs = [np.append(True, b[1:].view(np.int64) != b[:-1].view(np.int64)) for b in blocks]
    firsts = [b if run.all() else b[run] for b, run in zip(blocks, runs)]
    words = _shortest(firsts[0] if len(firsts) == 1 else np.concatenate(firsts))
    cells, start = [], 0
    for block, run, first in zip(blocks, runs, firsts):
        part = words[start : start + len(first)]
        start += len(first)
        if len(part) < len(block):
            part = np.take(part, np.cumsum(run) - 1, axis=0)
        used = np.bitwise_or.reduce(np.ascontiguousarray(part.T), axis=1).view(np.uint8) != 0
        cells.append(part.view(np.uint8)[:, used])
    return cells


def _cells(blocks: list) -> list[np.ndarray]:
    """A row of bytes per element of each block of a row of columns, its
    text and 0 bytes: the float64 blocks through one ``_float_cells``, a
    bytes block as its elements and a list as the ``str()`` of its
    elements (ASCII)."""
    blocks = [np.array(list(map(str, b)), "S") if isinstance(b, list) else b for b in blocks]
    floats = [b for b in blocks if b.dtype == np.float64]
    spelled = iter(_float_cells(floats) if floats else [])
    return [
        next(spelled) if b.dtype == np.float64 else b.view(np.uint8).reshape(len(b), -1)
        for b in blocks
    ]


def _write_table(
    fh: typing.BinaryIO, head: str, pieces: Sequence[str], columns: list,
    sep: str = "\n", tail: str = "\n",
) -> None:
    """Write ``head``, one row per element of the equal-length ``columns``
    joined by ``sep``, and ``tail`` to ``fh``, ``_ROWS_PER_WRITE`` rows at a
    time. A row is its cells (``_cells``) between the literal ``pieces``,
    one more than there are columns. No piece, ``sep`` or cell holds a NUL.

    A block is laid out as one byte matrix with a row per table row:
    ``sep`` and the first piece, then each column's cells and the piece
    after them. Every byte that is not text is 0, and one pass drops those.
    The float columns of a block are spelled together, in one call."""
    fh.write(head.encode())
    pieces = [np.frombuffer(p.encode(), np.uint8) for p in (sep + pieces[0], *pieces[1:])]
    for i in range(0, len(columns[0]), _ROWS_PER_WRITE):
        parts = [pieces[0]]
        for cells, piece in zip(_cells([c[i : i + _ROWS_PER_WRITE] for c in columns]), pieces[1:]):
            parts += [cells, piece]
        width = sum(part.shape[-1] for part in parts)
        matrix = bytearray(len(parts[1]) * width)
        rows = np.frombuffer(matrix, np.uint8).reshape(-1, width)
        at = 0
        for part in parts:
            rows[:, at : at + part.shape[-1]] = part
            at += part.shape[-1]
        text = matrix.translate(None, b"\0")
        fh.write(text if i else text[len(sep.encode()) :])
    fh.write(tail.encode())


def _write_summary(path: Path | str, rows: list[tuple[str, object]]) -> None:
    """Write a report's summary table, one ``parameter,value`` line per row,
    as the CSV beside the report at ``path``, in bytes: LF-ended on every OS."""
    lines = ["parameter,value", *(f"{name},{value}" for name, value in rows)]
    Path(path).with_suffix(".csv").write_bytes(("\n".join(lines) + "\n").encode())


def _read_json(path: Path) -> Any:
    with _text(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    # a JSONDecodeError, an integer past the int-digit limit or deep nesting
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path.name}: invalid JSON: {exc}") from exc


# One codec for every JSON type: a dataclass is an object with one key per
# field, in field order. None is omitted on write and a missing key reads as
# the field's default; a field without a default is a required key. Fields
# with compare=False are run-time context, not content, and are skipped. A
# read checks each key's type in ``_json_value``, the type's constructor the
# rest; a write checks nothing, so its floats must be finite already (as
# json.dumps spells inf Infinity, which is not JSON). A float key takes an int
# or a float below _FLOAT_BOUND in magnitude, the least int float() makes inf.
_FLOAT_BOUND = 2**1024 - 2**970


def _to_json(obj: Any) -> dict:
    payload = {}
    for name, _, _ in _json_fields(type(obj)):
        value = getattr(obj, name)
        if value is not None:
            payload[name] = _to_json(value) if dataclasses.is_dataclass(value) else value
    return payload


@functools.cache
def _json_fields(cls: type) -> tuple[tuple[str, Any, bool], ...]:
    """A dataclass's keys, looked up once: each compared field's name, type
    hint and whether it is required (has no default)."""
    hints = typing.get_type_hints(cls)
    missing = dataclasses.MISSING
    return tuple(
        (f.name, hints[f.name], f.default is missing and f.default_factory is missing)
        for f in dataclasses.fields(cls)
        if f.compare
    )


def _from_json(cls: type, data: Any, where: str) -> Any:
    if not isinstance(data, dict):
        raise FormatError(f"{where}: expected a JSON object")
    kwargs = {}
    for name, hint, required in _json_fields(cls):
        if name in data:
            kwargs[name] = _json_value(hint, data[name], where, name)
        elif required:
            raise FormatError(f"{where}: missing required key {name!r}")
    try:
        return cls(**kwargs)
    except (ConfigError, DomainError) as exc:
        raise FormatError(f"{where}: {exc}") from exc


def _json_value(hint: Any, value: Any, where: str, name: str) -> Any:
    """Key ``name``'s decoded value in ``where`` checked against its type hint:
    a finite number for a float, a list for ``tuple[X, ...]``, else the hint's type."""
    if hint is float:
        if type(value) in (int, float) and abs(value) < _FLOAT_BOUND:
            return float(value)
    elif type(value) is hint:
        return value
    elif typing.get_origin(hint) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise FormatError(f"{where}: {name} must be a list, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(_json_value(item, v, where, f"{name}[{i}]") for i, v in enumerate(value))
    expected = "a finite number" if hint is float else hint.__name__
    raise FormatError(f"{where}: {name} must be {expected}, got {value!r}")


def _fmt2(value: float | None) -> str:
    # round the shortest decimal form half-up, so e.g. a mean whose nearest
    # double sits just below x.xx5 still prints the way the number reads
    if value is None:
        return ""
    return str(Decimal(repr(float(value))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


# ---------------------------------------------------------------------------
# sample records


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

    A plain line is ``-?[0-9]+\\.[0-9]+`` with at most 18 digits before the
    point, at most 21 after it and at most 18 from the first non-zero one,
    as ``repr`` spells every double from 1e-4 up to 1e16 in magnitude, and
    it ends in LF. So ``m < 10**18``. The steps drop each array once it is
    spent, as a block's working set bounds the reader's memory.
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
    if min(int_digits.min(), frac_digits.min()) < 1:
        return None
    digits = np.frombuffer(b"0" * _PAD + block, np.uint8) ^ np.uint8(48)  # '0'..'9' -> 0..9
    # every 8-byte window of the digit values, one per byte offset
    words = np.ndarray((len(digits) - 7,), "<u8", digits, strides=(1,))
    # over 18 digits in a line, m < 10**18 holds only where the first are 0s
    wide = (int_digits + frac_digits).max() > 18
    if wide and (int_digits.max() > 18 or frac_digits.max() > 21):
        return None
    marks += _PAD  # dots and ends, as places in digits
    integer = _digits_value(words, dots, int_digits)
    del int_digits
    kept = np.minimum(frac_digits, 18)  # the fraction digits that m needs
    if wide and (
        (integer >= _POW10[18 - kept]).any()
        or _digits_value(words, ends - 18, frac_digits - kept).any()
    ):
        return None
    integer *= _POW10[kept]
    integer += _digits_value(words, ends, kept)
    return integer, frac_digits, neg


def _plain_levels(block: bytes) -> np.ndarray | None:
    """The samples of a block whose every line is plain (``_plain_digits``),
    parsed as arrays; None for any other block.

    A line's digits make an integer ``m < 10**18`` and its fraction digits
    number ``k``; ``float()`` gives m / 10**k rounded once, a tie to even.
    q = fl(fl(m) / 10**k) is that double where m < 2**53, and within 1.5
    units of m / 10**k elsewhere, so the sample is q or a neighbour. Scaled
    by 10**k, less P = fl(q 10**k), the midpoints around q
    (``_times_pow10``) are multiples of 2**(j + k - 2), 2**j being q's last
    bit, below 2**51 times that, so exact, and so is m - P: m is set against
    them exactly. (At q = 0 the midpoint below is NaN and moves nothing.)

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
    q = _POW10_F.take(k)
    np.divide(near, q, out=q)
    big, err, below, above = _times_pow10(q, k)
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
    whose every line is plain, as ``write_record`` spells levels from 1e-4
    up to 1e16 in magnitude, is parsed as arrays (``_plain_levels``); any
    other goes by the line rules (``_parse_lines``), which apply the header
    lines, skip blank lines and name the first bad line.

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
    as another header line or a sample.
    """
    # str() of a float is its repr, so every value reads back exactly
    head = f"# sample_rate_hz={record.sample_rate_hz}\n"
    for key in (f.name for f in dataclasses.fields(MeasurementMeta)):
        value = getattr(record.meta, key)
        if isinstance(value, str) and ("\n" in value or "\r" in value):
            raise ConfigError(f"{key} must not hold a line break, got {value!r}")
        if value is not None and value != "":
            head += f"# {key}={value}\n"
    with Path(path).open("wb") as fh:
        _write_table(fh, head, ("", ""), [record.levels])


# ---------------------------------------------------------------------------
# campaign manifests


def read_manifest(path: Path | str) -> CampaignManifest:
    """Parse a campaign manifest JSON file.

    ``offset_db`` defaults to 13 dB and ``max_exceed_fraction`` to 0 when
    absent; ``location`` and ``source`` default to empty text.
    """
    path = Path(path)
    manifest = _from_json(CampaignManifest, _read_json(path), path.name)
    return dataclasses.replace(manifest, base_dir=path.parent)


# ---------------------------------------------------------------------------
# baseline reports


def write_baseline_report(baseline: Baseline, validation: WgnValidation, path: Path | str) -> None:
    # the derived threshold is written second, for readers of the file
    payload = {"rms_dbm": baseline.rms_dbm, "threshold_dbm": baseline.threshold_dbm}
    payload.update(_to_json(baseline))
    payload["validation"] = _to_json(validation)
    _write_json(payload, path)


def read_baseline_report(path: Path | str) -> tuple[Baseline, WgnValidation | None]:
    """Parse a baseline JSON file.

    The stated ``threshold_dbm`` is required and must match ``rms_dbm +
    offset_db`` to within 1e-9 dB, so a hand-edited level cannot silently
    disagree with the threshold it implies.
    """
    path = Path(path)
    data = _read_json(path)
    baseline = _from_json(Baseline, data, path.name)
    if "threshold_dbm" not in data:
        raise FormatError(f"{path.name}: missing required key 'threshold_dbm'")
    stated = _json_value(float, data["threshold_dbm"], path.name, "threshold_dbm")
    if abs(stated - baseline.threshold_dbm) > 1e-9:
        raise FormatError(
            f"{path.name}: threshold_dbm {stated} is not rms_dbm + offset_db "
            f"= {baseline.threshold_dbm}"
        )
    validation = None
    if "validation" in data:
        validation = _from_json(WgnValidation, data["validation"], f"{path.name}: validation")
    return baseline, validation


# ---------------------------------------------------------------------------
# measurement reports

def write_measurement_report(
    stats: MeasurementStats,
    burst_set: BurstSet,
    path: Path | str,
    stats_excluding_main: MeasurementStats | None = None,
) -> None:
    """Write one measurement's report as JSON plus a sibling summary CSV.

    The JSON carries full precision and one row per burst (start_ms,
    duration_ms, amplitude_dbm); the CSV mirrors the summary table
    rounded to 2 decimals.
    """
    payload = {k: getattr(burst_set, k) for k in ("record_id", "threshold_dbm", "sample_rate_hz")}
    payload.update(_to_json(stats))
    if stats_excluding_main is not None:
        payload["stats_excluding_main"] = _to_json(stats_excluding_main)
    row_keys = ("start_ms", "duration_ms", "amplitude_dbm")
    _write_json(payload, path, bursts={k: getattr(burst_set, k) for k in row_keys})
    _write_summary(path, [
        ("Number of Bursts", stats.n_bursts),
        ("Average Burst Duration (ms)", _fmt2(stats.avg_duration_ms)),
        ("Average Burst Amplitude (dBm)", _fmt2(stats.avg_amplitude_dbm)),
        ("Average Burst Separation (ms)", _fmt2(stats.avg_separation_ms)),
    ])


# ---------------------------------------------------------------------------
# campaign reports


def write_campaign_report(char: SourceCharacterization, path: Path | str) -> None:
    """Write a source characterization as JSON plus a sibling summary CSV."""
    _write_json(_to_json(char), path)
    _write_summary(path, [
        ("Number of Bursts", _fmt2(char.mean_n_bursts)),
        ("Average Burst Duration (ms)", _fmt2(char.mean_duration_ms)),
        ("Standard Deviation of Duration (ms)", _fmt2(char.sd_duration_ms)),
        ("Average Burst Amplitude (dBm)", _fmt2(char.mean_amplitude_dbm)),
        ("Standard Deviation of Amplitude (dBm)", _fmt2(char.sd_amplitude_db)),
        ("Average Burst Separation (ms)", _fmt2(char.mean_separation_ms)),
        ("Standard Deviation of Separation (ms)", _fmt2(char.sd_separation_ms)),
    ])


# ---------------------------------------------------------------------------
# plot data


def write_plot_data(record: SampleRecord, burst_set: BurstSet, path: Path | str) -> None:
    """Write per-sample plot data: time_ms, level_dbm, burst_id.

    ``burst_id`` is the 1-based burst number where the sample falls inside
    a burst span and empty elsewhere — enough to redraw the record with
    its detected bursts highlighted.
    """
    n = len(record)
    if len(burst_set) and burst_set.end_idx[-1] >= n:
        raise ConfigError(
            f"burst span ending at {burst_set.end_idx[-1]} does not fit the record "
            f"({n} samples); was the set derived from this record?"
        )
    tags = np.zeros(n, dtype=f"S{len(str(len(burst_set)))}")  # empty outside the bursts
    spans = zip(burst_set.start_idx.tolist(), burst_set.end_idx.tolist())
    for i, (start, end) in enumerate(spans, start=1):
        tags[start : end + 1] = str(i).encode()
    # entry i is the double float(i) * (1000.0 / rate), the index converted exactly
    time_ms = np.arange(n) * (1000.0 / record.sample_rate_hz)
    columns = [time_ms, record.levels, tags]
    with Path(path).open("wb") as fh:
        _write_table(fh, "time_ms,level_dbm,burst_id\n", ("", ",", ",", ""), columns)


# ---------------------------------------------------------------------------
# APD curves


def write_apd_csv(curves: Sequence[ApdCurve], path: Path | str) -> None:
    """Write one APD curve (level_dbm,exceedance) or an overlayable pair
    (level_dbm,exceedance_wgn,exceedance_in). A pair must share its grid.
    """
    curves = list(curves)
    if len(curves) not in (1, 2):
        raise ConfigError(f"expected 1 or 2 curves, got {len(curves)}")
    if not np.array_equal(curves[0].levels_dbm, curves[-1].levels_dbm):
        raise ConfigError("paired APD curves must share one level grid")
    names = "exceedance" if len(curves) == 1 else "exceedance_wgn,exceedance_in"
    columns = [curves[0].levels_dbm, *(c.exceedance for c in curves)]
    pieces = ("", *[","] * (len(columns) - 1), "")
    with Path(path).open("wb") as fh:
        _write_table(fh, f"level_dbm,{names}\n", pieces, columns)


# ---------------------------------------------------------------------------
# synthetic event specs and ground truth


def read_event_specs(path: Path | str) -> list[BurstEventSpec]:
    """Parse a JSON list of burst event specs for the simulator."""
    path = Path(path)
    data = _read_json(path)
    name = path.name
    if not isinstance(data, list):
        raise FormatError(f"{name}: expected a JSON list of events")
    return [_from_json(BurstEventSpec, e, f"{name}: events[{i}]") for i, e in enumerate(data)]


def write_ground_truth(
    spans: Sequence[tuple[int, int]], events: Sequence[BurstEventSpec], path: Path | str
) -> None:
    """Record the exact injected spans and the events of a simulation."""
    names = [name for name, _, _ in _json_fields(BurstEventSpec)]
    columns = {name: [getattr(e, name) for e in events] for name in names}
    # a shape is one of BURST_SHAPES, which JSON spells as they are, in quotes
    columns["shape"] = [f'"{shape}"' for shape in columns["shape"]]
    pairs = [[start for start, _ in spans], [end for _, end in spans]]
    _write_json({"n_events": len(spans)}, path, spans=pairs, events=columns)
