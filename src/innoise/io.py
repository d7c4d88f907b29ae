"""File formats and their readers/writers.

Formats
-------
record CSV       ``# key=value`` comment header (sample_rate_hz required;
                 kind, frequency_khz, event, location, source, started_at
                 optional), then one dBm level per line. Blank and ``#``
                 lines are skipped anywhere, LF, CRLF and CR all end a
                 line, and errors name the line. Read in bounded chunks.
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
CSV tables round to 2 decimals; the JSON keeps full precision. The four
per-row tables (record CSV, the measurement report's burst rows, plot CSV
and APD CSV) go through one writer, ``_write_table``, which formats them a
block of rows at a time through one open file, never as one whole text. It
spells a float as its ``repr`` once per run of consecutive values in a column
that are equal bit for bit (``-0.0`` and ``0.0`` differ), and repeats that
spelling across the run: an exact-grid APD column changes only at its own
record's levels. A table row is its cells between literal pieces of text
(``("", ",", ",", "")`` for a plot row), and a block is laid out with no
call per row: one list repeats the row's pieces, strided slice assignments
put each column's cells between them, and one ``"".join`` makes the text.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import types
import typing
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .apd import ApdCurve
from .baseline import DEFAULT_OFFSET_DB, Baseline, WgnValidation
from .bursts import BurstSet
from .model import ConfigError, DomainError, FormatError, IN, MeasurementMeta, SampleRecord
from .stats import MeasurementStats, SourceCharacterization
from .synth import BurstEventSpec

_META_HEADER_KEYS = ("frequency_khz", "event", "location", "source", "started_at")


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
        if not self.frequency_khz > 0:
            raise ConfigError(f"frequency_khz must be > 0, got {self.frequency_khz}")

    def wgn_path(self) -> Path:
        return self.base_dir / self.wgn_record

    def in_paths(self) -> list[Path]:
        return [self.base_dir / p for p in self.in_records]


def _write_json(payload: dict, path: Path | str) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


# rows of a per-row table formatted and written at a time
_ROWS_PER_WRITE = 4096


def _spelled(block: np.ndarray) -> list:
    """The cells of one block of a column: a float64 block as the ``repr`` of
    each value, computed once per run of bit-identical values (so ``-0.0``
    and ``0.0`` stay apart); any other block as its elements."""
    if block.dtype != np.float64:
        return block.tolist()
    bits = block.view(np.int64)
    new_run = np.empty(len(block), dtype=bool)
    new_run[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=new_run[1:])
    spellings = list(map(repr, block[new_run].tolist()))
    if len(spellings) == len(block):
        return spellings
    return np.array(spellings, dtype=object)[np.cumsum(new_run) - 1].tolist()


def _laid_out(pieces: Sequence[str], cells: list[list[str]], sep: str) -> str:
    """``sep.join(pieces[0] + c[0] + pieces[1] + ... + c[-1] + pieces[-1])``
    over the rows of the ``cells`` columns: one list repeats a row's pieces
    (its first joined to the previous row's last and ``sep``), one strided
    slice assignment per column puts the cells in place, and one join."""
    width = 2 * len(cells)
    row = [part for piece in pieces[:-1] for part in (piece, None)]
    row[0] = pieces[-1] + sep + pieces[0]
    parts = row * len(cells[0])
    parts[0] = pieces[0]
    parts.append(pieces[-1])
    for k, column in enumerate(cells):
        parts[2 * k + 1 :: width] = column
    return "".join(parts)


def _write_table(
    path: Path | str, head: str, pieces: Sequence[str] | None, columns: list,
    sep: str = "\n", tail: str = "\n",
) -> None:
    """Write ``head``, one row per element of the equal-length ``columns``
    joined by ``sep``, and ``tail``, ``_ROWS_PER_WRITE`` rows at a time
    through one open file. A row is its cells between the literal ``pieces``
    (one more than there are columns), laid out by ``_laid_out`` with no call
    per row; with ``pieces`` None, the one column's cells are the rows. Each
    block of a column becomes its cells through ``_spelled``, so a float is
    spelled as its ``repr``, once per run of equal values; any other column
    must hold ``str``."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(head)
        for i in range(0, len(columns[0]), _ROWS_PER_WRITE):
            cells = [_spelled(c[i : i + _ROWS_PER_WRITE]) for c in columns]
            rows = sep.join(cells[0]) if pieces is None else _laid_out(pieces, cells, sep)
            fh.write((sep if i else "") + rows)
        fh.write(tail)


def _write_summary(path: Path | str, rows: list[tuple[str, object]]) -> None:
    """Write a report's summary table, one ``parameter,value`` line per row,
    as the CSV beside the report at ``path``."""
    lines = ["parameter,value", *(f"{name},{value}" for name, value in rows)]
    Path(path).with_suffix(".csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_json(path: Path) -> Any:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path.name}: not UTF-8 text: {exc}") from exc
    # a JSONDecodeError, an integer past the int-digit limit or deep nesting
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path.name}: invalid JSON: {exc}") from exc


# One codec for every JSON type: a dataclass is an object with one key per
# field, in field order. None is omitted on write and a missing key reads as
# the field's default; a field without a default is a required key. Fields
# with compare=False are run-time context, not content, and are skipped.


def _to_json(obj: Any) -> dict:
    payload = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.compare and value is not None:
            payload[f.name] = _to_json(value) if dataclasses.is_dataclass(value) else value
    return payload


# each class's annotation strings, compiled once
_type_hints = functools.cache(typing.get_type_hints)


def _from_json(cls: type, data: Any, where: str) -> Any:
    if not isinstance(data, dict):
        raise FormatError(f"{where}: expected a JSON object")
    hints = _type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if not f.compare:
            continue
        if f.name in data:
            kwargs[f.name] = _json_value(hints[f.name], data[f.name], f"{where}: {f.name}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise FormatError(f"{where}: missing required key {f.name!r}")
    try:
        return cls(**kwargs)
    except (ConfigError, DomainError) as exc:
        raise FormatError(f"{where}: {exc}") from exc


def _json_value(hint: Any, value: Any, where: str) -> Any:
    """Check one decoded JSON value against a field's type hint."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType):  # X | None
        inner = next(a for a in args if a is not type(None))
        return None if value is None else _json_value(inner, value, where)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise FormatError(f"{where} must be a list, got {value!r}")
        return tuple(_json_value(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if dataclasses.is_dataclass(hint):
        return _from_json(hint, value, where)
    if hint is float and type(value) in (int, float):
        with contextlib.suppress(OverflowError):  # an int too large for a float
            if math.isfinite(value):
                return float(value)
    elif type(value) is hint:
        return value
    expected = "a finite number" if hint is float else hint.__name__
    raise FormatError(f"{where} must be {expected}, got {value!r}")


def _fmt2(value: float | None) -> str:
    # round the shortest decimal form half-up, so e.g. a mean whose nearest
    # double sits just below x.xx5 still prints the way the number reads
    if value is None:
        return ""
    return str(Decimal(repr(float(value))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


# ---------------------------------------------------------------------------
# sample records


# characters of record text read and parsed at a time
_CHUNK_CHARS = 1 << 16


def _parse_lines(
    path: Path, lines: list[str], first_lineno: int, header: dict, levels: list
) -> None:
    """The record CSV line rules, applied one line at a time.

    Blank lines are skipped, a ``#`` line sets ``header[key]`` when it holds
    ``key=value``, and any other line must be one finite number. The lines'
    samples are appended to ``levels`` as one array.
    """
    values = []
    for lineno, raw in enumerate(lines, start=first_lineno):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                header[key.strip()] = value.strip()
            continue
        try:
            value = float(line)
        except ValueError:
            raise FormatError(f"{path.name}: malformed line {lineno}: {line!r}") from None
        if not math.isfinite(value):
            raise FormatError(f"{path.name}: non-finite sample at line {lineno}")
        values.append(value)
    if values:
        levels.append(np.array(values, dtype=np.float64))


def read_record(path: Path | str) -> SampleRecord:
    """Parse a record CSV file into a SampleRecord.

    Raises FileNotFoundError for a missing file and FormatError (naming the
    offending line) for malformed content. ``kind`` defaults to IN when the
    header does not say otherwise.

    The leading header block is read line by line, the samples after it in
    chunks of about ``_CHUNK_CHARS`` characters. A chunk of plain sample
    lines is parsed by one ``float`` per line straight into an array; a
    chunk that does not parse that way (a blank line, a comment, a bad or
    non-finite sample) goes through ``_parse_lines``, which gives the
    identical levels or the error naming the first bad line.
    """
    path = Path(path)
    header: dict[str, str] = {}
    levels: list[np.ndarray] = []  # one array per chunk
    with path.open(encoding="utf-8") as fh:
        try:
            lineno = 1
            line = fh.readline()
            while line and line.strip()[:1] in ("", "#"):  # the header block
                _parse_lines(path, [line], lineno, header, levels)
                lineno += 1
                line = fh.readline()
            chunk = [line, *fh.readlines(_CHUNK_CHARS)] if line else []
            while chunk:
                try:
                    values = np.fromiter(map(float, chunk), np.float64, count=len(chunk))
                except ValueError:
                    values = None
                if values is not None and np.isfinite(values).all():
                    levels.append(values)
                else:
                    _parse_lines(path, chunk, lineno, header, levels)
                lineno += len(chunk)
                chunk = fh.readlines(_CHUNK_CHARS)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path.name}: not UTF-8 text: {exc}") from exc
    levels = np.concatenate(levels) if levels else np.empty(0)
    if "sample_rate_hz" not in header:
        raise FormatError(f"{path.name}: missing '# sample_rate_hz=...' header")

    def header_float(key: str) -> float:
        try:
            return float(header[key])
        except ValueError:
            raise FormatError(f"{path.name}: header {key}={header[key]!r} is not a number") from None

    meta = {key: header[key] for key in _META_HEADER_KEYS if key in header}
    if "frequency_khz" in meta:
        meta["frequency_khz"] = header_float("frequency_khz")
    try:
        return SampleRecord(
            levels=levels,
            sample_rate_hz=header_float("sample_rate_hz"),
            kind=header.get("kind", IN),
            meta=MeasurementMeta(**meta),
        )
    except DomainError as exc:
        raise FormatError(f"{path.name}: {exc}") from exc


def write_record(record: SampleRecord, path: Path | str) -> None:
    """Write a SampleRecord as a record CSV file."""
    # str() of a float is its repr, so every value reads back exactly
    head = f"# sample_rate_hz={record.sample_rate_hz}\n# kind={record.kind}\n"
    for key in _META_HEADER_KEYS:
        value = getattr(record.meta, key)
        if value is not None and value != "":
            head += f"# {key}={value}\n"
    _write_table(path, head, None, [record.levels])


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
    stated = _json_value(float, data["threshold_dbm"], f"{path.name}: threshold_dbm")
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

# one element of the "bursts" array as json.dumps(indent=2) lays it out,
# after the "[" or "," before it; JSON spells a finite float as its repr
_BURST_ROW = (
    '\n    {\n      "start_ms": ',
    ',\n      "duration_ms": ',
    ',\n      "amplitude_dbm": ',
    "\n    }",
)


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
    payload: dict = {
        "record_id": burst_set.record_id,
        "threshold_dbm": burst_set.threshold_dbm,
        "sample_rate_hz": burst_set.sample_rate_hz,
    }
    payload.update(_to_json(stats))
    if stats_excluding_main is not None:
        payload["stats_excluding_main"] = _to_json(stats_excluding_main)
    # json.dumps(indent=2) of the whole payload, "bursts" being its last key
    payload["bursts"] = []
    head = json.dumps(payload, indent=2).removesuffix("]\n}")
    tail = "\n  ]\n}\n" if len(burst_set) else "]\n}\n"
    columns = [burst_set.start_ms, burst_set.duration_ms, burst_set.amplitude_dbm]
    _write_table(path, head, _BURST_ROW, columns, sep=",", tail=tail)
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
    tags = np.full(n, "", dtype=object)
    spans = zip(burst_set.start_idx.tolist(), burst_set.end_idx.tolist())
    for i, (start, end) in enumerate(spans, start=1):
        tags[start : end + 1] = str(i)
    # entry i is the double float(i) * (1000.0 / rate), the index converted exactly
    time_ms = np.arange(n) * (1000.0 / record.sample_rate_hz)
    columns = [time_ms, record.levels, tags]
    _write_table(path, "time_ms,level_dbm,burst_id\n", ("", ",", ",", ""), columns)


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
    _write_table(path, f"level_dbm,{names}\n", pieces, columns)


# ---------------------------------------------------------------------------
# synthetic event specs and ground truth


def read_event_specs(path: Path | str) -> list[BurstEventSpec]:
    """Parse a JSON list of burst event specs for the simulator."""
    path = Path(path)
    data = _read_json(path)
    if not isinstance(data, list):
        raise FormatError(f"{path.name}: expected a JSON list of events")
    return [
        _from_json(BurstEventSpec, entry, f"{path.name}: events[{i}]")
        for i, entry in enumerate(data)
    ]


def write_ground_truth(
    spans: Sequence[tuple[int, int]], events: Sequence[BurstEventSpec], path: Path | str
) -> None:
    """Record the exact injected spans and the events of a simulation."""
    payload = {
        "n_events": len(spans),
        "spans": [[int(s), int(e)] for s, e in spans],
        "events": [_to_json(e) for e in events],
    }
    _write_json(payload, path)
