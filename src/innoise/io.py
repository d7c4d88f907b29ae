"""File formats and their readers/writers.

Formats
-------
record CSV       ``# key=value`` comment header (sample_rate_hz required;
                 MeasurementMeta's fields optional, any other key ignored),
                 then one dBm level per line of UTF-8 text (a leading BOM
                 skipped; universal newlines: LF, CRLF and CR end a line).
                 Blank and ``#`` lines are skipped anywhere; errors name
                 the line.
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
CSV tables round to 2 decimals; the JSON keeps full precision. ``records``
reads and writes the record CSV; ``numtext`` writes every per-row table.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import numtext, records
from .apd import ApdCurve
from .baseline import DEFAULT_OFFSET_DB, Baseline, WgnValidation
from .bursts import BurstSet
from .model import ConfigError, DomainError, FormatError, MeasurementMeta, SampleRecord
from .records import read_record, write_record
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
    element of its columns (``numtext._write_table``), an object of a dict's named
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
            numtext._write_table(fh, f',\n  "{key}": [', pieces, cells, ",", end)
        fh.write(b"\n}\n")


def _write_summary(path: Path | str, rows: list[tuple[str, object]]) -> None:
    """Write a report's summary table, one ``parameter,value`` line per row,
    as the CSV beside the report at ``path``, in bytes: LF-ended on every OS."""
    lines = ["parameter,value", *(f"{name},{value}" for name, value in rows)]
    Path(path).with_suffix(".csv").write_bytes(("\n".join(lines) + "\n").encode())


def _read_json(path: Path) -> Any:
    with records._text(path) as fh:
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
        numtext._write_table(fh, "time_ms,level_dbm,burst_id\n", ("", ",", ",", ""), columns)


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
        numtext._write_table(fh, f"level_dbm,{names}\n", pieces, columns)


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
