"""Round-trip helpers for the JSON files the library only writes.

The program reads manifests and baseline reports but never its own
measurement and campaign reports, and never writes a manifest. The tests
use these helpers to check that those files survive a write through the
library's JSON codec (``io._to_json``) and a read. The library's decoder
(``io._from_json``) knows only the types the program reads, so the reports
are decoded here: a key per field, a missing key for a None field.
"""

from __future__ import annotations

from dataclasses import fields, replace
from pathlib import Path

from innoise import io
from innoise.stats import MainBurst, MeasurementStats, SourceCharacterization


def write_manifest(manifest: io.CampaignManifest, path: Path) -> None:
    io._write_json(io._to_json(manifest), path)


def _decoded(cls: type, data: dict):
    return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})


def _stats(data: dict) -> MeasurementStats:
    stats = _decoded(MeasurementStats, data)
    main, excluding = stats.main_burst, stats.stats_excluding_main
    return replace(
        stats,
        main_burst=None if main is None else _decoded(MainBurst, main),
        stats_excluding_main=None if excluding is None else _stats(excluding),
    )


def read_measurement_report(path: Path) -> MeasurementStats:
    """The summary statistics of a measurement report JSON, with the main
    burst and the statistics without it."""
    return _stats(io._read_json(path))


def read_campaign_report(path: Path) -> SourceCharacterization:
    return _decoded(SourceCharacterization, io._read_json(path))
