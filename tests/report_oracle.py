"""Round-trip helpers for the JSON files the library only writes.

The program reads manifests and baseline reports but never its own
measurement and campaign reports, and never writes a manifest. The tests
use these helpers to check that those files survive a write and a read
through the one JSON codec, ``io._to_json`` / ``io._from_json``.
"""

from __future__ import annotations

from pathlib import Path

from innoise import io
from innoise.stats import MeasurementStats, SourceCharacterization


def write_manifest(manifest: io.CampaignManifest, path: Path) -> None:
    io._write_json(io._to_json(manifest), path)


def read_measurement_report(path: Path) -> MeasurementStats:
    """The summary statistics of a measurement report JSON."""
    return io._from_json(MeasurementStats, io._read_json(path), path.name)


def read_campaign_report(path: Path) -> SourceCharacterization:
    return io._from_json(SourceCharacterization, io._read_json(path), path.name)
