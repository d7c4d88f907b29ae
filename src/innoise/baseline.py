"""WGN baseline: r.m.s. level, detection threshold, impulse-free validation.

A baseline is established once per location and frequency from a record
taken while the studied source is off. All impulse decisions elsewhere in
the pipeline compare strictly against ``threshold_dbm`` from this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import LEVEL_MAX_DBM, LEVEL_MIN_DBM, ConfigError, LevelDbm, SampleRecord, mean_power_dbm

# Crest factor of white Gaussian noise: peaks sit ~13 dB above the r.m.s.
# level, so anything higher must come from impulses.
DEFAULT_OFFSET_DB = 13.0


@dataclass(frozen=True)
class Baseline:
    """r.m.s. level and the impulse detection threshold derived from it.

    The threshold lies in the level range [LEVEL_MIN_DBM, LEVEL_MAX_DBM]:
    no sample could exceed a higher one, so it would find no bursts, and
    every sample exceeds a lower one, so the whole record would be one
    burst. A baseline derived from a record is never refused for it, since
    the record's r.m.s. level is in the range and the offset positive."""

    rms_dbm: float
    offset_db: float = DEFAULT_OFFSET_DB
    source_record_id: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.offset_db) and self.offset_db > 0):
            raise ConfigError(f"offset_db must be a positive number, got {self.offset_db}")
        if not LEVEL_MIN_DBM <= self.threshold_dbm <= LEVEL_MAX_DBM:
            raise ConfigError(
                f"threshold rms_dbm + offset_db = {self.threshold_dbm} dBm "
                f"must be in [{LEVEL_MIN_DBM:g}, {LEVEL_MAX_DBM:g}] dBm"
            )

    @property
    def threshold_dbm(self) -> LevelDbm:
        return self.rms_dbm + self.offset_db


@dataclass(frozen=True)
class WgnValidation:
    """Outcome of checking a WGN record for residual impulses."""

    passed: bool
    exceed_count: int
    exceed_indices: tuple[int, ...]
    max_level_dbm: float

    def __post_init__(self) -> None:
        if (count := len(self.exceed_indices)) != self.exceed_count:
            raise ConfigError(f"exceed_count {self.exceed_count} is not the {count} exceed_indices")


def compute_rms_level(record: SampleRecord) -> LevelDbm:
    """r.m.s. level of a record in dBm.

    Evaluated on linear power: the dB value of the mean milliwatt power of
    all samples. For envelope level data this is the self-consistent
    reading of the usual sqrt(1/N * sum(v_i^2)) definition. A record's
    level range keeps that mean > 0 and finite.
    """
    return mean_power_dbm(record.levels)


def derive_threshold(
    rms: LevelDbm,
    offset_db: float = DEFAULT_OFFSET_DB,
    source_record_id: str = "",
) -> Baseline:
    """Place the impulse detection threshold ``offset_db`` above ``rms``."""
    return Baseline(
        rms_dbm=float(rms), offset_db=float(offset_db), source_record_id=source_record_id
    )


def validate_wgn(
    record: SampleRecord,
    baseline: Baseline,
    max_exceed_fraction: float = 0.0,
) -> WgnValidation:
    """Check that a WGN record contains no samples above the threshold.

    "Above" is strict: a sample exactly at the threshold is not an
    exceedance. By default a single exceedance fails the record;
    ``max_exceed_fraction`` relaxes that for noisy sites.
    """
    if not (math.isfinite(max_exceed_fraction) and max_exceed_fraction >= 0):
        raise ConfigError(f"max_exceed_fraction must be a number >= 0, got {max_exceed_fraction}")
    exceed = np.flatnonzero(record.levels > baseline.threshold_dbm)
    passed = exceed.size <= max_exceed_fraction * len(record)
    return WgnValidation(
        passed=bool(passed),
        exceed_count=int(exceed.size),
        exceed_indices=tuple(exceed.tolist()),
        max_level_dbm=float(record.levels.max()) + 0.0,  # a zero maximum reads 0.0
    )
