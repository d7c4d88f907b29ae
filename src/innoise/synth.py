"""Deterministic synthetic records: Rayleigh-envelope noise, injected bursts.

The generator is the ground-truth oracle for the detection pipeline, so it
must be reproducible bit for bit across platforms and sessions. Randomness
comes from numpy's counter-based Philox generator, and exponential power
samples are drawn by explicit inverse-CDF transform of its raw uniforms
(p = -mean * ln(1 - u)), pinning the whole algorithm rather than relying
on a library's sampling method of the day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    IN,
    WGN,
    ConfigError,
    DomainError,
    LevelDbm,
    SampleRecord,
    dbm_to_mw,
    mean_power_dbm,
)

SHAPE_CONSTANT = "constant"
SHAPE_DECAYING = "decaying"
BURST_SHAPES = (SHAPE_CONSTANT, SHAPE_DECAYING)

# The "decaying" shape ramps linearly in dB from the configured offset down
# to offset - 3 dB (half power) at the last sample of the event.
DECAY_DB = 3.0


@dataclass(frozen=True)
class BurstEventSpec:
    """One synthetic burst event: where, how long, how far above the noise."""

    start_idx: int
    length_samples: int
    level_offset_db: float
    shape: str = SHAPE_CONSTANT

    def __post_init__(self) -> None:
        object.__setattr__(self, "start_idx", int(self.start_idx))
        object.__setattr__(self, "length_samples", int(self.length_samples))
        object.__setattr__(self, "level_offset_db", float(self.level_offset_db))
        if self.length_samples < 1:
            raise ConfigError(f"event length must be >= 1, got {self.length_samples}")
        if self.start_idx < 0:
            raise ConfigError(f"event start must be >= 0, got {self.start_idx}")
        if self.shape not in BURST_SHAPES:
            raise ConfigError(f"shape must be one of {BURST_SHAPES}, got {self.shape!r}")
        if not math.isfinite(self.level_offset_db):
            raise ConfigError("level_offset_db must be finite")

    @property
    def end_idx(self) -> int:
        return self.start_idx + self.length_samples - 1


def generate_wgn(
    n: int,
    mean_level_dbm: LevelDbm,
    seed: int,
    sample_rate_hz: float = 8001.0,
) -> SampleRecord:
    """Generate ``n`` Rayleigh-envelope noise samples around a mean level.

    Envelope power is i.i.d. exponential with mean dbm_to_mw(mean_level_dbm),
    the standard model behind the 13 dB crest-factor rule. Identical seeds
    give identical records on any platform.
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if int(seed) < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    mean_mw = dbm_to_mw(mean_level_dbm)
    rng = np.random.Generator(np.random.Philox(int(seed)))
    u = rng.random(n)  # [0, 1)
    with np.errstate(over="ignore"):  # an overflow is a non-finite sample, rejected below
        power_mw = -mean_mw * np.log1p(-u)
    # u == 0.0 would give zero power (undefined in dB); clamp to subnormal floor
    power_mw = np.maximum(power_mw, np.finfo(np.float64).tiny)
    return SampleRecord(
        levels=10.0 * np.log10(power_mw),
        sample_rate_hz=sample_rate_hz,
        kind=WGN,
    )


def _event_levels(base_level_dbm: float, event: BurstEventSpec) -> np.ndarray:
    length = event.length_samples
    if event.shape == SHAPE_DECAYING and length > 1:
        offsets = np.linspace(event.level_offset_db, event.level_offset_db - DECAY_DB, length)
    else:
        offsets = np.full(length, event.level_offset_db)
    return base_level_dbm + offsets


def inject_bursts(
    record: SampleRecord,
    events: list[BurstEventSpec],
) -> tuple[SampleRecord, tuple[tuple[int, int], ...]]:
    """Overwrite spans of a noise record with elevated burst events.

    Inside each event span the sample power is replaced by the record's
    mean power scaled by 10^(offset/10) (optionally with the linear-dB
    decay of the "decaying" shape). Returns the new record, marked as an
    impulsive-noise measurement, together with the exact injected spans.
    """
    events = list(events)
    n = len(record)
    for i, event in enumerate(events):
        if event.end_idx >= n:
            raise ConfigError(
                f"event {i} spans [{event.start_idx}, {event.end_idx}] "
                f"outside record of {n} samples"
            )
        if i > 0 and event.start_idx <= events[i - 1].end_idx:
            raise ConfigError(f"events {i - 1} and {i} overlap or are unsorted")
    if not events:
        return record, ()
    base_level = mean_power_dbm(record.levels)
    levels = np.array(record.levels, copy=True)
    for event in events:
        levels[event.start_idx : event.end_idx + 1] = _event_levels(base_level, event)
    injected = SampleRecord(
        levels=levels,
        sample_rate_hz=record.sample_rate_hz,
        kind=IN,
        meta=record.meta,
    )
    return injected, tuple((e.start_idx, e.end_idx) for e in events)
