"""Deterministic synthetic records: Rayleigh-envelope noise, injected bursts.

The generator is the ground-truth oracle for the detection pipeline, so it
must be reproducible. Randomness comes from numpy's counter-based Philox
generator, and exponential power samples are drawn by explicit inverse-CDF
transform of its raw uniforms (p = -mean * ln(1 - u)), pinning the whole
algorithm rather than relying on a library's sampling method of the day.
The uniforms are the same everywhere, but ``np.log1p`` and ``np.log10``
round differently under different SIMD paths, so a record is bit for bit
the same only on the same numpy build and CPU feature set (ROADMAP item 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    LEVEL_MIN_DBM,
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


@dataclass(frozen=True, init=False)
class BurstEventSpec:
    """One synthetic burst event: where, how long, how far above the noise.

    Construction coerces and checks each field once; ConfigError names a bad one.
    """

    start_idx: int
    length_samples: int
    level_offset_db: float
    shape: str = SHAPE_CONSTANT

    # ``shape=shape`` reads the field's default from the class body, so it is stated once
    def __init__(
        self, start_idx: int, length_samples: int, level_offset_db: float, shape: str = shape
    ) -> None:
        start_idx, length_samples = int(start_idx), int(length_samples)
        level_offset_db = float(level_offset_db)
        if length_samples < 1:
            raise ConfigError(f"event length must be >= 1, got {length_samples}")
        if start_idx < 0:
            raise ConfigError(f"event start must be >= 0, got {start_idx}")
        if shape not in BURST_SHAPES:
            raise ConfigError(f"shape must be one of {BURST_SHAPES}, got {shape!r}")
        if not math.isfinite(level_offset_db):
            raise ConfigError("level_offset_db must be finite")
        # frozen: set the checked values once, past the dataclass's __setattr__
        setattr_ = object.__setattr__
        setattr_(self, "start_idx", start_idx)
        setattr_(self, "length_samples", length_samples)
        setattr_(self, "level_offset_db", level_offset_db)
        setattr_(self, "shape", shape)

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
    give identical records on the same numpy build and CPU feature set.
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if int(seed) < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    mean_mw = dbm_to_mw(mean_level_dbm)
    rng = np.random.Generator(np.random.Philox(int(seed)))
    try:
        u = rng.random(n)  # [0, 1)
    except (MemoryError, ValueError):  # past the memory, or numpy's largest array
        raise DomainError(f"n = {n} samples do not fit in memory") from None
    # at most 53 ln 2 times the mean, so finite; u == 0.0 gives zero power
    # (undefined in dB), clamped to the lowest level's
    power_mw = np.maximum(-mean_mw * np.log1p(-u), dbm_to_mw(LEVEL_MIN_DBM))
    return SampleRecord(levels=10.0 * np.log10(power_mw), sample_rate_hz=sample_rate_hz)


def inject_bursts(
    record: SampleRecord,
    events: list[BurstEventSpec],
) -> tuple[SampleRecord, tuple[tuple[int, int], ...]]:
    """Overwrite spans of a noise record with elevated burst events.

    Inside each event span the sample power is replaced by the record's
    mean power scaled by 10^(offset/10) (optionally with the linear-dB
    decay of the "decaying" shape). Returns the new record, with the
    original's sample rate and meta, together with the exact injected spans.
    Events must be sorted and apart; ConfigError names the first that is
    not, or that reaches past the record.
    """
    events = list(events)
    if not events:
        return record, ()
    n = len(record)
    # indices clipped to n + 1, past the record, so that none overflows
    # int64 and every end past the record stays past it
    cap = n + 1
    start = np.array([e.start_idx if e.start_idx < cap else cap for e in events], np.int64)
    length = np.array(
        [e.length_samples if e.length_samples < cap else cap for e in events], np.int64
    )
    end = start + length - 1
    bad = end >= n
    bad[1:] |= start[1:] <= end[:-1]
    if bad.any():
        i = int(np.argmax(bad))
        if end[i] >= n:
            event = events[i]
            raise ConfigError(
                f"event {i} spans [{event.start_idx}, {event.end_idx}] "
                f"outside record of {n} samples"
            )
        raise ConfigError(f"events {i - 1} and {i} overlap or are unsorted")

    # np.linspace(offset, stop, length) one IEEE operation at a time: sample
    # j of a ramp is j * step + offset and its last sample is stop. Any other
    # event has step 0, and base_level + (0.0 + offset) has the bits of
    # base_level + offset, as base_level is never -0.0.
    offset = np.array([e.level_offset_db for e in events], np.float64)
    stop = offset - DECAY_DB
    ramp = np.array([e.shape == SHAPE_DECAYING for e in events]) & (length > 1)
    step = np.zeros(len(events))
    step[ramp] = (stop[ramp] - offset[ramp]) / (length[ramp] - 1)
    first = np.cumsum(length) - length  # each event's first injected sample
    j = np.arange(first[-1] + length[-1]) - np.repeat(first, length)
    values = j * np.repeat(step, length)
    values += np.repeat(offset, length)
    values[(first + length - 1)[ramp]] = stop[ramp]
    levels = np.array(record.levels, copy=True)
    levels[j + np.repeat(start, length)] = mean_power_dbm(record.levels) + values
    injected = SampleRecord(levels, sample_rate_hz=record.sample_rate_hz, meta=record.meta)
    return injected, tuple(zip(start.tolist(), end.tolist()))
