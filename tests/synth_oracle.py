"""Frozen reference for burst injection.

``inject_bursts_oracle`` is the one-event-at-a-time loop that
``synth.inject_bursts`` replaced, kept verbatim so that the column code can
be checked against it: same levels bit for bit, same spans, or the same
ConfigError message. It is test-only code and is not part of the library.
"""

from __future__ import annotations

import numpy as np

from innoise.model import IN, ConfigError, SampleRecord, mean_power_dbm
from innoise.synth import DECAY_DB, SHAPE_DECAYING, BurstEventSpec


def _event_levels(base_level_dbm: float, event: BurstEventSpec) -> np.ndarray:
    length = event.length_samples
    if event.shape == SHAPE_DECAYING and length > 1:
        offsets = np.linspace(event.level_offset_db, event.level_offset_db - DECAY_DB, length)
    else:
        offsets = np.full(length, event.level_offset_db)
    return base_level_dbm + offsets


def inject_bursts_oracle(
    record: SampleRecord,
    events: list[BurstEventSpec],
) -> tuple[SampleRecord, tuple[tuple[int, int], ...]]:
    """Overwrite spans of a noise record with elevated burst events."""
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
