"""Impulse extraction, pulse-to-burst combination, burst parameterization.

Pipeline: ``extract_pulses`` finds maximal runs of above-threshold samples,
``combine_pulses`` merges nearby runs into bursts under the rule that more
than 50% of all samples inside a burst must exceed the threshold, and
``parameterize_burst`` computes duration and amplitude per burst.
``detect_bursts`` chains the three.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baseline import Baseline
from .model import DomainError, LevelDbm, SampleRecord, mean_power_dbm


@dataclass(frozen=True)
class Pulse:
    """A maximal run of consecutive samples strictly above the threshold.

    Indices are inclusive. Maximality means the neighbours just outside
    the run (where they exist) are at or below the threshold.
    """

    start_idx: int
    end_idx: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "start_idx", int(self.start_idx))
        object.__setattr__(self, "end_idx", int(self.end_idx))
        if self.start_idx > self.end_idx:
            raise DomainError(f"pulse start {self.start_idx} > end {self.end_idx}")


@dataclass(frozen=True)
class Burst:
    """One detected burst with its descriptive parameters.

    ``span_count`` counts every sample in the inclusive index span;
    ``above_count`` counts those strictly above the threshold. The >50%
    combination rule guarantees above_count/span_count > 0.5.
    """

    start_idx: int
    end_idx: int
    duration_ms: float
    amplitude_dbm: float
    above_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "start_idx", int(self.start_idx))
        object.__setattr__(self, "end_idx", int(self.end_idx))
        object.__setattr__(self, "above_count", int(self.above_count))
        object.__setattr__(self, "duration_ms", float(self.duration_ms))
        object.__setattr__(self, "amplitude_dbm", float(self.amplitude_dbm))
        if not 0 < self.above_count <= self.span_count:
            raise DomainError("above_count must be in 1..span_count")
        if 2 * self.above_count <= self.span_count:
            raise DomainError("burst must have > 50% of samples above threshold")

    @property
    def span_count(self) -> int:
        return self.end_idx - self.start_idx + 1


@dataclass(frozen=True)
class BurstSet:
    """All bursts detected in one record, in index order, plus the gaps
    between them.

    ``separations_ms[i]`` is the time from the last sample of burst i to
    the first sample of burst i+1. Construction raises DomainError unless
    every burst starts after the previous one ends.
    """

    bursts: tuple[Burst, ...]
    threshold_dbm: float
    record_id: str
    sample_rate_hz: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "bursts", tuple(self.bursts))
        object.__setattr__(self, "threshold_dbm", float(self.threshold_dbm))
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))
        for cur, nxt in zip(self.bursts, self.bursts[1:]):
            if nxt.start_idx <= cur.end_idx:
                raise DomainError(
                    f"bursts must be ordered and disjoint: [{cur.start_idx}, {cur.end_idx}] "
                    f"then [{nxt.start_idx}, {nxt.end_idx}]"
                )

    def __len__(self) -> int:
        return len(self.bursts)

    @property
    def separations_ms(self) -> tuple[float, ...]:
        period_ms = 1000.0 / self.sample_rate_hz
        return tuple(
            (nxt.start_idx - cur.end_idx) * period_ms
            for cur, nxt in zip(self.bursts, self.bursts[1:])
        )


def extract_pulses(record: SampleRecord, threshold_dbm: LevelDbm) -> list[Pulse]:
    """Return all maximal above-threshold runs of ``record`` in index order.

    Empty list when no sample exceeds the threshold.
    """
    above = record.levels > float(threshold_dbm)
    if not above.any():
        return []
    edges = np.diff(above.astype(np.int8))
    starts = np.flatnonzero(edges == 1) + 1
    ends = np.flatnonzero(edges == -1)
    if above[0]:
        starts = np.concatenate(([0], starts))
    if above[-1]:
        ends = np.concatenate((ends, [above.size - 1]))
    return [Pulse(int(s), int(e)) for s, e in zip(starts, ends)]


def combine_pulses(
    pulses: list[Pulse],
    record: SampleRecord,
    threshold_dbm: LevelDbm,
) -> list[tuple[int, int]]:
    """Greedily merge ordered maximal pulses into burst spans.

    Walking left to right, the tentative span from the current burst start
    to the next pulse end is accepted when strictly more than half of its
    samples are above the threshold; otherwise the current burst is closed
    and the pulse opens a new one. Every returned span therefore has a
    >50% above fraction and begins/ends on above-threshold samples.

    ``pulses`` must be the ordered, maximal output of ``extract_pulses``.
    """
    if not pulses:
        return []
    above = record.levels > float(threshold_dbm)
    # prefix[i] = number of above-threshold samples before index i
    prefix = np.concatenate(([0], np.cumsum(above, dtype=np.int64)))
    spans: list[tuple[int, int]] = []
    cur_start, cur_end = pulses[0].start_idx, pulses[0].end_idx
    for pulse in pulses[1:]:
        span_count = pulse.end_idx - cur_start + 1
        above_count = int(prefix[pulse.end_idx + 1] - prefix[cur_start])
        if 2 * above_count > span_count:
            cur_end = pulse.end_idx
        else:
            spans.append((cur_start, cur_end))
            cur_start, cur_end = pulse.start_idx, pulse.end_idx
    spans.append((cur_start, cur_end))
    return spans


def parameterize_burst(
    record: SampleRecord,
    span: tuple[int, int],
    threshold_dbm: LevelDbm,
) -> Burst:
    """Compute duration, amplitude and sample counts for one burst span.

    Amplitude is the linear (power-domain) average of every sample in the
    span, above and below threshold alike. Duration counts whole sampling
    intervals, so a single-sample burst lasts one sample period.
    """
    start, end = int(span[0]), int(span[1])
    segment = record.levels[start : end + 1]
    span_count = end - start + 1
    above_count = int(np.count_nonzero(segment > float(threshold_dbm)))
    return Burst(
        start_idx=start,
        end_idx=end,
        duration_ms=span_count * 1000.0 / record.sample_rate_hz,
        amplitude_dbm=mean_power_dbm(segment),
        above_count=above_count,
    )


def detect_bursts(record: SampleRecord, baseline: Baseline, record_id: str = "") -> BurstSet:
    """Full impulse pipeline for one record against a derived baseline.

    Returns an empty BurstSet when no sample exceeds the threshold.
    """
    threshold = baseline.threshold_dbm
    pulses = extract_pulses(record, threshold)
    spans = combine_pulses(pulses, record, threshold)
    return BurstSet(
        bursts=tuple(parameterize_burst(record, s, threshold) for s in spans),
        threshold_dbm=threshold,
        record_id=record_id,
        sample_rate_hz=record.sample_rate_hz,
    )
