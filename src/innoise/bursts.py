"""Impulse extraction, pulse-to-burst combination and the burst table.

Pipeline: ``extract_pulses`` finds maximal runs of above-threshold samples,
``combine_pulses`` merges nearby runs into bursts under the rule that more
than 50% of all samples inside a burst must exceed the threshold, and
``detect_bursts`` chains the two and adds each burst's amplitude. The
result is one ``BurstSet``: a table of read-only numpy columns
(``start_idx``, ``end_idx``, ``above_count``, ``amplitude_dbm``) from which
span counts, durations, start times and separations are derived.

The work is array steps, except where the rule or an exact sum needs
Python: one step per merged pulse in ``combine_pulses``, and one
``math.fsum`` call per span of two or more samples in
``_span_amplitudes``. A record of one-sample bursts takes neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .baseline import Baseline
from .model import DomainError, LevelDbm, SampleRecord, checked_sample_rate

_COLUMNS = {
    "start_idx": np.int64,
    "end_idx": np.int64,
    "above_count": np.int64,
    "amplitude_dbm": np.float64,
}


@dataclass(frozen=True, eq=False)
class BurstSet:
    """All bursts detected in one record, one row per burst in index order.

    Indices are inclusive. ``above_count`` counts the samples of a span
    strictly above the threshold and ``amplitude_dbm`` is the linear-power
    mean of every sample in the span. Construction copies the columns,
    freezes them and raises DomainError unless each row starts at index 0
    or later, has 1..span_count samples above the threshold, over half its
    span above it and a finite amplitude, and starts after the previous one.
    """

    start_idx: np.ndarray
    end_idx: np.ndarray
    above_count: np.ndarray
    amplitude_dbm: np.ndarray
    threshold_dbm: float
    record_id: str
    sample_rate_hz: float

    def __post_init__(self) -> None:
        for name, dtype in _COLUMNS.items():
            column = np.array(getattr(self, name), dtype=dtype, copy=True).reshape(-1)
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        object.__setattr__(self, "threshold_dbm", float(self.threshold_dbm))
        object.__setattr__(self, "sample_rate_hz", checked_sample_rate(self.sample_rate_hz))
        n = self.start_idx.size
        if not self.end_idx.size == self.above_count.size == self.amplitude_dbm.size == n:
            raise DomainError("burst columns must have one row per burst")
        start, end, above, span = self.start_idx, self.end_idx, self.above_count, self.span_count
        checks = (
            (start < 0, "start_idx must be >= 0"),
            ((above < 1) | (above > span), "above_count must be in 1..span_count"),
            (2 * above <= span, "burst must have > 50% of samples above threshold"),
            (~np.isfinite(self.amplitude_dbm), "amplitude_dbm must be finite"),
            (np.append(False, start[1:] <= end[:-1]), "bursts must be ordered and disjoint"),
        )
        for bad, message in checks:
            if bad.any():
                row = int(np.argmax(bad))
                raise DomainError(f"{message}: row {row} [{start[row]}, {end[row]}]")

    def __len__(self) -> int:
        return int(self.start_idx.size)

    @property
    def span_count(self) -> np.ndarray:
        """Samples in each inclusive span, above and below threshold alike."""
        return self.end_idx - self.start_idx + 1

    @property
    def duration_ms(self) -> np.ndarray:
        """Whole sampling intervals: a one-sample burst lasts one period."""
        return self.span_count * 1000.0 / self.sample_rate_hz

    @property
    def start_ms(self) -> np.ndarray:
        return self.start_idx * (1000.0 / self.sample_rate_hz)

    @property
    def separations_ms(self) -> np.ndarray:
        """Time from the last sample of each burst to the first of the next."""
        return (self.start_idx[1:] - self.end_idx[:-1]) * (1000.0 / self.sample_rate_hz)

    def without(self, row: int) -> BurstSet:
        """The same set with one burst removed."""
        return replace(self, **{name: np.delete(getattr(self, name), row) for name in _COLUMNS})


def extract_pulses(record: SampleRecord, threshold_dbm: LevelDbm) -> np.ndarray:
    """Return all maximal above-threshold runs of ``record`` in index order.

    An ``(n_pulses, 2)`` int array of inclusive ``[start, end]`` rows;
    no rows when no sample exceeds the threshold.
    """
    above = record.levels > float(threshold_dbm)
    # with a below-threshold sample padded at each end, the changes alternate
    # between a run's first sample and the sample just after its last
    edges = np.flatnonzero(np.diff(above, prepend=False, append=False))
    return edges.reshape(-1, 2) - [0, 1]


def combine_pulses(pulses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedily merge ordered maximal pulses into burst spans.

    Walking left to right, the tentative span from the current burst start
    to the next pulse end is accepted when strictly more than half of its
    samples are above the threshold; otherwise the current burst is closed
    and the pulse opens a new one. Every returned span therefore has a
    >50% above fraction and begins/ends on above-threshold samples.

    With ``above[k]`` the above-threshold samples before pulse ``k``, pulse
    ``k`` stays in the burst headed by pulse ``h`` iff ``tail[k] > head[h]``,
    where ``tail[k] = 2*above[k+1] - end[k] - 1`` and ``head[h] =
    2*above[h] - start[h]``. One array step finds each pulse that would join
    its predecessor were that a head; any other pulse after a head is a head
    itself. So Python walks only from each such join to the next head: once
    per merged pulse, and not at all when nothing merges.

    ``pulses`` must be the ordered, maximal output of ``extract_pulses``, so
    the above-threshold samples of a span are exactly its pulses' samples.
    Returns the ``(n_bursts, 2)`` inclusive spans and each span's above count.
    """
    starts, ends = pulses[:, 0], pulses[:, 1]
    # above[k] = number of above-threshold samples in pulses 0..k-1
    above = np.concatenate(([0], np.cumsum(ends - starts + 1)))
    n = len(pulses)
    if not n:
        return pulses, above[1:]
    tail, head = 2 * above[1:] - ends - 1, 2 * above[:-1] - starts
    opens = np.ones(n, dtype=bool)  # the pulse heads a burst
    placed = 0  # the last pulse placed so far; it heads a burst
    for h in np.flatnonzero(tail[1:] > head[:-1]).tolist():
        if h < placed:  # h lies inside a burst already walked
            continue
        k, bar = h + 2, head[h]  # pulse h + 1 joins the burst that h heads
        while k < n and tail[k] > bar:
            k += 1
        opens[h + 1 : k] = False
        placed = k
    closes = np.append(opens[1:], True)  # the pulse ends a burst
    spans = pulses[np.column_stack((opens, closes))].reshape(-1, 2)
    return spans, above[1:][closes] - above[:-1][opens]


def _span_amplitudes(levels: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """dB value of the mean linear power of each inclusive span.

    Bit-identical to ``mw_to_dbm(math.fsum(powers) / count)`` of each span,
    one IEEE operation at a time, with no Python call per span. A
    one-sample span's sum is its power. ``math.fsum`` is mapped over the
    spans of two or more samples only, and ``math.log10`` over every mean;
    the division and the scaling by 10 are numpy's. Only in-span samples
    are converted to linear power. A SampleRecord's levels keep every
    mean > 0 and finite.
    """
    counts = end - start + 1
    bounds = np.cumsum(counts)
    first = bounds - counts  # each span's first power
    inside = np.repeat(start - first, counts) + np.arange(counts.sum())
    powers = np.power(10.0, levels[inside] / 10.0)
    sums = powers[first]
    long = np.flatnonzero(counts > 1)
    if long.size:
        listed = powers.tolist()
        spans = map(listed.__getitem__, map(slice, first[long].tolist(), bounds[long].tolist()))
        sums[long] = np.fromiter(map(math.fsum, spans), np.float64, count=long.size)
    mean = sums / counts
    return 10.0 * np.fromiter(map(math.log10, mean.tolist()), np.float64, count=mean.size)


def detect_bursts(record: SampleRecord, baseline: Baseline, record_id: str = "") -> BurstSet:
    """The bursts of ``record`` above ``baseline``: none when no sample exceeds it."""
    threshold = baseline.threshold_dbm
    spans, above_count = combine_pulses(extract_pulses(record, threshold))
    start, end = spans[:, 0], spans[:, 1]
    return BurstSet(
        start_idx=start,
        end_idx=end,
        above_count=above_count,
        amplitude_dbm=_span_amplitudes(record.levels, start, end),
        threshold_dbm=threshold,
        record_id=record_id,
        sample_rate_hz=record.sample_rate_hz,
    )
