"""Per-measurement burst statistics and cross-measurement aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bursts import BurstSet
from .model import ConfigError, DomainError, MeasurementMeta


@dataclass(frozen=True)
class MainBurst:
    """The longest burst of a measurement.

    ``index`` refers to the burst list sorted by start index. The duration
    ratio to the second-longest burst is left to the analyst to judge;
    it is absent when only one burst exists.
    """

    index: int
    duration_ms: float
    amplitude_dbm: float
    ratio_to_second_longest: float | None = None


@dataclass(frozen=True)
class MeasurementStats:
    """Impulsive-noise parameters of a single measurement.

    Averages require at least one burst; the separation average requires
    at least two. Absent values are None.
    """

    n_bursts: int
    avg_duration_ms: float | None = None
    avg_amplitude_dbm: float | None = None
    avg_separation_ms: float | None = None
    main_burst: MainBurst | None = None


@dataclass(frozen=True)
class MainBurstAnalysis:
    """Main burst plus the measurement statistics recomputed without it."""

    main: MainBurst
    stats_excluding: MeasurementStats


@dataclass(frozen=True)
class SourceCharacterization:
    """Averaged parameters of one source event over repeated measurements.

    Duration/amplitude aggregates cover the measurements that detected at
    least one burst (``n_with_bursts``); separation aggregates cover those
    with at least two (``n_with_separation``). Standard deviations need at
    least two contributing measurements; absent values are None.
    """

    event: str
    frequency_khz: float
    n_measurements: int
    n_with_bursts: int
    n_with_separation: int
    mean_n_bursts: float
    mean_duration_ms: float | None = None
    sd_duration_ms: float | None = None
    mean_amplitude_dbm: float | None = None
    sd_amplitude_db: float | None = None
    mean_separation_ms: float | None = None
    sd_separation_ms: float | None = None


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def std_dev(values: Sequence[float]) -> float:
    """Sample standard deviation: sqrt(sum((q - mean)^2) / (n - 1))."""
    vals = [float(v) for v in values]
    n = len(vals)
    if n < 2:
        raise DomainError(f"std_dev needs at least 2 values, got {n}")
    mean = _mean(vals)
    return math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / (n - 1))


def measurement_stats(burst_set: BurstSet) -> MeasurementStats:
    """Summarize a BurstSet into the per-measurement parameters.

    Burst duration averages arithmetically; amplitude averages weighted by
    duration (longer bursts contribute more), directly on the dBm values;
    separation averages arithmetically and exists only for >= 2 bursts.
    """
    n = len(burst_set)
    if n == 0:
        return MeasurementStats(0)
    durations = burst_set.duration_ms
    total_duration = math.fsum(durations.tolist())
    weighted = math.fsum((burst_set.amplitude_dbm * durations).tolist())
    return MeasurementStats(
        n_bursts=n,
        avg_duration_ms=total_duration / n,
        avg_amplitude_dbm=weighted / total_duration,
        avg_separation_ms=_mean(burst_set.separations_ms.tolist()) if n >= 2 else None,
    )


def main_burst(burst_set: BurstSet) -> MainBurstAnalysis | None:
    """Identify the longest burst and restate the measurement without it.

    Useful when one burst dwarfs the rest and would dominate the weighted
    amplitude. Ties on duration resolve to the earliest start index.
    None when the set is empty.
    """
    if not len(burst_set):
        return None
    durations = burst_set.duration_ms
    index = int(np.argmax(durations))  # the first of equal maxima
    rest = burst_set.without(index)
    ratio = float(durations[index] / rest.duration_ms.max()) if len(rest) else None
    main = MainBurst(
        index=index,
        duration_ms=float(durations[index]),
        amplitude_dbm=float(burst_set.amplitude_dbm[index]),
        ratio_to_second_longest=ratio,
    )
    return MainBurstAnalysis(main=main, stats_excluding=measurement_stats(rest))


def aggregate_campaign(
    stats: Sequence[MeasurementStats],
    metas: MeasurementMeta | Sequence[MeasurementMeta],
) -> SourceCharacterization:
    """Average per-measurement parameters into a source characterization.

    All measurements must describe the same event at the same frequency;
    pass one shared MeasurementMeta or one per measurement. Amplitudes are
    averaged directly in dBm. Measurements missing a parameter (no bursts,
    or a single burst for separations) are excluded from that parameter's
    aggregate rather than counted as zero.
    """
    stats = list(stats)
    if not stats:
        raise DomainError("aggregate_campaign needs at least one measurement")
    if isinstance(metas, MeasurementMeta):
        metas = [metas] * len(stats)
    else:
        metas = list(metas)
        if len(metas) != len(stats):
            raise ConfigError(
                f"got {len(stats)} measurements but {len(metas)} metadata entries"
            )
    events = {m.event for m in metas}
    freqs = {m.frequency_khz for m in metas if m.frequency_khz is not None}
    if len(events) > 1:
        raise ConfigError(f"measurements mix events: {sorted(events)}")
    if len(freqs) > 1:
        raise ConfigError(f"measurements mix frequencies: {sorted(freqs)}")
    if not freqs:
        raise ConfigError("frequency_khz missing from measurement metadata")

    durations = [s.avg_duration_ms for s in stats if s.avg_duration_ms is not None]
    amplitudes = [s.avg_amplitude_dbm for s in stats if s.avg_amplitude_dbm is not None]
    separations = [s.avg_separation_ms for s in stats if s.avg_separation_ms is not None]

    def agg(values: list[float]) -> tuple[float | None, float | None]:
        if not values:
            return None, None
        return _mean(values), (std_dev(values) if len(values) >= 2 else None)

    mean_dur, sd_dur = agg(durations)
    mean_amp, sd_amp = agg(amplitudes)
    mean_sep, sd_sep = agg(separations)
    return SourceCharacterization(
        n_measurements=len(stats),
        mean_n_bursts=_mean([float(s.n_bursts) for s in stats]),
        mean_duration_ms=mean_dur,
        sd_duration_ms=sd_dur,
        mean_amplitude_dbm=mean_amp,
        sd_amplitude_db=sd_amp,
        mean_separation_ms=mean_sep,
        sd_separation_ms=sd_sep,
        n_with_bursts=len(durations),
        n_with_separation=len(separations),
        event=metas[0].event,
        frequency_khz=float(next(iter(freqs))),
    )
