import math

import pytest
from hypothesis import given, strategies as st

from innoise.bursts import BurstSet
from innoise.model import ConfigError, DomainError, MeasurementMeta
from innoise.stats import (
    MeasurementStats,
    aggregate_campaign,
    main_burst,
    measurement_stats,
    std_dev,
)

META = MeasurementMeta(frequency_khz=1910.0, event="turn on seven flickering tubes")


def _burst_set(rows, rate=1000.0):
    """A BurstSet from (start, span, amplitude) rows, each just over half above."""
    return BurstSet(
        start_idx=[start for start, _, _ in rows],
        end_idx=[start + span - 1 for start, span, _ in rows],
        above_count=[span // 2 + 1 for _, span, _ in rows],
        amplitude_dbm=[amplitude for _, _, amplitude in rows],
        threshold_dbm=-67.0,
        record_id="test",
        sample_rate_hz=rate,
    )


def test_weighted_amplitude_average():
    # (-60*1 + -66*3) / (1 + 3) = -64.5 dBm
    bursts = [(0, 1, -60.0), (100, 3, -66.0)]
    stats = measurement_stats(_burst_set(bursts))
    assert stats.avg_amplitude_dbm == pytest.approx(-64.5, abs=1e-12)


def test_duration_average_is_arithmetic_mean():
    bursts = [(0, 1, -60.0), (100, 3, -66.0)]
    stats = measurement_stats(_burst_set(bursts))
    assert stats.n_bursts == 2
    assert stats.avg_duration_ms == pytest.approx(2.0)


def test_separation_average():
    burst_set = _burst_set([(0, 2, -60.0), (101, 2, -60.0), (222, 2, -60.0)])
    assert burst_set.separations_ms.tolist() == [100.0, 120.0]
    assert measurement_stats(burst_set).avg_separation_ms == pytest.approx(110.0)


def test_empty_and_single_burst_fields():
    empty = measurement_stats(_burst_set([]))
    assert empty.n_bursts == 0
    assert empty.avg_duration_ms is None
    assert empty.avg_amplitude_dbm is None
    assert empty.avg_separation_ms is None
    single = measurement_stats(_burst_set([(0, 4, -60.0)]))
    assert single.n_bursts == 1
    assert single.avg_duration_ms == pytest.approx(4.0)
    assert single.avg_separation_ms is None


def test_amplitude_average_bounded_by_extremes():
    rngs = [(-72.5, 3), (-60.1, 7), (-66.0, 2), (-80.0, 11)]
    bursts = [(100 * i, span, amp) for i, (amp, span) in enumerate(rngs)]
    stats = measurement_stats(_burst_set(bursts))
    amplitudes = [amp for amp, _ in rngs]
    assert min(amplitudes) <= stats.avg_amplitude_dbm <= max(amplitudes)


def test_burst_set_rejects_unordered_bursts():
    bursts = [(0, 2, -60.0), (50, 6, -70.0), (200, 4, -65.0)]
    assert len(_burst_set(bursts)) == 3
    with pytest.raises(DomainError, match="ordered"):
        _burst_set([bursts[2], bursts[0], bursts[1]])
    with pytest.raises(DomainError, match="ordered"):
        _burst_set([(0, 4, -60.0), (3, 2, -60.0)])  # overlapping


def test_main_burst_ratio_and_reduced_stats():
    bursts = [(0, 10, -60.0), (100, 1, -70.0), (200, 1, -72.0)]
    analysis = main_burst(_burst_set(bursts))
    assert analysis.main.index == 0
    assert analysis.main.duration_ms == pytest.approx(10.0)
    assert analysis.main.ratio_to_second_longest == pytest.approx(10.0)
    reduced = analysis.stats_excluding
    assert reduced.n_bursts == 2
    assert reduced.avg_duration_ms == pytest.approx(1.0)
    # separation between the two remaining bursts spans the removed gap
    assert reduced.avg_separation_ms == pytest.approx(100.0)


def test_main_burst_tie_breaks_to_earliest():
    bursts = [(0, 5, -60.0), (100, 5, -55.0)]
    analysis = main_burst(_burst_set(bursts))
    assert analysis.main.index == 0
    assert analysis.main.amplitude_dbm == -60.0


def test_main_burst_single_and_empty():
    single = main_burst(_burst_set([(0, 3, -61.0)]))
    assert single.main.ratio_to_second_longest is None
    assert single.stats_excluding.n_bursts == 0
    assert main_burst(_burst_set([])) is None


def test_std_dev_reference_rounding_cases():
    assert std_dev([0.53, 0.65]) == pytest.approx(0.0849, abs=5e-3)
    assert std_dev([118.91, 103.13]) == pytest.approx(11.158, abs=1e-3)
    assert std_dev([5.0, 5.0, 5.0]) == 0.0


def test_std_dev_matches_formula():
    values = [0.53, 0.65]
    assert std_dev(values) == pytest.approx(math.sqrt(0.0072), abs=1e-15)


def test_std_dev_needs_two_values():
    with pytest.raises(DomainError):
        std_dev([1.0])
    with pytest.raises(DomainError):
        std_dev([])


@given(st.floats(min_value=-1e6, max_value=1e6))
def test_std_dev_translation_invariant(shift):
    values = [0.53, 0.65, 0.61, 0.48]
    assert std_dev([v + shift for v in values]) == pytest.approx(std_dev(values), abs=1e-9)


def _stats(n, dur, amp, sep):
    return MeasurementStats(
        n_bursts=n, avg_duration_ms=dur, avg_amplitude_dbm=amp, avg_separation_ms=sep
    )


def _reference_measurements():
    return [_stats(31, 0.53, -64.70, 118.91), _stats(30, 0.65, -66.21, 103.13)]


def test_aggregate_reproduces_reference_averages():
    char = aggregate_campaign(_reference_measurements(), META)
    assert char.n_measurements == 2
    assert char.mean_n_bursts == pytest.approx(30.5, abs=5e-3)
    assert char.mean_duration_ms == pytest.approx(0.59, abs=5e-3)
    assert char.sd_duration_ms == pytest.approx(0.08, abs=5e-3)
    assert char.mean_amplitude_dbm == pytest.approx(-65.46, abs=5e-3)
    assert char.sd_amplitude_db == pytest.approx(1.07, abs=5e-3)
    assert char.mean_separation_ms == pytest.approx(111.02, abs=5e-3)
    assert char.sd_separation_ms == pytest.approx(11.16, abs=5e-3)
    assert char.event == META.event
    assert char.frequency_khz == 1910.0


def test_aggregate_single_measurement_has_no_deviations():
    char = aggregate_campaign(_reference_measurements()[:1], META)
    assert char.mean_n_bursts == 31.0
    assert char.mean_duration_ms == 0.53
    assert char.sd_duration_ms is None
    assert char.sd_amplitude_db is None
    assert char.sd_separation_ms is None


def test_aggregate_identical_measurements_have_zero_deviation():
    stats = _stats(4, 1.5, -60.0, 100.0)
    char = aggregate_campaign([stats, stats, stats], META)
    assert char.sd_duration_ms == 0.0
    assert char.sd_amplitude_db == 0.0
    assert char.sd_separation_ms == 0.0
    assert char.mean_duration_ms == 1.5


def test_aggregate_skips_measurements_without_separations():
    with_sep = _stats(3, 1.0, -60.0, 50.0)
    without_sep = _stats(1, 2.0, -62.0, None)
    char = aggregate_campaign([with_sep, without_sep], META)
    assert char.n_with_separation == 1
    assert char.mean_separation_ms == 50.0
    assert char.sd_separation_ms is None
    assert char.n_with_bursts == 2
    assert char.mean_duration_ms == pytest.approx(1.5)


def test_aggregate_zero_burst_measurements_do_not_dilute():
    none = _stats(0, None, None, None)
    some = _stats(2, 1.0, -60.0, 10.0)
    char = aggregate_campaign([none, some], META)
    assert char.mean_n_bursts == 1.0
    assert char.n_with_bursts == 1
    assert char.mean_duration_ms == 1.0
    assert char.mean_amplitude_dbm == -60.0


def test_aggregate_rejects_empty_and_mixed_inputs():
    with pytest.raises(DomainError):
        aggregate_campaign([], META)
    other_event = MeasurementMeta(frequency_khz=1910.0, event="different event")
    with pytest.raises(ConfigError):
        aggregate_campaign(_reference_measurements(), [META, other_event])
    other_freq = MeasurementMeta(frequency_khz=630.0, event=META.event)
    with pytest.raises(ConfigError):
        aggregate_campaign(_reference_measurements(), [META, other_freq])
    with pytest.raises(ConfigError):
        aggregate_campaign(_reference_measurements(), [META])  # length mismatch
    with pytest.raises(ConfigError):
        aggregate_campaign(_reference_measurements(), MeasurementMeta(event="no freq"))
