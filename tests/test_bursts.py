import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from innoise.baseline import derive_threshold
from innoise.bursts import (
    Burst,
    combine_pulses,
    detect_bursts,
    extract_pulses,
    parameterize_burst,
)
from innoise.model import DomainError, SampleRecord
from innoise.synth import BurstEventSpec, generate_wgn, inject_bursts
from segment_oracle import brute_force_segment

THRESHOLD = -67.0
LOW = -90.0  # well below threshold
HIGH = -50.0  # well above threshold


def _rec(levels, rate=1000.0):
    return SampleRecord(levels=levels, sample_rate_hz=rate)


def _rec_with_above(above_indices, n, rate=1000.0):
    levels = np.full(n, LOW)
    levels[list(above_indices)] = HIGH
    return _rec(levels, rate)


def _spans(pulses):
    return [(p.start_idx, p.end_idx) for p in pulses]


def test_extract_no_pulses_when_all_below():
    assert extract_pulses(_rec([LOW] * 20), THRESHOLD) == []


def test_extract_runs_are_maximal():
    record = _rec_with_above({10, 11, 13}, 20)
    assert _spans(extract_pulses(record, THRESHOLD)) == [(10, 11), (13, 13)]


def test_extract_whole_record_single_pulse():
    assert _spans(extract_pulses(_rec([HIGH] * 7), THRESHOLD)) == [(0, 6)]


def test_extract_handles_edges():
    record = _rec_with_above({0, 1, 19}, 20)
    assert _spans(extract_pulses(record, THRESHOLD)) == [(0, 1), (19, 19)]


def test_extract_is_strict_at_threshold():
    record = _rec([THRESHOLD, THRESHOLD + 0.1, THRESHOLD - 0.1])
    assert _spans(extract_pulses(record, THRESHOLD)) == [(1, 1)]


def test_combine_merges_when_fraction_above_half():
    # span 10..13: 3 of 4 above = 0.75 > 0.5 -> one burst
    record = _rec_with_above({10, 11, 13}, 24)
    pulses = extract_pulses(record, THRESHOLD)
    assert combine_pulses(pulses, record, THRESHOLD) == [(10, 13)]


def test_combine_keeps_distant_pulses_apart():
    # span 10..20: 3 of 11 above ~ 0.27 -> two bursts
    record = _rec_with_above({10, 11, 20}, 24)
    pulses = extract_pulses(record, THRESHOLD)
    assert combine_pulses(pulses, record, THRESHOLD) == [(10, 11), (20, 20)]


def test_combine_boundary_fraction():
    # span 10..17: 5 of 8 above = 0.625 -> one burst
    record = _rec_with_above({10, 11, 12, 16, 17}, 24)
    pulses = extract_pulses(record, THRESHOLD)
    assert combine_pulses(pulses, record, THRESHOLD) == [(10, 17)]


def test_combine_exactly_half_does_not_merge():
    # span 10..13: 2 of 4 above = 0.5 exactly -> stays split
    record = _rec_with_above({10, 13}, 24)
    pulses = extract_pulses(record, THRESHOLD)
    assert combine_pulses(pulses, record, THRESHOLD) == [(10, 10), (13, 13)]


def test_parameterize_amplitude_is_linear_power_mean():
    record = _rec([-60.0, -70.0])
    burst = parameterize_burst(record, (0, 1), -71.0)
    assert burst.amplitude_dbm == pytest.approx(-62.5964, abs=1e-3)
    assert burst.above_count == 2
    assert burst.span_count == 2


def test_parameterize_duration_counts_sampling_intervals():
    record = _rec([HIGH, HIGH, LOW, HIGH], rate=1000.0)
    burst = parameterize_burst(record, (0, 3), THRESHOLD)
    assert burst.duration_ms == pytest.approx(4.0)
    assert burst.above_count == 3


def test_parameterize_single_sample_burst():
    record = _rec([LOW, HIGH, LOW], rate=8001.0)
    burst = parameterize_burst(record, (1, 1), THRESHOLD)
    assert burst.amplitude_dbm == pytest.approx(HIGH, abs=1e-9)
    assert burst.duration_ms == pytest.approx(1000.0 / 8001.0)


def test_burst_invariants_enforced_at_construction():
    burst = Burst(start_idx=2, end_idx=5, duration_ms=4.0, amplitude_dbm=-60.0, above_count=3)
    assert burst.span_count == 4
    with pytest.raises(DomainError, match="50%"):
        Burst(start_idx=0, end_idx=3, duration_ms=4.0, amplitude_dbm=-60.0,
              above_count=2)  # exactly 50% above
    with pytest.raises(DomainError, match="above_count"):
        Burst(start_idx=0, end_idx=3, duration_ms=4.0, amplitude_dbm=-60.0,
              above_count=5)


def test_detect_no_bursts_in_pure_noise():
    base = derive_threshold(-80.0)
    burst_set = detect_bursts(_rec([-80.0] * 100), base)
    assert len(burst_set) == 0
    assert burst_set.separations_ms == ()


def test_detect_four_separated_pulse_trains_give_four_bursts():
    # each train: runs of above-threshold samples with short sub-threshold
    # gaps that the >50% rule bridges; trains far enough apart to stay apart
    n = 8000
    levels = np.full(n, LOW)
    trains = [1000, 2800, 4600, 6900]
    for start in trains:
        levels[start : start + 6] = HIGH
        levels[start + 8 : start + 13] = HIGH
        levels[start + 14 : start + 18] = HIGH
    record = _rec(levels, rate=8001.0)
    burst_set = detect_bursts(record, derive_threshold(-80.0))
    assert [b.start_idx for b in burst_set.bursts] == trains
    assert [b.end_idx for b in burst_set.bursts] == [s + 17 for s in trains]
    assert len(burst_set) == 4


def test_detect_recovers_injected_bursts_exactly():
    wgn = generate_wgn(100_000, -100.0, seed=21)
    events = [BurstEventSpec(500 + i * 510, 10, 25.0) for i in range(5)]
    record, truth = inject_bursts(wgn, events)
    base = derive_threshold(-100.0)
    burst_set = detect_bursts(record, base, record_id="synthetic")
    assert len(burst_set) == 5
    for (ts, te), burst in zip(truth, burst_set.bursts):
        assert burst.start_idx <= ts and te <= burst.end_idx
    assert burst_set.record_id == "synthetic"


def test_detect_output_satisfies_burst_invariants():
    wgn = generate_wgn(20_000, -100.0, seed=3)
    events = [
        BurstEventSpec(100, 30, 18.0),
        BurstEventSpec(400, 5, 25.0, shape="decaying"),
        BurstEventSpec(900, 60, 14.5),
        BurstEventSpec(5000, 3, 30.0),
    ]
    record, _ = inject_bursts(wgn, events)
    base = derive_threshold(-100.0)
    burst_set = detect_bursts(record, base)
    above = record.levels > base.threshold_dbm
    for burst in burst_set.bursts:
        assert 2 * burst.above_count > burst.span_count
        assert above[burst.start_idx] and above[burst.end_idx]
        assert burst.above_count == int(above[burst.start_idx : burst.end_idx + 1].sum())
    starts = [b.start_idx for b in burst_set.bursts]
    assert starts == sorted(starts)
    for cur, nxt in zip(burst_set.bursts, burst_set.bursts[1:]):
        assert nxt.start_idx > cur.end_idx
    assert all(s > 0 for s in burst_set.separations_ms)


def test_detect_is_deterministic():
    wgn = generate_wgn(10_000, -100.0, seed=8)
    record, _ = inject_bursts(wgn, [BurstEventSpec(50, 20, 22.0)])
    base = derive_threshold(-100.0)
    assert detect_bursts(record, base) == detect_bursts(record, base)


def test_separation_is_gap_between_edges():
    record = _rec_with_above({10, 20}, 30, rate=1000.0)
    burst_set = detect_bursts(record, derive_threshold(-80.0))
    # 10 sample gap at 1 kHz = 10 ms
    assert burst_set.separations_ms == (10.0,)


def test_raising_threshold_never_adds_above_samples():
    rng = np.random.Generator(np.random.Philox(17))
    levels = -80.0 + 20.0 * rng.random(300)
    record = _rec(levels)
    counts = [
        sum(p.end_idx - p.start_idx + 1 for p in extract_pulses(record, thr))
        for thr in (-75.0, -72.0, -69.0, -66.0, -63.0)
    ]
    assert counts == sorted(counts, reverse=True)


@settings(max_examples=300)
@given(st.lists(st.booleans(), min_size=1, max_size=64), st.integers(0, 2**32 - 1))
def test_combine_matches_brute_force_oracle(above_flags, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    jitter = rng.random(len(above_flags))  # vary levels either side of threshold
    levels = np.where(above_flags, THRESHOLD + 0.5 + jitter, THRESHOLD - 0.5 - jitter)
    record = _rec(levels)
    pulses = extract_pulses(record, THRESHOLD)
    assert combine_pulses(pulses, record, THRESHOLD) == brute_force_segment(record, THRESHOLD)
