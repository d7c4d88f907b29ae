import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from innoise.baseline import derive_threshold
from innoise.bursts import BurstSet, combine_pulses, detect_bursts, extract_pulses
from innoise.model import LEVEL_MAX_DBM, LEVEL_MIN_DBM, DomainError, SampleRecord, mw_to_dbm
from innoise.synth import BurstEventSpec, generate_wgn, inject_bursts
from segment_oracle import brute_force_segment

THRESHOLD = -67.0
LOW = -90.0  # well below threshold
HIGH = -50.0  # well above threshold
BASE = derive_threshold(-80.0)  # threshold_dbm == THRESHOLD


def _rec(levels, rate=1000.0):
    return SampleRecord(levels=levels, sample_rate_hz=rate)


def _rec_with_above(above_indices, n, rate=1000.0):
    levels = np.full(n, LOW)
    levels[list(above_indices)] = HIGH
    return _rec(levels, rate)


def _combined(record):
    spans, _ = combine_pulses(extract_pulses(record, THRESHOLD))
    return spans.tolist()


def _rows(start, end, above, amplitude=None):
    return BurstSet(
        start_idx=start,
        end_idx=end,
        above_count=above,
        amplitude_dbm=[-60.0] * len(start) if amplitude is None else amplitude,
        threshold_dbm=THRESHOLD,
        record_id="",
        sample_rate_hz=1000.0,
    )


def test_extract_no_pulses_when_all_below():
    pulses = extract_pulses(_rec([LOW] * 20), THRESHOLD)
    assert pulses.shape == (0, 2)


def test_extract_runs_are_maximal():
    record = _rec_with_above({10, 11, 13}, 20)
    assert extract_pulses(record, THRESHOLD).tolist() == [[10, 11], [13, 13]]


def test_extract_whole_record_single_pulse():
    assert extract_pulses(_rec([HIGH] * 7), THRESHOLD).tolist() == [[0, 6]]


def test_extract_handles_edges():
    record = _rec_with_above({0, 1, 19}, 20)
    assert extract_pulses(record, THRESHOLD).tolist() == [[0, 1], [19, 19]]


def test_extract_is_strict_at_threshold():
    record = _rec([THRESHOLD, THRESHOLD + 0.1, THRESHOLD - 0.1])
    assert extract_pulses(record, THRESHOLD).tolist() == [[1, 1]]


def test_combine_merges_when_fraction_above_half():
    # span 10..13: 3 of 4 above = 0.75 > 0.5 -> one burst
    record = _rec_with_above({10, 11, 13}, 24)
    spans, above_count = combine_pulses(extract_pulses(record, THRESHOLD))
    assert spans.tolist() == [[10, 13]]
    assert above_count.tolist() == [3]


def test_combine_keeps_distant_pulses_apart():
    # span 10..20: 3 of 11 above ~ 0.27 -> two bursts
    record = _rec_with_above({10, 11, 20}, 24)
    spans, above_count = combine_pulses(extract_pulses(record, THRESHOLD))
    assert spans.tolist() == [[10, 11], [20, 20]]
    assert above_count.tolist() == [2, 1]


def test_combine_boundary_fraction():
    # span 10..17: 5 of 8 above = 0.625 -> one burst
    record = _rec_with_above({10, 11, 12, 16, 17}, 24)
    assert _combined(record) == [[10, 17]]


def test_combine_exactly_half_does_not_merge():
    # span 10..13: 2 of 4 above = 0.5 exactly -> stays split
    record = _rec_with_above({10, 13}, 24)
    assert _combined(record) == [[10, 10], [13, 13]]


def test_combine_no_pulses():
    spans, above_count = combine_pulses(extract_pulses(_rec([LOW] * 5), THRESHOLD))
    assert spans.shape == (0, 2) and above_count.shape == (0,)


def test_parameterize_amplitude_is_linear_power_mean():
    record = _rec([-60.0, -70.0])
    burst_set = detect_bursts(record, derive_threshold(-84.0))  # threshold -71 dBm
    assert burst_set.amplitude_dbm[0] == pytest.approx(-62.5964, abs=1e-3)
    assert burst_set.above_count.tolist() == [2]
    assert burst_set.span_count.tolist() == [2]


def test_parameterize_duration_counts_sampling_intervals():
    record = _rec([HIGH, HIGH, LOW, HIGH], rate=1000.0)
    burst_set = detect_bursts(record, BASE)
    assert burst_set.duration_ms.tolist() == [4.0]
    assert burst_set.above_count.tolist() == [3]


def test_parameterize_single_sample_burst():
    record = _rec([LOW, HIGH, LOW], rate=8001.0)
    burst_set = detect_bursts(record, BASE)
    assert burst_set.amplitude_dbm[0] == pytest.approx(HIGH, abs=1e-9)
    assert burst_set.duration_ms[0] == pytest.approx(1000.0 / 8001.0)
    assert burst_set.start_ms.tolist() == [1000.0 / 8001.0]


def test_burst_invariants_enforced_at_construction():
    burst_set = _rows([2], [5], [3])
    assert burst_set.span_count.tolist() == [4]
    with pytest.raises(DomainError, match="50%"):
        _rows([0], [3], [2])  # exactly 50% above
    with pytest.raises(DomainError, match="above_count"):
        _rows([0], [3], [5])
    with pytest.raises(DomainError, match="above_count"):
        _rows([3], [2], [1])  # end before start
    with pytest.raises(DomainError, match="start_idx"):
        _rows([-1], [0], [2])
    with pytest.raises(DomainError, match="one row per burst"):
        _rows([0, 5], [0], [1])
    for amplitude in (float("inf"), float("nan")):  # the report spells amplitudes as repr
        with pytest.raises(DomainError, match="amplitude_dbm must be finite"):
            _rows([0, 5], [0, 5], [1, 1], amplitude=[-60.0, amplitude])
    for rate in (1e-4, float("inf")):  # the rate rule SampleRecord uses
        with pytest.raises(DomainError, match="sample_rate_hz"):
            replace(burst_set, sample_rate_hz=rate)
    with pytest.raises(ValueError):
        burst_set.start_idx[0] = 1  # columns are read-only


def test_detect_no_bursts_in_pure_noise():
    base = derive_threshold(-80.0)
    burst_set = detect_bursts(_rec([-80.0] * 100), base)
    assert len(burst_set) == 0
    assert burst_set.separations_ms.size == 0


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
    assert burst_set.start_idx.tolist() == trains
    assert burst_set.end_idx.tolist() == [s + 17 for s in trains]
    assert len(burst_set) == 4


def test_detect_recovers_injected_bursts_exactly():
    wgn = generate_wgn(100_000, -100.0, seed=21)
    events = [BurstEventSpec(500 + i * 510, 10, 25.0) for i in range(5)]
    record, truth = inject_bursts(wgn, events)
    base = derive_threshold(-100.0)
    burst_set = detect_bursts(record, base, record_id="synthetic")
    assert len(burst_set) == 5
    for (ts, te), start, end in zip(truth, burst_set.start_idx, burst_set.end_idx):
        assert start <= ts and te <= end
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
    start, end = burst_set.start_idx, burst_set.end_idx
    assert len(burst_set) >= 4
    assert np.all(2 * burst_set.above_count > burst_set.span_count)
    assert above[start].all() and above[end].all()
    for s, e, count in zip(start, end, burst_set.above_count):
        assert count == int(above[s : e + 1].sum())
    assert np.all(start[1:] > end[:-1])
    assert np.all(burst_set.separations_ms > 0)


def test_detect_is_deterministic():
    wgn = generate_wgn(10_000, -100.0, seed=8)
    record, _ = inject_bursts(wgn, [BurstEventSpec(50, 20, 22.0)])
    base = derive_threshold(-100.0)
    first, second = detect_bursts(record, base), detect_bursts(record, base)
    for column in ("start_idx", "end_idx", "above_count", "amplitude_dbm"):
        assert np.array_equal(getattr(first, column), getattr(second, column))
    assert len(first) == 1


def test_separation_is_gap_between_edges():
    record = _rec_with_above({10, 20}, 30, rate=1000.0)
    burst_set = detect_bursts(record, derive_threshold(-80.0))
    # 10 sample gap at 1 kHz = 10 ms
    assert burst_set.separations_ms.tolist() == [10.0]


def test_raising_threshold_never_adds_above_samples():
    rng = np.random.Generator(np.random.Philox(17))
    levels = -80.0 + 20.0 * rng.random(300)
    record = _rec(levels)
    counts = [
        int((np.diff(extract_pulses(record, thr)) + 1).sum())
        for thr in (-75.0, -72.0, -69.0, -66.0, -63.0)
    ]
    assert counts == sorted(counts, reverse=True)


# Above/below patterns for the property tests: arbitrary ones, and trains of
# one-sample pulses that start at index 0 and end on the last sample.
_FLAGS = st.one_of(
    st.lists(st.booleans(), min_size=1, max_size=64),
    st.integers(0, 31).map(lambda k: [True, False] * k + [True]),
    st.integers(1, 21).map(lambda k: [True, False, False] * k + [True]),
)


def _flag_record(flags, margins):
    """Levels above THRESHOLD where a flag is set (by a positive margin),
    at or below it elsewhere (a zero margin lands exactly on it), held in
    [LEVEL_MIN_DBM, LEVEL_MAX_DBM]."""
    levels = [
        THRESHOLD + (m or 0.5) if up else THRESHOLD - m
        for up, m in zip(flags, itertools.cycle(margins))
    ]
    return _rec(np.clip(levels, LEVEL_MIN_DBM, LEVEL_MAX_DBM))


@settings(max_examples=300)
@given(_FLAGS, st.lists(st.floats(0.0, 60.0), min_size=1, max_size=64))
def test_combine_matches_brute_force_oracle(flags, magnitudes):
    record = _flag_record(flags, magnitudes)
    assert _combined(record) == [list(s) for s in brute_force_segment(record, THRESHOLD)]


# Margins up to LEVEL_MAX_DBM - THRESHOLD reach both ends of the level range:
# a span of 64 samples at LEVEL_MAX_DBM sums to 6.4e291 mW.
_WIDE = LEVEL_MAX_DBM - THRESHOLD
_WIDE_MARGINS = st.lists(
    st.floats(0.0, 60.0)
    | st.floats(0.0, _WIDE)
    | st.sampled_from([_WIDE, THRESHOLD - LEVEL_MIN_DBM, _WIDE - 3.0, _WIDE - 9.0]),
    min_size=1,
    max_size=64,
)


def _frozen_amplitude(levels):
    """A span's amplitude as it was computed one span at a time."""
    return mw_to_dbm(math.fsum(np.power(10.0, levels / 10.0).tolist()) / levels.size)


@settings(max_examples=300)
@given(_FLAGS, _WIDE_MARGINS)
def test_detect_table_matches_oracle_and_exact_amplitudes(flags, magnitudes):
    record = _flag_record(flags, magnitudes)
    spans = brute_force_segment(record, THRESHOLD)
    amplitudes = [_frozen_amplitude(record.levels[s : e + 1]) for s, e in spans]
    burst_set = detect_bursts(record, BASE, record_id="in.csv")
    assert list(zip(burst_set.start_idx.tolist(), burst_set.end_idx.tolist())) == spans
    # bit-identical, not approximately equal
    assert burst_set.amplitude_dbm.tobytes() == np.array(amplitudes, dtype=np.float64).tobytes()
    above = record.levels > THRESHOLD
    assert burst_set.above_count.tolist() == [int(above[s : e + 1].sum()) for s, e in spans]
    assert burst_set.duration_ms.tolist() == [(e - s + 1) * 1000.0 / 1000.0 for s, e in spans]
    assert burst_set.separations_ms.tolist() == [
        (nxt[0] - cur[1]) * 1.0 for cur, nxt in zip(spans, spans[1:])
    ]


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(-2, 40), st.integers(-1, 6), st.integers(0, 8)), max_size=6))
def test_burst_set_accepts_exactly_valid_tables(rows):
    starts = [s for s, _, _ in rows]
    ends = [s + length for s, length, _ in rows]
    above = [a for _, _, a in rows]
    valid = all(
        s >= 0 and 1 <= a <= e - s + 1 and 2 * a > e - s + 1
        for s, e, a in zip(starts, ends, above)
    ) and all(nxt > cur for cur, nxt in zip(ends, starts[1:]))
    if valid:
        assert len(_rows(starts, ends, above)) == len(rows)
    else:
        with pytest.raises(DomainError):
            _rows(starts, ends, above)


def test_without_drops_one_row_and_keeps_the_rest():
    burst_set = _rows([0, 10, 20], [1, 12, 20], [2, 3, 1], amplitude=[-1.0, -2.0, -3.0])
    rest = burst_set.without(1)
    assert rest.start_idx.tolist() == [0, 20]
    assert rest.amplitude_dbm.tolist() == [-1.0, -3.0]
    assert rest.separations_ms.tolist() == [19.0]
    assert len(burst_set) == 3
