from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from innoise.baseline import compute_rms_level, derive_threshold, validate_wgn
from innoise.bursts import detect_bursts
from innoise.model import ConfigError, DomainError, SampleRecord, mean_power_dbm
from innoise.synth import BURST_SHAPES, DECAY_DB, BurstEventSpec, generate_wgn, inject_bursts
from segment_oracle import brute_force_segment
from synth_oracle import inject_bursts_oracle


def test_generate_is_deterministic_per_seed():
    a = generate_wgn(5_000, -100.0, seed=123)
    b = generate_wgn(5_000, -100.0, seed=123)
    c = generate_wgn(5_000, -100.0, seed=124)
    assert np.array_equal(a.levels, b.levels)
    assert not np.array_equal(a.levels, c.levels)
    assert a.sample_rate_hz == 8001.0
    assert generate_wgn(16, -100.0, seed=1, sample_rate_hz=4000.0).sample_rate_hz == 4000.0


def test_generate_rejects_bad_arguments():
    with pytest.raises(DomainError):
        generate_wgn(0, -100.0, seed=1)
    with pytest.raises(DomainError):
        generate_wgn(10, -100.0, seed=-1)


def test_generated_mean_level_close_to_target():
    record = generate_wgn(200_000, -100.0, seed=6)
    assert compute_rms_level(record) == pytest.approx(-100.0, abs=0.1)


def test_generated_record_passes_wgn_validation():
    record = generate_wgn(100_000, -95.0, seed=40)
    base = derive_threshold(compute_rms_level(record))
    assert validate_wgn(record, base, max_exceed_fraction=1e-5).passed


def test_inject_constant_event_levels_are_exact_offsets():
    record = generate_wgn(2_000, -100.0, seed=9)
    base_level = compute_rms_level(record)
    injected, spans = inject_bursts(record, [BurstEventSpec(100, 10, 25.0)])
    assert spans == ((100, 109),)
    assert np.allclose(injected.levels[100:110], base_level + 25.0)
    # outside the span the noise is untouched
    assert np.array_equal(injected.levels[:100], record.levels[:100])
    assert np.array_equal(injected.levels[110:], record.levels[110:])


def test_inject_decaying_event_ramps_down():
    record = generate_wgn(1_000, -100.0, seed=9)
    base_level = compute_rms_level(record)
    injected, _ = inject_bursts(record, [BurstEventSpec(50, 5, 20.0, shape="decaying")])
    segment = injected.levels[50:55]
    assert segment[0] == pytest.approx(base_level + 20.0)
    assert segment[-1] == pytest.approx(base_level + 20.0 - DECAY_DB)
    assert np.all(np.diff(segment) < 0)


def test_inject_decaying_event_ends_at_its_stop_level():
    # as np.linspace ends at its stop, a ramp's last sample is offset -
    # DECAY_DB, where (length - 1) * step + offset may miss it by an ulp. The
    # offset is searched for, as the record's mean level may differ in its
    # last bit with the SIMD path (ROADMAP item 1)
    record = SampleRecord(np.full(400, -100.0), 8001.0)
    base, length = mean_power_dbm(record.levels), 95

    def misses(offset):
        stop = offset - DECAY_DB
        return base + ((length - 1) * ((stop - offset) / (length - 1)) + offset) != base + stop

    offset = next(k / 1000 for k in range(1, 2000) if misses(k / 1000))
    injected, _ = inject_bursts(record, [BurstEventSpec(100, length, offset, "decaying")])
    assert injected.levels[100 + length - 1] == base + (offset - DECAY_DB)


def test_inject_empty_event_list_is_identity():
    record = generate_wgn(500, -100.0, seed=2)
    unchanged, spans = inject_bursts(record, [])
    assert spans == ()
    assert np.array_equal(unchanged.levels, record.levels)


def test_inject_whole_record_yields_single_burst():
    record = generate_wgn(300, -100.0, seed=2)
    injected, spans = inject_bursts(record, [BurstEventSpec(0, 300, 25.0)])
    base = derive_threshold(-100.0)
    burst_set = detect_bursts(injected, base)
    assert spans == ((0, 299),)
    assert len(burst_set) == 1
    assert (burst_set.start_idx[0], burst_set.end_idx[0]) == (0, 299)


def test_inject_rejects_bad_event_lists():
    record = generate_wgn(100, -100.0, seed=3)
    with pytest.raises(ConfigError):
        inject_bursts(record, [BurstEventSpec(95, 10, 20.0)])  # out of bounds
    with pytest.raises(ConfigError):
        inject_bursts(record, [BurstEventSpec(10, 10, 20.0), BurstEventSpec(15, 5, 20.0)])
    with pytest.raises(ConfigError):
        inject_bursts(record, [BurstEventSpec(50, 5, 20.0), BurstEventSpec(10, 5, 20.0)])
    with pytest.raises(ConfigError):
        BurstEventSpec(0, 0, 20.0)
    with pytest.raises(ConfigError):
        BurstEventSpec(0, 5, 20.0, shape="sawtooth")
    with pytest.raises(ConfigError, match="event start must be >= 0, got -1"):
        BurstEventSpec(-1, 5, 20.0)
    for offset in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match="level_offset_db must be finite"):
            BurstEventSpec(0, 5, offset)


def test_ground_truth_recovered_when_offsets_dominate():
    record = generate_wgn(20_000, -100.0, seed=14)
    events = [
        BurstEventSpec(1_000, 40, 24.0),
        BurstEventSpec(4_000, 25, 20.0, shape="decaying"),
        BurstEventSpec(9_000, 60, 31.0),
        BurstEventSpec(15_000, 10, 22.0),
    ]
    injected, truth = inject_bursts(record, events)
    base = derive_threshold(compute_rms_level(record))
    burst_set = detect_bursts(injected, base)
    assert len(burst_set) == len(events)
    for (ts, te), start, end in zip(truth, burst_set.start_idx, burst_set.end_idx):
        assert start <= ts and te <= end


def test_brute_force_trivial_cases():
    below = generate_wgn(64, -100.0, seed=5)
    assert brute_force_segment(below, -60.0) == []
    assert brute_force_segment(below, -200.0) == [(0, 63)]


def test_brute_force_caps_record_size():
    with pytest.raises(DomainError):
        brute_force_segment(generate_wgn(10_001, -100.0, seed=1), -60.0)


# --- the column code against the per-event loop ------------------------------

def _outcome(inject, record, events):
    """Level bits, rate, meta and spans of an injection, or its error's type and text."""
    try:
        injected, spans = inject(record, events)
    except (ConfigError, DomainError) as exc:
        return type(exc).__name__, str(exc)
    return injected.levels.tobytes(), injected.sample_rate_hz, injected.meta, spans


def _assert_same_as_oracle(record, events):
    expected = _outcome(inject_bursts_oracle, record, events)
    assert _outcome(inject_bursts, record, events) == expected
    return expected


# past int64 and uint64: such an index must give the range error, not an OverflowError
HUGE = st.sampled_from([2**63 - 1, 2**63, 2**64 + 1, 10**30])
OFFSETS = st.one_of(
    st.floats(min_value=-40.0, max_value=40.0),
    st.sampled_from([0.0, -0.0, 3.0, 1e-300, 5e-324]),
    st.floats(min_value=-4000.0, max_value=4000.0),  # past the float range in mW
)


@st.composite
def event_lists(draw):
    """Events laid out left to right, mostly apart or adjacent, at times
    overlapping, out of order, past the record or past int64."""
    events, pos = [], 0
    for _ in range(draw(st.integers(0, 8))):
        gap = draw(st.integers(0, 4))  # 0: adjacent to the event before
        if draw(st.integers(0, 19)) == 0:
            gap = -draw(st.integers(1, 3))  # overlapping or out of order
        start, length = max(0, pos + gap), draw(st.integers(1, 6))
        shape = draw(st.sampled_from(BURST_SHAPES))
        events.append(BurstEventSpec(start, length, draw(OFFSETS), shape))
        pos = start + length
    # mostly a record the last event ends in or at, sometimes one it overruns
    n = draw(st.integers(max(1, pos - 1), max(1, pos) + 3))
    if events and draw(st.integers(0, 7)) == 0:
        i = draw(st.integers(0, len(events) - 1))
        field = draw(st.sampled_from(["start_idx", "length_samples"]))
        events[i] = replace(events[i], **{field: draw(HUGE)})
    return n, events


@settings(max_examples=500, deadline=None)
@given(layout=event_lists(), seed=st.integers(0, 3))
def test_inject_matches_per_event_oracle(layout, seed):
    n, events = layout
    _assert_same_as_oracle(generate_wgn(n, -100.0, seed=seed), events)


def test_inject_matches_oracle_at_the_edges():
    record = generate_wgn(50, -100.0, seed=4)
    layouts = [
        [BurstEventSpec(0, 1, 20.0, "decaying")],  # index 0, length-1 ramp
        [BurstEventSpec(49, 1, 20.0, "decaying")],  # index n - 1
        [BurstEventSpec(0, 50, 21.5, "decaying")],  # the whole record
        [BurstEventSpec(0, 2, 20.0, "decaying"), BurstEventSpec(2, 1, 24.0, "decaying"),
         BurstEventSpec(3, 7, 19.0), BurstEventSpec(10, 40, 22.0, "decaying")],  # adjacent
        [BurstEventSpec(10, 5, -0.0), BurstEventSpec(20, 3, -0.0, "decaying")],
    ]
    for events in layouts:
        assert _assert_same_as_oracle(record, events)[1:3] == (record.sample_rate_hz, record.meta)
    assert _assert_same_as_oracle(record, []) == (
        record.levels.tobytes(), record.sample_rate_hz, record.meta, ()
    )


def test_inject_reports_the_first_bad_event_like_the_oracle():
    record = generate_wgn(100, -100.0, seed=3)
    cases = {
        "event 1 spans [95, 104] outside record of 100 samples": [
            BurstEventSpec(0, 5, 20.0), BurstEventSpec(95, 10, 20.0), BurstEventSpec(2, 5, 20.0),
        ],
        # the range error comes before the overlap error of the same event
        "event 1 spans [3, 102] outside record of 100 samples": [
            BurstEventSpec(0, 5, 20.0), BurstEventSpec(3, 100, 20.0),
        ],
        "events 0 and 1 overlap or are unsorted": [
            BurstEventSpec(50, 5, 20.0), BurstEventSpec(10, 5, 20.0), BurstEventSpec(95, 10, 20.0),
        ],
        f"event 0 spans [{10**30}, {10**30 + 4}] outside record of 100 samples": [
            BurstEventSpec(10**30, 5, 20.0),
        ],
        f"event 0 spans [0, {2**64 - 1}] outside record of 100 samples": [
            BurstEventSpec(0, 2**64, 20.0, "decaying"),
        ],
    }
    for message, events in cases.items():
        assert _assert_same_as_oracle(record, events) == ("ConfigError", message)
