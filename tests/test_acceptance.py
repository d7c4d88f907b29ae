"""Acceptance suite: one test per release criterion, each printing a verdict.

Criterion C2 (re-deriving the reference burst tables from raw captures)
has no automatable form: no multi-second sample recordings are available
to feed the pipeline. Its coverage is substituted by the synthetic-oracle
criteria C3-C7 below, which pin the detection pipeline against exact
ground truth and independent re-implementations instead.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from innoise import io
from innoise.apd import compute_apd
from innoise.baseline import compute_rms_level, derive_threshold
from innoise.bursts import combine_pulses, detect_bursts, extract_pulses
from innoise.cli import ExitStatus, main
from innoise.model import MeasurementMeta, SampleRecord
from innoise.stats import MeasurementStats, aggregate_campaign
from innoise.synth import BurstEventSpec, generate_wgn, inject_bursts
from apd_oracle import curve_points, exceedance_at
from report_oracle import read_campaign_report, read_measurement_report, write_manifest
from segment_oracle import brute_force_segment


def _verdict(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def _master_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def test_c1_reference_table_reproduction():
    """C1: aggregating two reference measurements reproduces their
    hand-checked averages within +/-0.005 in under a second."""
    started = time.perf_counter()
    measurements = [
        MeasurementStats(31, 0.53, -64.70, 118.91),
        MeasurementStats(30, 0.65, -66.21, 103.13),
    ]
    meta = MeasurementMeta(frequency_khz=1910.0, event="turn on seven flickering tubes")
    char = aggregate_campaign(measurements, meta)
    expected = {
        "mean_n_bursts": 30.5,
        "mean_duration_ms": 0.59,
        "sd_duration_ms": 0.08,
        "mean_amplitude_dbm": -65.46,
        "sd_amplitude_db": 1.07,
        "mean_separation_ms": 111.02,
        "sd_separation_ms": 11.16,
    }
    for fieldname, value in expected.items():
        assert getattr(char, fieldname) == pytest.approx(value, abs=5e-3), fieldname
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _verdict("C1", f"7/7 fields within 0.005, {elapsed * 1e3:.1f} ms")


def _random_events(rng, n, max_events=5, offsets=((-5.0, 30.0))):
    """Non-overlapping random events with >= 1 sample gaps, any offsets."""
    events = []
    pos = int(rng.integers(0, max(1, n // 8)))
    for _ in range(int(rng.integers(0, max_events + 1))):
        length = int(rng.integers(1, 41))
        if pos + length > n:
            break
        offset = float(rng.uniform(*offsets))
        shape = "decaying" if rng.random() < 0.3 else "constant"
        events.append(BurstEventSpec(pos, length, offset, shape=shape))
        pos += length + int(rng.integers(1, 200))
    return events


def test_c3_burst_rule_property_suite():
    """C3: on 10,000 random mixed records every detected burst satisfies
    the >50% rule with above-threshold endpoints; bursts are disjoint and
    ordered. Zero violations, under 30 s."""
    started = time.perf_counter()
    rng = _master_rng(301)
    checked_bursts = 0
    for _ in range(10_000):
        n = int(rng.integers(8, 1001))
        clean = generate_wgn(n, -100.0, seed=int(rng.integers(2**63)))
        record, _ = inject_bursts(clean, _random_events(rng, n))
        base = derive_threshold(compute_rms_level(clean))
        burst_set = detect_bursts(record, base)
        above = record.levels > base.threshold_dbm
        previous_end = -2
        rows = zip(burst_set.start_idx.tolist(), burst_set.end_idx.tolist(),
                   burst_set.above_count.tolist())
        for start, end, above_count in rows:
            assert 2 * above_count > end - start + 1
            assert above[start] and above[end]
            assert above_count == int(above[start : end + 1].sum())
            assert start > previous_end
            previous_end = end
            checked_bursts += 1
        assert all(s > 0 for s in burst_set.separations_ms)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _verdict("C3", f"10000 records, {checked_bursts} bursts, 0 violations, {elapsed:.1f} s")


def test_c4_oracle_equivalence():
    """C4: greedy combination is span-identical to the naive brute-force
    trace on 10,000 random records of up to 64 samples."""
    rng = _master_rng(401)
    threshold = -67.0
    for _ in range(10_000):
        n = int(rng.integers(1, 65))
        p_above = float(rng.uniform(0.15, 0.85))
        above = rng.random(n) < p_above
        jitter = rng.random(n) * 5.0
        levels = np.where(above, threshold + 0.25 + jitter, threshold - 0.25 - jitter)
        record = SampleRecord(levels=levels, sample_rate_hz=8001.0)
        spans, _ = combine_pulses(extract_pulses(record, threshold))
        assert spans.tolist() == [list(s) for s in brute_force_segment(record, threshold)]
    _verdict("C4", "10000 records, 0 span mismatches")


def test_c5_ground_truth_recovery():
    """C5: events at offsets >= +20 dB with gaps >= 2x the event lengths
    are recovered exactly: detected count equals injected count and each
    true span lies inside a detected span. 1,000 scenarios, zero misses."""
    rng = _master_rng(501)
    recovered = 0
    for _ in range(1_000):
        n = int(rng.integers(1_000, 3_001))
        clean = generate_wgn(n, -100.0, seed=int(rng.integers(2**63)))
        events = []
        pos = int(rng.integers(0, 60))
        previous_length = None
        for _ in range(int(rng.integers(1, 6))):
            length = int(rng.integers(2, 31))
            if previous_length is not None:
                pos += 2 * max(previous_length, length) + int(rng.integers(0, 150))
            if pos + length > n:
                break
            shape = "decaying" if rng.random() < 0.3 else "constant"
            events.append(BurstEventSpec(pos, length, float(rng.uniform(20.0, 35.0)), shape=shape))
            pos += length
            previous_length = length
        if not events:
            events = [BurstEventSpec(10, 5, 25.0)]
        record, truth = inject_bursts(clean, events)
        base = derive_threshold(compute_rms_level(clean))
        burst_set = detect_bursts(record, base)
        assert len(burst_set) == len(truth)
        for (true_start, true_end), start, end in zip(
            truth, burst_set.start_idx, burst_set.end_idx
        ):
            assert start <= true_start and true_end <= end
        recovered += len(truth)
    _verdict("C5", f"1000 scenarios, {recovered} injected bursts recovered, 0 misses")


def test_c6_crest_factor_check():
    """C6: a million-sample synthetic noise record lands within 0.05 dB of
    the configured mean, with at most 2 samples above rms + 13 dB."""
    started = time.perf_counter()
    record = generate_wgn(1_000_000, -100.0, seed=601)
    rms = compute_rms_level(record)
    assert rms == pytest.approx(-100.0, abs=0.05)
    exceed = int(np.count_nonzero(record.levels > rms + 13.0))
    assert exceed <= 2
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _verdict("C6", f"rms {rms:.4f} dBm, {exceed} exceedances, {elapsed:.2f} s")


def test_c7_apd_against_sort_and_count_oracle():
    """C7: the APD matches a naive oracle at every distinct level over
    1,000 random records; curves are non-increasing with endpoints 1/0."""
    import bisect

    rng = _master_rng(701)
    for iteration in range(1_000):
        n = int(rng.integers(1, 1001))
        clean = generate_wgn(n, -100.0, seed=int(rng.integers(2**63)))
        record, _ = inject_bursts(clean, _random_events(rng, n, max_events=3))
        curve = compute_apd(record)
        ordered = sorted(float(x) for x in record.levels)
        for level, prob in curve_points(curve):
            expected = (n - bisect.bisect_right(ordered, level)) / n
            assert prob == expected
        if n <= 80:  # literal quadratic recount on the small records
            for level, prob in curve_points(curve):
                assert prob == sum(1 for x in ordered if x > level) / n
        assert np.all(np.diff(curve.exceedance) <= 0)
        assert exceedance_at(curve, ordered[0] - 0.001) == 1.0
        assert curve.exceedance[-1] == 0.0
    _verdict("C7", "1000 records, exact match at every distinct level")


def _build_campaign(tmp_path: Path) -> Path:
    io.write_record(generate_wgn(20_000, -100.0, seed=801), tmp_path / "wgn.csv")
    for i, seed in enumerate((802, 803), start=1):
        events = [BurstEventSpec(400 + 650 * k, 8, 24.0) for k in range(15 + i)]
        record, _ = inject_bursts(generate_wgn(20_000, -100.0, seed=seed), events)
        io.write_record(record, tmp_path / f"in{i}.csv")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        '{\n'
        '  "wgn_record": "wgn.csv",\n'
        '  "in_records": ["in1.csv", "in2.csv"],\n'
        '  "event": "turn on flickering tubes",\n'
        '  "frequency_khz": 1910.0\n'
        '}\n'
    )
    return manifest


def test_c8_determinism_and_round_trips(tmp_path):
    """C8: the campaign command is byte-deterministic and every file
    format survives read -> write -> read untouched."""
    manifest_path = _build_campaign(tmp_path)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["campaign", str(manifest_path), "--out", str(out1)]) == ExitStatus.OK
    assert main(["campaign", str(manifest_path), "--out", str(out2)]) == ExitStatus.OK
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    # record round trip
    first = io.read_record(tmp_path / "in1.csv")
    copy_path = tmp_path / "in1.copy.csv"
    io.write_record(first, copy_path)
    second = io.read_record(copy_path)
    assert np.array_equal(first.levels, second.levels)
    assert (first.sample_rate_hz, first.kind, first.meta) == (
        second.sample_rate_hz,
        second.kind,
        second.meta,
    )
    copy2 = tmp_path / "in1.copy2.csv"
    io.write_record(second, copy2)
    assert copy_path.read_bytes() == copy2.read_bytes()

    # manifest round trip
    manifest = io.read_manifest(manifest_path)
    mcopy = tmp_path / "manifest.copy.json"
    write_manifest(manifest, mcopy)
    assert io.read_manifest(mcopy) == manifest

    # report round trips (bit-identical second read)
    for name, reader in [
        ("baseline.json", io.read_baseline_report),
        ("measurement_001.json", read_measurement_report),
        ("campaign.json", read_campaign_report),
    ]:
        assert reader(out1 / name) == reader(out2 / name)
    stats = read_measurement_report(out1 / "measurement_001.json")
    char = read_campaign_report(out1 / "campaign.json")
    recopied = tmp_path / "campaign.copy.json"
    io.write_campaign_report(char, recopied)
    assert read_campaign_report(recopied) == char
    assert stats.n_bursts == 16
    _verdict("C8", "byte-identical trees and loss-free round trips")
