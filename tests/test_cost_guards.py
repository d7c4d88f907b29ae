"""Cost guards: the Python work of a stage, counted, not timed.

A count of executed lines or of Python calls does not depend on the host, so
these tests catch a Python step per sample, row, pulse or burst coming back,
which a noisy timing would not.
"""

import gc
import json
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from innoise import bursts, io, model, numtext, records
from innoise.apd import apd_pair
from innoise.baseline import compute_rms_level, derive_threshold, validate_wgn
from innoise.model import LEVEL_MAX_DBM, LEVEL_MIN_DBM, SampleRecord
from innoise.stats import main_burst, measurement_stats
from innoise.synth import BURST_SHAPES, BurstEventSpec, generate_wgn, inject_bursts

BASE = derive_threshold(-80.0)  # threshold -67 dBm
LOW, HIGH = -90.0, -50.0

# detect_bursts may run at most this many lines of innoise.bursts and
# innoise.model per merged pulse, plus a fixed number. 5 a merge and 6 a
# merged pair were measured (Python 3.11), and 81 lines on a record without
# merges, 90 with one merge.
LINES_PER_MERGE = 8
LINES_FIXED = 100


def _detect_lines(levels) -> int:
    """Python lines of ``innoise.bursts`` and of ``innoise.model``, where the
    amplitudes are computed, that ``detect_bursts`` executes."""
    record = SampleRecord(levels=np.asarray(levels, dtype=float), sample_rate_hz=1000.0)
    count = 0

    def line(frame, event, arg):
        nonlocal count
        count += event == "line"
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename in (bursts.__file__, model.__file__) else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        bursts.detect_bursts(record, BASE)
    finally:
        sys.settrace(previous)
    return count


def _pulse_every_third_sample(n):
    levels = np.full(n, LOW)
    levels[::3] = HIGH
    return levels


def test_detection_runs_python_per_merge_not_per_pulse():
    # one-sample pulses two samples apart never merge: 1,000 and 10,000 bursts
    assert _detect_lines(_pulse_every_third_sample(3_000)) == _detect_lines(
        _pulse_every_third_sample(30_000)
    )
    # two-sample pulses one sample apart all merge into one burst
    for pulses in (10, 100, 1_000):
        merges = pulses - 1
        lines = _detect_lines(np.tile([HIGH, HIGH, LOW], pulses))
        assert lines <= LINES_PER_MERGE * merges + LINES_FIXED, (merges, lines)
    # pairs of one-sample pulses that merge, far apart: one walk per pair
    for pairs in (10, 100, 1_000):
        lines = _detect_lines(np.tile([HIGH, LOW, HIGH] + [LOW] * 5, pairs))
        assert lines <= LINES_PER_MERGE * pairs + LINES_FIXED, (pairs, lines)


# _shortest hands a value in [1e-4, 1e16) to repr() only where its scaled
# value lands on a tie. 0 of 100,000 levels were measured on each set below
# (804 and 651 with the long double products it had before).
MAX_REPR_FALLBACKS = 10


def _repr_fallbacks(levels) -> int:
    """How many of ``levels`` ``numtext._shortest`` hands to ``repr()``."""
    with mock.patch.object(numtext, "_repr_cells", wraps=numtext._repr_cells) as spy:
        numtext._shortest(levels)
    return sum(len(call.args[0]) for call in spy.call_args_list)


def test_levels_are_rarely_spelled_by_repr():
    wgn = generate_wgn(100_000, -100.0, seed=1).levels
    uniform = np.random.default_rng(1).uniform(LEVEL_MIN_DBM, LEVEL_MAX_DBM, 100_000)
    # a zero and a value past 1e16 always go to repr(), so the spy sees them
    assert _repr_fallbacks(np.array([0.0, 1e20])) == 2
    assert _repr_fallbacks(wgn) <= MAX_REPR_FALLBACKS
    assert _repr_fallbacks(uniform) <= MAX_REPR_FALLBACKS
    # from 2**52 on the scaled midpoints between neighbouring doubles are
    # integers; _shortest spells these values itself, not by a repr() call each
    assert _repr_fallbacks(np.random.default_rng(1).uniform(2.0**52, 1e16, 10_000)) == 0


def _calls(run, *args) -> int:
    """Python function calls (``sys.setprofile`` "call" events) of ``run``,
    with the garbage collector paused: a collection would add the calls of
    each ``gc.callbacks`` entry, such as the one Hypothesis registers once a
    ``@given`` test has run, so a count would depend on test order."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call"

    enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run(*args)
    finally:
        sys.setprofile(previous)
        if enabled:
            gc.enable()
    return count


def test_call_counts_leave_out_the_collector_callbacks(tmp_path):
    path = tmp_path / "events.json"
    event = {"start_idx": 5, "length_samples": 3, "level_offset_db": 25.0}
    path.write_text(json.dumps([event] * 1_000))
    io.read_event_specs(path)  # _json_fields looks the keys up on a first read
    alone = _calls(io.read_event_specs, path)

    def callback(phase, info):
        pass

    threshold = gc.get_threshold()
    gc.callbacks.append(callback)
    gc.set_threshold(1)  # a collection at almost every allocation
    try:
        assert _calls(io.read_event_specs, path) == alone
    finally:
        gc.callbacks.remove(callback)
        gc.set_threshold(*threshold)


# read_record makes at most a calls per block of records._CHUNK_CHARS characters
# plus b. Measured (Python 3.11, numpy 2.4) on WGN records of 10,000 and
# 100,000 samples, 2 and 15 blocks of 128 K characters: 151 and 684 calls, 41
# a block + 69. The bound leaves about twice that; a Python call per line
# would add some 6,700 a block. A first read in the process also imports the
# text codec, some 100 calls, so the test reads the record once before counting.
READ_CALLS_PER_BLOCK = (80, 100)


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_record_reader_calls_python_per_block_not_per_line(tmp_path, n):
    path = tmp_path / "record.csv"
    io.write_record(generate_wgn(n, -100.0, seed=1), path)
    a, b = READ_CALLS_PER_BLOCK
    blocks = -(-path.stat().st_size // records._CHUNK_CHARS)
    io.read_record(path)
    calls = _calls(io.read_record, path)
    assert calls <= a * blocks + b, (n, blocks, calls)


# A table writer makes at most a calls per block of numtext._ROWS_PER_WRITE rows
# plus b. Measured (Python 3.11, numpy 2.4) at 10,000 and 100,000 samples:
# write_record 49 a block + 17, write_plot_data 66 + 21, write_apd_csv
# 78 + 24 and write_measurement_report 78 + 134 (json.dumps of its head).
# The bounds leave about twice that, for numpy versions whose functions make
# more Python calls; a Python call per row would make thousands a block.
CALLS_PER_BLOCK = {
    "write_record": (90, 100),
    "write_plot_data": (140, 100),
    "write_apd_csv": (160, 100),
    "write_measurement_report": (160, 300),
}


def _table_writes(tmp_path, n):
    """Each table writer's rows and arguments, on records of ``n`` samples."""
    wgn = generate_wgn(n, -100.0, seed=1)
    dense = SampleRecord(_pulse_every_third_sample(n), 8001.0)
    burst_set = bursts.detect_bursts(dense, BASE, record_id="dense.csv")
    curves = apd_pair(wgn, generate_wgn(n, -100.0, seed=2))
    return {
        "write_record": (n, [wgn, tmp_path / "record.csv"]),
        "write_plot_data": (n, [dense, burst_set, tmp_path / "plot.csv"]),
        "write_apd_csv": (len(curves[0].levels_dbm), [curves, tmp_path / "apd.csv"]),
        "write_measurement_report": (
            len(burst_set), [measurement_stats(burst_set), burst_set, tmp_path / "m.json"]
        ),
    }


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_table_writers_call_python_per_block_not_per_row(tmp_path, n):
    for name, (rows, args) in _table_writes(tmp_path, n).items():
        a, b = CALLS_PER_BLOCK[name]
        blocks = -(-rows // numtext._ROWS_PER_WRITE)
        calls = _calls(getattr(io, name), *args)
        assert calls <= a * blocks + b, (name, rows, calls)


def test_table_writers_spell_floats_once_per_block(tmp_path):
    # numtext._shortest costs about 0.1 ms a call even for one value, so every
    # float column of a block is spelled in one call: the plot data has 2,
    # an APD pair 3 and the measurement report's bursts 3
    for name, (rows, args) in _table_writes(tmp_path, 20_000).items():
        blocks = -(-rows // numtext._ROWS_PER_WRITE)
        with mock.patch.object(numtext, "_shortest", wraps=numtext._shortest) as spy:
            getattr(io, name)(*args)
        assert 1 <= spy.call_count <= blocks, (name, rows, spy.call_count)


# compute_rms_level makes at most a calls per block of model._POWER_BLOCK
# samples plus b. Measured (Python 3.11, numpy 2.4) at 10,000, 100,000 and
# 1,000,000 samples, 1, 2 and 16 blocks: 5, 7 and 35 calls, the two
# np.bincount calls of a block; a Python call per sample would add 65,536 a
# block.
RMS_CALLS_PER_BLOCK = (2, 10)


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_rms_level_calls_python_per_block_not_per_sample(n):
    a, b = RMS_CALLS_PER_BLOCK
    blocks = -(-n // model._POWER_BLOCK)
    calls = _calls(compute_rms_level, generate_wgn(n, -100.0, seed=1))
    assert calls <= a * blocks + b, (n, blocks, calls)


def _per_size_calls(n):
    """The Python calls of the report statistics and of the WGN check on
    records of ``n`` samples: a burst on every third sample, and WGN."""
    dense = SampleRecord(_pulse_every_third_sample(n), 8001.0)
    burst_set = bursts.detect_bursts(dense, BASE)
    return {
        "measurement_stats": _calls(measurement_stats, burst_set),
        "main_burst": _calls(main_burst, burst_set),
        # every third sample an exceedance, then none
        "validate_wgn dense": _calls(validate_wgn, dense, BASE),
        "validate_wgn clean": _calls(validate_wgn, generate_wgn(n, -100.0, seed=1), BASE),
    }


def test_report_statistics_and_wgn_check_call_python_a_fixed_number_of_times():
    # measured (Python 3.11, numpy 2.4): 7, 45, 12 and 12 calls at 3,334 and
    # at 33,334 bursts or exceedances; one per burst or exceedance would differ
    assert _per_size_calls(10_000) == _per_size_calls(100_000)


# read_event_specs makes at most a Python calls per event plus b, at every
# size, and read_manifest at most MANIFEST_CALLS. Measured (Python 3.11)
# with each type's keys already looked up: 6 calls an event of 4 keys + 32
# (_from_json, a _json_value a key and the spec's __init__), and 72 for a
# manifest with every key and two IN records. A context manager per float
# key or a path's name read per event, 10 calls an event before, would not
# fit; nor would a second pass per event or a call per byte.
EVENT_CALLS = (7, 60)
MANIFEST_CALLS = 100


def test_json_readers_call_python_per_event_and_a_fixed_number_of_times(tmp_path):
    a, b = EVENT_CALLS
    event = {"start_idx": 5, "length_samples": 3, "level_offset_db": 25.0, "shape": "decaying"}
    for n in (10, 100, 1_000):
        path = tmp_path / f"events_{n}.json"
        path.write_text(json.dumps([event] * n))
        io.read_event_specs(path)  # _json_fields looks the keys up on a first read
        calls = _calls(io.read_event_specs, path)
        assert calls <= a * n + b, (n, calls)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "wgn_record": "wgn.csv", "in_records": ["in1.csv", "in2.csv"], "event": "lamp on",
        "frequency_khz": 1910, "location": "lab", "source": "ballast",
        "offset_db": 13.0, "max_exceed_fraction": 0.001,
    }))
    io.read_manifest(manifest)
    assert _calls(io.read_manifest, manifest) <= MANIFEST_CALLS


# write_ground_truth makes at most a Python calls per block of
# numtext._ROWS_PER_WRITE events plus b, and inject_bursts at most INJECT_CALLS
# on a record of 100,000 samples, whatever the number of events. Measured
# (Python 3.11, numpy 2.4): write_ground_truth 78, 78, 104 and 182 calls for
# 50, 500, 5,000 and 20,000 events (1, 1, 2 and 5 blocks), 26 a block + 52;
# inject_bursts 34 for 50, 500 and 5,000 events, two of them a block of the
# record's mean power (62 at 1,000,000 samples). A call per event would add
# thousands a block of the writer and at least 50 to inject_bursts.
GROUND_TRUTH_CALLS_PER_BLOCK = (50, 100)
INJECT_CALLS = 70


def test_ground_truth_writer_calls_python_per_block_not_per_event(tmp_path):
    path = tmp_path / "ground_truth.json"
    a, b = GROUND_TRUTH_CALLS_PER_BLOCK
    for n in (50, 500, 5_000, 20_000):
        events = [BurstEventSpec(5 * k, 1 + k % 4, 20.0, BURST_SHAPES[k % 2]) for k in range(n)]
        spans = [(e.start_idx, e.end_idx) for e in events]
        io.write_ground_truth(spans, events, path)  # _json_fields looks the keys up on a first write
        calls = _calls(io.write_ground_truth, spans, events, path)
        blocks = -(-n // numtext._ROWS_PER_WRITE)
        assert calls <= a * blocks + b, (n, blocks, calls)


def test_burst_injection_calls_python_a_fixed_number_of_times():
    wgn = generate_wgn(100_000, -100.0, seed=1)
    for n in (50, 500, 5_000):
        gap = 100_000 // n
        events = [BurstEventSpec(gap * k, 1 + k % 4, 20.0, BURST_SHAPES[k % 2]) for k in range(n)]
        calls = _calls(inject_bursts, wgn, events)
        assert calls <= INJECT_CALLS, (n, calls)


def _traced_peak(run, *args) -> int:
    """The peak of memory traced by ``tracemalloc`` while ``run`` runs, in bytes."""
    tracemalloc.start()
    try:
        run(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# apd_pair makes at most APD_PAIR_CALLS Python calls at every size, and its
# traced peak is at most c B per sample of the two records plus d. Measured
# (Python 3.11, numpy 2.4) on WGN pairs of 10,000, 100,000 and 1,000,000
# samples a record: 49 calls at each (166 with "c_call" events counted too),
# and 1.03, 10.0 and 100.0 MB, 50 B a sample: the merged levels, their
# argsort and the counts. One more array of the merged levels would add 8 B
# a sample; a Python call per sample or grid point would add thousands.
APD_PAIR_CALLS = 100
APD_PAIR_PEAK_BYTES = (56, 100_000)


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_apd_pair_calls_python_a_fixed_number_of_times_in_bounded_memory(n):
    wgn, in_rec = generate_wgn(n, -100.0, seed=1), generate_wgn(n, -100.0, seed=2)
    calls = _calls(apd_pair, wgn, in_rec)
    assert calls <= APD_PAIR_CALLS, (n, calls)
    c, d = APD_PAIR_PEAK_BYTES
    peak = _traced_peak(apd_pair, wgn, in_rec)
    assert peak <= c * 2 * n + d, (n, peak)


# Traced peaks that do not grow with the record, in bytes. Measured (Python
# 3.11, numpy 2.4) at 10,000, 100,000 and 1,000,000 samples: write_record
# 0.96 MB at each; write_apd_csv 2.15, 2.19 and 2.21 MB over 20,000 to
# 2,000,000 rows; compute_rms_level 0.24, 1.57 and 1.58 MB, a block of
# model._POWER_BLOCK powers, their exponents and parts, from 65,536 samples
# on. A list or array of the whole record or table would add 8 to 40 B a
# sample.
PEAK_BYTES = {"write_record": 1_500_000, "write_apd_csv": 3_000_000, "compute_rms_level": 4_000_000}
# write_plot_data builds its time_ms and burst_id columns whole, and a list
# of each burst's start and end: at most c B a sample plus d. Measured at
# 10,000, 100,000 and 1,000,000 samples of a burst on every third sample:
# 2.01, 4.40 and 35.40 MB, 27 to 33 B a sample past the first 10,000.
PLOT_PEAK_BYTES = (40, 2_500_000)


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_writers_and_rms_level_peak_in_bounded_memory(tmp_path, n):
    wgn = generate_wgn(n, -100.0, seed=1)
    curves = apd_pair(wgn, generate_wgn(n, -100.0, seed=2))
    peaks = {
        "write_record": _traced_peak(io.write_record, wgn, tmp_path / "record.csv"),
        "write_apd_csv": _traced_peak(io.write_apd_csv, curves, tmp_path / "apd.csv"),
        "compute_rms_level": _traced_peak(compute_rms_level, wgn),
    }
    for name, peak in peaks.items():
        assert peak <= PEAK_BYTES[name], (name, n, peak)
    dense = SampleRecord(_pulse_every_third_sample(n), 8001.0)
    burst_set = bursts.detect_bursts(dense, BASE)
    c, d = PLOT_PEAK_BYTES
    peak = _traced_peak(io.write_plot_data, dense, burst_set, tmp_path / "plot.csv")
    assert peak <= c * n + d, (n, peak)


# detect_bursts on a record that is one burst holds the above-threshold mask
# and its edges, about 3 B a sample, or one block of model._POWER_BLOCK
# powers, their exponents and parts, whichever is larger: at most c B a
# sample plus d. Measured (Python 3.11, numpy 2.4) at 100,000, 300,000 and
# 1,000,000 samples: 1.58, 1.58 and 3.00 MB. The span's powers gathered in
# one array and listed for math.fsum would add 56 B a sample.
ONE_BURST_PEAK_BYTES = (4, 2_000_000)


@pytest.mark.parametrize("n", [100_000, 1_000_000])
def test_detection_of_one_long_burst_peaks_at_a_few_bytes_a_sample(n):
    record = SampleRecord(np.random.default_rng(1).normal(HIGH, 3.0, n), 8001.0)
    c, d = ONE_BURST_PEAK_BYTES
    peak = _traced_peak(bursts.detect_bursts, record, BASE)
    assert len(bursts.detect_bursts(record, BASE)) == 1
    assert peak <= c * n + d, (n, peak)


# read_record holds the levels twice at its end, as one array per block and
# joined, and before that the levels so far beside one block's working set:
# its bytes and the plain tier's arrays. So its traced peak is at most c B a
# sample plus d B a character of records._CHUNK_CHARS. Measured (Python 3.11,
# numpy 2.4) with blocks of 128 K characters: 0.78 and 1.76 MB at 10,000 and
# 100,000 samples, 4.7 B a character past the 16 B a sample at 10,000; 16.11
# MB at 1,000,000.
READ_PEAK_BYTES = (17, 10)


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_record_reader_peaks_at_the_levels_and_one_block(tmp_path, n):
    path = tmp_path / "record.csv"
    io.write_record(generate_wgn(n, -100.0, seed=1), path)
    c, d = READ_PEAK_BYTES
    peak = _traced_peak(io.read_record, path)
    assert peak <= c * n + d * records._CHUNK_CHARS, (n, peak)
