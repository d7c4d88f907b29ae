"""Cost guards: the Python work of a stage, counted, not timed.

A count of executed lines does not depend on the host, so these tests catch
a Python step per sample, pulse or burst coming back, which a noisy timing
would not.
"""

import sys

import numpy as np

from innoise import bursts
from innoise.baseline import derive_threshold
from innoise.model import SampleRecord

BASE = derive_threshold(-80.0)  # threshold -67 dBm
LOW, HIGH = -90.0, -50.0

# detect_bursts may run at most this many lines of innoise.bursts per merged
# pulse, plus a fixed number. 5 a merge and 6 a merged pair were measured
# (Python 3.11), and 76 lines on a record without merges.
LINES_PER_MERGE = 8
LINES_FIXED = 100


def _detect_lines(levels) -> int:
    """Python lines of ``innoise.bursts`` that ``detect_bursts`` executes."""
    record = SampleRecord(levels=np.asarray(levels, dtype=float), sample_rate_hz=1000.0)
    count = 0

    def line(frame, event, arg):
        nonlocal count
        count += event == "line"
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename == bursts.__file__ else None

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
