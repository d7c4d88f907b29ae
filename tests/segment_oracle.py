"""Brute-force burst segmentation, the reference the detection tests use.

Kept out of the library: it exists only so tests can compare the fast
segmenter against an independent sample-by-sample re-implementation.
"""

from __future__ import annotations

from innoise.model import DomainError, LevelDbm, SampleRecord


def brute_force_segment(
    record: SampleRecord,
    threshold_dbm: LevelDbm,
) -> list[tuple[int, int]]:
    """Naive reference segmentation used only as a test oracle.

    Re-implements the greedy pulse-to-burst trace sample by sample in plain
    Python, recounting the above-threshold samples of every tentative span
    from scratch. Quadratic, hence the record-size cap.
    """
    if len(record) > 10_000:
        raise DomainError("brute_force_segment is an oracle for records <= 10000 samples")
    threshold = float(threshold_dbm)
    levels = [float(x) for x in record.levels]
    n = len(levels)
    runs: list[tuple[int, int]] = []
    i = 0
    while i < n:
        if levels[i] > threshold:
            j = i
            while j + 1 < n and levels[j + 1] > threshold:
                j += 1
            runs.append((i, j))
            i = j + 1
        else:
            i += 1
    if not runs:
        return []
    spans: list[tuple[int, int]] = []
    cur_start, cur_end = runs[0]
    for start, end in runs[1:]:
        above = sum(1 for k in range(cur_start, end + 1) if levels[k] > threshold)
        if above / (end - cur_start + 1) > 0.5:
            cur_end = end
        else:
            spans.append((cur_start, cur_end))
            cur_start, cur_end = start, end
    spans.append((cur_start, cur_end))
    return spans
