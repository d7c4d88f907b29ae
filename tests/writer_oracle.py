"""Frozen reference writers for the plot CSV and the APD CSV, and the table
text every per-row table writer must give.

``write_plot_data_oracle`` and ``write_apd_csv_oracle`` are the writers that
one element at a time built each row and joined the whole file in memory,
kept verbatim apart from their names so that the block writer in
``numtext`` can be checked against them byte for byte. ``table_text_oracle``
spells each float cell with one ``repr()`` call, the spelling
``numtext._write_table`` builds as arrays. They are test-only code and are not part of the library.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from innoise.apd import ApdCurve
from innoise.bursts import BurstSet
from innoise.model import ConfigError, SampleRecord


def _write_text(path: Path | str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def table_text_oracle(
    head: str, pieces: Sequence[str], columns: list, sep: str = "\n", tail: str = "\n"
) -> str:
    """``head``, then each row's cells between ``pieces``, the rows joined by
    ``sep``, then ``tail``: a float cell is its ``repr()`` and a bytes cell
    its UTF-8 text."""

    def spelled(value: float | bytes) -> str:
        return repr(value) if isinstance(value, float) else value.decode("utf-8")

    cells = [list(map(spelled, column.tolist())) for column in columns]
    rows = ("".join(p + c for p, c in zip(pieces, row)) + pieces[-1] for row in zip(*cells))
    return head + sep.join(rows) + tail


def write_plot_data_oracle(record: SampleRecord, burst_set: BurstSet, path: Path | str) -> None:
    """Write per-sample plot data: time_ms, level_dbm, burst_id.

    ``burst_id`` is the 1-based burst number where the sample falls inside
    a burst span and empty elsewhere — enough to redraw the record with
    its detected bursts highlighted.
    """
    n = len(record)
    if len(burst_set) and burst_set.end_idx[-1] >= n:
        raise ConfigError(
            f"burst span ending at {burst_set.end_idx[-1]} does not fit the record "
            f"({n} samples); was the set derived from this record?"
        )
    burst_id = np.zeros(n, dtype=np.int64)
    spans = zip(burst_set.start_idx.tolist(), burst_set.end_idx.tolist())
    for i, (start, end) in enumerate(spans, start=1):
        burst_id[start : end + 1] = i
    period_ms = 1000.0 / record.sample_rate_hz
    lines = ["time_ms,level_dbm,burst_id"]
    for i in range(n):
        tag = str(int(burst_id[i])) if burst_id[i] else ""
        lines.append(f"{i * period_ms!r},{float(record.levels[i])!r},{tag}")
    _write_text(path, "\n".join(lines) + "\n")


def write_apd_csv_oracle(curves: Sequence[ApdCurve], path: Path | str) -> None:
    """Write one APD curve (level_dbm,exceedance) or an overlayable pair
    (level_dbm,exceedance_wgn,exceedance_in). A pair must share its grid.
    """
    curves = list(curves)
    if len(curves) == 1:
        header = "level_dbm,exceedance"
        columns = [curves[0].exceedance]
        levels = curves[0].levels_dbm
    elif len(curves) == 2:
        if not np.array_equal(curves[0].levels_dbm, curves[1].levels_dbm):
            raise ConfigError("paired APD curves must share one level grid")
        header = "level_dbm,exceedance_wgn,exceedance_in"
        columns = [curves[0].exceedance, curves[1].exceedance]
        levels = curves[0].levels_dbm
    else:
        raise ConfigError(f"expected 1 or 2 curves, got {len(curves)}")
    lines = [header]
    for i in range(levels.size):
        row = [repr(float(levels[i]))] + [repr(float(col[i])) for col in columns]
        lines.append(",".join(row))
    _write_text(path, "\n".join(lines) + "\n")
