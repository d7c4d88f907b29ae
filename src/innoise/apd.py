"""Amplitude probability distribution: exceedance probability vs level.

The APD of a record gives, for each level, the fraction of samples
strictly above that level. Plotted with probability on a log axis, white
noise shows up as a sloping line while impulses lift the left edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, DomainError, SampleRecord

# Default spacing when evaluation on a uniform dB grid is requested.
DEFAULT_GRID_DB = 0.1
# Most points a uniform grid may have, checked before it is allocated: a
# 0.1 dB grid spans 100 dB in 1,000 points, while an exact grid has one
# point per distinct sample.
MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True, eq=False)
class ApdCurve:
    """Exceedance probability evaluated at an ascending set of levels.

    The underlying exceedance function is a right-continuous step function
    that only changes at sample values, so evaluating at every distinct
    sample level (the default) represents it exactly: 1 below the minimum
    sample, 0 at and above the maximum.
    """

    levels_dbm: np.ndarray
    exceedance: np.ndarray
    n_samples: int

    def __post_init__(self) -> None:
        levels = np.asarray(self.levels_dbm, dtype=np.float64)
        probs = np.asarray(self.exceedance, dtype=np.float64)
        if levels.size == 0 or levels.shape != probs.shape:
            raise DomainError("curve needs matching, non-empty level/probability arrays")
        if not np.all(np.diff(levels) > 0):
            raise DomainError("curve levels must be strictly increasing")
        if not (np.all(probs >= 0.0) and np.all(probs <= 1.0)):
            raise DomainError("probabilities must lie in [0, 1]")
        if not np.all(np.diff(probs) <= 0.0):
            raise DomainError("exceedance must be non-increasing in level")
        levels.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "levels_dbm", levels)
        object.__setattr__(self, "exceedance", probs)
        object.__setattr__(self, "n_samples", int(self.n_samples))


def _uniform_grid(lo: float, hi: float, spacing: float) -> np.ndarray:
    if not (math.isfinite(spacing) and spacing > 0):
        raise ConfigError(f"grid spacing must be a positive number, got {spacing!r}")
    if (hi - lo) / spacing > MAX_GRID_POINTS:
        raise ConfigError(
            f"a {spacing!r} dB grid over {hi - lo!r} dB needs more than "
            f"{MAX_GRID_POINTS} points"
        )
    steps = int(math.ceil((hi - lo) / spacing)) if hi > lo else 0
    grid = lo + spacing * np.arange(steps + 1)
    if grid[-1] < hi:  # float fuzz in the ceil
        grid = np.append(grid, grid[-1] + spacing)
    return grid


def _merged(records: list[SampleRecord]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The distinct sample levels of ``records``, ascending, and each
    record's count of samples at or below each, from one stable merge of
    the sorted records: a level is the first of its run of equal values, as
    ``np.unique`` keeps, and a count a running sum at the run's last.

    ``np.sort`` orders equal zeros, and on some SIMD paths rewrites their
    signs, by the CPU, so the zero is +0.0 if any record holds +0.0."""
    levels = np.concatenate([np.sort(r.levels) for r in records])
    order = np.argsort(levels, kind="stable")
    levels = levels[order]
    last = np.append(levels[1:] != levels[:-1], True)
    grid = levels[np.append(True, last[:-1])]
    zero = np.searchsorted(grid, 0.0)
    if zero < grid.size and grid[zero] == 0.0:  # +0.0 is the double of bits 0
        grid[zero] = 0.0 if any((r.levels.view(np.uint64) == 0).any() for r in records) else -0.0
    starts = np.cumsum([0, *map(len, records)])[:-1]
    counts = [np.cumsum(order >= start)[last] for start in starts]  # of this record and later ones
    for count, later in zip(counts, counts[1:]):
        count -= later
    return grid, counts


def _curves(records: list[SampleRecord], grid_db: float | None) -> tuple[ApdCurve, ...]:
    """The APDs of ``records`` on one grid: their distinct sample levels
    (``_merged``), or a ``grid_db`` spaced grid from the lowest minimum to
    the highest maximum, where a binary search of each sorted record counts."""
    if grid_db is None:
        grid, counts = _merged(records)
    else:
        sorted_levels = [np.sort(r.levels) for r in records]
        lo = min(float(s[0]) for s in sorted_levels)
        hi = max(float(s[-1]) for s in sorted_levels)
        grid = _uniform_grid(lo, hi, float(grid_db))
        counts = [np.searchsorted(s, grid, side="right") for s in sorted_levels]
    return tuple(ApdCurve(grid, (len(r) - c) / len(r), len(r)) for r, c in zip(records, counts))


def compute_apd(record: SampleRecord, grid_db: float | None = None) -> ApdCurve:
    """Compute the APD of one record.

    By default the curve is evaluated at every distinct sample level, which
    is exact. Pass ``grid_db`` to evaluate on a uniform grid with that dB
    spacing instead (anchored at the minimum sample, extended to cover the
    maximum).
    """
    return _curves([record], grid_db)[0]


def apd_pair(
    wgn: SampleRecord,
    in_rec: SampleRecord,
    grid_db: float | None = None,
) -> tuple[ApdCurve, ApdCurve]:
    """APDs of a WGN record and an IN record on one shared level grid.

    Sharing the grid makes the two curves directly overlayable. The
    default grid is the union of both records' distinct sample levels.
    """
    return _curves([wgn, in_rec], grid_db)
