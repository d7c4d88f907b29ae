"""APD references for the tests: step evaluation and sort and count.

An ``ApdCurve`` holds the exceedance at each of its levels; between them
the exceedance is a right-continuous step function, 1 below the lowest
level. The tests evaluate it anywhere with these helpers, and check the
exact grid against a sort and count of plain Python floats.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from innoise.apd import ApdCurve


def curve_points(curve: ApdCurve) -> list[tuple[float, float]]:
    """(level_dbm, exceedance) at every level of the curve."""
    return list(zip(curve.levels_dbm.tolist(), curve.exceedance.tolist()))


def exceedance_at(curve: ApdCurve, level: float) -> float:
    """Exceedance probability at an arbitrary level (step evaluation)."""
    i = int(np.searchsorted(curve.levels_dbm, float(level), side="right")) - 1
    return 1.0 if i < 0 else float(curve.exceedance[i])


def exceedance_oracle(samples: list[float], level: float) -> float:
    """Sort and count: the fraction of ``samples`` strictly above ``level``."""
    ordered = sorted(samples)
    return (len(ordered) - bisect.bisect_right(ordered, level)) / len(ordered)


def exact_grid_oracle(*records: list[float]) -> tuple[list[float], list[list[float]]]:
    """The distinct levels of ``records``, ascending, and each record's
    exceedance at each of them. The zero level is +0.0 if any record holds
    +0.0 and -0.0 if none does."""
    samples = [x for record in records for x in record]
    grid = sorted(set(samples))  # the set keeps whichever zero it met first
    if 0.0 in grid:
        positive = any(x == 0.0 and math.copysign(1.0, x) > 0 for x in samples)
        grid[grid.index(0.0)] = 0.0 if positive else -0.0
    return grid, [[exceedance_oracle(record, level) for level in grid] for record in records]
