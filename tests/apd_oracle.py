"""Step evaluation of an APD curve, for the tests.

An ``ApdCurve`` holds the exceedance at each of its levels; between them
the exceedance is a right-continuous step function, 1 below the lowest
level. The tests evaluate it anywhere with these helpers.
"""

from __future__ import annotations

import numpy as np

from innoise.apd import ApdCurve


def curve_points(curve: ApdCurve) -> list[tuple[float, float]]:
    """(level_dbm, exceedance) at every level of the curve."""
    return list(zip(curve.levels_dbm.tolist(), curve.exceedance.tolist()))


def exceedance_at(curve: ApdCurve, level: float) -> float:
    """Exceedance probability at an arbitrary level (step evaluation)."""
    i = int(np.searchsorted(curve.levels_dbm, float(level), side="right")) - 1
    return 1.0 if i < 0 else float(curve.exceedance[i])
