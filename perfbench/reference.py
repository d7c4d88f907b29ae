"""Fixed reference work that gauges the host's speed during a run.

A run of ``harness.measure`` starts this script in a fresh process before
every timed pass. Its work never changes: it formats, parses and
summarizes a fixed record in memory, the same mix of text handling,
numpy and small Python objects as ``innoise``'s commands, but with no
innoise code. So its time moves only with the host, and the fastest
reference of a run tells how fast the host was at its fastest then.
"""

from __future__ import annotations

import json

import numpy as np

SAMPLES = 40_000


def work(n: int = SAMPLES) -> int:
    levels = np.random.default_rng(0).normal(-100.0, 3.0, n)
    text = "\n".join(f"{i / 8001:.6f},{v:.4f}" for i, v in enumerate(levels))
    parsed = np.asarray([float(line.split(",")[1]) for line in text.splitlines()])
    power = np.power(10.0, parsed / 10.0)
    hits = np.flatnonzero(parsed > -97.0)
    rows = [{"start": int(i), "samples": 1, "dbm": float(10.0 * np.log10(power[i]))} for i in hits]
    return len(json.dumps(rows))


if __name__ == "__main__":
    work()
