"""Input generation for the innoise benchmark workloads.

Every input is made from the public ``innoise.synth`` generators and
written with ``innoise.io``, so the seed fixes every byte; the program
under test only ever sees the written files. Each builder returns the
commands to run and the ground truth the oracle checks their outputs
against. Record durations default to what fits the benchmark's time
budget (see README.md); tests pass shorter ones.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from innoise import baseline, io, synth

RATE_HZ = 8001.0
MEAN_DBM = -100.0
OFFSET_DB = 13.0
# Noise records are redrawn until every sample sits this far below the
# 13 dB threshold, so no noise sample ever forms a spurious pulse and the
# injected events alone fix the expected bursts.
MARGIN_DB = 0.5
# One burst per 200-sample slot: 7,200 bursts in 3 min at 8001 S/s.
SLOT = 200
EDGE = 21  # free samples at each slot edge: unmerged events are >= 42 apart
PAIR_OFFSET = 60  # a close pair starts here in its slot, far from both neighbours
PAIR_SHARE = 100  # one slot in a hundred holds a close pair


@dataclass(frozen=True)
class Workload:
    """What a built workload hands to the runner and to the oracle.

    ``commands`` are ``innoise`` argument lists, run from the input
    directory, to which the runner appends ``--out <dir>``. ``levels``
    holds every written record by file name; ``spans`` the expected burst
    spans of each record the commands analyze.
    """

    name: str
    commands: tuple[tuple[str, ...], ...]
    samples_read: int
    levels: dict[str, np.ndarray]
    spans: dict[str, tuple[tuple[int, int], ...]]
    pulses: int

    @property
    def structure(self) -> dict[str, int]:
        """Seed-independent counts: two seeds must agree on all of them."""
        bursts = sum(len(s) for s in self.spans.values())
        return {
            "records": len(self.levels),
            "samples_read": self.samples_read,
            "pulses": self.pulses,
            "bursts": bursts,
            "merges": self.pulses - bursts,
        }


def _subseed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_subseed(seed, *key)))


def power_dbm(levels: np.ndarray) -> float:
    """dB value of the mean linear power, computed independently of innoise."""
    return float(10.0 * np.log10(np.mean(np.power(10.0, np.asarray(levels) / 10.0))))


def _noise(n: int, seed: int, key: int):
    for attempt in itertools.count():
        record = synth.generate_wgn(n, MEAN_DBM, _subseed(seed, key, 0, attempt), sample_rate_hz=RATE_HZ)
        if record.levels.max() < power_dbm(record.levels) + OFFSET_DB - MARGIN_DB:
            return record


def burst_layout(n: int, seed: int, key: int):
    """Events of a sparse IN record and the burst spans they must give.

    Each 200-sample slot holds one burst, 4-20 samples long, 18-28 dB
    above the noise, of constant or decaying shape. One slot in a hundred
    holds a close pair split by a 1-3 sample dip; the >50% rule merges
    the pair into one burst. Slot edges keep every other pair of events
    too far apart to merge.
    """
    rng = _rng(seed, key, 1)
    n_slots = n // SLOT
    pair_slots = set(rng.choice(n_slots, size=max(1, n_slots // PAIR_SHARE), replace=False).tolist())
    events: list[synth.BurstEventSpec] = []
    spans: list[tuple[int, int]] = []

    def event(start: int, length: int) -> None:
        shape = synth.BURST_SHAPES[int(rng.integers(2))]
        events.append(synth.BurstEventSpec(start, length, float(rng.uniform(18.0, 28.0)), shape))

    for slot in range(n_slots):
        base = slot * SLOT
        if slot in pair_slots:
            first, dip, second = (int(v) for v in rng.integers([4, 1, 4], [21, 4, 21]))
            start = base + PAIR_OFFSET
            event(start, first)
            event(start + first + dip, second)
            spans.append((start, start + first + dip + second - 1))
        else:
            length = int(rng.integers(4, 21))
            start = base + int(rng.integers(EDGE, SLOT - EDGE - length + 1))
            event(start, length)
            spans.append((start, start + length - 1))
    return events, tuple(spans)


def _write(record, directory: Path, name: str, levels: dict) -> None:
    io.write_record(record, directory / name)
    levels[name] = np.asarray(record.levels)


def _write_baseline(wgn, path: Path) -> None:
    rms = baseline.compute_rms_level(wgn)
    base = baseline.derive_threshold(rms, OFFSET_DB, source_record_id="wgn")
    io.write_baseline_report(base, baseline.validate_wgn(wgn, base), path)


def _sparse_in(n: int, seed: int, key: int):
    events, spans = burst_layout(n, seed, key)
    record, _ = synth.inject_bursts(_noise(n, seed, key), events)
    return record, spans, len(events)


def build_campaign(seed: int, directory: Path, record_s: float = 10.0, n_in: int = 6) -> Workload:
    """One WGN record and ``n_in`` sparse IN records under one manifest."""
    n = round(record_s * RATE_HZ)
    levels: dict[str, np.ndarray] = {}
    spans = {}
    pulses = 0
    _write(_noise(n, seed, 0), directory, "wgn.csv", levels)
    for k in range(1, n_in + 1):
        name = f"in_{k}.csv"
        record, spans[name], count = _sparse_in(n, seed, k)
        pulses += count
        _write(record, directory, name, levels)
    manifest = {
        "wgn_record": "wgn.csv",
        "in_records": list(spans),
        "event": "synthetic flicker",
        "frequency_khz": 1910,
        "location": "bench",
        "source": "synthetic",
        "offset_db": OFFSET_DB,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return Workload(
        name="campaign",
        commands=(("campaign", "manifest.json"),),
        samples_read=n * (n_in + 1),
        levels=levels,
        spans=spans,
        pulses=pulses,
    )


def build_dense(seed: int, directory: Path, record_s: float = 10.0) -> Workload:
    """A record with a one-sample pulse on every third sample.

    Two single-sample pulses two samples apart fill exactly half of their
    joint span, so the >50% rule never merges them: every pulse is a burst.
    """
    n = round(record_s * RATE_HZ)
    wgn = _noise(n, seed, 0)
    _write_baseline(wgn, directory / "base.json")
    offsets = _rng(seed, 1, 1).uniform(18.0, 28.0, size=(n + 2) // 3)
    events = [synth.BurstEventSpec(3 * i, 1, float(o)) for i, o in enumerate(offsets)]
    record, injected = synth.inject_bursts(_noise(n, seed, 1), events)
    levels: dict[str, np.ndarray] = {}
    _write(record, directory, "dense.csv", levels)
    return Workload(
        name="dense",
        commands=(("analyze", "dense.csv", "--baseline", "base.json", "--main-burst"),),
        samples_read=n,
        levels=levels,
        spans={"dense.csv": injected},
        pulses=len(events),
    )


def build_export(seed: int, directory: Path, record_s: float = 10.0) -> Workload:
    """A WGN/IN pair analyzed with plot data, then overlaid as an APD."""
    n = round(record_s * RATE_HZ)
    levels: dict[str, np.ndarray] = {}
    wgn = _noise(n, seed, 0)
    _write(wgn, directory, "wgn.csv", levels)
    _write_baseline(wgn, directory / "base.json")
    record, spans, pulses = _sparse_in(n, seed, 1)
    _write(record, directory, "in.csv", levels)
    return Workload(
        name="export",
        commands=(
            ("analyze", "in.csv", "--baseline", "base.json", "--plot-data", "--main-burst"),
            ("apd", "wgn.csv", "in.csv"),
        ),
        samples_read=3 * n,
        levels=levels,
        spans={"in.csv": spans},
        pulses=pulses,
    )


BUILDERS = {"campaign": build_campaign, "dense": build_dense, "export": build_export}


def build(name: str, seed: int, directory: Path, **sizes) -> Workload:
    """Write workload ``name`` for ``seed`` into ``directory`` (created if needed)."""
    directory.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, directory, **sizes)
