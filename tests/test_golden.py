"""Golden bytes: every command's output files on small fixed inputs.

The digests pin the exact bytes each command writes, so a refactor that
changes any number, key order or formatting fails here. Regenerate them
only for an intended format change, and say why in the change log.
"""

import hashlib
import json

from innoise.cli import ExitStatus, main

EVENTS = [
    {"start_idx": 400, "length_samples": 12, "level_offset_db": 25.0},
    {"start_idx": 1200, "length_samples": 30, "level_offset_db": 22.0, "shape": "decaying"},
    {"start_idx": 2100, "length_samples": 5, "level_offset_db": 28.0},
    {"start_idx": 3000, "length_samples": 16, "level_offset_db": 24.5},
]

COMMANDS = [
    ["simulate", "--n", "4000", "--mean-dbm", "-100", "--seed", "1", "--out", "wgn"],
    ["simulate", "--n", "4000", "--mean-dbm", "-100", "--seed", "2",
     "--events", "events.json", "--out", "in1"],
    ["simulate", "--n", "3000", "--mean-dbm", "-100", "--seed", "3",
     "--events", "events2.json", "--out", "in2"],
    ["baseline", "wgn/record.csv", "--out", "base"],
    ["analyze", "in1/record.csv", "--baseline", "base/baseline.json",
     "--plot-data", "--main-burst", "--out", "analysis"],
    ["campaign", "manifest.json", "--out", "campaign"],
    ["apd", "wgn/record.csv", "in1/record.csv", "--out", "apd_exact"],
    ["apd", "wgn/record.csv", "in1/record.csv", "--grid-db", "--out", "apd_grid"],
    ["apd", "in2/record.csv", "--grid-db", "0.25", "--out", "apd_single"],
]

MANIFEST = {
    "wgn_record": "wgn/record.csv",
    "in_records": ["in1/record.csv", "in2/record.csv"],
    "event": "turn on seven flickering tubes",
    "frequency_khz": 1910,
    "location": "faculty classroom",
    "source": "fluorescent tubes",
    "offset_db": 13,
}

DIGESTS = {
    "analysis/measurement.csv": "5f67659dde1c8b8d765ffc354a825f92d896f085c1637bb3b377c7cb5415d421",
    "analysis/measurement.json": "d3ba8cbc9acd673e574bc2933cc91547a6819e71b0961724b2f16a63f3af6fde",
    "analysis/plot.csv": "858d6758522e74f49369329c25da82f875c22e0e615e6497c9284ebc2f5589a3",
    "apd_exact/apd.csv": "248ad0051397434709b1fcecad2b7389d4abfa89209c22745ef101de3ed7846a",
    "apd_grid/apd.csv": "009bfdb5fd2537619021f4fa3ff5bcd6b688dd3b01edc646a08b51b1e72caffc",
    "apd_single/apd.csv": "cd59d9a6b85484308de36cb3f67bd74010cccb4ace01fa036f48b5527da18702",
    "base/baseline.json": "34bfc1b2fe26eb007635d609888a2e5db8b4b39aeff639226874a91ea0d753ae",
    "campaign/baseline.json": "34bfc1b2fe26eb007635d609888a2e5db8b4b39aeff639226874a91ea0d753ae",
    "campaign/campaign.csv": "6a4b7ee979d4aa14ebfc451286976e551bb6c8eca4df3142d795da49f74b4bea",
    "campaign/campaign.json": "bf990b5dde199818a12312a905b90ee3a04f69d2096a08146b761c672d145c38",
    "campaign/measurement_001.csv": "5f67659dde1c8b8d765ffc354a825f92d896f085c1637bb3b377c7cb5415d421",
    "campaign/measurement_001.json": "a7f03a0b98bb1394de482de288e671d68516d6ea2ebf419be71e05d5cd3a4d77",
    "campaign/measurement_002.csv": "55d0de5dfc57a7b450ebe3c13cef6593d4f66991ee31527a5db0399be96b2e52",
    "campaign/measurement_002.json": "1af6260b57621f47b4a86fe5ec254996972c0b8d97516ea4f1afbb352aabed3c",
    "in1/ground_truth.json": "7d468c2ab4447a2f94a44f9d37d6879020d1ead5710538016a1d1a85862814a4",
    "in1/record.csv": "c91ff7f174dcaa1f1441c24aa35aa3dce36af1c5529f2b85418f1baa09bf3d20",
    "in2/ground_truth.json": "94d549682bf2cf5efc487dd23e6447177d16a0d1740ffff395993b9bfd37cf90",
    "in2/record.csv": "6da2ac4c539fd840df745489f69aeacfcedfb547f9ef9debda9b1ed37392e982",
    "wgn/record.csv": "d59fc22ff8d52d4ae627233acad4240040da8a39e875debcf3bf7c1cc8a5f988",
}


def _run_all(root, monkeypatch):
    (root / "events.json").write_text(json.dumps(EVENTS))
    (root / "events2.json").write_text(json.dumps(EVENTS[:3]))
    (root / "manifest.json").write_text(json.dumps(MANIFEST, indent=2))
    monkeypatch.chdir(root)
    for argv in COMMANDS:
        assert main(argv) == ExitStatus.OK, argv
    outputs = sorted(p for p in root.rglob("*") if p.is_file() and p.parent != root)
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in outputs
    }


def test_every_command_writes_golden_bytes(tmp_path, monkeypatch):
    assert _run_all(tmp_path, monkeypatch) == DIGESTS
