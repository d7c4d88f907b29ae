"""The JSON readers on arbitrary input: a value or a FormatError, nothing else."""

import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from innoise import io
from innoise.model import FormatError

# JSON text json.dumps never writes (past the int-digit limit, nested too
# deeply, a float literal past the range), put where a value spells RAW_MARKER
RAW = st.sampled_from(["1" * 5001, "-" + "9" * 4301, "[" * 100_000, "1e999", "[1,"])
RAW_MARKER = "\0raw"
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN and +-inf too, which json.dumps spells NaN and Infinity
    st.text(max_size=8),
    st.sampled_from([0, -1, 1910, 1e308, -0.0, 5e-324, 10**400, "", "\0", "in.csv", RAW_MARKER]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
# one well-formed document per reader, each value of which may be replaced
MANIFEST = {
    "wgn_record": "wgn.csv",
    "in_records": ["in1.csv", "in2.csv"],
    "event": "turn on seven flickering tubes",
    "frequency_khz": 1910,
    "location": "faculty classroom",
    "source": "fluorescent tubes",
    "offset_db": 13.0,
    "max_exceed_fraction": 0.0,
}
BASELINE = {
    "rms_dbm": -100.0,
    "threshold_dbm": -87.0,
    "offset_db": 13.0,
    "source_record_id": "wgn.csv",
    "validation": {
        "passed": True, "exceed_count": 1, "exceed_indices": [7], "max_level_dbm": -86.5,
    },
}
EVENT = {"start_idx": 100, "length_samples": 12, "level_offset_db": 25.0, "shape": "decaying"}
# reader, its well-formed document and the type of what it returns
READERS = {
    "manifest": (io.read_manifest, MANIFEST, io.CampaignManifest),
    "baseline": (io.read_baseline_report, BASELINE, tuple),
    "events": (io.read_event_specs, [EVENT, EVENT], list),
}


@st.composite
def mutated(draw, document):
    """``document`` with some of its values, at any depth, drawn anew or
    dropped, or a key added."""
    if isinstance(document, list):
        return [draw(mutated(item)) for item in document]
    if not isinstance(document, dict):
        return draw(VALUES) if draw(st.integers(0, 3)) == 0 else document
    result = {}
    for key, value in document.items():
        if draw(st.integers(0, 7)):  # drop one key in eight
            result[key] = draw(mutated(value))
    if draw(st.integers(0, 7)) == 0:
        result[draw(st.text(max_size=5))] = draw(VALUES)
    return result


@st.composite
def json_texts(draw, document):
    """The bytes of a mutated ``document``, in one case of four cut short and
    in one spliced with random bytes."""
    text = json.dumps(draw(mutated(document))).replace(json.dumps(RAW_MARKER), draw(RAW))
    data = text.encode("utf-8")
    cut = draw(st.integers(0, len(data)))
    return draw(st.sampled_from([data, data, data[:cut], data[:cut] + draw(st.binary(max_size=20))]))


@pytest.mark.parametrize("reader", READERS)
def test_reader_accepts_its_well_formed_document(tmp_path, reader):
    read, document, result_type = READERS[reader]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    assert isinstance(read(path), result_type)


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reader_gives_a_value_or_a_format_error(tmp_path_factory, reader, data):
    read, document, result_type = READERS[reader]
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_bytes(data.draw(st.binary(max_size=200) | json_texts(document)))
    try:
        assert isinstance(read(path), result_type)
    except FormatError:
        pass


@pytest.mark.parametrize("sign", [1, -1])
def test_a_float_key_takes_an_int_that_float_rounds_to_a_double(tmp_path, sign):
    # 2**1024 - 2**970 is the least integer that float() rounds to infinity;
    # every integer below it rounds to a finite double, the largest or less
    bound = sign * (2**1024 - 2**970)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({**MANIFEST, "offset_db": bound - sign}))
    assert io.read_manifest(path).offset_db == sign * sys.float_info.max
    path.write_text(json.dumps({**MANIFEST, "offset_db": bound}))
    message = rf"^manifest\.json: offset_db must be a finite number, got {bound}$"
    with pytest.raises(FormatError, match=message):
        io.read_manifest(path)
