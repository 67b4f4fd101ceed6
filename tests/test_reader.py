"""Derivator documents read straight into the segment table.

The reader builds no Segment, profile or Jump object: its columns must equal,
bit for bit, the table of the same derivator built from Segment objects, and
``segments``/``jumps`` built from the table on first read must equal the
objects. Its checks run in document order, so the first fault is reported.
"""

import json

import numpy as np
import pytest

from helpers import (
    TABLE_COLUMNS,
    exact_power_derivator,
    long_derivator,
    random_derivator,
    reference_table,
    same_bits,
)
from stieltjes import Derivator, Jump, Segment, SpecValidationError, cli, specio


def assert_same_table(d, want):
    for name in TABLE_COLUMNS:
        got = getattr(d, name)
        assert got.dtype == want[name].dtype, name
        assert same_bits(got, want[name]), name


def corpus(seed):
    rng = np.random.default_rng(seed)
    draws = [random_derivator(rng) for _ in range(200)]
    return draws + [exact_power_derivator(rng) for _ in range(10)] + [long_derivator(rng, 2000)]


def test_read_table_is_the_table_of_the_segments():
    for d in corpus(71):
        doc = json.loads(json.dumps(specio.serialize_derivator(d)))
        read = specio.parse_derivator(doc)
        jumps = [Jump(j["at"], j["delta"]) for j in doc["jumps"]]
        want = reference_table(d.segments, jumps)
        assert_same_table(d, want)
        assert_same_table(read, want)
        assert "segments" not in vars(read) and "jumps" not in vars(read)
        assert read.segments == d.segments
        assert read.jumps == tuple(sorted(jumps, key=lambda j: j.at))
        assert read.segments is read.segments and read.jumps is read.jumps
        assert repr(read) == repr(d)
        assert specio.serialize_derivator(read) == doc


def test_constructor_keeps_its_segments_and_builds_its_jumps_once():
    rng = np.random.default_rng(72)
    d = random_derivator(rng)
    segments = d.segments
    again = Derivator(d.interval, segments, reversed(d.jumps), anchor=d.anchor)
    assert again.segments is segments
    assert again.jumps == d.jumps and again.jumps is again.jumps


def doc_with(*changes):
    """Four segments and two jumps on [0, 1], with ``(where, index, fields)``
    merged into segments or jumps; a field set to None is removed."""
    doc = {
        "interval": [0.0, 1.0],
        "segments": [
            {"lo": 0.0, "hi": 0.25, "profile": {"kind": "linear", "slope": 1.0}},
            {"lo": 0.25, "hi": 0.5, "profile": {"kind": "power", "exponent": 0.5, "scale": 2.0}},
            {"lo": 0.5, "hi": 0.75, "profile": {"kind": "tabulated",
                                                "points": [[0.55, 0.0], [0.6, 1.0]]}},
            {"lo": 0.75, "hi": 1.0, "profile": {"kind": "constant"}},
        ],
        "jumps": [{"at": 0.25, "delta": 1.0}, {"at": 0.5, "delta": -1.0}],
    }
    for where, index, fields in changes:
        item = doc[where][index]
        for key, value in fields.items():
            if value is None:
                del item[key]
            else:
                item[key] = value
    return doc


NOT_MONOTONE = {"profile": {"kind": "tabulated", "points": [[0.55, 0.0], [0.6, 1.0], [0.7, 0.5]]}}


@pytest.mark.parametrize("changes, path, message", [
    # across segments and jumps, the earlier fault wins
    ((("segments", 1, {"lo": "0.25"}), ("segments", 3, {"direction": "nonincreasing"})),
     "derivator.segments[1].lo", "expected a number"),
    ((("segments", 1, {"direction": "nonincreasing"}), ("segments", 3, {"hi": None})),
     "derivator.segments[1]", "conflicts with profile"),
    ((("segments", 2, NOT_MONOTONE), ("jumps", 0, {"delta": 0.0})),
     "derivator.segments[2]", "tabulated samples are not monotone"),
    ((("jumps", 0, {"delta": 0.0}), ("jumps", 1, {"at": "x"})),
     "derivator.jumps[0]", "zero delta"),
    # rules of one segment or jump come before those across segments
    ((("segments", 1, {"lo": 0.3}), ("jumps", 1, {"delta": 0.0})),
     "derivator.jumps[1]", "zero delta"),
    ((("segments", 1, {"lo": 0.3}), ("jumps", 0, {"at": 0.3})),
     "derivator", "tile without gaps: 0.25 != 0.3"),
    # within one segment: field, profile, direction, segment
    ((("segments", 1, {"lo": None, "profile": {"kind": "power", "exponent": -1.0}}),),
     "derivator.segments[1]", "missing required field 'lo'"),
    ((("segments", 1, {"profile": {"kind": "power", "exponent": -1.0},
                       "direction": "sideways"}),),
     "derivator.segments[1].profile", "exponent must be positive"),
    ((("segments", 1, {"direction": "sideways", "hi": 0.2}),),
     "derivator.segments[1].direction", "unknown direction"),
    ((("segments", 2, {**NOT_MONOTONE, "hi": 0.5}),),
     "derivator.segments[2]", "segment needs lo < hi"),
    ((("segments", 2, {**NOT_MONOTONE, "direction": "constant"}),),
     "derivator.segments[2]", "tabulated samples are not monotone"),
    ((("segments", 2, {"direction": "nonincreasing", "hi": 0.58}),),
     "derivator.segments[2]", "conflicts with profile"),
    ((("segments", 2, {"hi": 0.58}),),
     "derivator.segments[2]", "must lie strictly inside"),
])
def test_the_first_fault_in_the_document_is_reported(changes, path, message):
    with pytest.raises(SpecValidationError) as info:
        specio.parse_derivator(doc_with(*changes))
    assert info.value.path == path
    assert message in str(info.value)


def test_benchmark_ops_build_no_segment_or_jump(tmp_path, monkeypatch, capsys):
    doc = specio.serialize_derivator(long_derivator(np.random.default_rng(73), 2000))
    dpath = tmp_path / "d.json"
    dpath.write_text(json.dumps(doc), encoding="utf-8")
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps({"kind": "polynomial", "coefficients": [0.5, -0.25]}))

    def boom(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    monkeypatch.setattr(Segment, "__init__", boom)
    monkeypatch.setattr(Jump, "__init__", boom)
    d, f = str(dpath), str(fpath)
    hint = ["--grid-hint", "8"]
    for argv in (["ftc-check", d, f, *hint], ["exp", d, f, *hint],
                 ["exp", d, f, "--verify", *hint],
                 ["decompose", d], ["integrate", d, f], ["derive", d, f, "--at", "0.3001"]):
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().err == ""
