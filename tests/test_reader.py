"""Derivator documents read straight into the segment table.

The reader builds no Segment, profile or Jump object: its columns must equal,
bit for bit, the table of the same derivator built from Segment objects, and
``segments``/``jumps`` built from the table on first read must equal the
objects. Its checks run in document order, so the first fault is reported.
"""

import functools
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
from stieltjes import (
    ConstantProfile,
    Derivator,
    DomainError,
    Jump,
    LinearProfile,
    PowerProfile,
    Segment,
    SpecValidationError,
    TabulatedProfile,
    cli,
    specio,
)


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


# ------------------------------------------------------------ number forms
#
# Every number field of a derivator document, with the path its fault is
# reported at: JSON integers read as the same floats, and a bool, a number
# that is not finite or an integer past the largest float fail there.

NUMBER_FIELDS = (
    (("interval", 0), "derivator.interval[0]"),
    (("interval", 1), "derivator.interval[1]"),
    (("anchor",), "derivator.anchor"),
    (("segments", 0, "lo"), "derivator.segments[0].lo"),
    (("segments", 0, "hi"), "derivator.segments[0].hi"),
    (("segments", 0, "profile", "slope"), "derivator.segments[0].profile.slope"),
    (("segments", 1, "profile", "exponent"), "derivator.segments[1].profile.exponent"),
    (("segments", 1, "profile", "scale"), "derivator.segments[1].profile.scale"),
    (("segments", 2, "profile", "points", 0, 0), "derivator.segments[2].profile.points[0][0]"),
    (("segments", 2, "profile", "points", 1, 1), "derivator.segments[2].profile.points[1][1]"),
    (("jumps", 0, "at"), "derivator.jumps[0].at"),
    (("jumps", 1, "delta"), "derivator.jumps[1].delta"),
)


def integer_doc():
    """Four segments and two jumps on [0, 40] whose numbers are all JSON integers."""
    return {
        "interval": [0, 40],
        "anchor": 1,
        "segments": [
            {"lo": 0, "hi": 10, "profile": {"kind": "linear", "slope": 2}},
            {"lo": 10, "hi": 20, "profile": {"kind": "power", "exponent": 2, "scale": -3}},
            {"lo": 20, "hi": 30, "profile": {"kind": "tabulated", "points": [[22, 1], [25, 4]]}},
            {"lo": 30, "hi": 40, "profile": {"kind": "constant"}},
        ],
        "jumps": [{"at": 10, "delta": 2}, {"at": 20, "delta": -1}],
    }


def set_field(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


def floats_of(doc):
    """The document with every integer number written as a float."""
    if isinstance(doc, dict):
        return {key: floats_of(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [floats_of(value) for value in doc]
    return float(doc) if type(doc) is int else doc


def table_of(d):
    return {name: getattr(d, name) for name in TABLE_COLUMNS}


def test_integers_read_as_the_floats_they_equal():
    want = table_of(specio.parse_derivator(floats_of(integer_doc())))
    assert_same_table(specio.parse_derivator(integer_doc()), want)
    for keys, _ in NUMBER_FIELDS:  # one integer at a time in the float document
        doc = floats_of(integer_doc())
        set_field(doc, keys, int(functools.reduce(lambda d, k: d[k], keys, doc)))
        assert_same_table(specio.parse_derivator(doc), want)


@pytest.mark.parametrize("keys, path", NUMBER_FIELDS)
@pytest.mark.parametrize("value, message", [
    (True, "expected a number, got bool"),
    (float("nan"), "number must be finite"),
    (float("inf"), "number must be finite"),
    (float("-inf"), "number must be finite"),
    (10 ** 400, "number must be finite"),
])
def test_a_number_that_is_no_float_fails_at_its_field(keys, path, value, message):
    for doc in (integer_doc(), floats_of(integer_doc())):
        set_field(doc, keys, value)
        with pytest.raises(SpecValidationError) as info:
            specio.parse_derivator(doc)
        assert (info.value.path, str(info.value)) == (path, f"{path}: {message}")


def test_the_json_forms_of_nan_and_infinity_fail_as_their_floats():
    for text in ("NaN", "Infinity", "-Infinity", "1e400"):
        doc = json.loads(json.dumps(integer_doc()).replace('"delta": -1', f'"delta": {text}'))
        with pytest.raises(SpecValidationError, match=r"^derivator\.jumps\[1\]\.delta: "
                                                      "number must be finite$"):
            specio.parse_derivator(doc)


def test_directions_extra_keys_and_the_wrapper_read_as_the_plain_document():
    want = table_of(specio.parse_derivator(integer_doc()))
    doc = integer_doc()
    for seg, direction in zip(doc["segments"], ("nondecreasing", "nonincreasing",
                                                "nondecreasing", "constant")):
        seg["direction"] = direction
        seg["note"] = "ignored"
        seg["profile"]["note"] = 1
    doc["jumps"][0]["note"] = [1]
    doc["label"] = {"any": "thing"}
    assert_same_table(specio.parse_derivator(doc), want)
    assert_same_table(specio.parse_derivator({"derivator": doc}), want)
    assert_same_table(specio.parse_derivator({"derivator": {"derivator": doc}}), want)
    # the wrapper gives way to a document of its own, and its paths nest
    assert_same_table(specio.parse_derivator({**integer_doc(), "derivator": 0}), want)
    doc["segments"][3]["direction"] = "nonincreasing"
    with pytest.raises(SpecValidationError) as info:
        specio.parse_derivator({"derivator": doc})
    assert info.value.path == "derivator.derivator.segments[3]"
    assert "conflicts with profile" in str(info.value)


# tabulated points of segment 2 of doc_with's document, on (0.5, 0.75): the
# first four and the integer pairs are valid as they stand
SAMPLE_FORMS = [
    [[0.55, 0.0], [0.6, 1.0]], [[0.55, 1.0], [0.6, 0.0], [0.7, 0.0]], [[0.55, 1.0], [0.6, 1.0]],
    [[0.51, -0.0], [0.52, 5e-324], [0.74, 2.0]],
    [[0.55, 0.0], [0.6, 1.0], [0.7, 0.5]], [[0.55, 0.0]], [], None, {"a": 1}, "points",
    [[0.6, 0.0], [0.55, 1.0]], [[0.55, 0.0], [0.55, 1.0]], [[0.5, 0.0], [0.6, 1.0]],
    [[0.55, 0.0], [0.75, 1.0]], [[0.55, 0.0], [0.6, 1.0, 2.0]], [[0.55, 0.0], [0.6]],
    [[0.55, 0.0], "x"], [[0.55, 0], [0.6, 1]], [[0.55, 0.0], [0.6, True]],
    [[0.55, float("nan")], [0.6, 1.0]], [[0.55, 0.0], [0.6, float("inf")]],
    [[0.55, 1e308], [0.6, -1e308]], [[0.55, 1e308], [0.6, 1e308]], [[0.55, 0.0], [0.6, 10 ** 400]],
]

# the forms no TabulatedProfile holds: where under the profile the reader
# reports each, and its text
JSON_FAULTS = {
    7: ("points", "expected a list, got NoneType"), 8: ("points", "expected a list, got dict"),
    9: ("points", "expected a list, got str"), 14: ("points[1]", "expected a [t, value] pair"),
    15: ("points[1]", "expected a [t, value] pair"), 16: ("points[1]", "expected a list, got str"),
    18: ("points[1][1]", "expected a number, got bool"),
    19: ("points[0][1]", "number must be finite"), 20: ("points[1][1]", "number must be finite"),
    23: ("points[1][1]", "number must be finite"),
}


def read_outcome(doc):
    try:
        return specio.parse_derivator(doc)
    except SpecValidationError as exc:
        return exc.path, str(exc)


def built_outcome(points, fields):
    """doc_with's derivator built from Segment objects, segment 2 tabulated on
    ``points`` with ``fields``; a DomainError at the path of the object that
    raised it, with the reader's text."""
    where = "derivator.segments[2]"
    path = f"{where}.profile"
    try:
        profile = TabulatedProfile(points)
        path = where
        seg = Segment(0.5, fields.get("hi", 0.75), profile, fields.get("direction"))
        path = "derivator"
        return Derivator((0.0, 1.0), [
            Segment(0.0, 0.25, LinearProfile(1.0)), Segment(0.25, 0.5, PowerProfile(0.5, 2.0)),
            seg, Segment(0.75, 1.0, ConstantProfile())], [Jump(0.25, 1.0), Jump(0.5, -1.0)])
    except DomainError as exc:
        return path, f"{path}: {exc}"


@pytest.mark.parametrize("form", range(len(SAMPLE_FORMS)))
@pytest.mark.parametrize("fields", [{}, {"direction": "nondecreasing"}, {"hi": 0.58}])
def test_tabulated_segments_read_as_segment_objects_build_them(form, fields):
    profile = {"kind": "tabulated", "points": SAMPLE_FORMS[form]}
    got = read_outcome(doc_with(("segments", 2, {"profile": profile, **fields})))
    if form in JSON_FAULTS:
        path = f"derivator.segments[2].profile.{JSON_FAULTS[form][0]}"
        assert got == (path, f"{path}: {JSON_FAULTS[form][1]}")
        return
    want = built_outcome(SAMPLE_FORMS[form], fields)
    if isinstance(want, Derivator):
        assert isinstance(got, Derivator), got
        assert_same_table(got, table_of(want))
    else:
        assert got == want
