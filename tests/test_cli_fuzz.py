"""Seeded fuzz of the command line: mutated documents and argvs through ``cli.main``.

Each call must end in one of three ways, and never in a traceback:
- exit 0, with every JSON document it wrote parseable and holding only finite
  numbers, and every CSV cell of a number column a number;
- exit 1 or 2 returned, with one JSON error object on stderr;
- exit 2 from the argument parser (``SystemExit``), with its usage and error
  text on stderr.
"""

import contextlib
import io
import json
import math
import time
import warnings

import numpy as np

from helpers import random_derivator
from stieltjes import cli, specio

CALLS = 1200
NON_ASCII = "línear—δ∞"
# text columns of the CSV outputs, and the plume's geometry columns, which are
# nan by design where q <= 0 or m <= 0
TEXT_COLUMNS = {"side", "regime"}
NAN_COLUMNS = {"b", "w", "theta"}


def derivator_doc(rng):
    doc = specio.serialize_derivator(random_derivator(rng))
    for seg in doc["segments"]:
        if rng.random() < 0.5:  # undeclared directions take the reader's guard
            del seg["direction"]
    return doc


def integrand_doc(rng):
    kind = int(rng.integers(4))
    if kind == 0:
        return {"kind": "constant", "value": float(rng.normal())}
    if kind == 1:
        return {"kind": "polynomial", "coefficients": rng.normal(size=int(rng.integers(1, 4))).tolist()}
    if kind == 2:
        xs = np.sort(rng.uniform(0.0, 1.0, int(rng.integers(2, 6))))
        return {"kind": "tabulated", "points": [[x, float(rng.normal())] for x in xs.tolist()]}
    mid = float(rng.uniform(0.2, 0.8))
    return {"kind": "piecewise_polynomial", "breakpoints": [0.0, mid, 1.0],
            "pieces": [rng.normal(size=2).tolist(), rng.normal(size=1).tolist()]}


def system_doc(rng):
    dim = int(rng.integers(1, 3))
    kind = ("zero", "linear", "polynomial", "tabulated")[int(rng.integers(4))]
    rhs = {"kind": kind}
    if kind == "linear":
        rhs["coefficients"] = rng.uniform(-1.0, 1.0, dim).tolist()
    elif kind == "polynomial":
        rhs["coefficients"] = rng.uniform(-1.0, 1.0, (dim, 2)).tolist()
    elif kind == "tabulated":
        rhs["points"] = [[t, *rng.uniform(-1.0, 1.0, dim).tolist()] for t in (0.0, 0.5, 1.0)]
    doc = {"derivators": [derivator_doc(rng) for _ in range(dim)],
           "initial": rng.uniform(-1.0, 1.0, dim).tolist(), "rhs": rhs}
    if rng.random() < 0.5:
        doc["bound"] = {"radius": float(rng.uniform(0.5, 3.0)),
                        "dominators": [{"kind": "constant", "value": float(rng.uniform(0.5, 2.0))}]}
    if rng.random() < 0.3:
        doc["horizon"] = float(rng.uniform(0.2, 1.0))
    return doc


def plume_doc(rng):
    cut = float(rng.uniform(2.0, 8.0))
    return {
        "params": {"entrainment": float(rng.uniform(0.05, 0.12)), "mixing": 1.2},
        "ambient": {
            "interval": [0.0, 10.0], "anchor": 1000.0,
            "segments": [{"lo": 0.0, "hi": cut, "profile": {"kind": "constant"}},
                         {"lo": cut, "hi": 10.0, "profile": {"kind": "linear",
                                                             "slope": -float(rng.uniform(0.0, 1.0))}}],
            "jumps": [{"at": cut, "delta": -float(rng.uniform(0.5, 3.0))}],
        },
        "initial": {"q": float(rng.uniform(0.01, 0.1)), "m": 0.01, "beta": 0.15},
    }


def ops(rng):
    """(argv with @name file placeholders, {name: document}) of one valid call."""
    d, f = derivator_doc(rng), integrand_doc(rng)
    two = {"d.json": d, "f.json": f}
    kind = int(rng.integers(8))
    if kind == 0:
        return ["decompose", "@d.json"], {"d.json": d}
    if kind == 1:
        lo, hi = sorted(rng.uniform(0.0, 1.0, 2).tolist())
        measure = ("signed", "positive_part", "negative_part", "total_variation")[int(rng.integers(4))]
        return ["integrate", "@d.json", "@f.json", "--measure", measure, "--lo", repr(lo),
                "--hi", repr(hi), "--rel-tol", "1e-8"], two
    if kind == 2:
        argv = ["derive", "@d.json", "@f.json", "--rel-tol", "1e-6"]
        for t in rng.uniform(0.0, 1.0, int(rng.integers(1, 3))).tolist():
            argv += ["--at", repr(t)]
        return argv, two
    if kind == 3:
        return ["ftc-check", "@d.json", "@f.json", "--grid-hint", "32", "--tol", "1e-6"], two
    if kind == 4:
        return ["exp", "@d.json", "@f.json", "--verify", "--grid-hint", "32"], two
    if kind == 5:
        return ["exp", "@d.json", "@f.json", "--grid-hint", "16", "-o", "@out.csv"], two
    if kind == 6:
        argv = ["solve", "@s.json", "--mesh", "32", "-o", "@out.csv"]
        argv += [flag for flag in ("--euler", "--select-horizon") if rng.random() < 0.5]
        return argv, {"s.json": system_doc(rng)}
    return ["plume", "@p.json", "--mesh", "64", "-o", "@out.csv"], \
        {"p.json": plume_doc(rng)}


def nodes(obj, path=()):
    """(path, value) of every node under obj, obj itself included."""
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from nodes(value, (*path, key))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def replace(doc, path, value):
    if not path:
        return value
    at(doc, path[:-1])[path[-1]] = value
    return doc


def mutate_doc(rng, doc):
    """doc with one random fault: a dropped field, a swapped type, a non-finite or
    huge number, an empty list, a non-ASCII string, a reversed pair or an edge number."""
    every = list(nodes(doc))

    def pick(test):
        paths = [p for p, v in every if test(v)] or [()]
        return paths[int(rng.integers(len(paths)))]

    def number(v):
        return type(v) in (int, float)

    choice = int(rng.integers(7))
    if choice == 0:
        fields = at(doc, pick(lambda v: isinstance(v, dict) and v))
        if isinstance(fields, dict) and fields:
            del fields[list(fields)[int(rng.integers(len(fields)))]]
        return doc
    if choice == 1:
        path, new = pick(lambda v: True), ["0.5", None, True, [], {}, 3, [1.0]][int(rng.integers(7))]
    elif choice == 2:
        path, new = pick(number), [math.nan, math.inf, -math.inf, "1e400", 10 ** 400][int(rng.integers(5))]
    elif choice == 3:
        path, new = pick(lambda v: isinstance(v, list)), []
    elif choice == 4:
        path, new = pick(lambda v: isinstance(v, str)), NON_ASCII
    elif choice == 5:
        path = pick(lambda v: isinstance(v, list) and len(v) == 2)
        new = at(doc, path)[::-1] if path else doc
    else:
        path, new = pick(number), [0.0, -1.0, 1e-300, 1e300, -0.0][int(rng.integers(5))]
    return replace(doc, path, new)


def mutate_argv(rng, argv):
    """argv with one change: an abbreviated or ``=``-form option, a missing value or
    positional, a negative, bad or repeated value, a ``--`` or a missing file."""
    argv = list(argv)
    options = [i for i, a in enumerate(argv) if a.startswith("--")]
    choice = int(rng.integers(8))
    if choice == 0 and options:
        i = options[int(rng.integers(len(options)))]
        argv[i] = argv[i][:int(rng.integers(3, len(argv[i]) + 1))]
    elif choice == 1 and options:
        i = options[int(rng.integers(len(options)))]
        if i + 1 < len(argv) and not argv[i + 1].startswith("-"):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    elif choice == 2:
        del argv[int(rng.integers(1, len(argv)))]
    elif choice == 3:
        argv += ["--lo", ["-0.25", "-1e-3", "1.5", "x"][int(rng.integers(4))]]
    elif choice == 4 and options:
        i = options[int(rng.integers(len(options)))]
        if i + 1 < len(argv):
            argv[i + 1] = ["x", "-1", "nan", "1e400", "0"][int(rng.integers(5))]
    elif choice == 5:
        argv.insert(int(rng.integers(1, len(argv) + 1)), "--")
    elif choice == 6 and options:
        i = options[int(rng.integers(len(options)))]
        argv += argv[i:i + 2]
    else:
        argv[1] = "@absent-ñ.json"
    return argv


def finite_constant(name):
    raise AssertionError(f"non-finite number {name} in the output")


def check_output(text):
    """A JSON document holds only finite numbers; a CSV has a number in every
    cell of its number columns."""
    if text.startswith("{"):
        json.loads(text, parse_constant=finite_constant)
        return
    header, *rows = text.rstrip("\n").split("\n")
    names = header.split(",")
    for row in rows:
        cells = row.split(",")
        assert len(cells) == len(names), row
        for name, cell in zip(names, cells):
            if name not in TEXT_COLUMNS:
                value = float(cell)
                assert math.isfinite(value) or name in NAN_COLUMNS, (name, row)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        try:
            code, parser_exit = cli.main(argv), False
        except SystemExit as exc:
            code, parser_exit = exc.code, True
    # a warning would print to stderr beside the report or the error object
    return code, parser_exit, out.getvalue(), err.getvalue() + "".join(
        f"{w.category.__name__}: {w.message}\n" for w in warned)


def test_mutated_calls_end_in_a_report_or_an_error_object(tmp_path):
    rng = np.random.default_rng(4711)
    start, outcomes = time.perf_counter(), {}
    for call in range(CALLS):
        argv, docs = ops(rng)
        texts = {name: json.dumps(doc, allow_nan=True) for name, doc in docs.items()}
        if rng.random() < 0.6:
            name = list(docs)[int(rng.integers(len(docs)))]
            doc = mutate_doc(rng, json.loads(texts[name]))
            texts[name] = json.dumps(doc, allow_nan=True).replace('"1e400"', "1e400")
        if rng.random() < 0.4:
            argv = mutate_argv(rng, argv)
        for name, text in texts.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        target = tmp_path / "out.csv"
        target.unlink(missing_ok=True)
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
        code, parser_exit, out, err = run(argv)
        context = (call, argv, texts, out, err)
        if parser_exit:
            assert code == 2 and out == "" and "error: " in err, context
            assert err.startswith("usage: stieltjes"), context
        elif code == 0:
            assert err == "", context
        else:
            assert code in (1, 2), context
            error = json.loads(err, parse_constant=finite_constant)
            assert list(error) == ["error"] and set(error["error"]) == {"type", "message", "path"}
        for text in (out, target.read_text(encoding="utf-8") if target.exists() else ""):
            if text:
                check_output(text)
        key = ("parser" if parser_exit else code)
        outcomes[key] = outcomes.get(key, 0) + 1
    # every way out is taken, within the time the suite allows one test
    assert set(outcomes) == {0, 1, 2, "parser"}, outcomes
    assert time.perf_counter() - start < 15.0
