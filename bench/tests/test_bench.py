"""Tests of the benchmark itself: determinism, tracer hygiene, span arithmetic.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import importlib
import io
import json
import inspect
import contextlib
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracer as tracing
from workloads import WORKLOADS, build_derive_probe, build_pointwise

BENCH = Path(__file__).resolve().parents[1]


def _builds():
    yield from WORKLOADS.items()
    yield "probe", lambda seed, part="timed": build_derive_probe(seed)


@pytest.mark.parametrize("name,build", list(_builds()))
def test_same_seed_gives_same_ops_and_documents(name, build):
    first, again, other = build(7), build(7), build(8)
    assert [op.id for op in first] == [op.id for op in again]
    assert [op.argv for op in first] == [op.argv for op in again]
    assert [op.digest() for op in first] == [op.digest() for op in again]
    # another seed keeps the schedule (ids, subcommands, shapes) but not the values
    assert [(op.id, op.kind, len(op.argv)) for op in first] == \
        [(op.id, op.kind, len(op.argv)) for op in other]
    assert len({op.digest() for op in first} & {op.digest() for op in other}) == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_timed_workload_has_enough_ops_for_its_p90(name):
    # every pass runs the whole list, so a run holds at least this many samples
    assert len(WORKLOADS[name](1)) * run.MIN_PASSES >= 100


def test_each_workload_runs_two_op_families():
    families = {name: sorted({op.family for op in build(1)}) for name, build in WORKLOADS.items()}
    assert families == {"ftc-pointwise": ["ftc-grid", "pointwise"],
                        "picard-euler": ["plume-picard", "solve-euler"]}


def test_timed_phase_ends_within_half_a_pass_of_its_seconds():
    # 7-second passes against 50 seconds: stop after the seventh (49 s), not the eighth (56 s)
    assert run.another_pass(42.0, 6, 50.0)
    assert not run.another_pass(49.0, 7, 50.0)


def _snapshot():
    seen = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "stieltjes" or modname.startswith("stieltjes."):
            for attr, value in vars(mod).items():
                seen[(modname, attr)] = value
                if inspect.isclass(value) and value.__module__.startswith("stieltjes"):
                    for cattr, cvalue in vars(value).items():
                        seen[(modname, attr, cattr)] = cvalue
    return seen


def test_tracer_restores_every_attribute_it_patched():
    importlib.import_module("stieltjes.cli")
    solver = sys.modules["stieltjes.solver"]
    calculus = sys.modules["stieltjes.calculus"]
    before = _snapshot()
    tr = tracing.Tracer()
    tr.install()
    try:
        patched = {key for key, value in _snapshot().items() if before[key] is not value}
        # names imported across modules are patched where the caller looks them up
        for key in [("stieltjes.solver", "_cell_integrals"),
                    ("stieltjes.exponential", "_cell_integrals"),
                    ("stieltjes.calculus", "_estimate_table"),
                    ("stieltjes.cli", "main"),
                    ("stieltjes.derivator", "Derivator", "eval")]:
            assert key in patched
        assert solver._cell_integrals is not calculus.__dict__["_cell_integrals"].__wrapped__
    finally:
        tr.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _decompose_doc():
    return {"interval": [0.0, 1.0],
            "segments": [{"lo": 0.0, "hi": 0.5, "profile": {"kind": "linear", "slope": 1.0}},
                         {"lo": 0.5, "hi": 1.0, "profile": {"kind": "constant"}}],
            "jumps": [{"at": 0.5, "delta": 2.0}]}


def test_traced_op_produces_nested_layer_spans(tmp_path):
    cli = importlib.import_module("stieltjes.cli")
    path = tmp_path / "d.json"
    path.write_text(json.dumps(_decompose_doc()))
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.op = 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["decompose", str(path)]) == 0
    finally:
        tr.uninstall()
    spans = tr.arrays()
    names = [str(spans["names"][i]) for i in spans["name_id"]]
    assert names[0] == "cli.main" and spans["parent"][0] == tracing.ROOT
    assert "specio.parse_derivator" in names
    assert "derivator.Derivator.__init__" in names
    assert np.all(spans["end"] >= spans["start"])
    assert np.all(spans["op_id"] == 0)
    kids = spans["parent"] >= 0
    assert np.all(spans["start"][kids] >= spans["start"][spans["parent"][kids]])


def test_self_time_on_a_synthetic_span_tree():
    #   0 root [0, 10]
    #   1   a  [1, 4]   child of 0
    #   2     c [2, 3]  child of 1
    #   3   b  [3, 6]   child of 0, overlaps a
    #   4   d  [9, 12]  child of 0, runs past its parent
    start = [0.0, 1.0, 2.0, 3.0, 9.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    own = tracing.self_times(start, end, parent)
    # root: covered by [1, 6] and [9, 10] -> 10 - 6 = 4
    assert own.tolist() == [4.0, 2.0, 1.0, 3.0, 3.0]


def test_layer_metrics_split_time_by_layer_and_find_unattributed_time():
    names = ["cli.main", "specio.load_json", "derivator.Derivator.__init__",
             "solver.SystemSpec.call_rhs"]
    spans = {
        "start": np.array([1.0, 2.0, 5.0, 6.0]),
        "end": np.array([9.0, 4.0, 8.0, 7.0]),
        "parent": np.array([-1, 0, 0, 2]),
        "name_id": np.array([0, 1, 2, 3]),
        "op_id": np.array([0, 0, 0, 0]),
        "names": np.array(names),
    }
    m = tracing.layer_metrics(spans, {"derivator.points": 7}, [(0, 0.0, 10.0)])
    assert m["cli.self_s"] == 3.0          # 8 - (2 + 3)
    assert m["specio.self_s"] == 2.0
    assert m["derivator.self_s"] == 2.0    # 3 - 1
    assert m["solver.self_s"] == 1.0
    assert m["solver.rhs_calls"] == 1 and m["solver.rhs_s"] == 1.0
    assert m["derivator.build_s"] == 3.0
    assert m["derivator.calls"] == 1
    assert m["derivator.points"] == 7
    assert m["unattributed_s"] == 2.0      # op wall 10, cli.main covers 8


def test_metric_tables_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_checks_catch_a_wrong_integral():
    op = next(o for o in build_pointwise(3) if o.kind == "integrate" and not o.expect_exit)
    value, _ = checks.oracle.integral(op.check["doc"], op.check["coeffs"], op.check["lo"],
                                      op.check["hi"], op.check["signature"])
    assert checks.check(op, 0, json.dumps({"value": value}), "", None) is None
    assert checks.check(op, 0, json.dumps({"value": value + 1e-4}), "", None) is not None
    assert checks.check(op, 2, "", "", None) is not None
