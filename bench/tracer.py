"""Layer spans for the traced run, recorded from outside the library.

``Tracer.install`` wraps the public functions and methods of each
``stieltjes`` module (plus the private helpers other modules call across a
module boundary) and ``Tracer.uninstall`` puts every original attribute
back. A wrapped call appends one span: name, start, end, parent span and op
id. Spans stay in memory as flat arrays; :func:`layer_metrics` turns them
into per-layer self times and work counters after the run.

Names imported into another module (``from .calculus import _cell_integrals``)
are patched in every module that holds them, because the caller looks the
name up in its own namespace.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("derivator", "quadrature", "measure", "calculus", "exponential",
          "solver", "plume", "specio", "cli")

# private helpers that another module calls, or that a metric times
PRIVATE = {
    "measure": ("_as_integrand", "_tabulated_integral"),
    "calculus": ("_cell_integrals", "_estimate_table", "_extrapolate"),
    "solver": ("_jump_table", "_audit_jumps"),
    "plume": ("_audit_plume",),
    "specio": ("_expect_dict", "_expect_list", "_num", "_get"),
}
# methods worth a span even though their names start with an underscore
DUNDER = ("__init__", "__call__")

ROOT = -1


def _wanted(name: str, layer: str) -> bool:
    return not name.startswith("_") or name in PRIVATE.get(layer, ()) or name in DUNDER


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("q")
        self.op_id = array("q")
        self.current = ROOT
        self.op = -1
        self.counters: dict[str, int] = {}
        self.op_walls: list[tuple[int, float, float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans

    def _wrap(self, fn, name: str, hook=None):
        nid = len(self.names)
        self.names.append(name)
        start, end, parent, name_id, op_id = (self.start, self.end, self.parent,
                                               self.name_id, self.op_id)
        tracer = self

        def traced(*args, **kwargs):
            up = tracer.current
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            parent.append(up)
            name_id.append(nid)
            op_id.append(tracer.op)
            tracer.current = idx
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.current = up
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(tracer, up, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, n: int = 1):
        self.counters[key] = self.counters.get(key, 0) + int(n)

    def outside(self, up: int, layer: str) -> bool:
        """True when the span's parent belongs to another layer (a layer entry)."""
        return up == ROOT or not self.names[self.name_id[up]].startswith(layer + ".")

    # ------------------------------------------------------------- patching

    def _set(self, target, attr: str, value):
        self._patches.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def install(self, package: str = "stieltjes"):
        modules = {layer: sys.modules[f"{package}.{layer}"] for layer in LAYERS}
        holders = [m for name, m in sys.modules.items()
                   if name == package or name.startswith(package + ".")]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or not _wanted(attr, layer):
                    continue
                if inspect.isclass(obj):
                    self._patch_class(layer, obj)
                elif inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{layer}.{attr}", HOOKS.get(f"{layer}.{attr}"))
                    for holder in holders:
                        for name, value in list(vars(holder).items()):
                            if value is obj:
                                self._set(holder, name, wrapped)

    def _patch_class(self, layer: str, cls):
        for attr, raw in list(vars(cls).items()):
            if not _wanted(attr, layer):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            hook = HOOKS.get(name)
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(raw.__func__, name, hook)))
            elif isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(raw.__func__, name, hook)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(raw, name, hook))

    def uninstall(self):
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -------------------------------------------------------------- export

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "op_id": np.frombuffer(self.op_id, dtype=np.int64).copy(),
            "names": np.array(self.names),
        }


# ------------------------------------------------------------- counter hooks


def _points(tracer, up, args, result):
    if tracer.outside(up, "derivator"):
        tracer.count("derivator.points", np.size(args[1]))


def _kronrod(tracer, up, args, result):
    tracer.count("quadrature.panels")
    tracer.count("quadrature.integrand_points", 15)


def _panels(tracer, up, args, result):
    cells = max(np.size(args[1]) - 1, 0)
    tracer.count("quadrature.panels", cells)
    tracer.count("quadrature.integrand_points", 15 * cells)


HOOKS = {
    "derivator.Derivator.eval": _points,
    "derivator.Derivator.eval_right": _points,
    "derivator.Derivator.variation_cumulative": _points,
    "quadrature.kronrod_panel": _kronrod,
    "quadrature.panel_integrals": _panels,
    "calculus.uniform_grid":
        lambda t, up, args, result: t.count("calculus.grid_points", len(result)),
    "solver.system_grid":
        lambda t, up, args, result: t.count("solver.grid_points", len(result)),
    "solver.solve_picard":
        lambda t, up, args, result: t.count("solver.picard_sweeps", result[3]),
}


# ------------------------------------------------------------------ analysis


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent and overlapping children are merged,
    so the result never goes negative and never counts a covered instant twice.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    out = end - start
    kids = np.nonzero(parent >= 0)[0]
    if kids.size == 0:
        return out
    order = kids[np.lexsort((start[kids], parent[kids]))]
    cur_parent, lo, hi, covered = -1, 0.0, 0.0, 0.0
    for k in order:
        p = parent[k]
        s, e = max(start[k], start[p]), min(end[k], end[p])
        if p != cur_parent:
            if cur_parent >= 0:
                out[cur_parent] -= covered + (hi - lo)
            cur_parent, lo, hi, covered = p, s, max(s, e), 0.0
        elif s > hi:
            covered += hi - lo
            lo, hi = s, max(s, e)
        else:
            hi = max(hi, e)
    out[cur_parent] -= covered + (hi - lo)
    return out


def union_length(intervals) -> float:
    total, hi = 0.0, -np.inf
    for s, e in sorted(intervals):
        if e <= hi:
            continue
        total += e - max(s, hi)
        hi = e
    return total


BUILD = ("derivator.Derivator.__init__", "derivator.Segment.__init__",
         "derivator.Derivator.identity", "derivator.Derivator.constant")
INCLUSIVE = {
    "measure.tabulated_s": ("measure._tabulated_integral",),
    "calculus.estimate_table_s": ("calculus._estimate_table",),
    "calculus.cell_integrals_s": ("calculus._cell_integrals",),
    "calculus.extrapolate_s": ("calculus._extrapolate",),
    "exponential.trajectory_s": ("exponential.GExponential.trajectory",),
    "exponential.verify_s": ("exponential.verify_linear_solution",),
    "solver.rhs_s": ("solver.SystemSpec.call_rhs",),
    "solver.picard_s": ("solver.solve_picard",),
    "solver.euler_s": ("solver.solve_euler",),
    "solver.horizon_s": ("solver.select_horizon",),
    "solver.audit_s": ("solver._audit_jumps",),
    "derivator.build_s": BUILD,
}
CALLS = {
    "derivator.classify_calls": ("derivator.Derivator.classify_point",),
    "measure.integrate_calls": ("measure.StieltjesMeasure.integrate",),
    "solver.rhs_calls": ("solver.SystemSpec.call_rhs",),
}


def layer_metrics(spans: dict, counters: dict, op_walls: list) -> dict:
    """Per-layer self time, inclusive phase times and counts for one pass.

    ``op_walls`` holds (op_id, start, end) for every op of the pass; time in
    an op that no layer span covers is reported as ``unattributed_s``.
    """
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    names = [str(n) for n in spans["names"]]
    name_id = spans["name_id"]
    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in names] or [0])
    own = self_times(start, end, parent)
    span_layer = layer_of[name_id] if len(name_id) else np.zeros(0, dtype=int)
    out = {f"{layer}.self_s": float(own[span_layer == i].sum())
           for i, layer in enumerate(LAYERS)}

    # inclusive times count only outermost spans of the group, so recursion
    # or a nested call of the same group is not counted twice
    for metric, group in INCLUSIVE.items():
        ids = {i for i, n in enumerate(names) if n in group}
        member = np.isin(name_id, list(ids)) if ids else np.zeros(len(name_id), dtype=bool)
        total = 0.0
        for k in np.nonzero(member)[0]:
            p = parent[k]
            while p >= 0 and not member[p]:
                p = parent[p]
            if p < 0:
                total += end[k] - start[k]
        out[metric] = total
    for metric, group in CALLS.items():
        ids = [i for i, n in enumerate(names) if n in group]
        out[metric] = int(np.isin(name_id, ids).sum()) if ids else 0
    # calls into the derivator layer from any other layer
    derivator_spans = np.nonzero(span_layer == LAYERS.index("derivator"))[0]
    entries = 0
    for k in derivator_spans:
        p = parent[k]
        entries += p < 0 or span_layer[p] != LAYERS.index("derivator")
    out["derivator.calls"] = int(entries)
    for key in ("derivator.points", "quadrature.panels", "quadrature.integrand_points",
                "calculus.grid_points", "solver.grid_points", "solver.picard_sweeps"):
        out[key] = int(counters.get(key, 0))

    roots = np.nonzero(parent < 0)[0]
    by_op: dict[int, list] = {}
    for k in roots:
        by_op.setdefault(int(spans["op_id"][k]), []).append((start[k], end[k]))
    out["unattributed_s"] = float(sum(
        (e - s) - union_length([(max(a, s), min(b, e)) for a, b in by_op.get(op, [])
                                if min(b, e) > max(a, s)])
        for op, s, e in op_walls))
    return out
