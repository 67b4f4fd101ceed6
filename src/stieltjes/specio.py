"""JSON descriptions of derivators, integrands and systems.

A derivator document looks like::

    {
      "interval": [0.0, 1.0],
      "anchor": 0.0,
      "segments": [
        {"lo": 0.0, "hi": 0.5, "profile": {"kind": "linear", "slope": 1.0}},
        {"lo": 0.5, "hi": 1.0, "profile": {"kind": "constant"}}
      ],
      "jumps": [{"at": 0.5, "delta": 2.0}]
    }

Profiles: ``linear`` (slope), ``power`` (exponent, scale), ``constant``,
``tabulated`` (points, strictly inside the segment). A ``direction`` field on
a segment is optional; when present it must match the profile. Documents that
wrap the derivator under a ``"derivator"`` key (as the decompose report does)
are accepted anywhere a derivator is expected.

An integrand document is one of::

    {"kind": "constant", "value": 2.0}
    {"kind": "polynomial", "coefficients": [c0, c1, ...]}
    {"kind": "tabulated", "points": [[t, v], ...]}
    {"kind": "piecewise_polynomial", "breakpoints": [...], "pieces": [[...], ...]}

A system document couples derivators to a named right-hand side::

    {
      "derivators": [<derivator>, ...],
      "initial": [x1, ...],
      "rhs": {"kind": "linear", "coefficients": [c1, ...]},
      "horizon": 0.8,
      "bound": {"radius": 1.0, "dominators": [<integrand>, ...]}
    }

The right-hand side catalog: ``zero``; ``linear`` (componentwise c_j x_j);
``polynomial`` (pure time forcing, one coefficient row per component);
``tabulated`` (points rows [t, v1, ..., vdim]); ``plume`` (coefficients A, B,
C acting on state (q, m, beta) as A m^(1/4), B q beta, C q).

Every rejected field raises :class:`SpecValidationError` at its path, the first
fault in document order: a power exponent that is not positive fails at
``derivator.segments[i].profile``, a segment rule at ``derivator.segments[i]``.
Paths are formatted only for the fault reported. A derivator is read in one pass
into its segment table's columns and running sums, with no Segment or Jump object.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .derivator import (
    _DIRECTIONS,
    _KIND_NAMES,
    Derivator,
    _check_exponent,
    _check_jump,
    _check_samples,
    _Rows,
    _segment_direction,
)
from .errors import DomainError, SpecValidationError
from .measure import Integrand
from .plume import AmbientDensity, PlumeParams, build_plume_system, plume_rhs
from .solver import CaratheodoryBound, SystemSpec

RHS_CATALOG = ("zero", "linear", "polynomial", "tabulated", "plume")


def _expect_dict(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise SpecValidationError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _expect_list(obj, path: str) -> list:
    if not isinstance(obj, list):
        raise SpecValidationError(path, f"expected a list, got {type(obj).__name__}")
    return obj


def _as_is(obj, path: str):
    return obj


# float() raises OverflowError from this integer up: it is halfway between
# the largest float and 2**1024, and that tie rounds to even, upward
_INT_CEILING = 2 ** 1024 - 2 ** 970


def _num(obj, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SpecValidationError(path, f"expected a number, got {type(obj).__name__}")
    if (isinstance(obj, int) and abs(obj) >= _INT_CEILING) or not math.isfinite(obj):
        raise SpecValidationError(path, "number must be finite")
    return float(obj)


def _numbers(obj, path: str) -> list[float]:
    return [v if type(v) is float and math.isfinite(v) else _num(v, f"{path}[{i}]")
            for i, v in enumerate(_expect_list(obj, path))]


def _field(obj: dict, key: str, path: str, read=_num):
    """``read`` of the required field ``key`` of ``obj``, at path ``path.key``."""
    if key not in obj:
        raise SpecValidationError(path, f"missing required field {key!r}")
    value = obj[key]
    # the common cases, which need no path: a finite float number, a value as it is
    if read is _as_is or (read is _num and type(value) is float and math.isfinite(value)):
        return value
    return read(value, f"{path}.{key}")


def _built(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a DomainError from it raised again as a
    SpecValidationError at ``path``; the one place that does so."""
    try:
        return make(*args, **kwargs)
    except DomainError as exc:
        raise SpecValidationError(path, str(exc)) from exc


def _horizon(obj: dict, path: str) -> float | None:
    horizon = obj.get("horizon")
    return None if horizon is None else _num(horizon, f"{path}.horizon")


def _point_pairs(obj, path: str) -> list[tuple[float, float]]:
    out = []
    for i, row in enumerate(_expect_list(obj, path)):
        t, v = row if type(row) is list and len(row) == 2 else (None, None)
        if not (type(t) is type(v) is float and math.isfinite(t + v)):
            if len(_expect_list(row, f"{path}[{i}]")) != 2:
                raise SpecValidationError(f"{path}[{i}]", "expected a [t, value] pair")
            t, v = _numbers(row, f"{path}[{i}]")
        out.append((t, v))
    return out


# --------------------------------------------------------------- derivators

def _samples(rows):
    """A tabulated profile's points as a tuple of (t, v) pairs, when they are at
    least two [t, v] lists of finite floats with t strictly increasing and v
    monotone; else None."""
    if not (type(rows) is list and len(rows) > 1
            and all([type(row) is list and len(row) == 2 for row in rows])):
        return None
    ts, vs = zip(*rows)
    # a sum of floats is finite only if each is (one that overflows goes the checked way)
    if (set(map(type, ts + vs)) == {float} and math.isfinite(sum(ts) + sum(vs))
            and all(map(float.__lt__, ts, ts[1:]))
            and (all(map(float.__le__, vs, vs[1:])) or all(map(float.__ge__, vs, vs[1:])))):
        return tuple(zip(ts, vs))
    return None


def _segment(seg, path: str, i: int):
    """``_Rows.add``'s arguments for segment i of the derivator at ``path``, after
    the rules of one segment in document order: fields, profile, direction and
    segment. Finite floats, lo < hi, a linear, power or constant profile or
    samples strictly inside (lo, hi) that :func:`_samples` takes, and no
    direction pass them all with no path; any other goes the checked way."""
    prof = seg.get("profile") if type(seg) is dict else None
    kind = prof.get("kind") if type(prof) is dict else None
    if kind in _KIND_NAMES and seg.get("direction") is None:
        lo, hi = seg.get("lo"), seg.get("hi")
        slope, exponent, scale = ((prof.get("slope"), 1.0, 0.0) if kind == "linear" else
                                  (0.0, prof.get("exponent"), prof.get("scale", 1.0))
                                  if kind == "power" else (0.0, 1.0, 0.0))
        points = _samples(prof.get("points")) if kind == "tabulated" else ()
        # a sum of floats is finite only if each is (one that overflows goes the checked way)
        if (type(lo) is type(hi) is type(slope) is type(exponent) is type(scale) is float
                and math.isfinite(lo + hi + slope + exponent + scale) and lo < hi
                and exponent > 0 and points is not None
                and (not points or lo < points[0][0] and points[-1][0] < hi)):
            return lo, hi, kind, slope, exponent, scale, points, _segment_direction(
                lo, hi, scale if kind == "power" else slope, points, None)
    where = f"{path}.segments[{i}]"
    seg = _expect_dict(seg, where)
    lo = _field(seg, "lo", where)
    hi = _field(seg, "hi", where)
    where_p = f"{where}.profile"
    prof = _expect_dict(_field(seg, "profile", where, _as_is), where_p)
    kind, slope, exponent, scale, points = _field(prof, "kind", where_p, _as_is), 0.0, 1.0, 0.0, ()
    if kind == "linear":
        slope = _field(prof, "slope", where_p)
    elif kind == "power":
        exponent = _field(prof, "exponent", where_p)
        scale = _num(prof.get("scale", 1.0), f"{where_p}.scale")
        _built(where_p, _check_exponent, exponent)
    elif kind == "tabulated":
        points = _built(where_p, _check_samples, _field(prof, "points", where_p, _point_pairs))
    elif kind != "constant":
        raise SpecValidationError(f"{where_p}.kind", f"unknown profile kind {kind!r}; "
                                  "expected linear, power, constant or tabulated")
    direction = seg.get("direction")
    if direction is not None and direction not in _DIRECTIONS:
        raise SpecValidationError(f"{where}.direction", f"unknown direction {direction!r}")
    direction = _built(where, _segment_direction, lo, hi,
                       scale if kind == "power" else slope, points, direction)
    return lo, hi, kind, slope, exponent, scale, points, direction


def parse_derivator(obj, path: str = "derivator") -> Derivator:
    obj = _expect_dict(obj, path)
    if "derivator" in obj and "interval" not in obj:
        return parse_derivator(obj["derivator"], f"{path}.derivator")
    interval = _field(obj, "interval", path, _expect_list)
    if len(interval) != 2:
        raise SpecValidationError(f"{path}.interval", "expected [a, b]")
    a, b = _numbers(interval, f"{path}.interval")
    anchor = _num(obj.get("anchor", 0.0), f"{path}.anchor")
    rows = _Rows()
    for i, seg in enumerate(_field(obj, "segments", path, _expect_list)):
        rows.add(*_segment(seg, path, i))
    # a jump of finite floats needs no path; any other goes through the checked fields
    for i, jmp in enumerate(_expect_list(obj.get("jumps", []), f"{path}.jumps")):
        at, delta = (jmp.get("at"), jmp.get("delta")) if type(jmp) is dict else (None, None)
        if not (type(at) is type(delta) is float and math.isfinite(at + delta) and delta != 0):
            where = f"{path}.jumps[{i}]"
            jmp = _expect_dict(jmp, where)
            at, delta = _field(jmp, "at", where), _field(jmp, "delta", where)
            _built(where, _check_jump, at, delta)
        rows.jumps.append((at, delta))
    return _built(path, Derivator, (a, b), rows, anchor=anchor)


def serialize_derivator(d: Derivator) -> dict:
    """The document of d, read from its segment table."""
    segments = []
    for lo, hi, direction, kind, slope, exponent, scale, points in d._rows():
        profile = ({"kind": kind, "slope": slope} if kind == "linear"
                   else {"kind": kind, "exponent": exponent, "scale": scale} if kind == "power"
                   else {"kind": kind, "points": [list(p) for p in points]} if points
                   else {"kind": kind})
        segments.append({"lo": lo, "hi": hi, "direction": direction, "profile": profile})
    return {
        "interval": [d.a, d.b],
        "anchor": d.anchor,
        "segments": segments,
        "jumps": [{"at": at, "delta": delta}
                  for at, delta in zip(d._jump_at.tolist(), d._jump_delta.tolist())],
    }


# --------------------------------------------------------------- integrands

def parse_integrand(obj, path: str = "integrand") -> Integrand:
    obj = _expect_dict(obj, path)
    kind = _field(obj, "kind", path, _as_is)
    if kind == "constant":
        return Integrand.constant(_field(obj, "value", path))
    if kind == "polynomial":
        values = _field(obj, "coefficients", path, _numbers)
        return _built(f"{path}.coefficients", Integrand.polynomial, values)
    if kind == "tabulated":
        points = _field(obj, "points", path, _point_pairs)
        return _built(f"{path}.points", Integrand.tabulated, points)
    if kind == "piecewise_polynomial":
        breaks = _field(obj, "breakpoints", path, _expect_list)
        pieces = _field(obj, "pieces", path, _expect_list)
        breaks = _numbers(breaks, f"{path}.breakpoints")
        rows = [_numbers(row, f"{path}.pieces[{i}]") for i, row in enumerate(pieces)]
        return _built(path, Integrand.piecewise_polynomial, breaks, rows)
    raise SpecValidationError(
        f"{path}.kind",
        f"unknown integrand kind {kind!r}; expected constant, polynomial, "
        "tabulated or piecewise_polynomial",
    )


# ------------------------------------------------------------------ systems

def _build_rhs(obj: dict, dim: int, path: str):
    """The right-hand side of a catalog entry, passed as both ``rhs`` and
    ``rhs_batch``: ``(t, x)`` gives shape (dim,) and ``(ts[:], X[:, dim])``
    gives shape (n, dim), whose row k has the bits of ``(ts[k], X[k])``.

    ``zero``, ``polynomial`` and ``tabulated`` ignore the state: one
    :class:`Integrand` per component, evaluated at the times. Euler skips its
    loop for them (``_time_only``) and for ``linear`` (``_linear`` = c)."""
    kind = _field(obj, "kind", path, _as_is)
    if kind == "linear":
        coeffs = _field(obj, "coefficients", path, _expect_list)
        if len(coeffs) != dim:
            raise SpecValidationError(f"{path}.coefficients",
                                      f"expected {dim} coefficients, got {len(coeffs)}")
        c = np.array(_numbers(coeffs, f"{path}.coefficients"))

        def rhs(t, x):
            return c * x
        rhs._linear = c
        return rhs
    if kind == "plume":
        if dim != 3:
            raise SpecValidationError(path, "the plume right-hand side needs exactly 3 components")
        return plume_rhs(_field(obj, "A", path), _field(obj, "B", path), _field(obj, "C", path))
    if kind == "zero":
        columns = [Integrand.constant(0.0)] * dim
    elif kind == "polynomial":
        rows = _field(obj, "coefficients", path, _expect_list)
        if len(rows) != dim:
            raise SpecValidationError(f"{path}.coefficients",
                                      f"expected {dim} coefficient rows, got {len(rows)}")
        rows = [_numbers(row, f"{path}.coefficients[{i}]") for i, row in enumerate(rows)]
        columns = [_built(f"{path}.coefficients[{i}]", Integrand.polynomial, row)
                   for i, row in enumerate(rows)]
    elif kind == "tabulated":
        table = []
        for i, row in enumerate(_field(obj, "points", path, _expect_list)):
            row = _expect_list(row, f"{path}.points[{i}]")
            if len(row) != dim + 1:
                raise SpecValidationError(f"{path}.points[{i}]",
                                          f"expected [t, v1..v{dim}], got {len(row)} entries")
            table.append(_numbers(row, f"{path}.points[{i}]"))
        columns = [_built(f"{path}.points", Integrand.tabulated, [(r[0], r[j]) for r in table])
                   for j in range(1, dim + 1)]
    else:
        raise SpecValidationError(
            f"{path}.kind",
            f"unknown right-hand side {kind!r}; catalog: {', '.join(RHS_CATALOG)}",
        )

    def rhs(t, x):
        return np.array([c(t) for c in columns]).T
    rhs._time_only = True
    return rhs


def parse_system(obj, path: str = "system") -> tuple[SystemSpec, CaratheodoryBound | None]:
    obj = _expect_dict(obj, path)
    derivs = [
        parse_derivator(item, f"{path}.derivators[{i}]")
        for i, item in enumerate(_field(obj, "derivators", path, _expect_list))
    ]
    initial = _field(obj, "initial", path, _numbers)
    if len(initial) != len(derivs):
        raise SpecValidationError(
            f"{path}.initial",
            f"got {len(initial)} initial values for {len(derivs)} derivators",
        )
    rhs = _build_rhs(_field(obj, "rhs", path, _expect_dict), len(derivs), f"{path}.rhs")
    spec = _built(path, SystemSpec, derivs, rhs, initial,
                  horizon=_horizon(obj, path), rhs_batch=rhs)
    bound = None
    if obj.get("bound") is not None:
        where = f"{path}.bound"
        bobj = _expect_dict(obj["bound"], where)
        radius = _field(bobj, "radius", where)
        if radius <= 0:
            raise SpecValidationError(f"{where}.radius", "radius must be positive")
        doms = [
            parse_integrand(item, f"{where}.dominators[{i}]")
            for i, item in enumerate(_field(bobj, "dominators", where, _expect_list))
        ]
        if len(doms) not in (1, len(derivs)):
            raise SpecValidationError(
                f"{where}.dominators",
                f"need 1 or {len(derivs)} dominators, got {len(doms)}",
            )
        bound = CaratheodoryBound(radius=radius, dominators=doms)
    return spec, bound


def parse_plume(obj, path: str = "plume") -> SystemSpec:
    """The plume system of a plume document, with its horizon set.

    Fields: ``params`` (optional, any of ``PlumeParams``' four fields),
    ``ambient`` (the density derivator), ``initial`` (``[q, m, beta]`` or an
    object with those keys) and ``horizon`` (optional)."""
    obj = _expect_dict(obj, path)
    pobj = _expect_dict(obj.get("params", {}), f"{path}.params")
    names = ("entrainment", "mixing", "gravity", "reference_density")
    kwargs = {key: _field(pobj, key, f"{path}.params") for key in names if key in pobj}
    unknown = set(pobj) - set(names)
    if unknown:
        raise SpecValidationError(f"{path}.params", f"unknown fields {sorted(unknown)}")
    params = _built(f"{path}.params", PlumeParams, **kwargs)
    rho = _field(obj, "ambient", path, parse_derivator)
    ambient = _built(f"{path}.ambient", AmbientDensity, rho)
    init = _field(obj, "initial", path, _as_is)
    where = f"{path}.initial"
    if isinstance(init, dict):
        initial = [_field(init, key, where) for key in ("q", "m", "beta")]
    else:
        if len(_expect_list(init, where)) != 3:
            raise SpecValidationError(where, "expected [q, m, beta]")
        initial = _numbers(init, where)
    horizon = _horizon(obj, path)
    spec = _built(where, build_plume_system, params, ambient, *initial)
    # a new spec, so the horizon goes through the system's own check
    return _built(f"{path}.horizon", dataclasses.replace, spec, horizon=horizon)


def load_json(path: str, what: str = "input"):
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")  # strict: a BOM stays and fails as JSON
        # text mode's newlines, so an error's position counts as in a text read
        return json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    except FileNotFoundError as exc:
        raise SpecValidationError(what, f"file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not UTF-8
        raise SpecValidationError(what, f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecValidationError(what, f"invalid JSON in {path}: {exc}") from exc
