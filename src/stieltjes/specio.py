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
"""

from __future__ import annotations

import json

import numpy as np

from .derivator import (
    ConstantProfile,
    Derivator,
    Jump,
    LinearProfile,
    PowerProfile,
    Segment,
    TabulatedProfile,
)
from .errors import DomainError, SpecValidationError, StieltjesError
from .measure import Integrand
from .plume import plume_rhs
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


def _num(obj, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SpecValidationError(path, f"expected a number, got {type(obj).__name__}")
    try:
        v = float(obj)
    except OverflowError:  # an integer literal past the float range
        v = np.inf
    if not np.isfinite(v):
        raise SpecValidationError(path, "number must be finite")
    return v


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        raise SpecValidationError(path, f"missing required field {key!r}")
    return obj[key]


def _point_pairs(obj, path: str) -> list[tuple[float, float]]:
    rows = _expect_list(obj, path)
    out = []
    for i, row in enumerate(rows):
        pair = _expect_list(row, f"{path}[{i}]")
        if len(pair) != 2:
            raise SpecValidationError(f"{path}[{i}]", "expected a [t, value] pair")
        out.append((_num(pair[0], f"{path}[{i}][0]"), _num(pair[1], f"{path}[{i}][1]")))
    return out


# --------------------------------------------------------------- derivators

def _parse_profile(obj, path: str):
    obj = _expect_dict(obj, path)
    kind = _get(obj, "kind", path)
    if kind == "linear":
        return LinearProfile(_num(_get(obj, "slope", path), f"{path}.slope"))
    if kind == "power":
        exponent = _num(_get(obj, "exponent", path), f"{path}.exponent")
        scale = _num(obj.get("scale", 1.0), f"{path}.scale")
        return PowerProfile(exponent, scale)
    if kind == "constant":
        return ConstantProfile()
    if kind == "tabulated":
        return TabulatedProfile(tuple(_point_pairs(_get(obj, "points", path), f"{path}.points")))
    raise SpecValidationError(
        f"{path}.kind",
        f"unknown profile kind {kind!r}; expected linear, power, constant or tabulated",
    )


def parse_derivator(obj, path: str = "derivator") -> Derivator:
    obj = _expect_dict(obj, path)
    if "derivator" in obj and "interval" not in obj:
        return parse_derivator(obj["derivator"], f"{path}.derivator")
    interval = _expect_list(_get(obj, "interval", path), f"{path}.interval")
    if len(interval) != 2:
        raise SpecValidationError(f"{path}.interval", "expected [a, b]")
    a = _num(interval[0], f"{path}.interval[0]")
    b = _num(interval[1], f"{path}.interval[1]")
    anchor = _num(obj.get("anchor", 0.0), f"{path}.anchor")
    segments = []
    for i, seg in enumerate(_expect_list(_get(obj, "segments", path), f"{path}.segments")):
        where = f"{path}.segments[{i}]"
        seg = _expect_dict(seg, where)
        lo = _num(_get(seg, "lo", where), f"{where}.lo")
        hi = _num(_get(seg, "hi", where), f"{where}.hi")
        profile = _parse_profile(_get(seg, "profile", where), f"{where}.profile")
        direction = seg.get("direction")
        if direction is not None and direction not in ("nondecreasing", "nonincreasing", "constant"):
            raise SpecValidationError(f"{where}.direction", f"unknown direction {direction!r}")
        try:
            segments.append(Segment(lo, hi, profile, direction))
        except StieltjesError as exc:
            raise SpecValidationError(where, str(exc)) from exc
    jumps = []
    for i, jmp in enumerate(_expect_list(obj.get("jumps", []), f"{path}.jumps")):
        where = f"{path}.jumps[{i}]"
        jmp = _expect_dict(jmp, where)
        at = _num(_get(jmp, "at", where), f"{where}.at")
        delta = _num(_get(jmp, "delta", where), f"{where}.delta")
        try:
            jumps.append(Jump(at, delta))
        except StieltjesError as exc:
            raise SpecValidationError(where, str(exc)) from exc
    try:
        return Derivator((a, b), segments, jumps, anchor=anchor)
    except StieltjesError as exc:
        raise SpecValidationError(path, str(exc)) from exc


def _serialize_profile(profile) -> dict:
    if isinstance(profile, LinearProfile):
        return {"kind": "linear", "slope": profile.slope}
    if isinstance(profile, PowerProfile):
        return {"kind": "power", "exponent": profile.exponent, "scale": profile.scale}
    if isinstance(profile, ConstantProfile):
        return {"kind": "constant"}
    if isinstance(profile, TabulatedProfile):
        return {"kind": "tabulated", "points": [[t, y] for t, y in profile.points]}
    raise SpecValidationError("profile", f"cannot serialize {type(profile).__name__}")


def serialize_derivator(d: Derivator) -> dict:
    return {
        "interval": [d.a, d.b],
        "anchor": d.anchor,
        "segments": [
            {
                "lo": s.lo,
                "hi": s.hi,
                "direction": s.direction,
                "profile": _serialize_profile(s.profile),
            }
            for s in d.segments
        ],
        "jumps": [{"at": j.at, "delta": j.delta} for j in d.jumps],
    }


# --------------------------------------------------------------- integrands

def parse_integrand(obj, path: str = "integrand") -> Integrand:
    obj = _expect_dict(obj, path)
    kind = _get(obj, "kind", path)
    if kind == "constant":
        return Integrand.constant(_num(_get(obj, "value", path), f"{path}.value"))
    if kind == "polynomial":
        coeffs = _expect_list(_get(obj, "coefficients", path), f"{path}.coefficients")
        values = [_num(c, f"{path}.coefficients[{i}]") for i, c in enumerate(coeffs)]
        try:
            return Integrand.polynomial(values)
        except DomainError as exc:
            raise SpecValidationError(f"{path}.coefficients", str(exc)) from exc
    if kind == "tabulated":
        points = _point_pairs(_get(obj, "points", path), f"{path}.points")
        try:
            return Integrand.tabulated(points)
        except DomainError as exc:
            raise SpecValidationError(f"{path}.points", str(exc)) from exc
    if kind == "piecewise_polynomial":
        breaks = _expect_list(_get(obj, "breakpoints", path), f"{path}.breakpoints")
        pieces = _expect_list(_get(obj, "pieces", path), f"{path}.pieces")
        breaks = [_num(x, f"{path}.breakpoints[{i}]") for i, x in enumerate(breaks)]
        rows = [[_num(c, f"{path}.pieces[{i}][{j}]")
                 for j, c in enumerate(_expect_list(row, f"{path}.pieces[{i}]"))]
                for i, row in enumerate(pieces)]
        try:
            return Integrand.piecewise_polynomial(breaks, rows)
        except DomainError as exc:
            raise SpecValidationError(path, str(exc)) from exc
    raise SpecValidationError(
        f"{path}.kind",
        f"unknown integrand kind {kind!r}; expected constant, polynomial, "
        "tabulated or piecewise_polynomial",
    )


# ------------------------------------------------------------------ systems

def _build_rhs(obj: dict, dim: int, path: str):
    """The right-hand side of a catalog entry, passed as both ``rhs`` and
    ``rhs_batch``: ``(t, x)`` gives shape (dim,) and ``(ts[:], X[:, dim])``
    gives shape (n, dim), whose row k has the bits of ``(ts[k], X[k])``."""
    kind = _get(obj, "kind", path)
    if kind == "zero":
        def rhs(t, x):
            return np.zeros(np.shape(x))
        return rhs
    if kind == "linear":
        coeffs = _expect_list(_get(obj, "coefficients", path), f"{path}.coefficients")
        if len(coeffs) != dim:
            raise SpecValidationError(
                f"{path}.coefficients", f"expected {dim} coefficients, got {len(coeffs)}"
            )
        c = np.array([_num(v, f"{path}.coefficients[{i}]") for i, v in enumerate(coeffs)])

        def rhs(t, x):
            return c * x
        return rhs
    if kind == "polynomial":
        rows = _expect_list(_get(obj, "coefficients", path), f"{path}.coefficients")
        if len(rows) != dim:
            raise SpecValidationError(
                f"{path}.coefficients", f"expected {dim} coefficient rows, got {len(rows)}"
            )
        polys = [np.array([_num(v, f"{path}.coefficients[{i}][{j}]")
                           for j, v in enumerate(_expect_list(row, f"{path}.coefficients[{i}]"))])
                 for i, row in enumerate(rows)]
        for i, p in enumerate(polys):
            if p.size == 0:
                raise SpecValidationError(f"{path}.coefficients[{i}]",
                                          "expected at least one coefficient")

        def rhs(t, x):
            return np.array([np.polynomial.polynomial.polyval(t, p) for p in polys]).T
        return rhs
    if kind == "tabulated":
        rows = _expect_list(_get(obj, "points", path), f"{path}.points")
        if not rows:
            raise SpecValidationError(f"{path}.points", "expected at least one point")
        table = []
        for i, row in enumerate(rows):
            row = _expect_list(row, f"{path}.points[{i}]")
            if len(row) != dim + 1:
                raise SpecValidationError(
                    f"{path}.points[{i}]", f"expected [t, v1..v{dim}], got {len(row)} entries"
                )
            table.append([_num(v, f"{path}.points[{i}][{j}]") for j, v in enumerate(row)])
        knots, *columns = np.array(table).T.copy()
        if np.any(np.diff(knots) <= 0):
            raise SpecValidationError(f"{path}.points", "times must be strictly increasing")

        def rhs(t, x):
            return np.array([np.interp(t, knots, v) for v in columns]).T
        return rhs
    if kind == "plume":
        if dim != 3:
            raise SpecValidationError(path, "the plume right-hand side needs exactly 3 components")
        A = _num(_get(obj, "A", path), f"{path}.A")
        B = _num(_get(obj, "B", path), f"{path}.B")
        C = _num(_get(obj, "C", path), f"{path}.C")
        return plume_rhs(A, B, C)
    raise SpecValidationError(
        f"{path}.kind",
        f"unknown right-hand side {kind!r}; catalog: {', '.join(RHS_CATALOG)}",
    )


def parse_system(obj, path: str = "system") -> tuple[SystemSpec, CaratheodoryBound | None]:
    obj = _expect_dict(obj, path)
    derivs = [
        parse_derivator(item, f"{path}.derivators[{i}]")
        for i, item in enumerate(_expect_list(_get(obj, "derivators", path), f"{path}.derivators"))
    ]
    initial = [_num(v, f"{path}.initial[{i}]")
               for i, v in enumerate(_expect_list(_get(obj, "initial", path), f"{path}.initial"))]
    if len(initial) != len(derivs):
        raise SpecValidationError(
            f"{path}.initial",
            f"got {len(initial)} initial values for {len(derivs)} derivators",
        )
    rhs = _build_rhs(_expect_dict(_get(obj, "rhs", path), f"{path}.rhs"),
                     len(derivs), f"{path}.rhs")
    horizon = None
    if obj.get("horizon") is not None:
        horizon = _num(obj["horizon"], f"{path}.horizon")
    try:
        spec = SystemSpec(derivs, rhs, initial, horizon=horizon, rhs_batch=rhs)
    except StieltjesError as exc:
        raise SpecValidationError(path, str(exc)) from exc
    bound = None
    if obj.get("bound") is not None:
        bobj = _expect_dict(obj["bound"], f"{path}.bound")
        radius = _num(_get(bobj, "radius", f"{path}.bound"), f"{path}.bound.radius")
        if radius <= 0:
            raise SpecValidationError(f"{path}.bound.radius", "radius must be positive")
        doms = [
            parse_integrand(item, f"{path}.bound.dominators[{i}]")
            for i, item in enumerate(
                _expect_list(_get(bobj, "dominators", f"{path}.bound"), f"{path}.bound.dominators")
            )
        ]
        if len(doms) not in (1, len(derivs)):
            raise SpecValidationError(
                f"{path}.bound.dominators",
                f"need 1 or {len(derivs)} dominators, got {len(doms)}",
            )
        bound = CaratheodoryBound(radius=radius, dominators=doms)
    return spec, bound


def load_json(path: str, what: str = "input"):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SpecValidationError(what, f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SpecValidationError(what, f"invalid JSON in {path}: {exc}") from exc
