"""Piecewise-monotone representation of left-continuous derivators.

A derivator g on a compact interval [a, b] drives every integral, derivative
and differential equation in this package. It is stored as

* an ordered list of segments tiling [a, b], each carrying a monotone profile
  (linear, power, constant, or tabulated with shape-preserving piecewise-linear
  interpolation), and
* a separate list of jumps, each located at a segment boundary in [a, b).

Values accumulate left-continuously: ``eval(t)`` collects the segment
increments up to t plus every jump strictly to the left of t, so the jump at
t itself only affects ``eval_right(t)``. Bounded variation is structural
(finitely many monotone pieces), and sign changes of the slope are allowed.

One private builder lays the segments out as a table: per segment its bounds,
point class, prefix sums of the totals and jumps, and a run of rows, each
with a start, a kind, slope, exponent and scale; a tabulated segment is a
flat head, one affine row per knot cell and a flat tail. ``Derivator(...)``
feeds the builder its ``Segment`` objects, the document reader columns read
from JSON after the same scalar rules; ``segments``/``jumps`` are then built
on first read (a race builds equal tuples). Each kind's increment and chart
is one function of scalars or of one entry per point or grid cell, so
``eval`` and the grid integrals work on all rows at once.

Conventions that the rest of the package relies on:

* tabulated profiles extend constantly from their first/last sample to the
  segment endpoints, and a segment's continuous increment is measured from the
  profile value at the segment's left endpoint, bit for bit as ``np.interp``;
* a jump's ``delta`` equals ``eval_right(at) - eval(at)`` exactly;
* instances are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError

NONDECREASING = "nondecreasing"
NONINCREASING = "nonincreasing"
CONSTANT = "constant"

_DIRECTIONS = (NONDECREASING, NONINCREASING, CONSTANT)

#: kinds of variation exposed by :meth:`Derivator.variation`
TOTAL = "total"
POSITIVE = "positive"
NEGATIVE = "negative"

#: point classes returned by :meth:`Derivator.classify`; the last two are the
#: points where no derivative exists
JUMP_POINT = 0
RISING_POINT = 1       # strictly inside a nondecreasing run
FALLING_POINT = 2      # strictly inside a nonincreasing run
CONSTANCY_POINT = 3    # strictly inside a constancy run
BOUNDARY_POINT = 4     # run boundary without a jump, interval ends included

_RUN_CLASS = {NONDECREASING: RISING_POINT, NONINCREASING: FALLING_POINT,
              CONSTANT: CONSTANCY_POINT}
_POINT_KINDS = {
    RISING_POINT: ("interior", NONDECREASING),
    FALLING_POINT: ("interior", NONINCREASING),
    CONSTANCY_POINT: ("excluded", "inside a constancy interval"),
    BOUNDARY_POINT: ("excluded", "run boundary without a jump"),
}


# kind codes of the table's rows: powers below 1 chart apart, constant direction wins
_LINEAR, _CONSTANT, _KNOT, _POWER, _ROOT = range(5)


def _pow(x, e):
    """``x ** e``, also for a column of exponents e, rounded as numpy rounds an
    array to a scalar power: a square for 2 and a square root for 0.5."""
    out = x ** e
    if isinstance(e, np.ndarray) and ((e == 2.0) | (e == 0.5)).any():
        x, e = np.broadcast_arrays(x, e)
        out[e == 2.0], out[e == 0.5] = np.square(x[e == 2.0]), np.sqrt(x[e == 0.5])
    return out


# each kind's increment over x = t - lo >= 0; scalars or one per point
def _linear_increment(x, slope):
    return slope * x


def _power_increment(x, exponent, scale):
    return scale * _pow(x, exponent)


def _knot_increment(linear, y, y0):  # from slope * x; at x = 0 a zero's sign may differ
    return (linear + y) - y0


# the scalar rules, shared by the constructors below and the document reader

def _check_exponent(exponent: float) -> None:
    if not exponent > 0:
        raise DomainError(f"power profile exponent must be positive, got {exponent}")


def _check_samples(points) -> tuple[tuple[float, float], ...]:
    pts = tuple((float(x), float(y)) for x, y in points)
    if len(pts) < 2:
        raise DomainError("tabulated profile needs at least two samples")
    if any(p[0] >= q[0] for p, q in zip(pts, pts[1:])):
        raise DomainError("tabulated sample abscissae must be strictly increasing")
    return pts


def _segment_direction(lo, hi, sign: float, points, direction) -> str:
    """The direction of a segment on [lo, hi] whose profile grows with the sign
    of ``sign`` (slope or scale) or through tabulated ``points``."""
    if not lo < hi:
        raise DomainError(f"segment needs lo < hi, got [{lo}, {hi}]")
    if points:
        steps = [q[1] - p[1] for p, q in zip(points, points[1:])]
        if not (all(d >= 0 for d in steps) or all(d <= 0 for d in steps)):
            raise DomainError("tabulated samples are not monotone")
        sign = points[-1][1] - points[0][1]
    inferred = NONDECREASING if sign > 0 else NONINCREASING if sign < 0 else CONSTANT
    if direction is None:
        direction = inferred
    elif direction not in _DIRECTIONS:
        raise DomainError(f"unknown direction {direction!r}")
    elif direction != inferred:
        raise DomainError(f"declared direction {direction!r} conflicts with profile ({inferred})")
    if points and (points[0][0] <= lo or points[-1][0] >= hi):
        raise DomainError(f"tabulated samples must lie strictly inside ({lo}, {hi})")
    return direction


def _check_jump(at: float, delta: float) -> None:
    if delta == 0:
        raise DomainError(f"jump at {at} has zero delta")


def _chart(kind: int, f, los, his, lo, slope, exponent, scale):
    """Integration rule of one profile kind over cells [los, his]: ``(integrand,
    u_los, u_his, weight)``, where ``weight`` (or ``weight[i]``) times the
    integral of the integrand over [u_los[i], u_his[i]] is that of f against
    g over cell i. Segment parameters are scalars or one per cell (one row of
    nodes per cell). A knot cell weighs ``f dt`` by its slope. Powers below 1
    chart ``u = (t - lo)**exponent``, cancelling the singularity."""
    c_lo, c_slope, c_exp, c_scale = (a[:, None] if isinstance(a, np.ndarray) else a
                                     for a in (lo, slope, exponent, scale))
    if kind == _LINEAR:
        return (lambda t: f(t) * c_slope), los, his, 1.0
    if kind == _POWER:
        return (lambda t: f(t) * (c_scale * c_exp * _pow(t - c_lo, c_exp - 1.0))), los, his, 1.0
    if kind == _ROOT:
        inv = 1.0 / c_exp
        return ((lambda u: f(c_lo + _pow(np.maximum(u, 0.0), inv))),
                _pow(los - lo, exponent), _pow(his - lo, exponent), scale)
    return f, los, his, slope


@dataclass(frozen=True)
class LinearProfile:
    """Affine growth with constant slope; the workhorse profile."""

    slope: float
    kind: str = field(default="linear", init=False)


@dataclass(frozen=True)
class PowerProfile:
    """Growth ``scale * (t - lo)**exponent`` measured from the segment start.

    ``exponent`` must be positive; exponents below 1 give an integrable
    density singularity at the left endpoint, which the integration routines
    remove by substitution.
    """

    exponent: float
    scale: float
    kind: str = field(default="power", init=False)

    def __post_init__(self):
        _check_exponent(self.exponent)


@dataclass(frozen=True)
class ConstantProfile:
    """No continuous growth at all."""

    kind: str = field(default="constant", init=False)


@dataclass(frozen=True)
class TabulatedProfile:
    """Monotone samples joined by shape-preserving piecewise-linear interpolation.

    Sample abscissae must be strictly inside the owning segment; the profile
    is constant between each segment endpoint and the nearest sample, so the
    declared direction is preserved exactly.
    """

    points: tuple[tuple[float, float], ...]
    kind: str = field(default="tabulated", init=False)

    def __post_init__(self):
        object.__setattr__(self, "points", _check_samples(self.points))


#: A segment's monotone growth; :func:`_chart` holds each kind's integration rule.
Profile = LinearProfile | PowerProfile | ConstantProfile | TabulatedProfile

#: each profile kind's name, by kind code
_KIND_NAMES = ("linear", "constant", "tabulated", "power")


@dataclass(frozen=True)
class Segment:
    """One monotone piece of a derivator, on [lo, hi]."""

    lo: float
    hi: float
    profile: Profile
    direction: str | None = None

    def __post_init__(self):
        p = self.profile
        object.__setattr__(self, "direction", _segment_direction(
            self.lo, self.hi, getattr(p, "slope", getattr(p, "scale", 0.0)),
            getattr(p, "points", ()), self.direction))


@dataclass(frozen=True)
class Jump:
    """A discontinuity: ``eval_right(at) = eval(at) + delta`` with delta nonzero."""

    at: float
    delta: float

    def __post_init__(self):
        _check_jump(self.at, self.delta)


@dataclass(frozen=True)
class StructuralSets:
    """Decomposition of [a, b] into jump points and maximal monotone runs.

    ``rising``/``falling`` are the open intervals where the derivator strictly
    accumulates in one direction; ``constant`` holds the maximal open
    constancy intervals. All lists are pairwise disjoint and, together with
    the run boundary points, cover the interval.
    """

    jumps_up: tuple[float, ...]
    jumps_down: tuple[float, ...]
    rising: tuple[tuple[float, float], ...]
    falling: tuple[tuple[float, float], ...]
    constant: tuple[tuple[float, float], ...]


class _Rows:
    """Checked segments as (lo, hi, total, rise, fall, kind code, point class,
    first row), their table rows as (start, slope, exponent, scale, sample y_j,
    first sample y_0, kind) and the jumps ``(at, delta)`` they come with."""

    def __init__(self):
        self.segments, self.rows, self.jumps = [], [], []

    def add(self, lo, hi, kind: str, slope, exponent, scale, points, direction) -> None:
        """Parameters a profile lacks read 0.0, 1.0, 0.0. The total is the float
        increment over [lo, hi], a power's by the scalar ``**``; inf if it overflows.
        The rows are the segment itself, or for samples a flat head, knot cells
        and a flat tail."""
        point_class, width, code = _RUN_CLASS[direction], float(hi - lo), _KIND_NAMES.index(kind)
        try:
            total = float(points[-1][1] - points[0][1] if points else _power_increment(
                width, exponent, scale) if code == _POWER else _linear_increment(width, slope))
        except OverflowError:
            total = math.inf
        self.segments.append((lo, hi, total, total if point_class == RISING_POINT else 0.0,
                              -total if point_class == FALLING_POINT else 0.0, code,
                              point_class, len(self.rows)))
        row_kind = _CONSTANT if direction == CONSTANT else _ROOT if exponent < 1.0 else code
        if points:
            xs, ys = zip(*points)
            slopes = [(y1 - y) / (x1 - x) for x, y, x1, y1 in zip(xs, ys, xs[1:], ys[1:])]
            self.rows += ((x, s, exponent, scale, y, ys[0], row_kind)
                          for x, s, y in zip((lo, *xs), (slope, *slopes, 0.0), (ys[0], *ys)))
        else:
            self.rows.append((lo, slope, exponent, scale, 0.0, 0.0, row_kind))


class Derivator:
    """A left-continuous bounded-variation derivator on [a, b].

    Parameters
    ----------
    interval:
        Pair (a, b) with a < b.
    segments:
        Monotone segments tiling [a, b] exactly (consecutive endpoints equal).
    jumps:
        Jumps located at segment boundaries in [a, b); at most one per point.
        A segment must be pre-split wherever a jump is placed.
    anchor:
        The value g(a).
    """

    def __init__(
        self,
        interval: tuple[float, float],
        segments: Sequence[Segment],
        jumps: Iterable[Jump] = (),
        anchor: float = 0.0,
    ):
        # the one place a segment table is built: from the document reader's
        # checked rows, jumps included, or from the rows of the segments
        rows = segments
        if not isinstance(segments, _Rows):
            self.segments = tuple(segments)
            rows = _Rows()
            for s in self.segments:
                p = s.profile
                rows.add(s.lo, s.hi, p.kind, getattr(p, "slope", 0.0),
                         getattr(p, "exponent", 1.0), getattr(p, "scale", 0.0),
                         getattr(p, "points", ()), s.direction)
            rows.jumps = [(float(j.at), float(j.delta)) for j in jumps]
        a, b = float(interval[0]), float(interval[1])
        if not a < b:
            raise DomainError(f"interval needs a < b, got [{a}, {b}]")
        if not rows.segments:
            raise DomainError("at least one segment is required")
        los, his, totals, rises, falls, codes, classes, firsts = zip(*rows.segments)
        if los[0] != a or his[-1] != b:
            raise DomainError("segments must tile [a, b] exactly")
        for left, right in zip(his, los[1:]):
            if left != right:
                raise DomainError(f"segments must tile without gaps: {left} != {right}")
        ats, deltas = zip(*sorted(rows.jumps, key=lambda j: j[0])) if rows.jumps else ((), ())
        if len(set(ats)) != len(ats):
            raise DomainError("duplicate jump locations")
        # a run starts at segment 0, at a class change and at a jump
        starts = {0, *(k for k in range(1, len(classes)) if classes[k] != classes[k - 1])}
        for at in ats:
            if not (a <= at < b):
                raise DomainError(f"jump at {at} outside [{a}, {b})")
            k = bisect_left(los, at)  # the lo values increase, as the segments tile
            if k == len(los) or los[k] != at:
                raise DomainError(f"jump at {at} is not a segment boundary; "
                                  "split the segment there")
            starts.add(k)
        starts = sorted(starts)

        self.interval, self.anchor = (a, b), float(anchor)

        # per-segment columns with their prefix sums, sequential adds as np.cumsum;
        # segment k owns rows _row_ptr[k]: _row_ptr[k + 1]
        self._seg_lo, self._seg_hi = np.array([los, his], dtype=float)
        self._seg_code, self._seg_class = np.array([codes, classes])
        self._row_ptr = np.array([*firsts, len(rows.rows)])
        *row_table, kinds = zip(*rows.rows)
        (self._row_lo, self._row_slope, self._row_exp, self._row_scale, self._row_y,
         self._row_y0) = np.array(row_table, dtype=float)
        self._row_kind = np.array(kinds)
        self._curved = max(kinds) >= _KNOT  # knot or power rows
        sums = [[0.0, *accumulate(c)] for c in (totals, rises, falls)]
        self._cum_inc, self._rise_cum, self._fall_cum = np.array(sums)
        # jumps, and one trailing entry read through index -1 (no jump there):
        # the NaN location never compares equal, the padded delta is 0.0
        jump_sums = [[0.0, *accumulate(c)] for c in (deltas, (max(d, 0.0) for d in deltas),
                                                      (max(-d, 0.0) for d in deltas))]
        (self._jump_at_padded, self._jump_delta_padded, self._jump_cum, self._jump_pos_cum,
         self._jump_neg_cum) = jump_rows = np.array([[*ats, np.nan], [*deltas, 0.0], *jump_sums])
        self._jump_at, self._jump_delta = jump_rows[:2, :-1]
        # Python floats, so an overflow is inf with no warning; a running sum that
        # is not finite stays so: checking the last entries is enough
        variation = (sums[1][-1] + sums[2][-1]) + (jump_sums[1][-1] + jump_sums[2][-1])
        if not (math.isfinite(variation) and math.isfinite(sums[0][-1])
                and math.isfinite(jump_sums[0][-1]) and all(map(math.isfinite, row_table[1]))):
            raise DomainError(f"increments or jumps overflow on [{a}, {b}]: a segment "
                              "total, a knot-cell slope or a running sum is not finite")
        self._run_lo, self._run_hi = np.array([[los[k] for k in starts],
                                               [his[k - 1] for k in starts[1:]] + [his[-1]]],
                                              dtype=float)
        self._run_class = np.array([classes[k] for k in starts])

    @cached_property
    def segments(self) -> tuple[Segment, ...]:
        """The segments, built from the table on first read."""
        return tuple(Segment(lo, hi, (LinearProfile(slope) if kind == "linear"
                                      else PowerProfile(e, scale) if kind == "power"
                                      else TabulatedProfile(pts) if pts else ConstantProfile()),
                             direction)
                     for lo, hi, direction, kind, slope, e, scale, pts in self._rows())

    @cached_property
    def jumps(self) -> tuple[Jump, ...]:
        """The jumps in order, built from the table on first read."""
        return tuple(map(Jump, self._jump_at.tolist(), self._jump_delta.tolist()))

    def _rows(self):
        """Per segment: lo, hi, direction, profile kind, its first row's slope,
        exponent and scale, and the start and y_j of its rows after the head."""
        first, ptr = self._row_ptr[:-1], self._row_ptr.tolist()
        xs, ys = self._row_lo.tolist(), self._row_y.tolist()
        return zip(self._seg_lo.tolist(), self._seg_hi.tolist(),
                   [_DIRECTIONS[c - RISING_POINT] for c in self._seg_class.tolist()],
                   [_KIND_NAMES[c] for c in self._seg_code.tolist()],
                   *(c[first].tolist() for c in (self._row_slope, self._row_exp, self._row_scale)),
                   [tuple(zip(xs[i + 1:j], ys[i + 1:j])) for i, j in zip(ptr, ptr[1:])])

    # ------------------------------------------------------------------ basics

    @property
    def a(self) -> float:
        return self.interval[0]

    @property
    def b(self) -> float:
        return self.interval[1]

    @classmethod
    def identity(cls, a: float, b: float, jumps: Iterable = ()) -> "Derivator":
        """Slope-1 derivator, auto-split at the requested jumps.

        Jumps may be given as (at, delta) pairs or Jump records.
        """
        jmps = sorted(
            (j.at, j.delta) if isinstance(j, Jump) else (float(j[0]), float(j[1]))
            for j in jumps
        )
        return cls._cut_at_jumps(a, b, jmps, LinearProfile(1.0), anchor=a)

    @classmethod
    def _cut_at_jumps(cls, a: float, b: float, jumps: Sequence[tuple[float, float]],
                      profile, anchor: float) -> "Derivator":
        """One ``profile`` segment per piece of [a, b] cut at the sorted jumps ``(at, delta)``."""
        cuts = sorted(set([a] + [at for at, _ in jumps if a < at < b] + [b]))
        segs = [Segment(lo, hi, profile) for lo, hi in zip(cuts, cuts[1:])]
        return cls((a, b), segs, [Jump(at, d) for at, d in jumps], anchor=anchor)

    @classmethod
    def constant(cls, a: float, b: float, level: float = 0.0) -> "Derivator":
        return cls((a, b), [Segment(a, b, ConstantProfile())], anchor=level)

    def _check_domain(self, t: np.ndarray) -> np.ndarray:
        """t, after a DomainError unless every time is in [a, b]; each public query
        checks its input once, and paths with checked times call the unchecked cores."""
        a, b = self.interval
        inside = (t >= a) & (t <= b)  # False for NaN, unlike t < a or t > b
        if not inside.all():
            raise DomainError(f"time {float(np.ravel(t[~inside])[0])} outside [{a}, {b}]")
        return t

    def _point(self, t) -> float:
        """t as a float, after ``_check_domain``'s DomainError unless a <= t <= b."""
        t = float(t)
        a, b = self.interval
        if not a <= t <= b:  # False for NaN
            raise DomainError(f"time {t} outside [{a}, {b}]")
        return t

    def _span(self, lo: float, hi: float) -> tuple[float, float]:
        """(lo, hi) as floats, after a DomainError unless [lo, hi) lies in [a, b]."""
        lo, hi = float(lo), float(hi)
        a, b = self.interval
        if not (a <= lo <= hi <= b):
            raise DomainError(f"[{lo}, {hi}) not inside [{a}, {b}]")
        return lo, hi

    def segment_index(self, t):
        """Index of the segment owning t; boundaries belong to the left segment."""
        return self._segment_index(self._check_domain(np.asarray(t, dtype=float)))

    def _segment_index(self, t: np.ndarray):
        # every time in [a, b] but a itself has a segment lo strictly left of it
        return np.maximum(np.searchsorted(self._seg_lo, t, side="left") - 1, 0)

    def _row_in(self, seg, t):
        """Row of segment ``seg`` holding t in [lo, hi]: its last row starting at or
        before t, so a knot x_j takes the row from x_j, where np.interp reads y_j."""
        last = self._row_ptr[seg + 1] - 1
        return np.minimum(self._row_lo.searchsorted(t, side="right") - 1, last)

    def _row_increment(self, r: int, t: float, array_power: bool = False):
        """Increment of row r's segment from its lo up to the float t; a power row
        takes numpy's scalar power, or with ``array_power`` a one-element array's."""
        x = t - self._row_lo[r]
        kind = self._row_kind[r]
        if kind >= _POWER:
            x = np.array([x]) if array_power else x
            return _power_increment(x, float(self._row_exp[r]), self._row_scale[r]).item()
        out = _linear_increment(x, self._row_slope[r])
        return _knot_increment(out, self._row_y[r], self._row_y0[r]) if kind == _KNOT else out

    def _increments(self, idx: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Increment from the lo of segment ``idx[i]`` up to ``t[i]``: one
        expression per row kind over the columns of the rows holding the points."""
        rows = self._row_in(idx, t)
        x = t - self._row_lo[rows]
        out = _linear_increment(x, self._row_slope[rows])  # 0.0 on power and constant rows
        if self._curved:
            kind = self._row_kind[rows]
            p = np.flatnonzero(kind >= _POWER)
            out[p] = _power_increment(x[p], self._row_exp[rows[p]], self._row_scale[rows[p]])
            k = np.flatnonzero(kind == _KNOT)
            out[k] = _knot_increment(out[k], self._row_y[rows[k]], self._row_y0[rows[k]])
        return out

    def _place(self, t: float) -> tuple:
        """Segment, row and count of jumps left of the float t in [a, b], as ``eval`` finds them."""
        k = max(int(self._seg_lo.searchsorted(t)) - 1, 0)
        r = min(int(self._row_lo.searchsorted(t, side="right")), self._row_ptr[k + 1]) - 1
        return k, r, int(self._jump_at.searchsorted(t))

    def _value_at(self, place: tuple, t: float) -> float:
        """g(t) for the float t at its ``_place``, in the array path's float expression."""
        k, r, j = place
        inc = self._row_increment(r, t, array_power=True)
        return float(self.anchor + (self._cum_inc[k] + inc) + self._jump_cum[j])

    def eval(self, t):
        """Left-continuous value g(t); accepts scalars or arrays."""
        if np.isscalar(t):
            t = self._point(t)
            return self._value_at(self._place(t), t)
        arr = np.asarray(t, dtype=float)
        flat = arr.reshape(-1)
        idx = self._segment_index(self._check_domain(flat))
        jumps_before = self._jump_cum[np.searchsorted(self._jump_at, flat, side="left")]
        out = self.anchor + (self._cum_inc[idx] + self._increments(idx, flat)) + jumps_before
        return float(out[0]) if np.isscalar(t) else out.reshape(arr.shape)

    def eval_right(self, t):
        """Right limit g(t+): ``eval(t)`` plus the jump mass at t, the padded 0.0
        off the jumps (eval never gives -0.0, so adding it keeps the bits)."""
        value = self.eval(t) + self._jump_delta_padded[self._jump_index(np.asarray(t, dtype=float))]
        return float(value) if np.isscalar(t) else value

    def jump_index(self, times) -> np.ndarray:
        """Index into ``jumps`` of the jump at each time, -1 where g is continuous."""
        ts = np.asarray(times, dtype=float)
        self._check_domain(ts)
        return self._jump_index(ts)

    def _jump_index(self, ts: np.ndarray) -> np.ndarray:
        pos = self._jump_at.searchsorted(ts)
        return np.where(self._jump_at_padded[pos] == ts, pos, -1)

    def _jump_pos(self, t: float) -> int:  # _jump_index of one float
        pos = int(self._jump_at.searchsorted(t))
        return pos if self._jump_at_padded[pos] == t else -1

    def deltas_on(self, times) -> np.ndarray:
        """Jump mass at each time, 0.0 where g is continuous."""
        return self._jump_delta_padded[self.jump_index(times)]

    def _deltas(self, ts: np.ndarray) -> np.ndarray:  # unchecked, for grids built in [a, b]
        return self._jump_delta_padded[self._jump_index(ts)]

    def delta_at(self, t: float) -> float:
        """Jump mass at t, 0.0 when g is continuous there."""
        return float(self.deltas_on(t))

    # -------------------------------------------------------------- variation

    def variation(self, lo: float, hi: float, kind: str = TOTAL) -> float:
        """Variation of g over [lo, hi), split by kind (total/positive/negative)."""
        lo, hi = self._span(lo, hi)
        if kind not in (TOTAL, POSITIVE, NEGATIVE):
            raise DomainError(f"unknown variation kind {kind!r}")
        return self._variations(lo, hi)[(POSITIVE, NEGATIVE, TOTAL).index(kind)]

    def _variations(self, lo: float, hi: float) -> tuple[float, float, float]:
        """Positive, negative and total variation over [lo, hi) inside [a, b], one pass."""
        pos = neg = 0.0
        ends = np.array([np.maximum(lo, self._seg_lo), np.minimum(hi, self._seg_hi)])
        seg = np.flatnonzero(ends[0] < ends[1])  # the segments [lo, hi) meets
        for rc, rd, c, d in zip(*self._row_in(seg, ends[:, seg]).tolist(), *ends[:, seg].tolist()):
            inc = float(self._row_increment(rd, d) - self._row_increment(rc, c))
            if inc > 0:
                pos += inc
            else:
                neg += -inc
        if self._jump_at.size:
            sel = (self._jump_at >= lo) & (self._jump_at < hi)
            deltas = self._jump_delta[sel]
            pos += float(np.sum(deltas[deltas > 0]))
            neg += float(-np.sum(deltas[deltas < 0]))
        return pos, neg, pos + neg

    def variation_cumulative(self, times, kind: str = TOTAL) -> np.ndarray:
        """Vectorized ``variation(a, t, kind)``: the class prefix before t's
        segment, that segment's increment up to t when it has the class, and
        the jumps strictly left of t."""
        ts = np.asarray(times, dtype=float)
        flat = ts.reshape(-1)
        idx = self._segment_index(self._check_domain(flat))
        inc, cls = self._increments(idx, flat), self._seg_class[idx]
        at = np.searchsorted(self._jump_at, flat, side="left")
        pos = (self._rise_cum[idx] + np.where(cls == RISING_POINT, inc, 0.0)
               + self._jump_pos_cum[at])
        neg = (self._fall_cum[idx] - np.where(cls == FALLING_POINT, inc, 0.0)
               + self._jump_neg_cum[at])
        out = pos if kind == POSITIVE else neg if kind == NEGATIVE else pos + neg
        return out.reshape(ts.shape)

    # -------------------------------------------------------- structural sets

    def structural_sets(self) -> StructuralSets:
        def runs(cls: int):
            sel = self._run_class == cls
            return tuple(zip(self._run_lo[sel].tolist(), self._run_hi[sel].tolist()))

        return StructuralSets(tuple(self._jump_at[self._jump_delta > 0].tolist()),
                              tuple(self._jump_at[self._jump_delta < 0].tolist()),
                              runs(RISING_POINT), runs(FALLING_POINT), runs(CONSTANCY_POINT))

    def run_boundaries(self) -> tuple[float, ...]:
        """Points delimiting the maximal monotone runs (jumps included)."""
        return (self.a, *self._run_hi[:-1].tolist(), self.b)

    def classify(self, times) -> np.ndarray:
        """Point class of each time for derivative purposes.

        Returns ``JUMP_POINT`` at jumps; ``RISING_POINT``, ``FALLING_POINT``
        or ``CONSTANCY_POINT`` strictly inside a run of that direction; and
        ``BOUNDARY_POINT`` on a run boundary without a jump. The derivative
        exists nowhere in the last two classes.
        """
        ts = np.asarray(times, dtype=float)
        self._check_domain(ts)
        run = np.searchsorted(self._run_lo, ts, side="right") - 1
        inside = (self._run_lo[run] < ts) & (ts < self._run_hi[run])
        codes = np.where(inside, self._run_class[run], BOUNDARY_POINT)
        return np.where(self._jump_index(ts) >= 0, JUMP_POINT, codes)

    def classify_point(self, t: float) -> tuple[str, object]:
        """Where t sits for derivative purposes.

        Returns one of
        ``("jump", delta)``, ``("interior", run_direction)`` for points strictly
        inside a rising/falling run, or ``("excluded", reason)`` for run
        boundaries and anything in the closure of a constancy interval.
        """
        if not np.isscalar(t):  # one time in an array, checked as arrays are
            t = self._check_domain(np.asarray(t, dtype=float)).item()
        t = self._point(t)
        j = self._jump_pos(t)
        if j >= 0:
            return ("jump", float(self._jump_delta[j]))
        run = int(self._run_lo.searchsorted(t, side="right")) - 1
        inside = self._run_lo[run] < t < self._run_hi[run]
        return _POINT_KINDS[int(self._run_class[run]) if inside else BOUNDARY_POINT]

    def segments_adjacent(self, t: float) -> tuple[int | None, int | None]:
        """Indices of the segments just left and just right of t (None at a or b)."""
        t = self._point(t)
        left = int(self._seg_lo.searchsorted(t)) - 1
        right = int(self._seg_lo.searchsorted(t, side="right")) - 1
        return (left if left >= 0 and t <= self._seg_hi[left] else None,
                right if right >= 0 and t < self._seg_hi[right] else None)

    # ----------------------------------------------------------------- extras

    def breakpoints(self) -> tuple[float, ...]:
        """Segment boundaries plus tabulated knots; natural grid refinement points."""
        return tuple(self._breakpoints().tolist())

    def _breakpoints(self) -> np.ndarray:  # the row starts and b: one span per row
        return np.append(self._row_lo, self.b)

    def __repr__(self):
        return (
            f"Derivator([{self.a}, {self.b}], {self._seg_lo.size} segments, "
            f"{self._jump_at.size} jumps, anchor={self.anchor})"
        )
