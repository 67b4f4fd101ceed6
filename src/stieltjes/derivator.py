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

Construction also lays the segments out as one table of columns: bounds, a
point class, the profile kind with its slope, exponent and scale, and prefix
sums of the totals, rising totals, minus the falling totals and the signed,
positive and negative jumps. Each kind's increment and chart is one function
of scalars (the profile methods) or of one entry per point or grid cell (the
table), so ``eval``, ``variation_cumulative`` and the grid integrals work on
all segments at once; tabulated segments take one ``np.interp`` each. Runs
are cut from the class column; ``variation(lo, hi)`` still loops segments.

Conventions that the rest of the package relies on:

* tabulated profiles extend constantly from their first/last sample to the
  segment endpoints, and a segment's continuous increment is measured from the
  profile value at the segment's left endpoint;
* a jump's ``delta`` equals ``eval_right(at) - eval(at)`` exactly;
* instances are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def _prefix(values: np.ndarray) -> np.ndarray:
    """Running sums with a leading 0.0: entry k sums ``values[:k]`` in order."""
    return np.concatenate([[0.0], values.cumsum()])


# kind codes of the table: powers below 1 chart apart, constant direction wins
_LINEAR, _CONSTANT, _TABULATED, _POWER, _ROOT = range(5)


def _pow(x, e):
    """``x ** e``, also for a column of exponents e, rounded as numpy rounds an
    array to a scalar power: a square for 2 and a square root for 0.5."""
    out = x ** e
    if isinstance(e, np.ndarray) and ((e == 2.0) | (e == 0.5)).any():
        x, e = np.broadcast_arrays(x, e)
        out[e == 2.0], out[e == 0.5] = np.square(x[e == 2.0]), np.sqrt(x[e == 0.5])
    return out


# each kind's increment over x = t - lo >= 0, and density; scalars or one per point
def _linear_increment(x, slope):
    return slope * x


def _power_increment(x, exponent, scale):
    return scale * _pow(x, exponent)


def _power_density(x, exponent, scale):
    return scale * exponent * _pow(x, exponent - 1.0)


def _direction_of(sign: float) -> str:
    return NONDECREASING if sign > 0 else NONINCREASING if sign < 0 else CONSTANT


def _chart(kind: int, f, los, his, lo, slope, exponent, scale):
    """Integration rule of one profile kind over cells [los, his]: ``(integrand,
    u_los, u_his, weight)``, where ``weight`` (or ``weight[i]``) times the
    integral of the integrand over [u_los[i], u_his[i]] is that of f against
    g over cell i. Segment parameters are scalars or one per cell (one row of
    nodes per cell); a tabulated slope is each cell's knot-cell slope. Powers
    below 1 chart ``u = (t - lo)**exponent``, cancelling the singularity."""
    c_lo, c_slope, c_exp, c_scale = (a[:, None] if isinstance(a, np.ndarray) else a
                                     for a in (lo, slope, exponent, scale))
    if kind == _LINEAR:
        return (lambda t: f(t) * c_slope), los, his, 1.0
    if kind == _POWER:
        return (lambda t: f(t) * _power_density(t - c_lo, c_exp, c_scale)), los, his, 1.0
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

    def increment(self, lo: float, hi: float, t):
        return _linear_increment(np.asarray(t, dtype=float) - lo, self.slope)

    def density(self, lo: float, hi: float, t):
        return np.full_like(np.asarray(t, dtype=float), self.slope)

    def inferred_direction(self) -> str:
        return _direction_of(self.slope)


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
        if not self.exponent > 0:
            raise DomainError(f"power profile exponent must be positive, got {self.exponent}")

    def increment(self, lo: float, hi: float, t):
        return _power_increment(np.asarray(t, dtype=float) - lo, self.exponent, self.scale)

    def density(self, lo: float, hi: float, t):
        return _power_density(np.asarray(t, dtype=float) - lo, self.exponent, self.scale)

    def inferred_direction(self) -> str:
        return _direction_of(self.scale)


@dataclass(frozen=True)
class ConstantProfile:
    """No continuous growth at all."""

    kind: str = field(default="constant", init=False)

    def increment(self, lo: float, hi: float, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def density(self, lo: float, hi: float, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def inferred_direction(self) -> str:
        return CONSTANT


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
        pts = tuple((float(x), float(y)) for x, y in self.points)
        if len(pts) < 2:
            raise DomainError("tabulated profile needs at least two samples")
        xs = [p[0] for p in pts]
        if any(x1 >= x2 for x1, x2 in zip(xs, xs[1:])):
            raise DomainError("tabulated sample abscissae must be strictly increasing")
        object.__setattr__(self, "points", pts)

    def increment(self, lo: float, hi: float, t):
        xs, ys = np.array(self.points).T
        # np.interp extends constantly outside the sample range already
        return np.interp(np.asarray(t, dtype=float), xs, ys) - ys[0]

    def density(self, lo: float, hi: float, t):
        raise DomainError("tabulated profiles expose no density; integrate per knot cell")

    def inferred_direction(self) -> str:
        ys = np.array(self.points)[:, 1]
        if not (np.all(np.diff(ys) >= 0) or np.all(np.diff(ys) <= 0)):
            raise DomainError("tabulated samples are not monotone")
        return _direction_of(ys[-1] - ys[0])


#: A segment's monotone growth; :func:`_chart` holds each kind's integration rule.
Profile = LinearProfile | PowerProfile | ConstantProfile | TabulatedProfile


@dataclass(frozen=True)
class Segment:
    """One monotone piece of a derivator, on [lo, hi]."""

    lo: float
    hi: float
    profile: Profile
    direction: str | None = None

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError(f"segment needs lo < hi, got [{self.lo}, {self.hi}]")
        inferred = self.profile.inferred_direction()
        if self.direction is None:
            object.__setattr__(self, "direction", inferred)
        elif self.direction not in _DIRECTIONS:
            raise DomainError(f"unknown direction {self.direction!r}")
        elif self.direction != inferred:
            raise DomainError(
                f"declared direction {self.direction!r} conflicts with profile ({inferred})"
            )
        xs = self.interior_knots()
        if xs and (xs[0] <= self.lo or xs[-1] >= self.hi):
            raise DomainError(f"tabulated samples must lie strictly inside ({self.lo}, {self.hi})")

    def increment_to(self, t):
        """Continuous increment accumulated from lo up to t (vectorized)."""
        return self.profile.increment(self.lo, self.hi, t)

    @property
    def total_increment(self) -> float:
        return float(self.profile.increment(self.lo, self.hi, self.hi))

    def density_at(self, t):
        return self.profile.density(self.lo, self.hi, t)

    @property
    def is_constant(self) -> bool:
        return self.direction == CONSTANT

    def _table_row(self) -> tuple[int, float, float, float]:
        """Kind code, slope, exponent and scale in the segment table; 0.0 or 1.0 if absent."""
        p, exponent = self.profile, getattr(self.profile, "exponent", 1.0)
        kind = (_CONSTANT if self.is_constant else _ROOT if exponent < 1.0
                else {"linear": _LINEAR, "power": _POWER}.get(p.kind, _TABULATED))
        return kind, getattr(p, "slope", 0.0), exponent, getattr(p, "scale", 0.0)

    def interior_knots(self) -> list[float]:
        """Abscissae where the profile's slope may kink (tabulated samples)."""
        return [p[0] for p in getattr(self.profile, "points", ())]


@dataclass(frozen=True)
class Jump:
    """A discontinuity: ``eval_right(at) = eval(at) + delta`` with delta nonzero."""

    at: float
    delta: float

    def __post_init__(self):
        if self.delta == 0:
            raise DomainError(f"jump at {self.at} has zero delta")


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
        a, b = float(interval[0]), float(interval[1])
        if not a < b:
            raise DomainError(f"interval needs a < b, got [{a}, {b}]")
        segs = tuple(segments)
        if not segs:
            raise DomainError("at least one segment is required")
        if segs[0].lo != a or segs[-1].hi != b:
            raise DomainError("segments must tile [a, b] exactly")
        for left, right in zip(segs, segs[1:]):
            if left.hi != right.lo:
                raise DomainError(f"segments must tile without gaps: {left.hi} != {right.lo}")
        jmps = tuple(sorted((Jump(float(j.at), float(j.delta)) for j in jumps), key=lambda j: j.at))
        ats = [j.at for j in jmps]
        if len(set(ats)) != len(ats):
            raise DomainError("duplicate jump locations")
        boundaries = {s.lo for s in segs}
        for j in jmps:
            if not (a <= j.at < b):
                raise DomainError(f"jump at {j.at} outside [{a}, {b})")
            if j.at not in boundaries:
                raise DomainError(f"jump at {j.at} is not a segment boundary; "
                                  "split the segment there")

        self.interval = (a, b)
        self.segments = segs
        self.jumps = jmps
        self.anchor = float(anchor)

        # the segment table: per-segment columns and their prefix sums
        rows = [(s.lo, s.hi, _RUN_CLASS[s.direction], s.total_increment, *s._table_row())
                for s in segs]
        (self._seg_lo, self._seg_hi, seg_class, totals, seg_kind, self._seg_slope,
         self._seg_exp, self._seg_scale) = np.array(rows, dtype=float).T.copy()
        self._seg_class, self._seg_kind = seg_class.astype(int), seg_kind.astype(int)
        self._curved = bool(self._seg_kind.max() >= _TABULATED)  # power or tabulated
        self._knots = np.array([x for s in segs for x in s.interior_knots()])
        self._cum_inc = _prefix(totals)
        self._rise_cum = _prefix(np.where(self._seg_class == RISING_POINT, totals, 0.0))
        self._fall_cum = _prefix(np.where(self._seg_class == FALLING_POINT, -totals, 0.0))
        self._jump_at = np.array(ats) if ats else np.empty(0)
        self._jump_delta = np.array([j.delta for j in jmps]) if jmps else np.empty(0)
        self._jump_cum = _prefix(self._jump_delta)
        self._jump_pos_cum = _prefix(np.maximum(self._jump_delta, 0.0))
        self._jump_neg_cum = _prefix(np.maximum(-self._jump_delta, 0.0))
        # one trailing entry each, read through index -1 (no jump there): the
        # NaN location never compares equal, the padded delta is 0.0
        self._jump_at_padded = np.concatenate([self._jump_at, [np.nan]])
        self._jump_delta_padded = np.concatenate([self._jump_delta, [0.0]])
        # a run starts at segment 0, at a class change and at a jump
        starts = np.ones(len(segs), dtype=bool)
        starts[1:] = self._seg_class[1:] != self._seg_class[:-1]
        starts[np.searchsorted(self._seg_lo, self._jump_at)] = True
        self._run_lo = self._seg_lo[starts]
        self._run_hi = self._seg_hi[np.concatenate([starts[1:], [True]])]
        self._run_class = self._seg_class[starts]

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

    def _increments(self, idx: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Increment from the lo of segment ``idx[i]`` up to ``t[i]``: one
        expression per profile kind over the table's columns, and one
        ``np.interp`` per tabulated segment."""
        if t.size == 1:
            return self.segments[int(idx[0])].increment_to(t)
        x = t - self._seg_lo[idx]
        out = _linear_increment(x, self._seg_slope[idx])  # 0.0 off linear segments
        if self._curved:
            p = np.flatnonzero(self._seg_kind[idx] >= _POWER)
            out[p] = _power_increment(x[p], self._seg_exp[idx[p]], self._seg_scale[idx[p]])
            for k in np.flatnonzero(self._seg_kind == _TABULATED).tolist():
                p = np.flatnonzero(idx == k)
                out[p] = self.segments[k].increment_to(t[p])
        return out

    def eval(self, t):
        """Left-continuous value g(t); accepts scalars or arrays."""
        arr = np.asarray(t, dtype=float)
        flat = arr.reshape(-1)
        idx = self._segment_index(self._check_domain(flat))
        jumps_before = self._jump_cum[np.searchsorted(self._jump_at, flat, side="left")]
        out = self.anchor + (self._cum_inc[idx] + self._increments(idx, flat)) + jumps_before
        return float(out[0]) if np.isscalar(t) else out.reshape(arr.shape)

    def eval_right(self, t):
        """Right limit g(t+); equals ``eval(t) + delta`` at a jump, ``eval(t)`` otherwise."""
        arr = np.asarray(t, dtype=float)
        base = self.eval(arr)
        if self._jump_at.size:
            base = base + self._jump_delta_padded[self._jump_index(arr)]
        return float(base) if np.isscalar(t) else base

    def jump_index(self, times) -> np.ndarray:
        """Index into ``jumps`` of the jump at each time, -1 where g is continuous."""
        ts = np.asarray(times, dtype=float)
        self._check_domain(ts)
        return self._jump_index(ts)

    def _jump_index(self, ts: np.ndarray) -> np.ndarray:
        pos = self._jump_at.searchsorted(ts)
        return np.where(self._jump_at_padded[pos] == ts, pos, -1)

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
        if lo == hi:
            return 0.0
        pos = neg = 0.0
        for seg in self.segments:
            c, d = max(lo, seg.lo), min(hi, seg.hi)
            if c >= d:
                continue
            inc = float(seg.increment_to(d) - seg.increment_to(c))
            if inc > 0:
                pos += inc
            else:
                neg += -inc
        if self._jump_at.size:
            sel = (self._jump_at >= lo) & (self._jump_at < hi)
            deltas = self._jump_delta[sel]
            pos += float(np.sum(deltas[deltas > 0]))
            neg += float(-np.sum(deltas[deltas < 0]))
        return pos if kind == POSITIVE else neg if kind == NEGATIVE else pos + neg

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
        code = int(self.classify(t))
        if code == JUMP_POINT:
            return ("jump", float(self._jump_delta_padded[self._jump_index(t)]))
        return _POINT_KINDS[code]

    def segments_adjacent(self, t: float) -> tuple[int | None, int | None]:
        """Indices of the segments just left and just right of t (None at a or b)."""
        t = float(t)
        self._check_domain(np.asarray(t))
        left = int(np.searchsorted(self._seg_lo, t, side="left")) - 1
        right = int(np.searchsorted(self._seg_lo, t, side="right")) - 1
        return (left if left >= 0 and t <= self._seg_hi[left] else None,
                right if right >= 0 and t < self._seg_hi[right] else None)

    # ----------------------------------------------------------------- extras

    def breakpoints(self) -> tuple[float, ...]:
        """Segment boundaries plus tabulated knots; natural grid refinement points."""
        return tuple(self._breakpoints().tolist())

    def _breakpoints(self) -> np.ndarray:  # knots lie strictly inside their segments
        return np.sort(np.concatenate([self._seg_lo, [self.b], self._knots]))

    def __repr__(self):
        return (
            f"Derivator([{self.a}, {self.b}], {len(self.segments)} segments, "
            f"{len(self.jumps)} jumps, anchor={self.anchor})"
        )
