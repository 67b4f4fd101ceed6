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
point class per segment, prefix sums of the totals, of the rising totals and
of minus the falling totals, and prefix sums of the signed, positive and
negative jumps. ``eval`` and ``variation_cumulative`` read a prefix at each
point's owning segment and add that segment's own increment; the runs behind
``structural_sets``, ``run_boundaries`` and ``classify`` are cut from the
class column. ``variation(lo, hi)`` still sums the segments it meets.

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
    return np.concatenate([[0.0], np.cumsum(values)])


def _groups(labels: np.ndarray):
    """Yield (label, positions) per distinct label of an int array, labels ascending.

    Positions ascend within each group: they are contiguous slices of a
    stable argsort, so a per-label computation runs once on its points in
    input order, whatever the number of labels.
    """
    if labels.size == 0:
        return
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    cuts = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [ordered.size]):
        yield int(ordered[lo]), order[lo:hi]


@dataclass(frozen=True)
class LinearProfile:
    """Affine growth with constant slope; the workhorse profile."""

    slope: float
    kind: str = field(default="linear", init=False)

    def increment(self, lo: float, hi: float, t):
        return self.slope * (np.asarray(t, dtype=float) - lo)

    def density(self, lo: float, hi: float, t):
        return np.full_like(np.asarray(t, dtype=float), self.slope)

    def _chart(self, lo: float, f, edges: np.ndarray):
        return (lambda t: np.asarray(f(t), dtype=float) * self.slope), edges, 1.0

    def inferred_direction(self) -> str:
        if self.slope > 0:
            return NONDECREASING
        if self.slope < 0:
            return NONINCREASING
        return CONSTANT


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
        return self.scale * (np.asarray(t, dtype=float) - lo) ** self.exponent

    def density(self, lo: float, hi: float, t):
        t = np.asarray(t, dtype=float)
        return self.scale * self.exponent * (t - lo) ** (self.exponent - 1.0)

    def _chart(self, lo: float, f, edges: np.ndarray):
        if self.exponent >= 1.0:
            return (lambda t: np.asarray(f(t), dtype=float) * self.density(lo, None, t),
                    edges, 1.0)
        # substitute u = (t - lo)**exponent: the density singularity at lo cancels
        inv = 1.0 / self.exponent
        return (lambda u: f(lo + np.maximum(u, 0.0) ** inv),
                (edges - lo) ** self.exponent, self.scale)

    def inferred_direction(self) -> str:
        if self.scale > 0:
            return NONDECREASING
        if self.scale < 0:
            return NONINCREASING
        return CONSTANT


@dataclass(frozen=True)
class ConstantProfile:
    """No continuous growth at all."""

    kind: str = field(default="constant", init=False)

    def increment(self, lo: float, hi: float, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def density(self, lo: float, hi: float, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def _chart(self, lo: float, f, edges: np.ndarray):
        return f, edges, 0.0

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

    def _arrays(self):
        xs = np.array([p[0] for p in self.points])
        ys = np.array([p[1] for p in self.points])
        return xs, ys

    def increment(self, lo: float, hi: float, t):
        xs, ys = self._arrays()
        # np.interp extends constantly outside the sample range already
        return np.interp(np.asarray(t, dtype=float), xs, ys) - ys[0]

    def density(self, lo: float, hi: float, t):
        raise DomainError("tabulated profiles expose no density; integrate per knot cell")

    def _chart(self, lo: float, f, edges: np.ndarray):
        # edges cut at every knot, so the profile is linear on each cell and
        # the measure there is the cell slope times dt
        return f, edges, np.diff(self.increment(lo, None, edges)) / np.diff(edges)

    def inferred_direction(self) -> str:
        _, ys = self._arrays()
        d = np.diff(ys)
        if np.all(d >= 0):
            return CONSTANT if np.all(d == 0) else NONDECREASING
        if np.all(d <= 0):
            return NONINCREASING
        raise DomainError("tabulated samples are not monotone")


#: Each profile's ``_chart(lo, f, edges)`` is its integration rule: it returns
#: ``(integrand, u_edges, weight)`` such that, over cell i of ``edges`` in a
#: segment starting at ``lo``, the integral of f against the profile's growth
#: is ``weight[i]`` (or the scalar ``weight``) times the plain integral of
#: ``integrand`` over ``[u_edges[i], u_edges[i + 1]]``.
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
        if isinstance(self.profile, TabulatedProfile):
            xs = [p[0] for p in self.profile.points]
            if xs[0] <= self.lo or xs[-1] >= self.hi:
                raise DomainError(
                    f"tabulated samples must lie strictly inside ({self.lo}, {self.hi})"
                )

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

    def interior_knots(self) -> list[float]:
        """Abscissae where the profile's slope may kink (tabulated samples)."""
        if isinstance(self.profile, TabulatedProfile):
            return [p[0] for p in self.profile.points]
        return []


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
                raise DomainError(
                    f"segments must tile without gaps: {left.hi} != {right.lo}"
                )
        jmps = tuple(sorted((Jump(float(j.at), float(j.delta)) for j in jumps), key=lambda j: j.at))
        ats = [j.at for j in jmps]
        if len(set(ats)) != len(ats):
            raise DomainError("duplicate jump locations")
        boundaries = {s.lo for s in segs}
        for j in jmps:
            if not (a <= j.at < b):
                raise DomainError(f"jump at {j.at} outside [{a}, {b})")
            if j.at not in boundaries:
                raise DomainError(
                    f"jump at {j.at} is not a segment boundary; split the segment there"
                )

        self.interval = (a, b)
        self.segments = segs
        self.jumps = jmps
        self.anchor = float(anchor)

        # the segment table: per-segment columns and their prefix sums
        self._seg_lo = np.array([s.lo for s in segs])
        self._seg_hi = np.array([s.hi for s in segs])
        self._seg_class = np.array([_RUN_CLASS[s.direction] for s in segs])
        totals = np.array([s.total_increment for s in segs])
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
        self._jump_at_padded = np.append(self._jump_at, np.nan)
        self._jump_delta_padded = np.append(self._jump_delta, 0.0)
        # a run starts at segment 0, at a class change and at a jump
        starts = np.ones(len(segs), dtype=bool)
        starts[1:] = self._seg_class[1:] != self._seg_class[:-1]
        starts[np.searchsorted(self._seg_lo, self._jump_at)] = True
        self._run_lo = self._seg_lo[starts]
        self._run_hi = self._seg_hi[np.append(starts[1:], True)]
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
        cuts = [a] + [at for at, _ in jmps if a < at < b] + [b]
        cuts = sorted(set(cuts))
        segs = [Segment(lo, hi, LinearProfile(1.0)) for lo, hi in zip(cuts, cuts[1:])]
        return cls((a, b), segs, [Jump(at, d) for at, d in jmps], anchor=a)

    @classmethod
    def constant(cls, a: float, b: float, level: float = 0.0) -> "Derivator":
        return cls((a, b), [Segment(a, b, ConstantProfile())], anchor=level)

    def _check_domain(self, t: np.ndarray):
        a, b = self.interval
        inside = (t >= a) & (t <= b)  # False for NaN, unlike t < a or t > b
        if not np.all(inside):
            raise DomainError(f"time {float(np.ravel(t[~inside])[0])} outside [{a}, {b}]")

    def segment_index(self, t):
        """Index of the segment owning t; boundaries belong to the left segment."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self._seg_lo, t, side="left") - 1
        return np.clip(idx, 0, len(self.segments) - 1)

    def _locate(self, flat: np.ndarray):
        """Owning segment of each time in a flat array and the increment from
        that segment's lo; raises DomainError for times outside [a, b]."""
        self._check_domain(flat)
        idx = self.segment_index(flat)
        if flat.size == 1:
            return idx, self.segments[int(idx[0])].increment_to(flat)
        inc = np.empty_like(flat)
        for k, sel in _groups(idx):
            inc[sel] = self.segments[k].increment_to(flat[sel])
        return idx, inc

    def eval(self, t):
        """Left-continuous value g(t); accepts scalars or arrays."""
        arr = np.asarray(t, dtype=float)
        flat = arr.reshape(-1)
        idx, inc = self._locate(flat)
        jumps_before = self._jump_cum[np.searchsorted(self._jump_at, flat, side="left")]
        out = self.anchor + (self._cum_inc[idx] + inc) + jumps_before
        return float(out[0]) if np.isscalar(t) else out.reshape(arr.shape)

    def eval_right(self, t):
        """Right limit g(t+); equals ``eval(t) + delta`` at a jump, ``eval(t)`` otherwise."""
        arr = np.asarray(t, dtype=float)
        base = self.eval(arr)
        if self._jump_at.size:
            base = base + self.deltas_on(arr)
        return float(base) if np.isscalar(t) else base

    def jump_index(self, times) -> np.ndarray:
        """Index into ``jumps`` of the jump at each time, -1 where g is continuous."""
        ts = np.asarray(times, dtype=float)
        pos = self._jump_at.searchsorted(ts)
        return np.where(self._jump_at_padded[pos] == ts, pos, -1)

    def deltas_on(self, times) -> np.ndarray:
        """Jump mass at each time, 0.0 where g is continuous."""
        return self._jump_delta_padded[self.jump_index(times)]

    def delta_at(self, t: float) -> float:
        """Jump mass at t, 0.0 when g is continuous there."""
        return float(self.deltas_on(t))

    # -------------------------------------------------------------- variation

    def variation(self, lo: float, hi: float, kind: str = TOTAL) -> float:
        """Variation of g over [lo, hi), split by kind (total/positive/negative)."""
        lo, hi = float(lo), float(hi)
        a, b = self.interval
        if not (a <= lo <= hi <= b):
            raise DomainError(f"[{lo}, {hi}) not inside [{a}, {b}]")
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
        if kind == POSITIVE:
            return pos
        if kind == NEGATIVE:
            return neg
        return pos + neg

    def variation_cumulative(self, times, kind: str = TOTAL) -> np.ndarray:
        """Vectorized ``variation(a, t, kind)``: the class prefix before t's
        segment, that segment's increment up to t when it has the class, and
        the jumps strictly left of t."""
        ts = np.asarray(times, dtype=float)
        flat = ts.reshape(-1)
        idx, inc = self._locate(flat)
        cls = self._seg_class[idx]
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
        return np.where(self.jump_index(ts) >= 0, JUMP_POINT, codes)

    def classify_point(self, t: float) -> tuple[str, object]:
        """Where t sits for derivative purposes.

        Returns one of
        ``("jump", delta)``, ``("interior", run_direction)`` for points strictly
        inside a rising/falling run, or ``("excluded", reason)`` for run
        boundaries and anything in the closure of a constancy interval.
        """
        code = int(self.classify(t))
        if code == JUMP_POINT:
            return ("jump", self.delta_at(t))
        return _POINT_KINDS[code]

    def segments_adjacent(self, t: float) -> tuple[int | None, int | None]:
        """Indices of the segments just left and just right of t (None at a or b)."""
        t = float(t)
        left = int(np.searchsorted(self._seg_lo, t, side="left")) - 1
        right = int(np.searchsorted(self._seg_lo, t, side="right")) - 1
        return (left if left >= 0 and t <= self._seg_hi[left] else None,
                right if right >= 0 and t < self._seg_hi[right] else None)

    # ----------------------------------------------------------------- extras

    def breakpoints(self) -> tuple[float, ...]:
        """Segment boundaries plus tabulated knots; natural grid refinement points."""
        pts = {self.a, self.b}
        for seg in self.segments:
            pts.add(seg.lo)
            pts.add(seg.hi)
            pts.update(seg.interior_knots())
        return tuple(sorted(pts))

    def __repr__(self):
        return (
            f"Derivator([{self.a}, {self.b}], {len(self.segments)} segments, "
            f"{len(self.jumps)} jumps, anchor={self.anchor})"
        )
