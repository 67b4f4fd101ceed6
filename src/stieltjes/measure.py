"""Lebesgue-Stieltjes measures built from a derivator.

A derivator g induces a signed measure (mass ``g(hi) - g(lo)`` on ``[lo, hi)``
plus an atom of mass ``delta`` at each jump), its positive and negative parts,
and the total-variation measure. The four are exposed through one class with a
``signature`` switch so that integration and interval masses stay consistent
with the variation arithmetic of :class:`~stieltjes.derivator.Derivator`.

Integration splits into a continuous part and an atomic part:

* smooth profiles integrate ``f(t) * density(t)`` with adaptive Gauss-Kronrod
  panels (power profiles with exponent < 1 are first substituted so the
  density singularity disappears);
* tabulated profiles have no usable density and are integrated by refined
  midpoint Riemann-Stieltjes sums with one Richardson acceleration step;
* each jump in ``[lo, hi)`` contributes ``f(at)`` times its (signed, clipped,
  or absolute) mass, with f taken at its left value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import quadrature
from .derivator import (
    CONSTANT,
    NEGATIVE,
    NONDECREASING,
    NONINCREASING,
    POSITIVE,
    Derivator,
    PowerProfile,
    Segment,
    TabulatedProfile,
    TOTAL,
)
from .errors import DomainError, QuadratureError

SIGNED = "signed"
POSITIVE_PART = "positive_part"
NEGATIVE_PART = "negative_part"
TOTAL_VARIATION = "total_variation"

_SIGNATURES = (SIGNED, POSITIVE_PART, NEGATIVE_PART, TOTAL_VARIATION)


class Integrand:
    """A real function of time that can be evaluated on numpy arrays.

    Wraps closures, polynomials (coefficients in increasing degree), tabulated
    interpolants and piecewise polynomials under one call interface. Closures
    that cannot handle arrays are wrapped with :func:`numpy.vectorize` on
    first use.
    """

    def __init__(self, fn: Callable, kind: str = "closure", vectorized: bool | None = None):
        self._fn = fn
        self.kind = kind
        self._vectorized = vectorized

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        if self._vectorized is None:
            # a scalar probe cannot tell a vectorized closure from a scalar one
            sample = np.atleast_1d(arr)
            try:
                probe = np.asarray(self._fn(sample), dtype=float)
                if probe.shape != sample.shape:
                    raise ValueError
                self._vectorized = True
            except Exception:
                self._fn = np.vectorize(self._fn, otypes=[float])
                self._vectorized = True
        out = np.asarray(self._fn(arr), dtype=float)
        return float(out) if np.isscalar(t) else out

    @classmethod
    def from_callable(cls, fn: Callable) -> "Integrand":
        return cls(fn, kind="closure")

    @classmethod
    def constant(cls, value: float) -> "Integrand":
        value = float(value)
        return cls(lambda t: np.full_like(np.asarray(t, dtype=float), value),
                   kind="closure", vectorized=True)

    @classmethod
    def polynomial(cls, coeffs: Sequence[float]) -> "Integrand":
        c = np.asarray(coeffs, dtype=float)
        return cls(lambda t: np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), c),
                   kind="piecewise_poly", vectorized=True)

    @classmethod
    def piecewise_polynomial(cls, breakpoints: Sequence[float],
                             coefficient_rows: Sequence[Sequence[float]]) -> "Integrand":
        """Polynomial pieces on [b0,b1), [b1,b2), ...; right-closed at the last break."""
        bks = np.asarray(breakpoints, dtype=float)
        if len(bks) != len(coefficient_rows) + 1:
            raise DomainError("need exactly one more breakpoint than coefficient row")
        rows = [np.asarray(r, dtype=float) for r in coefficient_rows]

        def evaluate(t):
            t = np.asarray(t, dtype=float)
            idx = np.clip(np.searchsorted(bks, t, side="right") - 1, 0, len(rows) - 1)
            out = np.empty_like(t)
            for k, row in enumerate(rows):
                m = idx == k
                if np.any(m):
                    out[m] = np.polynomial.polynomial.polyval(t[m], row)
            return out

        return cls(evaluate, kind="piecewise_poly", vectorized=True)

    @classmethod
    def tabulated(cls, points: Sequence[tuple[float, float]]) -> "Integrand":
        xs = np.asarray([p[0] for p in points], dtype=float)
        ys = np.asarray([p[1] for p in points], dtype=float)
        if np.any(np.diff(xs) <= 0):
            raise DomainError("tabulated integrand abscissae must be strictly increasing")
        return cls(lambda t: np.interp(np.asarray(t, dtype=float), xs, ys),
                   kind="tabulated", vectorized=True)


@dataclass(frozen=True)
class HahnRow:
    """One interval's worth of evidence that the sign decomposition is consistent."""

    interval: tuple[float, float]
    positive_direct: float
    positive_from_signed: float
    negative_direct: float
    negative_from_signed: float
    residual: float
    passed: bool


class StieltjesMeasure:
    """One of the four measures induced by a derivator, chosen by ``signature``."""

    def __init__(self, derivator: Derivator, signature: str = SIGNED):
        if signature not in _SIGNATURES:
            raise DomainError(f"unknown signature {signature!r}; pick one of {_SIGNATURES}")
        self.derivator = derivator
        self.signature = signature

    # ----------------------------------------------------------- point masses

    def interval(self, lo: float, hi: float, closed_left_open_right: bool = True) -> float:
        """Mass of [lo, hi); other interval shapes are not supported."""
        if not closed_left_open_right:
            raise DomainError("only closed-left open-right intervals are supported")
        lo, hi = float(lo), float(hi)
        d = self.derivator
        a, b = d.interval
        if not (a <= lo <= hi <= b):
            raise DomainError(f"[{lo}, {hi}) not inside [{a}, {b}]")
        if self.signature == SIGNED:
            return float(d.eval(hi) - d.eval(lo))
        kind = {POSITIVE_PART: POSITIVE, NEGATIVE_PART: NEGATIVE,
                TOTAL_VARIATION: TOTAL}[self.signature]
        return d.variation(lo, hi, kind)

    def point(self, t: float) -> float:
        """Mass of the singleton {t}; nonzero only at jumps."""
        t = float(t)
        d = self.derivator
        a, b = d.interval
        if not (a <= t < b):
            raise DomainError(f"point {t} not inside [{a}, {b})")
        delta = d.delta_at(t)
        if self.signature == SIGNED:
            return delta
        if self.signature == POSITIVE_PART:
            return max(delta, 0.0)
        if self.signature == NEGATIVE_PART:
            return max(-delta, 0.0)
        return abs(delta)

    def _jump_weight(self, delta: float) -> float:
        if self.signature == SIGNED:
            return delta
        if self.signature == POSITIVE_PART:
            return max(delta, 0.0)
        if self.signature == NEGATIVE_PART:
            return max(-delta, 0.0)
        return abs(delta)

    def _segment_weight(self, seg: Segment) -> float:
        """Sign applied to the segment's density under this signature (0 skips)."""
        if seg.direction == CONSTANT:
            return 0.0
        rising = seg.direction == NONDECREASING
        if self.signature == SIGNED:
            return 1.0
        if self.signature == POSITIVE_PART:
            return 1.0 if rising else 0.0
        if self.signature == NEGATIVE_PART:
            return 0.0 if rising else -1.0
        return 1.0 if rising else -1.0

    # ------------------------------------------------------------ integration

    def integrate(self, f: Integrand | Callable, lo: float, hi: float,
                  rel_tol: float = 1e-10) -> float:
        """Integral of f over [lo, hi) against this measure."""
        return (self._integrate_continuous(f, lo, hi, rel_tol)
                + self._integrate_atoms(f, lo, hi))

    def _integrate_atoms(self, f: Integrand | Callable, lo: float, hi: float) -> float:
        f = _as_integrand(f)
        d = self.derivator
        out = 0.0
        for j in d.jumps:
            if lo <= j.at < hi:
                w = self._jump_weight(j.delta)
                if w != 0.0:
                    out += float(f(j.at)) * w
        return out

    def _integrate_continuous(self, f: Integrand | Callable, lo: float, hi: float,
                              rel_tol: float = 1e-10) -> float:
        f = _as_integrand(f)
        lo, hi = float(lo), float(hi)
        d = self.derivator
        a, b = d.interval
        if not (a <= lo <= hi <= b):
            raise DomainError(f"[{lo}, {hi}) not inside [{a}, {b}]")
        total = 0.0
        for seg in d.segments:
            c, dd = max(lo, seg.lo), min(hi, seg.hi)
            if c >= dd:
                continue
            w = self._segment_weight(seg)
            if w == 0.0:
                continue
            total += w * _segment_integral(f, seg, c, dd, rel_tol)
        return total

    # ------------------------------------------------------------ diagnostics

    def hahn_check(self, intervals: Sequence[tuple[float, float]],
                   tol: float = 1e-10) -> list[HahnRow]:
        """Check the sign decomposition against the structural sets.

        For each [lo, hi): the positive part must equal the signed mass of the
        interval intersected with the rising runs and upward jumps, and the
        negative part must equal minus the signed mass over the falling runs
        and downward jumps.
        """
        d = self.derivator
        signed = StieltjesMeasure(d, SIGNED)
        sets = d.structural_sets()
        rows = []
        for lo, hi in intervals:
            lo, hi = float(lo), float(hi)
            plus_direct = d.variation(lo, hi, POSITIVE)
            minus_direct = d.variation(lo, hi, NEGATIVE)
            plus_signed = _signed_mass_over(signed, sets.rising, sets.jumps_up, lo, hi)
            minus_signed = -_signed_mass_over(signed, sets.falling, sets.jumps_down, lo, hi)
            residual = max(abs(plus_direct - plus_signed), abs(minus_direct - minus_signed))
            rows.append(HahnRow(
                interval=(lo, hi),
                positive_direct=plus_direct,
                positive_from_signed=plus_signed,
                negative_direct=minus_direct,
                negative_from_signed=minus_signed,
                residual=residual,
                passed=bool(residual < tol),
            ))
        return rows


def _signed_mass_over(signed: StieltjesMeasure, open_intervals, jump_points,
                      lo: float, hi: float) -> float:
    """Signed mass of [lo, hi) intersected with a union of open intervals and points."""
    d = signed.derivator
    out = 0.0
    for alpha, beta in open_intervals:
        c = max(lo, alpha)
        e = min(hi, beta)
        if c >= e:
            continue
        upper = float(d.eval(e))
        # the left end is open when the open interval binds (alpha >= lo), which
        # excludes any jump sitting at alpha; otherwise [lo, ...) keeps the left value
        lower = float(d.eval_right(c)) if alpha >= lo else float(d.eval(c))
        out += upper - lower
    for p in jump_points:
        if lo <= p < hi:
            out += d.delta_at(p)
    return out


def _as_integrand(f) -> Integrand:
    return f if isinstance(f, Integrand) else Integrand.from_callable(f)


def _segment_integral(f: Integrand, seg: Segment, lo: float, hi: float,
                      rel_tol: float) -> float:
    """Continuous integral of f against the segment's own growth over [lo, hi]."""
    profile = seg.profile
    if isinstance(profile, TabulatedProfile):
        return _tabulated_integral(f, seg, lo, hi, rel_tol)
    if isinstance(profile, PowerProfile) and profile.exponent < 1.0:
        # substitute u = (t - seg.lo)**exponent; the density singularity cancels
        p = profile.exponent
        s = profile.scale
        u_lo = (lo - seg.lo) ** p
        u_hi = (hi - seg.lo) ** p
        inv = 1.0 / p

        def transformed(u):
            u = np.maximum(np.asarray(u, dtype=float), 0.0)
            return f(seg.lo + u ** inv)

        return s * quadrature.integrate_adaptive(transformed, u_lo, u_hi, rel_tol)

    def weighted(t):
        return np.asarray(f(t), dtype=float) * np.asarray(seg.density_at(t), dtype=float)

    return quadrature.integrate_adaptive(weighted, lo, hi, rel_tol)


def _tabulated_integral(f: Integrand, seg: Segment, lo: float, hi: float,
                        rel_tol: float, max_levels: int = 22) -> float:
    """Refined midpoint Riemann-Stieltjes sums with one Richardson step.

    The profile is piecewise linear, so the midpoint sum converges at O(h^2)
    and its Richardson pair at O(h^4); refinement doubles until the
    accelerated value stabilizes to ``rel_tol``.
    """
    knots = np.asarray([seg.lo, *seg.interior_knots(), seg.hi])
    knots = knots[(knots > lo) & (knots < hi)]
    base = np.unique(np.concatenate([[lo], knots, [hi]]))

    def midpoint_sum(pieces_per_gap: int) -> float:
        edges = np.unique(np.concatenate([
            np.linspace(base[i], base[i + 1], pieces_per_gap + 1)
            for i in range(len(base) - 1)
        ]))
        g_edges = seg.increment_to(edges)
        mids = 0.5 * (edges[:-1] + edges[1:])
        return float(np.dot(f(mids), np.diff(g_edges)))

    n = 8
    prev = midpoint_sum(n)
    prev_rich = None
    for _ in range(max_levels):
        n *= 2
        cur = midpoint_sum(n)
        rich = (4.0 * cur - prev) / 3.0
        if prev_rich is not None and abs(rich - prev_rich) <= rel_tol * max(abs(rich), 1e-15):
            return rich
        prev, prev_rich = cur, rich
    raise QuadratureError(
        f"Riemann-Stieltjes refinement stalled on [{lo}, {hi}]",
        estimate=prev_rich if prev_rich is not None else prev,
        error_estimate=abs(rich - prev_rich) if prev_rich is not None else float("inf"),
    )


# ---------------------------------------------------------------- module API


def measure_of_interval(m: StieltjesMeasure, lo: float, hi: float,
                        closed_left_open_right: bool = True) -> float:
    return m.interval(lo, hi, closed_left_open_right)


def measure_of_point(m: StieltjesMeasure, t: float) -> float:
    return m.point(t)


def integrate(m: StieltjesMeasure, f, lo: float, hi: float, rel_tol: float = 1e-10) -> float:
    return m.integrate(f, lo, hi, rel_tol)


def hahn_check(m: StieltjesMeasure, intervals, tol: float = 1e-10) -> list[HahnRow]:
    return m.hahn_check(intervals, tol)
