"""Lebesgue-Stieltjes measures built from a derivator.

A derivator g induces a signed measure (mass ``g(hi) - g(lo)`` on ``[lo, hi)``
plus an atom of mass ``delta`` at each jump), its positive and negative parts,
and the total-variation measure. The four are exposed through one class with a
``signature`` switch so that integration and interval masses stay consistent
with the variation arithmetic of :class:`~stieltjes.derivator.Derivator`.

Integration splits into a continuous part and an atomic part:

* on each segment the integral against g is an ordinary integral in the
  profile's own chart: ``f(t) * density(t) dt`` on linear segments and on
  power segments with exponent p >= 1, ``scale * f(lo + u**(1/p)) du`` with
  ``u = (t - lo)**p`` when p < 1 (the density singularity disappears), and
  the cell slope times ``f(t) dt`` on each knot cell of a tabulated segment,
  one row of the derivator's table (flat cells contribute nothing);
* every segment is cut at the integrand's own kinks (the breaks of tabulated
  and piecewise integrands) before adaptive Gauss-Kronrod quadrature runs on
  each piece; the grid routines of :mod:`~stieltjes.calculus` use the same
  charts and cuts with one fixed panel per piece of a grid cell;
* each jump in ``[lo, hi)`` contributes ``f(at)`` times its (signed, clipped,
  or absolute) mass, with f taken at its left value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import quadrature
from .derivator import CONSTANCY_POINT, RISING_POINT, Derivator, _chart
from .errors import DomainError, QuadratureError

SIGNED = "signed"
POSITIVE_PART = "positive_part"
NEGATIVE_PART = "negative_part"
TOTAL_VARIATION = "total_variation"

# the Jordan split, one row per signature: the factor on rising/upward signed
# mass and the factor on falling/downward signed mass
_SIGN_FACTORS = {
    SIGNED: (1.0, 1.0),
    POSITIVE_PART: (1.0, 0.0),
    NEGATIVE_PART: (0.0, -1.0),
    TOTAL_VARIATION: (1.0, -1.0),
}


_ZERO = np.float64(0.0)


def _horner(c, t):
    """Sum of ``c[i] * t**i`` in polyval's order; with np.float64 coefficients
    a float t gets the bits and the float warnings of an array."""
    out = c[-1] + t * _ZERO
    for ci in c[-2::-1]:
        out = ci + out * t
    return out


class Integrand:
    """A real function of time that can be evaluated on numpy arrays.

    Wraps closures, polynomials (coefficients in increasing degree), tabulated
    interpolants and piecewise polynomials under one call interface; the
    constructors differ only in the function and kinks they record. A library
    kind's function takes a float or an array and marks itself vectorized: a
    float goes to it as is and comes back a Python float with a one-point
    array's bits. Closures see arrays; those that cannot handle them, found at
    the first call, are wrapped with :func:`numpy.vectorize`.
    """

    def __init__(self, fn: Callable):
        self._fn = fn
        self._vectorized = self._takes_floats = False  # set by library kinds; closures probe once
        # abscissae where the function may kink or jump, known for tables and pieces
        self._kinks = np.empty(0)

    def __call__(self, t):
        if type(t) is float and self._takes_floats:
            return float(self._fn(t))
        arr = np.asarray(t, dtype=float)
        if arr.ndim > 1:  # the function sees one flat array, whatever the shape of t
            return self(arr.reshape(-1)).reshape(arr.shape)
        out = None
        if not self._vectorized:
            # a scalar probe cannot tell a vectorized closure from a scalar one;
            # on a 1-d array the probe is the call itself, and its result is kept
            sample = np.atleast_1d(arr)
            try:
                probe = np.asarray(self._fn(sample), dtype=float)
                if probe.shape != sample.shape:
                    raise ValueError
                out = probe if sample is arr else None
            except Exception:
                self._fn = np.vectorize(self._fn, otypes=[float])
            self._vectorized = True
        if out is None:
            out = np.asarray(self._fn(arr), dtype=float)
        return float(out) if np.isscalar(t) else out

    @classmethod
    def _library(cls, fn: Callable, kinks=()) -> "Integrand":  # fn takes a float or an array
        out = cls(fn)
        out._vectorized, out._takes_floats, out._kinks = True, True, np.asarray(kinks, dtype=float)
        return out

    @classmethod
    def from_callable(cls, fn: Callable) -> "Integrand":
        return cls(fn)

    @classmethod
    def constant(cls, value: float) -> "Integrand":
        value = float(value)
        return cls._library(lambda t: value if type(t) is float else np.full_like(t, value))

    @classmethod
    def polynomial(cls, coeffs: Sequence[float]) -> "Integrand":
        c = tuple(np.array(coeffs, dtype=float, ndmin=1))
        if not c:
            raise DomainError("polynomial integrand needs at least one coefficient")
        return cls._library(lambda t: _horner(c, t))

    @classmethod
    def piecewise_polynomial(cls, breakpoints: Sequence[float],
                             coefficient_rows: Sequence[Sequence[float]]) -> "Integrand":
        """Polynomial pieces on [b0,b1), [b1,b2), ...; right-closed at the last break."""
        bks = np.asarray(breakpoints, dtype=float)
        if len(bks) != len(coefficient_rows) + 1:
            raise DomainError("need exactly one more breakpoint than coefficient row")
        rows = [tuple(np.array(r, dtype=float, ndmin=1)) for r in coefficient_rows]
        if not rows or not all(rows):
            raise DomainError("piecewise polynomial needs at least one piece, "
                              "each with at least one coefficient")
        if np.any(np.diff(bks) <= 0):
            raise DomainError("piecewise polynomial breakpoints must be strictly increasing")

        def evaluate(t):
            idx = bks[1:-1].searchsorted(t, side="right")  # the piece, the first or last outside
            if type(t) is float:
                return _horner(rows[idx], t)
            out = np.empty_like(t)
            for k, row in enumerate(rows):
                m = idx == k
                if np.any(m):
                    out[m] = _horner(row, t[m])
            return out

        return cls._library(evaluate, bks)

    @classmethod
    def tabulated(cls, points: Sequence[tuple[float, float]]) -> "Integrand":
        xs = np.asarray([p[0] for p in points], dtype=float)
        ys = np.asarray([p[1] for p in points], dtype=float)
        if xs.size == 0:
            raise DomainError("tabulated integrand needs at least one point")
        if np.any(np.diff(xs) <= 0):
            raise DomainError("tabulated integrand abscissae must be strictly increasing")
        return cls._library(lambda t: np.interp(t, xs, ys), xs)


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
        if signature not in _SIGN_FACTORS:
            raise DomainError(f"unknown signature {signature!r}; "
                              f"pick one of {tuple(_SIGN_FACTORS)}")
        self.derivator = derivator
        self.signature = signature

    # ----------------------------------------------------------- point masses

    def interval(self, lo: float, hi: float) -> float:
        """Mass of the half-open interval [lo, hi): a jump at lo counts, one at hi does not."""
        d = self.derivator
        lo, hi = d._span(lo, hi)
        if self.signature == SIGNED:
            return float(d.eval(hi) - d.eval(lo))
        parts = (POSITIVE_PART, NEGATIVE_PART, TOTAL_VARIATION)  # the order of _variations
        return d._variations(lo, hi)[parts.index(self.signature)]

    def point(self, t: float) -> float:
        """Mass of the singleton {t}; nonzero only at jumps."""
        t = float(t)
        d = self.derivator
        a, b = d.interval
        if not (a <= t < b):
            raise DomainError(f"point {t} not inside [{a}, {b})")
        return self._jump_weight(d.delta_at(t))

    def _jump_weight(self, delta: float) -> float:
        up, down = _SIGN_FACTORS[self.signature]
        return up * max(delta, 0.0) + down * min(delta, 0.0)

    def _segment_weight(self, point_class: int) -> float:
        """Sign applied to a segment's density from its point class (0 skips)."""
        if point_class == CONSTANCY_POINT:
            return 0.0
        up, down = _SIGN_FACTORS[self.signature]
        return up if point_class == RISING_POINT else down

    # ------------------------------------------------------------ integration

    def integrate(self, f: Integrand | Callable, lo: float, hi: float,
                  rel_tol: float = 1e-10) -> float:
        """Integral of f over [lo, hi) against this measure; QuadratureError if not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            value = self._integrate_continuous(f, lo, hi, rel_tol) + self._integrate_atoms(f, lo, hi)
        if not np.isfinite(value):
            raise QuadratureError(f"integral over [{lo}, {hi}) is not finite", value, np.nan)
        return value

    def _integrate_atoms(self, f: Integrand | Callable, lo: float, hi: float) -> float:
        f = _as_integrand(f)
        d = self.derivator
        out = 0.0
        for at, delta in zip(d._jump_at.tolist(), d._jump_delta.tolist()):
            if lo <= at < hi:
                w = self._jump_weight(delta)
                if w != 0.0:
                    out += float(f(at)) * w
        return out

    def _integrate_continuous(self, f: Integrand | Callable, lo: float, hi: float,
                              rel_tol: float = 1e-10) -> float:
        f = _as_integrand(f)
        d = self.derivator
        lo, hi = d._span(lo, hi)
        total = 0.0
        for k, (s_lo, s_hi) in enumerate(zip(d._seg_lo.tolist(), d._seg_hi.tolist())):
            c, dd = max(lo, s_lo), min(hi, s_hi)
            if c >= dd:
                continue
            w = self._segment_weight(d._seg_class[k])
            if w == 0.0:
                continue
            total += w * _segment_integral(f, d, k, c, dd, rel_tol)
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
            plus_direct, minus_direct, _ = d._variations(*d._span(lo, hi))
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


def _segment_integral(f: Integrand, d: Derivator, k: int, lo: float, hi: float,
                      rel_tol: float) -> float:
    """Continuous integral of f against the growth of segment k of d over [lo, hi].

    [lo, hi] is cut at the segment's rows (the knot cells of a tabulated
    profile) and at f's own kinks: a kink that falls between a panel's outer
    node and its end is invisible to the Kronrod error estimate. Each piece
    goes to adaptive Gauss-Kronrod quadrature in its row's chart
    (:func:`~stieltjes.derivator._chart`); pieces of weight zero cost nothing.
    """
    knots = np.concatenate([d._row_lo[d._row_ptr[k] + 1:d._row_ptr[k + 1]], f._kinks])
    cuts = knots[(knots > lo) & (knots < hi)]
    edges = np.unique(np.concatenate([[lo], cuts, [hi]])) if cuts.size else np.array([lo, hi])
    rows = d._row_in(k, edges[:-1])
    # pieces in one row take its parameters as floats
    params = (c[rows] if rows[0] != rows[-1] else float(c[rows[0]])
              for c in (d._row_lo, d._row_slope, d._row_exp, d._row_scale))
    integrand, u_los, u_his, weight = _chart(int(d._row_kind[rows[0]]), f, edges[:-1], edges[1:],
                                             *params)
    weights = weight.tolist() if isinstance(weight, np.ndarray) else [weight] * len(u_los)
    total = 0.0
    for c, e, w in zip(u_los.tolist(), u_his.tolist(), weights):
        if w != 0.0:
            total += w * quadrature.integrate_adaptive(integrand, c, e, rel_tol)
    return total


# ---------------------------------------------------------------- module API


def measure_of_interval(m: StieltjesMeasure, lo: float, hi: float) -> float:
    """Mass of the half-open interval [lo, hi) under m."""
    return m.interval(lo, hi)


def measure_of_point(m: StieltjesMeasure, t: float) -> float:
    return m.point(t)


def integrate(m: StieltjesMeasure, f, lo: float, hi: float, rel_tol: float = 1e-10) -> float:
    return m.integrate(f, lo, hi, rel_tol)


def hahn_check(m: StieltjesMeasure, intervals, tol: float = 1e-10) -> list[HahnRow]:
    return m.hahn_check(intervals, tol)
