"""Derivatives and primitives with respect to a derivator.

The derivative of h with respect to g is the limit of difference quotients
(h(y) - h(x)) / (g(y) - g(x)). At a jump of g the limit is one-sided from the
right and the stored quotient is exact; at continuity points the quotients are
Richardson-extrapolated over shrinking brackets that never cross a segment
boundary, since a profile kink breaks the smoothness the extrapolation needs.
Points on a run boundary without a jump, or in the closure of a constancy
interval, have no derivative and are rejected.

The fundamental-theorem roundtrip takes a trajectory h, estimates its
derivative on the grid, re-integrates the estimates against the driving
measure (trapezoid Riemann-Stieltjes resummation plus exact atom terms), and
reports the worst deviation from h(t) - h(a). Atom terms cancel exactly
because the derivative at a jump is the stored exact quotient.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quadrature
from .derivator import _CONSTANT, CONSTANCY_POINT, Derivator, _chart, _pow
from .errors import ConvergenceError, DomainError, RhsEvaluationError, UndefinedPointError
from .measure import SIGNED, Integrand, StieltjesMeasure, _as_integrand

_NEVILLE_LEVELS = 24  # bracket halvings in one Neville extrapolation
_MODULUS_RUNGS = 52  # continuity-modulus radii, halving from the full variation
_PANEL_ROWS = 1024  # panels per batch; a multiple of 4 keeps BLAS's row blocks whole


@dataclass
class Trajectory:
    """A function recorded on a grid with separate left and right values.

    The grid lies in the governing derivator's interval and holds every jump
    between its ends; ``right_values`` may differ from ``left_values`` only
    there. Between grid points the record is linear, from the right value at
    the left end to the left value at the right end. Construction looks up
    the jumps on the grid once, to check it, and keeps their index and masses
    for every reader (``g_values``, ``verify_linear_solution`` and the rest);
    :meth:`_tabled` takes them from the caller instead.
    """

    grid: np.ndarray
    left_values: np.ndarray
    right_values: np.ndarray
    governing: Derivator

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.left_values = np.asarray(self.left_values, dtype=float)
        self.right_values = np.asarray(self.right_values, dtype=float)
        if self.grid.ndim != 1 or np.any(np.diff(self.grid) <= 0):
            raise DomainError("grid must be strictly increasing")
        if self.left_values.shape != self.grid.shape or self.right_values.shape != self.grid.shape:
            raise DomainError("value arrays must match the grid")
        self.governing._check_domain(self.grid)
        missing = _missing_jumps(self.governing, self.grid)
        if missing:
            raise DomainError(f"grid is missing jump times {missing}")
        self._jumps = self.governing._jump_index(self.grid)
        self._deltas = self.governing._jump_delta_padded[self._jumps]
        moved = (self.right_values != self.left_values) & (self._jumps < 0)
        if np.any(moved):
            t = self.grid[np.argmax(moved)]
            raise DomainError(f"right value differs from left at non-jump time {t}")
        self._g_left = None
        self._g_right = None

    @classmethod
    def _tabled(cls, grid, left_values, right_values, governing, jumps, deltas) -> "Trajectory":
        """The record, unchecked, of float arrays on a grid built in the interval
        with every jump, and of the grid's jump index and masses."""
        self = cls.__new__(cls)
        self.grid, self.left_values, self.right_values = grid, left_values, right_values
        self.governing, self._jumps, self._deltas = governing, jumps, deltas
        self._g_left = self._g_right = None
        return self

    # cached derivator values on the grid, from one evaluation
    def g_values(self):
        if self._g_left is None:
            self._g_left = self.governing.eval(self.grid)
            self._g_right = self._g_left + self._deltas
        return self._g_left, self._g_right

    def index_of(self, t: float) -> int:
        i = int(np.searchsorted(self.grid, t))
        if i >= len(self.grid) or self.grid[i] != t:
            raise DomainError(f"{t} is not a grid time of this trajectory")
        return i

    def value(self, t):
        """Left-continuous evaluation between grid points (vectorized)."""
        ts = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.grid, ts, side="left"), 1, len(self.grid) - 1)
        lo_t, hi_t = self.grid[idx - 1], self.grid[idx]
        on_node = ts == lo_t
        w = np.where(hi_t > lo_t, (ts - lo_t) / np.where(hi_t > lo_t, hi_t - lo_t, 1.0), 0.0)
        interp = self.right_values[idx - 1] * (1 - w) + self.left_values[idx] * w
        out = np.where(on_node, self.left_values[idx - 1], interp)
        # the first grid point only matches via on_node at idx-1 == 0
        out = np.where(ts == self.grid[-1], self.left_values[-1], out)
        return float(out) if np.isscalar(t) else out

    def value_right(self, t):
        ts = np.asarray(t, dtype=float)
        base = self.value(ts)
        exact = np.isin(ts, self.grid)
        if np.any(exact):
            idx = np.clip(np.searchsorted(self.grid, ts), 0, len(self.grid) - 1)
            base = np.where(exact, self.right_values[idx], base)
        return float(base) if np.isscalar(t) else base


def _missing_jumps(d: Derivator, grid: np.ndarray) -> list[float]:
    """Jump times of d between the first and last grid time that the grid lacks."""
    ats = d._jump_at[(grid[0] <= d._jump_at) & (d._jump_at <= grid[-1])]
    return ats[grid[grid.searchsorted(ats)] != ats].tolist()


def _raise_at_first(bad, grid, what: str, why: str = "the solution overflows") -> None:
    """RhsEvaluationError naming the first grid time where ``bad`` holds, if any."""
    if bad.any():
        raise RhsEvaluationError(f"{what} is not finite at t={float(grid[np.argmax(bad)])}; {why}")


def uniform_grid(derivator: Derivator, per_segment: int = 256) -> np.ndarray:
    """Grid with every jump, segment boundary and tabulated knot, refined per span.

    Spans lying in a power segment are graded so the increments of g come out
    equal across the span; a plain uniform refinement would load most of the
    segment's mass into the first cell when the exponent is below one (the
    density is unbounded at the segment start). Every other span refines
    uniformly.
    """
    if per_segment < 8:
        raise DomainError("per_segment must be at least 8")
    bks = derivator._breakpoints()
    u = np.linspace(0.0, 1.0, per_segment + 1)
    lo, hi = bks[:-1], bks[1:]
    spans = lo[:, None] + (hi - lo)[:, None] * u
    p = derivator._row_exp  # span i is row i; 1 off power rows
    graded = p != 1.0
    spans[graded] = lo[graded, None] + (hi - lo)[graded, None] * _pow(u, 1.0 / p[graded, None])
    # lo + (hi - lo) * 1.0 can round past hi
    spans[:, -1] = hi
    return np.unique(np.concatenate([bks, spans.ravel()]))


# ------------------------------------------------------------------ primitive


def primitive(m: StieltjesMeasure, v, grid_hint: int = 256) -> Trajectory:
    """The function h(x) = integral of v over [a, x) against m, on a grid.

    The jump increment h(t+) - h(t) equals v(t) * delta exactly by
    construction. Only the signed measure makes a primitive in the
    fundamental-theorem sense. RhsEvaluationError at the first grid time
    whose value is not finite.
    """
    if m.signature != SIGNED:
        raise DomainError("primitive requires the signed measure")
    v = _as_integrand(v)
    d = m.derivator
    grid = uniform_grid(d, grid_hint)
    jumps = d._jump_index(grid)
    deltas = d._jump_delta_padded[jumps]
    with np.errstate(over="ignore", invalid="ignore"):
        cont = _cell_integrals(d, v, grid)
        atom_vals = np.where(deltas != 0.0, np.asarray(v(grid), dtype=float) * deltas, 0.0)
        left, right = _running_sums(atom_vals, cont)
    _raise_at_first(~np.isfinite(left) | ~np.isfinite(right), grid, "primitive",
                    "the integral overflows")
    return Trajectory._tabled(grid, left, right, d, jumps, deltas)


def _running_sums(atoms: np.ndarray, cells: np.ndarray, start=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Left and right values of a grid accumulation that starts at ``start``.

    ``left[i]`` adds up ``atoms[:i]`` and ``cells[:i]``, and ``right[i]`` is
    ``left[i] + atoms[i]``. One cumsum runs over the interleaved steps
    start, atoms[0], cells[0], atoms[1], ..., so every partial sum rounds as in
    the left-to-right loop ``acc = acc + atoms[i]; acc = acc + cells[i]``.
    Arrays with columns (and a start row) are summed per column along axis 0.
    """
    steps = np.empty((2 * len(atoms),) + np.shape(atoms)[1:])
    steps[0] = start
    steps[1::2] = atoms
    steps[2::2] = cells
    sums = np.cumsum(steps, axis=0)
    return sums[0::2].copy(), sums[1::2].copy()


def _trapezoid_cells(starts: np.ndarray, ends: np.ndarray,
                     increments: np.ndarray) -> np.ndarray:
    """Trapezoid rule per grid cell: ``0.5 * (starts[k] + ends[k + 1]) * increments[k]``.

    ``starts`` holds the integrand sampled at each cell's left end, ``ends``
    at each cell's right end (the right and left values at a grid time).
    Each end is halved before the sum, so two finite ends whose sum
    overflows still give a finite mean. Halving is exact for ends of size
    2**-1021 and up, so there the bits are those of ``0.5 * (start + end)``.
    """
    return (0.5 * starts[:-1] + 0.5 * ends[1:]) * increments


def _cell_increments(g: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """g(t_{k+1}) - g(t_k+) per grid cell from g and its jump masses on the
    grid; arrays with columns hold one derivator per column."""
    return g[1:] - (g[:-1] + deltas[:-1])


def _resum(atoms: np.ndarray, cells: np.ndarray, starts=(0,)) -> np.ndarray:
    """Cumulative atoms-plus-cells sum over a grid, 0.0 at the first time.

    Entry i is the running sum of ``atoms[k] + cells[k]`` over k < i, each
    atom and its cell added together before joining the sum (unlike
    :func:`_running_sums`, which adds them one at a time). Arrays with
    columns are summed per column along axis 0. Each of ``starts`` begins a
    new grid of a stack: its sum restarts at 0.0, and the cell before it is left out.
    """
    steps = atoms[:-1] + cells
    sums = np.zeros(atoms.shape)
    for lo, hi in zip(starts, [*starts[1:], len(atoms)]):
        steps[lo:hi - 1].cumsum(axis=0, out=sums[lo + 1:hi])
    return sums


def _cell_integrals(d: Derivator, v: Integrand, grid: np.ndarray) -> np.ndarray:
    """Continuous part of the measure of v over each grid cell, cut at the
    kinks of v: one 15-point panel per piece in its row's chart, in batches
    of one row kind in grid order, then summed back per cell. The grid holds
    every breakpoint, so each cell lies in one row."""
    kinks = v._kinks[(v._kinks > grid[0]) & (v._kinks < grid[-1])]
    mids = 0.5 * (grid[:-1] + grid[1:])
    edges, row = grid, d._row_in(d._segment_index(mids), mids)
    if kinks.size:
        edges = np.union1d(grid, kinks)
        row = row[np.searchsorted(grid, edges[:-1], side="right") - 1]
    kind = d._row_kind[row]
    out = np.zeros(len(edges) - 1)
    for code in set(d._row_kind.tolist()) - {_CONSTANT}:
        pieces = np.flatnonzero(kind == code)
        for start in range(0, pieces.size, _PANEL_ROWS):
            r = pieces[start:start + _PANEL_ROWS]
            k, los, his = row[r], edges[r], edges[r + 1]
            rows = k[0] if k[0] == k[-1] else k  # a batch in one row takes scalars
            integrand, u_los, u_his, weight = _chart(code, v, los, his, d._row_lo[rows],
                                                     d._row_slope[rows], d._row_exp[rows],
                                                     d._row_scale[rows])
            out[r] = weight * quadrature.panel_integrals(integrand, u_los, u_his)
    return np.add.reduceat(out, np.searchsorted(edges, grid[:-1])) if kinks.size else out


# ------------------------------------------------------- derivative estimates


@dataclass
class _EstimateTable:
    """Grid-aligned quotient estimates, kept per side for resummation."""

    values: np.ndarray        # point estimates, 0.0 where not eligible
    eligible: np.ndarray
    is_jump: np.ndarray
    left_est: np.ndarray      # one-sided estimates (nan where unavailable)
    right_est: np.ndarray
    left_ok: np.ndarray
    right_ok: np.ndarray


def _estimate_table(h: Trajectory) -> _EstimateTable:
    d = h.governing
    grid = h.grid
    n = len(grid)
    gl, gr = h.g_values()
    hl, hr = h.left_values, h.right_values

    deltas = h._deltas
    is_jump = deltas != 0.0

    mids = 0.5 * (grid[:-1] + grid[1:])
    cell_sid = d._segment_index(mids)
    cell_moves = d._seg_class[cell_sid] != CONSTANCY_POINT

    def quot(j: int, k: int) -> np.ndarray:
        """(h(t_{i+k}) - h(t_{i-j}+)) / (g(t_{i+k}) - g(t_{i-j}+)) per grid index i.

        The left bracket point always uses right values, which keeps any jump
        sitting exactly at the bracket's left end out of the increment.
        """
        q = np.full(n, np.nan)
        lo_idx = np.arange(0, n - j - k)
        hi_idx = lo_idx + j + k
        center = lo_idx + j
        num = hl[hi_idx] - hr[lo_idx]
        den = gl[hi_idx] - gr[lo_idx]
        with np.errstate(invalid="ignore", divide="ignore"):
            q[center] = np.where(den != 0.0, num / den, np.nan)
        return q

    def cells_same_segment(lo_off: int, hi_off: int) -> np.ndarray:
        """True at i when cells i+lo_off .. i+hi_off-1 exist, share a segment, and
        move; cell segments never decrease along the grid, so the ends decide."""
        ok = np.zeros(n, dtype=bool)
        rows = np.arange(max(0, -lo_off), min(n, n - hi_off))
        lo_cell, hi_cell = rows + lo_off, rows + hi_off - 1
        ok[rows] = cell_moves[lo_cell] & (cell_sid[lo_cell] == cell_sid[hi_cell])
        return ok

    q11 = quot(1, 1)
    q22 = quot(2, 2)
    central_ok = cells_same_segment(-2, 2) & ~np.isnan(q11) & ~np.isnan(q22)
    central = (4.0 * q11 - q22) / 3.0

    r1, r2, r3 = quot(0, 1), quot(0, 2), quot(0, 3)
    right_ok = cells_same_segment(0, 3) & ~np.isnan(r1) & ~np.isnan(r2) & ~np.isnan(r3)
    right_est = 3.0 * r1 - 3.0 * r2 + r3

    l1, l2, l3 = quot(1, 0), quot(2, 0), quot(3, 0)
    left_ok = cells_same_segment(-3, 0) & ~np.isnan(l1) & ~np.isnan(l2) & ~np.isnan(l3)
    left_est = 3.0 * l1 - 3.0 * l2 + l3

    values = np.zeros(n)
    eligible = np.zeros(n, dtype=bool)

    # jumps carry their exact quotient
    values[is_jump] = (hr[is_jump] - hl[is_jump]) / deltas[is_jump]
    eligible[is_jump] = True

    rest = ~is_jump
    use_central = rest & central_ok
    values[use_central] = central[use_central]
    eligible[use_central] = True

    rest &= ~central_ok
    both = rest & left_ok & right_ok
    values[both] = 0.5 * (left_est[both] + right_est[both])
    only_r = rest & right_ok & ~left_ok
    values[only_r] = right_est[only_r]
    only_l = rest & left_ok & ~right_ok
    values[only_l] = left_est[only_l]
    eligible[both | only_r | only_l] = True

    # classification can still veto: constancy closures and bare run boundaries
    eligible &= d.classify(grid) < CONSTANCY_POINT
    values[~eligible] = 0.0
    return _EstimateTable(values, eligible, is_jump,
                          left_est, right_est, left_ok, right_ok)


def derivative_estimates(h: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Derivative of h with respect to its governing derivator at every grid time.

    Returns (values, eligible) where ``eligible`` is False at points the
    derivative is undefined (run boundaries without a jump, constancy
    closures); such entries carry value 0.0. Jump entries are exact stored
    quotients; interior entries are Richardson pairs of grid-aligned
    quotients, one-sided near segment ends and averaged across same-direction
    junctions.
    """
    table = _estimate_table(h)
    return table.values, table.eligible


def g_derivative(h: Trajectory, t: float) -> float:
    """Derivative of a recorded trajectory with respect to its derivator at t.

    ``t`` must be a grid time. Raises UndefinedPointError where the derivative
    does not exist and ConvergenceError when the quotient sequence at an
    interior point has not settled at the grid's resolution.
    """
    d = h.governing
    i = h.index_of(float(t))
    kind, payload = d.classify_point(float(t))
    if kind == "excluded":
        raise UndefinedPointError(f"g-derivative undefined at {t}: {payload}")
    values, eligible = derivative_estimates(h)
    if not eligible[i]:
        raise UndefinedPointError(f"g-derivative not estimable at {t} on this grid")
    if kind == "jump":
        return float(values[i])
    # verify the Richardson pair is still improving: compare against the raw
    # first-level quotient; the correction must dominate the leftover change
    gl, gr = h.g_values()
    hl = h.left_values
    est = float(values[i])
    if 1 <= i < len(h.grid) - 1:
        den = gl[i + 1] - gr[i - 1]
        if den != 0:
            raw = (hl[i + 1] - h.right_values[i - 1]) / den
            correction = abs(est - raw)
            if correction > max(5e-2 * abs(est), 1e-3):
                raise ConvergenceError(
                    f"quotient sequence at {t} is not settling", last_estimate=est
                )
    return est


def g_derivative_fn(func: Callable, d: Derivator, t: float, rel_tol: float = 1e-8) -> float:
    """Derivative of a callable with respect to a derivator at t.

    Uses shrinking bracketing quotients with Neville extrapolation, brackets
    confined to one row of the derivator's table: a segment, or a knot cell
    or the flat head or tail of a tabulated one. At a jump the right quotient
    converges to the exact jump expression.
    """
    if not rel_tol > 0:
        raise DomainError(f"rel_tol must be positive, got {rel_tol}")
    t = float(t)
    kind, payload = d.classify_point(t)
    if kind == "excluded":
        raise UndefinedPointError(f"g-derivative undefined at {t}: {payload}")
    # brackets stay in the rows next to t, where g is smooth: row r spans
    # [bks[r], bks[r + 1]], and a point off a jump lies strictly inside (a, b)
    bks = d._breakpoints()
    left, right = int(bks.searchsorted(t)) - 1, int(bks.searchsorted(t, side="right")) - 1
    g_r = _row_values(d, float(bks[right]), float(bks[right + 1]))
    if left == right:  # never at a jump: a jump is a row start
        reach = min(t - float(bks[left]), float(bks[right + 1]) - t)
        return _extrapolate(lambda e: _quotient(func, t - e, t + e, g_r(t - e), g_r(t + e), t),
                            reach, rel_tol, even=True)
    # every one-sided rung has t as an end: func(t) is called once, by the first rung
    g_t, f_t = d.eval(t), functools.cache(lambda: func(t))
    f = lambda x: f_t() if x == t else func(x)
    if kind == "jump":
        return _extrapolate(lambda e: _quotient(f, t, t + e, g_t, g_r(t + e), t, at_jump=True),
                            float(bks[right + 1]) - t, rel_tol, even=False)
    g_l = _row_values(d, float(bks[left]), t)
    estimates = [_extrapolate(lambda e: _quotient(f, t, t + e, g_t, g_r(t + e), t),
                              float(bks[right + 1]) - t, rel_tol, even=False),
                 _extrapolate(lambda e: _quotient(f, t - e, t, g_l(t - e), g_t, t),
                              t - float(bks[left]), rel_tol, even=False)]
    scale = max(abs(estimates[0]), abs(estimates[1]), 1.0)
    if abs(estimates[0] - estimates[1]) > 1e-6 * scale:
        raise ConvergenceError(f"one-sided quotients disagree at {t}", last_estimate=estimates)
    # halved first, as in _trapezoid_cells: two finite estimates whose sum
    # overflows still give a finite mean
    return 0.5 * estimates[0] + 0.5 * estimates[1]


def _row_values(d: Derivator, lo: float, hi: float) -> Callable:
    """``d.eval`` on the table row [lo, hi]: the points strictly inside share one ``_place``."""
    mid = lo + 0.5 * (hi - lo)
    place = d._place(mid) if lo < mid < hi else None
    return lambda x: d._value_at(place, x) if place and lo < x < hi else d.eval(x)


def _quotient(func, lo, hi, g_lo, g_hi, t, at_jump=False):
    """(func(hi) - func(lo)) / (g_hi - g_lo) for the bracket ladder at t.

    Off a jump every bracket lies inside one monotone segment, so a zero
    denominator means g is constant on a bracket touching t: g is locally
    constant there and has no derivative to offer. At a jump the zero is a
    cancellation of the jump by the continuous part, and the ladder ends as
    it does for any non-finite quotient.
    """
    num = func(hi) - func(lo)
    den = g_hi - g_lo
    if den == 0.0:
        if at_jump:
            return float("nan")
        raise UndefinedPointError(
            f"g-derivative undefined at {t}: g is constant on a bracket at t"
        )
    return num / den


def _extrapolate(quotient: Callable, reach: float, rel_tol: float, even: bool) -> float:
    """Neville extrapolation of quotient(eps) to eps -> 0 over a halving ladder.

    ``even`` marks an error expansion in eps**2 (central quotients), which
    doubles the effective order per level.
    """
    if reach <= 0:
        raise UndefinedPointError("empty bracket")
    eps0 = reach / 2.0
    power = 2.0 if even else 1.0
    table: list[list[float]] = []
    eps_seq: list[float] = []
    prev_current = None
    best_val = None
    best_gap = np.inf
    quot_scale = 0.0
    for level in range(_NEVILLE_LEVELS):
        eps = eps0 / (2.0 ** level)
        if eps == 0.0:
            break
        val = quotient(eps)
        if not math.isfinite(val):
            break
        quot_scale = max(quot_scale, abs(val))
        eps_seq.append(eps ** power)
        row, xk = [val], eps_seq[-1]
        for k, prev in enumerate(table[-1] if table else ()):
            w = xk / (eps_seq[len(table) - 1 - k] - xk)
            row.append(row[k] + (row[k] - prev) * w)
        table.append(row)
        current = row[-1]
        if prev_current is not None:
            gap = abs(current - prev_current)
            # absolute floor scaled to the raw quotients keeps a vanishing
            # limit reachable: values like 1e-12 never satisfy a purely
            # relative tolerance against themselves
            floor = rel_tol * max(quot_scale, 1e-3)
            scale = max(abs(current), 1e-12)
            if len(row) >= 3 and (gap <= rel_tol * scale
                                  or (abs(current) <= floor and gap <= floor)):
                return current
            if gap < best_gap:
                best_gap, best_val = gap, current
            elif gap > 8.0 * best_gap and len(row) >= 4:
                # rounding noise has taken over; the best row is the answer
                break
        prev_current = current
    if best_val is not None and best_gap <= 1e-5 * max(abs(best_val), 1e-12):
        return best_val
    raise ConvergenceError("quotient extrapolation did not converge",
                           last_estimate=best_val if best_val is not None else prev_current)


# --------------------------------------------------------------- FTC roundtrip


@dataclass(frozen=True)
class FtcReport:
    max_deviation: float
    passed: bool
    excluded_points: int
    grid: np.ndarray
    deviations: np.ndarray


def ftc_roundtrip(h: Trajectory, pass_tol: float = 1e-6) -> FtcReport:
    """Differentiate a trajectory, re-integrate the estimates, compare with h.

    Re-integration pairs a trapezoid Riemann-Stieltjes resummation over the
    continuous part with exact atom terms, so the reported deviation measures
    the genuine consistency of h with its numerical derivative. A deviation
    that is not finite is an RhsEvaluationError at its first grid time.
    """
    gl, _ = h.g_values()
    with np.errstate(over="ignore", invalid="ignore"):
        table = _estimate_table(h)
        atom = table.values * h._deltas

        # trapezoid samples per cell: jump rows and excluded rows (say a direction
        # flip) both carry clean one-sided values, and each adjacent cell must see
        # its own side; the jump quotient itself belongs only in the atom term
        interior = table.eligible & ~table.is_jump
        from_left = np.where(interior, table.values,
                             np.where(table.right_ok, np.nan_to_num(table.right_est), 0.0))
        from_right = np.where(interior, table.values,
                              np.where(table.left_ok, np.nan_to_num(table.left_est), 0.0))
        cum = _resum(atom, _trapezoid_cells(from_left, from_right, _cell_increments(gl, h._deltas)))
        target = h.left_values - h.left_values[0]
        deviations = np.abs(cum - target)
    _raise_at_first(~np.isfinite(deviations), h.grid, "deviation",
                    "the re-integrated derivative overflows")
    max_dev = float(np.max(deviations))
    return FtcReport(
        max_deviation=max_dev,
        passed=bool(max_dev < pass_tol),
        excluded_points=int(np.sum(~table.eligible)),
        grid=h.grid,
        deviations=deviations,
    )


# ------------------------------------------------------------------ chain rule


@dataclass(frozen=True)
class ChainRuleReport:
    lhs: float
    rhs: float
    outer: float
    inner: float
    relative_difference: float
    passed: bool


def chain_rule_check(g1: Derivator, g2: Derivator, f: Callable, h: Callable,
                     x0: float, pass_tol: float = 1e-6) -> ChainRuleReport:
    """Compare (h o f)'_{g1}(x0) with h'_{g2}(f(x0)) * (g2 o f)'_{g1}(x0).

    Requires f(x0) to avoid the jump set of g2. The two sides are computed
    independently from bracketing quotients; the relative difference uses an
    absolute floor of 1 so that exact-zero agreements (jumping g1 with a
    continuous inner map) count as a pass.
    """
    y0 = float(f(x0))
    if g2.delta_at(y0) != 0.0:
        raise DomainError(f"f(x0) = {y0} lands on a jump of the outer derivator")
    lhs = g_derivative_fn(lambda s: h(f(s)), g1, x0)
    inner = g_derivative_fn(lambda s: g2.eval(f(s)), g1, x0)
    outer = g_derivative_fn(h, g2, y0)
    rhs = outer * inner
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
    return ChainRuleReport(lhs, rhs, outer, inner, rel, bool(rel < pass_tol))


# ------------------------------------------------------------------- modulus


def g_continuity_modulus(h: Trajectory, epsilon: float) -> float:
    """Largest ladder radius delta with |h(t) - h(s)| < epsilon whenever
    the derivator's variation between t and s stays below delta.

    The ladder halves down from the full variation over 52 rungs. The
    points checked are every grid time's left value at variation
    V(t) (``variation_cumulative``) and each jump row's right value h(t+) at
    V(t) + |delta|: a rung passes when every pair of points closer than delta
    in variation is closer than epsilon in value. Each point's nearest
    offending partner is found exactly in O(n log n). Returns 0.0 when even
    the smallest rung fails, in particular when h moves across a span of
    zero variation.
    """
    d = h.governing
    deltas, V = h._deltas, d.variation_cumulative(h.grid)
    jumps = np.flatnonzero(deltas)
    x = np.insert(h.left_values, jumps + 1, h.right_values[jumps])
    v = np.insert(V, jumps + 1, V[jumps] + np.abs(deltas[jumps]))
    # V + |delta| can round past the next time's V; in V order, the first
    # offending point after i is the nearest one
    order = np.argsort(v, kind="stable")
    x, v, n = x[order], v[order], v.size
    # a hair of grace: variation and value gaps accumulate through different
    # float paths, and |h(t)-h(s)| <= var should not fail by one ulp
    eps_eff = epsilon * (1.0 + 1e-9)
    if not np.all(np.abs(x - x) < eps_eff):
        return 0.0  # a point offends against itself (NaN value, epsilon <= 0)
    # level k of the sparse tables: max and min of x over [p, p + 2**k)
    highs, lows = [x], [x]
    while 2 ** len(highs) < n:
        w = 2 ** (len(highs) - 1)
        highs.append(np.maximum(highs[-1][:-w], highs[-1][w:]))
        lows.append(np.minimum(lows[-1][:-w], lows[-1][w:]))
    # binary lifting: x[i + 1 .. last[i]] all lie within epsilon of x[i]
    last = np.arange(n)
    for k in range(len(highs) - 1, -1, -1):
        fits = last + 2 ** k < n
        p = last[fits] + 1
        fits[fits] = (highs[k][p] - x[fits] < eps_eff) & (x[fits] - lows[k][p] < eps_eff)
        last[fits] += 2 ** k
    offends = last + 1 < n
    nearest = np.min(v[last[offends] + 1] - v[offends], initial=np.inf)
    delta = d.variation(d.a, d.b)
    for _ in range(_MODULUS_RUNGS):
        if delta <= nearest:
            return float(delta)
        delta *= 0.5
    return 0.0
