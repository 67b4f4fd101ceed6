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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quadrature
from .derivator import (
    CONSTANCY_POINT,
    CONSTANT,
    Derivator,
    _groups,
)
from .errors import (
    ConvergenceError,
    DomainError,
    UndefinedPointError,
)
from .measure import SIGNED, Integrand, StieltjesMeasure, _as_integrand

_INTERP_MODES = ("linear", "flat")


@dataclass
class Trajectory:
    """A function recorded on a grid with separate left and right values.

    The grid always contains both interval endpoints and every jump of the
    governing derivator; ``right_values`` may differ from ``left_values`` only
    at jump locations. Between grid points the declared interpolation rule
    applies ("linear", or "flat" for step records).
    """

    grid: np.ndarray
    left_values: np.ndarray
    right_values: np.ndarray
    governing: Derivator
    interpolation: str = "linear"

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.left_values = np.asarray(self.left_values, dtype=float)
        self.right_values = np.asarray(self.right_values, dtype=float)
        if self.interpolation not in _INTERP_MODES:
            raise DomainError(f"unknown interpolation {self.interpolation!r}")
        if self.grid.ndim != 1 or np.any(np.diff(self.grid) <= 0):
            raise DomainError("grid must be strictly increasing")
        if self.left_values.shape != self.grid.shape or self.right_values.shape != self.grid.shape:
            raise DomainError("value arrays must match the grid")
        a, b = self.governing.interval
        if self.grid[0] < a or self.grid[-1] > b:
            raise DomainError("grid extends outside the governing interval")
        missing = _missing_jumps(self.governing, self.grid)
        if missing:
            raise DomainError(f"grid is missing jump times {missing}")
        moved = self.right_values != self.left_values
        moved &= self.governing.jump_index(self.grid) < 0
        if np.any(moved):
            t = self.grid[np.argmax(moved)]
            raise DomainError(f"right value differs from left at non-jump time {t}")
        self._g_left = None
        self._g_right = None

    # cached derivator values on the grid
    def g_values(self):
        if self._g_left is None:
            self._g_left = self.governing.eval(self.grid)
            self._g_right = self.governing.eval_right(self.grid)
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
        lo_t = self.grid[idx - 1]
        hi_t = self.grid[idx]
        on_node = ts == lo_t
        if self.interpolation == "linear":
            w = np.where(hi_t > lo_t, (ts - lo_t) / np.where(hi_t > lo_t, hi_t - lo_t, 1.0), 0.0)
            interp = self.right_values[idx - 1] * (1 - w) + self.left_values[idx] * w
        else:
            interp = np.where(ts == hi_t, self.left_values[idx], self.right_values[idx - 1])
        out = np.where(on_node, self.left_values[idx - 1], interp)
        # the first grid point only matches via on_node at idx-1 == 0
        out = np.where(ts == self.grid[-1], self.left_values[-1], out)
        return float(out) if np.isscalar(t) else out

    def value_right(self, t):
        ts = np.asarray(t, dtype=float)
        base = self.value(ts)
        exact = np.isin(ts, self.grid)
        if np.any(exact):
            idx = np.searchsorted(self.grid, ts)
            idx = np.clip(idx, 0, len(self.grid) - 1)
            base = np.where(exact, self.right_values[idx], base)
        return float(base) if np.isscalar(t) else base

    def transform(self, fn: Callable) -> "Trajectory":
        """Compose a scalar map over the recorded values (for Lipschitz stability checks)."""
        wrapped = _as_integrand(fn)
        return Trajectory(
            self.grid.copy(),
            wrapped(self.left_values),
            wrapped(self.right_values),
            self.governing,
            self.interpolation,
        )


def _missing_jumps(d: Derivator, grid: np.ndarray) -> list[float]:
    """Jump times of d between the first and last grid time that the grid lacks."""
    ats = d._jump_at[(grid[0] <= d._jump_at) & (d._jump_at <= grid[-1])]
    return ats[grid[grid.searchsorted(ats)] != ats].tolist()


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
    bks = np.asarray(derivator.breakpoints())
    u = np.linspace(0.0, 1.0, per_segment + 1)
    lo, hi = bks[:-1], bks[1:]
    spans = lo[:, None] + (hi - lo)[:, None] * u
    owner = derivator.segment_index(0.5 * (lo + hi))
    for i, k in enumerate(owner.tolist()):
        profile = derivator.segments[k].profile
        if getattr(profile, "kind", None) == "power" and profile.exponent != 1.0:
            spans[i] = lo[i] + (hi[i] - lo[i]) * u ** (1.0 / profile.exponent)
    # lo + (hi - lo) * 1.0 can round past hi
    spans[:, -1] = hi
    return np.unique(np.concatenate([bks, spans.ravel()]))


# ------------------------------------------------------------------ primitive


def primitive(m: StieltjesMeasure, v, grid_hint: int = 256) -> Trajectory:
    """The function h(x) = integral of v over [a, x) against m, on a grid.

    The jump increment h(t+) - h(t) equals v(t) * delta exactly by
    construction. Only the signed measure makes a primitive in the
    fundamental-theorem sense.
    """
    if m.signature != SIGNED:
        raise DomainError("primitive requires the signed measure")
    v = _as_integrand(v)
    d = m.derivator
    grid = uniform_grid(d, grid_hint)
    cont = _cell_integrals(d, v, grid)
    deltas = d.deltas_on(grid)
    atom_vals = np.where(deltas != 0.0, np.asarray(v(grid), dtype=float) * deltas, 0.0)
    left, right = _running_sums(atom_vals, cont)
    return Trajectory(grid, left, right, d)


def _running_sums(atoms: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left and right values of a grid accumulation that starts at 0.0.

    ``left[i]`` adds up ``atoms[:i]`` and ``cells[:i]``, and ``right[i]`` is
    ``left[i] + atoms[i]``. One cumsum runs over the interleaved steps
    0.0, atoms[0], cells[0], atoms[1], ..., so every partial sum rounds as in
    the left-to-right loop ``acc = acc + atoms[i]; acc = acc + cells[i]``.
    """
    steps = np.empty(2 * len(atoms))
    steps[0] = 0.0
    steps[1::2] = atoms
    steps[2::2] = cells
    sums = np.cumsum(steps)
    return sums[0::2].copy(), sums[1::2].copy()


def _trapezoid_cells(starts: np.ndarray, ends: np.ndarray,
                     increments: np.ndarray) -> np.ndarray:
    """Trapezoid rule per grid cell: ``0.5 * (starts[k] + ends[k + 1]) * increments[k]``.

    ``starts`` holds the integrand sampled at each cell's left end, ``ends``
    at each cell's right end (the right and left values at a grid time).
    """
    return 0.5 * (starts[:-1] + ends[1:]) * increments


def _resum(atoms: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Cumulative atoms-plus-cells sum over a grid, 0.0 at the first time.

    Entry i is the running sum of ``atoms[k] + cells[k]`` over k < i, each
    atom and its cell added together before joining the sum (unlike
    :func:`_running_sums`, which adds them one at a time). Arrays with
    columns are summed per column along axis 0.
    """
    steps = atoms[:-1] + cells
    return np.concatenate([np.zeros((1,) + steps.shape[1:]), np.cumsum(steps, axis=0)])


def _cell_integrals(d: Derivator, v: Integrand, grid: np.ndarray) -> np.ndarray:
    """Continuous part of the measure of v over each grid cell (vectorized panels).

    Each segment's cells go through one fixed panel each in the profile's
    chart; the grid already holds every knot, and cells are not cut at the
    kinks of v.
    """
    out = np.zeros(len(grid) - 1)
    mids = 0.5 * (grid[:-1] + grid[1:])
    for k, cells in _groups(d.segment_index(mids)):
        seg = d.segments[k]
        if seg.direction == CONSTANT:
            continue
        edges = np.concatenate([grid[cells], [grid[cells[-1] + 1]]])
        integrand, u_edges, weight = seg.profile._chart(seg.lo, v, edges)
        out[cells] = weight * quadrature.panel_integrals(integrand, u_edges)
    return out


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

    deltas = d.deltas_on(grid)
    is_jump = deltas != 0.0

    mids = 0.5 * (grid[:-1] + grid[1:])
    cell_sid = d.segment_index(mids)
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


def g_derivative_fn(func: Callable, d: Derivator, t: float,
                    rel_tol: float = 1e-8, max_levels: int = 24) -> float:
    """Derivative of a callable with respect to a derivator at t.

    Uses shrinking bracketing quotients with Neville extrapolation, brackets
    confined to one monotone segment. At a jump the right quotient converges
    to the exact jump expression.
    """
    t = float(t)
    kind, payload = d.classify_point(t)
    if kind == "excluded":
        raise UndefinedPointError(f"g-derivative undefined at {t}: {payload}")
    if kind == "jump":
        return _extrapolate(lambda eps: _quotient(func, d, t, t + eps, t, at_jump=True),
                            _right_reach(d, t), rel_tol, max_levels, even=False)
    left_idx, right_idx = d.segments_adjacent(t)
    seg_l = d.segments[left_idx] if left_idx is not None else None
    seg_r = d.segments[right_idx] if right_idx is not None else None
    inside_left = seg_l is not None and seg_l.lo < t
    inside_right = seg_r is not None and t < seg_r.hi
    if inside_left and inside_right and left_idx == right_idx:
        reach = min(t - seg_l.lo, seg_l.hi - t)
        return _extrapolate(lambda eps: _quotient(func, d, t - eps, t + eps, t),
                            reach, rel_tol, max_levels, even=True)
    estimates = []
    if inside_right:
        estimates.append(_extrapolate(lambda eps: _quotient(func, d, t, t + eps, t),
                                      seg_r.hi - t, rel_tol, max_levels, even=False))
    if inside_left:
        estimates.append(_extrapolate(lambda eps: _quotient(func, d, t - eps, t, t),
                                      t - seg_l.lo, rel_tol, max_levels, even=False))
    if not estimates:
        raise UndefinedPointError(f"no usable bracket at {t}")
    if len(estimates) == 2:
        scale = max(abs(estimates[0]), abs(estimates[1]), 1.0)
        if abs(estimates[0] - estimates[1]) > 1e-6 * scale:
            raise ConvergenceError(
                f"one-sided quotients disagree at {t}", last_estimate=estimates
            )
        return 0.5 * (estimates[0] + estimates[1])
    return estimates[0]


def _right_reach(d: Derivator, t: float) -> float:
    _, right_idx = d.segments_adjacent(t)
    if right_idx is None:
        raise UndefinedPointError(f"no right neighborhood at {t}")
    return d.segments[right_idx].hi - t


def _quotient(func, d, lo, hi, t, at_jump=False):
    """(func(hi) - func(lo)) / (d.eval(hi) - d.eval(lo)) for the bracket ladder at t.

    Off a jump every bracket lies inside one monotone segment, so a zero
    denominator means g is constant on a bracket touching t: g is locally
    constant there and has no derivative to offer. At a jump the zero is a
    cancellation of the jump by the continuous part, and the ladder ends as
    it does for any non-finite quotient.
    """
    num = func(hi) - func(lo)
    den = d.eval(hi) - d.eval(lo)
    if den == 0.0:
        if at_jump:
            return float("nan")
        raise UndefinedPointError(
            f"g-derivative undefined at {t}: g is constant on a bracket at t"
        )
    return num / den


def _extrapolate(quotient: Callable, reach: float, rel_tol: float,
                 max_levels: int, even: bool) -> float:
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
    for level in range(max_levels):
        eps = eps0 / (2.0 ** level)
        if eps == 0.0:
            break
        val = quotient(eps)
        if not np.isfinite(val):
            break
        quot_scale = max(quot_scale, abs(val))
        eps_seq.append(eps ** power)
        row = [val]
        prev_row = table[-1] if table else None
        if prev_row is not None:
            for k in range(len(prev_row)):
                xk = eps_seq[-1]
                x0 = eps_seq[len(table) - 1 - k]
                w = xk / (x0 - xk)
                row.append(row[k] + (row[k] - prev_row[k]) * w)
        table.append(row)
        current = row[-1]
        if prev_current is not None:
            gap = abs(current - prev_current)
            # absolute floor scaled to the raw quotients keeps a vanishing
            # limit reachable: values like 1e-12 never satisfy a purely
            # relative tolerance against themselves
            floor = rel_tol * max(quot_scale, 1e-3)
            scale = max(abs(current), 1e-12)
            if len(row) >= 3 and gap <= rel_tol * scale:
                return current
            if len(row) >= 3 and abs(current) <= floor and gap <= floor:
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
    the genuine consistency of h with its numerical derivative.
    """
    d = h.governing
    grid = h.grid
    gl, gr = h.g_values()
    table = _estimate_table(h)
    deltas = d.deltas_on(grid)
    atom = table.values * deltas

    # trapezoid samples per cell: jump rows and excluded rows (say a direction
    # flip) both carry clean one-sided values, and each adjacent cell must see
    # its own side; the jump quotient itself belongs only in the atom term
    interior = table.eligible & ~table.is_jump
    from_left = np.where(interior, table.values,
                         np.where(table.right_ok, np.nan_to_num(table.right_est), 0.0))
    from_right = np.where(interior, table.values,
                          np.where(table.left_ok, np.nan_to_num(table.left_est), 0.0))
    cum = _resum(atom, _trapezoid_cells(from_left, from_right, gl[1:] - gr[:-1]))
    target = h.left_values - h.left_values[0]
    deviations = np.abs(cum - target)
    max_dev = float(np.max(deviations))
    return FtcReport(
        max_deviation=max_dev,
        passed=bool(max_dev < pass_tol),
        excluded_points=int(np.sum(~table.eligible)),
        grid=grid,
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


def g_continuity_modulus(h: Trajectory, epsilon: float,
                         max_halvings: int = 52, sample_cap: int = 512) -> float:
    """Largest ladder radius delta with |h(t) - h(s)| < epsilon whenever
    the derivator's variation between t and s stays below delta.

    The ladder halves down from the full variation; sampled grid pairs are
    checked exhaustively. Returns 0.0 when even the smallest rung fails, in
    particular when h moves across a span of zero variation.
    """
    d = h.governing
    grid = h.grid
    if len(grid) > sample_cap:
        keep = np.unique(np.concatenate([
            np.linspace(0, len(grid) - 1, sample_cap).astype(int),
            np.array([h.index_of(j.at) for j in d.jumps], dtype=int),
        ]))
    else:
        keep = np.arange(len(grid))
    ts = grid[keep]
    hv = h.left_values[keep]
    V = d.variation_cumulative(ts)
    pairvar = np.abs(V[None, :] - V[:, None])
    gaps = np.abs(hv[None, :] - hv[:, None])
    top = d.variation(d.a, d.b)
    if top == 0.0:
        return 0.0
    # a hair of grace: variation and value gaps accumulate through different
    # float paths, and |h(t)-h(s)| <= var should not fail by one ulp
    eps_eff = epsilon * (1.0 + 1e-9)
    delta = top
    for _ in range(max_halvings):
        mask = pairvar < delta
        if np.all(gaps[mask] < eps_eff):
            return float(delta)
        delta *= 0.5
    return 0.0
