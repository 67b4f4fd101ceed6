"""Measure-driven initial value problems: horizon selection, Euler, Picard.

A system couples one derivator per state component. The Euler scheme splits
each step in two: the jump part applies x(t+) = x(t) + f(t, x(t)) * delta
exactly (the pre-jump state feeds every component, even when several
components jump at once), then the continuous part advances with the
between-jump increment of each derivator. The Picard route iterates the
integral operator with a trapezoid rule in each driving function and the same
exact atom terms.

A system's right-hand side is ``rhs(t, x) -> f`` for one time and one state.
A spec may also carry ``rhs_batch(ts, X) -> F``, the same function over many
rows at once: ``ts`` has shape (n,), ``X`` and ``F`` have shape (n, dim), and
row k of ``F`` must equal ``rhs(ts[k], X[k])`` bit for bit. The catalog and
plume right-hand sides are one function that serves both calls, so their
specs pass it as both ``rhs`` and ``rhs_batch``. Picard sweeps evaluate
whole grids through :meth:`SystemSpec.call_rhs_many`, which uses the batch
form when there is one and loops the scalar form when there is not; the
checks and error messages are the scalar ones either way. :func:`solve`
tabulates the jumps and increments of its grid and of the error estimate's
doubled grid once, on the doubled grid, which holds the coarse one, and sweeps
both grids together: one such call per sweep, the left states of both grids,
then their jump rows' right states. Its errors keep the order of two runs one
after the other: the coarse grid's come first, and a state that is not finite
raises :class:`RhsEvaluationError` at its first grid time.

Every solve carries a jump audit: at each jump time and component the stored
right value is compared against left + f(t, left) * delta recomputed from the
stored left state. The residual is reported in units of the state's ulp and
is zero when the transition was applied exactly.

Horizon selection integrates nonnegative dominators of the right-hand side
against the total-variation measures and returns the largest grid time at
which every component's accumulated bound still fits inside the safety
radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .calculus import (Trajectory, _cell_increments, _cell_integrals, _missing_jumps,
                       _raise_at_first, _resum, _running_sums, _trapezoid_cells)
from .derivator import Derivator
from .errors import (
    DomainError,
    HorizonSelectionError,
    RhsEvaluationError,
)
from .measure import Integrand, _as_integrand


@dataclass
class SystemSpec:
    """A coupled system: one derivator per component, shared interval.

    ``rhs_batch`` may be ``rhs`` itself, as for the catalog right-hand sides.
    """

    derivators: Sequence[Derivator]
    rhs: Callable[[float, np.ndarray], np.ndarray]
    initial: Sequence[float]
    horizon: float | None = None
    rhs_batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        self.derivators = tuple(self.derivators)
        if not self.derivators:
            raise DomainError("a system needs at least one derivator")
        base = self.derivators[0].interval
        for d in self.derivators[1:]:
            if d.interval != base:
                raise DomainError(
                    f"derivator intervals differ: {d.interval} vs {base}"
                )
        self.initial = np.asarray(self.initial, dtype=float)
        if self.initial.ndim != 1 or len(self.initial) != len(self.derivators):
            raise DomainError(
                "initial state must be one value per derivator "
                f"(got shape {self.initial.shape} for {len(self.derivators)} components)"
            )
        if self.horizon is not None:
            a, b = base
            if not (a < self.horizon <= b):
                raise DomainError(f"horizon {self.horizon} outside ({a}, {b}]")

    @property
    def dim(self) -> int:
        return len(self.derivators)

    @property
    def interval(self) -> tuple[float, float]:
        return self.derivators[0].interval

    def call_rhs(self, t: float, x: np.ndarray) -> np.ndarray:
        try:
            out = np.asarray(self.rhs(float(t), x), dtype=float)
        except RhsEvaluationError:
            raise
        except Exception as exc:
            raise RhsEvaluationError(
                f"right-hand side failed at t={t}: {exc}"
            ) from exc
        if out.shape != (self.dim,):
            raise RhsEvaluationError(
                f"right-hand side returned shape {out.shape}, expected ({self.dim},)"
            )
        if not all(map(math.isfinite, out.tolist())):
            raise RhsEvaluationError(
                f"right-hand side returned a non-finite value at t={t}"
            )
        return out

    def call_rhs_many(self, ts: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Row k is ``call_rhs(ts[k], X[k])``; one batch call when the spec has one.

        When the batch form raises or gives a non-finite row, the rows go
        through :meth:`call_rhs` one by one instead, which raises the error
        of the scalar loop: its first failing row, its text. The batch runs
        with float warnings off, so only those scalar calls warn.
        """
        shape = (len(ts), self.dim)
        if len(ts) and self.rhs_batch is not None:
            try:
                with np.errstate(all="ignore"):
                    batch = np.asarray(self.rhs_batch(ts, X), dtype=float)
            except Exception:
                pass
            else:
                if batch.shape != shape:
                    raise RhsEvaluationError(
                        f"batch right-hand side returned shape {batch.shape}, "
                        f"expected {shape}"
                    )
                if np.isfinite(batch).all():
                    return batch
        out = np.empty(shape)
        for k in range(len(ts)):
            out[k] = self.call_rhs(ts[k], X[k])
        return out


@dataclass
class CaratheodoryBound:
    """Safety ball radius plus dominators |f_j(t, x)| <= h_j(t) on the ball."""

    radius: float
    dominators: Sequence

    def dominator_for(self, j: int, dim: int) -> Integrand:
        doms = list(self.dominators)
        if len(doms) == 1:
            return _as_integrand(doms[0])
        if len(doms) != dim:
            raise DomainError(
                f"need one dominator or one per component, got {len(doms)} for dim {dim}"
            )
        return _as_integrand(doms[j])


def system_grid(derivators: Sequence[Derivator], horizon: float, mesh: int) -> np.ndarray:
    """Union of every derivator's breakpoints with a uniform mesh up to horizon."""
    a = derivators[0].interval[0]
    if mesh < 2:
        raise DomainError("mesh must be at least 2")
    pts = np.concatenate([d._breakpoints() for d in derivators])
    return np.unique(np.concatenate([np.linspace(a, horizon, mesh + 1),
                                     pts[(pts > a) & (pts < horizon)]]))


def select_horizon(spec: SystemSpec, bound: CaratheodoryBound, mesh: int = 4096) -> float:
    """Largest grid time the dominator mass certifies inside the safety ball.

    For each component the dominator is integrated against the derivator's
    total-variation measure, cumulatively along a fine grid; the atom at the
    start time counts from the first positive time onward. The returned time
    is a point of the selection grid, not a supremum over the continuum.
    """
    grid = system_grid(spec.derivators, spec.interval[1], mesh)
    worst = np.zeros(len(grid))
    for j, d in enumerate(spec.derivators):
        h = bound.dominator_for(j, spec.dim)
        hv = np.asarray(h(grid), dtype=float)
        if np.any(hv < 0):
            raise DomainError(f"dominator for component {j} is negative on the grid")
        atoms = hv * np.abs(d._deltas(grid))
        worst = np.maximum(worst, _resum(atoms, np.abs(_cell_integrals(d, h, grid))))
    ok = worst <= bound.radius
    ok[0] = False
    if not np.any(ok):
        raise HorizonSelectionError(
            f"no positive grid time keeps the dominator mass within radius {bound.radius}"
        )
    return float(grid[np.flatnonzero(ok)[-1]])


def _jump_table(derivators: Sequence[Derivator], grid: np.ndarray, parts=None):
    """index[k, j] = derivator j's jump at grid[k] (-1 for none) and deltas[k, j]
    its mass, after a DomainError for the first of ``parts`` (default: the
    grid) that lacks a jump time; the solvers' eval of g checks the domain."""
    for part in parts or [grid]:
        for d in derivators:
            missing = _missing_jumps(d, part)
            if missing:
                raise DomainError(f"solver grid is missing jump time {missing[0]}")
    index = np.stack([d._jump_index(grid) for d in derivators], axis=1)
    return index, np.stack([d._jump_delta_padded[k] for d, k in zip(derivators, index.T)], axis=1)


def _grid_tables(spec: SystemSpec, grids: Sequence[np.ndarray]) -> list[tuple]:
    """Per grid, its jump index and masses and the increments g_j(t_{k+1}) - g_j(t_k+),
    sliced from one jump table and one eval of each derivator on the last grid, which
    holds the others: :func:`solve`'s doubled grid, or the one grid of a single run."""
    index, deltas = _jump_table(spec.derivators, grids[-1], grids)
    g = np.stack([d.eval(grids[-1]) for d in spec.derivators], axis=1)
    ats = [grids[-1].searchsorted(grid) for grid in grids[:-1]] + [slice(None)]
    return [(index[at], deltas[at], _cell_increments(g[at], deltas[at])) for at in ats]


def solve_euler(spec: SystemSpec, grid: np.ndarray,
                safety_radius: float | None = None):
    """Forward Euler in measure. Returns (left, right, warnings).

    Components whose increment is exactly zero over a step keep their bits:
    the update is masked, not added, so a constant derivator propagates the
    initial value unchanged. Catalog right-hand sides that ignore the state
    (``_time_only``) or are linear (``_linear`` = c in f = c * x) skip the
    loop but keep its bits and errors: a left Stieltjes sum in one cumsum, or
    a scalar recurrence per component. Every other right-hand side runs the
    loop over Python floats, through its float row form ``_row`` when it has
    one (the plume's).
    """
    left, right, *_, warnings, _ = _euler(spec, grid, _grid_tables(spec, [grid])[0], safety_radius)
    return left, right, warnings


def _euler(spec: SystemSpec, grid: np.ndarray, table: tuple, safety_radius: float | None):
    """:func:`solve_euler` on a grid with its :func:`_grid_tables` entry, as a run record."""
    _, deltas, cont = table
    if getattr(spec.rhs, "_time_only", False):
        left, right = _euler_time_only(spec, grid, deltas, cont)
    elif getattr(spec.rhs, "_linear", None) is not None:
        left, right = _euler_linear(spec, grid, deltas, cont)
    else:
        left, right = _euler_loop(spec, grid, deltas, cont)
    warnings: list[str] = []
    if safety_radius is not None:
        drift = np.max(np.abs(left[1:] - spec.initial), axis=1)
        out = np.nonzero(drift > safety_radius)[0]
        if len(out):
            warnings.append(
                f"state left the safety ball (radius {safety_radius}) "
                f"near t={float(grid[out[0] + 1])}; continuing anyway"
            )
    return left, right, True, 1, 0.0, warnings, None


def _euler_loop(spec: SystemSpec, grid: np.ndarray, deltas: np.ndarray, cont: np.ndarray):
    """One rhs call per jump row and per moving cell, stepping the state as
    Python floats; a component steps only where its increment is nonzero.
    A float row form ``_row(t, *x)`` (the plume's) stands in for call_rhs
    until it raises or gives a value that is not finite; then call_rhs
    raises the loop's error."""
    row = getattr(spec.rhs, "_row", None)

    def f(t, x):
        if row is not None:
            try:
                fx = row(t, *x)
                if all(map(math.isfinite, fx)):
                    return fx
            except Exception:
                pass
        return spec.call_rhs(t, np.array(x)).tolist()

    def step(t, x, ds):
        return [xj + fj * dj if dj != 0.0 else xj for xj, fj, dj in zip(x, f(t, x), ds)]

    x = spec.initial.tolist()
    lefts, rights = [], []
    for t, ds, es in zip(grid.tolist(), deltas.tolist(), cont.tolist() + [[]]):
        lefts += x
        if any(ds):
            x = step(t, x, ds)
        rights += x
        if any(es):
            x = step(t, x, es)
    return np.reshape(lefts, deltas.shape), np.reshape(rights, deltas.shape)


def _euler_time_only(spec: SystemSpec, grid: np.ndarray, deltas: np.ndarray, cont: np.ndarray):
    """f(t) evaluated once at the rows the loop evaluates, then one cumsum."""
    jumps, moves = deltas != 0.0, cont != 0.0
    at = np.nonzero(jumps.any(axis=1) | np.append(moves.any(axis=1), False))[0]
    f = np.zeros_like(deltas)
    f[at] = spec.call_rhs_many(grid[at], f[at])
    # x + -0.0 keeps the bits of x, as the loop's masking does; a state that
    # overflows is reported by solve, without float warnings
    with np.errstate(over="ignore", invalid="ignore"):
        atoms = np.where(jumps, f * deltas, -0.0)
        cells = np.where(moves, f[:-1] * cont, -0.0)
        return _running_sums(atoms, cells, spec.initial)


def _euler_linear(spec: SystemSpec, grid: np.ndarray, deltas: np.ndarray, cont: np.ndarray):
    """x + c * x * d per component over Python floats, then the loop's rhs checks."""
    c = spec.rhs._linear
    left, right = np.empty_like(deltas), np.empty_like(deltas)
    for j, (cj, x, ds, es) in enumerate(zip(c.tolist(), spec.initial.tolist(),
                                            deltas.T.tolist(), cont.T.tolist())):
        lj, rj = [x], []
        for d, e in zip(ds, es + [0.0]):
            if d != 0.0:
                x = x + cj * x * d
            rj.append(x)
            if e != 0.0:
                x = x + cj * x * e
            lj.append(x)
        left[:, j], right[:, j] = lj[:-1], rj
    # the loop calls f on the left state at a jump row and on the right state
    # at a moving cell; the first call that is not finite raises its error
    moving = np.append(cont.any(axis=1), False)
    with np.errstate(over="ignore", invalid="ignore"):
        bad_jump = deltas.any(axis=1) & ~np.isfinite(c * left).all(axis=1)
        bad_cell = moving & ~np.isfinite(c * right).all(axis=1)
    for k in np.flatnonzero(bad_jump | bad_cell)[:1]:
        spec.call_rhs(grid[k], left[k] if bad_jump[k] else right[k])
    return left, right


def solve_picard(spec: SystemSpec, grid: np.ndarray, tol: float = 1e-10,
                 max_iter: int = 25):
    """Picard iteration of the integral operator on a fixed grid.

    Each sweep rebuilds the cumulative integral with a trapezoid rule in each
    driving function; atoms use the left value of the previous iterate. After
    the last sweep the jump rows are recomputed from the final left values so
    the jump audit closes exactly. Sweeping stops at a change below ``tol`` or
    at a sweep that repeats the last one bit for bit, NaN and inf included.
    ``max_iter`` below 1 and a ``tol`` that is not positive, which no change
    can get below, are DomainErrors.

    Returns (left, right, converged, iterations, last_change, warnings).
    """
    _check_sweeps(tol, max_iter)
    return _picard(spec, [grid], _grid_tables(spec, [grid]), tol, max_iter)[0][:6]


def _check_sweeps(tol: float, max_iter: int) -> None:
    if max_iter < 1:
        raise DomainError("max_iter must be at least 1")
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")


def _picard(spec: SystemSpec, grids: Sequence[np.ndarray], tables: Sequence[tuple],
            tol: float, max_iter: int) -> list[tuple]:
    """:func:`solve_picard` on each grid with its :func:`_grid_tables` entry,
    with the bits of one run per grid. The grids still sweeping are stacked,
    a zero cell between two: one rhs batch and one set of elementwise ops per
    sweep, while the sums and stop tests are per grid. Per grid: (left, right,
    converged, iterations, last_change, warnings, f at the jump rows)."""
    def stack(members):  # row starts and end, times, jump masses and jump rows
        starts = np.cumsum([0] + [len(grids[i]) for i in members]).tolist()
        deltas = np.concatenate([tables[i][1] for i in members])
        times = np.concatenate([grids[i] for i in members])
        return starts, times, deltas, np.flatnonzero(deltas.any(axis=1))

    left = [np.tile(spec.initial, (len(grid), 1)) for grid in grids]
    right = [x.copy() for x in left]
    stops, stacked, gap = [None] * len(grids), None, np.zeros((1, spec.dim))
    for iterations in range(1, max_iter + 1):
        sweeping = [i for i, stop in enumerate(stops) if stop is None]
        if not sweeping:
            break
        if sweeping != stacked:
            stacked, (starts, times, deltas, rows) = sweeping, stack(sweeping)
            spans = list(zip(sweeping, starts, starts[1:]))
            n = starts.pop()
            # one rhs batch per sweep: the left rows, then the right states of the jump rows
            times = np.concatenate([times, times[rows]])
            cont = np.concatenate([c for i in sweeping for c in (gap, tables[i][2])][1:])
            stack_left = np.concatenate([left[i] for i in sweeping])
            stack_right = np.concatenate([right[i] for i in sweeping])
        f = spec.call_rhs_many(times, np.concatenate([stack_left, stack_right[rows]]))
        f_left = f[:n]
        f_right = f_left.copy()
        f_right[rows] = f[n:]
        # a state that overflows is reported by solve, without float warnings
        with np.errstate(over="ignore", invalid="ignore"):
            atoms = f_left * deltas
            new_left = spec.initial + _resum(atoms, _trapezoid_cells(f_right, f_left, cont), starts)
            new_left[starts] = spec.initial
            new_right = new_left + atoms
            moved = abs(new_left - stack_left)
        for i, lo, hi in spans:
            change = float(moved[lo:hi].max())
            # a repeated iterate changes by 0, or by NaN where it holds inf or NaN
            repeated = not change > 0.0 and (
                np.array_equal(new_left[lo:hi], stack_left[lo:hi], equal_nan=True)
                and np.array_equal(new_right[lo:hi], stack_right[lo:hi], equal_nan=True))
            left[i], right[i] = new_left[lo:hi], new_right[lo:hi]
            if change < tol or repeated or iterations == max_iter:
                stops[i] = (change < tol, iterations, change)
        stack_left, stack_right = new_left, new_right
    # exact jump resweep of every grid against the final left values, in one batch
    starts, times, deltas, rows = stack(range(len(grids)))
    left = np.concatenate(left)
    right = left.copy()
    f = spec.call_rhs_many(times[rows], left[rows])
    with np.errstate(over="ignore", invalid="ignore"):
        right[rows] = left[rows] + f * deltas[rows]
    runs = []
    for lo, hi, f_jumps, (converged, iters, change) in zip(
            starts, starts[1:], np.split(f, np.searchsorted(rows, starts[1:-1])), stops):
        warnings = [] if converged else [f"fixed-point sweep stopped after {iters} iterations "
                                         f"with change {change:.3e} (tolerance {tol:.1e})"]
        runs.append((left[lo:hi], right[lo:hi], converged, iters, change, warnings, f_jumps))
    return runs


@dataclass(frozen=True)
class JumpAuditRow:
    time: float
    component: int
    left: float
    right: float
    expected_increment: float
    residual: float
    residual_ulps: float


@dataclass
class SolveConfig:
    mesh: int = 1024
    picard: bool = True
    tol: float = 1e-10
    max_iter: int = 25
    safety_radius: float | None = None
    error_estimate: bool = True  # also solve the doubled mesh; Picard sweeps both at once


@dataclass
class SolutionReport:
    trajectories: tuple[Trajectory, ...]
    grid: np.ndarray
    method: str
    converged: bool
    iterations: int
    last_change: float
    error_estimate: float | None
    jump_audit: tuple[JumpAuditRow, ...]
    simultaneous_jumps: tuple[float, ...]
    warnings: tuple[str, ...] = field(default_factory=tuple)

    @property
    def final_state(self) -> np.ndarray:
        return np.array([tr.right_values[-1] for tr in self.trajectories])


def _audit_jumps(spec: SystemSpec, grid: np.ndarray, deltas: np.ndarray, left: np.ndarray,
                 right: np.ndarray, f: np.ndarray) -> tuple[JumpAuditRow, ...]:
    """Audit rows, with ``f`` evaluated at the jump rows' left states."""
    jump_rows = np.flatnonzero(deltas.any(axis=1))
    rows = []
    for fx, k in zip(f, jump_rows):
        for j in range(spec.dim):
            if deltas[k, j] == 0.0:
                continue
            expected = left[k, j] + fx[j] * deltas[k, j]
            residual = right[k, j] - expected
            scale = max(abs(left[k, j]), abs(right[k, j]), 1e-300)
            rows.append(JumpAuditRow(
                time=float(grid[k]),
                component=j,
                left=float(left[k, j]),
                right=float(right[k, j]),
                expected_increment=float(fx[j] * deltas[k, j]),
                residual=float(residual),
                residual_ulps=float(abs(residual) / np.spacing(scale)),
            ))
    return tuple(rows)


def solve(spec: SystemSpec, config: SolveConfig | None = None) -> SolutionReport:
    """Integrate the system and report trajectories with a jump audit.

    The error estimate solves the system on a doubled mesh too and takes the
    largest difference at shared grid times; pass
    ``SolveConfig(error_estimate=False)`` to skip it. Picard sweeps both
    grids together; when that raises, the grids run again one at a time, so
    errors come as from two runs one after the other: a state that is not
    finite raises at its first grid time, before the next grid runs.
    """
    config = config or SolveConfig()
    horizon = spec.horizon if spec.horizon is not None else spec.interval[1]
    meshes = (config.mesh, 2 * config.mesh) if config.error_estimate else (config.mesh,)
    grids = [system_grid(spec.derivators, horizon, mesh) for mesh in meshes]
    if config.picard:
        _check_sweeps(config.tol, config.max_iter)
    tables, runs = _grid_tables(spec, grids), []
    if config.picard and len(grids) > 1:
        try:
            runs = _picard(spec, grids, tables, config.tol, config.max_iter)
        except RhsEvaluationError:
            pass  # the loop below reruns the grids one at a time
    for k, (grid, table) in enumerate(zip(grids, tables)):
        if k == len(runs):
            if config.picard:
                runs += _picard(spec, [grid], [table], config.tol, config.max_iter)
            else:
                runs.append(_euler(spec, grid, table, config.safety_radius))
        left, right = runs[k][:2]
        _raise_at_first(~(np.isfinite(left) & np.isfinite(right)).all(axis=1), grid, "state")
    grid, (jumps, deltas, _) = grids[0], tables[0]
    left, right, conv, iters, change, warns, f_jumps = runs[0]

    err = None
    if config.error_estimate:  # the doubled grid holds the coarse one
        err = float(np.max(np.abs(left - runs[1][0][grids[1].searchsorted(grid)])))

    trajectories = tuple(
        Trajectory._tabled(grid, left[:, j], right[:, j], d, jumps[:, j], deltas[:, j])
        for j, d in enumerate(spec.derivators)
    )
    together = np.count_nonzero(deltas, axis=1) >= 2
    sim = tuple(grid[together].tolist())
    all_warns = list(warns)
    if sim:
        all_warns.append(
            "multiple components jump together at "
            + ", ".join(f"t={t}" for t in sim)
            + "; the shared pre-jump state feeds every component"
        )
    if f_jumps is None:  # Euler: f at the jump rows' left states, for the audit
        rows = np.flatnonzero(deltas.any(axis=1))
        f_jumps = spec.call_rhs_many(grid[rows], left[rows])
    return SolutionReport(
        trajectories=trajectories,
        grid=grid,
        method="picard" if config.picard else "euler",
        converged=conv,
        iterations=iters,
        last_change=change,
        error_estimate=err,
        jump_audit=_audit_jumps(spec, grid, deltas, left, right, f_jumps),
        simultaneous_jumps=sim,
        warnings=tuple(all_warns),
    )
