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
specs pass it as both ``rhs`` and ``rhs_batch``. Picard sweeps and the jump
audit evaluate whole grids through :meth:`SystemSpec.call_rhs_many`, which
uses the batch form when there is one and loops the scalar form when there
is not; the checks and error messages are the scalar ones either way.

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

from .calculus import Trajectory, _cell_integrals, _missing_jumps, _resum, _trapezoid_cells
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
        # the shape every call_rhs result must have, built once: Euler calls it per row
        self._row_shape = (len(self.derivators),)
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
        if out.shape != self._row_shape:
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
        of the scalar loop: its first failing row, its text.
        """
        out = np.empty((len(ts), self.dim))
        if len(ts) and self.rhs_batch is not None:
            try:
                batch = np.asarray(self.rhs_batch(ts, X), dtype=float)
            except Exception:
                pass
            else:
                if batch.shape != out.shape:
                    raise RhsEvaluationError(
                        f"batch right-hand side returned shape {batch.shape}, "
                        f"expected {out.shape}"
                    )
                if np.isfinite(batch).all():
                    return batch
        for k in range(len(ts)):
            out[k] = self.call_rhs(ts[k], X[k])
        return out


@dataclass
class CaratheodoryBound:
    """Safety ball radius plus dominators |f_j(t, x)| <= h_j(t) on the ball."""

    radius: float
    dominators: Sequence
    tau_star: float | None = None

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
    pieces = [np.linspace(a, horizon, mesh + 1)]
    for d in derivators:
        pts = np.asarray(d.breakpoints(), dtype=float)
        pieces.append(pts[(pts > a) & (pts < horizon)])
    grid = np.unique(np.concatenate(pieces))
    return grid


def select_horizon(spec: SystemSpec, bound: CaratheodoryBound, mesh: int = 4096) -> float:
    """Largest grid time the dominator mass certifies inside the safety ball.

    For each component the dominator is integrated against the derivator's
    total-variation measure, cumulatively along a fine grid; the atom at the
    start time counts from the first positive time onward. The returned time
    is a point of the selection grid, not a supremum over the continuum.
    """
    a, b = spec.interval
    grid = system_grid(spec.derivators, b, mesh)
    worst = np.zeros(len(grid))
    for j, d in enumerate(spec.derivators):
        h = bound.dominator_for(j, spec.dim)
        hv = np.asarray(h(grid), dtype=float)
        if np.any(hv < 0):
            raise DomainError(f"dominator for component {j} is negative on the grid")
        atoms = hv * np.abs(d.deltas_on(grid))
        worst = np.maximum(worst, _resum(atoms, np.abs(_cell_integrals(d, h, grid))))
    ok = worst <= bound.radius
    ok[0] = False
    if not np.any(ok):
        raise HorizonSelectionError(
            f"no positive grid time keeps the dominator mass within radius {bound.radius}"
        )
    last = int(np.max(np.nonzero(ok)[0]))
    tau = float(grid[last])
    bound.tau_star = tau
    return tau


def _jump_table(derivators: Sequence[Derivator], grid: np.ndarray) -> np.ndarray:
    """deltas[k, j] = jump of derivator j at grid[k] (zero off jumps)."""
    for d in derivators:
        missing = _missing_jumps(d, grid)
        if missing:
            raise DomainError(f"solver grid is missing jump time {missing[0]}")
    return np.stack([d.deltas_on(grid) for d in derivators], axis=1)


def _continuous_increments(derivators: Sequence[Derivator], grid: np.ndarray) -> np.ndarray:
    """inc[k, j] = g_j(t_{k+1}) - g_j(t_k+), the between-jump advance per cell."""
    inc = np.empty((len(grid) - 1, len(derivators)))
    for j, d in enumerate(derivators):
        inc[:, j] = d.eval(grid[1:]) - d.eval_right(grid[:-1])
    return inc


def _moving_components(moved: np.ndarray) -> list[int]:
    """Per row of a (rows, dim) mask: 0 if no component moves, 2 if all do, 1 otherwise."""
    return (moved.any(axis=1).astype(int) + moved.all(axis=1)).tolist()


def solve_euler(spec: SystemSpec, grid: np.ndarray,
                safety_radius: float | None = None):
    """Forward Euler in measure. Returns (left, right, warnings).

    Components whose increment is exactly zero over a step keep their bits:
    the update is masked, not added, so a constant derivator propagates the
    initial value unchanged. Which components move at each row is known from
    the grid tables before the loop starts, so the loop only steps the state.
    """
    n = len(grid)
    deltas = _jump_table(spec.derivators, grid)
    cont = _continuous_increments(spec.derivators, grid)
    jumps = deltas != 0.0
    moves = cont != 0.0
    jumping = _moving_components(jumps)
    moving = _moving_components(moves)
    times = grid.tolist()
    left = np.empty((n, spec.dim))
    left[0] = spec.initial
    jumped = []
    for k in range(n):
        x = left[k]
        if jumping[k]:
            step = x + spec.call_rhs(times[k], x) * deltas[k]
            x = step if jumping[k] == 2 else np.where(jumps[k], step, x)
            jumped.append((k, x))
        if k == n - 1:
            break
        if moving[k]:
            step = x + spec.call_rhs(times[k], x) * cont[k]
            x = step if moving[k] == 2 else np.where(moves[k], step, x)
        left[k + 1] = x
    right = left.copy()
    for k, x in jumped:
        right[k] = x
    warnings: list[str] = []
    if safety_radius is not None:
        drift = np.max(np.abs(left[1:] - spec.initial), axis=1)
        out = np.nonzero(drift > safety_radius)[0]
        if len(out):
            warnings.append(
                f"state left the safety ball (radius {safety_radius}) "
                f"near t={times[out[0] + 1]}; continuing anyway"
            )
    return left, right, warnings


def solve_picard(spec: SystemSpec, grid: np.ndarray, tol: float = 1e-10,
                 max_iter: int = 25):
    """Picard iteration of the integral operator on a fixed grid.

    Each sweep rebuilds the cumulative integral with a trapezoid rule in each
    driving function; atoms use the left value of the previous iterate. After
    the last sweep the jump rows are recomputed from the final left values so
    the jump audit closes exactly.

    Returns (left, right, converged, iterations, last_change, warnings).
    """
    n = len(grid)
    deltas = _jump_table(spec.derivators, grid)
    cont = _continuous_increments(spec.derivators, grid)
    jump_rows = np.nonzero(np.any(deltas != 0.0, axis=1))[0]

    left = np.tile(spec.initial, (n, 1))
    right = left.copy()
    warnings: list[str] = []
    converged = False
    last_change = np.inf
    iterations = 0
    for sweep in range(max_iter):
        iterations = sweep + 1
        f_left = spec.call_rhs_many(grid, left)
        f_right = f_left.copy()
        f_right[jump_rows] = spec.call_rhs_many(grid[jump_rows], right[jump_rows])
        atoms = f_left * deltas
        new_left = spec.initial + _resum(atoms, _trapezoid_cells(f_right, f_left, cont))
        # x + 0.0 turns an initial -0.0 into +0.0
        new_left[0] = spec.initial
        new_right = new_left + atoms
        last_change = float(np.max(np.abs(new_left - left)))
        left, right = new_left, new_right
        if last_change < tol:
            converged = True
            break
    if not converged:
        warnings.append(
            f"fixed-point sweep stopped after {iterations} iterations "
            f"with change {last_change:.3e} (tolerance {tol:.1e})"
        )
    # exact jump resweep against the final left values
    right = left.copy()
    right[jump_rows] = left[jump_rows] + (
        spec.call_rhs_many(grid[jump_rows], left[jump_rows]) * deltas[jump_rows]
    )
    return left, right, converged, iterations, last_change, warnings


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
    error_estimate: bool = True


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


def _audit_jumps(spec: SystemSpec, grid: np.ndarray, deltas: np.ndarray,
                 left: np.ndarray, right: np.ndarray) -> tuple[JumpAuditRow, ...]:
    jump_rows = np.nonzero(np.any(deltas != 0.0, axis=1))[0]
    f = spec.call_rhs_many(grid[jump_rows], left[jump_rows])
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


def _run(spec: SystemSpec, grid: np.ndarray, config: SolveConfig):
    if config.picard:
        left, right, conv, iters, change, warns = solve_picard(
            spec, grid, tol=config.tol, max_iter=config.max_iter
        )
    else:
        left, right, warns = solve_euler(
            spec, grid, safety_radius=config.safety_radius
        )
        conv, iters, change = True, 1, 0.0
    return left, right, conv, iters, change, warns


def solve(spec: SystemSpec, config: SolveConfig | None = None) -> SolutionReport:
    """Integrate the system and report trajectories with a jump audit.

    The error estimate reruns the scheme on a doubled mesh and takes the
    largest difference at shared grid times; pass
    ``SolveConfig(error_estimate=False)`` to skip the second run.
    """
    config = config or SolveConfig()
    a, b = spec.interval
    horizon = spec.horizon if spec.horizon is not None else b
    grid = system_grid(spec.derivators, horizon, config.mesh)
    left, right, conv, iters, change, warns = _run(spec, grid, config)

    err = None
    if config.error_estimate:
        fine_grid = system_grid(spec.derivators, horizon, 2 * config.mesh)
        f_left, _, _, _, _, _ = _run(spec, fine_grid, config)
        pos = np.searchsorted(fine_grid, grid)
        exact = (pos < len(fine_grid)) & (fine_grid[np.clip(pos, 0, len(fine_grid) - 1)] == grid)
        err = float(np.max(np.abs(left[exact] - f_left[pos[exact]])))
        if not np.all(exact):
            warns = list(warns) + [
                "coarse grid not fully contained in the doubled grid; "
                "error estimate taken over the shared points only"
            ]

    trajectories = tuple(
        Trajectory(grid, left[:, j], right[:, j], spec.derivators[j])
        for j in range(spec.dim)
    )
    deltas = _jump_table(spec.derivators, grid)
    together = np.count_nonzero(deltas, axis=1) >= 2
    sim = tuple(grid[together].tolist())
    all_warns = list(warns)
    if sim:
        all_warns.append(
            "multiple components jump together at "
            + ", ".join(f"t={t}" for t in sim)
            + "; the shared pre-jump state feeds every component"
        )
    return SolutionReport(
        trajectories=trajectories,
        grid=grid,
        method="picard" if config.picard else "euler",
        converged=conv,
        iterations=iters,
        last_change=change,
        error_estimate=err,
        jump_audit=_audit_jumps(spec, grid, deltas, left, right),
        simultaneous_jumps=sim,
        warnings=tuple(all_warns),
    )
