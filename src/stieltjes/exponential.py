"""The exponential of a linear coefficient along a derivator.

For x'_g = c(t) x with x(a) = 1 the solution off the jump set is a plain
exponential of the running integral; each jump multiplies the value by the
factor 1 + c(t) * delta. Three regimes fall out of the factors' signs:

* all factors positive: the classical positive exponential of the transformed
  coefficient;
* some factor negative (none zero): the solution changes sign after each such
  jump and its magnitude uses log|factor|;
* some factor zero: the solution is annihilated strictly after the first such
  jump and stays identically zero.

The transformed coefficient equals c off jumps and log|1 + c*delta| / delta
at a jump, so each atom contributes exactly log|factor| to the running
integral. Factors inside 1e-14 of zero are treated as exact zeros; factors
inside 1e-8 earn a conditioning warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .calculus import (
    Trajectory,
    _cell_integrals,
    _resum,
    _running_sums,
    _trapezoid_cells,
    uniform_grid,
)
from .derivator import Derivator
from .errors import DegenerateCoefficientError, DomainError
from .measure import SIGNED, Integrand, StieltjesMeasure, _as_integrand

POSITIVE_FACTORS = "positive_factors"
SIGN_CHANGING = "sign_changing"
VANISHING = "vanishing"

ZERO_FACTOR_TOL = 1e-14
CONDITIONING_TOL = 1e-8


@dataclass(frozen=True)
class JumpFactor:
    at: float
    delta: float
    coefficient_value: float
    factor: float


class LinearCoefficient:
    """A coefficient c paired with a derivator, with its jump factors resolved."""

    def __init__(self, derivator: Derivator, c: Integrand | Callable,
                 zero_tol: float = ZERO_FACTOR_TOL,
                 warn_tol: float = CONDITIONING_TOL):
        self.derivator = derivator
        self.c = _as_integrand(c)
        factors = []
        warnings = []
        for j in derivator.jumps:
            cv = float(self.c(j.at))
            factor = 1.0 + cv * j.delta
            if abs(factor) < zero_tol:
                factor = 0.0
            elif abs(factor) < warn_tol:
                warnings.append(
                    f"jump factor at t={j.at} is {factor:.3e}; "
                    "the exponential is badly conditioned there"
                )
            factors.append(JumpFactor(j.at, j.delta, cv, factor))
        self.jump_factors = tuple(factors)
        self.warnings = tuple(warnings)
        self.negative_factor_jumps = tuple(f.at for f in factors if f.factor < 0.0)
        self.zero_factor_jumps = tuple(f.at for f in factors if f.factor == 0.0)
        if self.zero_factor_jumps:
            self.regime = VANISHING
        elif self.negative_factor_jumps:
            self.regime = SIGN_CHANGING
        else:
            self.regime = POSITIVE_FACTORS
        self._neg_ats = np.array(self.negative_factor_jumps)
        # per jump, in the derivator's jump order, with one trailing entry
        # for index -1 (no jump): factor 1.0, log 0.0. The logs use math.log
        # jump by jump, as g_exponential does (numpy's vectorized log can
        # differ from it by an ulp), and a zero factor contributes no log.
        self._factors = np.array([f.factor for f in factors] + [1.0])
        self._log_factors = np.array(
            [math.log(abs(f.factor)) if f.factor != 0.0 else 0.0 for f in factors] + [0.0]
        )

    @property
    def vanishing_time(self) -> float | None:
        """First time the solution is annihilated (None outside the vanishing regime)."""
        return min(self.zero_factor_jumps) if self.zero_factor_jumps else None

    def factors_on(self, times) -> np.ndarray:
        """Jump factor at each time, 1.0 where the derivator does not jump."""
        return self._factors[self.derivator.jump_index(times)]

    def factor_at(self, t: float) -> float:
        return float(self.factors_on(t))

    def transformed(self, t: float) -> float:
        """The coefficient after folding each jump's factor into a log density."""
        t = float(t)
        k = int(self.derivator.jump_index(t))
        if k < 0:
            return float(self.c(t))
        f = self.jump_factors[k]
        if f.factor == 0.0:
            raise DegenerateCoefficientError(
                f"jump factor vanishes at t={t}; the transformed coefficient blows up"
            )
        return math.log(abs(f.factor)) / f.delta

    def sign_before(self, t: float) -> float:
        """(-1) to the number of sign-flipping jumps strictly before t."""
        flips = int(np.searchsorted(self._neg_ats, t, side="left")) if self._neg_ats.size else 0
        return -1.0 if flips % 2 else 1.0


def transform_coefficient(lc: LinearCoefficient, t: float) -> float:
    return lc.transformed(t)


def g_exponential(lc: LinearCoefficient, t: float) -> float:
    """Value at t of the solution of x'_g = c x, x(a) = 1."""
    t = float(t)
    d = lc.derivator
    a, b = d.interval
    if not (a <= t <= b):
        raise DomainError(f"time {t} outside [{a}, {b}]")
    t0 = lc.vanishing_time
    if t0 is not None and t > t0:
        return 0.0
    measure = StieltjesMeasure(d, SIGNED)
    integral = measure._integrate_continuous(lc.c, a, t)
    for f in lc.jump_factors:
        if f.at < t:
            integral += math.log(abs(f.factor))
    return lc.sign_before(t) * math.exp(integral)


class GExponential:
    """The full exponential record: coefficient, regime, and grid evaluation."""

    def __init__(self, lc: LinearCoefficient):
        self.coefficient = lc

    @property
    def regime(self) -> str:
        return self.coefficient.regime

    def at(self, t: float) -> float:
        return g_exponential(self.coefficient, t)

    def trajectory(self, grid_hint: int = 512) -> Trajectory:
        """Evaluate on a grid; jump rows satisfy e(t+) = e(t) * factor exactly."""
        lc = self.coefficient
        d = lc.derivator
        grid = uniform_grid(d, grid_hint)
        cont = _cell_integrals(d, lc.c, grid)
        jump = d.jump_index(grid)
        factors = lc._factors[jump]
        integral, _ = _running_sums(lc._log_factors[jump], cont)
        # the sign flips and the annihilation at grid[i] come from the jumps
        # at grid[:i]; the factor at grid[i] itself acts on the right value
        flips = np.concatenate([[0], np.cumsum(factors < 0.0)[:-1]])
        zeroed = np.concatenate([[False], np.cumsum(factors == 0.0)[:-1] > 0])
        sign = np.where(flips % 2 == 1, -1.0, 1.0)
        left = np.where(zeroed, 0.0, sign * np.exp(integral))
        right = left * factors
        return Trajectory(grid, left, right, d)


@dataclass(frozen=True)
class LinearSolutionReport:
    max_residual: float
    passed: bool
    jump_identity_exact: bool
    regime: str
    warnings: tuple[str, ...]


def verify_linear_solution(lc: LinearCoefficient, grid_hint: int = 1024,
                           pass_tol: float = 1e-6) -> LinearSolutionReport:
    """Check e(t) = 1 + integral of c*e over [a, t) on a fine grid.

    The continuous part is resummed by a trapezoid Riemann-Stieltjes rule and
    every atom contributes c(t) e(t) delta with e at its left value, so the
    residual isolates genuine quadrature or construction error. The jump
    identity e(t+) = e(t) * (1 + c(t) delta) is checked for exactness.
    """
    expo = GExponential(lc)
    traj = expo.trajectory(grid_hint)
    grid = traj.grid
    d = lc.derivator
    gl, gr = traj.g_values()
    cvals = np.asarray(lc.c(grid), dtype=float)
    deltas = d.deltas_on(grid)
    f_left = cvals * traj.left_values
    f_right = cvals * traj.right_values
    cum = _resum(f_left * deltas, _trapezoid_cells(f_right, f_left, gl[1:] - gr[:-1]))
    residual = traj.left_values - 1.0 - cum
    max_res = float(np.max(np.abs(residual)))

    exact = bool(np.all(traj.right_values == traj.left_values * lc.factors_on(grid)))
    return LinearSolutionReport(
        max_residual=max_res,
        passed=bool(max_res < pass_tol),
        jump_identity_exact=exact,
        regime=lc.regime,
        warnings=lc.warnings,
    )
