"""Turbulent plume rise through a layered ambient, driven in flux variables.

The state is (q, m, beta): volume flux, squared momentum flux and buoyancy
flux. Height plays the role of time. The volume and momentum equations are
driven by height itself; the buoyancy equation is driven by the ambient
density profile, so a density interface (a jump of the profile) produces a
buoyancy jump Delta beta = C * q * Delta rho with q at its value just below
the interface, while q and m stay continuous across it.

Geometry comes back out of the fluxes by b = q * m^(-1/4) (radius),
w = sqrt(m) / q (centreline velocity) and theta = beta / q (buoyancy).

The default coefficients correspond to a top-hat entrainment constant of
0.0833 and a mixing ratio of 1.2; they are illustrative, not a calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Sequence

import numpy as np

from .derivator import ConstantProfile, Derivator, Jump, LinearProfile, Segment
from .errors import DomainError, RhsEvaluationError
from .solver import SolutionReport, SolveConfig, SystemSpec, solve


@dataclass(frozen=True)
class PlumeParams:
    entrainment: float = 0.0833
    mixing: float = 1.2
    gravity: float = 9.81
    reference_density: float = 1000.0

    def __post_init__(self):
        if self.entrainment <= 0 or self.mixing <= 0:
            raise DomainError("entrainment and mixing must be positive")
        if self.gravity <= 0 or self.reference_density <= 0:
            raise DomainError("gravity and reference density must be positive")

    @property
    def volume_coefficient(self) -> float:
        """A in dq = A m^(1/4) dz."""
        return 2.0 * self.entrainment

    @property
    def momentum_coefficient(self) -> float:
        """B in dm = B q beta dz."""
        return 4.0 * self.gravity * self.mixing ** 2

    @property
    def buoyancy_coefficient(self) -> float:
        """C in d(beta) = C q d(rho)."""
        lam2 = self.mixing ** 2
        return 1.0 / (lam2 * (1.0 + lam2) * self.reference_density)


class AmbientDensity:
    """An ambient density profile: positive, bounded variation in height."""

    def __init__(self, rho: Derivator, description: str = "ambient density"):
        self.rho = rho
        self.description = description
        # each segment is monotone, so the lowest values sit at breakpoints
        knots = np.asarray(rho.breakpoints())
        if np.any(rho.eval(knots) <= 0.0) or np.any(rho.eval_right(knots) <= 0.0):
            raise DomainError("ambient density must stay positive")

    @classmethod
    def step(cls, lo: float, hi: float, base: float,
             drops: Sequence[tuple[float, float]]) -> "AmbientDensity":
        """Piecewise-constant profile: base value plus density steps at heights."""
        jumps = sorted((float(z), float(dz)) for z, dz in drops)
        cuts = [lo] + [z for z, _ in jumps if lo < z < hi] + [hi]
        cuts = sorted(set(cuts))
        segs = [Segment(c0, c1, ConstantProfile()) for c0, c1 in zip(cuts, cuts[1:])]
        d = Derivator((lo, hi), segs, [Jump(z, dz) for z, dz in jumps], anchor=base)
        return cls(d, description=f"stepped density, base {base}")

    @classmethod
    def linear(cls, lo: float, hi: float, start: float, gradient: float) -> "AmbientDensity":
        """Linearly stratified profile rho(z) = start + gradient * (z - lo)."""
        if gradient == 0.0:
            d = Derivator((lo, hi), [Segment(lo, hi, ConstantProfile())], anchor=start)
        else:
            d = Derivator((lo, hi), [Segment(lo, hi, LinearProfile(gradient))], anchor=start)
        return cls(d, description=f"linear density, gradient {gradient}")


def _breakdown(m, z) -> RhsEvaluationError:
    return RhsEvaluationError(
        f"momentum flux {m} is not positive at height {z}; "
        "the plume model has broken down"
    )


def _libm_pow(x: np.ndarray, p: float) -> np.ndarray:
    """``x ** p`` element by element through ``math.pow``, the libm ``pow``
    that a scalar power calls; numpy's array power may round differently."""
    out = np.fromiter(map(math.pow, x.ravel().tolist(), repeat(p)), float, x.size)
    return out.reshape(x.shape)


def plume_rhs(A: float, B: float, C: float):
    """The flux right-hand side (A m^(1/4), B q beta, C q) as one function.

    It takes a height ``z`` and a state ``(q, m, beta)``, or heights ``z[:]``
    and states ``X[:, 3]``; row k of the second gives the bits of the first
    at ``(z[k], X[k])``, since the quarter power of an array goes through
    libm ``pow`` per element. It raises :class:`RhsEvaluationError` when the
    momentum flux is not positive, for an array at its first such row.
    """

    def rhs(z, x):
        q, m, beta = np.asarray(x).T
        if isinstance(m, np.ndarray):
            bad = np.flatnonzero(m <= 0.0)
            if bad.size:
                raise _breakdown(m[bad[0]], z[bad[0]])
            quarter = _libm_pow(m, 0.25)
        else:
            if m <= 0.0:
                raise _breakdown(m, z)
            quarter = m ** 0.25
        return np.array([A * quarter, B * q * beta, C * q]).T

    return rhs


def build_plume_system(params: PlumeParams, ambient: AmbientDensity,
                       q0: float, m0: float, beta0: float) -> SystemSpec:
    """Assemble the three-component system in flux variables."""
    if q0 <= 0 or m0 <= 0:
        raise DomainError("initial volume and momentum fluxes must be positive")
    lo, hi = ambient.rho.interval
    height = Derivator.identity(lo, hi)
    rhs = plume_rhs(params.volume_coefficient,
                    params.momentum_coefficient,
                    params.buoyancy_coefficient)
    return SystemSpec([height, height, ambient.rho], rhs, [q0, m0, beta0], rhs_batch=rhs)


@dataclass(frozen=True)
class BuoyancyJumpRow:
    height: float
    beta_left: float
    beta_right: float
    expected_jump: float
    residual: float
    residual_ulps: float


@dataclass(frozen=True)
class PlumeAudit:
    buoyancy_jumps: tuple[BuoyancyJumpRow, ...]
    volume_continuous: bool
    momentum_continuous: bool
    min_momentum: float
    warnings: tuple[str, ...] = field(default_factory=tuple)

    @property
    def jumps_exact(self) -> bool:
        return all(r.residual == 0.0 for r in self.buoyancy_jumps)


def _audit_plume(report: SolutionReport) -> PlumeAudit:
    """Interface rows from the solver's jump audit of the buoyancy component."""
    q_tr, m_tr, _ = report.trajectories
    rows = tuple(
        BuoyancyJumpRow(
            height=r.time,
            beta_left=r.left,
            beta_right=r.right,
            expected_jump=r.expected_increment,
            residual=r.residual,
            residual_ulps=r.residual_ulps,
        )
        for r in report.jump_audit if r.component == 2
    )
    vol_cont = bool(np.all(q_tr.right_values == q_tr.left_values))
    mom_cont = bool(np.all(m_tr.right_values == m_tr.left_values))
    min_m = float(np.min(m_tr.left_values))
    warnings = []
    if min_m < 1e-8 * m_tr.left_values[0]:
        warnings.append(
            f"momentum flux nearly vanishes (min {min_m:.3e}); "
            "the plume is close to breakdown and the geometry inversion degrades"
        )
    return PlumeAudit(
        buoyancy_jumps=rows,
        volume_continuous=vol_cont,
        momentum_continuous=mom_cont,
        min_momentum=min_m,
        warnings=tuple(warnings),
    )


def run_plume(params: PlumeParams, ambient: AmbientDensity,
              q0: float, m0: float, beta0: float,
              config: SolveConfig | None = None) -> tuple[SolutionReport, PlumeAudit]:
    """Integrate the plume through the ambient and audit the interface physics."""
    spec = build_plume_system(params, ambient, q0, m0, beta0)
    report = solve(spec, config or SolveConfig(mesh=2048, picard=True))
    audit = _audit_plume(report)
    return report, audit


def flux_to_geometry(q, m, beta):
    """Recover (radius, velocity, buoyancy) from the flux state.

    b = q m^(-1/4), w = sqrt(m)/q, theta = beta/q; requires q > 0 and m > 0.
    """
    q = np.asarray(q, dtype=float)
    m = np.asarray(m, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if np.any(q <= 0) or np.any(m <= 0):
        raise DomainError("geometry inversion needs positive volume and momentum fluxes")
    b = q * _libm_pow(m, -0.25)
    w = np.sqrt(m) / q
    theta = beta / q
    return b, w, theta
