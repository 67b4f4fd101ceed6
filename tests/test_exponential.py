"""Exponential solutions of x'_g = c x against closed forms."""

import math

import numpy as np
import pytest

from stieltjes import (
    CONDITIONING_TOL,
    POSITIVE_FACTORS,
    SIGN_CHANGING,
    VANISHING,
    DegenerateCoefficientError,
    Derivator,
    DomainError,
    GExponential,
    Integrand,
    Jump,
    LinearCoefficient,
    LinearProfile,
    RhsEvaluationError,
    Segment,
    TabulatedProfile,
    g_exponential,
    transform_coefficient,
    uniform_grid,
    verify_linear_solution,
)
from stieltjes.calculus import _cell_integrals

CLOSED_FORM_RTOL = 1e-12
VERIFY_TOL = 1e-6


def identity_with_jump(delta, at=0.5):
    return Derivator.identity(0.0, 1.0, jumps=[Jump(at, delta)])


def reference_trajectory(lc, grid_hint):
    """Left and right values of GExponential.trajectory by its original per-point loop."""
    d = lc.derivator
    by_at = {f.at: f for f in lc.jump_factors}
    grid = uniform_grid(d, grid_hint)
    cont = _cell_integrals(d, lc.c, grid)
    n = len(grid)
    integral = np.empty(n)
    sign = np.empty(n)
    zeroed = np.zeros(n, dtype=bool)
    acc = 0.0
    sgn = 1.0
    dead = False
    integral[0] = acc
    sign[0] = sgn
    for i in range(n - 1):
        f = by_at.get(float(grid[i]))
        if f is not None:
            if f.factor == 0.0:
                dead = True
            else:
                acc += math.log(abs(f.factor))
                if f.factor < 0.0:
                    sgn = -sgn
        acc += cont[i]
        integral[i + 1] = acc
        sign[i + 1] = sgn
        zeroed[i + 1] = dead
    left = np.where(zeroed, 0.0, sign * np.exp(integral))
    factors = np.array([by_at[float(t)].factor if float(t) in by_at else 1.0 for t in grid])
    return left, left * factors


def many_jumps(deltas):
    """Alternating rising and falling cuts with a jump at each interior cut."""
    edges = np.linspace(0.0, 1.0, len(deltas) + 2)
    segments = [Segment(lo, hi, LinearProfile(1.5 if k % 2 else -0.5))
                for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]))]
    return Derivator((0.0, 1.0), segments,
                     [Jump(float(at), dl) for at, dl in zip(edges[1:-1], deltas)])


class TestClosedForms:
    def test_plain_exponential(self):
        lc = LinearCoefficient(Derivator.identity(0.0, 1.0), lambda t: 1.0)
        assert g_exponential(lc, 1.0) == pytest.approx(math.e, rel=CLOSED_FORM_RTOL)
        assert g_exponential(lc, 0.0) == 1.0

    def test_time_varying_coefficient(self):
        # c(t) = t gives exp(t^2 / 2)
        lc = LinearCoefficient(Derivator.identity(0.0, 1.0), lambda t: t)
        for t in (0.25, 0.5, 1.0):
            assert g_exponential(lc, t) == pytest.approx(
                math.exp(0.5 * t * t), rel=CLOSED_FORM_RTOL)

    def test_falling_segment_integrates_signed(self):
        tent = Derivator((0.0, 1.0), [
            Segment(0.0, 0.5, LinearProfile(2.0)),
            Segment(0.5, 1.0, LinearProfile(-1.0)),
        ], [])
        lc = LinearCoefficient(tent, lambda t: 3.0)
        # g(1) - g(0) = 1.0 - 0.5 = 0.5
        assert g_exponential(lc, 1.0) == pytest.approx(
            math.exp(1.5), rel=CLOSED_FORM_RTOL)

    def test_single_jump_multiplies_by_factor(self):
        lc = LinearCoefficient(identity_with_jump(1.0), lambda t: 1.0)
        # factor 1 + 1*1 = 2 applies strictly after t = 0.5
        assert g_exponential(lc, 0.5) == pytest.approx(
            math.exp(0.5), rel=CLOSED_FORM_RTOL)
        assert g_exponential(lc, 0.75) == pytest.approx(
            2.0 * math.exp(0.75), rel=CLOSED_FORM_RTOL)

    def test_step_coefficient(self):
        # c = 1 from b on: the continuous integral is cut at the step
        rng = np.random.default_rng(47)
        for b in [0.7813563413389097, *rng.uniform(0.05, 0.95, size=20).tolist()]:
            step = Integrand.piecewise_polynomial([0.0, b, 1.0], [[0.0], [1.0]])
            lc = LinearCoefficient(Derivator.identity(0.0, 1.0), step)
            assert g_exponential(lc, 1.0) == pytest.approx(
                math.exp(1.0 - b), rel=CLOSED_FORM_RTOL)

    def test_outside_interval_rejected(self):
        lc = LinearCoefficient(Derivator.identity(0.0, 1.0), lambda t: 1.0)
        with pytest.raises(DomainError):
            g_exponential(lc, 1.5)


class TestRegimes:
    def test_positive_factors(self):
        lc = LinearCoefficient(identity_with_jump(1.0), lambda t: 1.0)
        assert lc.regime == POSITIVE_FACTORS
        assert lc.negative_factor_jumps == ()
        assert lc.zero_factor_jumps == ()

    def test_sign_changing_flips_after_the_jump(self):
        # factor 1 + 1*(-2) = -1: magnitude unchanged, sign flips
        lc = LinearCoefficient(identity_with_jump(-2.0), lambda t: 1.0)
        assert lc.regime == SIGN_CHANGING
        assert g_exponential(lc, 0.5) == pytest.approx(
            math.exp(0.5), rel=CLOSED_FORM_RTOL)
        assert g_exponential(lc, 0.75) == pytest.approx(
            -math.exp(0.75), rel=CLOSED_FORM_RTOL)

    def test_two_flips_restore_the_sign(self):
        d = Derivator.identity(
            0.0, 1.0, jumps=[Jump(0.25, -2.0), Jump(0.5, -2.0)])
        lc = LinearCoefficient(d, lambda t: 1.0)
        assert lc.sign_before(0.4) == -1.0
        assert lc.sign_before(0.9) == 1.0
        assert g_exponential(lc, 0.9) > 0.0

    def test_vanishing_is_exactly_zero_after_t0(self):
        lc = LinearCoefficient(identity_with_jump(-1.0), lambda t: 1.0)
        assert lc.regime == VANISHING
        assert lc.vanishing_time == 0.5
        # left value at t0 is still alive
        assert g_exponential(lc, 0.5) == pytest.approx(
            math.exp(0.5), rel=CLOSED_FORM_RTOL)
        assert g_exponential(lc, 0.6) == 0.0
        assert g_exponential(lc, 1.0) == 0.0

    def test_transformed_coefficient(self):
        lc = LinearCoefficient(identity_with_jump(1.0), lambda t: 1.0)
        assert transform_coefficient(lc, 0.25) == 1.0
        assert transform_coefficient(lc, 0.5) == math.log(2.0)

    def test_transformed_blows_up_on_zero_factor(self):
        lc = LinearCoefficient(identity_with_jump(-1.0), lambda t: 1.0)
        with pytest.raises(DegenerateCoefficientError):
            transform_coefficient(lc, 0.5)

    def test_near_zero_factor_warns(self):
        delta = -(1.0 - 5e-9)
        lc = LinearCoefficient(identity_with_jump(delta), lambda t: 1.0)
        assert lc.regime == POSITIVE_FACTORS
        assert len(lc.warnings) == 1
        assert "conditioned" in lc.warnings[0]
        assert abs(1.0 + delta) < CONDITIONING_TOL

    def test_factor_at_off_jump_is_one(self):
        lc = LinearCoefficient(identity_with_jump(1.0), lambda t: 1.0)
        assert lc.factor_at(0.3) == 1.0
        assert lc.factor_at(0.5) == 2.0

    @pytest.mark.parametrize("query", ["factors_on", "factor_at"])
    def test_factor_queries_check_the_domain(self, query):
        # factor_at(nan) gave 1.0 before, as if g were continuous there
        lc = LinearCoefficient(identity_with_jump(1.0), lambda t: 1.0)
        for t in (5.0, -1.0, float("nan")):
            with pytest.raises(DomainError, match=rf"^time {t} outside"):
                getattr(lc, query)(t)


class TestTrajectory:
    def test_matches_pointwise_values(self):
        lc = LinearCoefficient(identity_with_jump(1.0), lambda t: t)
        traj = GExponential(lc).trajectory(grid_hint=256)
        sample = traj.grid[::37]
        want = np.array([g_exponential(lc, t) for t in sample])
        np.testing.assert_allclose(traj.left_values[::37], want, rtol=1e-10)

    def test_jump_identity_is_exact_multiplication(self):
        lc = LinearCoefficient(identity_with_jump(-2.0), lambda t: 1.0)
        traj = GExponential(lc).trajectory(grid_hint=128)
        i = traj.index_of(0.5)
        assert traj.right_values[i] == traj.left_values[i] * (-1.0)
        off = traj.right_values == traj.left_values
        assert off.sum() == len(traj.grid) - 1

    def test_vanishing_trajectory_is_zero_bitwise(self):
        lc = LinearCoefficient(identity_with_jump(-1.0), lambda t: 1.0)
        traj = GExponential(lc).trajectory(grid_hint=128)
        i = traj.index_of(0.5)
        assert traj.right_values[i] == 0.0
        assert np.all(traj.left_values[i + 1:] == 0.0)
        assert np.all(traj.left_values[: i + 1] > 0.0)


    @pytest.mark.parametrize("deltas,regime", [
        ((1.0,), POSITIVE_FACTORS),
        ((-2.0,), SIGN_CHANGING),
        ((-1.0,), VANISHING),
        ((0.7, -0.3, 1.9, -0.9), POSITIVE_FACTORS),
        ((0.7, -3.0, 1.9, -2.5, -4.0, 0.2), SIGN_CHANGING),
        ((0.7, -3.0, -1.0, -2.5, 0.2, -1.0), VANISHING),
    ])
    def test_matches_the_scalar_accumulation_loop(self, deltas, regime):
        d = identity_with_jump(deltas[0]) if len(deltas) == 1 else many_jumps(deltas)
        lc = LinearCoefficient(d, Integrand.polynomial([1.0]))
        assert lc.regime == regime
        traj = GExponential(lc).trajectory(grid_hint=256)
        left, right = reference_trajectory(lc, 256)
        assert np.array_equal(traj.left_values, left)
        assert np.array_equal(traj.right_values, right)

    def test_factors_on_matches_factor_at(self):
        lc = LinearCoefficient(many_jumps((0.7, -3.0, -1.0)), Integrand.polynomial([1.0]))
        ts = np.array([0.0, 0.25, 0.3, 0.5, 0.75, 1.0])
        np.testing.assert_array_equal(lc.factors_on(ts), [1.0, 1.7, 1.0, -2.0, 0.0, 1.0])
        assert [lc.factor_at(t) for t in ts] == lc.factors_on(ts).tolist()


class TestVerification:
    @pytest.mark.parametrize("delta,regime", [
        (1.0, POSITIVE_FACTORS),
        (-2.0, SIGN_CHANGING),
        (-1.0, VANISHING),
    ])
    def test_reports_pass_in_every_regime(self, delta, regime):
        lc = LinearCoefficient(identity_with_jump(delta), lambda t: 1.0)
        report = verify_linear_solution(lc, grid_hint=1024, pass_tol=VERIFY_TOL)
        assert report.regime == regime
        assert report.passed
        assert report.max_residual < VERIFY_TOL
        assert report.jump_identity_exact

    def test_no_jump_report(self):
        lc = LinearCoefficient(Derivator.identity(0.0, 1.0), lambda t: t)
        report = verify_linear_solution(lc)
        assert report.passed and report.jump_identity_exact
        assert report.warnings == ()

    def test_the_grid_jumps_are_looked_up_once(self, monkeypatch):
        """For the trajectory's factors; its ``Trajectory`` keeps that index,
        and the jump identity reads it."""
        calls = []
        lookup = Derivator._jump_index
        monkeypatch.setattr(Derivator, "_jump_index",
                            lambda self, ts: calls.append(len(ts)) or lookup(self, ts))
        lc = LinearCoefficient(identity_with_jump(-2.0), lambda t: 1.0)
        report = verify_linear_solution(lc, grid_hint=64)
        assert len(calls) == 1
        assert report.jump_identity_exact


class TestOverflow:
    """e = exp(1e300 t) on the slope-1e300 identity overflows for every t > 0."""

    @staticmethod
    def steep(slope=1e300):
        return Derivator((0.0, 1.0), [Segment(0.0, 1.0, LinearProfile(slope))])

    @pytest.mark.parametrize("c", [1.0, 1e10])  # 1e10: the integral itself overflows
    def test_a_point_value_that_overflows_is_a_typed_error(self, c):
        lc = LinearCoefficient(self.steep(), Integrand.polynomial([c]))
        assert g_exponential(lc, 0.0) == 1.0
        with pytest.raises(RhsEvaluationError,
                           match=r"^exponential is not finite at t=0\.5; the solution overflows$"):
            g_exponential(lc, 0.5)

    def test_a_trajectory_that_overflows_names_its_first_grid_time(self):
        lc = LinearCoefficient(self.steep(), lambda t: 1.0)
        with pytest.raises(RhsEvaluationError,
                           match=r"^exponential is not finite at t=0\.125; the solution overflows$"):
            GExponential(lc).trajectory(grid_hint=8)

    def test_a_residual_that_overflows_names_its_first_grid_time(self):
        # e(t) = exp(t) stays finite, but c * e passes the largest float once e > 1.797
        lc = LinearCoefficient(self.steep(1e-308), Integrand.polynomial([1e308]))
        with pytest.raises(RhsEvaluationError,
                           match=r"^residual is not finite at t=0\.625; c \* e overflows$"):
            verify_linear_solution(lc, grid_hint=8)


class TestScalarClosureCoefficient:
    def test_scalar_first_call_does_not_fool_the_probe(self):
        # LinearCoefficient calls c at the jump with a scalar before any
        # grid evaluation; a closure that ignores its argument must still
        # be seen as scalar-only
        d = Derivator((0.0, 1.0), [
            Segment(0.0, 0.5, LinearProfile(1.0)),
            Segment(0.5, 1.0, TabulatedProfile(((0.6, 0.0), (0.8, 0.5), (0.9, 0.7)))),
        ], [Jump(0.5, 1.0)])
        traj = GExponential(LinearCoefficient(d, lambda t: 0.4)).trajectory(16)
        ref = GExponential(LinearCoefficient(d, Integrand.constant(0.4))).trajectory(16)
        assert traj.left_values.tobytes() == ref.left_values.tobytes()
        assert traj.right_values.tobytes() == ref.right_values.tobytes()
