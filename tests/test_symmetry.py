"""Exact symmetries of the measure, checked bit for bit on random derivators.

Negating every piece of a derivator (linear slopes, power scales, tabulated
ordinates, jump masses and the anchor) negates g exactly in floating point,
since IEEE rounding is symmetric under a sign change. So g -> -g with
f -> -f leaves the system x' = f dg, and each scheme's arithmetic, unchanged;
c -> -c does the same for the g-exponential; and the positive part of g is
the negative part of -g. Shifting g by a constant leaves the measure alone
too: the primitive and the g-exponential keep their bits under a shift, but
the solvers take their increments from values of g, where a large anchor
cancels.
"""

import math

import numpy as np
import pytest

from helpers import random_derivator, same_bits
from stieltjes import (
    NEGATIVE,
    NEGATIVE_PART,
    POSITIVE,
    POSITIVE_PART,
    ConstantProfile,
    Derivator,
    GExponential,
    Integrand,
    Jump,
    LinearCoefficient,
    LinearProfile,
    PowerProfile,
    Segment,
    StieltjesMeasure,
    SystemSpec,
    TabulatedProfile,
    primitive,
    solve_euler,
    solve_picard,
    system_grid,
    uniform_grid,
)

DRAWS = 200
MESH = 64


def negated_profile(p):
    if isinstance(p, LinearProfile):
        return LinearProfile(-p.slope)
    if isinstance(p, PowerProfile):
        return PowerProfile(p.exponent, -p.scale)
    if isinstance(p, TabulatedProfile):
        return TabulatedProfile(tuple((x, -y) for x, y in p.points))
    assert isinstance(p, ConstantProfile)
    return p


def negated(d):
    """-g: every slope, scale, ordinate, jump mass and the anchor negated."""
    return Derivator(d.interval,
                     [Segment(s.lo, s.hi, negated_profile(s.profile)) for s in d.segments],
                     [Jump(j.at, -j.delta) for j in d.jumps], anchor=-d.anchor)


def shifted(d, c):
    """g + c: the same measure."""
    return Derivator(d.interval, d.segments, d.jumps, anchor=d.anchor + c)


def f(t, x):
    return math.cos(3.0 * t) * x + 0.3


def system(d, sign=1.0):
    """x' = sign * (cos(3t) x + 0.3) dg, x(0) = 1, with a batch form that keeps
    the scalar form's bits."""
    return SystemSpec(
        [d], lambda t, x: sign * f(t, x), [1.0],
        rhs_batch=lambda ts, X: sign * np.array([f(t, x) for t, x in zip(ts.tolist(), X)]),
    )


def draws(seed=3):
    rng = np.random.default_rng(seed)
    return [random_derivator(rng) for _ in range(DRAWS)]


@pytest.mark.parametrize("scheme", [solve_euler, solve_picard])
def test_sign_reversal_leaves_the_solvers_bits(scheme):
    for d in draws():
        grid = system_grid([d], d.b, MESH)
        want = scheme(system(d), grid)
        got = scheme(system(negated(d), -1.0), grid)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


def test_sign_reversal_leaves_the_exponentials_bits():
    c = Integrand.polynomial([0.3, -0.7])
    minus_c = Integrand.polynomial([-0.3, 0.7])
    for d in draws():
        want = GExponential(LinearCoefficient(d, c)).trajectory(MESH)
        got = GExponential(LinearCoefficient(negated(d), minus_c)).trajectory(MESH)
        assert same_bits(got.grid, want.grid)
        assert same_bits(got.left_values, want.left_values)
        assert same_bits(got.right_values, want.right_values)


def test_positive_part_is_the_negative_part_of_the_reversal():
    rng = np.random.default_rng(4)
    for d in draws():
        minus = negated(d)
        grid = uniform_grid(d, 16)
        assert same_bits(minus.variation_cumulative(grid, NEGATIVE),
                         d.variation_cumulative(grid, POSITIVE))
        lo, hi = sorted(rng.uniform(0.0, 1.0, size=2))
        assert (StieltjesMeasure(minus, NEGATIVE_PART).interval(lo, hi)
                == StieltjesMeasure(d, POSITIVE_PART).interval(lo, hi))


def test_anchor_shift_leaves_the_primitives_bits():
    # the primitive sums cell integrals and atoms, which read g only through
    # its increments and jump masses
    v = Integrand.polynomial([0.5, -0.25, 1.0])
    for d in draws():
        want = primitive(StieltjesMeasure(d), v, grid_hint=MESH)
        got = primitive(StieltjesMeasure(shifted(d, 2.0 ** 40)), v, grid_hint=MESH)
        assert same_bits(got.grid, want.grid)
        assert same_bits(got.left_values, want.left_values)
        assert same_bits(got.right_values, want.right_values)


def test_anchor_shift_leaves_the_exponentials_bits():
    c = Integrand.polynomial([0.3, -0.7])
    for d in draws():
        want = GExponential(LinearCoefficient(d, c)).trajectory(MESH)
        got = GExponential(LinearCoefficient(shifted(d, 2.0 ** 40), c)).trajectory(MESH)
        assert same_bits(got.grid, want.grid)
        assert same_bits(got.left_values, want.left_values)
        assert same_bits(got.right_values, want.right_values)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 13: the solvers' increment "
                   "g(t_{k+1}) - (g(t_k) + delta_k) cancels against the anchor")
@pytest.mark.parametrize("scheme", [solve_euler, solve_picard])
def test_anchor_shift_leaves_the_solvers_bits(scheme):
    for d in draws():
        grid = system_grid([d], d.b, MESH)
        want = scheme(system(d), grid)
        got = scheme(system(shifted(d, 2.0 ** 40)), grid)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
