"""Exact symmetries of the measure, checked bit for bit on random derivators.

Negating every piece of a derivator (linear slopes, power scales, tabulated
ordinates, jump masses and the anchor) negates g exactly in floating point,
since IEEE rounding is symmetric under a sign change. So g -> -g with
f -> -f leaves the system x' = f dg, and each scheme's arithmetic, unchanged;
c -> -c does the same for the g-exponential; and the positive part of g is
the negative part of -g. The positive part, negative part and total
variation are the signed measures of the Jordan parts P, N and V = P + N of
g, rule for rule. Shifting g by a constant leaves the measure alone too: the
primitive and the g-exponential keep their bits under a shift, but the
solvers, the derivative ladder, the FTC round trip and the linear check take
differences of values of g, where a large anchor cancels.
"""

import math

import numpy as np
import pytest

from helpers import (
    exact_power_derivator,
    long_derivator,
    random_derivator,
    random_subinterval,
    same_bits,
)
from stieltjes import (
    NEGATIVE,
    NEGATIVE_PART,
    NONDECREASING,
    NONINCREASING,
    POSITIVE,
    POSITIVE_PART,
    TOTAL,
    TOTAL_VARIATION,
    ConstantProfile,
    Derivator,
    GExponential,
    Integrand,
    Jump,
    LinearCoefficient,
    LinearProfile,
    PowerProfile,
    Segment,
    StieltjesError,
    StieltjesMeasure,
    SystemSpec,
    TabulatedProfile,
    ftc_roundtrip,
    g_derivative_fn,
    primitive,
    solve_euler,
    solve_picard,
    system_grid,
    uniform_grid,
    verify_linear_solution,
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


def jordan_parts(d):
    """P, N and V = P + N of g, built from its segments and jumps with anchor 0:
    falling profiles negated, the other direction's segments constant, and the
    jumps split by sign with mass |delta|."""
    def part(keep):
        def profile(s):
            if s.direction not in keep:
                return ConstantProfile()
            return negated_profile(s.profile) if s.direction == NONINCREASING else s.profile
        segments = [Segment(s.lo, s.hi, profile(s)) for s in d.segments]
        jumps = [Jump(j.at, abs(j.delta)) for j in d.jumps
                 if (NONDECREASING if j.delta > 0 else NONINCREASING) in keep]
        return Derivator(d.interval, segments, jumps, anchor=0.0)
    return part({NONDECREASING}), part({NONINCREASING}), part({NONDECREASING, NONINCREASING})


def jordan_draws(n=1000, seed=8):
    rng = np.random.default_rng(seed)
    for k in range(n):
        if k % 20 == 0:
            yield rng, exact_power_derivator(rng)
        elif k % 20 == 1:
            yield rng, long_derivator(rng, nseg=int(rng.integers(8, 200)))
        else:
            yield rng, random_derivator(rng)


def test_the_jordan_parts_give_the_unsigned_measures_bits():
    # each signature's rule is the signed rule against P, N or V: the sign
    # factors only flip or zero a segment's density and a jump's mass
    v = Integrand.polynomial([0.5, -0.25, 1.0])
    step = Integrand.piecewise_polynomial([0.0, 0.37, 1.0], [[1.0, 2.0], [-0.5]])
    kinds = {POSITIVE_PART: POSITIVE, NEGATIVE_PART: NEGATIVE, TOTAL_VARIATION: TOTAL}
    for rng, d in jordan_draws():
        parts = jordan_parts(d)
        lo, hi = random_subinterval(rng, d)
        f = v if rng.random() < 0.5 else step
        times = np.concatenate([rng.uniform(d.a, d.b, 8), [j.at for j in d.jumps], [d.a, d.b]])
        for (signature, kind), part in zip(kinds.items(), parts):
            assert same_bits(StieltjesMeasure(d, signature).integrate(f, lo, hi),
                             StieltjesMeasure(part).integrate(f, lo, hi))
            want = (parts[0].eval(times) + parts[1].eval(times) if kind == TOTAL
                    else part.eval(times))
            assert same_bits(d.variation_cumulative(times, kind), want)
            for t in times[times < d.b].tolist():
                assert same_bits(StieltjesMeasure(d, signature).point(t), part.delta_at(t))


def value_or_error(fn, *args):
    """fn's value, or the type and text of the library error it raised."""
    try:
        return fn(*args)
    except StieltjesError as exc:
        return f"{type(exc).__name__}: {exc}"


# 200 draws of seed 3 at c = 2^40: derive of sin at 0.3, 0.61 and 0.87 moves
# in 165 of the 452 defined cases and raises in the other 287; ftc_roundtrip
# moves in 194 draws (11 flip passed), verify_linear_solution in 194 (61 flip)
anchor_free_differences = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 18: the derive ladder, the estimate table and the "
    "re-integration take differences of g's values, which cancel against the anchor")


@anchor_free_differences
def test_anchor_shift_leaves_the_derivatives_bits():
    for d in draws():
        for t in (0.3, 0.61, 0.87):
            want = value_or_error(g_derivative_fn, math.sin, d, t)
            got = value_or_error(g_derivative_fn, math.sin, shifted(d, 2.0 ** 40), t)
            assert type(got) is type(want)
            assert got == want if isinstance(want, str) else same_bits(got, want)


@anchor_free_differences
def test_anchor_shift_leaves_the_ftc_roundtrips_bits():
    v = Integrand.from_callable(lambda t: np.cos(3.0 * t) + 0.3)
    for d in draws():
        want = ftc_roundtrip(primitive(StieltjesMeasure(d), v, grid_hint=MESH))
        got = ftc_roundtrip(primitive(StieltjesMeasure(shifted(d, 2.0 ** 40)), v, grid_hint=MESH))
        assert same_bits(got.deviations, want.deviations) and got.passed == want.passed


@anchor_free_differences
def test_anchor_shift_leaves_the_linear_checks_bits():
    c = Integrand.polynomial([0.3, -0.7])
    for d in draws():
        want = verify_linear_solution(LinearCoefficient(d, c), grid_hint=MESH)
        got = verify_linear_solution(LinearCoefficient(shifted(d, 2.0 ** 40), c), grid_hint=MESH)
        assert same_bits(got.max_residual, want.max_residual) and got.passed == want.passed


# Time dilation t -> 2t: g~(s) = g(s / 2) on [2a, 2b]. Doubling a time and
# halving a slope are exact, and so is every quotient and product of them
# (the linspace grids, np.interp's knot cells, Horner's steps with c_k / 2^k),
# so the measure, the grids and each scheme's arithmetic keep their bits.
# Power segments are left out: scale / 2^p is not exact.

def dilated_profile(p):
    if isinstance(p, LinearProfile):
        return LinearProfile(p.slope / 2.0)
    if isinstance(p, TabulatedProfile):
        return TabulatedProfile(tuple((2.0 * x, y) for x, y in p.points))
    assert isinstance(p, ConstantProfile)
    return p


def dilated(d):
    """g(t / 2): bounds, knots and jump sites doubled, slopes halved."""
    return Derivator((2.0 * d.a, 2.0 * d.b),
                     [Segment(2.0 * s.lo, 2.0 * s.hi, dilated_profile(s.profile))
                      for s in d.segments],
                     [Jump(2.0 * j.at, j.delta) for j in d.jumps], anchor=d.anchor)


def dilation_draws(seed=5):
    """Linear, constant and tabulated segments (a power profile's draw taken as
    a linear one), on [0, 1] and on intervals starting below 0."""
    rng = np.random.default_rng(seed)
    for k in range(DRAWS):
        a = 0.0 if k % 2 else float(rng.uniform(-2.0, 0.0))
        d = random_derivator(rng, a, a + float(rng.uniform(0.5, 3.0)))
        segments = [Segment(s.lo, s.hi, LinearProfile(s.profile.scale)
                            if isinstance(s.profile, PowerProfile) else s.profile)
                    for s in d.segments]
        yield rng, Derivator(d.interval, segments, d.jumps, anchor=d.anchor)


def halved_powers(coeffs):
    """c_k / 2^k: the polynomial of t / 2."""
    return [c / 2.0 ** k for k, c in enumerate(coeffs)]


def assert_dilated(got, want):
    assert same_bits(got.grid, 2.0 * want.grid)
    assert same_bits(got.left_values, want.left_values)
    assert same_bits(got.right_values, want.right_values)


def dilation_system(d, rhs):
    return SystemSpec([d], rhs, [1.0], rhs_batch=lambda ts, X: np.array(
        [rhs(t, x) for t, x in zip(ts.tolist(), X)]))


@pytest.mark.parametrize("scheme", [solve_euler, solve_picard])
@pytest.mark.parametrize("time_kind", ["autonomous", "tabulated"])
def test_time_dilation_leaves_the_solvers_bits(scheme, time_kind):
    for rng, d in dilation_draws():
        if time_kind == "autonomous":
            rhs = rhs_dilated = lambda t, x: np.sin(x) + 0.3
        else:
            ts = np.sort(rng.uniform(d.a, d.b, 6))
            vs = rng.uniform(-1.0, 1.0, 6)
            tab = Integrand.tabulated(list(zip(ts, vs)))
            tab_dilated = Integrand.tabulated(list(zip(2.0 * ts, vs)))
            rhs = lambda t, x, tab=tab: tab(t) * x + 0.3
            rhs_dilated = lambda t, x, tab=tab_dilated: tab(t) * x + 0.3
        grid = system_grid([d], d.b, MESH)
        d2 = dilated(d)
        grid_dilated = system_grid([d2], d2.b, MESH)
        assert same_bits(grid_dilated, 2.0 * grid)
        want = scheme(dilation_system(d, rhs), grid)
        got = scheme(dilation_system(d2, rhs_dilated), grid_dilated)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


def test_time_dilation_leaves_the_primitives_bits():
    for rng, d in dilation_draws(6):
        coeffs = rng.uniform(-2.0, 2.0, int(rng.integers(1, 5))).tolist()
        want = primitive(StieltjesMeasure(d), Integrand.polynomial(coeffs), grid_hint=MESH)
        got = primitive(StieltjesMeasure(dilated(d)), Integrand.polynomial(halved_powers(coeffs)),
                        grid_hint=MESH)
        assert_dilated(got, want)


def test_time_dilation_leaves_the_exponentials_bits():
    for rng, d in dilation_draws(7):
        coeffs = rng.uniform(-1.0, 1.0, int(rng.integers(1, 4))).tolist()
        want = GExponential(LinearCoefficient(d, Integrand.polynomial(coeffs))).trajectory(MESH)
        got = GExponential(LinearCoefficient(
            dilated(d), Integrand.polynomial(halved_powers(coeffs)))).trajectory(MESH)
        assert_dilated(got, want)
