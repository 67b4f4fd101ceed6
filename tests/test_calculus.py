import numpy as np
import pytest

from helpers import (
    long_derivator,
    random_derivator,
    random_polynomial_coeffs,
    reference_cell_integrals,
    reference_estimate_table,
    same_bits,
)
from stieltjes import (
    CaratheodoryBound,
    ConstantProfile,
    ConvergenceError,
    Derivator,
    DomainError,
    GExponential,
    Integrand,
    LinearCoefficient,
    LinearProfile,
    Segment,
    StieltjesMeasure,
    SystemSpec,
    Trajectory,
    UndefinedPointError,
    chain_rule_check,
    derivative_estimates,
    ftc_roundtrip,
    g_continuity_modulus,
    g_derivative,
    g_derivative_fn,
    primitive,
    select_horizon,
    uniform_grid,
    verify_linear_solution,
)
from stieltjes.calculus import _cell_integrals, _estimate_table

FTC_TOL = 1e-6


def identity_with_jump(delta=2.0, at=0.5):
    return Derivator.identity(0.0, 1.0, jumps=[(at, delta)])


def tent(slope=1.0):
    return Derivator((0.0, 1.0), [
        Segment(0.0, 0.5, LinearProfile(slope)),
        Segment(0.5, 1.0, LinearProfile(-slope)),
    ], [])


def reference_primitive(d, v, grid_hint):
    """Left and right values of primitive() by its original per-point loop."""
    grid = uniform_grid(d, grid_hint)
    cont = _cell_integrals(d, v, grid)
    deltas = np.array([{j.at: j.delta for j in d.jumps}.get(float(t), 0.0) for t in grid])
    atom_vals = np.where(deltas != 0.0, np.asarray(v(grid), dtype=float) * deltas, 0.0)
    left = np.empty_like(grid)
    right = np.empty_like(grid)
    acc = 0.0
    for i in range(len(grid)):
        left[i] = acc
        acc = acc + atom_vals[i]
        right[i] = left[i] + atom_vals[i]
        if i < len(grid) - 1:
            acc = acc + cont[i]
    return left, right


def kinked_identity():
    return Derivator((0.0, 1.0), [
        Segment(0.0, 0.5, LinearProfile(1.0)),
        Segment(0.5, 1.0, LinearProfile(2.0)),
    ])


def record(d, fn, per_segment=128):
    """Trajectory of fn(g), with the left/right split taken from g."""
    grid = uniform_grid(d, per_segment)
    return Trajectory(grid, fn(d.eval(grid)), fn(d.eval_right(grid)), d)


class TestTrajectory:
    def test_right_values_only_move_at_jumps(self):
        d = identity_with_jump()
        grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        left = d.eval(grid)
        right = left.copy()
        right[1] += 1.0  # 0.25 is not a jump
        with pytest.raises(DomainError):
            Trajectory(grid, left, right, d)

    def test_grid_must_contain_jumps(self):
        d = identity_with_jump()
        grid = np.array([0.0, 0.25, 0.75, 1.0])
        with pytest.raises(DomainError):
            Trajectory(grid, d.eval(grid), d.eval_right(grid), d)

    def test_value_interpolates_left_continuously(self):
        d = identity_with_jump()
        h = record(d, lambda g: g)
        assert h.value(0.5) == d.eval(0.5)
        assert h.value_right(0.5) == d.eval_right(0.5)
        assert h.value(0.3) == pytest.approx(d.eval(0.3), abs=1e-12)

    def test_flat_interpolation(self):
        d = Derivator.identity(0.0, 1.0)
        grid = np.array([0.0, 0.5, 1.0])
        h = Trajectory(grid, np.array([1.0, 2.0, 3.0]),
                       np.array([1.0, 2.0, 3.0]), d, interpolation="flat")
        assert h.value(0.4) == 1.0
        assert h.value(0.5) == 2.0

    def test_truncated_grid_is_allowed(self):
        d = identity_with_jump()
        grid = np.array([0.0, 0.25, 0.5])
        h = Trajectory(grid, d.eval(grid), d.eval_right(grid), d)
        assert h.grid[-1] == 0.5


class TestPrimitive:
    def test_desk_values_with_atom(self):
        m = StieltjesMeasure(identity_with_jump(), "signed")
        h = primitive(m, Integrand.polynomial([0.0, 1.0]), grid_hint=256)
        i = h.index_of(0.5)
        assert h.left_values[i] == pytest.approx(0.125, rel=1e-10)
        # atom adds v(0.5) * 2 exactly at the jump
        assert h.right_values[i] - h.left_values[i] == pytest.approx(1.0, abs=1e-14)
        assert h.left_values[-1] == pytest.approx(1.5, rel=1e-9)

    def test_matches_the_scalar_accumulation_loop(self):
        rng = np.random.default_rng(41)
        draws = [random_derivator(rng) for _ in range(20)] + [long_derivator(rng)]
        for d in draws:
            v = Integrand.polynomial(random_polynomial_coeffs(rng))
            h = primitive(StieltjesMeasure(d, "signed"), v, grid_hint=64)
            left, right = reference_primitive(d, v, 64)
            assert np.array_equal(h.left_values, left)
            assert np.array_equal(h.right_values, right)

    def test_matches_measure_integrate(self):
        d = identity_with_jump(delta=-0.7)
        m = StieltjesMeasure(d, "signed")
        v = Integrand.polynomial([0.3, -1.0, 0.5])
        h = primitive(m, v, grid_hint=512)
        for i in (128, h.index_of(0.5), 700, len(h.grid) - 1):
            t = h.grid[i]
            assert h.left_values[i] == pytest.approx(
                m.integrate(v, 0.0, t), abs=1e-9)


class TestDerivative:
    def test_function_route_polynomial(self):
        d = Derivator.identity(0.0, 1.0)
        val = g_derivative_fn(lambda t: t ** 2, d, 0.3)
        assert val == pytest.approx(0.6, abs=1e-10)

    def test_jump_quotient_is_one_sided_and_exact(self):
        d = identity_with_jump(delta=2.0, at=0.5)
        # h = g^2: the quotient telescopes to g(t+) + g(t)
        val = g_derivative_fn(lambda t: d.eval(t) ** 2, d, 0.5)
        assert val == pytest.approx(d.eval_right(0.5) + d.eval(0.5), rel=1e-9)

    def test_grid_route_matches_function_route(self):
        d = identity_with_jump(delta=1.3, at=0.5)
        h = record(d, lambda g: g ** 2, per_segment=256)
        for t in (0.25, 0.5):
            grid_val = g_derivative(h, t)
            fn_val = g_derivative_fn(lambda s: d.eval(s) ** 2, d, t)
            assert grid_val == pytest.approx(fn_val, rel=1e-6)

    def test_derivative_of_g_is_one(self):
        d = identity_with_jump(delta=0.4)
        h = record(d, lambda g: g)
        values, eligible = derivative_estimates(h)
        np.testing.assert_allclose(values[eligible], 1.0, atol=1e-9)

    def test_peak_has_no_derivative(self):
        d = tent()
        h = record(d, lambda g: g)
        with pytest.raises(UndefinedPointError):
            g_derivative(h, 0.5)
        with pytest.raises(UndefinedPointError):
            g_derivative_fn(lambda t: t, d, 0.5)

    def test_constancy_closure_has_no_derivative(self):
        d = Derivator((0.0, 1.0), [
            Segment(0.0, 0.4, LinearProfile(1.0)),
            Segment(0.4, 0.7, ConstantProfile()),
            Segment(0.7, 1.0, LinearProfile(1.0)),
        ], [])
        for t in (0.4, 0.55, 0.7):
            with pytest.raises(UndefinedPointError):
                g_derivative_fn(lambda s: s, d, t)

    def test_junction_inside_a_run_takes_the_mean_of_agreeing_sides(self):
        # slopes 1 and 2 meet at 0.5 with no jump: one rising run, two segments
        d = kinked_identity()
        assert g_derivative_fn(lambda t: d.eval(t) ** 2, d, 0.5) == 1.0

    def test_junction_inside_a_run_rejects_disagreeing_sides(self):
        # d(t^2)/dg is 2t / slope: 1.0 from the left, 0.5 from the right
        d = kinked_identity()
        with pytest.raises(ConvergenceError, match=r"^one-sided quotients disagree at 0\.5$") as exc:
            g_derivative_fn(lambda t: t ** 2, d, 0.5)
        assert exc.value.last_estimate == [0.5, 1.0]

    def test_noisy_function_raises_convergence_error(self):
        d = Derivator.identity(0.0, 1.0)
        with pytest.raises(ConvergenceError):
            g_derivative_fn(lambda t: t + 1e-3 * np.sin(1e6 * t), d, 0.37)

    def test_non_grid_time_rejected_on_grid_route(self):
        d = Derivator.identity(0.0, 1.0)
        h = record(d, lambda g: g)
        with pytest.raises(DomainError):
            g_derivative(h, 0.123456789)


class TestFtcRoundtrip:
    def test_smooth_function(self):
        d = Derivator.identity(0.0, 1.0)
        h = record(d, np.cos, per_segment=512)
        report = ftc_roundtrip(h)
        assert report.passed
        assert report.max_deviation < FTC_TOL

    def test_jumping_derivator(self):
        d = identity_with_jump(delta=1.45, at=0.5)
        h = record(d, lambda g: g ** 3 - g, per_segment=1024)
        report = ftc_roundtrip(h)
        assert report.passed, report.max_deviation

    def test_tent_excludes_peak_but_passes(self):
        d = tent(slope=1.6)
        h = record(d, lambda g: np.sin(g), per_segment=512)
        report = ftc_roundtrip(h)
        assert report.excluded_points >= 1
        assert report.passed, report.max_deviation

    def test_deviation_grows_with_coarser_grid(self):
        d = Derivator.identity(0.0, 1.0)
        fine = ftc_roundtrip(record(d, np.cos, per_segment=512)).max_deviation
        coarse = ftc_roundtrip(record(d, np.cos, per_segment=64)).max_deviation
        assert coarse > fine


class TestChainRule:
    def test_polynomial_composition(self):
        g1 = Derivator.identity(0.0, 1.0)
        g2 = Derivator.identity(0.0, 2.0)
        report = chain_rule_check(g1, g2, lambda t: 2.0 * t,
                                  lambda y: y ** 2, 0.3)
        assert report.passed
        assert report.relative_difference < 1e-6

    def test_jumping_inner_derivator(self):
        g1 = identity_with_jump(delta=1.0, at=0.5)
        g2 = Derivator.identity(0.0, 4.0)
        report = chain_rule_check(g1, g2, lambda t: t + 0.25,
                                  lambda y: np.sin(y), 0.5)
        assert report.passed

    def test_landing_on_outer_jump_rejected(self):
        g1 = Derivator.identity(0.0, 1.0)
        g2 = Derivator.identity(0.0, 2.0, jumps=[(0.6, 1.0)])
        with pytest.raises(DomainError):
            chain_rule_check(g1, g2, lambda t: 2.0 * t, lambda y: y, 0.3)


class TestContinuityModulus:
    def test_desk_value_on_steep_tent(self):
        d = tent(slope=1.6)
        h = record(d, lambda g: g, per_segment=64)
        assert g_continuity_modulus(h, 0.1) == pytest.approx(0.1, rel=1e-6)

    def test_constant_function_gets_full_ladder(self):
        d = tent(slope=1.6)
        grid = uniform_grid(d, 64)
        ones = np.ones_like(grid)
        h = Trajectory(grid, ones, ones, d)
        assert g_continuity_modulus(h, 0.5) == pytest.approx(1.6)

    def test_moving_across_flat_spot_returns_zero(self):
        d = Derivator((0.0, 1.0), [Segment(0.0, 1.0, ConstantProfile())], [])
        grid = np.linspace(0.0, 1.0, 65)
        vals = grid.copy()  # h moves although g does not
        h = Trajectory(grid, vals, vals, d)
        assert g_continuity_modulus(h, 0.1) == 0.0


def test_grid_paths_make_no_per_point_queries(monkeypatch):
    """The grid routines use the array queries; a per-point lookup would raise."""
    from stieltjes.derivator import Derivator as DerivatorClass

    rng = np.random.default_rng(42)
    d = long_derivator(rng)

    def boom(*args, **kwargs):
        raise AssertionError("per-point structure query on a grid path")

    monkeypatch.setattr(DerivatorClass, "classify_point", boom)
    monkeypatch.setattr(DerivatorClass, "delta_at", boom)
    monkeypatch.setattr(LinearCoefficient, "factor_at", boom)

    v = Integrand.polynomial([0.3, -1.0, 0.5])
    report = ftc_roundtrip(primitive(StieltjesMeasure(d, "signed"), v, grid_hint=16))
    assert report.excluded_points > 0
    lc = LinearCoefficient(d, Integrand.polynomial([0.4]))
    traj = GExponential(lc).trajectory(grid_hint=16)
    assert len(traj.grid) > 200 * 16
    assert verify_linear_solution(lc, grid_hint=16).jump_identity_exact
    spec = SystemSpec([d], lambda t, x: x, [1.0])
    bound = CaratheodoryBound(radius=1e6, dominators=[Integrand.polynomial([1.0])])
    assert select_horizon(spec, bound, mesh=256) == 1.0


def test_cell_integrals_match_the_per_kind_branches():
    """The charted grid-cell integrals keep the bits of one branch per kind."""
    rng = np.random.default_rng(44)
    draws = [random_derivator(rng) for _ in range(200)] + [long_derivator(rng)]
    for d in draws:
        grid = uniform_grid(d, 16)
        for v in (Integrand.polynomial(random_polynomial_coeffs(rng)),
                  Integrand.tabulated([(0.1, 1.0), (0.45, -0.5), (0.8, 2.0)])):
            assert same_bits(_cell_integrals(d, v, grid), reference_cell_integrals(d, v, grid))


def test_estimate_table_matches_the_per_offset_windows():
    """Comparing a window's first and last cells keeps every array of the table."""
    rng = np.random.default_rng(45)
    draws = [random_derivator(rng) for _ in range(200)] + [long_derivator(rng)]
    for d in draws:
        v = Integrand.polynomial(random_polynomial_coeffs(rng))
        for hint in (8, 16):
            h = primitive(StieltjesMeasure(d), v, grid_hint=hint)
            got, want = _estimate_table(h), reference_estimate_table(h)
            for name in ("values", "eligible", "is_jump", "left_est", "right_est",
                         "left_ok", "right_ok"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestUniformGridEnds:
    def test_last_point_of_each_span_is_its_breakpoint(self):
        # lo + (hi - lo) * 1.0 rounds above hi for this draw's interval
        rng = np.random.default_rng(5)
        rng.random(1755)
        a, b = rng.uniform(-2.0, 0.0), rng.uniform(0.5, 3.0)
        assert a + (b - a) * 1.0 > b
        d = random_derivator(rng, a, b)
        grid = uniform_grid(d, 16)
        assert grid[0] == a and grid[-1] == b
        h = primitive(StieltjesMeasure(d), Integrand.constant(1.0), grid_hint=16)
        assert h.grid[-1] == b
        assert ftc_roundtrip(h).passed

    def test_spans_hold_exactly_their_points(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a, b = rng.uniform(-2.0, 0.0), rng.uniform(0.5, 3.0)
            d = random_derivator(rng, a, b)
            grid = uniform_grid(d, 16)
            bks = np.asarray(d.breakpoints())
            assert grid[0] == a and grid[-1] == b
            assert np.all(np.isin(bks, grid))
            assert len(grid) == 16 * (len(bks) - 1) + 1
