import math

import numpy as np
import pytest

from helpers import (
    exact_power_derivator,
    long_derivator,
    random_derivator,
    random_polynomial_coeffs,
    reference_cell_integrals,
    reference_estimate_table,
    reference_modulus,
    reference_uniform_grid,
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
    Jump,
    LinearCoefficient,
    LinearProfile,
    RhsEvaluationError,
    PowerProfile,
    Segment,
    StieltjesError,
    StieltjesMeasure,
    SystemSpec,
    TabulatedProfile,
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
from stieltjes import calculus
from stieltjes.calculus import _cell_integrals, _estimate_table
from stieltjes.derivator import _KNOT, _POWER, _ROOT

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

    def test_grid_cells_are_cut_at_the_integrand_kinks(self):
        b = 0.7813563413389097
        step = Integrand.piecewise_polynomial([0.0, b, 1.0], [[0.0], [1.0]])
        d = Derivator.identity(0.0, 1.0)
        h = primitive(StieltjesMeasure(d), step, grid_hint=512)
        assert np.array_equal(h.grid, uniform_grid(d, 512))
        assert abs(h.left_values[-1] - (1.0 - b)) <= 1e-14 * (1.0 - b)
        e = GExponential(LinearCoefficient(d, step)).trajectory(512)
        assert abs(e.left_values[-1] - np.exp(1.0 - b)) <= 1e-14 * np.exp(1.0 - b)

    def test_an_integral_that_overflows_raises_at_its_first_grid_time(self):
        # 1e300 (1 + t) against a slope of 1e300: every cell overflows, with
        # no float warning on the way
        d = Derivator((0.0, 1.0), [Segment(0.0, 1.0, LinearProfile(1e300))])
        v = Integrand.polynomial([1e300, 1e300])
        with pytest.raises(RhsEvaluationError,
                           match=r"^primitive is not finite at t=0\.125; the integral overflows$"):
            primitive(StieltjesMeasure(d), v, grid_hint=8)

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

    @pytest.mark.parametrize("d", [identity_with_jump(delta=2.0, at=0.5), kinked_identity()],
                             ids=["jump", "junction"])
    def test_a_one_sided_ladder_takes_the_function_at_t_once(self, d, monkeypatch):
        quotient, rungs, calls = calculus._quotient, [], []

        def counting(*args, **kwargs):
            rungs.append(args[1:3])
            return quotient(*args, **kwargs)

        monkeypatch.setattr(calculus, "_quotient", counting)
        val = g_derivative_fn(lambda s: calls.append(s) or d.eval(s) ** 2, d, 0.5)
        assert val == pytest.approx(d.eval_right(0.5) + d.eval(0.5), rel=1e-9)
        assert len(rungs) >= 3 and all(0.5 in bracket for bracket in rungs)
        assert len(calls) == len(rungs) + 1 and calls.count(0.5) == 1
        # the first rung still calls its far end before t, as every rung did
        assert calls[0] == rungs[0][1] and calls[1] == 0.5

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

    def test_a_knot_cell_point_brackets_inside_its_cell(self):
        # g is affine on the knot cell [0.4, 0.6] with slope 0.5, where
        # d(t^2)/dg = 2t / 0.5; a bracket across a knot meets a kink of g
        d = Derivator((0.0, 1.0), [Segment(0.0, 1.0, TabulatedProfile(
            ((0.2, 0.0), (0.4, 0.5), (0.6, 0.6), (0.8, 1.5))))])
        seen = []
        val = g_derivative_fn(lambda t: seen.append(t) or t ** 2, d, 0.45)
        assert val == pytest.approx(1.8, rel=1e-9)
        assert 0.4 <= min(seen) and max(seen) <= 0.6

    def test_noisy_function_raises_convergence_error(self):
        d = Derivator.identity(0.0, 1.0)
        with pytest.raises(ConvergenceError):
            g_derivative_fn(lambda t: t + 1e-3 * np.sin(1e6 * t), d, 0.37)

    def test_non_grid_time_rejected_on_grid_route(self):
        d = Derivator.identity(0.0, 1.0)
        h = record(d, lambda g: g)
        with pytest.raises(DomainError):
            g_derivative(h, 0.123456789)


def thin_row_derivators():
    """A jump at 0.5 followed by a row 1, 2 or 3 ulps wide, where ladder
    points round onto the row's ends, with and without the jump."""
    for ulps in (1, 2, 3):
        edge = 0.5 + ulps * math.ulp(0.5)
        segments = [Segment(0.0, 0.5, LinearProfile(1.0)), Segment(0.5, edge, LinearProfile(3.0)),
                    Segment(edge, 1.0, PowerProfile(0.5, 1.0))]
        for jumps in ([Jump(0.5, 0.25)], []):
            yield Derivator((0.0, 1.0), segments, jumps, anchor=0.125), [0.5, edge]


class TestRowBoundRungs:
    """Each ladder takes g at its points from one row lookup, with d.eval's bits."""

    def test_every_rung_value_is_eval_at_its_point(self, monkeypatch):
        quotient, seen = calculus._quotient, []

        def recording(func, lo, hi, g_lo, g_hi, t, at_jump=False):
            seen.append((d, lo, hi, g_lo, g_hi))
            return quotient(func, lo, hi, g_lo, g_hi, t, at_jump)

        monkeypatch.setattr(calculus, "_quotient", recording)
        rng = np.random.default_rng(2401)
        draws = []
        for i in range(300):
            a = 0.0 if i % 2 else float(rng.uniform(-2.0, 0.0))
            d = random_derivator(rng, a, a + float(rng.uniform(0.5, 3.0)))
            # every row start, jumps and knots among them, and two points inside rows
            draws.append((d, [*d.breakpoints()[1:-1], *rng.uniform(d.a, d.b, 2).tolist()]))
        draws += thin_row_derivators()
        for d, points in draws:
            f = Integrand.polynomial(random_polynomial_coeffs(rng))
            for t in points:
                try:
                    g_derivative_fn(f, d, t)
                except StieltjesError:
                    pass
        assert len(seen) > 10000
        for d, lo, hi, g_lo, g_hi in seen:
            assert same_bits([g_lo, g_hi], [d.eval(lo), d.eval(hi)]), (d, lo, hi)
        kinds = [set(d._row_kind.tolist()) for d, _ in draws]
        assert sum(d._jump_at.size > 0 for d, _ in draws) >= 100
        assert sum(bool(k & {_POWER, _ROOT}) for k in kinds) >= 100
        assert sum(_KNOT in k for k in kinds) >= 50


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

    def test_a_deviation_that_overflows_raises_at_its_first_grid_time(self):
        d = Derivator.identity(0.0, 1.0)
        grid = uniform_grid(d, 8)
        values = np.where(np.arange(grid.size) % 2, -1.7e308, 1.7e308)
        with pytest.raises(RhsEvaluationError, match=r"^deviation is not finite at t=0\.125;"):
            ftc_roundtrip(Trajectory(grid, values, values.copy(), d))

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


class TestExactModulus:
    """The modulus checks every grid time and each jump's right value, as the
    brute-force ``reference_modulus`` does pair by pair."""

    def test_equals_brute_force_on_random_trajectories(self):
        rng = np.random.default_rng(20)
        for _ in range(250):
            d = random_derivator(rng)
            grid = uniform_grid(d, 16)
            at_jump = d.jump_index(grid) >= 0
            freq = rng.uniform(0.5, 6.0)
            left = np.sin(freq * d.eval(grid))
            # jump rows get right values of their own, off the curve
            right = np.where(at_jump, np.sin(freq * d.eval_right(grid))
                             + rng.normal(scale=0.2, size=grid.size), left)
            h = Trajectory(grid, left, right, d)
            epsilon = float(rng.uniform(0.02, 1.0))
            assert same_bits(g_continuity_modulus(h, epsilon), reference_modulus(h, epsilon))

    def test_step_between_neighbours(self):
        # a step of 0.5 between two grid times 1/4096 apart in variation:
        # every delta above 1/4096 pairs them
        d = Derivator.identity(0.0, 1.0)
        grid = np.linspace(0.0, 1.0, 4097)
        vals = np.where(np.arange(grid.size) >= 2050, 0.5, 0.0)
        h = Trajectory(grid, vals, vals, d)
        assert g_continuity_modulus(h, 0.25) == 2.0 ** -12

    def test_right_value_at_a_jump_counts(self):
        # only h(0.5+) moves: it sits 1/32 in variation from the next grid time
        d = identity_with_jump(delta=1.0)
        grid = uniform_grid(d, 16)
        left = np.zeros_like(grid)
        right = np.where(grid == 0.5, 1.0, 0.0)
        h = Trajectory(grid, left, right, d)
        assert g_continuity_modulus(h, 0.5) == 2.0 ** -5
        assert g_continuity_modulus(h, 0.5) == reference_modulus(h, 0.5)


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


def test_grids_built_inside_the_interval_skip_the_domain_check(monkeypatch):
    """Only the public entry points check times against [a, b]."""
    from stieltjes import solver
    from stieltjes.derivator import Derivator as DerivatorClass

    d = long_derivator(np.random.default_rng(43))
    checked = []
    check = DerivatorClass._check_domain
    monkeypatch.setattr(DerivatorClass, "_check_domain",
                        lambda self, t: checked.append(np.size(t)) or check(self, t))
    grid = uniform_grid(d, 16)
    assert checked == []
    lc = LinearCoefficient(d, Integrand.polynomial([0.4]))
    checked.clear()
    GExponential(lc).trajectory(grid_hint=16)
    primitive(StieltjesMeasure(d, "signed"), Integrand.polynomial([0.4]), grid_hint=16)
    spec = SystemSpec([d], lambda t, x: x, [1.0])
    solver._jump_table([d], solver.system_grid([d], 1.0, 256))
    bound = CaratheodoryBound(radius=1e6, dominators=[Integrand.polynomial([1.0])])
    select_horizon(spec, bound, mesh=256)
    assert checked == []
    with pytest.raises(DomainError):
        d.deltas_on([2.0])


def test_cell_integrals_match_the_per_kind_branches():
    """Batched across segments, the charted grid-cell integrals keep the bits of
    one panel call per segment when every segment brings a multiple of 4 cells;
    cells cut at an integrand's kinks agree to rounding."""
    rng = np.random.default_rng(44)
    tabulated = Integrand.tabulated([(0.1, 1.0), (0.45, -0.5), (0.8, 2.0)])
    for hint, draws in ((8, 200), (12, 200), (16, 200), (512, 40)):
        for d in ([random_derivator(rng) for _ in range(draws)] + [long_derivator(rng, 2000)]
                  + [exact_power_derivator(rng) for _ in range(5)]):
            grid = uniform_grid(d, hint)
            assert same_bits(grid, reference_uniform_grid(d, hint))
            v = Integrand.polynomial(random_polynomial_coeffs(rng))
            assert same_bits(_cell_integrals(d, v, grid), reference_cell_integrals(d, v, grid))
            np.testing.assert_allclose(_cell_integrals(d, tabulated, grid),
                                       reference_cell_integrals(d, tabulated, grid),
                                       rtol=1e-13, atol=1e-17)


def test_cell_integrals_keep_their_bits_across_batch_sizes(monkeypatch):
    """Batches of any multiple of 8 pieces give the bits of one batch per kind."""
    rng = np.random.default_rng(47)
    draws = [random_derivator(rng) for _ in range(40)] + [long_derivator(rng)]
    for d in draws:
        grid = uniform_grid(d, 8)
        v = Integrand.polynomial(random_polynomial_coeffs(rng))
        whole = _cell_integrals(d, v, grid)
        monkeypatch.setattr(calculus, "_PANEL_ROWS", 8)
        assert same_bits(_cell_integrals(d, v, grid), whole)
        monkeypatch.undo()


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


class TestKeptJumpMasses:
    """A trajectory looks its grid's jump masses up once, when it checks the
    grid, or takes them from the routine that built it; the routines that
    take it read them from there."""

    def test_kept_masses_are_the_derivators_masses(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            d = random_derivator(rng, rng.uniform(-2.0, 0.0), rng.uniform(0.5, 3.0))
            grid = uniform_grid(d, int(rng.integers(8, 33)))
            lo, hi = sorted(rng.choice(len(grid), size=2, replace=False))
            for ts in (grid, grid[lo:hi + 1]):
                h = Trajectory(ts, np.zeros(len(ts)), np.zeros(len(ts)), d)
                assert same_bits(h._deltas, d.deltas_on(ts))
            h = primitive(StieltjesMeasure(d), Integrand.polynomial([0.5, -1.0]), grid_hint=16)
            assert same_bits(h._deltas, d.deltas_on(h.grid))

    def test_the_table_path_keeps_what_the_checked_record_keeps(self):
        rng = np.random.default_rng(73)

        def assert_same_tables(h, d):
            checked = Trajectory(h.grid, h.left_values, h.right_values, d)
            assert np.array_equal(h._jumps, checked._jumps)
            assert same_bits(h._deltas, checked._deltas)
            assert all(same_bits(a, b) for a, b in zip(h.g_values(), checked.g_values()))

        for _ in range(200):
            d = random_derivator(rng, rng.uniform(-2.0, 0.0), rng.uniform(0.5, 3.0))
            grid = uniform_grid(d, int(rng.integers(8, 33)))
            lo, hi = sorted(rng.choice(len(grid), size=2, replace=False))
            ts = grid[lo:hi + 1] if rng.random() < 0.5 else grid
            jumps = d._jump_index(ts)
            left = rng.normal(size=len(ts))
            right = np.where(jumps >= 0, rng.normal(size=len(ts)), left)
            assert_same_tables(Trajectory._tabled(ts, left, right, d, jumps,
                                                  d._jump_delta_padded[jumps]), d)
            # the records that primitive and the g-exponential build take this path
            c = Integrand.polynomial(rng.uniform(-1.0, 1.0, 2))
            assert_same_tables(primitive(StieltjesMeasure(d), c, grid_hint=8), d)
            assert_same_tables(GExponential(LinearCoefficient(d, c)).trajectory(grid_hint=8), d)

    @staticmethod
    def no_lookups(monkeypatch, *names):
        def boom(*args, **kwargs):
            raise AssertionError("the jumps of a trajectory's grid were looked up again")
        for name in names:
            monkeypatch.setattr(Derivator, name, boom)

    def test_roundtrip_and_modulus_read_the_trajectory(self, monkeypatch):
        d = Derivator((0.0, 1.0), [Segment(0.0, 0.5, LinearProfile(1.0)),
                                   Segment(0.5, 1.0, LinearProfile(-2.0))],
                      [Jump(0.0, 0.4), Jump(0.5, -1.3)])
        want = ftc_roundtrip(record(d, np.sin)), g_continuity_modulus(record(d, np.sin), 0.1)
        h = record(d, np.sin)
        self.no_lookups(monkeypatch, "deltas_on", "_deltas")
        report = ftc_roundtrip(h)
        assert same_bits(report.deviations, want[0].deviations)
        assert report.excluded_points == want[0].excluded_points
        assert g_continuity_modulus(h, 0.1) == want[1]

    def test_linear_verification_reads_its_trajectory(self, monkeypatch):
        d = identity_with_jump(delta=-0.6, at=0.5)
        lc = LinearCoefficient(d, Integrand.polynomial([0.3, -0.7]))
        want = verify_linear_solution(lc, grid_hint=64)
        # the trajectory it builds makes the one lookup, through _jump_index
        self.no_lookups(monkeypatch, "deltas_on")
        assert verify_linear_solution(lc, grid_hint=64) == want


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
