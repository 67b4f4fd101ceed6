"""Measure-driven IVP solver: schemes, audits, horizon selection."""

import math
import warnings

import numpy as np
import pytest

from helpers import (
    assert_same_outcome,
    outcome,
    random_derivator,
    reference_euler,
    reference_jump_table,
    reference_picard,
    reference_solve,
    report_fields,
    same_bits,
)
from stieltjes import (
    AmbientDensity,
    CaratheodoryBound,
    ConstantProfile,
    Derivator,
    DomainError,
    HorizonSelectionError,
    Jump,
    LinearProfile,
    PlumeParams,
    RhsEvaluationError,
    Segment,
    SolveConfig,
    SystemSpec,
    Trajectory,
    build_plume_system,
    flux_to_geometry,
    select_horizon,
    solve,
    solve_euler,
    solve_picard,
    system_grid,
)
from stieltjes import solver
from stieltjes.solver import _jump_table
from stieltjes.specio import RHS_CATALOG, parse_system, serialize_derivator

EULER_TOL = 1e-3
PICARD_TOL = 1e-5


def identity(a=0.0, b=1.0, jumps=()):
    return Derivator.identity(a, b, jumps=jumps)


def scalar_growth(jumps=()):
    """x' = x driven by the identity, x(0) = 1."""
    return SystemSpec(
        derivators=[identity(jumps=jumps)],
        rhs=lambda t, x: x,
        initial=[1.0],
    )


class TestSchemes:
    def test_euler_converges_to_the_exponential(self):
        spec = scalar_growth()
        grid = system_grid(spec.derivators, 1.0, 4096)
        left, right, warnings = solve_euler(spec, grid)
        assert abs(left[-1, 0] - math.e) < EULER_TOL
        assert warnings == []

    def test_picard_converges_to_the_exponential(self):
        spec = scalar_growth()
        grid = system_grid(spec.derivators, 1.0, 1024)
        left, right, converged, iterations, last_change, warnings = solve_picard(spec, grid)
        assert converged
        assert last_change < 1e-10
        assert abs(left[-1, 0] - math.e) < PICARD_TOL

    def test_jump_multiplies_by_the_exact_factor(self):
        # x' = x with a unit jump at 0.5: x(1) = 2 e
        spec = scalar_growth(jumps=[Jump(0.5, 1.0)])
        grid = system_grid(spec.derivators, 1.0, 2048)
        left, right, *_ = solve_picard(spec, grid)
        k = int(np.searchsorted(grid, 0.5))
        assert right[k, 0] == left[k, 0] + left[k, 0] * 1.0
        assert abs(left[-1, 0] - 2.0 * math.e) < PICARD_TOL

    def test_euler_error_halves_with_the_mesh(self):
        spec = scalar_growth()
        errs = []
        for mesh in (1024, 2048):
            grid = system_grid(spec.derivators, 1.0, mesh)
            left, *_ = solve_euler(spec, grid)
            errs.append(abs(left[-1, 0] - math.e))
        ratio = errs[1] / errs[0]
        assert 0.3 <= ratio <= 0.7

    def test_euler_safety_ball_warning(self):
        spec = scalar_growth()
        grid = system_grid(spec.derivators, 1.0, 256)
        _, _, warnings = solve_euler(spec, grid, safety_radius=0.1)
        assert len(warnings) == 1
        assert "safety ball" in warnings[0]

    def test_picard_reports_non_convergence_honestly(self):
        stiff = SystemSpec([identity()], lambda t, x: 50.0 * x, [1.0])
        grid = system_grid(stiff.derivators, 1.0, 64)
        *_, converged, iterations, last_change, warnings = solve_picard(
            stiff, grid, max_iter=3)
        assert not converged
        assert iterations == 3
        assert last_change > 1e-10
        assert any("stopped after 3 iterations" in w for w in warnings)


class TestSolveReport:
    def test_report_shape_and_final_state(self):
        spec = scalar_growth(jumps=[Jump(0.5, 1.0)])
        report = solve(spec, SolveConfig(mesh=512))
        assert report.method == "picard"
        assert report.converged
        assert report.grid[0] == 0.0 and report.grid[-1] == 1.0
        np.testing.assert_array_equal(
            report.final_state,
            [tr.right_values[-1] for tr in report.trajectories])
        assert report.error_estimate is not None
        assert report.error_estimate < PICARD_TOL

    def test_error_estimate_can_be_skipped(self):
        spec = scalar_growth()
        report = solve(spec, SolveConfig(mesh=128, error_estimate=False))
        assert report.error_estimate is None

    def test_horizon_truncates_the_grid(self):
        spec = SystemSpec([identity()], lambda t, x: x, [1.0], horizon=0.5)
        report = solve(spec, SolveConfig(mesh=256, error_estimate=False))
        assert report.grid[-1] == 0.5
        assert abs(report.final_state[0] - math.exp(0.5)) < PICARD_TOL

    def test_non_convergence_propagates_to_the_report(self):
        stiff = SystemSpec([identity()], lambda t, x: 50.0 * x, [1.0])
        report = solve(stiff, SolveConfig(mesh=64, max_iter=3, error_estimate=False))
        assert not report.converged
        assert any("stopped after" in w for w in report.warnings)


class TestJumpAudit:
    @pytest.mark.parametrize("picard", [True, False])
    def test_residual_is_exactly_zero(self, picard):
        spec = scalar_growth(jumps=[Jump(0.25, -0.4), Jump(0.5, 1.0)])
        report = solve(spec, SolveConfig(
            mesh=512, picard=picard, error_estimate=False))
        assert len(report.jump_audit) == 2
        for row in report.jump_audit:
            assert row.residual == 0.0
            assert row.residual_ulps == 0.0
            assert row.right == row.left + row.expected_increment

    def test_simultaneous_jumps_use_the_shared_pre_jump_state(self):
        d1 = identity(jumps=[Jump(0.5, 1.0)])
        d2 = identity(jumps=[Jump(0.5, 1.0)])
        spec = SystemSpec(
            [d1, d2],
            lambda t, x: np.array([x[1], -x[0]]),
            [1.0, 0.0],
        )
        report = solve(spec, SolveConfig(mesh=256, error_estimate=False))
        assert report.simultaneous_jumps == (0.5,)
        assert any("jump together" in w for w in report.warnings)
        k = int(np.searchsorted(report.grid, 0.5))
        x1 = report.trajectories[0].left_values[k]
        x2 = report.trajectories[1].left_values[k]
        assert report.trajectories[0].right_values[k] == x1 + x2
        assert report.trajectories[1].right_values[k] == x2 - x1


class TestConstancyPropagation:
    @pytest.mark.parametrize("picard", [True, False])
    def test_constant_component_keeps_its_bits(self, picard):
        flat = Derivator((0.0, 1.0),
                         [Segment(0.0, 1.0, ConstantProfile())], [])
        spec = SystemSpec(
            [identity(), flat],
            lambda t, x: np.array([x[0] + x[1], math.cos(t) + x[0]]),
            [1.0, 0.3],
        )
        report = solve(spec, SolveConfig(
            mesh=256, picard=picard, error_estimate=False))
        tr = report.trajectories[1]
        assert np.all(tr.left_values == 0.3)
        assert np.all(tr.right_values == 0.3)


class TestHorizonSelection:
    def test_desk_case(self):
        # mass over [0, t) is t up to the jump, then t + 0.8: radius 0.5
        # admits exactly the times through t = 0.5
        spec = scalar_growth(jumps=[Jump(0.5, 0.8)])
        bound = CaratheodoryBound(radius=0.5, dominators=[lambda t: 1.0])
        tau = select_horizon(spec, bound, mesh=1000)
        assert tau == 0.5

    def test_no_admissible_time_raises(self):
        spec = scalar_growth()
        bound = CaratheodoryBound(radius=1e-6, dominators=[lambda t: 1.0])
        with pytest.raises(HorizonSelectionError):
            select_horizon(spec, bound, mesh=512)

    def test_negative_dominator_rejected(self):
        spec = scalar_growth()
        bound = CaratheodoryBound(radius=1.0, dominators=[lambda t: t - 0.5])
        with pytest.raises(DomainError):
            select_horizon(spec, bound, mesh=128)

    def test_single_dominator_broadcasts(self):
        bound = CaratheodoryBound(radius=1.0, dominators=[lambda t: 2.0])
        h0 = bound.dominator_for(0, 3)
        h2 = bound.dominator_for(2, 3)
        assert h0(0.3) == h2(0.7) == 2.0

    def test_dominator_count_must_match(self):
        bound = CaratheodoryBound(radius=1.0, dominators=[lambda t: 1.0] * 2)
        with pytest.raises(DomainError):
            bound.dominator_for(0, 3)


class TestSystemGrid:
    def test_contains_breakpoints_and_jumps(self):
        third = 1.0 / 3.0
        d = Derivator((0.0, 1.0), [
            Segment(0.0, third, LinearProfile(1.0)),
            Segment(third, 1.0, LinearProfile(2.0)),
        ], [Jump(third, 0.5)])
        grid = system_grid([d], 1.0, 64)
        assert third in grid
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert np.all(np.diff(grid) > 0)


class TestValidation:
    def test_intervals_must_agree(self):
        with pytest.raises(DomainError):
            SystemSpec([identity(0.0, 1.0), identity(0.0, 2.0)],
                       lambda t, x: x, [1.0, 1.0])

    def test_initial_length_must_match(self):
        with pytest.raises(DomainError):
            SystemSpec([identity()], lambda t, x: x, [1.0, 2.0])

    def test_horizon_inside_the_interval(self):
        with pytest.raises(DomainError):
            SystemSpec([identity()], lambda t, x: x, [1.0], horizon=1.5)

    def test_at_least_one_derivator(self):
        with pytest.raises(DomainError):
            SystemSpec([], lambda t, x: x, [])

    def test_rhs_exceptions_are_wrapped(self):
        def boom(t, x):
            raise ValueError("nope")
        spec = SystemSpec([identity()], boom, [1.0])
        with pytest.raises(RhsEvaluationError):
            spec.call_rhs(0.0, spec.initial)

    def test_rhs_shape_is_checked(self):
        spec = SystemSpec([identity()], lambda t, x: np.ones(3), [1.0])
        with pytest.raises(RhsEvaluationError):
            spec.call_rhs(0.0, spec.initial)

    def test_rhs_must_be_finite(self):
        spec = SystemSpec([identity()], lambda t, x: np.array([np.inf]), [1.0])
        with pytest.raises(RhsEvaluationError):
            spec.call_rhs(0.0, spec.initial)


# ------------------------------------------------- batched right-hand sides


def catalog_rhs(rng, kind, dim):
    """A random right-hand side document of the given catalog kind."""
    if kind == "zero":
        return {"kind": "zero"}
    if kind == "linear":
        return {"kind": "linear", "coefficients": rng.uniform(-2.0, 2.0, dim).tolist()}
    if kind == "polynomial":
        return {"kind": "polynomial", "coefficients": [
            rng.uniform(-2.0, 2.0, int(rng.integers(1, 6))).tolist() for _ in range(dim)]}
    if kind == "tabulated":
        ts = np.concatenate([[0.0, 0.5, 1.0], rng.uniform(-0.2, 1.2, 5)])
        ts = np.unique(ts)
        return {"kind": "tabulated", "points": [
            [t, *rng.uniform(-2.0, 2.0, dim).tolist()] for t in ts.tolist()]}
    if kind == "plume":
        return {"kind": "plume", "A": 0.1666, "B": 56.5056, "C": 2.8e-4}
    raise ValueError(kind)


def catalog_system(rng, kind, horizon=None):
    """A system of random derivators on [0, 1] driven by a catalog rhs."""
    dim = 3 if kind == "plume" else int(rng.integers(1, 5))
    derivators = [serialize_derivator(random_derivator(rng)) for _ in range(dim)]
    initial = rng.uniform(-1.0, 1.0, dim).tolist()
    if kind == "plume":
        derivators[:2] = [serialize_derivator(Derivator.identity(0.0, 1.0))] * 2
        initial = [0.05, 0.01, 0.15]
    doc = {"derivators": derivators, "initial": initial,
           "rhs": catalog_rhs(rng, kind, dim), "horizon": horizon}
    return parse_system(doc)[0]


def scalar_only(spec):
    """The same system without its batch form."""
    return SystemSpec(spec.derivators, spec.rhs, spec.initial, horizon=spec.horizon)


@pytest.mark.parametrize("kind", RHS_CATALOG)
def test_catalog_rhs_is_one_function_for_both_calls(kind):
    spec = catalog_system(np.random.default_rng(5), kind)
    assert spec.rhs is spec.rhs_batch


class TestBatchedRhs:
    @pytest.mark.parametrize("kind", RHS_CATALOG)
    def test_batch_equals_scalar_row_by_row(self, kind):
        rng = np.random.default_rng(RHS_CATALOG.index(kind))
        for _ in range(20):
            spec = catalog_system(rng, kind)
            n = 500
            ts = np.concatenate([rng.uniform(-0.2, 1.2, n - 3), [0.0, 0.5, 1.0]])
            X = rng.normal(scale=2.0, size=(n, spec.dim))
            if kind == "plume":
                X[:, 1] = 10.0 ** rng.uniform(-12.0, 12.0, n)
            batch = spec.rhs_batch(ts, X)
            rows = np.array([spec.rhs(t, x) for t, x in zip(ts.tolist(), X)])
            assert batch.shape == rows.shape == (n, spec.dim)
            assert batch.tobytes() == rows.tobytes()

    def test_plume_quarter_power_matches_scalar_power(self):
        # numpy's array power may round m ** 0.25 differently from the
        # scalar power in a few percent of draws; the batch form must not,
        # and neither may the geometry's m ** -0.25
        spec = catalog_system(np.random.default_rng(3), "plume")
        m = 10.0 ** np.random.default_rng(4).uniform(-12.0, 12.0, 20000)
        X = np.column_stack([np.ones_like(m), m, np.ones_like(m)])
        ts = np.linspace(0.0, 1.0, len(m))
        batch = spec.rhs_batch(ts, X)[:, 0]
        rows = np.array([spec.rhs(t, x)[0] for t, x in zip(ts.tolist(), X)])
        assert batch.tobytes() == rows.tobytes()
        radius, _, _ = flux_to_geometry(np.ones_like(m), m, np.ones_like(m))
        assert radius.tobytes() == np.array([math.pow(x, -0.25) for x in m.tolist()]).tobytes()

    @pytest.mark.parametrize("p", [0.25, -0.25])
    def test_float_power_is_the_scalar_libm_pow(self, p):
        # the plume's array quarter powers rest on np.float_power having no
        # SIMD loop; a numpy that vectorizes it must fail here, not move bits
        rng = np.random.default_rng(21)
        m = np.exp(rng.uniform(np.log(1e-310), np.log(1e308), 200000))
        m = np.concatenate([m, rng.uniform(0.0, 20.0, 20000)])
        m = m[m > 0.0]
        libm = np.array([math.pow(x, p) for x in m.tolist()])
        assert np.float_power(m, p).tobytes() == libm.tobytes()

    def test_without_a_batch_form_rows_go_through_call_rhs(self):
        spec = scalar_growth(jumps=[Jump(0.5, 1.0)])
        assert spec.rhs_batch is None
        ts = np.linspace(0.0, 1.0, 9)
        X = np.arange(9.0).reshape(9, 1)
        np.testing.assert_array_equal(spec.call_rhs_many(ts, X), X)
        assert spec.call_rhs_many(ts[:0], X[:0]).shape == (0, 1)

    def test_first_non_finite_row_names_its_time(self):
        def rhs(t, x):
            return np.array([np.inf]) if t >= 0.5 else x

        def rhs_batch(ts, X):
            return np.where(ts[:, None] >= 0.5, np.inf, X)

        ts = np.linspace(0.0, 1.0, 9)
        X = np.ones((9, 1))
        for batch in (rhs_batch, None):
            spec = SystemSpec([identity()], rhs, [1.0], rhs_batch=batch)
            with pytest.raises(RhsEvaluationError,
                               match=r"non-finite value at t=0\.5$"):
                spec.call_rhs_many(ts, X)

    def test_errors_come_in_row_order(self):
        # rows from t = 0.5 on are non-finite, rows from t = 0.75 on break
        # the model; the batch form reports the model error, yet the first
        # failing row is the non-finite one at t = 0.5
        def rhs(t, x):
            if t >= 0.75:
                raise RhsEvaluationError(f"model broke at t={t}")
            return np.array([np.nan]) if t >= 0.5 else x

        def rhs_batch(ts, X):
            if np.any(ts >= 0.75):
                raise RhsEvaluationError(f"model broke at t={ts[ts >= 0.75][0]}")
            return np.where(ts[:, None] >= 0.5, np.nan, X)

        spec = SystemSpec([identity()], rhs, [1.0], rhs_batch=rhs_batch)
        ts = np.linspace(0.0, 1.0, 9)
        X = np.ones((9, 1))
        with pytest.raises(RhsEvaluationError, match=r"non-finite value at t=0\.5$"):
            spec.call_rhs_many(ts, X)
        # a row that is both broken and non-finite counts once, as the error
        # the scalar form raises for it
        with pytest.raises(RhsEvaluationError, match=r"^model broke at t=0\.75$"):
            spec.call_rhs_many(ts[6:], X[6:])

    def test_batch_shape_is_checked(self):
        spec = SystemSpec([identity()], lambda t, x: x, [1.0],
                          rhs_batch=lambda ts, X: X.ravel())
        with pytest.raises(RhsEvaluationError, match="batch right-hand side returned shape"):
            spec.call_rhs_many(np.zeros(3), np.ones((3, 1)))


class TestAgainstReferenceLoops:
    @pytest.mark.parametrize("kind", RHS_CATALOG)
    @pytest.mark.parametrize("seed", range(4))
    def test_picard_keeps_the_bits_of_the_per_point_loop(self, kind, seed):
        rng = np.random.default_rng(100 * seed + len(kind))
        spec = catalog_system(rng, kind)
        grid = system_grid(spec.derivators, 1.0, 48)
        want = outcome(reference_picard, spec, grid)
        assert_same_outcome(outcome(solve_picard, spec, grid), want)
        assert_same_outcome(outcome(solve_picard, scalar_only(spec), grid), want)

    @pytest.mark.parametrize("kind", RHS_CATALOG)
    @pytest.mark.parametrize("seed", range(4))
    def test_euler_keeps_the_bits_of_the_per_step_loop(self, kind, seed):
        rng = np.random.default_rng(100 * seed + len(kind))
        spec = catalog_system(rng, kind)
        grid = system_grid(spec.derivators, 1.0, 96)
        for radius in (None, 0.05, 1e6):
            want = outcome(reference_euler, spec, grid, safety_radius=radius)
            assert_same_outcome(outcome(solve_euler, spec, grid, safety_radius=radius), want)
            assert_same_outcome(
                outcome(solve_euler, scalar_only(spec), grid, safety_radius=radius), want)

    def test_simultaneous_jumps_and_a_flat_component(self):
        jumps = [Jump(0.25, -0.4), Jump(0.5, 1.0)]
        flat = Derivator((0.0, 1.0), [Segment(0.0, 0.5, ConstantProfile()),
                                      Segment(0.5, 1.0, ConstantProfile())],
                         [Jump(0.5, 0.3)])
        spec = SystemSpec(
            [identity(jumps=jumps), identity(jumps=jumps[1:]), flat],
            lambda t, x: np.array([x[1], -x[0], math.cos(t) + x[2]]),
            [1.0, 0.0, -0.0],
        )
        grid = system_grid(spec.derivators, 1.0, 128)
        assert_same_outcome(solve_picard(spec, grid), reference_picard(spec, grid))
        euler = solve_euler(spec, grid, safety_radius=0.5)
        assert len(euler[2]) == 1
        assert_same_outcome(euler, reference_euler(spec, grid, safety_radius=0.5))


def flat(a, b, jumps):
    """A derivator constant on [a, b] except for its jumps."""
    cuts = [a] + [j.at for j in jumps] + [b]
    return Derivator((a, b), [Segment(lo, hi, ConstantProfile())
                              for lo, hi in zip(cuts[:-1], cuts[1:])], jumps)


def system_doc(derivators, rhs, initial):
    doc = {"derivators": [serialize_derivator(d) for d in derivators],
           "initial": initial, "rhs": rhs}
    return parse_system(doc)[0]


def recorded_warnings(scheme, spec, grid):
    """The warning texts a scheme emits, and its outcome, with every warning shown."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = outcome(scheme, spec, grid)
    return [str(w.message) for w in caught], str(result)


def assert_euler_as_the_loop(spec, grid):
    """Both forms of the spec give the reference loop's bits or its error text."""
    want = outcome(reference_euler, spec, grid, safety_radius=0.5)
    for form in (spec, scalar_only(spec)):
        assert_same_outcome(outcome(solve_euler, form, grid, safety_radius=0.5), want)
    return want


class TestEulerFastPaths:
    """Time-only and linear catalog kinds skip the loop but keep its bits and errors."""

    RHS = {
        "zero": {"kind": "zero"},
        "linear": {"kind": "linear", "coefficients": [0.7, -1.3, 2.0]},
        "polynomial": {"kind": "polynomial",
                       "coefficients": [[0.0, -1.0], [0.5, 0.0, 3.0], [-2.0]]},
        "tabulated": {"kind": "tabulated",
                      "points": [[0.0, 0.0, 1.0, -1.0], [0.6, -2.0, 0.0, 0.5], [1.0, 1.0, 1.0, 1.0]]},
    }

    @pytest.mark.parametrize("kind", sorted(RHS))
    def test_negative_zero_start_and_a_flat_component_with_a_jump(self, kind):
        ds = [identity(jumps=[Jump(0.5, -0.4)]), flat(0.0, 1.0, [Jump(0.25, 0.3)]),
              flat(0.0, 1.0, [])]
        spec = system_doc(ds, self.RHS[kind], [-0.0, -0.0, -0.0])
        grid = system_grid(spec.derivators, 1.0, 64)
        left, right, _ = assert_euler_as_the_loop(spec, grid)
        # the component that never moves keeps -0.0 at every row
        assert same_bits(left[:, 2], np.full(len(grid), -0.0))
        assert same_bits(right[:, 2], np.full(len(grid), -0.0))

    # 1e303 t^8 overflows for t above about 4.53, while its integral stays finite
    STEEP = {"kind": "polynomial", "coefficients": [[1.0] + [0.0] * 7 + [1e303]]}

    def test_time_only_rhs_is_not_evaluated_where_nothing_moves(self):
        g = Derivator((0.0, 10.0), [Segment(0.0, 2.0, LinearProfile(1.0)),
                                    Segment(2.0, 10.0, ConstantProfile())])
        spec = system_doc([g], self.STEEP, [1.0])
        grid = system_grid(spec.derivators, 10.0, 64)
        left, _, _ = assert_euler_as_the_loop(spec, grid)
        assert np.all(np.isfinite(left))

    def test_time_only_rhs_raises_the_loops_error_on_a_moving_row(self):
        spec = system_doc([identity(0.0, 10.0)], self.STEEP, [1.0])
        grid = system_grid(spec.derivators, 10.0, 64)
        want = assert_euler_as_the_loop(spec, grid)
        # the first grid time past the overflow, 4.6875 = 30 * 10 / 64
        assert want.startswith("RhsEvaluationError: right-hand side ")
        assert "at t=4.6875" in want
        # outside a warnings-as-errors filter the overflow is one warning and
        # a non-finite error; a batch attempt adds no warning of its own
        for scheme, loop in ((solve_euler, reference_euler), (solve_picard, reference_picard)):
            texts, error = recorded_warnings(loop, spec, grid)
            assert recorded_warnings(scheme, spec, grid) == (texts, error)
            assert len(texts) == 1 and "non-finite value at t=4.6875" in error

    @pytest.mark.parametrize("derivators, coefficients, at", [
        # growth over the cells until c * x overflows inside the rhs
        ([identity(), identity(jumps=[Jump(0.5, 1.0)])], [0.5, 1e10], "t=0.5625"),
        # a jump makes the right state huge: the cell call on it fails
        ([Derivator((0.0, 1.0), [Segment(0.0, 0.5, ConstantProfile()),
                                 Segment(0.5, 1.0, LinearProfile(1.0))],
                    [Jump(0.5, 1.0)])], [1e300], "t=0.5"),
        # the second jump's call on the left state fails
        ([flat(0.0, 1.0, [Jump(0.25, 1.0), Jump(0.5, 1.0)])], [1e300], "t=0.5"),
    ])
    def test_linear_state_that_overflows_raises_at_the_loops_row(
            self, derivators, coefficients, at):
        initial = [1.0] * len(derivators)
        spec = system_doc(derivators, {"kind": "linear", "coefficients": coefficients},
                          initial)
        grid = system_grid(spec.derivators, 1.0, 64)
        want = assert_euler_as_the_loop(spec, grid)
        assert want.startswith("RhsEvaluationError: right-hand side ")
        assert at in want


def count_rhs_calls(monkeypatch):
    """Record every SystemSpec.call_rhs time from here on."""
    calls = []
    scalar = SystemSpec.call_rhs

    def counting(self, t, x):
        calls.append(t)
        return scalar(self, t, x)
    monkeypatch.setattr(SystemSpec, "call_rhs", counting)
    return calls


class TestEulerPathTaken:
    @pytest.mark.parametrize("kind", ["zero", "polynomial", "tabulated", "linear", "plume"])
    def test_catalog_kinds_make_no_scalar_rhs_call(self, monkeypatch, kind):
        rng = np.random.default_rng(3 + len(kind))
        spec = catalog_system(rng, kind)
        grid = system_grid(spec.derivators, 1.0, 96)
        calls = count_rhs_calls(monkeypatch)
        left, _, _ = solve_euler(spec, grid)
        assert np.all(np.isfinite(left))
        assert calls == []

    def test_a_closure_keeps_one_call_per_jump_row_and_moving_cell(self, monkeypatch):
        spec = scalar_growth(jumps=[Jump(0.5, 1.0)])
        grid = system_grid(spec.derivators, 1.0, 96)
        calls = count_rhs_calls(monkeypatch)
        reference_euler(spec, grid)
        want = len(calls)
        solve_euler(spec, grid)
        assert want == 97 and len(calls) == 2 * want


def stepped_flat_spec(rhs, rhs_batch=None):
    """x' = rhs driven by a step of 1.0 at 0.5 in the second component only."""
    step = flat(0.0, 1.0, [Jump(0.5, 1.0)])
    return SystemSpec([identity(), step], rhs, [1.0, 1.0], rhs_batch=rhs_batch)


@pytest.mark.parametrize("fail", ["raise", "nan", "shape"])
def test_a_closure_that_fails_mid_run_gives_the_loops_error(fail):
    def rhs(t, x):
        if t >= 0.5 and x[0] > 1.2:
            if fail == "raise":
                raise ArithmeticError("refused")
            return np.array([np.nan, 0.0]) if fail == "nan" else np.zeros(3)
        return np.array([x[1], -x[0]])

    spec = stepped_flat_spec(rhs)
    grid = system_grid(spec.derivators, 1.0, 64)
    want = outcome(reference_euler, spec, grid)
    assert want.startswith("RhsEvaluationError: right-hand side ")
    assert outcome(solve_euler, spec, grid) == want


class TestPicardBatches:
    """One rhs batch per sweep: the left rows, then the jump rows' right states."""

    @staticmethod
    def rotation(t, x):
        return np.array([x[1] * math.cos(t), -x[0]])

    @staticmethod
    def rotation_batch(ts, X):
        return np.column_stack([X[:, 1] * np.cos(ts), -X[:, 0]])

    def test_a_closure_with_its_own_batch_form_keeps_the_loops_bits(self):
        spec = stepped_flat_spec(self.rotation, self.rotation_batch)
        for mesh in (2, 3, 32, 97):
            grid = system_grid(spec.derivators, 1.0, mesh)
            want = reference_picard(spec, grid)
            assert_same_outcome(solve_picard(spec, grid), want)
            assert_same_outcome(solve_picard(scalar_only(spec), grid), want)

    def test_a_failure_only_at_a_jumps_right_state_is_the_loops_error(self):
        def rhs(t, x):
            # the left state at 0.5 is 1.0; only the right state there exceeds it
            if t == 0.5 and x[1] > 1.5:
                raise ValueError("right state refused")
            return np.array([0.0, 1.0])

        def batch(ts, X):
            return np.array([rhs(t, x) for t, x in zip(ts, X)])

        spec = stepped_flat_spec(rhs, batch)
        grid = system_grid(spec.derivators, 1.0, 16)
        want = outcome(reference_picard, spec, grid)
        assert want == "RhsEvaluationError: right-hand side failed at t=0.5: right state refused"
        assert outcome(solve_picard, spec, grid) == want
        assert outcome(solve_picard, scalar_only(spec), grid) == want

    def test_one_batch_call_per_sweep_and_one_for_the_resweep(self):
        rows = []

        def counting(ts, X):
            rows.append(len(ts))
            return self.rotation_batch(ts, X)

        spec = stepped_flat_spec(self.rotation, counting)
        grid = system_grid(spec.derivators, 1.0, 64)
        *_, converged, iterations, _, _ = solve_picard(spec, grid)
        assert converged and iterations > 3
        # every sweep: 65 left rows and the right state of the one jump row
        assert rows == [len(grid) + 1] * iterations + [1]

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_is_a_domain_error(self, max_iter):
        spec = scalar_growth()
        grid = system_grid(spec.derivators, 1.0, 8)
        with pytest.raises(DomainError, match="^max_iter must be at least 1$"):
            solve_picard(spec, grid, max_iter=max_iter)
        with pytest.raises(DomainError, match="^max_iter must be at least 1$"):
            solve(spec, SolveConfig(mesh=8, max_iter=max_iter))


class TestStateThatOverflows:
    # f = 1.7e308 everywhere: the jump of 1.0 at 0.5 takes both schemes' state
    # past the largest float; Picard's trapezoid mean of f and f stays finite
    RHS = {"kind": "polynomial", "coefficients": [[1.7e308]]}

    def spec(self):
        d = Derivator((0.0, 1.0), [Segment(0.0, 0.5, LinearProfile(1.0)),
                                   Segment(0.5, 1.0, LinearProfile(1.0))], [Jump(0.5, 1.0)])
        return system_doc([d], self.RHS, [1.0])

    @pytest.mark.parametrize("picard, at", [(False, 0.5), (True, 0.5)])
    def test_solve_names_the_first_time_whose_state_is_not_finite(self, picard, at):
        # warnings are errors in this suite, so the solve also raises none
        with pytest.raises(RhsEvaluationError) as exc:
            solve(self.spec(), SolveConfig(mesh=64, picard=picard))
        assert str(exc.value) == f"state is not finite at t={at}; the solution overflows"

    def test_picard_stops_once_a_sweep_repeats_itself(self):
        # f ignores the state, so the second sweep repeats the first, inf included;
        # its change is nan, which no tolerance accepts
        spec = self.spec()
        _, _, converged, iterations, change, warns = solve_picard(
            spec, system_grid(spec.derivators, 1.0, 64))
        assert (converged, iterations, math.isnan(change)) == (False, 2, True)
        assert warns == ["fixed-point sweep stopped after 2 iterations "
                         "with change nan (tolerance 1.0e-10)"]


def plume_spec():
    amb = AmbientDensity.step(0.0, 10.0, 1000.0, [(3.0, -1.5), (7.0, -0.8)])
    return build_plume_system(PlumeParams(), amb, 0.05, 0.01, 0.15)


def count_evaluations(monkeypatch):
    """Record (derivator id, number of times) of every Derivator.eval from here on."""
    sizes = []
    evaluate = Derivator.eval

    def counting(self, t):
        sizes.append((id(self), np.size(t)))
        return evaluate(self, t)
    monkeypatch.setattr(Derivator, "eval", counting)
    return sizes


class TestGridTables:
    """One jump table and one evaluation of each derivator per solve: the
    grids of an error-estimated solve share them, tabulated on their union."""

    def test_each_component_is_evaluated_once_per_grid(self, monkeypatch):
        spec = plume_spec()
        grid = system_grid(spec.derivators, 10.0, 64)
        sizes = count_evaluations(monkeypatch)
        # the height derivator drives q and m: it is evaluated for each of them
        want = sorted((id(d), len(grid)) for d in spec.derivators)
        for picard in (True, False):
            sizes.clear()
            solve(spec, SolveConfig(mesh=64, picard=picard, error_estimate=False))
            assert sorted(sizes) == want
        for scheme in (solve_picard, solve_euler):
            sizes.clear()
            scheme(spec, grid)
            assert sorted(sizes) == want

    @pytest.mark.parametrize("picard", [True, False])
    def test_an_error_estimated_solve_evaluates_each_component_once(self, monkeypatch, picard):
        spec = plume_spec()
        sizes = count_evaluations(monkeypatch)
        solve(spec, SolveConfig(mesh=64, picard=picard))
        # the union of the two grids is the doubled one
        fine = len(system_grid(spec.derivators, 10.0, 128))
        assert sorted(sizes) == sorted((id(d), fine) for d in spec.derivators)

    @pytest.mark.parametrize("picard", [True, False])
    @pytest.mark.parametrize("error_estimate", [True, False])
    def test_each_solver_grid_builds_one_jump_table(self, monkeypatch, picard, error_estimate):
        """Each grid's rows come from one jump table; the grids of one solve
        share it, built once on their union."""
        spec = plume_spec()
        calls = []
        build = solver._jump_table

        def counting(ds, grid, parts=None):
            calls.append((len(grid), [len(part) for part in parts]))
            return build(ds, grid, parts)
        monkeypatch.setattr(solver, "_jump_table", counting)
        report = solve(spec, SolveConfig(mesh=64, picard=picard, error_estimate=error_estimate))
        grids = [len(report.grid)] + ([len(system_grid(spec.derivators, 10.0, 128))]
                                      if error_estimate else [])
        # one table on the union, which checks each grid for missing jumps
        assert calls == [(grids[-1], grids)]
        # the audit and the simultaneous-jump rows read the coarse grid's slice
        assert [r.time for r in report.jump_audit] == [3.0, 7.0]

    def test_a_grid_missing_a_jump_is_named_in_grid_order(self):
        spec = scalar_growth(jumps=[Jump(0.25, 1.0), Jump(0.5, 1.0)])
        # their union holds both jumps; each grid lacks one
        grids = [np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.25, 1.0])]
        with pytest.raises(DomainError, match="^solver grid is missing jump time 0.25$"):
            solver._grid_tables(spec, grids)
        with pytest.raises(DomainError, match="^solver grid is missing jump time 0.5$"):
            solver._grid_tables(spec, grids[::-1])

    def test_the_report_trajectories_carry_the_checked_records_tables(self):
        rng = np.random.default_rng(67)
        for _ in range(60):
            ds = [random_derivator(rng) for _ in range(int(rng.integers(1, 4)))]
            spec = SystemSpec(ds, lambda t, x: 0.5 * x, rng.uniform(-1.0, 1.0, len(ds)))
            report = solve(spec, SolveConfig(mesh=int(rng.integers(2, 40)),
                                             picard=bool(rng.integers(2))))
            for tr in report.trajectories:
                checked = Trajectory(tr.grid, tr.left_values, tr.right_values, tr.governing)
                assert np.array_equal(tr._jumps, checked._jumps)
                assert same_bits(tr._deltas, checked._deltas)
                assert all(same_bits(a, b) for a, b in zip(tr.g_values(), checked.g_values()))


class TestDoubledGrid:
    """solve tabulates both grids on the doubled one and takes the error
    estimate at its searchsorted rows: the doubled grid must hold the coarse
    grid and every jump time up to the horizon."""

    def test_the_doubled_grid_holds_the_coarse_grid_and_every_jump(self):
        rng = np.random.default_rng(71)
        for _ in range(1000):
            a = float(rng.uniform(-2.0, 2.0))
            b = a + float(rng.choice([1.0, rng.uniform(0.01, 5.0)]))
            ds = [random_derivator(rng, a, b) for _ in range(int(rng.integers(1, 4)))]
            stops = [s.hi for d in ds for s in d.segments]
            horizon = float(rng.choice([b, rng.choice(stops), b - rng.uniform(0.0, 1.0) * (b - a)]))
            mesh = int(np.exp(rng.uniform(np.log(2.0), np.log(5001.0))))
            coarse = system_grid(ds, horizon, mesh)
            fine = system_grid(ds, horizon, 2 * mesh)
            assert np.isin(coarse, fine).all()
            jumps = [j.at for d in ds for j in d.jumps if j.at <= horizon]
            assert np.isin(jumps, coarse).all() and np.isin(jumps, fine).all()

    @pytest.mark.parametrize("picard", [True, False])
    def test_the_error_estimate_is_the_largest_change_at_shared_times(self, picard):
        rng = np.random.default_rng(73)
        scheme = solve_picard if picard else solve_euler
        for _ in range(8):
            ds = [random_derivator(rng) for _ in range(int(rng.integers(1, 4)))]
            spec = SystemSpec(ds, lambda t, x: math.cos(3.0 * t) * x, rng.uniform(-1.0, 1.0, len(ds)))
            mesh = int(rng.integers(2, 200))
            coarse, fine = (system_grid(ds, 1.0, m) for m in (mesh, 2 * mesh))
            report = solve(spec, SolveConfig(mesh=mesh, picard=picard))
            shared = np.isin(fine, coarse)
            want = np.abs(scheme(spec, coarse)[0] - scheme(spec, fine)[0][shared]).max()
            assert same_bits(report.error_estimate, want)


class TestOneAuditBatch:
    """The audit reads f at the jump rows from the run: Picard's resweep, or
    one batch that solve makes after an Euler run."""

    @staticmethod
    def spec():
        plume = plume_spec()
        calls = []

        def batch(ts, X):
            calls.append(len(ts))
            return plume.rhs_batch(ts, X)
        return SystemSpec(plume.derivators, plume.rhs, plume.initial, rhs_batch=batch), calls

    def test_picard_sweeps_both_grids_in_one_batch_and_resweeps_them_in_one(self):
        spec, calls = self.spec()
        coarse, fine = (system_grid(spec.derivators, 10.0, mesh) for mesh in (16, 32))
        assert [solve_picard(spec, grid)[3] for grid in (coarse, fine)] == [25, 23]
        calls.clear()
        report = solve(spec, SolveConfig(mesh=16))
        # each grid's left rows, then the right states of its two jump rows;
        # the doubled grid stops first and leaves the stack
        assert calls == [len(coarse) + len(fine) + 4] * 23 + [len(coarse) + 2] * 2 + [4]
        assert (report.iterations, len(report.jump_audit)) == (25, 2)

    def test_euler_makes_one_batch_for_the_audit(self):
        spec, calls = self.spec()
        report = solve(spec, SolveConfig(mesh=16, picard=False))
        assert calls == [2]  # the loop runs the plume's float row form
        assert [r.residual for r in report.jump_audit] == [0.0, 0.0]


def lockstep_draw(rng):
    """A random system and Picard config for the lockstep tests: catalog
    kinds with and without their batch form, closures that have none (some
    refusing states past a bound), and a constant f that overflows."""
    horizon = None if rng.random() < 0.7 else float(rng.uniform(0.3, 1.0))
    roll = rng.random()
    if roll < 0.55:
        spec = catalog_system(rng, str(rng.choice(RHS_CATALOG)), horizon)
        if rng.random() < 0.3:
            spec = scalar_only(spec)
    else:
        dim = int(rng.integers(1, 4))
        ds = [random_derivator(rng) for _ in range(dim)]
        if roll < 0.9:
            coupling = rng.uniform(-1.5, 1.5, (dim, dim))
            bound = float(rng.uniform(1.5, 4.0)) if rng.random() < 0.4 else math.inf

            def rhs(t, x):
                if np.abs(x).max() > bound:
                    raise ValueError("state past the bound")
                return math.cos(3.0 * t) * (coupling @ x)
        else:
            def rhs(t, x):
                return np.full(dim, 1.7e308)
        spec = SystemSpec(ds, rhs, rng.uniform(-1.0, 1.0, dim), horizon=horizon)
    if rng.random() < 0.2:
        spec.initial[rng.integers(spec.dim)] = -0.0  # each grid's first row keeps it
    config = SolveConfig(mesh=int(rng.integers(2, 40)), tol=float(rng.choice([1e-13, 1e-10, 1e-6])),
                         max_iter=25 if rng.random() < 0.7 else int(rng.integers(1, 25)),
                         error_estimate=rng.random() < 0.85)
    return spec, config


def solve_fields(spec, config):
    return outcome(lambda: report_fields(solve(spec, config)))


class TestLockstep:
    """solve sweeps its two grids together and reports what one-grid runs,
    one after the other, give."""

    def test_solve_equals_two_one_grid_runs(self):
        rng = np.random.default_rng(101)
        seen = dict.fromkeys(["apart", "max_iter", "repeat", "error", "batchless"], 0)
        for _ in range(300):
            spec, config = lockstep_draw(rng)
            want, stops = reference_solve(spec, config)
            assert solve_fields(spec, config) == want
            seen["apart"] += len(stops) == 2 and stops[0][0] != stops[1][0]
            seen["max_iter"] += any(n == config.max_iter and not ok for n, ok, _ in stops)
            seen["repeat"] += any(not change > 0.0 for _, _, change in stops)
            seen["error"] += isinstance(want, str)
            seen["batchless"] += spec.rhs_batch is None
        assert min(seen.values()) >= 10, seen

    def test_euler_on_shared_tables_equals_two_one_grid_runs(self):
        rng = np.random.default_rng(103)
        for _ in range(60):
            spec, config = lockstep_draw(rng)
            config.picard, config.safety_radius = False, float(rng.uniform(0.1, 2.0))
            assert solve_fields(spec, config) == reference_solve(spec, config)[0]


class TestErrorOrder:
    """When the doubled grid breaks down at once and the coarse grid fails
    later, solve raises the coarse grid's error, as sequential runs do."""

    FINE_ONLY = 1.0 / 16.0  # a time of the mesh-16 grid that the mesh-8 grid lacks

    def spec(self, coarse_rhs, batch):
        def rhs(t, x):
            if t == self.FINE_ONLY:
                raise ArithmeticError("refused on the doubled grid")
            return coarse_rhs(t, x)

        def rhs_batch(ts, X):
            return np.array([rhs(t, x) for t, x in zip(ts, X)])
        return SystemSpec([identity(jumps=[Jump(0.5, 1.0)])], rhs, [1.0],
                          rhs_batch=rhs_batch if batch else None)

    def assert_coarse_error(self, spec, error_estimate, want):
        fine = system_grid(spec.derivators, 1.0, 16)
        assert outcome(solve_picard, spec, fine).endswith("refused on the doubled grid")
        with pytest.raises(RhsEvaluationError) as exc:
            solve(spec, SolveConfig(mesh=8, error_estimate=error_estimate))
        assert f"RhsEvaluationError: {exc.value}" == want

    @pytest.mark.parametrize("batch", [True, False])
    @pytest.mark.parametrize("error_estimate", [True, False])
    def test_the_coarse_grids_later_breakdown_is_raised(self, batch, error_estimate):
        def grow(t, x):
            # the first sweep's states are all 1.0; the second's pass 2.5 after the jump
            if x[0] > 2.5:
                raise ValueError("state past 2.5")
            return x
        spec = self.spec(grow, batch)
        want = outcome(solve_picard, spec, system_grid(spec.derivators, 1.0, 8))
        assert want == "RhsEvaluationError: right-hand side failed at t=0.625: state past 2.5"
        self.assert_coarse_error(spec, error_estimate, want)

    @pytest.mark.parametrize("batch", [True, False])
    @pytest.mark.parametrize("error_estimate", [True, False])
    def test_the_coarse_grids_non_finite_state_is_raised(self, batch, error_estimate):
        spec = self.spec(lambda t, x: np.array([1.7e308]), batch)
        *_, converged, iterations, _, _ = solve_picard(spec, system_grid(spec.derivators, 1.0, 8))
        assert (converged, iterations) == (False, 2)  # it stops on a repeated sweep
        want = "RhsEvaluationError: state is not finite at t=0.5; the solution overflows"
        self.assert_coarse_error(spec, error_estimate, want)


class TestConstancy:
    @pytest.mark.xfail(strict=True, reason="the continuous increment g(t_{k+1}) - "
                       "(g(t_k) + delta_k) carries the anchor and the running jump "
                       "sum, so a constant cell can get an increment of one ulp")
    def test_beta_keeps_its_bits_across_constant_density_cells(self):
        amb = AmbientDensity.step(0.0, 10.0, 1001.31,
                                  [(1.74, -2.0), (3.39, -2.32), (7.51, -0.97)])
        spec = build_plume_system(PlumeParams(), amb, 0.05, 0.01, 0.15)
        report = solve(spec, SolveConfig(mesh=64, picard=False, error_estimate=False))
        beta = report.trajectories[2]
        # the step ambient is constant on every cell, so only its jumps move beta
        assert same_bits(beta.left_values[1:], beta.right_values[:-1])


class TestJumpTable:
    def test_grid_without_a_jump_time_is_rejected(self):
        spec = scalar_growth(jumps=[Jump(0.5, 1.0)])
        grid = np.linspace(0.0, 1.0, 8)
        for scheme in (solve_euler, solve_picard):
            with pytest.raises(DomainError, match="solver grid is missing jump time 0.5"):
                scheme(spec, grid)

    def test_matches_the_per_jump_loop(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            ds = [random_derivator(rng, 0.0, 2.0) for _ in range(int(rng.integers(1, 4)))]
            grid = system_grid(ds, 2.0, int(rng.integers(2, 64)))
            index, deltas = _jump_table(ds, grid)
            assert same_bits(deltas, reference_jump_table(ds, grid))
            assert np.array_equal(index, np.stack([d.jump_index(grid) for d in ds], axis=1))
            # a sub-grid keeps the jumps inside its own span only
            lo, hi = sorted(rng.choice(len(grid), size=2, replace=False))
            sub = grid[lo:hi + 1]
            assert same_bits(_jump_table(ds, sub)[1], reference_jump_table(ds, sub))
            # dropping a jump time gives the loop's error
            inner = [j.at for d in ds for j in d.jumps if grid[0] < j.at < grid[-1]]
            if inner:
                holed = grid[grid != rng.choice(inner)]
                with pytest.raises(DomainError) as want_exc:
                    reference_jump_table(ds, holed)
                with pytest.raises(DomainError) as got_exc:
                    _jump_table(ds, holed)
                assert str(got_exc.value) == str(want_exc.value)

    def test_simultaneous_jumps_are_rows_with_two_or_more_jumps(self):
        rng = np.random.default_rng(62)
        for _ in range(40):
            ds = [random_derivator(rng) for _ in range(3)]
            spec = SystemSpec(ds, lambda t, x: 0.1 * x, [1.0, 2.0, 3.0], horizon=0.75)
            report = solve(spec, SolveConfig(mesh=16, error_estimate=False))
            counts = {}
            for d in ds:
                for j in d.jumps:
                    counts[j.at] = counts.get(j.at, 0) + 1
            want = tuple(sorted(t for t, c in counts.items() if c > 1 and t <= 0.75))
            assert report.simultaneous_jumps == want
            assert all(type(t) is float for t in report.simultaneous_jumps)

    def test_picard_keeps_a_negative_zero_start(self):
        d = Derivator((0.0, 1.0), [Segment(0.0, 0.5, ConstantProfile()),
                                   Segment(0.5, 1.0, LinearProfile(1.0))], [Jump(0.5, 1.0)])
        spec = SystemSpec([d, d], lambda t, x: np.array([1.0, x[1]]), [-0.0, -0.0])
        grid = system_grid(spec.derivators, 1.0, 32)
        got = solve_picard(spec, grid)
        assert_same_outcome(got, reference_picard(spec, grid))
        assert math.copysign(1.0, got[0][0, 0]) == -1.0
