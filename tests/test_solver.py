"""Measure-driven IVP solver: schemes, audits, horizon selection."""

import math

import numpy as np
import pytest

from helpers import (
    assert_same_outcome,
    outcome,
    random_derivator,
    reference_euler,
    reference_jump_table,
    reference_picard,
    same_bits,
)
from stieltjes import (
    CaratheodoryBound,
    ConstantProfile,
    Derivator,
    DomainError,
    HorizonSelectionError,
    Jump,
    LinearProfile,
    RhsEvaluationError,
    Segment,
    SolveConfig,
    SystemSpec,
    select_horizon,
    solve,
    solve_euler,
    solve_picard,
    system_grid,
)
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
        assert bound.tau_star == 0.5

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
        # scalar power in a few percent of draws; the batch form must not
        spec = catalog_system(np.random.default_rng(3), "plume")
        m = 10.0 ** np.random.default_rng(4).uniform(-12.0, 12.0, 20000)
        X = np.column_stack([np.ones_like(m), m, np.ones_like(m)])
        ts = np.linspace(0.0, 1.0, len(m))
        batch = spec.rhs_batch(ts, X)[:, 0]
        rows = np.array([spec.rhs(t, x)[0] for t, x in zip(ts.tolist(), X)])
        assert batch.tobytes() == rows.tobytes()

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
            want = reference_jump_table(ds, grid)
            assert same_bits(_jump_table(ds, grid), want)
            # a sub-grid keeps the jumps inside its own span only
            lo, hi = sorted(rng.choice(len(grid), size=2, replace=False))
            sub = grid[lo:hi + 1]
            assert same_bits(_jump_table(ds, sub), reference_jump_table(ds, sub))
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
