"""Plume rise in flux variables through layered and stratified ambients."""

import json

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from helpers import (
    assert_same_outcome,
    outcome,
    reference_euler,
    reference_geometry,
    reference_picard,
    reference_plume_audit,
    same_bits,
)
from stieltjes import (
    AmbientDensity,
    DomainError,
    PlumeParams,
    RhsEvaluationError,
    SolveConfig,
    SystemSpec,
    build_plume_system,
    flux_to_geometry,
    run_plume,
    solve,
    solve_euler,
    solve_picard,
    system_grid,
)
from stieltjes import cli
from stieltjes.specio import parse_system, serialize_derivator

RK45_TOL = 1e-4


class TestParams:
    def test_derived_coefficients(self):
        p = PlumeParams()
        assert p.volume_coefficient == pytest.approx(0.1666)
        assert p.momentum_coefficient == pytest.approx(56.5056)
        assert p.buoyancy_coefficient == pytest.approx(
            1.0 / (1.44 * 2.44 * 1000.0), rel=1e-12)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(DomainError):
            PlumeParams(entrainment=0.0)
        with pytest.raises(DomainError):
            PlumeParams(gravity=-9.81)
        with pytest.raises(DomainError):
            PlumeParams(reference_density=0.0)


class TestAmbient:
    def test_step_profile_desk_values(self):
        amb = AmbientDensity.step(0.0, 10.0, 1000.0, drops=[(4.0, -2.0)])
        assert amb.rho.eval(3.0) == 1000.0
        assert amb.rho.eval(5.0) == 998.0
        assert amb.rho.delta_at(4.0) == -2.0

    def test_linear_profile(self):
        amb = AmbientDensity.linear(0.0, 5.0, 1000.0, -0.5)
        assert amb.rho.eval(2.0) == pytest.approx(999.0)

    def test_positivity_enforced(self):
        with pytest.raises(DomainError):
            AmbientDensity.step(0.0, 10.0, 1.0, drops=[(4.0, -5.0)])

    def test_a_narrow_dip_below_zero_is_rejected(self):
        # negative on [0.301, 0.3015) only, between any two of 257 even samples
        with pytest.raises(DomainError, match="must stay positive"):
            AmbientDensity.step(0.0, 1.0, 1.0, drops=[(0.301, -1.5), (0.3015, 1.5)])

    def test_touching_zero_at_a_segment_end_is_rejected(self):
        with pytest.raises(DomainError):
            AmbientDensity.linear(0.0, 2.0, 1.0, -0.5)
        AmbientDensity.linear(0.0, 2.0, 1.0, -0.49)


class TestInterfacePhysics:
    def test_buoyancy_jump_is_exact(self):
        amb = AmbientDensity.step(
            0.0, 10.0, 1000.0, drops=[(3.0, -1.5), (7.0, -0.8)])
        report, audit = run_plume(
            PlumeParams(), amb, q0=0.05, m0=0.01, beta0=0.15,
            config=SolveConfig(mesh=1024, error_estimate=False))
        assert len(audit.buoyancy_jumps) == 2
        for row in audit.buoyancy_jumps:
            assert row.residual == 0.0
            assert row.residual_ulps == 0.0
            assert row.beta_right == row.beta_left + row.expected_jump
        assert audit.jumps_exact

    def test_volume_and_momentum_stay_continuous(self):
        amb = AmbientDensity.step(0.0, 10.0, 1000.0, drops=[(4.0, -2.0)])
        report, audit = run_plume(
            PlumeParams(), amb, q0=0.05, m0=0.01, beta0=0.15,
            config=SolveConfig(mesh=1024, error_estimate=False))
        assert audit.volume_continuous
        assert audit.momentum_continuous
        q_tr, m_tr, _ = report.trajectories
        np.testing.assert_array_equal(q_tr.right_values, q_tr.left_values)
        np.testing.assert_array_equal(m_tr.right_values, m_tr.left_values)

    def test_momentum_stays_positive_through_the_run(self):
        amb = AmbientDensity.step(0.0, 10.0, 1000.0, drops=[(4.0, -2.0)])
        _, audit = run_plume(
            PlumeParams(), amb, q0=0.05, m0=0.01, beta0=0.15,
            config=SolveConfig(mesh=512, error_estimate=False))
        assert audit.min_momentum > 0.0
        assert audit.warnings == ()


class TestAgainstReferenceOde:
    def test_smooth_ambient_matches_rk45(self):
        # with a continuous ambient the system is a plain ODE in height
        params = PlumeParams()
        gradient = -0.5
        amb = AmbientDensity.linear(0.0, 5.0, 1000.0, gradient)
        y0 = [0.05, 0.01, 0.15]
        report, _ = run_plume(
            params, amb, *y0, config=SolveConfig(mesh=2048, error_estimate=False))

        A = params.volume_coefficient
        B = params.momentum_coefficient
        C = params.buoyancy_coefficient

        def ode(z, y):
            q, m, beta = y
            return [A * m ** 0.25, B * q * beta, C * q * gradient]

        sample = report.grid[::64]
        ref = solve_ivp(ode, (0.0, 5.0), y0, t_eval=sample,
                        rtol=1e-10, atol=1e-12)
        assert ref.success
        for j, tr in enumerate(report.trajectories):
            diff = np.max(np.abs(tr.left_values[::64] - ref.y[j]))
            assert diff < RK45_TOL


class TestGeometry:
    def test_round_trip(self):
        q = np.array([0.05, 0.2, 0.9])
        m = np.array([0.01, 0.5, 2.5])
        beta = np.array([0.15, 0.1, -0.02])
        b, w, theta = flux_to_geometry(q, m, beta)
        np.testing.assert_allclose(b * m ** 0.25, q, rtol=1e-13)
        np.testing.assert_allclose((w * q) ** 2, m, rtol=1e-13)
        np.testing.assert_allclose(theta * q, beta, rtol=1e-13)

    def test_needs_positive_fluxes(self):
        with pytest.raises(DomainError):
            flux_to_geometry(0.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            flux_to_geometry(1.0, -1.0, 0.1)


class TestBreakdown:
    def test_nonpositive_momentum_is_a_model_error(self):
        amb = AmbientDensity.linear(0.0, 5.0, 1000.0, 0.0)
        spec = build_plume_system(PlumeParams(), amb, 0.05, 0.01, 0.15)
        with pytest.raises(RhsEvaluationError):
            spec.call_rhs(1.0, np.array([0.05, -0.01, 0.15]))

    def test_initial_fluxes_must_be_positive(self):
        amb = AmbientDensity.linear(0.0, 5.0, 1000.0, 0.0)
        with pytest.raises(DomainError):
            build_plume_system(PlumeParams(), amb, 0.0, 0.01, 0.15)
        with pytest.raises(DomainError):
            build_plume_system(PlumeParams(), amb, 0.05, -1.0, 0.15)


class TestOneRhs:
    def spec(self):
        amb = AmbientDensity.step(0.0, 10.0, 1000.0, drops=[(3.0, -1.5)])
        return build_plume_system(PlumeParams(), amb, 0.05, 0.01, 0.15)

    def test_one_function_serves_both_calls(self):
        spec = self.spec()
        assert spec.rhs is spec.rhs_batch

    def test_a_list_state_gives_the_bits_of_an_array_state(self):
        spec = self.spec()
        x = [0.05, 0.0123, -0.4]
        assert spec.rhs(2.0, x).tobytes() == spec.rhs(2.0, np.array(x)).tobytes()
        with pytest.raises(RhsEvaluationError, match=r"^momentum flux 0\.0 is not positive"):
            spec.rhs(2.0, [0.05, 0.0, 0.1])


class TestBatchedRhs:
    def spec(self, beta0=0.15):
        amb = AmbientDensity.step(0.0, 10.0, 1000.0, drops=[(3.0, -1.5), (7.0, -0.8)])
        return build_plume_system(PlumeParams(), amb, 0.05, 0.01, beta0)

    def test_batch_equals_scalar_row_by_row(self):
        spec = self.spec()
        rng = np.random.default_rng(11)
        n = 20000
        zs = rng.uniform(0.0, 10.0, n)
        X = np.column_stack([rng.normal(size=n), 10.0 ** rng.uniform(-12.0, 12.0, n),
                             rng.normal(size=n)])
        rows = np.array([spec.rhs(z, x) for z, x in zip(zs.tolist(), X)])
        assert spec.rhs_batch(zs, X).tobytes() == rows.tobytes()

    def test_stepped_plume_keeps_the_bits_of_the_scalar_loops(self):
        spec = self.spec()
        grid = system_grid(spec.derivators, 10.0, 256)
        assert_same_outcome(solve_picard(spec, grid), reference_picard(spec, grid))
        assert_same_outcome(solve_euler(spec, grid), reference_euler(spec, grid))

    def test_breakdown_mid_sweep_names_the_height_of_the_scalar_loop(self):
        # negative buoyancy drives m through zero part-way up; the second
        # sweep meets m <= 0 at some height inside the grid
        spec = self.spec(beta0=-0.5)
        scalar = SystemSpec(spec.derivators, spec.rhs, spec.initial)
        grid = system_grid(spec.derivators, 10.0, 256)
        want = outcome(reference_picard, spec, grid)
        assert want.startswith("RhsEvaluationError: momentum flux -")
        assert want.endswith("; the plume model has broken down")
        assert outcome(solve_picard, spec, grid) == want
        assert outcome(solve_picard, scalar, grid) == want
        with pytest.raises(RhsEvaluationError) as exc:
            solve(spec, SolveConfig(mesh=256))
        assert f"RhsEvaluationError: {exc.value}" == want

    def test_batch_form_names_the_first_broken_row(self):
        spec = self.spec()
        X = np.array([[0.05, 0.01, 0.1], [0.05, -0.0, 0.1], [0.05, -1.0, 0.1]])
        zs = np.array([1.0, 2.0, 3.0])
        with pytest.raises(RhsEvaluationError) as scalar:
            spec.rhs(2.0, X[1])
        with pytest.raises(RhsEvaluationError) as batch:
            spec.rhs_batch(zs, X)
        assert str(batch.value) == str(scalar.value)
        assert str(scalar.value) == ("momentum flux -0.0 is not positive at height 2.0; "
                                     "the plume model has broken down")

    def test_catalog_plume_is_the_same_right_hand_side(self):
        params = PlumeParams()
        amb = AmbientDensity.step(0.0, 10.0, 1000.0, drops=[(4.0, -2.0)])
        built = build_plume_system(params, amb, 0.05, 0.01, -0.5)
        doc = {
            "derivators": [serialize_derivator(d) for d in built.derivators],
            "initial": [0.05, 0.01, -0.5],
            "rhs": {"kind": "plume", "A": params.volume_coefficient,
                    "B": params.momentum_coefficient, "C": params.buoyancy_coefficient},
        }
        parsed, _ = parse_system(doc)
        grid = system_grid(built.derivators, 10.0, 128)
        want = outcome(reference_euler, built, grid)
        assert "the plume model has broken down" in want
        assert outcome(solve_euler, parsed, grid) == want
        assert outcome(solve_picard, parsed, grid) == outcome(solve_picard, built, grid)


def random_stepped_ambient(rng):
    lo, hi = 0.0, float(rng.uniform(2.0, 12.0))
    heights = np.sort(rng.choice(np.arange(1, 64), size=int(rng.integers(0, 6)), replace=False))
    drops = [(lo + (hi - lo) * z / 64.0, float(rng.uniform(-3.0, 1.0))) for z in heights.tolist()]
    return AmbientDensity.step(lo, hi, float(rng.uniform(990.0, 1010.0)), drops)


class TestAuditFromSolverRows:
    def test_rows_equal_the_per_jump_recomputation(self):
        rng = np.random.default_rng(73)
        params = PlumeParams()
        rows = 0
        for _ in range(30):
            amb = random_stepped_ambient(rng)
            for picard in (True, False):
                config = SolveConfig(mesh=int(rng.integers(16, 256)), picard=picard,
                                     error_estimate=False)
                report, audit = run_plume(params, amb, 0.05, 0.01,
                                          float(rng.uniform(0.01, 0.3)), config)
                want = reference_plume_audit(params, amb, report)
                # float reprs round-trip and tell -0.0 from 0.0
                assert repr(audit) == repr(want)
                rows += len(want.buoyancy_jumps)
        assert rows > 50


class TestGeometryColumns:
    def test_plume_csv_matches_the_per_row_inversion(self, tmp_path, capsys):
        amb = AmbientDensity.step(0.0, 10.0, 1000.0, drops=[(3.0, -1.5), (7.0, -0.8)])
        doc = {"ambient": serialize_derivator(amb.rho),
               "initial": {"q": 0.05, "m": 0.01, "beta": 0.15}}
        path = tmp_path / "plume.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["plume", str(path), "--mesh", "1024"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "z,side,q,m,beta,b,w,theta"
        table = np.array([[float(c) for c in ln.split(",")[2:]] for ln in lines[1:]])
        assert len(table) > 1000
        assert same_bits(table[:, 3:], reference_geometry(table[:, :3]))

    def test_rows_without_positive_fluxes_give_nan(self):
        rng = np.random.default_rng(79)
        n = 20000
        states = np.column_stack([
            rng.choice([1.0, -1.0, 0.0], p=[0.8, 0.1, 0.1], size=n) * 10.0 ** rng.uniform(-6, 6, n),
            rng.choice([1.0, -1.0, -0.0], p=[0.8, 0.1, 0.1], size=n) * 10.0 ** rng.uniform(-12, 12, n),
            rng.normal(size=n),
        ])
        states[:3] = [[np.nan, 1.0, 0.1], [1.0, np.nan, 0.1], [1.0, 1.0, np.nan]]
        want = reference_geometry(states)
        assert np.isnan(want).any(axis=1).sum() > 0.15 * n
        assert same_bits(cli._geometry(states), want)
        assert same_bits(cli._geometry(states[:0]), want[:0])
