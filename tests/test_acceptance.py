"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every criterion draws from a fixed-seed corpus so the run is reproducible.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from stieltjes import (
    AmbientDensity,
    ConstantProfile,
    Derivator,
    Jump,
    LinearCoefficient,
    LinearProfile,
    PlumeParams,
    Segment,
    SolveConfig,
    StieltjesMeasure,
    SystemSpec,
    derivative_estimates,
    ftc_roundtrip,
    g_exponential,
    hahn_check,
    measure_of_point,
    primitive,
    run_plume,
    solve,
    solve_euler,
    solve_picard,
    system_grid,
    verify_linear_solution,
)
from stieltjes.measure import Integrand

from helpers import (
    random_derivator,
    random_polynomial_coeffs,
    random_subinterval,
    rs_integral_oracle,
)

SEED = 20260818


def verdict(number, label):
    """Print one PASS/FAIL line per criterion, re-raising on failure."""
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"CRITERION {number:2d} [{status}] {label}")
            return False
    return _Ctx()


def identity_with_jump(delta, at=0.5):
    return Derivator.identity(0.0, 1.0, jumps=[Jump(at, delta)])


def test_criterion_01_measure_identities():
    rng = np.random.default_rng(SEED)
    with verdict(1, "Jordan identities and exact singleton masses, 1000 draws"):
        for _ in range(1000):
            d = random_derivator(rng)
            lo, hi = random_subinterval(rng, d)
            pos = d.variation(lo, hi, "positive")
            neg = d.variation(lo, hi, "negative")
            tot = d.variation(lo, hi, "total")
            signed = d.eval(hi) - d.eval(lo)
            assert abs(tot - (pos + neg)) < 1e-10
            assert abs(signed - (pos - neg)) < 1e-10
            for j in d.jumps:
                assert measure_of_point(
                    StieltjesMeasure(d, "signed"), j.at) == j.delta
                assert measure_of_point(
                    StieltjesMeasure(d, "total_variation"), j.at) == abs(j.delta)


def test_criterion_02_hahn_consistency():
    rng = np.random.default_rng(SEED + 2)
    with verdict(2, "Hahn decomposition residuals < 1e-10, 200 draws"):
        for _ in range(200):
            d = random_derivator(rng)
            intervals = [random_subinterval(rng, d) for _ in range(3)]
            for row in hahn_check(StieltjesMeasure(d, "signed"), intervals):
                assert row.passed
                assert abs(row.residual) < 1e-10


def test_criterion_03_integration_oracle():
    rng = np.random.default_rng(SEED + 3)
    with verdict(3, "integrate vs level-16 dyadic refinement, 100 draws"):
        for k in range(100):
            d = random_derivator(rng)
            f = Integrand.polynomial(random_polynomial_coeffs(rng))
            lo, hi = random_subinterval(rng, d)
            signature = "signed" if k % 2 == 0 else "total_variation"
            got = StieltjesMeasure(d, signature).integrate(f, lo, hi)
            want = rs_integral_oracle(f, d, lo, hi, signature=signature)
            assert abs(got - want) <= 1e-6 * max(abs(want), 1e-9)


def test_criterion_04_ftc_roundtrip_both_directions():
    rng = np.random.default_rng(SEED + 4)
    with verdict(4, "FTC roundtrip < 1e-6 and derivative recovers v, 50 draws"):
        checked = 0
        for _ in range(50):
            d = random_derivator(rng)
            coeffs = random_polynomial_coeffs(rng)
            v = Integrand.polynomial(coeffs)
            m = StieltjesMeasure(d, "signed")
            h = primitive(m, v, grid_hint=2048)
            report = ftc_roundtrip(h)
            assert report.max_deviation < 1e-6
            # second direction: differentiating the primitive gives v back;
            # points inside constant runs are legitimately undefined
            values, eligible = derivative_estimates(h)
            jumpless = d.deltas_on(h.grid) == 0.0
            for i in np.nonzero(eligible & jumpless)[0][64::257]:
                want = float(v(h.grid[i]))
                assert abs(values[i] - want) <= 1e-6 * max(1.0, abs(want))
                checked += 1
        assert checked > 100


def test_criterion_05_g_exponential():
    with verdict(5, "g-exponential closed forms and residuals in all regimes"):
        cases = {}
        # (a) no jumps: plain exponential
        lc = LinearCoefficient(Derivator.identity(0.0, 1.0), lambda t: 1.0)
        assert abs(g_exponential(lc, 1.0) - math.e) < 1e-9
        cases["plain"] = lc
        # (b) unit jump at 0.5: e(t) = 2 e^t beyond it
        lc = LinearCoefficient(identity_with_jump(1.0), lambda t: 1.0)
        for t in (0.6, 0.75, 1.0):
            assert abs(g_exponential(lc, t) - 2.0 * math.exp(t)) < 1e-8
        cases["positive"] = lc
        # (c) factor -1 jumps: sign pattern (-1)^k exact
        d = Derivator.identity(0.0, 1.0,
                               jumps=[Jump(0.25, -2.0), Jump(0.5, -2.0), Jump(0.75, -2.0)])
        lc = LinearCoefficient(d, lambda t: 1.0)
        for t, flips in ((0.1, 0), (0.3, 1), (0.6, 2), (0.9, 3)):
            assert np.sign(g_exponential(lc, t)) == (-1.0) ** flips
        cases["sign"] = lc
        # (d) factor 0: extinction is exact
        lc = LinearCoefficient(identity_with_jump(-1.0), lambda t: 1.0)
        assert g_exponential(lc, 0.75) == 0.0
        assert g_exponential(lc, 1.0) == 0.0
        cases["vanishing"] = lc
        # (e) integral-identity residual in all four cases
        for name, lc in cases.items():
            report = verify_linear_solution(lc, grid_hint=2048)
            assert report.max_residual < 1e-6, name
            assert report.jump_identity_exact, name


def _solver_error(spec, lc, mesh, picard):
    grid = system_grid(spec.derivators, spec.interval[1], mesh)
    if picard:
        left, right, converged, *_ = solve_picard(spec, grid)
        assert converged
    else:
        left, right, _ = solve_euler(spec, grid)
    sample = grid[:: max(1, len(grid) // 17)]
    worst = 0.0
    for t in sample:
        k = int(np.searchsorted(grid, t))
        worst = max(worst, abs(left[k, 0] - g_exponential(lc, float(t))))
    worst = max(worst, abs(right[-1, 0] - g_exponential(lc, spec.interval[1])))
    return worst


def test_criterion_06_solver_vs_exponential():
    with verdict(6, "Euler < 1e-3 and fixed point < 1e-5 at mesh 4096"):
        for d in (Derivator.identity(0.0, 1.0), identity_with_jump(1.0)):
            spec = SystemSpec([d], lambda t, x: x, [1.0])
            lc = LinearCoefficient(d, lambda t: 1.0)
            assert _solver_error(spec, lc, 4096, picard=False) < 1e-3
            assert _solver_error(spec, lc, 4096, picard=True) < 1e-5


def test_criterion_07_jump_rule_audit():
    rng = np.random.default_rng(SEED + 7)
    with verdict(7, "jump transitions exact to ulp scale across the corpus"):
        audited = 0
        for picard in (True, False):
            for _ in range(8):
                d = random_derivator(rng)
                if not d.jumps:
                    continue
                spec = SystemSpec([d], lambda t, x: 0.5 * x + 0.1, [1.0])
                report = solve(spec, SolveConfig(
                    mesh=256, picard=picard, error_estimate=False))
                for row in report.jump_audit:
                    assert row.residual_ulps <= 1.0
                    audited += 1
        assert audited > 0


def test_criterion_08_euler_mesh_convergence():
    with verdict(8, "Euler sup-error halves with the mesh on smooth problems"):
        for c in (1.0, 0.7):
            spec = SystemSpec(
                [Derivator.identity(0.0, 1.0)], lambda t, x: c * x, [1.0])
            errs = []
            for mesh in (1024, 2048):
                grid = system_grid(spec.derivators, 1.0, mesh)
                left, *_ = solve_euler(spec, grid)
                errs.append(abs(left[-1, 0] - math.exp(c)))
            ratio = errs[1] / errs[0]
            assert 0.3 <= ratio <= 0.7


def test_criterion_09_plume_interface_and_reference():
    params = PlumeParams()
    with verdict(9, "buoyancy jump exact, q and m continuous, RK45 within 1e-4"):
        step = AmbientDensity.step(0.0, 10.0, 1000.0, drops=[(4.0, -2.0)])
        report, audit = run_plume(
            params, step, q0=0.05, m0=0.01, beta0=0.15,
            config=SolveConfig(mesh=1024, error_estimate=False))
        assert len(audit.buoyancy_jumps) == 1
        assert audit.buoyancy_jumps[0].residual == 0.0
        assert audit.jumps_exact
        assert audit.volume_continuous and audit.momentum_continuous

        gradient = -0.5
        smooth = AmbientDensity.linear(0.0, 5.0, 1000.0, gradient)
        y0 = [0.05, 0.01, 0.15]
        report, _ = run_plume(
            params, smooth, *y0,
            config=SolveConfig(mesh=2048, picard=True, error_estimate=False))
        A, B, C = (params.volume_coefficient, params.momentum_coefficient,
                   params.buoyancy_coefficient)

        def ode(z, y):
            q, m, beta = y
            return [A * m ** 0.25, B * q * beta, C * q * gradient]

        sample = report.grid[::32]
        ref = solve_ivp(ode, (0.0, 5.0), y0, t_eval=sample,
                        rtol=1e-10, atol=1e-12)
        assert ref.success
        for j, tr in enumerate(report.trajectories):
            assert np.max(np.abs(tr.left_values[::32] - ref.y[j])) < 1e-4


def test_criterion_10_constancy_propagation():
    with verdict(10, "constant spans propagate solution bits unchanged"):
        plateau = Derivator((0.0, 1.0), [
            Segment(0.0, 0.3, LinearProfile(1.0)),
            Segment(0.3, 0.6, ConstantProfile()),
            Segment(0.6, 1.0, LinearProfile(1.0)),
        ], [])
        flat = Derivator((0.0, 1.0), [Segment(0.0, 1.0, ConstantProfile())], [])
        spec = SystemSpec(
            [plateau, flat],
            lambda t, x: np.array([x[0] + x[1], math.cos(t) + x[0]]),
            [1.0, 0.3],
        )
        for picard in (True, False):
            report = solve(spec, SolveConfig(
                mesh=512, picard=picard, error_estimate=False))
            tr0, tr1 = report.trajectories
            span = (report.grid >= 0.3) & (report.grid <= 0.6)
            vals = tr0.left_values[span]
            assert np.all(vals == vals[0])
            assert np.all(tr1.left_values == 0.3)
            assert np.all(tr1.right_values == 0.3)
