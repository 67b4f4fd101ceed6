import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    make_profile,
    random_derivator,
    random_polynomial_coeffs,
    random_subinterval,
    reference_segment_integral,
    rs_integral_oracle,
    same_bits,
)
from stieltjes import (
    Derivator,
    DomainError,
    Integrand,
    Jump,
    LinearProfile,
    PowerProfile,
    Segment,
    StieltjesMeasure,
    TabulatedProfile,
    hahn_check,
    integrate,
    measure_of_interval,
    measure_of_point,
)
from stieltjes.measure import _segment_integral

INTEGRAL_RTOL = 1e-6


def identity_with_jump(delta=2.0, at=0.5):
    return Derivator.identity(0.0, 1.0, jumps=[(at, delta)])


def signed(d):
    return StieltjesMeasure(d, "signed")


class TestMasses:
    def test_signed_interval_desk_value(self):
        m = signed(identity_with_jump())
        assert measure_of_interval(m, 0.0, 1.0) == pytest.approx(3.0)

    def test_point_masses(self):
        d = identity_with_jump(delta=-1.5)
        assert measure_of_point(StieltjesMeasure(d, "signed"), 0.5) == -1.5
        assert measure_of_point(StieltjesMeasure(d, "total_variation"), 0.5) == 1.5
        assert measure_of_point(StieltjesMeasure(d, "positive_part"), 0.5) == 0.0
        assert measure_of_point(StieltjesMeasure(d, "negative_part"), 0.5) == 1.5
        assert measure_of_point(StieltjesMeasure(d, "total_variation"), 0.25) == 0.0

    def test_point_masses_off_jumps_are_positive_zero(self):
        d = identity_with_jump(delta=-1.5)
        for sig in ("signed", "positive_part", "negative_part", "total_variation"):
            mass = StieltjesMeasure(d, sig).point(0.25)
            assert mass == 0.0 and math.copysign(1.0, mass) == 1.0

    def test_half_open_interval_includes_left_jump(self):
        m = signed(identity_with_jump(delta=2.0, at=0.5))
        assert m.interval(0.0, 0.5) == pytest.approx(0.5)
        assert m.interval(0.5, 1.0) == pytest.approx(2.5)

    def test_other_interval_shapes_rejected(self):
        m = signed(identity_with_jump())
        with pytest.raises(DomainError):
            m.interval(0.0, 0.5, closed_left_open_right=False)

    def test_signed_equals_positive_minus_negative(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            d = random_derivator(rng)
            lo, hi = random_subinterval(rng, d)
            s = StieltjesMeasure(d, "signed").interval(lo, hi)
            pos = StieltjesMeasure(d, "positive_part").interval(lo, hi)
            neg = StieltjesMeasure(d, "negative_part").interval(lo, hi)
            assert s == pytest.approx(pos - neg, abs=1e-10)

    def test_interval_outside_domain_rejected(self):
        m = signed(identity_with_jump())
        with pytest.raises(DomainError):
            m.interval(-0.5, 0.5)

    def test_unknown_signature_rejected(self):
        with pytest.raises(DomainError):
            StieltjesMeasure(identity_with_jump(), "absolute")


class TestIntegration:
    def test_identity_times_t_desk_value(self):
        m = signed(identity_with_jump())
        value = integrate(m, Integrand.polynomial([0.0, 1.0]), 0.0, 1.0)
        assert value == pytest.approx(1.5, rel=1e-10)

    def test_atom_contribution_via_narrow_interval(self):
        m = signed(identity_with_jump(delta=2.0, at=0.5))
        f = Integrand.polynomial([0.4, 0.0, 2.9])
        value = integrate(m, f, 0.5, 0.5 + 1e-9)
        atom = (0.4 + 2.9 * 0.25) * 2.0
        assert value == pytest.approx(atom, abs=1e-8)

    def test_corpus_against_midpoint_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            d = random_derivator(rng)
            f = Integrand.polynomial(random_polynomial_coeffs(rng))
            lo, hi = random_subinterval(rng, d)
            for signature in ("signed", "total_variation", "positive_part"):
                lib = StieltjesMeasure(d, signature).integrate(f, lo, hi)
                ora = rs_integral_oracle(f, d, lo, hi, signature)
                assert lib == pytest.approx(ora, abs=1e-9, rel=INTEGRAL_RTOL)

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2 ** 31))
    def test_linearity_property(self, seed):
        rng = np.random.default_rng(seed)
        m = signed(random_derivator(rng))
        f = Integrand.polynomial(random_polynomial_coeffs(rng))
        g = Integrand.polynomial(random_polynomial_coeffs(rng))
        both = Integrand.from_callable(lambda t: f(t) + 2.5 * g(t))
        lhs = m.integrate(both, 0.0, 1.0)
        rhs = m.integrate(f, 0.0, 1.0) + 2.5 * m.integrate(g, 0.0, 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-9, rel=1e-9)

    def test_square_root_profile_singularity(self):
        # density ~ t^(-1/2)/2 at the left edge; substitution removes it
        d = Derivator((0.0, 1.0), [Segment(0.0, 1.0, PowerProfile(0.5, 1.0))], [])
        m = signed(d)
        assert m.integrate(Integrand.constant(1.0), 0.0, 1.0) == pytest.approx(1.0, rel=1e-10)
        # integral of t d(sqrt(t)) = 1/3
        value = m.integrate(Integrand.polynomial([0.0, 1.0]), 0.0, 1.0)
        assert value == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_tabulated_profile_refinement_route(self):
        prof = TabulatedProfile(((0.2, 0.0), (0.5, 0.6), (0.8, 1.0)))
        d = Derivator((0.0, 1.0), [Segment(0.0, 1.0, prof)], [])
        f = Integrand.polynomial([0.0, 0.0, 3.0])
        lib = signed(d).integrate(f, 0.0, 1.0)
        ora = rs_integral_oracle(f, d, 0.0, 1.0, "signed")
        assert lib == pytest.approx(ora, rel=1e-7)


class TestHahn:
    def test_desk_example_residual_zero(self):
        d = Derivator((0.0, 1.0), [
            Segment(0.0, 0.5, LinearProfile(1.0)),
            Segment(0.5, 1.0, LinearProfile(-2.0)),
        ], [Jump(0.5, 1.5)])
        rows = hahn_check(signed(d), [(0.0, 0.4), (0.2, 0.9), (0.0, 1.0)])
        assert all(r.passed for r in rows)
        assert max(abs(r.residual) for r in rows) < 1e-10

    def test_corpus_residuals(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            d = random_derivator(rng)
            intervals = [random_subinterval(rng, d) for _ in range(3)]
            for row in hahn_check(signed(d), intervals):
                assert row.passed, row
                # both parts must be recovered from the signed measure alone
                assert row.positive_direct == pytest.approx(
                    row.positive_from_signed, abs=1e-10)
                assert row.negative_direct == pytest.approx(
                    row.negative_from_signed, abs=1e-10)


class TestIntegrand:
    def test_polynomial_coefficients_are_low_first(self):
        f = Integrand.polynomial([1.0, 0.0, 2.0])
        assert f(3.0) == 19.0

    def test_scalar_only_closure_is_wrapped(self):
        def scalar_only(t):
            return float(t) ** 2  # float() chokes on arrays

        f = Integrand.from_callable(scalar_only)
        np.testing.assert_allclose(f(np.array([1.0, 2.0])), [1.0, 4.0])

    def test_piecewise_polynomial(self):
        f = Integrand.piecewise_polynomial([0.0, 0.5, 1.0], [[1.0], [0.0, 2.0]])
        assert f(0.25) == 1.0
        assert f(0.75) == 1.5
        np.testing.assert_allclose(f(np.array([0.1, 0.9])), [1.0, 1.8])

    def test_tabulated_interpolates(self):
        f = Integrand.tabulated([(0.0, 1.0), (1.0, 3.0)])
        assert f(0.5) == 2.0


def _exact_tabulated(prof, lo, hi, antiderivative, breaks=()):
    """Integral over [lo, hi] against a tabulated profile, in rational arithmetic.

    ``antiderivative(c, e)`` gives the exact integral of the integrand over
    [c, e] for c, e inside one piece; ``breaks`` are the integrand's own
    piece boundaries, so no piece straddles one.
    """
    F = Fraction
    total = F(0)
    for (x0, y0), (x1, y1) in zip(prof.points, prof.points[1:]):
        c, e = max(F(x0), F(lo)), min(F(x1), F(hi))
        if c >= e:
            continue
        slope = (F(y1) - F(y0)) / (F(x1) - F(x0))
        cuts = sorted({c, e, *(F(x) for x in breaks if c < F(x) < e)})
        total += slope * sum(antiderivative(u, v) for u, v in zip(cuts, cuts[1:]))
    return total


def _poly_integral(coeffs):
    cs = [Fraction(c) for c in coeffs]

    def integral(c, e):
        return sum(ck * (e ** (k + 1) - c ** (k + 1)) / (k + 1) for k, ck in enumerate(cs))

    return integral


class TestTabulatedIntegral:
    """Tabulated profiles integrate per knot cell, exactly up to rounding
    for polynomials."""

    def draw(self, rng):
        prof = make_profile(rng, 0.0, 1.0)
        while not isinstance(prof, TabulatedProfile):
            prof = make_profile(rng, 0.0, 1.0)
        d = Derivator((0.0, 1.0), [Segment(0.0, 1.0, prof)], [])
        lo, hi = sorted(rng.uniform(0.0, 1.0, size=2))
        return prof, d, float(lo), float(hi)

    def test_polynomial_matches_the_closed_form(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            prof, d, lo, hi = self.draw(rng)
            # positive on [0, 1], so the relative error has no cancellation to hide in
            coeffs = [rng.uniform(0.5, 2.0), *rng.uniform(-0.3, 0.3, size=int(rng.integers(0, 5)))]
            for a, b in ((0.0, 1.0), (lo, hi)):
                exact = float(_exact_tabulated(prof, a, b, _poly_integral(coeffs)))
                got = signed(d).integrate(Integrand.polynomial(coeffs), a, b)
                assert abs(got - exact) <= 1e-13 * abs(exact)

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-12])
    def test_kinked_integrands_meet_the_tolerance(self, rel_tol):
        rng = np.random.default_rng(43)
        F = Fraction
        for _ in range(40):
            prof, d, lo, hi = self.draw(rng)
            # a tabulated integrand with kinks off the profile's knots
            xs = np.sort(rng.uniform(0.0, 1.0, size=5)).tolist()
            ys = rng.uniform(0.5, 2.0, size=5).tolist()
            f = Integrand.tabulated(list(zip(xs, ys)))

            def value(t):
                if t <= F(xs[0]):
                    return F(ys[0])
                if t >= F(xs[-1]):
                    return F(ys[-1])
                i = max(k for k in range(len(xs)) if F(xs[k]) <= t)
                w = (t - F(xs[i])) / (F(xs[i + 1]) - F(xs[i]))
                return F(ys[i]) + w * (F(ys[i + 1]) - F(ys[i]))

            exact = float(_exact_tabulated(
                prof, lo, hi, lambda c, e: (value(c) + value(e)) / 2 * (e - c), xs))
            got = signed(d).integrate(f, lo, hi, rel_tol=rel_tol)
            assert abs(got - exact) <= rel_tol * abs(exact)

            # a piecewise polynomial that jumps at an off-knot break
            mid = float(rng.uniform(0.1, 0.9))
            rows = [[1.0, 0.5], [2.0, -0.5, 0.25]]
            g = Integrand.piecewise_polynomial([0.0, mid, 1.0], rows)
            left, right = _poly_integral(rows[0]), _poly_integral(rows[1])
            exact = float(_exact_tabulated(
                prof, lo, hi, lambda c, e: left(c, e) if e <= F(mid) else right(c, e), [mid]))
            got = signed(d).integrate(g, lo, hi, rel_tol=rel_tol)
            assert abs(got - exact) <= rel_tol * abs(exact)

    def test_flat_cells_cost_no_quadrature(self, monkeypatch):
        from stieltjes import quadrature

        calls = []
        real = quadrature.integrate_adaptive
        monkeypatch.setattr(quadrature, "integrate_adaptive",
                            lambda f, lo, hi, rel_tol: calls.append((lo, hi)) or real(f, lo, hi, rel_tol))
        prof = TabulatedProfile(((0.2, 0.0), (0.4, 0.0), (0.6, 1.0), (0.8, 1.0)))
        d = Derivator((0.0, 1.0), [Segment(0.0, 1.0, prof)], [])
        value = signed(d).integrate(Integrand.polynomial([0.0, 1.0]), 0.0, 1.0)
        assert calls == [(0.4, 0.6)]
        assert value == pytest.approx(0.5, rel=1e-15)


def test_segment_integrals_match_the_per_kind_branches():
    """Without integrand kinks the charted adaptive integral keeps the bits of
    one branch per kind. The substituted power chart (exponent < 1) maps its
    ends through numpy's array power, which may round differently from the
    scalar power."""
    rng = np.random.default_rng(45)
    for _ in range(200):
        d = random_derivator(rng)
        f = Integrand.polynomial(random_polynomial_coeffs(rng))
        for seg in d.segments:
            if seg.is_constant:
                continue
            lo, hi = sorted(rng.uniform(seg.lo, seg.hi, size=2).tolist())
            for a, b in ((seg.lo, seg.hi), (lo, hi)):
                got = _segment_integral(f, seg, a, b, 1e-10)
                want = reference_segment_integral(f, seg, a, b, 1e-10)
                if isinstance(seg.profile, PowerProfile) and seg.profile.exponent < 1.0:
                    assert abs(got - want) <= 1e-12 * abs(want)
                else:
                    assert same_bits(got, want)


def _square(k):
    """(k / 4096)**2, exact in binary64 and with an exact square root."""
    return (k / 4096.0) ** 2


def _against(prof, coeffs, c, e):
    """Exact integral of sum_k coeffs[k] t**k over [c, e] against a linear
    profile, or a power profile with exponent 1/2 or 2, on a segment from 0."""
    F = Fraction
    if isinstance(prof, LinearProfile):
        scale, p = F(prof.slope), F(1)
    else:
        scale, p = F(prof.scale), F(prof.exponent)

    def root(x):
        if p.denominator == 1:
            return x ** p.numerator
        r = F(math.sqrt(x))
        assert r * r == x
        return r

    return scale * sum(ck * p / (k + p) * (e ** k * root(e) - c ** k * root(c))
                       for k, ck in enumerate(coeffs))


class TestKinkedIntegrands:
    """An integrand kink between a panel's outer node and its end hides from
    the Kronrod error estimate, so every segment is cut at the integrand's
    kinks. Every drawn point is a square of a multiple of 2**-12, which keeps
    the closed forms rational for the square-root profile."""

    KINDS = {
        "linear": lambda rng: LinearProfile(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])),
        "power-sqrt": lambda rng: PowerProfile(0.5, rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])),
        "power-square": lambda rng: PowerProfile(2.0, rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])),
    }

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_kinked_integrands_meet_the_tolerance(self, kind, rel_tol):
        rng = np.random.default_rng(46)
        F = Fraction
        for _ in range(40):
            prof = self.KINDS[kind](rng)
            d = Derivator((0.0, 1.0), [Segment(0.0, 1.0, prof)], [])
            lo, hi = (_square(k) for k in np.sort(rng.choice(np.arange(1, 4096), 2, replace=False)))

            # a tabulated integrand: constant outside its samples, linear between
            xs = [_square(k) for k in np.sort(rng.choice(np.arange(1, 4096), 5, replace=False))]
            ys = rng.uniform(0.5, 2.0, size=5).tolist()
            f = Integrand.tabulated(list(zip(xs, ys)))
            pieces = [(F(0), F(xs[0]), [F(ys[0])]), (F(xs[-1]), F(1), [F(ys[-1])])]
            for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
                slope = (F(y1) - F(y0)) / (F(x1) - F(x0))
                pieces.append((F(x0), F(x1), [F(y0) - slope * F(x0), slope]))

            # a piecewise polynomial that jumps at its break
            mid = _square(int(rng.integers(1296, 3886)))
            rows = [[1.0, 0.5], [2.0, -0.5, 0.25]]
            g = Integrand.piecewise_polynomial([0.0, mid, 1.0], rows)
            g_pieces = [(F(0), F(mid), [F(c) for c in rows[0]]),
                        (F(mid), F(1), [F(c) for c in rows[1]])]

            for h, parts in ((f, pieces), (g, g_pieces)):
                exact = float(sum(_against(prof, coeffs, max(c, F(lo)), min(e, F(hi)))
                                  for c, e, coeffs in parts if max(c, F(lo)) < min(e, F(hi))))
                got = signed(d).integrate(h, lo, hi, rel_tol=rel_tol)
                assert abs(got - exact) <= rel_tol * abs(exact)
