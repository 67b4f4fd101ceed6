import numpy as np
import pytest

from stieltjes import quadrature
from stieltjes.errors import QuadratureError
from stieltjes.quadrature import integrate_adaptive, kronrod_panel, panel_integrals


def test_panel_is_exact_on_low_degree_polynomials():
    # the embedded 7-point rule already integrates degree 13 exactly
    coeffs = np.arange(1.0, 11.0)

    def f(x):
        return np.polynomial.polynomial.polyval(x, coeffs)

    value, err = kronrod_panel(f, -1.0, 2.0)
    exact = np.diff(np.polynomial.polynomial.polyval(
        np.array([-1.0, 2.0]), np.concatenate([[0.0], coeffs / np.arange(1, 11)])
    ))[0]
    np.testing.assert_allclose(value, exact, rtol=1e-14)
    assert err < 1e-10 * abs(exact)


def test_adaptive_cosine():
    value = integrate_adaptive(np.cos, 0.0, np.pi / 2)
    np.testing.assert_allclose(value, 1.0, rtol=1e-12)


def test_adaptive_handles_mild_singularity():
    value = integrate_adaptive(lambda x: 1.0 / np.sqrt(np.maximum(x, 1e-300)), 1e-8, 1.0)
    np.testing.assert_allclose(value, 2.0 - 2e-4, rtol=1e-9)


def test_adaptive_cancellation_does_not_spin():
    # integral is exactly zero by symmetry; the tolerance anchor must save us
    value = integrate_adaptive(np.sin, -1.0, 1.0)
    assert abs(value) < 1e-14


def test_panel_cap_raises_with_partial_result(monkeypatch):
    def wiggly(x):
        return np.sin(1000.0 * x)

    monkeypatch.setattr(quadrature, "MAX_PANELS", 8)
    with pytest.raises(QuadratureError) as info:
        integrate_adaptive(wiggly, 0.0, 3.0, rel_tol=1e-14)
    # the partial estimate is still carried on the error
    assert np.isfinite(info.value.estimate)
    assert info.value.error_estimate > 0


def test_panel_integrals_sum_matches_adaptive():
    edges = np.linspace(0.0, 2.0, 33)
    cells = panel_integrals(np.exp, edges[:-1], edges[1:])
    assert cells.shape == (32,)
    np.testing.assert_allclose(np.sum(cells), np.e ** 2 - 1.0, rtol=1e-12)
