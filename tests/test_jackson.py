"""Jackson derivatives: pointwise forms, polynomial action, ladder identity."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfermi import (
    Model,
    SingularPointError,
    jd_operator_identity_residual,
    jd_polynomial,
    pvc_basic,
    pvc_jd_value,
    vpjc_basic,
    vpjc_jd_value,
)
from qfermi.jackson import polyval, reflection_residual


def _monomial(n):
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    return coeffs


class TestPointwise:
    @pytest.mark.parametrize("q", [0.3, 0.5, 1.0, 1.7])
    def test_linear_function(self, q):
        assert pvc_jd_value(lambda x: x, 2.0, q) == pytest.approx(1.0, abs=1e-15)
        assert vpjc_jd_value(lambda x: x, 3.0, q) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("q", [0.3, 0.9])
    def test_constant_function(self, q):
        assert pvc_jd_value(lambda x: 1.0, 1.0, q) == 0.0
        assert vpjc_jd_value(lambda x: 1.0, 1.0, q) == 0.0

    def test_pvc_square_direct_algebra_oracle(self):
        # (x/q)**2 - (q x)**2 over x (q + 1/q) at x = 1 is (q**-2 - q**2)/(q + 1/q)
        q = 0.5
        oracle = (q**-2 - q**2) / (q + 1.0 / q)
        value = pvc_jd_value(lambda x: x * x, 1.0, q)
        assert value == pytest.approx(oracle, rel=1e-15)
        assert value == pytest.approx(pvc_basic(2, q), rel=1e-14)
        assert value == pytest.approx(1.5, abs=1e-14)

    def test_vpjc_square_oracle(self):
        # (x**2 - q**2 x**2) / (x (1 + q)) = (1 - q) x
        q, x = 0.5, 2.0
        assert vpjc_jd_value(lambda u: u * u, x, q) == pytest.approx(
            (1.0 - q) * x, rel=1e-15
        )

    def test_vpjc_q1_is_not_classical_derivative(self):
        assert vpjc_jd_value(lambda u: u * u, 1.0, 1.0) == 0.0

    def test_singular_origin(self):
        with pytest.raises(SingularPointError):
            pvc_jd_value(lambda x: x, 0.0, 0.5)
        with pytest.raises(SingularPointError):
            vpjc_jd_value(lambda x: x, 0.0, 0.5)


class TestPolynomialAction:
    def test_vpjc_cube(self):
        out = jd_polynomial(Model.VPJC, [0.0, 0.0, 0.0, 1.0], 0.5)
        np.testing.assert_allclose(out, [0.0, 0.0, 0.75], atol=1e-15)

    def test_pvc_affine(self):
        out = jd_polynomial(Model.PVC, [1.0, 1.0], 0.7)
        np.testing.assert_allclose(out, [1.0], atol=1e-15)

    def test_vpjc_square_vanishes_at_q1(self):
        out = jd_polynomial(Model.VPJC, [0.0, 0.0, 1.0], 1.0)
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_constant_maps_to_zero(self):
        np.testing.assert_array_equal(jd_polynomial(Model.VPJC, [3.0], 0.5), [0.0])

    @pytest.mark.parametrize("model", [Model.PVC, Model.VPJC])
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 1.0])
    def test_monomial_eigen_action_rational_oracle(self, model, q):
        basic = pvc_basic if model is Model.PVC else vpjc_basic
        q_frac = Fraction(q).limit_denominator(10)
        for n in range(1, 21):
            out = jd_polynomial(model, _monomial(n), q)
            if model is Model.VPJC:
                exact = (1 - (-q_frac) ** n) / (1 + q_frac)
            else:
                exact = (q_frac**-n - (-1) ** n * q_frac**n) / (q_frac + 1 / q_frac)
            scale = max(1.0, abs(float(exact)))
            assert abs(out[n - 1] - float(exact)) <= 1e-14 * scale
            assert out[n - 1] == basic(n, q)
            assert np.all(out[: n - 1] == 0.0)

    def test_rejects_other_models(self):
        with pytest.raises(ValueError):
            jd_polynomial(Model.FN, [0.0, 1.0], 0.5)


class TestOperatorIdentity:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 1.0])
    def test_vpjc_exact_on_monomials(self, q):
        polys = [_monomial(n) for n in range(7)]
        assert jd_operator_identity_residual(Model.VPJC, q, polys) <= 1e-14

    def test_vpjc_random_degree_six(self):
        rng = np.random.default_rng(11)
        poly = rng.uniform(-1.0, 1.0, size=7)
        assert jd_operator_identity_residual(Model.VPJC, 0.9, [poly]) <= 1e-13

    def test_vpjc_degenerate_q1(self):
        assert jd_operator_identity_residual(Model.VPJC, 1.0, [[0.0, 1.0]]) == 0.0

    @pytest.mark.parametrize("q", [0.5, 0.9, 1.0])
    def test_pvc_weighted_identity(self, q):
        # right side carries q**-degree, exact termwise
        polys = [_monomial(n) for n in range(7)]
        assert jd_operator_identity_residual(Model.PVC, q, polys) <= 1e-14

    def test_pvc_weighted_identity_small_q_scaled(self):
        polys = [_monomial(n) for n in range(7)]
        residual = jd_operator_identity_residual(Model.PVC, 0.3, polys)
        assert residual <= 1e-13 * 0.3**-7

    def test_requires_polynomials(self):
        with pytest.raises(ValueError):
            jd_operator_identity_residual(Model.VPJC, 0.5, [])


@settings(max_examples=60, deadline=None)
@given(
    q=st.floats(min_value=0.1, max_value=0.99),
    coeffs=st.lists(
        st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=7
    ),
)
def test_vpjc_identity_property(q, coeffs):
    assert jd_operator_identity_residual(Model.VPJC, q, [coeffs]) <= 1e-13


@pytest.mark.parametrize("model,fn", [(Model.PVC, pvc_jd_value), (Model.VPJC, vpjc_jd_value)])
def test_pointwise_matches_polynomial_path(model, fn):
    rng = np.random.default_rng(5)
    coeffs = rng.uniform(-1.5, 1.5, size=6)
    derived = jd_polynomial(model, coeffs, 0.5)
    for x in (-10.0, -2.0, -0.1, 0.1, 0.4, 3.0, 10.0):
        pointwise = fn(lambda u: polyval(coeffs, u), x, 0.5)
        analytic = polyval(derived, x)
        assert pointwise == pytest.approx(analytic, rel=1e-12, abs=1e-13)


def test_reflection_property_on_polynomials():
    rng = np.random.default_rng(2)
    coeffs = rng.uniform(-1.0, 1.0, size=8)
    for q in (0.3, 0.5, 0.9):
        assert reflection_residual(coeffs, q, (0.25, 1.0, 2.5)) <= 1e-12


def test_overflowing_coefficient_is_a_typed_error():
    with pytest.raises(ValueError, match="pvc spectrum at q = 0.3: level 590 overflows"):
        jd_polynomial(Model.PVC, _monomial(2000), 0.3)
