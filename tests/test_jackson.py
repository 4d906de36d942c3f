"""Jackson derivatives: pointwise forms, polynomial action, ladder identity."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfermi import (
    Model,
    SingularPointError,
    build_fn_multimode,
    check_algebra,
    covariance_check,
    haar_unitary,
    jd_operator_identity_residual,
    jd_polynomial,
    pvc_basic,
    pvc_jd_value,
    vpjc_basic,
    vpjc_jd_value,
)
from qfermi.jackson import polyval, reflection_residual
from qfermi.spectra import spectrum


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

    @pytest.mark.parametrize("model", [Model.PVC, Model.VPJC])
    @pytest.mark.parametrize(
        "polys,row",
        [([[np.nan]], 0), ([[1.0, np.nan], [0.0, 0.0, 5.0]], 0), ([[1.0], [0.0, np.inf]], 1)],
    )
    def test_rejects_coefficients_that_are_not_finite(self, model, polys, row):
        # a nan residual once read as a pass: max(0.0, nan) is 0.0
        with pytest.raises(ValueError, match=f"test polynomial {row} has a coefficient"):
            jd_operator_identity_residual(model, 0.5, polys)

    def test_overflow_to_nan_reads_as_infinite(self):
        # VPJC q = 3: [4] = -20 and [3] = 7, so p_3 [4] + q p_3 [3] is -inf + inf
        assert jd_operator_identity_residual(Model.VPJC, 3.0, [[0.0, 0.0, 0.0, 1e308]]) == np.inf


@pytest.mark.filterwarnings("error")
def test_an_overflowed_check_reads_as_infinite_without_a_warning():
    # one rule for every residual check: the identity residual, the relation
    # checks and the covariance report an overflow as inf, and numpy prints no
    # RuntimeWarning on the way (a warning is an error here)
    assert jd_operator_identity_residual(Model.VPJC, 3.0, [[0.0, 0.0, 0.0, 1e308]]) == np.inf
    assert check_algebra(build_fn_multimode(3, 1e150)).max_residual == np.inf
    assert covariance_check(3, 1e150, haar_unitary(3, seed=5)) == np.inf


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


def _raises_alike(call, *args):
    """The value of call(*args), or the ValueError text it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


_Q = st.floats(min_value=0.0, max_value=3.0, exclude_min=True)
_COEFF = st.floats(min_value=-2.0, max_value=2.0)


@settings(max_examples=120, deadline=None)
@given(
    model=st.sampled_from([Model.PVC, Model.VPJC]),
    q=_Q,
    stack=st.integers(1, 9).flatmap(
        lambda n: st.lists(st.lists(_COEFF, min_size=n, max_size=n), min_size=1, max_size=5)
    ),
)
@example(model=Model.PVC, q=0.5, stack=[[1.5], [-2.0], [0.0]])
@example(model=Model.VPJC, q=3.0, stack=[[0.25]])
def test_stack_is_its_rows_bit_for_bit(model, q, stack):
    rows = [_raises_alike(jd_polynomial, model, row, q) for row in stack]
    out = _raises_alike(jd_polynomial, model, np.array(stack), q)
    if isinstance(rows[0], str):
        assert out == rows[0]
        return
    assert out.shape == (len(stack), max(len(stack[0]) - 1, 1))
    assert out.tobytes() == np.array(rows).tobytes()


def _identity_per_polynomial(model, q, polynomials):
    """The identity residual as one padded evaluation per polynomial, each of
    D(x p), x D(p) and the right side padded to the longest of the three."""
    polys = [np.asarray(p, dtype=float) for p in polynomials]
    g = spectrum(model, q, max(p.size for p in polys)).values

    def termwise(a):
        return a[1:] * g[1 : a.size] if a.size > 1 else np.zeros(1)

    worst = 0.0
    for p in polys:
        d_xp = termwise(np.concatenate(([0.0], p)))
        x_dp = np.concatenate(([0.0], termwise(p)))
        rhs = p if model is Model.VPJC else p * q ** -np.arange(p.size, dtype=float)
        width = max(d_xp.size, x_dp.size, rhs.size)
        lhs, x_dp, rhs = (np.pad(a, (0, width - a.size)) for a in (d_xp, x_dp, rhs))
        worst = max(worst, float(np.max(np.abs(lhs + q * x_dp - rhs))))
    return worst


@settings(max_examples=120, deadline=None)
@given(
    model=st.sampled_from([Model.PVC, Model.VPJC]),
    q=_Q,
    constant=_COEFF,
    polys=st.lists(st.lists(_COEFF, min_size=1, max_size=9), max_size=5),
)
@example(model=Model.PVC, q=0.3, constant=1.0, polys=[[0.5, -1.0, 2.0, 0.0, 0.0, 0.0, 0.25]])
@example(model=Model.VPJC, q=1.0, constant=-2.0, polys=[])
def test_identity_residual_is_the_per_polynomial_loop(model, q, constant, polys):
    # a size-1 constant, whose x D(p) has two coefficients, among other sizes
    test_set = [[constant], *polys]
    expected = _raises_alike(_identity_per_polynomial, model, q, test_set)
    got = _raises_alike(jd_operator_identity_residual, model, q, test_set)
    assert type(got) is type(expected)
    assert got == expected


def test_identity_at_the_last_finite_pvc_level():
    # at q = 0.3, [589] is the last PVC level below overflow: the widest row
    # carries the weight q**-588 = 2.8e307 and the shorter rows sit on zero
    # padding out to that width, which must give the per-polynomial value
    q = 0.3
    widest = np.zeros(589)
    widest[[0, 588]] = (0.5, 1.0)
    test_set = [widest, [1.0], [0.0, 2.0, -1.0]]
    expected = _identity_per_polynomial(Model.PVC, q, test_set)
    assert np.isfinite(expected)
    assert jd_operator_identity_residual(Model.PVC, q, test_set) == expected
    # one level wider, both raise on the spectrum before any weight is taken
    message = "pvc spectrum at q = 0.3: level 590 overflows a double"
    with pytest.raises(ValueError, match=re.escape(message)):
        _identity_per_polynomial(Model.PVC, q, [np.ones(590), [1.0]])
    with pytest.raises(ValueError, match=re.escape(message)):
        jd_operator_identity_residual(Model.PVC, q, [np.ones(590), [1.0]])


@settings(max_examples=100, deadline=None)
@given(q=st.floats(min_value=1e-3, max_value=0.99))
def test_pvc_weights_are_finite_wherever_the_spectrum_is(q):
    # so a zero padding cell is never multiplied by an infinite weight; q <= 0.99
    # keeps the top level below 71,000
    top = int(709.8 / -np.log(q)) + 2
    while isinstance(_raises_alike(spectrum, Model.PVC, q, top), str):
        top -= 1
    weights = q ** -np.arange(top, dtype=float)
    assert np.isfinite(weights).all()
