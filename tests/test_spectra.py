"""Closed-form spectra against exact rational-arithmetic oracles."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfermi import (
    Model,
    arik_coon_basic,
    basic_factorial,
    basic_number,
    ckn_spectrum,
    fn_spectrum,
    pvc_basic,
    spectrum,
    vpjc_basic,
    vpjc_recurrence_residual,
)


def vpjc_alternating_oracle(n: int, q: Fraction) -> Fraction:
    """Level value as the alternating sum 1 - q + q**2 - ... ((-q)**0..(-q)**(n-1))."""
    return sum(((-q) ** k for k in range(n)), Fraction(0))


def pvc_rational_oracle(n: int, q: Fraction) -> Fraction:
    return (q**-n - (-1) ** n * q**n) / (q + 1 / q)


def geometric_oracle(n: int, q: Fraction) -> Fraction:
    return sum((q**k for k in range(n)), Fraction(0))


class TestFnSpectrum:
    def test_empty_system(self):
        assert fn_spectrum(0, 0.7) == 0.0

    def test_undeformed_limit(self):
        assert fn_spectrum(2, 1.0) == 2.0

    def test_three_modes(self):
        # equals the fully occupied d=3 eigenvalue checked in test_fock
        assert fn_spectrum(3, 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            fn_spectrum(-1, 0.5)
        with pytest.raises(ValueError):
            fn_spectrum(2, -0.5)


class TestCknSpectrum:
    @pytest.mark.parametrize(
        "n,expected", [(0, 0.0), (1, 1.0), (2, 0.0), (3, 4.0), (4, 0.0), (5, 16.0)]
    )
    def test_sequence_at_half(self, n, expected):
        assert ckn_spectrum(n, 0.5) == pytest.approx(expected, rel=1e-15)


class TestPvcBasic:
    def test_zero_and_one(self):
        assert pvc_basic(0, 0.7) == 0.0
        assert pvc_basic(1, 0.7) == 1.0

    def test_rational_oracle_example(self):
        assert pvc_rational_oracle(2, Fraction(1, 2)) == Fraction(3, 2)
        assert pvc_basic(2, 0.5) == pytest.approx(1.5, abs=1e-15)

    @pytest.mark.parametrize("qnum,qden", [(1, 2), (3, 10), (9, 10)])
    def test_rational_oracle_sweep(self, qnum, qden):
        q = Fraction(qnum, qden)
        for n in range(25):
            exact = pvc_rational_oracle(n, q)
            assert pvc_basic(n, float(q)) == pytest.approx(
                float(exact), rel=2e-14, abs=1e-15
            )

    def test_q1_alternates(self):
        for n in range(10):
            assert pvc_basic(n, 1.0) == pytest.approx(n % 2, abs=1e-15)


class TestVpjcBasic:
    def test_ground_choice(self):
        assert vpjc_basic(0, 0.3) == 0.0

    def test_first_level(self):
        assert vpjc_basic(1, 0.3) == 1.0

    def test_recurrence_value(self):
        # g_2 = 1 - q from the recurrence
        assert vpjc_basic(2, 0.5) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("qnum,qden", [(1, 10), (1, 2), (9, 10)])
    def test_alternating_sum_oracle(self, qnum, qden):
        q = Fraction(qnum, qden)
        for n in range(51):
            exact = vpjc_alternating_oracle(n, q)
            assert vpjc_basic(n, float(q)) == pytest.approx(float(exact), abs=1e-14)

    def test_q1_limit_alternates(self):
        for n in range(12):
            assert vpjc_basic(n, 1.0) == float(n % 2)

    def test_sign_flips_for_large_q(self):
        for n in range(2, 20, 2):
            assert vpjc_basic(n, 1.5) < 0.0
            assert vpjc_basic(n + 1, 1.5) > 0.0


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
def test_vpjc_recurrence_residual(q):
    assert vpjc_recurrence_residual(50, q) <= 1e-14


def test_vpjc_recurrence_residual_rejects_zero():
    with pytest.raises(ValueError):
        vpjc_recurrence_residual(0, 0.5)


@settings(max_examples=80, deadline=None)
@given(
    q=st.floats(min_value=0.01, max_value=0.99),
    n=st.integers(min_value=1, max_value=60),
)
def test_vpjc_bounds_property(q, n):
    value = vpjc_basic(n, q)
    lower = (1.0 - q) / (1.0 + q)
    assert lower - 1e-12 <= value <= 1.0 + 1e-12
    assert value > 0.0


@settings(max_examples=60, deadline=None)
@given(q=st.floats(min_value=0.05, max_value=0.99))
def test_vpjc_recurrence_property(q):
    assert vpjc_recurrence_residual(50, q) <= 1e-14


class TestArikCoon:
    def test_examples(self):
        assert arik_coon_basic(0, 0.5) == 0.0
        assert arik_coon_basic(4, 1.0) == 4.0

    def test_geometric_oracle(self):
        assert geometric_oracle(3, Fraction(1, 2)) == Fraction(7, 4)
        assert arik_coon_basic(3, 0.5) == pytest.approx(1.75, abs=1e-15)


def test_arik_coon_is_within_4_ulps_of_mpmath():
    # near q = 1, where 1 - q**n cancels, and across q in [1e-3, 10]; n <= 300
    rng = np.random.default_rng(12)
    size = 20_000
    near = 1.0 + rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-15.0, math.log10(0.5), size)
    qs = np.where(rng.random(size) < 0.5, near, 10.0 ** rng.uniform(-3.0, 1.0, size))
    worst = 0.0
    with mpmath.workdps(60):
        for q, n in zip(qs.tolist(), rng.integers(1, 301, size).tolist()):
            exact = (mpmath.mpf(q) ** n - 1) / (mpmath.mpf(q) - 1)
            worst = max(worst, float(abs(arik_coon_basic(n, q) - exact) / exact))
    assert worst <= 4 * 2.0**-53


class TestBasicFactorial:
    def test_empty_product(self):
        assert basic_factorial(Model.VPJC, 0, 0.4) == 1.0

    def test_vpjc_product(self):
        # 1 * (1 - q) * (1 - q + q**2) at q = 1/2
        assert basic_factorial(Model.VPJC, 3, 0.5) == pytest.approx(0.375, abs=1e-15)

    def test_vpjc_vanishes_at_q1(self):
        for n in range(2, 6):
            assert basic_factorial(Model.VPJC, n, 1.0) == 0.0

    def test_rejects_fn_and_ckn(self):
        with pytest.raises(ValueError):
            basic_factorial(Model.FN, 2, 0.5)
        with pytest.raises(ValueError):
            basic_factorial(Model.CKN, 2, 0.5)


def test_every_model_starts_at_zero_with_unit_first_level():
    for q in (0.3, 0.5, 0.9, 1.0, 1.5):
        for model in Model:
            assert basic_number(model, 0, q) == 0.0
        assert basic_number(Model.FN, 1, q) == 1.0
        assert basic_number(Model.CKN, 1, q) == 1.0
        assert basic_number(Model.VPJC, 1, q) == 1.0
        assert basic_number(Model.PVC, 1, q) == pytest.approx(1.0, abs=1e-15)


def test_spectrum_table_factorials_are_running_products():
    table = spectrum(Model.VPJC, 0.5, 10)
    assert table.factorials[0] == 1.0
    for n in range(1, 11):
        assert table.factorials[n] == pytest.approx(
            table.factorials[n - 1] * table.values[n], rel=1e-15
        )
    assert not table.values.flags.writeable


def test_fn_spectrum_q1_matches_counting():
    for n in range(10):
        assert fn_spectrum(n, 1.0) == float(n)


def test_pvc_q_inversion_antisymmetry_even_levels():
    # even-level PVC values flip sign under q -> 1/q, so q > 1 turns them negative
    for n in range(2, 10, 2):
        assert pvc_basic(n, 2.0) == pytest.approx(-pvc_basic(n, 0.5), rel=1e-13)
        assert pvc_basic(n, 2.0) < 0.0


@pytest.mark.parametrize(
    "func,model,n,q",
    [
        (pvc_basic, "pvc", 2000, 0.3),
        (fn_spectrum, "fn", 2000, 3.0),
        (vpjc_basic, "vpjc", 2000, 3.0),
        (ckn_spectrum, "ckn", 2001, 0.3),
        (arik_coon_basic, "arik-coon", 2000, 3.0),
    ],
)
def test_closed_form_overflow_is_a_typed_error(func, model, n, q):
    expected = f"{model} spectrum at q = {q}: level {n} overflows a double"
    with pytest.raises(ValueError, match=expected):
        func(n, q)
    with pytest.raises(ValueError, match=expected):
        basic_number(Model.from_name(model), n, q)


def test_fn_spectrum_overflow_in_the_product_is_caught():
    # q**(N-1) is still finite, N * q**(N-1) is not: no exception, an inf
    assert 1.4236**1999 < math.inf
    with pytest.raises(ValueError, match="level 2000 overflows"):
        fn_spectrum(2000, 1.4236)


def test_spectrum_table_names_the_overflowing_level():
    with pytest.raises(ValueError, match="pvc spectrum at q = 0.3: level 590 overflows"):
        spectrum(Model.PVC, 0.3, 2000)


@pytest.mark.parametrize(
    "model,n,q", [(Model.PVC, 400, 0.3), (Model.PVC, 60, 0.3), (Model.ARIK_COON, 200, 30.0)]
)
def test_basic_factorial_overflow_is_a_typed_error(model, n, q):
    with pytest.raises(ValueError, match=rf"{model.value} factorial \[{n}\]! at q = {q}"):
        basic_factorial(model, n, q)


def test_factorials_equal_the_left_to_right_loop_bit_for_bit():
    for model in (Model.PVC, Model.VPJC, Model.ARIK_COON):
        for q in (0.3, 0.7, 1.0, 1.8):
            table = spectrum(model, q, 25)
            product = 1.0
            for n in range(26):
                if n:
                    product *= basic_number(model, n, q)
                assert table.factorials[n] == product
                assert basic_factorial(model, n, q) == product


def _reference_level(model: Model, n: int, q: float) -> float:
    """The closed form of one level in Python floats: ValueError with the
    package's text where it overflows a double."""
    sign = -1.0 if n % 2 else 1.0
    formulas = {
        Model.FN: lambda: 0.0 if n == 0 else n * q ** (n - 1),
        Model.CKN: lambda: 0.0 if n % 2 == 0 else q ** (1 - n),
        Model.PVC: lambda: ((1.0 / q) ** n - sign * q**n) / (q + 1.0 / q),
        Model.VPJC: lambda: (1.0 - sign * q**n) / (1.0 + q),
        Model.ARIK_COON: lambda: (
            float(n) if q == 1.0
            else math.expm1(n * math.log1p(q - 1.0)) / (q - 1.0)
            if n >= 1 and n * abs(math.log(q)) <= 1.0
            else (1.0 - q**n) / (1.0 - q)
        ),
    }
    try:
        value = formulas[model]()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{model.value} spectrum at q = {q}: level {n} overflows a double")
    return value


def _outcome(func, *args):
    try:
        return np.float64(func(*args)).view(np.int64).item()
    except ValueError as error:
        return type(error), str(error)


@settings(max_examples=300, deadline=None)
@given(
    model=st.sampled_from(list(Model)),
    q=st.one_of(
        st.floats(0.01, 3.0),
        st.floats(1e-300, 1e300),
        st.sampled_from([1.0, 5e-324, 1.7976931348623157e308, 1 - 2**-53, 1 + 2**-52]),
    ),
    nmax=st.integers(0, 1500),
)
def test_table_is_the_per_level_closed_form_bit_for_bit(model, q, nmax):
    # every level, -0.0 included (Arik-Coon at q > 1, level 0), equals the
    # Python-float formula; an overflow names the same first level
    expected = []
    for n in range(nmax + 1):
        expected.append(_outcome(_reference_level, model, n, q))
        assert _outcome(basic_number, model, n, q) == expected[-1]
        if not isinstance(expected[-1], int):
            break
    try:
        values = spectrum(model, q, nmax).values
    except ValueError as error:
        assert (type(error), str(error)) == expected[-1]
    else:
        assert values.view(np.int64).tolist() == expected
