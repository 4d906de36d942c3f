"""Series evaluation: frozen high-precision oracles and bound soundness.

Frozen constants were produced with 40-digit arithmetic (mpmath): the
alternating series equals -polylog(order, -y), and the two-sum function was
summed termwise to convergence.  The eta-function value for the undeformed
gas at z = 1 is re-derived here by a million-term compensated sum.  The
mpmath cross-checks at the end compare against polylogarithms directly.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfermi import SeriesConvergenceError, f_gen, h_gen, standard_fd

# -Li_{5/2}(-0.1), 40-digit evaluation
F_52_AT_POINT_ONE = 0.09829342634208691272342299024886014558
# (1 - 2**-1.5) * zeta(5/2)
ETA_52 = 0.8671998890121841381913471776789571525
# -Li_{3/2}(-0.35)
F_32_AT_035 = 0.3134369551186173691636370084249880323
# two-sum function at (order 5/2, z = 0.1, q = 0.5), 120 terms at 40 digits
H_52_Z01_Q05 = 0.1110433199712085301973256507402689621
# same at order 3/2
H_32_Z01_Q05 = 0.1140269706339976940280737713941194715


class TestFGen:
    def test_order_one_is_log(self):
        out = f_gen(1, 1.0, 1.0, 1e-10)
        assert out.value == math.log(2.0)
        assert out.error_bound <= 1e-10

    def test_order_one_half_argument(self):
        assert standard_fd(1, 0.5).value == pytest.approx(math.log(1.5), abs=1e-15)

    def test_frozen_oracle_point(self):
        out = f_gen(2.5, 0.5, 0.2, 1e-13)
        assert out.value == pytest.approx(F_52_AT_POINT_ONE, abs=5e-14)
        assert abs(out.value - F_52_AT_POINT_ONE) <= out.error_bound

    def test_partial_sum_oracle(self):
        # independent compensated partial sum; agree within the certified bound
        y, order = 0.1, 2.5
        terms = [(-1.0) ** (l - 1) * y**l / l**order for l in range(1, 40)]
        oracle = math.fsum(terms)
        out = f_gen(order, 0.5, 0.2, 1e-15)
        assert abs(out.value - oracle) <= out.error_bound + 1e-15

    def test_substitution_identity_example(self):
        lhs = f_gen(1.5, 0.7, 0.5, 1e-13).value
        rhs = f_gen(1.5, 1.0, 0.35, 1e-13).value
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert lhs == pytest.approx(F_32_AT_035, abs=5e-13)

    def test_zero_argument(self):
        out = standard_fd(1.5, 0.0)
        assert out.value == 0.0 and out.error_bound == 0.0

    def test_divergence_signal(self):
        with pytest.raises(SeriesConvergenceError):
            f_gen(2.5, 1.1, 1.0, 1e-8)
        with pytest.raises(SeriesConvergenceError):
            standard_fd(2.5, 1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            f_gen(0.3, 1.0, 0.5, 1e-8)
        with pytest.raises(ValueError):
            f_gen(1.5, 1.0, -0.5, 1e-8)
        with pytest.raises(ValueError):
            f_gen(1.5, 1.0, 0.5, 0.0)

    def test_terms_used_reported(self):
        out = f_gen(2.5, 0.5, 0.2, 1e-13)
        assert out.terms_used >= 1
        # tightening the tolerance can only add terms
        assert f_gen(2.5, 0.5, 0.2, 1e-6).terms_used <= out.terms_used


class TestStandardFd:
    def test_eta_value_at_unit_fugacity(self):
        # compensated million-term oracle for the alternating tail
        ls = np.arange(1, 1_000_001, dtype=np.float64)
        terms = ls**-2.5
        terms[1::2] *= -1.0
        oracle = math.fsum(terms.tolist())
        assert oracle == pytest.approx(ETA_52, abs=2e-15)
        closed = float((1 - mpmath.mpf(2) ** -1.5) * mpmath.zeta(mpmath.mpf(5) / 2))
        assert closed == pytest.approx(ETA_52, abs=1e-15)
        out = standard_fd(2.5, 1.0, 1e-10)
        assert out.value == pytest.approx(ETA_52, abs=2e-10)
        assert abs(out.value - ETA_52) <= out.error_bound


class TestHGen:
    def test_frozen_oracles(self):
        out52 = h_gen(2.5, 0.1, 0.5, 1e-13)
        assert out52.value == pytest.approx(H_52_Z01_Q05, abs=1e-12)
        assert abs(out52.value - H_52_Z01_Q05) <= out52.error_bound
        out32 = h_gen(1.5, 0.1, 0.5, 1e-13)
        assert out32.value == pytest.approx(H_32_Z01_Q05, abs=1e-12)

    def test_termwise_oracle(self):
        # independent 200-term float oracle; agree within the certified bound
        order, z, q = 2.5, 0.1, 0.5
        s1 = math.fsum(
            (-1.0) ** (k + 1) * (q * z) ** k / k ** (order + 1) for k in range(1, 200)
        )
        s2 = math.fsum((z / q) ** k / k ** (order + 1) for k in range(1, 200))
        oracle = (s1 - s2) / (2.0 * math.log(q))
        out = h_gen(order, z, q, 1e-15)
        assert abs(out.value - oracle) <= out.error_bound + 1e-15

    def test_small_fugacity_leading_term(self):
        # (q z - z/q) / (2 ln q) = 1.5 z / (2 ln 2) at q = 1/2
        z = 1e-8
        lead = 1.5 * z / (2.0 * math.log(2.0))
        assert h_gen(2.5, z, 0.5, 1e-22).value == pytest.approx(lead, rel=1e-6)

    def test_positive_on_domain(self):
        assert h_gen(1.5, 0.1, 0.5, 1e-12).value > 0.0
        assert h_gen(2.5, 0.3, 0.5, 1e-12).value > 0.0

    def test_rejects_unit_q(self):
        with pytest.raises(ValueError):
            h_gen(2.5, 0.1, 1.0, 1e-10)

    def test_divergence_signal(self):
        with pytest.raises(SeriesConvergenceError):
            h_gen(2.5, 0.6, 0.5, 1e-10)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_substitution_identity_grid(q):
    for z in (0.1, 0.5, 0.9 / q):
        for order in (1.5, 2.5):
            direct = f_gen(order, q, z, 1e-13).value
            scaled = f_gen(order, 1.0, q * z, 1e-13).value
            assert abs(direct - scaled) <= 1e-13


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_monotone_in_fugacity(q):
    f_vals = [f_gen(1.5, q, z, 1e-12).value for z in np.linspace(0.05, 0.95, 9) / q]
    assert all(a < b for a, b in zip(f_vals, f_vals[1:]))
    h_vals = [h_gen(1.5, z, q, 1e-12).value for z in np.linspace(0.05, 0.95, 9) * q]
    assert all(a < b for a, b in zip(h_vals, h_vals[1:]))


def test_termwise_order_relation():
    # each term of the higher order is no larger in magnitude
    ls = np.arange(1, 500, dtype=float)
    assert np.all(ls**-2.5 <= ls**-1.5)


@settings(max_examples=100, deadline=None)
@given(
    order=st.floats(min_value=0.5, max_value=3.0),
    q=st.floats(min_value=0.2, max_value=0.95),
    scaled_z=st.floats(min_value=0.01, max_value=0.99),
    log_tol=st.floats(min_value=-10.0, max_value=-6.0),
)
def test_error_bound_soundness(order, q, scaled_z, log_tol):
    # more terms never move the value by more than the certified bound
    z = scaled_z / q
    tol = 10.0**log_tol
    coarse = f_gen(order, q, z, tol)
    fine = f_gen(order, q, z, tol * 1e-3)
    assert coarse.error_bound <= tol
    assert abs(coarse.value - fine.value) <= coarse.error_bound + 1e-16
    if scaled_z < q:
        h_coarse = h_gen(order, scaled_z, q, tol)
        h_fine = h_gen(order, scaled_z, q, tol * 1e-3)
        assert h_coarse.error_bound <= tol
        assert abs(h_coarse.value - h_fine.value) <= h_coarse.error_bound + 1e-16


# ---------------------------------------------------------------------------
# mpmath cross-checks of the accelerated alternating sum


def _f_ref(order, y):
    return -mpmath.polylog(order, -mpmath.mpf(y))


def _h_ref(order, z, q):
    z, q = mpmath.mpf(z), mpmath.mpf(q)
    s = order + 1
    return (-mpmath.polylog(s, -q * z) - mpmath.polylog(s, z / q)) / (2 * mpmath.log(q))


def _assert_within_bound(out, ref, tol):
    assert math.isfinite(out.value)
    assert out.error_bound <= tol
    assert abs(mpmath.mpf(out.value) - ref) <= out.error_bound


_EDGE_Y = st.one_of(
    st.just(1.0),
    st.floats(min_value=0.999, max_value=1.0, exclude_max=True),
    st.floats(min_value=0.0, max_value=0.99, exclude_min=True),
)


@settings(max_examples=150, deadline=None)
@given(
    order=st.floats(min_value=0.5, max_value=3.5),
    y=_EDGE_Y,
    q=st.sampled_from([0.5, 1.0, 2.0]),  # powers of two: q * (y / q) <= 1 stays on the edge
    log_tol=st.floats(min_value=-12.0, max_value=-3.0),
)
def test_f_matches_polylog_within_bound(order, y, q, log_tol):
    tol = 10.0**log_tol
    z = y / q
    with mpmath.workdps(30):
        _assert_within_bound(f_gen(order, q, z, tol), _f_ref(order, q * z), tol)


@settings(max_examples=60, deadline=None)
@given(
    order=st.floats(min_value=0.5, max_value=3.5),
    q=st.floats(min_value=0.2, max_value=0.95),
    r=st.one_of(
        st.floats(min_value=0.999, max_value=0.9999),
        st.floats(min_value=0.0, max_value=0.99, exclude_min=True),
    ),
    log_tol=st.floats(min_value=-12.0, max_value=-3.0),
)
def test_h_matches_two_polylogs_within_bound(order, q, r, log_tol):
    tol = 10.0**log_tol
    z = r * q
    with mpmath.workdps(30):
        _assert_within_bound(h_gen(order, z, q, tol), _h_ref(order, z, q), tol)


@pytest.mark.parametrize("order", [0.5, 1.5, 2.5, 3.5])
@pytest.mark.parametrize("tol", [1e-12, 1e-8, 1e-3])
def test_unit_argument_grid(order, tol):
    out = standard_fd(order, 1.0, tol)
    with mpmath.workdps(30):
        _assert_within_bound(out, _f_ref(order, 1.0), tol)
    assert out.terms_used <= 25  # about 20 terms even at the convergence edge


def test_order_one_half_at_unit_argument():
    # the slowest-converging alternating case: y = 1 at the lowest order
    out = standard_fd(0.5, 1.0, 1e-12)
    eta_half = (1 - mpmath.sqrt(2)) * mpmath.zeta(0.5)
    assert math.isfinite(out.value)
    assert abs(mpmath.mpf(out.value) - eta_half) <= out.error_bound <= 1e-12


@pytest.mark.parametrize("order", [0.5, 1.5, 2.5])
def test_tolerance_below_rounding_floor_raises(order):
    with pytest.raises(SeriesConvergenceError, match="below evaluable precision"):
        f_gen(order, 1.0, 1.0, 1e-17)
    with pytest.raises(SeriesConvergenceError, match="below evaluable precision"):
        standard_fd(order, 0.5, 1e-300)
