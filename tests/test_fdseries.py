"""Series evaluation: frozen high-precision oracles and bound soundness.

Frozen constants were produced with 40-digit arithmetic (mpmath): the
alternating series equals -polylog(order, -y), and the two-sum function was
summed termwise to convergence.  The eta-function value for the undeformed
gas at z = 1 is re-derived here by a million-term compensated sum.  The
mpmath cross-checks at the end compare against polylogarithms directly.
"""

import math
import re
from dataclasses import astuple

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfermi import (
    SeriesConvergenceError,
    f_gen,
    f_gen_array,
    fdseries,
    h_gen,
    h_gen_array,
    standard_fd,
)
from qfermi.fdseries import _CHUNK, _MAX_TERMS, _PAIRWISE_DEPTH, _direct_cutoff, _direct_tail
from qfermi.thermo import pvc_eos, pvc_eos_array

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


# tolerances near the rounding floor of the accelerated sum, about 1e-15
# at y = 1 and lower below it; f_gen raises there when tol is under the floor
_NEAR_FLOOR = st.floats(min_value=-15.5, max_value=-14.0)


@settings(max_examples=150, deadline=None)
@given(
    order=st.floats(min_value=0.5, max_value=3.5),
    y=_EDGE_Y,
    q=st.sampled_from([0.5, 1.0, 2.0]),  # powers of two: q * (y / q) <= 1 stays on the edge
    log_tol=st.one_of(st.floats(min_value=-12.0, max_value=-3.0), _NEAR_FLOOR),
)
@example(order=0.5, y=1.0, q=1.0, log_tol=-14.34)  # floors 4.52e-15 and 9.56e-16
@example(order=3.5, y=1.0, q=1.0, log_tol=-15.01)
@example(order=0.5, y=1.0 - 2.0**-52, q=0.5, log_tol=-14.34)
@example(order=2.5, y=5e-324, q=2.0, log_tol=-15.5)
def test_f_matches_polylog_within_bound(order, y, q, log_tol):
    tol = 10.0**log_tol
    z = y / q
    try:
        out = f_gen(order, q, z, tol)
    except SeriesConvergenceError:
        assert log_tol < -14.0  # only below the rounding floor
        return
    with mpmath.workdps(30):
        _assert_within_bound(out, _f_ref(order, q * z), tol)


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
# tiny r at order 1 with one term per sum: the truncation bound is tight to
# first order, so the rounding of the arguments and sums must be in the bound
@example(order=1.0, q=0.288918675988987, r=1.7639487132511249e-236, log_tol=-3.0)
@example(order=1.0, q=0.2, r=1.190437836379853e-217, log_tol=-3.0)
@example(order=1.0, q=0.201171875, r=1.0305369408260574e-235, log_tol=-3.0)
@example(order=1.0, q=0.25, r=2.0322365316154066e-215, log_tol=-3.0)
# near z/q = 1 at small order: the rounding of z/q, corrected to first order
# by the exact remainder z - r q, no longer sets a floor above 1e-13
@example(order=0.5, q=0.95, r=0.9999, log_tol=-13.0)
def test_h_matches_two_polylogs_within_bound(order, q, r, log_tol):
    tol = 10.0**log_tol
    z = r * q
    with mpmath.workdps(40):
        _assert_within_bound(h_gen(order, z, q, tol), _h_ref(order, z, q), tol)


def _pairwise_depth(n):
    """Most additions on a term's path in numpy's pairwise sum of n terms."""
    if n < 8:
        return max(n - 1, 0)  # the sum starts from an exact 0 + a_0
    if n <= 128:  # 8 interleaved accumulators, 3 to combine, the remainder
        return (n - n % 8) // 8 - 1 + 3 + n % 8
    half = n // 2 - (n // 2) % 8
    return 1 + max(_pairwise_depth(half), _pairwise_depth(n - half))


def _pairwise_sum(a):
    """numpy's pairwise float64 sum of the list a, addition by addition."""
    n = len(a)
    if n < 8:
        total = 0.0
        for x in a:
            total += x
        return total
    if n <= 128:
        acc = a[:8]
        body = n - n % 8
        for i in range(8, body, 8):
            acc = [s + x for s, x in zip(acc, a[i : i + 8])]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for x in a[body:]:
            total += x
        return total
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])


def test_numpy_sum_is_the_assumed_pairwise_tree():
    # the direct-sum rounding bound of h_gen rests on this summation order
    rng = np.random.default_rng(7)
    for n in (1, 7, 8, 9, 127, 128, 129, 1000, 7183, _CHUNK - 1, _CHUNK):
        a = rng.random(n) * 10.0 ** rng.uniform(-5.0, 5.0, n)
        assert _pairwise_sum(a.tolist()) == float(np.add.reduce(a))
    assert max(_pairwise_depth(n) for n in range(1, _CHUNK + 1)) == _PAIRWISE_DEPTH
    for n in range(_CHUNK + 1):  # the bound each piece of a direct sum is given
        assert fdseries._pairwise_depth(n) == (_pairwise_depth(n) if n <= 128 else _PAIRWISE_DEPTH)


def test_numpy_layout_keeps_the_bits():
    # the array pass of h_gen equals the scalar bit for bit because a row of
    # a 2-D block, a strided slice included, reduces (and dots) to the bits
    # of the 1-D call, and a broadcast np.power gives the bits of the 1-D one
    rng = np.random.default_rng(11)
    for length in (1, 7, 8, 63, 64, 65, 129, 1000, _CHUNK, _CHUNK + 64):
        block = rng.random((4, length)) * 10.0 ** rng.uniform(-5.0, 5.0, (4, length))
        k = np.arange(1.0, length + 1.0)
        for split in sorted({0, min(64, length), length}):
            for part in (block[:, :split], block[:, split:]):
                rows = [np.add.reduce(row.copy()) for row in part]
                assert np.add.reduce(part, axis=-1).tolist() == rows
        assert np.vecdot(block, k).tolist() == [np.dot(row.copy(), k) for row in block]
        r = rng.uniform(0.0, 1.0, 4) ** 0.01
        ks = k + rng.integers(0, 10**6, 4)[:, None]
        for i in range(4):
            assert np.power(r[:, None], ks)[i].tolist() == np.power(r[i], ks[i].copy()).tolist()
            assert np.power(ks, -2.37)[i].tolist() == np.power(ks[i].copy(), -2.37).tolist()


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
    with pytest.raises(SeriesConvergenceError, match="below evaluable precision"):
        h_gen(order, 0.45, 0.5, 1e-17)
    with pytest.raises(SeriesConvergenceError, match="below evaluable precision"):
        h_gen(order, 0.1, 0.9, 5e-324)  # the budget 2 |ln q| tol underflows to 0


def _doubling_cutoff(bound, tol, start):
    """Double from `start`, then bisect: the reference for `_direct_cutoff`."""
    if bound(start) <= tol:
        return start
    lo, hi = start, 2 * start
    while bound(hi) > tol:
        lo, hi = hi, 2 * hi
        if hi > _MAX_TERMS:
            raise SeriesConvergenceError("doubling passed the term cap")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) <= tol:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("r", [1e-200, 1e-9, 0.1, 0.5, 0.9, 0.99, 0.9999, 1 - 1e-7, 1 - 2**-52])
@pytest.mark.parametrize("order", [0.5, 1.5, 3.0])
def test_cutoff_matches_doubling_search(r, order):
    expo = order + 1.0

    def tail(n):
        return float(_direct_tail(r, expo, np.array([n]))[0])

    cases = [(tol, start) for tol in (1e-300, 1e-15, 1e-10, 1e-6, 1e-2, 10.0)
             for start in (1, 7, 100, 5000)]
    tols, starts = (np.array(column) for column in zip(*cases))
    cutoffs, tails = _direct_cutoff(np.full(len(cases), r), expo, tols, starts)
    for (tol, start), got, got_tail in zip(cases, cutoffs.tolist(), tails.tolist()):
        try:
            scalar = _direct_cutoff(r, expo, tol, start)
        except SeriesConvergenceError:
            scalar = (0, None)
            assert tail(_MAX_TERMS) > tol
        assert got == scalar[0]  # the array form holds 0 where the float raises
        if got:
            assert got_tail == scalar[1] == tail(got)
        try:
            expected = _doubling_cutoff(tail, tol, start)
        except SeriesConvergenceError:
            # doubling gives up at its last point below _MAX_TERMS, which
            # lies above _MAX_TERMS / 2; the cutoff goes on to _MAX_TERMS
            if got:
                assert got > _MAX_TERMS // 2
                assert tail(got) <= tol < tail(got - 1)
            continue
        assert got == expected, (tol, start)


def test_cutoff_term_cap():
    r, expo = 1 - 1e-7, 1.5

    def tail(n):
        return float(_direct_tail(r, expo, np.array([n]))[0])

    assert _direct_cutoff(r, expo, tail(18_000_000), 1) == (18_000_000, tail(18_000_000))
    with pytest.raises(SeriesConvergenceError, match="needs more than"):
        _direct_cutoff(r, expo, tail(_MAX_TERMS + 1), 1)
    tols = np.array([tail(18_000_000), tail(_MAX_TERMS + 1)])
    cutoffs, _ = _direct_cutoff(np.full(2, r), expo, tols, np.ones(2, dtype=np.int64))
    assert cutoffs.tolist() == [18_000_000, 0]


# ---------------------------------------------------------------------------
# the array twin of f_gen

_TWIN_Y = st.one_of(
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1.0 - 2.0**-52, 1.0, 0.0]),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.999, max_value=1.0),
    st.floats(min_value=1.0, max_value=1.5),  # beyond the edge: masked
)
_TWIN_ORDER = st.one_of(st.just(1.0), st.floats(min_value=0.5, max_value=3.5))


def _scalar_column(order, q, zs, tol):
    """(values, bounds, terms, raised) of f_gen called point by point."""
    rows = []
    for z in zs:
        try:
            out = f_gen(order, q, z, tol)
            rows.append((out.value, out.error_bound, out.terms_used, False))
        except SeriesConvergenceError:
            rows.append((math.nan, math.nan, 0, True))
    values, bounds, terms, raised = zip(*rows)
    return np.array(values), np.array(bounds), list(terms), list(raised)


@settings(max_examples=150, deadline=None)
@given(
    order=_TWIN_ORDER,
    q=st.sampled_from([0.5, 1.0, 2.0]),
    ys=st.lists(_TWIN_Y, min_size=1, max_size=30),
    log_tol=st.one_of(st.floats(min_value=-17.0, max_value=-3.0), st.just(-323.0)),
)
def test_f_gen_array_is_f_gen_bit_for_bit(order, q, ys, log_tol):
    tol = max(10.0**log_tol, 5e-324)
    zs = [y / q for y in ys]
    values, bounds, terms, raised = _scalar_column(order, q, zs, tol)
    out, mask = f_gen_array(order, q, np.array(zs), tol)
    assert mask.tolist() == raised
    assert out.value.view(np.int64).tolist() == values.view(np.int64).tolist()
    assert out.error_bound.view(np.int64).tolist() == bounds.view(np.int64).tolist()
    assert out.terms_used.tolist() == terms


def test_f_gen_array_keeps_shape_and_rejects_what_f_gen_rejects():
    zs = np.linspace(0.0, 1.2, 12).reshape(3, 4)
    out, mask = f_gen_array(1.5, 1.0, zs, 1e-12)
    assert out.value.shape == mask.shape == (3, 4)
    flat, flat_mask = f_gen_array(1.5, 1.0, zs.ravel(), 1e-12)
    assert out.value.ravel().view(np.int64).tolist() == flat.value.view(np.int64).tolist()
    assert mask.ravel().tolist() == flat_mask.tolist()
    for args in ((0.3, 1.0, [0.5], 1e-8), (1.5, 1.0, [0.5, -0.5], 1e-8),
                 (1.5, 1.0, [0.5, math.inf], 1e-8), (1.5, 1.0, [0.5], 0.0),
                 (1.5, -1.0, [0.5], 1e-8)):
        order, q, zs, tol = args
        bad = next((z for z in zs if not (math.isfinite(z) and z >= 0.0)), zs[0])
        with pytest.raises(ValueError) as scalar_error:
            f_gen(order, q, bad, tol)
        with pytest.raises(ValueError, match=re.escape(str(scalar_error.value))):
            f_gen_array(order, q, np.array(zs), tol)


# ---------------------------------------------------------------------------
# the array twin of h_gen

# z / q, from the tiny to past the edge: up to 1 - 1e-6 some direct sums run
# to millions of terms, past _CHUNK per point
_TWIN_R = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 0.9999, 1.0 - 1e-6, 1.0, 1.5]),
    st.floats(min_value=0.0, max_value=0.99),
    st.floats(min_value=0.99, max_value=1.0 - 1e-6),
)


def _h_scalar_column(order, zs, q, tol):
    """(values, bounds, terms, raised) of h_gen called point by point."""
    rows = []
    for z in zs:
        try:
            out = h_gen(order, z, q, tol)
            rows.append((out.value, out.error_bound, out.terms_used, False))
        except SeriesConvergenceError:
            rows.append((math.nan, math.nan, 0, True))
    values, bounds, terms, raised = zip(*rows)
    return np.array(values), np.array(bounds), list(terms), list(raised)


@settings(max_examples=60, deadline=None)
@given(
    order=st.floats(min_value=0.5, max_value=3.5),
    q=st.one_of(st.floats(min_value=0.05, max_value=0.99), st.sampled_from([1e-300, 0.95])),
    rs=st.lists(_TWIN_R, min_size=1, max_size=12),
    # down to the rounding floor, and tol * 2 |ln q| underflowing at -323
    log_tol=st.one_of(st.floats(min_value=-15.0, max_value=-3.0), st.just(-323.0)),
)
@example(order=0.5, q=0.95, rs=[0.9999, 0.5, 1.0 - 1e-6, 2.0, 0.0], log_tol=-13.0)
def test_h_gen_array_is_h_gen_bit_for_bit(order, q, rs, log_tol):
    tol = max(10.0**log_tol, 5e-324)
    zs = [r * q for r in rs]
    values, bounds, terms, raised = _h_scalar_column(order, zs, q, tol)
    with np.errstate(all="raise"):
        out, mask = h_gen_array(order, np.array(zs), q, tol)
    assert mask.tolist() == raised
    assert out.value.view(np.int64).tolist() == values.view(np.int64).tolist()
    assert out.error_bound.view(np.int64).tolist() == bounds.view(np.int64).tolist()
    assert out.terms_used.tolist() == terms


# z, q and tol at their extremes: non-finite, negative and subnormal z, q
# next to 0 and to 1, tolerances from the smallest double to 1e300
_ANY_Z = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, math.nan]),
)
_EXTREME_Q = st.one_of(
    st.sampled_from([5e-324, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0, -0.5, math.nan]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
_EXTREME_TOL = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e-13, 1e300, 1.7976931348623157e308, 0.0, math.inf]),
    st.floats(min_value=1e-15, max_value=1e-3),
)


def _first_error(func, points):
    """The ValueError a loop of func over points raises, or None; the
    SeriesConvergenceErrors of single points are skipped as the twins mask
    them."""
    for point in points:
        try:
            func(point)
        except SeriesConvergenceError:
            continue
        except ValueError as exc:
            return exc
    return None


@settings(max_examples=150, deadline=None)
@given(order=st.sampled_from([0.5, 1.5, 2.5, 0.3]), q=_EXTREME_Q, tol=_EXTREME_TOL,
       zs=st.lists(st.one_of(_ANY_Z, st.floats(0.0, 1.0)), min_size=1, max_size=6))
def test_h_is_finite_or_a_typed_error(order, q, tol, zs):
    zs = [z * q if math.isfinite(q) and 0.0 <= z <= 1.0 else z for z in zs]
    for z in zs:
        try:
            out = h_gen(order, z, q, tol)
        except ValueError:  # SeriesConvergenceError included
            continue
        assert math.isfinite(out.value) and 0.0 <= out.error_bound <= tol
    expected = _first_error(lambda z: h_gen(order, z, q, tol), zs)
    if expected is not None:
        with pytest.raises(type(expected), match=re.escape(str(expected))):
            h_gen_array(order, np.array(zs), q, tol)
        return
    with np.errstate(all="raise"):
        out, mask = h_gen_array(order, np.array(zs), q, tol)
    assert np.isfinite(out.value[~mask]).all() and np.isnan(out.value[mask]).all()


_EXTREME_G = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1.0, 1e300, 1.7976931348623157e308, 0.0, -1.0, math.inf]),
    st.floats(min_value=0.0, max_value=1e308, exclude_min=True),
)


@settings(max_examples=150, deadline=None)
@given(q=_EXTREME_Q, tol=_EXTREME_TOL, g_mult=_EXTREME_G,
       zs=st.lists(st.one_of(_ANY_Z, st.floats(0.0, 1.0)), min_size=1, max_size=6))
# 1 / ln q near -1e16: the entropy overflows before a bad z, and after one
@example(q=1.0 - 2.0**-53, tol=1e300, g_mult=1e300, zs=[0.25, 0.5, -1.0])
@example(q=1.0 - 2.0**-53, tol=1e300, g_mult=1e300, zs=[0.0, math.nan, 0.5])
def test_pvc_eos_is_finite_or_a_typed_error(q, tol, g_mult, zs):
    zs = [z * q if math.isfinite(q) and 0.0 <= z <= 1.0 else z for z in zs]
    for z in zs:
        try:
            state = pvc_eos(q, z, g_mult, tol)
        except ValueError:
            continue
        assert all(map(math.isfinite, astuple(state)))
    expected = _first_error(lambda z: pvc_eos(q, z, g_mult, tol), zs)
    if expected is not None:
        with pytest.raises(type(expected), match=re.escape(str(expected))):
            pvc_eos_array(q, np.array(zs), g_mult, tol)
        return
    with np.errstate(all="raise"):
        state, skipped = pvc_eos_array(q, np.array(zs), g_mult, tol)
    for column in astuple(state):
        assert np.isfinite(column[~skipped]).all() and np.isnan(column[skipped]).all()
