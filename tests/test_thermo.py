"""Distributions, traces, equations of state, virial fit, chemical potential."""

import math
import re
import warnings
from dataclasses import astuple

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfermi import (
    Model,
    SeriesConvergenceError,
    SingularPointError,
    build_fn_multimode,
    build_single_mode,
    ckn_distribution,
    ckn_distribution_array,
    ckn_eos,
    ckn_eos_array,
    ckn_mu_lowT,
    ckn_mu_lowT_array,
    ckn_mu_numeric,
    ckn_mu_numeric_array,
    exact_trace_occupation,
    fn_distribution,
    fn_distribution_array,
    fn_eos,
    fn_eos_array,
    fn_mu_lowT,
    fn_mu_lowT_array,
    fn_mu_numeric,
    fn_mu_numeric_array,
    fn_pvc_comparison,
    occupation_ratio_solve,
    pvc_distribution,
    pvc_distribution_array,
    pvc_eos,
    pvc_eos_array,
    q1_limit_distribution,
    q1_limit_distribution_array,
    spectrum_of_number_operator,
    virial_coefficients,
    vpjc_distribution,
    vpjc_distribution_array,
    vpjc_zero_crossing,
)
from qfermi.models import require_positive_q
from qfermi.thermo import MODELS, _require_open_unit_with_limit_hint, _validate_t

A2_TARGET = 2.0**-2.5
A3_TARGET = 0.125 - 2.0 * 3.0**-2.5

# two-sum series values at (z=0.3, q=0.5), 120 terms at 40 digits
H_52_Z03_Q05 = 0.3533075222946572382971946045767741120
H_32_Z03_Q05 = 0.3878171352836499440494298255803672277


class TestDistributions:
    def test_fn_values(self):
        assert fn_distribution(0.0, 1.0) == 0.5
        assert fn_distribution(0.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert fn_distribution(-800.0, 0.5) == 1.0  # step limit, no overflow
        assert fn_distribution(800.0, 0.5) == pytest.approx(0.0, abs=1e-300)

    def test_ckn_values(self):
        assert ckn_distribution(0.0, 1.0) == 0.5
        assert ckn_distribution(0.0, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert ckn_distribution(2.0, 0.5) > ckn_distribution(2.0, 0.9)

    def test_pvc_value_with_bisection_oracle(self):
        # independent route: solve (1 + y**2)/(1/q - q y**2) = 1 for y = q**n
        q = 0.5
        lo, hi = 0.0, (1.0 - 1e-12) / q
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (1.0 + mid * mid) / (1.0 / q - q * mid * mid) < 1.0:
                lo = mid
            else:
                hi = mid
        oracle = abs(math.log(lo * lo) / (2.0 * math.log(q)))
        value = pvc_distribution(0.0, q)
        assert value == pytest.approx(oracle, abs=1e-10)
        assert value == pytest.approx(0.29248125036, abs=1e-9)

    def test_pvc_vanishes_at_high_energy(self):
        assert pvc_distribution(50.0, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_pvc_singular_point(self):
        with pytest.raises(SingularPointError):
            pvc_distribution(math.log(2.0), 0.5)

    def test_pvc_rejects_unit_q(self):
        with pytest.raises(ValueError, match="q1_limit"):
            pvc_distribution(0.5, 1.0)

    def test_vpjc_zero_crossing(self):
        assert vpjc_zero_crossing(0.5) == pytest.approx(math.log(0.25), abs=1e-15)
        assert vpjc_distribution(vpjc_zero_crossing(0.5), 0.5) <= 1e-12
        assert vpjc_distribution(vpjc_zero_crossing(1.0 / 3.0), 1.0 / 3.0) <= 1e-12

    def test_vpjc_value(self):
        assert vpjc_distribution(math.log(2.0), 0.5) == pytest.approx(
            math.log(2.5) / math.log(2.0), rel=1e-14
        )

    def test_vpjc_vanishes_at_high_energy(self):
        assert vpjc_distribution(50.0, 0.3) == pytest.approx(0.0, abs=1e-14)

    def test_vpjc_discontinuity(self):
        with pytest.raises(SingularPointError):
            vpjc_distribution(0.0, 0.5)

    def test_vpjc_rejects_unit_q(self):
        with pytest.raises(ValueError, match="q1_limit"):
            vpjc_distribution(0.5, 1.0)
        with pytest.raises(ValueError):
            vpjc_distribution(0.5, 1.3)

    def test_q1_limit_values(self):
        assert q1_limit_distribution(0.0) == 0.5
        assert q1_limit_distribution(math.log(3.0)) == pytest.approx(0.25, rel=1e-15)

    def test_q1_limit_matches_fn_and_ckn(self):
        for eta in np.linspace(-10.0, 10.0, 41):
            ref = q1_limit_distribution(float(eta))
            assert abs(fn_distribution(float(eta), 1.0) - ref) <= 1e-15
            assert abs(ckn_distribution(float(eta), 1.0) - ref) <= 1e-15

    def test_range_and_positivity(self):
        for eta in (-3.0, -0.4, 0.7, 2.5):
            for q in (0.3, 0.9):
                assert 0.0 < fn_distribution(eta, q) < 1.0
                assert 0.0 < ckn_distribution(eta, q) < 1.0
                assert vpjc_distribution(eta, q) >= 0.0
                assert pvc_distribution(eta, q) >= 0.0

    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
    def test_monotonicity_in_q(self, eta):
        qs = (0.9, 0.5, 0.3)  # decreasing
        ckn = [ckn_distribution(eta, q) for q in qs]
        fn = [fn_distribution(eta, q) for q in qs]
        vpjc = [vpjc_distribution(eta, q) for q in qs]
        assert ckn[0] < ckn[1] < ckn[2]
        assert fn[0] > fn[1] > fn[2]
        assert vpjc[0] > vpjc[1] > vpjc[2]


class TestOccupationRatio:
    def test_vpjc_example(self):
        root = occupation_ratio_solve(Model.VPJC, math.log(2.0), 0.5)
        assert root == pytest.approx(1.3219280948873623, abs=1e-10)
        assert root == pytest.approx(
            vpjc_distribution(math.log(2.0), 0.5), abs=1e-10
        )

    def test_pvc_example(self):
        root = occupation_ratio_solve(Model.PVC, 1.0, 0.5)
        assert abs(root) == pytest.approx(pvc_distribution(1.0, 0.5), abs=1e-10)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0, 4.0])
    def test_closed_form_equivalence(self, q, eta):
        vpjc_root = occupation_ratio_solve(Model.VPJC, eta, q)
        assert abs(vpjc_root - vpjc_distribution(eta, q)) <= 1e-10
        pvc_root = occupation_ratio_solve(Model.PVC, eta, q)
        assert abs(abs(pvc_root) - pvc_distribution(eta, q)) <= 1e-10

    def test_large_eta_empties(self):
        assert occupation_ratio_solve(Model.VPJC, 40.0, 0.5) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_pvc_near_branch_continuous_solution_is_negative(self):
        # below ln((1-q**2)/(2q)) the continuous level sits under zero while
        # the distribution reports its magnitude
        q, eta = 0.3, 0.2
        root = occupation_ratio_solve(Model.PVC, eta, q)
        assert root < 0.0
        assert abs(root) == pytest.approx(pvc_distribution(eta, q), abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            occupation_ratio_solve(Model.VPJC, -1.0, 0.5)
        with pytest.raises(ValueError):
            occupation_ratio_solve(Model.VPJC, 1.0, 1.2)
        with pytest.raises(ValueError):
            occupation_ratio_solve(Model.FN, 1.0, 0.5)
        with pytest.raises(SingularPointError):
            occupation_ratio_solve(Model.PVC, math.log(2.0), 0.5)

    def test_eta_below_rounding_names_eta_and_q(self):
        # exp(-eta) rounds to 1, the VPJC ratio at n -> infinity: the root is
        # y = 0, where math.log used to raise a bare "math domain error"
        with pytest.raises(SingularPointError, match=r"eta = 1e-300, q = 0\.5"):
            occupation_ratio_solve(Model.VPJC, 1e-300, 0.5)


class TestExactTrace:
    def test_vpjc_identity_residual(self):
        trace = exact_trace_occupation(Model.VPJC, 0.5, 2.0, n_max=40)
        assert trace.identity_residual <= 1e-8

    def test_vpjc_brute_force_oracle(self):
        # independent fsum over the same Gibbs weights
        q, eta, n_max = 0.5, 2.0, 40
        gs = [(1.0 - (-q) ** n) / (1.0 + q) for n in range(n_max + 2)]
        ws = [math.exp(-eta * n) for n in range(n_max + 1)]
        z_sum = math.fsum(ws)
        trace = exact_trace_occupation(Model.VPJC, q, eta, n_max=n_max)
        assert trace.mean_deformed == pytest.approx(
            math.fsum(g * w for g, w in zip(gs, ws)) / z_sum, rel=1e-14
        )
        assert trace.mean_shifted == pytest.approx(
            math.fsum(gs[n + 1] * ws[n] for n in range(n_max + 1)) / z_sum, rel=1e-14
        )

    def test_vpjc_matrix_trace_oracle(self):
        # independent path through the explicit ladder matrices
        q, eta, dim = 0.5, 2.0, 30
        ops = build_single_mode(Model.VPJC, q, dim)
        weights = np.exp(-eta * np.arange(dim))
        z_sum = weights.sum()
        deformed_diag = spectrum_of_number_operator(ops)
        oracle = float((deformed_diag * weights).sum() / z_sum)
        trace = exact_trace_occupation(Model.VPJC, q, eta, n_max=dim - 1)
        assert trace.mean_deformed == pytest.approx(oracle, rel=1e-13)

    def test_ckn_two_state_values(self):
        trace = exact_trace_occupation(Model.CKN, 0.7, 1.0)
        assert trace.mean_number == pytest.approx(1.0 / (math.e + 1.0), rel=1e-15)
        assert trace.identity_residual <= 1e-15

    def test_fn_single_mode_is_undeformed(self):
        # the exact two-state trace gives the plain occupation, which the
        # multimode closed-form distribution deliberately does not reproduce
        trace = exact_trace_occupation(Model.FN, 0.5, 0.3, d=1)
        plain = 1.0 / (math.exp(0.3) + 1.0)
        assert trace.mean_deformed == pytest.approx(plain, rel=1e-14)
        assert abs(fn_distribution(0.3, 0.5) - plain) > 0.1

    def test_fn_matrix_trace_oracle(self):
        # binomial sums against the explicit 2**d matrices
        q, eta, d = 0.7, 1.5, 3
        ops = build_fn_multimode(d, q)
        occupations = np.array([sum(s) for s in ops.basis_labels], dtype=float)
        weights = np.exp(-eta * occupations)
        z_sum = weights.sum()
        deformed_diag = spectrum_of_number_operator(ops)
        shifted_diag = np.zeros(ops.dim)
        for c, cdag in zip(ops.annihilators, ops.creators):
            shifted_diag += np.diag(c @ cdag)
        trace = exact_trace_occupation(Model.FN, q, eta, d=d)
        assert trace.mean_deformed == pytest.approx(
            float((deformed_diag * weights).sum() / z_sum), rel=1e-13
        )
        assert trace.mean_shifted == pytest.approx(
            float((shifted_diag * weights).sum() / z_sum), rel=1e-13
        )
        assert trace.identity_residual <= 1e-13

    def test_unbounded_models_need_positive_eta(self):
        with pytest.raises(ValueError):
            exact_trace_occupation(Model.VPJC, 0.5, -0.5)
        with pytest.raises(ValueError):
            exact_trace_occupation(Model.PVC, 0.5, 0.0)

    def test_pvc_divergent_region_is_boundary_dominated(self):
        # below eta = ln(1/q) the residual grows with the cutoff
        small = exact_trace_occupation(Model.PVC, 0.3, 1.0, n_max=40)
        large = exact_trace_occupation(Model.PVC, 0.3, 1.0, n_max=60)
        assert large.identity_residual > small.identity_residual > 1.0
        assert not small.converged and not large.converged

    @pytest.mark.parametrize(
        "model,q,etas",
        [(Model.PVC, 0.3, (1.0, 2.0, 4.0)), (Model.PVC, 0.5, (0.5, 1.0, 2.0)),
         (Model.PVC, 0.9, (0.05, 1.0)), (Model.PVC, 2.0, (0.5, 1.0)),
         (Model.VPJC, 0.5, (1e-3, 1.0)), (Model.VPJC, 2.0, (0.5, 1.0)),
         (Model.VPJC, 3.0, (0.9, 1.5))],
    )
    def test_converged_flag_tracks_the_residual(self, model, q, etas):
        # a ladder whose levels grow like g**n converges for exp(-eta) g < 1:
        # there the residual (the discarded tail) shrinks as the cutoff
        # grows, elsewhere it grows
        growth = max(q, 1.0 / q) if model is Model.PVC else max(q, 1.0)
        for eta in etas:
            short = exact_trace_occupation(model, q, eta, n_max=40)
            long = exact_trace_occupation(model, q, eta, n_max=80)
            assert short.converged is long.converged is (math.exp(-eta) * growth < 1.0)
            if long.converged:
                assert long.identity_residual <= short.identity_residual
            else:
                assert long.identity_residual > short.identity_residual

    @pytest.mark.parametrize("model", [Model.FN, Model.CKN])
    def test_finite_level_tables_always_converge(self, model):
        for q, eta in ((0.3, -40.0), (0.5, 0.0), (2.0, 3.0), (1e6, -800.0)):
            assert exact_trace_occupation(model, q, eta, d=2).converged is True

    @pytest.mark.parametrize("n_max", [-1, 2.5, math.nan, math.inf])
    def test_ladder_cutoff_is_a_nonnegative_integer(self, n_max):
        with pytest.raises(ValueError, match="ladder cutoff must be a nonnegative integer"):
            exact_trace_occupation(Model.VPJC, 0.5, 1.0, n_max=n_max)


class TestEquationsOfState:
    def test_fn_classical_limit(self):
        point = fn_eos(1.0, 1e-6)
        assert point.pressure / point.density == pytest.approx(1.0, abs=1e-5)
        assert point.entropy == pytest.approx(2.5 - math.log(1e-6), rel=1e-6)
        assert point.energy_density == pytest.approx(1.5 * point.pressure, rel=1e-15)

    def test_fn_substitution_identity(self):
        assert fn_eos(0.5, 0.4).pressure == fn_eos(1.0, 0.2).pressure

    @pytest.mark.parametrize("z", [0.2, 0.5, 0.8])
    def test_fn_deformation_lowers_pressure_and_entropy(self, z):
        deformed = fn_eos(0.5, z)
        plain = fn_eos(1.0, z)
        assert deformed.pressure < plain.pressure
        assert deformed.entropy < plain.entropy

    def test_fn_divergence(self):
        with pytest.raises(SeriesConvergenceError):
            fn_eos(0.5, 2.0)

    def test_ckn_maps_to_inverse_deformation(self):
        assert ckn_eos(0.5, 0.3).pressure == fn_eos(2.0, 0.3).pressure

    def test_pvc_frozen_oracle(self):
        point = pvc_eos(0.5, 0.3, 1.0, tol=1e-12)
        assert point.pressure == pytest.approx(H_52_Z03_Q05, abs=1e-11)
        assert point.density == pytest.approx(H_32_Z03_Q05, abs=1e-11)
        assert point.energy_density == pytest.approx(1.5 * H_52_Z03_Q05, abs=2e-11)
        assert point.entropy == pytest.approx(
            2.5 * H_52_Z03_Q05 - H_32_Z03_Q05, abs=3e-11
        )

    @pytest.mark.parametrize("g_mult", [math.inf, 0.0, -1.0, math.nan])
    def test_pvc_multiplicity_is_positive_and_finite(self, g_mult):
        # an infinite multiplicity used to give an inf entropy
        message = f"multiplicity factor must be positive and finite, got {g_mult}"
        with pytest.raises(ValueError, match=re.escape(message)):
            pvc_eos(0.5, 0.3, g_mult=g_mult)

    def test_pvc_multiplicity_scales_entropy(self):
        base = pvc_eos(0.5, 0.1, 1.0)
        doubled = pvc_eos(0.5, 0.1, 2.0)
        assert doubled.entropy == pytest.approx(2.0 * base.entropy, rel=1e-14)
        assert doubled.pressure == base.pressure

    def test_pvc_small_fugacity_ratio(self):
        # the leading terms of both orders coincide, so density/pressure -> 1
        point = pvc_eos(0.5, 1e-7, 1.0, tol=1e-20)
        assert point.density / point.pressure == pytest.approx(1.0, abs=1e-5)

    def test_fn_vs_pvc_directions(self):
        comparison = fn_pvc_comparison(0.5, 0.3)
        assert comparison["fn_pressure_lower"] is True
        # with the per-volume entropy as implemented (no -ln z term in the
        # PVC form) the FN entropy comes out above PVC at these points; the
        # direction is recorded rather than asserted as an ordering law
        assert comparison["fn_entropy_lower"] is False
        assert comparison["fn_entropy_density"] == pytest.approx(
            2.5 * fn_eos(0.5, 0.3).pressure - math.log(0.3) * fn_eos(0.5, 0.3).density,
            rel=1e-12,
        )

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("z_frac", [0.1, 0.5, 0.9])
    def test_fn_pressure_always_below_pvc(self, q, z_frac):
        z = z_frac * q  # keep both series inside their domains
        comparison = fn_pvc_comparison(q, z)
        assert comparison["fn_pressure_lower"] is True


class TestVirial:
    def test_fn_second_coefficient(self):
        coeffs = virial_coefficients(Model.FN, 0.5, 2)
        assert coeffs[0] == pytest.approx(1.0, abs=1e-14)
        assert coeffs[1] == pytest.approx(A2_TARGET, abs=1e-10)

    def test_ckn_third_coefficient(self):
        coeffs = virial_coefficients(Model.CKN, 0.7, 3)
        assert coeffs[2] == pytest.approx(A3_TARGET, abs=1e-9)

    def test_q_independence(self):
        values = [virial_coefficients(Model.FN, q, 2)[1] for q in (0.3, 0.5, 0.9, 1.5)]
        assert max(values) - min(values) <= 1e-10

    def test_ckn_equals_fn_at_inverse_q(self):
        np.testing.assert_allclose(
            virial_coefficients(Model.CKN, 0.5, 4),
            virial_coefficients(Model.FN, 2.0, 4),
            atol=1e-14,
        )

    def test_higher_orders_match_known_forms(self):
        # a4 for the undeformed fermion gas: reversion against itself at
        # q = 1 and q = 0.5 must agree (q-independence at higher order)
        a4_plain = virial_coefficients(Model.FN, 1.0, 4)[3]
        a4_deformed = virial_coefficients(Model.FN, 0.5, 4)[3]
        assert a4_deformed == pytest.approx(a4_plain, abs=1e-12)

    @pytest.mark.parametrize(
        "model,q,orders", [(Model.FN, 1e60, 6), (Model.CKN, 1e-200, 3), (Model.FN, 1e-60, 6)]
    )
    def test_overflow_is_a_value_error(self, model, q, orders):
        # y**orders overflows (the first two), or a coefficient does (a6 was nan)
        message = f"virial coefficients to order {orders} overflow a double at q = {q}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                virial_coefficients(model, q, orders)

    def test_order_limits(self):
        with pytest.raises(ValueError):
            virial_coefficients(Model.FN, 0.5, 1)
        with pytest.raises(ValueError):
            virial_coefficients(Model.FN, 0.5, 7)
        with pytest.raises(ValueError):
            virial_coefficients(Model.VPJC, 0.5, 2)


# the numpy forms of the virial reversion that the list forms replaced, kept
# verbatim as the reference: the same products and sums in the same order


def _reference_poly_mul(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    out = np.zeros(order + 1)
    for i in range(min(a.size, order + 1)):
        if a[i] == 0.0:
            continue
        width = min(b.size, order + 1 - i)
        out[i : i + width] += a[i] * b[:width]
    return out


def _reference_virial(y: float, orders: int) -> np.ndarray:
    density = np.zeros(orders + 1)
    pressure = np.zeros(orders + 1)
    for l in range(1, orders + 1):
        sign = 1.0 if l % 2 else -1.0
        density[l] = sign * y**l / l**1.5
        pressure[l] = sign * y**l / l**2.5
    e = np.zeros(orders + 1)  # the series inverse of the density
    e[1] = 1.0 / density[1]
    for m in range(2, orders + 1):
        power = e.copy()
        total = 0.0
        for j in range(2, m + 1):
            power = _reference_poly_mul(power, e, orders)
            total += density[j] * power[m]
        e[m] = -total / density[1]
    coeffs = np.zeros(orders + 1)  # composed into the pressure series
    power = np.zeros(orders + 1)
    power[0] = 1.0
    for l in range(1, orders + 1):
        power = _reference_poly_mul(power, e, orders)
        coeffs += pressure[l] * power
    return coeffs[1 : orders + 1].copy()


@settings(max_examples=200, deadline=None)
@given(
    model=st.sampled_from([Model.FN, Model.CKN]),
    log_q=st.floats(min_value=-70.0, max_value=70.0),
    orders=st.integers(2, 6),
)
@example(model=Model.FN, log_q=0.0, orders=6)
@example(model=Model.FN, log_q=-60.0, orders=6)
def test_virial_is_the_numpy_reference_bit_for_bit(model, log_q, orders):
    q = 10.0**log_q
    with np.errstate(all="ignore"):
        try:
            expected = _reference_virial(MODELS[model].fn_q(q), orders)
        except OverflowError:  # y**l
            expected = np.array([math.inf])
    if not np.isfinite(expected).all():
        with pytest.raises(ValueError, match="overflow a double"):
            virial_coefficients(model, q, orders)
        return
    assert _bits(virial_coefficients(model, q, orders)) == _bits(expected)


class TestChemicalPotential:
    def test_closed_form_values(self):
        assert fn_mu_lowT(0.05, 1.0) == pytest.approx(0.99794383, abs=1e-7)
        assert fn_mu_lowT(0.05, 0.5) == pytest.approx(1.03260119, abs=1e-7)

    def test_zero_temperature_limit(self):
        assert fn_mu_lowT(0.001, 0.5) == pytest.approx(
            1.0 + 0.001 * math.log(2.0), abs=1e-5
        )

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    def test_numeric_agrees_with_closed_form(self, q):
        numeric = fn_mu_numeric(0.05, q)
        closed = fn_mu_lowT(0.05, q)
        assert abs(numeric - closed) / abs(closed) <= 1e-3

    def test_q_shift_is_logarithmic(self):
        shift = fn_mu_numeric(0.05, 1.0) - fn_mu_numeric(0.05, 2.0)
        assert shift == pytest.approx(0.05 * math.log(2.0), abs=1e-4)

    def test_ckn_mapping(self):
        assert ckn_mu_lowT(0.05, 0.5) == fn_mu_lowT(0.05, 2.0)
        assert ckn_mu_numeric(0.05, 0.5) == fn_mu_numeric(0.05, 2.0)

    @pytest.mark.parametrize("t", [5e-324, 1e-310, 1e-300, 1e-206])
    def test_tiny_t_overflow_is_a_value_error(self, t):
        # the bracket end L = 4/t overflows, or L**1.5 does; before, these
        # returned inf or raised a bare OverflowError
        with pytest.raises(ValueError, match="density equation overflows"):
            fn_mu_numeric(t, 0.5)
        assert fn_mu_numeric(1e-200, 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            fn_mu_lowT(0.0, 0.5)
        with pytest.raises(ValueError):
            fn_mu_lowT(0.3, 0.5)


def test_overflowing_trace_ladder_is_a_typed_error():
    with pytest.raises(ValueError, match="pvc spectrum at q = 0.3: level 590 overflows"):
        exact_trace_occupation(Model.PVC, 0.3, 1.0, n_max=600)


def test_overflowing_trace_is_a_typed_error():
    # FN: q**2 overflows (a raw OverflowError before); PVC: every level is
    # finite but their weighted sum is not (inf and nan before)
    with pytest.raises(ValueError, match=r"fn spectrum at q = 1e\+300: level 3 overflows"):
        exact_trace_occupation(Model.FN, 1e300, 1.0, d=3)
    with pytest.raises(ValueError, match="pvc trace at q = 0.9, eta = 1e-09 overflows"):
        exact_trace_occupation(Model.PVC, 0.9, 1e-9, n_max=6735)


@pytest.mark.parametrize("model,q,d", [(Model.VPJC, 0.5, 1), (Model.PVC, 0.5, 1),
                                       (Model.CKN, 2.0, 1), (Model.FN, 0.7, 3)])
def test_infinite_eta_gives_the_limiting_state(model, q, d):
    # eta = +inf: the ground state; eta = -inf: the top state of FN and CKN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ground = exact_trace_occupation(model, q, math.inf, n_max=20, d=d)
        assert astuple(ground) == (0.0, 0.0, d, 0.0, True)
        if model in (Model.FN, Model.CKN):
            top = exact_trace_occupation(model, q, -math.inf, d=d)
            assert astuple(top) == (d * q ** (d - 1), d, 0.0, 0.0, True)
    with pytest.raises(ValueError, match="eta must not be NaN"):
        exact_trace_occupation(model, q, math.nan, d=d)


def _mp_trace(model, q, eta, d):
    """The FN (d modes) and CKN trace averages in closed form at 50 digits,
    with the sum over the levels of m_n |value_n| for each average."""
    with mpmath.workdps(50):
        q, x = mpmath.mpf(q), mpmath.exp(-mpmath.mpf(eta))
        if model is Model.CKN:
            return (x / (1 + x), x / (1 + x), 1 / (1 + x)), (1.0, 1.0, 1.0)
        z = (1 + x) ** d
        means = (d * x * (1 + q * x) ** (d - 1) / z, d * x / (1 + x),
                 d * (1 + q * x) ** (d - 1) / z)
        scales = (d * (1 + q) ** (d - 1), d * 2 ** (d - 1), d * (1 + q) ** (d - 1))
        return means, tuple(float(s) for s in scales)


@pytest.mark.parametrize("model,d", [(Model.FN, 1), (Model.FN, 4), (Model.FN, 12),
                                     (Model.CKN, 1)])
@pytest.mark.parametrize("q", [0.3, 0.8, 1.3, 5.0])
@pytest.mark.parametrize("eta", [300.0, -300.0, 705.0, -705.0, 720.0, -720.0])
def test_extreme_eta_matches_mpmath(model, d, q, eta):
    # past |eta| = 709.8 these raised OverflowError; eta < 0 weighs the levels
    # from the top one down.  An average below the normal range (exp(-720))
    # carries an absolute rounding of up to 2**-1075, not a relative one, so
    # there it also allows 2**-1074 times its sum of m_n |value_n|
    trace = exact_trace_occupation(model, q, eta, d=d)
    got = (trace.mean_deformed, trace.mean_number, trace.mean_shifted)
    means, scales = _mp_trace(model, q, eta, d)
    for value, want, scale in zip(got, means, scales):
        allowance = 0.0 if abs(want) >= 2.0**-1022 else 2.0**-1074 * scale
        assert value == pytest.approx(float(want), rel=1e-13, abs=allowance)
    assert trace.identity_residual <= 1e-13 * max(1.0, trace.mean_shifted)


@pytest.mark.parametrize("d,q,eta", [(12, 40.0, -741.5), (7, 5.0, -709.0),
                                     (9, 20.0, -730.25), (12, 5.0, -705.0)])
def test_subnormal_weight_keeps_relative_precision(d, q, eta):
    # the weight exp(eta) of level d - 1 is subnormal, but its product with
    # the level value is not; the common lift keeps its relative precision
    # (eta = -705 has no subnormal weight and is computed as before)
    trace = exact_trace_occupation(Model.FN, q, eta, d=d)
    got = (trace.mean_deformed, trace.mean_number, trace.mean_shifted)
    means, _ = _mp_trace(Model.FN, q, eta, d)
    for value, want in zip(got, means):
        assert abs(float(want)) >= 2.0**-1022
        assert value == pytest.approx(float(want), rel=1e-13, abs=0.0)


# the public scalar forms of each model's record
DISTRIBUTIONS = {Model.FN: fn_distribution, Model.CKN: ckn_distribution,
                 Model.PVC: pvc_distribution, Model.VPJC: vpjc_distribution}
EOS = {Model.FN: lambda q, z, g_mult, tol: fn_eos(q, z, tol),
       Model.CKN: lambda q, z, g_mult, tol: ckn_eos(q, z, tol), Model.PVC: pvc_eos}


class TestModelRecords:
    def test_singular_abscissae_are_where_the_distribution_breaks(self):
        for model, q in ((Model.PVC, 0.5), (Model.VPJC, 0.5), (Model.VPJC, 0.3)):
            (point,) = MODELS[model].singular(q)
            with pytest.raises(SingularPointError):
                DISTRIBUTIONS[model](point, q)
            assert MODELS[model].distribution_array(np.array([point]), q)[1].tolist() == [True]
        for model in (Model.FN, Model.CKN):
            assert MODELS[model].singular(0.5) == ()

    def test_q1_limit_stands_in_only_where_the_closed_form_stops(self):
        for model, record in MODELS.items():
            assert (record.distribution_array is None) == (model not in DISTRIBUTIONS)
            if record.distribution_array is None:
                assert model is Model.ARIK_COON and record.q1_limit_array is None
                continue
            if record.q1_limit_array is None:
                assert DISTRIBUTIONS[model](0.7, 1.0) == q1_limit_distribution(0.7)
            else:
                assert record.q1_limit_array is q1_limit_distribution_array
                with pytest.raises(ValueError, match="q1_limit"):
                    DISTRIBUTIONS[model](0.7, 1.0)

    def test_eos_mu_and_virial_entries(self):
        assert MODELS[Model.CKN].mu_array == (ckn_mu_lowT_array, ckn_mu_numeric_array)
        for model, record in MODELS.items():
            assert (record.eos_array is None) == (model not in EOS)
            if record.eos_array is not None:
                state, skipped = record.eos_array(0.5, np.array([0.3]), 2.0, 1e-10)
                assert not skipped[0]
                assert [float(v[0]) for v in astuple(state)] == list(
                    astuple(EOS[model](0.5, 0.3, 2.0, 1e-10))
                )
        for model in (Model.FN, Model.CKN):
            y = MODELS[model].fn_q(0.7)
            assert np.array_equal(
                virial_coefficients(model, 0.7, 4), virial_coefficients(Model.FN, y, 4)
            )
        for model in (Model.PVC, Model.VPJC, Model.ARIK_COON):
            assert MODELS[model].mu_array is None and MODELS[model].fn_q is None
        assert MODELS[Model.VPJC].eos_array is None
        assert MODELS[Model.ARIK_COON].eos_array is None


# ---------------------------------------------------------------------------
# the `math` forms that the distribution and mu_lowT kernels replaced, kept
# verbatim as references.  The mu_lowT twins equal them bit for bit.  The
# distribution kernels call numpy's exp, expm1 and log, so their cells lie
# within `_ufunc_bound` of them, except cells whose quotient overflowed to
# inf in the reference


def _reference_require_eta(eta: float) -> None:
    if eta != eta:
        raise ValueError("distribution argument eta must not be NaN")


def _reference_fn_distribution(eta: float, q: float) -> float:
    """Mean occupation q / (exp(eta) + q) of the multimode FN gas."""
    require_positive_q(q)
    _reference_require_eta(eta)
    if eta > 0.0:
        w = math.exp(-eta)
        return q * w / (1.0 + q * w)
    return q / (math.exp(eta) + q)


def _reference_ckn_distribution(eta: float, q: float) -> float:
    require_positive_q(q)
    return _reference_fn_distribution(eta, 1.0 / q)


def _reference_q1_limit_distribution(eta: float) -> float:
    """Plain Fermi-Dirac occupation 1 / (exp(eta) + 1)."""
    _reference_require_eta(eta)
    if eta > 0.0:
        w = math.exp(-eta)
        return w / (1.0 + w)
    return 1.0 / (math.exp(eta) + 1.0)


def _reference_pvc_distribution(eta: float, q: float) -> float:
    """PVC mean occupation; singular where exp(eta) = 1/q."""
    _require_open_unit_with_limit_hint(q, "PVC")
    _reference_require_eta(eta)
    if eta > 0.0:
        w = math.exp(-eta)
        num = abs(1.0 - w / q)
        den = 1.0 + q * w
    else:
        num = abs(math.exp(eta) - 1.0 / q)
        den = math.exp(eta) + q
    if num == 0.0:
        raise SingularPointError(
            f"PVC distribution is singular at eta = ln(1/q) = {-math.log(q)}"
        )
    return abs(math.log(num / den)) / (2.0 * abs(math.log(q)))


def _reference_vpjc_distribution(eta: float, q: float) -> float:
    """VPJC mean occupation; discontinuous (divergent) at eta = 0."""
    _require_open_unit_with_limit_hint(q, "VPJC")
    _reference_require_eta(eta)
    if eta == 0.0:
        raise SingularPointError("VPJC distribution is discontinuous at eta = 0")
    if eta > 0.0:
        num, den = -math.expm1(-eta), 1.0 + q * math.exp(-eta)
    else:
        num, den = -math.expm1(eta), math.exp(eta) + q
    ratio = num / den
    # a subnormal num over den >= 1 rounds to a subnormal or 0, which has lost
    # bits; the log of the ratio is log(num) - log(den)
    log_ratio = math.log(ratio) if ratio >= 2.0**-1022 else math.log(num) - math.log(den)
    return abs(log_ratio) / abs(math.log(q))


def _reference_fn_mu_lowT(t: float, q: float) -> float:
    """Closed-form mu/eps_F = -t ln q + 1 - (pi**2/12) t**2, with ln q from
    numpy's log, as the kernels and the EOS forms take it (`math.log` differs
    from it in the last bit on about 1e-3 of inputs)."""
    _validate_t(t)
    require_positive_q(q)
    return -t * float(np.log(q)) + 1.0 - (math.pi**2 / 12.0) * t * t


def _reference_ckn_mu_lowT(t: float, q: float) -> float:
    require_positive_q(q)
    return _reference_fn_mu_lowT(t, 1.0 / q)


# (reference, public scalar, kernel, q strategy) for each distribution of MODELS
_ANY_Q = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
_UNIT_Q = st.floats(min_value=5e-324, max_value=1.0, exclude_max=True)
TWINS = {
    "fn": (_reference_fn_distribution, fn_distribution, MODELS[Model.FN].distribution_array,
           _ANY_Q),
    "ckn": (_reference_ckn_distribution, ckn_distribution,
            MODELS[Model.CKN].distribution_array, _ANY_Q),
    "pvc": (_reference_pvc_distribution, pvc_distribution,
            MODELS[Model.PVC].distribution_array, _UNIT_Q),
    "vpjc": (_reference_vpjc_distribution, vpjc_distribution,
             MODELS[Model.VPJC].distribution_array, _UNIT_Q),
    "q1_limit": (
        lambda eta, q: _reference_q1_limit_distribution(eta),
        lambda eta, q: q1_limit_distribution(eta),
        lambda eta, q: MODELS[Model.VPJC].q1_limit_array(eta),
        st.just(1.0),
    ),
}
_ETAS = st.lists(
    st.one_of(
        st.floats(allow_nan=False),
        st.floats(-40.0, 40.0),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         1e308, -1e308, math.inf, -math.inf, 1e-9, -745.2, 709.8]),
    ),
    min_size=1,
    max_size=24,
)


def _outcome(func, *args):
    """func(*args), or the type and text of the ValueError it raises."""
    try:
        return func(*args)
    except ValueError as exc:  # SingularPointError included
        return type(exc), str(exc)


_EPS = 2.0**-52


def _ufunc_bound(name, eta, q, want):
    """Largest |kernel - reference| at one cell of a distribution, derived
    from the accuracy of its exp, expm1 and log calls.

    numpy's float64 exp, expm1 and log pass its accuracy tests within 1 ulp
    of the exact value (numpy/_core/tests/data/umath-validation-set-*.csv;
    1e5 random points read at most 0.67, 0.51 and 0.53 ulp on numpy 2.4's
    AVX-512 loops), and libm's, which `math` calls, are within 1 ulp too.  So
    the kernel's exp(-|eta|) and the reference's differ by at most 2 ulp,
    taken as 3 ulp(e) for a binade edge between them; the same holds for
    expm1 and for log.  Both sides then round the same arithmetic, each op
    within u = eps/2.

    FN form f(e), q' = q, 1/q or 1: |df/de| <= f/e, so the exps move f by at
    most 3 ulp(e) |df/de|; each side rounds 3 ops (4 eps |f| for both, with
    the second-order terms), plus half a subnormal ulp per op.

    PVC and VPJC: the log ratio L = log(num/den) moves by 3 ulp(e) times
    (|dnum/de| / num + |dden/de| / den), VPJC's expm1 num by 3 ulp(num) /
    num, and each side's roundings by u (cond + 4), where cond is the exp
    term of num over num ((e/q) / num or e / num; 0 for expm1), so eps (1 +
    cond) times a few; the logs add 3 ulp(L), or where the ratio under- or
    overflows, 3 ulp of log(num) and of log(den).  The value is
    |L| / (c |ln q|) with its own rounding, eps |value|.
    """
    e = math.exp(-abs(eta))
    if name in ("fn", "ckn", "q1_limit"):
        q = {"fn": q, "ckn": 1.0 / q, "q1_limit": 1.0}[name]
        slope = q / ((1.0 + q * e) * (1.0 + q * e)) if eta > 0.0 else want / (e + q)
        return 3.0 * math.ulp(e) * slope + 4.0 * _EPS * want + 2.0 * math.ulp(0.0)
    if name == "pvc":
        c = 2.0
        if eta > 0.0:
            num, den, d_num, d_den, exp_term = abs(1.0 - e / q), 1.0 + q * e, 1.0 / q, q, e / q
        else:
            num, den, d_num, d_den, exp_term = abs(e - 1.0 / q), e + q, 1.0, 1.0, e
        own = 0.0
    else:
        c, num = 1.0, -math.expm1(-abs(eta))
        den, d_den = (1.0 + q * e, q) if eta > 0.0 else (e + q, 1.0)
        d_num, exp_term, own = 0.0, 0.0, 3.0 * math.ulp(num) / num
    ratio = num / den
    if 0.0 < ratio < math.inf:
        logs = 3.0 * math.ulp(math.log(ratio))
    else:
        logs = 3.0 * (math.ulp(math.log(num)) + math.ulp(math.log(den)))
    moved = 3.0 * math.ulp(e) * (d_num / num + d_den / den) + own
    log_ratio = moved + _EPS * (exp_term / num + 4.0) + logs
    return log_ratio / (c * abs(math.log(q))) + _EPS * want + math.ulp(0.0)


def _assert_near_the_reference(name, eta, q, got, want):
    if isinstance(want, tuple):  # the error's type and text
        assert got == want
    elif want == math.inf and name in ("pvc", "vpjc"):
        # the reference's quotient overflowed; the kernel takes its logs apart
        assert math.isfinite(got)
    else:
        assert abs(got - want) <= _ufunc_bound(name, eta, q, want)


@pytest.mark.parametrize("name", sorted(TWINS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_array_twin_is_the_scalar_bit_for_bit(name, data):
    reference, scalar, twin, q_values = TWINS[name]
    q = data.draw(q_values, label="q")
    etas = data.draw(_ETAS, label="etas")
    expected = [_outcome(reference, eta, q) for eta in etas]
    if name == "pvc" and q <= 2.0**-1024:  # 1/q overflows: now rejected first
        expected = [(ValueError, f"the PVC distribution needs a finite 1/q, got q = {q}")]
        expected *= len(etas)
    scalars = [_outcome(scalar, eta, q) for eta in etas]
    for eta, got, want in zip(etas, scalars, expected):
        _assert_near_the_reference(name, eta, q, got, want)
    error = next((w for w in expected if isinstance(w, tuple) and w[0] is ValueError), None)
    if error is not None:  # q outside the domain, or a cell the kernel rejects
        with pytest.raises(ValueError, match=re.escape(error[1])):
            twin(np.array(etas), q)
        return
    values, mask = twin(np.array(etas), q)
    mask = np.zeros(len(etas), dtype=bool) if mask is None else mask
    assert mask.tolist() == [isinstance(w, tuple) for w in expected]
    assert _bits(values[~mask]) == _bits([v for v, m in zip(scalars, mask) if not m])


@pytest.mark.parametrize("name", sorted(TWINS))
def test_array_twin_ignores_the_callers_numpy_error_settings(name):
    _, scalar, twin, _ = TWINS[name]
    # q where the closed form overflows or underflows silently; pvc takes
    # 1e-300, since 5e-324 has no finite 1/q and is rejected
    q = {"fn": 5e-324, "ckn": 1e300, "pvc": 1e-300, "vpjc": 5e-324, "q1_limit": 1.0}[name]
    etas = np.array([-800.0, -100.0, -1e-9, 1e-9, 100.0, 700.0, math.inf, -math.inf])
    with np.errstate(all="raise"):
        values, _ = twin(etas, q)
    assert np.isfinite(values).all()
    assert values.tolist() == [scalar(float(eta), q) for eta in etas]


# q log-uniform over (0, max double), with its ends, 1 and the last q below 1
_LOG_Q = st.one_of(
    st.floats(min_value=-1074.0, max_value=1024.0, exclude_max=True).map(lambda x: 2.0**x),
    st.sampled_from([5e-324, 2.0**-1024, 1.0 - 2.0**-53, 1.0, 1.7976931348623157e308]),
)
_ANY_ETAS = st.lists(
    st.one_of(
        st.floats(),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, -800.0, 800.0]),
    ),
    min_size=1,
    max_size=16,
)


@pytest.mark.parametrize("name", sorted(TWINS))
@settings(max_examples=200, deadline=None)
@given(q=_LOG_Q, etas=_ANY_ETAS)
def test_every_result_is_finite_or_a_typed_error(name, q, etas):
    _, scalar, twin, _ = TWINS[name]
    model = {"pvc": Model.PVC, "vpjc": Model.VPJC}.get(name)

    def assert_value(value):
        assert math.isfinite(value) and value >= 0.0
        if model is None:  # fn, ckn and the q = 1 limit are occupations
            assert value <= 1.0

    def assert_singular(eta):
        (point,) = MODELS[model].singular(q)
        assert abs(eta - point) <= 1e-12 * max(1.0, abs(point))

    for eta in etas:
        try:
            assert_value(scalar(eta, q))
        except SingularPointError:
            assert_singular(eta)
        except ValueError:
            pass
    try:
        values, mask = twin(np.array(etas), q)
    except ValueError as exc:
        assert not isinstance(exc, SingularPointError)
        return
    mask = np.zeros(len(etas), dtype=bool) if mask is None else mask
    for eta, value, singular in zip(etas, values.tolist(), mask.tolist()):
        if singular:
            assert_singular(eta)
        else:
            assert_value(value)


@pytest.mark.parametrize("model", [Model.FN, Model.CKN, Model.PVC, Model.VPJC])
@settings(max_examples=200, deadline=None)
@given(q=_LOG_Q, etas=_ANY_ETAS, d=st.integers(1, 12), n_max=st.integers(0, 12))
def test_every_trace_is_finite_or_a_typed_error(model, q, etas, d, n_max):
    top = {Model.FN: d, Model.CKN: 1}.get(model, n_max)
    for eta in etas:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                trace = exact_trace_occupation(model, q, eta, n_max=n_max, d=d)
        except ValueError as exc:
            assert not isinstance(exc, SingularPointError)
            continue
        assert all(map(math.isfinite, astuple(trace)[:4]))
        assert 0.0 <= trace.mean_number <= top and trace.identity_residual >= 0.0
        assert isinstance(trace.converged, bool)


def _mp_distribution(model, eta, q):
    """The PVC or VPJC closed form at 50 digits."""
    with mpmath.workdps(50):
        e, q = mpmath.exp(mpmath.mpf(eta)), mpmath.mpf(q)
        if model is Model.PVC:
            return float(abs(mpmath.log(abs(e - 1 / q) / (e + q))) / (2 * abs(mpmath.log(q))))
        return float(abs(mpmath.log(abs(e - 1) / (e + q))) / abs(mpmath.log(q)))


@pytest.mark.parametrize(
    "model,q",
    [(Model.PVC, 1e-200), (Model.PVC, 1e-300), (Model.VPJC, 1e-200), (Model.VPJC, 1e-300),
     (Model.VPJC, 5e-324)],
)
def test_tiny_q_matches_mpmath(model, q):
    # where exp(eta) < q the quotient overflows once q < ~7.5e-155 (PVC) or
    # 1/q does (VPJC at 5e-324); both used to read inf there
    etas = [-1e4, -800.0, -600.0, -400.0, -100.0, -1.0, 0.5, 100.0, 800.0]
    values, singular = MODELS[model].distribution_array(np.array(etas), q)
    assert not singular.any()
    for eta, value in zip(etas, values.tolist()):
        assert value == pytest.approx(_mp_distribution(model, eta, q), rel=1e-12, abs=1e-15)
        assert DISTRIBUTIONS[model](eta, q) == value


# every kernel cell against 50-digit mpmath: |n - exact| <= K u (1 + cond) exact,
# plus one subnormal ulp, where u = 2**-53 and cond = |eta dn/deta| / n +
# |q dn/dq| / n sums the relative condition numbers in eta and in q.  The q
# term is needed where n is ill-conditioned in q: PVC near its zero crossing
# at eta ~ 0 (q ~ sqrt(2) - 1), where the kernels' one rounding of 1/q - q
# alone costs about 1000 u against u cond_eta.  Measured worst K over 800 to
# 1500 draws: 1.3 (FN), 1.5 (CKN), 2.6 (VPJC), 4.0 (PVC, as eta -> -inf at
# q -> 1).
_GATE_K = 8.0
_UNIT_OPEN_Q = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=-1074.0, max_value=-1e-3).map(lambda x: 2.0**x),
    st.floats(min_value=1.0, max_value=53.0).map(lambda k: 1.0 - 2.0**-k),
)
# where a cell lies on a branch edge: the PVC singular point ln(1/q) and
# zero crossing ln((1 - q^2) / (2 q)), the VPJC zero crossing ln((1 - q) / 2)
_EDGES = (lambda q: -math.log(q), lambda q: math.log((1.0 - q) * (1.0 + q) / (2.0 * q)),
          lambda q: math.log((1.0 - q) / 2.0))


def _mp_occupation(model, eta, q):
    e = mpmath.exp(eta)
    if model in (Model.FN, Model.CKN):
        q = q if model is Model.FN else 1 / q
        return q / (e + q)
    if model is Model.PVC:
        return abs(mpmath.log(abs(e - 1 / q) / (e + q))) / (2 * abs(mpmath.log(q)))
    return abs(mpmath.log(abs(mpmath.expm1(eta)) / (e + q))) / abs(mpmath.log(q))


@pytest.mark.parametrize("model", [Model.FN, Model.CKN, Model.PVC, Model.VPJC])
@settings(max_examples=60, deadline=None)
@given(q=_UNIT_OPEN_Q, data=st.data())
@example(q=0.5, data=None)
def test_every_kernel_cell_is_within_its_condition_bound(model, q, data):
    # a log of a ratio near 1 (the VPJC and PVC eta -> +inf tails, q near 1)
    # loses u / |log ratio| relative; a subnormal exp(-|eta|) loses bits
    edges = [x for x in (f(q) for f in _EDGES) if abs(x) <= 745.0]
    near_edge = st.sampled_from(edges).flatmap(
        lambda x: st.floats(-1.0, 1.0).map(lambda r: x * (1.0 + 1e-6 * r) + 1e-300 * r))
    if data is None:  # the eta -> +inf tail
        etas = [10.0, 20.0, 30.0, 36.0, 40.0, 100.0, 700.0, 710.0, 740.0]
    else:
        etas = data.draw(st.lists(st.one_of(st.floats(-745.0, 745.0), near_edge),
                                  min_size=1, max_size=8), label="etas")
    try:
        values, mask = MODELS[model].distribution_array(np.array(etas), q)
    except ValueError:  # CKN and PVC need a finite 1/q
        assert q < 2.0**-1023
        return
    mask = np.zeros(len(etas), dtype=bool) if mask is None else mask
    for eta, got, singular in zip(etas, values.tolist(), mask.tolist()):
        if singular:
            continue
        with mpmath.workdps(50 + int(abs(eta) / 2.3)):  # n ~ exp(-eta) is resolved
            x, y = mpmath.mpf(eta), mpmath.mpf(q)
            n = _mp_occupation(model, x, y)
            if n == 0:  # a zero crossing
                continue
            cond = abs(x * mpmath.diff(lambda v: _mp_occupation(model, v, y), x) / n)
            # q dn/dq as dn/d(ln q): a finite-difference step in q itself
            # crosses 0 where q is subnormal
            cond += abs(mpmath.diff(lambda t: _mp_occupation(model, x, mpmath.exp(t)),
                                    mpmath.log(y)) / n)
            bound = _GATE_K * 2.0**-53 * (1 + cond) * n + math.ulp(0.0)
            assert abs(got - n) <= bound, (eta, got, float(n), float(cond))


def test_pvc_needs_a_finite_inverse_q():
    for q in (5e-324, 2.0**-1024):
        message = re.escape(f"the PVC distribution needs a finite 1/q, got q = {q}")
        with pytest.raises(ValueError, match=message):
            pvc_distribution(0.5, q)
        with pytest.raises(ValueError, match=message):
            pvc_distribution_array(np.array([0.5]), q)
    values, _ = pvc_distribution_array(np.array([-800.0, -1.0, 1.0, 800.0]),
                                       float(np.nextafter(2.0**-1024, 1.0)))
    assert np.isfinite(values).all()


class TestNanAndInfinity:
    @pytest.mark.parametrize("name", sorted(TWINS))
    def test_nan_eta_is_a_value_error(self, name):
        _, scalar, twin, _ = TWINS[name]
        q = 1.0 if name == "q1_limit" else 0.5
        with pytest.raises(ValueError, match="eta must not be NaN"):
            scalar(math.nan, q)
        with pytest.raises(ValueError, match="eta must not be NaN"):
            twin(np.array([0.3, math.nan, 1.0]), q)

    @pytest.mark.parametrize("name", sorted(TWINS))
    @pytest.mark.parametrize("q", [0.3, 0.5])
    def test_infinite_eta_keeps_its_limits(self, name, q):
        _, scalar, twin, _ = TWINS[name]
        q = 1.0 if name == "q1_limit" else q
        assert scalar(math.inf, q) == 0.0
        assert scalar(-math.inf, q) == 1.0
        values, _ = twin(np.array([math.inf, -math.inf]), q)
        assert values.tolist() == [0.0, 1.0]

    def test_domain_error_of_q_comes_first(self):
        with pytest.raises(ValueError, match="requires 0 < q < 1"):
            pvc_distribution(math.nan, 1.5)
        with pytest.raises(ValueError, match="positive and finite"):
            fn_distribution(math.nan, -1.0)


@pytest.mark.parametrize("name", sorted(TWINS))
def test_array_twin_keeps_the_shape_of_eta(name):
    _, _, twin, _ = TWINS[name]
    q = 1.0 if name == "q1_limit" else 0.5
    grid = np.linspace(-3.0, 3.0, 12)
    flat, flat_mask = twin(grid, q)
    values, mask = twin(grid.reshape(3, 4), q)
    assert values.shape == (3, 4)
    assert values.ravel().view(np.int64).tolist() == flat.view(np.int64).tolist()
    assert (mask is None) == (flat_mask is None)
    scalar_value, _ = twin(grid[5], q)
    assert scalar_value.shape == () and scalar_value == flat[5]


def test_fn_eos_where_q_z_underflows():
    # both series are 0 there; the entropy takes the limit p / d -> 1
    state = fn_eos(1e-300, 1e-300)
    assert (state.pressure, state.density) == (0.0, 0.0)
    assert state.entropy == 2.5 - math.log(1e-300)
    twin, skipped = fn_eos_array(1e-300, np.array([1e-300, 0.5]))
    assert twin.entropy.tolist() == [state.entropy, fn_eos(1e-300, 0.5).entropy]
    assert not skipped.any()


def test_vpjc_underflowed_ratio_keeps_its_log():
    # 1 + q rounds to 2, so 5e-324 / 2 rounds to 0; the log of the ratio is
    # log(5e-324) - log(2), finite, where math.log(0) would raise
    q = 1.0 - 2.0**-53
    expected = (math.log(2.0) - math.log(5e-324)) / -math.log(q)
    for eta in (5e-324, -5e-324):
        assert vpjc_distribution(eta, q) == expected
    values, singular = vpjc_distribution_array(np.array([5e-324, -5e-324, 0.5]), q)
    assert values.tolist() == [expected, expected, vpjc_distribution(0.5, q)]
    assert singular.tolist() == [False, False, False]


# ---------------------------------------------------------------------------
# equation-of-state and chemical-potential twins: every cell is the scalar's


def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


# scaled fugacity x = q z (fn), z / q (ckn, pvc): the series edge is x = 1
_EOS_X = st.one_of(
    st.sampled_from([5e-324, 1e-300, 0.5, 1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52, 1.5, math.inf]),
    st.floats(min_value=0.0, max_value=1.2, exclude_min=True),
)
# pvc sums its second series directly: keep z / q away from 1, where that
# takes millions of terms
_PVC_X = st.one_of(
    st.sampled_from([0.0, 5e-324, 0.5, 1.0, 1.5]), st.floats(min_value=0.0, max_value=0.99)
)
_EOS_CASES = {
    Model.FN: (st.floats(min_value=0.2, max_value=3.0), _EOS_X, lambda x, q: x / q),
    Model.CKN: (st.floats(min_value=0.2, max_value=3.0), _EOS_X, lambda x, q: x * q),
    Model.PVC: (st.floats(min_value=0.2, max_value=0.95), _PVC_X, lambda x, q: x * q),
}


@pytest.mark.parametrize("model", sorted(_EOS_CASES, key=lambda m: m.value))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_eos_twin_is_the_scalar_bit_for_bit(model, data):
    q_values, xs, z_of = _EOS_CASES[model]
    record = MODELS[model]
    q = data.draw(q_values, label="q")
    zs = [z_of(x, q) for x in data.draw(st.lists(xs, min_size=1, max_size=12), label="xs")]
    low = -13.0 if model is Model.PVC else -17.0  # down to the rounding floor
    tol = 10.0 ** data.draw(st.floats(min_value=low, max_value=-3.0), label="log_tol")
    expected, raised = [], []
    for z in zs:
        try:
            expected.append(astuple(EOS[model](q, z, 1.0, tol)))
            raised.append(False)
        except SeriesConvergenceError:
            expected.append((math.nan,) * 4)
            raised.append(True)
        except ValueError as exc:  # z = 0 (an underflowed x / q): the whole call
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                record.eos_array(q, np.array(zs), 1.0, tol)
            return
    state, skipped = record.eos_array(q, np.array(zs), 1.0, tol)
    assert skipped.tolist() == raised
    for column, values in zip(astuple(state), zip(*expected)):
        assert _bits(column) == _bits(values)


@pytest.mark.parametrize("model", [Model.FN, Model.CKN, Model.PVC])
def test_eos_twin_raises_the_scalars_value_error(model):
    record = MODELS[model]
    for q, zs, g_mult, tol in ((0.5, [0.3, -0.1, 0.2], 1.0, 1e-10),
                               (0.5, [0.3, math.nan], 1.0, 1e-10), (-0.5, [0.3], 1.0, 1e-10),
                               (0.5, [0.3], -1.0, 1e-10), (0.5, [0.3], math.inf, 1e-10),
                               (0.5, [0.3, -1.0], 1.0, 0.0), (0.5, [3.0, -1.0], 1.0, 0.0)):
        try:  # a loop of the scalar, which skips the points past its series edge
            for z in zs:
                try:
                    EOS[model](q, z, g_mult, tol)
                except SeriesConvergenceError:
                    pass
        except ValueError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                record.eos_array(q, np.array(zs), g_mult, tol)
        else:  # fn and ckn ignore g_mult
            record.eos_array(q, np.array(zs), g_mult, tol)


def test_eos_twin_keeps_shape_and_ignores_numpy_error_settings():
    zs = np.array([[1e-300, 0.5], [1.5, 1e299]])  # q z from 1e-600 to 0.1
    with np.errstate(all="raise"):
        state, skipped = fn_eos_array(1e-300, zs)
        assert ckn_eos_array(2.0, zs)[1].tolist() == [[False, False], [False, True]]
        assert pvc_eos_array(0.5, zs)[1].tolist() == [[False, True], [True, True]]
    assert skipped.tolist() == [[False, False], [False, False]]
    assert state.entropy.shape == (2, 2)
    flat = [fn_eos(1e-300, float(z)).entropy for z in zs.ravel()]
    assert _bits(state.entropy.ravel()) == _bits(flat)


_T = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e-12, 0.01, 0.1, 0.2, np.nextafter(0.2, 0.0)]),
    st.floats(min_value=0.0, max_value=0.2, exclude_min=True),
)
_MU_TWINS = {
    "fn": (fn_mu_lowT, fn_mu_numeric, fn_mu_lowT_array, fn_mu_numeric_array),
    "ckn": (ckn_mu_lowT, ckn_mu_numeric, ckn_mu_lowT_array, ckn_mu_numeric_array),
}
_MU_REFERENCE = {"fn": _reference_fn_mu_lowT, "ckn": _reference_ckn_mu_lowT}


@pytest.mark.parametrize("name", sorted(_MU_TWINS))
@settings(max_examples=60, deadline=None)
@given(
    ts=st.lists(_T, min_size=1, max_size=12),
    qs=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=3),
)
@example(ts=[5e-324, 0.2], qs=[0.5])
@example(ts=[1e-300, 0.2], qs=[0.5])
def test_mu_twins_are_the_scalars_bit_for_bit(name, ts, qs):
    closed, numeric, closed_array, numeric_array = _MU_TWINS[name]
    t, q = np.array(ts), np.array(qs)[:, None]
    try:
        [numeric(x, y) for x in ts for y in qs]
    except ValueError as exc:  # a t below about 1e-205: (4 / t)**1.5 overflows
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            numeric_array(t, q)
        return
    with np.errstate(all="raise"):
        got_closed = closed_array(t, q)
        got_numeric = numeric_array(t, q)
    assert got_closed.shape == got_numeric.shape == (len(qs), len(ts))
    assert _bits(got_closed) == _bits([[closed(x, y) for x in ts] for y in qs])
    reference = _MU_REFERENCE[name]
    assert _bits(got_closed) == _bits([[reference(x, y) for x in ts] for y in qs])
    assert _bits(got_numeric) == _bits([[numeric(x, y) for x in ts] for y in qs])


@pytest.mark.parametrize("name", sorted(_MU_TWINS))
@pytest.mark.parametrize(
    "ts,q",
    [([0.1, 0.0, 0.3], 0.5), ([0.1, 0.25, -1.0], 0.5), ([math.nan], 0.5), ([0.1], -1.0),
     ([0.3], 5e-324)],
)
def test_mu_twins_raise_the_scalars_value_error(name, ts, q):
    closed, numeric, closed_array, numeric_array = _MU_TWINS[name]
    bad = next((t for t in ts if not 0.0 < t <= 0.2), ts[0])
    for scalar, twin in ((closed, closed_array), (numeric, numeric_array)):
        with pytest.raises(ValueError) as scalar_error:
            scalar(bad, q)
        with pytest.raises(ValueError, match=re.escape(str(scalar_error.value))):
            twin(np.array(ts), q)
    with pytest.raises(ValueError, match=re.escape(str(_outcome(closed, bad, q)[1]))):
        _MU_REFERENCE[name](bad, q)


def _mp_density_root(t: float) -> mpmath.mpf:
    """The root L of t**1.5 L**1.5 (1 + (pi**2/8) L**-2) = 1, by mpmath.findroot
    at 40 digits."""
    t = mpmath.mpf(t)

    def f(big_l):
        return (t * big_l) ** 1.5 * (1 + mpmath.pi**2 / 8 * big_l**-2) - 1

    return mpmath.findroot(f, (mpmath.mpf(1.5), 4 / t), solver="anderson")


@settings(max_examples=60, deadline=None)
@given(
    log_t=st.floats(min_value=math.log(1e-12), max_value=math.log(0.2)),
    q=st.sampled_from([0.5, 1.0, 2.0]),
)
@example(log_t=math.log(1e-200), q=1.0)
def test_mu_root_matches_an_independent_root(log_t, q):
    # the kernel bisects the density equation; the reference solves it afresh
    t = min(math.exp(log_t), 0.2)
    mu = fn_mu_numeric(t, q)
    with mpmath.workdps(40):
        root = _mp_density_root(t)
        big_l = mpmath.mpf(mu) / t + float(np.log(q))
        assert abs(big_l - root) <= 8 * 2.0**-53 * root
