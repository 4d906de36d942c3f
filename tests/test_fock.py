"""Matrix representations: construction, relation residuals, audits."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qfermi import (
    Model,
    NonNormalizableStateError,
    build_fn_multimode,
    build_single_mode,
    build_state,
    check_algebra,
    ckn_undeformed_residuals,
    covariance_check,
    fn_spectrum,
    haar_unitary,
    basic_number,
    spectrum_of_number_operator,
)
from qfermi.fock import _fn_relation_residuals, _maxabs_sum

SINGLE_MODE_CASES = [
    (Model.VPJC, 0.3, 40),
    (Model.VPJC, 0.5, 40),
    (Model.VPJC, 0.9, 40),
    (Model.VPJC, 1.0, 40),
    (Model.PVC, 0.3, 40),
    (Model.PVC, 0.5, 40),
    (Model.PVC, 0.9, 40),
    (Model.PVC, 1.0, 40),
    (Model.CKN, 0.3, 2),
    (Model.CKN, 0.5, 2),
    (Model.CKN, 0.9, 2),
    (Model.CKN, 1.0, 2),
    (Model.CKN, 1.5, 2),
]


class TestBuildSingleMode:
    def test_vpjc_creator_entry(self):
        ops = build_single_mode(Model.VPJC, 0.5, 4)
        assert ops.creator[2, 1] == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_vpjc_q1_ladder_terminates(self):
        ops = build_single_mode(Model.VPJC, 1.0, 4)
        assert ops.creator[2, 1] == 0.0  # level-2 value vanishes at q = 1
        assert ops.norm_violations == ()

    def test_vpjc_q2_flags_negative_levels(self):
        ops = build_single_mode(Model.VPJC, 2.0, 4)
        assert (2, -1.0) in ops.norm_violations

    def test_ckn_is_plain_fermion_matrix(self):
        ops = build_single_mode(Model.CKN, 0.5, 2)
        np.testing.assert_array_equal(ops.annihilator, [[0.0, 1.0], [0.0, 0.0]])

    def test_creators_are_transposes(self):
        for model, q, dim in SINGLE_MODE_CASES:
            ops = build_single_mode(model, q, dim)
            np.testing.assert_array_equal(ops.creator, ops.annihilator.T)

    def test_rejects_small_dim(self):
        with pytest.raises(ValueError):
            build_single_mode(Model.VPJC, 0.5, 1)

    def test_rejects_ckn_off_dimension(self):
        with pytest.raises(ValueError):
            build_single_mode(Model.CKN, 0.5, 3)

    def test_rejects_multimode_model(self):
        with pytest.raises(ValueError):
            build_single_mode(Model.FN, 0.5, 4)

    def test_matrices_are_frozen(self):
        ops = build_single_mode(Model.VPJC, 0.5, 4)
        with pytest.raises(ValueError):
            ops.annihilator[0, 1] = 2.0


class TestRelations:
    @pytest.mark.parametrize("model,q,dim", SINGLE_MODE_CASES)
    def test_single_mode_relations(self, model, q, dim):
        report = check_algebra(build_single_mode(model, q, dim))
        assert report.max_residual <= 1e-12, report.relation_residuals

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 1.0, 1.5])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_fn_relations(self, d, q):
        report = check_algebra(build_fn_multimode(d, q))
        assert report.max_residual <= 1e-12, report.relation_residuals
        assert report.norm_violations == ()

    def test_fn_single_mode_is_plain_fermion(self):
        ops = build_fn_multimode(1, 0.5)
        c, cdag = ops.annihilators[0], ops.creators[0]
        lhs = c @ cdag + 0.5 * cdag @ c
        np.testing.assert_allclose(lhs, np.diag([1.0, 0.5]), atol=1e-15)

    def test_truncation_boundary_reported(self):
        assert check_algebra(build_single_mode(Model.VPJC, 0.5, 6)).truncation_boundary == 4
        assert check_algebra(build_single_mode(Model.CKN, 0.5, 2)).truncation_boundary == 1
        assert check_algebra(build_fn_multimode(2, 0.5)).truncation_boundary == 3

    def test_pvc_keeps_double_occupancy(self):
        # c**2 must not vanish: the defining feature against plain fermions
        ops = build_single_mode(Model.PVC, 0.5, 5)
        assert np.max(np.abs(ops.annihilator @ ops.annihilator)) > 0.1


class TestSpectrumConsistency:
    def test_vpjc_values(self):
        diag = spectrum_of_number_operator(build_single_mode(Model.VPJC, 0.5, 4))
        np.testing.assert_allclose(diag, [0.0, 1.0, 0.5, 0.75], atol=1e-15)

    def test_ckn_values(self):
        diag = spectrum_of_number_operator(build_single_mode(Model.CKN, 0.3, 2))
        np.testing.assert_allclose(diag, [0.0, 1.0], atol=1e-15)

    def test_fn_two_modes(self):
        diag = spectrum_of_number_operator(build_fn_multimode(2, 0.5))
        np.testing.assert_allclose(diag, [0.0, 1.0, 1.0, 1.0], atol=1e-15)

    def test_fn_fully_occupied_matches_closed_form(self):
        # deformed total occupation of |111> against the closed form at N = 3
        ops = build_fn_multimode(3, 0.5)
        diag = spectrum_of_number_operator(ops)
        full = ops.basis_labels.index((1, 1, 1))
        assert diag[full] == pytest.approx(0.75, abs=1e-14)
        assert diag[full] == pytest.approx(fn_spectrum(3, 0.5), abs=1e-14)

    @pytest.mark.parametrize("model,q,dim", SINGLE_MODE_CASES)
    def test_single_mode_agreement(self, model, q, dim):
        diag = spectrum_of_number_operator(build_single_mode(model, q, dim))
        closed = np.array([basic_number(model, n, q) for n in range(dim)])
        scale = np.maximum(1.0, np.abs(closed))
        assert np.max(np.abs(diag - closed) / scale) <= 1e-13

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 1.0, 1.5])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_fn_agreement(self, d, q):
        ops = build_fn_multimode(d, q)
        diag = spectrum_of_number_operator(ops)
        closed = np.array([fn_spectrum(sum(s), q) for s in ops.basis_labels])
        assert np.max(np.abs(diag - closed)) <= 1e-13


class TestCovariance:
    def test_identity(self):
        assert covariance_check(2, 0.5, np.eye(2)) <= 1e-13

    def test_mode_swap(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert covariance_check(2, 0.5, swap) <= 1e-13

    def test_random_unitary(self):
        assert covariance_check(3, 0.5, haar_unitary(3, seed=7)) <= 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            covariance_check(2, 0.5, np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_rejects_nan_transform(self):
        with pytest.raises(ValueError, match="not unitary"):
            covariance_check(2, 0.5, np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            covariance_check(3, 0.5, np.eye(2))

    def test_haar_unitary_is_unitary(self):
        u = haar_unitary(4, seed=3)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


class TestBuildState:
    def test_ground_state(self):
        ops = build_single_mode(Model.VPJC, 0.5, 5)
        np.testing.assert_array_equal(build_state(ops, 0), [1, 0, 0, 0, 0])

    def test_third_level_normalized(self):
        ops = build_single_mode(Model.VPJC, 0.5, 5)
        vec = build_state(ops, 3)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert vec[3] == pytest.approx(1.0, abs=1e-12)

    def test_vpjc_q1_level2_not_normalizable(self):
        ops = build_single_mode(Model.VPJC, 1.0, 4)
        with pytest.raises(NonNormalizableStateError):
            build_state(ops, 2)

    def test_negative_norm_rejected(self):
        ops = build_single_mode(Model.VPJC, 2.0, 4)
        with pytest.raises(NonNormalizableStateError):
            build_state(ops, 2)

    def test_multimode_rejected(self):
        with pytest.raises(ValueError):
            build_state(build_fn_multimode(2, 0.5), 1)


class TestNormAudit:
    def test_vpjc_q2_flags_exactly_even_levels(self):
        ops = build_single_mode(Model.VPJC, 2.0, 40)
        assert tuple(n for n, _ in ops.norm_violations) == tuple(range(2, 40, 2))
        for n, value in ops.norm_violations:
            assert value < 0.0

    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.9, 0.99])
    def test_vpjc_clean_below_one(self, q):
        assert build_single_mode(Model.VPJC, q, 40).norm_violations == ()

    @pytest.mark.parametrize("q", [0.3, 0.9, 1.0])
    def test_pvc_clean_on_unit_interval(self, q):
        assert build_single_mode(Model.PVC, q, 40).norm_violations == ()

    @pytest.mark.parametrize("q", [0.3, 1.0, 1.5])
    def test_ckn_clean(self, q):
        assert build_single_mode(Model.CKN, q, 2).norm_violations == ()


def test_ckn_rescaling_reaches_undeformed_relations():
    for q in (0.3, 0.5, 0.9, 1.5):
        ops = build_single_mode(Model.CKN, q, 2)
        residuals = ckn_undeformed_residuals(ops)
        assert max(residuals.values()) <= 1e-13, residuals


def test_ckn_rescaling_rejects_other_models():
    with pytest.raises(ValueError):
        ckn_undeformed_residuals(build_single_mode(Model.VPJC, 0.5, 4))


def test_fn_mode_count_limits():
    with pytest.raises(ValueError):
        build_fn_multimode(0, 0.5)
    with pytest.raises(ValueError):
        build_fn_multimode(13, 0.5)


def test_fn_basis_labels_are_bit_tuples():
    ops = build_fn_multimode(2, 0.5)
    assert ops.basis_labels == ((0, 0), (0, 1), (1, 0), (1, 1))
    np.testing.assert_array_equal(np.diag(ops.number_op), [0.0, 1.0, 1.0, 2.0])


def _dense_fn_annihilators(d, q):
    """The FN annihilators built state by state, as dense matrices."""
    states = list(itertools.product((0, 1), repeat=d))
    index = {s: k for k, s in enumerate(states)}
    annihilators = []
    for i in range(d):
        c = np.zeros((len(states), len(states)))
        for k, s in enumerate(states):
            if s[i] == 0:
                continue
            sign = -1.0 if sum(s[:i]) % 2 else 1.0
            target = list(s)
            target[i] = 0
            c[index[tuple(target)], k] = sign * q ** ((sum(s) - 1) / 2.0)
        annihilators.append(c)
    return annihilators, np.diag([float(sum(s)) for s in states])


FN_EXACT_QS = [0.3, 0.83, 1.0, 1.4, 2.5]


class TestFnPermutationArrays:
    """The FN set is stored as (target, amplitude) arrays; every result read
    from them must equal the dense evaluation bit for bit."""

    @pytest.mark.parametrize("q", FN_EXACT_QS)
    @pytest.mark.parametrize("d", range(1, 9))
    def test_residuals_equal_dense_evaluation(self, d, q):
        ops = build_fn_multimode(d, q)
        dense = _fn_relation_residuals(
            ops.annihilators, ops.creators, q, np.diag(ops.number_op)
        )
        assert check_algebra(ops).relation_residuals == dense

    @pytest.mark.parametrize("q", FN_EXACT_QS)
    @pytest.mark.parametrize("d", range(1, 7))
    def test_dense_matrices_equal_state_loop(self, d, q):
        ops = build_fn_multimode(d, q)
        annihilators, number_op = _dense_fn_annihilators(d, q)
        assert len(ops.annihilators) == len(ops.creators) == d
        for c, cdag, ref in zip(ops.annihilators, ops.creators, annihilators):
            assert np.array_equal(c, ref)
            assert np.array_equal(cdag, ref.T)
            assert not c.flags.writeable and not cdag.flags.writeable
        assert np.array_equal(ops.number_op, number_op)
        assert not ops.number_op.flags.writeable
        assert ops.annihilators is ops.annihilators  # built once per set

    @pytest.mark.parametrize("q", FN_EXACT_QS)
    @pytest.mark.parametrize("d", range(1, 8))
    def test_spectrum_equals_dense_sum(self, d, q):
        ops = build_fn_multimode(d, q)
        total = np.zeros((ops.dim, ops.dim))
        for c, cdag in zip(ops.annihilators, ops.creators):
            total += cdag @ c
        assert np.array_equal(spectrum_of_number_operator(ops), np.diag(total))

    def test_sum_adds_only_entries_that_share_a_row(self):
        rows_a, vals_a = np.array([1, 0, 3, 2]), np.array([0.5, -2.0, 0.25, 1.0])
        rows_b, vals_b = np.array([1, 2, 3, 0]), np.array([0.75, 1.5, -0.25, 3.0])
        cols = np.arange(4)
        dense = np.zeros((4, 4))
        dense[rows_a, cols] += vals_a
        dense[rows_b, cols] += vals_b
        got = _maxabs_sum((rows_a, vals_a), (rows_b, vals_b))
        assert got == np.max(np.abs(dense)) == 3.0

    @pytest.mark.parametrize("model,q,dim", SINGLE_MODE_CASES)
    def test_single_mode_spectrum_equals_dense_product(self, model, q, dim):
        ops = build_single_mode(model, q, dim)
        dense = np.diag(ops.creator @ ops.annihilator)
        assert np.array_equal(spectrum_of_number_operator(ops), dense)

    @pytest.mark.parametrize("q", [0.5, 1.4])
    def test_twelve_modes_without_dense_matrices(self, q):
        tracemalloc.start()
        try:
            ops = build_fn_multimode(12, q)
            report = check_algebra(ops)
            diag = spectrum_of_number_operator(ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.max_residual <= 1e-12, report.relation_residuals
        assert peak < 64 * 2**20
        assert not {"annihilators", "creators", "number_op"} & set(vars(ops))
        assert diag[-1] == pytest.approx(fn_spectrum(12, q), rel=1e-13)


class TestOverflow:
    def test_fn_amplitude_overflow_names_occupation(self):
        with pytest.raises(ValueError, match="N = 5 overflows"):
            build_fn_multimode(9, 1e200)

    def test_single_mode_spectrum_overflow_names_level(self):
        with pytest.raises(ValueError, match="level 590 overflows"):
            build_single_mode(Model.PVC, 0.3, 700)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("d,q", [(3, 1e150), (5, 1e100)])
    def test_overflowed_relation_never_passes(self, d, q):
        ops = build_fn_multimode(d, q)
        report = check_algebra(ops)
        assert report.max_residual == math.inf, report.relation_residuals
        dense = _fn_relation_residuals(
            ops.annihilators, ops.creators, q, np.diag(ops.number_op)
        )
        assert dense == report.relation_residuals


def test_fn_amplitude_underflow_names_occupation():
    # q**((N-1)/2) = 1e-400 rounds to 0 at N = 5: the operators would
    # annihilate every state of occupation >= 5 and still pass check_algebra
    with pytest.raises(ValueError, match="N = 5 underflows to 0"):
        build_fn_multimode(5, 1e-200)
    build_fn_multimode(4, 1e-200)  # N <= 4 amplitudes are still normal doubles
