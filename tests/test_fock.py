"""Matrix representations: construction, relation residuals, audits."""

import dataclasses
import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
    basic_factorial,
    basic_number,
    spectrum,
    spectrum_of_number_operator,
    virial_coefficients,
    vpjc_recurrence_residual,
)
from qfermi.fock import _fn_amplitude_table, _fn_layout, _maxabs, _mixed_peaks

TRANSFORMS = st.sampled_from(["haar", "permutation", "identity", "phase"])


def _transform(kind: str, d: int, seed: int) -> np.ndarray:
    """A d x d unitary of the given kind, drawn from `seed`."""
    if kind == "identity":
        return np.eye(d)
    if kind == "haar":
        return haar_unitary(d, seed=seed)
    rng = np.random.default_rng(seed)
    if kind == "permutation":
        return np.eye(d)[rng.permutation(d)]
    return np.diag(np.exp(1j * rng.uniform(-math.pi, math.pi, d)))


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


# Dense references: the relation checks as products of the dense matrices the
# operator sets expose.  The package evaluates them on (target, amplitude)
# arrays and is compared against these.


def _scaled(residual: float, *terms) -> float:
    """The residual scale rule on whole matrices: divided by the largest term
    magnitude, floored at 1, and infinite when a term overflows."""
    scale = max(1.0, *(_maxabs(t) for t in terms))
    return residual / scale if math.isfinite(scale) else math.inf


def _fn_relation_residuals(cs, cdags, q, number_diag) -> dict:
    """FN relation residuals of dense mode operators `cs` with adjoints `cdags`."""
    dim = cs[0].shape[0]
    q_pow = np.diag(q**number_diag)
    n_op = np.diag(number_diag)
    shifted = n_op + np.eye(dim)
    worst_cross = 0.0
    worst_pair = 0.0
    for i, ci in enumerate(cs):
        for j, cdj in enumerate(cdags):
            lower = ci @ cdj
            upper = q * (cdj @ ci)
            rel = lower + upper
            if i == j:
                rel = rel - q_pow
            worst_cross = max(worst_cross, _scaled(_maxabs(rel), lower, upper, q_pow))
            cj = cs[j]
            pair = ci @ cj
            worst_pair = max(worst_pair, _scaled(_maxabs(pair + cj @ ci), pair))
    worst_shift = 0.0
    for cj in cs:
        right = cj @ n_op
        worst_shift = max(
            worst_shift, _scaled(_maxabs(right - shifted @ cj), right, cj)
        )
    return {
        "deformed_anticommutation": worst_cross,
        "double_annihilation": worst_pair,
        "number_shift": worst_shift,
    }


# Array references: the checks on whole arrays, every mode pair and every
# column, rounded as the package rounds, so the package equals them bit for
# bit.  `_array_scaled` is the package's scale rule on such arrays.


def _peak(m: np.ndarray) -> np.ndarray:
    """Largest |entry| over the last axis, kept as a length-1 axis (NaN propagates)."""
    return np.abs(m).max(axis=-1, keepdims=True)


def _array_scaled(residual: np.ndarray, *terms) -> float:
    """Worst residual peak over the leading indices, each divided by the
    largest peak of its own terms, floored at 1; infinite where a term is
    not finite or a peak is NaN."""
    scale = functools.reduce(np.maximum, map(_peak, terms), 1.0)
    return _maxabs(np.where(np.isfinite(scale), _peak(residual) / scale, math.inf))


def _fn_monomials(ops) -> tuple:
    """c_i c_j*, q c_j* c_i and c_i c_j of an FN set as (d, d, 2**d) arrays.

    Entry [i, j, s] is the one amplitude the monomial gives basis state s,
    on row s ^ e_i ^ e_j for all three, so entries of one column add on one
    row.  Each is the dense product's float: one product of two amplitudes,
    then q, as `q * (c_j* @ c_i)` rounds it.
    """
    amps, flips = ops.amplitudes, ops.targets
    up = np.take_along_axis(amps, flips, axis=1)  # c_j* |s> = up[j, s] |s ^ e_j>
    flipped = amps[:, flips]  # [i, j, s]: amplitude of c_i on s ^ e_j
    upper = ops.q * (up[:, flips].transpose(1, 0, 2) * amps[:, None, :])
    return flipped * up, upper, flipped * amps


@np.errstate(all="ignore")
def _table_residuals(ops) -> dict:
    """FN `check_algebra` on the full monomial table."""
    lower, upper, pair = _fn_monomials(ops)
    modes = np.arange(ops.n_modes)
    q_pow = ops.q**ops.occupation
    cross = lower + upper
    cross[modes, modes] -= q_pow
    right = ops.amplitudes * ops.occupation
    shift = right - (ops.occupation[ops.targets] + 1.0) * ops.amplitudes
    return {
        "deformed_anticommutation": _array_scaled(cross, lower, upper, q_pow),
        "double_annihilation": _array_scaled(pair + pair.transpose(1, 0, 2), pair),
        "number_shift": _array_scaled(shift, right, ops.amplitudes),
    }


@np.errstate(all="ignore")
def _ladder_residuals(ops) -> dict:
    """Single-mode `check_algebra`, one array per relation and its terms."""
    levels = ops.occupation
    lowered = ops.targets[0]
    down = ops.amplitudes[0]  # c |n> = down[n] |n-1>
    up = np.append(down[1:], 0.0)  # c* |n> = up[n] |n+1>, 0 on the top state
    lower = up * up
    rhs = np.ones(ops.dim) if ops.model is Model.VPJC else ops.q**-levels
    coeff = 1.0 / ops.q if ops.model is Model.CKN else ops.q
    cols = ops.dim if ops.model is Model.CKN else ops.dim - 1
    raise_term = coeff * (down * down)
    n_c = levels[lowered] * down
    n_cdag = (levels + 1.0) * up
    residuals = {
        "deformed_anticommutation": _array_scaled(
            (lower + raise_term - rhs)[:cols], lower, raise_term, rhs
        ),
        "number_shift_c": _array_scaled(n_c - down * levels + down, n_c, down),
        "number_shift_cdag": _array_scaled(n_cdag - up * levels - up, n_cdag, up),
    }
    if ops.model is Model.CKN:
        residuals["c_squared"] = _maxabs(down[lowered] * down)
        residuals["cdag_squared"] = _maxabs(up[1:] * up[:-1])
    return residuals


def _dense_covariance(d, q, transform) -> float:
    """`covariance_check` by dense products of the mixed complex matrices."""
    ops = build_fn_multimode(d, q)
    mixed = [
        sum(transform[i, j] * ops.annihilators[j].astype(complex) for j in range(d))
        for i in range(d)
    ]
    mixed_dag = [m.conj().T for m in mixed]
    residuals = _fn_relation_residuals(mixed, mixed_dag, q, np.diag(ops.number_op))
    return max(residuals.values())


@np.errstate(all="ignore")
def _pairwise_peaks(ops, T) -> tuple:
    """The peaks of `_mixed_peaks` on the full monomial table, as (d, d, 1)
    arrays: one mode pair (k, l) at a time over all 2**d columns, and the
    diagonal terms by the package's matrix product."""
    d, q = ops.n_modes, ops.q
    q_pow = q**ops.occupation
    lower, upper, pair = _fn_monomials(ops)
    tc = T.conj()
    modes = np.arange(d)
    weights = (T[:, None] * tc[None]).reshape(d * d, d)
    lower_diag = (weights @ lower[modes, modes]).reshape(d, d, -1)
    upper_diag = (weights @ upper[modes, modes]).reshape(d, d, -1)
    diag = lower_diag + upper_diag
    diag[modes, modes] -= q_pow
    cross = _peak(diag)
    cross_terms = np.maximum(_peak(lower_diag), _peak(upper_diag))
    pair_res = pair_terms = np.zeros((d, d, 1))
    for k, l in zip(*np.triu_indices(d, 1)):
        kl = np.outer(T[:, k], tc[:, l])[:, :, None]
        lk = np.outer(T[:, l], tc[:, k])[:, :, None]
        lo = kl * lower[k, l] + lk * lower[l, k]
        hi = kl * upper[k, l] + lk * upper[l, k]
        cross = np.maximum(cross, _peak(lo + hi))
        cross_terms = np.maximum(cross_terms, np.maximum(_peak(lo), _peak(hi)))
        kl = np.outer(T[:, k], T[:, l])[:, :, None]
        pr = kl * pair[k, l] + kl.transpose(1, 0, 2) * pair[l, k]
        pair_res = np.maximum(pair_res, _peak(pr + pr.transpose(1, 0, 2)))
        pair_terms = np.maximum(pair_terms, _peak(pr))
    return cross, cross_terms, pair_res, pair_terms


@np.errstate(all="ignore")
def _pairwise_covariance(d, q, transform) -> float:
    """`covariance_check` on the full monomial table (`_pairwise_peaks`)."""
    T = np.asarray(transform, dtype=complex)
    ops = build_fn_multimode(d, q)
    amps, flips, number = ops.amplitudes, ops.targets, ops.occupation
    q_pow = q**number
    cross, cross_terms, pair_res, pair_terms = _pairwise_peaks(ops, T)
    mixed = T[:, :, None] * amps
    right = (mixed * number).reshape(d, -1)
    shift = right - ((number[flips] + 1.0) * mixed).reshape(d, -1)
    return max(
        _array_scaled(cross, cross_terms, q_pow),
        _array_scaled(pair_res, pair_terms),
        _array_scaled(shift, right, mixed.reshape(d, -1)),
    )


def _dense_single_mode_residuals(ops) -> dict:
    """Single-mode `check_algebra` residuals by dense matrix products."""
    c = ops.annihilator
    cdag = ops.creator
    q = ops.q
    dim = ops.dim
    n_op = ops.number_op
    eye = np.eye(dim)
    levels = np.arange(dim, dtype=float)

    lower = c @ cdag
    raise_term = cdag @ c
    if ops.model is Model.VPJC:
        rhs = eye
        coeff = q
        cols = dim - 1
    elif ops.model is Model.PVC:
        rhs = np.diag(q**-levels)
        coeff = q
        cols = dim - 1
    else:
        rhs = np.diag(q**-levels)
        coeff = 1.0 / q
        cols = dim
    defining = lower + coeff * raise_term - rhs

    residuals = {
        "deformed_anticommutation": _scaled(
            _maxabs(defining[:, :cols]), lower, coeff * raise_term, rhs
        ),
        "number_shift_c": _scaled(_maxabs(n_op @ c - c @ n_op + c), n_op @ c, c),
        "number_shift_cdag": _scaled(
            _maxabs(n_op @ cdag - cdag @ n_op - cdag), n_op @ cdag, cdag
        ),
    }
    if ops.model is Model.CKN:
        residuals["c_squared"] = _maxabs(c @ c)
        residuals["cdag_squared"] = _maxabs(cdag @ cdag)
    return residuals


def _dense_ckn_undeformed_residuals(ops) -> dict:
    weight = np.diag(ops.q ** (np.arange(ops.dim) / 2.0))
    f = weight @ ops.annihilator
    fdag = f.T
    return {
        "anticommutator": _maxabs(f @ fdag + fdag @ f - np.eye(ops.dim)),
        "c_squared": _maxabs(f @ f),
        "cdag_squared": _maxabs(fdag @ fdag),
    }


def _dense_ladder_state(ops, n) -> np.ndarray:
    """(c*)**n |0> / sqrt([n]!) by n dense matrix-vector products."""
    vec = np.zeros(ops.dim)
    vec[0] = 1.0
    for _ in range(n):
        vec = ops.creator @ vec
    return vec / math.sqrt(float(spectrum(ops.model, ops.q, n).factorials[n]))


def _assert_same_where_finite(got: dict, dense: dict):
    """Equal floats where the dense residual is finite, inf where it is not."""
    assert got.keys() == dense.keys()
    for name, value in dense.items():
        assert got[name] == (value if math.isfinite(value) else math.inf), name


def _assert_matches_dense(ops, levels):
    """Residuals, and the states at `levels`, against the dense evaluation."""
    _assert_same_where_finite(
        check_algebra(ops).relation_residuals, _dense_single_mode_residuals(ops)
    )
    if ops.model is Model.CKN:
        _assert_same_where_finite(
            ckn_undeformed_residuals(ops), _dense_ckn_undeformed_residuals(ops)
        )
    for n in levels:
        _assert_state_matches_dense(ops, n)


def _assert_state_matches_dense(ops, n):
    norm_sq = float(spectrum(ops.model, ops.q, n).factorials[n])
    if norm_sq <= 0.0:
        with pytest.raises(NonNormalizableStateError):
            build_state(ops, n)
    elif not math.isfinite(norm_sq):
        with pytest.raises(ValueError, match=rf"factorial \[{n}\]! .* overflows a double"):
            build_state(ops, n)
    elif ops.norm_violations and ops.norm_violations[0][0] <= n:
        # the dense ladder is 0 past a zeroed negative level
        assert not _dense_ladder_state(ops, n).any()
        level = ops.norm_violations[0][0]
        with pytest.raises(NonNormalizableStateError, match=f"past level {level},"):
            build_state(ops, n)
    else:
        dense = _dense_ladder_state(ops, n)
        expected = np.zeros(ops.dim)
        expected[n] = 1.0
        if _maxabs(dense - expected) > 1e-12:
            with pytest.raises(ValueError, match=rf"state {n} .* not resolved in double"):
                build_state(ops, n)
        else:
            assert np.array_equal(build_state(ops, n), dense)


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

    @pytest.mark.parametrize(
        "ops",
        [build_single_mode(Model.PVC, 0.5, 40), build_fn_multimode(4, 0.83)],
        ids=["pvc", "fn"],
    )
    def test_creators_are_read_only_views(self, ops):
        for c, cdag in zip(ops.annihilators, ops.creators, strict=True):
            assert np.shares_memory(cdag, c)
            assert not cdag.flags.writeable
            with pytest.raises(ValueError):
                cdag[1, 0] = 2.0


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

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 7), q=st.floats(0.3, 2.5), kind=TRANSFORMS, seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_reference(self, d, q, kind, seed):
        # mixing the monomials instead of the matrices rounds differently, so
        # the two agree to rounding, not bit for bit.  For i = j the dense
        # c'_i c'_i is rounding noise on a vanishing product, so its scale
        # floors at 1 and it reads an absolute error of a few ulps of the
        # largest amplitude product, about q**(d - 1)
        transform = _transform(kind, d, seed)
        got = covariance_check(d, q, transform)
        dense = _dense_covariance(d, q, transform)
        assert got <= 1e-10 and dense <= 1e-10
        assert abs(got - dense) <= 1e-14 * max(1.0, q ** (d - 1))

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 9),
        log_q=st.floats(-350.0, 350.0),
        kind=TRANSFORMS,
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=5, log_q=math.log(1e100), kind="haar", seed=5)  # infinite residuals
    @example(d=9, log_q=709.0 / 4, kind="haar", seed=1)  # A[9] = e**709: A A overflows
    @example(d=9, log_q=-744.0 / 4, kind="permutation", seed=1)  # A[9] subnormal
    def test_matches_pairwise_reference(self, d, log_q, kind, seed):
        # the pairs on one column per class give the per-pair peaks over all
        # columns exactly, and the diagonal is the same matrix product.  The
        # residual is rarely set by the pair terms, so every peak of every
        # (i, j) is compared too
        q = math.exp(log_q)
        try:
            ops = build_fn_multimode(d, q)
        except ValueError:  # an amplitude overflows or underflows
            assume(False)
        transform = _transform(kind, d, seed)
        assert covariance_check(d, q, transform) == _pairwise_covariance(d, q, transform)
        T = transform.astype(complex)
        with np.errstate(all="ignore"):
            peaks = _mixed_peaks(T, ops, _fn_layout(d), q**ops.occupation)
            expected = _pairwise_peaks(ops, T)
        for got, want in zip(peaks, expected, strict=True):
            assert np.array_equal(got, want.ravel(), equal_nan=True)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize(
        "d,q", [(d, q) for d in range(1, 13) for q in (0.83, 1.4)]
        + [(d, 1e150) for d in range(1, 6)]
    )
    def test_pair_entries_depend_only_on_the_class(self, d, q):
        # the six entries [k, l, s] and [l, k, s] of a pair k < l are, up to
        # one sign they share, the (0, 1) and (1, 0) entries on the layout's
        # column of the class (N, occ_k, occ_l) of s, and every |c_k| is
        # |c_0| on the column of (N, occ_0 = occ_k): the covariance reads only
        # those columns
        ops, layout = build_fn_multimode(d, q), _fn_layout(d)
        tables = _fn_monomials(ops)
        entries = lambda i, j: np.stack([m[a, b] for m in tables for a, b in ((i, j), (j, i))])
        key = lambda i, j: (layout.total * 2 + layout.occupied[i]) * 2 + layout.occupied[j]
        column_of = np.full(4 * (d + 1), -1)
        column_of[key(0, min(1, d - 1))[layout.columns]] = layout.columns
        for k, l in zip(*np.triu_indices(d, 1)):
            six = entries(k, l)
            rep = entries(0, 1)[:, column_of[key(k, l)]]
            same, flipped = (six == rep).all(axis=0), (six == -rep).all(axis=0)
            assert (same | flipped).all()
        magnitudes = np.unique(np.abs(ops.amplitudes[0, layout.columns]))
        assert np.array_equal(magnitudes, np.unique(np.abs(ops.amplitudes)))

    def test_twelve_modes(self):
        # the per-pair loop over all 4096 columns took seconds here, and the
        # (12, 12, 4096) monomial table traced 67.7 MB
        transform = haar_unitary(12, seed=2)
        tracemalloc.start()
        try:
            residual = covariance_check(12, 0.83, transform)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residual <= 1e-10
        assert peak < 40 * 2**20

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_overflow_never_passes(self):
        transform = haar_unitary(3, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the package overflows silently
            assert covariance_check(3, 1e150, transform) == math.inf
        assert _dense_covariance(3, 1e150, transform) == math.inf

    def test_ten_modes_without_dense_matrices(self):
        # one dense complex 1024 x 1024 matrix alone is 16.8 MB
        transform = haar_unitary(10, seed=2)
        tracemalloc.start()
        try:
            residual = covariance_check(10, 0.83, transform)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residual <= 1e-10
        assert peak < 32 * 2**20


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
        # g_2 = 0 ends the ladder: [n]! = 0 for every n >= 2
        ops = build_single_mode(Model.VPJC, 1.0, 8)
        for n in (2, 3, 7):
            with pytest.raises(NonNormalizableStateError, match=rf"state {n} has squared norm"):
                build_state(ops, n)

    @pytest.mark.parametrize("n", [44, 46, 59])
    def test_underflowed_positive_factorial_is_unresolved(self, n):
        # every level of this ladder is positive; [44]! is subnormal and
        # [46]! underflows to 0, so only the double-precision norm is lost
        ops = build_single_mode(Model.PVC, 1.0 - 2.0**-53, 60)
        assert (spectrum(Model.PVC, 1.0 - 2.0**-53, n).values[1:] > 0.0).all()
        with pytest.raises(ValueError, match="is not resolved in double precision") as info:
            build_state(ops, n)
        assert type(info.value) is ValueError

    def test_negative_norm_rejected(self):
        ops = build_single_mode(Model.VPJC, 2.0, 4)
        with pytest.raises(NonNormalizableStateError):
            build_state(ops, 2)

    @pytest.mark.parametrize(
        "n,message",
        [
            (2, r"state 2 has squared norm \[n\]! = -1.0;"),
            (3, r"state 3 has squared norm \[n\]! = -3.0;"),
            (4, r"state 4 lies past level 2, whose g = -1.0 < 0 was zeroed"),
            (5, r"state 5 lies past level 2, whose g = -1.0 < 0 was zeroed"),
            (6, r"state 6 has squared norm \[n\]! = -3465.0;"),
            (7, r"state 7 has squared norm \[n\]! = -148995.0;"),
        ],
    )
    def test_positive_norm_past_a_negative_level_rejected(self, n, message):
        # VPJC at q = 2: g_2 = -1 is zeroed, yet [4]! = 15 and [5]! = 165 are > 0
        ops = build_single_mode(Model.VPJC, 2.0, 8)
        with pytest.raises(NonNormalizableStateError, match=message):
            build_state(ops, n)

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
    @pytest.mark.parametrize("d", range(1, 10))
    def test_residuals_equal_dense_evaluation(self, d, q):
        ops = build_fn_multimode(d, q)
        dense = _fn_relation_residuals(
            ops.annihilators, ops.creators, q, np.diag(ops.number_op)
        )
        assert check_algebra(ops).relation_residuals == dense

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 8), log_q=st.floats(-350.0, 350.0))
    @example(d=5, log_q=math.log(1e100))  # infinite residuals
    def test_residuals_equal_dense_evaluation_at_any_q(self, d, log_q):
        q = math.exp(log_q)
        try:
            ops = build_fn_multimode(d, q)
        except ValueError:  # an amplitude overflows or underflows
            assume(False)
        dense = _fn_relation_residuals(
            ops.annihilators, ops.creators, q, np.diag(ops.number_op)
        )
        assert check_algebra(ops).relation_residuals == dense

    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(1, 12), log_q=st.floats(-350.0, 350.0))
    @example(d=12, log_q=709.0 / 5.5)  # A[12] = e**709: its products overflow
    @example(d=12, log_q=-744.0 / 5.5)  # A[12] subnormal: its products underflow
    @example(d=2, log_q=709.0)  # q**2 overflows, the amplitudes do not
    def test_residuals_equal_table_evaluation(self, d, log_q):
        q = math.exp(log_q)
        try:
            ops = build_fn_multimode(d, q)
        except ValueError:  # an amplitude overflows or underflows
            assume(False)
        assert check_algebra(ops).relation_residuals == _table_residuals(ops)

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(1, 10),
        log_q=st.floats(-100.0, 100.0),
        amplitude_of=st.lists(
            st.one_of(st.floats(-1e308, 1e308), st.sampled_from([math.inf, -math.inf])),
            min_size=11,
            max_size=11,
        ),
    )
    def test_any_layout_amplitudes_equal_table_evaluation(self, d, log_q, amplitude_of):
        # any A[N] of either sign, up to infinite, as long as the set keeps the
        # layout's signs and zeros
        amplitudes = _fn_amplitude_table(_fn_layout(d), np.array(amplitude_of[: d + 1]))
        ops = dataclasses.replace(
            build_fn_multimode(d, 0.5), amplitudes=amplitudes, q=math.exp(log_q)
        )
        assert check_algebra(ops).relation_residuals == _table_residuals(ops)

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
        assert ops.targets is build_fn_multimode(d, 0.5).targets  # one flip table per d
        assert not ops.targets.flags.writeable

    @pytest.mark.parametrize("q", FN_EXACT_QS)
    @pytest.mark.parametrize("d", range(1, 8))
    def test_spectrum_equals_dense_sum(self, d, q):
        ops = build_fn_multimode(d, q)
        total = np.zeros((ops.dim, ops.dim))
        for c, cdag in zip(ops.annihilators, ops.creators):
            total += cdag @ c
        assert np.array_equal(spectrum_of_number_operator(ops), np.diag(total))

    @pytest.mark.parametrize("model,q,dim", SINGLE_MODE_CASES)
    def test_single_mode_spectrum_equals_dense_product(self, model, q, dim):
        ops = build_single_mode(model, q, dim)
        dense = np.diag(ops.creator @ ops.annihilator)
        assert np.array_equal(spectrum_of_number_operator(ops), dense)

    def test_twelve_mode_check_stays_small(self):
        # the full (12, 12, 4096) monomial table traced 27.8 MB
        ops = build_fn_multimode(12, 0.83)
        tracemalloc.start()
        try:
            report = check_algebra(ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.max_residual <= 1e-12, report.relation_residuals
        assert peak < 4 * 2**20

    @pytest.mark.parametrize(
        "flip,named", [((2, 7), "mode 2, state 7"), ((0, 4), "mode 1, state 2")]
    )
    def test_a_flipped_amplitude_sign_is_rejected(self, flip, named):
        # the class argument holds only on the FN layout.  A[N] is read from
        # mode 0, so flipping its entry on |100> (N = 1) moves the first
        # departure to the N = 1 state of mode 1, |010>
        ops = build_fn_multimode(3, 0.83)
        flipped = ops.amplitudes.copy()
        flipped[flip] *= -1.0
        with pytest.raises(ValueError, match=f"FN amplitudes at {named} is -?[0-9.]+, not "):
            check_algebra(dataclasses.replace(ops, amplitudes=flipped))

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


class TestSingleModeArrays:
    """Single-mode checks read the (target, amplitude) arrays; every dense
    product they replace has one nonzero term per entry, so the residuals and
    states must equal the dense evaluation bit for bit where it is finite."""

    @pytest.mark.parametrize("model,q,dim", SINGLE_MODE_CASES)
    def test_equal_dense_products(self, model, q, dim):
        _assert_matches_dense(build_single_mode(model, q, dim), range(dim))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from([Model.VPJC, Model.PVC, Model.CKN]),
        q=st.floats(0.1, 3.0),
        dim=st.integers(2, 260),
        level=st.integers(0, 259),
    )
    @example(model=Model.CKN, q=1e-310, dim=2, level=1)  # 1/q overflows
    @example(model=Model.PVC, q=0.912, dim=220, level=150)  # [150]! overflows
    @example(model=Model.VPJC, q=2.0, dim=8, level=4)  # [4]! > 0 past g_2 < 0
    def test_equal_dense_products_everywhere(self, model, q, dim, level):
        ops = build_single_mode(model, q, 2 if model is Model.CKN else dim)
        _assert_matches_dense(ops, [level % ops.dim])

    @settings(max_examples=80, deadline=None)
    @given(
        model=st.sampled_from([Model.VPJC, Model.PVC, Model.CKN]),
        log_q=st.floats(-350.0, 350.0),
        dim=st.integers(2, 260),
    )
    @example(model=Model.PVC, log_q=math.log(0.3), dim=590)  # [589] = 2.8e307
    def test_residuals_equal_array_evaluation(self, model, log_q, dim):
        try:
            ops = build_single_mode(model, math.exp(log_q), 2 if model is Model.CKN else dim)
        except ValueError:  # a level overflows
            assume(False)
        assert check_algebra(ops).relation_residuals == _ladder_residuals(ops)

    @settings(max_examples=80, deadline=None)
    @given(
        model=st.sampled_from([Model.VPJC, Model.PVC, Model.CKN]),
        log_q=st.floats(-50.0, 50.0),
        amplitudes=st.lists(
            st.one_of(
                st.floats(-3.0, 3.0),
                st.sampled_from([0.0, -0.0, 1e154, 1e200, -1e308, math.inf, math.nan]),
            ),
            min_size=2,
            max_size=40,
        ),
    )
    def test_any_amplitudes_equal_array_evaluation(self, model, log_q, amplitudes):
        # the single-mode checks read whatever amplitudes a set carries
        dim = 2 if model is Model.CKN else len(amplitudes)
        ops = dataclasses.replace(
            build_single_mode(model, 0.5, dim),
            amplitudes=np.array([amplitudes[:dim]]),
            q=math.exp(log_q),
        )
        assert check_algebra(ops).relation_residuals == _ladder_residuals(ops)

    def test_long_ladder_without_dense_matrices(self):
        # a dense 20,000-level matrix would take 3.2 GB
        ops = build_single_mode(Model.VPJC, 0.5, 20_000)
        tracemalloc.start()
        try:
            report = check_algebra(ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.max_residual <= 1e-12, report.relation_residuals
        assert peak < 16 * 2**20
        assert not {"annihilators", "creators", "number_op"} & set(vars(ops))


class TestOverflow:
    def test_fn_amplitude_overflow_names_occupation(self):
        with pytest.raises(ValueError, match="N = 5 overflows"):
            build_fn_multimode(9, 1e200)

    def test_single_mode_spectrum_overflow_names_level(self):
        with pytest.raises(ValueError, match="level 590 overflows"):
            build_single_mode(Model.PVC, 0.3, 700)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [150, 210])
    def test_state_factorial_overflow_is_a_typed_error(self, n):
        ops = build_single_mode(Model.PVC, 0.912, 220)
        with pytest.raises(ValueError, match=rf"pvc factorial \[{n}\]! at q = 0.912 overflows"):
            build_state(ops, n)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("d,q", [(3, 1e150), (5, 1e100)])
    def test_overflowed_relation_never_passes(self, d, q):
        ops = build_fn_multimode(d, q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the package overflows silently
            report = check_algebra(ops)
        assert report.max_residual == math.inf, report.relation_residuals
        dense = _fn_relation_residuals(
            ops.annihilators, ops.creators, q, np.diag(ops.number_op)
        )
        assert dense == report.relation_residuals


ANY_Q = st.one_of(
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestFiniteOrTyped:
    """Over the whole double range of q, and for transforms that are not
    finite or not unitary, each result is finite, infinite or a ValueError."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # an infinite level is silent
    @settings(max_examples=150, deadline=None)
    @given(
        model=st.sampled_from([Model.FN, Model.CKN, Model.PVC, Model.VPJC]),
        q=ANY_Q,
        size=st.integers(1, 12),
    )
    def test_checks_and_number_spectra(self, model, q, size):
        try:
            if model is Model.FN:
                ops = build_fn_multimode(size, q)
            else:
                ops = build_single_mode(model, q, 2 if model is Model.CKN else 20 * size)
        except ValueError:
            return
        residuals = list(check_algebra(ops).relation_residuals.values())
        assert all(r >= 0.0 for r in residuals), residuals  # no NaN
        assert (spectrum_of_number_operator(ops) >= 0.0).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's overflow warnings
    @settings(max_examples=200, deadline=None)
    @given(
        model=st.sampled_from(list(Model)),
        q=st.one_of(
            st.floats(min_value=2.0**-1074, max_value=1.8e308),
            st.sampled_from([5e-324, 1.8e308, 1.0, 1 - 2**-53, 1 + 2**-52]),
        ),
        nmax=st.integers(0, 2000),
        level=st.integers(0, 2000),
    )
    @example(model=Model.PVC, q=1 - 2**-53, nmax=44, level=44)  # [44]! is subnormal
    def test_ladder_functions(self, model, q, nmax, level):
        # every result is finite, or the documented inf of an overflowed
        # factorial or number level, or a ValueError (models.py's subclass it)
        def call(func, *args):
            try:
                return func(*args)
            except ValueError:
                return None

        n = level % (nmax + 1)
        table = call(spectrum, model, q, nmax)
        if table is not None:
            assert np.isfinite(table.values).all()
            assert not np.isnan(table.factorials).any()
        scalars = [call(basic_number, model, n, q), call(basic_factorial, model, n, q),
                   call(vpjc_recurrence_residual, nmax, q)]
        assert all(math.isfinite(x) for x in scalars if x is not None), scalars
        if model in (Model.FN, Model.CKN):
            coefficients = call(virial_coefficients, model, q, 2 + nmax % 5)
            assert coefficients is None or np.isfinite(coefficients).all()
        if model is Model.FN:
            ops = call(build_fn_multimode, 1 + nmax % 12, q)
        elif model is Model.CKN:
            ops = call(build_single_mode, model, q, 2)
        else:
            ops = call(build_single_mode, model, q, max(2, nmax + 1))
        if ops is None:
            return
        assert np.isfinite(ops.amplitudes).all()
        number = spectrum_of_number_operator(ops)
        assert (number >= 0.0).all()  # no NaN; an overflowed level is inf
        if ops.n_modes == 1:
            state = call(build_state, ops, n % ops.dim)
            assert state is None or np.isfinite(state).all()

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(1, 6),
        q=ANY_Q,
        kind=st.sampled_from(["unitary", "not finite", "not unitary"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_covariance(self, d, q, kind, seed):
        transform = haar_unitary(d, seed=seed)
        if kind == "not finite":
            transform[seed % d, seed // d % d] = (math.nan, math.inf, -math.inf)[seed % 3]
        elif kind == "not unitary":
            transform = transform * (1.0 + 2.0**-20)
        try:
            residual = covariance_check(d, q, transform)
        except ValueError:
            return
        assert kind == "unitary"
        assert residual >= 0.0  # no NaN


def test_fn_amplitude_underflow_names_occupation():
    # q**((N-1)/2) = 1e-400 rounds to 0 at N = 5: the operators would
    # annihilate every state of occupation >= 5 and still pass check_algebra
    with pytest.raises(ValueError, match="N = 5 underflows to 0"):
        build_fn_multimode(5, 1e-200)
    build_fn_multimode(4, 1e-200)  # N <= 4 amplitudes are still normal doubles
