"""Finite matrix representations of the deformed oscillator algebras.

Single-mode families (VPJC, PVC, CKN) are represented on a truncated ladder
basis |0>, ..., |dim-1> with

    c |n> = sqrt(g_n) |n-1>,      c* |n> = sqrt(g_{n+1}) |n+1>,

where g is the model's closed-form spectrum.  Whenever some g_n is negative
(VPJC with q > 1) the transition amplitude is set to zero and the level is
recorded as a norm violation, so the pathology stays observable as data and
the matrices stay real.

The multimode FN family lives on the full 2**d occupation basis.  No unique
construction is forced by the defining relations, so this module picks the
minimal one: annihilating mode i of a state with total occupation N carries
the fermionic sign (-1)**(number of occupied modes before i) and the
amplitude q**((N-1)/2); creation is the transpose, i.e. it carries
q**(N/2) onto a state of occupation N.  The convention is not claimed to be
canonical -- `check_algebra` audits every defining relation against it.

Storage: every annihilator sends each basis state to at most one basis
state, so it is kept as two index-aligned arrays, the target basis index
of each state and the amplitude (0 where the state is annihilated).  For
FN the targets are bit flips of the state index.  Products of such
operators stay in this form, so `check_algebra` evaluates the FN relations
in O(d**2 2**d) time and memory; the dense matrices `annihilators`,
`creators` and `number_op` are scattered from the arrays only when read,
once per set.

Truncation policy: on a truncated single-mode ladder the relation involving
c c* cannot hold on the top state, so that relation is evaluated only on
input states n <= dim - 2 and the evaluated boundary is reported.  The CKN
ladder (dim = 2) is exact because its level-2 spectrum value vanishes, and
the multimode FN representation is exact as built.

CKN rescaling: the weighted operator f = q**(N/2) c (weight applied after
annihilation) satisfies the undeformed relations f f* + f* f = 1 and
f**2 = 0 on the two-state space, which exhibits the isomorphism between the
q-deformed two-level algebra and an ordinary fermion mode.

Overflow: a builder whose spectrum or amplitude overflows a double raises
ValueError naming the level, and a relation residual that is not finite is
reported as infinite, so it never passes a bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .models import Model, NonNormalizableStateError, require_positive_q
from .spectra import basic_number

_SINGLE_MODE = (Model.VPJC, Model.PVC, Model.CKN)

# 2**12 basis states: the relation check works on (d, 2**d) index and
# amplitude arrays; only the on-demand dense matrices grow as d 4**d
MAX_FN_MODES = 12


@dataclass(frozen=True)
class OperatorSet:
    """Ladder operators of one representation.

    Annihilator i maps basis state k to `amplitudes[i, k]` times basis state
    `targets[i, k]`; where the amplitude is 0 the target is immaterial.
    `occupation` is the (total) occupation of each basis state, not the
    deformed one.  The dense read-only matrices are built on first access:
    `annihilators` holds one matrix per mode (a single entry for the
    one-mode families), `creators` are their exact transposes and
    `number_op` is the diagonal occupation counter.
    """

    model: Model
    q: float
    dim: int
    targets: np.ndarray
    amplitudes: np.ndarray
    occupation: np.ndarray
    basis_labels: tuple
    norm_violations: tuple = ()

    @property
    def n_modes(self) -> int:
        return len(self.targets)

    @cached_property
    def annihilators(self) -> tuple:
        return self._scatter(self.targets, np.arange(self.dim))

    @cached_property
    def creators(self) -> tuple:
        return self._scatter(np.arange(self.dim), self.targets)

    @cached_property
    def number_op(self) -> np.ndarray:
        return _freeze(np.diag(self.occupation))

    def _scatter(self, rows, cols) -> tuple:
        dense = np.zeros((self.n_modes, self.dim, self.dim))
        dense[np.arange(self.n_modes)[:, None], rows, cols] = self.amplitudes
        return tuple(_freeze(dense))

    @property
    def annihilator(self) -> np.ndarray:
        if self.n_modes != 1:
            raise ValueError("annihilator is only defined for single-mode sets")
        return self.annihilators[0]

    @property
    def creator(self) -> np.ndarray:
        if self.n_modes != 1:
            raise ValueError("creator is only defined for single-mode sets")
        return self.creators[0]


@dataclass(frozen=True)
class AlgebraReport:
    """Max-norm residuals of the defining relations plus the norm audit."""

    relation_residuals: dict
    norm_violations: tuple
    truncation_boundary: int

    @property
    def max_residual(self) -> float:
        return max(self.relation_residuals.values())


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _maxabs(m: np.ndarray) -> float:
    """Largest |entry|; a NaN entry counts as infinite, so it fails every bound."""
    if not m.size:
        return 0.0
    worst = float(np.max(np.abs(m)))
    return math.inf if math.isnan(worst) else worst


def _finite_levels(value, count: int, what: str) -> list:
    """[value(0), ..., value(count - 1)]; ValueError at the first level that
    overflows a double (Python floats raise OverflowError or give inf)."""
    levels = []
    for n in range(count):
        try:
            level = value(n)
        except OverflowError:
            level = math.inf
        if not math.isfinite(level):
            raise ValueError(what.format(n=n) + " overflows a double")
        levels.append(level)
    return levels


def build_single_mode(model: Model, q: float, dim: int) -> OperatorSet:
    """Truncated ladder representation for the VPJC, PVC or CKN family."""
    if model not in _SINGLE_MODE:
        raise ValueError(f"single-mode construction applies to {_SINGLE_MODE}")
    require_positive_q(q)
    if dim != int(dim) or dim < 2:
        raise ValueError(f"dim must be an integer >= 2, got {dim!r}")
    dim = int(dim)
    if model is Model.CKN and dim != 2:
        raise ValueError("the CKN Fock space has exactly two states (dim = 2)")

    g = _finite_levels(
        lambda n: basic_number(model, n, q), dim,
        f"{model.value} spectrum at q = {q}: level {{n}}",
    )
    violations = tuple((n, g[n]) for n in range(dim) if g[n] < 0.0)
    amplitudes = [0.0] + [math.sqrt(gn) if gn >= 0.0 else 0.0 for gn in g[1:]]
    levels = np.arange(dim)
    return OperatorSet(
        model=model,
        q=float(q),
        dim=dim,
        targets=_freeze(np.maximum(levels - 1, 0)[None, :]),
        amplitudes=_freeze(np.array([amplitudes])),
        occupation=_freeze(levels.astype(float)),
        basis_labels=tuple(range(dim)),
        norm_violations=violations,
    )


def build_fn_multimode(d: int, q: float) -> OperatorSet:
    """FN representation on the 2**d occupation basis |n_1 ... n_d>, n_i in {0,1}.

    Basis state k carries n_i in bit d - 1 - i of k, so the states run in
    the order of `itertools.product((0, 1), repeat=d)`.
    """
    require_positive_q(q)
    if d != int(d) or not 1 <= d <= MAX_FN_MODES:
        raise ValueError(f"mode count must lie in 1..{MAX_FN_MODES}, got {d!r}")
    d = int(d)
    # Python's pow, not numpy's: the two differ in the last bit for some q
    amplitude_of = np.array(_finite_levels(
        lambda n: q ** ((n - 1) / 2.0), d + 1,
        f"FN amplitude q**((N-1)/2) at q = {q}: total occupation N = {{n}}",
    ))
    states = np.arange(2**d)
    bits = np.arange(d - 1, -1, -1)[:, None]
    occupied = (states >> bits) & 1
    total = occupied.sum(axis=0)
    sign = 1.0 - 2.0 * ((np.cumsum(occupied, axis=0) - occupied) & 1)
    return OperatorSet(
        model=Model.FN,
        q=float(q),
        dim=2**d,
        targets=_freeze(states ^ (1 << bits)),
        amplitudes=_freeze(np.where(occupied == 1, sign * amplitude_of[total], 0.0)),
        occupation=_freeze(total.astype(float)),
        basis_labels=tuple(itertools.product((0, 1), repeat=d)),
        norm_violations=(),
    )


def spectrum_of_number_operator(ops: OperatorSet) -> np.ndarray:
    """Diagonal of c*c (single mode) or of the summed c_i* c_i (multimode).

    (c_i* c_i)_kk is the square of the amplitude of c_i on state k; the sum
    runs in mode order, as the dense sum of the products would.
    """
    total = np.zeros(ops.dim)
    for amplitude in ops.amplitudes:
        total += amplitude * amplitude
    return total


def _scaled(residual: float, *terms) -> float:
    """Residual divided by the largest term magnitude entering the relation,
    floored at 1.  Order-unity spectra keep absolute semantics; the growing
    PVC/CKN spectra (entries up to q**-(dim-1)) are judged at their own scale.
    An overflowed term makes the residual infinite, never 0."""
    scale = max(1.0, *(_maxabs(t) for t in terms))
    return residual / scale if math.isfinite(scale) else math.inf


def check_algebra(ops: OperatorSet) -> AlgebraReport:
    """Evaluate every defining relation of the model as a max-norm residual.

    Residuals are scale-normalized via `_scaled`.  Single-mode relations
    involving c c* are evaluated only on input states below the truncation
    boundary (except CKN, whose two states close exactly); the commutation
    relations with the number operator hold on the full space.
    """
    if ops.model is Model.FN:
        residuals = _fn_monomial_residuals(ops)
        return AlgebraReport(residuals, ops.norm_violations, ops.dim - 1)

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
    else:  # CKN: exact on its two states because the level-2 value vanishes
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
    return AlgebraReport(residuals, ops.norm_violations, cols - 1)


def _compose(a, b):
    """Product a @ b of operators given as (targets, amplitudes) pairs."""
    rows_a, vals_a = a
    rows_b, vals_b = b
    return rows_a[rows_b], vals_a[rows_b] * vals_b


def _maxabs_sum(*terms) -> float:
    """Max |entry| of a sum of (targets, amplitudes) operators.

    In each column the terms that share a target row are added in term
    order, as the dense sum adds them (adding 0 is exact); a term whose row
    no other term shares is an entry of its own.
    """
    worst = 0.0
    for rows, _ in terms:
        entry = sum(np.where(other == rows, vals, 0.0) for other, vals in terms)
        worst = max(worst, _maxabs(entry))
    return worst


def _fn_monomial_residuals(ops: OperatorSet) -> dict:
    """`_fn_relation_residuals` on the (targets, amplitudes) arrays of `ops`.

    Every product, sum and scale is the one the dense evaluation makes, and
    each dense matrix entry it reads is a single rounded product, so the
    residuals are the same floats, in O(d**2 2**d) operations.
    """
    q = ops.q
    number = ops.occupation
    q_pow = q**number
    cs = list(zip(ops.targets, ops.amplitudes))
    # each target map is a bit flip, an involution, so c_i* = (t, a[t])
    cdags = [(rows, vals[rows]) for rows, vals in cs]
    minus_q_pow = (np.arange(ops.dim), -q_pow)
    worst_cross = 0.0
    worst_pair = 0.0
    for i, ci in enumerate(cs):
        for j, (cj, cdj) in enumerate(zip(cs, cdags)):
            lower = _compose(ci, cdj)
            rows, vals = _compose(cdj, ci)
            upper = (rows, q * vals)
            terms = (lower, upper, minus_q_pow) if i == j else (lower, upper)
            worst_cross = max(
                worst_cross, _scaled(_maxabs_sum(*terms), lower[1], upper[1], q_pow)
            )
            pair = _compose(ci, cj)
            worst_pair = max(
                worst_pair, _scaled(_maxabs_sum(pair, _compose(cj, ci)), pair[1])
            )
    worst_shift = 0.0
    for rows, vals in cs:
        right = vals * number
        left = -((number[rows] + 1.0) * vals)
        worst_shift = max(
            worst_shift, _scaled(_maxabs_sum((rows, right), (rows, left)), right, vals)
        )
    return {
        "deformed_anticommutation": worst_cross,
        "double_annihilation": worst_pair,
        "number_shift": worst_shift,
    }


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


def covariance_check(d: int, q: float, transform, unitary_tol: float = 1e-12) -> float:
    """Residual of the FN relations after the mode mixing c'_i = sum_j T_ij c_j.

    `transform` must be a d x d unitary matrix (complex entries allowed here
    and only here); non-unitary input is rejected.
    """
    T = np.asarray(transform, dtype=complex)
    if T.shape != (d, d):
        raise ValueError(f"transform must be {d} x {d}, got shape {T.shape}")
    if _maxabs(T @ T.conj().T - np.eye(d)) > unitary_tol:
        raise ValueError("transform is not unitary within tolerance")

    ops = build_fn_multimode(d, q)
    mixed = [
        sum(T[i, j] * ops.annihilators[j].astype(complex) for j in range(d))
        for i in range(d)
    ]
    mixed_dag = [m.conj().T for m in mixed]
    residuals = _fn_relation_residuals(mixed, mixed_dag, q, np.diag(ops.number_op))
    return max(residuals.values())


def haar_unitary(dim: int, seed: int = 0) -> np.ndarray:
    """Haar-distributed random unitary (QR of a complex Gaussian, phase-fixed)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    qmat, rmat = np.linalg.qr(a)
    phases = np.diag(rmat).copy()
    phases /= np.abs(phases)
    return qmat @ np.diag(phases)


def build_state(ops: OperatorSet, n: int) -> np.ndarray:
    """Normalized ladder state (c*)**n |0> / sqrt([n]!) on a single-mode set.

    Raises NonNormalizableStateError when the squared norm [n]! is zero or
    negative (e.g. VPJC at q = 1 for n >= 2, where the ladder terminates).
    """
    if ops.n_modes != 1:
        raise ValueError("build_state applies to single-mode representations")
    if n != int(n) or not 0 <= n < ops.dim:
        raise ValueError(f"level must lie in 0..{ops.dim - 1}, got {n!r}")
    n = int(n)
    norm_sq = 1.0
    for k in range(1, n + 1):
        norm_sq *= basic_number(ops.model, k, ops.q)
    if norm_sq <= 0.0:
        raise NonNormalizableStateError(
            f"state {n} has squared norm [n]! = {norm_sq}; not normalizable"
        )
    vec = np.zeros(ops.dim)
    vec[0] = 1.0
    for _ in range(n):
        vec = ops.creator @ vec
    vec = vec / math.sqrt(norm_sq)
    expected = np.zeros(ops.dim)
    expected[n] = 1.0
    if _maxabs(vec - expected) > 1e-12:
        raise RuntimeError("ladder construction deviated from the basis vector")
    return vec


def ckn_undeformed_residuals(ops: OperatorSet) -> dict:
    """Residuals of the plain fermion relations for the rescaled f = q**(N/2) c."""
    if ops.model is not Model.CKN:
        raise ValueError("the rescaling map is defined for the CKN family")
    weight = np.diag(ops.q ** (np.arange(ops.dim) / 2.0))
    f = weight @ ops.annihilator
    fdag = f.T
    return {
        "anticommutator": _maxabs(f @ fdag + fdag @ f - np.eye(ops.dim)),
        "c_squared": _maxabs(f @ f),
        "cdag_squared": _maxabs(fdag @ fdag),
    }
