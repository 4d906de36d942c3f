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
FN the targets are bit flips of the state index; a single-mode ladder has
the one target map n -> n - 1.  Products of such operators stay in this
form, so no check builds a dense matrix.  The FN relations and their
covariance read one table of the monomials c_i c_j*, q c_j* c_i and c_i c_j
as (d, d, 2**d) arrays: O(d**2 2**d) work for all (i, j) at once, and
O(d**4 2**d) to mix it; a single-mode ladder takes O(dim).  The dense
`annihilators` and `number_op` are scattered from the arrays only when
read, once per set; `creators` are transposed views of `annihilators`.

Truncation policy: on a truncated single-mode ladder the relation involving
c c* cannot hold on the top state, so that relation is evaluated only on
input states n <= dim - 2 and the evaluated boundary is reported.  The CKN
ladder (dim = 2) is exact because its level-2 spectrum value vanishes, and
the multimode FN representation is exact as built.

CKN rescaling: the weighted operator f = q**(N/2) c (weight applied after
annihilation) satisfies the undeformed relations f f* + f* f = 1 and
f**2 = 0 on the two-state space, which exhibits the isomorphism between the
q-deformed two-level algebra and an ordinary fermion mode.

Overflow: a builder whose spectrum or amplitude overflows a double, or
whose nonzero FN amplitude underflows to 0, raises ValueError naming the
level; a relation residual that is not finite is reported as infinite,
without a numpy warning, so it never passes a bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .models import Model, NonNormalizableStateError, require_positive_q
from .spectra import basic_number, spectrum

_SINGLE_MODE = (Model.VPJC, Model.PVC, Model.CKN)

# 2**12 basis states: the checks read (d, 2**d) index and amplitude arrays and
# the one (d, d, 2**d) monomial table; only the on-demand dense views grow as d 4**d
MAX_FN_MODES = 12


@dataclass(frozen=True)
class OperatorSet:
    """Ladder operators of one representation.

    Annihilator i maps basis state k to `amplitudes[i, k]` times basis state
    `targets[i, k]`; where the amplitude is 0 the target is immaterial.
    `occupation` is the (total) occupation of each basis state, not the
    deformed one.  The dense read-only views are built on first access and
    no check reads them: `annihilators` holds one matrix per mode (a single
    entry for the one-mode families), `creators` are transposed views of
    them, sharing their memory, and `number_op` is the diagonal occupation
    counter.
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
        dense = np.zeros((self.n_modes, self.dim, self.dim))
        modes = np.arange(self.n_modes)[:, None]
        dense[modes, self.targets, np.arange(self.dim)] = self.amplitudes
        return tuple(_freeze(dense))

    @cached_property
    def creators(self) -> tuple:
        return tuple(a.T for a in self.annihilators)

    @cached_property
    def number_op(self) -> np.ndarray:
        return _freeze(np.diag(self.occupation))

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


def _peak(m: np.ndarray) -> np.ndarray:
    """Largest |entry| over the last axis, kept as a length-1 axis (NaN propagates)."""
    return np.abs(m).max(axis=-1, keepdims=True)


def _fn_amplitudes(q: float, d: int) -> np.ndarray:
    """q**((N-1)/2) for N = 0..d with Python's pow, not numpy's (the two
    differ in the last bit for some q); ValueError naming the first N whose
    amplitude overflows a double or, nonzero, underflows to 0."""
    amplitudes = []
    for n in range(d + 1):
        try:
            amplitude = q ** ((n - 1) / 2.0)
        except OverflowError:
            amplitude = math.inf
        if not 0.0 < amplitude < math.inf:
            fault = "underflows to 0" if amplitude == 0.0 else "overflows a double"
            raise ValueError(
                f"FN amplitude q**((N-1)/2) at q = {q}: total occupation N = {n} {fault}"
            )
        amplitudes.append(amplitude)
    return np.array(amplitudes)


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

    g = [basic_number(model, n, q) for n in range(dim)]
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
    amplitude_of = _fn_amplitudes(q, d)
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


def _scaled(residual: np.ndarray, *terms) -> float:
    """Worst residual of a relation divided by the largest term magnitude
    entering it, floored at 1.  Each array holds the entries of one operator
    along its last axis and one operator per leading index (mode or mode
    pair), so every index is scaled by its own terms.  Order-unity spectra
    keep absolute semantics; the growing PVC/CKN spectra (entries up to
    q**-(dim-1)) are judged at their own scale.  An overflowed term makes
    the residual infinite, never 0."""
    scale = reduce(np.maximum, map(_peak, terms), 1.0)
    return _maxabs(np.where(np.isfinite(scale), _peak(residual) / scale, math.inf))


def _fn_monomials(ops: OperatorSet) -> tuple:
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


@np.errstate(all="ignore")  # an overflowed term reads as inf
def check_algebra(ops: OperatorSet) -> AlgebraReport:
    """Evaluate every defining relation of the model as a max-norm residual.

    Residuals are scale-normalized via `_scaled`; the FN relations take all
    (i, j) at once from the monomial table.  Single-mode relations involving
    c c* are evaluated only on input states below the truncation boundary
    (except CKN, whose two states close exactly); the commutation relations
    with the number operator hold on the full space.
    """
    if ops.model is Model.FN:
        lower, upper, pair = _fn_monomials(ops)
        amps, number = ops.amplitudes, ops.occupation
        q_pow = ops.q**number
        modes = np.arange(ops.n_modes)
        cross = lower + upper
        cross[modes, modes] -= q_pow
        right = amps * number  # c_j N, against (N + 1) c_j on the same entries
        shift = right - (number[ops.targets] + 1.0) * amps
        residuals = {
            "deformed_anticommutation": _scaled(cross, lower, upper, q_pow),
            "double_annihilation": _scaled(pair + pair.transpose(1, 0, 2), pair),
            "number_shift": _scaled(shift, right, amps),
        }
        return AlgebraReport(residuals, ops.norm_violations, ops.dim - 1)

    levels = ops.occupation
    lowered = ops.targets[0]
    down = ops.amplitudes[0]  # c |n> = down[n] |n-1>
    up = np.append(down[1:], 0.0)  # c* |n> = up[n] |n+1>, 0 on the top state
    # every matrix below is diagonal or one off-diagonal band, each entry a
    # single product, so the arrays hold the dense products' exact floats
    lower = up * up
    rhs = np.ones(ops.dim) if ops.model is Model.VPJC else ops.q**-levels
    coeff = 1.0 / ops.q if ops.model is Model.CKN else ops.q
    # CKN is exact on its two states because the level-2 value vanishes
    cols = ops.dim if ops.model is Model.CKN else ops.dim - 1
    raise_term = coeff * (down * down)
    defining = (lower + raise_term - rhs)[:cols]
    n_c = levels[lowered] * down
    n_cdag = (levels + 1.0) * up

    residuals = {
        "deformed_anticommutation": _scaled(defining, lower, raise_term, rhs),
        "number_shift_c": _scaled(n_c - down * levels + down, n_c, down),
        "number_shift_cdag": _scaled(n_cdag - up * levels - up, n_cdag, up),
    }
    if ops.model is Model.CKN:
        residuals["c_squared"] = _maxabs(down[lowered] * down)
        residuals["cdag_squared"] = _maxabs(up[1:] * up[:-1])
    return AlgebraReport(residuals, ops.norm_violations, cols - 1)


@np.errstate(all="ignore")  # an overflowed term reads as inf
def covariance_check(d: int, q: float, transform, unitary_tol: float = 1e-12) -> float:
    """Residual of the FN relations after the mode mixing c'_i = sum_j T_ij c_j.

    `transform` must be a d x d unitary matrix (complex entries allowed here
    and only here); non-unitary input is rejected.  A mixed product is a
    T-weighted sum of the monomials `check_algebra` reads, each one amplitude
    per column s, with the (k, l) and (l, k) terms on row s ^ e_k ^ e_l.  One
    pair (k, l) at a time, for all (i, j), that is O(d**4 2**d) work in
    O(d**2 2**d) memory.  Lower and upper terms are mixed apart and scale the
    residual as in `check_algebra`.
    """
    T = np.asarray(transform, dtype=complex)
    if T.shape != (d, d):
        raise ValueError(f"transform must be {d} x {d}, got shape {T.shape}")
    if _maxabs(T @ T.conj().T - np.eye(d)) > unitary_tol:
        raise ValueError("transform is not unitary within tolerance")

    ops = build_fn_multimode(d, q)
    amps, flips = ops.amplitudes, ops.targets
    number = ops.occupation
    q_pow = q**number
    lower, upper, pair = _fn_monomials(ops)  # [k, l, s]
    tc = T.conj()
    modes = np.arange(d)
    # diagonal entries, row s of column s: sum_k T_ik conj(T_jk) m_kk(s)
    lower_diag = np.einsum("ik,jk,ks->ijs", T, tc, lower[modes, modes])
    upper_diag = np.einsum("ik,jk,ks->ijs", T, tc, upper[modes, modes])
    diag = lower_diag + upper_diag
    diag[modes, modes] -= q_pow
    cross = _peak(diag)
    cross_terms = np.maximum(_peak(lower_diag), _peak(upper_diag))
    pair_res = pair_terms = np.zeros((d, d, 1))  # c_k c_k = 0: no diagonal
    for k, l in zip(*np.triu_indices(d, 1)):
        kl = np.outer(T[:, k], tc[:, l])[:, :, None]
        lk = np.outer(T[:, l], tc[:, k])[:, :, None]
        lo = kl * lower[k, l] + lk * lower[l, k]
        hi = kl * upper[k, l] + lk * upper[l, k]
        cross = np.maximum(cross, _peak(lo + hi))
        cross_terms = np.maximum(cross_terms, np.maximum(_peak(lo), _peak(hi)))
        kl = np.outer(T[:, k], T[:, l])[:, :, None]
        pr = kl * pair[k, l] + kl.transpose(1, 0, 2) * pair[l, k]  # c'_i c'_j
        pair_res = np.maximum(pair_res, _peak(pr + pr.transpose(1, 0, 2)))
        pair_terms = np.maximum(pair_terms, _peak(pr))
    mixed = T[:, :, None] * amps  # c'_j |s> has amplitude mixed[j, k, s] on s ^ e_k
    right = (mixed * number).reshape(d, -1)
    shift = right - ((number[flips] + 1.0) * mixed).reshape(d, -1)
    return max(
        _scaled(cross, cross_terms, q_pow),
        _scaled(pair_res, pair_terms),
        _scaled(shift, right, mixed.reshape(d, -1)),
    )


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
    negative (e.g. VPJC at q = 1 for n >= 2, where the ladder terminates) or
    when the ladder passes a zeroed negative level (VPJC at q > 1).
    """
    if ops.n_modes != 1:
        raise ValueError("build_state applies to single-mode representations")
    if n != int(n) or not 0 <= n < ops.dim:
        raise ValueError(f"level must lie in 0..{ops.dim - 1}, got {n!r}")
    n = int(n)
    norm_sq = float(spectrum(ops.model, ops.q, n).factorials[n])
    if norm_sq <= 0.0:
        raise NonNormalizableStateError(
            f"state {n} has squared norm [n]! = {norm_sq}; not normalizable"
        )
    if not math.isfinite(norm_sq):
        raise ValueError(
            f"{ops.model.value} factorial [{n}]! at q = {ops.q} overflows a double"
        )
    if ops.norm_violations and ops.norm_violations[0][0] <= n:
        level, g = ops.norm_violations[0]
        raise NonNormalizableStateError(
            f"state {n} lies past level {level}, whose g = {g} < 0 was zeroed"
        )
    # (c*)**n |0> is sqrt(g_1) ... sqrt(g_n) |n>, multiplied level by level
    vec = np.zeros(ops.dim)
    vec[n] = math.prod(ops.amplitudes[0, 1 : n + 1].tolist()) / math.sqrt(norm_sq)
    if not abs(vec[n] - 1.0) <= 1e-12:
        raise RuntimeError("ladder construction deviated from the basis vector")
    return vec


def ckn_undeformed_residuals(ops: OperatorSet) -> dict:
    """Residuals of the plain fermion relations for the rescaled f = q**(N/2) c."""
    if ops.model is not Model.CKN:
        raise ValueError("the rescaling map is defined for the CKN family")
    lowered = ops.targets[0]
    weight = ops.q ** (np.arange(ops.dim) / 2.0)
    down = weight[lowered] * ops.amplitudes[0]  # f |n> = down[n] |n-1>
    up = np.append(down[1:], 0.0)  # f* |n> = up[n] |n+1>
    return {
        "anticommutator": _maxabs(up * up + down * down - 1.0),
        "c_squared": _maxabs(down[lowered] * down),
        "cdag_squared": _maxabs(up[1:] * up[:-1]),
    }
