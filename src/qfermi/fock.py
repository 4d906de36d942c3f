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
form, so no check builds a dense matrix.  Every FN set of d modes shares
one read-only layout of its basis (`_fn_layout`: occupations, signs, bit
flips).  An FN entry of the monomials c_i c_j*, q c_j* c_i and c_i c_j
depends on its column only through the column's class (N, occ_i, occ_j),
up to a sign, and on (i, j) only through whether i < j, i > j or i = j
(see `check_algebra`).  So the FN relations read those monomials on one
column per class for three mode pairs, after an O(d 2**d) audit that the
set has the layout: O(d 2**d) work in all.  The covariance reads one table
of the monomials as (d, d, 2**d) arrays and mixes it in O(d**3 2**d) for
the diagonal terms and O(d**5) for the mode pairs, on one column per class;
a single-mode ladder takes O(dim).  The dense `annihilators` and
`number_op` are scattered from the arrays only when read, once per set;
`creators` are transposed views of `annihilators`.

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
from functools import cached_property, lru_cache, reduce

import numpy as np

from .models import Model, NonNormalizableStateError, require_positive_q
from .spectra import spectrum

_SINGLE_MODE = (Model.VPJC, Model.PVC, Model.CKN)

# 2**12 basis states: the checks read (d, 2**d) index and amplitude arrays and
# the covariance the (d, d, 2**d) monomial table; only the on-demand dense
# views grow as d 4**d
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


@dataclass(frozen=True)
class _FnLayout:
    """The 2**d occupation basis shared by every FN set of d modes (read-only).

    `occupied[i, s]` is n_i of state s, `total[s]` its N (`number` as floats),
    `sign[i, s]` the Jordan-Wigner sign (-1)**(occupied modes before i) and
    `flips[i, s]` = s ^ e_i.  `reads[N]` is a state of occupation N with mode
    0 occupied (sign +1), the empty state for N = 0.  The relations are read
    at the mode pairs (`row`, `col`), the diagonal last, on `columns`: one
    state of each class (N, occ_0, occ_1).  `labels` are the bit tuples of
    the states.
    """

    labels: tuple
    occupied: np.ndarray
    total: np.ndarray
    number: np.ndarray
    sign: np.ndarray
    flips: np.ndarray
    reads: np.ndarray
    row: np.ndarray
    col: np.ndarray
    columns: np.ndarray


@lru_cache(maxsize=MAX_FN_MODES)
def _fn_layout(d: int) -> _FnLayout:
    states = np.arange(2**d)
    bits = np.arange(d - 1, -1, -1)[:, None]
    occupied = (states >> bits) & 1
    total = occupied.sum(axis=0)
    pairs = np.array([(0, 1), (1, 0), (0, 0)] if d > 1 else [(0, 0)])
    # the class (N, occ_0, occ_1) of each state; (N, occ_0) when d = 1
    key = (total * 2 + occupied[0]) * 2 + occupied[min(1, d - 1)]
    layout = dict(
        occupied=occupied,
        total=total,
        number=total.astype(float),
        sign=1.0 - 2.0 * ((np.cumsum(occupied, axis=0) - occupied) & 1),
        flips=states ^ (1 << bits),
        reads=np.array([0] + [2 ** (d - 1) + 2 ** (n - 1) - 1 for n in range(1, d + 1)]),
        row=pairs[:, :1],
        col=pairs[:, 1:],
        columns=np.unique(key, return_index=True)[1],
    )
    labels = tuple(itertools.product((0, 1), repeat=d))
    return _FnLayout(labels, **{name: _freeze(a) for name, a in layout.items()})


def _fn_amplitude_table(layout: _FnLayout, amplitude_of: np.ndarray) -> np.ndarray:
    """(d, 2**d) amplitudes of the annihilators: sign * amplitude_of[N] on the
    states where the mode is occupied, 0 elsewhere."""
    return np.where(layout.occupied, layout.sign * amplitude_of[layout.total], 0.0)


def _require_layout(what: str, got: np.ndarray, want: np.ndarray) -> None:
    """ValueError naming the first (mode, state) where an FN set departs from
    its layout (of the same shape)."""
    departs = got != want  # a NaN departs
    if departs.any():
        at = tuple(np.argwhere(departs)[0].tolist())
        where = ", ".join(f"{axis} {k}" for axis, k in zip(("mode", "state")[-len(at):], at))
        raise ValueError(
            f"FN {what} at {where} is {got[at].item()!r}, "
            f"not {want[at].item()!r} as the FN layout requires"
        )


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

    g = spectrum(model, q, dim - 1).values
    negative = np.flatnonzero(g < 0.0)
    violations = tuple(zip(negative.tolist(), g[negative].tolist()))
    amplitudes = np.sqrt(np.where(g >= 0.0, g, 0.0))  # correctly rounded, as math.sqrt
    levels = np.arange(dim)
    return OperatorSet(
        model=model,
        q=float(q),
        dim=dim,
        targets=_freeze(np.maximum(levels - 1, 0)[None, :]),
        amplitudes=_freeze(amplitudes[None, :]),
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
    layout = _fn_layout(d)
    return OperatorSet(
        model=Model.FN,
        q=float(q),
        dim=2**d,
        targets=layout.flips,
        amplitudes=_freeze(_fn_amplitude_table(layout, _fn_amplitudes(q, d))),
        occupation=layout.number,
        basis_labels=layout.labels,
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


def _audited_fn_layout(ops: OperatorSet) -> _FnLayout:
    """The layout of an FN set's mode count, once the set is checked to have
    it: its targets are the bit flips, its occupation the totals N and its
    amplitudes sign * A[N] on occupied modes and 0 elsewhere, with A[N] read
    from mode 0.  ValueError naming the first departure otherwise."""
    d = ops.n_modes
    if not 1 <= d <= MAX_FN_MODES:
        raise ValueError(f"FN mode count must lie in 1..{MAX_FN_MODES}, got {d}")
    shapes = (ops.dim, ops.targets.shape, ops.amplitudes.shape, ops.occupation.shape)
    if shapes != (2**d, (d, 2**d), (d, 2**d), (2**d,)):
        raise ValueError(
            f"an FN set of {d} modes has dim, targets, amplitudes and occupation "
            f"of {(2**d, (d, 2**d), (d, 2**d), (2**d,))}, got {shapes}"
        )
    layout = _fn_layout(d)
    _require_layout("targets", ops.targets, layout.flips)
    _require_layout("occupation", ops.occupation, layout.number)
    amplitude_of = ops.amplitudes[0, layout.reads]
    _require_layout("amplitudes", ops.amplitudes, _fn_amplitude_table(layout, amplitude_of))
    return layout


@np.errstate(all="ignore")  # an overflowed term reads as inf
def check_algebra(ops: OperatorSet) -> AlgebraReport:
    """Evaluate every defining relation of the model as a max-norm residual.

    Residuals are scale-normalized via `_scaled`.  Single-mode relations
    involving c c* are evaluated only on input states below the truncation
    boundary (except CKN, whose two states close exactly); the commutation
    relations with the number operator hold on the full space.

    FN: the set is first audited against its layout (`_audited_fn_layout`,
    O(d 2**d)); then c_i on s has the amplitude sigma_i(s) A[N] where
    n_i(s) = 1, sigma_i(s) = (-1)**(occupied modes before i).  For i != j
    the entries [i, j, s] of `_fn_monomials` are

        c_i c_j*    where n_i = 1, n_j = 0:  sigma_i(s ^ e_j) sigma_j(s) A[N+1] A[N+1]
        q c_j* c_i  where n_i = 1, n_j = 0:  sigma_j(s ^ e_i) sigma_i(s) q (A[N] A[N])
        c_i c_j     where n_i = n_j = 1:     sigma_i(s ^ e_j) sigma_j(s) A[N-1] A[N]

    and 0 elsewhere.  Flipping mode j negates sigma_i exactly when j < i, and
    flipping i negates sigma_j exactly when i < j, so each entry, and each
    entry [j, i, s], is sigma_i(s) sigma_j(s) times a float fixed by N, by
    n_i and n_j, and by whether i < j.  The one sign is shared by lower,
    upper and pair, and negating both terms of a sum negates its float
    exactly, so every |entry| of the cross and pair residuals and of their
    terms depends on s only through its class (N, occ_i, occ_j) and on
    (i, j) only through i < j.  The classes present, a + b <= N <= d - 2 +
    a + b for (occ_i, occ_j) = (a, b), are the same for every pair, so the
    peaks over all s and all i < j (i > j) are the peaks of the pair (0, 1)
    ((1, 0)) over one column per class (N, occ_0, occ_1).  On the diagonal,
    c_i c_i* gives A[N+1] A[N+1] where n_i = 0, q c_i* c_i gives q (A[N] A[N])
    where n_i = 1 and q**N depends on N, so each entry depends only on
    (N, occ_i) and the pair (0, 0) on the same columns stands for every i;
    c_i c_i vanishes.  The entries are computed as `_fn_monomials` computes
    them, so the residuals equal the full table's bit for bit, in O(d)
    beyond the audit.  `number_shift` reads all d 2**d amplitudes.
    """
    if ops.model is Model.FN:
        layout = _audited_fn_layout(ops)
        amps, number, flips = ops.amplitudes, ops.occupation, layout.flips
        q_pow = ops.q**number
        i, j, s = layout.row, layout.col, layout.columns
        flipped = amps[i, flips[j, s]]  # amplitude of c_i on s ^ e_j
        lower = flipped * amps[j, flips[j, s]]
        upper = ops.q * (amps[j, flips[j, flips[i, s]]] * amps[i, s])
        pair = flipped * amps[j, s]
        swapped = amps[j, flips[i, s]] * amps[i, s]  # entry [j, i, s] of c_i c_j
        cross = lower + upper
        cross[-1] -= q_pow[s]  # the diagonal pair
        right = amps * number  # c_j N, against (N + 1) c_j on the same entries
        shift = right - (number[flips] + 1.0) * amps
        residuals = {
            "deformed_anticommutation": _scaled(cross, lower, upper, q_pow),
            "double_annihilation": _scaled(pair + swapped, pair),
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


def _class_columns(ops: OperatorSet, k: np.ndarray, l: np.ndarray) -> np.ndarray:
    """(pairs, m) array: for each mode pair (k, l), k < l, one basis state of
    each class (N, occ_k, occ_l) on which some monomial of the pair is nonzero.

    The six entries [k, l, s] and [l, k, s] of the monomial table depend on
    the column s only through its class, up to the sign (-1)**(occupied modes
    strictly between k and l), which all six share.  A mixed entry is a sum
    of such entries times fixed T products, so negating every input negates
    it exactly: its largest |.| over one column per class is its largest
    |.| over all columns.  On occ_k = occ_l = 0 every entry is 0, and the
    remaining 3 (d - 1) classes are the same for every pair.
    """
    d, layout = ops.n_modes, _fn_layout(ops.n_modes)
    key = (layout.total * 2 + layout.occupied[k]) * 2 + layout.occupied[l]
    first = np.full((len(k), 4 * (d + 1)), -1)
    first[np.arange(len(k))[:, None], key] = np.arange(ops.dim)  # any member represents its class
    present = (first >= 0).all(axis=0) & (np.arange(4 * (d + 1)) % 4 > 0)
    return first[:, present]


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[p, i, j, 1] = a[i, p] * b[j, p]: one mixing weight per pair p and (i, j)."""
    return (a.T[:, :, None] * b.T[:, None, :])[..., None]


def _diagonal_peaks(T, lower, upper, q_pow) -> tuple:
    """Peaks over s of the mixed cross relation's k = l terms, row s of column
    s: sum_k T_ik conj(T_jk) m_kk(s) minus q**N on i = j, and of its terms."""
    d = len(T)
    modes = np.arange(d)
    weights = (T[:, None] * T.conj()[None]).reshape(d * d, d)
    lower_diag = (weights @ lower[modes, modes]).reshape(d, d, -1)
    upper_diag = (weights @ upper[modes, modes]).reshape(d, d, -1)
    diag = lower_diag + upper_diag
    diag[modes, modes] -= q_pow
    return _peak(diag), np.maximum(_peak(lower_diag), _peak(upper_diag))


@np.errstate(all="ignore")  # an overflowed term reads as inf
def covariance_check(d: int, q: float, transform, unitary_tol: float = 1e-12) -> float:
    """Residual of the FN relations after the mode mixing c'_i = sum_j T_ij c_j.

    `transform` must be a d x d unitary matrix (complex entries allowed here
    and only here); non-unitary input is rejected.  A mixed product is a
    T-weighted sum of the monomials `check_algebra` reads, each one amplitude
    per column s, with the (k, l) and (l, k) terms on row s ^ e_k ^ e_l.  The
    diagonal terms k = l, on row s, are one matrix product over all columns.
    A pair k < l is evaluated on one column per class of `_class_columns`,
    for all pairs and all (i, j) at once: O(d**5) work and memory, against
    O(d**3 2**d) for the diagonal and O(d**2 2**d) memory for the table.
    Lower and upper terms are mixed apart and scale the residual as in
    `check_algebra`.
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
    cross, cross_terms = _diagonal_peaks(T, lower, upper, q_pow)
    # all pairs k < l at once: [p, i, j, c] on class column c of pair p
    tc = T.conj()
    k, l = np.triu_indices(d, 1)
    cols = _class_columns(ops, k, l)
    at = lambda m, a, b: m[a[:, None], b[:, None], cols][:, None, None, :]
    kl, lk = _outer(T[:, k], tc[:, l]), _outer(T[:, l], tc[:, k])
    lo = kl * at(lower, k, l) + lk * at(lower, l, k)
    hi = kl * at(upper, k, l) + lk * at(upper, l, k)
    kl = _outer(T[:, k], T[:, l])
    pr = kl * at(pair, k, l) + kl.transpose(0, 2, 1, 3) * at(pair, l, k)  # c'_i c'_j
    worst = lambda m: _peak(m).max(axis=0, initial=0.0)  # over the pairs
    cross = np.maximum(cross, worst(lo + hi))
    cross_terms = reduce(np.maximum, (cross_terms, worst(lo), worst(hi)))
    pair_res = worst(pr + pr.transpose(0, 2, 1, 3))  # c_k c_k = 0: no diagonal
    mixed = T[:, :, None] * amps  # c'_j |s> has amplitude mixed[j, k, s] on s ^ e_k
    right = (mixed * number).reshape(d, -1)
    shift = right - ((number[flips] + 1.0) * mixed).reshape(d, -1)
    return max(
        _scaled(cross, cross_terms, q_pow),
        _scaled(pair_res, worst(pr)),
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
