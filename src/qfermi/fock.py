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
column per class for three mode pairs, after an O(d 2**d) audit of the
layout (about 0.2 ms at d = 12); the covariance mixes the diagonal ones in
O(d**3 2**d) and the mode pairs in O(d**5), on one column per class (about
20 ms and a 26 MB traced peak at d = 12); a single-mode ladder takes O(dim).
The dense `annihilators` and `number_op` are scattered from the arrays only
when read, once per set; `creators` are transposed views of `annihilators`.

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
from functools import cached_property, lru_cache

import numpy as np

from .models import Model, NonNormalizableStateError, require_positive_q
from .spectra import spectrum

_SINGLE_MODE = (Model.VPJC, Model.PVC, Model.CKN)

# 2**12 basis states: the checks read (d, 2**d) index and amplitude arrays and
# the covariance its (d, d, 2**d) mixed diagonal; only the on-demand dense
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
    on `columns`, one state of each class (N, occ_0, occ_1), at the mode pairs
    (0, 1), (0, 0), (1, 0), so that reversing them swaps the two modes:
    `entry_reads` are the amplitudes those entries multiply (`_entry_reads`).
    `labels` are the bit tuples of the states.
    """

    labels: tuple
    occupied: np.ndarray
    total: np.ndarray
    number: np.ndarray
    sign: np.ndarray
    flips: np.ndarray
    reads: np.ndarray
    columns: np.ndarray
    entry_reads: np.ndarray


@lru_cache(maxsize=MAX_FN_MODES)
def _fn_layout(d: int) -> _FnLayout:
    states = np.arange(2**d)
    bits = np.arange(d - 1, -1, -1)[:, None]
    occupied = (states >> bits) & 1
    total = occupied.sum(axis=0)
    pairs = np.array([(0, 1), (0, 0), (1, 0)] if d > 1 else [(0, 0)])
    # the class (N, occ_0, occ_1) of each state; (N, occ_0) when d = 1
    key = (total * 2 + occupied[0]) * 2 + occupied[min(1, d - 1)]
    layout = dict(
        occupied=occupied,
        total=total,
        number=total.astype(float),
        sign=1.0 - 2.0 * ((np.cumsum(occupied, axis=0) - occupied) & 1),
        flips=states ^ (1 << bits),
        reads=np.array([0] + [2 ** (d - 1) + 2 ** (n - 1) - 1 for n in range(1, d + 1)]),
        columns=np.unique(key, return_index=True)[1],
    )
    layout["entry_reads"] = _entry_reads(layout["flips"], *pairs.T[..., None], layout["columns"])
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
    runs in mode order, as the dense sum of the products would.  A level
    that overflows a double reads as inf, without a numpy warning.
    """
    with np.errstate(over="ignore"):
        return np.square(ops.amplitudes).sum(axis=0)


def _ratio(residual: float, *terms: float) -> float:
    """Peak residual of one operator over the largest peak of its terms, floored
    at 1, so the growing PVC/CKN spectra are judged at their own scale.  A term
    that overflowed, or any NaN, makes it infinite: it fails every bound."""
    if not all(map(math.isfinite, terms)):
        return math.inf
    ratio = residual / max((1.0, *terms))
    return math.inf if math.isnan(ratio) else ratio


def _entry_reads(flips: np.ndarray, i, j, s) -> np.ndarray:
    """Flat indices into a (d, 2**d) amplitude table, (2, 3, ...): [0, e] and
    [1, e] are the factors of entry [i, j, s] of the monomial e in (c_i c_j*,
    c_j* c_i, c_i c_j), the one amplitude it gives basis state s, on row
    s ^ e_i ^ e_j, for index arrays i, j, s that broadcast together."""
    at = lambda mode, state: mode * flips.shape[1] + state
    left = at(i, flips[j, s]), at(j, flips[j, flips[i, s]]), at(i, flips[j, s])
    right = at(j, flips[j, s]), at(i, s), at(j, s)
    return np.array([np.broadcast_arrays(*left), np.broadcast_arrays(*right)])


def _fn_entries(amps: np.ndarray, reads: np.ndarray, q: float, out=None) -> np.ndarray:
    """c_i c_j*, q c_j* c_i and c_i c_j at the `_entry_reads` `reads`, stacked
    (into `out` if given): the dense products' floats, q applied last as in
    `q * (c_j* @ c_i)`."""
    factors = np.take(amps, reads)
    entries = np.multiply(factors[0], factors[1], out=out)
    entries[1] *= q
    return entries


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

    Each relation's residual and terms are rows of one block, one operator
    (mode or mode pair) per row, peaked in one reduction and scaled by
    `_ratio`.  Single-mode relations involving c c* are evaluated only on
    input states below the truncation boundary (except CKN, whose two states
    close exactly); the number-operator relations hold on the full space.

    FN: the set is first audited against its layout (`_audited_fn_layout`,
    O(d 2**d)); then c_i on s has the amplitude sigma_i(s) A[N] where
    n_i(s) = 1, sigma_i(s) = (-1)**(occupied modes before i).  For i != j
    the entries [i, j, s] of `_fn_entries` are

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
    c_i c_i vanishes.  The number shift c_j N - (N + 1) c_j reads fl(a N) -
    fl(N a), a = +-A[N] where n_j = 1 and 0 elsewhere, so mode 0 on the same
    columns (every N with n_0 = 1) stands for every mode: 0, or infinite
    where a N overflows.  So the residuals equal the full table's bit for
    bit, in O(d) beyond the audit.
    """
    if ops.model is Model.FN:
        layout = _audited_fn_layout(ops)
        s = layout.columns
        # rows: cross, lower, upper, pair, pair + swapped (n mode pairs each),
        # then q**N, number shift, c_0 N and c_0
        n = layout.entry_reads.shape[2]
        block = np.empty((5 * n + 4, len(s)))
        entries = block[n : 4 * n].reshape(3, n, -1)
        lower, upper, pair = _fn_entries(ops.amplitudes, layout.entry_reads, ops.q, out=entries)
        number = layout.number[s]
        q_pow = np.power(ops.q, number, out=block[5 * n])
        cross = np.add(lower, upper, out=block[:n])
        cross[n // 2] -= q_pow  # the diagonal pair (0, 0)
        np.add(pair, pair[::-1], out=block[4 * n : 5 * n])  # [j, i, s] is the reversed row
        amp = np.take(ops.amplitudes[0], s, out=block[-1])
        right = np.multiply(amp, number, out=block[-2])  # c_0 N, against (N + 1) c_0
        np.subtract(right, (layout.number[layout.flips[0, s]] + 1.0) * amp, out=block[-3])
        peaks = np.abs(block).max(axis=-1).tolist()
        cross, lower, upper, pair, double = (peaks[r * n : r * n + n] for r in range(5))
        q_peak = itertools.repeat(peaks[5 * n])
        residuals = {
            "deformed_anticommutation": max(map(_ratio, cross, lower, upper, q_peak)),
            "double_annihilation": max(map(_ratio, double, pair)),
            "number_shift": _ratio(*peaks[5 * n + 1 :]),
        }
        return AlgebraReport(residuals, ops.norm_violations, ops.dim - 1)

    levels, lowered = ops.occupation, ops.targets[0]
    # each row is a diagonal or one off-diagonal band of a matrix, each entry a
    # single product, so the rows hold the dense products' exact floats
    block = np.zeros((12 if ops.model is Model.CKN else 10, ops.dim))
    ladder = block[8:10]  # c |n> = down[n] |n-1>, c* |n> = up[n] |n+1>, 0 on top
    down, up = ladder
    down[:] = ops.amplitudes[0]
    up[:-1] = down[1:]
    rhs = np.ones(ops.dim) if ops.model is Model.VPJC else ops.q**-levels
    coeff = 1.0 / ops.q if ops.model is Model.CKN else ops.q
    # CKN is exact on its two states because the level-2 value vanishes
    cols = ops.dim if ops.model is Model.CKN else ops.dim - 1
    lower = np.multiply(up, up, out=block[1])
    raise_term = np.multiply(coeff, down * down, out=block[2])
    block[3] = rhs
    np.subtract(lower[:cols] + raise_term[:cols], rhs[:cols], out=block[0, :cols])
    n_ladder = np.multiply(np.stack((levels[lowered], levels + 1.0)), ladder, out=block[6:8])
    shift_c, shift_cdag = np.subtract(n_ladder, ladder * levels, out=block[4:6])
    shift_c += down  # N c - c N + c
    shift_cdag -= up  # N c* - c* N - c*
    if ops.model is Model.CKN:
        np.multiply(down[lowered], down, out=block[10])
        np.multiply(up[1:], up[:-1], out=block[11, :-1])
    peaks = np.abs(block).max(axis=-1).tolist()
    residuals = {
        "deformed_anticommutation": _ratio(*peaks[:4]),
        "number_shift_c": _ratio(peaks[4], peaks[6], peaks[8]),
        "number_shift_cdag": _ratio(peaks[5], peaks[7], peaks[9]),
    }
    if ops.model is Model.CKN:  # unscaled: with no terms the scale is 1
        residuals["c_squared"] = _ratio(peaks[10])
        residuals["cdag_squared"] = _ratio(peaks[11])
    return AlgebraReport(residuals, ops.norm_violations, cols - 1)


@np.errstate(all="ignore")  # an overflowed term reads as inf
def covariance_check(d: int, q: float, transform, unitary_tol: float = 1e-12) -> float:
    """Residual of the FN relations after the mode mixing c'_i = sum_j T_ij c_j.

    `transform` must be a d x d unitary matrix (complex entries allowed here
    and only here); non-unitary input is rejected.  The mixed products are
    peaked by `_mixed_peaks`.  The mixed number shift T_jk (c_k N - (N + 1) c_k)
    reads fl(T_jk a), a = +-A[N] where n_k = 1 and 0 elsewhere, so mode 0's
    amplitudes on one column per class stand for every c_k.  Lower and upper
    terms are mixed apart and scale the residual as in `check_algebra`.
    """
    T = np.asarray(transform, dtype=complex)
    if T.shape != (d, d):
        raise ValueError(f"transform must be {d} x {d}, got shape {T.shape}")
    if _maxabs(T @ T.conj().T - np.eye(d)) > unitary_tol:
        raise ValueError("transform is not unitary within tolerance")

    ops, layout = build_fn_multimode(d, q), _fn_layout(d)
    q_pow, s, number = q**ops.occupation, layout.columns, ops.occupation
    cross, cross_terms, pair, pair_terms = _mixed_peaks(T, ops, layout, q_pow)
    mixed = T[:, :, None] * ops.amplitudes[0, s]  # [j, k, s]: c'_j N - (N + 1) c'_j
    right = mixed * number[s]
    shift = right - (number[layout.flips[0, s]] + 1.0) * mixed
    shift_peaks = (np.abs(m).reshape(d, -1).max(axis=-1).tolist() for m in (shift, right, mixed))
    return max(
        *map(_ratio, cross.tolist(), cross_terms.tolist(), itertools.repeat(q_pow.max())),
        *map(_ratio, pair.tolist(), pair_terms.tolist()),
        *map(_ratio, *shift_peaks),
    )


def _mixed_peaks(T, ops: OperatorSet, layout: _FnLayout, q_pow: np.ndarray) -> tuple:
    """Peaks over the columns, each a (d * d,) array over (i, j), of the mixed
    c'_i c'_j* + q c'_j* c'_i - [i = j] q**N, of the larger of its two terms,
    of c'_i c'_j + c'_j c'_i and of c'_i c'_j: T-weighted sums of the
    monomials of `_fn_entries`.  The terms k = l, on row s of column s, are
    mixed by one matrix product over all columns, O(d**3 2**d).  The (k, l)
    and (l, k) terms of a pair k < l are, up to one sign they share, the
    (0, 1) and (1, 0) entries of the class of s (see `check_algebra`), and
    negating every input of a mixed entry negates it exactly, so the pairs
    read those entries on one column per class, all (i, j) at once, laid out
    [i, j, (pair, class)] so that numpy's inner loops run over (pair, class):
    O(d**5)."""
    d, q, amps, flips, tc = len(T), ops.q, ops.amplitudes, ops.targets, T.conj()
    peak = lambda m: np.abs(m).reshape(d * d, -1).max(axis=-1, initial=0.0)
    # k = l, [i * d + j, s]: c_k* |s> = up[k, s] |s ^ e_k>
    up = np.take_along_axis(amps, flips, axis=1)
    weights = (T[:, None] * tc[None]).reshape(d * d, d)
    lower = weights @ (up * up)
    upper = weights @ (q * (np.take_along_axis(up, flips, axis=1) * amps))
    cross_terms = np.maximum(peak(lower), peak(upper))
    lower += upper
    lower[:: d + 1] -= q_pow  # the rows i = j
    cross = peak(lower)
    del lower, upper  # freed before the pair buffers: 19 MB at d = 12
    # k < l, [i, j, (p, c)]: the weight of pair p on each of its classes c
    k, l = np.triu_indices(d, 1)
    pairs = _fn_entries(amps, layout.entry_reads[:, :, [0, -1]], q)  # (0, 1) and (1, 0)
    pairs = pairs[..., pairs.any(axis=(0, 1))]  # a class of zero entries adds |0| terms
    L, U, P = np.tile(pairs, len(k))  # [(k, l) or (l, k), (p, c)]
    kl, lk, lo, hi = np.empty((4, d, d, L.shape[1]), complex)
    shape = (d, d, len(k), pairs.shape[-1])
    spread = lambda out, a, b: np.copyto(out.reshape(shape), (a[:, None] * b[None])[..., None])
    # out = a e[0] + b e[1]: the (k, l) and (l, k) terms with their weights
    mix = lambda out, a, b, e: np.add(np.multiply(a, e[0], out=out), b * e[1], out=out)
    spread(kl, T[:, k], tc[:, l])
    spread(lk, T[:, l], tc[:, k])
    lo, hi = mix(lo, kl, lk, L), mix(hi, kl, lk, U)
    cross_terms = np.maximum(cross_terms, np.maximum(peak(lo), peak(hi)))
    cross = np.maximum(cross, peak(np.add(lo, hi, out=lo)))
    spread(kl, T[:, k], T[:, l])
    pr = mix(lo, kl, kl.transpose(1, 0, 2), P)  # c'_i c'_j
    return cross, cross_terms, peak(np.add(pr, pr.transpose(1, 0, 2), out=hi)), peak(pr)


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
    when the ladder passes a zeroed negative level (VPJC at q > 1), and
    ValueError when [n]! overflows or is too small (subnormal, or a product
    of positive levels that underflowed to 0) to normalize.
    """
    if ops.n_modes != 1:
        raise ValueError("build_state applies to single-mode representations")
    if n != int(n) or not 0 <= n < ops.dim:
        raise ValueError(f"level must lie in 0..{ops.dim - 1}, got {n!r}")
    n = int(n)
    table = spectrum(ops.model, ops.q, n)
    norm_sq = float(table.factorials[n])
    if norm_sq <= 0.0 and not (table.values[1:] > 0.0).all():
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
    amplitude = math.prod(ops.amplitudes[0, 1 : n + 1].tolist())
    if not (norm_sq > 0.0 and abs(amplitude / math.sqrt(norm_sq) - 1.0) <= 1e-12):
        raise ValueError(f"{ops.model.value} state {n} at q = {ops.q}: [n]! = {norm_sq} "
                         "is not resolved in double precision")
    vec = np.zeros(ops.dim)
    vec[n] = amplitude / math.sqrt(norm_sq)
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
