"""Series evaluation of the generalized Fermi-Dirac functions.

Two families are provided, each returned as a value with a certified
error bound:

    f(order, q, z) = sum_{l>=1} (-1)**(l-1) (q z)**l / l**order
    h(order, z, q) = (1 / (2 ln q)) * ( sum_{k>=1} (-1)**(k+1) (q z)**k / k**(order+1)
                                        - sum_{k>=1} (z/q)**k / k**(order+1) )

The f-family is an alternating series in y = q z, accepted on 0 < y <= 1.
Its terms a_k = y**(k+1) / (k+1)**order are the moments of a positive
measure on [0, y] for every order > 0, so the alternating sums (f, and the
first sum of h) are evaluated by the Cohen, Rodriguez Villegas and Zagier
acceleration (Experimental Math. 9, 2000): S_n = sum_{k<n} w_k a_k with
fixed weights w_k = c_k / T_n(3), where T_n is the Chebyshev polynomial.
Its truncation bound is |S - S_n| <= a_0 / T_n(3) < 2 a_0 / (3 + sqrt 8)**n,
uniformly up to the edge y = 1, so a call needs about 20 terms whatever y
is.  S_n is y p(y) for a polynomial p of degree n - 1 whose coefficients
w_k (k+1)**-order are built once per (n, order), and p is evaluated by
Horner's rule with plain * and +, carrying Higham's running error bound
as one more multiply-add per step.  The same kernel runs on a float and
on an array of points, each with its own n (shorter polynomials padded
with exact leading zeros), so `f_gen_array` gives each point the bits of
`f_gen`.  The reported bound adds that rounding term (see
`_alternating_sum`); a tolerance below that floor raises
`SeriesConvergenceError` rather than returning an uncertified bound.

The h-family needs 0 < q < 1 and z/q < 1 strictly; its second
(non-alternating) sum is summed directly up to a geometric tail bound.
Its reported bound also covers the rounding of the arguments q z and z/q,
of the direct sum (`_PositiveSum`) and of the final combination (`h_gen`);
here too a tolerance below that floor raises `SeriesConvergenceError`.
Evaluation is series-only: the degenerate regime beyond the convergence
disc is reached through the low-temperature expansions in `thermo`, never
by analytic continuation here.

At order 1 the f-series is the Mercator series, so it is summed in closed
form as log1p(q z).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .models import SeriesConvergenceError, require_positive_q

_MAX_TERMS = 20_000_000
_CHUNK = 1 << 13  # 64 KiB of float64: temporaries stay in cache and off mmap
_HEAD = 64  # leading terms of a direct sum, added by math.fsum
# Most additions between a term and numpy's pairwise sum of at most _CHUNK
# terms (np.add.reduce of a contiguous float64 array): a block of up to 128
# terms costs at most 24 (one of 8 interleaved accumulators, 3 to combine
# them, up to 7 for a remainder of the length mod 8), and each halving of a
# longer block one more, at most 6 times for these lengths.
_PAIRWISE_DEPTH = 30
_EPS = float(np.finfo(float).eps)
# Most terms of the accelerated sum: T_64(3) ~ 1e49, far beyond any
# tolerance that double precision can certify (about 20 terms).
_MAX_ACCEL_TERMS = 64
# Absolute rounding allowance per term for gradual underflow.
_UNDERFLOW = 4.0 * math.ulp(0.0)


def _chebyshev_at_three(n_max: int) -> tuple:
    """T_n(3) for n = 0..n_max, exact integers: T_{n+1} = 6 T_n - T_{n-1}."""
    values = [1, 3]
    while len(values) <= n_max:
        values.append(6 * values[-1] - values[-2])
    return tuple(values[: n_max + 1])


_T3 = _chebyshev_at_three(_MAX_ACCEL_TERMS)
_T3_FLOAT = tuple(float(t) for t in _T3)
_T3_ARRAY = np.array(_T3_FLOAT)
_INDICES = tuple(float(l) for l in range(1, _MAX_ACCEL_TERMS + 1))


@dataclass(frozen=True)
class SeriesValue:
    """A partial sum, a rigorous bound on the discarded tail, and the term count."""

    value: float
    error_bound: float
    terms_used: int


def _validate_common(order: float, z: float, tol: float) -> None:
    if not order >= 0.5:
        raise ValueError(f"series order must be >= 1/2, got {order}")
    if not (math.isfinite(z) and z >= 0.0):
        raise ValueError(f"fugacity must be nonnegative and finite, got {z}")
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")


def _cutoff(series: _PositiveSum, tol: float, start: int) -> int:
    """Smallest L >= start with series.tail(L) <= tol; the float tail bound
    r**(L+1) (L+1)**-expo / (1 - r) decreases in L.

    The search starts from an estimate of m = L + 1, the root of
    m log r - expo log m = log(tol (1 - r)): the geometric estimate
    log(tol (1 - r)) / log r, which leaves out the (L+1)**-expo factor,
    refined by two Newton steps.  It gallops from there to a bracket and
    bisects it, so the estimate sets only how often the tail is evaluated,
    not the result: over random r, order and tol about 7 times, against 10
    when doubling from `start` and 13 from the geometric estimate alone.
    Raises SeriesConvergenceError when L exceeds `_MAX_TERMS`.
    """
    bound, r, expo = series.tail, series.r, series.expo
    if bound(start) <= tol:
        return start
    log_r = math.log(r)
    target = math.log(tol) + math.log1p(-r)
    m = target / log_r
    for _ in range(2):
        if m <= 1.0:
            break
        m -= (m * log_r - expo * math.log(m) - target) / (log_r - expo / m)
    lo, hi = start, min(max(math.ceil(m - 1.0), start + 1), _MAX_TERMS)
    step = 1
    if bound(hi) <= tol:
        while hi - step > lo and bound(hi - step) <= tol:
            hi -= step
            step *= 2
        lo = max(lo, hi - step)
    else:
        while True:
            if hi == _MAX_TERMS:
                raise SeriesConvergenceError(
                    f"geometric-tail series: tolerance {tol} needs more than {_MAX_TERMS} terms"
                )
            lo, hi = hi, min(hi + step, _MAX_TERMS)
            step *= 2
            if bound(hi) <= tol:
                break
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) <= tol:
            hi = mid
        else:
            lo = mid
    return hi


@lru_cache(maxsize=None)
def _accel_weights(n: int) -> tuple:
    """Weights w_k = c_k / T_n(3), k < n, of the accelerated alternating sum.

    The c_k are built in exact integer arithmetic (the recurrence for b
    stays integral: -b_k is the x**k coefficient of T_n(1 - 2x), an integer
    polynomial), and each weight is rounded to a float once.  Every
    |w_k| < 1.
    """
    d = _T3[n]
    b, c = -1, -d
    weights = []
    for k in range(n):
        c = b - c
        weights.append(c / d)
        b = 2 * (k + n) * (k - n) * b // ((2 * k + 1) * (k + 1))
    return tuple(weights)


@lru_cache(maxsize=1024)
def _horner_coefficients(n: int, expo: float) -> tuple:
    """Coefficients c_k = w_k (k+1)**-expo of p, highest degree first."""
    return tuple(w * l**-expo for l, w in zip(_INDICES, _accel_weights(n)))[::-1]


def _padded_coefficients(n: np.ndarray, expo: float) -> np.ndarray:
    """One column of coefficients per point, for its own n, highest degree
    first; shorter columns are padded with leading zeros, which Horner's rule
    passes through exactly (0 y + 0 = 0), so each column gives the bits of
    its unpadded polynomial."""
    ns, which = np.unique(n, return_inverse=True)
    width = int(ns[-1])
    table = np.zeros((width, ns.size))
    for j, k in enumerate(ns.tolist()):
        table[width - k :, j] = _horner_coefficients(k, expo)
    return table[:, which]


def _accelerated_sum(y, expo: float, n):
    """The n-term accelerated sum y p(y) and its rounding term (see
    `_alternating_sum`), for a float y and an int n or for 1-D arrays of
    both: Horner's rule, with `m` the running sum of |p_i| y**i."""
    if isinstance(n, int):
        coefficients = _horner_coefficients(n, expo)
    else:
        coefficients = _padded_coefficients(n, expo)
    p = m = 0.0
    for c in coefficients:
        p = p * y + c
        m = m * y + abs(p)
    value = y * p
    return value, _EPS * (6.0 * y * m - 2.0 * abs(value)) + n * _UNDERFLOW


def _alternating_sum(y: float, expo: float, tol: float):
    """sum (-1)**(l-1) y**l / l**expo for 0 < y <= 1, expo > 0, accelerated.

    Uses the smallest n whose bound a_0 / T_n(3) + rounding is <= tol, with
    a_0 = y.  The n-term sum is y p(y), p(y) = sum_{k<n} c_k y**k with
    c_k = w_k (k+1)**-expo, evaluated by Horner's rule: p_{n-1} = c_{n-1},
    p_i = p_{i+1} y + c_i, value y p_0.  Rounding term, with u = eps / 2
    and M = sum_i |p_i| y**i, which the kernel carries as one more
    multiply-add per step (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 5.1, running error bound):
      * each coefficient carries three roundings (the weight, a libm pow
        within one ulp, the product), at most 4 u |c_i| to first order;
      * each Horner step rounds a product and a sum, u |p_{i+1} y| + u |p_i|;
      * all of it reaches p_0 times y**i, so as |c_i| <= |p_i| + y |p_{i+1}|
        the error of p_0 is at most 5 u (M + sum_i y**(i+1) |p_{i+1}|)
        = 5 u (2 M - |p_0|) to first order, Higham's running bound with
        the coefficients' share added;
      * the final product y p_0 adds y times that and u |value|, in all
        at most eps (5 y M - 2 |value|) to first order, as |value| is
        y |p_0| to first order;
      * the float quotient a_0 / T_n(3) and the final addition add at most
        3 u a_0 / T_n(3) <= eps a_0 / 2.
    The term eps * (6 y M - 2 |value|) covers the first four and leaves
    eps y M >= 2 eps a_0 / 3 (as M >= |c_0| = |w_0| >= 2/3) for the fifth,
    for the second-order terms and for the float evaluation of M itself.
    `_UNDERFLOW` per term covers subnormal coefficients and products, whose
    rounding error is absolute, not relative.
    """
    n = min(max(1, bisect_left(_T3_FLOAT, y / tol)), _MAX_ACCEL_TERMS)
    while True:
        value, rounding = _accelerated_sum(y, expo, n)
        bound = y / _T3_FLOAT[n] + rounding
        if bound <= tol:
            return value, bound, n
        # the rounding term does not fall as n grows (checked over random
        # orders and arguments), so once it alone exceeds tol, stop
        if rounding > tol or n == _MAX_ACCEL_TERMS:
            raise SeriesConvergenceError(
                f"alternating series: tolerance {tol} is below evaluable "
                f"precision {bound:.3g}"
            )
        n += 1


def _alternating_sum_array(y: np.ndarray, expo: float, tol: float):
    """`_alternating_sum` at each point of the 1-D array y: values, bounds,
    term counts, and the mask of the points where it raises (they hold nan
    and 0 terms).  Each point takes the scalar's n, one step at a time."""
    n = np.clip(np.searchsorted(_T3_ARRAY, y / tol), 1, _MAX_ACCEL_TERMS)
    value = np.full(y.shape, np.nan)
    bound = value.copy()
    failed = np.zeros(y.shape, dtype=bool)
    todo = np.arange(y.size)
    while todo.size:
        y_todo, n_todo = y[todo], n[todo]
        v, rounding = _accelerated_sum(y_todo, expo, n_todo)
        b = y_todo / _T3_ARRAY[n_todo] + rounding
        done = b <= tol
        value[todo[done]], bound[todo[done]] = v[done], b[done]
        stop = ~done & ((rounding > tol) | (n_todo == _MAX_ACCEL_TERMS))
        failed[todo[stop]] = True
        todo = todo[~(done | stop)]
        n[todo] += 1
    n[failed] = 0
    return value, bound, n, failed


class _PositiveSum:
    """sum_{k>=1} r**k / k**expo for 0 < r < 1, summed directly, continued on demand.

    Terms are computed in chunks of up to `_CHUNK`, each term as
    np.power(r, k) * np.power(k, -expo).  The first `_HEAD` terms, which
    carry most of the sum, are added by `math.fsum`; the others, chunk by
    chunk, by numpy's pairwise sum (`np.add.reduce`, which `np.sum` calls),
    so its larger rounding allowance falls only on the small rest; the
    pieces by `math.fsum`.  Each chunk also gives sum k * term (`np.dot`),
    which is r dS/dr of the partial sum.  `sum()` returns the partial sum S_n and a
    bound on its rounding error plus the effect of the rounding of r = z / q
    on the whole series, with u = eps / 2:
      * each term carries two pow calls within one ulp each (as libm's;
        numpy 2.4's vectorised pow measured at most 0.68 ulp on an
        AVX-512 x86-64 build) and one product: at most 5 u relative;
      * the head's `math.fsum` and the final `math.fsum` are correctly
        rounded: at most u S each;
      * within a chunk of at most `_CHUNK` terms numpy's pairwise sum passes
        each term through at most `_PAIRWISE_DEPTH` = 30 additions, each
        with error at most u times its (positive) result: at most 30 u of
        the chunk's sum;
      * the rounded r is within u r of z / q (plus half a subnormal ulp), so
        the series moves by at most u r S'(xi) for some xi between the two.
        r S'(r) = sum k r**k / k**expo is the dot product over the summed
        terms plus at most (n + 1) tail(n) beyond them; doubling that tail
        part covers xi > r, even at r one ulp below 1;
      * the float tail bound carries seven roundings (two pow, a product,
        1 - r, a quotient): at most 3.5 eps relative.
    The allowance eps * (4 S + 15 S_chunks + r S' / 2 + 4 tail) covers these
    to first order and leaves eps S / 2 for the second-order terms;
    `_UNDERFLOW` per term covers subnormal terms and arguments.
    """

    def __init__(self, r: float, expo: float):
        self.r, self.expo = r, expo
        self.n = 0
        self.head = []  # fsum of the terms up to _HEAD
        self.chunks = []  # pairwise sums of the other terms, per chunk
        self.weighted = []  # sum k * term, per chunk

    def tail(self, n: int) -> float:
        """Bound on the terms beyond n: each is at most r times the one before."""
        return self.r ** (n + 1) * (n + 1) ** -self.expo / (1.0 - self.r)

    def extend(self, n_terms: int) -> None:
        """Add the terms up to n_terms to the partial sum."""
        while self.n < n_terms:
            start = self.n + 1
            stop = min(n_terms, start + _CHUNK - 1)
            ks = np.arange(start, stop + 1, dtype=np.float64)
            terms = np.power(self.r, ks) * np.power(ks, -self.expo)
            split = max(0, _HEAD + 1 - start)  # terms[:split] are in the head
            if split:
                self.head.append(math.fsum(terms[:split].tolist()))
            self.chunks.append(float(np.add.reduce(terms[split:])))
            self.weighted.append(float(np.dot(terms, ks)))
            self.n = stop

    def sum(self):
        """The partial sum S_n and its rounding allowance (see the class docstring)."""
        value = math.fsum(self.head + self.chunks)
        tail = self.tail(self.n)
        slope = math.fsum(self.weighted) + 2.0 * (self.n + 1) * tail
        rounding = _EPS * (
            4.0 * value + 0.5 * _PAIRWISE_DEPTH * math.fsum(self.chunks) + 0.5 * slope + 4.0 * tail
        )
        return value, rounding + (self.n + 2) * _UNDERFLOW


def f_gen(order: float, q: float, z: float, tol: float = 1e-12) -> SeriesValue:
    """Generalized Fermi-Dirac function of the q-scaled fugacity.

    Depends on q and z only through y = q z, so f(order, q, z) equals
    f(order, 1, q z) identically.  Requires y <= 1; diverges beyond.
    """
    require_positive_q(q)
    _validate_common(order, z, tol)
    y = q * z
    if y > 1.0:
        raise SeriesConvergenceError(f"series diverges for q*z = {y} > 1")
    if y == 0.0:
        return SeriesValue(0.0, 0.0, 1)
    if order == 1:
        value = math.log1p(y)
        bound = 4.0 * _EPS * (1.0 + abs(value))
        if bound > tol:
            raise SeriesConvergenceError(
                f"tolerance {tol} is below evaluable precision {bound}"
            )
        return SeriesValue(value, bound, 1)
    total, bound, n_terms = _alternating_sum(y, order, tol)
    return SeriesValue(total, bound, n_terms)


def f_gen_array(order: float, q: float, z, tol: float = 1e-12) -> tuple:
    """`f_gen` at each point of the array z: (SeriesValue of arrays, mask of
    the points where `f_gen` raises SeriesConvergenceError).

    Each cell is the scalar call's bit for bit: the same Horner kernel runs
    on all points at once, each with the scalar's term count, whatever the
    caller's numpy error settings.  Masked cells hold nan and 0 terms.
    Raises the scalar's ValueError if any point, or `order`, `q` or `tol`,
    is outside its domain.
    """
    require_positive_q(q)
    z = np.asarray(z, dtype=float)
    bad = ~(np.isfinite(z) & (z >= 0.0))
    _validate_common(order, float(z[bad][0]) if bad.any() else 0.0, tol)
    with np.errstate(all="ignore"):  # overflow to inf is silent, as in f_gen
        y = q * z
        failed = y > 1.0
        live = ~failed & (y != 0.0)
        value = np.where(failed, np.nan, 0.0)
        bound = value.copy()
        terms = np.where(failed, 0, 1)
        y_live = y[live]
        if order == 1:
            v = np.fromiter(map(math.log1p, y_live.tolist()), float, y_live.size)
            b = 4.0 * _EPS * (1.0 + abs(v))
            over = b > tol
            v[over] = b[over] = np.nan
            n = np.where(over, 0, 1)
        else:
            v, b, n, over = _alternating_sum_array(y_live, order, tol)
        value[live], bound[live], terms[live] = v, b, n
        failed[live] = over
    return SeriesValue(value, bound, terms), failed


def standard_fd(order: float, z: float, tol: float = 1e-12) -> SeriesValue:
    """Undeformed Fermi-Dirac function: the q = 1 case of `f_gen`, z <= 1."""
    if z > 1.0:
        raise SeriesConvergenceError(f"series form requires z <= 1, got {z}")
    return f_gen(order, 1.0, z, tol)


def h_gen(order: float, z: float, q: float, tol: float = 1e-12) -> SeriesValue:
    """Two-sum generalized Fermi-Dirac function of the Pauli-violating gas.

    Defined for 0 < q < 1 with z/q < 1; the 1/(2 ln q) prefactor is negative
    there and the second sum dominates, so values are positive for small z.

    The error bound covers, besides the truncation of both sums:
      * the rounding of y = q z, which moves the alternating sum by at most
        u y (its y-derivative has modulus at most 1), with u = eps / 2;
      * the rounding of the accelerated sum (`_alternating_sum`) and of the
        direct sum, including that of r = z / q (`_PositiveSum`);
      * the rounding of (s_alt - s_pos) / (2 ln q): the subtraction and the
        quotient (u each) and libm's log (one ulp), at most 2 eps |s_alt -
        s_pos| to first order, allowed as 2.5 eps;
      * the float evaluation of the bound itself, a few u relative, covered
        by the factor 1 + 8 eps.
    The budget 2 |ln q| tol for s_alt - s_pos is split by the rounding
    floors, not in fixed shares.  The alternating half takes the fewest
    terms whose truncation is at most an eighth of it (each further term
    divides that by about 5.8).  The direct sum then runs until its tail
    fits in 7/8 of what the alternating half leaves; if its rounding
    allowance, known only once it is summed, leaves too little room, it
    continues from where it stopped until its tail fits in 7/8 of the room
    left.  A tolerance below the rounding floor raises
    `SeriesConvergenceError`.
    """
    require_positive_q(q)
    if q >= 1.0:
        raise ValueError("h-series requires 0 < q < 1 (no q = 1 limit exists)")
    _validate_common(order, z, tol)
    r = z / q
    if r >= 1.0:
        raise SeriesConvergenceError(f"second sum diverges for z/q = {r} >= 1")
    if z == 0.0:
        return SeriesValue(0.0, 0.0, 1)
    y = q * z
    expo = order + 1.0
    log_q = math.log(q)
    scale = 2.0 * abs(log_q)
    # for the error of s_alt - s_pos, less a margin for the factor 1 + 8 eps
    budget = tol * scale / (1.0 + 16.0 * _EPS)
    # truncation y / T_n(3) <= budget / 8; y / tol / scale is inf, not an
    # error, when tol * scale underflows
    n_alt = min(max(1, bisect_left(_T3_FLOAT, 8.0 * y / tol / scale)), _MAX_ACCEL_TERMS)
    s_alt, rounding = _accelerated_sum(y, expo, n_alt)
    e_alt = y / _T3[n_alt] + rounding + 0.5 * _EPS * y + _UNDERFLOW
    positive = _PositiveSum(r, expo)
    room = budget - e_alt
    while room > 0.0:
        positive.extend(_cutoff(positive, 0.875 * room, max(positive.n, 1)))
        s_pos, rounding = positive.sum()
        rounding += 2.5 * _EPS * abs(s_alt - s_pos)
        bound = (e_alt + positive.tail(positive.n) + rounding) / scale * (1.0 + 8.0 * _EPS)
        if bound <= tol:
            value = (s_alt - s_pos) / (2.0 * log_q)
            return SeriesValue(value, bound, n_alt + positive.n)
        room = budget - e_alt - rounding
    raise SeriesConvergenceError(
        f"h-series: tolerance {tol} is below evaluable precision "
        f"{(budget - room) / scale:.3g}"
    )
