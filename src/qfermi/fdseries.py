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

The h-family needs 0 < q < 1 and z/q < 1 strictly.  Its alternating sum is
the same accelerated kernel; its second sum, in r = z/q, is summed directly
up to a geometric tail bound, in spans of np.power terms reduced by numpy's
pairwise sum, with the pieces added by two-sum and the rounding of r
corrected to first order by the exact remainder z - r q.  These kernels too
run on a float and on an array of points alike, each point with its own
cutoff, so `h_gen_array` gives each point the bits of `h_gen`.  The bound
covers the rounding of the arguments, of both sums and of the final
combination (`_h_bound`); here too a tolerance below that floor raises
`SeriesConvergenceError`.  Evaluation is series-only: the degenerate regime
beyond the convergence disc is reached through the low-temperature
expansions in `thermo`, never by analytic continuation here.

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
_CHUNK = 1 << 13  # 64 KiB of float64 per row: temporaries stay in cache and off mmap
_HEAD = 64  # leading terms of a direct sum, one piece with a shallow pairwise tree
_SLAB = 1 << 16  # most terms in one 2-D block of the array pass (512 KiB)
# Most additions between a term and numpy's pairwise sum of at most _CHUNK
# terms (np.add.reduce of a contiguous float64 row): a block of up to 128
# terms costs at most 24 (one of 8 interleaved accumulators, 3 to combine
# them, up to 7 for a remainder of the length mod 8), and each halving of a
# longer block one more, at most 6 times for these lengths.
_PAIRWISE_DEPTH = 30
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into 26-bit halves
_EXACT = 2.0**-900  # from here up, Dekker's product r q has no underflow
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
_SPAN_INDICES = np.arange(1.0, _HEAD + _CHUNK + 1)  # k of the longest direct-sum span


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


def _validate_points(order: float, z: np.ndarray, tol: float) -> None:
    """`_validate_common` as a loop of the scalar meets it: at the first
    point, then at the first one outside the domain."""
    bad = ~(np.isfinite(z) & (z >= 0.0))
    for point in z.ravel()[:1].tolist() + z[bad][:1].tolist() or [0.0]:
        _validate_common(order, point, tol)


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
    width = int(ns.max(initial=0))
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


def _direct_tail(r, expo, n):
    """r**(n+1) (n+1)**-expo / (1 - r), a bound on the direct sum's terms
    beyond n (each is at most r times the one before), for an int array n.
    One point passes a 1-element n: numpy's power takes another path on 0-d
    operands, whose last bit can differ."""
    m = n + 1.0
    return np.power(r, m) * np.power(m, -expo) / (1.0 - r)


def _cutoff_root(r, expo, tol, lib):
    """The real L at which the exact tail meets tol, by `lib` (math or numpy):
    Newton's method in x = log(L + 1) (see `_direct_cutoff`)."""
    log_r, target = lib.log(r), lib.log(tol) + lib.log1p(-r)
    x = lib.log(target / log_r)
    for _ in range(7):
        m_log_r = lib.exp(x) * log_r
        x -= (m_log_r - expo * x - target) / (m_log_r - expo)
    return lib.exp(x) - 1.0


def _direct_cutoff(r, expo, tol, start):
    """(L, its tail) for the smallest L >= start with `_direct_tail` <= tol,
    for a float r and tol and an int start, or at each point of 1-D arrays of
    the three.  Past `_MAX_TERMS` the float raises SeriesConvergenceError and
    the array holds L = 0.

    Below `_MAX_TERMS` each step divides the tail by more than 1 + 7e-8, far
    beyond its roundings, so the float tail decreases (strictly, until
    r**(L+1) is subnormal) and any search finds the same L.  Newton's method
    in x = log(L + 1) on e**x log r - expo x = log(tol (1 - r)), concave and
    decreasing in x, falls monotonically to its root from the geometric
    estimate above it, within 1e-7 in seven steps over random r, expo and
    tol.  The tail is checked at start, at the first L the root admits and
    at the one below; where the root missed, the float's bisection settles it.
    """
    if isinstance(r, float):
        guess = start + 1  # where tol (1 - r) >= 1/2, start suffices
        if tol * (1.0 - r) < 0.5:
            guess = min(max(math.ceil(_cutoff_root(r, expo, tol, math)), start + 1), _MAX_TERMS)
        t0, t1, t2 = _direct_tail(r, expo, np.array([start, guess - 1, guess])).tolist()
        if t0 <= tol:
            return start, t0
        lo, hi, tail = ((start, guess - 1, t1) if t1 <= tol else (guess - 1, guess, t2)
                        if t2 <= tol else (guess, _MAX_TERMS + 1, math.inf))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            t = _direct_tail(r, expo, np.array([mid])).item()
            lo, hi, tail = (lo, mid, t) if t <= tol else (mid, hi, tail)
        if hi > _MAX_TERMS:
            raise SeriesConvergenceError(f"geometric-tail series: tolerance {tol} needs more "
                                         f"than {_MAX_TERMS} terms")
        return hi, tail
    with np.errstate(all="ignore"):  # nan roots where tol (1 - r) >= 1
        root = np.ceil(_cutoff_root(r, expo, tol, np))
    guess = np.fmin(np.fmax(root, start + 1), _MAX_TERMS).astype(np.int64)
    tails = _direct_tail(r, expo, np.array([start, guess - 1, guess]))
    first, below, at = tails <= tol
    cutoff, tail = np.where(first, start, guess), np.where(first, tails[0], tails[2])
    for i in np.flatnonzero(~first & (below | ~at)).tolist():  # the root missed
        try:
            cutoff[i], tail[i] = _direct_cutoff(float(r[i]), expo, float(tol[i]), int(start[i]))
        except SeriesConvergenceError:
            cutoff[i] = 0
    return cutoff, tail


def _pairwise_depth(n: int) -> int:
    """Most additions on a term's path in numpy's pairwise sum of n <= _CHUNK
    terms (see `_PAIRWISE_DEPTH`)."""
    return _PAIRWISE_DEPTH if n > 128 else max(n - 1, 0) if n < 8 else n // 8 + 2 + n % 8


def _direct_span(state, r, expo, first, length: int, split: int):
    """`state` with the terms first .. first + length - 1 added as two
    pieces, the first `split` terms and the rest (see `_direct_extend`)."""
    k = _SPAN_INDICES[:length] + (first - 1)
    terms = np.power(r, k) * np.power(k, -expo)
    total, error, spread, slope = state
    for piece, size in ((terms[..., :split], split), (terms[..., split:], length - split)):
        if size:
            part = np.add.reduce(piece, axis=-1)
            new = total + part
            back = new - total
            error = error + ((total - (new - back)) + (part - back))
            total, spread = new, spread + _pairwise_depth(size) * part
    return total, error, spread, slope + np.vecdot(terms, k)


def _direct_extend(r, expo, n, stop, state):
    """`state` = (total, its rounding error, spread, slope) with the terms
    n + 1 .. stop of the direct sum added, for a float r and ints n and stop,
    or per point of 1-D arrays with a (4, points) state.  Spans of `_CHUNK`
    terms, the first `_HEAD` longer, are blocks of np.power(r, k) *
    np.power(k, -expo); their terms up to `_HEAD` and the rest are pieces
    summed by np.add.reduce (numpy's pairwise sum).  Knuth's two-sum adds
    each piece to total and keeps the error exactly, spread gathers
    `_pairwise_depth` times each piece, slope np.vecdot(terms, k) = r dS/dr.
    The array takes one span of every point at a time; rows of one span
    shape share 2-D blocks of about `_SLAB` terms, and a row of a block
    gives the bits of the 1-D call.
    """
    if isinstance(r, float):
        while n < stop:
            end = min(stop, max(n, _HEAD) + _CHUNK)
            split = min(max(_HEAD - n, 0), end - n)
            state, n = _direct_span(state, r, expo, n + 1, end - n, split), end
        return state
    state, n = state.copy(), n.copy()
    todo = np.flatnonzero(n < stop)
    while todo.size:
        start = n[todo]
        end = np.minimum(stop[todo], np.maximum(start, _HEAD) + _CHUNK)
        shape = (end - start) * (_HEAD + 1) + np.clip(_HEAD - start, 0, end - start)
        for key in set(shape.tolist()):  # np.unique would import numpy.ma (1.3 MB)
            length, split = divmod(key, _HEAD + 1)
            rows = todo[shape == key]
            for at in np.array_split(rows, -(-rows.size * length // _SLAB)):
                first = n[at, None] + 1
                state[:, at] = _direct_span(state[:, at], r[at, None], expo, first, length, split)
        n[todo] = end
        todo = todo[end < stop[todo]]
    return state


def _h_alternating(y, expo, tol, scale):
    """(terms, value, error) of h's alternating sum, for a float y or per
    point: the fewest terms whose truncation is at most an eighth of the
    budget 2 |ln q| tol (y / tol / scale is inf when tol * scale underflows),
    and the error covers the rounding of y = q z, at most u y."""
    x = 8.0 * y / tol / scale
    if isinstance(y, float):
        n = min(max(1, bisect_left(_T3_FLOAT, x)), _MAX_ACCEL_TERMS)
    else:
        n = np.clip(np.searchsorted(_T3_ARRAY, x), 1, _MAX_ACCEL_TERMS)
    value, rounding = _accelerated_sum(y, expo, n)
    return n, value, y / _T3_ARRAY[n] + rounding + 0.5 * _EPS * y + _UNDERFLOW


def _h_bound(z, q, r, s_alt, e_alt, state, n, tail, scale):
    """The direct sum s_pos after n terms, the rounding allowance of
    s_alt - s_pos, and the bound of h, for floats or per point.

    Rounding of s_pos at one point, with u = eps / 2:
      * a term has two pow calls within one ulp each (numpy 2.4's vectorised
        pow measured at most 0.68 ulp on an AVX-512 x86-64 build) and a
        product: at most 5 u relative;
      * a piece of l terms is numpy's pairwise sum, which passes each
        (positive) term through at most `_pairwise_depth`(l) additions, each
        off by at most u times its result: u spread in all;
      * two-sum adds the pieces exactly but for the rounding of the error
        term, and total + (error + slip slope) rounds once: u s_pos;
      * r = fl(z / q) is off z / q by d, |d| <= u r.  Where z >= `_EXACT`,
        Dekker's product and Sterbenz's lemma give z - r q exactly, so
        slip = (z - r q) / z is d / r to relative u and slip slope adds
        d S'(r) of the summed terms.  Left is d times S' of the terms beyond
        n, whose r S' is at most (n + 1) tail(n) (k**(1 - expo) decreases),
        at most twice that between r and z / q as 1 - z / q >= (1 - r) / 2:
        eps (n + 1) tail; the rest, rounding of slip and slope included, is
        below 40 (n u)**2 s_pos.  Below `_EXACT` the product may underflow,
        slip is 0 and d S' of the summed terms stays: u slope;
      * the float tail has seven roundings (two pow, a product, 1 - r, a
        quotient): at most 3.5 eps relative.
    The allowance eps (3.5 s_pos + spread / 2 + (n + 5) tail) covers these
    to first order and leaves eps s_pos / 2 for second-order terms, and
    `_UNDERFLOW` per term covers subnormal terms and arguments.  Then
    (s_alt - s_pos) / (2 ln q) rounds a subtraction, a quotient and libm's
    log: at most 2 eps |s_alt - s_pos|, allowed as 2.5 eps; the factor
    1 + 8 eps covers the float evaluation of the bound itself.
    """
    c_r, c_q = _SPLIT * r, _SPLIT * q  # Veltkamp's splits, for Dekker's product r q
    r_hi, q_hi = c_r - (c_r - r), c_q - (c_q - q)
    r_lo, q_lo = r - r_hi, q - q_hi
    p = r * q
    remainder = (z - p) - (((r_hi * q_hi - p) + r_hi * q_lo + r_lo * q_hi) + r_lo * q_lo)
    slip = remainder / z * (z >= _EXACT)
    total, error, spread, slope = state
    s_pos = total + (error + slip * slope)
    rounding = (_EPS * (3.5 * s_pos + 0.5 * spread + (n + 5.0) * tail + 0.5 * (z < _EXACT) * slope)
                + (n + 2) * _UNDERFLOW + 2.5 * _EPS * abs(s_alt - s_pos))
    return s_pos, rounding, (e_alt + tail + rounding) / scale * (1.0 + 8.0 * _EPS)


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
    _validate_points(order, z, tol)
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
    The bound covers the truncation and rounding of both sums and of their
    combination (`_h_alternating`, `_h_bound`).  The alternating sum takes an
    eighth of the budget 2 |ln q| tol; the direct sum runs until its tail fits
    in 7/8 of what is left and, while its rounding allowance leaves too little
    room, continues until its tail fits in 7/8 of the room left.  A tolerance
    below the rounding floor raises `SeriesConvergenceError`.
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
    expo, scale = order + 1.0, 2.0 * abs(math.log(q))
    budget = tol * scale / (1.0 + 16.0 * _EPS)  # a margin for the factor 1 + 8 eps
    n_alt, s_alt, e_alt = _h_alternating(q * z, expo, tol, scale)
    n, state, room = 0, (0.0,) * 4, budget - e_alt
    while room > 0.0:
        stop, tail = _direct_cutoff(r, expo, 0.875 * room, max(n, 1))
        state, n = _direct_extend(r, expo, n, stop, state), stop
        s_pos, rounding, bound = _h_bound(z, q, r, s_alt, e_alt, state, n, tail, scale)
        if bound <= tol:
            value = (s_alt - s_pos) / (2.0 * math.log(q))
            return SeriesValue(float(value), float(bound), n_alt + n)
        room = budget - e_alt - rounding
    raise SeriesConvergenceError(
        f"h-series: tolerance {tol} is below evaluable precision {(budget - room) / scale:.3g}"
    )


def h_gen_array(order: float, z, q: float, tol: float = 1e-12) -> tuple:
    """`h_gen` at each point of the array z: (SeriesValue of arrays, mask of
    the points where `h_gen` raises SeriesConvergenceError).  Each cell is the
    scalar's bit for bit, whatever the caller's numpy error settings: the same
    kernels run on all points at once, and each point continues where the
    scalar does.  Masked cells hold nan and 0 terms.  Raises the ValueError of
    a loop of `h_gen` over the points.
    """
    require_positive_q(q)
    if q >= 1.0:
        raise ValueError("h-series requires 0 < q < 1 (no q = 1 limit exists)")
    z = np.asarray(z, dtype=float)
    _validate_points(order, z, tol)
    with np.errstate(all="ignore"):
        ratio = z / q
        live = (ratio < 1.0) & (z != 0.0)
        z_live, r = z[live], ratio[live]
        expo, scale = order + 1.0, 2.0 * abs(math.log(q))
        budget = tol * scale / (1.0 + 16.0 * _EPS)
        n_alt, s_alt, e_alt = _h_alternating(q * z_live, expo, tol, scale)
        n, state, room = np.zeros(r.size, dtype=np.int64), np.zeros((4, r.size)), budget - e_alt
        go, done = room > 0.0, np.zeros(r.size, dtype=bool)
        s_pos = bound = np.zeros(r.size)
        while go.any():
            fit = np.where(go, 0.875 * room, np.inf)  # inf: the others keep their n
            stop, tail = _direct_cutoff(r, expo, fit, np.maximum(n, 1))
            go &= stop > 0
            stop = np.where(go, stop, n)
            state, n = _direct_extend(r, expo, n, stop, state), stop
            s_pos, rounding, bound = _h_bound(z_live, q, r, s_alt, e_alt, state, n, tail, scale)
            done |= go & (bound <= tol)
            room = np.where(go, budget - e_alt - rounding, room)
            go &= ~done & (room > 0.0)
        failed = ratio >= 1.0
        failed[live] = ~done
        value, error = np.zeros((2,) + z.shape)
        value[live], error[live] = (s_alt - s_pos) / (2.0 * math.log(q)), bound
        terms = np.ones(z.shape, dtype=np.int64)
        terms[live] = n_alt + n
        value[failed], error[failed], terms[failed] = np.nan, np.nan, 0
    return SeriesValue(value, error, terms), failed
