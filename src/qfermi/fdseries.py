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
is.  The reported bound adds a floating-point rounding term (see
`_alternating_sum`); a tolerance below that floor raises
`SeriesConvergenceError` rather than returning an uncertified bound.

The h-family needs 0 < q < 1 and z/q < 1 strictly; its second
(non-alternating) sum is summed directly up to a geometric tail bound.
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


def _cutoff(bound, tol: float) -> int:
    """Smallest L with bound(L) <= tol; bound must be decreasing in L."""
    if bound(1) <= tol:
        return 1
    hi = 2
    while bound(hi) > tol:
        hi *= 2
        if hi > _MAX_TERMS:
            raise SeriesConvergenceError(
                f"geometric-tail series: tolerance {tol} needs more than {_MAX_TERMS} terms"
            )
    lo = hi // 2  # bound(lo) > tol
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) <= tol:
            hi = mid
        else:
            lo = mid
    return hi


def _chunked_sum(r: float, expo: float, n_terms: int) -> float:
    partials = []
    start = 1
    while start <= n_terms:
        stop = min(n_terms, start + _CHUNK - 1)
        ls = np.arange(start, stop + 1, dtype=np.float64)
        partials.append(float(np.sum(np.power(r, ls) * np.power(ls, -expo))))
        start = stop + 1
    return math.fsum(partials)


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


def _alternating_sum(y: float, expo: float, tol: float):
    """sum (-1)**(l-1) y**l / l**expo for 0 < y <= 1, expo > 0, accelerated.

    Uses the smallest n whose bound a_0 / T_n(3) + rounding is <= tol, with
    a_0 = y.  Rounding term, with u = eps / 2:
      * each product w_k * y**l * l**-expo carries five roundings (the
        weight, two libm pow calls within one ulp each, two products), a
        relative error of at most 7 u = 3.5 eps (to first order);
      * the correctly rounded `math.fsum` adds at most u |S|;
      * the float quotient a_0 / T_n(3) and the final addition add at most
        3 u a_0 / T_n(3) <= eps a_0 / 2.
    The term eps * (5 * sum |w_k a_k| + |S|) covers the first two and leaves
    1.5 eps * sum |w_k a_k| >= eps a_0 (as |w_0| >= 2/3) for the third and
    for the second-order terms.  `_UNDERFLOW` per term covers subnormal
    products, whose rounding error is absolute, not relative.
    """
    n = min(max(1, bisect_left(_T3_FLOAT, y / tol)), _MAX_ACCEL_TERMS)
    while True:
        products = [w * y**l * l**-expo for l, w in zip(_INDICES, _accel_weights(n))]
        value = math.fsum(products)
        rounding = _EPS * (5.0 * math.fsum(map(abs, products)) + abs(value))
        rounding += n * _UNDERFLOW
        bound = y / _T3[n] + rounding
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


def _positive_sum(r: float, expo: float, tol: float):
    """sum r**k / k**expo for 0 < r < 1 with a geometric tail bound."""
    tail = lambda l: r ** (l + 1) * (l + 1) ** -expo / (1.0 - r)
    n_terms = _cutoff(tail, tol)
    return _chunked_sum(r, expo, n_terms), tail(n_terms), n_terms


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


def standard_fd(order: float, z: float, tol: float = 1e-12) -> SeriesValue:
    """Undeformed Fermi-Dirac function: the q = 1 case of `f_gen`, z <= 1."""
    if z > 1.0:
        raise SeriesConvergenceError(f"series form requires z <= 1, got {z}")
    return f_gen(order, 1.0, z, tol)


def h_gen(order: float, z: float, q: float, tol: float = 1e-12) -> SeriesValue:
    """Two-sum generalized Fermi-Dirac function of the Pauli-violating gas.

    Defined for 0 < q < 1 with z/q < 1; the 1/(2 ln q) prefactor is negative
    there and the second sum dominates, so values are positive for small z.
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
    log_q = math.log(q)
    tol_each = tol * abs(log_q)  # combined bound /(2 |ln q|) then stays <= tol
    s_alt, e_alt, n_alt = _alternating_sum(q * z, order + 1.0, tol_each)
    s_pos, e_pos, n_pos = _positive_sum(r, order + 1.0, tol_each)
    value = (s_alt - s_pos) / (2.0 * log_q)
    bound = (e_alt + e_pos) / (2.0 * abs(log_q))
    return SeriesValue(value, bound, n_alt + n_pos)
