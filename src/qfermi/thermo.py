"""Statistical distributions and reduced-unit gas thermodynamics.

Units and variables are dimensionless throughout: k_B = 1, eta = beta
(epsilon - mu) for distributions, fugacity z = exp(beta mu) for the series
equations of state, and t = T/T_F with energies in Fermi-energy units for
the chemical-potential work.  Pressure means P lambda**3 / kT, density
means lambda**3 / v (thermal wavelength cubed over volume per particle),
and energy density means U lambda**3 / (V kT), so the particle mass and
Planck's constant never appear as numbers.

Distribution functions implement each model's closed form:

    FN:    q / (exp(eta) + q)
    CKN:   (1/q) / (exp(eta) + 1/q)
    PVC:   |ln( |exp(eta) - 1/q| / (exp(eta) + q) )| / (2 |ln q|)
    VPJC:  |ln( |exp(eta) - 1|   / (exp(eta) + q) )| / |ln q|

The PVC form is singular at eta = ln(1/q) and the VPJC form at eta = 0;
both are defined for 0 < q < 1 only, with the plain Fermi-Dirac function
1/(exp(eta) + 1) available separately as their q -> 1 limit.  The closed
forms for PVC/VPJC arise from the occupation-ratio condition
[n]/[n+1] = exp(-eta); `occupation_ratio_solve` re-solves that condition
by bisection as an independent cross-check.

Each distribution, `fn_mu_lowT` and `fn_mu_numeric` has one body, its
array kernel; the public scalar is a one-element call of it (16 to 48 us for
a distribution on a 2-vCPU Xeon VM, where a `math` body takes 0.25 to
0.65 us; about 1 ms for `fn_mu_numeric`, whose bisection pays numpy's
per-call overhead on each of its steps).  The equations of state stay pairs
of a scalar and its bit-identical `*_array` twin, both taking ln z from
numpy's log: a one-element twin call costs about 30 times the scalar, and
the series benchmark times the scalar EOS forms.  `MODELS` holds each
model's kernels in one record, with its trace levels and ratio constants,
which the trace and solver read.

The exact-trace averages deliberately coexist with the closed-form
distributions: for a single FN mode the exact two-state trace gives the
undeformed 1/(exp(eta)+1), not q/(exp(eta)+q), and this module surfaces
that disagreement as data rather than reconciling it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fdseries import f_gen, f_gen_array, h_gen, h_gen_array
from .models import (
    MAX_FN_MODES,
    Model,
    SeriesConvergenceError,
    SingularPointError,
    require_open_unit_q,
    require_positive_q,
)
from .spectra import spectrum

# ---------------------------------------------------------------------------
# distribution functions


def _eta_array(eta) -> np.ndarray:
    eta = np.asarray(eta, dtype=float)
    if np.isnan(eta).any():
        raise ValueError("distribution argument eta must not be NaN")
    return eta


# Each `*_distribution_array` kernel returns (values, singular mask or None)
# for an array of eta, with nan in masked cells; its public scalar is a
# one-element call that raises SingularPointError where the mask is set.
# exp(-|eta|) is exp(-eta) for eta > 0 and exp(eta) otherwise, so one call
# serves both branches.  Past |eta| = _DEEP it is below 2**-1032, a
# subnormal of at most 42 bits, fewer than a log-domain form keeps, which
# loses about |eta| u (u = 2**-53) in rounding eta - ln q; there the kernels
# take the log domain.
# The ufuncs and the arithmetic run under np.errstate(all="ignore"),
# whatever the caller's numpy settings.  numpy's float64 exp, expm1 and log
# are within 1 ulp of the exact value, as its accuracy tests hold them (1e5
# random points read at most 0.67, 0.51 and 0.53 ulp on its AVX-512 loops),
# and so are libm's, which `math` calls; the two agree on every cell only
# where numpy dispatches to libm.

_MIN_NORMAL = 2.0**-1022
_DEEP = 1032.0 * math.log(2.0)


def _ladder_occupation(num, den, diff, eta, tail, b, log_q, k) -> tuple:
    """(|log(num / den)| / (k |ln q|) per cell, the PVC (k = 2) and VPJC
    (k = 1) closed forms, singular mask) with nan where num = 0, the
    singular cells.  Where the ratio lies in [1/2, 3/2] its log is
    log1p(diff / den), from diff = num - den in closed form, as a rounded
    ratio near 1 would lose the log's leading digits; where the
    quotient underflows to a subnormal or 0, or overflows, log(num) -
    log(den), which keeps its digits.  Past |eta| = _DEEP, for eta < 0 and a
    ratio far from 1, den = e + q (e = exp(eta)) is taken as
    q (1 + exp(eta - ln q)), which a subnormal q needs; on the eta > 0 cells
    `tail`, diff = -b exp(-eta), x = -diff is exp(ln b - eta), and where
    ln x < -_DEEP too, the value x / c, c = k |ln q|, is
    exp(ln b - eta - ln c).  Call under np.errstate(all="ignore")."""
    singular = num == 0.0
    ratio = np.where(singular, np.nan, num / den)
    near = np.abs(diff) <= 0.5 * den
    edge = (ratio < _MIN_NORMAL) | (ratio == math.inf)
    ratio[edge | near] = 1.0
    log_ratio = np.log(ratio, out=ratio)  # an array also for 0-d input
    log_ratio[edge] = np.log(num[edge]) - np.log(den[edge])
    log_ratio[near] = np.log1p(diff[near] / den[near])
    deep = np.abs(eta) > _DEEP
    lower = deep & (eta < 0.0) & ~near
    log_ratio[lower] = np.log(num[lower]) - log_q - np.log1p(np.exp(eta[lower] - log_q))
    c = -k * log_q
    values = np.abs(log_ratio, out=log_ratio)
    values /= c
    upper = deep & tail & near
    if upper.any():
        log_x = math.log(b) - eta[upper]
        values[upper] = np.where(log_x < -_DEEP, np.exp(log_x - math.log(c)),
                                 -np.log1p(-np.exp(log_x)) / c)
    return values, singular


def fn_distribution(eta: float, q: float) -> float:
    """Mean occupation q / (exp(eta) + q) of the multimode FN gas."""
    return float(fn_distribution_array(eta, q)[0])


def fn_distribution_array(eta, q: float) -> tuple:
    """`fn_distribution` at each point of the array `eta`; no mask."""
    require_positive_q(q)
    eta = _eta_array(eta)
    with np.errstate(all="ignore"):
        e = np.exp(-np.abs(eta))
        qe = q * e
        values = np.where(eta > 0.0, qe / (1.0 + qe), q / (e + q))
        deep = np.abs(eta) > _DEEP  # the logistic function of x = ln q - eta
        if deep.any():
            x = math.log(q) - eta[deep]
            ex = np.exp(-np.abs(x))
            values[deep] = np.where(x < 0.0, ex / (1.0 + ex), 1.0 / (1.0 + ex))
        return values, None


def ckn_distribution(eta: float, q: float) -> float:
    """Mean occupation of the CKN gas; the FN form at q -> 1/q."""
    require_positive_q(q)
    return fn_distribution(eta, 1.0 / q)


def ckn_distribution_array(eta, q: float) -> tuple:
    """`ckn_distribution` at each point of the array `eta`; no mask."""
    require_positive_q(q)
    return fn_distribution_array(eta, 1.0 / q)


def q1_limit_distribution(eta: float) -> float:
    """Plain Fermi-Dirac occupation 1 / (exp(eta) + 1)."""
    return float(q1_limit_distribution_array(eta)[0])


def q1_limit_distribution_array(eta) -> tuple:
    """`q1_limit_distribution` at each point of the array `eta`: the FN kernel at q = 1."""
    return fn_distribution_array(eta, 1.0)


def _require_open_unit_with_limit_hint(q: float, name: str) -> None:
    require_positive_q(q)
    if q == 1.0:
        raise ValueError(
            f"the {name} closed form is a formal solution for 0 < q < 1 only; "
            "use q1_limit_distribution for the q = 1 limit"
        )
    if q > 1.0:
        raise ValueError(f"the {name} distribution requires 0 < q < 1, got {q}")


def pvc_distribution(eta: float, q: float) -> float:
    """PVC mean occupation; singular where exp(eta) = 1/q."""
    values, singular = pvc_distribution_array(eta, q)
    if singular:
        raise SingularPointError(
            f"PVC distribution is singular at eta = ln(1/q) = {-math.log(q)}"
        )
    return float(values)


def pvc_distribution_array(eta, q: float) -> tuple:
    """`pvc_distribution` at each point of the array `eta`, masked at
    eta = -ln q."""
    _require_open_unit_with_limit_hint(q, "PVC")
    if q <= 2.0**-1024:
        raise ValueError(f"the PVC distribution needs a finite 1/q, got q = {q}")
    eta = _eta_array(eta)
    with np.errstate(all="ignore"):
        e = np.exp(-np.abs(eta))
        positive = eta > 0.0
        # |1 - e/q| for eta > 0 and 1/q - e otherwise, by expm1 of the gap to
        # the singular point eta = -ln q
        log_q = math.log(q)
        gap_s = np.where(positive, -eta - log_q, eta + log_q)
        num = np.abs(np.expm1(gap_s)) / np.where(positive, 1.0, q)
        den = np.where(positive, 1.0 + q * e, e + q)
        b, gap = q + 1.0 / q, (1.0 - q) * (1.0 + q) / q  # gap = 1/q - q
        tail = positive & (e < q)
        diff = np.where(tail, -b * e, np.where(positive, gap * e - 2.0, gap - 2.0 * e))
        return _ladder_occupation(num, den, diff, eta, tail, b, log_q, 2.0)


def vpjc_distribution(eta: float, q: float) -> float:
    """VPJC mean occupation; discontinuous (divergent) at eta = 0.

    For 0 < q < 1 the function vanishes at eta = ln((1-q)/2) on the
    occupied side; see `vpjc_zero_crossing`.
    """
    values, singular = vpjc_distribution_array(eta, q)
    if singular:
        raise SingularPointError("VPJC distribution is discontinuous at eta = 0")
    return float(values)


def vpjc_distribution_array(eta, q: float) -> tuple:
    """`vpjc_distribution` at each point of the array `eta`, masked at eta = 0."""
    _require_open_unit_with_limit_hint(q, "VPJC")
    eta = _eta_array(eta)
    t = -np.abs(eta)
    with np.errstate(all="ignore"):
        e, m = np.exp(t), np.expm1(t)
        tail = eta > 0.0
        den = np.where(tail, 1.0 + q * e, e + q)
        diff = np.where(tail, -(1.0 + q) * e, (1.0 - q) - 2.0 * e)
        return _ladder_occupation(-m, den, diff, eta, tail, 1.0 + q, math.log(q), 1.0)


def vpjc_zero_crossing(q: float) -> float:
    """The eta < 0 root ln((1-q)/2) of the VPJC distribution."""
    require_open_unit_q(q)
    return math.log((1.0 - q) / 2.0)


# ---------------------------------------------------------------------------
# occupation-ratio solver and exact traces


_BISECT_STEPS = 200  # halvings per bracket, at most


def _bisect(func, lo: float, hi: float) -> float:
    f_lo = func(lo)
    f_hi = func(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise ValueError("bisection bracket does not straddle a root")
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        f_mid = func(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _bisect_array(func, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """`_bisect` on every bracket [lo_i, hi_i] of the 1-D arrays at once, with
    its stop rules per bracket; func(x, rows) is the function of brackets
    `rows` at the points x."""
    lo, hi = lo.copy(), hi.copy()
    f_lo, f_hi = func(lo, slice(None)), func(hi, slice(None))
    root = np.where(f_lo == 0.0, lo, hi)
    open_ = (f_lo != 0.0) & (f_hi != 0.0)
    if (open_ & (f_lo * f_hi > 0.0)).any():
        raise ValueError("bisection bracket does not straddle a root")
    rows = np.flatnonzero(open_)
    for _ in range(_BISECT_STEPS):
        if not rows.size:
            break
        mid = 0.5 * (lo[rows] + hi[rows])
        stuck = (mid == lo[rows]) | (mid == hi[rows])
        root[rows[stuck]] = mid[stuck]
        rows, mid = rows[~stuck], mid[~stuck]
        f_mid = func(mid, rows)
        zero = f_mid == 0.0
        root[rows[zero]] = mid[zero]
        left = f_lo[rows] * f_mid < 0.0
        hi[rows[left]] = mid[left]
        right = ~left & ~zero
        lo[rows[right]], f_lo[rows[right]] = mid[right], f_mid[right]
        rows = rows[~zero]
    root[rows] = 0.5 * (lo[rows] + hi[rows])
    return root


def occupation_ratio_solve(model: Model, eta: float, q: float) -> float:
    """Continuous level n solving [n]/[n+1] = exp(-eta), by bisection.

    With u = (q**n)**k and s = +-1 the ratio is (1 - s u)/(c + s q u), where
    the record gives c, k and the ratio at u = 0 (VPJC 1, 1, 1; PVC 1/q, 2,
    q).  s = +1 where exp(-eta) is below that limit, -1 above it, and at it
    no finite n solves the condition (SingularPointError).  Restricted to
    eta > 0.  For VPJC n equals the closed-form distribution; for PVC that
    reports |n|, and on the s = -1 branch n itself is negative.
    """
    ratio = MODELS[model].ratio
    if ratio is None:
        raise ValueError("ratio solver applies to the PVC and VPJC families")
    require_open_unit_q(q)
    if not eta > 0.0:
        raise ValueError("the ratio condition has a single branch only for eta > 0")
    target = math.exp(-eta)
    c, k, limit = ratio(q)
    if target == limit:
        raise SingularPointError(f"no finite n solves the ratio condition at eta = {eta}, "
                                 f"q = {q}: exp(-eta) is its n -> infinity limit {limit}")
    s = 1.0 if target < limit else -1.0
    # y = q**n, and y**k is y * y**(k - 1) in the closed forms' product order;
    # for s = -1 the denominator vanishes at y = 1/q
    func = lambda y: (1.0 - s * y * y ** (k - 1)) / (c + s * q * y * y ** (k - 1)) - target
    y = _bisect(func, 0.0, 1.0 if s > 0.0 else (1.0 - 1e-14) / q)
    return math.log(y) / math.log(q)


_LOG_MIN_NORMAL = math.log(_MIN_NORMAL)
_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class TraceAverages:
    """Gibbs-trace averages of [N], N and [N+1] weighted by exp(-eta N).

    `identity_residual` is |<[N+1]> - exp(eta) <[N]>|, which vanishes for the
    untruncated trace by cyclicity; for a truncated ladder it bounds the
    discarded tail.  `converged` is False where the untruncated trace
    diverges, by the rule in the model's record (PVC at q < 1: exp(-eta) >= q);
    the truncated averages are then boundary-dominated.
    """

    mean_deformed: float
    mean_number: float
    mean_shifted: float
    identity_residual: float
    converged: bool


def exact_trace_occupation(
    model: Model, q: float, eta: float, n_max: int = 60, d: int = 1
) -> TraceAverages:
    """Exact Gibbs averages of [N], N and [N+1] for one mode (or d FN modes).

    Each model's record gives levels n = 0..top with a multiplicity m_n,
    the value [n] and the summed c c* on the level.  VPJC and PVC are
    ladders cut at top = n_max (m_n = 1, shifted value [n+1]) and need
    eta > 0; CKN is that ladder at top = 1, spectrum (0, 1, 0); FN has
    top = d, m_n = C(d, n), [n] = n q**(n-1), shifted value (d - n) q**n.
    Averages are sum m_n w_n (.) / sum m_n w_n, w_n = exp(-eta (n - r)) with
    r = top for eta < 0 and 0 otherwise, so no weight exceeds 1; as [0] = 0,
    exp(eta) <[N]> is that sum with w_(n-1).  Where some weight is
    subnormal, every weight is exp(-eta (n - r) + K) instead: the integer
    K lifts them all into the normal range, unless a term m_n w_n |value|
    could then overflow, and is cut to the room left.  The factor exp(K)
    cancels in each ratio, and adding K to an exponent below -708 is exact,
    so the lifted weights keep their relative precision.  eta = +-inf gives
    the limiting state; a NaN eta, or a level or level sum past a double,
    raises ValueError.
    """
    require_positive_q(q)
    record = MODELS[model]
    if record.trace_levels is None:
        raise ValueError(f"no trace rule for model {model}")
    if math.isnan(eta):
        raise ValueError("trace argument eta must not be NaN")
    if record.ratio is not None and not eta > 0.0:  # a ladder with no top level
        raise ValueError("truncated trace over an unbounded ladder needs eta > 0")
    multiplicity, deformed, shifted = record.trace_levels(q, n_max, d)
    levels = np.arange(len(multiplicity))
    eta_w = min(max(eta, -1e308), 1e308)  # at +-inf every other level weighs 0
    with np.errstate(all="ignore"):
        exponent = -eta_w * (levels - (levels[-1] if eta < 0.0 else 0))
        w = np.exp(exponent)
        subnormal = (w > 0.0) & (w < _MIN_NORMAL)
        if subnormal.any():
            # every product and sum stays below m_max |value|_max (top + 1) exp(K)
            largest = max(np.abs(deformed).max(), np.abs(shifted).max(), levels[-1])
            room = _LOG_MAX - math.log(len(levels) * multiplicity.max()) - math.log(largest)
            lift = min(math.ceil(_LOG_MIN_NORMAL - exponent[subnormal].min()) + 1, math.floor(room))
            if lift > 0:
                w = np.exp(exponent + lift)
        weights = multiplicity * w
        z_sum = float(weights.sum())
        mean_deformed, mean_number, mean_shifted = (
            float((x * weights).sum() / z_sum) for x in (deformed, levels, shifted))
        raised = float((multiplicity[1:] * deformed[1:] * w[:-1]).sum() / z_sum)
    residual = abs(mean_shifted - raised)
    if not all(map(math.isfinite, (mean_deformed, mean_shifted, residual))):
        raise ValueError(f"{model.value} trace at q = {q}, eta = {eta} overflows a double")
    # ratio test: the trace converges for exp(-eta) < lim |[n]/[n+1]|, which is
    # the record's n -> infinity limit at q < 1 and 1/q above
    bound = math.inf if record.ratio is None else min(record.ratio(q)[2], 1.0 / q)
    converged = bound >= 1.0 or math.exp(-eta) < bound
    return TraceAverages(mean_deformed, mean_number, mean_shifted, residual, converged)


def _ladder(model: Model, q: float, top) -> tuple:
    """Trace levels 0..top of a single mode: m_n = 1, [n] and [n+1]."""
    if not 0 <= top < math.inf or top != int(top):
        raise ValueError(f"ladder cutoff must be a nonnegative integer, got {top!r}")
    g = spectrum(model, q, int(top) + 1).values
    return np.ones(len(g) - 1), g[:-1], g[1:]


def _fn_levels(q: float, d) -> tuple:
    """Trace levels 0..d of d FN modes by total occupation n."""
    if not 1 <= d <= MAX_FN_MODES or d != int(d):
        raise ValueError(f"mode count must lie in 1..{MAX_FN_MODES}, got {d!r}")
    d = int(d)
    deformed = spectrum(Model.FN, q, d).values  # raises where d q**(d-1) overflows
    shifted = np.array([(d - n) * q**n for n in range(d)] + [0.0])
    return np.array([math.comb(d, n) for n in range(d + 1)], float), deformed, shifted


# ---------------------------------------------------------------------------
# equations of state


@dataclass(frozen=True)
class EosPoint:
    """Reduced-unit state: P lambda**3/kT, lambda**3/v, U lambda**3/(V kT), entropy.

    For the FN/CKN gas `entropy` is per particle, S/(N k); for the PVC gas
    it is the per-volume form S lambda**3 / (V k) times the multiplicity.
    """

    pressure: float
    density: float
    energy_density: float
    entropy: float


def fn_eos(q: float, z: float, tol: float = 1e-10) -> EosPoint:
    """FN gas state from the alternating series, on 0 < q z < 1."""
    require_positive_q(q)
    if not z > 0.0:
        raise ValueError(f"fugacity must be positive, got {z}")
    if q * z >= 1.0:
        raise SeriesConvergenceError(f"equation of state needs q*z < 1, got {q * z}")
    pressure = f_gen(2.5, q, z, tol).value
    density = f_gen(1.5, q, z, tol).value
    # where q z underflows to 0 both series are 0; pressure / density -> 1
    ratio = 2.5 * pressure / density if density else 2.5
    return EosPoint(
        pressure=pressure,
        density=density,
        energy_density=1.5 * pressure,
        entropy=ratio - float(np.log(z)),
    )


def ckn_eos(q: float, z: float, tol: float = 1e-10) -> EosPoint:
    """CKN gas state: the FN formulas at q -> 1/q (single source of CKN data)."""
    require_positive_q(q)
    return fn_eos(1.0 / q, z, tol)


# Each `*_eos_array` twin returns (EosPoint of arrays, skipped mask) for an
# array of z: the mask is set exactly where the scalar form raises
# SeriesConvergenceError, and those cells hold nan.  A ValueError of the
# scalar form at any point is raised for the whole array.


def fn_eos_array(q: float, z, tol: float = 1e-10) -> tuple:
    """`fn_eos` at each point of the array `z`, bit for bit; raises the
    ValueError of a loop of `fn_eos`."""
    require_positive_q(q)
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    bad = ~(flat > 0.0)
    stop = int(bad.argmax()) if bad.any() else flat.size  # where such a loop meets a bad z
    with np.errstate(all="ignore"):
        live = np.zeros(flat.shape, dtype=bool)
        live[:stop] = q * flat[:stop] < 1.0
        skipped = ~live
        columns = np.full((2,) + flat.shape, np.nan)
        if live.any():  # the loop checks tol at its first live point
            (p, p_failed), (d, d_failed) = (f_gen_array(s, q, flat[live], tol) for s in (2.5, 1.5))
            columns[0][live], columns[1][live] = p.value, d.value
            skipped[live] = p_failed | d_failed
        if stop < flat.size:
            raise ValueError(f"fugacity must be positive, got {float(flat[stop])}")
        columns[:, skipped] = np.nan
        p, d = columns.reshape((2,) + z.shape)
        entropy = np.where(d == 0.0, 2.5, 2.5 * p / d) - np.log(z)
        return EosPoint(p, d, 1.5 * p, entropy), skipped.reshape(z.shape)


def ckn_eos_array(q: float, z, tol: float = 1e-10) -> tuple:
    """`ckn_eos` at each point of the array `z`: the FN twin at q -> 1/q."""
    require_positive_q(q)
    return fn_eos_array(1.0 / q, z, tol)


def pvc_eos(q: float, z: float, g_mult: float = 1.0, tol: float = 1e-10) -> EosPoint:
    """PVC gas state from the two-sum series, on 0 < q < 1 and z/q < 1.

    `entropy` is g_mult * (5/2 h(5/2) - h(3/2)) per volume, as the
    closed-form entropy of this gas is stated: note it carries no -ln(z)
    term, unlike the per-particle FN form.  An entropy beyond the double
    range raises ValueError.
    """
    if not 0.0 < g_mult < math.inf:
        raise ValueError(f"multiplicity factor must be positive and finite, got {g_mult}")
    h52 = h_gen(2.5, z, q, tol).value
    h32 = h_gen(1.5, z, q, tol).value
    entropy = g_mult * (2.5 * h52 - h32)
    if math.isinf(entropy):
        raise ValueError(f"PVC entropy overflows at g_mult = {g_mult}, q = {q}, z = {z}")
    return EosPoint(pressure=h52, density=h32, energy_density=1.5 * h52, entropy=entropy)


def pvc_eos_array(q: float, z, g_mult: float = 1.0, tol: float = 1e-10) -> tuple:
    """`pvc_eos` at each point of the array `z`, bit for bit, from two
    `h_gen_array` columns; raises the ValueError of a loop of `pvc_eos`."""
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    bad = ~(np.isfinite(flat) & (flat >= 0.0))
    stop = int(bad.argmax()) if bad.any() else flat.size  # where such a loop raises
    pvc_eos(q, float(flat[0]) if stop == 0 < flat.size else 0.0, g_mult, tol)
    (h52, skip52), (h32, skip32) = (h_gen_array(s, flat[:stop], q, tol) for s in (2.5, 1.5))
    skipped = skip52 | skip32
    with np.errstate(all="ignore"):
        p, d = np.where(skipped, np.nan, (h52.value, h32.value))
        columns = (p, d, 1.5 * p, g_mult * (2.5 * p - d))
    for point in flat[:stop][np.isinf(columns[3])][:1].tolist() + flat[stop : stop + 1].tolist():
        pvc_eos(q, point, g_mult, tol)
    return EosPoint(*(c.reshape(z.shape) for c in columns)), skipped.reshape(z.shape)


def fn_pvc_comparison(q: float, z: float, tol: float = 1e-10) -> dict:
    """Side-by-side FN vs PVC pressure and per-volume entropy at equal fugacity.

    The FN entropy is converted to the per-volume form
    (5/2) f(5/2) - ln(z) f(3/2) so the two gases are compared in one unit.
    Returns the values plus the measured directions.
    """
    fn = fn_eos(q, z, tol)
    pvc = pvc_eos(q, z, 1.0, tol)
    fn_entropy_density = 2.5 * fn.pressure - math.log(z) * fn.density
    return {
        "fn_pressure": fn.pressure,
        "pvc_pressure": pvc.pressure,
        "fn_entropy_density": fn_entropy_density,
        "pvc_entropy_density": pvc.entropy,
        "fn_pressure_lower": fn.pressure < pvc.pressure,
        "fn_entropy_lower": fn_entropy_density < pvc.entropy,
    }


# ---------------------------------------------------------------------------
# virial expansion


def _poly_mul(a: list, b: list, order: int) -> list:
    out = [0.0] * (order + 1)
    for i, a_i in enumerate(a[: order + 1]):
        if a_i == 0.0:
            continue
        for k, b_k in enumerate(b[: order + 1 - i]):
            out[i + k] += a_i * b_k
    return out


def _series_inverse(d: list, order: int) -> list:
    """Coefficients e with sum_m e_m rho**m inverting rho = sum_l d_l z**l."""
    e = [0.0] * (order + 1)
    e[1] = 1.0 / d[1]
    for m in range(2, order + 1):
        power = e.copy()  # e(rho)**1
        total = 0.0
        for j in range(2, m + 1):
            power = _poly_mul(power, e, order)
            total += d[j] * power[m]
        e[m] = -total / d[1]
    return e


def _series_compose(outer: list, inner: list, order: int) -> list:
    out = [0.0] * (order + 1)
    power = [1.0] + [0.0] * order
    for l in range(1, order + 1):
        power = _poly_mul(power, inner, order)
        out = [o + outer[l] * p for o, p in zip(out, power)]
    return out


# a_2 and a_3 of the undeformed ideal Fermi gas: the fitted coefficients' targets
VIRIAL_TARGETS = {2: 2.0**-2.5, 3: 0.125 - 2.0 * 3.0**-2.5}


def virial_coefficients(model: Model, q: float, orders: int = 3) -> np.ndarray:
    """Virial coefficients a_1..a_orders of P v / kT = sum a_k (lambda**3/v)**(k-1).

    Obtained by power-series reversion of the density series in z followed
    by composition into the pressure series, at coefficient level.  The
    deformation enters both series only through (q z)**l, so the fitted
    coefficients come out q-independent; doing the reversion in z keeps that
    a measured outcome instead of an assumption.  Supports 2 <= orders <= 6;
    raises ValueError where a power of the FN deformation or a coefficient
    overflows a double.
    """
    fn_q = MODELS[model].fn_q
    if fn_q is None:
        raise ValueError("virial expansion is provided for the FN and CKN families")
    y = fn_q(require_positive_q(q))
    if orders != int(orders) or not 2 <= orders <= 6:
        raise ValueError(f"orders must be an integer in 2..6, got {orders!r}")
    orders = int(orders)

    overflow = f"virial coefficients to order {orders} overflow a double at q = {q}"
    density = [0.0] * (orders + 1)
    pressure = [0.0] * (orders + 1)
    try:
        for l in range(1, orders + 1):
            sign = 1.0 if l % 2 else -1.0
            density[l] = sign * y**l / l**1.5
            pressure[l] = sign * y**l / l**2.5
    except OverflowError:  # y**l
        raise ValueError(overflow) from None
    coeffs = _series_compose(pressure, _series_inverse(density, orders), orders)[1:]
    if not all(map(math.isfinite, coeffs)):  # float products overflow to inf or nan
        raise ValueError(overflow)
    return np.array(coeffs)


# ---------------------------------------------------------------------------
# low-temperature chemical potential

_SOMMERFELD = math.pi**2 / 8.0  # the L**-2 coefficient of the density bracket
_MU_OVERFLOW = "reduced temperature too small: the density equation overflows"


def _validate_t(t: float) -> float:
    if not 0.0 < t <= 0.2:
        raise ValueError(f"reduced temperature must lie in (0, 0.2], got {t}")
    return float(t)


def fn_mu_lowT(t: float, q: float) -> float:
    """Closed-form mu/eps_F = -t ln q + 1 - (pi**2/12) t**2."""
    return float(fn_mu_lowT_array(t, q))


def ckn_mu_lowT(t: float, q: float) -> float:
    """CKN chemical potential: the FN form at q -> 1/q."""
    require_positive_q(q)
    return fn_mu_lowT(t, 1.0 / q)


def fn_mu_numeric(t: float, q: float) -> float:
    """mu/eps_F from the low-temperature density equation, solved for ln(q z).

    Fixes the density at its T = 0 Fermi-sphere value, writes the density
    equation as t**1.5 L**1.5 [1 + (pi**2/8) L**-2] = 1 with
    L = ln(q z), solves for L by bisection and returns t ln z = t (L - ln q).
    Agrees with `fn_mu_lowT` through second order in t.
    """
    return float(fn_mu_numeric_array(t, q))


def ckn_mu_numeric(t: float, q: float) -> float:
    """CKN numeric chemical potential: the FN solver at q -> 1/q."""
    require_positive_q(q)
    return fn_mu_numeric(t, 1.0 / q)


# Each `*_mu_*_array` kernel maps t and q broadcast against each other, under
# np.errstate(all="ignore").  A ValueError at any point is raised for the
# whole array, naming the first bad t.


def _t_array(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    bad = ~((t > 0.0) & (t <= 0.2))
    if bad.any():
        _validate_t(float(t[bad][0]))
    return t


def _q_array(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    bad = ~((q > 0.0) & (q < math.inf))
    if bad.any():
        require_positive_q(float(q[bad][0]))
    return q


def fn_mu_lowT_array(t, q) -> np.ndarray:
    """`fn_mu_lowT` at each point of t and q broadcast."""
    t = _t_array(t)
    log_q = np.log(_q_array(q))
    with np.errstate(all="ignore"):
        return -t * log_q + 1.0 - (math.pi**2 / 12.0) * t * t


def _inverse_q(q) -> np.ndarray:
    """1/q per element, as the CKN forms map q (inf past a double: the FN form rejects it)."""
    with np.errstate(all="ignore"):
        return 1.0 / _q_array(q)


def ckn_mu_lowT_array(t, q) -> np.ndarray:
    """`ckn_mu_lowT` at each point of t and q broadcast."""
    return fn_mu_lowT_array(t, _inverse_q(q))


def fn_mu_numeric_array(t, q) -> np.ndarray:
    """`fn_mu_numeric` at each point of t and q broadcast.  The root L of the
    density equation depends on t only, so it is solved once per t, by one
    bisection over all t at once, and shifted by ln q for each q."""
    t = _t_array(t)
    log_q = np.log(_q_array(q))
    flat = t.ravel()

    def lhs(big_l: np.ndarray, rows) -> np.ndarray:
        bracket = _SOMMERFELD * np.power(big_l, -2.0) + 1.0
        return t_factor[rows] * np.power(big_l, 1.5) * bracket - 1.0

    with np.errstate(all="ignore"):
        t_factor = np.power(flat, 1.5)
        lo = np.full(flat.shape, 1.5)
        hi = np.maximum(4.0, 4.0 / flat)
        # for t below about 1e-205, 4/t or (4/t)**1.5 overflows
        if not np.isfinite(np.power(hi, 1.5)).all():
            raise ValueError(_MU_OVERFLOW)
        big_l = _bisect_array(lhs, lo, hi).reshape(t.shape)
        return t * (big_l - log_q)


def ckn_mu_numeric_array(t, q) -> np.ndarray:
    """`ckn_mu_numeric` at each point of t and q broadcast."""
    return fn_mu_numeric_array(t, _inverse_q(q))


# ---------------------------------------------------------------------------
# one record per model


@dataclass(frozen=True)
class ModelThermo:
    """The thermodynamic facts of one model: array kernels, trace levels, ratio
    constants; None marks a fact it lacks."""

    distribution_array: Callable | None = None  # (eta array, q) -> (n, mask or None)
    q1_limit_array: Callable | None = None  # (eta array) -> (n, None), in its place at q = 1
    singular: Callable = lambda q: ()  # q != 1 -> abscissae where n diverges or jumps
    eos_array: Callable | None = None  # (q, z array, g_mult, tol) -> (EosPoint, skipped)
    mu_array: tuple | None = None  # (closed form, numeric) mu(t array, q array) broadcast
    fn_q: Callable | None = None  # q -> FN deformation of the same gas (virial series)
    trace_levels: Callable | None = None  # (q, n_max, d) -> (m_n, [n], shifted) at n = 0..top
    ratio: Callable | None = None  # q -> (c, k, n -> inf limit) of [n]/[n+1]; unbounded ladders


MODELS = {
    Model.FN: ModelThermo(
        fn_distribution_array,
        eos_array=lambda q, z, g_mult, tol: fn_eos_array(q, z, tol),
        mu_array=(fn_mu_lowT_array, fn_mu_numeric_array),
        fn_q=lambda q: q,
        trace_levels=lambda q, n_max, d: _fn_levels(q, d),
    ),
    Model.CKN: ModelThermo(
        ckn_distribution_array,
        eos_array=lambda q, z, g_mult, tol: ckn_eos_array(q, z, tol),
        mu_array=(ckn_mu_lowT_array, ckn_mu_numeric_array),
        fn_q=lambda q: 1.0 / q,
        trace_levels=lambda q, n_max, d: _ladder(Model.CKN, q, 1),
    ),
    Model.PVC: ModelThermo(
        pvc_distribution_array,
        q1_limit_distribution_array,
        singular=lambda q: (-math.log(q),),
        eos_array=pvc_eos_array,
        trace_levels=lambda q, n_max, d: _ladder(Model.PVC, q, n_max),
        ratio=lambda q: (1.0 / q, 2, q),
    ),
    Model.VPJC: ModelThermo(
        vpjc_distribution_array,
        q1_limit_distribution_array,
        singular=lambda q: (0.0,),
        trace_levels=lambda q, n_max, d: _ladder(Model.VPJC, q, n_max),
        ratio=lambda q: (1.0, 1, 1.0),
    ),
    Model.ARIK_COON: ModelThermo(),
}
