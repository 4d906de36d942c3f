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
by bisection as an independent cross-check.  Each distribution has an
array twin, `*_distribution_array`, whose cells are the scalar's bit for
bit.

`MODELS` gathers what the code knows of each model's gas in one record:
distribution, q -> 1 stand-in, the array twins of both, singular
abscissae, equation of state, chemical potential, the array twins of those
two (`*_eos_array`, `*_mu_*_array`, again the scalar's bit for bit) and the
FN deformation of its virial series.

The exact-trace averages deliberately coexist with the closed-form
distributions: for a single FN mode the exact two-state trace gives the
undeformed 1/(exp(eta)+1), not q/(exp(eta)+q), and this module surfaces
that disagreement as data rather than reconciling it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fdseries import f_gen, f_gen_array, h_gen
from .models import (
    Model,
    SeriesConvergenceError,
    SingularPointError,
    require_open_unit_q,
    require_positive_q,
)
from .spectra import spectrum

# ---------------------------------------------------------------------------
# distribution functions


def _require_eta(eta: float) -> None:
    if eta != eta:
        raise ValueError("distribution argument eta must not be NaN")


def _eta_array(eta) -> np.ndarray:
    eta = np.asarray(eta, dtype=float)
    if np.isnan(eta).any():
        raise ValueError("distribution argument eta must not be NaN")
    return eta


def _map(func: Callable, a: np.ndarray) -> np.ndarray:
    """`func` of each element of `a`, by the scalar `math` function itself:
    numpy's exp and log differ from it in the last bit on some inputs."""
    return np.fromiter(map(func, a.ravel().tolist()), float, a.size).reshape(a.shape)


# Each `*_distribution_array` twin returns (values, singular mask or None)
# for an array of eta.  Its cells are bit for bit the scalar form's: the
# same `math` calls, then the scalar's +, -, *, / and abs in its order, all
# correctly rounded in numpy too.  exp(-|eta|) is exp(-eta) on the eta > 0
# branch and exp(eta) on the other, so one call serves both.  Masked cells
# hold nan; the scalar form raises SingularPointError there.  The arithmetic
# runs under np.errstate(all="ignore"): like the scalar form, it overflows to
# inf silently, whatever the caller's numpy error settings.


def fn_distribution(eta: float, q: float) -> float:
    """Mean occupation q / (exp(eta) + q) of the multimode FN gas."""
    require_positive_q(q)
    _require_eta(eta)
    if eta > 0.0:
        w = math.exp(-eta)
        return q * w / (1.0 + q * w)
    return q / (math.exp(eta) + q)


def fn_distribution_array(eta, q: float) -> tuple:
    """`fn_distribution` at each point of the array `eta`; no mask."""
    require_positive_q(q)
    eta = _eta_array(eta)
    e = _map(math.exp, -np.abs(eta))
    with np.errstate(all="ignore"):
        qe = q * e
        return np.where(eta > 0.0, qe / (1.0 + qe), q / (e + q)), None


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
    _require_eta(eta)
    if eta > 0.0:
        w = math.exp(-eta)
        return w / (1.0 + w)
    return 1.0 / (math.exp(eta) + 1.0)


def q1_limit_distribution_array(eta) -> tuple:
    """`q1_limit_distribution` at each point of the array `eta`; no mask."""
    eta = _eta_array(eta)
    e = _map(math.exp, -np.abs(eta))
    with np.errstate(all="ignore"):
        return np.where(eta > 0.0, e / (1.0 + e), 1.0 / (e + 1.0)), None


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
    _require_open_unit_with_limit_hint(q, "PVC")
    _require_eta(eta)
    if eta > 0.0:
        w = math.exp(-eta)
        num = abs(1.0 - w / q)
        den = 1.0 + q * w
    else:
        num = abs(math.exp(eta) - 1.0 / q)
        den = math.exp(eta) + q
    if num == 0.0:
        raise SingularPointError(
            f"PVC distribution is singular at eta = ln(1/q) = {-math.log(q)}"
        )
    return abs(math.log(num / den)) / (2.0 * abs(math.log(q)))


def pvc_distribution_array(eta, q: float) -> tuple:
    """`pvc_distribution` at each point of the array `eta`, masked where
    exp(eta) = 1/q."""
    _require_open_unit_with_limit_hint(q, "PVC")
    eta = _eta_array(eta)
    e = _map(math.exp, -np.abs(eta))
    with np.errstate(all="ignore"):
        positive = eta > 0.0
        num = np.where(positive, np.abs(1.0 - e / q), np.abs(e - 1.0 / q))
        den = np.where(positive, 1.0 + q * e, e + q)
        singular = num == 0.0
        ratio = np.where(singular, np.nan, num / den)
        return np.abs(_map(math.log, ratio)) / (2.0 * abs(math.log(q))), singular


def vpjc_distribution(eta: float, q: float) -> float:
    """VPJC mean occupation; discontinuous (divergent) at eta = 0.

    For 0 < q < 1 the function vanishes at eta = ln((1-q)/2) on the
    occupied side; see `vpjc_zero_crossing`.
    """
    _require_open_unit_with_limit_hint(q, "VPJC")
    _require_eta(eta)
    if eta == 0.0:
        raise SingularPointError("VPJC distribution is discontinuous at eta = 0")
    if eta > 0.0:
        num, den = -math.expm1(-eta), 1.0 + q * math.exp(-eta)
    else:
        num, den = -math.expm1(eta), math.exp(eta) + q
    ratio = num / den
    # a subnormal num over den >= 1 can round to 0; its log is still finite
    log_ratio = math.log(ratio) if ratio != 0.0 else math.log(num) - math.log(den)
    return abs(log_ratio) / abs(math.log(q))


def vpjc_distribution_array(eta, q: float) -> tuple:
    """`vpjc_distribution` at each point of the array `eta`, masked at eta = 0."""
    _require_open_unit_with_limit_hint(q, "VPJC")
    eta = _eta_array(eta)
    t = -np.abs(eta)
    e = _map(math.exp, t)
    m = _map(math.expm1, t)
    singular = eta == 0.0
    with np.errstate(all="ignore"):
        den = np.where(eta > 0.0, 1.0 + q * e, e + q)
        ratio = np.where(singular, np.nan, -m / den)
        zero = ratio == 0.0
        log_ratio = _map(math.log, np.where(zero, 1.0, ratio))
        log_ratio[zero] = _map(math.log, -m[zero]) - _map(math.log, den[zero])
        return np.abs(log_ratio) / abs(math.log(q)), singular


def vpjc_zero_crossing(q: float) -> float:
    """The eta < 0 root ln((1-q)/2) of the VPJC distribution."""
    require_open_unit_q(q)
    return math.log((1.0 - q) / 2.0)


# ---------------------------------------------------------------------------
# occupation-ratio solver and exact traces


def _bisect(func, lo: float, hi: float, iterations: int = 200) -> float:
    f_lo = func(lo)
    f_hi = func(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise ValueError("bisection bracket does not straddle a root")
    for _ in range(iterations):
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


def _bisect_array(func, lo: np.ndarray, hi: np.ndarray, iterations: int = 200) -> np.ndarray:
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
    for _ in range(iterations):
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

    The unknown is y = q**n with the staggered sign of the basic numbers
    fixed by the branch the target falls on.  Restricted to eta > 0, where
    the branch is unambiguous.  For VPJC the solution is positive and equals
    the closed-form distribution; for PVC the distribution reports |n|, and
    on the near branch (0 < eta < ln((1-q**2)/(2q))) the continuous solution
    itself is negative.
    """
    if model not in (Model.PVC, Model.VPJC):
        raise ValueError("ratio solver applies to the PVC and VPJC families")
    require_open_unit_q(q)
    if not eta > 0.0:
        raise ValueError("the ratio condition has a single branch only for eta > 0")
    target = math.exp(-eta)
    log_q = math.log(q)

    if model is Model.VPJC:
        # [n] = (1 - y)/(1 + q), [n + 1] = (1 + q y)/(1 + q)
        func = lambda y: (1.0 - y) / (1.0 + q * y) - target
        y = _bisect(func, 0.0, 1.0)
        return math.log(y) / log_q

    if target == q:
        raise SingularPointError(
            f"no finite solution at eta = ln(1/q) = {-log_q}"
        )
    if target < q:
        # far branch: [n] = (1/y - y)/(q + 1/q), [n+1] = (1/(q y) + q y)/(q + 1/q)
        func = lambda y: (1.0 - y * y) / (1.0 / q + q * y * y) - target
        y = _bisect(func, 0.0, 1.0)
    else:
        # near branch: sign-flipped powers; y may exceed 1 (negative n)
        func = lambda y: (1.0 + y * y) / (1.0 / q - q * y * y) - target
        y = _bisect(func, 0.0, (1.0 - 1e-14) / q)
    return math.log(y) / log_q


@dataclass(frozen=True)
class TraceAverages:
    """Gibbs-trace averages over a Fock basis weighted by exp(-eta N).

    `identity_residual` is |<shifted> - exp(eta) <deformed>|, which vanishes
    for the untruncated trace by cyclicity; for truncated ladders it bounds
    the discarded tail.
    """

    mean_deformed: float
    mean_number: float
    mean_shifted: float
    identity_residual: float


def exact_trace_occupation(
    model: Model, q: float, eta: float, n_max: int = 60, d: int = 1
) -> TraceAverages:
    """Exact Gibbs averages of [N], N and [N+1] for one mode (or d FN modes).

    VPJC/PVC use a ladder truncated at n_max and need eta > 0; CKN uses its
    exact two states and FN the exact 2**d-state sums (via occupation
    multiplicities), both valid for any eta.

    Caveat for PVC: its spectrum grows like q**-n, so the untruncated trace
    of the deformed occupation converges only for exp(-eta) < q.  Outside
    that region the truncated averages are returned as computed but are
    boundary-dominated, and the identity residual grows with n_max instead
    of shrinking.
    """
    require_positive_q(q)
    if model in (Model.VPJC, Model.PVC):
        if not eta > 0.0:
            raise ValueError("truncated trace over an unbounded ladder needs eta > 0")
        levels = np.arange(n_max + 1)
        g = spectrum(model, q, n_max + 1).values
        weights = np.exp(-eta * levels)
        z_sum = float(weights.sum())
        mean_deformed = float((g[: n_max + 1] * weights).sum() / z_sum)
        mean_number = float((levels * weights).sum() / z_sum)
        mean_shifted = float((g[1:] * weights).sum() / z_sum)
    elif model is Model.CKN:
        w = math.exp(-eta)
        z_sum = 1.0 + w
        mean_deformed = w / z_sum  # level-1 value is 1
        mean_number = w / z_sum
        mean_shifted = 1.0 / z_sum  # level-2 value vanishes
    elif model is Model.FN:
        if d != int(d) or not 1 <= d <= 12:
            raise ValueError(f"mode count must lie in 1..12, got {d!r}")
        d = int(d)
        x = math.exp(-eta)
        weights = [math.comb(d, n) * x**n for n in range(d + 1)]
        z_sum = math.fsum(weights)
        mean_deformed = (
            math.fsum(weights[n] * n * q ** (n - 1) for n in range(1, d + 1)) / z_sum
        )
        mean_number = math.fsum(weights[n] * n for n in range(1, d + 1)) / z_sum
        mean_shifted = (
            math.fsum(weights[n] * (d - n) * q**n for n in range(d + 1)) / z_sum
        )
    else:
        raise ValueError(f"no trace rule for model {model}")
    residual = abs(mean_shifted - math.exp(eta) * mean_deformed)
    return TraceAverages(mean_deformed, mean_number, mean_shifted, residual)


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
        entropy=ratio - math.log(z),
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
    """`fn_eos` at each point of the array `z`, bit for bit."""
    require_positive_q(q)
    z = np.asarray(z, dtype=float)
    bad = ~(z > 0.0)
    if bad.any():
        raise ValueError(f"fugacity must be positive, got {float(z[bad][0])}")
    with np.errstate(all="ignore"):
        live = q * z < 1.0
        pressure, p_failed = f_gen_array(2.5, q, z[live], tol)
        density, d_failed = f_gen_array(1.5, q, z[live], tol)
        skipped = ~live
        skipped[live] = p_failed | d_failed
        columns = np.full((2,) + z.shape, np.nan)
        columns[0][live], columns[1][live] = pressure.value, density.value
        columns[:, skipped] = np.nan
        p, d = columns
        entropy = np.where(d == 0.0, 2.5, 2.5 * p / d) - _map(math.log, z)
        return EosPoint(p, d, 1.5 * p, entropy), skipped


def ckn_eos_array(q: float, z, tol: float = 1e-10) -> tuple:
    """`ckn_eos` at each point of the array `z`: the FN twin at q -> 1/q."""
    require_positive_q(q)
    return fn_eos_array(1.0 / q, z, tol)


def pvc_eos(q: float, z: float, g_mult: float = 1.0, tol: float = 1e-10) -> EosPoint:
    """PVC gas state from the two-sum series, on 0 < q < 1 and z/q < 1.

    `entropy` is g_mult * (5/2 h(5/2) - h(3/2)) per volume, as the
    closed-form entropy of this gas is stated: note it carries no -ln(z)
    term, unlike the per-particle FN form.
    """
    if not g_mult > 0.0:
        raise ValueError(f"multiplicity factor must be positive, got {g_mult}")
    h52 = h_gen(2.5, z, q, tol).value
    h32 = h_gen(1.5, z, q, tol).value
    return EosPoint(
        pressure=h52,
        density=h32,
        energy_density=1.5 * h52,
        entropy=g_mult * (2.5 * h52 - h32),
    )


def pvc_eos_array(q: float, z, g_mult: float = 1.0, tol: float = 1e-10) -> tuple:
    """`pvc_eos` at each point of the array `z`, by the scalar form per point."""
    z = np.asarray(z, dtype=float)
    columns = np.full((4, z.size), np.nan)
    skipped = np.zeros(z.size, dtype=bool)
    for i, point in enumerate(z.ravel().tolist()):
        try:
            state = pvc_eos(q, point, g_mult, tol)
        except SeriesConvergenceError:
            skipped[i] = True
            continue
        columns[:, i] = state.pressure, state.density, state.energy_density, state.entropy
    columns = columns.reshape((4,) + z.shape)
    return EosPoint(*columns), skipped.reshape(z.shape)


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


def _poly_mul(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    out = np.zeros(order + 1)
    for i in range(min(a.size, order + 1)):
        if a[i] == 0.0:
            continue
        width = min(b.size, order + 1 - i)
        out[i : i + width] += a[i] * b[:width]
    return out


def _series_inverse(d: np.ndarray, order: int) -> np.ndarray:
    """Coefficients e with sum_m e_m rho**m inverting rho = sum_l d_l z**l."""
    e = np.zeros(order + 1)
    e[1] = 1.0 / d[1]
    for m in range(2, order + 1):
        power = e.copy()  # e(rho)**1
        total = 0.0
        for j in range(2, m + 1):
            power = _poly_mul(power, e, order)
            total += d[j] * power[m]
        e[m] = -total / d[1]
    return e


def _series_compose(outer: np.ndarray, inner: np.ndarray, order: int) -> np.ndarray:
    out = np.zeros(order + 1)
    power = np.zeros(order + 1)
    power[0] = 1.0
    for l in range(1, order + 1):
        power = _poly_mul(power, inner, order)
        out += outer[l] * power
    return out


def virial_coefficients(model: Model, q: float, orders: int = 3) -> np.ndarray:
    """Virial coefficients a_1..a_orders of P v / kT = sum a_k (lambda**3/v)**(k-1).

    Obtained by power-series reversion of the density series in z followed
    by composition into the pressure series, at coefficient level.  The
    deformation enters both series only through (q z)**l, so the fitted
    coefficients come out q-independent; doing the reversion in z keeps that
    a measured outcome instead of an assumption.  Supports 2 <= orders <= 6.
    """
    fn_q = MODELS[model].fn_q
    if fn_q is None:
        raise ValueError("virial expansion is provided for the FN and CKN families")
    y = fn_q(require_positive_q(q))
    if orders != int(orders) or not 2 <= orders <= 6:
        raise ValueError(f"orders must be an integer in 2..6, got {orders!r}")
    orders = int(orders)

    density = np.zeros(orders + 1)
    pressure = np.zeros(orders + 1)
    for l in range(1, orders + 1):
        sign = 1.0 if l % 2 else -1.0
        density[l] = sign * y**l / l**1.5
        pressure[l] = sign * y**l / l**2.5
    inverse = _series_inverse(density, orders)
    coeffs = _series_compose(pressure, inverse, orders)
    return coeffs[1 : orders + 1].copy()


# ---------------------------------------------------------------------------
# low-temperature chemical potential

_SOMMERFELD = (1.0, math.pi**2 / 8.0, 7.0 * math.pi**4 / 640.0)
_MU_OVERFLOW = "reduced temperature too small: the density equation overflows"


def _validate_t(t: float) -> float:
    if not 0.0 < t <= 0.2:
        raise ValueError(f"reduced temperature must lie in (0, 0.2], got {t}")
    return float(t)


def fn_mu_lowT(t: float, q: float) -> float:
    """Closed-form mu/eps_F = -t ln q + 1 - (pi**2/12) t**2."""
    _validate_t(t)
    require_positive_q(q)
    return -t * math.log(q) + 1.0 - (math.pi**2 / 12.0) * t * t


def ckn_mu_lowT(t: float, q: float) -> float:
    """CKN chemical potential: the FN form at q -> 1/q."""
    require_positive_q(q)
    return fn_mu_lowT(t, 1.0 / q)


def fn_mu_numeric(t: float, q: float, sommerfeld_terms: int = 2) -> float:
    """mu/eps_F from the low-temperature density equation, solved for ln(q z).

    Fixes the density at its T = 0 Fermi-sphere value, writes the density
    equation as t**1.5 L**1.5 [1 + (pi**2/8) L**-2 + ...] = 1 with
    L = ln(q z), solves for L by bisection and returns t ln z = t (L - ln q).
    Agrees with `fn_mu_lowT` through second order in t.
    """
    _validate_t(t)
    require_positive_q(q)
    if sommerfeld_terms not in (1, 2, 3):
        raise ValueError("sommerfeld_terms must be 1, 2 or 3")
    coeffs = _SOMMERFELD[:sommerfeld_terms]

    def lhs(big_l: float) -> float:
        bracket = math.fsum(c * big_l ** (-2 * k) for k, c in enumerate(coeffs))
        return t**1.5 * big_l**1.5 * bracket - 1.0

    lo, hi = 1.5, max(4.0, 4.0 / t)
    # for t below about 1e-205, 4/t or (4/t)**1.5 overflows
    if hi == math.inf:
        raise ValueError(_MU_OVERFLOW)
    try:
        big_l = _bisect(lhs, lo, hi)
    except OverflowError:
        raise ValueError(_MU_OVERFLOW) from None
    return t * (big_l - math.log(q))


def ckn_mu_numeric(t: float, q: float, sommerfeld_terms: int = 2) -> float:
    """CKN numeric chemical potential: the FN solver at q -> 1/q."""
    require_positive_q(q)
    return fn_mu_numeric(t, 1.0 / q, sommerfeld_terms)


# Each `*_mu_*_array` twin returns the array of its scalar form over t and q
# broadcast against each other, bit for bit: the same `math` calls and
# float powers per element, the scalar's arithmetic in its order, under
# np.errstate(all="ignore").  A ValueError of the scalar form at any point is
# raised for the whole array, naming the first bad t.


def _t_array(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    bad = ~((t > 0.0) & (t <= 0.2))
    if bad.any():
        _validate_t(float(t[bad][0]))
    return t


def _q_array(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    for value in q.ravel().tolist():
        require_positive_q(value)
    return q


def fn_mu_lowT_array(t, q) -> np.ndarray:
    """`fn_mu_lowT` at each point of t and q broadcast."""
    t = _t_array(t)
    log_q = _map(math.log, _q_array(q))
    with np.errstate(all="ignore"):
        return -t * log_q + 1.0 - (math.pi**2 / 12.0) * t * t


def _inverse_q(q) -> np.ndarray:
    """1/q per element, as the CKN forms map q; it overflows to inf silently,
    and the FN form then rejects it."""
    with np.errstate(all="ignore"):
        return 1.0 / _q_array(q)


def ckn_mu_lowT_array(t, q) -> np.ndarray:
    """`ckn_mu_lowT` at each point of t and q broadcast."""
    return fn_mu_lowT_array(t, _inverse_q(q))


def _power(a: np.ndarray, exponent) -> np.ndarray:
    """a**exponent per element by the float power of Python, as the scalar
    forms compute it (numpy's power can differ in the last bit)."""
    return np.fromiter(map(pow, a.tolist(), itertools.repeat(exponent)), float, a.size)


def fn_mu_numeric_array(t, q, sommerfeld_terms: int = 2) -> np.ndarray:
    """`fn_mu_numeric` at each point of t and q broadcast.  The root L of the
    density equation depends on t only, so it is solved once per t, by one
    bisection over all t at once, and shifted by ln q for each q."""
    t = _t_array(t)
    log_q = _map(math.log, _q_array(q))
    if sommerfeld_terms not in (1, 2, 3):
        raise ValueError("sommerfeld_terms must be 1, 2 or 3")
    coeffs = _SOMMERFELD[:sommerfeld_terms]
    flat = t.ravel()
    t_factor = _power(flat, 1.5)

    def lhs(big_l: np.ndarray, rows) -> np.ndarray:
        # the terms c_k L**(-2k) of the bracket; for k = 0 it is c_0 exactly
        terms = [c * _power(big_l, -2 * k) for k, c in enumerate(coeffs) if k]
        if len(terms) == 2:  # math.fsum of three is not (a + b) + c
            columns = zip(itertools.repeat(coeffs[0]), *(x.tolist() for x in terms))
            bracket = np.fromiter(map(math.fsum, columns), float, big_l.size)
        else:  # math.fsum of at most two is their rounded sum
            bracket = sum(terms, coeffs[0])
        return t_factor[rows] * _power(big_l, 1.5) * bracket - 1.0

    with np.errstate(all="ignore"):
        lo = np.full(flat.shape, 1.5)
        hi = np.maximum(4.0, 4.0 / flat)
        if (hi == math.inf).any():
            raise ValueError(_MU_OVERFLOW)
        try:
            big_l = _bisect_array(lhs, lo, hi).reshape(t.shape)
        except OverflowError:
            raise ValueError(_MU_OVERFLOW) from None
        return t * (big_l - log_q)


def ckn_mu_numeric_array(t, q, sommerfeld_terms: int = 2) -> np.ndarray:
    """`ckn_mu_numeric` at each point of t and q broadcast."""
    return fn_mu_numeric_array(t, _inverse_q(q), sommerfeld_terms)


# ---------------------------------------------------------------------------
# one record per model


@dataclass(frozen=True)
class ModelThermo:
    """The thermodynamic facts of one model; None marks a fact it lacks."""

    distribution: Callable | None = None  # n(eta, q)
    q1_limit: Callable | None = None  # n(eta) in its place at q = 1
    distribution_array: Callable | None = None  # (eta array, q) -> (n, mask or None)
    q1_limit_array: Callable | None = None  # (eta array) -> (n, None) at q = 1
    singular: Callable = lambda q: ()  # q != 1 -> abscissae where n diverges or jumps
    eos: Callable | None = None  # EosPoint(q, z, g_mult, tol)
    eos_array: Callable | None = None  # (q, z array, g_mult, tol) -> (EosPoint, skipped)
    mu: tuple | None = None  # (closed form, numeric) mu(t, q)
    mu_array: tuple | None = None  # their twins, mu(t array, q array) broadcast
    fn_q: Callable | None = None  # q -> FN deformation of the same gas (virial series)


MODELS = {
    Model.FN: ModelThermo(
        fn_distribution,
        distribution_array=fn_distribution_array,
        eos=lambda q, z, g_mult, tol: fn_eos(q, z, tol),
        eos_array=lambda q, z, g_mult, tol: fn_eos_array(q, z, tol),
        mu=(fn_mu_lowT, fn_mu_numeric),
        mu_array=(fn_mu_lowT_array, fn_mu_numeric_array),
        fn_q=lambda q: q,
    ),
    Model.CKN: ModelThermo(
        ckn_distribution,
        distribution_array=ckn_distribution_array,
        eos=lambda q, z, g_mult, tol: ckn_eos(q, z, tol),
        eos_array=lambda q, z, g_mult, tol: ckn_eos_array(q, z, tol),
        mu=(ckn_mu_lowT, ckn_mu_numeric),
        mu_array=(ckn_mu_lowT_array, ckn_mu_numeric_array),
        fn_q=lambda q: 1.0 / q,
    ),
    Model.PVC: ModelThermo(
        pvc_distribution,
        q1_limit_distribution,
        pvc_distribution_array,
        q1_limit_distribution_array,
        singular=lambda q: (math.log(1.0 / q),),
        eos=pvc_eos,
        eos_array=pvc_eos_array,
    ),
    Model.VPJC: ModelThermo(
        vpjc_distribution,
        q1_limit_distribution,
        vpjc_distribution_array,
        q1_limit_distribution_array,
        singular=lambda q: (0.0,),
    ),
    Model.ARIK_COON: ModelThermo(),
}
