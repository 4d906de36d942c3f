"""Closed-form number-operator spectra (basic numbers) for all models.

Spectra are indexed from n = 0 and every family starts at g_0 = 0.  The FN
family is indexed by the *total* occupation of a multimode state; the other
families count a single mode.  Values always come from the closed forms;
the recurrences survive only as independent oracles in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import Model, require_positive_q


def _require_index(n) -> int:
    if n != int(n) or n < 0:
        raise ValueError(f"level index must be a nonnegative integer, got {n!r}")
    return int(n)


def _finite(model: Model, n: int, q: float, formula) -> float:
    """formula(); ValueError naming the model, q and level n where the value
    overflows a double (Python floats raise OverflowError or give inf)."""
    try:
        value = formula()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{model.value} spectrum at q = {q}: level {n} overflows a double")
    return value


def fn_spectrum(total_n: int, q: float) -> float:
    """Eigenvalue N * q**(N - 1) of the summed deformed mode occupations."""
    require_positive_q(q)
    n = _require_index(total_n)
    if n == 0:
        return 0.0
    return _finite(Model.FN, n, q, lambda: n * q ** (n - 1))


def ckn_spectrum(n: int, q: float) -> float:
    """Alternating spectrum 0, 1, 0, q**-2, 0, q**-4, ...; zero on even levels."""
    require_positive_q(q)
    n = _require_index(n)
    if n % 2 == 0:
        return 0.0
    return _finite(Model.CKN, n, q, lambda: q ** (1 - n))


def pvc_basic(n: int, q: float) -> float:
    """Basic number (q**-n - (-q)**n) / (q + 1/q)."""
    require_positive_q(q)
    n = _require_index(n)
    qinv = 1.0 / q
    sign = -1.0 if n % 2 else 1.0
    return _finite(Model.PVC, n, q, lambda: (qinv**n - sign * q**n) / (q + qinv))


def vpjc_basic(n: int, q: float) -> float:
    """Basic number (1 - (-q)**n) / (1 + q).

    For 0 < q < 1 the values of levels n >= 1 lie in [(1-q)/(1+q), 1]; for
    q > 1 every even level n >= 2 is negative, which is what breaks the
    norm positivity of the corresponding Fock representation.
    """
    require_positive_q(q)
    n = _require_index(n)
    sign = -1.0 if n % 2 else 1.0
    return _finite(Model.VPJC, n, q, lambda: (1.0 - sign * q**n) / (1.0 + q))


def arik_coon_basic(n: int, q: float) -> float:
    """Boson-side contrast (1 - q**n) / (1 - q); equals n in the q -> 1 limit."""
    require_positive_q(q)
    n = _require_index(n)
    if q == 1.0:
        return float(n)
    return _finite(Model.ARIK_COON, n, q, lambda: (1.0 - q**n) / (1.0 - q))


_BASIC = {
    Model.FN: fn_spectrum,
    Model.CKN: ckn_spectrum,
    Model.PVC: pvc_basic,
    Model.VPJC: vpjc_basic,
    Model.ARIK_COON: arik_coon_basic,
}


def basic_number(model: Model, n: int, q: float) -> float:
    """Closed-form spectrum value of `model` at level n."""
    return _BASIC[model](n, q)


def basic_factorial(model: Model, n: int, q: float) -> float:
    """Product [n][n-1]...[1] of basic numbers; the empty product is 1."""
    if model not in (Model.PVC, Model.VPJC, Model.ARIK_COON):
        raise ValueError(
            "factorials are defined for the PVC, VPJC and Arik-Coon families"
        )
    value = float(spectrum(model, q, n).factorials[-1])
    if not math.isfinite(value):
        raise ValueError(f"{model.value} factorial [{n}]! at q = {q} overflows a double")
    return value


def vpjc_recurrence_residual(nmax: int, q: float) -> float:
    """Worst deviation of the closed form from g_{n+1} = 1 - q g_n for n <= nmax."""
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    require_positive_q(q)
    worst = 0.0
    for n in range(nmax + 1):
        worst = max(worst, abs(vpjc_basic(n + 1, q) - (1.0 - q * vpjc_basic(n, q))))
    return worst


@dataclass(frozen=True)
class DeformedSpectrum:
    """Spectrum values g_0..g_nmax with the running factorial products."""

    model: Model
    q: float
    values: np.ndarray
    factorials: np.ndarray


def spectrum(model: Model, q: float, nmax: int) -> DeformedSpectrum:
    """Tabulate the closed-form spectrum of `model` up to level nmax."""
    nmax = _require_index(nmax)
    values = np.array([basic_number(model, n, q) for n in range(nmax + 1)])
    with np.errstate(over="ignore"):  # an overflowed product is stored as inf
        factorials = np.cumprod(np.concatenate(([1.0], values[1:])))
    values.setflags(write=False)
    factorials.setflags(write=False)
    return DeformedSpectrum(model, float(q), values, factorials)
