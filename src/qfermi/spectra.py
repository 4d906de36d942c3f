"""Closed-form number-operator spectra (basic numbers) for all models.

Spectra are indexed from n = 0 and every family starts at g_0 = 0.  The FN
family is indexed by the *total* occupation of a multimode state; the other
families count a single mode.  Values always come from the closed forms;
the recurrences survive only as independent oracles in the test suite.

Each closed form is one array kernel over a range of levels: the powers of
q are one `np.float_power` call, which is libm `pow`, the function behind
Python's float `**` (a rule `tests/test_spectra.py` pins), (-1)**n is an
exact sign vector, and the rest of the formula is numpy's `+ - * /` in the
order the formula reads, so a level of a table is the same float as the
level alone (Arik-Coon's levels near q = 1 take `math.expm1` and
`math.log1p` per level).  The scalar forms are one-level calls of the kernels.
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


def _powers(base: float, exponents: range) -> np.ndarray:
    """base**e for each exponent, by libm pow; inf where it overflows."""
    return np.float_power(base, np.arange(exponents.start, exponents.stop, exponents.step))


def _signs(levels: range) -> np.ndarray:
    """(-1)**n for each level n, exactly."""
    return 1.0 - 2.0 * (np.arange(levels.start, levels.stop, levels.step) & 1)


def _fn(q: float, levels: range) -> np.ndarray:
    # N q**(N - 1), and 0 at N = 0 with no power taken
    n = range(max(levels.start, 1), levels.stop)
    values = np.arange(n.start, n.stop, dtype=float) * _powers(q, range(n.start - 1, n.stop - 1))
    return np.concatenate((np.zeros(len(levels) - len(n)), values))


def _ckn(q: float, levels: range) -> np.ndarray:
    # q**(1 - n) on odd levels; even levels are 0 with no power taken
    values = np.zeros(len(levels))
    odd = range(levels.start | 1, levels.stop, 2)
    values[odd.start - levels.start :: 2] = _powers(q, range(1 - odd.start, 1 - odd.stop, -2))
    return values


def _pvc(q: float, levels: range) -> np.ndarray:
    qinv = 1.0 / q
    return (_powers(qinv, levels) - _signs(levels) * _powers(q, levels)) / (q + qinv)


def _vpjc(q: float, levels: range) -> np.ndarray:
    return (1.0 - _signs(levels) * _powers(q, levels)) / (1.0 + q)


def _arik_coon(q: float, levels: range) -> np.ndarray:
    n = np.arange(levels.start, levels.stop, dtype=float)
    if q == 1.0:
        return n
    values = (1.0 - _powers(q, levels)) / (1.0 - q)
    # where |n ln q| <= 1, 1 - q**n cancels: (q**n - 1)/(q - 1) as expm1 of n log1p(q - 1)
    near = (n >= 1.0) & (n * abs(math.log(q)) <= 1.0)
    if near.any():
        slope = math.log1p(q - 1.0)
        values[near] = [math.expm1(k * slope) / (q - 1.0) for k in n[near].tolist()]
    return values


_KERNELS = {
    Model.FN: _fn,
    Model.CKN: _ckn,
    Model.PVC: _pvc,
    Model.VPJC: _vpjc,
    Model.ARIK_COON: _arik_coon,
}


def _closed_form(model: Model, q, levels: range) -> np.ndarray:
    """The model's closed form at each level; ValueError naming the model,
    q and the first level whose value overflows a double."""
    with np.errstate(all="ignore"):  # an overflowed level is reported below
        values = _KERNELS[model](float(q), levels)
    finite = np.isfinite(values)
    if not finite.all():
        n = levels[int(finite.argmin())]
        raise ValueError(f"{model.value} spectrum at q = {q}: level {n} overflows a double")
    return values


def basic_number(model: Model, n: int, q: float) -> float:
    """Closed-form spectrum value of `model` at level n."""
    require_positive_q(q)
    n = _require_index(n)
    return float(_closed_form(model, q, range(n, n + 1))[0])


def fn_spectrum(total_n: int, q: float) -> float:
    """Eigenvalue N * q**(N - 1) of the summed deformed mode occupations."""
    return basic_number(Model.FN, total_n, q)


def ckn_spectrum(n: int, q: float) -> float:
    """Alternating spectrum 0, 1, 0, q**-2, 0, q**-4, ...; zero on even levels."""
    return basic_number(Model.CKN, n, q)


def pvc_basic(n: int, q: float) -> float:
    """Basic number (q**-n - (-q)**n) / (q + 1/q)."""
    return basic_number(Model.PVC, n, q)


def vpjc_basic(n: int, q: float) -> float:
    """Basic number (1 - (-q)**n) / (1 + q).

    For 0 < q < 1 the values of levels n >= 1 lie in [(1-q)/(1+q), 1]; for
    q > 1 every even level n >= 2 is negative, which is what breaks the
    norm positivity of the corresponding Fock representation.
    """
    return basic_number(Model.VPJC, n, q)


def arik_coon_basic(n: int, q: float) -> float:
    """Boson-side contrast (1 - q**n) / (1 - q); equals n in the q -> 1 limit."""
    return basic_number(Model.ARIK_COON, n, q)


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
    g = spectrum(Model.VPJC, q, nmax + 1).values
    return float(np.max(np.abs(g[1:] - (1.0 - q * g[:-1]))))


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
    require_positive_q(q)
    values = _closed_form(model, q, range(nmax + 1))
    with np.errstate(over="ignore"):  # an overflowed product is stored as inf
        factorials = np.cumprod(np.concatenate(([1.0], values[1:])))
    values.setflags(write=False)
    factorials.setflags(write=False)
    return DeformedSpectrum(model, float(q), values, factorials)
