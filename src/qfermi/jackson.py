"""Fermionic Jackson derivatives for the PVC and VPJC families.

Two evaluation paths are provided.  The pointwise forms

    PVC:   D f(x) = (f(x/q) - f(-q x)) / (x (q + 1/q))
    VPJC:  D f(x) = (f(x)   - f(-q x)) / (x (1 + q))

work for arbitrary functions but are singular at x = 0.  On polynomials the
derivative acts termwise as x**n -> [n] x**(n-1) with [n] the model's basic
number, which removes the singularity analytically; `jd_polynomial` uses
that coefficient mapping.  Neither derivative reduces to d/dx at q = 1.

Polynomials are plain coefficient sequences, coeffs[k] <-> x**k.
"""

from __future__ import annotations

import numpy as np

from .models import Model, SingularPointError, require_positive_q
from .spectra import spectrum


def polyval(coeffs, x: float) -> float:
    """Evaluate a coefficient sequence at x (Horner)."""
    acc = 0.0
    for a in reversed(np.asarray(coeffs, dtype=float)):
        acc = acc * x + a
    return acc


def pvc_jd_value(f, x: float, q: float) -> float:
    """Pointwise PVC Jackson derivative of a callable at x != 0."""
    require_positive_q(q)
    if x == 0.0:
        raise SingularPointError("the pointwise Jackson derivative is singular at x = 0")
    return (f(x / q) - f(-q * x)) / (x * (q + 1.0 / q))


def vpjc_jd_value(f, x: float, q: float) -> float:
    """Pointwise VPJC Jackson derivative of a callable at x != 0."""
    require_positive_q(q)
    if x == 0.0:
        raise SingularPointError("the pointwise Jackson derivative is singular at x = 0")
    return (f(x) - f(-q * x)) / (x * (1.0 + q))


def jd_polynomial(model: Model, coeffs, q: float) -> np.ndarray:
    """Termwise derivative sum a_n x**n -> sum a_n [n] x**(n-1)."""
    if model not in (Model.PVC, Model.VPJC):
        raise ValueError("polynomial Jackson derivative applies to PVC and VPJC")
    require_positive_q(q)
    a = np.asarray(coeffs, dtype=float)
    return _termwise(a, spectrum(model, q, max(a.size - 1, 0)).values)


def _termwise(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """a_n x**n -> a_n g_n x**(n-1), reading levels 1..a.size - 1 of g."""
    return a[1:] * g[1 : a.size] if a.size > 1 else np.zeros(1)


def _padded(arrays):
    width = max(a.size for a in arrays)
    return [np.pad(a, (0, width - a.size)) for a in arrays]


def jd_operator_identity_residual(model: Model, q: float, polynomials) -> float:
    """Worst coefficient residual of the ladder identity on the given test set.

    VPJC: D(x p) + q x D(p) - p must vanish identically (the basic numbers
    satisfy [n+1] + q [n] = 1).  PVC: the same left side equals p with each
    monomial x**n weighted by q**(-n), the direct polynomial transcription
    of its defining relation c c* + q c*c = q**(-N).
    """
    if model not in (Model.PVC, Model.VPJC):
        raise ValueError("identity check applies to PVC and VPJC")
    require_positive_q(q)
    polys = [np.asarray(p, dtype=float) for p in polynomials]
    if not polys:
        raise ValueError("need at least one test polynomial")
    g = spectrum(model, q, max(p.size for p in polys)).values
    worst = 0.0
    for p in polys:
        d_xp = _termwise(np.concatenate(([0.0], p)), g)
        x_dp = np.concatenate(([0.0], _termwise(p, g)))
        if model is Model.VPJC:
            rhs = p
        else:
            rhs = p * q ** -np.arange(p.size, dtype=float)
        lhs, x_dp, rhs = _padded([d_xp, x_dp, rhs])
        worst = max(worst, float(np.max(np.abs(lhs + q * x_dp - rhs))))
    return worst


def reflection_residual(coeffs, q: float, points) -> float:
    """Check (-q)**degree coefficient weighting against evaluation at -q x.

    Both sides are the polynomial sum a_n (-q)**n x**n; the residual is the
    worst pointwise disagreement over the sample points.
    """
    require_positive_q(q)
    a = np.asarray(coeffs, dtype=float)
    weighted = a * (-q) ** np.arange(a.size, dtype=float)
    worst = 0.0
    for x in points:
        worst = max(worst, abs(polyval(weighted, x) - polyval(a, -q * x)))
    return worst
