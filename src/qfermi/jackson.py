"""Fermionic Jackson derivatives for the PVC and VPJC families.

Two evaluation paths are provided.  The pointwise forms

    PVC:   D f(x) = (f(x/q) - f(-q x)) / (x (q + 1/q))
    VPJC:  D f(x) = (f(x)   - f(-q x)) / (x (1 + q))

work for arbitrary functions but are singular at x = 0.  On polynomials the
derivative acts termwise as x**n -> [n] x**(n-1) with [n] the model's basic
number, which removes the singularity analytically; `jd_polynomial` uses
that coefficient mapping.  Neither derivative reduces to d/dx at q = 1.

Polynomials are plain coefficient sequences, coeffs[k] <-> x**k.  Stacks
of them run along the last axis: row i of a (k, n) array is one polynomial,
coeffs[i, j] <-> x**j, and `jd_polynomial` maps the whole stack in one call.
"""

from __future__ import annotations

import math

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
    """Termwise derivative sum a_n x**n -> sum a_n [n] x**(n-1), along the last axis."""
    if model not in (Model.PVC, Model.VPJC):
        raise ValueError("polynomial Jackson derivative applies to PVC and VPJC")
    require_positive_q(q)
    a = np.asarray(coeffs, dtype=float)
    if a.ndim == 0 or a.shape[-1] < 2:  # a constant maps to the zero constant
        return np.zeros((*a.shape[:-1], 1))
    return a[..., 1:] * spectrum(model, q, a.shape[-1] - 1).values[1:]


@np.errstate(all="ignore")  # an overflowed term reads as inf
def jd_operator_identity_residual(model: Model, q: float, polynomials) -> float:
    """Worst coefficient residual of the ladder identity on the given test set.

    VPJC: D(x p) + q x D(p) - p must vanish identically (the basic numbers
    satisfy [n+1] + q [n] = 1).  PVC: the same left side equals p with each
    monomial x**n weighted by q**(-n), the direct polynomial transcription
    of its defining relation c c* + q c*c = q**(-N).  A coefficient that is
    not finite raises ValueError naming its polynomial; terms that overflow
    to inf - inf give an infinite residual, never a pass, and without a numpy
    warning, as the `fock` checks report theirs.
    """
    if model not in (Model.PVC, Model.VPJC):
        raise ValueError("identity check applies to PVC and VPJC")
    require_positive_q(q)
    polys = [np.asarray(p, dtype=float) for p in polynomials]
    if not polys:
        raise ValueError("need at least one test polynomial")
    n = max(p.size for p in polys)
    g = spectrum(model, q, n).values
    # one zero-padded row per polynomial; coefficient j of D(x p) is p_j [j+1],
    # of x D(p) it is p_j [j], and [0] = 0 is the zero constant term of x D(p)
    stack = np.zeros((len(polys), n))
    for row, p in zip(stack, polys):
        row[: p.size] = p
    bad = np.flatnonzero(~np.isfinite(stack).all(axis=1))
    if bad.size:
        raise ValueError(f"test polynomial {bad[0]} has a coefficient that is not finite")
    # the weights are finite: `spectrum` raises where (1/q)**n, above q**-(n-1), overflows
    rhs = stack if model is Model.VPJC else stack * q ** -np.arange(n, dtype=float)
    residual = np.abs(stack * g[1:] + q * (stack * g[:-1]) - rhs)
    worst = float(residual.max(initial=0.0))
    return math.inf if math.isnan(worst) else worst


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
