"""Model tags and shared exception types for the deformed-fermion toolkit."""

from __future__ import annotations

import enum
import math

# FN modes at most, for the Fock builds and the traces: 2**12 basis states.
# The checks read (d, 2**d) index and amplitude arrays and the covariance its
# (d, d, 2**d) mixed diagonal; only the on-demand dense views grow as d 4**d
MAX_FN_MODES = 12


class Model(enum.Enum):
    """The oscillator families handled by this package.

    FN         multimode, U(d)-covariant fermions, spectrum N q**(N-1)
    CKN        two-level fermions, spectrum 0, 1, 0, q**-2, ...
    PVC        Pauli-violating fermions, c**2 != 0, defined for q != 1
    VPJC       fermions with c c* + q c*c = 1, positive norms need 0 < q < 1
    ARIK_COON  deformed boson, spectrum (1 - q**n)/(1 - q); contrast only
    """

    FN = "fn"
    CKN = "ckn"
    PVC = "pvc"
    VPJC = "vpjc"
    ARIK_COON = "arik-coon"

    @classmethod
    def from_name(cls, name: str) -> "Model":
        key = name.strip().lower().replace("_", "-")
        for member in cls:
            if member.value == key:
                return member
        raise ValueError(
            f"unknown model {name!r}; expected one of {[m.value for m in cls]}"
        )


class SingularPointError(ValueError):
    """Evaluation requested exactly at a singular or discontinuous abscissa."""


class SeriesConvergenceError(ValueError):
    """Series arguments outside the convergence domain, or tolerance unreachable."""


class NonNormalizableStateError(ValueError):
    """A Fock state with vanishing or negative squared norm was requested."""


def require_positive_q(q: float) -> float:
    if not math.isfinite(q) or not q > 0.0:
        raise ValueError(f"deformation parameter must be positive and finite, got {q}")
    return float(q)


def require_open_unit_q(q: float) -> float:
    require_positive_q(q)
    if not q < 1.0:
        raise ValueError(f"deformation parameter must lie in (0, 1), got {q}")
    return float(q)
