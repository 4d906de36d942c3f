"""End-to-end acceptance checks, one test (and one printed line) each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.

Criteria 02-07 and 09-11 are rows of `qfermi check`: each test selects its
rows from `verify.run_checks` by name, asserts the row count and every row,
so each grid and bound is stated once, in `qfermi.verify`.  Criteria 01 and
12 read the CLI's figure output, and 08 stays here because `check` skips the
trace residual where the ladder trace diverges.

Known red: criterion 8 includes the grid point (PVC, q = 0.3, eta = 1) where
exp(-eta)/q > 1, so the ladder trace of the deformed occupation diverges and
the shift-identity residual is boundary-dominated (about 1.2e5 at the stated
cutoff, growing with it).  The check is asserted as stated and fails there;
every other grid point passes.
"""

import functools
import math

from qfermi import Model, exact_trace_occupation
from qfermi.cli import main
from qfermi.verify import nearest_limit, run_checks


def _report(number: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    return ok


def _read_csv(path):
    with open(path) as handle:
        header = handle.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in handle]
    return header, rows


def _bisect_crossing(q: float, lo: float, hi: float) -> float:
    # sign of |exp(eta) - 1| - (exp(eta) + q) on the eta < 0 side
    gap = lambda eta: (1.0 - q) - 2.0 * math.exp(eta)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.cache
def _group_rows(group: str) -> tuple:
    (result,) = run_checks([group])
    return tuple(result.rows)


def _criterion(number: int, name: str, group: str, prefixes: tuple, count: int) -> None:
    """Assert the `count` rows of `group` whose names start with one of `prefixes`."""
    rows = [row for row in _group_rows(group) if row.name.startswith(prefixes)]
    failed = [f"{row.name}={row.value:.2e} > {row.limit:.0e}"
              for row in rows if not row.value <= row.limit]
    if len(rows) != count:
        failed.insert(0, f"{len(rows)} rows, expected {count}")
    worst = nearest_limit(rows)
    detail = "; ".join(failed) or f"{count}/{count} rows pass" + (
        f", worst {worst.name}={worst.value:.1e}/{worst.limit:.1e}" if worst else "")
    assert _report(number, name, not failed, detail), failed


def test_01_vpjc_zero_crossings(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["figure", "fig2", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    etas = [float(r[0]) for r in rows]
    roots = {}
    for label, q in (("n_q0.5", 0.5), ("n_q0.333333", 1.0 / 3.0)):
        col = header.index(label)
        values = [float(r[col]) for r in rows]
        negative = [(e, v) for e, v in zip(etas, values) if e < -1e-6]
        dip_index = min(range(len(negative)), key=lambda k: negative[k][1])
        lo = negative[max(dip_index - 1, 0)][0]
        hi = negative[min(dip_index + 1, len(negative) - 1)][0]
        roots[q] = _bisect_crossing(q, lo, hi)
    ok_half = abs(roots[0.5] - (-1.3863)) <= 1e-3
    ok_third = abs(roots[1.0 / 3.0] - (-1.0986)) <= 7e-3
    detail = f"roots {roots[0.5]:.5f}, {roots[1/3]:.5f}"
    assert _report(1, "vpjc-zero-crossings", ok_half and ok_third, detail)


def test_02_undeformed_limits():
    _criterion(2, "undeformed-limits", "thermo", ("undeformed_limits",), 1)


def test_03_virial_coefficients():
    _criterion(3, "virial-coefficients", "thermo", ("virial_",), 4)


def test_04_algebra_residuals():
    _criterion(4, "algebra-residuals", "fock", ("relations_",), 33)


def test_05_spectrum_consistency():
    _criterion(5, "spectrum-consistency", "fock", ("spectrum_",), 33)


def test_06_jackson_derivative_exactness():
    _criterion(6, "jackson-derivative-exactness", "jackson",
               ("monomials_", "vpjc_identity_monomials_", "vpjc_identity_dense_"), 16)


def test_07_norm_positivity_audit():
    _criterion(7, "norm-positivity-audit", "fock", ("vpjc_norms_",), 7)


def test_08_trace_identity():
    failures = []
    worst_truncated = 0.0
    for model in (Model.VPJC, Model.PVC):
        for q in (0.3, 0.5, 0.9):
            for eta in (1.0, 2.0, 4.0):
                residual = exact_trace_occupation(
                    model, q, eta, n_max=60
                ).identity_residual
                worst_truncated = max(worst_truncated, residual)
                if residual > 1e-6:
                    failures.append(f"{model.value} q={q} eta={eta}: {residual:.3e}")
    worst_exact = 0.0
    for q in (0.3, 0.5, 0.9):
        for eta in (1.0, 2.0, 4.0):
            worst_exact = max(
                worst_exact,
                exact_trace_occupation(Model.CKN, q, eta).identity_residual,
                exact_trace_occupation(Model.FN, q, eta, d=1).identity_residual,
                exact_trace_occupation(Model.FN, q, eta, d=4).identity_residual,
            )
    if worst_exact > 1e-13:
        failures.append(f"exact traces: {worst_exact:.3e}")
    detail = "; ".join(failures) if failures else f"worst {worst_truncated:.2e}"
    assert _report(8, "trace-identity", not failures, detail), failures


def test_09_chemical_potential():
    _criterion(9, "chemical-potential", "thermo", ("mu_agreement_", "mu_q_shift"), 4)


def test_10_monotonicity_and_ordering():
    _criterion(10, "monotonicity-and-ordering", "thermo",
               ("ckn_monotone_", "fn_monotone_", "vpjc_monotone_", "fn_pressure_drop_",
                "fn_entropy_drop_"), 15)


def test_11_occupation_ratio_equivalence():
    _criterion(11, "occupation-ratio-equivalence", "thermo", ("ratio_",), 24)


def test_12_figure_determinism(tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(["figure", "fig2", "--out", str(first)]) == 0
    assert main(["figure", "fig2", "--out", str(second)]) == 0
    ok = first.read_bytes() == second.read_bytes()
    assert _report(12, "figure-determinism", ok)
