"""Aggregated self-checks behind the `check` CLI command.

Each group re-derives a family of identities numerically and returns one
`Row` per check; `run_checks` folds a group's rows into one PASS/FAIL line
and hands the rows on, so the acceptance suite asserts these same rows.
Randomized pieces (unitaries, test polynomials, series sample points) are
driven by the configured seed so runs are reproducible.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import fock, jackson, thermo
from .fdseries import f_gen, h_gen, h_gen_array
from .models import Model
from .spectra import (
    basic_number,
    ckn_spectrum,
    fn_spectrum,
    pvc_basic,
    spectrum,
    vpjc_basic,
    vpjc_recurrence_residual,
)

# One check: it passes where value <= limit.  A yes/no check has limit 0 and
# value 0 (yes) or inf (no); `detail` says what failed.
Row = namedtuple("Row", "name value limit detail")
CheckResult = namedtuple("CheckResult", "name ok detail rows")

_Q_GRID = (0.3, 0.5, 0.9)


class _Rows(list):
    """A group's rows, appended one residual or one yes/no check at a time."""

    def residual(self, name, value, limit, detail=""):
        self.append(Row(name, float(value), limit, detail))

    def expect(self, name, condition, detail=""):
        self.append(Row(name, 0.0 if condition else math.inf, 0.0, detail))


def _failure(row):
    if row.detail:
        return f"{row.name}: {row.detail}"
    if row.limit == 0.0:
        return row.name
    return f"{row.name}: residual {row.value:.3e} exceeds {row.limit:.0e}"


def nearest_limit(rows):
    """The row with the largest nonzero value/limit among rows with limit > 0, or None."""
    graded = [row for row in rows if row.limit > 0.0 and row.value > 0.0]
    return max(graded, key=lambda row: row.value / row.limit, default=None)


def _fold(rows):
    """(ok, detail): the first failure [+k more], or the count and the row
    nearest its limit."""
    failures = [_failure(row) for row in rows if not row.value <= row.limit]
    if failures:
        extra = f" [+{len(failures) - 1} more]" if len(failures) > 1 else ""
        return False, failures[0] + extra
    worst = nearest_limit(rows)
    tail = f", worst {worst.name}={worst.value:.2e}/{worst.limit:.2e}" if worst else ""
    return True, f"{len(rows)} checks{tail}"


def check_spectra(**_):
    rows = _Rows()
    for q in (*_Q_GRID, 1.0, 1.5):
        for model in Model:
            rows.expect(f"g0_zero_{model.value}_q{q}", basic_number(model, 0, q) == 0.0)
        rows.expect(f"g1_one_fn_q{q}", fn_spectrum(1, q) == 1.0)
        rows.expect(f"g1_one_ckn_q{q}", ckn_spectrum(1, q) == 1.0)
        rows.residual(f"g1_one_pvc_q{q}", abs(pvc_basic(1, q) - 1.0), 1e-15)
        rows.expect(f"g1_one_vpjc_q{q}", vpjc_basic(1, q) == 1.0)
    for q in (0.1, *_Q_GRID, 0.99):
        rows.residual(f"vpjc_recurrence_q{q}", vpjc_recurrence_residual(50, q), 1e-14)
    vpjc, pvc, fn = (spectrum(model, 1.0, 11).values.tolist()
                     for model in (Model.VPJC, Model.PVC, Model.FN))
    for n in range(12):
        expected = 0.0 if n % 2 == 0 else 1.0
        rows.expect(f"vpjc_q1_limit_n{n}", vpjc[n] == expected)
        rows.residual(f"pvc_q1_limit_n{n}", abs(pvc[n] - expected), 1e-15)
        rows.expect(f"fn_q1_limit_n{n}", fn[n] == float(n))
    for q in _Q_GRID:
        lower = (1.0 - q) / (1.0 + q)
        vpjc = spectrum(Model.VPJC, q, 60).values.tolist()
        for n in range(1, 61):
            val = vpjc[n]
            rows.expect(
                f"vpjc_bounds_q{q}_n{n}",
                lower - 1e-15 <= val <= 1.0 + 1e-15 and val > 0.0,
            )
    for q in (1.5, 2.0):
        vpjc = spectrum(Model.VPJC, q, 20).values.tolist()
        for n in range(2, 21, 2):
            rows.expect(f"vpjc_negative_q{q}_n{n}", vpjc[n] < 0.0)
    return rows


def check_fock(seed=0, vpjc_q=0.5, strict_norms=False, **_):
    rows = _Rows()
    single = [(model, q, 40) for model in (Model.VPJC, Model.PVC) for q in (*_Q_GRID, 1.0)]
    single += [(Model.CKN, q, 2) for q in (*_Q_GRID, 1.0, 1.5)]
    for model, q, dim in single:
        ops = fock.build_single_mode(model, q, dim)
        rows.residual(
            f"relations_{model.value}_q{q}", fock.check_algebra(ops).max_residual, 1e-12
        )
        diag = fock.spectrum_of_number_operator(ops)
        closed = spectrum(model, q, dim - 1).values
        # entrywise, at the scale of each entry (PVC entries reach q**-n)
        rows.residual(
            f"spectrum_{model.value}_q{q}",
            float(np.max(np.abs(diag - closed) / np.maximum(1.0, np.abs(closed)))),
            1e-13,
        )
    for q in (*_Q_GRID, 1.0, 1.5):
        for d in range(1, 5):
            ops = fock.build_fn_multimode(d, q)
            report = fock.check_algebra(ops)
            rows.residual(f"relations_fn_d{d}_q{q}", report.max_residual, 1e-12)
            diag = fock.spectrum_of_number_operator(ops)
            closed = spectrum(Model.FN, q, d).values[ops.occupation.astype(int)]
            rows.residual(
                f"spectrum_fn_d{d}_q{q}", float(np.max(np.abs(diag - closed))), 1e-13
            )
    rows.residual(
        "covariance_identity", fock.covariance_check(2, 0.5, np.eye(2)), 1e-13
    )
    rows.residual(
        "covariance_swap",
        fock.covariance_check(2, 0.5, np.array([[0.0, 1.0], [1.0, 0.0]])),
        1e-13,
    )
    rows.residual(
        "covariance_random_unitary",
        fock.covariance_check(3, 0.5, fock.haar_unitary(3, seed)),
        1e-10,
    )
    ckn_ops = fock.build_single_mode(Model.CKN, 0.5, 2)
    rows.residual(
        "ckn_rescaled_undeformed",
        max(fock.ckn_undeformed_residuals(ckn_ops).values()),
        1e-13,
    )
    # VPJC norms are positive for q < 1; for q > 1 every even level is negative
    for q in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 2.0):
        flagged = [n for n, _ in fock.build_single_mode(Model.VPJC, q, 40).norm_violations]
        rows.expect(f"vpjc_norms_q{q}", flagged == list(range(2, 40, 2) if q > 1.0 else ()),
                    f"flagged levels {flagged}")
    audit = fock.build_single_mode(Model.VPJC, vpjc_q, 12)
    if strict_norms:
        first = audit.norm_violations[0] if audit.norm_violations else None
        rows.expect(
            "norm_positivity",
            not audit.norm_violations,
            f"{len(audit.norm_violations)} negative-norm levels, first "
            f"n={first[0]} g={first[1]:g}" if first else "",
        )
    else:
        expected_even = tuple(n for n in range(2, 12, 2)) if vpjc_q > 1.0 else ()
        rows.expect(
            "norm_audit_consistent",
            tuple(n for n, _ in audit.norm_violations) == expected_even,
            f"flagged levels {[n for n, _ in audit.norm_violations]}",
        )
    return rows


def check_jackson(seed=0, **_):
    rows = _Rows()
    for model in (Model.PVC, Model.VPJC):
        for q in (*_Q_GRID, 1.0):
            # row n - 1 is x**n, whose derivative is [n] x**(n-1)
            out = jackson.jd_polynomial(model, np.eye(21)[1:], q)
            expected = np.diag(spectrum(model, q, 20).values[1:])
            rows.residual(f"monomials_{model.value}_q{q}", np.max(np.abs(out - expected)), 1e-14)
    rng = np.random.default_rng(seed)
    poly = rng.uniform(-2.0, 2.0, size=7)
    monomials = [np.eye(7)[k][: k + 1] for k in range(7)]
    dense = np.array([1.0, -1.0, 0.5, 2.0, -0.25, 1.0, 0.75])
    for q in (*_Q_GRID, 1.0):
        for label, polys, limit in (("monomials", monomials, 1e-14), ("random", [poly], 1e-13),
                                    ("dense", [dense], 1e-14)):
            rows.residual(f"vpjc_identity_{label}_q{q}",
                          jackson.jd_operator_identity_residual(Model.VPJC, q, polys), limit)
        # the PVC right side grows like q**-degree, so judge at that scale
        rows.residual(
            f"pvc_identity_q{q}",
            jackson.jd_operator_identity_residual(Model.PVC, q, [*monomials, poly]),
            1e-13 * max(1.0, q**-7),
        )
        rows.residual(f"reflection_q{q}", jackson.reflection_residual(poly, q, (0.3, 1.7)), 1e-12)
    for model, fn in ((Model.PVC, jackson.pvc_jd_value), (Model.VPJC, jackson.vpjc_jd_value)):
        worst = 0.0
        for x in (-10.0, -1.3, -0.1, 0.1, 0.7, 10.0):
            val = fn(lambda u: jackson.polyval(poly, u), x, 0.5)
            ana = jackson.polyval(jackson.jd_polynomial(model, poly, 0.5), x)
            worst = max(worst, abs(val - ana) / max(1.0, abs(ana)))
        rows.residual(f"pointwise_match_{model.value}", worst, 1e-12)
    rows.expect(
        "vpjc_q1_not_classical",
        jackson.vpjc_jd_value(lambda u: u * u, 1.0, 1.0) == 0.0,
        "x**2 at q = 1 should map to 0, not 2x",
    )
    return rows


def check_series(seed=0, **_):
    rows = _Rows()
    for q in _Q_GRID:
        for z in (0.1, 0.5, 0.9 / q):
            for order in (1.5, 2.5):
                direct = f_gen(order, q, z, 1e-13).value
                scaled = f_gen(order, 1.0, q * z, 1e-13).value
                rows.residual(f"substitution_q{q}_z{z:g}_n{order}", abs(direct - scaled), 1e-13)
    rng = np.random.default_rng(seed)
    for k in range(100):
        order = float(rng.uniform(0.5, 3.0))
        q = float(rng.uniform(0.2, 0.95))
        z = float(rng.uniform(0.01, 0.99)) / q
        tol = 10.0 ** rng.uniform(-10, -6)
        coarse = f_gen(order, q, z, tol)
        fine = f_gen(order, q, z, tol * 1e-3)
        drift = abs(coarse.value - fine.value)
        rows.residual(f"f_bound_sound_{k}", drift, coarse.error_bound + 1e-16,
                      f"drift {drift:.2e} > bound {coarse.error_bound:.2e}")
        if z < 1.0:
            h_coarse = h_gen(order, z * q, q, tol)
            h_fine = h_gen(order, z * q, q, tol * 1e-3)
            rows.residual(f"h_bound_sound_{k}", abs(h_coarse.value - h_fine.value),
                          h_coarse.error_bound + 1e-16)
    for q in _Q_GRID:
        zs = np.linspace(0.05, 0.95, 10) / q
        vals = [f_gen(1.5, q, z, 1e-12).value for z in zs]
        rows.expect(f"f_monotone_q{q}", all(a < b for a, b in zip(vals, vals[1:])))
        hvals = h_gen_array(1.5, np.linspace(0.05, 0.95, 10) * q, q, 1e-12)[0].value
        rows.expect(f"h_monotone_q{q}", bool(np.all(np.diff(hvals) > 0.0)))
    # termwise ordering: each term of the higher order is no larger in magnitude
    ls = np.arange(1, 200, dtype=float)
    rows.expect("termwise_order", bool(np.all(ls**-2.5 <= ls**-1.5)))
    return rows


def check_thermo(seed=0, **_):
    rows = _Rows()
    etas = np.linspace(-10.0, 10.0, 201)
    ref = 1.0 / (np.exp(etas) + 1.0)
    limits = (thermo.fn_distribution_array(etas, 1.0), thermo.ckn_distribution_array(etas, 1.0),
              thermo.q1_limit_distribution_array(etas))
    worst = max(float(np.max(np.abs(values - ref))) for values, _ in limits)
    rows.residual("undeformed_limits", worst, 1e-14)
    # every closed form at the points below, one kernel call per (model, q)
    ratio_etas = (0.5, 1.0, 2.0, 4.0)
    keys = ("high", "low", "zero", *ratio_etas)
    n = {model: {} for model in (Model.FN, Model.CKN, Model.PVC, Model.VPJC)}
    for q in _Q_GRID:
        points = np.array([40.0, -40.0, thermo.vpjc_zero_crossing(q), *ratio_etas])
        for model, by_q in n.items():
            values, _ = thermo.MODELS[model].distribution_array(points, q)
            by_q[q] = dict(zip(keys, values.tolist()))
    fn, ckn, pvc, vpjc = n.values()
    for q in _Q_GRID:
        rows.residual(f"vpjc_crossing_value_q{q}", vpjc[q]["zero"], 1e-12)
        rows.expect(
            f"step_high_eta_q{q}",
            fn[q]["high"] < 1e-15
            and ckn[q]["high"] < 1e-15
            and vpjc[q]["high"] < 1e-15
            and pvc[q]["high"] < 1e-14,
        )
        rows.expect(
            f"step_low_eta_q{q}",
            abs(fn[q]["low"] - 1.0) < 1e-15 and abs(ckn[q]["low"] - 1.0) < 1e-15,
        )
    for eta in (0.5, 1.0, 2.0):
        ckn_vals = [ckn[q][eta] for q in (0.9, 0.5, 0.3)]
        fn_vals = [fn[q][eta] for q in (0.9, 0.5, 0.3)]
        vpjc_vals = [vpjc[q][eta] for q in (0.9, 0.5, 0.3)]
        rows.expect(f"ckn_monotone_eta{eta}", ckn_vals[0] < ckn_vals[1] < ckn_vals[2])
        rows.expect(f"fn_monotone_eta{eta}", fn_vals[0] > fn_vals[1] > fn_vals[2])
        rows.expect(f"vpjc_monotone_eta{eta}", vpjc_vals[0] > vpjc_vals[1] > vpjc_vals[2])
    for q in _Q_GRID:
        for eta in ratio_etas:
            for model, by_q in ((Model.VPJC, vpjc), (Model.PVC, pvc)):
                root = thermo.occupation_ratio_solve(model, eta, q)
                # the PVC distribution reports |n|; the VPJC root is positive
                rows.residual(f"ratio_{model.value}_q{q}_eta{eta}",
                              abs(abs(root) - by_q[q][eta]), 1e-10)
        for eta in (1.0, 2.0, 4.0):
            for model, limit in ((Model.VPJC, 1e-6), (Model.PVC, 1e-6),
                                 (Model.CKN, 1e-13), (Model.FN, 1e-13)):
                trace = thermo.exact_trace_occupation(model, q, eta, n_max=60, d=3)
                # a divergent trace (PVC for exp(-eta) >= q) is boundary-dominated
                if trace.converged:
                    rows.residual(f"trace_{model.value}_q{q}_eta{eta}",
                                  trace.identity_residual, limit)
    a2_target, a3_target = thermo.VIRIAL_TARGETS[2], thermo.VIRIAL_TARGETS[3]
    fn_a2 = [thermo.virial_coefficients(Model.FN, q, 3) for q in (0.3, 0.5, 0.9, 1.5)]
    rows.residual("virial_fn_a2", max(abs(c[1] - a2_target) for c in fn_a2), 1e-10)
    rows.residual(
        "virial_fn_a2_spread",
        max(c[1] for c in fn_a2) - min(c[1] for c in fn_a2),
        1e-10,
    )
    ckn_a3 = [thermo.virial_coefficients(Model.CKN, q, 3)[2] for q in (0.3, 0.5, 0.7, 0.9, 1.5)]
    rows.residual("virial_ckn_a3", max(abs(a - a3_target) for a in ckn_a3), 1e-9)
    rows.residual("virial_ckn_a3_spread", max(ckn_a3) - min(ckn_a3), 1e-10)
    for z in (0.2, 0.5, 0.8):
        deformed = thermo.fn_eos(0.5, z)
        plain = thermo.fn_eos(1.0, z)
        rows.expect(f"fn_pressure_drop_z{z}", deformed.pressure < plain.pressure)
        rows.expect(f"fn_entropy_drop_z{z}", deformed.entropy < plain.entropy)
    comparison = thermo.fn_pvc_comparison(0.5, 0.3)
    rows.expect("fn_below_pvc_pressure", comparison["fn_pressure_lower"])
    # entropy direction recorded, not asserted: the per-volume PVC entropy
    # form carries no -ln(z) term, and the measured direction flips
    rows.expect("fn_pvc_entropy_recorded", "fn_entropy_lower" in comparison)
    mu_qs = np.array([0.5, 1.0, 2.0])
    mu = dict(zip(mu_qs.tolist(), thermo.fn_mu_numeric_array(0.05, mu_qs).tolist()))
    for q, closed in zip(mu, thermo.fn_mu_lowT_array(0.05, mu_qs).tolist()):
        rows.residual(f"mu_agreement_q{q}", abs(mu[q] - closed) / abs(closed), 1e-3,
                      f"numeric {mu[q]} vs closed {closed}")
    shift = mu[1.0] - mu[2.0]
    rows.residual("mu_q_shift", abs(shift - 0.05 * math.log(2.0)), 1e-4)
    return rows


GROUPS = {
    "spectra": check_spectra,
    "fock": check_fock,
    "jackson": check_jackson,
    "series": check_series,
    "thermo": check_thermo,
}


def run_checks(groups=None, seed=0, vpjc_q=0.5, strict_norms=False):
    """Run the named groups (all by default): one CheckResult per group, with its rows."""
    names = list(GROUPS) if not groups else list(groups)
    unknown = [n for n in names if n not in GROUPS]
    if unknown:
        raise ValueError(f"unknown check group(s) {unknown}; available: {list(GROUPS)}")
    results = []
    for name in names:
        rows = GROUPS[name](seed=seed, vpjc_q=vpjc_q, strict_norms=strict_norms)
        results.append(CheckResult(name, *_fold(rows), rows))
    return results
