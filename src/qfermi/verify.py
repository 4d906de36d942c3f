"""Aggregated self-checks behind the `check` CLI command.

Each group re-derives a family of identities numerically and reports a
single PASS/FAIL line; randomized pieces (unitaries, test polynomials,
series sample points) are driven by the configured seed so runs are
reproducible.
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

CheckResult = namedtuple("CheckResult", "name ok detail")

_Q_GRID = (0.3, 0.5, 0.9)


class _Recorder:
    def __init__(self):
        self.count = 0
        self.failures = []
        self.worst_name = ""
        self.worst_value = 0.0

    def residual(self, name, value, limit):
        self.count += 1
        if value > self.worst_value:
            self.worst_name, self.worst_value = name, value
        if not value <= limit:
            self.failures.append(f"{name}: residual {value:.3e} exceeds {limit:.0e}")

    def expect(self, name, condition, detail=""):
        self.count += 1
        if not condition:
            self.failures.append(f"{name}" + (f": {detail}" if detail else ""))

    def summary(self):
        if self.failures:
            extra = f" [+{len(self.failures) - 1} more]" if len(self.failures) > 1 else ""
            return False, self.failures[0] + extra
        worst = (
            f", worst {self.worst_name}={self.worst_value:.2e}"
            if self.worst_name
            else ""
        )
        return True, f"{self.count} checks{worst}"


def check_spectra(**_):
    rec = _Recorder()
    for q in (*_Q_GRID, 1.0, 1.5):
        for model in Model:
            rec.expect(f"g0_zero_{model.value}_q{q}", basic_number(model, 0, q) == 0.0)
        rec.expect(f"g1_one_fn_q{q}", fn_spectrum(1, q) == 1.0)
        rec.expect(f"g1_one_ckn_q{q}", ckn_spectrum(1, q) == 1.0)
        rec.expect(f"g1_one_pvc_q{q}", abs(pvc_basic(1, q) - 1.0) < 1e-15)
        rec.expect(f"g1_one_vpjc_q{q}", vpjc_basic(1, q) == 1.0)
    for q in (0.1, *_Q_GRID, 0.99):
        rec.residual(f"vpjc_recurrence_q{q}", vpjc_recurrence_residual(50, q), 1e-14)
    vpjc, pvc, fn = (spectrum(model, 1.0, 11).values.tolist()
                     for model in (Model.VPJC, Model.PVC, Model.FN))
    for n in range(12):
        expected = 0.0 if n % 2 == 0 else 1.0
        rec.expect(f"vpjc_q1_limit_n{n}", vpjc[n] == expected)
        rec.expect(f"pvc_q1_limit_n{n}", abs(pvc[n] - expected) < 1e-15)
        rec.expect(f"fn_q1_limit_n{n}", fn[n] == float(n))
    for q in _Q_GRID:
        lower = (1.0 - q) / (1.0 + q)
        vpjc = spectrum(Model.VPJC, q, 60).values.tolist()
        for n in range(1, 61):
            val = vpjc[n]
            rec.expect(
                f"vpjc_bounds_q{q}_n{n}",
                lower - 1e-15 <= val <= 1.0 + 1e-15 and val > 0.0,
            )
    for q in (1.5, 2.0):
        vpjc = spectrum(Model.VPJC, q, 20).values.tolist()
        for n in range(2, 21, 2):
            rec.expect(f"vpjc_negative_q{q}_n{n}", vpjc[n] < 0.0)
    return rec.summary()


def check_fock(seed=0, vpjc_q=0.5, strict_norms=False, **_):
    rec = _Recorder()
    for q in (*_Q_GRID, 1.0):
        for model, dim in ((Model.VPJC, 40), (Model.PVC, 40), (Model.CKN, 2)):
            ops = fock.build_single_mode(model, q, dim)
            report = fock.check_algebra(ops)
            rec.residual(
                f"relations_{model.value}_q{q}", report.max_residual, 1e-12
            )
            diag = fock.spectrum_of_number_operator(ops)
            closed = spectrum(model, q, dim - 1).values
            # entrywise, at the scale of each entry (PVC entries reach q**-n)
            rec.residual(
                f"spectrum_{model.value}_q{q}",
                float(np.max(np.abs(diag - closed) / np.maximum(1.0, np.abs(closed)))),
                1e-13,
            )
    for q in (*_Q_GRID, 1.0, 1.5):
        for d in range(1, 5):
            ops = fock.build_fn_multimode(d, q)
            report = fock.check_algebra(ops)
            rec.residual(f"relations_fn_d{d}_q{q}", report.max_residual, 1e-12)
            diag = fock.spectrum_of_number_operator(ops)
            closed = spectrum(Model.FN, q, d).values[ops.occupation.astype(int)]
            rec.residual(
                f"spectrum_fn_d{d}_q{q}", float(np.max(np.abs(diag - closed))), 1e-13
            )
    rec.residual(
        "covariance_identity", fock.covariance_check(2, 0.5, np.eye(2)), 1e-13
    )
    rec.residual(
        "covariance_swap",
        fock.covariance_check(2, 0.5, np.array([[0.0, 1.0], [1.0, 0.0]])),
        1e-13,
    )
    rec.residual(
        "covariance_random_unitary",
        fock.covariance_check(3, 0.5, fock.haar_unitary(3, seed)),
        1e-10,
    )
    ckn_ops = fock.build_single_mode(Model.CKN, 0.5, 2)
    rec.residual(
        "ckn_rescaled_undeformed",
        max(fock.ckn_undeformed_residuals(ckn_ops).values()),
        1e-13,
    )
    audit = fock.build_single_mode(Model.VPJC, vpjc_q, 12)
    if strict_norms:
        first = audit.norm_violations[0] if audit.norm_violations else None
        rec.expect(
            "norm_positivity",
            not audit.norm_violations,
            f"{len(audit.norm_violations)} negative-norm levels, first "
            f"n={first[0]} g={first[1]:g}" if first else "",
        )
    else:
        expected_even = tuple(n for n in range(2, 12, 2)) if vpjc_q > 1.0 else ()
        rec.expect(
            "norm_audit_consistent",
            tuple(n for n, _ in audit.norm_violations) == expected_even,
            f"flagged levels {[n for n, _ in audit.norm_violations]}",
        )
    return rec.summary()


def check_jackson(seed=0, **_):
    rec = _Recorder()
    for model in (Model.PVC, Model.VPJC):
        for q in (*_Q_GRID, 1.0):
            g = spectrum(model, q, 20).values
            worst = 0.0
            for n in range(1, 21):
                mono = np.zeros(n + 1)
                mono[n] = 1.0
                out = jackson.jd_polynomial(model, mono, q)
                expected = np.zeros(n)
                expected[n - 1] = g[n]
                worst = max(worst, float(np.max(np.abs(out - expected))))
            rec.residual(f"monomials_{model.value}_q{q}", worst, 1e-14)
    rng = np.random.default_rng(seed)
    poly = rng.uniform(-2.0, 2.0, size=7)
    monomials = [np.eye(7)[k][: k + 1] for k in range(7)]
    for q in (*_Q_GRID, 1.0):
        rec.residual(
            f"vpjc_identity_q{q}",
            jackson.jd_operator_identity_residual(Model.VPJC, q, [*monomials, poly]),
            1e-13,
        )
        # the PVC right side grows like q**-degree, so judge at that scale
        rec.residual(
            f"pvc_identity_q{q}",
            jackson.jd_operator_identity_residual(Model.PVC, q, [*monomials, poly]),
            1e-13 * max(1.0, q**-7),
        )
        rec.residual(f"reflection_q{q}", jackson.reflection_residual(poly, q, (0.3, 1.7)), 1e-12)
    for model, fn in ((Model.PVC, jackson.pvc_jd_value), (Model.VPJC, jackson.vpjc_jd_value)):
        worst = 0.0
        for x in (-10.0, -1.3, -0.1, 0.1, 0.7, 10.0):
            val = fn(lambda u: jackson.polyval(poly, u), x, 0.5)
            ana = jackson.polyval(jackson.jd_polynomial(model, poly, 0.5), x)
            worst = max(worst, abs(val - ana) / max(1.0, abs(ana)))
        rec.residual(f"pointwise_match_{model.value}", worst, 1e-12)
    rec.expect(
        "vpjc_q1_not_classical",
        jackson.vpjc_jd_value(lambda u: u * u, 1.0, 1.0) == 0.0,
        "x**2 at q = 1 should map to 0, not 2x",
    )
    return rec.summary()


def check_series(seed=0, **_):
    rec = _Recorder()
    for q in _Q_GRID:
        for z in (0.1, 0.5, 0.9 / q):
            for order in (1.5, 2.5):
                direct = f_gen(order, q, z, 1e-13).value
                scaled = f_gen(order, 1.0, q * z, 1e-13).value
                rec.residual(f"substitution_q{q}_z{z:g}_n{order}", abs(direct - scaled), 1e-13)
    rng = np.random.default_rng(seed)
    for k in range(100):
        order = float(rng.uniform(0.5, 3.0))
        q = float(rng.uniform(0.2, 0.95))
        z = float(rng.uniform(0.01, 0.99)) / q
        tol = 10.0 ** rng.uniform(-10, -6)
        coarse = f_gen(order, q, z, tol)
        fine = f_gen(order, q, z, tol * 1e-3)
        rec.expect(
            f"f_bound_sound_{k}",
            abs(coarse.value - fine.value) <= coarse.error_bound + 1e-16,
            f"drift {abs(coarse.value - fine.value):.2e} > bound {coarse.error_bound:.2e}",
        )
        if z < 1.0:
            h_coarse = h_gen(order, z * q, q, tol)
            h_fine = h_gen(order, z * q, q, tol * 1e-3)
            rec.expect(
                f"h_bound_sound_{k}",
                abs(h_coarse.value - h_fine.value) <= h_coarse.error_bound + 1e-16,
            )
    for q in _Q_GRID:
        zs = np.linspace(0.05, 0.95, 10) / q
        vals = [f_gen(1.5, q, z, 1e-12).value for z in zs]
        rec.expect(f"f_monotone_q{q}", all(a < b for a, b in zip(vals, vals[1:])))
        hvals = h_gen_array(1.5, np.linspace(0.05, 0.95, 10) * q, q, 1e-12)[0].value
        rec.expect(f"h_monotone_q{q}", bool(np.all(np.diff(hvals) > 0.0)))
    # termwise ordering: each term of the higher order is no larger in magnitude
    ls = np.arange(1, 200, dtype=float)
    rec.expect("termwise_order", bool(np.all(ls**-2.5 <= ls**-1.5)))
    return rec.summary()


def check_thermo(seed=0, **_):
    rec = _Recorder()
    etas = np.linspace(-10.0, 10.0, 201)
    ref, _ = thermo.q1_limit_distribution_array(etas)
    worst = max(
        float(np.max(np.abs(thermo.fn_distribution_array(etas, 1.0)[0] - ref))),
        float(np.max(np.abs(thermo.ckn_distribution_array(etas, 1.0)[0] - ref))),
    )
    rec.residual("undeformed_limits", worst, 1e-14)
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
        rec.residual(f"vpjc_crossing_value_q{q}", vpjc[q]["zero"], 1e-12)
        rec.expect(
            f"step_high_eta_q{q}",
            fn[q]["high"] < 1e-15
            and ckn[q]["high"] < 1e-15
            and vpjc[q]["high"] < 1e-15
            and pvc[q]["high"] < 1e-14,
        )
        rec.expect(
            f"step_low_eta_q{q}",
            abs(fn[q]["low"] - 1.0) < 1e-15 and abs(ckn[q]["low"] - 1.0) < 1e-15,
        )
    for eta in (0.5, 1.0, 2.0):
        ckn_vals = [ckn[q][eta] for q in (0.9, 0.5, 0.3)]
        fn_vals = [fn[q][eta] for q in (0.9, 0.5, 0.3)]
        vpjc_vals = [vpjc[q][eta] for q in (0.9, 0.5, 0.3)]
        rec.expect(f"ckn_monotone_eta{eta}", ckn_vals[0] < ckn_vals[1] < ckn_vals[2])
        rec.expect(f"fn_monotone_eta{eta}", fn_vals[0] > fn_vals[1] > fn_vals[2])
        rec.expect(f"vpjc_monotone_eta{eta}", vpjc_vals[0] > vpjc_vals[1] > vpjc_vals[2])
    for q in _Q_GRID:
        for eta in ratio_etas:
            for model, by_q in ((Model.VPJC, vpjc), (Model.PVC, pvc)):
                root = thermo.occupation_ratio_solve(model, eta, q)
                # the PVC distribution reports |n|; the VPJC root is positive
                rec.residual(f"ratio_{model.value}_q{q}_eta{eta}",
                             abs(abs(root) - by_q[q][eta]), 1e-10)
        for eta in (1.0, 2.0, 4.0):
            for model, limit in ((Model.VPJC, 1e-6), (Model.PVC, 1e-6),
                                 (Model.CKN, 1e-13), (Model.FN, 1e-13)):
                trace = thermo.exact_trace_occupation(model, q, eta, n_max=60, d=3)
                # a divergent trace (PVC for exp(-eta) >= q) is boundary-dominated
                if trace.converged:
                    rec.residual(f"trace_{model.value}_q{q}_eta{eta}",
                                 trace.identity_residual, limit)
    a2_target = 2.0**-2.5
    a3_target = 0.125 - 2.0 * 3.0**-2.5
    fn_a2 = [thermo.virial_coefficients(Model.FN, q, 3) for q in (0.3, 0.5, 0.9, 1.5)]
    rec.residual("virial_fn_a2", max(abs(c[1] - a2_target) for c in fn_a2), 1e-10)
    rec.residual(
        "virial_fn_a2_spread",
        max(c[1] for c in fn_a2) - min(c[1] for c in fn_a2),
        1e-10,
    )
    ckn_a3 = thermo.virial_coefficients(Model.CKN, 0.7, 3)
    rec.residual("virial_ckn_a3", abs(ckn_a3[2] - a3_target), 1e-9)
    for z in (0.2, 0.5, 0.8):
        deformed = thermo.fn_eos(0.5, z)
        plain = thermo.fn_eos(1.0, z)
        rec.expect(f"fn_pressure_drop_z{z}", deformed.pressure < plain.pressure)
        rec.expect(f"fn_entropy_drop_z{z}", deformed.entropy < plain.entropy)
    comparison = thermo.fn_pvc_comparison(0.5, 0.3)
    rec.expect("fn_below_pvc_pressure", comparison["fn_pressure_lower"])
    # entropy direction recorded, not asserted: the per-volume PVC entropy
    # form carries no -ln(z) term, and the measured direction flips
    rec.expect("fn_pvc_entropy_recorded", "fn_entropy_lower" in comparison)
    mu_qs = np.array([0.5, 1.0, 2.0])
    mu = dict(zip(mu_qs.tolist(), thermo.fn_mu_numeric_array(0.05, mu_qs).tolist()))
    for q, closed in zip(mu, thermo.fn_mu_lowT_array(0.05, mu_qs).tolist()):
        rec.expect(
            f"mu_agreement_q{q}",
            abs(mu[q] - closed) / abs(closed) < 1e-3,
            f"numeric {mu[q]} vs closed {closed}",
        )
    shift = mu[1.0] - mu[2.0]
    rec.residual("mu_q_shift", abs(shift - 0.05 * math.log(2.0)), 1e-4)
    return rec.summary()


GROUPS = {
    "spectra": check_spectra,
    "fock": check_fock,
    "jackson": check_jackson,
    "series": check_series,
    "thermo": check_thermo,
}


def run_checks(groups=None, seed=0, vpjc_q=0.5, strict_norms=False):
    """Run the named groups (all by default) and return CheckResult rows."""
    names = list(GROUPS) if not groups else list(groups)
    unknown = [n for n in names if n not in GROUPS]
    if unknown:
        raise ValueError(f"unknown check group(s) {unknown}; available: {list(GROUPS)}")
    results = []
    for name in names:
        ok, detail = GROUPS[name](seed=seed, vpjc_q=vpjc_q, strict_norms=strict_norms)
        results.append(CheckResult(name, ok, detail))
    return results
