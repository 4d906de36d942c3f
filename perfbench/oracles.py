"""Output checks whose references do not come from the code under test.

* Series and equation-of-state values are compared with `mpmath.polylog`:
  |value - ref| must not exceed the certified bound (or the requested
  tolerance) plus a rounding allowance.
* CSV tables are compared row by row with the closed forms evaluated in
  mpmath; the fixed-flag figure and dist tables must also match byte digests
  pinned from the first benchmarked commit.
* The FN number operator must have diagonal N q**(N-1), with N the bit count
  of the basis index; single-mode spectra, traces, Jackson derivatives and
  spectrum tables are compared with closed forms evaluated in mpmath.

`check(op, output, out_dir, seed)` returns the list of failures of one op;
an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import os
import random
import re

import mpmath as mp
import numpy as np

from workloads import singular_points

mp.mp.dps = 30

EPS = float(np.finfo(float).eps)
ROUNDING = 1e-12  # allowance for double-precision summation, relative to max(1, |ref|)
CSV_REL = 1e-11  # CSV cells carry 12 significant digits
SINGULAR_SKIP = 1e-3  # rows this close to a singular abscissa are nudged or ill-conditioned
SAMPLED_ROWS = 200

PINNED_SHA256 = {
    "fig1.csv": "0d457d2d9971f99019f8c507e213a509948a3f46b9e8b92a25e7f2204170da0d",
    "fig2.csv": "f81ebb881148c541878b5d008d8ff98bbc96ae3894a09118553b916fe6f6ef6a",
    "dist_fixed.csv": "f7c83d2bee7f5bede4e208cdb06bdcdbc17770d094751627da7c5cd40c53f940",
}
CHECK_GROUPS = ("spectra", "fock", "jackson", "series", "thermo")


def allowance(ref) -> float:
    return ROUNDING * max(1.0, abs(float(ref)))


def _off(name, value, ref, limit):
    """Failure message if |value - ref| > limit, else None."""
    if value is None or not abs(value - float(ref)) <= limit:
        return f"{name}: got {value!r}, reference {float(ref)!r}, limit {limit:.3e}"
    return None


# ---------------------------------------------------------------------------
# closed forms in mpmath


def f_ref(order, y):
    """sum_{l>=1} (-1)**(l-1) y**l / l**order."""
    return -mp.re(mp.polylog(order, -mp.mpf(y)))


def h_ref(order, z, q):
    z, q = mp.mpf(z), mp.mpf(q)
    s = order + 1
    return (-mp.re(mp.polylog(s, -q * z)) - mp.re(mp.polylog(s, z / q))) / (2 * mp.log(q))


def basic_ref(model, n, q):
    q = mp.mpf(q)
    if model == "fn":
        return n * q ** (n - 1) if n else mp.mpf(0)
    if model == "ckn":
        return mp.mpf(0) if n % 2 == 0 else q ** (1 - n)
    if model == "pvc":
        return (q**-n - (-q) ** n) / (q + 1 / q)
    if model == "vpjc":
        return (1 - (-q) ** n) / (1 + q)
    raise ValueError(model)


def dist_ref(model, q, eta):
    e, q = mp.exp(mp.mpf(eta)), mp.mpf(q)
    if q == 1 and model in ("pvc", "vpjc"):
        return 1 / (e + 1)
    if model == "fn":
        return q / (e + q)
    if model == "ckn":
        return (1 / q) / (e + 1 / q)
    if model == "pvc":
        return abs(mp.log(abs(e - 1 / q) / (e + q))) / (2 * abs(mp.log(q)))
    if model == "vpjc":
        return abs(mp.log(abs(e - 1) / (e + q))) / abs(mp.log(q))
    raise ValueError(model)


def eos_ref(model, q, z, g_mult=1.0):
    """Reference state and the error each field may carry per unit tolerance."""
    if model == "pvc":
        p, d = h_ref(2.5, z, q), h_ref(1.5, z, q)
        entropy = g_mult * (mp.mpf(2.5) * p - d)
        per_tol = {"pressure": 1.0, "density": 1.0, "energy_density": 1.5,
                   "entropy": 3.5 * g_mult}
    else:
        y = mp.mpf(q) * mp.mpf(z) if model == "fn" else mp.mpf(z) / mp.mpf(q)
        p, d = f_ref(2.5, y), f_ref(1.5, y)
        entropy = mp.mpf(2.5) * p / d - mp.log(mp.mpf(z))
        # |d(2.5 p/d)| <= 2.5 (|dp| / d + p |dd| / d**2), with |dp|, |dd| <= tol
        per_tol = {"pressure": 1.0, "density": 1.0, "energy_density": 1.5,
                   "entropy": 1.01 * 2.5 * float(1 / d + p / d**2)}
    ref = {"pressure": p, "density": d, "energy_density": mp.mpf(1.5) * p, "entropy": entropy}
    return ref, per_tol


def trace_ref(model, q, eta, n_max, d=1):
    """Gibbs averages of [N], N and [N+1] under weights exp(-eta N)."""
    q, x = mp.mpf(q), mp.exp(-mp.mpf(eta))
    if model == "fn":  # binomial sums over the 2**d occupation states
        z = (1 + x) ** d
        return {"mean_deformed": d * x * (1 + q * x) ** (d - 1) / z,
                "mean_number": d * x / (1 + x),
                "mean_shifted": d * (1 + q * x) ** (d - 1) / z}
    if model == "ckn":
        return {"mean_deformed": x / (1 + x), "mean_number": x / (1 + x),
                "mean_shifted": 1 / (1 + x)}
    g = [basic_ref(model, n, q) for n in range(n_max + 2)]
    w = [x**n for n in range(n_max + 1)]
    z = mp.fsum(w)
    return {"mean_deformed": mp.fsum(g[n] * w[n] for n in range(n_max + 1)) / z,
            "mean_number": mp.fsum(n * w[n] for n in range(n_max + 1)) / z,
            "mean_shifted": mp.fsum(g[n + 1] * w[n] for n in range(n_max + 1)) / z}


def mu_ref(model, t, q):
    """(closed form, root of the two-term Sommerfeld density equation)."""
    t, q = mp.mpf(t), mp.mpf(q)
    if model == "ckn":
        q = 1 / q
    closed = -t * mp.log(q) + 1 - mp.pi**2 / 12 * t**2
    big_l = mp.findroot(lambda L: t**1.5 * L**1.5 * (1 + mp.pi**2 / 8 / L**2) - 1, 1 / t)
    return closed, t * (big_l - mp.log(q))


# ---------------------------------------------------------------------------
# in-process ops


def _error(out):
    return [f"raised {out['error']}"] if "error" in out else None


def check_series(op, out):
    kind = op["kind"]
    if kind == "h_gen":
        ref = h_ref(op["order"], op["z"], op["q"])
    else:
        q = 1.0 if kind == "standard_fd" else op["q"]
        ref = f_ref(op["order"], mp.mpf(q) * mp.mpf(op["z"]))
    limit = out["error_bound"] + allowance(ref)
    msg = _off("value", out["value"], ref, limit)
    if msg is None and not out["error_bound"] <= op["tol"]:
        msg = f"error_bound {out['error_bound']:.3e} exceeds tol {op['tol']:.3e}"
    return [msg] if msg else []


def check_eos(op, out):
    ref, per_tol = eos_ref(op["kind"][:-4], op["q"], op["z"], op.get("g_mult", 1.0))
    fails = []
    for field, value in ref.items():
        msg = _off(field, out[field], value, per_tol[field] * op["tol"] + allowance(value))
        if msg:
            fails.append(msg)
    return fails


def check_fn_audit(op, out):
    q = op["q"]
    fails = []
    for d, diag, residual in zip(op["ds"], out["diag"], out["max_residual"], strict=True):
        if len(diag) != 2**d:
            fails.append(f"d={d}: diagonal has {len(diag)} entries, expected {2**d}")
            continue
        for k, value in enumerate(diag):
            ref = basic_ref("fn", bin(k).count("1"), q)
            msg = _off(f"d={d} diag[{k}]", value, ref, 1e-13 * max(1.0, abs(float(ref))))
            if msg:
                fails.append(msg)
                break
        if not residual <= 1e-12:
            fails.append(f"d={d}: relation residual {residual:.3e} > 1e-12")
    return fails


def check_single_audit(op, out):
    fails = []
    for n, value in enumerate(out["diag"]):
        ref = basic_ref(op["model"], n, op["q"])
        msg = _off(f"diag[{n}]", value, ref, 1e-12 * max(1.0, abs(float(ref))))
        if msg:
            fails.append(msg)
            break
    if len(out["diag"]) != op["dim"]:
        fails.append(f"diagonal has {len(out['diag'])} entries, expected {op['dim']}")
    if not out["max_residual"] <= 1e-12:
        fails.append(f"relation residual {out['max_residual']:.3e} > 1e-12")
    if out["norm_violations"]:
        fails.append(f"{out['norm_violations']} norm violations at 0 < q < 1")
    return fails


def check_covariance(op, out):
    ok = out["residual"] <= 1e-10
    return [] if ok else [f"covariance residual {out['residual']:.3e} > 1e-10"]


def check_state(op, out):
    expected = np.zeros(op["dim"])
    expected[op["n"]] = 1.0
    worst = float(np.max(np.abs(np.asarray(out["vec"]) - expected)))
    return [] if worst <= 1e-12 else [f"state deviates from basis vector by {worst:.3e}"]


def check_trace(op, out):
    ref = trace_ref(op["model"], op["q"], op["eta"], op["n_max"], op.get("d", 1))
    fails = []
    for field, value in ref.items():
        msg = _off(field, out[field], value, 1e-12 * max(1.0, abs(float(value))))
        if msg:
            fails.append(msg)
    return fails


def check_jackson(op, out):
    q, model = op["q"], op["model"]
    fails = []
    for poly, deriv in zip(op["polys"], out["derivs"], strict=True):
        for n in range(1, len(poly)):
            ref = mp.mpf(poly[n]) * basic_ref(model, n, q)
            msg = _off(f"coefficient {n}", deriv[n - 1], ref, 1e-13 * max(1.0, abs(float(ref))))
            if msg:
                fails.append(msg)
                break
    degree = max(len(p) for p in op["polys"])
    scale = max(abs(a) for p in op["polys"] for a in p)
    if model == "pvc":
        scale *= max(1.0, q ** -(degree + 1))
    limit = 64 * EPS * (degree + 2) * scale
    if not out["identity_residual"] <= limit:
        fails.append(f"ladder identity residual {out['identity_residual']:.3e} > {limit:.3e}")
    return fails


def check_spectrum(op, out):
    fails = []
    product = mp.mpf(1)
    for n, (value, fact) in enumerate(zip(out["values"], out["factorials"])):
        ref = basic_ref(op["model"], n, op["q"])
        if n:
            product *= ref
        msg = _off(f"value[{n}]", value, ref, 1e-13 * abs(float(ref)) + 1e-300)
        msg = msg or _off(f"factorial[{n}]", fact, product,
                          16 * (n + 1) * EPS * abs(float(product)) + 1e-300)
        if msg:
            fails.append(msg)
            break
    if len(out["values"]) != op["nmax"] + 1:
        fails.append(f"{len(out['values'])} levels, expected {op['nmax'] + 1}")
    return fails


# ---------------------------------------------------------------------------
# CLI ops


def _cell(text):
    return None if text == "" else float(text)


def _read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _rows_to_check(name, count, seed):
    if count <= SAMPLED_ROWS:
        return range(count)
    return sorted(random.Random(f"{name}:{seed}").sample(range(count), SAMPLED_ROWS))


def _q_label(model, q):
    if model in ("pvc", "vpjc") and q == 1.0:
        return "n_q1_limit"
    return f"n_q{q:g}"


def _check_table(header, rows, expected_header, abscissae, refs, name, seed):
    """Compare sampled rows with references.

    `abscissae[i]` is the exact first-column value of row i; `refs(i, x)`
    returns a (reference, allowed deviation) pair per further column, or None
    to skip the row."""
    if header != expected_header:
        return [f"header {header} != {expected_header}"]
    if len(rows) != len(abscissae):
        return [f"{len(rows)} rows, expected {len(abscissae)}"]
    for i in _rows_to_check(name, len(rows), seed):
        x = float(abscissae[i])
        cells = refs(i, x)
        if cells is None:
            continue
        row = rows[i]
        msg = _off(f"row {i} {header[0]}", _cell(row[0]), x, CSV_REL * max(1.0, abs(x)))
        for col, (ref, limit) in enumerate(cells, start=1):
            msg = msg or _off(f"row {i} {header[col]}", _cell(row[col]), ref, limit)
        if msg:
            return [msg]
    return []


def check_cli(op, out, out_dir, seed):
    if "error" in out:
        return [f"raised {out['error']}"]
    if out["returncode"] != 0:
        return [f"exit code {out['returncode']}: {out['stderr'].strip()[-300:]}"]
    cmd = op["cmd"]
    if cmd == "check":
        missing = [g for g in CHECK_GROUPS if f"GROUP {g}: PASS" not in out["stdout"]]
        return [f"check groups not passing: {missing}"] if missing else []
    if cmd == "virial":
        return _check_virial(op, out["stdout"])

    name = op["argv"][op["argv"].index("--out") + 1]
    fails = []
    if name in PINNED_SHA256 and out["files"].get(name) != PINNED_SHA256[name]:
        fails.append(f"{name} sha256 {out['files'].get(name)} != pinned {PINNED_SHA256[name]}")
    header, rows = _read_csv(os.path.join(out_dir, name))
    check = {"figure": _check_figure, "dist": _check_dist, "eos": _check_eos_table,
             "mu": _check_mu, "spectrum": _check_spectrum_table}[cmd]
    return fails + check(op, header, rows, seed)


def _dist_cells(model, qs, eta):
    refs = [dist_ref(model, q, eta) for q in qs]
    return [(r, 1e-10 * abs(float(r)) + 1e-13) for r in refs]


def _check_figure(op, header, rows, seed):
    if op["fig"] == "fig1":
        qs = (0.5, 0.7, 0.9, 1.0)
        xs = np.linspace(0.0, 6.0, 121)
        refs = lambda i, x: _dist_cells("ckn", qs, mp.mpf(x) - 2)
        expected = ["x"] + [_q_label("ckn", q) for q in qs]
    else:
        qs = (1.0 / 3.0, 0.5, 1.0)
        xs = np.linspace(-3.0, 5.0, 161)
        refs = lambda i, x: None if abs(x) < SINGULAR_SKIP else _dist_cells("vpjc", qs, x)
        expected = ["eta"] + [_q_label("vpjc", q) for q in qs]
    return _check_table(header, rows, expected, xs, refs, op["name"], seed)


def _check_dist(op, header, rows, seed):
    model = op["model"]
    qs = [float(q) for q in op["qs"]]
    start, stop, count = op["grid"]
    singular = [s for q in qs for s in singular_points(model, q)]

    def refs(i, eta):
        if any(abs(eta - s) < SINGULAR_SKIP for s in singular):
            return None
        return _dist_cells(model, qs, eta)

    expected = ["eta"] + [_q_label(model, q) for q in qs]
    return _check_table(header, rows, expected, np.linspace(start, stop, count), refs,
                        op["name"], seed)


def _check_eos_table(op, header, rows, seed):
    start, stop, count = op["grid"]
    fields = ["pressure", "density", "energy_density", "entropy"]

    def refs(i, z):
        ref, per_tol = eos_ref(op["model"], op["q"], z)
        return [(ref[f], per_tol[f] * op["tol"] + allowance(ref[f])
                 + CSV_REL * abs(float(ref[f]))) for f in fields]

    return _check_table(header, rows, ["z"] + fields, np.linspace(start, stop, count),
                        refs, op["name"], seed)


def _check_mu(op, header, rows, seed):
    start, stop, count = op["grid"]
    qs = [float(q) for q in op["qs"]]
    expected = ["t"]
    for q in qs:
        expected += [f"mu_closed_q{q:g}", f"mu_numeric_q{q:g}"]

    def refs(i, t):
        return [(v, 1e-10 + CSV_REL * abs(float(v)))
                for q in qs for v in mu_ref(op["model"], t, q)]

    return _check_table(header, rows, expected, np.linspace(start, stop, count), refs,
                        op["name"], seed)


def _check_spectrum_table(op, header, rows, seed):
    qs = [float(q) for q in op["qs"]]
    expected = ["n"] + [f"g_q{q:g}" for q in qs]

    def refs(i, n):
        values = [basic_ref(op["model"], i, q) for q in qs]
        return [(v, 2 * CSV_REL * abs(float(v)) + 1e-300) for v in values]

    return _check_table(header, rows, expected, range(op["nmax"] + 1), refs, op["name"], seed)


_VIRIAL_TARGETS = {1: 1.0, 2: 2.0**-2.5, 3: 0.125 - 2.0 * 3.0**-2.5}


def virial_ref(orders):
    """Virial coefficients a_1..a_orders of the ideal Fermi gas in mpmath:
    the density series rho(z) = sum (-1)**(l-1) z**l / l**1.5 reversed and
    composed into the pressure series (exponent 2.5).  They do not depend on q."""
    n = orders

    def series(expo):
        return [mp.mpf(0)] + [(-1) ** (l - 1) / mp.mpf(l) ** expo for l in range(1, n + 1)]

    def mul(a, b):
        return [mp.fsum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1)]

    def compose(outer, inner):
        out, power = [mp.mpf(0)] * (n + 1), [mp.mpf(1)] + [mp.mpf(0)] * n
        for l in range(1, n + 1):
            power = mul(power, inner)
            out = [o + outer[l] * w for o, w in zip(out, power)]
        return out

    density = series(1.5)
    z = [mp.mpf(0), mp.mpf(1)] + [mp.mpf(0)] * (n - 1)
    for _ in range(n):  # each step fixes one more coefficient of z(rho)
        rho = compose(density, z)
        z = [zk - rk + (k == 1) for k, (zk, rk) in enumerate(zip(z, rho))]
    return compose(series(2.5), z)[1:]


def _check_virial(op, stdout):
    """a1..a3 against their closed forms, to the 10 printed digits; higher
    coefficients against `virial_ref` to 1e-7, since the double-precision
    reversion cancels digits with the order (7.6e-10 at a6 over q in [0.2, 2])."""
    rows = {}
    for line in stdout.splitlines():
        found = re.match(r"\s*q=([^:]+): (.*)", line)
        if found:
            rows[found.group(1)] = [float(v.split("=")[1]) for v in found.group(2).split(", ")]
    expected = [f"{float(q):g}" for q in op["qs"]]
    if sorted(rows) != sorted(expected):
        return [f"virial rows for q={sorted(rows)}, expected {sorted(expected)}"]
    refs = virial_ref(op["orders"])
    for q, coeffs in rows.items():
        if len(coeffs) != op["orders"]:
            return [f"q={q}: {len(coeffs)} coefficients, expected {op['orders']}"]
        for k, value in enumerate(coeffs, start=1):
            ref = _VIRIAL_TARGETS.get(k, refs[k - 1])
            msg = _off(f"q={q} a{k}", value, ref, (1e-9 if k <= 3 else 1e-7) * abs(float(ref)))
            if msg:
                return [msg]
    return []


# ---------------------------------------------------------------------------

_IN_PROCESS = {
    "f_gen": check_series, "standard_fd": check_series, "h_gen": check_series,
    "fn_eos": check_eos, "ckn_eos": check_eos, "pvc_eos": check_eos,
    "fn_audit": check_fn_audit, "single_audit": check_single_audit,
    "covariance": check_covariance, "state": check_state, "trace": check_trace,
    "jackson": check_jackson, "spectrum": check_spectrum,
}


def check(op, out, out_dir, seed):
    """Failures of one op's output; empty when it is correct."""
    if op["kind"] == "cli":
        return check_cli(op, out, out_dir, seed)
    return _error(out) or _IN_PROCESS[op["kind"]](op, out)
