"""Seeded op lists for the benchmark workloads.

Each workload is a list of ops that one client runs in a closed loop: the
next op starts only after the previous one has finished.  An op is a dict
that `worker.py` executes and `oracles.py` checks.  The seed fixes every
input; the program under test only ever sees the generated values.

`scale` shrinks grids, term budgets and mode counts for the benchmark's own
tests; the benchmark itself always runs at scale 1.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("cli_tables", "series_edge", "fock_audit")

# Series tolerances are drawn inside this range: loose enough that a double
# precision sum of O(1) values can meet them, tight enough to be useful.
TOL_MIN = 1e-12
TOL_MAX = 1e-3

def build(workload: str, seed: int, scale: float = 1.0) -> list:
    """The op list of `workload` for `seed`."""
    rng = random.Random(seed)
    if workload == "cli_tables":
        return _cli_tables(rng, seed, scale)
    if workload == "series_edge":
        return _series_edge(rng, scale)
    if workload == "fock_audit":
        return _fock_audit(rng, scale)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def singular_points(model: str, q: float) -> list:
    """Abscissae where the PVC distribution diverges or the VPJC one jumps;
    `qfermi dist` nudges grid points that land on them."""
    if q == 1.0:
        return []
    return {"pvc": [math.log(1.0 / q)], "vpjc": [0.0]}.get(model, [])


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, int(round(n * scale)))


def _qtext(value: float) -> str:
    return f"{value:.3f}"


def _distinct_qs(rng: random.Random, lo: float, hi: float, count: int) -> list:
    qs = []
    while len(qs) < count:
        text = _qtext(rng.uniform(lo, hi))
        if text not in qs:
            qs.append(text)
    return qs


# ---------------------------------------------------------------------------
# cli_tables: `python -m qfermi ...` subprocesses


def _cli(name: str, argv: list, **params) -> dict:
    return {"kind": "cli", "name": name, "argv": argv, **params}


def _cli_tables(rng: random.Random, seed: int, scale: float) -> list:
    # fixed flags: the bytes of these tables are pinned (oracles.PINNED_SHA256)
    ops = [
        _cli("fig1", ["figure", "fig1", "--out", "fig1.csv"], cmd="figure", fig="fig1"),
        _cli("fig2", ["figure", "fig2", "--out", "fig2.csv"], cmd="figure", fig="fig2"),
        _cli("dist_fixed", ["dist", "--model", "ckn", "--q", "0.5,0.7,1", "--grid",
                            "-5:5:201", "--out", "dist_fixed.csv"],
             cmd="dist", model="ckn", qs=["0.5", "0.7", "1"], grid=[-5.0, 5.0, 201]),
    ]

    n_dist = _scaled(20001, scale, 41)
    for model in ("fn", "ckn", "pvc", "vpjc"):
        lo, hi = (0.2, 2.5) if model in ("fn", "ckn") else (0.2, 0.95)
        qs = _distinct_qs(rng, lo, hi, 3)
        start, stop = round(rng.uniform(-12.0, -8.0), 3), round(rng.uniform(8.0, 12.0), 3)
        out = f"dist_{model}.csv"
        argv = ["dist", "--model", model, "--q", ",".join(qs),
                "--grid", f"{start}:{stop}:{n_dist}", "--out", out]
        ops.append(_cli(f"dist_{model}", argv, cmd="dist", model=model, qs=qs,
                        grid=[start, stop, n_dist]))

    # Far from the convergence edge: y = q z (fn), z / q (ckn, pvc) <= 0.9,
    # so every f_gen / h_gen call needs fewer than 200 terms.
    n_eos = _scaled(2000, scale, 20)
    for model in ("fn", "ckn", "pvc"):
        q = float(_qtext(rng.uniform(0.3, 2.0) if model != "pvc" else rng.uniform(0.3, 0.9)))
        y_lo, y_hi = 0.01, round(rng.uniform(0.8, 0.9), 3)
        if model == "fn":
            start, stop = y_lo / q, y_hi / q
        else:
            start, stop = y_lo * q, y_hi * q
        start, stop = float(f"{start:.6g}"), float(f"{stop:.6g}")
        tol = float(f"{10.0 ** rng.uniform(-11.0, -9.0):.3e}")
        out = f"eos_{model}.csv"
        argv = ["eos", "--model", model, "--q", repr(q), "--grid",
                f"{start!r}:{stop!r}:{n_eos}", "--tol", repr(tol), "--out", out]
        ops.append(_cli(f"eos_{model}", argv, cmd="eos", model=model, q=q,
                        grid=[start, stop, n_eos], tol=tol))

    model = rng.choice(("fn", "ckn"))
    qs = _distinct_qs(rng, 0.3, 3.0, 3)
    n_mu = _scaled(400, scale, 10)
    ops.append(_cli("mu", ["mu", "--model", model, "--q", ",".join(qs), "--grid",
                           f"0.01:0.2:{n_mu}", "--out", "mu.csv"],
                    cmd="mu", model=model, qs=qs, grid=[0.01, 0.2, n_mu]))

    model = rng.choice(("vpjc", "pvc"))
    qs = _distinct_qs(rng, 0.5, 0.95, 2)
    nmax = _scaled(300, scale, 10)
    ops.append(_cli("spectrum", ["spectrum", "--model", model, "--q", ",".join(qs),
                                 "--nmax", str(nmax), "--out", "spectrum.csv"],
                    cmd="spectrum", model=model, qs=qs, nmax=nmax))

    model = rng.choice(("fn", "ckn"))
    qs = _distinct_qs(rng, 0.2, 2.0, 4)
    ops.append(_cli("virial", ["virial", "--model", model, "--q", ",".join(qs),
                               "--orders", "6"],
                    cmd="virial", model=model, qs=qs, orders=6))

    ops.append(_cli("check", ["check", "--seed", str(seed)], cmd="check", seed=seed))
    return ops


# ---------------------------------------------------------------------------
# series_edge: in-process series calls at the convergence edge


def _alt_tol(y: float, order: float, terms: int) -> float:
    """Tolerance met by the first omitted term of sum (-1)**(l-1) y**l / l**order
    exactly after `terms` terms."""
    l = terms + 1
    return y**l * l**-order


def _geo_tol(r: float, order: float, terms: int) -> float:
    """Tolerance met by the geometric tail of sum r**k / k**order after `terms` terms."""
    l = terms + 1
    return r**l * l**-order / (1.0 - r)


def _draw(rng: random.Random, sample, tol_of):
    """Redraw `sample()` until its tolerance lies in [TOL_MIN, TOL_MAX]."""
    for _ in range(100_000):
        params = sample()
        tol = tol_of(params)
        if TOL_MIN <= tol <= TOL_MAX:
            return {**params, "tol": tol}
    raise RuntimeError("no input in the tolerance window; change the schedule")


# (kind, term budget of the dominant sum) per op.  Budgets are fixed and only
# the point on the edge moves with the seed, so every seed does about the same
# work.  Op costs fall into three tiers: 12 heavy ops (the two largest
# budgets repeat, so the tail percentile lies inside one tier), 11 middle ops
# of one budget whose time is numpy-bound, and 12 light ops.  The median op is
# then always a middle op.
_SERIES_SCHEDULE = (
    ("f_gen_edge", 4_640_000), ("f_gen_edge", 4_640_000), ("f_gen_edge", 2_000_000),
    ("f_gen_edge", 1_000_000), ("f_gen_edge", 500_000), ("f_gen_edge", 300_000),
    ("standard_fd_edge", 1_000_000), ("standard_fd_edge", 300_000),
    ("standard_fd_edge", 200_000), ("h_gen", 100_000), ("h_gen", 100_000),
    ("pvc_eos", 100_000),
    *(("f_gen_edge", 100_000),) * 4, *(("standard_fd", 100_000),) * 4,
    *(("f_gen", 100_000),) * 3,
    ("f_gen", 20_000), ("f_gen", 10_000), ("f_gen", 5_000), ("f_gen", 2_000),
    ("f_gen", 1_000), ("standard_fd", 2_000), ("h_gen", 10_000), ("h_gen", 3_000),
    ("h_gen", 1_000), ("fn_eos", 5_000), ("ckn_eos", 5_000), ("pvc_eos", 2_000),
)


def _series_op(rng: random.Random, kind: str, terms: int) -> dict:
    u = rng.uniform
    if kind == "f_gen_edge":  # y = q z = 1 exactly: q a power of two
        q = rng.choice((0.5, 1.0, 2.0))
        op = _draw(rng, lambda: {"order": u(0.5, 3.5)},
                   lambda p: _alt_tol(1.0, p["order"], terms))
        return {"kind": "f_gen", "q": q, "z": 1.0 / q, **op}
    if kind == "standard_fd_edge":
        op = _draw(rng, lambda: {"order": u(0.5, 3.5)},
                   lambda p: _alt_tol(1.0, p["order"], terms))
        return {"kind": "standard_fd", "z": 1.0, **op}
    if kind == "standard_fd":
        op = _draw(rng, lambda: {"order": u(0.5, 3.5), "z": u(0.9999, 1.0)},
                   lambda p: _alt_tol(p["z"], p["order"], terms))
        return {"kind": "standard_fd", **op}
    if kind == "f_gen":
        op = _draw(rng, lambda: {"order": u(0.5, 3.5), "y": u(0.999, 0.99999)},
                   lambda p: _alt_tol(p["y"], p["order"], terms))
        q = u(0.5, 2.0)
        return {"kind": "f_gen", "order": op["order"], "q": q, "z": op["y"] / q,
                "tol": op["tol"]}
    if kind == "h_gen":
        op = _draw(rng, lambda: {"order": u(0.5, 3.5), "q": u(0.3, 0.95), "r": u(0.99, 0.9999)},
                   lambda p: _geo_tol(p["r"], p["order"] + 1.0, terms) / -math.log(p["q"]))
        return {"kind": "h_gen", "order": op["order"], "z": op["r"] * op["q"],
                "q": op["q"], "tol": op["tol"]}
    if kind in ("fn_eos", "ckn_eos"):  # density f(3/2) sets the term count
        op = _draw(rng, lambda: {"y": u(0.999, 0.9999)},
                   lambda p: _alt_tol(p["y"], 1.5, terms))
        q = u(0.5, 2.0)
        z = op["y"] / q if kind == "fn_eos" else op["y"] * q
        return {"kind": kind, "q": q, "z": z, "tol": op["tol"]}
    if kind == "pvc_eos":  # h(3/2) sums at order 5/2
        op = _draw(rng, lambda: {"q": u(0.3, 0.95), "r": u(0.99, 0.9999)},
                   lambda p: _geo_tol(p["r"], 2.5, terms) / -math.log(p["q"]))
        return {"kind": "pvc_eos", "q": op["q"], "z": op["r"] * op["q"], "g_mult": 1.0,
                "tol": op["tol"]}
    raise ValueError(kind)


def _series_edge(rng: random.Random, scale: float) -> list:
    ops = [_series_op(rng, kind, _scaled(terms, scale, 500)) for kind, terms in _SERIES_SCHEDULE]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# fock_audit: in-process Fock representations


def _poly(rng: random.Random, degree: int) -> list:
    return [rng.uniform(-2.0, 2.0) for _ in range(degree + 1)]


def _fock_audit(rng: random.Random, scale: float) -> list:
    """Op costs fall into three tiers, so the median op is always a middle one:
    8 heavy ops (d = 7, 8 at each q, d = 9 once, covariance at d = 7), 9
    middle ops of 4-10 ms (a d = 1..6 sweep at each q, ladders of 220
    levels, covariance at d = 5) and 8 light ones."""
    full = scale >= 1.0
    sweep, per_q, top = (range(1, 7), (7, 8), 9) if full else (range(1, 4), (4,), 5)
    below = [float(_qtext(rng.uniform(0.3, 0.7))), float(_qtext(rng.uniform(0.7, 0.95)))]
    q_grid = below + [float(_qtext(rng.uniform(1.05, 1.6)))]
    ops = [{"kind": "fn_audit", "ds": list(sweep), "q": q} for q in q_grid]
    ops += [{"kind": "fn_audit", "ds": [d], "q": q} for d in per_q for q in q_grid]
    ops.append({"kind": "fn_audit", "ds": [top], "q": rng.choice(q_grid)})
    for d in (3, 5, 7) if full else (2, 3, 4):
        ops.append({"kind": "covariance", "d": d, "q": rng.choice(q_grid),
                    "unitary_seed": rng.randrange(2**31)})

    ladder = _scaled(220, scale, 12)
    for q in below:
        for model in ("vpjc", "pvc"):
            ops.append({"kind": "single_audit", "model": model, "q": q, "dim": ladder})
    ops.append({"kind": "state", "model": "vpjc", "q": below[0], "dim": ladder,
                "n": rng.randrange(ladder // 2, ladder)})
    ops.append({"kind": "state", "model": "pvc", "q": below[1], "dim": 40,
                "n": rng.randrange(10, 26)})

    ops.append({"kind": "trace", "model": "vpjc", "q": below[0],
                "eta": rng.uniform(0.2, 2.0), "n_max": _scaled(400, scale, 20)})
    # a convergent PVC ladder: exp(-eta) / q <= 1/2
    ops.append({"kind": "trace", "model": "pvc", "q": below[1],
                "eta": math.log(2.0 / below[1]) + rng.uniform(0.0, 1.5),
                "n_max": _scaled(300, scale, 20)})

    degree = _scaled(40, scale, 4)
    for model in ("vpjc", "pvc"):
        ops.append({"kind": "jackson", "model": model, "q": rng.choice(below),
                    "polys": [_poly(rng, degree) for _ in range(4)]})

    # levels and q chosen so every factorial stays a finite, normal double
    ops.append({"kind": "spectrum", "model": "vpjc", "q": rng.choice(below),
                "nmax": _scaled(400, scale, 8)})
    ops.append({"kind": "spectrum", "model": "fn", "q": rng.choice(q_grid), "nmax": 30})
    rng.shuffle(ops)
    return ops
