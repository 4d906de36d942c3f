"""Run one workload's op list in a closed loop; write timings and outputs as JSON.

    python3 worker.py <job.json> <result.json>

The job names the ops, the measuring time and whether to trace.  Passes over
the op list repeat until the time is used up.  Untraced runs time every op and
every pass.  Traced runs alternate untraced and traced passes: a traced pass
records a span around each call into a `qfermi` layer, and after each CLI op
it runs the same command as a `python -m qfermi` subprocess and probes the
kernels under it on identical inputs.  Probes run outside the op timings, so
traced and untraced pass times differ only by the cost of recording spans.

The worker is its own process so that its peak resident set covers only the
workload, and so that the thread settings of the job apply before numpy loads.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import time

import numpy as np

import qfermi
from qfermi import cli, spectra, thermo, verify
from qfermi.models import Model, SeriesConvergenceError, SingularPointError
from workloads import singular_points


class NullTracer:
    """Stands in for `Tracer` in untraced passes; records nothing."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def count(self, name, n=1):
        pass

    def peak(self, name, value):
        pass


class Tracer:
    """Spans (id, name, start, end, parent, pass) and per-pass counts, kept in
    memory until the run ends."""

    def __init__(self):
        self.spans = []
        self.counts = []
        self._stack = []

    def begin_pass(self):
        self.counts.append({})

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, len(self.counts) - 1)

    def count(self, name, n=1):
        counts = self.counts[-1]
        counts[name] = counts.get(name, 0) + n

    def peak(self, name, value):
        counts = self.counts[-1]
        counts[name] = max(counts.get(name, 0), value)


# ---------------------------------------------------------------------------
# in-process ops: each returns a dict of outputs for the oracles


def _series_out(tr, value):
    tr.count("fdseries.calls")
    tr.count("fdseries.terms", value.terms_used)
    tr.peak("fdseries.terms_max", value.terms_used)
    return {"value": value.value, "error_bound": value.error_bound,
            "terms_used": value.terms_used}


def op_f_gen(op, tr):
    with tr.span("fdseries.f_gen"):
        value = qfermi.f_gen(op["order"], op["q"], op["z"], op["tol"])
    return _series_out(tr, value)


def op_standard_fd(op, tr):
    with tr.span("fdseries.f_gen"):
        value = qfermi.standard_fd(op["order"], op["z"], op["tol"])
    return _series_out(tr, value)


def op_h_gen(op, tr):
    with tr.span("fdseries.h_gen"):
        value = qfermi.h_gen(op["order"], op["z"], op["q"], op["tol"])
    return _series_out(tr, value)


def _eos_call(model, q, z, tol, g_mult=1.0):
    if model == "fn":
        return thermo.fn_eos(q, z, tol)
    if model == "ckn":
        return thermo.ckn_eos(q, z, tol)
    return thermo.pvc_eos(q, z, g_mult, tol)


def op_eos(op, tr):
    with tr.span("thermo.eos"):
        point = _eos_call(op["kind"][:-4], op["q"], op["z"], op["tol"], op.get("g_mult", 1.0))
    tr.count("thermo.eos_points")
    return {"pressure": point.pressure, "density": point.density,
            "energy_density": point.energy_density, "entropy": point.entropy}


def _probe_series(tr, model, q, zs, tol):
    """The f_gen / h_gen calls an equation of state makes, on identical inputs."""
    for order in (2.5, 1.5):
        name = "fdseries.h_gen" if model == "pvc" else "fdseries.f_gen"
        with tr.span(name):
            for z in zs:
                try:
                    if model == "pvc":
                        value = qfermi.h_gen(order, z, q, tol)
                    else:
                        value = qfermi.f_gen(order, q if model == "fn" else 1.0 / q, z, tol)
                except SeriesConvergenceError:
                    tr.count("fdseries.errors")
                    continue
                tr.count("fdseries.calls")
                tr.count("fdseries.terms", value.terms_used)
                tr.peak("fdseries.terms_max", value.terms_used)


def probe_eos(op, tr):
    _probe_series(tr, op["kind"][:-4], op["q"], [op["z"]], op["tol"])


def _dense_bytes(ops):
    arrays = (*ops.annihilators, *ops.creators, ops.number_op)
    return sum(a.nbytes for a in arrays)


def _built(tr, ops):
    tr.count("fock.basis_states", ops.dim)
    tr.count("fock.dense_bytes", _dense_bytes(ops))


def op_fn_audit(op, tr):
    out = {"max_residual": [], "diag": []}
    for d in op["ds"]:
        with tr.span("fock.build"):
            ops = qfermi.build_fn_multimode(d, op["q"])
        _built(tr, ops)
        with tr.span("fock.check"):
            report = qfermi.check_algebra(ops)
            diag = qfermi.spectrum_of_number_operator(ops)
        out["max_residual"].append(report.max_residual)
        out["diag"].append(diag)
    return out


def op_single_audit(op, tr):
    with tr.span("fock.build"):
        ops = qfermi.build_single_mode(Model.from_name(op["model"]), op["q"], op["dim"])
    _built(tr, ops)
    with tr.span("fock.check"):
        report = qfermi.check_algebra(ops)
        diag = qfermi.spectrum_of_number_operator(ops)
    return {"max_residual": report.max_residual, "diag": diag,
            "norm_violations": len(ops.norm_violations)}


def op_covariance(op, tr):
    with tr.span("fock.covariance"):
        unitary = qfermi.haar_unitary(op["d"], op["unitary_seed"])
        residual = qfermi.covariance_check(op["d"], op["q"], unitary)
    return {"residual": residual}


def op_state(op, tr):
    with tr.span("fock.build"):
        ops = qfermi.build_single_mode(Model.from_name(op["model"]), op["q"], op["dim"])
        vec = qfermi.build_state(ops, op["n"])
    _built(tr, ops)
    return {"vec": vec}


def op_trace(op, tr):
    model = Model.from_name(op["model"])
    with tr.span("thermo.trace"):
        avg = qfermi.exact_trace_occupation(model, op["q"], op["eta"], op["n_max"],
                                            op.get("d", 1))
    if model is Model.FN:
        levels = op.get("d", 1) + 1
    elif model is Model.CKN:
        levels = 2
    else:
        levels = op["n_max"] + 1
    tr.count("thermo.trace_levels", levels)
    return {"mean_deformed": avg.mean_deformed, "mean_number": avg.mean_number,
            "mean_shifted": avg.mean_shifted, "identity_residual": avg.identity_residual}


def op_jackson(op, tr):
    model = Model.from_name(op["model"])
    with tr.span("jackson"):
        derivs = [qfermi.jd_polynomial(model, p, op["q"]) for p in op["polys"]]
        residual = qfermi.jd_operator_identity_residual(model, op["q"], op["polys"])
    tr.count("jackson.coeffs", 2 * sum(len(p) for p in op["polys"]))
    return {"derivs": derivs, "identity_residual": residual}


def op_spectrum(op, tr):
    with tr.span("spectra"):
        table = qfermi.spectrum(Model.from_name(op["model"]), op["q"], op["nmax"])
    tr.count("spectra.levels", op["nmax"] + 1)
    return {"values": table.values, "factorials": table.factorials}


# ---------------------------------------------------------------------------
# CLI ops


class CliRunner:
    """CLI ops: `qfermi.cli.main(argv)` called in this warm process, writing
    into the run's output directory.  Traced passes then run the same command
    as a `python -m qfermi` subprocess, for start-up, and probe the kernels
    under it."""

    def __init__(self, job):
        self.out_dir = job["out_dir"]
        self.subprocess_dir = os.path.join(self.out_dir, "subprocess")
        os.makedirs(self.subprocess_dir, exist_ok=True)
        self.python = job["python"]

    def run(self, op, tr):
        argv = list(op["argv"])
        if "--out" in argv:
            k = argv.index("--out") + 1
            argv[k] = os.path.join(self.out_dir, argv[k])
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with tr.span("cli.main"):
                code = cli.main(argv)
        return {"returncode": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}

    def probe(self, op, tr, out):
        if "--out" in op["argv"]:
            name = op["argv"][op["argv"].index("--out") + 1]
            with open(os.path.join(self.out_dir, name), "rb") as handle:
                data = handle.read()
            tr.count("cli.rows", data.count(b"\n") - 1)
        else:
            data = out["stdout"].encode()
            tr.count("cli.rows", data.count(b"\n"))
        tr.count("cli.bytes", len(data))
        with tr.span("cli.subprocess"):
            subprocess.run([self.python, "-m", "qfermi", *op["argv"]], cwd=self.subprocess_dir,
                           capture_output=True, timeout=120)
        getattr(self, "_probe_" + op["cmd"])(op, tr)

    def _probe_figure(self, op, tr):
        with tr.span("thermo.dist"):
            if op["fig"] == "fig1":
                xs = np.linspace(0.0, 6.0, 121)
                for q in (0.5, 0.7, 0.9, 1.0):
                    for x in xs:
                        thermo.ckn_distribution(float(x) - 2.0, q)
                evals = 121 * 4
            else:
                etas = _nudged(np.linspace(-3.0, 5.0, 161), [0.0])
                for eta in etas:
                    thermo.vpjc_distribution(float(eta), 1.0 / 3.0)
                    thermo.vpjc_distribution(float(eta), 0.5)
                    thermo.q1_limit_distribution(float(eta))
                evals = 161 * 3
        tr.count("thermo.dist_evals", evals)

    def _probe_dist(self, op, tr):
        start, stop, count = op["grid"]
        grid = np.linspace(start, stop, count)
        qs = [float(q) for q in op["qs"]]
        grid = _nudged(grid, [s for q in qs for s in singular_points(op["model"], q)])
        for q in qs:
            func = _distribution(op["model"], q)
            with tr.span("thermo.dist"):
                for eta in grid:
                    try:
                        func(float(eta))
                    except SingularPointError:
                        pass
            tr.count("thermo.dist_evals", len(grid))

    def _probe_eos(self, op, tr):
        start, stop, count = op["grid"]
        zs = [float(z) for z in np.linspace(start, stop, count)]
        with tr.span("thermo.eos"):
            for z in zs:
                try:
                    _eos_call(op["model"], op["q"], z, op["tol"])
                except SeriesConvergenceError:
                    pass
        tr.count("thermo.eos_points", len(zs))
        _probe_series(tr, op["model"], op["q"], zs, op["tol"])

    def _probe_mu(self, op, tr):
        start, stop, count = op["grid"]
        closed = thermo.fn_mu_lowT if op["model"] == "fn" else thermo.ckn_mu_lowT
        numeric = thermo.fn_mu_numeric if op["model"] == "fn" else thermo.ckn_mu_numeric
        qs = [float(q) for q in op["qs"]]
        with tr.span("thermo.mu"):
            for t in np.linspace(start, stop, count):
                for q in qs:
                    closed(float(t), q)
                    numeric(float(t), q)
        tr.count("thermo.mu_points", count * len(qs))

    def _probe_spectrum(self, op, tr):
        model = Model.from_name(op["model"])
        with tr.span("spectra"):
            for n in range(op["nmax"] + 1):
                for q in op["qs"]:
                    spectra.basic_number(model, n, float(q))
        tr.count("spectra.levels", (op["nmax"] + 1) * len(op["qs"]))

    def _probe_virial(self, op, tr):
        model = Model.from_name(op["model"])
        with tr.span("thermo.virial"):
            for q in op["qs"]:
                thermo.virial_coefficients(model, float(q), op["orders"])

    def _probe_check(self, op, tr):
        for group in verify.GROUPS:
            with tr.span(f"verify.{group}"):
                (result,) = verify.run_checks([group], seed=op["seed"])
            found = re.match(r"(\d+) checks", result.detail)
            tr.count("verify.checks", int(found.group(1)) if found else 0)


def _nudged(grid, points):
    out = grid.copy()
    for s in points:
        out[np.abs(out - s) < 1e-9] = s + 1e-9
    return out


def _distribution(model, q):
    if model in ("pvc", "vpjc") and q == 1.0:
        return thermo.q1_limit_distribution
    func = {"fn": thermo.fn_distribution, "ckn": thermo.ckn_distribution,
            "pvc": thermo.pvc_distribution, "vpjc": thermo.vpjc_distribution}[model]
    return lambda eta: func(eta, q)


# ---------------------------------------------------------------------------
# the closed loop

OPS = {
    "f_gen": op_f_gen, "standard_fd": op_standard_fd, "h_gen": op_h_gen,
    "fn_eos": op_eos, "ckn_eos": op_eos, "pvc_eos": op_eos,
    "fn_audit": op_fn_audit, "single_audit": op_single_audit,
    "covariance": op_covariance, "state": op_state, "trace": op_trace,
    "jackson": op_jackson, "spectrum": op_spectrum,
}
PROBES = {"fn_eos": probe_eos, "ckn_eos": probe_eos, "pvc_eos": probe_eos}


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def _digest(output) -> str:
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


def _file_digests(op, out_dir):
    if "--out" not in op["argv"]:
        return {}
    name = op["argv"][op["argv"].index("--out") + 1]
    try:
        with open(os.path.join(out_dir, name), "rb") as handle:
            return {name: hashlib.sha256(handle.read()).hexdigest()}
    except OSError:
        return {name: None}


SETUP_CODE = "import time, qfermi; print(time.perf_counter())"


def setup_sample(python):
    """Seconds from spawning a fresh interpreter to `import qfermi` returning."""
    start = time.perf_counter()
    proc = subprocess.run([python, "-c", SETUP_CODE], capture_output=True, text=True,
                          timeout=60, check=True)
    return float(proc.stdout) - start


def run_pass(ops, tr, runner, probe):
    """One pass over `ops`; returns (op durations, raw outputs).

    Each op gets a root span; its layer spans and, when `probe` is set, the
    probe spans after it are children of that root."""
    durations, outputs = [], []
    for op in ops:
        cli_op = op["kind"] == "cli"
        with tr.span("op." + op.get("name", op["kind"])):
            start = time.perf_counter()
            try:
                out = runner.run(op, tr) if cli_op else OPS[op["kind"]](op, tr)
            except Exception as exc:  # a failed op is recorded, not fatal
                out = {"error": f"{type(exc).__name__}: {exc}"}
            elapsed = time.perf_counter() - start
            if probe and "error" not in out and out.get("returncode", 0) == 0:
                if cli_op:
                    runner.probe(op, tr, out)
                elif op["kind"] in PROBES:
                    PROBES[op["kind"]](op, tr)
        durations.append(elapsed)
        outputs.append(out)
    return durations, outputs


def main(job_path, result_path):
    with open(job_path) as handle:
        job = json.load(handle)
    ops = job["ops"]
    runner = CliRunner(job)
    tracer = Tracer() if job["trace"] else None
    null = NullTracer()
    passes = []
    setup = []
    first_outputs = None
    gc.disable()  # as timeit does: collector pauses land between passes, not in ops
    began = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.begin_pass()
        durations, outputs = run_pass(ops, tracer if traced else null, runner, traced)
        for op, out in zip(ops, outputs):
            if op["kind"] == "cli" and "error" not in out:
                out["files"] = _file_digests(op, runner.out_dir)
        outputs = _jsonable(outputs)
        if first_outputs is None:
            first_outputs = outputs
        passes.append({"traced": traced, "durations": durations,
                       "digests": [_digest(o) for o in outputs]})
        gc.collect()
        elapsed = time.perf_counter() - began
        # set-up samples spread over the run, so they see the same machine
        while len(setup) < job["setup_samples"] and (
                elapsed >= (len(setup) + 1) * job["seconds"] / job["setup_samples"]):
            setup.append(setup_sample(job["python"]))
        if elapsed >= job["seconds"] and (tracer is None or len(passes) >= 2):
            break
    while len(setup) < job["setup_samples"]:
        setup.append(setup_sample(job["python"]))

    result = {
        "passes": passes,
        "setup_s": setup,
        "outputs": first_outputs,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    with open(result_path, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
