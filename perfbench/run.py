"""qfermi benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload <cli_tables|series_edge|fock_audit|all>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a qfermi checkout; the package is imported from
`src/` as it stands, there is nothing to build.  The seed fixes every input
(see `workloads.py`).  One client runs the op list in a closed loop, over
and over, for `--seconds` seconds, in a worker process with BLAS threads
pinned.  Every output is then checked against references that do not come
from the package (see `oracles.py`).

With `--trace 0` the metrics are end to end: wall time of one pass over the
op list, tail op time, peak resident set and the import time of the
package; the median op time is printed beside them.  With `--trace 1`
untraced and traced passes alternate and the metrics are per layer: time
in each module with the work it did, and the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  Full details go to `.perfbench_out/<workload>/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import oracles
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 150.0
TAIL_BEYOND = 10  # the tail percentile is the highest with this many ops beyond it

END_TO_END = (  # name, unit
    ("wall_s", "s"), ("op_tail_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
)

# name, unit, better; time metrics sum the spans of that name per traced pass
PER_LAYER = (
    ("cli.main_s", "s", "lower"), ("cli.self_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"), ("cli.rows", "count", "higher"),
    ("cli.bytes", "bytes", "lower"),
    ("thermo.dist_s", "s", "lower"), ("thermo.dist_evals", "count", "higher"),
    ("thermo.eos_s", "s", "lower"), ("thermo.eos_points", "count", "higher"),
    ("thermo.mu_s", "s", "lower"), ("thermo.mu_points", "count", "higher"),
    ("thermo.trace_s", "s", "lower"), ("thermo.trace_levels", "count", "lower"),
    ("fdseries.f_gen_s", "s", "lower"), ("fdseries.h_gen_s", "s", "lower"),
    ("fdseries.calls", "count", "higher"), ("fdseries.terms", "count", "lower"),
    ("fdseries.terms_max", "count", "lower"), ("fdseries.ns_per_term", "ns", "lower"),
    ("fdseries.errors", "count", "lower"),
    ("fock.build_s", "s", "lower"), ("fock.check_s", "s", "lower"),
    ("fock.covariance_s", "s", "lower"), ("fock.basis_states", "count", "higher"),
    ("fock.dense_bytes", "bytes", "lower"),
    ("spectra.s", "s", "lower"), ("spectra.levels", "count", "higher"),
    ("jackson.s", "s", "lower"), ("jackson.coeffs", "count", "higher"),
    ("verify.spectra_s", "s", "lower"), ("verify.fock_s", "s", "lower"),
    ("verify.jackson_s", "s", "lower"), ("verify.series_s", "s", "lower"),
    ("verify.thermo_s", "s", "lower"), ("verify.checks", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
)
SPAN_OF = {
    "thermo.dist_s": "thermo.dist", "thermo.eos_s": "thermo.eos", "thermo.mu_s": "thermo.mu",
    "thermo.trace_s": "thermo.trace", "fdseries.f_gen_s": "fdseries.f_gen",
    "fdseries.h_gen_s": "fdseries.h_gen", "fock.build_s": "fock.build",
    "fock.check_s": "fock.check", "fock.covariance_s": "fock.covariance",
    "spectra.s": "spectra", "jackson.s": "jackson", "cli.main_s": "cli.main",
    **{f"verify.{g}_s": f"verify.{g}" for g in oracles.CHECK_GROUPS},
}
# probe spans that cover the kernel work under one in-process `cli.main`
CLI_KERNEL_SPANS = {"thermo.dist", "thermo.eos", "thermo.mu", "thermo.virial", "spectra",
                    *(f"verify.{g}" for g in oracles.CHECK_GROUPS)}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def blas_threads() -> int:
    """One BLAS thread: on a small shared machine a second thread makes the
    dense products faster but their times much less steady."""
    return 1


def pinned_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads())
    return env


def run_environment(root: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "qfermi")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)), "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def warm_up(root: str, env: dict) -> None:
    """Import the package once, which also writes its bytecode caches."""
    proc = subprocess.run([sys.executable, "-c", "import qfermi"], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchmarkError(f"import qfermi failed: {proc.stderr.strip()[-500:]}")


def run_worker(root: str, env: dict, job: dict, out_dir: str) -> dict:
    job_path = os.path.join(out_dir, "job.json")
    result_path = os.path.join(out_dir, "result.json")
    with open(job_path, "w") as handle:
        json.dump(job, handle)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), job_path,
                             result_path], cwd=root, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI op it started
        proc.wait()
        raise BenchmarkError(f"worker exceeded {WORKER_TIMEOUT_S:.0f} s")
    if code != 0:
        raise BenchmarkError(f"worker exited with code {code}")
    with open(result_path) as handle:
        return json.load(handle)


def check_op(op, out, out_dir, seed):
    try:
        return oracles.check(op, out, out_dir, seed)
    except (LookupError, TypeError, ValueError, OSError) as exc:  # malformed or missing output
        return [f"output not checkable: {type(exc).__name__}: {exc}"]


def check_outputs(ops, result, out_dir, seed):
    """(failures per op of the first pass, ops failed over all passes)."""
    failures = [check_op(op, out, out_dir, seed) for op, out in zip(ops, result["outputs"])]
    reference = result["passes"][0]["digests"]
    failed = 0
    for p in result["passes"]:
        for k, digest in enumerate(p["digests"]):
            failed += bool(failures[k]) or digest != reference[k]
    return failures, failed


def tail(values):
    """(value, percentile, ops beyond) of the highest percentile with
    TAIL_BEYOND ops beyond it, or the maximum when there are fewer ops."""
    ordered = sorted(values)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def end_to_end(result, setup):
    """The bounded metrics, their notes, and the median op time.  The median op
    is reported but not bounded: in `cli_tables` it falls between ops of
    different cost and spread by a third from run to run."""
    untraced = [p for p in result["passes"] if not p["traced"]]
    op_times = [d for p in untraced for d in p["durations"]]
    tail_s, tail_pct, beyond = tail(op_times)
    values = {
        "wall_s": statistics.median(sum(p["durations"]) for p in untraced),
        "op_tail_s": tail_s,
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        "setup_s": statistics.median(setup),
    }
    notes = {"op_tail_s": f"p{tail_pct:.1f} of {len(op_times)} ops, {beyond} beyond",
             "setup_s": f"median of {len(setup)} fresh interpreters"}
    return values, notes, {"op_p50_s": (statistics.median(op_times), "s")}


def per_layer(result):
    """Median over traced passes of each layer's time; counts, which must
    repeat exactly from pass to pass."""
    spans = result["spans"]
    n_traced = len(result["counts"])
    by_name = [{} for _ in range(n_traced)]
    for sid, name, start, end, parent, k in spans:
        by_name[k][name] = by_name[k].get(name, 0.0) + (end - start)
    # in-process `cli.main` minus the kernels probed beside it under the same op
    cli_ops = {parent for sid, name, start, end, parent, k in spans if name == "cli.main"}
    self_s = [0.0] * n_traced
    for sid, name, start, end, parent, k in spans:
        if name == "cli.main":
            self_s[k] += end - start
        elif name in CLI_KERNEL_SPANS and parent in cli_ops:
            self_s[k] -= end - start

    counts = result["counts"]
    repeat_ok = all(c == counts[0] for c in counts)
    values = {}
    for metric, unit, _ in PER_LAYER:
        if metric in SPAN_OF:
            values[metric] = statistics.median(t.get(SPAN_OF[metric], 0.0) for t in by_name)
        elif unit != "s" and metric != "fdseries.ns_per_term":
            values[metric] = counts[0].get(metric, 0)
    values["cli.self_s"] = statistics.median(self_s)
    values["cli.startup_s"] = statistics.median(
        t.get("cli.subprocess", 0.0) - t.get("cli.main", 0.0) for t in by_name)
    series_s = values["fdseries.f_gen_s"] + values["fdseries.h_gen_s"]
    terms = values["fdseries.terms"]
    values["fdseries.ns_per_term"] = series_s * 1e9 / terms if terms else 0.0
    walls = {traced: statistics.median(sum(p["durations"]) for p in result["passes"]
                                       if p["traced"] == traced) for traced in (False, True)}
    values["trace.overhead_s"] = walls[True] - walls[False]
    return values, repeat_ok


def run_workload(root, workload, seed, seconds, trace, scale=1.0, setup_samples=SETUP_SAMPLES):
    """Run one workload; returns the report dict (see `main` for its use)."""
    out_dir = os.path.join(root, ".perfbench_out", workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = pinned_env(root)
    ops = workloads.build(workload, seed, scale)
    warm_up(root, env)
    job = {"ops": ops, "seconds": seconds, "trace": bool(trace), "out_dir": out_dir,
           "python": sys.executable, "setup_samples": setup_samples}
    result = run_worker(root, env, job, out_dir)
    setup = result["setup_s"]
    failures, failed = check_outputs(ops, result, out_dir, seed)
    attempted = sum(len(p["durations"]) for p in result["passes"])

    report = {"workload": workload, "environment": run_environment(root, seed),
              "passes": len(result["passes"]), "attempted": attempted, "failed": failed,
              "failures": {ops[k].get("name", f"{k}:{ops[k]['kind']}"): f
                           for k, f in enumerate(failures) if f}}
    correct = failed == 0
    if trace:
        values, repeat_ok = per_layer(result)
        units = {name: unit for name, unit, _ in PER_LAYER}
        notes = {"fock.dense_bytes": "computed from array sizes, not measured"}
        if not repeat_ok:
            report["failures"]["counts"] = ["work counts differ between traced passes"]
            correct = False
        with open(os.path.join(out_dir, "trace.json"), "w") as handle:
            json.dump({"spans": result["spans"], "counts": result["counts"]}, handle)
    else:
        values, notes, report["unbounded"] = end_to_end(result, setup)
        units = dict(END_TO_END)
    report.update(correct=correct, notes=notes, setup_samples_s=setup,
                  metrics={name: {"value": values[name], "unit": units[name]}
                           for name in units})
    with open(os.path.join(out_dir, "report.json"), "w") as handle:
        json.dump(report, handle, indent=1)
    return report


def print_report(report):
    env = report["environment"]
    print(f"{report['workload']}: seed {env['seed']}, {report['passes']} passes, "
          f"python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"{env['blas_threads']} BLAS threads, nproc {env['nproc']}, "
          f"source {env['source_sha256'][:12]}")
    for name, metric in report["metrics"].items():
        note = report["notes"].get(name)
        print(f"  {name:22s} {metric['value']:14.6g} {metric['unit']:6s}"
              + (f" ({note})" if note else ""))
    for name, (value, unit) in report.get("unbounded", {}).items():
        print(f"  {name:22s} {value:14.6g} {unit:6s} (reported, no bound)")
    frac = report["failed"] / report["attempted"]
    print(f"  {'failed_frac':22s} {frac:14.6g} {'':6s} "
          f"({report['failed']} of {report['attempted']} ops)")
    for name, fails in report["failures"].items():
        print(f"  FAILED {name}: {fails[0]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qfermi", "__init__.py")):
        print("error: src/qfermi not found; run from the root of a qfermi checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    try:
        for name in names:
            reports.append(run_workload(root, name, args.seed, args.seconds, args.trace))
            print_report(reports[-1])
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    line = {"correct": all(r["correct"] for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports), "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
