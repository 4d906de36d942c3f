"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests      # from the repository root

Every workload runs at a tiny size, traced and untraced; names in
BENCHMARK.json match what the benchmark prints; work counts repeat exactly;
each oracle accepts the program's own output and flags that output once it
is perturbed by ten times the oracle's limit.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TINY = 0.01
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_matches_benchmark():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in metrics]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(0 < len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed(workload):
    assert workloads.build(workload, 5) == workloads.build(workload, 5)
    assert workloads.build(workload, 5) != workloads.build(workload, 6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_is_correct(workload):
    report = run.run_workload(str(ROOT), workload, 3, 0, 0, scale=TINY, setup_samples=2)
    assert report["correct"], report["failures"]
    assert report["failed"] == 0 and report["attempted"] == report["passes"] * len(
        workloads.build(workload, 3, TINY))
    assert list(report["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in report["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_counts_repeat(workload):
    first = run.run_workload(str(ROOT), workload, 3, 0, 1, scale=TINY, setup_samples=1)
    second = run.run_workload(str(ROOT), workload, 3, 0, 1, scale=TINY, setup_samples=1)
    assert first["correct"] and second["correct"], (first["failures"], second["failures"])
    assert list(first["metrics"]) == [name for name, _, _ in run.PER_LAYER]
    counts = [name for name, unit, _ in run.PER_LAYER if unit != "s" and unit != "ns"]
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert any(first["metrics"][k]["value"] > 0 for k in counts)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# ---------------------------------------------------------------------------
# oracles flag a value moved by ten times their limit


def _first(workload, kind, **match):
    for op in workloads.build(workload, 7, TINY):
        if op["kind"] == kind and all(op.get(k) == v for k, v in match.items()):
            return op
    raise LookupError(kind)


def _output(op):
    return worker._jsonable(worker.OPS[op["kind"]](op, worker.NullTracer()))


def _flags(op, out, field, limit, *index):
    assert oracles.check(op, out, None, 0) == []
    moved = json.loads(json.dumps(out))
    parent, key = moved, field
    for k in index:
        parent, key = parent[key], k
    parent[key] += 10 * limit
    return oracles.check(op, moved, None, 0) != []


@pytest.mark.parametrize("kind", ["f_gen", "standard_fd", "h_gen"])
def test_series_oracle_flags_perturbed_value(kind):
    op = _first("series_edge", kind)
    out = _output(op)
    limit = out["error_bound"] + oracles.allowance(out["value"])
    assert _flags(op, out, "value", limit)


@pytest.mark.parametrize("kind", ["fn_eos", "pvc_eos"])
def test_eos_oracle_flags_perturbed_entropy(kind):
    op = _first("series_edge", kind)
    out = _output(op)
    _, per_tol = oracles.eos_ref(kind[:-4], op["q"], op["z"])
    limit = per_tol["entropy"] * op["tol"] + oracles.allowance(out["entropy"])
    assert _flags(op, out, "entropy", limit)


def test_fn_diagonal_oracle_flags_perturbed_entry():
    op = _first("fock_audit", "fn_audit", ds=[1, 2, 3])
    out = _output(op)
    k = 7  # all three modes occupied: N q**(N-1) = 3 q**2
    limit = 1e-13 * max(1.0, 3 * op["q"] ** 2)
    assert _flags(op, out, "diag", limit, 2, k)


def test_trace_oracle_flags_perturbed_mean():
    op = _first("fock_audit", "trace", model="vpjc")
    out = _output(op)
    assert _flags(op, out, "mean_deformed", 1e-12 * max(1.0, out["mean_deformed"]))


def test_spectrum_oracle_flags_perturbed_level():
    op = _first("fock_audit", "spectrum", model="vpjc")
    out = _output(op)
    assert _flags(op, out, "values", 1e-13 * out["values"][3] + 1e-300, 3)


def test_dist_table_oracle_flags_perturbed_cell(tmp_path):
    from qfermi.cli import main

    op = _first("cli_tables", "cli", cmd="dist", model="pvc")
    argv = list(op["argv"])
    out_name = argv[argv.index("--out") + 1]
    assert main(argv[:-1] + [str(tmp_path / out_name)]) == 0
    out = {"returncode": 0, "stdout": "", "stderr": "", "files": {}}
    assert oracles.check(op, out, str(tmp_path), 0) == []

    path = tmp_path / out_name
    lines = path.read_text().splitlines()
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    i = len(rows) - 1  # far from the singular abscissa ln(1/q)
    value = float(rows[i][1])
    rows[i][1] = repr(value + 10 * (1e-10 * value + 1e-13))
    path.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")
    assert oracles.check(op, out, str(tmp_path), 0) != []


def test_virial_oracle_flags_perturbed_coefficient(capsys):
    from qfermi.cli import main

    op = _first("cli_tables", "cli", cmd="virial")
    assert main(op["argv"]) == 0
    stdout = capsys.readouterr().out
    out = {"returncode": 0, "stdout": stdout, "stderr": "", "files": {}}
    assert oracles.check(op, out, None, 0) == []
    a6 = float(oracles.virial_ref(6)[5])
    line = next(x for x in stdout.splitlines() if "a6=" in x)
    value = float(line.split("a6=")[1])
    moved = line.replace(f"a6={value:.10g}", f"a6={value + 10 * 1e-7 * abs(a6):.10g}")
    assert oracles.check(op, dict(out, stdout=stdout.replace(line, moved)), None, 0) != []


def test_tail_percentile_leaves_ten_ops_beyond():
    value, pct, beyond = run.tail(list(np.arange(100.0)))
    assert (value, beyond) == (89.0, 10) and pct == pytest.approx(90.0)
