"""Command-line surface: CSV schemas, exit codes, determinism, check suite."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qfermi
from qfermi import Model, SingularPointError, cli, thermo, verify
from qfermi.cli import _fmt, _write_csv, main
from qfermi.thermo import (
    ckn_distribution,
    ckn_eos,
    ckn_mu_lowT,
    ckn_mu_numeric,
    fn_distribution,
    fn_distribution_array,
    fn_eos,
    fn_mu_lowT,
    fn_mu_numeric,
    pvc_distribution,
    pvc_eos,
    q1_limit_distribution,
    vpjc_distribution,
)

# the public scalar forms of each model, as the point-by-point references read them
DISTRIBUTIONS = {Model.FN: fn_distribution, Model.CKN: ckn_distribution,
                 Model.PVC: pvc_distribution, Model.VPJC: vpjc_distribution}
MU = {Model.FN: (fn_mu_lowT, fn_mu_numeric), Model.CKN: (ckn_mu_lowT, ckn_mu_numeric)}
EOS = {Model.FN: lambda q, z, g_mult, tol: fn_eos(q, z, tol),
       Model.CKN: lambda q, z, g_mult, tol: ckn_eos(q, z, tol), Model.PVC: pvc_eos}


def read_csv(path):
    with open(path) as handle:
        header = handle.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in handle]
    return header, rows


def cell(text):
    return None if text == "" else float(text)


def scalar_dist(model, qs, grid, xi=0.0, abscissa="eta"):
    """(exit code, stderr, CSV bytes or None) of a `dist` table made cell by
    cell from the public scalar distributions: the reference for `dist`."""
    record = thermo.MODELS[model]
    header, columns, singular = [abscissa], [], []
    for q in qs:
        if q == 1.0 and record.q1_limit_array is not None:
            header.append("n_q1_limit")
            columns.append(q1_limit_distribution)
        else:
            header.append(f"n_q{q:g}")
            columns.append(lambda eta, q=q: DISTRIBUTIONS[model](eta, q))
            singular += [s + xi for s in record.singular(q)]
    lines, moved, empty = [",".join(header)], 0, 0
    try:
        for x in grid:
            x = start = float(x)
            for s in singular:
                if abs(x - s) < 1e-9:
                    x = s + 1e-9
            moved += x != start
            row = [x]
            for column in columns:
                try:
                    row.append(column(x - xi))
                except SingularPointError:
                    row.append(None)
                    empty += 1
            lines.append(",".join(_fmt(v) for v in row))
    except ValueError as exc:
        return 2, f"error: {exc}\n", None
    note = ""
    if moved or empty:
        note = (f"note: {model.value}: {moved} grid point(s) moved 1e-9 off a singular "
                f"point, {empty} cell(s) left empty\n")
    return 0, note, ("\n".join(lines) + "\n").encode()


def run_dist(argv):
    """(exit code, stderr, CSV bytes or None) of `main(argv + --out)`, with
    every warning raised as an error."""
    with tempfile.TemporaryDirectory() as folder:
        out = os.path.join(folder, "d.csv")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, "--out", out])
        data = open(out, "rb").read() if os.path.exists(out) else None
        assert os.listdir(folder) == ([] if data is None else ["d.csv"])
    return code, err.getvalue(), data


def grid_of(text):
    start, stop, count = text.split(":")
    return np.linspace(float(start), float(stop), int(count))


class TestDist:
    def test_ckn_columns_and_ordering(self, tmp_path):
        out = tmp_path / "ckn.csv"
        code = main(
            ["dist", "--model", "ckn", "--q", "0.5,0.7,1", "--grid", "-5:5:21",
             "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["eta", "n_q0.5", "n_q0.7", "n_q1"]
        assert len(rows) == 21
        for row in rows:
            assert cell(row[1]) >= cell(row[3])  # stronger deformation sits higher

    def test_fn_undeformed_midpoint(self, tmp_path):
        out = tmp_path / "fn.csv"
        assert main(["dist", "--model", "fn", "--q", "1", "--grid", "-2:2:5",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        middle = rows[2]
        assert float(middle[0]) == 0.0
        assert cell(middle[1]) == 0.5

    def test_vpjc_fraction_q_and_limit_column(self, tmp_path):
        out = tmp_path / "vpjc.csv"
        assert main(["dist", "--model", "vpjc", "--q", "1/3,1/2,1",
                     "--grid", "-3:5:161", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["eta", "n_q0.333333", "n_q0.5", "n_q1_limit"]
        # dip of the q = 1/2 curve near the zero crossing
        grid_point = min(rows, key=lambda r: abs(float(r[0]) + 1.4))
        assert cell(grid_point[2]) <= 0.02
        # the eta = 0 point is nudged off the discontinuity, not emitted empty
        nudged = min(rows, key=lambda r: abs(float(r[0])))
        assert 0.0 < float(nudged[0]) <= 1.1e-9
        assert cell(nudged[2]) > 10.0

    def test_no_temp_file_left(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["dist", "--model", "fn", "--grid", "-1:1:3",
                     "--out", str(out)]) == 0
        assert not (tmp_path / "d.csv.tmp").exists()

    def test_bad_grid_is_usage_error(self, tmp_path):
        assert main(["dist", "--model", "fn", "--grid", "5:1:10"]) == 2
        assert main(["dist", "--model", "fn", "--grid", "0:1:1"]) == 2
        assert main(["dist", "--model", "fn", "--grid", "nope"]) == 2

    def test_bad_model_and_q(self):
        assert main(["dist", "--model", "bogus"]) == 2
        assert main(["dist", "--model", "fn", "--q", "-0.5"]) == 2


class TestEos:
    def test_fn_schema_and_domain(self, tmp_path, capsys):
        out = tmp_path / "eos.csv"
        code = main(["eos", "--model", "fn", "--q", "0.5", "--grid", "0.1:3:8",
                     "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["z", "pressure", "density", "energy_density", "entropy"]
        populated = [r for r in rows if r[1] != ""]
        empty = [r for r in rows if r[1] == ""]
        assert populated and empty  # q z < 1 region populated, beyond left empty
        assert all(float(r[0]) < 2.0 for r in populated)
        assert "outside the series domain" in capsys.readouterr().err

    def test_multiple_q_split_files(self, tmp_path):
        out = tmp_path / "eos.csv"
        assert main(["eos", "--model", "fn", "--q", "0.5,1", "--grid", "0.1:0.5:3",
                     "--out", str(out)]) == 0
        assert (tmp_path / "eos_q0.5.csv").exists()
        assert (tmp_path / "eos_q1.csv").exists()

    def test_pvc_domain(self, tmp_path):
        out = tmp_path / "pvc.csv"
        assert main(["eos", "--model", "pvc", "--q", "0.5", "--grid", "0.01:0.45:5",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(r[1] != "" for r in rows)  # z/q < 1 everywhere on this grid

    def test_vpjc_not_supported(self):
        assert main(["eos", "--model", "vpjc"]) == 2


class TestVirial:
    def test_report_contents(self, capsys):
        assert main(["virial", "--model", "fn", "--orders", "3"]) == 0
        report = capsys.readouterr().out
        assert "a2=0.1767766953" in report
        assert "spread across q" in report
        assert "target" in report

    def test_orders_cap(self):
        assert main(["virial", "--model", "fn", "--orders", "7"]) == 2

    def test_model_restriction(self):
        assert main(["virial", "--model", "pvc"]) == 2

    @pytest.mark.parametrize("model,q,orders", [("fn", "1e60", "6"), ("ckn", "1e-200", "3"),
                                                 ("fn", "1e-60", "6")])
    def test_overflow_is_exit_two(self, capsys, model, q, orders):
        # y**orders overflows (the first two) or a coefficient does (a6 was nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["virial", "--model", model, "--q", q, "--orders", orders]) == 2
        assert capsys.readouterr().err == (
            f"error: virial coefficients to order {orders} overflow a double at q = {float(q)}\n"
        )

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "virial.txt"
        assert main(["virial", "--model", "ckn", "--out", str(out)]) == 0
        capsys.readouterr()
        assert "a3" in out.read_text()


class TestMuAndSpectrum:
    def test_mu_table(self, tmp_path):
        out = tmp_path / "mu.csv"
        assert main(["mu", "--model", "fn", "--q", "0.5,1", "--grid", "0.02:0.1:5",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "mu_closed_q0.5", "mu_numeric_q0.5",
                          "mu_closed_q1", "mu_numeric_q1"]
        for row in rows:
            assert cell(row[1]) == pytest.approx(cell(row[2]), rel=1e-3)

    def test_mu_domain_error(self):
        assert main(["mu", "--model", "fn", "--grid", "0.1:0.9:5"]) == 2

    def test_spectrum_table(self, tmp_path):
        out = tmp_path / "levels.csv"
        assert main(["spectrum", "--model", "vpjc", "--q", "0.5", "--nmax", "4",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["n", "g_q0.5"]
        assert [cell(r[1]) for r in rows] == [0.0, 1.0, 0.5, 0.75, 0.625]


class TestCheck:
    def test_default_all_pass(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        for group in verify.GROUPS:
            assert f"GROUP {group}: PASS" in out
        assert "FAIL" not in out

    def test_group_filter(self, capsys):
        assert main(["check", "--group", "fock"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and out[0].startswith("GROUP fock: PASS")

    def test_unknown_group(self):
        assert main(["check", "--group", "nonsense"]) == 2

    def test_injected_norm_fault_fails_strict(self, capsys):
        code = main(["check", "--group", "fock", "--vpjc-q", "2", "--strict"])
        assert code == 1
        out = capsys.readouterr().out
        assert "GROUP fock: FAIL" in out
        assert "norm_positivity" in out
        assert "n=2" in out

    def test_seed_changes_nothing_observable(self, capsys):
        assert main(["check", "--group", "fock", "--seed", "123"]) == 0

    def test_seeds_0_to_9_pass_with_unique_row_names(self, capsys):
        for seed in range(10):
            assert main(["check", "--seed", str(seed)]) == 0
            for result in verify.run_checks(seed=seed):
                names = [row.name for row in result.rows]
                assert len(set(names)) == len(names), result.name

    def test_fault_in_the_q1_kernel_fails_undeformed_limits(self, monkeypatch):
        # FN and CKN at q = 1 and the plain Fermi-Dirac limit all run this kernel
        kernel = thermo.fn_distribution_array

        def faulty(eta, q):
            values, mask = kernel(eta, q)
            return (values + 1e-9 if q == 1.0 else values), mask

        monkeypatch.setattr(thermo, "fn_distribution_array", faulty)
        (result,) = verify.run_checks(["thermo"])
        assert not result.ok
        assert result.detail.startswith("undeformed_limits: residual")


class TestFigure:
    def test_fig1_schema(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["figure", "fig1", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["x", "n_q0.5", "n_q0.7", "n_q0.9", "n_q1"]
        assert len(rows) == 121
        # occupied region below beta*mu = 2: every curve above one half
        first = rows[0]
        assert all(cell(v) > 0.5 for v in first[1:])

    def test_fig1_xi_flag(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["figure", "fig1", "--xi", "3", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        # at x = xi = 3 the undeformed curve sits at one half
        row = min(rows, key=lambda r: abs(float(r[0]) - 3.0))
        assert cell(row[4]) == pytest.approx(0.5, abs=1e-12)

    def test_fig2_crossing_brackets(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["figure", "fig2", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["eta", "n_q0.333333", "n_q0.5", "n_q1_limit"]
        etas = [float(r[0]) for r in rows]
        half = [cell(r[2]) for r in rows]
        third = [cell(r[1]) for r in rows]
        # dips must sit inside the quoted brackets
        idx_half = half.index(min(v for e, v in zip(etas, half) if e < 0))
        assert -1.40 <= etas[idx_half] <= -1.37 + 0.051
        idx_third = third.index(min(v for e, v in zip(etas, third) if e < 0))
        assert -1.11 - 0.051 <= etas[idx_third] <= -1.08 + 0.051
        # limit column is the plain Fermi-Dirac curve
        for row in rows[:10]:
            assert cell(row[3]) == pytest.approx(
                q1_limit_distribution(float(row[0])), rel=1e-12
            )

    def test_fig2_deterministic(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["figure", "fig2", "--out", str(first)]) == 0
        assert main(["figure", "fig2", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_unknown_figure(self):
        assert main(["figure", "fig9"]) == 2


class TestConfigFile:
    def test_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out.csv"
        cfg.write_text(f"model=ckn\nq=0.5\ngrid=-1:1:5\nout={out}\n")
        assert main(["dist", "--config", str(cfg)]) == 0
        header, rows = read_csv(out)
        assert header == ["eta", "n_q0.5"]
        assert len(rows) == 5

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out.csv"
        cfg.write_text("model=ckn\nq=0.9\n")
        assert main(["dist", "--config", str(cfg), "--q", "0.5", "--grid", "-1:1:3",
                     "--out", str(out)]) == 0
        header, _ = read_csv(out)
        assert header == ["eta", "n_q0.5"]

    def test_missing_file(self):
        assert main(["dist", "--config", "/nonexistent/path.cfg"]) == 2

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just a line without equals\n")
        assert main(["dist", "--config", str(cfg)]) == 2


class TestUsage:
    def test_unknown_flag(self):
        assert main(["dist", "--bogus", "1"]) == 2

    def test_missing_command(self):
        assert main([]) == 2

    def test_twelve_significant_digits(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["dist", "--model", "fn", "--q", "1", "--grid", "-1:1:3",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        center = rows[1][1]
        assert center == "0.5"
        edge = rows[0][1]  # 1/(exp(-1)+1) to 12 significant digits
        assert edge == format(1.0 / (math.exp(-1.0) + 1.0), ".12g")


class TestCachedParser:
    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_repeated_calls_print_and_write_the_same(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        calls = [
            ["dist", "--model", "pvc", "--q", "0.5,0.25", "--grid", "-2:2:41", "--out", str(out)],
            ["dist", "--bogus", "1"],
            ["--help"],
            ["eos", "--help"],
            ["check", "--group", "jackson", "--seed", "3"],
            ["spectrum", "--nmax", "0", "--out", str(out)],
        ]

        def run(argv):
            out.unlink(missing_ok=True)
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err, out.read_bytes() if out.exists() else None

        first = [run(argv) for argv in calls]
        assert [code for code, *_ in first] == [0, 2, 0, 0, 0, 2]
        assert first[0][3] and "usage: qfermi" in first[1][2]
        assert "usage: qfermi eos" in first[3][1]
        assert [run(argv) for argv in calls] == first
        # each call again right after a usage error and after a help text
        for argv, expected in zip(calls, first):
            assert run(["dist", "--bogus", "1"]) == first[1]
            assert run(argv) == expected
            assert run(["--help"]) == first[2]
            assert run(argv) == expected


def fail_second_block(monkeypatch):
    """Make the CSV writer's third write, its second block of rows, raise
    after the header and the first block have gone to the temp file."""

    def failing_open(*args, **kwargs):
        handle = open(*args, **kwargs)
        write, count = handle.write, iter(range(3))

        def write_or_fail(text):
            if next(count) == 2:
                raise RuntimeError("second block failed")
            return write(text)

        handle.write = write_or_fail
        return handle

    monkeypatch.setattr(cli, "open", failing_open, raising=False)


class TestOutputFiles:
    TWO_BLOCKS = np.zeros((cli._BLOCK + 1, 1))

    def test_failed_write_leaves_nothing(self, tmp_path, monkeypatch):
        target = tmp_path / "t.csv"
        fail_second_block(monkeypatch)
        with pytest.raises(RuntimeError):
            _write_csv(str(target), ["x"], self.TWO_BLOCKS)
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_old_target(self, tmp_path, monkeypatch):
        target = tmp_path / "t.csv"
        target.write_text("old\n")
        fail_second_block(monkeypatch)
        with pytest.raises(RuntimeError):
            _write_csv(str(target), ["x"], self.TWO_BLOCKS)
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_text() == "old\n"

    def test_only_target_left_and_usual_mode(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["dist", "--model", "fn", "--grid", "-1:1:3", "--out", str(out)]) == 0
        assert list(tmp_path.iterdir()) == [out]
        umask = os.umask(0)
        os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_unwritable_out_is_exit_two(self, tmp_path, capsys):
        missing = tmp_path / "missing" / "d.csv"
        assert main(["dist", "--model", "fn", "--grid", "-1:1:3", "--out", str(missing)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "missing").exists()

    def test_virial_out_is_atomic(self, tmp_path, capsys):
        out = tmp_path / "virial.txt"
        assert main(["virial", "--model", "fn", "--out", str(out)]) == 0
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_text() == capsys.readouterr().out
        missing = tmp_path / "missing" / "virial.txt"
        assert main(["virial", "--model", "fn", "--out", str(missing)]) == 2
        assert "error: " in capsys.readouterr().err


# sha256 of the fixed-flag tables, copied from perfbench/oracles.PINNED_SHA256
PINNED_SHA256 = {
    "fig1": "0d457d2d9971f99019f8c507e213a509948a3f46b9e8b92a25e7f2204170da0d",
    "fig2": "f81ebb881148c541878b5d008d8ff98bbc96ae3894a09118553b916fe6f6ef6a",
    "dist_fixed": "f7c83d2bee7f5bede4e208cdb06bdcdbc17770d094751627da7c5cd40c53f940",
}
FIXED_ARGV = {
    "fig1": ["figure", "fig1"],
    "fig2": ["figure", "fig2"],
    "dist_fixed": ["dist", "--model", "ckn", "--q", "0.5,0.7,1", "--grid", "-5:5:201"],
}
FIG2_AS_DIST = ["dist", "--model", "vpjc", "--q", "1/3,0.5,1", "--grid", "-3:5:161"]


def table_bytes(tmp_path, argv, name="t.csv"):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


class TestPinnedBytes:
    @pytest.mark.parametrize("name", sorted(PINNED_SHA256))
    def test_fixed_tables_match_pinned_digests(self, tmp_path, name):
        data = table_bytes(tmp_path, FIXED_ARGV[name])
        assert hashlib.sha256(data).hexdigest() == PINNED_SHA256[name]

    def test_pinned_digests_hold_without_avx512(self, tmp_path):
        # numpy's AVX-512 exp, expm1 and log differ from libm's in the last
        # bit on some inputs; with those loops off numpy calls libm
        features = np._core._multiarray_umath.__cpu_features__
        disabled = [f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR") if features.get(f)]
        if not disabled:
            pytest.skip("numpy dispatches no AVX-512 loops on this CPU")
        src = os.path.dirname(os.path.dirname(qfermi.__file__))
        env = {**os.environ, "PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled)}
        for name, argv in FIXED_ARGV.items():
            proc = subprocess.run(
                [sys.executable, "-m", "qfermi", *argv, "--out", f"{name}.csv"],
                cwd=tmp_path, capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            data = (tmp_path / f"{name}.csv").read_bytes()
            assert hashlib.sha256(data).hexdigest() == PINNED_SHA256[name]

    def test_fig2_is_a_fixed_flag_dist(self, tmp_path):
        assert table_bytes(tmp_path, ["figure", "fig2"], "a.csv") == table_bytes(
            tmp_path, FIG2_AS_DIST, "b.csv"
        )

    @pytest.mark.parametrize(
        "model,q_text,grid",
        [
            ("fn", "0.4,1,2.5", (-30.0, 30.0, 241)),
            ("ckn", "0.4,1,2.5", (-30.0, 30.0, 241)),
            ("pvc", "0.3,0.8,1", (-5.0, 5.0, 201)),
            ("vpjc", "1/3,0.5,1", (-3.0, 5.0, 161)),
        ],
    )
    def test_columns_are_the_public_scalar_distributions(self, tmp_path, model, q_text, grid):
        scalar = DISTRIBUTIONS[Model.from_name(model)]
        singular = {"fn": lambda q: [], "ckn": lambda q: [],
                    "pvc": lambda q: [math.log(1.0 / q)], "vpjc": lambda q: [0.0]}[model]
        qs = [float(Fraction(text)) for text in q_text.split(",")]
        limit = model in ("pvc", "vpjc")
        out = tmp_path / "d.csv"
        assert main(["dist", "--model", model, "--q", q_text, "--grid",
                     "{}:{}:{}".format(*grid), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[1:] == [
            "n_q1_limit" if limit and q == 1 else f"n_q{q:g}" for q in qs
        ]
        points = [s for q in qs if not (limit and q == 1) for s in singular(q)]
        for x, row in zip(np.linspace(*grid), rows, strict=True):
            for s in points:
                if abs(x - s) < 1e-9:
                    x = s + 1e-9
            x = float(x)
            expected = [
                q1_limit_distribution(x) if limit and q == 1 else scalar(x, q) for q in qs
            ]
            assert row == [_fmt(x)] + [_fmt(v) for v in expected]


class TestDistNote:
    def test_note_counts_moved_points(self, tmp_path, capsys):
        table_bytes(tmp_path, ["dist", "--model", "vpjc", "--q", "0.5,0.25", "--grid",
                               "-1:1:5"])
        assert capsys.readouterr().err == (
            "note: vpjc: 1 grid point(s) moved 1e-9 off a singular point, "
            "0 cell(s) left empty\n"
        )

    def test_silent_when_nothing_moved_or_empty(self, tmp_path, capsys):
        table_bytes(tmp_path, ["dist", "--model", "vpjc", "--grid", "-1:1:4"])
        table_bytes(tmp_path, ["dist", "--model", "fn", "--grid", "-1:1:5"])
        table_bytes(tmp_path, ["figure", "fig1"])
        assert capsys.readouterr().err == ""

    def test_note_counts_empty_cells(self, tmp_path, capsys, monkeypatch):
        def fn_with_a_hole(eta, q):
            values, _ = fn_distribution_array(eta, q)
            return values, eta == 0.5

        record = dataclasses.replace(
            thermo.MODELS[Model.FN], distribution_array=fn_with_a_hole
        )
        monkeypatch.setitem(thermo.MODELS, Model.FN, record)
        out = tmp_path / "d.csv"
        assert main(["dist", "--model", "fn", "--q", "0.5,2", "--grid", "-1:1:5",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            "note: fn: 0 grid point(s) moved 1e-9 off a singular point, "
            "2 cell(s) left empty\n"
        )
        _, rows = read_csv(out)
        assert rows[3] == ["0.5", "", ""]


class TestArrayDist:
    """`dist` computes each column as one array pass; its bytes, stderr and
    exit code must be those of the per-cell scalar reference."""

    @pytest.mark.parametrize("model", ["fn", "ckn", "pvc", "vpjc"])
    @pytest.mark.parametrize("q_text", ["5e-324,1e-300,0.5", "5e-324,1e-300,1e300",
                                        "1e-300,1e300", "0.5,1"])
    @pytest.mark.parametrize("grid", ["-800:800:9", "-3:3:7"])
    def test_extreme_q_match_the_scalar_reference(self, model, q_text, grid):
        qs = [float(v) for v in q_text.split(",")]
        assert run_dist(["dist", "--model", model, "--q", q_text, "--grid", grid]) == (
            scalar_dist(Model.from_name(model), qs, grid_of(grid))
        )

    def test_tiny_q_prints_no_numpy_warning(self, tmp_path):
        # 6e-309 is about the least q whose 1/q is finite; at both tiny q the
        # PVC quotients of the eta < 0 points overflow, and their logs are
        # taken apart
        src = os.path.dirname(os.path.dirname(qfermi.__file__))
        argv = ["dist", "--model", "pvc", "--q", "6e-309,1e-300,0.5", "--grid", "-800:3:7"]
        proc = subprocess.run(
            [sys.executable, "-m", "qfermi", *argv, "--out", "d.csv"], cwd=tmp_path,
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        expected = scalar_dist(Model.PVC, [6e-309, 1e-300, 0.5], grid_of("-800:3:7"))
        assert (tmp_path / "d.csv").read_bytes() == expected[2]
        assert b"inf" not in expected[2]

    def test_pvc_q_without_a_finite_inverse_is_exit_two(self, tmp_path):
        src = os.path.dirname(os.path.dirname(qfermi.__file__))
        argv = ["dist", "--model", "pvc", "--q", "0.5,5e-324", "--grid", "-3:3:7"]
        proc = subprocess.run(
            [sys.executable, "-m", "qfermi", *argv, "--out", "d.csv"], cwd=tmp_path,
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        message = "error: the PVC distribution needs a finite 1/q, got q = 5e-324\n"
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)
        assert not (tmp_path / "d.csv").exists()

    @settings(max_examples=80, deadline=None)
    @given(
        model=st.sampled_from([Model.PVC, Model.VPJC]),
        q=st.floats(0.01, 0.99),
        below=st.floats(1e-12, 10.0),
        above=st.floats(1e-12, 10.0),
        count=st.integers(2, 40),
        with_limit=st.booleans(),
    )
    @example(model=Model.PVC, q=0.5, below=1e-12, above=1e-12, count=2, with_limit=False)
    @example(model=Model.VPJC, q=0.5, below=1e-12, above=10.0, count=3, with_limit=True)
    def test_near_singular_points_match_the_scalar_reference(
        self, model, q, below, above, count, with_limit
    ):
        s = math.log(1.0 / q) if model is Model.PVC else 0.0
        grid = f"{s - below!r}:{s + above!r}:{count}"
        qs = [q, 1.0] if with_limit else [q]
        argv = ["dist", "--model", model.value, "--q", ",".join(map(repr, qs)),
                "--grid", grid]
        assert run_dist(argv) == scalar_dist(model, qs, grid_of(grid))

    def test_figure_with_xi_matches_the_scalar_reference(self):
        expected = scalar_dist(Model.CKN, [0.5, 0.7, 0.9, 1.0], np.linspace(0.0, 6.0, 121),
                               -3.7, "x")
        assert run_dist(["figure", "fig1", "--xi", "-3.7"]) == expected

    @pytest.mark.parametrize(
        "model,q_text,message",
        [
            ("pvc", "0.5,1.5", "the PVC distribution requires 0 < q < 1, got 1.5"),
            ("pvc", "0.5,1.5,3", "the PVC distribution requires 0 < q < 1, got 1.5"),
            ("vpjc", "1,0.5,2", "the VPJC distribution requires 0 < q < 1, got 2.0"),
        ],
    )
    def test_first_bad_q_is_the_error_and_no_file_is_written(self, model, q_text, message):
        argv = ["dist", "--model", model, "--q", q_text, "--grid", "-5:5:20001"]
        assert run_dist(argv) == (2, f"error: {message}\n", None)


class TestWriteCsv:
    """`_write_csv` formats a block without holes in one bulk %-format and a
    block with holes per cell; either way its bytes are the per-cell ones."""

    SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                2.2250738585072014e-308, 1e-310, 1e308, 1.0 / 3.0, -2.5e-17,
                123456789012345.0]

    @staticmethod
    def reference(header, rows):
        lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
        return ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("count", [4095, 4096, 4097, 8193])
    # "edges": a hole on each side of every block boundary and on the last row
    @pytest.mark.parametrize("hole", [None, 0, 4094, -1, "edges"])
    def test_blocks_equal_the_per_cell_format(self, tmp_path, count, hole):
        rng = np.random.default_rng(count)
        table = np.column_stack((
            np.arange(float(count)),
            np.resize(self.SPECIALS, count),
            rng.normal(size=count) * 10.0 ** (np.arange(count) % 40),
        ))
        rows, holes = table.tolist(), None
        if hole is not None:
            holes = np.zeros(table.shape, dtype=bool)
            at = [hole] if hole != "edges" else [n for n in range(count)
                                                 if n % 4096 in (0, 4095)] + [-1]
            holes[at, 1] = True
            holes[at[-1], 2] = True
            for r, c in np.argwhere(holes).tolist():
                rows[r][c] = None
        out = tmp_path / "t.csv"
        _write_csv(str(out), ["n", "a", "b"], table, holes)
        assert out.read_bytes() == self.reference(["n", "a", "b"], rows)


def scalar_table(header, rows_of):
    """(exit code, stderr, CSV bytes or None) of a table whose rows come one
    grid point at a time from `rows_of`; errors as `main` reports them."""
    try:
        lines, note = rows_of()
    except ValueError as exc:
        return 2, f"error: {exc}\n", None
    text = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in lines]
    return 0, note, ("\n".join(text) + "\n").encode()


def scalar_mu(model, qs, grid):
    """`mu` table made cell by cell from the public scalar forms."""
    closed, numeric = MU[model]
    header = ["t"] + [f"mu_{kind}_q{q:g}" for q in qs for kind in ("closed", "numeric")]

    def rows():
        return [[float(t)] + [f(float(t), q) for q in qs for f in (closed, numeric)]
                for t in grid], ""

    return scalar_table(header, rows)


def scalar_eos(model, q, grid, tol=1e-10, g_mult=1.0):
    """`eos` table of one q made point by point from the public scalar form."""
    eos = EOS[model]

    def rows():
        out, skipped = [], 0
        for z in grid:
            try:
                state = eos(q, float(z), g_mult, tol)
                out.append([float(z), state.pressure, state.density,
                            state.energy_density, state.entropy])
            except qfermi.SeriesConvergenceError:
                skipped += 1
                out.append([float(z), None, None, None, None])
        note = (f"note: {model.value} q={q:g}: {skipped} rows outside the series domain "
                "left empty\n") if skipped else ""
        return out, note

    return scalar_table(["z", "pressure", "density", "energy_density", "entropy"], rows)


class TestArrayEosAndMu:
    """`eos` and `mu` compute each table as array passes; bytes, stderr and
    exit code must be those of the point-by-point scalar reference."""

    @pytest.mark.parametrize("model", ["fn", "ckn"])
    @pytest.mark.parametrize("q_text", ["0.5,1,2", "0.347,2.9,1.13", "1e-300,1e300"])
    @pytest.mark.parametrize("grid", ["0.01:0.2:400", "1e-300:0.2:7", "0.2:0.25:3",
                                      "-0.1:0.1:3"])
    def test_mu_bytes_are_the_scalar_writers(self, model, q_text, grid):
        qs = [float(v) for v in q_text.split(",")]
        assert run_dist(["mu", "--model", model, "--q", q_text, "--grid", grid]) == (
            scalar_mu(Model.from_name(model), qs, grid_of(grid))
        )

    @pytest.mark.parametrize(
        "model,q,grid,tol",
        [("fn", 0.7, "0.01:1.6:300", 1e-10), ("ckn", 0.6, "0.005:0.7:300", 3e-12),
         ("fn", 1.3, "1e-300:0.9:50", 1e-15), ("ckn", 2.0, "0.5:2.5:9", 1e-16),
         ("pvc", 0.5, "0.01:0.6:40", 1e-10), ("fn", 1e-300, "1e-300:1e-290:5", 1e-10),
         # pvc up to z / q = 1 - 1e-6, past it, and below the rounding floor
         ("pvc", 0.5, "0.3:0.4999995:9", 1e-6), ("pvc", 0.5, "0.3:0.7:9", 1e-10),
         ("pvc", 0.95, "0.5:0.949905:12", 3.5e-14), ("pvc", 0.7, "1e-300:0.69:7", 1e-12)],
    )
    def test_eos_bytes_are_the_scalar_writers(self, model, q, grid, tol):
        argv = ["eos", "--model", model, "--q", repr(q), "--grid", grid, "--tol", repr(tol)]
        assert run_dist(argv) == scalar_eos(Model.from_name(model), q, grid_of(grid), tol)


class TestRejectedInput:
    @pytest.mark.parametrize("flag,value", [("tol", "inf"), ("tol", "nan"), ("tol", "-inf"),
                                            ("g_mult", "inf"), ("g_mult", "nan")])
    @pytest.mark.parametrize("model", ["fn", "pvc"])
    def test_non_finite_tol_and_g_mult(self, tmp_path, capsys, flag, value, model):
        out = tmp_path / "eos.csv"
        option = "--" + flag.replace("_", "-")
        assert main(["eos", "--model", model, f"{option}={value}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {option} must be finite, got {value}\n"
        assert not out.exists()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag.replace('_', '-')}={value}\n")
        assert main(["eos", "--model", model, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {option} must be finite, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["-1e308:1e308:3", "-inf:0:3", "0:inf:3"])
    def test_non_finite_grid_point(self, tmp_path, capsys, grid):
        out = tmp_path / "d.csv"
        assert main(["dist", "--model", "fn", "--grid", grid, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: grid points must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("xi", ["nan", "inf", "-inf"])
    def test_non_finite_xi(self, tmp_path, capsys, xi):
        out = tmp_path / "fig1.csv"
        assert main(["figure", "fig1", "--xi", xi, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --xi must be finite")
        assert not out.exists()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"xi={xi}\n")
        assert main(["figure", "fig1", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["dist", "--model", "arik-coon"], "dist applies to the fermionic models"),
            (["eos", "--model", "vpjc"], "eos applies to the fn, ckn and pvc models"),
            (["eos", "--model", "arik-coon"], "eos applies to the fn, ckn and pvc models"),
            (["virial", "--model", "pvc"], "virial applies to the fn and ckn models"),
            (["mu", "--model", "vpjc"], "mu applies to the fn and ckn models"),
        ],
    )
    def test_model_without_the_entry(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "model,q,nmax,level",
        [("pvc", "0.3", 2000, 590), ("fn", "3", 2000, 642), ("vpjc", "3", 2000, 647),
         ("ckn", "0.3", 2001, 591), ("arik-coon", "3", 2000, 647)],
    )
    def test_spectrum_overflow_is_exit_two(self, tmp_path, capsys, model, q, nmax, level):
        out = tmp_path / "s.csv"
        argv = ["spectrum", "--model", model, "--q", q, "--nmax", str(nmax), "--out", str(out)]
        assert main(argv) == 2
        message = f"{model} spectrum at q = {float(q)}: level {level} overflows a double"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_spectrum_overflow_prints_no_traceback(self, tmp_path):
        src = os.path.dirname(os.path.dirname(qfermi.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "qfermi", "spectrum", "--model", "pvc", "--q", "0.3",
             "--nmax", "2000", "--out", str(tmp_path / "s.csv")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: pvc spectrum at q = 0.3: level 590")
        assert "Traceback" not in proc.stderr


# Flag values for the argv fuzz, by option dest; an option not named here gets
# short random text.  Counts stay small or far past what can be allocated
# (10**17 doubles, 10**31 elements), so no draw builds a large table.
_NUMBERS = ["0", "-1", "0.5", "2", "1/3", "1e-300", "5e-324", "1e308", "1e400",
            "nan", "inf", "-inf", "", "x"]
_COUNTS = ["-1", "0", "1", "2", "3", "9", "40", "2001", "100000000000000000", "1" + "0" * 31,
           "", "x", "2.5"]
_CONFIG_LINES = ["model=pvc", "q=0.5", "grid=0:1:3", "nmax=1e400", "tol=nan", "seed=-1",
                 "orders=x", "xi=inf", "g-mult=1e308", "bogus", "# note", "group=spectra"]


def _flag_values(tmp_path):
    number = st.sampled_from(_NUMBERS)
    count = st.sampled_from(_COUNTS)
    config = tmp_path / "fuzz.cfg"

    def write_config(lines) -> str:
        config.write_text("\n".join(lines))
        return str(config)

    return {
        "model": st.sampled_from(["fn", "ckn", "pvc", "vpjc", "arik-coon", "ARIK_COON", "", "x"]),
        "q": st.lists(number, max_size=3).map(",".join),
        "grid": st.one_of(
            st.tuples(number, number, count).map(":".join),
            st.sampled_from(["", "::", "1:2", "0:1:2:3", "-5:5:2.5", "0.01:0.2:3", "0.01:0.9:3"]),
        ),
        "tol": st.sampled_from(_NUMBERS + ["1e-12", "1e-3"]),
        "g_mult": number,
        "xi": number,
        "vpjc_q": number,
        "orders": count,
        "nmax": count,
        "seed": count,
        "group": st.sampled_from([*verify.GROUPS, "", "x"]),
        "out": st.sampled_from([str(tmp_path / "t.csv"), str(tmp_path / "no" / "t.csv"),
                                str(tmp_path), ""]),
        "config": st.one_of(
            st.just(str(tmp_path / "missing.cfg")),
            st.lists(st.sampled_from(_CONFIG_LINES), max_size=4).map(write_config),
        ),
    }


def _fuzz_argv(data, tmp_path) -> list:
    """One command and a draw of its own parser's options, each with a value
    of its kind where it takes one; --help one time in ten."""
    values = _flag_values(tmp_path)
    commands = next(a for a in cli._build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    name = data.draw(st.sampled_from(sorted(commands)))
    argv = [name]
    for action in commands[name]._actions:
        if not action.option_strings:  # figure's name
            argv += data.draw(st.sampled_from([["fig1"], ["fig2"], ["fig3"], [""], []]))
            continue
        odds = 10 if isinstance(action, argparse._HelpAction) else 2
        if data.draw(st.integers(0, odds - 1)):
            continue
        argv.append(data.draw(st.sampled_from(action.option_strings)))
        if action.nargs != 0:
            argv.append(data.draw(values.get(action.dest, st.text(max_size=6))))
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_argv_exits_0_1_or_2(data, tmp_path, monkeypatch):
    # no exception leaves main, whatever the flags: a bad value is exit 2
    monkeypatch.chdir(tmp_path)  # default output names land here too
    argv = _fuzz_argv(data, tmp_path)
    assert main(argv) in (0, 1, 2), argv
