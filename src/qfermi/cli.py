"""Command-line front end: CSV tables, figure data, and the check suite.

Exit codes: 0 success, 1 check failure, 2 usage/configuration or I/O error.
CSV files carry a header row, comma separators, 12-significant-digit
values, one trailing newline per row.  A table's empty cell is its nan, and
is written empty; a table holds at most `_MAX_ROWS` rows.  Every output file
is written via a unique temp file in its directory and an atomic rename, so
partial files are never left behind.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
import tempfile

import numpy as np

from . import thermo, verify
from .models import Model
from .spectra import spectrum

_SINGULAR_OFFSET = 1e-9
_BLOCK = 4096  # rows formatted per write
_MAX_ROWS = 10_000_000  # rows of one table, checked before any array is made


class ConfigError(Exception):
    """Invalid flags or configuration-file values."""


@contextlib.contextmanager
def _atomic_output(path: str):
    """Text handle on a unique temp file in the directory of `path`, renamed
    over `path` on success; on any error the temp file is removed and `path`
    is left as it was."""
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=f".{os.path.basename(path)}.", suffix=".tmp"
    )
    try:
        with open(fd, "w", newline="") as handle:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)  # the mode open() gives, not mkstemp's 0600
            yield handle
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_csv(path: str, header, table: np.ndarray) -> None:
    """CSV of the 2-D float `table` under `header`, with a nan cell written
    empty.  Each block of `_BLOCK` rows is one bulk %-format of its floats;
    '%.12g' writes every nan, and no other float, as text holding "nan", so a
    block with a nan has that text deleted."""
    line = ",".join(["%.12g"] * len(header)) + "\n"
    with _atomic_output(path) as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, len(table), _BLOCK):
            block = table[start : start + _BLOCK]
            text = line * len(block) % tuple(block.ravel().tolist())
            handle.write(text.replace("nan", "") if np.isnan(block).any() else text)


def _check_rows(rows: int) -> None:
    if rows > _MAX_ROWS:
        raise ConfigError(f"a table holds at most {_MAX_ROWS} rows, got {rows}")


def _parse_q_list(text: str):
    values = []
    for part in text.split(","):
        part = part.strip()
        try:
            if "/" in part:
                num, den = part.split("/")
                value = float(num) / float(den)
            else:
                value = float(part)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad deformation value {part!r}") from exc
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"deformation values must be positive, got {part!r}")
        values.append(value)
    if not values:
        raise ConfigError("empty deformation list")
    return values


def _parse_grid(text: str) -> np.ndarray:
    try:
        start_s, stop_s, count_s = text.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError as exc:
        raise ConfigError(f"grid must be start:stop:count, got {text!r}") from exc
    if count < 2:
        raise ConfigError(f"grid needs at least 2 points, got {count}")
    _check_rows(count)
    if not start < stop:
        raise ConfigError(f"grid start must be below stop, got {text!r}")
    with np.errstate(all="ignore"):
        grid = np.linspace(start, stop, count)
    if not np.isfinite(grid).all():
        raise ConfigError(f"grid points must be finite, got {text!r}")
    return grid


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path) as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, val = line.partition("=")
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _resolve(args, key: str, fallback):
    """Flag value if given, else config-file value, else built-in default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in args._file_config:
        return args._file_config[key]
    return fallback


def _write_distribution(path, model, q_list, grid, xi=0.0, abscissa="eta") -> None:
    """CSV of the `model` distribution at eta = x - xi: one row per point x
    of `grid`, one column per q.  Points within 1e-9 of a singular abscissa
    move 1e-9 above it; a cell still singular is left empty.  A note on
    stderr counts the moved points and the empty cells, if any."""
    record = thermo.MODELS[model]
    header, columns, singular = [abscissa], [], []
    for q in q_list:
        if q == 1.0 and record.q1_limit_array is not None:
            header.append("n_q1_limit")
            columns.append(record.q1_limit_array)
        else:
            header.append(f"n_q{q:g}")
            columns.append(lambda eta, q=q, n=record.distribution_array: n(eta, q))
            singular += [s + xi for s in record.singular(q)]
    for column in columns:
        column(grid[:0])  # every q is checked before any cell is computed
    nudged = grid.copy()
    for s in singular:
        nudged[np.abs(nudged - s) < _SINGULAR_OFFSET] = s + _SINGULAR_OFFSET
    table = np.empty((nudged.size, len(header)))
    table[:, 0] = nudged
    eta = nudged - xi
    for k, column in enumerate(columns, 1):
        table[:, k], mask = column(eta)
        if mask is not None:
            table[mask, k] = np.nan
    _write_csv(path, header, table)
    moved = int(np.count_nonzero(nudged != grid))
    empty = int(np.count_nonzero(np.isnan(table)))
    if moved or empty:
        print(
            f"note: {model.value}: {moved} grid point(s) moved 1e-9 off a singular "
            f"point, {empty} cell(s) left empty",
            file=sys.stderr,
        )


# ---------------------------------------------------------------------------
# commands


def _cmd_dist(args) -> int:
    model = Model.from_name(_resolve(args, "model", "vpjc"))
    if thermo.MODELS[model].distribution_array is None:
        raise ConfigError("dist applies to the fermionic models")
    q_list = _parse_q_list(_resolve(args, "q", "0.5"))
    grid = _parse_grid(_resolve(args, "grid", "-5:5:201"))
    out = _resolve(args, "out", f"dist_{model.value}.csv")
    _write_distribution(out, model, q_list, grid)
    return 0


def _cmd_eos(args) -> int:
    model = Model.from_name(_resolve(args, "model", "fn"))
    eos = thermo.MODELS[model].eos_array
    if eos is None:
        raise ConfigError("eos applies to the fn, ckn and pvc models")
    q_list = _parse_q_list(_resolve(args, "q", "0.5"))
    grid = _parse_grid(_resolve(args, "grid", "0.05:0.9:18"))
    tol = float(_resolve(args, "tol", 1e-10))
    g_mult = float(_resolve(args, "g_mult", 1.0))
    out_base = _resolve(args, "out", f"eos_{model.value}.csv")
    if not math.isfinite(tol):
        raise ConfigError(f"--tol must be finite, got {tol}")
    if tol <= 0.0:
        raise ConfigError(f"tolerance must be positive, got {tol}")
    if not math.isfinite(g_mult):
        raise ConfigError(f"--g-mult must be finite, got {g_mult}")
    if grid[0] <= 0.0:
        raise ConfigError("eos grids need positive fugacities")
    header = ["z", "pressure", "density", "energy_density", "entropy"]
    for q in q_list:
        state, skipped = eos(q, grid, g_mult, tol)
        table = np.column_stack(
            (grid, state.pressure, state.density, state.energy_density, state.entropy)
        )
        table[skipped, 1:] = np.nan
        path = out_base
        if len(q_list) > 1:
            stem, ext = os.path.splitext(out_base)
            path = f"{stem}_q{q:g}{ext or '.csv'}"
        _write_csv(path, header, table)
        if skipped.any():
            print(
                f"note: {model.value} q={q:g}: {np.count_nonzero(skipped)} rows outside "
                "the series domain left empty",
                file=sys.stderr,
            )
    return 0


def _cmd_virial(args) -> int:
    model = Model.from_name(_resolve(args, "model", "fn"))
    if thermo.MODELS[model].fn_q is None:
        raise ConfigError("virial applies to the fn and ckn models")
    q_list = _parse_q_list(_resolve(args, "q", "0.3,0.5,0.9,1.5"))
    orders = int(_resolve(args, "orders", 3))
    fitted = {q: thermo.virial_coefficients(model, q, orders) for q in q_list}
    targets = thermo.VIRIAL_TARGETS
    lines = [f"virial coefficients, model={model.value}, orders={orders}"]
    for q, coeffs in fitted.items():
        pretty = ", ".join(f"a{k + 1}={c:.10g}" for k, c in enumerate(coeffs))
        lines.append(f"  q={q:g}: {pretty}")
    for k in range(2, orders + 1):
        values = [coeffs[k - 1] for coeffs in fitted.values()]
        spread = max(values) - min(values)
        line = f"  a{k}: spread across q = {spread:.3e}"
        if k in targets:
            worst = max(abs(v - targets[k]) for v in values)
            line += f", target {targets[k]:.10g}, max deviation {worst:.3e}"
        lines.append(line)
    report = "\n".join(lines)
    print(report)
    out = _resolve(args, "out", None)
    if out:
        with _atomic_output(out) as handle:
            handle.write(report + "\n")
    return 0


def _cmd_mu(args) -> int:
    model = Model.from_name(_resolve(args, "model", "fn"))
    if thermo.MODELS[model].mu_array is None:
        raise ConfigError("mu applies to the fn and ckn models")
    closed, numeric = thermo.MODELS[model].mu_array
    q_list = _parse_q_list(_resolve(args, "q", "0.5,1,2"))
    grid = _parse_grid(_resolve(args, "grid", "0.01:0.2:20"))
    out = _resolve(args, "out", f"mu_{model.value}.csv")
    header = ["t"]
    for q in q_list:
        header += [f"mu_closed_q{q:g}", f"mu_numeric_q{q:g}"]
    qs = np.array(q_list)[:, None]  # one row per q, one column per t
    table = np.empty((grid.size, len(header)))
    table[:, 0] = grid
    table[:, 1::2] = closed(grid, qs).T
    table[:, 2::2] = numeric(grid, qs).T
    _write_csv(out, header, table)
    return 0


def _cmd_spectrum(args) -> int:
    model = Model.from_name(_resolve(args, "model", "vpjc"))
    q_list = _parse_q_list(_resolve(args, "q", "0.5"))
    nmax = int(_resolve(args, "nmax", 20))
    if nmax < 1:
        raise ConfigError(f"nmax must be at least 1, got {nmax}")
    _check_rows(nmax + 1)
    out = _resolve(args, "out", f"spectrum_{model.value}.csv")
    header = ["n"] + [f"g_q{q:g}" for q in q_list]
    levels = [np.arange(nmax + 1.0)] + [spectrum(model, q, nmax).values for q in q_list]
    _write_csv(out, header, np.column_stack(levels))
    return 0


def _cmd_check(args) -> int:
    groups = None
    group = _resolve(args, "group", None)
    if group:
        groups = [group]
    seed = int(_resolve(args, "seed", 0))
    vpjc_q = float(_resolve(args, "vpjc_q", 0.5))
    results = verify.run_checks(
        groups, seed=seed, vpjc_q=vpjc_q, strict_norms=bool(args.strict)
    )
    for result in results:
        status = "PASS" if result.ok else "FAIL"
        print(f"GROUP {result.name}: {status} ({result.detail})")
    return 0 if all(r.ok for r in results) else 1


# name -> (model, q values, grid, first column): fixed-flag `dist` tables,
# fig1 at eta = x - xi
_FIGURES = {
    "fig1": (Model.CKN, (0.5, 0.7, 0.9, 1.0), (0.0, 6.0, 121), "x"),
    "fig2": (Model.VPJC, (1.0 / 3.0, 0.5, 1.0), (-3.0, 5.0, 161), "eta"),
}


def _cmd_figure(args) -> int:
    if args.name not in _FIGURES:
        raise ConfigError(f"unknown figure {args.name!r}; available: fig1, fig2")
    model, q_list, grid, abscissa = _FIGURES[args.name]
    xi = float(_resolve(args, "xi", 2.0)) if args.name == "fig1" else 0.0
    if not math.isfinite(xi):
        raise ConfigError(f"--xi must be finite, got {xi}")
    out = _resolve(args, "out", f"{args.name}.csv")
    _write_distribution(out, model, q_list, np.linspace(*grid), xi, abscissa)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser, *names: str) -> None:
    if "model" in names:
        parser.add_argument("--model", help="fn, ckn, pvc or vpjc")
    if "q" in names:
        parser.add_argument("--q", help="comma list of deformation values (a/b allowed)")
    if "grid" in names:
        parser.add_argument("--grid", help="start:stop:count")
    if "tol" in names:
        parser.add_argument("--tol", type=float, help="series tolerance")
    if "out" in names:
        parser.add_argument("--out", help="output path")
    parser.add_argument("--config", help="key=value file; flags take precedence")


# parse_args leaves the parser as it was, and help and usage errors read
# sys.stdout, sys.stderr and the terminal width when they print: one per process
@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfermi",
        description="Deformed fermion oscillator models: tables, figure data, checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="distribution-function curves as CSV")
    _add_common(p_dist, "model", "q", "grid", "out")
    p_dist.set_defaults(func=_cmd_dist)

    p_eos = sub.add_parser("eos", help="equation-of-state tables as CSV")
    _add_common(p_eos, "model", "q", "grid", "tol", "out")
    p_eos.add_argument("--g-mult", dest="g_mult", type=float, help="PVC multiplicity")
    p_eos.set_defaults(func=_cmd_eos)

    p_virial = sub.add_parser("virial", help="fitted virial coefficients")
    _add_common(p_virial, "model", "q", "out")
    p_virial.add_argument("--orders", type=int, help="highest coefficient (2..6)")
    p_virial.set_defaults(func=_cmd_virial)

    p_mu = sub.add_parser("mu", help="low-temperature chemical potential table")
    _add_common(p_mu, "model", "q", "grid", "out")
    p_mu.set_defaults(func=_cmd_mu)

    p_spectrum = sub.add_parser("spectrum", help="basic-number tables as CSV")
    _add_common(p_spectrum, "model", "q", "out")
    p_spectrum.add_argument("--nmax", type=int, help="highest level")
    p_spectrum.set_defaults(func=_cmd_spectrum)

    p_check = sub.add_parser("check", help="run the verification suite")
    _add_common(p_check)
    p_check.add_argument("--group", help=f"restrict to one group: {list(verify.GROUPS)}")
    p_check.add_argument("--seed", type=int, help="seed for randomized checks")
    p_check.add_argument(
        "--vpjc-q", dest="vpjc_q", type=float, help="deformation for the norm audit"
    )
    p_check.add_argument(
        "--strict",
        action="store_true",
        help="fail the fock group on any norm violation",
    )
    p_check.set_defaults(func=_cmd_check)

    p_fig = sub.add_parser("figure", help="pinned figure data as CSV")
    p_fig.add_argument("name", help="fig1 or fig2")
    p_fig.add_argument("--xi", type=float, help="beta*mu for fig1 (default 2)")
    _add_common(p_fig, "out")
    p_fig.set_defaults(func=_cmd_figure)

    return parser


def _merge_negative_values(argv):
    """Join `--grid -5:5:11` style pairs so argparse does not read the value
    as an option; applies to the flags whose values may start with a dash."""
    merged = []
    skip = False
    for k, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in ("--grid", "--xi") and k + 1 < len(argv):
            merged.append(f"{token}={argv[k + 1]}")
            skip = True
        else:
            merged.append(token)
    return merged


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args._file_config = (
            _load_config_file(args.config) if getattr(args, "config", None) else {}
        )
        return args.func(args)
    except (ConfigError, ValueError, OSError, MemoryError) as exc:  # bad --out, huge table
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
