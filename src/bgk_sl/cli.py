"""Command-line interface.

    bgk-sl run        --scenario smooth --scheme RK3 --interp weno35 \
                      --eps 1e-4 --nx 160 --out profile.csv
    bgk-sl converge   --scenario smooth --scheme BDF3 --interp weno23 \
                      --eps 1e-4,1e-6 --nx 40 --levels 4 --out orders.csv
    bgk-sl cfl-sweep  --scenario smooth --scheme RK2 --interp weno23 \
                      --eps 1e-4 --nx 160 --tfinal 0.3 --out sweep.csv
    bgk-sl cost       --scenario smooth --scheme BDF3 --interp weno35 --cfl lattice \
                      --eps 1e-4 --nx 40 --levels 3 --out cost.csv

Options may come from a JSON config file (--config file.json with keys named
like the command's own long flags); explicit command-line flags win on
conflict.  Output is CSV (UTF-8, header row, 17 significant digits); without
--out it goes to stdout.  Exit codes: 0 success, 1 stdout closed by its
reader, 2 configuration error, 3 numerical failure (with any partial output
flushed and marked).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .config import Boundary, Integrator, Interp, typed_value
from .errors import ConfigError, NumericalError
from .harness import (
    DEFAULT_CFL_SWEEP,
    RunResult,
    cfl_sweep,
    convergence_study,
    cost_study,
    run_case,
)

# CSV columns of each command, shared by the table of a finished command and
# the partial table of a failed one.  Study rows are dicts keyed by the
# lower-cased column name; run rows are the node tuples of RunResult.rows().
_COLUMNS = {
    "run": ["x", "rho", "u", "T", "E"],
    "converge": ["eps", "nx", "err_L1_rho", "order"],
    "cfl-sweep": ["cfl_requested", "cfl_actual", "err_L2_rho"],
    "cost": ["scheme", "nx", "wall_seconds", "err_L1_rho"],
}

class _Parser(argparse.ArgumentParser):
    """An argument error is one stderr line and exit code 2, as a config error is."""

    def error(self, message):
        self.exit(2, f"config error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bgk-sl",
        description="semi-Lagrangian discrete-velocity BGK solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "march one case and write the final moment profiles"),
        ("converge", "successive-refinement error/order table"),
        ("cfl-sweep", "L2 density error over a grid of CFL numbers"),
        ("cost", "wall time vs error for one or more schemes"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with default option values")
        p.add_argument("--scenario", help="bundled scenario name or scenario JSON file")
        p.add_argument(
            "--scheme",
            help="integrator: " + "|".join(m.value for m in Integrator)
            + (" (comma-separated list)" if name == "cost" else ""),
        )
        p.add_argument("--interp", help="interpolation: " + "|".join(m.value for m in Interp))
        p.add_argument("--bc", help="boundary: " + "|".join(m.value for m in Boundary))
        p.add_argument("--eps", help="relaxation time (Knudsen number)"
                       + (", comma-separated list" if name == "converge" else ""))
        p.add_argument("--nx", help="space intervals" + (
            " (coarsest level)" if name in ("converge", "cost") else ""))
        p.add_argument("--nv", help="velocity nodes per half-axis")
        p.add_argument("--vmax", help="velocity grid extent")
        p.add_argument("--cfl", help="CFL number" + (
            ", comma-separated sweep values" if name == "cfl-sweep"
            else ", or lattice for dt = dx/dv"))
        p.add_argument("--tfinal", help="final time")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument(
            "--seed-meta",
            action="store_true",
            default=None,
            dest="seed_meta",
            help="prepend config/seed echo as comment lines",
        )
        if name in ("converge", "cost"):
            p.add_argument("--levels", help="number of grid doublings from --nx")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run_command(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's last flush
        return code
    except BrokenPipeError:
        # the reader went away: devnull takes the interpreter's last flush quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run_command(args: argparse.Namespace) -> int:
    opts = {}
    try:
        opts = _merge_options(args)
        # A march that goes bad overflows on its way; the stepper's checks
        # name the failure, so numpy's warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _dispatch(args.command, opts)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print(f"config error: grid too large to allocate: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        # Flush what the command finished, in its own schema.
        if args.command != "run":
            _write_study(args.command, opts, getattr(err, "partial_rows", []), failed=str(err))
        elif isinstance(getattr(err, "partial_result", None), RunResult):
            _write_run_csv(opts.get("out"), err.partial_result, opts["seed_meta"], failed=str(err))
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


# --------------------------------------------------------------------------
# option handling
# --------------------------------------------------------------------------
def _merge_options(args: argparse.Namespace) -> dict:
    """Config-file values fill in unset flags; an option set by neither is left
    out.  A config key must be a flag of the command."""
    opts = {key: value for key, value in vars(args).items() if key not in ("command", "config")}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_opts = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config file {args.config!r}: {err}") from err
        if not isinstance(file_opts, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_opts) - set(opts)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_opts.items():
            if opts[key] is None:
                opts[key] = value
    opts = {key: value for key, value in opts.items() if value is not None}
    opts["seed_meta"] = typed_value("seed_meta", opts.get("seed_meta", False), bool)
    if "out" in opts:
        opts["out"] = typed_value("out", opts["out"], str)
    return opts


def _require(opts: dict, key: str):
    if opts.get(key) is None:
        raise ConfigError(f"missing required option --{key.replace('_', '-')}")
    return opts[key]


def _tokens(value, key, kind=str) -> list:
    """The items of a list option, a JSON list or comma-separated tokens, each
    of kind; at least one."""
    if isinstance(value, str):
        value = [tok.strip() for tok in value.split(",") if tok.strip()]
    items = list(value) if isinstance(value, (list, tuple)) else [value]
    if not items:
        raise ConfigError(f"--{key} expects at least one value, got {value!r}")
    return [typed_value(key, item, kind) for item in items]


def _common_kwargs(opts: dict) -> dict:
    """Scenario fields every command hands to run_case unparsed (`with_overrides`)."""
    return {
        "boundary": opts.get("bc"),
        "nv": opts.get("nv"),
        "vmax": opts.get("vmax"),
        "t_final": opts.get("tfinal"),
    }


def _cfl_list(opts: dict) -> list[float]:
    return _tokens(opts["cfl"], "cfl", float) if "cfl" in opts else list(DEFAULT_CFL_SWEEP)


def _nx_ladder(opts: dict, default_nx: int, default_levels: int) -> list[int]:
    base = typed_value("nx", opts.get("nx", default_nx), int)
    levels = typed_value("levels", opts.get("levels", default_levels), int)
    if levels < 2:
        raise ConfigError(f"--levels must be >= 2, got {levels}")
    return [base * 2**k for k in range(levels)]


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------
def _dispatch(command: str, opts: dict) -> int:
    if command == "run":
        _write_run_csv(opts.get("out"), _cmd_run(opts), opts["seed_meta"])
    else:
        study = {"converge": _cmd_converge, "cfl-sweep": _cmd_cfl_sweep, "cost": _cmd_cost}
        _write_study(command, opts, study[command](opts))
    return 0


def _cmd_run(opts: dict) -> RunResult:
    return run_case(
        _require(opts, "scenario"),
        integrator=_require(opts, "scheme"),
        interp=opts.get("interp"),
        eps=_require(opts, "eps"),
        nx=_require(opts, "nx"),
        cfl=opts.get("cfl"),
        **_common_kwargs(opts),
    )


def _cmd_converge(opts: dict) -> list[dict]:
    return convergence_study(
        _require(opts, "scenario"),
        integrator=_require(opts, "scheme"),
        interp=opts.get("interp"),
        eps_list=_tokens(_require(opts, "eps"), "eps", float),
        nx_list=_nx_ladder(opts, default_nx=40, default_levels=4),
        cfl=opts.get("cfl"),
        **_common_kwargs(opts),
    )


def _cmd_cfl_sweep(opts: dict) -> list[dict]:
    return cfl_sweep(
        _require(opts, "scenario"),
        integrator=_require(opts, "scheme"),
        interp=opts.get("interp"),
        eps=_require(opts, "eps"),
        cfl_list=_cfl_list(opts),
        nx=typed_value("nx", opts.get("nx", 160), int),
        **_common_kwargs(opts),
    )


def _cmd_cost(opts: dict) -> list[dict]:
    return cost_study(
        _require(opts, "scenario"),
        schemes=[(tok, opts.get("interp")) for tok in _tokens(_require(opts, "scheme"), "scheme")],
        eps=_require(opts, "eps"),
        nx_list=_nx_ladder(opts, default_nx=40, default_levels=3),
        cfl=opts.get("cfl"),
        **_common_kwargs(opts),
    )


# --------------------------------------------------------------------------
# CSV output (UTF-8, header row, 17 significant digits)
# --------------------------------------------------------------------------
def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _meta(opts: dict, **extra) -> list[str]:
    items = {**opts, "rng_seed": "none", **extra}  # the solver is deterministic; no RNG
    lines = []
    for key in sorted(items):
        value = items[key]
        if isinstance(value, (list, tuple)):
            value = ",".join(_fmt(v) for v in value)
        lines.append(f"# {key}={_fmt(value)}")
    return lines


def _open_out(path):
    if path:
        return open(path, "w", encoding="utf-8", newline=""), True
    return sys.stdout, False


def _write_table(path, header, rows, meta_lines, failed: str | None = None):
    stream, close = _open_out(path)
    try:
        for line in meta_lines or ():
            stream.write(line + "\n")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        if failed:
            stream.write(f"# FAILED: {failed}\n")
    finally:
        if close:
            stream.close()


def _write_study(command: str, opts: dict, rows, failed: str | None = None):
    meta_lines = None
    if opts["seed_meta"]:
        extra = {"cfl_grid": _cfl_list(opts)} if command == "cfl-sweep" else {}
        meta_lines = _meta(opts, **extra)
    columns = _COLUMNS[command]
    cells = [[row[name.lower()] for name in columns] for row in rows]
    _write_table(opts.get("out"), columns, cells, meta_lines, failed)


def _write_run_csv(path, result: RunResult, seed_meta: bool, failed: str | None = None):
    meta_lines = None
    if seed_meta:
        meta_lines = [f"# {key}={_fmt(value)}" for key, value in sorted(result.meta.items())]
        meta_lines.append("# rng_seed=none")
    _write_table(path, _COLUMNS["run"], list(result.rows()), meta_lines, failed)


if __name__ == "__main__":
    sys.exit(main())
