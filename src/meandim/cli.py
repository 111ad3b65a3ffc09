"""Command-line interface: one subcommand per estimator and verify-theorem.

Every estimator is wrapped in a subcommand producing a JSON report
(schema 1); per-scale tables can additionally be dumped as CSV.  Exit
codes: 0 success, 2 verification failure, 1 error.
"""

from __future__ import annotations

import errno
import json
import math
import os
import stat
import sys
import time

from . import __version__
from .dimensions import (ActionSpec, MetricSpec, bowen_table, check_mmdim_start, m_schedule,
                         mhdim_bounds, mmdim_estimate, covering_number, tame_growth_check,
                         verify_theorem)
from .errors import CliError, MeandimError
from .estimates import estimate_dict, estimate_table
from .files import parse_measure, parse_rects, parse_sft
from .flags import is_flag, read_flags, resolve
from .information import (MeasureSpec, default_rdim_schedule, ks_entropy, rdim_bounds,
                          rdim_delta_bias)
from .lattice import (IntRect, greedy_disjoint_subcover, lambda_density, rect_triple,
                      union_cells)
from .subshift import (base_of_row_lift, box_entropy_estimate, count_locally_admissible,
                       transfer_matrix_entropy_1d)

SCHEMA = 1


def _int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise CliError(f"expected a comma-separated integer list, got {text!r}")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise CliError(f"expected a finite number, got {text!r}")
    return value


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise CliError(f"expected an integer of at least 1, got {text!r}")
    return value


def _action(text: str) -> ActionSpec:
    parts = _int_list(text)
    if len(parts) != 2:
        raise CliError(f"expected 'a,b', got {text!r}")
    return ActionSpec(parts[0], parts[1])


# flags several commands read; each command declares the ones it reads
# (a flag's keywords are described in meandim.flags)
_SHARED = {
    "--sft": dict(required=True, help="subshift file (.sft)"),
    "--measure": dict(help="measure file (.measure)"),
    "--alpha": dict(type=_finite_float, default=2.0),
    "--action": dict(type=_action, default=ActionSpec(1, 0),
                     help="shift direction a,b (default 1,0)"),
    "--M-schedule": dict(type=_int_list, help="comma-separated resolution depths"),
    "--N-factor": dict(type=_at_least_one, default=16),
}
_BOWEN = ("--alpha", "--action", "--M-schedule", "--N-factor")
# every command takes these besides its own flags
_OUTPUTS = (("--out", dict(help="write the JSON report here instead of stdout")),
            ("--csv", dict(help="write per-scale tables as CSV")))


def _read_flags(name: str, argv):
    """``argv`` read against the flags of command ``name``: its own from
    ``_COMMANDS``, then --out and --csv."""
    help_line, _, own = _COMMANDS[name]
    flags = dict((flag, _SHARED[flag]) if isinstance(flag, str) else flag
                 for flag in own + _OUTPUTS)
    return read_flags(f"meandim {name}", help_line, flags, argv)


def _no_command(word: str | None) -> None:
    """Argv whose first word ``word`` names no command: print the command
    list or the version and exit 0, or refuse a missing or unknown command."""
    if word is not None and not is_flag(word):
        raise CliError(f"argument command: invalid choice: {word!r} "
                       f"(choose from {', '.join(map(repr, _COMMANDS))})")
    flag = resolve(("--help", "--version"), word) if word not in (None, "--") else None
    if flag == ("--help", None):
        listing = "".join(f"\n  {name:<16}{help_line}"
                          for name, (help_line, _, _) in _COMMANDS.items())
        print(f"usage: meandim [-h] [--version] command [flags]\n\n{__doc__.strip()}\n\n"
              f"commands:{listing}\n\n'meandim COMMAND --help' lists a command's flags.",
              flush=True)
        raise SystemExit(0)
    if flag == ("--version", None):
        print(f"meandim {__version__}", flush=True)
        raise SystemExit(0)
    raise CliError("the following arguments are required: command")


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _write_csv(path: str, tables: dict) -> None:
    lines = ["table,key,value"]
    for name, tab in sorted(tables.items()):
        for row in tab["rows"]:
            lines.append(",".join([name] + [repr(x) if isinstance(x, float) else str(x)
                                            for x in row]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _check_writable(path: str) -> None:
    """Raise the error that ``open(path, "w")`` gives for a folder at
    ``path``, or for a folder to hold it that is missing or read-only,
    without creating or truncating a file."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    else:
        try:
            is_folder = stat.S_ISDIR(os.stat(folder).st_mode)
        except OSError as exc:
            code = exc.errno
        else:
            if not is_folder:
                code = errno.ENOTDIR
            elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
                code = errno.EACCES
            else:
                return
    raise OSError(code, os.strerror(code), path)


def _write_report(report: dict, fh) -> None:
    """Write a report as indented JSON.  Exact counts can exceed Python's
    int-to-str digit limit, so the limit is lifted for the encoding only."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        text = json.dumps(report, sort_keys=True, indent=2)
    else:
        limit = get_limit()
        sys.set_int_max_str_digits(0)
        try:
            text = json.dumps(report, sort_keys=True, indent=2)
        finally:
            sys.set_int_max_str_digits(limit)
    fh.write(text + "\n")


def run_command(argv) -> tuple[int, dict]:
    """Run one subcommand; returns (exit code, JSON-ready report).

    Only the named command's flags are read.  Argv naming no command goes
    to ``_no_command``, which handles ``--help`` and ``--version``.  A
    refusal, or a --csv or --out file that cannot be written, gives exit
    code 1 and a report holding the error; both files are checked before
    the command runs.
    """
    started = time.perf_counter()
    try:
        if not argv or argv[0] not in _COMMANDS:
            _no_command(argv[0] if argv else None)  # exits, or raises CliError
        args = _read_flags(argv[0], argv[1:])
        for path in (args.csv, args.out):
            if path:
                _check_writable(path)
        report = _COMMANDS[argv[0]][1](args)
        code = report.pop("_exit_code", 0)
        report.setdefault("schema", SCHEMA)
        report["wall_time_s"] = time.perf_counter() - started
        if args.csv and report.get("tables"):
            _write_csv(args.csv, report["tables"])
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                _write_report(report, fh)
            report["_written_to"] = args.out
    except (MeandimError, ValueError, OSError) as exc:
        report = {"schema": SCHEMA, "command": argv[0] if argv else "",
                  "error": str(exc)}
        return 1, report
    return code, report


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    code, report = run_command(argv)
    if "error" in report:
        print(f"meandim: error: {report['error']}", file=sys.stderr)
    written = report.pop("_written_to", None)
    try:
        if written:
            print(f"report written to {written}")
        else:
            _write_report(report, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError as exc:  # the reader has gone: flush to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if "error" not in report:
            print(f"meandim: error: {exc}", file=sys.stderr)
        return 1
    return code


def _load_measure(args) -> MeasureSpec | None:
    return parse_measure(args.measure) if args.measure else None


def _bowen_table(args, measure: MeasureSpec | None = None):
    return bowen_table(parse_sft(args.sft), measure, MetricSpec(args.alpha), args.action,
                       args.M_schedule or None, args.N_factor)


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def _cmd_count(args) -> dict:
    sft = parse_sft(args.sft)
    chosen = [x for x in (args.box, args.rect, args.length) if x is not None]
    if len(chosen) != 1:
        raise CliError("count needs exactly one of --box, --rect, --length")
    if args.length is not None:
        if sft.dimension != 1:
            raise CliError("--length applies to 1D subshifts")
        if args.length < 1:
            raise CliError("--length must be positive")
        support = IntRect(0, args.length - 1, 0, 0)
        desc = f"[0,{args.length})x{{0}}"
    elif args.box is not None:
        if args.box < 1:
            raise CliError("--box must be positive")
        support = IntRect(0, args.box - 1, 0, args.box - 1)
        desc = f"[0,{args.box - 1}]^2"
    else:
        if len(args.rect) != 4:
            raise CliError("--rect expects a,b,c,d")
        support = IntRect(*args.rect)
        desc = f"[{args.rect[0]},{args.rect[1]}]x[{args.rect[2]},{args.rect[3]}]"
    c = count_locally_admissible(sft, support, algorithm=args.algorithm)
    return {
        "command": "count",
        "inputs": {"sft": args.sft, "support": desc, "algorithm": args.algorithm},
        "results": {"count": c, "log2_count": math.log2(c) if c else None,
                    "cells": support.cardinality()},
    }


def _cmd_entropy(args) -> dict:
    sft = parse_sft(args.sft)
    inputs = {"sft": args.sft, "mode": args.mode}
    if args.mode == "transfer":
        base = sft if sft.dimension == 1 else base_of_row_lift(sft)
        h = transfer_matrix_entropy_1d(base)
        return {"command": "entropy", "inputs": inputs,
                "results": {"entropy_bits": h}}
    table = box_entropy_estimate(sft, args.Nmax)
    return {
        "command": "entropy", "inputs": {**inputs, "Nmax": args.Nmax},
        "results": {"entropy_bits_upper": min(v for _, v in table),
                    "sequence": [v for _, v in table]},
        "tables": {"box": {"columns": ["N", "log2_count_per_cell"],
                           "rows": [[N, v] for N, v in table]}},
    }


def _cmd_covering(args) -> dict:
    sft = parse_sft(args.sft)
    spec = MetricSpec(args.alpha)
    c = covering_number(sft, spec, args.action, args.N, args.eps)
    return {
        "command": "covering",
        "inputs": {"sft": args.sft, "alpha": args.alpha, "N": args.N, "eps": args.eps,
                   "action": [args.action.a, args.action.b]},
        "results": {"covering_number": c,
                    "log2": math.log2(c) if c else None,
                    "exact": bool(sft.certified)},
    }


def _cmd_mmdim(args) -> dict:
    check_mmdim_start(m_schedule(args.action, args.M_schedule or None))
    table = _bowen_table(args)
    est = mmdim_estimate(table)
    return {
        "command": "mmdim",
        "inputs": {"sft": args.sft, "alpha": args.alpha, "M_schedule": list(table.schedule),
                   "N_factor": args.N_factor, "action": [args.action.a, args.action.b]},
        "results": {"mmdim": estimate_dict(est)},
        "tables": {"mmdim": estimate_table("mmdim", est)},
    }


def _cmd_mhdim(args) -> dict:
    table = _bowen_table(args, _load_measure(args))
    lower, upper = mhdim_bounds(table)
    tables = {"mhdim_upper": estimate_table("mhdim_upper", upper)}
    if lower is not None:
        tables["mhdim_lower"] = estimate_table("mhdim_lower", lower)
    return {
        "command": "mhdim",
        "inputs": {"sft": args.sft, "measure": args.measure,
                   "alpha": args.alpha, "M_schedule": list(table.schedule),
                   "N_factor": args.N_factor, "action": [args.action.a, args.action.b]},
        "results": {"mhdim_upper": estimate_dict(upper),
                    "mhdim_lower": estimate_dict(lower)},
        "tables": tables,
    }


def _cmd_rdim(args) -> dict:
    if not args.measure:
        raise CliError("rdim needs --measure")
    measure = parse_measure(args.measure)
    ks = args.M_schedule if args.M_schedule else list(range(8, 17))
    eps, deltas = default_rdim_schedule(args.alpha, ks, args.delta)
    lower, upper = rdim_bounds(measure, args.alpha, eps, deltas)
    return {
        "command": "rdim",
        "inputs": {"measure": args.measure, "alpha": args.alpha, "delta": args.delta,
                   "k_schedule": ks},
        "results": {"rdim_lower": estimate_dict(lower),
                    "rdim_upper": estimate_dict(upper),
                    "lower_delta_bias": rdim_delta_bias(measure, args.alpha, args.delta),
                    "ks_entropy_bits": ks_entropy(measure)},
        "tables": {"rdim": {"columns": ["k", "lower", "upper"],
                            "rows": [[k, lo, up] for k, lo, up in
                                     zip(ks, lower.sequence, upper.sequence)]}},
    }


def _cmd_lambda_density(args) -> dict:
    val = lambda_density(args.a, args.b, args.M, args.N)
    limit = 2 * (abs(args.a) + abs(args.b))
    return {
        "command": "lambda-density",
        "inputs": {"a": args.a, "b": args.b, "M": args.M, "N": args.N},
        "results": {"density": val, "limit": limit,
                    "relative_error": abs(val - limit) / limit},
    }


def _cmd_cover_demo(args) -> dict:
    rects = parse_rects(args.rects)
    chosen = greedy_disjoint_subcover(rects)
    union = union_cells(rects)
    selected_cells = sum(rects[i].cardinality() for i in chosen)
    covered = all(any(rect_triple(rects[i]).contains(r) for i in chosen) for r in rects)
    return {
        "command": "cover-demo",
        "inputs": {"rects": args.rects, "count": len(rects)},
        "results": {
            "selected_indices": chosen,
            "selected_cells": selected_cells,
            "union_cells": union,
            "triple_cover_holds": covered,
            "one_ninth_holds": 9 * selected_cells >= union,
        },
    }


def _cmd_tame_check(args) -> dict:
    sft = parse_sft(args.sft)
    spec = MetricSpec(args.alpha)
    res = tame_growth_check(sft, spec, args.delta, args.Mmax)
    return {
        "command": "tame-check",
        "inputs": {"sft": args.sft, "alpha": args.alpha, "delta": args.delta,
                   "Mmax": args.Mmax},
        "results": {"verdict": res.verdict},
        "tables": {"tame": {"columns": ["M", "eps_delta_log2_count"],
                            "rows": [[M, v] for M, v in res.table]}},
    }


def _cmd_verify(args) -> dict:
    body = verify_theorem(parse_sft(args.sft), _load_measure(args), args.alpha,
                          args.M_schedule, args.N_factor, args.tolerance, args.delta,
                          args.strict, args.action)
    report = {
        "command": "verify-theorem",
        "inputs": {"sft": args.sft, "measure": args.measure,
                   "alpha": args.alpha, "tolerance": args.tolerance,
                   "N_factor": args.N_factor, "delta": args.delta,
                   "strict": args.strict, "action": [args.action.a, args.action.b]},
        **body,
    }
    if body["verdict"] == "FAIL":
        report["_exit_code"] = 2
    return report


# each command: its help line, its handler and the flags it reads besides
# --out and --csv (a name from _SHARED, or the flag with its keywords)
_COMMANDS = {
    "count": ("pattern count on a finite support", _cmd_count, (
        "--sft",
        ("--box", dict(type=int, help="count on the N x N box at the origin")),
        ("--rect", dict(type=_int_list, help="count on [a,b]x[c,d] as a,b,c,d")),
        ("--length", dict(type=int, help="1D: count words of this length")),
        ("--algorithm", dict(choices=("auto", "backtracking"), default="auto")))),
    "entropy": ("topological entropy (transfer or box mode)", _cmd_entropy, (
        "--sft",
        ("--mode", dict(choices=("transfer", "box"), default="transfer")),
        ("--Nmax", dict(type=int, default=5, help="box mode: largest box side")))),
    "covering": ("covering number of the N-step Bowen metric", _cmd_covering, (
        "--sft", "--alpha", "--action",
        ("--N", dict(type=int, required=True)),
        ("--eps", dict(type=_finite_float, required=True)))),
    "mmdim": ("metric mean dimension estimate", _cmd_mmdim, ("--sft", *_BOWEN)),
    "mhdim": ("mean Hausdorff dimension bounds", _cmd_mhdim,
              ("--sft", "--measure", *_BOWEN)),
    "rdim": ("rate-distortion dimension sandwich", _cmd_rdim, (
        "--measure", "--alpha", "--M-schedule",
        ("--delta", dict(type=_finite_float, default=0.01,
                         help="disagreement budget of the lower bound (default 0.01)")))),
    "lambda-density": ("density of the swept window set", _cmd_lambda_density, (
        ("--a", dict(type=int, required=True)),
        ("--b", dict(type=int, required=True)),
        ("--M", dict(type=int, required=True)),
        ("--N", dict(type=int, required=True)))),
    "cover-demo": ("greedy disjoint subcover of a rectangle file", _cmd_cover_demo, (
        ("--rects", dict(required=True, help="file with one 'a b c d' per line")),)),
    "tame-check": ("tame-growth diagnostic of the static metric", _cmd_tame_check, (
        "--sft", "--alpha",
        ("--delta", dict(type=_finite_float, default=0.1)),
        ("--Mmax", dict(type=int, default=24)))),
    "verify-theorem": ("check the dimension identities on a certified fixture",
                       _cmd_verify, (
        "--sft", "--measure", *_BOWEN,
        ("--tolerance", dict(type=_finite_float, default=0.1)),
        ("--delta", dict(type=_finite_float, default=0.01)),
        ("--strict", dict(action="store_true",
                          help="refuse a PASS/FAIL verdict for non-certified inputs")))),
}


if __name__ == "__main__":
    raise SystemExit(main())
