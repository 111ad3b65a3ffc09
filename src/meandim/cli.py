"""Command-line interface and the end-to-end theorem verification workflow.

Every estimator is wrapped in a subcommand producing a JSON report
(schema 1); per-scale tables can additionally be dumped as CSV.  Exit
codes: 0 success, 2 verification failure, 1 error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time

from . import __version__
from .dimensions import (ActionSpec, MetricSpec, bowen_table, check_mmdim_start,
                         hausdorff_bracket_1d, m_schedule, mhdim_bounds,
                         minkowski_estimate_1d, mmdim_estimate, covering_number,
                         tame_growth_check, DEFAULT_M_SCHEDULE_1D)
from .errors import MeandimError
from .estimates import DimensionEstimate
from .files import parse_measure, parse_rects, parse_sft
from .information import (MeasureSpec, default_rdim_schedule, ks_entropy,
                          parry_measure, rdim_bounds)
from .lattice import (IntRect, LatticeSet, greedy_disjoint_subcover,
                      lambda_density, rect_triple)
from .subshift import (SftSpec, base_of_row_lift,
                       box_entropy_estimate, count_locally_admissible,
                       transfer_matrix_entropy_1d)

SCHEMA = 1


class CliError(MeandimError):
    """Command-line usage problem (unknown flag, missing value, ...)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); 2 is reserved
        raise CliError(message)


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
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def _action(text: str) -> ActionSpec:
    parts = _int_list(text)
    if len(parts) != 2:
        raise CliError(f"--action expects 'a,b', got {text!r}")
    return ActionSpec(parts[0], parts[1])


# flags several commands read; each command declares the ones it reads
_SHARED = {
    "--sft": dict(required=True, help="subshift file (.sft)"),
    "--measure": dict(help="measure file (.measure)"),
    "--alpha": dict(type=_finite_float, default=2.0),
    "--action": dict(type=_action, default=ActionSpec(1, 0),
                     help="shift direction a,b (default 1,0)"),
    "--M-schedule": dict(dest="M_schedule", type=_int_list,
                         help="comma-separated resolution depths"),
    "--N-factor": dict(dest="N_factor", type=_at_least_one, default=16),
}
_BOWEN = ("--alpha", "--action", "--M-schedule", "--N-factor")


def _action_values(argv) -> list[str]:
    """``argv`` with ``--action -3,2`` joined into ``--action=-3,2``:
    argparse takes a token that starts with '-' for a flag, so a negative
    first component would leave ``--action`` without its value."""
    out = []
    for token in argv:
        if out and out[-1] == "--action" and re.match(r"-[0-9]", token):
            out[-1] = f"--action={token}"
        else:
            out.append(token)
    return out


def _command_parser(name: str) -> _Parser:
    """The parser of one command: its flags from ``_COMMANDS``, then
    ``--out`` and ``--csv``, which every command takes."""
    help_line, handler, flags = _COMMANDS[name]
    p = _Parser(prog=f"meandim {name}", description=help_line)
    p.set_defaults(handler=handler)
    for flag in flags:
        flag, kwargs = (flag, _SHARED[flag]) if isinstance(flag, str) else flag
        p.add_argument(flag, **kwargs)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--csv", help="write per-scale tables as CSV")
    return p


def _top_parser() -> _Parser:
    """The parser for argv that names no command: it prints the version or
    the command list and exits 0, or refuses a missing or unknown command."""
    listing = "\n".join(f"  {name:<16}{help_line}"
                        for name, (help_line, _, _) in _COMMANDS.items())
    p = _Parser(prog="meandim", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter,
                epilog=f"commands:\n{listing}\n\n"
                       "'meandim COMMAND --help' lists a command's flags.")
    p.add_argument("--version", action="version", version=f"meandim {__version__}")
    p.add_argument("command", choices=_COMMANDS, metavar="command",
                   help="one of the commands below")
    return p


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _estimate_dict(est: DimensionEstimate | None) -> dict | None:
    if est is None:
        return None
    return {
        "value": est.value,
        "kind": est.kind,
        "schedule": [list(s) for s in est.schedule],
        "sequence": list(est.sequence),
        "model": est.model,
        "coefficients": list(est.coefficients),
    }


def _estimate_table(name: str, est: DimensionEstimate) -> dict:
    return {
        "columns": ["M", "value"],
        "rows": [[list(s)[0], v] for s, v in zip(est.schedule, est.sequence)],
        "name": name,
    }


def _write_csv(path: str, tables: dict) -> None:
    lines = ["table,key,value"]
    for name, tab in sorted(tables.items()):
        for row in tab["rows"]:
            lines.append(",".join([name] + [repr(x) if isinstance(x, float) else str(x)
                                            for x in row]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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

    Only the named command's parser is built.  Argv naming no command goes
    to the top-level parser, which handles ``--help`` and ``--version``.
    """
    started = time.perf_counter()
    try:
        if not argv or argv[0] not in _COMMANDS:
            _top_parser().parse_args(argv[:1])  # exits, or raises CliError
        args = _command_parser(argv[0]).parse_args(_action_values(argv[1:]))
        report = args.handler(args)
        code = report.pop("_exit_code", 0)
    except (MeandimError, ValueError, OSError) as exc:
        report = {"schema": SCHEMA, "command": argv[0] if argv else "",
                  "error": str(exc)}
        return 1, report
    report.setdefault("schema", SCHEMA)
    report["wall_time_s"] = time.perf_counter() - started
    if args.csv and report.get("tables"):
        _write_csv(args.csv, report["tables"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_report(report, fh)
        report["_written_to"] = args.out
    return code, report


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    code, report = run_command(argv)
    if "error" in report:
        print(f"meandim: error: {report['error']}", file=sys.stderr)
    written = report.pop("_written_to", None)
    if written:
        print(f"report written to {written}")
    else:
        _write_report(report, sys.stdout)
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
        "results": {"mmdim": _estimate_dict(est)},
        "tables": {"mmdim": _estimate_table("mmdim", est)},
    }


def _cmd_mhdim(args) -> dict:
    table = _bowen_table(args, _load_measure(args))
    lower, upper = mhdim_bounds(table)
    tables = {"mhdim_upper": _estimate_table("mhdim_upper", upper)}
    if lower is not None:
        tables["mhdim_lower"] = _estimate_table("mhdim_lower", lower)
    return {
        "command": "mhdim",
        "inputs": {"sft": args.sft, "measure": args.measure,
                   "alpha": args.alpha, "M_schedule": list(table.schedule),
                   "N_factor": args.N_factor},
        "results": {"mhdim_upper": _estimate_dict(upper),
                    "mhdim_lower": _estimate_dict(lower)},
        "tables": tables,
    }


def _cmd_rdim(args) -> dict:
    if not args.measure:
        raise CliError("rdim needs --measure")
    measure = parse_measure(args.measure)
    ks = args.M_schedule if args.M_schedule else list(range(8, 17))
    eps, deltas = default_rdim_schedule(args.alpha, ks, args.delta)
    lower, upper = rdim_bounds(measure, args.alpha, eps, deltas)
    bias = 2 * args.delta * math.log2(len(measure.alphabet)) / math.log2(args.alpha)
    return {
        "command": "rdim",
        "inputs": {"measure": args.measure, "alpha": args.alpha, "delta": args.delta,
                   "k_schedule": ks},
        "results": {"rdim_lower": _estimate_dict(lower),
                    "rdim_upper": _estimate_dict(upper),
                    "lower_delta_bias": bias,
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
    union_all = set()
    for r in rects:
        union_all.update(r.points())
    selected_cells = sum(rects[i].cardinality() for i in chosen)
    covered = all(any(rect_triple(rects[i]).contains(r) for i in chosen) for r in rects)
    return {
        "command": "cover-demo",
        "inputs": {"rects": args.rects, "count": len(rects)},
        "results": {
            "selected_indices": chosen,
            "selected_cells": selected_cells,
            "union_cells": len(union_all),
            "triple_cover_holds": covered,
            "one_ninth_holds": 9 * selected_cells >= len(union_all),
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


# ---------------------------------------------------------------------------
# verify-theorem
# ---------------------------------------------------------------------------


def _certified_entropy(sft: SftSpec) -> float:
    """Topological entropy of a certified fixture, in bits per site."""
    if sft.certified == "full":
        return math.log2(len(sft.alphabet))
    if sft.certified == "row-lift":
        return transfer_matrix_entropy_1d(base_of_row_lift(sft))
    if sft.certified == "three-dot":
        # Re-verify the boundary-determined count law on small boxes.
        for N in range(1, 5):
            c = count_locally_admissible(sft, LatticeSet.from_rect(IntRect(0, N - 1, 0, N - 1)))
            if c != 2 ** (2 * N - 1):
                raise MeandimError(
                    f"three-dot certificate failed its count re-check at N={N}")
        return 0.0
    raise MeandimError(f"no entropy formula for certificate {sft.certified!r}")


def verify_theorem(sft: SftSpec, measure: MeasureSpec | None, alpha: float,
                   Mschedule, Nfactor: int = 16, tolerance: float = 0.1,
                   delta: float = 0.01, strict: bool = False,
                   action: ActionSpec = ActionSpec()) -> dict:
    """Numerically check the dimension identities on one system.

    2D certified inputs: metric mean dimension and the mean-Hausdorff
    bracket against 2 h_top / log alpha, and (given a measure) the
    rate-distortion sandwich against 2 h_mu / log alpha.  1D inputs check
    the one-sided identity without the factor 2.  Lower bounds are
    required to stay below their target; they must also reach it when the
    measure is maximal (tightness is informational otherwise).
    """
    spec = MetricSpec(alpha)
    checks: list[dict] = []
    results: dict = {}
    tables: dict = {}

    def add(name, lhs, rhs, tol, two_sided=True):
        ok = (abs(lhs - rhs) <= tol) if two_sided else (lhs <= rhs + tol)
        checks.append({"name": name, "lhs": lhs, "rhs": rhs, "tolerance": tol,
                       "two_sided": two_sided, "ok": bool(ok)})

    if sft.dimension == 1:
        h = transfer_matrix_entropy_1d(sft)
        rhs = h / spec.log2_alpha
        sched = list(Mschedule) if Mschedule else list(DEFAULT_M_SCHEDULE_1D)
        est = minkowski_estimate_1d(sft, spec, sched)
        results["minkowski"] = _estimate_dict(est)
        tables["minkowski"] = _estimate_table("minkowski", est)
        add("minkowski_extrapolation", est.value, rhs, tolerance)
        if measure is None:  # the bracket is skipped when no Parry measure exists
            try:
                measure = parry_measure(sft)
            except ValueError as exc:
                results["hausdorff_bracket"] = {"skipped": str(exc)}
        if measure is not None:
            depth = max(sched)
            lo, up = hausdorff_bracket_1d(sft, measure, spec, depth)
            results["hausdorff_bracket"] = {"depth": depth, "lower": lo, "upper": up}
            add("hausdorff_upper_at_depth", up, rhs, tolerance)
            add("hausdorff_lower_at_depth", lo, rhs, tolerance)
        results["entropy_bits"] = h
        results["rhs"] = rhs
        verdict = "PASS" if all(c["ok"] for c in checks) else "FAIL"
        return {"verdict": verdict, "rhs": rhs, "checks": checks,
                "results": results, "tables": tables}

    certified = sft.certified is not None
    if not certified and strict:
        raise MeandimError(
            "input subshift carries no exactness certificate; refusing a "
            "PASS/FAIL verdict under --strict (drop --strict for bounds only)")

    skew = (action.a, action.b) != (1, 0)
    if skew and sft.certified not in ("full", "row-lift", "three-dot"):
        raise MeandimError(
            "skew-action verification is supported for full shifts, row-lifts and "
            "three-dot only: skew Bowen windows are not rectangles in general, and "
            "for forbidden patterns that span rows and are not linear they are "
            "counted by backtracking, which exceeds the search guards")

    rdim_wanted = certified and measure is not None and not skew
    if rdim_wanted:  # the k schedule is checked before any window is counted
        eps, deltas = default_rdim_schedule(alpha, range(8, 17), delta)
    check_mmdim_start(m_schedule(action, Mschedule or None))
    table = bowen_table(sft, measure, spec, action, Mschedule or None, Nfactor)
    mm = mmdim_estimate(table)
    lower, upper = mhdim_bounds(table)
    results["mmdim"] = _estimate_dict(mm)
    results["mhdim_upper"] = _estimate_dict(upper)
    results["mhdim_lower"] = _estimate_dict(lower)
    tables["mmdim"] = _estimate_table("mmdim", mm)
    tables["mhdim_upper"] = _estimate_table("mhdim_upper", upper)

    if not certified:
        return {"verdict": "BOUNDS-ONLY", "rhs": None, "checks": [],
                "results": results, "tables": tables,
                "note": "no exactness certificate: values are bounds, not estimates"}

    h_top = _certified_entropy(sft)
    # the dimension of the rank-one subaction along (a, b) carries the
    # window-density factor 2(|a|+|b|); the horizontal action gives 2
    factor = 2 * (abs(action.a) + abs(action.b))
    rhs = factor * h_top / spec.log2_alpha
    results["entropy_bits"] = h_top
    results["rhs"] = rhs
    results["action_factor"] = factor
    add("mmdim_extrapolation", mm.value, rhs, tolerance)
    add("mhdim_upper_extrapolation", upper.value, rhs, tolerance)
    h_mu = ks_entropy(measure) if measure is not None else None
    maximal = h_mu is not None and abs(h_mu - h_top) <= 1e-6
    if lower is not None:
        add("mhdim_lower_consistent", lower.value, rhs, tolerance, two_sided=maximal)

    if skew and measure is not None:
        results["rdim_skipped"] = "rate-distortion dimension is computed for the horizontal action only"
    if rdim_wanted:
        rlo, rup = rdim_bounds(measure, alpha, eps, deltas)
        rhs_mu = 2 * h_mu / spec.log2_alpha
        bias = 2 * delta * math.log2(len(measure.alphabet)) / spec.log2_alpha
        results["rdim_lower"] = _estimate_dict(rlo)
        results["rdim_upper"] = _estimate_dict(rup)
        results["rhs_measure"] = rhs_mu
        results["rdim_lower_delta_bias"] = bias
        results["ks_entropy_bits"] = h_mu
        tables["rdim"] = {"columns": ["eps", "lower", "upper"],
                          "rows": [[s[0], lo, up] for s, lo, up in
                                   zip(rup.schedule, rlo.sequence, rup.sequence)]}
        add("rdim_upper_extrapolation", rup.value, rhs_mu, tolerance)
        add("rdim_lower_extrapolation", rlo.value + bias, rhs_mu, tolerance + bias)
        for i, (lo, up) in enumerate(zip(rlo.sequence, rup.sequence)):
            if not (lo <= rhs_mu + 1e-9 and up >= rhs_mu - 1e-9):
                add(f"rdim_sandwich_scale_{i}", lo, rhs_mu, 0.0)
                break

    verdict = "PASS" if all(c["ok"] for c in checks) else "FAIL"
    return {"verdict": verdict, "rhs": rhs, "checks": checks,
            "results": results, "tables": tables}


def _cmd_verify(args) -> dict:
    sft = parse_sft(args.sft)
    measure = _load_measure(args)
    body = verify_theorem(sft, measure, args.alpha, args.M_schedule, args.N_factor,
                          args.tolerance, args.delta, args.strict, args.action)
    report = {
        "command": "verify-theorem",
        "inputs": {"sft": args.sft, "measure": args.measure,
                   "alpha": args.alpha, "tolerance": args.tolerance,
                   "N_factor": args.N_factor, "delta": args.delta,
                   "strict": args.strict},
        **body,
    }
    if body["verdict"] == "FAIL":
        report["_exit_code"] = 2
    return report


# each command: its help line, its handler and the flags it reads besides
# --out and --csv (a name from _SHARED, or the flag with its argparse keywords)
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
