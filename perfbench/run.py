"""meandim benchmark: three closed-loop workloads, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-2d --seed 1 --seconds 30 --trace 0

One client runs one child process at a time and starts the next op only
after the previous one finished.  Every CLI op runs in a fresh interpreter
through ``meandim.cli.run_command`` and the child JSON-encodes the report
as ``main()`` does; library ops on one problem share a child.  Children
import meandim from ``src/`` with MEANDIM_BACKEND and MEANDIM_WORKERS
unset, so the default configuration is measured.

``--trace 0`` repeats whole passes over the workload's ops until
``--seconds`` have passed (at least MIN_PASSES) and reports, with tracing
off:

    wall_s       median over passes of the summed op compute time
                 (interpreter start excluded)
    setup_s      median over children of launch -> meandim imported and
                 input files parsed
    peak_rss_mb  largest peak RSS of any child

``--trace 1`` runs one untraced and two traced passes on the same inputs,
checks that every layer the workload should reach was reached and that all
counters repeat exactly, and reports the per-layer metrics of tracer.py
plus ``trace.overhead_share``.

Every op's result is checked (see workloads.py).  Before the final line
the harness prints every metric with its unit, including ``ops_failed``
over ``ops_total`` and ``ref_err_max``; the final line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed``
counts ops whose outcome differs from the expected one; known failures
recorded in expected.json count in ``ops_failed`` only.  The exit code is
1 when an op fails unexpectedly (raises, exits with the wrong code, crashes
or times out its child), a result is wrong or a trace check fails, and 2
when the repository is missing.  A pass in which a child crashed or timed
out ends the run and reports no ``wall_s``.  A record with the
environment, every op outcome and, when traced, every span is written to
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150

def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MEANDIM_BACKEND", None)
    env.pop("MEANDIM_WORKERS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        commit = out.stdout.strip() or None
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "git_commit": commit,
        "seed": seed,
        "meandim_env": {k: v for k, v in os.environ.items() if k.startswith("MEANDIM_")},
        "child_env_unset": ["MEANDIM_BACKEND", "MEANDIM_WORKERS"],
    }


def run_child(spec: dict, tmp: Path, env: dict) -> tuple[dict, float]:
    """Run one child to completion; returns (its report, set-up seconds)."""
    spec_path = tmp / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    launch = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return _crashed(spec, f"child timed out after {CHILD_TIMEOUT_S} s"), 0.0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return _crashed(spec, f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"), 0.0
    try:
        out = json.loads(lines[-1])
    except ValueError:
        return _crashed(spec, f"child printed no result: {lines[-1][:200]}"), 0.0
    return out, out["ready"] - launch


def _crashed(spec: dict, msg: str) -> dict:
    """Every op of a child that did not finish, with no compute time."""
    return {"rss_kb": 0, "ops": [{"id": op["id"], "compute_s": None, "error": msg,
                                  "crashed": True} for op in spec["ops"]]}


def metric_units(section: str) -> dict:
    """Metric name -> unit of one BENCHMARK.json section."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def run_pass(workload, seed: int, pass_idx: int, tmp: Path, env: dict, trace: bool) -> dict:
    from tracer import merge_counters
    from workloads import check

    children, generated = workload(seed, pass_idx, tmp)
    res = {"compute_s": 0.0, "complete": True, "setup_s": [], "rss_kb": 0, "ops": [],
           "spans": [], "counters": {}}
    for spec in children:
        spec["trace"] = trace
        out, setup = run_child(spec, tmp, env)
        if setup:
            res["setup_s"].append(setup)
        res["rss_kb"] = max(res["rss_kb"], out["rss_kb"])
        for rec in out["ops"]:
            status, err, detail = check(rec, generated)
            if rec["compute_s"] is None:
                res["complete"] = False
            else:
                res["compute_s"] += rec["compute_s"]
            res["ops"].append({"id": rec["id"], "pass": pass_idx, "compute_s": rec["compute_s"],
                               "status": status, "ref_err": err, "detail": detail})
        if trace:  # parent indices are local to the child's span list
            base = len(res["spans"])
            res["spans"].extend([name, t0, t1, parent + base if parent >= 0 else -1, op]
                                for name, t0, t1, parent, op in out.get("spans", []))
            merge_counters(res["counters"], out.get("counters", {}))
    return res


def summarize_ops(passes) -> dict:
    ops = [op for p in passes for op in p["ops"]]
    errs = [op["ref_err"] for op in ops if op["ref_err"] is not None]
    by = {s: sum(op["status"] == s for op in ops)
          for s in ("ok", "known-failure", "failed", "mismatch")}
    return {"ops_total": len(ops), "ops_failed": len(ops) - by["ok"],
            "unexpected": by["failed"] + by["mismatch"], "mismatch": by["mismatch"],
            "ref_err_max": max(errs) if errs else None,
            "problems": sorted({f"{op['id']} [{op['status']}] {op['detail']}"
                                for op in ops if op["status"] != "ok"})}


def trace_checks(name: str, traced, untraced_wall: float) -> tuple[dict, list[str]]:
    from tracer import COUNTERS, WRAPPED, layer_metrics
    from workloads import EXPECTED_FIRED

    problems = []
    unassigned = WRAPPED - set().union(*EXPECTED_FIRED.values())
    if unassigned:
        problems.append(f"traced names no workload is expected to reach: {sorted(unassigned)}")
    fired = {s[0] for s in traced[0]["spans"]}
    missed = sorted(EXPECTED_FIRED[name] - fired)
    if missed:
        problems.append(f"traced names never reached: {', '.join(missed)}")
    if traced[0]["counters"] != traced[1]["counters"]:
        diff = sorted(k for k in set(traced[0]["counters"]) | set(traced[1]["counters"])
                      if traced[0]["counters"].get(k) != traced[1]["counters"].get(k))
        problems.append(f"counters differ between two traced passes: {', '.join(diff)}")
    per = [layer_metrics(p["spans"], p["counters"]) for p in traced]
    # counters repeat exactly; times take the median of the traced passes
    metrics = {k: v if k in COUNTERS else statistics.median(m[k] for m in per)
               for k, v in per[0].items()}
    # traced wall over untraced wall minus one; noise can make it negative
    traced_wall = statistics.median(p["compute_s"] for p in traced)
    metrics["trace.overhead_share"] = traced_wall / untraced_wall - 1
    return metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "meandim" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        _fail(f"no meandim source tree at {ROOT}; run from a checkout of the repository")
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    sys.set_int_max_str_digits(0)  # checked reports may hold very long counts
    workload = WORKLOADS[args.workload]
    env = child_env()
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed)}
    (ROOT / ".perfbench").mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(prefix="tmp-", dir=ROOT / ".perfbench") as tmp_name:
        tmp = Path(tmp_name)
        run_child({"parse": [], "ops": [], "trace": False}, tmp, env)  # warm bytecode caches
        passes = []
        if args.trace:
            passes = [run_pass(workload, args.seed, 0, tmp, env, trace)
                      for trace in (False, True, True)]
        else:
            start = time.perf_counter()
            while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
                passes.append(run_pass(workload, args.seed, len(passes), tmp, env, False))
                if not passes[-1]["complete"]:
                    break

    summary = summarize_ops(passes)
    problems = list(summary["problems"])
    harness_ok = True
    if args.trace:
        metrics, trace_problems = trace_checks(args.workload, passes[1:], passes[0]["compute_s"])
        harness_ok = not trace_problems
        problems += trace_problems
        units = metric_units("per_layer")
        record["spans"] = [p["spans"] for p in passes[1:]]
    else:
        setups = [s for p in passes for s in p["setup_s"]]
        if not setups:
            _fail("no child process ran to completion: " + "; ".join(problems)[:800])
        metrics = {"setup_s": statistics.median(setups),
                   "peak_rss_mb": max(p["rss_kb"] for p in passes) / 1024}
        if all(p["complete"] for p in passes):
            metrics["wall_s"] = statistics.median(p["compute_s"] for p in passes)
        units = metric_units("end_to_end")
    if set(metrics) != set(units):
        harness_ok = False
        problems.append(f"metrics differ from BENCHMARK.json: reported only "
                        f"{sorted(set(metrics) - set(units))}, listed only "
                        f"{sorted(set(units) - set(metrics))}")
    correct = summary["unexpected"] == 0 and harness_ok

    record.update({"passes": len(passes), "pass_compute_s": [p["compute_s"] for p in passes],
                   "complete": all(p["complete"] for p in passes),
                   "summary": summary, "metrics": metrics,
                   "ops": [op for p in passes for op in p["ops"]]})
    out_path = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for problem in problems:
        print(f"# {problem}")
    print(f"# environment {json.dumps(record['environment'])}")
    print(f"# workload {args.workload}, record {out_path.relative_to(ROOT)}")
    for k, v in metrics.items():
        print(f"{k:40s} {v:.6g} {units.get(k, '?')}")
    ref = summary["ref_err_max"]
    for k, v, unit in (("passes", len(passes), "count"),
                       ("ops_total", summary["ops_total"], "count"),
                       ("ops_failed", summary["ops_failed"], "count"),
                       ("ref_err_max", "n/a" if ref is None else f"{ref:.3e}", "1")):
        print(f"{k:40s} {v} {unit}")
    print(json.dumps({"correct": correct, "attempted": summary["ops_total"],
                      "failed": summary["unexpected"],
                      "metrics": {k: {"value": v, "unit": units.get(k, "?")}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
