"""One benchmark child process: import meandim, parse inputs, run ops.

Usage: python3 child.py SPEC_JSON

SPEC_JSON names the files to parse during set-up, the ops to run and
whether to trace.  The child reports ``time.monotonic()`` once meandim is
imported and its inputs are parsed; on Linux that clock is
CLOCK_MONOTONIC, shared by all processes, so the parent subtracts its own
reading taken just before the launch to get the set-up time.

The last line of standard output is one JSON object with the set-up
timestamp, peak RSS, per-op outcomes and, when traced, spans and counters.
"""

import json
import resource
import sys
import time


def _summary_problem(problem):
    import numpy as np

    p = problem.source.prob_array()
    nz = p[p > 0]
    return {"outcomes": len(p), "source_entropy_bits": float(-(nz * np.log2(nz)).sum()),
            "distortion_sum": float(problem.distortion_array().sum())}


def _run_op(op, state, md, tracer):
    """Run one op; returns (result, exit_code).  Only the call and, for
    CLI ops, the JSON encoding are inside the caller's timed region."""
    kind = op["kind"]
    if kind == "cli":
        code, report = md.cli.run_command(op["argv"])
        idx = tracer.start("encode") if tracer else None
        try:
            text = json.dumps(report, sort_keys=True, indent=2)
        except ValueError as exc:
            raise ValueError(f"report cannot be JSON-encoded: {exc}") from None
        finally:
            if tracer:
                tracer.end(idx)
        return text, code
    if kind == "rd_problem":
        state["problem"] = md.rd_problem_from_measure(state["measure"], op["alpha"], M=op["M"])
        return state["problem"], 0
    if kind == "ba":
        pt = md.blahut_arimoto(state["problem"], op["slope"])
        return {"rate": pt.rate, "distortion": pt.distortion, "iterations": pt.iterations}, 0
    if kind == "hamming":
        pts = md.rd_curve(md.binary_hamming_problem(state["p0"]), state["slopes"])
        return [[pt.rate, pt.distortion] for pt in pts], 0
    raise ValueError(f"unknown op kind {kind!r}")


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    import meandim as md
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    state = {}
    parsers = {"sft": md.files.parse_sft, "measure": md.files.parse_measure,
               "rects": md.files.parse_rects}
    for kind, path in spec["parse"]:
        parsers[kind](path)
    if "measure" in spec:
        state["measure"] = md.files.parse_measure(spec["measure"])
    if "hamming" in spec:
        with open(spec["hamming"], encoding="utf-8") as fh:
            data = json.load(fh)
        state["p0"], state["slopes"] = data["p0"], data["slopes"]
    ready = time.monotonic()

    ops = []
    for op in spec["ops"]:
        rec = {"id": op["id"]}
        if tracer:
            tracer.op = op["id"]
            root = tracer.start("op")
        t0 = time.perf_counter()
        try:
            result, code = _run_op(op, state, md, tracer)
            rec["compute_s"] = time.perf_counter() - t0
            rec["exit_code"] = code
            if op["kind"] == "rd_problem":
                result = _summary_problem(result)
            rec["result"] = result
        except Exception as exc:  # every failure of an op is recorded, not fatal
            rec["compute_s"] = time.perf_counter() - t0
            rec["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.end(root)
        ops.append(rec)

    out = {"ready": ready,
           "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "ops": ops}
    if tracer:
        out["spans"] = tracer.spans
        out["counters"] = tracer.counters
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
