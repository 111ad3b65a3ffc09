"""The golden report corpus: one recorded run per argv under ``golden/``.

Each file holds a CLI run's argv, exit code, stderr and report (its JSON
stdout without ``wall_time_s``, or, for ``--help`` and ``--version``,
the text printed).  ``test_golden.py`` reruns every argv in process and
compares exit codes, ints, strings and booleans exactly and floats to a
relative ``FLOAT_RTOL``.  The argv are the README's CLI commands, the
benchmark's fixture commands and the guards and refusals of the CLI.

Regenerate the corpus from the repository root with

    python3 tests/golden.py

and name in CHANGES.md every field a change alters, with the reason.
Rerun the corpus through the installed ``meandim`` script, one
subprocess per argv, with

    python3 -c 'import sys; sys.path.insert(0, "tests"); import golden; sys.exit(golden.check_script())'
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
FLOAT_RTOL = 1e-12

ARGV = [shlex.split(line) for line in """
    verify-theorem --sft fixtures/fullshift2.sft --measure fixtures/bern12.measure --alpha 2 --tolerance 0.1
    verify-theorem --sft fixtures/goldenrow.sft --measure fixtures/parry_golden.measure --alpha 2
    verify-theorem --sft fixtures/goldenmean1d.sft --alpha 2
    verify-theorem --sft fixtures/goldenmean1d.sft --alpha 2 --action 3,0
    verify-theorem --sft fixtures/goldenmean1d.sft --alpha 2 --M-schedule 4,2000000
    verify-theorem --sft fixtures/goldenmean1d.sft --measure fixtures/bern12.measure --alpha 2
    verify-theorem --sft fixtures/fullshift2.sft --alpha 2 --action 4,1
    verify-theorem --sft fixtures/goldenrow.sft --alpha 2 --action 4,1
    verify-theorem --sft fixtures/goldenrow.sft --measure fixtures/parry_golden.measure --action 1,1
    verify-theorem --sft fixtures/threedot.sft --alpha 2 --action 1,1
    verify-theorem --sft fixtures/goldenrow.sft --alpha 2 --action 1,1
    verify-theorem --sft fixtures/threedot.sft --alpha 2 --action 7,5
    verify-theorem --sft fixtures/threedot.sft --alpha 2 --action -3,2
    verify-theorem --sft fixtures/threedot.sft --alpha 2 --action=-3,2
    verify-theorem --help
    count --sft fixtures/threedot.sft --box 4
    count --sft fixtures/threedot.sft --box 7 --algorithm backtracking
    count --sft fixtures/threedot.sft --rect -3,2,0,1
    count --sft fixtures/threedot.sft --rect=-3,2,0,1
    count --sft fixtures/goldenrow.sft --rect 0,10000000000000000000,0,1
    count --sft fixtures/threedot.sft --box
    count --sft fixtures/threedot.sft --box 0
    count --sft fixtures/goldenmean1d.sft --length 0
    entropy --sft fixtures/goldenrow.sft --mode transfer
    entropy --sft fixtures/threedot.sft --mode box --Nmax 5
    covering --sft fixtures/fullshift2.sft --N 1 --eps 0.5
    covering --sft fixtures/threedot.sft --N 100000 --eps 0.3
    covering --sft fixtures/goldenrow.sft --N 300000 --eps 0.3
    covering --sft fixtures/fullshift2.sft --action 1,1 --N 200000 --eps 0.5
    covering --sft fixtures/threedot.sft --action 1,1 --N 1600 --eps 2.5e-5
    covering --help
    mmdim --sft fixtures/goldenrow.sft --alpha 2 --M-schedule 2,3,4,5,6
    mmdim --sft fixtures/goldenrow.sft --csv /nonexistent/dir/x.csv
    mhdim --sft fixtures/goldenrow.sft --measure fixtures/parry_golden.measure
    mhdim --sft fixtures/fullshift2.sft --action 2,1
    rdim --measure fixtures/bern12.measure --alpha 2 --delta 0.01
    lambda-density --a 1 --b 1 --M 64 --N 4096
    lambda-density --a 1 --b 0 --M 8 --N 512
    lambda-density --a 1 --b 0 --M 8 --N 512 --out fixtures
    lambda-density --a 1 --b 1 --M 3 --N 5
    lambda-density --a 1 --b 1 --M 3 --N 100000000000000000000
    cover-demo --rects fixtures/demo.rects
    cover-demo --rects fixtures/huge.rects
    tame-check --sft fixtures/fullshift2.sft --delta 0.1 --Mmax 64
    tame-check --sft fixtures/threedot.sft
    tame-check --sft fixtures/threedot.sft --Mmax 256
    tame-check --sft fixtures/fullshift2.sft --Mmax 96
    count --sft fixtures/goldenrow.sft --box 12
    count --sft fixtures/threedot.sft --box 12
    entropy --sft fixtures/threedot.sft --mode box --Nmax 10
    count --sft fixtures/goldenmean1d.sft --length 100000
    verify-theorem --sft fixtures/threedot.sft --alpha 2
    verify-theorem --sft fixtures/hardsquares.sft --alpha 2
    verify-theorem --sft fixtures/hardsquares.sft --alpha 2 --action 0,1
    verify-theorem --sft fixtures/hardsquares.sft --alpha 2 --action 1,1
    count --sft fixtures/hardsquares.sft --box 12
    count --sft fixtures/hardsquares.sft --box 30
    rdim --measure fixtures/parry_golden.measure --alpha 2 --delta 0.01
    --version
""".strip().splitlines()]


def file_of(argv: list[str]) -> Path:
    """The golden file of one argv, named after it."""
    return GOLDEN / (re.sub(r"[^A-Za-z0-9.,=+-]+", "_", "meandim " + " ".join(argv)) + ".json")


@contextlib.contextmanager
def no_digit_limit():
    """Lift Python's int-to-str digit limit for the block only: exact
    counts in reports can exceed it."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def load(argv: list[str]) -> dict:
    """The golden file of one argv, read."""
    with no_digit_limit():
        return json.loads(file_of(argv).read_text(encoding="utf-8"))


def entry(argv: list[str], code, out: str, err: str) -> dict:
    """One run's exit code, stderr and report, as a golden file holds them."""
    try:
        with no_digit_limit():
            report = json.loads(out)
    except ValueError:
        report = out
    else:
        report.pop("wall_time_s", None)
    return {"argv": argv, "exit_code": code, "stderr": err, "report": report}


def record(argv: list[str]) -> dict:
    """Run ``meandim argv`` in process, from the repository root, and
    return its exit code, stderr and report."""
    from meandim.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as stop:  # --help and --version
        code = stop.code
    finally:
        os.chdir(cwd)
    return entry(argv, code, out.getvalue(), err.getvalue())


def differences(want, got, where: str = "") -> list[str]:
    """Where ``got`` departs from ``want``: types, keys and lengths, ints,
    strings and booleans exactly, floats beyond a relative FLOAT_RTOL."""
    if type(want) is not type(got):
        return [f"{where}: {want!r} != {got!r}"]
    if isinstance(want, dict):
        if want.keys() != got.keys():
            return [f"{where}: keys {sorted(want)} != {sorted(got)}"]
        return [d for k in want for d in differences(want[k], got[k], f"{where}.{k}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{where}: length {len(want)} != {len(got)}"]
        return [d for i, (w, g) in enumerate(zip(want, got))
                for d in differences(w, g, f"{where}[{i}]")]
    same = math.isclose(want, got, rel_tol=FLOAT_RTOL) if isinstance(want, float) else want == got
    return [] if same else [f"{where}: {want!r} != {got!r}"]


def check_script(script: str = "meandim", corpus=ARGV, timeout: float = 10.0) -> int:
    """Run each argv of ``corpus`` as a subprocess of ``script``, from the
    repository root, and compare it with its golden file.  Prints every
    difference and returns the number of argv that differ or time out."""
    failed = 0
    for argv in corpus:
        try:
            run = subprocess.run([script, *argv], cwd=ROOT, capture_output=True,
                                 text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            found = [f"no exit within {timeout:g} s"]
        else:
            with no_digit_limit():
                found = differences(load(argv), entry(argv, run.returncode, run.stdout,
                                                      run.stderr))
        failed += bool(found)
        print("FAIL" if found else "ok", "meandim", *argv, flush=True)
        for d in found:
            print("   ", d)
    print(f"{len(corpus) - failed} of {len(corpus)} runs of {script} match tests/golden/")
    return failed


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.json"):
        old.unlink()
    for argv in ARGV:
        with no_digit_limit():
            text = json.dumps(record(argv), indent=1)
        file_of(argv).write_text(text + "\n", encoding="utf-8")
    print(f"wrote {len(ARGV)} reports to {GOLDEN}")


if __name__ == "__main__":
    main()
