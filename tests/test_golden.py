import sys
from pathlib import Path

import pytest

import meandim
from golden import ARGV, check_script, differences, file_of, load, record


@pytest.mark.parametrize("argv", ARGV, ids=" ".join)
def test_report_matches_its_golden_file(argv):
    want = load(argv)
    assert differences(want, record(argv)) == []


def test_corpus_holds_one_file_per_argv():
    assert sorted(file_of(argv) for argv in ARGV) == sorted(file_of(ARGV[0]).parent.glob("*.json"))


def test_a_changed_count_or_refusal_is_seen():
    want = load(ARGV[0])
    count = load(["count", "--sft", "fixtures/threedot.sft", "--box", "4"])
    count["report"]["results"]["count"] ^= 1
    assert differences(count, record(count["argv"])) != []
    refusal = load(["count", "--sft", "fixtures/threedot.sft", "--box"])
    refusal["stderr"] = refusal["stderr"].replace("expected", "expects")
    assert differences(refusal, record(refusal["argv"])) != []
    want["report"]["rhs"] *= 1 + 1e-11
    assert differences(want, record(want["argv"])) != []


@pytest.mark.parametrize("tail, timeout, failed", [
    ("sys.exit(main())", 60, 0),
    ("main()", 60, 1),  # the refusal exits 0
    ("import time; time.sleep(60)", 0.5, 2),
], ids=["entry-point", "exit-0", "hangs"])
def test_a_script_run_is_checked_against_the_corpus(tmp_path, tail, timeout, failed):
    # a pip-style entry script for the meandim this test run imported
    src = str(Path(meandim.__file__).resolve().parent.parent)
    script = tmp_path / "meandim"
    script.write_text(f"#!{sys.executable}\nimport sys\nsys.path.insert(0, {src!r})\n"
                      f"from meandim.cli import main\n{tail}\n")
    script.chmod(0o755)
    corpus = [["count", "--sft", "fixtures/threedot.sft", "--box", "4"],
              ["count", "--sft", "fixtures/threedot.sft", "--box", "0"]]
    assert check_script(str(script), corpus, timeout) == failed
