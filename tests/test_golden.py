import json

import pytest

from golden import ARGV, differences, file_of, record


@pytest.mark.parametrize("argv", ARGV, ids=" ".join)
def test_report_matches_its_golden_file(argv):
    want = json.loads(file_of(argv).read_text(encoding="utf-8"))
    assert differences(want, record(argv)) == []


def test_corpus_holds_one_file_per_argv():
    assert sorted(file_of(argv) for argv in ARGV) == sorted(file_of(ARGV[0]).parent.glob("*.json"))


def test_a_changed_count_or_refusal_is_seen():
    want = json.loads(file_of(ARGV[0]).read_text(encoding="utf-8"))
    count = json.loads(file_of(["count", "--sft", "fixtures/threedot.sft", "--box", "4"])
                       .read_text(encoding="utf-8"))
    count["report"]["results"]["count"] ^= 1
    assert differences(count, record(count["argv"])) != []
    refusal = json.loads(file_of(["count", "--sft", "fixtures/threedot.sft", "--box"])
                         .read_text(encoding="utf-8"))
    refusal["stderr"] = refusal["stderr"].replace("expected", "expects")
    assert differences(refusal, record(refusal["argv"])) != []
    want["report"]["rhs"] *= 1 + 1e-11
    assert differences(want, record(want["argv"])) != []
