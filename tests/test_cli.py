import json
import math
import os
import subprocess
import sys
import time

import pytest

import meandim as md
from meandim import run_command
from meandim.cli import main
from meandim.errors import ParseError
from meandim.files import (parse_measure_text, parse_sft_text, write_measure,
                           write_sft)

from conftest import LOG2_PHI


GOLDEN_ROW_TEXT = """\
# golden mean rows
dimension: 2
alphabet: 0 1
certified: row-lift
forbidden:
(0,0)=1 (1,0)=1
"""


def meandim_env(**extra) -> dict:
    """The environment for a ``python -m meandim`` child: it imports the
    meandim this test run imported, whether or not PYTHONPATH names it."""
    src = os.path.dirname(os.path.dirname(md.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


class TestSftFiles:
    def test_golden_row_file(self):
        sft = parse_sft_text(GOLDEN_ROW_TEXT)
        assert sft.dimension == 2
        assert sft.alphabet.symbols == ("0", "1")
        assert len(sft.forbidden) == 1 and len(sft.forbidden[0]) == 2
        assert sft.certified == "row-lift"

    def test_full_1d_shift_without_forbidden_block(self):
        sft = parse_sft_text("dimension: 1\nalphabet: a b c\n")
        assert sft.dimension == 1 and sft.forbidden == ()
        assert md.word_count_1d(sft, 3) == 27

    def test_unknown_symbol_reports_line(self):
        text = "dimension: 2\nalphabet: 0 1\nforbidden:\n(0,0)=2\n"
        with pytest.raises(ParseError) as ei:
            parse_sft_text(text)
        assert ei.value.line == 4

    def test_duplicate_cell_rejected(self):
        text = "dimension: 2\nalphabet: 0 1\nforbidden:\n(0,0)=1 (0,0)=0\n"
        with pytest.raises(ParseError):
            parse_sft_text(text)

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError):
            parse_sft_text("alphabet: 0 1\n")

    def test_1d_cell_syntax(self):
        sft = parse_sft_text("dimension: 1\nalphabet: 0 1\nforbidden:\n(0)=1 (1)=1\n")
        assert sft.forbidden[0].cells == (((0, 0), "1"), ((1, 0), "1"))


class TestMeasureFiles:
    def test_bernoulli(self):
        m = parse_measure_text("type: bernoulli\nweights: 0.25 0.75\n")
        assert m.kind == "bernoulli" and m.weights == (0.25, 0.75)
        assert m.alphabet.symbols == ("0", "1")

    def test_markov_row_with_computed_stationary(self):
        m = parse_measure_text(
            "type: markov-row\nalphabet: 0 1\ntransition:\n0.5 0.5\n1 0\n")
        import numpy as np
        pi = m.pi()
        assert np.abs(pi @ m.P() - pi).max() < 1e-10

    def test_bad_stationary_rejected(self):
        text = ("type: markov-row\ntransition:\n0.5 0.5\n1 0\n"
                "stationary: 0.5 0.5\n")
        with pytest.raises(ParseError):
            parse_measure_text(text)


class TestRoundTrips:
    def test_corpus_roundtrip(self, fixtures_dir, golden1d, goldenrow, threedot,
                              full2, bern_half, parry):
        corpus = []
        for name in ("fullshift2.sft", "goldenrow.sft", "goldenmean1d.sft",
                     "threedot.sft"):
            corpus.append((fixtures_dir / name).read_text())
        for sft in (golden1d, goldenrow, threedot, full2,
                    md.full_shift(("a", "b", "c"), dimension=1),
                    md.three_dot()):
            corpus.append(write_sft(sft))
        for text in corpus:
            sft = parse_sft_text(text)
            canon = write_sft(sft)
            assert parse_sft_text(canon) == sft
            assert write_sft(parse_sft_text(canon)) == canon  # fixpoint

        for name in ("bern12.measure", "parry_golden.measure"):
            text = (fixtures_dir / name).read_text()
            m = parse_measure_text(text)
            canon = write_measure(m)
            assert parse_measure_text(canon) == m
            assert write_measure(parse_measure_text(canon)) == canon
        for m in (bern_half, parry):
            canon = write_measure(m)
            assert parse_measure_text(canon) == m


def fx(fixtures_dir, name):
    return str(fixtures_dir / name)


class TestRunCommand:
    def test_count_box(self, fixtures_dir):
        code, rep = run_command(["count", "--sft", fx(fixtures_dir, "threedot.sft"),
                                 "--box", "4"])
        assert code == 0
        assert rep["results"]["count"] == 128

    def test_count_over_the_bit_guard_refused(self, fixtures_dir):
        # the golden row's 100000^2 box is a product of rows whose count
        # would have about 7e9 bits: refused before it is formed
        t0 = time.perf_counter()
        code, rep = run_command(["count", "--sft", fx(fixtures_dir, "goldenrow.sft"),
                                 "--box", "100000"])
        assert code == 1 and "guard" in rep["error"]
        assert time.perf_counter() - t0 < 1.0

    def test_full_shift_box_over_the_bit_guard_refused(self, fixtures_dir):
        # q^cells is refused before it is formed; 512^2 cells is the last
        # full-shift box under the guard
        full = fx(fixtures_dir, "fullshift2.sft")
        t0 = time.perf_counter()
        code, rep = run_command(["count", "--sft", full, "--box", "100000"])
        assert code == 1 and "guard" in rep["error"]
        assert time.perf_counter() - t0 < 1.0
        code, rep = run_command(["count", "--sft", full, "--box", "513"])
        assert code == 1 and "guard" in rep["error"]
        code, rep = run_command(["count", "--sft", full, "--box", "512"])
        assert code == 0 and rep["results"]["log2_count"] == 512 ** 2

    def test_covering_window_guard(self, fixtures_dir):
        # the 3e8-point Bowen window is refused before a point is built
        t0 = time.perf_counter()
        code, rep = run_command(["covering", "--sft", fx(fixtures_dir, "fullshift2.sft"),
                                 "--N", "100000000", "--eps", "0.5"])
        assert code == 1 and "guard" in rep["error"]
        assert time.perf_counter() - t0 < 1.0

    def test_covering_closed_form_refused_before_the_window(self, fixtures_dir, monkeypatch):
        # the 600,006-point window is under the point guard, but its full-shift
        # count 2^600006 is over the bit guard: refused before it is built
        def no_window(*args):
            raise AssertionError("the window was built")
        monkeypatch.setattr("meandim.dimensions.bowen_window", no_window)
        code, rep = run_command(["covering", "--sft", fx(fixtures_dir, "fullshift2.sft"),
                                 "--N", "200000", "--eps", "0.5"])
        assert code == 1 and rep["error"] == \
            "the count 2^600006 has more bits than the guard of 262144"

    def test_backtracking_search_bounded_by_work(self, tmp_path):
        # 54 cells, over the state guard in both orientations and under the
        # cell guard: the search would visit about 3^54 patterns
        spec = tmp_path / "ternary.sft"
        spec.write_text("dimension: 2\nalphabet: 0 1 2\nforbidden:\n(0,0)=2 (1,2)=2\n")
        t0 = time.perf_counter()
        code, rep = run_command(["count", "--sft", str(spec), "--rect", "0,8,0,5"])
        assert code == 1 and "guard" in rep["error"]
        assert time.perf_counter() - t0 < 5.0

    def test_1d_count_over_the_bit_guard_refused(self, fixtures_dir):
        # a binary word of L letters may count up to L bits: lengths above
        # MAX_COUNT_BITS = 2^18 are refused before any count is formed
        golden = fx(fixtures_dir, "goldenmean1d.sft")
        t0 = time.perf_counter()
        code, rep = run_command(["count", "--sft", golden, "--length", "300000"])
        assert code == 1 and "guard" in rep["error"]
        assert time.perf_counter() - t0 < 1.0
        code, rep = run_command(["count", "--sft", golden, "--length", "262144"])
        assert code == 0 and rep["results"]["cells"] == 262144
        # F(L+2) = round(phi^(L+2) / sqrt 5) golden-mean words of length L
        want = 262146 * LOG2_PHI - math.log2(5) / 2
        assert abs(rep["results"]["log2_count"] - want) < 1e-6

    def test_dp_algorithm_refused(self, fixtures_dir):
        code, rep = run_command(["count", "--sft", fx(fixtures_dir, "threedot.sft"),
                                 "--box", "4", "--algorithm", "dp"])
        assert code == 1 and "--algorithm" in rep["error"]

    @pytest.mark.parametrize("argv", [
        ["--alpha", "1"],  # alpha^-M >= 1 for every M
        ["--alpha", "1e300"],  # eps = alpha^-8 underflows to 0
        ["--M-schedule", "0,8"],  # eps = 1, log2(1/eps) = 0
        ["--alpha", "0"],
        ["--alpha", "1e300", "--M-schedule=-2,8"],  # alpha^2 overflows
    ])
    def test_rdim_inputs_checked_before_work(self, fixtures_dir, argv):
        t0 = time.perf_counter()
        code, rep = run_command(["rdim", "--measure", fx(fixtures_dir, "bern12.measure"),
                                 *argv])
        assert code == 1 and "error" in rep
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("flag,argv", [
        ("--delta", ["tame-check", "--sft", "fullshift2.sft", "--delta", "nan"]),
        ("--alpha", ["mmdim", "--sft", "fullshift2.sft", "--alpha", "nan"]),
        ("--eps", ["covering", "--sft", "fullshift2.sft", "--N", "1", "--eps", "nan"]),
        ("--tolerance", ["verify-theorem", "--sft", "fullshift2.sft", "--tolerance", "inf"]),
        ("--delta", ["rdim", "--measure", "bern12.measure", "--delta=-inf"]),
    ])
    def test_non_finite_numbers_refused(self, fixtures_dir, flag, argv):
        argv = [fx(fixtures_dir, a) if a.endswith((".sft", ".measure")) else a
                for a in argv]
        code, rep = run_command(argv)
        assert code == 1 and f"argument {flag}: expected a finite number" in rep["error"]

    def test_n_factor_below_one_named(self, fixtures_dir):
        for value in ("0", "-3"):
            code, rep = run_command(["mmdim", "--sft", fx(fixtures_dir, "fullshift2.sft"),
                                     "--N-factor", value])
            assert code == 1 and "--N-factor" in rep["error"]

    def test_count_needs_one_support(self, fixtures_dir):
        code, rep = run_command(["count", "--sft", fx(fixtures_dir, "threedot.sft")])
        assert code == 1 and "error" in rep
        code, rep = run_command(["count", "--sft", fx(fixtures_dir, "goldenmean1d.sft"),
                                 "--length", "0"])
        assert code == 1 and "positive" in rep["error"]

    def test_entropy_transfer_on_row_lift(self, fixtures_dir):
        code, rep = run_command(["entropy", "--sft", fx(fixtures_dir, "goldenrow.sft"),
                                 "--mode", "transfer"])
        assert code == 0
        assert abs(rep["results"]["entropy_bits"] - 0.69424) < 1e-5

    def test_covering(self, fixtures_dir):
        code, rep = run_command(["covering", "--sft", fx(fixtures_dir, "fullshift2.sft"),
                                 "--N", "1", "--eps", "0.5"])
        assert code == 0 and rep["results"]["covering_number"] == 512

    def test_lambda_density(self, fixtures_dir):
        code, rep = run_command(["lambda-density", "--a", "1", "--b", "1",
                                 "--M", "64", "--N", "4096"])
        assert code == 0
        assert rep["results"]["relative_error"] < 0.03

    def test_cover_demo(self, fixtures_dir):
        code, rep = run_command(["cover-demo", "--rects", fx(fixtures_dir, "demo.rects")])
        assert code == 0
        res = rep["results"]
        assert res["selected_indices"] == [0, 2]
        assert res["triple_cover_holds"] and res["one_ninth_holds"]

    def test_tame_check(self, fixtures_dir):
        code, rep = run_command(["tame-check", "--sft", fx(fixtures_dir, "fullshift2.sft"),
                                 "--delta", "0.1", "--Mmax", "64"])
        assert code == 0 and rep["results"]["verdict"] == "consistent"
        code, rep = run_command(["tame-check", "--sft", fx(fixtures_dir, "fullshift2.sft"),
                                 "--Mmax", "96"])
        assert code == 0 and len(rep["tables"]["tame"]["rows"]) == 96
        # refused before any counting
        t0 = time.perf_counter()
        code, rep = run_command(["tame-check", "--sft", fx(fixtures_dir, "fullshift2.sft"),
                                 "--Mmax", "100000"])
        assert code == 1 and "guard" in rep["error"]
        assert time.perf_counter() - t0 < 1.0
        # the default Mmax 24 outgrows the counting guards on three-dot: the
        # message names the depth that failed and the largest Mmax that counts
        code, rep = run_command(["tame-check", "--sft", fx(fixtures_dir, "threedot.sft")])
        assert code == 1
        assert "depth M = 7" in rep["error"] and "largest Mmax" in rep["error"]
        assert rep["error"].endswith(" 6")
        code, rep = run_command(["tame-check", "--sft", fx(fixtures_dir, "threedot.sft"),
                                 "--Mmax", "6"])
        assert code == 0 and len(rep["tables"]["tame"]["rows"]) == 6
        # the golden row's squares are products of independent rows
        code, rep = run_command(["tame-check", "--sft", fx(fixtures_dir, "goldenrow.sft"),
                                 "--Mmax", "24"])
        assert code == 0 and len(rep["tables"]["tame"]["rows"]) == 24

    def test_inverted_mhdim_bounds_is_error(self, fixtures_dir, monkeypatch):
        # a cylinder mass falling fast enough in N lifts the lower bound
        # above the upper one
        monkeypatch.setattr("meandim.dimensions.max_cylinder_log2_prob",
                            lambda measure, window: -100.0 * len(window))
        code, rep = run_command(["mhdim", "--sft", fx(fixtures_dir, "goldenrow.sft"),
                                 "--measure", fx(fixtures_dir, "parry_golden.measure"),
                                 "--M-schedule", "2,3,4"])
        assert code == 1 and "exceeds the uniform-cover upper bound" in rep["error"]

    def test_mmdim_report(self, fixtures_dir):
        code, rep = run_command(["mmdim", "--sft", fx(fixtures_dir, "fullshift2.sft")])
        assert code == 0
        assert abs(rep["results"]["mmdim"]["value"] - 2.0) < 1e-9

    def test_rdim_report(self, fixtures_dir):
        code, rep = run_command(["rdim", "--measure", fx(fixtures_dir, "bern12.measure")])
        assert code == 0
        assert abs(rep["results"]["rdim_upper"]["value"] - 2.0) < 1e-9

    def test_missing_file_is_error(self):
        code, rep = run_command(["mmdim", "--sft", "nope.sft"])
        assert code == 1 and "error" in rep

    def test_unknown_flag_is_error(self, fixtures_dir):
        code, rep = run_command(["mmdim", "--sft", fx(fixtures_dir, "fullshift2.sft"),
                                 "--frobnicate"])
        assert code == 1 and "error" in rep

    def test_guard_exceeded_is_error(self, fixtures_dir):
        code, rep = run_command(["count", "--sft", fx(fixtures_dir, "threedot.sft"),
                                 "--box", "40", "--algorithm", "backtracking"])
        assert code == 1 and "guard" in rep["error"]


class TestVerifyTheorem:
    def test_full_shift_passes(self, fixtures_dir):
        code, rep = run_command([
            "verify-theorem", "--sft", fx(fixtures_dir, "fullshift2.sft"),
            "--measure", fx(fixtures_dir, "bern12.measure"),
            "--alpha", "2", "--tolerance", "0.1"])
        assert code == 0 and rep["verdict"] == "PASS"
        assert abs(rep["results"]["mmdim"]["value"] - 2.0) < 1e-9
        assert rep["rhs"] == 2.0

    def test_golden_row_passes(self, fixtures_dir):
        code, rep = run_command([
            "verify-theorem", "--sft", fx(fixtures_dir, "goldenrow.sft"),
            "--measure", fx(fixtures_dir, "parry_golden.measure"), "--alpha", "2"])
        assert code == 0 and rep["verdict"] == "PASS"

    def test_three_dot_passes(self, fixtures_dir):
        code, rep = run_command([
            "verify-theorem", "--sft", fx(fixtures_dir, "threedot.sft"), "--alpha", "2"])
        assert code == 0 and rep["verdict"] == "PASS" and rep["rhs"] == 0.0

    def test_one_dimensional_passes(self, fixtures_dir):
        code, rep = run_command([
            "verify-theorem", "--sft", fx(fixtures_dir, "goldenmean1d.sft"),
            "--alpha", "2"])
        assert code == 0 and rep["verdict"] == "PASS"
        assert abs(rep["rhs"] - 0.69424) < 1e-5

    def test_skew_action_full_shift(self, fixtures_dir):
        # the rank-one subaction along (a,b) carries the factor 2(|a|+|b|)
        for ab, target in (("1,1", 4.0), ("2,1", 6.0)):
            code, rep = run_command([
                "verify-theorem", "--sft", fx(fixtures_dir, "fullshift2.sft"),
                "--action", ab, "--alpha", "2"])
            assert code == 0 and rep["verdict"] == "PASS"
            assert rep["rhs"] == target
            assert abs(rep["results"]["mmdim"]["value"] - target) < 1e-9

    def test_skew_action_row_lift(self, fixtures_dir):
        # skew Bowen windows of a row-lift are counted row by row
        code, rep = run_command([
            "verify-theorem", "--sft", fx(fixtures_dir, "goldenrow.sft"),
            "--action", "1,1", "--alpha", "2"])
        assert code == 0 and rep["verdict"] == "PASS"
        assert rep["results"]["action_factor"] == 4

    def test_wide_step_schedule_starts_without_gaps(self, fixtures_dir):
        # along (4,1) the M = 2 windows have gaps in their rows; the default
        # schedule starts at M = 3, and an explicit one below it is refused
        for name, action in (("fullshift2.sft", "4,1"), ("goldenrow.sft", "4,1"),
                             ("fullshift2.sft", "1,4")):
            argv = ["verify-theorem", "--sft", fx(fixtures_dir, name),
                    "--action", action, "--alpha", "2"]
            code, rep = run_command(argv)
            assert code == 0 and rep["verdict"] == "PASS"
            assert [M for M, _ in rep["results"]["mmdim"]["schedule"]] == [3, 4, 5, 6, 7]
            code, rep = run_command(argv + ["--M-schedule", "2,3,4"])
            assert code == 1 and "M = 3" in rep["error"]

    def test_skew_action_constrained_system_refused(self, fixtures_dir):
        code, rep = run_command([
            "verify-theorem", "--sft", fx(fixtures_dir, "threedot.sft"),
            "--action", "1,1"])
        assert code == 1 and "full shifts and row-lifts only" in rep["error"]

    def test_wrong_tolerance_fails_with_exit_2(self, fixtures_dir):
        code, rep = run_command([
            "verify-theorem", "--sft", fx(fixtures_dir, "goldenrow.sft"),
            "--alpha", "2", "--tolerance", "1e-13"])
        assert code == 2 and rep["verdict"] == "FAIL"

    def test_strict_refuses_uncertified(self, tmp_path):
        # same constraints as the golden row but without the certificate line
        p = tmp_path / "anon.sft"
        p.write_text("dimension: 2\nalphabet: 0 1\nforbidden:\n(0,0)=1 (1,0)=1\n")
        code, rep = run_command(["verify-theorem", "--sft", str(p), "--strict"])
        assert code == 1 and "certificate" in rep["error"]
        code, rep = run_command(["verify-theorem", "--sft", str(p)])
        assert code == 0 and rep["verdict"] == "BOUNDS-ONLY"


class TestReportContract:
    def test_determinism_modulo_wall_time(self, fixtures_dir):
        argv = ["verify-theorem", "--sft", fx(fixtures_dir, "threedot.sft")]
        _, rep1 = run_command(argv)
        _, rep2 = run_command(argv)
        rep1.pop("wall_time_s")
        rep2.pop("wall_time_s")
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)

    def test_schema_and_finite_numbers(self, fixtures_dir):
        _, rep = run_command(["mhdim", "--sft", fx(fixtures_dir, "goldenrow.sft"),
                              "--measure", fx(fixtures_dir, "parry_golden.measure")])
        assert rep["schema"] == 1

        def walk(x):
            if isinstance(x, dict):
                for v in x.values():
                    walk(v)
            elif isinstance(x, list):
                for v in x:
                    walk(v)
            elif isinstance(x, float):
                assert x == x and abs(x) != float("inf")

        walk(rep)

    def test_out_and_csv_files(self, fixtures_dir, tmp_path):
        out = tmp_path / "report.json"
        csv = tmp_path / "table.csv"
        code, _ = run_command(["mmdim", "--sft", fx(fixtures_dir, "fullshift2.sft"),
                               "--out", str(out), "--csv", str(csv)])
        assert code == 0
        saved = json.loads(out.read_text())
        assert saved["schema"] == 1 and "mmdim" in saved["results"]
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "table,key,value"
        assert len(lines) == 6  # five scheduled depths

    def test_console_entry_point(self, fixtures_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "meandim", "lambda-density",
             "--a", "1", "--b", "0", "--M", "8", "--N", "512"],
            capture_output=True, text=True, env=meandim_env())
        assert proc.returncode == 0 and proc.stderr == ""
        rep = json.loads(proc.stdout)
        assert rep["command"] == "lambda-density"

    @pytest.mark.parametrize("value", ["numba", "bogus"])
    def test_former_backend_variable_is_ignored(self, fixtures_dir, value):
        # the variable once picked a kernel backend and raised at import
        proc = subprocess.run(
            [sys.executable, "-m", "meandim", "count",
             "--sft", fx(fixtures_dir, "goldenrow.sft"), "--box", "3"],
            capture_output=True, text=True, env=meandim_env(MEANDIM_BACKEND=value))
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert json.loads(proc.stdout)["results"]["count"] == 5 ** 3

    def test_count_above_int_digit_limit(self, fixtures_dir, tmp_path, capsys):
        # about 6,270 digits, past Python's default 4,300-digit int-to-str limit
        argv = ["count", "--sft", fx(fixtures_dir, "goldenmean1d.sft"), "--length", "30000"]
        out = tmp_path / "count.json"
        limit = sys.get_int_max_str_digits()
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert main(argv + ["--out", str(out)]) == 0
        assert sys.get_int_max_str_digits() == limit
        want = md.word_count_1d(md.golden_mean_1d(), 30000)
        sys.set_int_max_str_digits(0)
        try:
            for text in (printed, out.read_text()):
                assert json.loads(text)["results"]["count"] == want
        finally:
            sys.set_int_max_str_digits(limit)
