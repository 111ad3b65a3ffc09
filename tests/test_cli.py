import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import meandim as md
from meandim import run_command
from meandim.cli import _COMMANDS, main
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

    def test_covering_oversized_window_refused_before_any_point(self, fixtures_dir,
                                                                 monkeypatch):
        # the golden row's forbidden word fits the 3,000,006-point window, so
        # no closed form refuses it; the point guard does, before any ball
        def no_ball(*args):
            raise AssertionError("the ball was built")
        monkeypatch.setattr(md.lattice, "norm_ball", no_ball)
        t0 = time.perf_counter()
        code, rep = run_command(["covering", "--sft", fx(fixtures_dir, "goldenrow.sft"),
                                 "--N", "1000000", "--eps", "0.3"])
        assert code == 1 and "3000006 points, above the guard 1048576" in rep["error"]
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("command", ["mmdim", "mhdim"])
    def test_1d_spec_refused_before_any_window(self, fixtures_dir, monkeypatch, command):
        def no_window(*args):
            raise AssertionError("a window was built")
        monkeypatch.setattr("meandim.dimensions.bowen_window", no_window)
        code, rep = run_command([command, "--sft", fx(fixtures_dir, "goldenmean1d.sft")])
        assert code == 1 and rep["error"] == "bowen_table works on 2D specs, got a 1D spec"

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
        ["bern12.measure", "--alpha", "1"],  # alpha^-M >= 1 for every M
        ["bern12.measure", "--alpha", "1e300"],  # eps = alpha^-8 underflows to 0
        ["bern12.measure", "--M-schedule", "0,8"],  # eps = 1, log2(1/eps) = 0
        ["bern12.measure", "--alpha", "0"],
        ["bern12.measure", "--alpha", "1e300", "--M-schedule=-2,8"],  # alpha^2 overflows
        ["parry_golden.measure", "--alpha", "1.0001"],  # eps = alpha^-8 above delta
    ])
    def test_rdim_inputs_checked_before_work(self, fixtures_dir, argv):
        measure, *flags = argv
        t0 = time.perf_counter()
        code, rep = run_command(["rdim", "--measure", fx(fixtures_dir, measure), *flags])
        assert code == 1 and "error" in rep
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("argv", [
        ["rdim", "--measure", "parry_golden.measure", "--alpha", "1.0001"],
        ["rdim", "--measure", "bern12.measure", "--alpha", "1e300"],
        ["verify-theorem", "--sft", "fullshift2.sft", "--measure", "bern12.measure",
         "--alpha", "1e300"],
    ])
    def test_rdim_scale_refusal_names_the_flags(self, fixtures_dir, monkeypatch, argv):
        # the k schedule is checked before verify-theorem builds a window
        def no_window(*args):
            raise AssertionError("a window was built")
        monkeypatch.setattr("meandim.dimensions.bowen_window", no_window)
        argv = [fx(fixtures_dir, a) if a.endswith((".sft", ".measure")) else a
                for a in argv]
        code, rep = run_command(argv)
        assert code == 1
        assert rep["error"].startswith("at scale k = 8, eps = alpha^-k = ")
        assert "--alpha" in rep["error"] and "--delta 0.01" in rep["error"]

    @pytest.mark.parametrize("command", ["mmdim", "mhdim", "verify-theorem"])
    def test_depths_do_not_underflow(self, fixtures_dir, command):
        # each depth M once went through eps = alpha^-(M-1), which is 0 here
        code, rep = run_command([command, "--sft", fx(fixtures_dir, "fullshift2.sft"),
                                 "--alpha", "1e300"])
        assert code == 0
        want = 2 / math.log2(1e300)
        if command != "mhdim":
            assert abs(rep["results"]["mmdim"]["value"] - want) < 1e-12
        if command != "mmdim":
            assert abs(rep["results"]["mhdim_upper"]["value"] - want) < 1e-12

    @pytest.mark.parametrize("factor", ["1000000000", "20000"])
    def test_huge_n_factor_refused_before_the_window(self, fixtures_dir, monkeypatch,
                                                     factor):
        # 20000 passes the guard at M = 2 and fails it at M = 6; every window
        # is checked before the first is built
        def no_window(*args):
            raise AssertionError("a window was built")
        monkeypatch.setattr("meandim.dimensions.bowen_window", no_window)
        code, rep = run_command(["mmdim", "--sft", fx(fixtures_dir, "fullshift2.sft"),
                                 "--N-factor", factor])
        assert code == 1 and "guard" in rep["error"]

    def test_long_sweep_refused_before_work(self, tmp_path):
        # hard squares at height 12 leave int64 early, and each further
        # column adds longer Python ints, so time grows with width squared
        spec = tmp_path / "hard.sft"
        spec.write_text("dimension: 2\nalphabet: 0 1\nforbidden:\n"
                        "(0,0)=1 (1,0)=1\n(0,0)=1 (0,1)=1\n")
        t0 = time.perf_counter()
        code, rep = run_command(["count", "--sft", str(spec), "--rect", "0,2999,0,11"])
        assert code == 1 and "sweep guard" in rep["error"]
        assert time.perf_counter() - t0 < 1.0
        code, rep = run_command(["count", "--sft", str(spec), "--rect", "0,99,0,11"])
        assert code == 0 and rep["results"]["cells"] == 1200

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

    @pytest.mark.parametrize("flag,argv", [
        ("--N-factor", ["covering", "--sft", "fullshift2.sft", "--N", "1", "--eps", "0.5",
                        "--N-factor", "3"]),
        ("--M-schedule", ["covering", "--sft", "fullshift2.sft", "--N", "1", "--eps", "0.5",
                          "--M-schedule", "9,9"]),
        ("--N-factor", ["rdim", "--measure", "bern12.measure", "--N-factor", "3"]),
        ("--action", ["rdim", "--measure", "bern12.measure", "--action", "1,0"]),
    ])
    def test_flags_a_command_does_not_read_are_refused(self, fixtures_dir, flag, argv):
        argv = [fx(fixtures_dir, a) if a.endswith((".sft", ".measure")) else a
                for a in argv]
        code, rep = run_command(argv)
        assert code == 1 and rep["error"].startswith("unrecognized arguments: ")
        assert flag in rep["error"]

    @pytest.mark.parametrize("command", ["mmdim", "verify-theorem"])
    def test_depth_one_start_refused_before_any_window(self, fixtures_dir, monkeypatch,
                                                       command):
        def no_window(*args):
            raise AssertionError("a window was built")
        monkeypatch.setattr("meandim.dimensions.bowen_window", no_window)
        code, rep = run_command([command, "--sft", fx(fixtures_dir, "fullshift2.sft"),
                                 "--M-schedule", "1,2,3"])
        assert code == 1 and "must start at 2" in rep["error"]

    def test_mhdim_keeps_a_depth_one_start(self, fixtures_dir):
        code, rep = run_command(["mhdim", "--sft", fx(fixtures_dir, "fullshift2.sft"),
                                 "--M-schedule", "1,2,3"])
        assert code == 0 and rep["inputs"]["M_schedule"] == [1, 2, 3]

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

    @pytest.mark.parametrize("sft", ["goldenmean1d.sft", "goldenrow.sft"])
    def test_unsupported_measure_is_error(self, fixtures_dir, sft):
        # the Bernoulli measure charges the forbidden word 11
        code, rep = run_command(["verify-theorem", "--sft", fx(fixtures_dir, sft),
                                 "--measure", fx(fixtures_dir, "bern12.measure")])
        assert code == 1 and rep["error"] == ("measure puts positive mass on a forbidden "
                                              "pattern; it is not supported on this subshift")

    def test_1d_bracket_skipped_without_a_parry_measure(self, tmp_path):
        # forbidding 000 leaves no nearest-neighbour presentation for the Parry measure
        spec = tmp_path / "no000.sft"
        spec.write_text("dimension: 1\nalphabet: 0 1\nforbidden:\n(0)=0 (1)=0 (2)=0\n")
        code, rep = run_command(["verify-theorem", "--sft", str(spec)])
        assert code == 0 and rep["verdict"] == "PASS"
        assert "nearest-neighbour" in rep["results"]["hausdorff_bracket"]["skipped"]
        assert [c["name"] for c in rep["checks"]] == ["minkowski_extrapolation"]

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

    def test_each_window_built_once(self, fixtures_dir, monkeypatch):
        # five depths with two windows each; when each estimator counted its
        # own windows, three-dot took 20 builds and the golden row with its
        # measure 30
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(f"meandim.dimensions.{name}", wrapper)

        for name in ("bowen_window", "count_locally_admissible", "max_cylinder_log2_prob"):
            counted(name, getattr(md.dimensions, name))
        for sft, measure, want in (
                ("threedot.sft", None, (10, 10, 0)),
                ("goldenrow.sft", "parry_golden.measure", (10, 10, 10)),
                ("fullshift2.sft", "bern12.measure", (10, 10, 10))):
            calls.clear()
            body = md.verify_theorem(md.parse_sft(fx(fixtures_dir, sft)),
                                     measure and md.parse_measure(fx(fixtures_dir, measure)),
                                     2.0, None)
            assert body["verdict"] == "PASS"
            assert (calls.get("bowen_window", 0), calls.get("count_locally_admissible", 0),
                    calls.get("max_cylinder_log2_prob", 0)) == want

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


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["--version"])
        assert ei.value.code == 0
        assert capsys.readouterr().out == f"meandim {md.__version__}\n"

    def test_help_lists_the_commands(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["--help"])
        assert ei.value.code == 0
        out = capsys.readouterr().out
        assert len(_COMMANDS) == 10
        for name, (help_line, _, _) in _COMMANDS.items():
            assert re.search(rf"^  {re.escape(name)} +{re.escape(help_line)}$", out, re.M)

    def test_command_help_lists_its_flags(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["covering", "--help"])
        assert ei.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: meandim covering ")
        for flag in ("--sft", "--alpha", "--action", "--N", "--eps", "--out", "--csv"):
            assert f" {flag} " in out
        assert "--M-schedule" not in out

    def test_missing_command(self):
        assert run_command([]) == (1, {
            "schema": 1, "command": "",
            "error": "the following arguments are required: command"})

    def test_unknown_command(self):
        code, rep = run_command(["x", "--sft", "y"])
        assert code == 1 and rep["command"] == "x"
        assert rep["error"].startswith("argument command: invalid choice: 'x' (choose from ")
        assert re.findall(r"\w[\w-]*", rep["error"].split("choose from", 1)[1]) \
            == list(_COMMANDS)

    def test_a_run_adds_only_its_own_flags(self, monkeypatch):
        added = []
        real = argparse.ArgumentParser.add_argument

        def recording(self, *names, **kwargs):
            added.append(names)
            return real(self, *names, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recording)
        code, _ = run_command(["lambda-density", "--a", "1", "--b", "0",
                               "--M", "8", "--N", "512"])
        assert code == 0
        assert sorted(added) == sorted([("-h", "--help"), ("--a",), ("--b",), ("--M",),
                                        ("--N",), ("--out",), ("--csv",)])


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


def readme_commands() -> list[list[str]]:
    """The ``meandim ...`` lines of the README's CLI block, continuations joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line.split("#", 1)[0])[1:] for line in lines
            if line.startswith("meandim ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_cli_commands_run(argv, monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    code, rep = run_command(argv)
    assert code == 0, rep.get("error")


def test_readme_library_example_runs(monkeypatch):
    root = Path(__file__).resolve().parent.parent
    monkeypatch.chdir(root)
    readme = (root / "README.md").read_text()
    code = readme.split("## Estimators", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    scope = {}
    exec(code, scope)
    assert scope["lower"].value <= scope["upper"].value + 1e-9
    assert scope["mm"].schedule == ((2, 32), (3, 48), (4, 64), (5, 80), (6, 96))
