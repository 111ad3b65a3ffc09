import argparse
import contextlib
import io
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
from hypothesis import given, settings, strategies as st

import meandim as md
from meandim import cli
from meandim import run_command
from meandim.cli import _COMMANDS, CliError, main
from meandim.errors import ParseError, ResourceGuardError
from meandim.files import parse_measure_text, parse_sft_text

import golden
from conftest import LOG2_PHI
from test_subshift import dense_1d_spec


GOLDEN_ROW_TEXT = """\
# golden mean rows
dimension: 2
alphabet: 0 1
certified: row-lift
forbidden:
(0,0)=1 (1,0)=1
"""


HARD_SQUARES_TEXT = "dimension: 2\nalphabet: 0 1\nforbidden:\n(0,0)=1 (1,0)=1\n(0,0)=1 (0,1)=1\n"

# three-dot with the roles of 0 and 1 swapped: x(u) + x(u+e1) + x(u+e2) odd
SWAPPED_THREE_DOT_TEXT = """\
dimension: 2
alphabet: 0 1
forbidden:
(0,0)=0 (1,0)=0 (0,1)=0
(0,0)=0 (1,0)=1 (0,1)=1
(0,0)=1 (1,0)=0 (0,1)=1
(0,0)=1 (1,0)=1 (0,1)=0
"""


# the checks verify-theorem makes on a 1D and a 2D spec, in report order
VERIFY_CHECKS_1D = ["minkowski_extrapolation", "hausdorff_upper_at_depth",
                    "hausdorff_lower_at_depth"]
VERIFY_CHECKS_2D = ["mmdim_extrapolation", "mhdim_upper_extrapolation",
                    "mhdim_lower_consistent", "rdim_upper_extrapolation",
                    "rdim_lower_extrapolation"]


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

    def test_certificate_is_derived_without_its_line(self):
        labelled = parse_sft_text(GOLDEN_ROW_TEXT)
        unlabelled = parse_sft_text(GOLDEN_ROW_TEXT.replace("certified: row-lift\n", ""))
        assert unlabelled == labelled and unlabelled.certified == "row-lift"

    @pytest.mark.parametrize("declared", ["full", "three-dot", "none", ""])
    def test_false_certified_line_names_its_line(self, declared):
        text = GOLDEN_ROW_TEXT.replace("row-lift", declared)
        with pytest.raises(ParseError) as err:
            parse_sft_text(text)
        assert err.value.line == 4 and "derive row-lift" in str(err.value)

    def test_certified_line_on_an_uncertified_spec_refused(self):
        text = HARD_SQUARES_TEXT.replace("forbidden:", "certified: row-lift\nforbidden:")
        with pytest.raises(ParseError) as err:
            parse_sft_text(text)
        assert err.value.line == 3 and "no certificate" in str(err.value)

    @pytest.mark.parametrize("text, lineno, key", [
        ("dimension: 1\ndimension: 2\nalphabet: 0 1\n", 2, "dimension"),
        ("dimension: 2\nalphabet: 0 1\n# again\nalphabet: 0 1 2\nforbidden:\n", 4,
         "alphabet"),
        (GOLDEN_ROW_TEXT.replace("forbidden:", "certified: row-lift\nforbidden:"), 5,
         "certified")],
        ids=["dimension", "alphabet", "certified"])
    def test_repeated_key_refused_at_its_second_line(self, text, lineno, key):
        # a second 'dimension:' line used to win: '1' then '2' was read as 2D
        with pytest.raises(ParseError) as err:
            parse_sft_text(text)
        assert err.value.line == lineno and f"'{key}:' is given twice" in str(err.value)


class TestMeasureFiles:
    def test_bernoulli(self):
        m = parse_measure_text("type: bernoulli\nweights: 0.25 0.75\n")
        assert m.transition == ((0.25, 0.75), (0.25, 0.75)) and m.stationary == (0.25, 0.75)
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

    @pytest.mark.parametrize("text, lineno", [
        ("type: markov-row\ntransition:\n0.5 0.5\n0.5\n", 4),
        ("type: markov-row\ntransition: 0.5 0.5\n0.5 0.25 0.25\n", 3)],
        ids=["short", "long"])
    def test_ragged_transition_rows_name_the_line(self, text, lineno):
        with pytest.raises(ParseError) as err:
            parse_measure_text(text)
        assert err.value.line == lineno and "expected 2 numbers" in str(err.value)

    @pytest.mark.parametrize("text, lineno", [
        ("type: markov-row\ntransition:\n0.5 0.25 0.25\n0.5 0.25 0.25\n", 2),
        ("type: markov-row\ntransition: 0.5 0.5\n", 2),
        ("type: markov-row\n# rows below\ntransition:\n1 0 0\n0 1 0\n0 0 1\n0 0 1\n", 3)],
        ids=["wide", "one-row", "tall"])
    def test_non_square_transition_block_names_its_line(self, text, lineno):
        with pytest.raises(ParseError) as err:
            parse_measure_text(text)
        assert err.value.line == lineno and "square" in str(err.value)

    @pytest.mark.parametrize("text, lineno, key", [
        ("type: bernoulli\nweights: 0.5 0.5\ntransition:\n0.5 0.5\n0.5 0.5\n", 3,
         "transition"),
        ("stationary: 0.5 0.5\ntype: bernoulli\nweights: 0.5 0.5\n", 1, "stationary"),
        ("type: markov-row\nweights: 0.5 0.5\ntransition:\n0.5 0.5\n1 0\n", 2, "weights")],
        ids=["bernoulli-transition", "bernoulli-stationary", "markov-weights"])
    def test_key_the_type_does_not_read_names_its_line(self, text, lineno, key):
        with pytest.raises(ParseError) as err:
            parse_measure_text(text)
        assert err.value.line == lineno and f"'{key}:'" in str(err.value)

    @pytest.mark.parametrize("text, lineno, key", [
        ("type: bernoulli\nweights: 0.5 0.5\ntype: markov-row\n", 3, "type"),
        ("alphabet: 0 1\ntype: bernoulli\nalphabet: a b\nweights: 0.5 0.5\n", 3,
         "alphabet"),
        ("type: bernoulli\nweights: 0.5 0.5\nweights: 0.25 0.75\n", 3, "weights"),
        ("type: markov-row\ntransition:\n1 0\ntransition:\n0 1\n", 4, "transition"),
        ("type: markov-row\ntransition:\n0.5 0.5\n1 0\nstationary: 0.6 0.4\n"
         "stationary: 0.7 0.3\n", 6, "stationary")],
        ids=["type", "alphabet", "weights", "transition", "stationary"])
    def test_repeated_key_refused_at_its_second_line(self, text, lineno, key):
        # a second 'transition:' block used to append its rows to the first,
        # so '1 0' then '0 1' parsed as the identity chain
        with pytest.raises(ParseError) as err:
            parse_measure_text(text)
        assert err.value.line == lineno and f"'{key}:' is given twice" in str(err.value)


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

    def test_covering_long_row_refused_before_any_point(self, fixtures_dir, monkeypatch):
        # the 900,006-point window is under the point guard, but its rows of
        # N + 2M - 2 = 300,002 cells would each count above the bit guard
        def no_ball(*args):
            raise AssertionError("the ball was built")
        monkeypatch.setattr(md.lattice, "norm_ball", no_ball)
        t0 = time.perf_counter()
        code, rep = run_command(["covering", "--sft", fx(fixtures_dir, "goldenrow.sft"),
                                 "--N", "300000", "--eps", "0.3"])
        assert code == 1 and rep["error"] == \
            "a row of 300002 cells may count above the guard of 262144 bits"
        assert time.perf_counter() - t0 < 1.0

    def test_covering_rank_count_refused_before_the_window(self, fixtures_dir, monkeypatch):
        # three-dot is counted by rank; its 300,006-cell window is under the
        # point guard, but a count on it may have 300,006 bits
        def no_window(*args):
            raise AssertionError("the window was built")
        monkeypatch.setattr("meandim.dimensions.bowen_window", no_window)
        t0 = time.perf_counter()
        code, rep = run_command(["covering", "--sft", fx(fixtures_dir, "threedot.sft"),
                                 "--N", "100000", "--eps", "0.3"])
        assert code == 1 and rep["error"] == ("a linear count on 300006 cells may have up "
                                              "to 300006 bits, above the guard of 262144")
        assert time.perf_counter() - t0 < 0.05

    def test_long_word_count_refused_by_the_walk_guard(self, tmp_path):
        # a 64-node block graph's 29,997-step walk took 7.6 s and exited 0
        # before the guard
        spec = tmp_path / "dense.sft"
        spec.write_text("dimension: 1\nalphabet: 0 1 2 3\nforbidden:\n" + "".join(
            " ".join(f"({m})={s}" for (m, _), s in f.cells) + "\n"
            for f in dense_1d_spec().forbidden))
        t0 = time.perf_counter()
        code, rep = run_command(["count", "--sft", str(spec), "--length", "30000"])
        assert code == 1 and rep["error"] == (
            "a row of 30000 cells takes a walk of 29997 steps on 64 block nodes, about "
            "9.99e+07 units of work, above the walk guard of 16777216")
        assert time.perf_counter() - t0 < 1.0

    def test_rectangle_count_never_builds_points(self, fixtures_dir, monkeypatch):
        # ten columns by 10^9 + 1 rows: a product of rows, refused from the
        # run lengths alone
        def no_points(self):
            raise AssertionError("the points were built")
        monkeypatch.setattr(md.LatticeSet, "points", property(no_points))
        code, rep = run_command(["count", "--sft", fx(fixtures_dir, "goldenrow.sft"),
                                 "--rect", "0,9,0,1000000000"])
        assert code == 1 and rep["error"] == \
            "the count has about 8000000008 bits, above the guard of 262144 bits"

    @pytest.mark.parametrize("command", ["mmdim", "mhdim"])
    def test_1d_spec_refused_before_any_window(self, fixtures_dir, monkeypatch, command):
        def no_window(*args):
            raise AssertionError("a window was built")
        monkeypatch.setattr("meandim.dimensions.bowen_window", no_window)
        code, rep = run_command([command, "--sft", fx(fixtures_dir, "goldenmean1d.sft")])
        assert code == 1 and rep["error"] == "bowen_table works on 2D specs, got a 1D spec"

    def test_hopeless_backtracking_refused_before_the_walk(self, tmp_path):
        # 54 cells, over the state guard in both orientations and under the
        # cell guard; every assignment over {0, 1} is admissible, so the walk
        # would make at least 2^53 descents; the refusal comes before any
        spec = tmp_path / "ternary.sft"
        spec.write_text("dimension: 2\nalphabet: 0 1 2\nforbidden:\n(0,0)=2 (1,2)=2\n")
        t0 = time.perf_counter()
        code, rep = run_command(["count", "--sft", str(spec), "--rect", "0,8,0,5"])
        assert time.perf_counter() - t0 < 0.5
        assert code == 1 and "at least 2^53 descents" in rep["error"]

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

    def test_1d_verify_deep_schedule_refused_before_any_count(self, fixtures_dir, monkeypatch):
        # the 1D estimators count each depth through plan, so a depth whose
        # row is over the bit guard is refused before the shallower ones run
        def no_count(*args):
            raise AssertionError("a count ran")
        monkeypatch.setattr("meandim.subshift.word_count_1d", no_count)
        t0 = time.perf_counter()
        code, rep = run_command(["verify-theorem", "--sft", fx(fixtures_dir, "goldenmean1d.sft"),
                                 "--alpha", "2", "--M-schedule", "4,2000000"])
        assert code == 1 and rep["error"] == (
            "a row of 2000000 cells may count above the guard of 262144 bits")
        assert time.perf_counter() - t0 < 1.0

    def test_hard_squares_box_12_matches_a_row_transfer(self, fixtures_dir):
        # the 377 rows of width 12 without two adjacent ones, stacked so that
        # no column holds two adjacent ones either
        rows = [r for r in range(1 << 12) if r & (r >> 1) == 0]
        assert len(rows) == 377
        ways = [1] * len(rows)
        for _ in range(11):
            ways = [sum(w for r2, w in zip(rows, ways) if r & r2 == 0) for r in rows]
        code, rep = run_command(["count", "--sft", fx(fixtures_dir, "hardsquares.sft"),
                                 "--box", "12"])
        assert code == 0 and rep["results"]["count"] == sum(ways) == \
            162481813349792588536582997

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
        ["rdim", "--measure", "bern12.measure", "--alpha", "1.0000001"],
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
        # both values in full, not rounded to six digits
        alpha = float(argv[argv.index("--alpha") + 1])
        assert rep["error"].endswith(f"for --alpha {alpha} and --delta 0.01")

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

    @pytest.mark.parametrize("sft, flags, message", [
        ("goldenrow.sft", ["--tolerance", "-1"], "--tolerance must be at least 0, got -1.0"),
        ("goldenrow.sft", ["--delta", "-3"], "--delta must lie in (0, 1/2), got -3.0"),
        ("goldenmean1d.sft", ["--tolerance", "-1"],
         "--tolerance must be at least 0, got -1.0"),
        ("goldenmean1d.sft", ["--delta", "0.5"], "--delta must lie in (0, 1/2), got 0.5")])
    def test_verify_numbers_refused_before_any_window(self, fixtures_dir, monkeypatch,
                                                       sft, flags, message):
        # --tolerance -1 used to count every window and end FAIL; --delta was
        # read only when the rdim rows ran, so --delta -3 without a measure
        # exited 0
        def no_window(*args):
            raise AssertionError("a window was built")
        for name in ("bowen_window", "plan", "transfer_matrix_entropy_1d"):
            monkeypatch.setattr(f"meandim.dimensions.{name}", no_window)
        code, rep = run_command(["verify-theorem", "--sft", fx(fixtures_dir, sft),
                                 "--alpha", "2", *flags])
        assert code == 1 and rep["error"] == message

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
        assert code == 1 and rep["error"] == "--length must be positive"

    def test_box_below_one_named(self, fixtures_dir):
        for value in ("0", "-2"):
            code, rep = run_command(["count", "--sft", fx(fixtures_dir, "threedot.sft"),
                                     "--box", value])
            assert code == 1 and rep["error"] == "--box must be positive"

    def test_entropy_box_on_three_dot_past_the_sweep(self, fixtures_dir):
        # the 13 x 13 box and up are over the sweep's state guard; three-dot
        # counts 2^(2N-1) on them by rank
        code, rep = run_command(["entropy", "--sft", fx(fixtures_dir, "threedot.sft"),
                                 "--mode", "box", "--Nmax", "16"])
        assert code == 0
        assert rep["tables"]["box"]["rows"] == [[N, (2 * N - 1) / N ** 2]
                                                 for N in range(1, 17)]

    def test_entropy_box_refuses_the_nmax_box_first(self, fixtures_dir):
        # the 1000 x 1000 box is over the count-bit guard; it is refused
        # before the 201 smaller boxes the guards allow are counted
        t0 = time.perf_counter()
        code, rep = run_command(["entropy", "--sft", fx(fixtures_dir, "threedot.sft"),
                                 "--mode", "box", "--Nmax", "1000"])
        assert time.perf_counter() - t0 < 0.5
        assert code == 1 and "1000000 cells" in rep["error"]

    def test_entropy_box_on_an_empty_subshift_names_it(self, tmp_path):
        # no symbol may sit at a cell, so every box counts 0; the box
        # estimate gave only "math domain error"
        spec = tmp_path / "empty.sft"
        spec.write_text("dimension: 2\nalphabet: 0 1\nforbidden:\n(0,0)=0\n(0,0)=1\n")
        for argv in (["entropy", "--mode", "box", "--Nmax", "3"], ["tame-check"], ["mmdim"]):
            code, rep = run_command([*argv, "--sft", str(spec)])
            assert code == 1 and rep["error"] == \
                "no admissible pattern fits the window: the subshift is empty"

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

    def test_cover_demo_counts_the_union_from_corners(self, tmp_path, monkeypatch):
        rects = tmp_path / "huge.rects"
        rects.write_text("0 999999 0 999999\n0 1 0 1\n")
        monkeypatch.setattr(md.IntRect, "points", None)
        code, rep = run_command(["cover-demo", "--rects", str(rects)])
        assert code == 0
        assert rep["results"]["union_cells"] == 10 ** 12
        assert rep["results"]["selected_cells"] == 10 ** 12

    def test_tame_check(self, fixtures_dir, tmp_path):
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
        # three-dot's squares are counted by rank up to the default Mmax 24
        code, rep = run_command(["tame-check", "--sft", fx(fixtures_dir, "threedot.sft")])
        assert code == 0 and rep["results"]["verdict"] == "consistent"
        assert len(rep["tables"]["tame"]["rows"]) == 24
        # hard squares are not linear, and the default Mmax 24 outgrows the
        # sweep and backtracking guards on them: the message names the depth
        # that failed and the largest Mmax that counts
        hard = tmp_path / "hard.sft"
        hard.write_text(HARD_SQUARES_TEXT)
        code, rep = run_command(["tame-check", "--sft", str(hard)])
        assert code == 1
        assert "depth M = 7" in rep["error"] and "largest Mmax" in rep["error"]
        assert rep["error"].endswith(" 6")
        code, rep = run_command(["tame-check", "--sft", str(hard), "--Mmax", "6"])
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

    @pytest.mark.parametrize("flag,argv,message", [
        ("--rect", ["count", "--sft", "threedot.sft", "--rect", "a,b"],
         "expected a comma-separated integer list, got 'a,b'"),
        ("--M-schedule", ["mmdim", "--sft", "fullshift2.sft", "--M-sch", "2,x"],
         "expected a comma-separated integer list, got '2,x'"),
        ("--action", ["covering", "--sft", "fullshift2.sft", "--N", "1", "--eps", "0.5",
                      "--action=1,2,3"], "expected 'a,b', got '1,2,3'"),
        ("--box", ["count", "--sft", "threedot.sft", "--box", "x"], "invalid int value: 'x'"),
        ("--algorithm", ["count", "--sft", "threedot.sft", "--box", "4", "--alg", "dp"],
         "invalid choice: 'dp' (choose from 'auto', 'backtracking')"),
    ])
    def test_refused_values_name_their_flag(self, fixtures_dir, flag, argv, message):
        argv = [fx(fixtures_dir, a) if a.endswith(".sft") else a for a in argv]
        assert run_command(argv) == (1, {"schema": 1, "command": argv[0],
                                         "error": f"argument {flag}: {message}"})

    def test_negative_values_of_every_flag_in_either_spelling(self, fixtures_dir):
        # a word of '-' and a digit or '.' is a value, whatever flag it follows
        reports = []
        for rect in (["--rect", "-3,2,0,1"], ["--rect=-3,2,0,1"]):
            code, rep = run_command(["count", "--sft", fx(fixtures_dir, "threedot.sft"), *rect])
            assert code == 0
            rep.pop("wall_time_s")
            reports.append(rep)
        assert reports[0] == reports[1]
        assert reports[0]["results"] == {"count": 128, "log2_count": 7.0, "cells": 12}
        for flag, value in (("--M-schedule", "-2,8"), ("--alpha", "-1e5"), ("--alpha", "-.5"),
                            ("--N-factor", "-3")):
            spellings = ([flag, value], [f"{flag}={value}"])
            read = [outcome(lambda a: cli._read_flags("mhdim", a), ["--sft", "f", *words],
                            CliError) for words in spellings]
            assert read[0] == read[1]
        assert read[0] == ("CliError",
                           "argument --N-factor: expected an integer of at least 1, got '-3'")

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


class TestSupportsOfAtLeast2To63Cells:
    """Supports of 2^63 cells or more, whose size ``len`` cannot return:
    each is read as an exact int, then refused by its guard before work
    or, for a closed form, reported."""

    @staticmethod
    def assert_refused(fixtures_dir, capsys, argv, message):
        argv = [fx(fixtures_dir, a) if a.endswith(".sft") else a for a in argv]
        t0 = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert re.match(r"meandim: error: .*guard", err) and message in err

    @pytest.mark.parametrize("command", ["mmdim", "mhdim"])
    def test_dimension_window_refused(self, fixtures_dir, capsys, command):
        self.assert_refused(fixtures_dir, capsys, [
            command, "--sft", "goldenrow.sft", "--action=100000,1", "--N-factor=100000"],
            "lambda_set would hold up to 25000750007500150000 points")

    def test_verify_theorem_count_refused(self, fixtures_dir, capsys):
        self.assert_refused(fixtures_dir, capsys, [
            "verify-theorem", "--sft", "fullshift2.sft", "--alpha", "3",
            "--action=100000,1", "--N-factor=100000"],
            "the count 2^25000750007500150000 has more bits")

    def test_covering_window_refused(self, fixtures_dir, capsys):
        self.assert_refused(fixtures_dir, capsys, [
            "covering", "--sft", "goldenrow.sft", "--N", "10000000000000000000",
            "--eps", "0.5"],
            "lambda_set would hold up to 30000000000000000006 points")

    def test_count_rect_refused(self, fixtures_dir, capsys):
        self.assert_refused(fixtures_dir, capsys, [
            "count", "--sft", "goldenrow.sft", "--rect", "0,10000000000000000000,0,1"],
            "a row of 10000000000000000001 cells")

    def test_lambda_density_reported(self, capsys):
        # a closed form, so no guard is needed: the size is exact, the report
        # correct
        argv = ["lambda-density", "--a", "1", "--b", "1", "--M", "3",
                "--N", "100000000000000000000"]
        assert main(argv) == 0
        out = capsys.readouterr()
        assert out.err == "" and json.loads(out.out)["results"]["density"] == 3.0
        assert md.lambda_count(1, 1, 3, 10 ** 20) == 25 + 9 * (10 ** 20 - 1) == \
            md.lattice.SweptWindow(1, 1, 3, 10 ** 20).size


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

    @pytest.mark.parametrize("action", ["3,0", "0,1", "-1,0", "1,1"])
    def test_one_dimensional_refuses_other_actions(self, fixtures_dir, monkeypatch, action):
        # the 1D check has no action factor: it used to PASS (3,0) against
        # the horizontal rhs; it is refused before any count
        def no_count(*args):
            raise AssertionError("a count ran")
        monkeypatch.setattr("meandim.dimensions.transfer_matrix_entropy_1d", no_count)
        monkeypatch.setattr("meandim.dimensions.plan", no_count)
        code, rep = run_command(["verify-theorem", "--sft", fx(fixtures_dir, "goldenmean1d.sft"),
                                 "--alpha", "2", "--action", action])
        assert code == 1 and rep["error"] == (
            f"a 1D subshift is verified along the shift 1,0 only, got the action {action}")

    @pytest.mark.parametrize("command", ["mhdim", "verify-theorem"])
    def test_action_recorded_in_inputs(self, fixtures_dir, command):
        code, rep = run_command([command, "--sft", fx(fixtures_dir, "fullshift2.sft"),
                                 "--action", "2,1"])
        assert code == 0 and rep["inputs"]["action"] == [2, 1]

    @pytest.mark.parametrize("sft", ["goldenmean1d.sft", "goldenrow.sft"])
    def test_unsupported_measure_is_error(self, fixtures_dir, sft):
        # the Bernoulli measure charges the forbidden word 11
        code, rep = run_command(["verify-theorem", "--sft", fx(fixtures_dir, sft),
                                 "--measure", fx(fixtures_dir, "bern12.measure")])
        assert code == 1 and rep["error"] == ("measure puts positive mass on a forbidden "
                                              "pattern; it is not supported on this subshift")

    @pytest.mark.parametrize("sft", ["goldenmean1d.sft", "goldenrow.sft"])
    def test_unsupported_measure_refused_before_any_count(self, fixtures_dir, monkeypatch, sft):
        def no_count(*args):
            raise AssertionError("a count ran")
        monkeypatch.setattr("meandim.dimensions.transfer_matrix_entropy_1d", no_count)
        monkeypatch.setattr("meandim.dimensions.plan", no_count)
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
        assert [c["name"] for c in rep["checks"]] == ["minkowski_extrapolation"]
        assert [s["name"] for s in rep["skipped"]] == ["hausdorff_upper_at_depth",
                                                      "hausdorff_lower_at_depth"]
        assert all("nearest-neighbour" in s["reason"] for s in rep["skipped"])
        assert "hausdorff_bracket" not in rep["results"]

    @pytest.mark.parametrize("argv, skipped", [
        (["goldenrow.sft", "--measure", "parry_golden.measure"], 0),
        (["goldenrow.sft"], 3),
        (["goldenrow.sft", "--action", "1,1"], 3),
        (["fullshift2.sft", "--measure", "bern12.measure", "--action", "2,1"], 2),
        (["threedot.sft"], 3),
        (["fullshift2.sft", "--measure", "bern12.measure"], 0),
        (["hardsquares.sft"], 5),
        (["goldenmean1d.sft"], 0),
        (["no000"], 2)],
        ids=["goldenrow-parry", "goldenrow", "goldenrow-1,1", "fullshift2-bern12-2,1",
             "threedot", "fullshift2-bern12", "hardsquares", "goldenmean1d", "no000"])
    def test_every_identity_checked_or_skipped_once(self, fixtures_dir, tmp_path, argv,
                                                    skipped):
        # each run lists every check of its dimension once, in order: the
        # ones run in checks, then the ones not run in skipped
        spec = tmp_path / "no000.sft"
        spec.write_text("dimension: 1\nalphabet: 0 1\nforbidden:\n(0)=0 (1)=0 (2)=0\n")
        argv = [str(spec) if a == "no000" else fx(fixtures_dir, a) if "." in a else a
                for a in argv]
        code, rep = run_command(["verify-theorem", "--sft", *argv, "--alpha", "2"])
        assert code == 0 and len(rep["skipped"]) == skipped
        checked = [c["name"] for c in rep["checks"]
                   if not c["name"].startswith("rdim_sandwich_scale_")]
        want = (VERIFY_CHECKS_1D if md.parse_sft(argv[0]).dimension == 1
                else VERIFY_CHECKS_2D)
        assert checked + [s["name"] for s in rep["skipped"]] == want
        assert all(s["reason"] for s in rep["skipped"])

    def test_a_measure_leaves_the_count_checks_as_they_are(self, fixtures_dir):
        entries = []
        for extra in ([], ["--measure", fx(fixtures_dir, "parry_golden.measure")]):
            code, rep = run_command(["verify-theorem", "--sft",
                                     fx(fixtures_dir, "goldenrow.sft"), "--alpha", "2",
                                     *extra])
            assert code == 0
            entries.append([c for c in rep["checks"] if c["name"] in
                            ("mmdim_extrapolation", "mhdim_upper_extrapolation")])
        assert len(entries[0]) == 2 and entries[0] == entries[1]

    @pytest.mark.parametrize("sft, check", [("goldenmean1d.sft", "hausdorff_lower_at_depth"),
                                            ("goldenrow.sft", "mhdim_lower_consistent")])
    def test_lower_bound_one_sided_for_a_measure_that_is_not_maximal(self, tmp_path,
                                                                     fixtures_dir, sft, check):
        # a measure that is not maximal bounds the dimension from below
        # only: the 1D bracket's lower end reads 0.319 against the rhs 0.694
        measure = tmp_path / "skewed.measure"
        measure.write_text("type: markov-row\nalphabet: 0 1\ntransition:\n0.8 0.2\n1 0\n")
        code, rep = run_command(["verify-theorem", "--sft", fx(fixtures_dir, sft),
                                 "--measure", str(measure), "--alpha", "2"])
        lower, = (c for c in rep["checks"] if c["name"] == check)
        assert code == 0 and rep["verdict"] == "PASS"
        assert not lower["two_sided"] and lower["lhs"] < lower["rhs"] - 0.1

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

    def test_negative_action_in_either_spelling(self, fixtures_dir, capsys):
        argv = ["verify-theorem", "--sft", fx(fixtures_dir, "threedot.sft"), "--alpha", "2"]
        printed = []
        for spelling in (["--action", "-3,2"], ["--action=-3,2"]):
            assert main(argv + spelling) == 0
            printed.append(capsys.readouterr().out)
        assert json.loads(printed[0])["verdict"] == "PASS"
        same = [re.sub(r'"wall_time_s": [^\n]*', "", text) for text in printed]
        assert same[0] == same[1]
        code, rep = run_command(["covering", "--sft", fx(fixtures_dir, "goldenrow.sft"),
                                 "--action", "-1,1", "--N", "20", "--eps", "0.3"])
        assert code == 0 and rep["inputs"]["action"] == [-1, 1]
        # a flag after --action is still a flag
        code, rep = run_command(argv + ["--action", "--alpha", "2"])
        assert code == 1 and rep["error"] == "argument --action: expected one argument"

    @pytest.mark.parametrize("action", ["2,1", "1,4", "0,1"])
    def test_skew_action_three_dot(self, fixtures_dir, action):
        # skew windows of three-dot are counted by rank; its entropy is 0
        code, rep = run_command([
            "verify-theorem", "--sft", fx(fixtures_dir, "threedot.sft"),
            "--action", action, "--alpha", "2"])
        assert code == 0 and rep["verdict"] == "PASS" and rep["rhs"] == 0.0

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
        # five depths with two windows each, each built and planned once;
        # when each estimator counted its own windows, three-dot took 20
        # builds and the golden row with its measure 30, and when each
        # count planned its window again, 20 plans
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(f"meandim.dimensions.{name}", wrapper)

        for name in ("bowen_window", "plan", "max_cylinder_log2_prob"):
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
            assert (calls.get("bowen_window", 0), calls.get("plan", 0),
                    calls.get("max_cylinder_log2_prob", 0)) == want

    def test_each_skew_window_walked_once(self, fixtures_dir, monkeypatch):
        # three-dot's ten windows along (7, 5) are counted by rank: nine are
        # past the bound that their cells set on the elimination, so their
        # plans walk their bandwidth, and each elimination walks its window's
        # placements; the certificate's 2x2 to 4x4 boxes are rectangles, read
        # from rank strips that walk none.  When each count planned and
        # checked its window again, the bandwidth walk ran 27 times and the
        # placements walk 40; before the strips, the boxes made it 22
        calls = {}

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(md.subshift._LinearSpec, "bandwidth")
        counted(md.LatticeSet, "placements")
        code, rep = run_command(["verify-theorem", "--sft", fx(fixtures_dir, "threedot.sft"),
                                 "--alpha", "2", "--action", "7,5"])
        assert code == 0 and rep["verdict"] == "PASS"
        assert calls == {"bandwidth": 9, "placements": 19}

    def test_skew_action_constrained_system_refused(self, fixtures_dir, tmp_path):
        # three-dot's skew windows are counted by rank; hard squares are not
        # linear, so their diagonal windows would be backtracked past the
        # guard, while their vertical windows are rectangles
        code, rep = run_command([
            "verify-theorem", "--sft", fx(fixtures_dir, "threedot.sft"),
            "--action", "1,1"])
        assert code == 0 and rep["verdict"] == "PASS" and rep["rhs"] == 0.0
        hard = tmp_path / "hard.sft"
        hard.write_text(HARD_SQUARES_TEXT)
        code, rep = run_command(["verify-theorem", "--sft", str(hard), "--action", "1,1"])
        assert code == 1 and rep["error"].startswith(
            "cannot count the Bowen window W(M=2, N=16) along (1,1): ")
        assert "above the backtracking guard 64" in rep["error"]
        code, rep = run_command(["verify-theorem", "--sft", str(hard), "--action", "0,1"])
        assert code == 0 and rep["verdict"] == "BOUNDS-ONLY"

    def test_wrong_tolerance_fails_with_exit_2(self, fixtures_dir):
        code, rep = run_command([
            "verify-theorem", "--sft", fx(fixtures_dir, "goldenrow.sft"),
            "--alpha", "2", "--tolerance", "1e-13"])
        assert code == 2 and rep["verdict"] == "FAIL"

    def test_strict_refuses_uncertified(self, tmp_path):
        # hard squares derive no certificate: their patterns span two rows
        p = tmp_path / "hard.sft"
        p.write_text(HARD_SQUARES_TEXT)
        code, rep = run_command(["verify-theorem", "--sft", str(p), "--strict"])
        assert code == 1 and "certificate" in rep["error"]
        code, rep = run_command(["verify-theorem", "--sft", str(p)])
        assert code == 0 and rep["verdict"] == "BOUNDS-ONLY"

    def test_unlabelled_golden_row_gets_the_labelled_report(self, tmp_path):
        reports = []
        for name, text in [("labelled", GOLDEN_ROW_TEXT),
                           ("unlabelled", GOLDEN_ROW_TEXT.replace("certified: row-lift\n", ""))]:
            p = tmp_path / f"{name}.sft"
            p.write_text(text)
            code, rep = run_command(["verify-theorem", "--sft", str(p), "--alpha", "2"])
            assert code == 0 and rep["verdict"] == "PASS"
            del rep["wall_time_s"], rep["inputs"]["sft"]
            reports.append(rep)
        assert reports[0] == reports[1]

    def test_swapped_three_dot_passes(self, tmp_path):
        p = tmp_path / "swapped.sft"
        p.write_text(SWAPPED_THREE_DOT_TEXT)
        code, rep = run_command(["verify-theorem", "--sft", str(p), "--alpha", "2"])
        assert code == 0 and rep["verdict"] == "PASS" and rep["rhs"] == 0.0

    def test_false_certified_line_exits_1_with_its_line(self, tmp_path):
        p = tmp_path / "false.sft"
        p.write_text(GOLDEN_ROW_TEXT.replace("row-lift", "full"))
        code, rep = run_command(["verify-theorem", "--sft", str(p), "--alpha", "2"])
        assert code == 1 and rep["error"].startswith("line 4: certified: 'full'")


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

    @pytest.mark.parametrize("argv,printed", [
        (["-h"], "usage: meandim "), (["--he", "x"], "usage: meandim "),
        (["--vers"], f"meandim {md.__version__}\n")])
    def test_top_level_flags_abbreviated(self, capsys, argv, printed):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 0 and capsys.readouterr().out.startswith(printed)

    @pytest.mark.parametrize("word", ["--frob", "--", "--version=1"])
    def test_top_level_flag_without_command(self, word):
        assert run_command([word, "count"])[1]["error"] \
            == "the following arguments are required: command"

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

    def test_a_run_loads_no_argparse(self):
        # a fresh interpreter, as every command-line run is
        code = ("import sys\n"
                "from meandim.cli import main\n"
                "code = main(['lambda-density', '--a', '1', '--b', '0', '--M', '8',\n"
                "             '--N', '512'])\n"
                "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=meandim_env())
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"


# the flag reader against the argparse parser each command had before it:
# the same flags and keywords, with --action's negative value joined to it
# by '=' as the parser's caller did.  The type functions that raised
# argparse.ArgumentTypeError then raise CliError now.
class Refused(Exception):
    pass


class OracleParser(argparse.ArgumentParser):
    def error(self, message):
        raise Refused(message)


def argparse_type(kind):
    if kind not in (cli._finite_float, cli._at_least_one):
        return kind

    def typed(text):
        try:
            return kind(text)
        except CliError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return typed


def oracle_flags(name: str) -> dict:
    flags = {}
    for flag in _COMMANDS[name][2]:
        flag, kwargs = (flag, cli._SHARED[flag]) if isinstance(flag, str) else flag
        flags[flag] = kwargs
    return {**flags, "--out": {}, "--csv": {}}


def oracle_read(name: str, argv: list[str]):
    p = OracleParser(prog=f"meandim {name}")
    for flag, kwargs in oracle_flags(name).items():
        p.add_argument(flag, **{k: argparse_type(v) if k == "type" else v
                                for k, v in kwargs.items()})
    return outcome(p.parse_args, action_values(argv), (Refused, CliError))


def action_values(argv: list[str]) -> list[str]:
    joined = []
    for token in argv:
        if joined and joined[-1] == "--action" and re.match(r"-[0-9]", token):
            joined[-1] = f"--action={token}"
        else:
            joined.append(token)
    return joined


def outcome(read, argv, refusals):
    """("ok", attributes), ("exit", code) or (exception name, message)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return "ok", vars(read(argv))
    except refusals as exc:
        return type(exc).__name__, str(exc)
    except SystemExit as exc:
        return "exit", exc.code


def negatives_joined(name: str, argv: list[str]) -> list[str]:
    """``argv`` with every flag that takes a value, in full or by a unique
    prefix, joined by '=' to a following word of '-' and a digit or '.'."""
    flags = oracle_flags(name)
    out = []
    for i, token in enumerate(argv):
        if token == "--":
            return out + argv[i:]
        prev = out[-1] if out else ""
        named = [prev] if prev in flags else \
            [f for f in flags if f.startswith(prev)] if prev.startswith("--") else []
        if (len(named) == 1 and "=" not in prev and "action" not in flags[named[0]]
                and re.match(r"-[0-9.]", token)):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


FLAG_NAMES = sorted({flag for name in _COMMANDS for flag in oracle_flags(name)})
# values each type reads, and values it refuses
VALUES = {int: (["3", "-3", "0"], ["x", "2.5"]),
          cli._finite_float: (["2.5", "-.5", "1e3", "-1e5"], ["nan", "-inf", "-1."]),
          cli._at_least_one: (["3"], ["0", "-3"]),
          cli._int_list: (["1,2", "-2,8", "-3,2,0,1"], ["a,b"]),
          cli._action: (["1,1", "-3,2"], ["1,2,3", "x"]),
          None: (["f.sft", "-", ""], [])}
# the required flags of each command
REQUIRED = {name: [f for f, kwargs in oracle_flags(name).items() if kwargs.get("required")]
            for name in _COMMANDS}


@st.composite
def command_argv(draw):
    """A command and argv for it: mostly its own flags with values their
    types read, in full or abbreviated, with '=' or as the next word;
    among them other commands' flags, unknown and ambiguous ones,
    refused values, flags without a value, --strict=1, -h and --."""
    name = draw(st.sampled_from(list(_COMMANDS)))
    flags = oracle_flags(name)

    @st.composite
    def own(draw, flag=None):
        flag = flag or draw(st.sampled_from(list(flags)))
        kwargs = flags[flag]
        spelled = flag[:draw(st.integers(3, len(flag)))]
        if "action" in kwargs:
            return [spelled]
        good, bad = (list(kwargs["choices"]), ["dp"]) if "choices" in kwargs \
            else VALUES[kwargs.get("type")]
        value = draw(st.sampled_from(good * 3 + bad))
        return draw(st.sampled_from([[spelled, value], [f"{spelled}={value}"]]))

    other = st.builds(lambda f, n: f[:n] if f.startswith("--") else f,
                      st.sampled_from(FLAG_NAMES + ["--frob", "-h", "--help"]),
                      st.integers(3, 13))
    value = st.sampled_from(sum((good + bad for good, bad in VALUES.values()), ["-x"]))
    stray = st.one_of(
        st.tuples(other, value).map(list),
        st.builds(lambda f, v: [f"{f}={v}"], other, value),
        other.map(lambda f: [f]),  # a flag without its value
        value.map(lambda v: [v]),
        st.sampled_from([["--"], ["--strict=1"], ["-h"], ["--he"]]))
    words = draw(st.lists(own(), max_size=4))
    if draw(st.integers(0, 3)):
        words += [draw(own(flag)) for flag in REQUIRED[name]]
    if draw(st.booleans()):
        words += draw(st.lists(stray, min_size=1, max_size=3))
    words = draw(st.permutations(words))
    return name, [token for w in words for token in w]


class TestFlagReader:
    @settings(max_examples=300, deadline=None)
    @given(command_argv())
    def test_matches_argparse(self, drawn):
        name, argv = drawn
        new = outcome(lambda a: cli._read_flags(name, a), argv, CliError)
        words = str(new[1]).partition("unrecognized arguments: ")[2]
        if words:  # as the oracle names them, --action joined to its value
            words = " ".join(action_values(words.split(" ")))
            new = ("CliError", f"unrecognized arguments: {words}")

        def agrees(old):
            if old[0] == "CliError":
                # a list flag's bad value went past argparse without naming
                # its flag; now every refused value names it
                return new[0] == "CliError" and bool(
                    re.fullmatch(rf"argument --[\w-]+: {re.escape(old[1])}", new[1]))
            return new == (("CliError", old[1]) if old[0] == "Refused" else old)

        # argparse took "-3,2" or "-1e5" after a flag for a flag, and only
        # --action's caller joined it; now every flag reads it as its value
        olds = [oracle_read(name, argv), oracle_read(name, negatives_joined(name, argv))]
        assert agrees(olds[0]) or agrees(olds[1]), (new, olds)

    def test_accepts_and_refuses(self):
        # the drawn runs are accepted and refused, about 1 in 3 accepted
        kinds = set()

        @settings(max_examples=100, deadline=None)
        @given(command_argv())
        def collect(drawn):
            kinds.add(outcome(lambda a: cli._read_flags(drawn[0], a), drawn[1], CliError)[0])

        collect()
        assert {"ok", "CliError"} <= kinds


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

    def test_unwritable_out_is_one_error_line(self, tmp_path, fixtures_dir, capsys):
        for target in (tmp_path / "missing" / "x.json", fixtures_dir):
            code = main(["lambda-density", "--a", "1", "--b", "0", "--M", "8", "--N", "512",
                         "--out", str(target)])
            err = capsys.readouterr().err
            assert code == 1
            assert err.count("\n") == 1 and err.startswith("meandim: error: ")
            assert str(target) in err

    def test_unwritable_csv_is_one_error_line(self, tmp_path, fixtures_dir, capsys):
        target = tmp_path / "missing" / "x.csv"
        code = main(["mmdim", "--sft", fx(fixtures_dir, "goldenrow.sft"), "--csv", str(target)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("meandim: error: ")
        assert str(target) in err and not target.parent.exists()

    def test_unwritable_paths_refused_before_the_command_runs(self, tmp_path, fixtures_dir,
                                                               monkeypatch):
        def no_count(*args, **kwargs):
            raise ResourceGuardError("a count ran")
        monkeypatch.setattr("meandim.cli.bowen_table", no_count)
        monkeypatch.setattr("meandim.cli.count_locally_admissible", no_count)
        sft = fx(fixtures_dir, "goldenrow.sft")
        missing = tmp_path / "missing" / "x.csv"
        # count writes no table, yet its unwritable --csv is refused too
        for argv in (["mmdim", "--sft", sft], ["count", "--sft", sft, "--box", "3"]):
            for flag, target, error in (
                    ("--csv", missing, f"[Errno 2] No such file or directory: '{missing}'"),
                    ("--out", tmp_path, f"[Errno 21] Is a directory: '{tmp_path}'")):
                code, rep = run_command(argv + [flag, str(target)])
                assert code == 1 and rep["error"] == error
            # paths that can be written are neither made nor emptied when the command fails
            old = tmp_path / "old.json"
            old.write_text("kept")
            code, rep = run_command(argv + ["--out", str(old), "--csv", str(tmp_path / "t.csv")])
            assert code == 1 and rep["error"] == "a count ran"
            assert old.read_text() == "kept" and not (tmp_path / "t.csv").exists()

    def test_console_entry_point(self, fixtures_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "meandim", "lambda-density",
             "--a", "1", "--b", "0", "--M", "8", "--N", "512"],
            capture_output=True, text=True, env=meandim_env())
        assert proc.returncode == 0 and proc.stderr == ""
        rep = json.loads(proc.stdout)
        assert rep["command"] == "lambda-density"

    @pytest.mark.parametrize("argv", [
        ["lambda-density", "--a", "1", "--b", "1", "--M", "3", "--N", "5"],
        ["verify-theorem", "--help"]], ids=["report", "help"])
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_ends_with_one_error_line(self, argv, unbuffered):
        # the reading end of stdout is closed before the child writes
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "meandim", *argv], stdout=write,
                                  stderr=subprocess.PIPE, text=True,
                                  env=meandim_env(PYTHONUNBUFFERED=unbuffered))
        finally:
            os.close(write)
        lines = proc.stderr.splitlines()
        assert proc.returncode == 1 and len(lines) == 1, proc.stderr
        assert lines[0].startswith("meandim: error: ") and "Broken pipe" in lines[0]

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
def test_readme_cli_commands_run(argv):
    # test_golden.py reruns each corpus argv against its golden file
    assert argv in golden.ARGV and golden.load(argv)["exit_code"] == 0


def test_readme_library_example_runs(monkeypatch):
    root = Path(__file__).resolve().parent.parent
    monkeypatch.chdir(root)
    readme = (root / "README.md").read_text()
    code = readme.split("## Estimators", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    scope = {}
    exec(code, scope)
    assert scope["lower"].value <= scope["upper"].value + 1e-9
    assert scope["mm"].schedule == ((2, 32), (3, 48), (4, 64), (5, 80), (6, 96))
