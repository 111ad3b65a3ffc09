import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import meandim as md
from meandim import IntRect, LatticeSet, Pattern, kernels
from meandim.errors import EmptyLanguageError, ResourceGuardError
from meandim.subshift import (MAX_COUNT_BITS, RectCounter, _CellSweep, _LinearSpec,
                              _one_d_extendable, _placement_groups, _recoding_width,
                              _row_product, _squaring_pays,
                              _walks_by_iteration, _walks_by_squaring,
                              base_of_row_lift, transfer_graph_1d)

from conftest import LOG2_PHI


def fib_count(n):
    # golden-mean words of length n
    a, b = 1, 2
    for _ in range(n):
        a, b = b, a + b
    return a


@st.composite
def small_specs(draw, dimension=2, symbols=(1, 3)):
    """SFTs on a number of symbols in the range ``symbols`` whose forbidden
    patterns fit inside a 2x2, 1x3 or 3x1 box (2D), so spans cover
    diagonals and three columns, or inside a word of width 3 (1D)."""
    q = draw(st.integers(*symbols))
    boxes = [(2, 2), (1, 3), (3, 1)] if dimension == 2 else [(3, 1)]
    pats = []
    for _ in range(draw(st.integers(1, 3))):
        bw, bh = draw(st.sampled_from(boxes))
        cells = draw(st.lists(st.tuples(st.integers(0, bw - 1), st.integers(0, bh - 1)),
                              min_size=1, max_size=3, unique=True))
        pats.append(Pattern.from_dict(
            {pt: str(draw(st.integers(0, q - 1))) for pt in cells}))
    return md.SftSpec(dimension, md.alphabet(*(str(s) for s in range(q))), tuple(pats))


@st.composite
def row_specs(draw):
    """2D SFTs on at most 3 symbols whose forbidden patterns each lie in
    one row (any of rows 0-2) and within three columns, holes allowed."""
    q = draw(st.integers(1, 3))
    pats = []
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.integers(0, 2))
        cols = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
        pats.append(Pattern.from_dict(
            {(m, row): str(draw(st.integers(0, q - 1))) for m in cols}))
    return md.SftSpec(2, md.alphabet(*(str(s) for s in range(q))), tuple(pats))


@st.composite
def linear_specs(draw):
    """SFTs over GF(q), q in {2, 3, 5}, with 1 or 2 shapes inside a 2x2, 1x3
    or 3x1 box; each shape forbids every pattern that breaks one of its
    random linear equations.  The constants come from one random
    assignment of the 3x3 frame, read on each shape's anchored cells, so
    shapes that anchor alike still share an allowed pattern."""
    q = draw(st.sampled_from((2, 3, 5)))
    frame = {(m, n): draw(st.integers(0, q - 1)) for m in range(3) for n in range(3)}
    pats = []
    for _ in range(draw(st.integers(1, 2))):
        bw, bh = draw(st.sampled_from([(2, 2), (1, 3), (3, 1)]))
        cells = draw(st.lists(st.tuples(st.integers(0, bw - 1), st.integers(0, bh - 1)),
                              min_size=1, max_size=3, unique=True))
        m0, n0 = min(m for m, _ in cells), min(n for _, n in cells)
        cells = [(m - m0, n - n0) for m, n in cells]
        k = len(cells)
        eqs = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=k, max_size=k),
                            min_size=1, max_size=k))
        sol = [frame[pt] for pt in cells]
        for v in itertools.product(range(q), repeat=k):
            if any(sum(c * (x - y) for c, x, y in zip(eq, v, sol)) % q for eq in eqs):
                pats.append(Pattern.from_dict({pt: str(x) for pt, x in zip(cells, v)}))
    assume(pats)
    return md.SftSpec(2, md.alphabet(*(str(s) for s in range(q))), tuple(pats))


def parity_spec(q, cells, const=0):
    """The spec forbidding every pattern on ``cells`` whose symbols do not
    sum to ``const`` mod q."""
    return md.SftSpec(2, md.alphabet(*(str(s) for s in range(q))), tuple(
        Pattern.from_dict({pt: str(x) for pt, x in zip(cells, v)})
        for v in itertools.product(range(q), repeat=len(cells)) if sum(v) % q != const))


def dense_gf2_rank(support, shape):
    """Rank over GF(2) of the rows x(u + s) summed over s in ``shape``, one
    per placement u of the shape inside ``support``, each row a full-width
    int reduced against a pivot per highest bit."""
    index = {pt: i for i, pt in enumerate(support)}
    pivots = {}
    for m, n in support:
        if all((m + dm, n + dn) in index for dm, dn in shape):
            row = sum(1 << index[m + dm, n + dn] for dm, dn in shape)
            while row and row.bit_length() in pivots:
                row ^= pivots[row.bit_length()]
            if row:
                pivots[row.bit_length()] = row
    return len(pivots)


def object_sweep_totals(sweep, width):
    """Totals of columns 0..width of ``sweep``'s rectangles, swept with an
    object array of Python ints from the first cell on: the reference for
    ``_CellSweep.total``, which starts in int64."""
    q, height, span = sweep.q, sweep.height, sweep.span
    first = [sweep._hits(i) for i in range(span)]
    steady = [sweep._hits(span + (r - span) % height) for r in range(height)]
    vec = np.ones(1, dtype=object)
    totals = [1]
    cell = 0
    while len(totals) <= width:
        for _ in range(height):
            grown = np.tile(vec, q)
            if cell < span:
                grown[first[cell]] = 0
                vec = grown
            else:
                grown[steady[cell % height]] = 0
                vec = grown[0::q]
                for s in range(1, q):
                    vec = vec + grown[s::q]
            cell += 1
        totals.append(int(vec.sum()))
    return totals


def recursive_enumeration(sft, support):
    """Locally admissible patterns on ``support`` from a recursive walk over
    the same placement groups: the oracle for the stream of
    ``enumerate_locally_admissible``, which runs ``kernels.backtrack``."""
    points = LatticeSet.of(support).points
    n = len(points)
    if n == 0:
        yield Pattern(())
        return
    groups = _placement_groups(sft, points)
    syms = sft.alphabet.symbols
    assign = [0] * n

    def ok_at(level):
        return not any(all(assign[c] == s for c, s in placement)
                       for placement in groups[level])

    def rec(level):
        for s in range(len(syms)):
            assign[level] = s
            if not ok_at(level):
                continue
            if level == n - 1:
                yield Pattern(tuple((points[i], syms[assign[i]]) for i in range(n)))
            else:
                yield from rec(level + 1)

    yield from rec(0)


class TestPatterns:
    def test_restrict_identity_and_cases(self):
        p = Pattern.from_dict({(0, 0): "a", (1, 0): "b", (0, 1): "a"})
        assert p.restrict(p.domain()) == p
        assert p.restrict(LatticeSet([(1, 0)])).cells == (((1, 0), "b"),)
        empty = p.restrict(LatticeSet(()))
        q = Pattern.from_dict({(0, 0): "x"})
        assert empty == q.restrict(LatticeSet(()))

    def test_restrict_outside_support_rejected(self):
        p = Pattern.from_dict({(0, 0): "a"})
        with pytest.raises(ValueError):
            p.restrict(LatticeSet([(5, 5)]))

    def test_duplicate_cell_rejected(self):
        with pytest.raises(ValueError):
            Pattern((((0, 0), "a"), ((0, 0), "b")))

    def test_unknown_symbol_rejected_in_spec(self):
        with pytest.raises(ValueError):
            md.SftSpec(1, md.alphabet("0", "1"), (Pattern.from_dict({(0, 0): "2"}),))


class TestCounts:
    def test_full_shift_box(self, full2):
        assert md.count_locally_admissible(full2, IntRect(0, 1, 0, 1)) == 16

    def test_golden_row_word(self, goldenrow):
        assert md.count_locally_admissible(goldenrow, md.row_interval(3)) == 5

    def test_three_dot_box(self, threedot):
        assert md.count_locally_admissible(threedot, IntRect(0, 1, 0, 1)) == 8

    def test_three_dot_count_law_brute_force(self, threedot):
        for N in range(1, 6):
            c = md.count_locally_admissible(threedot, IntRect(0, N - 1, 0, N - 1),
                                            algorithm="backtracking")
            assert c == 2 ** (2 * N - 1)

    def test_row_lift_product_identity(self, golden1d, goldenrow):
        for N in range(1, 7):
            row = md.count_locally_admissible(golden1d, md.row_interval(N))
            assert md.count_locally_admissible(golden1d, IntRect(0, N - 1, 0, 0)) == row
            for M in range(1, 7):
                box = md.count_locally_admissible(goldenrow, IntRect(0, N - 1, 0, M - 1))
                assert box == row ** M

    def test_dp_and_backtracking_agree(self, goldenrow, threedot):
        for sft in (goldenrow, threedot):
            for w in range(1, 6):
                for h in range(1, 5):
                    rect = IntRect(0, w - 1, 0, h - 1)
                    dp = RectCounter(sft).try_count(w, h)
                    bt = md.count_locally_admissible(sft, rect, algorithm="backtracking")
                    assert dp == bt, (sft.certified, w, h)

    @settings(max_examples=400, deadline=None)
    @given(small_specs(), st.integers(1, 5), st.integers(1, 5))
    def test_dp_and_backtracking_agree_random_specs(self, sft, w, h):
        assume(sft.nsymbols ** (w * h) <= 4096)
        rect = IntRect(0, w - 1, 0, h - 1)
        # every rectangle drawn here is within the sweep's state guard
        rc = RectCounter(sft)
        dp = rc.try_count(w, h)
        assert dp is not None
        bt = md.count_locally_admissible(sft, rect, algorithm="backtracking")
        assert dp == bt == len(list(md.enumerate_locally_admissible(sft, rect)))
        # a rectangle is routed without its points, like its materialised set
        assert md.count_locally_admissible(sft, rect) == dp == \
            md.count_locally_admissible(sft, LatticeSet.from_rect(rect))
        assert _CellSweep(sft, h, False).total(w) == _CellSweep(sft, w, True).total(h) == dp
        flipped = md.SftSpec(2, sft.alphabet, tuple(
            Pattern(tuple(((n, m), sym) for (m, n), sym in f.cells)) for f in sft.forbidden))
        assert RectCounter(flipped).try_count(h, w) == dp
        for narrower in range(1, w):
            assert rc.try_count(narrower, h) == RectCounter(sft).try_count(narrower, h)

    @settings(max_examples=300, deadline=None)
    @given(small_specs(), st.one_of(
        st.builds(md.norm_ball, st.integers(0, 2), st.just("l2")),
        st.builds(md.bowen_window,
                  st.builds(md.ActionSpec, st.integers(-2, 2), st.integers(1, 2)),
                  st.integers(1, 3), st.integers(1, 2))))
    def test_backtracking_matches_enumeration_off_rectangles(self, sft, support):
        assume(sft.nsymbols ** len(support) <= 2 ** 13)
        bt = md.count_locally_admissible(sft, support, algorithm="backtracking")
        assert bt == len(list(md.enumerate_locally_admissible(sft, support)))

    @settings(max_examples=300, deadline=None)
    @given(small_specs(dimension=1), st.integers(1, 9))
    def test_word_count_1d_matches_backtracking(self, sft, length):
        assert md.word_count_1d(sft, length) == md.count_locally_admissible(
            sft, md.row_interval(length), algorithm="backtracking") == \
            md.count_locally_admissible(sft, IntRect(0, length - 1, 0, 0))

    def test_counts_on_translated_supports_match(self, goldenrow):
        a = md.count_locally_admissible(goldenrow, IntRect(0, 3, 0, 2))
        b = md.count_locally_admissible(goldenrow, IntRect(-7, -4, 5, 7))
        assert a == b

    def test_empty_support(self, goldenrow):
        assert md.count_locally_admissible(goldenrow, LatticeSet(())) == 1

    def test_restriction_stays_admissible(self, goldenrow):
        support = LatticeSet.from_rect(IntRect(0, 3, 0, 1))
        sub = LatticeSet.from_rect(IntRect(0, 2, 0, 0))
        subpats = {p.restrict(sub) for p in
                   md.enumerate_locally_admissible(goldenrow, support)}
        allowed = set(md.enumerate_locally_admissible(goldenrow, sub))
        assert subpats <= allowed

    def test_cell_monotonicity(self, goldenrow, threedot):
        small = LatticeSet.from_rect(IntRect(0, 2, 0, 1))
        big = LatticeSet.from_rect(IntRect(0, 3, 0, 2))
        for sft in (goldenrow, threedot):
            c_small = md.count_locally_admissible(sft, small)
            c_big = md.count_locally_admissible(sft, big)
            extra = len(big) - len(small)
            assert c_big <= c_small * sft.nsymbols ** extra

    def test_log_subadditive_on_disjoint_rows(self, goldenrow, full2):
        r1 = LatticeSet.from_rect(IntRect(0, 4, 0, 0))
        r2 = LatticeSet.from_rect(IntRect(0, 4, 2, 2))
        both = r1.union(r2)
        for sft, exact in ((goldenrow, True), (full2, True)):
            c1 = md.count_locally_admissible(sft, r1)
            c2 = md.count_locally_admissible(sft, r2)
            cb = md.count_locally_admissible(sft, both)
            assert math.log2(cb) <= math.log2(c1) + math.log2(c2) + 1e-12
            if exact:
                assert cb == c1 * c2

    def test_backtracking_guard(self, hardsquares):
        # a skew window is no rectangle, and hard squares are not linear
        with pytest.raises(ResourceGuardError):
            md.count_locally_admissible(hardsquares, md.lambda_set(1, 1, 3, 30))

    def test_backtracking_work_guard(self, threedot, monkeypatch):
        # the 7x7 three-dot box makes 56,574 descents to its 2^13 patterns
        box = IntRect(0, 6, 0, 6)
        # under the default guard, the walk is not refused before it starts
        assert md.count_locally_admissible(threedot, box, algorithm="backtracking") == 2 ** 13
        monkeypatch.setattr(kernels, "MAX_NODES", 56_574)
        assert md.count_locally_admissible(threedot, box, algorithm="backtracking") == 2 ** 13
        monkeypatch.setattr(kernels, "MAX_NODES", 56_573)
        with pytest.raises(ResourceGuardError, match="descents"):
            md.count_locally_admissible(threedot, box, algorithm="backtracking")

    @settings(max_examples=100, deadline=None)
    @given(small_specs(symbols=(1, 4)), st.integers(1, 4), st.integers(1, 4))
    def test_free_symbols_bound_the_walk_from_below(self, sft, w, h):
        # no placement lies inside the free symbols, and the walk makes at
        # least |free|^(cells-1) descents, the bound the count refuses on
        pts = LatticeSet.of(IntRect(0, w - 1, 0, h - 1))
        groups = _placement_groups(sft, pts)
        free = kernels._free_symbols(sft.nsymbols, groups)
        assert all(not {s for _, s in pl} <= free for group in groups for pl in group)
        bound = len(free) ** (len(pts) - 1)
        assume(len(pts) > 1 and 0 < bound <= 4096)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "MAX_NODES", bound - 1)
            with pytest.raises(ResourceGuardError, match="descents"):
                sum(1 for _ in kernels.backtrack(len(pts), sft.nsymbols, groups))
            with pytest.raises(ResourceGuardError, match="at least"):
                kernels.backtrack_count(len(pts), sft.nsymbols, groups)

    def test_row_product_counts_past_the_guards(self, goldenrow):
        # the 50x50 square is over both sweep orientations' state guard and
        # the backtracking guard; rows of the golden row are independent
        assert md.count_locally_admissible(goldenrow, IntRect(0, 49, 0, 49)) == \
            fib_count(50) ** 50
        # the 29-cell l2 ball, whose backtracking visits every pattern
        assert md.count_locally_admissible(goldenrow, md.norm_ball(3, "l2")) == 3884296

    @settings(max_examples=300, deadline=None)
    @given(row_specs(), st.one_of(
        st.builds(IntRect, st.just(0), st.integers(0, 4), st.just(0), st.integers(0, 4)),
        st.builds(md.norm_ball, st.integers(0, 2), st.just("l2")),
        st.builds(md.bowen_window,
                  st.builds(md.ActionSpec, st.integers(-5, 5), st.integers(1, 2)),
                  st.integers(1, 3), st.integers(1, 2))))
    def test_row_product_matches_sweep_and_backtracking(self, sft, support):
        pts = LatticeSet.of(support)
        assume(sft.nsymbols ** len(pts) <= 2 ** 13)
        product = _row_product(sft, pts)
        rows: dict[int, list[int]] = {}
        for m, n in pts:
            rows.setdefault(n, []).append(m)
        if all(cols[-1] - cols[0] == len(cols) - 1 for cols in rows.values()):
            assert product is not None
        bt = md.count_locally_admissible(sft, pts, algorithm="backtracking")
        assert product in (None, bt)
        assert md.count_locally_admissible(sft, support) == bt == \
            len(list(md.enumerate_locally_admissible(sft, pts)))
        rect = pts.as_rect()
        if rect is not None:
            assert RectCounter(sft).try_count(rect.ncols, rect.nrows) == product

    @settings(max_examples=300, deadline=None)
    @given(small_specs(dimension=1), st.sets(st.integers(0, 12), max_size=10))
    def test_row_product_on_gapped_1d_supports(self, sft, columns):
        # a 1D support is one row: its runs factor when no forbidden word
        # fits across a gap between them
        assume(sft.nsymbols ** len(columns) <= 2 ** 12)
        pts = LatticeSet((m, 0) for m in columns)
        product = _row_product(sft, pts)
        wide = max(f.ncols_extent for f in sft.forbidden)
        cols = sorted(columns)
        if all(b - a == 1 or b - a >= wide for a, b in zip(cols, cols[1:])):
            assert product is not None
        bt = md.count_locally_admissible(sft, pts, algorithm="backtracking")
        assert product in (None, bt)
        assert md.count_locally_admissible(sft, pts) == bt == \
            len(list(md.enumerate_locally_admissible(sft, pts)))

    def test_holed_pattern_on_gapped_row_falls_through(self):
        # (0,0)=1 (2,0)=1 links the two runs of the row {0, 2}, so the row
        # is not a product of its runs: 3 patterns, not 2 * 2; the full row
        # below has 6
        bad = Pattern.from_dict({(0, 0): "1", (2, 0): "1"})
        sft = md.SftSpec(2, md.alphabet("0", "1"), (bad,))
        gapped = LatticeSet([(0, 0), (2, 0), (0, 1), (1, 1), (2, 1)])
        assert _row_product(sft, gapped) is None
        assert md.count_locally_admissible(sft, gapped) == 3 * 6 == \
            len(list(md.enumerate_locally_admissible(sft, gapped)))

    def test_runs_as_far_apart_as_the_widest_pattern_factor(self, goldenrow):
        # at M = 2 the Bowen window of the action (4, 1) leaves one-cell
        # gaps in its rows; a golden-row pattern is 2 wide, so no pattern
        # fits across a gap and each run counts on its own
        window = md.bowen_window(md.ActionSpec(4, 1), 2, 2)
        assert window.as_rect() is None
        assert _row_product(goldenrow, window) == 15625 == \
            md.count_locally_admissible(goldenrow, window, algorithm="backtracking")

    def test_count_bit_guard(self, goldenrow):
        # a row longer than the guard is refused before its 1D count is
        # formed; the 100000^2 box is refused through the CLI in test_cli
        t0 = time.perf_counter()
        with pytest.raises(ResourceGuardError, match="guard"):
            md.count_locally_admissible(goldenrow, IntRect(0, MAX_COUNT_BITS, 0, 0))
        assert time.perf_counter() - t0 < 1.0
        # tame-check's largest golden-row window, 513x513, is under the guard
        assert md.count_locally_admissible(goldenrow, IntRect(0, 512, 0, 512)) == \
            fib_count(513) ** 513

    def test_closed_form_bit_guard(self, full2):
        # q^cells is refused above the same guard before it is formed; the
        # 512x512 full-shift box has exactly MAX_COUNT_BITS cells
        assert md.count_locally_admissible(full2, IntRect(0, 511, 0, 511)) == \
            2 ** MAX_COUNT_BITS
        t0 = time.perf_counter()
        for support in (IntRect(0, 512, 0, 511), IntRect(0, 99999, 0, 99999)):
            with pytest.raises(ResourceGuardError, match="guard"):
                md.count_locally_admissible(full2, support)
        assert time.perf_counter() - t0 < 1.0
        ternary = md.full_shift(("0", "1", "2"))
        with pytest.raises(ResourceGuardError):
            md.count_locally_admissible(ternary, IntRect(0, 409, 0, 409))
        assert md.count_locally_admissible(ternary, IntRect(0, 399, 0, 399)) == 3 ** 160000


class TestEnumeration:
    def test_singleton_full_shift_order(self, full2):
        pats = list(md.enumerate_locally_admissible(full2, LatticeSet([(0, 0)])))
        assert [p.cells[0][1] for p in pats] == ["0", "1"]

    def test_golden_pairs(self, goldenrow):
        pats = list(md.enumerate_locally_admissible(goldenrow, md.row_interval(2)))
        words = ["".join(sym for _, sym in p.cells) for p in pats]
        assert words == ["00", "01", "10"]

    def test_empty_support_single_pattern(self, goldenrow):
        pats = list(md.enumerate_locally_admissible(goldenrow, LatticeSet(())))
        assert pats == [Pattern(())]

    def test_stream_length_equals_count(self, threedot):
        support = LatticeSet.from_rect(IntRect(0, 2, 0, 2))
        pats = list(md.enumerate_locally_admissible(threedot, support))
        assert len(pats) == md.count_locally_admissible(threedot, support)
        assert len(set(pats)) == len(pats)
        assert pats == sorted(pats, key=lambda p: tuple(sym for _, sym in p.cells))

    @settings(max_examples=300, deadline=None)
    @given(small_specs(), st.one_of(
        st.builds(IntRect, st.just(0), st.integers(0, 3), st.just(0), st.integers(0, 3)),
        st.builds(md.norm_ball, st.integers(0, 2), st.just("l2")),
        st.builds(md.bowen_window,
                  st.builds(md.ActionSpec, st.integers(-2, 2), st.integers(1, 2)),
                  st.integers(1, 3), st.integers(1, 2)),
        st.builds(LatticeSet, st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                      max_size=12))))
    def test_stream_matches_recursive_oracle(self, sft, support):
        pts = LatticeSet.of(support)
        assume(sft.nsymbols ** len(pts) <= 2 ** 12)
        assert list(md.enumerate_locally_admissible(sft, support)) == \
            list(recursive_enumeration(sft, support))

    def test_enumeration_bounded_by_work(self, threedot, monkeypatch):
        # the same walk as the count: 56,574 descents to the 7x7 box's 2^13
        # patterns
        box = IntRect(0, 6, 0, 6)
        monkeypatch.setattr(kernels, "MAX_NODES", 56_574)
        assert sum(1 for _ in md.enumerate_locally_admissible(threedot, box)) == 2 ** 13
        monkeypatch.setattr(kernels, "MAX_NODES", 56_573)
        with pytest.raises(ResourceGuardError, match="descents"):
            for _ in md.enumerate_locally_admissible(threedot, box):
                pass


class TestTransferEntropy:
    def test_full_shift_bit(self):
        assert md.transfer_matrix_entropy_1d(md.full_shift(("0", "1"), dimension=1)) == 1.0

    def test_golden_mean(self, golden1d):
        assert abs(md.transfer_matrix_entropy_1d(golden1d) - LOG2_PHI) < 1e-12

    def test_single_symbol(self):
        assert md.transfer_matrix_entropy_1d(md.full_shift(("0",), dimension=1)) == 0.0

    def test_matches_count_slope_at_40(self, golden1d):
        h = md.transfer_matrix_entropy_1d(golden1d)
        slope = math.log2(md.word_count_1d(golden1d, 40)) - \
            math.log2(md.word_count_1d(golden1d, 39))
        assert abs(h - slope) < 1e-6

    def test_fibonacci_counts(self, golden1d):
        for n in range(1, 15):
            assert md.word_count_1d(golden1d, n) == fib_count(n)

    def test_wider_forbidden_words_recode(self):
        # no three consecutive ones: tribonacci-style growth
        bad = Pattern.from_dict({(0, 0): "1", (1, 0): "1", (2, 0): "1"})
        sft = md.SftSpec(1, md.alphabet("0", "1"), (bad,))
        h = md.transfer_matrix_entropy_1d(sft)
        slope = math.log2(md.word_count_1d(sft, 40)) - math.log2(md.word_count_1d(sft, 39))
        assert abs(h - slope) < 1e-6
        counts = [md.word_count_1d(sft, n) for n in range(1, 10)]
        assert counts[:4] == [2, 4, 7, 13]

    @settings(max_examples=300, deadline=None)
    @given(small_specs(dimension=1), st.integers(1, 9), st.integers(-1, 0))
    def test_squaring_matches_iteration_and_backtracking(self, sft, length, side):
        nodes, T = transfer_graph_1d(sft)
        edges, degree = int(T.sum()), int(T.sum(axis=1).max(initial=0))
        assume(edges > 0)
        k1 = _recoding_width(sft) - 1
        bt = md.count_locally_admissible(sft, md.row_interval(length),
                                         algorithm="backtracking")
        if length >= k1:
            assert _walks_by_squaring(T, length - k1) == bt
            assert _walks_by_iteration(T, length - k1) == bt
        # the first step count at which the cost rule picks squaring, and
        # the one before, where it picks iteration
        cross = next(s for s in itertools.count(1)
                     if _squaring_pays(len(nodes), edges, degree, s))
        steps = cross + side
        assert _squaring_pays(len(nodes), edges, degree, steps) == (side == 0)
        want = _walks_by_iteration(T, steps)
        assert _walks_by_squaring(T, steps) == want == md.word_count_1d(sft, steps + k1)
        if steps + k1 <= 12:
            assert want == md.count_locally_admissible(sft, md.row_interval(steps + k1),
                                                       algorithm="backtracking")

    def test_gapped_forbidden_pattern(self):
        # forbid 1?1: occupied cells two apart, middle free
        bad = Pattern.from_dict({(0, 0): "1", (2, 0): "1"})
        sft = md.SftSpec(1, md.alphabet("0", "1"), (bad,))
        brute = md.count_locally_admissible(sft, md.row_interval(8),
                                            algorithm="backtracking")
        assert md.word_count_1d(sft, 8) == brute

    def test_interval_counting_routes_match(self, golden1d):
        for n in (1, 2, 7, 13):
            auto = md.count_locally_admissible(golden1d, md.row_interval(n))
            brute = md.count_locally_admissible(golden1d, md.row_interval(n),
                                                algorithm="backtracking")
            assert auto == brute == fib_count(n)
        # a long interval stays cheap through the graph route
        assert md.count_locally_admissible(golden1d, md.row_interval(90)) == \
            fib_count(90)

    def test_empty_block_graph_counts_zero(self):
        # forbid 0, 11 and 0?1: no 2-block is admissible, so the block graph
        # has no nodes and every word of length >= 2 counts 0
        bad = (Pattern.from_dict({(0, 0): "0"}),
               Pattern.from_dict({(0, 0): "1", (1, 0): "1"}),
               Pattern.from_dict({(0, 0): "0", (2, 0): "1"}))
        sft = md.SftSpec(1, md.alphabet("0", "1"), bad)
        assert transfer_graph_1d(sft)[0] == []
        for n in range(1, 6):
            assert md.word_count_1d(sft, n) == md.count_locally_admissible(
                sft, md.row_interval(n), algorithm="backtracking")
        # past the 64-cell backtracking guard
        for n in (65, 100):
            assert md.word_count_1d(sft, n) == 0
            assert md.count_locally_admissible(sft, IntRect(0, n - 1, 0, 0)) == 0

    def test_empty_language_reported(self):
        bad = tuple(Pattern.from_dict({(0, 0): s}) for s in ("0", "1"))
        sft = md.SftSpec(1, md.alphabet("0", "1"), bad)
        with pytest.raises(EmptyLanguageError):
            md.transfer_matrix_entropy_1d(sft)

    def test_acyclic_language_reported(self):
        # only words 0*1* survive: finite cycle structure... 10 forbidden kills cycles
        bad = (Pattern.from_dict({(0, 0): "1", (1, 0): "0"}),
               Pattern.from_dict({(0, 0): "0", (1, 0): "0"}),
               Pattern.from_dict({(0, 0): "1", (1, 0): "1"}))
        sft = md.SftSpec(1, md.alphabet("0", "1"), bad)
        with pytest.raises(EmptyLanguageError):
            md.transfer_matrix_entropy_1d(sft)


class TestRowLift:
    def test_full_shift_lift_is_full_shift(self):
        lifted = md.row_lift(md.full_shift(("0", "1"), dimension=1))
        assert lifted.forbidden == ()
        assert md.count_locally_admissible(lifted, IntRect(0, 2, 0, 2)) == 2 ** 9

    def test_certificate_and_base_roundtrip(self, golden1d, goldenrow):
        assert goldenrow.certified == "row-lift"
        base = base_of_row_lift(goldenrow)
        assert base.forbidden == golden1d.forbidden

    def test_non_extendable_base_not_certified(self):
        # "0" admits no right-extension: 00 and 01 both forbidden
        bad = (Pattern.from_dict({(0, 0): "0", (1, 0): "0"}),
               Pattern.from_dict({(0, 0): "0", (1, 0): "1"}))
        base = md.SftSpec(1, md.alphabet("0", "1"), bad)
        assert not _one_d_extendable(base)
        assert md.row_lift(base).certified is None

    def test_box_entropy_examples(self, full2, threedot, goldenrow):
        assert all(v == 1.0 for _, v in md.box_entropy_estimate(full2, 4))
        assert md.box_entropy_estimate(threedot, 4)[-1] == (4, 7 / 16)
        N3 = md.box_entropy_estimate(goldenrow, 3)[-1][1]
        assert abs(N3 - math.log2(125) / 9) < 1e-12


class TestLinear:
    """Counts by rank over GF(p) against backtracking, enumeration and the
    sweep, and the specs the rank path must leave alone."""

    @settings(max_examples=300, deadline=None)
    @given(linear_specs(), st.one_of(
        st.builds(IntRect, st.just(0), st.integers(0, 3), st.just(0), st.integers(0, 3)),
        st.builds(LatticeSet, st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                                      min_size=1, max_size=8)),
        st.builds(md.norm_ball, st.integers(0, 2), st.just("l2")),
        st.builds(md.bowen_window,
                  st.builds(md.ActionSpec, st.integers(-2, 2), st.integers(1, 2)),
                  st.integers(1, 3), st.integers(1, 2))))
    def test_rank_matches_backtracking_and_enumeration(self, sft, support):
        pts = support if isinstance(support, LatticeSet) else LatticeSet.from_rect(support)
        assume(sft.nsymbols ** len(pts) <= 2 ** 12)
        linear = _LinearSpec.detect(sft)
        assert linear is not None
        if isinstance(support, IntRect):
            rank = linear.count_rect(support.ncols, support.nrows)
        else:
            rank = linear.count_points(pts)
        bt = md.count_locally_admissible(sft, pts, algorithm="backtracking")
        assert rank == bt == len(list(md.enumerate_locally_admissible(sft, pts)))
        assert md.count_locally_admissible(sft, support) == rank

    @settings(max_examples=200, deadline=None)
    @given(linear_specs(), st.integers(1, 8), st.integers(1, 5))
    def test_rank_matches_sweep_on_rectangles(self, sft, w, h):
        sweep = _CellSweep(sft, h, False)
        assume(sft.nsymbols ** sweep.span <= 4096)
        assert RectCounter(sft).linear is not None
        assert RectCounter(sft).try_count(w, h) == sweep.total(w)

    def test_three_dot_past_the_sweep(self, threedot):
        # 2^(2N-1) on N x N squares the sweep's state guard refuses
        assert RectCounter(threedot).linear is not None
        for N in (13, 47, 100):
            assert md.count_locally_admissible(threedot, IntRect(0, N - 1, 0, N - 1)) == \
                2 ** (2 * N - 1)
        # skew and l2 windows past the backtracking guard, against the rank
        # of the dense matrix of every placement's equation
        for window in (md.bowen_window(md.ActionSpec(1, 1), 30, 3),
                       md.bowen_window(md.ActionSpec(2, 1), 12, 4, "l2")):
            assert len(window) > 64 and window.as_rect() is None
            assert md.count_locally_admissible(threedot, window) == \
                2 ** (len(window) - dense_gf2_rank(window, ((0, 0), (1, 0), (0, 1))))

    @pytest.mark.parametrize("name", ["hardsquares", "goldenrow", "ternary6"])
    def test_non_affine_sets_are_not_linear(self, name, request):
        if name == "ternary6":
            # 6 of the 9 two-letter words allowed: not a power of 3
            bad = [("0", "1"), ("1", "2"), ("2", "0")]
            sft = md.SftSpec(2, md.alphabet("0", "1", "2"), tuple(
                Pattern.from_dict({(0, 0): a, (1, 0): b}) for a, b in bad))
        else:
            sft = request.getfixturevalue(name)
        assert _LinearSpec.detect(sft) is None
        assert RectCounter(sft).linear is None

    def test_q4_is_never_linear(self):
        # x0 + x1 = 0 mod 4 allows 4 of 16 pairs, and a lone symbol is a
        # point, but Z/4 is no field
        assert _LinearSpec.detect(parity_spec(4, ((0, 0), (1, 0)))) is None
        lone = md.SftSpec(2, md.alphabet("0", "1", "2", "3"), tuple(
            Pattern.from_dict({(0, 0): s}) for s in "123"))
        assert _LinearSpec.detect(lone) is None
        assert _LinearSpec.detect(parity_spec(5, ((0, 0), (1, 0)))) is not None

    def test_constants_are_read(self):
        # x(u) + x(u+e1) + x(u+e2) = 1 over GF(3): its patterns are
        # three-dot's shifted, so the counts match three-dot's over GF(3)
        cells = ((0, 0), (1, 0), (0, 1))
        one, zero = parity_spec(3, cells, 1), parity_spec(3, cells, 0)
        for support in (IntRect(0, 3, 0, 2), md.bowen_window(md.ActionSpec(1, 1), 2, 2)):
            assert md.count_locally_admissible(one, support) == \
                md.count_locally_admissible(zero, support) == \
                md.count_locally_admissible(one, support, algorithm="backtracking")

    def test_inconsistent_system_counts_zero(self):
        # every cell 0, and vertical neighbours sum to 1 over GF(2): no
        # pattern on a support holding a vertical pair
        zero = Pattern.from_dict({(0, 0): "1"})
        pair = [Pattern.from_dict({(0, 0): a, (0, 1): b}) for a, b in ("00", "11")]
        sft = md.SftSpec(2, md.alphabet("0", "1"), (zero, *pair))
        assert RectCounter(sft).linear is not None
        for support in (IntRect(0, 2, 0, 1), LatticeSet([(0, 0), (0, 1), (3, 5)])):
            assert md.count_locally_admissible(sft, support) == 0 == \
                md.count_locally_admissible(sft, support, algorithm="backtracking")
        assert md.count_locally_admissible(sft, LatticeSet([(0, 0), (1, 1)])) == 1

    def test_guards_fire_before_elimination(self, threedot, monkeypatch):
        def no_solve(*args):
            raise AssertionError("the elimination ran")
        monkeypatch.setattr(_LinearSpec, "_solve", no_solve)
        # the 300,000 x 2 rectangle may count up to 600,000 bits
        with pytest.raises(ResourceGuardError, match="bits"):
            RectCounter(threedot).try_count(300_000, 2)
        # 300 x 300 cells at bandwidth 301, and a window's bandwidth bound
        # from the points of its two fullest neighbouring columns
        with pytest.raises(ResourceGuardError, match="elimination guard"):
            md.count_locally_admissible(threedot, IntRect(0, 299, 0, 299))
        monkeypatch.setattr(md.subshift, "MAX_ELIMINATION_WORK", 1000)
        with pytest.raises(ResourceGuardError, match="elimination guard"):
            md.count_locally_admissible(threedot, md.bowen_window(md.ActionSpec(1, 1), 30, 3))
        # over primes above 2 a step passes over a whole row: the 5 x 5
        # square has 25 rows at bandwidth 6, the 5 x 4 one 20 at bandwidth 5
        monkeypatch.setattr(md.subshift, "MAX_ELIMINATION_WORK", 25 * 6 * 6 - 1)
        ternary = RectCounter(parity_spec(3, ((0, 0), (1, 0), (0, 1)))).linear
        with pytest.raises(ResourceGuardError, match="elimination guard"):
            ternary.count_rect(5, 5)
        with pytest.raises(AssertionError, match="elimination ran"):
            ternary.count_rect(5, 4)


class TestRectCounter:
    def test_sweep_cache_consistency(self, goldenrow):
        rc = RectCounter(goldenrow)
        a = rc.try_count(12, 3)
        b = rc.try_count(5, 3)  # shorter width served from the same sweep
        assert b == md.count_locally_admissible(goldenrow, IntRect(0, 4, 0, 2))
        assert a == fib_count(12) ** 3

    def test_transposed_orientation(self):
        # vertical dominoes: tall window forces the transposed sweep
        bad = Pattern.from_dict({(0, 0): "1", (0, 1): "1"})
        sft = md.SftSpec(2, md.alphabet("0", "1"), (bad,))
        got = RectCounter(sft).try_count(3, 30)
        assert got == fib_count(30) ** 3

    def test_state_guard_fires(self, hardsquares, monkeypatch):
        assert RectCounter(hardsquares).try_count(50, 50) is None
        with pytest.raises(ResourceGuardError):
            md.count_locally_admissible(hardsquares, IntRect(0, 49, 0, 49))
        # the profile is at least 3^8 states in both orientations, above the
        # guard: the sweep refuses at once, and "auto" goes on to backtrack
        # the 54 cells until the work guard stops it
        bad = Pattern.from_dict({(0, 0): "2", (1, 2): "2"})
        ternary = md.SftSpec(2, md.alphabet("0", "1", "2"), (bad,))
        t0 = time.perf_counter()
        assert RectCounter(ternary).try_count(9, 6) is None
        assert time.perf_counter() - t0 < 1.0
        monkeypatch.setattr(kernels, "MAX_NODES", 1000)
        with pytest.raises(ResourceGuardError, match="descents"):
            md.count_locally_admissible(ternary, IntRect(0, 8, 0, 5))

    @settings(max_examples=100, deadline=None)
    @given(small_specs(symbols=(2, 4)), st.integers(1, 6), st.integers(1, 80), st.booleans())
    def test_int64_sweep_matches_object_sweep(self, sft, height, width, transposed):
        sweep = _CellSweep(sft, height, transposed)
        assume(sft.nsymbols ** sweep.span <= 4096)
        want = object_sweep_totals(sweep, width)
        # ascending widths reuse the cached totals; the last one sweeps on
        # past the promotion to Python ints, when there is one
        for w in sorted({0, width // 3, width // 2, width}):
            assert sweep.total(w) == want[w]
        assert sweep.totals == want

    def test_three_dot_sweep_promotes_mid_sweep(self, threedot):
        sweep = _CellSweep(threedot, 11, False)
        assert sweep.total(30) == 2 ** 40
        assert sweep.vec.dtype == np.int64
        for w in range(40, 71):
            assert sweep.total(w) == 2 ** (w + 10)
        assert sweep.vec.dtype == object
        # a narrow sweep never leaves int64
        narrow = _CellSweep(threedot, 2, False)
        assert narrow.total(40) == 2 ** 41
        assert narrow.vec.dtype == np.int64

    def test_certificate_validation(self):
        with pytest.raises(ValueError):
            md.SftSpec(2, md.alphabet("0", "1"), (), certified="three-dot")
        with pytest.raises(ValueError):
            md.SftSpec(2, md.alphabet("0", "1"),
                       (Pattern.from_dict({(0, 0): "1"}),), certified="full")


class TestTransferGraph:
    def test_golden_graph_shape(self, golden1d):
        nodes, T = transfer_graph_1d(golden1d)
        assert nodes == [("0",), ("1",)]
        assert T.tolist() == [[1, 1], [1, 0]]
