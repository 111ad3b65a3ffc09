import collections
import contextlib
import functools
import itertools
import math
import random
import re
import time

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

import meandim as md
from meandim import IntRect, LatticeSet, Pattern, kernels
from meandim.lattice import SweptWindow
from meandim.errors import EmptyLanguageError, ParseError, ResourceGuardError
from meandim.files import parse_sft_text
from meandim.subshift import (MAX_COUNT_BITS, RectCounter, _CellSweep, _LinearSpec,
                              _RankStrip, _one_d_extendable, _placement_groups, _recoding_width,
                              _walk_costs, _walks_by_iteration, _walks_by_squaring, _words,
                              base_of_row_lift, certificate_of, rect_counter,
                              transfer_graph_1d)

from conftest import LOG2_PHI, disc


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


def dense_1d_spec():
    """The 1D spec on 4 symbols forbidding 60 random four-letter words."""
    words = random.Random(1).sample(list(itertools.product("0123", repeat=4)), 60)
    return md.SftSpec(1, md.alphabet(*"0123"), tuple(
        Pattern.from_dict({(i, 0): s for i, s in enumerate(w)}) for w in words))


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


def oracle_placement_groups(sft, points):
    """The placement groups of a point tuple, each forbidden pattern tried
    at every anchor of the bounding box against a point index: the
    reference for ``_placement_groups``, which walks column runs."""
    if not points:
        return []
    index = {pt: i for i, pt in enumerate(points)}
    groups = [set() for _ in points]
    box = LatticeSet(points).bounding_box()
    for f in sft.forbidden:
        f = f.anchored()
        cells = [(pt, sft.alphabet.index(sym)) for pt, sym in f.cells]
        for um in range(box.a, box.b - f.ncols_extent + 2):
            for un in range(box.c, box.d - f.nrows_extent + 2):
                placed = [(index.get((m + um, n + un)), s) for (m, n), s in cells]
                if all(i is not None for i, _ in placed):
                    key = tuple(sorted(placed))
                    groups[key[-1][0]].add(key)
    return [sorted(g) for g in groups]


def point_index_rows(linear, pts):
    """Each placement's equations on a point set as (cell index,
    coefficient) pairs and a constant, every placement looked up in a
    point index from its shape's first cell on each point in turn."""
    points = LatticeSet.of(pts).points
    index = {pt: i for i, pt in enumerate(points)}
    for pm, pn in points:
        for shape, eqs in linear.shapes:
            m0, n0 = shape[0]
            cells = [index.get((pm - m0 + m, pn - n0 + n)) for m, n in shape]
            if None in cells:
                continue
            for terms, const in eqs:
                yield [(cells[i], c) for i, c in terms], const


def oracle_count(linear, pts):
    """A linear spec's count from ``point_index_rows``: the reference for
    ``_LinearSpec.count``, which walks column runs."""
    pivots = {}
    rows = ((*linear._row(indexed), const) for indexed, const in point_index_rows(linear, pts))
    return linear.q ** (len(LatticeSet.of(pts)) - len(pivots)) \
        if linear._eliminate(pivots, rows) else 0


def oracle_bandwidth(linear, pts):
    """The largest span of a row from ``point_index_rows``, 1 without one."""
    return max((indexed[-1][0] - indexed[0][0] + 1
                for indexed, _ in point_index_rows(linear, pts)), default=1)


def column_bound(linear, pts):
    """The most points in as many neighbouring columns as a shape spans,
    a bound on every row's span."""
    per_col = collections.Counter(m for m, _ in pts)
    return max(sum(per_col[m + j] for j in range(shape[-1][0] + 1))
               for m in per_col for shape, _ in linear.shapes)


@st.composite
def wide_supports(draw):
    """Supports of 65 to a few hundred cells, past backtracking's reach:
    random subsets of a box, unions of rectangles (wide column bands with
    several runs) and skew or Euclidean Bowen windows."""
    kind = draw(st.sampled_from(["random", "rects", "window"]))
    if kind == "random":
        rnd = draw(st.randoms(use_true_random=False))
        w, h, dense = rnd.randint(8, 20), rnd.randint(8, 20), rnd.uniform(0.4, 0.95)
        pts = LatticeSet((m, n) for m in range(w) for n in range(h) if rnd.random() < dense)
    elif kind == "rects":
        corner = st.tuples(st.integers(0, 12), st.integers(0, 12))
        rects = draw(st.lists(st.tuples(corner, corner), min_size=1, max_size=4))
        pts = LatticeSet((m, n) for (a, c), (b, d) in rects
                         for m in range(min(a, b), max(a, b) + 1)
                         for n in range(min(c, d), max(c, d) + 1))
    else:
        a, b, N, M = (draw(st.integers(-3, 3)), draw(st.integers(1, 3)),
                      draw(st.integers(3, 5)), draw(st.integers(2, 5)))
        pts = (md.bowen_window(md.ActionSpec(a, b), N, M) if draw(st.booleans())
               else disc(M - 1, a, b, N))
    assume(64 < len(pts) <= 400)
    return pts


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


def reference_walk(n_cells, n_symbols, groups):
    """Every admissible assignment in lexicographic order, and the number of
    descents (admissible prefixes shorter than n_cells), from a recursive
    walk that checks the placements completing at a cell once it has its
    symbol: the reference for ``kernels.backtrack``'s blocks."""
    found, assign, descents = [], [], 0

    def rec():
        nonlocal descents
        level = len(assign)
        if level == n_cells:
            found.append(list(assign))
            return
        for s in range(n_symbols):
            assign.append(s)
            if not any(all(assign[c] == t for c, t in pl) for pl in groups[level]):
                descents += level + 1 < n_cells
                rec()
            assign.pop()

    rec()
    return found, descents


def recursive_enumeration(sft, support):
    """Locally admissible patterns on ``support`` from ``reference_walk``
    over the placement groups of ``oracle_placement_groups``: the oracle
    for the stream of ``enumerate_locally_admissible``."""
    points = LatticeSet.of(support).points
    syms = sft.alphabet.symbols
    found, _ = reference_walk(len(points), len(syms), oracle_placement_groups(sft, points))
    for assign in found:
        yield Pattern(tuple(zip(points, (syms[s] for s in assign))))


@st.composite
def walk_specs(draw):
    """``small_specs`` on 1 to 3 symbols, half of them with a one-cell
    forbidden pattern added, so that a symbol is forbidden outright."""
    sft = draw(small_specs())
    if draw(st.booleans()):
        one = Pattern.from_dict({(0, 0): draw(st.sampled_from(sft.alphabet.symbols))})
        sft = md.SftSpec(2, sft.alphabet, sft.forbidden + (one,))
    return sft


class TestPatterns:
    def test_duplicate_cell_rejected(self):
        with pytest.raises(ValueError):
            Pattern((((0, 0), "a"), ((0, 0), "b")))

    def test_unknown_symbol_rejected_in_spec(self):
        with pytest.raises(ValueError):
            md.SftSpec(1, md.alphabet("0", "1"), (Pattern.from_dict({(0, 0): "2"}),))

    def test_offset_forbidden_patterns_are_anchored(self, goldenrow):
        binary = md.alphabet("0", "1")
        offset = md.SftSpec(2, binary, (Pattern.from_dict({(3, 2): "1", (4, 2): "1"}),))
        anchored = md.SftSpec(2, binary, (Pattern.from_dict({(0, 0): "1", (1, 0): "1"}),))
        assert offset == anchored and hash(offset) == hash(anchored)
        assert offset.forbidden == anchored.forbidden == goldenrow.forbidden
        assert offset.forbidden[0].cells == (((0, 0), "1"), ((1, 0), "1"))
        assert rect_counter(offset) is rect_counter(anchored)
        for support in (IntRect(0, 5, 0, 3), IntRect(-2, 2, 1, 1), disc(2)):
            assert (md.count_locally_admissible(offset, support)
                    == md.count_locally_admissible(anchored, support)
                    == md.count_locally_admissible(offset, support, algorithm="backtracking"))
        nodes, T = transfer_graph_1d(base_of_row_lift(offset))
        want_nodes, want_T = transfer_graph_1d(base_of_row_lift(anchored))
        assert nodes == want_nodes and (T == want_T).all()
        # a 1D pattern off the horizontal axis is still refused
        with pytest.raises(ValueError, match="horizontal axis"):
            md.SftSpec(1, binary, (Pattern.from_dict({(3, 2): "1", (4, 2): "1"}),))
        one_d = md.SftSpec(1, binary, (Pattern.from_dict({(3, 0): "1", (4, 0): "1"}),))
        assert one_d == md.golden_mean_1d()
        assert [md.word_count_1d(one_d, n) for n in range(1, 8)] == \
            [fib_count(n) for n in range(1, 8)]


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
        st.builds(disc, st.integers(0, 2)),
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
        subpats = {Pattern(tuple(cell for cell in p.cells if cell[0] in sub)) for p in
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
        both = LatticeSet(r1.points + r2.points)
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
        # the 29-cell disc, whose backtracking visits every pattern
        assert md.count_locally_admissible(goldenrow, disc(3)) == 3884296

    @settings(max_examples=300, deadline=None)
    @given(row_specs(), st.one_of(
        st.builds(IntRect, st.just(0), st.integers(0, 4), st.just(0), st.integers(0, 4)),
        st.builds(disc, st.integers(0, 2)),
        st.builds(md.bowen_window,
                  st.builds(md.ActionSpec, st.integers(-5, 5), st.integers(1, 2)),
                  st.integers(1, 3), st.integers(1, 2))))
    def test_row_product_matches_sweep_and_backtracking(self, sft, support):
        pts = LatticeSet.of(support)
        assume(sft.nsymbols ** len(pts) <= 2 ** 13)
        how = md.subshift.plan(sft, pts)
        # a support that no pattern fits takes the closed form, the product's value
        product = how.run() if how.path in ("closed form", "row product") else None
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
        how = md.subshift.plan(sft, pts)
        # the empty support and one that no word fits take the closed form
        product = how.run() if how.path in ("empty", "closed form", "row product") else None
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
        assert md.subshift.plan(sft, gapped).path == "backtracking"
        assert md.count_locally_admissible(sft, gapped) == 3 * 6 == \
            len(list(md.enumerate_locally_admissible(sft, gapped)))

    def test_runs_as_far_apart_as_the_widest_pattern_factor(self, goldenrow):
        # at M = 2 the Bowen window of the action (4, 1) leaves one-cell
        # gaps in its rows; a golden-row pattern is 2 wide, so no pattern
        # fits across a gap and each run counts on its own
        window = md.bowen_window(md.ActionSpec(4, 1), 2, 2)
        assert window.as_rect() is None
        how = md.subshift.plan(goldenrow, window)
        assert how.path == "row product" and how.run() == 15625 == \
            md.count_locally_admissible(goldenrow, window, algorithm="backtracking")

    def test_row_product_forms_each_word_count_once(self, goldenrow, monkeypatch):
        # the 150,000 x 2 count has 208,274 bits, above what q^cells keeps
        # under the guard, so the plan forms its word count to check it; the
        # run multiplies out that count instead of forming it again
        base = base_of_row_lift(goldenrow)
        word = md.word_count_1d(base, 150_000)
        formed = []

        def counted(sft, length):
            formed.append(length)
            return word
        monkeypatch.setattr(md.subshift, "word_count_1d", counted)
        count = md.count_locally_admissible(goldenrow, IntRect(0, 149_999, 0, 1))
        assert count == word ** 2 and count.bit_length() == 208_274
        assert formed == [150_000]

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
        st.builds(disc, st.integers(0, 2)),
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


class TestWalk:
    """``kernels.backtrack`` extends blocks of prefixes; against a recursive
    walk one assignment at a time, with blocks split down to single rows."""

    @settings(max_examples=300, deadline=None)
    @given(walk_specs(), st.one_of(
        st.builds(IntRect, st.just(0), st.integers(0, 3), st.just(0), st.integers(0, 3)),
        st.builds(disc, st.integers(0, 2)),
        st.builds(md.bowen_window,
                  st.builds(md.ActionSpec, st.integers(-2, 2), st.integers(1, 2)),
                  st.integers(1, 3), st.integers(1, 2)),
        st.builds(LatticeSet, st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                      max_size=10))),
        st.sampled_from([1, 3, kernels.BLOCK_ROWS]))
    def test_walk_matches_recursive_reference(self, sft, support, rows):
        pts = LatticeSet.of(support)
        n, q = len(pts), sft.nsymbols
        assume(q ** n <= 2 ** 12)
        groups = _placement_groups(sft, pts)
        want, descents = reference_walk(n, q, groups)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "BLOCK_ROWS", rows)
            # the walk passes at its own descent total and refuses one below
            mp.setattr(kernels, "MAX_NODES", descents)
            assert list(kernels.backtrack(n, q, groups)) == want
            assert kernels.backtrack_count(n, q, groups) == len(want)
            if descents:
                mp.setattr(kernels, "MAX_NODES", descents - 1)
                with pytest.raises(ResourceGuardError, match="made .* descents"):
                    list(kernels.backtrack(n, q, groups))
                with pytest.raises(ResourceGuardError, match="descents"):
                    kernels.backtrack_count(n, q, groups)

    def test_empty_and_one_cell_walks(self):
        assert list(kernels.backtrack(0, 2, [])) == [[]]
        assert kernels.backtrack_count(0, 2, []) == 1
        assert list(kernels.backtrack(1, 3, [[((0, 1),)]])) == [[0], [2]]
        assert kernels.backtrack_count(1, 3, [[((0, 1),)]]) == 2
        assert list(kernels.backtrack(1, 1, [[((0, 0),)]])) == []

    @pytest.mark.parametrize("rows", [5, 300])
    def test_work_guard_independent_of_block_splits(self, threedot, monkeypatch, rows):
        # the 7x7 three-dot box makes 56,574 descents however its blocks split
        box = IntRect(0, 6, 0, 6)
        monkeypatch.setattr(kernels, "BLOCK_ROWS", rows)
        monkeypatch.setattr(kernels, "MAX_NODES", 56_574)
        assert md.count_locally_admissible(threedot, box, algorithm="backtracking") == 2 ** 13
        monkeypatch.setattr(kernels, "MAX_NODES", 56_573)
        with pytest.raises(ResourceGuardError, match="descents"):
            md.count_locally_admissible(threedot, box, algorithm="backtracking")

    def test_hard_squares_6x6_backtracking_refused(self, hardsquares):
        # the free symbols are {0}, so the bound read before the walk is 1
        # and the walk starts; the 6x6 box's 5,598,861 patterns take more
        # than MAX_NODES descents
        with pytest.raises(ResourceGuardError, match="descents"):
            md.count_locally_admissible(hardsquares, IntRect(0, 5, 0, 5),
                                        algorithm="backtracking")


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
        assume(T.sum() > 0)
        k1 = _recoding_width(sft) - 1
        bt = md.count_locally_admissible(sft, md.row_interval(length),
                                         algorithm="backtracking")
        if length >= k1:
            assert _walks_by_squaring(T, length - k1) == bt
            assert _walks_by_iteration(T, length - k1) == bt
        # the first step count at which the cost rule picks squaring, and
        # the one before, where it picks iteration
        def squaring_pays(steps):
            squaring, iteration = _walk_costs(sft, steps)
            return squaring < iteration
        cross = next(s for s in itertools.count(1) if squaring_pays(s))
        steps = cross + side
        assert squaring_pays(steps) == (side == 0)
        want = _walks_by_iteration(T, steps)
        assert _walks_by_squaring(T, steps) == want == md.word_count_1d(sft, steps + k1)
        if steps + k1 <= 12:
            assert want == md.count_locally_admissible(sft, md.row_interval(steps + k1),
                                                       algorithm="backtracking")

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3), st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=3,
                                                unique=True), max_size=4),
           st.integers(0, 6), st.data())
    def test_words_match_the_enumeration(self, q, shapes, length, data):
        # words of a 1D spec whose forbidden words may have holes, built a
        # letter at a time: the enumeration's words, in its order
        pats = tuple(Pattern.from_dict(
            {(m, 0): str(data.draw(st.integers(0, q - 1))) for m in cols}) for cols in shapes)
        sft = md.SftSpec(1, md.alphabet(*(str(s) for s in range(q))), pats)
        assert _words(sft, length) == [
            tuple(sym for _, sym in p.cells)
            for p in md.enumerate_locally_admissible(sft, md.row_interval(length))]

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

    def test_walk_guard_refuses_a_long_word_count_before_the_walk(self, golden1d,
                                                                   monkeypatch):
        # 4 symbols forbidding 60 of the 256 four-letter words: a 64-node
        # block graph, whose 29,997-step walk took 7.6 s before the guard
        dense = dense_1d_spec()
        assert len(transfer_graph_1d(dense)[0]) == 64
        lift = md.row_lift(dense)

        def no_walk(*args):
            raise AssertionError("the walk ran")
        with monkeypatch.context() as mp:
            mp.setattr(md.subshift, "_walks_by_iteration", no_walk)
            mp.setattr(md.subshift, "_walks_by_squaring", no_walk)
            for sft, support in ((dense, md.row_interval(30_000)),
                                 (lift, IntRect(0, 29_999, 0, 2))):
                t0 = time.perf_counter()
                with pytest.raises(ResourceGuardError, match="above the walk guard of 16777216"):
                    md.count_locally_admissible(sft, support)
                assert time.perf_counter() - t0 < 1.0
            # the cheaper side of the cost rule is what the guard reads
            work = min(_walk_costs(dense, 300 - 3))
            mp.setattr(md.subshift, "MAX_WALK_WORK", math.ceil(work) - 1)
            with pytest.raises(ResourceGuardError, match="walk guard"):
                md.count_locally_admissible(dense, md.row_interval(300))
            mp.setattr(md.subshift, "MAX_WALK_WORK", math.ceil(work))
            with pytest.raises(AssertionError, match="the walk ran"):
                md.count_locally_admissible(dense, md.row_interval(300))
        # the golden mean's longest row under the bit guard squares well under it
        assert md.count_locally_admissible(golden1d, md.row_interval(MAX_COUNT_BITS)) == \
            fib_count(MAX_COUNT_BITS)

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
        st.builds(disc, st.integers(0, 2)),
        st.builds(md.bowen_window,
                  st.builds(md.ActionSpec, st.integers(-2, 2), st.integers(1, 2)),
                  st.integers(1, 3), st.integers(1, 2))))
    def test_rank_matches_backtracking_and_enumeration(self, sft, support):
        pts = support if isinstance(support, LatticeSet) else LatticeSet.from_rect(support)
        assume(sft.nsymbols ** len(pts) <= 2 ** 12)
        linear = _LinearSpec.detect(sft)
        assert linear is not None
        rank = linear.count(support)
        bt = md.count_locally_admissible(sft, pts, algorithm="backtracking")
        assert rank == bt == len(list(md.enumerate_locally_admissible(sft, pts)))
        assert md.count_locally_admissible(sft, support) == rank

    @settings(max_examples=200, deadline=None)
    @given(linear_specs(), st.one_of(
        st.builds(LatticeSet, st.sets(st.tuples(st.integers(-4, 12), st.integers(0, 4)),
                                      min_size=1, max_size=20)),
        st.builds(md.bowen_window,
                  st.builds(md.ActionSpec, st.integers(-3, 3), st.integers(1, 2)),
                  st.integers(1, 6), st.integers(1, 3)),
        st.builds(lambda a, b, N, M: disc(M - 1, a, b, N), st.integers(-3, 3),
                  st.integers(1, 2), st.integers(1, 6), st.integers(1, 3))))
    def test_bandwidth_from_runs_matches_the_columns(self, sft, pts):
        # the exact span of the rows, at most the points in as many
        # neighbouring columns as a shape spans
        linear = _LinearSpec.detect(sft)
        assert linear.bandwidth(pts) == oracle_bandwidth(linear, pts) <= column_bound(linear, pts)

    @settings(max_examples=150, deadline=None)
    @given(linear_specs(), wide_supports())
    def test_run_walk_matches_the_point_index(self, sft, pts):
        # past backtracking's reach, against the walk over a point index
        linear = _LinearSpec.detect(sft)
        assert linear.count(pts) == oracle_count(linear, pts)
        assert linear.bandwidth(pts) == oracle_bandwidth(linear, pts)
        assert _placement_groups(sft, pts) == oracle_placement_groups(sft, pts.points)
        if len(linear.shapes) == 1:
            # one shape's rows reach the elimination in the order of the walk
            # over the points, by each placement's first cell
            seen = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_LinearSpec, "_eliminate", lambda self, pivots, rows: seen.extend(rows))
                linear.count(pts)
            assert seen == [(*linear._row(indexed), const)
                            for indexed, const in point_index_rows(linear, pts)]

    def test_skew_three_dot_counted_without_points(self, threedot, monkeypatch):
        action = md.ActionSpec(7, 5)
        want = oracle_count(_LinearSpec.detect(threedot), md.bowen_window(action, 6, 8))
        monkeypatch.setattr(LatticeSet, "points", property(lambda self: 1 / 0))
        assert md.count_locally_admissible(threedot, md.bowen_window(action, 6, 8)) == want

    def test_exact_bandwidth_counts_what_the_column_bound_refused(self, threedot, monkeypatch):
        # the rows of a skew window span fewer cells than its two fullest
        # neighbouring columns hold, so a guard between the two counts it
        linear = _LinearSpec.detect(threedot)
        window = md.bowen_window(md.ActionSpec(1, 1), 8, 40)
        span = oracle_bandwidth(linear, window)
        assert span < column_bound(linear, window)
        monkeypatch.setattr(md.subshift, "MAX_ELIMINATION_WORK", len(window) * span)
        assert md.count_locally_admissible(threedot, window) == oracle_count(linear, window)
        monkeypatch.setattr(md.subshift, "MAX_ELIMINATION_WORK", len(window) * span - 1)
        with pytest.raises(ResourceGuardError, match="elimination guard"):
            md.count_locally_admissible(threedot, window)

    @settings(max_examples=200, deadline=None)
    @given(linear_specs(), st.integers(1, 8), st.integers(1, 5))
    def test_rank_matches_sweep_on_rectangles(self, sft, w, h):
        sweep = _CellSweep(sft, h, False)
        assume(sft.nsymbols ** sweep.span <= 4096)
        assert RectCounter(sft).linear is not None
        assert RectCounter(sft).try_count(w, h) == sweep.total(w)

    @settings(max_examples=200, deadline=None)
    @given(linear_specs(), st.integers(1, 5),
           st.lists(st.integers(1, 30), min_size=1, max_size=6), st.data())
    def test_rank_strip_matches_elimination_at_any_width(self, sft, height, widths, data):
        # widths asked in random order, then past the strip's repeat: the
        # strip against the rectangle's own elimination and backtracking
        rc = RectCounter(sft)
        linear = rc.linear

        def check(width):
            rect = IntRect(0, width - 1, 0, height - 1)
            got = rc.try_count(width, height)
            assert got == linear.count(rect)
            if sft.nsymbols ** rect.cardinality() <= 2 ** 12:
                assert got == md.count_locally_admissible(sft, rect, algorithm="backtracking")
        for width in widths:
            check(width)
        strip = rc._strips[height]
        while strip.repeat is None and strip.zero_from == math.inf:
            assert len(strip.ranks) < 100
            check(len(strip.ranks))
        if strip.repeat is not None:
            start, period, _ = strip.repeat
            assert start + period == len(strip.ranks) - 1
        check(len(strip.ranks) + data.draw(st.integers(0, 40)))

    def test_three_dot_strip_extrapolates(self, threedot):
        # 2^(w + h - 1) on 10,000 x 3, read from the strip's first columns,
        # and on 3 x 10,000 from its height's strip
        rc = RectCounter(threedot)
        assert rc.try_count(10_000, 3) == 2 ** 10_002
        assert len(rc._strips[3].ranks) <= 4 and rc._strips[3].repeat[1:] == (1, 2)
        assert md.count_locally_admissible(threedot, IntRect(0, 9_999, 0, 2)) == 2 ** 10_002
        assert rc.try_count(3, 10_000) == 2 ** 10_002

    def test_inconsistent_strip_counts_zero_at_every_width(self):
        # every cell 0, and horizontal neighbours sum to 1 over GF(2): one
        # column counts 1, every wider rectangle 0
        zero = Pattern.from_dict({(0, 0): "1"})
        pair = [Pattern.from_dict({(0, 0): a, (1, 0): b}) for a, b in ("00", "11")]
        sft = md.SftSpec(2, md.alphabet("0", "1"), (zero, *pair))
        rc = RectCounter(sft)
        for width in (7, 1, 30, 2, 10 ** 6, 5):
            for height in (1, 3):
                want = 1 if width == 1 else 0
                assert rc.try_count(width, height) == want
                if width < 10 ** 6:
                    assert md.count_locally_admissible(
                        sft, IntRect(0, width - 1, 0, height - 1)) == want
        assert rc._strips[3].zero_from == 2 and len(rc._strips[3].ranks) == 2

    def test_three_dot_past_the_sweep(self, threedot):
        # 2^(2N-1) on N x N squares the sweep's state guard refuses
        assert RectCounter(threedot).linear is not None
        for N in (13, 47, 100):
            assert md.count_locally_admissible(threedot, IntRect(0, N - 1, 0, N - 1)) == \
                2 ** (2 * N - 1)
        # a skew window and a swept disc past the backtracking guard, against
        # the rank of the dense matrix of every placement's equation
        for window in (md.bowen_window(md.ActionSpec(1, 1), 30, 3), disc(3, 2, 1, 12)):
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
        # the one reducer of point sets and rank strips alike, and no strip
        # cached by an earlier count
        monkeypatch.setattr(_LinearSpec, "_eliminate", no_solve)
        monkeypatch.setattr(md.subshift, "rect_counter", functools.cache(RectCounter))
        # the 300,000 x 2 rectangle may count up to 600,000 bits
        with pytest.raises(ResourceGuardError, match="bits"):
            md.count_locally_admissible(threedot, IntRect(0, 299_999, 0, 1))
        # 300 x 300 cells at bandwidth 301, and a window's bandwidth read
        # from the runs of its columns
        with pytest.raises(ResourceGuardError, match="elimination guard"):
            md.count_locally_admissible(threedot, IntRect(0, 299, 0, 299))
        monkeypatch.setattr(md.subshift, "MAX_ELIMINATION_WORK", 1000)
        window = md.bowen_window(md.ActionSpec(1, 1), 30, 3)
        with monkeypatch.context() as mp:
            # the window's bandwidth is read from its runs, not its points
            mp.setattr(LatticeSet, "points", property(no_solve))
            with pytest.raises(ResourceGuardError, match="elimination guard"):
                md.count_locally_admissible(threedot, window)
        # over primes above 2 a step passes over a whole row: the 5 x 5
        # square has 25 rows at bandwidth 6, the 5 x 4 one 20 at bandwidth 5
        monkeypatch.setattr(md.subshift, "MAX_ELIMINATION_WORK", 25 * 6 * 6 - 1)
        ternary = parity_spec(3, ((0, 0), (1, 0), (0, 1)))
        assert RectCounter(ternary).linear is not None
        with pytest.raises(ResourceGuardError, match="elimination guard"):
            md.count_locally_admissible(ternary, IntRect(0, 4, 0, 4))
        with pytest.raises(AssertionError, match="elimination ran"):
            md.count_locally_admissible(ternary, IntRect(0, 4, 0, 3))


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
        # a certified: line asserts the derived certificate, refused at its line
        with pytest.raises(ParseError) as err:
            parse_sft_text("dimension: 2\nalphabet: 0 1\ncertified: three-dot\nforbidden:\n")
        assert err.value.line == 3
        with pytest.raises(ParseError) as err:
            parse_sft_text("dimension: 2\nalphabet: 0 1\ncertified: full\nforbidden:\n(0,0)=1\n")
        assert err.value.line == 3


@st.composite
def certifiable_specs(draw):
    """Small 2D specs with their forbidden patterns as plain cell dicts:
    none, patterns in one row each, the three-dot family with either symbol
    as 0 and perhaps one pattern dropped, or patterns in a 2x2 box."""
    kind = draw(st.sampled_from(["full", "rows", "parity", "box"]))
    q = 2 if kind == "parity" else draw(st.integers(1, 3))
    if kind == "full":
        raw = []
    elif kind == "parity":
        const = draw(st.integers(0, 1))
        raw = [dict(zip([(0, 0), (1, 0), (0, 1)], v))
               for v in itertools.product(range(2), repeat=3) if sum(v) % 2 != const]
        if draw(st.booleans()):
            raw.pop(draw(st.integers(0, len(raw) - 1)))
    else:
        rows = 1 if kind == "rows" else 2
        raw = []
        for _ in range(draw(st.integers(1, 3))):
            row = draw(st.integers(0, 2))
            cells = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, rows - 1)),
                                  min_size=1, max_size=3, unique=True))
            raw.append({(m, row + n): draw(st.integers(0, q - 1)) for m, n in cells})
    sft = md.SftSpec(2, md.alphabet(*(str(s) for s in range(q))), tuple(
        Pattern.from_dict({pt: str(x) for pt, x in cells.items()}) for cells in raw))
    return kind, q, raw, sft


def brute_word_count(q, raw, n):
    """Words of length n on range(q) containing no translate of a pattern
    of ``raw``, each of whose cells lies in one row."""
    pats = [{m - min(m for m, _ in cells): x for (m, _), x in cells.items()} for cells in raw]
    return sum(all(any(word[t + m] != x for m, x in p.items())
                   for p in pats for t in range(n - max(p)))
               for word in itertools.product(range(q), repeat=n))


    def test_refused_rectangle_names_the_sweep_guard(self, hardsquares):
        # the 30x30 box is past both guards; its sweep profile 2^30 is what stops it
        with pytest.raises(ResourceGuardError) as ei:
            md.subshift.plan(hardsquares, IntRect(0, 29, 0, 29))
        assert str(ei.value) == (
            "support has 900 cells, above the backtracking guard 64; the transfer sweep "
            f"would need 2^30 states, above its guard {md.subshift.MAX_STATES}")
        # a skew window has no sweep to name
        with pytest.raises(ResourceGuardError) as ei:
            md.subshift.plan(hardsquares, md.lambda_set(1, 1, 3, 30))
        assert "sweep" not in str(ei.value)


class TestCertificateOf:
    """``certificate_of`` derives a spec's certificate from its patterns."""

    # a derived family's count on small rectangles is its closed form,
    # computed here from the drawn cells alone
    @settings(max_examples=60, deadline=None)
    @given(certifiable_specs(), st.integers(1, 4), st.integers(1, 4))
    def test_derived_family_counts_its_closed_form(self, drawn, width, height):
        kind, q, raw, sft = drawn
        cert = certificate_of(sft)
        if kind == "full":
            assert cert == "full"
        if kind == "parity" and len(raw) == 4:
            assert cert == "three-dot"
        expected = {"full": lambda: q ** (width * height),
                    "row-lift": lambda: brute_word_count(q, raw, width) ** height,
                    "three-dot": lambda: 2 ** (width + height - 1)}
        if cert is not None:
            assert md.count_locally_admissible(
                sft, IntRect(0, width - 1, 0, height - 1)) == expected[cert]()

    def test_swapped_three_dot_derives_three_dot(self, threedot):
        swapped = md.SftSpec(2, md.alphabet("1", "0"), threedot.forbidden)
        assert certificate_of(swapped) == swapped.certified == "three-dot"
        assert swapped != threedot

    def test_row_lift_of_a_full_shift_derives_full(self):
        assert md.row_lift(md.full_shift(("0", "1", "2"), dimension=1)).certified == "full"

    def test_patterns_in_1d_or_across_rows_derive_none(self, golden1d, hardsquares):
        assert certificate_of(golden1d) is None and certificate_of(hardsquares) is None
        assert md.full_shift(("0", "1"), dimension=1).certified == "full"

    def test_certificate_is_read_lazily_and_not_compared(self, goldenrow):
        fresh = md.SftSpec(2, goldenrow.alphabet, goldenrow.forbidden)
        md.count_locally_admissible(fresh, IntRect(0, 5, 0, 5))
        assert "certified" not in vars(fresh)
        assert fresh == goldenrow and hash(fresh) == hash(goldenrow)
        assert fresh.certified == "row-lift" and "certified" in vars(fresh)


class TestPlan:
    """``plan`` against the router: a refused plan raises before any window
    is built or engine runs, and an accepted one names the engine that
    ``count_locally_admissible`` then runs."""

    # the engines each path runs, a rank count of a rectangle its height's
    # strip; "empty" and "closed form" run none
    ENGINES = {"row product": ((md.subshift, "_row_product"),),
               "rank": ((_LinearSpec, "count"), (_RankStrip, "count")),
               "sweep": ((_CellSweep, "total"),),
               "backtracking": ((kernels, "backtrack_count"),)}

    @staticmethod
    def windows():
        short = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4),
                          st.integers(1, 30)).filter(lambda w: w[:2] != (0, 0))
        # horizontal windows past the guards, cheap to build row by row
        long = st.tuples(st.sampled_from([-1, 1, 2]), st.just(0), st.integers(1, 3),
                         st.sampled_from([10 ** 4, 10 ** 5, 4 * 10 ** 5]))
        discs = short.map(lambda w: disc(w[2] - 1, w[0], w[1], w[3]))
        return st.one_of(st.one_of(short, long).map(lambda w: SweptWindow(*w)), discs)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(small_specs(), linear_specs()), st.one_of(
        st.builds(IntRect, st.just(0), st.integers(0, 8), st.just(0), st.integers(0, 8)),
        st.builds(IntRect, st.just(0), st.sampled_from([10 ** 4, 10 ** 6]), st.just(0),
                  st.integers(0, 3)),
        windows(),
        st.builds(LatticeSet, st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                                      max_size=30))),
        st.sampled_from(["auto", "auto", "backtracking"]))
    def test_plan_names_the_engine_the_router_runs(self, sft, support, algorithm):
        # plan may build the 1D base's block graph, which reads the points
        # of its words; build it first, so that a point read below is the
        # support's
        if all(f.nrows_extent == 1 for f in sft.forbidden):
            with contextlib.suppress(ResourceGuardError):
                transfer_graph_1d(base_of_row_lift(sft))
        ran = []

        class Ran(Exception):
            pass

        def recorder(name):
            def record(*args, **kwargs):
                ran.append(name)
                raise Ran(name)
            return record

        with pytest.MonkeyPatch.context() as mp:
            for path, engines in self.ENGINES.items():
                for owner, name in engines:
                    mp.setattr(owner, name, recorder(path))
            with pytest.MonkeyPatch.context() as builders:
                builders.setattr(md.lattice, "lambda_set", recorder("lambda_set"))
                builders.setattr(md.dimensions, "bowen_window", recorder("bowen_window"))
                builders.setattr(LatticeSet, "points", property(recorder("points")))
                try:
                    how = md.subshift.plan(sft, support, algorithm)
                except ResourceGuardError as err:
                    refused = err
                else:
                    refused = None
            assert ran == []
            if refused is not None:
                with pytest.raises(ResourceGuardError) as again:
                    md.count_locally_admissible(sft, support, algorithm=algorithm)
                assert str(again.value) == str(refused) and ran == []
                return
            if how.path in ("empty", "closed form"):
                assert md.count_locally_admissible(sft, support, algorithm=algorithm) == \
                    sft.nsymbols ** how.cells
            else:
                with pytest.raises(Ran):
                    md.count_locally_admissible(sft, support, algorithm=algorithm)
            assert ran == ([] if how.path in ("empty", "closed form") else [how.path])
            assert how.cells == len(LatticeSet.of(support))
            assert how.bits == how.cells * math.log2(sft.nsymbols)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(small_specs(symbols=(2, 5)), small_specs(dimension=1, symbols=(2, 5)),
                     linear_specs()),
           st.data(), st.sampled_from(["auto", "auto", "backtracking"]))
    def test_log2_reads_the_count_it_would_run(self, sft, data, algorithm):
        # the closed forms read bits = cells x log2 q without forming q^cells:
        # the same double as log2 of the count when q is a power of two
        rows = 6 if sft.dimension == 2 else 0
        support = data.draw(st.one_of(
            st.builds(IntRect, st.just(0), st.integers(0, 6), st.just(0), st.integers(0, rows)),
            st.builds(IntRect, st.just(0), st.sampled_from([300, 2000]), st.just(0),
                      st.just(0)),
            st.builds(LatticeSet, st.sets(st.tuples(st.integers(0, 9), st.integers(0, rows)),
                                          max_size=30))))
        try:
            how = md.subshift.plan(sft, support, algorithm)
        except ResourceGuardError:
            return
        event(how.path)
        try:
            count = how.run()
        except ResourceGuardError as err:
            with pytest.raises(ResourceGuardError, match=re.escape(str(err))):
                how.log2()
            return
        if count == 0:
            with pytest.raises(EmptyLanguageError, match="^no admissible pattern fits the "
                               "window: the subshift is empty$"):
                how.log2()
            return
        want = math.log2(count)
        if sft.nsymbols & (sft.nsymbols - 1) == 0:
            assert how.log2() == want
        else:
            assert abs(how.log2() - want) <= 4 * math.ulp(want)

    def test_skew_window_refused_from_its_size(self, full2, monkeypatch):
        # 1,000,004 cells in 200,003 rows, refused without reading one row
        monkeypatch.setattr(SweptWindow, "lattice_set", property(lambda self: 1 / 0))
        with pytest.raises(ResourceGuardError, match="2\\^1000004 has more bits"):
            md.subshift.plan(full2, SweptWindow(1, 1, 2, 200_000))


class TestTransferGraph:
    def test_golden_graph_shape(self, golden1d):
        nodes, T = transfer_graph_1d(golden1d)
        assert nodes == [("0",), ("1",)]
        assert T.tolist() == [[1, 1], [1, 0]]
