"""Subshifts of finite type on Z and Z^2 and exact pattern counting.

An SFT is a finite alphabet plus a finite list of forbidden patterns.
The module counts and enumerates locally admissible patterns (patterns
containing no translate of a forbidden pattern inside their support),
computes 1D topological entropy through the transfer-matrix method, and
builds the exactly tractable fixture families used as ground truth:
full shifts, row-lifts of 1D SFTs, and the three-dot parity system.

Counts are arbitrary-precision integers, and ``count_locally_admissible``
is the one place that chooses how to count, in this order:

1. the closed form q^cells when no forbidden pattern fits the support's
   bounding box;
2. for a spec whose forbidden patterns each lie in one row (every 1D
   spec), the product over the runs of the support's rows of the 1D
   base's word count at each run's length, when no two runs of a row are
   closer than the widest pattern.  ``word_count_1d`` counts walks on the
   block transfer graph, by repeated squaring of the transfer matrix or
   by stepping a vector, whichever its cost rule says is cheaper;
3. for a rectangle, a transfer sweep that adds a cell at a time (the
   transfer-matrix count of Calkin and Wilf for the hard-square model),
   whose state is the symbols of the last L cells;
4. otherwise backtracking (``kernels.backtrack``) with pruning at the
   moment a forbidden pattern completes.

Guards fire before work: counts above ``MAX_COUNT_BITS`` bits are refused
before they are formed, the sweep's profile q^L is bounded by
``MAX_STATES`` and its work by ``MAX_SWEEP_WORK``, and backtracking takes
at most ``MAX_FREE_CELLS`` cells and ``kernels.MAX_NODES`` descents.
Enumeration runs the same backtracking walk.  The paths are tested to
agree on random small specs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import kernels
from .errors import EmptyLanguageError, MeandimError, ResourceGuardError
from .lattice import IntRect, LatticeSet, Point

MAX_FREE_CELLS = 64
MAX_STATES = 4096
MAX_COUNT_BITS = 1 << 18
# largest width x answer bits x states of one transfer sweep, the answer's
# bits bounded by cells * log2(q): once counts leave int64, each column adds
# Python ints as long as the answer, so run time grows with this product.
# Hard squares at height 12 (4096 states) took 3.2-3.7e-11 s per unit from
# 1,000 columns on (2-core Xeon VM, Python 3.11, numpy 2.4), so the guard
# bounds a sweep to about 1.3 s there; 836 such columns fit, 837 do not.
MAX_SWEEP_WORK = 1 << 35


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite list of distinct symbol tokens."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) == 0:
            raise ValueError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        for s in self.symbols:
            if not s or any(ch.isspace() for ch in s):
                raise ValueError(f"bad symbol token {s!r}")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, i: int) -> str:
        return self.symbols[i]

    def index(self, sym: str) -> int:
        try:
            return self.symbols.index(sym)
        except ValueError:
            raise ValueError(f"symbol {sym!r} not in alphabet {self.symbols}") from None


def alphabet(*symbols: str) -> Alphabet:
    return Alphabet(tuple(symbols))


@dataclass(frozen=True)
class Pattern:
    """A symbol assignment on a finite support, stored in canonical order."""

    cells: tuple[tuple[Point, str], ...]

    def __post_init__(self):
        pts = [pt for pt, _ in self.cells]
        if len(set(pts)) != len(pts):
            raise ValueError("pattern assigns a cell twice")
        object.__setattr__(self, "cells", tuple(sorted(self.cells)))

    @classmethod
    def from_dict(cls, mapping: Mapping[Point, str]) -> "Pattern":
        return cls(tuple((tuple(pt), sym) for pt, sym in mapping.items()))

    def domain(self) -> LatticeSet:
        return LatticeSet(pt for pt, _ in self.cells)

    def __getitem__(self, pt: Point) -> str:
        for p, sym in self.cells:
            if p == tuple(pt):
                return sym
        raise KeyError(pt)

    def __len__(self) -> int:
        return len(self.cells)

    def translate(self, u: Point) -> "Pattern":
        return Pattern(tuple(((m + u[0], n + u[1]), sym) for (m, n), sym in self.cells))

    def restrict(self, omega: LatticeSet) -> "Pattern":
        mine = {pt for pt, _ in self.cells}
        for pt in omega:
            if pt not in mine:
                raise ValueError(f"restriction target contains {pt}, outside the pattern support")
        return Pattern(tuple((pt, sym) for pt, sym in self.cells if pt in omega))

    def anchored(self) -> "Pattern":
        """Translate so the support's minimum column and row are both 0."""
        if not self.cells:
            return self
        m0 = min(pt[0] for pt, _ in self.cells)
        n0 = min(pt[1] for pt, _ in self.cells)
        return self.translate((-m0, -n0))

    @property
    def ncols_extent(self) -> int:
        ms = [pt[0] for pt, _ in self.cells]
        return max(ms) - min(ms) + 1 if ms else 0

    @property
    def nrows_extent(self) -> int:
        ns = [pt[1] for pt, _ in self.cells]
        return max(ns) - min(ns) + 1 if ns else 0


_THREE_DOT_SUPPORT = ((0, 0), (1, 0), (0, 1))


def _three_dot_cells(zero: str, one: str) -> list[tuple]:
    """The sorted cells of each odd-parity pattern on ``_THREE_DOT_SUPPORT``."""
    return [tuple(sorted((pt, (zero, one)[(bits >> i) & 1])
                         for i, pt in enumerate(_THREE_DOT_SUPPORT)))
            for bits in range(8) if bits.bit_count() % 2 == 1]


@dataclass(frozen=True)
class SftSpec:
    """A Z or Z^2 subshift of finite type: alphabet plus forbidden patterns.

    ``certified`` marks the shipped fixture families for which locally
    admissible patterns coincide with restrictions of genuine points of
    the subshift ("full", "row-lift", "three-dot"); the structural shape
    of the forbidden set is re-verified at construction.
    """

    dimension: int
    alphabet: Alphabet
    forbidden: tuple[Pattern, ...]
    certified: str | None = None

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        for f in self.forbidden:
            if len(f) == 0:
                raise ValueError("forbidden patterns must have nonempty support")
            for (m, n), sym in f.cells:
                self.alphabet.index(sym)
                if self.dimension == 1 and n != 0:
                    raise ValueError("1D forbidden patterns must live on the horizontal axis")
        # canonical order so equal specs compare equal regardless of input order
        object.__setattr__(self, "forbidden",
                           tuple(sorted(set(self.forbidden), key=lambda p: p.cells)))
        _check_certificate(self)

    @property
    def nsymbols(self) -> int:
        return len(self.alphabet)


def _check_certificate(sft: SftSpec) -> None:
    cert = sft.certified
    if cert is None:
        return
    if cert == "full":
        if sft.forbidden:
            raise ValueError("'full' certificate requires an empty forbidden set")
    elif cert == "row-lift":
        if sft.dimension != 2:
            raise ValueError("'row-lift' certificate requires dimension 2")
        for f in sft.forbidden:
            if f.nrows_extent > 1:
                raise ValueError("'row-lift' certificate requires single-row forbidden patterns")
        if not _one_d_extendable(base_of_row_lift(sft)):
            raise ValueError("'row-lift' certificate requires an extendable 1D base")
    elif cert == "three-dot":
        if sft.dimension != 2 or len(sft.alphabet) != 2:
            raise ValueError("'three-dot' certificate requires a binary 2D spec")
        have = {tuple(sorted(f.anchored().cells)) for f in sft.forbidden}
        if have != set(_three_dot_cells(*sft.alphabet.symbols)):
            raise ValueError("'three-dot' certificate does not match the parity family")
    else:
        raise ValueError(f"unknown certificate {cert!r}")


# ---------------------------------------------------------------------------
# fixture families
# ---------------------------------------------------------------------------


def full_shift(symbols: Sequence[str] = ("0", "1"), dimension: int = 2) -> SftSpec:
    """The unconstrained shift on the given symbols."""
    return SftSpec(dimension, Alphabet(tuple(symbols)), (), certified="full")


def golden_mean_1d() -> SftSpec:
    """Binary 1D SFT forbidding adjacent ones."""
    bad = Pattern.from_dict({(0, 0): "1", (1, 0): "1"})
    return SftSpec(1, alphabet("0", "1"), (bad,))


def row_lift(base: SftSpec) -> SftSpec:
    """Lift a 1D SFT to Z^2 with every row independently constrained.

    The count on an N x M rectangle is the base count on length N raised
    to the power M, and the Z^2 entropy equals the base entropy.
    """
    if base.dimension != 1:
        raise ValueError("row_lift expects a 1D base spec")
    cert = "row-lift" if _one_d_extendable(base) else None
    return SftSpec(2, base.alphabet, base.forbidden, certified=cert)


def three_dot() -> SftSpec:
    """Ledrappier-style parity SFT: x(u) + x(u+e1) + x(u+e2) even everywhere."""
    pats = tuple(Pattern.from_dict(dict(cells)) for cells in _three_dot_cells("0", "1"))
    return SftSpec(2, alphabet("0", "1"), pats, certified="three-dot")


def base_of_row_lift(sft: SftSpec) -> SftSpec:
    """Extract the 1D base of a spec whose forbidden patterns are single rows."""
    pats = []
    for f in sft.forbidden:
        if f.nrows_extent > 1:
            raise ValueError("forbidden pattern spans several rows; not a row-lift")
        pats.append(f.anchored())
    return SftSpec(1, sft.alphabet, tuple(pats))


def row_interval(length: int) -> LatticeSet:
    """The horizontal support [0, length) x {0}."""
    return LatticeSet((m, 0) for m in range(length))


# ---------------------------------------------------------------------------
# placement tables for backtracking / enumeration
# ---------------------------------------------------------------------------


def _support_points(support) -> LatticeSet:
    if isinstance(support, LatticeSet):
        return support
    if isinstance(support, IntRect):
        return LatticeSet.from_rect(support)
    return LatticeSet(support)


def _placement_groups(sft: SftSpec, points: tuple[Point, ...]):
    """All translated forbidden patterns inside the support, grouped by the
    assignment-order index at which they complete."""
    index = {pt: i for i, pt in enumerate(points)}
    pset = set(points)
    groups: list[set[tuple[tuple[int, int], ...]]] = [set() for _ in points]
    if points:
        ms = [p[0] for p in points]
        ns = [p[1] for p in points]
        box = (min(ms), max(ms), min(ns), max(ns))
    for f in sft.forbidden:
        cells = [((m, n), sft.alphabet.index(sym)) for (m, n), sym in f.cells]
        fm0 = min(m for (m, _), _ in cells)
        fm1 = max(m for (m, _), _ in cells)
        fn0 = min(n for (_, n), _ in cells)
        fn1 = max(n for (_, n), _ in cells)
        if not points:
            continue
        for um in range(box[0] - fm0, box[1] - fm1 + 1):
            for un in range(box[2] - fn0, box[3] - fn1 + 1):
                shifted = []
                inside = True
                for (m, n), sidx in cells:
                    pt = (m + um, n + un)
                    if pt not in pset:
                        inside = False
                        break
                    shifted.append((index[pt], sidx))
                if inside:
                    key = tuple(sorted(shifted))
                    groups[max(i for i, _ in key)].add(key)
    return [sorted(g) for g in groups]


# ---------------------------------------------------------------------------
# cell-by-cell transfer sweep over rectangles, cached per height
# ---------------------------------------------------------------------------


class RectCounter:
    """Transfer-sweep cache of one spec for rectangle counts (a 1D spec's
    rectangles are one row high).

    Counts depend only on the rectangle's column/row numbers.  A rectangle
    is swept cell by cell along whichever side gives the smaller profile
    q^L (see ``_CellSweep``), provided q^L is at most ``MAX_STATES``.
    Sweeps are cached per orientation and height with a total per column,
    so asking for (W, H) after (W', H) with W' > W is free.  Counts are
    exact: the sweep runs in int64 while no column can overflow and in
    Python ints after.  ``count_locally_admissible`` keeps one per
    spec in ``_sweep_cache`` for the life of the process.
    """

    def __init__(self, sft: SftSpec):
        self.sft = sft
        self._sweeps: dict[tuple[bool, int], _CellSweep] = {}

    def try_count(self, ncols: int, nrows: int) -> int | None:
        """The sweep count on an ncols x nrows rectangle, or None when its
        profile exceeds ``MAX_STATES`` in both orientations.  Raises
        ``ResourceGuardError`` before sweeping when width x bits x states
        is over ``MAX_SWEEP_WORK``."""
        # ties keep the column sweep, min() returning the first minimum
        sweep, width = min((self._sweep(False, nrows), ncols),
                           (self._sweep(True, ncols), nrows), key=lambda sw: sw[0].span)
        states = self.sft.nsymbols ** sweep.span
        if states > MAX_STATES:
            return None
        bits = ncols * nrows * math.log2(self.sft.nsymbols)
        if width * bits * states > MAX_SWEEP_WORK:
            raise ResourceGuardError(
                f"a sweep of {width} columns over {states} states with counts of up to "
                f"{bits:.0f} bits is above the sweep guard of {MAX_SWEEP_WORK}")
        return sweep.total(width)

    def _sweep(self, transposed: bool, height: int) -> "_CellSweep":
        key = (transposed, height)
        if key not in self._sweeps:
            self._sweeps[key] = _CellSweep(self.sft, height, transposed)
        return self._sweeps[key]


_sweep_cache: dict[SftSpec, RectCounter] = {}


class _CellSweep:
    """Transfer sweep adding one cell at a time to columns of one height.

    Cells are visited in column-major order, in the transposed picture
    when ``transposed`` (columns are then the rectangle's rows).  The
    state is the symbols of the last L cells, indexed in base q with the
    oldest cell as the lowest digit.  L is the larger of the height and
    the longest span of a forbidden pattern that fits the height (its
    last cell's index minus its first's).  Since the profile q^L never
    drops below one column's q^height, a state guard accepts the same
    rectangles as a transfer over column states for every pattern whose
    span is at most the height.  Adding a cell repeats the vector once
    per new symbol, zeroes the states in which a forbidden placement
    completes at that cell, and sums out the oldest cell.  Construction
    only computes offsets, so callers can check q^L before anything is
    allocated; vectors and index lists are built by the first ``total``.

    The state vector starts as int64.  A cell sums q entries, so one
    column multiplies the largest entry by at most q^height; before a
    column whose largest entry could pass 2^63 that way, the vector is
    converted once to an object array of Python ints, and the same numpy
    operations go on exactly.  Since q^height <= ``MAX_STATES``, that
    happens only once entries pass 2^51.  Column totals are summed as
    Python ints, since the int64 entries' sum can pass 2^63.
    """

    def __init__(self, sft: SftSpec, height: int, transposed: bool):
        self.q = sft.nsymbols
        self.height = height
        # per fitting pattern: its row extent, the row of its last cell and
        # (age, symbol) per cell, where age counts cells back from the last
        self.patterns = []
        for f in sft.forbidden:
            rows = f.ncols_extent if transposed else f.nrows_extent
            if rows > height:
                continue
            cells = sorted(((n * height + m, m) if transposed else (m * height + n, n))
                           + (sft.alphabet.index(sym),)
                           for (m, n), sym in f.anchored().cells)
            last, last_row, _ = cells[-1]
            self.patterns.append((rows, last_row,
                                  tuple((last - off, s) for off, _, s in cells)))
        self.span = max([height] + [cells[0][0] for _, _, cells in self.patterns])
        self.vec = None
        self.first = self.steady = None
        self.cell = 0
        self.totals = [1]

    def _hits(self, i: int) -> np.ndarray:
        """States, after cell ``i`` is appended, in which a forbidden
        placement completes at cell ``i``.  Placements reaching before
        cell 0, hence before column 0, are skipped."""
        q = self.q
        ndigits = min(i, self.span) + 1
        row = i % self.height
        states = np.arange(q ** ndigits)
        hit = np.zeros(states.size, bool)
        for rows, last_row, cells in self.patterns:
            if cells[0][0] > i or not 0 <= row - last_row <= self.height - rows:
                continue
            match = np.ones(states.size, bool)
            for age, sym in cells:
                match &= states // q ** (ndigits - 1 - age) % q == sym
            hit |= match
        return np.flatnonzero(hit)

    def total(self, width: int) -> int:
        """Count on the ``width`` x height rectangle of this orientation."""
        if self.vec is None:
            self.vec = np.ones(1, dtype=np.int64)
            # one list per cell until the state is full, then one per row,
            # each built from a cell index past the first L in that row
            self.first = [self._hits(i) for i in range(self.span)]
            self.steady = [self._hits(self.span + (r - self.span) % self.height)
                           for r in range(self.height)]
        q = self.q
        # no column starting with entries at most this can overflow int64
        safe = np.iinfo(np.int64).max // q ** self.height
        while len(self.totals) <= width:
            if self.vec.dtype != object and self.vec.max() > safe:
                self.vec = self.vec.astype(object)
            for _ in range(self.height):
                i = self.cell
                grown = np.concatenate((self.vec,) * q)
                if i < self.span:
                    grown[self.first[i]] = 0
                    self.vec = grown
                else:
                    grown[self.steady[i % self.height]] = 0
                    vec = grown[0::q]
                    for s in range(1, q):
                        vec = vec + grown[s::q]
                    self.vec = vec
                self.cell = i + 1
            # a sum of int64 entries can pass 2^63, a sum of Python ints not
            self.totals.append(sum(self.vec.tolist()))
        return self.totals[width]


# ---------------------------------------------------------------------------
# public counting / enumeration operations
# ---------------------------------------------------------------------------


def count_locally_admissible(sft: SftSpec, support, *, algorithm: str = "auto") -> int:
    """Number of patterns on ``support`` with no forbidden translate inside it.

    Equals |A|^|support| for the full shift and upper-bounds the number of
    restrictions of genuine subshift points; the two coincide for the
    certified fixture families.  ``support`` is an ``IntRect`` (counted
    without building its points), a ``LatticeSet`` or an iterable of
    points.  In order: an empty support counts 1; a support into which no
    forbidden pattern fits counts q^cells (refused above
    ``MAX_COUNT_BITS`` bits); under "auto", a spec whose forbidden
    patterns each lie in one row (every 1D spec) is counted as a product
    of ``word_count_1d`` over the runs of the support's rows when no two
    runs of a row are closer than the widest pattern (see
    ``_row_product``), and a rectangle goes to the transfer sweep;
    anything left is backtracked on at most ``MAX_FREE_CELLS`` cells.
    "backtracking" skips the transfer paths.
    """
    if algorithm not in ("auto", "backtracking"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if isinstance(support, IntRect):
        pts, rect, cells = None, support, support.cardinality()
    else:
        pts = _support_points(support)
        rect, cells = pts.as_rect(), len(pts)
    if cells == 0:
        return 1
    box = rect if rect is not None else pts.bounding_box()
    if sft.dimension == 1 and (box.c, box.d) != (0, 0):
        raise ValueError("1D supports must lie on the horizontal axis")
    if closed_form_applies(sft, box.ncols, box.nrows, cells):
        return sft.nsymbols ** cells

    if algorithm == "auto":
        out = _row_product(sft, rect, pts)
        if out is None and rect is not None:
            if sft not in _sweep_cache:
                _sweep_cache[sft] = RectCounter(sft)
            out = _sweep_cache[sft].try_count(rect.ncols, rect.nrows)
        if out is not None:
            return out

    if cells > MAX_FREE_CELLS:
        raise ResourceGuardError(
            f"support has {cells} cells, above the backtracking guard {MAX_FREE_CELLS}")
    points = (pts if pts is not None else LatticeSet.from_rect(rect)).points
    return kernels.backtrack_count(len(points), sft.nsymbols, _placement_groups(sft, points))


def closed_form_applies(sft: SftSpec, ncols: int, nrows: int, cells: int) -> bool:
    """True when no forbidden pattern fits an ncols x nrows box, so that a
    support of ``cells`` cells inside it counts q^cells.  Raises
    ``ResourceGuardError`` when that count has more than ``MAX_COUNT_BITS``
    bits, before it is formed."""
    if any(f.ncols_extent <= ncols and f.nrows_extent <= nrows for f in sft.forbidden):
        return False
    if cells * math.log2(sft.nsymbols) > MAX_COUNT_BITS:
        raise ResourceGuardError(
            f"the count {sft.nsymbols}^{cells} has more bits than the guard of "
            f"{MAX_COUNT_BITS}")
    return True


def _row_product(sft: SftSpec, rect: IntRect | None, pts: LatticeSet | None) -> int | None:
    """The count of a spec whose forbidden patterns each lie in one row,
    as the product over the runs of the support's rows of the 1D base's
    word count at each run's length; a 1D interval is one run of one row.
    None when a pattern spans two rows, two runs of a row are closer than
    the widest pattern, or the base's block graph is over its guard.
    Raises ``ResourceGuardError`` when the count would have more than
    ``MAX_COUNT_BITS`` bits, checked from the run lengths before any word
    count is formed and from the word counts before their product is.
    """
    if any(f.nrows_extent > 1 for f in sft.forbidden):
        return None
    base = base_of_row_lift(sft)
    if rect is not None:
        lengths = Counter({rect.ncols: rect.nrows})
    else:
        wide = max(f.ncols_extent for f in sft.forbidden)
        lengths = Counter()
        last: dict[int, int] = {}
        run: dict[int, int] = {}
        for m, n in pts:  # columns ascend, so each row arrives left to right
            if n in last and m > last[n] + 1:
                if m - last[n] < wide:
                    # a pattern that fits across the gap links its runs:
                    # (0,0)=1 (2,0)=1 across the one-cell gap of row {0, 2}
                    return None
                lengths[run.pop(n)] += 1
            run[n] = run.get(n, 0) + 1
            last[n] = m
        lengths.update(run.values())
    counts = {}
    for length in lengths:
        if length * math.log2(base.nsymbols) > MAX_COUNT_BITS:
            raise ResourceGuardError(
                f"a row of {length} cells may count above the guard of {MAX_COUNT_BITS} bits")
        try:
            counts[length] = word_count_1d(base, length)
        except ResourceGuardError:
            return None
    bits = sum(k * counts[length].bit_length() for length, k in lengths.items())
    if bits > MAX_COUNT_BITS:
        raise ResourceGuardError(
            f"the count has about {bits} bits, above the guard of {MAX_COUNT_BITS} bits")
    return math.prod(counts[length] ** k for length, k in lengths.items())


def enumerate_locally_admissible(sft: SftSpec, support) -> Iterator[Pattern]:
    """Yield every locally admissible pattern on ``support`` exactly once.

    Cells are assigned in canonical (lexicographic) order and symbols in
    alphabet order by ``kernels.backtrack``, so the stream is
    deterministic and sorted, and bounded by the same work guard.
    """
    points = _support_points(support).points
    n = len(points)
    if n > MAX_FREE_CELLS:
        raise ResourceGuardError(
            f"support has {n} cells, above the enumeration guard {MAX_FREE_CELLS}")
    syms = sft.alphabet.symbols
    for assign in kernels.backtrack(n, len(syms), _placement_groups(sft, points)):
        yield Pattern(tuple(zip(points, (syms[s] for s in assign))))


# ---------------------------------------------------------------------------
# one-dimensional transfer matrices
# ---------------------------------------------------------------------------

_graph_cache: dict[SftSpec, tuple] = {}


def transfer_graph_1d(sft: SftSpec):
    """Higher-block presentation of a 1D SFT.

    Recodes forbidden words of width up to k into a nearest-neighbour
    system on (k-1)-blocks.  Returns (nodes, T) with nodes the admissible
    (k-1)-letter words in lexicographic order and T the 0/1 transition
    matrix between overlapping words, one edge per admissible k-word.
    """
    if sft.dimension != 1:
        raise ValueError("transfer_graph_1d expects a 1D spec")
    if sft in _graph_cache:
        return _graph_cache[sft]
    k = _recoding_width(sft)
    q = sft.nsymbols
    if q ** (k - 1) > MAX_STATES:
        raise ResourceGuardError(
            f"1D block recoding needs {q}^{k - 1} nodes, above the guard {MAX_STATES}")
    nodes = _words(sft, k - 1)
    pos = {w: i for i, w in enumerate(nodes)}
    T = np.zeros((len(nodes), len(nodes)), dtype=np.int64)
    for word in _words(sft, k):
        T[pos[word[:-1]], pos[word[1:]]] = 1
    _graph_cache[sft] = (nodes, T)
    return nodes, T


def _recoding_width(sft: SftSpec) -> int:
    """The k of the (k-1)-block recoding: the widest forbidden word, at least 2."""
    return max(2, max((f.ncols_extent for f in sft.forbidden), default=1))


def _words(sft: SftSpec, length: int) -> list[tuple[str, ...]]:
    """Locally admissible words of a 1D spec in lexicographic order."""
    return [tuple(sym for _, sym in p.cells)
            for p in enumerate_locally_admissible(sft, row_interval(length))]


def word_count_1d(sft: SftSpec, length: int) -> int:
    """Exact number of locally admissible words of the given length.

    From length k-1 on this is 1^T T^(length-k+1) 1 over the block graph
    (see ``transfer_graph_1d``), computed in Python ints by repeated
    squaring when ``_squaring_pays`` and by stepping a vector otherwise.
    """
    if sft.dimension != 1:
        raise ValueError("word_count_1d expects a 1D spec")
    if length < 0:
        raise ValueError("length must be nonnegative")
    nodes, T = transfer_graph_1d(sft)
    k1 = _recoding_width(sft) - 1
    if length < k1:
        return count_locally_admissible(sft, row_interval(length),
                                        algorithm="backtracking")
    if not nodes:
        return 0  # every word this long contains a (k-1)-block, none admissible
    steps = length - k1
    if _squaring_pays(len(nodes), int(T.sum()), int(T.sum(axis=1).max()), steps):
        return _walks_by_squaring(T, steps)
    return _walks_by_iteration(T, steps)


def _squaring_pays(nodes: int, edges: int, degree: int, steps: int) -> bool:
    """The cost rule of ``word_count_1d``, in units of one small big-int
    product.  Squaring makes about nodes^3 log2(steps) products, and its
    last doublings multiply numbers of about ``bits`` bits (Karatsuba, so
    bits^1.585); iteration makes steps * edges sums of numbers of up to
    ``bits`` bits, each about twice a small product.  ``bits`` is steps *
    log2(largest out-degree), which bounds the count's growth.  The
    constants are fitted to timings of both methods on 1D specs with 2 to
    64 block nodes at 3 to 10^5 steps."""
    bits = steps * math.log2(max(degree, 1))
    return nodes ** 3 * (steps.bit_length() + bits ** 1.585 / 10 ** 4) < \
        steps * edges * (2 + bits / 4000)


def _walks_by_squaring(T: np.ndarray, steps: int) -> int:
    """1^T T^steps 1: the row vector takes T^(2^i) for each set bit i."""
    vec, power = [1] * T.shape[0], T.tolist()
    while steps:
        if steps & 1:
            vec = [sum(v * p for v, p in zip(vec, col)) for col in zip(*power)]
        steps >>= 1
        if steps:
            cols = list(zip(*power))
            power = [[sum(a * b for a, b in zip(row, col)) for col in cols]
                     for row in power]
    return sum(vec)


def _walks_by_iteration(T: np.ndarray, steps: int) -> int:
    """1^T T^steps 1, one vector step per edge sum."""
    preds = [np.nonzero(T[:, j])[0].tolist() for j in range(T.shape[0])]
    vec = [1] * T.shape[0]
    for _ in range(steps):
        vec = [sum(vec[i] for i in plist) for plist in preds]
    return sum(vec)


def spectral_radius(T: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(T.astype(float)))))


def transfer_matrix_entropy_1d(sft: SftSpec) -> float:
    """Topological entropy of a 1D SFT in bits per symbol.

    log2 of the spectral radius of the higher-block transition matrix;
    equals the growth rate of the admissible word counts.  Raises
    EmptyLanguageError when no bi-infinite point exists.
    """
    nodes, T = transfer_graph_1d(sft)
    if len(nodes) == 0:
        raise EmptyLanguageError("no admissible blocks: the subshift is empty")
    rho = spectral_radius(T)
    # An integer matrix has spectral radius 0 (nilpotent, finite language)
    # or at least 1 (contains a cycle).
    if rho < 0.5:
        raise EmptyLanguageError("transition graph is acyclic: the subshift is empty")
    return math.log2(rho)


def perron_eigendata(T: np.ndarray):
    """Perron root with right and left positive eigenvectors, each summing to 1.

    A dense eigensolve of the (small) irreducible matrix T; the Perron root
    is the eigenvalue of largest real part, which for a periodic graph
    singles it out among the eigenvalues of the same modulus.  Raises
    MeandimError when an eigenvector is not positive or leaves a residual
    ||Tv - lam v|| above 1e-9 lam.
    """
    Tf = T.astype(float)
    vecs = []
    for M in (Tf, Tf.T):
        w, V = np.linalg.eig(M)
        k = int(np.argmax(w.real))
        lam = float(w[k].real)
        if lam <= 0:
            raise EmptyLanguageError("transition graph has no Perron direction")
        v = (V[:, k] / V[:, k].sum()).real
        if v.min() <= 0 or np.linalg.norm(M @ v - lam * v) > 1e-9 * lam * np.linalg.norm(v):
            raise MeandimError(
                f"Perron eigenvector of the {T.shape[0]}x{T.shape[0]} transition "
                f"matrix is not positive or leaves a large residual")
        vecs.append(v)
    return lam, vecs[0], vecs[1]


def strongly_connected(T: np.ndarray) -> bool:
    n = T.shape[0]
    if n == 0:
        return False
    reach = (T > 0) | np.eye(n, dtype=bool)
    while True:
        # reach holds paths of length <= k; squaring doubles k
        wider = reach @ reach
        if (wider == reach).all():
            return bool(reach.all())
        reach = wider


# ---------------------------------------------------------------------------
# box-counting entropy estimates for 2D specs
# ---------------------------------------------------------------------------


def box_entropy_estimate(sft: SftSpec, Nmax: int) -> list[tuple[int, float]]:
    """log2(count on the N x N box)/N^2 for N = 1..Nmax.

    The sequence upper-bounds the Z^2 topological entropy; for certified
    fixtures the infimum over N is the entropy itself.
    """
    if sft.dimension != 2:
        raise ValueError("box_entropy_estimate expects a 2D spec")
    if Nmax < 1:
        raise ValueError("Nmax must be positive")
    out = []
    for N in range(1, Nmax + 1):
        c = count_locally_admissible(sft, IntRect(0, N - 1, 0, N - 1))
        out.append((N, math.log2(c) / (N * N)))
    return out


def _one_d_extendable(base: SftSpec) -> bool:
    """True when every locally admissible word of the base extends to a
    bi-infinite point, so that pattern counts are exact for the row-lift.

    Checked structurally: the higher-block graph loses no node when nodes
    without incoming or outgoing edges are trimmed away, and every shorter
    admissible word occurs inside some block.
    """
    try:
        nodes, T = transfer_graph_1d(base)
    except ResourceGuardError:
        return False
    n = len(nodes)
    if n == 0:
        return False
    if (T.sum(axis=0) == 0).any() or (T.sum(axis=1) == 0).any():
        return False
    k1 = len(nodes[0])
    for ell in range(1, k1):
        for word in _words(base, ell):
            if not any(w[i:i + ell] == word for w in nodes for i in range(k1 - ell + 1)):
                return False
    return True
