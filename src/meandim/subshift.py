"""Subshifts of finite type on Z and Z^2 and exact pattern counting.

An SFT is a finite alphabet plus a finite list of forbidden patterns.
The module counts and enumerates locally admissible patterns (patterns
containing no translate of a forbidden pattern inside their support),
computes 1D topological entropy through the transfer-matrix method, and
builds the exactly tractable fixture families used as ground truth:
full shifts, row-lifts of 1D SFTs, and the three-dot parity system.

Counts are arbitrary-precision integers.  ``plan`` chooses the first
path that applies, and its ``run`` counts by that path's engine:

1. the closed form q^cells when no forbidden pattern fits the support's
   bounding box;
2. for a spec whose forbidden patterns each lie in one row (every 1D
   spec), the product over the runs of the support's rows of the 1D
   base's word count (``word_count_1d``, walks on the block transfer
   graph) at each run's length, when no two runs of a row are closer
   than the widest pattern;
3. for a linear spec (q prime, and each forbidden shape's allowed
   patterns an affine subspace of GF(q)^shape, as for three-dot), q^(cells
   - rank) of the shapes' equations at every placement inside the
   support: the admissible patterns of an SFT that is a group form a
   linear code (Kitchens and Schmidt, 1989), a rectangle's read from the
   rank strip of its height (``_RankStrip``);
4. for any other spec's rectangle, a transfer sweep that adds a cell at a
   time (the transfer-matrix count of Calkin and Wilf for the hard-square
   model); ``RectCounter`` holds the sweeps and the rank strips;
5. otherwise backtracking (``kernels.backtrack``) with pruning at the
   moment a forbidden pattern completes.

Guards fire before work, ``plan`` firing each that can before a count
starts; no engine checks or walks a support again.  Counts above
``MAX_COUNT_BITS`` bits are refused before they are formed, a word
count's walk by ``MAX_WALK_WORK``, an elimination's cells x bandwidth
is bounded by ``MAX_ELIMINATION_WORK``,
the sweep's profile q^L by ``MAX_STATES`` and its work by
``MAX_SWEEP_WORK``, and backtracking takes at most ``MAX_FREE_CELLS``
cells and ``kernels.MAX_NODES`` descents.  Enumeration runs the same
backtracking walk.  The paths are tested to agree on random small specs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import kernels
from .errors import EmptyLanguageError, MeandimError, ResourceGuardError
from .lattice import IntRect, LatticeSet, Point, SweptWindow

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
# largest cheaper side of the cost rule of ``word_count_1d`` (``_walk_costs``,
# in small big-int products) that one word count of a plan may take.
# Iteration took 70-145 ns per unit on a 64-node block graph from 30 to
# 10,000 steps, squaring 52-99 ns on the golden mean from 10,000 to 262,143
# (2-core Xeon VM, Python 3.11), so the guard bounds a word count to about
# 2 s there.
MAX_WALK_WORK = 1 << 24


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

    @classmethod
    def _canonical(cls, cells: tuple) -> "Pattern":
        """The pattern of ``cells``, already in canonical order with each
        cell once, built without the check and sort of ``__post_init__``."""
        pattern = object.__new__(cls)
        object.__setattr__(pattern, "cells", cells)
        return pattern

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

    Each forbidden pattern is stored anchored: its least column and row
    are 0.  ``certified`` is derived from the patterns when first read
    (``certificate_of``), never declared, so equal patterns mean equal specs.
    """

    dimension: int
    alphabet: Alphabet
    forbidden: tuple[Pattern, ...]

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
        # anchored and in canonical order: specs equal up to offsets and order are equal
        object.__setattr__(self, "forbidden", tuple(sorted(
            {f.anchored() for f in self.forbidden}, key=lambda p: p.cells)))

    @property
    def nsymbols(self) -> int:
        return len(self.alphabet)

    @functools.cached_property
    def certified(self) -> str | None:
        return certificate_of(self)


def certificate_of(sft: SftSpec) -> str | None:
    """The family, read off the forbidden patterns, for which locally
    admissible patterns are exactly the restrictions of points, or None."""
    if not sft.forbidden:
        return "full"
    if sft.dimension != 2:
        return None
    if all(f.nrows_extent == 1 for f in sft.forbidden):
        return "row-lift" if _one_d_extendable(base_of_row_lift(sft)) else None
    syms = sft.alphabet.symbols
    if len(syms) == 2 and {f.cells for f in sft.forbidden} in (
            set(_three_dot_cells(*syms)), set(_three_dot_cells(*syms[::-1]))):
        return "three-dot"
    return None


def certified_entropy(sft: SftSpec) -> float:
    """Topological entropy of a certified fixture, in bits per site."""
    if sft.certified == "full":
        return math.log2(len(sft.alphabet))
    if sft.certified == "row-lift":
        return transfer_matrix_entropy_1d(base_of_row_lift(sft))
    if sft.certified == "three-dot":
        # Re-verify the boundary-determined count law on small boxes.
        for N in range(1, 5):
            c = count_locally_admissible(sft, LatticeSet.from_rect(IntRect(0, N - 1, 0, N - 1)))
            if c != 2 ** (2 * N - 1):
                raise MeandimError(
                    f"three-dot certificate failed its count re-check at N={N}")
        return 0.0
    raise MeandimError(f"no entropy formula for certificate {sft.certified!r}")


# ---------------------------------------------------------------------------
# fixture families
# ---------------------------------------------------------------------------


def full_shift(symbols: Sequence[str] = ("0", "1"), dimension: int = 2) -> SftSpec:
    """The unconstrained shift on the given symbols."""
    return SftSpec(dimension, Alphabet(tuple(symbols)), ())


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
    return SftSpec(2, base.alphabet, base.forbidden)


def three_dot() -> SftSpec:
    """Ledrappier-style parity SFT: x(u) + x(u+e1) + x(u+e2) even everywhere."""
    pats = tuple(Pattern.from_dict(dict(cells)) for cells in _three_dot_cells("0", "1"))
    return SftSpec(2, alphabet("0", "1"), pats)


@functools.cache
def base_of_row_lift(sft: SftSpec) -> SftSpec:
    """Extract the 1D base of a spec whose forbidden patterns are single rows."""
    if any(f.nrows_extent > 1 for f in sft.forbidden):
        raise ValueError("forbidden pattern spans several rows; not a row-lift")
    return SftSpec(1, sft.alphabet, sft.forbidden)


def row_interval(length: int) -> LatticeSet:
    """The horizontal support [0, length) x {0}."""
    return LatticeSet((m, 0) for m in range(length))


# ---------------------------------------------------------------------------
# placement tables for backtracking / enumeration
# ---------------------------------------------------------------------------


def _placement_groups(sft: SftSpec, pts: LatticeSet):
    """All translated forbidden patterns inside the support, as sorted
    (cell index, symbol) pairs, grouped by the assignment-order (column-
    major) index at which they complete."""
    groups: list[set[tuple[tuple[int, int], ...]]] = [set() for _ in range(len(pts))]
    for f in sft.forbidden:
        syms = [sft.alphabet.index(sym) for _, sym in f.cells]
        for first, k, shifts in pts.placements(tuple(pt for pt, _ in f.cells)):
            for d in (c + j for c in shifts for j in range(k)):
                groups[first[-1] + d].add(tuple((i + d, s) for i, s in zip(first, syms)))
    return [sorted(g) for g in groups]


# ---------------------------------------------------------------------------
# linear specs: counts by rank over GF(p)
# ---------------------------------------------------------------------------

# largest rows x bandwidth of one elimination over GF(2), and rows x
# bandwidth^2 over larger primes, where rows is cells x the spec's
# equations per placement and bandwidth the largest span of a row (last
# cell index minus first, plus 1).  A row is reduced only by the pivot at
# its own first cell, whose last cell is at most bandwidth - 1 past it
# too, so the reduced row ends no later, starts later and its span stays
# within the bandwidth.  Pivot rows are stored from their first cell, so
# they hold at most cells x bandwidth coefficients, and a row steps its
# first cell forward at most bandwidth times, each step one int XOR over
# GF(2) and one pass over its coefficients otherwise.  A unit took up to
# 235 ns on the slowest GF(2) spec tried, two equations per placement whose
# rows reduce across the bandwidth (2-core Xeon VM, Python 3.11), so the
# guard bounds an elimination to about 2 s there.  Three-dot's rows rarely
# reduce: its squares take about 1 us per cell, up to the 201 x 201 square.
MAX_ELIMINATION_WORK = 1 << 23


def _is_prime(q: int) -> bool:
    return q >= 2 and all(q % d for d in range(2, math.isqrt(q) + 1))


def _echelon(vectors, q: int) -> list[tuple[int, list[int]]]:
    """Reduced row echelon basis of the span of ``vectors`` over GF(q), as
    (pivot column, row) pairs, each row 1 at its pivot and 0 at the others'."""
    basis: list[tuple[int, list[int]]] = []
    for v in vectors:
        for col, row in basis:
            if v[col]:
                v = [(x - v[col] * y) % q for x, y in zip(v, row)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            continue
        inv = pow(v[lead], q - 2, q)
        v = [x * inv % q for x in v]
        basis = [(col, [(x - row[lead] * y) % q for x, y in zip(row, v)])
                 for col, row in basis]
        basis.append((lead, v))
    return basis


class _LinearSpec:
    """The equations over GF(q) of a linear spec, and its counts by rank.

    Symbols are read as their alphabet indices.  ``shapes`` holds, per
    anchored forbidden shape, its cells in column-major order and its
    equations, each a tuple of (shape cell, coefficient) terms with
    nonzero coefficients and a constant.  A pattern is locally admissible
    iff at every placement of every shape inside the support its symbols
    satisfy that shape's equations.  Cells are numbered in column-major
    order, the order of ``LatticeSet``, and the count is q^(cells - rank),
    or 0 when the equations are inconsistent.
    """

    def __init__(self, q: int, shapes):
        self.q = q
        self.shapes = shapes

    @classmethod
    def detect(cls, sft: SftSpec) -> "_LinearSpec | None":
        """The equations of ``sft``, or None unless q is prime and each
        shape's allowed vectors form a non-empty affine subspace of
        GF(q)^shape: exactly q^r of them, r the rank of their differences."""
        q = sft.nsymbols
        if not sft.forbidden or not _is_prime(q):
            return None
        bad: dict[tuple[Point, ...], set[tuple[int, ...]]] = {}
        for f in sft.forbidden:
            bad.setdefault(tuple(pt for pt, _ in f.cells), set()).add(
                tuple(sft.alphabet.index(sym) for _, sym in f.cells))
        shapes = []
        for shape, vecs in bad.items():
            k = len(shape)
            # an affine subspace of dimension r < k leaves q^k - q^r >= q^(k-1)
            # vectors forbidden, so the allowed ones below are few
            if k - 1 > len(vecs).bit_length() or q ** (k - 1) > len(vecs):
                return None
            allowed = [v for v in itertools.product(range(q), repeat=k) if v not in vecs]
            if not allowed:
                return None
            base = allowed[0]
            basis = _echelon([[(x - y) % q for x, y in zip(v, base)] for v in allowed[1:]], q)
            if len(allowed) != q ** len(basis):
                return None
            # one equation per free column f: x_f minus the basis rows' f-th
            # entries at their pivots vanishes on every difference
            pivots = {col for col, _ in basis}
            eqs = []
            for f in range(k):
                if f in pivots:
                    continue
                coef = [0] * k
                coef[f] = 1
                for col, row in basis:
                    coef[col] = -row[f] % q
                terms = tuple((i, c) for i, c in enumerate(coef) if c)
                eqs.append((terms, sum(c * x for c, x in zip(coef, base)) % q))
            shapes.append((shape, tuple(eqs)))
        return cls(q, tuple(shapes))

    def _row(self, indexed):
        """A row from (cell index, coefficient) pairs in index order: its
        first cell and the coefficients from there, as an int of bits over
        GF(2) and a list otherwise."""
        lead = indexed[0][0]
        if self.q == 2:
            return lead, sum(1 << (i - lead) for i, _ in indexed)
        coef = [0] * (indexed[-1][0] - lead + 1)
        for i, c in indexed:
            coef[i - lead] = c
        return lead, coef

    def check(self, cells: int, support) -> None:
        """Refuse, for ``plan``, a count on ``support`` of ``cells`` cells
        over ``MAX_COUNT_BITS`` bits, then its elimination over the work
        guard.  The support's ``bandwidth`` is read only when ``cells``,
        which bounds it, do not keep the work under the guard."""
        bits = cells * math.log2(self.q)
        if bits > MAX_COUNT_BITS:
            raise ResourceGuardError(
                f"a linear count on {cells} cells may have up to {bits:.0f} bits, above "
                f"the guard of {MAX_COUNT_BITS}")
        rows = cells * sum(len(eqs) for _, eqs in self.shapes)

        def work(bandwidth):
            return rows * bandwidth * (1 if self.q == 2 else bandwidth)
        if work(cells) <= MAX_ELIMINATION_WORK:
            return
        bandwidth = self.bandwidth(support)
        if work(bandwidth) > MAX_ELIMINATION_WORK:
            raise ResourceGuardError(
                f"eliminating {rows} rows over {cells} cells at bandwidth {bandwidth} is "
                f"above the elimination guard of {MAX_ELIMINATION_WORK}")

    def bandwidth(self, support) -> int:
        """The largest span of a row (last cell index minus first, plus 1)
        at a placement inside ``support`` (anything ``LatticeSet.of``
        takes), read from each stack's first placement, which the stack's
        others shift: 1 when no shape fits."""
        pts = LatticeSet.of(support)
        return max((first[terms[-1][0]] - first[terms[0][0]] + 1 for shape, eqs in self.shapes
                    for first, _, _ in pts.placements(shape) for terms, _ in eqs), default=1)

    def count(self, support) -> int:
        """The count on ``support``, after ``check``: one row per stack of
        placements and equation, shifted to each of the stack's placements,
        q^(cells - rank) or 0 when they are inconsistent."""
        pts = LatticeSet.of(support)

        def rows():
            for shape, eqs in self.shapes:
                for first, k, shifts in pts.placements(shape):
                    templates = [(*self._row([(first[i], c) for i, c in terms]), const)
                                 for terms, const in eqs]
                    for shift in shifts:
                        for d in range(shift, shift + k):
                            for lead, row, const in templates:
                                yield lead + d, row, const
        pivots: dict[int, tuple] = {}
        return self.q ** (len(pts) - len(pivots)) if self._eliminate(pivots, rows()) else 0

    def _eliminate(self, pivots: dict[int, tuple], rows) -> bool:
        """Reduce ``rows``, (first cell, coefficients, constant) triples,
        into ``pivots``, one (row, constant) per first cell, each row 1 at
        its first cell (a tuple over larger primes); False, with the rows
        after it unread, at a row that says 0 = 1.  A row is reduced by the
        pivot at its first cell until it is new there or vanishes, so a
        pivot is read only by rows that start at or before its first cell."""
        q = self.q
        for lead, row, const in rows:
            while lead in pivots:
                prow, pconst = pivots[lead]
                if q == 2:
                    row ^= prow
                    const ^= pconst
                    if not row:
                        break
                    shift = (row & -row).bit_length() - 1
                    row >>= shift
                else:
                    c = row[0]
                    row = [(x - c * y) % q
                           for x, y in itertools.zip_longest(row, prow, fillvalue=0)]
                    const = (const - c * pconst) % q
                    shift = next((i for i, x in enumerate(row) if x), None)
                    if shift is None:
                        break
                    row = row[shift:]
                lead += shift
            else:
                if q != 2:
                    inv = pow(row[0], q - 2, q)
                    row, const = tuple([x * inv % q for x in row]), const * inv % q
                pivots[lead] = (row, const)
                continue
            if const:
                return False
        return True


class _RankStrip:
    """Rank counts of a linear spec's rectangles of one height, every
    width from one elimination along the strip of that height.

    The strip's rows, one per equation and placement of each shape that
    fits the height, reach ``_LinearSpec._eliminate`` column by column,
    by the column where the placement ends, so that the rows of the first
    W columns are the W-wide rectangle's and ``ranks[W]`` is their rank.
    A row's first cell only moves right as it is reduced, so after each
    column the pivots left of every later row's first cell are retired:
    counted, and no longer kept.  Once every shape is in play (column at
    least the widest shape's width minus 1), each column adds the rows of
    the one before shifted by the height, so the live pivots, with their
    first cells read from the column's, decide every later column.  At
    the first repeat of that state, ``repeat`` = (W0, period, growth):
    from width W0 on, the rank grows by ``growth`` every ``period``
    columns, exactly.  A row that says 0 = 1 makes every width from
    ``zero_from`` on count 0.  The strip holds the ranks up to the
    repeat, and the live pivots and the states seen until it.
    """

    def __init__(self, linear: _LinearSpec, height: int):
        self.linear = linear
        self.height = height
        # per equation and anchor row of each shape that fits: the first
        # column its placements end in, and its rows' first cell there,
        # coefficients and constant, the first cell relative to the column's
        self.rows = []
        for shape, eqs in linear.shapes:
            last_col, top = shape[-1][0], max(n for _, n in shape)
            if top >= height:
                continue
            for terms, const in eqs:
                lead, row = linear._row([(shape[i][0] * height + shape[i][1], c)
                                         for i, c in terms])
                self.rows += [(last_col, lead + n - last_col * height, row, const)
                              for n in range(height - top)]
        self.start = max((first for first, _, _, _ in self.rows), default=0)
        # a later column's rows start at least this far past its column's first cell
        self.reach = min((rel for _, rel, _, _ in self.rows), default=0)
        self.ranks = [0]
        self.repeat: tuple[int, int, int] | None = None
        self.zero_from = math.inf
        self._pivots: dict | None = {}
        self._retired = 0
        self._seen: dict = {}

    def count(self, width: int) -> int:
        """The count on the ``width`` x height rectangle."""
        while width >= len(self.ranks) and self._pivots is not None:
            self._column()
        if width >= self.zero_from:
            return 0
        if width < len(self.ranks):
            rank = self.ranks[width]
        else:
            start, period, growth = self.repeat
            k, r = divmod(width - start, period)
            rank = self.ranks[start + r] + k * growth
        return self.linear.q ** (width * self.height - rank)

    def _column(self) -> None:
        col = len(self.ranks) - 1
        base = col * self.height
        pivots = self._pivots
        if not self.linear._eliminate(pivots, [(base + rel, row, const)
                                               for first, rel, row, const in self.rows
                                               if first <= col]):
            self.zero_from = col + 1
            self._pivots = self._seen = None
            return
        reach = base + self.height + self.reach
        for lead in [lead for lead in pivots if lead < reach]:
            del pivots[lead]
            self._retired += 1
        self.ranks.append(self._retired + len(pivots))
        if col >= self.start:
            state = tuple(sorted((lead - base, *pivot) for lead, pivot in pivots.items()))
            first = self._seen.setdefault(state, col + 1)
            if first <= col:
                self.repeat = (first, col + 1 - first, self.ranks[-1] - self.ranks[first])
                self._pivots = self._seen = None


# ---------------------------------------------------------------------------
# rectangle counts: by rank or by a cell-by-cell transfer sweep
# ---------------------------------------------------------------------------


class RectCounter:
    """Rectangle counts of one spec (a 1D spec's rectangles are one row
    high): by rank for a linear spec, by the transfer sweep otherwise.

    Counts depend only on the rectangle's column/row numbers.  The spec's
    equations are detected once, at construction (see ``_LinearSpec``).
    Rank strips (see ``_RankStrip``) are cached per height, sweeps (see
    ``_CellSweep``) per orientation and height, each with a result per
    column, so asking for (W, H) after (W', H) with W' > W is free.
    ``rect_counter`` keeps one per spec for the life of the process.
    """

    def __init__(self, sft: SftSpec):
        self.sft = sft
        self.linear = _LinearSpec.detect(sft)
        self._strips: dict[int, _RankStrip] = {}
        self._sweeps: dict[tuple[bool, int], _CellSweep] = {}

    def try_count(self, ncols: int, nrows: int) -> int | None:
        """The count on an ncols x nrows rectangle that ``plan`` checked: by the
        rank strip of its height for a linear spec, otherwise by the sweep
        ``sweep_for`` picks, or None."""
        if self.linear is not None:
            if nrows not in self._strips:
                self._strips[nrows] = _RankStrip(self.linear, nrows)
            return self._strips[nrows].count(ncols)
        sweep, width = self.sweep_for(ncols, nrows)
        return None if self.sft.nsymbols ** sweep.span > MAX_STATES else sweep.total(width)

    def sweep_for(self, ncols: int, nrows: int) -> "tuple[_CellSweep, int]":
        """The sweep with the smaller profile q^L and its width; ``plan`` refuses
        a profile above ``MAX_STATES`` and bounds the work by ``MAX_SWEEP_WORK``."""
        # ties keep the column sweep, min() returning the first minimum
        return min((self._sweep(False, nrows), ncols),
                   (self._sweep(True, ncols), nrows), key=lambda sw: sw[0].span)

    def _sweep(self, transposed: bool, height: int) -> "_CellSweep":
        key = (transposed, height)
        if key not in self._sweeps:
            self._sweeps[key] = _CellSweep(self.sft, height, transposed)
        return self._sweeps[key]


@functools.cache
def rect_counter(sft: SftSpec) -> RectCounter:
    """The spec's ``RectCounter``, built once per process."""
    return RectCounter(sft)


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
                           for (m, n), sym in f.cells)
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


class CountPlan(NamedTuple):
    """A path of ``plan`` and ``run``, its engine bound to what the plan
    read; ``bits`` = cells x log2 q bounds log2 of the count."""

    path: str
    cells: int
    bits: float
    run: Callable[[], int]

    def log2(self) -> float:
        """log2 of the count.  The empty and closed-form paths count
        q^cells, whose log2 is ``bits``, read without forming q^cells (the
        same double when q is a power of two); any other path runs its
        engine.  Refuses a count of 0, whose log2 no estimator can read."""
        if self.path in ("empty", "closed form"):
            return self.bits
        count = self.run()
        if count == 0:
            raise EmptyLanguageError(
                "no admissible pattern fits the window: the subshift is empty")
        return math.log2(count)


def plan(sft: SftSpec, support, algorithm: str = "auto") -> CountPlan:
    """The path ("empty", "closed form", "row product", "rank", "sweep" or
    "backtracking", as listed above) that counts ``support``, a
    ``SweptWindow`` or anything ``LatticeSet.of`` takes, after every
    refusal that can come before the count.  Its size and box are read
    first, its shape and runs only for the row product or the rank path."""
    if algorithm not in ("auto", "backtracking"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    pts = support if isinstance(support, SweptWindow) else LatticeSet.of(support)
    cells = pts.size
    bits = cells * math.log2(sft.nsymbols)
    path = functools.partial(CountPlan, cells=cells, bits=bits)
    if cells == 0:
        return path("empty", run=functools.partial(pow, sft.nsymbols, 0))
    box = pts.bounding_box()
    if sft.dimension == 1 and (box.c, box.d) != (0, 0):
        raise ValueError("1D supports must lie on the horizontal axis")
    if not any(f.ncols_extent <= box.ncols and f.nrows_extent <= box.nrows
               for f in sft.forbidden):
        if bits > MAX_COUNT_BITS:
            raise ResourceGuardError(
                f"the count {sft.nsymbols}^{cells} has more bits than the guard of "
                f"{MAX_COUNT_BITS}")
        return path("closed form", run=functools.partial(pow, sft.nsymbols, cells))
    refused = ""  # why the sweep refused a rectangle, if it did
    if algorithm == "auto":
        rect = pts.as_rect()
        lengths = _row_lengths(sft, pts, rect)
        if lengths is not None:
            # q^cells does not bound the count under the guard: form it now
            counts = _row_counts(sft, lengths) if bits > MAX_COUNT_BITS else None
            return path("row product",
                        run=functools.partial(_row_product, sft, lengths, counts))
        counter = rect_counter(sft)
        on_rect = rect and functools.partial(counter.try_count, rect.ncols, rect.nrows)
        if counter.linear is not None:
            counter.linear.check(cells, rect or pts)
            return path("rank", run=on_rect or functools.partial(counter.linear.count, pts))
        if rect:
            sweep, width = counter.sweep_for(rect.ncols, rect.nrows)
            states = sft.nsymbols ** sweep.span
            if states <= MAX_STATES:
                if width * bits * states > MAX_SWEEP_WORK:
                    raise ResourceGuardError(
                        f"a sweep of {width} columns over {states} states with counts of "
                        f"up to {bits:.0f} bits is above the sweep guard of {MAX_SWEEP_WORK}")
                return path("sweep", run=on_rect)
            refused = (f"; the transfer sweep would need {sft.nsymbols}^{sweep.span} states, "
                       f"above its guard {MAX_STATES}")
    if cells > MAX_FREE_CELLS:
        raise ResourceGuardError(
            f"support has {cells} cells, above the backtracking guard {MAX_FREE_CELLS}"
            + refused)

    def backtrack():
        # a rectangle's cells reach the walk through from_rect, the builder
        # that perfbench/tracer.py counts cells at
        walk = LatticeSet.from_rect(box) if pts.as_rect() is not None else LatticeSet.of(pts)
        return kernels.backtrack_count(len(walk), sft.nsymbols, _placement_groups(sft, walk))
    return path("backtracking", run=backtrack)


def count_locally_admissible(sft: SftSpec, support, *, algorithm: str = "auto") -> int:
    """Number of patterns on ``support`` with no forbidden translate inside it.

    Equals |A|^|support| for the full shift and upper-bounds the number of
    restrictions of genuine subshift points; the two coincide for the
    certified fixture families.  ``plan(...).run()``: the engine of the
    path ``plan`` names, bound to what the plan read of the support.
    """
    return plan(sft, support, algorithm).run()


def _row_lengths(sft: SftSpec, pts, rect: IntRect | None) -> dict[int, int] | None:
    """Runs per length in the rows of ``pts``, or of ``rect``; None unless
    every forbidden pattern lies in one row, no two runs of a row are closer
    than the widest and the base's block graph is under its guard.  Refuses
    long runs."""
    if any(f.nrows_extent > 1 for f in sft.forbidden):
        return None
    if rect is not None:
        lengths = {rect.ncols: rect.nrows}
    else:
        wide = max((f.ncols_extent for f in sft.forbidden), default=1)
        lengths = {}
        for n0, n1, runs in LatticeSet.of(pts).bands:
            if len(runs) > 1 and any(lo - hi < wide for (_, hi), (lo, _) in zip(runs, runs[1:])):
                # a pattern that fits across the gap links its runs:
                # (0,0)=1 (2,0)=1 across the one-cell gap of row {0, 2}
                return None
            for lo, hi in runs:
                lengths[hi - lo + 1] = lengths.get(hi - lo + 1, 0) + n1 - n0 + 1
    longest = max(lengths, default=0)
    if longest * math.log2(sft.nsymbols) > MAX_COUNT_BITS:
        raise ResourceGuardError(
            f"a row of {longest} cells may count above the guard of {MAX_COUNT_BITS} bits")
    base = base_of_row_lift(sft)
    try:
        nodes, _ = transfer_graph_1d(base)
    except ResourceGuardError:
        return None
    steps = longest - (_recoding_width(sft) - 1)
    if nodes and steps > 0:
        work = min(_walk_costs(base, steps))
        if work > MAX_WALK_WORK:
            raise ResourceGuardError(
                f"a row of {longest} cells takes a walk of {steps} steps on {len(nodes)} "
                f"block nodes, about {work:.3g} units of work, above the walk guard of "
                f"{MAX_WALK_WORK}")
    return lengths


def _row_product(sft: SftSpec, lengths: dict[int, int],
                 counts: dict[int, int] | None) -> int:
    """The count of a spec whose forbidden patterns each lie in one row: the
    product over the runs of the support's rows, ``lengths``, of the 1D base's
    word count at each run's length, ``counts`` if the plan formed them."""
    counts = _row_counts(sft, lengths) if counts is None else counts
    return math.prod(counts[length] ** k for length, k in lengths.items())


def _row_counts(sft: SftSpec, lengths: dict[int, int]) -> dict[int, int]:
    """The 1D base's word count per run length, refused if their product passes the guard."""
    counts = {length: word_count_1d(base_of_row_lift(sft), length) for length in lengths}
    bits = sum(k * counts[length].bit_length() for length, k in lengths.items())
    if bits > MAX_COUNT_BITS:
        raise ResourceGuardError(
            f"the count has about {bits} bits, above the guard of {MAX_COUNT_BITS} bits")
    return counts


def enumerate_locally_admissible(sft: SftSpec, support) -> Iterator[Pattern]:
    """Yield every locally admissible pattern on ``support`` exactly once.

    Cells are assigned in canonical (lexicographic) order and symbols in
    alphabet order by ``kernels.backtrack``, so the stream is
    deterministic and sorted, and bounded by the same work guard.
    """
    pts = LatticeSet.of(support)
    n = len(pts)
    if n > MAX_FREE_CELLS:
        raise ResourceGuardError(
            f"support has {n} cells, above the enumeration guard {MAX_FREE_CELLS}")
    syms = sft.alphabet.symbols
    for assign in kernels.backtrack(n, len(syms), _placement_groups(sft, pts)):
        yield Pattern(tuple(zip(pts.points, (syms[s] for s in assign))))


# ---------------------------------------------------------------------------
# one-dimensional transfer matrices
# ---------------------------------------------------------------------------

@functools.cache
def transfer_graph_1d(sft: SftSpec):
    """Higher-block presentation of a 1D SFT.

    Recodes forbidden words of width up to k into a nearest-neighbour
    system on (k-1)-blocks.  Returns (nodes, T) with nodes the admissible
    (k-1)-letter words in lexicographic order and T the 0/1 transition
    matrix between overlapping words, one edge per admissible k-word.
    """
    if sft.dimension != 1:
        raise ValueError("transfer_graph_1d expects a 1D spec")
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
    return nodes, T


def _recoding_width(sft: SftSpec) -> int:
    """The k of the (k-1)-block recoding: the widest forbidden word, at least 2."""
    return max(2, max((f.ncols_extent for f in sft.forbidden), default=1))


def _words(sft: SftSpec, length: int) -> list[tuple[str, ...]]:
    """Locally admissible words of a 1D spec in lexicographic order, built
    a letter at a time: a word is dropped when the letters at a forbidden
    shape ending at its last letter spell one of that shape's forbidden
    words."""
    bad: dict[tuple[int, ...], set[tuple[str, ...]]] = {}
    for f in sft.forbidden:
        bad.setdefault(tuple(m for (m, _), _ in f.cells), set()).add(
            tuple(sym for _, sym in f.cells))
    words: list[tuple[str, ...]] = [()]
    for n in range(1, length + 1):
        # each shape placed to end at letter n - 1, as the letters it reads
        ends = [(tuple(n - 1 - shape[-1] + m for m in shape), spelled)
                for shape, spelled in bad.items() if shape[-1] < n]
        words = [w for word in words for w in (word + (s,) for s in sft.alphabet.symbols)
                 if not any(tuple(w[i] for i in at) in spelled for at, spelled in ends)]
    return words


def word_count_1d(sft: SftSpec, length: int) -> int:
    """Exact number of locally admissible words of the given length.

    From length k-1 on this is 1^T T^(length-k+1) 1 over the block graph
    (see ``transfer_graph_1d``), computed in Python ints by repeated
    squaring or by stepping a vector, whichever ``_walk_costs`` rates
    cheaper;
    shorter words are listed by ``_words``.
    """
    if sft.dimension != 1:
        raise ValueError("word_count_1d expects a 1D spec")
    if length < 0:
        raise ValueError("length must be nonnegative")
    nodes, T = transfer_graph_1d(sft)
    k1 = _recoding_width(sft) - 1
    if length < k1:
        return len(_words(sft, length))
    if not nodes:
        return 0  # every word this long contains a (k-1)-block, none admissible
    steps = length - k1
    squaring, iteration = _walk_costs(sft, steps)
    return (_walks_by_squaring if squaring < iteration else _walks_by_iteration)(T, steps)


def _walk_costs(sft: SftSpec, steps: int) -> tuple[float, float]:
    """The cost rule of ``word_count_1d`` on the block graph of the 1D spec
    ``sft``, as the costs of squaring and of iteration in units of one
    small big-int product.  Squaring makes about nodes^3 log2(steps) products, and its
    last doublings multiply numbers of about bits/2 bits, since its walk
    meets in the middle (Karatsuba, so bits^1.585 up to a constant factor);
    iteration makes steps * edges sums of numbers of up to
    ``bits`` bits, each about twice a small product.  ``bits`` is steps *
    log2(largest out-degree), which bounds the count's growth.  The
    constants are fitted to timings of both methods on 1D specs with 2 to
    64 block nodes at 3 to 10^5 steps; on the golden mean at 300 to 30,000
    steps and on a 64-node graph at 3 to 30,000 the cheaper side is the
    faster method."""
    nodes, edges, degree = _graph_sizes(sft)
    bits = steps * math.log2(max(degree, 1))
    return (nodes ** 3 * (steps.bit_length() + bits ** 1.585 / 10 ** 4),
            steps * edges * (2 + bits / 4000))


@functools.cache
def _graph_sizes(sft: SftSpec) -> tuple[int, int, int]:
    """Nodes, edges and largest out-degree of the spec's block graph."""
    nodes, T = transfer_graph_1d(sft)
    return len(nodes), int(T.sum()), int(T.sum(axis=1).max(initial=0))


def _walks_by_squaring(T: np.ndarray, steps: int) -> int:
    """1^T T^steps 1, met in the middle as (1^T T^h)(T^(steps-h) 1) with
    h = steps // 2: the row vector takes T^(2^i) for each set bit i of h,
    the column vector for each of steps - h.  The squares stop at the top
    bit of steps - h, so unless steps is 2^k - 1 the last and largest
    square of T^steps never runs."""
    half, rest = steps // 2, steps - steps // 2
    row, col, power = [1] * T.shape[0], [1] * T.shape[0], T.tolist()
    while rest:
        cols = list(zip(*power))
        if half & 1:
            row = [sum(v * p for v, p in zip(row, c)) for c in cols]
        if rest & 1:
            col = [sum(p * v for p, v in zip(r, col)) for r in power]
        half, rest = half >> 1, rest >> 1
        if rest:
            power = [[sum(a * b for a, b in zip(r, c)) for c in cols] for r in power]
    return sum(r * c for r, c in zip(row, col))


def _walks_by_iteration(T: np.ndarray, steps: int) -> int:
    """1^T T^steps 1, one vector step per edge sum."""
    preds = [np.nonzero(T[:, j])[0].tolist() for j in range(T.shape[0])]
    vec = [1] * T.shape[0]
    for _ in range(steps):
        vec = [sum(vec[i] for i in plist) for plist in preds]
    return sum(vec)


def transfer_matrix_entropy_1d(sft: SftSpec) -> float:
    """Topological entropy of a 1D SFT in bits per symbol.

    log2 of the spectral radius of the higher-block transition matrix;
    equals the growth rate of the admissible word counts.  Raises
    EmptyLanguageError when no bi-infinite point exists.
    """
    nodes, T = transfer_graph_1d(sft)
    if len(nodes) == 0:
        raise EmptyLanguageError("no admissible blocks: the subshift is empty")
    rho = float(np.max(np.abs(np.linalg.eigvals(T.astype(float)))))
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
    fixtures the infimum over N is the entropy itself.  Each box is planned
    once, the Nmax box first: the counting guards grow with N, so a box
    they refuse is refused before any box is counted.
    """
    if sft.dimension != 2:
        raise ValueError("box_entropy_estimate expects a 2D spec")
    if Nmax < 1:
        raise ValueError("Nmax must be positive")
    plans = [plan(sft, IntRect(0, N - 1, 0, N - 1)) for N in range(Nmax, 0, -1)]
    return [(N, how.log2() / (N * N)) for N, how in enumerate(reversed(plans), 1)]


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
