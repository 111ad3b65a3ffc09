"""Exact integer-lattice geometry.

Rectangles in Z^2 with the triple dilation and the columns/rows
pre-order, finite sets as rows of column runs (``LatticeSet``, the one
support type of every counter and cylinder-mass reader), the greedy
disjoint-subfamily covering algorithm, and the swept windows
Lambda_{a,b}(M,N) of a sup-norm ball along a lattice direction, built as
runs.  Everything here is exact integer arithmetic; all functions are
pure.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import NotTotallyOrderedError, ResourceGuardError

Point = tuple[int, int]


@dataclass(frozen=True)
class IntRect:
    """The discrete rectangle [a,b] x [c,d] in Z^2 (all bounds inclusive)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a > self.b or self.c > self.d:
            raise ValueError(f"degenerate rectangle [{self.a},{self.b}]x[{self.c},{self.d}]")

    @property
    def ncols(self) -> int:
        return self.b - self.a + 1

    @property
    def nrows(self) -> int:
        return self.d - self.c + 1

    def cardinality(self) -> int:
        return self.ncols * self.nrows

    def points(self) -> Iterator[Point]:
        for m in range(self.a, self.b + 1):
            for n in range(self.c, self.d + 1):
                yield (m, n)

    def contains(self, other: "IntRect") -> bool:
        return (self.a <= other.a and other.b <= self.b
                and self.c <= other.c and other.d <= self.d)

    def intersects(self, other: "IntRect") -> bool:
        return not (other.b < self.a or self.b < other.a
                    or other.d < self.c or self.d < other.c)


class LatticeSet:
    """A finite subset of Z^2 stored as ``bands`` (n0, n1, runs), in
    ascending n0: maximal blocks of consecutive rows sharing one tuple of
    sorted, disjoint, non-adjacent column runs (lo, hi); ``size`` counts it
    exactly, where ``len`` fails from 2^63.  Equal sets have equal bands; a
    rectangle is one band with one run.  ``columns`` and the points are
    built on first use, in lexicographic (m, n) order: cells column by column.
    """

    __slots__ = ("bands", "size", "_points", "_columns")

    def __init__(self, points: Iterable[Point] = (), *, _bands=None):
        if _bands is None:
            rows: dict[int, list[tuple[int, int]]] = {}
            for m, n in points:
                rows.setdefault(int(n), []).append((int(m), int(m)))
            _bands = _bands_of_rows(rows)
        self.bands: tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...] = _bands
        self.size = sum((n1 - n0 + 1) * sum(hi - lo + 1 for lo, hi in runs)
                        for n0, n1, runs in _bands)
        self._points = self._columns = None

    @classmethod
    def of(cls, support) -> "LatticeSet":
        """``support`` as a LatticeSet: itself, an ``IntRect`` (one band and
        one column band, no per-row work), a ``SweptWindow`` (built) or an
        iterable of points."""
        if isinstance(support, LatticeSet):
            return support
        if isinstance(support, IntRect):
            rect = cls(_bands=((support.c, support.d, ((support.a, support.b),)),))
            rect._columns = ((support.a, support.b, ((support.c, support.d),)),)
            return rect
        if isinstance(support, SweptWindow):
            return support.lattice_set
        return cls(support)

    @classmethod
    def from_rect(cls, rect: IntRect) -> "LatticeSet":
        return cls.of(rect)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __contains__(self, u) -> bool:
        m, n = u
        i = bisect_right(self.bands, n, key=itemgetter(0)) - 1
        runs = self.bands[i][2] if i >= 0 and n <= self.bands[i][1] else ()
        j = bisect_right(runs, m, key=itemgetter(0)) - 1
        return j >= 0 and m <= runs[j][1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticeSet):
            return NotImplemented
        return self.bands == other.bands

    def __hash__(self) -> int:
        return hash(self.bands)

    def __repr__(self) -> str:
        if self.size <= 8:
            return f"LatticeSet({list(self.points)})"
        return f"LatticeSet(<{self.size} points>)"

    @property
    def columns(self) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
        """Bands (m0, m1, runs) of the transposed set: maximal blocks of
        consecutive columns sharing one tuple of row runs (lo, hi)."""
        if self._columns is None:
            cols: dict[int, list[tuple[int, int]]] = {}
            for n0, n1, runs in self.bands:
                for lo, hi in runs:
                    for m in range(lo, hi + 1):
                        cols.setdefault(m, []).append((n0, n1))
            self._columns = _bands_of_rows(cols)
        return self._columns

    @property
    def points(self) -> tuple[Point, ...]:
        if self._points is None:
            self._points = tuple((m, n) for m0, m1, runs in self.columns
                                 for m in range(m0, m1 + 1)
                                 for lo, hi in runs for n in range(lo, hi + 1))
        return self._points

    def placements(self, shape: tuple[Point, ...]) -> Iterator[tuple[list[int], int, range]]:
        """Stacks of placements u + shape inside the set, for a sorted shape
        with least column and row 0, as (first, k, shifts): the indices in
        ``points`` of the lowest placement's cells, the number k of stacked
        placements, the j-th one's indices j higher, and the shifts c at
        which the stack recurs in later anchor columns of its column band,
        all indices c higher.  Placements come by anchor column, then row."""
        cols = self.columns
        # per column band, the cells below each run of a column, the column
        # height last, and the index of the band's first cell
        below = [list(itertools.accumulate((hi - lo + 1 for lo, hi in runs), initial=0))
                 for _, _, runs in cols]
        starts = list(itertools.accumulate(
            ((m1 - m0 + 1) * b[-1] for (m0, m1, _), b in zip(cols, below)), initial=0))
        width = shape[-1][0] + 1

        def stacks(um):
            # the stacks at anchor column um: the anchor rows a at which each
            # cell (dm, dn) lies in a run (lo, hi) of column um + dm, tagged
            # with the cell's index less a
            fits = []
            for dm, dn in shape:
                i = bisect_right(cols, um + dm, key=itemgetter(0)) - 1
                m0, m1, runs = cols[i]
                if um + dm > m1:
                    return
                top = starts[i] + (um + dm - m0) * below[i][-1] + dn
                fits.append([(lo - dn, hi - dn, (top + below[i][j] - lo,))
                             for j, (lo, hi) in enumerate(runs)])
            for a, b, tags in functools.reduce(_meet, fits):
                yield [t + a for t in tags], b - a + 1

        for i, (m0, m1, _) in enumerate(cols):
            if m0 + width - 1 <= m1:
                # anchor columns m0 .. m1 - width + 1 see the same runs, so
                # one stack each is one stack of the band, shifted
                across = range(0, (m1 - width + 2 - m0) * below[i][-1], below[i][-1])
                inner = list(stacks(m0))
                for shifts in [across] if len(inner) == 1 else [range(c, c + 1) for c in across]:
                    for first, k in inner:
                        yield first, k, shifts
            # the anchor columns whose placements reach past the band
            for um in range(max(m0, m1 - width + 2), min(m1, cols[-1][1] - width + 1) + 1):
                for first, k in stacks(um):
                    yield first, k, range(1)

    def bounding_box(self) -> IntRect | None:
        if not self.bands:
            return None
        return IntRect(min(runs[0][0] for _, _, runs in self.bands),
                       max(runs[-1][1] for _, _, runs in self.bands),
                       self.bands[0][0], self.bands[-1][1])

    def as_rect(self) -> IntRect | None:
        """The rectangle equal to this set, or None if the set is not one."""
        if len(self.bands) == 1 and len(self.bands[0][2]) == 1:
            return self.bounding_box()
        return None


def _bands_of_rows(rows: dict[int, list[tuple[int, int]]]):
    """Canonical bands of {n: column spans (lo, hi)}: each row's spans
    sorted and merged where they overlap or touch, then equal runs of
    consecutive rows joined into one band."""
    bands: list[list] = []
    for n in sorted(rows):
        spans = sorted(rows[n])
        runs = [spans[0]]
        for lo, hi in spans:
            if lo > runs[-1][1] + 1:
                runs.append((lo, hi))
            elif hi > runs[-1][1]:
                runs[-1] = (runs[-1][0], hi)
        runs = tuple(runs)
        if bands and bands[-1][1] == n - 1 and bands[-1][2] == runs:
            bands[-1][1] = n
        else:
            bands.append([n, n, runs])
    return tuple(map(tuple, bands))


def _meet(xs, ys) -> list[tuple]:
    """The intersection of two sorted lists of disjoint intervals (lo, hi,
    tags), each part tagged with both intervals' tags."""
    out, i, j = [], 0, 0
    while i < len(xs) and j < len(ys):
        (a, b, s), (c, d, t) = xs[i], ys[j]
        if max(a, c) <= min(b, d):
            out.append((max(a, c), min(b, d), s + t))
        i, j = (i + 1, j) if b < d else (i, j + 1)
    return out


def rect_triple(r: IntRect) -> IntRect:
    """Dilate [a,b]x[c,d] to [2a-b, 2b-a] x [2c-d, 2d-c].

    The output triples each side length about the rectangle's own extent,
    contains the input, and has at most 9 times its cardinality.
    """
    return IntRect(2 * r.a - r.b, 2 * r.b - r.a, 2 * r.c - r.d, 2 * r.d - r.c)


def rect_leq(r: IntRect, s: IntRect) -> bool:
    """Pre-order on rectangles: r <= s iff r's columns and rows are each at most s's."""
    return r.ncols <= s.ncols and r.nrows <= s.nrows


def check_totally_ordered(rects: list[IntRect]) -> None:
    """Raise NotTotallyOrderedError naming a violating pair, if any."""
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            if not (rect_leq(rects[i], rects[j]) or rect_leq(rects[j], rects[i])):
                raise NotTotallyOrderedError(i, j)


def greedy_disjoint_subcover(rects: Iterable[IntRect]) -> list[int]:
    """Greedy disjoint subfamily whose triple dilations cover every input.

    The family must be totally ordered under rect_leq.  Repeatedly selects
    the largest rectangle disjoint from everything selected so far; among
    equally large candidates the lowest input index wins, which makes the
    output deterministic.  The selected rectangles are pairwise disjoint,
    every input lies inside 3R for some selected R, and consequently the
    selected rectangles carry at least one ninth of the union's cardinality.

    An empty family returns an empty selection.
    """
    family = list(rects)
    check_totally_ordered(family)
    available = [True] * len(family)
    selected: list[int] = []
    while True:
        best = -1
        for i, r in enumerate(family):
            if not available[i]:
                continue
            if best < 0:
                best = i
            elif rect_leq(family[best], r) and not rect_leq(r, family[best]):
                best = i
        if best < 0:
            break
        selected.append(best)
        chosen = family[best]
        for i, r in enumerate(family):
            if available[i] and r.intersects(chosen):
                available[i] = False
    return selected


def union_cells(rects: Iterable[IntRect]) -> int:
    """Cells in the union of ``rects``, read from their corners: per slab
    of rows between consecutive row bounds, the merged column spans of the
    rectangles covering it, times the slab's height."""
    rects = list(rects)
    bounds = sorted({n for r in rects for n in (r.c, r.d + 1)})
    total = 0
    for lo, hi in zip(bounds, bounds[1:]):
        width, end = 0, None
        for a, b in sorted((r.a, r.b) for r in rects if r.c <= lo and hi <= r.d + 1):
            start = a if end is None else max(a, end + 1)
            if b >= start:
                width, end = width + b - start + 1, b
        total += width * (hi - lo)
    return total


def norm_ball(radius: int) -> LatticeSet:
    """Integer points u with |u| <= radius in the sup norm: the square of
    side 2 radius + 1 at the origin.  A negative radius gives the empty set."""
    if radius < 0:
        return LatticeSet(())
    return LatticeSet.of(IntRect(-radius, radius, -radius, radius))


def site_norm(u: Point) -> float:
    """The sup norm of one site."""
    return float(max(abs(u[0]), abs(u[1])))


def min_norm_outside(support: LatticeSet) -> float:
    """Smallest site norm over the complement of the support.

    With the origin inside the support, clamping any far point into the
    one-cell ring around the bounding box never increases its norm, so
    scanning that ring finds the minimum: r + 1 for the radius-r ball.
    """
    if (0, 0) not in support:
        return 0.0
    box = support.bounding_box()
    ring = IntRect(box.a - 1, box.b + 1, box.c - 1, box.d + 1)
    return min(site_norm(u) for u in ring.points() if u not in support)


# largest window a SweptWindow builds, in points; one at the bound takes up
# to 1.5 s and 134 MB peak (README, "Counting"; 2-core Xeon VM, Python 3.11)
MAX_LAMBDA_POINTS = 2 ** 20


@dataclass(frozen=True)
class SweptWindow:
    """(an, bn) + u for 0 <= n < N, u in the radius-(M-1) norm ball, unbuilt:
    size and box in closed form, the rest after ``check``."""

    a: int
    b: int
    M: int
    N: int

    def __post_init__(self):
        if (self.a, self.b) == (0, 0):
            raise ValueError("direction (a, b) must be nonzero")
        if self.M < 1 or self.N < 1:
            raise ValueError("M and N must be positive")

    def __len__(self) -> int:
        return self.size

    @property
    def size(self) -> int:
        # the swept squares move monotonically, so the cells new at step n
        # are those of the step-n square outside the step-(n-1) one
        side = 2 * self.M - 1
        fresh = side * side - max(0, side - abs(self.a)) * max(0, side - abs(self.b))
        return side * side + (self.N - 1) * fresh

    def bounding_box(self) -> IntRect:
        r, da, db = self.M - 1, self.a * (self.N - 1), self.b * (self.N - 1)
        return IntRect(min(0, da) - r, max(0, da) + r, min(0, db) - r, max(0, db) + r)

    def as_rect(self) -> IntRect | None:
        self.check()
        box = self.bounding_box()
        return box if self.size == box.cardinality() else None

    def check(self) -> None:
        """Refuse more than ``MAX_LAMBDA_POINTS`` points."""
        if self.size > MAX_LAMBDA_POINTS:
            raise ResourceGuardError(
                f"lambda_set would hold up to {self.size} points, above the guard "
                f"{MAX_LAMBDA_POINTS}; use lambda_count/lambda_density for "
                "cardinalities at this size")

    @functools.cached_property
    def lattice_set(self) -> LatticeSet:
        """Row y takes [an - w, an + w] from each step n whose ball meets it,
        w the ball's half-side: a horizontal window costs O(M)."""
        self.check()
        a, b, r, N = self.a, self.b, self.M - 1, self.N
        w = norm_ball(r).bounding_box().b
        box = self.bounding_box()
        rows: dict[int, list[tuple[int, int]]] = {}
        for y in range(box.c, box.d + 1):
            # the steps n with |y - bn| <= r
            lo, hi = (y - r, y + r) if b > 0 else (y + r, y - r)
            n0, n1 = (0, N - 1) if b == 0 else (max(0, -(-lo // b)), min(N - 1, hi // b))
            if n0 > n1:
                continue
            # the steps' runs, |a| apart, join into one when |a| <= 2w + 1
            if abs(a) <= 2 * w + 1:
                rows[y] = [(min(a * n0, a * n1) - w, max(a * n0, a * n1) + w)]
            else:
                rows[y] = [(a * n - w, a * n + w) for n in range(n0, n1 + 1)]
        return LatticeSet(_bands=_bands_of_rows(rows))


def lambda_set(a: int, b: int, M: int, N: int) -> LatticeSet:
    """The window swept along direction (a, b), see ``SweptWindow``."""
    return SweptWindow(a, b, M, N).lattice_set


def lambda_count(a: int, b: int, M: int, N: int) -> int:
    """Exact cardinality of lambda_set(a, b, M, N), in closed form (see
    ``SweptWindow``), checked against enumeration in the test suite."""
    return SweptWindow(a, b, M, N).size


def lambda_density(a: int, b: int, M: int, N: int) -> float:
    """|Lambda_{a,b}(M,N)| / (M*N); tends to 2(|a|+|b|) as M, N grow."""
    return lambda_count(a, b, M, N) / (M * N)
