"""Exact integer-lattice geometry.

Rectangles in Z^2 with the triple dilation and the width/height
pre-order, finite sets as rows of column runs (``LatticeSet``, the one
support type of every counter and cylinder-mass reader) with window
boundaries and interiors, the greedy disjoint-subfamily covering
algorithm, and the swept windows Lambda_{a,b}(M,N) of a norm ball along
a lattice direction, built as runs.  Everything here is exact integer
arithmetic; all functions are pure.
"""

from __future__ import annotations

import math
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
    def width(self) -> int:
        """Horizontal extent b - a (one less than the number of columns)."""
        return self.b - self.a

    @property
    def height(self) -> int:
        return self.d - self.c

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
    sorted, disjoint, non-adjacent column runs (lo, hi).  Equal sets have
    equal bands; a rectangle is one band with one run.  The points are
    built on first use and iterated in lexicographic (m, n) order.
    """

    __slots__ = ("bands", "_len", "_points")

    def __init__(self, points: Iterable[Point] = (), *, _bands=None):
        if _bands is None:
            rows: dict[int, list[tuple[int, int]]] = {}
            for m, n in points:
                rows.setdefault(int(n), []).append((int(m), int(m)))
            _bands = _bands_of_rows(rows)
        self.bands: tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...] = _bands
        self._len = sum((n1 - n0 + 1) * sum(hi - lo + 1 for lo, hi in runs)
                        for n0, n1, runs in _bands)
        self._points = None

    @classmethod
    def of(cls, support) -> "LatticeSet":
        """``support`` as a LatticeSet: itself, an ``IntRect`` (one band,
        no per-row work) or an iterable of points."""
        if isinstance(support, LatticeSet):
            return support
        if isinstance(support, IntRect):
            return cls(_bands=((support.c, support.d, ((support.a, support.b),)),))
        return cls(support)

    @classmethod
    def from_rect(cls, rect: IntRect) -> "LatticeSet":
        return cls.of(rect)

    def __len__(self) -> int:
        return self._len

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
        if self._len <= 8:
            return f"LatticeSet({list(self.points)})"
        return f"LatticeSet(<{self._len} points>)"

    @property
    def points(self) -> tuple[Point, ...]:
        if self._points is None:
            # bands ascend in n, so each column's rows arrive in order
            cols: dict[int, list[int]] = {}
            for n0, n1, runs in self.bands:
                for lo, hi in runs:
                    for m in range(lo, hi + 1):
                        cols.setdefault(m, []).extend(range(n0, n1 + 1))
            self._points = tuple((m, n) for m in sorted(cols) for n in cols[m])
        return self._points

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

    def union(self, other: "LatticeSet") -> "LatticeSet":
        return LatticeSet(self.points + other.points)

    def difference(self, other: "LatticeSet") -> "LatticeSet":
        return LatticeSet(p for p in self.points if p not in other)


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


def rect_triple(r: IntRect) -> IntRect:
    """Dilate [a,b]x[c,d] to [2a-b, 2b-a] x [2c-d, 2d-c].

    The output triples each side length about the rectangle's own extent,
    contains the input, and has at most 9 times its cardinality.
    """
    return IntRect(2 * r.a - r.b, 2 * r.b - r.a, 2 * r.c - r.d, 2 * r.d - r.c)


def rect_leq(r: IntRect, s: IntRect) -> bool:
    """Pre-order on rectangles: r <= s iff r's width and height are each <= s's."""
    return r.width <= s.width and r.height <= s.height


def boundary_set(omega: LatticeSet, lam: LatticeSet) -> LatticeSet:
    """Window boundary of omega relative to the window lam.

    Returns the set of u such that the translated window u + lam meets
    both omega and its complement.  Note the boundary is generally NOT a
    subset of omega: translates anchored just outside can still straddle
    it.  Raises ValueError on an empty window.
    """
    if len(lam) == 0:
        raise ValueError("boundary is undefined for an empty window")
    omega_pts = set(omega.points)
    lam_pts = lam.points
    # Candidates with (u + lam) meeting omega are exactly the pointwise
    # differences omega - lam; any other u has u + lam inside the complement.
    candidates = {(w[0] - v[0], w[1] - v[1]) for w in omega_pts for v in lam_pts}
    out = []
    for u in candidates:
        inside_all = all((u[0] + v[0], u[1] + v[1]) in omega_pts for v in lam_pts)
        if not inside_all:
            out.append(u)
    return LatticeSet(out)


def interior_set(omega: LatticeSet, lam: LatticeSet) -> LatticeSet:
    """omega minus its window boundary."""
    return omega.difference(boundary_set(omega, lam))


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


def norm_ball(radius: int, norm: str = "linf") -> LatticeSet:
    """Integer points u with |u| <= radius in the sup or Euclidean norm,
    one run of columns per row.

    The Euclidean run of row n is |m| <= isqrt(radius^2 - n^2), so
    membership is exact.  A negative radius gives the empty set.
    """
    if radius < 0:
        return LatticeSet(())
    if norm == "linf":
        return LatticeSet.of(IntRect(-radius, radius, -radius, radius))
    if norm != "l2":
        raise ValueError(f"unknown norm {norm!r}")
    r2 = radius * radius
    return LatticeSet(_bands=_bands_of_rows(
        {n: [(-math.isqrt(r2 - n * n), math.isqrt(r2 - n * n))]
         for n in range(-radius, radius + 1)}))


def site_norm(u: Point, norm: str = "linf") -> float:
    """The sup or Euclidean norm of one site."""
    if norm == "linf":
        return float(max(abs(u[0]), abs(u[1])))
    return math.sqrt(u[0] * u[0] + u[1] * u[1])


def min_norm_outside(support: LatticeSet, norm: str = "linf") -> float:
    """Smallest site norm over the complement of the support.

    With the origin inside the support, clamping any far point into the
    one-cell ring around the bounding box never increases its norm, so
    scanning that ring finds the minimum.  For the radius-r ball it is
    r + 1 under the sup norm and sqrt(r^2 + 1) under the Euclidean one.
    """
    if (0, 0) not in support:
        return 0.0
    box = support.bounding_box()
    ring = IntRect(box.a - 1, box.b + 1, box.c - 1, box.d + 1)
    return min(site_norm(u, norm) for u in ring.points() if u not in support)


# largest window lambda_set builds, in points; one at the bound takes up to
# 1.9 s and 200 MB peak (README, "Counting"; 2-core Xeon VM, Python 3.11)
MAX_LAMBDA_POINTS = 2 ** 20


def lambda_set(a: int, b: int, M: int, N: int, norm: str = "linf") -> LatticeSet:
    """The window swept along direction (a, b): points (an, bn) + u with
    0 <= n < N and u in the radius-(M-1) norm ball, as a LatticeSet.

    Each row y of the ball is one run [-w, w], so window row bn + y takes
    the run [an - w, an + w] from every step n; a row's runs are merged,
    and no point is built.  Refused by ``check_lambda_set`` first.
    """
    check_lambda_set(a, b, M, N, norm)
    ball = [(y, runs[0][1]) for y0, y1, runs in norm_ball(M - 1, norm).bands
            for y in range(y0, y1 + 1)]
    rows: dict[int, list[tuple[int, int]]] = {}
    for n in range(N):
        cm, cn = a * n, b * n
        for y, w in ball:
            rows.setdefault(cn + y, []).append((cm - w, cm + w))
    return LatticeSet(_bands=_bands_of_rows(rows))


def check_lambda_set(a: int, b: int, M: int, N: int, norm: str = "linf") -> None:
    """Check the arguments of lambda_set, and raise ``ResourceGuardError``
    when its window could hold more than ``MAX_LAMBDA_POINTS`` points:
    lambda_count of them for the sup norm, N balls' worth for the
    Euclidean one.  For density computations at large M, N use
    lambda_count / lambda_density, which evaluate the cardinality without
    enumeration.
    """
    if (a, b) == (0, 0):
        raise ValueError("direction (a, b) must be nonzero")
    if M < 1 or N < 1:
        raise ValueError("M and N must be positive")
    if norm == "linf":
        size = lambda_count(a, b, M, N)
    elif norm == "l2":
        # the disc holds the square of half-side isqrt(r^2 / 2), so the
        # exact count below runs only for radii of a few thousand
        r2 = (M - 1) ** 2
        size = N * (2 * math.isqrt(r2 // 2) + 1) ** 2
        if size <= MAX_LAMBDA_POINTS:
            size = N * sum(2 * math.isqrt(r2 - m * m) + 1 for m in range(1 - M, M))
    else:
        raise ValueError(f"unknown norm {norm!r}")
    if size > MAX_LAMBDA_POINTS:
        raise ResourceGuardError(
            f"lambda_set would hold up to {size} points, above the guard "
            f"{MAX_LAMBDA_POINTS}; use lambda_count/lambda_density for "
            "cardinalities at this size")


def lambda_count(a: int, b: int, M: int, N: int) -> int:
    """Exact cardinality of lambda_set(a, b, M, N), in closed form.

    The swept squares move monotonically, so the cells new at step n are
    exactly those of the step-n square outside the step-(n-1) square:
    (2M-1)^2 - max(0, 2M-1-|a|) * max(0, 2M-1-|b|) per step after the first.
    Validated against brute-force enumeration in the test suite.
    """
    if (a, b) == (0, 0):
        raise ValueError("direction (a, b) must be nonzero")
    if M < 1 or N < 1:
        raise ValueError("M and N must be positive")
    side = 2 * M - 1
    fresh = side * side - max(0, side - abs(a)) * max(0, side - abs(b))
    return side * side + (N - 1) * fresh


def lambda_longest_run(a: int, b: int, M: int, N: int) -> int:
    """Cells in the longest run of consecutive cells of a row of
    lambda_set(a, b, M, N) under the sup norm, in closed form.

    A row meets the squares of N steps when b = 0 and of at most
    (2M-2)//|b| + 1 consecutive steps otherwise; their intervals of 2M-1
    cells, |a| apart, join into one run when |a| <= 2M-1.  The Euclidean
    window lies inside the sup-norm one, so this bounds its runs too, and
    equals its longest run when b = 0 (the row through the balls' centres).
    The arguments are those ``check_lambda_set`` accepts.
    """
    side = 2 * M - 1
    if abs(a) > side:
        return side
    steps = N if b == 0 else min(N, (side - 1) // abs(b) + 1)
    return side + abs(a) * (steps - 1)


def lambda_density(a: int, b: int, M: int, N: int) -> float:
    """|Lambda_{a,b}(M,N)| / (M*N); tends to 2(|a|+|b|) as M, N grow."""
    return lambda_count(a, b, M, N) / (M * N)
