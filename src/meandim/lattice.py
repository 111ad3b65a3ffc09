"""Exact integer-lattice geometry.

Rectangles in Z^2 with the triple dilation and the width/height
pre-order, finite point sets with window boundaries and interiors, the
greedy disjoint-subfamily covering algorithm, and the swept-window sets
Lambda_{a,b}(M,N) obtained by translating a norm ball along a lattice
direction.  Everything here is exact integer arithmetic; all functions
are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
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

    def translate(self, u: Point) -> "IntRect":
        return IntRect(self.a + u[0], self.b + u[0], self.c + u[1], self.d + u[1])


class LatticeSet:
    """A finite subset of Z^2 stored as a sorted, duplicate-free point tuple.

    Iteration order is lexicographic in (m, n), so any computation that
    walks a LatticeSet is deterministic.
    """

    __slots__ = ("_points", "_set")

    def __init__(self, points: Iterable[Point]):
        pts = {(int(m), int(n)) for (m, n) in points}
        self._points: tuple[Point, ...] = tuple(sorted(pts))
        self._set = pts

    @classmethod
    def _sorted(cls, points: tuple[Point, ...]) -> "LatticeSet":
        """The set of ``points``, which must be int pairs already sorted
        and free of duplicates; skips the dedupe and the sort."""
        out = cls.__new__(cls)
        out._points = points
        out._set = set(points)
        return out

    @classmethod
    def from_rect(cls, rect: IntRect) -> "LatticeSet":
        return cls._sorted(tuple(rect.points()))

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self._points)

    def __contains__(self, u) -> bool:
        return tuple(u) in self._set

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticeSet):
            return NotImplemented
        return self._points == other._points

    def __hash__(self) -> int:
        return hash(self._points)

    def __repr__(self) -> str:
        if len(self._points) <= 8:
            return f"LatticeSet({list(self._points)})"
        return f"LatticeSet(<{len(self._points)} points>)"

    @property
    def points(self) -> tuple[Point, ...]:
        return self._points

    def bounding_box(self) -> IntRect | None:
        if not self._points:
            return None
        ms = [p[0] for p in self._points]
        ns = [p[1] for p in self._points]
        return IntRect(min(ms), max(ms), min(ns), max(ns))

    def as_rect(self) -> IntRect | None:
        """The rectangle equal to this set, or None if the set is not one."""
        box = self.bounding_box()
        if box is not None and box.cardinality() == len(self._points):
            return box
        return None

    def translate(self, u: Point) -> "LatticeSet":
        return LatticeSet((m + u[0], n + u[1]) for (m, n) in self._points)

    def union(self, other: "LatticeSet") -> "LatticeSet":
        return LatticeSet(self._points + other._points)

    def difference(self, other: "LatticeSet") -> "LatticeSet":
        return LatticeSet(p for p in self._points if p not in other)


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
    omega_pts = omega._set
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
    """Integer points u with |u| <= radius in the sup or Euclidean norm.

    The Euclidean test compares squared integers, so membership is exact.
    A negative radius gives the empty set.
    """
    if radius < 0:
        return LatticeSet(())
    pts = []  # built in sorted order
    if norm == "linf":
        for m in range(-radius, radius + 1):
            for n in range(-radius, radius + 1):
                pts.append((m, n))
    elif norm == "l2":
        r2 = radius * radius
        for m in range(-radius, radius + 1):
            for n in range(-radius, radius + 1):
                if m * m + n * n <= r2:
                    pts.append((m, n))
    else:
        raise ValueError(f"unknown norm {norm!r}")
    return LatticeSet._sorted(tuple(pts))


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


# largest point set lambda_set builds; one at the bound takes about 2 s and
# 280 MB peak (2-core Xeon VM, Python 3.11)
MAX_LAMBDA_POINTS = 2 ** 20


def lambda_set(a: int, b: int, M: int, N: int, norm: str = "linf") -> LatticeSet:
    """The window swept along direction (a, b): points (an, bn) + u with
    0 <= n < N and u in the radius-(M-1) norm ball, materialised as a
    LatticeSet.

    Built column by column: each column of the ball is an interval
    [-h, h], so window column m is the union of the intervals
    [bn - h, bn + h] over the steps n whose ball column lands on m.  Those
    are merged and emitted in sorted order, so no point is built twice
    and nothing is sorted afterwards.

    Refused by ``check_lambda_set`` before any point is built.
    """
    check_lambda_set(a, b, M, N, norm)
    # every column of the ball is an interval [-h, h]; points come
    # column-major, so a column's last point carries its h
    half = {x: y for x, y in norm_ball(M - 1, norm)}
    spans: dict[int, list[tuple[int, int]]] = {}
    for n in range(N):
        cm, cn = a * n, b * n
        for x, h in half.items():
            spans.setdefault(cm + x, []).append((cn - h, cn + h))
    pts: list[Point] = []
    for m in sorted(spans):
        col = sorted(spans[m])
        lo, hi = col[0]
        for start, end in col:
            if start > hi + 1:
                pts.extend(zip(repeat(m), range(lo, hi + 1)))
                lo, hi = start, end
            elif end > hi:
                hi = end
        pts.extend(zip(repeat(m), range(lo, hi + 1)))
    return LatticeSet._sorted(tuple(pts))


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
