"""Blahut-Arimoto computation of finite rate-distortion problems.

The curve is traced parametrically by the Lagrange slope: each run
alternates the reproduction marginal and the optimal conditional for the
kernel 2^(-slope * distortion) until the standard Csiszar gap drops
below tolerance.  Initialisation is uniform and zero-probability source
outcomes are dropped, so the output is deterministic.  The iteration
runs on the problem's symmetry quotient, its coarsest equitable
partition (``RdProblem.reduced``): Z is constant on each row class and
the reproduction marginal on each column class, so rate and distortion
are read on one row per row class, every row of a class having the same
terms.  A sweep runs its slopes as one stacked iteration, each slope on
the same iterates as a run of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import kernels
from .errors import NonConvergenceError, ResourceGuardError
from .estimates import check_alpha
from .information import FiniteDistribution, MeasureSpec, window_marginal
from .lattice import min_norm_outside, norm_ball, site_norm


@dataclass(frozen=True, eq=False)
class RdProblem:
    """A finite source, a reproduction alphabet and a distortion matrix.

    ``distortion`` is kept as a read-only float64 array, copied from the
    given one unless that is read-only and owns its memory already (as
    ``rd_problem_from_measure``'s is), so a problem never aliases a
    writeable array.  Two problems are equal when their sources,
    reproductions and distortion values are; the hash leaves the array out.
    """

    source: FiniteDistribution
    reproductions: tuple
    distortion: np.ndarray

    def __post_init__(self):
        d = self.distortion
        if not (isinstance(d, np.ndarray) and d.dtype == np.float64 and d.base is None
                and not d.flags.writeable):
            d = np.array(d, dtype=np.float64)
            d.setflags(write=False)
            object.__setattr__(self, "distortion", d)
        if not self.reproductions:
            raise ValueError("the reproduction alphabet is empty")
        if d.shape != (len(self.source.outcomes), len(self.reproductions)):
            raise ValueError("distortion matrix shape does not match the alphabets")
        if not np.isfinite(d).all() or (d < 0).any():
            raise ValueError("distortion entries must be finite and nonnegative")

    @classmethod
    def build(cls, source: FiniteDistribution, reproductions, distortion) -> "RdProblem":
        return cls(source, tuple(reproductions), distortion)

    def distortion_array(self) -> np.ndarray:
        """The stored read-only array itself, not a copy."""
        return self.distortion

    @cached_property
    def reduced(self):
        """(p, rho, rows, cols): the problem Blahut-Arimoto runs, computed once.

        Source outcomes of probability 0 are dropped: p and rho are the
        remaining probabilities and distortion rows, over every
        reproduction.  ``rows`` and ``cols`` label the coarsest equitable
        partition of these arrays, each numbering its classes 0, 1, ... in
        first-occurrence order.  The rows start in classes of equal p and
        the columns in one class, since the start is uniform; then each
        class is split until every row of a class sees the same multiset of
        distortions in each column class, and every column of a class the
        same multiset in each row class.  Each refinement sorts a row's
        values within each class and groups the rows by their exact bytes,
        -0.0 read as 0.0, so equal columns always share a class.
        ``kernels.ba_sweep`` runs Blahut-Arimoto on the class problem: 48x50
        for the golden window problem's 125x512, 1x1 for a Bernoulli(1/2)
        window's 512x512.  A partition into single rows and columns gives
        identity labels, and the run takes the dense arrays bit for bit.
        """
        p = self.source.prob_array()
        keep = p > 0
        if not keep.any():
            raise ValueError("source has no outcome with positive probability")
        p = p[keep]
        rho = self.distortion if keep.all() else self.distortion[keep, :]
        rows = _split(np.zeros(len(p), dtype=np.intp), p[:, None])
        cols = np.zeros(rho.shape[1], dtype=np.intp)
        while True:
            rows = _refine(rows, rho, cols)
            # the rows were just refined against these columns, so both
            # sides are stable once the columns do not split
            new_cols = _refine(cols, rho.T, rows)
            if new_cols.max() == cols.max():
                break
            cols = new_cols
        # every caller gets these same arrays
        for a in (p, rho, rows, cols):
            a.setflags(write=False)
        return p, rho, rows, cols

    def __eq__(self, other):
        if not isinstance(other, RdProblem):
            return NotImplemented
        return (self.source == other.source and self.reproductions == other.reproductions
                and np.array_equal(self.distortion, other.distortion))

    def __hash__(self):
        return hash((self.source, self.reproductions))


def _refine(labels, a, other) -> np.ndarray:
    """``labels`` of the rows of ``a`` refined by the multiset of values
    each row holds in each class of ``other``, the labels of a's columns.
    The rows are compared on copies of an eighth of them at a time, the
    columns grouped by class, each row sorted within each class and -0.0
    read as 0.0.  Single rows split no further, so a partition into them
    is returned as is."""
    if labels.max() + 1 == len(labels):
        return labels
    order = np.argsort(other, kind="stable")
    ends = (np.flatnonzero(np.diff(other[order])) + 1).tolist()
    spans = [(lo, hi) for lo, hi in zip([0] + ends, ends + [len(order)]) if hi - lo > 1]
    # labels in first-occurrence order are sorted when no class interleaves
    # another, and a plain copy is faster than a take, most of all from a
    # transposed view
    grouped = (np.diff(order) == 1).all()

    def rows():
        step = -(-len(a) // 8)
        for lo in range(0, len(a), step):
            block = a[lo:lo + step]
            block = np.array(block, order="C") if grouped else np.take(block, order, axis=1)
            for s, e in spans:
                block[:, s:e].sort(axis=1)
            block += 0.0
            yield from block

    return _split(labels, rows())


def _split(labels, sig) -> np.ndarray:
    """``labels`` refined by the rows of ``sig``: two rows stay in one class
    when they shared one and their ``sig`` rows are equal byte for byte.
    Classes are numbered in first-occurrence order.  A row whose bytes
    equal those of its class's first row keeps that row's class without
    being hashed; only the other rows are hashed."""
    classes, firsts = {}, {}
    out = []
    for label, row in zip(labels.tolist(), sig):
        b = row.tobytes()
        key = label if firsts.setdefault(label, b) == b else (label, b)
        out.append(classes.setdefault(key, len(classes)))
    return np.array(out, dtype=np.intp)


@dataclass(frozen=True)
class RdPoint:
    """One point of the rate-distortion curve."""

    rate: float
    distortion: float
    slope: float
    iterations: int

    def __post_init__(self):
        if self.rate < -1e-12:
            raise ValueError("negative rate")


def blahut_arimoto(problem: RdProblem, slope: float, tol: float = 1e-9,
                   max_iter: int = 20000) -> RdPoint:
    """Rate-distortion point at the given Lagrange slope.

    Raises NonConvergenceError (carrying the residual gap) if the Csiszar
    gap does not fall below ``tol`` within ``max_iter`` iterations.
    """
    _check_run(slope, tol, max_iter)
    p, rho, *classes = problem.reduced
    rate, dist, iters, gap, converged = kernels.ba_solve(p, rho, float(slope), float(tol),
                                                         int(max_iter), classes)
    return _point(slope, tol, rate, dist, iters, gap, converged)


def rd_curve(problem: RdProblem, slopes: Sequence[float], tol: float = 1e-9,
             max_iter: int = 20000) -> list[RdPoint]:
    """Sweep the curve over a slope schedule, one point per slope in order.

    The slopes run as one stacked Blahut-Arimoto iteration, in chunks of
    consecutive slopes whose kernels and ring slots fit
    ``kernels.BATCH_BYTES`` (see ``kernels.slope_bytes``); each
    point is the one ``blahut_arimoto`` returns at its slope.  The first
    slope in schedule order that does not converge raises its
    NonConvergenceError, and later chunks are not run.
    """
    slopes = [float(s) for s in slopes]
    for s in slopes:
        _check_run(s, tol, max_iter)
    p, rho, *classes = problem.reduced
    chunk = max(1, kernels.BATCH_BYTES // kernels.slope_bytes(rho, classes))
    points = []
    for i in range(0, len(slopes), chunk):
        part = slopes[i:i + chunk]
        runs = kernels.ba_sweep(p, rho, part, float(tol), int(max_iter), classes)
        points += [_point(s, tol, *run) for s, run in zip(part, runs)]
    return points


def _check_run(slope, tol, max_iter) -> None:
    if not math.isfinite(slope) or slope <= 0:
        raise ValueError(f"slope must be positive and finite, got {slope}")
    if not math.isfinite(tol) or tol <= 0:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def _point(slope, tol, rate, dist, iters, gap, converged) -> RdPoint:
    if not converged:
        raise NonConvergenceError(
            f"Blahut-Arimoto at slope {slope:g}: gap {gap:.3e} still above tol "
            f"{tol:.1e} after {iters} iterations", gap)
    return RdPoint(max(rate, 0.0), dist, float(slope), iters)


def binary_hamming_problem(p0: float = 0.5) -> RdProblem:
    """Bernoulli(p0) source with Hamming distortion; R(D) = H(p0) - H(D)."""
    source = FiniteDistribution(("0", "1"), (p0, 1.0 - p0))
    return RdProblem.build(source, ("0", "1"), [[0.0, 1.0], [1.0, 0.0]])


def slope_for_hamming_distortion(D: float) -> float:
    """Lagrange slope at which the binary-Hamming curve passes distortion D."""
    if not 0 < D < 0.5:
        raise ValueError("D must lie in (0, 1/2)")
    return float(np.log2((1.0 - D) / D))


# outcomes of the largest window problem; its distortion matrix is their square
MAX_PROBLEM_OUTCOMES = 4096


def rd_problem_from_measure(measure: MeasureSpec, alpha: float, M: int) -> RdProblem:
    """Process-level problem on depth-M window patterns.

    Source and reproduction outcomes are the patterns on the radius-(M-1)
    norm ball; the distortion is the truncated metric, alpha^-(smallest
    disagreement norm).  Two patterns that agree on the whole window get
    the agreement level alpha^-(smallest norm outside the window), the
    value ``metric_eval`` certifies: alpha^-M.  The truncation upper-bounds the true distortion,
    so rates computed from it stay valid upper bounds.  Refused before any
    work above ``MAX_PROBLEM_OUTCOMES`` outcomes.
    """
    check_alpha(alpha)
    if M < 1:
        raise ValueError(f"window depth M must be at least 1, got {M}")
    window = norm_ball(M - 1)
    pts = window.points
    q = len(measure.alphabet)
    n_out = q ** len(pts)
    if n_out > MAX_PROBLEM_OUTCOMES:
        raise ResourceGuardError(f"window problem would have {n_out} outcomes, above "
                                 f"the guard MAX_PROBLEM_OUTCOMES = {MAX_PROBLEM_OUTCOMES}")
    source = window_marginal(measure, window)
    norms = np.array([site_norm(u) for u in pts])
    # outcome k's symbol index at cell i is base-q digit i of k, the first
    # cell most significant (window_marginal's canonical order)
    place = q ** np.arange(len(pts))[::-1]
    digits = np.arange(n_out)[:, None] // place % q
    levels = sorted(set(norms.tolist()))
    # the agreement level where the whole window agrees, then, from the
    # largest level down, alpha^-level where the restrictions to that level differ
    agree = min_norm_outside(window)
    table = alpha ** -np.array(levels + [agree], dtype=np.float64)
    dist = np.full((n_out, n_out), table[-1])
    differ = np.empty(dist.shape, dtype=bool)
    for k in reversed(range(len(levels))):
        inside = norms <= levels[k]
        code = digits[:, inside] @ place[inside]  # the restriction, as a number
        np.not_equal(code[:, None], code[None, :], out=differ)
        np.copyto(dist, table[k], where=differ)
    # read-only, so the problem keeps this array instead of a copy
    dist.setflags(write=False)
    return RdProblem.build(source, source.outcomes, dist)
