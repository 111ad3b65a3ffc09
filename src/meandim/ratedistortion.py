"""Blahut-Arimoto computation of finite rate-distortion problems.

The curve is traced parametrically by the Lagrange slope: each run
alternates the reproduction marginal and the optimal conditional for the
kernel 2^(-slope * distortion) until the standard Csiszar gap drops
below tolerance.  Initialisation is uniform, zero-probability source
outcomes are dropped and equal distortion columns are lumped first, so
the output is deterministic.  A sweep runs its slopes as one stacked
iteration, each slope on the same iterates as a run of its own.
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
    given one.  Two problems are equal when their sources, reproductions
    and distortion values are; the hash leaves the array out.
    """

    source: FiniteDistribution
    reproductions: tuple
    distortion: np.ndarray

    def __post_init__(self):
        d = np.array(self.distortion, dtype=np.float64)
        d.setflags(write=False)
        object.__setattr__(self, "distortion", d)
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
    def lumped(self):
        """(p, rho, q0): the problem Blahut-Arimoto runs, computed once.

        Source outcomes of probability 0 are dropped.  Reproductions whose
        distortion columns are then equal get equal c(y), hence equal
        mass, on every iteration, so each group of equal columns is kept
        once, in first-occurrence order, and ``q0`` starts it at its
        multiplicity over the reproduction count.  The lumped iteration
        follows the summed mass of each group, and rate and distortion
        come out the same.  Without equal columns the arrays are the dense
        ones and q0 is the uniform start 1/ny.
        """
        p = self.source.prob_array()
        keep = p > 0
        if not keep.any():
            raise ValueError("source has no outcome with positive probability")
        p = p[keep]
        rho = self.distortion if keep.all() else self.distortion[keep, :]
        ny = rho.shape[1]
        # columns grouped by their bytes, in first-occurrence order; + 0.0
        # maps -0.0 to 0.0
        groups = {}
        for j, col in enumerate(np.add(rho.T, 0.0, order="C")):
            groups.setdefault(col.tobytes(), []).append(j)
        # free the byte keys, a column's worth each, before allocating q0:
        # an array allocated while they live keeps their heap from shrinking
        groups = list(groups.values())
        if len(groups) < ny:
            rho = np.ascontiguousarray(rho[:, [g[0] for g in groups]])
        q0 = np.array([len(g) for g in groups]) / ny
        # every caller gets these same arrays
        for a in (p, rho, q0):
            a.setflags(write=False)
        return p, rho, q0

    def __eq__(self, other):
        if not isinstance(other, RdProblem):
            return NotImplemented
        return (self.source == other.source and self.reproductions == other.reproductions
                and np.array_equal(self.distortion, other.distortion))

    def __hash__(self):
        return hash((self.source, self.reproductions))


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
    p, rho, q0 = problem.lumped
    rate, dist, iters, gap, converged = kernels.ba_solve(p, rho, float(slope), float(tol),
                                                         int(max_iter), q0=q0)
    return _point(slope, tol, rate, dist, iters, gap, converged)


def rd_curve(problem: RdProblem, slopes: Sequence[float], tol: float = 1e-9,
             max_iter: int = 20000) -> list[RdPoint]:
    """Sweep the curve over a slope schedule, one point per slope in order.

    The slopes run as one stacked Blahut-Arimoto iteration, in chunks of
    consecutive slopes whose kernels fit ``kernels.BATCH_BYTES``; each
    point is the one ``blahut_arimoto`` returns at its slope.  The first
    slope in schedule order that does not converge raises its
    NonConvergenceError, and later chunks are not run.
    """
    slopes = [float(s) for s in slopes]
    for s in slopes:
        _check_run(s, tol, max_iter)
    p, rho, q0 = problem.lumped
    chunk = max(1, kernels.BATCH_BYTES // (8 * rho.size))
    points = []
    for i in range(0, len(slopes), chunk):
        part = slopes[i:i + chunk]
        runs = kernels.ba_sweep(p, rho, part, float(tol), int(max_iter), q0)
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


def rd_problem_from_measure(measure: MeasureSpec, alpha: float, M: int,
                            norm: str = "linf") -> RdProblem:
    """Process-level problem on depth-M window patterns.

    Source and reproduction outcomes are the patterns on the radius-(M-1)
    norm ball; the distortion is the truncated metric, alpha^-(smallest
    disagreement norm).  Two patterns that agree on the whole window get
    the agreement level alpha^-(smallest norm outside the window), the
    value ``metric_eval`` certifies: alpha^-M under the sup norm and
    alpha^-sqrt((M-1)^2 + 1), above alpha^-M from M = 2 on, under the
    Euclidean one.  The truncation upper-bounds the true distortion,
    so rates computed from it stay valid upper bounds.  Refused before any
    work above ``MAX_PROBLEM_OUTCOMES`` outcomes.
    """
    check_alpha(alpha)
    if M < 1:
        raise ValueError(f"window depth M must be at least 1, got {M}")
    window = norm_ball(M - 1, norm)
    pts = window.points
    q = len(measure.alphabet)
    n_out = q ** len(pts)
    if n_out > MAX_PROBLEM_OUTCOMES:
        raise ResourceGuardError(f"window problem would have {n_out} outcomes, above "
                                 f"the guard MAX_PROBLEM_OUTCOMES = {MAX_PROBLEM_OUTCOMES}")
    source = window_marginal(measure, window)
    norms = np.array([site_norm(u, norm) for u in pts])
    # outcome k's symbol index at cell i is base-q digit i of k, the first
    # cell most significant (window_marginal's canonical order)
    place = q ** np.arange(len(pts))[::-1]
    digits = np.arange(n_out)[:, None] // place % q
    levels = sorted(set(norms.tolist()))
    # the agreement level where the whole window agrees, then, from the
    # largest level down, alpha^-level where the restrictions to that level differ
    agree = min_norm_outside(window, norm)
    table = alpha ** -np.array(levels + [agree], dtype=np.float64)
    dist = np.full((n_out, n_out), table[-1])
    differ = np.empty(dist.shape, dtype=bool)
    for k in reversed(range(len(levels))):
        inside = norms <= levels[k]
        code = digits[:, inside] @ place[inside]  # the restriction, as a number
        np.not_equal(code[:, None], code[None, :], out=differ)
        np.copyto(dist, table[k], where=differ)
    return RdProblem.build(source, source.outcomes, dist)
