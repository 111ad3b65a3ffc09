"""Blahut-Arimoto computation of finite rate-distortion problems.

The curve is traced parametrically by the Lagrange slope: each call
alternates the reproduction marginal and the optimal conditional for the
kernel 2^(-slope * distortion) until the standard Csiszar gap drops
below tolerance.  Initialisation is uniform and zero-probability source
outcomes are dropped first, so the output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .errors import NonConvergenceError
from .information import FiniteDistribution, MeasureSpec, window_marginal
from .lattice import norm_ball


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
    if slope <= 0:
        raise ValueError("slope must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    p = problem.source.prob_array()
    rho = problem.distortion_array()
    keep = p > 0
    p = p[keep]
    rho = rho[keep, :]
    if p.size == 0:
        raise ValueError("source has no outcome with positive probability")
    rate, dist, iters, gap, converged = kernels.ba_solve(p, rho, float(slope),
                                                         float(tol), int(max_iter))
    if not converged:
        raise NonConvergenceError(
            f"Blahut-Arimoto at slope {slope:g}: gap {gap:.3e} still above tol "
            f"{tol:.1e} after {iters} iterations", gap)
    return RdPoint(max(rate, 0.0), dist, float(slope), iters)


def rd_curve(problem: RdProblem, slopes: Sequence[float], tol: float = 1e-9,
             max_iter: int = 20000) -> list[RdPoint]:
    """Sweep the curve over a slope schedule (one independent run each)."""
    return [blahut_arimoto(problem, s, tol, max_iter) for s in slopes]


def binary_hamming_problem(p0: float = 0.5) -> RdProblem:
    """Bernoulli(p0) source with Hamming distortion; R(D) = H(p0) - H(D)."""
    source = FiniteDistribution(("0", "1"), (p0, 1.0 - p0))
    return RdProblem.build(source, ("0", "1"), [[0.0, 1.0], [1.0, 0.0]])


def slope_for_hamming_distortion(D: float) -> float:
    """Lagrange slope at which the binary-Hamming curve passes distortion D."""
    if not 0 < D < 0.5:
        raise ValueError("D must lie in (0, 1/2)")
    return float(np.log2((1.0 - D) / D))


def rd_problem_from_measure(measure: MeasureSpec, alpha: float, M: int,
                            norm: str = "linf", *,
                            max_outcomes: int = 4096) -> RdProblem:
    """Process-level problem on depth-M window patterns.

    Source and reproduction outcomes are the patterns on the radius-(M-1)
    norm ball; the distortion is the truncated metric, alpha^-(smallest
    disagreement norm) with alpha^-M when two patterns agree on the whole
    window.  The truncation upper-bounds the true distortion, so rates
    computed from it stay valid upper bounds.
    """
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    window = norm_ball(M - 1, norm)
    source = window_marginal(measure, window, max_outcomes=max_outcomes)
    pats = source.outcomes
    pts = window.points
    norms = np.array([max(abs(m), abs(n)) if norm == "linf" else np.hypot(m, n)
                      for (m, n) in pts])
    arrays = np.array([[measure.alphabet.index(pat[pt]) for pt in pts] for pat in pats])
    n = len(pats)
    dist = np.empty((n, n))
    for i in range(n):
        neq = arrays != arrays[i]
        masked = np.where(neq, norms[None, :], np.inf)
        expo = masked.min(axis=1)
        expo = np.where(np.isinf(expo), float(M), expo)
        dist[i] = alpha ** (-expo)
    return RdProblem.build(source, pats, dist)
