"""Dimension estimates, the resolution rule and the reciprocal
extrapolation model."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class DimensionEstimate:
    """A finite-scale dimension sequence with its extrapolated limit.

    ``value`` is the fitted limit, ``sequence`` the raw per-scale values,
    ``schedule`` the evaluation points that produced them, ``model`` names
    the abscissa the straight-line fit used (so alternative models can be
    compared), and ``coefficients`` stores (limit, slope) of the fit.
    ``kind`` records the direction of the estimate: "exact" is reserved
    for exactness-certified systems.
    """

    value: float
    kind: str  # "upper-bound" | "lower-bound" | "exact"
    schedule: tuple = ()
    sequence: tuple[float, ...] = ()
    model: str = ""
    coefficients: tuple[float, float] = (0.0, 0.0)


def fit_limit(xs, vs) -> tuple[float, float]:
    """Least-squares fit v = v_inf + c*x; returns (v_inf, c).

    The abscissa x is a vanishing scale variable (1/M or similar), so the
    intercept is the extrapolated limit.  Raises ValueError with fewer
    than two distinct abscissae.
    """
    xs = [float(x) for x in xs]
    vs = [float(v) for v in vs]
    if len(xs) != len(vs):
        raise ValueError("schedule and values have different lengths")
    if len(set(xs)) < 2:
        raise ValueError("extrapolation needs at least two distinct scales")
    n = len(xs)
    mx = sum(xs) / n
    mv = sum(vs) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxv = sum((x - mx) * (v - mv) for x, v in zip(xs, vs))
    c = sxv / sxx
    return mv - c * mx, c


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless the metric base alpha is finite and above 1."""
    if not (math.isfinite(alpha) and alpha > 1):
        raise ValueError(f"alpha must be finite and exceed 1, got {alpha}")


def resolution_depth(alpha: float, epsilon: float, scale: float = 1.0) -> int:
    """The smallest M >= 1 with scale * alpha^-M < epsilon.

    With scale 1 this is the resolution index of epsilon, the unique M
    with alpha^-M < epsilon <= alpha^-(M-1).  M starts at the logarithmic
    estimate and is settled by that same comparison, so the work does not
    grow with M.  Raises ValueError unless alpha is finite and above 1
    and 0 < epsilon <= scale.
    """
    check_alpha(alpha)
    if not 0 < epsilon <= scale:
        raise ValueError(f"epsilon must lie in (0, {scale:g}], got {epsilon}")
    M = max(1, int((math.log(scale) - math.log(epsilon)) / math.log(alpha)))
    while M > 1 and scale * alpha ** -(M - 1) < epsilon:
        M -= 1
    while scale * alpha ** -M >= epsilon:
        M += 1
    return M
