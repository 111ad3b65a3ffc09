"""Shift ultrametrics, Bowen windows, covering numbers and the dimension
estimators.

The metric on A^(Z^2) is alpha^-(smallest norm of a disagreement site),
with the norm either sup (the default) or Euclidean.  Its value set is
discrete, so for a distortion epsilon with resolution index M (meaning
alpha^-M < epsilon <= alpha^-(M-1)) the sets of diameter below epsilon
are exactly the cylinders over the Bowen window W(M, N), and the
covering number is an exact pattern count.  That identity drives every
estimator here; a brute-force minimal-cover oracle in the test suite
checks it on miniature systems.

Dimension ratios are evaluated on the schedule eps_M = alpha^-(M-1), so
log(1/eps_M) = (M-1) log alpha exactly.  Per-scale Hausdorff exponents
normalise by the cover depth M instead (their covers have diameter
alpha^-M), which is why their extrapolation model uses the 1/M abscissa
while the metric mean dimension uses 1/(M-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import EmptyLanguageError, InvertedBoundsError, ResourceGuardError
from .estimates import DimensionEstimate, check_alpha, fit_limit, resolution_depth
from .information import MeasureSpec, check_support, max_cylinder_log2_prob
from .lattice import IntRect, LatticeSet, lambda_count, lambda_set, norm_ball
from .subshift import (Pattern, SftSpec, closed_form_applies, count_locally_admissible,
                       word_count_1d)


@dataclass(frozen=True)
class MetricSpec:
    """Base alpha > 1 and the norm weighting disagreement sites."""

    alpha: float
    norm: str = "linf"

    def __post_init__(self):
        check_alpha(self.alpha)
        if self.norm not in ("linf", "l2"):
            raise ValueError(f"unknown norm {self.norm!r}")

    @property
    def log2_alpha(self) -> float:
        return math.log2(self.alpha)

    def epsilon_at(self, M: int) -> float:
        """Top of the resolution-M bracket: alpha^-(M-1)."""
        return self.alpha ** (-(M - 1))


@dataclass(frozen=True)
class ActionSpec:
    """The rank-one subaction generated by shifting along (a, b)."""

    a: int = 1
    b: int = 0

    def __post_init__(self):
        if (self.a, self.b) == (0, 0):
            raise ValueError("action direction must be nonzero")


@dataclass(frozen=True)
class ResolutionIndex:
    M: int

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("resolution index must be at least 1")


class MetricValue(NamedTuple):
    """Distance value; ``exact`` False means 'true distance <= value'
    (the patterns agree on their whole support)."""

    value: float
    exact: bool


def _log2_count(c: int) -> float:
    if c <= 0:
        raise EmptyLanguageError(
            "no admissible pattern fits the window: the subshift is empty")
    return math.log2(c)


def resolution_index(spec: MetricSpec, epsilon: float) -> ResolutionIndex:
    """The unique M >= 1 with alpha^-M < epsilon <= alpha^-(M-1)."""
    return ResolutionIndex(resolution_depth(spec.alpha, epsilon))


def _site_norm(spec: MetricSpec, u) -> float:
    if spec.norm == "linf":
        return float(max(abs(u[0]), abs(u[1])))
    return math.sqrt(u[0] * u[0] + u[1] * u[1])


def metric_eval(spec: MetricSpec, p: Pattern, q: Pattern) -> MetricValue:
    """Distance between two same-support patterns.

    With a disagreement the value alpha^-(min norm over disagreement
    sites) is exact.  When the patterns agree everywhere on the support
    the true distance depends on unseen cells; the certificate value is
    alpha^-(smallest norm outside the support), an upper bound.
    """
    pc, qc = p.cells, q.cells
    if tuple(pt for pt, _ in pc) != tuple(pt for pt, _ in qc):
        raise ValueError("metric_eval needs two patterns on the same support")
    best = None
    for (pt, a), (_, b) in zip(pc, qc):
        if a != b:
            nv = _site_norm(spec, pt)
            if best is None or nv < best:
                best = nv
    if best is not None:
        return MetricValue(spec.alpha ** (-best), True)
    return MetricValue(spec.alpha ** (-_min_norm_outside(spec, p.domain())), False)


def _min_norm_outside(spec: MetricSpec, support: LatticeSet) -> float:
    """Smallest site norm over the complement of the support.

    With the origin inside the support, clamping any far point into the
    one-cell ring around the bounding box never increases its norm, so
    scanning that ring finds the minimum.
    """
    if (0, 0) not in support:
        return 0.0
    box = support.bounding_box()
    best = None
    ring = IntRect(box.a - 1, box.b + 1, box.c - 1, box.d + 1)
    for u in ring.points():
        if u not in support:
            nv = _site_norm(spec, u)
            if best is None or nv < best:
                best = nv
    return best if best is not None else 0.0


def bowen_window(action: ActionSpec, N: int, M: int, norm: str = "linf") -> LatticeSet:
    """Determining window of the N-step Bowen metric at resolution M.

    The union of the radius-(M-1) norm ball translated along
    (na, nb) for 0 <= n < N, i.e. ``lambda_set``: two points are closer
    than any epsilon with resolution index M iff they agree on this set.
    For the horizontal action and the sup norm this is the rectangle
    [-(M-1), N+M-2] x [-(M-1), M-1].
    """
    return lambda_set(action.a, action.b, M, N, norm)


def covering_number(sft: SftSpec, spec: MetricSpec, action: ActionSpec, N: int,
                    epsilon: float) -> int:
    """Minimum number of sets of d_N-diameter below epsilon covering X.

    Computed as the locally admissible pattern count on the Bowen window:
    exact for certified fixtures, an upper bound otherwise.  Any epsilon
    above the space's diameter returns 1.
    """
    if sft.dimension != 2:
        raise ValueError("covering_number works on 2D specs")
    if epsilon > 1:
        return 1
    M = resolution_index(spec, epsilon).M
    return covering_count(sft, spec, action, N, M)


def covering_count(sft: SftSpec, spec: MetricSpec, action: ActionSpec, N: int,
                   M: int) -> int:
    """Pattern count on the Bowen window W(M, N).

    Under the sup norm a closed-form count over its guard is refused
    before the window is built, from the window's size and bounding box.
    """
    if spec.norm == "linf":
        side = 2 * M - 1
        closed_form_applies(sft, abs(action.a) * (N - 1) + side,
                            abs(action.b) * (N - 1) + side,
                            lambda_count(action.a, action.b, M, N))
    window = bowen_window(action, N, M, spec.norm)
    return count_locally_admissible(sft, window)


class EntropySlope(NamedTuple):
    value: float
    resolution: int
    table: tuple[tuple[int, float], ...]  # (N, log2 covering count)


def entropy_at_resolution(sft: SftSpec, spec: MetricSpec, action: ActionSpec,
                          epsilon: float, Nschedule: Sequence[int]) -> EntropySlope:
    """Growth rate of log2 covering numbers per iterate at one resolution.

    The slope between the two largest scheduled N values, plus the full
    (N, log2 count) table.  Exact in the limit sense for systems whose
    log-counts are affine in N (full shifts, row-lifts, three-dot).
    """
    Ns = sorted(set(int(N) for N in Nschedule))
    if len(Ns) < 2:
        raise ValueError("entropy_at_resolution needs at least two N values")
    M = resolution_index(spec, epsilon).M
    table = tuple((N, _log2_count(covering_count(sft, spec, action, N, M)))
                  for N in Ns)
    (N1, l1), (N2, l2) = table[-2], table[-1]
    return EntropySlope((l2 - l1) / (N2 - N1), M, table)


def m_schedule(action: ActionSpec, Mschedule: Sequence[int] | None = None) -> list[int]:
    """The sorted depths of a Bowen-window estimator along ``action``.

    Below M0, the smallest M with 2M-1 >= max(|a|, |b|), the balls of a
    window are narrower than the step between them, so the window skips
    whole columns or rows between consecutive balls; the counts stay
    exact, but the per-depth ratios do not follow the extrapolation
    model, so an explicit schedule starting below M0 is refused.  The
    default is five depths from max(2, M0): 2 to 6 for steps of at most 3.
    """
    M0 = (max(abs(action.a), abs(action.b)) + 2) // 2
    if Mschedule is None:
        start = max(2, M0)
        return list(range(start, start + 5))
    Ms = sorted(set(int(M) for M in Mschedule))
    if Ms and Ms[0] < 1:
        raise ValueError("M schedule must be positive")
    if Ms and Ms[0] < M0:
        raise ValueError(
            f"the windows along ({action.a},{action.b}) skip columns or rows below "
            f"M = {M0}; start the M schedule at {M0} or deeper")
    return Ms


def _n_pair(M: int, Nfactor: int) -> tuple[int, int]:
    hi = Nfactor * M
    lo = max(1, hi // 2)
    if lo == hi:
        raise ValueError("N schedule degenerate; increase Nfactor")
    return lo, hi


def mmdim_estimate(sft: SftSpec, spec: MetricSpec, action: ActionSpec = ActionSpec(),
                   Mschedule: Sequence[int] | None = None,
                   Nfactor: int = 16) -> DimensionEstimate:
    """Metric mean dimension estimate.

    Per scheduled M the ratio v_M = S(eps_M) / log2(1/eps_M) with
    eps_M = alpha^-(M-1); the limit is extrapolated by a straight line in
    1/(M-1), which is exact on the fixture families.  The schedule is
    checked, or defaulted, by ``m_schedule``.
    """
    Ms = m_schedule(action, Mschedule)
    if len(Ms) < 3:
        raise ValueError("mmdim_estimate wants at least three M values")
    if Ms[0] < 2:
        raise ValueError("the M schedule must start at 2 (log(1/eps) vanishes at M=1)")
    seq = []
    sched = []
    for M in Ms:
        lo, hi = _n_pair(M, Nfactor)
        slope = entropy_at_resolution(sft, spec, action, spec.epsilon_at(M), (lo, hi))
        seq.append(slope.value / ((M - 1) * spec.log2_alpha))
        sched.append((M, hi))
    v_inf, c = fit_limit([1.0 / (M - 1) for M in Ms], seq)
    kind = "exact" if sft.certified else "upper-bound"
    return DimensionEstimate(v_inf, kind, tuple(sched), tuple(seq),
                             "v = v_inf + c/(M-1)", (v_inf, c))


def hausdorff_upper_at_scale(sft: SftSpec, spec: MetricSpec, action: ActionSpec,
                             N: int, M: int, Mcap: int) -> float:
    """Upper bound on the Hausdorff exponent of d_N at scale eps_M.

    The uniform depth-M' cylinder cover has covering_count(M', N) members
    of diameter at most alpha^-M', so its critical exponent is
    log2(count)/(M' log2 alpha); minimising over M' in [M, Mcap] bounds
    dim_H(X, d_N, eps_M) from above.
    """
    if M > Mcap:
        raise ValueError("M must not exceed Mcap")
    return min(
        _log2_count(covering_count(sft, spec, action, N, Mp))
        / (Mp * spec.log2_alpha)
        for Mp in range(M, Mcap + 1))


def hausdorff_lower_at_scale(sft: SftSpec, measure: MeasureSpec, spec: MetricSpec,
                             action: ActionSpec, N: int, M: int, Mcap: int) -> float:
    """Mass-distribution lower bound on the Hausdorff exponent at scale eps_M.

    The largest s such that every depth-M' cylinder (M' in [M, Mcap]) has
    mass at most alpha^(-s M'): any countable cover by sets of diameter
    below eps_M refines into such cylinders, forcing the s-sum above the
    total mass 1.  For the shipped measure families the per-cylinder
    log-mass grows superlinearly in M', so the checked range contains the
    binding depth.
    """
    if M > Mcap:
        raise ValueError("M must not exceed Mcap")
    check_support(measure, sft)
    vals = []
    for Mp in range(M, Mcap + 1):
        window = bowen_window(action, N, Mp, spec.norm)
        top = max_cylinder_log2_prob(measure, window)
        vals.append(-top / (Mp * spec.log2_alpha))
    return min(vals)


def mhdim_bounds(sft: SftSpec, measure: MeasureSpec | None, spec: MetricSpec,
                 action: ActionSpec = ActionSpec(),
                 Mschedule: Sequence[int] | None = None, Nfactor: int = 16,
                 ) -> tuple[DimensionEstimate | None, DimensionEstimate]:
    """Mean Hausdorff dimension bracket (lower needs a measure).

    The per-iterate limit of the at-scale bounds is taken through N-slopes
    of the depth-M' exponents, then minimised over M' >= M; both sequences
    extrapolate linearly in 1/M (exact on fixtures).  Returns
    (lower or None, upper); the upper sequence sits below the matching
    metric-mean-dimension sequence pointwise.  The schedule is checked,
    or defaulted, by ``m_schedule``.
    """
    Ms = m_schedule(action, Mschedule)
    if len(Ms) < 3:
        raise ValueError("mhdim_bounds wants at least three M values")
    Mcap = Ms[-1]
    if measure is not None:
        check_support(measure, sft)

    # Per-depth at-scale ratios.  The depth-M value alone already upper-
    # bounds (per N) the scale-M Hausdorff exponent and converges to the
    # mean dimension, so the upper sequence uses it directly; minimising
    # over deeper covers up to a fixed cap would pin zero-entropy systems
    # at 1/Mcap instead of decaying.
    upper_ratio = {}
    lower_ratio = {}
    for Mp in range(Ms[0], Mcap + 1):
        lo, hi = _n_pair(Mp, Nfactor)
        slope = entropy_at_resolution(sft, spec, action, spec.epsilon_at(Mp), (lo, hi))
        upper_ratio[Mp] = slope.value / (Mp * spec.log2_alpha)
        if measure is not None:
            g_lo = -max_cylinder_log2_prob(measure, bowen_window(action, lo, Mp, spec.norm))
            g_hi = -max_cylinder_log2_prob(measure, bowen_window(action, hi, Mp, spec.norm))
            lower_ratio[Mp] = (g_hi - g_lo) / (hi - lo) / (Mp * spec.log2_alpha)

    sched = tuple((M, Nfactor * M) for M in Ms)
    xs = [1.0 / M for M in Ms]
    u_seq = [upper_ratio[M] for M in Ms]
    u_inf, uc = fit_limit(xs, u_seq)
    kind = "exact" if sft.certified else "upper-bound"
    upper = DimensionEstimate(u_inf, kind, sched, tuple(u_seq),
                              "v = v_inf + c/M", (u_inf, uc))

    lower = None
    if measure is not None:
        # The mass-distribution bound needs the per-depth ratio minimised
        # over every deeper cover; when the minimum still sits at the cap
        # with the ratios decreasing, the infimum escapes the checked
        # range and only 0 can be certified.
        l_seq = []
        for M in Ms:
            window_vals = [lower_ratio[Mp] for Mp in range(M, Mcap + 1)]
            val = min(window_vals)
            if (len(window_vals) > 1 and val == window_vals[-1]
                    and window_vals[-1] < window_vals[-2] - 1e-12):
                val = 0.0
            l_seq.append(val)
        l_inf, lc = fit_limit(xs, l_seq)
        lower = DimensionEstimate(l_inf, "lower-bound", sched, tuple(l_seq),
                                  "v = v_inf + c/M", (l_inf, lc))
        if lower.value > upper.value + 1e-9:
            raise InvertedBoundsError(
                f"mass-distribution lower bound {lower.value} exceeds the "
                f"uniform-cover upper bound {upper.value}")
    return lower, upper


# largest Mmax of tame_growth_check; the full shift's count at depth M is
# q^((2M-1)^2), whose size makes run time grow about as M^4
MAX_TAME_M = 256


class TameGrowthResult(NamedTuple):
    table: tuple[tuple[int, float], ...]  # (M, eps_M^delta * log2 count)
    verdict: str  # "consistent" | "inconclusive"


def tame_growth_check(sft: SftSpec, spec: MetricSpec, delta: float,
                      Mmax: int) -> TameGrowthResult:
    """Check eps^delta * log2 #(X, d, eps) along eps_M = alpha^-(M-1).

    Uses the static metric (no dynamics): the window at resolution M is
    the radius-(M-1) norm ball, for the sup norm the (2M-1) x (2M-1)
    square.  Verdict "consistent" when the tail of the sequence is
    nonincreasing.
    """
    if sft.dimension != 2:
        raise ValueError("tame_growth_check reads 2D window counts; got a 1D spec")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if Mmax < 2:
        raise ValueError("Mmax must be at least 2")
    if Mmax > MAX_TAME_M:
        raise ResourceGuardError(
            f"Mmax {Mmax} is above the tame-check guard {MAX_TAME_M}; the window at "
            f"depth M has (2M-1)^2 cells, and the full shift counts q^((2M-1)^2) on it")
    rows = []
    for M in range(1, Mmax + 1):
        if spec.norm == "linf":
            window = IntRect(1 - M, M - 1, 1 - M, M - 1)
        else:
            window = norm_ball(M - 1, spec.norm)
        try:
            c = count_locally_admissible(sft, window)
        except ResourceGuardError as err:
            raise ResourceGuardError(
                f"tame-check cannot count the window at depth M = {M} ({err}); "
                f"the largest Mmax it can count on this subshift is {M - 1}") from err
        rows.append((M, spec.epsilon_at(M) ** delta * _log2_count(c)))
    tail = max(2, Mmax // 4)
    diffs = [rows[i + 1][1] - rows[i][1] for i in range(len(rows) - 1)]
    verdict = "consistent" if all(d <= 1e-12 for d in diffs[-tail:]) else "inconclusive"
    return TameGrowthResult(tuple(rows), verdict)


# ---------------------------------------------------------------------------
# dimension-1 mode: static Minkowski / Hausdorff dimensions of one-sided
# subshifts under d(x, y) = alpha^-(first disagreement)
# ---------------------------------------------------------------------------

DEFAULT_M_SCHEDULE_1D = (4, 6, 8, 10, 14, 20)


def minkowski_sequence_1d(sft: SftSpec, spec: MetricSpec,
                          Mschedule: Sequence[int]) -> list[tuple[int, float]]:
    """Box-counting ratios log2 c(M) / (M log2 alpha).

    Sampled at epsilon just above alpha^-M, where the covering sets are
    the depth-M cylinders: c(M) words, each of diameter at most alpha^-M.
    """
    if sft.dimension != 1:
        raise ValueError("minkowski_sequence_1d expects a 1D spec")
    out = []
    for M in sorted(set(int(M) for M in Mschedule)):
        if M < 1:
            raise ValueError("depths must be positive")
        out.append((M, _log2_count(word_count_1d(sft, M)) / (M * spec.log2_alpha)))
    return out


def minkowski_estimate_1d(sft: SftSpec, spec: MetricSpec,
                          Mschedule: Sequence[int] = DEFAULT_M_SCHEDULE_1D
                          ) -> DimensionEstimate:
    """Extrapolated Minkowski dimension of a 1D subshift."""
    table = minkowski_sequence_1d(sft, spec, Mschedule)
    Ms = [M for M, _ in table]
    vs = [v for _, v in table]
    v_inf, c = fit_limit([1.0 / M for M in Ms], vs)
    return DimensionEstimate(v_inf, "upper-bound", tuple((M,) for M in Ms),
                             tuple(vs), "v = v_inf + c/M", (v_inf, c))


def hausdorff_bracket_1d(sft: SftSpec, measure: MeasureSpec, spec: MetricSpec,
                         M: int, Mcap: int | None = None) -> tuple[float, float]:
    """(lower, upper) bounds on the Hausdorff dimension at depth M.

    Upper: critical exponent of the uniform depth-M' word cover,
    minimised over M' in [M, Mcap].  Lower: mass distribution with the
    given chain measure (largest s with every depth-M' word mass at most
    alpha^(-s M')).
    """
    if sft.dimension != 1:
        raise ValueError("hausdorff_bracket_1d expects a 1D spec")
    check_support(measure, sft)
    Mcap = M if Mcap is None else Mcap
    if Mcap < M:
        raise ValueError("Mcap must be at least M")
    uppers = []
    lowers = []
    for Mp in range(M, Mcap + 1):
        uppers.append(_log2_count(word_count_1d(sft, Mp)) / (Mp * spec.log2_alpha))
        row = LatticeSet((m, 0) for m in range(Mp))
        lowers.append(-max_cylinder_log2_prob(measure, row) / (Mp * spec.log2_alpha))
    return min(lowers), min(uppers)
